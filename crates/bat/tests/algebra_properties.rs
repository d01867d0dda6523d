//! Property tests for the kernel algebra: the set-algebraic laws the
//! Figure 1 plan relies on (delta merging via kunion/kdifference must
//! behave like set union/difference over head oids).

use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeSet;

use soc_bat::{algebra, Atom, Bat, Head, Tail};

/// A bat with distinct head oids and int tails.
fn arb_bat() -> impl Strategy<Value = Bat> {
    vec((0u64..200, -100i64..100), 0..60).prop_map(|mut pairs| {
        pairs.sort_by_key(|(h, _)| *h);
        pairs.dedup_by_key(|(h, _)| *h);
        let (heads, tails): (Vec<u64>, Vec<i64>) = pairs.into_iter().unzip();
        Bat::new(Head::Oids(heads.into()), Tail::Int(tails.into())).expect("lengths equal")
    })
}

fn head_set(b: &Bat) -> BTreeSet<u64> {
    b.head_oids().into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn kunion_is_set_union_on_heads(a in arb_bat(), b in arb_bat()) {
        let u = algebra::kunion(&a, &b).unwrap();
        let expect: BTreeSet<u64> = head_set(&a).union(&head_set(&b)).copied().collect();
        prop_assert_eq!(head_set(&u), expect);
        // Left bias: for oids in both, a's tail value wins.
        let Tail::Int(ut) = u.tail() else { panic!() };
        let Tail::Int(at) = a.tail() else { panic!() };
        for (i, oid) in a.head_oids().iter().enumerate() {
            let j = u.head_oids().iter().position(|o| o == oid).unwrap();
            prop_assert_eq!(ut[j], at[i]);
        }
    }

    #[test]
    fn kdifference_is_set_difference_on_heads(a in arb_bat(), b in arb_bat()) {
        let d = algebra::kdifference(&a, &b).unwrap();
        let expect: BTreeSet<u64> = head_set(&a).difference(&head_set(&b)).copied().collect();
        prop_assert_eq!(head_set(&d), expect);
    }

    #[test]
    fn kintersect_is_set_intersection_on_heads(a in arb_bat(), b in arb_bat()) {
        let i = algebra::kintersect(&a, &b).unwrap();
        let expect: BTreeSet<u64> = head_set(&a).intersection(&head_set(&b)).copied().collect();
        prop_assert_eq!(head_set(&i), expect);
    }

    #[test]
    fn difference_and_intersection_partition(a in arb_bat(), b in arb_bat()) {
        let d = algebra::kdifference(&a, &b).unwrap();
        let i = algebra::kintersect(&a, &b).unwrap();
        prop_assert_eq!(d.len() + i.len(), a.len());
        prop_assert!(head_set(&d).is_disjoint(&head_set(&i)));
    }

    #[test]
    fn select_uselect_agree_on_heads(a in arb_bat(), lo in -100i64..100, hi in -100i64..100) {
        let (lo, hi) = (lo.min(hi), lo.max(hi));
        let s = algebra::select(&a, &Atom::Int(lo), &Atom::Int(hi)).unwrap();
        let u = algebra::uselect(&a, &Atom::Int(lo), &Atom::Int(hi)).unwrap();
        prop_assert_eq!(s.head_oids(), u.head_oids());
        // Every selected value is in range; every unselected is not.
        let Tail::Int(vals) = s.tail() else { panic!() };
        prop_assert!(vals.iter().all(|v| *v >= lo && *v <= hi));
        let Tail::Int(all) = a.tail() else { panic!() };
        let expected = all.iter().filter(|v| **v >= lo && **v <= hi).count();
        prop_assert_eq!(s.len(), expected);
    }

    #[test]
    fn mark_reverse_roundtrip_restores_heads(a in arb_bat(), base in 0u64..1000) {
        let marked = algebra::mark_t(&a, base);
        let rev = algebra::reverse(&marked).unwrap();
        // reverse(markT(a, base)) maps dense result oids back to a's heads.
        let Tail::Oid(orig) = rev.tail() else { panic!() };
        prop_assert_eq!(orig.to_vec(), a.head_oids());
        prop_assert_eq!(rev.head_oids(), (base..base + a.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn join_equals_nested_loop_semantics(a in arb_bat(), b in arb_bat()) {
        // Turn a's tail into oids so it is joinable.
        let probe = algebra::mark_t(&a, 0); // (a.head, dense oid)
        let rev = algebra::reverse(&probe).unwrap(); // (dense, a.head as tail)
        let j = algebra::join(&rev, &b).unwrap();
        // Reference: for each (d, h) in rev, for each row of b with head h.
        let Tail::Oid(rev_tails) = rev.tail() else { panic!() };
        let mut expect = 0usize;
        for t in rev_tails.iter() {
            expect += (0..b.len()).filter(|&i| b.head_at(i) == *t).count();
        }
        prop_assert_eq!(j.len(), expect);
    }

    #[test]
    fn append_preserves_length_and_order(a in arb_bat(), b in arb_bat()) {
        let c = algebra::append(&a, &b).unwrap();
        prop_assert_eq!(c.len(), a.len() + b.len());
        let mut heads = a.head_oids();
        heads.extend(b.head_oids());
        prop_assert_eq!(c.head_oids(), heads);
    }

    #[test]
    fn aggregates_match_reference(a in arb_bat()) {
        let Tail::Int(vals) = a.tail() else { panic!() };
        prop_assert_eq!(algebra::count(&a), Atom::Int(vals.len() as i64));
        prop_assert_eq!(algebra::sum(&a).unwrap(), Atom::Int(vals.iter().sum()));
        match algebra::min(&a).unwrap() {
            Atom::Int(m) => prop_assert_eq!(Some(&m), vals.iter().min()),
            Atom::Nil => prop_assert!(vals.is_empty()),
            other => return Err(TestCaseError::fail(format!("bad min {other}"))),
        }
    }

    #[test]
    fn slice_is_a_window(a in arb_bat(), lo in 0usize..70, hi in 0usize..70) {
        let s = algebra::slice(&a, lo, hi);
        if lo > hi || lo >= a.len() {
            prop_assert!(s.is_empty());
        } else {
            let expect = hi.min(a.len().saturating_sub(1)) - lo + 1;
            prop_assert_eq!(s.len(), expect);
            prop_assert_eq!(s.head_at(0), a.head_at(lo));
        }
    }
}
