//! Shrunk cases of the shared harness (`model/mod.rs`), kept: each once
//! failed a system, and each runs on every system for every strategy kind.

mod model;

use socdb::prelude::StrategyKind;

use model::{Case, Op};

#[test]
fn replayed_cases_answer_as_the_model() {
    use Op::*;
    let cases = [
        // Row 1 is updated twice with both updates pending: the later value
        // alone decides what a select returns, as it does once merged.
        Case {
            base: vec![0, 37],
            seed: 0,
            ops: vec![Update(1, 5), Update(1, 90), Read(0, 10), Read(80, 99)],
        },
        Case {
            base: vec![0, 37],
            seed: 0,
            ops: vec![
                Update(1, 90),
                Update(1, 5),
                Read(80, 99),
                Checkpoint,
                Read(0, 10),
            ],
        },
        // An update of the next oid to be handed out names no row: no
        // select may return its value.
        Case {
            base: vec![366],
            seed: 10339808099246257358,
            ops: vec![Update(1, 607), Read(291, 702)],
        },
        // A delete of the next oid names no row: the insert that receives
        // the oid is visible.
        Case {
            base: vec![300],
            seed: 7,
            ops: vec![Delete(1), Insert(70), Read(60, 80)],
        },
        // A merge removes the last row: a cracked column has no piece
        // left, which the validator accepts for a column with no rows. The
        // update names a row the merge removed, so no select returns it.
        Case {
            base: vec![300],
            seed: 7,
            ops: vec![Delete(0), Merge, Update(0, 70), Read(60, 80)],
        },
    ];
    for case in &cases {
        let outcomes = [
            model::bare(case, &StrategyKind::ALL),
            model::served(case, &StrategyKind::ALL),
            model::sharded(case, &StrategyKind::ALL, &model::PLACEMENTS),
            model::sql(case, &StrategyKind::ALL),
        ];
        if let Some(Err(e)) = outcomes.into_iter().find(Result::is_err) {
            panic!("{e}");
        }
    }
}
