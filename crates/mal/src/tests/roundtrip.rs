//! Render → parse round-trip property for MAL programs: any program the
//! optimizer can emit must survive `Program::render` + `parse` unchanged
//! (this is what makes optimizer plan dumps trustworthy debugging
//! artifacts).

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use crate::ast::{Arg, Instruction, Program, Stmt};
use crate::parse;
use soc_bat::Atom;

fn arb_ident(prefix: &'static str) -> impl Strategy<Value = String> {
    (0u32..1000).prop_map(move |n| format!("{prefix}{n}"))
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        any::<i32>().prop_map(|v| Atom::Int(v as i64)),
        // Floats restricted to a round-trippable formatting range and
        // forced to carry a fraction so render() emits a '.' (an integral
        // float renders as an int literal, legitimately changing the atom).
        (-1_000_000i32..1_000_000, 1u32..1000)
            .prop_map(|(a, b)| Atom::Dbl(a as f64 + b as f64 / 1024.0)),
        (0u64..1_000_000).prop_map(Atom::Oid),
    ]
}

fn arb_arg() -> impl Strategy<Value = Arg> {
    prop_oneof![
        arb_ident("V").prop_map(|v| Arg::Var(v.into())),
        arb_atom().prop_map(Arg::Const),
    ]
}

fn arb_instruction() -> impl Strategy<Value = Instruction> {
    (
        proptest::option::of(arb_ident("X")),
        arb_ident("mod"),
        arb_ident("fn"),
        vec(arb_arg(), 0..5),
    )
        .prop_map(|(target, module, function, args)| Instruction {
            target: target.map(Into::into),
            module: module.into(),
            function: function.into(),
            args,
        })
}

fn arb_program() -> impl Strategy<Value = Program> {
    vec(arb_instruction(), 1..12).prop_map(|instrs| {
        let mut stmts = Vec::new();
        for (i, instr) in instrs.into_iter().enumerate() {
            // Sprinkle a well-formed barrier block in the middle.
            if i == 3 {
                let mut b = instr.clone();
                b.target = Some("blk".into());
                let b = Arc::new(b);
                stmts.push(Stmt::Barrier(b.clone()));
                stmts.push(Stmt::Redo(b));
                stmts.push(Stmt::Exit("blk".into()));
            } else {
                stmts.push(Stmt::Assign(Arc::new(instr)));
            }
        }
        Program { stmts }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn render_parse_roundtrip(prog in arb_program()) {
        let text = prog.render();
        let reparsed = parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n---\n{text}")))?;
        prop_assert_eq!(reparsed, prog, "program text:\n{}", text);
    }
}

#[test]
fn float_constants_roundtrip_through_text() {
    // A regression-style check on the literals the paper's plan uses.
    let prog = Program {
        stmts: vec![Stmt::Assign(Arc::new(Instruction {
            target: Some("X".into()),
            module: "algebra".into(),
            function: "select".into(),
            args: vec![
                Arg::Var("Y".into()),
                Arg::Const(Atom::Dbl(205.1)),
                Arg::Const(Atom::Dbl(205.12)),
            ],
        }))],
    };
    let reparsed = parse(&prog.render()).unwrap();
    assert_eq!(reparsed, prog);
}
