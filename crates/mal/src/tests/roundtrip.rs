//! Render → parse round-trip property for MAL programs: any program the
//! optimizer can emit must survive `Program::render` + `parse` unchanged
//! (this is what makes optimizer plan dumps trustworthy debugging
//! artifacts).

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use crate::ast::{Arg, Instruction, Op, Program, Stmt, Var, VarName};
use crate::parse;
use soc_bat::Atom;

/// An argument before it is given a slot: a variable name or a constant.
#[derive(Debug, Clone)]
enum ArgSpec {
    Var(String),
    Const(Atom),
}

/// An instruction before it is resolved: target, module, function, args.
type InstrSpec = (Option<String>, String, String, Vec<ArgSpec>);

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

fn arb_arg() -> impl Strategy<Value = ArgSpec> {
    prop_oneof![
        arb_ident("V").prop_map(ArgSpec::Var),
        arb_atom().prop_map(ArgSpec::Const),
    ]
}

/// A call no opcode names, or one of the known pairs.
fn arb_call() -> impl Strategy<Value = (String, String)> {
    prop_oneof![
        (arb_ident("mod"), arb_ident("fn")),
        prop_oneof![
            Just(("algebra", "select")),
            Just(("algebra", "markt")),
            Just(("bpm", "newIterator")),
            Just(("sql", "bind")),
        ]
        .prop_map(|(m, f)| (m.to_owned(), f.to_owned())),
    ]
}

fn arb_instruction() -> impl Strategy<Value = InstrSpec> {
    (
        proptest::option::of(arb_ident("X")),
        arb_call(),
        vec(arb_arg(), 0..5),
    )
        .prop_map(|(target, (module, function), args)| (target, module, function, args))
}

/// A program under construction, resolved as the parser resolves text.
struct Build(Program);

impl Build {
    fn var(&mut self, name: &str) -> Var {
        match self.0.slot_of(name) {
            Some(v) => v,
            None => self.0.push_var(VarName::Text(name.into())),
        }
    }

    fn instruction(&mut self, (target, module, function, args): &InstrSpec) -> Instruction {
        let target = target.as_deref().map(|t| self.var(t));
        let op = Op::resolve(module, function).unwrap_or_else(|| Op::Unknown {
            module: self.0.push_const(Atom::Str(module.as_str().into())),
            function: self.0.push_const(Atom::Str(function.as_str().into())),
        });
        let args: Vec<Arg> = args
            .iter()
            .map(|a| match a {
                ArgSpec::Var(v) => Arg::Var(self.var(v)),
                ArgSpec::Const(c) => Arg::Const(self.0.push_const(c.clone())),
            })
            .collect();
        Instruction::from_slice(target, op, &args).unwrap()
    }
}

fn arb_program() -> impl Strategy<Value = Program> {
    vec(arb_instruction(), 1..12).prop_map(|instrs| {
        let mut b = Build(Program::default());
        for (i, spec) in instrs.iter().enumerate() {
            // Sprinkle a well-formed barrier block in the middle.
            if i == 3 {
                let mut instr = b.instruction(spec);
                let blk = b.var("blk");
                instr.target = Some(blk);
                Arc::make_mut(&mut b.0.stmts).push(Stmt::Barrier(instr));
                Arc::make_mut(&mut b.0.stmts).push(Stmt::Redo(instr));
                Arc::make_mut(&mut b.0.stmts).push(Stmt::Exit(blk));
            } else {
                let instr = b.instruction(spec);
                Arc::make_mut(&mut b.0.stmts).push(Stmt::Assign(instr));
            }
        }
        b.0
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
    let mut b = Build(Program::default());
    let instr = b.instruction(&(
        Some("X".to_owned()),
        "algebra".to_owned(),
        "select".to_owned(),
        vec![
            ArgSpec::Var("Y".to_owned()),
            ArgSpec::Const(Atom::Dbl(205.1)),
            ArgSpec::Const(Atom::Dbl(205.12)),
        ],
    ));
    Arc::make_mut(&mut b.0.stmts).push(Stmt::Assign(instr));
    let reparsed = parse(&b.0.render()).unwrap();
    assert_eq!(reparsed, b.0);
}
