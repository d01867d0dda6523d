//! Abstract syntax of the MAL subset (Section 2's plan language).
//!
//! Enough of MAL to represent the paper's Figure 1 plan and the
//! segment-optimizer rewrites of Section 3.1: straight-line instructions
//! `X := module.fn(args);`, guarded blocks (`barrier` / `redo` / `exit`),
//! and `function`/`end` wrappers carrying the plan parameters.
//!
//! Every query builds, rewrites and runs a plan, so a plan is cheap to
//! make and to copy:
//!
//! - Variable, module and function names are a [`Name`]: borrowed
//!   (`&'static str`, no allocation) when the SQL compiler or the segment
//!   optimizer emits a fixed name such as `X14` or `algebra.uselect`, and
//!   owned only when the MAL parser reads a name from text, the optimizer
//!   mints a fresh variable (`_Y1`, `_T3`, …) or the SQL compiler names
//!   the plan's function after its table and column (`user.p_ra`).
//! - Statements hold their instruction behind an [`Arc`], so a rewrite
//!   passes every statement it leaves alone through as a pointer copy.

use std::borrow::Cow;
use std::sync::Arc;

use soc_bat::Atom;

/// A variable, module or function name: static where the code that
/// emits it knows it, owned where it is read from text or minted.
pub(crate) type Name = Cow<'static, str>;

/// An instruction argument: a variable reference or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Reference to a plan variable.
    Var(Name),
    /// Literal constant.
    Const(Atom),
}

impl Arg {
    /// The variable name, if this is a reference.
    pub(crate) fn var(&self) -> Option<&str> {
        match self {
            Arg::Var(v) => Some(v),
            Arg::Const(_) => None,
        }
    }
}

/// One `module.fn(args)` call, optionally assigned to a target variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Instruction {
    /// Assignment target (`X14` in `X14 := algebra.select(…)`), if any.
    pub target: Option<Name>,
    /// Module name (`algebra`, `bpm`, `sql`, …).
    pub module: Name,
    /// Function name within the module.
    pub function: Name,
    /// Arguments in call order.
    pub args: Vec<Arg>,
}

impl Instruction {
    /// Convenience constructor; a `&'static str` name is stored without
    /// a copy.
    pub(crate) fn new(
        target: Option<Name>,
        module: impl Into<Name>,
        function: impl Into<Name>,
        args: Vec<Arg>,
    ) -> Self {
        Instruction {
            target,
            module: module.into(),
            function: function.into(),
            args,
        }
    }

    /// Whether this calls `module.function` — the allocation-free match
    /// the optimizer passes use.
    pub(crate) fn is(&self, module: &str, function: &str) -> bool {
        self.module == module && self.function == function
    }

    /// `module.function`, rendered for error messages.
    pub(crate) fn qualified(&self) -> String {
        format!("{}.{}", self.module, self.function)
    }
}

/// A statement of a MAL program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `function user.name(P0:typ,…):typ;` — records the parameter names.
    Function {
        /// Qualified function name.
        name: Name,
        /// Parameter variable names in declaration order.
        params: Vec<Name>,
    },
    /// `end name;`
    End,
    /// Plain instruction (with or without assignment).
    Assign(Arc<Instruction>),
    /// `barrier X := call;` — enters the block when the call yields a
    /// non-nil value bound to `X`; otherwise skips to the matching `exit`.
    Barrier(Arc<Instruction>),
    /// `redo X := call;` — re-enters the block body when the call yields a
    /// non-nil value; otherwise falls through to the `exit`.
    Redo(Arc<Instruction>),
    /// `exit X;` — closes the block of variable `X`.
    Exit(Name),
}

/// A parsed MAL program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// The declared parameters of the outermost `function`, if present.
    pub fn params(&self) -> &[Name] {
        self.stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Function { params, .. } => Some(params.as_slice()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// Renders the program back to MAL text (used by tests, examples and
    /// the optimizer's plan dumps).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.stmts {
            match s {
                Stmt::Function { name, params } => {
                    let ps = params
                        .iter()
                        .map(|p| format!("{p}:any"))
                        .collect::<Vec<_>>()
                        .join(",");
                    out.push_str(&format!("function {name}({ps}):void;\n"));
                }
                Stmt::End => out.push_str("end;\n"),
                Stmt::Assign(i) => out.push_str(&format!("    {};\n", render_instr(i))),
                Stmt::Barrier(i) => out.push_str(&format!("    barrier {};\n", render_instr(i))),
                Stmt::Redo(i) => out.push_str(&format!("    redo {};\n", render_instr(i))),
                Stmt::Exit(v) => out.push_str(&format!("    exit {v};\n")),
            }
        }
        out
    }
}

fn render_instr(i: &Instruction) -> String {
    let args = i
        .args
        .iter()
        .map(|a| match a {
            Arg::Var(v) => v.to_string(),
            Arg::Const(c) => c.to_string(),
        })
        .collect::<Vec<_>>()
        .join(",");
    match &i.target {
        Some(t) => format!("{t} := {}.{}({args})", i.module, i.function),
        None => format!("{}.{}({args})", i.module, i.function),
    }
}

/// Whether any instruction of `stmts` reads variable `var`.
pub(crate) fn references(stmts: &[Stmt], var: &str) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Assign(i) | Stmt::Barrier(i) | Stmt::Redo(i) => {
            i.args.iter().any(|a| a.var() == Some(var))
        }
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualified_name_and_render() {
        let i = Instruction::new(
            Some("X14".into()),
            "algebra",
            "select",
            vec![
                Arg::Var("X1".into()),
                Arg::Const(Atom::Dbl(205.1)),
                Arg::Const(Atom::Dbl(205.12)),
            ],
        );
        assert_eq!(i.qualified(), "algebra.select");
        assert!(i.is("algebra", "select"));
        assert!(!i.is("algebra", "uselect") && !i.is("bat", "select"));
        let p = Program {
            stmts: vec![Stmt::Assign(Arc::new(i))],
        };
        assert_eq!(p.render().trim(), "X14 := algebra.select(X1,205.1,205.12);");
    }

    #[test]
    fn params_come_from_function_header() {
        let p = Program {
            stmts: vec![Stmt::Function {
                name: "user.s1_0".into(),
                params: vec!["A0".into(), "A1".into()],
            }],
        };
        assert_eq!(p.params(), ["A0", "A1"]);
        assert!(Program::default().params().is_empty());
    }
}
