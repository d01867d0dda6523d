//! Abstract syntax of the MAL subset (Section 2's plan language).
//!
//! Enough of MAL to represent the paper's Figure 1 plan and the
//! segment-optimizer rewrites of Section 3.1: straight-line instructions
//! `X := module.fn(args);`, guarded blocks (`barrier` / `redo` / `exit`),
//! and `function`/`end` wrappers carrying the plan parameters.

use soc_bat::Atom;

/// An instruction argument: a variable reference or a literal.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Reference to a plan variable.
    Var(String),
    /// Literal constant.
    Const(Atom),
}

impl Arg {
    /// The variable name, if this is a reference.
    pub fn var(&self) -> Option<&str> {
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
    pub target: Option<String>,
    /// Module name (`algebra`, `bpm`, `sql`, …).
    pub module: String,
    /// Function name within the module.
    pub function: String,
    /// Arguments in call order.
    pub args: Vec<Arg>,
}

impl Instruction {
    /// Convenience constructor.
    pub fn new(target: Option<&str>, module: &str, function: &str, args: Vec<Arg>) -> Self {
        Instruction {
            target: target.map(str::to_owned),
            module: module.to_owned(),
            function: function.to_owned(),
            args,
        }
    }

    /// Whether this calls `module.function` — the allocation-free match
    /// the optimizer passes use.
    pub fn is(&self, module: &str, function: &str) -> bool {
        self.module == module && self.function == function
    }

    /// `module.function`, rendered for error messages.
    pub fn qualified(&self) -> String {
        format!("{}.{}", self.module, self.function)
    }
}

/// A statement of a MAL program.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `function user.name(P0:typ,…):typ;` — records the parameter names.
    Function {
        /// Qualified function name.
        name: String,
        /// Parameter variable names in declaration order.
        params: Vec<String>,
    },
    /// `end name;`
    End,
    /// Plain instruction (with or without assignment).
    Assign(Instruction),
    /// `barrier X := call;` — enters the block when the call yields a
    /// non-nil value bound to `X`; otherwise skips to the matching `exit`.
    Barrier(Instruction),
    /// `redo X := call;` — re-enters the block body when the call yields a
    /// non-nil value; otherwise falls through to the `exit`.
    Redo(Instruction),
    /// `exit X;` — closes the block of variable `X`.
    Exit(String),
}

/// A parsed MAL program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Program {
    /// The declared parameters of the outermost `function`, if present.
    pub fn params(&self) -> Vec<String> {
        self.stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Function { params, .. } => Some(params.clone()),
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
            Arg::Var(v) => v.clone(),
            Arg::Const(c) => c.to_string(),
        })
        .collect::<Vec<_>>()
        .join(",");
    match &i.target {
        Some(t) => format!("{t} := {}.{}({args})", i.module, i.function),
        None => format!("{}.{}({args})", i.module, i.function),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualified_name_and_render() {
        let i = Instruction::new(
            Some("X14"),
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
            stmts: vec![Stmt::Assign(i)],
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
        assert_eq!(p.params(), vec!["A0".to_owned(), "A1".to_owned()]);
        assert!(Program::default().params().is_empty());
    }
}
