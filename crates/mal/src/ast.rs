//! Abstract syntax of the MAL subset (Section 2's plan language).
//!
//! Enough of MAL to represent the paper's Figure 1 plan and the
//! segment-optimizer rewrites of Section 3.1: straight-line instructions
//! `X := module.fn(args);`, guarded blocks (`barrier` / `redo` / `exit`),
//! and `function`/`end` wrappers carrying the plan parameters.
//!
//! Every query builds, rewrites and runs a plan, so an instruction is
//! resolved once, where it is built — as MonetDB binds a MAL instruction
//! to its implementation and its arguments to stack slots when it checks
//! the plan, not each time the plan runs:
//!
//! - Its `module.function` pair is an [`Op`], matched when the
//!   instruction is built; the interpreter dispatches on it. A pair no
//!   opcode names (only MAL text can spell one) becomes [`Op::Unknown`],
//!   which keeps the two names and fails only if it runs.
//! - A variable is a [`Var`], a slot of the program's variable table, and
//!   the interpreter keeps one value per slot. The table holds the names
//!   for [`Program::render`], `Interp::get` and error messages: the SQL
//!   compiler's fixed names (`X14`) are one table shared by every plan it
//!   builds, the optimizer's fresh names (`_Y1`, `_T3`, …) are a prefix
//!   and a number, and only names read from MAL text are strings.
//! - A constant is a [`Const`], a slot of the program's constant table, so
//!   a name the seven binds repeat is stored once, a string constant is
//!   shared rather than copied ([`Atom::Str`] is an `Arc<str>`), and an
//!   argument is a small `Copy` value.
//! - An instruction holds its arguments inline, so a statement is built
//!   and copied without a heap allocation.

use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::sync::Arc;

use soc_bat::Atom;

/// A name handed out of a plan (the optimizer's report): borrowed when
/// the plan stores it as a fixed name.
pub(crate) type Name = Cow<'static, str>;

/// A variable's slot in its program's variable table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Var(u32);

impl Var {
    /// Slot `slot`.
    pub(crate) const fn at(slot: u32) -> Var {
        Var(slot)
    }

    /// The slot's index.
    pub(crate) fn slot(self) -> usize {
        self.0 as usize
    }
}

/// A constant's slot in its program's constant table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Const(u32);

impl Const {
    /// The slot's index.
    pub(crate) fn slot(self) -> usize {
        self.0 as usize
    }
}

/// An instruction argument: a variable reference or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Arg {
    /// Reference to a plan variable.
    Var(Var),
    /// Literal constant.
    Const(Const),
}

/// The name of a variable slot, as the plan text spells it.
#[derive(Debug, Clone)]
pub(crate) enum VarName {
    /// A name the code emitting it knows (`X14`, `A0`).
    Fixed(&'static str),
    /// `_{prefix}{n}`: a variable the segment optimizer mints.
    Fresh(&'static str, u32),
    /// A name read from MAL text.
    Text(Arc<str>),
}

impl VarName {
    /// The name as a string, where one is stored.
    fn stored(&self) -> Option<&str> {
        match self {
            VarName::Fixed(s) => Some(s),
            VarName::Text(s) => Some(s),
            VarName::Fresh(..) => None,
        }
    }

    /// This name as a [`Name`]; only a name not stored as a fixed string
    /// is formatted.
    pub(crate) fn to_name(&self) -> Name {
        match self {
            VarName::Fixed(s) => Cow::Borrowed(s),
            other => Cow::Owned(other.to_string()),
        }
    }

    /// Whether this is the name `name`; a fresh name is matched without
    /// formatting it.
    pub(crate) fn is(&self, name: &str) -> bool {
        match self {
            VarName::Fixed(s) => *s == name,
            VarName::Text(s) => **s == *name,
            VarName::Fresh(prefix, n) => name
                .strip_prefix('_')
                .and_then(|rest| rest.strip_prefix(prefix))
                .is_some_and(|digits| {
                    !digits.starts_with('0')
                        && digits.bytes().all(|b| b.is_ascii_digit())
                        && digits.parse() == Ok(*n)
                }),
        }
    }
}

impl PartialEq for VarName {
    /// Two names are equal when they spell the same text, however each is
    /// stored.
    fn eq(&self, other: &Self) -> bool {
        match (self.stored(), other.stored(), self, other) {
            (Some(a), _, _, _) => other.is(a),
            (None, Some(b), _, _) => self.is(b),
            (None, None, VarName::Fresh(p, n), VarName::Fresh(q, m)) => p == q && n == m,
            _ => false,
        }
    }
}

impl fmt::Display for VarName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VarName::Fixed(s) => f.write_str(s),
            VarName::Text(s) => f.write_str(s),
            VarName::Fresh(prefix, n) => write!(f, "_{prefix}{n}"),
        }
    }
}

/// Declares [`Op`] and its one table of `module.function` names.
macro_rules! opcodes {
    ($($op:ident = ($module:literal, $function:literal),)*) => {
        /// What an instruction calls: its `module.function` pair, resolved
        /// once when the instruction is built.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum Op {
            $(
                #[doc = concat!("`", $module, ".", $function, "`")]
                $op,
            )*
            /// A pair no opcode names; its names sit in the program's
            /// constant table. Running it fails with
            /// `ExecError::UnknownFunction`.
            Unknown {
                /// The module name's constant.
                module: Const,
                /// The function name's constant.
                function: Const,
            },
        }

        impl Op {
            /// The opcode of `module.function`, if one names it.
            pub(crate) fn resolve(module: &str, function: &str) -> Option<Op> {
                match (module, function) {
                    $(($module, $function) => Some(Op::$op),)*
                    _ => None,
                }
            }

            /// The `(module, function)` names of a known opcode.
            fn names(self) -> Option<(&'static str, &'static str)> {
                match self {
                    $(Op::$op => Some(($module, $function)),)*
                    Op::Unknown { .. } => None,
                }
            }
        }
    };
}

opcodes! {
    SqlBind = ("sql", "bind"),
    SqlBindDbat = ("sql", "bind_dbat"),
    SqlSetMergeThreshold = ("sql", "setMergeThreshold"),
    SqlPendingRows = ("sql", "pendingRows"),
    SqlSubdelta = ("sql", "subdelta"),
    SqlProjectdelta = ("sql", "projectdelta"),
    SqlResultSet = ("sql", "resultSet"),
    SqlRsColumn = ("sql", "rsColumn"),
    SqlExportResult = ("sql", "exportResult"),
    CalcOid = ("calc", "oid"),
    AlgebraSelect = ("algebra", "select"),
    AlgebraUselect = ("algebra", "uselect"),
    AlgebraKunion = ("algebra", "kunion"),
    AlgebraKdifference = ("algebra", "kdifference"),
    AlgebraKintersect = ("algebra", "kintersect"),
    AlgebraMarkT = ("algebra", "markT"),
    AlgebraMarkt = ("algebra", "markt"),
    AlgebraJoin = ("algebra", "join"),
    BatReverse = ("bat", "reverse"),
    BatAppend = ("bat", "append"),
    BatSlice = ("bat", "slice"),
    AggrCount = ("aggr", "count"),
    AggrSum = ("aggr", "sum"),
    AggrMin = ("aggr", "min"),
    AggrMax = ("aggr", "max"),
    BpmTake = ("bpm", "take"),
    BpmNew = ("bpm", "new"),
    BpmNewIterator = ("bpm", "newIterator"),
    BpmHasMoreElements = ("bpm", "hasMoreElements"),
    BpmAddSegment = ("bpm", "addSegment"),
    BpmPack = ("bpm", "pack"),
    BpmTakeSegment = ("bpm", "takeSegment"),
    BpmSegments = ("bpm", "segments"),
    BpmAdapt = ("bpm", "adapt"),
    BpmStrategy = ("bpm", "strategy"),
    BpmSetStrategy = ("bpm", "setStrategy"),
    IoPrint = ("io", "print"),
    LanguagePass = ("language", "pass"),
}

/// The most arguments an instruction holds (Figure 1's `sql.rsColumn`
/// takes seven).
pub(crate) const MAX_ARGS: usize = 8;

/// One `module.fn(args)` call, optionally assigned to a target variable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Instruction {
    /// Assignment target (`X14` in `X14 := algebra.select(…)`), if any.
    pub(crate) target: Option<Var>,
    /// What it calls.
    pub(crate) op: Op,
    len: u8,
    args: [Arg; MAX_ARGS],
}

impl Instruction {
    /// `target := op(args)`; the arity is checked when this compiles.
    pub(crate) fn new<const N: usize>(target: Option<Var>, op: Op, args: [Arg; N]) -> Self {
        const { assert!(N <= MAX_ARGS) };
        let mut inline = [Arg::Const(Const(0)); MAX_ARGS];
        inline[..N].copy_from_slice(&args);
        Instruction {
            target,
            op,
            len: N as u8,
            args: inline,
        }
    }

    /// `target := op(args)`, or `None` for more than [`MAX_ARGS`]
    /// arguments.
    pub(crate) fn from_slice(target: Option<Var>, op: Op, args: &[Arg]) -> Option<Self> {
        let mut inline = [Arg::Const(Const(0)); MAX_ARGS];
        inline.get_mut(..args.len())?.copy_from_slice(args);
        Some(Instruction {
            target,
            op,
            len: args.len() as u8,
            args: inline,
        })
    }

    /// The arguments in call order.
    pub(crate) fn args(&self) -> &[Arg] {
        &self.args[..usize::from(self.len)]
    }

    /// Argument `k`, if there is one.
    pub(crate) fn arg(&self, k: usize) -> Option<Arg> {
        self.args().get(k).copied()
    }
}

/// A statement of a MAL program.
#[derive(Debug, Clone)]
pub(crate) enum Stmt {
    /// `function user.name(P0:typ,…):typ;` — records the parameters.
    Function {
        /// Qualified function name.
        name: Arc<str>,
        /// Parameter variables in declaration order.
        params: Vec<Var>,
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
    Exit(Var),
}

impl Stmt {
    /// The instruction of an assignment, `barrier` or `redo`.
    pub(crate) fn instruction(&self) -> Option<&Instruction> {
        match self {
            Stmt::Assign(i) | Stmt::Barrier(i) | Stmt::Redo(i) => Some(i),
            _ => None,
        }
    }
}

/// A program's constant table: a prefix shared with the plans built from
/// the same one — every plan of a compiled statement shape, and their
/// rewrites — then the constants of this plan alone. Copying the table
/// copies its own constants; the shared ones' strings are not touched.
#[derive(Debug, Clone, Default)]
pub(crate) struct Consts {
    shared: Arc<Vec<Atom>>,
    own: Vec<Atom>,
}

impl Consts {
    /// A table sharing this one's shared prefix, with `own` after it.
    pub(crate) fn with_own(&self, own: impl IntoIterator<Item = Atom>) -> Consts {
        Consts {
            shared: Arc::clone(&self.shared),
            own: own.into_iter().collect(),
        }
    }

    /// A copy with room for `extra` more constants of its own.
    pub(crate) fn with_room(&self, extra: usize) -> Consts {
        let mut own = Vec::with_capacity(self.own.len() + extra);
        own.extend_from_slice(&self.own);
        Consts {
            shared: Arc::clone(&self.shared),
            own,
        }
    }

    /// Constant `c`'s value.
    pub(crate) fn get(&self, c: Const) -> Option<&Atom> {
        match c.slot().checked_sub(self.shared.len()) {
            None => self.shared.get(c.slot()),
            Some(own) => self.own.get(own),
        }
    }

    /// Appends `value`, returning its slot.
    pub(crate) fn push(&mut self, value: Atom) -> Const {
        self.own.push(value);
        Const((self.shared.len() + self.own.len()) as u32 - 1)
    }

    /// Moves this table's own constants into its shared prefix, so the
    /// tables made from it share them too.
    pub(crate) fn share(&mut self) {
        let mut all = Vec::with_capacity(self.shared.len() + self.own.len());
        all.extend(self.shared.iter().cloned());
        all.append(&mut self.own);
        self.shared = Arc::new(all);
    }
}

/// A MAL program: its statements and the tables their variables and
/// constants index.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Statements in order; shared between the plans a compiled statement
    /// shape hands out (`crate::sql`).
    pub(crate) stmts: Arc<Vec<Stmt>>,
    /// The name of each variable slot; shared between plans built from
    /// the same table.
    pub(crate) vars: Arc<Vec<VarName>>,
    /// The value of each constant slot.
    pub(crate) consts: Consts,
}

/// What an out-of-range slot reads as (never for a program built by
/// this crate).
const NO_NAME: VarName = VarName::Fixed("?");
const NO_ATOM: Atom = Atom::Nil;

impl Program {
    /// Variable `v`'s name.
    pub(crate) fn name(&self, v: Var) -> &VarName {
        self.vars.get(v.slot()).unwrap_or(&NO_NAME)
    }

    /// Constant `c`'s value.
    pub(crate) fn konst(&self, c: Const) -> &Atom {
        self.consts.get(c).unwrap_or(&NO_ATOM)
    }

    /// The slot named `name`, if the program has one.
    pub(crate) fn slot_of(&self, name: &str) -> Option<Var> {
        self.vars
            .iter()
            .position(|n| n.is(name))
            .map(|slot| Var(slot as u32))
    }

    /// Appends constant `value`, returning its slot.
    pub(crate) fn push_const(&mut self, value: Atom) -> Const {
        self.consts.push(value)
    }

    /// Appends a variable named `name`, returning its slot; the table is
    /// copied first if another program shares it.
    pub(crate) fn push_var(&mut self, name: VarName) -> Var {
        let vars = Arc::make_mut(&mut self.vars);
        vars.push(name);
        Var(vars.len() as u32 - 1)
    }

    /// The parameter slots of the outermost `function`, if present.
    pub(crate) fn param_slots(&self) -> &[Var] {
        self.stmts
            .iter()
            .find_map(|s| match s {
                Stmt::Function { params, .. } => Some(params.as_slice()),
                _ => None,
            })
            .unwrap_or_default()
    }

    /// The declared parameter names of the outermost `function`, if
    /// present.
    pub fn params(&self) -> Vec<String> {
        self.param_slots()
            .iter()
            .map(|&v| self.name(v).to_string())
            .collect()
    }

    /// `module.function` of `i`, rendered for error messages.
    pub(crate) fn qualified(&self, i: &Instruction) -> String {
        let mut out = String::new();
        self.write_call(&mut out, i.op);
        out
    }

    fn write_call(&self, out: &mut String, op: Op) {
        let _ = match (op, op.names()) {
            (Op::Unknown { module, function }, _) => {
                // The parser keeps an unknown call's names as strings.
                let name = |c| match self.konst(c) {
                    Atom::Str(s) => &**s,
                    _ => "?",
                };
                write!(out, "{}.{}", name(module), name(function))
            }
            (_, Some((module, function))) => write!(out, "{module}.{function}"),
            (_, None) => Ok(()),
        };
    }

    /// Renders the program back to MAL text (used by tests, examples and
    /// the optimizer's plan dumps).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in self.stmts.iter() {
            let _ = match s {
                Stmt::Function { name, params } => {
                    let _ = write!(out, "function {name}(");
                    for (k, &p) in params.iter().enumerate() {
                        let sep = if k == 0 { "" } else { "," };
                        let _ = write!(out, "{sep}{}:any", self.name(p));
                    }
                    writeln!(out, "):void;")
                }
                Stmt::End => writeln!(out, "end;"),
                Stmt::Assign(i) => {
                    out.push_str("    ");
                    self.write_instr(&mut out, i);
                    writeln!(out, ";")
                }
                Stmt::Barrier(i) => {
                    out.push_str("    barrier ");
                    self.write_instr(&mut out, i);
                    writeln!(out, ";")
                }
                Stmt::Redo(i) => {
                    out.push_str("    redo ");
                    self.write_instr(&mut out, i);
                    writeln!(out, ";")
                }
                Stmt::Exit(v) => writeln!(out, "    exit {};", self.name(*v)),
            };
        }
        out
    }

    fn write_instr(&self, out: &mut String, i: &Instruction) {
        if let Some(t) = i.target {
            let _ = write!(out, "{} := ", self.name(t));
        }
        self.write_call(out, i.op);
        out.push('(');
        for (k, &a) in i.args().iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = match a {
                Arg::Var(v) => write!(out, "{}", self.name(v)),
                Arg::Const(c) => write!(out, "{}", self.konst(c)),
            };
        }
        out.push(')');
    }

    /// Whether `a` of this program and `b` of `other` are the same
    /// statement: the same call and the same names and constants, whatever
    /// slots hold them.
    fn same_stmt(&self, a: &Stmt, other: &Program, b: &Stmt) -> bool {
        let var = |x: Var, y: Var| self.name(x) == other.name(y);
        let instr = |x: &Instruction, y: &Instruction| {
            let op = match (x.op, y.op) {
                (Op::Unknown { .. }, _) | (_, Op::Unknown { .. }) => {
                    self.qualified(x) == other.qualified(y)
                }
                (p, q) => p == q,
            };
            let target = match (x.target, y.target) {
                (Some(s), Some(t)) => var(s, t),
                (s, t) => s.is_none() && t.is_none(),
            };
            op && target
                && x.args().len() == y.args().len()
                && x.args().iter().zip(y.args()).all(|(&p, &q)| match (p, q) {
                    (Arg::Var(s), Arg::Var(t)) => var(s, t),
                    (Arg::Const(s), Arg::Const(t)) => self.konst(s) == other.konst(t),
                    _ => false,
                })
        };
        match (a, b) {
            (
                Stmt::Function { name, params },
                Stmt::Function {
                    name: other_name,
                    params: other_params,
                },
            ) => {
                name == other_name
                    && params.len() == other_params.len()
                    && params.iter().zip(other_params).all(|(&s, &t)| var(s, t))
            }
            (Stmt::End, Stmt::End) => true,
            (Stmt::Assign(x), Stmt::Assign(y))
            | (Stmt::Barrier(x), Stmt::Barrier(y))
            | (Stmt::Redo(x), Stmt::Redo(y)) => instr(x, y),
            (Stmt::Exit(s), Stmt::Exit(t)) => var(*s, *t),
            _ => false,
        }
    }
}

impl PartialEq for Program {
    /// Programs are equal when they render alike: the same statements
    /// over the same names and constants, however their tables number
    /// them.
    fn eq(&self, other: &Self) -> bool {
        self.stmts.len() == other.stmts.len()
            && self
                .stmts
                .iter()
                .zip(other.stmts.iter())
                .all(|(a, b)| self.same_stmt(a, other, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qualified_name_and_render() {
        let mut p = Program::default();
        let (x14, x1) = (
            p.push_var(VarName::Fixed("X14")),
            p.push_var(VarName::Text("X1".into())),
        );
        let (lo, hi) = (
            p.push_const(Atom::Dbl(205.1)),
            p.push_const(Atom::Dbl(205.12)),
        );
        let i = Instruction::new(
            Some(x14),
            Op::AlgebraSelect,
            [Arg::Var(x1), Arg::Const(lo), Arg::Const(hi)],
        );
        assert_eq!(p.qualified(&i), "algebra.select");
        assert_eq!(Op::resolve("algebra", "select"), Some(Op::AlgebraSelect));
        assert_eq!(Op::resolve("algebra", "uselect"), Some(Op::AlgebraUselect));
        assert_eq!(Op::resolve("bat", "select"), None);
        p.stmts = Arc::new(vec![Stmt::Assign(i)]);
        assert_eq!(p.render().trim(), "X14 := algebra.select(X1,205.1,205.12);");
    }

    #[test]
    fn params_come_from_function_header() {
        let mut p = Program::default();
        let params = vec![
            p.push_var(VarName::Fixed("A0")),
            p.push_var(VarName::Fixed("A1")),
        ];
        p.stmts = Arc::new(vec![Stmt::Function {
            name: "user.s1_0".into(),
            params,
        }]);
        assert_eq!(p.params(), ["A0", "A1"]);
        assert!(Program::default().params().is_empty());
    }

    #[test]
    fn fresh_names_match_only_their_own_spelling() {
        let t3 = VarName::Fresh("T", 3);
        assert_eq!(t3.to_string(), "_T3");
        assert!(t3.is("_T3"));
        for other in ["_T03", "_T+3", "_T30", "T3", "_S3", "_T", "_T3x"] {
            assert!(!t3.is(other), "{other}");
        }
        assert_eq!(t3, VarName::Text("_T3".into()));
        assert_eq!(VarName::Fixed("_T3"), t3);
        assert_ne!(t3, VarName::Fresh("T", 4));
        assert_ne!(VarName::Fresh("rseg", 3), VarName::Fresh("T", 3));
    }
}
