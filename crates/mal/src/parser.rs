//! A parser for the MAL subset — sufficient for the paper's Figure 1 plan
//! verbatim, including type annotations (which are checked for shape and
//! otherwise ignored), string/numeric/oid literals, and guarded blocks.

use std::sync::Arc;

use soc_bat::Atom;

use crate::ast::{Arg, Instruction, Op, Program, Stmt, Var, VarName, MAX_ARGS};

/// A parse failure with a line number.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(String),
    OidLit(u64),
    Assign, // :=
    Colon,
    Semi,
    Comma,
    Dot,
    LParen,
    RParen,
    LBracket,
    RBracket,
}

fn tokenize(line: &str, lineno: usize) -> Result<Vec<Tok>, ParseError> {
    let mut toks = Vec::new();
    let b: Vec<char> = line.chars().collect();
    let mut i = 0;
    let err = |m: &str| ParseError {
        line: lineno,
        message: m.to_owned(),
    };
    while i < b.len() {
        let c = b[i];
        match c {
            ' ' | '\t' | '\r' => i += 1,
            '#' => break, // comment to end of line
            ';' => {
                toks.push(Tok::Semi);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '.' => {
                toks.push(Tok::Dot);
                i += 1;
            }
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            ':' => {
                if b.get(i + 1) == Some(&'=') {
                    toks.push(Tok::Assign);
                    i += 2;
                } else {
                    toks.push(Tok::Colon);
                    i += 1;
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                while i < b.len() && b[i] != '"' {
                    s.push(b[i]);
                    i += 1;
                }
                if i == b.len() {
                    return Err(err("unterminated string"));
                }
                i += 1; // closing quote
                toks.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() || c == '-' => {
                let mut s = String::new();
                s.push(c);
                i += 1;
                while i < b.len() && (b[i].is_ascii_digit() || b[i] == '.' || b[i] == 'e') {
                    // Stop a trailing '.' that is actually punctuation…
                    if b[i] == '.' && b.get(i + 1).is_none_or(|n| !n.is_ascii_digit()) {
                        break;
                    }
                    s.push(b[i]);
                    i += 1;
                }
                // oid literal: 0@0
                if i < b.len() && b[i] == '@' {
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1; // the @suffix is a bat id; ignored
                    }
                    let v: u64 = s.parse().map_err(|_| err("bad oid literal"))?;
                    toks.push(Tok::OidLit(v));
                } else {
                    toks.push(Tok::Num(s));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                s.push(c);
                i += 1;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == '_') {
                    s.push(b[i]);
                    i += 1;
                }
                toks.push(Tok::Ident(s));
            }
            other => return Err(err(&format!("unexpected character {other:?}"))),
        }
    }
    Ok(toks)
}

/// The program being parsed: names are interned into its variable
/// table, literals appended to its constant table.
struct Builder {
    prog: Program,
}

impl Builder {
    /// The slot of variable `name`, added on first sight.
    fn var(&mut self, name: &str) -> Var {
        match self.prog.slot_of(name) {
            Some(v) => v,
            None => self.prog.push_var(VarName::Text(name.into())),
        }
    }
}

struct Cursor<'a, 'b> {
    toks: &'a [Tok],
    pos: usize,
    line: usize,
    b: &'b mut Builder,
}

impl<'a> Cursor<'a, '_> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn next(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        self.pos += 1;
        t
    }

    fn err(&self, m: &str) -> ParseError {
        ParseError {
            line: self.line,
            message: m.to_owned(),
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        match self.next() {
            Some(x) if x == t => Ok(()),
            other => Err(self.err(&format!("expected {what}, got {other:?}"))),
        }
    }

    fn ident(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.err(&format!("expected {what}, got {other:?}"))),
        }
    }

    /// A variable named by the next identifier.
    fn var(&mut self, what: &str) -> Result<Var, ParseError> {
        let name = self.ident(what)?;
        Ok(self.b.var(name))
    }

    /// Skips a type annotation after ':' — an identifier optionally
    /// followed by a bracketed list (`bat[:oid,:dbl]`).
    fn skip_type(&mut self) -> Result<(), ParseError> {
        let _ = self.ident("type name")?;
        if self.peek() == Some(&Tok::LBracket) {
            self.next();
            let mut depth = 1;
            while depth > 0 {
                match self.next() {
                    Some(Tok::LBracket) => depth += 1,
                    Some(Tok::RBracket) => depth -= 1,
                    Some(_) => {}
                    None => return Err(self.err("unterminated type annotation")),
                }
            }
        }
        Ok(())
    }

    fn args(&mut self) -> Result<Vec<Arg>, ParseError> {
        self.expect(&Tok::LParen, "'('")?;
        let mut args = Vec::new();
        if self.peek() == Some(&Tok::RParen) {
            self.next();
            return Ok(args);
        }
        loop {
            let konst = |b: &mut Builder, a: Atom| Arg::Const(b.prog.push_const(a));
            let arg = match self.next() {
                Some(Tok::Ident(s)) => match s.as_str() {
                    "true" => konst(self.b, Atom::Int(1)),
                    "false" => konst(self.b, Atom::Int(0)),
                    "nil" => konst(self.b, Atom::Nil),
                    _ => Arg::Var(self.b.var(s)),
                },
                Some(Tok::Str(s)) => konst(self.b, Atom::Str(s.as_str().into())),
                Some(Tok::OidLit(v)) => konst(self.b, Atom::Oid(*v)),
                Some(Tok::Num(s)) => {
                    let atom = if s.contains('.') || s.contains('e') {
                        Atom::Dbl(s.parse().map_err(|_| self.err("bad float literal"))?)
                    } else {
                        Atom::Int(s.parse().map_err(|_| self.err("bad int literal"))?)
                    };
                    konst(self.b, atom)
                }
                other => return Err(self.err(&format!("bad argument: {other:?}"))),
            };
            args.push(arg);
            match self.next() {
                Some(Tok::Comma) => continue,
                Some(Tok::RParen) => break,
                other => return Err(self.err(&format!("expected ',' or ')', got {other:?}"))),
            }
        }
        Ok(args)
    }

    /// `fn(args)` of module `module`, the dot already consumed: the pair
    /// is resolved to its opcode here, once.
    fn call_of(&mut self, target: Option<Var>, module: &str) -> Result<Instruction, ParseError> {
        let function = self.ident("function name")?;
        let op = match Op::resolve(module, function) {
            Some(op) => op,
            None => Op::Unknown {
                module: self.b.prog.push_const(Atom::Str(module.into())),
                function: self.b.prog.push_const(Atom::Str(function.into())),
            },
        };
        let args = self.args()?;
        Instruction::from_slice(target, op, &args).ok_or_else(|| {
            self.err(&format!(
                "{module}.{function} has {} arguments, at most {MAX_ARGS} are supported",
                args.len()
            ))
        })
    }

    /// `module.fn(args)`.
    fn call(&mut self, target: Option<Var>) -> Result<Instruction, ParseError> {
        let module = self.ident("module name")?;
        self.expect(&Tok::Dot, "'.'")?;
        self.call_of(target, module)
    }
}

/// Parses one MAL statement from tokens.
fn parse_stmt(b: &mut Builder, toks: &[Tok], line: usize) -> Result<Option<Stmt>, ParseError> {
    if toks.is_empty() {
        return Ok(None);
    }
    let mut c = Cursor {
        toks,
        pos: 0,
        line,
        b,
    };
    let stmt = match c.peek() {
        Some(Tok::Ident(kw)) if kw == "function" => {
            c.next();
            // function user.name(P:typ,...)[:rettyp];
            let mut name = c.ident("function name")?.to_owned();
            while c.peek() == Some(&Tok::Dot) {
                c.next();
                name.push('.');
                name.push_str(c.ident("name part")?);
            }
            c.expect(&Tok::LParen, "'('")?;
            let mut params = Vec::new();
            if c.peek() != Some(&Tok::RParen) {
                loop {
                    params.push(c.var("parameter")?);
                    if c.peek() == Some(&Tok::Colon) {
                        c.next();
                        c.skip_type()?;
                    }
                    match c.next() {
                        Some(Tok::Comma) => continue,
                        Some(Tok::RParen) => break,
                        other => return Err(c.err(&format!("bad parameter list near {other:?}"))),
                    }
                }
            } else {
                c.next();
            }
            if c.peek() == Some(&Tok::Colon) {
                c.next();
                c.skip_type()?;
            }
            Stmt::Function {
                name: name.into(),
                params,
            }
        }
        Some(Tok::Ident(kw)) if kw == "end" => Stmt::End,
        Some(Tok::Ident(kw)) if kw == "exit" => {
            c.next();
            Stmt::Exit(c.var("block variable")?)
        }
        Some(Tok::Ident(kw)) if kw == "barrier" || kw == "redo" => {
            let barrier = kw == "barrier";
            c.next();
            let target = c.var("target variable")?;
            if c.peek() == Some(&Tok::Colon) {
                c.next();
                c.skip_type()?;
            }
            c.expect(&Tok::Assign, "':='")?;
            let instr = c.call(Some(target))?;
            if barrier {
                Stmt::Barrier(instr)
            } else {
                Stmt::Redo(instr)
            }
        }
        Some(Tok::Ident(_)) => {
            // Either `X[:typ] := module.fn(...)` or a bare `module.fn(...)`.
            let first = c.ident("identifier")?;
            match c.peek() {
                Some(Tok::Colon) => {
                    let target = c.b.var(first);
                    c.next();
                    c.skip_type()?;
                    c.expect(&Tok::Assign, "':='")?;
                    Stmt::Assign(c.call(Some(target))?)
                }
                Some(Tok::Assign) => {
                    let target = c.b.var(first);
                    c.next();
                    Stmt::Assign(c.call(Some(target))?)
                }
                Some(Tok::Dot) => {
                    // bare call: first is the module
                    c.next();
                    Stmt::Assign(c.call_of(None, first)?)
                }
                other => return Err(c.err(&format!("unexpected token {other:?}"))),
            }
        }
        other => return Err(c.err(&format!("unexpected statement start {other:?}"))),
    };
    Ok(Some(stmt))
}

/// Parses a MAL-subset program.
///
/// Statements are semicolon-terminated; `#` starts a comment.
pub fn parse(src: &str) -> Result<Program, ParseError> {
    let mut b = Builder {
        prog: Program::default(),
    };
    let mut stmts = Vec::new();
    let mut pending: Vec<Tok> = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let toks = tokenize(line, lineno + 1)?;
        pending.extend(toks);
        // Split on semicolons (a statement may span lines).
        while let Some(pos) = pending.iter().position(|t| *t == Tok::Semi) {
            let stmt_toks: Vec<Tok> = pending.drain(..=pos).take(pos).collect();
            if let Some(s) = parse_stmt(&mut b, &stmt_toks, lineno + 1)? {
                stmts.push(s);
            }
        }
    }
    if !pending.is_empty() {
        return Err(ParseError {
            line: src.lines().count(),
            message: "trailing tokens without ';'".to_owned(),
        });
    }
    b.prog.stmts = Arc::new(stmts);
    Ok(b.prog)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Argument `k` of `i`: a variable's name, or a constant.
    fn arg(p: &Program, i: &Instruction, k: usize) -> Result<String, Atom> {
        match i.args()[k] {
            Arg::Var(v) => Ok(p.name(v).to_string()),
            Arg::Const(c) => Err(p.konst(c).clone()),
        }
    }

    #[test]
    fn parses_simple_assignment() {
        let p = parse("X14 := algebra.select(X1,A0,A1);").unwrap();
        assert_eq!(p.stmts.len(), 1);
        let Stmt::Assign(i) = &p.stmts[0] else {
            panic!("expected assignment")
        };
        assert!(p.name(i.target.unwrap()).is("X14"));
        assert_eq!(i.op, Op::AlgebraSelect);
        assert_eq!(p.qualified(i), "algebra.select");
        assert_eq!(i.args().len(), 3);
        assert_eq!(arg(&p, i, 0), Ok("X1".to_owned()));
    }

    #[test]
    fn an_unknown_call_keeps_its_names_and_a_long_one_is_rejected() {
        let p = parse("X := nosuch.fn(1);").unwrap();
        let Stmt::Assign(i) = &p.stmts[0] else {
            panic!("expected assignment")
        };
        assert!(matches!(i.op, Op::Unknown { .. }));
        assert_eq!(p.qualified(i), "nosuch.fn");
        assert_eq!(p.render().trim(), "X := nosuch.fn(1);");
        assert!(parse("io.print(1,2,3,4,5,6,7,8);").is_ok());
        let e = parse("io.print(1,2,3,4,5,6,7,8,9);").unwrap_err();
        assert!(e.message.contains("at most 8"), "{e}");
    }

    #[test]
    fn parses_type_annotations_and_literals() {
        let p = parse(
            r#"X1:bat[:oid,:dbl] := sql.bind("sys","P","ra",0);
               X14 := algebra.uselect(X1,205.1,205.12,true,true);
               X26 := calc.oid(0@0);"#,
        )
        .unwrap();
        assert_eq!(p.stmts.len(), 3);
        let Stmt::Assign(bind) = &p.stmts[0] else {
            panic!()
        };
        assert_eq!(arg(&p, bind, 0), Err(Atom::Str("sys".into())));
        assert_eq!(arg(&p, bind, 3), Err(Atom::Int(0)));
        let Stmt::Assign(sel) = &p.stmts[1] else {
            panic!()
        };
        assert_eq!(arg(&p, sel, 1), Err(Atom::Dbl(205.1)));
        assert_eq!(arg(&p, sel, 3), Err(Atom::Int(1)), "true -> 1");
        let Stmt::Assign(oid) = &p.stmts[2] else {
            panic!()
        };
        assert_eq!(arg(&p, oid, 0), Err(Atom::Oid(0)));
    }

    #[test]
    fn parses_function_header_and_end() {
        let p = parse("function user.s1_0(A0:dbl,A1:dbl):void;\nX1 := calc.oid(0@0);\nend s1_0;")
            .unwrap();
        assert_eq!(p.params(), ["A0", "A1"]);
        assert!(matches!(p.stmts.last(), Some(Stmt::End)));
    }

    #[test]
    fn parses_barrier_block() {
        let src = "barrier rseg := bpm.newIterator(Y1,A0,A1);\n\
                   T1 := algebra.select(rseg,A0,A1);\n\
                   bpm.addSegment(Y2,T1);\n\
                   redo rseg := bpm.hasMoreElements(Y1,A0,A1);\n\
                   exit rseg;";
        let p = parse(src).unwrap();
        let rseg = p.slot_of("rseg").unwrap();
        assert!(matches!(&p.stmts[0], Stmt::Barrier(i) if i.target == Some(rseg)));
        assert!(matches!(&p.stmts[2], Stmt::Assign(i) if i.target.is_none()));
        assert!(matches!(&p.stmts[3], Stmt::Redo(i) if i.target == Some(rseg)));
        assert!(matches!(p.stmts[4], Stmt::Exit(v) if v == rseg));
    }

    #[test]
    fn parses_the_full_figure1_plan() {
        let src = r#"
function user.s1_0(A0:dbl,A1:dbl):void;
    X1:bat[:oid,:dbl]  := sql.bind("sys","P","ra",0);
    X16:bat[:oid,:dbl] := sql.bind("sys","P","ra",1);
    X19:bat[:oid,:dbl] := sql.bind("sys","P","ra",2);
    X23:bat[:oid,:oid] := sql.bind_dbat("sys","P",1);
    X30:bat[:oid,:lng] := sql.bind("sys","P","objid",0);
    X32:bat[:oid,:lng] := sql.bind("sys","P","objid",1);
    X34:bat[:oid,:lng] := sql.bind("sys","P","objid",2);
    X14 := algebra.uselect(X1,A0,A1,true,true);
    X17 := algebra.uselect(X16,A0,A1,true,true);
    X18 := algebra.kunion(X14,X17);
    X20 := algebra.kdifference(X18,X19);
    X21 := algebra.uselect(X19,A0,A1,true,true);
    X22 := algebra.kunion(X20,X21);
    X24 := bat.reverse(X23);
    X25 := algebra.kdifference(X22,X24);
    X26 := calc.oid(0@0);
    X28 := algebra.markT(X25,X26);
    X29 := bat.reverse(X28);
    X33 := algebra.kunion(X30,X32);
    X35 := algebra.kdifference(X33,X34);
    X36 := algebra.kunion(X35,X34);
    X37 := algebra.join(X29,X36);
    X38 := sql.resultSet(1,1,X37);
    sql.rsColumn(X38,"sys.P","objid","bigint",64,0,X37);
    sql.exportResult(X38,"");
end s1_0;
"#;
        let p = parse(src).unwrap();
        // function + 7 binds + 16 assignments + 2 bare calls + end = 27.
        assert_eq!(p.stmts.len(), 27);
        assert_eq!(p.params().len(), 2);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("X := ;").is_err());
        assert!(parse("X := algebra.select(").is_err());
        assert!(parse("% nonsense;").is_err());
        assert!(parse(r#"X := f.g("unterminated);"#).is_err());
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let p = parse("# a comment\n\nX := calc.oid(1@0); # trailing\n").unwrap();
        assert_eq!(p.stmts.len(), 1);
    }
}
