//! A parser for the MAL subset — sufficient for the paper's Figure 1 plan
//! verbatim, including type annotations (which are checked for shape and
//! otherwise ignored), string/numeric/oid literals, and guarded blocks.

use std::sync::Arc;

use soc_bat::Atom;

use crate::ast::{Arg, Instruction, Name, Program, Stmt};

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

struct Cursor<'a> {
    toks: &'a [Tok],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
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

    fn ident(&mut self, what: &str) -> Result<String, ParseError> {
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s.clone()),
            other => Err(self.err(&format!("expected {what}, got {other:?}"))),
        }
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
            let arg = match self.next() {
                Some(Tok::Ident(s)) => match s.as_str() {
                    "true" => Arg::Const(Atom::Int(1)),
                    "false" => Arg::Const(Atom::Int(0)),
                    "nil" => Arg::Const(Atom::Nil),
                    _ => Arg::Var(s.clone().into()),
                },
                Some(Tok::Str(s)) => Arg::Const(Atom::Str(s.clone())),
                Some(Tok::OidLit(v)) => Arg::Const(Atom::Oid(*v)),
                Some(Tok::Num(s)) => {
                    if s.contains('.') || s.contains('e') {
                        Arg::Const(Atom::Dbl(
                            s.parse().map_err(|_| self.err("bad float literal"))?,
                        ))
                    } else {
                        Arg::Const(Atom::Int(
                            s.parse().map_err(|_| self.err("bad int literal"))?,
                        ))
                    }
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

    /// `module.fn(args)` with the module/function already split by Dot.
    fn call(&mut self, target: Option<Name>) -> Result<Arc<Instruction>, ParseError> {
        let module = self.ident("module name")?;
        self.expect(&Tok::Dot, "'.'")?;
        let function = self.ident("function name")?;
        let args = self.args()?;
        Ok(Arc::new(Instruction::new(target, module, function, args)))
    }
}

/// Parses one MAL statement from tokens.
fn parse_stmt(toks: &[Tok], line: usize) -> Result<Option<Stmt>, ParseError> {
    if toks.is_empty() {
        return Ok(None);
    }
    let mut c = Cursor { toks, pos: 0, line };
    let stmt = match c.peek() {
        Some(Tok::Ident(kw)) if kw == "function" => {
            c.next();
            // function user.name(P:typ,...)[:rettyp];
            let mut name = c.ident("function name")?;
            while c.peek() == Some(&Tok::Dot) {
                c.next();
                name.push('.');
                name.push_str(&c.ident("name part")?);
            }
            c.expect(&Tok::LParen, "'('")?;
            let mut params = Vec::new();
            if c.peek() != Some(&Tok::RParen) {
                loop {
                    params.push(c.ident("parameter")?.into());
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
            Stmt::Exit(c.ident("block variable")?.into())
        }
        Some(Tok::Ident(kw)) if kw == "barrier" || kw == "redo" => {
            let kind = kw.clone();
            c.next();
            let target = c.ident("target variable")?;
            if c.peek() == Some(&Tok::Colon) {
                c.next();
                c.skip_type()?;
            }
            c.expect(&Tok::Assign, "':='")?;
            let instr = c.call(Some(target.into()))?;
            if kind == "barrier" {
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
                    c.next();
                    c.skip_type()?;
                    c.expect(&Tok::Assign, "':='")?;
                    Stmt::Assign(c.call(Some(first.into()))?)
                }
                Some(Tok::Assign) => {
                    c.next();
                    Stmt::Assign(c.call(Some(first.into()))?)
                }
                Some(Tok::Dot) => {
                    // bare call: first is the module
                    c.next();
                    let function = c.ident("function name")?;
                    let args = c.args()?;
                    Stmt::Assign(Arc::new(Instruction::new(None, first, function, args)))
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
    let mut stmts = Vec::new();
    let mut pending: Vec<Tok> = Vec::new();
    for (lineno, line) in src.lines().enumerate() {
        let toks = tokenize(line, lineno + 1)?;
        pending.extend(toks);
        // Split on semicolons (a statement may span lines).
        while let Some(pos) = pending.iter().position(|t| *t == Tok::Semi) {
            let stmt_toks: Vec<Tok> = pending.drain(..=pos).take(pos).collect();
            if let Some(s) = parse_stmt(&stmt_toks, lineno + 1)? {
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
    Ok(Program { stmts })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_assignment() {
        let p = parse("X14 := algebra.select(X1,A0,A1);").unwrap();
        assert_eq!(p.stmts.len(), 1);
        let Stmt::Assign(i) = &p.stmts[0] else {
            panic!("expected assignment")
        };
        assert_eq!(i.target.as_deref(), Some("X14"));
        assert_eq!(i.qualified(), "algebra.select");
        assert_eq!(i.args.len(), 3);
        assert_eq!(i.args[0], Arg::Var("X1".into()));
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
        assert_eq!(bind.args[0], Arg::Const(Atom::Str("sys".into())));
        assert_eq!(bind.args[3], Arg::Const(Atom::Int(0)));
        let Stmt::Assign(sel) = &p.stmts[1] else {
            panic!()
        };
        assert_eq!(sel.args[1], Arg::Const(Atom::Dbl(205.1)));
        assert_eq!(sel.args[3], Arg::Const(Atom::Int(1)), "true -> 1");
        let Stmt::Assign(oid) = &p.stmts[2] else {
            panic!()
        };
        assert_eq!(oid.args[0], Arg::Const(Atom::Oid(0)));
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
        assert!(matches!(&p.stmts[0], Stmt::Barrier(i) if i.target.as_deref() == Some("rseg")));
        assert!(matches!(&p.stmts[2], Stmt::Assign(i) if i.target.is_none()));
        assert!(matches!(&p.stmts[3], Stmt::Redo(_)));
        assert_eq!(p.stmts[4], Stmt::Exit("rseg".into()));
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
