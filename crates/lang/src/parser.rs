//! Parser for the GROM scenario language.
//!
//! The textual language replaces the demo's GUI mapping designer. Grammar
//! (EBNF-ish; `#`/`//` start line comments):
//!
//! ```text
//! program    := item*
//! item       := schema | view | dep | fact
//! schema     := "schema" IDENT "{" reldecl* "}"
//! reldecl    := IDENT "(" coldecl ("," coldecl)* ")" ";"
//! coldecl    := IDENT ":" ("int" | "string" | "bool" | "any")
//! view       := "view" atom "<-" body "."
//! dep        := ("tgd" | "egd" | "ded" | "dep") [IDENT ":"] body "->" conclusion "."
//! conclusion := "false" | disjunct ("|" disjunct)*
//! disjunct   := citem ("," citem)*
//! citem      := atom | term cmpop term          // "=" makes an equality
//! body       := literal ("," literal)*
//! literal    := "not" atom | atom | term cmpop term
//! atom       := IDENT "(" [term ("," term)*] ")"
//! term       := IDENT | INT | STRING | "true" | "false"
//! fact       := ["fact"] atom "."               // arguments must be constants
//! cmpop      := "=" | "==" | "!=" | "<" | "<=" | ">" | ">="
//! ```
//!
//! Identifiers in term position are **variables**; constants are numbers,
//! quoted strings and `true`/`false` (matching the paper's convention of
//! quoting data values, e.g. `T-Rating(rid, pid, '0')`). The `tgd` / `egd`
//! keywords assert the dependency's class and are verified; `ded` and `dep`
//! accept any shape.

use std::collections::BTreeMap;
use std::sync::Arc;

use grom_data::{ColumnSchema, ColumnType, Fact, RelationSchema, Schema, Value};

use crate::ast::{Atom, CmpOp, Comparison, Literal, Term};
use crate::dependency::{DepClass, Dependency, Disjunct};
use crate::error::LangError;
use crate::program::Program;
use crate::view::{ViewRule, ViewSet};

// ---------------------------------------------------------------- lexer --

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    Int(i64),
    Str(String),
    LBrace,
    RBrace,
    LParen,
    RParen,
    Comma,
    Colon,
    Semi,
    Dot,
    Pipe,
    Arrow,    // ->
    RevArrow, // <-
    Eq,       // = or ==
    Neq,      // !=
    Lt,
    Leq,
    Gt,
    Geq,
    Eof,
}

impl std::fmt::Display for Tok {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "identifier `{s}`"),
            Tok::Int(i) => write!(f, "integer `{i}`"),
            Tok::Str(s) => write!(f, "string \"{s}\""),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Dot => f.write_str("`.`"),
            Tok::Pipe => f.write_str("`|`"),
            Tok::Arrow => f.write_str("`->`"),
            Tok::RevArrow => f.write_str("`<-`"),
            Tok::Eq => f.write_str("`=`"),
            Tok::Neq => f.write_str("`!=`"),
            Tok::Lt => f.write_str("`<`"),
            Tok::Leq => f.write_str("`<=`"),
            Tok::Gt => f.write_str("`>`"),
            Tok::Geq => f.write_str("`>=`"),
            Tok::Eof => f.write_str("end of input"),
        }
    }
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
    col: usize,
}

fn lex(text: &str) -> Result<Vec<Spanned>, LangError> {
    let mut out = Vec::new();
    let bytes: Vec<char> = text.chars().collect();
    let mut i = 0;
    let mut line = 1;
    let mut col = 1;

    macro_rules! push {
        ($tok:expr, $l:expr, $c:expr) => {
            out.push(Spanned {
                tok: $tok,
                line: $l,
                col: $c,
            })
        };
    }

    while i < bytes.len() {
        let c = bytes[i];
        let (l0, c0) = (line, col);
        let advance = |i: &mut usize, line: &mut usize, col: &mut usize| {
            if bytes[*i] == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *i += 1;
        };
        match c {
            ' ' | '\t' | '\r' | '\n' => {
                advance(&mut i, &mut line, &mut col);
            }
            '#' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    advance(&mut i, &mut line, &mut col);
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == '/' => {
                while i < bytes.len() && bytes[i] != '\n' {
                    advance(&mut i, &mut line, &mut col);
                }
            }
            '{' => {
                push!(Tok::LBrace, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            '}' => {
                push!(Tok::RBrace, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            '(' => {
                push!(Tok::LParen, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            ')' => {
                push!(Tok::RParen, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            ',' => {
                push!(Tok::Comma, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            ':' => {
                push!(Tok::Colon, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            ';' => {
                push!(Tok::Semi, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            '.' => {
                push!(Tok::Dot, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            '|' => {
                push!(Tok::Pipe, l0, c0);
                advance(&mut i, &mut line, &mut col);
            }
            '=' => {
                advance(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == '=' {
                    advance(&mut i, &mut line, &mut col);
                }
                push!(Tok::Eq, l0, c0);
            }
            '!' => {
                advance(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == '=' {
                    advance(&mut i, &mut line, &mut col);
                    push!(Tok::Neq, l0, c0);
                } else {
                    return Err(LangError::parse(l0, c0, "expected `!=`"));
                }
            }
            '<' => {
                advance(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == '=' {
                    advance(&mut i, &mut line, &mut col);
                    push!(Tok::Leq, l0, c0);
                } else if i < bytes.len() && bytes[i] == '-' {
                    advance(&mut i, &mut line, &mut col);
                    push!(Tok::RevArrow, l0, c0);
                } else {
                    push!(Tok::Lt, l0, c0);
                }
            }
            '>' => {
                advance(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == '=' {
                    advance(&mut i, &mut line, &mut col);
                    push!(Tok::Geq, l0, c0);
                } else {
                    push!(Tok::Gt, l0, c0);
                }
            }
            '-' => {
                advance(&mut i, &mut line, &mut col);
                if i < bytes.len() && bytes[i] == '>' {
                    advance(&mut i, &mut line, &mut col);
                    push!(Tok::Arrow, l0, c0);
                } else if i < bytes.len() && bytes[i].is_ascii_digit() {
                    let mut n: i64 = 0;
                    while i < bytes.len() && bytes[i].is_ascii_digit() {
                        n = n * 10 + (bytes[i] as i64 - '0' as i64);
                        advance(&mut i, &mut line, &mut col);
                    }
                    push!(Tok::Int(-n), l0, c0);
                } else {
                    return Err(LangError::parse(
                        l0,
                        c0,
                        "expected `->` or a number after `-`",
                    ));
                }
            }
            '"' | '\'' => {
                let quote = c;
                advance(&mut i, &mut line, &mut col);
                let mut s = String::new();
                loop {
                    if i >= bytes.len() {
                        return Err(LangError::parse(l0, c0, "unterminated string literal"));
                    }
                    let d = bytes[i];
                    if d == quote {
                        advance(&mut i, &mut line, &mut col);
                        break;
                    }
                    if d == '\\' {
                        advance(&mut i, &mut line, &mut col);
                        if i >= bytes.len() {
                            return Err(LangError::parse(l0, c0, "unterminated escape"));
                        }
                        let e = bytes[i];
                        s.push(match e {
                            'n' => '\n',
                            't' => '\t',
                            '\\' => '\\',
                            '"' => '"',
                            '\'' => '\'',
                            other => {
                                return Err(LangError::parse(
                                    line,
                                    col,
                                    format!("unknown escape `\\{other}`"),
                                ))
                            }
                        });
                        advance(&mut i, &mut line, &mut col);
                    } else {
                        s.push(d);
                        advance(&mut i, &mut line, &mut col);
                    }
                }
                push!(Tok::Str(s), l0, c0);
            }
            c if c.is_ascii_digit() => {
                let mut n: i64 = 0;
                while i < bytes.len() && bytes[i].is_ascii_digit() {
                    n = n * 10 + (bytes[i] as i64 - '0' as i64);
                    advance(&mut i, &mut line, &mut col);
                }
                push!(Tok::Int(n), l0, c0);
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut s = String::new();
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    s.push(bytes[i]);
                    advance(&mut i, &mut line, &mut col);
                }
                push!(Tok::Ident(s), l0, c0);
            }
            other => {
                return Err(LangError::parse(
                    l0,
                    c0,
                    format!("unexpected character `{other}`"),
                ));
            }
        }
    }
    out.push(Spanned {
        tok: Tok::Eof,
        line,
        col,
    });
    Ok(out)
}

// --------------------------------------------------------------- parser --

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    /// Counter for auto-naming unnamed dependencies.
    dep_counter: usize,
}

impl Parser {
    fn new(text: &str) -> Result<Parser, LangError> {
        Ok(Parser {
            toks: lex(text)?,
            pos: 0,
            dep_counter: 0,
        })
    }

    fn peek(&self) -> &Spanned {
        &self.toks[self.pos]
    }

    fn peek2(&self) -> &Spanned {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> Spanned {
        let t = self.toks[self.pos].clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> LangError {
        let s = self.peek();
        LangError::parse(s.line, s.col, msg.into())
    }

    fn expect(&mut self, tok: Tok) -> Result<(), LangError> {
        if self.peek().tok == tok {
            self.next();
            Ok(())
        } else {
            Err(self.err(format!("expected {tok}, found {}", self.peek().tok)))
        }
    }

    fn expect_ident(&mut self) -> Result<String, LangError> {
        match &self.peek().tok {
            Tok::Ident(s) => {
                let s = s.clone();
                self.next();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().tok, Tok::Ident(s) if s == kw)
    }

    fn cmp_op(&mut self) -> Option<CmpOp> {
        let op = match self.peek().tok {
            Tok::Eq => CmpOp::Eq,
            Tok::Neq => CmpOp::Neq,
            Tok::Lt => CmpOp::Lt,
            Tok::Leq => CmpOp::Leq,
            Tok::Gt => CmpOp::Gt,
            Tok::Geq => CmpOp::Geq,
            _ => return None,
        };
        self.next();
        Some(op)
    }

    fn term(&mut self) -> Result<Term, LangError> {
        match self.peek().tok.clone() {
            Tok::Ident(s) => {
                self.next();
                match s.as_str() {
                    "true" => Ok(Term::Const(Value::bool(true))),
                    "false" => Ok(Term::Const(Value::bool(false))),
                    _ => {
                        if s.contains('$') {
                            return Err(self.err("`$` is reserved for generated variables"));
                        }
                        Ok(Term::var(s))
                    }
                }
            }
            Tok::Int(i) => {
                self.next();
                Ok(Term::Const(Value::int(i)))
            }
            Tok::Str(s) => {
                self.next();
                Ok(Term::Const(Value::str(s)))
            }
            other => Err(self.err(format!("expected a term, found {other}"))),
        }
    }

    fn atom_args(&mut self) -> Result<Vec<Term>, LangError> {
        self.expect(Tok::LParen)?;
        let mut args = Vec::new();
        if self.peek().tok != Tok::RParen {
            loop {
                args.push(self.term()?);
                if self.peek().tok == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
        }
        self.expect(Tok::RParen)?;
        Ok(args)
    }

    fn atom(&mut self) -> Result<Atom, LangError> {
        let name = self.expect_ident()?;
        let args = self.atom_args()?;
        Ok(Atom::new(name, args))
    }

    /// A body literal: `not atom`, `atom`, or `term op term`.
    fn literal(&mut self) -> Result<Literal, LangError> {
        if self.is_keyword("not") {
            self.next();
            return Ok(Literal::Neg(self.atom()?));
        }
        // Atom iff IDENT followed by LParen (and not a boolean constant).
        if let Tok::Ident(s) = &self.peek().tok {
            if s != "true" && s != "false" && self.peek2().tok == Tok::LParen {
                return Ok(Literal::Pos(self.atom()?));
            }
        }
        let lhs = self.term()?;
        let op = self
            .cmp_op()
            .ok_or_else(|| self.err("expected a comparison operator"))?;
        let rhs = self.term()?;
        Ok(Literal::Cmp(Comparison::new(op, lhs, rhs)))
    }

    fn body(&mut self) -> Result<Vec<Literal>, LangError> {
        let mut lits = vec![self.literal()?];
        while self.peek().tok == Tok::Comma {
            self.next();
            lits.push(self.literal()?);
        }
        Ok(lits)
    }

    fn disjunct(&mut self) -> Result<Disjunct, LangError> {
        let mut d = Disjunct::default();
        loop {
            // Atom iff IDENT followed by LParen.
            let is_atom = matches!(&self.peek().tok, Tok::Ident(s)
                if s != "true" && s != "false" && self.peek2().tok == Tok::LParen);
            if is_atom {
                d.atoms.push(self.atom()?);
            } else {
                let lhs = self.term()?;
                let op = self
                    .cmp_op()
                    .ok_or_else(|| self.err("expected a comparison operator"))?;
                let rhs = self.term()?;
                if op == CmpOp::Eq {
                    d.eqs.push((lhs, rhs));
                } else {
                    d.cmps.push(Comparison::new(op, lhs, rhs));
                }
            }
            if self.peek().tok == Tok::Comma {
                self.next();
            } else {
                break;
            }
        }
        Ok(d)
    }

    fn dependency(&mut self, keyword: &str) -> Result<Dependency, LangError> {
        // Optional name: IDENT ':'.
        let name = if matches!(&self.peek().tok, Tok::Ident(_)) && self.peek2().tok == Tok::Colon {
            let n = self.expect_ident()?;
            self.expect(Tok::Colon)?;
            n
        } else {
            self.dep_counter += 1;
            format!("{}_{}", keyword, self.dep_counter)
        };
        let premise = self.body()?;
        self.expect(Tok::Arrow)?;

        let mut disjuncts = Vec::new();
        if self.is_keyword("false") && self.peek2().tok == Tok::Dot {
            self.next(); // consume `false`: a denial.
        } else {
            disjuncts.push(self.disjunct()?);
            while self.peek().tok == Tok::Pipe {
                self.next();
                disjuncts.push(self.disjunct()?);
            }
        }
        self.expect(Tok::Dot)?;

        let dep = Dependency::new(name, premise, disjuncts);
        // The `tgd`/`egd` keywords assert the class.
        let class = dep.class();
        let ok = match keyword {
            "tgd" => class == DepClass::Tgd,
            "egd" => class == DepClass::Egd,
            _ => true,
        };
        if !ok {
            return Err(self.err(format!(
                "dependency `{}` declared as {keyword} but has class {class}",
                dep.name
            )));
        }
        Ok(dep)
    }

    fn view_rule(&mut self) -> Result<ViewRule, LangError> {
        let head = self.atom()?;
        self.expect(Tok::RevArrow)?;
        let body = self.body()?;
        self.expect(Tok::Dot)?;
        Ok(ViewRule::new(head, body))
    }

    fn schema_decl(&mut self) -> Result<(String, Schema), LangError> {
        let name = self.expect_ident()?;
        self.expect(Tok::LBrace)?;
        let mut schema = Schema::new();
        while self.peek().tok != Tok::RBrace {
            let rel_name = self.expect_ident()?;
            self.expect(Tok::LParen)?;
            let mut cols = Vec::new();
            loop {
                let col_name = self.expect_ident()?;
                self.expect(Tok::Colon)?;
                let ty_name = self.expect_ident()?;
                let ty = match ty_name.as_str() {
                    "int" => ColumnType::Int,
                    "string" => ColumnType::String,
                    "bool" => ColumnType::Bool,
                    "any" => ColumnType::Any,
                    other => {
                        return Err(self.err(format!(
                            "unknown column type `{other}` (expected int/string/bool/any)"
                        )))
                    }
                };
                cols.push(ColumnSchema::new(col_name, ty));
                if self.peek().tok == Tok::Comma {
                    self.next();
                } else {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
            self.expect(Tok::Semi)?;
            let rel = RelationSchema::new(&rel_name, cols).map_err(|e| {
                let s = self.peek();
                LangError::parse(s.line, s.col, e.to_string())
            })?;
            schema.add_relation(rel).map_err(|e| {
                let s = self.peek();
                LangError::parse(s.line, s.col, e.to_string())
            })?;
        }
        self.expect(Tok::RBrace)?;
        Ok((name, schema))
    }

    fn fact(&mut self) -> Result<Fact, LangError> {
        let atom = self.atom()?;
        self.expect(Tok::Dot)?;
        let mut values = Vec::with_capacity(atom.args.len());
        for t in &atom.args {
            match t {
                Term::Const(v) => values.push(v.clone()),
                Term::Var(v) => {
                    return Err(self.err(format!(
                        "facts must be ground; `{v}` is a variable (quote strings)"
                    )))
                }
            }
        }
        Ok(Fact::new(atom.predicate.as_ref(), values))
    }

    fn program(&mut self) -> Result<Program, LangError> {
        let mut prog = Program::default();
        let mut view_rules: Vec<ViewRule> = Vec::new();
        let mut view_arity: BTreeMap<Arc<str>, usize> = BTreeMap::new();
        loop {
            match &self.peek().tok {
                Tok::Eof => break,
                Tok::Ident(kw) => match kw.as_str() {
                    "schema" => {
                        self.next();
                        let (name, schema) = self.schema_decl()?;
                        if prog.schemas.contains_key(&name) {
                            return Err(self.err(format!("schema `{name}` declared twice")));
                        }
                        prog.schemas.insert(name, schema);
                    }
                    "view" => {
                        self.next();
                        let rule = self.view_rule()?;
                        // A union's arity is checked here too, where the
                        // rule's position is still known.
                        let (view, actual) = (rule.head.predicate.clone(), rule.head.arity());
                        let expected = *view_arity.entry(view.clone()).or_insert(actual);
                        if expected != actual {
                            let mismatch = LangError::ViewArityMismatch {
                                view,
                                expected,
                                actual,
                            };
                            return Err(self.err(mismatch.to_string()));
                        }
                        view_rules.push(rule);
                    }
                    "tgd" | "egd" | "ded" | "dep" => {
                        let kw = kw.clone();
                        self.next();
                        let dep = self.dependency(&kw)?;
                        prog.deps.push(dep);
                    }
                    "fact" => {
                        self.next();
                        prog.facts.push(self.fact()?);
                    }
                    _ => {
                        // A bare atom is a fact.
                        if self.peek2().tok == Tok::LParen {
                            prog.facts.push(self.fact()?);
                        } else {
                            return Err(self.err(format!(
                                "expected a declaration (schema/view/tgd/egd/ded/dep/fact), \
                                 found identifier `{kw}`"
                            )));
                        }
                    }
                },
                other => {
                    return Err(self.err(format!("expected a declaration, found {other}")));
                }
            }
        }
        // The whole program is read: resolve its views, once.
        prog.views = ViewSet::from_rules(view_rules)?;
        Ok(prog)
    }
}

/// Parse a full program; see the module docs for the grammar.
pub fn parse_program(text: &str) -> Result<Program, LangError> {
    Parser::new(text)?.program()
}

/// Parse a single dependency declaration, e.g.
/// `tgd m: S(x), x < 2 -> T(x, y).`
pub fn parse_dependency(text: &str) -> Result<Dependency, LangError> {
    let prog = parse_program(text)?;
    match prog.deps.len() {
        1 => Ok(prog.deps.into_iter().next().unwrap()),
        n => Err(LangError::parse(
            1,
            1,
            format!("expected exactly one dependency, found {n}"),
        )),
    }
}

/// Parse a single view rule, e.g. `view V(x) <- A(x), not B(x).` — syntax
/// only: a lone rule is not a [`ViewSet`], so nothing is checked for safety.
pub fn parse_view_rule(text: &str) -> Result<ViewRule, LangError> {
    let mut p = Parser::new(text)?;
    if !p.is_keyword("view") {
        return Err(p.err(format!("expected `view`, found {}", p.peek().tok)));
    }
    p.next();
    let rule = p.view_rule()?;
    p.expect(Tok::Eof)?;
    Ok(rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dependency::DepClass;

    #[test]
    fn parse_paper_running_example() {
        let text = r#"
            # The GROM running example (EDBT 2016, Section 2).
            schema source {
                S_Product(id: int, name: string, store: string, rating: int);
                S_Store(name: string, location: string);
            }
            schema target {
                T_Product(id: int, name: string, store: int);
                T_Store(id: int, name: string, address: string, phone: string);
                T_Rating(id: int, product: int, thumbsUp: int);
            }

            view Product(id, name) <- T_Product(id, name, store).
            view PopularProduct(pid, name) <-
                T_Product(pid, name, store), not T_Rating(rid, pid, 0).
            view AvgProduct(pid, name) <-
                T_Product(pid, name, store), T_Rating(rid, pid, 1),
                not PopularProduct(pid, name).
            view UnpopularProduct(pid, name) <-
                T_Product(pid, name, store),
                not AvgProduct(pid, name), not PopularProduct(pid, name).
            view SoldAt(pid, stid) <- T_Product(pid, pname, stid).
            view Store(id, name, addr) <- T_Store(id, name, addr, phone).

            tgd m0: S_Product(pid, name, store, rating), rating < 2
                -> UnpopularProduct(pid, name).
            tgd m1: S_Product(pid, name, store, rating), rating >= 2, rating < 4
                -> AvgProduct(pid, name).
            tgd m2: S_Product(pid, name, store, rating), rating >= 4
                -> PopularProduct(pid, name).
            tgd m3: S_Product(pid, name, store, rating), S_Store(store, location)
                -> SoldAt(pid, sid), Store(sid, store, location).

            egd e0: PopularProduct(id1, n), PopularProduct(id2, n) -> id1 = id2.

            fact S_Product(1, "tv", "acme", 5).
            fact S_Store("acme", "rome").
        "#;
        let prog = parse_program(text).unwrap();
        assert_eq!(prog.schemas.len(), 2);
        assert_eq!(prog.views.len(), 6);
        assert_eq!(prog.deps.len(), 5);
        assert_eq!(prog.facts.len(), 2);
        prog.validate().unwrap();

        let m3 = &prog.deps[3];
        assert_eq!(m3.name.as_ref(), "m3");
        assert_eq!(m3.class(), DepClass::Tgd);
        // sid is existential in m3.
        let ex: Vec<String> = m3
            .existential_vars(0)
            .iter()
            .map(|v| v.to_string())
            .collect();
        assert_eq!(ex, vec!["sid"]);

        let e0 = &prog.deps[4];
        assert_eq!(e0.class(), DepClass::Egd);
    }

    #[test]
    fn parse_ded_with_disjuncts() {
        let dep = parse_dependency(
            "ded d0: T_Product(p1, n, s1), T_Product(p2, n, s2) \
             -> p1 = p2 | T_Rating(r, p1, 0) | T_Rating(r2, p2, 0).",
        )
        .unwrap();
        assert_eq!(dep.class(), DepClass::Ded);
        assert_eq!(dep.disjuncts.len(), 3);
        assert_eq!(dep.disjuncts[0].eqs.len(), 1);
        assert_eq!(dep.disjuncts[1].atoms.len(), 1);
    }

    #[test]
    fn parse_denial() {
        let dep = parse_dependency("dep n: T(x, x) -> false.").unwrap();
        assert_eq!(dep.class(), DepClass::Denial);
    }

    #[test]
    fn tgd_keyword_class_checked() {
        let err = parse_dependency("tgd bad: T(x, y) -> x = y.").unwrap_err();
        assert!(err.to_string().contains("class"));
        let err = parse_dependency("egd bad: T(x, y) -> U(x).").unwrap_err();
        assert!(err.to_string().contains("class"));
    }

    #[test]
    fn parse_string_and_bool_constants() {
        let dep = parse_dependency("dep d: S(x, \"acme\", 'roma', true, -7) -> T(x).").unwrap();
        let args = &dep.premise[0].atom().unwrap().args;
        assert_eq!(args[1], Term::Const(Value::str("acme")));
        assert_eq!(args[2], Term::Const(Value::str("roma")));
        assert_eq!(args[3], Term::Const(Value::bool(true)));
        assert_eq!(args[4], Term::Const(Value::int(-7)));
    }

    #[test]
    fn bare_fact_without_keyword() {
        let prog = parse_program("S_Product(1, \"tv\", \"acme\", 5).").unwrap();
        assert_eq!(prog.facts.len(), 1);
    }

    #[test]
    fn non_ground_fact_rejected() {
        let err = parse_program("fact S(x).").unwrap_err();
        assert!(err.to_string().contains("ground"));
    }

    #[test]
    fn comparison_in_conclusion_disjunct() {
        let dep = parse_dependency("dep d: S(x, y) -> T(x), y != 0 | x = y.").unwrap();
        assert_eq!(dep.disjuncts.len(), 2);
        assert_eq!(dep.disjuncts[0].cmps.len(), 1);
        assert_eq!(dep.disjuncts[0].atoms.len(), 1);
        assert_eq!(dep.disjuncts[1].eqs.len(), 1);
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_program("view V(x) <- A(x)\nview W(y) <- B(y).").unwrap_err();
        match err {
            LangError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn views_are_resolved_when_the_program_has_been_read() {
        // A union's arity: a parse error where the offending rule ends.
        let err = parse_program("view V(x) <- A(x).\nview V(x, y) <- A(x), A(y).\n").unwrap_err();
        assert_eq!(
            err.to_string(),
            "parse error at 3:1: rules for view `V` disagree on arity: 1 vs 2"
        );
        // Safety and recursion: the one `ViewSet::from_rules`, its errors.
        let err = parse_program("view V(x) <- W(x).\nview W(x) <- V(x).").unwrap_err();
        assert!(matches!(err, LangError::RecursiveViews { .. }));
        let err = parse_program("view V(x, ghost) <- A(x).").unwrap_err();
        assert!(matches!(err, LangError::Unsafe { .. }));
        // … after every syntax error, as when validation was a later call.
        let err = parse_program("view V(x) <- V(x).\ntgd m: -> T(x).").unwrap_err();
        assert!(matches!(err, LangError::Parse { line: 2, .. }));
    }

    #[test]
    fn dollar_variables_rejected() {
        // `$` cannot be lexed as part of an identifier at all.
        let err = parse_program("view V(x) <- A($x_1).").unwrap_err();
        assert!(matches!(err, LangError::Parse { .. }));
    }

    #[test]
    fn unterminated_string_reported() {
        let err = parse_program("fact S(\"oops).").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn display_round_trip_of_dependency() {
        let text = "ded d0: T_Product(p1, n, s1), T_Product(p2, n, s2) \
                    -> p1 = p2 | T_Rating(r, p1, 0) | T_Rating(r2, p2, 0).";
        let dep = parse_dependency(text).unwrap();
        let printed = dep.to_string();
        // `Display` uses the generic `dep` keyword.
        let reparsed = parse_dependency(&printed).unwrap();
        assert_eq!(dep, reparsed);
    }

    #[test]
    fn display_round_trip_of_view_rule() {
        let rule = parse_view_rule(
            "view AvgProduct(pid, name) <- T_Product(pid, name, store), \
             T_Rating(rid, pid, 1), not PopularProduct(pid, name).",
        )
        .unwrap();
        let reparsed = parse_view_rule(&rule.to_string()).unwrap();
        assert_eq!(rule, reparsed);
    }

    #[test]
    fn empty_program_parses() {
        let prog = parse_program("  # nothing here\n // just comments\n").unwrap();
        assert!(prog.deps.is_empty());
        assert!(prog.views.is_empty());
    }

    #[test]
    fn auto_named_dependencies() {
        let prog = parse_program("dep A(x) -> B(x).\ndep A(x) -> C(x).").unwrap();
        assert_eq!(prog.deps.len(), 2);
        assert_ne!(prog.deps[0].name, prog.deps[1].name);
    }
}
