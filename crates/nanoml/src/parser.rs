//! Recursive-descent parser for NanoML.
//!
//! The concrete syntax is a small OCaml subset: datatype declarations,
//! (recursive) `let` bindings with parameters, `fun`, `if`, `match` with
//! shallow patterns, tuples, list sugar, `assert`, and the usual operator
//! precedence. Constructor applications are resolved against declared
//! arities in a post-pass ([`crate::resolve`]).

use crate::ast::*;
use crate::token::{lex, Spanned, Token};
use dsolve_logic::Symbol;
use std::fmt;

/// A parse error with its source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Explanation.
    pub msg: String,
    /// Source line (1-based).
    pub line: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

/// Maximum expression/type nesting depth. Hostile inputs like
/// `((((…))))` or `not not not …` would otherwise overflow the stack,
/// which aborts the process and cannot be isolated by `catch_unwind`.
const MAX_DEPTH: usize = 256;

/// Parses a complete program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let toks = lex(src).map_err(|e| ParseError {
        msg: e.msg,
        line: e.line,
    })?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    p.program()
}

/// Parses a single expression (useful in tests and specs).
pub fn parse_expr_str(src: &str) -> Result<Expr, ParseError> {
    let toks = lex(src).map_err(|e| ParseError {
        msg: e.msg,
        line: e.line,
    })?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let e = p.expr()?;
    p.expect(&Token::Eof)?;
    Ok(e)
}

/// Parses a type expression (used by `.mlq` signatures).
pub fn parse_type_str(src: &str) -> Result<TypeExpr, ParseError> {
    let toks = lex(src).map_err(|e| ParseError {
        msg: e.msg,
        line: e.line,
    })?;
    let mut p = Parser {
        toks,
        pos: 0,
        depth: 0,
    };
    let t = p.type_expr()?;
    p.expect(&Token::Eof)?;
    Ok(t)
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Token {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn bump(&mut self) -> Token {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{t}`, found `{}`", self.peek())))
        }
    }

    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            msg: msg.to_owned(),
            line: self.line(),
        }
    }

    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err(&format!(
                "expression nesting exceeds the depth limit ({MAX_DEPTH})"
            )))
        } else {
            Ok(())
        }
    }

    fn ident(&mut self) -> Result<Symbol, ParseError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                Ok(Symbol::new(&s))
            }
            other => Err(self.err(&format!("expected identifier, found `{other}`"))),
        }
    }

    // ---------------- programs ----------------

    fn program(&mut self) -> Result<Program, ParseError> {
        let mut prog = Program::default();
        loop {
            while self.eat(&Token::SemiSemi) {}
            match self.peek() {
                Token::Eof => break,
                Token::Type => prog.datatypes.push(self.type_decl()?),
                Token::Let => prog.lets.push(self.top_let()?),
                other => {
                    return Err(self.err(&format!(
                        "expected `type` or `let` at top level, found `{other}`"
                    )))
                }
            }
        }
        Ok(prog)
    }

    fn type_decl(&mut self) -> Result<DataDecl, ParseError> {
        self.expect(&Token::Type)?;
        let mut params = Vec::new();
        match self.peek().clone() {
            Token::TyVar(v) => {
                self.bump();
                params.push(v);
            }
            Token::LParen => {
                self.bump();
                loop {
                    match self.bump() {
                        Token::TyVar(v) => params.push(v),
                        other => {
                            return Err(
                                self.err(&format!("expected type variable, found `{other}`"))
                            )
                        }
                    }
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            }
            _ => {}
        }
        let name = self.ident()?;
        self.expect(&Token::Eq)?;
        self.eat(&Token::Bar);
        let mut ctors = Vec::new();
        loop {
            let cname = match self.bump() {
                Token::Ctor(s) => Symbol::new(&s),
                other => return Err(self.err(&format!("expected constructor, found `{other}`"))),
            };
            let mut fields = Vec::new();
            if self.eat(&Token::Of) {
                fields.push(self.type_app()?);
                while self.eat(&Token::Star) {
                    fields.push(self.type_app()?);
                }
            }
            ctors.push(CtorDecl {
                name: cname,
                fields,
            });
            if !self.eat(&Token::Bar) {
                break;
            }
        }
        Ok(DataDecl {
            name,
            params,
            ctors,
        })
    }

    fn top_let(&mut self) -> Result<TopLet, ParseError> {
        let line = self.line();
        self.expect(&Token::Let)?;
        let recursive = self.eat(&Token::Rec);
        let mut binds = Vec::new();
        loop {
            let name = match self.peek().clone() {
                Token::Underscore => {
                    self.bump();
                    Symbol::fresh("toplevel")
                }
                _ => self.ident()?,
            };
            let params = self.params()?;
            self.expect(&Token::Eq)?;
            let mut body = self.expr()?;
            for p in params.into_iter().rev() {
                body = lam_param(p, body);
            }
            binds.push(TopBind { name, body });
            // Mutually recursive `and` bindings share the `rec` flag.
            if !self.eat(&Token::And) {
                break;
            }
        }
        Ok(TopLet {
            recursive,
            binds,
            line,
        })
    }

    fn params(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut ps = Vec::new();
        loop {
            match self.peek().clone() {
                Token::Ident(s) => {
                    self.bump();
                    ps.push(Param::Var(Symbol::new(&s)));
                }
                Token::Underscore => {
                    self.bump();
                    ps.push(Param::Var(Symbol::fresh("unused")));
                }
                Token::LParen => {
                    // Either `()` (unit param), `(x)` or a tuple param.
                    if *self.peek2() == Token::RParen {
                        self.bump();
                        self.bump();
                        ps.push(Param::Var(Symbol::fresh("unit")));
                        continue;
                    }
                    // Look ahead: `(ident, ...)` or `(ident : ty)` or `(ident)`.
                    let save = self.pos;
                    self.bump();
                    let mut binders = Vec::new();
                    let mut ok = true;
                    loop {
                        match self.peek().clone() {
                            Token::Ident(s) => {
                                self.bump();
                                binders.push(Some(Symbol::new(&s)));
                            }
                            Token::Underscore => {
                                self.bump();
                                binders.push(None);
                            }
                            _ => {
                                ok = false;
                                break;
                            }
                        }
                        if self.eat(&Token::Comma) {
                            continue;
                        }
                        break;
                    }
                    if ok && self.eat(&Token::RParen) {
                        if binders.len() == 1 {
                            let name = binders[0].unwrap_or_else(|| Symbol::fresh("unused"));
                            ps.push(Param::Var(name));
                        } else {
                            ps.push(Param::Tuple(binders));
                        }
                    } else {
                        self.pos = save;
                        break;
                    }
                }
                _ => break,
            }
        }
        Ok(ps)
    }

    // ---------------- expressions ----------------

    fn expr(&mut self) -> Result<Expr, ParseError> {
        // Sequences fold iteratively so a long flat `e; e; …` body does
        // not consume stack proportional to its length.
        let mut parts = vec![self.expr_noseq()?];
        while self.eat(&Token::Semi) {
            parts.push(self.expr_noseq()?);
        }
        let mut acc = parts.pop().expect("nonempty");
        while let Some(e) = parts.pop() {
            acc = Expr::Let(Symbol::fresh("seq"), Box::new(e), Box::new(acc));
        }
        Ok(acc)
    }

    fn expr_noseq(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let r = match self.peek() {
            Token::Let => self.let_expr(),
            Token::Fun => self.fun_expr(),
            Token::If => self.if_expr(),
            Token::Match => self.match_expr(),
            _ => self.or_expr(),
        };
        self.depth -= 1;
        r
    }

    fn let_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect(&Token::Let)?;
        let recursive = self.eat(&Token::Rec);
        // Tuple destructuring: let (a, b) = ... in ...
        if *self.peek() == Token::LParen {
            let save = self.pos;
            self.bump();
            let mut binders = Vec::new();
            let mut ok = true;
            loop {
                match self.peek().clone() {
                    Token::Ident(s) => {
                        self.bump();
                        binders.push(Some(Symbol::new(&s)));
                    }
                    Token::Underscore => {
                        self.bump();
                        binders.push(None);
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
                if self.eat(&Token::Comma) {
                    continue;
                }
                break;
            }
            if ok && binders.len() >= 2 && self.eat(&Token::RParen) && self.eat(&Token::Eq) {
                let rhs = self.expr_noseq()?;
                self.expect(&Token::In)?;
                let body = self.expr()?;
                return Ok(Expr::LetTuple(binders, Box::new(rhs), Box::new(body)));
            }
            self.pos = save;
        }
        let name = match self.peek().clone() {
            Token::Underscore => {
                self.bump();
                Symbol::fresh("unused")
            }
            _ => self.ident()?,
        };
        let params = self.params()?;
        self.expect(&Token::Eq)?;
        let mut rhs = self.expr_noseq()?;
        for p in params.into_iter().rev() {
            rhs = lam_param(p, rhs);
        }
        self.expect(&Token::In)?;
        let body = self.expr()?;
        if recursive {
            Ok(Expr::LetRec(name, Box::new(rhs), Box::new(body)))
        } else {
            Ok(Expr::Let(name, Box::new(rhs), Box::new(body)))
        }
    }

    fn fun_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect(&Token::Fun)?;
        let params = self.params()?;
        if params.is_empty() {
            return Err(self.err("`fun` needs at least one parameter"));
        }
        self.expect(&Token::Arrow)?;
        let mut body = self.expr_noseq()?;
        for p in params.into_iter().rev() {
            body = lam_param(p, body);
        }
        Ok(body)
    }

    fn if_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect(&Token::If)?;
        let c = self.expr_noseq()?;
        self.expect(&Token::Then)?;
        let t = self.expr_noseq()?;
        self.expect(&Token::Else)?;
        let e = self.expr_noseq()?;
        Ok(Expr::If(Box::new(c), Box::new(t), Box::new(e)))
    }

    fn match_expr(&mut self) -> Result<Expr, ParseError> {
        self.expect(&Token::Match)?;
        let scrut = self.expr_noseq()?;
        self.expect(&Token::With)?;
        self.eat(&Token::Bar);
        let mut arms = Vec::new();
        loop {
            let pattern = self.pattern()?;
            self.expect(&Token::Arrow)?;
            let body = self.expr_noseq()?;
            arms.push(Arm { pattern, body });
            if !self.eat(&Token::Bar) {
                break;
            }
        }
        Ok(Expr::Match(Box::new(scrut), arms))
    }

    fn pattern(&mut self) -> Result<Pattern, ParseError> {
        // Cons sugar has the lowest precedence: p :: p.
        let lhs = self.pattern_atom()?;
        if self.eat(&Token::ColonColon) {
            let head = pattern_binder(lhs, self)?;
            let rhs = self.pattern()?;
            let tail = pattern_binder(rhs, self)?;
            return Ok(Pattern::Ctor {
                name: Symbol::new("Cons"),
                binders: vec![head, tail],
            });
        }
        Ok(lhs)
    }

    fn pattern_atom(&mut self) -> Result<Pattern, ParseError> {
        match self.peek().clone() {
            Token::Underscore => {
                self.bump();
                Ok(Pattern::Any(None))
            }
            Token::Ident(s) => {
                self.bump();
                Ok(Pattern::Any(Some(Symbol::new(&s))))
            }
            Token::LBracket => {
                self.bump();
                self.expect(&Token::RBracket)?;
                Ok(Pattern::Ctor {
                    name: Symbol::new("Nil"),
                    binders: vec![],
                })
            }
            Token::LParen => {
                self.bump();
                let mut binders = Vec::new();
                loop {
                    match self.peek().clone() {
                        Token::Ident(s) => {
                            self.bump();
                            binders.push(Some(Symbol::new(&s)));
                        }
                        Token::Underscore => {
                            self.bump();
                            binders.push(None);
                        }
                        other => {
                            return Err(self.err(&format!(
                            "only variables and `_` are allowed in tuple patterns, found `{other}`"
                        )))
                        }
                    }
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
                if binders.len() == 1 {
                    Ok(Pattern::Any(binders[0]))
                } else {
                    Ok(Pattern::Tuple(binders))
                }
            }
            Token::Ctor(name) => {
                self.bump();
                let name = Symbol::new(&name);
                let mut binders = Vec::new();
                if self.eat(&Token::LParen) {
                    loop {
                        match self.peek().clone() {
                            Token::Ident(s) => {
                                self.bump();
                                binders.push(Some(Symbol::new(&s)));
                            }
                            Token::Underscore => {
                                self.bump();
                                binders.push(None);
                            }
                            other => {
                                return Err(self.err(&format!(
                                    "constructor patterns bind variables only, found `{other}`"
                                )))
                            }
                        }
                        if !self.eat(&Token::Comma) {
                            break;
                        }
                    }
                    self.expect(&Token::RParen)?;
                } else {
                    // Single unparenthesized binder: `Some x`.
                    match self.peek().clone() {
                        Token::Ident(s) => {
                            self.bump();
                            binders.push(Some(Symbol::new(&s)));
                        }
                        Token::Underscore => {
                            self.bump();
                            binders.push(None);
                        }
                        _ => {}
                    }
                }
                Ok(Pattern::Ctor { name, binders })
            }
            other => Err(self.err(&format!("expected pattern, found `{other}`"))),
        }
    }

    fn or_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.and_expr()?;
        while self.eat(&Token::BarBar) {
            let rhs = self.and_expr()?;
            lhs = Expr::Prim(PrimOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat(&Token::AmpAmp) {
            let rhs = self.cmp_expr()?;
            lhs = Expr::Prim(PrimOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Expr, ParseError> {
        let lhs = self.cons_expr()?;
        let op = match self.peek() {
            Token::Eq => Some(PrimOp::Eq),
            Token::Ne => Some(PrimOp::Ne),
            Token::Lt => Some(PrimOp::Lt),
            Token::Le => Some(PrimOp::Le),
            Token::Gt => Some(PrimOp::Gt),
            Token::Ge => Some(PrimOp::Ge),
            _ => None,
        };
        match op {
            Some(op) => {
                self.bump();
                let rhs = self.cons_expr()?;
                Ok(Expr::Prim(op, Box::new(lhs), Box::new(rhs)))
            }
            None => Ok(lhs),
        }
    }

    fn cons_expr(&mut self) -> Result<Expr, ParseError> {
        // `::` is right-associative; fold iteratively so long chains do
        // not consume stack proportional to their length.
        let mut parts = vec![self.add_expr()?];
        while self.eat(&Token::ColonColon) {
            parts.push(self.add_expr()?);
        }
        let mut acc = parts.pop().expect("nonempty");
        while let Some(e) = parts.pop() {
            acc = Expr::Ctor(Symbol::new("Cons"), vec![e, acc]);
        }
        Ok(acc)
    }

    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.mul_expr()?;
        loop {
            if self.eat(&Token::Plus) {
                let rhs = self.mul_expr()?;
                lhs = Expr::Prim(PrimOp::Add, Box::new(lhs), Box::new(rhs));
            } else if self.eat(&Token::Minus) {
                let rhs = self.mul_expr()?;
                lhs = Expr::Prim(PrimOp::Sub, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.unary_expr()?;
        loop {
            if self.eat(&Token::Star) {
                let rhs = self.unary_expr()?;
                lhs = Expr::Prim(PrimOp::Mul, Box::new(lhs), Box::new(rhs));
            } else if self.eat(&Token::Slash) {
                let rhs = self.unary_expr()?;
                lhs = Expr::Prim(PrimOp::Div, Box::new(lhs), Box::new(rhs));
            } else if self.eat(&Token::Mod) {
                let rhs = self.unary_expr()?;
                lhs = Expr::Prim(PrimOp::Mod, Box::new(lhs), Box::new(rhs));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn unary_expr(&mut self) -> Result<Expr, ParseError> {
        self.descend()?;
        let r = self.unary_expr_inner();
        self.depth -= 1;
        r
    }

    fn unary_expr_inner(&mut self) -> Result<Expr, ParseError> {
        if self.eat(&Token::Minus) {
            let e = self.unary_expr()?;
            return Ok(match e {
                Expr::Int(v) => Expr::Int(-v),
                other => Expr::Neg(Box::new(other)),
            });
        }
        if self.eat(&Token::Not) {
            let e = self.unary_expr()?;
            return Ok(Expr::Not(Box::new(e)));
        }
        self.app_expr()
    }

    fn app_expr(&mut self) -> Result<Expr, ParseError> {
        // `assert` binds like a function over a single atom.
        if *self.peek() == Token::Assert {
            let line = self.line();
            self.bump();
            let arg = self.atom()?;
            return Ok(Expr::Assert(Box::new(arg), line));
        }
        // Constructor application: Ctor takes at most one atom.
        if let Token::Ctor(name) = self.peek().clone() {
            self.bump();
            let name = Symbol::new(&name);
            if self.starts_atom() {
                let arg = self.atom()?;
                return Ok(Expr::Ctor(name, vec![arg]));
            }
            return Ok(Expr::Ctor(name, vec![]));
        }
        let mut head = self.atom()?;
        while self.starts_atom() {
            // Constructors as *arguments* are atoms too.
            let arg = if let Token::Ctor(name) = self.peek().clone() {
                self.bump();
                Expr::Ctor(Symbol::new(&name), vec![])
            } else {
                self.atom()?
            };
            head = Expr::App(Box::new(head), Box::new(arg));
        }
        Ok(head)
    }

    fn starts_atom(&self) -> bool {
        matches!(
            self.peek(),
            Token::Int(_)
                | Token::Ident(_)
                | Token::Ctor(_)
                | Token::True
                | Token::False
                | Token::LParen
                | Token::LBracket
        )
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        match self.peek().clone() {
            Token::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Token::True => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Token::False => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Token::Ident(s) => {
                self.bump();
                Ok(Expr::Var(Symbol::new(&s)))
            }
            Token::Ctor(s) => {
                self.bump();
                Ok(Expr::Ctor(Symbol::new(&s), vec![]))
            }
            Token::LParen => {
                self.bump();
                if self.eat(&Token::RParen) {
                    return Ok(Expr::Unit);
                }
                let mut es = vec![self.expr()?];
                // Optional type ascription, ignored after parsing.
                if self.eat(&Token::Colon) {
                    let _ = self.type_expr()?;
                }
                while self.eat(&Token::Comma) {
                    es.push(self.expr_noseq()?);
                }
                self.expect(&Token::RParen)?;
                if es.len() == 1 {
                    Ok(es.pop().expect("len checked"))
                } else {
                    Ok(Expr::Tuple(es))
                }
            }
            Token::LBracket => {
                self.bump();
                let mut es = Vec::new();
                if !self.eat(&Token::RBracket) {
                    loop {
                        es.push(self.expr_noseq()?);
                        if !self.eat(&Token::Semi) {
                            break;
                        }
                    }
                    self.expect(&Token::RBracket)?;
                }
                // Desugar to Cons/Nil.
                let mut acc = Expr::Ctor(Symbol::new("Nil"), vec![]);
                for e in es.into_iter().rev() {
                    acc = Expr::Ctor(Symbol::new("Cons"), vec![e, acc]);
                }
                Ok(acc)
            }
            other => Err(self.err(&format!("expected expression, found `{other}`"))),
        }
    }

    // ---------------- types ----------------

    fn type_expr(&mut self) -> Result<TypeExpr, ParseError> {
        self.descend()?;
        // Arrows are right-associative; fold iteratively.
        let r = (|| {
            let mut parts = vec![self.type_prod()?];
            while self.eat(&Token::Arrow) {
                parts.push(self.type_prod()?);
            }
            let mut acc = parts.pop().expect("nonempty");
            while let Some(t) = parts.pop() {
                acc = TypeExpr::Arrow(Box::new(t), Box::new(acc));
            }
            Ok(acc)
        })();
        self.depth -= 1;
        r
    }

    fn type_prod(&mut self) -> Result<TypeExpr, ParseError> {
        let mut parts = vec![self.type_app()?];
        while self.eat(&Token::Star) {
            parts.push(self.type_app()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("len checked"))
        } else {
            Ok(TypeExpr::Tuple(parts))
        }
    }

    fn type_app(&mut self) -> Result<TypeExpr, ParseError> {
        let mut head = self.type_atom()?;
        // Postfix application: `int list`, `('a, 'b) t`, `'a list list`.
        while let Token::Ident(name) = self.peek().clone() {
            self.bump();
            let args = match head {
                TypeExpr::App(ref n, ref a) if n == "__group" => a.clone(),
                other => vec![other],
            };
            head = TypeExpr::App(name, args);
        }
        if let TypeExpr::App(ref n, _) = head {
            if n == "__group" {
                return Err(self.err("parenthesized type group must be applied"));
            }
        }
        Ok(head)
    }

    fn type_atom(&mut self) -> Result<TypeExpr, ParseError> {
        match self.peek().clone() {
            Token::Ident(s) => {
                self.bump();
                match s.as_str() {
                    "int" => Ok(TypeExpr::Int),
                    "bool" => Ok(TypeExpr::Bool),
                    "unit" => Ok(TypeExpr::Unit),
                    other => Ok(TypeExpr::App(other.to_owned(), vec![])),
                }
            }
            Token::TyVar(v) => {
                self.bump();
                Ok(TypeExpr::Var(v))
            }
            Token::LParen => {
                self.bump();
                let mut parts = vec![self.type_expr()?];
                while self.eat(&Token::Comma) {
                    parts.push(self.type_expr()?);
                }
                self.expect(&Token::RParen)?;
                if parts.len() == 1 {
                    Ok(parts.pop().expect("len checked"))
                } else {
                    // Multi-argument group must be followed by a tycon.
                    Ok(TypeExpr::App("__group".to_owned(), parts))
                }
            }
            other => Err(self.err(&format!("expected type, found `{other}`"))),
        }
    }
}

/// A function parameter as parsed: a variable or a tuple of binders.
enum Param {
    Var(Symbol),
    Tuple(Vec<Option<Symbol>>),
}

fn lam_param(p: Param, body: Expr) -> Expr {
    match p {
        Param::Var(x) => Expr::Lam(x, Box::new(body)),
        Param::Tuple(binders) => {
            let fresh = Symbol::fresh("tup");
            Expr::Lam(
                fresh,
                Box::new(Expr::LetTuple(
                    binders,
                    Box::new(Expr::Var(fresh)),
                    Box::new(body),
                )),
            )
        }
    }
}

fn pattern_binder(p: Pattern, parser: &Parser) -> Result<Option<Symbol>, ParseError> {
    match p {
        Pattern::Any(b) => Ok(b),
        _ => Err(parser.err(
            "nested constructor patterns are not supported; match again on the bound variable",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_range_from_fig1() {
        let src = r#"
let rec range i j =
  if i > j then []
  else
    let is = range (i + 1) j in
    i :: is
"#;
        let p = parse_program(src).unwrap();
        assert_eq!(p.lets.len(), 1);
        assert!(p.lets[0].recursive);
        assert_eq!(p.lets[0].binds[0].name, Symbol::new("range"));
        // Two parameters = two nested lambdas.
        let Expr::Lam(_, inner) = &p.lets[0].binds[0].body else {
            panic!("expected lambda");
        };
        assert!(matches!(**inner, Expr::Lam(_, _)));
    }

    #[test]
    fn parses_insert_from_fig2() {
        let src = r#"
let rec insert x vs =
  match vs with
  | [] -> [x]
  | y :: ys -> if x < y then x :: y :: ys else y :: insert x ys
"#;
        let p = parse_program(src).unwrap();
        let body = &p.lets[0].binds[0].body;
        // Drill to the match.
        let Expr::Lam(_, b1) = body else { panic!() };
        let Expr::Lam(_, b2) = &**b1 else { panic!() };
        let Expr::Match(_, arms) = &**b2 else {
            panic!()
        };
        assert_eq!(arms.len(), 2);
        assert!(matches!(
            &arms[0].pattern,
            Pattern::Ctor { name, binders } if *name == Symbol::new("Nil") && binders.is_empty()
        ));
        assert!(matches!(
            &arms[1].pattern,
            Pattern::Ctor { name, binders } if *name == Symbol::new("Cons") && binders.len() == 2
        ));
    }

    #[test]
    fn parses_datatype_decl() {
        let src = "type ('a, 'b) t = E | N of 'a * 'b * ('a, 'b) t * ('a, 'b) t * int";
        let p = parse_program(src).unwrap();
        let d = &p.datatypes[0];
        assert_eq!(d.params, vec!["a", "b"]);
        assert_eq!(d.ctors.len(), 2);
        assert_eq!(d.ctors[1].fields.len(), 5);
        assert!(
            matches!(&d.ctors[1].fields[2], TypeExpr::App(n, args) if n == "t" && args.len() == 2)
        );
    }

    #[test]
    fn parses_tuples_and_let_tuple() {
        let e = parse_expr_str("let (a, b) = (1, 2) in a + b").unwrap();
        assert!(matches!(e, Expr::LetTuple(ref bs, _, _) if bs.len() == 2));
    }

    #[test]
    fn parses_assert_and_seq() {
        let e = parse_expr_str("assert (x <= y); f x").unwrap();
        let Expr::Let(_, first, _) = e else { panic!() };
        assert!(matches!(*first, Expr::Assert(_, _)));
    }

    #[test]
    fn parses_operator_precedence() {
        let e = parse_expr_str("1 + 2 * 3 < 10 && true").unwrap();
        let Expr::Prim(PrimOp::And, l, _) = e else {
            panic!()
        };
        let Expr::Prim(PrimOp::Lt, a, _) = *l else {
            panic!()
        };
        let Expr::Prim(PrimOp::Add, _, m) = *a else {
            panic!()
        };
        assert!(matches!(*m, Expr::Prim(PrimOp::Mul, _, _)));
    }

    #[test]
    fn parses_list_literals() {
        let e = parse_expr_str("[1; 2; 3]").unwrap();
        let Expr::Ctor(c, args) = e else { panic!() };
        assert_eq!(c, Symbol::new("Cons"));
        assert_eq!(args.len(), 2);
    }

    #[test]
    fn parses_ctor_application() {
        let e = parse_expr_str("N (k, d, l, r, h)").unwrap();
        let Expr::Ctor(c, args) = e else { panic!() };
        assert_eq!(c, Symbol::new("N"));
        // Parsed as a single tuple argument; arity resolution spreads it.
        assert_eq!(args.len(), 1);
        assert!(matches!(&args[0], Expr::Tuple(es) if es.len() == 5));
    }

    #[test]
    fn parses_match_with_tuple_pattern() {
        let e = parse_expr_str("match p with (a, b) -> a + b").unwrap();
        let Expr::Match(_, arms) = e else { panic!() };
        assert!(matches!(&arms[0].pattern, Pattern::Tuple(bs) if bs.len() == 2));
    }

    #[test]
    fn parses_fun_with_tuple_param() {
        let e = parse_expr_str("fun (a, b) -> a + b").unwrap();
        let Expr::Lam(_, body) = e else { panic!() };
        assert!(matches!(*body, Expr::LetTuple(_, _, _)));
    }

    #[test]
    fn parses_mutual_recursion_with_and() {
        let src = "let rec f x = g x and g y = f y";
        let p = parse_program(src).unwrap();
        assert_eq!(p.lets.len(), 1);
        assert!(p.lets[0].recursive);
        assert_eq!(p.lets[0].binds.len(), 2);
    }

    #[test]
    fn rejects_nested_ctor_patterns() {
        assert!(parse_expr_str("match l with x :: (y :: z) -> x | [] -> 0").is_err());
    }

    #[test]
    fn parses_type_expressions() {
        let t = parse_type_str("int list -> ('a, 'b) t * bool").unwrap();
        let TypeExpr::Arrow(l, r) = t else { panic!() };
        assert!(matches!(*l, TypeExpr::App(ref n, _) if n == "list"));
        assert!(matches!(*r, TypeExpr::Tuple(ref parts) if parts.len() == 2));
    }

    #[test]
    fn parses_unit_and_ascription() {
        assert_eq!(parse_expr_str("()").unwrap(), Expr::Unit);
        assert!(parse_expr_str("(x : int)").is_ok());
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep = format!("{}1{}", "(".repeat(100_000), ")".repeat(100_000));
        let e = parse_expr_str(&deep).unwrap_err();
        assert!(e.msg.contains("depth limit"), "{e}");

        let nots = format!("{}true", "not ".repeat(100_000));
        assert!(parse_expr_str(&nots).is_err());

        let ty = format!("{}int{}", "(".repeat(100_000), ")".repeat(100_000));
        assert!(parse_type_str(&ty).is_err());

        // Moderate nesting must still parse.
        let ok = format!("{}1{}", "(".repeat(60), ")".repeat(60));
        assert!(parse_expr_str(&ok).is_ok());
    }

    #[test]
    fn long_flat_programs_are_not_depth_limited() {
        // Sequences, cons chains, and arrow types fold iteratively;
        // only *nesting* is bounded.
        let seq = vec!["assert (0 <= 1)"; 5_000].join("; ");
        assert!(parse_expr_str(&seq).is_ok());

        let cons = format!("{}[]", "1 :: ".repeat(5_000));
        assert!(parse_expr_str(&cons).is_ok());

        let arrows = format!("{}int", "int -> ".repeat(5_000));
        assert!(parse_type_str(&arrows).is_ok());
    }

    #[test]
    fn integer_overflow_is_a_typed_error_with_line() {
        let e = parse_expr_str("\n99999999999999999999999999").unwrap_err();
        assert!(e.msg.contains("overflow"), "{e}");
        assert_eq!(e.line, 2);
    }

    #[test]
    fn truncated_inputs_are_typed_errors() {
        for src in [
            "let x = ",
            "let rec f x =",
            "if x then",
            "match xs with",
            "fun",
            "let (a, b",
            "type t =",
        ] {
            assert!(parse_program(src).is_err(), "{src:?} should fail to parse");
        }
    }
}
