//! A small concrete syntax for predicates and terms.
//!
//! Used by the `.quals` qualifier files and `.mlq` specification files of
//! the driver, and convenient in tests. The grammar mirrors the paper's
//! notation with ASCII spellings:
//!
//! ```text
//! pred  ::= imp ('<=>' imp)*
//! imp   ::= or ('=>' or)*            (right associative)
//! or    ::= and ('||' and)*
//! and   ::= unit ('&&' unit)*
//! unit  ::= 'not' unit | atom
//! atom  ::= expr (relop expr)? | 'true' | 'false'
//! relop ::= '=' | '!=' | '<' | '<=' | '>' | '>=' | 'in' | 'subset'
//! expr  ::= term (('+'|'-') term)*
//! term  ::= factor (('*'|'/'|'mod') factor)*
//! factor::= int | ident | ident '(' expr,* ')' | '(' pred ')'
//!         | '-' factor | 'if' pred 'then' expr 'else' expr
//! ```
//!
//! The identifiers `VV` (the value variable ν), `_` / `_0`, `_1`, ...
//! (placeholders ★i), `empty`, `single`, `union`, `Sel`, `Upd`, `mem` are
//! interpreted specially. A parenthesized predicate that is just a term
//! coerces back to a term, so `(x + 1) * 2` parses as expected.

use crate::{Binop, Expr, Pred, Rel, Symbol};
use std::fmt;

/// An error produced while parsing predicate syntax.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParsePredError {
    /// Explanation of the failure.
    pub msg: String,
    /// Byte offset in the input where the failure occurred.
    pub at: usize,
}

impl fmt::Display for ParsePredError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParsePredError {}

/// Parses a predicate from its concrete syntax.
///
/// # Errors
///
/// Returns [`ParsePredError`] on malformed input or trailing tokens.
///
/// # Examples
///
/// ```
/// use dsolve_logic::parse_pred;
/// let p = parse_pred("0 < VV && _ <= VV").unwrap();
/// assert_eq!(p.to_string(), "((0 < VV) && (*0 <= VV))");
/// ```
pub fn parse_pred(input: &str) -> Result<Pred, ParsePredError> {
    let mut p = Parser::new(input);
    let pred = p.pred()?;
    p.skip_ws();
    if p.pos < p.src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(pred)
}

/// Parses a term from its concrete syntax.
///
/// # Errors
///
/// Returns [`ParsePredError`] on malformed input, trailing tokens, or if
/// the input is a relational predicate rather than a term.
pub fn parse_expr(input: &str) -> Result<Expr, ParsePredError> {
    let mut p = Parser::new(input);
    let e = p.expr()?;
    p.skip_ws();
    if p.pos < p.src.len() {
        return Err(p.err("trailing input"));
    }
    Ok(e)
}

/// Maximum grammar recursion depth. A hostile input of the shape
/// `((((…))))` or `not not not …` would otherwise overflow the stack —
/// an abort that no `catch_unwind` can isolate — so the parser refuses
/// with a typed error instead.
const MAX_DEPTH: usize = 256;

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
    next_star: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Parser<'a> {
        Parser {
            src: src.as_bytes(),
            pos: 0,
            next_star: 0,
            depth: 0,
        }
    }

    fn descend(&mut self) -> Result<(), ParsePredError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            Err(self.err("expression nesting exceeds the depth limit (256)"))
        } else {
            Ok(())
        }
    }

    fn err(&self, msg: &str) -> ParsePredError {
        ParsePredError {
            msg: msg.to_owned(),
            at: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.src.len() && self.src[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.src.get(self.pos).copied()
    }

    fn eat(&mut self, tok: &str) -> bool {
        self.skip_ws();
        let bytes = tok.as_bytes();
        if self.src[self.pos..].starts_with(bytes) {
            // Avoid eating a prefix of a longer operator or identifier.
            let next = self.src.get(self.pos + bytes.len()).copied();
            let tok_is_word = bytes[0].is_ascii_alphabetic() || bytes[0] == b'_';
            if tok_is_word {
                if let Some(c) = next {
                    if c.is_ascii_alphanumeric() || c == b'_' || c == b'\'' || c == b'#' {
                        return false;
                    }
                }
            } else if matches!(tok, "<" | ">" | "=" | "/") {
                // Don't let '<' match '<=' etc.
                if let Some(c) = next {
                    if c == b'=' || (tok == "=" && c == b'>') || (tok == "<" && c == b'>') {
                        return false;
                    }
                }
            }
            self.pos += bytes.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, tok: &str) -> Result<(), ParsePredError> {
        if self.eat(tok) {
            Ok(())
        } else {
            Err(self.err(&format!("expected `{tok}`")))
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        let mut p = self.pos;
        if p < self.src.len() && (self.src[p].is_ascii_alphabetic() || self.src[p] == b'_') {
            p += 1;
            while p < self.src.len()
                && (self.src[p].is_ascii_alphanumeric()
                    || self.src[p] == b'_'
                    || self.src[p] == b'\''
                    || self.src[p] == b'#')
            {
                p += 1;
            }
            self.pos = p;
            Some(String::from_utf8_lossy(&self.src[start..p]).into_owned())
        } else {
            None
        }
    }

    fn pred(&mut self) -> Result<Pred, ParsePredError> {
        self.descend()?;
        let r = self.pred_inner();
        self.depth -= 1;
        r
    }

    fn pred_inner(&mut self) -> Result<Pred, ParsePredError> {
        let mut lhs = self.imp()?;
        while self.eat("<=>") {
            let rhs = self.imp()?;
            lhs = Pred::iff(lhs, rhs);
        }
        Ok(lhs)
    }

    fn imp(&mut self) -> Result<Pred, ParsePredError> {
        let lhs = self.or()?;
        if self.eat("=>") {
            let rhs = self.imp()?;
            return Ok(Pred::Imp(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn or(&mut self) -> Result<Pred, ParsePredError> {
        let mut parts = vec![self.and()?];
        while self.eat("||") {
            parts.push(self.and()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("len checked"))
        } else {
            Ok(Pred::Or(parts))
        }
    }

    fn and(&mut self) -> Result<Pred, ParsePredError> {
        let mut parts = vec![self.unit()?];
        while self.eat("&&") {
            parts.push(self.unit()?);
        }
        if parts.len() == 1 {
            Ok(parts.pop().expect("len checked"))
        } else {
            Ok(Pred::And(parts))
        }
    }

    fn unit(&mut self) -> Result<Pred, ParsePredError> {
        self.descend()?;
        let r = if self.eat("not") {
            self.unit().map(Pred::not)
        } else {
            self.atom()
        };
        self.depth -= 1;
        r
    }

    fn atom(&mut self) -> Result<Pred, ParsePredError> {
        // A leading paren may open either a nested predicate or a
        // parenthesized term; parse a predicate and continue as a term
        // only when it turns out to be one.
        if self.peek() == Some(b'(') {
            self.pos += 1;
            let inner = self.pred()?;
            self.expect(")")?;
            let lhs = match inner {
                Pred::Term(e) => e,
                Pred::True => Expr::Bool(true),
                Pred::False => Expr::Bool(false),
                other => return Ok(other),
            };
            let lhs = self.term_continue(lhs)?;
            let lhs = self.expr_continue(lhs)?;
            return self.atom_continue(lhs);
        }
        let lhs = self.expr()?;
        self.atom_continue(lhs)
    }

    fn atom_continue(&mut self, lhs: Expr) -> Result<Pred, ParsePredError> {
        let rel = if self.eat("<=") {
            Some(Rel::Le)
        } else if self.eat(">=") {
            Some(Rel::Ge)
        } else if self.eat("!=") || self.eat("<>") {
            Some(Rel::Ne)
        } else if self.eat("=") {
            Some(Rel::Eq)
        } else if self.eat("<") {
            Some(Rel::Lt)
        } else if self.eat(">") {
            Some(Rel::Gt)
        } else if self.eat("in") {
            Some(Rel::In)
        } else if self.eat("subset") {
            Some(Rel::Sub)
        } else {
            None
        };
        match rel {
            Some(r) => {
                let rhs = self.expr()?;
                Ok(Pred::Atom(r, lhs, rhs))
            }
            None => match lhs {
                Expr::Bool(true) => Ok(Pred::True),
                Expr::Bool(false) => Ok(Pred::False),
                e => Ok(Pred::Term(e)),
            },
        }
    }

    fn expr(&mut self) -> Result<Expr, ParsePredError> {
        let lhs = self.term()?;
        self.expr_continue(lhs)
    }

    fn expr_continue(&mut self, mut lhs: Expr) -> Result<Expr, ParsePredError> {
        loop {
            if self.eat("+") {
                lhs = Expr::Binop(Binop::Add, Box::new(lhs), Box::new(self.term()?));
            } else if self.eat("-") {
                lhs = Expr::Binop(Binop::Sub, Box::new(lhs), Box::new(self.term()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn term(&mut self) -> Result<Expr, ParsePredError> {
        let lhs = self.factor()?;
        self.term_continue(lhs)
    }

    fn term_continue(&mut self, mut lhs: Expr) -> Result<Expr, ParsePredError> {
        loop {
            if self.eat("*") {
                lhs = Expr::Binop(Binop::Mul, Box::new(lhs), Box::new(self.factor()?));
            } else if self.eat("/") {
                lhs = Expr::Binop(Binop::Div, Box::new(lhs), Box::new(self.factor()?));
            } else if self.eat("mod") {
                lhs = Expr::Binop(Binop::Mod, Box::new(lhs), Box::new(self.factor()?));
            } else {
                return Ok(lhs);
            }
        }
    }

    fn factor(&mut self) -> Result<Expr, ParsePredError> {
        self.descend()?;
        let r = self.factor_inner();
        self.depth -= 1;
        r
    }

    fn factor_inner(&mut self) -> Result<Expr, ParsePredError> {
        self.skip_ws();
        match self.peek() {
            Some(b'-') => {
                self.pos += 1;
                // Fold negated literals so `-1` round-trips as a literal.
                match self.factor()? {
                    Expr::Int(v) => Ok(Expr::Int(-v)),
                    other => Ok(Expr::Neg(Box::new(other))),
                }
            }
            Some(b'(') => {
                self.pos += 1;
                // Parse a full predicate; coerce back to a term when it's
                // just a term.
                let p = self.pred()?;
                self.expect(")")?;
                match p {
                    Pred::Term(e) => Ok(e),
                    Pred::True => Ok(Expr::Bool(true)),
                    Pred::False => Ok(Expr::Bool(false)),
                    other => Err(ParsePredError {
                        msg: format!("predicate `{other}` used where a term is required"),
                        at: self.pos,
                    }),
                }
            }
            Some(c) if c.is_ascii_digit() => {
                let start = self.pos;
                while self.pos < self.src.len() && self.src[self.pos].is_ascii_digit() {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.src[start..self.pos]).expect("digits");
                let v: i64 = text.parse().map_err(|_| self.err("integer overflow"))?;
                Ok(Expr::Int(v))
            }
            Some(_) => {
                if self.eat("if") {
                    let c = self.pred()?;
                    self.expect("then")?;
                    let t = self.expr()?;
                    self.expect("else")?;
                    let e = self.expr()?;
                    return Ok(Expr::Ite(Box::new(c), Box::new(t), Box::new(e)));
                }
                let Some(id) = self.ident() else {
                    return Err(self.err("expected a term"));
                };
                match id.as_str() {
                    "true" => return Ok(Expr::Bool(true)),
                    "false" => return Ok(Expr::Bool(false)),
                    "empty" => return Ok(Expr::SetEmpty),
                    "VV" => return Ok(Expr::nu()),
                    // Each bare `_` is an independent placeholder.
                    "_" => {
                        let i = self.next_star;
                        self.next_star += 1;
                        return Ok(Expr::Var(Symbol::star(i)));
                    }
                    _ => {}
                }
                if let Some(rest) = id.strip_prefix('_') {
                    if let Ok(i) = rest.parse::<usize>() {
                        return Ok(Expr::Var(Symbol::star(i)));
                    }
                }
                if self.peek() == Some(b'(') {
                    self.pos += 1;
                    let mut args = Vec::new();
                    if self.peek() != Some(b')') {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(",") {
                                break;
                            }
                        }
                    }
                    self.expect(")")?;
                    return self.builtin_app(&id, args);
                }
                Ok(Expr::Var(Symbol::new(&id)))
            }
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn builtin_app(&self, id: &str, mut args: Vec<Expr>) -> Result<Expr, ParsePredError> {
        let arity = |n: usize, args: &[Expr]| -> Result<(), ParsePredError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(ParsePredError {
                    msg: format!("`{id}` expects {n} argument(s), got {}", args.len()),
                    at: self.pos,
                })
            }
        };
        match id {
            "single" => {
                arity(1, &args)?;
                Ok(Expr::single(args.pop().expect("arity checked")))
            }
            "union" => {
                arity(2, &args)?;
                let b = args.pop().expect("arity checked");
                let a = args.pop().expect("arity checked");
                Ok(Expr::union(a, b))
            }
            "Sel" | "sel" => {
                arity(2, &args)?;
                let i = args.pop().expect("arity checked");
                let m = args.pop().expect("arity checked");
                Ok(Expr::sel(m, i))
            }
            "Upd" | "upd" => {
                arity(3, &args)?;
                let v = args.pop().expect("arity checked");
                let i = args.pop().expect("arity checked");
                let m = args.pop().expect("arity checked");
                Ok(Expr::upd(m, i, v))
            }
            _ => Ok(Expr::App(Symbol::new(id), args)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_qualifiers() {
        assert_eq!(parse_pred("0 < VV").unwrap().to_string(), "(0 < VV)");
        assert_eq!(parse_pred("_ <= VV").unwrap().to_string(), "(*0 <= VV)");
        assert_eq!(
            parse_pred("_0 <= VV && VV < _1").unwrap().to_string(),
            "((*0 <= VV) && (VV < *1))"
        );
    }

    #[test]
    fn parses_arith_with_precedence() {
        let p = parse_pred("x + 2 * y <= z").unwrap();
        assert_eq!(p.to_string(), "((x + (2 * y)) <= z)");
    }

    #[test]
    fn parses_measures_and_sets() {
        let p = parse_pred("elts(VV) = union(single(x), elts(xs))").unwrap();
        assert_eq!(p.to_string(), "(elts(VV) = union(single(x), elts(xs)))");
        let q = parse_pred("x in elts(VV)").unwrap();
        assert_eq!(q.to_string(), "(x in elts(VV))");
    }

    #[test]
    fn parses_sel_upd() {
        let p = parse_pred("Sel(m, i) = 0 || VV = Upd(m, k, v)").unwrap();
        assert_eq!(p.to_string(), "((Sel(m, i) = 0) || (VV = Upd(m, k, v)))");
    }

    #[test]
    fn parses_implication_right_assoc() {
        let p = parse_pred("a = 1 => b = 2 => c = 3").unwrap();
        assert_eq!(p.to_string(), "((a = 1) => ((b = 2) => (c = 3)))");
    }

    #[test]
    fn parses_ite_terms() {
        let e = parse_expr("if ht_l < ht_r then 1 + ht_r else 1 + ht_l").unwrap();
        assert!(matches!(e, Expr::Ite(_, _, _)));
    }

    #[test]
    fn parses_not_and_parens() {
        let p = parse_pred("not (x = y) && (z < 1 || true)").unwrap();
        assert_eq!(p.to_string(), "((x != y) && ((z < 1) || true))");
    }

    #[test]
    fn paren_term_coercion() {
        let p = parse_pred("(x + 1) * 2 = y").unwrap();
        assert_eq!(p.to_string(), "(((x + 1) * 2) = y)");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_pred("x = y zzz qq").is_err());
        assert!(parse_pred("x +").is_err());
        assert!(parse_expr("x < y").is_err());
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        let deep = format!("{}x{}", "(".repeat(100_000), ")".repeat(100_000));
        let e = parse_pred(&deep).unwrap_err();
        assert!(e.msg.contains("depth limit"), "{e}");
        let nots = format!("{} x = 1", "not ".repeat(100_000));
        assert!(parse_pred(&nots).is_err());
        // Reasonable nesting still parses.
        let ok = format!("{}x{}", "(".repeat(60), ")".repeat(60));
        assert!(parse_pred(&ok).is_ok());
    }

    #[test]
    fn integer_overflow_is_a_typed_error() {
        let e = parse_pred("x = 99999999999999999999999999").unwrap_err();
        assert!(e.msg.contains("overflow"), "{e}");
        assert!(e.at > 0);
    }

    #[test]
    fn boolean_terms() {
        let p = parse_pred("flag && ok(x)").unwrap();
        assert_eq!(p.to_string(), "(flag && ok(x))");
    }
}
