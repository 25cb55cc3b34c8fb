//! The `.mlq` specification format.
//!
//! A specification file contains, in any order:
//!
//! * **measures** (§4.1):
//!
//!   ```text
//!   measure len : list -> int =
//!   | Nil -> 0
//!   | Cons (x, xs) -> 1 + len(xs)
//!   ```
//!
//! * **named recursive refinements** (ρ-matrices, §4):
//!
//!   ```text
//!   rho Sorted on list =
//!   | Cons (h, t) -> t : [ Cons (h2, t2) -> { h2 : h <= VV } ]
//!   ```
//!
//!   Each constructor clause lists items: `field : { pred }` is a *top
//!   matrix* entry for that field (earlier binders may appear and are
//!   re-interpreted at every unfolding level, which is how e.g. the AVL
//!   balance invariant propagates), and `field : [ clauses ]` gives the
//!   *inner matrix* at a recursive field (outer binders refer to the
//!   enclosing product).
//!
//! * **type specifications**:
//!
//!   ```text
//!   val insertsort : xs : 'a list -> {VV : 'a list @Sorted | elts(VV) = elts(xs)}
//!   ```
//!
//! * **qualifiers** (also the whole content of `.quals` files):
//!
//!   ```text
//!   qualif Ub : _ <= VV
//!   ```

use dsolve_liquid::{
    field_name, up_field_name, witness_symbol, DataRType, Measure, MeasureCase, RScheme, RType,
    RVarDecl, Refinement, Rho, Spec,
};
use dsolve_logic::{Pred, Qualifier, Sort, Subst, Symbol};
use dsolve_nanoml::{DataEnv, MlType};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// A parsed `.mlq` file.
#[derive(Default)]
pub struct SpecFile {
    /// Measure definitions.
    pub measures: Vec<Measure>,
    /// Named ρ definitions, usable as `@Name` in `val` types.
    pub rhos: HashMap<String, RhoDef>,
    /// Type specifications.
    pub specs: Vec<Spec>,
    /// Qualifiers declared inline (scraped into `Q`).
    pub qualifiers: Vec<Qualifier>,
}

/// A named recursive refinement.
#[derive(Clone, Debug)]
pub struct RhoDef {
    /// The datatype it refines.
    pub datatype: Symbol,
    /// Top-matrix entries.
    pub rho: Rho,
    /// Inner matrices per recursive position.
    pub inner: BTreeMap<(usize, usize), Rho>,
}

/// A specification parse error.
#[derive(Clone, Debug)]
pub struct SpecError {
    /// Explanation.
    pub msg: String,
    /// Line number (1-based).
    pub line: u32,
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "spec error on line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for SpecError {}

/// Parses a `.quals` file: `qualif Name : pred` lines (blank lines and
/// `--` comments ignored).
pub fn parse_quals(src: &str) -> Result<Vec<Qualifier>, SpecError> {
    let mut out = Vec::new();
    for (i, line) in src.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        let rest = line.strip_prefix("qualif").ok_or_else(|| SpecError {
            msg: format!("expected `qualif Name : pred`, found `{line}`"),
            line: i as u32 + 1,
        })?;
        parse_qualif(rest, i as u32 + 1, &mut out)?;
    }
    Ok(out)
}

/// Parses `Name : pred`, the rest of a `qualif` line numbered `line`,
/// onto `out`. In qualifiers, `KEY` denotes the key a map value is
/// stored under. It appears as the builtin schemes' witness at
/// instantiation sites and as the map type's canonical key binder in
/// structural templates — emit both variants.
fn parse_qualif(rest: &str, line: u32, out: &mut Vec<Qualifier>) -> Result<(), SpecError> {
    let (name, pred) = rest.split_once(':').ok_or_else(|| SpecError {
        msg: "missing `:` in qualifier".into(),
        line,
    })?;
    let p = dsolve_logic::parse_pred(pred.trim()).map_err(|e| SpecError {
        msg: e.to_string(),
        line,
    })?;
    let name = name.trim();
    if p.free_vars().contains(&Symbol::new("KEY")) {
        let wit = p.subst(Symbol::new("KEY"), &dsolve_logic::Expr::Var(map_witness()));
        let canon = p.subst(
            Symbol::new("KEY"),
            &dsolve_logic::Expr::Var(dsolve_liquid::map_key_binder()),
        );
        out.push(Qualifier::new(format!("{name}#wit"), wit));
        out.push(Qualifier::new(format!("{name}#key"), canon));
    } else {
        out.push(Qualifier::new(name, p));
    }
    Ok(())
}

/// Parses an `.mlq` specification file against the program's datatypes.
pub fn parse_mlq(src: &str, data: &DataEnv) -> Result<SpecFile, SpecError> {
    let mut out = SpecFile::default();
    let mut parser = SpecParser {
        lines: src.lines().map(str::trim_end).collect(),
        ix: 0,
        data,
    };
    while let Some(line) = parser.peek_nonempty() {
        if line.starts_with("measure ") {
            let m = parser.measure()?;
            out.measures.push(m);
        } else if line.starts_with("rho ") {
            let (name, def) = parser.rho(&out.rhos)?;
            out.rhos.insert(name, def);
        } else if line.starts_with("val ") {
            let s = parser.val(&out.rhos)?;
            out.specs.push(s);
        } else if line.starts_with("qualif ") {
            let line_no = parser.ix as u32 + 1;
            let text = parser.next_line().expect("peeked");
            parse_qualif(&text["qualif".len()..], line_no, &mut out.qualifiers)?;
        } else {
            return Err(SpecError {
                msg: format!("expected `measure`, `rho`, `val`, or `qualif`, found `{line}`"),
                line: parser.ix as u32 + 1,
            });
        }
    }
    Ok(out)
}

struct SpecParser<'a> {
    lines: Vec<&'a str>,
    ix: usize,
    data: &'a DataEnv,
}

impl SpecParser<'_> {
    fn err(&self, msg: impl Into<String>) -> SpecError {
        SpecError {
            msg: msg.into(),
            line: self.ix as u32,
        }
    }

    fn peek_nonempty(&mut self) -> Option<&str> {
        while self.ix < self.lines.len() {
            let l = self.lines[self.ix].trim();
            if l.is_empty() || l.starts_with("--") {
                self.ix += 1;
            } else {
                return Some(self.lines[self.ix].trim());
            }
        }
        None
    }

    fn next_line(&mut self) -> Option<&str> {
        self.peek_nonempty()?;
        let l = self.lines[self.ix].trim();
        self.ix += 1;
        Some(l)
    }

    /// Collects a block: the current line's tail after `=` plus following
    /// lines up to the next top-level keyword.
    fn block(&mut self, first: &str) -> String {
        let mut out = String::from(first);
        while let Some(l) = self.peek_nonempty() {
            if l.starts_with("measure ")
                || l.starts_with("rho ")
                || l.starts_with("val ")
                || l.starts_with("qualif ")
            {
                break;
            }
            out.push(' ');
            out.push_str(l);
            self.ix += 1;
        }
        out
    }

    // measure name : tycon -> sort = | C (x, y) -> expr | ...
    fn measure(&mut self) -> Result<Measure, SpecError> {
        let line = self.next_line().expect("peeked").to_owned();
        let rest = &line["measure".len()..];
        let (head, eq_tail) = rest
            .split_once('=')
            .ok_or_else(|| self.err("missing `=`"))?;
        let (name, sig) = head
            .split_once(':')
            .ok_or_else(|| self.err("missing `:`"))?;
        let name = Symbol::new(name.trim());
        let (dom, cod) = sig
            .split_once("->")
            .ok_or_else(|| self.err("missing `->`"))?;
        // Domain: the datatype is the final word (e.g. `'a list`).
        let datatype = Symbol::new(
            dom.split_whitespace()
                .last()
                .ok_or_else(|| self.err("missing datatype"))?,
        );
        let sort = match cod.trim() {
            "int" => Sort::Int,
            "bool" => Sort::Bool,
            "set" => Sort::Set,
            other => return Err(self.err(format!("unknown measure sort `{other}`"))),
        };
        let body = self.block(eq_tail);
        let mut cases = HashMap::new();
        for clause in split_cases(&body)
            .into_iter()
            .map(str::trim)
            .filter(|s| !s.is_empty())
        {
            let (pat, expr) = clause
                .split_once("->")
                .ok_or_else(|| self.err("missing `->` in measure case"))?;
            let (ctor, binders) = parse_ctor_pattern(pat).map_err(|m| self.err(m))?;
            let e = dsolve_logic::parse_expr(expr.trim()).map_err(|e| self.err(e.to_string()))?;
            cases.insert(ctor, MeasureCase { binders, body: e });
        }
        Ok(Measure {
            name,
            datatype,
            sort,
            cases,
        })
    }

    // rho Name on tycon = | C (x, y) -> item, item | ...
    fn rho(&mut self, _defined: &HashMap<String, RhoDef>) -> Result<(String, RhoDef), SpecError> {
        let line = self.next_line().expect("peeked").to_owned();
        let rest = &line["rho".len()..];
        let (head, eq_tail) = rest
            .split_once('=')
            .ok_or_else(|| self.err("missing `=`"))?;
        let (name, on_ty) = head
            .split_once(" on ")
            .ok_or_else(|| self.err("missing `on`"))?;
        let name = name.trim().to_owned();
        let datatype = Symbol::new(on_ty.trim());
        let decl = self
            .data
            .decl(datatype)
            .ok_or_else(|| self.err(format!("unknown datatype `{datatype}`")))?
            .clone();
        let body = self.block(eq_tail);
        let mut rho = Rho::top();
        let mut inner: BTreeMap<(usize, usize), Rho> = BTreeMap::new();
        for clause in split_cases(&body) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (pat, items) = clause
                .split_once("->")
                .ok_or_else(|| self.err("missing `->` in rho clause"))?;
            let (ctor, binders) = parse_ctor_pattern(pat).map_err(|m| self.err(m))?;
            let cix = decl
                .ctor_names
                .iter()
                .position(|c| *c == ctor)
                .ok_or_else(|| self.err(format!("unknown constructor `{ctor}`")))?;
            if binders.len() != decl.ctor_fields[cix].len() {
                return Err(self.err(format!(
                    "constructor `{ctor}` has {} fields, clause binds {}",
                    decl.ctor_fields[cix].len(),
                    binders.len()
                )));
            }
            // Outer binder substitutions.
            let mut to_canon = Subst::new();
            let mut to_up = Subst::new();
            for (k, b) in binders.iter().enumerate() {
                to_canon =
                    to_canon.then(*b, dsolve_logic::Expr::Var(field_name(datatype, ctor, k)));
                to_up = to_up.then(
                    *b,
                    dsolve_logic::Expr::Var(up_field_name(datatype, ctor, k)),
                );
            }
            for item in split_top(items, ',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                let (fname, spec) = item
                    .split_once(':')
                    .ok_or_else(|| self.err("missing `:` in rho item"))?;
                let fname = fname.trim();
                let fix = binders
                    .iter()
                    .position(|b| b.as_str() == fname)
                    .ok_or_else(|| self.err(format!("unknown field binder `{fname}`")))?;
                let spec = spec.trim();
                if let Some(pred_src) = spec.strip_prefix('{').and_then(|s| s.strip_suffix('}')) {
                    // Top matrix entry: binders → canonical names.
                    let p = dsolve_logic::parse_pred(pred_src.trim())
                        .map_err(|e| self.err(e.to_string()))?;
                    let p = to_canon.apply_pred(&p);
                    let merged = rho.entry(cix, fix).and(&Refinement::pred(p));
                    rho.set(cix, fix, merged);
                } else if let Some(inner_src) =
                    spec.strip_prefix('[').and_then(|s| s.strip_suffix(']'))
                {
                    // Inner matrix: outer binders → #up names.
                    let m = self.inner_matrix(inner_src, &decl, datatype, &to_up)?;
                    let merged = inner
                        .get(&(cix, fix))
                        .cloned()
                        .unwrap_or_default()
                        .compose(&m);
                    inner.insert((cix, fix), merged);
                } else {
                    return Err(self.err(format!(
                        "rho item must be `field : {{pred}}` or `field : [clauses]`, found `{item}`"
                    )));
                }
            }
        }
        Ok((
            name,
            RhoDef {
                datatype,
                rho,
                inner,
            },
        ))
    }

    fn inner_matrix(
        &self,
        src: &str,
        decl: &dsolve_nanoml::DeclSig,
        datatype: Symbol,
        to_up: &Subst,
    ) -> Result<Rho, SpecError> {
        let mut m = Rho::top();
        for clause in split_cases(src) {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (pat, items) = clause
                .split_once("->")
                .ok_or_else(|| self.err("missing `->` in inner clause"))?;
            let (ctor, binders) = parse_ctor_pattern(pat).map_err(|msg| self.err(msg))?;
            let cix = decl
                .ctor_names
                .iter()
                .position(|c| *c == ctor)
                .ok_or_else(|| self.err(format!("unknown constructor `{ctor}`")))?;
            let mut to_canon = Subst::new();
            for (k, b) in binders.iter().enumerate() {
                to_canon =
                    to_canon.then(*b, dsolve_logic::Expr::Var(field_name(datatype, ctor, k)));
            }
            for item in split_top(items, ',') {
                let item = item.trim();
                if item.is_empty() {
                    continue;
                }
                let (fname, spec) = item
                    .split_once(':')
                    .ok_or_else(|| self.err("missing `:` in inner item"))?;
                let fix = binders
                    .iter()
                    .position(|b| b.as_str() == fname.trim())
                    .ok_or_else(|| self.err(format!("unknown field binder `{}`", fname.trim())))?;
                let pred_src = spec
                    .trim()
                    .strip_prefix('{')
                    .and_then(|s| s.strip_suffix('}'))
                    .ok_or_else(|| self.err("inner item must be `field : {pred}`"))?;
                let p = dsolve_logic::parse_pred(pred_src.trim())
                    .map_err(|e| self.err(e.to_string()))?;
                let p = to_up.apply_pred(&to_canon.apply_pred(&p));
                let merged = m.entry(cix, fix).and(&Refinement::pred(p));
                m.set(cix, fix, merged);
            }
        }
        Ok(m)
    }

    // val name : rtype
    fn val(&mut self, rhos: &HashMap<String, RhoDef>) -> Result<Spec, SpecError> {
        let line = self.next_line().expect("peeked").to_owned();
        let rest = &line["val".len()..];
        let (name, ty) = rest
            .split_once(':')
            .ok_or_else(|| self.err("missing `:`"))?;
        let body = self.block(ty);
        let mut tp = TypeParser {
            src: body.as_bytes(),
            pos: 0,
            depth: 0,
            tyvars: HashMap::new(),
            rhos,
            data: self.data,
        };
        let ty = tp.rtype().map_err(|m| self.err(m))?;
        tp.skip_ws();
        if tp.pos < tp.src.len() {
            return Err(self.err(format!(
                "trailing input in type: `{}`",
                String::from_utf8_lossy(&tp.src[tp.pos..])
            )));
        }
        let vars = (0..tp.tyvars.len() as u32)
            .map(|v| RVarDecl {
                var: v,
                witness: None,
            })
            .collect();
        Ok(Spec {
            name: Symbol::new(name.trim()),
            scheme: RScheme { vars, ty },
        })
    }
}

/// Splits case clauses on `|` at bracket depth zero, treating `||` as
/// the disjunction operator (never a clause separator) — measure and rho
/// bodies may contain arbitrary predicates.
fn split_cases(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    let b = s.as_bytes();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'[' | b'(' | b'{' => depth += 1,
            b']' | b')' | b'}' => depth -= 1,
            b'|' if depth == 0 => {
                if i + 1 < b.len() && b[i + 1] == b'|' {
                    i += 1;
                } else {
                    out.push(&s[start..i]);
                    start = i + 1;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out.push(&s[start..]);
    out
}

/// Splits on `sep` at nesting depth zero (w.r.t. `[({` brackets).
fn split_top(s: &str, sep: char) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '[' | '(' | '{' => depth += 1,
            ']' | ')' | '}' => depth -= 1,
            c if c == sep && depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

/// Parses `C` or `C (x, y, ...)`.
fn parse_ctor_pattern(s: &str) -> Result<(Symbol, Vec<Symbol>), String> {
    let s = s.trim();
    let (name, rest) = match s.find('(') {
        None => (s, ""),
        Some(p) => (
            s[..p].trim(),
            s[p + 1..]
                .strip_suffix(')')
                .ok_or_else(|| format!("missing `)` in pattern `{s}`"))?,
        ),
    };
    if name.is_empty() || !name.starts_with(|c: char| c.is_ascii_uppercase()) {
        return Err(format!("expected constructor, found `{name}`"));
    }
    let binders = rest
        .split(',')
        .map(str::trim)
        .filter(|b| !b.is_empty())
        .map(Symbol::new)
        .collect();
    Ok((Symbol::new(name), binders))
}

/// Maximum type nesting depth in `val` signatures. A hostile
/// `((((…`/`{VV : {VV : …` would otherwise overflow the stack, which
/// aborts the process and cannot be isolated by `catch_unwind`.
const MAX_TYPE_DEPTH: usize = 256;

/// A refined-type parser for `val` specifications.
struct TypeParser<'a> {
    src: &'a [u8],
    pos: usize,
    depth: usize,
    tyvars: HashMap<String, u32>,
    rhos: &'a HashMap<String, RhoDef>,
    data: &'a DataEnv,
}

impl TypeParser<'_> {
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_TYPE_DEPTH {
            Err(format!(
                "type nesting exceeds the depth limit ({MAX_TYPE_DEPTH})"
            ))
        } else {
            Ok(())
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

    fn eat(&mut self, s: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(s.as_bytes()) {
            // Word tokens must not be prefixes of identifiers.
            if s.chars().next().is_some_and(|c| c.is_ascii_alphabetic()) {
                let after = self.src.get(self.pos + s.len()).copied();
                if let Some(c) = after {
                    if c.is_ascii_alphanumeric() || c == b'_' {
                        return false;
                    }
                }
            }
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn ident(&mut self) -> Option<String> {
        self.skip_ws();
        let start = self.pos;
        let mut p = self.pos;
        if p < self.src.len() && (self.src[p].is_ascii_alphabetic() || self.src[p] == b'_') {
            p += 1;
            while p < self.src.len() && (self.src[p].is_ascii_alphanumeric() || self.src[p] == b'_')
            {
                p += 1;
            }
            self.pos = p;
            Some(String::from_utf8_lossy(&self.src[start..p]).into_owned())
        } else {
            None
        }
    }

    fn tyvar_id(&mut self, name: &str) -> u32 {
        let next = self.tyvars.len() as u32;
        *self.tyvars.entry(name.to_owned()).or_insert(next)
    }

    /// rtype := tuple_ty ('->' rtype)? — a single named part followed by
    /// `->` becomes a dependent function binder; named parts inside a
    /// tuple name the components (later refinements may mention them).
    fn rtype(&mut self) -> Result<RType, String> {
        self.descend()?;
        let r = self.rtype_inner();
        self.depth -= 1;
        r
    }

    fn rtype_inner(&mut self) -> Result<RType, String> {
        let (binder, lhs) = self.tuple_ty()?;
        if self.eat("->") {
            let rhs = self.rtype()?;
            let x = binder.unwrap_or_else(|| Symbol::fresh("arg"));
            Ok(RType::Fun(x, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    /// tuple_ty := part ('*' part)* where part := [ident ':'] app_ty.
    /// Returns the first part's name when the result is not a tuple (so
    /// `rtype` can turn it into a function binder).
    fn tuple_ty(&mut self) -> Result<(Option<Symbol>, RType), String> {
        let first = self.tuple_part()?;
        if self.peek() == Some(b'*') {
            let mut parts = vec![first];
            while self.eat("*") {
                parts.push(self.tuple_part()?);
            }
            Ok((
                None,
                RType::Tuple(
                    parts
                        .into_iter()
                        .map(|(n, t)| (n.unwrap_or_else(|| Symbol::fresh("fld")), t))
                        .collect(),
                ),
            ))
        } else {
            Ok(first)
        }
    }

    fn tuple_part(&mut self) -> Result<(Option<Symbol>, RType), String> {
        let save = self.pos;
        if let Some(id) = self.ident() {
            if self.eat(":") {
                let t = self.app_ty()?;
                return Ok((Some(Symbol::new(&id)), t));
            }
            self.pos = save;
        }
        Ok((None, self.app_ty()?))
    }

    /// app_ty := atom (tycon | '@' Rho)*
    fn app_ty(&mut self) -> Result<RType, String> {
        let mut args = self.atom()?;
        loop {
            self.skip_ws();
            if self.eat("@") {
                let name = self.ident().ok_or("expected rho name after `@`")?;
                let def = self
                    .rhos
                    .get(&name)
                    .ok_or_else(|| format!("unknown rho `{name}`"))?;
                let [t] = &mut args[..] else {
                    return Err("`@` must follow a complete type".into());
                };
                let RType::Data(d) = t else {
                    return Err(format!("`@{name}` applies to a datatype"));
                };
                if d.name != def.datatype {
                    return Err(format!(
                        "rho `{name}` is for `{}`, applied to `{}`",
                        def.datatype, d.name
                    ));
                }
                d.rho = d.rho.compose(&def.rho);
                for (k, m) in &def.inner {
                    let merged = d.inner.get(k).cloned().unwrap_or_default().compose(m);
                    d.inner.insert(*k, merged);
                }
                continue;
            }
            let save = self.pos;
            let Some(id) = self.ident() else { break };
            match id.as_str() {
                "int" | "bool" | "unit" => {
                    self.pos = save;
                    break;
                }
                // Uniform element refinement: conjoin a predicate onto
                // every parameter-positioned field of every constructor —
                // all parameters, or just the named one (`elems 'k {…}`).
                "elems" => {
                    let mut only: Option<u32> = None;
                    self.skip_ws();
                    if self.peek() == Some(b'\'') {
                        self.pos += 1;
                        let name = self.ident().ok_or("expected type variable")?;
                        only = Some(self.tyvar_id(&name));
                    }
                    if !self.eat("{") {
                        return Err("expected `{` after `elems`".into());
                    }
                    let start = self.pos;
                    let mut depth = 1;
                    while self.pos < self.src.len() && depth > 0 {
                        match self.src[self.pos] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                        if depth > 0 {
                            self.pos += 1;
                        }
                    }
                    if depth != 0 {
                        return Err("unterminated `elems` refinement".into());
                    }
                    let text = String::from_utf8_lossy(&self.src[start..self.pos]);
                    self.pos += 1;
                    let p = parse_spec_pred(text.trim())?;
                    let [t] = &mut args[..] else {
                        return Err("`elems` must follow a complete type".into());
                    };
                    let RType::Data(d) = t else {
                        return Err("`elems` applies to a datatype".into());
                    };
                    let decl = self
                        .data
                        .decl(d.name)
                        .ok_or_else(|| format!("unknown datatype `{}`", d.name))?;
                    // Positions are resolved against the datatype's own
                    // parameter indices via the applied argument list.
                    let param_of = |j: usize| -> Option<u32> {
                        d.targs.get(j).and_then(|t| match t {
                            RType::TyVar(v, _, _) => Some(*v),
                            _ => None,
                        })
                    };
                    for (c, fields) in decl.ctor_fields.iter().enumerate() {
                        for (j, fshape) in fields.iter().enumerate() {
                            let MlType::Var(i) = fshape else { continue };
                            if let Some(want) = only {
                                if param_of(*i as usize) != Some(want) {
                                    continue;
                                }
                            }
                            let merged = d.rho.entry(c, j).and(&Refinement::pred(p.clone()));
                            d.rho.set(c, j, merged);
                        }
                    }
                    continue;
                }
                tycon => {
                    let sym = Symbol::new(tycon);
                    if self.data.decl(sym).is_none() {
                        self.pos = save;
                        break;
                    }
                    let t = RType::Data(DataRType {
                        name: sym,
                        targs: std::mem::take(&mut args),
                        rho: Rho::top(),
                        inner: BTreeMap::new(),
                        refinement: Refinement::top(),
                    });
                    args = vec![t];
                }
            }
        }
        match args.len() {
            1 => Ok(args.pop().expect("len checked")),
            n => Err(format!(
                "type group of {n} must be applied to a constructor"
            )),
        }
    }

    fn atom(&mut self) -> Result<Vec<RType>, String> {
        self.descend()?;
        let r = self.atom_inner();
        self.depth -= 1;
        r
    }

    fn atom_inner(&mut self) -> Result<Vec<RType>, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'\'') => {
                self.pos += 1;
                let name = self.ident().ok_or("expected type variable name")?;
                let v = self.tyvar_id(&name);
                Ok(vec![RType::TyVar(v, Subst::new(), Refinement::top())])
            }
            Some(b'{') => {
                self.pos += 1;
                // {VV : rtype | pred} or {VV : rtype}
                let vv = self.ident().ok_or("expected value-variable name")?;
                if vv != "VV" {
                    return Err(format!("value variable must be `VV`, found `{vv}`"));
                }
                if !self.eat(":") {
                    return Err("expected `:` in refinement".into());
                }
                let inner = self.app_ty_single()?;
                let pred = if self.eat("|") {
                    // Predicate runs to the matching `}`.
                    let start = self.pos;
                    let mut depth = 1;
                    while self.pos < self.src.len() && depth > 0 {
                        match self.src[self.pos] {
                            b'{' => depth += 1,
                            b'}' => depth -= 1,
                            _ => {}
                        }
                        if depth > 0 {
                            self.pos += 1;
                        }
                    }
                    if depth != 0 {
                        return Err("unterminated refinement".into());
                    }
                    let text = String::from_utf8_lossy(&self.src[start..self.pos]);
                    self.pos += 1; // consume `}`
                    Some(parse_spec_pred(text.trim())?)
                } else if self.eat("}") {
                    None
                } else {
                    return Err("expected `|` or `}` in refinement".into());
                };
                let t = match pred {
                    Some(p) => inner.strengthen(&Refinement::pred(p)),
                    None => inner,
                };
                Ok(vec![t])
            }
            Some(b'(') => {
                self.pos += 1;
                let mut parts = vec![self.rtype()?];
                while self.eat(",") {
                    parts.push(self.rtype()?);
                }
                if !self.eat(")") {
                    return Err("expected `)`".into());
                }
                Ok(parts)
            }
            _ => {
                let id = self.ident().ok_or("expected a type")?;
                match id.as_str() {
                    "int" => Ok(vec![RType::int()]),
                    "bool" => Ok(vec![RType::bool()]),
                    "unit" => Ok(vec![RType::unit()]),
                    tycon => {
                        let sym = Symbol::new(tycon);
                        if self.data.decl(sym).is_some() {
                            Ok(vec![RType::Data(DataRType {
                                name: sym,
                                targs: vec![],
                                rho: Rho::top(),
                                inner: BTreeMap::new(),
                                refinement: Refinement::top(),
                            })])
                        } else {
                            Err(format!("unknown type `{tycon}`"))
                        }
                    }
                }
            }
        }
    }

    fn app_ty_single(&mut self) -> Result<RType, String> {
        self.app_ty()
    }
}

/// Exposes the map witness for hand-written specs over map values:
/// `β[k/x]`-style instances are written with this symbol.
pub fn map_witness() -> Symbol {
    witness_symbol("map")
}

/// Scrapes qualifiers from the predicates of `val` specifications —
/// §6: "DSOLVE combines the manually supplied qualifiers (.quals) with
/// qualifiers scraped from the properties to be proved (.mlq)".
///
/// Every atomic conjunct of every refinement (including ρ-matrix
/// entries) is emitted literally, plus a placeholder-generalized variant
/// where each non-canonical program variable becomes a `★`.
pub fn scrape_qualifiers(specs: &[Spec]) -> Vec<Qualifier> {
    let mut preds: Vec<Pred> = Vec::new();
    for spec in specs {
        collect_spec_preds(&spec.scheme.ty, &mut preds);
    }
    let mut out = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for (i, p) in preds.iter().enumerate() {
        // Three variants per predicate: literal (matches structural map
        // templates whose scope binds the canonical key), witness form
        // (matches polytype-instantiation templates), and placeholder-
        // generalized (matches arbitrary program-variable scopes).
        let wit_form = p.subst(
            dsolve_liquid::map_key_binder(),
            &dsolve_logic::Expr::Var(map_witness()),
        );
        for q in [p.clone(), wit_form, starred(p)] {
            if q == Pred::True {
                continue;
            }
            if seen.insert(q.to_string()) {
                out.push(Qualifier::new(format!("Scraped{i}"), q));
            }
        }
    }
    out
}

fn collect_spec_preds(t: &RType, out: &mut Vec<Pred>) {
    let mut push_ref = |r: &Refinement| {
        for (theta, atom) in &r.atoms {
            if let dsolve_liquid::RefAtom::Conc(p) = atom {
                for c in theta.apply_pred(p).conjuncts() {
                    out.push(c);
                }
            }
        }
    };
    match t {
        RType::Base(_, r) | RType::TyVar(_, _, r) => push_ref(r),
        RType::Fun(_, a, b) => {
            collect_spec_preds(a, out);
            collect_spec_preds(b, out);
        }
        RType::Tuple(fs) => {
            for (_, t) in fs {
                collect_spec_preds(t, out);
            }
        }
        RType::Data(d) => {
            push_ref(&d.refinement);
            for r in d.rho.entries.values() {
                push_ref(r);
            }
            for m in d.inner.values() {
                for r in m.entries.values() {
                    push_ref(r);
                }
            }
            for t in &d.targs {
                collect_spec_preds(t, out);
            }
        }
    }
}

/// Generalizes a predicate: each distinct free variable that is neither
/// `VV` nor a *datatype field* canonical name becomes a fresh `★`. The
/// map key binder and the map witness are starred too — in arbitrary
/// scopes the corresponding value is an ordinary program variable.
fn starred(p: &Pred) -> Pred {
    let mut q = p.clone();
    let mut next = 0usize;
    let key = dsolve_liquid::map_key_binder();
    let wit = map_witness();
    for v in p.free_vars() {
        if v == Symbol::value_var() {
            continue;
        }
        if v.as_str().contains('#') && v != key && v != wit {
            continue;
        }
        q = q.subst(v, &dsolve_logic::Expr::Var(Symbol::star(next)));
        next += 1;
    }
    q
}

/// Parses a predicate in spec position: the identifier `KEY` denotes the
/// canonical key binder of the enclosing finite-map type.
fn parse_spec_pred(src: &str) -> Result<Pred, String> {
    let p = dsolve_logic::parse_pred(src).map_err(|e| e.to_string())?;
    Ok(p.subst(
        Symbol::new("KEY"),
        &dsolve_logic::Expr::Var(dsolve_liquid::map_key_binder()),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_nanoml::parse_program;

    fn data() -> DataEnv {
        let mut d = DataEnv::with_builtins();
        let prog =
            parse_program("type ('a, 'b) t = E | N of 'a * 'b * ('a, 'b) t * ('a, 'b) t * int")
                .unwrap();
        d.add_program(&prog.datatypes).unwrap();
        d
    }

    #[test]
    fn parses_quals_file() {
        let qs = parse_quals("qualif Pos : 0 < VV\n\n-- comment\nqualif Ub : _ <= VV\n").unwrap();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].name, "Pos");
    }

    #[test]
    fn parses_len_measure() {
        let d = data();
        let src = "measure len : 'a list -> int =\n| Nil -> 0\n| Cons (x, xs) -> 1 + len(xs)";
        let f = parse_mlq(src, &d).unwrap();
        assert_eq!(f.measures.len(), 1);
        let m = &f.measures[0];
        assert_eq!(m.name, Symbol::new("len"));
        assert_eq!(m.datatype, Symbol::new("list"));
        assert_eq!(m.sort, Sort::Int);
        assert_eq!(m.cases.len(), 2);
    }

    #[test]
    fn parses_sorted_rho_and_val() {
        let d = data();
        let src = r#"
rho Sorted on list =
| Cons (h, t) -> t : [ Cons (h2, t2) -> h2 : { h <= VV } ]

val insertsort : xs : 'a list -> {VV : 'a list @Sorted | elts(VV) = elts(xs)}
"#;
        let f = parse_mlq(src, &d).unwrap();
        let def = &f.rhos["Sorted"];
        assert_eq!(def.datatype, Symbol::new("list"));
        let m = def.inner.get(&(1, 1)).expect("inner at Cons tail");
        let entry = m.entry(1, 0);
        let s = entry.concretize(&|_| Pred::True).to_string();
        assert!(s.contains("list#Cons#0#up <= VV"), "{s}");

        assert_eq!(f.specs.len(), 1);
        let spec = &f.specs[0];
        assert_eq!(spec.name, Symbol::new("insertsort"));
        let RType::Fun(x, _, out) = &spec.scheme.ty else {
            panic!()
        };
        assert_eq!(x.as_str(), "xs");
        let RType::Data(out_d) = &**out else { panic!() };
        assert!(out_d.inner.contains_key(&(1, 1)));
        assert!(out_d
            .refinement
            .concretize(&|_| Pred::True)
            .to_string()
            .contains("elts(VV) = elts(xs)"));
    }

    #[test]
    fn parses_bst_rho_on_tree() {
        let d = data();
        let src = r#"
rho Bst on t =
| N (k, dd, l, r, h) ->
    l : [ N (k2, d2, l2, r2, h2) -> k2 : { VV < k } ],
    r : [ N (k2, d2, l2, r2, h2) -> k2 : { k < VV } ]
"#;
        let f = parse_mlq(src, &d).unwrap();
        let def = &f.rhos["Bst"];
        // N is ctor index 1; l is field 2, r is field 3.
        assert!(def.inner.contains_key(&(1, 2)));
        assert!(def.inner.contains_key(&(1, 3)));
        let left = def.inner.get(&(1, 2)).unwrap().entry(1, 0);
        let s = left.concretize(&|_| Pred::True).to_string();
        assert!(s.contains("VV < t#N#0#up"), "{s}");
    }

    #[test]
    fn parses_balance_top_entries() {
        let d = data();
        let src = r#"
rho Bal on t =
| N (k, dd, l, r, h) ->
    r : { (ht(l) - ht(VV) < 2) && (ht(VV) - ht(l) < 2) },
    h : { VV = if ht(l) < ht(r) then 1 + ht(r) else 1 + ht(l) }
"#;
        let f = parse_mlq(src, &d).unwrap();
        let def = &f.rhos["Bal"];
        let r_entry = def.rho.entry(1, 3);
        let s = r_entry.concretize(&|_| Pred::True).to_string();
        // `l` was canonicalized.
        assert!(s.contains("ht(t#N#2)"), "{s}");
        assert!(!def.rho.entry(1, 4).is_top());
    }

    #[test]
    fn parses_tuple_and_map_types() {
        let d = data();
        let src = "val f : w : int -> (int, int) map * int list -> int";
        let f = parse_mlq(src, &d).unwrap();
        let RType::Fun(_, _, rest) = &f.specs[0].scheme.ty else {
            panic!()
        };
        let RType::Fun(_, dom, _) = &**rest else {
            panic!()
        };
        let RType::Tuple(parts) = &**dom else {
            panic!()
        };
        assert_eq!(parts.len(), 2);
        assert!(matches!(&parts[0].1, RType::Data(d) if d.name == Symbol::new("map")));
    }

    #[test]
    fn tyvars_are_numbered_consistently() {
        let d = data();
        let src = "val f : 'a -> 'b -> 'a";
        let f = parse_mlq(src, &d).unwrap();
        assert_eq!(f.specs[0].scheme.vars.len(), 2);
        let RType::Fun(_, a1, rest) = &f.specs[0].scheme.ty else {
            panic!()
        };
        let RType::Fun(_, _, a2) = &**rest else {
            panic!()
        };
        assert_eq!(**a1, **a2);
    }

    #[test]
    fn inline_qualifiers_are_scraped() {
        let d = data();
        let f = parse_mlq("qualif Pos : 0 < VV", &d).unwrap();
        assert_eq!(f.qualifiers.len(), 1);
    }

    #[test]
    fn quals_and_mlq_read_qualif_lines_alike() {
        let d = data();
        let src = "-- map keys\nqualif K : KEY <= VV\nqualif Pos : 0 < VV";
        let qs = parse_quals(src).unwrap();
        let names: Vec<&str> = qs.iter().map(|q| q.name.as_str()).collect();
        assert_eq!(names, ["K#wit", "K#key", "Pos"]);
        assert_eq!(parse_mlq(src, &d).unwrap().qualifiers, qs);
        for bad in ["\nqualif Bad 0 < VV", "\n\nqualif Bad : 0 <"] {
            let from_quals = parse_quals(bad).unwrap_err();
            let from_mlq = parse_mlq(bad, &d).err().expect("a spec error");
            assert_eq!(from_quals.to_string(), from_mlq.to_string());
        }
        assert_eq!(
            parse_quals("\nqualif Bad 0 < VV").unwrap_err().to_string(),
            "spec error on line 2: missing `:` in qualifier"
        );
    }

    #[test]
    fn rejects_unknown_rho() {
        let d = data();
        assert!(parse_mlq("val f : 'a list @Nope -> int", &d).is_err());
    }

    #[test]
    fn deeply_nested_val_type_is_a_typed_error() {
        let d = data();
        let src = format!("val f : {}int{}", "(".repeat(100_000), ")".repeat(100_000));
        let e = match parse_mlq(&src, &d) {
            Err(e) => e,
            Ok(_) => panic!("deep nesting should fail"),
        };
        assert!(e.msg.contains("depth limit"), "{e}");

        // Moderate nesting still parses.
        let ok = format!("val f : {}int{}", "(".repeat(60), ")".repeat(60));
        assert!(parse_mlq(&ok, &d).is_ok());
    }

    #[test]
    fn junk_specs_are_typed_errors_not_panics() {
        let d = data();
        for src in [
            "measure",
            "measure len",
            "measure len : list -> int",
            "measure len : -> int = | Nil -> 0",
            "measure len : list -> float = | Nil -> 0",
            "rho R = | C -> x : { VV }",
            "rho R on nope = | C -> x : { VV }",
            "val f",
            "val f : {VV : int | 0 <",
            "val f : {VV : int",
            "qualif NoColon",
            "bogus toplevel",
        ] {
            assert!(parse_mlq(src, &d).is_err(), "{src:?} should fail to parse");
        }
        assert!(parse_quals("not a qualif line").is_err());
        assert!(parse_quals("qualif Broken : ((((").is_err());
    }
}
