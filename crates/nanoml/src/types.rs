//! ML types, schemes, and the datatype environment.

use crate::ast::{DataDecl, TypeExpr};
use dsolve_logic::Symbol;
use std::collections::HashMap;
use std::fmt;

/// A monomorphic ML type (possibly containing unification variables).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum MlType {
    /// `int`
    Int,
    /// `bool`
    Bool,
    /// `unit`
    Unit,
    /// A type variable (unification variable or quantified variable).
    Var(u32),
    /// `t1 -> t2`
    Arrow(Box<MlType>, Box<MlType>),
    /// `t1 * ... * tn` (n ≥ 2)
    Tuple(Vec<MlType>),
    /// `(t1, ..., tn) name` — includes `list` and the built-in `map`.
    Data(Symbol, Vec<MlType>),
}

impl MlType {
    /// The built-in list type.
    pub fn list(elem: MlType) -> MlType {
        MlType::Data(Symbol::new("list"), vec![elem])
    }

    /// The built-in finite-map type of §5.
    pub fn map(k: MlType, v: MlType) -> MlType {
        MlType::Data(Symbol::new("map"), vec![k, v])
    }

    /// Free type variables in order of first occurrence.
    pub fn free_vars(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.collect_vars(&mut out);
        out
    }

    fn collect_vars(&self, out: &mut Vec<u32>) {
        match self {
            MlType::Int | MlType::Bool | MlType::Unit => {}
            MlType::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            MlType::Arrow(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            MlType::Tuple(ts) | MlType::Data(_, ts) => {
                for t in ts {
                    t.collect_vars(out);
                }
            }
        }
    }

    /// Simultaneous substitution of type variables.
    pub fn apply(&self, map: &HashMap<u32, MlType>) -> MlType {
        match self {
            MlType::Int | MlType::Bool | MlType::Unit => self.clone(),
            MlType::Var(v) => map.get(v).cloned().unwrap_or_else(|| self.clone()),
            MlType::Arrow(a, b) => MlType::Arrow(Box::new(a.apply(map)), Box::new(b.apply(map))),
            MlType::Tuple(ts) => MlType::Tuple(ts.iter().map(|t| t.apply(map)).collect()),
            MlType::Data(n, ts) => MlType::Data(*n, ts.iter().map(|t| t.apply(map)).collect()),
        }
    }
}

impl fmt::Display for MlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlType::Int => write!(f, "int"),
            MlType::Bool => write!(f, "bool"),
            MlType::Unit => write!(f, "unit"),
            MlType::Var(v) => write!(f, "'t{v}"),
            MlType::Arrow(a, b) => write!(f, "({a} -> {b})"),
            MlType::Tuple(ts) => {
                write!(f, "(")?;
                for (i, t) in ts.iter().enumerate() {
                    if i > 0 {
                        write!(f, " * ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            MlType::Data(n, ts) => {
                if ts.is_empty() {
                    write!(f, "{n}")
                } else {
                    write!(f, "(")?;
                    for (i, t) in ts.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{t}")?;
                    }
                    write!(f, ") {n}")
                }
            }
        }
    }
}

/// A type scheme `∀ vars. ty`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Scheme {
    /// Quantified variables in a canonical order.
    pub vars: Vec<u32>,
    /// Body type.
    pub ty: MlType,
}

impl Scheme {
    /// A monomorphic scheme.
    pub fn mono(ty: MlType) -> Scheme {
        Scheme { vars: vec![], ty }
    }
}

impl fmt::Display for Scheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.vars.is_empty() {
            write!(f, "forall")?;
            for v in &self.vars {
                write!(f, " 't{v}")?;
            }
            write!(f, ". ")?;
        }
        write!(f, "{}", self.ty)
    }
}

/// A constructor's signature within its datatype: field types over the
/// datatype's parameters (`MlType::Var(i)` is the i-th parameter).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CtorSig {
    /// The datatype this constructor belongs to.
    pub datatype: Symbol,
    /// Index of the constructor within the declaration.
    pub index: usize,
    /// Number of datatype parameters.
    pub arity_params: usize,
    /// Field types (over parameter variables `0..arity_params`).
    pub fields: Vec<MlType>,
}

/// The datatype environment: declarations plus constructor signatures.
#[derive(Clone, Debug, Default)]
pub struct DataEnv {
    decls: HashMap<Symbol, DeclSig>,
    ctors: HashMap<Symbol, CtorSig>,
}

/// An elaborated datatype declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeclSig {
    /// Type constructor name.
    pub name: Symbol,
    /// Number of type parameters.
    pub params: usize,
    /// Constructor names in declaration order.
    pub ctor_names: Vec<Symbol>,
    /// Field types per constructor (over parameter variables).
    pub ctor_fields: Vec<Vec<MlType>>,
}

/// An error elaborating datatype declarations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataError(pub String);

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "datatype error: {}", self.0)
    }
}

impl std::error::Error for DataError {}

impl DataEnv {
    /// Creates an environment containing the built-in `list` datatype and
    /// the abstract `map` type.
    pub fn with_builtins() -> DataEnv {
        let mut env = DataEnv::default();
        let list = Symbol::new("list");
        env.decls.insert(
            list,
            DeclSig {
                name: list,
                params: 1,
                ctor_names: vec![Symbol::new("Nil"), Symbol::new("Cons")],
                ctor_fields: vec![
                    vec![],
                    vec![MlType::Var(0), MlType::Data(list, vec![MlType::Var(0)])],
                ],
            },
        );
        env.ctors.insert(
            Symbol::new("Nil"),
            CtorSig {
                datatype: list,
                index: 0,
                arity_params: 1,
                fields: vec![],
            },
        );
        env.ctors.insert(
            Symbol::new("Cons"),
            CtorSig {
                datatype: list,
                index: 1,
                arity_params: 1,
                fields: vec![MlType::Var(0), MlType::Data(list, vec![MlType::Var(0)])],
            },
        );
        // `map` is abstract: no constructors (values are built by the
        // `new`/`set` primitives).
        env.decls.insert(
            Symbol::new("map"),
            DeclSig {
                name: Symbol::new("map"),
                params: 2,
                ctor_names: vec![],
                ctor_fields: vec![],
            },
        );
        env
    }

    /// Adds the declarations of a parsed program.
    ///
    /// # Errors
    ///
    /// Reports duplicate type or constructor names, unknown types in field
    /// positions, and arity mismatches.
    pub fn add_program(&mut self, datatypes: &[DataDecl]) -> Result<(), DataError> {
        // First pass: register names/arities so recursive references work.
        for d in datatypes {
            if self.decls.contains_key(&d.name) {
                return Err(DataError(format!("duplicate datatype `{}`", d.name)));
            }
            self.decls.insert(
                d.name,
                DeclSig {
                    name: d.name,
                    params: d.params.len(),
                    ctor_names: d.ctors.iter().map(|c| c.name).collect(),
                    ctor_fields: vec![],
                },
            );
        }
        // Second pass: elaborate field types.
        for d in datatypes {
            let param_ix: HashMap<&str, u32> = d
                .params
                .iter()
                .enumerate()
                .map(|(i, p)| (p.as_str(), i as u32))
                .collect();
            let mut all_fields = Vec::new();
            for (index, c) in d.ctors.iter().enumerate() {
                if self.ctors.contains_key(&c.name) {
                    return Err(DataError(format!("duplicate constructor `{}`", c.name)));
                }
                let fields: Vec<MlType> = c
                    .fields
                    .iter()
                    .map(|t| self.elaborate(t, &param_ix))
                    .collect::<Result<_, _>>()?;
                self.ctors.insert(
                    c.name,
                    CtorSig {
                        datatype: d.name,
                        index,
                        arity_params: d.params.len(),
                        fields: fields.clone(),
                    },
                );
                all_fields.push(fields);
            }
            self.decls
                .get_mut(&d.name)
                .expect("registered in first pass")
                .ctor_fields = all_fields;
        }
        Ok(())
    }

    /// Elaborates a surface type over a parameter mapping.
    pub fn elaborate(
        &self,
        t: &TypeExpr,
        params: &HashMap<&str, u32>,
    ) -> Result<MlType, DataError> {
        match t {
            TypeExpr::Int => Ok(MlType::Int),
            TypeExpr::Bool => Ok(MlType::Bool),
            TypeExpr::Unit => Ok(MlType::Unit),
            TypeExpr::Var(v) => params
                .get(v.as_str())
                .map(|i| MlType::Var(*i))
                .ok_or_else(|| DataError(format!("unbound type variable '{v}"))),
            TypeExpr::Arrow(a, b) => Ok(MlType::Arrow(
                Box::new(self.elaborate(a, params)?),
                Box::new(self.elaborate(b, params)?),
            )),
            TypeExpr::Tuple(ts) => Ok(MlType::Tuple(
                ts.iter()
                    .map(|t| self.elaborate(t, params))
                    .collect::<Result<_, _>>()?,
            )),
            TypeExpr::App(name, args) => {
                let sym = Symbol::new(name);
                let decl = self
                    .decls
                    .get(&sym)
                    .ok_or_else(|| DataError(format!("unknown type `{name}`")))?;
                if decl.params != args.len() {
                    return Err(DataError(format!(
                        "type `{name}` expects {} parameter(s), got {}",
                        decl.params,
                        args.len()
                    )));
                }
                Ok(MlType::Data(
                    sym,
                    args.iter()
                        .map(|t| self.elaborate(t, params))
                        .collect::<Result<_, _>>()?,
                ))
            }
        }
    }

    /// Looks up a constructor.
    pub fn ctor(&self, name: Symbol) -> Option<&CtorSig> {
        self.ctors.get(&name)
    }

    /// Looks up a datatype declaration.
    pub fn decl(&self, name: Symbol) -> Option<&DeclSig> {
        self.decls.get(&name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn builtin_list_is_registered() {
        let env = DataEnv::with_builtins();
        let cons = env.ctor(Symbol::new("Cons")).unwrap();
        assert_eq!(cons.datatype, Symbol::new("list"));
        assert_eq!(cons.fields.len(), 2);
    }

    #[test]
    fn elaborates_avl_map_decl() {
        let prog =
            parse_program("type ('a, 'b) t = E | N of 'a * 'b * ('a, 'b) t * ('a, 'b) t * int")
                .unwrap();
        let mut env = DataEnv::with_builtins();
        env.add_program(&prog.datatypes).unwrap();
        let n = env.ctor(Symbol::new("N")).unwrap();
        assert_eq!(n.fields.len(), 5);
        assert_eq!(n.fields[0], MlType::Var(0));
        assert_eq!(n.fields[4], MlType::Int);
        assert!(
            matches!(&n.fields[2], MlType::Data(s, args) if *s == Symbol::new("t") && args.len() == 2)
        );
    }

    #[test]
    fn duplicate_ctor_rejected() {
        let prog = parse_program("type t1 = A\ntype t2 = A").unwrap();
        let mut env = DataEnv::with_builtins();
        assert!(env.add_program(&prog.datatypes).is_err());
    }

    #[test]
    fn unknown_type_rejected() {
        let prog = parse_program("type t = A of mystery").unwrap();
        let mut env = DataEnv::with_builtins();
        assert!(env.add_program(&prog.datatypes).is_err());
    }

    #[test]
    fn scheme_display() {
        let s = Scheme {
            vars: vec![0],
            ty: MlType::Arrow(Box::new(MlType::Var(0)), Box::new(MlType::Var(0))),
        };
        assert_eq!(s.to_string(), "forall 't0. ('t0 -> 't0)");
    }

    #[test]
    fn type_apply_substitutes() {
        let t = MlType::list(MlType::Var(3));
        let mut m = HashMap::new();
        m.insert(3, MlType::Int);
        assert_eq!(t.apply(&m), MlType::list(MlType::Int));
    }
}
