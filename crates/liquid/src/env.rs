//! Verification environments and their logical embedding.

use crate::measure::{sort_of_mltype, MeasureEnv};
use crate::rtype::{KVar, RScheme, RType, Refinement};
use dsolve_logic::{Expr, Pred, Sort, SortEnv, Symbol};
use dsolve_nanoml::{DataEnv, MlType};
use std::collections::HashMap;
use std::sync::Arc;

/// Immutable global context shared by the whole verification run.
#[derive(Clone)]
pub struct GlobalEnv {
    /// Datatype declarations.
    pub data: DataEnv,
    /// Measure definitions.
    pub measures: MeasureEnv,
    /// Base sort environment: measures and built-in uninterpreted
    /// functions, no program variables.
    pub base_sorts: SortEnv,
}

impl GlobalEnv {
    /// Builds the global context (declaring measure sorts).
    pub fn new(data: DataEnv, measures: MeasureEnv) -> GlobalEnv {
        let mut base_sorts = SortEnv::new();
        measures.declare_sorts(&mut base_sorts);
        GlobalEnv {
            data,
            measures,
            base_sorts,
        }
    }
}

/// The type environment `Γ`: refined bindings plus boolean guard
/// predicates, in dependency order. Persistently shared (cheap snapshots
/// into constraints).
#[derive(Clone, Default)]
pub struct LiquidEnv {
    node: Option<Arc<EnvNode>>,
}

/// One entry of an environment.
pub(crate) enum EnvItem {
    /// A value binding.
    Bind(Symbol, RScheme),
    /// A guard predicate.
    Guard(Pred),
}

/// One link of the persistent list; environments extending a common
/// prefix share its nodes.
pub(crate) struct EnvNode {
    pub(crate) item: EnvItem,
    prev: Option<Arc<EnvNode>>,
    len: usize,
}

impl LiquidEnv {
    /// The empty environment.
    pub fn new() -> LiquidEnv {
        LiquidEnv::default()
    }

    /// Extends with a monomorphic binding.
    #[must_use]
    pub fn bind(&self, x: Symbol, t: RType) -> LiquidEnv {
        self.bind_scheme(x, RScheme::mono(t))
    }

    /// Extends with a scheme binding.
    #[must_use]
    pub fn bind_scheme(&self, x: Symbol, s: RScheme) -> LiquidEnv {
        LiquidEnv {
            node: Some(Arc::new(EnvNode {
                item: EnvItem::Bind(x, s),
                len: self.len() + 1,
                prev: self.node.clone(),
            })),
        }
    }

    /// Extends with a guard predicate (branch or measure information).
    #[must_use]
    pub fn guard(&self, p: Pred) -> LiquidEnv {
        if p == Pred::True {
            return self.clone();
        }
        LiquidEnv {
            node: Some(Arc::new(EnvNode {
                item: EnvItem::Guard(p),
                len: self.len() + 1,
                prev: self.node.clone(),
            })),
        }
    }

    fn len(&self) -> usize {
        self.node.as_ref().map_or(0, |n| n.len)
    }

    /// The nodes, oldest first.
    pub(crate) fn nodes(&self) -> Vec<&EnvNode> {
        let mut out = Vec::with_capacity(self.len());
        let mut cur = self.node.as_deref();
        while let Some(n) = cur {
            out.push(n);
            cur = n.prev.as_deref();
        }
        out.reverse();
        out
    }

    /// Iterates items oldest-first.
    fn items(&self) -> Vec<&EnvItem> {
        self.nodes().into_iter().map(|n| &n.item).collect()
    }

    /// Looks up the most recent binding of `x`.
    pub fn lookup(&self, x: Symbol) -> Option<&RScheme> {
        let mut cur = self.node.as_deref();
        while let Some(n) = cur {
            if let EnvItem::Bind(y, s) = &n.item {
                if *y == x {
                    return Some(s);
                }
            }
            cur = n.prev.as_deref();
        }
        None
    }

    /// The sort environment for this scope: base sorts plus one sort per
    /// bound variable (by its shape).
    pub fn sort_env(&self, genv: &GlobalEnv) -> SortEnv {
        let mut out = genv.base_sorts.clone();
        for item in self.items() {
            if let EnvItem::Bind(x, s) = item {
                if s.vars.is_empty() {
                    out.bind(*x, sort_of_mltype(&s.ty.shape()));
                }
            }
        }
        out
    }

    /// Embeds the environment as a logical antecedent under a `κ`
    /// assignment: each monomorphic value binding contributes its
    /// top-level refinement with `ν := x`, each guard contributes itself.
    ///
    /// Conjuncts that are ill-sorted in this scope (e.g. `Sel`-facts over
    /// maps whose codomain does not embed as `int`) are dropped — always
    /// sound on the antecedent side.
    ///
    /// The solver builds the same antecedent incrementally, node by node,
    /// through its embedding cache; this from-scratch form is the
    /// reference that cache is tested against.
    pub fn embed(
        &self,
        genv: &GlobalEnv,
        lookup: &impl Fn(KVar) -> Pred,
    ) -> (SortEnv, Pred) {
        let sorts = self.sort_env(genv);
        let mut conj: Vec<Pred> = Vec::new();
        for item in self.items() {
            match item {
                EnvItem::Bind(x, s) => {
                    if !s.vars.is_empty() {
                        continue;
                    }
                    let r = s.ty.refinement();
                    if r.is_top() {
                        continue;
                    }
                    let p = r.concretize(lookup).subst_nu(&Expr::Var(*x));
                    push_wellsorted(&sorts, p, &mut conj);
                }
                EnvItem::Guard(p) => push_wellsorted(&sorts, p.clone(), &mut conj),
            }
        }
        (sorts, Pred::and(conj))
    }

    /// Variables bound in the environment, oldest first.
    pub fn domain(&self) -> Vec<Symbol> {
        self.items()
            .iter()
            .filter_map(|i| match i {
                EnvItem::Bind(x, _) => Some(*x),
                EnvItem::Guard(_) => None,
            })
            .collect()
    }
}

/// Pushes `p`'s well-sorted conjuncts (dropping ill-sorted ones).
fn push_wellsorted(sorts: &SortEnv, p: Pred, out: &mut Vec<Pred>) {
    for c in p.conjuncts() {
        if sorts.wellsorted(&c) {
            out.push(c);
        }
    }
}

/// Reference-counted info about a liquid variable's scope, recorded at
/// template-creation time and used for qualifier instantiation.
#[derive(Clone)]
pub struct KInfo {
    /// Scope: the environment visible to the refinement (including
    /// canonical field names for matrix entries).
    pub scope: SortEnv,
    /// The sort of `ν` at this position.
    pub nu_sort: Sort,
    /// The shape of `ν` (for diagnostics).
    pub nu_shape: MlType,
}

/// Registry of liquid variable scopes.
#[derive(Clone, Default)]
pub struct KEnv {
    infos: HashMap<KVar, KInfo>,
}

impl KEnv {
    /// Creates an empty registry.
    pub fn new() -> KEnv {
        KEnv::default()
    }

    /// Registers a fresh liquid variable with its scope.
    pub fn register(&mut self, k: KVar, info: KInfo) {
        self.infos.insert(k, info);
    }

    /// Looks up a variable's scope info.
    pub fn info(&self, k: KVar) -> Option<&KInfo> {
        self.infos.get(&k)
    }

    /// All registered variables.
    pub fn kvars(&self) -> impl Iterator<Item = KVar> + '_ {
        self.infos.keys().copied()
    }

    /// Number of registered variables.
    pub fn len(&self) -> usize {
        self.infos.len()
    }

    /// Whether no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.infos.is_empty()
    }
}

/// A new refinement consisting of a single fresh `κ`, registered in
/// `kenv` with the given scope.
pub fn fresh_refinement(
    kenv: &mut KEnv,
    scope: SortEnv,
    nu_shape: &MlType,
) -> Refinement {
    let r = Refinement::fresh_kvar();
    let k = r.kvars()[0];
    kenv.register(
        k,
        KInfo {
            scope,
            nu_sort: sort_of_mltype(nu_shape),
            nu_shape: nu_shape.clone(),
        },
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtype::BaseTy;
    use dsolve_logic::parse_pred;

    fn genv() -> GlobalEnv {
        GlobalEnv::new(DataEnv::with_builtins(), MeasureEnv::new())
    }

    fn no_k(_: KVar) -> Pred {
        Pred::True
    }

    #[test]
    fn bind_and_lookup_shadowing() {
        let env = LiquidEnv::new()
            .bind(Symbol::new("x"), RType::int())
            .bind(Symbol::new("x"), RType::bool());
        let s = env.lookup(Symbol::new("x")).unwrap();
        assert_eq!(s.ty, RType::bool());
        assert!(env.lookup(Symbol::new("zzz")).is_none());
    }

    #[test]
    fn embed_collects_refinements_and_guards() {
        let env = LiquidEnv::new()
            .bind(
                Symbol::new("x"),
                RType::Base(BaseTy::Int, Refinement::pred(parse_pred("0 < VV").unwrap())),
            )
            .guard(parse_pred("x < y").unwrap())
            .bind(Symbol::new("y"), RType::int());
        let (_, p) = env.embed(&genv(), &no_k);
        assert_eq!(p.to_string(), "((0 < x) && (x < y))");
    }

    #[test]
    fn embed_drops_ill_sorted_conjuncts() {
        // A Sel-fact over a non-map variable must be dropped, the rest
        // kept.
        let env = LiquidEnv::new().bind(
            Symbol::new("x"),
            RType::Base(
                BaseTy::Int,
                Refinement::pred(parse_pred("0 < VV && Sel(x, VV) = 1").unwrap()),
            ),
        );
        let (_, p) = env.embed(&genv(), &no_k);
        assert_eq!(p.to_string(), "(0 < x)");
    }

    #[test]
    fn sort_env_includes_bindings() {
        let env = LiquidEnv::new().bind(Symbol::new("x"), RType::int());
        let sorts = env.sort_env(&genv());
        assert_eq!(sorts.sort_of_var(Symbol::new("x")), Some(&Sort::Int));
    }

    #[test]
    fn persistent_snapshots_are_independent() {
        let base = LiquidEnv::new().bind(Symbol::new("a"), RType::int());
        let left = base.bind(Symbol::new("b"), RType::int());
        let right = base.bind(Symbol::new("c"), RType::bool());
        assert!(left.lookup(Symbol::new("b")).is_some());
        assert!(left.lookup(Symbol::new("c")).is_none());
        assert!(right.lookup(Symbol::new("c")).is_some());
        assert!(right.lookup(Symbol::new("b")).is_none());
    }
}
