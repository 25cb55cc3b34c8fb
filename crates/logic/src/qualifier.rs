//! Logical qualifiers and their instantiation.
//!
//! A qualifier is a predicate over the value variable `ν`, program
//! variables, and the placeholder `★` (§2 of the paper). The set `Q★`
//! contains every placeholder-free predicate obtained by replacing each
//! `★i` with an in-scope program variable of a compatible sort. Liquid
//! types are then conjunctions of elements of `Q★`.
//!
//! [`Instantiator`] builds `Q★` for every κ scope of a solve. Whether an
//! instance is well-sorted depends only on the sorts substituted for its
//! stars, never on the names, so each tuple of star sorts is checked once
//! on one representative variable per sort, and only candidates that
//! extend a well-sorted tuple are substituted. Scopes with the same
//! signature share one result.

use crate::{Expr, FuncSort, Pred, Sort, SortEnv, Symbol};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;

/// A named logical qualifier, possibly containing placeholders `★i`.
///
/// # Examples
///
/// ```
/// use dsolve_logic::{instantiate_all, Expr, Pred, Qualifier, Sort, SortEnv, Symbol};
/// // The qualifier `★0 <= ν`.
/// let q = Qualifier::new("Le", Pred::le(Expr::Var(Symbol::star(0)), Expr::nu()));
/// let mut env = SortEnv::new();
/// env.bind(Symbol::new("i"), Sort::Int);
/// env.bind(Symbol::new("j"), Sort::Int);
/// let insts = instantiate_all(&[q], &env, &Sort::Int);
/// assert_eq!(insts.len(), 2); // i <= ν and j <= ν
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Qualifier {
    /// Human-readable name (used in reports).
    pub name: String,
    /// The qualifier predicate over `ν`, program variables, and `★i`.
    pub pred: Pred,
}

impl Qualifier {
    /// Creates a qualifier.
    pub fn new(name: impl Into<String>, pred: Pred) -> Qualifier {
        Qualifier {
            name: name.into(),
            pred,
        }
    }

    /// The placeholder symbols (`★i`) occurring in the qualifier.
    pub fn stars(&self) -> Vec<Symbol> {
        self.pred
            .free_vars()
            .into_iter()
            .filter(|s| s.is_star())
            .collect()
    }
}

impl fmt::Display for Qualifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qualif {}: {}", self.name, self.pred)
    }
}

/// Expands a whole qualifier set `Q` into `Q★` for one environment/sort.
///
/// Each `★i` is replaced by every candidate variable of `env` whose sort
/// makes the instance well-sorted with `ν` bound at `nu_sort`.
/// Ill-sorted instances are dropped rather than reported: a qualifier
/// like `★ <= ν` simply has no instances at sort `bool`. Instances come
/// qualifier by qualifier; within one, the first star varies slowest over
/// the candidates sorted by name. An instance that prints like an earlier
/// one is dropped.
pub fn instantiate_all(quals: &[Qualifier], env: &SortEnv, nu_sort: &Sort) -> Vec<Pred> {
    Instantiator::new(quals).instantiate(env, nu_sort).to_vec()
}

/// Name prefixes of ANF temporaries, which are never candidates: they
/// name intermediate values whose facts are already present through
/// their defining equations, and admitting them multiplies `Q★` by the
/// (large) number of temporaries in scope.
const TEMPORARY_PREFIXES: [&str; 6] = ["tmp%", "carg%", "seq%", "ite%", "unused%", "toplevel%"];

/// Builds `Q★` for many scopes over one qualifier set, remembering the
/// result per scope signature.
///
/// Every result equals [`instantiate_all`] on the same scope, in content
/// and order. Keep an instantiator only as long as its scopes are being
/// instantiated: the memo holds one copy of every distinct result.
///
/// # Examples
///
/// ```
/// use dsolve_logic::{parse_pred, Instantiator, Qualifier, Sort, SortEnv, Symbol};
/// let quals = [Qualifier::new("Ub", parse_pred("_ <= VV").unwrap())];
/// let mut qstar = Instantiator::new(&quals);
/// let mut env = SortEnv::new();
/// env.bind(Symbol::new("i"), Sort::Int);
/// assert_eq!(qstar.instantiate(&env, &Sort::Int).len(), 1);
/// // ANF temporaries are not candidates, so this scope's signature is
/// // the first one's and its result is reused.
/// env.bind(Symbol::new("tmp%7"), Sort::Int);
/// assert_eq!(qstar.instantiate(&env, &Sort::Int).len(), 1);
/// assert_eq!(qstar.scopes(), 1);
/// ```
pub struct Instantiator<'q> {
    /// Each qualifier's predicate and stars, in qualifier order.
    quals: Vec<(&'q Pred, Vec<Symbol>)>,
    /// The variables the qualifiers name other than `ν` and the stars.
    named: Vec<Symbol>,
    /// The functions the qualifiers apply.
    funcs: Vec<Symbol>,
    nu: Symbol,
    memo: HashMap<Signature, Vec<Pred>>,
}

/// Everything a scope's `Q★` depends on. An instance mentions only
/// candidates, the qualifiers' named variables and `ν`, and applies only
/// the qualifiers' functions, so these sorts decide which instances are
/// well-sorted, and the ordered candidates decide what they are.
#[derive(PartialEq, Eq, Hash)]
struct Signature {
    /// The candidate replacements, sorted by name, with their sorts.
    candidates: Vec<(Symbol, Sort)>,
    nu_sort: Sort,
    /// The scope's sort for each of [`Instantiator::named`].
    named: Vec<Option<Sort>>,
    /// The scope's signature for each of [`Instantiator::funcs`].
    funcs: Vec<Option<FuncSort>>,
}

impl<'q> Instantiator<'q> {
    /// An instantiator for the qualifier set `quals`.
    pub fn new(quals: &'q [Qualifier]) -> Instantiator<'q> {
        let nu = Symbol::value_var();
        let mut named = BTreeSet::new();
        let mut funcs = BTreeSet::new();
        for q in quals {
            named.extend(
                q.pred
                    .free_vars()
                    .into_iter()
                    .filter(|x| *x != nu && !x.is_star()),
            );
            q.pred.collect_funcs(&mut funcs);
        }
        Instantiator {
            quals: quals.iter().map(|q| (&q.pred, q.stars())).collect(),
            named: named.into_iter().collect(),
            funcs: funcs.into_iter().collect(),
            nu,
            memo: HashMap::new(),
        }
    }

    /// `Q★` for one scope: `instantiate_all(quals, env, nu_sort)`.
    pub fn instantiate(&mut self, env: &SortEnv, nu_sort: &Sort) -> &[Pred] {
        let signature = self.signature(env, nu_sort);
        let (quals, named, funcs) = (&self.quals, &self.named, &self.funcs);
        self.memo
            .entry(signature)
            .or_insert_with_key(|sig| build(quals, named, funcs, sig))
    }

    /// The distinct scope signatures instantiated so far.
    pub fn scopes(&self) -> usize {
        self.memo.len()
    }

    fn signature(&self, env: &SortEnv, nu_sort: &Sort) -> Signature {
        // Candidate replacements: program variables and binder names,
        // neither `ν`, a star, nor an ANF temporary.
        let mut candidates: Vec<(&str, Symbol, Sort)> = env
            .vars()
            .filter_map(|(&x, sort)| {
                let name = x.as_str();
                let excluded = x == self.nu
                    || name.starts_with('*')
                    || TEMPORARY_PREFIXES.iter().any(|p| name.starts_with(p));
                (!excluded).then(|| (name, x, sort.clone()))
            })
            .collect();
        // The environment map iterates in hash order; canonicalize by
        // name so the instantiation order of `Q★` — and everything
        // downstream of it (bisection grouping, SMT search work) — is
        // reproducible run to run.
        candidates.sort_unstable_by_key(|&(name, ..)| name);
        Signature {
            candidates: candidates.into_iter().map(|(_, x, s)| (x, s)).collect(),
            nu_sort: nu_sort.clone(),
            named: self
                .named
                .iter()
                .map(|x| env.sort_of_var(*x).cloned())
                .collect(),
            funcs: self
                .funcs
                .iter()
                .map(|f| env.sort_of_func(*f).cloned())
                .collect(),
        }
    }
}

/// Builds `Q★` from a signature alone.
fn build(
    quals: &[(&Pred, Vec<Symbol>)],
    named: &[Symbol],
    funcs: &[Symbol],
    sig: &Signature,
) -> Vec<Pred> {
    // Group the candidates by sort; the first of each sort represents it.
    let mut reps: Vec<(Symbol, &Sort)> = Vec::new();
    let class = sig
        .candidates
        .iter()
        .map(|(c, sort)| {
            reps.iter()
                .position(|(_, s)| *s == sort)
                .unwrap_or_else(|| {
                    reps.push((*c, sort));
                    reps.len() - 1
                })
        })
        .collect();
    // The sort environment the signature describes, which sorts every
    // instance exactly as the scope does.
    let mut env = SortEnv::new();
    for (x, sort) in named.iter().zip(&sig.named) {
        if let Some(sort) = sort {
            env.bind(*x, sort.clone());
        }
    }
    for (c, sort) in &reps {
        env.bind(*c, (*sort).clone());
    }
    env.bind(Symbol::value_var(), sig.nu_sort.clone());
    for (f, fs) in funcs.iter().zip(&sig.funcs) {
        if let Some(fs) = fs {
            env.declare_func(*f, fs.clone());
        }
    }
    let mut walk = Walk {
        env,
        reps: reps.into_iter().map(|(c, _)| c).collect(),
        candidates: &sig.candidates,
        class,
        admissible: HashSet::new(),
        out: Vec::new(),
        seen: HashSet::new(),
    };
    for (pred, stars) in quals {
        walk.admissible.clear();
        if walk.sort_tuples((*pred).clone(), stars, &mut Vec::new()) {
            walk.instances((*pred).clone(), stars, &mut Vec::new());
        }
    }
    walk.out
}

/// One scope's instantiation: its candidates grouped into sort classes,
/// and the instances found so far.
struct Walk<'s> {
    env: SortEnv,
    /// One candidate per sort class.
    reps: Vec<Symbol>,
    candidates: &'s [(Symbol, Sort)],
    /// Each candidate's sort class.
    class: Vec<usize>,
    /// The current qualifier's sort-class prefixes that extend to a
    /// well-sorted instance.
    admissible: HashSet<Vec<usize>>,
    out: Vec<Pred>,
    /// Printed forms of `out`.
    seen: HashSet<String>,
}

impl Walk<'_> {
    /// Checks every tuple of sort classes for `stars` on the
    /// representatives, records each prefix of a well-sorted one, and
    /// returns whether there was one.
    fn sort_tuples(&mut self, partial: Pred, stars: &[Symbol], prefix: &mut Vec<usize>) -> bool {
        let Some((star, rest)) = stars.split_first() else {
            return self.env.wellsorted(&partial);
        };
        let mut any = false;
        for class in 0..self.reps.len() {
            prefix.push(class);
            let next = partial.subst(*star, &Expr::Var(self.reps[class]));
            if self.sort_tuples(next, rest, prefix) {
                self.admissible.insert(prefix.clone());
                any = true;
            }
            prefix.pop();
        }
        any
    }

    /// Substitutes the candidates for `stars`, the first star varying
    /// slowest, along admissible prefixes only, and keeps each instance
    /// that does not print like an earlier one.
    fn instances(&mut self, partial: Pred, stars: &[Symbol], prefix: &mut Vec<usize>) {
        let Some((star, rest)) = stars.split_first() else {
            if self.seen.insert(partial.to_string()) {
                self.out.push(partial);
            }
            return;
        };
        let candidates = self.candidates;
        for (i, (c, _)) in candidates.iter().enumerate() {
            prefix.push(self.class[i]);
            if self.admissible.contains(prefix.as_slice()) {
                self.instances(partial.subst(*star, &Expr::Var(*c)), rest, prefix);
            }
            prefix.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_pred, Expr};

    fn env() -> SortEnv {
        let mut env = SortEnv::new();
        env.bind(Symbol::new("i"), Sort::Int);
        env.bind(Symbol::new("j"), Sort::Int);
        env.bind(Symbol::new("flag"), Sort::Bool);
        env
    }

    fn qual(src: &str) -> Qualifier {
        Qualifier::new(src, parse_pred(src).unwrap())
    }

    fn printed(insts: &[Pred]) -> Vec<String> {
        insts.iter().map(Pred::to_string).collect()
    }

    #[test]
    fn no_star_qualifier_yields_itself() {
        let q = Qualifier::new("Pos", Pred::lt(Expr::int(0), Expr::nu()));
        let insts = instantiate_all(&[q], &env(), &Sort::Int);
        assert_eq!(insts, vec![Pred::lt(Expr::int(0), Expr::nu())]);
    }

    #[test]
    fn star_expands_over_int_vars_only() {
        let q = Qualifier::new("Le", Pred::le(Expr::Var(Symbol::star(0)), Expr::nu()));
        let insts = instantiate_all(&[q], &env(), &Sort::Int);
        // flag : bool is not a valid instantiation.
        assert_eq!(printed(&insts), ["(i <= VV)", "(j <= VV)"]);
    }

    #[test]
    fn ill_sorted_nu_yields_nothing() {
        let q = Qualifier::new("Le", Pred::le(Expr::Var(Symbol::star(0)), Expr::nu()));
        let insts = instantiate_all(&[q], &env(), &Sort::Bool);
        assert!(insts.is_empty());
    }

    #[test]
    fn two_stars_expand_pairwise() {
        let q = qual("_ <= VV && VV <= _");
        let insts = instantiate_all(&[q], &env(), &Sort::Int);
        assert_eq!(
            printed(&insts),
            [
                "((i <= VV) && (VV <= i))",
                "((i <= VV) && (VV <= j))",
                "((j <= VV) && (VV <= i))",
                "((j <= VV) && (VV <= j))",
            ]
        );
    }

    #[test]
    fn instantiate_all_dedupes() {
        let q1 = Qualifier::new("Pos", Pred::lt(Expr::int(0), Expr::nu()));
        let q2 = Qualifier::new("PosDup", Pred::lt(Expr::int(0), Expr::nu()));
        let all = instantiate_all(&[q1, q2], &env(), &Sort::Int);
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn star_only_under_a_measure_application() {
        let mut env = env();
        env.bind(Symbol::new("xs"), Sort::Obj(Symbol::new("list")));
        env.bind(Symbol::new("t"), Sort::Obj(Symbol::new("tree")));
        env.declare_func(
            Symbol::new("len"),
            FuncSort::new(vec![Sort::Obj(Symbol::new("list"))], Sort::Int),
        );
        let insts = instantiate_all(&[qual("VV <= len(_)")], &env, &Sort::Int);
        // Object sorts are mutually compatible, so the tree qualifies too;
        // the integers and the boolean do not.
        assert_eq!(printed(&insts), ["(VV <= len(t))", "(VV <= len(xs))"]);
    }

    #[test]
    fn qualifier_without_a_well_sorted_instance() {
        let quals = [qual("_ <= VV + _"), qual("0 < VV")];
        let mut qstar = Instantiator::new(&quals);
        assert!(qstar.instantiate(&env(), &Sort::Set).is_empty());
        assert_eq!(qstar.scopes(), 1);
        let mut sets = SortEnv::new();
        sets.bind(Symbol::new("s"), Sort::Set);
        assert_eq!(printed(qstar.instantiate(&sets, &Sort::Int)), ["(0 < VV)"]);
    }

    #[test]
    fn instance_of_two_qualifiers_keeps_the_first() {
        let quals = [qual("0 < VV"), qual("i <= VV"), qual("_ <= VV")];
        let insts = instantiate_all(&quals, &env(), &Sort::Int);
        assert_eq!(printed(&insts), ["(0 < VV)", "(i <= VV)", "(j <= VV)"]);
    }

    #[test]
    fn measure_sort_is_part_of_the_signature() {
        let quals = [qual("len(_) <= VV")];
        let mut qstar = Instantiator::new(&quals);
        let scope = |ret: Sort| {
            let mut env = SortEnv::new();
            env.bind(Symbol::new("xs"), Sort::Obj(Symbol::new("list")));
            env.declare_func(
                Symbol::new("len"),
                FuncSort::new(vec![Sort::Obj(Symbol::new("list"))], ret),
            );
            env
        };
        assert_eq!(
            printed(qstar.instantiate(&scope(Sort::Int), &Sort::Int)),
            ["(len(xs) <= VV)"]
        );
        assert!(qstar.instantiate(&scope(Sort::Set), &Sort::Int).is_empty());
        assert_eq!(qstar.scopes(), 2);
        // The first scope again is a memo hit.
        assert_eq!(qstar.instantiate(&scope(Sort::Int), &Sort::Int).len(), 1);
        assert_eq!(qstar.scopes(), 2);
    }

    #[test]
    fn named_variable_sort_is_part_of_the_signature() {
        // A qualifier naming a temporary directly: the temporary is not a
        // candidate, so only its sort tells the two scopes apart.
        let tmp = Symbol::new("tmp%1");
        let quals = [Qualifier::new("Tmp", Pred::le(Expr::Var(tmp), Expr::nu()))];
        let mut qstar = Instantiator::new(&quals);
        let scope = |sort: Sort| {
            let mut env = env();
            env.bind(tmp, sort);
            env
        };
        assert_eq!(qstar.instantiate(&scope(Sort::Int), &Sort::Int).len(), 1);
        assert!(qstar.instantiate(&scope(Sort::Bool), &Sort::Int).is_empty());
        assert_eq!(qstar.scopes(), 2);
    }
}
