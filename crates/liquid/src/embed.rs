//! The embedding cache: each environment node's logical embedding,
//! concretized once per change of the κ lists it reads.
//!
//! Constraints snapshot the persistent `LiquidEnv` list, so they share
//! almost all of their nodes: over one pass of the `fleet` benchmark,
//! the environments of the weakening constraints hold 332 817 items but
//! only 12 010 distinct nodes. Re-embedding every constraint's whole
//! environment on every check repeats the same concretization thousands
//! of times, so the solver keeps one `EmbedCache` entry per node
//! instead, keyed by the node's address (stable while the constraints
//! are borrowed).
//!
//! An entry holds the node's conjuncts as `LiquidEnv::embed` produces
//! them *before* its sort filter, with each conjunct's free variables,
//! and a stamp: the length of every κ list the node's refinement read. A
//! κ's list only ever shrinks — both fixpoint drivers replace it only by
//! a strictly shorter list, and quarantine empties it — so an unchanged
//! length means an unchanged list, and the entry is reused; otherwise
//! the node is re-concretized.
//!
//! The sort filter runs per check under the *constraint's* sort
//! environment, later and shadowing bindings included, exactly as
//! `embed` does. The antecedent, its pruned form and the left side are
//! therefore structurally equal to the ones built from scratch, so the
//! SMT layer sees the same queries and the same cache keys.

use crate::constraint::SubC;
use crate::env::{EnvItem, GlobalEnv};
use crate::measure::sort_of_mltype;
use crate::rtype::{KVar, RefAtom, Refinement};
use dsolve_logic::{Expr, Pred, Sort, SortEnv, Symbol};
use std::collections::{BTreeSet, HashMap};
use std::marker::PhantomData;

/// A read view over the assignment: a base map plus (in workers) a local
/// overlay holding this partition's own weakenings.
pub(crate) struct View<'a> {
    pub(crate) base: &'a HashMap<KVar, Vec<Pred>>,
    pub(crate) local: Option<&'a HashMap<KVar, Vec<Pred>>>,
}

impl<'a> View<'a> {
    /// The current qualifier list of `k` (empty when unassigned).
    pub(crate) fn get(&self, k: KVar) -> &'a [Pred] {
        self.local
            .and_then(|local| local.get(&k))
            .or_else(|| self.base.get(&k))
            .map_or(&[], Vec::as_slice)
    }

    /// The solved refinement of `k` as a single predicate.
    pub(crate) fn pred_of(&self, k: KVar) -> Pred {
        Pred::and(self.get(k).to_vec())
    }
}

/// One conjunct of a node's embedding. The sort filter keeps or drops
/// it whole; `Pred::and` then splices a nested conjunction's elements
/// into the antecedent.
enum Conjunct {
    /// A conjunct kept as is, with its free variables.
    One(Pred, Box<[Symbol]>),
    /// The elements of a nested `And`, each with its free variables.
    Nested(Vec<Pred>, Vec<Box<[Symbol]>>),
}

/// One environment node's embedding under the κ lists it was built from.
struct NodeEmbed {
    /// The sort a monomorphic value binding gives its name.
    sort: Option<(Symbol, Sort)>,
    /// Each κ the node's refinement reads, with its list's length at
    /// build time.
    stamp: Box<[(KVar, usize)]>,
    /// Whether a conjunct is `false`: `Pred::and` then collapses every
    /// antecedent holding this node to `false` (and `conjuncts` is empty).
    falsum: bool,
    /// The conjuncts, in `embed`'s order, not yet sort-filtered.
    conjuncts: Box<[Conjunct]>,
}

impl NodeEmbed {
    fn build(item: &EnvItem, view: &View<'_>) -> NodeEmbed {
        let mut sort = None;
        let mut stamp = Box::default();
        let p = match item {
            EnvItem::Bind(x, s) if s.vars.is_empty() => {
                sort = Some((*x, sort_of_mltype(&s.ty.shape())));
                let r = s.ty.refinement();
                stamp = r
                    .kvars()
                    .into_iter()
                    .map(|k| (k, view.get(k).len()))
                    .collect();
                concretize(&r, view).subst_nu(&Expr::Var(*x))
            }
            EnvItem::Bind(..) => Pred::True,
            EnvItem::Guard(p) => p.clone(),
        };
        let p = p.conjuncts();
        let mut falsum = false;
        let mut conjuncts = Vec::with_capacity(p.len());
        for c in p {
            match c {
                Pred::True => {}
                Pred::False => falsum = true,
                Pred::And(ps) => {
                    let fvs = ps.iter().map(free_vars).collect();
                    conjuncts.push(Conjunct::Nested(ps, fvs));
                }
                c => {
                    let fv = free_vars(&c);
                    conjuncts.push(Conjunct::One(c, fv));
                }
            }
        }
        if falsum {
            conjuncts.clear();
        }
        NodeEmbed {
            sort,
            stamp,
            falsum,
            conjuncts: conjuncts.into_boxed_slice(),
        }
    }

    /// Whether every κ list the entry read still has its stamped length.
    fn fresh(&self, view: &View<'_>) -> bool {
        self.stamp.iter().all(|&(k, len)| {
            let now = view.get(k).len();
            debug_assert!(now <= len, "{k}'s list grew from {len} to {now}");
            now == len
        })
    }
}

/// Per-node embeddings, shared by every constraint whose environment
/// holds the node. One cache serves one fixpoint worker: its stamps are
/// only exact against a single, shrink-only history of the assignment.
#[derive(Default)]
pub(crate) struct EmbedCache<'s> {
    /// Entry index per node address. The constraints stay borrowed for
    /// `'s`, so no keyed node is freed and no address reused meanwhile.
    slot: HashMap<usize, usize>,
    entries: Vec<NodeEmbed>,
    /// Nodes concretized: first embeddings plus rebuilds after a κ shrank.
    pub(crate) built: u64,
    /// Node embeddings served from a still-fresh entry.
    pub(crate) reused: u64,
    constraints: PhantomData<&'s SubC>,
}

impl<'s> EmbedCache<'s> {
    /// Embeds `c`'s environment and left side under `view`, reusing every
    /// node entry whose κ lists have not shrunk since it was built.
    pub(crate) fn embed<'c>(
        &'c mut self,
        genv: &GlobalEnv,
        c: &'s SubC,
        view: &View<'_>,
    ) -> Embedding<'c> {
        let nodes = c.env.nodes();
        let mut slots = Vec::with_capacity(nodes.len());
        for node in nodes {
            let key = std::ptr::from_ref(node) as usize;
            let slot = match self.slot.get(&key) {
                Some(&i) if self.entries[i].fresh(view) => {
                    self.reused += 1;
                    i
                }
                Some(&i) => {
                    self.entries[i] = NodeEmbed::build(&node.item, view);
                    self.built += 1;
                    i
                }
                None => {
                    self.entries.push(NodeEmbed::build(&node.item, view));
                    self.slot.insert(key, self.entries.len() - 1);
                    self.built += 1;
                    self.entries.len() - 1
                }
            };
            slots.push(slot);
        }
        // `LiquidEnv::sort_env`, from the entries.
        let mut sorts = genv.base_sorts.clone();
        for &i in &slots {
            if let Some((x, sort)) = &self.entries[i].sort {
                sorts.bind(*x, sort.clone());
            }
        }
        let falsum = slots.iter().any(|&i| self.entries[i].falsum);
        let mut parts = Vec::new();
        if !falsum {
            for &i in &slots {
                for conjunct in &self.entries[i].conjuncts {
                    match conjunct {
                        Conjunct::One(p, fv) => {
                            if sorts.wellsorted(p) {
                                parts.push((p, &**fv));
                            }
                        }
                        Conjunct::Nested(ps, fvs) => {
                            if ps.iter().all(|p| sorts.wellsorted(p)) {
                                parts.extend(ps.iter().zip(fvs.iter().map(|fv| &**fv)));
                            }
                        }
                    }
                }
            }
        }
        sorts.bind(Symbol::value_var(), sort_of_mltype(&c.nu_shape));
        let lhs = filter_wellsorted(&sorts, concretize(&c.lhs, view));
        Embedding {
            sorts,
            lhs,
            falsum,
            parts,
        }
    }

    /// The most builds this cache can have needed: one per node it holds,
    /// plus one per later shrink of each κ the node reads (`shrinks`
    /// counts each κ's shrinks over the run).
    pub(crate) fn build_bound(&self, shrinks: &HashMap<KVar, u64>) -> u64 {
        self.entries
            .iter()
            .map(|e| {
                let mut ks: Vec<KVar> = e.stamp.iter().map(|&(k, _)| k).collect();
                ks.sort_unstable();
                ks.dedup();
                1 + ks
                    .iter()
                    .map(|k| shrinks.get(k).copied().unwrap_or(0))
                    .sum::<u64>()
            })
            .sum()
    }
}

/// One constraint's embedding, borrowed from the cache.
pub(crate) struct Embedding<'c> {
    /// The constraint's sort environment, `ν` included.
    pub(crate) sorts: SortEnv,
    /// The left side, concretized and sort-filtered.
    pub(crate) lhs: Pred,
    /// Whether a `false` conjunct collapses the antecedent.
    falsum: bool,
    /// The antecedent's conjuncts (after `Pred::and`'s flattening) with
    /// their free variables; unused when `falsum` is set.
    parts: Vec<(&'c Pred, &'c [Symbol])>,
}

impl Embedding<'_> {
    /// The environment's antecedent, equal to `LiquidEnv::embed`'s.
    pub(crate) fn antecedent(&self) -> Pred {
        if self.falsum {
            return Pred::False;
        }
        match self.parts.as_slice() {
            [] => Pred::True,
            [(p, _)] => (*p).clone(),
            parts => Pred::And(parts.iter().map(|(p, _)| (*p).clone()).collect()),
        }
    }

    /// The antecedent restricted to the conjuncts transitively sharing
    /// variables with `seeds`, which grows to their closure. Variable-free
    /// conjuncts such as `false` are always kept, and an antecedent of at
    /// most 12 conjuncts is kept whole.
    pub(crate) fn pruned(&self, seeds: &mut BTreeSet<Symbol>) -> Pred {
        if self.falsum {
            return Pred::False;
        }
        // A lone nested conjunction is the antecedent itself, so its
        // elements are the conjuncts to prune.
        if let [(Pred::And(ps), _)] = self.parts.as_slice() {
            let fvs: Vec<Box<[Symbol]>> = ps.iter().map(free_vars).collect();
            let conjuncts: Vec<(&Pred, &[Symbol])> =
                ps.iter().zip(fvs.iter().map(|fv| &**fv)).collect();
            return prune(&conjuncts, seeds);
        }
        prune(&self.parts, seeds)
    }
}

/// Keeps the conjuncts transitively relevant to the seed variables.
fn prune(conjuncts: &[(&Pred, &[Symbol])], seeds: &mut BTreeSet<Symbol>) -> Pred {
    if conjuncts.len() <= 12 {
        return Pred::and(conjuncts.iter().map(|(p, _)| (*p).clone()).collect());
    }
    // Variable-free conjuncts carry reachability information (`false`).
    let mut keep: Vec<bool> = conjuncts.iter().map(|(_, fv)| fv.is_empty()).collect();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, (_, fv)) in conjuncts.iter().enumerate() {
            if !keep[i] && fv.iter().any(|v| seeds.contains(v)) {
                keep[i] = true;
                seeds.extend(fv.iter().copied());
                changed = true;
            }
        }
    }
    Pred::and(
        conjuncts
            .iter()
            .zip(keep)
            .filter(|(_, k)| *k)
            .map(|((p, _), _)| (*p).clone())
            .collect(),
    )
}

fn free_vars(p: &Pred) -> Box<[Symbol]> {
    p.free_vars().into_iter().collect()
}

/// `Refinement::concretize` under `view`, substituting into each
/// qualifier of a κ's list directly instead of into a copy of their
/// conjunction (equal, since substitution preserves every constructor).
fn concretize(r: &Refinement, view: &View<'_>) -> Pred {
    Pred::and(
        r.atoms
            .iter()
            .map(|(s, a)| match a {
                RefAtom::Conc(p) => s.apply_pred(p),
                RefAtom::KVar(k) => {
                    Pred::and(view.get(*k).iter().map(|q| s.apply_pred(q)).collect())
                }
            })
            .collect(),
    )
}

/// Drops `p`'s ill-sorted conjuncts.
pub(crate) fn filter_wellsorted(sorts: &SortEnv, p: Pred) -> Pred {
    Pred::and(
        p.conjuncts()
            .into_iter()
            .filter(|c| sorts.wellsorted(c))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraint::Origin;
    use crate::env::LiquidEnv;
    use crate::measure::MeasureEnv;
    use crate::rtype::{BaseTy, RType};
    use dsolve_logic::{parse_pred, Subst};
    use dsolve_nanoml::{DataEnv, MlType};
    use proptest::prelude::*;

    /// The pruning routine the cache replaced, kept as its oracle.
    fn prune_conjuncts(p: Pred, seeds: &mut BTreeSet<Symbol>) -> Pred {
        let conjuncts = p.conjuncts();
        if conjuncts.len() <= 12 {
            return Pred::and(conjuncts);
        }
        let fvs: Vec<BTreeSet<Symbol>> = conjuncts.iter().map(Pred::free_vars).collect();
        let mut keep = vec![false; conjuncts.len()];
        for (i, fv) in fvs.iter().enumerate() {
            if fv.is_empty() {
                keep[i] = true;
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for (i, fv) in fvs.iter().enumerate() {
                if keep[i] || fv.is_empty() {
                    continue;
                }
                if fv.iter().any(|v| seeds.contains(v)) {
                    keep[i] = true;
                    seeds.extend(fv.iter().copied());
                    changed = true;
                }
            }
        }
        Pred::and(
            conjuncts
                .into_iter()
                .zip(keep)
                .filter_map(|(c, k)| if k { Some(c) } else { None })
                .collect(),
        )
    }

    const VARS: [&str; 4] = ["a", "b", "c", "d"];

    fn pred(src: &str) -> Pred {
        parse_pred(src).unwrap()
    }

    /// A concrete predicate by code: well-sorted and ill-sorted atoms,
    /// `true`, `false`, and nested conjunctions.
    fn conc(code: u8, v: usize) -> Pred {
        let x = VARS[v % 4];
        let y = VARS[(v + 1) % 4];
        match code % 10 {
            0 => pred(&format!("{x} < {y}")),
            1 => pred(&format!("0 <= {x}")),
            2 => pred(&format!("VV = {x} + 1")),
            3 => Pred::True,
            4 => Pred::False,
            5 => Pred::And(vec![
                pred(&format!("{x} <= VV")),
                Pred::And(vec![pred("0 < VV"), Pred::True]),
            ]),
            // Ill-sorted wherever `x` is not a map.
            6 => pred(&format!("Sel({x}, VV) = 1")),
            7 => pred("VV != 3"),
            8 => Pred::And(vec![pred(&format!("{y} = VV")), pred(&format!("{x} < 2"))]),
            // As the only guard, its one nested element is the whole
            // antecedent.
            _ => Pred::And(vec![Pred::And(vec![Pred::And(vec![
                pred(&format!("{x} <= VV")),
                Pred::True,
                pred("0 < VV"),
            ])])]),
        }
    }

    /// A qualifier list: strictly shrinkable, over `ν` and the variables.
    fn quals(k: usize, codes: &[u8]) -> Vec<Pred> {
        let mut out = vec![
            pred("0 < VV"),
            pred("0 <= VV"),
            pred(&format!("{} <= VV", VARS[k % 4])),
            pred(&format!("VV < {}", VARS[(k + 2) % 4])),
            pred("VV != 0"),
        ];
        for &c in codes {
            out.push(conc(c, k + c as usize));
        }
        out
    }

    /// An environment item by code: κ-refined bindings (one or two κs
    /// under pending substitutions), concrete bindings, guards, and
    /// re-bindings of a name at another sort.
    fn extend(env: LiquidEnv, item: (u8, u8, u8, u8), ks: &[KVar]) -> LiquidEnv {
        let (kind, v, k, code) = item;
        let x = Symbol::new(VARS[v as usize % 4]);
        let theta = Subst::single(
            Symbol::new(VARS[(v as usize + 1) % 4]),
            Expr::var(VARS[(v as usize + 2) % 4]),
        );
        let katom = |i: u8, s: &Subst| (s.clone(), RefAtom::KVar(ks[i as usize % ks.len()]));
        match kind % 7 {
            0 => env.bind(
                x,
                RType::Base(
                    BaseTy::Int,
                    Refinement {
                        atoms: vec![katom(k, &theta)],
                    },
                ),
            ),
            1 => env.bind(
                x,
                RType::Base(
                    BaseTy::Int,
                    Refinement {
                        atoms: vec![
                            (Subst::new(), RefAtom::Conc(conc(code, v as usize))),
                            katom(k, &Subst::new()),
                            katom(k + 1, &theta),
                        ],
                    },
                ),
            ),
            2 => env.bind(
                x,
                RType::Base(
                    BaseTy::Int,
                    Refinement {
                        atoms: vec![(Subst::new(), RefAtom::Conc(conc(code, v as usize)))],
                    },
                ),
            ),
            3 => env.guard(conc(code, v as usize).subst_nu(&Expr::var(VARS[(v as usize + 3) % 4]))),
            // The same name re-bound at another sort: earlier conjuncts
            // over it become ill-sorted in the constraint's scope.
            4 => env.bind(x, RType::Base(BaseTy::Bool, Refinement::top())),
            5 => env.bind(
                x,
                RType::Base(
                    BaseTy::Bool,
                    Refinement {
                        atoms: vec![katom(k, &theta)],
                    },
                ),
            ),
            _ => env.bind(x, RType::int()),
        }
    }

    /// Every cached result equals the from-scratch oracle under `assignment`.
    fn check_against_oracle<'s>(
        cache: &mut EmbedCache<'s>,
        genv: &GlobalEnv,
        subs: &'s [SubC],
        assignment: &HashMap<KVar, Vec<Pred>>,
        seed_sets: &[Vec<usize>],
    ) {
        let view = View {
            base: assignment,
            local: None,
        };
        let lookup = |k: KVar| view.pred_of(k);
        for c in subs {
            let (mut sorts, antecedent) = c.env.embed(genv, &lookup);
            sorts.bind(Symbol::value_var(), sort_of_mltype(&c.nu_shape));
            let lhs = filter_wellsorted(&sorts, c.lhs.concretize(&lookup));
            let emb = cache.embed(genv, c, &view);
            let mut bound: Vec<_> = emb.sorts.vars().collect();
            let mut expected: Vec<_> = sorts.vars().collect();
            bound.sort_by_key(|(x, _)| **x);
            expected.sort_by_key(|(x, _)| **x);
            assert_eq!(bound, expected);
            assert_eq!(emb.antecedent(), antecedent);
            assert_eq!(emb.lhs, lhs);
            for set in seed_sets {
                let seeds: BTreeSet<Symbol> =
                    set.iter().map(|&v| Symbol::new(VARS[v % 4])).collect();
                assert_eq!(
                    emb.pruned(&mut seeds.clone()),
                    prune_conjuncts(antecedent.clone(), &mut seeds.clone()),
                    "seeds {seeds:?}"
                );
            }
        }
    }

    fn sub(env: LiquidEnv) -> SubC {
        SubC {
            env,
            nu_shape: MlType::Int,
            lhs: Refinement::top(),
            rhs: Refinement::top(),
            origin: Origin::Flow("test"),
        }
    }

    /// A lone nested conjunction is the whole antecedent, so pruning
    /// sees its elements, normalized by `Pred::and`.
    #[test]
    fn a_lone_nested_conjunction_is_pruned_element_wise() {
        let genv = GlobalEnv::new(DataEnv::with_builtins(), MeasureEnv::new());
        let a = Symbol::new("a");
        let env = LiquidEnv::new()
            .bind(a, RType::int())
            .guard(conc(9, 0).subst_nu(&Expr::Var(a)));
        let mut cache = EmbedCache::default();
        check_against_oracle(
            &mut cache,
            &genv,
            &[sub(env)],
            &HashMap::new(),
            &[vec![], vec![0]],
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The cached antecedent, pruned antecedent and left side equal
        /// `LiquidEnv::embed`, `prune_conjuncts` and `filter_wellsorted`
        /// after every step of a random shrink sequence.
        #[test]
        fn embed_cache_matches_oracle(
            items in prop::collection::vec((0u8..7, 0u8..4, 0u8..3, 0u8..10), 1..28),
            extra in prop::collection::vec(0u8..10, 0..4),
            steps in prop::collection::vec((0u8..3, 0u8..4, any::<u64>()), 1..8),
            seed_sets in prop::collection::vec(prop::collection::vec(0usize..4, 0..3), 1..4),
        ) {
            let genv = GlobalEnv::new(DataEnv::with_builtins(), MeasureEnv::new());
            let ks: Vec<KVar> = (0..3).map(|_| KVar::fresh()).collect();
            let mut assignment: HashMap<KVar, Vec<Pred>> =
                ks.iter().enumerate().map(|(i, &k)| (k, quals(i, &extra))).collect();
            // One constraint per prefix of one environment: they share
            // its nodes.
            let mut subs = Vec::new();
            let mut env = LiquidEnv::new();
            for (i, &item) in items.iter().enumerate() {
                env = extend(env, item, &ks);
                let kvar = (Subst::single(Symbol::new("a"), Expr::var("b")), RefAtom::KVar(ks[i % 3]));
                subs.push(SubC {
                    lhs: Refinement {
                        atoms: vec![(Subst::new(), RefAtom::Conc(conc(item.3, i))), kvar],
                    },
                    ..sub(env.clone())
                });
            }
            let mut cache = EmbedCache::default();
            check_against_oracle(&mut cache, &genv, &subs, &assignment, &seed_sets);
            for (kind, k, bits) in steps {
                let list = assignment.get_mut(&ks[k as usize % 3]).unwrap();
                match kind {
                    // Quarantine: the list empties.
                    0 => list.clear(),
                    // Drop one qualifier, and each other one with
                    // probability 1/4.
                    _ if !list.is_empty() => {
                        let first = bits as usize % list.len();
                        let mut i = 0;
                        list.retain(|_| {
                            i += 1;
                            i - 1 != first && (bits >> (2 * i % 64)) & 3 != 0
                        });
                    }
                    _ => {}
                }
                check_against_oracle(&mut cache, &genv, &subs, &assignment, &seed_sets);
            }
            prop_assert!(cache.reused > 0);
        }
    }
}
