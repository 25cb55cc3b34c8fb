//! Query provenance: where an SMT query came from, and a sharded cost
//! table aggregating solver time per originating constraint.
//!
//! The liquid solver stamps each solver handle with a [`QueryOrigin`]
//! before discharging a constraint; the SMT layer attributes every
//! *solved* query (cache hits cost nothing and are not attributed) to
//! that origin in the [`CostTable`]. `--stats` renders the top-K and
//! the trace names each query event after the origin label.

use crate::metrics::{MicroCounter, NMICRO};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Identity of the program point a query discharges.
#[derive(Clone, Debug)]
pub struct QueryOrigin {
    /// Index of the subtyping constraint or obligation in the split
    /// constraint list.
    pub constraint: u32,
    /// Human-readable NanoML source location, rendered from the
    /// constraint's `Origin` (e.g. `assert on line 12`,
    /// ``argument of `insert` ``).
    pub label: Arc<str>,
    /// Fixpoint round the query was issued in (0 before the first
    /// round and during obligation checking).
    pub round: u64,
    /// Worker index that issued the query (0 under `--jobs 1`).
    pub worker: u32,
}

/// Aggregated cost of one originating constraint.
#[derive(Clone, Debug)]
pub struct ConstraintCost {
    /// Constraint index.
    pub constraint: u32,
    /// Source label (see [`QueryOrigin::label`]).
    pub label: String,
    /// Total solver wall time attributed, nanoseconds.
    pub total_ns: u64,
    /// Solved queries attributed.
    pub queries: u64,
    /// Per-theory work-item counts attributed, indexed by
    /// [`MicroCounter`] (high-water entries hold the per-query max).
    pub micro: [u64; NMICRO],
}

#[derive(Default)]
struct Cost {
    ns: u64,
    queries: u64,
    label: Option<Arc<str>>,
    micro: [u64; NMICRO],
}

const COST_SHARDS: usize = 16;

/// Lock-striped map from constraint index to accumulated solver cost.
/// Sharded by constraint index so parallel workers discharging
/// different constraints rarely contend.
pub struct CostTable {
    shards: [Mutex<HashMap<u32, Cost>>; COST_SHARDS],
}

impl Default for CostTable {
    fn default() -> Self {
        CostTable {
            shards: [(); COST_SHARDS].map(|_| Mutex::new(HashMap::new())),
        }
    }
}

impl CostTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        CostTable::default()
    }

    /// Attributes `ns` nanoseconds of solver time and one query's
    /// drained micro-counters to `origin`.
    pub fn add(&self, origin: &QueryOrigin, ns: u64, micro: &[u64; NMICRO]) {
        let shard = &self.shards[origin.constraint as usize % COST_SHARDS];
        let mut map = shard.lock().unwrap_or_else(|e| e.into_inner());
        let cost = map.entry(origin.constraint).or_default();
        cost.ns += ns;
        cost.queries += 1;
        for (c, (acc, &v)) in MicroCounter::ALL
            .iter()
            .zip(cost.micro.iter_mut().zip(micro))
        {
            if c.is_high_water() {
                *acc = (*acc).max(v);
            } else {
                *acc += v;
            }
        }
        if cost.label.is_none() {
            cost.label = Some(Arc::clone(&origin.label));
        }
    }

    /// The `k` most expensive constraints by attributed time, ties
    /// broken by constraint index so equal-cost entries order
    /// deterministically.
    pub fn top(&self, k: usize) -> Vec<ConstraintCost> {
        let mut all: Vec<ConstraintCost> = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().unwrap_or_else(|e| e.into_inner());
            all.extend(map.iter().map(|(&constraint, cost)| ConstraintCost {
                constraint,
                label: cost.label.as_deref().unwrap_or("<unknown>").to_string(),
                total_ns: cost.ns,
                queries: cost.queries,
                micro: cost.micro,
            }));
        }
        all.sort_by(|a, b| {
            b.total_ns
                .cmp(&a.total_ns)
                .then(a.constraint.cmp(&b.constraint))
        });
        all.truncate(k);
        all
    }

    /// Total attributed time and query count across all constraints.
    pub fn totals(&self) -> (u64, u64) {
        let mut ns = 0;
        let mut queries = 0;
        for shard in &self.shards {
            let map = shard.lock().unwrap_or_else(|e| e.into_inner());
            for cost in map.values() {
                ns += cost.ns;
                queries += cost.queries;
            }
        }
        (ns, queries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin(c: u32, label: &str) -> QueryOrigin {
        QueryOrigin {
            constraint: c,
            label: Arc::from(label),
            round: 0,
            worker: 0,
        }
    }

    #[test]
    fn top_sorts_by_time_then_index() {
        let t = CostTable::new();
        let zero = [0u64; NMICRO];
        t.add(&origin(3, "c3"), 50, &zero);
        t.add(&origin(1, "c1"), 100, &zero);
        t.add(&origin(2, "c2"), 100, &zero);
        let top = t.top(2);
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].constraint, top[0].total_ns), (1, 100));
        assert_eq!((top[1].constraint, top[1].total_ns), (2, 100));
        assert_eq!(t.totals(), (250, 3));
    }

    #[test]
    fn accumulates_per_constraint() {
        let t = CostTable::new();
        let mut micro = [0u64; NMICRO];
        micro[MicroCounter::SimplexPivots.index()] = 2;
        micro[MicroCounter::SimplexBbMaxDepth.index()] = 3;
        for i in 0..4 {
            micro[MicroCounter::SimplexBbMaxDepth.index()] = 3 - (i % 2);
            t.add(&origin(7, "assert on line 9"), 10, &micro);
        }
        let top = t.top(5);
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].queries, 4);
        assert_eq!(top[0].total_ns, 40);
        assert_eq!(top[0].label, "assert on line 9");
        assert_eq!(top[0].micro[MicroCounter::SimplexPivots.index()], 8);
        assert_eq!(top[0].micro[MicroCounter::SimplexBbMaxDepth.index()], 3);
    }
}
