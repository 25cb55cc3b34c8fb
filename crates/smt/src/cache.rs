//! A shared, lock-striped validity-query cache.
//!
//! The liquid fixpoint issues enormous numbers of implication queries,
//! many of them repeats (the same antecedent is checked against many
//! candidate qualifiers, and weakening re-checks constraints whose
//! relevant inputs did not change). Each [`crate::SmtSolver`] consults a
//! [`QueryCache`]; handing several solvers the *same* `Arc<QueryCache>`
//! lets parallel fixpoint workers reuse each other's answers and keeps
//! the answers alive across fixpoint rounds and the final obligation
//! pass.
//!
//! Keys are the *structural* hash of the `(antecedent, consequent)` pair
//! (collisions resolved by full structural equality), replacing the old
//! per-query `format!("{lhs} |- {rhs}")` string key whose construction
//! cost grew with formula size.
//!
//! Only definite answers are stored: an `Unknown` under one budget may
//! well be decidable under a larger one, so it must never be replayed.

use dsolve_logic::Pred;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards. A power of two well above any
/// realistic worker count keeps contention negligible.
const SHARDS: usize = 64;

/// One shard's map: structural hash → entries colliding on that hash.
type ShardMap = HashMap<u64, Vec<(Pred, Pred, bool)>>;

/// One independently locked shard.
type Shard = Mutex<ShardMap>;

/// A concurrent memo table for validity queries.
///
/// # Examples
///
/// ```
/// use dsolve_logic::parse_pred;
/// use dsolve_smt::QueryCache;
///
/// let cache = QueryCache::new();
/// let a = parse_pred("x < y").unwrap();
/// let c = parse_pred("x <= y").unwrap();
/// assert_eq!(cache.get(&a, &c), None);
/// cache.insert(&a, &c, true);
/// assert_eq!(cache.get(&a, &c), Some(true));
/// ```
pub struct QueryCache {
    /// Shard `i` holds the entries whose structural hash maps to `i`.
    /// Buckets store the full key pair so hash collisions fall back to
    /// structural equality, never to a wrong verdict.
    shards: Vec<Shard>,
    poisoned: AtomicU64,
}

impl Default for QueryCache {
    fn default() -> QueryCache {
        QueryCache::new()
    }
}

impl QueryCache {
    /// Creates an empty cache.
    pub fn new() -> QueryCache {
        QueryCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            poisoned: AtomicU64::new(0),
        }
    }

    /// Locks shard `i`, recovering from poison.
    ///
    /// A cache shard only ever sees infallible map reads and pushes, so a
    /// panic on a thread that happened to hold the lock cannot leave a
    /// torn entry — the worst case is a missing insert. Recovering with
    /// `into_inner` (counted in [`QueryCache::poison_recoveries`]) keeps
    /// one quarantined worker's panic from cascading into every later
    /// query on the shared cache.
    fn lock_shard(&self, i: usize) -> std::sync::MutexGuard<'_, ShardMap> {
        self.shards[i].lock().unwrap_or_else(|e| {
            self.poisoned.fetch_add(1, Ordering::Relaxed);
            e.into_inner()
        })
    }

    /// Creates an empty cache behind a shareable handle.
    pub fn shared() -> Arc<QueryCache> {
        Arc::new(QueryCache::new())
    }

    /// The structural hash of a query (also selects the shard).
    fn key(antecedent: &Pred, consequent: &Pred) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        antecedent.hash(&mut h);
        consequent.hash(&mut h);
        h.finish()
    }

    /// Looks up the cached verdict for `antecedent ⇒ consequent`. The
    /// cache keeps no counts of its own: the querying solver records
    /// checks and hits in its job's metrics registry.
    pub fn get(&self, antecedent: &Pred, consequent: &Pred) -> Option<bool> {
        let key = QueryCache::key(antecedent, consequent);
        let shard = self.lock_shard((key as usize) % SHARDS);
        shard.get(&key).and_then(|bucket| {
            bucket
                .iter()
                .find(|(a, c, _)| a == antecedent && c == consequent)
                .map(|(_, _, v)| *v)
        })
    }

    /// Records a definite verdict. Racing inserts of the same query are
    /// harmless: the solver is deterministic, so both record the same
    /// answer and the duplicate is skipped.
    pub fn insert(&self, antecedent: &Pred, consequent: &Pred, valid: bool) {
        let key = QueryCache::key(antecedent, consequent);
        let mut shard = self.lock_shard((key as usize) % SHARDS);
        let bucket = shard.entry(key).or_default();
        if bucket
            .iter()
            .any(|(a, c, _)| a == antecedent && c == consequent)
        {
            return;
        }
        bucket.push((antecedent.clone(), consequent.clone(), valid));
    }

    /// Times a shard lock was found poisoned and recovered.
    pub fn poison_recoveries(&self) -> u64 {
        self.poisoned.load(Ordering::Relaxed)
    }

    /// Poisons every shard (see [`QueryCache::poison_shard`]), so the
    /// first cache access of any query recovers a poisoned lock. Used by
    /// the `cache-poison` fault point, where poisoning one arbitrary
    /// shard could miss a short run's entire key range.
    pub fn poison_all_shards(&self) {
        for i in 0..SHARDS {
            self.poison_shard(i);
        }
    }

    /// Deliberately poisons shard `i % SHARDS` by panicking while holding
    /// its lock (the panic is caught here). Fault-injection hook for the
    /// `cache-poison` fault point and the recovery tests.
    pub fn poison_shard(&self, i: usize) {
        let shard = &self.shards[i % SHARDS];
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = shard.lock().unwrap_or_else(|e| e.into_inner());
            panic!("injected cache-shard poison");
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsolve_logic::parse_pred;

    /// Entries stored across every shard.
    fn stored(cache: &QueryCache) -> usize {
        cache
            .shards
            .iter()
            .map(|s| s.lock().unwrap().values().map(Vec::len).sum::<usize>())
            .sum()
    }

    #[test]
    fn get_insert_roundtrip() {
        let cache = QueryCache::new();
        let a = parse_pred("x < y").unwrap();
        let c = parse_pred("x <= y").unwrap();
        assert_eq!(cache.get(&a, &c), None);
        cache.insert(&a, &c, true);
        assert_eq!(cache.get(&a, &c), Some(true));
        // Direction matters: the reversed query is distinct.
        assert_eq!(cache.get(&c, &a), None);
    }

    #[test]
    fn duplicate_insert_is_ignored() {
        let cache = QueryCache::new();
        let a = parse_pred("x = 1").unwrap();
        let c = parse_pred("x >= 1").unwrap();
        cache.insert(&a, &c, true);
        // A second insert of the same query keeps the first entry.
        cache.insert(&a, &c, false);
        assert_eq!(cache.get(&a, &c), Some(true));
        assert_eq!(stored(&cache), 1);
    }

    #[test]
    fn poisoned_shard_recovers() {
        let cache = QueryCache::new();
        let a = parse_pred("x < y").unwrap();
        let c = parse_pred("x <= y").unwrap();
        cache.insert(&a, &c, true);
        // Poison every shard so the one holding (a, c) is hit for sure.
        for i in 0..64 {
            cache.poison_shard(i);
        }
        assert_eq!(cache.get(&a, &c), Some(true), "entry survives poison");
        cache.insert(&c, &a, false);
        assert_eq!(cache.get(&c, &a), Some(false), "inserts work after poison");
        assert!(cache.poison_recoveries() >= 1);
    }

    #[test]
    fn concurrent_use_is_consistent() {
        let cache = QueryCache::shared();
        let preds: Vec<_> = (0..32)
            .map(|i| parse_pred(&format!("x = {i}")).unwrap())
            .collect();
        let c = parse_pred("0 <= x").unwrap();
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                let preds = &preds;
                let c = &c;
                s.spawn(move || {
                    for (i, a) in preds.iter().enumerate() {
                        cache.insert(a, c, i % 2 == t % 2);
                        assert!(cache.get(a, c).is_some());
                    }
                });
            }
        });
        assert_eq!(stored(&cache), 32);
    }
}
