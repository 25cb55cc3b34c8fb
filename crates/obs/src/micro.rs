//! The thread-local work accumulator: per-theory time and theory
//! micro-counters.
//!
//! The theory engines and the theory layer's entry points (free
//! functions such as `check_assignment`) run with no registry handle in
//! scope, so they time themselves against a [`TheoryKind`] and count
//! work items (pivots, merges, decisions …) into one thread-local
//! accumulator. The enclosing SMT query drains it once into the owning
//! [`crate::Obs`] registry when it records itself. Residue left by a
//! query that never records (e.g. a standalone session check in a unit
//! test) is simply attributed to the next query on the same thread —
//! bounded, and irrelevant in the pipeline where every charged query
//! records.
//!
//! The engines keep plain `u64` fields for their hot loops and flush
//! deltas here once per public solve call, so the per-operation cost is
//! an ordinary field increment, not a TLS access. High-water counters
//! ([`MicroCounter::is_high_water`]) merge by `max` rather than
//! summing, both here and registry-side.

use crate::metrics::{MicroCounter, TheoryKind, NMICRO, NTHEORIES};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// One thread's accumulated theory work, as [`drain`] hands it over.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Work {
    /// Nanoseconds per theory, indexed by [`TheoryKind`].
    pub theory_ns: [u64; NTHEORIES],
    /// Work items per counter, indexed by [`MicroCounter`].
    pub micro: [u64; NMICRO],
}

struct Acc {
    theory_ns: Cell<[u64; NTHEORIES]>,
    micro: Cell<[u64; NMICRO]>,
}

thread_local! {
    static ACC: Acc = const {
        Acc {
            theory_ns: Cell::new([0; NTHEORIES]),
            micro: Cell::new([0; NMICRO]),
        }
    };
}

/// Global switch for the theory timers and the micro-counters. On by
/// default; the overhead guard flips it off to measure an
/// un-instrumented baseline.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Enables or disables the accumulator globally.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the accumulator is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Times `f` against `kind`. When disabled this is a single relaxed
/// load plus the call.
#[inline]
pub fn time<T>(kind: TheoryKind, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start = Instant::now();
    let r = f();
    let ns = start.elapsed().as_nanos() as u64;
    ACC.with(|acc| {
        let mut a = acc.theory_ns.get();
        a[kind.index()] += ns;
        acc.theory_ns.set(a);
    });
    r
}

/// Adds `n` work items to the calling thread's accumulator for `c`.
/// A no-op when `n` is zero or the global switch is off.
#[inline]
pub fn add(c: MicroCounter, n: u64) {
    if n == 0 || !enabled() {
        return;
    }
    ACC.with(|acc| {
        let mut a = acc.micro.get();
        a[c.index()] += n;
        acc.micro.set(a);
    });
}

/// Raises the calling thread's high-water mark for `c` to at least `v`.
#[inline]
pub fn record_max(c: MicroCounter, v: u64) {
    if v == 0 || !enabled() {
        return;
    }
    ACC.with(|acc| {
        let mut a = acc.micro.get();
        let cell = &mut a[c.index()];
        if v > *cell {
            *cell = v;
            acc.micro.set(a);
        }
    });
}

/// Takes and zeroes the calling thread's accumulator.
pub fn drain() -> Work {
    ACC.with(|acc| Work {
        theory_ns: acc.theory_ns.replace([0; NTHEORIES]),
        micro: acc.micro.replace([0; NMICRO]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable switch is global; serialize the tests that toggle it.
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn add_accumulates_and_drains() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        drain();
        add(MicroCounter::SatDecisions, 3);
        add(MicroCounter::SatDecisions, 2);
        record_max(MicroCounter::SimplexBbMaxDepth, 4);
        record_max(MicroCounter::SimplexBbMaxDepth, 1);
        let w = drain();
        assert_eq!(w.micro[MicroCounter::SatDecisions.index()], 5);
        assert_eq!(w.micro[MicroCounter::SimplexBbMaxDepth.index()], 4);
        assert_eq!(drain(), Work::default());
    }

    #[test]
    fn time_accumulates_and_drains() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        drain();
        let v = time(TheoryKind::Euf, || {
            std::thread::sleep(std::time::Duration::from_millis(1));
            41 + 1
        });
        assert_eq!(v, 42);
        let w = drain();
        assert!(w.theory_ns[TheoryKind::Euf.index()] >= 1_000_000);
        assert_eq!(w.micro, [0; NMICRO]);
        assert_eq!(drain(), Work::default());
    }

    #[test]
    fn disabled_accumulator_records_nothing() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        drain();
        set_enabled(false);
        add(MicroCounter::EufMerges, 7);
        record_max(MicroCounter::SimplexBbMaxDepth, 7);
        time(TheoryKind::Simplex, || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        set_enabled(true);
        assert_eq!(drain(), Work::default());
    }
}
