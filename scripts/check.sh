#!/bin/bash
# Offline repository health check: release build, full test suite, and
# lints, in that order. Needs no network — criterion/proptest are
# vendored stubs and the benches are feature-gated.
set -e
cd "$(dirname "$0")/.."

# One jobs setting for every dsolve invocation below, so the smoke suite
# actually exercises the parallel fixpoint on multi-core hosts (and a
# single knob pins it: JOBS=1 ./scripts/check.sh for a sequential run).
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 1)}"
echo "== jobs: $JOBS"

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test --workspace -q"
cargo test --workspace -q

# The incremental-vs-scratch differential suites also run above as part
# of the workspace tests; rerun them by name so a failure is unmissable.
# (Use --features slow-proptest for a deeper local soak.)
echo "== cargo test -p dsolve-smt --test incremental_vs_scratch --test theory_oracles"
cargo test -p dsolve-smt --test incremental_vs_scratch --test theory_oracles

# The embedding cache against its oracle: after random κ shrinks, the
# cached antecedent, pruned antecedent and left side equal the ones
# built from scratch. By name for the same reason.
echo "== cargo test -p dsolve-liquid embed_cache_matches_oracle"
cargo test -p dsolve-liquid --lib embed_cache_matches_oracle

# Observability: registry/accounting invariants, trace validation, and
# the overhead guard, by name for the same reason.
echo "== cargo test -p dsolve-obs -p dsolve --test obs"
cargo test -p dsolve-obs
cargo test -p dsolve --test obs
echo "== cargo test -p dsolve-bench --test obs_overhead"
cargo test -p dsolve-bench --test obs_overhead

# Smoke a real trace through the validator: the emitted file must be a
# well-formed Chrome trace with provenance-named query spans.
echo "== dsolve --trace-out smoke"
TRACE_TMP=$(mktemp /tmp/dsolve-trace-smoke.XXXXXX.json)
./target/release/dsolve benchmarks/stablesort.ml --quiet --jobs 1 --trace-out "$TRACE_TMP"
./scripts/top_queries.sh "$TRACE_TMP" 3 > /dev/null
python3 - "$TRACE_TMP" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "no complete events in trace"
names = {e["name"] for e in spans}
for phase in ("parse", "constraint_gen", "fixpoint", "obligations"):
    assert phase in names, f"missing {phase} span"
assert any(n.startswith("round ") for n in names), "missing round spans"
assert any(e.get("cat") == "smt" for e in spans), "missing SMT query spans"
print(f"trace ok: {len(events)} events, {len(spans)} spans")
EOF
rm -f "$TRACE_TMP"

# Robustness: every deterministic fault point against the smoke
# benchmarks (same verdict or a degraded UNKNOWN — never a flip), by
# name so a failure is unmissable. Also runs above with the workspace.
echo "== cargo test -p dsolve --test fault_matrix"
cargo test -p dsolve --test fault_matrix

# Certification smoke: the smoke rows must stay SAFE with every definite
# SMT verdict replayed through the independent checker.
echo "== dsolve --certify smoke"
for b in ralist stablesort subvsolve malloc; do
    ./target/release/dsolve "benchmarks/$b.ml" --quiet --certify --timeout 60 --jobs "$JOBS"
done

# Differential fleet smoke: a fixed seed, ≥50 generated programs, the
# full config matrix (workers × incremental × cache × certify × every
# fault point). Zero soundness disagreements and zero verdict flips or
# the script fails. Verdicts are budget-deterministic (no wall clock),
# so this run's digest is reproducible anywhere.
# (A deeper soak is gated behind: cargo test -p dsolve --features slow-proptest)
echo "== dsolve-fleet --seed 42 --count 50 --matrix full"
./target/release/dsolve-fleet --seed 42 --count 50 --matrix full

# The benchmark is a workspace of its own that builds against the
# library crates' public API; build and test it here so an API change
# that breaks it fails now, not when the benchmark next runs.
echo "== cargo test --release --offline --manifest-path perfbench/Cargo.toml"
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== cargo build --release -p dsolve-bench --features bench --benches"
cargo build --release -p dsolve-bench --features bench --benches

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== ./run_figure10.sh --smoke --jobs $JOBS"
./run_figure10.sh --smoke --jobs "$JOBS"

# Regression gate: rerun the smoke rows through the JSON harness and
# diff against the committed baseline. --smoke ignores wall times (they
# vary across machines) and reports other counter drift without gating,
# so this catches verdict flips and vanished rows. The baseline is a
# --jobs 1 record and this rerun is too (whatever JOBS says): --jobs 1
# runs are bit-reproducible, so any change in a row's SMT queries, cache
# lookups or fixpoint iterations fails the gate.
echo "== bench_diff --smoke vs scripts/bench_baseline_smoke.json"
BENCH_TMP=$(mktemp /tmp/dsolve-bench-smoke.XXXXXX.json)
./target/release/figure10 --timeout 60 --jobs 1 \
    --json "$BENCH_TMP" ralist stablesort subvsolve malloc >/dev/null
./scripts/bench_diff.sh --smoke scripts/bench_baseline_smoke.json "$BENCH_TMP"
rm -f "$BENCH_TMP"

echo "check.sh: all green"
