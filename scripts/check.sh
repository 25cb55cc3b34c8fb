#!/bin/bash
# Offline repository health check: formatting, release build, full
# test suite, named suites, smoke runs of the CLIs and lints. Needs no
# network: proptest is a vendored stub.
set -e
cd "$(dirname "$0")/.."

# The Fig. 10 smoke rows: the fastest rows that reach SAFE, well inside
# the smoke deadline. malloc doubles as the pin for the
# spec-specialization renaming fix (it was once reported UNSAFE). The
# certification smoke, the figure10 smoke and the bench_diff gate below
# all run these, and scripts/bench_baseline_smoke.json records them.
SMOKE_ROWS=(ralist stablesort subvsolve malloc)

# One jobs setting for every dsolve invocation below, so the smoke suite
# runs rounds split over several workers on multi-core hosts (and a
# single knob pins it: JOBS=1 ./scripts/check.sh runs every round on one
# worker).
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 1)}"
echo "== jobs: $JOBS"

# Formatting: the workspace is rustfmt-clean, so new lines can be held
# to the surrounding style. (perfbench/ is a workspace of its own.)
echo "== cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test --workspace -q"
cargo test --workspace -q

# The differential suites (SMT sessions against a test-local scratch
# oracle, and the theory engines against brute force) also run above as
# part of the workspace tests; rerun them by name so a failure is
# unmissable. (Use --features slow-proptest for a deeper local soak.)
echo "== cargo test -p dsolve-smt --test incremental_vs_scratch --test theory_oracles"
cargo test -p dsolve-smt --test incremental_vs_scratch --test theory_oracles

# Arrays: a read-over-write hit, a miss, and a read through two nested
# updates, each decided by one kind of axiom instance through a scalar
# query, a batch and the scratch oracle. By name for the same reason.
echo "== cargo test -p dsolve-smt --test incremental_vs_scratch (array known answers)"
cargo test -p dsolve-smt --test incremental_vs_scratch -- read_over_write_hit \
    read_over_write_miss read_through_nested_updates_needs_the_inner_instances

# Scopes: random assert/push/check/pop sequences through one session,
# each check against a one-shot session on the live conjunction (which
# the scratch oracle above pins), and a fixed sequence of the subtle pop
# cases. By name for the same reason.
echo "== cargo test -p dsolve-smt session::tests"
cargo test -p dsolve-smt --lib session::tests

# The session's set-saturation memo against the memo-less per-check
# pass it replaced: at every check of random assert/push/check/pop
# sequences, the clauses of the same lemmas new to the session, in the
# same order, with the same truncation flag and counters. By name for
# the same reason.
echo "== cargo test -p dsolve-smt session_saturation_matches_oracle"
cargo test -p dsolve-smt --lib session_saturation_matches_oracle

# The set path end to end: list-sort, splay-heap and heap under
# fixpoint-iteration caps must keep their queries, undecided queries and
# set-saturation counters. By name for the same reason.
echo "== cargo test -p dsolve-bench --test set_saturation_pins"
cargo test -p dsolve-bench --test set_saturation_pins

# The SAT core's order heap against the scan of every variable it
# replaced (at every decision of random scope/clause/lemma/solve/block
# sequences with forced activity rescales), and `solve` against brute
# force through scopes. By name for the same reason.
echo "== cargo test -p dsolve-smt decide_matches_scan_oracle solve_matches_brute_force"
cargo test -p dsolve-smt --lib -- decide_matches_scan_oracle solve_matches_brute_force

# The embedding cache against its oracle: after random κ shrinks, the
# cached antecedent, pruned antecedent and left side equal the ones
# built from scratch. By name for the same reason.
echo "== cargo test -p dsolve-liquid embed_cache_matches_oracle"
cargo test -p dsolve-liquid --lib embed_cache_matches_oracle

# The fixpoint driver: the one-worker schedule, the iteration cap and
# the query budget under quarantine, by name for the same reason.
echo "== cargo test -p dsolve-liquid driver_"
cargo test -p dsolve-liquid --lib driver_

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
# SMT verdict certified (each countermodel evaluated against the asserted
# predicates; each Valid verdict rests on cores confirmed in the search).
echo "== dsolve --certify smoke"
for b in "${SMOKE_ROWS[@]}"; do
    ./target/release/dsolve "benchmarks/$b.ml" --quiet --certify --timeout 60 --jobs "$JOBS"
done

# Differential fleet smoke: a fixed seed, ≥50 generated programs, the
# full config matrix (workers × cache, workers × certify, and every
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

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Whole-pipeline smoke: the smoke rows through the Fig. 10 runner under
# a 60 s deadline; it exits 1 unless every row is SAFE.
echo "== figure10 --timeout 60 --jobs $JOBS ${SMOKE_ROWS[*]}"
./target/release/figure10 --timeout 60 --jobs "$JOBS" "${SMOKE_ROWS[@]}"

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
    --json "$BENCH_TMP" "${SMOKE_ROWS[@]}" >/dev/null
./target/release/bench_diff --smoke scripts/bench_baseline_smoke.json "$BENCH_TMP"
rm -f "$BENCH_TMP"

echo "check.sh: all green"
