#!/bin/bash
# Compares two `figure10 --json` benchmark records and fails on a
# regression (verdict change, missing row, any change in a --jobs 1
# row's SMT queries, cache lookups or fixpoint iterations, or — outside
# --smoke — a wall-time/SMT-query increase past the threshold).
#
#   scripts/bench_diff.sh BASELINE.json CURRENT.json [--smoke]
#       [--wall-threshold PCT] [--query-threshold PCT]
#
# Thin wrapper over the `bench_diff` binary: builds it if missing and
# passes every argument through. Exit status is the binary's (0 ok,
# 1 regression, 3 usage/IO error).
set -euo pipefail
cd "$(dirname "$0")/.."

bin=./target/release/bench_diff
if [[ ! -x "$bin" ]]; then
    cargo build --release -p dsolve-bench --bin bench_diff >/dev/null
fi
exec "$bin" "$@"
