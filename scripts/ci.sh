#!/usr/bin/env bash
# Tier-1 verification: offline build + full test suite.
#
# The workspace is self-contained (no external crates), so everything
# must pass with an empty/cold cargo registry. Run from the repo root:
#
#   ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo test -q --workspace --offline

# The end-to-end benchmark (perfbench/) is a workspace of its own, so the
# build above never compiles it; build it here so an API change in
# crates/ cannot break the benchmark unseen.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

# perfbench's own tests: steady-state heap growth of at most 16 B per op,
# every exact count repeating for a seed, and BENCHMARK.json matching
# what the binary prints.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Benchmark smoke: every workload links its guests' split devices while
# it sets up (create, clone, destroy), and migrate_dirty and clone_churn
# also drive the replication engine, the gated log-dirty drain and gated
# dedup, so run all four for two seconds each and fail unless the last
# line reports a correct run with no failed operation.
for workload in blk_rw fabric_fanout migrate_dirty clone_churn; do
    last="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    if [[ "$last" != *'"correct":true'* || "$last" != *'"failed":0,'* ]]; then
        echo "perfbench $workload smoke failed: $last" >&2
        exit 1
    fi
done

# Analysis gate: the model-level privilege-flow audit over the traced
# reference scenario (including the declared-cross-region-ops ledger
# check), and the selftest proving its rules fire on injected
# violations. Each exits nonzero on any violation.
cargo run --release --offline -p xoar-analysis --bin xoar-analyzer
cargo run --release --offline -p xoar-analysis --bin xoar-analyzer -- --selftest

# Boundary gate, on resolved code: core and devices reach hypervisor
# state only through the hypercall gate. crates/{core,devices}/clippy.toml
# deny the memory and grant internals and the ungated Hypervisor
# mutators (aliases, UFCS calls and split chains included); the
# hypervisor crate itself denies panics in non-test code and wildcard
# arms in Hypercall::id and the dispatcher, and the xenstore and devices
# crates deny panics, unwraps and unchecked indexing in non-test code. Every
# known ungated site carries an #[expect] with its reason, and an
# expectation that no longer fires fails the step, so fixing a site
# forces removing its attribute. Clippy only warns when a configured path does not resolve,
# so that warning fails the step too. No skip branch: clippy ships with
# the toolchain, and a missing clippy fails here.
if ! clippy_out="$(cargo clippy --offline --lib -p xoar-hypervisor -p xoar-core -p xoar-devices -p xoar-xenstore \
    -- -D clippy::disallowed_methods -D clippy::disallowed_types \
    -D unfulfilled_lint_expectations 2>&1)"; then
    printf '%s\n' "$clippy_out" >&2
    echo "boundary gate: clippy failed" >&2
    exit 1
fi
if grep -q "does not refer to" <<<"$clippy_out"; then
    grep -B2 -A4 "does not refer to" <<<"$clippy_out" >&2
    echo "boundary gate: a clippy.toml path does not resolve" >&2
    exit 1
fi

# Evaluation golden: the §6.2 census, containment verdicts, TCB figures
# and temporal-exposure table security_eval prints are deterministic;
# any byte of difference from the committed golden fails the gate.
cargo run -q --release --offline -p xoar-bench --bin security_eval \
    | diff -u crates/bench/golden/security_eval.txt -

# Spec gate: the executable isolation spec run in lockstep with the
# hypervisor. --spec-exhaustive enumerates every small-scope op
# sequence (plus a randomized longer sweep) and fails on any divergence
# between the real state and the memory-ownership model;
# --spec-selftest injects four known violations (revoked-grant
# resurrection, backdoor clone fall-through, raw frame alias, a granted
# frame freed and reused) and fails unless each fires its rule with a
# shrunk counterexample trace.
cargo run --release --offline -p xoar-analysis --bin xoar-analyzer -- --spec-exhaustive
cargo run --release --offline -p xoar-analysis --bin xoar-analyzer -- --spec-selftest

# Serverless-density smoke: stamp 1k/10k/100k snapshot-fork clones from
# one template and check the fleet stays ≥10x denser than built guests
# (EXPERIMENTS.md's memory-density table). Release mode only — the 100k
# row stamps a hundred thousand domains.
cargo test -q --release --offline -p xoar-sim -- --ignored density_sweep_smoke --nocapture

# Front-tier smoke: 100k concurrent fabric flows riding NetBack
# microreboots at three restart intervals (EXPERIMENTS.md's front-tier
# table). Asserts every flow recovers through the TCP model and that
# restart counts agree across engine, hypervisor, and audit log.
cargo test -q --release --offline -p xoar-sim -- --ignored fronttier_smoke --nocapture

# Long-running platform: 100k clone/destroy cycles on one platform must
# hold the frame-table length, the live frames and both ring hubs at
# their warmed-up counts (exact, gated). The cost per 10k cycles and the
# RSS are printed for EXPERIMENTS.md, never gated.
cargo test -q --release --offline --test long_running -- --ignored --nocapture

# Style gate, only where a rustfmt toolchain is present.
if command -v rustfmt >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping format check"
fi

# Bench gate: run the deterministic harnesses and keep their
# machine-readable tails (the harness prints one JSON document as the
# last stdout line) under target/bench/, which git ignores. Each fresh
# run is compared against the committed baseline at the repo root:
# bench-gate fails on any hot-path entry whose median regressed by more
# than 2x, and on any restart-path entry whose p95 tail exceeds 6x its
# own median. The committed baselines are never rewritten here, so a
# run on a slow machine cannot loosen the gate for later runs.
mkdir -p target/bench
fresh_microbench=target/bench/BENCH_microbench.json
fresh_ablation=target/bench/BENCH_ablation.json
cargo bench --offline -p xoar-bench --bench microbench | tail -n 1 > "$fresh_microbench"
cargo run --release --offline -p xoar-bench --bin bench_gate -- \
    BENCH_microbench.json "$fresh_microbench"
cargo bench --offline -p xoar-bench --bench ablation | tail -n 1 > "$fresh_ablation"
cargo run --release --offline -p xoar-bench --bin bench_gate -- \
    --set=ablation BENCH_ablation.json "$fresh_ablation"
echo "fresh bench results kept in: $fresh_microbench $fresh_ablation"

echo "ci.sh: all checks passed"
