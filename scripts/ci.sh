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

# Benchmark smoke: migrate_dirty and clone_churn are the only workloads
# that drive the replication engine, the gated log-dirty drain and gated
# dedup, so run each for two seconds and fail unless its last line
# reports a correct run with no failed operation.
for workload in migrate_dirty clone_churn; do
    last="$(cargo run -q --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)"
    if [[ "$last" != *'"correct":true'* || "$last" != *'"failed":0,'* ]]; then
        echo "perfbench $workload smoke failed: $last" >&2
        exit 1
    fi
done

# Bench gate: run the deterministic harnesses and keep their
# machine-readable tails (the harness prints one JSON document as the
# last stdout line) as committed perf baselines at the repo root. Each
# fresh run is compared against the committed baseline BEFORE it
# replaces it: bench-gate fails on any hot-path entry whose median
# regressed by more than 2x, and on any restart-path entry whose p95
# tail exceeds 6x its own median.
fresh_microbench="$(mktemp)"
fresh_ablation="$(mktemp)"
trap 'rm -f "$fresh_microbench" "$fresh_ablation"' EXIT
cargo bench --offline -p xoar-bench --bench microbench | tail -n 1 > "$fresh_microbench"
cargo run --release --offline -p xoar-bench --bin bench_gate -- \
    BENCH_microbench.json "$fresh_microbench"
mv "$fresh_microbench" BENCH_microbench.json
cargo bench --offline -p xoar-bench --bench ablation | tail -n 1 > "$fresh_ablation"
cargo run --release --offline -p xoar-bench --bin bench_gate -- \
    --set=ablation BENCH_ablation.json "$fresh_ablation"
mv "$fresh_ablation" BENCH_ablation.json
trap - EXIT
echo "bench baselines written: BENCH_microbench.json BENCH_ablation.json"

# Analysis gate: Pass A (model-level privilege-flow audit over the
# traced reference scenario — including the declared-cross-region-ops
# ledger check — plus the selftest proving the rules fire on injected
# violations) and Pass B (token-level boundary/no-panic/region-isolation/
# dispatch lint over crates/*/src; the allowlist is empty by default and
# any stale entry fails the lint). Each exits nonzero on any violation
# or un-allowlisted finding.
cargo run --release --offline -p xoar-analysis --bin xoar-analyzer
cargo run --release --offline -p xoar-analysis --bin xoar-analyzer -- --selftest
cargo run --release --offline -p xoar-analysis --bin xoar-lint

# Spec gate: the executable isolation spec run in lockstep with the
# hypervisor. --spec-exhaustive enumerates every small-scope op
# sequence (plus a randomized longer sweep) and fails on any divergence
# between the real state and the memory-ownership model;
# --spec-selftest injects three known violations (revoked-grant
# resurrection, backdoor clone fall-through, raw frame alias) and fails
# unless each fires its rule with a shrunk counterexample trace.
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

# Style gate, only where a rustfmt toolchain is present.
if command -v rustfmt >/dev/null 2>&1; then
    cargo fmt --check
else
    echo "rustfmt not installed; skipping format check"
fi

echo "ci.sh: all checks passed"
