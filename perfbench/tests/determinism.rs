//! Seed determinism: two processes given one seed make the same calls and
//! read the same exact quantities (call and allocation counts, layer
//! counts, `peak_heap_mib`, `sim_downtime_ms`); another seed gives other
//! inputs.

use std::collections::BTreeMap;
use std::process::Command;

use xoar_codec::Json;
use xoar_perfbench::harness::{trace_path, COUNTS};
use xoar_perfbench::workloads::NAMES;

const SEED: u64 = 7;

fn num(v: &Json) -> f64 {
    match v {
        Json::U64(n) => *n as f64,
        Json::I64(n) => *n as f64,
        Json::F64(x) => *x,
        other => panic!("not a number: {other:?}"),
    }
}

/// Runs the benchmark binary; returns its metrics by name.
fn run(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, f64> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = xoar_codec::parse(stdout.lines().last().expect("a result line"))
        .expect("result line is JSON");
    assert!(
        matches!(result.get("correct"), Some(Json::Bool(true))),
        "{workload}: outputs incorrect: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        result.get("failed").map(num),
        Some(0.0),
        "{workload}: failed ops"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    metrics
        .iter()
        .map(|(name, m)| (name.clone(), num(m.get("value").expect("value"))))
        .collect()
}

/// Metrics of a traced run that count rather than time.
fn exact(metrics: &BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    metrics
        .iter()
        .filter(|(name, _)| {
            name.ends_with(".calls_per_op")
                || name.ends_with(".calls_per_setup")
                || name.ends_with(".allocs_per_call")
                || COUNTS.iter().any(|c| c.0 == name.as_str())
        })
        .map(|(n, v)| (n.clone(), *v))
        .collect()
}

/// The call sequence of the last traced run: every span without its times
/// or allocations. (A hash-table resize can move to a neighbouring call
/// between processes, since the program's maps seed their hashers at
/// random; allocations are compared as totals per span, in `exact`.)
fn calls(workload: &str) -> Vec<String> {
    let text = std::fs::read_to_string(trace_path(workload)).expect("trace written");
    let trace = xoar_codec::parse(&text).expect("trace is JSON");
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    spans
        .iter()
        .map(|s| {
            let field = |k: &str| xoar_codec::to_string(s.get(k).expect("span field"));
            ["name", "parent", "op", "calls", "units"]
                .map(field)
                .join(" ")
        })
        .collect()
}

#[test]
fn one_seed_repeats_exactly() {
    for &w in NAMES {
        let first = run(w, SEED, true);
        let first_calls = calls(w);
        let second = run(w, SEED, true);
        assert_eq!(
            exact(&first),
            exact(&second),
            "{w}: exact quantities differ"
        );
        assert!(first_calls == calls(w), "{w}: call sequences differ");
        let heap = |m: BTreeMap<String, f64>| m["peak_heap_mib"];
        assert_eq!(
            heap(run(w, SEED, false)),
            heap(run(w, SEED, false)),
            "{w}: peak heap differs"
        );
    }
}

#[test]
fn another_seed_gives_other_inputs() {
    let pages = |seed| run("migrate_dirty", seed, true)["migration.pages_total"];
    assert_ne!(pages(SEED), pages(SEED + 1));
}
