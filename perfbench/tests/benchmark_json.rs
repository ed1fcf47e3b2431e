//! `BENCHMARK.json` at the repository root lists exactly the workloads and
//! metrics this benchmark prints, with the same units and directions.

use xoar_codec::Json;
use xoar_perfbench::harness::{per_layer_names, END_TO_END};
use xoar_perfbench::workloads::NAMES;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    xoar_codec::parse(&text).expect("BENCHMARK.json is JSON")
}

fn list<'a>(json: &'a Json, key: &str) -> &'a [Json] {
    json.get(key).and_then(Json::as_arr).expect(key)
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry.get(key).and_then(Json::as_str).expect(key)
}

/// (name, unit, better) of each entry of a metric list.
fn metrics(json: &Json, key: &str) -> Vec<(String, String, String)> {
    list(json, key)
        .iter()
        .map(|m| {
            (
                text(m, "name").to_string(),
                text(m, "unit").to_string(),
                text(m, "better").to_string(),
            )
        })
        .collect()
}

#[test]
fn workloads_match() {
    let json = benchmark_json();
    let names: Vec<&str> = list(&json, "workloads")
        .iter()
        .map(|w| text(w, "name"))
        .collect();
    assert_eq!(names, NAMES);
}

#[test]
fn end_to_end_metrics_match() {
    let json = benchmark_json();
    let want: Vec<_> = END_TO_END
        .iter()
        .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
        .collect();
    assert_eq!(metrics(&json, "end_to_end"), want);
    for m in list(&json, "end_to_end") {
        let Some(Json::F64(bound)) = m.get("bound") else {
            panic!("bound is a number");
        };
        assert!(*bound > 0.0 && *bound <= 0.25, "bound {bound}");
    }
}

#[test]
fn per_layer_metrics_match() {
    let json = benchmark_json();
    let want: Vec<_> = per_layer_names()
        .into_iter()
        .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
        .collect();
    assert_eq!(metrics(&json, "per_layer"), want);
}
