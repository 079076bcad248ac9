//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this benchmark runs and prints.

use hpcfail_obs::json::{self, Json};
use perfbench::report::{layer_unit, per_layer_names, END_TO_END};
use perfbench::WORKLOADS;
use std::path::Path;

fn benchmark() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root")
        .join("BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let b = benchmark();
    // Every listed workload runs; serve-hot runs but is not listed (see
    // README.md).
    let workloads: Vec<String> = names(b.get("workloads").expect("workloads"))
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert!(!workloads.is_empty());
    assert!(
        workloads.iter().all(|w| WORKLOADS.contains(&w.as_str())),
        "{workloads:?}"
    );
    let e2e = names(b.get("end_to_end").expect("end_to_end"));
    let want: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(e2e, want);
    let layers = names(b.get("per_layer").expect("per_layer"));
    let want: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|n| {
            let unit = layer_unit(&n).to_owned();
            (n, unit)
        })
        .collect();
    assert_eq!(layers, want);
}
