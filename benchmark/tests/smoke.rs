//! Drives the built binary in `--smoke` form — 20k-node graph, two
//! passes — through all four workloads and one traced run, and holds the
//! printed metric names against `BENCHMARK.json`.

use std::process::Command;
use std::time::Instant;

use hk_gateway::json::{self, Json};

const BIN: &str = env!("CARGO_BIN_EXE_hk-benchmark");
/// `--out` of every run here: cargo's scratch directory for this test.
const OUT: &str = concat!(env!("CARGO_TARGET_TMPDIR"), "/smoke-out");

fn contract() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read(path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

/// `(name, unit)` of every entry of a metric list of `BENCHMARK.json`.
fn declared(contract: &Json, list: &str) -> Vec<(String, String)> {
    contract
        .get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {list}"))
        .iter()
        .map(|m| {
            let text = |key| m.get(key).and_then(Json::as_str).expect(key).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

/// Run the binary; returns its result line parsed, after checking that
/// it exited 0 and reported a correct run.
fn run(workload: &str, trace: &str) -> Json {
    let output = Command::new(BIN)
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--smoke", "--out", OUT])
        .output()
        .expect("spawn hk-benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let line = stdout.lines().last().expect("a result line");
    let result = json::parse(line.as_bytes()).expect("the last line is one JSON object");
    let keys: Vec<&str> = result
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    result
}

/// `(name, unit)` of every metric of a result line, in printed order.
fn printed(result: &Json) -> Vec<(String, String)> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(Json::as_f64).is_some(),
                "{name} has no value"
            );
            (
                name.clone(),
                m.get("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

/// One test, so that the parts run one after the other: the first is
/// timed, and all of them share `OUT`.
#[test]
fn smoke() {
    prints_exactly_the_metrics_of_the_contract();
    same_seed_repeats_counts_and_answers_exactly();
    bad_invocations_exit_non_zero_without_a_result();
}

fn prints_exactly_the_metrics_of_the_contract() {
    let contract = contract();
    let end_to_end = declared(&contract, "end_to_end");
    let per_layer = declared(&contract, "per_layer");
    let workloads: Vec<String> = contract
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    assert_eq!(
        workloads,
        ["direct-push", "direct-walk", "wire-hot", "wire-zipf"]
    );

    let started = Instant::now();
    for workload in &workloads {
        let result = run(workload, "0");
        assert_eq!(printed(&result), end_to_end, "{workload}");
        // End-to-end metrics are never 0.
        for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap() {
            assert!(
                m.get("value").and_then(Json::as_f64).unwrap() > 0.0,
                "{workload} {name}"
            );
        }
    }
    let traced = run("wire-zipf", "1");
    assert_eq!(printed(&traced), per_layer);
    let elapsed = started.elapsed();
    // The time limit is a property of the optimized build.
    if !cfg!(debug_assertions) {
        assert!(elapsed.as_secs() < 20, "smoke took {elapsed:?}");
    }

    // The traced run wrote its spans, and the snapshot was not left behind.
    let out = std::path::Path::new(OUT);
    let trace = std::fs::read(out.join("trace-wire-zipf-7.json")).expect("trace file");
    let trace = json::parse(&trace).expect("trace file is JSON");
    let spans = trace.get("spans").and_then(Json::as_arr).expect("spans");
    for name in ["wire.request", "gateway.encode", "serve.query", "core.push"] {
        assert!(
            spans
                .iter()
                .any(|s| s.get("name").and_then(Json::as_str) == Some(name)),
            "no {name} span"
        );
    }
    let leftovers = std::fs::read_dir(out)
        .unwrap()
        .filter_map(Result::ok)
        .filter(|e| e.path().extension().is_some_and(|x| x == "hkg"))
        .count();
    assert_eq!(leftovers, 0, "snapshots left in {out:?}");
}

fn same_seed_repeats_counts_and_answers_exactly() {
    let pick = |result: &Json, name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no {name}"))
    };
    let (a, b) = (run("direct-walk", "1"), run("direct-walk", "1"));
    for name in [
        "core.push_ops",
        "core.walks",
        "core.walk_steps",
        "core.early_exit_share",
        "cluster.support_size",
        "cluster.cluster_size",
        "graph.edges",
    ] {
        assert_eq!(pick(&a, name).to_bits(), pick(&b, name).to_bits(), "{name}");
    }
    let (a, b) = (run("direct-walk", "0"), run("direct-walk", "0"));
    let name = "answer_conductance_mean";
    assert_eq!(pick(&a, name).to_bits(), pick(&b, name).to_bits());
}

fn bad_invocations_exit_non_zero_without_a_result() {
    for args in [
        &["--workload", "direct-push"][..],
        &["--workload", "no-such", "--seed", "1"],
        &["--seed", "1"],
        &["--workload", "direct-push", "--seed", "1", "--bogus"],
    ] {
        let output = Command::new(BIN).args(args).output().expect("spawn");
        assert!(!output.status.success(), "{args:?} should fail");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
