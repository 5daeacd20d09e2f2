//! The names the benchmark reports under — the repository's vocabulary,
//! mirrored one to one by `BENCHMARK.json` (`tests/smoke.rs` compares
//! them) — and the result line the driver reads.

use std::collections::BTreeMap;

use hk_gateway::json::Json;

/// End-to-end metrics `(name, unit)`: identical names on every workload,
/// always taken from the untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("answer_conductance_mean", "ratio"),
];

/// Per-layer metrics `(name, unit)`; the prefix is the crate the number
/// belongs to (`client`, `bench` and `host` are the harness itself). A
/// layer that is not on a workload's path reports 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("graph.snapshot_mb", "MB"),
    ("graph.gen_s", "s"),
    ("graph.save_s", "s"),
    ("graph.load_ms", "ms"),
    ("core.push_ms", "ms"),
    ("core.walk_ms", "ms"),
    ("core.push_share", "ratio"),
    ("core.walk_share", "ratio"),
    ("core.push_ops", "count"),
    ("core.walks", "count"),
    ("core.walk_steps", "count"),
    ("core.early_exit_share", "ratio"),
    ("core.push_ns_per_op", "ns"),
    ("core.walk_ns_per_step", "ns"),
    ("core.workspace_mb", "MB"),
    ("core.first_query_ms", "ms"),
    ("cluster.sweep_ms", "ms"),
    ("cluster.sweep_share", "ratio"),
    ("cluster.sweep_ns_per_support_node", "ns"),
    ("cluster.support_size", "count"),
    ("cluster.cluster_size", "count"),
    ("serve.engine_start_ms", "ms"),
    ("serve.hit_share", "ratio"),
    ("serve.miss_share", "ratio"),
    ("serve.coalesced_share", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_resident_mb", "MB"),
    ("serve.cache_entry_kb", "kB"),
    ("serve.hit_us", "us"),
    ("serve.queue_wait_us", "us"),
    ("serve.miss_overhead_us", "us"),
    ("serve.queue_hwm", "count"),
    ("serve.shed", "count"),
    ("serve.degraded", "count"),
    ("serve.errors", "count"),
    ("gateway.http_parse_us", "us"),
    ("gateway.decode_us", "us"),
    ("gateway.encode_us", "us"),
    ("gateway.response_kb", "kB"),
    ("gateway.socket_us", "us"),
    ("gateway.status_200", "count"),
    ("gateway.status_other", "count"),
    ("client.floor_us", "us"),
    ("bench.passes", "count"),
    ("bench.slots", "count"),
    ("bench.pass_p50_ms_min", "ms"),
    ("bench.pass_p50_ms_median", "ms"),
    ("bench.pass_p50_ms_max", "ms"),
    ("bench.pass_spread", "ratio"),
    ("bench.cpu_ms_per_query", "ms"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.residual_share", "ratio"),
    ("host.nproc", "count"),
    ("host.steal_share", "ratio"),
    ("host.calib_ms", "ms"),
];

/// Metric values of one run, by declared name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Record `name`. Panics on an undeclared name: the tables above are
    /// the single list of what may be reported.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "metric {name:?} is not declared in report.rs"
        );
        self.0.insert(name, value);
    }

    /// The recorded value; 0 for a layer the workload does not cross.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct Outcome {
    /// Requests issued in the measured passes.
    pub attempted: u64,
    /// Of those, the ones that errored or were refused.
    pub failed: u64,
    /// Failed correctness checks and workload-shape guards; empty means
    /// the answers are right and the run measured what it claims to.
    pub failures: Vec<String>,
    pub metrics: Metrics,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// The metric table a run with this `--trace` value reports.
pub fn table(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let metrics = table(trace)
        .iter()
        .map(|(name, unit)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(outcome.metrics.get(name))),
                    ("unit".into(), Json::Str(unit.to_string())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failures.is_empty())),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome {
            attempted: 640,
            ..Outcome::default()
        };
        outcome.metrics.set("setup_s", 0.25);
        let line = result_line(&outcome, false);
        let parsed = hk_gateway::json::parse(line.as_bytes()).unwrap();
        let keys: Vec<&str> = parsed
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(parsed.get("attempted").unwrap().as_u64(), Some(640));
        let metrics = parsed.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").unwrap().as_f64(), Some(0.25));
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("s"));
    }
}
