//! Prometheus text-format exposition of every serving counter.
//!
//! The serving stack already counts everything that matters — engine
//! completions/sheds/panics, cache hits/misses/coalesced followers,
//! registry loads/retries/evictions — but only in-process. This module
//! turns those structs plus the gateway's own request/latency/connection
//! counters into the [Prometheus text format] (`# HELP`/`# TYPE` pairs,
//! `_total` counters, gauges, and log-spaced latency histograms with
//! `le`-labelled cumulative buckets).
//!
//! Every metric family is rendered on every scrape, even at zero, so a
//! CI grep for a mandatory name never depends on traffic having
//! happened first. Label sets with dynamic keys (endpoint × status,
//! graph names) render in sorted order — scrapes are deterministic and
//! diffable.
//!
//! [Prometheus text format]:
//! https://prometheus.io/docs/instrumenting/exposition_formats/

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use hk_serve::MultiEngine;

/// Histogram bucket upper bounds, seconds. Log-spaced 10µs → 10s
/// (1-3-10 steps): HKPR queries span sub-millisecond cache hits to
/// multi-second deadline-bounded refinements, so linear buckets would
/// waste all their resolution on one end.
pub const LATENCY_BUCKETS: [f64; 13] = [
    0.00001, 0.00003, 0.0001, 0.0003, 0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
];

/// Outcome classes a request latency is filed under. `hit`, `miss`,
/// `coalesced` and `precomputed` mirror [`hk_serve::CacheOutcome`] (an
/// `Uncached` full-accuracy answer files under `miss` — same compute
/// path, the cache is just off; `precomputed` is an answer from the
/// cache's pinned tier, built at load time for a top-degree seed); `degraded` is a
/// successful best-effort answer whose *walk* ladder was cut short;
/// `degraded_push` is one stopped even earlier — mid-push at an eps_r
/// certificate checkpoint, the latency class of queries that previously
/// failed outright with 408; `error` is any non-2xx response.
pub const OUTCOME_CLASSES: [&str; 7] = [
    "hit",
    "miss",
    "coalesced",
    "precomputed",
    "degraded",
    "degraded_push",
    "error",
];

/// Endpoint classes a request is counted under: coarse names, never the
/// raw path (raw paths would let clients mint unbounded label
/// cardinality). Anything else files under `other`.
pub const ENDPOINTS: [&str; 5] = ["query", "batch", "healthz", "metrics", "other"];

/// Endpoint classes whose answers are encoded and timed (see
/// [`GatewayMetrics::encoded`]).
pub const ENCODING_ENDPOINTS: [&str; 2] = ["query", "batch"];

/// Fixed-bucket latency histogram; lock-free recording.
#[derive(Debug, Default)]
pub struct Histogram {
    /// One count per bucket in [`LATENCY_BUCKETS`] order, plus `+Inf`.
    counts: [AtomicU64; LATENCY_BUCKETS.len() + 1],
    /// Sum of observations in nanoseconds (integer: `f64` has no atomic
    /// add, and nanoseconds keep the sum exact far past any realistic
    /// uptime — 2^64 ns is ~584 years).
    sum_ns: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    fn bucket_of(latency: Duration) -> usize {
        let secs = latency.as_secs_f64();
        LATENCY_BUCKETS
            .iter()
            .position(|&ub| secs <= ub)
            .unwrap_or(LATENCY_BUCKETS.len())
    }

    fn nanos(latency: Duration) -> u64 {
        latency.as_nanos().min(u64::MAX as u128) as u64
    }

    /// Record one observation.
    pub fn observe(&self, latency: Duration) {
        self.counts[Self::bucket_of(latency)].fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add(Self::nanos(latency), Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Lengthen an observation already recorded as `was` to `now`; the
    /// count stays, the bucket and the sum follow.
    pub fn extend(&self, was: Duration, now: Duration) {
        let (from, to) = (Self::bucket_of(was), Self::bucket_of(now));
        if from != to {
            self.counts[to].fetch_add(1, Ordering::Relaxed);
            self.counts[from].fetch_sub(1, Ordering::Relaxed);
        }
        self.sum_ns.fetch_add(
            Self::nanos(now).saturating_sub(Self::nanos(was)),
            Ordering::Relaxed,
        );
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Render as cumulative `_bucket`/`_sum`/`_count` lines with the
    /// given extra label (e.g. `class="hit"`).
    fn render(&self, out: &mut String, name: &str, label: &str) {
        let mut cumulative = 0u64;
        for (i, ub) in LATENCY_BUCKETS.iter().enumerate() {
            cumulative += self.counts[i].load(Ordering::Relaxed);
            out.push_str(&format!(
                "{name}_bucket{{{label},le=\"{ub}\"}} {cumulative}\n"
            ));
        }
        cumulative += self.counts[LATENCY_BUCKETS.len()].load(Ordering::Relaxed);
        out.push_str(&format!(
            "{name}_bucket{{{label},le=\"+Inf\"}} {cumulative}\n"
        ));
        let sum = self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9;
        out.push_str(&format!("{name}_sum{{{label}}} {sum}\n"));
        out.push_str(&format!(
            "{name}_count{{{label}}} {}\n",
            self.total.load(Ordering::Relaxed)
        ));
    }
}

/// The gateway's own counters: requests by endpoint × status, latency by
/// outcome class, connection lifecycle events.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// `(endpoint, status) -> count`; BTreeMap for sorted, deterministic
    /// exposition. Endpoint is one of [`ENDPOINTS`].
    requests: Mutex<BTreeMap<(&'static str, u16), u64>>,
    latency: [Histogram; OUTCOME_CLASSES.len()],
    /// Bytes written to sockets (head and body), in [`ENDPOINTS`] order.
    response_bytes: [AtomicU64; ENDPOINTS.len()],
    /// Nanoseconds spent writing answers, in [`ENCODING_ENDPOINTS`] order.
    encode_ns: [AtomicU64; ENCODING_ENDPOINTS.len()],
    /// Estimate entries in those answers, in the same order.
    encoded_entries: [AtomicU64; ENCODING_ENDPOINTS.len()],
    conns_accepted: AtomicU64,
    conns_rejected: AtomicU64,
    conns_closed: AtomicU64,
    header_timeouts: AtomicU64,
}

impl GatewayMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> GatewayMetrics {
        GatewayMetrics::default()
    }

    /// Count one answered request. Called before the response is written,
    /// so a client that has read its answer finds it counted.
    pub fn count(&self, endpoint: &'static str, status: u16) {
        *self
            .requests
            .lock()
            .unwrap()
            .entry((endpoint, status))
            .or_insert(0) += 1;
    }

    /// The histogram of `class` (an [`OUTCOME_CLASSES`] entry; anything
    /// unknown files as `error`).
    fn class_histogram(&self, class: &str) -> &Histogram {
        self.latency_of(class)
            .unwrap_or(&self.latency[OUTCOME_CLASSES.len() - 1])
    }

    /// File one request's latency so far under `class`. Like
    /// [`count`](Self::count) this happens before the response is
    /// written, so the class counts are settled when the client has its
    /// answer. Healthz and metrics scrapes file none: their timings would
    /// pollute the query classes.
    pub fn observe(&self, class: &str, latency: Duration) {
        self.class_histogram(class).observe(latency);
    }

    /// The response is on the wire: lengthen the latency filed as `was`
    /// to `now`, so the time a slow reader costs is in the histogram.
    pub fn wrote(&self, class: &str, was: Duration, now: Duration) {
        self.class_histogram(class).extend(was, now);
    }

    /// One response of `bytes` bytes (head and body) written whole to its
    /// socket.
    pub fn sent(&self, endpoint: &str, bytes: usize) {
        let idx = ENDPOINTS
            .iter()
            .position(|&e| e == endpoint)
            .unwrap_or(ENDPOINTS.len() - 1);
        self.response_bytes[idx].fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// One answer of `entries` estimate entries written in `took` for
    /// `endpoint` (an [`ENCODING_ENDPOINTS`] entry; anything else is not
    /// counted). Called before the response is written, like
    /// [`count`](Self::count).
    pub fn encoded(&self, endpoint: &str, took: Duration, entries: usize) {
        if let Some(i) = ENCODING_ENDPOINTS.iter().position(|&e| e == endpoint) {
            self.encode_ns[i].fetch_add(Histogram::nanos(took), Ordering::Relaxed);
            self.encoded_entries[i].fetch_add(entries as u64, Ordering::Relaxed);
        }
    }

    /// One accepted connection.
    pub fn conn_accepted(&self) {
        self.conns_accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection rejected at the accept queue (overload 503).
    pub fn conn_rejected(&self) {
        self.conns_rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection closed (either side).
    pub fn conn_closed(&self) {
        self.conns_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// One connection dropped because a request dripped in slower than
    /// the cumulative per-request header budget (slow-loris defense).
    pub fn header_timeout(&self) {
        self.header_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Header-budget drops so far (tests and bench reporting).
    pub fn header_timeouts(&self) -> u64 {
        self.header_timeouts.load(Ordering::Relaxed)
    }

    /// Latency histogram for one outcome class (bench reporting).
    pub fn latency_of(&self, class: &str) -> Option<&Histogram> {
        OUTCOME_CLASSES
            .iter()
            .position(|&c| c == class)
            .map(|i| &self.latency[i])
    }
}

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
}

fn sample(out: &mut String, name: &str, value: u64) {
    out.push_str(&format!("{name} {value}\n"));
}

/// Render the full scrape: engine, cache, registry, per-graph and
/// gateway families, in that order. Counters are sampled once at call
/// time; cross-family arithmetic can be off by in-flight requests but
/// each family is internally consistent.
pub fn render_prometheus(engine: &MultiEngine, gw: &GatewayMetrics) -> String {
    let s = engine.stats();
    let r = engine.registry().stats();
    let mut out = String::with_capacity(8 << 10);

    // Engine.
    let engine_counters: [(&str, &str, u64); 7] = [
        (
            "hk_engine_completed_total",
            "Queries completed at full accuracy.",
            s.completed,
        ),
        (
            "hk_engine_errors_total",
            "Queries that returned an estimator error.",
            s.errors,
        ),
        (
            "hk_engine_shed_queued_total",
            "Requests shed before execution (deadline passed at submit or dequeue).",
            s.shed_queued,
        ),
        (
            "hk_engine_cancelled_running_total",
            "Requests cancelled mid-execution with no completed tier.",
            s.cancelled_running,
        ),
        (
            "hk_engine_degraded_total",
            "Requests answered best-effort below the requested accuracy.",
            s.degraded,
        ),
        (
            "hk_engine_panics_total",
            "Worker panics contained by the panic guard.",
            s.panics,
        ),
        (
            "hk_engine_shed_overload_total",
            "Requests rejected by queue bounds or per-graph admission quotas.",
            s.shed_overload,
        ),
    ];
    for (name, help, v) in engine_counters {
        family(&mut out, name, help, "counter");
        sample(&mut out, name, v);
    }
    family(
        &mut out,
        "hk_engine_queue_high_water",
        "High-water mark of the scheduler queue depth.",
        "gauge",
    );
    sample(&mut out, "hk_engine_queue_high_water", s.queue_hwm);
    family(
        &mut out,
        "hk_engine_workers",
        "Configured worker threads.",
        "gauge",
    );
    sample(&mut out, "hk_engine_workers", s.workers);
    family(
        &mut out,
        "hk_engine_live_workers",
        "Worker threads still running (less than hk_engine_workers means workers died).",
        "gauge",
    );
    sample(
        &mut out,
        "hk_engine_live_workers",
        engine.live_workers() as u64,
    );
    // Both workspace families come from one read of the workers' slots,
    // so a scrape's per-worker samples sum to its pool total.
    let worker_bytes = engine.worker_workspace_bytes();
    family(
        &mut out,
        "hk_engine_workspace_bytes",
        "Bytes held in the workers' per-query scratch (estimator workspace and sweep buffers).",
        "gauge",
    );
    sample(
        &mut out,
        "hk_engine_workspace_bytes",
        worker_bytes.iter().sum(),
    );
    family(
        &mut out,
        "hk_engine_worker_workspace_bytes",
        "Bytes held in one worker's per-query scratch; the workers sum to hk_engine_workspace_bytes.",
        "gauge",
    );
    for (worker, bytes) in worker_bytes.iter().enumerate() {
        out.push_str(&format!(
            "hk_engine_worker_workspace_bytes{{worker=\"{worker}\"}} {bytes}\n"
        ));
    }

    // Cache.
    let c = s.cache;
    let cache_counters: [(&str, &str, u64); 5] = [
        (
            "hk_cache_hits_total",
            "Lookups answered from the result cache.",
            c.hits,
        ),
        (
            "hk_cache_misses_total",
            "Queries computed at full accuracy and inserted (equals insertions).",
            c.misses,
        ),
        (
            "hk_cache_coalesced_total",
            "Single-flight followers coalesced onto a concurrent identical miss.",
            c.coalesced,
        ),
        (
            "hk_cache_insertions_total",
            "Entries inserted.",
            c.insertions,
        ),
        (
            "hk_cache_evictions_total",
            "Entries evicted to respect the byte budget.",
            c.evictions,
        ),
    ];
    for (name, help, v) in cache_counters {
        family(&mut out, name, help, "counter");
        sample(&mut out, name, v);
    }
    family(
        &mut out,
        "hk_cache_resident_bytes",
        "Bytes resident across all shards.",
        "gauge",
    );
    sample(&mut out, "hk_cache_resident_bytes", c.resident_bytes);
    family(
        &mut out,
        "hk_cache_resident_entries",
        "Entries resident across all shards.",
        "gauge",
    );
    sample(&mut out, "hk_cache_resident_entries", c.resident_entries);

    // Registry.
    let registry_counters: [(&str, &str, u64); 6] = [
        (
            "hk_registry_loads_total",
            "Loader invocations that succeeded.",
            r.loads,
        ),
        (
            "hk_registry_load_attempts_total",
            "Loader invocations attempted, including failures and retries.",
            r.load_attempts,
        ),
        (
            "hk_registry_load_retries_total",
            "Failed attempts retried after backoff.",
            r.load_retries,
        ),
        (
            "hk_registry_evictions_total",
            "Graphs evicted from residency.",
            r.evictions,
        ),
        (
            "hk_registry_resident_hits_total",
            "Gets answered from an already-resident graph.",
            r.resident_hits,
        ),
        (
            "hk_registry_fingerprints_computed_total",
            "Graph fronts that hashed their fingerprint because the snapshot \
             recorded none.",
            r.fingerprints_computed,
        ),
    ];
    for (name, help, v) in registry_counters {
        family(&mut out, name, help, "counter");
        sample(&mut out, name, v);
    }
    family(
        &mut out,
        "hk_registry_load_seconds_total",
        "Wall-clock seconds spent in the loader runs that succeeded.",
        "counter",
    );
    out.push_str(&format!(
        "hk_registry_load_seconds_total {}\n",
        r.load_ns as f64 / 1e9
    ));
    family(
        &mut out,
        "hk_registry_fingerprint_seconds_total",
        "Wall-clock seconds spent hashing the fingerprints counted by \
         hk_registry_fingerprints_computed_total.",
        "counter",
    );
    out.push_str(&format!(
        "hk_registry_fingerprint_seconds_total {}\n",
        r.fingerprint_ns as f64 / 1e9
    ));
    family(
        &mut out,
        "hk_registry_resident_bytes",
        "Bytes of all resident graphs.",
        "gauge",
    );
    sample(&mut out, "hk_registry_resident_bytes", r.resident_bytes);
    family(
        &mut out,
        "hk_registry_resident_graphs",
        "Number of resident graphs.",
        "gauge",
    );
    sample(&mut out, "hk_registry_resident_graphs", r.resident_graphs);

    // Hub builds and the cache's pinned tier they fill (all zero when hub
    // precomputation is disabled — the families still render so
    // dashboards and alerts never see a gap).
    let h = engine.hub_stats();
    let hub_counters: [(&str, &str, u64); 2] = [
        (
            "hk_hub_hits_total",
            "Queries answered from the cache's pinned hub answers.",
            s.cache.precomputed,
        ),
        (
            "hk_hub_builds_total",
            "Background hub builds completed (one per graph fingerprint).",
            h.builds,
        ),
    ];
    for (name, help, v) in hub_counters {
        family(&mut out, name, help, "counter");
        sample(&mut out, name, v);
    }
    family(
        &mut out,
        "hk_hub_build_seconds_total",
        "Wall-clock seconds spent in completed hub builds.",
        "counter",
    );
    out.push_str(&format!(
        "hk_hub_build_seconds_total {}\n",
        h.build_ns as f64 / 1e9
    ));
    family(
        &mut out,
        "hk_hub_precomputed_seeds",
        "Precomputed seeds pinned across all graphs.",
        "gauge",
    );
    sample(&mut out, "hk_hub_precomputed_seeds", s.cache.pinned_entries);
    family(
        &mut out,
        "hk_hub_resident_bytes",
        "Bytes pinned by precomputed hub results.",
        "gauge",
    );
    sample(&mut out, "hk_hub_resident_bytes", s.cache.pinned_bytes);

    // Per-graph serving tallies (sorted by name already).
    family(
        &mut out,
        "hk_graph_requests_total",
        "Blocking queries per graph by outcome.",
        "counter",
    );
    let per_graph = engine.per_graph_stats();
    for (name, g) in &per_graph {
        for (outcome, v) in [
            ("hit", g.hits),
            ("miss", g.misses),
            ("coalesced", g.coalesced),
            ("precomputed", g.precomputed),
            ("error", g.errors),
        ] {
            out.push_str(&format!(
                "hk_graph_requests_total{{graph=\"{name}\",outcome=\"{outcome}\"}} {v}\n"
            ));
        }
    }
    family(
        &mut out,
        "hk_graph_admission_rejections_total",
        "Requests rejected by the per-graph admission quota.",
        "counter",
    );
    for (name, g) in &per_graph {
        out.push_str(&format!(
            "hk_graph_admission_rejections_total{{graph=\"{name}\"}} {}\n",
            g.admission_rejections
        ));
    }

    // Gateway.
    family(
        &mut out,
        "hk_gateway_requests_total",
        "HTTP requests by endpoint class and status code.",
        "counter",
    );
    for ((endpoint, status), v) in gw.requests.lock().unwrap().iter() {
        out.push_str(&format!(
            "hk_gateway_requests_total{{endpoint=\"{endpoint}\",status=\"{status}\"}} {v}\n"
        ));
    }
    family(
        &mut out,
        "hk_gateway_request_seconds",
        "Request latency by outcome class \
         (hit/miss/coalesced/degraded/degraded_push/error).",
        "histogram",
    );
    for (i, class) in OUTCOME_CLASSES.iter().enumerate() {
        gw.latency[i].render(
            &mut out,
            "hk_gateway_request_seconds",
            &format!("class=\"{class}\""),
        );
    }
    family(
        &mut out,
        "hk_gateway_response_bytes_total",
        "Bytes of responses written whole to their sockets, head and body, \
         by endpoint class.",
        "counter",
    );
    for (endpoint, bytes) in ENDPOINTS.iter().zip(&gw.response_bytes) {
        out.push_str(&format!(
            "hk_gateway_response_bytes_total{{endpoint=\"{endpoint}\"}} {}\n",
            bytes.load(Ordering::Relaxed)
        ));
    }
    family(
        &mut out,
        "hk_gateway_encode_seconds_total",
        "Seconds spent writing answer bodies, by endpoint class.",
        "counter",
    );
    for (endpoint, ns) in ENCODING_ENDPOINTS.iter().zip(&gw.encode_ns) {
        out.push_str(&format!(
            "hk_gateway_encode_seconds_total{{endpoint=\"{endpoint}\"}} {}\n",
            ns.load(Ordering::Relaxed) as f64 / 1e9
        ));
    }
    family(
        &mut out,
        "hk_gateway_encoded_entries_total",
        "Estimate entries in the answer bodies counted by \
         hk_gateway_encode_seconds_total, by endpoint class.",
        "counter",
    );
    for (endpoint, n) in ENCODING_ENDPOINTS.iter().zip(&gw.encoded_entries) {
        out.push_str(&format!(
            "hk_gateway_encoded_entries_total{{endpoint=\"{endpoint}\"}} {}\n",
            n.load(Ordering::Relaxed)
        ));
    }
    family(
        &mut out,
        "hk_gateway_connections_total",
        "Connection lifecycle events.",
        "counter",
    );
    for (event, v) in [
        ("accepted", gw.conns_accepted.load(Ordering::Relaxed)),
        ("rejected", gw.conns_rejected.load(Ordering::Relaxed)),
        ("closed", gw.conns_closed.load(Ordering::Relaxed)),
    ] {
        out.push_str(&format!(
            "hk_gateway_connections_total{{event=\"{event}\"}} {v}\n"
        ));
    }
    family(
        &mut out,
        "hk_gateway_header_timeouts_total",
        "Connections dropped for exceeding the cumulative per-request \
         header budget (slow-loris defense).",
        "counter",
    );
    sample(
        &mut out,
        "hk_gateway_header_timeouts_total",
        gw.header_timeouts.load(Ordering::Relaxed),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_serve::{EngineConfig, MultiEngineConfig};

    fn tiny_engine() -> MultiEngine {
        MultiEngine::new(MultiEngineConfig {
            engine: EngineConfig {
                workers: 1,
                cache_bytes: 1 << 20,
                ..EngineConfig::default()
            },
            ..MultiEngineConfig::default()
        })
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_cover_inf() {
        let h = Histogram::default();
        h.observe(Duration::from_micros(50)); // bucket 0.0001
        h.observe(Duration::from_millis(2)); // bucket 0.003
        h.observe(Duration::from_secs(100)); // +Inf only
        let mut out = String::new();
        h.render(&mut out, "m", "class=\"x\"");
        assert!(out.contains("m_bucket{class=\"x\",le=\"0.0001\"} 1\n"));
        assert!(out.contains("m_bucket{class=\"x\",le=\"0.003\"} 2\n"));
        assert!(out.contains("m_bucket{class=\"x\",le=\"10\"} 2\n"));
        assert!(out.contains("m_bucket{class=\"x\",le=\"+Inf\"} 3\n"));
        assert!(out.contains("m_count{class=\"x\"} 3\n"));
    }

    #[test]
    fn every_mandatory_family_renders_at_zero_traffic() {
        let engine = tiny_engine();
        let gw = GatewayMetrics::new();
        let text = render_prometheus(&engine, &gw);
        for name in [
            "hk_engine_completed_total",
            "hk_engine_errors_total",
            "hk_engine_shed_queued_total",
            "hk_engine_cancelled_running_total",
            "hk_engine_degraded_total",
            "hk_engine_panics_total",
            "hk_engine_shed_overload_total",
            "hk_engine_queue_high_water",
            "hk_engine_workers",
            "hk_engine_live_workers",
            "hk_engine_workspace_bytes 0",
            "hk_engine_worker_workspace_bytes{worker=\"0\"} 0",
            "hk_cache_hits_total",
            "hk_cache_misses_total",
            "hk_cache_coalesced_total",
            "hk_cache_insertions_total",
            "hk_cache_evictions_total",
            "hk_cache_resident_bytes",
            "hk_registry_loads_total",
            "hk_registry_load_retries_total",
            "hk_registry_load_seconds_total",
            "hk_registry_fingerprints_computed_total 0",
            "hk_registry_fingerprint_seconds_total 0",
            "hk_registry_evictions_total",
            "hk_hub_hits_total",
            "hk_hub_builds_total",
            "hk_hub_build_seconds_total",
            "hk_hub_precomputed_seeds",
            "hk_hub_resident_bytes",
            "hk_gateway_requests_total",
            "hk_gateway_request_seconds_bucket",
            "hk_gateway_response_bytes_total{endpoint=\"query\"} 0",
            "hk_gateway_response_bytes_total{endpoint=\"other\"} 0",
            "hk_gateway_encode_seconds_total{endpoint=\"query\"} 0",
            "hk_gateway_encode_seconds_total{endpoint=\"batch\"} 0",
            "hk_gateway_encoded_entries_total{endpoint=\"query\"} 0",
            "hk_gateway_encoded_entries_total{endpoint=\"batch\"} 0",
            "hk_gateway_connections_total",
            "hk_gateway_header_timeouts_total",
            "hk_gateway_request_seconds_count{class=\"degraded_push\"}",
            "hk_gateway_request_seconds_count{class=\"precomputed\"}",
        ] {
            assert!(
                text.contains(name),
                "metric family {name} missing from scrape:\n{text}"
            );
        }
        // HELP/TYPE discipline: every sample line's family has a TYPE.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let fam = line.split(['{', ' ']).next().unwrap();
            let base = fam
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                text.contains(&format!("# TYPE {base} "))
                    || text.contains(&format!("# TYPE {fam} ")),
                "sample {fam} has no TYPE line"
            );
        }
    }

    #[test]
    fn request_recording_lands_in_the_right_class() {
        let engine = tiny_engine();
        let gw = GatewayMetrics::new();
        for (status, class, ms) in [(200, "miss", 1), (408, "error", 9), (200, "not-a-class", 1)] {
            gw.count("query", status);
            gw.observe(class, Duration::from_millis(ms));
        }
        let text = render_prometheus(&engine, &gw);
        assert!(text.contains("hk_gateway_requests_total{endpoint=\"query\",status=\"200\"} 2\n"));
        assert!(text.contains("hk_gateway_requests_total{endpoint=\"query\",status=\"408\"} 1\n"));
        assert!(text.contains("hk_gateway_request_seconds_count{class=\"miss\"} 1\n"));
        // Unknown classes file under `error` alongside the 408.
        assert!(text.contains("hk_gateway_request_seconds_count{class=\"error\"} 2\n"));
        // A slow write moves the filed latency, not the count: 1 ms in the
        // `le="0.001"` bucket becomes 40 ms in the `le="0.1"` one.
        assert!(text.contains("hk_gateway_request_seconds_bucket{class=\"miss\",le=\"0.001\"} 1\n"));
        gw.wrote("miss", Duration::from_millis(1), Duration::from_millis(40));
        let text = render_prometheus(&engine, &gw);
        assert!(text.contains("hk_gateway_request_seconds_bucket{class=\"miss\",le=\"0.03\"} 0\n"));
        assert!(text.contains("hk_gateway_request_seconds_bucket{class=\"miss\",le=\"0.1\"} 1\n"));
        assert!(text.contains("hk_gateway_request_seconds_sum{class=\"miss\"} 0.04\n"));
        assert!(text.contains("hk_gateway_request_seconds_count{class=\"miss\"} 1\n"));
        gw.sent("query", 700);
        gw.sent("query", 300);
        gw.sent("not-an-endpoint", 5);
        let text = render_prometheus(&engine, &gw);
        assert!(text.contains("hk_gateway_response_bytes_total{endpoint=\"query\"} 1000\n"));
        assert!(text.contains("hk_gateway_response_bytes_total{endpoint=\"other\"} 5\n"));
        gw.encoded("query", Duration::from_micros(300), 1000);
        gw.encoded("query", Duration::from_micros(200), 500);
        gw.encoded("batch", Duration::from_millis(2), 7);
        gw.encoded("healthz", Duration::from_secs(1), 1);
        let text = render_prometheus(&engine, &gw);
        assert!(text.contains("hk_gateway_encode_seconds_total{endpoint=\"query\"} 0.0005\n"));
        assert!(text.contains("hk_gateway_encode_seconds_total{endpoint=\"batch\"} 0.002\n"));
        assert!(text.contains("hk_gateway_encoded_entries_total{endpoint=\"query\"} 1500\n"));
        assert!(text.contains("hk_gateway_encoded_entries_total{endpoint=\"batch\"} 7\n"));
    }
}
