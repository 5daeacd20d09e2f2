//! The four workloads, their knobs, and the scaffolding both kinds of
//! run share: the pass clock and the per-pass host readings.

use std::process::Command;
use std::time::{Duration, Instant};

use hk_cluster::ClusterResult;
use hk_graph::Graph;
use hk_serve::{Knobs, ParamsKey};
use hkpr_core::HkprParams;

use crate::host::{process_cpu_ms, Calibration, StealWindow};
use crate::input::{field, Draw, Snapshot};
use crate::report::Outcome;
use crate::stats::{median, range_spread, sorted};

/// Nodes of the full-size graph.
pub const FULL_NODES: usize = 1_000_000;
/// Nodes of the `--smoke` graph.
pub const SMOKE_NODES: usize = 20_000;
/// Cold-start cycles per run; `setup_s` is the best of them. All but the
/// last run in child processes of their own, the last in the measured
/// process, which goes on to serve from what it set up.
pub const SETUP_CYCLES: usize = 5;
/// Fewest measured passes of a full-size untraced run, whatever
/// `--seconds` says: per-slot best needs each slot seen at three times
/// that are seconds apart.
pub const MIN_PASSES: usize = 3;
/// Relative error threshold of every query (the paper's default).
pub const EPS_R: f64 = 0.5;
/// Failure probability of every query (the paper's default).
pub const P_F: f64 = 1e-6;
/// TEA+ hop-cap constant — `EngineConfig::default().hop_c`, so `direct-*`
/// and `wire-*` compute with the same parameters.
pub const HOP_C: f64 = 2.5;

/// Which layers a workload crosses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `LocalClusterer::run_in` called in process; serve and gateway are
    /// bypassed. One caller.
    Direct,
    /// `POST /query/{graph}` over loopback through a gateway hosted in
    /// the benchmark process. Two keep-alive connections.
    Wire,
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists (also in `BENCHMARK.json` and the README).
    pub why: &'static str,
    pub path: Path,
    /// Heat constant.
    pub t: f64,
    /// Normalized-HKPR threshold.
    pub delta: f64,
    /// Slots of the request list (Q); every pass replays all of them.
    pub slots: usize,
    pub draw: Draw,
    /// Result-cache budget of the engine (`wire-*` only).
    pub cache_bytes: usize,
    /// Result-cache shards (`wire-*` only).
    pub cache_shards: usize,
}

/// Knobs of the push-bound point: HK-Push+ satisfies condition (11) on
/// its own (early exit 1.00), ≈265k push operations, support ≈19k nodes.
const PUSH_T: f64 = 5.0;
const PUSH_DELTA: f64 = 2e-5;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "direct-push",
        why: "TEA+ in process at t=5, delta=2e-5: HK-Push+ is ~83% of the time and no walk runs; serve and gateway are bypassed",
        path: Path::Direct,
        t: PUSH_T,
        delta: PUSH_DELTA,
        slots: 160,
        draw: Draw::Uniform,
        cache_bytes: 0,
        cache_shards: 0,
    },
    Workload {
        name: "direct-walk",
        why: "TEA+ in process at t=30, delta=3e-4: walks, residue reduction and assembly are ~65% of the time and push ~10%, so a push change must show no movement here",
        path: Path::Direct,
        t: 30.0,
        delta: 3e-4,
        slots: 100,
        draw: Draw::Uniform,
        cache_bytes: 0,
        cache_shards: 0,
    },
    Workload {
        name: "wire-hot",
        why: "POST /query over loopback, every measured request a cache hit: core and cluster do nothing, the time is gateway encode/decode, sockets and the serve hit path",
        path: Path::Wire,
        t: PUSH_T,
        delta: PUSH_DELTA,
        slots: 512,
        // 256 rather than a few dozen: the figures are means and medians
        // over the hot set's response sizes, and with 64 keys the draw of
        // the set alone moved them by ~6 % between seeds.
        draw: Draw::HotCycle { hot: 256 },
        // Never the constraint: 256 entries of ~0.3 MB are resident.
        cache_bytes: 1 << 30,
        cache_shards: 16,
    },
    Workload {
        name: "wire-zipf",
        why: "Same endpoint under Zipf(1.0) over 2000 seeds with a cache that evicts in every pass: hits, misses, inserts and evictions share one engine worker, so every layer is on the path",
        path: Path::Wire,
        t: PUSH_T,
        delta: PUSH_DELTA,
        slots: 240,
        draw: Draw::Zipf { pool: 2000, s: 1.0 },
        // ~100 entries of ~0.3 MB in one LRU: hit share ≈ 0.4.
        cache_bytes: 30 << 20,
        cache_shards: 1,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The workload as a run of this size executes it, and the size of
    /// its graph.
    pub fn sized(self, smoke: bool) -> (Workload, usize) {
        if smoke {
            (self.smoke(), SMOKE_NODES)
        } else {
            (self, FULL_NODES)
        }
    }

    /// The plumbing-test form: same code paths, a fraction of the work.
    /// Shape guards are not applied to it (they describe the full-size
    /// input).
    fn smoke(mut self) -> Workload {
        self.slots = 24;
        self.draw = match self.draw {
            Draw::Uniform => Draw::Uniform,
            Draw::HotCycle { .. } => Draw::HotCycle { hot: 6 },
            Draw::Zipf { s, .. } => Draw::Zipf { pool: 40, s },
        };
        if self.cache_shards == 1 {
            self.cache_bytes = 3 << 20;
        }
        self
    }

    /// The knob values a request carries on the wire.
    pub fn knobs(&self) -> Knobs {
        Knobs {
            t: self.t,
            eps_r: EPS_R,
            delta: Some(self.delta),
            p_f: P_F,
        }
    }

    /// The parameters the serving engine computes with for
    /// [`knobs`](Self::knobs) — the canonical values of their cache-key
    /// bucket — so `direct-*` and `wire-*` do identical work per query
    /// and wire answers can be compared with in-process ones bit for bit.
    pub fn params(&self, graph: &Graph) -> Result<HkprParams, String> {
        let (t, eps_r, delta, p_f) = ParamsKey::new(self.t, EPS_R, self.delta, P_F).canonical();
        HkprParams::builder(graph)
            .t(t)
            .eps_r(eps_r)
            .delta(delta)
            .p_f(p_f)
            .c(HOP_C)
            .build()
            .map_err(|e| format!("params: {e}"))
    }

    /// Fail the run if it measured a different experiment than the one
    /// this workload is named for.
    pub fn shape_guards(&self, outcome: &mut Outcome, evictions_per_pass: &[u64]) {
        let m = |name: &str| outcome.metrics.get(name);
        let (push, walk, early, hit) = (
            m("core.push_share"),
            m("core.walk_share"),
            m("core.early_exit_share"),
            m("serve.hit_share"),
        );
        let name = self.name;
        match name {
            "direct-push" => {
                outcome.check(push >= 0.70, || {
                    format!("{name}: core.push_share {push:.3} < 0.70")
                });
                outcome.check(walk <= 0.10, || {
                    format!("{name}: core.walk_share {walk:.3} > 0.10")
                });
            }
            "direct-walk" => {
                outcome.check(walk >= 0.55, || {
                    format!("{name}: core.walk_share {walk:.3} < 0.55")
                });
                outcome.check(push <= 0.20, || {
                    format!("{name}: core.push_share {push:.3} > 0.20")
                });
                outcome.check(early <= 0.05, || {
                    format!("{name}: core.early_exit_share {early:.3} > 0.05")
                });
            }
            "wire-hot" => outcome.check(hit >= 0.99, || {
                format!("{name}: serve.hit_share {hit:.3} < 0.99")
            }),
            "wire-zipf" => {
                outcome.check((0.35..=0.75).contains(&hit), || {
                    format!("{name}: serve.hit_share {hit:.3} outside 0.35..=0.75")
                });
                outcome.check(evictions_per_pass.iter().all(|&e| e > 0), || {
                    format!("{name}: a pass without cache evictions: {evictions_per_pass:?}")
                });
            }
            other => unreachable!("no shape guards for {other}"),
        }
    }
}

/// What one invocation was asked to do.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    /// Measured-phase budget (`--seconds`).
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub snapshot: Snapshot,
}

/// One cold start: snapshot on disk → first correct answer.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cycle {
    /// The whole cycle; what `setup_s` is taken from.
    pub total_s: f64,
    /// `wire-*`: engine construction, registration and gateway bind.
    pub start_ms: f64,
    /// Snapshot load (map + full validation).
    pub load_ms: f64,
    /// The first query: first touch of a fresh workspace.
    pub first_ms: f64,
}

impl Cycle {
    /// The report line of a `setup` child.
    pub fn line(&self) -> String {
        format!(
            "total_s={} start_ms={} load_ms={} first_ms={}",
            self.total_s, self.start_ms, self.load_ms, self.first_ms
        )
    }

    fn parse(line: &str) -> Result<Cycle, String> {
        Ok(Cycle {
            total_s: field(line, "total_s")?,
            start_ms: field(line, "start_ms")?,
            load_ms: field(line, "load_ms")?,
            first_ms: field(line, "first_ms")?,
        })
    }
}

/// Run all but the last set-up cycle, each in a fresh child process
/// (`setup <workload> <seed> <smoke> <snapshot>`), one after the other.
/// A cycle repeated inside one process would reuse heap pages the
/// previous cycle already faulted in and so understate a cold start, and
/// the engines it leaves behind would inflate `peak_rss_mb` (five
/// `wire-*` engines in one process read 1.15 GB where one reads 0.4 GB).
pub fn child_cycles(run: &Run) -> Result<Vec<Cycle>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (1..SETUP_CYCLES)
        .map(|_| {
            let output = Command::new(&exe)
                .args(["setup", run.workload.name, &run.seed.to_string()])
                .arg(if run.smoke { "1" } else { "0" })
                .arg(&run.snapshot.path)
                .output()
                .map_err(|e| format!("spawn setup child: {e}"))?;
            if !output.status.success() {
                return Err(format!(
                    "setup child failed: {}",
                    String::from_utf8_lossy(&output.stderr)
                ));
            }
            Cycle::parse(&String::from_utf8_lossy(&output.stdout))
        })
        .collect()
}

/// Record `setup_s` and the per-layer parts of the set-up cycles.
pub fn report_cycles(outcome: &mut Outcome, cycles: &[Cycle]) {
    let of = |f: fn(&Cycle) -> f64| cycles.iter().map(f).collect::<Vec<_>>();
    let m = &mut outcome.metrics;
    m.set("setup_s", sorted(&of(|c| c.total_s))[0]);
    m.set("serve.engine_start_ms", median(&of(|c| c.start_ms)));
    m.set("graph.load_ms", median(&of(|c| c.load_ms)));
    m.set("core.first_query_ms", median(&of(|c| c.first_ms)));
}

/// Decides whether another pass runs. A full-size run measures whole
/// passes for `--seconds`: a pass starts only if, going by the previous
/// one, it will end inside the budget — but never fewer than `min`.
/// `--smoke` runs exactly `min`.
pub struct PassClock {
    started: Instant,
    budget: Duration,
    min: usize,
    exact: bool,
    done: usize,
    last_pass_began: Instant,
}

impl PassClock {
    pub fn start(run: &Run) -> PassClock {
        let now = Instant::now();
        PassClock {
            started: now,
            budget: Duration::from_secs_f64(run.seconds),
            // A traced run splits its passes between plain and traced
            // calls and needs two of each kind per slot.
            min: match (run.smoke, run.trace) {
                (true, _) => 2,
                (false, true) => 4,
                (false, false) => MIN_PASSES,
            },
            exact: run.smoke,
            done: 0,
            last_pass_began: now,
        }
    }

    /// Call before each pass; `true` means run it.
    pub fn next_pass(&mut self) -> bool {
        let now = Instant::now();
        let go = if self.done < self.min {
            true
        } else if self.exact {
            false
        } else {
            let last = now - self.last_pass_began;
            now - self.started + last <= self.budget
        };
        if go {
            self.done += 1;
            self.last_pass_began = now;
        }
        go
    }
}

/// Host readings taken around every pass.
pub struct PassMeter {
    /// Only a traced run reports (and so runs) the calibration kernel.
    calib: Option<Calibration>,
    steal: StealWindow,
    cpu_ms: Vec<f64>,
    cpu_at_begin: f64,
}

impl PassMeter {
    pub fn new(trace: bool) -> PassMeter {
        PassMeter {
            calib: trace.then(Calibration::new),
            steal: StealWindow::open(),
            cpu_ms: Vec::new(),
            cpu_at_begin: 0.0,
        }
    }

    pub fn begin(&mut self) {
        if let Some(calib) = &mut self.calib {
            calib.sample();
        }
        self.cpu_at_begin = process_cpu_ms();
    }

    pub fn end(&mut self) {
        self.cpu_ms.push(process_cpu_ms() - self.cpu_at_begin);
    }

    /// Record the `bench.cpu_ms_per_query` and `host.*` metrics.
    pub fn report(&self, outcome: &mut Outcome, slots: usize) {
        let m = &mut outcome.metrics;
        m.set(
            "bench.cpu_ms_per_query",
            median(&self.cpu_ms) / slots as f64,
        );
        m.set("host.nproc", crate::host::nproc());
        m.set("host.steal_share", self.steal.share());
        m.set(
            "host.calib_ms",
            self.calib.as_ref().map_or(0.0, Calibration::median_ms),
        );
    }
}

/// What holds for every answer of the program, checked against the
/// graph: the cluster is a non-empty, strictly ascending set of nodes of
/// the estimate's support, and its conductance recomputed with
/// `hk_cluster::conductance` is the one reported. (The cluster need not
/// contain the seed: a sweep returns the best *prefix* of the ranking,
/// and at t=30 the seed is often ranked below where that prefix ends.)
pub fn check_answer(outcome: &mut Outcome, graph: &Graph, slot: usize, r: &ClusterResult) {
    let ascending = r.cluster.windows(2).all(|w| w[0] < w[1]);
    let in_range = r
        .cluster
        .last()
        .is_some_and(|&v| (v as usize) < graph.num_nodes());
    outcome.check(ascending && in_range, || {
        format!("slot {slot}: cluster is empty, unsorted or out of range")
    });
    // `support_size == 0` is the documented singleton fallback.
    if ascending && r.support_size > 0 {
        let mut support = r.estimate.support().map(|(v, _)| v);
        let inside = r.cluster.iter().all(|&v| support.any(|u| u == v));
        outcome.check(inside, || {
            format!("slot {slot}: cluster has a node outside the estimate's support")
        });
    }
    let recomputed = hk_cluster::conductance(graph, &r.cluster);
    outcome.check(
        (recomputed - r.conductance).abs() <= 1e-12 * recomputed.abs().max(1.0),
        || {
            format!(
                "slot {slot}: conductance {} but recomputed {recomputed}",
                r.conductance
            )
        },
    );
}

/// Record the `graph.*` metrics that identify the input.
pub fn report_input(outcome: &mut Outcome, snapshot: &Snapshot) {
    let m = &mut outcome.metrics;
    m.set("graph.nodes", snapshot.nodes as f64);
    m.set("graph.edges", snapshot.edges as f64);
    m.set(
        "graph.snapshot_mb",
        snapshot.bytes as f64 / (1 << 20) as f64,
    );
    m.set("graph.gen_s", snapshot.gen_s);
    m.set("graph.save_s", snapshot.save_s);
}

/// Record the `bench.pass_*` metrics from per-pass p50 latencies (ms).
pub fn report_passes(outcome: &mut Outcome, pass_p50_ms: &[f64], slots: usize) {
    let ascending = sorted(pass_p50_ms);
    let m = &mut outcome.metrics;
    m.set("bench.passes", pass_p50_ms.len() as f64);
    m.set("bench.slots", slots as f64);
    m.set("bench.pass_p50_ms_min", ascending[0]);
    m.set("bench.pass_p50_ms_median", median(pass_p50_ms));
    m.set("bench.pass_p50_ms_max", ascending[ascending.len() - 1]);
    m.set("bench.pass_spread", range_spread(pass_p50_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_are_the_four_of_the_issue() {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            ["direct-push", "direct-walk", "wire-hot", "wire-zipf"]
        );
        assert!(WORKLOADS
            .iter()
            .all(|w| w.why.len() <= 200 && !w.why.contains('\n')));
        assert!(find("wire-zipf").is_some() && find("nope").is_none());
    }
}
