//! `direct-*`: `LocalClusterer::run_in` called in process by one caller.
//!
//! Work per slot is deterministic, so each slot keeps its best time over
//! the passes and percentiles are taken over slots (see [`crate::stats`]).
//! In a traced run every other slot of a pass is traced (`estimate_in`
//! then `sweep_in`, which `run_in` is documented to be exactly) and the
//! assignment flips from pass to pass, so both kinds of call see the
//! same slots and the same stretches of time; traced answers must be
//! bitwise equal to untraced ones.

use std::time::Instant;

use hk_cluster::{ClusterResult, LocalClusterer, Method, QueryScratch};
use hk_graph::io::load_binary_mmap;
use hk_graph::Graph;
use hkpr_core::{HkprParams, QueryStats};

use crate::input::{request_list, Request};
use crate::report::Outcome;
use crate::stats::{mean, percentile, slot_best, slot_best_pass, sorted};
use crate::trace::Tracer;
use crate::workload::{
    check_answer, child_cycles, report_cycles, report_input, report_passes, Cycle, PassClock,
    PassMeter, Run,
};

/// What must repeat exactly for a slot, pass after pass.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Answer {
    stats: QueryStats,
    support: usize,
    cluster_len: usize,
    conductance_bits: u64,
}

impl Answer {
    fn of(r: &ClusterResult) -> Answer {
        Answer {
            stats: r.stats,
            support: r.support_size,
            cluster_len: r.cluster.len(),
            conductance_bits: r.conductance.to_bits(),
        }
    }
}

/// One slot of one pass. A failed slot has `ns == u64::MAX`.
#[derive(Clone, Copy, Default)]
struct SlotRun {
    traced: bool,
    ns: u64,
    push_ns: u64,
    walk_ns: u64,
    /// Only a traced call can tell the sweep from the rest.
    sweep_ns: u64,
}

/// What a set-up cycle leaves ready to serve.
pub struct Ready {
    graph: Graph,
    params: HkprParams,
    scratch: QueryScratch,
}

/// Snapshot on disk → `load_binary_mmap` → `HkprParams` → fresh
/// `QueryScratch` → first answer.
pub fn setup_cycle(run: &Run) -> Result<(Cycle, Ready, ClusterResult), String> {
    let w = &run.workload;
    let first = request_list(run.seed, run.snapshot.nodes, w.draw, w.slots)[0];
    let t0 = Instant::now();
    let graph = load_binary_mmap(&run.snapshot.path).map_err(|e| format!("load: {e}"))?;
    let loaded = Instant::now();
    let params = w.params(&graph)?;
    let mut scratch = QueryScratch::new();
    let asked = Instant::now();
    let answer = query(&LocalClusterer::new(&graph), &first, &params, &mut scratch)?;
    let answered = Instant::now();
    let cycle = Cycle {
        total_s: (answered - t0).as_secs_f64(),
        start_ms: 0.0,
        load_ms: (loaded - t0).as_secs_f64() * 1e3,
        first_ms: (answered - asked).as_secs_f64() * 1e3,
    };
    Ok((
        cycle,
        Ready {
            graph,
            params,
            scratch,
        },
        answer,
    ))
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Result<Outcome, String> {
    let w = &run.workload;
    let requests = request_list(run.seed, run.snapshot.nodes, w.draw, w.slots);
    let mut outcome = Outcome::default();

    // ---- set-up: four cycles in children, the fifth here ------------------
    let mut cycles = child_cycles(run)?;
    let (cycle, ready, first) = setup_cycle(run)?;
    cycles.push(cycle);
    let Ready {
        graph,
        params,
        mut scratch,
    } = ready;
    check_answer(&mut outcome, &graph, 0, &first);
    drop(first);
    outcome.check(run.snapshot.fingerprint == graph.fingerprint(), || {
        "loaded snapshot's fingerprint differs from the generator's".into()
    });
    let clusterer = LocalClusterer::new(&graph);

    // ---- warm-up: one untimed pass, whose answers are the ones checked ----
    // and the ones every measured pass must repeat.
    let mut answers = Vec::with_capacity(requests.len());
    // A traced run keeps them whole, to compare traced answers with.
    let mut kept = Vec::new();
    let mut conductance_sum = 0.0;
    for (slot, req) in requests.iter().enumerate() {
        let result = query(&clusterer, req, &params, &mut scratch)?;
        check_answer(&mut outcome, &graph, slot, &result);
        conductance_sum += result.conductance;
        answers.push(Answer::of(&result));
        if run.trace {
            kept.push(result);
        }
    }

    // ---- measured passes -------------------------------------------------
    let mut meter = PassMeter::new(run.trace);
    let mut clock = PassClock::start(run);
    let mut passes: Vec<Vec<SlotRun>> = Vec::new();
    while clock.next_pass() {
        let pass = passes.len();
        let mut slots = vec![SlotRun::default(); requests.len()];
        meter.begin();
        for (slot, req) in requests.iter().enumerate() {
            outcome.attempted += 1;
            let traced = run.trace && (slot + pass) % 2 == 1;
            slots[slot].traced = traced;
            let t0 = Instant::now();
            let mut mid = t0;
            let result = if traced {
                clusterer
                    .estimate_in(
                        Method::TeaPlus,
                        req.node,
                        &params,
                        req.rng_seed,
                        &mut scratch.workspace,
                    )
                    .map(|(estimate, stats)| {
                        mid = Instant::now();
                        clusterer.sweep_in(req.node, estimate, stats, &mut scratch)
                    })
            } else {
                clusterer.run_in(
                    Method::TeaPlus,
                    req.node,
                    &params,
                    req.rng_seed,
                    &mut scratch,
                )
            };
            let t1 = Instant::now();
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    outcome.failed += 1;
                    outcome.failures.push(format!("slot {slot}: {e}"));
                    slots[slot].ns = u64::MAX;
                    continue;
                }
            };
            let phases = scratch.workspace.last_phase_times();
            slots[slot] = SlotRun {
                traced,
                ns: (t1 - t0).as_nanos() as u64,
                push_ns: phases.push_ns,
                walk_ns: phases.walk_ns,
                sweep_ns: if traced {
                    (t1 - mid).as_nanos() as u64
                } else {
                    0
                },
            };
            if traced {
                record_spans(tracer, pass, slot, t0, mid, t1, &slots[slot]);
                outcome.check(result.bitwise_eq(&kept[slot]), || {
                    format!("slot {slot}: traced answer is not bitwise equal to the untraced one")
                });
            }
            outcome.check(answers[slot] == Answer::of(&result), || {
                format!("slot {slot}: pass {pass} answered differently from the warm-up")
            });
        }
        meter.end();
        passes.push(slots);
    }

    // ---- figures ----------------------------------------------------------
    // `[pass][slot]` times of the calls of one kind; the other kind's
    // slots read +inf and so never win a per-slot best.
    let ms_of = |want_traced: bool| -> Vec<Vec<f64>> {
        let of = |s: &SlotRun| {
            if s.traced == want_traced {
                ms(s.ns)
            } else {
                f64::INFINITY
            }
        };
        passes.iter().map(|p| p.iter().map(of).collect()).collect()
    };
    let plain_ms = ms_of(false);
    let best = slot_best(&plain_ms);
    let done: Vec<f64> = best.iter().copied().filter(|v| v.is_finite()).collect();
    if done.is_empty() {
        return Err("no slot succeeded".into());
    }
    let best_sorted = sorted(&done);
    let m = &mut outcome.metrics;
    m.set("peak_rss_mb", crate::host::peak_rss_mb());
    m.set("query_p50_ms", percentile(&best_sorted, 0.5));
    m.set("query_p90_ms", percentile(&best_sorted, 0.9));
    m.set(
        "throughput_qps",
        done.len() as f64 / (done.iter().sum::<f64>() / 1e3),
    );
    m.set(
        "answer_conductance_mean",
        conductance_sum / answers.len() as f64,
    );

    // Phase split: each slot read from the pass in which it was fastest,
    // among its traced calls if there are any.
    let detail_ms = ms_of(run.trace);
    let picked: Vec<SlotRun> = slot_best_pass(&detail_ms)
        .iter()
        .enumerate()
        .map(|(slot, &p)| passes[p][slot])
        .filter(|s| s.ns != u64::MAX && s.traced == run.trace)
        .collect();
    let sum = |f: fn(&SlotRun) -> u64| picked.iter().map(|s| f(s) as f64).sum::<f64>();
    let (total, push, walk, sweep) = (
        sum(|s| s.ns),
        sum(|s| s.push_ns),
        sum(|s| s.walk_ns),
        sum(|s| s.sweep_ns),
    );
    let n = picked.len() as f64;
    let stat = |f: fn(&Answer) -> f64| mean(&answers.iter().map(f).collect::<Vec<_>>());
    let (ops, steps, support) = (
        stat(|a| a.stats.push_operations as f64),
        stat(|a| a.stats.walk_steps as f64),
        stat(|a| a.support as f64),
    );
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.set("core.push_ms", push / n / 1e6);
    m.set("core.walk_ms", walk / n / 1e6);
    m.set("core.push_share", push / total);
    m.set("core.walk_share", walk / total);
    m.set("core.push_ops", ops);
    m.set("core.walks", stat(|a| a.stats.random_walks as f64));
    m.set("core.walk_steps", steps);
    m.set(
        "core.early_exit_share",
        stat(|a| a.stats.early_exit as u8 as f64),
    );
    m.set("core.push_ns_per_op", per(push / n, ops));
    m.set("core.walk_ns_per_step", per(walk / n, steps));
    m.set(
        "core.workspace_mb",
        scratch.workspace.memory_bytes() as f64 / (1 << 20) as f64,
    );
    m.set("cluster.sweep_ms", sweep / n / 1e6);
    m.set("cluster.sweep_share", sweep / total);
    m.set("cluster.sweep_ns_per_support_node", per(sweep / n, support));
    m.set("cluster.support_size", support);
    m.set("cluster.cluster_size", stat(|a| a.cluster_len as f64));
    if run.trace {
        m.set(
            "bench.residual_share",
            (total - push - walk - sweep) / total,
        );
        let traced_best: f64 = slot_best(&detail_ms).iter().filter(|v| v.is_finite()).sum();
        m.set(
            "bench.trace_overhead_share",
            1.0 - done.iter().sum::<f64>() / traced_best,
        );
    }
    let pass_p50: Vec<f64> = passes
        .iter()
        .map(|p| {
            percentile(
                &sorted(&p.iter().map(|s| ms(s.ns)).collect::<Vec<_>>()),
                0.5,
            )
        })
        .collect();
    report_passes(&mut outcome, &pass_p50, requests.len());
    report_input(&mut outcome, &run.snapshot);
    report_cycles(&mut outcome, &cycles);
    meter.report(&mut outcome, requests.len());
    if !run.smoke {
        w.shape_guards(&mut outcome, &[]);
    }
    Ok(outcome)
}

fn ms(ns: u64) -> f64 {
    if ns == u64::MAX {
        f64::INFINITY
    } else {
        ns as f64 / 1e6
    }
}

fn query(
    clusterer: &LocalClusterer<'_>,
    req: &Request,
    params: &HkprParams,
    scratch: &mut QueryScratch,
) -> Result<ClusterResult, String> {
    clusterer
        .run_in(Method::TeaPlus, req.node, params, req.rng_seed, scratch)
        .map_err(|e| format!("query for node {}: {e}", req.node))
}

/// `query` ⊃ { `core.estimate` ⊃ { `core.push`, `core.walk` },
/// `cluster.sweep` }. Push and walk are known by duration only
/// (`PhaseTimes`) and are laid end to end from the estimate's start.
fn record_spans(
    tracer: &mut Tracer,
    pass: usize,
    slot: usize,
    t0: Instant,
    mid: Instant,
    t1: Instant,
    s: &SlotRun,
) {
    let query = tracer.span("query", t0, t1, None, pass, slot);
    let estimate = tracer.span("core.estimate", t0, mid, Some(query), pass, slot);
    let start = tracer.ns(t0);
    tracer.span_ns(
        "core.push",
        start,
        start + s.push_ns,
        Some(estimate),
        pass,
        slot,
    );
    tracer.span_ns(
        "core.walk",
        start + s.push_ns,
        start + s.push_ns + s.walk_ns,
        Some(estimate),
        pass,
        slot,
    );
    tracer.span("cluster.sweep", mid, t1, Some(query), pass, slot);
}
