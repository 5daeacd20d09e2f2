//! Equivalence of the dense epoch-stamped workspace paths against the
//! hash-map reference implementations.
//!
//! The dense push phases are *schedule-identical* transcriptions of the
//! reference code, so their outputs must match **bit for bit**: same
//! reserve values, same residues, same push counts, same condition-(11)
//! decisions. The walk phases are randomized, so end-to-end estimates are
//! compared statistically: identical deterministic stats (push counts,
//! `alpha`, walk counts), identical total mass, and the same
//! `(d, eps_r, delta)` guarantee against the exact power-series vector.

use hk_graph::builder::GraphBuilder;
use hk_graph::gen::{erdos_renyi_gnm, holme_kim};
use hk_graph::Graph;
use hkpr_core::push::{hk_push, hk_push_ws};
use hkpr_core::push_plus::{
    hk_push_plus, hk_push_plus_begin, hk_push_plus_finalize, hk_push_plus_step, hk_push_plus_ws,
    PushPlusConfig, PushPlusOutput, PushPlusWsStats, PushStepOutcome,
};
use hkpr_core::reference::{monte_carlo_reference, tea_plus_reference, tea_reference};
use hkpr_core::tea::tea_in;
use hkpr_core::tea_plus::{tea_plus_in, TeaPlusOptions};
use hkpr_core::walk::{k_random_walk, run_batched_walks, WalkScratch};
use hkpr_core::workspace::EpochCounter;
use hkpr_core::{
    exact_hkpr, monte_carlo_in, AliasTable, AnytimeControls, HkprParams, PoissonTable,
    QueryWorkspace, TeaOutput,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn build_graph(edges: &[(u8, u8)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1);
    for &(u, v) in edges {
        b.add_edge(u as u32 % 40, v as u32 % 40);
    }
    b.build()
}

/// Assert the dense push state equals the hash-map push output exactly.
fn assert_push_state_identical(
    g: &Graph,
    reserve: &hkpr_core::fxhash::FxHashMap<u32, f64>,
    residues: &hkpr_core::sparse::ResidueTable,
    ws: &QueryWorkspace,
) {
    // Reserve: equal supports, bit-equal values.
    let dense_reserve: Vec<(u32, f64)> = {
        let mut v: Vec<(u32, f64)> = ws.reserve().iter_nonzero().collect();
        v.sort_unstable_by_key(|&(u, _)| u);
        v
    };
    let mut ref_reserve: Vec<(u32, f64)> = reserve
        .iter()
        .map(|(&v, &x)| (v, x))
        .filter(|&(_, x)| x != 0.0)
        .collect();
    ref_reserve.sort_unstable_by_key(|&(u, _)| u);
    assert_eq!(dense_reserve, ref_reserve, "reserve vectors differ");

    // Residues: every (k, v) agrees bit-for-bit in both directions.
    for (k, v, r) in residues.entries() {
        assert_eq!(
            ws.residues().get(k, v),
            r,
            "residue mismatch at hop {k} node {v}"
        );
    }
    let mut dense_entries: Vec<(usize, u32, f64)> = ws.residues().entries().collect();
    dense_entries.sort_unstable_by_key(|&(k, v, _)| (k, v));
    let mut ref_entries: Vec<(usize, u32, f64)> = residues.entries().collect();
    ref_entries.sort_unstable_by_key(|&(k, v, _)| (k, v));
    assert_eq!(dense_entries, ref_entries, "residue entry sets differ");

    // Order included: hop-major, first touch first within a hop, whether
    // a hop is read off its frozen list or its live array.
    let dense_order: Vec<(usize, u32, f64)> = ws.residues().entries().collect();
    let ref_order: Vec<(usize, u32, f64)> = residues.entries_first_touch().collect();
    assert_eq!(dense_order, ref_order, "residue entry order differs");
    assert_eq!(ws.residues().nnz(), ref_order.len(), "nnz differs");

    let _ = g;
}

/// What the residue readers of a dense `HK-Push+` stop state see beyond
/// the entries themselves, against the hash-map reference stopped at the
/// same point: per-hop sums, and the published per-hop bounds.
fn assert_plus_readers_match_reference(
    g: &Graph,
    cfg: &PushPlusConfig,
    reference: &PushPlusOutput,
    ws: &QueryWorkspace,
) {
    for k in 0..=cfg.hop_cap {
        // The kernel batches a hop's sum per processed node, the table
        // moves it per entry: one value, two associations.
        let (dense, expect) = (ws.residues().hop_sum(k), reference.residues.hop_sum(k));
        assert!(
            (dense - expect).abs() <= 1e-12,
            "hop_sum({k}): {dense} vs {expect}"
        );
    }
    let bounds = ws.residue_bounds();
    assert_eq!(bounds.len(), cfg.hop_cap + 1);
    let mut exact = vec![0.0f64; cfg.hop_cap + 1];
    for (k, v, r) in reference.residues.entries() {
        exact[k] = exact[k].max(r / g.degree_nz(v) as f64);
    }
    for k in 0..=cfg.hop_cap {
        assert!(
            bounds[k] >= exact[k],
            "published bound of hop {k} is not an upper bound: {} < {}",
            bounds[k],
            exact[k]
        );
    }
    // Bit-exact for every drained hop, for the hop after the last drain
    // (nothing of it consumed yet) and for the empty hops beyond: only
    // the one hop a stop interrupted may keep a stale-high hint.
    let loose = (0..=cfg.hop_cap).filter(|&k| bounds[k] != exact[k]).count();
    assert!(loose <= 1, "{loose} hops publish an over-estimate");
}

/// Drive the resumable ladder to completion, pausing at every certified
/// tier.
fn push_plus_stepped(
    g: &Graph,
    p: &PoissonTable,
    seed: u32,
    cfg: &PushPlusConfig,
    ws: &mut QueryWorkspace,
) -> (PushPlusWsStats, usize) {
    hk_push_plus_begin(g, seed, cfg, ws);
    let mut pauses = 0usize;
    let mut pause_at = 1u32;
    loop {
        let mut controls = AnytimeControls {
            push_tier_cap: Some(pause_at),
            ..Default::default()
        };
        match hk_push_plus_step(g, p, cfg, &mut controls, ws).unwrap() {
            PushStepOutcome::Complete => break,
            PushStepOutcome::Paused { tiers_certified } => {
                pauses += 1;
                pause_at = tiers_certified + 1;
            }
            PushStepOutcome::Cancelled { .. } => panic!("no cancel source"),
        }
    }
    (hk_push_plus_finalize(cfg, ws), pauses)
}

/// Statistical agreement of two estimator outputs: deterministic stats
/// bit-equal (except fp-accumulation-ordered `alpha`), calibrated mass.
fn assert_outputs_agree(dense: &TeaOutput, reference: &TeaOutput) {
    assert_eq!(dense.stats.push_operations, reference.stats.push_operations);
    assert_eq!(dense.stats.early_exit, reference.stats.early_exit);
    assert_eq!(dense.stats.random_walks, reference.stats.random_walks);
    // alpha is the same sum accumulated in different entry orders.
    assert!(
        (dense.stats.alpha - reference.stats.alpha).abs() <= 1e-12,
        "alpha {} vs {}",
        dense.stats.alpha,
        reference.stats.alpha
    );
    assert!(
        (dense.estimate.raw_sum() - reference.estimate.raw_sum()).abs() <= 1e-9,
        "raw sums {} vs {}",
        dense.estimate.raw_sum(),
        reference.estimate.raw_sum()
    );
    assert_eq!(
        dense.estimate.offset_coeff(),
        reference.estimate.offset_coeff()
    );
}

/// Both outputs honor the `(d, eps_r, delta)` guarantee against the exact
/// vector (tiny per-node slack for the randomized walk phase).
fn assert_guarantee(g: &Graph, params: &HkprParams, seed: u32, out: &TeaOutput, label: &str) {
    let exact = exact_hkpr(g, params.poisson(), seed);
    let mut violations = 0usize;
    for v in 0..g.num_nodes() as u32 {
        let d = g.degree(v) as f64;
        if d == 0.0 {
            continue;
        }
        let approx = out.estimate.rho(g, v) / d;
        let truth = exact[v as usize] / d;
        let ok = if truth > params.delta() {
            (approx - truth).abs() <= params.eps_r() * truth + 0.05 * truth
        } else {
            (approx - truth).abs() <= params.eps_r() * params.delta() + 1e-6
        };
        if !ok {
            violations += 1;
        }
    }
    assert!(
        violations <= 2,
        "{label}: {violations} nodes violate the guarantee"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Dense HK-Push is bit-identical to the hash-map reference on
    /// arbitrary graphs and thresholds.
    #[test]
    fn push_dense_matches_reference_bitwise(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        rmax_exp in 1.0f64..6.0,
        t in 1.0f64..12.0,
    ) {
        let g = build_graph(&edges);
        let p = PoissonTable::new(t);
        let rmax = 10f64.powf(-rmax_exp);
        let reference = hk_push(&g, &p, 0, rmax);
        let mut ws = QueryWorkspace::new();
        let stats = hk_push_ws(&g, &p, 0, rmax, &mut ws);
        prop_assert_eq!(stats.push_operations, reference.push_operations);
        prop_assert_eq!(stats.iterations, reference.iterations);
        assert_push_state_identical(&g, &reference.reserve, &reference.residues, &ws);
        // Algorithm 1's hop sums move per entry in both, so alpha (and
        // with it TEA's walk count) is the reference's bit for bit.
        for k in 0..reference.residues.num_hops().max(ws.residues().num_hops()) {
            prop_assert_eq!(
                ws.residues().hop_sum(k).to_bits(),
                reference.residues.hop_sum(k).to_bits(),
                "hop_sum({})", k
            );
        }
        prop_assert_eq!(
            ws.residues().total_sum().to_bits(),
            reference.residues.total_sum().to_bits()
        );
    }

    /// Dense HK-Push+ is bit-identical to the hash-map reference —
    /// including the incremental condition-(11) decision — across
    /// hop caps, budgets and accuracy targets.
    #[test]
    fn push_plus_dense_matches_reference_bitwise(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        eps_exp in 1.0f64..4.0,
        hop_cap in 2usize..12,
        budget in 1u64..100_000,
    ) {
        let g = build_graph(&edges);
        let p = PoissonTable::new(5.0);
        let cfg = PushPlusConfig { hop_cap, eps_abs: 10f64.powf(-eps_exp), budget };
        let reference = hk_push_plus(&g, &p, 0, &cfg);
        let mut ws = QueryWorkspace::new();
        let stats = hk_push_plus_ws(&g, &p, 0, &cfg, &mut ws);
        prop_assert_eq!(stats.push_operations, reference.push_operations);
        prop_assert_eq!(stats.satisfied_condition_11, reference.satisfied_condition_11);
        assert_push_state_identical(&g, &reference.reserve, &reference.residues, &ws);
        assert_plus_readers_match_reference(&g, &cfg, &reference, &ws);
    }

    /// The same, on the stop states that leave some hops frozen and
    /// others live: a budget that runs out part-way (mid-hop, unless it
    /// happens to fall on a boundary), and a ladder paused at every
    /// certified tier and resumed — on a workspace an unrelated query
    /// has already used.
    #[test]
    fn push_plus_live_and_frozen_hops_read_like_the_reference(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        eps_exp in 1.0f64..4.0,
        hop_cap in 2usize..12,
        spent in 0.02f64..0.98,
    ) {
        let g = build_graph(&edges);
        let p = PoissonTable::new(5.0);
        let mut cfg = PushPlusConfig { hop_cap, eps_abs: 10f64.powf(-eps_exp), budget: u64::MAX };
        let mut ws = QueryWorkspace::new();
        let _ = hk_push_plus_ws(&g, &p, 1, &cfg, &mut ws);

        let full = hk_push_plus(&g, &p, 0, &cfg);
        let (stats, _pauses) = push_plus_stepped(&g, &p, 0, &cfg, &mut ws);
        prop_assert_eq!(stats.push_operations, full.push_operations);
        prop_assert_eq!(stats.satisfied_condition_11, full.satisfied_condition_11);
        assert_push_state_identical(&g, &full.reserve, &full.residues, &ws);
        assert_plus_readers_match_reference(&g, &cfg, &full, &ws);

        cfg.budget = (full.push_operations as f64 * spent) as u64;
        let reference = hk_push_plus(&g, &p, 0, &cfg);
        let stats = hk_push_plus_ws(&g, &p, 0, &cfg, &mut ws);
        prop_assert_eq!(stats.push_operations, reference.push_operations);
        prop_assert_eq!(stats.satisfied_condition_11, reference.satisfied_condition_11);
        assert_push_state_identical(&g, &reference.reserve, &reference.residues, &ws);
        assert_plus_readers_match_reference(&g, &cfg, &reference, &ws);
    }

    /// Workspace reuse never leaks state: running a query after an
    /// unrelated one on the same workspace gives the same push state as a
    /// fresh workspace.
    #[test]
    fn workspace_reuse_is_stateless(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..80),
        warm_seed in 0u8..40,
    ) {
        let g = build_graph(&edges);
        let p = PoissonTable::new(4.0);
        let cfg = PushPlusConfig { hop_cap: 5, eps_abs: 1e-3, budget: u64::MAX };
        let warm = (warm_seed as u32) % g.num_nodes() as u32;

        let mut reused = QueryWorkspace::new();
        let _ = hk_push_plus_ws(&g, &p, warm, &cfg, &mut reused);
        let stats_reused = hk_push_plus_ws(&g, &p, 0, &cfg, &mut reused);

        let mut fresh = QueryWorkspace::new();
        let stats_fresh = hk_push_plus_ws(&g, &p, 0, &cfg, &mut fresh);

        prop_assert_eq!(stats_reused, stats_fresh);
        let mut a: Vec<(usize, u32, f64)> = reused.residues().entries().collect();
        let mut b: Vec<(usize, u32, f64)> = fresh.residues().entries().collect();
        a.sort_unstable_by_key(|&(k, v, _)| (k, v));
        b.sort_unstable_by_key(|&(k, v, _)| (k, v));
        prop_assert_eq!(a, b);
        let mut ra: Vec<(u32, f64)> = reused.reserve().iter_nonzero().collect();
        let mut rb: Vec<(u32, f64)> = fresh.reserve().iter_nonzero().collect();
        ra.sort_unstable_by_key(|&(v, _)| v);
        rb.sort_unstable_by_key(|&(v, _)| v);
        prop_assert_eq!(ra, rb);
    }
}

/// Both dense push phases from `seed`, on `ws`, against the hash-map
/// references — bit for bit.
fn assert_both_pushes_match_reference(g: &Graph, seed: u32, ws: &mut QueryWorkspace) {
    let p = PoissonTable::new(5.0);
    for rmax in [1e-1, 1e-4] {
        let reference = hk_push(g, &p, seed, rmax);
        let stats = hk_push_ws(g, &p, seed, rmax, ws);
        assert_eq!(stats.push_operations, reference.push_operations);
        assert_eq!(stats.iterations, reference.iterations);
        assert_push_state_identical(g, &reference.reserve, &reference.residues, ws);
    }
    for (hop_cap, eps_abs) in [(1usize, 1e-1), (6, 1e-4)] {
        let cfg = PushPlusConfig {
            hop_cap,
            eps_abs,
            budget: u64::MAX,
        };
        let reference = hk_push_plus(g, &p, seed, &cfg);
        let stats = hk_push_plus_ws(g, &p, seed, &cfg, ws);
        assert_eq!(stats.push_operations, reference.push_operations);
        assert_eq!(
            stats.satisfied_condition_11,
            reference.satisfied_condition_11
        );
        assert_push_state_identical(g, &reference.reserve, &reference.residues, ws);
        assert_plus_readers_match_reference(g, &cfg, &reference, ws);
    }
}

/// The drain looks ahead of the worklist entry it is processing and
/// prefetches through the CSR arrays and the slot arrays. Every corner
/// where "ahead" runs off an end — of the worklist, of the offsets, of the
/// neighbor array, of a slot array sized for another graph — must be a
/// declined hint, not a read.
#[test]
fn lookahead_declines_at_every_edge() {
    let mut ws = QueryWorkspace::new();

    // n = 1: the seed is the graph.
    let mut b = GraphBuilder::new();
    b.ensure_nodes(1);
    let lone = b.build();
    assert_eq!((lone.num_nodes(), lone.volume()), (1, 0));
    assert_both_pushes_match_reference(&lone, 0, &mut ws);

    // Worklists shorter than every lookahead distance (a path), isolated
    // nodes between and after the connected ones, and an isolated last
    // node: its CSR row starts at `volume()`, one past the neighbor array.
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1);
    b.add_edge(1, 3);
    b.add_edge(3, 4);
    b.ensure_nodes(7);
    let path = b.build();
    assert_eq!(path.neighbor_row(6), (path.volume(), 0));
    for seed in [0, 1, 2, 4, 5, 6] {
        assert_both_pushes_match_reference(&path, seed, &mut ws);
    }

    // Grow the workspace on a larger graph, then come back to the small
    // ones: slot arrays longer than the graph, stamps of another graph.
    let mut gen_rng = SmallRng::seed_from_u64(41);
    let big = holme_kim(600, 4, 0.3, &mut gen_rng).unwrap();
    for seed in [0, 599] {
        assert_both_pushes_match_reference(&big, seed, &mut ws);
    }
    assert_both_pushes_match_reference(&path, 3, &mut ws);
    assert_both_pushes_match_reference(&lone, 0, &mut ws);

    // A hub whose row is far longer than any lookahead distance, hanging
    // off a worklist of one.
    let mut b = GraphBuilder::new();
    for leaf in 1..200 {
        b.add_edge(0, leaf);
    }
    let star = b.build();
    for seed in [0, 199] {
        assert_both_pushes_match_reference(&star, seed, &mut ws);
    }
}

/// One workspace serving TEA, TEA+ and Monte-Carlo queries in turn, on
/// graphs of different sizes, answers each of them as a fresh workspace
/// does — bit for bit. The residue arrays change hands between hop levels
/// inside a query and between estimators and graphs across queries; none
/// of it may show.
#[test]
fn one_workspace_across_estimators_and_graphs_matches_fresh_ones() {
    let mut gen_rng = SmallRng::seed_from_u64(43);
    let small = holme_kim(300, 4, 0.3, &mut gen_rng).unwrap();
    let large = holme_kim(1_500, 5, 0.4, &mut gen_rng).unwrap();
    let graphs = [&large, &small, &large, &small];

    #[derive(Clone, Copy, Debug)]
    enum Estimator {
        Tea,
        TeaPlus,
        MonteCarlo,
    }
    let run = |which: Estimator, g: &Graph, seed: u32, ws: &mut QueryWorkspace| -> TeaOutput {
        // delta below 1/n on both graphs, so TEA+ walks on some of these
        // and exits early on others.
        let params = HkprParams::builder(g)
            .t(5.0)
            .delta(2e-4)
            .p_f(1e-3)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed as u64 + 7);
        match which {
            Estimator::Tea => tea_in(g, &params, seed, None, &mut rng, ws),
            Estimator::TeaPlus => tea_plus_in(g, &params, seed, &mut rng, ws),
            Estimator::MonteCarlo => monte_carlo_in(g, &params, seed, Some(20_000), &mut rng, ws),
        }
        .unwrap()
    };

    let mut shared = QueryWorkspace::new();
    let mut walked = 0usize;
    for (i, g) in graphs.into_iter().enumerate() {
        for which in [Estimator::TeaPlus, Estimator::Tea, Estimator::MonteCarlo] {
            let seed = (i as u32 * 37 + 11) % g.num_nodes() as u32;
            let reused = run(which, g, seed, &mut shared);
            let fresh = run(which, g, seed, &mut QueryWorkspace::new());
            assert_eq!(reused.stats, fresh.stats, "{which:?} on graph {i}");
            assert_eq!(
                reused.stats.alpha.to_bits(),
                fresh.stats.alpha.to_bits(),
                "{which:?} on graph {i}"
            );
            assert_eq!(
                reused.estimate.offset_coeff().to_bits(),
                fresh.estimate.offset_coeff().to_bits()
            );
            let a: Vec<(u32, u64)> = reused
                .estimate
                .support()
                .map(|(v, x)| (v, x.to_bits()))
                .collect();
            let b: Vec<(u32, u64)> = fresh
                .estimate
                .support()
                .map(|(v, x)| (v, x.to_bits()))
                .collect();
            assert_eq!(a, b, "{which:?} on graph {i}");
            walked += usize::from(reused.stats.random_walks > 0);
        }
    }
    assert!(walked >= 8, "the walk phase must run too ({walked} of 12)");
}

#[test]
fn tea_dense_agrees_with_reference_on_er_graph() {
    let mut gen_rng = SmallRng::seed_from_u64(7);
    let g = erdos_renyi_gnm(60, 180, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .eps_r(0.3)
        .delta(1e-3)
        .p_f(0.01)
        .build()
        .unwrap();
    let mut ws = QueryWorkspace::new();
    for seed in [0u32, 3, 17] {
        let dense = tea_in(
            &g,
            &params,
            seed,
            None,
            &mut SmallRng::seed_from_u64(2),
            &mut ws,
        )
        .unwrap();
        let reference =
            tea_reference(&g, &params, seed, None, &mut SmallRng::seed_from_u64(2)).unwrap();
        assert_outputs_agree(&dense, &reference);
        assert_guarantee(&g, &params, seed, &dense, "tea dense");
        assert_guarantee(&g, &params, seed, &reference, "tea reference");
    }
}

#[test]
fn tea_plus_dense_agrees_with_reference_on_plc_graph() {
    let mut gen_rng = SmallRng::seed_from_u64(5);
    let g = holme_kim(800, 5, 0.3, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .eps_r(0.5)
        .delta(1e-4)
        .p_f(1e-4)
        .build()
        .unwrap();
    let mut ws = QueryWorkspace::new();
    for seed in [0u32, 101, 555] {
        let dense =
            tea_plus_in(&g, &params, seed, &mut SmallRng::seed_from_u64(6), &mut ws).unwrap();
        let reference = tea_plus_reference(
            &g,
            &params,
            seed,
            TeaPlusOptions::default(),
            &mut SmallRng::seed_from_u64(6),
        )
        .unwrap();
        assert_outputs_agree(&dense, &reference);
    }
}

#[test]
fn tea_plus_dense_honors_guarantee_on_er_graph() {
    let mut gen_rng = SmallRng::seed_from_u64(9);
    let g = erdos_renyi_gnm(80, 240, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .eps_r(0.4)
        .delta(1e-3)
        .p_f(0.01)
        .build()
        .unwrap();
    let mut ws = QueryWorkspace::new();
    let dense = tea_plus_in(&g, &params, 7, &mut SmallRng::seed_from_u64(10), &mut ws).unwrap();
    assert_guarantee(&g, &params, 7, &dense, "tea+ dense");
}

#[test]
fn monte_carlo_dense_agrees_with_reference() {
    let mut gen_rng = SmallRng::seed_from_u64(11);
    let g = holme_kim(300, 4, 0.3, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(1e-3)
        .p_f(0.01)
        .build()
        .unwrap();
    let mut ws = QueryWorkspace::new();
    let dense = monte_carlo_in(
        &g,
        &params,
        0,
        Some(30_000),
        &mut SmallRng::seed_from_u64(12),
        &mut ws,
    )
    .unwrap();
    let reference = monte_carlo_reference(
        &g,
        &params,
        0,
        Some(30_000),
        &mut SmallRng::seed_from_u64(12),
    )
    .unwrap();
    assert_eq!(dense.stats.random_walks, reference.stats.random_walks);
    assert!((dense.estimate.raw_sum() - 1.0).abs() < 1e-9);
    assert!((reference.estimate.raw_sum() - 1.0).abs() < 1e-9);
    // Endpoint distributions agree within Monte-Carlo noise.
    for v in 0..g.num_nodes() as u32 {
        let diff = (dense.estimate.raw(v) - reference.estimate.raw(v)).abs();
        assert!(diff < 0.02, "node {v}: {diff}");
    }
}

#[test]
fn batched_engine_deterministic_for_fixed_rng() {
    let mut gen_rng = SmallRng::seed_from_u64(13);
    let g = holme_kim(500, 5, 0.4, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(1e-4)
        .p_f(1e-3)
        .build()
        .unwrap();
    let mut ws = QueryWorkspace::new();
    let a = tea_plus_in(&g, &params, 0, &mut SmallRng::seed_from_u64(14), &mut ws).unwrap();
    let b = tea_plus_in(&g, &params, 0, &mut SmallRng::seed_from_u64(14), &mut ws).unwrap();
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.estimate.nnz(), b.estimate.nnz());
    for (x, y) in a.estimate.support().zip(b.estimate.support()) {
        assert_eq!(x, y);
    }
}

/// TEA+-shaped walk-start entries (mixed hops, skewed weights) from a real
/// HK-Push+ run on a generated PLC graph.
fn walk_entry_fixture(n: usize) -> (Graph, PoissonTable, Vec<(u32, u32)>, Vec<f64>) {
    let mut gen_rng = SmallRng::seed_from_u64(23);
    let g = holme_kim(n, 5, 0.4, &mut gen_rng).unwrap();
    let poisson = PoissonTable::new(5.0);
    let cfg = PushPlusConfig {
        hop_cap: 10,
        eps_abs: 1e-5,
        budget: u64::MAX,
    };
    let mut ws = QueryWorkspace::new();
    hk_push_plus_ws(&g, &poisson, 0, &cfg, &mut ws);
    let entries: Vec<(u32, u32)> = ws
        .residues()
        .entries()
        .map(|(k, v, _)| (k as u32, v))
        .collect();
    let weights: Vec<f64> = ws.residues().entries().map(|(_, _, r)| r).collect();
    assert!(!entries.is_empty());
    (g, poisson, entries, weights)
}

/// The walk plan through the lane kernel: `(sorted counts, steps)`.
fn run_lanes(
    g: &Graph,
    poisson: &PoissonTable,
    entries: &[(u32, u32)],
    weights: &[f64],
    nr: u64,
    master_seed: u64,
) -> (Vec<(u32, u64)>, u64) {
    let mut counts = EpochCounter::new();
    let steps = run_batched_walks(
        g,
        poisson,
        entries,
        &AliasTable::new(weights),
        nr,
        master_seed,
        None,
        &mut counts,
        &mut WalkScratch::default(),
    );
    let mut counts: Vec<(u32, u64)> = counts.iter().collect();
    counts.sort_unstable();
    (counts, steps)
}

/// The lane kernel consumes a different RNG stream than Algorithm 2's
/// step-by-step stop test, so its output is a different *sample* of the
/// same distribution. On a real graph with a
/// realistic entry mix the endpoint frequencies must agree with a plain
/// `k_random_walk` loop over the same alias table within Monte-Carlo
/// noise — the distribution-agreement gate of length presampling.
#[test]
fn presampled_kernels_distribution_matches_stepwise_baseline() {
    let (g, poisson, entries, weights) = walk_entry_fixture(800);
    let nr = 300_000u64;
    let (table, mut rng) = (AliasTable::new(&weights), SmallRng::seed_from_u64(5));
    let mut stepwise = vec![0u64; g.num_nodes()];
    for _ in 0..nr {
        let (k, u) = entries[table.sample(&mut rng)];
        stepwise[k_random_walk(&g, &poisson, u, k as usize, &mut rng).0 as usize] += 1;
    }
    let stepwise: Vec<f64> = stepwise.iter().map(|&c| c as f64 / nr as f64).collect();
    let mut freq = vec![0.0; g.num_nodes()];
    for (v, c) in run_lanes(&g, &poisson, &entries, &weights, nr, 5).0 {
        freq[v as usize] = c as f64 / nr as f64;
    }
    let mut total_var_dist = 0.0f64;
    for v in 0..g.num_nodes() {
        let diff = (freq[v] - stepwise[v]).abs();
        // Per-node: two independent binomial estimates; 6 sigma.
        let p = stepwise[v].max(freq[v]);
        let sigma = (2.0 * p * (1.0 - p) / nr as f64).sqrt();
        assert!(
            diff <= 6.0 * sigma + 1e-4,
            "node {v}: |{} - {}| = {diff} > 6 sigma ({sigma})",
            freq[v],
            stepwise[v]
        );
        total_var_dist += diff;
    }
    // Aggregate: total variation distance between the two empirical
    // distributions stays at sampling-noise scale. Two independent
    // nr-sample estimates of the same distribution differ per node by
    // E|diff| = sqrt(2 p(1-p)/nr) * sqrt(2/pi), so the expected TV is
    // half the sum of those — assert within 3x of that analytic noise
    // floor (a systematically wrong kernel, e.g. an off-by-one walk
    // length, lands an order of magnitude above it).
    let noise_floor: f64 = stepwise
        .iter()
        .map(|&p| (2.0 * p * (1.0 - p) / nr as f64).sqrt())
        .sum::<f64>()
        * (2.0 / std::f64::consts::PI).sqrt()
        / 2.0;
    assert!(
        total_var_dist / 2.0 < 3.0 * noise_floor.max(1e-3),
        "TV distance {} above noise floor {noise_floor}",
        total_var_dist / 2.0
    );
}
