//! Anytime-execution conformance and refinement-monotonicity suite.
//!
//! Every query climbs the tiered ladder (`estimate_in` is the one driver
//! of TEA, TEA+ and Monte-Carlo, and `into_complete` its
//! run-to-completion view), so what a completed ladder returns is pinned
//! by the golden fixtures
//! (`hk-serve/tests/golden.rs`) and the hash-map references
//! (`tests/equivalence.rs`), not here. This suite pins what only the
//! ladder can get wrong: a completed run must not depend on whether a
//! capped, observed or interrupted run used the workspace before it;
//! degraded runs (stopped by a tier cap)
//! must stay exactly normalized and report monotonically tightening
//! accuracy as more tiers run; and only a completed run converts into the
//! one-shot `Ok`.

use hk_graph::builder::GraphBuilder;
use hk_graph::gen::holme_kim;
use hk_graph::Graph;
use hkpr_core::{
    estimate_in, AnytimeControls, AnytimeOutput, CancelToken, Estimator, HkprError, HkprParams,
    QueryWorkspace, TeaPlusOptions,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// TEA+ with every §5 shortcut off — TEA over HK-Push+ — so it walks.
const TEA_OVER_PUSH_PLUS: TeaPlusOptions = TeaPlusOptions {
    residue_reduction: false,
    early_exit: false,
    offset: false,
};

/// One query from node 0 with a fresh `SmallRng` from `rng_seed`.
fn query(
    g: &Graph,
    params: &HkprParams,
    estimator: Estimator,
    controls: AnytimeControls<'_>,
    rng_seed: u64,
    ws: &mut QueryWorkspace,
) -> Result<AnytimeOutput, HkprError> {
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    estimate_in(g, params, 0, estimator, controls, &mut rng, ws)
}

/// Controls that stop the walk ladder after `cap` tiers.
fn walk_cap(cap: Option<u32>) -> AnytimeControls<'static> {
    AnytimeControls {
        walk_tier_cap: cap,
        ..Default::default()
    }
}

fn build_graph(edges: &[(u8, u8)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1);
    for &(u, v) in edges {
        b.add_edge(u as u32 % 40, v as u32 % 40);
    }
    b.build()
}

/// Bitwise equality of two anytime outputs: identical estimate support
/// (node ids and f64 bits), raw sums, offset coefficients, stats and
/// achieved tier.
fn assert_bitwise_identical(a: &AnytimeOutput, b: &AnytimeOutput, label: &str) {
    assert_eq!(a.stats, b.stats, "{label}: stats diverge");
    assert_eq!(a.achieved, b.achieved, "{label}: achieved tiers diverge");
    assert_eq!(
        a.estimate.nnz(),
        b.estimate.nnz(),
        "{label}: support sizes diverge"
    );
    for (x, y) in a.estimate.support().zip(b.estimate.support()) {
        assert_eq!(x.0, y.0, "{label}: support node diverges");
        assert_eq!(
            x.1.to_bits(),
            y.1.to_bits(),
            "{label}: value bits diverge at node {}",
            x.0
        );
    }
    assert_eq!(
        a.estimate.raw_sum().to_bits(),
        b.estimate.raw_sum().to_bits(),
        "{label}: raw sums diverge"
    );
    assert_eq!(
        a.estimate.offset_coeff().to_bits(),
        b.estimate.offset_coeff().to_bits(),
        "{label}: offset coefficients diverge"
    );
}

#[test]
fn monte_carlo_full_ladder_after_a_capped_run_matches_a_fresh_workspace() {
    let mut gen_rng = SmallRng::seed_from_u64(21);
    let g = holme_kim(1_000, 4, 0.3, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(1e-3)
        .p_f(0.01)
        .build()
        .unwrap();
    let mc = Estimator::MonteCarlo {
        max_walks: Some(100_000),
    };
    let run = |tier_cap: Option<u32>, ws: &mut QueryWorkspace| {
        query(&g, &params, mc, walk_cap(tier_cap), 22, ws).unwrap()
    };
    let fresh = run(None, &mut QueryWorkspace::new());
    assert!(!fresh.achieved.is_degraded());
    assert_eq!(fresh.achieved.walks_done, fresh.achieved.walks_planned);
    assert_eq!(fresh.achieved.tiers_completed, fresh.achieved.tiers_planned);
    assert_eq!(
        fresh.achieved.eps_r_achieved.to_bits(),
        params.eps_r().to_bits()
    );
    // An abandoned ladder leaves a half-executed plan in the scratch;
    // the next full run on it must not see any of it.
    let mut ws = QueryWorkspace::new();
    for cap in 1..fresh.achieved.tiers_planned {
        assert!(run(Some(cap), &mut ws).achieved.is_degraded());
        let reused = run(None, &mut ws);
        assert_bitwise_identical(&fresh, &reused, &format!("MC cap {cap}"));
    }
}

#[test]
fn tea_plus_full_ladder_is_independent_of_observers_and_earlier_capped_runs() {
    let mut gen_rng = SmallRng::seed_from_u64(15);
    let g = holme_kim(2_000, 5, 0.4, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(2e-5)
        .p_f(1e-3)
        .build()
        .unwrap();
    // Residue reduction empties the walk phase on this fixture (Example
    // 1's effect); disabling it (and the early exit) leaves a ~160k-walk
    // phase so the tier ladder is actually exercised.
    let tea_plus = Estimator::TeaPlus(TEA_OVER_PUSH_PLUS);
    let run = |controls: AnytimeControls<'_>, ws: &mut QueryWorkspace| {
        query(&g, &params, tea_plus, controls, 16, ws).unwrap()
    };
    let fresh = run(AnytimeControls::default(), &mut QueryWorkspace::new());
    assert!(!fresh.achieved.is_degraded());
    assert!(fresh.achieved.walks_planned > 0, "walk phase was empty");
    assert!(fresh.achieved.tiers_planned > 1, "ladder collapsed");
    assert_eq!(
        fresh.achieved.push_tiers_completed, fresh.achieved.push_tiers_planned,
        "natural termination is the final push tier"
    );

    // Observe the push ladder while running it: the observer must not
    // perturb a single bit of the completed run.
    let mut fired = Vec::new();
    let mut hook = |t: u32| {
        fired.push(t);
        true
    };
    let observed = run(
        AnytimeControls {
            on_push_tier: Some(&mut hook),
            ..Default::default()
        },
        &mut QueryWorkspace::new(),
    );
    assert_eq!(
        fired,
        vec![1, 2, 3],
        "fixture must certify every coarsened push tier"
    );
    assert_bitwise_identical(&fresh, &observed, "TEA+ observed");

    // Cut either ladder short, or both, then refine fully on the same
    // workspace: bitwise the fresh-workspace run.
    let cases = [(Some(1), None), (None, Some(1)), (Some(2), Some(2))];
    for (walk_tier_cap, push_tier_cap) in cases {
        let mut ws = QueryWorkspace::new();
        let capped = run(
            AnytimeControls {
                walk_tier_cap,
                push_tier_cap,
                on_push_tier: None,
            },
            &mut ws,
        );
        assert!(capped.achieved.is_degraded());
        let reused = run(AnytimeControls::default(), &mut ws);
        assert_bitwise_identical(
            &fresh,
            &reused,
            &format!("TEA+ after caps {walk_tier_cap:?}/{push_tier_cap:?}"),
        );
    }
}

#[test]
fn tea_plus_early_exit_reports_a_complete_ladder_without_walks() {
    let mut b = GraphBuilder::new();
    for (u, v) in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)] {
        b.add_edge(u, v);
    }
    let g = b.build();
    // Loose parameters: the push phase alone certifies the guarantee.
    let params = HkprParams::builder(&g)
        .t(3.0)
        .eps_r(0.9)
        .delta(0.45)
        .p_f(0.1)
        .build()
        .unwrap();
    let mut ws = QueryWorkspace::new();
    let tea_plus = Estimator::TeaPlus(TeaPlusOptions::default());
    let anytime = query(&g, &params, tea_plus, walk_cap(None), 12, &mut ws).unwrap();
    assert!(anytime.stats.early_exit);
    assert!(!anytime.achieved.is_degraded());
    assert_eq!(anytime.achieved.walks_planned, 0);
    assert_eq!(
        anytime.achieved.push_tiers_completed, anytime.achieved.push_tiers_planned,
        "early exit implies a complete push"
    );
    assert_eq!(
        anytime.achieved.eps_r_achieved.to_bits(),
        params.eps_r().to_bits()
    );
}

#[test]
fn only_a_completed_ladder_converts_into_the_one_shot_answer() {
    let mut gen_rng = SmallRng::seed_from_u64(31);
    let g = holme_kim(500, 4, 0.3, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(1e-3)
        .p_f(0.01)
        .build()
        .unwrap();
    let mut ws = QueryWorkspace::new();
    let mc = Estimator::MonteCarlo {
        max_walks: Some(50_000),
    };
    let run = |tier_cap: Option<u32>, ws: &mut QueryWorkspace| {
        query(&g, &params, mc, walk_cap(tier_cap), 32, ws).unwrap()
    };
    // Walks deposited, ladder cut short: the one-shot contract discards
    // the partial answer.
    let partial = run(Some(1), &mut ws);
    assert!(partial.achieved.walks_done > 0);
    assert!(matches!(partial.into_complete(), Err(HkprError::Cancelled)));
    let full = run(None, &mut ws);
    // ... which is what a query on a fresh workspace returns.
    let fresh = run(None, &mut QueryWorkspace::new());
    assert_bitwise_identical(&full, &fresh, "full after a cut vs fresh");
    let (stats, raw_sum) = (full.stats, full.estimate.raw_sum());
    let complete = full.into_complete().unwrap();
    assert_eq!(complete.stats, stats);
    assert_eq!(complete.estimate.raw_sum().to_bits(), raw_sum.to_bits());
}

#[test]
fn push_tier_cap_degrades_push_but_completes_walks() {
    let mut gen_rng = SmallRng::seed_from_u64(15);
    let g = holme_kim(2_000, 5, 0.4, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(2e-5)
        .p_f(1e-3)
        .build()
        .unwrap();
    let tea_plus = Estimator::TeaPlus(TEA_OVER_PUSH_PLUS);
    let mut ws = QueryWorkspace::new();
    let controls = AnytimeControls {
        push_tier_cap: Some(1),
        ..Default::default()
    };
    let out = query(&g, &params, tea_plus, controls, 16, &mut ws).unwrap();
    // The push paused at a certificate checkpoint: at least the first
    // coarsened tier, never the exact final one.
    assert!(out.achieved.is_degraded());
    assert!(
        out.achieved.push_tiers_completed >= 1
            && out.achieved.push_tiers_completed < out.achieved.push_tiers_planned,
        "push tiers {}/{}",
        out.achieved.push_tiers_completed,
        out.achieved.push_tiers_planned
    );
    // The walk phase still ran to completion on the coarsened reserve,
    // so the statistical guarantee holds at the requested eps_r.
    assert!(out.achieved.walks_planned > 0);
    assert_eq!(out.achieved.walks_done, out.achieved.walks_planned);
    assert_eq!(
        out.achieved.eps_r_achieved.to_bits(),
        params.eps_r().to_bits(),
        "full walks on a coarsened push keep the eps_r guarantee"
    );
    assert!(
        out.estimate.raw_sum() <= 1.0 + 1e-9,
        "raw sum {}",
        out.estimate.raw_sum()
    );
}

#[test]
fn hook_cancel_mid_ladder_degrades_and_leaves_workspace_reusable() {
    let mut gen_rng = SmallRng::seed_from_u64(15);
    let g = holme_kim(2_000, 5, 0.4, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(2e-5)
        .p_f(1e-3)
        .build()
        .unwrap();
    let tea_plus = Estimator::TeaPlus(TEA_OVER_PUSH_PLUS);
    let cold =
        |ws: &mut QueryWorkspace| query(&g, &params, tea_plus, walk_cap(None), 16, ws).unwrap();
    let fresh_cold = cold(&mut QueryWorkspace::new());
    for cancel_at in [1u32, 2, 3] {
        let mut ws = QueryWorkspace::new();
        let mut hook = |t: u32| t < cancel_at;
        let controls = AnytimeControls {
            on_push_tier: Some(&mut hook),
            ..Default::default()
        };
        let out = query(&g, &params, tea_plus, controls, 16, &mut ws).unwrap();
        // The hook fires *at* a certification, so at least cancel_at
        // coarsened tiers are certified in the stop state; the exact
        // final tier can never be claimed by a cancelled push.
        assert!(out.achieved.is_degraded());
        assert!(
            out.achieved.push_tiers_completed >= cancel_at
                && out.achieved.push_tiers_completed < out.achieved.push_tiers_planned,
            "cancel at {cancel_at}: push tiers {}/{}",
            out.achieved.push_tiers_completed,
            out.achieved.push_tiers_planned
        );
        assert_eq!(out.achieved.walks_done, out.achieved.walks_planned);
        assert!(out.estimate.raw_sum() <= 1.0 + 1e-9);

        // The abandoned ladder must leave no residue behind: a cold
        // run reusing the same workspace is bitwise the fresh one.
        let reused_cold = cold(&mut ws);
        assert_bitwise_identical(&fresh_cold, &reused_cold, &format!("cancel_at={cancel_at}"));
    }
}

#[test]
fn capped_monte_carlo_run_is_degraded_but_exactly_normalized() {
    let mut gen_rng = SmallRng::seed_from_u64(31);
    let g = holme_kim(500, 4, 0.3, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(1e-3)
        .p_f(0.01)
        .build()
        .unwrap();
    let mut ws = QueryWorkspace::new();
    let mc = Estimator::MonteCarlo {
        max_walks: Some(200_000),
    };
    let out = query(&g, &params, mc, walk_cap(Some(1)), 32, &mut ws).unwrap();
    assert!(out.achieved.is_degraded());
    assert_eq!(out.achieved.tiers_completed, 1);
    assert!(out.achieved.walks_done < out.achieved.walks_planned);
    assert_eq!(out.stats.random_walks, out.achieved.walks_done);
    // mass = 1/walks_done: the degraded estimate still sums to 1 exactly
    // up to float accumulation.
    assert!(
        (out.estimate.raw_sum() - 1.0).abs() < 1e-9,
        "degraded mass {}",
        out.estimate.raw_sum()
    );
    assert!(out.achieved.eps_r_achieved > out.achieved.eps_r_requested);
}

#[test]
fn capped_tea_plus_run_is_degraded_and_mass_bounded() {
    let mut gen_rng = SmallRng::seed_from_u64(41);
    let g = holme_kim(2_000, 5, 0.4, &mut gen_rng).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .delta(2e-5)
        .p_f(1e-3)
        .build()
        .unwrap();
    let tea_plus = Estimator::TeaPlus(TEA_OVER_PUSH_PLUS);
    let mut ws = QueryWorkspace::new();
    let out = query(&g, &params, tea_plus, walk_cap(Some(1)), 42, &mut ws).unwrap();
    assert!(out.achieved.is_degraded());
    assert!(out.achieved.walks_done > 0);
    assert!(out.achieved.walks_done < out.achieved.walks_planned);
    // mass = alpha/walks_done keeps the estimate calibrated: reserve +
    // renormalized walk mass still sums to at most the unit mass.
    assert!(
        out.estimate.raw_sum() <= 1.0 + 1e-9,
        "raw sum {}",
        out.estimate.raw_sum()
    );
}

/// TEA, TEA+ with its shortcuts off, and Monte-Carlo: the three push
/// stages, each of which leaves a walk ladder on the proptest graphs.
fn walking_estimators() -> [Estimator; 3] {
    [
        Estimator::Tea { rmax: None },
        Estimator::TeaPlus(TEA_OVER_PUSH_PLUS),
        Estimator::MonteCarlo {
            max_walks: Some(50_000),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Refinement monotonicity: running more tiers never loosens the
    /// achieved accuracy bound, never shrinks the executed walk count,
    /// and the final tier reaches the requested accuracy exactly.
    #[test]
    fn tier_refinement_is_monotone(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 20..120),
        rng_seed in any::<u64>(),
    ) {
        let g = build_graph(&edges);
        let params = HkprParams::builder(&g)
            .t(5.0)
            .delta(1e-4)
            .p_f(0.01)
            .build()
            .unwrap();
        let mut ws = QueryWorkspace::new();
        for estimator in walking_estimators() {
            let full = query(&g, &params, estimator, walk_cap(None), rng_seed, &mut ws).unwrap();
            let tiers = full.achieved.tiers_planned;
            prop_assert!(tiers >= 1, "{:?}: no walk ladder", estimator);
            let mut prev_eps = f64::INFINITY;
            let mut prev_walks = 0u64;
            for cap in 1..=tiers {
                let out =
                    query(&g, &params, estimator, walk_cap(Some(cap)), rng_seed, &mut ws).unwrap();
                prop_assert_eq!(out.achieved.tiers_completed, cap);
                prop_assert!(out.achieved.walks_done >= prev_walks,
                    "tier {} shrank walks: {} < {}", cap, out.achieved.walks_done, prev_walks);
                prop_assert!(out.achieved.eps_r_achieved <= prev_eps,
                    "tier {} loosened eps: {} > {}", cap, out.achieved.eps_r_achieved, prev_eps);
                prev_eps = out.achieved.eps_r_achieved;
                prev_walks = out.achieved.walks_done;
                // Every capped run stays exactly normalized: reserve plus
                // `alpha` spread over the walks that ran.
                prop_assert!((out.estimate.raw_sum() - 1.0).abs() < 1e-9,
                    "{:?} tier {}: raw sum {}", estimator, cap, out.estimate.raw_sum());
            }
            prop_assert_eq!(prev_eps.to_bits(), params.eps_r().to_bits());
            prop_assert_eq!(prev_walks, full.achieved.walks_planned);
        }
    }

    /// A ladder cut short at a random tier leaves nothing behind: the
    /// full ladder run next on the same workspace is bitwise the full
    /// ladder on a fresh one. (That executing a plan
    /// in chunk-prefix increments deposits like executing it in one call
    /// is pinned at the engine, in `walk.rs`.)
    #[test]
    fn capped_then_uncapped_matches_uncapped_bitwise(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 20..120),
        rng_seed in any::<u64>(),
        cap in 1u32..4,
    ) {
        let g = build_graph(&edges);
        let params = HkprParams::builder(&g)
            .t(5.0)
            .delta(1e-4)
            .p_f(0.01)
            .build()
            .unwrap();
        for estimator in walking_estimators() {
            let run = |controls, ws: &mut QueryWorkspace| {
                query(&g, &params, estimator, controls, rng_seed, ws).unwrap()
            };
            let fresh = run(walk_cap(None), &mut QueryWorkspace::new());
            prop_assert!(fresh.achieved.walks_done > 0, "{:?}: no walks", estimator);
            let mut ws = QueryWorkspace::new();
            let capped = run(walk_cap(Some(cap)), &mut ws);
            prop_assert!(capped.achieved.walks_done <= fresh.achieved.walks_done);
            let reused = run(walk_cap(None), &mut ws);
            prop_assert_eq!(&fresh.stats, &reused.stats);
            prop_assert_eq!(&fresh.achieved, &reused.achieved);
            prop_assert_eq!(fresh.estimate.nnz(), reused.estimate.nnz());
            for (a, b) in fresh.estimate.support().zip(reused.estimate.support()) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }

    /// Interrupting the push ladder at a random point — via a tier hook
    /// that errors, or a pre-fired cancellation token — never corrupts
    /// the workspace: a cold run reusing it is bitwise a fresh-workspace
    /// cold run.
    #[test]
    fn interrupted_push_never_corrupts_workspace(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 20..120),
        rng_seed in any::<u64>(),
        cancel_at in 1u32..4,
        pre_fired_token in any::<bool>(),
    ) {
        let g = build_graph(&edges);
        let params = HkprParams::builder(&g)
            .t(5.0)
            .delta(1e-4)
            .p_f(0.01)
            .build()
            .unwrap();
        let tea_plus = Estimator::TeaPlus(TEA_OVER_PUSH_PLUS);
        let cold = |ws: &mut QueryWorkspace| {
            let out = query(&g, &params, tea_plus, walk_cap(None), rng_seed, ws);
            out.unwrap().into_complete().unwrap()
        };
        let fresh_cold = cold(&mut QueryWorkspace::new());

        let mut ws = QueryWorkspace::new();
        if pre_fired_token {
            let token = CancelToken::new();
            token.cancel();
            ws.set_cancel_token(Some(token));
        }
        let mut hook = |t: u32| t < cancel_at;
        let controls = AnytimeControls { on_push_tier: Some(&mut hook), ..Default::default() };
        let interrupted = query(&g, &params, tea_plus, controls, rng_seed, &mut ws);
        match interrupted {
            // A stop that certified at least one coarsened tier degrades
            // honestly; completing outright (too few tiers to reach
            // cancel_at, or certification before the token poll) is fine.
            Ok(out) => {
                if out.achieved.is_degraded() {
                    prop_assert!(out.achieved.push_tiers_completed
                        < out.achieved.push_tiers_planned
                        || out.achieved.walks_done < out.achieved.walks_planned);
                }
                prop_assert!(out.estimate.raw_sum() <= 1.0 + 1e-9);
            }
            // Nothing certified before the cancellation landed.
            Err(e) => prop_assert!(matches!(e, HkprError::Cancelled)),
        }

        // Whatever happened above, the workspace must be fully reusable.
        ws.set_cancel_token(None);
        let reused_cold = cold(&mut ws);
        prop_assert_eq!(&fresh_cold.stats, &reused_cold.stats);
        prop_assert_eq!(fresh_cold.estimate.nnz(), reused_cold.estimate.nnz());
        for (a, b) in fresh_cold.estimate.support().zip(reused_cold.estimate.support()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        prop_assert_eq!(
            fresh_cold.estimate.raw_sum().to_bits(),
            reused_cold.estimate.raw_sum().to_bits()
        );
    }
}
