//! Cancellation properties of the estimator stack:
//!
//! 1. **Pre-cancelled tokens short-circuit** — every workspace estimator
//!    returns `HkprError::Cancelled` without computing;
//! 2. **An unfired token is invisible** — installing a token that never
//!    fires produces bit-identical results to running without one (the
//!    checks are pure control flow, which is what keeps the serving
//!    layer's golden fixtures stable);
//! 3. **A token fired once the walk phase is reached is still all or
//!    nothing for a one-shot caller** — `estimate_in(..).into_complete()`
//!    reports what the ladder hands back as a degraded answer as
//!    `Cancelled`, for TEA, TEA+ and Monte-Carlo alike;
//! 4. **Cancellation at arbitrary points never corrupts scratch** — a
//!    query raced by an asynchronous cancel (fired after a random delay)
//!    either completes normally or reports `Cancelled`, and either way
//!    the *next* query on the same workspace is bit-identical to a
//!    cold-workspace run;
//! 5. **No walk count is too large to cancel** — an uncapped Monte-Carlo
//!    query planning ~10^10 walks stops soon after its token fires,
//!    without having grown its workspace with the walk count.

use hkpr_core::{
    estimate_in, AnytimeControls, CancelToken, Estimator, HkprError, HkprEstimate, HkprParams,
    QueryWorkspace, TeaOutput,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn fixture_graph() -> hk_graph::Graph {
    let mut rng = SmallRng::seed_from_u64(0xCA9CE1);
    hk_graph::gen::holme_kim(4_000, 5, 0.3, &mut rng).unwrap()
}

fn heavy_params(g: &hk_graph::Graph) -> HkprParams {
    HkprParams::builder(g)
        .t(5.0)
        .eps_r(0.4)
        .delta(1e-5)
        .p_f(1e-4)
        .build()
        .unwrap()
}

const TEA: Estimator = Estimator::Tea { rmax: None };

fn tea_plus() -> Estimator {
    Estimator::TeaPlus(Default::default())
}

/// One query on `ws`, refined to completion: all or nothing.
fn run<R: Rng>(
    g: &hk_graph::Graph,
    params: &HkprParams,
    seed: u32,
    estimator: Estimator,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<TeaOutput, HkprError> {
    let controls = AnytimeControls::default();
    estimate_in(g, params, seed, estimator, controls, rng, ws)?.into_complete()
}

fn estimates_bitwise_eq(a: &HkprEstimate, b: &HkprEstimate) -> bool {
    a.nnz() == b.nnz()
        && a.offset_coeff().to_bits() == b.offset_coeff().to_bits()
        && a.support()
            .zip(b.support())
            .all(|((u, x), (v, y))| u == v && x.to_bits() == y.to_bits())
}

#[test]
fn pre_cancelled_token_short_circuits_every_estimator() {
    let g = fixture_graph();
    let params = heavy_params(&g);
    let token = CancelToken::new();
    token.cancel();
    let mut ws = QueryWorkspace::new();
    ws.set_cancel_token(Some(token));
    let mut rng = SmallRng::seed_from_u64(1);
    let mc = Estimator::MonteCarlo {
        max_walks: Some(1_000_000),
    };
    for estimator in [TEA, tea_plus(), mc] {
        let out = run(&g, &params, 0, estimator, &mut rng, &mut ws);
        assert!(matches!(out, Err(HkprError::Cancelled)), "{estimator:?}");
    }
    // The workspace recovers the moment the token is cleared.
    ws.set_cancel_token(None);
    let mut rng = SmallRng::seed_from_u64(2);
    let out = run(&g, &params, 0, tea_plus(), &mut rng, &mut ws).unwrap();
    assert!(out.estimate.raw_sum() > 0.0);
}

#[test]
fn unfired_token_is_bitwise_invisible() {
    let g = fixture_graph();
    let params = heavy_params(&g);
    let mut plain_ws = QueryWorkspace::new();
    let mut token_ws = QueryWorkspace::new();
    token_ws.set_cancel_token(Some(CancelToken::new()));
    for seed in [0u32, 17, 401] {
        let query = |ws: &mut QueryWorkspace| {
            let mut rng = SmallRng::seed_from_u64(9);
            run(&g, &params, seed, tea_plus(), &mut rng, ws).unwrap()
        };
        let (plain, tokened) = (query(&mut plain_ws), query(&mut token_ws));
        assert_eq!(plain.stats, tokened.stats);
        assert!(
            estimates_bitwise_eq(&plain.estimate, &tokened.estimate),
            "seed {seed}: an unfired token changed the result"
        );
    }
}

#[test]
fn cancelled_walk_engine_skips_chunks() {
    // Direct engine-level check: a pre-cancelled token makes the batched
    // walk engine return without walking (the driver-level error is
    // covered by the estimator tests above).
    use hkpr_core::walk::{run_batched_walks, WalkScratch};
    use hkpr_core::{AliasTable, PoissonTable, Reserve};
    let g = fixture_graph();
    let p = PoissonTable::new(5.0);
    let entries = [(0u32, 0u32), (0u32, 1u32)];
    let table = AliasTable::new(&[1.0, 1.0]);
    let mut sink = Reserve::new();
    sink.begin(g.num_nodes());
    let mut scratch = WalkScratch::default();
    let token = CancelToken::new();
    token.cancel();
    let steps = run_batched_walks(
        &g,
        &p,
        &entries,
        &table,
        100_000,
        3,
        Some(&token),
        &mut sink,
        &mut scratch,
    );
    assert_eq!(steps, 0, "cancelled engine must not walk");
}

/// Query RNG that counts its draws and fires a cancel token on draw
/// number `fire_at` — a deterministic stand-in for a watchdog firing at
/// a known point of a query. Every estimator draws the walk phase's
/// master seed last, after the push (TEA, TEA+) or right away
/// (Monte-Carlo), so "fire on the last draw" is "fire as the walk phase
/// starts".
struct FiringRng {
    inner: SmallRng,
    draws: u64,
    fire_at: u64,
    token: CancelToken,
}

impl Rng for FiringRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        if self.draws == self.fire_at {
            self.token.cancel();
        }
        self.inner.next_u64()
    }
}

#[test]
fn token_fired_at_the_walk_phase_is_cancelled_and_leaves_the_workspace_reusable() {
    // A sparse graph and a long diffusion: condition (11) fails at the hop
    // cap, so TEA+ cannot exit early and must walk (~32k walks). TEA's
    // walk phase is the same ladder since it has one.
    let g = hk_graph::gen::holme_kim(3_000, 3, 0.3, &mut SmallRng::seed_from_u64(15)).unwrap();
    let params = HkprParams::builder(&g)
        .t(30.0)
        .eps_r(0.5)
        .delta(3e-4)
        .p_f(1e-3)
        .build()
        .unwrap();
    let estimators = [
        ("TEA", TEA),
        ("TEA+", tea_plus()),
        (
            "Monte-Carlo",
            Estimator::MonteCarlo {
                max_walks: Some(40_000),
            },
        ),
    ];
    for (label, estimator) in estimators {
        let mut ws = QueryWorkspace::new();
        // A fresh token on `ws`, fired by the RNG's draw number `fire_at`.
        let arm = |fire_at: u64, ws: &mut QueryWorkspace| {
            let token = CancelToken::new();
            ws.set_cancel_token(Some(token.clone()));
            FiringRng {
                inner: SmallRng::seed_from_u64(21),
                draws: 0,
                fire_at,
                token,
            }
        };
        // Dry run: never fires; counts the draws and is the reference.
        let mut counting = arm(u64::MAX, &mut ws);
        let reference = run(&g, &params, 3, estimator, &mut counting, &mut ws).unwrap();
        assert!(reference.stats.random_walks > 0, "{label}: no walk phase");
        assert!(!counting.token.is_cancelled());

        let mut racing = arm(counting.draws, &mut ws);
        let controls = AnytimeControls::default();
        let raced = estimate_in(&g, &params, 3, estimator, controls, &mut racing, &mut ws);
        assert!(
            racing.token.is_cancelled(),
            "{label}: the token never fired"
        );
        // TEA and TEA+ answer with their reserve alone (TEA with no push
        // ladder to report), which a one-shot caller sees as cancelled;
        // Monte-Carlo, which reserves nothing, is cancelled.
        match (estimator, raced) {
            (Estimator::MonteCarlo { .. }, Err(HkprError::Cancelled)) => {}
            (Estimator::Tea { .. } | Estimator::TeaPlus(_), Ok(out)) => {
                let tier = out.achieved;
                let push_tiers = 4 * u32::from(matches!(estimator, Estimator::TeaPlus(_)));
                assert_eq!((tier.walks_done, tier.tiers_completed), (0, 0), "{label}");
                assert_eq!(tier.push_tiers_planned, push_tiers, "{label}");
                assert!(tier.is_degraded() && tier.eps_r_achieved.is_infinite());
                assert!(matches!(out.into_complete(), Err(HkprError::Cancelled)));
            }
            (_, raced) => panic!("{label}: got {raced:?}"),
        }

        // Nothing of the abandoned ladder survives in the workspace.
        let mut quiet = arm(u64::MAX, &mut ws);
        let reused = run(&g, &params, 3, estimator, &mut quiet, &mut ws).unwrap();
        assert_eq!(reused.stats, reference.stats, "{label}");
        assert!(
            estimates_bitwise_eq(&reused.estimate, &reference.estimate),
            "{label}: query after a cancelled walk phase diverged"
        );
    }
}

#[test]
fn an_astronomical_monte_carlo_walk_count_stays_cancellable_in_bounded_memory() {
    // The wire accepts any delta in (0, 1) and no walk cap, so the
    // published count can be ~1e10 walks. Drawing their starts would take
    // tens of seconds and planning them would allocate a work item per
    // 4096 walks; the start-drawing loop polls the token every 64Ki draws,
    // so a token fired mid-draw stops the query before any of that.
    let g = hk_graph::gen::holme_kim(200, 3, 0.3, &mut SmallRng::seed_from_u64(7)).unwrap();
    let params = HkprParams::builder(&g)
        .t(5.0)
        .eps_r(0.5)
        .delta(2e-8)
        .p_f(1e-6)
        .build()
        .unwrap();
    assert!(params.monte_carlo_walks() > 5_000_000_000);
    let mut ws = QueryWorkspace::new();
    // What a query of 100k walks leaves the workspace holding: the
    // bound, whatever the walk count.
    let capped = Estimator::MonteCarlo {
        max_walks: Some(100_000),
    };
    run(
        &g,
        &params,
        0,
        capped,
        &mut SmallRng::seed_from_u64(1),
        &mut ws,
    )
    .unwrap();
    let bound = ws.memory_bytes();

    let token = CancelToken::new();
    ws.set_cancel_token(Some(token.clone()));
    let uncapped = Estimator::MonteCarlo { max_walks: None };
    let started = std::time::Instant::now();
    let raced = std::thread::scope(|s| {
        s.spawn(|| {
            std::thread::sleep(std::time::Duration::from_millis(20));
            token.cancel();
        });
        let controls = AnytimeControls::default();
        let mut rng = SmallRng::seed_from_u64(2);
        estimate_in(&g, &params, 0, uncapped, controls, &mut rng, &mut ws)
    });
    let elapsed = started.elapsed();
    assert!(matches!(raced, Err(HkprError::Cancelled)), "{raced:?}");
    assert!(elapsed.as_secs_f64() < 1.0, "returned after {elapsed:?}");
    let held = ws.memory_bytes();
    assert!(
        held <= bound,
        "{held} bytes held, above the {bound} of 100k walks"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fire a cancel at a random point during a heavy TEA+ query and
    /// verify the workspace is untainted: the next query on it is
    /// bit-identical to the same query on a cold workspace.
    #[test]
    fn async_cancel_never_corrupts_the_workspace(
        delay_us in 0u64..3_000,
        victim_seed in 0u32..64,
        probe_seed in 64u32..128,
    ) {
        let g = fixture_graph();
        let params = heavy_params(&g);
        let mut ws = QueryWorkspace::new();
        let token = CancelToken::new();
        ws.set_cancel_token(Some(token.clone()));

        std::thread::scope(|scope| {
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_micros(delay_us));
                token.cancel();
            });
            let raced = run(
                &g, &params, victim_seed, tea_plus(), &mut SmallRng::seed_from_u64(5), &mut ws,
            );
            // Either outcome is legal; corruption is not.
            prop_assert!(
                matches!(&raced, Ok(_) | Err(HkprError::Cancelled)),
                "unexpected error: {raced:?}"
            );
            Ok(())
        })?;

        ws.set_cancel_token(None);
        let reused = run(
            &g, &params, probe_seed, tea_plus(), &mut SmallRng::seed_from_u64(6), &mut ws,
        ).unwrap();
        let cold = run(
            &g, &params, probe_seed, tea_plus(), &mut SmallRng::seed_from_u64(6),
            &mut QueryWorkspace::new(),
        ).unwrap();
        prop_assert_eq!(&reused.stats, &cold.stats);
        prop_assert!(
            estimates_bitwise_eq(&reused.estimate, &cold.estimate),
            "probe after a raced cancel diverged from a cold run"
        );
    }
}
