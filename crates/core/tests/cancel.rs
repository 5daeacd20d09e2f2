//! Cancellation properties of the estimator stack:
//!
//! 1. **Pre-cancelled tokens short-circuit** — every workspace estimator
//!    returns `HkprError::Cancelled` without computing;
//! 2. **An unfired token is invisible** — installing a token that never
//!    fires produces bit-identical results to running without one (the
//!    checks are pure control flow, which is what keeps the serving
//!    layer's golden fixtures stable);
//! 3. **A token fired once the walk phase is reached is still all or
//!    nothing for the one-shot entry points** — `tea_plus_in` and
//!    `monte_carlo_in` are the resumable ladder run to completion, and
//!    what the ladder would hand back as a degraded answer they report
//!    as `Cancelled`;
//! 4. **Cancellation at arbitrary points never corrupts scratch** — a
//!    query raced by an asynchronous cancel (fired after a random delay)
//!    either completes normally or reports `Cancelled`, and either way
//!    the *next* query on the same workspace is bit-identical to a
//!    cold-workspace run.

use hkpr_core::{
    monte_carlo_in, tea_in, tea_plus_in, CancelToken, HkprError, HkprEstimate, HkprParams,
    QueryWorkspace,
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
    assert!(matches!(
        tea_in(&g, &params, 0, None, &mut rng, &mut ws),
        Err(HkprError::Cancelled)
    ));
    assert!(matches!(
        tea_plus_in(&g, &params, 0, &mut rng, &mut ws),
        Err(HkprError::Cancelled)
    ));
    assert!(matches!(
        monte_carlo_in(&g, &params, 0, Some(1_000_000), &mut rng, &mut ws),
        Err(HkprError::Cancelled)
    ));
    // The workspace recovers the moment the token is cleared.
    ws.set_cancel_token(None);
    let out = tea_plus_in(&g, &params, 0, &mut SmallRng::seed_from_u64(2), &mut ws).unwrap();
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
        let plain = tea_plus_in(
            &g,
            &params,
            seed,
            &mut SmallRng::seed_from_u64(9),
            &mut plain_ws,
        )
        .unwrap();
        let tokened = tea_plus_in(
            &g,
            &params,
            seed,
            &mut SmallRng::seed_from_u64(9),
            &mut token_ws,
        )
        .unwrap();
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
/// a known point of a query. Both estimators draw the walk phase's
/// master seed last, after the push (TEA+) or the length sampling
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
    // cap, so TEA+ cannot exit early and must walk (~32k walks).
    let g = hk_graph::gen::holme_kim(3_000, 3, 0.3, &mut SmallRng::seed_from_u64(15)).unwrap();
    let params = HkprParams::builder(&g)
        .t(30.0)
        .eps_r(0.5)
        .delta(3e-4)
        .p_f(1e-3)
        .build()
        .unwrap();
    type Estimator =
        fn(&hk_graph::Graph, &HkprParams, &mut FiringRng, &mut QueryWorkspace) -> QueryOutcome;
    type QueryOutcome = Result<hkpr_core::TeaOutput, HkprError>;
    let estimators: [(&str, Estimator); 2] = [
        ("TEA+", |g, params, rng, ws| {
            tea_plus_in(g, params, 3, rng, ws)
        }),
        ("Monte-Carlo", |g, params, rng, ws| {
            monte_carlo_in(g, params, 3, Some(40_000), rng, ws)
        }),
    ];
    for (label, estimate) in estimators {
        let mut ws = QueryWorkspace::new();
        let token = CancelToken::new();
        ws.set_cancel_token(Some(token.clone()));
        let rng = |fire_at: u64| FiringRng {
            inner: SmallRng::seed_from_u64(21),
            draws: 0,
            fire_at,
            token: token.clone(),
        };
        // Dry run: never fires; counts the draws and is the reference.
        let mut counting = rng(u64::MAX);
        let reference = estimate(&g, &params, &mut counting, &mut ws).unwrap();
        assert!(reference.stats.random_walks > 0, "{label}: no walk phase");
        assert!(!token.is_cancelled());

        let raced = estimate(&g, &params, &mut rng(counting.draws), &mut ws);
        assert!(token.is_cancelled(), "{label}: the token never fired");
        assert!(
            matches!(raced, Err(HkprError::Cancelled)),
            "{label}: one-shot entry points are all or nothing, got {raced:?}"
        );

        // Nothing of the abandoned ladder survives in the workspace.
        ws.set_cancel_token(None);
        let reused = estimate(&g, &params, &mut rng(u64::MAX), &mut ws).unwrap();
        assert_eq!(reused.stats, reference.stats, "{label}");
        assert!(
            estimates_bitwise_eq(&reused.estimate, &reference.estimate),
            "{label}: query after a cancelled walk phase diverged"
        );
    }
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
            let raced = tea_plus_in(
                &g, &params, victim_seed, &mut SmallRng::seed_from_u64(5), &mut ws,
            );
            // Either outcome is legal; corruption is not.
            prop_assert!(
                matches!(&raced, Ok(_) | Err(HkprError::Cancelled)),
                "unexpected error: {raced:?}"
            );
            Ok(())
        })?;

        ws.set_cancel_token(None);
        let reused = tea_plus_in(
            &g, &params, probe_seed, &mut SmallRng::seed_from_u64(6), &mut ws,
        ).unwrap();
        let cold = tea_plus_in(
            &g, &params, probe_seed, &mut SmallRng::seed_from_u64(6),
            &mut QueryWorkspace::new(),
        ).unwrap();
        prop_assert_eq!(&reused.stats, &cold.stats);
        prop_assert!(
            estimates_bitwise_eq(&reused.estimate, &cold.estimate),
            "probe after a raced cancel diverged from a cold run"
        );
    }
}
