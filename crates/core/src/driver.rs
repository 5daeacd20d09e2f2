//! The query driver: TEA, TEA+ and Monte-Carlo are one estimator that
//! differs only in its push stage.
//!
//! Every estimator writes `rho_s = q_s + sum_{u,k} r^(k)[u] * h^(k)_u`
//! (Lemma 1): a push stage settles the reserve `q_s` and leaves residues
//! `r^(k)`, and the walk phase estimates the residue sum with `nr`
//! `k-RandomWalk`s whose endpoint counts are scaled by `alpha / walks`.
//! The three estimators differ only in that first stage:
//!
//! * TEA (Algorithm 3) runs HK-Push ([`crate::push::hk_push_ws`]) at
//!   threshold `rmax` and walks from its residues;
//! * TEA+ (Algorithm 5) runs the budgeted HK-Push+
//!   ([`crate::push_plus::hk_push_plus_ws`]), exits early when condition
//!   (11) holds, and walks from the reduced residues;
//! * Monte-Carlo (§3) pushes nothing: the residue vector is
//!   `r^(0)[s] = 1`, the single walk entry `(0, seed)` — Chung–Simpson's
//!   estimator.
//!
//! Each stage leaves its walk entries and weights in the workspace and
//! says how many walks to run. [`estimate_in`] runs the stage, then the
//! one walk phase — plan the starts (`walk::plan_batched_walks`), climb the
//! walk ladder over the plan (see [`crate::anytime`]), each chunk drawing
//! its walks' lengths from its entries' hop tables — and assembles the
//! estimate. It is the only estimator entry point: an all-or-nothing
//! caller takes [`AnytimeOutput::into_complete`].

use std::time::Instant;

use hk_graph::{Graph, NodeId};
use rand::Rng;

use crate::alias::AliasTable;
use crate::anytime::{
    achieved_eps_r, climb_walk_ladder, tier_targets, AccuracyTier, AnytimeControls, AnytimeOutput,
    PUSH_TIER_DIVISORS,
};
use crate::error::HkprError;
use crate::estimate::{HkprEstimate, QueryStats};
use crate::params::HkprParams;
use crate::tea_plus::TeaPlusOptions;
use crate::walk::{plan_batched_walks, run_planned_walks, WalkCursor};
use crate::workspace::QueryWorkspace;
use crate::{monte_carlo, tea, tea_plus};

/// Which estimator a query runs — which push stage precedes the walks.
#[derive(Clone, Copy, Debug)]
pub enum Estimator {
    /// TEA (Algorithm 3): HK-Push at threshold `rmax` (`None` is the
    /// balanced default `1/(omega t)` of §4.2), then walks from every
    /// residue. `(d, eps_r, delta)`-approximate (Theorem 1) in expected
    /// time `O(t log(n/p_f) / (eps_r^2 delta))`.
    Tea {
        /// Residue threshold of the push; `None` = the default.
        rmax: Option<f64>,
    },
    /// TEA+ (Algorithm 5): budgeted HK-Push+ with the condition-(11)
    /// early exit, residue reduction and the half offset (§5), each of
    /// which the options can switch off. Same guarantee (Theorem 3), far
    /// fewer walks in practice.
    TeaPlus(TeaPlusOptions),
    /// Monte-Carlo (§3): no push, `nr = 2(1 + eps_r/3) ln(n/p_f) /
    /// (eps_r^2 delta)` walks from the seed.
    MonteCarlo {
        /// Cap on the walk count; `None` runs the published count, which
        /// is astronomically large for small `delta`.
        max_walks: Option<u64>,
    },
}

/// The result of a query refined to completion
/// ([`AnytimeOutput::into_complete`]), and of the `hk-bench` baselines.
#[derive(Clone, Debug)]
pub struct TeaOutput {
    /// The `(d, eps_r, delta)`-approximate HKPR vector.
    pub estimate: HkprEstimate,
    /// Cost counters.
    pub stats: QueryStats,
}

/// Where a push stage leaves a query: the reserve, and the walk entries
/// and weights that carry the residue mass `stats.alpha`, sit in the
/// workspace.
pub(crate) struct Front {
    /// Query stats through the push stage; `alpha` is the mass the walks
    /// carry (0 when the reserve alone is the answer).
    pub stats: QueryStats,
    /// What the push achieved; the walk fields still read "no walks".
    pub achieved: AccuracyTier,
    /// Push wall time (0 without a push).
    pub push_ns: u64,
    /// When the push ended: the walk phase's time runs from here, so
    /// residue reduction and walk planning count as walk time.
    pub push_done: Instant,
    /// The offset coefficient the estimate carries (TEA+ lines 18-19).
    pub offset_coeff: Option<f64>,
    /// Walks a complete walk phase runs: `ceil(alpha * omega)` for TEA and
    /// TEA+, the published count capped by `max_walks` for Monte-Carlo.
    pub walks: u64,
}

/// Run one query from `seed` on a reusable workspace: the estimator's
/// push stage, then the walk phase as a ladder of accuracy tiers, then
/// assembly. Results are bit-identical for a fixed `rng` state; the walk
/// phase draws its master seed from `rng`, the query's only draw.
///
/// Semantics:
///
/// * run to completion (or to TEA+'s condition-(11) early exit), the
///   answer is the published algorithm's and `achieved.is_degraded()` is
///   false;
/// * a cancellation fired during TEA+'s push stops refinement at the next
///   probe or hop boundary. If the stop state certifies at least one
///   coarsened condition-(11) tier, the query goes on — residue reduction
///   on the stop state, then the walks on whatever deadline remains — and
///   returns a degraded answer with `push_tiers_completed <
///   push_tiers_planned` (never the canonical answer, never cached, even
///   when the walks then complete). With no certified tier the reserve
///   bounds nothing: [`HkprError::Cancelled`]. TEA's push has no ladder,
///   so a cancellation that stops it is [`HkprError::Cancelled`];
/// * a cancellation during the walks stops refinement at the next chunk
///   boundary, and the deposited walks are renormalized (`mass =
///   alpha/walks_done`). Monte-Carlo's chunks are i.i.d. samples of its
///   walk phase; TEA's and TEA+'s follow the plan's entry order, so their
///   cut ladder's walks are not a uniform sample and its `eps_r_achieved`
///   is nominal (see [`crate::anytime`]). With no walk
///   deposited, TEA and TEA+ return the reserve alone, and
///   `eps_r_achieved` is `D * eps_r` for the tightest certified push
///   divisor `D` after a cut push (Theorem 2 at the coarsened threshold),
///   else infinity; Monte-Carlo, which reserves nothing, returns
///   [`HkprError::Cancelled`];
/// * `controls.walk_tier_cap` and (TEA+ only) `controls.push_tier_cap`
///   stop their ladder after that many tiers — a reproducible degraded
///   run for tests and benches; `controls.on_push_tier` observes every
///   certified TEA+ push tier and may cut the push by returning `false`.
pub fn estimate_in<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    estimator: Estimator,
    mut controls: AnytimeControls<'_>,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<AnytimeOutput, HkprError> {
    params.validate_seed(seed)?;
    let mut front = match estimator {
        Estimator::Tea { rmax } => tea::push_stage(graph, params, seed, rmax, ws)?,
        Estimator::TeaPlus(opts) => {
            tea_plus::push_stage(graph, params, seed, opts, &mut controls, ws)?
        }
        Estimator::MonteCarlo { max_walks } => {
            monte_carlo::walk_stage(graph, params, seed, max_walks, ws)?
        }
    };
    let mass = walk_phase(graph, params, &mut front, controls.walk_tier_cap, rng, ws)?;
    if front.achieved.walks_done == 0 && matches!(estimator, Estimator::MonteCarlo { .. }) {
        // Monte-Carlo reserves nothing: with no walk deposited there is
        // nothing to normalize.
        return Err(HkprError::Cancelled);
    }
    let mut estimate = ws.assemble_estimate(mass);
    ws.set_phase_times(front.push_ns, front.push_done.elapsed().as_nanos() as u64);
    if let Some(coeff) = front.offset_coeff {
        estimate.set_offset_coeff(coeff);
    }
    Ok(AnytimeOutput {
        estimate,
        stats: front.stats,
        achieved: front.achieved,
    })
}

/// TEA lines 8-12 / TEA+ lines 12-17 / Monte-Carlo's walks: plan the
/// walks from the entries the stage left, climb the tier ladder over the
/// plan until it completes, the tier cap, or the workspace's cancel token
/// stops it, and record what ran in `front`. Returns the mass of one
/// deposited walk (`alpha / walks_done`; 0 when none ran).
fn walk_phase<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    front: &mut Front,
    tier_cap: Option<u32>,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<f64, HkprError> {
    let (alpha, nr) = (front.stats.alpha, front.walks);
    if !(alpha > 0.0 && !ws.entries.is_empty() && nr > 0) {
        return Ok(0.0); // nothing to walk: the reserve is the answer
    }
    // A degenerate weight vector fails *before* the master-seed draw.
    let table = AliasTable::try_new(&ws.weights)?;
    let master_seed = rng.next_u64();
    let cancel = ws.cancel_token().cloned();
    let (entries, scratch) = (&ws.entries, &mut ws.walk_scratch);
    let (cursor, tiers_completed, tiers_planned) =
        if plan_batched_walks(entries, &table, nr, master_seed, cancel.as_ref(), scratch) {
            climb_walk_ladder(ws, nr, tier_cap, |ws, bound, cursor| {
                run_planned_walks(
                    graph,
                    params.poisson(),
                    &ws.entries,
                    master_seed,
                    cancel.as_ref(),
                    bound,
                    cursor,
                    &mut ws.reserve,
                    &mut ws.walk_scratch,
                )
            })
        } else {
            // Cancelled while sampling walk starts: the plan's chunk
            // decomposition was never built, so only the nominal ladder
            // depth is known.
            (WalkCursor::default(), 0, tier_targets(nr).len() as u32)
        };
    let (walks_done, achieved) = (cursor.walks_done, &mut front.achieved);
    *achieved = AccuracyTier {
        tiers_completed,
        tiers_planned,
        walks_done,
        walks_planned: nr,
        eps_r_achieved: achieved_eps_r(params.eps_r(), nr, walks_done),
        ..*achieved
    };
    if walks_done == 0 {
        if achieved.push_tiers_completed < achieved.push_tiers_planned {
            // Reserve-only answer off a cut-short push: the tightest
            // certified divisor is the surviving guarantee, which beats
            // the infinite bound the walk shortfall alone would advertise.
            let divisor = PUSH_TIER_DIVISORS[(achieved.push_tiers_completed - 1) as usize];
            achieved.eps_r_achieved = divisor as f64 * params.eps_r();
        }
        return Ok(0.0);
    }
    front.stats.random_walks = walks_done;
    front.stats.walk_steps = cursor.steps;
    // Renormalize over the executed walks: exact for a complete run.
    Ok(alpha / walks_done as f64)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use hk_graph::gen::holme_kim;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The published TEA+ (`TeaPlusOptions::default()`).
    pub(crate) const TEA_PLUS: Estimator = Estimator::TeaPlus(TeaPlusOptions {
        residue_reduction: true,
        early_exit: true,
        offset: true,
    });

    /// One query on `ws`, refined to completion.
    pub(crate) fn complete<R: Rng>(
        graph: &Graph,
        params: &HkprParams,
        seed: NodeId,
        estimator: Estimator,
        rng: &mut R,
        ws: &mut QueryWorkspace,
    ) -> Result<TeaOutput, HkprError> {
        let controls = AnytimeControls::default();
        estimate_in(graph, params, seed, estimator, controls, rng, ws)?.into_complete()
    }

    #[test]
    fn monte_carlo_records_its_walk_planning_as_walk_time() {
        let g = holme_kim(2_000, 3, 0.3, &mut SmallRng::seed_from_u64(3)).unwrap();
        let params = HkprParams::builder(&g).delta(1e-4).build().unwrap();
        let mut ws = QueryWorkspace::new();
        let mc = Estimator::MonteCarlo {
            max_walks: Some(50_000),
        };
        let out = complete(&g, &params, 5, mc, &mut SmallRng::seed_from_u64(4), &mut ws).unwrap();
        assert_eq!(out.stats.random_walks, 50_000);
        let times = ws.last_phase_times();
        assert_eq!(times.push_ns, 0, "Monte-Carlo pushes nothing");
        assert!(times.walk_ns > 0);
    }

    /// An `Rng` whose every draw is `self.0`: a query's one draw is its
    /// walk phase's master seed.
    struct MasterSeed(u64);

    impl Rng for MasterSeed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn a_cancel_after_planning_never_costs_a_monte_carlo_answer() {
        // Once the plan is built, a fired token only stops chunks from
        // being claimed: every claimed chunk runs to its end (`Pass::claim`),
        // so the walks that ran are a prefix of the plan and renormalize
        // to an answer of mass 1. The token fires while the m-th chunk is
        // being opened, on whichever thread opens it; no timing decides
        // where the cut lands.
        const SEED: u64 = 0x0c1a_1ed5_0a11_0ff5; // watched by no other test
        let g = holme_kim(2_000, 3, 0.3, &mut SmallRng::seed_from_u64(6)).unwrap();
        let params = HkprParams::builder(&g).t(3.0).delta(1e-4).build().unwrap();
        let mc = Estimator::MonteCarlo {
            max_walks: Some(60_000),
        };
        let mut ws = QueryWorkspace::new();
        let mut query = |token: &CancelToken| {
            ws.set_cancel_token(Some(token.clone()));
            let controls = AnytimeControls::default();
            let out = estimate_in(&g, &params, 7, mc, controls, &mut MasterSeed(SEED), &mut ws);
            (out, ws.walk_scratch.chunk_walk_prefix().to_vec())
        };
        let (full, prefix) = query(&CancelToken::new());
        let full = full.unwrap();
        let chunks = prefix.len() - 1;
        assert!(!full.achieved.is_degraded());
        assert_eq!(full.achieved.walks_done, 60_000);
        assert!(chunks >= 8, "{chunks} chunks");
        for m in [1, 2, chunks / 2, chunks] {
            crate::walk::tests::fire_at_open(SEED, m);
            let token = CancelToken::new();
            let (out, _) = query(&token);
            let what = format!("token fired opening chunk {m} of {chunks}");
            let out = out.unwrap_or_else(|e| panic!("{what}: {e:?}"));
            let achieved = out.achieved;
            assert!(token.is_cancelled(), "{what}: the token never fired");
            // The claimed chunks ran whole: at least m of them, and two
            // threads claim at most one more than they have opened.
            let done = achieved.walks_done;
            assert!(prefix.contains(&done), "{what}: {done} walks");
            let most = prefix[(m + 1).min(chunks)];
            assert!(done >= prefix[m] && done <= most, "{what}: {done} walks");
            assert!(done > 0);
            if m < chunks {
                assert!(achieved.is_degraded(), "{what}");
            } else {
                // Every chunk was claimed before the token fired.
                assert!(!achieved.is_degraded(), "{what}");
            }
            let mass = out.estimate.raw_sum();
            assert!((mass - 1.0).abs() < 1e-9, "{what}: mass {mass}");
        }
        // Fired before planning, the token leaves no walk to answer with.
        crate::walk::tests::fire_at_open(SEED, 0);
        let token = CancelToken::new();
        token.cancel();
        let (out, _) = query(&token);
        assert!(matches!(out, Err(HkprError::Cancelled)), "{out:?}");
    }
}
