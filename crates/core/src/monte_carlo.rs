//! Pure Monte-Carlo HKPR estimation — the §3 baseline.
//!
//! Performs `nr = 2 (1 + eps_r/3) ln(n/p_f) / (eps_r^2 delta)` random walks
//! from the seed, each with a Poisson(t)-distributed length, and uses
//! endpoint frequencies as the estimate. Chernoff + union bound give the
//! `(d, eps_r, delta)`-approximation with probability `1 - p_f`. The paper
//! uses this both as a correctness yardstick and as the slowest baseline
//! (Figures 4–9): the walk count explodes as `delta` shrinks.

use hk_graph::{Graph, NodeId};
use rand::Rng;

use crate::anytime::{achieved_eps_r, climb_walk_ladder, AccuracyTier, AnytimeOutput};
use crate::error::HkprError;
use crate::estimate::{HkprEstimate, QueryStats};
use crate::params::HkprParams;
use crate::tea::TeaOutput;
use crate::walk::{plan_batched_fixed_walks, run_planned_fixed_walks};
use crate::workspace::QueryWorkspace;

/// Run the Monte-Carlo estimator.
///
/// `max_walks` optionally caps the walk count — the published count is
/// astronomically large for small `delta` (multi-minute queries in the
/// paper); harness code caps it and records that the cap was hit. `None`
/// runs the full published count.
///
/// Runs on this thread's cached [`QueryWorkspace`]; serving loops that
/// want an explicitly owned workspace call [`monte_carlo_in`].
pub fn monte_carlo<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    max_walks: Option<u64>,
    rng: &mut R,
) -> Result<TeaOutput, HkprError> {
    crate::workspace::with_thread_workspace(|ws| {
        monte_carlo_in(graph, params, seed, max_walks, rng, ws)
    })
}

/// Monte-Carlo estimation on a reusable workspace —
/// [`monte_carlo_anytime_in`] refined to completion with the
/// [`AccuracyTier`] dropped: all or nothing, a cancellation that cut the
/// walk ladder short is [`HkprError::Cancelled`].
pub fn monte_carlo_in<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    max_walks: Option<u64>,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<TeaOutput, HkprError> {
    monte_carlo_anytime_in(graph, params, seed, max_walks, None, rng, ws)?.into_complete()
}

/// Monte-Carlo estimation as a ladder of accuracy tiers on the resumable
/// walk engine (see [`crate::anytime`]) — the one Monte-Carlo driver. All
/// `nr` walk lengths are sampled up front, grouped by length, and
/// executed by the batched engine with endpoint counts accumulated
/// densely (the per-walk hash-map deposit of the reference becomes one
/// `count * mass` conversion at the end).
///
/// Semantics:
///
/// * run to completion, `achieved.is_degraded()` is false and the answer
///   is the published estimator's;
/// * a cancellation fired mid-walk stops refinement at the next chunk
///   boundary instead of erroring — the walks already deposited are
///   renormalized (`mass = 1/walks_done`, still unbiased) and
///   `achieved.is_degraded()` reports the shortfall;
/// * cancellation before any walk deposited (during length sampling or
///   at the very first chunk) yields [`HkprError::Cancelled`] — with zero
///   walks there is nothing to normalize;
/// * `tier_cap` (`Some(k)`, clamped to at least 1) stops after `k`
///   ladder tiers regardless of cancellation — a deterministic degraded
///   run for tests and benches. `None` runs the full ladder.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_anytime_in<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    max_walks: Option<u64>,
    tier_cap: Option<u32>,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<AnytimeOutput, HkprError> {
    params.validate_seed(seed)?;
    let published = params.monte_carlo_walks();
    let nr = match max_walks {
        Some(0) => return Err(HkprError::InvalidParameter("max_walks must be >= 1".into())),
        Some(cap) => published.min(cap),
        None => published,
    };

    let clock = std::time::Instant::now();
    ws.begin(graph.num_nodes());
    let mut stats = QueryStats {
        alpha: 1.0,
        ..QueryStats::default()
    };
    let poisson = params.poisson();

    // Sample every walk length up front into a Poisson histogram. The
    // published count can reach tens of millions, so the loop polls the
    // workspace's cancellation token every 64Ki draws; a cancel here
    // aborts with nothing deposited.
    let mut length_counts = vec![0u64; poisson.k_max() + 1];
    for i in 0..nr {
        if i & 0xFFFF == 0 {
            ws.check_cancelled()?;
        }
        length_counts[poisson.sample_length(rng)] += 1;
    }
    let push_ns = clock.elapsed().as_nanos() as u64;

    let master_seed = rng.next_u64();
    let cancel = ws.cancel_token().cloned();
    plan_batched_fixed_walks(graph, &length_counts, &mut ws.counts, &mut ws.walk_scratch);
    let (cursor, tiers_completed, tiers_planned) =
        climb_walk_ladder(ws, nr, tier_cap, |ws, bound, cursor| {
            run_planned_fixed_walks(
                graph,
                seed,
                master_seed,
                cancel.as_ref(),
                bound,
                cursor,
                &mut ws.counts,
                &mut ws.walk_scratch,
            )
        });

    let walks_done = cursor.walks_done;
    if walks_done == 0 {
        // Nothing deposited: cancelled before the first chunk ran (the
        // plan is never empty, nr >= 1).
        return Err(HkprError::Cancelled);
    }
    // Renormalize over executed walks — unbiased because every chunk is
    // an independent batch of walk samples.
    let mass = 1.0 / walks_done as f64;
    stats.random_walks = walks_done;
    stats.walk_steps = if walks_done == nr {
        // A complete run reports the analytic step total (it knows every
        // sampled length, including those of walks that could not move).
        length_counts
            .iter()
            .enumerate()
            .map(|(len, &c)| len as u64 * c)
            .sum()
    } else {
        cursor.steps
    };

    let entries = ws.assemble_estimate(mass);
    ws.set_phase_times(push_ns, clock.elapsed().as_nanos() as u64 - push_ns);
    let achieved = AccuracyTier {
        tiers_completed,
        tiers_planned,
        walks_done,
        walks_planned: nr,
        // Monte-Carlo has no push phase: 0 planned, trivially complete.
        push_tiers_completed: 0,
        push_tiers_planned: 0,
        eps_r_requested: params.eps_r(),
        eps_r_achieved: achieved_eps_r(params.eps_r(), nr, walks_done),
    };
    Ok(AnytimeOutput {
        estimate: HkprEstimate::from_sorted_entries(entries),
        stats,
        achieved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::exact_hkpr;
    use hk_graph::builder::graph_from_edges;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn diamond() -> Graph {
        graph_from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    }

    #[test]
    fn mass_sums_to_one() {
        let g = diamond();
        let params = HkprParams::builder(&g)
            .delta(0.01)
            .p_f(0.1)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = monte_carlo(&g, &params, 0, Some(5_000), &mut rng).unwrap();
        assert!((out.estimate.raw_sum() - 1.0).abs() < 1e-9);
        assert_eq!(
            out.stats.random_walks,
            params.monte_carlo_walks().min(5_000)
        );
    }

    #[test]
    fn converges_to_exact() {
        let g = diamond();
        // delta small enough that the published count exceeds the cap, so
        // exactly 400k walks run (binomial std ~6e-4; tolerance is ~8x).
        let params = HkprParams::builder(&g)
            .t(4.0)
            .delta(1e-5)
            .p_f(0.1)
            .build()
            .unwrap();
        let exact = exact_hkpr(&g, params.poisson(), 0);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = monte_carlo(&g, &params, 0, Some(400_000), &mut rng).unwrap();
        assert_eq!(out.stats.random_walks, 400_000);
        for v in 0..4u32 {
            let err = (out.estimate.raw(v) - exact[v as usize]).abs();
            assert!(err < 0.005, "v={v}: err {err}");
        }
    }

    #[test]
    fn cap_respected_and_published_count_used_when_smaller() {
        let g = diamond();
        // Loose parameters -> small published count.
        let params = HkprParams::builder(&g)
            .eps_r(0.9)
            .delta(0.3)
            .p_f(0.5)
            .build()
            .unwrap();
        let published = params.monte_carlo_walks();
        let mut rng = SmallRng::seed_from_u64(3);
        let out = monte_carlo(&g, &params, 0, Some(published + 1_000_000), &mut rng).unwrap();
        assert_eq!(out.stats.random_walks, published);
    }

    #[test]
    fn rejects_zero_cap_and_bad_seed() {
        let g = diamond();
        let params = HkprParams::builder(&g).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(monte_carlo(&g, &params, 0, Some(0), &mut rng).is_err());
        assert!(monte_carlo(&g, &params, 42, Some(10), &mut rng).is_err());
    }

    #[test]
    fn walk_steps_track_poisson_mean() {
        let g = diamond();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .delta(0.01)
            .p_f(0.1)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let out = monte_carlo(&g, &params, 0, Some(50_000), &mut rng).unwrap();
        let mean = out.stats.walk_steps as f64 / out.stats.random_walks as f64;
        assert!((mean - 5.0).abs() < 0.1, "mean len {mean}");
    }
}
