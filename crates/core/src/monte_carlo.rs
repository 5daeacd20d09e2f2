//! Pure Monte-Carlo HKPR estimation — the §3 baseline.
//!
//! Performs `nr = 2 (1 + eps_r/3) ln(n/p_f) / (eps_r^2 delta)` random walks
//! from the seed, each with a Poisson(t)-distributed length, and uses
//! endpoint frequencies as the estimate. Chernoff + union bound give the
//! `(d, eps_r, delta)`-approximation with probability `1 - p_f`. The paper
//! uses this both as a correctness yardstick and as the slowest baseline
//! (Figures 4–9): the walk count explodes as `delta` shrinks.
//!
//! It is TEA's estimator with no push — the residue vector is
//! `r^(0)[s] = 1`, Chung–Simpson's estimator — so this module holds only
//! the stage that sets up that vector; [`crate::driver::estimate_in`]
//! runs it with [`Estimator::MonteCarlo`](crate::Estimator::MonteCarlo),
//! then the walks, on the one planner TEA and TEA+ use: `nr` walks from
//! the single entry `(0, seed)`, each chunk drawing its walks' lengths
//! from hop 0's table (Lemma 2). Every chunk is then an i.i.d. sample of
//! the phase, so a walk ladder cut at a chunk boundary keeps an unbiased
//! prefix.

use std::time::Instant;

use hk_graph::{Graph, NodeId};

use crate::anytime::AccuracyTier;
use crate::driver::Front;
use crate::error::HkprError;
use crate::estimate::QueryStats;
use crate::params::HkprParams;
use crate::workspace::QueryWorkspace;

/// Monte-Carlo's stage, which pushes nothing: the single walk entry
/// `(0, seed)` of weight 1, which carries the whole residue mass
/// `alpha = 1`, and `nr` walks (the published count, capped by
/// `max_walks`). Walk planning is walk-phase work, so the query records
/// `push_ns == 0`.
pub(crate) fn walk_stage(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    max_walks: Option<u64>,
    ws: &mut QueryWorkspace,
) -> Result<Front, HkprError> {
    let published = params.monte_carlo_walks();
    let nr = match max_walks {
        Some(0) => return Err(HkprError::InvalidParameter("max_walks must be >= 1".into())),
        Some(cap) => published.min(cap),
        None => published,
    };
    let push_done = Instant::now();
    ws.begin(graph.num_nodes());
    ws.entries.push((0, seed));
    ws.weights.push(1.0);
    Ok(Front {
        stats: QueryStats {
            alpha: 1.0,
            ..QueryStats::default()
        },
        achieved: AccuracyTier::complete_without_walks(params.eps_r()),
        push_ns: 0,
        push_done,
        offset_coeff: None,
        walks: nr,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::complete;
    use crate::power::exact_hkpr;
    use crate::{Estimator, TeaOutput};
    use hk_graph::builder::graph_from_edges;
    use hk_graph::NodeId;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn monte_carlo(
        g: &Graph,
        params: &HkprParams,
        seed: NodeId,
        max_walks: Option<u64>,
        rng: &mut SmallRng,
    ) -> Result<TeaOutput, HkprError> {
        let estimator = Estimator::MonteCarlo { max_walks };
        complete(g, params, seed, estimator, rng, &mut QueryWorkspace::new())
    }

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
