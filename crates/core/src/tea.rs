//! `TEA` (Algorithm 3): HK-Push + residue-guided random walks.
//!
//! TEA first runs [`crate::push::hk_push`] with threshold `rmax`,
//! obtaining a reserve vector `q_s` (a lower bound of `rho_s`) and residue
//! vectors `r^(0..K)`. By Lemma 1 the missing mass is
//! `sum_{u,k} r^(k)[u] * h^(k)_u[v]`, which is estimated by
//! `nr = alpha * omega` invocations of
//! [`crate::walk::k_random_walk`], each started from an
//! entry `(u, k)` drawn with probability `r^(k)[u] / alpha` via an alias
//! table. Theorem 1: the result is `(d, eps_r, delta)`-approximate with
//! probability at least `1 - p_f`; total expected time
//! `O(t log(n/p_f) / (eps_r^2 delta))`.

use hk_graph::{Graph, NodeId};
use rand::Rng;

use crate::alias::AliasTable;
use crate::error::HkprError;
use crate::estimate::{HkprEstimate, QueryStats};
use crate::params::HkprParams;
use crate::push::hk_push_ws;
use crate::walk::run_batched_walks;
use crate::workspace::QueryWorkspace;

/// Result of a TEA (or TEA+) query.
#[derive(Clone, Debug)]
pub struct TeaOutput {
    /// The `(d, eps_r, delta)`-approximate HKPR vector.
    pub estimate: HkprEstimate,
    /// Cost counters.
    pub stats: QueryStats,
}

/// Run TEA from `seed`.
///
/// `rmax` overrides the residue threshold; `None` uses the balanced
/// default `1/(omega t)` from §4.2. The walk phase consumes `rng`, so a
/// fixed seed makes queries reproducible.
///
/// Runs on this thread's cached [`QueryWorkspace`]; serving loops that
/// want an explicitly owned workspace call [`tea_in`].
pub fn tea<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    rmax: Option<f64>,
    rng: &mut R,
) -> Result<TeaOutput, HkprError> {
    crate::workspace::with_thread_workspace(|ws| tea_in(graph, params, seed, rmax, rng, ws))
}

/// Run TEA from `seed` on a reusable workspace: the dense HK-Push
/// ([`hk_push_ws`]) followed by the batched walk engine
/// (`walk::run_batched_walks`). `rng` seeds the engine's deterministic
/// per-chunk streams, so results are reproducible for a fixed RNG seed.
pub fn tea_in<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    rmax: Option<f64>,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<TeaOutput, HkprError> {
    params.validate_seed(seed)?;
    let rmax = match rmax {
        Some(r) if r.is_nan() || r <= 0.0 => {
            return Err(HkprError::InvalidParameter(format!(
                "rmax must be positive, got {r}"
            )))
        }
        Some(r) => r,
        None => params.rmax_default(),
    };

    let clock = std::time::Instant::now();
    let push = hk_push_ws(graph, params.poisson(), seed, rmax, ws);
    ws.check_cancelled()?;
    let push_ns = clock.elapsed().as_nanos() as u64;
    let mut stats = QueryStats {
        push_operations: push.push_operations,
        ..QueryStats::default()
    };

    // alpha = total residue mass (Algorithm 3 line 7).
    let alpha = ws.residues.total_sum();
    stats.alpha = alpha;
    let mut mass = 0.0;
    if alpha > 0.0 {
        let omega = params.omega_tea();
        let nr = (alpha * omega).ceil() as u64;
        // Alias table over non-zero residue entries (line 10's sampler).
        ws.entries.clear();
        ws.weights.clear();
        for (k, v, r) in ws.residues.entries() {
            ws.entries.push((k as u32, v));
            ws.weights.push(r);
        }
        if nr > 0 && !ws.entries.is_empty() {
            let table = AliasTable::try_new(&ws.weights)?;
            mass = alpha / nr as f64;
            let cancel = ws.cancel_token().cloned();
            let steps = run_batched_walks(
                graph,
                params.poisson(),
                &ws.entries,
                &table,
                nr,
                rng.next_u64(),
                cancel.as_ref(),
                &mut ws.counts,
                &mut ws.walk_scratch,
            );
            ws.check_cancelled()?;
            stats.random_walks = nr;
            stats.walk_steps = steps;
        }
    }

    let entries = ws.assemble_estimate(mass);
    ws.set_phase_times(push_ns, clock.elapsed().as_nanos() as u64 - push_ns);
    Ok(TeaOutput {
        estimate: HkprEstimate::from_sorted_entries(entries),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::exact_hkpr;
    use hk_graph::builder::graph_from_edges;
    use hk_graph::gen::erdos_renyi_gnm;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn ring_with_chords() -> Graph {
        graph_from_edges([
            (0, 1),
            (1, 2),
            (2, 3),
            (3, 4),
            (4, 5),
            (5, 0),
            (0, 2),
            (3, 5),
        ])
    }

    #[test]
    fn estimate_mass_is_calibrated() {
        // Reserve mass + walk mass must equal 1 (each walk deposits
        // alpha/nr and nr*alpha/nr = alpha, reserve holds 1 - alpha).
        let g = ring_with_chords();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .delta(0.01)
            .p_f(0.01)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = tea(&g, &params, 0, None, &mut rng).unwrap();
        let total = out.estimate.raw_sum();
        assert!((total - 1.0).abs() < 1e-9, "total mass {total}");
    }

    #[test]
    fn approximates_exact_hkpr() {
        let mut gen_rng = SmallRng::seed_from_u64(7);
        let g = erdos_renyi_gnm(60, 180, &mut gen_rng).unwrap();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .eps_r(0.3)
            .delta(1e-3)
            .p_f(0.01)
            .build()
            .unwrap();
        let exact = exact_hkpr(&g, params.poisson(), 3);
        let mut rng = SmallRng::seed_from_u64(2);
        let out = tea(&g, &params, 3, None, &mut rng).unwrap();
        for v in 0..g.num_nodes() as u32 {
            let d = g.degree(v) as f64;
            let approx = out.estimate.rho(&g, v) / d;
            let truth = exact[v as usize] / d;
            if truth > params.delta() {
                let rel = (approx - truth).abs() / truth;
                assert!(rel <= params.eps_r() + 0.05, "v={v}: rel err {rel}");
            } else {
                assert!(
                    (approx - truth).abs() <= params.eps_r() * params.delta() + 1e-6,
                    "v={v}: abs err {}",
                    (approx - truth).abs()
                );
            }
        }
    }

    #[test]
    fn zero_walks_when_push_exhausts_residue() {
        // A microscopic rmax forces HK-Push to settle ~all mass; residue
        // alpha becomes negligible and few walks run.
        let g = ring_with_chords();
        let params = HkprParams::builder(&g)
            .delta(0.05)
            .p_f(0.1)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let fine = tea(&g, &params, 0, Some(1e-12), &mut rng).unwrap();
        let coarse = tea(&g, &params, 0, Some(1.0), &mut rng).unwrap();
        assert!(fine.stats.random_walks < coarse.stats.random_walks);
        assert!(fine.stats.push_operations > coarse.stats.push_operations);
        // rmax = 1.0 means the seed itself is below threshold: pure MC.
        assert_eq!(coarse.stats.push_operations, 0);
        assert!((coarse.stats.alpha - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_inputs() {
        let g = ring_with_chords();
        let params = HkprParams::builder(&g).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        assert!(matches!(
            tea(&g, &params, 99, None, &mut rng),
            Err(HkprError::SeedOutOfRange { .. })
        ));
        assert!(matches!(
            tea(&g, &params, 0, Some(0.0), &mut rng),
            Err(HkprError::InvalidParameter(_))
        ));
    }

    #[test]
    fn deterministic_for_fixed_rng_seed() {
        let g = ring_with_chords();
        let params = HkprParams::builder(&g)
            .delta(0.01)
            .p_f(0.01)
            .build()
            .unwrap();
        let a = tea(&g, &params, 0, None, &mut SmallRng::seed_from_u64(5)).unwrap();
        let b = tea(&g, &params, 0, None, &mut SmallRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.stats, b.stats);
        for v in 0..6u32 {
            assert_eq!(a.estimate.raw(v), b.estimate.raw(v));
        }
    }
}
