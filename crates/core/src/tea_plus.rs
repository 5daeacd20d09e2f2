//! `TEA+` (Algorithm 5): the paper's headline algorithm.
//!
//! TEA+ improves TEA with three ideas (§5):
//!
//! 1. **Budgeted push with early exit** —
//!    [`hk_push_plus`](crate::push_plus::hk_push_plus) runs with
//!    `np = omega * t / 2` push budget and hop cap
//!    `K = c * ln(1/(eps_r delta)) / ln(d̄)`; if condition (11) already
//!    holds, the reserve alone is `(d, eps_r, delta)`-approximate and the
//!    query finishes without a single random walk (§5.1).
//! 2. **Residue reduction** — before walking, every residue `r^(k)[u]` is
//!    lowered by `beta_k * eps_r * delta * d(u)` with
//!    `beta_k = hop_sum(k) / total_sum` (lines 8–11). The incurred error
//!    `b_s[v]` is bounded by `eps_r * delta * d(v)` (Inequality 19), and
//!    the walk count `alpha * omega` drops sharply — Example 1 shows a
//!    400x reduction.
//! 3. **Half offset** — adding `eps_r * delta / 2 * d(v)` to every entry
//!    centres the reduction error at zero, halving its magnitude
//!    (lines 18–19); stored as an O(1) coefficient on the estimate.
//!
//! Theorem 3: `(d, eps_r, delta)`-approximate with probability `1 - p_f`;
//! expected time `O(t log(n/p_f) / (eps_r^2 delta))`.
//!
//! This module holds TEA+'s push stage (ideas 1 and 2, and the offset
//! coefficient of 3) and its ablation switches;
//! [`crate::driver::estimate_in`] runs it with
//! [`Estimator::TeaPlus`](crate::Estimator::TeaPlus), then the walks.

use std::time::Instant;

use hk_graph::{Graph, NodeId};

use crate::anytime::{AccuracyTier, AnytimeControls, PUSH_TIER_DIVISORS};
use crate::driver::Front;
use crate::error::HkprError;
use crate::estimate::QueryStats;
use crate::params::HkprParams;
use crate::push_plus::{hk_push_plus_ws, PushPlusConfig};
use crate::workspace::QueryWorkspace;

/// Ablation switches for [`Estimator::TeaPlus`](crate::Estimator::TeaPlus).
/// The defaults are the published Algorithm 5; each switch disables one
/// of TEA+'s three ideas so the `ablation_tea_plus` bench can price them
/// individually. Disabling `residue_reduction` and `offset` keeps the
/// estimate unbiased (it degenerates to TEA over HK-Push+); disabling
/// `early_exit` forces the walk phase even when the reserve already
/// certifies the guarantee.
#[derive(Clone, Copy, Debug)]
pub struct TeaPlusOptions {
    /// Apply the lines 8-11 residue reduction before walking.
    pub residue_reduction: bool,
    /// Honor the condition-(11) early exit (line 7).
    pub early_exit: bool,
    /// Add the `eps_r*delta/2 * d(v)` offset (lines 18-19).
    pub offset: bool,
}

impl Default for TeaPlusOptions {
    fn default() -> Self {
        TeaPlusOptions {
            residue_reduction: true,
            early_exit: true,
            offset: true,
        }
    }
}

impl TeaPlusOptions {
    /// Lines 18-19: the `eps_r*delta/2 * d(v)` offset, stored as an O(1)
    /// coefficient (the paper's "record the value along with rho_hat").
    /// Only meaningful when the reduction actually removed mass.
    fn offset_coeff(&self, params: &HkprParams) -> Option<f64> {
        (self.residue_reduction && self.offset).then(|| params.eps_abs() / 2.0)
    }
}

/// TEA+'s push stage: the push ([`hk_push_plus_ws`]) and the lines 8-11
/// residue reduction, ending in an early exit, an empty walk phase, or
/// walks whose entries and weights sit in the workspace. Honors
/// `controls.push_tier_cap` and `controls.on_push_tier`; a push cut
/// before it certified any tier is [`HkprError::Cancelled`].
pub(crate) fn push_stage(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    opts: TeaPlusOptions,
    controls: &mut AnytimeControls<'_>,
    ws: &mut QueryWorkspace,
) -> Result<Front, HkprError> {
    let cfg = PushPlusConfig {
        hop_cap: params.hop_cap(),
        eps_abs: params.eps_abs(),
        budget: params.push_budget(),
    };
    let clock = Instant::now();
    let push = hk_push_plus_ws(graph, params.poisson(), seed, &cfg, controls, ws);
    if push.tiers_completed == 0 {
        // Cut before certifying anything: the reserve bounds nothing.
        return Err(HkprError::Cancelled);
    }
    let push_done = Instant::now();
    let mut front = Front {
        stats: QueryStats {
            push_operations: push.push_operations,
            early_exit: push.satisfied_condition_11 && opts.early_exit,
            ..QueryStats::default()
        },
        achieved: AccuracyTier {
            // Natural termination — including a budget stop — is the final
            // tier: the walk phase compensates whatever residues remain,
            // exactly as Algorithm 5 specifies.
            push_tiers_completed: push.tiers_completed,
            push_tiers_planned: PUSH_TIER_DIVISORS.len() as u32,
            ..AccuracyTier::complete_without_walks(params.eps_r())
        },
        push_ns: (push_done - clock).as_nanos() as u64,
        push_done,
        offset_coeff: None,
        walks: 0,
    };

    // Line 7: condition (11) held — the reserve is already good enough.
    // Only naturally-finished pushes can claim it, so the push ladder is
    // complete here by construction.
    if front.stats.early_exit {
        return Ok(front);
    }

    // Lines 8-11: residue reduction. beta_k proportional to the hop sums,
    // applied in one pass over the hops' entries (a sequential walk of
    // the frozen lists, plus whatever hop a stop left live).
    // Inequality 19 holds for whatever residues exist, so the reduction
    // stays sound on the stop state of a cut-short push.
    let total = ws.residues.total_sum();
    let eps_abs = params.eps_abs();
    ws.entries.clear();
    ws.weights.clear();
    let mut alpha = 0.0f64;
    if total > 0.0 {
        let num_hops = ws.residues.num_hops();
        for k in 0..num_hops {
            let beta = ws.residues.hop_sum(k) / total;
            let cut = if opts.residue_reduction {
                beta * eps_abs
            } else {
                0.0
            };
            // The push phase published an upper bound on max_v r^(k)[v] /
            // d(v). An entry survives reduction iff r - cut*d > 0, so a
            // hop whose bound sits clearly below the cut reduces to
            // nothing — skip it without touching its entries. The 1e-9
            // relative margin keeps the skip conservative across the fp
            // rounding difference between the bound's r/d and the
            // per-entry r - cut*d test, so no entry the reference keeps
            // is ever dropped. (Example 1's 400x walk reduction often
            // empties every hop; this makes that common case O(K)
            // instead of O(nnz).)
            if ws
                .hop_max_frozen
                .get(k)
                .is_some_and(|&bound| bound < cut * (1.0 - 1e-9))
            {
                continue;
            }
            // Residue entries never sit on degree-0 nodes (such a node's
            // whole mass settles the moment it is processed), so the
            // memoized degree equals the true degree.
            ws.residues.for_each_in_hop(k, |u, r, deg| {
                let r2 = r - cut * deg as f64;
                if r2 > 0.0 {
                    ws.entries.push((k as u32, u));
                    ws.weights.push(r2);
                    alpha += r2;
                }
            });
        }
    }

    // Walk counts are planned from the stop state's residual mass, so any
    // push stop + a complete walk phase carries the full statistical
    // guarantee.
    front.stats.alpha = alpha;
    front.walks = (alpha * params.omega_tea_plus()).ceil() as u64;
    front.offset_coeff = opts.offset_coeff(params);
    Ok(front)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::tests::{complete, TEA_PLUS};
    use crate::power::exact_hkpr;
    use crate::{Estimator, TeaOutput};
    use hk_graph::builder::graph_from_edges;
    use hk_graph::gen::{erdos_renyi_gnm, holme_kim};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn run(
        g: &Graph,
        params: &HkprParams,
        seed: NodeId,
        estimator: Estimator,
        rng: &mut SmallRng,
    ) -> Result<TeaOutput, HkprError> {
        complete(g, params, seed, estimator, rng, &mut QueryWorkspace::new())
    }

    /// The §5.4 graph G'.
    fn example_graph() -> Graph {
        graph_from_edges([
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (2, 6),
            (2, 7),
        ])
    }

    #[test]
    fn example_5_4_walk_count_and_offset() {
        // The worked example: nr = alpha * omega = tau/12 * 970/tau ~ 81
        // walks, offset coefficient eps_r*delta/2 = tau/9/2.
        let g = example_graph();
        let tau = 1.0 - 4.0 / 3.0f64.exp();
        let params = HkprParams::builder(&g)
            .t(3.0)
            .eps_r(0.5)
            .delta(2.0 * tau / 9.0)
            .p_f(1e-2)
            .c(2.5)
            .build()
            .unwrap();
        // The paper picks c so that K = 2; check our K from Equation (20)
        // and override through a direct config if it differs. Here
        // eps_abs = tau/9 ~ 0.089, d_bar = 2, so K = ceil(2.5*ln(11.2)/ln(2)).
        // That is 9, not 2 — the example's c is synthetic. Use the raw
        // push_plus + manual steps to pin the trace in push_plus tests;
        // here we assert the end-to-end invariants that do not depend on K:
        let mut rng = SmallRng::seed_from_u64(11);
        let out = run(&g, &params, 0, TEA_PLUS, &mut rng).unwrap();
        assert!((out.estimate.offset_coeff() - tau / 18.0).abs() < 1e-12 || out.stats.early_exit);
        // Total explicit mass <= 1 (reduction removes mass, walks restore
        // the kept part).
        assert!(out.estimate.raw_sum() <= 1.0 + 1e-9);
    }

    #[test]
    fn residue_reduction_shrinks_walks_vs_tea() {
        let mut gen_rng = SmallRng::seed_from_u64(5);
        let g = holme_kim(800, 5, 0.3, &mut gen_rng).unwrap();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .eps_r(0.5)
            .delta(1e-4)
            .p_f(1e-4)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let plus = run(&g, &params, 0, TEA_PLUS, &mut rng).unwrap();
        let plain = run(&g, &params, 0, Estimator::Tea { rmax: None }, &mut rng).unwrap();
        assert!(
            plus.stats.random_walks < plain.stats.random_walks,
            "TEA+ walks {} must undercut TEA walks {}",
            plus.stats.random_walks,
            plain.stats.random_walks
        );
    }

    #[test]
    fn achieves_d_eps_delta_approximation() {
        let mut gen_rng = SmallRng::seed_from_u64(9);
        let g = erdos_renyi_gnm(80, 240, &mut gen_rng).unwrap();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .eps_r(0.4)
            .delta(1e-3)
            .p_f(0.01)
            .build()
            .unwrap();
        let exact = exact_hkpr(&g, params.poisson(), 7);
        let mut rng = SmallRng::seed_from_u64(10);
        let out = run(&g, &params, 7, TEA_PLUS, &mut rng).unwrap();
        let mut violations = 0usize;
        for v in 0..g.num_nodes() as u32 {
            let d = g.degree(v) as f64;
            if d == 0.0 {
                continue;
            }
            let approx = out.estimate.rho(&g, v) / d;
            let truth = exact[v as usize] / d;
            let ok = if truth > params.delta() {
                (approx - truth).abs() <= params.eps_r() * truth + 1e-9
            } else {
                (approx - truth).abs() <= params.eps_r() * params.delta() + 1e-9
            };
            if !ok {
                violations += 1;
            }
        }
        // p_f = 0.01: allow a whisker of slack for the union bound.
        assert!(violations <= 2, "{violations} nodes violate the guarantee");
    }

    #[test]
    fn early_exit_with_loose_parameters() {
        // Huge delta: the push phase alone certifies the approximation.
        let g = example_graph();
        let params = HkprParams::builder(&g)
            .t(3.0)
            .eps_r(0.9)
            .delta(0.45)
            .p_f(0.1)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        let out = run(&g, &params, 0, TEA_PLUS, &mut rng).unwrap();
        assert!(out.stats.early_exit);
        assert_eq!(out.stats.random_walks, 0);
        assert_eq!(out.estimate.offset_coeff(), 0.0);
    }

    #[test]
    fn ablation_no_reduction_means_more_walks() {
        // Disabling residue reduction must not reduce the walk count, and
        // typically raises it sharply (Example 1's 400x effect).
        let mut gen_rng = SmallRng::seed_from_u64(31);
        let g = holme_kim(600, 5, 0.3, &mut gen_rng).unwrap();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .eps_r(0.5)
            .delta(2e-4)
            .p_f(1e-3)
            .build()
            .unwrap();
        let opts_off = TeaPlusOptions {
            residue_reduction: false,
            early_exit: false,
            offset: false,
        };
        let opts_on = TeaPlusOptions {
            early_exit: false,
            ..TeaPlusOptions::default()
        };
        let mut rng = SmallRng::seed_from_u64(32);
        let with = run(&g, &params, 0, Estimator::TeaPlus(opts_on), &mut rng).unwrap();
        let without = run(&g, &params, 0, Estimator::TeaPlus(opts_off), &mut rng).unwrap();
        assert!(
            without.stats.random_walks >= with.stats.random_walks,
            "reduction must not increase walks: {} vs {}",
            without.stats.random_walks,
            with.stats.random_walks
        );
    }

    #[test]
    fn ablation_no_early_exit_forces_walk_phase_plumbing() {
        let g = example_graph();
        let params = HkprParams::builder(&g)
            .t(3.0)
            .eps_r(0.9)
            .delta(0.45)
            .p_f(0.1)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(33);
        let default = run(&g, &params, 0, TEA_PLUS, &mut rng).unwrap();
        assert!(default.stats.early_exit);
        let forced = TeaPlusOptions {
            early_exit: false,
            ..TeaPlusOptions::default()
        };
        let forced = run(&g, &params, 0, Estimator::TeaPlus(forced), &mut rng).unwrap();
        assert!(!forced.stats.early_exit);
        // Both remain calibrated estimates.
        assert!(forced.estimate.raw_sum() <= 1.0 + 1e-9);
    }

    #[test]
    fn ablation_offset_toggle_controls_coefficient() {
        let mut gen_rng = SmallRng::seed_from_u64(34);
        let g = holme_kim(300, 4, 0.3, &mut gen_rng).unwrap();
        let params = HkprParams::builder(&g)
            .t(5.0)
            .eps_r(0.5)
            .delta(1e-3)
            .p_f(1e-2)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(35);
        let no_offset = TeaPlusOptions {
            offset: false,
            early_exit: false,
            ..TeaPlusOptions::default()
        };
        let no_offset = run(&g, &params, 0, Estimator::TeaPlus(no_offset), &mut rng).unwrap();
        assert_eq!(no_offset.estimate.offset_coeff(), 0.0);
        let with_offset = TeaPlusOptions {
            early_exit: false,
            ..TeaPlusOptions::default()
        };
        let with_offset = run(&g, &params, 0, Estimator::TeaPlus(with_offset), &mut rng).unwrap();
        assert!((with_offset.estimate.offset_coeff() - params.eps_abs() / 2.0).abs() < 1e-15);
    }

    #[test]
    fn seed_validation() {
        let g = example_graph();
        let params = HkprParams::builder(&g).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        assert!(matches!(
            run(&g, &params, 1000, TEA_PLUS, &mut rng),
            Err(HkprError::SeedOutOfRange { .. })
        ));
    }

    #[test]
    fn deterministic_for_fixed_rng() {
        let g = example_graph();
        let params = HkprParams::builder(&g)
            .delta(0.02)
            .p_f(0.05)
            .build()
            .unwrap();
        let a = run(&g, &params, 0, TEA_PLUS, &mut SmallRng::seed_from_u64(14)).unwrap();
        let b = run(&g, &params, 0, TEA_PLUS, &mut SmallRng::seed_from_u64(14)).unwrap();
        assert_eq!(a.stats, b.stats);
        for v in 0..8u32 {
            assert_eq!(a.estimate.raw(v), b.estimate.raw(v));
        }
    }
}
