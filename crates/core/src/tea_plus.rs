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

use hk_graph::{Graph, NodeId};
use rand::Rng;

use crate::alias::AliasTable;
use std::time::Instant;

use crate::anytime::{
    achieved_eps_r, climb_walk_ladder, tier_targets, AccuracyTier, AnytimeControls, AnytimeOutput,
    PUSH_TIER_DIVISORS,
};
use crate::error::HkprError;
use crate::estimate::{HkprEstimate, QueryStats};
use crate::params::HkprParams;
use crate::push_plus::{
    hk_push_plus_begin, hk_push_plus_finalize, hk_push_plus_step, PushPlusConfig, PushStepOutcome,
};
use crate::tea::TeaOutput;
use crate::walk::{plan_batched_walks, run_planned_walks};
use crate::workspace::QueryWorkspace;

/// Ablation switches for [`tea_plus_with_options`]. The defaults are the
/// published Algorithm 5; each switch disables one of TEA+'s three ideas
/// so the `ablation_tea_plus` bench can price them individually.
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

/// Run TEA+ from `seed` (the published Algorithm 5).
///
/// Runs on this thread's cached [`QueryWorkspace`]; serving loops that
/// want an explicitly owned workspace call [`tea_plus_in`].
pub fn tea_plus<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    rng: &mut R,
) -> Result<TeaOutput, HkprError> {
    tea_plus_with_options(graph, params, seed, TeaPlusOptions::default(), rng)
}

/// Run TEA+ with individual optimizations toggled — ablation entry point.
///
/// Disabling `residue_reduction` and `offset` keeps the estimate unbiased
/// (it degenerates to TEA-over-HK-Push+); disabling `early_exit` forces
/// the walk phase even when the reserve already certifies the guarantee.
pub fn tea_plus_with_options<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    opts: TeaPlusOptions,
    rng: &mut R,
) -> Result<TeaOutput, HkprError> {
    crate::workspace::with_thread_workspace(|ws| {
        tea_plus_with_options_in(graph, params, seed, opts, rng, ws)
    })
}

/// Run TEA+ from `seed` on a reusable workspace.
pub fn tea_plus_in<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<TeaOutput, HkprError> {
    tea_plus_with_options_in(graph, params, seed, TeaPlusOptions::default(), rng, ws)
}

/// Full TEA+ (Algorithm 5) on a reusable workspace: dense budgeted push
/// with the incremental condition-(11) check, residue reduction straight
/// off the dense hop arrays, and the batched walk engine. Results are
/// bit-identical for a fixed `rng` state.
///
/// This is [`tea_plus_anytime_in`] refined to completion with the
/// [`AccuracyTier`] dropped: all or nothing. A cancellation that cut
/// either ladder short — which the anytime entry point would report as a
/// degraded answer — is [`HkprError::Cancelled`] here.
pub fn tea_plus_with_options_in<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    opts: TeaPlusOptions,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<TeaOutput, HkprError> {
    let controls = AnytimeControls::default();
    tea_plus_anytime_in(graph, params, seed, opts, controls, rng, ws)?.into_complete()
}

/// A walk phase ready to execute on the workspace that prepared it (the
/// walk-start entries and weights stay in the workspace).
struct WalkPhase {
    /// Total reduced residue mass `alpha` (> 0).
    alpha: f64,
    /// Planned walk count `ceil(alpha * omega)` (> 0).
    nr: u64,
    /// Master seed of the chunked walk RNG streams, drawn from the query
    /// RNG right after the walk weights validate — the only draw a TEA+
    /// query makes from it.
    master_seed: u64,
    /// Query stats accumulated through the push phase (including `alpha`).
    stats: QueryStats,
    /// Push-phase wall time.
    push_ns: u64,
    /// Alias table over the workspace's walk weights.
    table: AliasTable,
    /// What the push achieved; the walk fields still read "no walks".
    achieved: AccuracyTier,
    /// When the push phase ended (start of the walk-phase timing).
    push_done: Instant,
}

/// Where the push + residue-reduction half of a query leaves it.
enum Front {
    /// Final without a walk: condition-(11) early exit, or the reduction
    /// left nothing to walk from.
    Done(AnytimeOutput),
    Walk(WalkPhase),
}

impl TeaPlusOptions {
    /// Lines 18-19: the `eps_r*delta/2 * d(v)` offset, stored as an O(1)
    /// coefficient (the paper's "record the value along with rho_hat").
    /// Only meaningful when the reduction actually removed mass.
    fn offset_coeff(&self, params: &HkprParams) -> Option<f64> {
        (self.residue_reduction && self.offset).then(|| params.eps_abs() / 2.0)
    }
}

/// Assemble reserve + `count * mass` into the final estimate and record
/// the phase times (`since` = start of the walk phase).
fn assemble(
    ws: &mut QueryWorkspace,
    mass: f64,
    offset_coeff: Option<f64>,
    push_ns: u64,
    since: Instant,
) -> HkprEstimate {
    let entries = ws.assemble_estimate(mass);
    ws.set_phase_times(push_ns, since.elapsed().as_nanos() as u64);
    let mut estimate = HkprEstimate::from_sorted_entries(entries);
    if let Some(coeff) = offset_coeff {
        estimate.set_offset_coeff(coeff);
    }
    estimate
}

/// The front half of every TEA+ run: the push ladder
/// ([`hk_push_plus_begin`] / [`hk_push_plus_step`] /
/// [`hk_push_plus_finalize`]) and the lines 8-11 residue reduction,
/// ending in an early exit, an empty walk phase, or a [`WalkPhase`] whose
/// entries and weights sit in the workspace. Honors
/// `controls.push_tier_cap` and `controls.on_push_tier`; a push
/// cancelled before it certified any tier is [`HkprError::Cancelled`].
fn push_and_reduce<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    opts: TeaPlusOptions,
    mut controls: AnytimeControls<'_>,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<Front, HkprError> {
    params.validate_seed(seed)?;
    let cfg = PushPlusConfig {
        hop_cap: params.hop_cap(),
        eps_abs: params.eps_abs(),
        budget: params.push_budget(),
    };
    let clock = Instant::now();
    let full_push = PUSH_TIER_DIVISORS.len() as u32;
    hk_push_plus_begin(graph, seed, &cfg, ws);
    let push_tiers_completed =
        match hk_push_plus_step(graph, params.poisson(), &cfg, &mut controls, ws)? {
            // Natural termination — including a budget stop — is the
            // final tier: the walk phase compensates whatever residues
            // remain, exactly as Algorithm 5 specifies.
            PushStepOutcome::Complete => full_push,
            PushStepOutcome::Paused { tiers_certified } => tiers_certified,
            // Nothing usable: the reserve certifies no tier.
            PushStepOutcome::Cancelled { tiers_certified: 0 } => return Err(HkprError::Cancelled),
            PushStepOutcome::Cancelled { tiers_certified } => tiers_certified,
        };
    let push = hk_push_plus_finalize(&cfg, ws);
    let push_done = Instant::now();
    let push_ns = (push_done - clock).as_nanos() as u64;
    let mut stats = QueryStats {
        push_operations: push.push_operations,
        early_exit: push.satisfied_condition_11 && opts.early_exit,
        ..QueryStats::default()
    };

    let achieved = AccuracyTier {
        push_tiers_completed,
        push_tiers_planned: full_push,
        ..AccuracyTier::complete_without_walks(params.eps_r())
    };

    // Line 7: condition (11) held — the reserve is already good enough.
    // Only naturally-finished pushes can claim it (see finalize), so the
    // push ladder is complete here by construction.
    if stats.early_exit {
        return Ok(Front::Done(AnytimeOutput {
            estimate: assemble(ws, 0.0, None, push_ns, push_done),
            stats,
            achieved,
        }));
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
    stats.alpha = alpha;
    let nr = (alpha * params.omega_tea_plus()).ceil() as u64;
    if alpha > 0.0 && !ws.entries.is_empty() && nr > 0 {
        // A degenerate weight vector fails *before* the master-seed draw.
        let table = AliasTable::try_new(&ws.weights)?;
        return Ok(Front::Walk(WalkPhase {
            alpha,
            nr,
            master_seed: rng.next_u64(),
            stats,
            push_ns,
            table,
            achieved,
            push_done,
        }));
    }

    // No walk phase: the reserve alone is the answer.
    Ok(Front::Done(AnytimeOutput {
        estimate: assemble(ws, 0.0, opts.offset_coeff(params), push_ns, push_done),
        stats,
        achieved,
    }))
}

/// The back half: lines 12-17 as a ladder of walk tiers on the resumable
/// walk engine, then assembly. `walk_tier_cap` and the workspace's cancel
/// token stop refinement at a tier / chunk boundary; the walks deposited
/// by then are renormalized (`mass = alpha / walks_done`, unbiased).
fn walk_and_assemble(
    graph: &Graph,
    params: &HkprParams,
    opts: TeaPlusOptions,
    phase: WalkPhase,
    walk_tier_cap: Option<u32>,
    ws: &mut QueryWorkspace,
) -> AnytimeOutput {
    let WalkPhase {
        alpha,
        nr,
        master_seed,
        mut stats,
        push_ns,
        table,
        mut achieved,
        push_done,
    } = phase;
    achieved.walks_planned = nr;
    let mut mass = 0.0;
    let cancel = ws.cancel_token().cloned();
    let planned = plan_batched_walks(
        graph,
        &ws.entries,
        &table,
        nr,
        master_seed,
        cancel.as_ref(),
        &mut ws.counts,
        &mut ws.walk_scratch,
    );
    if !planned {
        // Cancelled while sampling walk starts: the plan's chunk
        // decomposition was never built, so only the nominal ladder depth
        // is known. The reserve-only estimate below is still sound (mass
        // stays 0.0).
        achieved.tiers_planned = tier_targets(nr).len() as u32;
        achieved.eps_r_achieved = f64::INFINITY;
    } else {
        let (cursor, tiers_completed, tiers_planned) =
            climb_walk_ladder(ws, nr, walk_tier_cap, |ws, bound, cursor| {
                run_planned_walks(
                    graph,
                    params.poisson(),
                    &ws.entries,
                    master_seed,
                    cancel.as_ref(),
                    bound,
                    cursor,
                    &mut ws.counts,
                    &mut ws.walk_scratch,
                )
            });
        achieved.tiers_completed = tiers_completed;
        achieved.tiers_planned = tiers_planned;
        achieved.walks_done = cursor.walks_done;
        achieved.eps_r_achieved = achieved_eps_r(params.eps_r(), nr, cursor.walks_done);
        if cursor.walks_done > 0 {
            mass = alpha / cursor.walks_done as f64;
            stats.random_walks = cursor.walks_done;
            stats.walk_steps = cursor.steps;
        }
    }

    if achieved.walks_done == 0 && achieved.push_tiers_completed < achieved.push_tiers_planned {
        // Reserve-only answer off a cut-short push: the tightest
        // certified divisor is the surviving guarantee — the reserve is a
        // `(d, D * eps_r, delta)`-approximation by Theorem 2 at the
        // coarsened threshold, which beats the infinite bound the walk
        // shortfall alone would advertise.
        achieved.eps_r_achieved = PUSH_TIER_DIVISORS[(achieved.push_tiers_completed - 1) as usize]
            as f64
            * params.eps_r();
    }

    AnytimeOutput {
        estimate: assemble(ws, mass, opts.offset_coeff(params), push_ns, push_done),
        stats,
        achieved,
    }
}

/// TEA+ with **both** phases executed as ladders of accuracy tiers — the
/// one implementation behind every TEA+ entry point. The push runs
/// through the resumable certificate checkpoints of
/// [`hk_push_plus_step`], the walks through the resumable walk engine
/// (see [`crate::anytime`]).
///
/// Semantics:
///
/// * run to completion (or condition-(11) early exit), the answer is the
///   published Algorithm 5 and `achieved.is_degraded()` is false;
/// * a cancellation fired during the *push* stops refinement at the next
///   probe or hop boundary. If the stop state certifies at least one
///   coarsened condition-(11) tier, the query keeps going — finalize,
///   residue reduction on the stop state, then the walk phase on whatever
///   deadline remains — and returns a degraded answer with
///   `push_tiers_completed < push_tiers_planned` (it is not the canonical
///   answer and must never be cached, even when the walk phase then
///   completes). With zero certified tiers the reserve bounds nothing:
///   [`HkprError::Cancelled`];
/// * a cancellation during the *walk* phase stops refinement at the next
///   chunk boundary; the deposited walks are renormalized
///   (`mass = alpha/walks_done`, unbiased). With zero walks deposited
///   the reserve alone is returned, and `eps_r_achieved` reports the
///   coarsest surviving guarantee: `D * eps_r` for the tightest
///   certified push divisor `D` (Theorem 2 at the coarsened threshold),
///   or infinity when the push completed uncertified (its reserve alone
///   bounds nothing — the missing mass sat in the residues);
/// * `controls.push_tier_cap` / `controls.walk_tier_cap` stop the
///   respective ladder deterministically after that many tiers — a
///   reproducible degraded run for tests and benches;
/// * `controls.on_push_tier` observes every certified push tier and may
///   cancel refinement at a hop boundary (serving deadline probes and
///   failpoints).
pub fn tea_plus_anytime_in<R: Rng>(
    graph: &Graph,
    params: &HkprParams,
    seed: NodeId,
    opts: TeaPlusOptions,
    controls: AnytimeControls<'_>,
    rng: &mut R,
    ws: &mut QueryWorkspace,
) -> Result<AnytimeOutput, HkprError> {
    let walk_tier_cap = controls.walk_tier_cap;
    Ok(
        match push_and_reduce(graph, params, seed, opts, controls, rng, ws)? {
            Front::Done(out) => out,
            Front::Walk(phase) => walk_and_assemble(graph, params, opts, phase, walk_tier_cap, ws),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::exact_hkpr;
    use hk_graph::builder::graph_from_edges;
    use hk_graph::gen::{erdos_renyi_gnm, holme_kim};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
        let out = tea_plus(&g, &params, 0, &mut rng).unwrap();
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
        let plus = tea_plus(&g, &params, 0, &mut rng).unwrap();
        let plain = crate::tea::tea(&g, &params, 0, None, &mut rng).unwrap();
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
        let out = tea_plus(&g, &params, 7, &mut rng).unwrap();
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
        let out = tea_plus(&g, &params, 0, &mut rng).unwrap();
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
        let with = tea_plus_with_options(&g, &params, 0, opts_on, &mut rng).unwrap();
        let without = tea_plus_with_options(&g, &params, 0, opts_off, &mut rng).unwrap();
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
        let default = tea_plus(&g, &params, 0, &mut rng).unwrap();
        assert!(default.stats.early_exit);
        let forced = tea_plus_with_options(
            &g,
            &params,
            0,
            TeaPlusOptions {
                early_exit: false,
                ..TeaPlusOptions::default()
            },
            &mut rng,
        )
        .unwrap();
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
        let no_offset = tea_plus_with_options(
            &g,
            &params,
            0,
            TeaPlusOptions {
                offset: false,
                early_exit: false,
                ..TeaPlusOptions::default()
            },
            &mut rng,
        )
        .unwrap();
        assert_eq!(no_offset.estimate.offset_coeff(), 0.0);
        let with_offset = tea_plus_with_options(
            &g,
            &params,
            0,
            TeaPlusOptions {
                early_exit: false,
                ..TeaPlusOptions::default()
            },
            &mut rng,
        )
        .unwrap();
        assert!((with_offset.estimate.offset_coeff() - params.eps_abs() / 2.0).abs() < 1e-15);
    }

    #[test]
    fn seed_validation() {
        let g = example_graph();
        let params = HkprParams::builder(&g).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        assert!(matches!(
            tea_plus(&g, &params, 1000, &mut rng),
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
        let a = tea_plus(&g, &params, 0, &mut SmallRng::seed_from_u64(14)).unwrap();
        let b = tea_plus(&g, &params, 0, &mut SmallRng::seed_from_u64(14)).unwrap();
        assert_eq!(a.stats, b.stats);
        for v in 0..8u32 {
            assert_eq!(a.estimate.raw(v), b.estimate.raw(v));
        }
    }
}
