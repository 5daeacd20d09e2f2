//! Anytime (tiered) query execution: accuracy as a schedulable resource.
//!
//! The estimators' error bounds shrink predictably with walk count
//! (Chernoff over independent walks — the same analysis behind the
//! published `nr`), so a partially-finished walk phase is a *weaker
//! estimate*, not garbage. This module gives that observation an API:
//!
//! * a query plans a **ladder of accuracy tiers** — geometrically growing
//!   walk-count targets snapped to the walk engine's chunk boundaries
//!   (see `plan_tier_bounds`) — and runs the plan's chunks up to the
//!   last tier it may reach in one pass, in plan order;
//! * the tiers are prefixes of that pass: endpoint counts are additive
//!   integer accumulators on chunk-indexed RNG streams, so a pass cut at
//!   any chunk deposits what running the plan up to that chunk would, and
//!   a tier is complete once its prefix ran;
//! * if refinement stops early (cancellation or an explicit tier cap),
//!   the deposited walks are renormalized (`mass = alpha / walks_done`)
//!   and the caller gets that estimate plus an [`AccuracyTier`]
//!   describing how far refinement got.
//!
//! **A walk ladder cut short is biased.** The plan orders its chunks by
//! work item — walk length for Monte-Carlo, residue entry for TEA and
//! TEA+ — so the first tiers run the shortest walks (or the first
//! entries' walks), not a uniform sample of the plan. A cut answer's mass therefore sits
//! too close to its start, and its `eps_r_achieved` is not a certificate:
//! Monte-Carlo cut at walk tier 1–3 misses its own bound in most runs on
//! a 3,000-node Holme–Kim graph. Only an answer whose walk ladder
//! completed (a full-accuracy answer, or one degraded in the push alone)
//! is held to Definition 1 at its `eps_r_achieved`
//! (`tests/definition1.rs`).
//!
//! Every query climbs this ladder: [`estimate_in`](crate::estimate_in),
//! the one driver of TEA, TEA+ and Monte-Carlo, runs its walk phase
//! through it. An all-or-nothing caller takes
//! [`AnytimeOutput::into_complete`]; `hk-serve` keeps the tier, which
//! turns watchdog cancellation into "stop refining" rather than "discard
//! everything".

use crate::driver::TeaOutput;
use crate::estimate::{HkprEstimate, QueryStats};
use crate::walk::WalkCursor;
use crate::workspace::QueryWorkspace;

/// Walk-count divisors of the tier ladder: tier `i` targets
/// `total.div_ceil(TIER_DIVISORS[i])` walks, so each tier roughly
/// quadruples the work (and halves the walk-sampling error) of the
/// previous one, and the last tier is always the full requested count.
pub const TIER_DIVISORS: [u64; 4] = [64, 16, 4, 1];

/// Accuracy divisors of the *push-phase* tier ladder, mirroring
/// [`TIER_DIVISORS`]: push tier `i` is certified when the TEA+
/// condition-(11) sum drops under `PUSH_TIER_DIVISORS[i] * eps_abs` at a
/// hop boundary — i.e. the reserve alone is already a
/// `(d, D * eps_r, delta)`-approximation (Theorem 2 at the coarsened
/// threshold). The final divisor (1) is not a certificate: it stands for
/// the push's natural termination (drained, satisfied, or budget
/// exhausted), after which the walk phase carries the full guarantee.
/// See [`crate::push_plus::hk_push_plus_ws`].
pub const PUSH_TIER_DIVISORS: [u64; 4] = [64, 16, 4, 1];

/// How far an anytime query's refinement got, and what accuracy that
/// buys. Returned alongside every anytime estimate; `hk-serve` surfaces
/// it to clients as `Degraded { achieved, .. }` when refinement was cut
/// short.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccuracyTier {
    /// Ladder tiers fully executed (every planned walk of the tier ran).
    pub tiers_completed: u32,
    /// Ladder tiers planned for this query (0 when the query needed no
    /// walks at all, e.g. a TEA+ condition-(11) early exit).
    pub tiers_planned: u32,
    /// Walks actually executed and deposited into the estimate.
    pub walks_done: u64,
    /// Walks a full-accuracy run would execute (the published/capped
    /// `nr`).
    pub walks_planned: u64,
    /// Push-ladder tiers reached: the number of entries of
    /// [`PUSH_TIER_DIVISORS`] whose coarsened condition-(11) threshold
    /// the push state satisfied, counting natural termination as the
    /// final tier. Equal to `push_tiers_planned` whenever the push ran
    /// to its natural stop (including a budget stop — the walk phase
    /// compensates exactly as Algorithm 5 specifies).
    pub push_tiers_completed: u32,
    /// Push-ladder tiers a full run reaches: `PUSH_TIER_DIVISORS.len()`
    /// for every TEA+ query that enters the push phase, 0 for estimators
    /// without a push ladder (TEA, Monte-Carlo).
    pub push_tiers_planned: u32,
    /// The relative-error parameter the query was asked for.
    pub eps_r_requested: f64,
    /// The relative-error bound the executed walk count would support if
    /// those walks were a uniform sample of the plan, scaled from the
    /// request by the walk-sampling error's `1/sqrt(nr)` law — see
    /// [`achieved_eps_r`]. They are not (a cut ladder keeps the shortest
    /// walks; see the [module docs](self)), so after a walk-ladder cut
    /// this is a nominal figure, not a certificate. Equals
    /// `eps_r_requested` exactly when the walk ladder completed;
    /// `f64::INFINITY` when no walk ran.
    pub eps_r_achieved: f64,
}

impl AccuracyTier {
    /// A tier describing a query that needed no walk phase (early exit or
    /// zero residue mass): complete by construction. Push-tier fields
    /// start at 0/0 (no push ladder: TEA, Monte-Carlo); TEA+ overwrites
    /// them with what its push reached.
    pub fn complete_without_walks(eps_r: f64) -> Self {
        AccuracyTier {
            tiers_completed: 0,
            tiers_planned: 0,
            walks_done: 0,
            walks_planned: 0,
            push_tiers_completed: 0,
            push_tiers_planned: 0,
            eps_r_requested: eps_r,
            eps_r_achieved: eps_r,
        }
    }

    /// Whether refinement stopped short of the full-accuracy plan in
    /// *either* phase. A degraded answer is not the canonical cold
    /// answer for its parameters (even when `eps_r_achieved ==
    /// eps_r_requested`, as after a cancelled push with a complete walk
    /// phase) — serving layers must never cache it.
    pub fn is_degraded(&self) -> bool {
        self.walks_done < self.walks_planned || self.push_tiers_completed < self.push_tiers_planned
    }
}

/// Caller-side controls threaded through one query
/// ([`estimate_in`](crate::estimate_in)): the driver reads
/// `walk_tier_cap`, and TEA+'s push
/// ([`crate::push_plus::hk_push_plus_ws`]) the two push fields — TEA's
/// push and Monte-Carlo have no push ladder. `Default` means "refine
/// both ladders to completion, observe nothing".
#[derive(Default)]
pub struct AnytimeControls<'a> {
    /// Stop the walk ladder after this many walk tiers (deterministic
    /// degradation for tests; `None` = run the full ladder).
    pub walk_tier_cap: Option<u32>,
    /// Stop the push ladder once this many push tiers are certified
    /// (clamped to at least 1): the push is cut at the certifying hop
    /// boundary and the query proceeds to the walk phase as a degraded
    /// answer. `None` = push to natural termination.
    pub push_tier_cap: Option<u32>,
    /// Fired once per newly-certified push tier with the new 1-based
    /// count — at most `PUSH_TIER_DIVISORS.len() - 1` times, since the
    /// final tier is natural termination, not a certificate. Returning
    /// `false` cuts the push at that hop boundary, like `push_tier_cap`.
    /// Serving layers hang failpoints here; deadlines reach the push
    /// through the workspace's cancel token instead.
    pub on_push_tier: Option<&'a mut dyn FnMut(u32) -> bool>,
}

/// An anytime estimator's result: the (possibly degraded) estimate, the
/// usual cost counters, and how far refinement got. An estimate whose
/// walk ladder was cut short is biased toward short walks (see the
/// [module docs](self)).
///
/// When `achieved.is_degraded()` is false, `estimate` and `stats` are the
/// canonical answer for the parameters and RNG state — what the golden
/// fixtures pin and the only thing serving layers may cache.
#[derive(Clone, Debug)]
pub struct AnytimeOutput {
    /// The HKPR estimate assembled from every deposited walk.
    pub estimate: HkprEstimate,
    /// Cost counters. For degraded runs, `random_walks`/`walk_steps`
    /// count the walks that actually executed.
    pub stats: QueryStats,
    /// How far refinement got.
    pub achieved: AccuracyTier,
}

impl AnytimeOutput {
    /// The all-or-nothing view of a query: the estimate and stats of a
    /// run refined to completion, or
    /// [`HkprError::Cancelled`](crate::HkprError::Cancelled) if either
    /// ladder was cut short (a degraded answer is discarded, never
    /// returned as if it were the full-accuracy one).
    pub fn into_complete(self) -> Result<TeaOutput, crate::HkprError> {
        if self.achieved.is_degraded() {
            return Err(crate::HkprError::Cancelled);
        }
        Ok(TeaOutput {
            estimate: self.estimate,
            stats: self.stats,
        })
    }
}

/// One ladder's tier values: at most one per divisor, held inline so
/// planning a ladder allocates nothing.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct TierLadder<T> {
    tiers: [T; TIER_DIVISORS.len()],
    len: usize,
}

impl<T: Copy + PartialEq> TierLadder<T> {
    /// Append `tier` unless it repeats the last one.
    fn push_dedup(&mut self, tier: T) {
        if self.as_slice().last() != Some(&tier) {
            self.tiers[self.len] = tier;
            self.len += 1;
        }
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        &self.tiers[..self.len]
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

/// The deduplicated walk-count targets of the ladder for `total` planned
/// walks (ascending, last entry == `total`; empty iff `total == 0`).
pub(crate) fn tier_targets(total: u64) -> TierLadder<u64> {
    let mut targets = TierLadder::default();
    if total > 0 {
        for d in TIER_DIVISORS {
            targets.push_dedup(total.div_ceil(d));
        }
    }
    targets
}

/// Snap the ladder's walk-count targets to the walk plan's chunk
/// boundaries: returns ascending chunk bounds (each `b` means "execute
/// chunks `[0, b)`"), deduplicated, with the last bound covering every
/// chunk. `chunk_walk_prefix` is the plan's cumulative walk prefix
/// (`prefix[c]` = walks in chunks before `c`; strictly increasing since
/// every chunk holds at least one walk).
fn plan_tier_bounds(total: u64, chunk_walk_prefix: &[u64]) -> TierLadder<usize> {
    let num_chunks = chunk_walk_prefix.len().saturating_sub(1);
    let mut bounds = TierLadder::default();
    if num_chunks > 0 {
        for &target in tier_targets(total).as_slice() {
            // First boundary whose cumulative walk count reaches the
            // target; the final target is the whole plan.
            let b = if target == total {
                num_chunks
            } else {
                chunk_walk_prefix
                    .partition_point(|&w| w < target)
                    .min(num_chunks)
            };
            bounds.push_dedup(b);
        }
    }
    bounds
}

/// Climb the walk ladder of the plan most recently built on `ws` (`total`
/// planned walks) in one pass: `run_through(ws, bound, cursor)` runs the
/// plan's chunks below the last bound the ladder may reach — the one of
/// tier `tier_cap` (clamped to at least 1), or the plan's end — unless the
/// workspace's cancel token stops it short. The chunks that ran are a
/// prefix of the plan, so a tier is complete iff the walks deposited reach
/// its bound's planned prefix. Returns the cursor and `(tiers_completed,
/// tiers_planned)`.
///
/// One pass, not one call per tier: a tier's chunks are too few to keep
/// both executor threads busy (the first tier of a 10–17-chunk plan is a
/// single chunk), and the tiers' bounds would be barriers between them.
pub(crate) fn climb_walk_ladder(
    ws: &mut QueryWorkspace,
    total: u64,
    tier_cap: Option<u32>,
    run_through: impl FnOnce(&mut QueryWorkspace, usize, &mut WalkCursor),
) -> (WalkCursor, u32, u32) {
    let bounds = plan_tier_bounds(total, ws.walk_scratch.chunk_walk_prefix());
    let tiers_planned = bounds.len() as u32;
    let run_tiers = tier_cap.map_or(tiers_planned, |cap| cap.clamp(1, tiers_planned));
    let bounds = &bounds.as_slice()[..run_tiers as usize];
    let mut cursor = WalkCursor::default();
    if let Some(&last) = bounds.last() {
        run_through(ws, last, &mut cursor);
    }
    let prefix = ws.walk_scratch.chunk_walk_prefix();
    let tiers_completed = bounds.partition_point(|&b| prefix[b] <= cursor.walks_done);
    (cursor, tiers_completed as u32, tiers_planned)
}

/// The relative-error bound `walks_done` out of `walks_planned` walks
/// would support as a uniform sample of the plan, scaled from the
/// requested `eps_r` by the `1/sqrt(nr)` walk-sampling law (the Chernoff
/// bound behind the published `nr ∝ 1/eps_r^2` is inverted: running a
/// fraction `f` of the walks supports `eps_r / sqrt(f)`). The walks a
/// cut ladder ran are its shortest ones, not a uniform sample, so for a
/// partial run this is a nominal figure the answer does not meet (see
/// the [module docs](self)).
///
/// Exactly `eps_r` when the plan completed (`sqrt(1.0) == 1.0` and
/// `x * 1.0 == x` bitwise), `f64::INFINITY` when nothing ran.
pub fn achieved_eps_r(eps_r: f64, walks_planned: u64, walks_done: u64) -> f64 {
    if walks_done == 0 && walks_planned > 0 {
        return f64::INFINITY;
    }
    if walks_planned == 0 || walks_done >= walks_planned {
        return eps_r;
    }
    eps_r * ((walks_planned as f64) / (walks_done as f64)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn targets_are_ascending_and_end_at_total() {
        for total in [1u64, 2, 63, 64, 65, 1000, 1 << 40] {
            let ladder = tier_targets(total);
            let t = ladder.as_slice();
            assert_eq!(*t.last().unwrap(), total, "total {total}");
            assert!(t.windows(2).all(|w| w[0] < w[1]), "total {total}: {t:?}");
        }
        assert_eq!(tier_targets(0).len(), 0);
    }

    #[test]
    fn bounds_snap_to_chunks_and_cover_the_plan() {
        // 5 chunks of 100 walks each.
        let prefix = [0u64, 100, 200, 300, 400, 500];
        let bounds = plan_tier_bounds(500, &prefix);
        // Targets 8, 32, 125, 500 -> chunk bounds 1, 1, 2, 5 -> dedup.
        assert_eq!(bounds.as_slice(), [1, 2, 5]);
        assert_eq!(plan_tier_bounds(0, &[0]).len(), 0);
    }

    #[test]
    fn one_pass_ladder_counts_the_bounds_a_cut_reached() {
        // A fixed-walk plan of 17 chunks: 16 full ones and a short tail.
        let mut ws = QueryWorkspace::new();
        let mut lengths = vec![4_096u64; 16];
        lengths.push(1_000);
        crate::walk::plan_batched_fixed_walks(&lengths, &mut ws.walk_scratch);
        let total: u64 = lengths.iter().sum();
        let prefix = ws.walk_scratch.chunk_walk_prefix().to_vec();
        let bounds = plan_tier_bounds(total, &prefix);
        assert_eq!(bounds.as_slice(), [1, 2, 5, 17]);
        // The pass runs once, to the bound of the last tier it may reach,
        // and a cut leaves the prefix [0, c) of that pass: every tier whose
        // bound is at most c is complete, and no other.
        for cap in [None, Some(0), Some(1), Some(2), Some(3), Some(4), Some(9)] {
            let run_tiers = cap.map_or(4, |c: u32| c.clamp(1, 4)) as usize;
            let last = bounds.as_slice()[run_tiers - 1];
            for (c, &deposited) in prefix[..=last].iter().enumerate() {
                let mut calls = 0;
                let (cursor, completed, planned) =
                    climb_walk_ladder(&mut ws, total, cap, |_, bound, cursor| {
                        calls += 1;
                        assert_eq!(bound, last, "cap {cap:?}");
                        cursor.walks_done = deposited;
                    });
                assert_eq!(calls, 1);
                assert_eq!(planned, 4);
                assert_eq!(cursor.walks_done, deposited);
                let reached = bounds.as_slice()[..run_tiers]
                    .iter()
                    .filter(|&&b| b <= c)
                    .count();
                assert_eq!(completed as usize, reached, "cap {cap:?}, cut at {c}");
            }
        }
    }

    #[test]
    fn achieved_eps_tightens_monotonically_and_is_exact_at_completion() {
        let eps = 0.5f64;
        let planned = 10_000u64;
        let mut prev = f64::INFINITY;
        for done in [0u64, 1, 156, 625, 2500, 9999, 10_000] {
            let a = achieved_eps_r(eps, planned, done);
            assert!(a <= prev, "done {done}: {a} > {prev}");
            prev = a;
        }
        // Bitwise exactness at completion: no sqrt/multiply residue.
        assert_eq!(
            achieved_eps_r(eps, planned, planned).to_bits(),
            eps.to_bits()
        );
        assert_eq!(achieved_eps_r(eps, 0, 0).to_bits(), eps.to_bits());
        assert!(achieved_eps_r(eps, planned, 0).is_infinite());
    }

    #[test]
    fn degraded_flag_tracks_walk_completion() {
        let mut tier = AccuracyTier::complete_without_walks(0.5);
        assert!(!tier.is_degraded());
        tier.walks_planned = 100;
        tier.walks_done = 40;
        assert!(tier.is_degraded());
        tier.walks_done = 100;
        assert!(!tier.is_degraded());
    }

    #[test]
    fn degraded_flag_tracks_push_completion_independently() {
        // A cancelled push with a complete walk phase is still degraded
        // (non-canonical answer, must not be cached) even though the
        // statistical guarantee is intact.
        let full = PUSH_TIER_DIVISORS.len() as u32;
        let mut tier = AccuracyTier {
            push_tiers_completed: full,
            push_tiers_planned: full,
            ..AccuracyTier::complete_without_walks(0.5)
        };
        assert!(!tier.is_degraded());
        tier.walks_planned = 100;
        tier.walks_done = 100;
        tier.push_tiers_completed = 2;
        assert!(tier.is_degraded());
        tier.push_tiers_completed = tier.push_tiers_planned;
        assert!(!tier.is_degraded());
    }

    #[test]
    fn push_ladder_mirrors_walk_ladder_shape() {
        assert_eq!(PUSH_TIER_DIVISORS, TIER_DIVISORS);
        assert!(PUSH_TIER_DIVISORS.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(*PUSH_TIER_DIVISORS.last().unwrap(), 1);
    }
}
