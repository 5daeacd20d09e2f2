//! `HK-Push+` (Algorithm 4): the budgeted push phase of TEA+.
//!
//! Three changes relative to `HK-Push` (§5.1):
//!
//! 1. the push threshold is derived from the accuracy target —
//!    `r^(k)[v] > (eps_r * delta / K) * d(v)` — instead of an ad-hoc
//!    `rmax`;
//! 2. the hop index is capped at an input `K`; hop-`K` residues are never
//!    pushed (they are handed to the random-walk phase);
//! 3. two extra termination conditions: a push budget `np`, and the
//!    early-exit test of Theorem 2,
//!    `sum_k max_v r^(k)[v]/d(v) <= eps_r * delta`  (condition 11),
//!    under which the reserve alone is already a
//!    `(d, eps_r, delta)`-approximate HKPR vector and no walks are needed.
//!
//! ## Early-exit bookkeeping
//!
//! Evaluating condition (11) exactly at every iteration costs O(K) per
//! push. Instead we keep a per-hop *monotone max hint* that only grows
//! (updated on residue increases, left stale when a residue is zeroed by a
//! push), so the hint sum never underestimates the true sum — an exit
//! decision based on the *exact* recomputation is taken only when (a) the
//! worklists drain, (b) the budget expires, or (c) every `CHECK_INTERVAL`
//! processed nodes when the hint sum is under the threshold. The exact
//! check preserves Theorem 2; the hint only schedules it.
//!
//! ## The certificate ladder
//!
//! [`hk_push_plus_ws`] is the one dense `HK-Push+`: a single call runs
//! the hop loop to its stop, with the loop state in locals. At each
//! drained-hop boundary the incremental condition-(11) sum is compared
//! (pure reads) against the coarsened thresholds `D * eps_abs` for the
//! non-final divisors of [`PUSH_TIER_DIVISORS`]; each newly satisfied
//! threshold *certifies* a push accuracy tier (Theorem 2 at `eps_r' = D *
//! eps_r`: the reserve alone is already a `(d, D * eps_r,
//! delta)`-approximation). The final tier is natural termination itself
//! — drained, satisfied, or budget exhausted, all of which the
//! downstream walk phase compensates exactly as Algorithm 5 already
//! specifies for the budget stop. Anything else cuts the push short: the
//! cancel token (at a hop boundary or a probe), the tier hook, or
//! `push_tier_cap`.
//!
//! ## The hop drain
//!
//! One hop level is drained by `drain_hop`, the only push loop over the
//! dense workspace: HK-Push+ calls it with its budget and probe, TEA's
//! `HK-Push` ([`crate::push::hk_push_ws`]) without. While hop `k` drains,
//! pushes only append to hop `k + 1`'s worklist, so hop `k`'s worklist is
//! known in full and the loop is software-pipelined over it: a few
//! entries ahead of the one being processed it prefetches that entry's
//! CSR offsets, then the head of its adjacency row, then the index slot
//! of each of its neighbours, so the dependent random reads of one entry
//! overlap the arithmetic of the entries before it. The entry's own
//! residue needs no prefetch: the worklist carries its record position,
//! and the drain reads and zeroes it there without an index lookup. Nor
//! does the drain touch the reserve: it overwrites each entry it
//! processes with the mass that entry settles, and the workspace folds
//! that log into the reserve when the push ends
//! (`QueryWorkspace::fold_settled`), so the workspace's one node index
//! serves hop `k + 1` alone. Prefetches are hints: schedule and
//! arithmetic are those of the hash-map references, bit for bit.

use hk_graph::{Graph, NodeId};

use crate::anytime::{AnytimeControls, PUSH_TIER_DIVISORS};
use crate::cancel::CancelToken;
use crate::fxhash::FxHashMap;
use crate::poisson::PoissonTable;
use crate::sparse::ResidueTable;
use crate::workspace::{settled, EpochVec};

/// Inputs of `HK-Push+` beyond the graph/seed (Algorithm 4's parameter
/// list: `eps_r`, `delta`, `K`, `np`).
#[derive(Clone, Copy, Debug)]
pub struct PushPlusConfig {
    /// Maximum hop index `K`; pushes run on hops `0..K` only.
    pub hop_cap: usize,
    /// Absolute-error budget `eps_a = eps_r * delta` for condition (11).
    pub eps_abs: f64,
    /// Push-operation budget `np` (one unit per edge traversed).
    pub budget: u64,
}

/// Output of [`hk_push_plus`].
#[derive(Clone, Debug)]
pub struct PushPlusOutput {
    /// Reserve vector `q_s`.
    pub reserve: FxHashMap<NodeId, f64>,
    /// Residue vectors `r^(0)..r^(K)`.
    pub residues: ResidueTable,
    /// Push operations performed (`i` in Algorithm 4).
    pub push_operations: u64,
    /// Whether condition (11) held on exit — if so the reserve already is
    /// a `(d, eps_r, delta)`-approximation and walks can be skipped.
    pub satisfied_condition_11: bool,
}

/// How often (in processed nodes) a push drain polls its cancel token
/// and, in `HK-Push+`, recomputes the exact condition-(11) sum while the
/// hint sum sits below the threshold.
pub(crate) const CHECK_INTERVAL: u64 = 8192;

/// Run `HK-Push+` from `seed`.
pub fn hk_push_plus(
    graph: &Graph,
    poisson: &PoissonTable,
    seed: NodeId,
    cfg: &PushPlusConfig,
) -> PushPlusOutput {
    assert!(cfg.hop_cap >= 1, "hop cap K must be at least 1");
    assert!(cfg.eps_abs > 0.0, "eps_abs must be positive");
    assert!((seed as usize) < graph.num_nodes(), "seed out of range");

    let k_cap = cfg.hop_cap;
    // Per-node threshold coefficient: eps_r * delta / K.
    let thr_coeff = cfg.eps_abs / k_cap as f64;

    let mut residues = ResidueTable::new(k_cap + 1);
    residues.add(0, seed, 1.0);
    let mut reserve: FxHashMap<NodeId, f64> = FxHashMap::default();
    let mut push_operations = 0u64;
    let mut processed = 0u64;

    // Monotone per-hop max hints for r/d (never shrink => never
    // underestimate the true per-hop max).
    let mut max_hint = vec![0.0f64; k_cap + 1];
    max_hint[0] = 1.0 / graph.degree_nz(seed) as f64;

    let mut queues: Vec<Vec<NodeId>> = vec![Vec::new(); k_cap];
    queues[0].push(seed);

    let exact_condition_sum = |residues: &ResidueTable| -> f64 {
        let mut per_hop = vec![0.0f64; k_cap + 1];
        for (k, v, r) in residues.entries() {
            let d = graph.degree_nz(v) as f64;
            let norm = r / d;
            if norm > per_hop[k] {
                per_hop[k] = norm;
            }
        }
        per_hop.iter().sum()
    };

    let mut satisfied = false;
    'outer: for k in 0..k_cap {
        while let Some(v) = queues[k].pop() {
            let d = graph.degree(v);
            let r = residues.get(k, v);
            if r <= thr_coeff * d as f64 {
                continue; // stale entry
            }

            // Budget check (Algorithm 4 line 6, first disjunct) before the
            // work is spent.
            if push_operations + d as u64 > cfg.budget {
                break 'outer;
            }

            processed += 1;
            residues.take(k, v);
            if d == 0 {
                *reserve.entry(v).or_insert(0.0) += r;
                continue;
            }
            let stop = poisson.stop_prob(k);
            *reserve.entry(v).or_insert(0.0) += stop * r;
            let share = (1.0 - stop) * r / d as f64;
            push_operations += d as u64;
            for &u in graph.neighbors(v) {
                let du = graph.degree_nz(u) as f64;
                let (old, new) = residues.add(k + 1, u, share);
                let norm = new / du;
                if norm > max_hint[k + 1] {
                    max_hint[k + 1] = norm;
                }
                if k + 1 < k_cap {
                    let thr = thr_coeff * du;
                    if old <= thr && new > thr {
                        queues[k + 1].push(u);
                    }
                }
            }

            // Periodic early-exit probe (second disjunct of line 6): only
            // pay the exact O(nnz) scan when the cheap hint says it could
            // pass.
            if processed.is_multiple_of(CHECK_INTERVAL) {
                let hint_sum: f64 = max_hint.iter().sum();
                if hint_sum <= cfg.eps_abs && exact_condition_sum(&residues) <= cfg.eps_abs {
                    satisfied = true;
                    break 'outer;
                }
            }
        }
    }

    if !satisfied {
        satisfied = exact_condition_sum(&residues) <= cfg.eps_abs;
    }

    PushPlusOutput {
        reserve,
        residues,
        push_operations,
        satisfied_condition_11: satisfied,
    }
}

/// Cost counters of the dense `HK-Push+` path (reserve/residues live in
/// the workspace).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PushPlusWsStats {
    /// Push operations performed.
    pub push_operations: u64,
    /// Whether condition (11) held on exit. A push cut short never
    /// claims it, even when its stop state satisfies the threshold: its
    /// reserve is not the cold run's, and serving layers cache only
    /// full-accuracy answers.
    pub satisfied_condition_11: bool,
    /// Push tiers reached: `PUSH_TIER_DIVISORS.len()` when the push ended
    /// naturally (drained, satisfied or out of budget); for a push cut
    /// short, how many coarsened condition-(11) thresholds `D * eps_abs`
    /// (non-final divisors of [`PUSH_TIER_DIVISORS`]) its stop state
    /// satisfies — possibly fewer than were certified at an earlier hop
    /// boundary (the frontier max can grow mid-hop), and possibly 0
    /// (nothing usable).
    pub tiers_completed: u32,
}

/// Lookahead distances of `drain_hop`'s pipeline, in worklist entries
/// ahead of the one being processed. Each stage consumes what the stage
/// before it fetched: the CSR offsets first, then the adjacency row those
/// offsets locate, then the next-hop slots that row names.
const AHEAD_NODE: usize = 12;
const AHEAD_ROW: usize = 7;
const AHEAD_NEIGHBOURS: usize = 2;

/// Push operations and node-processing iterations of a push phase,
/// accumulated over its hop drains.
#[derive(Debug, Default)]
pub(crate) struct DrainCounters {
    /// Push operations (`d(v)` per processed node).
    pub(crate) push_operations: u64,
    /// Processed nodes.
    pub(crate) processed: u64,
}

/// One hop level's drain, as its caller specifies it.
pub(crate) struct HopDrain<'a> {
    /// The hop level to drain.
    pub(crate) k: usize,
    /// `eta(k) / psi(k)`: the share of a pushed residue that settles.
    pub(crate) stop: f64,
    /// A node is pushed while `r^(k)[v] > thr_coeff * d(v)`.
    pub(crate) thr_coeff: f64,
    /// Whether hop `k + 1` will itself be drained, i.e. whether threshold
    /// crossings there are worth a worklist entry (false at a hop cap).
    pub(crate) enqueue: bool,
    /// Polled every `CHECK_INTERVAL` processed nodes: pure control flow,
    /// so a never-fired token changes nothing, and cancel latency on a
    /// huge hop is bounded by `CHECK_INTERVAL` processed nodes instead of
    /// the hop.
    pub(crate) cancel: Option<&'a CancelToken>,
    /// `HK-Push+`'s additions; `None` drains as Algorithm 1 does.
    pub(crate) plus: Option<PlusDrain>,
}

/// What `HK-Push+` adds to a hop drain: the push budget, and every
/// `CHECK_INTERVAL` processed nodes the condition-(11) probe (which keeps
/// `hop_max_hint` current).
pub(crate) struct PlusDrain {
    /// Condition (11)'s right-hand side.
    pub(crate) eps_abs: f64,
    /// Push-operation budget `np`.
    pub(crate) budget: u64,
    /// Condition-(11) sum over the hops already frozen.
    pub(crate) frozen_sum: f64,
}

/// Why one hop level's drain stopped.
pub(crate) enum HopOutcome {
    /// The worklist emptied; the hop is frozen (see
    /// `DenseResidues::freeze`) and `max` is the
    /// exact `max_v r^(k)[v] / d(v)` over its survivors.
    Drained { max: f64 },
    /// A probe found condition (11) satisfied.
    Satisfied,
    /// The next push would exceed the budget.
    Budget,
    /// The cancel token fired at a poll.
    Cancelled,
}

/// Drain hop `k`'s worklist: the loop of Algorithm 1 / Algorithm 4 over
/// the dense workspace, for one hop level. See the module docs for the
/// pipeline. The two algorithms' reference transcriptions
/// ([`crate::push::hk_push`], [`hk_push_plus`]) differ in two places that
/// show in output bits, and the drain follows whichever it serves:
///
/// * hop sums — Algorithm 1's table moves them per residue added or
///   taken, Algorithm 4's kernel per processed node (`r` out, `(1 -
///   stop) r` in). Different association, different low bits, and both
///   feed walk counts (`alpha`, `beta_k`);
/// * a residue that settles whole (`stop = 1` beyond the Poisson table)
///   is not spread and not charged push operations by Algorithm 1, and
///   is both (as zeros) by Algorithm 4, whose budget counts them.
pub(crate) fn drain_hop(
    graph: &Graph,
    drain: &HopDrain<'_>,
    counters: &mut DrainCounters,
    ws: &mut crate::workspace::QueryWorkspace,
) -> HopOutcome {
    let HopDrain {
        k,
        stop,
        thr_coeff,
        enqueue,
        cancel,
        ref plus,
    } = *drain;
    if enqueue && ws.queues.len() < k + 2 {
        ws.queues.resize_with(k + 2, Vec::new);
    }
    // Hoisted split borrows: current hop, next hop, the index, the two
    // worklists and the hint row are each resolved once per hop level
    // instead of once per touched neighbor.
    let (cur, next, hop_sums) = ws.residues.drain_parts(k);
    // The index leaves hop k, which the drain below filled, for hop k+1.
    let index = ws.reserve.lend_index();
    index.discard(cur.len());
    let (cur_queues, next_queues) = ws.queues.split_at_mut(k + 1);
    let queue = &mut cur_queues[k];
    let mut next_queue = next_queues.first_mut().filter(|_| enqueue);
    let hint = &mut ws.hop_max_hint;
    let per_entry_sums = plus.is_none();
    // Algorithm 1: the two hop sums themselves. Algorithm 4: what left
    // hop k and what entered hop k+1, flushed on exit.
    let mut cur_sum = hop_sums[k];
    let mut next_sum = hop_sums[k + 1];
    let mut sum_removed = 0.0f64;
    let mut sum_added = 0.0f64;

    // LIFO, like the references' `pop`; `i` is the entry being processed,
    // and `queue[log..]` the log of what the processed entries settled,
    // written over entries already visited.
    let mut i = queue.len();
    let mut log = queue.len();
    let outcome = loop {
        if i == 0 {
            break None;
        }
        i -= 1;
        // `i - AHEAD` wraps below zero near the bottom of the list, and
        // `get` then declines.
        if let Some(&(ahead, _, _)) = queue.get(i.wrapping_sub(AHEAD_NODE)) {
            graph.prefetch_node(ahead);
        }
        if let Some(&(ahead, _, _)) = queue.get(i.wrapping_sub(AHEAD_ROW)) {
            graph.prefetch_neighbor_row(graph.neighbor_row(ahead).0);
        }
        if let Some(&(ahead, _, _)) = queue.get(i.wrapping_sub(AHEAD_NEIGHBOURS)) {
            for &u in graph.neighbors(ahead) {
                index.prefetch(u);
            }
        }

        let (v, d32, at) = queue[i];
        let d = d32 as usize;
        let r = cur.get_at(v, at);
        if r <= thr_coeff * d as f64 {
            continue; // stale entry
        }
        if let Some(plus) = plus {
            // Algorithm 4 line 6, first disjunct, before the work is
            // spent.
            if counters.push_operations + d as u64 > plus.budget {
                break Some(HopOutcome::Budget);
            }
        }

        counters.processed += 1;
        cur.clear_at(at);
        if per_entry_sums {
            cur_sum -= r;
        } else {
            sum_removed += r;
        }
        log -= 1;
        if d == 0 {
            queue[log] = settled(v, r);
            continue;
        }
        queue[log] = settled(v, stop * r);
        let remain = (1.0 - stop) * r;
        if per_entry_sums && remain <= 0.0 {
            continue;
        }
        let share = remain / d as f64;
        sum_added += remain;
        counters.push_operations += d as u64;
        for &u in graph.neighbors(v) {
            let (old, new, du32, at) =
                next.add_memo_deg(index, u, share, || graph.degree_nz(u) as u32);
            if per_entry_sums {
                next_sum += share;
            }
            if let Some(q) = next_queue.as_deref_mut() {
                let thr = thr_coeff * du32 as f64;
                if old <= thr && new > thr {
                    q.push((u, du32, at));
                }
            }
        }

        if counters.processed.is_multiple_of(CHECK_INTERVAL) {
            if let Some(polled) = poll(cancel, plus.as_ref(), k, cur, next, hint) {
                break Some(polled);
            }
        }
    };
    // Keep the log alone, at the front, for the fold. Under it lie the
    // stale entries and, after a stop, the unprocessed ones: usually
    // nothing.
    queue.drain(..log);
    debug_assert_eq!(ws.drained, k, "hops drain in order, once");
    ws.drained = k + 1;

    if per_entry_sums {
        hop_sums[k] = cur_sum;
        hop_sums[k + 1] = next_sum;
    } else {
        hop_sums[k] -= sum_removed;
        hop_sums[k + 1] += sum_added;
    }
    // Hop k+1 has stopped receiving mass: one scan of it finds its exact
    // running max (same bitwise value the reference's per-traversal hint
    // holds at this point; it goes stale-high in both implementations
    // once hop k+1 starts being consumed) and, when hop k drained and
    // hop k+1 will be, sets hop k+1's survivors aside.
    let (outcome, next_max) = match outcome {
        None => {
            let max = ws.residues.freeze(k);
            let next_max = if enqueue {
                ws.residues.sift(k + 1, thr_coeff)
            } else {
                live_hop_max(ws, k + 1)
            };
            (HopOutcome::Drained { max }, next_max)
        }
        Some(cut_short) => (cut_short, live_hop_max(ws, k + 1)),
    };
    if plus.is_some() {
        ws.hop_max_hint[k + 1] = next_max;
    }
    outcome
}

/// The drain's poll, every `CHECK_INTERVAL` processed nodes: the cancel
/// token, then `HK-Push+`'s condition-(11) probe. Kept out of line: with
/// this code in the drain loop, `HK-Push+` ran ≈2% slower (same-process
/// A/B on a 2-vCPU x86-64 guest, `holme_kim(10^6, 3, 0.3)` at t = 5,
/// delta = 2e-5).
#[cold]
#[inline(never)]
fn poll(
    cancel: Option<&CancelToken>,
    plus: Option<&PlusDrain>,
    k: usize,
    cur: &EpochVec,
    next: &EpochVec,
    hint: &mut [f64],
) -> Option<HopOutcome> {
    if cancel.is_some_and(|c| c.is_cancelled()) {
        return Some(HopOutcome::Cancelled);
    }
    let plus = plus?;
    // The reference maintains max_hint[k+1] per traversal; hop k+1 only
    // ever receives positive additions while hop k drains, so each node's
    // running quotient is maximized by its current value and the running
    // max equals a scan of the current values — the same f64 bit for bit
    // (max of the same quotient multiset, fold order irrelevant).
    // Recomputing it here, at the rare probe, moves the r/d division out
    // of the per-traversal hot loop entirely.
    hint[k + 1] = next.max_value_over_deg();
    let hint_sum: f64 = hint.iter().sum();
    if hint_sum <= plus.eps_abs {
        // Incremental exact evaluation: frozen hops + one scan of the
        // current hop + the (exact) running max of hop k+1; hops beyond
        // k+1 hold no mass yet.
        let exact = plus.frozen_sum + cur.max_value_over_deg() + hint[k + 1];
        if exact <= plus.eps_abs {
            return Some(HopOutcome::Satisfied);
        }
    }
    None
}

/// `max_v r^(k)[v] / d(v)` by a scan of hop `k`'s live array (0 when hop
/// `k` is not live).
fn live_hop_max(ws: &crate::workspace::QueryWorkspace, k: usize) -> f64 {
    ws.residues
        .live_hop(k)
        .map_or(0.0, |hop| hop.max_value_over_deg())
}

/// The exact condition-(11) sum of a stop state: the frozen prefix of
/// the drained hops, a scan of hop `k` (the first hop that did not drain;
/// `K` when every hop below the cap drained) and the exact running max of
/// hop `k + 1`. At a hop boundary hop `k + 1` holds nothing yet, so the
/// sum is bit for bit the boundary's certification sum. Pure reads of
/// already-maintained values.
fn stop_state_sum(frozen_sum: f64, k: usize, ws: &crate::workspace::QueryWorkspace) -> f64 {
    frozen_sum + live_hop_max(ws, k) + ws.hop_max_hint.get(k + 1).copied().unwrap_or(0.0)
}

/// How a dense `HK-Push+` run ended.
enum PushEnd {
    /// A probe found condition (11) satisfied.
    Satisfied,
    /// The worklists drained or the budget ran out: condition (11) is
    /// decided on the stop state.
    Stopped,
    /// Cut short by the cancel token, the tier hook or `push_tier_cap`.
    Cut,
}

/// `HK-Push+` over the dense indexed workspace, run in one call to its
/// stop (see the module docs for the certificate ladder).
///
/// Same schedule, same arithmetic and same early-exit decisions as
/// [`hk_push_plus`] (asserted bit-for-bit by `tests/equivalence.rs`), with
/// two structural upgrades:
///
/// * the hash maps become `ws.reserve` / `ws.residues` (O(1) logical
///   clear, no per-query allocation);
/// * the exact condition-(11) sum is **incremental**: hops are processed
///   in order, so once hop `j`'s worklist drains, its surviving residues
///   never change again — their max is computed once and *frozen*. While
///   hop `k` runs, hop `k + 1` only receives positive additions, so the
///   reference's per-traversal running max equals a scan of the current
///   hop-(k+1) values bit for bit — which lets this implementation drop
///   the per-traversal `r/d` division + compare from the hot loop and
///   recompute the hop-(k+1) max only at the rare probe points and hop
///   boundaries, in `O(live entries)`. An exact evaluation costs one scan
///   of the current hop plus that value instead of the reference's
///   `O(total nnz)` full-table rescan, while producing a bit-identical
///   sum (identical per-hop maxima folded in identical hop order).
///
/// `controls` reads the two push fields: `on_push_tier` hears of every
/// certified tier and cuts the push by returning `false`, and
/// `push_tier_cap` cuts it at the hop boundary that certifies that many
/// tiers. The workspace's cancel token cuts it at the next hop boundary
/// or probe. A cut push reports the tiers its stop state certifies
/// ([`PushPlusWsStats::tiers_completed`]) and never claims condition
/// (11); an uncut run is bit-identical with or without controls and
/// token. Either way the published [`residue_bounds`] stay conservative
/// upper bounds, so TEA+'s residue-reduction skip remains sound on the
/// stop state.
///
/// [`residue_bounds`]: crate::workspace::QueryWorkspace::residue_bounds
pub fn hk_push_plus_ws(
    graph: &Graph,
    poisson: &PoissonTable,
    seed: NodeId,
    cfg: &PushPlusConfig,
    controls: &mut AnytimeControls<'_>,
    ws: &mut crate::workspace::QueryWorkspace,
) -> PushPlusWsStats {
    assert!(cfg.hop_cap >= 1, "hop cap K must be at least 1");
    assert!(cfg.eps_abs > 0.0, "eps_abs must be positive");

    let k_cap = cfg.hop_cap;
    let thr_coeff = cfg.eps_abs / k_cap as f64;
    ws.begin_push(graph, seed, k_cap + 1, thr_coeff);

    // Monotone per-hop max hints (scheduler) and frozen exact maxima of
    // finished hops (incremental condition evaluation).
    ws.hop_max_hint.clear();
    ws.hop_max_hint.resize(k_cap + 1, 0.0);
    ws.hop_max_frozen.clear();
    ws.hop_max_frozen.resize(k_cap + 1, 0.0);
    ws.hop_max_hint[0] = 1.0 / graph.degree_nz(seed) as f64;

    let cancel = ws.cancel_token().cloned();
    let full = PUSH_TIER_DIVISORS.len() as u32;
    let mut counters = DrainCounters::default();
    // Left fold of the drained hops' frozen maxima (the incremental
    // condition-(11) prefix sum).
    let mut frozen_sum = 0.0f64;
    // Push tiers certified at hop boundaries so far.
    let mut certified = 0u32;
    // The first hop that has not drained.
    let mut k = 0usize;
    let end = 'hops: loop {
        if k == k_cap {
            break PushEnd::Stopped;
        }
        // Cooperative cancellation at hop boundaries: pure control flow,
        // so an uncancelled run is bit-identical with or without a token.
        if cancel.as_ref().is_some_and(|c| c.is_cancelled()) {
            break PushEnd::Cut;
        }
        let drain = HopDrain {
            k,
            stop: poisson.stop_prob(k),
            thr_coeff,
            enqueue: k + 1 < k_cap,
            cancel: cancel.as_ref(),
            plus: Some(PlusDrain {
                eps_abs: cfg.eps_abs,
                budget: cfg.budget,
                frozen_sum,
            }),
        };
        let max = match drain_hop(graph, &drain, &mut counters, ws) {
            HopOutcome::Drained { max } => max,
            HopOutcome::Satisfied => break PushEnd::Satisfied,
            HopOutcome::Budget => break PushEnd::Stopped,
            HopOutcome::Cancelled => break PushEnd::Cut,
        };
        // Hop k's surviving residues are final: fold their max into the
        // prefix sum and move to the next hop level.
        ws.hop_max_frozen[k] = max;
        frozen_sum += max;
        k += 1;

        // Certificate checkpoint (pure reads): at this boundary the exact
        // condition-(11) sum is the frozen prefix plus hop k's exact
        // running max — hops beyond hold nothing. Each coarsened
        // threshold it satisfies certifies one push tier; the hook hears
        // of each new tier, in order.
        let cert_sum = frozen_sum + ws.hop_max_hint[k];
        while certified + 1 < full
            && cert_sum <= PUSH_TIER_DIVISORS[certified as usize] as f64 * cfg.eps_abs
        {
            certified += 1;
            if let Some(on_tier) = controls.on_push_tier.as_mut() {
                if !on_tier(certified) {
                    break 'hops PushEnd::Cut;
                }
            }
        }
        if k < k_cap
            && controls
                .push_tier_cap
                .is_some_and(|cap| certified >= cap.max(1))
        {
            break PushEnd::Cut;
        }
    };

    // `k` is now the hop the push stopped in. Only a push that ended
    // naturally may claim condition (11).
    let (satisfied_condition_11, tiers_completed) = match end {
        PushEnd::Satisfied => (true, full),
        PushEnd::Stopped => (stop_state_sum(frozen_sum, k, ws) <= cfg.eps_abs, full),
        PushEnd::Cut => {
            let sum = stop_state_sum(frozen_sum, k, ws);
            let thresholds = &PUSH_TIER_DIVISORS[..full as usize - 1];
            let tiers = thresholds
                .iter()
                .filter(|&&d| sum <= d as f64 * cfg.eps_abs);
            (false, tiers.count() as u32)
        }
    };

    // Publish per-hop upper bounds on max_v r^(k)[v]/d(v): exact (frozen)
    // for drained hops, the monotone hint from the stop hop on. TEA+'s
    // residue reduction uses these to skip whole hop levels whose entries
    // all reduce to zero — without scanning them.
    ws.hop_max_frozen[k..].copy_from_slice(&ws.hop_max_hint[k..]);
    ws.fold_settled();

    PushPlusWsStats {
        push_operations: counters.push_operations,
        satisfied_condition_11,
        tiers_completed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::QueryWorkspace;
    use hk_graph::builder::graph_from_edges;

    /// The §5.4 graph G' (Figure 1): s=0, v1=1, …, v7=7.
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

    fn example_cfg() -> PushPlusConfig {
        // t=3, eps_r=0.5, delta=2*tau/9 => eps_abs = tau/9, K = 2,
        // np ~ 1455/tau (effectively unbounded for this tiny graph).
        let tau = 1.0 - 4.0 / 3.0f64.exp();
        PushPlusConfig {
            hop_cap: 2,
            eps_abs: tau / 9.0,
            budget: (1455.0 / tau) as u64,
        }
    }

    #[test]
    fn example_5_4_full_trace_tables_4_to_6() {
        let g = example_graph();
        let p = PoissonTable::new(3.0);
        let out = hk_push_plus(&g, &p, 0, &example_cfg());
        let e3 = 3.0f64.exp();
        let tau = 1.0 - 4.0 / e3;

        // Table 6 reserves: q[s] = 1/e^3, q[v1] = q[v2] = 3/(2e^3).
        assert!((out.reserve[&0] - 1.0 / e3).abs() < 1e-12);
        assert!((out.reserve[&1] - 3.0 / (2.0 * e3)).abs() < 1e-12);
        assert!((out.reserve[&2] - 3.0 / (2.0 * e3)).abs() < 1e-12);
        assert_eq!(out.reserve.len(), 3);

        // Table 6 residues: r^(1) empty; r^(2) = [tau/4, tau/12, tau/6,
        // tau/6, tau/12 x4].
        assert_eq!(out.residues.hop(1).map_or(0, |h| h.len()), 0);
        assert!((out.residues.get(2, 0) - tau / 4.0).abs() < 1e-12);
        assert!((out.residues.get(2, 1) - tau / 12.0).abs() < 1e-12);
        assert!((out.residues.get(2, 2) - tau / 6.0).abs() < 1e-12);
        assert!((out.residues.get(2, 3) - tau / 6.0).abs() < 1e-12);
        for v in 4..8 {
            assert!((out.residues.get(2, v) - tau / 12.0).abs() < 1e-12);
        }

        // sum_k max_v r/d = tau/6 > eps_abs = tau/9: condition (11) fails,
        // so TEA+ must proceed to random walks.
        assert!(!out.satisfied_condition_11);

        // Push count: s contributes d=2, v1 and v2 contribute 3 and 6.
        assert_eq!(out.push_operations, 2 + 3 + 6);
    }

    #[test]
    fn budget_cuts_off_processing() {
        let g = example_graph();
        let p = PoissonTable::new(3.0);
        let mut cfg = example_cfg();
        cfg.budget = 2; // only the seed's push fits
        let out = hk_push_plus(&g, &p, 0, &cfg);
        assert_eq!(out.push_operations, 2);
        assert_eq!(out.reserve.len(), 1); // only the seed settled anything
                                          // Hop-1 residues still hold the undistributed mass.
        assert!(out.residues.get(1, 1) > 0.0);
        assert!(out.residues.get(1, 2) > 0.0);
    }

    #[test]
    fn mass_conservation_holds() {
        let g = example_graph();
        let p = PoissonTable::new(3.0);
        for budget in [2u64, 5, 11, 1000] {
            let mut cfg = example_cfg();
            cfg.budget = budget;
            let out = hk_push_plus(&g, &p, 0, &cfg);
            let total = out.reserve.values().sum::<f64>() + out.residues.total_sum_exact();
            assert!(
                (total - 1.0).abs() < 1e-12,
                "budget={budget}: total={total}"
            );
        }
    }

    #[test]
    fn tight_eps_never_claims_condition_11_falsely() {
        // Whenever satisfied_condition_11 is reported, the exact sum must
        // actually satisfy it (Theorem 2 soundness).
        let g = example_graph();
        let p = PoissonTable::new(3.0);
        for eps_abs in [1e-1, 1e-2, 1e-3] {
            let cfg = PushPlusConfig {
                hop_cap: 6,
                eps_abs,
                budget: u64::MAX,
            };
            let out = hk_push_plus(&g, &p, 0, &cfg);
            let mut per_hop = vec![0.0f64; out.residues.num_hops()];
            for (k, v, r) in out.residues.entries() {
                per_hop[k] = per_hop[k].max(r / g.degree_nz(v) as f64);
            }
            let sum: f64 = per_hop.iter().sum();
            if out.satisfied_condition_11 {
                assert!(
                    sum <= eps_abs + 1e-15,
                    "claimed (11) but sum={sum} > {eps_abs}"
                );
            }
        }
    }

    #[test]
    fn generous_eps_exits_early_without_walks() {
        let g = example_graph();
        let p = PoissonTable::new(3.0);
        let cfg = PushPlusConfig {
            hop_cap: 8,
            eps_abs: 0.5,
            budget: u64::MAX,
        };
        let out = hk_push_plus(&g, &p, 0, &cfg);
        assert!(out.satisfied_condition_11);
    }

    #[test]
    fn hop_cap_respected() {
        let g = example_graph();
        let p = PoissonTable::new(3.0);
        let cfg = PushPlusConfig {
            hop_cap: 3,
            eps_abs: 1e-9,
            budget: u64::MAX,
        };
        let out = hk_push_plus(&g, &p, 0, &cfg);
        // No residues may exist beyond hop 3, and hop 3 keeps whatever
        // arrives (never pushed).
        assert!(out.residues.num_hops() <= 4);
        assert!(out.residues.hop_sum(3) > 0.0);
        // Hops below the cap are fully drained under a tiny threshold...
        // except entries below their own threshold; with eps_abs=1e-9
        // everything above 1e-9/3*d was pushed.
        for (k, v, r) in out.residues.entries() {
            if k < 3 {
                assert!(r <= 1e-9 / 3.0 * g.degree(v) as f64 + 1e-18);
            }
        }
    }

    #[test]
    fn isolated_seed_settles_immediately() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let p = PoissonTable::new(3.0);
        let cfg = PushPlusConfig {
            hop_cap: 2,
            eps_abs: 1e-3,
            budget: u64::MAX,
        };
        let out = hk_push_plus(&g, &p, 2, &cfg);
        assert!((out.reserve[&2] - 1.0).abs() < 1e-12);
        assert!(out.satisfied_condition_11);
    }

    #[test]
    fn cut_ladder_stops_on_the_reference_state() {
        // A push cut by `push_tier_cap` stops at the hop boundary that
        // certifies the cap: the hook has heard of tiers 1..=n, the stop
        // state certifies at least the cap and claims no condition (11),
        // and it is the state the reference reaches on the same push
        // operations. An uncut push on the same workspace is then the
        // cold run, bit for bit.
        let g = example_graph();
        let p = PoissonTable::new(3.0);
        let full = PUSH_TIER_DIVISORS.len() as u32;
        // At a hop cap of 12 every cap below is reached before the push
        // ends naturally, at each of these targets.
        for eps_abs in [0.5, 1e-1, 1e-2, 1e-3, 1e-4] {
            let cfg = PushPlusConfig {
                hop_cap: 12,
                eps_abs,
                budget: u64::MAX,
            };
            let mut ws = QueryWorkspace::new();
            for cap in 1..full {
                let mut fired = Vec::new();
                let mut hook = |t: u32| {
                    fired.push(t);
                    true
                };
                let mut controls = AnytimeControls {
                    push_tier_cap: Some(cap),
                    on_push_tier: Some(&mut hook),
                    ..Default::default()
                };
                let stats = hk_push_plus_ws(&g, &p, 0, &cfg, &mut controls, &mut ws);
                let case = format!("eps_abs={eps_abs} cap={cap}");
                assert!(fired.iter().copied().eq(1..=fired.len() as u32), "{case}");
                assert!(
                    (cap..full).contains(&stats.tiers_completed),
                    "{case}: {stats:?}"
                );
                assert!(!stats.satisfied_condition_11, "{case}");

                let budget = stats.push_operations;
                let reference = hk_push_plus(&g, &p, 0, &PushPlusConfig { budget, ..cfg });
                assert_eq!(reference.push_operations, budget, "{case}");
                let dense: Vec<_> = ws.residues().entries().collect();
                let expect: Vec<_> = reference.residues.entries_first_touch().collect();
                assert_eq!(dense, expect, "{case}: entries(), order included");
                for v in 0..g.num_nodes() as u32 {
                    let q = reference.reserve.get(&v).copied().unwrap_or(0.0);
                    assert_eq!(ws.reserve().get(v), (q, 0), "{case}: reserve[{v}]");
                }
            }

            let controls = &mut AnytimeControls::default();
            let stats = hk_push_plus_ws(&g, &p, 0, &cfg, controls, &mut ws);
            let mut cold = QueryWorkspace::new();
            let cold_stats = hk_push_plus_ws(&g, &p, 0, &cfg, controls, &mut cold);
            assert_eq!(stats, cold_stats, "eps_abs={eps_abs}");
            assert_eq!(stats.tiers_completed, full);
            for v in 0..g.num_nodes() as u32 {
                assert_eq!(
                    cold.reserve().get(v).0.to_bits(),
                    ws.reserve().get(v).0.to_bits(),
                    "reserve[{v}] eps_abs={eps_abs}"
                );
                for k in 0..=cfg.hop_cap {
                    assert_eq!(
                        cold.residues().get(k, v).to_bits(),
                        ws.residues().get(k, v).to_bits(),
                        "residue[{k}][{v}] eps_abs={eps_abs}"
                    );
                }
            }
            assert_eq!(ws.residue_bounds(), cold.residue_bounds());
        }
    }

    #[test]
    fn token_fired_at_a_probe_stops_mid_hop_on_the_reference_state() {
        // The drain polls its token at the CHECK_INTERVAL probe (hop
        // boundaries are `hk_push_plus_ws`'s business), so driving the
        // hops by hand with a fired token stops the push,
        // deterministically, at the first probe: mid-hop, the hops below
        // frozen, that hop and the next live. Every reader must then see
        // what the hash-map reference holds after the same number of push
        // operations.
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let g = holme_kim(30_000, 5, 0.3, &mut SmallRng::seed_from_u64(3)).unwrap();
        let p = PoissonTable::new(5.0);
        let mut cfg = PushPlusConfig {
            hop_cap: 8,
            eps_abs: 1e-6,
            budget: u64::MAX,
        };
        let fired = CancelToken::new();
        fired.cancel();

        // What `hk_push_plus_ws` sets up before its hop loop.
        let mut ws = QueryWorkspace::new();
        let thr_coeff = cfg.eps_abs / cfg.hop_cap as f64;
        ws.begin_push(&g, 0, cfg.hop_cap + 1, thr_coeff);
        ws.hop_max_hint = vec![0.0; cfg.hop_cap + 1];
        ws.hop_max_hint[0] = 1.0 / g.degree_nz(0) as f64;
        ws.hop_max_frozen = vec![0.0; cfg.hop_cap + 1];

        let mut counters = DrainCounters::default();
        let mut frozen_sum = 0.0f64;
        let mut k = 0usize;
        loop {
            let drain = HopDrain {
                k,
                stop: p.stop_prob(k),
                thr_coeff,
                enqueue: k + 1 < cfg.hop_cap,
                cancel: Some(&fired),
                plus: Some(PlusDrain {
                    eps_abs: cfg.eps_abs,
                    budget: cfg.budget,
                    frozen_sum,
                }),
            };
            match drain_hop(&g, &drain, &mut counters, &mut ws) {
                HopOutcome::Drained { max } => {
                    ws.hop_max_frozen[k] = max;
                    frozen_sum += max;
                    k += 1;
                }
                HopOutcome::Cancelled => break,
                HopOutcome::Satisfied | HopOutcome::Budget => panic!("no such stop configured"),
            }
        }
        assert_eq!(counters.processed, CHECK_INTERVAL, "stopped at the probe");
        // Hop k still holds residues its drain would push.
        let hop = ws.residues().live_hop(k).unwrap();
        let left = hop
            .iter_nonzero_with_deg()
            .any(|(_, r, d)| r > thr_coeff * d as f64);
        assert!(k >= 2 && left, "mid-hop, past frozen hops");
        // What `hk_push_plus_ws` does when its hop loop stops.
        ws.fold_settled();

        // The reference, out of budget at the same node.
        cfg.budget = counters.push_operations;
        let reference = hk_push_plus(&g, &p, 0, &cfg);
        assert_eq!(reference.push_operations, counters.push_operations);
        let dense: Vec<_> = ws.residues().entries().collect();
        let expect: Vec<_> = reference.residues.entries_first_touch().collect();
        assert_eq!(dense, expect, "entries(), order included");
        assert_eq!(ws.residues().nnz(), expect.len());
        let mut exact = vec![0.0f64; cfg.hop_cap + 1];
        for &(j, v, r) in &expect {
            exact[j] = exact[j].max(r / g.degree_nz(v) as f64);
        }
        for (j, &exact) in exact.iter().enumerate() {
            let (dense, expect) = (ws.residues().hop_sum(j), reference.residues.hop_sum(j));
            assert!((dense - expect).abs() <= 1e-12, "hop_sum({j})");
            // Frozen exactly below the interrupted hop; the hint (which
            // `hk_push_plus_ws` publishes from the stop hop on) exact
            // above it, and at it stale-high by what the drain consumed.
            if j < k {
                assert_eq!(ws.hop_max_frozen[j], exact, "frozen max of hop {j}");
            } else if j == k {
                assert!(ws.hop_max_hint[j] >= exact);
            } else {
                assert_eq!(ws.hop_max_hint[j], exact, "hint of hop {j}");
            }
        }
        // The stop-state sum scans the interrupted hop: the exact
        // condition-(11) sum, folded in hop order.
        let stop_sum = stop_state_sum(frozen_sum, k, &ws);
        assert_eq!(stop_sum, exact.iter().sum::<f64>());
        for (v, q) in reference.reserve {
            assert_eq!(ws.reserve().get(v), (q, 0), "reserve[{v}]");
        }
    }

    #[test]
    fn hook_cancel_reports_honest_stop_state() {
        // A hook that returns false cuts the push at the certifying
        // boundary; the reported stop-state count covers at least the
        // tier that fired, and the push never claims condition (11).
        let g = example_graph();
        let p = PoissonTable::new(3.0);
        let cfg = PushPlusConfig {
            hop_cap: 6,
            eps_abs: 1e-2,
            budget: u64::MAX,
        };
        let mut ws = QueryWorkspace::new();
        let mut hook = |_t: u32| false;
        let mut controls = AnytimeControls {
            on_push_tier: Some(&mut hook),
            ..Default::default()
        };
        let stats = hk_push_plus_ws(&g, &p, 0, &cfg, &mut controls, &mut ws);
        assert!(
            (1..PUSH_TIER_DIVISORS.len() as u32).contains(&stats.tiers_completed),
            "stop state covers the fired tier: {stats:?}"
        );
        assert!(!stats.satisfied_condition_11, "cut pushes never claim (11)");
    }
}
