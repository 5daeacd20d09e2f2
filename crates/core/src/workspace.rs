//! Reusable per-query workspace.
//!
//! The hot loops of TEA / TEA+ — residue propagation, reserve
//! accumulation, and per-walk mass deposits — are all keyed by `u32` node
//! ids. The seed implementation routed every one of those operations
//! through an `FxHashMap`, paying hashing, probing and allocation on each
//! touch. This module replaces the maps with **a node index over a
//! record list**:
//!
//! * the one per-node structure is a sparse-set index of 4-byte record
//!   positions, believed only when the record it names names the node
//!   back, so "clearing" the structure between queries is emptying the
//!   record list — no `memset`, no allocation (see `node_index.rs`);
//! * values live in a *record list*, appended on a node's first touch
//!   after a `begin` (the index slot keeps the record's position), so
//!   lookups stay O(1) while the memory that holds values grows with the
//!   query, not with the graph, and every scan of the touched nodes
//!   (condition-(11) probes, hop sifts, sparse read-back) is one
//!   sequential pass in first-touch order. A residue hop's records are
//!   `{node, degree, value}`; the [`Reserve`]'s are `{node, value,
//!   count}`, the push reserve and the walks that ended at the node side
//!   by side, since the answer is their sum;
//! * a [`QueryWorkspace`] owns all of the buffers an end-to-end query
//!   needs (reserve, residues, worklists, walk scratch), so a long-lived
//!   serving thread allocates once and runs arbitrarily many queries
//!   allocation-free. Its only per-node memory is at most three node
//!   indexes — the reserve's and the two live residue hops' — walking or
//!   not;
//! * the output is sorted by node id straight from the reserve's records
//!   with an LSD radix sort whose scatter buffer the workspace keeps, and
//!   its last pass writes the estimate's two exact-length columns (ids,
//!   values), so assembly too is O(touched) and allocates only the
//!   answer.
//!
//! The push phases work hop by hop, and while hop `k` drains only hops
//! `k` and `k + 1` are ever written. [`DenseResidues`] therefore keeps
//! **two** [`EpochVec`]s, whatever the hop count: a drained hop's
//! survivors are compacted into a contiguous list and its vector is
//! reused two hops later. Worklist entries carry their node's record
//! position, so the drain reads and zeroes a residue without touching the
//! index. It answers the same questions as
//! [`crate::sparse::ResidueTable`] (per-hop vectors `r^(0..K)` with
//! incrementally maintained hop sums for `alpha` and `beta_k`), and the
//! workspace additionally maintains the per-hop residue maxima that make
//! the TEA+ condition-(11) check incremental (see
//! [`crate::push_plus::hk_push_plus_ws`]).

use hk_graph::{Graph, NodeId};

use crate::estimate::HkprEstimate;
use crate::node_index::Record;
pub use crate::node_index::{EpochVec, Reserve};

/// Dense multi-hop residue store: the indexed counterpart of
/// [`crate::sparse::ResidueTable`]. Hop sums are maintained incrementally
/// (TEA's `alpha`, TEA+'s `beta_k`).
///
/// The push phases drain hop `0`, then hop `1`, … and while hop `k`
/// drains they write hops `k` and `k + 1` only. So the store holds two
/// [`EpochVec`]s — hop `k` lives in `live[k & 1]` — and a drained hop's
/// non-zero survivors sit, in first-touch order, on one contiguous list
/// while its vector serves hop `k + 2` after a `begin`. The footprint
/// is two node indexes plus the records and survivors, whatever the hop
/// count.
///
/// Each hop's records are scanned once, when the hop below it has drained
/// and it stops receiving mass (`sift`). A node is on hop
/// `k`'s worklist exactly if its residue ended above the push threshold,
/// and a drain zeroes every node on its worklist, so the entries at or
/// under the threshold at that moment *are* hop `k`'s survivors, final
/// values and all: the scan that computes hop `k`'s running maximum for
/// condition (11) also lays them out, and `freeze`
/// merely commits them once the drain has run to its end. A drain cut
/// short (budget, cancel, early exit) commits nothing and its hop stays
/// live, as does the last hop, which is never drained; readers walk the
/// frozen lists, and for those the live records, sequentially.
#[derive(Clone, Debug, Default)]
pub struct DenseResidues {
    /// Hop `k >= frozen_end.len()` lives in `live[k & 1]`; hops from
    /// `frozen_end.len() + 2` up hold nothing yet.
    live: [EpochVec; 2],
    /// Survivors of the drained hops, hop-major, then — uncommitted —
    /// those the last `sift` set aside for the first live
    /// hop.
    frozen: Vec<Record>,
    /// `frozen[frozen_end[k - 1]..frozen_end[k]]` is hop `k`; one entry
    /// per frozen hop.
    frozen_end: Vec<usize>,
    /// `max r/d` over the uncommitted survivors.
    sifted_max: f64,
    /// One sum per hop level in use.
    hop_sums: Vec<f64>,
    n: usize,
}

impl DenseResidues {
    /// Empty store; the push phase's `begin` shapes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh query with `num_hops` hop levels over `n` nodes:
    /// hops 0 and 1 live and empty, nothing frozen. Hop levels grow on
    /// demand via `drain_parts`.
    pub(crate) fn begin(&mut self, num_hops: usize, n: usize) {
        self.n = n;
        for hop in &mut self.live {
            hop.begin(n);
        }
        self.frozen.clear();
        self.frozen_end.clear();
        self.sifted_max = 0.0;
        self.hop_sums.clear();
        self.hop_sums.resize(num_hops, 0.0);
    }

    /// Number of hop levels in use (`K + 1`).
    pub fn num_hops(&self) -> usize {
        self.hop_sums.len()
    }

    /// The live array of hop `k`, if hop `k` is one of the two live hops.
    pub(crate) fn live_hop(&self, k: usize) -> Option<&EpochVec> {
        let first_live = self.frozen_end.len();
        (first_live..first_live + 2)
            .contains(&k)
            .then(|| &self.live[k & 1])
    }

    /// End of the committed part of `frozen`.
    fn frozen_len(&self) -> usize {
        self.frozen_end.last().copied().unwrap_or(0)
    }

    /// The survivors of hop `k`; empty unless hop `k` is frozen.
    fn frozen_hop(&self, k: usize) -> &[Record] {
        match self.frozen_end.get(k) {
            Some(&end) => {
                let start = k.checked_sub(1).map_or(0, |j| self.frozen_end[j]);
                &self.frozen[start..end]
            }
            None => &[],
        }
    }

    /// Residue `r^(k)[v]`; 0 if absent. O(1) on a live hop, a linear
    /// search of the hop's survivors on a frozen one — for tests and
    /// spot checks, not for loops.
    pub fn get(&self, k: usize, v: NodeId) -> f64 {
        match self.live_hop(k) {
            Some(hop) => hop.get(v),
            None => self
                .frozen_hop(k)
                .iter()
                .find(|e| e.node == v)
                .map_or(0.0, |e| e.value),
        }
    }

    /// Start the query's residue vector: `r^(0)[seed] = 1`. `degree` is
    /// the seed's true degree, the one its worklist entry carries: hop
    /// 0's drain pushes the seed unless `1 <= thr_coeff * degree`, which
    /// is hop 0's `sift`. Like every later entry, the record
    /// memoizes the degree clamped to 1. Returns the seed's record
    /// position in hop 0, which is 0.
    pub(crate) fn seed(&mut self, seed: NodeId, degree: usize, thr_coeff: f64) -> u32 {
        let deg = degree.max(1) as u32;
        let (_, _, _, at) = self.live[0].add_memo_deg(seed, 1.0, || deg);
        self.hop_sums[0] += 1.0;
        if 1.0 <= thr_coeff * degree as f64 {
            self.frozen.push(Record {
                node: seed,
                deg,
                value: 1.0,
            });
            self.sifted_max = 1.0 / deg as f64;
        }
        at
    }

    /// Split borrow for the drain of hop `k`: the arrays of hops `k` and
    /// `k + 1` mutably plus the hop-sum row, all disjoint, growing the
    /// hop levels to `k + 2` if needed. The drain batches its hop-sum
    /// updates into locals and flushes them once.
    pub(crate) fn drain_parts(&mut self, k: usize) -> (&mut EpochVec, &mut EpochVec, &mut [f64]) {
        debug_assert_eq!(k, self.frozen_end.len(), "hops drain in order");
        if self.hop_sums.len() < k + 2 {
            self.hop_sums.resize(k + 2, 0.0);
        }
        let (even, odd) = self.live.split_at_mut(1);
        let (cur, next) = if k & 1 == 0 {
            (&mut even[0], &mut odd[0])
        } else {
            (&mut odd[0], &mut even[0])
        };
        (cur, next, &mut self.hop_sums)
    }

    /// Hop `k`'s drain ran to its end, so the survivors its
    /// `sift` set aside are what is left of it: commit
    /// them, hand its array to hop `k + 2`, and return `max_v r^(k)[v] /
    /// d(v)` over them (the value a scan of the drained array with
    /// [`EpochVec::max_value_over_deg`] would find).
    pub(crate) fn freeze(&mut self, k: usize) -> f64 {
        debug_assert_eq!(k, self.frozen_end.len(), "hops freeze in order");
        debug_assert_eq!(
            self.live[k & 1].iter_nonzero().count(),
            self.frozen.len() - self.frozen_len(),
            "a drained hop's non-zero slots are the ones its sift kept"
        );
        self.frozen_end.push(self.frozen.len());
        self.live[k & 1].begin(self.n);
        std::mem::take(&mut self.sifted_max)
    }

    /// Hop `k - 1` has just frozen, so hop `k` receives no more mass and
    /// `thr_coeff` decides which of its nodes its own drain will push:
    /// set the others aside as its survivors (see the type docs) and
    /// return `max_v r^(k)[v] / d(v)` over all of it, bit for bit
    /// [`EpochVec::max_value_over_deg`]. Not for a hop that will not be
    /// drained.
    pub(crate) fn sift(&mut self, k: usize, thr_coeff: f64) -> f64 {
        debug_assert_eq!(k, self.frozen_end.len(), "the first live hop is sifted");
        debug_assert_eq!(self.frozen.len(), self.frozen_len(), "one sift per hop");
        let (max_all, max_kept) = self.live[k & 1].sift_into(thr_coeff, &mut self.frozen);
        self.sifted_max = max_kept;
        max_all
    }

    /// Sum of residues at hop `k` (incremental; ordinary fp drift applies).
    pub fn hop_sum(&self, k: usize) -> f64 {
        self.hop_sums.get(k).copied().unwrap_or(0.0)
    }

    /// `alpha = sum_k sum_u r^(k)[u]` — total residue mass.
    pub fn total_sum(&self) -> f64 {
        self.hop_sums.iter().sum()
    }

    /// Recompute the total from the entries (O(nnz); drift bound for
    /// tests).
    pub fn total_sum_exact(&self) -> f64 {
        (0..self.num_hops())
            .map(|k| {
                let mut sum = 0.0;
                self.for_each_in_hop(k, |_, r, _| sum += r);
                sum
            })
            .sum()
    }

    /// Call `f(node, residue, degree)` for every non-zero entry of hop
    /// `k` in first-touch order. The degree is the one the push kernels
    /// memoized (`>= 1`), so residue consumers (TEA+ reduction) skip the
    /// per-entry degree lookup.
    pub fn for_each_in_hop(&self, k: usize, mut f: impl FnMut(NodeId, f64, u32)) {
        match self.live_hop(k) {
            Some(hop) => hop
                .iter_nonzero_with_deg()
                .for_each(|(v, r, deg)| f(v, r, deg)),
            None => self
                .frozen_hop(k)
                .iter()
                .for_each(|e| f(e.node, e.value, e.deg)),
        }
    }

    /// Iterate all non-zero `(k, v, r)` entries, hop-major, first-touch
    /// order within a hop (deterministic for a fixed push schedule).
    pub fn entries(&self) -> impl Iterator<Item = (usize, NodeId, f64)> + '_ {
        let first_live = self.frozen_end.len();
        let frozen = (0..first_live)
            .flat_map(|k| self.frozen_hop(k).iter().map(move |e| (k, e.node, e.value)));
        let live = (first_live..first_live + 2)
            .flat_map(|k| self.live[k & 1].iter_nonzero().map(move |(v, r)| (k, v, r)));
        frozen.chain(live)
    }

    /// Number of non-zero entries.
    pub fn nnz(&self) -> usize {
        self.frozen_len()
            + self
                .live
                .iter()
                .map(|hop| hop.iter_nonzero().count())
                .sum::<usize>()
    }

    /// Bytes held by the backing allocations: the two live vectors plus
    /// the frozen survivors — independent of the hop count.
    pub fn memory_bytes(&self) -> usize {
        self.live.iter().map(EpochVec::memory_bytes).sum::<usize>()
            + self.frozen.capacity() * std::mem::size_of::<Record>()
            + self.frozen_end.capacity() * std::mem::size_of::<usize>()
            + self.hop_sums.capacity() * std::mem::size_of::<f64>()
    }

    /// Release the backing allocations.
    fn release(&mut self) {
        *self = Self::default();
    }
}

/// Wall-clock split of the last estimator run on a workspace, in
/// nanoseconds. Recorded by [`crate::estimate_in`] for serving-layer
/// telemetry; deliberately *not* part of
/// [`crate::QueryStats`], whose fields are deterministic counters that
/// serving tests compare bit for bit across runs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Time spent in the push (HK-Push / HK-Push+; 0 for Monte-Carlo,
    /// which pushes nothing).
    pub push_ns: u64,
    /// Time spent after the push: residue reduction (TEA+), walk
    /// planning (the sampling of every walk's start included), the
    /// batched walk engine, and estimate assembly.
    pub walk_ns: u64,
}

/// Reusable per-query workspace: every buffer an end-to-end TEA / TEA+ /
/// Monte-Carlo query needs, allocated once and logically cleared in O(1)
/// between queries.
///
/// ```
/// use hk_graph::gen::holme_kim;
/// use hkpr_core::{estimate_in, AnytimeControls, Estimator, HkprParams, QueryWorkspace};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(5);
/// let g = holme_kim(500, 4, 0.3, &mut rng).unwrap();
/// let params = HkprParams::builder(&g).delta(1e-3).build().unwrap();
/// let mut ws = QueryWorkspace::new();
/// // One workspace serves any number of queries, allocation-free after
/// // the first.
/// for seed in [0u32, 17, 401] {
///     let tea_plus = Estimator::TeaPlus(Default::default());
///     let controls = AnytimeControls::default();
///     let out = estimate_in(&g, &params, seed, tea_plus, controls, &mut rng, &mut ws).unwrap();
///     assert!(out.estimate.raw_sum() <= 1.0 + 1e-9);
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct QueryWorkspace {
    /// Reserve vector `q_s` and the walk endpoint counts.
    pub(crate) reserve: Reserve,
    /// Residue vectors `r^(0..K)`.
    pub(crate) residues: DenseResidues,
    /// Per-hop push worklists (reused). Entries `(node, degree, at)` carry
    /// what the enqueue site knows for free — the node's degree and the
    /// position of its record in its hop's [`EpochVec`] — so a pop reads
    /// and zeroes the residue without a read of the degree array or of
    /// the node index.
    pub(crate) queues: Vec<Vec<(NodeId, u32, u32)>>,
    /// Walk-start entries `(hop, node)` for the alias table.
    pub(crate) entries: Vec<(u32, NodeId)>,
    /// Walk-start weights, parallel to `entries`.
    pub(crate) weights: Vec<f64>,
    /// Batched walk engine scratch (start multiplicities, chunk bounds).
    pub(crate) walk_scratch: crate::walk::WalkScratch,
    /// Scatter buffer of [`assemble_estimate`](Self::assemble_estimate)'s
    /// radix sort.
    radix_tmp: Vec<(NodeId, f64)>,
    /// Monotone per-hop max hints for the condition-(11) scheduler.
    pub(crate) hop_max_hint: Vec<f64>,
    /// Exact per-hop maxima of hops whose processing has finished.
    pub(crate) hop_max_frozen: Vec<f64>,
    /// Phase-time split of the last estimator run (telemetry only).
    pub(crate) phase_times: PhaseTimes,
    /// Cooperative cancellation flag for the query in flight, polled at
    /// hop boundaries and every `CHECK_INTERVAL` processed nodes (push
    /// kernels) and at chunk boundaries (walk engine).
    cancel: Option<crate::cancel::CancelToken>,
}

impl QueryWorkspace {
    /// Empty workspace; the first query sizes it. Every phase of a query
    /// runs on the thread that calls the estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wall-clock phase split of the last TEA / TEA+ / Monte-Carlo run on
    /// this workspace (each records it on success).
    pub fn last_phase_times(&self) -> PhaseTimes {
        self.phase_times
    }

    /// Record the phase split of the estimator run that just finished.
    pub(crate) fn set_phase_times(&mut self, push_ns: u64, walk_ns: u64) {
        self.phase_times = PhaseTimes { push_ns, walk_ns };
    }

    /// Install (or clear) the cooperative cancellation token the next
    /// queries on this workspace poll. Serving workers install the
    /// request's token before dispatching and clear it afterwards; a
    /// query whose token fires returns [`HkprError::Cancelled`]
    /// (estimator level) and leaves the workspace reusable. An installed
    /// but never-fired token has zero effect on results — the checks are
    /// pure control flow (see [`crate::cancel`]).
    ///
    /// [`HkprError::Cancelled`]: crate::HkprError::Cancelled
    pub fn set_cancel_token(&mut self, token: Option<crate::cancel::CancelToken>) {
        self.cancel = token;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&crate::cancel::CancelToken> {
        self.cancel.as_ref()
    }

    /// Poll the installed token (false when none is installed).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.cancel {
            Some(token) => token.is_cancelled(),
            None => false,
        }
    }

    /// Typed-error form of [`is_cancelled`](Self::is_cancelled) for the
    /// estimator drivers' `?` chains.
    #[inline]
    pub fn check_cancelled(&self) -> Result<(), crate::HkprError> {
        if self.is_cancelled() {
            Err(crate::HkprError::Cancelled)
        } else {
            Ok(())
        }
    }

    /// Read access to the reserve vector of the last query run on this
    /// workspace, and the walk endpoint counts beside it (equivalence
    /// tests and custom estimator assembly).
    pub fn reserve(&self) -> &Reserve {
        &self.reserve
    }

    /// Read access to the residue table of the last push phase run on
    /// this workspace.
    pub fn residues(&self) -> &DenseResidues {
        &self.residues
    }

    /// The per-hop upper bounds on `max_v r^(k)[v] / d(v)` that the last
    /// [`hk_push_plus_ws`](crate::push_plus::hk_push_plus_ws) on this
    /// workspace published, hop `0..=K`: exact for every hop
    /// whose drain ran to its end, and for hop `K`; a monotone
    /// over-estimate for a hop a stop cut short. TEA+'s residue reduction
    /// skips hop levels by them.
    pub fn residue_bounds(&self) -> &[f64] {
        &self.hop_max_frozen
    }

    /// Bytes held by every backing allocation of this workspace. The
    /// only part sized by the graph is one 4-byte index slot per node in
    /// each of at most three node indexes (the reserve, whose records also
    /// hold the walk endpoint counts, and the two live residue hops, which
    /// only a push sizes), whatever the hop cap and whether or not a query
    /// walked. Those are allocated bytes, not resident ones: an index
    /// comes zeroed from the allocator, and its pages only become resident
    /// as queries touch them. Everything else — records, worklists, frozen
    /// residue survivors, walk and assembly buffers — grows with what the
    /// largest query so far touched. Serving layers use this (together
    /// with the result-side accounting in `HkprEstimate::memory_bytes`) to
    /// budget cache memory against worker memory.
    pub fn memory_bytes(&self) -> usize {
        self.reserve.memory_bytes()
            + self.residues.memory_bytes()
            + self
                .queues
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<(NodeId, u32, u32)>())
                .sum::<usize>()
            + self.entries.capacity() * std::mem::size_of::<(u32, NodeId)>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
            + self.walk_scratch.memory_bytes()
            + self.radix_tmp.capacity() * std::mem::size_of::<(NodeId, f64)>()
            + self.hop_max_hint.capacity() * std::mem::size_of::<f64>()
            + self.hop_max_frozen.capacity() * std::mem::size_of::<f64>()
    }

    /// Release every backing allocation, returning the workspace to its
    /// freshly-constructed footprint. An idle serving worker parked on a
    /// huge graph can call this to hand `O(n)` index memory back to the
    /// allocator; the next query re-grows.
    pub fn reset(&mut self) {
        self.reserve = Reserve::new();
        self.residues.release();
        self.queues = Vec::new();
        self.entries = Vec::new();
        self.weights = Vec::new();
        self.walk_scratch.release();
        self.radix_tmp = Vec::new();
        self.hop_max_hint = Vec::new();
        self.hop_max_frozen = Vec::new();
        self.phase_times = PhaseTimes::default();
        self.cancel = None;
    }

    /// Prepare for a query over an `n`-node graph: size the reserve and
    /// clear it in O(1), values and endpoint counts alike, so the push and
    /// the walk phase both deposit into it (residues are shaped by the
    /// push routines, which know their hop count).
    pub(crate) fn begin(&mut self, n: usize) {
        self.reserve.begin(n);
        self.entries.clear();
        self.weights.clear();
    }

    /// Prepare for a push phase from `seed`: [`begin`](Self::begin), then
    /// `r^(0)[seed] = 1` over `num_hops` hop levels and the seed alone on
    /// hop 0's worklist. `thr_coeff` is the push threshold coefficient
    /// every drain of the phase will use.
    pub(crate) fn begin_push(
        &mut self,
        graph: &Graph,
        seed: NodeId,
        num_hops: usize,
        thr_coeff: f64,
    ) {
        assert!((seed as usize) < graph.num_nodes(), "seed out of range");
        let n = graph.num_nodes();
        self.begin(n);
        self.residues.begin(num_hops, n);
        let degree = graph.degree(seed);
        let at = self.residues.seed(seed, degree, thr_coeff);
        if self.queues.is_empty() {
            self.queues.push(Vec::new());
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.queues[0].push((seed, degree as u32, at));
    }

    /// Assemble the final sorted sparse estimate, `q[v] + count[v] *
    /// mass`, in O(touched) from the reserve's records: a node with a
    /// reserve and no walks emits `q`, one with walks and no reserve
    /// `count * mass`, one with both their sum, and one with neither
    /// nothing. That is the sum of the reserve's non-zero entries and the
    /// walk deposits, merged by node, bit for bit: each node's sum has at
    /// most two operands, so their order cannot show. The sort's passes
    /// read the records where they are and end in the estimate's two
    /// exact-length columns — the one intrinsic allocation of a query's
    /// output.
    pub(crate) fn assemble_estimate(&mut self, mass: f64) -> HkprEstimate {
        let reserve = &self.reserve;
        let entries = || {
            reserve.iter().filter_map(move |(v, q, count)| {
                let x = match (q != 0.0, count) {
                    (false, 0) => return None,
                    (true, 0) => q,
                    (false, c) => c as f64 * mass,
                    (true, c) => q + c as f64 * mass,
                };
                Some((v, x))
            })
        };
        let (nodes, values) = sort_by_node(entries, &mut self.radix_tmp);
        HkprEstimate::from_sorted_columns(nodes, values)
    }
}

/// Bits per digit of [`sort_by_node`]: 256 buckets, so a pass's
/// histogram and scatter cursors stay in L1.
const RADIX_BITS: u32 = 8;

/// Sort what `entries` yields (the same entries on every call, unique
/// ids) by node id into two exact-length columns: an LSD radix sort over
/// [`RADIX_BITS`]-bit digits, skipping every digit all ids share (below
/// 2^24 nodes, the top one). One pass counts every digit; each remaining
/// pass is one sequential read and one scatter, with no comparisons. The
/// passes alternate between the columns and the scratch `tmp` and end in
/// the columns, so the first reads the entries where they are and none
/// copies.
fn sort_by_node<I: Iterator<Item = (NodeId, f64)>>(
    entries: impl Fn() -> I,
    tmp: &mut Vec<(NodeId, f64)>,
) -> (Vec<NodeId>, Vec<f64>) {
    const DIGITS: usize = (NodeId::BITS / RADIX_BITS) as usize;
    let mut hist = [[0usize; 1 << RADIX_BITS]; DIGITS];
    let mut len = 0;
    for (v, _) in entries() {
        len += 1;
        for (d, h) in hist.iter_mut().enumerate() {
            h[digit(v, d)] += 1;
        }
    }
    // The digits the ids do not all share. Below two entries there are
    // none, and one pass over the lowest digit places the entry.
    let head = entries().next().map_or(0, |e| e.0);
    let (mut passes, mut count) = ([0; DIGITS], 0);
    for d in 0..DIGITS {
        if hist[d][digit(head, d)] != len {
            passes[count] = d;
            count += 1;
        }
    }
    let count = count.max(1);
    if count > 1 && tmp.len() < len {
        tmp.resize(len, (0, 0.0));
    }
    let (mut nodes, mut values) = (vec![0; len], vec![0.0; len]);
    for (i, &d) in passes[..count].iter().enumerate() {
        let h = &mut hist[d];
        // Counted back from the last pass, which writes the columns.
        let into_tmp = (count - i) % 2 == 0;
        match (i, into_tmp) {
            (0, false) => scatter(entries(), h, d, |at, (v, x)| {
                nodes[at] = v;
                values[at] = x;
            }),
            (0, true) => scatter(entries(), h, d, |at, e| tmp[at] = e),
            (_, false) => scatter(tmp[..len].iter().copied(), h, d, |at, (v, x)| {
                nodes[at] = v;
                values[at] = x;
            }),
            (_, true) => {
                let columns = nodes.iter().copied().zip(values.iter().copied());
                scatter(columns, h, d, |at, e| tmp[at] = e)
            }
        }
    }
    (nodes, values)
}

/// Digit `d` of `v`, least significant first.
#[inline]
fn digit(v: NodeId, d: usize) -> usize {
    (v >> (d as u32 * RADIX_BITS) & ((1 << RADIX_BITS) - 1)) as usize
}

/// One radix pass over digit `d`, whose histogram is `hist`: hand each
/// entry of `src`, in order, to `put` with its position in the output.
#[inline]
fn scatter(
    src: impl Iterator<Item = (NodeId, f64)>,
    hist: &mut [usize; 1 << RADIX_BITS],
    d: usize,
    mut put: impl FnMut(usize, (NodeId, f64)),
) {
    let mut at = 0;
    for count in hist.iter_mut() {
        (*count, at) = (at, at + *count);
    }
    for e in src {
        let slot = &mut hist[digit(e.0, d)];
        put(*slot, e);
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::driver::tests::{complete, TEA_PLUS};
    use crate::node_index::tests::INDEX_SLOT;
    use crate::Estimator;

    /// Drain hop `k` by hand the way the push kernels do: zero `pushed`,
    /// add `spread` into hop `k + 1`, then freeze hop `k` and sift hop
    /// `k + 1` at threshold `thr`. Returns `(frozen max, hop k+1 max)`.
    fn drain_by_hand(
        t: &mut DenseResidues,
        k: usize,
        pushed: &[NodeId],
        spread: &[(NodeId, f64, u32)],
        thr: f64,
    ) -> (f64, f64) {
        let (cur, next, sums) = t.drain_parts(k);
        for &v in pushed {
            sums[k] -= cur.take(v);
        }
        for &(u, share, deg) in spread {
            next.add_memo_deg(u, share, || deg);
            sums[k + 1] += share;
        }
        (t.freeze(k), t.sift(k + 1, thr))
    }

    #[test]
    fn dense_residues_match_sparse_semantics() {
        let mut t = DenseResidues::new();
        t.begin(1, 16);
        t.seed(5, 2, 0.1);
        assert_eq!(t.get(0, 5), 1.0);
        assert_eq!(t.num_hops(), 1);
        // Hop 0 drains into hop 1; hop levels grow on demand, and a
        // repeat touch keeps the first touch's memoized degree.
        let maxes = drain_by_hand(&mut t, 0, &[5], &[(9, 0.25, 3), (9, 0.5, 99)], 0.1);
        assert_eq!(maxes, (0.0, 0.25));
        assert_eq!(t.num_hops(), 2);
        assert_eq!(t.get(0, 5), 0.0);
        assert_eq!(t.get(1, 9), 0.75);
        assert!((t.hop_sum(1) - 0.75).abs() < 1e-15);
        assert!((t.total_sum() - 0.75).abs() < 1e-15);
        assert!((t.total_sum() - t.total_sum_exact()).abs() < 1e-12);
        assert_eq!(t.nnz(), 1);
        let es: Vec<_> = t.entries().collect();
        assert_eq!(es, vec![(1, 9, 0.75)]);
    }

    #[test]
    fn frozen_hops_read_like_live_ones() {
        // Hop 1 receives {9: 0.75/3, 4: 0.5/1, 2: 0.25/2, 6: 0}. At
        // threshold 0.2 its drain pushes 9 and 4 and leaves 2, so once
        // hops 0 and 1 have frozen every reader sees the same non-zero
        // entries in the same first-touch order as while they were live,
        // and hop 1's array serves hop 3.
        let mut t = DenseResidues::new();
        t.begin(1, 16);
        t.seed(5, 2, 0.2);
        let spread = [(9, 0.75, 3), (4, 0.5, 1), (2, 0.25, 2), (6, 0.0, 1)];
        let maxes = drain_by_hand(&mut t, 0, &[5], &spread, 0.2);
        assert_eq!(
            maxes,
            (0.0, 0.5),
            "hop 0 drained to nothing; 0.5/1 tops hop 1"
        );
        let live: Vec<_> = t.entries().collect();
        assert_eq!(live, vec![(1, 9, 0.75), (1, 4, 0.5), (1, 2, 0.25)]);
        assert_eq!(t.nnz(), 3);

        let maxes = drain_by_hand(&mut t, 1, &[9, 4], &[(7, 0.25, 5)], 0.2);
        assert_eq!(maxes, (0.125, 0.05), "hop 1 froze at 0.25/2");
        let frozen: Vec<_> = t.entries().collect();
        assert_eq!(frozen, vec![(1, 2, 0.25), (2, 7, 0.25)]);
        assert_eq!(t.get(1, 9), 0.0);
        assert_eq!(t.get(1, 2), 0.25);
        assert_eq!(t.get(2, 7), 0.25);
        assert_eq!(t.get(3, 2), 0.0, "hop 1's array was handed to hop 3");
        assert_eq!(t.nnz(), 2);
        let mut hop1 = Vec::new();
        t.for_each_in_hop(1, |v, r, deg| hop1.push((v, r, deg)));
        assert_eq!(hop1, vec![(2, 0.25, 2)]);
        assert!((t.total_sum() - t.total_sum_exact()).abs() < 1e-12);
    }

    #[test]
    fn a_seed_under_the_threshold_survives_hop_zero() {
        // TEA with rmax >= 1/d(seed): nothing is pushed, and the seed is
        // hop 0's one survivor. An isolated seed is pushed (settled)
        // whatever the threshold: its worklist entry carries degree 0.
        let mut t = DenseResidues::new();
        t.begin(1, 4);
        t.seed(3, 2, 0.5);
        let maxes = drain_by_hand(&mut t, 0, &[], &[], 0.5);
        assert_eq!(maxes, (0.5, 0.0));
        assert_eq!(t.entries().collect::<Vec<_>>(), vec![(0, 3, 1.0)]);

        t.begin(1, 4);
        t.seed(3, 0, 5.0);
        let maxes = drain_by_hand(&mut t, 0, &[3], &[], 5.0);
        assert_eq!(maxes, (0.0, 0.0));
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn dense_residues_reset_between_queries() {
        let mut t = DenseResidues::new();
        t.begin(3, 8);
        t.seed(2, 1, 0.1);
        drain_by_hand(&mut t, 0, &[2], &[(3, 0.25, 1)], 0.1);
        t.begin(2, 8);
        assert_eq!(t.get(0, 2), 0.0);
        assert_eq!(t.get(1, 3), 0.0);
        assert_eq!(t.total_sum(), 0.0);
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.num_hops(), 2);
    }

    #[test]
    fn workspace_assembles_sorted_estimate() {
        let mut ws = QueryWorkspace::new();
        ws.begin(16);
        ws.reserve.add(7, 0.5);
        ws.reserve.add(2, 0.25);
        ws.reserve.add(4, 0.0);
        ws.reserve.inc(7, 2);
        ws.reserve.inc(11, 1);
        let entries: Vec<_> = ws.assemble_estimate(0.1).support().collect();
        assert_eq!(entries.len(), 3, "node 4 has neither reserve nor walks");
        assert_eq!(entries[0].0, 2);
        assert!((entries[1].1 - 0.7).abs() < 1e-15); // 0.5 + 2 * 0.1
        assert_eq!(entries[2], (11, 0.1));
    }

    /// The assembly merge as it was before the reserve held the counts:
    /// the reserve's non-zero entries and the `count * mass` deposits in
    /// one list, sorted by node, each node's two entries summed.
    fn sum_by_node_reference(entries: &mut Vec<(NodeId, f64)>) {
        entries.sort_unstable_by_key(|&(v, _)| v);
        entries.dedup_by(|later, first| {
            if later.0 == first.0 {
                first.1 += later.1;
                true
            } else {
                false
            }
        });
    }

    /// The id column and the value column as bits.
    type ColumnBits = (Vec<NodeId>, Vec<u64>);

    fn bits(entries: impl Iterator<Item = (NodeId, f64)>) -> ColumnBits {
        entries.map(|(v, x)| (v, x.to_bits())).unzip()
    }

    /// Node ids below this span all four radix digits.
    const SPAN: NodeId = 1 << 25;

    /// `(assemble_estimate, sum_by_node_reference)` over one reserve
    /// filled from `reserve` and then `counts` (one entry per node in
    /// each), as columns of bits. The assembled columns are exact-length.
    fn assembled_and_reference(
        reserve: &[(NodeId, f64)],
        counts: &[(NodeId, u64)],
        mass: f64,
    ) -> (ColumnBits, ColumnBits) {
        let mut ws = QueryWorkspace::new();
        ws.begin(SPAN as usize);
        for &(v, q) in reserve {
            ws.reserve.add(v, q);
        }
        for &(v, c) in counts {
            ws.reserve.inc(v, c);
        }
        let got = ws.assemble_estimate(mass);
        assert_eq!(got.memory_bytes(), estimate_bytes(got.nnz()));
        let deposits = counts.iter().map(|&(v, c)| (v, c as f64 * mass));
        let mut want: Vec<_> = reserve.iter().copied().filter(|e| e.1 != 0.0).collect();
        want.extend(deposits);
        sum_by_node_reference(&mut want);
        (bits(got.support()), bits(want.into_iter()))
    }

    #[test]
    fn radix_assembly_edge_cases() {
        let top = SPAN - 1;
        type Case<'a> = (&'a [(NodeId, f64)], &'a [(NodeId, u64)]);
        let cases: [Case; 7] = [
            (&[], &[]),
            (&[(7, 0.5)], &[]),
            (&[], &[(7, 3)]),
            (&[(9, 0.0)], &[]),
            (&[(1 << 24, 0.5)], &[(1 << 24, 2)]),
            (
                &[(top, 1.0), (0, 2.0), (1 << 16, 3.0)],
                &[(top, 5), (1 << 8, 1)],
            ),
            (
                &[(300, 0.1), (44, 0.0), ((1 << 16) + 44, 0.4)],
                &[(300, 3), (44, 2), (1 << 24, 1)],
            ),
        ];
        for (reserve, counts) in cases {
            for mass in [0.0, 0.1, 1.0 / 3.0, 2.5] {
                let (got, want) = assembled_and_reference(reserve, counts, mass);
                assert_eq!(got, want, "{reserve:?} {counts:?} mass {mass}");
            }
        }
    }

    #[test]
    fn assembly_buffer_is_accounted_and_released() {
        let mut ws = QueryWorkspace::new();
        let fresh = ws.memory_bytes();
        ws.begin(4096);
        for v in 0..1_000 {
            ws.reserve.add(v * 3, 0.5);
            ws.reserve.inc(v * 4, 1);
        }
        let before = ws.memory_bytes();
        let estimate = ws.assemble_estimate(0.25);
        assert_eq!(estimate.nnz(), 1_000 + 1_000 - 250);
        // The scatter buffer stays with the workspace; the estimate takes
        // only its columns.
        let tmp = ws.radix_tmp.capacity() * std::mem::size_of::<(NodeId, f64)>();
        assert!(tmp >= estimate.nnz() * std::mem::size_of::<(NodeId, f64)>());
        assert_eq!(ws.memory_bytes(), before + tmp);
        ws.reset();
        assert_eq!(ws.memory_bytes(), fresh);
    }

    #[test]
    fn memory_accounting_grows_and_resets() {
        let mut ws = QueryWorkspace::new();
        let fresh = ws.memory_bytes();
        ws.begin(4096);
        ws.reserve.add(17, 1.0);
        ws.reserve.inc(40, 2);
        ws.residues.begin(3, 4096);
        ws.residues.seed(9, 1, 0.5);
        // Three indexes: the reserve (which holds the endpoint counts
        // too) and two live residue hops.
        let grown = ws.memory_bytes();
        assert!(
            grown >= fresh + 3 * 4096 * INDEX_SLOT,
            "grown {grown} vs fresh {fresh}"
        );
        // The records hold what was touched, not one value per node.
        assert!(
            grown < fresh + 4 * 4096 * INDEX_SLOT,
            "grown {grown} vs fresh {fresh}"
        );
        ws.reset();
        assert_eq!(ws.memory_bytes(), fresh);
        // The workspace stays usable after a reset.
        ws.begin(16);
        ws.reserve.add(3, 0.5);
        assert_eq!(ws.reserve.get(3), (0.5, 0));
    }

    #[test]
    fn workspace_accounts_walk_engine_buffers() {
        // The serve cache budgets worker memory via memory_bytes(); the
        // walk engine's presampled-walk lane buffers — the helper
        // thread's, with its endpoint log, too — must be visible in it
        // after a real query, and reset() must hand everything back.
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(50);
        let g = holme_kim(3_000, 5, 0.4, &mut rng).unwrap();
        let params = crate::HkprParams::builder(&g)
            .delta(1e-4)
            .p_f(1e-3)
            .build()
            .unwrap();
        let opts = crate::TeaPlusOptions {
            early_exit: false,
            ..Default::default()
        };
        let mut ws = QueryWorkspace::new();
        let fresh = ws.memory_bytes();
        let out = complete(&g, &params, 0, Estimator::TeaPlus(opts), &mut rng, &mut ws).unwrap();
        assert!(
            out.stats.random_walks > 0,
            "fixture must exercise the walk phase"
        );
        let walk_bytes = ws.walk_scratch.memory_bytes();
        assert!(walk_bytes > 0, "walk scratch must have grown");
        assert!(ws.memory_bytes() >= fresh + walk_bytes);
        // A plan of two or more chunks ran on two threads wherever the
        // process may use a second core: the helper's four window buffers,
        // each sized to a chunk's worst case, and its log of one entry per
        // walk of a pass (2^17 walks at most), are part of the walk scratch.
        let chunks = ws.walk_scratch.chunk_walk_prefix().len() - 1;
        assert!(chunks >= 2, "fixture must plan two chunks: {chunks}");
        let helper_bytes = ws.walk_scratch.helper_bytes();
        if crate::cores::second_core() {
            // A walk's length in a window buffer, its endpoint in the log:
            // four bytes each.
            let least = (4 * (2 * 4096 - 1) + (1 << 17)) * 4;
            assert!(helper_bytes >= least, "{helper_bytes} < {least}");
            assert!(walk_bytes >= helper_bytes);
        } else {
            assert_eq!(helper_bytes, 0);
        }
        ws.reset();
        assert_eq!(ws.memory_bytes(), fresh);
        assert_eq!(ws.walk_scratch.helper_bytes(), 0);
    }

    #[test]
    fn endpoint_counter_is_sized_by_the_first_walk_and_never_leaks() {
        use crate::estimate::QueryStats;
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let g = holme_kim(5_000, 5, 0.4, &mut SmallRng::seed_from_u64(70)).unwrap();
        let params = |t: f64, delta: f64| {
            crate::HkprParams::builder(&g)
                .t(t)
                .delta(delta)
                .p_f(1e-3)
                .build()
                .unwrap()
        };
        let (walking, exiting) = (params(20.0, 2e-4), params(5.0, 1e-3));
        type Bits = (QueryStats, u64, Vec<(NodeId, u64)>);
        let bits = |out: crate::TeaOutput| -> Bits {
            let support = out.estimate.support().map(|(v, x)| (v, x.to_bits()));
            (
                out.stats,
                out.estimate.offset_coeff().to_bits(),
                support.collect(),
            )
        };
        let tea_plus = |p: &crate::HkprParams, seed: NodeId, ws: &mut QueryWorkspace| {
            let mut rng = SmallRng::seed_from_u64(71 + seed as u64);
            bits(complete(&g, p, seed, TEA_PLUS, &mut rng, ws).unwrap())
        };
        let monte_carlo = |seed: NodeId, ws: &mut QueryWorkspace| {
            let mut rng = SmallRng::seed_from_u64(72);
            let walks = Some(5_000);
            let mc = Estimator::MonteCarlo { max_walks: walks };
            bits(complete(&g, &exiting, seed, mc, &mut rng, ws).unwrap())
        };

        // A walk, then an early exit, then Monte-Carlo on one workspace:
        // each answers as on a fresh one, so neither the walk's deposits
        // nor the early exit's reserve reach the next assembly.
        let mut shared = QueryWorkspace::new();
        let walked = tea_plus(&walking, 3, &mut shared);
        assert!(walked.0.random_walks > 0 && !walked.0.early_exit);
        assert_eq!(walked, tea_plus(&walking, 3, &mut QueryWorkspace::new()));
        let exited = tea_plus(&exiting, 9, &mut shared);
        assert!(exited.0.early_exit && exited.0.random_walks == 0);
        assert_eq!(exited, tea_plus(&exiting, 9, &mut QueryWorkspace::new()));
        let sampled = monte_carlo(5, &mut shared);
        assert_eq!(sampled.0.random_walks, 5_000);
        assert_eq!(sampled, monte_carlo(5, &mut QueryWorkspace::new()));
        // And back: a walk after Monte-Carlo reads none of its counts.
        assert_eq!(walked, tea_plus(&walking, 3, &mut shared));
    }

    #[test]
    fn footprint_does_not_grow_with_the_hop_cap() {
        // `memory_bytes` promises three node indexes for a push-only
        // query. The hop cap K comes from delta and c, not from t
        // (Equation 20), so the second query raises c alone: the same
        // reach, over twice the hop levels, and not one more index.
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let n = 100_000usize;
        let g = holme_kim(n, 5, 0.4, &mut SmallRng::seed_from_u64(60)).unwrap();
        let index = n * INDEX_SLOT;
        let footprint = |t: f64, delta: f64, c: f64| {
            let params = crate::HkprParams::builder(&g)
                .t(t)
                .delta(delta)
                .c(c)
                .p_f(1e-3)
                .build()
                .unwrap();
            let mut ws = QueryWorkspace::new();
            let mut rng = SmallRng::seed_from_u64(61);
            complete(&g, &params, 7, TEA_PLUS, &mut rng, &mut ws).unwrap();
            (params.hop_cap(), ws.memory_bytes())
        };
        let (k_low, low) = footprint(5.0, 1e-3, 2.5);
        let (k_high, high) = footprint(5.0, 1e-3, 6.0);
        assert!(k_high >= 2 * k_low, "hop caps {k_low} and {k_high}");
        // Both queries end in the push phase; walking or not, a
        // workspace holds three indexes.
        for bytes in [low, high] {
            assert!(bytes >= 3 * index, "reserve, two live hops");
            assert!(bytes - 3 * index < 8 * n, "{bytes} bytes for n = {n}");
        }
        // Records, worklists, frozen survivors and walk scratch grow with
        // what a query touches; together they stay under one index.
        assert!(low.abs_diff(high) < index, "{low} vs {high} bytes");
    }

    /// `g` rebuilt with isolated nodes up to `nodes`.
    fn padded(g: &Graph, nodes: usize) -> Graph {
        let mut b = hk_graph::GraphBuilder::new();
        for v in 0..g.num_nodes() as NodeId {
            for &u in g.neighbors(v) {
                b.add_edge(v, u);
            }
        }
        b.ensure_nodes(nodes);
        b.build()
    }

    #[test]
    fn push_only_footprint_is_three_indexes_plus_what_the_query_touched() {
        // The same push-only query on a graph and on the graph padded with
        // isolated nodes touches the same nodes in the same order, so the
        // two workspaces differ by exactly three indexes' worth of padding:
        // nothing else a workspace holds is sized by the graph.
        use crate::anytime::AnytimeControls;
        use crate::poisson::PoissonTable;
        use crate::push_plus::{hk_push_plus_ws, PushPlusConfig};
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let (n, pad) = (50_000usize, 50_000usize);
        let g = holme_kim(n, 5, 0.4, &mut SmallRng::seed_from_u64(80)).unwrap();
        let cfg = PushPlusConfig {
            hop_cap: 8,
            eps_abs: 1e-3,
            budget: u64::MAX,
        };
        let poisson = PoissonTable::new(5.0);
        let footprint = |graph: &Graph| {
            let mut ws = QueryWorkspace::new();
            let controls = &mut AnytimeControls::default();
            let stats = hk_push_plus_ws(graph, &poisson, 7, &cfg, controls, &mut ws);
            (stats, ws)
        };
        let (stats, ws) = footprint(&padded(&g, n));
        let (padded_stats, padded_ws) = footprint(&padded(&g, n + pad));
        assert_eq!(stats, padded_stats);
        assert!(stats.push_operations > 0 && stats.push_operations < n as u64);
        assert_eq!(
            padded_ws.memory_bytes() - ws.memory_bytes(),
            3 * pad * INDEX_SLOT
        );
        // Past the three indexes, the lists hold what the query touched:
        // per push operation (and for the seed) at most a reserve record
        // (24 bytes, with room for a walk count), a record in either live
        // hop, a survivor and a worklist entry — 84 bytes — at most twice
        // over for vector doubling. And they hold less than another index
        // would.
        let touched = stats.push_operations as usize + 1;
        let rest = ws.memory_bytes() - 3 * n * INDEX_SLOT;
        assert!(
            rest <= 2 * 84 * touched,
            "{rest} bytes for {touched} touches"
        );
        assert!(rest < n * INDEX_SLOT, "{rest} bytes beside the indexes");
    }

    #[test]
    fn walking_footprint_is_three_indexes_plus_what_the_query_touched() {
        // The walking counterpart of the push-only test: a TEA+ query that
        // walks and a Monte-Carlo query, each on a graph and on the graph
        // padded with isolated nodes. The params are built once, so both
        // runs plan the same walks, and no walk reaches an isolated node,
        // so both touch the same nodes. TEA+ then differs by its three
        // indexes' worth of padding — the endpoint counts add none — and
        // Monte-Carlo, which never pushes, by the reserve's alone.
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let (n, pad) = (5_000usize, 5_000usize);
        let g = holme_kim(n, 5, 0.4, &mut SmallRng::seed_from_u64(70)).unwrap();
        let params = crate::HkprParams::builder(&g)
            .t(20.0)
            .delta(2e-4)
            .p_f(1e-3)
            .build()
            .unwrap();
        let footprint = |graph: &Graph, push: bool| {
            let mut ws = QueryWorkspace::new();
            let mut rng = SmallRng::seed_from_u64(71);
            let out = if push {
                complete(graph, &params, 3, TEA_PLUS, &mut rng, &mut ws)
            } else {
                let mc = Estimator::MonteCarlo {
                    max_walks: Some(5_000),
                };
                complete(graph, &params, 3, mc, &mut rng, &mut ws)
            };
            (out.unwrap().stats, ws.memory_bytes())
        };
        for (push, indexes) in [(true, 3), (false, 1)] {
            let (stats, bytes) = footprint(&padded(&g, n), push);
            let (padded_stats, padded_bytes) = footprint(&padded(&g, n + pad), push);
            assert_eq!(stats, padded_stats);
            assert!(stats.random_walks > 0 && !stats.early_exit);
            assert_eq!(
                padded_bytes - bytes,
                indexes * pad * INDEX_SLOT,
                "push {push}"
            );
        }
    }

    /// What an exact-length estimate of `nnz` pairs holds: 12 bytes a
    /// pair, no padding, plus its header.
    fn estimate_bytes(nnz: usize) -> usize {
        12 * nnz + std::mem::size_of::<HkprEstimate>()
    }

    #[test]
    fn assembled_estimates_hold_twelve_bytes_per_pair() {
        // The serving cache charges `memory_bytes`; an estimate fresh from
        // the workspace must hold exactly its pairs — no spare capacity
        // and no padding — after a push-only TEA+ query, a walking one
        // and a Monte-Carlo one.
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let g = holme_kim(5_000, 5, 0.4, &mut SmallRng::seed_from_u64(70)).unwrap();
        let params = |t: f64, delta: f64| {
            crate::HkprParams::builder(&g)
                .t(t)
                .delta(delta)
                .p_f(1e-3)
                .build()
                .unwrap()
        };
        let (walking, exiting) = (params(20.0, 2e-4), params(5.0, 1e-3));
        let mut ws = QueryWorkspace::new();
        let mut rng = SmallRng::seed_from_u64(73);
        let push_only = complete(&g, &exiting, 9, TEA_PLUS, &mut rng, &mut ws).unwrap();
        assert!(push_only.stats.early_exit && push_only.stats.random_walks == 0);
        let walked = complete(&g, &walking, 3, TEA_PLUS, &mut rng, &mut ws).unwrap();
        assert!(walked.stats.random_walks > 0 && !walked.stats.early_exit);
        let mc = Estimator::MonteCarlo {
            max_walks: Some(5_000),
        };
        let sampled = complete(&g, &exiting, 5, mc, &mut rng, &mut ws);
        let sampled = sampled.unwrap();
        for out in [push_only, walked, sampled] {
            let e = &out.estimate;
            assert!(e.nnz() > 1);
            assert_eq!(e.memory_bytes(), estimate_bytes(e.nnz()), "{:?}", out.stats);
        }
    }

    proptest::proptest! {
        /// The folded assembly equals the comparison sort + two-operand
        /// merge of the reserve's non-zero entries and the walk deposits
        /// bit for bit: on ids spread over every digit, with nodes in the
        /// reserve (zero reserves among them), the counts or both, at
        /// several masses, 0 included.
        #[test]
        fn radix_assembly_matches_a_comparison_sort(
            draws in proptest::collection::vec(
                (0usize..4, 0u32..3_000, 0u32..3, 0.0f64..1.0, 1u64..50),
                0..400,
            ),
            mass in 0usize..4,
        ) {
            let bases = [0, 1 << 16, 1 << 24, SPAN - 3_000];
            let mut seen = std::collections::HashSet::new();
            let (mut reserve, mut counts) = (Vec::new(), Vec::new());
            for (base, low, source, x, c) in draws {
                let v = bases[base] + low;
                if !seen.insert(v) {
                    continue;
                }
                if source != 1 {
                    reserve.push((v, if c % 7 == 0 { 0.0 } else { x }));
                }
                if source != 0 {
                    counts.push((v, c));
                }
            }
            let mass = [0.0, 1e-3, 0.37, 1.0 / 3.0][mass];
            let (got, want) = assembled_and_reference(&reserve, &counts, mass);
            proptest::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn phase_times_recorded_per_run() {
        assert_eq!(
            QueryWorkspace::new().last_phase_times(),
            PhaseTimes::default()
        );
        let mut ws = QueryWorkspace::new();
        ws.set_phase_times(5, 7);
        assert_eq!(
            ws.last_phase_times(),
            PhaseTimes {
                push_ns: 5,
                walk_ns: 7
            }
        );
    }
}
