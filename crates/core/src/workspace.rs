//! Epoch-stamped dense per-query workspace.
//!
//! The hot loops of TEA / TEA+ — residue propagation, reserve
//! accumulation, and per-walk mass deposits — are all keyed by `u32` node
//! ids. The seed implementation routed every one of those operations
//! through an `FxHashMap`, paying hashing, probing and allocation on each
//! touch. This module replaces the maps with **dense arrays + epoch
//! stamps**:
//!
//! * each slot carries a `u32` stamp; a slot is *live* only when its stamp
//!   equals the current epoch, so "clearing" the structure between queries
//!   is one integer increment — no `memset`, no allocation;
//! * every first touch of a slot is recorded in a *touched list*, which is
//!   what converts the dense arrays back into the sparse outputs
//!   (`HkprEstimate`, residue entries) in O(touched) rather than O(n);
//! * a [`QueryWorkspace`] owns all of the buffers an end-to-end query
//!   needs (reserve, residues, walk-endpoint counters, worklists, walk
//!   scratch), so a long-lived serving thread allocates once and runs
//!   arbitrarily many queries allocation-free;
//! * the output is assembled from the touched lists, sorted by node id
//!   with an LSD radix sort whose scatter buffer the workspace keeps, so
//!   assembly too is O(touched).
//!
//! The push phases work hop by hop, and while hop `k` drains only hops
//! `k` and `k + 1` are ever written. [`DenseResidues`] therefore keeps
//! **two** dense arrays, whatever the hop count: a drained hop's
//! survivors are compacted into a contiguous list and its array is
//! reused two hops later. It answers the same questions as
//! [`crate::sparse::ResidueTable`] (per-hop vectors `r^(0..K)` with
//! incrementally maintained hop sums for `alpha` and `beta_k`), and the
//! workspace additionally maintains the per-hop residue maxima that make
//! the TEA+ condition-(11) check incremental (see
//! [`crate::push_plus::hk_push_plus_ws`]).

use hk_graph::{Graph, NodeId};

/// One dense slot: epoch stamp + payload, kept adjacent so a random
/// access touches one cache line instead of two parallel arrays. For
/// `f64` payloads the stamp's alignment padding holds a memoized node
/// degree (see [`EpochVec::add_memo_deg`]) at no size cost.
#[derive(Clone, Copy, Debug, Default)]
struct Slot<T> {
    stamp: u32,
    deg: u32,
    value: T,
}

/// How far ahead of their cursor the touched-list scans prefetch slots:
/// the list is known in full, so the random slot read of entry `i + 32`
/// overlaps the work on entry `i`.
const SCAN_AHEAD: usize = 32;

/// Hint the CPU to pull slot `v` into L1. A no-op for an out-of-range
/// `v` and on architectures without a stable prefetch intrinsic.
#[inline(always)]
fn prefetch_slot<T>(slots: &[Slot<T>], v: NodeId) {
    #[cfg(target_arch = "x86_64")]
    if let Some(slot) = slots.get(v as usize) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: the address is that of a live reference; prefetch has
        // no other effect.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(slot as *const Slot<T> as *const i8) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (slots, v);
}

/// One surviving residue of a drained hop: what a slot held when its hop
/// froze, in a form the residue readers walk sequentially.
#[derive(Clone, Copy, Debug)]
struct Frozen {
    node: NodeId,
    deg: u32,
    value: f64,
}

/// Dense `f64` vector with O(1) logical clear via epoch stamps and a
/// touched-node list for sparse read-back.
#[derive(Clone, Debug, Default)]
pub struct EpochVec {
    epoch: u32,
    slots: Vec<Slot<f64>>,
    touched: Vec<NodeId>,
}

impl EpochVec {
    /// Empty vector; [`begin`](Self::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh query over a domain of `n` slots: bump the epoch
    /// (logically zeroing every slot) and grow the backing arrays if the
    /// graph got bigger. O(1) unless growing.
    pub fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        if self.epoch == u32::MAX {
            // Epoch wrap (once per 4 billion queries): hard-reset stamps.
            for s in &mut self.slots {
                s.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Current value of slot `v` (0 when untouched this epoch).
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        let s = &self.slots[v as usize];
        if s.stamp == self.epoch {
            s.value
        } else {
            0.0
        }
    }

    /// Hint the CPU to pull slot `v` into L1 ahead of a
    /// [`get`](Self::get) / [`add`](Self::add) / [`take`](Self::take) on
    /// it. Bounds-checked; changes no state.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        prefetch_slot(&self.slots, v);
    }

    /// Add `delta` to slot `v`; returns `(old, new)` so callers can detect
    /// threshold crossings.
    #[inline]
    pub fn add(&mut self, v: NodeId, delta: f64) -> (f64, f64) {
        let epoch = self.epoch;
        let s = &mut self.slots[v as usize];
        if s.stamp == epoch {
            let old = s.value;
            s.value = old + delta;
            (old, old + delta)
        } else {
            s.stamp = epoch;
            s.value = delta;
            self.touched.push(v);
            (0.0, delta)
        }
    }

    /// [`add`](Self::add) that also memoizes the node's degree in the
    /// slot's padding: `deg_of` runs on first touch only, and repeat
    /// touches read the degree from the cache line the add already
    /// loaded. The push kernels touch each frontier node `~d` times, so
    /// this converts all but one of the per-neighbor degree lookups into
    /// free reads.
    #[inline]
    pub fn add_memo_deg(
        &mut self,
        v: NodeId,
        delta: f64,
        deg_of: impl FnOnce() -> u32,
    ) -> (f64, f64, u32) {
        let epoch = self.epoch;
        let s = &mut self.slots[v as usize];
        if s.stamp == epoch {
            let old = s.value;
            s.value = old + delta;
            (old, old + delta, s.deg)
        } else {
            s.stamp = epoch;
            s.value = delta;
            s.deg = deg_of();
            self.touched.push(v);
            (0.0, delta, s.deg)
        }
    }

    /// Zero slot `v`, returning the previous value. The slot stays on the
    /// touched list (its value is just 0).
    #[inline]
    pub fn take(&mut self, v: NodeId) -> f64 {
        let epoch = self.epoch;
        let s = &mut self.slots[v as usize];
        if s.stamp == epoch {
            let old = s.value;
            s.value = 0.0;
            old
        } else {
            0.0
        }
    }

    /// Nodes touched this epoch, in first-touch order. Values may have
    /// since returned to 0 (e.g. drained residues); read through
    /// [`get`](Self::get).
    #[inline]
    pub fn touched(&self) -> &[NodeId] {
        &self.touched
    }

    /// Iterate `(node, value)` for touched slots with non-zero value, in
    /// first-touch order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.iter_nonzero_with_deg().map(|(v, x, _)| (v, x))
    }

    /// [`iter_nonzero`](Self::iter_nonzero) plus each slot's memoized
    /// degree (only meaningful when entries were written through
    /// [`add_memo_deg`](Self::add_memo_deg)). Lets residue consumers
    /// (condition-(11) scans, TEA+ reduction) skip the per-entry degree
    /// lookup — the value rides in the cache line already loaded.
    pub fn iter_nonzero_with_deg(&self) -> impl Iterator<Item = (NodeId, f64, u32)> + '_ {
        self.touched.iter().enumerate().filter_map(move |(i, &v)| {
            if let Some(&ahead) = self.touched.get(i + SCAN_AHEAD) {
                prefetch_slot(&self.slots, ahead);
            }
            let s = &self.slots[v as usize];
            (s.value != 0.0).then_some((v, s.value, s.deg))
        })
    }

    /// Number of touched slots this epoch (including re-zeroed ones).
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// `max_v value[v] / deg[v]` over this epoch's non-zero slots (0.0
    /// when none) — the TEA+ condition-(11) residue probe. Only
    /// meaningful when entries were written through
    /// [`add_memo_deg`](Self::add_memo_deg) (degree memoized, `deg >= 1`).
    pub fn max_value_over_deg(&self) -> f64 {
        let mut max = 0.0f64;
        for (_, r, deg) in self.iter_nonzero_with_deg() {
            let norm = r / deg as f64;
            if norm > max {
                max = norm;
            }
        }
        max
    }

    /// One pass over the touched list for the two questions a hop level
    /// raises once it has stopped receiving mass. Returns `(max_all,
    /// max_kept)`: [`max_value_over_deg`](Self::max_value_over_deg), and
    /// the same maximum over the slots with `value <= thr_coeff * deg` —
    /// which are appended to `out`, non-zero ones only, in first-touch
    /// order. The quotient and the `!= 0.0` filter are the scan's own and
    /// a max is fold-order-free, so `max_all` is the scan's bit for bit.
    fn sift_into(&self, thr_coeff: f64, out: &mut Vec<Frozen>) -> (f64, f64) {
        let (mut max_all, mut max_kept) = (0.0f64, 0.0f64);
        for (node, value, deg) in self.iter_nonzero_with_deg() {
            let norm = value / deg as f64;
            if norm > max_all {
                max_all = norm;
            }
            if value <= thr_coeff * deg as f64 {
                out.push(Frozen { node, deg, value });
                if norm > max_kept {
                    max_kept = norm;
                }
            }
        }
        (max_all, max_kept)
    }

    /// Bytes held by the backing allocations.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<f64>>()
            + self.touched.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Release the backing allocations (next [`begin`](Self::begin)
    /// re-grows from empty).
    fn release(&mut self) {
        self.slots = Vec::new();
        self.touched = Vec::new();
        self.epoch = 0;
    }
}

/// Dense `u64` counter vector with epoch-stamped O(1) clear — the walk
/// engine's endpoint accumulator. Counts (not `f64` masses) make parallel
/// merging *exact*: integer addition is associative, so the merged result
/// is bit-identical regardless of chunk-to-thread assignment.
///
/// The slots are sized by whoever is about to deposit
/// ([`begin`](Self::begin): the two walk planners), never ahead of time:
/// a counter that is only ever cleared and read holds no memory, so a
/// workspace whose queries all end in the push phase never allocates — or
/// zero-fills, or page-faults — an `n`-slot array it would not read.
#[derive(Clone, Debug, Default)]
pub struct EpochCounter {
    epoch: u32,
    slots: Vec<Slot<u64>>,
    touched: Vec<NodeId>,
}

impl EpochCounter {
    /// Empty counter; [`begin`](Self::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh accumulation over `n` slots: grow to `n` if smaller,
    /// then forget every count. Must precede the first
    /// [`inc`](Self::inc) of an accumulation.
    pub fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, Slot::default());
        }
        self.clear();
    }

    /// Forget every count in O(1) without sizing anything: afterwards
    /// [`iter`](Self::iter) is empty whatever was deposited before.
    fn clear(&mut self) {
        if self.epoch == u32::MAX {
            for s in &mut self.slots {
                s.stamp = 0;
            }
            self.epoch = 0;
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Add `by` to slot `v`.
    #[inline]
    pub fn inc(&mut self, v: NodeId, by: u64) {
        let epoch = self.epoch;
        let s = &mut self.slots[v as usize];
        if s.stamp == epoch {
            s.value += by;
        } else {
            s.stamp = epoch;
            s.value = by;
            self.touched.push(v);
        }
    }

    /// Hint the CPU to pull slot `v` into L1 ahead of an
    /// [`inc`](Self::inc) on it. Bounds-checked; changes no state.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        prefetch_slot(&self.slots, v);
    }

    /// Current count of slot `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> u64 {
        let s = &self.slots[v as usize];
        if s.stamp == self.epoch {
            s.value
        } else {
            0
        }
    }

    /// Iterate `(node, count)` for touched slots, in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.touched
            .iter()
            .map(move |&v| (v, self.slots[v as usize].value))
    }

    /// Fold another counter into this one (exact integer merge).
    pub fn merge_from(&mut self, other: &EpochCounter) {
        for (v, c) in other.iter() {
            self.inc(v, c);
        }
    }

    /// Bytes held by the backing allocations.
    pub fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<u64>>()
            + self.touched.capacity() * std::mem::size_of::<NodeId>()
    }

    /// Release the backing allocations.
    fn release(&mut self) {
        self.slots = Vec::new();
        self.touched = Vec::new();
        self.epoch = 0;
    }
}

/// Dense multi-hop residue store: the epoch-stamped counterpart of
/// [`crate::sparse::ResidueTable`]. Hop sums are maintained incrementally
/// (TEA's `alpha`, TEA+'s `beta_k`).
///
/// The push phases drain hop `0`, then hop `1`, … and while hop `k`
/// drains they write hops `k` and `k + 1` only. So the store holds two
/// dense arrays — hop `k` lives in `live[k & 1]` — and a drained hop's
/// non-zero survivors sit, in first-touch order, on one contiguous list
/// while its array serves hop `k + 2` after an epoch bump. The footprint
/// is two arrays plus the survivors, whatever the hop count.
///
/// Each hop's array is scanned once, when the hop below it has drained
/// and it stops receiving mass (`sift`). A node is on hop
/// `k`'s worklist exactly if its residue ended above the push threshold,
/// and a drain zeroes every node on its worklist, so the entries at or
/// under the threshold at that moment *are* hop `k`'s survivors, final
/// values and all: the scan that computes hop `k`'s running maximum for
/// condition (11) also lays them out, and `freeze`
/// merely commits them once the drain has run to its end. A drain cut
/// short (budget, cancel, early exit) commits nothing and its hop stays
/// live, as does the last hop, which is never drained; readers walk the
/// frozen lists sequentially and look into a live array only for those.
#[derive(Clone, Debug, Default)]
pub struct DenseResidues {
    /// Hop `k >= frozen_end.len()` lives in `live[k & 1]`; hops from
    /// `frozen_end.len() + 2` up hold nothing yet.
    live: [EpochVec; 2],
    /// Survivors of the drained hops, hop-major, then — uncommitted —
    /// those the last `sift` set aside for the first live
    /// hop.
    frozen: Vec<Frozen>,
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
    /// Empty store; [`begin`](Self::begin) shapes it.
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
    fn frozen_hop(&self, k: usize) -> &[Frozen] {
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
    /// is hop 0's `sift`. Like every later entry, the slot
    /// memoizes the degree clamped to 1.
    pub(crate) fn seed(&mut self, seed: NodeId, degree: usize, thr_coeff: f64) {
        let deg = degree.max(1) as u32;
        self.live[0].add_memo_deg(seed, 1.0, || deg);
        self.hop_sums[0] += 1.0;
        if 1.0 <= thr_coeff * degree as f64 {
            self.frozen.push(Frozen {
                node: seed,
                deg,
                value: 1.0,
            });
            self.sifted_max = 1.0 / deg as f64;
        }
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

    /// Bytes held by the backing allocations: the two live arrays plus
    /// the frozen survivors — independent of the hop count.
    pub fn memory_bytes(&self) -> usize {
        self.live.iter().map(EpochVec::memory_bytes).sum::<usize>()
            + self.frozen.capacity() * std::mem::size_of::<Frozen>()
            + self.frozen_end.capacity() * std::mem::size_of::<usize>()
            + self.hop_sums.capacity() * std::mem::size_of::<f64>()
    }

    /// Release the backing allocations.
    fn release(&mut self) {
        *self = Self::default();
    }
}

/// Wall-clock split of the last estimator run on a workspace, in
/// nanoseconds. Recorded by `tea_in`, `tea_plus_in` and `monte_carlo_in`
/// for serving-layer telemetry; deliberately *not* part of
/// [`crate::QueryStats`], whose fields are deterministic counters that
/// serving tests compare bit-for-bit across thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTimes {
    /// Time spent in the push phase (HK-Push / HK-Push+ / walk-length
    /// pre-sampling for Monte-Carlo).
    pub push_ns: u64,
    /// Time spent after the push phase: residue reduction (TEA+), the
    /// batched walk engine, and estimate assembly.
    pub walk_ns: u64,
}

/// Reusable per-query workspace: every buffer an end-to-end TEA / TEA+ /
/// Monte-Carlo query needs, allocated once and logically cleared in O(1)
/// between queries.
///
/// ```
/// use hk_graph::gen::holme_kim;
/// use hkpr_core::{tea_plus_in, HkprParams, QueryWorkspace};
/// use rand::{rngs::SmallRng, SeedableRng};
///
/// let mut rng = SmallRng::seed_from_u64(5);
/// let g = holme_kim(500, 4, 0.3, &mut rng).unwrap();
/// let params = HkprParams::builder(&g).delta(1e-3).build().unwrap();
/// let mut ws = QueryWorkspace::new();
/// // One workspace serves any number of queries, allocation-free after
/// // the first.
/// for seed in [0u32, 17, 401] {
///     let out = tea_plus_in(&g, &params, seed, &mut rng, &mut ws).unwrap();
///     assert!(out.estimate.raw_sum() <= 1.0 + 1e-9);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct QueryWorkspace {
    /// Reserve vector `q_s`.
    pub(crate) reserve: EpochVec,
    /// Residue vectors `r^(0..K)`.
    pub(crate) residues: DenseResidues,
    /// Walk-endpoint counts.
    pub(crate) counts: EpochCounter,
    /// Per-hop push worklists (reused). Entries carry the node's degree —
    /// known for free at the enqueue site — so a pop costs one sequential
    /// load instead of an extra random read of the degree array.
    pub(crate) queues: Vec<Vec<(NodeId, u32)>>,
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
    /// Checkpoint of the resumable push ladder over the buffers above
    /// (see [`crate::push_plus::PushResumeState`]): plain scalars, valid
    /// only between `hk_push_plus_begin` and the next `begin`.
    pub(crate) push_resume: crate::push_plus::PushResumeState,
    /// Phase-time split of the last estimator run (telemetry only).
    pub(crate) phase_times: PhaseTimes,
    /// Cooperative cancellation flag for the query in flight, polled at
    /// hop boundaries (push kernels) and chunk boundaries (walk engine).
    cancel: Option<crate::cancel::CancelToken>,
    /// Walk-phase worker threads (1 = run chunks inline).
    threads: usize,
}

/// `Default` must agree with [`QueryWorkspace::new`]: in particular the
/// thread count starts at 1 (run walk chunks inline), not 0. The previous
/// derived impl left the field at 0 and relied on every reader clamping —
/// a `Debug`-visible inconsistency that this manual impl removes.
impl Default for QueryWorkspace {
    fn default() -> Self {
        QueryWorkspace {
            reserve: EpochVec::new(),
            residues: DenseResidues::new(),
            counts: EpochCounter::new(),
            queues: Vec::new(),
            entries: Vec::new(),
            weights: Vec::new(),
            walk_scratch: crate::walk::WalkScratch::default(),
            radix_tmp: Vec::new(),
            hop_max_hint: Vec::new(),
            hop_max_frozen: Vec::new(),
            push_resume: crate::push_plus::PushResumeState::default(),
            phase_times: PhaseTimes::default(),
            cancel: None,
            threads: 1,
        }
    }
}

impl QueryWorkspace {
    /// Workspace running the walk phase on the calling thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Workspace fanning walk chunks over `threads` workers (clamped to at
    /// least 1). Results are bit-identical for any thread count: the chunk
    /// decomposition and per-chunk RNG streams depend only on the master
    /// seed, and endpoint *counts* merge exactly.
    pub fn with_threads(threads: usize) -> Self {
        let mut ws = Self::default();
        ws.set_threads(threads);
        ws
    }

    /// Change the walk-phase thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// Walk-phase thread count.
    pub fn threads(&self) -> usize {
        debug_assert!(self.threads >= 1);
        self.threads
    }

    /// Wall-clock phase split of the last TEA / TEA+ / Monte-Carlo run on
    /// this workspace. Zero for estimators that do not use the workspace
    /// (ClusterHKPR, HK-Relax, exact power iteration, the PPR baselines).
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

    /// Zero the recorded phase split. Serving loops call this before
    /// dispatching to an arbitrary estimator so a method that does not
    /// use the workspace (exact power iteration, HK-Relax, the PPR
    /// baselines) cannot report the previous query's timings.
    pub fn clear_phase_times(&mut self) {
        self.phase_times = PhaseTimes::default();
    }

    /// Read access to the reserve vector of the last push phase run on
    /// this workspace (equivalence tests and custom estimator assembly).
    pub fn reserve(&self) -> &EpochVec {
        &self.reserve
    }

    /// Read access to the residue table of the last push phase run on
    /// this workspace.
    pub fn residues(&self) -> &DenseResidues {
        &self.residues
    }

    /// The per-hop upper bounds on `max_v r^(k)[v] / d(v)` that the last
    /// [`hk_push_plus_finalize`](crate::push_plus::hk_push_plus_finalize)
    /// on this workspace published, hop `0..=K`: exact for every hop
    /// whose drain ran to its end, and for hop `K`; a monotone
    /// over-estimate for a hop a stop cut short. TEA+'s residue reduction
    /// skips hop levels by them.
    pub fn residue_bounds(&self) -> &[f64] {
        &self.hop_max_frozen
    }

    /// Bytes held by every backing allocation of this workspace. A
    /// steady-state serving worker's footprint is `O(n)` dense slots —
    /// three arrays (reserve, two live residue hops) and, once a query
    /// on it has walked, a fourth (endpoint counts),
    /// whatever the hop cap — plus the touched lists and the frozen
    /// residue survivors; serving layers use this (together with the
    /// result-side accounting in `HkprEstimate::memory_bytes`) to budget
    /// cache memory against worker memory.
    pub fn memory_bytes(&self) -> usize {
        self.reserve.memory_bytes()
            + self.residues.memory_bytes()
            + self.counts.memory_bytes()
            + self
                .queues
                .iter()
                .map(|q| q.capacity() * std::mem::size_of::<(NodeId, u32)>())
                .sum::<usize>()
            + self.entries.capacity() * std::mem::size_of::<(u32, NodeId)>()
            + self.weights.capacity() * std::mem::size_of::<f64>()
            + self.walk_scratch.memory_bytes()
            + self.radix_tmp.capacity() * std::mem::size_of::<(NodeId, f64)>()
            + self.hop_max_hint.capacity() * std::mem::size_of::<f64>()
            + self.hop_max_frozen.capacity() * std::mem::size_of::<f64>()
    }

    /// Release every backing allocation, returning the workspace to its
    /// freshly-constructed footprint (thread count is preserved). An idle
    /// serving worker parked on a huge graph can call this to hand `O(n)`
    /// slot memory back to the allocator; the next query re-grows.
    pub fn reset(&mut self) {
        self.reserve.release();
        self.residues.release();
        self.counts.release();
        self.queues = Vec::new();
        self.entries = Vec::new();
        self.weights = Vec::new();
        self.walk_scratch.release();
        self.radix_tmp = Vec::new();
        self.hop_max_hint = Vec::new();
        self.hop_max_frozen = Vec::new();
        self.push_resume = crate::push_plus::PushResumeState::default();
        self.phase_times = PhaseTimes::default();
        self.cancel = None;
    }

    /// Prepare for a query over an `n`-node graph: O(1) epoch bumps for
    /// the reserve and endpoint counters (residues are shaped by the push
    /// routines, which know their hop count). The reserve is sized here —
    /// every query writes it; the endpoint counter is only emptied, so
    /// that no earlier query's deposits can reach
    /// [`assemble_estimate`](Self::assemble_estimate), and is sized by
    /// the walk phase if one runs (see [`EpochCounter`]).
    pub(crate) fn begin(&mut self, n: usize) {
        self.reserve.begin(n);
        self.counts.clear();
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
        self.residues.seed(seed, graph.degree(seed), thr_coeff);
        if self.queues.is_empty() {
            self.queues.push(Vec::new());
        }
        for q in &mut self.queues {
            q.clear();
        }
        self.queues[0].push((seed, graph.degree(seed) as u32));
    }

    /// Assemble the final sorted sparse estimate from the reserve plus
    /// `count * mass` walk deposits, in O(touched) (see [`sum_by_node`]).
    /// The returned vector is handed to the `HkprEstimate`, which owns its
    /// storage — this is the one intrinsic allocation of a query's output.
    pub(crate) fn assemble_estimate(&mut self, mass: f64) -> Vec<(NodeId, f64)> {
        // iter_nonzero's size hint is 0, so size the vec explicitly.
        let mut out = Vec::with_capacity(self.reserve.touched_len() + self.counts.iter().count());
        out.extend(self.reserve.iter_nonzero());
        out.extend(self.counts.iter().map(|(v, c)| (v, c as f64 * mass)));
        sum_by_node(&mut out, &mut self.radix_tmp);
        out
    }
}

/// Sort `entries` by node id and fold the entries of each node into one
/// by summing. Each node appears at most twice — once from the reserve,
/// once from the endpoint counts — so its sum has two operands, and
/// two-operand fp addition is commutative: the order the sort leaves
/// them in cannot show.
fn sum_by_node(entries: &mut Vec<(NodeId, f64)>, tmp: &mut Vec<(NodeId, f64)>) {
    sort_by_node(entries, tmp);
    entries.dedup_by(|later, first| {
        if later.0 == first.0 {
            first.1 += later.1;
            true
        } else {
            false
        }
    });
}

/// Bits per digit of [`sort_by_node`]: 256 buckets, so a pass's
/// histogram and scatter cursors stay in L1.
const RADIX_BITS: u32 = 8;

/// Sort `entries` by node id: an LSD radix sort over [`RADIX_BITS`]-bit
/// digits through the scatter buffer `tmp`, skipping every digit all ids
/// share (below 2^24 nodes, the top one). One pass counts every digit;
/// each remaining pass is one sequential read and one scatter, with no
/// comparisons.
fn sort_by_node(entries: &mut [(NodeId, f64)], tmp: &mut Vec<(NodeId, f64)>) {
    const DIGITS: usize = (NodeId::BITS / RADIX_BITS) as usize;
    const MASK: NodeId = (1 << RADIX_BITS) - 1;
    let Some(&(head, _)) = entries.first() else {
        return;
    };
    let digit = |v: NodeId, d: usize| (v >> (d as u32 * RADIX_BITS) & MASK) as usize;
    let mut hist = [[0usize; 1 << RADIX_BITS]; DIGITS];
    for &(v, _) in entries.iter() {
        for (d, h) in hist.iter_mut().enumerate() {
            h[digit(v, d)] += 1;
        }
    }
    tmp.clear();
    tmp.resize(entries.len(), (0, 0.0));
    let mut sorted_in_tmp = false;
    for (d, h) in hist.iter_mut().enumerate() {
        if h[digit(head, d)] == entries.len() {
            continue;
        }
        let mut at = 0;
        for count in h.iter_mut() {
            (*count, at) = (at, at + *count);
        }
        let (src, dst) = if sorted_in_tmp {
            (&tmp[..], &mut entries[..])
        } else {
            (&entries[..], &mut tmp[..])
        };
        for &e in src {
            let slot = &mut h[digit(e.0, d)];
            dst[*slot] = e;
            *slot += 1;
        }
        sorted_in_tmp = !sorted_in_tmp;
    }
    if sorted_in_tmp {
        entries.copy_from_slice(tmp);
    }
}

thread_local! {
    /// Per-thread cached workspace backing the one-shot public APIs
    /// (`tea`, `tea_plus`, `monte_carlo` without an explicit workspace).
    /// First call on a thread pays the allocation; every later one-shot
    /// call reuses it, so casual callers get the serving-path speed.
    static THREAD_WORKSPACE: std::cell::RefCell<QueryWorkspace> =
        std::cell::RefCell::new(QueryWorkspace::new());
}

/// Run `f` with this thread's cached [`QueryWorkspace`].
///
/// Falls back to a fresh workspace if the cached one is already borrowed
/// (an estimator invoked from inside an estimator callback), so nesting
/// degrades to an allocation instead of a panic.
pub fn with_thread_workspace<T>(f: impl FnOnce(&mut QueryWorkspace) -> T) -> T {
    THREAD_WORKSPACE.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut QueryWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_vec_clear_is_logical() {
        let mut v = EpochVec::new();
        v.begin(8);
        assert_eq!(v.add(3, 0.5), (0.0, 0.5));
        assert_eq!(v.add(3, 0.25), (0.5, 0.75));
        assert_eq!(v.get(3), 0.75);
        assert_eq!(v.touched(), &[3]);
        v.begin(8);
        assert_eq!(v.get(3), 0.0);
        assert!(v.touched().is_empty());
        // The stale slot revives cleanly.
        assert_eq!(v.add(3, 1.0), (0.0, 1.0));
    }

    #[test]
    fn epoch_vec_take_keeps_touched() {
        let mut v = EpochVec::new();
        v.begin(4);
        v.add(1, 0.5);
        assert_eq!(v.take(1), 0.5);
        assert_eq!(v.get(1), 0.0);
        assert_eq!(v.take(1), 0.0);
        assert_eq!(v.touched(), &[1]);
        assert_eq!(v.iter_nonzero().count(), 0);
    }

    #[test]
    fn epoch_vec_grows_for_bigger_graphs() {
        let mut v = EpochVec::new();
        v.begin(2);
        v.add(1, 1.0);
        v.begin(10);
        assert_eq!(v.get(9), 0.0);
        v.add(9, 2.0);
        assert_eq!(v.get(9), 2.0);
    }

    #[test]
    fn epoch_counter_counts_and_merges() {
        let mut a = EpochCounter::new();
        let mut b = EpochCounter::new();
        a.begin(8);
        b.begin(8);
        a.inc(2, 3);
        b.inc(2, 1);
        b.inc(5, 7);
        a.merge_from(&b);
        assert_eq!(a.get(2), 4);
        assert_eq!(a.get(5), 7);
        assert_eq!(a.get(0), 0);
        a.begin(8);
        assert_eq!(a.get(2), 0);
    }

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
        ws.counts.begin(16);
        ws.counts.inc(7, 2);
        ws.counts.inc(11, 1);
        let entries = ws.assemble_estimate(0.1);
        assert_eq!(entries.len(), 3);
        assert_eq!(entries[0].0, 2);
        assert!((entries[1].1 - 0.7).abs() < 1e-15); // 0.5 + 2 * 0.1
        assert_eq!(entries[2], (11, 0.1));
    }

    /// The assembly merge as it was before the radix sort.
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

    fn bits(entries: &[(NodeId, f64)]) -> Vec<(NodeId, u64)> {
        entries.iter().map(|&(v, x)| (v, x.to_bits())).collect()
    }

    #[test]
    fn radix_assembly_edge_cases() {
        let mut tmp = Vec::new();
        for input in [
            vec![],
            vec![(7, 0.5)],
            vec![(1 << 24, 0.5), (1 << 24, 0.25)],
            vec![(u32::MAX, 1.0), (0, 2.0), (1 << 16, 3.0), (u32::MAX, 0.5)],
            vec![(300, 0.1), (44, 0.2), (300, 0.3), ((1 << 16) + 44, 0.4)],
        ] {
            let (mut got, mut want) = (input.clone(), input.clone());
            sum_by_node(&mut got, &mut tmp);
            sum_by_node_reference(&mut want);
            assert_eq!(bits(&got), bits(&want), "input {input:?}");
        }
    }

    #[test]
    fn assembly_buffer_is_accounted_and_released() {
        let mut ws = QueryWorkspace::new();
        let fresh = ws.memory_bytes();
        ws.begin(4096);
        ws.counts.begin(4096);
        for v in 0..1_000 {
            ws.reserve.add(v * 3, 0.5);
            ws.counts.inc(v * 4, 1);
        }
        let before = ws.memory_bytes();
        let entries = ws.assemble_estimate(0.25);
        assert_eq!(entries.len(), 1_000 + 1_000 - 250);
        let tmp = ws.radix_tmp.capacity() * std::mem::size_of::<(NodeId, f64)>();
        assert!(tmp >= 2_000 * std::mem::size_of::<(NodeId, f64)>());
        assert_eq!(ws.memory_bytes(), before + tmp);
        ws.reset();
        assert_eq!(ws.memory_bytes(), fresh);
    }

    #[test]
    fn thread_configuration_clamped() {
        let mut ws = QueryWorkspace::with_threads(0);
        assert_eq!(ws.threads(), 1);
        ws.set_threads(8);
        assert_eq!(ws.threads(), 8);
        // Default starts single-threaded, same as new().
        assert_eq!(QueryWorkspace::default().threads(), 1);
    }

    #[test]
    fn memory_accounting_grows_and_resets() {
        let mut ws = QueryWorkspace::new();
        let fresh = ws.memory_bytes();
        ws.begin(4096);
        ws.reserve.add(17, 1.0);
        ws.counts.begin(4096);
        ws.counts.inc(40, 2);
        ws.residues.begin(3, 4096);
        ws.residues.seed(9, 1, 0.5);
        let grown = ws.memory_bytes();
        assert!(
            grown >= fresh + 4096 * std::mem::size_of::<Slot<f64>>(),
            "grown {grown} vs fresh {fresh}"
        );
        ws.set_threads(3);
        ws.reset();
        assert_eq!(ws.memory_bytes(), fresh);
        assert_eq!(ws.threads(), 3, "reset preserves the thread count");
        // The workspace stays usable after a reset.
        ws.begin(16);
        ws.reserve.add(3, 0.5);
        assert_eq!(ws.reserve.get(3), 0.5);
    }

    #[test]
    fn workspace_accounts_walk_engine_buffers() {
        // The serve cache budgets worker memory via memory_bytes(); the
        // walk engine's presampled-walk lane buffers must be visible in
        // it after a real query, and reset() must hand everything back.
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(50);
        let g = holme_kim(3_000, 5, 0.4, &mut rng).unwrap();
        let params = crate::HkprParams::builder(&g)
            .delta(1e-4)
            .p_f(1e-3)
            .build()
            .unwrap();
        let opts = crate::tea_plus::TeaPlusOptions {
            early_exit: false,
            ..Default::default()
        };
        let mut ws = QueryWorkspace::new();
        let fresh = ws.memory_bytes();
        let out =
            crate::tea_plus::tea_plus_with_options_in(&g, &params, 0, opts, &mut rng, &mut ws)
                .unwrap();
        assert!(
            out.stats.random_walks > 0,
            "fixture must exercise the walk phase"
        );
        let walk_bytes = ws.walk_scratch.memory_bytes();
        assert!(walk_bytes > 0, "walk scratch must have grown");
        assert!(ws.memory_bytes() >= fresh + walk_bytes);
        ws.reset();
        assert_eq!(ws.memory_bytes(), fresh);
    }

    #[test]
    fn endpoint_counter_is_sized_by_the_first_walk_and_never_leaks() {
        use crate::estimate::QueryStats;
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let n = 5_000usize;
        let g = holme_kim(n, 5, 0.4, &mut SmallRng::seed_from_u64(70)).unwrap();
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
            bits(crate::tea_plus::tea_plus_in(&g, p, seed, &mut rng, ws).unwrap())
        };
        let monte_carlo = |seed: NodeId, ws: &mut QueryWorkspace| {
            let mut rng = SmallRng::seed_from_u64(72);
            let walks = Some(5_000);
            bits(crate::monte_carlo_in(&g, &exiting, seed, walks, &mut rng, ws).unwrap())
        };

        // A walk, then an early exit, then Monte-Carlo on one workspace:
        // each answers as on a fresh one, so neither the walk's deposits
        // nor the early exit's unsized counter reach the next assembly.
        let mut shared = QueryWorkspace::new();
        let walked = tea_plus(&walking, 3, &mut shared);
        assert!(walked.0.random_walks > 0 && !walked.0.early_exit);
        assert_eq!(walked, tea_plus(&walking, 3, &mut QueryWorkspace::new()));
        let with_counter = shared.memory_bytes();
        let exited = tea_plus(&exiting, 9, &mut shared);
        assert!(exited.0.early_exit && exited.0.random_walks == 0);
        assert_eq!(exited, tea_plus(&exiting, 9, &mut QueryWorkspace::new()));
        let sampled = monte_carlo(5, &mut shared);
        assert_eq!(sampled.0.random_walks, 5_000);
        assert_eq!(sampled, monte_carlo(5, &mut QueryWorkspace::new()));

        // A workspace that only ever exits early never pays for the
        // counter; Monte-Carlo sizes it on first use like any walk.
        let mut push_only = QueryWorkspace::new();
        for seed in [9, 3, 11] {
            assert!(tea_plus(&exiting, seed, &mut push_only).0.early_exit);
        }
        let counter = n * std::mem::size_of::<Slot<u64>>();
        assert!(
            push_only.memory_bytes() + counter <= with_counter,
            "push-only {} vs walking {with_counter}",
            push_only.memory_bytes()
        );
        assert_eq!(push_only.counts.memory_bytes(), 0);
        assert_eq!(sampled, monte_carlo(5, &mut push_only));
        assert!(push_only.counts.memory_bytes() >= counter);
    }

    #[test]
    fn footprint_does_not_grow_with_the_hop_cap() {
        // `memory_bytes` promises O(n) dense slots. The hop cap K comes
        // from delta and c, not from t (Equation 20), so the second query
        // raises all three: over twice the hop levels, and not one more
        // dense array.
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let n = 100_000usize;
        let g = holme_kim(n, 5, 0.4, &mut SmallRng::seed_from_u64(60)).unwrap();
        let array = n * std::mem::size_of::<Slot<f64>>();
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
            crate::tea_plus::tea_plus_in(&g, &params, 7, &mut rng, &mut ws).unwrap();
            (params.hop_cap(), ws.memory_bytes())
        };
        let (k_low, low) = footprint(5.0, 1e-3, 2.5);
        let (k_high, high) = footprint(40.0, 5e-4, 6.0);
        assert!(k_high >= 2 * k_low, "hop caps {k_low} and {k_high}");
        // Both queries end in the push phase, so no endpoint counter.
        for bytes in [low, high] {
            assert!(bytes >= 3 * array, "reserve, two live hops");
            assert!(bytes < 4 * array, "{bytes} bytes for n = {n}");
        }
        // Touched lists, worklists, frozen survivors and walk scratch grow
        // with what a query touches; together they stay under one array.
        assert!(low.abs_diff(high) < array, "{low} vs {high} bytes");
    }

    proptest::proptest! {
        /// The radix merge equals the comparison sort + merge bit for bit,
        /// on ids spread over every digit, with nodes in the reserve, the
        /// counts or both.
        #[test]
        fn radix_assembly_matches_a_comparison_sort(
            draws in proptest::collection::vec(
                (0usize..4, 0u32..3_000, 0u32..3, 0.0f64..1.0),
                0..400,
            ),
        ) {
            let bases = [0, 1 << 16, 1 << 24, u32::MAX - 3_000];
            let mut seen = std::collections::HashSet::new();
            let (mut reserve, mut counts) = (Vec::new(), Vec::new());
            for (base, low, source, x) in draws {
                let v = bases[base] + low;
                if !seen.insert(v) {
                    continue;
                }
                if source != 1 {
                    reserve.push((v, x));
                }
                if source != 0 {
                    counts.push((v, x * 0.37 + 1e-3));
                }
            }
            let input: Vec<(NodeId, f64)> = reserve.into_iter().chain(counts).collect();
            let (mut got, mut want) = (input.clone(), input);
            sum_by_node(&mut got, &mut Vec::new());
            sum_by_node_reference(&mut want);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
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
