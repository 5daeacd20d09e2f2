//! The per-node index behind the workspace's sparse vectors: [`EpochVec`]
//! (the reserve and the two live residue hops) and [`EpochCounter`] (walk
//! endpoint counts).
//!
//! Each is a list of the records touched since the last `begin`, in
//! first-touch order, plus a sparse-set index: one `u32` per graph node
//! holding the position of that node's record. The index is never
//! cleared. A slot is believed only when the record it names exists and
//! names the node back (`at < len && records[at].node == v`); any other
//! value, whether left over from an earlier `begin`, past the end of the
//! list or pointing at another node's record, reads as "untouched". So
//! `begin` empties the list without touching a slot, and the index costs
//! 4 bytes per node whatever the value type.
//!
//! The check is sound because each node has at most one record per
//! `begin` (a node is only appended when the check failed) and records
//! are **append-only** between two `begin`s: nothing sorts, truncates,
//! removes or swaps them. Every method here keeps that invariant, and
//! anything that breaks it must clear the index.
//!
//! A slot stores `at` plus an offset, the number of records the index has
//! seen discarded (mod 2^32), so `at = slots[v] - offset`. A slot left by
//! an earlier `begin` then names a position before the new list — past
//! its end once the subtraction wraps — and fails the range test without
//! a read of the record it would name. Without the offset such slots
//! name live positions: a node's first touch in a hop or a query would
//! read a random record, which made a push-bound query 4–16 % slower
//! (TEA+ on a 1M-node Holme–Kim graph, 2-vCPU x86-64 guest).
//! Nothing relies on the offset for correctness (the record check
//! decides), so its wrap needs no handling.

use hk_graph::NodeId;

/// A record a [`NodeIndex`] can point at: it names its node.
trait Keyed {
    fn node(&self) -> NodeId;
}

/// The one `n`-sized part of an [`EpochVec`] or [`EpochCounter`]: the
/// position of each node's record, 4 bytes per node whatever the value
/// type, checked against the record it names (see the module docs).
#[derive(Clone, Debug, Default)]
struct NodeIndex {
    slots: Vec<u32>,
    /// Added to every position stored (see the module docs).
    offset: u32,
}

impl NodeIndex {
    /// Make room for `n` nodes if there is less. The bigger index replaces
    /// the old one instead of extending it: no slot value is trusted, so
    /// nothing needs copying, and a zeroed allocation leaves the pages to
    /// arrive as they are first touched.
    fn grow(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots = Vec::new(); // freed before the new one is mapped
            self.slots = vec![0; n];
        }
    }

    /// The caller is about to empty its list of `len` records: store
    /// later positions past them.
    fn discard(&mut self, len: usize) {
        self.offset = self.offset.wrapping_add(len as u32);
    }

    /// Position of `v`'s record in `records`, if it has one.
    #[inline(always)]
    fn find<R: Keyed>(&self, v: NodeId, records: &[R]) -> Option<usize> {
        let at = self.slots[v as usize].wrapping_sub(self.offset) as usize;
        records.get(at).is_some_and(|r| r.node() == v).then_some(at)
    }

    /// [`find`](Self::find), except that a `v` without a record is given
    /// position `records.len()` — where the caller appends its record —
    /// and `None` is returned.
    #[inline(always)]
    fn find_or_claim<R: Keyed>(&mut self, v: NodeId, records: &[R]) -> Option<usize> {
        let offset = self.offset;
        let slot = &mut self.slots[v as usize];
        let at = slot.wrapping_sub(offset) as usize;
        if records.get(at).is_some_and(|r| r.node() == v) {
            Some(at)
        } else {
            *slot = offset.wrapping_add(records.len() as u32);
            None
        }
    }

    /// Hint the CPU to pull `v`'s slot into L1. A no-op for an
    /// out-of-range `v` and on architectures without a stable prefetch
    /// intrinsic.
    #[inline(always)]
    fn prefetch(&self, v: NodeId) {
        #[cfg(target_arch = "x86_64")]
        if let Some(slot) = self.slots.get(v as usize) {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: the address is that of a live reference; prefetch
            // has no other effect.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(slot as *const u32 as *const i8) };
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    /// Allocated bytes, resident or not: pages of a zeroed allocation
    /// that no query has touched cost address space only.
    fn memory_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<u32>()
    }

    /// Overwrite every slot with `garbage`, cycled, each value taken
    /// relative to the offset (0 names position 0): whatever an index
    /// holds, the check must read it right.
    #[cfg(test)]
    fn scribble(&mut self, garbage: &[u32]) {
        for (slot, &g) in self.slots.iter_mut().zip(garbage.iter().cycle()) {
            *slot = self.offset.wrapping_add(g);
        }
    }
}

/// One node's entry in an [`EpochVec`], appended on its first touch after
/// a `begin`; a drained hop's survivors keep the same form.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Record {
    pub(crate) node: NodeId,
    /// The degree [`EpochVec::add_memo_deg`] memoized (0 when the record
    /// was created by [`EpochVec::add`]).
    pub(crate) deg: u32,
    pub(crate) value: f64,
}

impl Keyed for Record {
    #[inline(always)]
    fn node(&self) -> NodeId {
        self.node
    }
}

impl Keyed for (NodeId, u64) {
    #[inline(always)]
    fn node(&self) -> NodeId {
        self.0
    }
}

/// Sparse `f64` vector over `n` nodes with O(1) access and O(1) clear: a
/// 4-byte-per-node sparse-set index over a record list that holds only
/// the nodes touched since the last [`begin`](Self::begin), in first-touch
/// order. Records are append-only until the next `begin` (see the module
/// docs): the crate's positional reads (`get_at`, `clear_at`) and the
/// hop sift rely on positions staying put, and the index on nothing else.
#[derive(Clone, Debug, Default)]
pub struct EpochVec {
    index: NodeIndex,
    records: Vec<Record>,
}

impl EpochVec {
    /// Empty vector; [`begin`](Self::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh query over a domain of `n` nodes: empty the record
    /// list (which zeroes every node) and grow the index if the graph got
    /// bigger. O(1) unless growing.
    pub fn begin(&mut self, n: usize) {
        self.index.grow(n);
        self.index.discard(self.records.len());
        self.records.clear();
    }

    /// Current value of node `v` (0 when untouched since the last
    /// [`begin`](Self::begin)).
    #[inline]
    pub fn get(&self, v: NodeId) -> f64 {
        self.index
            .find(v, &self.records)
            .map_or(0.0, |at| self.records[at].value)
    }

    /// Value of `v` read at its record position `at` (as returned by
    /// [`add_memo_deg`](Self::add_memo_deg) since the last `begin`): no
    /// index lookup.
    #[inline]
    pub(crate) fn get_at(&self, v: NodeId, at: u32) -> f64 {
        let r = &self.records[at as usize];
        debug_assert_eq!(r.node, v, "record {at} belongs to another node");
        r.value
    }

    /// Zero the value at record position `at`.
    #[inline]
    pub(crate) fn clear_at(&mut self, at: u32) {
        self.records[at as usize].value = 0.0;
    }

    /// Hint the CPU to pull `v`'s index slot into L1 ahead of a
    /// [`get`](Self::get) / [`add`](Self::add) / [`take`](Self::take) on
    /// it. Bounds-checked; changes no state.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        self.index.prefetch(v);
    }

    /// Add `delta` to node `v`; returns `(old, new)` so callers can detect
    /// threshold crossings.
    #[inline]
    pub fn add(&mut self, v: NodeId, delta: f64) -> (f64, f64) {
        match self.index.find_or_claim(v, &self.records) {
            Some(at) => {
                let r = &mut self.records[at];
                let old = r.value;
                r.value = old + delta;
                (old, old + delta)
            }
            None => {
                self.records.push(Record {
                    node: v,
                    deg: 0,
                    value: delta,
                });
                (0.0, delta)
            }
        }
    }

    /// [`add`](Self::add) that also memoizes the node's degree in its
    /// record: `deg_of` runs on first touch only, and repeat touches read
    /// the degree from the record the add already loaded. The push
    /// kernels touch each frontier node `~d` times, so this converts all
    /// but one of the per-neighbor degree lookups into free reads.
    /// Returns `(old, new, degree, at)`, `at` being the record's position
    /// for the crate's positional reads (`get_at`, `clear_at`).
    #[inline]
    pub fn add_memo_deg(
        &mut self,
        v: NodeId,
        delta: f64,
        deg_of: impl FnOnce() -> u32,
    ) -> (f64, f64, u32, u32) {
        let next = self.records.len();
        match self.index.find_or_claim(v, &self.records) {
            Some(at) => {
                let r = &mut self.records[at];
                let old = r.value;
                r.value = old + delta;
                (old, old + delta, r.deg, at as u32)
            }
            None => {
                let deg = deg_of();
                self.records.push(Record {
                    node: v,
                    deg,
                    value: delta,
                });
                (0.0, delta, deg, next as u32)
            }
        }
    }

    /// Zero node `v`, returning the previous value. The node keeps its
    /// record (its value is just 0).
    #[inline]
    pub fn take(&mut self, v: NodeId) -> f64 {
        match self.index.find(v, &self.records) {
            Some(at) => std::mem::take(&mut self.records[at].value),
            None => 0.0,
        }
    }

    /// Iterate `(node, value)` for touched nodes with non-zero value, in
    /// first-touch order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.iter_nonzero_with_deg().map(|(v, x, _)| (v, x))
    }

    /// [`iter_nonzero`](Self::iter_nonzero) plus each node's memoized
    /// degree (only meaningful when entries were written through
    /// [`add_memo_deg`](Self::add_memo_deg)). Lets residue consumers
    /// (condition-(11) scans, TEA+ reduction) skip the per-entry degree
    /// lookup. One sequential pass over the records.
    pub fn iter_nonzero_with_deg(&self) -> impl Iterator<Item = (NodeId, f64, u32)> + '_ {
        self.records
            .iter()
            .filter(|r| r.value != 0.0)
            .map(|r| (r.node, r.value, r.deg))
    }

    /// Number of nodes touched since the last `begin` (including
    /// re-zeroed ones).
    pub fn touched_len(&self) -> usize {
        self.records.len()
    }

    /// `max_v value[v] / deg[v]` over the non-zero nodes (0.0 when
    /// none) — the TEA+ condition-(11) residue probe. Only
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

    /// One pass over the records for the two questions a hop level raises
    /// once it has stopped receiving mass. Returns `(max_all, max_kept)`:
    /// [`max_value_over_deg`](Self::max_value_over_deg), and the same
    /// maximum over the records with `value <= thr_coeff * deg` — which
    /// are appended to `out`, non-zero ones only, in first-touch order.
    /// The quotient and the `!= 0.0` filter are the scan's own and a max
    /// is fold-order-free, so `max_all` is the scan's bit for bit.
    pub(crate) fn sift_into(&self, thr_coeff: f64, out: &mut Vec<Record>) -> (f64, f64) {
        let (mut max_all, mut max_kept) = (0.0f64, 0.0f64);
        for r in self.records.iter().filter(|r| r.value != 0.0) {
            let norm = r.value / r.deg as f64;
            if norm > max_all {
                max_all = norm;
            }
            if r.value <= thr_coeff * r.deg as f64 {
                out.push(*r);
                if norm > max_kept {
                    max_kept = norm;
                }
            }
        }
        (max_all, max_kept)
    }

    /// Bytes held by the backing allocations: 4 per index slot
    /// (allocated, not necessarily resident) plus the record list's
    /// capacity.
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.records.capacity() * std::mem::size_of::<Record>()
    }

    /// Release the backing allocations (next [`begin`](Self::begin)
    /// re-grows from empty).
    pub(crate) fn release(&mut self) {
        *self = Self::default();
    }
}

/// Sparse `u64` counter vector with O(1) clear — the walk engine's
/// endpoint accumulator. Counts (not `f64` masses) make deposits
/// order-free: integer addition is associative and commutative, so the
/// order in which the executor's window finishes chunks, and where a tier
/// ladder pauses, cannot show in the result. Same layout as [`EpochVec`]:
/// a 4-byte-per-node sparse-set index over `(node, count)` records in
/// first-touch order, append-only until the next clear.
///
/// The index is sized by whoever is about to deposit
/// ([`begin`](Self::begin): the two walk planners), never ahead of time:
/// a counter that is only ever cleared and read holds no memory, so a
/// workspace whose queries all end in the push phase never allocates — or
/// zero-fills, or page-faults — an `n`-slot index it would not read.
#[derive(Clone, Debug, Default)]
pub struct EpochCounter {
    index: NodeIndex,
    records: Vec<(NodeId, u64)>,
}

impl EpochCounter {
    /// Empty counter; [`begin`](Self::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh accumulation over `n` nodes: grow to `n` if smaller,
    /// then forget every count. Must precede the first
    /// [`inc`](Self::inc) of an accumulation.
    pub fn begin(&mut self, n: usize) {
        self.index.grow(n);
        self.clear();
    }

    /// Forget every count in O(1) without sizing anything: afterwards
    /// [`iter`](Self::iter) is empty whatever was deposited before.
    pub(crate) fn clear(&mut self) {
        self.index.discard(self.records.len());
        self.records.clear();
    }

    /// Add `by` to node `v`.
    #[inline]
    pub fn inc(&mut self, v: NodeId, by: u64) {
        match self.index.find_or_claim(v, &self.records) {
            Some(at) => self.records[at].1 += by,
            None => self.records.push((v, by)),
        }
    }

    /// Hint the CPU to pull `v`'s index slot into L1 ahead of an
    /// [`inc`](Self::inc) on it. Bounds-checked; changes no state.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        self.index.prefetch(v);
    }

    /// Current count of node `v`.
    #[inline]
    pub fn get(&self, v: NodeId) -> u64 {
        self.index
            .find(v, &self.records)
            .map_or(0, |at| self.records[at].1)
    }

    /// Iterate `(node, count)` for touched nodes, in first-touch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, u64)> + '_ {
        self.records.iter().copied()
    }

    /// Bytes held by the backing allocations, counted as for
    /// [`EpochVec::memory_bytes`].
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.records.capacity() * std::mem::size_of::<(NodeId, u64)>()
    }

    /// Release the backing allocations.
    pub(crate) fn release(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Bytes per node of every node index — the only per-node memory a
    /// workspace holds.
    pub(crate) const INDEX_SLOT: usize = 4;

    #[test]
    fn an_index_slot_is_four_bytes() {
        let (mut v, mut c) = (EpochVec::new(), EpochCounter::new());
        v.begin(1_000);
        c.begin(1_000);
        assert_eq!(v.index.memory_bytes(), 1_000 * INDEX_SLOT);
        assert_eq!(c.index.memory_bytes(), 1_000 * INDEX_SLOT);
        assert_eq!(std::mem::size_of::<Record>(), 16);
    }

    #[test]
    fn epoch_vec_clear_is_logical() {
        let mut v = EpochVec::new();
        v.begin(8);
        assert_eq!(v.add(3, 0.5), (0.0, 0.5));
        assert_eq!(v.add(3, 0.25), (0.5, 0.75));
        assert_eq!(v.get(3), 0.75);
        assert_eq!(v.iter_nonzero().collect::<Vec<_>>(), vec![(3, 0.75)]);
        v.begin(8);
        assert_eq!(v.get(3), 0.0);
        assert_eq!(v.touched_len(), 0);
        // The stale slot revives cleanly, as record 0 after the `begin`.
        assert_eq!(v.add(3, 1.0), (0.0, 1.0));
        assert_eq!(v.add_memo_deg(5, 0.5, || 2), (0.0, 0.5, 2, 1));
        assert_eq!(v.add_memo_deg(3, 0.5, || 9), (1.0, 1.5, 0, 0));
    }

    #[test]
    fn epoch_vec_take_keeps_touched() {
        let mut v = EpochVec::new();
        v.begin(4);
        v.add(1, 0.5);
        v.add(2, 0.25);
        assert_eq!(v.take(1), 0.5);
        assert_eq!(v.get(1), 0.0);
        assert_eq!(v.take(1), 0.0);
        assert_eq!(v.touched_len(), 2);
        assert_eq!(v.iter_nonzero().collect::<Vec<_>>(), vec![(2, 0.25)]);
        // Re-adding lands in the first record: no duplicate, no reorder.
        assert_eq!(v.add(1, 1.0), (0.0, 1.0));
        assert_eq!(v.touched_len(), 2);
        assert_eq!(
            v.iter_nonzero().collect::<Vec<_>>(),
            vec![(1, 1.0), (2, 0.25)]
        );
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
    fn epoch_counter_counts_and_clears() {
        let mut a = EpochCounter::new();
        a.begin(8);
        a.inc(2, 3);
        a.inc(5, 7);
        a.inc(2, 1);
        assert_eq!(a.get(2), 4);
        assert_eq!(a.get(5), 7);
        assert_eq!(a.get(0), 0);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![(2, 4), (5, 7)]);
        a.begin(8);
        assert_eq!(a.get(2), 0);
        assert_eq!(a.iter().count(), 0);
    }

    #[test]
    fn stale_slots_never_revive_a_record() {
        // Nodes 3 and 4 take positions 0 and 1 with the offset about to
        // wrap, so their stored positions straddle it, and keep those
        // slots across the `begin`. After it node 5 takes position 0;
        // node 6's slot is set to name that position, and node 7's to name
        // position 1, past the end of the list until node 3 takes it. None
        // of the four reads as touched, and each takes the next position.
        let mut v = EpochVec::new();
        v.begin(8);
        v.index.offset = u32::MAX;
        assert_eq!(v.add(3, 0.5), (0.0, 0.5));
        assert_eq!(v.add_memo_deg(4, 0.25, || 2), (0.0, 0.25, 2, 1));
        assert_eq!((v.get(3), v.get(4)), (0.5, 0.25));
        v.begin(8);
        assert_eq!(v.add_memo_deg(5, 1.0, || 4), (0.0, 1.0, 4, 0));
        v.index.slots[6] = v.index.slots[5];
        v.index.slots[7] = v.index.offset.wrapping_add(1);
        for node in [3, 4, 6, 7] {
            assert_eq!((v.get(node), v.take(node)), (0.0, 0.0), "node {node}");
        }
        assert_eq!(v.touched_len(), 1);
        for (node, at) in [(3, 1), (4, 2), (6, 3), (7, 4)] {
            assert_eq!(v.add_memo_deg(node, 0.5, || 7), (0.0, 0.5, 7, at));
        }
        assert_eq!(
            v.iter_nonzero().collect::<Vec<_>>(),
            vec![(5, 1.0), (3, 0.5), (4, 0.5), (6, 0.5), (7, 0.5)]
        );

        let mut c = EpochCounter::new();
        c.begin(8);
        c.index.offset = u32::MAX;
        c.inc(3, 2);
        c.inc(4, 3);
        assert_eq!((c.get(3), c.get(4)), (2, 3));
        c.clear();
        c.inc(5, 1);
        c.index.slots[6] = c.index.slots[5];
        c.index.slots[7] = c.index.offset.wrapping_add(1);
        assert!([3, 4, 6, 7].iter().all(|&node| c.get(node) == 0));
        assert_eq!(c.iter().len(), 1);
        for node in [3, 4, 6, 7] {
            c.inc(node, node as u64);
        }
        assert_eq!(
            c.iter().collect::<Vec<_>>(),
            vec![(5, 1), (3, 3), (4, 4), (6, 6), (7, 7)]
        );
    }

    /// Domain sizes the model tests move between, growing and shrinking.
    const DOMAINS: [usize; 4] = [1, 7, 64, 300];

    /// The reference for [`EpochVec`]: one `(node, value, degree)` entry
    /// per node touched since the last `begin`, in first-touch order.
    #[derive(Default)]
    struct VecModel(Vec<(NodeId, f64, u32)>);

    impl VecModel {
        fn at(&self, v: NodeId) -> Option<usize> {
            self.0.iter().position(|e| e.0 == v)
        }

        fn get(&self, v: NodeId) -> f64 {
            self.at(v).map_or(0.0, |i| self.0[i].1)
        }

        /// Add `delta` to `v` (first touch records `deg`); returns
        /// `(old, new, memoized degree, position)`.
        fn add(&mut self, v: NodeId, delta: f64, deg: u32) -> (f64, f64, u32, u32) {
            match self.at(v) {
                Some(i) => {
                    let e = &mut self.0[i];
                    let old = e.1;
                    e.1 = old + delta;
                    (old, e.1, e.2, i as u32)
                }
                None => {
                    self.0.push((v, delta, deg));
                    (0.0, delta, deg, self.0.len() as u32 - 1)
                }
            }
        }
    }

    /// The garbage the model tests scribble into every slot after each
    /// `begin`, cycled, from draws `(pick, near, any)`: a slot value near
    /// the record positions (below 300 they can name a record, above lie
    /// past any list) or an arbitrary one.
    fn slot_values(draws: &[(u32, u32, u32)]) -> Vec<u32> {
        draws
            .iter()
            .map(|&(pick, near, any)| if pick == 0 { near } else { any })
            .collect()
    }

    proptest::proptest! {
        /// `EpochVec` against a list of first touches, under random
        /// interleavings of `add`, `add_memo_deg`, `take` and `begin` over
        /// domains that grow and shrink, with garbage scribbled into every
        /// slot after each `begin`: every value, every memoized degree and
        /// the iteration order agree, and a node taken to zero and
        /// re-added keeps its first record.
        #[test]
        fn epoch_vec_matches_a_list_of_first_touches(
            ops in proptest::collection::vec(
                (0u32..8, 0u32..300, 0.0f64..1.0, 1u32..50),
                1..300,
            ),
            garbage in proptest::collection::vec((0u32..2, 0u32..400, proptest::any::<u32>()), 1..64),
        ) {
            let garbage = slot_values(&garbage);
            let mut v = EpochVec::new();
            let mut model = VecModel::default();
            let mut n = DOMAINS[2];
            v.begin(n);
            v.index.scribble(&garbage);
            for (op, raw, delta, deg) in ops {
                let node = raw % n as NodeId;
                match op {
                    0..=1 => {
                        let (old, new) = v.add(node, delta);
                        let (m_old, m_new, _, _) = model.add(node, delta, 0);
                        proptest::prop_assert_eq!((old.to_bits(), new.to_bits()), (m_old.to_bits(), m_new.to_bits()));
                    }
                    2..=4 => {
                        let got = v.add_memo_deg(node, delta, || deg);
                        let want = model.add(node, delta, deg);
                        proptest::prop_assert_eq!(got.2, want.2);
                        proptest::prop_assert_eq!(got.3, want.3);
                        proptest::prop_assert_eq!(got.1.to_bits(), want.1.to_bits());
                        proptest::prop_assert_eq!(v.get_at(node, got.3).to_bits(), want.1.to_bits());
                    }
                    5..=6 => {
                        let want = model.get(node);
                        if let Some(i) = model.at(node) {
                            model.0[i].1 = 0.0;
                        }
                        proptest::prop_assert_eq!(v.take(node).to_bits(), want.to_bits());
                    }
                    _ => {
                        n = DOMAINS[raw as usize % DOMAINS.len()];
                        v.begin(n);
                        v.index.scribble(&garbage);
                        model.0.clear();
                    }
                }
                proptest::prop_assert_eq!(v.get(node).to_bits(), model.get(node).to_bits());
                proptest::prop_assert_eq!(v.touched_len(), model.0.len());
                let got: Vec<_> = v.iter_nonzero_with_deg().collect();
                let want: Vec<_> = model.0.iter().copied().filter(|e| e.1 != 0.0).collect();
                proptest::prop_assert_eq!(got, want);
            }
        }

        /// `EpochCounter` against a list of first touches, under random
        /// interleavings of `inc`, `begin` and the workspace's unsized
        /// `clear` over domains that grow and shrink, with garbage
        /// scribbled into every slot after each `begin` and `clear`.
        #[test]
        fn epoch_counter_matches_a_list_of_first_touches(
            ops in proptest::collection::vec((0u32..8, 0u32..300, 1u64..9), 1..300),
            garbage in proptest::collection::vec((0u32..2, 0u32..400, proptest::any::<u32>()), 1..64),
        ) {
            let garbage = slot_values(&garbage);
            let mut c = EpochCounter::new();
            let mut model: Vec<(NodeId, u64)> = Vec::new();
            let mut n = DOMAINS[2];
            c.begin(n);
            c.index.scribble(&garbage);
            for (op, raw, by) in ops {
                let node = raw % n as NodeId;
                match op {
                    0..=5 => {
                        c.inc(node, by);
                        match model.iter_mut().find(|e| e.0 == node) {
                            Some(e) => e.1 += by,
                            None => model.push((node, by)),
                        }
                    }
                    6 => {
                        c.clear();
                        c.index.scribble(&garbage);
                        model.clear();
                    }
                    _ => {
                        n = DOMAINS[raw as usize % DOMAINS.len()];
                        c.begin(n);
                        c.index.scribble(&garbage);
                        model.clear();
                    }
                }
                let want = model.iter().find(|e| e.0 == node).map_or(0, |e| e.1);
                proptest::prop_assert_eq!(c.get(node), want);
                proptest::prop_assert_eq!(c.iter().collect::<Vec<_>>(), model.clone());
            }
        }
    }
}
