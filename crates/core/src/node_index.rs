//! The per-node index of a query workspace and the record lists it
//! indexes: [`Reserve`] (the push reserve and the walk endpoint counts,
//! one record per node) and [`EpochVec`] (one residue hop).
//!
//! Each list holds the records touched since its last `begin`, in
//! first-touch order. The index ([`NodeIndex`]) is one `u32` per graph
//! node holding the position of that node's record in whichever list it
//! serves. It is never cleared. A slot is believed only when the record it
//! names exists and names the node back (`at < len && records[at].node ==
//! v`); any other value, whether left over from an earlier `begin` or
//! from another list, past the end of the list or pointing at another
//! node's record, reads as "untouched". So `begin` empties a list without
//! touching a slot, and the index costs 4 bytes per node whatever the
//! value type.
//!
//! The check is sound because each node has at most one record per list
//! between two `begin`s (a node is only appended when the check failed)
//! and records are **append-only** between two `begin`s: nothing sorts,
//! truncates, removes or swaps them. Every method here keeps that
//! invariant, and anything that breaks it must clear the index. A slot
//! that another list wrote and that happens to name `v`'s record here
//! names the right record: `v` has no other.
//!
//! A workspace has one index, the reserve's, and only one list is ever
//! looked up by node at a time. A push never writes the reserve while it
//! runs (its drains log what they settle in their worklists, and the
//! workspace folds the log into the reserve when the push ends), so the
//! reserve lends its index to the residue hop being filled; the hop being
//! drained is read at the positions its worklist entries carry, and a
//! drained or frozen hop only in order. Each hop boundary hands the index
//! to the next hop, and the end of the push hands it back to the reserve
//! for the fold and the walk deposits.
//!
//! A slot stores `at` plus an offset, the number of records the index has
//! seen discarded (mod 2^32), so `at = slots[v] - offset`. Every hand-over
//! and every `begin` discards at least the records of the list the index
//! leaves, so a slot written for an earlier list names a position before
//! the new one — past its end once the subtraction wraps — and fails the
//! range test without a read of the record it would name. Without the
//! offset such slots name live positions: a node's first touch in a hop
//! or a query would read a random record, which made a push-bound query
//! 4–16 % slower (TEA+ on a 1M-node Holme–Kim graph, 2-vCPU x86-64
//! guest). Nothing relies on the offset for correctness (the record check
//! decides), so its wrap needs no handling, and discarding more than the
//! list held costs nothing.

use hk_graph::NodeId;

/// A record a [`NodeIndex`] can point at: it names its node.
trait Keyed {
    fn node(&self) -> NodeId;
}

/// The one `n`-sized part of a workspace: the position of each node's
/// record in the list being filled, 4 bytes per node whatever the value
/// type, checked against the record it names (see the module docs).
#[derive(Clone, Debug, Default)]
pub(crate) struct NodeIndex {
    slots: Vec<u32>,
    /// Added to every position stored (see the module docs).
    offset: u32,
}

impl NodeIndex {
    /// Make room for `n` nodes if there is less. The bigger index replaces
    /// the old one instead of extending it: no slot value is trusted, so
    /// nothing needs copying, and a zeroed allocation leaves the pages to
    /// arrive as they are first touched. Only while no list it serves has
    /// records: a record whose slot was dropped would be appended again.
    fn grow(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots = Vec::new(); // freed before the new one is mapped
            self.slots = vec![0; n];
        }
    }

    /// The index leaves a list of (at most) `len` records, which is
    /// emptied or no longer looked up by node: store later positions past
    /// them.
    pub(crate) fn discard(&mut self, len: usize) {
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
    pub(crate) fn prefetch(&self, v: NodeId) {
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
    pub(crate) fn scribble(&mut self, garbage: &[u32]) {
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
    /// The degree [`EpochVec::add_memo_deg`] memoized.
    pub(crate) deg: u32,
    pub(crate) value: f64,
}

impl Keyed for Record {
    #[inline(always)]
    fn node(&self) -> NodeId {
        self.node
    }
}

/// One node's entry in a [`Reserve`]: its push reserve and the walks that
/// ended at it, side by side, so that a walk's deposit and the assembly's
/// read each touch one record rather than two arrays.
#[derive(Clone, Copy, Debug)]
struct ReserveRecord {
    node: NodeId,
    value: f64,
    count: u64,
}

impl Keyed for ReserveRecord {
    #[inline(always)]
    fn node(&self) -> NodeId {
        self.node
    }
}

/// One residue hop: a sparse `f64` vector holding only the nodes touched
/// since the last [`begin`](Self::begin), in first-touch order, each with
/// its memoized degree. It has no index of its own: it is filled through
/// the workspace's (`add_memo_deg`) while the hop
/// below it drains, and read afterwards at record positions (`get_at`,
/// `clear_at`) or in order. Records are append-only until the next
/// `begin` (see the module docs): the positional reads and the hop sift
/// rely on positions staying put, and the index on nothing else.
#[derive(Clone, Debug, Default)]
pub struct EpochVec {
    records: Vec<Record>,
}

impl EpochVec {
    /// Empty vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start afresh: empty the record list, which zeroes every node. O(1).
    pub fn begin(&mut self) {
        self.records.clear();
    }

    /// Records since the last [`begin`](Self::begin), zeros included.
    pub(crate) fn len(&self) -> usize {
        self.records.len()
    }

    /// Give `v` the first record of a vector just begun, with its degree
    /// memoized: no index lookup, since nothing can precede it. Returns
    /// its position, 0.
    pub(crate) fn seed(&mut self, v: NodeId, value: f64, deg: u32) -> u32 {
        debug_assert!(self.records.is_empty(), "a seed is the first record");
        self.records.push(Record {
            node: v,
            deg,
            value,
        });
        0
    }

    /// Current value of node `v` (0 when untouched since the last
    /// [`begin`](Self::begin)): a linear search of the records, for tests
    /// and spot checks, not for loops.
    pub fn get(&self, v: NodeId) -> f64 {
        self.records
            .iter()
            .find(|r| r.node == v)
            .map_or(0.0, |r| r.value)
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

    /// Add `delta` to node `v`, looked up through `index`, which must
    /// serve this vector alone since it last began (see the module docs),
    /// memoizing the node's degree in its record: `deg_of` runs on first
    /// touch only, and repeat touches read the degree from the record the
    /// add already loaded. The push kernels touch each frontier node `~d`
    /// times, so this converts all but one of the per-neighbor degree
    /// lookups into free reads. Returns `(old, new, degree, at)`, `at`
    /// being the record's position for the positional reads (`get_at`,
    /// `clear_at`).
    #[inline]
    pub(crate) fn add_memo_deg(
        &mut self,
        index: &mut NodeIndex,
        v: NodeId,
        delta: f64,
        deg_of: impl FnOnce() -> u32,
    ) -> (f64, f64, u32, u32) {
        let next = self.records.len();
        match index.find_or_claim(v, &self.records) {
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
    /// record (its value is just 0). A linear search, like
    /// [`get`](Self::get).
    pub fn take(&mut self, v: NodeId) -> f64 {
        self.records
            .iter_mut()
            .find(|r| r.node == v)
            .map_or(0.0, |r| std::mem::take(&mut r.value))
    }

    /// Iterate `(node, value)` for touched nodes with non-zero value, in
    /// first-touch order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.iter_nonzero_with_deg().map(|(v, x, _)| (v, x))
    }

    /// [`iter_nonzero`](Self::iter_nonzero) plus each node's memoized
    /// degree. Lets residue consumers (condition-(11) scans, TEA+
    /// reduction) skip the per-entry degree lookup. One sequential pass
    /// over the records.
    pub fn iter_nonzero_with_deg(&self) -> impl Iterator<Item = (NodeId, f64, u32)> + '_ {
        self.records
            .iter()
            .filter(|r| r.value != 0.0)
            .map(|r| (r.node, r.value, r.deg))
    }

    /// `max_v value[v] / deg[v]` over the non-zero nodes (0.0 when
    /// none) — the TEA+ condition-(11) residue probe. The push kernels
    /// memoize degrees clamped to 1, so the quotient is finite.
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

    /// Bytes held by the record list's capacity: a hop has no per-node
    /// part.
    pub fn memory_bytes(&self) -> usize {
        self.records.capacity() * std::mem::size_of::<Record>()
    }
}

/// The query's answer before assembly, one record per touched node: the
/// push reserve `q_s[v]` ([`add`](Self::add), folded in from the push
/// drains' logs) and the number of walks that ended at `v`
/// ([`inc`](Self::inc), from the walk engine), under the workspace's one
/// 4-byte-per-node index, which a push borrows while the reserve is
/// empty (see the module docs). TEA and TEA+ return `q_s[v] + count[v] *
/// alpha / n_r`, so assembly reads each record once.
///
/// Counts, not `f64` masses, make deposits order-free: integer addition is
/// associative and commutative, so the order in which the executor's
/// window finishes chunks, and where a tier ladder pauses, cannot show in
/// the result. Records are append-only until the next
/// [`begin`](Self::begin) (see the module docs), in the order nodes were
/// first touched. That order is reproducible for a push and a walk pass
/// on one thread, but not once a pass ran on two: the calling thread
/// deposits the chunks it claims as it walks them and the helper's
/// endpoints are added after the join, so which walk touches a node first
/// depends on which thread claimed which chunk. Each node's value and
/// count do not, and neither does anything assembled from them.
#[derive(Clone, Debug, Default)]
pub struct Reserve {
    index: NodeIndex,
    records: Vec<ReserveRecord>,
}

impl Reserve {
    /// Empty reserve; [`begin`](Self::begin) sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a fresh query over `n` nodes: grow the index if the graph got
    /// bigger, then forget every value and count. O(1) unless growing.
    pub fn begin(&mut self, n: usize) {
        self.index.grow(n);
        self.index.discard(self.records.len());
        self.records.clear();
    }

    /// Nodes the index covers: the largest `n` any
    /// [`begin`](Self::begin) asked for.
    pub fn nodes(&self) -> usize {
        self.index.slots.len()
    }

    /// The index, for the residue hop a push is filling. The reserve must
    /// be empty, and stays so until the push hands the index back by
    /// discarding the hop's records.
    pub(crate) fn lend_index(&mut self) -> &mut NodeIndex {
        debug_assert!(
            self.records.is_empty(),
            "a push lends an empty reserve's index"
        );
        &mut self.index
    }

    /// Add `delta` to node `v`'s reserve.
    #[inline]
    pub fn add(&mut self, v: NodeId, delta: f64) {
        match self.index.find_or_claim(v, &self.records) {
            Some(at) => self.records[at].value += delta,
            None => self.records.push(ReserveRecord {
                node: v,
                value: delta,
                count: 0,
            }),
        }
    }

    /// Add `by` walks to node `v`'s endpoint count.
    #[inline]
    pub fn inc(&mut self, v: NodeId, by: u64) {
        match self.index.find_or_claim(v, &self.records) {
            Some(at) => self.records[at].count += by,
            None => self.records.push(ReserveRecord {
                node: v,
                value: 0.0,
                count: by,
            }),
        }
    }

    /// Hint the CPU to pull `v`'s index slot into L1 ahead of an
    /// [`add`](Self::add) or [`inc`](Self::inc) on it. Bounds-checked;
    /// changes no state.
    #[inline]
    pub fn prefetch(&self, v: NodeId) {
        self.index.prefetch(v);
    }

    /// Node `v`'s `(reserve, endpoint count)`; `(0.0, 0)` when untouched
    /// since the last [`begin`](Self::begin).
    #[inline]
    pub fn get(&self, v: NodeId) -> (f64, u64) {
        self.index.find(v, &self.records).map_or((0.0, 0), |at| {
            let r = &self.records[at];
            (r.value, r.count)
        })
    }

    /// Iterate `(node, reserve, endpoint count)` for every touched node,
    /// zeros included, in first-touch order — which, after a two-thread
    /// walk pass, depends on how the threads shared the chunks (see the
    /// type docs).
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (NodeId, f64, u64)> + '_ {
        self.records.iter().map(|r| (r.node, r.value, r.count))
    }

    /// Bytes held by the backing allocations: 4 per index slot
    /// (allocated, not necessarily resident) plus the record list's
    /// capacity.
    pub fn memory_bytes(&self) -> usize {
        self.index.memory_bytes() + self.records.capacity() * std::mem::size_of::<ReserveRecord>()
    }

    /// [`NodeIndex::scribble`] on the reserve's index.
    #[cfg(test)]
    pub(crate) fn scribble(&mut self, garbage: &[u32]) {
        self.index.scribble(garbage);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Bytes per node of the node index — the only per-node memory a
    /// workspace holds.
    pub(crate) const INDEX_SLOT: usize = 4;

    /// An index over `n` nodes, as a reserve's `begin` leaves it.
    fn index_over(n: usize) -> NodeIndex {
        let mut index = NodeIndex::default();
        index.grow(n);
        index
    }

    #[test]
    fn an_index_slot_is_four_bytes() {
        let mut r = Reserve::new();
        r.begin(1_000);
        assert_eq!(r.index.memory_bytes(), 1_000 * INDEX_SLOT);
        assert_eq!(r.nodes(), 1_000);
        // A hop has no per-node part.
        let mut v = EpochVec::new();
        v.begin();
        assert_eq!(v.memory_bytes(), 0);
        assert_eq!(std::mem::size_of::<Record>(), 16);
        assert_eq!(std::mem::size_of::<ReserveRecord>(), 24);
    }

    #[test]
    fn epoch_vec_clear_is_logical() {
        let (mut v, mut index) = (EpochVec::new(), index_over(8));
        assert_eq!(v.add_memo_deg(&mut index, 3, 0.5, || 4), (0.0, 0.5, 4, 0));
        assert_eq!(v.add_memo_deg(&mut index, 3, 0.25, || 9), (0.5, 0.75, 4, 0));
        assert_eq!(v.get(3), 0.75);
        assert_eq!(v.iter_nonzero().collect::<Vec<_>>(), vec![(3, 0.75)]);
        index.discard(v.len());
        v.begin();
        assert_eq!(v.get(3), 0.0);
        assert_eq!(v.len(), 0);
        // The stale slot revives cleanly, as record 0 after the `begin`.
        assert_eq!(v.add_memo_deg(&mut index, 3, 1.0, || 1), (0.0, 1.0, 1, 0));
        assert_eq!(v.add_memo_deg(&mut index, 5, 0.5, || 2), (0.0, 0.5, 2, 1));
        assert_eq!(v.add_memo_deg(&mut index, 3, 0.5, || 9), (1.0, 1.5, 1, 0));
    }

    #[test]
    fn epoch_vec_take_keeps_touched() {
        let (mut v, mut index) = (EpochVec::new(), index_over(4));
        v.add_memo_deg(&mut index, 1, 0.5, || 1);
        v.add_memo_deg(&mut index, 2, 0.25, || 1);
        assert_eq!(v.take(1), 0.5);
        assert_eq!(v.get(1), 0.0);
        assert_eq!(v.take(1), 0.0);
        assert_eq!(v.len(), 2);
        assert_eq!(v.iter_nonzero().collect::<Vec<_>>(), vec![(2, 0.25)]);
        // Re-adding lands in the first record: no duplicate, no reorder.
        assert_eq!(v.add_memo_deg(&mut index, 1, 1.0, || 7), (0.0, 1.0, 1, 0));
        assert_eq!(v.len(), 2);
        assert_eq!(
            v.iter_nonzero().collect::<Vec<_>>(),
            vec![(1, 1.0), (2, 0.25)]
        );
    }

    #[test]
    fn epoch_vec_grows_for_bigger_graphs() {
        // A hop is sized by nothing: the reserve's `begin` grows the one
        // index, and the hops it serves then reach every node.
        let mut r = Reserve::new();
        let mut v = EpochVec::new();
        r.begin(2);
        v.add_memo_deg(r.lend_index(), 1, 1.0, || 1);
        r.lend_index().discard(v.len());
        v.begin();
        r.begin(10);
        assert_eq!(v.get(9), 0.0);
        v.add_memo_deg(r.lend_index(), 9, 2.0, || 1);
        assert_eq!(v.get(9), 2.0);
        assert_eq!(r.nodes(), 10);
    }

    #[test]
    fn epoch_counter_counts_and_clears() {
        // Reserve and walk deposits interleave on one record per node.
        let mut r = Reserve::new();
        r.begin(8);
        r.inc(2, 3);
        r.add(5, 0.5);
        r.inc(5, 7);
        r.add(2, 0.25);
        r.inc(2, 1);
        r.add(5, 0.125);
        assert_eq!(r.get(2), (0.25, 4));
        assert_eq!(r.get(5), (0.625, 7));
        assert_eq!(r.get(0), (0.0, 0));
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            vec![(2, 0.25, 4), (5, 0.625, 7)]
        );
        r.begin(8);
        assert_eq!(r.get(2), (0.0, 0));
        assert_eq!(r.iter().len(), 0);
    }

    #[test]
    fn stale_slots_never_revive_a_record() {
        // Nodes 3 and 4 take positions 0 and 1 with the offset about to
        // wrap, so their stored positions straddle it, and keep those
        // slots as the index moves to a second hop. There node 5 takes
        // position 0; node 6's slot is set to name that position, and node
        // 7's to name position 1, past the end of the list until node 3
        // takes it. None of the four reads as touched, and each takes the
        // next position.
        let (mut a, mut b, mut index) = (EpochVec::new(), EpochVec::new(), index_over(8));
        index.offset = u32::MAX;
        assert_eq!(a.add_memo_deg(&mut index, 3, 0.5, || 1), (0.0, 0.5, 1, 0));
        assert_eq!(a.add_memo_deg(&mut index, 4, 0.25, || 2), (0.0, 0.25, 2, 1));
        index.discard(a.len());
        assert_eq!(b.add_memo_deg(&mut index, 5, 1.0, || 4), (0.0, 1.0, 4, 0));
        index.slots[6] = index.slots[5];
        index.slots[7] = index.offset.wrapping_add(1);
        for node in [3, 4, 6, 7] {
            assert_eq!(index.find(node, &b.records), None, "node {node}");
        }
        for (node, at) in [(3, 1), (4, 2), (6, 3), (7, 4)] {
            let got = b.add_memo_deg(&mut index, node, 0.5, || 7);
            assert_eq!(got, (0.0, 0.5, 7, at));
        }
        assert_eq!(
            b.iter_nonzero().collect::<Vec<_>>(),
            vec![(5, 1.0), (3, 0.5), (4, 0.5), (6, 0.5), (7, 0.5)]
        );
        // The hop the index left keeps its records, read in order.
        assert_eq!((a.get(3), a.get(4), a.get(5)), (0.5, 0.25, 0.0));

        let mut r = Reserve::new();
        r.begin(8);
        r.index.offset = u32::MAX;
        r.inc(3, 2);
        r.add(4, 0.5);
        assert_eq!((r.get(3), r.get(4)), ((0.0, 2), (0.5, 0)));
        r.begin(8);
        r.inc(5, 1);
        r.index.slots[6] = r.index.slots[5];
        r.index.slots[7] = r.index.offset.wrapping_add(1);
        assert!([3, 4, 6, 7].iter().all(|&node| r.get(node) == (0.0, 0)));
        assert_eq!(r.iter().len(), 1);
        for node in [3, 4, 6, 7] {
            r.inc(node, node as u64);
        }
        r.add(4, 0.25);
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            vec![
                (5, 0.0, 1),
                (3, 0.0, 3),
                (4, 0.25, 4),
                (6, 0.0, 6),
                (7, 0.0, 7)
            ]
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
    pub(crate) fn slot_values(draws: &[(u32, u32, u32)]) -> Vec<u32> {
        draws
            .iter()
            .map(|&(pick, near, any)| if pick == 0 { near } else { any })
            .collect()
    }

    proptest::proptest! {
        /// Two `EpochVec`s sharing one index, as two live hops do,
        /// against two lists of first touches, under random interleavings
        /// of `add_memo_deg` on the vector the index serves, `take`, and
        /// hand-overs — the index leaves its vector for the other one,
        /// which begins, while the one it left stays readable — with
        /// garbage scribbled into every slot at each hand-over, over
        /// domains that grow and shrink between queries: every value,
        /// every memoized degree and the iteration order of both agree,
        /// and a node taken to zero and re-added keeps its first record.
        #[test]
        fn epoch_vec_matches_a_list_of_first_touches(
            ops in proptest::collection::vec(
                (0u32..8, 0u32..300, 0.0f64..1.0, 1u32..50),
                1..300,
            ),
            garbage in proptest::collection::vec((0u32..2, 0u32..400, proptest::any::<u32>()), 1..64),
        ) {
            let garbage = slot_values(&garbage);
            let mut hops = [EpochVec::new(), EpochVec::new()];
            let mut models = [VecModel::default(), VecModel::default()];
            let mut n = DOMAINS[2];
            let mut index = index_over(n);
            index.scribble(&garbage);
            let mut filled = 0;
            for (op, raw, delta, deg) in ops {
                let node = raw % n as NodeId;
                let (v, model) = (&mut hops[filled], &mut models[filled]);
                match op {
                    0..=4 => {
                        let got = v.add_memo_deg(&mut index, node, delta, || deg);
                        let want = model.add(node, delta, deg);
                        proptest::prop_assert_eq!(got.2, want.2);
                        proptest::prop_assert_eq!(got.3, want.3);
                        proptest::prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
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
                        index.discard(v.len());
                        filled ^= 1;
                        hops[filled].begin();
                        models[filled].0.clear();
                        if raw % 3 == 0 {
                            // A new query, on a graph of another size:
                            // every list the index served begins.
                            hops[filled ^ 1].begin();
                            models[filled ^ 1].0.clear();
                            n = DOMAINS[(raw / 3) as usize % DOMAINS.len()];
                            index.grow(n);
                        }
                        index.scribble(&garbage);
                    }
                }
                for (v, model) in hops.iter().zip(&models) {
                    for node in [node, raw % 7] {
                        proptest::prop_assert_eq!(v.get(node).to_bits(), model.get(node).to_bits());
                    }
                    proptest::prop_assert_eq!(v.len(), model.0.len());
                    let got: Vec<_> = v.iter_nonzero_with_deg().collect();
                    let want: Vec<_> = model.0.iter().copied().filter(|e| e.1 != 0.0).collect();
                    proptest::prop_assert_eq!(got, want);
                }
            }
        }

        /// `Reserve` against a list of first touches, under random
        /// interleavings of `add`, `inc` and `begin` over domains that
        /// grow and shrink, with garbage scribbled into every slot after
        /// each `begin`: every value and count, read through the index or
        /// in first-touch order, agrees bit for bit.
        #[test]
        fn epoch_counter_matches_a_list_of_first_touches(
            ops in proptest::collection::vec((0u32..8, 0u32..300, 0.0f64..1.0, 1u64..9), 1..300),
            garbage in proptest::collection::vec((0u32..2, 0u32..400, proptest::any::<u32>()), 1..64),
        ) {
            let garbage = slot_values(&garbage);
            let mut r = Reserve::new();
            let mut model: Vec<(NodeId, f64, u64)> = Vec::new();
            let mut n = DOMAINS[2];
            r.begin(n);
            r.index.scribble(&garbage);
            for (op, raw, delta, by) in ops {
                let node = raw % n as NodeId;
                let at = model.iter().position(|e| e.0 == node);
                match op {
                    0..=2 => {
                        r.add(node, delta);
                        match at {
                            Some(i) => model[i].1 += delta,
                            None => model.push((node, delta, 0)),
                        }
                    }
                    3..=5 => {
                        r.inc(node, by);
                        match at {
                            Some(i) => model[i].2 += by,
                            None => model.push((node, 0.0, by)),
                        }
                    }
                    _ => {
                        n = DOMAINS[raw as usize % DOMAINS.len()];
                        r.begin(n);
                        r.index.scribble(&garbage);
                        model.clear();
                    }
                }
                let bits = |(v, x, c): (NodeId, f64, u64)| (v, x.to_bits(), c);
                let want = model.iter().find(|e| e.0 == node).map_or((0.0, 0), |e| (e.1, e.2));
                let got = r.get(node);
                proptest::prop_assert_eq!((got.0.to_bits(), got.1), (want.0.to_bits(), want.1));
                proptest::prop_assert_eq!(
                    r.iter().map(bits).collect::<Vec<_>>(),
                    model.iter().copied().map(bits).collect::<Vec<_>>()
                );
            }
        }
    }
}
