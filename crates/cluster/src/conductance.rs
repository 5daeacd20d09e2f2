//! Conductance of node sets.
//!
//! The clustering-quality measure the whole paper optimizes (§2.1):
//!
//! ```text
//! Phi(S) = |cut(S)| / min(vol(S), vol(V \ S))
//! ```
//!
//! where `vol(S)` sums the degrees of `S` and `cut(S)` counts edges with
//! exactly one endpoint in `S`. Smaller is better: the set is internally
//! dense and externally sparse.
//!
//! The sweep's tracker, [`SweepState`], adds one node at a time and
//! probes membership once per incident edge. Membership is a bitset over
//! the node domain ([`MemberScratch`]), small enough to stay in L2 on a
//! million-node graph, and cleared node by node, so a sweep costs work
//! proportional to its support, never to the graph.
//!
//! Adding a node is two steps with one seam between them: count what
//! its edges see (`d(v)` and the edges into the set, integers read off
//! one bitset), then fold those two counts into the set's cut and volume
//! and turn them into `Phi`. A sweep split over two threads
//! ([`crate::sweep`]) counts the ranking's tail on a helper, against
//! that thread's own bitset holding the same members, and folds the
//! counts on the calling thread in rank order, so both halves run the
//! same integer arithmetic and the same float expression as one thread
//! does.

use hk_graph::{Graph, NodeId};
use hkpr_core::fxhash::FxHashSet;

/// Conductance of `nodes` (need not be sorted; duplicates are ignored).
///
/// Degenerate sets — empty, zero-volume, or covering every edge endpoint —
/// have conductance defined as 1.0, the worst value, so sweeps never
/// select them.
pub fn conductance(graph: &Graph, nodes: &[NodeId]) -> f64 {
    let members: FxHashSet<NodeId> = nodes.iter().copied().collect();
    let mut vol = 0usize;
    let mut cut = 0usize;
    for &v in members.iter() {
        vol += graph.degree(v);
        for &u in graph.neighbors(v) {
            if !members.contains(&u) {
                cut += 1;
            }
        }
    }
    let complement_vol = graph.volume().saturating_sub(vol);
    let denom = vol.min(complement_vol);
    if denom == 0 {
        1.0
    } else {
        cut as f64 / denom as f64
    }
}

/// Reusable membership buffer for [`SweepState`]: one bit per node — 125
/// KB at a million nodes, so the sweep's random membership probes stay in
/// L2 — plus the list of nodes set since the last sweep began. Beginning
/// a sweep clears exactly those bits, so the clear costs the previous
/// sweep's support, not the graph, and a sweep stopped (or dropped)
/// half way leaves nothing behind for the next one.
#[derive(Clone, Debug, Default)]
pub struct MemberScratch {
    /// Bit `v % 64` of word `v / 64` is set while `v` is a member.
    bits: Vec<u64>,
    /// Every node whose bit is set.
    set: Vec<NodeId>,
}

impl MemberScratch {
    /// Empty scratch; sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty the set, clearing exactly the bits the last sweep set, and
    /// size the bitset for an `n`-node graph.
    fn begin(&mut self, n: usize) {
        for &v in &self.set {
            self.bits[v as usize / 64] = 0;
        }
        self.set.clear();
        let words = n.div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        self.bits[v as usize / 64] >> (v % 64) & 1 != 0
    }

    /// Add `v` to the set (it must not be a member yet).
    #[inline]
    fn insert(&mut self, v: NodeId) {
        self.bits[v as usize / 64] |= 1 << (v % 64);
        self.set.push(v);
    }

    /// Bytes held by the backing allocations.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
            + self.set.capacity() * std::mem::size_of::<NodeId>()
    }
}

/// Count `v`'s edges against the membership bitset `bits`: `d(v)` and
/// how many lead into the set. The probe per incident edge is the sweep's
/// hot load: a branchless unchecked bit test keeps it one gather + one add
/// per edge.
///
/// # Safety
///
/// `bits` must hold a bit for every node of `graph`: `64 * bits.len() >=
/// graph.num_nodes()`. Neighbor ids are below `num_nodes()` by the CSR
/// invariant, so every load is then in bounds.
#[inline]
pub(crate) unsafe fn count_edges(bits: &[u64], graph: &Graph, v: NodeId) -> (usize, usize) {
    debug_assert!(bits.len() * 64 >= graph.num_nodes());
    let nbrs = graph.neighbors(v);
    let mut internal = 0usize;
    for &u in nbrs {
        // SAFETY: u < num_nodes() <= 64 * bits.len().
        let word = unsafe { *bits.get_unchecked(u as usize / 64) };
        internal += (word >> (u % 64) & 1) as usize;
    }
    // The row's length is d(v), read off the offsets `neighbors` just
    // loaded.
    (nbrs.len(), internal)
}

/// Incremental conductance tracker used by the sweep: nodes are added one
/// at a time and the cut/volume update in O(d(v)) per insertion.
///
/// Membership is a dense bitset over the node domain rather than a hash
/// set: the sweep probes membership once per incident edge, and on the
/// support sizes real queries produce those probes dominate the whole
/// sweep when they hash — or when they miss a cache the bitset fits in.
/// The tracker borrows a [`MemberScratch`] so repeated sweeps reuse one
/// buffer, cleared in time proportional to the last sweep.
#[derive(Debug)]
pub struct SweepState<'g> {
    graph: &'g Graph,
    member: MemberOwnership<'g>,
    len: usize,
    vol: usize,
    cut: usize,
}

#[derive(Debug)]
enum MemberOwnership<'g> {
    Owned(MemberScratch),
    Borrowed(&'g mut MemberScratch),
}

impl MemberOwnership<'_> {
    #[inline]
    fn scratch(&mut self) -> &mut MemberScratch {
        match self {
            MemberOwnership::Owned(m) => m,
            MemberOwnership::Borrowed(m) => m,
        }
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        match self {
            MemberOwnership::Owned(m) => m.contains(v),
            MemberOwnership::Borrowed(m) => m.contains(v),
        }
    }
}

impl<'g> SweepState<'g> {
    /// Empty state over `graph`, with its own membership buffer.
    pub fn new(graph: &'g Graph) -> Self {
        let mut member = MemberScratch::new();
        member.begin(graph.num_nodes());
        SweepState {
            graph,
            member: MemberOwnership::Owned(member),
            len: 0,
            vol: 0,
            cut: 0,
        }
    }

    /// Empty state over `graph` reusing a caller-owned membership buffer
    /// (the batch-serving path: no per-sweep allocation).
    pub fn with_scratch(graph: &'g Graph, scratch: &'g mut MemberScratch) -> Self {
        scratch.begin(graph.num_nodes());
        SweepState {
            graph,
            member: MemberOwnership::Borrowed(scratch),
            len: 0,
            vol: 0,
            cut: 0,
        }
    }

    /// Add `v` (must not already be a member) and return the new
    /// conductance.
    pub fn push(&mut self, v: NodeId) -> f64 {
        debug_assert!(!self.member.contains(v), "node {v} already in sweep set");
        let m = self.member.scratch();
        // SAFETY: `begin`, run by both constructors, sized the bitset for
        // `self.graph`'s nodes, and it never shrinks.
        let (d, internal) = unsafe { count_edges(&m.bits, self.graph, v) };
        m.insert(v);
        self.add_counted(d, internal)
    }

    /// Fold one node's counts — its degree `d` and its `internal` edges
    /// into the set — into the cut and volume and return the new
    /// conductance. Every edge to an existing member stops being cut;
    /// every other incident edge becomes cut. Pure integer counting, so
    /// the result is exact regardless of which thread counted.
    #[inline]
    pub(crate) fn add_counted(&mut self, d: usize, internal: usize) -> f64 {
        self.vol += d;
        self.cut = self.cut + d - 2 * internal;
        self.len += 1;
        self.conductance()
    }

    /// Current conductance (1.0 for degenerate states, as in
    /// [`conductance`]).
    pub fn conductance(&self) -> f64 {
        let complement = self.graph.volume().saturating_sub(self.vol);
        let denom = self.vol.min(complement);
        if denom == 0 {
            1.0
        } else {
            self.cut as f64 / denom as f64
        }
    }

    /// Current set volume.
    pub fn volume(&self) -> usize {
        self.vol
    }

    /// Current cut size.
    pub fn cut(&self) -> usize {
        self.cut
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;

    /// Two triangles joined by one bridge edge.
    fn barbell() -> Graph {
        graph_from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
    }

    #[test]
    fn hand_computed_values() {
        let g = barbell();
        // S = {0,1,2}: vol 7 (degrees 2+2+3), cut 1, complement vol 7.
        assert!((conductance(&g, &[0, 1, 2]) - 1.0 / 7.0).abs() < 1e-12);
        // S = {0}: vol 2, cut 2 -> 1.0.
        assert!((conductance(&g, &[0]) - 1.0).abs() < 1e-12);
        // S = {0,1}: vol 4, cut 2 (edges 0-2 and 1-2).
        assert!((conductance(&g, &[0, 1]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_sets_have_unit_conductance() {
        let g = barbell();
        assert_eq!(conductance(&g, &[]), 1.0);
        let all: Vec<NodeId> = g.nodes().collect();
        assert_eq!(conductance(&g, &all), 1.0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let g = barbell();
        assert_eq!(
            conductance(&g, &[0, 1, 2]),
            conductance(&g, &[0, 1, 2, 2, 1])
        );
    }

    #[test]
    fn complement_symmetry() {
        // Phi(S) counts the same cut for S and V\S; with equal volumes the
        // values coincide.
        let g = barbell();
        let phi_left = conductance(&g, &[0, 1, 2]);
        let phi_right = conductance(&g, &[3, 4, 5]);
        assert!((phi_left - phi_right).abs() < 1e-12);
    }

    #[test]
    fn sweep_state_matches_batch() {
        let g = barbell();
        let order = [2u32, 0, 1, 3, 4];
        let mut state = SweepState::new(&g);
        for i in 0..order.len() {
            let phi_inc = state.push(order[i]);
            let phi_batch = conductance(&g, &order[..=i]);
            assert!(
                (phi_inc - phi_batch).abs() < 1e-12,
                "prefix {i}: incremental {phi_inc} vs batch {phi_batch}"
            );
        }
        assert_eq!(state.len(), 5);
        assert!(!state.is_empty());
    }

    #[test]
    fn sweep_state_counters() {
        let g = barbell();
        let mut state = SweepState::new(&g);
        state.push(0);
        assert_eq!(state.volume(), 2);
        assert_eq!(state.cut(), 2);
        state.push(1);
        assert_eq!(state.volume(), 4);
        assert_eq!(state.cut(), 2);
        state.push(2);
        assert_eq!(state.volume(), 7);
        assert_eq!(state.cut(), 1);
    }

    #[test]
    fn a_sweep_dropped_midway_leaves_no_member_behind() {
        // Public callers may stop pushing at any point and drop the state;
        // the next sweep on the same scratch must start from an empty set.
        let g = barbell();
        let mut member = MemberScratch::new();
        let mut state = SweepState::with_scratch(&g, &mut member);
        state.push(2);
        state.push(3);
        drop(state);
        let mut state = SweepState::with_scratch(&g, &mut member);
        // Node 2's neighbours are 0, 1 and 3: a stale 3 would make the
        // bridge internal and the cut 1.
        state.push(2);
        assert_eq!((state.volume(), state.cut()), (3, 3));
        drop(state);
        member.begin(g.num_nodes());
        assert!(member.bits.iter().all(|&w| w == 0));
        assert!(member.set.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use hk_graph::gen::erdos_renyi_gnm;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    proptest! {
        /// Conductance always lies in [0, 1] and the incremental tracker
        /// agrees with the batch computation on random prefixes.
        #[test]
        fn bounds_and_incremental_agreement(seed in 0u64..500, picks in 1usize..15) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = erdos_renyi_gnm(30, 60, &mut rng).unwrap();
            let mut order: Vec<u32> = (0..30).collect();
            // Fisher-Yates shuffle driven by the proptest seed.
            for i in (1..order.len()).rev() {
                let j = (seed as usize * 31 + i * 17) % (i + 1);
                order.swap(i, j);
            }
            let prefix = &order[..picks];
            let phi = conductance(&g, prefix);
            prop_assert!((0.0..=1.0).contains(&phi), "phi={phi}");
            let mut state = SweepState::new(&g);
            let mut last = 1.0;
            for &v in prefix {
                last = state.push(v);
            }
            prop_assert!((last - phi).abs() < 1e-12);
        }

        /// One scratch reused over sweeps on a big, a small and the big
        /// graph again — some run to the end, some stopped part way —
        /// tracks every prefix bit for bit like a fresh one.
        #[test]
        fn reused_scratch_tracks_like_a_fresh_one(
            seed in 0u64..1_000,
            stops in proptest::collection::vec(0usize..400, 3..12),
        ) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let big = erdos_renyi_gnm(300, 1_200, &mut rng).unwrap();
            let small = erdos_renyi_gnm(40, 80, &mut rng).unwrap();
            let mut shared = MemberScratch::new();
            for (i, &stop) in stops.iter().enumerate() {
                let g = if i % 3 == 1 { &small } else { &big };
                let n = g.num_nodes();
                let mut order: Vec<u32> = (0..n as u32).collect();
                for j in (1..n).rev() {
                    let k = (seed as usize * 31 + i * 7 + j * 17) % (j + 1);
                    order.swap(j, k);
                }
                let mut reused = SweepState::with_scratch(g, &mut shared);
                let mut fresh = SweepState::new(g);
                for &v in &order[..stop.min(n)] {
                    prop_assert_eq!(reused.push(v).to_bits(), fresh.push(v).to_bits());
                    prop_assert_eq!(
                        (reused.volume(), reused.cut(), reused.len()),
                        (fresh.volume(), fresh.cut(), fresh.len())
                    );
                }
            }
        }
    }
}
