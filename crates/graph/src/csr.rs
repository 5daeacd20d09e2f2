//! Immutable compressed-sparse-row (CSR) graph.
//!
//! The HKPR algorithms in `hkpr-core` are *local*: their cost is dominated
//! by `neighbors(v)` scans and uniform neighbor sampling. CSR keeps each
//! adjacency list contiguous and sorted, which gives
//!
//! * O(1) `degree`, O(1) neighbor indexing (uniform sampling),
//! * O(log d(v)) `has_edge` via binary search (used by the sweep's
//!   incremental cut maintenance),
//! * two flat allocations for the whole graph: `4(n + 1) + 4·arcs`
//!   bytes, the offsets `u32` like the neighbor ids.
//!
//! # Storage backends
//!
//! The CSR arrays are *views over a storage backend*
//! ([`crate::storage`]): either two owned heap allocations (builders,
//! generators) or a single aligned arena holding a `.hkg` snapshot read
//! zero-copy (heap-read or mmap). The views are raw slices resolved once
//! at construction — every accessor below compiles to the same loads as
//! a two-`Box` layout, with no per-access branch on the backend.
//! All backends satisfy the same invariants and compare equal
//! ([`PartialEq`] is over the array *contents*), and
//! [`Graph::fingerprint`] is backend-independent by construction: an
//! arena returns the value its snapshot records, an owned graph hashes
//! its arrays, and the two agree.

use std::ptr::NonNull;
use std::sync::Arc;

use crate::error::GraphError;
use crate::storage::{Arena, StorageBackend};

/// Node identifier. Graphs are limited to `u32::MAX` nodes, which covers the
/// paper's largest dataset (Friendster, 65.6M nodes) with room to spare
/// while halving index memory relative to `usize`.
pub type NodeId = u32;

/// The most arcs (`2m`, adjacency entries) a graph holds: its offsets are
/// `u32`. Friendster, the paper's largest graph, has ≈3.6·10⁹.
pub const MAX_ARCS: usize = u32::MAX as usize;

/// Whether `arcs` adjacency entries fit a graph's `u32` offsets
/// ([`MAX_ARCS`]); a [`GraphError::InvalidParameter`] naming the count if
/// not.
pub(crate) fn check_arcs(arcs: u64) -> Result<(), GraphError> {
    if arcs > MAX_ARCS as u64 {
        return Err(GraphError::InvalidParameter(format!(
            "{arcs} arcs exceed the u32 offsets' {MAX_ARCS}"
        )));
    }
    Ok(())
}

/// A raw, immutable view of `[T]` whose backing memory is owned by the
/// `Graph` that holds it (heap boxes or an arena kept alive by `Arc`).
/// Resolved once at construction so the hot accessors below stay
/// branch-free across backends.
struct RawSlice<T> {
    ptr: NonNull<T>,
    len: usize,
}

// Plain pointer+len pair; `Copy` keeps `Clone for Graph` trivial for the
// arena backend (same allocation, same views).
impl<T> Clone for RawSlice<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for RawSlice<T> {}

impl<T> RawSlice<T> {
    fn of(s: &[T]) -> RawSlice<T> {
        RawSlice {
            // Slices are non-null even when empty.
            ptr: NonNull::from(s).cast(),
            len: s.len(),
        }
    }

    /// # Safety
    /// The backing allocation must be live and immutable; the caller
    /// (always `Graph`, which owns the storage) guarantees both.
    #[inline]
    unsafe fn get(&self) -> &[T] {
        std::slice::from_raw_parts(self.ptr.as_ptr(), self.len)
    }
}

/// What keeps a graph's array memory alive.
enum Storage {
    /// Two independent heap allocations.
    Owned {
        offsets: Box<[u32]>,
        neighbors: Box<[NodeId]>,
    },
    /// One shared arena (a v2 snapshot); the views point into it.
    Arena {
        arena: Arc<Arena>,
        /// The fingerprint the image's header records.
        fingerprint: u64,
    },
}

/// An undirected, unweighted graph in CSR form.
///
/// Invariants (maintained by [`crate::GraphBuilder`] and checked by the
/// property tests in this crate; the snapshot loaders validate the
/// memory-safety subset — monotone offsets, `offsets[n] == arcs`,
/// neighbor range — and trust sortedness/symmetry from the writer, see
/// [`crate::io`]):
///
/// * `offsets.len() == num_nodes + 1`, `offsets[0] == 0`, monotone,
///   `offsets[num_nodes] == arcs <= MAX_ARCS`;
/// * `neighbors[offsets[v]..offsets[v+1]]` is strictly increasing
///   (no duplicate edges, no self-loops);
/// * adjacency is symmetric: `u ∈ neighbors(v) ⇔ v ∈ neighbors(u)`.
pub struct Graph {
    /// Where each adjacency row starts in `neighbors`, `n + 1` entries.
    /// A degree is the difference of two adjacent entries, so
    /// [`degree`](Self::degree) reads the line that
    /// [`neighbor_row`](Self::neighbor_row) and
    /// [`prefetch_node`](Self::prefetch_node) read too; 16 nodes share it.
    offsets: RawSlice<u32>,
    /// The adjacency rows, back to back (`arcs` entries).
    neighbors: RawSlice<NodeId>,
    storage: Storage,
}

// SAFETY: a graph is immutable after construction; the raw views point
// into storage owned by the same struct (heap boxes or Arc<Arena>, both
// address-stable and Send + Sync themselves).
unsafe impl Send for Graph {}
unsafe impl Sync for Graph {}

impl Graph {
    /// Assemble an owned-backend graph from pre-built arrays. The boxes'
    /// heap blocks are address-stable under struct moves, so views taken
    /// here stay valid for the graph's lifetime.
    pub(crate) fn from_owned_parts(offsets: Box<[u32]>, neighbors: Box<[NodeId]>) -> Self {
        debug_assert_eq!(offsets.last().map(|&o| o as usize), Some(neighbors.len()));
        Graph {
            offsets: RawSlice::of(&offsets),
            neighbors: RawSlice::of(&neighbors),
            storage: Storage::Owned { offsets, neighbors },
        }
    }

    /// Assemble an arena-backend graph from views into `arena`.
    /// `fingerprint` is the value the image records, which
    /// [`fingerprint`](Self::fingerprint) then returns without hashing; it
    /// is trusted from the writer like sortedness and symmetry are.
    ///
    /// # Safety
    /// Both slices must point into `arena`'s buffer, and the caller must
    /// have validated everything the unchecked accessors rely on: offsets
    /// monotone with `offsets[0] == 0` and `offsets[n] == neighbors.len()`,
    /// and every neighbor id below `n` (the snapshot loader does).
    pub(crate) unsafe fn from_arena_parts(
        arena: Arc<Arena>,
        offsets: &[u32],
        neighbors: &[NodeId],
        fingerprint: u64,
    ) -> Self {
        Graph {
            offsets: RawSlice::of(offsets),
            neighbors: RawSlice::of(neighbors),
            storage: Storage::Arena { arena, fingerprint },
        }
    }

    /// Assemble a graph from raw CSR arrays (owned backend).
    ///
    /// `offsets` must have length `n + 1` with `offsets[0] == 0` and
    /// `offsets[n] == neighbors.len()`; adjacency lists must be sorted,
    /// self-loop-free and symmetric. [`crate::GraphBuilder`] produces
    /// conforming input; this constructor validates the cheap structural
    /// invariants and panics on violation (programmer error, not input
    /// error).
    ///
    /// # Panics
    /// Also when `neighbors.len()` exceeds [`MAX_ARCS`]: the offsets are
    /// stored as `u32`.
    pub fn from_csr(offsets: Vec<usize>, neighbors: Vec<NodeId>) -> Self {
        assert!(!offsets.is_empty(), "offsets must contain at least [0]");
        assert_eq!(offsets[0], 0, "offsets[0] must be 0");
        assert_eq!(
            *offsets.last().unwrap(),
            neighbors.len(),
            "last offset must equal neighbor array length"
        );
        check_arcs(neighbors.len() as u64).unwrap_or_else(|e| panic!("{e}"));
        debug_assert!(
            offsets.windows(2).all(|w| w[0] <= w[1]),
            "offsets must be monotone"
        );
        debug_assert_eq!(
            neighbors.len() % 2,
            0,
            "undirected graph must have even arc count"
        );
        // Monotone and ending at `neighbors.len()`, so every entry fits.
        let offsets = offsets.into_iter().map(|o| o as u32).collect();
        Graph::from_owned_parts(offsets, neighbors.into_boxed_slice())
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph::from_owned_parts(vec![0; n + 1].into_boxed_slice(), Box::new([]))
    }

    /// The offsets array (`n + 1` entries).
    #[inline]
    pub(crate) fn offs(&self) -> &[u32] {
        // SAFETY: view into storage owned by `self` (see `RawSlice::get`).
        unsafe { self.offsets.get() }
    }

    /// The flat neighbor array (`2m` entries).
    #[inline]
    pub(crate) fn nbrs(&self) -> &[NodeId] {
        // SAFETY: as above.
        unsafe { self.neighbors.get() }
    }

    /// Every node's degree, in id order: differences of adjacent offsets.
    pub(crate) fn degrees(&self) -> impl Iterator<Item = usize> + '_ {
        self.offs().windows(2).map(|w| (w[1] - w[0]) as usize)
    }

    /// Which storage backend holds this graph's arrays.
    pub fn backend(&self) -> StorageBackend {
        match &self.storage {
            Storage::Owned { .. } => StorageBackend::Owned,
            Storage::Arena { arena, .. } => arena.backend(),
        }
    }

    /// Copy this graph onto the owned backend (a no-op copy for a graph
    /// that is already owned). Used to detach a graph from its arena —
    /// e.g. to outlive an unlinked snapshot file — and by the
    /// differential storage conformance suite. The copy carries no
    /// recorded fingerprint: like every owned graph it hashes its arrays.
    pub fn to_owned_backend(&self) -> Graph {
        Graph::from_owned_parts(self.offs().into(), self.nbrs().into())
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len / 2
    }

    /// Total volume `2m` (sum of all degrees).
    #[inline]
    pub fn volume(&self) -> usize {
        self.neighbors.len
    }

    /// Average degree `d̄ = 2m / n` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.volume() as f64 / self.num_nodes() as f64
        }
    }

    /// Degree of `v`: `offsets[v+1] - offsets[v]`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.neighbor_row(v).1 as usize
    }

    /// Degree of `v`, clamped to at least 1 — the denominator form every
    /// `r/d` normalization uses so isolated nodes never divide by zero.
    #[inline]
    pub fn degree_nz(&self, v: NodeId) -> usize {
        self.degree(v).max(1)
    }

    /// Sorted adjacency list of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let (start, degree) = self.neighbor_row(v);
        &self.nbrs()[start..start + degree as usize]
    }

    /// The `i`-th neighbor of `v` (`i < degree(v)`); O(1), used for uniform
    /// neighbor sampling in random walks.
    #[inline]
    pub fn neighbor_at(&self, v: NodeId, i: usize) -> NodeId {
        debug_assert!(i < self.degree(v));
        self.nbrs()[self.offs()[v as usize] as usize + i]
    }

    /// Start of `v`'s adjacency row in the flat neighbor array, plus its
    /// degree, in one call. The two loads are adjacent `u32`s
    /// (`offsets[v]`, `offsets[v+1]`), so a random access usually costs a
    /// single cache line — the walk kernels carry the returned pair in
    /// registers instead of re-deriving it per step.
    #[inline]
    pub fn neighbor_row(&self, v: NodeId) -> (usize, u32) {
        let v = v as usize;
        let offs = self.offs();
        let start = offs[v];
        (start as usize, offs[v + 1] - start)
    }

    /// Read the flat neighbor array at `i` without a bounds check — the
    /// inner load of the lane walk kernel, whose index is proved in range
    /// by construction (`i = row_start + j` with `j < degree`, both from
    /// [`neighbor_row`](Self::neighbor_row)).
    ///
    /// # Safety
    /// `i` must be below `volume()` (the flat neighbor array's length).
    #[inline]
    pub unsafe fn neighbor_flat_unchecked(&self, i: usize) -> NodeId {
        debug_assert!(i < self.neighbors.len);
        *self.nbrs().get_unchecked(i)
    }

    /// [`neighbor_row`](Self::neighbor_row) without bounds checks — for
    /// node ids read *out of the CSR arrays themselves*, which the graph
    /// invariants guarantee are below `num_nodes()`.
    ///
    /// # Safety
    /// `v` must be below `num_nodes()`.
    #[inline]
    pub unsafe fn neighbor_row_unchecked(&self, v: NodeId) -> (usize, u32) {
        let v = v as usize;
        debug_assert!(v + 1 < self.offsets.len);
        let offs = self.offs();
        let start = *offs.get_unchecked(v);
        let end = *offs.get_unchecked(v + 1);
        (start as usize, end - start)
    }

    /// Hint the CPU to pull `v`'s offsets cache line (the input of the
    /// next [`neighbor_row`](Self::neighbor_row) call) into L1. Paired
    /// with [`prefetch_neighbor_row`](Self::prefetch_neighbor_row), this
    /// covers both random loads of a walk step.
    #[inline]
    pub fn prefetch_node(&self, v: NodeId) {
        #[cfg(target_arch = "x86_64")]
        if (v as usize) < self.offsets.len {
            // SAFETY: in-bounds pointer; prefetch has no other effect.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(self.offs().as_ptr().add(v as usize) as *const i8);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = v;
    }

    /// Hint the CPU to pull the cache line holding flat neighbor index
    /// `row_start` (the head of an adjacency row) into L1. The lane walk
    /// kernel issues this one step ahead of the row's use so the DRAM
    /// latency of the random access overlaps the other lanes' work. A
    /// no-op on architectures without a stable prefetch intrinsic, and
    /// for out-of-range indices (degree-0 rows point at the array end).
    #[inline]
    pub fn prefetch_neighbor_row(&self, row_start: usize) {
        #[cfg(target_arch = "x86_64")]
        if row_start < self.neighbors.len {
            // SAFETY: in-bounds pointer; prefetch has no other effect.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch::<_MM_HINT_T0>(self.nbrs().as_ptr().add(row_start) as *const i8);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = row_start;
    }

    /// Whether the undirected edge `{u, v}` exists. O(log min(d(u), d(v))).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.num_nodes() as NodeId
    }

    /// Iterator over undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Sum of degrees over a node set (the set's *volume*).
    pub fn set_volume(&self, nodes: &[NodeId]) -> usize {
        nodes.iter().map(|&v| self.degree(v)).sum()
    }

    /// Approximate resident memory of the CSR storage in bytes (used by
    /// the Figure 5 memory experiment to separate graph storage from
    /// per-query working memory, and by the serving registry's
    /// resident-byte budget). For the owned backend this is the two
    /// arrays, `4(n + 1) + 4·arcs`; for an arena it is the whole snapshot
    /// buffer (header and padding included — they are resident too).
    pub fn memory_bytes(&self) -> usize {
        match &self.storage {
            Storage::Owned { offsets, neighbors } => {
                std::mem::size_of_val::<[u32]>(offsets)
                    + std::mem::size_of_val::<[NodeId]>(neighbors)
            }
            Storage::Arena { arena, .. } => arena.len(),
        }
    }

    /// Maximum degree (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        self.degrees().max().unwrap_or(0)
    }

    /// Node with the maximum degree (`None` for an empty graph). Ties break
    /// toward the smaller id. Used by the "interactive exploration" example
    /// to pick a celebrity-like seed.
    pub fn max_degree_node(&self) -> Option<NodeId> {
        self.nodes()
            .max_by_key(|&v| (self.degree(v), std::cmp::Reverse(v)))
    }

    /// A 64-bit structural fingerprint of the graph: an FNV-1a-style hash
    /// over `n`, the arc count and the full CSR arrays. Two graphs have
    /// equal fingerprints iff (modulo 64-bit collisions) they are the same
    /// graph, because CSR is a canonical form — adjacency lists are
    /// sorted, so build order cannot perturb the bytes. The hash reads the
    /// arrays through the accessor views, so it is also independent of the
    /// storage backend (property-tested by the conformance suite).
    ///
    /// Serving layers key result caches on this value so entries cached
    /// against one graph can never be served for another (`hk-serve`'s
    /// cache key includes it) — which is also what lets a multi-graph
    /// registry evict and reload a snapshot without invalidating cached
    /// results. O(1) for a graph loaded from a snapshot, whose header
    /// carries the value [`crate::io::write_binary_v2`] computed when it
    /// wrote the image ([`recorded_fingerprint`](Self::recorded_fingerprint));
    /// O(n + m) per call on the owned backend ([`compute_fingerprint`](Self::compute_fingerprint)).
    pub fn fingerprint(&self) -> u64 {
        self.recorded_fingerprint()
            .unwrap_or_else(|| self.compute_fingerprint())
    }

    /// The fingerprint this graph's snapshot image records (`None` for
    /// every owned graph, which was not loaded from one).
    pub fn recorded_fingerprint(&self) -> Option<u64> {
        match self.storage {
            Storage::Arena { fingerprint, .. } => Some(fingerprint),
            Storage::Owned { .. } => None,
        }
    }

    /// [`fingerprint`](Self::fingerprint) hashed from the arrays, whatever
    /// the image records: the independent recompute that checks a recorded
    /// value. O(n + m) per call.
    pub fn compute_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        #[inline]
        fn mix(h: u64, x: u64) -> u64 {
            // FNV-1a over the 8 bytes of x, one u64 round: xor-fold then
            // multiply twice to diffuse the high bytes too.
            let h = (h ^ x).wrapping_mul(PRIME);
            (h ^ (x >> 32)).wrapping_mul(PRIME)
        }
        let mut h = mix(OFFSET, self.num_nodes() as u64);
        h = mix(h, self.neighbors.len as u64);
        for &off in self.offs().iter() {
            h = mix(h, off as u64);
        }
        // Pack neighbor ids two-per-round.
        let mut chunks = self.nbrs().chunks_exact(2);
        for pair in &mut chunks {
            h = mix(h, (pair[0] as u64) << 32 | pair[1] as u64);
        }
        for &v in chunks.remainder() {
            h = mix(h, v as u64);
        }
        h
    }

    /// Validate the full CSR invariant set (sortedness, symmetry, loop
    /// freedom). O(m log d); intended for tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        if *self.offs().last().unwrap() as usize != self.neighbors.len {
            return Err("offset/neighbor length mismatch".into());
        }
        if let Some(v) = self.offs().windows(2).position(|w| w[0] > w[1]) {
            return Err(format!("offsets not monotone at {v}"));
        }
        for v in self.nodes() {
            let adj = self.neighbors(v);
            if !adj.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {v} not strictly sorted"));
            }
            if adj.binary_search(&v).is_ok() {
                return Err(format!("self-loop at {v}"));
            }
            for &u in adj {
                if u as usize >= self.num_nodes() {
                    return Err(format!("neighbor {u} of {v} out of range"));
                }
                if self.neighbors(u).binary_search(&v).is_err() {
                    return Err(format!("edge {v}->{u} not symmetric"));
                }
            }
        }
        Ok(())
    }
}

impl Clone for Graph {
    fn clone(&self) -> Graph {
        match &self.storage {
            // Owned: deep-copy the arrays (the historical `derive` did).
            Storage::Owned { .. } => self.to_owned_backend(),
            // Arena: share the buffer; the views stay valid because they
            // point into the same (Arc-pinned) allocation.
            Storage::Arena { arena, fingerprint } => Graph {
                offsets: self.offsets,
                neighbors: self.neighbors,
                storage: Storage::Arena {
                    arena: Arc::clone(arena),
                    fingerprint: *fingerprint,
                },
            },
        }
    }
}

/// Structural equality over the CSR *contents* — deliberately
/// backend-blind, so an arena load of a snapshot compares equal to the
/// owned graph it was written from.
impl PartialEq for Graph {
    fn eq(&self, other: &Graph) -> bool {
        self.offs() == other.offs() && self.nbrs() == other.nbrs()
    }
}
impl Eq for Graph {}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("nodes", &self.num_nodes())
            .field("edges", &self.num_edges())
            .field("backend", &self.backend())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn triangle_plus_tail() -> Graph {
        // 0-1, 1-2, 2-0, 2-3
        let mut b = GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.add_edge(2, 0);
        b.add_edge(2, 3);
        b.build()
    }

    #[test]
    fn basic_counts() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.volume(), 8);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.max_degree_node(), Some(2));
    }

    #[test]
    fn neighbors_sorted_and_indexed() {
        let g = triangle_plus_tail();
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.neighbor_at(2, 0), 0);
        assert_eq!(g.neighbor_at(2, 2), 3);
    }

    #[test]
    fn neighbor_row_matches_per_node_accessors() {
        let g = triangle_plus_tail();
        for v in g.nodes() {
            let (start, deg) = g.neighbor_row(v);
            assert_eq!(deg as usize, g.degree(v));
            assert_eq!(unsafe { g.neighbor_row_unchecked(v) }, (start, deg));
            for i in 0..deg as usize {
                assert_eq!(
                    unsafe { g.neighbor_flat_unchecked(start + i) },
                    g.neighbor_at(v, i)
                );
            }
            // Prefetching any valid row start (or the end sentinel of a
            // trailing degree-0 node) must be a safe no-op.
            g.prefetch_neighbor_row(start);
            g.prefetch_node(v);
        }
        g.prefetch_neighbor_row(g.volume());
    }

    #[test]
    fn has_edge_both_directions_and_no_loop() {
        let g = triangle_plus_tail();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn edge_iterator_yields_canonical_pairs() {
        let g = triangle_plus_tail();
        let mut edges: Vec<_> = g.edges().collect();
        edges.sort();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn set_volume_sums_degrees() {
        let g = triangle_plus_tail();
        assert_eq!(g.set_volume(&[0, 2]), 2 + 3);
        assert_eq!(g.set_volume(&[]), 0);
    }

    #[test]
    fn the_arc_bound_is_the_u32_offsets() {
        assert!(check_arcs(0).is_ok());
        assert!(check_arcs(MAX_ARCS as u64).is_ok());
        assert!(matches!(
            check_arcs(MAX_ARCS as u64 + 1),
            Err(GraphError::InvalidParameter(m)) if m.contains("4294967296 arcs")
        ));
    }

    #[test]
    fn empty_graph() {
        let g = Graph::empty(5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(4), 0);
        assert!(g.neighbors(0).is_empty());
        assert_eq!(g.max_degree_node(), Some(0));
        assert!(Graph::empty(0).max_degree_node().is_none());
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn invariants_hold_for_builder_output() {
        let g = triangle_plus_tail();
        assert!(g.check_invariants().is_ok());
    }

    #[test]
    fn invariant_checker_catches_asymmetry() {
        // 0 -> 1 exists but 1 -> 0 missing.
        let g = Graph::from_csr(vec![0, 1, 2], vec![1, 0]);
        assert!(g.check_invariants().is_ok());
        let bad = Graph::from_csr(vec![0, 1, 2, 2, 2], vec![1, 2]);
        assert!(bad.check_invariants().is_err());
    }

    #[test]
    fn memory_accounting_positive() {
        let g = triangle_plus_tail();
        assert!(g.memory_bytes() >= 8 * std::mem::size_of::<NodeId>());
    }

    #[test]
    fn owned_backend_reported_and_clone_is_deep_equal() {
        let g = triangle_plus_tail();
        assert_eq!(g.backend(), StorageBackend::Owned);
        let c = g.clone();
        assert_eq!(g, c);
        assert_eq!(c.backend(), StorageBackend::Owned);
        let o = g.to_owned_backend();
        assert_eq!(g, o);
        assert_eq!(g.fingerprint(), o.fingerprint());
        // An owned graph records nothing: it always hashes.
        assert_eq!(g.recorded_fingerprint(), None);
        assert_eq!(g.fingerprint(), g.compute_fingerprint());
    }

    #[test]
    fn graph_moves_keep_views_valid() {
        // Views are raw pointers into heap storage; moving the Graph
        // struct (Vec reallocation, Box, etc.) must not disturb them.
        let graphs: Vec<Graph> = (0..32).map(|_| triangle_plus_tail()).collect();
        let boxed: Vec<Box<Graph>> = graphs.into_iter().map(Box::new).collect();
        for g in &boxed {
            assert_eq!(g.neighbors(2), &[0, 1, 3]);
            assert!(g.check_invariants().is_ok());
        }
    }

    #[test]
    fn fingerprint_is_structural() {
        let g = triangle_plus_tail();
        // Stable across calls and across clones.
        assert_eq!(g.fingerprint(), g.fingerprint());
        assert_eq!(g.fingerprint(), g.clone().fingerprint());
        // Build order cannot matter: CSR is canonical.
        let mut b = GraphBuilder::new();
        for (u, v) in [(2, 3), (2, 0), (1, 2), (0, 1)] {
            b.add_edge(u, v);
        }
        assert_eq!(b.build().fingerprint(), g.fingerprint());
        // Any structural change changes the fingerprint.
        let mut b = GraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (2, 0)] {
            b.add_edge(u, v);
        }
        assert_ne!(b.build().fingerprint(), g.fingerprint());
        // Isolated trailing nodes are part of the structure.
        assert_ne!(Graph::empty(4).fingerprint(), Graph::empty(5).fingerprint());
    }
}
