//! The sweep cut (§2.2): from an approximate HKPR vector to a local
//! cluster.
//!
//! 1. take the support `S*` of the estimate;
//! 2. sort by normalized HKPR `rho_hat[v] / d(v)` descending;
//! 3. return the prefix `S*_i` with minimum conductance.
//!
//! Runs in `O(|S*| log |S*|)` given the sparse estimate, exactly as the
//! paper states (citing [21, 42]). The TEA+ offset coefficient is ignored
//! by construction — it shifts every normalized value equally and cannot
//! change the order (§5.3). The ranking is
//! [`HkprEstimate::ranked_by_normalized_into`]'s: a stable sort on the
//! value alone over the support in ascending-id order, so ties go to the
//! smaller id.
//!
//! # Two threads
//!
//! Counting the prefixes costs one membership probe per incident edge of
//! every ranked node, random loads into a bitset and into the CSR
//! arrays, and is bound by their latency. A serving query on a host with
//! a core to spare ([`hkpr_core::cores`]) splits a long ranking at `h`
//! and counts it on two threads:
//!
//! * the calling thread runs the one-thread scan over `ranked[..h]`;
//! * one scoped helper sets its own membership bits for `ranked[..h]`,
//!   then counts `ranked[h..]` against them, recording `(d(v),
//!   internal(v))` per position, and clears its bits when it is done;
//! * after the join the caller folds those pairs into its cut and volume
//!   in rank order, with the same integer arithmetic, the same
//!   integer-to-`f64` expression and the same strict `<` as the scan.
//!
//! So the cluster, its conductance, the winning prefix and the support
//! size are the one-thread sweep's bits. Without a helper `h` is the
//! ranking's length: there is one scan routine, not two.

use hk_graph::{Graph, NodeId};
use hkpr_core::cores::{second_core, Busy};
use hkpr_core::HkprEstimate;

use crate::conductance::{count_edges, MemberScratch, SweepState};

/// Result of a sweep.
#[derive(Clone, Debug)]
pub struct SweepResult {
    /// The minimizing prefix, sorted ascending by node id.
    pub cluster: Vec<NodeId>,
    /// Its conductance.
    pub conductance: f64,
    /// Number of candidate nodes that were swept (`|S*|`).
    pub support_size: usize,
    /// Length of the winning prefix.
    pub best_prefix: usize,
}

/// Sweep an explicit ranking (descending normalized score). Returns `None`
/// when `ranked` is empty.
pub fn sweep_ranked(graph: &Graph, ranked: &[(NodeId, f64)]) -> Option<SweepResult> {
    run_sweep(graph, ranked, SweepState::new(graph), None)
}

/// [`sweep_ranked`] reusing a caller-owned membership buffer (no
/// per-sweep allocation; see [`MemberScratch`]).
pub fn sweep_ranked_with(
    graph: &Graph,
    ranked: &[(NodeId, f64)],
    member: &mut MemberScratch,
) -> Option<SweepResult> {
    run_sweep(graph, ranked, SweepState::with_scratch(graph, member), None)
}

/// Lookahead distances of [`scan`], in ranking positions ahead of
/// the node being added. The ranking is known in full after the sort, so
/// the two dependent random reads that lead to a coming node's neighbours
/// — its CSR offsets, then the row they locate — are asked for one stage
/// at a time while earlier nodes are being counted. The membership bits
/// the row names are not: the counting loop is branchless, its loads
/// already overlap, and a third stage measured slower than none.
const AHEAD_OFFSETS: usize = 12;
const AHEAD_ROW: usize = 7;

/// Rankings shorter than this are counted on one thread: spawning and
/// joining the helper costs ≈10 µs, and the helper first sets a bit per
/// prefix node. Swept cold on the benchmark's 1M-node Holme–Kim graph
/// (`direct-walk` supports cut to their top `k` nodes, 100 seeds, best
/// of 7, 2-vCPU x86-64 guest), the split broke even at 4,000–6,000 nodes
/// and read 0.30 → 0.28 ms at 8,000 and 0.55 → 0.47 ms at 16,000.
pub(crate) const MIN_SPLIT: usize = 8192;

/// The calling thread's share of a split ranking, in eighths of its
/// length, split by count. The helper sets the prefix's bits before it
/// counts, and the caller folds the helper's pairs after the join, so
/// the caller takes more than half. Measured as [`MIN_SPLIT`] was, on
/// whole supports (whole sweeps, ranking included): at the `direct-walk`
/// point (≈55k nodes) 9, 10, 11 and 12 sixteenths read 1.48, 1.39, 1.42
/// and 1.53 ms against 2.18 on one thread, at `direct-push` (≈18k) 9, 10
/// and 11 sixteenths 0.69, 0.71 and 0.74 ms against 0.85. A split by
/// volume, which needs one more pass over the ranking's degrees, read
/// 2.11 ms against the count split's 1.91 at half (with an earlier
/// ranking sort).
pub(crate) const CALLER_EIGHTHS: usize = 5;

/// Stack of the sweep's helper thread: it runs one scan loop and calls
/// nothing recursive.
const HELPER_STACK: usize = 64 << 10;

/// The sweep's reusable buffers: the ranking, the calling thread's
/// membership bits and, for a split sweep, the helper's bits and the
/// `(d(v), internal(v))` pairs it counts. Owned by
/// [`QueryScratch`](crate::QueryScratch).
#[derive(Clone, Debug, Default)]
pub(crate) struct SweepScratch {
    ranked: Vec<(NodeId, f64)>,
    member: MemberScratch,
    /// The helper's membership bitset, all clear between sweeps: the
    /// helper clears the ranking's bits when it is done.
    helper_bits: Vec<u64>,
    /// Set while a helper may hold bits, so a sweep cut short by a panic
    /// has the next one clear the whole bitset.
    helper_dirty: bool,
    counted: Vec<(u32, u32)>,
}

impl SweepScratch {
    /// Rank `estimate`'s support and sweep it, on two threads where the
    /// ranking is long enough and a core is spare. `None` for an empty
    /// support.
    pub(crate) fn sweep(&mut self, graph: &Graph, estimate: &HkprEstimate) -> Option<SweepResult> {
        estimate.ranked_by_normalized_into(graph, &mut self.ranked);
        let len = self.ranked.len();
        if !second_core() || len < MIN_SPLIT {
            return self.sweep_split(graph, None);
        }
        let _caller = Busy::enter();
        let h = len * CALLER_EIGHTHS / 8;
        // Sized whether or not a core is spare: what `memory_bytes`
        // reports must not depend on other queries.
        self.fit_helper(graph.num_nodes(), h);
        let helper = Busy::spare();
        self.sweep_split(graph, helper.is_some().then_some(h))
    }

    /// Size the helper's buffers for a split of the current ranking at
    /// `h` over an `n`-node graph, so the helper allocates nothing.
    fn fit_helper(&mut self, n: usize, h: usize) {
        if self.helper_dirty {
            self.helper_bits.fill(0);
            self.helper_dirty = false;
        }
        let words = n.div_ceil(64);
        if self.helper_bits.len() < words {
            self.helper_bits.resize(words, 0);
        }
        let tail = self.ranked.len() - h;
        if self.counted.capacity() < tail {
            self.counted = Vec::with_capacity(tail.max(2 * self.counted.capacity()));
        }
    }

    /// Sweep the current ranking, split at `h` with a helper thread when
    /// `split` is `Some(h)` (after [`fit_helper`](Self::fit_helper)), on
    /// the calling thread alone when it is `None`.
    fn sweep_split(&mut self, graph: &Graph, split: Option<usize>) -> Option<SweepResult> {
        let SweepScratch {
            ranked,
            member,
            helper_bits,
            helper_dirty,
            counted,
        } = self;
        *helper_dirty = split.is_some();
        let split = split.map(|h| Split {
            h,
            bits: helper_bits,
            counted,
        });
        let result = run_sweep(
            graph,
            ranked,
            SweepState::with_scratch(graph, member),
            split,
        );
        *helper_dirty = false;
        result
    }

    /// Bytes held by every buffer: the ranking, both membership bitsets
    /// and the helper's pairs.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.ranked.capacity() * std::mem::size_of::<(NodeId, f64)>()
            + self.member.memory_bytes()
            + self.helper_bytes()
    }

    /// Bytes held by the helper's buffers alone.
    pub(crate) fn helper_bytes(&self) -> usize {
        self.helper_bits.capacity() * std::mem::size_of::<u64>()
            + self.counted.capacity() * std::mem::size_of::<(u32, u32)>()
    }
}

/// The helper's half of a split sweep: where it splits, and the buffers
/// it counts with.
struct Split<'a> {
    h: usize,
    bits: &'a mut [u64],
    counted: &'a mut Vec<(u32, u32)>,
}

/// The least conductance over the prefixes seen so far, and its length.
struct Best {
    phi: f64,
    prefix: usize,
}

impl Best {
    /// A strictly smaller `phi` wins, so a tie keeps the shorter prefix.
    #[inline]
    fn offer(&mut self, phi: f64, prefix: usize) {
        if phi < self.phi {
            self.phi = phi;
            self.prefix = prefix;
        }
    }
}

fn run_sweep(
    graph: &Graph,
    ranked: &[(NodeId, f64)],
    mut state: SweepState<'_>,
    split: Option<Split<'_>>,
) -> Option<SweepResult> {
    if ranked.is_empty() {
        return None;
    }
    let mut best = Best {
        phi: f64::INFINITY,
        prefix: 0,
    };
    match split {
        None => count_prefix(graph, ranked, &mut state, &mut best),
        Some(Split { h, bits, counted }) => {
            let helped = std::thread::scope(|s| {
                let helper = std::thread::Builder::new()
                    .stack_size(HELPER_STACK)
                    .spawn_scoped(s, || count_tail(graph, ranked, h, bits, counted));
                // A helper that could not be spawned leaves the whole
                // ranking to this thread.
                let end = if helper.is_ok() { h } else { ranked.len() };
                count_prefix(graph, &ranked[..end], &mut state, &mut best);
                helper
                    .map(|j| j.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .is_ok()
            });
            if helped {
                for (i, &(d, internal)) in counted.iter().enumerate() {
                    best.offer(state.add_counted(d as usize, internal as usize), h + i + 1);
                }
            }
        }
    }
    let mut cluster: Vec<NodeId> = ranked[..best.prefix].iter().map(|&(v, _)| v).collect();
    cluster.sort_unstable();
    Some(SweepResult {
        cluster,
        conductance: best.phi,
        support_size: ranked.len(),
        best_prefix: best.prefix,
    })
}

/// The one scan loop: hand each node of `part` to `count` in order,
/// asking for the CSR offsets and row of the nodes [`AHEAD_OFFSETS`] and
/// [`AHEAD_ROW`] places on.
#[inline(always)]
fn scan(graph: &Graph, part: &[(NodeId, f64)], mut count: impl FnMut(NodeId)) {
    for (i, &(v, _)) in part.iter().enumerate() {
        if let Some(&(ahead, _)) = part.get(i + AHEAD_OFFSETS) {
            graph.prefetch_node(ahead);
        }
        if let Some(&(ahead, _)) = part.get(i + AHEAD_ROW) {
            prefetch_row(graph, ahead);
        }
        count(v);
    }
}

/// Hint the CPU to pull the head of `v`'s adjacency row (reads `v`'s CSR
/// offsets, which an earlier `prefetch_node` should have asked for).
#[inline]
fn prefetch_row(graph: &Graph, v: NodeId) {
    if (v as usize) < graph.num_nodes() {
        graph.prefetch_neighbor_row(graph.neighbor_row(v).0);
    }
}

/// Add the nodes of `prefix` to `state` in order, offering each prefix's
/// conductance to `best`.
fn count_prefix(
    graph: &Graph,
    prefix: &[(NodeId, f64)],
    state: &mut SweepState<'_>,
    best: &mut Best,
) {
    let mut len = state.len();
    scan(graph, prefix, |v| {
        len += 1;
        best.offer(state.push(v), len);
    });
}

/// The helper's half: set the bits of `ranked[..h]`, then count each
/// node of `ranked[h..]` against them and add it, recording `(d(v),
/// internal(v))` in `counted`; last, clear every bit it set. Degrees fit
/// in `u32`: a CSR row's length is one.
fn count_tail(
    graph: &Graph,
    ranked: &[(NodeId, f64)],
    h: usize,
    bits: &mut [u64],
    counted: &mut Vec<(u32, u32)>,
) {
    debug_assert!(
        counted.capacity() >= ranked.len() - h,
        "fit_helper sized the pairs"
    );
    let set = |bits: &mut [u64], v: NodeId| bits[v as usize / 64] |= 1 << (v % 64);
    for &(v, _) in &ranked[..h] {
        set(bits, v);
    }
    counted.clear();
    assert!(
        64 * bits.len() >= graph.num_nodes(),
        "fit_helper sized the bitset for the graph"
    );
    scan(graph, &ranked[h..], |v| {
        // SAFETY: the assert above.
        let (d, internal) = unsafe { count_edges(bits, graph, v) };
        set(bits, v);
        counted.push((d as u32, internal as u32));
    });
    for &(v, _) in ranked {
        bits[v as usize / 64] = 0;
    }
}

/// Sweep an HKPR estimate: rank its support by normalized value, then run
/// [`sweep_ranked`]. Returns `None` for an empty estimate (e.g. a seed in
/// an empty graph).
pub fn sweep_estimate(graph: &Graph, estimate: &HkprEstimate) -> Option<SweepResult> {
    let ranked = estimate.ranked_by_normalized(graph);
    sweep_ranked(graph, &ranked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conductance::conductance;
    use hk_graph::builder::graph_from_edges;
    use hkpr_core::{exact_hkpr, HkprEstimate, PoissonTable};

    /// Two 4-cliques joined by a single edge — the planted cut is obvious.
    fn two_cliques() -> Graph {
        graph_from_edges([
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (4, 7),
            (5, 6),
            (5, 7),
            (6, 7),
            (3, 4),
        ])
    }

    #[test]
    fn recovers_planted_clique_from_exact_hkpr() {
        let g = two_cliques();
        let p = PoissonTable::new(5.0);
        let rho = exact_hkpr(&g, &p, 0);
        let mut est = HkprEstimate::new();
        for (v, &x) in rho.iter().enumerate() {
            if x > 0.0 {
                est.add_mass(v as u32, x);
            }
        }
        let result = sweep_estimate(&g, &est).unwrap();
        assert_eq!(result.cluster, vec![0, 1, 2, 3]);
        // Phi = 1 cut edge / vol {0,1,2,3} = 13.
        assert!((result.conductance - 1.0 / 13.0).abs() < 1e-12);
        assert_eq!(result.best_prefix, 4);
    }

    #[test]
    fn returns_minimum_over_all_prefixes() {
        let g = two_cliques();
        // Hand-build a ranking; the sweep must find the best prefix even
        // though later prefixes exist.
        let ranked: Vec<(NodeId, f64)> =
            vec![(0, 0.9), (1, 0.8), (2, 0.7), (3, 0.6), (4, 0.5), (5, 0.4)];
        let res = sweep_ranked(&g, &ranked).unwrap();
        for i in 1..=ranked.len() {
            let prefix: Vec<NodeId> = ranked[..i].iter().map(|&(v, _)| v).collect();
            assert!(
                res.conductance <= conductance(&g, &prefix) + 1e-12,
                "prefix {i} beats reported minimum"
            );
        }
        assert_eq!(res.support_size, 6);
        // Two triangles joined by the bridge 2-3: the minimum is the
        // first triangle, cut 1 over volume 7.
        let barbell = graph_from_edges([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]);
        let ranked = [(0, 1.0), (1, 0.9), (2, 0.8), (3, 0.1), (4, 0.05)];
        let res = sweep_ranked(&barbell, &ranked).unwrap();
        assert_eq!(res.cluster, vec![0, 1, 2]);
        assert!((res.conductance - 1.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ranking_gives_none() {
        let g = two_cliques();
        assert!(sweep_ranked(&g, &[]).is_none());
        assert!(sweep_estimate(&g, &HkprEstimate::new()).is_none());
    }

    #[test]
    fn single_node_support() {
        let g = two_cliques();
        let mut est = HkprEstimate::new();
        est.add_mass(0, 1.0);
        let res = sweep_estimate(&g, &est).unwrap();
        assert_eq!(res.cluster, vec![0]);
        assert_eq!(res.best_prefix, 1);
        // {0} has vol 3, cut 3 -> conductance 1.
        assert!((res.conductance - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lookahead_declines_at_the_ends_of_the_csr_arrays() {
        // Rankings shorter than every lookahead distance, over a graph
        // whose last nodes are isolated (their rows start at `volume()`,
        // one past the neighbor array), and a one-node graph: the hints
        // must decline, and the sweep must agree with a recount.
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        b.ensure_nodes(5);
        let g = b.build();
        assert_eq!(g.neighbor_row(4), (g.volume(), 0));
        let ranked: Vec<(NodeId, f64)> = vec![(4, 0.9), (1, 0.8), (3, 0.7), (0, 0.6), (2, 0.5)];
        for len in 1..=ranked.len() {
            let res = sweep_ranked(&g, &ranked[..len]).unwrap();
            assert_eq!(res.support_size, len);
            assert!((res.conductance - conductance(&g, &res.cluster)).abs() < 1e-12);
        }

        let mut b = hk_graph::GraphBuilder::new();
        b.ensure_nodes(1);
        let lone = b.build();
        let res = sweep_ranked(&lone, &[(0, 1.0)]).unwrap();
        assert_eq!((res.cluster, res.conductance), (vec![0], 1.0));

        // A scratch sized for a larger graph, reused on a smaller one.
        let mut member = MemberScratch::new();
        let big = two_cliques();
        let all: Vec<(NodeId, f64)> = (0..8).map(|v| (v, 1.0 / (v + 1) as f64)).collect();
        let on_big = sweep_ranked_with(&big, &all, &mut member).unwrap();
        assert_eq!(on_big.cluster, vec![0, 1, 2, 3]);
        let on_small = sweep_ranked_with(&g, &ranked, &mut member).unwrap();
        assert_eq!(on_small.cluster, sweep_ranked(&g, &ranked).unwrap().cluster);
    }

    #[test]
    fn a_helper_cut_short_leaves_no_bit_behind() {
        // A helper that unwound mid-count leaves its bits set and the
        // scratch marked: the next split sweep clears them all first.
        let g = two_cliques();
        let ranked: Vec<(NodeId, f64)> = (0..8).map(|v| (v, 1.0 / (v + 1) as f64)).collect();
        let want = sweep_ranked(&g, &ranked).unwrap();
        let mut scratch = SweepScratch {
            ranked,
            ..SweepScratch::default()
        };
        scratch.fit_helper(g.num_nodes(), 3);
        scratch.helper_bits.fill(u64::MAX);
        scratch.helper_dirty = true;
        scratch.fit_helper(g.num_nodes(), 3);
        let got = scratch.sweep_split(&g, Some(3)).unwrap();
        assert_eq!(got.cluster, want.cluster);
        assert_eq!(got.conductance.to_bits(), want.conductance.to_bits());
        assert!(scratch.helper_bits.iter().all(|&w| w == 0));
        assert!(!scratch.helper_dirty);
    }

    #[test]
    fn offset_does_not_change_result() {
        let g = two_cliques();
        let p = PoissonTable::new(5.0);
        let rho = exact_hkpr(&g, &p, 0);
        let mut base = HkprEstimate::new();
        for (v, &x) in rho.iter().enumerate() {
            base.add_mass(v as u32, x);
        }
        let mut offset = base.clone();
        offset.set_offset_coeff(0.123);
        let a = sweep_estimate(&g, &base).unwrap();
        let b = sweep_estimate(&g, &offset).unwrap();
        assert_eq!(a.cluster, b.cluster);
        assert_eq!(a.conductance, b.conductance);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::conductance::conductance;
    use crate::reference::sweep_ranked_reference;
    use hk_graph::gen::erdos_renyi_gnm;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{RngExt, SeedableRng};

    /// Sweep `ranked` on `scratch` with the helper forced on or off
    /// whatever the host: split at `h` on two threads for `Some(h)`, on
    /// the calling thread alone for `None`.
    fn forced(
        g: &Graph,
        ranked: &[(NodeId, f64)],
        scratch: &mut SweepScratch,
        split: Option<usize>,
    ) -> Option<SweepResult> {
        scratch.ranked.clear();
        scratch.ranked.extend_from_slice(ranked);
        if let Some(h) = split {
            scratch.fit_helper(g.num_nodes(), h);
        }
        scratch.sweep_split(g, split)
    }

    /// Everything a sweep reports, the conductance as its bits.
    fn bits(r: Option<SweepResult>) -> Option<(Vec<NodeId>, u64, usize, usize)> {
        r.map(|r| {
            (
                r.cluster,
                r.conductance.to_bits(),
                r.best_prefix,
                r.support_size,
            )
        })
    }

    proptest! {
        /// The sweep's reported conductance equals the conductance of the
        /// returned cluster and is minimal over all prefixes.
        #[test]
        fn sweep_is_prefix_minimal(seed in 0u64..300) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = erdos_renyi_gnm(25, 50, &mut rng).unwrap();
            // Rank a pseudo-random subset of nodes.
            let ranked: Vec<(u32, f64)> = (0..25u32)
                .filter(|v| !(v * 7 + seed as u32).is_multiple_of(3))
                .map(|v| (v, 1.0 / (v as f64 + 1.0)))
                .collect();
            prop_assume!(!ranked.is_empty());
            let res = sweep_ranked(&g, &ranked).unwrap();
            prop_assert!((res.conductance - conductance(&g, &res.cluster)).abs() < 1e-12);
            for i in 1..=ranked.len() {
                let prefix: Vec<u32> = ranked[..i].iter().map(|&(v, _)| v).collect();
                prop_assert!(res.conductance <= conductance(&g, &prefix) + 1e-12);
            }
        }

        /// A sweep split over two threads at any `h` — every `h` of a
        /// short ranking, including 0, 1, `len - 1` and `len`, and the
        /// ends, middle and production split of a long one — reports the
        /// one-thread sweep's bits, which are the hash-set reference's.
        /// One scratch serves a large graph, a smaller one (whose
        /// isolated nodes rank too) and the large one again, so a helper
        /// bit left by an earlier sweep would miscount a later one.
        #[test]
        fn a_split_sweep_is_the_one_thread_sweep_bit_for_bit(seed in 0u64..1_000, short in 0usize..10) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let big = erdos_renyi_gnm(300, 1_200, &mut rng).unwrap();
            let small = erdos_renyi_gnm(40, 50, &mut rng).unwrap();
            let mut scratch = SweepScratch::default();
            for g in [&big, &small, &big, &small] {
                let n = g.num_nodes();
                let mut order: Vec<NodeId> = (0..n as NodeId).collect();
                for i in (1..n).rev() {
                    order.swap(i, rng.random_range(0..=i));
                }
                let long = rng.random_range(short..=n);
                for len in [short, long] {
                    let ranked: Vec<(NodeId, f64)> = order[..len]
                        .iter()
                        .enumerate()
                        .map(|(i, &v)| (v, 1.0 / (i + 1) as f64))
                        .collect();
                    let want = bits(sweep_ranked(g, &ranked));
                    prop_assert_eq!(&bits(sweep_ranked_reference(g, &ranked)), &want);
                    prop_assert_eq!(&bits(forced(g, &ranked, &mut scratch, None)), &want);
                    let splits: Vec<usize> = if len <= 10 {
                        (0..=len).collect()
                    } else {
                        vec![0, 1, len / 2, len * CALLER_EIGHTHS / 8, len - 1, len]
                    };
                    for h in splits {
                        let got = bits(forced(g, &ranked, &mut scratch, Some(h)));
                        prop_assert_eq!(&got, &want, "len {} split at {}", len, h);
                    }
                }
            }
        }
    }
}
