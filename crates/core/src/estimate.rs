//! Sparse approximate HKPR vectors and per-query cost counters.

use hk_graph::{Graph, NodeId};

use crate::fxhash::FxHashMap;

/// A sparse approximate HKPR vector `rho_hat_s`.
///
/// Stores explicit mass per touched node plus an optional *offset
/// coefficient* `c`: the logical value of node `v` is
/// `raw[v] + c * d(v)`. TEA+ sets `c = eps_r * delta / 2` (Algorithm 5,
/// lines 18–19); the paper notes this "can be performed in O(1) time, as we
/// can keep each `rho_hat[v]` unchanged but record the value … along with
/// rho_hat" — which is exactly this representation. The offset shifts every
/// *normalized* value by the same constant, so rankings (and therefore
/// sweeps) may ignore it.
///
/// Internally the entries live in two columns of equal length, built in
/// one pass from the dense [`crate::workspace::QueryWorkspace`] touched
/// lists: the node ids, ascending and unique, and their raw values. A
/// pair costs 12 bytes, not the 16 of a padded `(NodeId, f64)`, and
/// `support()` still iterates in deterministic ascending-id order, so the
/// sweep's ranking pass reads two contiguous slices instead of walking a
/// hash map.
#[derive(Clone, Debug, Default)]
pub struct HkprEstimate {
    /// Node ids, ascending and unique.
    nodes: Vec<NodeId>,
    /// `values[i]` is the raw value of `nodes[i]`.
    values: Vec<f64>,
    offset_coeff: f64,
}

impl HkprEstimate {
    /// Empty estimate (all zeros).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an explicit sparse map (e.g. an HK-Push reserve vector).
    pub fn from_values(values: FxHashMap<NodeId, f64>) -> Self {
        let mut entries: Vec<(NodeId, f64)> = values.into_iter().collect();
        entries.sort_unstable_by_key(|&(v, _)| v);
        Self::from_sorted_columns(
            entries.iter().map(|e| e.0).collect(),
            entries.iter().map(|e| e.1).collect(),
        )
    }

    /// Wrap two equal-length columns: node ids, ascending and unique, and
    /// their raw values — the output shape of the dense query workspace.
    /// Both are debug-checked preconditions.
    pub fn from_sorted_columns(nodes: Vec<NodeId>, values: Vec<f64>) -> Self {
        debug_assert_eq!(nodes.len(), values.len(), "columns of equal length");
        debug_assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "node ids must be sorted/unique"
        );
        HkprEstimate {
            nodes,
            values,
            offset_coeff: 0.0,
        }
    }

    /// Add `mass` to node `v`'s explicit value.
    ///
    /// O(log nnz) lookup plus an O(nnz) shift on fresh middle insertions;
    /// ascending-id insertion (the common bulk pattern) stays O(1)
    /// amortized. The hot estimator paths accumulate in dense workspace
    /// arrays instead of calling this per walk.
    #[inline]
    pub fn add_mass(&mut self, v: NodeId, mass: f64) {
        let at = match self.nodes.last() {
            Some(&last) if v <= last => self.nodes.binary_search(&v),
            _ => Err(self.nodes.len()),
        };
        match at {
            Ok(i) => self.values[i] += mass,
            Err(i) => {
                self.nodes.insert(i, v);
                self.values.insert(i, mass);
            }
        }
    }

    /// Set the degree-proportional offset coefficient.
    pub fn set_offset_coeff(&mut self, c: f64) {
        self.offset_coeff = c;
    }

    /// The degree-proportional offset coefficient.
    pub fn offset_coeff(&self) -> f64 {
        self.offset_coeff
    }

    /// Explicit (offset-free) value of `v`.
    #[inline]
    pub fn raw(&self, v: NodeId) -> f64 {
        match self.nodes.binary_search(&v) {
            Ok(i) => self.values[i],
            Err(_) => 0.0,
        }
    }

    /// Estimated `rho_s[v]`, including the offset.
    #[inline]
    pub fn rho(&self, graph: &Graph, v: NodeId) -> f64 {
        self.raw(v) + self.offset_coeff * graph.degree(v) as f64
    }

    /// Estimated normalized HKPR `rho_s[v] / d(v)`; 0 for degree-0 nodes.
    #[inline]
    pub fn normalized(&self, graph: &Graph, v: NodeId) -> f64 {
        let d = graph.degree(v);
        if d == 0 {
            0.0
        } else {
            self.raw(v) / d as f64 + self.offset_coeff
        }
    }

    /// Number of explicitly stored entries.
    pub fn nnz(&self) -> usize {
        self.nodes.len()
    }

    /// Bytes held by this estimate (serving-layer cache budgeting): both
    /// columns, 12 bytes per pair when they are exact-length, plus the
    /// header.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<NodeId>()
            + self.values.capacity() * std::mem::size_of::<f64>()
            + std::mem::size_of::<Self>()
    }

    /// Iterate explicit `(node, raw_value)` entries in ascending node id
    /// order.
    pub fn support(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.nodes.iter().copied().zip(self.values.iter().copied())
    }

    /// Sum of explicit values (excludes offsets; for a TEA/TEA+ output this
    /// is the estimated probability mass accounted for).
    pub fn raw_sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Support sorted by normalized value, descending (ties toward smaller
    /// id for determinism) — the ordering the sweep consumes. The offset is
    /// deliberately ignored: it shifts all normalized values equally.
    /// Degree-0 nodes are left out.
    pub fn ranked_by_normalized(&self, graph: &Graph) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        self.ranked_by_normalized_into(graph, &mut out);
        out
    }

    /// [`ranked_by_normalized`](Self::ranked_by_normalized) into a caller
    /// buffer, so repeated sweeps (batch serving) reuse one allocation.
    /// The buffer also holds the sort's scratch, so its capacity ends at
    /// least twice the support's size; past that, a call allocates only
    /// `slice::sort_by_key`'s buffers for buckets of at most 4,096
    /// entries (64 KiB at most, from the heap and handed back to it).
    ///
    /// Ties go to the smaller id without the id in the sort key: the
    /// support is laid out in ascending-id order, and the sort on the
    /// value alone is stable, so equal values keep that order.
    pub fn ranked_by_normalized_into(&self, graph: &Graph, out: &mut Vec<(NodeId, f64)>) {
        // The lower `nnz` slots receive the ranking; the support is laid
        // out above them in ascending-id order, as the sort's input.
        // Every lower slot is overwritten, so only slots past the last
        // call's ranking need a value now.
        let nnz = self.nnz();
        out.resize(nnz, (0, 0.0));
        out.extend(self.support().filter_map(|(v, x)| match graph.degree(v) {
            0 => None,
            d => Some((v, x / d as f64)),
        }));
        let len = out.len() - nnz;
        let (ranked, support) = out.split_at_mut(nnz);
        rank(support, &mut ranked[..len]);
        out.truncate(len);
    }
}

/// A ranked entry: node and normalized value.
type Ranked = (NodeId, f64);

/// The sort key: ascending `!bits` is descending bits. For the
/// non-negative finite values ranked here, IEEE-754 bit patterns order
/// exactly like `total_cmp` (sign bit clear, then magnitude), so this is
/// the value order, largest first.
#[inline(always)]
fn key(e: &Ranked) -> u64 {
    !e.1.to_bits()
}

/// Buckets of at most this many entries are sorted by `slice::sort_by_key`,
/// whose scratch buffer for them (≤ 64 KiB) comes from the heap and is
/// handed back to it; larger ones are split further.
const SMALL_BUCKET: usize = 4096;

/// Bits of the key one distribution pass splits on.
const DIGIT: u32 = 11;

/// Sort `support` (in ascending-id order) into `ranked` by value,
/// descending, ties in ascending-id order; `support` is clobbered.
///
/// One sort on the value alone, stable, so equal values keep their id
/// order: the same permutation as sorting on `(value, id)`. Ties are the
/// rule, not the exception — a node only walks reached holds `count ·
/// mass / d`, so a walk-bound ranking has few distinct values (4.6 % of
/// them at the benchmark's `direct-walk` point) — and a one-key sort
/// can run on equal keys, which a unique `(value, id)` key never has.
/// The sort is a most-significant-digit distribution on the key's
/// varying bits into `ranked`, stable, then each bucket sorted in place
/// with `support`'s slots of the same positions as scratch: a bucket
/// that one value holds most of is split three ways around it, a small
/// one goes to `slice::sort_by_key`, a large one to the next digit. So
/// the scratch the sort needs is the support's own slots, and no
/// ranking-sized buffer is allocated per call: `sort_by_key` on the
/// whole ranking allocates one, and under glibc's malloc those ≈1 MB
/// transients raised the repo benchmark's `direct-walk` `peak_rss_mb` by
/// ≈2.8 MB on a 2-vCPU x86-64 guest.
fn rank(support: &mut [Ranked], ranked: &mut [Ranked]) {
    if support.len() <= SMALL_BUCKET || !distribute(support, ranked, 64) {
        ranked.copy_from_slice(support);
        ranked.sort_by_key(key);
    }
}

/// Sort `v` in place, stably, on its keys' low `bits` bits (the higher
/// ones are equal throughout), with `scratch` of the same length.
fn sort_bucket(v: &mut [Ranked], scratch: &mut [Ranked], bits: u32) {
    if v.len() <= SMALL_BUCKET {
        v.sort_by_key(key);
    } else if distribute(v, scratch, bits) {
        v.copy_from_slice(scratch);
    }
}

/// Stably distribute `src` into `dst` (same length) and sort each part
/// in place, on the keys' low `bits` bits; `src` is clobbered. Returns
/// false, leaving both untouched, when those bits are equal throughout.
fn distribute(src: &mut [Ranked], dst: &mut [Ranked], bits: u32) -> bool {
    let mask = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
    let pivot = key(&src[src.len() / 2]) & mask;
    let (mut and, mut or, mut below, mut equal) = (u64::MAX, 0u64, 0usize, 0usize);
    for e in src.iter() {
        let k = key(e) & mask;
        and &= k;
        or |= k;
        below += (k < pivot) as usize;
        equal += (k == pivot) as usize;
    }
    let varying = and ^ or;
    if varying == 0 {
        return false;
    }
    if 2 * equal >= src.len() {
        split_three_ways(src, dst, bits, pivot, below, equal);
    } else {
        split_on_digit(src, dst, 64 - varying.leading_zeros());
    }
    true
}

/// [`distribute`] around `pivot`, the key most entries share: entries
/// below it, equal to it and above it, each in input order, then the two
/// outer parts sorted.
fn split_three_ways(
    src: &mut [Ranked],
    dst: &mut [Ranked],
    bits: u32,
    pivot: u64,
    below: usize,
    equal: usize,
) {
    let mask = u64::MAX.checked_shr(64 - bits).unwrap_or(0);
    let (mut lo, mut mid, mut hi) = (0, below, below + equal);
    for &e in src.iter() {
        let k = key(&e) & mask;
        let at = if k < pivot {
            &mut lo
        } else if k == pivot {
            &mut mid
        } else {
            &mut hi
        };
        dst[*at] = e;
        *at += 1;
    }
    let above = below + equal;
    sort_bucket(&mut dst[..below], &mut src[..below], bits);
    sort_bucket(&mut dst[above..], &mut src[above..], bits);
}

/// [`distribute`] on the [`DIGIT`] bits below bit `top`, the highest
/// varying one, then each bucket sorted on the bits below them. Its own
/// function, so only its frames hold the counters.
#[inline(never)]
fn split_on_digit(src: &mut [Ranked], dst: &mut [Ranked], top: u32) {
    let shift = top.saturating_sub(DIGIT);
    let digit_mask = (1usize << (top - shift)) - 1;
    let digit = |e: &Ranked| (key(e) >> shift) as usize & digit_mask;
    let mut next = [0u32; 1 << DIGIT];
    for e in src.iter() {
        next[digit(e)] += 1;
    }
    let mut start = [0u32; 1 << DIGIT];
    let mut sum = 0;
    for (s, n) in start.iter_mut().zip(next.iter_mut()) {
        *s = sum;
        sum += *n;
        *n = *s;
    }
    for &e in src.iter() {
        let d = digit(&e);
        dst[next[d] as usize] = e;
        next[d] += 1;
    }
    for (&a, &b) in start.iter().zip(&next).take(digit_mask + 1) {
        let (a, b) = (a as usize, b as usize);
        if b - a > 1 {
            sort_bucket(&mut dst[a..b], &mut src[a..b], shift);
        }
    }
}

/// Cost counters reported by every estimator in this crate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Push operations performed (each counts one residue transfer along
    /// one edge, the unit the paper's `np` budget is measured in).
    pub push_operations: u64,
    /// Random walks generated.
    pub random_walks: u64,
    /// Total steps across all walks.
    pub walk_steps: u64,
    /// Residue mass `alpha` remaining when walks started (0 if no walks).
    pub alpha: f64,
    /// TEA+ only: whether the push phase alone satisfied condition (11)
    /// and walks were skipped entirely.
    pub early_exit: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;

    fn graph() -> Graph {
        graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)]) // degrees 2,2,3,1
    }

    #[test]
    fn raw_and_offset_accessors() {
        let g = graph();
        let mut e = HkprEstimate::new();
        e.add_mass(2, 0.6);
        e.add_mass(2, 0.1);
        assert!((e.raw(2) - 0.7).abs() < 1e-15);
        assert_eq!(e.raw(0), 0.0);
        e.set_offset_coeff(0.01);
        assert!((e.rho(&g, 2) - (0.7 + 0.03)).abs() < 1e-15);
        assert!((e.rho(&g, 0) - 0.02).abs() < 1e-15);
        assert!((e.normalized(&g, 2) - (0.7 / 3.0 + 0.01)).abs() < 1e-15);
    }

    #[test]
    fn normalized_of_isolated_node_is_zero() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let mut e = HkprEstimate::new();
        e.set_offset_coeff(0.5);
        assert_eq!(e.normalized(&g, 2), 0.0);
    }

    #[test]
    fn ranking_ignores_offset_and_orders_descending() {
        let g = graph();
        let mut e = HkprEstimate::new();
        e.add_mass(0, 0.2); // norm 0.1
        e.add_mass(1, 0.5); // norm 0.25
        e.add_mass(2, 0.3); // norm 0.1
        e.add_mass(3, 0.05); // norm 0.05
        e.set_offset_coeff(123.0);
        let ranked = e.ranked_by_normalized(&g);
        let ids: Vec<_> = ranked.iter().map(|&(v, _)| v).collect();
        assert_eq!(ids, vec![1, 0, 2, 3]); // tie 0 vs 2 broken by id
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn raw_sum_and_nnz() {
        let mut e = HkprEstimate::new();
        e.add_mass(5, 0.25);
        e.add_mass(9, 0.75);
        assert_eq!(e.nnz(), 2);
        assert!((e.raw_sum() - 1.0).abs() < 1e-15);
        let collected: Vec<_> = e.support().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    fn from_values_wraps_map() {
        let mut m: FxHashMap<NodeId, f64> = FxHashMap::default();
        m.insert(1, 0.5);
        let e = HkprEstimate::from_values(m);
        assert_eq!(e.raw(1), 0.5);
        assert_eq!(e.offset_coeff(), 0.0);
    }

    #[test]
    fn out_of_order_insertion_keeps_sorted_support() {
        let mut e = HkprEstimate::new();
        for v in [9u32, 3, 7, 3, 0, 11] {
            e.add_mass(v, 1.0);
        }
        let ids: Vec<u32> = e.support().map(|(v, _)| v).collect();
        assert_eq!(ids, vec![0, 3, 7, 9, 11]);
        assert_eq!(e.raw(3), 2.0);
        assert_eq!(e.nnz(), 5);
    }

    #[test]
    fn from_sorted_entries_roundtrip() {
        let e = HkprEstimate::from_sorted_columns(vec![2, 7], vec![0.5, 0.25]);
        assert_eq!(e.raw(2), 0.5);
        assert_eq!(e.raw(7), 0.25);
        assert_eq!(e.raw(3), 0.0);
        assert_eq!(e.nnz(), 2);
    }

    /// The ranking by its definition: normalized value descending by
    /// `f64::total_cmp`, then id ascending, degree-0 nodes left out.
    fn reference_ranking(e: &HkprEstimate, g: &Graph) -> Vec<(NodeId, u64)> {
        let mut r: Vec<(NodeId, f64)> = e
            .support()
            .filter(|&(v, _)| g.degree(v) > 0)
            .map(|(v, x)| (v, x / g.degree(v) as f64))
            .collect();
        r.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        r.into_iter().map(|(v, x)| (v, x.to_bits())).collect()
    }

    fn ranking_bits(e: &HkprEstimate, g: &Graph) -> Vec<(NodeId, u64)> {
        let mut out = vec![(7, 0.5)]; // stale contents are replaced
        e.ranked_by_normalized_into(g, &mut out);
        out.into_iter().map(|(v, x)| (v, x.to_bits())).collect()
    }

    /// An estimate over `nodes` of `g` whose values come from `pairs`
    /// `(count, mass)` — `count · mass`, as a walk-only node holds — so
    /// nodes of one degree and one pair tie.
    fn tied_estimate(
        nodes: &[NodeId],
        pairs: &[(u32, f64)],
        pick: impl Fn(usize) -> usize,
    ) -> HkprEstimate {
        let mut e = HkprEstimate::new();
        for (i, &v) in nodes.iter().enumerate() {
            let (count, mass) = pairs[pick(i) % pairs.len()];
            e.add_mass(v, count as f64 * mass);
        }
        e
    }

    #[test]
    fn short_rankings_match_the_reference() {
        // Lengths 0, 1 and 2, ties and a degree-0 node among them.
        let mut b = hk_graph::GraphBuilder::new();
        for (u, v) in [(0, 1), (1, 2), (2, 0), (3, 4)] {
            b.add_edge(u, v);
        }
        b.ensure_nodes(6);
        let g = b.build();
        let pairs = [(1, 0.25), (2, 0.25)];
        for nodes in [
            &[][..],
            &[5],
            &[4],
            &[0, 1],
            &[1, 3],
            &[3, 4],
            &[4, 5],
            &[2, 0],
        ] {
            for offset in [0.0, 0.3] {
                let mut e = tied_estimate(nodes, &pairs, |_| 0);
                e.set_offset_coeff(offset);
                assert_eq!(ranking_bits(&e, &g), reference_ranking(&e, &g), "{nodes:?}");
            }
        }
    }

    proptest::proptest! {
        /// The one-key stable sort ranks exactly like the reference
        /// order, on estimates whose values are built from a few
        /// `(count, mass)` pairs (heavy ties) or drawn freely, over
        /// graphs with degree-0 nodes, with and without an offset.
        #[test]
        fn ranking_matches_total_cmp_then_id(
            seed in 0u64..100_000,
            len in 0usize..60,
            distinct in 1usize..5,
            offset in 0u32..2,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let n = 80u32;
            let mut b = hk_graph::GraphBuilder::new();
            for _ in 0..60 {
                let (u, v) = (rng.random_range(0..n - 10), rng.random_range(0..n - 10));
                if u != v {
                    b.add_edge(u, v);
                }
            }
            b.ensure_nodes(n as usize); // nodes n - 10.. have no edges
            let g = b.build();
            let mut nodes: Vec<NodeId> = (0..n).collect();
            for i in (1..nodes.len()).rev() {
                nodes.swap(i, rng.random_range(0..=i));
            }
            nodes.truncate(len);
            let pairs: Vec<(u32, f64)> = (0..distinct)
                .map(|_| (rng.random_range(1..4u32), rng.random_range(0.0..1.0)))
                .collect();
            let free: Vec<usize> = (0..len).map(|_| rng.random_range(0..usize::MAX)).collect();
            let mut e = if distinct == 4 {
                // Free values: mostly distinct keys.
                let mut e = HkprEstimate::new();
                for (&v, &r) in nodes.iter().zip(&free) {
                    e.add_mass(v, r as f64 / usize::MAX as f64);
                }
                e
            } else {
                tied_estimate(&nodes, &pairs, |i| free[i])
            };
            e.set_offset_coeff(offset as f64 * 0.125);
            proptest::prop_assert_eq!(ranking_bits(&e, &g), reference_ranking(&e, &g));
        }

        /// `rank` sorts like `slice::sort_by_key` on the value's bits,
        /// descending, over lengths past every bucket threshold: values
        /// from a handful (ties that fill whole buckets), free values, a
        /// few values one ulp apart (the splits descend to the key's last
        /// bits, and past them), one value holding most entries among
        /// free ones (the three-way split), and two far-apart groups of
        /// values that differ only in their last bits (digit buckets too
        /// large for the small sort, split again).
        #[test]
        fn rank_sorts_like_a_stable_sort(
            seed in 0u64..100_000,
            len in 0usize..20_000,
            shape in 0u32..5,
            distinct in 1u64..6,
        ) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            let base: f64 = rng.random_range(1e-9..1.0);
            let support: Vec<Ranked> = (0..len as NodeId)
                .map(|v| {
                    let x = match shape {
                        0 => base * rng.random_range(1..=distinct) as f64 / 3.0,
                        1 => rng.random_range(0.0..1.0),
                        2 => f64::from_bits(base.to_bits() + rng.random_range(0..distinct)),
                        3 if rng.random_range(0..10u32) < 6 => base,
                        3 => rng.random_range(0.0..1.0),
                        _ => {
                            let group = rng.random_range(0..2u64) << 20;
                            f64::from_bits(base.to_bits() + group + rng.random_range(0..distinct + 1))
                        }
                    };
                    (v, x)
                })
                .collect();
            let mut want = support.clone();
            want.sort_by_key(|&(_, x)| std::cmp::Reverse(x.to_bits()));
            let mut scratch = support.clone();
            let mut got = vec![(0, 0.0); len];
            rank(&mut scratch, &mut got);
            let first_difference = got
                .iter()
                .zip(&want)
                .position(|(a, b)| a.0 != b.0 || a.1.to_bits() != b.1.to_bits());
            proptest::prop_assert_eq!(first_difference, None, "len {}, shape {}", len, shape);
        }

        /// The two columns answer like a `BTreeMap` from id to value
        /// built by the same calls: `add_mass` with ids out of order and
        /// repeated (each node's masses summed in call order), `raw` on
        /// stored and absent ids, `support` in ascending id order, `nnz`
        /// and `raw_sum`, all bit for bit.
        #[test]
        fn columns_match_a_btree_map_model(
            adds in proptest::collection::vec((0u32..64, -1.0f64..1.0, 0u32..8), 0..200),
            probes in proptest::collection::vec(0u32..80, 0..20),
        ) {
            let mut e = HkprEstimate::new();
            let mut model = std::collections::BTreeMap::new();
            for (v, x, zero) in adds {
                // Signed zeros too: a first add keeps -0.0 as it is.
                let x = match zero {
                    0 => -0.0,
                    1 => 0.0,
                    _ => x,
                };
                e.add_mass(v, x);
                model.entry(v).and_modify(|y: &mut f64| *y += x).or_insert(x);
            }
            let bits = |it: &mut dyn Iterator<Item = (NodeId, f64)>| {
                it.map(|(v, x)| (v, x.to_bits())).collect::<Vec<_>>()
            };
            proptest::prop_assert_eq!(
                bits(&mut e.support()),
                bits(&mut model.iter().map(|(&v, &x)| (v, x)))
            );
            proptest::prop_assert_eq!(e.nnz(), model.len());
            let model_sum: f64 = model.values().sum();
            proptest::prop_assert_eq!(e.raw_sum().to_bits(), model_sum.to_bits());
            for v in probes.into_iter().chain(model.keys().copied()) {
                let want = model.get(&v).copied().unwrap_or(0.0);
                proptest::prop_assert_eq!(e.raw(v).to_bits(), want.to_bits(), "node {}", v);
            }
        }
    }
}
