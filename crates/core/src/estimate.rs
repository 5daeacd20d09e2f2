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
    pub fn ranked_by_normalized(&self, graph: &Graph) -> Vec<(NodeId, f64)> {
        let mut out = Vec::new();
        self.ranked_by_normalized_into(graph, &mut out);
        out
    }

    /// [`ranked_by_normalized`](Self::ranked_by_normalized) into a caller
    /// buffer, so repeated sweeps (batch serving) reuse one allocation.
    pub fn ranked_by_normalized_into(&self, graph: &Graph, out: &mut Vec<(NodeId, f64)>) {
        out.clear();
        out.extend(
            self.support()
                .filter(|&(v, _)| graph.degree(v) > 0)
                .map(|(v, x)| (v, x / graph.degree(v) as f64)),
        );
        // For the non-negative finite values stored here, IEEE-754 bit
        // patterns order exactly like total_cmp (sign bit clear, then
        // magnitude), so sorting on the raw bits descending + id ascending
        // performs the *same comparisons* as the f64 comparator — same
        // algorithm, same decisions, bit-identical permutation — with a
        // two-integer key the sort kernel handles much faster than an f64
        // branch chain.
        out.sort_unstable_by_key(|&(v, x)| (std::cmp::Reverse(x.to_bits()), v));
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

    proptest::proptest! {
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
