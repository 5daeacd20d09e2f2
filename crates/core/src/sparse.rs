//! Sparse per-hop residue storage.
//!
//! HK-Push and HK-Push+ maintain `K + 1` residue vectors
//! `r_s^(0), …, r_s^(K)` (Algorithms 1 and 4). Each vector touches only the
//! nodes reached within `k` hops of the seed, so they are stored as
//! hash maps keyed by node id. The table also tracks per-hop residue sums
//! incrementally — TEA's walk count is `alpha * omega` with
//! `alpha = sum_k sum_u r^(k)[u]` (Algorithm 3, line 7), and TEA+'s residue
//! reduction needs the per-hop sums for `beta_k` (Algorithm 5, line 9).

use crate::fxhash::FxHashMap;

/// Multi-hop sparse residue table.
#[derive(Clone, Debug, Default)]
pub struct ResidueTable {
    hops: Vec<FxHashMap<u32, f64>>,
    hop_sums: Vec<f64>,
    /// Per hop, the nodes in the order [`add`](Self::add) first created
    /// their entry.
    first_touch: Vec<Vec<u32>>,
}

impl ResidueTable {
    /// Table with `num_hops` pre-allocated hop levels (more are added on
    /// demand by [`add`](Self::add)).
    pub fn new(num_hops: usize) -> Self {
        ResidueTable {
            hops: (0..num_hops).map(|_| FxHashMap::default()).collect(),
            hop_sums: vec![0.0; num_hops],
            first_touch: vec![Vec::new(); num_hops],
        }
    }

    /// Number of hop levels currently present (`K + 1`).
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// Residue `r^(k)[v]`; 0 if absent.
    #[inline]
    pub fn get(&self, k: usize, v: u32) -> f64 {
        self.hops
            .get(k)
            .and_then(|h| h.get(&v))
            .copied()
            .unwrap_or(0.0)
    }

    /// Add `delta` to `r^(k)[v]`, growing the table if needed.
    /// Returns `(old, new)` so callers can detect threshold crossings.
    #[inline]
    pub fn add(&mut self, k: usize, v: u32, delta: f64) -> (f64, f64) {
        if k >= self.hops.len() {
            self.hops.resize_with(k + 1, FxHashMap::default);
            self.hop_sums.resize(k + 1, 0.0);
            self.first_touch.resize_with(k + 1, Vec::new);
        }
        let first_touch = &mut self.first_touch[k];
        let entry = self.hops[k].entry(v).or_insert_with(|| {
            first_touch.push(v);
            0.0
        });
        let old = *entry;
        *entry += delta;
        self.hop_sums[k] += delta;
        (old, *entry)
    }

    /// Remove and return `r^(k)[v]` (0 if absent).
    #[inline]
    pub fn take(&mut self, k: usize, v: u32) -> f64 {
        match self.hops.get_mut(k).and_then(|h| h.remove(&v)) {
            Some(r) => {
                self.hop_sums[k] -= r;
                r
            }
            None => 0.0,
        }
    }

    /// Overwrite `r^(k)[v]` with `value` (removing it when `value == 0`).
    pub fn set(&mut self, k: usize, v: u32, value: f64) {
        let old = self.take(k, v);
        let _ = old;
        if value != 0.0 {
            self.add(k, v, value);
        }
    }

    /// Sum of residues at hop `k` (maintained incrementally; subject to
    /// ordinary floating-point drift, which the tests bound).
    pub fn hop_sum(&self, k: usize) -> f64 {
        self.hop_sums.get(k).copied().unwrap_or(0.0)
    }

    /// `alpha = sum_k sum_u r^(k)[u]` — the total residue mass.
    pub fn total_sum(&self) -> f64 {
        self.hop_sums.iter().sum()
    }

    /// Recompute the total directly from the entries (O(nnz)); used by
    /// tests to bound drift of the incremental sums.
    pub fn total_sum_exact(&self) -> f64 {
        self.hops.iter().flat_map(|h| h.values()).sum()
    }

    /// Number of stored (hop, node) entries.
    pub fn nnz(&self) -> usize {
        self.hops.iter().map(|h| h.len()).sum()
    }

    /// Iterate all `(k, v, r)` entries in unspecified order.
    pub fn entries(&self) -> impl Iterator<Item = (usize, u32, f64)> + '_ {
        self.hops
            .iter()
            .enumerate()
            .flat_map(|(k, h)| h.iter().map(move |(&v, &r)| (k, v, r)))
    }

    /// Iterate the non-zero `(k, v, r)` entries hop-major and, within a
    /// hop, in the order their entries were first created — the order the
    /// dense workspace's
    /// [`entries`](crate::workspace::DenseResidues::entries) promises,
    /// which the equivalence suite holds it to.
    pub fn entries_first_touch(&self) -> impl Iterator<Item = (usize, u32, f64)> + '_ {
        self.first_touch
            .iter()
            .enumerate()
            .flat_map(move |(k, order)| {
                let mut seen = crate::fxhash::FxHashSet::default();
                order.iter().filter_map(move |&v| {
                    let r = self.get(k, v);
                    (r != 0.0 && seen.insert(v)).then_some((k, v, r))
                })
            })
    }

    /// Read-only view of one hop level.
    pub fn hop(&self, k: usize) -> Option<&FxHashMap<u32, f64>> {
        self.hops.get(k)
    }

    /// Largest hop index holding a non-zero entry (`None` if empty) — the
    /// `K` that Algorithm 1 reports at line 8.
    pub fn max_nonempty_hop(&self) -> Option<usize> {
        self.hops.iter().rposition(|h| !h.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_take_roundtrip() {
        let mut t = ResidueTable::new(2);
        let (old, new) = t.add(0, 5, 0.25);
        assert_eq!((old, new), (0.0, 0.25));
        let (old, new) = t.add(0, 5, 0.5);
        assert_eq!((old, new), (0.25, 0.75));
        assert_eq!(t.get(0, 5), 0.75);
        assert_eq!(t.take(0, 5), 0.75);
        assert_eq!(t.get(0, 5), 0.0);
        assert_eq!(t.take(0, 5), 0.0);
    }

    #[test]
    fn grows_on_demand() {
        let mut t = ResidueTable::new(1);
        t.add(4, 9, 1.0);
        assert_eq!(t.num_hops(), 5);
        assert_eq!(t.get(4, 9), 1.0);
        assert_eq!(t.get(3, 9), 0.0);
    }

    #[test]
    fn sums_track_incrementally() {
        let mut t = ResidueTable::new(3);
        t.add(0, 1, 0.5);
        t.add(0, 2, 0.25);
        t.add(2, 1, 0.125);
        assert!((t.hop_sum(0) - 0.75).abs() < 1e-15);
        assert!((t.hop_sum(2) - 0.125).abs() < 1e-15);
        assert!((t.total_sum() - 0.875).abs() < 1e-15);
        t.take(0, 1);
        assert!((t.total_sum() - 0.375).abs() < 1e-15);
        assert!((t.total_sum() - t.total_sum_exact()).abs() < 1e-12);
    }

    #[test]
    fn set_overwrites_and_removes() {
        let mut t = ResidueTable::new(1);
        t.add(0, 7, 0.4);
        t.set(0, 7, 0.1);
        assert!((t.get(0, 7) - 0.1).abs() < 1e-15);
        assert!((t.hop_sum(0) - 0.1).abs() < 1e-15);
        t.set(0, 7, 0.0);
        assert_eq!(t.nnz(), 0);
    }

    #[test]
    fn entries_and_max_hop() {
        let mut t = ResidueTable::new(4);
        t.add(1, 3, 0.5);
        t.add(3, 4, 0.5);
        let mut es: Vec<_> = t.entries().collect();
        es.sort_by_key(|&(k, v, _)| (k, v));
        assert_eq!(es.len(), 2);
        assert_eq!(es[0].0, 1);
        assert_eq!(es[1].0, 3);
        assert_eq!(t.max_nonempty_hop(), Some(3));
        t.take(3, 4);
        assert_eq!(t.max_nonempty_hop(), Some(1));
        t.take(1, 3);
        assert_eq!(t.max_nonempty_hop(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Incremental sums match exact recomputation under arbitrary
        /// add/take interleavings.
        #[test]
        fn sums_consistent(ops in prop::collection::vec(
            (0usize..4, 0u32..16, 0.0f64..1.0, prop::bool::ANY), 0..200)) {
            let mut t = ResidueTable::new(2);
            for (k, v, x, is_take) in ops {
                if is_take {
                    t.take(k, v);
                } else {
                    t.add(k, v, x);
                }
            }
            prop_assert!((t.total_sum() - t.total_sum_exact()).abs() < 1e-9);
            let per_hop: f64 = (0..t.num_hops()).map(|k| t.hop_sum(k)).sum();
            prop_assert!((per_hop - t.total_sum()).abs() < 1e-9);
        }
    }
}
