//! Hash-map reference sweep — the seed implementation of the sweep cut,
//! kept verbatim (beside [`hkpr_core::reference`]'s estimators) as the
//! differential-testing oracle for the dense
//! [`crate::conductance::SweepState`].

use hk_graph::{Graph, NodeId};
use hkpr_core::fxhash::FxHashSet;

use crate::sweep::SweepResult;

/// Incremental conductance tracker with hash-set membership (the seed's
/// `SweepState`).
struct HashedSweepState<'g> {
    graph: &'g Graph,
    members: FxHashSet<NodeId>,
    vol: usize,
    cut: usize,
}

impl<'g> HashedSweepState<'g> {
    fn new(graph: &'g Graph) -> Self {
        HashedSweepState {
            graph,
            members: FxHashSet::default(),
            vol: 0,
            cut: 0,
        }
    }

    fn push(&mut self, v: NodeId) -> f64 {
        let d = self.graph.degree(v);
        let internal = self
            .graph
            .neighbors(v)
            .iter()
            .filter(|u| self.members.contains(u))
            .count();
        self.vol += d;
        self.cut = self.cut + d - 2 * internal;
        self.members.insert(v);
        let complement = self.graph.volume().saturating_sub(self.vol);
        let denom = self.vol.min(complement);
        if denom == 0 {
            1.0
        } else {
            self.cut as f64 / denom as f64
        }
    }
}

/// [`crate::sweep::sweep_ranked`] over the hash-set tracker.
pub fn sweep_ranked_reference(graph: &Graph, ranked: &[(NodeId, f64)]) -> Option<SweepResult> {
    if ranked.is_empty() {
        return None;
    }
    let mut state = HashedSweepState::new(graph);
    let mut best_phi = f64::INFINITY;
    let mut best_prefix = 0usize;
    for (i, &(v, _)) in ranked.iter().enumerate() {
        let phi = state.push(v);
        if phi < best_phi {
            best_phi = phi;
            best_prefix = i + 1;
        }
    }
    let mut cluster: Vec<NodeId> = ranked[..best_prefix].iter().map(|&(v, _)| v).collect();
    cluster.sort_unstable();
    Some(SweepResult {
        cluster,
        conductance: best_phi,
        support_size: ranked.len(),
        best_prefix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::sweep_ranked;
    use hk_graph::gen::erdos_renyi_gnm;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn dense_and_hashed_sweeps_agree() {
        for seed in 0..20u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let g = erdos_renyi_gnm(40, 90, &mut rng).unwrap();
            let ranked: Vec<(u32, f64)> = (0..40u32)
                .filter(|v| !(v * 13 + seed as u32).is_multiple_of(3))
                .map(|v| (v, 1.0 / (v as f64 + 1.0)))
                .collect();
            let dense = sweep_ranked(&g, &ranked).unwrap();
            let hashed = sweep_ranked_reference(&g, &ranked).unwrap();
            assert_eq!(dense.cluster, hashed.cluster);
            assert_eq!(dense.conductance, hashed.conductance);
            assert_eq!(dense.best_prefix, hashed.best_prefix);
        }
    }
}
