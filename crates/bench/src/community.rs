//! Ground-truth community handling for the §7.6 experiment.
//!
//! The paper scores each algorithm's output cluster against the known
//! community of the seed node (SNAP top-5000 communities there; planted
//! partitions here — see DESIGN.md §3).

use hk_graph::NodeId;
use hkpr_core::fxhash::FxHashMap;

use hk_cluster::{f1_score, F1Score};

/// A set of (possibly overlapping) ground-truth communities.
#[derive(Clone, Debug, Default)]
pub struct CommunitySet {
    communities: Vec<Vec<NodeId>>,
    membership: FxHashMap<NodeId, Vec<u32>>,
}

impl CommunitySet {
    /// Build from explicit member lists.
    pub fn new(communities: Vec<Vec<NodeId>>) -> Self {
        let mut membership: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
        for (c, members) in communities.iter().enumerate() {
            for &v in members {
                membership.entry(v).or_default().push(c as u32);
            }
        }
        CommunitySet {
            communities,
            membership,
        }
    }

    /// Number of communities.
    pub fn len(&self) -> usize {
        self.communities.len()
    }

    /// Whether there are no communities.
    pub fn is_empty(&self) -> bool {
        self.communities.is_empty()
    }

    /// Member list of community `c`.
    pub fn community(&self, c: usize) -> &[NodeId] {
        &self.communities[c]
    }

    /// Community ids containing `v` (empty slice if none).
    pub fn communities_of(&self, v: NodeId) -> &[u32] {
        self.membership.get(&v).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Ids of communities with at least `min_size` members — the paper
    /// seeds its §7.6 queries from "known communities of size greater
    /// than 100".
    pub fn at_least(&self, min_size: usize) -> Vec<u32> {
        self.communities
            .iter()
            .enumerate()
            .filter(|(_, m)| m.len() >= min_size)
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Score `prediction` against the best community containing `seed`
    /// (a seed can belong to several; take the max F1, mirroring the
    /// ground-truth evaluation protocol). Returns `None` if the seed
    /// belongs to no community.
    pub fn score_for_seed(&self, seed: NodeId, prediction: &[NodeId]) -> Option<F1Score> {
        let cands = self.communities_of(seed);
        cands
            .iter()
            .map(|&c| f1_score(prediction, &self.communities[c as usize]))
            .max_by(|a, b| a.f1.partial_cmp(&b.f1).unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CommunitySet {
        CommunitySet::new(vec![vec![0, 1, 2, 3], vec![3, 4, 5], vec![6, 7]])
    }

    #[test]
    fn membership_queries() {
        let cs = sample();
        assert_eq!(cs.len(), 3);
        assert!(!cs.is_empty());
        assert_eq!(cs.communities_of(3), &[0, 1]); // overlap
        assert_eq!(cs.communities_of(6), &[2]);
        assert!(cs.communities_of(99).is_empty());
        assert_eq!(cs.community(1), &[3, 4, 5]);
    }

    #[test]
    fn size_filter() {
        let cs = sample();
        assert_eq!(cs.at_least(3), vec![0, 1]);
        assert_eq!(cs.at_least(4), vec![0]);
        assert!(cs.at_least(10).is_empty());
    }

    #[test]
    fn best_community_scoring() {
        let cs = sample();
        // Node 3 belongs to communities 0 and 1; prediction matching
        // community 1 must pick it.
        let score = cs.score_for_seed(3, &[3, 4, 5]).unwrap();
        assert_eq!(score.f1, 1.0);
        // Prediction closer to community 0.
        let score = cs.score_for_seed(3, &[0, 1, 2, 3]).unwrap();
        assert_eq!(score.f1, 1.0);
        // Seed without a community.
        assert!(cs.score_for_seed(42, &[1, 2]).is_none());
    }

    #[test]
    fn partial_match_scoring() {
        let cs = sample();
        let score = cs.score_for_seed(6, &[6, 0, 1]).unwrap();
        // Community {6,7}: hits 1, precision 1/3, recall 1/2.
        assert!((score.precision - 1.0 / 3.0).abs() < 1e-12);
        assert!((score.recall - 0.5).abs() < 1e-12);
    }
}
