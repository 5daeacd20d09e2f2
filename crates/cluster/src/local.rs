//! End-to-end local clustering façade.
//!
//! Wraps the paper's three estimators — TEA, TEA+ and Monte-Carlo —
//! behind one call: compute the approximate HKPR vector of a seed, sweep
//! it, return the best-conductance prefix — the two-phase framework all
//! heat-kernel local-clustering methods share (§2.2). The §7 baselines
//! live in `hk-bench`, which computes their vectors itself and reuses
//! [`LocalClusterer::sweep_in`] for phase two.

use hk_graph::{Graph, NodeId};
use hkpr_core::{
    estimate_in, AnytimeControls, AnytimeOutput, Estimator, HkprError, HkprEstimate, HkprParams,
    QueryStats, QueryWorkspace,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::conductance::MemberScratch;
use crate::sweep::{sweep_estimate_with, SweepResult};

/// Which HKPR estimator powers the query. `Eq + Hash`: it is the method
/// part of the serving cache key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Method {
    /// TEA (Algorithm 3). Honors all of [`HkprParams`].
    Tea,
    /// TEA+ (Algorithm 5) — the paper's recommendation.
    TeaPlus,
    /// Pure Monte-Carlo (§3); optionally capped walk count.
    MonteCarlo {
        /// Cap on the number of walks (`None` = the published count).
        max_walks: Option<u64>,
    },
}

impl Method {
    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Tea => "TEA",
            Method::TeaPlus => "TEA+",
            Method::MonteCarlo { .. } => "Monte-Carlo",
        }
    }
}

/// A local cluster plus everything measured on the way.
#[derive(Clone, Debug)]
pub struct ClusterResult {
    /// Nodes of the minimum-conductance sweep prefix, ascending.
    pub cluster: Vec<NodeId>,
    /// Conductance of that prefix (1.0 when the sweep degenerates).
    pub conductance: f64,
    /// The underlying HKPR estimate.
    pub estimate: HkprEstimate,
    /// Cost counters from the estimator.
    pub stats: QueryStats,
    /// Size of the estimate's support (`|S*|`, the sweep's input size).
    pub support_size: usize,
}

impl ClusterResult {
    /// Whether two results are *byte-identical*: same cluster, same
    /// conductance bit pattern, same estimate support (node ids, value
    /// bits and offset-coefficient bits) and same cost counters. This is
    /// the equality the serving layer's cache guarantees between a cached
    /// hit and a cold recomputation, and what the determinism property
    /// tests assert — strictly stronger than `f64 ==`, which would accept
    /// `-0.0 == 0.0` drift.
    pub fn bitwise_eq(&self, other: &ClusterResult) -> bool {
        self.cluster == other.cluster
            && self.conductance.to_bits() == other.conductance.to_bits()
            && self.support_size == other.support_size
            && self.stats == other.stats
            && self.estimate.offset_coeff().to_bits() == other.estimate.offset_coeff().to_bits()
            && self.estimate.nnz() == other.estimate.nnz()
            && self
                .estimate
                .support()
                .zip(other.estimate.support())
                .all(|((u, x), (v, y))| u == v && x.to_bits() == y.to_bits())
    }

    /// Bytes held by this result (cluster members + the estimate's columns
    /// and header + struct overhead) — the unit the serving cache's byte
    /// budget counts. The estimate's header sits inline in `Self`, so it
    /// is counted once: [`HkprEstimate::memory_bytes`] includes it, and
    /// only the rest of `Self` is added here.
    pub fn memory_bytes(&self) -> usize {
        self.cluster.capacity() * std::mem::size_of::<NodeId>()
            + self.estimate.memory_bytes()
            + std::mem::size_of::<Self>()
            - std::mem::size_of::<HkprEstimate>()
    }
}

/// Local clustering driver bound to a graph.
#[derive(Clone, Copy, Debug)]
pub struct LocalClusterer<'g> {
    graph: &'g Graph,
}

impl<'g> LocalClusterer<'g> {
    /// Bind to a graph.
    pub fn new(graph: &'g Graph) -> Self {
        LocalClusterer { graph }
    }

    /// Compute only the HKPR estimate (phase one) on a reusable
    /// [`QueryWorkspace`].
    ///
    /// [`estimate_anytime_in`](Self::estimate_anytime_in) refined to
    /// completion, all or nothing: an answer a fired cancel token left
    /// degraded is [`HkprError::Cancelled`].
    pub fn estimate_in(
        &self,
        method: Method,
        seed: NodeId,
        params: &HkprParams,
        rng_seed: u64,
        ws: &mut QueryWorkspace,
    ) -> Result<(HkprEstimate, QueryStats), HkprError> {
        let controls = AnytimeControls::default();
        let out = self.estimate_anytime_in(method, seed, params, rng_seed, controls, ws)?;
        let out = out.into_complete()?;
        Ok((out.estimate, out.stats))
    }

    /// Phase one of every query — the serving-loop entry point. Every
    /// method runs on the tiered refinement path
    /// ([`hkpr_core::estimate_in`]), so a cancellation fired mid-walk (or
    /// mid-push, for TEA+) stops refinement at the best reachable tier
    /// instead of erroring, and the returned
    /// [`AccuracyTier`](hkpr_core::AccuracyTier) reports how far each
    /// phase got.
    ///
    /// `controls` threads the caller's refinement caps and push-tier
    /// observer through to the estimator; TEA+ honors all of it, TEA and
    /// Monte-Carlo (no push ladder) honor `walk_tier_cap` only.
    pub fn estimate_anytime_in(
        &self,
        method: Method,
        seed: NodeId,
        params: &HkprParams,
        rng_seed: u64,
        controls: AnytimeControls<'_>,
        ws: &mut QueryWorkspace,
    ) -> Result<AnytimeOutput, HkprError> {
        let estimator = match method {
            Method::Tea => Estimator::Tea { rmax: None },
            Method::TeaPlus => Estimator::TeaPlus(Default::default()),
            Method::MonteCarlo { max_walks } => Estimator::MonteCarlo { max_walks },
        };
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        estimate_in(self.graph, params, seed, estimator, controls, &mut rng, ws)
    }

    /// Full query: estimate + sweep (phase two), on a fresh workspace.
    ///
    /// A degenerate sweep (empty support, e.g. an isolated seed) falls
    /// back to the singleton `{seed}` with conductance 1.0 so callers
    /// always get a cluster containing the seed.
    pub fn run(
        &self,
        method: Method,
        seed: NodeId,
        params: &HkprParams,
        rng_seed: u64,
    ) -> Result<ClusterResult, HkprError> {
        THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => self.run_in(method, seed, params, rng_seed, &mut scratch),
            Err(_) => self.run_in(method, seed, params, rng_seed, &mut QueryScratch::new()),
        })
    }

    /// Full query on reusable scratch: the estimator's [`QueryWorkspace`]
    /// plus the sweep's ranking buffer. One [`QueryScratch`] per serving
    /// worker makes the whole query path allocation-free after warm-up.
    ///
    /// Exactly `estimate_in` followed by [`sweep_in`](Self::sweep_in) —
    /// serving layers that need per-phase timing call the two halves
    /// themselves and are guaranteed the same results.
    pub fn run_in(
        &self,
        method: Method,
        seed: NodeId,
        params: &HkprParams,
        rng_seed: u64,
        scratch: &mut QueryScratch,
    ) -> Result<ClusterResult, HkprError> {
        let (estimate, stats) =
            self.estimate_in(method, seed, params, rng_seed, &mut scratch.workspace)?;
        Ok(self.sweep_in(seed, estimate, stats, scratch))
    }

    /// Phase two of a query: sweep an estimate into a [`ClusterResult`]
    /// on reusable scratch. A degenerate sweep (empty support) falls back
    /// to the singleton `{seed}` with conductance 1.0.
    pub fn sweep_in(
        &self,
        seed: NodeId,
        estimate: HkprEstimate,
        stats: QueryStats,
        scratch: &mut QueryScratch,
    ) -> ClusterResult {
        match sweep_estimate_with(
            self.graph,
            &estimate,
            &mut scratch.ranked,
            &mut scratch.member,
        ) {
            Some(SweepResult {
                cluster,
                conductance,
                support_size,
                ..
            }) => ClusterResult {
                cluster,
                conductance,
                estimate,
                stats,
                support_size,
            },
            None => ClusterResult {
                cluster: vec![seed],
                conductance: 1.0,
                estimate,
                stats,
                support_size: 0,
            },
        }
    }
}

thread_local! {
    /// Per-thread cached scratch backing [`LocalClusterer::run`], so
    /// one-shot callers get batch-serving speed after the first query.
    static THREAD_SCRATCH: std::cell::RefCell<QueryScratch> =
        std::cell::RefCell::new(QueryScratch::new());
}

/// Reusable per-worker scratch for [`LocalClusterer::run_in`]: the dense
/// estimator workspace plus the sweep's ranking buffer.
#[derive(Clone, Debug, Default)]
pub struct QueryScratch {
    /// Estimator workspace (dense push/walk buffers).
    pub workspace: QueryWorkspace,
    /// Sweep ranking buffer.
    ranked: Vec<(NodeId, f64)>,
    /// Sweep membership buffer (a bitset over the nodes).
    member: MemberScratch,
}

impl QueryScratch {
    /// Fresh scratch; the first query sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes held by every backing allocation: the estimator workspace
    /// ([`QueryWorkspace::memory_bytes`]) plus the sweep's ranking and
    /// membership buffers.
    pub fn memory_bytes(&self) -> usize {
        self.workspace.memory_bytes()
            + self.ranked.capacity() * std::mem::size_of::<(NodeId, f64)>()
            + self.member.memory_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::gen::planted_partition;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn planted() -> hk_graph::gen::PlantedPartition {
        let mut rng = SmallRng::seed_from_u64(3);
        planted_partition(4, 40, 0.35, 0.01, &mut rng).unwrap()
    }

    #[test]
    fn result_bytes_count_the_estimate_header_once() {
        use std::mem::size_of;
        let result = ClusterResult {
            cluster: Vec::with_capacity(3),
            conductance: 1.0,
            estimate: HkprEstimate::from_sorted_columns(vec![1, 4], vec![0.5, 0.25]),
            stats: QueryStats::default(),
            support_size: 2,
        };
        assert_eq!(
            result.estimate.memory_bytes(),
            2 * 12 + size_of::<HkprEstimate>()
        );
        // The struct (estimate header inline), the three member slots and
        // the two pairs' columns: no second header.
        assert_eq!(
            result.memory_bytes(),
            size_of::<ClusterResult>() + 3 * size_of::<NodeId>() + 2 * 12
        );
    }

    #[test]
    fn every_method_returns_a_cluster_containing_structure() {
        let pp = planted();
        let g = &pp.graph;
        let params = HkprParams::builder(g)
            .t(5.0)
            .delta(1e-4)
            .p_f(0.01)
            .build()
            .unwrap();
        let clusterer = LocalClusterer::new(g);
        let methods = [
            Method::Tea,
            Method::TeaPlus,
            Method::MonteCarlo {
                max_walks: Some(100_000),
            },
        ];
        for m in methods {
            let res = clusterer.run(m, 0, &params, 7).unwrap();
            assert!(
                !res.cluster.is_empty(),
                "{} returned empty cluster",
                m.label()
            );
            assert!(res.conductance <= 1.0);
            // Seed's community is block 0 = nodes 0..40 and should
            // dominate the recovered cluster.
            let inside = res.cluster.iter().filter(|&&v| v < 40).count();
            assert!(
                inside * 2 > res.cluster.len(),
                "{}: cluster mostly outside the seed community",
                m.label()
            );
            // Good methods find a cut far below 0.5 here.
            assert!(
                res.conductance < 0.6,
                "{}: conductance {} too high",
                m.label(),
                res.conductance
            );
        }
    }

    #[test]
    fn tea_cut_in_the_walks_is_degraded_not_an_error() {
        let g = hk_graph::gen::holme_kim(20_000, 3, 0.3, &mut SmallRng::seed_from_u64(20)).unwrap();
        let params = HkprParams::builder(&g).t(10.0).delta(1e-4).build().unwrap();
        let controls = AnytimeControls {
            walk_tier_cap: Some(1),
            ..Default::default()
        };
        let mut ws = QueryWorkspace::new();
        let out = LocalClusterer::new(&g)
            .estimate_anytime_in(Method::Tea, 0, &params, 100, controls, &mut ws)
            .unwrap();
        assert!(out.achieved.is_degraded(), "{:?}", out.achieved);
        assert!(out.achieved.walks_done > 0);
        assert_eq!(out.achieved.push_tiers_planned, 0);
    }

    #[test]
    fn exact_recovers_planted_block_cleanly() {
        let pp = planted();
        let g = &pp.graph;
        let params = HkprParams::builder(g).t(5.0).build().unwrap();
        let estimate = hkpr_core::exact_estimate(g, params.poisson(), 5);
        let res = LocalClusterer::new(g).sweep_in(
            5,
            estimate,
            QueryStats::default(),
            &mut QueryScratch::new(),
        );
        let score = crate::metrics::f1_score(&res.cluster, &pp.communities[0]);
        assert!(score.f1 > 0.8, "F1 {} too low", score.f1);
    }

    #[test]
    fn isolated_seed_falls_back_to_singleton() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let params = HkprParams::builder(&g).build().unwrap();
        let res = LocalClusterer::new(&g)
            .run(Method::TeaPlus, 2, &params, 1)
            .unwrap();
        assert_eq!(res.cluster, vec![2]);
        assert_eq!(res.conductance, 1.0);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(Method::Tea.label(), "TEA");
        assert_eq!(Method::TeaPlus.label(), "TEA+");
        assert_eq!(
            Method::MonteCarlo { max_walks: None }.label(),
            "Monte-Carlo"
        );
    }

    #[test]
    fn errors_propagate() {
        let pp = planted();
        let params = HkprParams::builder(&pp.graph).build().unwrap();
        let clusterer = LocalClusterer::new(&pp.graph);
        assert!(clusterer.run(Method::TeaPlus, 10_000, &params, 0).is_err());
        assert!(clusterer
            .run(Method::MonteCarlo { max_walks: Some(0) }, 0, &params, 0)
            .is_err());
    }
}
