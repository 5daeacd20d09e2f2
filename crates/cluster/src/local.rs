//! End-to-end local clustering façade.
//!
//! Wraps every HKPR estimator behind one call: compute the approximate
//! HKPR vector of a seed, sweep it, return the best-conductance prefix —
//! the two-phase framework all heat-kernel local-clustering methods share
//! (§2.2). Used by the examples and by every experiment binary.

use hk_graph::{Graph, NodeId};
use hkpr_core::{
    cluster_hkpr::cluster_hkpr, hk_relax::hk_relax, monte_carlo_anytime_in, ppr, tea::tea_in,
    tea_plus_anytime_in, AccuracyTier, HkprError, HkprEstimate, HkprParams, QueryStats,
    QueryWorkspace, TeaPlusOptions,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::conductance::MemberScratch;
use crate::sweep::{sweep_estimate_with, SweepResult};

/// Which HKPR estimator powers the query.
#[derive(Clone, Copy, Debug, PartialEq)]
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
    /// ClusterHKPR (Chung–Simpson) with its own accuracy knob `eps`.
    ClusterHkpr {
        /// Relative/absolute error knob (paper sweeps 0.005–0.35).
        eps: f64,
        /// Cap on the number of walks (`None` = the published count).
        max_walks: Option<u64>,
    },
    /// HK-Relax (Kloster–Gleich) with absolute error threshold `eps_a`.
    HkRelax {
        /// Absolute error threshold (paper sweeps 1e-8–1e-4).
        eps_a: f64,
    },
    /// Exact HKPR by dense power iteration (ground truth; O(k_max * m)).
    Exact,
    /// PR-Nibble-style PPR forward push + sweep (Andersen–Chung–Lang) —
    /// the personalized-PageRank predecessor the paper's §6 situates
    /// HKPR against. `alpha` is the teleport probability.
    PrNibble {
        /// Teleport probability of the PPR walk.
        alpha: f64,
        /// Push threshold (smaller = more accurate, slower).
        rmax: f64,
    },
    /// FORA (forward push + walks) over PPR. `omega` is derived from the
    /// shared [`HkprParams`] accuracy knobs so HKPR/PPR comparisons use a
    /// symmetric budget.
    Fora {
        /// Teleport probability of the PPR walk.
        alpha: f64,
    },
}

impl Method {
    /// Short label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            Method::Tea => "TEA",
            Method::TeaPlus => "TEA+",
            Method::MonteCarlo { .. } => "Monte-Carlo",
            Method::ClusterHkpr { .. } => "ClusterHKPR",
            Method::HkRelax { .. } => "HK-Relax",
            Method::Exact => "Exact",
            Method::PrNibble { .. } => "PR-Nibble",
            Method::Fora { .. } => "FORA",
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

    /// Bytes held by this result (cluster members + estimate entries +
    /// struct overhead) — the unit the serving cache's byte budget counts.
    pub fn memory_bytes(&self) -> usize {
        self.cluster.capacity() * std::mem::size_of::<NodeId>()
            + self.estimate.memory_bytes()
            + std::mem::size_of::<Self>()
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

    /// Compute only the HKPR estimate (phase one), on a fresh workspace.
    pub fn estimate(
        &self,
        method: Method,
        seed: NodeId,
        params: &HkprParams,
        rng_seed: u64,
    ) -> Result<(HkprEstimate, QueryStats), HkprError> {
        THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
            Ok(mut scratch) => {
                self.estimate_in(method, seed, params, rng_seed, &mut scratch.workspace)
            }
            Err(_) => self.estimate_in(method, seed, params, rng_seed, &mut QueryWorkspace::new()),
        })
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
        let controls = hkpr_core::AnytimeControls::default();
        let (estimate, stats, achieved) =
            self.estimate_anytime_in(method, seed, params, rng_seed, controls, ws)?;
        if achieved.is_some_and(|tier| tier.is_degraded()) {
            return Err(HkprError::Cancelled);
        }
        Ok((estimate, stats))
    }

    /// Phase one of every query — the serving-loop entry point. TEA+ and
    /// Monte-Carlo run on the tiered refinement path
    /// ([`hkpr_core::anytime`]), so a cancellation fired mid-push or
    /// mid-walk stops refinement at the best reachable tier instead of
    /// erroring, and the returned [`AccuracyTier`] reports how far each
    /// phase got. Methods without a tiered path return `None` (they keep
    /// the all-or-nothing cancellation contract).
    ///
    /// `controls` threads the caller's refinement caps and push-tier
    /// observer through to the estimator; TEA+ honors all of it,
    /// Monte-Carlo (no push phase) honors `walk_tier_cap` only.
    pub fn estimate_anytime_in(
        &self,
        method: Method,
        seed: NodeId,
        params: &HkprParams,
        rng_seed: u64,
        controls: hkpr_core::AnytimeControls<'_>,
        ws: &mut QueryWorkspace,
    ) -> Result<(HkprEstimate, QueryStats, Option<AccuracyTier>), HkprError> {
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let out = match method {
            Method::TeaPlus => {
                let opts = TeaPlusOptions::default();
                let out =
                    tea_plus_anytime_in(self.graph, params, seed, opts, controls, &mut rng, ws)?;
                return Ok((out.estimate, out.stats, Some(out.achieved)));
            }
            Method::MonteCarlo { max_walks } => {
                let tier_cap = controls.walk_tier_cap;
                let out = monte_carlo_anytime_in(
                    self.graph, params, seed, max_walks, tier_cap, &mut rng, ws,
                )?;
                return Ok((out.estimate, out.stats, Some(out.achieved)));
            }
            Method::Tea => tea_in(self.graph, params, seed, None, &mut rng, ws)?,
            Method::ClusterHkpr { eps, max_walks } => {
                cluster_hkpr(self.graph, params.poisson(), seed, eps, max_walks, &mut rng)?
            }
            Method::HkRelax { eps_a } => {
                hk_relax(self.graph, params.poisson(), seed, eps_a)?.into()
            }
            Method::Exact => {
                params.validate_seed(seed)?;
                let rho = hkpr_core::exact_hkpr(self.graph, params.poisson(), seed);
                let mut est = HkprEstimate::new();
                for (v, &x) in rho.iter().enumerate() {
                    if x > 1e-15 {
                        est.add_mass(v as NodeId, x);
                    }
                }
                hkpr_core::TeaOutput {
                    estimate: est,
                    stats: QueryStats::default(),
                }
            }
            Method::PrNibble { alpha, rmax } => {
                let (reserve, _, pushes) = ppr::ppr_push(self.graph, seed, alpha, rmax)?;
                hkpr_core::TeaOutput {
                    estimate: HkprEstimate::from_values(reserve),
                    stats: QueryStats {
                        push_operations: pushes,
                        ..QueryStats::default()
                    },
                }
            }
            Method::Fora { alpha } => {
                // FORA's omega = (2 eps/3 + 2) ln(2/p_f) / (eps^2 delta),
                // built from the same knobs the HKPR methods use.
                let eps = params.eps_r();
                let omega = (2.0 * eps / 3.0 + 2.0) * (2.0 / params.p_f()).ln()
                    / (eps * eps * params.delta());
                ppr::fora(self.graph, seed, alpha, omega, &mut rng)?
            }
        };
        Ok((out.estimate, out.stats, None))
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
            Method::ClusterHkpr {
                eps: 0.05,
                max_walks: Some(100_000),
            },
            Method::HkRelax { eps_a: 1e-5 },
            Method::Exact,
            Method::PrNibble {
                alpha: 0.15,
                rmax: 1e-7,
            },
            Method::Fora { alpha: 0.15 },
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
    fn exact_recovers_planted_block_cleanly() {
        let pp = planted();
        let g = &pp.graph;
        let params = HkprParams::builder(g).t(5.0).build().unwrap();
        let res = LocalClusterer::new(g)
            .run(Method::Exact, 5, &params, 0)
            .unwrap();
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
        assert_eq!(
            Method::ClusterHkpr {
                eps: 0.1,
                max_walks: None
            }
            .label(),
            "ClusterHKPR"
        );
        assert_eq!(Method::HkRelax { eps_a: 0.1 }.label(), "HK-Relax");
        assert_eq!(Method::Exact.label(), "Exact");
        assert_eq!(
            Method::PrNibble {
                alpha: 0.1,
                rmax: 1e-6
            }
            .label(),
            "PR-Nibble"
        );
        assert_eq!(Method::Fora { alpha: 0.1 }.label(), "FORA");
    }

    #[test]
    fn errors_propagate() {
        let pp = planted();
        let params = HkprParams::builder(&pp.graph).build().unwrap();
        let clusterer = LocalClusterer::new(&pp.graph);
        assert!(clusterer.run(Method::TeaPlus, 10_000, &params, 0).is_err());
        assert!(clusterer
            .run(Method::HkRelax { eps_a: 0.0 }, 0, &params, 0)
            .is_err());
    }
}
