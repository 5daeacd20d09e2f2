//! Shared experiment plumbing: method descriptors, per-seed timing loops
//! and aggregates.

use std::cell::RefCell;
use std::time::Instant;

use hk_cluster::{LocalClusterer, Method, QueryScratch};
use hk_graph::{Graph, NodeId};
use hkpr_core::{exact_estimate, HkprError, HkprEstimate, HkprParams, QueryStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::cluster_hkpr::cluster_hkpr;
use crate::crd::{crd, CrdParams};
use crate::hk_relax::hk_relax;
use crate::ppr::{fora, ppr_push};
use crate::simple_local::simple_local_from_seed;

/// Any clustering method in the paper's comparisons: the three served
/// HKPR estimators, the §7 baselines that sweep a vector of their own, and
/// the flow baselines.
#[derive(Clone, Copy, Debug)]
pub enum AnyMethod {
    /// A served HKPR estimator (TEA, TEA+, Monte-Carlo) + sweep.
    Hkpr(Method),
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
    /// HKPR against.
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
    /// SimpleLocal with locality parameter `delta` over a BFS ball of
    /// `ball` nodes around the seed.
    SimpleLocal {
        /// Locality parameter (paper sweeps 0.005–0.1).
        delta: f64,
        /// Reference-ball size.
        ball: usize,
    },
    /// Capacity Releasing Diffusion.
    Crd(CrdParams),
}

thread_local! {
    /// The scratch every vector method of this thread estimates and
    /// sweeps on, so a timed run pays no allocation after warm-up.
    static SCRATCH: RefCell<QueryScratch> = RefCell::new(QueryScratch::new());
}

impl AnyMethod {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            AnyMethod::Hkpr(m) => m.label(),
            AnyMethod::ClusterHkpr { .. } => "ClusterHKPR",
            AnyMethod::HkRelax { .. } => "HK-Relax",
            AnyMethod::Exact => "Exact",
            AnyMethod::PrNibble { .. } => "PR-Nibble",
            AnyMethod::Fora { .. } => "FORA",
            AnyMethod::SimpleLocal { .. } => "SimpleLocal",
            AnyMethod::Crd(_) => "CRD",
        }
    }

    /// Phase one alone: the method's diffusion vector from `seed`, with
    /// `rng_seed` seeding its random stream exactly as
    /// [`LocalClusterer::estimate_in`] does.
    ///
    /// # Panics
    ///
    /// For SimpleLocal and CRD, which compute no vector.
    pub fn estimate(
        &self,
        graph: &Graph,
        params: &HkprParams,
        seed: NodeId,
        rng_seed: u64,
    ) -> Result<(HkprEstimate, QueryStats), HkprError> {
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let out = match *self {
            AnyMethod::Hkpr(m) => {
                let clusterer = LocalClusterer::new(graph);
                return SCRATCH.with_borrow_mut(|scratch| {
                    clusterer.estimate_in(m, seed, params, rng_seed, &mut scratch.workspace)
                });
            }
            AnyMethod::ClusterHkpr { eps, max_walks } => {
                cluster_hkpr(graph, params.poisson(), seed, eps, max_walks, &mut rng)?
            }
            AnyMethod::HkRelax { eps_a } => hk_relax(graph, params.poisson(), seed, eps_a)?.into(),
            AnyMethod::Exact => {
                params.validate_seed(seed)?;
                let estimate = exact_estimate(graph, params.poisson(), seed);
                return Ok((estimate, QueryStats::default()));
            }
            AnyMethod::PrNibble { alpha, rmax } => {
                let (reserve, _, push_operations) = ppr_push(graph, seed, alpha, rmax)?;
                let stats = QueryStats {
                    push_operations,
                    ..QueryStats::default()
                };
                return Ok((HkprEstimate::from_values(reserve), stats));
            }
            AnyMethod::Fora { alpha } => {
                // FORA's omega = (2 eps/3 + 2) ln(2/p_f) / (eps^2 delta),
                // built from the same knobs the HKPR methods use.
                let eps = params.eps_r();
                let omega = (2.0 * eps / 3.0 + 2.0) * (2.0 / params.p_f()).ln()
                    / (eps * eps * params.delta());
                fora(graph, seed, alpha, omega, &mut rng)?
            }
            AnyMethod::SimpleLocal { .. } | AnyMethod::Crd(_) => {
                panic!("{} computes no diffusion vector", self.label())
            }
        };
        Ok((out.estimate, out.stats))
    }

    /// One clustering from `seed`: the cluster and its conductance. A
    /// vector method sweeps its estimate with
    /// [`LocalClusterer::sweep_in`], so a served method's answer is
    /// exactly [`LocalClusterer::run`]'s.
    pub fn cluster(
        &self,
        graph: &Graph,
        params: &HkprParams,
        seed: NodeId,
        rng_seed: u64,
    ) -> Result<(Vec<NodeId>, f64), HkprError> {
        match self {
            AnyMethod::SimpleLocal { delta, ball } => {
                let res = simple_local_from_seed(graph, seed, *ball, *delta);
                Ok((res.cluster, res.conductance))
            }
            AnyMethod::Crd(p) => {
                let mut rng = SmallRng::seed_from_u64(rng_seed);
                let res = crd(graph, seed, p, &mut rng);
                Ok((res.cluster, res.conductance))
            }
            _ => {
                let (estimate, stats) = self.estimate(graph, params, seed, rng_seed)?;
                let clusterer = LocalClusterer::new(graph);
                let res = SCRATCH
                    .with_borrow_mut(|scratch| clusterer.sweep_in(seed, estimate, stats, scratch));
                Ok((res.cluster, res.conductance))
            }
        }
    }
}

/// One clustering run: wall time, conductance, cluster size.
#[derive(Clone, Copy, Debug)]
pub struct RunOutcome {
    /// Wall-clock milliseconds.
    pub ms: f64,
    /// Conductance of the returned cluster.
    pub conductance: f64,
    /// Cluster size.
    pub cluster_size: usize,
}

/// Run one method from one seed, timed.
pub fn run_once(
    graph: &Graph,
    method: &AnyMethod,
    params: &HkprParams,
    seed: NodeId,
    rng_seed: u64,
) -> Result<RunOutcome, HkprError> {
    let start = Instant::now();
    let (cluster, conductance) = method.cluster(graph, params, seed, rng_seed)?;
    let ms = start.elapsed().as_secs_f64() * 1000.0;
    Ok(RunOutcome {
        ms,
        conductance,
        cluster_size: cluster.len(),
    })
}

/// Averages over a seed set.
#[derive(Clone, Copy, Debug, Default)]
pub struct Aggregate {
    /// Mean wall time per query (ms).
    pub avg_ms: f64,
    /// Mean conductance.
    pub avg_conductance: f64,
    /// Mean cluster size.
    pub avg_cluster_size: f64,
    /// Number of queries aggregated.
    pub queries: usize,
}

/// Run a method over many seeds and average. Errors on any seed abort the
/// sweep (seed sets are pre-validated by callers).
pub fn run_over_seeds(
    graph: &Graph,
    method: &AnyMethod,
    params: &HkprParams,
    seeds: &[NodeId],
    rng_seed: u64,
) -> Result<Aggregate, HkprError> {
    let mut agg = Aggregate::default();
    for (i, &s) in seeds.iter().enumerate() {
        let out = run_once(graph, method, params, s, rng_seed.wrapping_add(i as u64))?;
        agg.avg_ms += out.ms;
        agg.avg_conductance += out.conductance;
        agg.avg_cluster_size += out.cluster_size as f64;
        agg.queries += 1;
    }
    if agg.queries > 0 {
        let q = agg.queries as f64;
        agg.avg_ms /= q;
        agg.avg_conductance /= q;
        agg.avg_cluster_size /= q;
    }
    Ok(agg)
}

/// Draw `count` seed nodes with degree >= 1, deterministically.
pub fn pick_seeds(graph: &Graph, count: usize, rng_seed: u64) -> Vec<NodeId> {
    let mut rng = SmallRng::seed_from_u64(rng_seed);
    hk_graph::sample::random_nodes(graph, count, 1, &mut rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::gen::planted_partition;

    fn graph() -> Graph {
        let mut rng = SmallRng::seed_from_u64(1);
        planted_partition(3, 30, 0.4, 0.02, &mut rng).unwrap().graph
    }

    /// One of every variant, baselines included.
    fn every_method() -> [AnyMethod; 10] {
        [
            AnyMethod::Hkpr(Method::Tea),
            AnyMethod::Hkpr(Method::TeaPlus),
            AnyMethod::Hkpr(Method::MonteCarlo {
                max_walks: Some(100_000),
            }),
            AnyMethod::ClusterHkpr {
                eps: 0.05,
                max_walks: Some(100_000),
            },
            AnyMethod::HkRelax { eps_a: 1e-5 },
            AnyMethod::Exact,
            AnyMethod::PrNibble {
                alpha: 0.15,
                rmax: 1e-7,
            },
            AnyMethod::Fora { alpha: 0.15 },
            AnyMethod::SimpleLocal {
                delta: 0.05,
                ball: 40,
            },
            AnyMethod::Crd(CrdParams::default()),
        ]
    }

    #[test]
    fn run_once_times_and_scores() {
        let g = graph();
        let params = HkprParams::builder(&g)
            .delta(1e-3)
            .p_f(0.01)
            .build()
            .unwrap();
        let out = run_once(&g, &AnyMethod::Hkpr(Method::TeaPlus), &params, 0, 7).unwrap();
        assert!(out.ms >= 0.0);
        assert!(out.conductance <= 1.0);
        assert!(out.cluster_size >= 1);
    }

    #[test]
    fn every_method_clusters_the_planted_block() {
        // The graph, knobs and bars `hk-cluster`'s served-method test
        // uses, here for every variant.
        let mut rng = SmallRng::seed_from_u64(3);
        let pp = planted_partition(4, 40, 0.35, 0.01, &mut rng).unwrap();
        let g = &pp.graph;
        let params = HkprParams::builder(g)
            .t(5.0)
            .delta(1e-4)
            .p_f(0.01)
            .build()
            .unwrap();
        for m in every_method() {
            let out = run_once(g, &m, &params, 0, 7).unwrap();
            assert!(
                out.cluster_size >= 1,
                "{} returned empty cluster",
                m.label()
            );
            // Good methods find a cut far below 0.5 here.
            assert!(
                out.conductance < 0.6,
                "{}: conductance {} too high",
                m.label(),
                out.conductance
            );
            // Seed's community is block 0 = nodes 0..40 and should
            // dominate the recovered cluster.
            let (cluster, _) = m.cluster(g, &params, 0, 7).unwrap();
            let inside = cluster.iter().filter(|&&v| v < 40).count();
            assert!(
                inside * 2 > cluster.len(),
                "{}: cluster mostly outside the seed community",
                m.label()
            );
        }
        // The knob checks of the baselines reach the caller.
        assert!(AnyMethod::HkRelax { eps_a: 0.0 }
            .cluster(g, &params, 0, 0)
            .is_err());
        assert!(AnyMethod::Exact.cluster(g, &params, 10_000, 0).is_err());
    }

    #[test]
    fn served_methods_match_the_clusterer_bit_for_bit() {
        let g = graph();
        let params = HkprParams::builder(&g).delta(1e-3).build().unwrap();
        for m in [Method::Tea, Method::TeaPlus] {
            let want = LocalClusterer::new(&g).run(m, 4, &params, 9).unwrap();
            let (cluster, conductance) = AnyMethod::Hkpr(m).cluster(&g, &params, 4, 9).unwrap();
            assert_eq!(cluster, want.cluster);
            assert_eq!(conductance.to_bits(), want.conductance.to_bits());
        }
    }

    #[test]
    fn aggregate_averages() {
        let g = graph();
        let params = HkprParams::builder(&g)
            .delta(1e-3)
            .p_f(0.01)
            .build()
            .unwrap();
        let seeds = pick_seeds(&g, 5, 3);
        assert_eq!(seeds.len(), 5);
        let agg =
            run_over_seeds(&g, &AnyMethod::Hkpr(Method::TeaPlus), &params, &seeds, 7).unwrap();
        assert_eq!(agg.queries, 5);
        assert!(agg.avg_conductance > 0.0 && agg.avg_conductance <= 1.0);
        assert!(agg.avg_cluster_size >= 1.0);
    }

    #[test]
    fn flow_methods_run() {
        let g = graph();
        let params = HkprParams::builder(&g).build().unwrap();
        let sl = run_once(
            &g,
            &AnyMethod::SimpleLocal {
                delta: 0.05,
                ball: 20,
            },
            &params,
            0,
            1,
        )
        .unwrap();
        assert!(sl.conductance <= 1.0);
        let cr = run_once(&g, &AnyMethod::Crd(CrdParams::default()), &params, 0, 1).unwrap();
        assert!(cr.conductance <= 1.0);
    }

    #[test]
    fn labels() {
        let labels = every_method().map(|m| m.label());
        assert_eq!(
            labels,
            [
                "TEA",
                "TEA+",
                "Monte-Carlo",
                "ClusterHKPR",
                "HK-Relax",
                "Exact",
                "PR-Nibble",
                "FORA",
                "SimpleLocal",
                "CRD"
            ]
        );
    }
}
