//! Capacity Releasing Diffusion — `CRD` (Wang, Fountoulakis, Henzinger,
//! Mahoney, Rao; ICML 2017), the second flow-based §7.4 competitor.
//!
//! CRD spreads *mass* from the seed with a push-relabel process
//! (`Unit-Flow`): every node can absorb mass up to its degree, every edge
//! carries at most `u_cap` units per round, and mass that cannot settle
//! climbs a label tower of height `h`. The outer loop doubles the surviving
//! mass each round ("releasing capacity"), so the diffusion floods a
//! well-connected region but is throttled at bottleneck cuts — excess
//! stuck at the top of the tower is the signal to stop. The cluster is a
//! sweep over settled mass per degree.
//!
//! The paper varies CRD's iteration count in {7, 10, 15, 20, 30} and keeps
//! the other knobs at defaults; [`CrdParams::default`] mirrors that.

use hk_graph::{Graph, NodeId};
use rand::Rng;

use crate::util::sweep_by_score;

/// Tuning knobs of CRD.
#[derive(Clone, Copy, Debug)]
pub struct CrdParams {
    /// Per-edge flow capacity `U` in each Unit-Flow round.
    pub u_cap: f64,
    /// Label-tower height `h`.
    pub h: usize,
    /// Maximum number of mass-doubling rounds (the knob §7.4 sweeps).
    pub iterations: usize,
    /// Stop when more than this fraction of the mass is stuck at height
    /// `h` after a round.
    pub excess_tolerance: f64,
}

impl Default for CrdParams {
    fn default() -> Self {
        CrdParams {
            u_cap: 3.0,
            h: 40,
            iterations: 15,
            excess_tolerance: 0.1,
        }
    }
}

/// Result of a CRD run.
#[derive(Clone, Debug)]
pub struct CrdResult {
    /// Sweep cluster over settled mass (ascending node ids).
    pub cluster: Vec<NodeId>,
    /// Its conductance.
    pub conductance: f64,
    /// Push/relabel operations performed (work measure).
    pub operations: u64,
    /// Rounds completed before the excess test stopped the diffusion.
    pub rounds: usize,
}

/// Run CRD from `seed`. The RNG only breaks push ties (which neighbor
/// receives mass first), keeping runs reproducible under a fixed seed.
pub fn crd<R: Rng>(graph: &Graph, seed: NodeId, params: &CrdParams, rng: &mut R) -> CrdResult {
    let _ = rng; // tie-breaking currently deterministic; kept for API stability
    assert!((seed as usize) < graph.num_nodes(), "seed out of range");
    assert!(params.u_cap > 0.0 && params.h >= 1 && params.iterations >= 1);

    let n = graph.num_nodes();
    let mut mass = vec![0.0f64; n];
    let mut touched: Vec<NodeId> = vec![seed];
    let mut is_touched = vec![false; n];
    is_touched[seed as usize] = true;
    mass[seed as usize] = 2.0 * graph.degree(seed).max(1) as f64;

    let mut operations = 0u64;
    let mut rounds = 0usize;

    for _round in 0..params.iterations {
        rounds += 1;
        let stuck = unit_flow(
            graph,
            params,
            &mut mass,
            &mut touched,
            &mut is_touched,
            &mut operations,
        );
        let total: f64 = touched.iter().map(|&v| mass[v as usize]).sum();
        if total > 0.0 && stuck / total > params.excess_tolerance {
            break; // diffusion hit the cluster boundary
        }
        // Release capacity: double all surviving mass.
        for &v in &touched {
            mass[v as usize] *= 2.0;
        }
    }

    // Sweep by settled mass per degree.
    let scored: Vec<(NodeId, f64)> = touched
        .iter()
        .filter(|&&v| mass[v as usize] > 0.0 && graph.degree(v) > 0)
        .map(|&v| (v, mass[v as usize] / graph.degree(v) as f64))
        .collect();
    let (cluster, conductance) = sweep_by_score(graph, &scored);
    if cluster.is_empty() {
        return CrdResult {
            cluster: vec![seed],
            conductance: 1.0,
            operations,
            rounds,
        };
    }
    CrdResult {
        cluster,
        conductance,
        operations,
        rounds,
    }
}

/// One Unit-Flow round: push-relabel until no node has pushable excess.
/// Returns the amount of mass stuck at the top of the label tower.
fn unit_flow(
    graph: &Graph,
    params: &CrdParams,
    mass: &mut [f64],
    touched: &mut Vec<NodeId>,
    is_touched: &mut [bool],
    operations: &mut u64,
) -> f64 {
    const EPS: f64 = 1e-12;
    let h = params.h;

    // Labels and per-round edge flows are sparse (only the touched region).
    let mut label: std::collections::HashMap<u32, u32> = Default::default();
    let mut flow: std::collections::HashMap<(u32, u32), f64> = Default::default();

    // Active = excess above degree and label < h.
    let excess = |mass: &[f64], v: NodeId, graph: &Graph| -> f64 {
        (mass[v as usize] - graph.degree(v).max(1) as f64).max(0.0)
    };
    let mut active: Vec<NodeId> = touched
        .iter()
        .copied()
        .filter(|&v| excess(mass, v, graph) > EPS)
        .collect();

    while let Some(v) = active.pop() {
        let lv = *label.get(&v).unwrap_or(&0);
        if lv >= h as u32 {
            continue;
        }
        let mut ex = excess(mass, v, graph);
        if ex <= EPS {
            continue;
        }
        let mut pushed_any = false;
        for &u in graph.neighbors(v) {
            if ex <= EPS {
                break;
            }
            let lu = *label.get(&u).unwrap_or(&0);
            if lv != lu + 1 {
                continue;
            }
            let key = flow_key(v, u);
            let f = *flow.get(&key).unwrap_or(&0.0);
            let signed = if v < u { f } else { -f };
            let residual = params.u_cap - signed;
            if residual <= EPS {
                continue;
            }
            // Receiver capacity: up to degree (sink) plus u_cap of excess
            // headroom per the Unit-Flow invariant m(u) <= d(u) + U.
            let headroom =
                (graph.degree(u).max(1) as f64 + params.u_cap - mass[u as usize]).max(0.0);
            let amount = ex.min(residual).min(headroom);
            if amount <= EPS {
                continue;
            }
            mass[v as usize] -= amount;
            mass[u as usize] += amount;
            *flow.entry(key).or_insert(0.0) += if v < u { amount } else { -amount };
            *operations += 1;
            ex -= amount;
            pushed_any = true;
            if !is_touched[u as usize] {
                is_touched[u as usize] = true;
                touched.push(u);
            }
            if excess(mass, u, graph) > EPS && (*label.get(&u).unwrap_or(&0) as usize) < h {
                active.push(u);
            }
        }
        if ex > EPS {
            if pushed_any {
                active.push(v); // keep draining at the same label
            } else {
                // Relabel.
                let new_label = lv + 1;
                label.insert(v, new_label);
                *operations += 1;
                if (new_label as usize) < h {
                    active.push(v);
                }
            }
        }
    }

    // Mass stuck: excess on nodes whose label reached h.
    touched
        .iter()
        .filter(|&&v| *label.get(&v).unwrap_or(&0) as usize >= h)
        .map(|&v| excess(mass, v, graph))
        .sum()
}

#[inline]
fn flow_key(v: NodeId, u: NodeId) -> (u32, u32) {
    if v < u {
        (v, u)
    } else {
        (u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;
    use hk_graph::gen::planted_partition;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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
    fn recovers_seed_clique() {
        let g = two_cliques();
        let mut rng = SmallRng::seed_from_u64(1);
        let res = crd(&g, 0, &CrdParams::default(), &mut rng);
        // The seed's clique must dominate the cluster.
        let inside = res.cluster.iter().filter(|&&v| v < 4).count();
        assert!(inside >= 3, "cluster {:?}", res.cluster);
        assert!(res.conductance < 0.5);
        assert!(res.operations > 0);
    }

    #[test]
    fn planted_partition_block() {
        let mut rng = SmallRng::seed_from_u64(2);
        let pp = planted_partition(3, 40, 0.4, 0.01, &mut rng).unwrap();
        let res = crd(&pp.graph, 5, &CrdParams::default(), &mut rng);
        let inside = res.cluster.iter().filter(|&&v| v < 40).count();
        assert!(
            inside * 2 > res.cluster.len(),
            "cluster mostly off-block: {inside}/{}",
            res.cluster.len()
        );
        assert!(res.conductance < 0.5, "conductance {}", res.conductance);
    }

    #[test]
    fn more_iterations_spread_more_mass() {
        let mut rng = SmallRng::seed_from_u64(3);
        let pp = planted_partition(3, 40, 0.4, 0.02, &mut rng).unwrap();
        let few = crd(
            &pp.graph,
            0,
            &CrdParams {
                iterations: 2,
                ..CrdParams::default()
            },
            &mut rng,
        );
        let many = crd(
            &pp.graph,
            0,
            &CrdParams {
                iterations: 12,
                ..CrdParams::default()
            },
            &mut rng,
        );
        assert!(many.operations >= few.operations);
        assert!(many.rounds >= few.rounds);
    }

    #[test]
    fn isolated_seed_returns_singleton() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let mut rng = SmallRng::seed_from_u64(4);
        let res = crd(&g, 2, &CrdParams::default(), &mut rng);
        assert_eq!(res.cluster, vec![2]);
    }

    #[test]
    #[should_panic(expected = "seed out of range")]
    fn rejects_bad_seed() {
        let g = two_cliques();
        let mut rng = SmallRng::seed_from_u64(5);
        let _ = crd(&g, 99, &CrdParams::default(), &mut rng);
    }
}
