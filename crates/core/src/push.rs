//! `HK-Push` (Algorithm 1): deterministic multi-hop residue propagation.
//!
//! Starting from `r^(0)[s] = 1`, repeatedly pick a node `v` whose `k`-hop
//! residue exceeds `rmax * d(v)`, convert an `eta(k)/psi(k)` fraction of it
//! into reserve (the walk would stop at `v` with that probability) and
//! spread the rest evenly over `v`'s neighbors at hop `k + 1`.
//!
//! Lemma 1 is the invariant that makes the combination with random walks
//! sound:
//!
//! ```text
//! rho_s[v] = q_s[v] + sum_u sum_k r^(k)[u] * h^(k)_u[v]
//! ```
//!
//! Lemma 3 bounds the work: O(1/rmax) push operations, O(1/rmax) non-zero
//! residue entries.
//!
//! The processing order is hop-by-hop (all hop-`k` work before hop `k+1`),
//! which Algorithm 1 permits (it picks *any* eligible `(v, k)`) and which
//! matches the round structure of the worked example in §5.4.

use hk_graph::{Graph, NodeId};

use crate::fxhash::FxHashMap;
use crate::poisson::PoissonTable;
use crate::push_plus::{drain_hop, DrainCounters, HopDrain, HopOutcome};
use crate::sparse::ResidueTable;

/// Output of [`hk_push`]: the reserve vector `q_s`, the residue vectors
/// `r^(0..=K)`, and cost counters.
#[derive(Clone, Debug)]
pub struct PushOutput {
    /// Reserve vector `q_s` (a lower bound on `rho_s`, per Lemma 1).
    pub reserve: FxHashMap<NodeId, f64>,
    /// Residue table `r^(0)..r^(K)`.
    pub residues: ResidueTable,
    /// Push operations performed (one per edge traversed, i.e. `d(v)` per
    /// processed node — the unit of Lemma 3's O(1/rmax) bound).
    pub push_operations: u64,
    /// Number of node-processing iterations (line 3 loop executions).
    pub iterations: u64,
}

/// Run `HK-Push` from `seed` with residue threshold `rmax`.
///
/// A node is processed while `r^(k)[v] > rmax * d(v)`. Degree-0 nodes are
/// absorbing: any residue they receive converts entirely to reserve (a
/// walk standing there can never move).
pub fn hk_push(graph: &Graph, poisson: &PoissonTable, seed: NodeId, rmax: f64) -> PushOutput {
    assert!(rmax > 0.0, "rmax must be positive");
    assert!((seed as usize) < graph.num_nodes(), "seed out of range");

    let mut residues = ResidueTable::new(1);
    residues.add(0, seed, 1.0);
    let mut reserve: FxHashMap<NodeId, f64> = FxHashMap::default();
    let mut push_operations = 0u64;
    let mut iterations = 0u64;

    // Per-hop worklists; entries are enqueued when their residue crosses
    // the threshold and re-checked on pop (they may have been processed
    // already via an earlier enqueue).
    let mut queues: Vec<Vec<NodeId>> = vec![vec![seed]];

    let mut k = 0usize;
    while k < queues.len() {
        while let Some(v) = queues[k].pop() {
            let d = graph.degree(v);
            let r = residues.get(k, v);
            if r <= rmax * d as f64 {
                continue; // stale queue entry
            }
            iterations += 1;
            residues.take(k, v);
            if d == 0 {
                *reserve.entry(v).or_insert(0.0) += r;
                continue;
            }
            let stop = poisson.stop_prob(k);
            *reserve.entry(v).or_insert(0.0) += stop * r;
            let remain = (1.0 - stop) * r;
            if remain <= 0.0 {
                continue;
            }
            let share = remain / d as f64;
            push_operations += d as u64;
            if k + 1 >= queues.len() {
                queues.push(Vec::new());
            }
            for &u in graph.neighbors(v) {
                let (old, new) = residues.add(k + 1, u, share);
                let thr = rmax * graph.degree(u) as f64;
                if old <= thr && new > thr {
                    queues[k + 1].push(u);
                }
            }
        }
        k += 1;
    }

    PushOutput {
        reserve,
        residues,
        push_operations,
        iterations,
    }
}

/// Cost counters of the dense push path (the data lives in the
/// workspace).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PushWsStats {
    /// Push operations performed (`d(v)` per processed node).
    pub push_operations: u64,
    /// Node-processing iterations.
    pub iterations: u64,
}

/// `HK-Push` over the dense indexed workspace: identical schedule
/// and arithmetic to [`hk_push`] (same hop-by-hop order, same threshold
/// test, same reserve conversion), with the hash maps replaced by
/// `ws.reserve` / `ws.residues`. Equivalence is asserted bit-for-bit by
/// `tests/equivalence.rs`.
///
/// Each hop level is drained by `push_plus::drain_hop` — the
/// loop `HK-Push+` runs, here with `rmax` as the threshold coefficient
/// and neither budget nor probe — until a hop pushes nothing above the
/// threshold into the next.
///
/// Polls the workspace's [`CancelToken`](crate::CancelToken) at hop
/// boundaries and every `CHECK_INTERVAL` processed nodes, and stops early
/// when it fires; the query driver ([`crate::estimate_in`]) then reports
/// [`crate::HkprError::Cancelled`] and the partial state is discarded
/// (the next `ws.begin` clears everything).
pub fn hk_push_ws(
    graph: &Graph,
    poisson: &PoissonTable,
    seed: NodeId,
    rmax: f64,
    ws: &mut crate::workspace::QueryWorkspace,
) -> PushWsStats {
    assert!(rmax > 0.0, "rmax must be positive");

    ws.begin_push(graph, seed, 1, rmax);
    let cancel = ws.cancel_token().cloned();
    let mut counters = DrainCounters::default();
    let mut k = 0usize;
    while !ws.is_cancelled() {
        let drain = HopDrain {
            k,
            stop: poisson.stop_prob(k),
            thr_coeff: rmax,
            enqueue: true,
            cancel: cancel.as_ref(),
            plus: None,
        };
        if let HopOutcome::Cancelled = drain_hop(graph, &drain, &mut counters, ws) {
            break;
        }
        k += 1;
        if ws.queues[k].is_empty() {
            break;
        }
    }
    ws.fold_settled();

    PushWsStats {
        push_operations: counters.push_operations,
        iterations: counters.processed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_graph::builder::graph_from_edges;

    fn small() -> Graph {
        graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn fired_token_stops_a_hop_drain_at_the_poll() {
        // TEA's drain polls the token every CHECK_INTERVAL processed nodes,
        // as HK-Push+'s does, so a hop larger than that is cut inside
        // rather than after it drained.
        use crate::cancel::CancelToken;
        use crate::push_plus::{HopOutcome, CHECK_INTERVAL};
        use crate::workspace::QueryWorkspace;
        use hk_graph::gen::holme_kim;
        use rand::{rngs::SmallRng, SeedableRng};
        let g = holme_kim(30_000, 5, 0.3, &mut SmallRng::seed_from_u64(3)).unwrap();
        let p = PoissonTable::new(5.0);
        let rmax = 1e-7;
        let fired = CancelToken::new();
        fired.cancel();

        let mut ws = QueryWorkspace::new();
        ws.begin_push(&g, 0, 1, rmax);
        let mut counters = DrainCounters::default();
        let mut k = 0usize;
        loop {
            assert!(!ws.queues[k].is_empty(), "drained before the first poll");
            let drain = HopDrain {
                k,
                stop: p.stop_prob(k),
                thr_coeff: rmax,
                enqueue: true,
                cancel: Some(&fired),
                plus: None,
            };
            match drain_hop(&g, &drain, &mut counters, &mut ws) {
                HopOutcome::Drained { .. } => k += 1,
                HopOutcome::Cancelled => break,
                HopOutcome::Satisfied | HopOutcome::Budget => panic!("no such stop in HK-Push"),
            }
        }
        assert_eq!(counters.processed, CHECK_INTERVAL, "stopped at the poll");
        // Hop k still holds residues its drain would push.
        let hop = ws.residues().live_hop(k).unwrap();
        let left = hop
            .iter_nonzero_with_deg()
            .any(|(_, r, d)| r > rmax * d as f64);
        assert!(left, "mid-hop");
    }

    #[test]
    fn mass_conservation() {
        // Every push conserves probability mass:
        // sum(reserve) + sum(residues) == 1 at all times.
        let g = small();
        let p = PoissonTable::new(5.0);
        for rmax in [0.5, 0.1, 0.01, 1e-4, 1e-6] {
            let out = hk_push(&g, &p, 0, rmax);
            let total: f64 = out.reserve.values().sum::<f64>() + out.residues.total_sum_exact();
            assert!((total - 1.0).abs() < 1e-10, "rmax={rmax}: total={total}");
        }
    }

    #[test]
    fn residues_bounded_by_threshold() {
        let g = small();
        let p = PoissonTable::new(5.0);
        let rmax = 1e-3;
        let out = hk_push(&g, &p, 0, rmax);
        for (k, v, r) in out.residues.entries() {
            let _ = k;
            assert!(
                r <= rmax * graph_degree(&g, v) + 1e-12,
                "residue {r} at node {v} exceeds rmax*d"
            );
        }
    }

    fn graph_degree(g: &Graph, v: NodeId) -> f64 {
        g.degree(v) as f64
    }

    #[test]
    fn reserve_is_lower_bound_that_improves() {
        let g = small();
        let p = PoissonTable::new(5.0);
        let coarse = hk_push(&g, &p, 0, 1e-2);
        let fine = hk_push(&g, &p, 0, 1e-6);
        let coarse_sum: f64 = coarse.reserve.values().sum();
        let fine_sum: f64 = fine.reserve.values().sum();
        assert!(fine_sum >= coarse_sum - 1e-12);
        assert!(fine_sum <= 1.0 + 1e-12);
        // With a tiny threshold nearly all mass lands in the reserve.
        assert!(fine_sum > 0.999, "fine reserve sum {fine_sum}");
    }

    #[test]
    fn first_rounds_match_example_5_4_table_5() {
        // The §5.4 graph G' with t = 3. With rmax = 0.15, exactly two
        // rounds run: the seed (r/d = 0.5) and then v1 (r/d ≈ 0.1584);
        // v2 (r/d ≈ 0.079) and all hop-2 residues (max r/d = tau/6 ≈ 0.133)
        // stay below threshold. The state must match Table 5.
        let g = graph_from_edges([
            (0, 1),
            (0, 2),
            (1, 2),
            (1, 3),
            (2, 4),
            (2, 5),
            (2, 6),
            (2, 7),
        ]);
        let p = PoissonTable::new(3.0);
        let out = hk_push(&g, &p, 0, 0.15);
        let e3 = 3.0f64.exp();
        let tau = 1.0 - 4.0 / e3;
        assert_eq!(out.iterations, 2);
        assert!((out.reserve[&0] - 1.0 / e3).abs() < 1e-12);
        assert!((out.reserve[&1] - 3.0 / (2.0 * e3)).abs() < 1e-12);
        assert!(!out.reserve.contains_key(&2));
        // Table 5 residues: r^(1)[v2] = (e^3-1)/(2e^3); r^(2) = tau/6 at
        // s, v2, v3.
        assert!((out.residues.get(1, 2) - (e3 - 1.0) / (2.0 * e3)).abs() < 1e-12);
        assert_eq!(out.residues.get(1, 1), 0.0);
        assert!((out.residues.get(2, 0) - tau / 6.0).abs() < 1e-12);
        assert!((out.residues.get(2, 2) - tau / 6.0).abs() < 1e-12);
        assert!((out.residues.get(2, 3) - tau / 6.0).abs() < 1e-12);
        assert_eq!(out.residues.get(2, 1), 0.0);
    }

    #[test]
    fn isolated_seed_gets_full_reserve() {
        let mut b = hk_graph::GraphBuilder::new();
        b.add_edge(0, 1);
        b.ensure_nodes(3);
        let g = b.build();
        let p = PoissonTable::new(5.0);
        let out = hk_push(&g, &p, 2, 1e-4);
        assert!((out.reserve[&2] - 1.0).abs() < 1e-12);
        assert_eq!(out.residues.nnz(), 0);
    }

    #[test]
    fn push_count_scales_inversely_with_rmax() {
        let g = small();
        let p = PoissonTable::new(5.0);
        let loose = hk_push(&g, &p, 0, 1e-2);
        let tight = hk_push(&g, &p, 0, 1e-5);
        assert!(tight.push_operations > loose.push_operations);
        // Lemma 3: pushes <= 1/rmax.
        assert!(tight.push_operations as f64 <= 1.0 / 1e-5);
        assert!(loose.push_operations as f64 <= 1.0 / 1e-2);
    }

    #[test]
    fn lemma_1_invariant_against_dense_truth() {
        // rho_s[v] == q_s[v] + sum_{u,k} r^(k)[u] * h^(k)_u[v] for an
        // intermediate rmax, with rho and h computed densely.
        let g = graph_from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)]);
        let p = PoissonTable::new(4.0);
        let out = hk_push(&g, &p, 0, 0.05);
        let n = g.num_nodes();
        // Dense h^(k)_u[v] via backward recursion (identity beyond k_max).
        let kmax = p.k_max();
        let mut h_next: Vec<Vec<f64>> = (0..n)
            .map(|u| (0..n).map(|v| if u == v { 1.0 } else { 0.0 }).collect())
            .collect();
        let mut h_per_hop: Vec<Vec<Vec<f64>>> = vec![Vec::new(); kmax + 1];
        for k in (0..=kmax).rev() {
            let s = p.stop_prob(k);
            let mut now = vec![vec![0.0; n]; n];
            for u in 0..n {
                let nbrs = g.neighbors(u as NodeId);
                for v in 0..n {
                    let avg = if nbrs.is_empty() {
                        h_next[u][v]
                    } else {
                        nbrs.iter().map(|&w| h_next[w as usize][v]).sum::<f64>() / nbrs.len() as f64
                    };
                    now[u][v] = s * if u == v { 1.0 } else { 0.0 } + (1.0 - s) * avg;
                }
            }
            h_per_hop[k] = now.clone();
            h_next = now;
        }
        // Dense exact rho via the power series.
        let rho = crate::power::exact_hkpr(&g, &p, 0);
        for v in 0..n {
            let mut rhs = out.reserve.get(&(v as NodeId)).copied().unwrap_or(0.0);
            for (k, u, r) in out.residues.entries() {
                let h = if k <= kmax {
                    h_per_hop[k][u as usize][v]
                } else if u as usize == v {
                    1.0
                } else {
                    0.0
                };
                rhs += r * h;
            }
            assert!(
                (rho[v] - rhs).abs() < 1e-9,
                "Lemma 1 violated at v={v}: rho={} rhs={rhs}",
                rho[v]
            );
        }
    }
}
