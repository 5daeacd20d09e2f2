//! Clustering quality against planted truth: on a planted-partition graph
//! (five blocks of 200 nodes), TEA and TEA+ must recover the seed's block
//! about as well as exact HKPR does, at every mixing level — F1 against
//! the block (the source paper's Table 8 score) within [`F1_MARGIN`] of
//! the sweep of the exact vector (`exact_estimate`), and sweep conductance
//! within [`CONDUCTANCE_MARGIN`] of it.
//!
//! δ is pinned *below* the block's normalised HKPR, which is about
//! 1/(|C|·d̄) ≈ 8e-5 here. Definition 1 bounds the relative error only
//! where normalised HKPR exceeds δ and allows an absolute error of ε_r·δ
//! below it. At δ = 1/n = 1e-3 the whole block sits in that absolute
//! regime, the estimate cannot order its members, and TEA+ reads F1
//! 0.32–0.50 on these graphs. That is the contract's regime, not a bug,
//! so a quality test at δ = 1/n would test nothing.

use hk_cluster::metrics::f1_score;
use hk_cluster::{ClusterResult, LocalClusterer, Method, QueryScratch};
use hk_graph::gen::planted_partition;
use hk_graph::NodeId;
use hkpr_core::{exact_estimate, HkprParams, QueryStats};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Largest F1 shortfall against exact HKPR's cluster.
const F1_MARGIN: f64 = 0.02;
/// Largest conductance difference from exact HKPR's cluster.
const CONDUCTANCE_MARGIN: f64 = 0.01;
/// Query seeds, in two different blocks.
const SEEDS: [NodeId; 2] = [17, 613];

/// Cluster every seed with Exact, TEA and TEA+ on `planted_partition(5,
/// 200, p_in, p_out)` at t = 5 and δ = 1e-5, and hold TEA and TEA+ to
/// Exact's F1 and conductance.
fn matches_exact_quality(p_in: f64, p_out: f64) {
    let pp = planted_partition(5, 200, p_in, p_out, &mut SmallRng::seed_from_u64(7)).unwrap();
    let params = HkprParams::builder(&pp.graph)
        .t(5.0)
        .delta(1e-5)
        .build()
        .unwrap();
    let clusterer = LocalClusterer::new(&pp.graph);
    let mut scratch = QueryScratch::new();
    for seed in SEEDS {
        let block = &pp.communities[pp.community_of(seed)];
        let quality =
            |result: ClusterResult| (f1_score(&result.cluster, block).f1, result.conductance);
        let exact = exact_estimate(&pp.graph, params.poisson(), seed);
        let exact = clusterer.sweep_in(seed, exact, QueryStats::default(), &mut scratch);
        let (exact_f1, exact_phi) = quality(exact);
        let level = format!("p_in {p_in}, p_out {p_out}, seed {seed}");
        assert!(exact_f1 >= 0.95, "{level}: Exact F1 {exact_f1}");
        for method in [Method::Tea, Method::TeaPlus] {
            let result = clusterer
                .run_in(method, seed, &params, seed as u64, &mut scratch)
                .unwrap();
            let (f1, phi) = quality(result);
            let what = format!("{level}, {}", method.label());
            assert!(
                f1 >= exact_f1 - F1_MARGIN,
                "{what}: F1 {f1} vs Exact {exact_f1}"
            );
            assert!(
                (phi - exact_phi).abs() <= CONDUCTANCE_MARGIN,
                "{what}: conductance {phi} vs Exact {exact_phi}"
            );
        }
    }
}

#[test]
fn well_separated_blocks() {
    matches_exact_quality(0.3, 0.002);
}

#[test]
fn lightly_mixed_blocks() {
    matches_exact_quality(0.3, 0.005);
}

#[test]
fn mixed_blocks() {
    matches_exact_quality(0.3, 0.01);
}

#[test]
fn sparse_heavily_mixed_blocks() {
    matches_exact_quality(0.2, 0.015);
}
