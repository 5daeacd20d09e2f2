//! Property-based invariants across the estimator stack, on randomly
//! generated graphs (proptest drives the topology and the parameters).

use hk_graph::builder::GraphBuilder;
use hk_graph::Graph;
use hkpr_core::push::hk_push;
use hkpr_core::push_plus::{hk_push_plus, PushPlusConfig};
use hkpr_core::{
    estimate_in, exact_hkpr, AnytimeControls, Estimator, HkprParams, PoissonTable, QueryWorkspace,
    TeaOutput,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Build a connected-ish random graph from a proptest edge soup, ensuring
/// node 0 exists and has at least one neighbor.
fn build_graph(edges: &[(u8, u8)]) -> Graph {
    let mut b = GraphBuilder::new();
    b.add_edge(0, 1);
    for &(u, v) in edges {
        b.add_edge(u as u32 % 40, v as u32 % 40);
    }
    b.build()
}

/// One query from node 0, refined to completion.
fn run(g: &Graph, params: &HkprParams, estimator: Estimator, rng: &mut SmallRng) -> TeaOutput {
    let (controls, mut ws) = (AnytimeControls::default(), QueryWorkspace::new());
    let out = estimate_in(g, params, 0, estimator, controls, rng, &mut ws).unwrap();
    out.into_complete().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HK-Push conserves probability mass exactly for any graph/rmax.
    #[test]
    fn push_mass_conservation(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        rmax_exp in 1.0f64..6.0,
        t in 1.0f64..12.0,
    ) {
        let g = build_graph(&edges);
        let p = PoissonTable::new(t);
        let rmax = 10f64.powf(-rmax_exp);
        let out = hk_push(&g, &p, 0, rmax);
        let total = out.reserve.values().sum::<f64>() + out.residues.total_sum_exact();
        prop_assert!((total - 1.0).abs() < 1e-9, "mass {total}");
        // All residues respect the threshold.
        for (_, v, r) in out.residues.entries() {
            prop_assert!(r <= rmax * g.degree(v) as f64 + 1e-12);
        }
    }

    /// HK-Push+ conserves mass and never claims condition (11) falsely.
    #[test]
    fn push_plus_soundness(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..120),
        eps_exp in 1.0f64..4.0,
        hop_cap in 2usize..12,
        budget in 1u64..100_000,
    ) {
        let g = build_graph(&edges);
        let p = PoissonTable::new(5.0);
        let cfg = PushPlusConfig { hop_cap, eps_abs: 10f64.powf(-eps_exp), budget };
        let out = hk_push_plus(&g, &p, 0, &cfg);
        let total = out.reserve.values().sum::<f64>() + out.residues.total_sum_exact();
        prop_assert!((total - 1.0).abs() < 1e-9);
        prop_assert!(out.push_operations <= budget);
        if out.satisfied_condition_11 {
            let mut per_hop = vec![0.0f64; out.residues.num_hops()];
            for (k, v, r) in out.residues.entries() {
                per_hop[k] = per_hop[k].max(r / g.degree(v).max(1) as f64);
            }
            prop_assert!(per_hop.iter().sum::<f64>() <= cfg.eps_abs + 1e-12);
        }
    }

    /// TEA's estimate is a calibrated distribution: raw mass equals the
    /// initial unit mass up to float noise.
    #[test]
    fn tea_estimate_calibrated(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..100),
        rng_seed in any::<u64>(),
    ) {
        let g = build_graph(&edges);
        let params = HkprParams::builder(&g)
            .t(5.0)
            .eps_r(0.5)
            .delta(0.01)
            .p_f(0.05)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let out = run(&g, &params, Estimator::Tea { rmax: None }, &mut rng);
        prop_assert!((out.estimate.raw_sum() - 1.0).abs() < 1e-9);
    }

    /// TEA+ raw mass never exceeds 1 (reduction only removes mass) and
    /// its offset is exactly eps_abs/2 when walks ran.
    #[test]
    fn tea_plus_mass_bounded(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..100),
        rng_seed in any::<u64>(),
    ) {
        let g = build_graph(&edges);
        let params = HkprParams::builder(&g)
            .t(4.0)
            .eps_r(0.5)
            .delta(0.005)
            .p_f(0.05)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(rng_seed);
        let out = run(&g, &params, Estimator::TeaPlus(Default::default()), &mut rng);
        prop_assert!(out.estimate.raw_sum() <= 1.0 + 1e-9);
        if !out.stats.early_exit {
            prop_assert!(
                (out.estimate.offset_coeff() - params.eps_abs() / 2.0).abs() < 1e-15
            );
        }
    }

    /// Exact HKPR is a probability distribution on any graph (mass may
    /// only be lost to the truncated tail, which is < 1e-12).
    #[test]
    fn exact_hkpr_distribution(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..100),
        t in 0.5f64..20.0,
    ) {
        let g = build_graph(&edges);
        let p = PoissonTable::new(t);
        let rho = exact_hkpr(&g, &p, 0);
        let sum: f64 = rho.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9, "sum {sum}");
        prop_assert!(rho.iter().all(|&x| x >= 0.0));
    }
}
