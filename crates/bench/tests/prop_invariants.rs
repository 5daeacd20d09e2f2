//! Property-based invariants of the §7 baselines, on randomly generated
//! graphs (proptest drives the topology and the parameters).

use hk_bench::hk_relax::hk_relax;
use hk_graph::builder::GraphBuilder;
use hk_graph::Graph;
use hkpr_core::{exact_hkpr, PoissonTable};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// HK-Relax honors its absolute-error contract on arbitrary graphs.
    #[test]
    fn hk_relax_error_contract(
        edges in prop::collection::vec((any::<u8>(), any::<u8>()), 1..100),
        t in 1.0f64..8.0,
    ) {
        let g = build_graph(&edges);
        let p = PoissonTable::new(t);
        let eps_a = 1e-3;
        let out = hk_relax(&g, &p, 0, eps_a).unwrap();
        let exact = exact_hkpr(&g, &p, 0);
        for v in 0..g.num_nodes() as u32 {
            let d = g.degree(v).max(1) as f64;
            let err = (out.estimate.raw(v) - exact[v as usize]).abs() / d;
            prop_assert!(err <= eps_a + 1e-12, "v={v}: err {err}");
        }
    }
}
