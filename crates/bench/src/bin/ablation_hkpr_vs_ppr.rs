//! HKPR vs PPR for local clustering — the §6 contrast, measured.
//!
//! Runs TEA+ (heat kernel) against FORA and PR-Nibble (personalized
//! PageRank) on planted communities: same sweep, same seeds, same
//! budget-style knobs. HKPR's hop-count-aware weighting typically finds
//! lower-conductance cuts, which is the premise of the entire paper.

use hk_bench::{fmt_f, fmt_ms, run_over_seeds, AnyMethod, CommonArgs, Table};
use hk_cluster::{CommunitySet, Method};
use hk_graph::gen::planted_partition;
use hkpr_core::HkprParams;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

fn main() {
    let args = CommonArgs::parse();
    let mut rng = SmallRng::seed_from_u64(args.rng);
    let pp = planted_partition(40, 80, 0.1, 0.0004, &mut rng).unwrap();
    let g = &pp.graph;
    let communities = CommunitySet::new(pp.communities.clone());
    let n = g.num_nodes() as f64;
    let params = HkprParams::builder(g)
        .t(5.0)
        .eps_r(0.5)
        .delta(1.0 / n)
        .p_f(1e-6)
        .build()
        .unwrap();

    let seeds: Vec<u32> = (0..args.seeds.max(10))
        .map(|_| {
            let c = rng.random_range(0..communities.len());
            let members = communities.community(c);
            members[rng.random_range(0..members.len())]
        })
        .collect();

    let methods = [
        AnyMethod::Hkpr(Method::TeaPlus),
        AnyMethod::Hkpr(Method::Tea),
        AnyMethod::Fora { alpha: 0.15 },
        AnyMethod::PrNibble {
            alpha: 0.15,
            rmax: 1.0 / (10.0 * n),
        },
    ];

    let mut t = Table::new(["method", "avg_ms", "avg_conductance", "avg_f1"]);
    for m in methods {
        let agg = run_over_seeds(g, &m, &params, &seeds, args.rng).unwrap();
        // F1 pass (separate loop so the timed loop stays pure).
        let mut f1 = 0.0;
        for (i, &s) in seeds.iter().enumerate() {
            let (cluster, _) = m.cluster(g, &params, s, args.rng + i as u64).unwrap();
            f1 += communities
                .score_for_seed(s, &cluster)
                .map_or(0.0, |x| x.f1);
        }
        t.row([
            m.label().to_string(),
            fmt_ms(agg.avg_ms),
            fmt_f(agg.avg_conductance),
            format!("{:.4}", f1 / seeds.len() as f64),
        ]);
    }
    println!("== Ablation: HKPR vs PPR diffusions ==\n{}", t.render());
    if let Some(dir) = &args.out {
        t.save_csv(dir.join("ablation_hkpr_vs_ppr.csv"))
            .expect("csv write");
    }
}
