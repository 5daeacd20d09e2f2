//! Ablation study: price each of TEA+'s three optimizations over TEA
//! separately (the paper's §5: residue reduction, the condition-(11)
//! early exit and the half offset).
//!
//! Variants: full Algorithm 5; no residue reduction; no early exit; no
//! offset; none (degenerates to TEA-over-HK-Push+).

use std::time::Instant;

use hk_bench::{fmt_f, fmt_ms, pick_seeds, CommonArgs, DatasetId, Datasets, Table};
use hk_cluster::sweep_estimate;
use hkpr_core::{
    estimate_in, AnytimeControls, Estimator, HkprParams, QueryWorkspace, TeaPlusOptions,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let args = CommonArgs::parse();
    let ds = Datasets::default_dir(args.scale_div());
    let variants: [(&str, TeaPlusOptions); 5] = [
        ("full", TeaPlusOptions::default()),
        (
            "no-reduction",
            TeaPlusOptions {
                residue_reduction: false,
                ..Default::default()
            },
        ),
        (
            "no-early-exit",
            TeaPlusOptions {
                early_exit: false,
                ..Default::default()
            },
        ),
        (
            "no-offset",
            TeaPlusOptions {
                offset: false,
                ..Default::default()
            },
        ),
        (
            "none",
            TeaPlusOptions {
                residue_reduction: false,
                early_exit: false,
                offset: false,
            },
        ),
    ];
    let mut t = Table::new([
        "dataset",
        "variant",
        "avg_ms",
        "avg_walks",
        "avg_conductance",
    ]);
    let mut ws = QueryWorkspace::new();
    for id in args.dataset_list(&DatasetId::small_set()) {
        let g = ds.load(id);
        let seeds = pick_seeds(&g, args.seeds, args.rng);
        let params = HkprParams::builder(&g)
            .t(5.0)
            .eps_r(0.5)
            .delta(1.0 / g.num_nodes() as f64)
            .p_f(1e-6)
            .build()
            .unwrap();
        for (name, opts) in variants {
            let mut ms = 0.0;
            let mut walks = 0u64;
            let mut phi = 0.0;
            for (i, &s) in seeds.iter().enumerate() {
                let mut rng = SmallRng::seed_from_u64(args.rng + i as u64);
                let start = Instant::now();
                let (estimator, controls) = (Estimator::TeaPlus(opts), AnytimeControls::default());
                let out =
                    estimate_in(&g, &params, s, estimator, controls, &mut rng, &mut ws).unwrap();
                let sw = sweep_estimate(&g, &out.estimate);
                ms += start.elapsed().as_secs_f64() * 1000.0;
                walks += out.stats.random_walks;
                phi += sw.map_or(1.0, |s| s.conductance);
            }
            let q = seeds.len() as f64;
            t.row([
                id.name().to_string(),
                name.to_string(),
                fmt_ms(ms / q),
                format!("{:.0}", walks as f64 / q),
                fmt_f(phi / q),
            ]);
        }
    }
    println!("== Ablation: TEA+ optimizations ==\n{}", t.render());
    if let Some(dir) = &args.out {
        t.save_csv(dir.join("ablation_tea_plus.csv"))
            .expect("csv write");
    }
}
