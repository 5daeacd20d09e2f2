//! Implementations of every evaluation artifact (§7 of the paper).
//!
//! Each function returns a [`Table`] whose rows mirror the series of the
//! corresponding paper figure/table. The binaries in `src/bin/` are thin
//! wrappers; `run_all` calls everything here and persists CSVs.
//!
//! Parameter grids are scaled to the stand-in graph sizes: the paper pins
//! `delta = 1e-6` against `n` up to 65.6M (i.e. `delta*n` between ~0.3 and
//! ~65); we express grids as multiples of `1/n` to land in the same
//! regime. Walk-bounded baselines (Monte-Carlo, ClusterHKPR) are capped —
//! the paper itself reports multi-minute queries for them — and rows note
//! when the cap was active.

use hk_cluster::{ndcg_at_k, Method};
use hk_graph::gen::planted_partition;
use hk_graph::{Graph, NodeId};
use hkpr_core::{exact_normalized_hkpr, HkprParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::cli::CommonArgs;
use crate::community::CommunitySet;
use crate::crd::CrdParams;
use crate::datasets::{DatasetId, Datasets};
use crate::harness::{pick_seeds, run_over_seeds, AnyMethod};
use crate::table::{fmt_f, fmt_ms, Table};

/// Constructor closure mapping an accuracy knob to an [`AnyMethod`].
type MethodCtor = Box<dyn Fn(f64) -> AnyMethod>;

/// Walk cap for Monte-Carlo / ClusterHKPR (full mode).
const WALK_CAP: u64 = 5_000_000;
/// Walk cap in `--quick` mode.
const WALK_CAP_QUICK: u64 = 500_000;

fn walk_cap(args: &CommonArgs) -> u64 {
    if args.quick {
        WALK_CAP_QUICK
    } else {
        WALK_CAP
    }
}

fn datasets(args: &CommonArgs) -> Datasets {
    Datasets::default_dir(args.scale_div())
}

/// Build params with the experiment defaults (`t = 5`, `p_f = 1e-6`).
fn params(graph: &Graph, t: f64, eps_r: f64, delta: f64, c: f64) -> HkprParams {
    HkprParams::builder(graph)
        .t(t)
        .eps_r(eps_r)
        .delta(delta)
        .p_f(1e-6)
        .c(c)
        .build()
        .expect("experiment parameters must validate")
}

// ---------------------------------------------------------------- Table 7

/// Table 7: statistics of the stand-in datasets next to the originals.
pub fn table7(args: &CommonArgs) -> Table {
    let ds = datasets(args);
    let mut t = Table::new([
        "dataset",
        "n",
        "m",
        "d_bar",
        "paper_dataset",
        "paper_n",
        "paper_m",
        "paper_d_bar",
    ]);
    for id in args.dataset_list(&DatasetId::all()) {
        let g = ds.load(id);
        let (pname, pn, pm, pd) = id.paper_stats();
        t.row([
            id.name().to_string(),
            g.num_nodes().to_string(),
            g.num_edges().to_string(),
            format!("{:.2}", g.avg_degree()),
            pname.to_string(),
            pn.to_string(),
            pm.to_string(),
            format!("{pd:.2}"),
        ]);
    }
    t
}

// ---------------------------------------------------------------- Figure 2

/// Figure 2: TEA+ running time as `c` varies (eps_r = 0.5, delta = 1/n).
pub fn fig2(args: &CommonArgs) -> Table {
    let ds = datasets(args);
    let c_grid: &[f64] = if args.quick {
        &[0.5, 1.5, 2.5, 3.5, 5.0]
    } else {
        &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
    };
    let mut t = Table::new(["dataset", "c", "avg_ms", "avg_conductance"]);
    for id in args.dataset_list(&DatasetId::all()) {
        let g = ds.load(id);
        let seeds = pick_seeds(&g, args.seeds, args.rng);
        for &c in c_grid {
            let p = params(&g, 5.0, 0.5, 1.0 / g.num_nodes() as f64, c);
            let agg = run_over_seeds(&g, &AnyMethod::Hkpr(Method::TeaPlus), &p, &seeds, args.rng)
                .expect("seeds validated");
            t.row([
                id.name().to_string(),
                format!("{c}"),
                fmt_ms(agg.avg_ms),
                fmt_f(agg.avg_conductance),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------- Figure 3

/// Figure 3: TEA vs TEA+ running time as `eps_r` varies (delta = 4/n,
/// matching the paper's delta*n regime; see module docs).
pub fn fig3(args: &CommonArgs) -> Table {
    let ds = datasets(args);
    let eps_grid: &[f64] = if args.quick {
        &[0.1, 0.5, 0.9]
    } else {
        &[0.1, 0.3, 0.5, 0.7, 0.9]
    };
    let mut t = Table::new(["dataset", "eps_r", "tea_ms", "teaplus_ms", "speedup"]);
    for id in args.dataset_list(&DatasetId::all()) {
        let g = ds.load(id);
        let seeds = pick_seeds(&g, args.seeds, args.rng);
        for &eps in eps_grid {
            let p = params(&g, 5.0, eps, 4.0 / g.num_nodes() as f64, 2.5);
            let tea = run_over_seeds(&g, &AnyMethod::Hkpr(Method::Tea), &p, &seeds, args.rng)
                .expect("seeds validated");
            let plus = run_over_seeds(&g, &AnyMethod::Hkpr(Method::TeaPlus), &p, &seeds, args.rng)
                .expect("seeds validated");
            t.row([
                id.name().to_string(),
                format!("{eps}"),
                fmt_ms(tea.avg_ms),
                fmt_ms(plus.avg_ms),
                format!("{:.1}x", tea.avg_ms / plus.avg_ms.max(1e-9)),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------- Figure 4

/// The per-method accuracy grids of the Figure 4/5 trade-off sweeps.
/// `delta`-like knobs are in multiples of `1/n`.
fn tradeoff_grid(args: &CommonArgs) -> Vec<(AnyMethod, String, f64)> {
    // (method-kind, knob-label, knob-value). Knob value semantics depend
    // on the method; resolved in `tradeoff_methods`.
    let delta_mults: &[f64] = if args.quick {
        &[16.0, 0.25]
    } else {
        &[64.0, 16.0, 4.0, 1.0, 0.25]
    };
    let chk_eps: &[f64] = if args.quick {
        &[0.2, 0.05]
    } else {
        &[0.3, 0.2, 0.1, 0.05]
    };
    let relax_mults: &[f64] = if args.quick {
        &[8.0, 0.5]
    } else {
        &[32.0, 8.0, 2.0, 0.5, 0.125]
    };
    let cap = walk_cap(args);
    let mut grid = Vec::new();
    for &dm in delta_mults {
        grid.push((AnyMethod::Hkpr(Method::Tea), format!("delta={dm}/n"), dm));
        grid.push((
            AnyMethod::Hkpr(Method::TeaPlus),
            format!("delta={dm}/n"),
            dm,
        ));
        grid.push((
            AnyMethod::Hkpr(Method::MonteCarlo {
                max_walks: Some(cap),
            }),
            format!("delta={dm}/n"),
            dm,
        ));
    }
    for &e in chk_eps {
        grid.push((
            AnyMethod::ClusterHkpr {
                eps: e,
                max_walks: Some(cap),
            },
            format!("eps={e}"),
            e,
        ));
    }
    for &rm in relax_mults {
        grid.push((
            AnyMethod::HkRelax { eps_a: 1.0 },
            format!("eps_a={rm}/n"),
            rm,
        ));
    }
    grid
}

/// Resolve a grid entry against a concrete graph (delta knobs scale with
/// `n`).
fn resolve_entry(entry: &(AnyMethod, String, f64), n: usize) -> (AnyMethod, HkprDelta) {
    let inv_n = 1.0 / n as f64;
    match entry.0 {
        AnyMethod::HkRelax { .. } => (
            AnyMethod::HkRelax {
                eps_a: entry.2 * inv_n,
            },
            HkprDelta(4.0 * inv_n),
        ),
        m @ AnyMethod::ClusterHkpr { .. } => (m, HkprDelta(4.0 * inv_n)),
        m => (m, HkprDelta(entry.2 * inv_n)),
    }
}

/// Newtype so the resolver's second slot is self-documenting.
struct HkprDelta(f64);

/// Figure 4: running time vs conductance for all seven methods.
/// SimpleLocal and CRD run only on the datasets the paper shows them on
/// (DBLP and Youtube stand-ins) — the paper omits them elsewhere for cost.
pub fn fig4(args: &CommonArgs) -> Table {
    let ds = datasets(args);
    let mut t = Table::new([
        "dataset",
        "method",
        "knob",
        "avg_ms",
        "avg_conductance",
        "avg_size",
    ]);
    for id in args.dataset_list(&DatasetId::all()) {
        let g = ds.load(id);
        let seeds = pick_seeds(&g, args.seeds, args.rng);
        for entry in tradeoff_grid(args) {
            let (method, delta) = resolve_entry(&entry, g.num_nodes());
            let p = params(&g, 5.0, 0.5, delta.0, 2.5);
            let agg = run_over_seeds(&g, &method, &p, &seeds, args.rng).expect("seeds valid");
            t.row([
                id.name().to_string(),
                method.label().to_string(),
                entry.1.clone(),
                fmt_ms(agg.avg_ms),
                fmt_f(agg.avg_conductance),
                format!("{:.0}", agg.avg_cluster_size),
            ]);
        }
        // Flow baselines on the two small social stand-ins only.
        if matches!(id, DatasetId::DblpLike | DatasetId::YoutubeLike) {
            let p = params(&g, 5.0, 0.5, 4.0 / g.num_nodes() as f64, 2.5);
            let sl_deltas: &[f64] = if args.quick { &[0.05] } else { &[0.1, 0.05] };
            for &d in sl_deltas {
                let m = AnyMethod::SimpleLocal {
                    delta: d,
                    ball: 200,
                };
                let agg = run_over_seeds(&g, &m, &p, &seeds, args.rng).expect("seeds valid");
                t.row([
                    id.name().to_string(),
                    m.label().to_string(),
                    format!("delta={d}"),
                    fmt_ms(agg.avg_ms),
                    fmt_f(agg.avg_conductance),
                    format!("{:.0}", agg.avg_cluster_size),
                ]);
            }
            let crd_iters: &[usize] = if args.quick { &[7] } else { &[7, 15, 30] };
            for &iters in crd_iters {
                let m = AnyMethod::Crd(CrdParams {
                    iterations: iters,
                    ..CrdParams::default()
                });
                let agg = run_over_seeds(&g, &m, &p, &seeds, args.rng).expect("seeds valid");
                t.row([
                    id.name().to_string(),
                    m.label().to_string(),
                    format!("iters={iters}"),
                    fmt_ms(agg.avg_ms),
                    fmt_f(agg.avg_conductance),
                    format!("{:.0}", agg.avg_cluster_size),
                ]);
            }
        }
    }
    t
}

// ---------------------------------------------------------------- Figure 5

/// Figure 5: memory vs conductance. Meaningful numbers require the
/// counting allocator, which only the `fig5_memory` binary installs; when
/// it is absent the memory column reads 0 and a note is emitted.
pub fn fig5(args: &CommonArgs) -> Table {
    use crate::memalloc;
    let ds = datasets(args);
    let mut t = Table::new([
        "dataset",
        "method",
        "knob",
        "graph_mb",
        "peak_query_mb",
        "avg_conductance",
    ]);
    for id in args.dataset_list(&if args.quick {
        vec![DatasetId::DblpLike, DatasetId::Grid3d]
    } else {
        DatasetId::all().to_vec()
    }) {
        let g = ds.load(id);
        let graph_mb = g.memory_bytes() as f64 / (1024.0 * 1024.0);
        let seeds = pick_seeds(&g, args.seeds.min(5), args.rng);
        for entry in tradeoff_grid(args) {
            let (method, delta) = resolve_entry(&entry, g.num_nodes());
            let p = params(&g, 5.0, 0.5, delta.0, 2.5);
            memalloc::reset_peak();
            let base = memalloc::current_bytes();
            let agg = run_over_seeds(&g, &method, &p, &seeds, args.rng).expect("seeds valid");
            let peak = memalloc::peak_bytes().saturating_sub(base);
            t.row([
                id.name().to_string(),
                method.label().to_string(),
                entry.1.clone(),
                format!("{graph_mb:.1}"),
                format!("{:.2}", peak as f64 / (1024.0 * 1024.0)),
                fmt_f(agg.avg_conductance),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------- Figure 6

/// Figure 6: running time vs NDCG of the normalized-HKPR ranking, against
/// power-method ground truth, on the four small stand-ins.
pub fn fig6(args: &CommonArgs) -> Table {
    let ds = datasets(args);
    let mut t = Table::new(["dataset", "method", "knob", "avg_ms", "avg_ndcg@100"]);
    for id in args.dataset_list(&DatasetId::small_set()) {
        let g = ds.load(id);
        let seeds = pick_seeds(&g, args.seeds.min(10), args.rng);
        // Ground truth once per seed.
        let base_params = params(&g, 5.0, 0.5, 4.0 / g.num_nodes() as f64, 2.5);
        let truths: Vec<Vec<f64>> = seeds
            .iter()
            .map(|&s| exact_normalized_hkpr(&g, base_params.poisson(), s))
            .collect();

        for entry in tradeoff_grid(args) {
            let (method, delta) = resolve_entry(&entry, g.num_nodes());
            let p = params(&g, 5.0, 0.5, delta.0, 2.5);
            let mut total_ms = 0.0;
            let mut total_ndcg = 0.0;
            for (i, &s) in seeds.iter().enumerate() {
                let start = std::time::Instant::now();
                let (est, _) = method
                    .estimate(&g, &p, s, args.rng.wrapping_add(i as u64))
                    .expect("seed valid");
                total_ms += start.elapsed().as_secs_f64() * 1000.0;
                let ranking: Vec<NodeId> = est
                    .ranked_by_normalized(&g)
                    .into_iter()
                    .map(|(v, _)| v)
                    .collect();
                total_ndcg += ndcg_at_k(&ranking, &truths[i], 100);
            }
            let q = seeds.len() as f64;
            t.row([
                id.name().to_string(),
                method.label().to_string(),
                entry.1.clone(),
                fmt_ms(total_ms / q),
                format!("{:.4}", total_ndcg / q),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------- Table 8

/// Planted-partition stand-ins for the ground-truth-community datasets,
/// sized to match the original average degrees.
fn table8_partition(id: DatasetId, scale_div: usize) -> (hk_graph::gen::PlantedPartition, u64) {
    let sd = scale_div.max(1);
    let mut rng = SmallRng::seed_from_u64(0xF1_5EED ^ id as u64);
    let pp = match id {
        // (communities, size, p_in, p_out) tuned to (d̄_intra + d̄_cross)
        // ~ the paper's average degrees.
        DatasetId::DblpLike => planted_partition(80 / sd, 60, 0.10, 0.0003, &mut rng),
        DatasetId::YoutubeLike => planted_partition(80 / sd, 80, 0.05, 0.0002, &mut rng),
        DatasetId::LiveJournalLike => planted_partition(60 / sd, 100, 0.15, 0.0003, &mut rng),
        DatasetId::OrkutLike => planted_partition(40 / sd.min(4), 150, 0.45, 0.001, &mut rng),
        other => panic!("no ground-truth stand-in for {other}"),
    };
    (
        pp.expect("partition parameters are valid"),
        0xF1_5EED ^ id as u64,
    )
}

/// Table 8: best F1 against ground-truth communities and the runtime at
/// that configuration, per method.
pub fn table8(args: &CommonArgs) -> Table {
    let ids = [
        DatasetId::DblpLike,
        DatasetId::YoutubeLike,
        DatasetId::LiveJournalLike,
        DatasetId::OrkutLike,
    ];
    let cap = walk_cap(args);
    let t_grid: &[f64] = if args.quick {
        &[5.0]
    } else {
        &[3.0, 5.0, 10.0]
    };
    // delta in multiples of 1/vol(community): in-community nodes have
    // normalized HKPR ~ 1/vol(community), so the grid straddles the
    // point where the guarantee becomes informative.
    let delta_mults: &[f64] = if args.quick {
        &[1.0]
    } else {
        &[4.0, 1.0, 0.25]
    };
    let mut table = Table::new(["dataset", "method", "best_f1", "avg_ms", "best_config"]);
    for id in ids {
        if let Some(filter) = &args.datasets {
            if !filter.contains(&id) {
                continue;
            }
        }
        let (pp, _) = table8_partition(id, args.scale_div());
        let g = &pp.graph;
        let communities = CommunitySet::new(pp.communities.clone());
        // Seeds from communities of size >= 100 when possible (the paper's
        // protocol), otherwise from all communities.
        let min_size = if communities.at_least(100).is_empty() {
            1
        } else {
            100
        };
        let eligible = communities.at_least(min_size);
        let mut rng = SmallRng::seed_from_u64(args.rng);
        use rand::RngExt;
        let n_seeds = args.seeds.clamp(5, 50);
        let seeds: Vec<NodeId> = (0..n_seeds)
            .map(|_| {
                let c = eligible[rng.random_range(0..eligible.len())] as usize;
                let members = communities.community(c);
                members[rng.random_range(0..members.len())]
            })
            .collect();

        let methods: Vec<(&str, MethodCtor)> = vec![
            (
                "ClusterHKPR",
                Box::new(move |_d| AnyMethod::ClusterHkpr {
                    eps: 0.1,
                    max_walks: Some(cap),
                }),
            ),
            (
                "Monte-Carlo",
                Box::new(move |_d| {
                    AnyMethod::Hkpr(Method::MonteCarlo {
                        max_walks: Some(cap),
                    })
                }),
            ),
            (
                "HK-Relax",
                Box::new(move |d| AnyMethod::HkRelax { eps_a: d / 2.0 }),
            ),
            ("TEA", Box::new(|_d| AnyMethod::Hkpr(Method::Tea))),
            ("TEA+", Box::new(|_d| AnyMethod::Hkpr(Method::TeaPlus))),
        ];

        for (label, make) in &methods {
            let mut best: Option<(f64, f64, String)> = None; // (f1, ms, config)
            let comm_vol = pp.communities[0].len() as f64 * g.avg_degree();
            for &tt in t_grid {
                for &dm in delta_mults {
                    let delta = (dm / comm_vol).min(0.5);
                    let p = params(g, tt, 0.5, delta, 2.5);
                    let method = make(delta);
                    let mut f1_sum = 0.0;
                    let mut ms_sum = 0.0;
                    for (i, &s) in seeds.iter().enumerate() {
                        let start = std::time::Instant::now();
                        let (cluster, _) = method
                            .cluster(g, &p, s, args.rng.wrapping_add(i as u64))
                            .expect("seed valid");
                        ms_sum += start.elapsed().as_secs_f64() * 1000.0;
                        if let Some(score) = communities.score_for_seed(s, &cluster) {
                            f1_sum += score.f1;
                        }
                    }
                    let f1 = f1_sum / seeds.len() as f64;
                    let ms = ms_sum / seeds.len() as f64;
                    let config = format!("t={tt}, delta={dm}/vol(comm)");
                    if best.as_ref().is_none_or(|b| f1 > b.0) {
                        best = Some((f1, ms, config));
                    }
                }
            }
            let (f1, ms, config) = best.unwrap();
            table.row([
                id.name().to_string(),
                label.to_string(),
                format!("{f1:.4}"),
                fmt_ms(ms),
                config,
            ]);
        }
    }
    table
}

// ---------------------------------------------------------------- Figure 7

/// Figure 7: sensitivity to seed-subgraph density (high / medium / low
/// density query sets, §7.7 protocol).
pub fn fig7(args: &CommonArgs) -> Table {
    let ds = datasets(args);
    let cap = walk_cap(args);
    let mut t = Table::new([
        "dataset",
        "density_class",
        "method",
        "avg_ms",
        "avg_conductance",
    ]);
    for id in args.dataset_list(&DatasetId::small_set()) {
        let g = ds.load(id);
        let mut rng = SmallRng::seed_from_u64(args.rng);
        let per_class = args.seeds.clamp(3, 20);
        let strata = hk_graph::sample::density_stratified_seeds(
            &g,
            12 * per_class,
            400,
            per_class,
            &mut rng,
        );
        // Uniform knobs: TEA, TEA+ and Monte-Carlo share one
        // (d, eps_r, delta) guarantee (the §7.3 comparison protocol);
        // HK-Relax gets the equivalent absolute budget eps_a = eps_r*delta.
        let inv_n = 1.0 / g.num_nodes() as f64;
        let p = params(&g, 5.0, 0.5, 4.0 * inv_n, 2.5);
        let methods = [
            AnyMethod::ClusterHkpr {
                eps: 0.1,
                max_walks: Some(cap),
            },
            AnyMethod::Hkpr(Method::MonteCarlo {
                max_walks: Some(cap),
            }),
            AnyMethod::HkRelax { eps_a: 2.0 * inv_n },
            AnyMethod::Hkpr(Method::Tea),
            AnyMethod::Hkpr(Method::TeaPlus),
        ];
        for (class, seeds) in [
            ("high", &strata.high),
            ("medium", &strata.medium),
            ("low", &strata.low),
        ] {
            for m in &methods {
                let agg = run_over_seeds(&g, m, &p, seeds, args.rng).expect("seeds valid");
                t.row([
                    id.name().to_string(),
                    class.to_string(),
                    m.label().to_string(),
                    fmt_ms(agg.avg_ms),
                    fmt_f(agg.avg_conductance),
                ]);
            }
        }
    }
    t
}

// ------------------------------------------------------------ Figures 8+9

/// Figures 8 and 9: effect of the heat constant `t` on the DBLP and PLC
/// stand-ins.
pub fn fig8_9(args: &CommonArgs) -> Table {
    let ds = datasets(args);
    let cap = walk_cap(args);
    let t_grid: &[f64] = if args.quick {
        &[5.0, 20.0]
    } else {
        &[5.0, 10.0, 20.0, 40.0]
    };
    let mut table = Table::new(["dataset", "t", "method", "avg_ms", "avg_conductance"]);
    for id in args.dataset_list(&[DatasetId::DblpLike, DatasetId::Plc]) {
        let g = ds.load(id);
        let seeds = pick_seeds(&g, args.seeds, args.rng);
        for &tt in t_grid {
            let inv_n = 1.0 / g.num_nodes() as f64;
            let p = params(&g, tt, 0.5, 4.0 * inv_n, 2.5);
            let methods = [
                AnyMethod::ClusterHkpr {
                    eps: 0.1,
                    max_walks: Some(cap),
                },
                AnyMethod::Hkpr(Method::MonteCarlo {
                    max_walks: Some(cap),
                }),
                AnyMethod::HkRelax { eps_a: 2.0 * inv_n },
                AnyMethod::Hkpr(Method::Tea),
                AnyMethod::Hkpr(Method::TeaPlus),
            ];
            for m in &methods {
                let agg = run_over_seeds(&g, m, &p, &seeds, args.rng).expect("seeds valid");
                table.row([
                    id.name().to_string(),
                    format!("{tt}"),
                    m.label().to_string(),
                    fmt_ms(agg.avg_ms),
                    fmt_f(agg.avg_conductance),
                ]);
            }
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_args() -> CommonArgs {
        CommonArgs {
            quick: true,
            seeds: 2,
            datasets: Some(vec![DatasetId::DblpLike]),
            ..CommonArgs::default()
        }
    }

    #[test]
    fn table7_lists_requested_datasets() {
        let t = table7(&quick_args());
        assert_eq!(t.len(), 1);
        assert!(t.render().contains("dblp"));
        assert!(t.render().contains("DBLP"));
    }

    #[test]
    fn fig2_produces_one_row_per_c() {
        let t = fig2(&quick_args());
        assert_eq!(t.len(), 5); // quick c grid
    }

    #[test]
    fn fig3_rows_and_speedup_column() {
        let t = fig3(&quick_args());
        assert_eq!(t.len(), 3); // quick eps grid
        assert!(t.render().contains('x'));
    }

    #[test]
    fn fig4_rows_cover_all_seven_methods() {
        let t = fig4(&quick_args());
        let csv = t.to_csv();
        let methods: Vec<&str> = csv
            .lines()
            .skip(1)
            .map(|line| line.split(',').nth(1).unwrap())
            .collect();
        // Quick mode: two knob settings per grid method, one per flow
        // baseline (DBLP is one of the two datasets that runs them).
        for (label, rows) in [
            ("TEA", 2),
            ("TEA+", 2),
            ("Monte-Carlo", 2),
            ("ClusterHKPR", 2),
            ("HK-Relax", 2),
            ("SimpleLocal", 1),
            ("CRD", 1),
        ] {
            let got = methods.iter().filter(|&&m| m == label).count();
            assert_eq!(got, rows, "{label} rows in\n{csv}");
        }
        assert_eq!(t.len(), 12);
    }

    #[test]
    fn resolve_entry_scales_knobs() {
        let a = quick_args();
        let grid = tradeoff_grid(&a);
        for entry in &grid {
            let (m, d) = resolve_entry(entry, 1000);
            assert!(d.0 > 0.0 && d.0 < 1.0);
            if let AnyMethod::HkRelax { eps_a } = m {
                assert!(eps_a > 0.0 && eps_a < 1.0);
            }
        }
    }

    #[test]
    fn table8_partitions_have_expected_degree() {
        for (id, target) in [
            (DatasetId::DblpLike, 6.62),
            (DatasetId::YoutubeLike, 5.27),
            (DatasetId::LiveJournalLike, 17.35),
            (DatasetId::OrkutLike, 76.28),
        ] {
            let (pp, _) = table8_partition(id, 1);
            let d = pp.graph.avg_degree();
            assert!(
                (d - target).abs() / target < 0.35,
                "{}: d̄ {d} too far from {target}",
                id.name()
            );
        }
    }
}
