#![warn(missing_docs)]

//! # hk-bench
//!
//! Experiment harness regenerating every table and figure of the SIGMOD
//! 2019 TEA/TEA+ evaluation (§7) on scaled synthetic stand-ins ([`datasets`]
//! says why and how each of the paper's datasets is replaced; the table
//! below is the experiment index).
//!
//! One binary per experiment:
//!
//! | Binary | Paper artifact |
//! |---|---|
//! | `table7_datasets` | Table 7 (dataset statistics) |
//! | `fig2_tune_c` | Figure 2 (TEA+ runtime vs `c`) |
//! | `fig3_tea_vs_teaplus` | Figure 3 (runtime vs `eps_r`) |
//! | `fig4_tradeoff` | Figure 4 (runtime vs conductance, 7 methods) |
//! | `fig5_memory` | Figure 5 (memory vs conductance) |
//! | `fig6_ndcg` | Figure 6 (runtime vs NDCG) |
//! | `table8_f1` | Table 8 (F1 vs ground truth + runtime) |
//! | `fig7_density` | Figure 7 (seed-subgraph density sensitivity) |
//! | `fig8_9_heat_t` | Figures 8–9 (heat constant sweep) |
//! | `run_all` | everything above, writing CSVs to `experiments/` |
//!
//! Run with `cargo run --release -p hk-bench --bin <name> -- [--quick]
//! [--seeds N] [--datasets a,b] [--out DIR]`.
//!
//! One more binary, `bench_snapshot`, times the walk kernels and writes
//! the committed `BENCH_tea_plus.json` beside the repo benchmark
//! (`benchmark/`, the system-level instrument). Serving is measured
//! there, not here: hk-bench depends on the estimators, not on the
//! serving stack.
//!
//! Serving offers only the paper's own estimators (TEA, TEA+,
//! Monte-Carlo). The §7 competitors live here and reach the experiments
//! through [`AnyMethod`]: [`cluster_hkpr`], [`hk_relax`], [`ppr`]
//! (PR-Nibble, FORA), the flow baselines [`mod@simple_local`] (on
//! [`dinic`]'s max-flow) and [`mod@crd`], and exact power iteration, which
//! stays in core as the oracle ([`hkpr_core::power::exact_estimate`]).
//! The §7.6 experiments score clusters against planted ground truth
//! through [`CommunitySet`].

pub mod cli;
pub mod cluster_hkpr;
pub mod community;
pub mod crd;
pub mod datasets;
pub mod dinic;
pub mod experiments;
pub mod harness;
pub mod hk_relax;
pub mod memalloc;
pub mod ppr;
pub mod report;
pub mod simple_local;
pub mod table;
mod util;

pub use cli::CommonArgs;
pub use community::CommunitySet;
pub use datasets::{DatasetId, Datasets};
pub use harness::{pick_seeds, run_once, run_over_seeds, Aggregate, AnyMethod};
pub use table::{fmt_f, fmt_ms, Table};
