#![warn(missing_docs)]

//! # hkpr-core
//!
//! Heat kernel PageRank (HKPR) estimation — a from-scratch Rust
//! reproduction of *Efficient Estimation of Heat Kernel PageRank for Local
//! Clustering* (Yang, Xiao, Wei, Bhowmick, Zhao, Li — SIGMOD 2019).
//!
//! Given an undirected graph `G` and seed `s`, the HKPR of node `v` is
//!
//! ```text
//! rho_s[v] = sum_{k >= 0} eta(k) * P^k[s, v],   eta(k) = e^{-t} t^k / k!
//! ```
//!
//! All estimators return a `(d, eps_r, delta)`-approximate vector
//! (Definition 1): relative error `eps_r` wherever `rho_s[v]/d(v) > delta`,
//! absolute error `eps_r * delta` elsewhere, with probability `1 - p_f`.
//!
//! One driver, [`estimate_in`], runs all three estimators: they differ
//! only in the push stage before the shared walk phase (see [`driver`]).
//! One planner serves that phase: Monte-Carlo's walks are the plan of
//! the single residue entry `(0, seed)`, TEA's and TEA+'s that of their
//! push's residues.
//!
//! | Estimator | Technique | Guarantee / complexity (paper Table 1) |
//! |---|---|---|
//! | [`Estimator::Tea`] | HK-Push + walks | `(d,eps_r,delta)`-approx, `O(t log(n/p_f)/(eps_r^2 delta))` |
//! | [`Estimator::TeaPlus`] | HK-Push+ + residue reduction + walks | same bound, far faster in practice |
//! | [`Estimator::MonteCarlo`] | pure walks from `(0, seed)` (§3) | same guarantee, `nr = 2(1+eps_r/3)ln(n/p_f)/(eps_r^2 delta)` walks |
//! | [`power::exact_hkpr`] | dense power series | exact (ground truth) |
//!
//! The §7 baselines the paper compares against (ClusterHKPR, HK-Relax,
//! PR-Nibble, FORA) live in the experiment crate, `hk-bench`; exact power
//! iteration stays here as the test oracle.
//!
//! The building blocks are public: [`push::hk_push`] (Algorithm 1),
//! [`walk::k_random_walk`] (Algorithm 2), [`push_plus::hk_push_plus`]
//! (Algorithm 4), Poisson tables, alias sampling and the sparse residue
//! store — so downstream code can assemble its own variants.
//!
//! ## Example
//!
//! ```
//! use hk_graph::builder::graph_from_edges;
//! use hkpr_core::{estimate_in, AnytimeControls, Estimator, HkprParams, QueryWorkspace};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let g = graph_from_edges([(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)]);
//! let params = HkprParams::builder(&g).t(5.0).eps_r(0.5).delta(0.01).build().unwrap();
//! let mut rng = SmallRng::seed_from_u64(42);
//! let mut ws = QueryWorkspace::new();
//! let tea_plus = Estimator::TeaPlus(Default::default());
//! let controls = AnytimeControls::default();
//! let out = estimate_in(&g, &params, 0, tea_plus, controls, &mut rng, &mut ws).unwrap();
//! assert!(!out.achieved.is_degraded());
//! // Probability mass near the seed dominates.
//! assert!(out.estimate.rho(&g, 0) > out.estimate.rho(&g, 4));
//! ```

pub mod alias;
pub mod anytime;
pub mod cancel;
pub mod cores;
pub mod driver;
pub mod error;
pub mod estimate;
pub mod fxhash;
mod monte_carlo;
mod node_index;
pub mod params;
pub mod poisson;
pub mod power;
pub mod push;
pub mod push_plus;
pub mod reference;
pub mod sparse;
mod tea;
mod tea_plus;
pub mod walk;
pub mod workspace;

pub use alias::AliasTable;
pub use anytime::{achieved_eps_r, AccuracyTier, AnytimeControls, AnytimeOutput};
pub use cancel::CancelToken;
pub use driver::{estimate_in, Estimator, TeaOutput};
pub use error::HkprError;
pub use estimate::{HkprEstimate, QueryStats};
pub use params::{HkprParams, HkprParamsBuilder};
pub use poisson::{LengthTables, PoissonTable};
pub use power::{exact_estimate, exact_hkpr, exact_normalized_hkpr};
pub use tea_plus::TeaPlusOptions;
pub use workspace::{PhaseTimes, QueryWorkspace, Reserve};
