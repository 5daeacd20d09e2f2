#![warn(missing_docs)]

//! # hk-cluster
//!
//! Local graph clustering on top of heat kernel PageRank — phase two of
//! the framework in *Efficient Estimation of Heat Kernel PageRank for
//! Local Clustering* (SIGMOD 2019) plus the quality metrics of its
//! evaluation:
//!
//! * [`mod@conductance`] — the cut-quality objective `Phi(S)` and an
//!   incremental tracker;
//! * [`sweep`] — the sweep cut over degree-normalized HKPR rankings;
//! * [`local`] — the [`LocalClusterer`] façade dispatching to every
//!   estimator in `hkpr-core`;
//! * [`metrics`] — precision/recall/F1 (§7.6) and NDCG (§7.5).
//!
//! Multi-query execution lives one layer up, in the `hk-serve` crate: its
//! persistent `MultiEngine` (worker pool + result cache + deadlines) and
//! the one-shot `hk_serve::run_batch` both drive [`LocalClusterer`]
//! through per-worker [`QueryScratch`] reuse.
//!
//! ## Example
//!
//! ```
//! use hk_graph::gen::planted_partition;
//! use hk_cluster::{LocalClusterer, Method};
//! use hkpr_core::HkprParams;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(1);
//! let pp = planted_partition(4, 30, 0.4, 0.02, &mut rng).unwrap();
//! let params = HkprParams::builder(&pp.graph).t(5.0).delta(1e-3).build().unwrap();
//! let result = LocalClusterer::new(&pp.graph)
//!     .run(Method::TeaPlus, 0, &params, 42)
//!     .unwrap();
//! assert!(result.conductance < 0.7);
//! ```

pub mod conductance;
pub mod local;
pub mod metrics;
pub mod reference;
pub mod sweep;

pub use conductance::{conductance, MemberScratch, SweepState};
pub use local::{ClusterResult, LocalClusterer, Method, QueryScratch};
pub use metrics::{f1_score, ndcg_at_k, F1Score};
pub use sweep::{sweep_estimate, sweep_ranked, sweep_ranked_with, SweepResult};
