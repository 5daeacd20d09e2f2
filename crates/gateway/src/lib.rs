#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # hk-gateway
//!
//! The network edge of the TEA/TEA+ serving stack: a hand-rolled
//! HTTP/1.1 gateway over [`hk_serve::MultiEngine`], with a JSON wire
//! format and Prometheus-format observability.
//!
//! The build environment is fully offline (the same vendor discipline
//! as `vendor/`), so everything here is in-tree and dependency-free:
//!
//! * [`http`] — an incremental request parser over raw bytes: bounded
//!   head/body sizes, `Content-Length` framing only (chunked transfer
//!   is a typed `501`, never a misparse), keep-alive and pipelining.
//!   Truncation at any byte is "need more", never an error; every
//!   malformed input is a typed [`http::HttpError`] — property-tested
//!   in `tests/fuzz_http.rs`.
//! * [`json`] — a strict, bounded JSON reader/writer whose `f64` path
//!   is shortest-round-trip in both directions, making rendered answers
//!   injective on result *bits* — the foundation of the bench's
//!   over-the-wire bitwise conformance check.
//! * [`wire`] — request decoding, answer encoding (every
//!   [`hk_cluster::ClusterResult::bitwise_eq`] field crosses the wire),
//!   and the fixed [`hk_serve::ServeError`] → status taxonomy. Degraded
//!   anytime answers are `200`s with a typed `degraded` marker, not
//!   errors.
//! * [`metrics`] — Prometheus text exposition of every engine, cache,
//!   registry, per-graph and gateway counter, all families rendered
//!   even at zero.
//! * [`server`] — the accept loop and bounded connection worker pool;
//!   overload at the edge sheds with `503` immediately, mirroring the
//!   engine's own shed-early admission policy.
//!
//! ```no_run
//! use std::sync::Arc;
//! use hk_serve::{MultiEngine, MultiEngineConfig};
//! use hk_gateway::{Gateway, GatewayConfig};
//!
//! let engine = Arc::new(MultiEngine::new(MultiEngineConfig::default()));
//! engine.registry().register_path("wiki", "data/wiki.hkg");
//! let gw = Gateway::start(engine, "127.0.0.1:8080", GatewayConfig::default()).unwrap();
//! println!("serving on {}", gw.local_addr());
//! ```

pub mod http;
pub mod json;
pub mod metrics;
pub mod server;
pub mod wire;

pub use metrics::GatewayMetrics;
pub use server::{Gateway, GatewayConfig};
