#![warn(missing_docs)]

//! # hk-graph
//!
//! Graph substrate for the TEA / TEA+ heat-kernel-PageRank reproduction
//! (Yang et al., *Efficient Estimation of Heat Kernel PageRank for Local
//! Clustering*, SIGMOD 2019).
//!
//! The paper's algorithms operate on undirected, unweighted graphs accessed
//! through three primitives: `degree(v)`, `neighbors(v)` and global counts
//! `n`/`m`. This crate provides:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) representation
//!   with sorted adjacency lists (O(log d) edge tests, cache-friendly
//!   neighborhood scans);
//! * [`GraphBuilder`] — edge-list ingestion with de-duplication and
//!   self-loop removal;
//! * [`gen`] — the synthetic generators used by the paper's evaluation
//!   (Holme–Kim "PLC", 3D grid) plus standard families (Erdős–Rényi,
//!   Barabási–Albert, Chung–Lu, planted partition with ground-truth
//!   communities) used as stand-ins for the SNAP datasets;
//! * [`io`] — text edge-list serialization plus the `.hkg` binary
//!   snapshot: 64-byte-aligned, checksummed, and loaded zero-copy into an
//!   arena (or an mmap behind the `mmap` feature) — see [`storage`];
//! * [`storage`] — the backing-storage layer ([`StorageBackend`]):
//!   owned heap arrays or a shared aligned arena;
//! * [`components`], [`metrics`], [`sample`] — experiment plumbing
//!   (connected components, subgraph density, seed selection).
//!
//! ## Example
//!
//! ```
//! use hk_graph::GraphBuilder;
//!
//! let mut b = GraphBuilder::new();
//! b.add_edge(0, 1);
//! b.add_edge(1, 2);
//! b.add_edge(2, 0);
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 3);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.degree(0), 2);
//! assert!(g.has_edge(0, 2));
//! ```

pub mod builder;
pub mod components;
pub mod csr;
pub mod error;
pub mod gen;
pub mod io;
pub mod metrics;
pub mod sample;
pub mod storage;

pub use builder::GraphBuilder;
pub use csr::{Graph, NodeId};
pub use error::GraphError;
pub use storage::StorageBackend;
