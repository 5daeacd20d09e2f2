#![warn(missing_docs)]

//! # hk-shard
//!
//! Same-host multi-process sharded serving for TEA+ queries: N shard
//! processes each own a contiguous node range of one `.hkg` snapshot
//! (partitioned by [`hk_graph::NodePartition::volume_balanced`]) and a
//! graph-free [`ShardCoordinator`] routes queries and relays walk
//! cursors between them over loopback TCP.
//!
//! The wire stack reuses the gateway's byte framing
//! ([`hk_gateway::frame`]: `HKS1` magic, length prefix, CRC-32) with the
//! message layer in [`proto`]. The walk distribution itself is
//! [`hkpr_core::ExchangeSession`], the parkable executor of the walk
//! plan: the push phase runs on the seed's owner shard, the planned walk
//! chunks execute as migrating cursors that park at partition boundaries
//! *before* consuming RNG, and the coordinator's batched
//! frontier-exchange rounds ship parked cursors to their owners until the
//! phase runs dry. Because parking is RNG-neutral and endpoint counts are
//! integers, the distributed result is **bitwise identical** to the same
//! executor run in one process under a one-owner partition
//! ([`hk_cluster::LocalClusterer::run_tea_plus_one_owner`]) — for any
//! shard count, including `N = 1`.
//!
//! Process layout: `src/bin/hk_shardd.rs` is the shard daemon
//! (`hk-shardd --snapshot g.hkg --shard-id 0 --shards 2 --port 0`);
//! the coordinator lives in-process with whatever is driving the fleet
//! (the conformance suite or `serve_bench --shard`).

pub mod coordinator;
pub mod proto;
pub mod shard;

pub use coordinator::{ShardCoordinator, ShardError};
pub use proto::{Msg, ProtoError, QueryKnobs, WireResult};
pub use shard::{build_params, serve};
