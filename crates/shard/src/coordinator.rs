//! The graph-free coordinator: routes queries to owner shards and runs
//! the frontier-exchange rounds.
//!
//! The coordinator holds one connection per shard (star topology — shards
//! never talk to each other; parked cursors route through here) and no
//! graph state beyond what `HelloAck` reports: node count, fingerprint
//! and the partition boundaries. A query is five phases:
//!
//! 1. `Begin` to the seed's owner shard, which runs push + residue
//!    reduction over its full snapshot copy. Early-exit queries finish
//!    here (`BeginDone`).
//! 2. `Exec` broadcast of the returned [`WalkSpec`]: every shard builds
//!    the identical chunk plan and seats the initial cursors it owns.
//! 3. `Step` rounds: each round ships every cursor parked toward a shard
//!    in one batch, and collects the cursors that parked during the
//!    round. Rounds repeat while *any* shard parked anything; a round
//!    with zero parks everywhere means every chunk ran to completion.
//! 4. `Collect`: each shard reports its walk steps and sparse endpoint
//!    counts. Integer counts are merge-order-independent, so the
//!    coordinator simply concatenates.
//! 5. `Finish` to the owner shard: finalize + sweep, `Done` carries the
//!    [`WireResult`].

use std::fmt;
use std::io::{self, Write};
use std::net::{TcpStream, ToSocketAddrs};

use hk_gateway::frame::{read_frame, FrameLimits, FrameParser};
use hkpr_core::ShardCursor;

use crate::proto::{Begin, Exec, Finish, Msg, ProtoError, QueryKnobs, WireResult};

/// Coordinator-side failure.
#[derive(Debug)]
pub enum ShardError {
    /// Transport failure on a shard connection.
    Io(io::Error),
    /// A shard sent a well-framed but malformed body.
    Proto(ProtoError),
    /// A shard reported a query error (`Error` frame).
    Remote(String),
    /// A shard violated the protocol (wrong message, inconsistent
    /// topology, bad routing).
    Protocol(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard transport: {e}"),
            ShardError::Proto(e) => write!(f, "shard protocol decode: {e}"),
            ShardError::Remote(msg) => write!(f, "shard error: {msg}"),
            ShardError::Protocol(msg) => write!(f, "shard protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> ShardError {
        ShardError::Io(e)
    }
}

impl From<ProtoError> for ShardError {
    fn from(e: ProtoError) -> ShardError {
        ShardError::Proto(e)
    }
}

struct Conn {
    stream: TcpStream,
    parser: FrameParser,
}

impl Conn {
    fn send(&mut self, msg: &Msg) -> Result<(), ShardError> {
        self.stream.write_all(&msg.to_frame_bytes())?;
        Ok(())
    }

    /// Receive one message; EOF and `Error` frames are typed failures.
    fn recv(&mut self) -> Result<Msg, ShardError> {
        let Some(frame) = read_frame(&mut self.stream, &mut self.parser)? else {
            return Err(ShardError::Protocol("shard closed the connection".into()));
        };
        match Msg::decode(&frame)? {
            Msg::Error(msg) => Err(ShardError::Remote(msg)),
            msg => Ok(msg),
        }
    }
}

/// A connected shard fleet, ready to run queries.
pub struct ShardCoordinator {
    conns: Vec<Conn>,
    n: u32,
    fingerprint: u64,
    starts: Vec<u32>,
}

impl ShardCoordinator {
    /// Connect to one shard per address (index = shard id), handshake,
    /// and cross-check that every shard reports the same snapshot
    /// (fingerprint, node count) and partition.
    pub fn connect<A: ToSocketAddrs>(addrs: &[A]) -> Result<ShardCoordinator, ShardError> {
        let mut conns = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            conns.push(Conn {
                stream,
                parser: FrameParser::new(FrameLimits::default()),
            });
        }
        let mut topology: Option<(u32, u64, Vec<u32>)> = None;
        for (i, conn) in conns.iter_mut().enumerate() {
            conn.send(&Msg::Hello)?;
            match conn.recv()? {
                Msg::HelloAck {
                    shard_id,
                    shards,
                    n,
                    fingerprint,
                    starts,
                } => {
                    if shard_id as usize != i || shards as usize != addrs.len() {
                        return Err(ShardError::Protocol(format!(
                            "shard at index {i} identifies as {shard_id}/{shards}, \
                             expected {i}/{}",
                            addrs.len()
                        )));
                    }
                    let ok = starts.len() == shards as usize + 1
                        && starts.first() == Some(&0)
                        && starts.last() == Some(&n)
                        && starts.windows(2).all(|w| w[0] <= w[1]);
                    if !ok {
                        return Err(ShardError::Protocol(format!(
                            "shard {i} reports a malformed partition {starts:?}"
                        )));
                    }
                    match &topology {
                        None => topology = Some((n, fingerprint, starts)),
                        Some((n0, fp0, starts0)) => {
                            if *n0 != n || *fp0 != fingerprint || *starts0 != starts {
                                return Err(ShardError::Protocol(format!(
                                    "shard {i} disagrees on snapshot or partition \
                                     (fingerprint {fingerprint:#x} vs {fp0:#x})"
                                )));
                            }
                        }
                    }
                }
                other => {
                    return Err(ShardError::Protocol(format!(
                        "expected HelloAck, got kind {:#04x}",
                        other.kind()
                    )))
                }
            }
        }
        let (n, fingerprint, starts) =
            topology.ok_or_else(|| ShardError::Protocol("no shards".into()))?;
        Ok(ShardCoordinator {
            conns,
            n,
            fingerprint,
            starts,
        })
    }

    /// Shard count.
    pub fn shards(&self) -> usize {
        self.conns.len()
    }

    /// Node count of the served snapshot.
    pub fn num_nodes(&self) -> u32 {
        self.n
    }

    /// Fingerprint of the served snapshot.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The shard owning `node`'s adjacency row. Out-of-range nodes clamp
    /// to the last shard, which rejects them with a typed error — the
    /// coordinator itself stays graph-free and does not validate seeds.
    pub fn owner(&self, node: u32) -> usize {
        self.starts
            .partition_point(|&s| s <= node)
            .saturating_sub(1)
            .min(self.conns.len() - 1)
    }

    /// Run one TEA+ query across the fleet. Bitwise identical to the
    /// single-process one-owner run
    /// (`LocalClusterer::run_tea_plus_one_owner`) for the same
    /// `(seed, params, rng_seed)`.
    pub fn run_query(
        &mut self,
        seed: u32,
        knobs: QueryKnobs,
        rng_seed: u64,
    ) -> Result<WireResult, ShardError> {
        let owner = self.owner(seed);
        self.conns[owner].send(&Msg::Begin(Begin {
            seed,
            rng_seed,
            knobs,
        }))?;
        let spec = match self.conns[owner].recv()? {
            Msg::BeginDone(result) => return Ok(result),
            Msg::BeginWalk(spec) => spec,
            other => {
                return Err(ShardError::Protocol(format!(
                    "expected BeginDone/BeginWalk, got kind {:#04x}",
                    other.kind()
                )))
            }
        };
        let nr = spec.nr;

        // Walk phase: broadcast the plan, then run exchange rounds.
        let exec = Msg::Exec(Exec { knobs, spec });
        for conn in &mut self.conns {
            conn.send(&exec)?;
        }
        let mut chunks = None;
        let mut seated = 0u64;
        for (i, conn) in self.conns.iter_mut().enumerate() {
            match conn.recv()? {
                Msg::ExecAck {
                    chunks: total,
                    resident,
                } => {
                    if *chunks.get_or_insert(total) != total {
                        return Err(ShardError::Protocol(format!(
                            "shard {i} planned {total} chunks, others {chunks:?}"
                        )));
                    }
                    seated += resident as u64;
                }
                other => {
                    return Err(ShardError::Protocol(format!(
                        "expected ExecAck, got kind {:#04x}",
                        other.kind()
                    )))
                }
            }
        }
        let chunks = chunks.unwrap_or(0);
        if seated != chunks as u64 {
            return Err(ShardError::Protocol(format!(
                "{seated} initial cursors seated across shards, expected {chunks}"
            )));
        }

        let mut inboxes: Vec<Vec<ShardCursor>> = vec![Vec::new(); self.conns.len()];
        loop {
            for (i, conn) in self.conns.iter_mut().enumerate() {
                let cursors = std::mem::take(&mut inboxes[i]);
                conn.send(&Msg::Step { cursors })?;
            }
            let mut any_parked = false;
            for i in 0..self.conns.len() {
                match self.conns[i].recv()? {
                    Msg::StepDone { parked, .. } => {
                        for (dest, cursor) in parked {
                            let dest = dest as usize;
                            if dest >= inboxes.len() || dest == i {
                                return Err(ShardError::Protocol(format!(
                                    "shard {i} parked a cursor toward shard {dest}"
                                )));
                            }
                            any_parked = true;
                            inboxes[dest].push(cursor);
                        }
                    }
                    other => {
                        return Err(ShardError::Protocol(format!(
                            "expected StepDone, got kind {:#04x}",
                            other.kind()
                        )))
                    }
                }
            }
            if !any_parked {
                break;
            }
        }

        // Collect and merge. Counts are integers, so concatenation is a
        // complete merge: the finalize side adds entries node-by-node.
        for conn in &mut self.conns {
            conn.send(&Msg::Collect)?;
        }
        let mut steps = 0u64;
        let mut completed = 0u64;
        let mut merged: Vec<(u32, u64)> = Vec::new();
        for conn in &mut self.conns {
            match conn.recv()? {
                Msg::Counts(c) => {
                    steps += c.steps;
                    completed += c.completed;
                    merged.extend(c.counts);
                }
                other => {
                    return Err(ShardError::Protocol(format!(
                        "expected Counts, got kind {:#04x}",
                        other.kind()
                    )))
                }
            }
        }
        if completed != nr {
            return Err(ShardError::Protocol(format!(
                "{completed} walks deposited across shards, planned {nr}"
            )));
        }

        self.conns[owner].send(&Msg::Finish(Finish {
            steps,
            counts: merged,
        }))?;
        match self.conns[owner].recv()? {
            Msg::Done(result) => Ok(result),
            other => Err(ShardError::Protocol(format!(
                "expected Done, got kind {:#04x}",
                other.kind()
            ))),
        }
    }

    /// Run a seed batch sequentially with the same per-query RNG seeding
    /// as `hk_serve::run_batch`: query `i` uses `rng_seed + i`.
    pub fn run_batch(
        &mut self,
        seeds: &[u32],
        knobs: QueryKnobs,
        rng_seed: u64,
    ) -> Result<Vec<WireResult>, ShardError> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| self.run_query(seed, knobs, rng_seed.wrapping_add(i as u64)))
            .collect()
    }

    /// Ask every shard process to exit.
    pub fn shutdown(mut self) {
        for conn in &mut self.conns {
            conn.send(&Msg::Shutdown).ok();
        }
    }
}
