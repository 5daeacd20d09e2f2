//! The shard RPC message layer, one layer above the byte framing.
//!
//! Each message travels as one [`hk_gateway::frame`] frame; the frame
//! `kind` byte selects the message and the body is a fixed
//! little-endian layout described per variant on [`Msg`]. Requests
//! (coordinator → shard) use kinds `0x01..=0x07`; replies (shard →
//! coordinator) mirror them in `0x81..=0x87`, with `0x7F` as the typed
//! error escape in either direction.
//!
//! Decoding follows the same hostile-input discipline as the framing
//! and HTTP layers: no length is trusted before it is checked against
//! the bytes actually present, truncation and trailing garbage are
//! typed [`ProtoError`]s, and nothing panics on arbitrary bodies
//! (property-tested in `hk-gateway/tests/fuzz_shard.rs` together with
//! the codec underneath).

use std::fmt;

use hk_gateway::frame::{frame_bytes, Frame};
use hkpr_core::ShardCursor;

/// Serialized size of one [`ShardCursor`] on the wire.
pub const CURSOR_LEN: usize = 56;

/// Typed decode failure above the frame layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtoError {
    /// The body ended before the layout was complete.
    Truncated {
        /// Frame kind being decoded.
        kind: u8,
    },
    /// The body continued past the end of the layout.
    Trailing {
        /// Frame kind being decoded.
        kind: u8,
        /// Unconsumed byte count.
        extra: usize,
    },
    /// The frame kind is not part of the protocol.
    UnknownKind {
        /// The kind byte found.
        found: u8,
    },
    /// A length field declares more elements than the body can hold.
    BadLength {
        /// Frame kind being decoded.
        kind: u8,
    },
    /// An `Error` frame's message was not UTF-8.
    BadUtf8,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { kind } => {
                write!(f, "truncated body for frame kind {kind:#04x}")
            }
            ProtoError::Trailing { kind, extra } => {
                write!(f, "{extra} trailing bytes after frame kind {kind:#04x}")
            }
            ProtoError::UnknownKind { found } => write!(f, "unknown frame kind {found:#04x}"),
            ProtoError::BadLength { kind } => {
                write!(f, "length field exceeds body for frame kind {kind:#04x}")
            }
            ProtoError::BadUtf8 => write!(f, "error frame message is not utf-8"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// The five tunable query knobs, shipped as raw `f64` bit patterns so a
/// shard rebuilds `HkprParams` *bitwise* identical to the coordinator's
/// caller — the precondition for the determinism guarantee.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryKnobs {
    /// Heat constant `t`.
    pub t: f64,
    /// Residue tolerance `eps_r`.
    pub eps_r: f64,
    /// Significance threshold `delta`.
    pub delta: f64,
    /// Failure probability `p_f`.
    pub p_f: f64,
    /// Hop-cap constant `c`.
    pub hop_c: f64,
}

/// `Begin` payload: start one TEA+ query on the seed's owner shard.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Begin {
    /// Query seed node.
    pub seed: u32,
    /// Per-query RNG seed (drives push tie-breaking and the master-seed
    /// draw, exactly as in the single-process path).
    pub rng_seed: u64,
    /// Parameter knobs.
    pub knobs: QueryKnobs,
}

/// The replicated walk plan inputs: everything a shard needs to build an
/// [`hkpr_core::ExchangeSession`] identical to every other shard's. The
/// codec checks framing only; the session checks entries against the
/// graph, as it does every [`ShardCursor`] a `Step` carries.
#[derive(Clone, Debug, PartialEq)]
pub struct WalkSpec {
    /// Planned walk count.
    pub nr: u64,
    /// Master seed of the chunk RNG streams.
    pub master_seed: u64,
    /// Walk-start entries `(hop, node)`, parallel to `weights`.
    pub entries: Vec<(u32, u32)>,
    /// Residue weights the start sampler is built over.
    pub weights: Vec<f64>,
}

/// `Exec` payload: broadcast the walk phase to every shard.
#[derive(Clone, Debug, PartialEq)]
pub struct Exec {
    /// Knobs (every shard rebuilds the Poisson length tables from them).
    pub knobs: QueryKnobs,
    /// The plan inputs.
    pub spec: WalkSpec,
}

/// `Counts` payload: one shard's walk-phase outputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardCounts {
    /// Walk steps taken on this shard.
    pub steps: u64,
    /// Walks whose endpoint this shard deposited.
    pub completed: u64,
    /// Sparse endpoint counts `(node, hits)`.
    pub counts: Vec<(u32, u64)>,
}

/// `Finish` payload: the merged walk outputs, handed to the owner shard
/// for finalize + sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finish {
    /// Total walk steps across shards.
    pub steps: u64,
    /// Concatenated sparse endpoint counts (duplicates allowed — the
    /// finalize side *adds* entries, so merge order is irrelevant).
    pub counts: Vec<(u32, u64)>,
}

/// A `ClusterResult` flattened onto the wire, carrying every field that
/// [`hk_cluster::ClusterResult::bitwise_eq`] compares — so wire results
/// can be checked for bitwise conformance against a locally computed
/// oracle without reconstructing the estimate.
#[derive(Clone, Debug, PartialEq)]
pub struct WireResult {
    /// Minimum-conductance sweep prefix, ascending node ids.
    pub cluster: Vec<u32>,
    /// Conductance of that prefix.
    pub conductance: f64,
    /// Estimate support `(node, value)` in support-iteration order.
    pub support: Vec<(u32, f64)>,
    /// Estimate offset coefficient.
    pub offset: f64,
    /// `|S*|`, the sweep's input size.
    pub support_size: u64,
    /// [`hkpr_core::QueryStats::push_operations`].
    pub push_operations: u64,
    /// [`hkpr_core::QueryStats::random_walks`].
    pub random_walks: u64,
    /// [`hkpr_core::QueryStats::walk_steps`].
    pub walk_steps: u64,
    /// [`hkpr_core::QueryStats::alpha`].
    pub alpha: f64,
    /// [`hkpr_core::QueryStats::early_exit`].
    pub early_exit: bool,
}

impl WireResult {
    /// Flatten a locally computed result for the wire.
    pub fn from_result(r: &hk_cluster::ClusterResult) -> WireResult {
        WireResult {
            cluster: r.cluster.clone(),
            conductance: r.conductance,
            support: r.estimate.support().collect(),
            offset: r.estimate.offset_coeff(),
            support_size: r.support_size as u64,
            push_operations: r.stats.push_operations,
            random_walks: r.stats.random_walks,
            walk_steps: r.stats.walk_steps,
            alpha: r.stats.alpha,
            early_exit: r.stats.early_exit,
        }
    }

    /// Whether this wire result is *bitwise* identical to a locally
    /// computed one — the same comparison as
    /// [`hk_cluster::ClusterResult::bitwise_eq`], across the wire.
    pub fn bitwise_matches(&self, r: &hk_cluster::ClusterResult) -> bool {
        self.cluster == r.cluster
            && self.conductance.to_bits() == r.conductance.to_bits()
            && self.support_size == r.support_size as u64
            && self.push_operations == r.stats.push_operations
            && self.random_walks == r.stats.random_walks
            && self.walk_steps == r.stats.walk_steps
            && self.alpha.to_bits() == r.stats.alpha.to_bits()
            && self.early_exit == r.stats.early_exit
            && self.offset.to_bits() == r.estimate.offset_coeff().to_bits()
            && self.support.len() == r.estimate.nnz()
            && self
                .support
                .iter()
                .zip(r.estimate.support())
                .all(|(&(u, x), (v, y))| u == v && x.to_bits() == y.to_bits())
    }
}

/// One protocol message. The doc comment of each variant gives its frame
/// kind; bodies are little-endian with `f64`s as IEEE-754 bit patterns.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// `0x01` coordinator → shard: identify yourself. Empty body.
    Hello,
    /// `0x81` reply: `shard_id u32 | shards u32 | n u32 | fingerprint
    /// u64 | starts (shards+1)×u32` — the shard's identity, the graph
    /// fingerprint and the node partition it is serving.
    HelloAck {
        /// This shard's index.
        shard_id: u32,
        /// Total shard count.
        shards: u32,
        /// Node count of the snapshot.
        n: u32,
        /// Graph fingerprint (backend-independent FNV-1a).
        fingerprint: u64,
        /// Partition boundaries, `shards + 1` entries from 0 to `n`.
        starts: Vec<u32>,
    },
    /// `0x02` coordinator → owner shard: `seed u32 | rng_seed u64 |
    /// knobs 5×f64`. Runs push + residue reduction.
    Begin(Begin),
    /// `0x82` reply when the push phase already finished the query.
    BeginDone(WireResult),
    /// `0x83` reply when a walk phase is required: the [`WalkSpec`] as
    /// `nr u64 | master_seed u64 | len u32 | len×(hop u32, node u32) |
    /// len×f64` — the coordinator broadcasts it back out in [`Msg::Exec`].
    BeginWalk(WalkSpec),
    /// `0x03` coordinator → every shard: `knobs 5×f64 | WalkSpec`.
    /// Builds the replicated plan and seats this shard's initial cursors.
    Exec(Exec),
    /// `0x84` reply: `chunks u32 | resident u32` — total plan chunks and
    /// how many initial cursors this shard seated.
    ExecAck {
        /// Total chunks in the plan.
        chunks: u32,
        /// Chunks whose initial cursor this shard owns.
        resident: u32,
    },
    /// `0x04` coordinator → shard, one exchange round: `count u32 |
    /// count×cursor` — cursors parked toward this shard last round.
    Step {
        /// Incoming migrated cursors.
        cursors: Vec<ShardCursor>,
    },
    /// `0x85` reply: `completed u64 | count u32 | count×(dest u32 |
    /// cursor)` — cumulative walks deposited here, plus every cursor
    /// that parked this round with its destination shard.
    StepDone {
        /// Cumulative walks deposited on this shard.
        completed: u64,
        /// Parked cursors: `(destination shard, cursor)`.
        parked: Vec<(u32, ShardCursor)>,
    },
    /// `0x05` coordinator → every shard: walk phase is globally quiet;
    /// send your outputs. Empty body.
    Collect,
    /// `0x86` reply: `steps u64 | completed u64 | len u32 |
    /// len×(node u32, count u64)`.
    Counts(ShardCounts),
    /// `0x06` coordinator → owner shard: `steps u64 | len u32 |
    /// len×(node u32, count u64)` — merged counts for finalize + sweep.
    Finish(Finish),
    /// `0x87` reply: the finished query's [`WireResult`].
    Done(WireResult),
    /// `0x07` coordinator → shard: exit cleanly. Empty body.
    Shutdown,
    /// `0x7F` either direction: a typed failure, body is a UTF-8 message.
    /// The query (not the connection) is dead.
    Error(String),
}

// ---------------------------------------------------------------- encode

struct W {
    buf: Vec<u8>,
}

impl W {
    fn new() -> W {
        W { buf: Vec::new() }
    }
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn knobs(&mut self, k: &QueryKnobs) {
        self.f64(k.t);
        self.f64(k.eps_r);
        self.f64(k.delta);
        self.f64(k.p_f);
        self.f64(k.hop_c);
    }
    fn cursor(&mut self, c: &ShardCursor) {
        self.u32(c.chunk);
        self.u32(c.item);
        self.u64(c.done);
        self.u32(c.node);
        self.u32(c.rem);
        for w in c.rng {
            self.u64(w);
        }
    }
    fn spec(&mut self, s: &WalkSpec) {
        self.u64(s.nr);
        self.u64(s.master_seed);
        self.u32(s.entries.len() as u32);
        for &(hop, node) in &s.entries {
            self.u32(hop);
            self.u32(node);
        }
        for &w in &s.weights {
            self.f64(w);
        }
    }
    fn result(&mut self, r: &WireResult) {
        self.u32(r.cluster.len() as u32);
        for &v in &r.cluster {
            self.u32(v);
        }
        self.f64(r.conductance);
        self.u32(r.support.len() as u32);
        for &(v, x) in &r.support {
            self.u32(v);
            self.f64(x);
        }
        self.f64(r.offset);
        self.u64(r.support_size);
        self.u64(r.push_operations);
        self.u64(r.random_walks);
        self.u64(r.walk_steps);
        self.f64(r.alpha);
        self.u8(r.early_exit as u8);
    }
    fn pairs(&mut self, pairs: &[(u32, u64)]) {
        self.u32(pairs.len() as u32);
        for &(node, count) in pairs {
            self.u32(node);
            self.u64(count);
        }
    }
}

impl Msg {
    /// The frame kind byte of this message.
    pub fn kind(&self) -> u8 {
        match self {
            Msg::Hello => 0x01,
            Msg::Begin(_) => 0x02,
            Msg::Exec(_) => 0x03,
            Msg::Step { .. } => 0x04,
            Msg::Collect => 0x05,
            Msg::Finish(_) => 0x06,
            Msg::Shutdown => 0x07,
            Msg::HelloAck { .. } => 0x81,
            Msg::BeginDone(_) => 0x82,
            Msg::BeginWalk(_) => 0x83,
            Msg::ExecAck { .. } => 0x84,
            Msg::StepDone { .. } => 0x85,
            Msg::Counts(_) => 0x86,
            Msg::Done(_) => 0x87,
            Msg::Error(_) => 0x7F,
        }
    }

    /// Encode into one complete frame (header + body + CRC).
    pub fn to_frame_bytes(&self) -> Vec<u8> {
        let mut w = W::new();
        match self {
            Msg::Hello | Msg::Collect | Msg::Shutdown => {}
            Msg::HelloAck {
                shard_id,
                shards,
                n,
                fingerprint,
                starts,
            } => {
                w.u32(*shard_id);
                w.u32(*shards);
                w.u32(*n);
                w.u64(*fingerprint);
                for &s in starts {
                    w.u32(s);
                }
            }
            Msg::Begin(b) => {
                w.u32(b.seed);
                w.u64(b.rng_seed);
                w.knobs(&b.knobs);
            }
            Msg::BeginDone(r) | Msg::Done(r) => w.result(r),
            Msg::BeginWalk(s) => w.spec(s),
            Msg::Exec(e) => {
                w.knobs(&e.knobs);
                w.spec(&e.spec);
            }
            Msg::ExecAck { chunks, resident } => {
                w.u32(*chunks);
                w.u32(*resident);
            }
            Msg::Step { cursors } => {
                w.u32(cursors.len() as u32);
                for c in cursors {
                    w.cursor(c);
                }
            }
            Msg::StepDone { completed, parked } => {
                w.u64(*completed);
                w.u32(parked.len() as u32);
                for (dest, c) in parked {
                    w.u32(*dest);
                    w.cursor(c);
                }
            }
            Msg::Counts(c) => {
                w.u64(c.steps);
                w.u64(c.completed);
                w.pairs(&c.counts);
            }
            Msg::Finish(fin) => {
                w.u64(fin.steps);
                w.pairs(&fin.counts);
            }
            Msg::Error(msg) => w.buf.extend_from_slice(msg.as_bytes()),
        }
        frame_bytes(self.kind(), &w.buf)
    }
}

// ---------------------------------------------------------------- decode

struct R<'a> {
    buf: &'a [u8],
    pos: usize,
    kind: u8,
}

impl<'a> R<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() - self.pos < n {
            return Err(ProtoError::Truncated { kind: self.kind });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }
    /// A count of `elt`-byte elements about to be read. Checked against
    /// the bytes actually remaining *before* any allocation, so a hostile
    /// length cannot drive an over-reservation.
    fn len(&mut self, elt: usize) -> Result<usize, ProtoError> {
        let n = self.u32()? as usize;
        if n.checked_mul(elt)
            .is_none_or(|b| b > self.buf.len() - self.pos)
        {
            return Err(ProtoError::BadLength { kind: self.kind });
        }
        Ok(n)
    }
    fn knobs(&mut self) -> Result<QueryKnobs, ProtoError> {
        Ok(QueryKnobs {
            t: self.f64()?,
            eps_r: self.f64()?,
            delta: self.f64()?,
            p_f: self.f64()?,
            hop_c: self.f64()?,
        })
    }
    fn cursor(&mut self) -> Result<ShardCursor, ProtoError> {
        Ok(ShardCursor {
            chunk: self.u32()?,
            item: self.u32()?,
            done: self.u64()?,
            node: self.u32()?,
            rem: self.u32()?,
            rng: [self.u64()?, self.u64()?, self.u64()?, self.u64()?],
        })
    }
    fn spec(&mut self) -> Result<WalkSpec, ProtoError> {
        let nr = self.u64()?;
        let master_seed = self.u64()?;
        // Entries (8B each) are followed by the same number of weights
        // (8B each), so the occupancy check is 16B per declared element.
        let len = self.len(16)?;
        let mut entries = Vec::with_capacity(len);
        for _ in 0..len {
            entries.push((self.u32()?, self.u32()?));
        }
        let mut weights = Vec::with_capacity(len);
        for _ in 0..len {
            weights.push(self.f64()?);
        }
        Ok(WalkSpec {
            nr,
            master_seed,
            entries,
            weights,
        })
    }
    fn result(&mut self) -> Result<WireResult, ProtoError> {
        let clen = self.len(4)?;
        let mut cluster = Vec::with_capacity(clen);
        for _ in 0..clen {
            cluster.push(self.u32()?);
        }
        let conductance = self.f64()?;
        let slen = self.len(12)?;
        let mut support = Vec::with_capacity(slen);
        for _ in 0..slen {
            support.push((self.u32()?, self.f64()?));
        }
        Ok(WireResult {
            cluster,
            conductance,
            support,
            offset: self.f64()?,
            support_size: self.u64()?,
            push_operations: self.u64()?,
            random_walks: self.u64()?,
            walk_steps: self.u64()?,
            alpha: self.f64()?,
            early_exit: self.u8()? != 0,
        })
    }
    fn pairs(&mut self) -> Result<Vec<(u32, u64)>, ProtoError> {
        let len = self.len(12)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push((self.u32()?, self.u64()?));
        }
        Ok(out)
    }
}

impl Msg {
    /// Decode one frame into a message. Every malformed body is a typed
    /// [`ProtoError`]; no input panics.
    pub fn decode(frame: &Frame) -> Result<Msg, ProtoError> {
        let mut r = R {
            buf: &frame.body,
            pos: 0,
            kind: frame.kind,
        };
        let msg = match frame.kind {
            0x01 => Msg::Hello,
            0x05 => Msg::Collect,
            0x07 => Msg::Shutdown,
            0x81 => {
                let shard_id = r.u32()?;
                let shards = r.u32()?;
                let n = r.u32()?;
                let fingerprint = r.u64()?;
                let want = (shards as usize).saturating_add(1);
                if want.checked_mul(4).is_none_or(|b| b > r.buf.len() - r.pos) {
                    return Err(ProtoError::BadLength { kind: r.kind });
                }
                let mut starts = Vec::with_capacity(want);
                for _ in 0..want {
                    starts.push(r.u32()?);
                }
                Msg::HelloAck {
                    shard_id,
                    shards,
                    n,
                    fingerprint,
                    starts,
                }
            }
            0x02 => Msg::Begin(Begin {
                seed: r.u32()?,
                rng_seed: r.u64()?,
                knobs: r.knobs()?,
            }),
            0x82 => Msg::BeginDone(r.result()?),
            0x83 => Msg::BeginWalk(r.spec()?),
            0x03 => Msg::Exec(Exec {
                knobs: r.knobs()?,
                spec: r.spec()?,
            }),
            0x84 => Msg::ExecAck {
                chunks: r.u32()?,
                resident: r.u32()?,
            },
            0x04 => {
                let len = r.len(CURSOR_LEN)?;
                let mut cursors = Vec::with_capacity(len);
                for _ in 0..len {
                    cursors.push(r.cursor()?);
                }
                Msg::Step { cursors }
            }
            0x85 => {
                let completed = r.u64()?;
                let len = r.len(4 + CURSOR_LEN)?;
                let mut parked = Vec::with_capacity(len);
                for _ in 0..len {
                    parked.push((r.u32()?, r.cursor()?));
                }
                Msg::StepDone { completed, parked }
            }
            0x86 => Msg::Counts(ShardCounts {
                steps: r.u64()?,
                completed: r.u64()?,
                counts: r.pairs()?,
            }),
            0x06 => Msg::Finish(Finish {
                steps: r.u64()?,
                counts: r.pairs()?,
            }),
            0x87 => Msg::Done(r.result()?),
            0x7F => {
                let msg = std::str::from_utf8(&r.buf[r.pos..])
                    .map_err(|_| ProtoError::BadUtf8)?
                    .to_string();
                r.pos = r.buf.len();
                Msg::Error(msg)
            }
            found => return Err(ProtoError::UnknownKind { found }),
        };
        if r.pos != r.buf.len() {
            return Err(ProtoError::Trailing {
                kind: frame.kind,
                extra: r.buf.len() - r.pos,
            });
        }
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hk_gateway::frame::{FrameLimits, FrameParser};

    fn roundtrip(msg: &Msg) {
        let wire = msg.to_frame_bytes();
        let mut p = FrameParser::new(FrameLimits::default());
        p.feed(&wire);
        let frame = p.try_next().unwrap().unwrap();
        assert_eq!(frame.kind, msg.kind());
        assert_eq!(
            &Msg::decode(&frame).unwrap(),
            msg,
            "kind {:#04x}",
            msg.kind()
        );
        assert_eq!(p.buffered(), 0);
    }

    fn cursor(i: u64) -> ShardCursor {
        ShardCursor {
            chunk: i as u32,
            item: 10 + i as u32,
            done: 1000 + i,
            node: 7 * i as u32,
            rem: 3,
            rng: [i, i ^ 0xFF, i.wrapping_mul(31), !i],
        }
    }

    fn result() -> WireResult {
        WireResult {
            cluster: vec![3, 5, 9],
            conductance: 0.125,
            support: vec![(3, 0.5), (5, -0.0), (9, 1e-300)],
            offset: 0.0625,
            support_size: 3,
            push_operations: 42,
            random_walks: 1000,
            walk_steps: 4879,
            alpha: 0.37,
            early_exit: false,
        }
    }

    #[test]
    fn every_message_roundtrips() {
        let knobs = QueryKnobs {
            t: 5.0,
            eps_r: 0.5,
            delta: 1e-4,
            p_f: 1e-3,
            hop_c: 2.5,
        };
        let spec = WalkSpec {
            nr: 100,
            master_seed: 0xDEAD_BEEF,
            entries: vec![(0, 4), (1, 9), (3, 0)],
            weights: vec![0.5, 0.25, 0.125],
        };
        let msgs = [
            Msg::Hello,
            Msg::HelloAck {
                shard_id: 1,
                shards: 3,
                n: 100,
                fingerprint: 0xABCD,
                starts: vec![0, 34, 67, 100],
            },
            Msg::Begin(Begin {
                seed: 17,
                rng_seed: 99,
                knobs,
            }),
            Msg::BeginDone(result()),
            Msg::BeginWalk(spec.clone()),
            Msg::Exec(Exec { knobs, spec }),
            Msg::ExecAck {
                chunks: 8,
                resident: 3,
            },
            Msg::Step {
                cursors: vec![cursor(0), cursor(1)],
            },
            Msg::Step { cursors: vec![] },
            Msg::StepDone {
                completed: 512,
                parked: vec![(2, cursor(5))],
            },
            Msg::Collect,
            Msg::Counts(ShardCounts {
                steps: 10_000,
                completed: 640,
                counts: vec![(0, 3), (99, 1)],
            }),
            Msg::Finish(Finish {
                steps: 10_000,
                counts: vec![(0, 3), (0, 2), (99, 1)],
            }),
            Msg::Done(result()),
            Msg::Shutdown,
            Msg::Error("graph mismatch".into()),
        ];
        for msg in &msgs {
            roundtrip(msg);
        }
    }

    #[test]
    fn f64_fields_cross_bitwise() {
        let mut r = result();
        r.conductance = f64::from_bits(0x7FF0_0000_0000_0001); // a NaN payload
        r.support[1].1 = -0.0;
        let wire = Msg::Done(r.clone()).to_frame_bytes();
        let mut p = FrameParser::new(FrameLimits::default());
        p.feed(&wire);
        let back = Msg::decode(&p.try_next().unwrap().unwrap()).unwrap();
        match back {
            Msg::Done(got) => {
                assert_eq!(got.conductance.to_bits(), r.conductance.to_bits());
                assert_eq!(got.support[1].1.to_bits(), (-0.0f64).to_bits());
            }
            other => panic!("wrong message: {other:?}"),
        }
    }

    #[test]
    fn truncated_bodies_are_typed_errors() {
        let msgs = [
            Msg::Begin(Begin {
                seed: 1,
                rng_seed: 2,
                knobs: QueryKnobs {
                    t: 5.0,
                    eps_r: 0.5,
                    delta: 1e-4,
                    p_f: 1e-3,
                    hop_c: 2.5,
                },
            }),
            Msg::Step {
                cursors: vec![cursor(0)],
            },
            Msg::Done(result()),
        ];
        for msg in &msgs {
            let wire = msg.to_frame_bytes();
            let body = &wire[hk_gateway::frame::HEADER_LEN..wire.len() - 4];
            for cut in 0..body.len() {
                let frame = Frame {
                    kind: msg.kind(),
                    body: body[..cut].to_vec(),
                };
                match Msg::decode(&frame) {
                    Err(_) => {}
                    Ok(m) => panic!("decoded {m:?} from a {cut}-byte prefix"),
                }
            }
        }
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // A Step frame declaring u32::MAX cursors with a 4-byte body.
        let frame = Frame {
            kind: 0x04,
            body: u32::MAX.to_le_bytes().to_vec(),
        };
        assert_eq!(
            Msg::decode(&frame),
            Err(ProtoError::BadLength { kind: 0x04 })
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let wire = Msg::ExecAck {
            chunks: 1,
            resident: 1,
        }
        .to_frame_bytes();
        let mut body = wire[hk_gateway::frame::HEADER_LEN..wire.len() - 4].to_vec();
        body.push(0);
        let frame = Frame { kind: 0x84, body };
        assert!(matches!(
            Msg::decode(&frame),
            Err(ProtoError::Trailing {
                kind: 0x84,
                extra: 1
            })
        ));
    }

    #[test]
    fn unknown_kind_is_typed() {
        let frame = Frame {
            kind: 0x42,
            body: vec![],
        };
        assert_eq!(
            Msg::decode(&frame),
            Err(ProtoError::UnknownKind { found: 0x42 })
        );
    }
}
