//! The shard process: one node-range slice of a snapshot behind a
//! loopback TCP socket.
//!
//! A shard answers the coordinator's frames sequentially — the protocol
//! is strictly request/reply per shard, with the walk phase a nested
//! `Exec → (Step … Step) → Collect` exchange. Every shard loads the full
//! `.hkg` snapshot (read-only; under `mmap` the N same-host processes
//! share one page-cache copy and untouched adjacency pages of non-owned
//! rows stay non-resident) but only *walks through* adjacency rows of
//! nodes inside its [`NodePartition`] range: a walk that reaches a
//! foreign row parks and is shipped onward by the coordinator.
//!
//! Query errors (bad seed, bad knobs, a walk plan, cursor or endpoint
//! count that does not fit the graph) travel as `Error` frames and leave
//! the connection alive; transport errors drop the connection and the
//! shard returns to `accept`, so a coordinator can reconnect.

use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};

use hk_cluster::{ClusterResult, LocalClusterer, QueryScratch};
use hk_gateway::frame::{read_frame, FrameLimits, FrameParser};
use hk_graph::{Graph, NodePartition};
use hkpr_core::{
    DriveOutcome, ExchangeSession, HkprError, HkprParams, ShardCursor, TeaPlusPrepared,
    TeaPlusWalkJob,
};

use crate::proto::{
    Begin, Exec, Finish, Msg, ProtoError, QueryKnobs, ShardCounts, WalkSpec, WireResult,
};

/// Rebuild query parameters from wire knobs, bit-for-bit the same as the
/// coordinator's caller built them (the builder's derived quantities are
/// deterministic functions of the knobs and the graph).
pub fn build_params(graph: &Graph, knobs: &QueryKnobs) -> Result<HkprParams, HkprError> {
    HkprParams::builder(graph)
        .t(knobs.t)
        .eps_r(knobs.eps_r)
        .delta(knobs.delta)
        .p_f(knobs.p_f)
        .c(knobs.hop_c)
        .build()
}

impl QueryKnobs {
    /// Extract the wire knobs from built parameters.
    pub fn from_params(params: &HkprParams) -> QueryKnobs {
        QueryKnobs {
            t: params.t(),
            eps_r: params.eps_r(),
            delta: params.delta(),
            p_f: params.p_f(),
            hop_c: params.c(),
        }
    }
}

/// A prepared query parked between `Begin` and `Finish` on the owner
/// shard (the walk phase runs in between, on every shard).
struct Pending {
    seed: u32,
    params: HkprParams,
    job: TeaPlusWalkJob,
}

/// Why a connection loop ended.
enum ConnExit {
    /// Peer closed or transport failed: go back to `accept`.
    Disconnect,
    /// Explicit `Shutdown` frame: exit the serve loop.
    Shutdown,
}

/// Serve shard `shard_id` of `shards` over `listener`, blocking until a
/// coordinator sends `Shutdown`. Handles one coordinator connection at a
/// time; a dropped connection returns the shard to `accept`.
pub fn serve(
    listener: &TcpListener,
    graph: &Graph,
    shard_id: usize,
    shards: usize,
) -> io::Result<()> {
    assert!(shard_id < shards, "shard_id out of range");
    let partition = NodePartition::volume_balanced(graph, shards);
    loop {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true).ok();
        match serve_conn(stream, graph, &partition, shard_id, shards) {
            Ok(ConnExit::Shutdown) => return Ok(()),
            Ok(ConnExit::Disconnect) => {}
            Err(e) => eprintln!("shard {shard_id}: connection error: {e}"),
        }
    }
}

fn send(stream: &mut TcpStream, msg: &Msg) -> io::Result<()> {
    stream.write_all(&msg.to_frame_bytes())
}

fn send_error(stream: &mut TcpStream, msg: String) -> io::Result<()> {
    send(stream, &Msg::Error(msg))
}

/// Read and decode the next message; `Ok(None)` is clean EOF. A frame or
/// protocol malformation is an `InvalidData` transport error — after one,
/// stream alignment is untrustworthy, so the connection dies.
fn recv(stream: &mut TcpStream, parser: &mut FrameParser) -> io::Result<Option<Msg>> {
    let Some(frame) = read_frame(stream, parser)? else {
        return Ok(None);
    };
    Msg::decode(&frame)
        .map(Some)
        .map_err(|e: ProtoError| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

fn serve_conn(
    mut stream: TcpStream,
    graph: &Graph,
    partition: &NodePartition,
    shard_id: usize,
    shards: usize,
) -> io::Result<ConnExit> {
    let clusterer = LocalClusterer::new(graph);
    let mut parser = FrameParser::new(FrameLimits::default());
    // One scratch for the owner-side push/finalize work.
    let mut scratch = QueryScratch::new();
    let mut pending: Option<Pending> = None;

    loop {
        let Some(msg) = recv(&mut stream, &mut parser)? else {
            return Ok(ConnExit::Disconnect);
        };
        match msg {
            Msg::Hello => {
                let starts = partition.starts().to_vec();
                send(
                    &mut stream,
                    &Msg::HelloAck {
                        shard_id: shard_id as u32,
                        shards: shards as u32,
                        n: graph.num_nodes() as u32,
                        fingerprint: graph.fingerprint(),
                        starts,
                    },
                )?;
            }
            Msg::Begin(begin) => {
                pending = None;
                match handle_begin(graph, &clusterer, partition, shard_id, &begin, &mut scratch) {
                    Ok(BeginOutcome::Done(result)) => send(
                        &mut stream,
                        &Msg::BeginDone(WireResult::from_result(&result)),
                    )?,
                    Ok(BeginOutcome::Walk(p, spec)) => {
                        pending = Some(*p);
                        send(&mut stream, &Msg::BeginWalk(spec))?;
                    }
                    Err(e) => send_error(&mut stream, e)?,
                }
            }
            Msg::Exec(exec) => {
                walk_phase(&mut stream, &mut parser, graph, partition, shard_id, &exec)?;
            }
            Msg::Finish(fin) => {
                let n = graph.num_nodes();
                match pending.take() {
                    Some(_) if fin.counts.iter().any(|&(v, _)| v as usize >= n) => {
                        send_error(&mut stream, "finish counts name a node out of range".into())?
                    }
                    Some(p) => {
                        let result = finish(&clusterer, &p, &fin, &mut scratch);
                        send(&mut stream, &Msg::Done(WireResult::from_result(&result)))?;
                    }
                    None => send_error(&mut stream, "finish without a pending query".into())?,
                }
            }
            Msg::Shutdown => return Ok(ConnExit::Shutdown),
            other => {
                send_error(
                    &mut stream,
                    format!("unexpected frame kind {:#04x} at top level", other.kind()),
                )?;
            }
        }
    }
}

enum BeginOutcome {
    Done(ClusterResult),
    // Boxed: `Pending` holds full `HkprParams` (Poisson tables), far
    // larger than the `Done` variant.
    Walk(Box<Pending>, WalkSpec),
}

fn handle_begin(
    graph: &Graph,
    clusterer: &LocalClusterer<'_>,
    partition: &NodePartition,
    shard_id: usize,
    begin: &Begin,
    scratch: &mut QueryScratch,
) -> Result<BeginOutcome, String> {
    if !partition.owns(shard_id, begin.seed) {
        return Err(format!(
            "seed {} belongs to shard {}, not {shard_id}",
            begin.seed,
            partition.owner(begin.seed)
        ));
    }
    let params = build_params(graph, &begin.knobs).map_err(|e| e.to_string())?;
    params
        .validate_seed(begin.seed)
        .map_err(|e| e.to_string())?;
    let prepared = clusterer
        .prepare_tea_plus(begin.seed, &params, begin.rng_seed, &mut scratch.workspace)
        .map_err(|e| e.to_string())?;
    Ok(match prepared {
        TeaPlusPrepared::Done(out) => {
            BeginOutcome::Done(clusterer.sweep_in(begin.seed, out.estimate, out.stats, scratch))
        }
        TeaPlusPrepared::NeedWalks(job) => {
            let spec = WalkSpec {
                nr: job.nr,
                master_seed: job.master_seed,
                entries: scratch.workspace.walk_entries().to_vec(),
                weights: scratch.workspace.walk_weights().to_vec(),
            };
            BeginOutcome::Walk(
                Box::new(Pending {
                    seed: begin.seed,
                    params,
                    job,
                }),
                spec,
            )
        }
    })
}

fn finish(
    clusterer: &LocalClusterer<'_>,
    p: &Pending,
    fin: &Finish,
    scratch: &mut QueryScratch,
) -> ClusterResult {
    clusterer.finalize_tea_plus(p.seed, &p.params, &p.job, &fin.counts, fin.steps, scratch)
}

/// The nested walk phase: build the replicated plan, seat this shard's
/// initial cursors, then answer `Step` rounds until `Collect`. A plan or
/// a cursor that does not fit the graph ends the phase with an `Error`
/// frame; the connection goes back to the top level.
fn walk_phase(
    stream: &mut TcpStream,
    parser: &mut FrameParser,
    graph: &Graph,
    partition: &NodePartition,
    shard_id: usize,
    exec: &Exec,
) -> io::Result<()> {
    let params = match build_params(graph, &exec.knobs) {
        Ok(p) => p,
        Err(e) => return send_error(stream, format!("exec knobs: {e}")),
    };
    let mut session = match ExchangeSession::new(
        graph,
        params.poisson(),
        &exec.spec.entries,
        &exec.spec.weights,
        exec.spec.nr,
        exec.spec.master_seed,
    ) {
        Ok(s) => s,
        Err(e) => return send_error(stream, format!("exec plan: {e}")),
    };
    let mut queue: Vec<ShardCursor> = (0..session.num_chunks())
        .filter(|&c| partition.owns(shard_id, session.initial_owner_node(c)))
        .map(|c| session.initial_cursor(c))
        .collect();
    send(
        stream,
        &Msg::ExecAck {
            chunks: session.num_chunks() as u32,
            resident: queue.len() as u32,
        },
    )?;
    loop {
        let Some(msg) = recv(stream, parser)? else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof mid walk phase",
            ));
        };
        match msg {
            Msg::Step { cursors } => {
                if let Err(e) = cursors.iter().try_for_each(|c| session.validate_cursor(c)) {
                    return send_error(stream, format!("step: {e}"));
                }
                queue.extend(cursors);
                let mut parked = Vec::new();
                for mut cur in queue.drain(..) {
                    match session.drive(&mut cur, |v| partition.owns(shard_id, v)) {
                        DriveOutcome::Completed => {}
                        DriveOutcome::Parked(node) => {
                            parked.push((partition.owner(node) as u32, cur));
                        }
                    }
                }
                send(
                    stream,
                    &Msg::StepDone {
                        completed: session.completed_walks(),
                        parked,
                    },
                )?;
            }
            Msg::Collect => {
                return send(
                    stream,
                    &Msg::Counts(ShardCounts {
                        steps: session.steps(),
                        completed: session.completed_walks(),
                        counts: session.sparse_counts(),
                    }),
                );
            }
            other => {
                return send_error(
                    stream,
                    format!("unexpected frame kind {:#04x} in walk phase", other.kind()),
                );
            }
        }
    }
}
