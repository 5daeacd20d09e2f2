//! End-to-end conformance of the sharded tier: a coordinator driving
//! `N ∈ {1, 2, 4}` real `hk-shardd` processes over loopback TCP must
//! produce answers **bitwise identical** to the walk plan's parkable
//! executor run in one process under a one-owner partition
//! (`LocalClusterer::run_tea_plus_one_owner`) on the same committed
//! snapshot — same clusters, same conductance bits, same estimate bits,
//! same stats.
//!
//! This is also the CI shard smoke: it spawns the actual daemon binary
//! (via `CARGO_BIN_EXE_hk-shardd`), parses its readiness line, and
//! exercises the full Begin/Exec/Step/Collect/Finish protocol over the
//! wire, frontier-exchange rounds included.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

use hk_cluster::{ClusterResult, LocalClusterer, QueryScratch};
use hk_gateway::frame::{read_frame, FrameLimits, FrameParser};
use hk_graph::Graph;
use hk_shard::proto::{Begin, Exec, Finish, ShardCounts, WalkSpec};
use hk_shard::{Msg, QueryKnobs, ShardCoordinator};
use hkpr_core::{HkprParams, ShardCursor};

const RNG_SEED: u64 = 11;

fn snapshot_path() -> String {
    format!("{}/../../data/3d-grid.x4.hkg", env!("CARGO_MANIFEST_DIR"))
}

/// A spawned shard daemon, killed on drop so a failing assert cannot
/// leak processes.
struct Shard {
    child: Child,
    port: u16,
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

fn spawn_fleet(shards: usize) -> Vec<Shard> {
    (0..shards)
        .map(|i| {
            let mut child = Command::new(env!("CARGO_BIN_EXE_hk-shardd"))
                .args([
                    "--snapshot",
                    &snapshot_path(),
                    "--shard-id",
                    &i.to_string(),
                    "--shards",
                    &shards.to_string(),
                    "--port",
                    "0",
                ])
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn hk-shardd");
            let stdout = child.stdout.take().expect("stdout piped");
            let mut line = String::new();
            BufReader::new(stdout)
                .read_line(&mut line)
                .expect("readiness line");
            let port = line
                .trim()
                .strip_prefix("LISTENING ")
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| panic!("unexpected readiness line: {line:?}"));
            Shard { child, port }
        })
        .collect()
}

/// Valid query seeds spread across the node range, so different shard
/// counts route them to different owners.
fn pick_seeds(graph: &Graph, params: &HkprParams, want: usize) -> Vec<u32> {
    let n = graph.num_nodes() as u32;
    let mut seeds = Vec::new();
    for k in 0..want as u32 {
        let mut cand = k * n / want as u32;
        while params.validate_seed(cand).is_err() {
            cand = (cand + 1) % n;
        }
        seeds.push(cand);
    }
    seeds
}

/// t = 10 pushes past the budget on the committed 3d-grid snapshot, so
/// every seed gets a real walk phase (~20k walks each) — small enough for
/// debug CI, large enough to force frontier exchanges.
fn walk_forcing_params(graph: &Graph) -> HkprParams {
    HkprParams::builder(graph)
        .t(10.0)
        .eps_r(0.5)
        .delta(1e-3)
        .p_f(1e-3)
        .c(2.5)
        .build()
        .unwrap()
}

#[test]
fn shard_fleets_match_single_process_bitwise() {
    let graph = hk_graph::io::load_binary(snapshot_path()).expect("load committed snapshot");
    let params = walk_forcing_params(&graph);
    let seeds = pick_seeds(&graph, &params, 5);
    // Query `i` of a batch runs on `RNG_SEED + i`, as in `run_batch`.
    let clusterer = LocalClusterer::new(&graph);
    let mut scratch = QueryScratch::new();
    let oracle: Vec<ClusterResult> = (0u64..)
        .zip(&seeds)
        .map(|(i, &seed)| {
            clusterer
                .run_tea_plus_one_owner(seed, &params, RNG_SEED + i, &mut scratch)
                .expect("oracle query failed")
        })
        .collect();
    // At least one seed must exercise the walk phase, or the exchange
    // protocol goes untested.
    assert!(
        oracle.iter().any(|r| r.stats.random_walks > 0),
        "all oracle queries early-exited; pick different params"
    );

    for shards in [1usize, 2, 4] {
        let fleet = spawn_fleet(shards);
        let addrs: Vec<(&str, u16)> = fleet.iter().map(|s| ("127.0.0.1", s.port)).collect();
        let mut coord = ShardCoordinator::connect(&addrs).expect("handshake");
        assert_eq!(coord.shards(), shards);
        assert_eq!(coord.fingerprint(), graph.fingerprint());
        let got = coord
            .run_batch(&seeds, QueryKnobs::from_params(&params), RNG_SEED)
            .expect("sharded batch");
        for (i, (wire, want)) in got.iter().zip(&oracle).enumerate() {
            assert!(
                wire.bitwise_matches(want),
                "seed {} diverged from the single-process oracle at N={shards}:\n\
                 wire cluster {} nodes, conductance {:?}; \
                 oracle cluster {} nodes, conductance {:?}",
                seeds[i],
                wire.cluster.len(),
                wire.conductance,
                want.cluster.len(),
                want.conductance,
            );
        }
        coord.shutdown();
        for mut shard in fleet {
            let status = shard.child.wait().expect("wait shard");
            assert!(status.success(), "shard exited with {status}");
        }
    }
}

#[test]
fn remote_errors_are_typed_not_fatal() {
    let fleet = spawn_fleet(2);
    let addrs: Vec<(&str, u16)> = fleet.iter().map(|s| ("127.0.0.1", s.port)).collect();
    let mut coord = ShardCoordinator::connect(&addrs).expect("handshake");
    let graph = hk_graph::io::load_binary(snapshot_path()).unwrap();
    let params = HkprParams::builder(&graph).build().unwrap();
    let knobs = QueryKnobs::from_params(&params);
    // An out-of-range seed is a remote query error...
    let err = coord
        .run_query(u32::MAX - 1, knobs, RNG_SEED)
        .expect_err("invalid seed must fail");
    assert!(
        matches!(err, hk_shard::ShardError::Remote(_)),
        "expected a typed remote error, got {err:?}"
    );
    // ...and the connection survives it: a valid query still works.
    let seed = {
        let mut s = 0u32;
        while params.validate_seed(s).is_err() {
            s += 1;
        }
        s
    };
    coord
        .run_query(seed, knobs, RNG_SEED)
        .expect("fleet must stay usable after a query error");
    coord.shutdown();
}

/// One coordinator-side connection driven frame by frame, for sending a
/// shard what no `ShardCoordinator` would.
struct RawConn {
    stream: TcpStream,
    parser: FrameParser,
}

impl RawConn {
    /// Send `msg` and return the reply; panics if the shard is gone.
    fn call(&mut self, msg: &Msg) -> Msg {
        self.stream.write_all(&msg.to_frame_bytes()).expect("send");
        let frame = read_frame(&mut self.stream, &mut self.parser)
            .expect("shard dropped the connection")
            .expect("shard closed the connection");
        Msg::decode(&frame).expect("well-formed reply")
    }

    /// Whether the shard answers `msg` with a typed `Error` frame.
    fn refuses(&mut self, msg: &Msg) -> bool {
        matches!(self.call(msg), Msg::Error(_))
    }
}

/// Frames the codec accepts and the graph does not — a walk plan that
/// starts outside it, a cursor that points outside the plan, endpoint
/// counts for a node it does not have — are answered with `Error` frames
/// by a shard that keeps serving. Before the checks each was an index
/// panic on the daemon's only thread (the case that reads past the
/// neighbor array instead, `rem > 0` on a node without a row, needs a
/// degree-0 node: `hkpr_core::shard_walk`'s tests have one).
#[test]
fn malformed_walk_frames_get_typed_errors_and_the_shard_lives() {
    let graph = hk_graph::io::load_binary(snapshot_path()).expect("load committed snapshot");
    let n = graph.num_nodes() as u32;
    let params = walk_forcing_params(&graph);
    let knobs = QueryKnobs::from_params(&params);
    let seed = pick_seeds(&graph, &params, 1)[0];
    let begin = Msg::Begin(Begin {
        seed,
        rng_seed: RNG_SEED,
        knobs,
    });

    let fleet = spawn_fleet(1);
    let mut conn = RawConn {
        stream: TcpStream::connect(("127.0.0.1", fleet[0].port)).expect("connect"),
        parser: FrameParser::new(FrameLimits::default()),
    };
    let Msg::BeginWalk(spec) = conn.call(&begin) else {
        panic!("the query must need a walk phase");
    };
    let exec = |spec: &WalkSpec| {
        let spec = spec.clone();
        Msg::Exec(Exec { knobs, spec })
    };
    let mut outside = spec.clone();
    outside.entries[0].1 = n;
    assert!(conn.refuses(&exec(&outside)), "entry node out of range");

    // A well-formed cursor — chunk 0's first item, no walk in flight, any
    // RNG state — then each of its fields broken in turn, each in a walk
    // phase of its own (a refused `Step` ends the phase).
    let Msg::ExecAck { chunks, .. } = conn.call(&exec(&spec)) else {
        panic!("expected ExecAck");
    };
    let good = ShardCursor {
        chunk: 0,
        item: 0,
        done: 0,
        node: seed,
        rem: 0,
        rng: [1, 2, 3, 4],
    };
    let mut refuses_step = |f: &dyn Fn(&mut ShardCursor)| {
        let mut cursor = good;
        f(&mut cursor);
        let cursors = vec![cursor];
        let refused = conn.refuses(&Msg::Step { cursors });
        refused && matches!(conn.call(&exec(&spec)), Msg::ExecAck { .. })
    };
    assert!(refuses_step(&|c| c.chunk = chunks), "chunk past the plan");
    assert!(refuses_step(&|c| c.item = u32::MAX), "item past its chunk");
    assert!(refuses_step(&|c| c.done = u64::MAX), "done past the item");
    assert!(refuses_step(&|c| (c.rem, c.node) = (1, n)), "node");
    assert!(refuses_step(&|c| c.rem = u32::MAX), "rem, of any length");
    assert!(matches!(conn.call(&Msg::Collect), Msg::Counts(_)));

    // A `Finish` naming a node outside the graph costs its query...
    assert!(matches!(conn.call(&begin), Msg::BeginWalk(_)));
    let (steps, counts) = (0, vec![(n, 1)]);
    assert!(conn.refuses(&Msg::Finish(Finish { steps, counts })));
    // ...and the same connection still answers the next one in full.
    assert!(matches!(conn.call(&begin), Msg::BeginWalk(_)));
    assert!(matches!(conn.call(&exec(&spec)), Msg::ExecAck { .. }));
    let cursors = Vec::new();
    let Msg::StepDone { parked, .. } = conn.call(&Msg::Step { cursors }) else {
        panic!("expected StepDone");
    };
    assert!(parked.is_empty(), "a fleet of one owns every row");
    let Msg::Counts(ShardCounts { steps, counts, .. }) = conn.call(&Msg::Collect) else {
        panic!("expected Counts");
    };
    let Msg::Done(got) = conn.call(&Msg::Finish(Finish { steps, counts })) else {
        panic!("expected Done");
    };
    let want = LocalClusterer::new(&graph)
        .run_tea_plus_one_owner(seed, &params, RNG_SEED, &mut QueryScratch::new())
        .unwrap();
    assert!(got.bitwise_matches(&want), "the answer after the errors");
}
