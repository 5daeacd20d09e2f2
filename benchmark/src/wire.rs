//! `wire-*`: `POST /query/{graph}` over loopback against a gateway hosted
//! in the benchmark process, closed loop, two keep-alive connections.
//!
//! Queueing between the two callers is part of the answer, so latency
//! percentiles and throughput are taken per pass and the pass at the
//! quiet quartile is reported (see [`crate::stats`]). The client reads the status
//! line and `Content-Length` bytes; nothing is parsed inside the timed
//! path.
//!
//! In a traced run every other slot of a pass is traced (the caller also
//! reads the server's own `timing` object off the end of the body) and
//! the assignment flips from pass to pass; the run also measures the
//! loopback floor against a do-nothing responder, and then
//! replays every slot by hand through the gateway's public functions —
//! `RequestParser` → `json::parse` → `request_from_json` →
//! `MultiEngine::query` → `response_json` → `response_bytes` — with a
//! span around each.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hk_cluster::{LocalClusterer, Method};
use hk_gateway::http::{response_bytes, HttpLimits, RequestParser};
use hk_gateway::json;
use hk_gateway::server::{Gateway, GatewayConfig};
use hk_gateway::wire::{canonical_result_text, request_from_json, response_json};
use hk_serve::{run_batch, CacheOutcome, CacheStats, EngineConfig, MultiEngine, MultiEngineConfig};

use crate::input::{request_list, top_keys, Request};
use crate::report::Outcome;
use crate::stats::{mean, median, percentile, quiet_quartile, sorted};
use crate::trace::Tracer;
use crate::workload::{
    check_answer, child_cycles, report_cycles, report_input, report_passes, Cycle, PassClock,
    PassMeter, Run, Workload,
};

/// Registry name of the benchmark's graph.
const GRAPH: &str = "bench";
/// Keep-alive connections, one caller each (= `nproc` of the guest the
/// bounds were set on).
const CALLERS: usize = 2;
/// Wire bodies (those of the most popular keys) compared with an
/// in-process `run_batch` answer after the measured passes.
const SAMPLED_BODIES: usize = 32;

/// What a set-up cycle leaves ready to serve.
pub struct Server {
    engine: Arc<MultiEngine>,
    gateway: Gateway,
}

fn start_server(w: &Workload, snapshot: &std::path::Path) -> Result<Server, String> {
    let engine = Arc::new(MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: 1,
            walk_threads: 1,
            cache_bytes: w.cache_bytes,
            cache_shards: w.cache_shards,
            ..EngineConfig::default()
        },
        max_resident_bytes: 0,
        hub_top_k: 0,
        hub_bytes: 0,
    }));
    engine.registry().register_path_mmap(GRAPH, snapshot);
    let gateway = Gateway::start(
        Arc::clone(&engine),
        "127.0.0.1:0",
        GatewayConfig {
            conn_workers: CALLERS,
            ..GatewayConfig::default()
        },
    )
    .map_err(|e| format!("gateway bind: {e}"))?;
    Ok(Server { engine, gateway })
}

/// One keep-alive connection. The last response stays in `buf`.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 20),
        })
    }

    /// Send one request, read one `Content-Length`-framed response;
    /// returns the status and where the body lies in `self.buf`.
    fn exchange(&mut self, request: &[u8]) -> Result<(u16, Range<usize>), String> {
        let io = |e: std::io::Error| format!("socket: {e}");
        self.stream.write_all(request).map_err(io)?;
        self.buf.clear();
        let mut chunk = [0u8; 4096];
        let (status, head_end, len) = loop {
            let n = self.stream.read(&mut chunk).map_err(io)?;
            if n == 0 {
                return Err("server closed the connection".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
            if let Some(framed) = frame(&self.buf)? {
                break framed;
            }
        };
        let have = self.buf.len();
        if have < head_end + len {
            self.buf.resize(head_end + len, 0);
            self.stream.read_exact(&mut self.buf[have..]).map_err(io)?;
        }
        Ok((status, head_end..head_end + len))
    }
}

/// `(status, head bytes, body bytes)` once a whole response head is in.
fn frame(buf: &[u8]) -> Result<Option<(u16, usize, usize)>, String> {
    let Some(head_end) = find(buf, b"\r\n\r\n").map(|i| i + 4) else {
        return Ok(None);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| "response head not UTF-8")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response lacks a status code")?;
    let len = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .ok_or("response lacks Content-Length")?;
    Ok(Some((status, head_end, len)))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn rfind(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).rposition(|w| w == needle)
}

/// The number that follows `key` (a `"name":` literal) in `hay`.
fn number_after(hay: &[u8], key: &[u8]) -> Option<f64> {
    let at = find(hay, key)? + key.len();
    let end = hay[at..].iter().position(|b| matches!(b, b',' | b'}'))? + at;
    std::str::from_utf8(&hay[at..end]).ok()?.parse().ok()
}

/// A success body is `{"graph", "seed", "outcome", "degraded", "result",
/// "timing"}` in that order. `outcome` and `timing` describe the request;
/// everything from `"degraded"` up to `"timing"` describes the answer and
/// must not depend on how the request was served.
fn answer_part(body: &[u8]) -> Option<&[u8]> {
    Some(&body[find(body, b"\"degraded\":")?..rfind(body, b",\"timing\":{")?])
}

/// The `"result"` object's text — what `canonical_result_text` renders.
fn result_part(body: &[u8]) -> Option<&[u8]> {
    let key = b"\"result\":";
    Some(&body[find(body, key)? + key.len()..rfind(body, b",\"timing\":{")?])
}

/// The server's own account of a request, read off the end of its body.
#[derive(Clone, Copy, Default)]
struct ServerTiming {
    queue_ns: f64,
    estimate_ns: f64,
    sweep_ns: f64,
    total_ns: f64,
    miss: bool,
}

fn server_timing(body: &[u8]) -> Option<ServerTiming> {
    let tail = &body[rfind(body, b"\"timing\":{")?..];
    Some(ServerTiming {
        queue_ns: number_after(tail, b"\"queue_ns\":")?,
        estimate_ns: number_after(tail, b"\"estimate_ns\":")?,
        sweep_ns: number_after(tail, b"\"sweep_ns\":")?,
        total_ns: number_after(tail, b"\"total_ns\":")?,
        miss: find(&body[..body.len().min(256)], b"\"outcome\":\"miss\"").is_some(),
    })
}

/// One slot of one pass as the client saw it.
#[derive(Clone, Copy, Default)]
struct Reply {
    /// When the request was sent, from the pass's start.
    sent_ns: u64,
    ns: u64,
    status: u16,
    /// Head + body bytes received.
    bytes: usize,
    traced: bool,
    /// Traced slots only.
    timing: ServerTiming,
}

/// What a pass does with each body after the latency is stamped.
#[derive(Clone, Copy, Default)]
struct Inspect {
    /// Keep the conductance of every answer (the first pass).
    answers: bool,
    /// `Some(pass)` in a traced run: slots with `(slot + pass)` odd are
    /// traced, i.e. the server's `timing` object is read.
    traced_parity: Option<usize>,
}

struct PassOutput {
    began: Instant,
    replies: Vec<Reply>,
    wall_s: f64,
    /// Conductance per slot, where `Inspect::answers` asked for it.
    conductance: Vec<f64>,
}

/// Closed loop: each caller takes the next unclaimed slot as soon as its
/// previous reply is complete, until the list is exhausted.
fn socket_pass(
    clients: &mut [Client],
    requests: &[Vec<u8>],
    inspect: Inspect,
) -> Result<PassOutput, String> {
    let next = AtomicUsize::new(0);
    type Row = (usize, Reply, f64);
    let t0 = Instant::now();
    let rows: Vec<Result<Vec<Row>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<Row>, String> {
                    let mut rows = Vec::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(slot) else {
                            return Ok(rows);
                        };
                        let sent = Instant::now();
                        let (status, body) = client.exchange(request)?;
                        let ns = sent.elapsed().as_nanos() as u64;
                        let mut reply = Reply {
                            sent_ns: (sent - t0).as_nanos() as u64,
                            ns,
                            status,
                            bytes: body.end,
                            traced: inspect.traced_parity.is_some_and(|p| (slot + p) % 2 == 1),
                            timing: ServerTiming::default(),
                        };
                        let body = &client.buf[body];
                        let mut phi = 0.0;
                        if status == 200 && reply.traced {
                            reply.timing =
                                server_timing(body).ok_or("body lacks a timing object")?;
                        }
                        if status == 200 && inspect.answers {
                            phi = number_after(body, b"\"conductance\":")
                                .ok_or("body lacks a conductance")?;
                        }
                        rows.push((slot, reply, phi));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = PassOutput {
        began: t0,
        replies: vec![Reply::default(); requests.len()],
        wall_s,
        conductance: vec![0.0; requests.len()],
    };
    for caller in rows {
        for (slot, reply, phi) in caller? {
            out.replies[slot] = reply;
            out.conductance[slot] = phi;
        }
    }
    Ok(out)
}

/// The bytes of one slot's request: the knobs travel with every request,
/// as a real client's would.
fn request_bytes(w: &Workload, req: &Request, path: &str) -> Vec<u8> {
    let k = w.knobs();
    let body = format!(
        "{{\"seed\":{},\"rng_seed\":{},\"knobs\":{{\"t\":{},\"eps_r\":{},\"delta\":{},\"p_f\":{}}}}}",
        req.node,
        req.rng_seed,
        k.t,
        k.eps_r,
        k.delta.expect("workloads set delta"),
        k.p_f
    );
    format!(
        "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A loopback responder that does nothing: it reads one request and
/// writes back as many bytes as the request's path asks for
/// (`POST /floor/<len>`), so an exchange with it costs what the sockets
/// and this client cost and no more. Serves exactly `CALLERS`
/// connections, each until its peer hangs up.
fn start_floor() -> Result<(SocketAddr, std::thread::JoinHandle<()>), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("floor bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || {
        let conns: Vec<_> = (0..CALLERS)
            .filter_map(|_| listener.accept().ok())
            .map(|(stream, _)| std::thread::spawn(move || floor_connection(stream)))
            .collect();
        for conn in conns {
            let _ = conn.join();
        }
    });
    Ok((addr, handle))
}

fn floor_connection(mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let payload = vec![b' '; 4 << 20];
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // One request: head, then its Content-Length body bytes.
        let (head_end, body_len) = loop {
            if let Some(head_end) = find(&buf, b"\r\n\r\n").map(|i| i + 4) {
                let head = String::from_utf8_lossy(&buf[..head_end]);
                let body_len = head
                    .lines()
                    .find_map(|l| l.strip_prefix("Content-Length: ")?.trim().parse().ok())
                    .unwrap_or(0usize);
                if buf.len() >= head_end + body_len {
                    break (head_end, body_len);
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return,
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
            }
        };
        let want = String::from_utf8_lossy(&buf[..head_end])
            .split(' ')
            .nth(1)
            .and_then(|p| p.strip_prefix("/floor/")?.parse::<usize>().ok())
            .unwrap_or(0)
            .min(payload.len());
        buf.drain(..head_end + body_len);
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {want}\r\nConnection: keep-alive\r\n\r\n"
        );
        if stream.write_all(head.as_bytes()).is_err() || stream.write_all(&payload[..want]).is_err()
        {
            return;
        }
    }
}

/// Cache counters of the passes, one delta per pass.
#[derive(Default)]
struct CacheDeltas {
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: Vec<u64>,
}

impl CacheDeltas {
    fn add(&mut self, before: &CacheStats, after: &CacheStats) {
        self.hits += after.hits - before.hits;
        self.misses += after.misses - before.misses;
        self.coalesced += after.coalesced - before.coalesced;
        self.evictions.push(after.evictions - before.evictions);
    }
}

/// Snapshot on disk → `MultiEngine::new` + `register_path_mmap` + gateway
/// bind → snapshot load → first `200`.
pub fn setup_cycle(run: &Run) -> Result<(Cycle, Server), String> {
    let w = &run.workload;
    let first = request_list(run.seed, run.snapshot.nodes, w.draw, w.slots)[0];
    let request = request_bytes(w, &first, &format!("/query/{GRAPH}"));
    let t0 = Instant::now();
    let server = start_server(w, &run.snapshot.path)?;
    let up = Instant::now();
    server
        .engine
        .registry()
        .get(GRAPH)
        .map_err(|e| format!("load: {e}"))?;
    let loaded = Instant::now();
    let mut client = Client::connect(server.gateway.local_addr())?;
    let (status, _) = client.exchange(&request)?;
    let answered = Instant::now();
    if status != 200 {
        return Err(format!("set-up: first request answered {status}"));
    }
    let cycle = Cycle {
        total_s: (answered - t0).as_secs_f64(),
        start_ms: (up - t0).as_secs_f64() * 1e3,
        load_ms: (loaded - up).as_secs_f64() * 1e3,
        first_ms: (answered - loaded).as_secs_f64() * 1e3,
    };
    Ok((cycle, server))
}

pub fn run(run: &Run, tracer: &mut Tracer) -> Result<Outcome, String> {
    let w = &run.workload;
    let requests = request_list(run.seed, run.snapshot.nodes, w.draw, w.slots);
    let query_path = format!("/query/{GRAPH}");
    let wire_requests: Vec<Vec<u8>> = requests
        .iter()
        .map(|r| request_bytes(w, r, &query_path))
        .collect();
    let mut outcome = Outcome::default();

    // ---- set-up: four cycles in children, the fifth here ------------------
    let mut cycles = child_cycles(run)?;
    let (cycle, server) = setup_cycle(run)?;
    cycles.push(cycle);
    let engine = Arc::clone(&server.engine);
    let cache_stats = || engine.stats().cache;
    let mut clients = (0..CALLERS)
        .map(|_| Client::connect(server.gateway.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;

    // ---- warm-up: one whole pass fills the cache to its steady state ------
    let warm = socket_pass(&mut clients, &wire_requests, Inspect::default())?;

    // ---- the floor ---------------------------------------------------------
    let mut floor_us = 0.0;
    if run.trace {
        let (addr, responder) = start_floor()?;
        let floor_requests: Vec<Vec<u8>> = requests
            .iter()
            .zip(&warm.replies)
            .map(|(r, reply)| request_bytes(w, r, &format!("/floor/{}", reply.bytes)))
            .collect();
        let mut floor_clients = (0..CALLERS)
            .map(|_| Client::connect(addr))
            .collect::<Result<Vec<_>, _>>()?;
        socket_pass(&mut floor_clients, &floor_requests, Inspect::default())?;
        let pass = socket_pass(&mut floor_clients, &floor_requests, Inspect::default())?;
        floor_us = mean(
            &pass
                .replies
                .iter()
                .map(|r| r.ns as f64 / 1e3)
                .collect::<Vec<_>>(),
        );
        drop(floor_clients);
        responder.join().map_err(|_| "floor responder panicked")?;
    }

    // ---- measured passes ---------------------------------------------------
    let mut meter = PassMeter::new(run.trace);
    let mut clock = PassClock::start(run);
    let mut passes: Vec<PassOutput> = Vec::new();
    let mut cache = CacheDeltas::default();
    while clock.next_pass() {
        let pass = passes.len();
        let inspect = Inspect {
            answers: pass == 0,
            traced_parity: run.trace.then_some(pass),
        };
        let before = cache_stats();
        meter.begin();
        let out = socket_pass(&mut clients, &wire_requests, inspect)?;
        meter.end();
        cache.add(&before, &cache_stats());
        outcome.attempted += out.replies.len() as u64;
        outcome.failed += out.replies.iter().filter(|r| r.status != 200).count() as u64;
        record_socket_spans(tracer, pass, &out);
        passes.push(out);
    }

    // ---- end-to-end figures -------------------------------------------------
    let ok_ms = |p: &PassOutput| -> Vec<f64> {
        p.replies
            .iter()
            .filter(|r| r.status == 200)
            .map(|r| r.ns as f64 / 1e6)
            .collect()
    };
    if passes.iter().any(|p| ok_ms(p).is_empty()) {
        return Err("a pass without a single 200".into());
    }
    let p50_of = |p: &PassOutput| percentile(&sorted(&ok_ms(p)), 0.5);
    let p90_of = |p: &PassOutput| percentile(&sorted(&ok_ms(p)), 0.9);
    let qps_of = |p: &PassOutput| ok_ms(p).len() as f64 / p.wall_s;
    let answered = passes[0].replies.iter().filter(|r| r.status == 200).count();
    let m = &mut outcome.metrics;
    // Before the checks below: they build a second workspace.
    m.set("peak_rss_mb", crate::host::peak_rss_mb());
    m.set("query_p50_ms", quiet_quartile(&passes, p50_of, true));
    m.set("query_p90_ms", quiet_quartile(&passes, p90_of, true));
    m.set("throughput_qps", quiet_quartile(&passes, qps_of, false));
    m.set(
        "answer_conductance_mean",
        passes[0].conductance.iter().sum::<f64>() / answered.max(1) as f64,
    );

    // ---- serve and gateway counters -----------------------------------------
    let stats = engine.stats();
    let served = (cache.hits + cache.misses + cache.coalesced).max(1) as f64;
    m.set("serve.hit_share", cache.hits as f64 / served);
    m.set("serve.miss_share", cache.misses as f64 / served);
    m.set("serve.coalesced_share", cache.coalesced as f64 / served);
    m.set(
        "serve.cache_evictions",
        median(
            &cache
                .evictions
                .iter()
                .map(|&e| e as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "serve.cache_resident_mb",
        stats.cache.resident_bytes as f64 / (1 << 20) as f64,
    );
    m.set(
        "serve.cache_entry_kb",
        stats.cache.resident_bytes as f64 / 1024.0 / stats.cache.resident_entries.max(1) as f64,
    );
    m.set("serve.queue_hwm", stats.queue_hwm as f64);
    m.set(
        "serve.shed",
        (stats.shed_queued + stats.shed_overload) as f64,
    );
    m.set("serve.degraded", stats.degraded as f64);
    m.set(
        "serve.errors",
        (stats.errors + stats.panics + stats.cancelled_running) as f64,
    );
    m.set(
        "gateway.status_200",
        (outcome.attempted - outcome.failed) as f64,
    );
    m.set("gateway.status_other", outcome.failed as f64);
    let answered_replies = |traced: bool| -> Vec<&Reply> {
        passes
            .iter()
            .flat_map(|p| p.replies.iter())
            .filter(|r| r.status == 200 && r.traced == traced)
            .collect()
    };
    let (plain, timed) = (answered_replies(false), answered_replies(true));
    let avg = |of: &[&Reply], f: &dyn Fn(&Reply) -> f64| {
        mean(&of.iter().map(|r| f(r)).collect::<Vec<_>>())
    };
    let all: Vec<&Reply> = plain.iter().chain(&timed).copied().collect();
    m.set(
        "gateway.response_kb",
        avg(&all, &|r| r.bytes as f64 / 1024.0),
    );
    m.set("client.floor_us", floor_us);
    for (name, value) in [
        ("serve.shed", m.get("serve.shed")),
        ("serve.degraded", m.get("serve.degraded")),
        ("serve.errors", m.get("serve.errors")),
        ("gateway.status_other", m.get("gateway.status_other")),
    ] {
        outcome.check(value == 0.0, || format!("{name} is {value}, expected 0"));
    }

    // ---- correctness: wire bodies against one in-process run_batch ----------
    let (graph, _) = engine
        .registry()
        .get(GRAPH)
        .map_err(|e| format!("graph: {e}"))?;
    outcome.check(run.snapshot.fingerprint == graph.fingerprint(), || {
        "loaded snapshot's fingerprint differs from the generator's".into()
    });
    let sampled = top_keys(run.seed, run.snapshot.nodes, w.draw, SAMPLED_BODIES);
    let nodes: Vec<u32> = sampled.iter().map(|r| r.node).collect();
    let references = run_batch(
        &LocalClusterer::new(&graph),
        Method::TeaPlus,
        &nodes,
        &w.params(&graph)?,
        0,
        1,
    );
    for (key, (req, reference)) in sampled.iter().zip(references).enumerate() {
        let reference = reference.map_err(|e| format!("reference for key {key}: {e}"))?;
        let (status, body) = clients[0].exchange(&request_bytes(w, req, &query_path))?;
        let body = &clients[0].buf[body];
        outcome.check(
            status == 200
                && result_part(body) == Some(canonical_result_text(&reference).as_bytes()),
            || format!("key {key}: wire body differs from the in-process run_batch answer"),
        );
        check_answer(&mut outcome, &graph, key, &reference);
    }
    outcome.check(!sampled.is_empty(), || "no wire body was compared".into());

    // ---- per-layer figures from the traced slots and the replay --------------
    if run.trace {
        let latency_us = avg(&timed, &|r| r.ns as f64 / 1e3);
        let engine_us = avg(&timed, &|r| r.timing.total_ns / 1e3);
        let misses: Vec<f64> = timed
            .iter()
            .filter(|r| r.timing.miss)
            .map(|r| {
                let t = &r.timing;
                (t.total_ns - t.queue_ns - t.estimate_ns - t.sweep_ns) / 1e3
            })
            .collect();
        let replay = replay_by_hand(
            tracer,
            passes.len(),
            &engine,
            &mut clients[0],
            &requests,
            &wire_requests,
            &mut outcome,
        )?;
        let spans_us = replay.parse_us + replay.decode_us + replay.encode_us;
        let m = &mut outcome.metrics;
        // Mean latency of the two kinds of slot, interleaved in time.
        m.set(
            "bench.trace_overhead_share",
            1.0 - avg(&plain, &|r| r.ns as f64 / 1e3) / latency_us,
        );
        m.set(
            "serve.queue_wait_us",
            avg(&timed, &|r| r.timing.queue_ns / 1e3),
        );
        m.set("serve.miss_overhead_us", mean(&misses));
        m.set("serve.hit_us", replay.hit_us);
        m.set("gateway.http_parse_us", replay.parse_us);
        m.set("gateway.decode_us", replay.decode_us);
        m.set("gateway.encode_us", replay.encode_us);
        m.set(
            "gateway.socket_us",
            latency_us - spans_us - engine_us - floor_us,
        );
        m.set(
            "bench.residual_share",
            (latency_us - spans_us - engine_us) / latency_us,
        );
        // Phase time of the replayed list against the wire latency of the
        // same list.
        let wire_ns = latency_us * 1e3 * requests.len() as f64;
        m.set(
            "core.push_ms",
            replay.push_ns / replay.computed.max(1.0) / 1e6,
        );
        m.set(
            "core.walk_ms",
            replay.walk_ns / replay.computed.max(1.0) / 1e6,
        );
        m.set(
            "cluster.sweep_ms",
            replay.sweep_ns / replay.computed.max(1.0) / 1e6,
        );
        m.set("core.push_share", replay.push_ns / wire_ns);
        m.set("core.walk_share", replay.walk_ns / wire_ns);
        m.set("cluster.sweep_share", replay.sweep_ns / wire_ns);
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        m.set("core.push_ops", per(replay.push_ops, replay.computed));
        m.set("core.walks", per(replay.walks, replay.computed));
        m.set("core.walk_steps", per(replay.walk_steps, replay.computed));
        m.set(
            "core.early_exit_share",
            per(replay.early_exits, replay.computed),
        );
        m.set("core.push_ns_per_op", per(replay.push_ns, replay.push_ops));
        m.set(
            "core.walk_ns_per_step",
            per(replay.walk_ns, replay.walk_steps),
        );
        m.set(
            "cluster.sweep_ns_per_support_node",
            per(replay.sweep_ns, replay.computed_support),
        );
        m.set(
            "cluster.support_size",
            replay.support / requests.len() as f64,
        );
        m.set(
            "cluster.cluster_size",
            replay.cluster / requests.len() as f64,
        );
    }

    let pass_p50: Vec<f64> = passes.iter().map(p50_of).collect();
    report_passes(&mut outcome, &pass_p50, requests.len());
    report_input(&mut outcome, &run.snapshot);
    report_cycles(&mut outcome, &cycles);
    meter.report(&mut outcome, requests.len());
    if !run.smoke {
        w.shape_guards(&mut outcome, &cache.evictions);
    }
    // `clients` drop before `server` (declared later), which lets the
    // gateway's connection workers see EOF; dropping the server then joins
    // the gateway's threads and the engine's.
    Ok(outcome)
}

/// `wire.request` per slot as the client timed it, with the server's own
/// `serve.query` (and its queue / estimate / sweep parts) inside it. The
/// children are known by duration only and are laid end to end from
/// their parent's start.
fn record_socket_spans(tracer: &mut Tracer, pass: usize, out: &PassOutput) {
    let began = tracer.ns(out.began);
    for (slot, r) in out
        .replies
        .iter()
        .enumerate()
        .filter(|(_, r)| r.status == 200 && r.traced)
    {
        let t = &r.timing;
        let start = began + r.sent_ns;
        let request = tracer.span_ns("wire.request", start, start + r.ns, None, pass, slot);
        let query = tracer.span_ns(
            "serve.query",
            start,
            start + t.total_ns as u64,
            Some(request),
            pass,
            slot,
        );
        let mut at = start;
        for (name, ns) in [
            ("serve.queue", t.queue_ns),
            ("core.estimate", t.estimate_ns),
            ("cluster.sweep", t.sweep_ns),
        ] {
            tracer.span_ns(name, at, at + ns as u64, Some(query), pass, slot);
            at += ns as u64;
        }
    }
}

/// Sums over the replayed slots (`*_us` fields are already means).
#[derive(Default)]
struct Replay {
    parse_us: f64,
    decode_us: f64,
    encode_us: f64,
    hit_us: f64,
    /// Slots the engine computed (misses).
    computed: f64,
    computed_support: f64,
    push_ns: f64,
    walk_ns: f64,
    sweep_ns: f64,
    push_ops: f64,
    walks: f64,
    walk_steps: f64,
    early_exits: f64,
    support: f64,
    cluster: f64,
}

/// Length and 64-bit FNV-1a-style digest (one round per 8 bytes) of a
/// body's answer part: what the replay keeps of each hand-rendered body
/// to compare the socket's with.
fn answer_digest(body: &[u8]) -> Option<(usize, u64)> {
    let part = answer_part(body)?;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut words = part.chunks_exact(8);
    for w in &mut words {
        let x = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        h = (h ^ x).wrapping_mul(0x0000_0100_0000_01b3);
        h ^= h >> 29;
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    Some((part.len(), h))
}

/// Drive every slot through the gateway's public functions by hand, one
/// span per call; afterwards send every request over a socket once more
/// and require the answer part of its body to equal the hand-rendered
/// one (same length, same digest).
fn replay_by_hand(
    tracer: &mut Tracer,
    pass: usize,
    engine: &MultiEngine,
    client: &mut Client,
    requests: &[Request],
    wire_requests: &[Vec<u8>],
    outcome: &mut Outcome,
) -> Result<Replay, String> {
    let mut r = Replay::default();
    let (mut parse, mut decode, mut encode, mut hit) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut parser = RequestParser::new(HttpLimits::default());
    let mut digests = Vec::with_capacity(requests.len());
    for (slot, (req, bytes)) in requests.iter().zip(wire_requests).enumerate() {
        let t0 = Instant::now();
        parser.feed(bytes);
        let http = parser
            .try_next()
            .map_err(|e| format!("replay parse: {e}"))?
            .ok_or("replay: request did not parse whole")?;
        let t1 = Instant::now();
        let body = json::parse(&http.body).map_err(|e| format!("replay decode: {e}"))?;
        let query = request_from_json(&body).map_err(|e| format!("replay decode: {e}"))?;
        let t2 = Instant::now();
        let resp = engine
            .query(GRAPH, query)
            .map_err(|e| format!("replay query: {e}"))?;
        let t3 = Instant::now();
        let text = response_json(GRAPH, query.seed, &resp).render();
        let framed = response_bytes(200, "OK", "application/json", text.as_bytes(), true);
        let t4 = Instant::now();
        std::hint::black_box(&framed);

        let root = tracer.span("replay", t0, t4, None, pass, slot);
        tracer.span("gateway.http_parse", t0, t1, Some(root), pass, slot);
        tracer.span("gateway.decode", t1, t2, Some(root), pass, slot);
        let served = tracer.span("serve.query", t2, t3, Some(root), pass, slot);
        tracer.span("gateway.encode", t3, t4, Some(root), pass, slot);
        let us = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e6;
        parse.push(us(t0, t1));
        decode.push(us(t1, t2));
        encode.push(us(t3, t4));
        let timing = resp.timing;
        if resp.outcome == CacheOutcome::Hit {
            hit.push(us(t2, t3));
        } else {
            let start = tracer.ns(t2);
            let queue_end = start + timing.queue_ns;
            tracer.span_ns("serve.queue", start, queue_end, Some(served), pass, slot);
            let estimate = tracer.span_ns(
                "core.estimate",
                queue_end,
                queue_end + timing.estimate_ns,
                Some(served),
                pass,
                slot,
            );
            tracer.span_ns(
                "core.push",
                queue_end,
                queue_end + timing.push_ns,
                Some(estimate),
                pass,
                slot,
            );
            tracer.span_ns(
                "core.walk",
                queue_end + timing.push_ns,
                queue_end + timing.push_ns + timing.walk_ns,
                Some(estimate),
                pass,
                slot,
            );
            tracer.span_ns(
                "cluster.sweep",
                queue_end + timing.estimate_ns,
                queue_end + timing.estimate_ns + timing.sweep_ns,
                Some(served),
                pass,
                slot,
            );
            let stats = &resp.result.stats;
            r.computed += 1.0;
            r.computed_support += resp.result.support_size as f64;
            r.push_ns += timing.push_ns as f64;
            r.walk_ns += timing.walk_ns as f64;
            r.sweep_ns += timing.sweep_ns as f64;
            r.push_ops += stats.push_operations as f64;
            r.walks += stats.random_walks as f64;
            r.walk_steps += stats.walk_steps as f64;
            r.early_exits += stats.early_exit as u8 as f64;
        }
        r.support += resp.result.support_size as f64;
        r.cluster += resp.result.cluster.len() as f64;

        digests.push(answer_digest(text.as_bytes()));
        outcome.check(
            req.node == query.seed && req.rng_seed == query.rng_seed,
            || format!("slot {slot}: decoded request differs from the one generated"),
        );
    }
    for (slot, (bytes, digest)) in wire_requests.iter().zip(&digests).enumerate() {
        let (status, range) = client.exchange(bytes)?;
        outcome.check(
            status == 200 && digest.is_some() && answer_digest(&client.buf[range]) == *digest,
            || format!("slot {slot}: hand-rendered body differs from the socket body"),
        );
    }
    r.parse_us = mean(&parse);
    r.decode_us = mean(&decode);
    r.encode_us = mean(&encode);
    r.hit_us = mean(&hit);
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BODY: &[u8] = br#"{"graph":"bench","seed":7,"outcome":"miss","degraded":null,"result":{"cluster":[1,7],"conductance":0.25,"support_size":2,"stats":{"push_operations":9,"random_walks":0,"walk_steps":0,"alpha":0,"early_exit":true},"estimate":{"offset_coeff":0,"entries":[[1,0.5],[7,0.5]]}},"timing":{"queue_ns":1200,"estimate_ns":5000,"sweep_ns":700,"total_ns":7400}}"#;

    #[test]
    fn body_scanners_find_their_parts() {
        assert_eq!(number_after(BODY, b"\"conductance\":"), Some(0.25));
        let t = server_timing(BODY).unwrap();
        assert_eq!(
            (t.queue_ns, t.estimate_ns, t.sweep_ns, t.total_ns, t.miss),
            (1200.0, 5000.0, 700.0, 7400.0, true)
        );
        let result = std::str::from_utf8(result_part(BODY).unwrap()).unwrap();
        assert!(result.starts_with("{\"cluster\":[1,7]") && result.ends_with("]]}}"));
        let answer = std::str::from_utf8(answer_part(BODY).unwrap()).unwrap();
        assert!(answer.starts_with("\"degraded\":null,\"result\":{") && answer.ends_with("]]}}"));
        // The same answer served as a hit later differs only outside it.
        let hit = String::from_utf8_lossy(BODY)
            .replace("\"miss\"", "\"hit\"")
            .replace("7400", "9");
        assert_eq!(answer_part(hit.as_bytes()), answer_part(BODY));
        assert!(!server_timing(hit.as_bytes()).unwrap().miss);
    }

    #[test]
    fn response_framing_reads_status_and_length() {
        let bytes = response_bytes(200, "OK", "application/json", b"{}", true);
        let (status, head_end, len) = frame(&bytes).unwrap().unwrap();
        assert_eq!((status, len), (200, 2));
        assert_eq!(&bytes[head_end..], b"{}");
        assert_eq!(frame(&bytes[..10]).unwrap(), None);
    }

    #[test]
    fn request_bytes_decode_to_the_generated_request() {
        let w = crate::workload::find("wire-zipf").unwrap();
        let req = Request {
            node: 123_456,
            rng_seed: 77,
        };
        let bytes = request_bytes(&w, &req, "/query/bench");
        let mut parser = RequestParser::new(HttpLimits::default());
        parser.feed(&bytes);
        let http = parser.try_next().unwrap().unwrap();
        assert_eq!(
            (http.method.as_str(), http.path.as_str()),
            ("POST", "/query/bench")
        );
        let query = request_from_json(&json::parse(&http.body).unwrap()).unwrap();
        assert_eq!((query.seed, query.rng_seed), (123_456, 77));
        assert_eq!(query.knobs, w.knobs());
    }

    #[test]
    fn floor_responder_answers_the_size_asked_for() {
        let (addr, responder) = start_floor().unwrap();
        let mut clients: Vec<Client> = (0..CALLERS)
            .map(|_| Client::connect(addr).unwrap())
            .collect();
        for want in [0usize, 17, 300_000] {
            let request =
                format!("POST /floor/{want} HTTP/1.1\r\nHost: b\r\nContent-Length: 2\r\n\r\n{{}}");
            for client in &mut clients {
                let (status, body) = client.exchange(request.as_bytes()).unwrap();
                assert_eq!((status, body.len()), (200, want));
            }
        }
        drop(clients);
        responder.join().unwrap();
    }
}
