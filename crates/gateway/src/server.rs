//! The TCP server: accept loop, bounded connection worker pool, request
//! dispatch.
//!
//! Hand-rolled over [`std::net::TcpListener`] — blocking I/O, one
//! connection per pooled worker. That is the right shape here: the
//! expensive resource is the *compute* pool inside
//! [`MultiEngine`] (already deadline-scheduled and admission-controlled),
//! so the gateway's job is only to keep slow clients from pinning
//! compute workers. It does so with a small connection pool, per-socket
//! read/write timeouts, and a bounded hand-off queue that answers `503`
//! the moment accepting another connection would mean unbounded queueing
//! — the same shed-early-and-typed philosophy as the engine's admission
//! control.
//!
//! Endpoints:
//!
//! | route                  | answer |
//! |------------------------|--------|
//! | `POST /query/{graph}`  | one query; body per [`crate::wire`], deadline via `x-deadline-ms` |
//! | `POST /batch/{graph}`  | submit-all-then-wait-all batch; item `i` uses RNG stream `rng_seed + i` |
//! | `GET /healthz`         | registry residency + scheduler liveness (`200`/`503`) |
//! | `GET /metrics`         | Prometheus text format, every serving counter |

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use hk_serve::{MultiEngine, ServeError, Ticket};

use crate::http::{response_bytes, HttpLimits, Request, RequestParser, ResponseBuf};
use crate::json::{write_str, Json};
use crate::metrics::{render_prometheus, GatewayMetrics};
use crate::wire;

/// Gateway sizing and socket policy.
#[derive(Clone, Copy, Debug)]
pub struct GatewayConfig {
    /// Connection worker threads (each serves one connection at a time).
    /// Clamped to >= 1. Sized for connection concurrency, not compute —
    /// compute parallelism lives in [`hk_serve::EngineConfig::workers`].
    pub conn_workers: usize,
    /// Accepted connections waiting for a worker; beyond this, new
    /// connections get an immediate `503` and are dropped. Clamped >= 1.
    pub max_pending: usize,
    /// Per-socket read timeout — bounds how long an idle or trickling
    /// client can hold a connection worker *between* reads.
    pub read_timeout: Duration,
    /// Per-socket write timeout.
    pub write_timeout: Duration,
    /// Cumulative budget for receiving one complete request. The
    /// per-read `read_timeout` alone is defeated by a slow-loris client
    /// that drips one byte per read (each drip resets the clock); this
    /// budget runs from the first byte of a request until it parses, so
    /// a dripper is answered `408` and dropped no matter how steadily it
    /// feeds.
    pub header_deadline: Duration,
    /// Request parsing bounds.
    pub limits: HttpLimits,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            conn_workers: 4,
            max_pending: 64,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            header_deadline: Duration::from_secs(5),
            limits: HttpLimits::default(),
        }
    }
}

struct Shared {
    engine: Arc<MultiEngine>,
    metrics: Arc<GatewayMetrics>,
    config: GatewayConfig,
    /// Accepted connections awaiting a worker.
    pending: Mutex<VecDeque<TcpStream>>,
    ready: Condvar,
    shutdown: AtomicBool,
}

/// A running HTTP gateway; shuts down (and joins its threads) on drop.
pub struct Gateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Gateway {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `engine`. The engine is shared — in-process callers can keep
    /// querying it directly while the gateway serves remote ones.
    pub fn start(
        engine: Arc<MultiEngine>,
        addr: &str,
        config: GatewayConfig,
    ) -> std::io::Result<Gateway> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine,
            metrics: Arc::new(GatewayMetrics::new()),
            config,
            pending: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..config.conn_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("hk-gateway-conn-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn gateway worker")
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("hk-gateway-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn gateway acceptor")
        };
        Ok(Gateway {
            shared,
            local_addr,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The gateway's own counters (bench reporting reads these).
    pub fn metrics(&self) -> &Arc<GatewayMetrics> {
        &self.shared.metrics
    }

    /// Stop accepting, drain workers, join all threads. Idempotent.
    pub fn shutdown(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor blocks in `accept()`; a no-op connection wakes it
        // so it can observe the flag.
        let _ = TcpStream::connect(self.local_addr);
        self.shared.ready.notify_all();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // The acceptor is gone; wake workers until every one has exited
        // (each re-checks the flag on wake).
        for h in self.workers.drain(..) {
            self.shared.ready.notify_all();
            let _ = h.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        shared.metrics.conn_accepted();
        let mut pending = shared.pending.lock().unwrap();
        if pending.len() >= shared.config.max_pending.max(1) {
            drop(pending);
            shared.metrics.conn_rejected();
            reject_overloaded(stream, &shared.config);
            continue;
        }
        pending.push_back(stream);
        drop(pending);
        shared.ready.notify_one();
    }
}

/// Best-effort `503` to a connection the hand-off queue cannot take.
fn reject_overloaded(mut stream: TcpStream, config: &GatewayConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let body = wire::error_body("overloaded", "gateway connection queue is full");
    let _ = stream.write_all(&response_bytes(
        503,
        "Service Unavailable",
        "application/json",
        body.as_bytes(),
        false,
    ));
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut pending = shared.pending.lock().unwrap();
            loop {
                if let Some(stream) = pending.pop_front() {
                    break stream;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                pending = shared.ready.wait(pending).unwrap();
            }
        };
        serve_connection(stream, shared);
        shared.metrics.conn_closed();
    }
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let mut parser = RequestParser::new(shared.config.limits);
    let mut response = ResponseBuf::default();
    let mut buf = [0u8; 16 << 10];
    // When the first bytes of a request arrived; the cumulative
    // `header_deadline` budget runs from here until the request parses.
    let mut request_started: Option<Instant> = None;
    loop {
        // Drain every request already buffered (pipelining) before
        // touching the socket again.
        match parser.try_next() {
            Ok(Some(req)) => {
                // The deadline budget of `x-deadline-ms` is anchored at
                // the first byte of the request, not at parse time: a
                // body dripped in slowly must spend the budget, not
                // extend it.
                let anchor = request_started.take().unwrap_or_else(Instant::now);
                let keep_alive = req.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
                let sent =
                    handle_request(shared, &req, keep_alive, anchor, &mut response, &mut stream);
                if !sent || !keep_alive {
                    return;
                }
                continue;
            }
            Ok(None) => {}
            Err(e) => {
                // Typed parse failure: answer it and close — after a
                // framing error the stream position is untrustworthy.
                let (status, reason) = e.status();
                let detail = e.to_string();
                refuse(
                    &mut stream,
                    shared,
                    status,
                    reason,
                    "malformed_request",
                    &detail,
                    Duration::ZERO,
                );
                return;
            }
        }
        // A partial request is buffered: the client is on the clock.
        // The budget is cumulative across reads, so a slow-loris client
        // dripping a byte per read-timeout window cannot hold this
        // worker past `header_deadline`; each read's own timeout is
        // capped to the remaining budget.
        let timeout = if parser.buffered() > 0 {
            let started = *request_started.get_or_insert_with(Instant::now);
            let elapsed = started.elapsed();
            let budget = shared.config.header_deadline;
            if elapsed >= budget {
                shared.metrics.header_timeout();
                refuse(
                    &mut stream,
                    shared,
                    408,
                    "Request Timeout",
                    "header_timeout",
                    "request dripped in slower than the per-request header budget",
                    elapsed,
                );
                return;
            }
            shared.config.read_timeout.min(budget - elapsed)
        } else {
            request_started = None;
            shared.config.read_timeout
        };
        let _ = stream.set_read_timeout(Some(timeout));
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => parser.feed(&buf[..n]),
            // Timeout, reset, shutdown poke — nothing useful to say on
            // this socket anymore.
            Err(e) => {
                // A read that timed out *inside* an open request budget
                // still answers a typed 408 before closing: the client
                // stalled, the gateway did not.
                if request_started.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    )
                {
                    shared.metrics.header_timeout();
                    refuse(
                        &mut stream,
                        shared,
                        408,
                        "Request Timeout",
                        "header_timeout",
                        "connection stalled mid-request past the read timeout",
                        Duration::ZERO,
                    );
                }
                return;
            }
        }
    }
}

/// Answer a request that never reached an endpoint (framing error, header
/// budget spent) with an error shell; the caller closes the connection.
fn refuse(
    stream: &mut TcpStream,
    shared: &Shared,
    status: u16,
    reason: &str,
    code: &str,
    detail: &str,
    latency: Duration,
) {
    let body = wire::error_body(code, detail);
    let bytes = response_bytes(status, reason, "application/json", body.as_bytes(), false);
    shared.metrics.count("other", status);
    shared.metrics.observe("error", latency);
    if stream.write_all(&bytes).is_ok() {
        shared.metrics.sent("other", bytes.len());
    }
}

/// Dispatch one parsed request to its endpoint, stream the answer into
/// the connection's buffer and send it. The request is counted and filed
/// under its latency class before the write — a client holding its answer
/// must find it in the next scrape — and the filed latency is lengthened
/// after it, so the time a slow reader costs is in the histogram. Returns
/// whether the response went out whole.
fn handle_request(
    shared: &Shared,
    req: &Request,
    keep_alive: bool,
    anchor: Instant,
    response: &mut ResponseBuf,
    stream: &mut TcpStream,
) -> bool {
    let started = Instant::now();
    let (endpoint, outcome) = route(shared, req, anchor, response.begin());
    let (status, reason, content_type) = match outcome {
        Ok(content_type) => (200, "OK", content_type),
        Err(failure) => {
            let body = wire::error_body(failure.code, &failure.detail);
            response.clear_body().extend_from_slice(body.as_bytes());
            (failure.status, failure.reason, "application/json")
        }
    };
    shared.metrics.count(endpoint.name, status);
    let timed = endpoint.name == "query" || endpoint.name == "batch";
    let class = if status != 200 {
        "error"
    } else {
        endpoint.class
    };
    let computed = started.elapsed();
    if timed {
        shared.metrics.observe(class, computed);
    }
    let sent = response.send(stream, status, reason, content_type, keep_alive);
    if timed {
        shared.metrics.wrote(class, computed, started.elapsed());
    }
    if let Ok(bytes) = sent {
        shared.metrics.sent(endpoint.name, bytes);
    }
    sent.is_ok()
}

/// A non-2xx answer: HTTP line plus the machine-readable error body.
struct Failure {
    status: u16,
    reason: &'static str,
    code: &'static str,
    detail: String,
}

impl Failure {
    fn new(status: u16, reason: &'static str, code: &'static str, detail: String) -> Failure {
        Failure {
            status,
            reason,
            code,
            detail,
        }
    }

    fn bad_request(code: &'static str, detail: String) -> Failure {
        Failure::new(400, "Bad Request", code, detail)
    }

    fn of_serve_error(e: &ServeError) -> Failure {
        let (status, reason, code) = wire::serve_error_parts(e);
        Failure::new(status, reason, code, e.to_string())
    }
}

/// Endpoint identity for metrics: coarse name + latency class of a
/// successful answer (overridden per-response for query/batch).
struct Endpoint {
    name: &'static str,
    class: &'static str,
}

/// The content type of the body a handler appended, or why there is none.
type Routed = Result<&'static str, Failure>;

fn route(
    shared: &Shared,
    req: &Request,
    anchor: Instant,
    body: &mut Vec<u8>,
) -> (Endpoint, Routed) {
    let mut endpoint = Endpoint {
        name: "other",
        class: "miss",
    };
    let outcome = (|| -> Routed {
        if let Some(graph) = req.path.strip_prefix("/query/") {
            endpoint.name = "query";
            require_post(req)?;
            endpoint.class = handle_query(shared, graph, req, anchor, body)?;
            return Ok("application/json");
        }
        if let Some(graph) = req.path.strip_prefix("/batch/") {
            endpoint.name = "batch";
            require_post(req)?;
            endpoint.class = handle_batch(shared, graph, req, anchor, body)?;
            return Ok("application/json");
        }
        match req.path.as_str() {
            "/healthz" => {
                endpoint.name = "healthz";
                require_get(req)?;
                handle_healthz(shared, body)
            }
            "/metrics" => {
                endpoint.name = "metrics";
                require_get(req)?;
                body.extend_from_slice(
                    render_prometheus(&shared.engine, &shared.metrics).as_bytes(),
                );
                Ok("text/plain; version=0.0.4")
            }
            other => Err(Failure::new(
                404,
                "Not Found",
                "unknown_endpoint",
                format!("no endpoint at {other:?}"),
            )),
        }
    })();
    (endpoint, outcome)
}

fn require_post(req: &Request) -> Result<(), Failure> {
    if req.method == "POST" {
        Ok(())
    } else {
        Err(Failure::new(
            405,
            "Method Not Allowed",
            "method_not_allowed",
            format!("{} requires POST", req.path),
        ))
    }
}

fn require_get(req: &Request) -> Result<(), Failure> {
    if req.method == "GET" {
        Ok(())
    } else {
        Err(Failure::new(
            405,
            "Method Not Allowed",
            "method_not_allowed",
            format!("{} requires GET", req.path),
        ))
    }
}

/// Parse the optional `x-deadline-ms` header into an absolute deadline
/// anchored at `anchor` — the instant the request's first bytes arrived.
/// Anchoring at parse time instead would let a client extend its compute
/// budget arbitrarily by dripping the body in slowly (the budget is
/// "from when you started asking", not "from when you finished").
fn deadline_of(req: &Request, anchor: Instant) -> Result<Option<Instant>, Failure> {
    match req.header("x-deadline-ms") {
        None => Ok(None),
        Some(v) => wire::deadline_from_header(v)
            .map(|d| Some(anchor + d))
            .map_err(|e| Failure::bad_request("invalid_deadline", e)),
    }
}

fn parse_body(req: &Request) -> Result<Json, Failure> {
    crate::json::parse(&req.body)
        .map_err(|e| Failure::bad_request("invalid_body", format!("body is not valid JSON: {e}")))
}

/// `POST /query/{graph}` — one blocking query; appends the answer to
/// `out` and returns its latency class.
fn handle_query(
    shared: &Shared,
    graph: &str,
    req: &Request,
    anchor: Instant,
    out: &mut Vec<u8>,
) -> Result<&'static str, Failure> {
    let body = parse_body(req)?;
    let mut query =
        wire::request_from_json(&body).map_err(|e| Failure::bad_request(e.code, e.detail))?;
    query.deadline = deadline_of(req, anchor)?;
    let resp = shared
        .engine
        .query(graph, query)
        .map_err(|e| Failure::of_serve_error(&e))?;
    let class = match &resp.degraded {
        // A push cut short at a certificate checkpoint gets its own
        // latency class: these are the queries that previously failed
        // outright with 408, so their conversion rate is worth watching
        // separately from walk-ladder degradations.
        Some(d) if d.achieved.push_tiers_completed < d.achieved.push_tiers_planned => {
            "degraded_push"
        }
        Some(_) => "degraded",
        None => match wire::outcome_name(&resp) {
            "hit" => "hit",
            "coalesced" => "coalesced",
            "precomputed" => "precomputed",
            // `uncached` full-accuracy answers took the compute path —
            // same cost shape as a miss.
            _ => "miss",
        },
    };
    let encoding = Instant::now();
    wire::write_response(out, graph, query.seed, &resp);
    shared
        .metrics
        .encoded("query", encoding.elapsed(), resp.result.estimate.nnz());
    Ok(class)
}

/// `POST /batch/{graph}` — submit-all-then-wait-all, one answer per
/// seed, RNG stream `rng_seed + i` (the [`hk_serve::run_batch`]
/// layout, so wire answers are bit-comparable against in-process runs).
/// Each item is appended to `out` as its ticket completes.
fn handle_batch(
    shared: &Shared,
    graph: &str,
    req: &Request,
    anchor: Instant,
    out: &mut Vec<u8>,
) -> Result<&'static str, Failure> {
    let body = parse_body(req)?;
    let (seeds, template) =
        wire::batch_from_json(&body).map_err(|e| Failure::bad_request(e.code, e.detail))?;
    let deadline = deadline_of(req, anchor)?;
    let tickets: Vec<Result<Ticket, ServeError>> = seeds
        .iter()
        .enumerate()
        .map(|(i, &seed)| {
            let mut item = template;
            item.seed = seed;
            item.rng_seed = template.rng_seed + i as u64;
            item.deadline = deadline;
            shared.engine.submit(graph, item)
        })
        .collect();
    // The graph itself missing fails the whole batch (all items would
    // carry the same error); per-item failures stay inline.
    if tickets
        .iter()
        .all(|t| matches!(t, Err(ServeError::UnknownGraph(_))))
    {
        return Err(Failure::of_serve_error(&ServeError::UnknownGraph(
            graph.to_string(),
        )));
    }
    let mut any_degraded = false;
    let mut any_degraded_push = false;
    let mut any_error = false;
    out.extend_from_slice(b"{\"graph\":");
    write_str(out, graph);
    out.extend_from_slice(b",\"items\":[");
    for (i, (ticket, &seed)) in tickets.into_iter().zip(&seeds).enumerate() {
        if i > 0 {
            out.push(b',');
        }
        match ticket.and_then(Ticket::wait) {
            Ok(resp) => {
                if let Some(d) = &resp.degraded {
                    any_degraded = true;
                    any_degraded_push |=
                        d.achieved.push_tiers_completed < d.achieved.push_tiers_planned;
                }
                let encoding = Instant::now();
                wire::write_response(out, graph, seed, &resp);
                shared
                    .metrics
                    .encoded("batch", encoding.elapsed(), resp.result.estimate.nnz());
            }
            Err(e) => {
                any_error = true;
                let (status, _, code) = wire::serve_error_parts(&e);
                Json::Obj(vec![
                    ("seed".into(), Json::Num(seed as f64)),
                    ("status".into(), Json::Num(status as f64)),
                    ("error".into(), Json::Str(code.into())),
                    ("detail".into(), Json::Str(e.to_string())),
                ])
                .write_into(out);
            }
        }
    }
    out.extend_from_slice(b"]}");
    Ok(if any_error {
        "error"
    } else if any_degraded_push {
        "degraded_push"
    } else if any_degraded {
        "degraded"
    } else {
        "miss"
    })
}

/// `GET /healthz` — `200` iff every configured scheduler worker is
/// alive; reports registry residency alongside.
fn handle_healthz(shared: &Shared, out: &mut Vec<u8>) -> Routed {
    let engine = &shared.engine;
    let workers = engine.stats().workers;
    let live = engine.live_workers() as u64;
    let registry = engine.registry();
    let resident = registry.resident();
    Json::Obj(vec![
        (
            "status".into(),
            Json::Str(
                if live == workers && workers > 0 {
                    "ok"
                } else {
                    "degraded"
                }
                .into(),
            ),
        ),
        ("workers".into(), Json::Num(workers as f64)),
        ("live_workers".into(), Json::Num(live as f64)),
        ("graphs".into(), Json::Num(registry.names().len() as f64)),
        ("resident".into(), Json::Num(resident.len() as f64)),
        (
            "resident_bytes".into(),
            Json::Num(resident.iter().map(|(_, b)| *b as u64).sum::<u64>() as f64),
        ),
    ])
    .write_into(out);
    if live == workers && workers > 0 {
        Ok("application/json")
    } else {
        Err(Failure::new(
            503,
            "Service Unavailable",
            "workers_dead",
            format!("{live}/{workers} scheduler workers alive"),
        ))
    }
}
