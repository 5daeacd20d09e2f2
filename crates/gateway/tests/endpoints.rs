//! End-to-end tests over a real loopback socket: every endpoint, the
//! error taxonomy, keep-alive, and bitwise conformance of over-the-wire
//! answers against in-process queries.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use hk_gateway::json::{self, Json};
use hk_gateway::{Gateway, GatewayConfig};
use hk_serve::{EngineConfig, Knobs, MultiEngine, MultiEngineConfig, QueryRequest, ServeError};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn demo_engine() -> Arc<MultiEngine> {
    let mut rng = SmallRng::seed_from_u64(7);
    let graph = hk_graph::gen::planted_partition(6, 60, 0.35, 0.01, &mut rng)
        .unwrap()
        .graph;
    let engine = Arc::new(MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: 2,
            cache_bytes: 4 << 20,
            ..EngineConfig::default()
        },
        ..MultiEngineConfig::default()
    }));
    engine.registry().register_graph("demo", Arc::new(graph));
    engine
}

fn start_gateway(engine: Arc<MultiEngine>) -> Gateway {
    Gateway::start(engine, "127.0.0.1:0", GatewayConfig::default()).unwrap()
}

/// Minimal blocking HTTP client: one request, one parsed response.
fn roundtrip(gw: &Gateway, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    read_response(&mut stream)
}

fn read_response(stream: &mut TcpStream) -> (u16, String) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Read until the response is framed: headers + Content-Length.
        if let Some((status, body_start, body_len)) = frame(&buf) {
            while buf.len() < body_start + body_len {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "eof mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let body = String::from_utf8(buf[body_start..body_start + body_len].to_vec()).unwrap();
            return (status, body);
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "eof mid-header");
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn frame(buf: &[u8]) -> Option<(u16, usize, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).unwrap();
    let status: u16 = head.split(' ').nth(1).unwrap().parse().unwrap();
    let body_len = head
        .lines()
        .find_map(|l| {
            let lower = l.to_ascii_lowercase();
            lower
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse::<usize>().unwrap())
        })
        .unwrap();
    Some((status, head_end, body_len))
}

fn post(path: &str, body: &str) -> String {
    format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn healthz_reports_liveness() {
    let gw = start_gateway(demo_engine());
    let (status, body) = roundtrip(
        &gw,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(status, 200, "{body}");
    let parsed = json::parse(body.as_bytes()).unwrap();
    assert_eq!(parsed.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(parsed.get("workers").and_then(Json::as_u64), Some(2));
    assert_eq!(parsed.get("live_workers").and_then(Json::as_u64), Some(2));
}

#[test]
fn query_over_the_wire_is_bitwise_identical_to_in_process() {
    let engine = demo_engine();
    let gw = start_gateway(Arc::clone(&engine));
    let (status, body) = roundtrip(&gw, &post("/query/demo", r#"{"seed": 11, "rng_seed": 3}"#));
    assert_eq!(status, 200, "{body}");
    let parsed = json::parse(body.as_bytes()).unwrap();
    assert_eq!(parsed.get("outcome").and_then(Json::as_str), Some("miss"));
    // Same query in-process; identical request → the wire answer must
    // render to the identical canonical result text (string equality is
    // bit equality: the f64 writer is injective on bits).
    let local = engine
        .query("demo", QueryRequest::new(11).rng_seed(3))
        .unwrap();
    let local_text = hk_gateway::wire::canonical_result_text(&local.result);
    let wire_text = parsed.get("result").unwrap().render();
    assert_eq!(wire_text, local_text);
}

#[test]
fn batch_matches_run_batch_streams_and_reports_per_item() {
    let engine = demo_engine();
    let gw = start_gateway(Arc::clone(&engine));
    let (status, body) = roundtrip(
        &gw,
        &post("/batch/demo", r#"{"seeds": [4, 9, 14], "rng_seed": 20}"#),
    );
    assert_eq!(status, 200, "{body}");
    let parsed = json::parse(body.as_bytes()).unwrap();
    let items = parsed.get("items").and_then(Json::as_arr).unwrap();
    assert_eq!(items.len(), 3);
    for (i, (item, seed)) in items.iter().zip([4u32, 9, 14]).enumerate() {
        assert_eq!(item.get("seed").and_then(Json::as_u64), Some(seed as u64));
        // Item i must equal the in-process answer at RNG stream 20 + i —
        // the run_batch stream layout.
        let local = engine
            .query("demo", QueryRequest::new(seed).rng_seed(20 + i as u64))
            .unwrap();
        assert_eq!(
            item.get("result").unwrap().render(),
            hk_gateway::wire::canonical_result_text(&local.result)
        );
    }
}

#[test]
fn error_taxonomy_over_the_wire() {
    let gw = start_gateway(demo_engine());
    for (request, status, code) in [
        (
            post("/query/absent", r#"{"seed": 1}"#),
            404,
            "unknown_graph",
        ),
        (post("/query/demo", "not json"), 400, "invalid_body"),
        (
            post("/query/demo", r#"{"method": "tea"}"#),
            400,
            "invalid_body",
        ),
        (
            post("/query/demo", r#"{"seed": 999999}"#),
            400,
            "invalid_query",
        ),
        (post("/nowhere", "{}"), 404, "unknown_endpoint"),
        (
            "GET /query/demo HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n".to_string(),
            405,
            "method_not_allowed",
        ),
    ] {
        let (got_status, body) = roundtrip(&gw, &request);
        assert_eq!(got_status, status, "{body}");
        let parsed = json::parse(body.as_bytes()).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some(code),
            "{body}"
        );
    }
}

#[test]
fn removed_methods_are_refused_before_the_engine() {
    // Exact power iteration is O(k_max * m) and polls no cancel token, so
    // it is not served at all: a typed 400 that names the served methods,
    // and no engine work.
    let gw = start_gateway(demo_engine());
    for request in [
        post("/query/demo", r#"{"seed": 1, "method": "exact"}"#),
        post("/batch/demo", r#"{"seeds": [1, 2], "method": "exact"}"#),
    ] {
        let (status, body) = roundtrip(&gw, &request);
        assert_eq!(status, 400, "{body}");
        let parsed = json::parse(body.as_bytes()).unwrap();
        assert_eq!(
            parsed.get("error").and_then(Json::as_str),
            Some("invalid_query"),
            "{body}"
        );
        let detail = parsed.get("detail").and_then(Json::as_str).unwrap();
        assert!(detail.contains("tea, tea_plus or monte_carlo"), "{body}");
    }
    let (_, text) = roundtrip(
        &gw,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(text.contains("hk_engine_completed_total 0"), "{text}");
}

#[test]
fn metrics_scrape_contains_mandatory_families_and_counts_requests() {
    let gw = start_gateway(demo_engine());
    let scrape = || {
        let (status, text) = roundtrip(
            &gw,
            "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(status, 200);
        text
    };
    let workspace_bytes = |text: &str| -> u64 {
        let line = text
            .lines()
            .find(|l| l.starts_with("hk_engine_workspace_bytes "))
            .unwrap_or_else(|| panic!("scrape lacks hk_engine_workspace_bytes:\n{text}"));
        line["hk_engine_workspace_bytes ".len()..].parse().unwrap()
    };
    // No worker has run a job yet, so no worker holds a workspace.
    assert_eq!(workspace_bytes(&scrape()), 0);
    let (s1, _) = roundtrip(&gw, &post("/query/demo", r#"{"seed": 5}"#));
    assert_eq!(s1, 200);
    let text = scrape();
    assert!(workspace_bytes(&text) > 0, "the miss sized a workspace");
    for family in [
        "hk_engine_completed_total",
        "hk_engine_degraded_total",
        "hk_engine_queue_high_water",
        "hk_cache_hits_total",
        "hk_cache_misses_total",
        "hk_cache_coalesced_total",
        "hk_registry_loads_total",
        "hk_registry_fingerprints_computed_total",
        "hk_registry_fingerprint_seconds_total",
        "hk_gateway_requests_total",
        "hk_gateway_request_seconds_bucket",
        "hk_gateway_connections_total",
    ] {
        assert!(text.contains(family), "scrape lacks {family}:\n{text}");
    }
    assert!(text.contains("hk_gateway_requests_total{endpoint=\"query\",status=\"200\"} 1"));
    assert!(text.contains("hk_engine_completed_total 1"));
}

#[test]
fn hub_answers_are_precomputed_on_the_wire_and_counted_once() {
    let mut rng = SmallRng::seed_from_u64(7);
    let graph = hk_graph::gen::planted_partition(6, 60, 0.35, 0.01, &mut rng)
        .unwrap()
        .graph;
    // The builder's selection: degree descending, id ascending.
    let mut hubs: Vec<u32> = (0..graph.num_nodes() as u32)
        .filter(|&v| graph.degree(v) > 0)
        .collect();
    hubs.sort_unstable_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
    hubs.truncate(8);
    let engine = Arc::new(MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: 2,
            cache_bytes: 4 << 20,
            ..EngineConfig::default()
        },
        hub_top_k: 8,
        ..MultiEngineConfig::default()
    }));
    engine.registry().register_graph("demo", Arc::new(graph));
    let gw = start_gateway(Arc::clone(&engine));
    // The first routed request spawns the build; its RNG stream keeps it
    // off every hub key.
    let (status, _) = roundtrip(&gw, &post("/query/demo", r#"{"seed": 0, "rng_seed": 1}"#));
    assert_eq!(status, 200);
    engine.wait_hub_builds();
    for seed in &hubs {
        let (status, body) =
            roundtrip(&gw, &post("/query/demo", &format!(r#"{{"seed": {seed}}}"#)));
        assert_eq!(status, 200, "{body}");
        let parsed = json::parse(body.as_bytes()).unwrap();
        assert_eq!(
            parsed.get("outcome").and_then(Json::as_str),
            Some("precomputed"),
            "seed {seed}"
        );
    }
    let (_, text) = roundtrip(
        &gw,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let sample = |series: &str| -> u64 {
        let line = text
            .lines()
            .find(|l| l.strip_prefix(series).is_some_and(|v| v.starts_with(' ')))
            .unwrap_or_else(|| panic!("scrape lacks {series}:\n{text}"));
        line[series.len() + 1..].parse().unwrap()
    };
    assert_eq!(sample("hk_hub_builds_total"), 1);
    assert_eq!(sample("hk_hub_precomputed_seeds"), 8);
    assert_eq!(sample("hk_hub_hits_total"), 8);
    assert_eq!(
        sample("hk_hub_hits_total"),
        sample("hk_graph_requests_total{graph=\"demo\",outcome=\"precomputed\"}")
    );
    assert!(sample("hk_hub_resident_bytes") > 0);
    // Pinned hits are not LRU hits.
    assert_eq!(sample("hk_cache_hits_total"), 0);
}

#[test]
fn response_bytes_are_counted_per_endpoint() {
    let gw = start_gateway(demo_engine());
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(post("/query/demo", r#"{"seed": 5}"#).as_bytes())
        .unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 200);
    // Bytes are counted once the write has returned, which a client that
    // stops at Content-Length can outrun; the server closes the
    // connection (`Connection: close`) only after counting them.
    assert_eq!(stream.read(&mut [0u8; 1]).unwrap(), 0, "expected EOF");
    let (_, text) = roundtrip(
        &gw,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    let counted = |endpoint: &str| -> usize {
        let key = format!("hk_gateway_response_bytes_total{{endpoint=\"{endpoint}\"}} ");
        let line = text.lines().find(|l| l.starts_with(&key)).unwrap();
        line[key.len()..].parse().unwrap()
    };
    // Head and body of the one query answer; the scrape that reports it
    // is itself still being written.
    let query = counted("query");
    assert!(
        query > body.len() && query < body.len() + 256,
        "{query} bytes counted for a {} byte body",
        body.len()
    );
    assert_eq!(counted("batch"), 0);
    assert_eq!(counted("metrics"), 0);
}

#[test]
fn keep_alive_serves_sequential_requests_on_one_connection() {
    let gw = start_gateway(demo_engine());
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for seed in [3u32, 8] {
        let body = format!("{{\"seed\": {seed}}}");
        let request = format!(
            "POST /query/demo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let (status, text) = read_response(&mut stream);
        assert_eq!(status, 200, "{text}");
        let parsed = json::parse(text.as_bytes()).unwrap();
        assert_eq!(parsed.get("seed").and_then(Json::as_u64), Some(seed as u64));
    }
}

#[test]
fn http_10_without_keep_alive_is_answered_and_closed() {
    // ApacheBench's default: HTTP/1.0, no Connection header. The client
    // waits for EOF to delimit the exchange, so answering "keep-alive"
    // and holding the socket open would hang it until the read timeout.
    let gw = start_gateway(demo_engine());
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET /healthz HTTP/1.0\r\nHost: t\r\n\r\n")
        .unwrap();
    let mut got = Vec::new();
    // Reads to EOF; a connection left open would time out here instead.
    stream
        .read_to_end(&mut got)
        .expect("server closed the connection");
    let text = String::from_utf8(got).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
    assert!(text.contains("\r\nConnection: close\r\n"), "{text}");
    assert!(text.ends_with('}'), "{text}");

    // A 1.0 client that asks to stay is kept, and told so.
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for _ in 0..2 {
        stream
            .write_all(b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap();
        let (status, _) = read_response(&mut stream);
        assert_eq!(status, 200);
    }
}

#[test]
fn degraded_answers_carry_the_achieved_tier_on_the_wire() {
    let engine = demo_engine();
    let gw = start_gateway(Arc::clone(&engine));
    // Escalate the deadline until the engine returns Ok — mirroring the
    // serve crate's own degraded-path tests: too tight sheds, too loose
    // completes, the band between degrades.
    let mut witnessed = None;
    for ms in [40u64, 100, 250, 500, 1000, 2000, 4000, 8000] {
        let body = r#"{"seed": 6, "method": {"name": "monte_carlo", "max_walks": 4000000}, "knobs": {"t": 9.5, "delta": 0.00000001}}"#;
        let request = format!(
            "POST /query/demo HTTP/1.1\r\nHost: t\r\nX-Deadline-Ms: {ms}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let (status, text) = roundtrip(&gw, &request);
        if status == 200 {
            witnessed = Some(text);
            break;
        }
        assert_eq!(status, 408, "{text}");
    }
    let text = witnessed.expect("even an 8s deadline failed");
    let parsed = json::parse(text.as_bytes()).unwrap();
    let degraded = parsed.get("degraded").unwrap();
    if matches!(degraded, Json::Null) {
        // The box was fast enough to finish 4M walks in time — the
        // degraded marker is legitimately absent. Nothing more to check.
        return;
    }
    assert_eq!(
        parsed.get("outcome").and_then(Json::as_str),
        Some("uncached")
    );
    let done = degraded.get("walks_done").and_then(Json::as_u64).unwrap();
    let planned = degraded
        .get("walks_planned")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(done < planned, "degraded but walks {done}/{planned}");
    assert!(degraded
        .get("eps_r_requested")
        .and_then(Json::as_f64)
        .is_some());
    assert!(degraded.get("after_ms").and_then(Json::as_f64).unwrap() > 0.0);
}

#[test]
fn wire_parse_errors_close_with_a_typed_status() {
    let gw = start_gateway(demo_engine());
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /query/demo HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n")
        .unwrap();
    let (status, body) = read_response(&mut stream);
    assert_eq!(status, 501, "{body}");
    let parsed = json::parse(body.as_bytes()).unwrap();
    assert_eq!(
        parsed.get("error").and_then(Json::as_str),
        Some("malformed_request")
    );
}

#[test]
fn slow_loris_drip_is_cut_off_with_a_408() {
    // A drip-feeding client defeats a naive per-read timeout: every byte
    // resets the clock. The cumulative header budget must cut it off.
    let gw = Gateway::start(
        demo_engine(),
        "127.0.0.1:0",
        GatewayConfig {
            header_deadline: Duration::from_millis(300),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = std::time::Instant::now();
    // Drip a syntactically fine but never-ending request one byte every
    // 40ms — well inside the 10s per-read timeout, so only the
    // cumulative budget can stop it. Poll for the server's answer
    // between drips (reading eagerly, so a later RST cannot discard it).
    let drip: Vec<u8> = b"POST /query/demo HTTP/1.1\r\nHost: t\r\nX-Filler: "
        .iter()
        .copied()
        .chain(std::iter::repeat_n(b'a', 400))
        .collect();
    stream
        .set_read_timeout(Some(Duration::from_millis(5)))
        .unwrap();
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    'drip: for &byte in &drip {
        if stream.write_all(&[byte]).is_err() {
            break; // server already cut us off
        }
        std::thread::sleep(Duration::from_millis(40));
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => break 'drip,
                Ok(n) => got.extend_from_slice(&chunk[..n]),
                Err(_) => break, // poll timeout: keep dripping
            }
        }
        if frame(&got).is_some() {
            break;
        }
        if started.elapsed() > Duration::from_secs(8) {
            panic!("server never cut off the drip");
        }
    }
    let (status, body) = {
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        loop {
            if let Some((status, body_start, body_len)) = frame(&got) {
                if got.len() >= body_start + body_len {
                    let body =
                        String::from_utf8(got[body_start..body_start + body_len].to_vec()).unwrap();
                    break (status, body);
                }
            }
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => got.extend_from_slice(&chunk[..n]),
                _ => panic!(
                    "no complete 408 answer; got {:?}",
                    String::from_utf8_lossy(&got)
                ),
            }
        }
    };
    assert_eq!(status, 408, "{body}");
    let parsed = json::parse(body.as_bytes()).unwrap();
    assert_eq!(
        parsed.get("error").and_then(Json::as_str),
        Some("header_timeout"),
        "{body}"
    );
    // The budget, not the drip count, ended it: cut-off near 300ms.
    assert!(
        started.elapsed() >= Duration::from_millis(300),
        "cut off after only {:?}",
        started.elapsed()
    );
    assert_eq!(gw.metrics().header_timeouts(), 1);
    // The connection is closed: the server will not read further drips.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap_or(0), 0, "not closed");
}

#[test]
fn patient_clients_and_keep_alive_survive_the_header_budget() {
    // The budget must only clock *open* requests: a client that sends
    // promptly but idles between keep-alive requests is untouched even
    // when idle time far exceeds the budget.
    let gw = Gateway::start(
        demo_engine(),
        "127.0.0.1:0",
        GatewayConfig {
            header_deadline: Duration::from_millis(200),
            ..GatewayConfig::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    for seed in [3u32, 8] {
        let body = format!("{{\"seed\": {seed}}}");
        let request = format!(
            "POST /query/demo HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes()).unwrap();
        let (status, text) = read_response(&mut stream);
        assert_eq!(status, 200, "{text}");
        // Idle past the budget between requests: must not be penalized.
        std::thread::sleep(Duration::from_millis(350));
    }
    assert_eq!(gw.metrics().header_timeouts(), 0);
}

#[test]
fn unknown_graph_maps_to_the_same_error_in_process_and_on_the_wire() {
    // The taxonomy promise: ServeError -> status is one fixed function.
    let engine = demo_engine();
    let err = engine.query("absent", QueryRequest::new(1)).unwrap_err();
    assert!(matches!(err, ServeError::UnknownGraph(_)));
    let (status, _, code) = hk_gateway::wire::serve_error_parts(&err);
    assert_eq!((status, code), (404, "unknown_graph"));
    let knobs_default = Knobs::default();
    assert_eq!(knobs_default.eps_r, 0.5); // wire defaults documented in README
}
