//! Deadline outcomes on the wire, each forced by a failpoint instead of
//! a guess at how long a query takes:
//!
//! * a deadline that expires during the *push phase* must come back as a
//!   200 with the degraded push-tier marker — not a 408 — once the push
//!   has certified at least one coarsened eps_r tier (`core.push_tier`);
//! * a deadline that expires while the request is still *queued* is a
//!   408 `deadline_exceeded` shed (`sched.dequeue`).
//!
//! Runs in its own test binary: it arms the process-global failpoint
//! registry (testing feature), and endpoint tests in other binaries must
//! never race on it; the tests in here take turns on [`FAULTS`].

#![cfg(feature = "testing")]

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hk_gateway::json::{self, Json};
use hk_gateway::{Gateway, GatewayConfig};
use hk_serve::fault::{self, Fault};
use hk_serve::{EngineConfig, MultiEngine, MultiEngineConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Serializes the tests of this binary over the failpoint registry.
static FAULTS: Mutex<()> = Mutex::new(());

fn demo_engine(workers: usize) -> Arc<MultiEngine> {
    let mut rng = SmallRng::seed_from_u64(7);
    let graph = hk_graph::gen::planted_partition(6, 60, 0.35, 0.01, &mut rng)
        .unwrap()
        .graph;
    let engine = Arc::new(MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers,
            cache_bytes: 4 << 20,
            ..EngineConfig::default()
        },
        ..MultiEngineConfig::default()
    }));
    engine.registry().register_graph("demo", Arc::new(graph));
    engine
}

fn roundtrip(gw: &Gateway, request: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(gw.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
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

/// A `POST /query/demo` with `headers` (each `\r\n`-terminated) and `body`.
fn post(headers: &str, body: &str) -> String {
    format!(
        "POST /query/demo HTTP/1.1\r\nHost: t\r\n{headers}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
}

#[test]
fn deadline_in_push_phase_returns_degraded_push_not_408() {
    let _turn = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let gw = Gateway::start(demo_engine(2), "127.0.0.1:0", GatewayConfig::default()).unwrap();
    // Hold the push at its first eps_r certificate checkpoint for 400ms
    // against a 60ms deadline: the watchdog reliably fires *during the
    // push*, and the banked tier must convert the cancellation into a
    // typed degraded answer on the wire.
    fault::clear_all();
    fault::inject(
        "core.push_tier",
        Fault::Delay(Duration::from_millis(400)),
        1,
    );
    let body = r#"{"seed": 2, "method": "tea_plus", "knobs": {"delta": 0.000001}}"#;
    let (status, text) = roundtrip(&gw, &post("X-Deadline-Ms: 60\r\n", body));
    let leaked = fault::armed();
    fault::clear_all();
    assert!(leaked.is_empty(), "failpoint never fired: {leaked:?}");
    assert_eq!(status, 200, "push-phase deadline must not be a 408: {text}");
    let parsed = json::parse(text.as_bytes()).unwrap();
    assert_eq!(
        parsed.get("outcome").and_then(Json::as_str),
        Some("uncached"),
        "degraded answers are never cached"
    );
    let degraded = parsed.get("degraded").unwrap();
    assert!(
        !matches!(degraded, Json::Null),
        "no degraded marker: {text}"
    );
    let completed = degraded
        .get("push_tiers_completed")
        .and_then(Json::as_u64)
        .unwrap();
    let planned = degraded
        .get("push_tiers_planned")
        .and_then(Json::as_u64)
        .unwrap();
    assert!(
        completed >= 1 && completed < planned,
        "push tiers {completed}/{planned}: {text}"
    );
    // The walk ladder fields are still on the wire next to the push
    // ones; a client can tell which phase was cut.
    for field in ["tiers_completed", "walks_done", "walks_planned", "after_ms"] {
        assert!(
            degraded.get(field).is_some(),
            "degraded marker lacks {field}: {text}"
        );
    }
    // The scrape files this answer under its own latency class.
    let (s, scrape) = roundtrip(
        &gw,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(s, 200);
    assert!(
        scrape.contains("hk_gateway_request_seconds_count{class=\"degraded_push\"} 1"),
        "degraded_push class not filed:\n{scrape}"
    );
    assert!(scrape.contains("hk_engine_degraded_total 1"));
}

#[test]
fn deadline_lapsed_in_the_queue_is_a_408_shed() {
    let _turn = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    // One worker, held at job pickup for 400ms by a deadline-free
    // request: the 20ms-deadline request behind it cannot be dequeued
    // before its deadline has passed, whatever the build's speed.
    let gw = Gateway::start(demo_engine(1), "127.0.0.1:0", GatewayConfig::default()).unwrap();
    fault::clear_all();
    fault::inject("sched.dequeue", Fault::Delay(Duration::from_millis(400)), 1);
    let (status, text) = std::thread::scope(|scope| {
        let blocker = scope.spawn(|| roundtrip(&gw, &post("", r#"{"seed": 1}"#)));
        // The trigger is consumed as the worker enters the delay.
        while !fault::armed().is_empty() {
            std::thread::yield_now();
        }
        let shed = roundtrip(&gw, &post("X-Deadline-Ms: 20\r\n", r#"{"seed": 2}"#));
        assert_eq!(
            blocker.join().unwrap().0,
            200,
            "the blocker is only delayed"
        );
        shed
    });
    assert_eq!(status, 408, "{text}");
    let parsed = json::parse(text.as_bytes()).unwrap();
    assert_eq!(
        parsed.get("error").and_then(Json::as_str),
        Some("deadline_exceeded"),
        "{text}"
    );
    let (_, scrape) = roundtrip(
        &gw,
        "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
    );
    assert!(scrape.contains("hk_engine_shed_queued_total 1"), "{scrape}");
}
