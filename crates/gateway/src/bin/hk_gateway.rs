//! `hk-gateway` — serve registered graph snapshots over HTTP.
//!
//! ```text
//! hk-gateway [--addr HOST:PORT] [--graph NAME=PATH]... [--demo]
//!            [--workers N] [--conn-workers N] [--cache-mb N]
//!            [--hub-top-k N] [--hub-mb N] [--port-file PATH]
//! ```
//!
//! `--addr` defaults to `127.0.0.1:0` (ephemeral port); the resolved
//! address is printed to stdout and, with `--port-file`, written to a
//! file so scripts (CI smoke legs) can pick it up race-free. `--demo`
//! registers a small generated planted-partition graph under the name
//! `demo` — enough to exercise every endpoint with no dataset on disk.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::sync::Arc;

use hk_gateway::{Gateway, GatewayConfig};
use hk_serve::{EngineConfig, MultiEngine, MultiEngineConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

struct Args {
    addr: String,
    graphs: Vec<(String, String)>,
    demo: bool,
    workers: usize,
    conn_workers: usize,
    cache_mb: usize,
    hub_top_k: usize,
    hub_mb: usize,
    port_file: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: hk-gateway [--addr HOST:PORT] [--graph NAME=PATH]... [--demo]\n\
         \x20                 [--workers N] [--conn-workers N] [--cache-mb N]\n\
         \x20                 [--hub-top-k N] [--hub-mb N] [--port-file PATH]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        addr: "127.0.0.1:0".to_string(),
        graphs: Vec::new(),
        demo: false,
        workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
        conn_workers: 4,
        cache_mb: 64,
        hub_top_k: 0,
        hub_mb: 0,
        port_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr"),
            "--graph" => {
                let spec = value("--graph");
                match spec.split_once('=') {
                    Some((name, path)) if !name.is_empty() && !path.is_empty() => {
                        args.graphs.push((name.to_string(), path.to_string()));
                    }
                    _ => {
                        eprintln!("--graph wants NAME=PATH, got {spec:?}");
                        usage();
                    }
                }
            }
            "--demo" => args.demo = true,
            "--workers" => args.workers = value("--workers").parse().unwrap_or_else(|_| usage()),
            "--conn-workers" => {
                args.conn_workers = value("--conn-workers").parse().unwrap_or_else(|_| usage())
            }
            "--cache-mb" => args.cache_mb = value("--cache-mb").parse().unwrap_or_else(|_| usage()),
            // Hub precomputation: pin answers for the top-K highest-degree
            // seeds per graph, built in the background at load time.
            "--hub-top-k" => {
                args.hub_top_k = value("--hub-top-k").parse().unwrap_or_else(|_| usage())
            }
            "--hub-mb" => args.hub_mb = value("--hub-mb").parse().unwrap_or_else(|_| usage()),
            "--port-file" => args.port_file = Some(value("--port-file")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    if args.graphs.is_empty() && !args.demo {
        eprintln!("nothing to serve: pass --graph NAME=PATH or --demo");
        usage();
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let engine = Arc::new(MultiEngine::new(MultiEngineConfig {
        engine: EngineConfig {
            workers: args.workers,
            cache_bytes: args.cache_mb << 20,
            ..EngineConfig::default()
        },
        hub_top_k: args.hub_top_k,
        hub_bytes: args.hub_mb << 20,
        ..MultiEngineConfig::default()
    }));
    for (name, path) in &args.graphs {
        engine.registry().register_path(name, path);
    }
    if args.demo {
        let mut rng = SmallRng::seed_from_u64(42);
        let demo = hk_graph::gen::planted_partition(8, 100, 0.3, 0.01, &mut rng)
            .expect("generate demo graph")
            .graph;
        engine.registry().register_graph("demo", Arc::new(demo));
    }
    let config = GatewayConfig {
        conn_workers: args.conn_workers,
        ..GatewayConfig::default()
    };
    let gateway = match Gateway::start(engine, &args.addr, config) {
        Ok(gw) => gw,
        Err(e) => {
            eprintln!("bind {} failed: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = gateway.local_addr();
    println!("listening on {addr}");
    if let Some(path) = &args.port_file {
        // Write to a temp name then rename: readers polling the path
        // never observe a half-written address.
        let tmp = format!("{path}.tmp");
        if let Err(e) =
            std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, path))
        {
            eprintln!("writing port file {path} failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Serving happens on the gateway's own threads; park the main
    // thread until the process is signalled.
    loop {
        std::thread::park();
    }
}
