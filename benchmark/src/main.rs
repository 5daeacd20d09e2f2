//! The repo benchmark. One command generates the inputs from `--seed`,
//! runs one workload, checks the answers, and prints every metric by
//! name with its unit; the last line of standard output is the result
//! object the driver reads. See `README.md` for every definition.
//!
//! ```text
//! hk-benchmark --workload <name> --seed <u64> [--seconds <n>] [--trace [0|1]]
//!              [--smoke] [--repeat <n>] [--out <dir>]
//! ```

mod direct;
mod host;
mod input;
mod report;
mod stats;
mod trace;
mod wire;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use hk_gateway::json;

use crate::report::{result_line, table, Outcome, END_TO_END};
use crate::workload::{Path, Run, Workload, WORKLOADS};

/// `--seconds` when not given: `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

struct Options {
    /// `None` = all four (only with `--repeat`).
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    repeat: Option<usize>,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: hk-benchmark --workload <{}> --seed <u64> [--seconds <n>] [--trace [0|1]] \
         [--smoke] [--repeat <n>] [--out <dir>]\n\
         --repeat also takes --workload all",
        names.join("|")
    )
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut all = false;
    let mut opts = Options {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        repeat: None,
        out: default_out()?,
    };
    let mut seed = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a name")?;
                all = name == "all";
                if !all {
                    opts.workload = Some(
                        workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                    );
                }
            }
            "--seed" => {
                seed = Some(
                    value("a number")?
                        .parse::<u64>()
                        .map_err(|_| "--seed must be a u64")?,
                )
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds must be a positive number")?
            }
            "--repeat" => {
                opts.repeat = Some(
                    value("a count")?
                        .parse::<usize>()
                        .ok()
                        .filter(|n| *n >= 2)
                        .ok_or("--repeat needs a count of at least 2")?,
                )
            }
            "--out" => opts.out = PathBuf::from(value("a directory")?),
            "--smoke" => opts.smoke = true,
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.seed = seed.ok_or("--seed is required")?;
    if opts.workload.is_none() && !(all && opts.repeat.is_some()) {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// `bench-out/` beside the executable, i.e. inside the cargo target
/// directory: never committed, always inside the checkout.
fn default_out() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(exe
        .parent()
        .ok_or("executable has no parent directory")?
        .join("bench-out"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The two child roles this executable spawns itself in.
    let child = match args.first().map(String::as_str) {
        Some("gen") => Some(gen_main(&args[1..])),
        Some("setup") => Some(setup_main(&args[1..])),
        _ => None,
    };
    if let Some(done) = child {
        return match done {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("hk-benchmark {}: {e}", args[0]);
                ExitCode::from(2)
            }
        };
    }
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("hk-benchmark: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let done = match opts.repeat {
        Some(n) => repeat(&opts, n),
        None => run_once(&opts),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hk-benchmark: {e}");
            ExitCode::from(1)
        }
    }
}

/// `gen <nodes> <seed> <path>` — the child that generates and saves.
fn gen_main(args: &[String]) -> Result<(), String> {
    let [nodes, seed, path] = args else {
        return Err("expected <nodes> <seed> <path>".into());
    };
    input::gen_child(
        nodes.parse().map_err(|_| "bad node count")?,
        seed.parse().map_err(|_| "bad seed")?,
        std::path::Path::new(path),
    )
}

/// `setup <workload> <seed> <smoke> <snapshot>` — the child that runs one
/// cold-start cycle against an existing snapshot and reports its times.
fn setup_main(args: &[String]) -> Result<(), String> {
    let [name, seed, smoke, snapshot] = args else {
        return Err("expected <workload> <seed> <smoke> <snapshot>".into());
    };
    let smoke = smoke == "1";
    let (workload, nodes) = workload::find(name).ok_or("unknown workload")?.sized(smoke);
    let run = Run {
        workload,
        seed: seed.parse().map_err(|_| "bad seed")?,
        seconds: 0.0,
        trace: false,
        smoke,
        snapshot: input::Snapshot {
            path: PathBuf::from(snapshot),
            nodes,
            edges: 0,
            bytes: 0,
            gen_s: 0.0,
            save_s: 0.0,
            fingerprint: 0,
        },
    };
    let cycle = match workload.path {
        Path::Direct => direct::setup_cycle(&run)?.0,
        Path::Wire => wire::setup_cycle(&run)?.0,
    };
    println!("{}", cycle.line());
    Ok(())
}

/// One run of one workload. `Ok(false)`: it ran, but an answer was wrong,
/// a request failed or the workload lost its shape.
fn run_once(opts: &Options) -> Result<bool, String> {
    let (workload, nodes) = opts
        .workload
        .expect("parse() requires a workload here")
        .sized(opts.smoke);
    if !opts.smoke && !stats::tail_is_supported(workload.slots, 0.9) {
        return Err(format!(
            "{}: p90 over {} slots has fewer than ten samples beyond it",
            workload.name, workload.slots
        ));
    }
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("create {:?}: {e}", opts.out))?;
    let run = Run {
        workload,
        seed: opts.seed,
        seconds: opts.seconds,
        trace: opts.trace,
        smoke: opts.smoke,
        snapshot: input::generate(nodes, opts.seed, &opts.out)?,
    };
    let mut tracer = trace::Tracer::new();
    let result = match workload.path {
        Path::Direct => direct::run(&run, &mut tracer),
        Path::Wire => wire::run(&run, &mut tracer),
    };
    // The snapshot is an input, not a result: never left behind.
    let _ = std::fs::remove_file(&run.snapshot.path);
    let outcome = result?;
    if run.trace {
        let path = opts
            .out
            .join(format!("trace-{}-{}.json", workload.name, run.seed));
        tracer
            .write(&path, workload.name, run.seed)
            .map_err(|e| format!("write {path:?}: {e}"))?;
        eprintln!(
            "{} spans written to {}",
            tracer.spans().len(),
            path.display()
        );
    }
    print_outcome(&outcome, &run);
    Ok(outcome.failures.is_empty() && outcome.failed == 0)
}

fn print_outcome(outcome: &Outcome, run: &Run) {
    println!(
        "workload {} seed {} trace {} — {} requests, {} failed\n  ({})",
        run.workload.name,
        run.seed,
        run.trace as u8,
        outcome.attempted,
        outcome.failed,
        run.workload.why
    );
    for (name, unit) in table(run.trace) {
        println!("{name:<36} {:>16.6} {unit}", outcome.metrics.get(name));
    }
    // What the shape guards looked at, whichever table was printed.
    let shape: Vec<String> = [
        "bench.passes",
        "core.push_share",
        "core.walk_share",
        "core.early_exit_share",
        "serve.hit_share",
    ]
    .iter()
    .map(|name| format!("{name}={:.3}", outcome.metrics.get(name)))
    .collect();
    eprintln!("shape: {}", shape.join(" "));
    for failure in &outcome.failures {
        eprintln!("FAILED: {failure}");
    }
    println!("{}", result_line(outcome, run.trace));
}

/// `--repeat n`: run the workload(s) `n` times as fresh processes, seeds
/// `seed, seed+1, …` (the acceptance protocol varies the seed), and print
/// per end-to-end metric the median and two spreads as Markdown.
fn repeat(opts: &Options, n: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workloads: Vec<Workload> = opts.workload.map_or(WORKLOADS.to_vec(), |w| vec![w]);
    let mut all_ok = true;
    for workload in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        for i in 0..n {
            let seed = opts.seed.wrapping_add(i as u64);
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name, "--seed", &seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string(), "--trace", "0"])
                .arg("--out")
                .arg(&opts.out);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let output = cmd.output().map_err(|e| format!("spawn run: {e}"))?;
            all_ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout.lines().last().unwrap_or("");
            let parsed = json::parse(line.as_bytes()).map_err(|e| {
                format!(
                    "{} seed {seed}: no result line ({e}): {}",
                    workload.name,
                    String::from_utf8_lossy(&output.stderr)
                )
            })?;
            for (slot, (name, _)) in values.iter_mut().zip(END_TO_END) {
                slot.push(
                    parsed
                        .get("metrics")
                        .and_then(|m| m.get(name))
                        .and_then(|m| m.get("value"))
                        .and_then(json::Json::as_f64)
                        .ok_or_else(|| format!("result line lacks {name}"))?,
                );
            }
            let stderr = String::from_utf8_lossy(&output.stderr);
            let shape = stderr
                .lines()
                .find(|l| l.starts_with("shape:"))
                .unwrap_or("");
            eprintln!("{} seed {seed} ({}/{n}): {shape}", workload.name, i + 1);
        }
        println!(
            "\n### {} — {n} runs, seeds {}..={}, --seconds {}\n",
            workload.name,
            opts.seed,
            opts.seed.wrapping_add(n as u64 - 1),
            opts.seconds
        );
        println!("| metric | unit | median | (max-min)/median | IQR/median | values |");
        println!("|---|---|---|---|---|---|");
        for ((name, unit), v) in END_TO_END.iter().zip(&values) {
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "| `{name}` | {unit} | {:.4} | {:.4} | {:.4} | {} |",
                stats::median(v),
                stats::range_spread(v),
                stats::iqr_spread(v),
                shown.join(" ")
            );
        }
    }
    Ok(all_ok)
}
