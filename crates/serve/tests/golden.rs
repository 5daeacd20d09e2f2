//! Golden conformance suite: byte-stable snapshots of TEA / TEA+ /
//! Monte-Carlo cluster output on the two bundled binary datasets (`data/plc.x4.hkg`,
//! `data/3d-grid.x4.hkg`).
//!
//! Each fixture in `tests/golden/*.json` records, for a fixed parameter
//! set and per-query RNG streams, the full observable result: cluster
//! members, conductance (shortest-roundtrip decimal *and* exact f64 bit
//! pattern), support size, estimate size/mass bits and the deterministic
//! cost counters. The test regenerates the canonical JSON and compares it
//! byte-for-byte against the committed file, so **any** drift — an
//! estimator tweak, an RNG reordering, a sweep tie-break change, a
//! float-formatting change — fails with a pointer to the first divergent
//! line.
//!
//! Queries run through `hk_serve::run_batch` (the engine's one-shot
//! worker loop) on 2 workers, each query on the worker that claimed it;
//! an answer must not depend on which worker computed it, so the fixtures
//! double as an end-to-end check of that.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p hk-serve --test golden
//! ```
//!
//! then commit the diff. The suite fails (rather than silently passing)
//! when a fixture file is missing, so a fresh checkout cannot "pass" by
//! having nothing to compare.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use hk_cluster::{ClusterResult, LocalClusterer, Method};
use hk_graph::{io, Graph};
use hk_serve::run_batch;
use hkpr_core::HkprParams;

fn repo_path(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn load_dataset(file: &str) -> Graph {
    let path = repo_path(&format!("../../data/{file}"));
    io::load_binary(&path).unwrap_or_else(|e| panic!("load {}: {e}", path.display()))
}

/// The same dataset converted to a v2 snapshot and loaded onto the
/// zero-copy arena backend (plus mmap when the feature is on) — the
/// storage half of the differential conformance suite. Results rendered
/// from these graphs must be byte-identical to the owned-backend fixture.
fn load_dataset_alt_backends(file: &str) -> Vec<(String, Graph)> {
    let owned = load_dataset(file);
    let dir = std::env::temp_dir().join("hk_golden_backends");
    std::fs::create_dir_all(&dir).unwrap();
    let v2 = dir.join(file);
    io::save_binary_v2(&owned, &v2).unwrap();
    #[cfg_attr(not(feature = "mmap"), allow(unused_mut))]
    let mut graphs = vec![(format!("{file} [arena]"), io::load_binary_v2(&v2).unwrap())];
    #[cfg(feature = "mmap")]
    graphs.push((format!("{file} [mmap]"), io::load_binary_mmap(&v2).unwrap()));
    graphs
}

/// Shortest-roundtrip decimal plus exact bit pattern of an f64.
fn fmt_f64(x: f64) -> (String, String) {
    (format!("{x:?}"), format!("{:#018x}", x.to_bits()))
}

struct GoldenCase {
    fixture: &'static str,
    dataset: &'static str,
    seeds: &'static [u32],
    methods: &'static [(&'static str, Method)],
    /// (t, eps_r, delta, p_f)
    knobs: (f64, f64, f64, f64),
}

/// Monte-Carlo capped below the published walk count of either case, so
/// the cap binds and the row stays cheap; 10k walks span three execution
/// chunks, enough for a multi-tier ladder.
const MONTE_CARLO: (&str, Method) = (
    "Monte-Carlo",
    Method::MonteCarlo {
        max_walks: Some(10_000),
    },
);

const CASES: &[GoldenCase] = &[
    GoldenCase {
        fixture: "plc_x4.json",
        dataset: "plc.x4.hkg",
        seeds: &[0, 1234, 9999],
        methods: &[("TEA", Method::Tea), ("TEA+", Method::TeaPlus), MONTE_CARLO],
        // delta = 1e-2 keeps the sweep support (and so the fixture) small
        // while still exercising both push and walk phases.
        knobs: (5.0, 0.5, 1e-2, 0.01),
    },
    GoldenCase {
        fixture: "grid3d_x4.json",
        dataset: "3d-grid.x4.hkg",
        seeds: &[0, 500, 999],
        methods: &[("TEA", Method::Tea), ("TEA+", Method::TeaPlus), MONTE_CARLO],
        knobs: (5.0, 0.5, 1e-3, 0.01),
    },
    GoldenCase {
        fixture: "grid3d_x4_walk.json",
        dataset: "3d-grid.x4.hkg",
        seeds: &[0, 500, 999],
        methods: &[("TEA+", Method::TeaPlus)],
        // t = 10 outruns the hop cap on the grid: condition (11) fails and
        // TEA+ runs its residue reduction and a multi-chunk walk phase,
        // which the two cases above (early exit on every TEA+ row) never do.
        knobs: (10.0, 0.5, 1e-3, 0.01),
    },
];

/// Base RNG stream per case; query `i` of a batch uses `BASE + i` (the
/// engine's stream-derivation rule).
const BASE_RNG_SEED: u64 = 42;

fn render_result(out: &mut String, label: &str, seed: u32, rng_seed: u64, r: &ClusterResult) {
    let (cond_dec, cond_bits) = fmt_f64(r.conductance);
    let (raw_dec, raw_bits) = fmt_f64(r.estimate.raw_sum());
    let (alpha_dec, alpha_bits) = fmt_f64(r.stats.alpha);
    let (off_dec, off_bits) = fmt_f64(r.estimate.offset_coeff());
    writeln!(out, "    {{").unwrap();
    writeln!(out, "      \"method\": \"{label}\",").unwrap();
    writeln!(out, "      \"seed\": {seed},").unwrap();
    writeln!(out, "      \"rng_seed\": {rng_seed},").unwrap();
    writeln!(
        out,
        "      \"conductance\": {{ \"value\": {cond_dec}, \"bits\": \"{cond_bits}\" }},"
    )
    .unwrap();
    writeln!(out, "      \"support_size\": {},", r.support_size).unwrap();
    writeln!(out, "      \"estimate_nnz\": {},", r.estimate.nnz()).unwrap();
    writeln!(
        out,
        "      \"estimate_raw_sum\": {{ \"value\": {raw_dec}, \"bits\": \"{raw_bits}\" }},"
    )
    .unwrap();
    writeln!(
        out,
        "      \"offset_coeff\": {{ \"value\": {off_dec}, \"bits\": \"{off_bits}\" }},"
    )
    .unwrap();
    writeln!(out, "      \"stats\": {{").unwrap();
    writeln!(
        out,
        "        \"push_operations\": {},",
        r.stats.push_operations
    )
    .unwrap();
    writeln!(out, "        \"random_walks\": {},", r.stats.random_walks).unwrap();
    writeln!(out, "        \"walk_steps\": {},", r.stats.walk_steps).unwrap();
    writeln!(
        out,
        "        \"alpha\": {{ \"value\": {alpha_dec}, \"bits\": \"{alpha_bits}\" }},"
    )
    .unwrap();
    writeln!(out, "        \"early_exit\": {}", r.stats.early_exit).unwrap();
    writeln!(out, "      }},").unwrap();
    let members: Vec<String> = r.cluster.iter().map(|v| v.to_string()).collect();
    writeln!(out, "      \"cluster\": [{}]", members.join(", ")).unwrap();
    writeln!(out, "    }}").unwrap();
}

fn render_case(case: &GoldenCase, graph: &Graph) -> String {
    let (t, eps_r, delta, p_f) = case.knobs;
    let params = HkprParams::builder(graph)
        .t(t)
        .eps_r(eps_r)
        .delta(delta)
        .p_f(p_f)
        .build()
        .unwrap();
    let clusterer = LocalClusterer::new(graph);

    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"schema\": \"hk-golden-v1\",").unwrap();
    writeln!(out, "  \"dataset\": \"{}\",", case.dataset).unwrap();
    writeln!(out, "  \"graph\": {{").unwrap();
    writeln!(out, "    \"nodes\": {},", graph.num_nodes()).unwrap();
    writeln!(out, "    \"edges\": {},", graph.num_edges()).unwrap();
    writeln!(
        out,
        "    \"fingerprint\": \"{:#018x}\"",
        graph.fingerprint()
    )
    .unwrap();
    writeln!(out, "  }},").unwrap();
    writeln!(
        out,
        "  \"params\": {{ \"t\": {t:?}, \"eps_r\": {eps_r:?}, \"delta\": {delta:?}, \"p_f\": {p_f:?} }},"
    )
    .unwrap();
    writeln!(out, "  \"base_rng_seed\": {BASE_RNG_SEED},").unwrap();
    writeln!(out, "  \"queries\": [").unwrap();
    let mut objects = Vec::new();
    for &(label, method) in case.methods {
        let results = run_batch(&clusterer, method, case.seeds, &params, BASE_RNG_SEED, 2);
        for (i, (&seed, result)) in case.seeds.iter().zip(results.iter()).enumerate() {
            let r = result
                .as_ref()
                .unwrap_or_else(|e| panic!("{label} seed {seed}: {e}"));
            let mut obj = String::new();
            render_result(&mut obj, label, seed, BASE_RNG_SEED + i as u64, r);
            let _ = obj.pop(); // trailing newline; separators join below
            objects.push(obj);
        }
    }
    writeln!(out, "{}", objects.join(",\n")).unwrap();
    writeln!(out, "  ]").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

fn first_divergence(expected: &str, actual: &str) -> String {
    for (lineno, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        if e != a {
            return format!(
                "first divergence at line {}:\n  fixture : {e}\n  computed: {a}",
                lineno + 1
            );
        }
    }
    format!(
        "line counts differ: fixture {} vs computed {}",
        expected.lines().count(),
        actual.lines().count()
    )
}

#[test]
fn golden_conformance() {
    let bless = std::env::var_os("GOLDEN_BLESS").is_some();
    let dir = repo_path("tests/golden");
    if bless {
        std::fs::create_dir_all(&dir).unwrap();
    }
    for case in CASES {
        let actual = render_case(case, &load_dataset(case.dataset));
        let path = dir.join(case.fixture);
        if bless {
            std::fs::write(&path, &actual).unwrap();
            eprintln!("blessed {}", path.display());
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing fixture {} ({e}); run `GOLDEN_BLESS=1 cargo test -p hk-serve --test golden` and commit it",
                path.display()
            )
        });
        assert!(
            expected == actual,
            "golden drift in {}: {}\n(if intentional, re-bless with GOLDEN_BLESS=1 and commit)",
            case.fixture,
            first_divergence(&expected, &actual)
        );
    }
}

/// Differential backend conformance: the full golden suite, recomputed
/// on the v2 arena (and mmap) backends, must reproduce the committed
/// owned-backend fixtures **byte for byte** — same clusters, same float
/// bit patterns, same cost counters. No separate fixtures, no re-bless:
/// the storage layer is not allowed to be observable.
#[test]
fn golden_conformance_across_storage_backends() {
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        return; // blessing is the owned-backend test's job
    }
    let dir = repo_path("tests/golden");
    for case in CASES {
        let expected = std::fs::read_to_string(dir.join(case.fixture))
            .unwrap_or_else(|e| panic!("missing fixture {} ({e})", case.fixture));
        for (label, graph) in load_dataset_alt_backends(case.dataset) {
            let actual = render_case(case, &graph);
            assert!(
                expected == actual,
                "storage backend {label} diverged from the owned-backend fixture {}: {}",
                case.fixture,
                first_divergence(&expected, &actual)
            );
        }
    }
}
