//! Everything a run is given: the graph snapshot and the request list,
//! both functions of `--seed` alone.
//!
//! The snapshot is generated and saved by a **child process** so that
//! neither `setup_s` nor `peak_rss_mb` of the measured process ever
//! contains the generator or `GraphBuilder` (PR 11's `setup_s` timed the
//! generator: 0.88–2.52 s run to run for the identical graph).

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

use hk_graph::gen::holme_kim;
use hk_graph::io::save_binary_v2;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

/// Holme–Kim links per arriving node. Deliberate: on this family m=3 is
/// where TEA+ actually walks (measured early-exit share: m=3 → 0.00,
/// m=5 → 0.47 — a bimodal latency whose p50 sits on a mode boundary —
/// m=10 → 1.00), so one graph carries a push-bound and a walk-bound
/// parameter point.
pub const HK_M_PER: usize = 3;
/// Holme–Kim triad-formation probability.
pub const HK_P_TRIAD: f64 = 0.3;

/// Independent sub-seed `stream` of `seed` (splitmix64 finalizer), so the
/// graph and the request list never share a generator state.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

const STREAM_GRAPH: u64 = 1;
const STREAM_REQUESTS: u64 = 2;

/// A generated snapshot on disk plus what the child reported about it.
#[derive(Clone, Debug)]
pub struct Snapshot {
    pub path: PathBuf,
    pub nodes: usize,
    pub edges: usize,
    pub bytes: u64,
    pub gen_s: f64,
    pub save_s: f64,
    pub fingerprint: u64,
}

/// Body of the `gen` child: generate, save as `.hkg` v2, report on stdout.
pub fn gen_child(nodes: usize, seed: u64, path: &Path) -> Result<(), String> {
    let t0 = Instant::now();
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, STREAM_GRAPH));
    let graph = holme_kim(nodes, HK_M_PER, HK_P_TRIAD, &mut rng).map_err(|e| e.to_string())?;
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    save_binary_v2(&graph, path).map_err(|e| e.to_string())?;
    let save_s = t1.elapsed().as_secs_f64();
    println!(
        "gen_s={gen_s} save_s={save_s} nodes={} edges={} fingerprint={}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.fingerprint()
    );
    Ok(())
}

/// Spawn the `gen` child of this executable and wait for it.
pub fn generate(nodes: usize, seed: u64, out_dir: &Path) -> Result<Snapshot, String> {
    let path = out_dir.join(format!("graph-{seed}-{nodes}-{}.hkg", std::process::id()));
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .arg("gen")
        .arg(nodes.to_string())
        .arg(seed.to_string())
        .arg(&path)
        .output()
        .map_err(|e| format!("spawn gen child: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "gen child failed: {}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = String::from_utf8_lossy(&output.stdout);
    Ok(Snapshot {
        nodes: field(&line, "nodes")?,
        edges: field(&line, "edges")?,
        bytes: std::fs::metadata(&path)
            .map_err(|e| format!("stat snapshot: {e}"))?
            .len(),
        gen_s: field(&line, "gen_s")?,
        save_s: field(&line, "save_s")?,
        fingerprint: field(&line, "fingerprint")?,
        path,
    })
}

/// The value of `key` in a child's `key=value key=value …` report line.
pub fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("child report lacks a valid {key}: {line:?}"))
}

/// One slot of a request list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Seed node of the query.
    pub node: u32,
    /// RNG stream of the query; part of the serving cache's key, so two
    /// slots are the same cache entry iff node and stream agree.
    pub rng_seed: u64,
}

/// How a workload draws its request list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Draw {
    /// `slots` independent uniform nodes, stream = slot index: every
    /// slot is a distinct computation.
    Uniform,
    /// `hot` distinct uniform nodes cycled in order, stream = index in
    /// the hot set: after one pass every slot is a repeat.
    HotCycle { hot: usize },
    /// Zipf(`s`) over `pool` distinct uniform nodes (draw order is the
    /// popularity rank, i.e. a seeded permutation), stream = rank.
    Zipf { pool: usize, s: f64 },
}

/// The request list of a workload: a function of `(seed, nodes, draw,
/// slots)` only — the graph itself is never consulted.
pub fn request_list(seed: u64, nodes: usize, draw: Draw, slots: usize) -> Vec<Request> {
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, STREAM_REQUESTS));
    let n = u32::try_from(nodes).expect("node ids are u32");
    let keyed = |set: &[u32], index: usize| Request {
        node: set[index],
        rng_seed: index as u64,
    };
    match draw {
        Draw::Uniform => (0..slots)
            .map(|slot| Request {
                node: rng.random_range(0..n),
                rng_seed: slot as u64,
            })
            .collect(),
        Draw::HotCycle { hot } => {
            let set = distinct_nodes(n, hot, &mut rng);
            (0..slots).map(|slot| keyed(&set, slot % hot)).collect()
        }
        Draw::Zipf { pool, s } => {
            let set = distinct_nodes(n, pool, &mut rng);
            zipf_ranks(pool, slots, s, &mut rng)
                .into_iter()
                .map(|rank| keyed(&set, rank))
                .collect()
        }
    }
}

/// The `count` most popular keys of a keyed draw (hot-set index or Zipf
/// rank `0..count`), as requests. Their RNG streams are `0, 1, 2, …`,
/// which is exactly how `hk_serve::run_batch` numbers a batch — one
/// `run_batch` call answers all of them in process.
pub fn top_keys(seed: u64, nodes: usize, draw: Draw, count: usize) -> Vec<Request> {
    let size = match draw {
        Draw::Uniform => 0,
        Draw::HotCycle { hot } => hot,
        Draw::Zipf { pool, .. } => pool,
    };
    let mut rng = SmallRng::seed_from_u64(sub_seed(seed, STREAM_REQUESTS));
    let n = u32::try_from(nodes).expect("node ids are u32");
    distinct_nodes(n, size, &mut rng)
        .into_iter()
        .take(count)
        .enumerate()
        .map(|(index, node)| Request {
            node,
            rng_seed: index as u64,
        })
        .collect()
}

/// `k` distinct uniform node ids, in draw order.
fn distinct_nodes(n: u32, k: usize, rng: &mut SmallRng) -> Vec<u32> {
    assert!(k <= n as usize, "cannot draw {k} distinct nodes out of {n}");
    let mut seen = HashSet::with_capacity(k);
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.random_range(0..n);
        if seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// `slots` ranks in `0..pool` following Zipf(`s`), by **systematic
/// sampling**: the `slots` evenly spaced quantiles `(k + u) / slots` of
/// the Zipf distribution for one uniform `u`, then a seeded shuffle.
/// Every rank's count is within one of its expectation, so the request
/// mix (and with it the cache hit share) does not carry the multinomial
/// noise an i.i.d. draw of a few hundred requests would — at 240 slots
/// that noise alone would move the hit share by ±3 points between seeds.
pub fn zipf_ranks(pool: usize, slots: usize, s: f64, rng: &mut SmallRng) -> Vec<usize> {
    assert!(pool > 0 && slots > 0);
    let weights: Vec<f64> = (1..=pool).map(|r| (r as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let u: f64 = rng.random();
    let mut ranks = Vec::with_capacity(slots);
    let mut rank = 0;
    let mut cdf = weights[0] / total;
    for k in 0..slots {
        let q = (k as f64 + u) / slots as f64;
        while cdf < q && rank + 1 < pool {
            rank += 1;
            cdf += weights[rank] / total;
        }
        ranks.push(rank);
    }
    // Fisher–Yates.
    for i in (1..ranks.len()).rev() {
        ranks.swap(i, rng.random_range(0..=i));
    }
    ranks
}

/// Expected share of requests that go to `rank` under Zipf(`s`).
#[cfg(test)]
fn zipf_share(pool: usize, s: f64, rank: usize) -> f64 {
    let total: f64 = (1..=pool).map(|r| (r as f64).powf(-s)).sum();
    ((rank + 1) as f64).powf(-s) / total
}

#[cfg(test)]
mod tests {
    use super::*;

    const DRAWS: [Draw; 3] = [
        Draw::Uniform,
        Draw::HotCycle { hot: 64 },
        Draw::Zipf { pool: 2000, s: 1.0 },
    ];

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        for draw in DRAWS {
            let a = request_list(7, 1_000_000, draw, 240);
            let b = request_list(7, 1_000_000, draw, 240);
            let c = request_list(8, 1_000_000, draw, 240);
            assert_eq!(a, b, "{draw:?}");
            assert_ne!(a, c, "{draw:?}");
            assert!(a.iter().all(|r| (r.node as usize) < 1_000_000));
        }
    }

    #[test]
    fn uniform_slots_are_distinct_keys_hot_slots_repeat() {
        let uni = request_list(3, 1_000_000, Draw::Uniform, 160);
        let keys: HashSet<_> = uni.iter().map(|r| (r.node, r.rng_seed)).collect();
        assert_eq!(keys.len(), 160);
        let hot = request_list(3, 1_000_000, Draw::HotCycle { hot: 64 }, 512);
        let keys: HashSet<_> = hot.iter().map(|r| (r.node, r.rng_seed)).collect();
        assert_eq!(keys.len(), 64);
        assert_eq!(hot[0], hot[64]);
    }

    #[test]
    fn top_keys_are_the_lists_own_keys_numbered_like_a_batch() {
        let draw = Draw::Zipf { pool: 2000, s: 1.0 };
        let top = top_keys(5, 1_000_000, draw, 32);
        assert_eq!(top.len(), 32);
        assert!(top.iter().enumerate().all(|(i, r)| r.rng_seed == i as u64));
        // Rank 0 is in every Zipf list, under the same key.
        assert!(request_list(5, 1_000_000, draw, 240).contains(&top[0]));
        let hot = Draw::HotCycle { hot: 6 };
        assert_eq!(
            top_keys(5, 20_000, hot, 32),
            request_list(5, 20_000, hot, 6)
        );
        assert!(top_keys(5, 20_000, Draw::Uniform, 32).is_empty());
    }

    #[test]
    fn zipf_counts_are_within_one_of_expectation() {
        let mut rng = SmallRng::seed_from_u64(11);
        let (pool, slots, s) = (2000, 240, 1.0);
        let ranks = zipf_ranks(pool, slots, s, &mut rng);
        assert_eq!(ranks.len(), slots);
        let mut counts = vec![0usize; pool];
        for &r in &ranks {
            counts[r] += 1;
        }
        for (rank, &c) in counts.iter().enumerate() {
            let expect = zipf_share(pool, s, rank) * slots as f64;
            assert!(
                (c as f64 - expect).abs() < 1.0 + 1e-9,
                "rank {rank}: {c} draws, expected {expect:.3}"
            );
        }
        // Rank 0 carries 1/H_2000 ≈ 12.2 % of the traffic.
        assert!((28..=30).contains(&counts[0]), "{}", counts[0]);
        // The shuffle is seeded: same generator state, same order.
        let again = zipf_ranks(pool, slots, s, &mut SmallRng::seed_from_u64(11));
        assert_eq!(ranks, again);
        assert_ne!(ranks, {
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            sorted
        });
    }

    #[test]
    fn generator_is_a_function_of_the_seed() {
        let exe = std::env::current_exe().unwrap();
        let dir = exe
            .parent()
            .unwrap()
            .join(format!("gen-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let print = |seed: u64, name: &str| {
            let path = dir.join(name);
            gen_child(5_000, seed, &path).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            let graph = hk_graph::io::load_binary_mmap(&path).unwrap();
            (bytes, graph.fingerprint())
        };
        let (a_bytes, a_fp) = print(42, "a.hkg");
        let (b_bytes, b_fp) = print(42, "b.hkg");
        let (c_bytes, c_fp) = print(43, "c.hkg");
        assert!(
            a_bytes == b_bytes,
            "same seed must give a byte-identical snapshot"
        );
        assert_eq!(a_fp, b_fp);
        assert!(a_bytes != c_bytes);
        assert_ne!(a_fp, c_fp);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
