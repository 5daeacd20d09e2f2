//! Definition 1 conformance: TEA, TEA+ and Monte-Carlo answers checked
//! against `exact_hkpr` under the strict (d, eps_r, delta) bound of the
//! source paper (see `definition1/check.rs`).
//!
//! Each method promises that an answer fails the bound with probability
//! at most p_f. So the harness never asserts that no run fails, and never
//! asserts that some do (the union bounds make no failures the expected
//! reading): it asserts that the failure count over all runs stays inside
//! the upper tail of the count independent runs failing with probability
//! p_f each would give. Per case it reports the runs, the failures, the
//! worst |error| / allowance over all runs and nodes, how many nodes sit
//! above delta (a case with none is trivial: every node is held to the
//! absolute bound alone), how many runs walked and how many were degraded.
//!
//! Besides the three full-accuracy methods, every point runs TEA+ with its
//! push ladder cut after k in {1, 2, 3} certified tiers
//! (`AnytimeControls::push_tier_cap`) and its walk ladder uncapped, and
//! Monte-Carlo with its walk ladder cut after k in {1, 2, 3} tiers
//! (`AnytimeControls::walk_tier_cap`). Such an answer is degraded, and is
//! held to the `eps_r_achieved` it reports. Monte-Carlo's walks come from
//! one entry, so a cut ladder keeps an i.i.d. sample of them. TEA's and
//! TEA+'s walk-cut answers are not checked here: their plan orders its
//! chunks by residue entry, so a cut ladder keeps the first entries'
//! walks, its estimate is biased and its `eps_r_achieved` is not a
//! certificate (recorded as an open defect in ROADMAP.md).
//!
//! The grid: `holme_kim(3000, 3, 0.3)` at (t, delta, p_f) in {(5, 1e-3,
//! 0.05), (5, 2e-4, 0.05), (5, 2e-4, 1e-6), (10, 2e-4, 0.05)}, and
//! `planted_partition(5, 200, 0.05, 0.005)` at (5, 1e-3, 0.05), all at
//! eps_r = 0.5. A graph seed fixes the graph and its query node; each run
//! draws the estimator's randomness from its own stream. Tier-1 runs a
//! slice of the grid sized for a debug build (two seeds times two
//! streams, 180 runs, ≈4 s on a 2-vCPU guest); the full grid (five seeds
//! times 40 streams, 9,000 runs, ≈16 s optimized on the same guest) is
//! `#[ignore]`d, for release builds:
//!
//! ```sh
//! cargo test -q --release -p hkpr-core --test definition1 -- --include-ignored --nocapture
//! ```

#[path = "definition1/check.rs"]
mod check;

use hk_graph::gen::{holme_kim, planted_partition};
use hk_graph::{Graph, NodeId};
use hkpr_core::{
    estimate_in, exact_hkpr, AnytimeControls, Estimator, HkprEstimate, HkprParams, QueryWorkspace,
};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};

const EPS_R: f64 = 0.5;

/// Chance that the failure count of a correct implementation exceeds the
/// asserted allowance.
const FALSE_ALARM: f64 = 1e-6;

#[derive(Clone, Copy, Debug, PartialEq)]
enum Family {
    HolmeKim,
    Planted,
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Method {
    Tea,
    TeaPlus,
    MonteCarlo,
    /// TEA+ with its push ladder cut after this many certified tiers and
    /// its walk ladder uncapped.
    TeaPlusPushCut(u32),
    /// Monte-Carlo with its walk ladder cut after this many tiers.
    MonteCarloWalkCut(u32),
}

const METHODS: [Method; 9] = [
    Method::Tea,
    Method::TeaPlus,
    Method::MonteCarlo,
    Method::TeaPlusPushCut(1),
    Method::TeaPlusPushCut(2),
    Method::TeaPlusPushCut(3),
    Method::MonteCarloWalkCut(1),
    Method::MonteCarloWalkCut(2),
    Method::MonteCarloWalkCut(3),
];

/// One point of the grid: a graph family at `(t, delta, p_f)`.
#[derive(Clone, Copy)]
struct Point {
    family: Family,
    t: f64,
    delta: f64,
    p_f: f64,
}

const GRID: [Point; 5] = [
    Point {
        family: Family::HolmeKim,
        t: 5.0,
        delta: 1e-3,
        p_f: 0.05,
    },
    Point {
        family: Family::HolmeKim,
        t: 5.0,
        delta: 2e-4,
        p_f: 0.05,
    },
    Point {
        family: Family::HolmeKim,
        t: 5.0,
        delta: 2e-4,
        p_f: 1e-6,
    },
    Point {
        family: Family::HolmeKim,
        t: 10.0,
        delta: 2e-4,
        p_f: 0.05,
    },
    Point {
        family: Family::Planted,
        t: 5.0,
        delta: 1e-3,
        p_f: 0.05,
    },
];

/// The graph of `family` at graph seed `seed`, and its query node.
fn instance(family: Family, seed: u64) -> (Graph, NodeId) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let graph = match family {
        Family::HolmeKim => holme_kim(3000, 3, 0.3, &mut rng).unwrap(),
        Family::Planted => {
            planted_partition(5, 200, 0.05, 0.005, &mut rng)
                .unwrap()
                .graph
        }
    };
    let node = rng.random_range(0..graph.num_nodes() as NodeId);
    (graph, node)
}

/// One case — a point and a method — over its seeds and streams.
struct Case {
    point: Point,
    method: Method,
    runs: usize,
    failures: usize,
    worst_ratio: f64,
    /// Fewest and most nodes above delta over the case's seeds.
    above_delta: (usize, usize),
    /// Runs that walked (TEA+ may exit after its push).
    walked: usize,
    /// Runs whose answer is degraded (`AccuracyTier::is_degraded`).
    degraded: usize,
}

impl Case {
    fn trivial(&self) -> bool {
        self.above_delta.1 == 0
    }
}

/// One run's answer, with the eps_r it is held to.
struct Answer {
    estimate: HkprEstimate,
    eps_r: f64,
    walked: bool,
    degraded: bool,
}

fn run(
    method: Method,
    graph: &Graph,
    params: &HkprParams,
    node: NodeId,
    rng: &mut SmallRng,
    ws: &mut QueryWorkspace,
) -> Answer {
    let tea_plus = Estimator::TeaPlus(Default::default());
    let monte_carlo = Estimator::MonteCarlo { max_walks: None };
    let (estimator, push_tier_cap, walk_tier_cap) = match method {
        Method::Tea => (Estimator::Tea { rmax: None }, None, None),
        Method::TeaPlus => (tea_plus, None, None),
        Method::MonteCarlo => (monte_carlo, None, None),
        Method::TeaPlusPushCut(tiers) => (tea_plus, Some(tiers), None),
        Method::MonteCarloWalkCut(tiers) => (monte_carlo, None, Some(tiers)),
    };
    let controls = AnytimeControls {
        push_tier_cap,
        walk_tier_cap,
        ..Default::default()
    };
    let out = estimate_in(graph, params, node, estimator, controls, rng, ws).unwrap();
    // Only a cut may degrade an answer here; it is held to its own
    // `eps_r_achieved`, which is `eps_r` for a complete one.
    let cut = push_tier_cap.is_some() || walk_tier_cap.is_some();
    assert!(cut || !out.achieved.is_degraded());
    Answer {
        walked: out.stats.random_walks > 0,
        estimate: out.estimate,
        eps_r: out.achieved.eps_r_achieved,
        degraded: out.achieved.is_degraded(),
    }
}

/// Run every grid point with every method at each of `seeds`, `streams`
/// runs apiece, and report each case on stderr.
fn run_grid(seeds: &[u64], streams: u64) -> Vec<Case> {
    let mut cases = Vec::new();
    let mut ws = QueryWorkspace::new();
    for point in GRID {
        let mut point_cases: Vec<Case> = METHODS
            .iter()
            .map(|&method| Case {
                point,
                method,
                runs: 0,
                failures: 0,
                worst_ratio: 0.0,
                above_delta: (usize::MAX, 0),
                walked: 0,
                degraded: 0,
            })
            .collect();
        for &seed in seeds {
            let (graph, node) = instance(point.family, seed);
            let params = HkprParams::builder(&graph)
                .t(point.t)
                .eps_r(EPS_R)
                .delta(point.delta)
                .p_f(point.p_f)
                .build()
                .unwrap();
            let exact = exact_hkpr(&graph, params.poisson(), node);
            for case in &mut point_cases {
                for stream in 0..streams {
                    let mut rng = SmallRng::seed_from_u64(seed << 32 | stream);
                    let out = run(case.method, &graph, &params, node, &mut rng, &mut ws);
                    let c = check::check(&graph, &params, out.eps_r, &exact, &out.estimate);
                    case.runs += 1;
                    case.failures += usize::from(!c.holds());
                    case.worst_ratio = case.worst_ratio.max(c.worst_ratio);
                    case.above_delta.0 = case.above_delta.0.min(c.above_delta);
                    case.above_delta.1 = case.above_delta.1.max(c.above_delta);
                    case.walked += usize::from(out.walked);
                    case.degraded += usize::from(out.degraded);
                }
            }
        }
        cases.extend(point_cases);
    }
    for c in &cases {
        let p = c.point;
        eprintln!(
            "{:?} t={} delta={:e} p_f={:e} {:?}: {} runs, {} failed, worst |error|/allowance {:.3}, \
             {}..={} nodes above delta{}, {} walked, {} degraded",
            p.family,
            p.t,
            p.delta,
            p.p_f,
            c.method,
            c.runs,
            c.failures,
            c.worst_ratio,
            c.above_delta.0,
            c.above_delta.1,
            if c.trivial() { " (trivial)" } else { "" },
            c.walked,
            c.degraded,
        );
    }
    cases
}

/// The smallest `k` with `P[X > k] < alpha`, where `X` counts the
/// failures of independent runs that fail with probabilities `ps`.
fn failure_allowance(ps: &[f64], alpha: f64) -> usize {
    // pmf[j] = P[X = j] over the runs folded in so far.
    let mut pmf = vec![0.0; ps.len() + 1];
    pmf[0] = 1.0;
    for (i, &p) in ps.iter().enumerate() {
        for j in (0..=i + 1).rev() {
            let stay = pmf[j] * (1.0 - p);
            pmf[j] = if j > 0 { stay + pmf[j - 1] * p } else { stay };
        }
    }
    (0..=ps.len())
        .find(|&k| pmf[k + 1..].iter().sum::<f64>() < alpha)
        .unwrap()
}

/// Assert the grid's failures are consistent with p_f, and that it
/// covers a non-trivial case in which TEA+ walks and non-trivial cases
/// whose push-cut and Monte-Carlo walk-cut answers are degraded.
fn assert_conforms(cases: &[Case]) {
    let p_fs: Vec<f64> = cases
        .iter()
        .flat_map(|c| std::iter::repeat_n(c.point.p_f, c.runs))
        .collect();
    let failures: usize = cases.iter().map(|c| c.failures).sum();
    let allowed = failure_allowance(&p_fs, FALSE_ALARM);
    eprintln!(
        "{failures} of {} runs failed; at most {allowed} allowed",
        p_fs.len()
    );
    assert!(
        failures <= allowed,
        "{failures} of {} runs failed Definition 1, above the {allowed} p_f allows",
        p_fs.len()
    );
    assert!(
        cases
            .iter()
            .any(|c| c.method == Method::TeaPlus && !c.trivial() && c.walked > 0),
        "no non-trivial case in which TEA+ walks"
    );
    assert!(
        cases
            .iter()
            .any(|c| matches!(c.method, Method::TeaPlusPushCut(_))
                && !c.trivial()
                && c.degraded > 0),
        "no non-trivial case with a degraded push-cut answer"
    );
    assert!(
        cases
            .iter()
            .any(|c| matches!(c.method, Method::MonteCarloWalkCut(_))
                && !c.trivial()
                && c.degraded > 0),
        "no non-trivial case with a degraded Monte-Carlo walk-cut answer"
    );
}

#[test]
fn failure_allowance_is_a_binomial_upper_tail() {
    // Bin(20, 0.05): P[X > 5] = 3.3e-4, P[X > 6] = 3.4e-5.
    assert_eq!(failure_allowance(&[0.05; 20], 1e-4), 6);
    // One run at p_f = 1e-6 fails with probability 1e-6, not below it.
    assert_eq!(failure_allowance(&[1e-6], 1e-6), 1);
    assert_eq!(failure_allowance(&[1e-9; 10], 1e-6), 0);
}

#[test]
fn definition1_holds_within_p_f_on_a_tier1_grid() {
    assert_conforms(&run_grid(&[3, 4], 2));
}

#[test]
#[ignore = "the probe's full grid: five seeds times 40 streams, for release builds"]
fn definition1_holds_within_p_f_on_the_full_grid() {
    assert_conforms(&run_grid(&[1, 2, 3, 4, 5], 40));
}
