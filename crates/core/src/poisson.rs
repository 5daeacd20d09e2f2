//! Poisson weight tables: `eta(k)`, tails `psi(k)` and walk-stop
//! probabilities.
//!
//! The heat kernel weights random-walk lengths by the Poisson distribution
//!
//! ```text
//! eta(k)  = e^{-t} t^k / k!                       (Equation 1)
//! psi(k)  = sum_{l >= k} eta(l)                   (Equation 3)
//! ```
//!
//! Every algorithm in this crate consumes these through a precomputed
//! [`PoissonTable`]: HK-Push's reserve conversion uses `eta(k)/psi(k)`
//! (Algorithm 1, line 4), `k-RandomWalk` stops at hop `k` with probability
//! `eta(k)/psi(k)` (Algorithm 2, line 4), and the Monte-Carlo baseline
//! samples walk lengths directly from `eta`.

use std::sync::OnceLock;

use rand::{Rng, RngExt};

use crate::alias::AliasTable;

/// Precomputed Poisson weights for a fixed heat constant `t`.
///
/// Tables are truncated at `k_max`, the first index whose tail mass
/// `psi(k)` drops below `1e-15`; beyond it the stop probability is defined
/// as 1 (the true limit of `eta(k)/psi(k)` as `k -> ∞`), so no probability
/// mass is ever lost.
#[derive(Clone, Debug)]
pub struct PoissonTable {
    t: f64,
    eta: Vec<f64>,
    psi: Vec<f64>,
    /// Cumulative distribution `cdf[k] = sum_{l <= k} eta(l)`, for inverse-
    /// transform sampling of walk lengths.
    cdf: Vec<f64>,
    /// Per-start-hop walk-length alias tables, built lazily on first use
    /// by the batched walk engine (see [`LengthTables`]). `OnceLock`
    /// keeps construction O(k_max) for the many callers — exact power
    /// iteration, HK-Relax, parameter validation — that never walk.
    lengths: OnceLock<LengthTables>,
}

/// Exact walk-length distributions, one alias table per start hop.
///
/// A `k-RandomWalk` standing at hop `k` stops at hop `h >= k` with
/// probability
///
/// ```text
/// P[stop at h | at k] = prod_{j=k}^{h-1} (1 - eta(j)/psi(j)) * eta(h)/psi(h)
///                     = prod_{j=k}^{h-1} (psi(j+1)/psi(j))   * eta(h)/psi(h)
///                     = eta(h) / psi(k)                       (telescoping)
/// ```
///
/// so the walk's *length* `h - k` can be sampled exactly, up front, from
/// an alias table over the Poisson tail `eta(k..)` renormalized by
/// `psi(k)` — no per-step stop draw ever needs to happen. The tables
/// truncate where [`PoissonTable`] does: the final column carries the
/// whole remaining tail `psi(k_max)`, matching the table's "certain stop
/// at `k_max`" convention, so no probability mass is lost.
///
/// Construction is `O(k_max^2)` columns (~32 KB for the paper's `t = 40`,
/// low MB at the supported ceiling `t ≈ 700`), done once per
/// [`PoissonTable`] via [`PoissonTable::length_tables`]; each sample is
/// O(1) and consumes one `u64` draw. Tables are stored in the *packed*
/// alias form only — 8 bytes per column (Q0.32 acceptance threshold +
/// alias index) — because every consumer draws through the one-load fast
/// path; the f64 probability arrays a full [`AliasTable`] carries would
/// be dead weight here.
#[derive(Clone, Debug)]
pub struct LengthTables {
    /// `tables[k]` samples `stop_hop - k` for a walk standing at hop `k`.
    tables: Vec<LengthSampler>,
}

/// One start hop's walk-length distribution in packed alias form.
#[derive(Clone, Debug)]
pub struct LengthSampler {
    fast: Box<[u64]>,
}

impl LengthSampler {
    /// Draw a length (one `u64`; same draw pattern and bits as
    /// [`AliasTable::sample_fast`] over the same weights).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        crate::alias::sample_packed(&self.fast, rng)
    }
}

impl LengthTables {
    fn new(p: &PoissonTable) -> Self {
        let k_max = p.k_max();
        let mut tables = Vec::with_capacity(k_max + 1);
        let mut weights = Vec::with_capacity(k_max + 1);
        for k in 0..=k_max {
            weights.clear();
            weights.extend_from_slice(&p.eta[k..k_max]);
            weights.push(p.psi[k_max]);
            tables.push(LengthSampler {
                fast: AliasTable::new(&weights).into_packed(),
            });
        }
        LengthTables { tables }
    }

    /// Sample the number of steps a walk standing at hop `k` takes before
    /// its stop draw fires. Hops beyond the table stop immediately
    /// (length 0, no RNG draw), mirroring [`PoissonTable::stop_prob`]'s
    /// "1 beyond the table".
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, k: usize, rng: &mut R) -> usize {
        match self.tables.get(k) {
            Some(t) => t.sample(rng),
            None => 0,
        }
    }

    /// The length sampler for start hop `k`, or `None` beyond the Poisson
    /// truncation (where a walk stops immediately). The walk engine binds
    /// this once per `(hop, node)` work group instead of re-resolving it
    /// per walk.
    #[inline]
    pub fn table(&self, k: usize) -> Option<&LengthSampler> {
        self.tables.get(k)
    }

    /// Number of start hops covered (`k_max + 1`).
    pub fn num_hops(&self) -> usize {
        self.tables.len()
    }

    /// Bytes held by the packed tables (`O(k_max^2)` columns, 8 bytes
    /// each).
    pub fn memory_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.fast.len() * std::mem::size_of::<u64>())
            .sum()
    }
}

/// Tail mass below which the tables are truncated.
const TAIL_EPS: f64 = 1e-15;

impl PoissonTable {
    /// Build tables for heat constant `t > 0`.
    ///
    /// # Panics
    /// Panics if `t` is not a positive finite number (parameter validation
    /// happens in [`crate::params::HkprParams`]; this type is the internal
    /// workhorse).
    pub fn new(t: f64) -> Self {
        assert!(
            t.is_finite() && t > 0.0,
            "heat constant t must be positive, got {t}"
        );
        // Forward recurrence: eta(0) = e^-t, eta(k) = eta(k-1) * t / k.
        // f64 handles t up to ~700 before e^-t underflows; the paper uses
        // t in [3, 40].
        let mut eta = Vec::with_capacity(2 * t as usize + 64);
        let mut e = (-t).exp();
        assert!(e > 0.0, "e^-t underflowed; t={t} too large for f64 tables");
        let mut cum = 0.0f64;
        let mut k = 0usize;
        loop {
            eta.push(e);
            cum += e;
            // Stop once the remaining tail is negligible *and* we are past
            // the mode (cum grows monotonically; past the mode eta decays
            // geometrically). The `cum` test alone is not robust: for
            // t ≳ 42 the accumulated rounding error of the forward sum
            // exceeds TAIL_EPS, so `cum` can converge to a value strictly
            // below `1 - TAIL_EPS` and the first condition never fires.
            // The second condition is sound on its own — past the mode
            // (`k > t`) the terms decay at ratio `t/(k+1) < 1`, and once
            // `k > 2t` the remaining tail is bounded by `2 * eta(k)`.
            if k as f64 > t && (1.0 - cum < TAIL_EPS || (e < TAIL_EPS * 1e-3 && k as f64 > 2.0 * t))
            {
                break;
            }
            k += 1;
            e *= t / k as f64;
            if k > 100_000 {
                unreachable!("Poisson table failed to converge for t={t}");
            }
        }
        // Backward tail sums for accuracy: psi[k] = eta[k] + psi[k+1].
        let mut psi = vec![0.0; eta.len()];
        let mut tail = 0.0;
        for i in (0..eta.len()).rev() {
            tail += eta[i];
            psi[i] = tail;
        }
        let mut cdf = Vec::with_capacity(eta.len());
        let mut acc = 0.0;
        for &x in &eta {
            acc += x;
            cdf.push(acc);
        }
        PoissonTable {
            t,
            eta,
            psi,
            cdf,
            lengths: OnceLock::new(),
        }
    }

    /// The per-start-hop walk-length distributions of this table, built
    /// on first call and cached for the table's lifetime (clones carry
    /// the cache along). See [`LengthTables`].
    pub fn length_tables(&self) -> &LengthTables {
        self.lengths.get_or_init(|| LengthTables::new(self))
    }

    /// The heat constant this table was built for.
    #[inline]
    pub fn t(&self) -> f64 {
        self.t
    }

    /// Last tabulated index; `psi(k_max)` is the final sliver of tail mass.
    #[inline]
    pub fn k_max(&self) -> usize {
        self.eta.len() - 1
    }

    /// `eta(k) = e^{-t} t^k / k!`; 0 beyond the table.
    #[inline]
    pub fn eta(&self, k: usize) -> f64 {
        self.eta.get(k).copied().unwrap_or(0.0)
    }

    /// `psi(k) = sum_{l >= k} eta(l)`; 0 beyond the table.
    #[inline]
    pub fn psi(&self, k: usize) -> f64 {
        self.psi.get(k).copied().unwrap_or(0.0)
    }

    /// Probability that a heat-kernel walk standing at hop `k` terminates
    /// there: `eta(k) / psi(k)`, defined as 1 beyond the table (the limit
    /// of the ratio, since `eta(k+1)/eta(k) = t/(k+1) -> 0`).
    #[inline]
    pub fn stop_prob(&self, k: usize) -> f64 {
        match (self.eta.get(k), self.psi.get(k)) {
            (Some(&e), Some(&p)) if p > 0.0 => (e / p).min(1.0),
            _ => 1.0,
        }
    }

    /// Sample a walk length from the Poisson distribution (inverse
    /// transform over the tabulated CDF; O(log k_max)).
    pub fn sample_length<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // partition_point returns the first index with cdf > u.
        self.cdf.partition_point(|&c| c <= u).min(self.k_max())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn eta_matches_closed_form() {
        let p = PoissonTable::new(5.0);
        let e5 = (-5.0f64).exp();
        assert!((p.eta(0) - e5).abs() < 1e-18);
        assert!((p.eta(1) - 5.0 * e5).abs() < 1e-16);
        assert!((p.eta(3) - 125.0 / 6.0 * e5).abs() < 1e-15);
    }

    #[test]
    fn weights_sum_to_one() {
        for t in [0.5, 3.0, 5.0, 10.0, 40.0, 80.0] {
            let p = PoissonTable::new(t);
            let sum: f64 = (0..=p.k_max()).map(|k| p.eta(k)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "t={t}: sum={sum}");
            assert!((p.psi(0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn converges_for_any_t_in_the_supported_range() {
        // Regression: for some t (e.g. ~42.17) the forward sum's rounding
        // error keeps `cum` strictly below 1 - TAIL_EPS forever, so the
        // old cum-only termination never fired and construction hit the
        // 100k iteration backstop. A dense sweep over awkward values must
        // build and stay normalized.
        let mut t = 0.31f64;
        while t < 120.0 {
            let p = PoissonTable::new(t);
            let sum: f64 = (0..=p.k_max()).map(|k| p.eta(k)).sum();
            assert!((sum - 1.0).abs() < 1e-12, "t={t}: sum={sum}");
            t *= 1.083; // lands on many "unlucky" fractional values
        }
        // The exact t that originally hung.
        let p = PoissonTable::new(42.169_650_342_858_226);
        assert!(p.k_max() < 1000);
    }

    #[test]
    fn psi_is_monotone_decreasing_tail() {
        let p = PoissonTable::new(7.0);
        for k in 0..p.k_max() {
            assert!(p.psi(k) >= p.psi(k + 1));
            assert!((p.psi(k) - (p.eta(k) + p.psi(k + 1))).abs() < 1e-15);
        }
    }

    #[test]
    fn stop_prob_in_unit_interval_and_limits() {
        let p = PoissonTable::new(5.0);
        for k in 0..=p.k_max() + 5 {
            let s = p.stop_prob(k);
            assert!((0.0..=1.0).contains(&s), "stop_prob({k}) = {s}");
        }
        // Beyond the table the walk must stop.
        assert_eq!(p.stop_prob(p.k_max() + 1), 1.0);
        // Early hops of a t=5 walk rarely stop.
        assert!(p.stop_prob(0) < 0.01);
    }

    #[test]
    fn k_max_scales_with_t() {
        let small = PoissonTable::new(1.0);
        let large = PoissonTable::new(40.0);
        assert!(large.k_max() > small.k_max());
        // Mean of Poisson(t) is t; k_max must comfortably exceed it.
        assert!(large.k_max() as f64 > 40.0);
    }

    #[test]
    fn sampled_lengths_match_distribution() {
        let p = PoissonTable::new(5.0);
        let mut rng = SmallRng::seed_from_u64(17);
        let n = 200_000;
        let mut counts = vec![0usize; p.k_max() + 1];
        let mut total = 0.0f64;
        for _ in 0..n {
            let k = p.sample_length(&mut rng);
            counts[k] += 1;
            total += k as f64;
        }
        let mean = total / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "sample mean {mean}");
        // Chi-squared-ish check on the head of the distribution.
        for (k, &count) in counts.iter().enumerate().take(12) {
            let expect = p.eta(k) * n as f64;
            let got = count as f64;
            assert!(
                (got - expect).abs() < 6.0 * expect.sqrt().max(3.0),
                "k={k}: got {got}, expected {expect}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_t() {
        let _ = PoissonTable::new(0.0);
    }

    #[test]
    fn length_tables_cover_every_start_hop() {
        let p = PoissonTable::new(5.0);
        let lt = p.length_tables();
        assert_eq!(lt.num_hops(), p.k_max() + 1);
        // Cached: second call returns the same allocation.
        assert!(std::ptr::eq(lt, p.length_tables()));
        // Beyond the table a walk stops on the spot.
        let mut rng = SmallRng::seed_from_u64(31);
        assert_eq!(lt.sample(p.k_max() + 3, &mut rng), 0);
        // At k_max the stop probability is 1: length always 0.
        for _ in 0..50 {
            assert_eq!(lt.sample(p.k_max(), &mut rng), 0);
        }
    }

    #[test]
    fn presampled_lengths_match_telescoped_tail_distribution() {
        // Chi-square-style check of the telescoping identity: a walk at
        // hop k stops at hop k+l with probability eta(k+l)/psi(k), so the
        // sampled length histogram must match the renormalized Poisson
        // tail for every start hop — the exact distribution the per-step
        // stop test realizes one draw at a time.
        let p = PoissonTable::new(5.0);
        let lt = p.length_tables();
        let n = 200_000usize;
        for k in [0usize, 1, 3, 7] {
            let mut rng = SmallRng::seed_from_u64(33 + k as u64);
            let mut counts = vec![0usize; p.k_max() + 1 - k];
            let mut total_len = 0.0f64;
            for _ in 0..n {
                let l = lt.sample(k, &mut rng);
                counts[l] += 1;
                total_len += l as f64;
            }
            let psi_k = p.psi(k);
            let mut chi2 = 0.0;
            let mut dof = 0usize;
            for (l, &c) in counts.iter().enumerate() {
                let prob = if k + l == p.k_max() {
                    p.psi(p.k_max()) / psi_k
                } else {
                    p.eta(k + l) / psi_k
                };
                let expect = prob * n as f64;
                if expect >= 5.0 {
                    chi2 += (c as f64 - expect).powi(2) / expect;
                    dof += 1;
                }
                // Head-of-distribution tolerance check, same style as
                // sampled_lengths_match_distribution.
                if l < 12 {
                    assert!(
                        (c as f64 - expect).abs() < 6.0 * expect.sqrt().max(3.0),
                        "k={k} l={l}: got {c}, expected {expect}"
                    );
                }
            }
            // chi2 ~ ChiSq(dof - 1); mean dof, sd sqrt(2 dof). 5 sigma.
            assert!(
                chi2 < dof as f64 + 5.0 * (2.0 * dof as f64).sqrt(),
                "k={k}: chi2 {chi2} with {dof} cells"
            );
            // E[len | at hop k] = sum_l l * eta(k+l)/psi(k).
            let mean = total_len / n as f64;
            let expect_mean: f64 = (0..=p.k_max() - k)
                .map(|l| {
                    let prob = if k + l == p.k_max() {
                        p.psi(p.k_max()) / psi_k
                    } else {
                        p.eta(k + l) / psi_k
                    };
                    l as f64 * prob
                })
                .sum();
            assert!(
                (mean - expect_mean).abs() < 0.05,
                "k={k}: mean {mean} vs {expect_mean}"
            );
        }
    }

    #[test]
    fn example_5_4_constants() {
        // §5.4 uses t = 3: eta(0)/psi(0) = 1/e^3 and
        // eta(1)/psi(1) = 3/(e^3 - 1).
        let p = PoissonTable::new(3.0);
        let e3 = 3.0f64.exp();
        assert!((p.stop_prob(0) - 1.0 / e3).abs() < 1e-12);
        assert!((p.stop_prob(1) - 3.0 / (e3 - 1.0)).abs() < 1e-12);
    }
}
