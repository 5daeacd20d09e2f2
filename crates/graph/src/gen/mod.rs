//! Synthetic graph generators.
//!
//! Two of these reproduce the paper's synthetic datasets exactly:
//!
//! * [`holme_kim`] — the Holme–Kim powerlaw-cluster model; the paper's
//!   *PLC* dataset ("generated by Holme and Kim algorithm for generating
//!   graphs with powerlaw degree distribution and approximate average
//!   clustering", §7.1);
//! * [`grid3d`] — the paper's *3D-grid* ("a synthetic grid graph in
//!   3-dimensional space where every node has six edges, each connecting it
//!   to its 2 neighbors in each dimension", §7.1).
//!
//! The remaining families (Erdős–Rényi, Barabási–Albert, Chung–Lu,
//! planted partition) serve as scaled stand-ins for the SNAP datasets and
//! as ground-truth-community workloads (`hk_bench::datasets` maps each of
//! the paper's Table 7 datasets to one).
//!
//! Every generator takes an explicit [`rand::Rng`] so experiments are
//! reproducible from a single `u64` seed.

mod barabasi_albert;
mod chung_lu;
mod erdos_renyi;
mod grid3d;
mod holme_kim;
mod karate;
mod planted;

pub use barabasi_albert::barabasi_albert;
pub use chung_lu::{chung_lu, powerlaw_weights};
pub use erdos_renyi::{erdos_renyi_gnm, erdos_renyi_gnp};
pub use grid3d::grid3d;
pub use holme_kim::holme_kim;
pub use karate::{karate_admin_faction, karate_club, karate_instructor_faction};
pub use planted::{planted_partition, PlantedPartition};

use rand::{Rng, RngExt};

/// Geometric skip for Bernoulli(p) streams: number of failures before the
/// next success, i.e. the index advance used by G(n,p)-style generators.
/// Requires `0 < p <= 1`.
#[inline]
pub(crate) fn geometric_skip<R: Rng>(rng: &mut R, p: f64) -> usize {
    debug_assert!(p > 0.0 && p <= 1.0);
    if p >= 1.0 {
        return 0;
    }
    let u: f64 = rng.random::<f64>();
    // floor(log(1-u) / log(1-p)); 1-u in (0,1], guard the u==0 edge.
    let num = (1.0 - u).max(f64::MIN_POSITIVE).ln();
    let den = (1.0 - p).ln();
    let skip = (num / den).floor();
    if skip >= usize::MAX as f64 {
        usize::MAX
    } else {
        skip as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn geometric_skip_p1_is_zero() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..32 {
            assert_eq!(geometric_skip(&mut rng, 1.0), 0);
        }
    }

    #[test]
    fn graphs_past_the_u32_offsets_are_refused_before_generation() {
        // Each asks for more than u32::MAX arcs and is turned down before
        // a byte of it is allocated or a single draw taken.
        let mut rng = SmallRng::seed_from_u64(1);
        for refused in [
            holme_kim(1 << 31, 3, 0.3, &mut rng),
            barabasi_albert(1 << 31, 3, &mut rng),
            erdos_renyi_gnm(1 << 20, 1 << 31, &mut rng),
        ] {
            assert!(matches!(
                refused,
                Err(crate::GraphError::InvalidParameter(m)) if m.contains("arcs exceed the u32 offsets")
            ));
        }
    }

    #[test]
    fn geometric_skip_mean_matches() {
        // E[skip] = (1-p)/p.
        let mut rng = SmallRng::seed_from_u64(7);
        let p = 0.2;
        let trials = 200_000;
        let total: usize = (0..trials).map(|_| geometric_skip(&mut rng, p)).sum();
        let mean = total as f64 / trials as f64;
        let expect = (1.0 - p) / p;
        assert!((mean - expect).abs() < 0.05, "mean {mean} vs {expect}");
    }
}
