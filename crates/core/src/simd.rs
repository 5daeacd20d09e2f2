//! Runtime dispatch for the explicit-SIMD hot-path kernels.
//!
//! The `simd` cargo feature (off by default, mirroring `hk-graph`'s
//! `mmap`) compiles a `core::arch` vector path for the push phase's
//! residue threshold scan
//! ([`crate::workspace::EpochVec::max_value_over_deg`] — the
//! condition-(11) `max_v r[v]/d(v)` probe over a live hop array). That
//! scan runs at the `CHECK_INTERVAL` probes, for the last hop level, and
//! on the stop state of a push cut short; at an ordinary hop boundary the
//! same maximum falls out of the one scalar pass that also sets the
//! hop's survivors aside
//! (`DenseResidues::sift`).
//!
//! The loop is **reduction-order-independent** — a max over a NaN-free
//! multiset — so the vector path produces the same f64 bits as the scalar
//! fold and every golden fixture and bitwise equivalence suite passes
//! unchanged, with no re-bless. (The sweep's membership count had an AVX2
//! gather body too; it measured 0.98x and was removed.) Float
//! *sums* (residue accumulation, hop sums) are deliberately **not**
//! vectorized: reordering them would reassociate the additions and break
//! the bit-determinism contract. For the same reason the push propagation
//! frontier keeps its exact scalar pop order — reordering it (e.g. by
//! degree) would reorder the scatter adds; the degree-sorted locality
//! pass lives where order is free (this scan, and `hk-serve`'s hub
//! precompute frontier, which runs seeds in descending-degree order).
//!
//! Dispatch is decided at runtime: the vector path runs only on x86_64
//! hosts whose CPU reports AVX2, and can be forced off per-process with
//! [`set_simd_enabled`] so benchmarks and differential tests can A/B the
//! scalar and vector kernels inside one binary. Without the `simd`
//! feature everything here compiles to the constant-`false` scalar path.

#[cfg(feature = "simd")]
use std::sync::atomic::{AtomicBool, Ordering};

/// Per-process override: `false` forces the scalar kernels even when the
/// feature is compiled in and the CPU supports AVX2.
#[cfg(feature = "simd")]
static SIMD_ENABLED: AtomicBool = AtomicBool::new(true);

/// Whether the CPU supports the compiled vector paths (memoized).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn cpu_supported() -> bool {
    use std::sync::OnceLock;
    static SUPPORTED: OnceLock<bool> = OnceLock::new();
    *SUPPORTED.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

#[cfg(all(feature = "simd", not(target_arch = "x86_64")))]
fn cpu_supported() -> bool {
    false
}

/// Whether the vector kernels are active: feature compiled in, CPU
/// reports AVX2, and no [`set_simd_enabled`]`(false)` override.
#[cfg(feature = "simd")]
#[inline]
pub fn simd_active() -> bool {
    SIMD_ENABLED.load(Ordering::Relaxed) && cpu_supported()
}

/// Without the `simd` feature the vector paths are not compiled.
#[cfg(not(feature = "simd"))]
#[inline]
pub fn simd_active() -> bool {
    false
}

/// Force the scalar kernels (`false`) or restore runtime detection
/// (`true`). Process-global; used by the simd-vs-scalar benchmark groups
/// and the differential tests. A no-op without the `simd` feature.
pub fn set_simd_enabled(enabled: bool) {
    #[cfg(feature = "simd")]
    SIMD_ENABLED.store(enabled, Ordering::Relaxed);
    #[cfg(not(feature = "simd"))]
    let _ = enabled;
}

/// Whether the `simd` feature was compiled in at all (reported by the
/// bench snapshots so a scalar-only binary labels its rows honestly).
pub const fn simd_compiled() -> bool {
    cfg!(feature = "simd")
}
