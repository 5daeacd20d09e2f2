//! Dataset registry: scaled synthetic stand-ins for the paper's Table 7.
//!
//! The SNAP snapshots the paper uses (up to 65.6M nodes / 1.8B edges) are
//! neither redistributable nor laptop-sized, so each dataset is
//! replaced by a generator configuration that preserves the
//! properties the evaluation depends on — average degree, degree-tail
//! family and clustering level — at roughly 1/10–1/500 scale. PLC and
//! 3D-grid use the paper's own generators verbatim (smaller `n`).
//!
//! Graphs are generated deterministically (fixed seed per dataset) on
//! first use and cached as `.hkg` snapshots under `data/`.

use std::path::{Path, PathBuf};

use hk_graph::gen::{chung_lu, grid3d, holme_kim, powerlaw_weights};
use hk_graph::{io, Graph};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The eight benchmark datasets of Table 7, as stand-ins.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// DBLP (317K nodes, d̄ 6.62) → Holme–Kim, high clustering.
    DblpLike,
    /// Youtube (1.13M nodes, d̄ 5.27) → Chung–Lu power law.
    YoutubeLike,
    /// PLC (2M nodes, d̄ 9.99) → the paper's own generator, scaled.
    Plc,
    /// Orkut (3.07M nodes, d̄ 76.28) → Holme–Kim, high degree.
    OrkutLike,
    /// LiveJournal (4.0M nodes, d̄ 17.35) → Holme–Kim.
    LiveJournalLike,
    /// 3D-grid (9.94M nodes, degree 6) → the paper's generator, scaled.
    Grid3d,
    /// Twitter (41.7M nodes, d̄ 57.74) → Holme–Kim, high degree.
    TwitterLike,
    /// Friendster (65.6M nodes, d̄ 55.06) → Holme–Kim, high degree.
    FriendsterLike,
}

impl DatasetId {
    /// All datasets in Table 7 order.
    pub fn all() -> [DatasetId; 8] {
        [
            DatasetId::DblpLike,
            DatasetId::YoutubeLike,
            DatasetId::Plc,
            DatasetId::OrkutLike,
            DatasetId::LiveJournalLike,
            DatasetId::Grid3d,
            DatasetId::TwitterLike,
            DatasetId::FriendsterLike,
        ]
    }

    /// The four "small" datasets the paper uses for ground-truth-heavy
    /// experiments (Figures 6, 7; Table 8).
    pub fn small_set() -> [DatasetId; 4] {
        [
            DatasetId::DblpLike,
            DatasetId::YoutubeLike,
            DatasetId::Plc,
            DatasetId::OrkutLike,
        ]
    }

    /// Stand-in name (lowercase, used for cache files and CLI).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::DblpLike => "dblp",
            DatasetId::YoutubeLike => "youtube",
            DatasetId::Plc => "plc",
            DatasetId::OrkutLike => "orkut",
            DatasetId::LiveJournalLike => "livejournal",
            DatasetId::Grid3d => "3d-grid",
            DatasetId::TwitterLike => "twitter",
            DatasetId::FriendsterLike => "friendster",
        }
    }

    /// Paper dataset this stands in for, with original `(n, m, d̄)`.
    pub fn paper_stats(&self) -> (&'static str, u64, u64, f64) {
        match self {
            DatasetId::DblpLike => ("DBLP", 317_080, 1_049_866, 6.62),
            DatasetId::YoutubeLike => ("Youtube", 1_134_890, 2_987_624, 5.27),
            DatasetId::Plc => ("PLC", 2_000_000, 9_999_961, 9.99),
            DatasetId::OrkutLike => ("Orkut", 3_072_441, 117_185_083, 76.28),
            DatasetId::LiveJournalLike => ("LiveJournal", 3_997_962, 34_681_189, 17.35),
            DatasetId::Grid3d => ("3D-grid", 9_938_375, 29_676_450, 5.97),
            DatasetId::TwitterLike => ("Twitter", 41_652_231, 1_202_513_046, 57.74),
            DatasetId::FriendsterLike => ("Friendster", 65_608_366, 1_806_067_135, 55.06),
        }
    }

    /// Parse a CLI name.
    pub fn from_name(name: &str) -> Option<DatasetId> {
        DatasetId::all().into_iter().find(|d| d.name() == name)
    }

    /// Generate the stand-in at the given scale divisor (1 = full
    /// stand-in size, larger = proportionally smaller graphs for quick
    /// runs).
    pub fn generate(&self, scale_div: usize) -> Graph {
        let sd = scale_div.max(1);
        let mut rng = SmallRng::seed_from_u64(0xDA7A_5EED ^ (*self as u64));
        match self {
            // Holme–Kim m_per chosen as round(d̄/2); p_triad tuned to the
            // qualitative clustering level of the original.
            DatasetId::DblpLike => holme_kim(30_000 / sd, 3, 0.65, &mut rng).unwrap(),
            DatasetId::YoutubeLike => {
                let n = 60_000 / sd;
                let w = powerlaw_weights(n, 2.2, 5.27);
                chung_lu(&w, &mut rng).unwrap()
            }
            DatasetId::Plc => holme_kim(100_000 / sd, 5, 0.5, &mut rng).unwrap(),
            DatasetId::OrkutLike => holme_kim(20_000 / sd, 38, 0.3, &mut rng).unwrap(),
            DatasetId::LiveJournalLike => holme_kim(50_000 / sd, 9, 0.45, &mut rng).unwrap(),
            DatasetId::Grid3d => {
                let side = (40usize / sd.clamp(1, 4)).max(8);
                grid3d(side, side, side, true).unwrap()
            }
            DatasetId::TwitterLike => holme_kim(60_000 / sd, 29, 0.2, &mut rng).unwrap(),
            DatasetId::FriendsterLike => holme_kim(80_000 / sd, 28, 0.25, &mut rng).unwrap(),
        }
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Loader with a binary on-disk cache.
#[derive(Clone, Debug)]
pub struct Datasets {
    dir: PathBuf,
    scale_div: usize,
}

impl Datasets {
    /// Cache under `dir` at the given scale divisor.
    pub fn new<P: AsRef<Path>>(dir: P, scale_div: usize) -> Self {
        Datasets {
            dir: dir.as_ref().to_path_buf(),
            scale_div: scale_div.max(1),
        }
    }

    /// Default cache location: `<workspace>/data`.
    pub fn default_dir(scale_div: usize) -> Self {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data");
        Datasets::new(dir, scale_div)
    }

    /// Load (or generate + cache) a dataset, cached as
    /// `<dir>/<name>.x<scale_div>.hkg`. A cache file that does not load —
    /// corrupt, or in a retired format — is regenerated and overwritten.
    pub fn load(&self, id: DatasetId) -> Graph {
        let path = self
            .dir
            .join(format!("{}.x{}.hkg", id.name(), self.scale_div));
        if path.exists() {
            if let Ok(g) = io::load_binary(&path) {
                return g;
            }
        }
        let g = id.generate(self.scale_div);
        if std::fs::create_dir_all(&self.dir).is_ok() {
            let _ = io::save_binary_v2(&g, &path);
        }
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_roundtrip() {
        for id in DatasetId::all() {
            assert_eq!(DatasetId::from_name(id.name()), Some(id));
        }
        assert_eq!(DatasetId::from_name("nope"), None);
    }

    #[test]
    fn average_degrees_track_paper() {
        // Generate heavily scaled-down variants and compare d̄ with the
        // paper's Table 7 values (tolerance: generators are stochastic and
        // small-n effects bite).
        for (id, tol) in [
            (DatasetId::DblpLike, 1.5),
            (DatasetId::Plc, 1.5),
            (DatasetId::Grid3d, 0.2),
            (DatasetId::LiveJournalLike, 2.5),
        ] {
            let g = id.generate(8);
            let (_, _, _, d_paper) = id.paper_stats();
            let d = g.avg_degree();
            assert!(
                (d - d_paper).abs() < tol,
                "{}: stand-in d̄ {d} vs paper {d_paper}",
                id.name()
            );
        }
    }

    #[test]
    fn grid_is_six_regular() {
        let g = DatasetId::Grid3d.generate(8);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 6);
        }
    }

    #[test]
    fn cache_roundtrip() {
        let dir = std::env::temp_dir().join("hk_bench_cache_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // A cache left by the retired streaming format (magic, n, arcs,
        // offsets, neighbors) no longer loads; it is regenerated and
        // replaced.
        let stale = dir.join("dblp.x16.hkg");
        let mut v1 = b"HKGRAPH1".to_vec();
        for word in [2u64, 2, 0, 1, 2] {
            v1.extend_from_slice(&word.to_le_bytes());
        }
        v1.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0]);
        std::fs::write(&stale, &v1).unwrap();
        let ds = Datasets::new(&dir, 16);
        let g1 = ds.load(DatasetId::DblpLike);
        assert_eq!(g1, DatasetId::DblpLike.generate(16));
        assert_eq!(&std::fs::read(&stale).unwrap()[..8], b"HKGRAPH2");
        let g2 = ds.load(DatasetId::DblpLike);
        assert_eq!(g1, g2);
        assert_eq!(g2.backend(), hk_graph::StorageBackend::Arena);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deterministic_generation() {
        let a = DatasetId::OrkutLike.generate(16);
        let b = DatasetId::OrkutLike.generate(16);
        assert_eq!(a, b);
    }
}
