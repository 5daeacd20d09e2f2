//! Differential storage-backend conformance: every load path — a file or
//! a stream into a heap arena, a file through an mmap (when the `mmap`
//! feature is on) — and the owned copy detached from it must yield a
//! **bitwise-equal CSR** and an **identical fingerprint**, for the
//! committed `data/*.hkg` snapshots and for arbitrary generated graphs.
//!
//! `Graph::PartialEq` compares the offset and neighbor arrays
//! element-for-element (backend-blind by design), so `assert_eq!` across
//! backends *is* the bitwise claim; fingerprints are compared on top
//! because the serving cache keys on them — a backend that perturbed the
//! fingerprint would silently split the cache.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use hk_graph::builder::graph_from_edges;
use hk_graph::storage::{Arena, StorageBackend};
use hk_graph::{io, Graph};
use proptest::prelude::*;

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../data")
}

/// The two snapshots the golden conformance suite pins (the other
/// `data/*.hkg` files are the bench harness's git-ignored caches), each
/// with the fingerprint of the graph it was written from.
fn committed_snapshots() -> Vec<(PathBuf, u64)> {
    [
        ("3d-grid.x4.hkg", 0x0a36_13d5_59d5_aa25),
        ("plc.x4.hkg", 0xa8c3_d5ba_0cba_54df),
    ]
    .into_iter()
    .map(|(file, fp)| (data_dir().join(file), fp))
    .collect()
}

/// All load paths for a snapshot file, labeled.
fn v2_loads(path: &Path) -> Vec<(&'static str, Graph, StorageBackend)> {
    #[cfg_attr(
        not(all(feature = "mmap", unix, target_pointer_width = "64")),
        allow(unused_mut)
    )]
    let mut loads = vec![
        (
            "load_binary (heap arena)",
            io::load_binary(path).unwrap(),
            StorageBackend::Arena,
        ),
        (
            "read_binary from stream",
            io::read_binary(std::fs::File::open(path).unwrap()).unwrap(),
            StorageBackend::Arena,
        ),
    ];
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    loads.push((
        "load_binary_mmap",
        io::load_binary_mmap(path).unwrap(),
        StorageBackend::Mmap,
    ));
    loads
}

#[test]
fn every_load_path_is_bitwise_identical_on_committed_snapshots() {
    for (path, fp) in committed_snapshots() {
        let loads = v2_loads(&path);
        // The owned copy hashes its arrays: the snapshot still holds the
        // graph it was written from.
        let reference = loads[0].1.to_owned_backend();
        assert_eq!(reference.backend(), StorageBackend::Owned);
        assert_eq!(
            reference.fingerprint(),
            fp,
            "{}: not the graph it was written from",
            path.display()
        );
        for (label, loaded, want_backend) in loads {
            assert_eq!(loaded.backend(), want_backend, "{label}");
            assert_eq!(
                loaded,
                reference,
                "{label}: CSR mismatch for {}",
                path.display()
            );
            // The recorded value is the hash of the arrays it was loaded
            // with, not only a value equal to itself.
            assert_eq!(
                loaded.recorded_fingerprint(),
                Some(loaded.compute_fingerprint()),
                "{label}: recorded fingerprint of {}",
                path.display()
            );
            assert_eq!(loaded.fingerprint(), fp, "{label}");
            assert_eq!(loaded.num_nodes(), reference.num_nodes(), "{label}");
            assert_eq!(loaded.num_edges(), reference.num_edges(), "{label}");
            assert!(loaded.check_invariants().is_ok(), "{label}");
            // Spot-check the accessors the hot paths use, on a stride.
            let stride = (loaded.num_nodes() / 97).max(1);
            for v in (0..loaded.num_nodes()).step_by(stride) {
                let v = v as u32;
                assert_eq!(loaded.degree(v), reference.degree(v), "{label}");
                assert_eq!(loaded.neighbors(v), reference.neighbors(v), "{label}");
                assert_eq!(loaded.neighbor_row(v), reference.neighbor_row(v), "{label}");
            }
            // Detaching from the arena must also be lossless.
            let owned = loaded.to_owned_backend();
            assert_eq!(owned, reference, "{label} -> owned");
            assert_eq!(owned.fingerprint(), fp, "{label} -> owned");
        }
    }
}

#[test]
fn arena_graph_outlives_cheap_clones() {
    // Clone of an arena-backed graph shares the buffer; dropping the
    // original must keep the clone (and its unchecked accessors) valid.
    let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
    let mut buf = Vec::new();
    io::write_binary_v2(&g, &mut buf).unwrap();
    let arena_graph = io::read_binary_v2_from_arena(Arc::new(Arena::from_bytes(&buf))).unwrap();
    let clone = arena_graph.clone();
    assert_eq!(clone.backend(), arena_graph.backend());
    drop(arena_graph);
    assert_eq!(clone, g);
    assert!(clone.check_invariants().is_ok());
    for v in clone.nodes() {
        let (start, deg) = clone.neighbor_row(v);
        for i in 0..deg as usize {
            let u = unsafe { clone.neighbor_flat_unchecked(start + i) };
            assert_eq!(u, clone.neighbor_at(v, i));
        }
    }
}

/// An arbitrary graph over `0..80` plus a tail of isolated nodes.
fn build(edges: &[(u32, u32)], isolated_tail: usize) -> Graph {
    let mut b = hk_graph::GraphBuilder::new();
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    let max_node = edges
        .iter()
        .map(|&(u, v)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    b.ensure_nodes(max_node + isolated_tail);
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A recorded fingerprint is checked against a recompute, never only
    /// against itself: on every v2 load path the value the image records
    /// is the hash of the arrays that path loaded, and the owned copy —
    /// which always hashes — agrees with both.
    #[test]
    fn recorded_fingerprints_equal_the_recompute_on_every_load_path(
        edges in prop::collection::vec((0u32..80, 0u32..80), 0..300),
        isolated_tail in 0usize..5,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let g = build(&edges, isolated_tail);
        let dir = std::env::temp_dir().join(format!(
            "hk_storage_conformance_fp_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}.hkg", CASE.fetch_add(1, Ordering::Relaxed)));
        io::save_binary_v2(&g, &path).unwrap();
        for (label, loaded, _) in v2_loads(&path) {
            let recorded = loaded.recorded_fingerprint();
            prop_assert_eq!(recorded, Some(loaded.compute_fingerprint()), "{}", label);
            prop_assert_eq!(loaded.fingerprint(), g.compute_fingerprint(), "{}", label);
            let owned = loaded.to_owned_backend();
            prop_assert_eq!(owned.recorded_fingerprint(), None, "{}", label);
            prop_assert_eq!(Some(owned.fingerprint()), recorded, "{}", label);
        }
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    /// On every backend a degree is what its row holds: `degree(v)`,
    /// `neighbors(v).len()` and `neighbor_row(v).1` agree for every node,
    /// the trailing isolated ones included. An owned graph holds exactly
    /// its two arrays, `4(n + 1) + 4·arcs` bytes; a snapshot loaded into
    /// an arena or mapped holds its file.
    #[test]
    fn degrees_are_row_lengths_and_bytes_are_the_arrays_on_every_backend(
        edges in prop::collection::vec((0u32..80, 0u32..80), 0..300),
        isolated_tail in 0usize..5,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let g = build(&edges, isolated_tail);
        let dir = std::env::temp_dir().join(format!(
            "hk_storage_conformance_bytes_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}.hkg", CASE.fetch_add(1, Ordering::Relaxed)));
        io::save_binary_v2(&g, &path).unwrap();
        let file_len = std::fs::metadata(&path).unwrap().len() as usize;
        let arrays = 4 * (g.num_nodes() + 1) + 4 * g.volume();
        let mut graphs = vec![("built", g.clone(), arrays)];
        for (label, loaded, _) in v2_loads(&path) {
            graphs.push(("detached", loaded.to_owned_backend(), arrays));
            graphs.push((label, loaded, file_len));
        }
        for (label, graph, bytes) in &graphs {
            prop_assert_eq!(graph.memory_bytes(), *bytes, "{}", label);
            for v in graph.nodes() {
                let d = graph.degree(v);
                prop_assert_eq!(graph.neighbors(v).len(), d, "{} node {}", label, v);
                prop_assert_eq!(graph.neighbor_row(v).1 as usize, d, "{} node {}", label, v);
                prop_assert_eq!(graph.degree_nz(v), d.max(1), "{} node {}", label, v);
            }
            let tail = graph.num_nodes() - isolated_tail..graph.num_nodes();
            prop_assert!(tail.into_iter().all(|v| graph.degree(v as u32) == 0), "{}", label);
        }
        std::fs::remove_file(&path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    /// An arbitrary graph as built, loaded from its snapshot, and
    /// detached from that snapshot again: bitwise-equal CSRs with equal
    /// fingerprints on all three.
    #[test]
    fn backends_agree_on_arbitrary_graphs(
        edges in prop::collection::vec((0u32..80, 0u32..80), 0..300),
        isolated_tail in 0usize..5,
    ) {
        let g = build(&edges, isolated_tail);
        let mut img = Vec::new();
        io::write_binary_v2(&g, &mut img).unwrap();
        let from_v2 = io::read_binary_v2_from_arena(Arc::new(Arena::from_bytes(&img))).unwrap();
        let detached = from_v2.to_owned_backend();
        prop_assert_eq!(g.backend(), StorageBackend::Owned);
        prop_assert_eq!(from_v2.backend(), StorageBackend::Arena);
        prop_assert_eq!(detached.backend(), StorageBackend::Owned);
        prop_assert_eq!(&from_v2, &g);
        prop_assert_eq!(&detached, &g);
        prop_assert_eq!(from_v2.fingerprint(), g.fingerprint());
        prop_assert_eq!(detached.fingerprint(), g.fingerprint());
        prop_assert!(from_v2.check_invariants().is_ok());
        // memory accounting: arena counts the buffer, owned the arrays —
        // and the arena is never smaller than its sections.
        prop_assert!(from_v2.memory_bytes() >= 4 * (g.num_nodes() + 1) + 4 * g.volume());
    }
}
