//! Failure-injection tests for the graph loaders: hostile or corrupted
//! input must produce `Err`, never a panic or a structurally invalid
//! graph.

use hk_graph::builder::graph_from_edges;
use hk_graph::error::GraphError;
use hk_graph::io;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes fed to the binary loader never panic.
    #[test]
    fn binary_loader_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..400)) {
        let _ = io::read_binary(&bytes[..]); // Err is fine, panic is not
    }

    /// Arbitrary bytes behind a valid header and section table still
    /// never panic, and any graph that does load satisfies the CSR
    /// invariants.
    #[test]
    fn binary_loader_survives_bad_body(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        let mut buf = valid_v2_image()[..V2_TABLE_START + V2_TABLE_LEN].to_vec();
        buf.extend_from_slice(&bytes);
        if let Ok(g) = io::read_binary(&buf[..]) {
            prop_assert!(g.check_invariants().is_ok());
        }
    }

    /// Arbitrary text never panics the edge-list parser.
    #[test]
    fn text_loader_survives_garbage(s in "\\PC{0,300}") {
        let _ = io::read_edge_list(s.as_bytes());
    }

    /// Corrupting any single byte of a valid file is either detected or
    /// yields a graph (flipping a neighbor id can still be valid) — but
    /// never panics.
    #[test]
    fn single_byte_corruption(pos in 0usize..400, val in any::<u8>()) {
        let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]);
        let mut buf = Vec::new();
        io::write_binary_v2(&g, &mut buf).unwrap();
        if pos < buf.len() {
            buf[pos] = val;
        }
        let _ = io::read_binary(&buf[..]);
    }
}

/// A snapshot image assembled from raw arrays, with every checksum
/// right: the header claims `n` and `arcs`, the table the element counts
/// those imply, and the sections hold whatever bytes the arrays give (so
/// a header larger than the arrays describes a truncated file).
fn raw_image(n: u64, arcs: u64, offsets: &[u32], neighbors: &[u32]) -> Vec<u8> {
    let words = |ws: &[u32]| ws.iter().flat_map(|w| w.to_le_bytes()).collect();
    image(
        3,
        n,
        arcs,
        &[
            (4, n.wrapping_add(1), words(offsets)),
            (4, arcs, words(neighbors)),
        ],
    )
}

/// An image of any version, sections `(elem_size, elem_count, payload)`
/// in order (kinds 1, 2, …), laid out and summed as the format does.
fn image(version: u32, n: u64, arcs: u64, sections: &[(u32, u64, Vec<u8>)]) -> Vec<u8> {
    let mut img = vec![0u8; V2_TABLE_START + 32 * sections.len()];
    img[..8].copy_from_slice(b"HKGRAPH2");
    img[0x08..0x0c].copy_from_slice(&version.to_le_bytes());
    img[0x0c..0x10].copy_from_slice(&3u32.to_le_bytes());
    img[0x10..0x18].copy_from_slice(&n.to_le_bytes());
    img[0x18..0x20].copy_from_slice(&arcs.to_le_bytes());
    img[0x20..0x24].copy_from_slice(&(sections.len() as u32).to_le_bytes());
    for (i, (elem, count, payload)) in sections.iter().enumerate() {
        img.resize(img.len().next_multiple_of(64), 0);
        let entry = [
            (i as u32 + 1).to_le_bytes().to_vec(),
            elem.to_le_bytes().to_vec(),
            (img.len() as u64).to_le_bytes().to_vec(),
            count.to_le_bytes().to_vec(),
            lane_sum(payload).to_le_bytes().to_vec(),
        ]
        .concat();
        img[entry_field(i, 0)..][..32].copy_from_slice(&entry);
        img.extend_from_slice(payload);
    }
    img.resize(img.len().next_multiple_of(64), 0);
    let table_end = V2_TABLE_START + 32 * sections.len();
    let mut covered = img[V2_TABLE_START..table_end].to_vec();
    covered.extend_from_slice(&img[0x30..0x38]);
    let sum = fnv1a(&covered);
    img[0x28..0x30].copy_from_slice(&sum.to_le_bytes());
    img
}

/// Every header-level corruption maps to a *typed* error — `Format` for
/// truncated or internally inconsistent headers — never a panic and
/// never a bogus graph.
#[test]
fn corrupted_headers_yield_typed_errors() {
    // Truncated inside the magic / the version / the flags / the node count.
    for len in [0, 4, 8, 12, 16, 20] {
        let img = &valid_v2_image()[..len];
        assert!(
            matches!(
                io::read_binary(img),
                Err(GraphError::Io(_)) | Err(GraphError::Format(_))
            ),
            "prefix {len} must be a typed header error"
        );
    }
    // Node count exceeding the u32 id space.
    let img = raw_image(u32::MAX as u64 + 1, 0, &[], &[]);
    assert!(matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("u32")));
    // Odd arc count (an undirected graph stores each edge twice).
    let img = raw_image(2, 3, &[0, 2, 3], &[1, 0, 1]);
    assert!(matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("odd")));
    // More arcs than u32 offsets address.
    let img = raw_image(2, u32::MAX as u64 + 1, &[0, 2, 4], &[1, 0, 1, 0]);
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("arc count 4294967296"))
    );
    // Huge-but-plausible header over an empty body: a typed error about
    // the missing bytes, not an allocation sized by the header.
    let img = raw_image(1 << 30, 1 << 31, &[], &[]);
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("truncated"))
    );
}

/// Offset-table corruption inside an otherwise valid file is detected.
#[test]
fn corrupted_offset_tables_yield_typed_errors() {
    // offsets[0] != 0.
    let img = raw_image(2, 2, &[1, 2, 2], &[1, 0]);
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("offsets"))
    );
    // Non-monotone offsets (from 0 to the arc count, but node 1's row
    // would end before it starts).
    let img = raw_image(3, 2, &[0, 2, 1, 2], &[1, 0]);
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("monotone"))
    );
    // Final offset disagreeing with the header's arc count.
    let img = raw_image(2, 2, &[0, 1, 1], &[1, 0]);
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("offsets"))
    );
}

/// A neighbor id pointing past `n` is reported as `NodeOutOfRange` with
/// the offending id, not clamped or accepted — even under a checksum
/// that matches it.
#[test]
fn out_of_range_neighbor_is_typed() {
    let mut buf = valid_v2_image();
    let last = section_payload(&buf, 1).end - 4;
    buf[last..last + 4].copy_from_slice(&1234u32.to_le_bytes());
    fix_section_checksum(&mut buf, 1);
    match io::read_binary(&buf[..]) {
        Err(GraphError::NodeOutOfRange { node, num_nodes }) => {
            assert_eq!(node, 1234);
            assert_eq!(num_nodes, 5);
        }
        other => panic!("expected NodeOutOfRange, got {other:?}"),
    }
}

/// A stream that fails anywhere inside the neighbor section is an `Io`
/// error, and a file cut there is a `Format` error naming the truncation
/// — never a short graph.
#[test]
fn truncated_neighbor_sections_are_io_errors() {
    struct Broken;
    impl std::io::Read for Broken {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::UnexpectedEof.into())
        }
    }
    let buf = valid_v2_image();
    for len in section_payload(&buf, 1) {
        assert!(
            matches!(
                io::read_binary(std::io::Read::chain(&buf[..len], Broken)),
                Err(GraphError::Io(_))
            ),
            "a stream failing at {len} must be an Io error"
        );
        assert!(
            matches!(io::read_binary(&buf[..len]), Err(GraphError::Format(m)) if m.contains("truncated")),
            "a cut at {len} must name the truncation"
        );
    }
}

/// Every prefix of a snapshot file fails to load, through every file
/// loader.
#[test]
fn truncation_at_every_prefix_is_safe() {
    let buf = valid_v2_image();
    let dir = std::env::temp_dir().join(format!("hk_fuzz_io_prefix_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("prefix.hkg");
    for len in 0..=buf.len() {
        std::fs::write(&path, &buf[..len]).unwrap();
        #[cfg_attr(
            not(all(feature = "mmap", unix, target_pointer_width = "64")),
            allow(unused_mut)
        )]
        let mut loads = vec![io::load_binary(&path)];
        #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
        loads.push(io::load_binary_mmap(&path));
        for load in loads {
            assert_eq!(load.is_ok(), len == buf.len(), "prefix {len}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// v2 snapshot format (HKGRAPH2): header, section table, checksums
// ---------------------------------------------------------------------------

/// A valid v2 image of a small fixed graph.
fn valid_v2_image() -> Vec<u8> {
    let g = graph_from_edges([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
    let mut buf = Vec::new();
    io::write_binary_v2(&g, &mut buf).unwrap();
    buf
}

/// FNV-1a (the v2 section-table checksum) — reimplemented here so tests
/// can *repair* the table checksum after deliberately tampering with
/// table fields, isolating the specific validation under test from the
/// checksum that would otherwise fire first.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The lane sum (the section checksum), written from the definition in
/// `io`'s module docs and sharing no code with the crate's: it repairs
/// section checksums below, and pins the definition.
fn lane_sum(payload: &[u8]) -> u64 {
    const P1: u64 = 0x9E37_79B1_85EB_CA87;
    const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
    const P3: u64 = 0x1656_67B1_9E37_79F9;
    const P4: u64 = 0x85EB_CA77_C2B2_AE63;
    const P5: u64 = 0x27D4_EB2F_1656_67C5;
    let round = |acc: u64, w: u64| {
        acc.wrapping_add(w.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    };
    let mut padded = payload.to_vec();
    padded.resize(payload.len().div_ceil(64) * 64, 0);
    let mut acc = [0u64; 8];
    for (i, lane) in acc.iter_mut().enumerate() {
        *lane = (i as u64 + 1).wrapping_mul(P3);
    }
    for (w, word) in padded.chunks(8).enumerate() {
        let word = u64::from_le_bytes(word.try_into().unwrap());
        acc[w % 8] = round(acc[w % 8], word);
    }
    let mut h = P5.wrapping_add(payload.len() as u64);
    for lane in acc {
        h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

const V2_TABLE_START: usize = 0x40;
const V2_TABLE_LEN: usize = 2 * 32;
const SECTION_NAMES: [&str; 2] = ["offsets", "neighbors"];

/// Recompute and patch the header's section-table checksum: FNV-1a over
/// the table, then over the recorded fingerprint at `0x30`.
fn fix_table_checksum(buf: &mut [u8]) {
    let mut covered = buf[V2_TABLE_START..V2_TABLE_START + V2_TABLE_LEN].to_vec();
    covered.extend_from_slice(&buf[0x30..0x38]);
    let sum = fnv1a(&covered);
    buf[0x28..0x30].copy_from_slice(&sum.to_le_bytes());
}

/// Byte offset of field `field` (0 = kind, 1 = elem_size, 2 = byte_off,
/// 3 = elem_count, 4 = checksum) in section-table entry `i`.
fn entry_field(i: usize, field: usize) -> usize {
    V2_TABLE_START + i * 32 + [0, 4, 8, 16, 24][field]
}

/// Payload byte range of section `i`, as the table records it.
fn section_payload(img: &[u8], i: usize) -> std::ops::Range<usize> {
    let u64_at = |at: usize| u64::from_le_bytes(img[at..at + 8].try_into().unwrap()) as usize;
    let elem = u32::from_le_bytes(img[entry_field(i, 1)..][..4].try_into().unwrap()) as usize;
    let pos = u64_at(entry_field(i, 2));
    pos..pos + u64_at(entry_field(i, 3)) * elem
}

/// Recompute and patch section `i`'s checksum (and the table checksum
/// over it).
fn fix_section_checksum(img: &mut [u8], i: usize) {
    let sum = lane_sum(&img[section_payload(img, i)]);
    img[entry_field(i, 4)..][..8].copy_from_slice(&sum.to_le_bytes());
    fix_table_checksum(img);
}

#[test]
fn v2_truncation_at_every_prefix_is_typed() {
    let buf = valid_v2_image();
    for len in 0..buf.len() {
        match io::read_binary(&buf[..len]) {
            Err(
                GraphError::Format(_) | GraphError::Io(_) | GraphError::ChecksumMismatch { .. },
            ) => {}
            Err(other) => panic!("prefix {len}: unexpected error class {other:?}"),
            Ok(_) => panic!("prefix {len} must fail"),
        }
    }
    assert!(io::read_binary(&buf[..]).is_ok());
}

#[test]
fn v2_header_corruptions_are_typed() {
    let buf = valid_v2_image();
    // Bad version.
    let mut img = buf.clone();
    img[0x08..0x0c].copy_from_slice(&7u32.to_le_bytes());
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("version"))
    );
    // Unknown flags: every bit but bits 0 and 1 (which the writer sets).
    assert_eq!(buf[0x0c..0x10], [3, 0, 0, 0]);
    for (byte, bit) in [(0x0c, 0x04), (0x0c, 0x80), (0x0d, 0x01), (0x0f, 0x80)] {
        let mut img = buf.clone();
        img[byte] |= bit;
        assert!(
            matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("flags"))
        );
    }
    // Retired flags: FNV-1a section sums (0), lane sums without a
    // recorded fingerprint (1), a fingerprint over FNV-1a sums (2) — each
    // refused even with its table re-summed.
    for flags in [0u8, 1, 2] {
        let mut img = buf.clone();
        img[0x0c] = flags;
        fix_table_checksum(&mut img);
        assert!(
            matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("flags")),
            "flags {flags}"
        );
    }
    // The retired streaming format (magic, n, arcs, u64 offsets, u32
    // neighbor ids) is not a snapshot.
    let g = io::read_binary(&wide_v2_image()[..]).unwrap();
    let mut v1 = b"HKGRAPH1".to_vec();
    let mut offset = 0u64;
    for word in [g.num_nodes() as u64, g.volume() as u64, 0] {
        v1.extend_from_slice(&word.to_le_bytes());
    }
    for v in g.nodes() {
        offset += g.degree(v) as u64;
        v1.extend_from_slice(&offset.to_le_bytes());
    }
    for v in g.nodes() {
        for &u in g.neighbors(v) {
            v1.extend_from_slice(&u.to_le_bytes());
        }
    }
    assert!(matches!(io::read_binary(&v1[..]), Err(GraphError::Format(m)) if m.contains("magic")));
    // Node count exceeding u32 ids.
    let mut img = buf.clone();
    img[0x10..0x18].copy_from_slice(&(u32::MAX as u64 + 1).to_le_bytes());
    assert!(matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("u32")));
    // Odd arc count.
    let mut img = buf.clone();
    img[0x18..0x20].copy_from_slice(&13u64.to_le_bytes());
    assert!(matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("odd")));
    // Wrong section count.
    let mut img = buf.clone();
    img[0x20..0x24].copy_from_slice(&4u32.to_le_bytes());
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("section"))
    );
}

/// An image in the version-2 layout — offsets as `u64`, a third section
/// of `u32` degrees — with every checksum right is refused by a `Format`
/// error that names its version: there is no reader for the old layout.
#[test]
fn a_version_2_image_is_refused_by_name() {
    let g = io::read_binary(&wide_v2_image()[..]).unwrap();
    let degrees: Vec<u32> = g.nodes().map(|v| g.degree(v) as u32).collect();
    let mut offsets = vec![0u64];
    for &d in &degrees {
        offsets.push(offsets.last().unwrap() + d as u64);
    }
    let neighbors: Vec<u32> = g.nodes().flat_map(|v| g.neighbors(v).to_vec()).collect();
    let (n, arcs) = (g.num_nodes() as u64, g.volume() as u64);
    let old = image(
        2,
        n,
        arcs,
        &[
            (
                8,
                n + 1,
                offsets.iter().flat_map(|w| w.to_le_bytes()).collect(),
            ),
            (
                4,
                arcs,
                neighbors.iter().flat_map(|w| w.to_le_bytes()).collect(),
            ),
            (4, n, degrees.iter().flat_map(|w| w.to_le_bytes()).collect()),
        ],
    );
    let is_refused = |loaded: Result<hk_graph::Graph, GraphError>| matches!(loaded, Err(GraphError::Format(m)) if m.contains("version 2 (expected 3)"));
    assert!(is_refused(io::read_binary(&old[..])));
    let dir = std::env::temp_dir().join(format!("hk_fuzz_io_v2_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("old.hkg");
    std::fs::write(&path, &old).unwrap();
    assert!(is_refused(io::load_binary(&path)));
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    assert!(is_refused(io::load_binary_mmap(&path)));
    let _ = std::fs::remove_dir_all(&dir);
}

/// A header claiming more arcs than `u32` offsets address is refused from
/// the header alone: a stream that fails on any read past the 128 bytes
/// of header and table still gets the `Format` error, and so do files
/// that hold nothing else, through every file loader.
#[test]
fn more_arcs_than_u32_offsets_are_refused_from_the_header() {
    struct Unreadable;
    impl std::io::Read for Unreadable {
        fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
            Err(std::io::Error::other("read past the header"))
        }
    }
    let arcs = u32::MAX as u64 + 1;
    let head = &raw_image(1000, arcs, &[], &[])[..V2_TABLE_START + V2_TABLE_LEN];
    let is_refused = |loaded: Result<hk_graph::Graph, GraphError>| matches!(loaded, Err(GraphError::Format(m)) if m.contains("arc count 4294967296"));
    assert!(is_refused(io::read_binary(std::io::Read::chain(
        head, Unreadable
    ))));
    let dir = std::env::temp_dir().join(format!("hk_fuzz_io_arcs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("head.hkg");
    std::fs::write(&path, head).unwrap();
    assert!(is_refused(io::load_binary(&path)));
    #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
    assert!(is_refused(io::load_binary_mmap(&path)));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v2_table_checksum_guards_the_table() {
    // Any tamper with a table field without repairing the checksum is a
    // ChecksumMismatch naming the table.
    let mut img = valid_v2_image();
    img[entry_field(1, 2)] ^= 0xff;
    match io::read_binary(&img[..]) {
        Err(GraphError::ChecksumMismatch { section, .. }) => {
            assert_eq!(section, "section table");
        }
        other => panic!("expected table checksum mismatch, got {other:?}"),
    }
}

/// The recorded fingerprint is under the table checksum: no flipped bit
/// of it loads.
#[test]
fn v2_recorded_fingerprint_bit_flips_name_the_table() {
    let img = wide_v2_image();
    let want = io::read_binary(&img[..]).unwrap();
    assert_eq!(
        want.recorded_fingerprint(),
        Some(want.compute_fingerprint())
    );
    for bit in 0..64 {
        let mut bad = img.clone();
        bad[0x30 + bit / 8] ^= 1 << (bit % 8);
        match io::read_binary(&bad[..]) {
            Err(GraphError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, "section table", "bit {bit}")
            }
            other => panic!("fingerprint bit {bit}: {other:?}"),
        }
    }
}

#[test]
fn v2_misaligned_section_offset_is_typed() {
    let mut img = valid_v2_image();
    // Nudge the neighbors section offset off the 64-byte grid.
    let at = entry_field(1, 2);
    let off = u64::from_le_bytes(img[at..at + 8].try_into().unwrap());
    img[at..at + 8].copy_from_slice(&(off + 4).to_le_bytes());
    fix_table_checksum(&mut img);
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("aligned")),
    );
}

#[test]
fn v2_overlapping_sections_are_typed() {
    let mut img = valid_v2_image();
    // Point the neighbors section back at the offsets section.
    let at_off = entry_field(0, 2);
    let offsets_pos = u64::from_le_bytes(img[at_off..at_off + 8].try_into().unwrap());
    let at = entry_field(1, 2);
    img[at..at + 8].copy_from_slice(&offsets_pos.to_le_bytes());
    fix_table_checksum(&mut img);
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("overlap")),
    );
}

#[test]
fn v2_out_of_bounds_section_is_typed_not_oob() {
    let mut img = valid_v2_image();
    // Neighbors section claimed far past EOF: must be a typed error, not
    // a read past the buffer.
    let at = entry_field(1, 2);
    img[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    fix_table_checksum(&mut img);
    assert!(
        matches!(io::read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("truncated")),
    );
}

#[test]
fn v2_section_checksums_catch_payload_corruption() {
    let img = valid_v2_image();
    for (i, name) in [(0, "offsets"), (1, "neighbors")] {
        let at = entry_field(i, 2);
        let pos = u64::from_le_bytes(img[at..at + 8].try_into().unwrap()) as usize;
        let mut bad = img.clone();
        bad[pos] ^= 0x01;
        match io::read_binary(&bad[..]) {
            Err(GraphError::ChecksumMismatch { section, .. }) => {
                assert_eq!(section, name, "corrupted section {i}")
            }
            // A flipped payload byte can also trip a structural check
            // first (e.g. offsets[0] != 0) depending on evaluation
            // order; what is forbidden is acceptance or a panic.
            Err(GraphError::Format(_)) => {}
            other => panic!("section {name}: expected typed error, got {other:?}"),
        }
    }
}

/// The definition of the lane sum, pinned from outside the crate: were
/// the writer's sum to drift from the documented one, every image it
/// wrote before would stop loading.
#[test]
fn v2_lane_sum_known_answers() {
    assert_eq!(lane_sum(b""), 0x2ca7_95d2_eb8c_e862);
    assert_eq!(lane_sum(b"HKGRAPH2 lane sum"), 0x2e5f_594c_0cd5_4bb0);
    let several_blocks: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(lane_sum(&several_blocks), 0x1b42_5079_d8b9_9b75);
    // …and the writer records exactly this sum for each section.
    for img in [valid_v2_image(), wide_v2_image()] {
        for i in 0..2 {
            let stored = u64::from_le_bytes(img[entry_field(i, 4)..][..8].try_into().unwrap());
            assert_eq!(stored, lane_sum(&img[section_payload(&img, i)]));
        }
    }
}

/// A v2 image whose every section spans several 64-byte blocks, over an
/// even node count (the `n + 1` offsets end inside a 64-bit word).
fn wide_v2_image() -> Vec<u8> {
    let n = 42u32;
    let g = graph_from_edges((0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 7) % n)]));
    let mut buf = Vec::new();
    io::write_binary_v2(&g, &mut buf).unwrap();
    buf
}

/// No single flipped bit of any section survives: each is a
/// `ChecksumMismatch` naming the section it is in — never a load, and
/// never a structural error reported ahead of the checksum.
#[test]
fn v2_every_single_bit_flip_in_a_section_names_that_section() {
    assert!(
        !section_payload(&wide_v2_image(), 0).len().is_multiple_of(8),
        "fixture: the wide image's offsets end inside a word"
    );
    for img in [valid_v2_image(), wide_v2_image()] {
        for (i, name) in SECTION_NAMES.into_iter().enumerate() {
            for pos in section_payload(&img, i) {
                for bit in 0..8 {
                    let mut bad = img.clone();
                    bad[pos] ^= 1 << bit;
                    match io::read_binary(&bad[..]) {
                        Err(GraphError::ChecksumMismatch { section, .. }) => {
                            assert_eq!(section, name, "byte {pos} bit {bit}")
                        }
                        other => panic!("byte {pos} bit {bit} of {name}: {other:?}"),
                    }
                }
            }
        }
    }
}

/// The lanes are position-blind within a block column, the rounds are
/// not: moving whole 64-byte blocks around a section is detected.
#[test]
fn v2_swapped_blocks_are_detected() {
    let img = wide_v2_image();
    for (i, name) in SECTION_NAMES.into_iter().enumerate() {
        let payload = section_payload(&img, i);
        let blocks = payload.len() / 64;
        assert!(blocks >= 2, "{name} must span several blocks");
        for a in 0..blocks {
            for b in a + 1..blocks {
                let (a_at, b_at) = (payload.start + 64 * a, payload.start + 64 * b);
                if img[a_at..a_at + 64] == img[b_at..b_at + 64] {
                    continue;
                }
                let mut bad = img.clone();
                bad.copy_within(b_at..b_at + 64, a_at);
                bad[b_at..b_at + 64].copy_from_slice(&img[a_at..a_at + 64]);
                match io::read_binary(&bad[..]) {
                    Err(GraphError::ChecksumMismatch { section, .. }) => assert_eq!(section, name),
                    other => panic!("{name}: blocks {a} and {b} swapped: {other:?}"),
                }
            }
        }
    }
}

/// Sections whose byte length is no multiple of 8 (offsets over an even
/// node count, down to none) and the sections of empty graphs: the
/// checksum's zero-padded final block and its empty payload.
#[test]
fn v2_partial_and_empty_sections_roundtrip_and_are_guarded() {
    for n in [0usize, 1, 3, 17] {
        let g = hk_graph::Graph::empty(n);
        let mut img = Vec::new();
        io::write_binary_v2(&g, &mut img).unwrap();
        assert_eq!(io::read_binary(&img[..]).unwrap(), g);
        assert!(section_payload(&img, 1).is_empty());
        // The last payload byte sits in the padded final block.
        let last = section_payload(&img, 0).end - 1;
        let mut bad = img.clone();
        bad[last] ^= 0x80;
        match io::read_binary(&bad[..]) {
            Err(GraphError::ChecksumMismatch { section, .. }) => assert_eq!(section, "offsets"),
            other => panic!("n = {n}: {other:?}"),
        }
    }
    let g = graph_from_edges([(0, 1), (1, 2), (2, 3)]);
    let mut img = Vec::new();
    io::write_binary_v2(&g, &mut img).unwrap();
    assert_eq!(section_payload(&img, 0).len(), 20);
    assert_eq!(io::read_binary(&img[..]).unwrap(), g);
}

#[test]
fn v2_trailing_garbage_is_rejected() {
    let mut img = valid_v2_image();
    img.extend_from_slice(&[0u8; 64]);
    assert!(matches!(
        io::read_binary(&img[..]),
        Err(GraphError::Format(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary bytes behind a v2 magic never panic the loader and never
    /// produce a structurally invalid graph.
    #[test]
    fn v2_loader_survives_bad_body(bytes in prop::collection::vec(any::<u8>(), 0..600)) {
        let mut buf = b"HKGRAPH2".to_vec();
        buf.extend_from_slice(&bytes);
        if let Ok(g) = io::read_binary(&buf[..]) {
            prop_assert!(g.check_invariants().is_ok());
        }
    }

    /// Flipping any single byte of a valid v2 image either fails with a
    /// typed error or — when the flip lands in dead padding — loads a
    /// graph identical to the original. Silent structural corruption is
    /// impossible (that is what the checksums buy over v1).
    #[test]
    fn v2_single_byte_corruption_is_detected_or_harmless(pos in 0usize..832, val in any::<u8>()) {
        let img = valid_v2_image();
        prop_assume!(pos < img.len());
        prop_assume!(img[pos] != val);
        let original = io::read_binary(&img[..]).unwrap();
        let mut bad = img;
        bad[pos] = val;
        match io::read_binary(&bad[..]) {
            Err(_) => {}
            Ok(g) => prop_assert_eq!(g, original, "undetected corruption at byte {}", pos),
        }
    }
}
