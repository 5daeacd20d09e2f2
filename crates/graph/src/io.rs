//! Graph serialization: SNAP-style text edge lists (in `edge_list.rs`,
//! re-exported here) and the `.hkg` binary snapshot.
//!
//! # Binary snapshots
//!
//! A snapshot (`HKGRAPH2`, version 3) is the *servable* image: a fixed
//! 64-byte header, a checksummed section table, and one 64-byte-aligned
//! section per CSR array (offsets `u32`, neighbors `u32`), each with its
//! own checksum. Because every section is aligned and already in the
//! in-memory layout, a loader can read (or mmap) the whole file into one
//! aligned arena and hand out slices *in place* — see [`crate::storage`].
//! That is what lets a multi-graph registry hold many snapshots resident
//! for the price of one buffer each: `4(n + 1) + 4·arcs` bytes of
//! sections, plus at most 64 bytes of padding after each and 128 of
//! header and table.
//!
//! ```text
//! offset  size  field
//! 0x00    8     magic  "HKGRAPH2"
//! 0x08    4     version (= 3), little-endian u32
//! 0x0c    4     flags (= 3): bit 0 = the section checksums are lane
//!               sums; bit 1 = 0x30 records the fingerprint
//! 0x10    8     n       (node count, u64, at most u32::MAX)
//! 0x18    8     arcs    (2m, u64, even, at most u32::MAX)
//! 0x20    4     section count (= 2)
//! 0x24    4     reserved (= 0)
//! 0x28    8     FNV-1a checksum of the section table bytes followed by
//!               the 8 bytes at 0x30
//! 0x30    8     Graph::fingerprint of the CSR
//! 0x38    8     reserved (= 0)
//! 0x40    64    section table: 2 entries x 32 bytes
//!               { kind u32, elem_size u32, byte_off u64, elem_count u64,
//!                 checksum u64 }
//! 0x80    ...   sections (offsets, neighbors), each starting on a
//!               64-byte boundary, zero-padded between and after
//! ```
//!
//! Section kinds: 1 = offsets, 2 = neighbors. All integers little-endian.
//! [`write_binary_v2`] writes exactly this image and the loaders accept
//! nothing else: any other magic (the retired streaming v1 format's
//! included), version or `flags` value is a [`GraphError::Format`] —
//! version 2's images, which carried a third section of degrees and
//! offsets as `u64`, among them.
//!
//! ## Checksums
//!
//! The 96-byte section table is guarded by byte-wise FNV-1a, and the same
//! FNV-1a chain runs on over the 8 fingerprint bytes at `0x30`, so one
//! checksum guards both. Each section is guarded by its lane sum.
//!
//! FNV-1a is one xor→multiply per byte on a single dependency chain — no
//! CPU can overlap it, so it checks about half a gigabyte per second
//! however fast the bytes arrive. The **lane sum** is defined over eight
//! independent chains instead, one per 64-bit word of a 64-byte block, so
//! its speed is that of the memory it reads. With all arithmetic
//! wrapping in `u64`, `rotl` a left rotation, and the XXH64 primes
//!
//! ```text
//! P1 = 0x9E3779B185EBCA87   P2 = 0xC2B2AE3D27D4EB4F   P3 = 0x165667B19E3779F9
//! P4 = 0x85EBCA77C2B2AE63   P5 = 0x27D4EB2F165667C5
//! round(acc, w) = rotl(acc + w * P2, 31) * P1
//! ```
//!
//! the lane sum of a payload of `len` bytes is:
//!
//! 1. `acc[i] = (i + 1) * P3` for the lanes `i = 0..8`.
//! 2. Split the payload into 64-byte blocks, padding a final partial
//!    block with zero bytes (a payload whose length is a multiple of 64,
//!    the empty one included, gets no padding block). For each block in
//!    order and each lane, with `w[i]` the block's `i`-th little-endian
//!    `u64`: `acc[i] = round(acc[i], w[i])`.
//! 3. `h = P5 + len`; then for `i = 0..8` in order:
//!    `h = (h ^ round(0, acc[i])) * P1 + P4`.
//! 4. `h ^= h >> 33; h *= P2; h ^= h >> 29; h *= P3; h ^= h >> 32`.
//!
//! Every step is a bijection of the lane (or of `h`) for a fixed input
//! word, so changing one word of the payload — any single bit flip —
//! always changes the sum; `len` enters step 3 so that zero-extending a
//! payload, or truncating trailing zeros to a block boundary, does too.
//! The rotation carries high bits back down: with a bare
//! `(acc ^ w) * P` round a flip of bit 63 would pass through every later
//! round unchanged and two of them in one lane would cancel. Like
//! FNV-1a it is not cryptographic; it detects the corruption classes that
//! actually occur (truncation, bit rot, partial writes).
//!
//! ## Validation
//!
//! A graph is only ever constructed from a *fully validated* image: the
//! header, the table checksum, section kinds/sizes/alignment/bounds/
//! non-overlap, every per-section checksum, and the structural invariants
//! that memory safety rests on — `offsets[0] = 0`, `offsets[n] = arcs`,
//! monotone offsets, neighbor ids below `n` — so the unchecked hot-path
//! accessors stay sound even on arena-backed graphs. All three entry
//! points ([`load_binary`], [`read_binary`], `load_binary_mmap`) share
//! one validator, and every check runs on every load. Each of them first
//! reads the header and table alone (128 bytes) and checks them, so an
//! image whose header no graph can have — more than `u32::MAX` arcs, say
//! — is refused before anything the size of the file is allocated or
//! mapped.
//!
//! The checks cost one sweep at memory speed: the sections are
//! checksummed a few KiB at a time and the structural tests read each
//! piece again, branch-free, while it is still in L1 (per node
//! `offsets[v+1] < offsets[v]` folded into one flag, per neighbor a
//! running maximum compared with `n` once). The sweep only
//! answers "intact or not". When it says not, the sequential validator
//! runs: table entry by table entry, sum by sum, node by node, with an
//! early return that *names* the first failure in the order the format
//! has always reported them (table errors before section errors, a
//! section's `ChecksumMismatch` before any structural error, the first
//! offending node or id).
//!
//! Adjacency *sortedness and symmetry* are trusted from the writer: a
//! nonconforming third-party writer produces a graph whose
//! `has_edge`/sweep answers are wrong but whose memory accesses are still
//! in bounds; run
//! [`Graph::check_invariants`](crate::Graph::check_invariants) on
//! untrusted snapshots.
//!
//! The *recorded fingerprint* is trusted from the writer the same way:
//! the table checksum catches a corrupted value, not a writer that
//! recorded a wrong one, and a wrong one gives the graph wrong cache keys,
//! never an out-of-bounds access.
//! [`Graph::fingerprint`](crate::Graph::fingerprint) returns the recorded
//! value in O(1);
//! [`Graph::compute_fingerprint`](crate::Graph::compute_fingerprint)
//! hashes the arrays, and the writer records that hash, never a value
//! copied from the image a graph was loaded from.

use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;

use crate::csr::{Graph, NodeId, MAX_ARCS};
use crate::error::GraphError;
use crate::storage::{Arena, SECTION_ALIGN};

mod edge_list;
pub use edge_list::{load_edge_list, read_edge_list, save_edge_list, write_edge_list};

/// Magic prefix of the snapshot format.
const MAGIC_V2: &[u8; 8] = b"HKGRAPH2";
/// Version field value of the snapshot format: 3 since the degree section
/// went and the offsets became `u32`.
const V2_VERSION: u32 = 3;
/// The one accepted `flags` value: bit 0, lane-sum section checksums;
/// bit 1, the fingerprint recorded at `0x30`.
const V2_FLAGS: u32 = 3;
/// Fixed v2 header length (before the section table).
const V2_HEADER_BYTES: usize = 0x40;
/// Bytes per section-table entry.
const V2_ENTRY_BYTES: usize = 32;
/// Section count of the v2 format.
const V2_SECTIONS: usize = 2;
/// Where the section table ends: the header and table, all a loader
/// reads before it decides to read the rest.
const V2_TABLE_END: usize = V2_HEADER_BYTES + V2_SECTIONS * V2_ENTRY_BYTES;
/// Section kinds, in file order.
const KIND_OFFSETS: u32 = 1;
const KIND_NEIGHBORS: u32 = 2;

// ---------------------------------------------------------------------------
// Snapshots: the aligned, checksummed v2 image
// ---------------------------------------------------------------------------

/// Round `x` up to the next [`SECTION_ALIGN`] boundary.
fn align64(x: u64) -> u64 {
    x.div_ceil(SECTION_ALIGN as u64) * SECTION_ALIGN as u64
}

/// FNV-1a over a byte slice — the checksum of the section table. One
/// dependency chain through every byte: fine for 96 bytes, half a
/// gigabyte per second for a section.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Run the FNV-1a chain `h` on over `bytes`.
fn fnv1a_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checksum at header `0x28`: FNV-1a over the section table, then
/// over the recorded fingerprint's bytes.
fn table_sum(table: &[u8], fingerprint: u64) -> u64 {
    fnv1a_extend(fnv1a(table), &fingerprint.to_le_bytes())
}

/// Lanes of the lane sum: one per little-endian `u64` of a 64-byte block.
const LANES: usize = SECTION_ALIGN / 8;
const LANE_P1: u64 = 0x9E37_79B1_85EB_CA87;
const LANE_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const LANE_P3: u64 = 0x1656_67B1_9E37_79F9;
const LANE_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const LANE_P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn lane_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(LANE_P2))
        .rotate_left(31)
        .wrapping_mul(LANE_P1)
}

/// The lane sum (module docs, *Checksums*) in streaming form, so that a
/// sweep can checksum a section piece by piece and look at each piece
/// again while it is in cache. No lane waits on another: a block costs
/// one multiply-rotate-multiply of latency, whatever the payload's size.
struct LaneSum {
    acc: [u64; LANES],
    len: u64,
}

impl LaneSum {
    fn new() -> LaneSum {
        LaneSum {
            acc: std::array::from_fn(|i| (i as u64 + 1).wrapping_mul(LANE_P3)),
            len: 0,
        }
    }

    /// Absorb the payload's next bytes. Every call but the last must
    /// bring a whole number of 64-byte blocks.
    fn absorb(&mut self, bytes: &[u8]) {
        debug_assert!(
            self.len.is_multiple_of(SECTION_ALIGN as u64),
            "only the last piece may end inside a block"
        );
        self.len += bytes.len() as u64;
        // A local copy keeps the lanes in registers across the loop.
        let mut acc = self.acc;
        let mut absorb_block = |block: &[u8]| {
            for (lane, word) in acc.iter_mut().zip(block.chunks_exact(8)) {
                *lane = lane_round(*lane, u64::from_le_bytes(word.try_into().unwrap()));
            }
        };
        let mut blocks = bytes.chunks_exact(SECTION_ALIGN);
        for block in &mut blocks {
            absorb_block(block);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut padded = [0u8; SECTION_ALIGN];
            padded[..tail.len()].copy_from_slice(tail);
            absorb_block(&padded);
        }
        self.acc = acc;
    }

    fn finish(self) -> u64 {
        let mut h = LANE_P5.wrapping_add(self.len);
        for acc in self.acc {
            h = (h ^ lane_round(0, acc))
                .wrapping_mul(LANE_P1)
                .wrapping_add(LANE_P4);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(LANE_P2);
        h ^= h >> 29;
        h = h.wrapping_mul(LANE_P3);
        h ^ (h >> 32)
    }
}

/// Lane sum of a whole payload — the section checksum [`write_binary_v2`]
/// records.
fn lane_sum(bytes: &[u8]) -> u64 {
    let mut sum = LaneSum::new();
    sum.absorb(bytes);
    sum.finish()
}

/// The bytes of a slice of `u32`s — on a little-endian target, for the
/// CSR arrays, exactly the bytes of their sections.
#[cfg(target_endian = "little")]
fn bytes_of(words: &[u32]) -> &[u8] {
    // SAFETY: every byte of a `u32` slice is initialised and `u8` has
    // alignment 1; the length is the slice's size in bytes and the borrow
    // is the slice's.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), std::mem::size_of_val(words)) }
}

/// The section payloads built element by element: the portable writer,
/// and the reference the in-place writer is tested against.
#[cfg(any(test, not(target_endian = "little")))]
fn materialize_sections(graph: &Graph) -> [Vec<u8>; V2_SECTIONS] {
    let mut offsets = Vec::with_capacity((graph.num_nodes() + 1) * 4);
    let mut running = 0u32;
    offsets.extend_from_slice(&running.to_le_bytes());
    for v in graph.nodes() {
        running += graph.degree(v) as u32;
        offsets.extend_from_slice(&running.to_le_bytes());
    }
    let mut neighbors = Vec::with_capacity(graph.volume() * 4);
    for v in graph.nodes() {
        for &u in graph.neighbors(v) {
            neighbors.extend_from_slice(&u.to_le_bytes());
        }
    }
    [offsets, neighbors]
}

/// Write the snapshot image (see the module docs for the layout). The
/// header records [`Graph::compute_fingerprint`] — hashed here, never
/// copied from a value the source image recorded — so loads of the image
/// need not hash.
pub fn write_binary_v2<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    // The checksums precede the payloads in the file. Where the CSR
    // arrays already are the section bytes they are summed and written in
    // place; a second copy of the graph is only built where they are not.
    #[cfg(target_endian = "little")]
    let sections = [bytes_of(graph.offs()), bytes_of(graph.nbrs())];
    #[cfg(not(target_endian = "little"))]
    let owned = materialize_sections(graph);
    #[cfg(not(target_endian = "little"))]
    let sections = [&owned[0][..], &owned[1][..]];
    write_v2_sections(graph, sections, writer)
}

/// Header, table, and `[offsets, neighbors]` payloads of `graph`, its
/// fingerprint recorded.
fn write_v2_sections<W: Write>(
    graph: &Graph,
    [offsets, neighbors]: [&[u8]; V2_SECTIONS],
    writer: W,
) -> Result<(), GraphError> {
    let n = graph.num_nodes() as u64;
    let arcs = graph.volume() as u64;
    debug_assert_eq!(offsets.len() as u64, (n + 1) * 4);
    debug_assert_eq!(neighbors.len() as u64, arcs * 4);

    let off_pos = align64(V2_TABLE_END as u64);
    let nbr_pos = align64(off_pos + offsets.len() as u64);
    let file_end = align64(nbr_pos + neighbors.len() as u64);

    // Section table.
    let mut table = Vec::with_capacity(V2_SECTIONS * V2_ENTRY_BYTES);
    for (kind, elem_size, pos, count, payload) in [
        (KIND_OFFSETS, 4u32, off_pos, n + 1, offsets),
        (KIND_NEIGHBORS, 4, nbr_pos, arcs, neighbors),
    ] {
        table.extend_from_slice(&kind.to_le_bytes());
        table.extend_from_slice(&elem_size.to_le_bytes());
        table.extend_from_slice(&pos.to_le_bytes());
        table.extend_from_slice(&count.to_le_bytes());
        table.extend_from_slice(&lane_sum(payload).to_le_bytes());
    }

    // Header.
    let fingerprint = graph.compute_fingerprint();
    let mut header = [0u8; V2_HEADER_BYTES];
    header[0x00..0x08].copy_from_slice(MAGIC_V2);
    header[0x08..0x0c].copy_from_slice(&V2_VERSION.to_le_bytes());
    header[0x0c..0x10].copy_from_slice(&V2_FLAGS.to_le_bytes());
    header[0x10..0x18].copy_from_slice(&n.to_le_bytes());
    header[0x18..0x20].copy_from_slice(&arcs.to_le_bytes());
    header[0x20..0x24].copy_from_slice(&(V2_SECTIONS as u32).to_le_bytes());
    // 0x24..0x28: reserved = 0
    header[0x28..0x30].copy_from_slice(&table_sum(&table, fingerprint).to_le_bytes());
    header[0x30..0x38].copy_from_slice(&fingerprint.to_le_bytes());
    // 0x38..0x40: reserved = 0

    fn emit<W: Write>(
        w: &mut BufWriter<W>,
        written: &mut u64,
        bytes: &[u8],
    ) -> Result<(), GraphError> {
        w.write_all(bytes)?;
        *written += bytes.len() as u64;
        Ok(())
    }
    fn pad_to<W: Write>(
        w: &mut BufWriter<W>,
        written: &mut u64,
        target: u64,
    ) -> Result<(), GraphError> {
        debug_assert!(target >= *written);
        const ZEROS: [u8; SECTION_ALIGN] = [0; SECTION_ALIGN];
        let mut gap = (target - *written) as usize;
        while gap > 0 {
            let chunk = gap.min(SECTION_ALIGN);
            w.write_all(&ZEROS[..chunk])?;
            gap -= chunk;
        }
        *written = target;
        Ok(())
    }
    let mut w = BufWriter::new(writer);
    let mut written = 0u64;
    emit(&mut w, &mut written, &header)?;
    emit(&mut w, &mut written, &table)?;
    pad_to(&mut w, &mut written, off_pos)?;
    emit(&mut w, &mut written, offsets)?;
    pad_to(&mut w, &mut written, nbr_pos)?;
    emit(&mut w, &mut written, neighbors)?;
    pad_to(&mut w, &mut written, file_end)?;
    w.flush()?;
    Ok(())
}

/// Save the v2 snapshot representation to a file path.
pub fn save_binary_v2<P: AsRef<Path>>(graph: &Graph, path: P) -> Result<(), GraphError> {
    write_binary_v2(graph, File::create(path)?)
}

/// Byte layout of a v2 image: the two section ranges (in bytes) plus the
/// logical sizes. [`validate_v2`] returning one means every check
/// listed in the module docs has passed.
#[derive(Clone, Debug, PartialEq, Eq)]
struct V2Layout {
    n: usize,
    arcs: usize,
    offsets: std::ops::Range<usize>,
    neighbors: std::ops::Range<usize>,
    /// The header's recorded fingerprint.
    fingerprint: u64,
}

/// What the fixed header says, once it and the table checksum hold.
struct V2Header {
    n: u64,
    arcs: u64,
    /// The fingerprint at `0x30`.
    fingerprint: u64,
}

fn v2_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(buf[at..at + 4].try_into().unwrap())
}

fn v2_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().unwrap())
}

/// The little-endian `u32`s of `bytes` (a whole number of them).
fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|w| u32::from_le_bytes(w.try_into().unwrap()))
}

/// Validate a v2 image end to end. Every failure is a typed
/// [`GraphError`]; no access past `buf` ever occurs because all ranges
/// are bounds-checked against `buf.len()` in `u64` arithmetic before use.
fn validate_v2(buf: &[u8]) -> Result<V2Layout, GraphError> {
    let header = v2_header(buf)?;
    match sweep_v2(buf, &header) {
        Some(layout) => Ok(layout),
        None => rescan_v2(buf, &header),
    }
}

/// The fixed header and the table checksum: everything a loader checks
/// before it reads the sections.
fn v2_header(buf: &[u8]) -> Result<V2Header, GraphError> {
    let truncated = || {
        GraphError::Format(format!(
            "truncated v2 header: {} bytes, need at least {V2_TABLE_END}",
            buf.len()
        ))
    };
    if buf.len() < V2_HEADER_BYTES {
        return Err(truncated());
    }
    if &buf[..8] != MAGIC_V2 {
        return Err(GraphError::Format(
            "bad magic (not an HKGRAPH2 file)".into(),
        ));
    }
    let version = v2_u32(buf, 0x08);
    if version != V2_VERSION {
        return Err(GraphError::Format(format!(
            "unsupported snapshot version {version} (expected {V2_VERSION})"
        )));
    }
    let flags = v2_u32(buf, 0x0c);
    if flags != V2_FLAGS {
        return Err(GraphError::Format(format!(
            "unsupported snapshot flags {flags:#x} (expected {V2_FLAGS:#x})"
        )));
    }
    let n = v2_u64(buf, 0x10);
    let arcs = v2_u64(buf, 0x18);
    if n > u32::MAX as u64 {
        return Err(GraphError::Format(format!(
            "node count {n} exceeds u32 ids"
        )));
    }
    if !arcs.is_multiple_of(2) {
        return Err(GraphError::Format(format!("odd arc count {arcs}")));
    }
    if arcs > MAX_ARCS as u64 {
        return Err(GraphError::Format(format!(
            "arc count {arcs} exceeds the u32 offsets' {MAX_ARCS}"
        )));
    }
    let sections = v2_u32(buf, 0x20);
    if sections as usize != V2_SECTIONS {
        return Err(GraphError::Format(format!(
            "expected {V2_SECTIONS} sections, header claims {sections}"
        )));
    }
    if buf.len() < V2_TABLE_END {
        return Err(truncated());
    }
    let fingerprint = v2_u64(buf, 0x30);
    let stored_table_sum = v2_u64(buf, 0x28);
    let actual_table_sum = table_sum(&buf[V2_HEADER_BYTES..V2_TABLE_END], fingerprint);
    if stored_table_sum != actual_table_sum {
        return Err(GraphError::ChecksumMismatch {
            section: "section table",
            expected: stored_table_sum,
            actual: actual_table_sum,
        });
    }
    Ok(V2Header {
        n,
        arcs,
        fingerprint,
    })
}

/// Walk the section table in file order: the checks of entry `i`, then
/// `check_payload(name, payload, stored checksum)` for section `i`, then
/// entry `i + 1`; last, that the file ends where the sections do. Returns
/// the layout and the stored checksums.
fn v2_sections(
    buf: &[u8],
    header: &V2Header,
    mut check_payload: impl FnMut(&'static str, &[u8], u64) -> Result<(), GraphError>,
) -> Result<(V2Layout, [u64; V2_SECTIONS]), GraphError> {
    let &V2Header {
        n,
        arcs,
        fingerprint,
    } = header;
    let expected: [(&'static str, u32, u32, u64); V2_SECTIONS] = [
        ("offsets", KIND_OFFSETS, 4, n + 1),
        ("neighbors", KIND_NEIGHBORS, 4, arcs),
    ];
    let file_len = buf.len() as u64;
    let mut prev_end = align64(V2_TABLE_END as u64);
    let mut ranges = [0..0usize, 0..0];
    let mut sums = [0u64; V2_SECTIONS];
    for (i, (name, want_kind, want_elem, want_count)) in expected.into_iter().enumerate() {
        let at = V2_HEADER_BYTES + i * V2_ENTRY_BYTES;
        let kind = v2_u32(buf, at);
        let elem = v2_u32(buf, at + 4);
        let pos = v2_u64(buf, at + 8);
        let count = v2_u64(buf, at + 16);
        let stored_sum = v2_u64(buf, at + 24);
        if kind != want_kind {
            return Err(GraphError::Format(format!(
                "section {i}: kind {kind}, expected {want_kind} ({name})"
            )));
        }
        if elem != want_elem {
            return Err(GraphError::Format(format!(
                "section {name}: element size {elem}, expected {want_elem}"
            )));
        }
        if count != want_count {
            return Err(GraphError::Format(format!(
                "section {name}: {count} elements, header implies {want_count}"
            )));
        }
        if !pos.is_multiple_of(SECTION_ALIGN as u64) {
            return Err(GraphError::Format(format!(
                "section {name}: byte offset {pos} not {SECTION_ALIGN}-byte aligned"
            )));
        }
        if pos < prev_end {
            return Err(GraphError::Format(format!(
                "section {name}: byte offset {pos} overlaps the previous section (ends {prev_end})"
            )));
        }
        let byte_len = count
            .checked_mul(elem as u64)
            .ok_or_else(|| GraphError::Format(format!("section {name}: size overflow")))?;
        let end = pos
            .checked_add(byte_len)
            .ok_or_else(|| GraphError::Format(format!("section {name}: size overflow")))?;
        if end > file_len {
            return Err(GraphError::Format(format!(
                "section {name}: ends at {end}, file has {file_len} bytes (truncated?)"
            )));
        }
        let range = pos as usize..end as usize;
        check_payload(name, &buf[range.clone()], stored_sum)?;
        ranges[i] = range;
        sums[i] = stored_sum;
        prev_end = align64(end);
    }
    if prev_end != file_len {
        return Err(GraphError::Format(format!(
            "file has {file_len} bytes, sections (padded) end at {prev_end}"
        )));
    }
    let [offsets, neighbors] = ranges;
    let layout = V2Layout {
        n: n as usize,
        arcs: arcs as usize,
        offsets,
        neighbors,
        fingerprint,
    };
    Ok((layout, sums))
}

/// Nodes (or neighbor ids) per step of [`sweep_v2`]: 8 KiB of offsets,
/// so a step's bytes are still in L1 when the structural loop reads them
/// again, and a whole number of 64-byte blocks of every section, as
/// [`LaneSum::absorb`] requires.
const SWEEP_STEP: usize = 2048;

/// The fast path: every check of [`rescan_v2`],
/// answered together as "all hold" (the layout) or "something is wrong"
/// (`None`) in one sweep over the payloads, with no branch on the data.
fn sweep_v2(buf: &[u8], header: &V2Header) -> Option<V2Layout> {
    let (layout, stored) = v2_sections(buf, header, |_, _, _| Ok(())).ok()?;
    let n = layout.n;
    let off = &buf[layout.offsets.clone()];
    let nbr = &buf[layout.neighbors.clone()];

    // The offsets a step of nodes at a time; any node whose offset is
    // below its predecessor's sets `descends`. With `offsets[0] == 0` and
    // `offsets[n] == arcs` (checked below) that is the sequential
    // validator's monotonicity test.
    let mut off_sum = LaneSum::new();
    let mut descends = false;
    for lo in (0..=n).step_by(SWEEP_STEP) {
        let hi = (lo + SWEEP_STEP).min(n);
        // `n + 1` offsets: the last step also takes the closing one.
        off_sum.absorb(&off[4 * lo..4 * (lo + SWEEP_STEP).min(n + 1)]);
        let prevs = le_u32s(&off[4 * lo..4 * hi]);
        let nexts = le_u32s(&off[4 * lo + 4..4 * hi + 4]);
        for (prev, next) in prevs.zip(nexts) {
            descends |= next < prev;
        }
    }
    let mut nbr_sum = LaneSum::new();
    let mut max_id = 0u32;
    for ids in nbr.chunks(4 * SWEEP_STEP) {
        nbr_sum.absorb(ids);
        max_id = le_u32s(ids).fold(max_id, u32::max);
    }

    let intact = [off_sum.finish(), nbr_sum.finish()] == stored
        && v2_u32(off, 0) == 0
        && v2_u32(off, 4 * n) as usize == layout.arcs
        && !descends
        && (layout.arcs == 0 || (max_id as usize) < n);
    intact.then_some(layout)
}

/// The sequential validator: every check in the format's order, each with
/// an early return naming what failed. It names the error of any image
/// [`sweep_v2`] turned down.
fn rescan_v2(buf: &[u8], header: &V2Header) -> Result<V2Layout, GraphError> {
    let (layout, _) = v2_sections(buf, header, |section, payload, expected| {
        let actual = lane_sum(payload);
        if expected != actual {
            return Err(GraphError::ChecksumMismatch {
                section,
                expected,
                actual,
            });
        }
        Ok(())
    })?;
    let (n, arcs) = (layout.n, layout.arcs);

    // Structural validation: monotone offsets from 0 to `arcs`, neighbor
    // ids below `n`. These are what make the unchecked accessors of the
    // walk kernels sound on this graph.
    let off_at = |i: usize| v2_u32(buf, layout.offsets.start + i * 4);
    if off_at(0) != 0 || off_at(n) as usize != arcs {
        return Err(GraphError::Format("inconsistent offsets".into()));
    }
    let mut prev = 0;
    for v in 1..=n {
        let next = off_at(v);
        if next < prev {
            return Err(GraphError::Format(
                "offsets not monotone (corrupted file)".into(),
            ));
        }
        prev = next;
    }
    for i in 0..arcs {
        let id = v2_u32(buf, layout.neighbors.start + i * 4);
        if id as usize >= n {
            return Err(GraphError::NodeOutOfRange {
                node: id as u64,
                num_nodes: n,
            });
        }
    }

    Ok(layout)
}

/// Load a snapshot held in an aligned arena, validating it fully and
/// viewing the CSR sections in place (zero-copy on little-endian targets;
/// a parse-and-copy fallback keeps other targets correct).
pub fn read_binary_v2_from_arena(arena: Arc<Arena>) -> Result<Graph, GraphError> {
    let layout = validate_v2(arena.as_slice())?;
    let buf = arena.as_slice();
    #[cfg(target_endian = "little")]
    // SAFETY: `validate_v2` proved each range in-bounds, 64-byte aligned
    // (so >= the `u32` alignment; the arena base itself is 64-byte
    // aligned) and exactly `count * 4` bytes long. On a little-endian
    // target the file's `u32` words are the memory's, and the structural
    // checks established every invariant `Graph` requires.
    let graph = unsafe {
        let offsets = std::slice::from_raw_parts(
            buf.as_ptr().add(layout.offsets.start) as *const u32,
            layout.n + 1,
        );
        let neighbors = std::slice::from_raw_parts(
            buf.as_ptr().add(layout.neighbors.start) as *const NodeId,
            layout.arcs,
        );
        Graph::from_arena_parts(Arc::clone(&arena), offsets, neighbors, layout.fingerprint)
    };
    // Portable fallback: decode into owned arrays.
    #[cfg(not(target_endian = "little"))]
    let graph = Graph::from_owned_parts(
        le_u32s(&buf[layout.offsets]).collect(),
        le_u32s(&buf[layout.neighbors]).collect(),
    );
    Ok(graph)
}

/// Read an image's header and section table — its first
/// [`V2_TABLE_END`] bytes, fewer if it is shorter — and check them. Every
/// loader does this before it allocates or maps anything the size of the
/// image.
fn read_head<R: Read>(reader: R) -> Result<Vec<u8>, GraphError> {
    let mut head = Vec::with_capacity(V2_TABLE_END);
    reader.take(V2_TABLE_END as u64).read_to_end(&mut head)?;
    v2_header(&head)?;
    Ok(head)
}

/// Read a snapshot from a reader: the header and table are read and
/// checked, then the stream is read to its end, copied into one aligned
/// arena and loaded from there. For files, prefer [`load_binary`] /
/// `load_binary_mmap`, which avoid the intermediate buffer.
pub fn read_binary<R: Read>(mut reader: R) -> Result<Graph, GraphError> {
    let mut bytes = read_head(&mut reader)?;
    reader.read_to_end(&mut bytes)?;
    read_binary_v2_from_arena(Arc::new(Arena::from_bytes(&bytes)))
}

/// Load a snapshot from a file path onto the heap-arena backend: the
/// header and table checked, then one `read` pass into one aligned
/// buffer, then in-place section views.
pub fn load_binary<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let mut f = File::open(path)?;
    let head = read_head(&mut f)?;
    let len = usize::try_from(f.metadata()?.len())
        .map_err(|_| GraphError::Format("file exceeds address space".into()))?;
    let mut arena = Arena::zeroed(len.max(head.len()));
    let (read, rest) = arena.as_mut_slice().split_at_mut(head.len());
    read.copy_from_slice(&head);
    f.read_exact(rest)?;
    read_binary_v2_from_arena(Arc::new(arena))
}

/// Map a snapshot read-only and view the CSR sections in place
/// (demand-paged; no read pass, no heap copy) once its header and table
/// check. Validation still touches every byte once, which doubles as page
/// warm-up. See the `mmap` caveats in [`crate::storage`].
#[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
pub fn load_binary_mmap<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let mut f = File::open(path)?;
    read_head(&mut f)?;
    let arena = Arena::map_file(&f)?;
    read_binary_v2_from_arena(Arc::new(arena))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::graph_from_edges;
    use crate::storage::StorageBackend;

    fn sample() -> Graph {
        graph_from_edges([(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn text_parser_skips_comments_and_blanks() {
        let text = "# header\n\n% another comment\n0 1\n  1   2  \n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_parser_reports_line_numbers() {
        let text = "0 1\nnot_a_node 2\n";
        match read_edge_list(text.as_bytes()) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn text_parser_requires_two_tokens() {
        let text = "0\n";
        assert!(matches!(
            read_edge_list(text.as_bytes()),
            Err(GraphError::Parse { .. })
        ));
    }

    #[test]
    fn binary_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary_v2(&g, &mut buf).unwrap();
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.backend(), StorageBackend::Arena);
        // The copy detached from the arena writes the same image.
        let owned = g2.to_owned_backend();
        assert_eq!(owned.backend(), StorageBackend::Owned);
        assert_eq!(image_of(&owned), buf);
    }

    #[test]
    fn binary_v2_roundtrip_via_reader() {
        let g = sample();
        let mut buf = Vec::new();
        write_binary_v2(&g, &mut buf).unwrap();
        // Sections are 64-byte aligned, so the file is too.
        assert_eq!(buf.len() % SECTION_ALIGN, 0);
        let g2 = read_binary(&buf[..]).unwrap();
        assert_eq!(g, g2);
        assert_eq!(g2.backend(), StorageBackend::Arena);
        assert_eq!(g2.recorded_fingerprint(), Some(g.fingerprint()));
        assert_eq!(g.fingerprint(), g2.fingerprint());
        assert_eq!(g2.compute_fingerprint(), g2.fingerprint());
        assert!(g2.check_invariants().is_ok());
    }

    #[test]
    fn binary_v2_empty_graph_roundtrip() {
        for n in [0usize, 1, 7] {
            let g = Graph::empty(n);
            let mut buf = Vec::new();
            write_binary_v2(&g, &mut buf).unwrap();
            let g2 = read_binary(&buf[..]).unwrap();
            assert_eq!(g, g2);
            assert_eq!(g.fingerprint(), g2.fingerprint());
        }
    }

    /// The retired streaming format of `g`: magic, `n`, `arcs`, offsets
    /// as `u64`, neighbor ids as `u32`.
    fn hkgraph1_image(g: &Graph) -> Vec<u8> {
        let mut buf = b"HKGRAPH1".to_vec();
        let words = [g.num_nodes(), g.volume()]
            .into_iter()
            .chain(g.offs().iter().map(|&off| off as usize));
        for word in words {
            buf.extend_from_slice(&(word as u64).to_le_bytes());
        }
        for &u in g.nbrs() {
            buf.extend_from_slice(&u.to_le_bytes());
        }
        buf
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let buf = b"NOTMAGIC________".to_vec();
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Format(_))));
        let v1 = hkgraph1_image(&ring_with_chords());
        assert!(matches!(read_binary(&v1[..]), Err(GraphError::Format(m)) if m.contains("magic")));
        // Every `flags` value but the writer's, with the table re-summed
        // so that only the flags are wrong.
        for flags in [0u32, 1, 2] {
            let mut img = image_of(&sample());
            img[0x0c..0x10].copy_from_slice(&flags.to_le_bytes());
            resum(&mut img);
            assert!(
                matches!(read_binary(&img[..]), Err(GraphError::Format(m)) if m.contains("flags")),
                "flags {flags}"
            );
        }
    }

    #[test]
    fn binary_rejects_truncated_file() {
        let g = sample();
        let mut buf = image_of(&g);
        buf.truncate(buf.len() - 3);
        assert!(matches!(read_binary(&buf[..]), Err(GraphError::Format(_))));
    }

    #[test]
    fn binary_rejects_out_of_range_neighbor() {
        let g = sample();
        let mut buf = image_of(&g);
        // Overwrite the last neighbor id with an out-of-range value, and
        // re-sum so that the range check, not the checksum, answers.
        let last = payload_range(&buf, 1).end - 4;
        buf[last..last + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        resum(&mut buf);
        assert!(matches!(
            read_binary(&buf[..]),
            Err(GraphError::NodeOutOfRange { node, num_nodes: 5 }) if node == u32::MAX as u64
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("hk_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let g = sample();
        let txt = dir.join("g.txt");
        let v1 = dir.join("g.v1");
        let bin = dir.join("g.hkg");
        save_edge_list(&g, &txt).unwrap();
        std::fs::write(&v1, hkgraph1_image(&g)).unwrap();
        save_binary_v2(&g, &bin).unwrap();
        assert_eq!(load_edge_list(&txt).unwrap(), g);
        let loaded = load_binary(&bin).unwrap();
        assert_eq!(loaded, g);
        assert_eq!(loaded.backend(), StorageBackend::Arena);
        // A file in the retired streaming format is not a snapshot.
        assert!(matches!(load_binary(&v1), Err(GraphError::Format(_))));
        #[cfg(all(feature = "mmap", unix, target_pointer_width = "64"))]
        {
            assert!(matches!(load_binary_mmap(&v1), Err(GraphError::Format(_))));
            let m = load_binary_mmap(&bin).unwrap();
            assert_eq!(m, g);
            assert_eq!(m.backend(), StorageBackend::Mmap);
            assert_eq!(m.fingerprint(), g.fingerprint());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- v2 checksums and the validation sweep ------------------------------

    /// 42 nodes (43 offsets, so the offsets section ends inside a 64-bit
    /// word) and every section several 64-byte blocks long.
    fn ring_with_chords() -> Graph {
        let n = 42u32;
        graph_from_edges((0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 7) % n)]))
    }

    fn image_of(g: &Graph) -> Vec<u8> {
        let mut buf = Vec::new();
        write_binary_v2(g, &mut buf).unwrap();
        buf
    }

    /// Where table entry `i` of a (possibly tampered) image puts its payload.
    fn payload_range(img: &[u8], i: usize) -> std::ops::Range<usize> {
        let at = V2_HEADER_BYTES + i * V2_ENTRY_BYTES;
        let elem = v2_u32(img, at + 4) as usize;
        let pos = v2_u64(img, at + 8) as usize;
        let count = v2_u64(img, at + 16) as usize;
        pos..pos.saturating_add(count.saturating_mul(elem))
    }

    /// Re-record every checksum of a tampered image, so that the checks
    /// behind the checksums are reached — the table's over the recorded
    /// fingerprint too. A section the table no longer places inside the
    /// file keeps its sum.
    pub(super) fn resum(img: &mut [u8]) {
        if img.len() < V2_TABLE_END {
            return;
        }
        for i in 0..V2_SECTIONS {
            if let Some(payload) = img.get(payload_range(img, i)) {
                let sum = lane_sum(payload);
                let at = V2_HEADER_BYTES + i * V2_ENTRY_BYTES + 24;
                img[at..at + 8].copy_from_slice(&sum.to_le_bytes());
            }
        }
        let sum = table_sum(&img[V2_HEADER_BYTES..V2_TABLE_END], v2_u64(img, 0x30));
        img[0x28..0x30].copy_from_slice(&sum.to_le_bytes());
    }

    /// Every corruption class `tests/fuzz_io.rs` throws at the loader,
    /// applied to `base`: each prefix, trailing bytes, three substitutions
    /// of each single byte, sections moved off the grid / onto each other
    /// / past the end of the file and of `u64`, and offsets and neighbor
    /// ids rewritten. Every tampered image is visited twice:
    /// with its sums left stale, and with them re-recorded.
    fn for_each_corruption(base: &[u8], mut visit: impl FnMut(&[u8])) {
        visit(base);
        for len in 0..base.len() {
            visit(&base[..len]);
        }
        let mut both = |img: &mut Vec<u8>| {
            visit(img);
            resum(img);
            visit(img);
        };
        let mut img = base.to_vec();
        img.extend_from_slice(&[0u8; SECTION_ALIGN]);
        both(&mut img);
        for pos in 0..base.len() {
            for val in [base[pos] ^ 0x01, base[pos] ^ 0x80, !base[pos]] {
                let mut img = base.to_vec();
                img[pos] = val;
                both(&mut img);
            }
        }
        for i in 0..V2_SECTIONS {
            let at = V2_HEADER_BYTES + i * V2_ENTRY_BYTES + 8;
            let pos = v2_u64(base, at);
            // Onto the previous section, or onto the header.
            let before = pos.saturating_sub(5 * SECTION_ALIGN as u64);
            for moved in [pos + 4, before, 1 << 40, u64::MAX - 63] {
                let mut img = base.to_vec();
                img[at..at + 8].copy_from_slice(&moved.to_le_bytes());
                both(&mut img);
            }
        }
        let [off, nbr] = [0, 1].map(|i| payload_range(base, i));
        for at in off.step_by(4) {
            let word = v2_u32(base, at);
            for rewritten in [word ^ 1, word + 2, word.wrapping_sub(1), u32::MAX] {
                let mut img = base.to_vec();
                img[at..at + 4].copy_from_slice(&rewritten.to_le_bytes());
                both(&mut img);
            }
        }
        for at in nbr.step_by(4) {
            for rewritten in [v2_u32(base, at) + 1, 1234, u32::MAX] {
                let mut img = base.to_vec();
                img[at..at + 4].copy_from_slice(&rewritten.to_le_bytes());
                both(&mut img);
            }
        }
    }

    fn corpus_graphs() -> [Graph; 4] {
        [
            sample(),
            ring_with_chords(),
            Graph::empty(0),
            Graph::empty(3),
        ]
    }

    fn corpus_bases() -> Vec<Vec<u8>> {
        corpus_graphs().iter().map(image_of).collect()
    }

    #[test]
    fn lane_sum_known_answers() {
        // Pinned from an independent implementation of the definition in
        // the module docs: the on-disk format cannot drift silently.
        assert_eq!(lane_sum(b""), 0x2ca7_95d2_eb8c_e862);
        assert_eq!(lane_sum(b"HKGRAPH2 lane sum"), 0x2e5f_594c_0cd5_4bb0);
        let several_blocks: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        assert_eq!(lane_sum(&several_blocks), 0x1b42_5079_d8b9_9b75);
    }

    #[test]
    fn lane_sum_covers_the_payload_length() {
        // Zero-extension and truncation to a block boundary move no lane
        // by anything but zero words; the length in the final mix tells
        // them apart.
        let payload: Vec<u8> = (1..=128u8).collect();
        let mut extended = payload.clone();
        extended.extend_from_slice(&[0u8; SECTION_ALIGN]);
        assert_ne!(lane_sum(&payload), lane_sum(&extended));
        let mut partial = payload.clone();
        partial.extend_from_slice(&[7, 0, 0]);
        let mut padded = partial.clone();
        padded.resize(192, 0);
        assert_ne!(lane_sum(&partial), lane_sum(&padded));
        assert_ne!(lane_sum(&partial[..129]), lane_sum(&partial[..130]));
        assert_ne!(lane_sum(b""), lane_sum(&[0u8; SECTION_ALIGN]));
    }

    #[test]
    fn lane_sum_streams_in_whole_blocks() {
        let payload: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 256) as u8).collect();
        for piece in [SECTION_ALIGN, 3 * SECTION_ALIGN, 4096] {
            let mut sum = LaneSum::new();
            for bytes in payload.chunks(piece) {
                sum.absorb(bytes);
            }
            assert_eq!(sum.finish(), lane_sum(&payload), "pieces of {piece}");
        }
    }

    #[test]
    fn in_place_writer_matches_the_materialising_writer() {
        for g in corpus_graphs() {
            let owned = materialize_sections(&g);
            let mut reference = Vec::new();
            write_v2_sections(&g, [&owned[0], &owned[1]], &mut reference).unwrap();
            assert_eq!(image_of(&g), reference);
            // …from the arena backend too (what re-saving a loaded snapshot reads).
            assert_eq!(image_of(&read_binary(&reference[..]).unwrap()), reference);
        }
    }

    #[test]
    fn the_writer_records_the_fingerprint() {
        for g in corpus_graphs() {
            let img = image_of(&g);
            assert_eq!(v2_u32(&img, 0x0c), V2_FLAGS);
            assert_eq!(v2_u64(&img, 0x30), g.compute_fingerprint());
            assert_eq!(img[0x38..0x40], [0; 8]);
            let loaded = read_binary(&img[..]).unwrap();
            assert_eq!(loaded.recorded_fingerprint(), Some(g.compute_fingerprint()));
            assert_eq!(loaded.compute_fingerprint(), g.compute_fingerprint());
            // Re-saving a loaded snapshot writes the image it came from.
            assert_eq!(image_of(&loaded), img);
        }
    }

    #[test]
    fn sweep_accepts_exactly_what_the_sequential_validator_accepts() {
        let mut outcomes = std::collections::BTreeSet::new();
        let mut visited = 0usize;
        for base in corpus_bases() {
            for_each_corruption(&base, |img| {
                visited += 1;
                let want = match v2_header(img) {
                    Ok(header) => {
                        let slow = rescan_v2(img, &header);
                        assert_eq!(sweep_v2(img, &header), slow.as_ref().ok().cloned());
                        slow
                    }
                    Err(e) => Err(e),
                };
                let got = validate_v2(img);
                assert_eq!(format!("{got:?}"), format!("{want:?}"));
                outcomes.insert(match got {
                    Ok(_) => "ok".to_string(),
                    Err(GraphError::ChecksumMismatch { section, .. }) => section.to_string(),
                    Err(GraphError::NodeOutOfRange { .. }) => "node out of range".to_string(),
                    Err(e) => e.to_string(),
                });
            });
        }
        assert!(visited > 10_000, "corpus shrank to {visited} images");
        // The corpus reaches every check of the validator.
        for class in [
            "ok",
            "truncated v2 header",
            "bad magic",
            "unsupported snapshot version",
            "unsupported snapshot flags",
            "exceeds u32 ids",
            "odd arc count",
            "exceeds the u32 offsets",
            "sections, header claims",
            "section table",
            "offsets",
            "neighbors",
            "kind",
            "element size",
            "elements, header implies",
            "aligned",
            "overlaps the previous section",
            "size overflow",
            "(truncated?)",
            "sections (padded) end at",
            "inconsistent offsets",
            "offsets not monotone",
            "node out of range",
        ] {
            assert!(
                outcomes.iter().any(|o| o.contains(class)),
                "no corpus image ends in {class:?}: {outcomes:#?}"
            );
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::builder::GraphBuilder;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn binary_roundtrip_arbitrary(edges in prop::collection::vec((0u32..60, 0u32..60), 0..200)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            let mut buf = Vec::new();
            write_binary_v2(&g, &mut buf).unwrap();
            let loaded = read_binary(&buf[..]).unwrap();
            prop_assert_eq!(&loaded, &g);
            // Re-saving the loaded snapshot writes the same bytes.
            let mut again = Vec::new();
            write_binary_v2(&loaded, &mut again).unwrap();
            prop_assert_eq!(again, buf);
        }

        #[test]
        fn binary_v2_roundtrip_arbitrary(edges in prop::collection::vec((0u32..60, 0u32..60), 0..200)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            let mut buf = Vec::new();
            write_binary_v2(&g, &mut buf).unwrap();
            let g2 = read_binary(&buf[..]).unwrap();
            prop_assert_eq!(&g2, &g);
            prop_assert_eq!(g2.fingerprint(), g.fingerprint());
            prop_assert!(g2.check_invariants().is_ok());
        }

        /// Arbitrary graphs under arbitrary few-byte tampering, checksums
        /// left stale or re-recorded: the sweep accepts exactly the images
        /// the sequential validator accepts.
        #[test]
        fn sweep_agrees_with_the_sequential_validator(
            edges in prop::collection::vec((0u32..60, 0u32..60), 0..200),
            tampers in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            repair in any::<bool>(),
        ) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let mut img = Vec::new();
            write_binary_v2(&b.build(), &mut img).unwrap();
            for (at, val) in tampers {
                let at = at % img.len();
                img[at] = val;
            }
            if repair {
                super::tests::resum(&mut img);
            }
            if let Ok(header) = v2_header(&img) {
                prop_assert_eq!(sweep_v2(&img, &header), rescan_v2(&img, &header).ok());
            }
        }

        #[test]
        fn text_roundtrip_arbitrary(edges in prop::collection::vec((0u32..60, 0u32..60), 0..200)) {
            let mut b = GraphBuilder::new();
            for (u, v) in edges {
                b.add_edge(u, v);
            }
            let g = b.build();
            let mut buf = Vec::new();
            write_edge_list(&g, &mut buf).unwrap();
            let g2 = read_edge_list(&buf[..]).unwrap();
            // Text format drops trailing isolated nodes; compare edges.
            let e1: Vec<_> = g.edges().collect();
            let e2: Vec<_> = g2.edges().collect();
            prop_assert_eq!(e1, e2);
        }
    }
}
