//! `hkg_convert` on a v2 image from before the lane sum: `flags = 0`,
//! FNV-1a section checksums, no recorded fingerprint. It must load it,
//! write the current flavour (`flags = 3`: lane sums and the recorded
//! fingerprint) and report the fingerprint unchanged — the upgrade path
//! for every snapshot written by an earlier release.

use std::process::Command;

use hk_graph::builder::graph_from_edges;
use hk_graph::io;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rewrite a freshly written image the way PRs 4–18 wrote it.
fn downgrade(img: &mut [u8]) {
    let u64_at = |img: &[u8], at: usize| u64::from_le_bytes(img[at..at + 8].try_into().unwrap());
    img[0x0c..0x10].fill(0);
    img[0x30..0x38].fill(0);
    for entry in (0x40..0xa0).step_by(32) {
        let elem = u32::from_le_bytes(img[entry + 4..entry + 8].try_into().unwrap()) as usize;
        let pos = u64_at(img, entry + 8) as usize;
        let len = u64_at(img, entry + 16) as usize * elem;
        let sum = fnv1a(&img[pos..pos + len]);
        img[entry + 24..entry + 32].copy_from_slice(&sum.to_le_bytes());
    }
    let table_sum = fnv1a(&img[0x40..0xa0]);
    img[0x28..0x30].copy_from_slice(&table_sum.to_le_bytes());
}

#[test]
fn hkg_convert_upgrades_a_pre_lane_sum_image() {
    let n = 41u32;
    let g = graph_from_edges((0..n).flat_map(|v| [(v, (v + 1) % n), (v, (v + 7) % n)]));
    let mut fresh = Vec::new();
    io::write_binary_v2(&g, &mut fresh).unwrap();
    let mut old = fresh.clone();
    downgrade(&mut old);
    assert_eq!(old[0x0c], 0);
    assert_ne!(old, fresh);

    let dir = std::env::temp_dir().join(format!("hkg_convert_legacy_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (input, output) = (dir.join("old.hkg"), dir.join("new.hkg"));
    std::fs::write(&input, &old).unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_hkg_convert"))
        .args([&input, &output])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "hkg_convert failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&run.stdout).trim(),
        format!("{:#018x}", g.fingerprint())
    );
    // The converted file is the image a fresh save writes: lane sums and
    // the recorded fingerprint.
    let converted = std::fs::read(&output).unwrap();
    assert_eq!(converted[0x0c], 3);
    assert_eq!(converted, fresh);
    let reloaded = io::load_binary_v2(&output).unwrap();
    assert_eq!(reloaded, g);
    assert_eq!(reloaded.recorded_fingerprint(), Some(g.fingerprint()));
    let _ = std::fs::remove_dir_all(&dir);
}
