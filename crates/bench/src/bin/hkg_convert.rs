//! Convert a `.hkg` snapshot (v1 or v2, auto-detected) to the v2 aligned
//! format and verify the conversion differentially: the written file is
//! reloaded through the zero-copy arena path and must be bitwise equal to
//! the source — same CSR, same fingerprint. The fingerprint the new image
//! records is checked against a hash of the reloaded arrays, never only
//! against itself. Exits nonzero on any mismatch, so CI can use it as a
//! convert-then-verify smoke step.
//!
//! Usage: `hkg_convert IN.hkg OUT.hkg`

use hk_graph::io;

fn main() {
    let mut args = std::env::args().skip(1);
    let (input, output) = match (args.next(), args.next(), args.next()) {
        (Some(i), Some(o), None) => (i, o),
        _ => {
            eprintln!("usage: hkg_convert IN.hkg OUT.hkg");
            std::process::exit(2);
        }
    };

    let source = match io::load_binary(&input) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: load {input}: {e}");
            std::process::exit(1);
        }
    };
    let fp = source.fingerprint();
    eprintln!(
        "loaded {input}: {} nodes, {} edges, backend {}, fingerprint {fp:#018x}",
        source.num_nodes(),
        source.num_edges(),
        source.backend(),
    );

    if let Err(e) = io::save_binary_v2(&source, &output) {
        eprintln!("error: write {output}: {e}");
        std::process::exit(1);
    }

    // Differential verification through the arena path.
    let reloaded = match io::load_binary_v2(&output) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("error: reload {output}: {e}");
            std::process::exit(1);
        }
    };
    if reloaded != source {
        eprintln!("error: reloaded v2 CSR differs from the source");
        std::process::exit(1);
    }
    let Some(recorded) = reloaded.recorded_fingerprint() else {
        eprintln!("error: {output} records no fingerprint");
        std::process::exit(1);
    };
    let recomputed = reloaded.compute_fingerprint();
    if recorded != recomputed || recorded != fp {
        eprintln!(
            "error: fingerprint drift: source {fp:#018x}, recorded {recorded:#018x}, \
             recomputed {recomputed:#018x}"
        );
        std::process::exit(1);
    }
    let in_bytes = std::fs::metadata(&input).map(|m| m.len()).unwrap_or(0);
    let out_bytes = std::fs::metadata(&output).map(|m| m.len()).unwrap_or(0);
    eprintln!(
        "wrote {output}: {out_bytes} bytes (v1 was {in_bytes}), backend {}, verified bitwise-equal, \
         fingerprint recorded",
        reloaded.backend(),
    );
    println!("{fp:#018x}");
}
