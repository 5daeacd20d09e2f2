//! Conformance of the in-tree number printers: `write_f64` must write
//! byte for byte what `format!("{v}")` writes (the text every recorded
//! body and golden fixture was rendered with), `json::parse` must read
//! the text back to the identical bit pattern, and `write_u64` must agree
//! with `write_f64` on every integer `f64` holds exactly.
//!
//! The value classes are the ones where a shortest-digits printer can go
//! wrong: random bit patterns, full-mantissa values in (0, 1) (what an
//! HKPR estimate is made of), the 2^40–2^53 zone where exact ties between
//! two shortest candidates occur, short mantissas `m · 2^-j`, powers of
//! two and their neighbours (the lopsided rounding interval), subnormals
//! and the extremes.

use hk_gateway::json::{self, write_f64, write_u64};
use proptest::prelude::*;

/// One value through every check; `Err` names the first that failed.
fn check(v: f64) -> Result<(), String> {
    let mut out = Vec::new();
    write_f64(&mut out, v);
    let text = String::from_utf8(out).map_err(|e| e.to_string())?;
    let display = format!("{v}");
    if text != display {
        return Err(format!(
            "bits {:#018x}: wrote {text}, Display writes {display}",
            v.to_bits()
        ));
    }
    let back = json::parse(text.as_bytes())
        .map_err(|e| format!("{text}: {e}"))?
        .as_f64()
        .ok_or("not a number")?;
    if back.to_bits() != v.to_bits() {
        return Err(format!(
            "bits {:#018x}: {text} parses back to {:#018x}",
            v.to_bits(),
            back.to_bits()
        ));
    }
    if (0.0..json::MAX_SAFE_INT).contains(&v) && v.fract() == 0.0 && !v.is_sign_negative() {
        let mut int = Vec::new();
        write_u64(&mut int, v as u64);
        if int != text.as_bytes() {
            return Err(format!("write_u64({}) differs from {text}", v as u64));
        }
    }
    Ok(())
}

/// A finite value of one of the classes above, from two random words.
fn draw(class: u64, a: u64, b: u64) -> f64 {
    let finite = |bits: u64| {
        let v = f64::from_bits(bits);
        if v.is_finite() {
            v
        } else {
            f64::from_bits(bits & !(1 << 62))
        }
    };
    match class % 8 {
        // Any bit pattern.
        0 | 1 => finite(a),
        // (0, 1) with all 53 bits of mantissa in play.
        2 | 3 => (a >> 11) as f64 * 2f64.powi(-53) * 2f64.powi(-((b % 60) as i32)),
        // Quarter- and eighth-integers between 2^40 and 2^53: where two
        // shortest candidates can be equally far away.
        4 => {
            let exp = 1023 + 40 + b % 13;
            f64::from_bits(exp << 52 | a >> 12)
        }
        // Short mantissas m · 2^-j.
        5 => (a % (1 << 20)) as f64 * 2f64.powi(-((b % 80) as i32)),
        // A power of two and its neighbours, normal or subnormal.
        6 => {
            let exp = b % 2047;
            finite((exp << 52).wrapping_add(a % 3).wrapping_sub(1))
        }
        // Subnormals.
        _ => f64::from_bits(a >> 12),
    }
}

#[test]
fn fixed_edge_cases_match_display() {
    let mut cases = vec![
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        f64::MIN_POSITIVE,
        f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1), // largest subnormal
        f64::from_bits(f64::MIN_POSITIVE.to_bits() + 1),
        f64::MAX,
        f64::MIN,
        f64::EPSILON,
        0.1,
        0.2,
        0.1 + 0.2,
        1.0 / 3.0,
        2.0 / 3.0,
        1e21,
        1e22,
        1e23,
        9.5e-5,
        123456.789e3,
        4.35,
        0.000001,
        299792458.0,
        6.02214076e23,
        1.7976931348623157e308,
        2.2250738585072014e-308,
        2.225073858507201e-308,
        9007199254740991.0,
        9007199254740992.0,
        9007199254740994.0,
        // Ties between two shortest candidates: `Display` takes the upper
        // (…323.3); round-half-even would print …323.2.
        f64::from_bits(0x4318_0467_b3a7_ed6d),
        f64::from_bits(0x4318_0467_b3a7_ed6b),
        f64::from_bits(0x4318_0467_b3a7_ed6f),
    ];
    // Integers: every power of two up to 2^53 with its neighbours, and
    // the u32 boundaries node ids and seeds live at.
    for shift in 0..=53u32 {
        let p = 1u64 << shift;
        cases.extend([p - 1, p, p + 1].map(|i| i as f64));
    }
    for i in [
        u32::MAX as u64 - 1,
        u32::MAX as u64,
        u32::MAX as u64 + 1,
        i32::MAX as u64,
        i32::MAX as u64 + 1,
        u16::MAX as u64,
        u16::MAX as u64 + 1,
        10,
        99,
        100,
        999_999_999,
        1_000_000_000,
        (1 << 53) - 1,
    ] {
        cases.push(i as f64);
    }
    // Every power of two, with the value one ulp either side of it.
    for exp in 0..2047u64 {
        for bits in [(exp << 52).wrapping_sub(1), exp << 52, (exp << 52) + 1] {
            let v = f64::from_bits(bits);
            if v.is_finite() {
                cases.push(v);
            }
        }
    }
    // Every power of ten `f64` can hold, and its neighbours.
    for e in -323..=308 {
        let v: f64 = format!("1e{e}").parse().unwrap();
        cases.extend([
            f64::from_bits(v.to_bits() - 1),
            v,
            f64::from_bits(v.to_bits() + 1),
        ]);
    }
    for v in cases {
        for v in [v, -v] {
            check(v).unwrap_or_else(|e| panic!("{e}"));
        }
    }
}

#[test]
fn the_half_way_tie_goes_up_like_display() {
    let v = f64::from_bits(0x4318_0467_b3a7_ed6d);
    let mut out = Vec::new();
    write_f64(&mut out, v);
    let text = String::from_utf8(out).unwrap();
    assert!(text.ends_with("323.3"), "{text}");
    assert_eq!(text, format!("{v}"));
}

#[test]
fn non_finite_values_are_null() {
    for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
        let mut out = Vec::new();
        write_f64(&mut out, v);
        assert_eq!(out, b"null");
    }
}

#[test]
fn write_u64_is_exact_over_its_whole_range() {
    for v in [0u64, 1, 9, 10, 11, 99, 100, 101, 12345, u32::MAX as u64] {
        let mut a = Vec::new();
        write_u64(&mut a, v);
        assert_eq!(String::from_utf8(a).unwrap(), v.to_string());
    }
    // Above 2^53 write_u64 stays exact where the f64 detour rounds.
    let mut a = Vec::new();
    write_u64(&mut a, u64::MAX);
    assert_eq!(a, u64::MAX.to_string().as_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20_000))]

    #[test]
    fn write_f64_matches_display_and_round_trips(class in any::<u64>(),
                                                 a in any::<u64>(),
                                                 b in any::<u64>(),
                                                 negative in any::<bool>()) {
        let v = draw(class, a, b);
        let v = if negative { -v } else { v };
        if let Err(e) = check(v) {
            prop_assert!(false, "{e}");
        }
    }
}

/// The same differential over 50M values — minutes in a debug build, so
/// CI runs it optimized: `cargo test --release -p hk-gateway -- --ignored`.
#[test]
#[ignore = "50M-value differential; run with --release -- --ignored"]
fn fifty_million_values_match_display() {
    // SplitMix64: the run is the same everywhere.
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in 0..50_000_000u64 {
        let v = draw(i, next(), next());
        check(v).unwrap_or_else(|e| panic!("value {i}: {e}"));
        check(-v).unwrap_or_else(|e| panic!("value {i} negated: {e}"));
    }
}
