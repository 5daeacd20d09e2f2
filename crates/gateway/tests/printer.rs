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

use hk_cluster::ClusterResult;
use hk_gateway::json::{self, write_f64, write_u64};
use hk_gateway::wire::write_result;
use hkpr_core::estimate::HkprEstimate;
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

/// The edges of the fast `0.ddd…` layout every estimate value takes: its
/// 17-digit significand field, the 46 fraction digits it has room for,
/// and the point between it and the general layout.
#[test]
fn fast_layout_edges_match_display() {
    let mut cases = vec![
        f64::from_bits(1f64.to_bits() - 1), // the largest value below 1.0
        f64::MIN_POSITIVE,
        f64::from_bits(1),
        f64::from_bits(f64::MIN_POSITIVE.to_bits() - 1),
        f64::from_bits(0x000a_bcde_f012_3456),
        0.0,
    ];
    // Fraction-digit counts on both sides of the field's 15-17 digits and
    // of its 46-digit room, each with significands of 1 to 17 digits.
    const DIGITS: &str = "12345678912345678";
    for fraction in [14, 15, 16, 17, 46, 47] {
        for len in 1..=17.min(fraction) {
            let text = format!("0.{}{}", "0".repeat(fraction - len), &DIGITS[..len]);
            let v: f64 = text.parse().unwrap();
            // Up to 15 significant digits always survive the round trip.
            if len <= 15 {
                assert_eq!(format!("{v}"), text);
            }
            cases.extend([
                v,
                f64::from_bits(v.to_bits() - 1),
                f64::from_bits(v.to_bits() + 1),
            ]);
        }
    }
    // 1e-1 … 1e-30 and one ulp either side.
    for e in 1..=30 {
        let v: f64 = format!("1e-{e}").parse().unwrap();
        cases.extend([
            f64::from_bits(v.to_bits() - 1),
            v,
            f64::from_bits(v.to_bits() + 1),
        ]);
    }
    for v in cases {
        // Negatives in (-1, 0) and -0.0 come from the sign flip.
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

/// SplitMix64: a differential's run is the same everywhere.
fn split_mix(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The same differential over 50M values — minutes in a debug build, so
/// CI runs it optimized: `cargo test --release -p hk-gateway -- --ignored`.
#[test]
#[ignore = "50M-value differential; run with --release -- --ignored"]
fn fifty_million_values_match_display() {
    let mut next = split_mix(0);
    for i in 0..50_000_000u64 {
        let v = draw(i, next(), next());
        check(v).unwrap_or_else(|e| panic!("value {i}: {e}"));
        check(-v).unwrap_or_else(|e| panic!("value {i} negated: {e}"));
    }
}

/// 5M `(id, value)` pairs through the answer writer's fused entries pass,
/// each against `[{id},{value}]` as `Display` renders it: values of every
/// class above with either sign, ids crossing every digit-count edge up
/// to `u32::MAX`, 100 answers of 50,000 pairs. Run with the 50M-value
/// differential: `cargo test --release -p hk-gateway --test printer --
/// --ignored`.
#[test]
#[ignore = "5M-pair differential; run with --release -- --ignored"]
fn five_million_entries_match_display() {
    const PAIRS: u32 = 50_000;
    let mut next = split_mix(1);
    let mut out = Vec::new();
    for answer in 0..100u32 {
        // Ids climb in steps of 1 to 16 from just below a power of ten,
        // or from where they reach toward u32::MAX.
        let first = match answer % 11 {
            10 => u32::MAX - 16 * (PAIRS - 1),
            e => 10u32.pow(e).saturating_sub(PAIRS),
        };
        let mut ids = vec![first];
        for _ in 1..PAIRS {
            ids.push(ids[ids.len() - 1] + 1 + (next() % 16) as u32);
        }
        let values: Vec<f64> = (0..PAIRS)
            .map(|_| {
                let v = draw(next(), next(), next());
                if next() & 1 == 0 {
                    v
                } else {
                    -v
                }
            })
            .collect();
        let mut want = String::from("\"entries\":[");
        for (i, (id, v)) in ids.iter().zip(&values).enumerate() {
            want.push_str(&format!("{}[{id},{v}]", if i > 0 { "," } else { "" }));
        }
        want.push_str("]}}");
        let result = ClusterResult {
            cluster: vec![],
            conductance: 0.0,
            estimate: HkprEstimate::from_sorted_columns(ids, values),
            stats: Default::default(),
            support_size: 0,
        };
        out.clear();
        write_result(&mut out, &result);
        let text = std::str::from_utf8(&out).unwrap();
        let got = &text[text.find("\"entries\":").unwrap()..];
        if got != want {
            let at = got
                .bytes()
                .zip(want.bytes())
                .take_while(|(a, b)| a == b)
                .count();
            let from = got[..at].rfind('[').unwrap_or(0);
            panic!(
                "answer {answer}: wrote {:?}, Display writes {:?}",
                &got[from..(from + 80).min(got.len())],
                &want[from..(from + 80).min(want.len())]
            );
        }
    }
}
