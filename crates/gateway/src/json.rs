//! A tiny in-tree JSON reader/writer — the wire format of the gateway.
//!
//! The build environment has no crates.io access, so (like `vendor/`
//! stands in for `rand`) the gateway carries its own JSON support: a
//! strict recursive-descent parser over UTF-8 bytes with a depth cap,
//! and an append-only writer over `Vec<u8>` with two number printers.
//!
//! * [`write_u64`] prints integers (node ids, counters, sizes) eight
//!   digits per SWAR block, with no loop over the digits.
//! * [`write_f64`] is a Schubfach-style shortest-round-trip printer: it
//!   finds the shortest decimal inside the rounding interval of the
//!   `f64` with three 64×128-bit multiplications against a table of
//!   powers of ten, takes the candidate closest to the exact value
//!   (exact ties go up) with selects rather than branches, and lays the
//!   digits out in fixed notation — never an exponent, `-0` keeps its
//!   sign. A non-zero value in (-1, 1) whose digits end at most 46
//!   places behind the point (every `|v| ≥ 1e-29`: what an estimate is
//!   made of) is written into a field of zeros with no branch on its
//!   digits; the rest take a general layout. The answer
//!   writer in [`crate::wire`] calls the same code per entry, into space
//!   it reserved for many at once. Its text is byte-identical
//!   to Rust's `Display` for `f64`, which the answers were rendered
//!   through before and which every recorded body, golden fixture and
//!   client expects. `tests/printer.rs` pins that against
//!   `format!("{v}")` over random bit patterns, ties, subnormals, powers
//!   of two and integers, and pins `parse` of the text returning the
//!   **identical bit pattern** for every finite `f64` — which is what
//!   lets the serving conformance suite assert *bitwise* equality of
//!   answers across the wire.
//!
//! Two deliberate wire-format bounds, both documented in the README:
//!
//! * integers are carried as JSON numbers and parsed through `f64`, so
//!   values beyond 2^53 lose precision — every integer on this wire
//!   (node ids, counters, `rng_seed`) must stay below that, and the
//!   request decoder rejects larger ones rather than rounding silently;
//! * non-finite floats have no JSON representation and are written as
//!   `null`.

use std::sync::OnceLock;

/// Maximum nesting depth the parser accepts (arrays + objects).
pub const MAX_DEPTH: usize = 32;

/// Largest integer exactly representable on the wire (2^53).
pub const MAX_SAFE_INT: f64 = 9_007_199_254_740_992.0;

/// A JSON value: what [`parse`] returns and [`Json::render`] writes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers ride in the mantissa; see module docs).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are rejected).
    Obj(Vec<(String, Json)>),
    /// A pre-rendered fragment, trusted to be one valid JSON value:
    /// [`Json::render`] copies it as it is, the accessors treat it as
    /// opaque (every `as_*` and `get` answers `None`), and [`parse`]
    /// never produces it. It lets a large answer rendered once by the
    /// streaming writers in [`crate::wire`] sit inside a tree.
    Raw(String),
}

/// A typed parse failure: byte offset + reason. Never a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Object field lookup (first match; objects reject duplicates at
    /// parse time).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer: rejects fractions,
    /// negatives and anything at or above 2^53 (where `f64` stops being
    /// exact) rather than rounding silently.
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v.fract() == 0.0 && (0.0..MAX_SAFE_INT).contains(&v)).then_some(v as u64)
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value fields, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write_into(&mut out);
        String::from_utf8(out).expect("the writers emit UTF-8 only")
    }

    /// Append the compact rendering to `out`.
    pub(crate) fn write_into(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(true) => out.extend_from_slice(b"true"),
            Json::Bool(false) => out.extend_from_slice(b"false"),
            Json::Num(v) => write_f64(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.write_into(out);
                }
                out.push(b']');
            }
            Json::Obj(fields) => {
                out.push(b'{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    write_str(out, k);
                    out.push(b':');
                    v.write_into(out);
                }
                out.push(b'}');
            }
            Json::Raw(text) => out.extend_from_slice(text.as_bytes()),
        }
    }
}

/// The digits of `n < 10^8`, zero-padded to eight, one per byte with the
/// first in the lowest: SWAR arithmetic splits the number 4 + 4 into two
/// 32-bit lanes, each lane 2 + 2 into 16-bit lanes and each pair 1 + 1
/// into bytes, one multiply-shift per step for all lanes at once
/// (`x · 10486 >> 20` is `x / 100` below 10^4, `x · 103 >> 10` is `x / 10`
/// below 100, and neither product crosses into the next lane).
fn digit_block(n: u32) -> u64 {
    debug_assert!(n < 100_000_000);
    let n = n as u64;
    let high = n / 10_000;
    let quads = high | (n - high * 10_000) << 32;
    let high = ((quads * 10_486) >> 20) & 0x0000_007f_0000_007f;
    let pairs = high | (quads - high * 100) << 16;
    let high = ((pairs * 103) >> 10) & 0x000f_000f_000f_000f;
    high | (pairs - high * 10) << 8
}

/// `'0'` in every byte: or-ed onto a [`digit_block`], the ASCII digits.
const ASCII_ZEROS: u64 = 0x3030_3030_3030_3030;

/// A [`digit_block`] as the ASCII bytes it is written as.
fn ascii_block(n: u32) -> [u8; 8] {
    (digit_block(n) | ASCII_ZEROS).to_le_bytes()
}

/// `10^i` for every `i` a `u64` holds.
const POW10: [u64; 20] = {
    let mut table = [1u64; 20];
    let mut i = 1;
    while i < 20 {
        table[i] = table[i - 1] * 10;
        i += 1;
    }
    table
};

/// Number of decimal digits of `v`, one for zero. The leading-zero count
/// gives `floor(log10(2^bits))` (`1233 / 4096` is `log10(2)` to four
/// places), which is the count or one short of it; the table of powers of
/// ten decides which.
fn decimal_len(v: u64) -> usize {
    let bits = 64 - (v | 1).leading_zeros();
    let floor = ((bits * 1233) >> 12) as usize;
    floor + (v | 1 >= POW10[floor]) as usize
}

/// Write `v` right-aligned at the end of `buf` (at least 24 bytes: three
/// eight-digit blocks, zero-padded) and return the index of its first
/// digit.
fn format_u64(buf: &mut [u8], v: u64) -> usize {
    let end = buf.len();
    let rest = v % POW10[16];
    // u64::MAX / 10^16 is 1844: the top block never overflows.
    buf[end - 24..end - 16].copy_from_slice(&ascii_block((v / POW10[16]) as u32));
    buf[end - 16..end - 8].copy_from_slice(&ascii_block((rest / POW10[8]) as u32));
    buf[end - 8..].copy_from_slice(&ascii_block((rest % POW10[8]) as u32));
    end - decimal_len(v)
}

/// Write an integer in decimal. For every value below 2^53 the text is
/// what [`write_f64`] writes for `v as f64`.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    let mut buf = [0u8; 24];
    let first = format_u64(&mut buf, v);
    out.extend_from_slice(&buf[first..]);
}

/// Bytes [`write_u32_into`] may touch.
pub(crate) const U32_ROOM: usize = 10;

/// Write `v` in decimal at the front of `w` (at least [`U32_ROOM`] bytes)
/// and return its length; bytes behind it may be overwritten. Below 10^8,
/// which every node id of a graph that fits in memory is, the number is
/// one [`digit_block`] shifted past its leading zeros (its lowest zero
/// bytes; zero keeps one), with no branch on the digits.
#[inline(always)]
pub(crate) fn write_u32_into(w: &mut [u8], v: u32) -> usize {
    if v >= 100_000_000 {
        let mut buf = [0u8; 24];
        let first = format_u64(&mut buf, v as u64);
        w[..24 - first].copy_from_slice(&buf[first..]);
        return 24 - first;
    }
    let block = digit_block(v);
    let leading = (block.trailing_zeros() / 8).min(7);
    w[..8].copy_from_slice(&((block | ASCII_ZEROS) >> (8 * leading)).to_le_bytes());
    8 - leading as usize
}

/// Bytes [`write_f64_into`] may touch: a sign, `0.` and 46 fraction
/// digits.
pub(crate) const F64_ROOM: usize = 49;

/// `0.` and the 46 zeros a fraction in the fast layout can start with.
const FRACTION_FIELD: [u8; 48] = {
    let mut field = [b'0'; 48];
    field[1] = b'.';
    field
};

/// Write `v` at the front of `w` (at least [`F64_ROOM`] bytes) and return
/// its length if it has the layout of an estimate value: `0 < |v| < 1`,
/// written `0.`, zeros and digits, with the last of the shortest
/// decimal's 15 to 17 digits (trailing zeros included) at most 46 places
/// behind the point — every `|v| ≥ 10^-29`, no `|v| < 10^-32`. Anything
/// else (zero, `|v| ≥ 1`, smaller values, non-finite) returns `None` for
/// [`write_f64`]'s general layout; the bytes of `w` are then garbage.
///
/// The significand (at most 17 digits) is written 1 + 8 + 8 into a field
/// of zeros so that its last digit lands on the last fraction digit; its
/// padding zeros fall on the field's zeros or on the `0.`, which is
/// written after it. Trailing zeros are counted in the digit blocks, not
/// divided away.
#[inline(always)]
pub(crate) fn write_f64_into(w: &mut [u8], v: f64) -> Option<usize> {
    let bits = v.to_bits();
    let abs = bits & (u64::MAX >> 1);
    // Zero, and everything from 1.0 up (infinity and NaN included).
    if abs.wrapping_sub(1) >= 1f64.to_bits() - 1 {
        return None;
    }
    let (digits, exp10) = shortest_decimal(abs);
    // Every normal value below one has 15 fraction digits at least.
    let fraction = exp10.unsigned_abs() as usize;
    if exp10 >= 0 || !(15..=46).contains(&fraction) || digits >= POW10[17] {
        return None;
    }
    let negative = (bits >> 63) as usize;
    w[0] = b'-';
    let w = &mut w[negative..negative + FRACTION_FIELD.len()];
    w.copy_from_slice(&FRACTION_FIELD);
    // One 64-bit division; the nine digits above the low block fit a u32.
    let upper = digits / POW10[8];
    let low = digit_block((digits - upper * POW10[8]) as u32);
    let upper = upper as u32;
    let top = upper / 100_000_000;
    let middle = digit_block(upper - top * 100_000_000);
    let end = 2 + fraction;
    w[end - 17] = b'0' + top as u8;
    w[end - 16..end - 8].copy_from_slice(&(middle | ASCII_ZEROS).to_le_bytes());
    w[end - 8..end].copy_from_slice(&(low | ASCII_ZEROS).to_le_bytes());
    w[..2].copy_from_slice(b"0.");
    // The last digit sits in a block's highest byte, so a block's trailing
    // zero digits are its leading zero bytes; an all-zero low block (8)
    // adds the middle block's.
    let low_zeros = low.leading_zeros() / 8;
    let zeros = low_zeros + (low_zeros == 8) as u32 * (middle.leading_zeros() / 8);
    Some(negative + end - zeros as usize)
}

/// Write `v` as the shortest decimal that parses back to the identical
/// bit pattern (`-0.0` included), in fixed notation: byte for byte what
/// `format!("{v}")` gives. Non-finite values become `null`.
pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    let at = out.len();
    out.resize(at + F64_ROOM, 0);
    match write_f64_into(&mut out[at..], v) {
        Some(len) => out.truncate(at + len),
        None => {
            out.truncate(at);
            write_f64_general(out, v);
        }
    }
}

/// [`write_f64`] for the values [`write_f64_into`] leaves out.
fn write_f64_general(out: &mut Vec<u8>, v: f64) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
        return;
    }
    let bits = v.to_bits();
    if bits >> 63 != 0 {
        out.push(b'-');
    }
    let (mut digits, mut exp10) = shortest_decimal(bits & (u64::MAX >> 1));
    // The decimal is found at the scale of the value's binade, so a short
    // one comes back padded (1.5 as 1500000000000000 · 10^-15); zeros
    // behind the point are not written.
    while exp10 < 0 && digits % 10 == 0 {
        digits /= 10;
        exp10 += 1;
    }
    // The digits go at the end of a field of zeros, so the zeros between
    // "0." and the first digit of a small value are already in place.
    const FIELD: usize = 64;
    let mut buf = [b'0'; FIELD];
    let first = format_u64(&mut buf, digits);
    if exp10 >= 0 {
        out.extend_from_slice(&buf[first..]);
        out.resize(out.len() + exp10 as usize, b'0');
        return;
    }
    let len = FIELD - first;
    let fraction = exp10.unsigned_abs() as usize;
    if fraction < len {
        // The point falls inside the digits: move the integer part up.
        let point = FIELD - fraction - 1;
        buf.copy_within(first..=point, first - 1);
        buf[point] = b'.';
        out.extend_from_slice(&buf[first - 1..]);
    } else if fraction + 2 <= FIELD {
        let start = FIELD - fraction - 2;
        buf[start + 1] = b'.';
        out.extend_from_slice(&buf[start..]);
    } else {
        out.extend_from_slice(b"0.");
        out.resize(out.len() + fraction - len, b'0');
        out.extend_from_slice(&buf[first..]);
    }
}

/// Shortest decimal `digits · 10^exp10` that rounds to the non-negative
/// finite `f64` with these bits, closest to it among the shortest, exact
/// ties going up (as `Display`'s exact fallback decides them; round-half-
/// even would print `…323.2` where `Display` prints `…323.3` for bits
/// `0x43180467b3a7ed6d`). After R. Giulietti, "The Schubfach way to
/// render doubles" (2020); variable names follow the paper.
#[inline(always)]
fn shortest_decimal(bits: u64) -> (u64, i32) {
    let fraction = bits & ((1 << 52) - 1);
    let biased = (bits >> 52) as i32;
    // The value is c · 2^q.
    let (c, q) = if biased != 0 {
        let c = fraction | 1 << 52;
        let q = biased - 1075;
        // An integer below 2^53 is its own shortest decimal.
        if (-52..=0).contains(&q) && c.trailing_zeros() >= q.unsigned_abs() {
            return (c >> -q, 0);
        }
        (c, q)
    } else if fraction != 0 {
        (fraction, -1074)
    } else {
        return (0, 0);
    };
    // The rounding interval, scaled by 4 so its ends are integers. Below
    // a power of two the spacing halves, so the lower end is closer.
    let lower_is_closer = fraction == 0 && biased > 1;
    let ends_inside = c & 1 == 0;
    let cbl = 4 * c - 2 + lower_is_closer as u64;
    let cb = 4 * c;
    let cbr = 4 * c + 2;
    // k = floor(log10(2^q)), or of 3/4 · 2^q for the lopsided interval:
    // 10^k is the largest power of ten not above the interval's width.
    let k = (q * 1_262_611 - if lower_is_closer { 524_031 } else { 0 }) >> 22;
    // h = q + floor(log2(10^-k)) + 1, in 1..=4.
    let h = q + ((-k * 1_741_647) >> 19) + 1;
    let g = pow10_table()[(292 - k) as usize];
    let vbl = round_to_odd(g, cbl << h);
    let vb = round_to_odd(g, cb << h);
    let vbr = round_to_odd(g, cbr << h);
    let lower = vbl + !ends_inside as u64;
    let upper = vbr - !ends_inside as u64;
    // vb / 4 is the value in units of 10^k. One digit shorter wins if
    // exactly one of its two neighbours is inside the interval (at most
    // one multiple of 10^(k+1) is).
    let s = vb / 4;
    let sp = s / 10;
    let short_down = lower <= 40 * sp;
    let short_up = 40 * sp + 40 <= upper;
    let short = (s >= 10) & (short_down != short_up);
    // Otherwise the inside neighbour at full length, or, when both are
    // inside, the closer one, a tie going up.
    let down = lower <= 4 * s;
    let up = 4 * s + 4 <= upper;
    let round_up = (up & !down) | (up == down) & (vb >= 4 * s + 2);
    // Every test above is data the branch predictor cannot learn, so the
    // candidates are picked with selects, not branches.
    let digits = select(short, sp + short_up as u64, s + round_up as u64);
    (digits, k + short as i32)
}

/// `if pick { a } else { b }` as arithmetic on a mask, which the compiler
/// keeps free of branches.
fn select(pick: bool, a: u64, b: u64) -> u64 {
    let mask = (pick as u64).wrapping_neg();
    a & mask | b & !mask
}

/// The top 64 bits of `cp · g / 2^64` with every bit below them folded
/// into the lowest one, so comparisons against the exact product hold.
fn round_to_odd((g_hi, g_lo): (u64, u64), cp: u64) -> u64 {
    let low = (cp as u128) * (g_lo as u128);
    let high = (cp as u128) * (g_hi as u128) + (low >> 64);
    (high >> 64) as u64 | ((high as u64) > 1) as u64
}

/// Entry `k + 292`, for `k` in -292..=324, is the 128-bit significand of
/// `10^k` rounded up: `g = ceil(10^k · 2^-r)` as `(high, low)` words,
/// with `r` putting it in `2^127 ≤ g < 2^128`. Every `f64` needs one of
/// these 617 and no other.
fn pow10_table() -> &'static [(u64, u64); 617] {
    static TABLE: OnceLock<[(u64, u64); 617]> = OnceLock::new();
    TABLE.get_or_init(build_pow10_table)
}

/// Build the table by exact integer arithmetic, one short multiplication
/// or division per entry. `10^k = 5^k · 2^k` has the significand of
/// `5^k`, so powers of five are enough.
fn build_pow10_table() -> [(u64, u64); 617] {
    // Little-endian 32-bit limbs; 864 bits hold 5^324 < 2^753 and leave
    // 2^863 / 5^292 > 2^184, more than the 128 bits an entry takes.
    const LIMBS: usize = 27;
    let mut table = [(0u64, 0u64); 617];
    // 5^k exactly, for k = 0, 1, …: the significand is exact while it
    // fits 128 bits (k ≤ 55) and rounded up afterwards.
    let mut x = [0u32; LIMBS];
    x[0] = 1;
    for entry in &mut table[292..] {
        let (g, inexact) = top_128_bits(&x);
        *entry = split(g + inexact as u128);
        let mut carry = 0u64;
        for limb in &mut x {
            let wide = *limb as u64 * 5 + carry;
            *limb = wide as u32;
            carry = wide >> 32;
        }
    }
    // floor(2^863 / 5^n) for n = 1, 2, …: dividing the previous floor by
    // five is exact (floor(floor(a / b) / c) = floor(a / (b · c))), and
    // its top 128 bits are floor(2^s / 5^n) for the s that normalizes it.
    // 5^n never divides a power of two, so rounding up always adds one.
    let mut x = [0u32; LIMBS];
    x[LIMBS - 1] = 1 << 31;
    for entry in table[..292].iter_mut().rev() {
        let mut rem = 0u64;
        for limb in x.iter_mut().rev() {
            let wide = rem << 32 | *limb as u64;
            *limb = (wide / 5) as u32;
            rem = wide % 5;
        }
        *entry = split(top_128_bits(&x).0 + 1);
    }
    table
}

fn split(g: u128) -> (u64, u64) {
    ((g >> 64) as u64, g as u64)
}

/// The 128 bits of a non-zero `x` from its highest set bit down (shifted
/// up when `x` is shorter), and whether any set bit was left below them.
fn top_128_bits(x: &[u32]) -> (u128, bool) {
    let top = x
        .iter()
        .rposition(|&limb| limb != 0)
        .expect("a power of five is not zero");
    let limb = |below: usize| top.checked_sub(below).map_or(0, |i| x[i]);
    let shift = x[top].leading_zeros();
    let words = (limb(0) as u128) << 96
        | (limb(1) as u128) << 64
        | (limb(2) as u128) << 32
        | limb(3) as u128;
    // A fifth limb fills the bits the normalizing shift frees.
    let fifth = (limb(4) as u64) << shift;
    let g = words << shift | (fifth >> 32) as u128;
    let rest = &x[..top.saturating_sub(4)];
    (g, fifth as u32 != 0 || rest.iter().any(|&limb| limb != 0))
}

/// Write a JSON string literal with the mandatory escapes.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0..=0x1f => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[(b >> 4) as usize]);
                out.push(HEX[(b & 15) as usize]);
            }
            // Bytes of a multi-byte scalar are all above 0x7f.
            _ => out.push(b),
        }
    }
    out.push(b'"');
}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
    let mut p = Parser { input, pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.input.len() {
        return Err(p.err("trailing data after document"));
    }
    Ok(value)
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, reason: &str) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected byte")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let code = self.hex4()?;
                            // Surrogate pairs: require the low half.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(c)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(code)
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                            continue; // hex4 advanced past the digits
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control byte in string")),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is validated below).
                    let start = self.pos;
                    let len = utf8_len(self.input[start]);
                    let end = start + len;
                    if len == 0 || end > self.input.len() {
                        return Err(self.err("invalid UTF-8"));
                    }
                    match std::str::from_utf8(&self.input[start..end]) {
                        Ok(s) => out.push_str(s),
                        Err(_) => return Err(self.err("invalid UTF-8")),
                    }
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => (c - b'0') as u32,
                Some(c @ b'a'..=b'f') => (c - b'a' + 10) as u32,
                Some(c @ b'A'..=b'F') => (c - b'A' + 10) as u32,
                _ => return Err(self.err("expected 4 hex digits")),
            };
            code = code * 16 + d;
            self.pos += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: "0" or nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // The token is ASCII by construction; std's float parsing is
        // correctly rounded, so Display output round-trips bit-exactly. It
        // reads an overflowing token (`1e400`) as infinity, which JSON has
        // no number for; an underflowing one is a finite zero.
        let token = std::str::from_utf8(&self.input[start..self.pos]).unwrap();
        match token.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => Err(self.err("number out of range")),
        }
    }
}

/// Length of the UTF-8 sequence starting with `first` (0 = invalid lead).
fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC2..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0..=0xF4 => 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = br#"{"a": [1, 2.5, -3e-2], "b": {"nested": true}, "s": "q\"\\\n", "n": null}"#;
        let v = parse(doc).unwrap();
        let rendered = v.render();
        assert_eq!(parse(rendered.as_bytes()).unwrap(), v);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("s").unwrap().as_str().unwrap(), "q\"\\\n");
    }

    fn printed(v: f64) -> String {
        let mut out = Vec::new();
        write_f64(&mut out, v);
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for v in [
            0.0,
            -0.0,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            2.2250738585072014e-308,
            0.1 + 0.2,
            5.0,
        ] {
            let s = printed(v);
            assert_eq!(s, format!("{v}"));
            let back = parse(s.as_bytes()).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} rendered as {s}");
        }
        assert_eq!(printed(f64::INFINITY), "null");
        assert_eq!(printed(f64::NAN), "null");
    }

    #[test]
    fn every_layout_of_the_point() {
        for (v, text) in [
            (0.5, "0.5"),
            (-1.5, "-1.5"),
            (1234.5678, "1234.5678"),
            (0.000123, "0.000123"),
            (1e-7, "0.0000001"),
            (123456789012345680000.0, "123456789012345680000"),
            (1e23, "100000000000000000000000"),
            (9007199254740993.0, "9007199254740992"),
            (0.3, "0.3"),
            (
                2.5e-62,
                "0.000000000000000000000000000000000000000000000000000000000000025",
            ),
        ] {
            assert_eq!(printed(v), text);
            assert_eq!(printed(v), format!("{v}"));
        }
        assert_eq!(printed(5e-324).len(), 2 + 323 + 1);
        assert_eq!(printed(5e-324), format!("{}", 5e-324));
        assert_eq!(printed(f64::MAX), format!("{}", f64::MAX));
    }

    #[test]
    fn digit_blocks_and_lengths_are_exact() {
        // The two lane divisions hold over their whole lane range.
        assert!((0..10_000u64).all(|x| (x * 10_486) >> 20 == x / 100));
        assert!((0..100u64).all(|x| (x * 103) >> 10 == x / 10));
        for n in (0..100_000_000)
            .step_by(9_973)
            .chain([0, 1, 9, 10, 99_999_999])
        {
            assert_eq!(ascii_block(n), *format!("{n:08}").as_bytes(), "{n}");
        }
        for v in POW10
            .iter()
            .flat_map(|&p| [p - 1, p, p + 1])
            .chain([0, u64::MAX])
        {
            assert_eq!(decimal_len(v), v.to_string().len(), "{v}");
        }
        let mut w = [0u8; U32_ROOM];
        for v in [0, 7, 10, 99_999_999, 100_000_000, 1_234_567_890, u32::MAX] {
            let len = write_u32_into(&mut w, v);
            assert_eq!(&w[..len], v.to_string().as_bytes());
        }
    }

    #[test]
    fn the_fast_layout_takes_what_it_claims() {
        let below_one = f64::from_bits(1f64.to_bits() - 1);
        let mut w = [0u8; F64_ROOM];
        for (v, fast) in [
            (0.5, true),
            (-0.5, true),
            (below_one, true),
            (-below_one, true),
            // The 15 to 17 digits end at most 46 places behind the point
            // from 10^-29 up, at least 47 places behind it below 10^-32.
            (1.0001e-29, true),
            (-0.9e-4, true),
            (9.9e-33, false),
            (1e-46, false),
            (f64::MIN_POSITIVE, false),
            (0.0, false),
            (-0.0, false),
            (1.0, false),
            (-1.0, false),
            (f64::INFINITY, false),
            (f64::NAN, false),
        ] {
            let written = write_f64_into(&mut w, v);
            assert_eq!(written.is_some(), fast, "{v}");
            if let Some(len) = written {
                assert_eq!(&w[..len], format!("{v}").as_bytes());
            }
        }
    }

    #[test]
    fn raw_fragments_render_verbatim_and_stay_opaque() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Raw("[1,{\"b\":2.5}]".into())),
            ("c".into(), Json::Null),
        ]);
        assert_eq!(doc.render(), "{\"a\":[1,{\"b\":2.5}],\"c\":null}");
        let raw = doc.get("a").unwrap();
        assert!(raw.as_arr().is_none() && raw.get("b").is_none() && raw.as_str().is_none());
        // A parsed document never holds one, so re-rendering what was
        // parsed goes through the number writers again.
        let parsed = parse(doc.render().as_bytes()).unwrap();
        assert!(parsed.get("a").unwrap().as_arr().is_some());
        assert_eq!(parsed.render(), doc.render());
    }

    #[test]
    fn power_of_ten_table_matches_known_entries() {
        let table = pow10_table();
        for (k, g) in [
            (-292, (0xFF77B1FCBEBCDC4F, 0x25E8E89C13BB0F7B)),
            (-1, (0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCD)),
            (0, (0x8000000000000000, 0)),
            (1, (0xA000000000000000, 0)),
            (27, (0xCECB8F27F4200F3A, 0)),
            (55, (0xD0CF4B50CFE20765, 0xFFF4B4E3F741CF6D)),
            (56, (0x82818F1281ED449F, 0xBFF8F10E7A8921A5)),
            (28, (0x813F3978F8940984, 0x4000000000000000)),
            (100, (0x924D692CA61BE758, 0x593C2626705F9C57)),
            (-200, (0xC3F490AA77BD60FC, 0xBEDBFC4411068A9D)),
            (324, (0x9E19DB92B4E31BA9, 0x6C07A2C26A8346D2)),
        ] {
            assert_eq!(table[(k + 292) as usize], g, "10^{k}");
        }
        // All 617 entries: FNV-1a over the words, against the digest of
        // `ceil(10^k · 2^-r)` computed apart with arbitrary-precision
        // integers.
        let digest = table.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &(hi, lo)| {
            let h = (h ^ hi).wrapping_mul(0x0100_0000_01b3);
            (h ^ lo).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(digest, 0x2e57_6cef_fbf1_8a2a);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            &b"{"[..],
            b"[1,]",
            b"{\"a\":1,}",
            b"{\"a\":1 \"b\":2}",
            b"01",
            b"1.",
            b"+1",
            b"\"unterminated",
            b"nul",
            b"[1] trailing",
            b"{\"a\":1,\"a\":2}",
            b"\"\\x\"",
            b"",
            b"\xff",
            b"1e400",
            b"-1e400",
            b"1e309",
        ] {
            assert!(parse(bad).is_err(), "{:?} should fail", bad);
        }
        // Underflow is a finite value, not an error.
        assert_eq!(parse(b"1e-400").unwrap(), Json::Num(0.0));
    }

    #[test]
    fn depth_cap_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(deep.as_bytes()).is_err());
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(parse(ok.as_bytes()).is_ok());
    }

    #[test]
    fn integer_accessor_guards_precision() {
        assert_eq!(parse(b"42").unwrap().as_u64(), Some(42));
        assert_eq!(parse(b"42.5").unwrap().as_u64(), None);
        assert_eq!(parse(b"-1").unwrap().as_u64(), None);
        // 2^53 is the first unrepresentable-exactly integer boundary.
        assert_eq!(parse(b"9007199254740992").unwrap().as_u64(), None);
        assert_eq!(
            parse(b"9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
    }
}
