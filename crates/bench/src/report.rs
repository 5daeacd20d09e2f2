//! `bench_snapshot`'s committed report, `BENCH_tea_plus.json`: a
//! [`Json`] tree rendered by the gateway's writer, one top-level section
//! per line.

use std::path::Path;

use hk_gateway::json::Json;

/// Written into the report: why its numbers do not travel.
pub const DRIFT_NOTE: &str = "Every number in this file was taken in one sitting. This guest \
    drifts from day to day by more than most changes move anything (tens of percent), so \
    numbers taken on different days are not comparable: regenerate the whole file and read \
    differences only off same-day runs.";

/// A JSON object, fields in the order given.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A JSON string.
pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// A counter or size. Everything the report counts is far below 2^53,
/// where the wire's numbers stop being exact.
pub fn int(v: impl TryInto<u64>) -> Json {
    Json::Num(v.try_into().unwrap_or(u64::MAX) as f64)
}

/// A measurement at the report's fixed precision of `places` decimals.
pub fn fixed(v: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((v * scale).round() / scale)
}

/// Write `sections` as one JSON object to `path` and to stdout, each
/// section on a line of its own so a regenerated file diffs by section.
pub fn write(path: impl AsRef<Path>, sections: &[(&str, Json)]) {
    let lines: Vec<String> = sections
        .iter()
        .map(|(name, body)| format!("{}:{}", text(name).render(), body.render()))
        .collect();
    let json = format!("{{\n{}\n}}\n", lines.join(",\n"));
    std::fs::write(&path, &json).expect("write report");
    print!("{json}");
    eprintln!("wrote {}", path.as_ref().display());
}
