//! Spans recorded by the benchmark's own files around calls to the
//! program's public functions. They stay in memory during the run and
//! are written out as one JSON document at exit; only a `--trace 1` run
//! records any.

use std::path::Path;
use std::time::Instant;

use hk_gateway::json::Json;

/// Index of a span in its [`Tracer`]; what `parent` refers to.
pub type SpanId = u32;

/// One timed interval. Spans of one request share `pass` and `slot`.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub pass: u32,
    pub slot: u32,
}

/// In-memory span store with a common epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record `[start, end]` measured with `Instant`s.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        pass: usize,
        slot: usize,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.span_ns(name, start_ns, end_ns, parent, pass, slot)
    }

    /// Record a span whose bounds are already epoch-relative — used for
    /// children known only by duration (`PhaseTimes`, `QueryTiming`),
    /// which are laid end to end from their parent's start.
    pub fn span_ns(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        pass: usize,
        slot: usize,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            pass: pass as u32,
            slot: slot as u32,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span to `path` as `{"workload", "seed", "spans": [...]}`.
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), Json::Num(id as f64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_ns".into(), Json::Num(s.start_ns as f64)),
                    ("end_ns".into(), Json::Num(s.end_ns as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("pass".into(), Json::Num(s.pass as f64)),
                    ("slot".into(), Json::Num(s.slot as f64)),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            // As a string: a u64 seed need not be exact in a JSON number.
            ("seed".into(), Json::Str(seed.to_string())),
            ("spans".into(), Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_keep_their_parent_and_survive_the_file() {
        let mut t = Tracer::new();
        let query = t.span_ns("query", 0, 100, None, 1, 3);
        let estimate = t.span_ns("core.estimate", 0, 70, Some(query), 1, 3);
        t.span_ns("core.push", 0, 50, Some(estimate), 1, 3);
        assert_eq!(t.spans()[2].parent, Some(estimate));
        let dir = std::env::current_exe()
            .unwrap()
            .parent()
            .unwrap()
            .to_path_buf();
        let path = dir.join(format!("trace-test-{}.json", std::process::id()));
        t.write(&path, "direct-push", u64::MAX).unwrap();
        let doc = hk_gateway::json::parse(&std::fs::read(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(
            doc.get("seed").unwrap().as_str(),
            Some("18446744073709551615")
        );
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[2].get("parent").unwrap().as_u64(), Some(1));
        assert_eq!(spans[2].get("name").unwrap().as_str(), Some("core.push"));
        assert_eq!(spans[2].get("end_ns").unwrap().as_u64(), Some(50));
        assert_eq!(spans[2].get("slot").unwrap().as_u64(), Some(3));
    }
}
