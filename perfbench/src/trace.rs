//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a layer, a name, the round trip it belongs to and the span
//! that was open when it began (its parent). Spans stay in memory and
//! are written out as a chrome trace when the run ends. A disabled
//! tracer records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Round-trip id of spans outside the timed phase (set-up).
pub const SETUP: u64 = u64::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub round_trip: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Host time spent inside `begin`/`end` themselves.
    cost: Duration,
}

/// Handle returned by [`Tracer::begin`]; pass it to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cost: Duration::ZERO,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn begin(&mut self, layer: &'static str, name: &'static str, round_trip: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let entered = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            round_trip,
            parent: self.open.last().copied(),
            start: Duration::ZERO,
            end: Duration::ZERO,
        });
        self.open.push(id);
        let now = Instant::now();
        self.spans[id].start = now - self.origin;
        self.cost += now - entered;
        Open(Some(id))
    }

    pub fn end(&mut self, span: Open) {
        let Some(id) = span.0 else { return };
        let now = Instant::now();
        self.spans[id].end = now - self.origin;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans must close innermost first");
        self.cost += now.elapsed();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Host time the tracer itself spent recording.
    pub fn cost(&self) -> Duration {
        self.cost
    }

    /// Per layer, total self time (duration minus the part covered by
    /// child spans) of the timed phase's spans, in seconds.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            if s.round_trip != SETUP {
                *out.entry(s.layer).or_insert(0.0) += (s.end - s.start - c).as_secs_f64();
            }
        }
        out
    }

    /// Mean duration in seconds of the spans named `name` in `layer`,
    /// taken over the set-up spans or over the timed phase's (0 when
    /// there are none).
    pub fn mean_seconds(&self, layer: &str, name: &str, setup: bool) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name && (s.round_trip == SETUP) == setup)
            .map(|s| (s.end - s.start).as_secs_f64())
            .collect();
        if d.is_empty() {
            0.0
        } else {
            d.iter().sum::<f64>() / d.len() as f64
        }
    }

    /// The spans as chrome `chrome://tracing` JSON, one complete event
    /// each; `meta` lands in the file's `otherData`.
    pub fn chrome_trace(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let rt = if s.round_trip == SETUP {
                "\"setup\"".to_string()
            } else {
                s.round_trip.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"round_trip\":{rt},\
                 \"parent\":{parent}}}}}",
                s.name,
                s.layer,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("],\"otherData\":{");
        for (i, (k, v)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write!(out, "\"{k}\":{v}").expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_setup() {
        let mut t = Tracer::new(true);
        let s = t.begin("datagen", "generate", SETUP);
        t.end(s);
        let root = t.begin("bench", "round_trip", 0);
        let child = t.begin("qdb.server", "drain", 0);
        std::thread::sleep(Duration::from_millis(20));
        t.end(child);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, None);
        let self_s = t.self_seconds();
        assert!(!self_s.contains_key("datagen"));
        assert!(self_s["qdb.server"] >= 0.02);
        assert!(self_s["bench"] < self_s["qdb.server"]);
        let json = t.chrome_trace(&[("series", "[1,2]".to_string())]);
        assert!(json.contains("\"round_trip\":\"setup\""));
        assert!(json.contains("\"parent\":1"));
        assert!(json.ends_with("\"series\":[1,2]}}"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("bench", "round_trip", 0);
        t.end(s);
        assert!(t.spans().is_empty());
        assert!(t.self_seconds().is_empty());
    }
}
