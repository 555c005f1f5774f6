//! The benchmark's own spans, recorded around calls into each layer.
//!
//! Spans are kept in memory and written out when the run ends: a per-layer
//! self-time summary and a Chrome trace-event file (load it in
//! `chrome://tracing` or Perfetto to follow one pair layer by layer). A
//! disabled tracer records nothing, so the same replay code gives the
//! untraced wall time the tracing overhead is measured against.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The pair the work belongs to (0 is the warm-up pair).
    pub pair: u64,
}

/// A single-threaded span recorder with strictly nested spans.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` for `pair`, nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, pair: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.open.push(self.spans.len());
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, pair });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("exit matches an enter");
        self.spans[index].end_ns = end_ns;
    }

    /// Self time per span name, in nanoseconds: each span's duration minus
    /// the part of it its child spans cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        self_times(&self.spans)
    }

    /// The spans as Chrome trace events (complete events, one track).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"pair\":{}}}}}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.pair
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// See [`Tracer::self_ns`]. Children of one span never overlap, since a
/// tracer is single-threaded and spans nest strictly.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.end_ns - span.start_ns);
        }
    }
    let mut totals = BTreeMap::new();
    for (span, ns) in spans.iter().zip(own) {
        *totals.entry(span.name).or_insert(0) += ns;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, pair: 1 }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("pair", 0, 100, None),
            span("cq.parse", 10, 30, Some(0)),
            span("containment.compile", 30, 80, Some(0)),
            span("linalg.lp", 50, 70, Some(2)),
        ];
        let totals = self_times(&spans);
        assert_eq!(totals["pair"], 30);
        assert_eq!(totals["cq.parse"], 20);
        assert_eq!(totals["containment.compile"], 30);
        assert_eq!(totals["linalg.lp"], 20);
    }

    #[test]
    fn a_disabled_tracer_records_nothing_and_spans_nest() {
        let mut off = Tracer::new(false);
        off.enter("pair", 1);
        off.exit();
        assert!(off.spans.is_empty());
        let mut on = Tracer::new(true);
        on.enter("pair", 1);
        on.enter("cq.parse", 1);
        on.exit();
        on.exit();
        assert_eq!(on.spans[1].parent, Some(0));
        assert!(on.chrome_json().contains("\"name\":\"cq.parse\""));
    }
}
