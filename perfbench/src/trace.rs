//! Spans for the traced run, kept in memory and written out at the end.
//!
//! A span is `(name, start, end, parent, op)`. Each load thread owns one
//! [`Tracer`]; a disabled tracer records nothing, so the untraced run pays
//! one branch per span. The per-layer summary reports, for each span name,
//! how many spans each op produced and their self time (duration minus the
//! time covered by direct children).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run measures its untraced
    /// baseline on the same fleet first).
    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            op,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records a span that was timed elsewhere (`start`..`end`).
    pub fn record(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: parent.0,
            op,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The root of a span tree.
pub const ROOT: SpanId = SpanId(None);

/// Per-name totals of a set of spans.
#[derive(Debug, Default, Clone)]
pub struct LayerSummary {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Merges per-thread spans (re-basing parent indices) into one list.
pub fn merge(per_thread: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for spans in per_thread {
        let base = all.len();
        all.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Self time and count per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerSummary> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
        }
    }
    let mut out: BTreeMap<&'static str, LayerSummary> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(child_ns[i]);
    }
    out
}

/// Writes the spans as tab-separated lines
/// (`name start_ns end_ns parent op`, parent `-` for roots).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "name\tstart_ns\tend_ns\tparent\top")?;
    for s in spans {
        let parent = s.parent.map_or("-".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start_ns, s.end_ns, parent, s.op
        )?;
    }
    w.flush()
}

/// Renders the per-layer summary: per span name, spans per op and self
/// time per op in microseconds.
pub fn summary_lines(summary: &BTreeMap<&'static str, LayerSummary>, ops: u64) -> Vec<String> {
    let ops = ops.max(1) as f64;
    summary
        .iter()
        .map(|(name, s)| {
            format!(
                "{{\"row\":\"span\",\"name\":\"{name}\",\"count\":{},\"per_op\":{:.4},\
                 \"self_us_per_op\":{:.4},\"total_us_per_op\":{:.4}}}",
                s.count,
                s.count as f64 / ops,
                s.self_ns as f64 / 1e3 / ops,
                s.total_ns as f64 / 1e3 / ops
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "ctrl.query",
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "query.parse",
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
                op: 1,
            },
        ];
        let s = summarize(&spans);
        assert_eq!(s["op"].self_ns, 40);
        assert_eq!(s["ctrl.query"].self_ns, 50);
        assert_eq!(s["query.parse"].self_ns, 10);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![Span {
            name: "op",
            start_ns: 0,
            end_ns: 1,
            parent: None,
            op: 0,
        }];
        let b = vec![
            Span {
                name: "op",
                start_ns: 0,
                end_ns: 2,
                parent: None,
                op: 1,
            },
            Span {
                name: "ctrl.post",
                start_ns: 0,
                end_ns: 1,
                parent: Some(0),
                op: 1,
            },
        ];
        let m = merge(vec![a, b]);
        assert_eq!(m[2].parent, Some(1));
    }
}
