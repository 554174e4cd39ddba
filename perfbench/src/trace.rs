//! In-memory spans recorded around calls into the library's layers.
//!
//! Spans live in a `Vec` while the run goes and are written out once at
//! the end, so recording costs two clock reads and a push.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval: a call into a layer, or a unit of work (a packet,
/// a grid point, a service call) that encloses such calls.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The layer or unit this span times (`"decode.bcjr"`, `"packet"`).
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `end_ns >= start_ns`.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The call (grid point or service call) the span belongs to.
    pub call: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans; [`Tracer::enter`] and [`Tracer::exit`] pair
/// like brackets.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    call: u64,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            call: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Tags the spans entered from now on with `call`.
    pub fn set_call(&mut self, call: u64) {
        self.call = call;
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            call: self.call,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end_ns;
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// Per span name: (total self time in ns, number of spans).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let slot = out.entry(s.name).or_default();
        slot.0 += own;
        slot.1 += 1;
    }
    out
}

/// Writes `spans` as JSON lines (one object per span, `id` = index).
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"call\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.call, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            call: 0,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage() {
        let spans = [
            span("packet", 0, 100, None),
            span("tx", 10, 30, Some(0)),
            span("decode", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("call", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 120, 170, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100, 170) and [190, 200) = 80 of 100.
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("packet", 0, 10, None),
            span("decode", 2, 6, Some(0)),
            span("packet", 10, 30, None),
            span("decode", 12, 20, Some(2)),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["decode"], (12, 2));
        assert_eq!(totals["packet"], (18, 2));
    }

    #[test]
    fn tracer_nests_spans() {
        let mut t = Tracer::new();
        t.set_call(7);
        let outer = t.enter("packet");
        let inner = t.enter("tx");
        t.exit(inner);
        t.exit(outer);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].call, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
