//! In-memory spans around the benchmark's calls into each layer.
//!
//! The traced pass records `{name, start, end, parent, round_id}` from
//! the benchmark's own files — no instrumentation inside the program —
//! keeps everything in memory while measuring and writes it out once at
//! the end. A layer's self time is its span minus what its children
//! cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed (or still open) span. Times are ns since the log began.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the log.
    pub parent: Option<usize>,
    /// Groups the spans of one request or one isolated drive.
    pub round_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Append-only span log with a stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `work` inside a span called `name`; spans opened by `work`
    /// become its children. Returns what `work` returned and the span's
    /// duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        round_id: u64,
        work: impl FnOnce(&mut SpanLog) -> T,
    ) -> (T, u64) {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round_id,
        });
        self.open.push(index);
        let result = work(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[index].end_ns = end_ns;
        (result, end_ns - start_ns)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        self_times_ns(&self.spans)
    }

    /// One JSON object per line, in start order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for span in &self.spans {
            let parent = match span.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round_id\":{}}}",
                span.name, span.start_ns, span.end_ns, parent, span.round_id
            );
        }
        out
    }
}

/// Self time of each span of a log (children always follow parents).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
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
            round_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // handle [0,100] ⊃ verify [10,40] ⊃ modexp [15,35]; handle ⊃ sign [50,70].
        let spans = [
            span("handle", 0, 100, None),
            span("verify", 10, 40, Some(0)),
            span("modexp", 15, 35, Some(1)),
            span("sign", 50, 70, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), [50, 10, 20, 20]);
        // The self times tile the root exactly.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut log = SpanLog::default();
        let ((), outer) = log.time("outer", 7, |log| {
            log.time("inner", 7, |_| std::hint::black_box(1 + 1));
            log.time("inner", 7, |_| std::hint::black_box(2 + 2));
        });
        log.time("sibling", 8, |_| ());
        let spans = log.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[0].duration_ns(), outer);
        assert!(spans[1].end_ns <= spans[2].start_ns);
        let own = log.self_times_ns();
        assert_eq!(own[0], outer - own[1] - own[2]);
        assert_eq!(log.to_jsonl().lines().count(), 4);
        assert!(log.to_jsonl().contains("\"parent\":0,\"round_id\":7"));
    }
}
