//! The benchmark's own host-time spans: one per call (or block of calls)
//! it makes into a layer, kept in memory and written out at the end.

use std::io::Write;
use std::time::Instant;

pub type SpanId = usize;

struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: Instant,
    end: Option<Instant>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            start: Instant::now(),
            end: None,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end = Some(Instant::now());
    }

    /// Record an already-finished interval.
    pub fn record(&mut self, name: &'static str, parent: Option<SpanId>, start: Instant) {
        self.spans.push(Span {
            name,
            parent,
            start,
            end: Some(Instant::now()),
        });
    }

    fn secs(s: &Span) -> f64 {
        s.end
            .map_or(0.0, |e| e.duration_since(s.start).as_secs_f64())
    }

    /// Total seconds of every closed span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Self::secs)
            .sum()
    }

    /// One JSON object per span: name, parent index, start and end in
    /// nanoseconds since the recorder was created.
    pub fn write_jsonl(&self, w: &mut impl Write) -> std::io::Result<()> {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let end = s.end.map_or("null".to_string(), |e| ns(e).to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{end}}}",
                s.name,
                ns(s.start)
            )?;
        }
        Ok(())
    }
}
