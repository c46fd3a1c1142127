//! Bench-side spans around calls into the library's public layers.
//!
//! A span records its name, start, end, the op it belongs to and its
//! parent span. Spans stay in memory and are written once, at the end of
//! the traced run; a layer's self time is its span minus the parts its
//! child spans cover.

use std::io::Write;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span and returns its index for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_us,
            end_us: start_us,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let r = f();
        self.end(id);
        r
    }

    /// Total self time of every span called `name`, in seconds, and the
    /// span count.
    pub fn self_time(&self, name: &str) -> (f64, usize) {
        let mut child_us = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
            }
        }
        let mut total = 0.0;
        let mut n = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += (s.end_us - s.start_us) - child_us[i];
                n += 1;
            }
        }
        (total / 1e6, n)
    }

    /// Mean self time in microseconds of the spans called `name`, and
    /// their count.
    pub fn mean_us(&self, name: &str) -> (f64, usize) {
        let (s, n) = self.self_time(name);
        (crate::stats::ratio(s * 1e6, n as f64), n)
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"op\": {}, \"parent\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}",
                s.name,
                s.op,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_us,
                s.end_us
            )?;
        }
        w.flush()
    }
}
