//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it; the
//! spans of one repetition share its `rep` number. Spans stay in memory
//! and are written out once, when the run ends. A disabled tracer still
//! times every span (the untraced metrics need those durations) but keeps
//! nothing.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified call name, e.g. `runtime.run`.
    pub name: &'static str,
    /// Index of the enclosing span, `None` for a repetition's root.
    pub parent: Option<usize>,
    /// The repetition the span belongs to.
    pub rep: u32,
    /// Offsets from the tracer's origin.
    pub start: Duration,
    /// End offset; equal to `start` while the span is open.
    pub end: Duration,
}

/// An open span, returned by [`Tracer::begin`] and consumed by
/// [`Tracer::end`].
#[must_use]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// Records nested spans for one benchmark process.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns span keeping on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Starts numbering spans under repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    /// Opens a span nested in the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let started = Instant::now();
        let index = self.enabled.then(|| {
            let start = started - self.origin;
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                rep: self.rep,
                start,
                end: start,
            });
            let index = self.spans.len() - 1;
            self.stack.push(index);
            index
        });
        Open { index, started }
    }

    /// Closes `open` and returns its duration. Spans close innermost
    /// first.
    pub fn end(&mut self, open: Open) -> Duration {
        let now = Instant::now();
        if let Some(index) = open.index {
            assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
            self.spans[index].end = now - self.origin;
        }
        now - open.started
    }

    /// The spans kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the kept spans to `path` as one JSON array, microseconds
    /// from the tracer's origin.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if id + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {id}, \"parent\": {parent}, \"rep\": {}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}{comma}",
                s.rep,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_disabled_spans_still_time() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.rep == 3 && s.end >= s.start));

        let mut off = Tracer::new(false);
        let open = off.begin("x");
        std::thread::sleep(Duration::from_millis(1));
        assert!(off.end(open) >= Duration::from_millis(1));
        assert!(off.spans().is_empty());
    }
}
