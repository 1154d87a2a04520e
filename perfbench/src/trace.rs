//! Spans recorded by the benchmark around its calls into each layer (traced
//! mode only). A span has a name, start, end and parent; the spans of one
//! request share its request id. Spans stay in memory and are written out
//! when the run ends. A layer's self time is its spans' duration minus the
//! part of that interval covered by their child spans.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

pub type SpanId = u32;

/// No parent.
pub const ROOT: SpanId = u32::MAX;

/// Requests traced: one in this many, which keeps a 20-second run of
/// half a million frames per second to a few hundred thousand spans.
pub const REQUEST_SAMPLE: u64 = 64;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span log; a disabled tracer records nothing and costs a
/// branch per call.
pub struct Tracer {
    on: bool,
    /// While set, recording flips at every measurement-window boundary, so
    /// traced and untraced windows interleave and share the host's noise.
    alternate: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            alternate: false,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// On a recording tracer: from now on, record only in every other
    /// measurement window, starting with an unrecorded one.
    pub fn start_alternating(&mut self) {
        if self.on {
            self.alternate = true;
            self.on = false;
        }
    }

    /// Ends [`Tracer::start_alternating`]: recording is on again.
    pub fn stop_alternating(&mut self) {
        if self.alternate {
            self.alternate = false;
            self.on = true;
        }
    }

    /// Called when a measurement window closes.
    pub fn window_boundary(&mut self) {
        if self.alternate {
            self.on = !self.on;
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// [`Tracer::now_ns`] when tracing, 0 (and no clock read) otherwise.
    pub fn stamp(&self) -> u64 {
        if self.on {
            self.now_ns()
        } else {
            0
        }
    }

    /// Records a finished span with explicit times; returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return ROOT;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span ending now-or-later; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let t = self.stamp();
        self.record(name, parent, request, t, t)
    }

    /// Closes a span opened by [`Tracer::begin`]; a span that was recorded
    /// is closed even if recording has since paused.
    pub fn end(&mut self, id: SpanId) {
        if id != ROOT {
            let t = self.now_ns();
            self.spans[id as usize].end_ns = t;
        }
    }

    /// Whether request `id` is one of the sampled ones (one in
    /// [`REQUEST_SAMPLE`]) and recording is on.
    pub fn samples(&self, id: u64) -> bool {
        self.on && id.is_multiple_of(REQUEST_SAMPLE)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total ns, self ns).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        self_times(&self.spans)
    }

    /// Writes one tab-separated line per span.
    pub fn write_tsv(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let a = a.clamp(reach, s.end_ns);
            let b = b.clamp(a, s.end_ns);
            covered += b - a;
            reach = reach.max(b);
        }
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered.min(dur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let mut t = Tracer::new(true);
        let root = t.record("request", ROOT, 1, 0, 100);
        t.record("encode", root, 1, 10, 20);
        // Two overlapping children cover 40..70 once, not twice.
        t.record("wait", root, 1, 40, 60);
        t.record("wait", root, 1, 50, 70);
        // A child running past its parent counts only inside it.
        t.record("decode", root, 1, 90, 130);
        let st = t.self_times();
        assert_eq!(st["request"], (1, 100, 100 - 10 - 30 - 10));
        assert_eq!(st["wait"], (2, 40, 40));
        assert_eq!(st["decode"], (1, 40, 40));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", ROOT, 0);
        t.end(id);
        t.record("y", ROOT, 0, 1, 2);
        assert_eq!(t.stamp(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn alternating_records_every_other_window() {
        let mut t = Tracer::new(true);
        t.start_alternating();
        assert!(!t.enabled());
        t.window_boundary();
        assert!(t.enabled());
        t.window_boundary();
        assert!(!t.enabled());
        t.stop_alternating();
        assert!(t.enabled());
        let mut off = Tracer::new(false);
        off.start_alternating();
        off.window_boundary();
        assert!(!off.enabled());
    }

    #[test]
    fn tsv_has_one_line_per_span() {
        let mut t = Tracer::new(true);
        let a = t.record("a", ROOT, 7, 1, 2);
        t.record("b", a, 7, 1, 2);
        let mut buf = Vec::new();
        t.write_tsv(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.contains("1\t0\t7\tb\t1\t2"));
    }
}
