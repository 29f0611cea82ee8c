//! Spans recorded from the benchmark's own code around calls into each
//! layer. Each thread owns a [`Tracer`]; spans nest strictly on a thread, so
//! an open-span stack gives every span its parent and its self time (its
//! duration minus the time its child spans cover). Finished spans are kept
//! in a buffer allocated up front and written out when the run ends; the
//! per-name totals behind the per-layer metrics cover every span, including
//! any past the buffer's capacity.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct Span {
    id: u32,
    parent: u32,
    name: &'static str,
    request: u64,
    start_ns: u64,
    end_ns: u64,
    self_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    request: u64,
    start: Instant,
    child_ns: u64,
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Totals {
    /// Mean span duration in microseconds (0 when the layer never ran).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// A per-thread span recorder. A disabled tracer only runs the wrapped work.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u32,
    stack: Vec<Open>,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    /// A tracer keeping up to `capacity` finished spans, timed from `origin`.
    pub fn new(enabled: bool, origin: Instant, capacity: usize) -> Self {
        Self {
            enabled,
            origin,
            next_id: 1,
            stack: Vec::with_capacity(16),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            totals: BTreeMap::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `work` inside a span named `name` for request `request`.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        work: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return work(self);
        }
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        let parent = self.stack.last().map_or(0, |open| open.id);
        self.stack.push(Open {
            id,
            parent,
            name,
            request,
            start: Instant::now(),
            child_ns: 0,
        });
        let result = work(self);
        let end = Instant::now();
        let open = self.stack.pop().expect("span stack is balanced");
        let duration_ns = end.saturating_duration_since(open.start).as_nanos() as u64;
        let self_ns = duration_ns.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += duration_ns;
        }
        let totals = self.totals.entry(open.name).or_default();
        totals.count += 1;
        totals.total_ns += duration_ns;
        totals.self_ns += self_ns;
        if self.spans.len() < self.spans.capacity() {
            let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                request: open.request,
                start_ns: since(open.start),
                end_ns: since(end),
                self_ns,
            });
        }
        result
    }

    /// Adds a span measured elsewhere (`duration_ns` long, no children)
    /// to the totals only, e.g. a latency the runtime itself reports.
    pub fn add_measured(&mut self, name: &'static str, duration_ns: u64) {
        if self.enabled {
            let totals = self.totals.entry(name).or_default();
            totals.count += 1;
            totals.total_ns += duration_ns;
            totals.self_ns += duration_ns;
        }
    }

    /// Totals of the spans named `name` on this thread.
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Spans recorded, kept or not.
    pub fn span_count(&self) -> u64 {
        self.totals.values().map(|t| t.count).sum()
    }

    /// Folds another thread's totals into this tracer's.
    pub fn merge_totals(&mut self, other: &Tracer) {
        for (name, t) in &other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
    }

    /// The kept spans as JSON lines tagged with `thread`.
    pub fn to_json_lines(&self, thread: usize, out: &mut String) {
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"thread\": {thread}, \"id\": {}, \"parent\": {}, \"name\": \"{}\", \
                 \"request\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns, s.self_ns
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let start = Instant::now();
        while (start.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let mut tracer = Tracer::new(true, Instant::now(), 8);
        tracer.span("outer", 1, |t| {
            spin(200_000);
            t.span("inner", 1, |_| spin(300_000));
        });
        let outer = tracer.totals("outer");
        let inner = tracer.totals("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(outer.total_ns >= outer.self_ns + inner.total_ns);
        assert!(outer.self_ns >= 200_000 && inner.self_ns >= 300_000);
        let mut lines = String::new();
        tracer.to_json_lines(0, &mut lines);
        // The inner span finishes first and names the outer one as parent.
        assert!(lines
            .lines()
            .next()
            .unwrap()
            .contains("\"id\": 2, \"parent\": 1"));
    }

    #[test]
    fn totals_cover_spans_past_the_buffer() {
        let mut tracer = Tracer::new(true, Instant::now(), 2);
        for i in 0..5 {
            tracer.span("leaf", i, |_| ());
        }
        assert_eq!(tracer.totals("leaf").count, 5);
        let mut lines = String::new();
        tracer.to_json_lines(3, &mut lines);
        assert_eq!(lines.lines().count(), 2);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now(), 8);
        assert_eq!(tracer.span("x", 0, |_| 42), 42);
        tracer.add_measured("y", 10);
        assert_eq!(tracer.totals("x"), Totals::default());
        assert_eq!(tracer.totals("y").mean_us(), 0.0);
    }
}
