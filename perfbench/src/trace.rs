//! In-memory span recorder for the traced run.
//!
//! Each benchmark thread owns one [`Tracer`]. A span holds a name, a
//! start and an end (ns since the run's shared epoch), the id of its
//! parent span and the generation id as the request id. Every span adds
//! to its layer's running totals; the first [`SPAN_CAP`] spans of each
//! thread are also kept in memory and written out when the run ends.
//!
//! Where a recorder has root spans, the root of generation `g` has id
//! `g + 1` and is the parent of that generation's other spans; parent 0
//! means none. Other spans get ids with the thread's tag in the top 16
//! bits, so ids never collide.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// Spans kept in memory per thread for the output file.
const SPAN_CAP: usize = 100_000;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Generation id the span worked for.
    pub req: u64,
}

/// Per-layer totals over every span recorded (kept or not).
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    /// Sum of span self-times (span durations, or CPU time for spans
    /// recorded with [`Tracer::record_self`]).
    pub self_ns: u64,
    /// Work items the spans covered (packets), for per-packet figures.
    pub items: u64,
}

/// One thread's span recorder.
pub struct Tracer {
    epoch: Instant,
    tag: u64,
    /// Whether spans hang under per-generation root spans.
    rooted: bool,
    next: u64,
    spans: Vec<Span>,
    totals: BTreeMap<&'static str, Totals>,
}

impl Tracer {
    pub fn new(epoch: Instant, tag: u16, rooted: bool) -> Self {
        Tracer {
            epoch,
            tag: u64::from(tag) << 48,
            rooted,
            next: 1,
            spans: Vec::with_capacity(SPAN_CAP),
            totals: BTreeMap::new(),
        }
    }

    /// Nanoseconds since the shared epoch.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records the root span of generation `gen`.
    pub fn root(&mut self, gen: u64, start: Instant, end: Instant) {
        let span = Span {
            id: gen + 1,
            parent: 0,
            name: "generation",
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            req: gen,
        };
        self.keep(span);
    }

    /// Records a leaf span whose self-time is its duration.
    pub fn record(
        &mut self,
        name: &'static str,
        gen: u64,
        start: Instant,
        end: Instant,
        items: u64,
    ) {
        let dur = end.saturating_duration_since(start).as_nanos() as u64;
        self.record_self(name, gen, start, end, dur, items);
    }

    /// Records a leaf span with an explicit self-time (e.g. the CPU time
    /// of a blocking call, whose wall duration includes waiting).
    pub fn record_self(
        &mut self,
        name: &'static str,
        gen: u64,
        start: Instant,
        end: Instant,
        self_ns: u64,
        items: u64,
    ) {
        let t = self.totals.entry(name).or_default();
        t.self_ns += self_ns;
        t.items += items;
        let id = self.tag | self.next;
        self.next += 1;
        let span = Span {
            id,
            parent: if self.rooted { gen + 1 } else { 0 },
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            req: gen,
        };
        self.keep(span);
    }

    fn keep(&mut self, span: Span) {
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        }
    }

    /// Totals of layer `name` (zero if it never recorded).
    pub fn totals(&self, name: &str) -> Totals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the kept spans as JSON lines, sorted by start time.
    pub fn write_jsonl(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        self.spans.sort_by_key(|s| s.start_ns);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"req\": {}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}
