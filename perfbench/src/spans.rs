//! Span recording for the traced run.
//!
//! Spans are taken at the benchmark's own call boundaries into the
//! program's public functions — never inside the program — and kept in
//! memory until the run ends. Each span carries a name, start, end, the
//! span that caused it, and the id of the iteration ("run") it belongs
//! to. A span's *self time* is its duration minus the part of its
//! interval covered by its child spans.

use lumen6_trace::{CodecError, FillOutcome, RecordBatch, Source, TracePosition};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// One finished span, with times relative to the recorder's origin.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Span {
    /// Index of this span within its run.
    pub id: usize,
    /// Layer-qualified name, e.g. `detect.session.step`.
    pub name: String,
    /// Start, microseconds since the recorder's origin.
    pub start_us: f64,
    /// End, microseconds since the recorder's origin.
    pub end_us: f64,
    /// The enclosing span's id (same run), if any.
    pub parent: Option<usize>,
    /// The iteration this span belongs to.
    pub run: usize,
    /// Duration minus the time covered by child spans.
    pub self_us: f64,
}

impl Span {
    /// End minus start, microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store. Disabled recorders hand out ids but store
/// nothing, so untraced iterations pay only for the branch.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    run: usize,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose span times are relative to its creation.
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            origin: Instant::now(),
            enabled,
            run: 0,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the run id stamped on spans opened from now on.
    pub fn set_run(&mut self, run: usize) {
        self.run = run;
    }

    fn micros(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span now; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &str, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.micros(Instant::now());
        self.push(name, now, now, parent)
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.micros(Instant::now());
            self.spans[id].end_us = now;
        }
    }

    /// Records an already-timed interval.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let (s, e) = (self.micros(start), self.micros(end));
        self.push(name, s, e, parent)
    }

    fn push(
        &mut self,
        name: &str,
        start_us: f64,
        end_us: f64,
        parent: Option<usize>,
    ) -> Option<usize> {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            name: name.to_string(),
            start_us,
            end_us,
            parent,
            run: self.run,
            self_us: 0.0,
        });
        Some(id)
    }

    /// Records each interval as a span named `name` whose parent is the
    /// `parent_name` span of the current run that contains it. Intervals
    /// and spans are both in time order, so one merge pass assigns them.
    pub fn adopt(&mut self, name: &str, intervals: &[(Instant, Instant)], parent_name: &str) {
        if !self.enabled {
            return;
        }
        let parents: Vec<(usize, f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.run == self.run && s.name == parent_name)
            .map(|s| (s.id, s.start_us, s.end_us))
            .collect();
        let mut p = 0;
        for &(start, end) in intervals {
            let (s, e) = (self.micros(start), self.micros(end));
            while p < parents.len() && parents[p].2 < e {
                p += 1;
            }
            let parent = parents
                .get(p)
                .filter(|&&(_, ps, pe)| ps <= s && e <= pe)
                .map(|&(id, _, _)| id);
            self.push(name, s, e, parent);
        }
    }

    /// Computes every span's self time and returns the spans.
    pub fn finish(mut self) -> Vec<Span> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        for (span, mut kids) in self.spans.iter_mut().zip(children) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (s, e) in kids {
                let (s, e) = (s.max(span.start_us), e.min(span.end_us));
                if e <= s {
                    continue;
                }
                match cur {
                    Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        cur = Some((s, e));
                    }
                    None => cur = Some((s, e)),
                }
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
            span.self_us = span.duration_us() - covered;
        }
        self.spans
    }
}

/// Totals of the spans named `name`: (count, duration seconds, self seconds).
pub fn totals(spans: &[Span], name: &str) -> (u64, f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0.0, 0.0), |(n, d, own), s| {
            (n + 1, d + s.duration_us() / 1e6, own + s.self_us / 1e6)
        })
}

/// The benchmark's timing adapter: a [`Source`] that delegates every call
/// to the wrapped source and records the interval of each pull.
pub struct TimedSource {
    inner: Box<dyn Source>,
    /// (start, end) of every `fill`/`poll_fill` call, in call order.
    pub fills: Vec<(Instant, Instant)>,
    /// Records the wrapped source delivered.
    pub records: u64,
}

impl TimedSource {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Source>) -> TimedSource {
        TimedSource {
            inner,
            fills: Vec::new(),
            records: 0,
        }
    }
}

impl Source for TimedSource {
    fn fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<usize, CodecError> {
        let start = Instant::now();
        let r = self.inner.fill(out, max);
        self.fills.push((start, Instant::now()));
        if let Ok(n) = r {
            self.records += n as u64;
        }
        r
    }

    fn poll_fill(&mut self, out: &mut RecordBatch, max: usize) -> Result<FillOutcome, CodecError> {
        let start = Instant::now();
        let r = self.inner.poll_fill(out, max);
        self.fills.push((start, Instant::now()));
        if let Ok(FillOutcome::Filled(n)) = r {
            self.records += n as u64;
        }
        r
    }

    fn position(&self) -> TracePosition {
        self.inner.position()
    }

    fn resume(&mut self, at: TracePosition) -> Result<(), CodecError> {
        self.inner.resume(at)
    }

    fn skipped(&self) -> u64 {
        self.inner.skipped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut rec = Recorder::new(true);
        let origin = rec.origin;
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let root = rec.record("root", at(0), at(100), None);
        // Two overlapping children (10..40 ∪ 30..50 = 40 ms) and one
        // disjoint child (60..70).
        rec.record("kid", at(10), at(40), root);
        rec.record("kid", at(30), at(50), root);
        rec.record("kid", at(60), at(70), root);
        let spans = rec.finish();
        assert!((spans[0].self_us - 50_000.0).abs() < 1.0);
        assert!((spans[1].self_us - 30_000.0).abs() < 1.0);
        let (n, dur, own) = totals(&spans, "kid");
        assert_eq!(n, 3);
        assert!((dur - 0.06).abs() < 1e-6);
        assert!((own - 0.06).abs() < 1e-6);
    }

    #[test]
    fn adopt_assigns_each_interval_to_its_containing_span() {
        let mut rec = Recorder::new(true);
        let origin = rec.origin;
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let a = rec.record("step", at(0), at(10), None);
        let b = rec.record("step", at(10), at(20), None);
        rec.adopt("fill", &[(at(1), at(4)), (at(12), at(15))], "step");
        let spans = rec.finish();
        assert_eq!(spans[2].parent, a);
        assert_eq!(spans[3].parent, b);
        assert!((spans[0].self_us - 7_000.0).abs() < 1.0);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let id = rec.begin("x", None);
        rec.end(id);
        assert!(id.is_none());
        assert!(rec.finish().is_empty());
    }
}
