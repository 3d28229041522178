//! In-memory spans recorded around calls into the program's layers, and a
//! timing wrapper for window sources.
//!
//! Spans live in a plain `Vec` while the benchmark runs and are written out
//! once at the end. A span's self time is its duration minus the durations
//! of its direct children.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use ppg_data::{DataError, IntoWindowSource, LabeledWindow, WindowSource};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the parent span in the same log.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the log's epoch.
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The device or job the span belongs to.
    pub key: u64,
}

/// Self time of one span name, summed over the log.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// An append-only span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::new(),
        }
    }

    fn offset(&self, at: Instant) -> u64 {
        nanos(at.saturating_duration_since(self.epoch))
    }

    /// Opens a span whose end is set later by [`SpanLog::close`], so its
    /// children can name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, key: u64) -> usize {
        let start_ns = self.offset(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            dur_ns: 0,
            key,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, index: usize) {
        let end = self.offset(Instant::now());
        let span = &mut self.spans[index];
        span.dur_ns = end.saturating_sub(span.start_ns);
    }

    /// Records a span that started at `start` and ends now.
    pub fn record(&mut self, name: &'static str, parent: Option<usize>, start: Instant, key: u64) {
        let start_ns = self.offset(start);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            dur_ns: nanos(start.elapsed()),
            key,
        });
    }

    /// Records a child that stands for many short intervals (one per
    /// window) summed into one duration; it starts with its parent.
    pub fn record_aggregate(&mut self, name: &'static str, parent: usize, dur_ns: u64, key: u64) {
        let start_ns = self.spans[parent].start_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            dur_ns,
            key,
        });
    }

    /// Moves every span of `other`, which shares this log's epoch, into
    /// this log, keeping parent links.
    pub fn append(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Count, total and self time of every span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let layer = out.entry(span.name).or_default();
            layer.count += 1;
            layer.total_ns += span.dur_ns;
            layer.self_ns += span.dur_ns.saturating_sub(children);
        }
        out
    }

    /// Writes at most `limit` spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path, limit: usize) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate().take(limit) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.key, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Time spent inside a window source and the windows it yielded.
#[derive(Debug, Default)]
pub struct PullClock {
    pub ns: Cell<u64>,
    pub windows: Cell<u64>,
}

impl PullClock {
    fn add(&self, ns: u64, windows: u64) {
        self.ns.set(self.ns.get() + ns);
        self.windows.set(self.windows.get() + windows);
    }
}

/// A [`WindowSource`] that charges the time spent inside `inner` to a
/// [`PullClock`].
///
/// Both consumption paths are timed without changing the work done:
/// `next_window` (how a cache fill drains synthesis) is timed per call, and
/// `try_for_each_window` (how the runtime consumes, by reference) is timed
/// as the gaps between visits, so the visitor's own time is excluded.
pub struct Timed<'a, S> {
    inner: S,
    clock: &'a PullClock,
}

impl<'a, S> Timed<'a, S> {
    pub fn new(inner: S, clock: &'a PullClock) -> Self {
        Self { inner, clock }
    }
}

impl<S: WindowSource> WindowSource for Timed<'_, S> {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        let start = Instant::now();
        let item = self.inner.next_window();
        let yielded = u64::from(matches!(item, Some(Ok(_))));
        self.clock.add(nanos(start.elapsed()), yielded);
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn try_for_each_window<E: From<DataError>>(
        &mut self,
        mut f: impl FnMut(&LabeledWindow) -> Result<(), E>,
    ) -> Result<usize, E> {
        let clock = self.clock;
        let mut mark = Instant::now();
        let result = self.inner.try_for_each_window(|window| {
            clock.add(nanos(mark.elapsed()), 1);
            let outcome = f(window);
            mark = Instant::now();
            outcome
        });
        clock.add(nanos(mark.elapsed()), 0);
        result
    }
}

impl<S: WindowSource> IntoWindowSource for Timed<'_, S> {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}
