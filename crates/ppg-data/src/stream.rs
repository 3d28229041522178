//! Streaming window delivery: the [`WindowSource`] trait and its sources.
//!
//! The paper's CHRIS system is an *online* pipeline — the wearable sees one
//! 8-second window at a time and decides per window whether to run locally or
//! offload. Batch `Vec<LabeledWindow>` APIs were an artifact of the
//! reproduction, not the design. This module makes the window-by-window shape
//! first-class:
//!
//! * [`WindowSource`] — an iterator-like pull interface
//!   (`next_window() -> Option<Result<LabeledWindow, DataError>>`) with a
//!   [`size_hint`](WindowSource::size_hint) contract, implemented by every
//!   window producer in the workspace,
//! * [`SynthWindows`] — fully lazy synthesis from
//!   `(seed, subjects, activity schedule)` via
//!   [`DatasetBuilder::window_stream`](crate::DatasetBuilder::window_stream):
//!   at most **one activity segment** of raw signal is alive at a time and
//!   exactly **one window** is materialized per pull, instead of the whole
//!   session,
//! * [`DatasetWindows`] / [`RecordingWindows`] — lazy window extraction from
//!   already-materialized recordings
//!   ([`Dataset::window_stream`](crate::Dataset::window_stream) /
//!   [`SessionRecording::window_stream`](crate::SessionRecording::window_stream)),
//! * [`SliceSource`] / [`VecSource`] — adapters that keep every existing
//!   `&[LabeledWindow]` call site compiling: [`IntoWindowSource`] is
//!   implemented for slices, slice references, arrays and vectors, so
//!   consumers such as `chris_core::ChrisRuntime::run` accept both eager
//!   buffers and streams through one generic parameter,
//! * [`cache`] — memoized synthesis: [`cache::WindowCache`] is a bounded,
//!   deterministic LRU over materialized streams keyed by the full synthesis
//!   input, and [`cache::CachedWindows`] replays the shared buffer as a
//!   stream that is observationally identical to a fresh [`SynthWindows`].
//!
//! The streams are **bit-exact** replays of the eager paths: collecting any
//! of them yields element-wise the same `LabeledWindow`s the legacy
//! `Vec`-returning methods produced (locked in by property tests), so reports
//! computed from a stream are byte-identical to reports computed from the
//! eager vectors.
//!
//! ## Demand-driven synthesis
//!
//! Synthesis computes only what the stream's consumers read. Every HR
//! estimator and activity classifier declares a [`WindowDemand`]
//! (`ppg_models::traits::HrEstimator::demand`, defaulting to every signal
//! channel); a runtime or profiler reports the union of its consumers', and
//! the stream is opened with it through
//! [`DatasetBuilder::demand`](crate::DatasetBuilder::demand). A
//! [`WindowDemand::Labels`] stream — what the fleet's oracle classifier and
//! calibrated estimators need — yields *label-only* windows: the same count,
//! subjects, activities and heart-rate bits as the full stream, with empty
//! signal channels and no `mean_motion_g`. The heart-rate trajectory is
//! computed exactly; the accelerometer and PPG synthesizers are replaced by
//! replays of their random draws (same values, same order, no
//! transcendental math, no per-window channel copies), so every subject's
//! RNG ends where the full synthesis leaves it.
//!
//! A new estimator or classifier must declare what it reads: keep the
//! default (`Signals`) if it touches any sample or `mean_motion_g`, and
//! declare `Labels` only if it reads nothing but `subject`, `activity`,
//! `hr_bpm` and emptiness. Signal-reading models reject label-only windows
//! with a typed error, and the cache key
//! ([`cache::WindowCacheKey::demand`]) keeps label-only and full streams
//! apart.

pub mod cache;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::activity::Activity;
use crate::dataset::{synthesize_recording, Dataset, SessionRecording};
use crate::error::DataError;
use crate::subject::{SubjectId, SubjectProfile};
use crate::window::{LabeledWindow, WindowDemand};
use crate::{WINDOW_SAMPLES, WINDOW_STRIDE};

/// Number of analysis windows extractable from `samples` samples with the
/// paper's 256-sample / 64-sample-stride scheme (0 when too short).
pub fn window_count_for(samples: usize) -> usize {
    if samples < WINDOW_SAMPLES {
        0
    } else {
        (samples - WINDOW_SAMPLES) / WINDOW_STRIDE + 1
    }
}

/// A pull-based producer of labeled analysis windows.
///
/// The streaming analogue of `&[LabeledWindow]`: callers repeatedly ask for
/// the next window until `None`, and at most one window needs to be alive at
/// a time. Errors are yielded in-band (`Some(Err(..))`) so lazy synthesis can
/// fail mid-stream without having validated the whole session up front.
///
/// # Contract
///
/// * After the first `None`, every subsequent call returns `None` (fused).
/// * [`size_hint`](Self::size_hint) bounds the number of *windows* still to
///   be yielded (error items are not counted); like
///   [`Iterator::size_hint`], `(lo, Some(hi))` promises `lo <= n <= hi`.
///   Sources backed by known geometry (slices, synthesis) return exact
///   bounds.
pub trait WindowSource {
    /// Pulls the next window, `Some(Err(..))` on a synthesis/extraction
    /// failure, or `None` when the stream is exhausted.
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>>;

    /// Bounds on the number of windows remaining, `(lower, upper)`.
    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, None)
    }

    /// Drives the source to exhaustion with a **by-reference** visitor,
    /// returning the number of windows visited; stops at the first error
    /// (from the source, converted via `From<DataError>`, or from the
    /// visitor).
    ///
    /// The zero-copy consumption path: single-pass consumers
    /// (`chris_core::ChrisRuntime::run`, `chris_core::Profiler`) drive their
    /// loops through it, so buffer-backed sources like [`SliceSource`]
    /// override it to iterate without cloning a single window — eager call
    /// sites keep their pre-streaming cost.
    fn try_for_each_window<E: From<DataError>>(
        &mut self,
        mut f: impl FnMut(&LabeledWindow) -> Result<(), E>,
    ) -> Result<usize, E>
    where
        Self: Sized,
    {
        let mut n = 0usize;
        while let Some(item) = self.next_window() {
            let window = item.map_err(E::from)?;
            f(&window)?;
            n += 1;
        }
        Ok(n)
    }

    /// Borrowed view of the remaining windows when the source is backed by
    /// an in-memory buffer ([`SliceSource`], [`VecSource`]); `None` for lazy
    /// sources. Lets inherently multi-pass consumers
    /// (`chris_core::Profiler::profile_all`) use already-materialized
    /// workloads in place instead of buffering a copy.
    fn as_slice(&self) -> Option<&[LabeledWindow]> {
        None
    }

    /// Adapts the source into a standard [`Iterator`] of
    /// `Result<LabeledWindow, DataError>` for use with combinators.
    fn iter(self) -> WindowSourceIter<Self>
    where
        Self: Sized,
    {
        WindowSourceIter { source: self }
    }
}

/// Conversion into a [`WindowSource`].
///
/// The generic bound used by window consumers
/// (`chris_core::ChrisRuntime::run`, `chris_core::Profiler::profile_all`):
/// implemented identically (identity) by every source in this module and by
/// reference-to-buffer types via [`SliceSource`] / [`VecSource`], so call
/// sites can pass `&windows`, `&[..]`, a `Vec` or any stream without
/// adapting manually.
pub trait IntoWindowSource {
    /// The concrete source this value converts into.
    type Source: WindowSource;

    /// Performs the conversion.
    fn into_window_source(self) -> Self::Source;
}

/// [`Iterator`] adapter over any [`WindowSource`] (see
/// [`WindowSource::iter`]).
#[derive(Debug)]
pub struct WindowSourceIter<S> {
    source: S,
}

impl<S: WindowSource> Iterator for WindowSourceIter<S> {
    type Item = Result<LabeledWindow, DataError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.source.next_window()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // The source's hint counts windows only; this iterator additionally
        // yields error items, so only the lower bound carries over.
        (self.source.size_hint().0, None)
    }
}

/// Eagerly drains a source into a `Vec`, stopping at the first error.
///
/// The bridge back from the streaming world for call sites that genuinely
/// need random access (multi-pass profiling, tests). Each call is recorded in
/// [`metrics::eager_collects`] so tests can assert that hot paths — the fleet
/// executor in particular — never materialize a full window vector.
///
/// # Errors
///
/// Propagates the first [`DataError`] the source yields.
pub fn collect_windows<S: IntoWindowSource>(source: S) -> Result<Vec<LabeledWindow>, DataError> {
    metrics::record_eager_collect();
    let mut source = source.into_window_source();
    let mut out = Vec::with_capacity(source.size_hint().0);
    while let Some(item) = source.next_window() {
        out.push(item?);
    }
    Ok(out)
}

/// Instrumentation counters for the streaming migration.
///
/// A facade over the process-global [`telemetry`] registry: the counter is
/// the `chris_eager_collects_total` series on [`telemetry::global`], so it
/// shows up in metrics expositions while keeping the original process-wide
/// watchdog semantics that integration tests (and debug assertions in
/// downstream crates) rely on to verify that streaming hot paths never fall
/// back to eager `Vec<LabeledWindow>` materialization.
pub mod metrics {
    use std::sync::OnceLock;
    use telemetry::{Counter, Stability};

    /// Series name of the eager-materialization watchdog counter.
    pub const EAGER_COLLECTS_SERIES: &str = "chris_eager_collects_total";

    fn counter() -> &'static Counter {
        static EAGER_COLLECTS: OnceLock<Counter> = OnceLock::new();
        EAGER_COLLECTS.get_or_init(|| {
            telemetry::global()
                .counter(
                    EAGER_COLLECTS_SERIES,
                    &[],
                    "Full window-vector materializations since process start",
                    Stability::Observational,
                )
                .expect("eager-collect series registration cannot fail")
        })
    }

    /// Number of full window-vector materializations since process start
    /// (every [`super::collect_windows`] call, which all eager `windows()`
    /// methods delegate to).
    pub fn eager_collects() -> usize {
        usize::try_from(counter().value()).unwrap_or(usize::MAX)
    }

    pub(crate) fn record_eager_collect() {
        counter().inc();
    }
}

/// [`WindowSource`] over a borrowed window buffer; windows are cloned out one
/// at a time.
///
/// The compatibility adapter that keeps `&[LabeledWindow]` call sites working
/// against stream-consuming APIs.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    remaining: &'a [LabeledWindow],
}

impl<'a> SliceSource<'a> {
    /// Wraps a window slice.
    pub fn new(windows: &'a [LabeledWindow]) -> Self {
        Self { remaining: windows }
    }
}

impl WindowSource for SliceSource<'_> {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        let (first, rest) = self.remaining.split_first()?;
        self.remaining = rest;
        Some(Ok(first.clone()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining.len(), Some(self.remaining.len()))
    }

    /// Zero-copy override: visits the buffered windows by reference; the
    /// per-pull clone of [`SliceSource::next_window`] only happens when a
    /// consumer genuinely needs owned windows. On a visitor error the
    /// source is positioned after the failing window, exactly like the
    /// default implementation.
    fn try_for_each_window<E: From<DataError>>(
        &mut self,
        mut f: impl FnMut(&LabeledWindow) -> Result<(), E>,
    ) -> Result<usize, E> {
        let mut visited = 0usize;
        while let Some((first, rest)) = self.remaining.split_first() {
            self.remaining = rest;
            f(first)?;
            visited += 1;
        }
        Ok(visited)
    }

    fn as_slice(&self) -> Option<&[LabeledWindow]> {
        Some(self.remaining)
    }
}

/// Owning [`WindowSource`] over a window vector.
#[derive(Debug)]
pub struct VecSource {
    windows: std::vec::IntoIter<LabeledWindow>,
}

impl VecSource {
    /// Wraps an owned window vector.
    pub fn new(windows: Vec<LabeledWindow>) -> Self {
        Self {
            windows: windows.into_iter(),
        }
    }
}

impl WindowSource for VecSource {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        self.windows.next().map(Ok)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.windows.size_hint()
    }

    fn as_slice(&self) -> Option<&[LabeledWindow]> {
        Some(self.windows.as_slice())
    }
}

impl<'a> IntoWindowSource for &'a [LabeledWindow] {
    type Source = SliceSource<'a>;

    fn into_window_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

impl<'a> IntoWindowSource for &'a Vec<LabeledWindow> {
    type Source = SliceSource<'a>;

    fn into_window_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

impl<'a, const N: usize> IntoWindowSource for &'a [LabeledWindow; N] {
    type Source = SliceSource<'a>;

    fn into_window_source(self) -> Self::Source {
        SliceSource::new(self)
    }
}

impl IntoWindowSource for Vec<LabeledWindow> {
    type Source = VecSource;

    fn into_window_source(self) -> Self::Source {
        VecSource::new(self)
    }
}

impl<'a> IntoWindowSource for SliceSource<'a> {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

impl IntoWindowSource for VecSource {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

impl<'a> IntoWindowSource for RecordingWindows<'a> {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

impl<'a> IntoWindowSource for DatasetWindows<'a> {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

impl IntoWindowSource for SynthWindows {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordingState {
    /// Length not yet validated.
    Fresh,
    /// Validated; yielding windows.
    Yielding,
    /// Exhausted or failed.
    Done,
}

/// Lazy [`WindowSource`] over one materialized [`SessionRecording`]
/// (see [`SessionRecording::window_stream`]).
///
/// Mirrors the legacy eager extraction exactly: a recording shorter than one
/// window yields a single [`DataError::RecordingTooShort`]; otherwise every
/// stride-aligned window is yielded in order, one allocation per pull.
#[derive(Debug, Clone)]
pub struct RecordingWindows<'a> {
    recording: &'a SessionRecording,
    next_start: usize,
    state: RecordingState,
}

impl<'a> RecordingWindows<'a> {
    pub(crate) fn new(recording: &'a SessionRecording) -> Self {
        Self {
            recording,
            next_start: 0,
            state: RecordingState::Fresh,
        }
    }
}

impl WindowSource for RecordingWindows<'_> {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        match self.state {
            RecordingState::Fresh => {
                if self.recording.len() < WINDOW_SAMPLES {
                    self.state = RecordingState::Done;
                    return Some(Err(DataError::RecordingTooShort {
                        samples: self.recording.len(),
                        required: WINDOW_SAMPLES,
                    }));
                }
                self.state = RecordingState::Yielding;
            }
            RecordingState::Yielding => {}
            RecordingState::Done => return None,
        }
        if self.next_start + WINDOW_SAMPLES <= self.recording.len() {
            let window = self.recording.window_at(self.next_start);
            self.next_start += WINDOW_STRIDE;
            Some(Ok(window))
        } else {
            self.state = RecordingState::Done;
            None
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = match self.state {
            RecordingState::Done => 0,
            _ => window_count_for(self.recording.len().saturating_sub(self.next_start)),
        };
        (remaining, Some(remaining))
    }
}

/// Lazy [`WindowSource`] over every recording of a materialized [`Dataset`]
/// (see [`Dataset::window_stream`]), in subject/activity order.
///
/// Recordings too short for one window are skipped, matching the legacy
/// `Dataset::windows()` behaviour (such recordings cannot exist after a
/// successful build).
#[derive(Debug, Clone)]
pub struct DatasetWindows<'a> {
    recordings: std::slice::Iter<'a, SessionRecording>,
    current: Option<RecordingWindows<'a>>,
}

impl<'a> DatasetWindows<'a> {
    pub(crate) fn new(dataset: &'a Dataset) -> Self {
        Self {
            recordings: dataset.recordings().iter(),
            current: None,
        }
    }
}

impl WindowSource for DatasetWindows<'_> {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        loop {
            if let Some(current) = &mut self.current {
                match current.next_window() {
                    Some(Ok(window)) => return Some(Ok(window)),
                    // Parity with the eager path's `unwrap_or_default()`:
                    // a too-short recording contributes no windows.
                    Some(Err(_)) | None => self.current = None,
                }
            }
            match self.recordings.next() {
                Some(recording) => self.current = Some(recording.window_stream()),
                None => return None,
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let current = self.current.as_ref().map_or(0, |c| c.size_hint().0);
        let rest: usize = self
            .recordings
            .clone()
            .map(|r| r.window_count())
            .sum::<usize>();
        let total = current + rest;
        (total, Some(total))
    }
}

/// Per-subject synthesis cursor of a [`SynthWindows`] stream.
#[derive(Debug, Clone)]
struct SubjectCursor {
    rng: StdRng,
    profile: SubjectProfile,
    last_hr: f32,
    next_activity: usize,
    /// The one activity segment currently alive, plus the next window start.
    current: Option<(SessionRecording, usize)>,
}

/// Fully lazy [`WindowSource`]: synthesizes windows on demand from
/// `(seed, subject count, activity schedule)` without ever materializing the
/// dataset, a session, or a window vector.
///
/// Produced by [`DatasetBuilder::window_stream`](crate::DatasetBuilder::window_stream)
/// (and, one layer up, by `fleet::DeviceScenario::window_stream`). The replay
/// is bit-exact with the eager `build()?.windows()` path: the same master RNG
/// draws, the same per-subject streams, the same activity chaining of the
/// heart-rate trajectory. Peak memory is one activity segment of raw signal
/// (a few KiB) instead of the whole multi-activity session and its window
/// vector.
#[derive(Debug, Clone)]
pub struct SynthWindows {
    activities: Vec<Activity>,
    samples_per_activity: usize,
    demand: WindowDemand,
    subject_count: usize,
    master: StdRng,
    next_subject: usize,
    subject: Option<SubjectCursor>,
    remaining: usize,
}

impl SynthWindows {
    pub(crate) fn new(
        subject_count: usize,
        activities: Vec<Activity>,
        samples_per_activity: usize,
        seed: u64,
        demand: WindowDemand,
    ) -> Self {
        let remaining = subject_count * activities.len() * window_count_for(samples_per_activity);
        Self {
            activities,
            samples_per_activity,
            demand,
            subject_count,
            master: StdRng::seed_from_u64(seed),
            next_subject: 0,
            subject: None,
            remaining,
        }
    }

    /// Exact number of windows still to be synthesized.
    pub fn len(&self) -> usize {
        self.remaining
    }

    /// Whether the stream is exhausted.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl WindowSource for SynthWindows {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        loop {
            if let Some(subject) = &mut self.subject {
                if let Some((recording, next_start)) = &mut subject.current {
                    if *next_start + WINDOW_SAMPLES <= recording.len() {
                        let window = recording.window_at(*next_start);
                        *next_start += WINDOW_STRIDE;
                        self.remaining -= 1;
                        return Some(Ok(window));
                    }
                    subject.current = None;
                }
                if subject.next_activity < self.activities.len() {
                    let activity = self.activities[subject.next_activity];
                    subject.next_activity += 1;
                    let recording = synthesize_recording(
                        &mut subject.rng,
                        &subject.profile,
                        activity,
                        self.samples_per_activity,
                        &mut subject.last_hr,
                        self.demand,
                    );
                    subject.current = Some((recording, 0));
                    continue;
                }
                self.subject = None;
            }
            if self.next_subject < self.subject_count {
                // Same derivation as `DatasetBuilder::build`: every subject
                // gets an independent stream drawn from the master RNG.
                let subject_seed: u64 = self.master.random();
                let mut rng = StdRng::seed_from_u64(subject_seed);
                let profile = SubjectProfile::generate(SubjectId(self.next_subject), &mut rng);
                self.subject = Some(SubjectCursor {
                    last_hr: profile.resting_hr_bpm,
                    rng,
                    profile,
                    next_activity: 0,
                    current: None,
                });
                self.next_subject += 1;
                continue;
            }
            return None;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn small_builder() -> DatasetBuilder {
        DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(24.0)
            .seed(11)
    }

    #[test]
    fn slice_source_round_trips_and_reports_exact_size() {
        let windows = small_builder().build().unwrap().windows();
        let mut source = SliceSource::new(&windows);
        assert_eq!(source.size_hint(), (windows.len(), Some(windows.len())));
        let mut collected = Vec::new();
        while let Some(item) = source.next_window() {
            collected.push(item.unwrap());
        }
        assert_eq!(collected, windows);
        assert_eq!(source.size_hint(), (0, Some(0)));
        assert!(source.next_window().is_none());
    }

    #[test]
    fn vec_source_owns_its_windows() {
        let windows = small_builder().build().unwrap().windows();
        let n = windows.len();
        let collected: Vec<_> = VecSource::new(windows.clone())
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(collected.len(), n);
        assert_eq!(collected, windows);
    }

    #[test]
    fn synth_stream_replays_the_eager_dataset_exactly() {
        let eager = small_builder().build().unwrap().windows();
        let stream = small_builder().window_stream().unwrap();
        assert_eq!(stream.len(), eager.len());
        let streamed: Vec<_> = stream.iter().map(Result::unwrap).collect();
        assert_eq!(streamed, eager);
    }

    #[test]
    fn synth_stream_size_hint_counts_down_exactly() {
        let mut stream = small_builder().window_stream().unwrap();
        let total = stream.len();
        assert!(total > 0);
        let mut seen = 0usize;
        while let Some(item) = stream.next_window() {
            item.unwrap();
            seen += 1;
            assert_eq!(stream.size_hint(), (total - seen, Some(total - seen)));
        }
        assert_eq!(seen, total);
        assert!(stream.is_empty());
    }

    #[test]
    fn dataset_stream_matches_eager_windows() {
        let dataset = small_builder().build().unwrap();
        let eager = dataset.windows();
        let streamed: Vec<_> = dataset.window_stream().iter().map(Result::unwrap).collect();
        assert_eq!(streamed, eager);
        assert_eq!(dataset.window_stream().size_hint().0, eager.len());
    }

    #[test]
    fn recording_stream_errors_once_on_short_recordings() {
        let dataset = small_builder().build().unwrap();
        let mut recording = dataset.recordings()[0].clone();
        recording.hr_bpm.truncate(100);
        let mut stream = recording.window_stream();
        assert_eq!(stream.size_hint(), (0, Some(0)));
        assert!(matches!(
            stream.next_window(),
            Some(Err(DataError::RecordingTooShort { samples: 100, .. }))
        ));
        assert!(stream.next_window().is_none());
    }

    #[test]
    fn collect_windows_bumps_the_eager_counter() {
        let before = metrics::eager_collects();
        let windows = collect_windows(small_builder().window_stream().unwrap()).unwrap();
        assert!(!windows.is_empty());
        assert!(metrics::eager_collects() > before);
    }

    #[test]
    fn window_count_for_matches_extraction_arithmetic() {
        assert_eq!(window_count_for(0), 0);
        assert_eq!(window_count_for(WINDOW_SAMPLES - 1), 0);
        assert_eq!(window_count_for(WINDOW_SAMPLES), 1);
        assert_eq!(window_count_for(WINDOW_SAMPLES + WINDOW_STRIDE), 2);
        let samples = (24.0 * crate::SAMPLE_RATE_HZ) as usize;
        let dataset = small_builder().build().unwrap();
        assert_eq!(
            dataset.recordings()[0].window_count(),
            window_count_for(samples)
        );
    }
}
