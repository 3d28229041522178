//! Memoized window synthesis: a caching [`WindowSource`] for hot profiling
//! streams.
//!
//! Synthesizing a window stream from `(seed, subjects, activity schedule)` is
//! deterministic, so re-running [`SynthWindows`](crate::SynthWindows) over the
//! same parameters repeats identical signal-generation work. That happens
//! constantly at fleet scale: the CHRIS profiling table is re-profiled over
//! identical calibration windows, and simulated devices whose scenarios share
//! a `(seed, schedule)` pair re-synthesize the same session. This module
//! memoizes that work:
//!
//! * [`WindowCacheKey`] — the full synthesis input: seed, subject count,
//!   activity schedule, per-activity sample count and the consumers'
//!   [`WindowDemand`]. Two streams with equal
//!   keys are bit-identical, so sharing the materialized windows is
//!   observationally invisible,
//! * [`WindowCache`] — a **bounded, deterministic LRU** from keys to
//!   shared window buffers. Eviction depends only on the access sequence
//!   (never on hash order or clocks), so a run that uses a cache is exactly
//!   as reproducible as one that does not. Hit/miss counters let callers
//!   surface cache effectiveness,
//! * [`CachedWindows`] — the replay [`WindowSource`]: a shared
//!   `Arc<Vec<LabeledWindow>>` buffer yielded one window per pull, with the
//!   same zero-copy [`try_for_each_window`](WindowSource::try_for_each_window)
//!   and [`as_slice`](WindowSource::as_slice) fast paths as
//!   [`SliceSource`](crate::SliceSource),
//! * [`MaybeCachedWindows`] — what a lookup returns: the replay, or (on a
//!   capacity-0 miss, where storing is impossible) the un-drained fresh
//!   stream, preserving the uncached path's O(1)-window memory bound.
//!
//! The cache is deliberately **not** synchronized: fleet executors keep one
//! cache per worker thread (lock-free by construction) and merge the counters
//! afterwards, which is both faster and deterministic per worker.

use std::sync::Arc;

use crate::activity::Activity;
use crate::error::DataError;
use crate::window::{LabeledWindow, WindowDemand};

use super::{IntoWindowSource, WindowSource};

/// The complete input of a synthesized window stream; equal keys imply
/// bit-identical streams.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WindowCacheKey {
    /// Master RNG seed of the synthesis.
    pub seed: u64,
    /// Number of subjects synthesized.
    pub subjects: usize,
    /// Activity schedule, in order (order is part of the synthesis input).
    pub activities: Vec<Activity>,
    /// Samples generated per activity segment.
    pub samples_per_activity: usize,
    /// What the stream's consumers read: a label-only stream is never
    /// replayed to a lookup that needs signals, nor the reverse.
    pub demand: WindowDemand,
}

/// A bounded, deterministic LRU cache of materialized window streams.
///
/// `capacity` bounds the number of *entries* (one entry per distinct
/// [`WindowCacheKey`]; a capacity of `0` disables storage, so every lookup
/// misses and synthesizes fresh — useful as a control, and the reports it
/// produces are still identical). Entries are evicted strictly
/// least-recently-used, where "use" is a [`WindowCache::stream_with`] call;
/// the eviction order therefore depends only on the access sequence, keeping
/// cached runs as reproducible as uncached ones.
#[derive(Debug, Clone, Default)]
pub struct WindowCache {
    capacity: usize,
    /// Most-recently-used first; linear scan keeps ordering deterministic
    /// and is faster than hashing for the small capacities caches run with.
    entries: Vec<(WindowCacheKey, Arc<Vec<LabeledWindow>>)>,
    hits: u64,
    misses: u64,
}

impl WindowCache {
    /// Creates a cache holding at most `capacity` materialized streams
    /// (`usize::MAX` for unbounded, `0` to disable storage).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of materialized streams currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookups that found a cached stream.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to synthesize (including every lookup at capacity 0).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Streams the windows for `key`: a hit replays the shared buffer, a
    /// miss materializes the stream once via `synth` and stores it — unless
    /// the capacity is 0, in which case the fresh stream is handed through
    /// untouched (no pointless materialization, the O(1)-window bound of the
    /// uncached path is preserved).
    ///
    /// The returned source yields element-wise exactly what draining
    /// `synth()` would have yielded — consumers cannot observe whether their
    /// stream was a hit or a miss (beyond the counters).
    ///
    /// # Errors
    ///
    /// Propagates [`DataError`] from `synth` or from the drained stream;
    /// failed syntheses are not cached.
    pub fn stream_with<S, F>(
        &mut self,
        key: WindowCacheKey,
        synth: F,
    ) -> Result<MaybeCachedWindows<S>, DataError>
    where
        S: WindowSource,
        F: FnOnce() -> Result<S, DataError>,
    {
        if let Some(index) = self.entries.iter().position(|(k, _)| *k == key) {
            self.hits += 1;
            // LRU touch: move to front without disturbing relative order of
            // the other entries.
            let entry = self.entries.remove(index);
            let windows = Arc::clone(&entry.1);
            self.entries.insert(0, entry);
            return Ok(MaybeCachedWindows::Cached(CachedWindows::new(windows)));
        }
        self.misses += 1;
        if self.capacity == 0 {
            return Ok(MaybeCachedWindows::Fresh(synth()?));
        }
        let mut source = synth()?;
        // Manual drain instead of `collect_windows`: a cache fill is bounded
        // by the cache capacity, not an eager-materialization regression, so
        // it must not trip `stream::metrics::eager_collects` watchdogs.
        let mut out = Vec::with_capacity(source.size_hint().0);
        while let Some(item) = source.next_window() {
            out.push(item?);
        }
        let windows = Arc::new(out);
        self.entries.insert(0, (key, Arc::clone(&windows)));
        self.entries.truncate(self.capacity);
        Ok(MaybeCachedWindows::Cached(CachedWindows::new(windows)))
    }
}

/// What [`WindowCache::stream_with`] hands back: a memoized replay
/// ([`CachedWindows`]) or, when storing is impossible (capacity 0), the
/// fresh synthesis stream itself. Both arms yield identical windows.
#[derive(Debug, Clone)]
pub enum MaybeCachedWindows<S> {
    /// Capacity-0 miss: the un-drained synthesis stream, one window alive at
    /// a time, exactly like the uncached path.
    Fresh(S),
    /// Hit, or a miss that was materialized into the cache.
    Cached(CachedWindows),
}

impl<S: WindowSource> WindowSource for MaybeCachedWindows<S> {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        match self {
            MaybeCachedWindows::Fresh(source) => source.next_window(),
            MaybeCachedWindows::Cached(source) => source.next_window(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            MaybeCachedWindows::Fresh(source) => source.size_hint(),
            MaybeCachedWindows::Cached(source) => source.size_hint(),
        }
    }

    fn try_for_each_window<E: From<DataError>>(
        &mut self,
        f: impl FnMut(&LabeledWindow) -> Result<(), E>,
    ) -> Result<usize, E> {
        match self {
            MaybeCachedWindows::Fresh(source) => source.try_for_each_window(f),
            MaybeCachedWindows::Cached(source) => source.try_for_each_window(f),
        }
    }

    fn as_slice(&self) -> Option<&[LabeledWindow]> {
        match self {
            MaybeCachedWindows::Fresh(source) => source.as_slice(),
            MaybeCachedWindows::Cached(source) => source.as_slice(),
        }
    }
}

impl<S: WindowSource> IntoWindowSource for MaybeCachedWindows<S> {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

/// [`WindowSource`] replaying a shared, memoized window buffer (see
/// [`WindowCache::stream_with`]).
///
/// Cloning the source restarts the replay from the clone's position without
/// duplicating the buffer.
#[derive(Debug, Clone)]
pub struct CachedWindows {
    windows: Arc<Vec<LabeledWindow>>,
    next: usize,
}

impl CachedWindows {
    fn new(windows: Arc<Vec<LabeledWindow>>) -> Self {
        Self { windows, next: 0 }
    }

    /// Total number of windows in the underlying shared buffer.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the underlying shared buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }
}

impl WindowSource for CachedWindows {
    fn next_window(&mut self) -> Option<Result<LabeledWindow, DataError>> {
        let window = self.windows.get(self.next)?;
        self.next += 1;
        Some(Ok(window.clone()))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.windows.len() - self.next;
        (remaining, Some(remaining))
    }

    /// Zero-copy override mirroring [`SliceSource`](crate::SliceSource): the
    /// shared buffer is visited by reference, and on a visitor error the
    /// source is positioned after the failing window.
    fn try_for_each_window<E: From<DataError>>(
        &mut self,
        mut f: impl FnMut(&LabeledWindow) -> Result<(), E>,
    ) -> Result<usize, E> {
        let mut visited = 0usize;
        while let Some(window) = self.windows.get(self.next) {
            self.next += 1;
            f(window)?;
            visited += 1;
        }
        Ok(visited)
    }

    fn as_slice(&self) -> Option<&[LabeledWindow]> {
        Some(&self.windows[self.next..])
    }
}

impl IntoWindowSource for CachedWindows {
    type Source = Self;

    fn into_window_source(self) -> Self::Source {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;

    fn builder(seed: u64) -> DatasetBuilder {
        DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(seed)
    }

    #[test]
    fn hit_replays_the_synthesized_stream_exactly() {
        let mut cache = WindowCache::new(4);
        let eager: Vec<_> = builder(7)
            .window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        let miss: Vec<_> = builder(7)
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        let hit: Vec<_> = builder(7)
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(miss, eager);
        assert_eq!(hit, eager);
        assert_eq!((cache.hits(), cache.misses()), (1, 2 - 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let mut cache = WindowCache::new(4);
        let a: Vec<_> = builder(1)
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        let b: Vec<_> = builder(2)
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_ne!(a, b);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn label_only_entries_are_never_replayed_to_signal_lookups() {
        let mut cache = WindowCache::new(4);
        let labels = builder(5).demand(WindowDemand::Labels);
        let signals = builder(5);
        assert_ne!(
            labels.window_cache_key().unwrap(),
            signals.window_cache_key().unwrap()
        );
        let replayed_labels: Vec<_> = labels
            .clone()
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        assert!(replayed_labels.iter().all(LabeledWindow::is_label_only));
        let full: Vec<_> = signals
            .cached_window_stream(&mut cache)
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(full.iter().all(|w| !w.is_label_only() && !w.is_empty()));
        assert_eq!(full, builder(5).build().unwrap().windows());
    }

    #[test]
    fn lru_eviction_is_strictly_least_recently_used() {
        let mut cache = WindowCache::new(2);
        builder(1).cached_window_stream(&mut cache).unwrap(); // miss: [1]
        builder(2).cached_window_stream(&mut cache).unwrap(); // miss: [2, 1]
        builder(1).cached_window_stream(&mut cache).unwrap(); // hit:  [1, 2]
        builder(3).cached_window_stream(&mut cache).unwrap(); // miss, evicts 2
        builder(1).cached_window_stream(&mut cache).unwrap(); // still a hit
        builder(2).cached_window_stream(&mut cache).unwrap(); // miss again
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 4);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_storage_but_still_streams() {
        let mut cache = WindowCache::new(0);
        let eager: Vec<_> = builder(9)
            .window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        for _ in 0..2 {
            let stream = builder(9).cached_window_stream(&mut cache).unwrap();
            // Storage is disabled, so nothing is materialized either: the
            // miss hands the un-drained synthesis stream straight through.
            assert!(matches!(stream, MaybeCachedWindows::Fresh(_)));
            let streamed: Vec<_> = stream.iter().map(Result::unwrap).collect();
            assert_eq!(streamed, eager);
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert!(cache.is_empty());
    }

    #[test]
    fn cached_windows_supports_slice_and_visitor_fast_paths() {
        let mut cache = WindowCache::new(1);
        let MaybeCachedWindows::Cached(mut stream) =
            builder(11).cached_window_stream(&mut cache).unwrap()
        else {
            panic!("a positive-capacity miss must materialize into the cache")
        };
        let total = stream.len();
        assert!(total > 0);
        assert_eq!(stream.size_hint(), (total, Some(total)));
        assert_eq!(stream.as_slice().unwrap().len(), total);
        stream.next_window().unwrap().unwrap();
        assert_eq!(stream.as_slice().unwrap().len(), total - 1);
        let visited = stream
            .try_for_each_window(|_| Ok::<(), DataError>(()))
            .unwrap();
        assert_eq!(visited, total - 1);
        assert!(stream.next_window().is_none());
        assert_eq!(stream.size_hint(), (0, Some(0)));
    }

    #[test]
    fn synthesis_failures_are_not_cached() {
        let mut cache = WindowCache::new(4);
        let short = DatasetBuilder::new().subjects(1).seconds_per_activity(1.0);
        assert!(short.window_cache_key().is_err());
        // A failing synth closure leaves the cache empty.
        let key = builder(1).window_cache_key().unwrap();
        let result = cache.stream_with(key, || {
            Err::<crate::SynthWindows, _>(DataError::InvalidParameter {
                name: "synth",
                requirement: "always fails",
            })
        });
        assert!(result.is_err());
        assert!(cache.is_empty());
        assert_eq!(cache.misses(), 1);
    }
}
