//! Parallel fleet execution over std scoped threads.
//!
//! Devices are distributed through a shared atomic cursor over fixed-size
//! chunks — a minimal work-stealing queue: fast workers simply claim more
//! chunks. Every device simulation is a pure function of its scenario and
//! the shared (read-only) zoo + decision engine, and results are merged in
//! device order afterwards, so the output is byte-identical for any thread
//! count and any scheduling interleaving.
//!
//! Workers are *scenario-free*: [`run_fleet_range`] hands each worker only a
//! [`ScenarioGenerator`] and a device-id range, and the worker derives each
//! [`DeviceScenario`] on demand as it claims ids — one scenario alive per
//! worker, never a materialized `Vec<DeviceScenario>` (asserted by
//! [`metrics::peak_live_scenarios`] in `tests/scenario_free.rs`). A
//! billion-device shard therefore costs O(threads) scenario memory. The
//! slice-based [`run_fleet`] is a thin wrapper over the same core for
//! callers that already hold scenarios.
//!
//! The executor is the per-process layer of the scale-out story: both the
//! single-process path ([`crate::FleetSimulation::run`]) and every
//! `fleet-shard` worker drive their device range through [`run_fleet_range`],
//! so a sharded fleet and a single-process fleet execute identical per-device
//! work — only the partitioning and the final [`crate::merge::merge`]
//! differ.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Mutex;

use crate::sync::atomic::{AtomicU64, Ordering};

use chris_core::runtime::{ChrisRuntime, RuntimeOptions};
use chris_core::{ChrisError, DecisionEngine, RunReport};
use hw_sim::battery::{Battery, HWATCH_BATTERY_VOLTAGE, HWATCH_CONVERTER_EFFICIENCY};
use ppg_data::{IntoWindowSource, WindowCache, WindowSource};
use ppg_models::zoo::ModelZoo;
use telemetry::Stability;

use crate::error::FleetError;
use crate::progress::{ProgressSink, ProgressSource};
use crate::report::{DeviceReport, ReportMode};
use crate::scenario::{DeviceScenario, ScenarioGenerator};

/// Instrumentation gauges for scenario materialization.
///
/// A facade over the process-global [`telemetry`] registry (the gauges keep
/// their original process-wide semantics, independent of any worker scope) —
/// the `scenario_free` integration test uses them to prove that the
/// generator-backed execution path keeps at most one generated
/// [`DeviceScenario`] alive per worker thread, instead of materializing the
/// whole range up front.
pub mod metrics {
    use std::sync::OnceLock;
    use telemetry::{Gauge, Stability};

    /// Series name of the currently-alive generated-scenario gauge.
    pub const LIVE_SCENARIOS_SERIES: &str = "chris_live_generated_scenarios";

    /// Series name of the generated-scenario high-water-mark gauge.
    pub const PEAK_SCENARIOS_SERIES: &str = "chris_peak_live_scenarios";

    fn live() -> &'static Gauge {
        static LIVE: OnceLock<Gauge> = OnceLock::new();
        LIVE.get_or_init(|| {
            telemetry::global()
                .gauge(
                    LIVE_SCENARIOS_SERIES,
                    &[],
                    "Generated scenarios currently alive inside executor workers",
                    Stability::Observational,
                )
                .expect("scenario gauge registration cannot fail")
        })
    }

    fn peak() -> &'static Gauge {
        static PEAK: OnceLock<Gauge> = OnceLock::new();
        PEAK.get_or_init(|| {
            telemetry::global()
                .gauge(
                    PEAK_SCENARIOS_SERIES,
                    &[],
                    "High-water mark of live generated scenarios since the last reset",
                    Stability::Observational,
                )
                .expect("scenario gauge registration cannot fail")
        })
    }

    /// Generated scenarios currently alive inside executor workers.
    pub fn live_generated_scenarios() -> usize {
        usize::try_from(live().value()).unwrap_or(0)
    }

    /// High-water mark of [`live_generated_scenarios`] since the last
    /// [`reset_peak`].
    pub fn peak_live_scenarios() -> usize {
        usize::try_from(peak().value()).unwrap_or(0)
    }

    /// Resets the peak gauge (the live gauge is self-balancing).
    pub fn reset_peak() {
        peak().set(live().value());
    }

    /// RAII guard accounting one generated scenario's lifetime.
    pub(crate) struct GeneratedScenario;

    impl GeneratedScenario {
        pub(crate) fn track() -> Self {
            let gauge = live();
            gauge.add(1);
            peak().set_max(gauge.value());
            Self
        }
    }

    impl Drop for GeneratedScenario {
        fn drop(&mut self) {
            live().sub(1);
        }
    }
}

/// Where a worker gets the scenario of work item `index`: a caller-provided
/// slice (the legacy eager path) or on-demand derivation from a generator
/// and a device-id range (the scenario-free path).
enum ScenarioSupply<'a> {
    Slice(&'a [DeviceScenario]),
    Generated {
        generator: &'a ScenarioGenerator,
        range: Range<u64>,
    },
}

impl ScenarioSupply<'_> {
    /// Number of work items (devices) supplied. An inverted range is empty
    /// (Rust `Range` convention), not an underflow.
    fn len(&self) -> u64 {
        match self {
            ScenarioSupply::Slice(scenarios) => scenarios.len() as u64,
            ScenarioSupply::Generated { range, .. } => range.end.saturating_sub(range.start),
        }
    }

    /// The scenario of work item `index` — borrowed from the slice, or
    /// derived on demand (and owned by the caller, so it is dropped before
    /// the worker claims its next item).
    fn scenario(&self, index: u64) -> Cow<'_, DeviceScenario> {
        match self {
            ScenarioSupply::Slice(scenarios) => Cow::Borrowed(&scenarios[index as usize]),
            ScenarioSupply::Generated { generator, range } => {
                Cow::Owned(generator.scenario(range.start + index))
            }
        }
    }
}

/// Upper bound on the projected battery life, in hours (≈11 years). Keeps
/// the distribution finite for pathological near-zero average power.
pub const BATTERY_LIFE_CAP_HOURS: f64 = 100_000.0;

/// Default per-worker capacity of the profiling-window cache when it is
/// enabled without an explicit size (the `--profile-cache` CLI flag).
pub const DEFAULT_PROFILE_CACHE_CAPACITY: usize = 256;

/// Knobs of the parallel executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorOptions {
    /// Worker thread count; `0` means one worker per available core.
    pub threads: usize,
    /// Most devices claimed per queue pop. Larger chunks amortize
    /// contention, smaller chunks balance better when device workloads
    /// differ; near the end of the supply claims shrink to single devices.
    pub chunk_size: usize,
    /// Per-worker profiling-window cache: `None` disables memoization
    /// entirely, `Some(capacity)` gives every worker thread its own
    /// lock-free [`WindowCache`] of that capacity (0 = always miss,
    /// `usize::MAX` = unbounded), so devices whose scenarios share a
    /// [`DeviceScenario::window_cache_key`] replay one synthesized stream.
    /// Reports are byte-identical for every setting; the merged hit/miss
    /// counters surface through [`ProgressSink::profile_cache`].
    pub profile_cache: Option<usize>,
    /// How the run's device reports are aggregated:
    /// [`ReportMode::Exact`] keeps every per-device sample (O(devices)
    /// memory), [`ReportMode::Sketch`] folds them into mergeable
    /// [`crate::QuantileSketch`]es with a surfaced worst-case rank-error
    /// bound (O(log devices) memory). The mode is stamped into
    /// [`crate::ShardMeta`], so artifact sets cannot silently mix modes.
    pub report_mode: ReportMode,
}

impl Default for ExecutorOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            chunk_size: 8,
            profile_cache: None,
            report_mode: ReportMode::Exact,
        }
    }
}

impl ExecutorOptions {
    fn effective_threads(&self, devices: usize) -> usize {
        let requested = if self.threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            self.threads
        };
        requested.clamp(1, devices.max(1))
    }
}

/// Simulates one device: streams its windows straight out of the synthesizer
/// into CHRIS under the device's constraint and schedule, and projects
/// battery life.
///
/// Each call owns a fresh [`ChrisRuntime`] built from clones of the shared
/// zoo and engine, which is what lets workers run devices concurrently
/// without sharing mutable state. The session is never materialized: the
/// runtime pulls windows one at a time from the device's synthesis stream,
/// so peak per-device memory is one activity segment plus one window instead
/// of the whole session vector (asserted by the `streaming` integration test
/// via [`ppg_data::stream::metrics`]). The stream is opened with the
/// runtime's [`ChrisRuntime::demand`]: the fleet's oracle classifier and
/// calibrated estimators read labels only, so no PPG or accelerometer is
/// synthesized, and the report is byte-identical to a run over
/// [`DeviceScenario::window_stream`].
///
/// # Errors
///
/// Returns [`FleetError::Device`], carrying the device id, when data
/// synthesis, the runtime or the battery model fails for this device.
pub fn simulate_device(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
) -> Result<DeviceReport, FleetError> {
    simulate_device_with_progress(scenario, zoo, engine, None)
}

/// [`simulate_device`] with an optional [`ProgressSink`] observing every
/// pulled window and the device's completion.
///
/// # Errors
///
/// Same conditions as [`simulate_device`].
pub fn simulate_device_with_progress(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    sink: Option<&dyn ProgressSink>,
) -> Result<DeviceReport, FleetError> {
    simulate_device_inner(scenario, zoo, engine, sink, None)
}

/// [`simulate_device`] with a [`WindowCache`]: the device's windows come
/// through the cache, keyed like [`DeviceScenario::window_cache_key`] plus
/// the runtime's demand, so a cache hit replays an earlier device's
/// synthesized session instead of re-running the synthesizers. The report is
/// byte-identical to the uncached path.
///
/// The cache is `&mut` by design — the executor keeps one per worker thread
/// (lock-free) and merges the counters afterwards.
///
/// # Errors
///
/// Same conditions as [`simulate_device`].
pub fn simulate_device_cached(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    cache: &mut WindowCache,
    sink: Option<&dyn ProgressSink>,
) -> Result<DeviceReport, FleetError> {
    simulate_device_inner(scenario, zoo, engine, sink, Some(cache))
}

/// Drives one device's runtime over any window source, wrapping it in a
/// [`ProgressSource`] when a sink observes the run. Shared by the fresh
/// ([`ppg_data::SynthWindows`]) and memoized ([`ppg_data::CachedWindows`])
/// streaming paths so they cannot drift.
fn run_windows<S>(
    runtime: &mut ChrisRuntime,
    stream: S,
    scenario: &DeviceScenario,
    sink: Option<&dyn ProgressSink>,
) -> Result<RunReport, ChrisError>
where
    S: WindowSource + IntoWindowSource,
{
    match sink {
        Some(sink) => runtime.run(
            ProgressSource::new(stream, sink, scenario.device_id),
            &scenario.constraint,
            &scenario.schedule,
        ),
        None => runtime.run(stream, &scenario.constraint, &scenario.schedule),
    }
}

/// The shared device-simulation core behind the public `simulate_device*`
/// entry points.
fn simulate_device_inner(
    scenario: &DeviceScenario,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    sink: Option<&dyn ProgressSink>,
    cache: Option<&mut WindowCache>,
) -> Result<DeviceReport, FleetError> {
    let options = RuntimeOptions {
        accounting: scenario.accounting,
        seed: scenario.dataset_seed,
        ..RuntimeOptions::default()
    };
    let runtime = ChrisRuntime::new(zoo.clone(), engine.clone(), options);
    simulate_with_runtime(scenario, runtime, sink, cache)
}

/// Runs one device's windows through `runtime` and assembles its report.
/// The windows are synthesized for the runtime's [`ChrisRuntime::demand`],
/// so a runtime whose classifier or estimators read signals gets full
/// windows, and one that reads labels only gets label-only windows.
fn simulate_with_runtime(
    scenario: &DeviceScenario,
    mut runtime: ChrisRuntime,
    sink: Option<&dyn ProgressSink>,
    cache: Option<&mut WindowCache>,
) -> Result<DeviceReport, FleetError> {
    let for_device = |e: FleetError| FleetError::for_device(scenario.device_id, e);
    let builder = scenario.dataset_builder().demand(runtime.demand());
    let run = match cache {
        Some(cache) => {
            let stream = builder
                .cached_window_stream(cache)
                .map_err(|e| for_device(e.into()))?;
            run_windows(&mut runtime, stream, scenario, sink)
        }
        None => {
            let stream = builder.window_stream().map_err(|e| for_device(e.into()))?;
            run_windows(&mut runtime, stream, scenario, sink)
        }
    }
    .map_err(|e| for_device(e.into()))?;
    if let Some(sink) = sink {
        sink.device_completed(scenario.device_id, run.windows);
    }

    let battery = Battery::new(
        scenario.battery_capacity_mah,
        HWATCH_BATTERY_VOLTAGE,
        HWATCH_CONVERTER_EFFICIENCY,
    )
    .map_err(|e| for_device(e.into()))?;
    let battery_life_hours =
        (battery.lifetime(run.avg_watch_power()).as_seconds() / 3600.0).min(BATTERY_LIFE_CAP_HOURS);

    let constraint_violated = match scenario.constraint {
        chris_core::UserConstraint::MaxMae(target) => run.mae_bpm > target,
        chris_core::UserConstraint::MaxEnergy(budget) => run.avg_watch_energy > budget,
    };

    Ok(DeviceReport {
        device_id: scenario.device_id,
        windows: run.windows,
        mae_bpm: run.mae_bpm,
        avg_watch_energy: run.avg_watch_energy,
        avg_phone_energy: run.avg_phone_energy,
        offload_fraction: run.offload_fraction,
        simple_fraction: run.simple_fraction,
        disconnected_fraction: run.disconnected_fraction,
        battery_life_hours,
        constraint: scenario.constraint,
        accounting: scenario.accounting,
        constraint_violated,
    })
}

/// Runs every scenario and returns the device reports in device order.
///
/// Thin wrapper over the scenario-free core: the slice is treated as a
/// pre-materialized supply, so eager callers (tests, benches) share the
/// exact worker loop of [`run_fleet_range`].
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] for an empty scenario list; when
/// multiple devices fail, the error of the lowest-indexed device is returned
/// (deterministic for any thread count).
pub fn run_fleet(
    scenarios: &[DeviceScenario],
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    options: &ExecutorOptions,
) -> Result<Vec<DeviceReport>, FleetError> {
    run_fleet_with_progress(scenarios, zoo, engine, options, None)
}

/// [`run_fleet`] with an optional [`ProgressSink`] receiving window- and
/// device-level progress from the worker threads while the fleet runs.
///
/// Attaching a sink never changes the results: reports stay byte-identical
/// for any thread count, with or without progress.
///
/// # Errors
///
/// Same conditions as [`run_fleet`].
pub fn run_fleet_with_progress(
    scenarios: &[DeviceScenario],
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    options: &ExecutorOptions,
    sink: Option<&dyn ProgressSink>,
) -> Result<Vec<DeviceReport>, FleetError> {
    run_supply(
        &ScenarioSupply::Slice(scenarios),
        zoo,
        engine,
        options,
        sink,
    )
}

/// Runs the devices of a contiguous id range, deriving each scenario on
/// demand inside the claiming worker — the scenario-free path.
///
/// No `Vec<DeviceScenario>` is ever built: peak *scenario* memory is one
/// scenario per worker thread regardless of the range size. (The returned
/// `Vec<DeviceReport>` is still O(range) — partition huge fleets into
/// shards sized to what one process can report on.) Reports are returned in
/// device-id order and are byte-identical to running [`run_fleet`] over
/// `generator.scenarios_in(range).collect::<Vec<_>>()`.
///
/// # Errors
///
/// Returns [`FleetError::EmptyFleet`] for an empty range; otherwise the same
/// conditions as [`run_fleet`].
pub fn run_fleet_range(
    generator: &ScenarioGenerator,
    range: Range<u64>,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    options: &ExecutorOptions,
) -> Result<Vec<DeviceReport>, FleetError> {
    run_fleet_range_with_progress(generator, range, zoo, engine, options, None)
}

/// [`run_fleet_range`] with an optional [`ProgressSink`] observing windows
/// processed and devices completed while the range executes.
///
/// # Errors
///
/// Same conditions as [`run_fleet_range`].
pub fn run_fleet_range_with_progress(
    generator: &ScenarioGenerator,
    range: Range<u64>,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    options: &ExecutorOptions,
    sink: Option<&dyn ProgressSink>,
) -> Result<Vec<DeviceReport>, FleetError> {
    run_supply(
        &ScenarioSupply::Generated { generator, range },
        zoo,
        engine,
        options,
        sink,
    )
}

/// Simulates one work item of a supply, tracking generated-scenario
/// lifetimes so tests can assert the scenario-free memory bound.
fn simulate_index(
    supply: &ScenarioSupply<'_>,
    index: u64,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    sink: Option<&dyn ProgressSink>,
    cache: Option<&mut WindowCache>,
) -> Result<DeviceReport, FleetError> {
    let scenario = supply.scenario(index);
    let _live = match &scenario {
        Cow::Owned(_) => Some(metrics::GeneratedScenario::track()),
        Cow::Borrowed(_) => None,
    };
    simulate_device_inner(scenario.as_ref(), zoo, engine, sink, cache)
}

/// Series name of the profiling-window cache event counter (labelled by
/// `result`: `"hit"` or `"miss"`).
pub const PROFILE_CACHE_EVENTS_SERIES: &str = "chris_profile_cache_events_total";

/// Help text of [`PROFILE_CACHE_EVENTS_SERIES`].
pub const PROFILE_CACHE_EVENTS_HELP: &str =
    "Profiling-window cache lookups, by result (hit replays a memoized stream)";

/// Resolves (registering if needed) one cache-event counter on `registry`.
///
/// Cache hit/miss splits depend on work-stealing interleaving, so the series
/// is [`Observational`](Stability::Observational): visible in exposition,
/// never embedded in byte-stable shard artifacts.
fn cache_event_counter(registry: &telemetry::Registry, result: &str) -> telemetry::Counter {
    registry
        .counter(
            PROFILE_CACHE_EVENTS_SERIES,
            &[("result", result)],
            PROFILE_CACHE_EVENTS_HELP,
            Stability::Observational,
        )
        .expect("cache counter registration cannot fail")
}

/// Folds one worker's [`WindowCache`] totals into `registry` — called exactly
/// once per cache, when its owning worker finishes.
fn record_cache_events(registry: &telemetry::Registry, cache: &WindowCache) {
    cache_event_counter(registry, "hit").add(cache.hits());
    cache_event_counter(registry, "miss").add(cache.misses());
}

/// The shared executor core: claims work items from an atomic cursor over
/// the supply, simulates them, and merges the reports in item order.
///
/// Telemetry flows through three registry layers: each worker records into
/// its own private [`telemetry::Registry`] (lock-free, no cross-thread
/// contention), workers fold their snapshot into a shared batch registry at
/// exit (counter/histogram merging is commutative, so the batch totals are
/// identical for any thread count or interleaving), and the batch is finally
/// absorbed into whatever registry was active when the run started. The
/// merged cache hit/miss totals surface to [`ProgressSink::profile_cache`]
/// straight from the batch snapshot.
fn run_supply(
    supply: &ScenarioSupply<'_>,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    options: &ExecutorOptions,
    sink: Option<&dyn ProgressSink>,
) -> Result<Vec<DeviceReport>, FleetError> {
    let count = supply.len();
    if count == 0 {
        return Err(FleetError::EmptyFleet);
    }
    let threads = options.effective_threads(usize::try_from(count).unwrap_or(usize::MAX));
    let chunk = options.chunk_size.max(1) as u64;
    let outer = telemetry::active();
    let batch = telemetry::Registry::new();
    if options.profile_cache.is_some() {
        // Eager registration: a run whose caches never hit still exposes
        // zero-valued hit/miss series.
        cache_event_counter(&batch, "hit");
        cache_event_counter(&batch, "miss");
    }

    let reports = if threads == 1 {
        let _scope = telemetry::scoped(&batch);
        let mut cache = options.profile_cache.map(WindowCache::new);
        let reports = (0..count)
            .map(|index| {
                if cancel_requested(sink) {
                    return Err(FleetError::Cancelled);
                }
                simulate_index(supply, index, zoo, engine, sink, cache.as_mut())
            })
            .collect();
        if let Some(cache) = &cache {
            record_cache_events(&batch, cache);
        }
        reports
    } else {
        run_supply_parallel(
            supply,
            zoo,
            engine,
            sink,
            &batch,
            options.profile_cache,
            count,
            threads,
            chunk,
        )
    };

    if options.profile_cache.is_some() {
        if let Some(sink) = sink {
            let snapshot = batch.snapshot();
            let event = |result| {
                snapshot
                    .counter_value(PROFILE_CACHE_EVENTS_SERIES, &[("result", result)])
                    .unwrap_or(0)
            };
            sink.profile_cache(event("hit"), event("miss"));
        }
    }
    outer
        .absorb(&batch.snapshot())
        .expect("executor series are self-consistent across registries");
    reports
}

/// The multi-worker arm of [`run_supply`]: scoped threads over an atomic
/// chunk cursor, one private [`WindowCache`] and [`telemetry::Registry`] per
/// worker, both folded into the shared `batch` exactly once at worker exit.
///
/// The calling thread runs one of the workers and spawns only
/// `threads - 1`, so a run never has more runnable threads than workers.
/// With a caller that spawns `threads` workers and blocks in the join, the
/// scheduler can start two workers on one CPU and leave them there until it
/// rebalances: on a 2-vCPU VM that cost a few milliseconds in some 50 ms
/// runs and none in others.
#[allow(clippy::too_many_arguments)]
fn run_supply_parallel(
    supply: &ScenarioSupply<'_>,
    zoo: &ModelZoo,
    engine: &DecisionEngine,
    sink: Option<&dyn ProgressSink>,
    batch: &telemetry::Registry,
    profile_cache: Option<usize>,
    count: u64,
    threads: usize,
    chunk: u64,
) -> Result<Vec<DeviceReport>, FleetError> {
    let cursor = AtomicU64::new(0);
    let capacity = usize::try_from(count).unwrap_or(usize::MAX);
    let collected: Mutex<Vec<(u64, Result<DeviceReport, FleetError>)>> =
        Mutex::new(Vec::with_capacity(capacity));

    let worker = || {
        // One cache and one registry per worker: no synchronization on the
        // hot path, and counters merge once at worker exit.
        let registry = telemetry::Registry::new();
        let _scope = telemetry::scoped(&registry);
        let mut cache = profile_cache.map(WindowCache::new);
        let mut local = Vec::new();
        // Compare-exchange claims instead of `fetch_add`: the cursor never
        // moves past `count`, so id ranges near `u64::MAX` cannot overflow
        // it.
        'claims: while let Some(claimed) =
            claim_chunk(&cursor, count, guided_chunk(&cursor, count, threads, chunk))
        {
            for index in claimed {
                if cancel_requested(sink) {
                    break 'claims;
                }
                local.push((
                    index,
                    simulate_index(supply, index, zoo, engine, sink, cache.as_mut()),
                ));
            }
        }
        if let Some(cache) = &cache {
            record_cache_events(&registry, cache);
        }
        batch
            .absorb(&registry.snapshot())
            .expect("worker series are self-consistent across registries");
        collected
            .lock()
            .expect("no worker panics while holding the results lock")
            .extend(local);
    };
    std::thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(worker);
        }
        worker();
    });

    let mut merged = collected
        .into_inner()
        .expect("all workers joined before the lock is consumed");
    merged.sort_by_key(|&(index, _)| index);
    if (merged.len() as u64) < count {
        // Workers stopped claiming before the cursor was exhausted — the
        // sink requested cancellation. A device failure observed before the
        // cancellation point still wins (lowest index, deterministic), so a
        // real error is never masked as a mere cancellation.
        for (_, result) in merged {
            result?;
        }
        return Err(FleetError::Cancelled);
    }
    debug_assert_eq!(merged.len() as u64, count);
    merged.into_iter().map(|(_, result)| result).collect()
}

/// Whether the sink (if any) has asked the run to stop. Polled between
/// devices, so cancellation lands on a device boundary.
fn cancel_requested(sink: Option<&dyn ProgressSink>) -> bool {
    sink.is_some_and(ProgressSink::should_cancel)
}

/// The size of a worker's next claim: `max` while at least `4 * max` items
/// per worker remain, then shrinking to single items, so the workers run
/// out of work within about one item of each other instead of one waiting
/// for the other's last full chunk. The read is advisory: any size of at
/// least one keeps [`claim_chunk`]'s tiling.
fn guided_chunk(cursor: &AtomicU64, count: u64, threads: usize, max: u64) -> u64 {
    // relaxed: only sizes the claim; the CAS in `claim_chunk` partitions.
    let remaining = count.saturating_sub(cursor.load(Ordering::Relaxed));
    (remaining / (threads as u64 * 4)).clamp(1, max)
}

/// Claims the next chunk of work-item indices, or `None` when the supply is
/// exhausted.
///
/// Invariant (exhaustively model-checked in
/// `fleet/tests/interleave_harness.rs::executor_cursor_*`): across any set
/// of concurrently claiming workers, the returned ranges exactly tile
/// `0..count` — disjoint, gap-free, and never past `count` — even with all
/// orderings Relaxed and spurious `compare_exchange_weak` failures. Public
/// so the interleaving harness drives the exact production code path.
pub fn claim_chunk(cursor: &AtomicU64, count: u64, chunk: u64) -> Option<Range<u64>> {
    // relaxed: advisory first read; the CAS below is what claims.
    let mut start = cursor.load(Ordering::Relaxed);
    loop {
        if start >= count {
            return None;
        }
        let end = start.saturating_add(chunk).min(count);
        // relaxed: the CAS only partitions the index space — ranges are
        // disjoint by RMW atomicity alone. Work items are read-only shared
        // state published before the workers were spawned, and results flow
        // back through channel/join edges, so no payload rides this cursor.
        match cursor.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some(start..end),
            Err(observed) => start = observed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{ScenarioGenerator, ScenarioMix};
    use chris_core::{Profiler, ProfilingOptions};
    use ppg_data::DatasetBuilder;

    fn shared_engine(zoo: &ModelZoo) -> DecisionEngine {
        let windows = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(1)
            .build()
            .unwrap()
            .windows();
        let profiler = Profiler::new(zoo);
        DecisionEngine::new(
            profiler
                .profile_all(&windows, ProfilingOptions::default())
                .unwrap(),
        )
    }

    #[test]
    fn signal_reading_runtimes_still_receive_full_windows() {
        use ppg_data::WindowDemand;
        use ppg_models::random_forest::{RandomForest, RandomForestConfig};

        let zoo = ModelZoo::paper_setup();
        let engine = shared_engine(&zoo);
        let training = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(1)
            .build()
            .unwrap()
            .windows();
        let rf = RandomForest::train(&training, RandomForestConfig::default()).unwrap();
        let scenario = ScenarioGenerator::new(9, ScenarioMix::balanced()).scenario(2);
        let options = RuntimeOptions {
            accounting: scenario.accounting,
            seed: scenario.dataset_seed,
            ..RuntimeOptions::default()
        };
        let runtime = || {
            ChrisRuntime::with_classifier(
                zoo.clone(),
                engine.clone(),
                Box::new(rf.clone()),
                options,
            )
        };
        assert_eq!(runtime().demand(), WindowDemand::Signals);
        // The forest rejects label-only windows with a typed error, so a
        // successful run shows the executor synthesized full windows.
        let expected = runtime()
            .run(
                scenario.window_stream().unwrap(),
                &scenario.constraint,
                &scenario.schedule,
            )
            .unwrap();
        let mut cache = WindowCache::new(4);
        // A label-only entry for the same scenario, filled by the default
        // runtime, must not be replayed to the forest.
        simulate_device_cached(&scenario, &zoo, &engine, &mut cache, None).unwrap();
        for cache in [None, Some(&mut cache)] {
            let report = simulate_with_runtime(&scenario, runtime(), None, cache).unwrap();
            assert_eq!(report.windows, expected.windows);
            assert_eq!(report.mae_bpm.to_bits(), expected.mae_bpm.to_bits());
            assert_eq!(report.avg_watch_energy, expected.avg_watch_energy);
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let zoo = ModelZoo::paper_setup();
        let engine = shared_engine(&zoo);
        assert!(matches!(
            run_fleet(&[], &zoo, &engine, &ExecutorOptions::default()),
            Err(FleetError::EmptyFleet)
        ));
    }

    #[test]
    fn parallel_and_sequential_results_are_identical() {
        let zoo = ModelZoo::paper_setup();
        let engine = shared_engine(&zoo);
        let scenarios: Vec<_> = ScenarioGenerator::new(9, ScenarioMix::balanced())
            .scenarios(12)
            .collect();
        let sequential = run_fleet(
            &scenarios,
            &zoo,
            &engine,
            &ExecutorOptions {
                threads: 1,
                chunk_size: 8,
                ..ExecutorOptions::default()
            },
        )
        .unwrap();
        let parallel = run_fleet(
            &scenarios,
            &zoo,
            &engine,
            &ExecutorOptions {
                threads: 4,
                chunk_size: 2,
                ..ExecutorOptions::default()
            },
        )
        .unwrap();
        assert_eq!(sequential, parallel);
        assert_eq!(sequential.len(), 12);
        for (i, report) in sequential.iter().enumerate() {
            assert_eq!(report.device_id, i as u64);
            assert!(report.windows > 0);
        }
    }

    #[test]
    fn range_execution_matches_slice_execution() {
        let zoo = ModelZoo::paper_setup();
        let engine = shared_engine(&zoo);
        let generator = ScenarioGenerator::new(9, ScenarioMix::balanced());
        let scenarios: Vec<_> = generator.scenarios_in(3..11).collect();
        let options = ExecutorOptions {
            threads: 3,
            chunk_size: 2,
            ..ExecutorOptions::default()
        };
        let eager = run_fleet(&scenarios, &zoo, &engine, &options).unwrap();
        let scenario_free = run_fleet_range(&generator, 3..11, &zoo, &engine, &options).unwrap();
        assert_eq!(eager, scenario_free);
        assert_eq!(scenario_free.len(), 8);
        for (offset, report) in scenario_free.iter().enumerate() {
            assert_eq!(report.device_id, 3 + offset as u64);
        }
    }

    #[test]
    fn empty_range_is_rejected() {
        let zoo = ModelZoo::paper_setup();
        let engine = shared_engine(&zoo);
        let generator = ScenarioGenerator::new(9, ScenarioMix::balanced());
        assert!(matches!(
            run_fleet_range(&generator, 5..5, &zoo, &engine, &ExecutorOptions::default()),
            Err(FleetError::EmptyFleet)
        ));
        // An inverted range is empty by Rust convention — EmptyFleet, not a
        // subtraction underflow.
        #[allow(clippy::reversed_empty_ranges)]
        let inverted = 5..3;
        assert!(matches!(
            run_fleet_range(
                &generator,
                inverted,
                &zoo,
                &engine,
                &ExecutorOptions::default()
            ),
            Err(FleetError::EmptyFleet)
        ));
    }

    #[test]
    fn chunk_claims_tile_the_supply_without_overflow() {
        let cursor = AtomicU64::new(0);
        let mut seen = Vec::new();
        while let Some(range) = claim_chunk(&cursor, 10, 4) {
            seen.push(range);
        }
        assert_eq!(seen, vec![0..4, 4..8, 8..10]);
        assert!(claim_chunk(&cursor, 10, 4).is_none());

        // A cursor near u64::MAX saturates instead of wrapping.
        let cursor = AtomicU64::new(u64::MAX - 3);
        assert_eq!(
            claim_chunk(&cursor, u64::MAX, 8),
            Some(u64::MAX - 3..u64::MAX)
        );
        assert!(claim_chunk(&cursor, u64::MAX, 8).is_none());

        // Guided sizes: full chunks while work is plentiful, single devices
        // once fewer than `8 * threads` remain, and the claims still tile.
        let cursor = AtomicU64::new(0);
        let mut sizes = Vec::new();
        while let Some(range) = claim_chunk(&cursor, 100, guided_chunk(&cursor, 100, 2, 8)) {
            sizes.push(range.end - range.start);
        }
        assert_eq!(sizes.iter().sum::<u64>(), 100);
        assert_eq!(sizes.first(), Some(&8));
        assert!(sizes.windows(2).all(|pair| pair[1] <= pair[0]));
        assert_eq!(
            sizes.iter().rev().take_while(|&&size| size == 1).count(),
            15
        );
    }

    #[test]
    fn cancellation_aborts_at_a_device_boundary() {
        use std::sync::atomic::AtomicUsize;

        /// Sink that requests cancellation once `after` devices completed.
        struct CancelAfter {
            after: usize,
            completed: AtomicUsize,
        }

        impl ProgressSink for CancelAfter {
            fn windows_processed(&self, _device_id: u64, _count: usize) {}

            fn device_completed(&self, _device_id: u64, _windows: usize) {
                // relaxed: cross-thread test counter; the assertion below
                // reads it after the executor joined its workers.
                self.completed.fetch_add(1, Ordering::Relaxed);
            }

            fn should_cancel(&self) -> bool {
                // relaxed: a stale count only delays cancellation by one
                // poll — exactly what the test's tolerance range allows.
                self.completed.load(Ordering::Relaxed) >= self.after
            }
        }

        let zoo = ModelZoo::paper_setup();
        let engine = shared_engine(&zoo);
        let scenarios: Vec<_> = ScenarioGenerator::new(9, ScenarioMix::balanced())
            .scenarios(8)
            .collect();
        // Both executor arms must honor the hook: with 4 workers over
        // 2-device chunks, every worker re-polls before its second device,
        // so at most `threads` devices complete after the request.
        for threads in [1usize, 4] {
            let sink = CancelAfter {
                after: 2,
                completed: AtomicUsize::new(0),
            };
            let result = run_fleet_with_progress(
                &scenarios,
                &zoo,
                &engine,
                &ExecutorOptions {
                    threads,
                    chunk_size: 2,
                    ..ExecutorOptions::default()
                },
                Some(&sink),
            );
            assert!(
                matches!(result, Err(FleetError::Cancelled)),
                "threads={threads}: expected Cancelled, got {result:?}"
            );
            // relaxed: read after the executor returned (workers joined).
            let completed = sink.completed.load(Ordering::Relaxed);
            assert!(
                (2..8).contains(&completed),
                "threads={threads}: cancellation should stop the run partway, \
                 completed={completed}"
            );
        }

        // A sink that cancels immediately aborts before any device runs.
        let sink = CancelAfter {
            after: 0,
            completed: AtomicUsize::new(0),
        };
        let result = run_fleet_with_progress(
            &scenarios,
            &zoo,
            &engine,
            &ExecutorOptions::default(),
            Some(&sink),
        );
        assert!(matches!(result, Err(FleetError::Cancelled)));
        // relaxed: read after the executor returned (workers joined).
        assert_eq!(sink.completed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn battery_failure_reports_the_device_id() {
        let zoo = ModelZoo::paper_setup();
        let engine = shared_engine(&zoo);
        let mut scenario = ScenarioGenerator::new(2, ScenarioMix::balanced()).scenario(41);
        scenario.battery_capacity_mah = 0.0;
        let err = simulate_device(&scenario, &zoo, &engine).unwrap_err();
        assert!(
            matches!(err, FleetError::Device { device_id: 41, .. }),
            "expected a device-tagged error, got {err:?}"
        );
        assert!(err.to_string().contains("device 41"));
    }

    #[test]
    fn offline_devices_never_offload() {
        let zoo = ModelZoo::paper_setup();
        let engine = shared_engine(&zoo);
        let generator = ScenarioGenerator::new(21, ScenarioMix::harsh());
        let scenarios: Vec<_> = (0..200)
            .map(|id| generator.scenario(id))
            .filter(|s| s.schedule == hw_sim::ble::ConnectionSchedule::NeverConnected)
            .take(3)
            .collect();
        assert!(
            !scenarios.is_empty(),
            "harsh mix should produce offline devices"
        );
        for report in run_fleet(&scenarios, &zoo, &engine, &ExecutorOptions::default()).unwrap() {
            assert_eq!(report.offload_fraction, 0.0);
            assert_eq!(report.disconnected_fraction, 1.0);
        }
    }
}
