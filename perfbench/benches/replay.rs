//! Traced replays: the fleet's devices driven through the public
//! per-device entry points, and one job driven through the functions the
//! daemon's scheduler calls, with a span around every call.
//!
//! Each replay renders the same report bytes as the untraced path; the
//! caller checks that they match.

use std::ops::Range;
use std::time::Instant;

use chris_core::runtime::{ChrisRuntime, RuntimeOptions};
use chris_core::UserConstraint;
use fleet::executor::{claim_chunk, BATTERY_LIFE_CAP_HOURS};
use fleet::sync::atomic::AtomicU64;
use fleet::{
    DeviceReport, DeviceScenario, ExecutorOptions, FleetAccumulator, FleetSimulation,
    MergeAccumulator, ReportMode, ShardReport,
};
use fleetd::spool::render_report_body;
use fleetd::{JobSpec, Spool};
use hw_sim::battery::{Battery, HWATCH_BATTERY_VOLTAGE, HWATCH_CONVERTER_EFFICIENCY};
use ppg_data::{IntoWindowSource, MaybeCachedWindows, WindowCache};
use telemetry::MetricsSnapshot;

use crate::trace::{nanos, PullClock, SpanLog, Timed};

/// What one traced device replay measured.
pub struct DeviceReplay {
    pub body: Vec<u8>,
    pub log: SpanLog,
    pub devices: u64,
    pub windows: u64,
    pub wall_ns: u64,
    /// Synthesis: time inside fresh synthesis streams and windows made.
    pub synth_ns: u64,
    pub synth_windows: u64,
    /// Cache replay: time inside memoized streams and windows replayed.
    pub replay_ns: u64,
    pub replay_windows: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// The runtime's own stage histograms, merged over workers.
    pub telemetry: MetricsSnapshot,
    pub report_push_ns: u64,
    pub report_finalize_ns: u64,
}

struct WorkerOut {
    log: SpanLog,
    reports: Vec<DeviceReport>,
    synth: PullClock,
    replay: PullClock,
    hits: u64,
    misses: u64,
    telemetry: MetricsSnapshot,
}

/// Replays the devices of each range of `sim` in turn, each range on
/// `options.threads` workers with fresh caches, as the executor runs one
/// shard: workers claim `options.chunk_size` devices at a time through the
/// executor's own `claim_chunk`.
pub fn replay_devices(
    sim: &FleetSimulation,
    ranges: &[Range<u64>],
    options: &ExecutorOptions,
    epoch: Instant,
) -> Result<DeviceReplay, String> {
    let threads = options.threads.max(1);
    let chunk = options.chunk_size.max(1) as u64;
    let start = Instant::now();
    let mut outs: Vec<Result<WorkerOut, String>> = Vec::new();
    for ids in ranges {
        let cursor = AtomicU64::new(0);
        let claims = || {
            claim_chunk(&cursor, ids.end - ids.start, chunk)
                .map(|c| c.start + ids.start..c.end + ids.start)
        };
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| scope.spawn(|| replay_worker(sim, claims, options.profile_cache, epoch)))
                .collect();
            outs.extend(handles.into_iter().map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("replay worker panicked".into()))
            }));
        });
    }

    let mut log = SpanLog::new(epoch);
    let mut reports = Vec::new();
    let mut telemetry = MetricsSnapshot::default();
    let (mut synth_ns, mut synth_windows, mut replay_ns, mut replay_windows) = (0, 0, 0, 0);
    let (mut cache_hits, mut cache_misses) = (0, 0);
    for out in outs {
        let out = out?;
        log.append(out.log);
        reports.extend(out.reports);
        telemetry = telemetry
            .merged(&out.telemetry)
            .map_err(|e| format!("merging worker telemetry: {e}"))?;
        synth_ns += out.synth.ns.get();
        synth_windows += out.synth.windows.get();
        replay_ns += out.replay.ns.get();
        replay_windows += out.replay.windows.get();
        cache_hits += out.hits;
        cache_misses += out.misses;
    }
    reports.sort_by_key(|r| r.device_id);

    let (report_push_ns, report_finalize_ns, body) = fold_reports(&reports, options.report_mode);
    Ok(DeviceReplay {
        body,
        log,
        devices: reports.len() as u64,
        windows: reports.iter().map(|r| r.windows as u64).sum(),
        wall_ns: nanos(start.elapsed()),
        synth_ns,
        synth_windows,
        replay_ns,
        replay_windows,
        cache_hits,
        cache_misses,
        telemetry,
        report_push_ns,
        report_finalize_ns,
    })
}

/// Folds device reports with `FleetAccumulator` and renders the report the
/// way `fleet --json` prints it. Returns (push ns, finalize ns, body).
pub fn fold_reports(reports: &[DeviceReport], mode: ReportMode) -> (u64, u64, Vec<u8>) {
    let start = Instant::now();
    let mut accumulator = FleetAccumulator::with_mode(mode);
    for report in reports {
        accumulator.push(report);
    }
    let push_ns = nanos(start.elapsed());
    let sketch = accumulator.sketch_info();
    let start = Instant::now();
    let report = accumulator.finalize();
    let finalize_ns = nanos(start.elapsed());
    (push_ns, finalize_ns, render_report_body(&report, sketch))
}

fn replay_worker(
    sim: &FleetSimulation,
    claims: impl Fn() -> Option<Range<u64>>,
    cache_capacity: Option<usize>,
    epoch: Instant,
) -> Result<WorkerOut, String> {
    // The runtime records its stage timings into the thread's active
    // registry; a private one keeps this replay's numbers apart.
    let registry = telemetry::Registry::new();
    let _scope = telemetry::scoped(&registry);
    let mut cache = cache_capacity.map(WindowCache::new);
    let synth = PullClock::default();
    let replay = PullClock::default();
    let mut log = SpanLog::new(epoch);
    let mut reports = Vec::new();
    for id in std::iter::from_fn(claims).flatten() {
        let device = log.open("device", None, id);
        let start = Instant::now();
        let scenario = sim.generator().scenario(id);
        log.record("scenario.derive", Some(device), start, id);
        let data = |e: ppg_data::DataError| format!("device {id}: {e}");
        let report = match cache.as_mut() {
            Some(cache) => {
                let lookup = log.open("cache.lookup", Some(device), id);
                let filled_before = synth.ns.get();
                let key = scenario.window_cache_key().map_err(data)?;
                let stream = cache
                    .stream_with(key, || {
                        scenario.window_stream().map(|s| Timed::new(s, &synth))
                    })
                    .map_err(data)?;
                log.close(lookup);
                let filled = synth.ns.get() - filled_before;
                if filled > 0 {
                    log.record_aggregate("synth.fill", lookup, filled, id);
                }
                match stream {
                    MaybeCachedWindows::Cached(windows) => {
                        let source = Timed::new(windows, &replay);
                        simulate(
                            sim,
                            &scenario,
                            &mut log,
                            device,
                            source,
                            &replay,
                            "cache.replay",
                        )?
                    }
                    MaybeCachedWindows::Fresh(source) => simulate(
                        sim,
                        &scenario,
                        &mut log,
                        device,
                        source,
                        &synth,
                        "synth.pull",
                    )?,
                }
            }
            None => {
                let start = Instant::now();
                let stream = scenario.window_stream().map_err(data)?;
                log.record("synth.open", Some(device), start, id);
                let source = Timed::new(stream, &synth);
                simulate(
                    sim,
                    &scenario,
                    &mut log,
                    device,
                    source,
                    &synth,
                    "synth.pull",
                )?
            }
        };
        log.close(device);
        reports.push(report);
    }
    let (hits, misses) = cache.as_ref().map_or((0, 0), |c| (c.hits(), c.misses()));
    Ok(WorkerOut {
        log,
        reports,
        synth,
        replay,
        hits,
        misses,
        telemetry: registry.snapshot(),
    })
}

/// Runs one device's windows through a fresh runtime and assembles its
/// report exactly as the fleet executor does.
#[allow(clippy::too_many_arguments)]
fn simulate(
    sim: &FleetSimulation,
    scenario: &DeviceScenario,
    log: &mut SpanLog,
    device: usize,
    source: impl IntoWindowSource,
    clock: &PullClock,
    pull_span: &'static str,
) -> Result<DeviceReport, String> {
    let id = scenario.device_id;
    let err = |e: &dyn std::fmt::Display| format!("device {id}: {e}");
    let start = Instant::now();
    let options = RuntimeOptions {
        accounting: scenario.accounting,
        seed: scenario.dataset_seed,
        ..RuntimeOptions::default()
    };
    let mut runtime = ChrisRuntime::new(sim.zoo().clone(), sim.engine().clone(), options);
    log.record("runtime.new", Some(device), start, id);

    let run_span = log.open("runtime.run", Some(device), id);
    let pulled_before = clock.ns.get();
    let run = runtime
        .run(source, &scenario.constraint, &scenario.schedule)
        .map_err(|e| err(&e))?;
    log.close(run_span);
    log.record_aggregate(pull_span, run_span, clock.ns.get() - pulled_before, id);

    let start = Instant::now();
    let battery = Battery::new(
        scenario.battery_capacity_mah,
        HWATCH_BATTERY_VOLTAGE,
        HWATCH_CONVERTER_EFFICIENCY,
    )
    .map_err(|e| err(&e))?;
    let battery_life_hours =
        (battery.lifetime(run.avg_watch_power()).as_seconds() / 3600.0).min(BATTERY_LIFE_CAP_HOURS);
    let constraint_violated = match scenario.constraint {
        UserConstraint::MaxMae(target) => run.mae_bpm > target,
        UserConstraint::MaxEnergy(budget) => run.avg_watch_energy > budget,
    };
    let report = DeviceReport {
        device_id: id,
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
    };
    log.record("report.assemble", Some(device), start, id);
    Ok(report)
}

/// What one traced job replay measured, in nanoseconds unless named.
pub struct JobReplay {
    pub body: Vec<u8>,
    pub devices: u64,
    pub shard_bytes: u64,
    pub spool_bytes: u64,
    pub report_push_ns: u64,
    pub report_finalize_ns: u64,
}

/// Replays one job the way the scheduler runs it: profile once, run and
/// spool every shard, then read the shards back, merge and render. The
/// shard codec is also timed on its own (`shard.encode`/`shard.decode`),
/// since the spool calls include it.
pub fn replay_job(
    spec: &JobSpec,
    spool: &Spool,
    job_id: u64,
    log: &mut SpanLog,
) -> Result<JobReplay, String> {
    let job = log.open("job", None, job_id);
    let t = Instant::now();
    let sim = FleetSimulation::new(spec.seed, spec.resolved_mix()).map_err(|e| e.to_string())?;
    log.record("job.profile", Some(job), t, job_id);
    let t = Instant::now();
    spool
        .persist_spec(job_id, spec)
        .map_err(|e| format!("persisting spec: {e}"))?;
    log.record("spool.persist", Some(job), t, job_id);

    let shard_spec = spec.shard_spec().map_err(|e| e.to_string())?;
    let options = spec.executor_options();
    let mut shard_bytes = 0u64;
    let mut spool_bytes = 0u64;
    for index in 0..spec.shards {
        let t = Instant::now();
        let shard = sim
            .run_shard_with_options(&shard_spec, index, &options, None)
            .map_err(|e| e.to_string())?;
        log.record("shard.run", Some(job), t, job_id);

        let t = Instant::now();
        let json = serde_json::to_string_pretty(&shard).map_err(|e| e.to_string())?;
        log.record("shard.encode", Some(job), t, job_id);
        shard_bytes += json.len() as u64;
        let t = Instant::now();
        let decoded: ShardReport = serde_json::from_str(&json).map_err(|e| e.to_string())?;
        log.record("shard.decode", Some(job), t, job_id);
        if decoded != shard {
            return Err(format!(
                "shard {index} does not survive its JSON round trip"
            ));
        }

        let t = Instant::now();
        spool.write_shard(job_id, &shard)?;
        log.record("spool.write_shard", Some(job), t, job_id);
    }

    let mut merge = MergeAccumulator::new();
    let mut devices = Vec::new();
    for index in 0..spec.shards {
        let t = Instant::now();
        let shard = spool.read_shard(job_id, spec, index)?;
        log.record("spool.read_shard", Some(job), t, job_id);
        let t = Instant::now();
        merge.push(&shard).map_err(|e| e.to_string())?;
        log.record("merge.push", Some(job), t, job_id);
        devices.extend(shard.devices);
    }
    let sketch = merge.sketch_info();
    let t = Instant::now();
    let report = merge.finalize().map_err(|e| e.to_string())?;
    log.record("merge.finalize", Some(job), t, job_id);
    let t = Instant::now();
    let body = render_report_body(&report, sketch);
    log.record("report.render", Some(job), t, job_id);
    log.close(job);

    for entry in std::fs::read_dir(spool.job_dir(job_id)).map_err(|e| e.to_string())? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        spool_bytes += meta.len();
    }
    // The report layer on its own: the same devices folded directly, as the
    // merge does inside `MergeAccumulator::push`.
    let (report_push_ns, report_finalize_ns, folded) = fold_reports(&devices, spec.report_mode);
    if folded != body {
        return Err("direct fold and shard merge disagree".into());
    }
    std::fs::remove_dir_all(spool.job_dir(job_id)).map_err(|e| e.to_string())?;
    Ok(JobReplay {
        body,
        devices: spec.devices,
        shard_bytes,
        spool_bytes,
        report_push_ns,
        report_finalize_ns,
    })
}
