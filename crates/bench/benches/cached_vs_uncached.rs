//! Cached vs uncached profiling-window streams on a repeated-subject fleet.
//!
//! Fleets in the wild are not all-distinct: cohorts of devices share a
//! subject/activity profile (same calibration data, same schedule), which
//! means their `DeviceScenario::window_cache_key`s collide and the per-worker
//! `WindowCache` can replay one synthesized session instead of re-running the
//! PPG/accelerometer synthesizers per device. This bench runs such a fleet —
//! a `balanced` population with a small `subject_pool`, the generator's own
//! cohort mechanism (a compressed `ScenarioMix::cohort`) — through the
//! executor with the cache off and on. The reports are asserted identical
//! before timing starts; the cached run should win wall-clock roughly in
//! proportion to the devices-per-profile ratio.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use fleet::{run_fleet_range, DeviceReport, ExecutorOptions, FleetSimulation, ScenarioMix};

/// Distinct subject/activity profiles in the benched fleet.
const DISTINCT_PROFILES: u64 = 4;
/// Benched devices; `DEVICES / DISTINCT_PROFILES` devices share each
/// profile, so the cache's steady-state hit ratio is
/// `1 - DISTINCT_PROFILES / DEVICES`.
const DEVICES: u64 = 24;

fn bench_mix() -> ScenarioMix {
    ScenarioMix {
        subject_pool: DISTINCT_PROFILES,
        ..ScenarioMix::balanced()
    }
}

fn options(profile_cache: Option<usize>) -> ExecutorOptions {
    ExecutorOptions {
        // Single-threaded keeps the comparison about synthesis work, not
        // scheduling noise; the cache also helps at any thread count.
        threads: 1,
        profile_cache,
        ..ExecutorOptions::default()
    }
}

fn run(simulation: &FleetSimulation, profile_cache: Option<usize>) -> Vec<DeviceReport> {
    run_fleet_range(
        simulation.generator(),
        black_box(0..DEVICES),
        simulation.zoo(),
        simulation.engine(),
        &options(profile_cache),
        None,
    )
    .unwrap()
}

fn bench_cached_vs_uncached(c: &mut Criterion) {
    let simulation = FleetSimulation::new(42, bench_mix()).expect("profiling succeeds");
    let total_windows: u64 = simulation
        .generator()
        .scenarios(DEVICES)
        .map(|s| s.window_count().expect("valid scenario") as u64)
        .sum();

    // The cache must be invisible in the output: byte-identical reports.
    assert_eq!(
        run(&simulation, None),
        run(&simulation, Some(64)),
        "the cache changed a device report"
    );

    let mut group = c.benchmark_group("cached_vs_uncached");
    group.sample_size(10);
    group.throughput(Throughput::Elements(total_windows));
    group.bench_function("uncached_repeated_subjects", |b| {
        b.iter(|| black_box(run(&simulation, None)))
    });
    group.bench_function("cached_repeated_subjects", |b| {
        b.iter(|| black_box(run(&simulation, Some(64))))
    });
    group.finish();
}

criterion_group!(benches, bench_cached_vs_uncached);
criterion_main!(benches);
