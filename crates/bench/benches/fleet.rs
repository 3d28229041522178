//! Criterion benchmarks of the fleet engine: end-to-end fleet throughput
//! (windows/sec, devices/sec) at 1 thread and at all cores, plus the cost of
//! scenario generation alone.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use fleet::{run_fleet_range, ExecutorOptions, FleetSimulation, ScenarioMix};

const DEVICES: u64 = 64;

fn bench_fleet(c: &mut Criterion) {
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced())
        .expect("profiling the shared table succeeds");
    // Exact window count from the schedule geometry alone — no signal is
    // synthesized just to size the throughput denominator.
    let total_windows: usize = simulation
        .generator()
        .scenarios(DEVICES)
        .map(|s| s.window_count().expect("scenario windows build"))
        .sum();
    let run = |threads| {
        run_fleet_range(
            simulation.generator(),
            black_box(0..DEVICES),
            simulation.zoo(),
            simulation.engine(),
            &ExecutorOptions {
                threads,
                chunk_size: 8,
                ..ExecutorOptions::default()
            },
            None,
        )
        .unwrap()
    };

    let mut group = c.benchmark_group("fleet");
    group.sample_size(10);

    group.throughput(Throughput::Elements(DEVICES));
    group.bench_function("scenario_generation_64_devices", |b| {
        b.iter(|| {
            simulation
                .generator()
                .scenarios(black_box(DEVICES))
                .collect::<Vec<_>>()
        })
    });

    // Window throughput of the full simulation (synthesis + runtime), the
    // fleet analogue of the paper's per-window runtime cost.
    group.throughput(Throughput::Elements(total_windows as u64));
    group.bench_function("simulate_64_devices_1_thread", |b| b.iter(|| run(1)));
    group.bench_function("simulate_64_devices_all_cores", |b| b.iter(|| run(0)));
    group.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
