//! The scenario-free execution path never materializes a
//! `Vec<DeviceScenario>`: workers derive scenarios on demand from
//! `(generator, device id)`, so at most one generated scenario is alive per
//! worker thread — asserted here through the executor's live-scenario gauge
//! (`fleet::executor::metrics`).
//!
//! This lives in its own integration binary on purpose: the gauge is
//! process-global, and other test binaries legitimately run fleets
//! concurrently, which would race the peak measurement.

use std::ops::Range;
use std::sync::Mutex;

use fleet::executor::metrics;
use fleet::{DeviceReport, ExecutorOptions, FleetSimulation, ScenarioMix, ShardSpec};

const THREADS: usize = 4;

/// Serializes the tests of this binary: both drive the scenario-free path,
/// and the gauge they observe is process-global.
static GAUGE_LOCK: Mutex<()> = Mutex::new(());

/// The reports of `range`, each device simulated on its own through
/// [`fleet::simulate_device`].
fn per_device_reports(simulation: &FleetSimulation, range: Range<u64>) -> Vec<DeviceReport> {
    simulation
        .generator()
        .scenarios_in(range)
        .map(|scenario| {
            fleet::simulate_device(&scenario, simulation.zoo(), simulation.engine()).unwrap()
        })
        .collect()
}

#[test]
fn generated_scenarios_stay_bounded_by_the_worker_count() {
    let _guard = GAUGE_LOCK.lock().unwrap();
    let simulation = FleetSimulation::new(42, ScenarioMix::balanced()).unwrap();

    // Per-device baseline for the equivalence half of the assertion.
    let per_device = per_device_reports(&simulation, 0..24);
    let options = ExecutorOptions {
        threads: THREADS,
        chunk_size: 2,
        ..ExecutorOptions::default()
    };

    // The scenario-free path: same reports, O(threads) scenario memory.
    metrics::reset_peak();
    assert_eq!(metrics::live_generated_scenarios(), 0);
    let scenario_free = fleet::run_fleet_range(
        simulation.generator(),
        0..24,
        simulation.zoo(),
        simulation.engine(),
        &options,
        None,
    )
    .unwrap();
    assert_eq!(scenario_free, per_device);
    assert_eq!(
        metrics::live_generated_scenarios(),
        0,
        "every generated scenario must be dropped when its device completes"
    );
    let peak = metrics::peak_live_scenarios();
    assert!(
        (1..=THREADS).contains(&peak),
        "peak live scenarios was {peak}; the scenario-free path must keep at \
         most one generated scenario alive per worker (threads = {THREADS})"
    );
}

#[test]
fn sharded_run_uses_the_scenario_free_path() {
    let _guard = GAUGE_LOCK.lock().unwrap();
    let simulation = FleetSimulation::new(7, ScenarioMix::connected()).unwrap();
    let spec = ShardSpec::new(12, 3).unwrap();

    // `run_shard` is the scenario-free path end to end: its reports match
    // the devices simulated one by one over the same range.
    let shard = simulation.run_shard(&spec, 1, 2).unwrap();
    let range = spec.range(1).unwrap();
    assert_eq!(
        shard.devices,
        per_device_reports(&simulation, range.clone())
    );
    assert_eq!(shard.meta.start, range.start);
    assert_eq!(shard.meta.end, range.end);
}
