//! In-process fleet runs: the executor path every workload's report is
//! checked against, a progress sink that times devices, and the direct
//! synthesis probe.

use std::cell::Cell;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use fleet::{ExecutorOptions, FleetReport, FleetSimulation, ProgressSink, ShardSpec};
use fleetd::spool::render_report_body;
use ppg_data::accel_synth::accel_segment;
use ppg_data::hr_profile::hr_trajectory;
use ppg_data::ppg_synth::ppg_segment;
use ppg_data::{SubjectId, SubjectProfile, WindowSource, SAMPLE_RATE_HZ, WINDOW_SAMPLES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::MetricsSnapshot;

use crate::trace::nanos;

thread_local! {
    static DEVICE_START: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// A progress sink that records each device's span: from the executor's
/// cancellation poll before the device to its completion callback.
#[derive(Default)]
pub struct DeviceSpans {
    spans: Mutex<Vec<u64>>,
}

impl DeviceSpans {
    /// The recorded spans, in ns, in completion order.
    pub fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.spans.lock().expect("span lock"))
    }
}

impl ProgressSink for DeviceSpans {
    fn windows_processed(&self, _device_id: u64, _count: usize) {}

    fn device_completed(&self, _device_id: u64, _windows: usize) {
        if let Some(start) = DEVICE_START.take() {
            let span = nanos(start.elapsed());
            self.spans.lock().expect("span lock").push(span);
        }
    }

    fn should_cancel(&self) -> bool {
        DEVICE_START.set(Some(Instant::now()));
        false
    }
}

/// One in-process fleet run, rendered as `fleet --json` prints it.
pub struct FleetRun {
    pub body: Vec<u8>,
    pub wall_ns: u64,
    pub windows: u64,
    pub report: FleetReport,
    pub telemetry: MetricsSnapshot,
}

/// Runs devices `0..devices` as one shard and merges it, the path of
/// `fleet --json`.
pub fn run_fleet(
    sim: &FleetSimulation,
    devices: u64,
    options: &ExecutorOptions,
    sink: Option<&DeviceSpans>,
) -> Result<FleetRun, String> {
    let start = Instant::now();
    let shard = sim
        .run_shard_with_options(
            &ShardSpec::single(devices),
            0,
            options,
            sink.map(|s| s as &dyn ProgressSink),
        )
        .map_err(|e| e.to_string())?;
    let outcome = fleet::merge(vec![shard]).map_err(|e| e.to_string())?;
    let body = render_report_body(&outcome.report, outcome.sketch);
    Ok(FleetRun {
        body,
        wall_ns: nanos(start.elapsed()),
        windows: outcome.report.total_windows as u64,
        report: outcome.report,
        telemetry: outcome.telemetry,
    })
}

/// Direct-call synthesis cost.
pub struct SynthProbe {
    /// ns per sample of `hr_trajectory`, `accel_segment`, `ppg_segment`.
    pub ns_per_sample: [f64; 3],
    /// Devices whose first streamed window differed from the direct calls.
    pub mismatches: Vec<u64>,
}

/// Calls `hr_trajectory`, `accel_segment` and `ppg_segment` directly with
/// the same RNG stream, subject and schedule a device's window stream uses,
/// and checks the result against the stream's first window.
pub fn synth_probe(sim: &FleetSimulation, ids: Range<u64>) -> Result<SynthProbe, String> {
    let mut mismatches = Vec::new();
    let (mut hr_ns, mut accel_ns, mut ppg_ns, mut total) = (0u64, 0u64, 0u64, 0u64);
    for id in ids {
        let scenario = sim.generator().scenario(id);
        let mut master = StdRng::seed_from_u64(scenario.dataset_seed);
        let subject_seed: u64 = master.random();
        let mut rng = StdRng::seed_from_u64(subject_seed);
        let subject = SubjectProfile::generate(SubjectId(0), &mut rng);
        let samples = (scenario.seconds_per_activity * SAMPLE_RATE_HZ) as usize;
        let mut last_hr = subject.resting_hr_bpm;
        let mut first_ppg = None;
        for &activity in &scenario.activities {
            let t = Instant::now();
            let hr = hr_trajectory(
                &mut rng,
                &subject,
                activity,
                samples,
                SAMPLE_RATE_HZ,
                last_hr,
            );
            hr_ns += nanos(t.elapsed());
            last_hr = *hr.last().ok_or("empty heart-rate trajectory")?;
            let t = Instant::now();
            let accel = accel_segment(&mut rng, &subject, activity, samples, SAMPLE_RATE_HZ);
            accel_ns += nanos(t.elapsed());
            let t = Instant::now();
            let ppg = ppg_segment(
                &mut rng,
                &subject,
                &hr,
                &accel.motion_envelope,
                SAMPLE_RATE_HZ,
            );
            ppg_ns += nanos(t.elapsed());
            total += samples as u64;
            first_ppg.get_or_insert_with(|| ppg[..WINDOW_SAMPLES].to_vec());
        }
        let mut stream = scenario.window_stream().map_err(|e| e.to_string())?;
        let first = stream
            .next_window()
            .transpose()
            .map_err(|e| e.to_string())?;
        if first.map(|w| w.ppg) != first_ppg {
            mismatches.push(id);
        }
    }
    let per_sample = |ns: u64| ns as f64 / total.max(1) as f64;
    Ok(SynthProbe {
        ns_per_sample: [per_sample(hr_ns), per_sample(accel_ns), per_sample(ppg_ns)],
        mismatches,
    })
}
