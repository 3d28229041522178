//! The CHRIS runtime: window-by-window collaborative inference.
//!
//! The runtime ties everything together. For every incoming window it:
//!
//! 1. reads the BLE connection status from the [`ConnectionSchedule`],
//! 2. asks the [`DecisionEngine`] for the active configuration (re-selection
//!    is a table lookup, so doing it every window is how CHRIS reacts to
//!    link drops),
//! 3. runs the activity classifier (on the IMU's ML core in the real system,
//!    so at zero MCU energy cost by default) to estimate the window
//!    difficulty,
//! 4. routes the window to the simple or the complex model of the pair and
//!    executes it locally or offloads it over BLE,
//! 5. charges the smartwatch (and, for offloaded windows, the phone) with the
//!    corresponding energy and records the error.

use std::collections::BTreeMap;

use hw_sim::ble::ConnectionSchedule;
use hw_sim::power_state::{PowerState, PowerStateTrace};
use hw_sim::units::{Energy, TimeSpan};
use ppg_data::{Activity, IntoWindowSource, WindowDemand, WindowSource};
use ppg_dsp::stats::ErrorAccumulator;
use ppg_models::traits::{ActivityClassifier, HrEstimator, OracleActivityClassifier};
use ppg_models::zoo::{ModelKind, ModelZoo};
use serde::{Deserialize, Serialize};

use crate::config::{Configuration, EnergyAccounting};
use crate::decision::{ConnectionStatus, DecisionEngine, UserConstraint};
use crate::error::ChrisError;
use crate::profiling::Profiler;
use crate::report::RunReport;

/// Options controlling a runtime simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeOptions {
    /// How offloaded windows are charged to the smartwatch.
    pub accounting: EnergyAccounting,
    /// Seed of the calibrated estimators' error sequences.
    pub seed: u64,
    /// Energy charged to the MCU for running the activity classifier. Zero by
    /// default because the LSM6DSM ML core executes it in the real system.
    pub classifier_energy: Energy,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            accounting: EnergyAccounting::default(),
            seed: 0xC4215,
            classifier_energy: Energy::ZERO,
        }
    }
}

/// The CHRIS runtime simulator.
///
/// A runtime is cheap to construct from clones of a shared [`ModelZoo`] and
/// [`DecisionEngine`] and is `Send`, so fleet-scale simulators can build one
/// per device inside worker threads (see the `fleet` crate).
pub struct ChrisRuntime {
    zoo: ModelZoo,
    engine: DecisionEngine,
    classifier: Box<dyn ActivityClassifier>,
    estimators: BTreeMap<ModelKind, Box<dyn HrEstimator>>,
    options: RuntimeOptions,
}

// Parallel executors move runtimes across threads; a non-`Send` classifier
// or estimator sneaking into the trait objects must fail to compile here,
// not in downstream crates.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ChrisRuntime>()
};

impl std::fmt::Debug for ChrisRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChrisRuntime")
            .field("configurations", &self.engine.len())
            .field("classifier", &self.classifier.name())
            .field("options", &self.options)
            .finish()
    }
}

impl ChrisRuntime {
    /// Creates a runtime with the oracle activity classifier (no
    /// misprediction effects).
    pub fn new(zoo: ModelZoo, engine: DecisionEngine, options: RuntimeOptions) -> Self {
        Self::with_classifier(
            zoo,
            engine,
            Box::new(OracleActivityClassifier::new()),
            options,
        )
    }

    /// Creates a runtime with an explicit activity classifier (for example a
    /// trained [`ppg_models::random_forest::RandomForest`]).
    pub fn with_classifier(
        zoo: ModelZoo,
        engine: DecisionEngine,
        classifier: Box<dyn ActivityClassifier>,
        options: RuntimeOptions,
    ) -> Self {
        let estimators: BTreeMap<ModelKind, Box<dyn HrEstimator>> = ModelKind::ALL
            .iter()
            .map(|&kind| {
                (
                    kind,
                    zoo.calibrated_estimator(kind, options.seed ^ kind as u64),
                )
            })
            .collect();
        Self {
            zoo,
            engine,
            classifier,
            estimators,
            options,
        }
    }

    /// The decision engine backing this runtime.
    pub fn engine(&self) -> &DecisionEngine {
        &self.engine
    }

    /// The runtime options.
    pub fn options(&self) -> RuntimeOptions {
        self.options
    }

    /// What [`ChrisRuntime::run`] reads of each window: the union of its
    /// classifier's and estimators' declared demands. Open the window stream
    /// with it (`DatasetBuilder::demand`) to skip synthesizing signals no
    /// consumer reads.
    pub fn demand(&self) -> WindowDemand {
        self.estimators
            .values()
            .fold(self.classifier.demand(), |demand, estimator| {
                demand.union(estimator.demand())
            })
    }

    /// Runs CHRIS over a sequence of windows under a user constraint and a
    /// BLE connection schedule, returning the aggregated report.
    ///
    /// `windows` is anything convertible into a
    /// [`WindowSource`](ppg_data::WindowSource): an eager buffer
    /// (`&[LabeledWindow]`, `&Vec<LabeledWindow>`) or a lazy stream such as
    /// [`ppg_data::DatasetBuilder::window_stream`]. The runtime pulls one
    /// window at a time and never buffers the workload — with a synthesis
    /// stream, peak memory is O(1 window) instead of O(session) — and the
    /// report is byte-identical either way.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidConstraint`] for a NaN or negative
    /// constraint bound (rejected before any window is pulled),
    /// [`ChrisError::EmptyWorkload`] when `windows` yields nothing,
    /// [`ChrisError::EmptyProfileTable`] when the decision engine has no
    /// configurations, [`ChrisError::Data`] when a streaming source fails
    /// mid-synthesis, and propagates model errors.
    pub fn run<S: IntoWindowSource>(
        &mut self,
        windows: S,
        constraint: &UserConstraint,
        schedule: &ConnectionSchedule,
    ) -> Result<RunReport, ChrisError> {
        constraint.validate()?;
        let mut source = windows.into_window_source();
        let profiler = Profiler::new(&self.zoo);
        let period = TimeSpan::from_seconds(hw_sim::PREDICTION_PERIOD_S);
        // One registry resolution per run; the loop below only touches
        // pre-resolved lock-free handles.
        let instruments = crate::metrics::RunInstruments::resolve();

        let mut errors = ErrorAccumulator::new();
        let mut per_activity: [Option<ErrorAccumulator>; Activity::COUNT] = Default::default();
        let mut trace = PowerStateTrace::new();
        let mut phone_energy = Energy::ZERO;
        let mut offloaded = 0usize;
        let mut simple = 0usize;
        let mut disconnected = 0usize;
        let mut report = RunReport::default();
        // The selection depends only on the constraint and the link status,
        // so it is made once per status, with the windows run under it
        // counted into the usage table at the end.
        let mut selections: [Option<(Configuration, usize)>; 2] = [None, None];

        let mut index = 0usize;
        // By-reference internal iteration: buffer-backed sources visit their
        // windows without cloning, lazy sources materialize one at a time.
        let n = source.try_for_each_window(|window| -> Result<(), ChrisError> {
            let connected = schedule.is_connected(index);
            if !connected {
                disconnected += 1;
            }
            let (configuration, used) = match &mut selections[usize::from(connected)] {
                Some(selection) => selection,
                unselected => {
                    let status = ConnectionStatus::from_connected(connected);
                    let profile = self.engine.select_or_closest(constraint, status)?;
                    unselected.insert((profile.configuration, 0))
                }
            };
            *used += 1;
            let configuration = *configuration;

            let predicted_activity = {
                let _timer = instruments.time_classify();
                self.classifier.classify(window)?
            };
            let difficulty = predicted_activity.difficulty();
            let model = configuration.model_for(difficulty);
            let offload = configuration.offloads(difficulty) && connected;
            instruments.offload_decision(offload);

            if model == configuration.simple {
                simple += 1;
            }

            let estimator = self
                .estimators
                .get_mut(&model)
                .expect("every model kind has an estimator");
            let prediction = {
                let _timer = instruments.time_predict();
                estimator.predict(window)?
            };
            errors.record(prediction, window.hr_bpm);
            per_activity[window.activity.index()]
                .get_or_insert_with(ErrorAccumulator::new)
                .record(prediction, window.hr_bpm);

            // Energy accounting for this window.
            let _energy_timer = instruments.time_energy();
            if self.options.classifier_energy > Energy::ZERO {
                trace.push(
                    PowerState::Acquire,
                    TimeSpan::ZERO,
                    self.options.classifier_energy,
                );
            }
            if offload {
                offloaded += 1;
                let (tx_time, _) = self.zoo.ble().offload_window()?;
                let watch_energy =
                    profiler.window_watch_energy(model, true, self.options.accounting);
                trace.push(PowerState::RadioTx, tx_time, watch_energy);
                phone_energy += profiler.window_phone_energy(model);
            } else {
                let compute_time = self.zoo.watch().execution_time(&model.workload_watch());
                let compute_energy = self.zoo.watch().compute_energy(&model.workload_watch());
                trace.push(PowerState::Compute, compute_time, compute_energy);
                let sleep_time = (period - compute_time).max_zero();
                trace.push(
                    PowerState::Sleep,
                    sleep_time,
                    self.zoo.watch().sleep_power * sleep_time,
                );
            }
            instruments.window_processed();
            index += 1;
            Ok(())
        })?;

        if n == 0 {
            return Err(ChrisError::EmptyWorkload);
        }
        for (configuration, windows) in selections.into_iter().flatten() {
            report.record_configuration(&configuration, windows);
        }
        let total_watch = trace.total_energy();
        report.windows = n;
        report.mae_bpm = errors.mae().unwrap_or(0.0);
        report.rmse_bpm = errors.rmse().unwrap_or(0.0);
        report.total_watch_energy = total_watch;
        report.avg_watch_energy = total_watch / n as f64;
        report.total_phone_energy = phone_energy;
        report.avg_phone_energy = phone_energy / n as f64;
        report.offload_fraction = offloaded as f32 / n as f32;
        report.simple_fraction = simple as f32 / n as f32;
        report.disconnected_fraction = disconnected as f32 / n as f32;
        report.watch_energy_breakdown = trace
            .breakdown()
            .into_iter()
            .map(|(state, energy)| (state.name().to_string(), energy))
            .collect();
        report.per_activity_mae = Activity::ALL
            .into_iter()
            .zip(per_activity)
            .filter_map(|(activity, acc)| {
                Some((activity.name().to_string(), acc?.mae().unwrap_or(0.0)))
            })
            .collect();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::ProfilingOptions;
    use ppg_data::{DatasetBuilder, LabeledWindow};
    use ppg_models::random_forest::{RandomForest, RandomForestConfig};

    fn dataset_windows(subjects: usize, seed: u64) -> Vec<LabeledWindow> {
        DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(24.0)
            .seed(seed)
            .build()
            .unwrap()
            .windows()
    }

    fn engine_for(windows: &[LabeledWindow]) -> DecisionEngine {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        DecisionEngine::new(
            profiler
                .profile_all(windows, ProfilingOptions::default())
                .unwrap(),
        )
    }

    #[test]
    fn empty_windows_are_rejected() {
        let windows = dataset_windows(1, 31);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        assert!(matches!(
            runtime.run(
                &[],
                &UserConstraint::MaxMae(6.0),
                &ConnectionSchedule::AlwaysConnected
            ),
            Err(ChrisError::EmptyWorkload)
        ));
    }

    #[test]
    fn empty_engine_is_rejected() {
        let windows = dataset_windows(1, 32);
        let mut runtime = ChrisRuntime::new(
            ModelZoo::paper_setup(),
            DecisionEngine::new(Vec::new()),
            RuntimeOptions::default(),
        );
        assert!(matches!(
            runtime.run(
                &windows,
                &UserConstraint::MaxMae(6.0),
                &ConnectionSchedule::AlwaysConnected
            ),
            Err(ChrisError::EmptyProfileTable)
        ));
    }

    #[test]
    fn mae_constraint_is_respected_on_profiling_data() {
        let windows = dataset_windows(2, 33);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let report = runtime
            .run(
                &windows,
                &UserConstraint::MaxMae(5.6),
                &ConnectionSchedule::AlwaysConnected,
            )
            .unwrap();
        // On the data it was profiled on, the selected configuration should
        // come close to its profiled MAE (different RNG streams shift it a bit).
        assert!(report.mae_bpm < 6.5, "MAE {}", report.mae_bpm);
        assert_eq!(report.windows, windows.len());
        assert!(
            report.offload_fraction > 0.0,
            "a 5.6 BPM target requires offloading"
        );
        // Much cheaper than running TimePPG-Small locally (0.735 mJ).
        assert!(report.avg_watch_energy.as_millijoules() < 0.735);
    }

    #[test]
    fn energy_constraint_is_respected() {
        let windows = dataset_windows(2, 34);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let budget = Energy::from_millijoules(0.30);
        let report = runtime
            .run(
                &windows,
                &UserConstraint::MaxEnergy(budget),
                &ConnectionSchedule::AlwaysConnected,
            )
            .unwrap();
        assert!(
            report.avg_watch_energy.as_millijoules() <= 0.30 * 1.1,
            "average energy {} exceeds the budget",
            report.avg_watch_energy
        );
    }

    #[test]
    fn disconnection_forces_local_configurations() {
        let windows = dataset_windows(2, 35);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let report = runtime
            .run(
                &windows,
                &UserConstraint::MaxMae(5.6),
                &ConnectionSchedule::NeverConnected,
            )
            .unwrap();
        assert_eq!(report.offload_fraction, 0.0);
        assert_eq!(report.disconnected_fraction, 1.0);
        // Without the phone, hitting 5.6 BPM requires running the deep models
        // locally on a large share of the windows, which costs more than the
        // best hybrid solutions (≈0.4 mJ per prediction).
        assert!(report.avg_watch_energy.as_millijoules() > 0.45);
        assert!(!report.watch_energy_breakdown.contains_key("radio_tx"));
    }

    #[test]
    fn intermittent_connection_mixes_behaviour() {
        let windows = dataset_windows(2, 36);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let schedule = ConnectionSchedule::DutyCycle { up: 3, down: 1 };
        let report = runtime
            .run(&windows, &UserConstraint::MaxMae(5.6), &schedule)
            .unwrap();
        assert!((report.disconnected_fraction - 0.25).abs() < 0.05);
        assert!(report.offload_fraction > 0.0);
        assert!(
            report.configuration_usage.len() >= 2,
            "link drops should switch configurations"
        );
    }

    #[test]
    fn report_breakdown_covers_compute_radio_and_sleep() {
        let windows = dataset_windows(1, 37);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let report = runtime
            .run(
                &windows,
                &UserConstraint::MaxMae(5.6),
                &ConnectionSchedule::AlwaysConnected,
            )
            .unwrap();
        assert!(report.watch_energy_breakdown.contains_key("compute"));
        assert!(report.watch_energy_breakdown.contains_key("radio_tx"));
        assert!(report.watch_energy_breakdown.contains_key("sleep"));
        let breakdown_total: f64 = report
            .watch_energy_breakdown
            .values()
            .map(|e| e.as_microjoules())
            .sum();
        assert!(
            (breakdown_total - report.total_watch_energy.as_microjoules()).abs() < 1e-3,
            "breakdown should sum to the total"
        );
        assert_eq!(report.per_activity_mae.len(), 9);
    }

    #[test]
    fn random_forest_classifier_changes_little_versus_oracle() {
        // The paper argues RF mispredictions do not significantly affect CHRIS.
        let train = dataset_windows(2, 38);
        let test = dataset_windows(1, 39);
        let engine = engine_for(&train);
        let rf = RandomForest::train(&train, RandomForestConfig::default()).unwrap();

        let mut oracle_rt = ChrisRuntime::new(
            ModelZoo::paper_setup(),
            engine.clone(),
            RuntimeOptions::default(),
        );
        let mut rf_rt = ChrisRuntime::with_classifier(
            ModelZoo::paper_setup(),
            engine,
            Box::new(rf),
            RuntimeOptions::default(),
        );
        let constraint = UserConstraint::MaxMae(5.6);
        let oracle_report = oracle_rt
            .run(&test, &constraint, &ConnectionSchedule::AlwaysConnected)
            .unwrap();
        let rf_report = rf_rt
            .run(&test, &constraint, &ConnectionSchedule::AlwaysConnected)
            .unwrap();
        assert!(
            (oracle_report.mae_bpm - rf_report.mae_bpm).abs() < 1.0,
            "oracle {} vs rf {}",
            oracle_report.mae_bpm,
            rf_report.mae_bpm
        );
        assert!(
            (oracle_report.avg_watch_energy.as_millijoules()
                - rf_report.avg_watch_energy.as_millijoules())
            .abs()
                < 0.15
        );
    }

    #[test]
    fn classifier_energy_option_adds_cost() {
        let windows = dataset_windows(1, 40);
        let engine = engine_for(&windows);
        let zoo = ModelZoo::paper_setup();
        let mut base = ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
        let mut costly = ChrisRuntime::new(
            zoo,
            engine,
            RuntimeOptions {
                classifier_energy: Energy::from_microjoules(50.0),
                ..RuntimeOptions::default()
            },
        );
        let constraint = UserConstraint::MaxMae(8.0);
        let a = base
            .run(&windows, &constraint, &ConnectionSchedule::AlwaysConnected)
            .unwrap();
        let b = costly
            .run(&windows, &constraint, &ConnectionSchedule::AlwaysConnected)
            .unwrap();
        let delta = b.avg_watch_energy.as_microjoules() - a.avg_watch_energy.as_microjoules();
        assert!(
            (delta - 50.0).abs() < 1.0,
            "classifier energy should add ~50 uJ, added {delta}"
        );
    }

    #[test]
    fn streaming_and_eager_runs_produce_identical_reports() {
        let windows = dataset_windows(2, 42);
        let engine = engine_for(&windows);
        let zoo = ModelZoo::paper_setup();
        let mut eager_rt =
            ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
        let mut stream_rt = ChrisRuntime::new(zoo, engine, RuntimeOptions::default());
        let constraint = UserConstraint::MaxMae(5.6);
        let schedule = ConnectionSchedule::DutyCycle { up: 5, down: 2 };
        let eager = eager_rt.run(&windows, &constraint, &schedule).unwrap();
        let stream = DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(24.0)
            .seed(42)
            .window_stream()
            .unwrap();
        let streamed = stream_rt.run(stream, &constraint, &schedule).unwrap();
        assert_eq!(eager, streamed);
        assert_eq!(streamed.windows, windows.len());
    }

    #[test]
    fn label_only_runs_match_full_runs_and_signal_readers_get_a_typed_error() {
        use ppg_data::WindowDemand;
        use ppg_models::ModelError;

        let builder = || {
            DatasetBuilder::new()
                .subjects(2)
                .seconds_per_activity(24.0)
                .seed(43)
        };
        let windows = builder().build().unwrap().windows();
        let engine = engine_for(&windows);
        let zoo = ModelZoo::paper_setup();
        let constraint = UserConstraint::MaxMae(5.6);
        let schedule = ConnectionSchedule::DutyCycle { up: 5, down: 2 };

        let mut oracle = ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
        assert_eq!(oracle.demand(), WindowDemand::Labels);
        let full = oracle.run(&windows, &constraint, &schedule).unwrap();
        let mut oracle = ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
        let labels = builder().demand(oracle.demand()).window_stream().unwrap();
        assert_eq!(oracle.run(labels, &constraint, &schedule).unwrap(), full);

        let rf = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
        let mut rf_rt =
            ChrisRuntime::with_classifier(zoo, engine, Box::new(rf), RuntimeOptions::default());
        assert_eq!(rf_rt.demand(), WindowDemand::Signals);
        let labels = builder()
            .demand(WindowDemand::Labels)
            .window_stream()
            .unwrap();
        assert!(matches!(
            rf_rt.run(labels, &constraint, &schedule),
            Err(ChrisError::Model(ModelError::MissingSignals { .. }))
        ));
    }

    #[test]
    fn debug_and_accessors() {
        let windows = dataset_windows(1, 41);
        let engine = engine_for(&windows);
        let runtime = ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let text = format!("{runtime:?}");
        assert!(text.contains("ChrisRuntime"));
        assert!(runtime.engine().len() == 60);
        assert_eq!(runtime.options().classifier_energy, Energy::ZERO);
    }
}
