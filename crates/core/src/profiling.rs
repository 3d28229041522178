//! Offline profiling of CHRIS configurations.
//!
//! Before deployment, every configuration is profiled on a profiling dataset:
//! its average MAE, average smartwatch energy per prediction, average phone
//! energy and offload statistics are measured and stored in the smartwatch MCU
//! memory, ordered by energy (the paper's Table II). At runtime the decision
//! engine only reads this table; no model is ever re-profiled on-line.

use serde::{Deserialize, Serialize};

use hw_sim::units::Energy;
use ppg_data::{
    DatasetBuilder, IntoWindowSource, LabeledWindow, WindowCache, WindowDemand, WindowSource,
};
use ppg_dsp::stats::ErrorAccumulator;
use ppg_models::surrogate::CalibratedEstimator;
use ppg_models::traits::{ActivityClassifier, HrEstimator, OracleActivityClassifier};
use ppg_models::zoo::{ModelKind, ModelZoo};

use crate::config::{enumerate_configurations, Configuration, EnergyAccounting};
use crate::error::ChrisError;

/// Options controlling a profiling pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilingOptions {
    /// How offloaded windows are charged to the smartwatch.
    pub accounting: EnergyAccounting,
    /// Seed of the calibrated estimators' error sequences.
    pub seed: u64,
}

impl Default for ProfilingOptions {
    fn default() -> Self {
        Self {
            accounting: EnergyAccounting::default(),
            seed: 0xC4215,
        }
    }
}

/// The profiled behaviour of one configuration — one row of the table stored
/// in the MCU memory (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigurationProfile {
    /// The configuration this row describes.
    pub configuration: Configuration,
    /// Average MAE over the profiling windows, in BPM.
    pub mae_bpm: f32,
    /// Average smartwatch energy per prediction.
    pub watch_energy: Energy,
    /// Average phone energy per prediction (zero for local configurations).
    pub phone_energy: Energy,
    /// Fraction of windows offloaded to the phone.
    pub offload_fraction: f32,
    /// Fraction of windows handled by the simple model of the pair.
    pub simple_fraction: f32,
    /// Number of profiling windows this row was measured on.
    pub windows: usize,
}

/// Profiles configurations against a [`ModelZoo`] on a profiling dataset.
#[derive(Debug, Clone)]
pub struct Profiler<'a> {
    zoo: &'a ModelZoo,
}

impl<'a> Profiler<'a> {
    /// Creates a profiler for the given zoo (platforms + BLE link).
    pub fn new(zoo: &'a ModelZoo) -> Self {
        Self { zoo }
    }

    /// What profiling with `classifier` reads of each window: the union of
    /// the classifier's declared demand and the calibrated estimators'. Open
    /// the profiling stream with it (`DatasetBuilder::demand`); the
    /// oracle-classifier entry points ([`Profiler::profile`],
    /// [`Profiler::profile_all`]) read labels only.
    pub fn demand(&self, classifier: &dyn ActivityClassifier) -> WindowDemand {
        // The bare surrogates the zoo instruments: asking them registers no
        // telemetry series.
        ModelKind::ALL
            .iter()
            .fold(classifier.demand(), |demand, &kind| {
                demand.union(CalibratedEstimator::new(kind, 0).demand())
            })
    }

    /// Smartwatch energy charged for one window handled by `model`, either
    /// locally or offloaded, under the selected accounting.
    pub fn window_watch_energy(
        &self,
        model: ModelKind,
        offloaded: bool,
        accounting: EnergyAccounting,
    ) -> Energy {
        if !offloaded {
            return self
                .zoo
                .watch()
                .energy_per_prediction(&model.workload_watch());
        }
        let ble = self.zoo.ble();
        match accounting {
            EnergyAccounting::BleOnly => ble.transfer_energy(hw_sim::WINDOW_PAYLOAD_BYTES),
            EnergyAccounting::BleWithSleep => {
                let tx_time = ble.transfer_time(hw_sim::WINDOW_PAYLOAD_BYTES);
                let sleep_time =
                    (hw_sim::units::TimeSpan::from_seconds(hw_sim::PREDICTION_PERIOD_S) - tx_time)
                        .max_zero();
                ble.transfer_energy(hw_sim::WINDOW_PAYLOAD_BYTES)
                    + self.zoo.watch().sleep_power * sleep_time
            }
            EnergyAccounting::IncrementalPayload => {
                let payload = hw_sim::WINDOW_PAYLOAD_BYTES / 4;
                let tx_time = ble.transfer_time(payload);
                let sleep_time =
                    (hw_sim::units::TimeSpan::from_seconds(hw_sim::PREDICTION_PERIOD_S) - tx_time)
                        .max_zero();
                ble.transfer_energy(payload) + self.zoo.watch().sleep_power * sleep_time
            }
        }
    }

    /// Phone energy charged for one window handled by `model` when offloaded.
    pub fn window_phone_energy(&self, model: ModelKind) -> Energy {
        self.zoo.phone().compute_energy(&model.workload_phone())
    }

    /// Profiles one configuration on the given windows with the oracle
    /// activity classifier.
    ///
    /// Like every profiling entry point, `windows` accepts both eager
    /// buffers and lazy [`WindowSource`] streams (see
    /// [`Profiler::profile_all`]).
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::EmptyWorkload`] when `windows` yields nothing
    /// and propagates model errors.
    pub fn profile<S: IntoWindowSource>(
        &self,
        configuration: Configuration,
        windows: S,
        options: ProfilingOptions,
    ) -> Result<ConfigurationProfile, ChrisError> {
        self.profile_with(
            configuration,
            windows,
            &OracleActivityClassifier::new(),
            options,
        )
    }

    /// Profiles one configuration using an explicit activity classifier, so
    /// that classifier mispredictions are reflected in the profile (as in the
    /// paper's evaluation).
    ///
    /// A single pass: windows are pulled from the source one at a time, so a
    /// lazy stream is profiled in O(1 window) memory.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::EmptyWorkload`] when `windows` yields nothing
    /// and propagates model errors.
    pub fn profile_with<S: IntoWindowSource>(
        &self,
        configuration: Configuration,
        windows: S,
        classifier: &dyn ActivityClassifier,
        options: ProfilingOptions,
    ) -> Result<ConfigurationProfile, ChrisError> {
        let mut source = windows.into_window_source();
        let mut simple_est = self
            .zoo
            .calibrated_estimator(configuration.simple, options.seed);
        let mut complex_est = self
            .zoo
            .calibrated_estimator(configuration.complex, options.seed.wrapping_add(1));

        let mut errors = ErrorAccumulator::new();
        let mut watch_energy = Energy::ZERO;
        let mut phone_energy = Energy::ZERO;
        let mut offloaded_count = 0usize;
        let mut simple_count = 0usize;
        // By-reference internal iteration: slices profile with zero copies,
        // lazy sources materialize one window at a time.
        let n = source.try_for_each_window(|window| -> Result<(), ChrisError> {
            let predicted_activity = classifier.classify(window)?;
            let difficulty = predicted_activity.difficulty();
            let model = configuration.model_for(difficulty);
            let offloaded = configuration.offloads(difficulty);

            let estimator: &mut Box<dyn HrEstimator> = if model == configuration.simple {
                simple_count += 1;
                &mut simple_est
            } else {
                &mut complex_est
            };
            let prediction = estimator.predict(window)?;
            errors.record(prediction, window.hr_bpm);

            watch_energy += self.window_watch_energy(model, offloaded, options.accounting);
            if offloaded {
                offloaded_count += 1;
                phone_energy += self.window_phone_energy(model);
            }
            Ok(())
        })?;

        if n == 0 {
            return Err(ChrisError::EmptyWorkload);
        }
        Ok(ConfigurationProfile {
            configuration,
            mae_bpm: errors.mae().unwrap_or(0.0),
            watch_energy: watch_energy / n as f64,
            phone_energy: phone_energy / n as f64,
            offload_fraction: offloaded_count as f32 / n as f32,
            simple_fraction: simple_count as f32 / n as f32,
            windows: n,
        })
    }

    /// Profiles one configuration on a **memoized** profiling stream: the
    /// windows described by `builder` are synthesized at most once per
    /// [`WindowCache`] key and replayed from the shared buffer on every
    /// later call — the CHRIS pattern of re-profiling the same table over
    /// identical calibration windows stops paying for repeated synthesis.
    ///
    /// The resulting profile is identical to
    /// `self.profile(configuration, builder.window_stream()?, options)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Profiler::profile`], plus [`ChrisError::Data`]
    /// when the builder parameters are invalid or synthesis fails.
    pub fn profile_cached(
        &self,
        configuration: Configuration,
        cache: &mut WindowCache,
        builder: DatasetBuilder,
        options: ProfilingOptions,
    ) -> Result<ConfigurationProfile, ChrisError> {
        let windows = builder.cached_window_stream(cache)?;
        self.profile(configuration, windows, options)
    }

    /// Profiles every configuration on a **memoized** profiling stream (see
    /// [`Profiler::profile_cached`]); the multi-pass table build profiles the
    /// shared cached buffer in place, with no second materialization.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Profiler::profile_all`].
    pub fn profile_all_cached(
        &self,
        cache: &mut WindowCache,
        builder: DatasetBuilder,
        options: ProfilingOptions,
    ) -> Result<Vec<ConfigurationProfile>, ChrisError> {
        let windows = builder.cached_window_stream(cache)?;
        self.profile_all(windows, options)
    }

    /// Profiles every one of the 60 configurations with the oracle classifier,
    /// returning the table sorted by increasing smartwatch energy (the
    /// ordering the paper stores in MCU memory).
    ///
    /// `windows` accepts both eager buffers and lazy
    /// [`WindowSource`] streams. Profiling every configuration is inherently
    /// multi-pass, so a one-shot stream is drained into a buffer once up
    /// front — profiling is the offline, once-per-fleet step where that is
    /// the right trade.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Profiler::profile`], plus [`ChrisError::Data`]
    /// when a streaming source fails.
    pub fn profile_all<S: IntoWindowSource>(
        &self,
        windows: S,
        options: ProfilingOptions,
    ) -> Result<Vec<ConfigurationProfile>, ChrisError> {
        self.profile_all_with(windows, &OracleActivityClassifier::new(), options)
    }

    /// Profiles every configuration with an explicit activity classifier.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Profiler::profile_all`].
    pub fn profile_all_with<S: IntoWindowSource>(
        &self,
        windows: S,
        classifier: &dyn ActivityClassifier,
        options: ProfilingOptions,
    ) -> Result<Vec<ConfigurationProfile>, ChrisError> {
        let source = windows.into_window_source();
        // Buffer-backed sources are profiled in place; only genuinely lazy
        // streams are drained into a buffer for the multi-pass table build.
        if let Some(slice) = source.as_slice() {
            return self.profile_each(slice, classifier, options);
        }
        let buffered: Vec<LabeledWindow> = source.iter().collect::<Result<_, _>>()?;
        self.profile_each(&buffered, classifier, options)
    }

    /// The multi-pass core of [`Profiler::profile_all_with`]: one
    /// [`Profiler::profile_with`] pass per configuration over a shared,
    /// borrowed workload.
    fn profile_each(
        &self,
        windows: &[LabeledWindow],
        classifier: &dyn ActivityClassifier,
        options: ProfilingOptions,
    ) -> Result<Vec<ConfigurationProfile>, ChrisError> {
        let mut table: Vec<ConfigurationProfile> = enumerate_configurations()
            .into_iter()
            .map(|c| self.profile_with(c, windows, classifier, options))
            .collect::<Result<_, _>>()?;
        // Same NaN-safe ordering as `DecisionEngine::new`, which re-sorts the
        // table it is given: keep the two in lockstep so direct consumers of
        // this table see the same order the engine stores.
        table.sort_by(|a, b| {
            a.watch_energy
                .as_microjoules()
                .total_cmp(&b.watch_energy.as_microjoules())
                .then(a.mae_bpm.total_cmp(&b.mae_bpm))
        });
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DifficultyThreshold, ExecutionTarget};
    use ppg_data::DatasetBuilder;

    fn windows() -> Vec<LabeledWindow> {
        DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(24.0)
            .seed(21)
            .build()
            .unwrap()
            .windows()
    }

    fn config(
        simple: ModelKind,
        complex: ModelKind,
        thr: u8,
        target: ExecutionTarget,
    ) -> Configuration {
        Configuration::new(
            simple,
            complex,
            DifficultyThreshold::new(thr).unwrap(),
            target,
        )
        .unwrap()
    }

    #[test]
    fn empty_windows_are_rejected() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            5,
            ExecutionTarget::Hybrid,
        );
        assert!(matches!(
            profiler.profile(c, &[], ProfilingOptions::default()),
            Err(ChrisError::EmptyWorkload)
        ));
    }

    #[test]
    fn always_simple_local_matches_single_model_characterization() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            9,
            ExecutionTarget::Local,
        );
        let p = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        assert_eq!(p.simple_fraction, 1.0);
        assert_eq!(p.offload_fraction, 0.0);
        assert_eq!(p.phone_energy, Energy::ZERO);
        let at = zoo.characterize(ModelKind::AdaptiveThreshold);
        assert!((p.watch_energy.as_millijoules() - at.watch_energy.as_millijoules()).abs() < 1e-6);
        // MAE close to the AT calibration (equal activity representation).
        assert!((p.mae_bpm - 10.99).abs() < 2.0, "AT-only MAE {}", p.mae_bpm);
    }

    #[test]
    fn always_complex_hybrid_offloads_everything() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            0,
            ExecutionTarget::Hybrid,
        );
        let p = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        assert_eq!(p.offload_fraction, 1.0);
        assert_eq!(p.simple_fraction, 0.0);
        assert!(
            p.phone_energy.as_millijoules() > 20.0,
            "Big on phone per prediction"
        );
        // With the BleOnly accounting, each offloaded window costs ~0.52 mJ.
        assert!((p.watch_energy.as_millijoules() - 0.52).abs() < 0.01);
    }

    #[test]
    fn intermediate_threshold_mixes_models() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            4,
            ExecutionTarget::Hybrid,
        );
        let p = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        // With equal activity representation, 4/9 of windows are easy.
        assert!((p.simple_fraction - 4.0 / 9.0).abs() < 0.05);
        assert!((p.offload_fraction - 5.0 / 9.0).abs() < 0.05);
        // Energy sits between the two extremes.
        let at_only = profiler
            .profile(
                config(
                    ModelKind::AdaptiveThreshold,
                    ModelKind::TimePpgBig,
                    9,
                    ExecutionTarget::Hybrid,
                ),
                &ws,
                ProfilingOptions::default(),
            )
            .unwrap();
        let big_only = profiler
            .profile(
                config(
                    ModelKind::AdaptiveThreshold,
                    ModelKind::TimePpgBig,
                    0,
                    ExecutionTarget::Hybrid,
                ),
                &ws,
                ProfilingOptions::default(),
            )
            .unwrap();
        assert!(p.watch_energy > at_only.watch_energy);
        assert!(p.watch_energy < big_only.watch_energy);
        assert!(p.mae_bpm < at_only.mae_bpm);
        assert!(p.mae_bpm > big_only.mae_bpm);
    }

    #[test]
    fn local_big_execution_is_extremely_expensive() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let local = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            0,
            ExecutionTarget::Local,
        );
        let hybrid = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            0,
            ExecutionTarget::Hybrid,
        );
        let p_local = profiler
            .profile(local, &ws, ProfilingOptions::default())
            .unwrap();
        let p_hybrid = profiler
            .profile(hybrid, &ws, ProfilingOptions::default())
            .unwrap();
        assert!(
            p_local.watch_energy.as_millijoules() > p_hybrid.watch_energy.as_millijoules() * 10.0,
            "local Big should dwarf offloaded Big on the watch"
        );
    }

    #[test]
    fn accounting_modes_order_offload_cost() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ble_only =
            profiler.window_watch_energy(ModelKind::TimePpgBig, true, EnergyAccounting::BleOnly);
        let with_sleep = profiler.window_watch_energy(
            ModelKind::TimePpgBig,
            true,
            EnergyAccounting::BleWithSleep,
        );
        let incremental = profiler.window_watch_energy(
            ModelKind::TimePpgBig,
            true,
            EnergyAccounting::IncrementalPayload,
        );
        assert!(with_sleep > ble_only);
        assert!(incremental < ble_only + Energy::from_millijoules(0.2));
        // Local energy is independent of the accounting mode.
        let local_a =
            profiler.window_watch_energy(ModelKind::TimePpgSmall, false, EnergyAccounting::BleOnly);
        let local_b = profiler.window_watch_energy(
            ModelKind::TimePpgSmall,
            false,
            EnergyAccounting::BleWithSleep,
        );
        assert_eq!(local_a, local_b);
    }

    #[test]
    fn profile_all_returns_sixty_rows_sorted_by_energy() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let table = profiler
            .profile_all(&ws, ProfilingOptions::default())
            .unwrap();
        assert_eq!(table.len(), 60);
        for pair in table.windows(2) {
            assert!(pair[0].watch_energy <= pair[1].watch_energy);
        }
        // The cheapest row must be an always-simple AT configuration and the
        // most expensive ones local TimePPG-Big.
        assert_eq!(table[0].configuration.simple, ModelKind::AdaptiveThreshold);
        assert_eq!(table[0].simple_fraction, 1.0);
        let last = table.last().unwrap();
        assert_eq!(last.configuration.complex, ModelKind::TimePpgBig);
        assert_eq!(last.configuration.target, ExecutionTarget::Local);
    }

    #[test]
    fn cached_profiling_matches_uncached_and_reuses_the_stream() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let builder = || {
            DatasetBuilder::new()
                .subjects(2)
                .seconds_per_activity(24.0)
                .seed(21)
        };
        let uncached = profiler
            .profile_all(
                builder().window_stream().unwrap(),
                ProfilingOptions::default(),
            )
            .unwrap();
        let mut cache = WindowCache::new(4);
        let first = profiler
            .profile_all_cached(&mut cache, builder(), ProfilingOptions::default())
            .unwrap();
        let second = profiler
            .profile_all_cached(&mut cache, builder(), ProfilingOptions::default())
            .unwrap();
        assert_eq!(first, uncached);
        assert_eq!(second, uncached);
        // One synthesis, one replay.
        assert_eq!((cache.hits(), cache.misses()), (1, 1));

        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgSmall,
            5,
            ExecutionTarget::Hybrid,
        );
        let cached_one = profiler
            .profile_cached(c, &mut cache, builder(), ProfilingOptions::default())
            .unwrap();
        let eager_one = profiler
            .profile(c, windows(), ProfilingOptions::default())
            .unwrap();
        assert_eq!(cached_one, eager_one);
        assert_eq!(cache.hits(), 2);
    }

    #[test]
    fn profiling_reads_labels_only_unless_the_classifier_reads_signals() {
        use ppg_models::random_forest::{RandomForest, RandomForestConfig};

        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let oracle = OracleActivityClassifier::new();
        assert_eq!(profiler.demand(&oracle), WindowDemand::Labels);
        let rf = RandomForest::train(&windows(), RandomForestConfig::default()).unwrap();
        assert_eq!(profiler.demand(&rf), WindowDemand::Signals);

        let labels = DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(24.0)
            .seed(21)
            .demand(profiler.demand(&oracle))
            .window_stream()
            .unwrap();
        assert_eq!(
            profiler
                .profile_all(labels, ProfilingOptions::default())
                .unwrap(),
            profiler
                .profile_all(windows(), ProfilingOptions::default())
                .unwrap()
        );
    }

    #[test]
    fn profiles_are_deterministic_for_a_seed() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgSmall,
            5,
            ExecutionTarget::Hybrid,
        );
        let a = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        let b = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        assert_eq!(a, b);
    }
}
