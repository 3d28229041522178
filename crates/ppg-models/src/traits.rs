//! Core traits implemented by every HR estimator and activity classifier.

use hw_sim::profile::Workload;
use ppg_data::{Activity, LabeledWindow, WindowDemand};

use crate::error::ModelError;

/// Physiologically plausible output range enforced by all estimators, in BPM.
pub const HR_OUTPUT_RANGE_BPM: (f32, f32) = (40.0, 190.0);

/// A heart-rate estimator operating on one analysis window at a time.
///
/// Estimators are stateful (`&mut self`): the classical trackers keep the
/// previous estimate as a fallback for windows where no peak is found, and the
/// neural networks cache activations during the forward pass.
pub trait HrEstimator: std::fmt::Debug + Send {
    /// Short human-readable model name (e.g. `"TimePPG-Small"`).
    fn name(&self) -> &str;

    /// Predicts the mean heart rate of the window, in BPM.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the window is malformed or the model cannot
    /// produce any estimate.
    fn predict(&mut self, window: &LabeledWindow) -> Result<f32, ModelError>;

    /// The computational workload of one prediction, used by the hardware
    /// model to derive latency and energy.
    fn workload(&self) -> Workload;

    /// Resets any internal state (previous-estimate fallbacks, caches).
    fn reset(&mut self) {}

    /// What [`predict`](Self::predict) reads of each window. The default,
    /// every signal channel, is always safe. Override it with
    /// [`WindowDemand::Labels`] only when `predict` reads nothing but
    /// `subject`, `activity`, `hr_bpm` and emptiness: runtimes then feed the
    /// estimator label-only windows, synthesized without PPG or
    /// accelerometer.
    fn demand(&self) -> WindowDemand {
        WindowDemand::Signals
    }
}

/// A classifier mapping one window's accelerometer data to an [`Activity`].
pub trait ActivityClassifier: std::fmt::Debug + Send {
    /// Short human-readable classifier name.
    fn name(&self) -> &str;

    /// Predicts the activity performed during the window.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] when the window is malformed or the classifier
    /// has not been trained.
    fn classify(&self, window: &LabeledWindow) -> Result<Activity, ModelError>;

    /// What [`classify`](Self::classify) reads of each window; same contract
    /// as [`HrEstimator::demand`].
    fn demand(&self) -> WindowDemand {
        WindowDemand::Signals
    }
}

/// Rejects a label-only window on behalf of a model that reads its signal
/// channels.
pub(crate) fn require_signals(
    model: &'static str,
    window: &LabeledWindow,
) -> Result<(), ModelError> {
    if window.is_label_only() {
        return Err(ModelError::MissingSignals { model });
    }
    Ok(())
}

/// Clamps a raw estimate into the physiologically plausible range.
pub fn clamp_bpm(bpm: f32) -> f32 {
    bpm.clamp(HR_OUTPUT_RANGE_BPM.0, HR_OUTPUT_RANGE_BPM.1)
}

/// An activity classifier that always returns the window's true label.
///
/// Used to isolate CHRIS' behaviour from classifier mistakes in ablation
/// experiments (the paper reports that RF mispredictions barely matter; this
/// oracle lets us quantify that claim).
#[derive(Debug, Clone, Copy, Default)]
pub struct OracleActivityClassifier;

impl OracleActivityClassifier {
    /// Creates the oracle classifier.
    pub fn new() -> Self {
        Self
    }
}

impl ActivityClassifier for OracleActivityClassifier {
    fn name(&self) -> &str {
        "oracle"
    }

    fn classify(&self, window: &LabeledWindow) -> Result<Activity, ModelError> {
        Ok(window.activity)
    }

    fn demand(&self) -> WindowDemand {
        WindowDemand::Labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppg_data::{DatasetBuilder, SubjectId};

    #[test]
    fn clamp_bpm_enforces_range() {
        assert_eq!(clamp_bpm(10.0), 40.0);
        assert_eq!(clamp_bpm(250.0), 190.0);
        assert_eq!(clamp_bpm(72.0), 72.0);
    }

    #[test]
    fn oracle_returns_true_activity() {
        let d = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(1)
            .build()
            .unwrap();
        let oracle = OracleActivityClassifier::new();
        for w in d.windows() {
            assert_eq!(oracle.classify(&w).unwrap(), w.activity);
        }
        assert_eq!(oracle.name(), "oracle");
        assert_eq!(oracle.demand(), WindowDemand::Labels);
        let _ = SubjectId(0);
    }

    #[test]
    fn signal_readers_reject_label_only_windows_with_a_typed_error() {
        use crate::adaptive_threshold::AdaptiveThreshold;
        use crate::random_forest::{RandomForest, RandomForestConfig};
        use crate::spectral::SpectralPeak;
        use crate::surrogate::CalibratedEstimator;
        use crate::timeppg::{TimePpg, TimePpgVariant};
        use crate::zoo::ModelKind;
        use ppg_data::WindowSource;

        let builder = || {
            DatasetBuilder::new()
                .subjects(1)
                .seconds_per_activity(16.0)
                .seed(2)
        };
        let full = builder().build().unwrap().windows();
        let labels: Vec<LabeledWindow> = builder()
            .demand(WindowDemand::Labels)
            .window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        let label_only = &labels[0];
        let missing =
            |r: Result<f32, ModelError>| matches!(r, Err(ModelError::MissingSignals { .. }));

        let mut signal_estimators: Vec<Box<dyn HrEstimator>> = vec![
            Box::new(AdaptiveThreshold::new()),
            Box::new(SpectralPeak::new()),
            Box::new(TimePpg::new(TimePpgVariant::Small).unwrap()),
        ];
        for estimator in &mut signal_estimators {
            assert_eq!(estimator.demand(), WindowDemand::Signals);
            assert!(
                missing(estimator.predict(label_only)),
                "{}",
                estimator.name()
            );
            assert!(estimator.predict(&full[0]).is_ok(), "{}", estimator.name());
        }
        let rf = RandomForest::train(&full, RandomForestConfig::default()).unwrap();
        assert_eq!(rf.demand(), WindowDemand::Signals);
        assert!(matches!(
            rf.classify(label_only),
            Err(ModelError::MissingSignals {
                model: "random-forest"
            })
        ));

        // Label readers give bit-identical answers on either kind of window.
        let mut on_labels = CalibratedEstimator::new(ModelKind::TimePpgBig, 5);
        let mut on_full = CalibratedEstimator::new(ModelKind::TimePpgBig, 5);
        assert_eq!(on_labels.demand(), WindowDemand::Labels);
        assert_eq!(labels.len(), full.len());
        for (l, f) in labels.iter().zip(&full) {
            let (a, b) = (on_labels.predict(l).unwrap(), on_full.predict(f).unwrap());
            assert_eq!(a.to_bits(), b.to_bits());
            let oracle = OracleActivityClassifier::new();
            assert_eq!(oracle.classify(l).unwrap(), oracle.classify(f).unwrap());
        }
    }
}
