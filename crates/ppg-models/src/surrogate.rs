//! Accuracy-calibrated surrogate estimators.
//!
//! The MAE results of the paper come from TimePPG networks trained on the real
//! PPGDalia dataset with quantization-aware training; neither the dataset nor
//! the trained weights are redistributable, so the accuracy experiments of
//! this reproduction use *calibrated surrogates*: estimators that return the
//! window's ground-truth heart rate perturbed by an error drawn from a
//! zero-mean distribution whose mean absolute value matches the per-activity
//! MAE table of [`ModelKind::per_activity_mae_bpm`].
//!
//! This preserves exactly what CHRIS consumes — the per-difficulty error
//! statistics of each model — while the real algorithmic implementations
//! (Adaptive Threshold, the spectral tracker, the trainable TCNs) remain
//! available for the experiments that exercise the actual signal path.
//!
//! The error sequence is deterministic for a given `(model, seed)` pair, and
//! errors are correlated across consecutive windows (AR(1) with ρ = 0.7) the
//! way real tracker errors are: a model that locked onto a motion-artifact
//! harmonic stays wrong for a few windows.

use hw_sim::profile::Workload;
use ppg_data::{LabeledWindow, WindowDemand};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::ModelError;
use crate::traits::{clamp_bpm, HrEstimator};
use crate::zoo::ModelKind;

/// Correlation of the error between consecutive windows.
const ERROR_CORRELATION: f32 = 0.7;

/// An HR estimator whose error statistics are calibrated to a [`ModelKind`].
#[derive(Debug, Clone)]
pub struct CalibratedEstimator {
    kind: ModelKind,
    seed: u64,
    rng: StdRng,
    previous_noise: f32,
}

impl CalibratedEstimator {
    /// Creates a calibrated estimator for the given model with a deterministic
    /// error sequence derived from `seed`.
    pub fn new(kind: ModelKind, seed: u64) -> Self {
        Self {
            kind,
            seed,
            rng: StdRng::seed_from_u64(seed ^ kind as u64),
            previous_noise: 0.0,
        }
    }

    /// The model this surrogate is calibrated to.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    fn sample_standard_normal(&mut self) -> f32 {
        let u1: f32 = 1.0 - self.rng.random::<f32>();
        let u2: f32 = self.rng.random::<f32>();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }
}

impl HrEstimator for CalibratedEstimator {
    fn name(&self) -> &str {
        self.kind.name()
    }

    fn predict(&mut self, window: &LabeledWindow) -> Result<f32, ModelError> {
        if window.is_empty() {
            return Err(ModelError::InvalidWindow {
                model: "calibrated-surrogate",
                reason: "window is empty".to_string(),
            });
        }
        let target_mae = self.kind.per_activity_mae_bpm(window.activity);
        // For a zero-mean Gaussian, E[|x|] = sigma * sqrt(2/pi); scale so the
        // absolute error averages to the calibrated MAE.
        let sigma = target_mae * (std::f32::consts::PI / 2.0).sqrt();
        let innovation = self.sample_standard_normal();
        let noise = ERROR_CORRELATION * self.previous_noise
            + (1.0 - ERROR_CORRELATION * ERROR_CORRELATION).sqrt() * innovation;
        self.previous_noise = noise;
        Ok(clamp_bpm(window.hr_bpm + sigma * noise))
    }

    fn workload(&self) -> Workload {
        self.kind.workload_watch()
    }

    fn reset(&mut self) {
        self.rng = StdRng::seed_from_u64(self.seed ^ self.kind as u64);
        self.previous_noise = 0.0;
    }

    /// The surrogate reads the ground truth and activity only.
    fn demand(&self) -> WindowDemand {
        WindowDemand::Labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppg_data::{Activity, DatasetBuilder};
    use ppg_dsp::stats::mae;

    fn windows() -> Vec<LabeledWindow> {
        DatasetBuilder::new()
            .subjects(3)
            .seconds_per_activity(60.0)
            .seed(10)
            .build()
            .unwrap()
            .windows()
    }

    fn measured_mae(kind: ModelKind, windows: &[LabeledWindow]) -> f32 {
        let mut est = CalibratedEstimator::new(kind, 42);
        let (mut p, mut t) = (Vec::new(), Vec::new());
        for w in windows {
            p.push(est.predict(w).unwrap());
            t.push(w.hr_bpm);
        }
        mae(&p, &t).unwrap()
    }

    #[test]
    fn overall_mae_matches_calibration_within_tolerance() {
        let ws = windows();
        for kind in ModelKind::ALL {
            let measured = measured_mae(kind, &ws);
            let nominal = kind.nominal_mae_bpm();
            let rel = (measured - nominal).abs() / nominal;
            assert!(
                rel < 0.15,
                "{kind}: measured {measured:.2} BPM vs nominal {nominal:.2} BPM"
            );
        }
    }

    #[test]
    fn per_activity_error_ordering_is_respected() {
        let ws = windows();
        let mut est = CalibratedEstimator::new(ModelKind::AdaptiveThreshold, 7);
        let mae_for = |est: &mut CalibratedEstimator, activity: Activity| {
            let (mut p, mut t) = (Vec::new(), Vec::new());
            for w in ws.iter().filter(|w| w.activity == activity) {
                p.push(est.predict(w).unwrap());
                t.push(w.hr_bpm);
            }
            mae(&p, &t).unwrap()
        };
        let easy = mae_for(&mut est, Activity::Resting);
        let hard = mae_for(&mut est, Activity::TableSoccer);
        assert!(
            hard > easy * 2.0,
            "AT surrogate: resting {easy:.2} vs table soccer {hard:.2}"
        );
    }

    #[test]
    fn big_is_more_accurate_than_small_than_at() {
        let ws = windows();
        let at = measured_mae(ModelKind::AdaptiveThreshold, &ws);
        let small = measured_mae(ModelKind::TimePpgSmall, &ws);
        let big = measured_mae(ModelKind::TimePpgBig, &ws);
        assert!(
            big < small && small < at,
            "ordering violated: {big} {small} {at}"
        );
    }

    #[test]
    fn error_sequence_is_deterministic_and_reset_works() {
        let ws = windows();
        let mut a = CalibratedEstimator::new(ModelKind::TimePpgSmall, 3);
        let mut b = CalibratedEstimator::new(ModelKind::TimePpgSmall, 3);
        let pa: Vec<f32> = ws.iter().take(20).map(|w| a.predict(w).unwrap()).collect();
        let pb: Vec<f32> = ws.iter().take(20).map(|w| b.predict(w).unwrap()).collect();
        assert_eq!(pa, pb);
        a.reset();
        let pa2: Vec<f32> = ws.iter().take(20).map(|w| a.predict(w).unwrap()).collect();
        assert_eq!(pa, pa2);
    }

    #[test]
    fn different_seeds_give_different_errors() {
        let ws = windows();
        let mut a = CalibratedEstimator::new(ModelKind::TimePpgSmall, 1);
        let mut b = CalibratedEstimator::new(ModelKind::TimePpgSmall, 2);
        let pa: Vec<f32> = ws.iter().take(10).map(|w| a.predict(w).unwrap()).collect();
        let pb: Vec<f32> = ws.iter().take(10).map(|w| b.predict(w).unwrap()).collect();
        assert_ne!(pa, pb);
    }

    #[test]
    fn predictions_stay_in_physiological_range() {
        let ws = windows();
        let mut est = CalibratedEstimator::new(ModelKind::AdaptiveThreshold, 11);
        for w in &ws {
            let p = est.predict(w).unwrap();
            assert!((40.0..=190.0).contains(&p));
        }
    }

    #[test]
    fn empty_window_is_rejected() {
        let mut est = CalibratedEstimator::new(ModelKind::TimePpgBig, 1);
        let mut w = windows()[0].clone();
        w.ppg.clear();
        assert!(est.predict(&w).is_err());
    }

    #[test]
    fn workload_and_kind_are_exposed() {
        let est = CalibratedEstimator::new(ModelKind::TimePpgBig, 1);
        assert_eq!(est.kind(), ModelKind::TimePpgBig);
        assert_eq!(est.workload(), ModelKind::TimePpgBig.workload_watch());
    }
}
