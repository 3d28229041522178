//! Labeled analysis windows.
//!
//! A [`LabeledWindow`] is the unit every model and the CHRIS runtime operate
//! on: 8 seconds (256 samples) of PPG plus the three accelerometer axes, the
//! ground-truth mean heart rate over the window, the activity being performed
//! and the subject it came from.
//!
//! A window synthesized for consumers that read only its labels is
//! *label-only* ([`WindowDemand::Labels`]): it carries the subject, activity
//! and heart rate of the full window, but no signal samples and no
//! [`LabeledWindow::mean_motion_g`].

use serde::{Deserialize, Serialize};

use crate::activity::Activity;
use crate::subject::SubjectId;

/// What a window consumer reads of each window.
///
/// Estimators and classifiers declare it (`ppg_models::traits`), runtimes
/// report the [`union`](WindowDemand::union) of their consumers, and
/// synthesis skips the signal work a [`WindowDemand::Labels`] stream would
/// throw away. The variants are ordered: `Labels < Signals`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WindowDemand {
    /// Only the labels: subject, activity, ground-truth heart rate, and
    /// that the window is not empty.
    Labels,
    /// The labels plus every signal channel (PPG, the three accelerometer
    /// axes and the motion envelope behind `mean_motion_g`).
    Signals,
}

impl WindowDemand {
    /// The demand of two consumers reading the same window.
    pub fn union(self, other: WindowDemand) -> WindowDemand {
        self.max(other)
    }
}

/// One 8-second analysis window with its labels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LabeledWindow {
    /// Subject the window was recorded from.
    pub subject: SubjectId,
    /// Activity performed during the window.
    pub activity: Activity,
    /// Ground-truth mean heart rate over the window, in BPM.
    pub hr_bpm: f32,
    /// Raw PPG samples (256 at 32 Hz); empty in a label-only window.
    pub ppg: Vec<f32>,
    /// Accelerometer X axis in g (256 samples); empty in a label-only window.
    pub accel_x: Vec<f32>,
    /// Accelerometer Y axis in g (256 samples); empty in a label-only window.
    pub accel_y: Vec<f32>,
    /// Accelerometer Z axis in g (256 samples); empty in a label-only window.
    pub accel_z: Vec<f32>,
    /// Mean of the motion envelope over the window (g); a direct measure of
    /// how corrupted the window is. Not available to the models (it is a
    /// generator-side quantity) but useful for analysis and tests. `None`
    /// exactly when the window is label-only: the envelope is derived from
    /// the accelerometer, which was never synthesized.
    pub mean_motion_g: Option<f32>,
}

impl LabeledWindow {
    /// Number of samples per channel (0 in a label-only window).
    pub fn len(&self) -> usize {
        self.ppg.len()
    }

    /// Whether the window lacks the samples it should carry. A label-only
    /// window is never empty: it stands for a full window whose signals no
    /// consumer reads.
    pub fn is_empty(&self) -> bool {
        self.ppg.is_empty() && !self.is_label_only()
    }

    /// Whether the window carries labels only, synthesized for a
    /// [`WindowDemand::Labels`] consumer.
    pub fn is_label_only(&self) -> bool {
        self.mean_motion_g.is_none()
    }

    /// Difficulty level of the window's activity (1 easiest .. 9 hardest).
    pub fn difficulty(&self) -> crate::activity::DifficultyLevel {
        self.activity.difficulty()
    }

    /// Accelerometer features of the window (the classifier input).
    ///
    /// # Errors
    ///
    /// Propagates [`ppg_dsp::DspError`] if the window is empty.
    pub fn accel_features(&self) -> Result<ppg_dsp::AccelFeatures, ppg_dsp::DspError> {
        ppg_dsp::AccelFeatures::from_axes(&self.accel_x, &self.accel_y, &self.accel_z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window() -> LabeledWindow {
        LabeledWindow {
            subject: SubjectId(0),
            activity: Activity::Walking,
            hr_bpm: 95.0,
            ppg: vec![0.0; 256],
            accel_x: vec![0.1; 256],
            accel_y: vec![0.2; 256],
            accel_z: vec![0.9; 256],
            mean_motion_g: Some(0.3),
        }
    }

    #[test]
    fn len_and_empty() {
        let w = window();
        assert_eq!(w.len(), 256);
        assert!(!w.is_empty());
        assert!(!w.is_label_only());
    }

    #[test]
    fn label_only_windows_are_not_empty() {
        let mut cleared = window();
        cleared.ppg.clear();
        assert!(cleared.is_empty());
        let labels = LabeledWindow {
            ppg: Vec::new(),
            accel_x: Vec::new(),
            accel_y: Vec::new(),
            accel_z: Vec::new(),
            mean_motion_g: None,
            ..window()
        };
        assert!(labels.is_label_only());
        assert!(!labels.is_empty());
        assert_eq!(labels.len(), 0);
    }

    #[test]
    fn demand_union_is_the_larger_demand() {
        use WindowDemand::{Labels, Signals};
        assert_eq!(Labels.union(Labels), Labels);
        assert_eq!(Labels.union(Signals), Signals);
        assert_eq!(Signals.union(Labels), Signals);
    }

    #[test]
    fn difficulty_tracks_activity() {
        let w = window();
        assert_eq!(w.difficulty(), Activity::Walking.difficulty());
    }

    #[test]
    fn accel_features_compute() {
        let w = window();
        let f = w.accel_features().unwrap();
        assert!((f.x.mean - 0.1).abs() < 1e-5);
        assert!((f.z.mean - 0.9).abs() < 1e-5);
    }

    #[test]
    fn accel_features_fail_on_empty_window() {
        let mut w = window();
        w.accel_x.clear();
        w.accel_y.clear();
        w.accel_z.clear();
        assert!(w.accel_features().is_err());
    }
}
