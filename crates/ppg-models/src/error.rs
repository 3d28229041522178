//! Error type shared by the model implementations.

use std::fmt;

/// Errors produced by HR estimators and activity classifiers.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The input window does not satisfy the model's requirements.
    InvalidWindow {
        /// Which model rejected the window.
        model: &'static str,
        /// Why it was rejected.
        reason: String,
    },
    /// The model could not produce a prediction (for example no peaks found
    /// and no previous estimate to fall back to).
    PredictionFailed {
        /// Which model failed.
        model: &'static str,
        /// Why the prediction failed.
        reason: String,
    },
    /// A label-only window ([`ppg_data::WindowDemand::Labels`]) reached a
    /// model that reads signal channels: the window's producer was opened
    /// with a smaller demand than its consumer declared.
    MissingSignals {
        /// Which model needed the signals.
        model: &'static str,
    },
    /// A classifier was used before being trained.
    NotTrained {
        /// Which model was not trained.
        model: &'static str,
    },
    /// Training data was empty or inconsistent.
    InvalidTrainingData {
        /// Why the training data was rejected.
        reason: String,
    },
    /// An underlying DSP routine failed.
    Dsp(ppg_dsp::DspError),
    /// An underlying tinydl operation failed.
    TinyDl(tinydl::TinyDlError),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::InvalidWindow { model, reason } => {
                write!(f, "{model}: invalid window ({reason})")
            }
            ModelError::PredictionFailed { model, reason } => {
                write!(f, "{model}: prediction failed ({reason})")
            }
            ModelError::MissingSignals { model } => write!(
                f,
                "{model}: window is label-only, but the model reads its signal channels"
            ),
            ModelError::NotTrained { model } => write!(f, "{model}: model has not been trained"),
            ModelError::InvalidTrainingData { reason } => {
                write!(f, "invalid training data ({reason})")
            }
            ModelError::Dsp(e) => write!(f, "dsp error: {e}"),
            ModelError::TinyDl(e) => write!(f, "tinydl error: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Dsp(e) => Some(e),
            ModelError::TinyDl(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ppg_dsp::DspError> for ModelError {
    fn from(e: ppg_dsp::DspError) -> Self {
        ModelError::Dsp(e)
    }
}

impl From<tinydl::TinyDlError> for ModelError {
    fn from(e: tinydl::TinyDlError) -> Self {
        ModelError::TinyDl(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = ModelError::InvalidWindow {
            model: "at",
            reason: "empty".to_string(),
        };
        assert!(e.to_string().contains("at"));
        let e = ModelError::PredictionFailed {
            model: "spectral",
            reason: "no peak".to_string(),
        };
        assert!(e.to_string().contains("no peak"));
        assert!(ModelError::MissingSignals { model: "AT" }
            .to_string()
            .contains("label-only"));
        assert!(ModelError::NotTrained { model: "rf" }
            .to_string()
            .contains("trained"));
        assert!(ModelError::InvalidTrainingData {
            reason: "empty".to_string()
        }
        .to_string()
        .contains("empty"));
    }

    #[test]
    fn wrapped_errors_have_sources() {
        use std::error::Error;
        let e: ModelError = ppg_dsp::DspError::EmptyInput { op: "x" }.into();
        assert!(e.source().is_some());
        let e: ModelError = tinydl::TinyDlError::EmptyNetwork.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
