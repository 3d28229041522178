//! Model-invocation instrumentation.
//!
//! [`InstrumentedEstimator`] wraps any [`HrEstimator`] and counts its
//! predictions into the `chris_model_invocations_total{model=...}` series of
//! the registry that was active when the estimator was *constructed* (the
//! fleet executor builds estimators inside each worker's registry scope).
//! The counter handle is resolved once at construction, so the per-predict
//! cost is a single relaxed atomic increment. Invocation totals depend only
//! on the simulated workload, making the series
//! [`Stable`](telemetry::Stability::Stable) and safe to embed in byte-stable
//! shard artifacts.

use hw_sim::profile::Workload;
use ppg_data::{LabeledWindow, WindowDemand};
use telemetry::{Counter, Stability};

use crate::error::ModelError;
use crate::traits::HrEstimator;

/// Series name of the per-model prediction counter (labelled by `model`).
pub const MODEL_INVOCATIONS_SERIES: &str = "chris_model_invocations_total";

/// Help text of the [`MODEL_INVOCATIONS_SERIES`] family.
pub const MODEL_INVOCATIONS_HELP: &str = "HR predictions executed, by model";

/// Registers (or resolves) the invocation counter for `model` on the
/// current thread's active registry.
pub fn invocation_counter(model: &str) -> Counter {
    telemetry::active()
        .counter(
            MODEL_INVOCATIONS_SERIES,
            &[("model", model)],
            MODEL_INVOCATIONS_HELP,
            Stability::Stable,
        )
        .expect("model invocation counter registration cannot fail")
}

/// An [`HrEstimator`] decorator counting predictions into the telemetry
/// registry active at construction time.
#[derive(Debug)]
pub struct InstrumentedEstimator {
    inner: Box<dyn HrEstimator>,
    invocations: Counter,
}

impl InstrumentedEstimator {
    /// Wraps `inner`, registering its invocation counter eagerly (the series
    /// exists — at zero — even if the model is never invoked, so shards
    /// always expose identical series sets).
    pub fn new(inner: Box<dyn HrEstimator>) -> Self {
        let invocations = invocation_counter(inner.name());
        Self { inner, invocations }
    }
}

impl HrEstimator for InstrumentedEstimator {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict(&mut self, window: &LabeledWindow) -> Result<f32, ModelError> {
        self.invocations.inc();
        self.inner.predict(window)
    }

    fn workload(&self) -> Workload {
        self.inner.workload()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn demand(&self) -> WindowDemand {
        self.inner.demand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::{ModelKind, ModelZoo};

    #[test]
    fn predictions_are_counted_under_the_construction_scope() {
        let registry = telemetry::Registry::new();
        let window = test_window();
        {
            let _scope = telemetry::scoped(&registry);
            let zoo = ModelZoo::paper_setup();
            let mut estimator = zoo.calibrated_estimator(ModelKind::AdaptiveThreshold, 7);
            estimator.predict(&window).unwrap();
            estimator.predict(&window).unwrap();
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter_value(MODEL_INVOCATIONS_SERIES, &[("model", "AT")]),
            Some(2)
        );
    }

    fn test_window() -> LabeledWindow {
        use ppg_data::{Activity, SubjectId};
        LabeledWindow {
            subject: SubjectId(0),
            activity: Activity::Resting,
            hr_bpm: 70.0,
            ppg: vec![0.5; 256],
            accel_x: vec![0.0; 256],
            accel_y: vec![0.0; 256],
            accel_z: vec![1.0; 256],
            mean_motion_g: Some(0.0),
        }
    }
}
