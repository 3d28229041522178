//! Per-window power-state traces.
//!
//! The paper's Fig. 3 decomposes the smartwatch cost of one prediction into
//! compute energy (including idle between predictions), phone compute energy
//! and BLE transmission energy. [`PowerStateTrace`] records that decomposition
//! explicitly: the CHRIS runtime pushes one phase per activity of the MCU
//! (sensor acquisition, local compute, radio transmission, sleep) and the
//! reporting layer reads the per-state totals.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::units::{Energy, Power, TimeSpan};

/// The power states the smartwatch MCU/radio can be in during one prediction
/// period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// Sensor acquisition (PPG + IMU sampling and buffering).
    Acquire,
    /// Local model execution on the MCU.
    Compute,
    /// BLE transmission of an offloaded window.
    RadioTx,
    /// Low-power sleep between predictions.
    Sleep,
}

impl PowerState {
    /// All states in a stable order.
    pub const ALL: [PowerState; 4] = [
        PowerState::Acquire,
        PowerState::Compute,
        PowerState::RadioTx,
        PowerState::Sleep,
    ];

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PowerState::Acquire => "acquire",
            PowerState::Compute => "compute",
            PowerState::RadioTx => "radio_tx",
            PowerState::Sleep => "sleep",
        }
    }

    /// Position in [`PowerState::ALL`].
    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for PowerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-state and total running sums over pushed power-state phases.
///
/// Memory is constant however many phases are pushed. Every sum starts at
/// zero and adds phases in push order, so each total is bit-identical to
/// summing a recorded phase log afterwards.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerStateTrace {
    /// Energy per state, indexed like [`PowerState::ALL`]; `None` for a
    /// state no phase entered.
    energy: [Option<Energy>; 4],
    total_energy: Energy,
    total_duration: TimeSpan,
    phases: usize,
}

impl PowerStateTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a phase with an explicit energy.
    pub fn push(&mut self, state: PowerState, duration: TimeSpan, energy: Energy) {
        *self.energy[state.index()].get_or_insert(Energy::ZERO) += energy;
        self.total_energy += energy;
        self.total_duration += duration;
        self.phases += 1;
    }

    /// Adds a phase whose energy is `power × duration`.
    pub fn push_at_power(&mut self, state: PowerState, duration: TimeSpan, power: Power) {
        self.push(state, duration, power * duration);
    }

    /// Number of phases pushed.
    pub fn len(&self) -> usize {
        self.phases
    }

    /// Whether no phase has been pushed.
    pub fn is_empty(&self) -> bool {
        self.phases == 0
    }

    /// Total energy across all phases.
    pub fn total_energy(&self) -> Energy {
        self.total_energy
    }

    /// Total duration across all phases.
    pub fn total_duration(&self) -> TimeSpan {
        self.total_duration
    }

    /// Energy spent in one state.
    pub fn energy_in(&self, state: PowerState) -> Energy {
        self.energy[state.index()].unwrap_or(Energy::ZERO)
    }

    /// Per-state energy breakdown over the states some phase entered.
    pub fn breakdown(&self) -> BTreeMap<PowerState, Energy> {
        PowerState::ALL
            .into_iter()
            .filter_map(|state| Some((state, self.energy[state.index()]?)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_names_are_unique() {
        let mut names: Vec<_> = PowerState::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
        assert_eq!(PowerState::RadioTx.to_string(), "radio_tx");
    }

    #[test]
    fn trace_accumulates_energy_and_time() {
        let mut t = PowerStateTrace::new();
        assert!(t.is_empty());
        t.push(
            PowerState::Compute,
            TimeSpan::from_millis(20.0),
            Energy::from_millijoules(0.5),
        );
        t.push(
            PowerState::Sleep,
            TimeSpan::from_millis(1980.0),
            Energy::from_millijoules(0.19),
        );
        assert_eq!(t.len(), 2);
        assert!((t.total_energy().as_millijoules() - 0.69).abs() < 1e-9);
        assert!((t.total_duration().as_millis() - 2000.0).abs() < 1e-9);
        assert!((t.energy_in(PowerState::Compute).as_millijoules() - 0.5).abs() < 1e-9);
        assert_eq!(t.energy_in(PowerState::RadioTx), Energy::ZERO);
    }

    #[test]
    fn push_at_power_computes_energy() {
        let mut t = PowerStateTrace::new();
        t.push_at_power(
            PowerState::RadioTx,
            TimeSpan::from_millis(10.24),
            Power::from_milliwatts(50.78),
        );
        assert!((t.total_energy().as_millijoules() - 0.52).abs() < 0.01);
    }

    #[test]
    fn breakdown_groups_by_state() {
        let mut t = PowerStateTrace::new();
        t.push(
            PowerState::Compute,
            TimeSpan::from_millis(1.0),
            Energy::from_microjoules(10.0),
        );
        t.push(
            PowerState::Compute,
            TimeSpan::from_millis(1.0),
            Energy::from_microjoules(15.0),
        );
        t.push(
            PowerState::Sleep,
            TimeSpan::from_millis(1.0),
            Energy::from_microjoules(1.0),
        );
        let b = t.breakdown();
        assert_eq!(b.len(), 2);
        assert!((b[&PowerState::Compute].as_microjoules() - 25.0).abs() < 1e-9);
        assert!((b[&PowerState::Sleep].as_microjoules() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sums_equal_a_phase_log_summed_in_push_order() {
        // Values whose f64 sums depend on the order they are added in.
        let phases = [
            (PowerState::Compute, 0.1),
            (PowerState::Sleep, 1e16),
            (PowerState::Compute, 0.2),
            (PowerState::Sleep, -1e16),
            (PowerState::Compute, 0.3),
            (PowerState::Sleep, 3.0),
        ];
        let mut t = PowerStateTrace::new();
        for &(state, uj) in &phases {
            t.push(
                state,
                TimeSpan::from_millis(1.0),
                Energy::from_microjoules(uj),
            );
        }
        let logged = |state: Option<PowerState>| -> Energy {
            phases
                .iter()
                .filter(|(s, _)| state.is_none_or(|want| *s == want))
                .map(|&(_, uj)| Energy::from_microjoules(uj))
                .sum()
        };
        assert_eq!(t.total_energy(), logged(None));
        for state in PowerState::ALL {
            assert_eq!(t.energy_in(state), logged(Some(state)));
        }
        assert_eq!(t.len(), phases.len());
        assert!(!t.breakdown().contains_key(&PowerState::RadioTx));
    }
}
