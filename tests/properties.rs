//! Property-based integration tests on the CHRIS decision machinery.

use chris::core::config::{Configuration, DifficultyThreshold, ExecutionTarget};
use chris::core::pareto::{dominated_by, pareto_front};
use chris::core::profiling::ConfigurationProfile;
use chris::prelude::*;
use proptest::prelude::*;

fn arbitrary_profile() -> impl Strategy<Value = ConfigurationProfile> {
    (0u8..=9, prop::bool::ANY, 3.0f32..15.0, 0.1f64..45.0).prop_map(
        |(threshold, hybrid, mae, energy_mj)| ConfigurationProfile {
            configuration: Configuration::new(
                ModelKind::AdaptiveThreshold,
                ModelKind::TimePpgBig,
                DifficultyThreshold::new(threshold).expect("threshold in range"),
                if hybrid {
                    ExecutionTarget::Hybrid
                } else {
                    ExecutionTarget::Local
                },
            )
            .expect("ordered pair"),
            mae_bpm: mae,
            watch_energy: Energy::from_millijoules(energy_mj),
            phone_energy: Energy::ZERO,
            offload_fraction: if hybrid { 0.5 } else { 0.0 },
            simple_fraction: 0.5,
            windows: 100,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pareto_front_points_are_mutually_non_dominated(
        profiles in prop::collection::vec(arbitrary_profile(), 1..40)
    ) {
        let front = pareto_front(&profiles, |p| {
            (p.watch_energy.as_microjoules(), f64::from(p.mae_bpm))
        });
        for &i in &front {
            for &j in &front {
                if i != j {
                    let a = (profiles[i].watch_energy.as_microjoules(), f64::from(profiles[i].mae_bpm));
                    let b = (profiles[j].watch_energy.as_microjoules(), f64::from(profiles[j].mae_bpm));
                    prop_assert!(!dominated_by(a, b), "front point {i} dominated by {j}");
                }
            }
        }
    }

    #[test]
    fn every_non_front_point_is_dominated_by_some_front_point(
        profiles in prop::collection::vec(arbitrary_profile(), 1..40)
    ) {
        let objectives = |p: &ConfigurationProfile| {
            (p.watch_energy.as_microjoules(), f64::from(p.mae_bpm))
        };
        let front = pareto_front(&profiles, objectives);
        for (i, p) in profiles.iter().enumerate() {
            if front.contains(&i) {
                continue;
            }
            let candidate = objectives(p);
            let dominated_or_duplicate = front.iter().any(|&j| {
                let other = objectives(&profiles[j]);
                dominated_by(candidate, other) || other == candidate
            });
            prop_assert!(dominated_or_duplicate, "point {i} neither on the front nor dominated");
        }
    }

    #[test]
    fn max_mae_selection_satisfies_the_constraint_when_some_point_does(
        profiles in prop::collection::vec(arbitrary_profile(), 1..40),
        max_mae in 3.0f32..15.0
    ) {
        let engine = DecisionEngine::new(profiles.clone());
        let selected = engine.select(&UserConstraint::MaxMae(max_mae), ConnectionStatus::Connected);
        let exists = profiles.iter().any(|p| p.mae_bpm <= max_mae);
        prop_assert_eq!(selected.is_some(), exists);
        if let Some(s) = selected {
            prop_assert!(s.mae_bpm <= max_mae);
            // No cheaper profile also satisfies the constraint.
            for p in &profiles {
                if p.mae_bpm <= max_mae {
                    prop_assert!(s.watch_energy <= p.watch_energy);
                }
            }
        }
    }

    #[test]
    fn max_energy_selection_is_the_most_accurate_affordable(
        profiles in prop::collection::vec(arbitrary_profile(), 1..40),
        budget_mj in 0.1f64..45.0
    ) {
        let engine = DecisionEngine::new(profiles.clone());
        let budget = Energy::from_millijoules(budget_mj);
        let selected = engine.select(&UserConstraint::MaxEnergy(budget), ConnectionStatus::Connected);
        if let Some(s) = selected {
            prop_assert!(s.watch_energy <= budget);
            for p in &profiles {
                if p.watch_energy <= budget {
                    prop_assert!(s.mae_bpm <= p.mae_bpm);
                }
            }
        } else {
            prop_assert!(profiles.iter().all(|p| p.watch_energy > budget));
        }
    }

    #[test]
    fn disconnected_selection_never_picks_a_hybrid_configuration(
        profiles in prop::collection::vec(arbitrary_profile(), 1..40),
        max_mae in 3.0f32..15.0
    ) {
        let engine = DecisionEngine::new(profiles);
        if let Some(s) = engine.select(&UserConstraint::MaxMae(max_mae), ConnectionStatus::Disconnected) {
            prop_assert_eq!(s.configuration.target, ExecutionTarget::Local);
        }
        for p in engine.pareto(ConnectionStatus::Disconnected) {
            prop_assert_eq!(p.configuration.target, ExecutionTarget::Local);
        }
    }

    #[test]
    fn difficulty_threshold_routing_is_monotone(threshold in 0u8..=9, difficulty in 1u8..=9) {
        let thr = DifficultyThreshold::new(threshold).unwrap();
        let level = chris::data::DifficultyLevel::new(difficulty).unwrap();
        let simple = thr.routes_to_simple(level);
        // A harder window can never be routed to the simple model if an easier
        // one was not.
        if difficulty > 1 {
            let easier = chris::data::DifficultyLevel::new(difficulty - 1).unwrap();
            if simple {
                prop_assert!(thr.routes_to_simple(easier));
            }
        }
        // Larger thresholds route at least as many difficulties to the simple model.
        if threshold < 9 {
            let larger = DifficultyThreshold::new(threshold + 1).unwrap();
            if simple {
                prop_assert!(larger.routes_to_simple(level));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn dataset_windows_are_always_well_formed(subjects in 1usize..3, seed in 0u64..1000) {
        let dataset = DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(16.0)
            .seed(seed)
            .build()
            .unwrap();
        let windows = dataset.windows();
        prop_assert!(!windows.is_empty());
        for w in &windows {
            prop_assert_eq!(w.ppg.len(), 256);
            prop_assert_eq!(w.accel_x.len(), 256);
            prop_assert!(w.hr_bpm >= 40.0 && w.hr_bpm <= 190.0);
            prop_assert!(w.ppg.iter().all(|x| x.is_finite()));
            prop_assert!(w.mean_motion_g.is_some_and(|m| m >= 0.0));
        }
    }
}
