//! Integration tests of the synthetic dataset generator: statistical
//! properties that the downstream experiments rely on.

use ppg_data::{Activity, CrossValidation, DatasetBuilder, SubjectId};
use ppg_dsp::features::AccelFeatures;
use proptest::prelude::*;

#[test]
fn activity_energy_ordering_matches_difficulty_ranking() {
    // The foundation of the paper's difficulty proxy: ordering activities by
    // average accelerometer energy reproduces the difficulty ranking.
    let dataset = DatasetBuilder::new()
        .subjects(4)
        .seconds_per_activity(40.0)
        .seed(77)
        .build()
        .unwrap();
    let windows = dataset.windows();
    let mean_energy = |activity: Activity| {
        let values: Vec<f32> = windows
            .iter()
            .filter(|w| w.activity == activity)
            .map(|w| {
                AccelFeatures::from_axes(&w.accel_x, &w.accel_y, &w.accel_z)
                    .unwrap()
                    .mean_axis_energy()
            })
            .collect();
        values.iter().sum::<f32>() / values.len() as f32
    };
    // The raw accelerometer energy is dominated by the ~1 g gravity component
    // for sedentary activities, so the exact 9-way ordering is noisy there;
    // what CHRIS needs is that the difficulty *groups* are separable, which is
    // what the grouped means check.
    let energies: Vec<f32> = Activity::ALL.iter().map(|&a| mean_energy(a)).collect();
    let group_mean = |range: std::ops::Range<usize>| {
        energies[range.clone()].iter().sum::<f32>() / range.len() as f32
    };
    let easy = group_mean(0..3);
    let medium = group_mean(3..6);
    let hard = group_mean(6..9);
    assert!(
        medium > easy,
        "medium {medium} should exceed easy {easy}: {energies:?}"
    );
    assert!(
        hard > medium * 1.5,
        "hard {hard} should clearly exceed medium {medium}: {energies:?}"
    );
    // And the hardest activity individually dominates every easy one.
    for easy_energy in &energies[..3] {
        assert!(energies[8] > easy_energy * 2.0);
    }
}

#[test]
fn ppg_quality_degrades_with_activity_difficulty() {
    // The mean motion envelope per window (the quantity coupled into the PPG)
    // grows by more than an order of magnitude from resting to table soccer.
    let dataset = DatasetBuilder::new()
        .subjects(3)
        .seconds_per_activity(40.0)
        .seed(78)
        .build()
        .unwrap();
    let windows = dataset.windows();
    let mean_motion = |activity: Activity| {
        let values: Vec<f32> = windows
            .iter()
            .filter(|w| w.activity == activity)
            .map(|w| w.mean_motion_g.expect("full windows carry motion"))
            .collect();
        values.iter().sum::<f32>() / values.len() as f32
    };
    assert!(mean_motion(Activity::TableSoccer) > mean_motion(Activity::Resting) * 10.0);
    assert!(mean_motion(Activity::Walking) > mean_motion(Activity::Working) * 2.0);
}

#[test]
fn subjects_differ_but_activities_are_balanced_per_subject() {
    let dataset = DatasetBuilder::new()
        .subjects(3)
        .seconds_per_activity(30.0)
        .seed(79)
        .build()
        .unwrap();
    let windows = dataset.windows();
    for s in 0..3 {
        let per_subject: Vec<_> = windows
            .iter()
            .filter(|w| w.subject == SubjectId(s))
            .collect();
        assert!(!per_subject.is_empty());
        let mut counts = std::collections::HashMap::new();
        for w in &per_subject {
            *counts.entry(w.activity).or_insert(0usize) += 1;
        }
        assert_eq!(counts.len(), 9);
        let first = *counts.values().next().unwrap();
        assert!(counts.values().all(|&c| c == first));
    }
    // Different subjects produce different signals.
    let a = &windows
        .iter()
        .find(|w| w.subject == SubjectId(0))
        .unwrap()
        .ppg;
    let b = &windows
        .iter()
        .find(|w| w.subject == SubjectId(1))
        .unwrap()
        .ppg;
    assert_ne!(a, b);
}

#[test]
fn paper_cross_validation_covers_every_subject_exactly_once_as_test() {
    let cv = CrossValidation::paper_protocol().unwrap();
    assert_eq!(cv.len(), 15);
    let mut tested = [0usize; 15];
    for fold in cv.folds() {
        assert!(fold.is_disjoint());
        tested[fold.test[0].0] += 1;
    }
    assert!(tested.iter().all(|&t| t == 1));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn window_count_matches_duration(seconds in 16.0f32..64.0, subjects in 1usize..3) {
        let dataset = DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(seconds)
            .seed(80)
            .build()
            .unwrap();
        let samples = (seconds * 32.0) as usize;
        let per_recording = if samples >= 256 { (samples - 256) / 64 + 1 } else { 0 };
        prop_assert_eq!(dataset.windows().len(), per_recording * 9 * subjects);
    }

    #[test]
    fn ground_truth_hr_respects_activity_bands_loosely(seed in 0u64..100) {
        let dataset = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(20.0)
            .seed(seed)
            .build()
            .unwrap();
        for w in dataset.windows() {
            // Ground-truth HR stays within a generous envelope of the activity
            // band (subject variability and transients allowed).
            let (lo, hi) = w.activity.hr_band_bpm();
            prop_assert!(w.hr_bpm > lo - 30.0 && w.hr_bpm < hi + 35.0,
                "{}: {} BPM outside generous band ({lo}, {hi})", w.activity, w.hr_bpm);
        }
    }
}
