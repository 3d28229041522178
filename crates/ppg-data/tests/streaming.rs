//! Conformance suite for streaming window synthesis: for random
//! `(seed, subjects, schedule)` parameters, the lazy `WindowSource` paths
//! must be **element-wise identical** to the legacy eager vectors — the
//! property that lets every downstream report stay byte-identical after the
//! streaming redesign.

use ppg_data::{Activity, DatasetBuilder, WindowDemand, WindowSource};
use proptest::prelude::*;

/// Decodes a non-empty activity subset from a 9-bit mask.
fn activities_from_mask(mask: usize) -> Vec<Activity> {
    Activity::ALL
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &a)| a)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `DatasetBuilder::window_stream()` collected equals
    /// `build()?.windows()` for random generation parameters, with an exact
    /// `len`/`size_hint`.
    #[test]
    fn synth_stream_is_element_wise_identical_to_eager_build(
        seed in 0u64..10_000,
        subjects in 1usize..=3,
        seconds_idx in 0usize..3,
        activity_mask in 1usize..512,
    ) {
        let seconds = [16.0f32, 24.0, 40.0][seconds_idx];
        let activities = activities_from_mask(activity_mask);
        let builder = || DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(seconds)
            .seed(seed)
            .activities(&activities);

        let eager = builder().build().unwrap().windows();
        let stream = builder().window_stream().unwrap();
        prop_assert_eq!(stream.len(), eager.len());
        prop_assert_eq!(stream.size_hint(), (eager.len(), Some(eager.len())));
        let streamed: Vec<_> = stream.iter().map(Result::unwrap).collect();
        prop_assert_eq!(streamed, eager);
    }

    /// The lazy streams over a *materialized* dataset (dataset- and
    /// recording-level) also replay the eager vectors exactly.
    #[test]
    fn dataset_and_recording_streams_match_their_eager_vectors(
        seed in 0u64..10_000,
        subjects in 1usize..=2,
    ) {
        let dataset = DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(20.0)
            .seed(seed)
            .build()
            .unwrap();

        let eager = dataset.windows();
        let streamed: Vec<_> = dataset.window_stream().iter().map(Result::unwrap).collect();
        prop_assert_eq!(&streamed, &eager);

        let mut from_recordings = Vec::new();
        for recording in dataset.recordings() {
            prop_assert_eq!(recording.window_count(), recording.windows().unwrap().len());
            from_recordings.extend(recording.window_stream().iter().map(Result::unwrap));
        }
        prop_assert_eq!(&from_recordings, &eager);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Label-only synthesis is a differential twin of full synthesis: for
    /// any seed, subject count, schedule (repeats and any order allowed) and
    /// recording length, the label-only stream yields the same number of
    /// windows with bit-identical `subject`, `activity` and `hr_bpm`, each
    /// window label-only and not empty.
    #[test]
    fn label_only_stream_matches_the_full_stream_labels(
        seed in 0u64..u64::MAX,
        subjects in 1usize..=3,
        schedule in prop::collection::vec(0usize..Activity::COUNT, 1..=6),
        seconds in 8.0f32..40.0,
    ) {
        let activities: Vec<Activity> = schedule.iter().map(|&i| Activity::ALL[i]).collect();
        let builder = || DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(seconds)
            .seed(seed)
            .activities(&activities);

        let full = builder().window_stream().unwrap();
        let labels = builder().demand(WindowDemand::Labels).window_stream().unwrap();
        prop_assert_eq!(labels.len(), full.len());
        let full: Vec<_> = full.iter().map(Result::unwrap).collect();
        let labels: Vec<_> = labels.iter().map(Result::unwrap).collect();
        prop_assert_eq!(labels.len(), full.len());
        for (l, f) in labels.iter().zip(&full) {
            prop_assert_eq!(l.subject, f.subject);
            prop_assert_eq!(l.activity, f.activity);
            prop_assert_eq!(l.hr_bpm.to_bits(), f.hr_bpm.to_bits());
            prop_assert!(l.is_label_only() && !l.is_empty());
            prop_assert!(l.ppg.is_empty() && l.accel_x.is_empty());
            prop_assert!(!f.is_label_only() && f.mean_motion_g.is_some());
        }
    }
}

#[test]
fn builder_stream_validates_parameters_like_build() {
    assert!(DatasetBuilder::new().subjects(0).window_stream().is_err());
    assert!(DatasetBuilder::new().subjects(16).window_stream().is_err());
    assert!(DatasetBuilder::new()
        .seconds_per_activity(1.0)
        .window_stream()
        .is_err());
    assert!(DatasetBuilder::new()
        .activities(&[])
        .window_stream()
        .is_err());
}
