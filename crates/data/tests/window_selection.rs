//! `Dataset::jobs_in_window` finds its bounds by binary search. It must
//! select exactly the jobs of the linear filter that states the rule
//! (§3.2.2: a job is dismissed if it ended before the window starts or
//! was submitted after it ends), in the same order, also after
//! `Dataset::edit_jobs` has moved submit and end times.

use proptest::prelude::*;
use sraps_data::Dataset;
use sraps_types::job::JobBuilder;
use sraps_types::{Job, SimTime};

/// One generated job: submit time, end relative to submit (negative: it
/// ends before it is submitted), and whether it has zero length.
type Shape = (i64, i64, bool);

/// A window: start and length (zero or negative lengths included).
type Window = (i64, i64);

/// One edit: which job, how far to move its submit and its end.
type Edit = (usize, i64, i64);

fn job(id: u64, (submit, end, zero_length): Shape, grain: i64) -> Job {
    let mut j = JobBuilder::new(id).build();
    // Coarse grains put many jobs on one submit time.
    j.submit = SimTime::seconds(submit / grain * grain);
    j.recorded_end = j.submit + sraps_types::SimDuration::seconds(end);
    j.recorded_start = if zero_length {
        j.recorded_end
    } else {
        j.submit.min(j.recorded_end)
    };
    j
}

fn dataset(shapes: &[Shape], grain: i64, long_job: bool) -> Dataset {
    let mut jobs: Vec<Job> = shapes
        .iter()
        .enumerate()
        .map(|(i, &s)| job(i as u64, s, grain))
        .collect();
    if long_job {
        // Spans every window the test draws inside the capture.
        let mut j = JobBuilder::new(jobs.len() as u64).build();
        j.submit = SimTime::seconds(5);
        j.recorded_start = j.submit;
        j.recorded_end = SimTime::seconds(1_900);
        jobs.push(j);
    }
    Dataset::new("t", jobs)
}

fn linear(ds: &Dataset, start: SimTime, end: SimTime) -> Vec<u64> {
    ds.jobs()
        .iter()
        .filter(|j| j.recorded_end > start && j.submit < end)
        .map(|j| j.id.0)
        .collect()
}

fn searched(ds: &Dataset, start: SimTime, end: SimTime) -> Vec<u64> {
    ds.jobs_in_window(start, end).map(|j| j.id.0).collect()
}

fn check(ds: &Dataset, windows: &[Window]) -> Result<(), TestCaseError> {
    for &(start, len) in windows {
        let (start, end) = (SimTime::seconds(start), SimTime::seconds(start + len));
        prop_assert_eq!(
            searched(ds, start, end),
            linear(ds, start, end),
            "window {}..{} over {} jobs",
            start,
            end,
            ds.len()
        );
    }
    Ok(())
}

fn shapes() -> impl Strategy<Value = Vec<Shape>> {
    prop::collection::vec((0i64..1_000, -300i64..400, any::<bool>()), 0..60)
}

fn windows() -> impl Strategy<Value = Vec<Window>> {
    // Starts reach before and past the capture; lengths can be empty.
    prop::collection::vec((-500i64..2_500, -100i64..600), 1..12)
}

fn edits() -> impl Strategy<Value = Vec<Edit>> {
    prop::collection::vec((0usize..1 << 20, -400i64..400, -600i64..600), 0..8)
}

proptest! {
    /// Same jobs, same order as the linear filter, before and after
    /// edits that move submit and recorded end times.
    #[test]
    fn window_selection_equals_the_linear_filter(
        shapes in shapes(),
        coarse in any::<bool>(),
        long_job in any::<bool>(),
        windows in windows(),
        edits in edits(),
    ) {
        let mut ds = dataset(&shapes, if coarse { 250 } else { 1 }, long_job);
        check(&ds, &windows)?;
        for (pick, d_submit, d_end) in edits {
            if ds.is_empty() {
                break;
            }
            let i = pick % ds.len();
            ds.edit_jobs(|jobs| {
                let j = &mut jobs[i];
                j.submit += sraps_types::SimDuration::seconds(d_submit);
                j.recorded_end += sraps_types::SimDuration::seconds(d_end);
            });
            prop_assert!(
                ds.jobs().windows(2).all(|w| (w[0].submit, w[0].id) <= (w[1].submit, w[1].id)),
                "edit_jobs restores the (submit, id) order"
            );
            check(&ds, &windows)?;
        }
    }
}

#[test]
fn an_empty_dataset_selects_nothing() {
    let mut ds = Dataset::new("t", Vec::new());
    for (start, end) in [(0, 0), (-10, 10), (10, -10)] {
        let (start, end) = (SimTime::seconds(start), SimTime::seconds(end));
        assert_eq!(ds.jobs_in_window(start, end).count(), 0);
    }
    ds.edit_jobs(|jobs| jobs.push(JobBuilder::new(1).build()));
    assert_eq!(
        searched(&ds, SimTime::seconds(-1), SimTime::seconds(1)),
        vec![1]
    );
}
