//! The loaded dataset handed to the engine.

use sraps_types::{telemetry::capture_flags, Job, SimTime};

/// A fully-loaded workload: jobs plus the telemetry capture window the
/// dataloader identified (§3.2.2: "the dataloader must identify … telemetry
/// start and end time").
#[derive(Debug, Clone, Default)]
pub struct Dataset {
    /// System the dataset belongs to (`--system` value).
    pub system: String,
    /// In (submit, id) order. Read through [`Dataset::jobs`]; change
    /// through [`Dataset::edit_jobs`], which restores the order.
    jobs: Vec<Job>,
    /// `latest_end[i]` is the latest `recorded_end` of `jobs[..=i]`. It
    /// never decreases, so [`Dataset::jobs_in_window`] binary-searches it
    /// for the first job that can still run at a window's start.
    latest_end: Vec<SimTime>,
    /// First instant covered by telemetry.
    pub capture_start: SimTime,
    /// Last instant covered by telemetry.
    pub capture_end: SimTime,
}

impl Dataset {
    /// Assemble a dataset, deriving the capture window from the jobs when
    /// not supplied, and stamping each job's capture flags.
    pub fn new(system: &str, jobs: Vec<Job>) -> Self {
        let mut ds = Dataset {
            system: system.to_string(),
            jobs,
            ..Dataset::default()
        };
        ds.reindex();
        ds.capture_start = ds
            .jobs
            .iter()
            .map(|j| j.submit.min(j.recorded_start))
            .min()
            .unwrap_or(SimTime::ZERO);
        ds.capture_end = ds.latest_end.last().copied().unwrap_or(SimTime::ZERO);
        let (start, end) = (ds.capture_start, ds.capture_end);
        for j in &mut ds.jobs {
            j.telemetry.flags = capture_flags(j.recorded_start, j.recorded_end, start, end);
        }
        ds
    }

    /// The jobs, in (submit, id) order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Change the jobs through `f` (edit, add, drop, reorder), then restore
    /// the (submit, id) order and the index [`Dataset::jobs_in_window`]
    /// searches. Returns what `f` returns. The capture bounds and each
    /// job's capture flags stay as [`Dataset::new`] set them.
    pub fn edit_jobs<R>(&mut self, f: impl FnOnce(&mut Vec<Job>) -> R) -> R {
        let out = f(&mut self.jobs);
        self.reindex();
        out
    }

    /// Sort the jobs (stable, so ties keep their order) and rebuild the
    /// running maximum of `recorded_end`.
    fn reindex(&mut self) {
        self.jobs.sort_by_key(|j| (j.submit, j.id));
        let mut latest = SimTime(i64::MIN);
        self.latest_end.clear();
        self.latest_end.extend(self.jobs.iter().map(|j| {
            latest = latest.max(j.recorded_end);
            latest
        }));
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The simulation bounds a window request resolves to: an unset bound
    /// is the capture bound on that side.
    pub fn resolve_window(
        &self,
        start: Option<SimTime>,
        end: Option<SimTime>,
    ) -> (SimTime, SimTime) {
        (
            start.unwrap_or(self.capture_start),
            end.unwrap_or(self.capture_end),
        )
    }

    /// Jobs overlapping `[start, end)` — §3.2.2: "jobs that ended before
    /// start of the simulation time or were submitted after end of the
    /// simulation time are dismissed" — in dataset order: exactly the jobs
    /// and order of `jobs().iter().filter(|j| j.recorded_end > start &&
    /// j.submit < end)`. Two binary searches bound the scan: on `submit`
    /// for the first job submitted at or after `end`, and on the running
    /// maximum of `recorded_end` for the first job that can end after
    /// `start`. Only the jobs between them are filtered, so the cost
    /// follows the window, not the length of the trace.
    pub fn jobs_in_window(&self, start: SimTime, end: SimTime) -> impl Iterator<Item = &Job> {
        let hi = self.jobs.partition_point(|j| j.submit < end);
        let lo = self.latest_end[..hi].partition_point(|&e| e <= start);
        self.jobs[lo..hi]
            .iter()
            .filter(move |j| j.recorded_end > start)
    }

    /// Peak concurrent node demand of the *recorded* schedule — used by
    /// tests to confirm packer feasibility against a system size.
    pub fn peak_recorded_nodes(&self) -> u64 {
        let mut events: Vec<(SimTime, i64)> = Vec::with_capacity(self.jobs.len() * 2);
        for j in &self.jobs {
            if j.recorded_end > j.recorded_start {
                events.push((j.recorded_start, j.nodes_requested as i64));
                events.push((j.recorded_end, -(j.nodes_requested as i64)));
            }
        }
        events.sort();
        let (mut cur, mut peak) = (0i64, 0i64);
        for (_, d) in events {
            cur += d;
            peak = peak.max(cur);
        }
        peak.max(0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_types::job::JobBuilder;
    use sraps_types::SimDuration;

    fn job(id: u64, submit: i64, start: i64, end: i64, nodes: u32) -> Job {
        JobBuilder::new(id)
            .submit(SimTime::seconds(submit))
            .window(SimTime::seconds(start), SimTime::seconds(end))
            .walltime(SimDuration::seconds(end - start))
            .nodes(nodes)
            .build()
    }

    #[test]
    fn capture_window_derived_from_jobs() {
        let d = Dataset::new("t", vec![job(1, 10, 20, 100, 1), job(2, 5, 30, 80, 2)]);
        assert_eq!(d.capture_start, SimTime::seconds(5));
        assert_eq!(d.capture_end, SimTime::seconds(100));
    }

    #[test]
    fn jobs_sorted_by_submit() {
        let d = Dataset::new("t", vec![job(1, 50, 60, 70, 1), job(2, 10, 20, 30, 1)]);
        assert_eq!(d.jobs[0].id.0, 2);
    }

    #[test]
    fn window_filter_dismisses_out_of_range() {
        let d = Dataset::new(
            "t",
            vec![
                job(1, 0, 0, 50, 1),      // ends before window
                job(2, 40, 60, 120, 1),   // overlaps
                job(3, 300, 310, 400, 1), // submitted after window
            ],
        );
        let kept: Vec<u64> = d
            .jobs_in_window(SimTime::seconds(60), SimTime::seconds(200))
            .map(|j| j.id.0)
            .collect();
        assert_eq!(kept, vec![2]);
    }

    #[test]
    fn peak_recorded_nodes_counts_overlap() {
        let d = Dataset::new(
            "t",
            vec![
                job(1, 0, 0, 100, 3),
                job(2, 0, 50, 150, 4),
                job(3, 0, 120, 200, 5),
            ],
        );
        // Overlap at t in [50,100): 3+4=7; at [120,150): 4+5=9.
        assert_eq!(d.peak_recorded_nodes(), 9);
    }

    #[test]
    fn empty_dataset_is_safe() {
        let d = Dataset::new("t", vec![]);
        assert!(d.is_empty());
        assert_eq!(d.peak_recorded_nodes(), 0);
    }
}
