//! Recovery-path tests for the sweep runner, driven by the deterministic
//! fault-injection harness ([`sraps_exp::faults`]).
//!
//! The fault gate is process-global, so these tests live in their own
//! test binary (no other suite's sweeps can trip an armed plan) and
//! serialize against each other through `FAULT_GATE`, each holding it
//! for its whole body — clean reference runs included. Every arm is
//! wrapped in a guard that disarms on drop, assertion failures included.

use sraps_exp::faults::{self, FaultPlan};
use sraps_exp::{ExperimentMatrix, Report, SweepOptions, SweepRunner};
use sraps_types::SimDuration;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

static FAULT_GATE: Mutex<()> = Mutex::new(());

/// Exclusive use of the process-wide fault plan for one test.
fn gate() -> MutexGuard<'static, ()> {
    FAULT_GATE
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

/// Arm `spec` for the guard's lifetime (under the caller's [`gate`]).
struct Armed;

fn armed(spec: &str) -> Armed {
    faults::arm(FaultPlan::parse(spec).expect("test specs parse"));
    Armed
}

impl Drop for Armed {
    fn drop(&mut self) {
        faults::disarm();
    }
}

fn small_matrix() -> ExperimentMatrix {
    ExperimentMatrix::synthetic(["lassen"])
        .span(SimDuration::hours(2))
        .loads([0.5])
        .seed_count(1)
        .pairs([("fcfs", "none"), ("fcfs", "easy"), ("sjf", "easy")])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sraps-faults-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn persistent_panic_degrades_to_failed_cell_and_sweep_continues() {
    let _gate = gate();
    let _armed = armed("panic@1:persist");
    let results = SweepRunner::new(2).run(&small_matrix()).unwrap();
    assert_eq!(results.cells.len(), 3, "every cell produces a row");
    let failed = results.failed_cells();
    assert_eq!(failed.len(), 1, "exactly the poisoned cell fails");
    let failure = failed[0].failure.as_ref().unwrap();
    assert!(
        failure.error.contains("worker panic"),
        "panic surfaces in the error: {}",
        failure.error
    );
    assert_eq!(failure.attempts, 3, "default retries=2 ⇒ 3 attempts");
    assert_eq!(results.cells[1].metrics.jobs_completed, 0);
    for i in [0, 2] {
        assert!(results.cells[i].failure.is_none());
        assert!(results.cells[i].metrics.jobs_completed > 0);
    }
    // The report quarantines the failure: deltas come from healthy rows.
    let report = Report::from_results(&results);
    assert_eq!(report.rows.len(), 2);
    assert_eq!(report.failed.len(), 1);
    assert!(report.render_failed_table().contains("worker panic"));
    assert!(report.to_json().contains("\"failed\""));
}

#[test]
fn fire_once_panic_converges_via_retry() {
    let _gate = gate();
    let _armed = armed("panic@0");
    let results = SweepRunner::new(2).run(&small_matrix()).unwrap();
    assert!(
        results.cells.iter().all(|c| c.failure.is_none()),
        "one charge, retries=2 ⇒ the retry lands"
    );
    assert!(results.cells[0].metrics.jobs_completed > 0);
}

#[test]
fn fail_fast_aborts_on_the_poisoned_cell() {
    let _gate = gate();
    let _armed = armed("panic@1:persist");
    let err = SweepRunner::with_options(2, SweepOptions::new().fail_fast(true))
        .run(&small_matrix())
        .unwrap_err();
    assert!(
        err.to_string().contains("worker panic"),
        "fail-fast surfaces the cell error: {err}"
    );
}

#[test]
fn zero_retries_means_a_single_attempt() {
    let _gate = gate();
    let _armed = armed("panic@2");
    let results = SweepRunner::with_options(2, SweepOptions::new().retries(0))
        .run(&small_matrix())
        .unwrap();
    let failure = results.cells[2].failure.as_ref().expect("no retry budget");
    assert_eq!(failure.attempts, 1);
}

#[test]
fn cache_write_failure_degrades_and_the_cell_still_reports() {
    let _gate = gate();
    let dir = temp_dir("write-fail");
    let runner = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir));
    {
        let _armed = armed("write-fail@0:persist");
        let cold = runner.run(&small_matrix()).unwrap();
        assert!(
            cold.cells.iter().all(|c| c.failure.is_none()),
            "a failed write-back never fails the cell"
        );
        assert_eq!(cold.cache_misses(), 3);
    }
    // Cell 0's entry was never installed; the others were.
    let warm = runner.run(&small_matrix()).unwrap();
    assert_eq!(warm.cache_hits(), 2);
    assert_eq!(warm.cache_misses(), 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_fault_self_heals_on_rerun() {
    let _gate = gate();
    let dir = temp_dir("truncate");
    let runner = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir));
    let cold = {
        let _armed = armed("truncate@1");
        runner.run(&small_matrix()).unwrap()
    };
    // The torn entry fails validation, re-simulates, and is rewritten.
    let heal = runner.run(&small_matrix()).unwrap();
    assert_eq!(heal.cache_hits(), 2);
    assert_eq!(heal.cache_misses(), 1);
    assert_eq!(heal.cells[1].metrics, cold.cells[1].metrics);
    assert_eq!(
        runner.run(&small_matrix()).unwrap().cache_hits(),
        3,
        "healed cache serves every cell"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_group_panic_falls_back_to_per_cell_isolation() {
    let _gate = gate();
    // All three cells are one workload's group and share its window. A
    // panic stays with the cell that raised it, on one thread or two.
    let clean = SweepRunner::new(1).run(&small_matrix()).unwrap();
    for jobs in [1, 2] {
        {
            // Fire-once: the retry succeeds — no failures anywhere.
            let _armed = armed("panic@1");
            let results = SweepRunner::new(jobs).run(&small_matrix()).unwrap();
            assert!(results.cells.iter().all(|c| c.failure.is_none()));
            assert_eq!(
                Report::from_results(&clean).to_csv(),
                Report::from_results(&results).to_csv()
            );
        }
        {
            // Persistent: only the poisoned cell fails; its groupmates
            // complete on the shared window.
            let _armed = armed("panic@1:persist");
            let results = SweepRunner::new(jobs).run(&small_matrix()).unwrap();
            assert_eq!(results.failed_cells().len(), 1);
            assert!(results.cells[1].failure.is_some());
            for i in [0, 2] {
                assert_eq!(results.cells[i].metrics, clean.cells[i].metrics);
            }
        }
    }
}

#[test]
fn faulted_cold_run_matches_a_clean_run_byte_for_byte() {
    let _gate = gate();
    // Panics, retries, and a torn write later, the surviving artifacts
    // must be indistinguishable from a run that never saw a fault.
    let clean = SweepRunner::new(1).run(&small_matrix()).unwrap();
    let dir = temp_dir("parity");
    let runner = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir));
    {
        let _armed = armed("panic@0,write-fail@1,truncate@2");
        runner.run(&small_matrix()).unwrap();
    }
    let recovered = runner.run(&small_matrix()).unwrap();
    assert!(recovered.cells.iter().all(|c| c.failure.is_none()));
    assert_eq!(
        Report::from_results(&clean).to_csv(),
        Report::from_results(&recovered).to_csv(),
        "fault recovery must not perturb a single byte of the report"
    );
    std::fs::remove_dir_all(&dir).ok();
}
