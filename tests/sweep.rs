//! Integration tests for the sweep subsystem (`sraps-exp`): determinism,
//! parallel-equals-serial equivalence, and cross-layer behaviour against
//! the real engine.

use sraps_core::SchedulerSelect;
use sraps_exp::{ExperimentMatrix, Report, SweepOptions, SweepRunner};
use sraps_integration::{small_workload, sweep_pairs, workload_of};
use sraps_types::SimDuration;

fn policy_grid() -> ExperimentMatrix {
    ExperimentMatrix::synthetic(["lassen"])
        .span(SimDuration::hours(3))
        .loads([0.7])
        .seed_count(2)
        .policies(["fcfs", "sjf"])
        .backfills(["none", "easy"])
}

#[test]
fn same_matrix_same_seeds_identical_aggregates_across_runs() {
    let a = SweepRunner::new(2).run(&policy_grid()).unwrap();
    let b = SweepRunner::new(2).run(&policy_grid()).unwrap();
    assert_eq!(a.cells.len(), 8);
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.spec.label, y.spec.label);
        assert_eq!(
            x.metrics, y.metrics,
            "cell {} drifted between runs",
            x.spec.label
        );
    }
    let (ra, rb) = (Report::from_results(&a), Report::from_results(&b));
    assert_eq!(ra.to_csv(), rb.to_csv());
    assert_eq!(ra.to_json(), rb.to_json());
}

#[test]
fn parallel_output_is_bit_identical_to_serial() {
    let serial = SweepRunner::new(1).run(&policy_grid()).unwrap();
    let parallel = SweepRunner::new(4).run(&policy_grid()).unwrap();
    // Cell-level: labels, metrics, and raw histories all agree.
    for (s, p) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(s.spec.label, p.spec.label);
        assert_eq!(s.metrics, p.metrics);
        let (so, po) = (
            s.output.as_ref().expect("full retention"),
            p.output.as_ref().expect("full retention"),
        );
        assert_eq!(so.times, po.times);
        assert_eq!(so.utilization, po.utilization);
        assert_eq!(so.power.len(), po.power.len(), "history lengths must match");
        for (a, b) in so.power.iter().zip(&po.power) {
            assert_eq!(
                a.total_kw.to_bits(),
                b.total_kw.to_bits(),
                "power bits differ"
            );
        }
        assert_eq!(so.outcomes.len(), po.outcomes.len());
    }
    // Report-level: the exported artifacts are byte-identical.
    let rs = Report::from_results(&serial);
    let rp = Report::from_results(&parallel);
    assert_eq!(rs.to_csv(), rp.to_csv());
    assert_eq!(rs.to_json(), rp.to_json());
    assert_eq!(rs.render_table(), rp.render_table());
}

#[test]
fn sweep_matches_direct_engine_runs() {
    // The matrix path must produce exactly what hand-rolled Engine runs do.
    let (cfg, ds) = small_workload(0.6, 4, 19);
    let outputs = sweep_pairs(&cfg, &ds, &[("fcfs", "easy"), ("sjf", "none")]);
    let direct_fcfs = {
        let sim = sraps_core::SimConfig::new(cfg.clone(), "fcfs", "easy").unwrap();
        sraps_core::Engine::new(sim, &ds).unwrap().run().unwrap()
    };
    assert_eq!(
        outputs[0].stats.jobs_completed,
        direct_fcfs.stats.jobs_completed
    );
    assert_eq!(outputs[0].utilization, direct_fcfs.utilization);
    assert_eq!(outputs[0].label, "fcfs-easy");
    assert_eq!(outputs[1].label, "sjf-none");
}

#[test]
fn report_deltas_are_consistent_with_metrics() {
    let results = SweepRunner::new(2).run(&policy_grid()).unwrap();
    let report = Report::with_baseline(&results, "fcfs-none");
    for row in &report.rows {
        if row.is_baseline {
            assert_eq!(row.d_wait_pct.map(|d| d.abs() < 1e-9), Some(true));
            assert_eq!(row.d_util_pp.map(|d| d.abs() < 1e-9), Some(true));
        }
        // Recompute one delta from the row metrics of its workload baseline.
        let base = report
            .rows
            .iter()
            .find(|r| r.workload == row.workload && r.is_baseline)
            .expect("baseline row exists");
        if let Some(d) = row.d_util_pp {
            let expect = (row.metrics.mean_utilization - base.metrics.mean_utilization) * 100.0;
            assert!((d - expect).abs() < 1e-9);
        }
    }
    // Multi-seed grid ⇒ seed summary present, grouped per cell kind.
    assert_eq!(report.summary.len(), 4);
    assert!(report.summary.iter().all(|s| s.seeds == 2));
}

#[test]
fn incentive_sweep_runs_through_experimental_scheduler() {
    // Collection phase (replay with account tracking), then a redeeming
    // matrix through the experimental scheduler — the fig8 pipeline.
    let (cfg, ds) = small_workload(0.9, 4, 23);
    let collection = {
        let sim = sraps_core::SimConfig::replay(cfg.clone()).with_accounts();
        sraps_core::Engine::new(sim, &ds).unwrap().run().unwrap()
    };
    assert!(!collection.accounts.is_empty());
    let matrix = ExperimentMatrix::scenario(workload_of(&cfg, &ds))
        .pairs([("acct_edp", "firstfit"), ("acct_avg_power", "firstfit")])
        .scheduler(SchedulerSelect::Experimental)
        .accounts_in(collection.accounts.clone());
    let results = SweepRunner::new(2).run(&matrix).unwrap();
    assert_eq!(results.cells.len(), 2);
    for cell in &results.cells {
        assert!(
            cell.metrics.jobs_completed > 0,
            "{} completed nothing",
            cell.spec.label
        );
    }
}

#[test]
fn cache_warms_across_runs_and_matrix_overlaps() {
    // Prebuilt workloads take the content-hash path (config, window
    // bounds and the window's jobs streamed through the fingerprinter),
    // and overlapping matrices share cells: a superset matrix only
    // simulates the new ones.
    let dir = std::env::temp_dir().join(format!("sraps-itest-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (cfg, ds) = small_workload(0.6, 3, 31);
    let base = ExperimentMatrix::scenario(workload_of(&cfg, &ds))
        .pairs([("fcfs", "easy"), ("sjf", "none")]);
    let runner = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir));

    let cold = runner.run(&base).unwrap();
    assert_eq!((cold.cache_hits(), cold.cache_misses()), (0, 2));

    let warm = runner.run(&base).unwrap();
    assert_eq!((warm.cache_hits(), warm.cache_misses()), (2, 0));
    for (c, w) in cold.cells.iter().zip(&warm.cells) {
        assert_eq!(c.metrics, w.metrics);
        assert!(w.output.is_none(), "hits retain no SimOutput");
    }
    assert_eq!(
        Report::from_results(&cold).to_csv(),
        Report::from_results(&warm).to_csv()
    );

    // Growing the matrix by one pair only simulates the new cell.
    let grown = ExperimentMatrix::scenario(workload_of(&cfg, &ds)).pairs([
        ("fcfs", "easy"),
        ("sjf", "none"),
        ("fcfs", "none"),
    ]);
    let overlap = runner.run(&grown).unwrap();
    assert_eq!((overlap.cache_hits(), overlap.cache_misses()), (2, 1));
    // A different workload misses everything: the key is content-bound.
    let (cfg2, ds2) = small_workload(0.6, 3, 32);
    let other = ExperimentMatrix::scenario(workload_of(&cfg2, &ds2))
        .pairs([("fcfs", "easy"), ("sjf", "none")]);
    let miss = runner.run(&other).unwrap();
    assert_eq!(miss.cache_hits(), 0, "different seed ⇒ different dataset");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn invalid_matrix_fails_without_running() {
    let m = ExperimentMatrix::synthetic(["lassen"]).policies(["nope"]);
    assert!(SweepRunner::new(2).run(&m).is_err());
    let m = ExperimentMatrix::synthetic(["notasystem"]);
    assert!(SweepRunner::new(2).run(&m).is_err());
}
