//! Window-sharing sweep suite. A sweep runs the cells of each workload
//! as one batch over a single shared simulation window (built once, by
//! the first cell that misses). Sharing must be invisible: reports,
//! CSV/JSON exports, retained outputs, and cache entries are
//! byte-identical to cells simulated alone over windows of their own;
//! cache hits never reach the simulator; and the result is the same for
//! any `--jobs` value.

use sraps_core::Engine;
use sraps_exp::{
    CellCache, CellJob, CellMetrics, ExperimentMatrix, Probe, Report, Step, SweepOptions,
    SweepResults, SweepRunner, WorkloadMemo,
};
use sraps_types::SimDuration;
use std::path::PathBuf;
use std::sync::Mutex;

/// Obs enablement is process-global; profiled tests must not overlap.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Two workloads × three cells each — more than one shared window.
fn matrix() -> ExperimentMatrix {
    ExperimentMatrix::synthetic(["lassen"])
        .span(SimDuration::hours(2))
        .loads([0.5])
        .seed_count(2)
        .pairs([("fcfs", "none"), ("fcfs", "easy"), ("sjf", "easy")])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("sraps-shared-window-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a results consumer can observe, cell for cell.
fn assert_same_results(a: &SweepResults, b: &SweepResults, what: &str) {
    assert_eq!(a.cells.len(), b.cells.len(), "{what}: cell count");
    for (x, y) in a.cells.iter().zip(&b.cells) {
        assert_eq!(x.spec.label, y.spec.label, "{what}: order");
        assert_eq!(x.metrics, y.metrics, "{what}: metrics ({})", x.spec.label);
        assert_eq!(x.cache_key, y.cache_key, "{what}: keys ({})", x.spec.label);
        match (&x.output, &y.output) {
            (Some(xo), Some(yo)) => {
                assert_eq!(
                    xo.power_csv(),
                    yo.power_csv(),
                    "{what}: power CSV ({})",
                    x.spec.label
                );
                assert_eq!(
                    xo.util_csv(),
                    yo.util_csv(),
                    "{what}: util CSV ({})",
                    x.spec.label
                );
                assert_eq!(xo.outcomes, yo.outcomes, "{what}: outcomes");
                assert_eq!(xo.sched_stats, yo.sched_stats, "{what}: sched stats");
            }
            (None, None) => {}
            _ => panic!("{what}: output retention differs ({})", x.spec.label),
        }
    }
    let (ra, rb) = (Report::from_results(a), Report::from_results(b));
    assert_eq!(ra.to_csv(), rb.to_csv(), "{what}: report CSV");
    assert_eq!(ra.to_json(), rb.to_json(), "{what}: report JSON");
    assert_eq!(ra.render_table(), rb.render_table(), "{what}: table");
}

#[test]
fn batched_sweep_matches_unbatched_byte_for_byte() {
    let m = matrix();
    let shared = SweepRunner::new(2).run(&m).unwrap();
    // The unshared oracle: every cell materializes its workload and
    // builds its own window through `Engine::new`.
    let (plans, cells) = m.expand().unwrap();
    assert_eq!(shared.cells.len(), cells.len());
    for (cell, got) in cells.iter().zip(&shared.cells) {
        let workload = plans[cell.workload].materialize().unwrap();
        let sim = cell.build_sim(&workload).unwrap();
        let alone = Engine::new(sim, &workload.dataset).unwrap().run().unwrap();
        let what = &cell.label;
        assert_eq!(
            got.metrics,
            CellMetrics::from_output(&alone),
            "{what}: metrics"
        );
        let out = got.output.as_ref().expect("full retention");
        assert_eq!(out.power_csv(), alone.power_csv(), "{what}: power CSV");
        assert_eq!(out.util_csv(), alone.util_csv(), "{what}: util CSV");
        assert_eq!(out.outcomes, alone.outcomes, "{what}: outcomes");
        assert_eq!(out.sched_stats, alone.sched_stats, "{what}: sched stats");
    }
}

#[test]
fn batched_jobs_one_equals_jobs_four() {
    let m = matrix();
    let serial = SweepRunner::new(1).run(&m).unwrap();
    let parallel = SweepRunner::new(4).run(&m).unwrap();
    assert_same_results(&serial, &parallel, "--jobs 1 vs --jobs 4");
}

#[test]
fn batched_cache_entries_match_unbatched_bytes() {
    let m = matrix();
    let shared_dir = temp_dir("shared");
    let alone_dir = temp_dir("alone");
    let shared = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&shared_dir))
        .run(&m)
        .unwrap();
    // Drive each cell through the pipeline on a memo of its own — the
    // daemon's path — so no window is shared.
    let (plans, cells) = m.expand().unwrap();
    let cache = CellCache::open(&alone_dir).unwrap();
    let opts = SweepOptions::new();
    for (i, cell) in cells.iter().enumerate() {
        let plan = plans[cell.workload].clone();
        let fp = plan.fingerprint().unwrap();
        let memo = WorkloadMemo::new(plan, Some(fp));
        let key = memo.cell_key(cell).unwrap();
        assert_eq!(shared.cells[i].cache_key.as_deref(), Some(key.as_str()));
        let job = CellJob {
            cell,
            workload: &memo,
            key: Some(&key),
            cache: Some(&cache),
            claims: None,
            opts: &opts,
            salt: i,
            cancel: &|| false,
        };
        match job.step(Probe::Counted).unwrap() {
            Step::Done { from_cache, .. } => assert!(!from_cache, "{}", cell.label),
            other => panic!("{}: {other:?}", cell.label),
        }
        let name = format!("{key}.json");
        let a = std::fs::read(shared_dir.join(&name)).unwrap();
        let b = std::fs::read(alone_dir.join(&name)).unwrap();
        assert_eq!(a, b, "cache entry {} differs", cell.label);
    }
    std::fs::remove_dir_all(&shared_dir).ok();
    std::fs::remove_dir_all(&alone_dir).ok();
}

#[test]
fn warm_cells_are_excluded_from_lanes_in_a_mixed_batch() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = temp_dir("mixed");
    // Warm exactly one cell kind (both seeds): the full matrix then
    // mixes 2 hits with 4 misses.
    let subset = ExperimentMatrix::synthetic(["lassen"])
        .span(SimDuration::hours(2))
        .loads([0.5])
        .seed_count(2)
        .pairs([("fcfs", "none")]);
    let warmed = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir))
        .run(&subset)
        .unwrap();
    assert_eq!(warmed.cache_misses(), 2);

    sraps_obs::set_profile(true);
    let mixed = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir))
        .run(&matrix())
        .unwrap();
    sraps_obs::set_profile(false);
    assert_eq!(mixed.cache_hits(), 2, "warmed kind hits for both seeds");
    assert_eq!(mixed.cache_misses(), 4);
    for cell in &mixed.cells {
        let hit = cell.spec.label.ends_with("fcfs-none");
        assert_eq!(cell.from_cache, hit, "{}", cell.spec.label);
        // Hits never reach the simulator; only misses run an engine.
        let profile = cell.profile.as_ref().expect("profiling was on");
        assert_eq!(
            profile.phase("engine.run").is_some(),
            !hit,
            "{}",
            cell.spec.label
        );
    }

    // And the mixed run's report matches a fully-cold uncached run.
    let cold = SweepRunner::new(2).run(&matrix()).unwrap();
    let (rm, rc) = (Report::from_results(&mixed), Report::from_results(&cold));
    assert_eq!(rm.to_csv(), rc.to_csv(), "mixed warm/cold report CSV");
    assert_eq!(rm.to_json(), rc.to_json(), "mixed warm/cold report JSON");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn batched_metrics_only_and_spill_survive_hits() {
    let dir = temp_dir("spill");
    let runner = SweepRunner::with_options(
        2,
        SweepOptions::new()
            .cache_dir(&dir)
            .metrics_only(true)
            .spill_histories(true),
    );
    let cold = runner.run(&matrix()).unwrap();
    assert!(cold.cells.iter().all(|c| c.output.is_none()));
    let cache = CellCache::open(&dir).unwrap();
    for cell in &cold.cells {
        let (power, util) = cache.history_paths(cell.cache_key.as_ref().unwrap());
        assert!(power.is_file(), "spilled power CSV ({})", cell.spec.label);
        assert!(util.is_file(), "spilled util CSV ({})", cell.spec.label);
    }
    let warm = runner.run(&matrix()).unwrap();
    assert_eq!(warm.cache_hits(), 6, "hits satisfied from the spill");
    let (rc, rw) = (Report::from_results(&cold), Report::from_results(&warm));
    assert_eq!(rc.to_csv(), rw.to_csv());
    std::fs::remove_dir_all(&dir).ok();
}
