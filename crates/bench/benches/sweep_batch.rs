//! Windowed-sweep throughput benchmark: cells/second on a 1000-cell
//! batch of same-system cells, plus a harness that writes
//! `BENCH_sweep_batch.json` — the repo's perf-trajectory baseline for
//! the sweep's cell pipeline. Re-run after engine/runner changes and
//! commit the refreshed JSON:
//!
//! ```sh
//! cargo bench -p sraps-bench --bench sweep_batch
//! ```
//!
//! The matrix is a realistic study shape: one hundred 1-hour windows
//! marching through one shared 60-day trace (windowed replay of
//! recorded segments — the paper's telemetry datasets span months),
//! crossed with a 10-way policy × backfill grid. Each window is built
//! once — scan the full trace, clone the in-window jobs — and shared by
//! its ten cells, so per-cell cost is the window's own simulation.
//! Conservative backfill and power caps are deliberately absent from
//! the grid: both are per-cell policy work (planner cost and
//! cap-deferral scheduler churn, tracked by the scheduler micro-benches)
//! that would drown the execution-path cost this bench isolates.
//!
//! `SRAPS_BENCH_SMOKE=1` runs one sample per case (CI smoke);
//! `SRAPS_BENCH_SWEEP_BATCH_OUT` overrides the JSON path (default
//! `BENCH_sweep_batch.json` at the workspace root).

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use sraps_data::{lassen, WorkloadSpec};
use sraps_exp::{ExperimentMatrix, PrebuiltWorkload, Report, SweepOptions, SweepRunner};
use sraps_systems::presets;
use sraps_types::{SimDuration, SimTime};
use std::sync::Arc;
use std::time::Instant;

const JOBS: usize = 4;

/// One hundred 1 h windows over one shared 60-day lassen trace, × 10
/// policy:backfill pairs = 1000 cells.
fn matrix() -> ExperimentMatrix {
    let cfg = presets::lassen();
    let mut spec = WorkloadSpec::for_system(&cfg, 0.7, 42);
    spec.span = SimDuration::days(60);
    let dataset = Arc::new(lassen::synthesize(&cfg, &spec));
    let windows: Vec<PrebuiltWorkload> = (0..100)
        .map(|w| {
            // One window every 14 h, marching through the trace.
            let start = SimTime::seconds(6 * 3_600 + w * 14 * 3_600);
            PrebuiltWorkload {
                label: format!("lassen-w{w:02}"),
                config: cfg.clone(),
                dataset: Arc::clone(&dataset),
                window: Some((start, start + SimDuration::hours(1))),
            }
        })
        .collect();
    ExperimentMatrix::scenarios(windows)
        .policies(["fcfs", "sjf", "ljf", "priority", "priority_aging"])
        .backfills(["firstfit", "easy"])
}

/// Median wall-time of `n` runs of `f`, in milliseconds.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..n)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    cells: usize,
    jobs: usize,
    samples: usize,
    median_ms: f64,
    cells_per_sec: f64,
}

fn smoke() -> bool {
    std::env::var_os("SRAPS_BENCH_SMOKE").is_some()
}

fn bench_sweep_batch(c: &mut Criterion) {
    let samples = if smoke() { 1 } else { 5 };
    let m = matrix();
    let cells = m.cell_count();
    let opts = SweepOptions::new().metrics_only(true);
    let runner = SweepRunner::with_options(JOBS, opts.clone());

    // Byte-parity drift guard: parallel cells sharing each window must
    // report exactly what one thread does. (Also warms the dataset
    // materialization the timed runs share.)
    let serial = SweepRunner::with_options(1, opts)
        .run(&m)
        .expect("serial sweep");
    let parallel = runner.run(&m).expect("parallel sweep");
    assert_eq!(
        Report::from_results(&serial).to_csv(),
        Report::from_results(&parallel).to_csv(),
        "parallel report CSV drifted from serial"
    );
    drop((serial, parallel));

    let mut g = c.benchmark_group("sweep_batch");
    g.sample_size(samples.max(2));
    g.bench_function("sweep_1000_cells", |bch| {
        bch.iter(|| criterion::black_box(runner.run(&m).unwrap()))
    });
    g.finish();

    let median = median_ms(samples, || {
        criterion::black_box(runner.run(&m).unwrap());
    });
    let report = BenchReport {
        bench: "sweep_batch".to_string(),
        cells,
        jobs: JOBS,
        samples,
        median_ms: median,
        cells_per_sec: cells as f64 / (median / 1e3).max(1e-9),
    };
    println!(
        "sweep_batch: {} cells  {:>8.1} ms ({:>7.0} cells/s)",
        report.cells, report.median_ms, report.cells_per_sec
    );
    // Default to the workspace root so the committed baseline refreshes
    // in place regardless of cargo's bench working directory.
    let path = std::env::var("SRAPS_BENCH_SWEEP_BATCH_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep_batch.json").to_string()
    });
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json + "\n").expect("write BENCH_sweep_batch.json");
    println!("sweep_batch: baseline written to {path}");
}

criterion_group!(sweep_batch, bench_sweep_batch);
criterion_main!(sweep_batch);
