//! Prefix-sharing benchmark: a late-binding power-cap scan run as one
//! sweep (every cap forks from one in-memory snapshot of the shared
//! uncapped prefix) vs one sweep per cell (each cell simulates its own
//! prefix), plus a harness that writes `BENCH_sweep_prefix.json` — the
//! repo's perf-trajectory baseline for snapshot-forked sweeps.
//! Re-run after engine/snapshot/runner changes and commit the JSON:
//!
//! ```sh
//! cargo bench -p sraps-bench --bench sweep_prefix
//! ```
//!
//! `SRAPS_BENCH_SMOKE=1` runs one sample per case (CI smoke);
//! `SRAPS_BENCH_SWEEP_PREFIX_OUT` overrides the JSON path (default
//! `BENCH_sweep_prefix.json` at the workspace root).

use criterion::{criterion_group, criterion_main, Criterion};
use serde::Serialize;
use sraps_exp::{ExperimentMatrix, PrebuiltWorkload, SweepOptions, SweepResults, SweepRunner};
use sraps_types::SimDuration;
use std::time::Instant;

/// A capacity-planning shape: one uncapped prefix, many candidate caps
/// binding late in the window. The cap binds at 7/8 of the 48 h span,
/// so nearly all of every cell's work is the shareable prefix.
struct Case {
    name: &'static str,
    system: &'static str,
    load: f64,
    pairs: &'static [(&'static str, &'static str)],
    caps: &'static [f64],
}

const CASES: [Case; 2] = [
    Case {
        name: "cap_scan_8way",
        system: "lassen",
        load: 0.7,
        pairs: &[("fcfs", "easy")],
        caps: &[800.0, 900.0, 1000.0, 1100.0, 1200.0, 1300.0, 1400.0, 1500.0],
    },
    Case {
        name: "cap_scan_2policies",
        system: "adastra",
        load: 0.6,
        pairs: &[("fcfs", "easy"), ("sjf", "easy")],
        caps: &[700.0, 800.0, 900.0, 1000.0, 1100.0, 1200.0],
    },
];

impl Case {
    /// The case's 48 h workload, synthesized once: every sweep of the
    /// case, shared or per cell, runs over this one dataset.
    fn workload(&self) -> PrebuiltWorkload {
        let (plans, _) = ExperimentMatrix::synthetic([self.system])
            .span(SimDuration::hours(48))
            .loads([self.load])
            .seed_count(1)
            .expand()
            .expect("plan");
        plans[0].materialize().expect("synthesize")
    }

    fn matrix(
        &self,
        workload: &PrebuiltWorkload,
        pairs: &[(&str, &str)],
        caps: &[f64],
    ) -> ExperimentMatrix {
        ExperimentMatrix::scenarios([workload.clone()])
            .pairs(pairs.iter().copied())
            .power_caps_kw(caps.iter().copied().map(Some))
            .power_cap_at(SimDuration::hours(42))
    }
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
struct CaseResult {
    name: String,
    cells: usize,
    shared_prefixes: usize,
    forks: usize,
    jobs: usize,
    samples: usize,
    unshared_median_ms: f64,
    shared_median_ms: f64,
    /// unshared / shared: what forking one snapshot saves over one sweep
    /// per cell, each privately simulating the same prefix.
    speedup: f64,
}

#[derive(Serialize)]
struct BenchReport {
    bench: String,
    cases: Vec<CaseResult>,
}

fn smoke() -> bool {
    std::env::var_os("SRAPS_BENCH_SMOKE").is_some()
}

fn bench_sweep_prefix(c: &mut Criterion) {
    let samples = if smoke() { 1 } else { 5 };
    // Serial: total simulated work, not scheduling luck, is the metric.
    let jobs = 1;
    let runner = SweepRunner::with_options(jobs, SweepOptions::new().metrics_only(true));
    let mut results = Vec::new();
    let mut g = c.benchmark_group("sweep_prefix");
    g.sample_size(samples.max(2));
    for case in &CASES {
        let workload = case.workload();
        let shared = case.matrix(&workload, case.pairs, case.caps);
        let lone: Vec<ExperimentMatrix> = case
            .pairs
            .iter()
            .flat_map(|pair| {
                case.caps
                    .iter()
                    .map(|cap| case.matrix(&workload, &[*pair], &[*cap]))
            })
            .collect();
        let cells = lone.len();
        let run_lone = || -> Vec<SweepResults> {
            lone.iter()
                .map(|m| runner.run(m).expect("one-cap sweep"))
                .collect()
        };

        g.bench_function(format!("{}_shared", case.name), |b| {
            b.iter(|| criterion::black_box(runner.run(&shared).unwrap()))
        });

        let unshared_ms = median_ms(samples, || {
            criterion::black_box(run_lone());
        });
        let shared_ms = median_ms(samples, || {
            criterion::black_box(runner.run(&shared).unwrap());
        });

        // Parity drift guard: a faster sweep that changed any metric
        // would be measuring a different experiment. Labels differ
        // between one-cap and many-cap matrices, so cells pair up by
        // (policy, backfill, cap).
        let b = runner.run(&shared).expect("shared sweep");
        for a in run_lone().iter().flat_map(|r| &r.cells) {
            let s = &a.spec;
            let twin = b
                .cells
                .iter()
                .find(|c| {
                    (&c.spec.policy, &c.spec.backfill, c.spec.power_cap_kw)
                        == (&s.policy, &s.backfill, s.power_cap_kw)
                })
                .expect("cell in the shared sweep");
            assert_eq!(
                a.metrics, twin.metrics,
                "{}: {} drifted from its one-cap run",
                case.name, twin.spec.label
            );
        }
        assert_eq!(
            b.prefix_groups,
            case.pairs.len(),
            "{}: one prefix per pair",
            case.name
        );
        assert_eq!(b.prefix_forks, cells, "{}: not all cells forked", case.name);

        results.push(CaseResult {
            name: case.name.to_string(),
            cells,
            shared_prefixes: b.prefix_groups,
            forks: b.prefix_forks,
            jobs,
            samples,
            unshared_median_ms: unshared_ms,
            shared_median_ms: shared_ms,
            speedup: unshared_ms / shared_ms.max(1e-9),
        });
    }
    g.finish();

    let report = BenchReport {
        bench: "sweep_prefix".to_string(),
        cases: results,
    };
    for r in &report.cases {
        println!(
            "sweep_prefix/{:<18} unshared {:>8.2} ms  shared {:>8.2} ms  speedup {:>5.2}x  ({} prefixes -> {} forks)",
            r.name, r.unshared_median_ms, r.shared_median_ms, r.speedup, r.shared_prefixes, r.forks
        );
    }
    // Default to the workspace root so the committed baseline refreshes
    // in place regardless of cargo's bench working directory.
    let path = std::env::var("SRAPS_BENCH_SWEEP_PREFIX_OUT").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sweep_prefix.json").to_string()
    });
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&path, json + "\n").expect("write BENCH_sweep_prefix.json");
    println!("sweep_prefix: baseline written to {path}");
}

criterion_group!(sweep_prefix, bench_sweep_prefix);
criterion_main!(sweep_prefix);
