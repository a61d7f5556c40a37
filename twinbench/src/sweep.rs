//! `window_sweep`: the paper's windowed-replay study shape. One Arc-shared
//! 60-day synthetic lassen trace, W one-hour windows of it as prebuilt
//! workloads, × 5 policies × {firstfit, easy}, cooling on, metrics only,
//! `jobs = nproc`, through `SweepRunner`'s default per-cell path — the
//! path `sraps sweep --scenario` takes. Each operation is a round: a cold
//! pass into a fresh cache directory (miss, simulate, write back under
//! claim leases) then a warm pass over the same directory (all hits).

use crate::layers::SelfTimes;
use crate::stats::{self, median, percentile, Rng};
use crate::{trace, Ctx, Outcome};
use sraps_core::{Fingerprinter, SimConfig, SimWindow};
use sraps_data::Dataset;
use sraps_exp::{
    ExperimentMatrix, PrebuiltWorkload, Report, SweepOptions, SweepResults, SweepRunner,
    WorkloadPlan,
};
use sraps_types::SimDuration;
use std::sync::Arc;
use std::time::Instant;

const SPAN_DAYS: i64 = 60;
const LOAD: f64 = 0.7;
/// Windows per matrix: each cached pass fingerprints every window's plan
/// (~0.3 s each on a 2-core box), so W sets the round length.
const WINDOWS: usize = 10;
const POLICIES: [&str; 5] = ["fcfs", "sjf", "ljf", "priority", "priority_aging"];
const BACKFILLS: [&str; 2] = ["firstfit", "easy"];
const SETUP_REPEATS: usize = 5;
/// Plans and windows replayed standalone for the per-layer table.
const REPLAYS: usize = 3;

fn synthesize(seed: u64) -> Result<(sraps_systems::SystemConfig, Arc<Dataset>), String> {
    let cfg = sraps_exp::cell::system_scaled("lassen", 1.0).map_err(|e| e.to_string())?;
    let mut spec = sraps_data::WorkloadSpec::for_system(&cfg, LOAD, seed);
    spec.span = SimDuration::days(SPAN_DAYS);
    let ds = sraps_data::lassen::synthesize(&cfg, &spec);
    Ok((cfg, Arc::new(ds)))
}

/// W distinct one-hour windows at seeded whole-hour offsets, skipping the
/// first and last day (queue ramp-up and drain).
fn windows(
    seed: u64,
    cfg: &sraps_systems::SystemConfig,
    ds: &Arc<Dataset>,
) -> Vec<PrebuiltWorkload> {
    let mut rng = Rng::new(seed, 0x5eeb);
    let mut hours: Vec<i64> = Vec::new();
    while hours.len() < WINDOWS {
        let h = 24 + rng.below(((SPAN_DAYS - 2) * 24) as usize) as i64;
        if !hours.contains(&h) {
            hours.push(h);
        }
    }
    hours.sort_unstable();
    hours
        .into_iter()
        .map(|h| {
            let start = ds.capture_start + SimDuration::hours(h);
            PrebuiltWorkload {
                label: format!("lassen-h{h:04}"),
                config: cfg.clone(),
                dataset: Arc::clone(ds),
                window: Some((start, start + SimDuration::hours(1))),
            }
        })
        .collect()
}

struct Round {
    cold_s: f64,
    warm_s: f64,
    report_ms: f64,
    csv: String,
    /// Cells failed outright, plus report rows where warm differs from cold.
    bad_cells: usize,
    profile: sraps_obs::Profile,
}

fn pass(runner: &SweepRunner, matrix: &ExperimentMatrix) -> Result<(f64, SweepResults), String> {
    let t = Instant::now();
    let r = runner.run(matrix).map_err(|e| e.to_string())?;
    Ok((t.elapsed().as_secs_f64(), r))
}

fn one_round(ctx: &Ctx, matrix: &ExperimentMatrix, n: usize) -> Result<Round, String> {
    let dir = ctx.work.join(format!("cache-{n}"));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions::new().metrics_only(true).cache_dir(&dir);
    let runner = SweepRunner::with_options(ctx.nproc, opts);
    let (cold_s, cold) = pass(&runner, matrix)?;
    let (warm_s, warm) = pass(&runner, matrix)?;
    let t = Instant::now();
    let cold_csv = Report::from_results(&cold).to_csv();
    let warm_csv = Report::from_results(&warm).to_csv();
    let report_ms = t.elapsed().as_secs_f64() * 1e3 / 2.0;
    let cells = cold.cells.len();
    let mut bad = cold.failed_cells().len() + warm.failed_cells().len();
    // The cold pass must miss every cell and the warm pass hit every one.
    bad += cold.cache_hits() + warm.cache_misses();
    // A cached cell must return exactly what was simulated, including
    // digits the report rounds away.
    bad += cold
        .cells
        .iter()
        .zip(&warm.cells)
        .filter(|(c, w)| c.metrics != w.metrics)
        .count();
    bad += cold_csv
        .lines()
        .zip(warm_csv.lines())
        .filter(|(a, b)| a != b)
        .count();
    bad += cold_csv.lines().count().abs_diff(warm_csv.lines().count());
    let mut profile = cold.merged_profile().unwrap_or_default();
    profile.merge(&warm.merged_profile().unwrap_or_default());
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    Ok(Round {
        cold_s,
        warm_s,
        report_ms,
        csv: cold_csv,
        bad_cells: bad.min(2 * cells),
        profile,
    })
}

fn rounds_for(
    ctx: &Ctx,
    matrix: &ExperimentMatrix,
    seconds: f64,
    first: usize,
) -> Result<Vec<Round>, String> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    while rounds.is_empty() || start.elapsed().as_secs_f64() < seconds {
        rounds.push(one_round(ctx, matrix, first + rounds.len())?);
    }
    Ok(rounds)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut synth_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        drop(input.take()); // one 60-day trace in memory at a time
        let t = Instant::now();
        input = Some(synthesize(ctx.seed)?);
        synth_s.push(t.elapsed().as_secs_f64());
    }
    let (cfg, ds) = input.expect("SETUP_REPEATS > 0");
    out.setup_s = median(&synth_s);
    let workloads = windows(ctx.seed, &cfg, &ds);
    let matrix = ExperimentMatrix::scenarios(workloads.clone())
        .policies(POLICIES)
        .backfills(BACKFILLS)
        .with_cooling();
    let cells = matrix.cell_count();

    let (rounds, traced) = if ctx.trace {
        let plain = rounds_for(ctx, &matrix, ctx.seconds / 2.0, 0)?;
        sraps_obs::set_profile(true);
        let traced = rounds_for(ctx, &matrix, ctx.seconds / 2.0, plain.len());
        sraps_obs::set_profile(false);
        (plain, traced?)
    } else {
        (rounds_for(ctx, &matrix, ctx.seconds, 0)?, Vec::new())
    };

    // Checks: each warm report is byte-identical to its cold one (counted
    // per differing row), every round reproduces the first, and the
    // report digest matches the one pinned for this seed.
    let all: Vec<&Round> = rounds.iter().chain(&traced).collect();
    let mut fp = Fingerprinter::new();
    fp.write_str(&all[0].csv);
    let digest = fp.finish().hex();
    out.attempted = (2 * cells * all.len()) as u64;
    out.failed = if crate::pinned::matches("window_sweep", ctx.seed, &digest) {
        all.iter()
            .map(|r| {
                if r.csv == all[0].csv {
                    r.bad_cells
                } else {
                    2 * cells
                }
            })
            .sum::<usize>() as u64
    } else {
        out.attempted
    };

    let cold: Vec<f64> = rounds.iter().map(|r| r.cold_s).collect();
    let warm: Vec<f64> = rounds.iter().map(|r| r.warm_s).collect();
    let cold_ms: Vec<f64> = cold.iter().map(|s| s * 1e3).collect();
    let round_rates: Vec<f64> = rounds
        .iter()
        .map(|r| (2 * cells) as f64 / (r.cold_s + r.warm_s))
        .collect();
    out.throughput_per_s = median(&round_rates);
    out.peak_rss_mb = stats::peak_rss_mb(None);
    let n = rounds.len();
    let per_s = |v: &[f64]| median(&v.iter().map(|s| cells as f64 / s).collect::<Vec<_>>());
    out.named(
        "cold_cells_per_s",
        per_s(&cold),
        "1/s",
        format!("median of {n} cold passes of {cells} cells"),
    );
    out.named(
        "warm_cells_per_s",
        per_s(&warm),
        "1/s",
        format!("median of {n} warm passes of {cells} cells"),
    );
    out.named(
        "cold_pass_ms",
        median(&cold_ms),
        "ms",
        format!(
            "median of {n} cold passes, p90 {:.1}",
            percentile(&cold_ms, 90.0)
        ),
    );
    out.named(
        "warm_pass_ms",
        median(&warm) * 1e3,
        "ms",
        format!("median of {n} warm passes"),
    );
    out.named(
        "report_rows",
        all[0].csv.lines().count() as f64 - 1.0,
        "count",
        format!("digest {digest}"),
    );
    out.named(
        "setup_s",
        out.setup_s,
        "s",
        format!("median of {SETUP_REPEATS} syntheses"),
    );
    out.named(
        "peak_rss_mb",
        out.peak_rss_mb,
        "MB",
        "VmHWM of this process".into(),
    );

    if ctx.trace {
        layers(ctx, &mut out, &workloads, &synth_s, &rounds, &traced);
    }
    Ok(out)
}

fn replay_ms(n: usize, mut f: impl FnMut(usize)) -> f64 {
    median(
        &(0..n)
            .map(|i| {
                let t = Instant::now();
                f(i);
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect::<Vec<_>>(),
    )
}

fn layers(
    ctx: &Ctx,
    out: &mut Outcome,
    workloads: &[PrebuiltWorkload],
    synth_s: &[f64],
    plain: &[Round],
    traced: &[Round],
) {
    let per = traced.len() as f64;
    let mut profile = sraps_obs::Profile::default();
    for r in traced {
        profile.merge(&r.profile);
    }
    // Replays of the two layers the sweep's own spans do not cover: the
    // plan fingerprint (phase 1, once per window per cached pass) and the
    // window build (inside `sweep.cell`, once per simulated cell).
    let fp_ms = replay_ms(REPLAYS, |i| {
        let plan = WorkloadPlan::Prebuilt(Box::new(workloads[i % workloads.len()].clone()));
        std::hint::black_box(plan.fingerprint().expect("prebuilt plans fingerprint"));
    });
    let window_ms = replay_ms(REPLAYS, |i| {
        let w = &workloads[i % workloads.len()];
        let (s, e) = w.window.expect("windows are set");
        let sim = SimConfig::new(w.config.clone(), "fcfs", "easy")
            .expect("valid pair")
            .with_window(s, e);
        std::hint::black_box(SimWindow::new(&sim, &w.dataset).expect("non-empty window"));
    });

    // Parallel phases run on `jobs` threads: their thread time is divided
    // by `jobs` to compare against the round's wall time.
    let jobs = ctx.nproc as f64;
    let w = workloads.len() as f64;
    let misses = profile.counter("cache.misses") as f64 / per;
    let thread = trace::profile_self_times(&profile, per);
    let mut st = SelfTimes::new();
    for (name, calls, ms) in &thread.rows {
        st.add(name, *calls, ms / jobs);
    }
    st.add(
        "exp.plan_fingerprint (replay)",
        2.0 * w,
        2.0 * w * fp_ms / jobs.min(w),
    );
    st.note(
        "sweep.cell: window_build",
        misses,
        misses * window_ms / jobs,
    );
    let report_ms = stats::mean(&traced.iter().map(|r| 2.0 * r.report_ms).collect::<Vec<_>>());
    st.add("exp.report", 2.0, report_ms);
    let round_ms = |rs: &[Round]| {
        stats::mean(
            &rs.iter()
                .map(|r| (r.cold_s + r.warm_s) * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let wall_ms = round_ms(traced);

    let l = &mut out.layers;
    l.table = st.render("round (cold + warm pass)", wall_ms);
    l.set("data.synthesize_ms", median(synth_s) * 1e3);
    l.set("exp.plan_fingerprint_ms", fp_ms);
    l.set("core.window_build_ms", window_ms);
    l.set_engine_rows(&st, &profile, per);
    let phase = |name: &str| {
        profile
            .phase(name)
            .map_or(0.0, |p| p.total_ns as f64 / p.calls.max(1) as f64)
    };
    l.set("cache.read_us", phase("cache.read") / 1e3);
    l.set("cache.write_ms", phase("cache.write") / 1e6);
    let c = |name: &str| profile.counter(name) as f64 / per;
    l.set("cache.hits", c("cache.hits"));
    l.set("cache.misses", c("cache.misses"));
    l.set(
        "cache.hit_ratio",
        c("cache.hits") / (c("cache.hits") + c("cache.misses")).max(1.0),
    );
    l.set("claims.acquired", c("claims.acquired"));
    l.set("claims.contended", c("claims.contended"));
    l.set("exp.report_ms", report_ms);
    l.set("unattributed_ms", wall_ms - st.covered_ms());
    l.set(
        "bench.trace_overhead_pct",
        (wall_ms / round_ms(plain) - 1.0) * 100.0,
    );
}
