//! `sched_conservative`: one in-process `Engine` run per operation on a
//! saturated synthetic adastra workload (load 1.3, span 2 d, fcfs +
//! conservative backfill, default event core, no cache). Scheduler-bound:
//! `sched.schedule` is nearly all of `engine.run`. Bypasses `sraps_exp`,
//! the cell cache and the daemon.

use crate::stats::{self, median, percentile, Rng};
use crate::{trace, Ctx, Outcome};
use sraps_core::{Engine, Fingerprinter, SimConfig, SimOutput, SimWindow};
use sraps_data::{adastra, Dataset};
use sraps_types::SimDuration;
use std::time::Instant;

/// The workload generator's seed. The scheduling input stays the one
/// ROADMAP item 2 profiles: conservative planning cost swings about 3x
/// between generator seeds (1.6–5.1 s over seeds 1–10 on a 2-core box),
/// which no usable regression bound survives. The benchmark seed instead
/// perturbs every job's recorded power, which changes the power history
/// and the output digest but not one scheduling decision.
const WORKLOAD_SEED: u64 = 42;
const LOAD: f64 = 1.3;
const SPAN_DAYS: i64 = 2;
const SETUP_REPEATS: usize = 25;

fn synthesize(seed: u64) -> Result<(sraps_systems::SystemConfig, Dataset), String> {
    let cfg = sraps_exp::cell::system_scaled("adastra", 1.0).map_err(|e| e.to_string())?;
    let mut spec = sraps_data::WorkloadSpec::for_system(&cfg, LOAD, WORKLOAD_SEED);
    spec.span = SimDuration::days(SPAN_DAYS);
    let mut records = adastra::generate(&cfg, &spec);
    let mut rng = Rng::new(seed, 0x5c4ed);
    for r in &mut records {
        let f = (0.95 + 0.1 * rng.uniform()) as f32;
        r.node_power_avg_w *= f;
        r.cpu_power_avg_w *= f;
        r.mem_power_avg_w *= f;
    }
    let ds = adastra::load(&cfg, &records);
    Ok((cfg, ds))
}

/// Digest of what a user reads off a run: every job outcome and the
/// power history.
fn digest(out: &SimOutput) -> String {
    let mut fp = Fingerprinter::new();
    for o in &out.outcomes {
        fp.write_u64(o.id.0);
        fp.write_u32(o.nodes);
        fp.write_i64(o.start.as_secs());
        fp.write_i64(o.end.as_secs());
        fp.write_f64(o.energy_kwh);
    }
    for p in &out.power {
        fp.write_f64(p.total_kw);
    }
    fp.finish().hex()
}

struct Op {
    wall_s: f64,
    jobs: usize,
    digest: String,
    profile: Option<sraps_obs::Profile>,
}

fn one_run(sim: &SimConfig, ds: &Dataset) -> Result<Op, String> {
    let t = Instant::now();
    let out = Engine::new(sim.clone(), ds)
        .and_then(Engine::run)
        .map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    Ok(Op {
        wall_s,
        jobs: out.outcomes.len(),
        digest: digest(&out),
        profile: out.profile,
    })
}

/// Run operations back to back until `seconds` have passed (at least
/// `min_ops` of them).
fn run_for(sim: &SimConfig, ds: &Dataset, seconds: f64, min_ops: usize) -> Result<Vec<Op>, String> {
    let start = Instant::now();
    let mut ops = Vec::new();
    while ops.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        ops.push(one_run(sim, ds)?);
    }
    Ok(ops)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut synth_s = Vec::new();
    let mut input = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        input = Some(synthesize(ctx.seed)?);
        synth_s.push(t.elapsed().as_secs_f64());
    }
    let (cfg, ds) = input.expect("SETUP_REPEATS > 0");
    out.setup_s = median(&synth_s);
    let sim = SimConfig::new(cfg, "fcfs", "conservative").map_err(|e| e.to_string())?;

    let (ops, traced) = if ctx.trace {
        let plain = run_for(&sim, &ds, ctx.seconds / 2.0, 1)?;
        sraps_obs::set_profile(true);
        let traced = run_for(&sim, &ds, ctx.seconds / 2.0, 1);
        sraps_obs::set_profile(false);
        (plain, traced?)
    } else {
        (run_for(&sim, &ds, ctx.seconds, 2)?, Vec::new())
    };

    // Checks: every run of one input yields the same outcomes and power,
    // and that digest matches the one pinned for this seed.
    let all: Vec<&Op> = ops.iter().chain(&traced).collect();
    let reference = &all[0].digest;
    out.attempted = all.len() as u64;
    out.failed = if crate::pinned::matches("sched_conservative", ctx.seed, reference) {
        all.iter().filter(|op| &op.digest != reference).count() as u64
    } else {
        out.attempted
    };

    let walls: Vec<f64> = ops.iter().map(|op| op.wall_s).collect();
    let rates: Vec<f64> = ops.iter().map(|op| op.jobs as f64 / op.wall_s).collect();
    out.throughput_per_s = median(&rates);
    out.peak_rss_mb = stats::peak_rss_mb(None);
    let n = ops.len();
    out.named(
        "jobs_per_s",
        out.throughput_per_s,
        "1/s",
        format!("median of {n} engine runs"),
    );
    out.named(
        "engine_run_ms",
        median(&walls) * 1e3,
        "ms",
        format!("median of {n}, p90 {:.1}", percentile(&walls, 90.0) * 1e3),
    );
    out.named(
        "jobs_per_run",
        all[0].jobs as f64,
        "count",
        format!("digest {reference}"),
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
        layers(&mut out, &sim, &ds, &synth_s, &walls, &traced);
    }
    Ok(out)
}

fn layers(
    out: &mut Outcome,
    sim: &SimConfig,
    ds: &Dataset,
    synth_s: &[f64],
    plain_walls: &[f64],
    traced: &[Op],
) {
    let per = traced.len() as f64;
    let mut profile = sraps_obs::Profile::default();
    for op in traced {
        if let Some(p) = &op.profile {
            profile.merge(p);
        }
    }
    let window_ms = median(
        &(0..3)
            .map(|_| {
                let t = Instant::now();
                let w = SimWindow::new(sim, ds);
                let ms = t.elapsed().as_secs_f64() * 1e3;
                drop(w);
                ms
            })
            .collect::<Vec<_>>(),
    );
    let mut st = trace::profile_self_times(&profile, per);
    st.add("core.window_build (replay)", 1.0, window_ms);
    let wall_ms = stats::mean(&traced.iter().map(|op| op.wall_s).collect::<Vec<_>>()) * 1e3;
    let l = &mut out.layers;
    l.table = st.render("engine run (Engine::new + run)", wall_ms);
    l.set("data.synthesize_ms", median(synth_s) * 1e3);
    l.set("core.window_build_ms", window_ms);
    l.set_engine_rows(&st, &profile, per);
    l.set("unattributed_ms", wall_ms - st.covered_ms());
    l.set(
        "bench.trace_overhead_pct",
        (wall_ms / (stats::mean(plain_walls) * 1e3) - 1.0) * 100.0,
    );
}
