//! Ablation benches for the design choices §3.2 calls out:
//!
//! 1. **Prepopulation on/off** (footnote 2): ignoring jobs running at the
//!    window start distorts the warm-up period.
//! 2. **Exact-placement replay vs free placement** (§3.2.3): the overhaul
//!    enforced recorded node placement in replay mode.
//! 3. **Backfill ladder** (none → first-fit → EASY): utilization and
//!    fairness cost of each rung.
//! 4. **Missing-telemetry rule** (§3.2.2): last-known-value vs zero-fill
//!    when a trace ends before the job (capture-window edge).

use sraps_bench::{check, header};
use sraps_core::{Engine, SimConfig};
use sraps_data::{marconi100, scenario, WorkloadSpec};
use sraps_systems::presets;
use sraps_types::{SimDuration, SimTime, Trace};

fn main() {
    header(
        "ablations",
        "Design-choice ablations from §3.2 + extensions",
    );

    ablate_prepopulation();
    ablate_exact_placement();
    ablate_backfill_ladder();
    ablate_missing_telemetry();
    ablate_power_cap();
    ablate_walltime_correction();
    ablate_outages();
}

/// 1: simulate a mid-dataset window with and without the jobs that were
/// already running (the "without" variant drops them, as naive scheduling
/// simulators do), and measure the warm-up distortion.
fn ablate_prepopulation() {
    println!("\n-- prepopulation (footnote 2) --");
    let cfg = presets::marconi100();
    let mut spec = WorkloadSpec::for_system(&cfg, 0.9, 7);
    spec.span = SimDuration::hours(10);
    let ds = marconi100::synthesize(&cfg, &spec);
    let start = SimTime::seconds(5 * 3600);
    let end = start + SimDuration::hours(2);

    let with = Engine::new(SimConfig::replay(cfg.clone()).with_window(start, end), &ds)
        .unwrap()
        .run()
        .unwrap();

    // Without: drop every job already started before the window (what a
    // cold-started simulator sees).
    let mut cold = ds.clone();
    cold.edit_jobs(|jobs| jobs.retain(|j| j.recorded_start >= start));
    let without = Engine::new(SimConfig::replay(cfg).with_window(start, end), &cold)
        .unwrap()
        .run()
        .unwrap();

    let u_with = with.utilization[0];
    let u_without = without.utilization[0];
    println!("  first-tick utilization: prepopulated {u_with:.2} vs cold {u_without:.2}");
    check(
        "prepopulation avoids the cold-start utilization hole",
        u_with > u_without + 0.05,
    );
    println!(
        "  mean power: prepopulated {:.0} kW vs cold {:.0} kW",
        with.mean_power_kw(),
        without.mean_power_kw()
    );
}

/// 2: replay with recorded placements vs count-based placement — occupancy
/// is identical, but placement fidelity (node-level agreement) differs.
fn ablate_exact_placement() {
    println!("\n-- exact-placement replay (§3.2.3) --");
    // Marconi100: a trace dataset that publishes node placements.
    let cfg = presets::marconi100();
    let mut spec = WorkloadSpec::for_system(&cfg, 0.6, 9);
    spec.span = SimDuration::hours(4);
    let ds = marconi100::synthesize(&cfg, &spec);

    let exact = Engine::new(SimConfig::replay(cfg.clone()), &ds)
        .unwrap()
        .run()
        .unwrap();
    // Free placement: strip the recorded node sets.
    let mut stripped = ds.clone();
    stripped.edit_jobs(|jobs| {
        for j in jobs {
            j.recorded_nodes = None;
        }
    });
    let free = Engine::new(SimConfig::replay(cfg), &stripped)
        .unwrap()
        .run()
        .unwrap();

    println!(
        "  placement fallbacks: exact {} vs free {} (free always re-derives)",
        exact.sched_stats.placement_fallbacks, free.sched_stats.placement_fallbacks
    );
    check(
        "recorded placements honored without fallbacks on a feasible trace",
        exact.sched_stats.placement_fallbacks == 0,
    );
    check(
        "facility power unchanged by placement choice (occupancy-level model)",
        (exact.mean_power_kw() - free.mean_power_kw()).abs() / exact.mean_power_kw() < 0.01,
    );
}

/// 3: the backfill ladder on the saturated Fig 4 window.
fn ablate_backfill_ladder() {
    println!("\n-- backfill ladder (none → first-fit → easy) --");
    let s = scenario::fig4(7);
    let run = |backfill: &str| {
        let sim = SimConfig::new(s.config.clone(), "fcfs", backfill)
            .unwrap()
            .with_window(s.sim_start, s.sim_end);
        Engine::new(sim, &s.dataset).unwrap().run().unwrap()
    };
    let none = run("none");
    let ff = run("firstfit");
    let easy = run("easy");
    for out in [&none, &ff, &easy] {
        println!(
            "  {:<14} util {:>5.1}%  wait {:>6.0}s  AWRT {:>7.0}s  backfilled {}",
            out.label,
            out.mean_utilization() * 100.0,
            out.stats.avg_wait_secs(),
            out.stats.area_weighted_response_time(),
            out.sched_stats.backfilled
        );
    }
    check(
        "any backfill beats none on utilization",
        ff.mean_utilization() >= none.mean_utilization()
            && easy.mean_utilization() >= none.mean_utilization(),
    );
    // EASY's guarantee is *reservation protection* for wide jobs: under
    // plain first-fit a wide job can starve behind an endless stream of
    // narrow fills. Compare the wide-job experience directly.
    let wide_cut = s.config.total_nodes / 20; // ≥5 % of the machine
    let wide_stats = |o: &sraps_core::SimOutput| {
        let waits: Vec<f64> = o
            .outcomes
            .iter()
            .filter(|x| x.nodes >= wide_cut)
            .map(|x| x.wait().as_secs_f64())
            .collect();
        let n = waits.len();
        let mean = waits.iter().sum::<f64>() / n.max(1) as f64;
        (n, mean)
    };
    let (n_ff, wait_ff) = wide_stats(&ff);
    let (n_easy, wait_easy) = wide_stats(&easy);
    println!(
        "  wide jobs (≥{wide_cut} nodes): firstfit {n_ff} done, mean wait {wait_ff:.0}s; easy {n_easy} done, mean wait {wait_easy:.0}s"
    );
    check(
        "EASY protects wide jobs (completes at least as many, or they wait less)",
        n_easy > n_ff || (n_easy == n_ff && wait_easy <= wait_ff * 1.05),
    );
}

/// 4: the §3.2.2 missing-data rule. Jobs whose traces stop early keep
/// drawing the last known power; zero-filling instead under-reports energy.
fn ablate_missing_telemetry() {
    println!("\n-- missing-telemetry rule (last-known-value vs zero-fill) --");
    let cfg = presets::marconi100();
    let mut spec = WorkloadSpec::for_system(&cfg, 0.5, 11);
    spec.span = SimDuration::hours(3);
    let mut ds = marconi100::synthesize(&cfg, &spec);
    // Truncate every power trace to its first half (simulating telemetry
    // that stops at the capture boundary).
    let mut zero_ds = ds.clone();
    for (ds, zero) in [(&mut ds, false), (&mut zero_ds, true)] {
        ds.edit_jobs(|jobs| {
            for j in jobs {
                if let Some(t) = &mut j.telemetry.node_power_w {
                    let half = (t.len() / 2).max(1);
                    let mut values: Vec<f32> = t.values[..half].to_vec();
                    if zero {
                        // Zero-fill variant: pad explicitly with zeros.
                        values.resize(t.len(), 0.0);
                    }
                    *t = Trace::new(t.t0, t.dt, values);
                }
            }
        });
    }
    let run = |ds: &sraps_data::Dataset| {
        Engine::new(SimConfig::replay(cfg.clone()), ds)
            .unwrap()
            .run()
            .unwrap()
    };
    let lkv = run(&ds);
    let zero = run(&zero_ds);
    println!(
        "  mean power: last-known-value {:.0} kW vs zero-fill {:.0} kW",
        lkv.mean_power_kw(),
        zero.mean_power_kw()
    );
    check(
        "zero-fill underestimates facility power vs the paper's rule",
        zero.mean_power_kw() < lkv.mean_power_kw(),
    );
}

/// 5 (extension): the energy-aware power cap. Capping schedulable job
/// power clips the peaks the paper's Fig 7 forecasts, trading wait time.
fn ablate_power_cap() {
    println!("\n-- power cap (energy-aware scheduling, §4.2.2 discussion) --");
    let s = scenario::fig4(13);
    let run = |cap: Option<f64>| {
        let mut sim = SimConfig::new(s.config.clone(), "fcfs", "firstfit")
            .unwrap()
            .with_window(s.sim_start, s.sim_end);
        if let Some(kw) = cap {
            sim = sim.with_power_cap(kw);
        }
        Engine::new(sim, &s.dataset).unwrap().run().unwrap()
    };
    let free = run(None);
    let idle_kw = s.config.idle_it_power_kw();
    let peak_job_kw = free.peak_power_kw() - idle_kw;
    let capped = run(Some(peak_job_kw * 0.7));
    println!(
        "  peak power: uncapped {:.0} kW vs capped {:.0} kW (cap {:.0} kW over idle {:.0})",
        free.peak_power_kw(),
        capped.peak_power_kw(),
        peak_job_kw * 0.7,
        idle_kw
    );
    println!(
        "  avg wait:   uncapped {:.0}s vs capped {:.0}s",
        free.stats.avg_wait_secs(),
        capped.stats.avg_wait_secs()
    );
    check(
        "cap clips the power peak",
        capped.peak_power_kw() < free.peak_power_kw() * 0.97,
    );
    check(
        "capping trades wait time for the peak",
        capped.stats.avg_wait_secs() >= free.stats.avg_wait_secs(),
    );
}

/// 6 (extension): walltime-estimate correction (§5 future work). Tighter
/// estimates shrink EASY's shadow times, admitting more backfills.
fn ablate_walltime_correction() {
    println!("\n-- walltime correction (fingerprinting/prediction, §5) --");
    use sraps_ml::WalltimeModel;
    let s = scenario::fig4(17);
    let run = |ds: &sraps_data::Dataset| {
        let sim = SimConfig::new(s.config.clone(), "fcfs", "easy")
            .unwrap()
            .with_window(s.sim_start, s.sim_end);
        Engine::new(sim, ds).unwrap().run().unwrap()
    };
    let raw = run(&s.dataset);
    // Train on the day before the window, correct the whole dataset.
    let history: Vec<sraps_types::Job> = s
        .dataset
        .jobs()
        .iter()
        .filter(|j| j.recorded_end <= s.sim_start)
        .cloned()
        .collect();
    let model = WalltimeModel::fit(&history, 1.3).expect("enough history");
    let mut corrected_ds = s.dataset.clone();
    let tightened = corrected_ds.edit_jobs(|jobs| model.apply(jobs));
    let corrected = run(&corrected_ds);
    // Prediction quality vs the raw user over-request.
    let mae = model.mae_secs(&history);
    let raw_mae: f64 = history
        .iter()
        .map(|j| (j.estimate().as_secs_f64() - j.duration().as_secs_f64()).abs())
        .sum::<f64>()
        / history.len().max(1) as f64;
    println!(
        "  model MAE {mae:.0}s vs raw over-request MAE {raw_mae:.0}s on {} history jobs; {tightened} estimates tightened",
        history.len()
    );
    println!(
        "  backfilled: raw {} vs corrected {};  avg wait {:.0}s vs {:.0}s",
        raw.sched_stats.backfilled,
        corrected.sched_stats.backfilled,
        raw.stats.avg_wait_secs(),
        corrected.stats.avg_wait_secs()
    );
    println!(
        "  (note: tighter estimates shrink EASY's shadow windows; the net\n\
         scheduling effect is workload-dependent — the classic Mu'alem &\n\
         Feitelson result that padded estimates can *help* backfill)"
    );
    check(
        &format!("prediction beats raw over-request (MAE {mae:.0}s vs {raw_mae:.0}s)"),
        mae < raw_mae,
    );
    check(
        "both estimate regimes complete comparable work",
        (corrected.stats.jobs_completed as f64 - raw.stats.jobs_completed as f64).abs()
            / (raw.stats.jobs_completed.max(1) as f64)
            < 0.1,
    );
}

/// 7 (extension): node outages — the accuracy gap the paper flags. A
/// mid-window outage must dent utilization and power.
fn ablate_outages() {
    println!("\n-- node outages (down/drained nodes, §4.1 footnote) --");
    let cfg = presets::adastra();
    let mut spec = WorkloadSpec::for_system(&cfg, 0.9, 19);
    spec.span = SimDuration::hours(8);
    let ds = sraps_data::adastra::synthesize(&cfg, &spec);
    let outage = sraps_core::Outage {
        nodes: sraps_types::NodeSet::contiguous(0, cfg.total_nodes / 2),
        from: SimTime::seconds(3 * 3600),
        until: SimTime::seconds(5 * 3600),
    };
    let run = |outages: Vec<sraps_core::Outage>| {
        let sim = SimConfig::new(cfg.clone(), "fcfs", "easy")
            .unwrap()
            .with_outages(outages);
        Engine::new(sim, &ds).unwrap().run().unwrap()
    };
    let healthy = run(vec![]);
    let degraded = run(vec![outage]);
    println!(
        "  mean power: healthy {:.0} kW vs degraded {:.0} kW; completed {} vs {}",
        healthy.mean_power_kw(),
        degraded.mean_power_kw(),
        healthy.stats.jobs_completed,
        degraded.stats.jobs_completed
    );
    check(
        "outage reduces work completed in the window",
        degraded.stats.jobs_completed <= healthy.stats.jobs_completed,
    );
}
