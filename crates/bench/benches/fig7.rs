//! Fig 7: the FastSim→RAPS sequential integration on a synthetic Frontier
//! trace (5 324 jobs / 15 days): FastSim schedules, RAPS replays the
//! schedule and computes the resource usage over time — showing the
//! Tuesday-morning dip followed by a spike, and the ≫real-time speedup
//! (paper: 31 min 24 s for 15 days ⇒ 688×).

use sraps_bench::{check, downsample, header, results_dir, sparkline};
use sraps_core::{Engine, SimConfig};
use sraps_data::scenario;
use sraps_extsched::{ExtJob, FastSim};
use sraps_sched::QueuedJob;
use sraps_types::SimTime;

fn main() {
    let s = scenario::fig7(42, 0.5);
    header(
        "fig7",
        "FastSim-scheduled synthetic Frontier trace, replayed in RAPS",
    );
    println!(
        "workload: {} jobs over 15 days on {} nodes\n",
        s.dataset.len(),
        s.config.total_nodes
    );

    // Stage 1: FastSim schedules the full trace (sequential mode).
    let ext_jobs: Vec<ExtJob> = s
        .dataset
        .jobs()
        .iter()
        .map(|j| ExtJob {
            job: QueuedJob {
                id: j.id,
                account: j.account,
                submit: j.submit,
                nodes: j.nodes_requested,
                estimate: j.estimate(),
                priority: j.priority,
                ml_score: None,
                recorded_start: j.recorded_start,
                recorded_nodes: j.recorded_nodes.clone(),
            },
            duration: j.duration(),
        })
        .collect();
    let wall = std::time::Instant::now();
    let (starts, fstats) = FastSim::run_trace(s.config.total_nodes, ext_jobs);
    let fastsim_wall = wall.elapsed();
    println!(
        "fastsim: {} jobs scheduled in {:.2?} ({} events, {} passes)",
        starts.len(),
        fastsim_wall,
        fstats.events_processed,
        fstats.scheduling_passes
    );

    // Stage 2: transform FastSim output into the RAPS dataloader format
    // (the artifact's transform_data.py step).
    let mut rescheduled = s.dataset.clone();
    let by_id: std::collections::HashMap<_, SimTime> =
        starts.iter().map(|st| (st.job, st.start)).collect();
    rescheduled.edit_jobs(|jobs| {
        for j in jobs {
            if let Some(&start) = by_id.get(&j.id) {
                let dur = j.duration();
                j.recorded_start = start;
                j.recorded_end = start + dur;
                j.recorded_nodes = None;
            }
        }
    });

    // Stage 3: RAPS replays the FastSim schedule.
    let sim = SimConfig::replay(s.config.clone()).with_window(s.sim_start, s.sim_end);
    let out = Engine::new(sim, &rescheduled)
        .expect("engine")
        .run()
        .expect("run");
    let series: Vec<f64> = out.power.iter().map(|p| p.total_kw).collect();
    println!("\n  power [kW] {}", sparkline(&downsample(&series, 90)));
    std::fs::write(results_dir("fig7").join("power.csv"), out.power_csv()).expect("csv");

    // Checks: the dip-then-spike and the speedup.
    let day = 86_400;
    let mean_in = |from: i64, to: i64| {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, p) in out.times.iter().zip(&out.power) {
            if (from..to).contains(&t.as_secs()) {
                sum += p.total_kw;
                n += 1;
            }
        }
        sum / n.max(1) as f64
    };
    let lull = mean_in(8 * day, 8 * day + 6 * 3600);
    let spike = mean_in(8 * day + 8 * 3600, 8 * day + 14 * 3600);
    println!();
    check(
        &format!("Tuesday-morning dip → spike (overnight {lull:.0} kW, morning {spike:.0} kW)"),
        spike > lull * 1.05,
    );
    let total_wall = fastsim_wall + out.wall_time;
    let speedup = out.sim_span.as_secs_f64() / total_wall.as_secs_f64();
    check(
        &format!(
            "simulation ≫ real time: 15 days in {:.2?} ⇒ {:.0}× (paper: 688×)",
            total_wall, speedup
        ),
        speedup > 100.0,
    );
    check(
        &format!(
            "all jobs scheduled by FastSim ({} of {})",
            starts.len(),
            s.dataset.len()
        ),
        starts.len() == s.dataset.len(),
    );
}
