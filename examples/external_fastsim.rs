//! External scheduler integration (§4.2.2): drive S-RAPS with the FastSim
//! emulator in *plugin mode*, then run the faster *sequential mode*
//! (FastSim schedules the whole trace, RAPS replays the result) and report
//! the simulation speedup the paper quantifies (688× on their trace).
//!
//! ```sh
//! cargo run --release -p sraps-examples --example external_fastsim
//! ```

use sraps_core::{Engine, SchedulerSelect, SimConfig};
use sraps_data::scenario;
use sraps_examples::{downsample, sparkline, summary_line};
use sraps_extsched::{ExtJob, FastSim};
use sraps_sched::QueuedJob;
use sraps_types::SimTime;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The Fig 7 synthetic Frontier trace (scaled machine for a laptop run).
    let s = scenario::fig7(42, 0.05);
    println!(
        "scenario {}: {} jobs over 15 days on {} nodes",
        s.label,
        s.dataset.len(),
        s.config.total_nodes
    );

    // --- Plugin mode: FastSim driven tick-by-tick by S-RAPS. -------------
    // (Short window: the point is the integration path, not throughput.)
    let sim = SimConfig::new(s.config.clone(), "fcfs", "easy")?
        .with_scheduler(SchedulerSelect::FastSim)
        .with_window(s.sim_start, s.sim_start + sraps_types::SimDuration::days(1));
    let plugin_out = Engine::new(sim, &s.dataset)?.run()?;
    println!("\nplugin mode (1 day window):");
    println!("{}", summary_line(&plugin_out));

    // --- Sequential mode: schedule everything in FastSim first… ---------
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
    let (starts, stats) = FastSim::run_trace(s.config.total_nodes, ext_jobs);
    let fastsim_wall = wall.elapsed();
    println!("\nsequential mode:");
    println!(
        "  fastsim scheduled {} jobs in {:?} ({} events, {} passes)",
        starts.len(),
        fastsim_wall,
        stats.events_processed,
        stats.scheduling_passes
    );

    // …then replay the FastSim schedule in RAPS (recorded starts replaced).
    let mut rescheduled = s.dataset.clone();
    let by_id: std::collections::HashMap<_, SimTime> =
        starts.iter().map(|st| (st.job, st.start)).collect();
    rescheduled.edit_jobs(|jobs| {
        for j in jobs {
            if let Some(&start) = by_id.get(&j.id) {
                let dur = j.duration();
                j.recorded_start = start;
                j.recorded_end = start + dur;
                j.recorded_nodes = None; // FastSim decided counts, not placements
            }
        }
    });
    let replay = SimConfig::replay(s.config.clone()).with_window(s.sim_start, s.sim_end);
    let raps_out = Engine::new(replay, &rescheduled)?.run()?;
    println!("{}", summary_line(&raps_out));

    let series: Vec<f64> = raps_out.power.iter().map(|p| p.total_kw).collect();
    println!("\n15-day power profile (note the Tuesday-morning dip → spike):");
    println!("  {}", sparkline(&downsample(&series, 90)));

    let total_wall = fastsim_wall + raps_out.wall_time;
    let speedup = raps_out.sim_span.as_secs_f64() / total_wall.as_secs_f64();
    println!(
        "\nsimulated {:.1} days in {:.2?} → {:.0}× faster than real time (paper: 688×)",
        raps_out.sim_span.as_secs_f64() / 86_400.0,
        total_wall,
        speedup
    );
    Ok(())
}
