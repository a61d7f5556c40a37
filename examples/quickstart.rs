//! Quickstart: synthesize an Adastra-shaped workload, replay it, then
//! reschedule it with FCFS + EASY, and compare what the digital twin sees.
//!
//! ```sh
//! cargo run --release -p sraps-examples --example quickstart
//! ```

use sraps_core::{Engine, SimConfig};
use sraps_data::{adastra, WorkloadSpec};
use sraps_examples::{downsample, sparkline, summary_line};
use sraps_systems::presets;
use sraps_types::SimDuration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a system (Table 1 presets or SystemConfigBuilder for yours).
    let system = presets::adastra();
    println!(
        "system: {} ({} nodes, {})",
        system.name, system.total_nodes, system.architecture
    );

    // 2. Synthesize a dataset shaped like the system's public dataset.
    let mut spec = WorkloadSpec::for_system(&system, 0.7, 42);
    spec.span = SimDuration::hours(12);
    let dataset = adastra::synthesize(&system, &spec);
    println!("dataset: {} jobs over {}", dataset.len(), spec.span);

    // 3. Replay — the digital twin reproduces the recorded history.
    let replay = Engine::new(SimConfig::replay(system.clone()), &dataset)?.run()?;

    // 4. Reschedule — same jobs, a policy of your choosing.
    let sim = SimConfig::new(system, "fcfs", "easy")?;
    let resched = Engine::new(sim, &dataset)?.run()?;

    println!("\n{}", summary_line(&replay));
    println!("{}", summary_line(&resched));

    println!("\npower over time [kW]:");
    for out in [&replay, &resched] {
        let series: Vec<f64> = out.power.iter().map(|p| p.total_kw).collect();
        println!(
            "  {:<12} {}",
            out.label,
            sparkline(&downsample(&series, 72))
        );
    }
    println!("\nutilization over time:");
    for out in [&replay, &resched] {
        println!(
            "  {:<12} {}",
            out.label,
            sparkline(&downsample(&out.utilization, 72))
        );
    }

    println!("\nstats ({}):\n{}", resched.label, resched.stats.render());
    Ok(())
}
