//! Model *your own* machine — the extension path §3.2.1 emphasizes
//! ("administrators can easily represent their systems"): build a custom
//! system with `SystemConfigBuilder`, bring a trace in Standard Workload
//! Format, and run what-if studies with outages, weather, and a power cap.
//!
//! ```sh
//! cargo run --release -p sraps-examples --example custom_system
//! ```

use sraps_acct::Users;
use sraps_core::{Engine, Outage, SimConfig};
use sraps_data::synthetic::gen_wetbulb_trace;
use sraps_data::{swf, WorkloadSpec};
use sraps_examples::summary_line;
use sraps_systems::SystemConfigBuilder;
use sraps_types::{SimDuration, SimTime};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the machine: 512 nodes, 4 GPUs each, warm-water cooled.
    let system = SystemConfigBuilder::new("tiny-exa", 512)
        .cpu_power(90.0, 260.0)
        .gpus(4, 300.0, 1700.0)
        .overheads(110.0, 90.0)
        .scheduler_defaults("fcfs", "easy")
        .tick_seconds(30)
        .build()?;
    println!(
        "custom system '{}': {} nodes, peak {:.1} MW",
        system.name,
        system.total_nodes,
        system.peak_it_power_kw() / 1000.0
    );

    // 2. A trace: normally you would read your site's SWF file —
    //    `swf::parse_swf("tiny-exa", &std::fs::read_to_string(path)?, ppn)`.
    //    Here we synthesize one, export it to SWF, and re-import it to show
    //    the round trip.
    let spec = {
        let mut s = WorkloadSpec::for_system(&system, 0.8, 7);
        s.span = SimDuration::hours(12);
        s
    };
    let generated = sraps_data::frontier::synthesize(&system, &spec);
    let swf_text = swf::to_swf(&generated, 1);
    let mut dataset = swf::parse_swf("tiny-exa", &swf_text, 1)?;
    // SWF carries no power telemetry — re-attach your site's power
    // profiles (or fingerprint predictions) per job id, as a real
    // deployment would. Without this the twin can only model idle draw.
    let telemetry: std::collections::HashMap<_, _> = generated
        .jobs()
        .iter()
        .map(|j| (j.id, j.telemetry.clone()))
        .collect();
    dataset.edit_jobs(|jobs| {
        for j in jobs {
            if let Some(t) = telemetry.get(&j.id) {
                j.telemetry = t.clone();
            }
        }
    });
    println!(
        "trace: {} jobs via SWF round-trip (+ telemetry re-attach)",
        dataset.len()
    );

    // 3. What-if: a healthy run vs a degraded afternoon with two rack
    //    outages, a hot day, and a facility power cap.
    let healthy = Engine::new(
        SimConfig::new(system.clone(), "fcfs", "easy")?.with_cooling(),
        &dataset,
    )?
    .run()?;

    let outages = Outage::synthetic_set(99, system.total_nodes, SimTime::seconds(12 * 3600), 2);
    let hot_day = gen_wetbulb_trace(
        SimDuration::hours(24),
        SimDuration::minutes(10),
        22.0, // tropical night
        9.0,  // +9 °C by mid-afternoon
    );
    let cap_kw = system.peak_it_power_kw() * 0.6;
    let degraded = Engine::new(
        SimConfig::new(system, "fcfs", "easy")?
            .with_cooling()
            .with_outages(outages)
            .with_weather(hot_day)
            .with_power_cap(cap_kw),
        &dataset,
    )?
    .run()?;

    println!("\n{}", summary_line(&healthy));
    println!("{}", summary_line(&degraded));
    let peak_temp = |o: &sraps_core::SimOutput| {
        o.cooling
            .iter()
            .map(|c| c.tower_return_c)
            .fold(0.0, f64::max)
    };
    println!(
        "\npeak tower return: healthy {:.1} °C vs degraded {:.1} °C",
        peak_temp(&healthy),
        peak_temp(&degraded)
    );
    println!(
        "peak power:        healthy {:.0} kW vs capped {:.0} kW (cap {:.0} kW)",
        healthy.peak_power_kw(),
        degraded.peak_power_kw(),
        cap_kw
    );
    println!(
        "user wait spread:  healthy {:.1}x vs degraded {:.1}x",
        Users::from_outcomes(&healthy.outcomes).wait_spread(3),
        Users::from_outcomes(&degraded.outcomes).wait_spread(3)
    );
    Ok(())
}
