//! Fig 6: the Frontier day with three 9216-node full-system runs, with the
//! cooling model — utilization, power, PUE, and cooling-tower return
//! temperature for replay / fcfs-nobf / fcfs-easy / priority-ffbf.
//!
//! Paper's observations to reproduce:
//! * the system drains to make room, then runs the three giants;
//! * rescheduling starts the giants earlier than replay;
//! * backfilled policies reach higher utilization while draining;
//! * backfill smooths the power (and return-temperature) jump after the
//!   giants.

use sraps_bench::{
    check, downsample, header, print_series_block, run_pairs, sparkline, write_csvs,
};
use sraps_core::SimOutput;
use sraps_data::scenario;
use sraps_types::SimTime;

fn main() {
    // Half-scale Frontier keeps the full dynamics (giants at 96 % of the
    // machine) at a tractable trace-generation cost; EXPERIMENTS.md records
    // the scaling rationale.
    let s = scenario::fig6_scaled(42, 0.5);
    header(
        "fig6",
        "Frontier day with 3 full-system runs (cooling model on)",
    );
    println!(
        "workload: {} jobs on {} nodes; giants of {} nodes\n",
        s.dataset.len(),
        s.config.total_nodes,
        s.dataset
            .jobs()
            .iter()
            .map(|j| j.nodes_requested)
            .max()
            .unwrap()
    );

    let runs = [
        ("replay", "none"),
        ("fcfs", "none"),
        ("fcfs", "easy"),
        ("priority", "firstfit"),
    ];
    let outputs: Vec<SimOutput> = run_pairs(&s, &runs, true);
    for out in &outputs {
        print_series_block(out, 72);
        let pue: Vec<f64> = out.cooling.iter().map(|c| c.pue).collect();
        let temp: Vec<f64> = out.cooling.iter().map(|c| c.tower_return_c).collect();
        println!(
            "  {:<24} PUE         {}  (mean {:>6.3})",
            "",
            sparkline(&downsample(&pue, 72)),
            pue.iter().sum::<f64>() / pue.len() as f64
        );
        println!(
            "  {:<24} return [°C] {}  (peak {:>6.2})",
            "",
            sparkline(&downsample(&temp, 72)),
            temp.iter().cloned().fold(0.0, f64::max)
        );
        write_csvs("fig6", out);
    }

    let replay = &outputs[0];
    let nobf = &outputs[1];
    let easy = &outputs[2];

    let giant = s
        .dataset
        .jobs()
        .iter()
        .map(|j| j.nodes_requested)
        .max()
        .unwrap();
    let first_giant = |o: &SimOutput| -> Option<SimTime> {
        o.outcomes
            .iter()
            .filter(|x| x.nodes == giant)
            .map(|x| x.start)
            .min()
    };

    println!();
    let starts: Vec<Option<SimTime>> = outputs.iter().map(first_giant).collect();
    for (out, st) in outputs.iter().zip(&starts) {
        match st {
            Some(t) => println!("  first giant start under {:<20} t={t}", out.label),
            None => println!(
                "  first giant start under {:<20} (not completed in window)",
                out.label
            ),
        }
    }
    let resched_min = starts[1..].iter().flatten().min().copied();
    match (starts[0], resched_min) {
        (Some(r), Some(e)) => check(
            &format!("rescheduling starts giants no later than replay ({e} vs {r})"),
            e <= r,
        ),
        _ => check("giants completed in replay and a rescheduled run", false),
    }
    check(
        &format!(
            "backfill lifts utilization while draining ({:.1}% vs replay {:.1}%)",
            easy.mean_utilization() * 100.0,
            replay.mean_utilization() * 100.0
        ),
        easy.mean_utilization() >= replay.mean_utilization(),
    );
    check(
        &format!(
            "backfill smooths the post-giant power jump (nobf swing {:.0} kW vs easy {:.0} kW)",
            nobf.max_power_swing_kw(),
            easy.max_power_swing_kw()
        ),
        easy.max_power_swing_kw() <= nobf.max_power_swing_kw() * 1.05,
    );
    let pue_band = |o: &SimOutput| {
        let lo = o
            .cooling
            .iter()
            .map(|c| c.pue)
            .fold(f64::INFINITY, f64::min);
        let hi = o.cooling.iter().map(|c| c.pue).fold(0.0, f64::max);
        (lo, hi)
    };
    let (lo, hi) = pue_band(replay);
    check(
        &format!("PUE in the paper's band and responsive ({lo:.3}..{hi:.3} vs paper ≈1.1–1.3)"),
        lo > 1.0 && hi < 1.5 && hi - lo > 0.001,
    );
    let run_pue = replay.run_pue().unwrap_or(0.0);
    check(
        &format!(
            "run-level PUE near the facility's reported average ({run_pue:.3} vs Frontier ≈1.06)"
        ),
        run_pue > 1.0 && run_pue < 1.25,
    );
    let temp_peak = |o: &SimOutput| {
        o.cooling
            .iter()
            .map(|c| c.tower_return_c)
            .fold(0.0, f64::max)
    };
    check(
        &format!(
            "return water responds to the giants (replay peak {:.1} °C vs nobf {:.1} °C)",
            temp_peak(replay),
            temp_peak(nobf)
        ),
        temp_peak(replay) > 24.0,
    );
}
