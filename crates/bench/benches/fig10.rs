//! Fig 10: ML-guided scheduling on Fugaku/F-Data — (a) power per timestep
//! for sjf/fcfs/ljf/priority/ml across the low→high load transition, and
//! (b) the L2-normalized multi-objective comparison (lower is better).
//!
//! Paper's observations to reproduce:
//! * under low load all policies overlap (jobs start immediately);
//! * under high load the ML policy cuts power spikes by preferring small
//!   jobs, and wins or ties the wait/turnaround/energy trade-off.

use sraps_bench::{check, downsample, header, results_dir, run_pairs, sparkline, write_csvs};
use sraps_core::SimOutput;
use sraps_data::scenario;
use sraps_ml::{MlPipeline, PipelineConfig};
use sraps_types::SimTime;

fn main() {
    // Fugaku scaled to 4096 nodes (158 976 is memory-hostile for a laptop
    // bench; load fractions and the low/high phases are preserved).
    let mut s = scenario::fig10(42, 4096.0 / 158_976.0);
    header("fig10", "ML-guided scheduling on Fugaku (low→high load)");
    println!(
        "workload: {} jobs on {} nodes over 7 days\n",
        s.dataset.len(),
        s.config.total_nodes
    );

    // Train on the first two (low-load) days; annotate everything.
    let split = SimTime::seconds(2 * 86_400);
    let history: Vec<sraps_types::Job> = s
        .dataset
        .jobs()
        .iter()
        .filter(|j| j.recorded_end <= split)
        .cloned()
        .collect();
    let t0 = std::time::Instant::now();
    let pipeline = MlPipeline::train(&history, PipelineConfig::default()).expect("train");
    println!(
        "pipeline: trained on {} jobs in {:.2?}; {} clusters; static→cluster accuracy {:.1}%\n",
        history.len(),
        t0.elapsed(),
        pipeline.n_clusters(),
        pipeline.classifier_accuracy(&history) * 100.0
    );
    s.dataset.edit_jobs(|jobs| pipeline.annotate(jobs));

    let policies = ["sjf", "fcfs", "ljf", "priority", "ml"];
    let pairs: Vec<(&str, &str)> = policies.iter().map(|&p| (p, "firstfit")).collect();
    let outputs: Vec<SimOutput> = run_pairs(&s, &pairs, false);

    // --- Fig 10(a): power vs time. -----------------------------------
    println!("fig10a — power [kW] per policy:");
    for out in &outputs {
        let series: Vec<f64> = out.power.iter().map(|p| p.total_kw).collect();
        println!(
            "  {:<20} {}",
            out.label,
            sparkline(&downsample(&series, 84))
        );
        write_csvs("fig10", out);
    }

    let day = 86_400;
    let phase_stats = |out: &SimOutput, from: i64, to: i64| -> (f64, f64) {
        let vals: Vec<f64> = out
            .times
            .iter()
            .zip(&out.power)
            .filter(|(t, _)| (from..to).contains(&t.as_secs()))
            .map(|(_, p)| p.total_kw)
            .collect();
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        let peak = vals.iter().cloned().fold(0.0, f64::max);
        (mean, peak)
    };
    let fcfs = &outputs[1];
    let ml = &outputs[4];
    let (low_f, _) = phase_stats(fcfs, 0, day);
    let (low_m, _) = phase_stats(ml, 0, day);
    let (_, high_peak_f) = phase_stats(fcfs, 3 * day, 7 * day);
    let (_, high_peak_m) = phase_stats(ml, 3 * day, 7 * day);

    println!();
    check(
        &format!("policies overlap under low load (fcfs {low_f:.0} kW vs ml {low_m:.0} kW, day 1)"),
        (low_f - low_m).abs() / low_f < 0.02,
    );
    check(
        &format!(
            "ml holds peak power at or below fcfs under high load ({high_peak_m:.0} vs {high_peak_f:.0} kW)"
        ),
        high_peak_m <= high_peak_f * 1.03,
    );

    // --- Fig 10(b): L2-normalized objectives (lower is better). -------
    let stats: Vec<&sraps_acct::SystemStats> = outputs.iter().map(|o| &o.stats).collect();
    let rows = sraps_acct::system_stats::l2_normalize_objectives(&stats);
    println!("\nfig10b — L2-normalized objectives (lower is better):");
    print!("{:<44}", "objective");
    for p in policies {
        print!("{p:>10}");
    }
    println!();
    let mut csv = String::from("objective,sjf,fcfs,ljf,priority,ml\n");
    for (j, (name, _)) in outputs[0].stats.objectives().iter().enumerate() {
        print!("{name:<44}");
        let mut line = name.to_string();
        for row in &rows {
            print!("{:>10.3}", row[j]);
            line.push_str(&format!(",{:.4}", row[j]));
        }
        println!();
        csv.push_str(&line);
        csv.push('\n');
    }
    std::fs::write(results_dir("fig10").join("fig10b.csv"), csv).expect("csv");

    println!();
    let ml_ix = 4;
    let wait = rows.iter().map(|r| r[0]).collect::<Vec<_>>();
    let turnaround = rows.iter().map(|r| r[1]).collect::<Vec<_>>();
    let best_wait = wait.iter().cloned().fold(f64::INFINITY, f64::min);
    check(
        &format!(
            "ml wait time at or near the best (ml {:.3}, best {:.3})",
            wait[ml_ix], best_wait
        ),
        wait[ml_ix] <= best_wait * 1.25,
    );
    check(
        &format!(
            "ml beats ljf and priority on turnaround ({:.3} vs {:.3} / {:.3})",
            turnaround[ml_ix], turnaround[2], turnaround[3]
        ),
        turnaround[ml_ix] <= turnaround[2] && turnaround[ml_ix] <= turnaround[3] * 1.1,
    );
}
