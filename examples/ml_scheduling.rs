//! ML-guided scheduling (the Fig 10 experiment): train the clustering →
//! classification → prediction pipeline on historical jobs, annotate the
//! evaluation window with scores, and compare the `ml` policy against the
//! classical ones.
//!
//! ```sh
//! cargo run --release -p sraps-examples --example ml_scheduling
//! ```

use rayon::prelude::*;
use sraps_core::{Engine, SimConfig, SimOutput};
use sraps_data::scenario;
use sraps_examples::summary_line;
use sraps_ml::{MlPipeline, PipelineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Scaled Fugaku with a low-load phase then an overloaded phase.
    let mut s = scenario::fig10(42, 1024.0 / 158_976.0);
    println!(
        "scenario {}: {} jobs on {} nodes",
        s.label,
        s.dataset.len(),
        s.config.total_nodes
    );

    // Train on the first two days (history), evaluate on the rest.
    let split = sraps_types::SimTime::seconds(2 * 86_400);
    let history: Vec<sraps_types::Job> = s
        .dataset
        .jobs()
        .iter()
        .filter(|j| j.recorded_end <= split)
        .cloned()
        .collect();
    println!("training pipeline on {} historical jobs…", history.len());
    let pipeline = MlPipeline::train(&history, PipelineConfig::default())?;
    println!(
        "  {} clusters, static→cluster accuracy {:.1}%",
        pipeline.n_clusters(),
        pipeline.classifier_accuracy(&history) * 100.0
    );

    // Inference: annotate all jobs with scores (the artifact's
    // inference_results.parquet handoff).
    s.dataset.edit_jobs(|jobs| pipeline.annotate(jobs));

    let policies = ["fcfs", "sjf", "ljf", "priority", "ml"];
    let outputs: Vec<SimOutput> = policies
        .par_iter()
        .map(|policy| {
            let sim = SimConfig::new(s.config.clone(), policy, "firstfit")
                .expect("valid")
                .with_window(s.sim_start, s.sim_end);
            Engine::new(sim, &s.dataset)
                .expect("builds")
                .run()
                .expect("runs")
        })
        .collect();

    println!();
    for out in &outputs {
        println!("{}", summary_line(out));
    }

    // Fig 10(b): L2-normalized multi-objective comparison (lower = better).
    let stats: Vec<&sraps_acct::SystemStats> = outputs.iter().map(|o| &o.stats).collect();
    let rows = sraps_acct::system_stats::l2_normalize_objectives(&stats);
    println!("\nL2-normalized objectives (lower is better):");
    print!("{:<42}", "objective");
    for p in policies {
        print!("{p:>10}");
    }
    println!();
    for (j, (name, _)) in outputs[0].stats.objectives().iter().enumerate() {
        print!("{name:<42}");
        for row in &rows {
            print!("{:>10.3}", row[j]);
        }
        println!();
    }
    Ok(())
}
