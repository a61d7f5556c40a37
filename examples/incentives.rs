//! Incentive structures (the Fig 8 experiment): a *collection* replay run
//! accumulates per-account behaviour (average power, EDP, Fugaku points);
//! *redeeming* runs then prioritize jobs by their account's standing and
//! the digital twin shows how each incentive reshapes the power profile.
//!
//! ```sh
//! cargo run --release -p sraps-examples --example incentives
//! ```

use sraps_core::{Engine, SchedulerSelect, SimConfig};
use sraps_data::scenario;
use sraps_examples::{downsample, sparkline, summary_line};
use sraps_types::AccountId;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A scaled Frontier day with the three full-system runs (Fig 6/8 day).
    let s = scenario::fig6_scaled(42, 0.08);
    println!(
        "scenario {}: {} jobs on {} nodes",
        s.label,
        s.dataset.len(),
        s.config.total_nodes
    );

    // Collection phase: replay with --accounts.
    let sim = SimConfig::replay(s.config.clone())
        .with_window(s.sim_start, s.sim_end)
        .with_accounts();
    let collection = Engine::new(sim, &s.dataset)?.run()?;
    println!(
        "\ncollection (replay): {} accounts tracked",
        collection.accounts.len()
    );

    // Persist and reload accounts.json, exactly like the artifact flow.
    let dir = std::env::temp_dir().join("sraps-incentives");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("accounts.json");
    collection.accounts.save(&path)?;
    let accounts = sraps_acct::Accounts::load(&path)?;

    // Show the account spread the incentives act on.
    let mut by_pts: Vec<(&u32, &sraps_acct::AccountStats)> = accounts.stats.iter().collect();
    by_pts.sort_by(|a, b| b.1.fugaku_points.partial_cmp(&a.1.fugaku_points).unwrap());
    println!("\naccount                 node-hours   avgP[kW]   fugaku-pts");
    for (id, st) in by_pts.iter().take(3).chain(by_pts.iter().rev().take(3)) {
        println!(
            "  {:<20} {:>10.1} {:>10.3} {:>12.1}",
            AccountId(**id).to_string(),
            st.node_hours,
            st.avg_node_power_kw,
            st.fugaku_points
        );
    }

    // Redeeming phase: four incentive policies, first-fit backfill.
    let mut outputs = vec![collection];
    for policy in [
        "acct_avg_power",
        "acct_low_avg_power",
        "acct_edp",
        "acct_fugaku_pts",
    ] {
        let sim = SimConfig::new(s.config.clone(), policy, "firstfit")?
            .with_window(s.sim_start, s.sim_end)
            .with_scheduler(SchedulerSelect::Experimental)
            .with_accounts_json(accounts.clone());
        outputs.push(Engine::new(sim, &s.dataset)?.run()?);
    }

    println!();
    for out in &outputs {
        println!("{}", summary_line(out));
    }
    println!("\npower [kW]:");
    for out in &outputs {
        let series: Vec<f64> = out.power.iter().map(|p| p.total_kw).collect();
        println!(
            "  {:<26} {}",
            out.label,
            sparkline(&downsample(&series, 56))
        );
    }

    println!(
        "\nNote how acct_fugaku_pts defers the hottest accounts' jobs while\n\
         acct_avg_power pulls them forward — the mirrored profiles of Fig 8."
    );
    Ok(())
}
