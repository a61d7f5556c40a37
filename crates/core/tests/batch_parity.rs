//! Shared-window parity: the sweep runs every cell of a workload — a
//! batch of engines — over one [`SimWindow`], built once. Sharing must
//! be invisible: every engine's histories, outcomes, stats, and ledgers
//! are **bit-identical** to an engine that built its own window. This
//! suite pins that across the policy × backfill grid, with outages,
//! power caps, cooling, and traced telemetry in the mix, plus on random
//! batch compositions via proptest.

use proptest::prelude::*;
use sraps_core::{Engine, EngineMode, Outage, SimConfig, SimOutput, SimWindow};
use sraps_data::{adastra, lassen, marconi100, Dataset, WorkloadSpec};
use sraps_systems::{presets, SystemConfig};
use sraps_types::{NodeSet, SimDuration, SimTime};

/// Exact equality on every output a run produces (wall time and profile
/// excluded: they are measurement, not simulation).
fn assert_identical(solo: &SimOutput, lane: &SimOutput, what: &str) {
    assert_eq!(solo.times, lane.times, "{what}: times differ");
    assert_eq!(solo.power, lane.power, "{what}: power history differs");
    assert_eq!(
        solo.utilization, lane.utilization,
        "{what}: utilization differs"
    );
    assert_eq!(
        solo.queue_depth, lane.queue_depth,
        "{what}: queue depth differs"
    );
    assert_eq!(
        solo.queue_demand_nodes, lane.queue_demand_nodes,
        "{what}: queue demand differs"
    );
    assert_eq!(solo.cooling, lane.cooling, "{what}: cooling differs");
    assert_eq!(solo.outcomes, lane.outcomes, "{what}: outcomes differ");
    assert_eq!(solo.stats, lane.stats, "{what}: stats differ");
    assert_eq!(
        solo.sched_stats, lane.sched_stats,
        "{what}: scheduler stats differ"
    );
    assert_eq!(
        solo.accounts.to_json().unwrap(),
        lane.accounts.to_json().unwrap(),
        "{what}: account ledgers differ"
    );
    assert_eq!(solo.label, lane.label, "{what}: label differs");
}

fn workload(cfg: &SystemConfig, load: f64, hours: i64, seed: u64) -> Dataset {
    let mut spec = WorkloadSpec::for_system(cfg, load, seed);
    spec.span = SimDuration::hours(hours);
    match cfg.name.as_str() {
        "marconi100" => marconi100::synthesize(cfg, &spec),
        "lassen" => lassen::synthesize(cfg, &spec),
        _ => adastra::synthesize(cfg, &spec),
    }
}

/// Run `sims` once each over a window of its own, and once as a batch
/// over one shared window, the engines advancing in interleaved
/// hour-long slices as concurrent sweep cells would; every engine in
/// the batch must match its solo twin exactly.
fn assert_batch_matches_solo(sims: Vec<SimConfig>, ds: &Dataset, what: &str) {
    let solo: Vec<SimOutput> = sims
        .iter()
        .map(|sim| Engine::new(sim.clone(), ds).unwrap().run().unwrap())
        .collect();
    let window = SimWindow::new(&sims[0], ds).unwrap();
    let mut engines: Vec<Engine> = sims
        .into_iter()
        .map(|sim| Engine::with_window(sim, &window).unwrap())
        .collect();
    let start = engines[0].sim_start();
    for hour in 1..=12 {
        for engine in &mut engines {
            engine.run_until(start + SimDuration::hours(hour)).unwrap();
        }
    }
    let batched: Vec<SimOutput> = engines.into_iter().map(|e| e.run().unwrap()).collect();
    assert_eq!(solo.len(), batched.len(), "{what}: engine count");
    for (k, (s, b)) in solo.iter().zip(&batched).enumerate() {
        assert_identical(s, b, &format!("{what} engine {k} ({})", s.label));
    }
}

#[test]
fn batch_equals_solo_across_policy_backfill_grid() {
    // Summary-telemetry system (constant traces → hoisted physics path):
    // all nine {policy}×{backfill} cells as lanes of one batch.
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.7, 6, 11);
    let mut sims = Vec::new();
    for policy in ["replay", "fcfs", "sjf"] {
        for backfill in ["none", "easy", "conservative"] {
            sims.push(SimConfig::new(cfg.clone(), policy, backfill).unwrap());
        }
    }
    assert_batch_matches_solo(sims, &ds, "adastra grid");
}

#[test]
fn batch_equals_solo_on_traced_telemetry() {
    // Marconi100 synthesizes per-job traces (non-constant telemetry →
    // the segment-cursor physics path, where chunk splits matter most).
    let cfg = presets::marconi100();
    let ds = workload(&cfg, 0.6, 4, 3);
    let sims = vec![
        SimConfig::new(cfg.clone(), "replay", "none").unwrap(),
        SimConfig::new(cfg.clone(), "fcfs", "easy").unwrap(),
        SimConfig::new(cfg.clone(), "sjf", "conservative").unwrap(),
    ];
    assert_batch_matches_solo(sims, &ds, "marconi100 traced");
}

#[test]
fn batch_equals_solo_with_outages_cooling_and_power_caps() {
    // Everything on at once, with per-lane differences in cap level so
    // lanes diverge early and the shared chunks stay small.
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.5, 6, 19);
    let outages = vec![
        Outage {
            nodes: NodeSet::contiguous(0, cfg.total_nodes / 4),
            from: SimTime::seconds(3_600),
            until: SimTime::seconds(2 * 3_600),
        },
        Outage {
            // An edge deliberately off the tick grid.
            nodes: NodeSet::contiguous(cfg.total_nodes / 2, 8),
            from: SimTime::seconds(4 * 3_600 + 7),
            until: SimTime::seconds(5 * 3_600 + 131),
        },
    ];
    let base = SimConfig::new(cfg.clone(), "fcfs", "easy")
        .unwrap()
        .with_cooling()
        .with_outages(outages);
    let sims = vec![
        base.clone().with_power_cap(cfg.peak_it_power_kw() * 0.4),
        base.clone().with_power_cap(cfg.peak_it_power_kw() * 0.6),
        base,
    ];
    assert_batch_matches_solo(sims, &ds, "adastra +outages +cooling +caps");
}

#[test]
fn batch_equals_solo_with_windowed_prepopulation_and_accounts() {
    let cfg = presets::marconi100();
    let ds = workload(&cfg, 0.8, 8, 5);
    // Window starts mid-dataset so every lane prepopulates.
    let start = SimTime::seconds(3 * 3600);
    let sims: Vec<SimConfig> = [("fcfs", "firstfit"), ("sjf", "easy"), ("replay", "none")]
        .into_iter()
        .map(|(p, b)| {
            SimConfig::new(cfg.clone(), p, b)
                .unwrap()
                .with_accounts()
                .with_window(start, start + SimDuration::hours(3))
        })
        .collect();
    assert_batch_matches_solo(sims, &ds, "windowed marconi100 +accounts");
}

#[test]
fn batch_handles_mixed_engine_modes() {
    // Tick- and event-core engines over one window must each match
    // their solo runs exactly.
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.6, 3, 41);
    let sims = vec![
        SimConfig::new(cfg.clone(), "fcfs", "easy").unwrap(),
        SimConfig::new(cfg.clone(), "fcfs", "easy")
            .unwrap()
            .with_engine(EngineMode::Tick),
        SimConfig::new(cfg.clone(), "sjf", "conservative").unwrap(),
    ];
    assert_batch_matches_solo(sims, &ds, "mixed engine modes");
}

#[test]
fn batch_rejects_empty_and_mismatched_windows() {
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.5, 4, 7);
    let whole = SimConfig::new(cfg.clone(), "fcfs", "none").unwrap();
    let empty = whole
        .clone()
        .with_window(SimTime::seconds(3600), SimTime::seconds(3600));
    assert!(SimWindow::new(&empty, &ds).is_err(), "empty window");
    let clipped = whole.with_window(SimTime::seconds(3600), SimTime::seconds(2 * 3600));
    let window = SimWindow::new(&clipped, &ds).unwrap();
    let shifted = SimConfig::new(cfg, "fcfs", "none")
        .unwrap()
        .with_window(SimTime::seconds(0), SimTime::seconds(3600));
    assert!(
        Engine::with_window(shifted, &window).is_err(),
        "with_window must reject explicitly mismatched bounds"
    );
}

proptest! {
    /// Random batch compositions over random workloads: any subset of
    /// the {fcfs,sjf,replay}×{none,easy,conservative} grid, with optional
    /// outage and per-engine power caps, sharing one window on both a
    /// constant- and a traced-telemetry system — always bit-identical to
    /// solo runs.
    #[test]
    fn random_lane_compositions_match_solo(
        traced in any::<bool>(),
        load in 0.2f64..1.1,
        seed in 0u64..1_000,
        lanes in prop::collection::vec((0usize..3, 0usize..3, 0.3f64..0.8, any::<bool>()), 1..5),
        outage in any::<bool>(),
    ) {
        let cfg = if traced { presets::marconi100() } else { presets::adastra() };
        let ds = workload(&cfg, load, 2, seed);
        let policies = ["fcfs", "sjf", "replay"];
        let backfills = ["none", "easy", "conservative"];
        let sims: Vec<SimConfig> = lanes
            .iter()
            .map(|&(p, b, cap_frac, capped)| {
                let mut sim = SimConfig::new(cfg.clone(), policies[p], backfills[b]).unwrap();
                if capped {
                    sim = sim.with_power_cap(cfg.peak_it_power_kw() * cap_frac);
                }
                if outage {
                    sim = sim.with_outages(vec![Outage {
                        nodes: NodeSet::contiguous(0, cfg.total_nodes / 3),
                        from: SimTime::seconds(1_800),
                        until: SimTime::seconds(5_400),
                    }]);
                }
                sim
            })
            .collect();
        assert_batch_matches_solo(sims, &ds, "random composition");
    }
}
