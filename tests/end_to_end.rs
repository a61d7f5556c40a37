//! End-to-end integration tests across the full stack: dataloaders →
//! engine → scheduler → power/cooling → accounting.

use sraps_acct::Users;
use sraps_core::{Engine, SchedulerSelect, SimConfig};
use sraps_data::{scenario, WorkloadSpec};
use sraps_integration::{run, small_workload};
use sraps_ml::{MlPipeline, PipelineConfig};
use sraps_systems::presets;
use sraps_types::{SimDuration, SimTime};

#[test]
fn every_policy_completes_the_same_job_set_with_headroom() {
    // At low load every rescheduling policy should finish the same job
    // set — ordering cannot lose work, only move it. Replay may complete
    // slightly fewer: its recorded history carries scheduler start lag, so
    // the last jobs can spill past the capture window.
    let (cfg, ds) = small_workload(0.4, 6, 11);
    let replay = run(&cfg, &ds, "replay", "none").stats.jobs_completed;
    let expected = run(&cfg, &ds, "fcfs", "none").stats.jobs_completed;
    for policy in ["fcfs", "sjf", "ljf", "priority"] {
        for backfill in ["none", "firstfit", "easy"] {
            let out = run(&cfg, &ds, policy, backfill);
            assert_eq!(
                out.stats.jobs_completed, expected,
                "{policy}-{backfill} lost jobs"
            );
        }
    }
    assert!(
        (replay as i64 - expected as i64).abs() <= (expected / 20).max(2) as i64,
        "replay ({replay}) far from reschedule ({expected})"
    );
}

#[test]
fn all_five_dataloaders_drive_the_engine() {
    for system in ["frontier", "marconi100", "fugaku", "lassen", "adastra"] {
        let mut cfg = presets::system_by_name(system).unwrap();
        if cfg.total_nodes > 1024 {
            cfg = cfg.scaled_to(512);
        }
        let mut spec = WorkloadSpec::for_system(&cfg, 0.6, 3);
        spec.span = SimDuration::hours(3);
        let ds = match system {
            "frontier" => sraps_data::frontier::synthesize(&cfg, &spec),
            "marconi100" => sraps_data::marconi100::synthesize(&cfg, &spec),
            "fugaku" => sraps_data::fugaku::synthesize(&cfg, &spec),
            "lassen" => sraps_data::lassen::synthesize(&cfg, &spec),
            "adastra" => sraps_data::adastra::synthesize(&cfg, &spec),
            _ => unreachable!(),
        };
        let out = run(&cfg, &ds, "fcfs", "easy");
        assert!(out.stats.jobs_completed > 0, "{system} completed nothing");
        assert!(
            out.mean_power_kw() >= cfg.idle_it_power_kw(),
            "{system} below idle power"
        );
    }
}

#[test]
fn swf_import_runs_through_the_engine() {
    // Jobs exported to SWF and re-imported must still simulate.
    let (cfg, ds) = small_workload(0.5, 4, 17);
    let text = sraps_data::swf::to_swf(&ds, 1);
    let reloaded = sraps_data::swf::parse_swf("lassen", &text, 1).unwrap();
    assert_eq!(reloaded.len(), ds.len());
    let out = run(&cfg, &reloaded, "fcfs", "easy");
    assert!(out.stats.jobs_completed > 0);
}

#[test]
fn accounts_roundtrip_feeds_experimental_scheduler() {
    let (cfg, ds) = small_workload(0.8, 6, 23);
    // Collection.
    let sim = SimConfig::replay(cfg.clone()).with_accounts();
    let collection = Engine::new(sim, &ds).unwrap().run().unwrap();
    assert!(!collection.accounts.is_empty());
    let json = collection.accounts.to_json().unwrap();
    let accounts = sraps_acct::Accounts::from_json(&json).unwrap();
    // Redeeming with each incentive policy.
    for policy in [
        "acct_avg_power",
        "acct_low_avg_power",
        "acct_edp",
        "acct_ed2p",
        "acct_fugaku_pts",
    ] {
        let sim = SimConfig::new(cfg.clone(), policy, "firstfit")
            .unwrap()
            .with_scheduler(SchedulerSelect::Experimental)
            .with_accounts_json(accounts.clone());
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert!(out.stats.jobs_completed > 0, "{policy} completed nothing");
    }
}

#[test]
fn incentive_policies_actually_reorder_under_contention() {
    let s = scenario::fig6_scaled(5, 0.05);
    let sim = SimConfig::replay(s.config.clone())
        .with_window(s.sim_start, s.sim_end)
        .with_accounts();
    let collection = Engine::new(sim, &s.dataset).unwrap().run().unwrap();
    let redeem = |policy: &str| {
        let sim = SimConfig::new(s.config.clone(), policy, "firstfit")
            .unwrap()
            .with_window(s.sim_start, s.sim_end)
            .with_scheduler(SchedulerSelect::Experimental)
            .with_accounts_json(collection.accounts.clone());
        Engine::new(sim, &s.dataset).unwrap().run().unwrap()
    };
    let hot_first = redeem("acct_avg_power");
    let cool_first = redeem("acct_low_avg_power");
    // Opposite priorities must change mean start times of hot accounts'
    // jobs: find the hottest account and compare its mean start.
    let hottest = collection
        .accounts
        .stats
        .iter()
        .max_by(|a, b| {
            a.1.avg_node_power_kw
                .partial_cmp(&b.1.avg_node_power_kw)
                .unwrap()
        })
        .map(|(id, _)| *id)
        .unwrap();
    let mean_start = |out: &sraps_core::SimOutput| {
        let starts: Vec<f64> = out
            .outcomes
            .iter()
            .filter(|o| o.account.0 == hottest)
            .map(|o| o.start.as_secs_f64())
            .collect();
        starts.iter().sum::<f64>() / starts.len().max(1) as f64
    };
    assert!(
        mean_start(&hot_first) <= mean_start(&cool_first),
        "acct_avg_power must start the hottest account no later than acct_low_avg_power"
    );
}

#[test]
fn ml_pipeline_to_engine_handoff() {
    let mut s = scenario::fig10(9, 512.0 / 158_976.0);
    let split = SimTime::seconds(2 * 86_400);
    let history: Vec<sraps_types::Job> = s
        .dataset
        .jobs()
        .iter()
        .filter(|j| j.recorded_end <= split)
        .cloned()
        .collect();
    let pipeline = MlPipeline::train(&history, PipelineConfig::default()).unwrap();
    s.dataset.edit_jobs(|jobs| pipeline.annotate(jobs));
    assert!(s.dataset.jobs().iter().all(|j| j.ml_score.is_some()));
    let sim = SimConfig::new(s.config.clone(), "ml", "firstfit")
        .unwrap()
        .with_window(s.sim_start, s.sim_end);
    let out = Engine::new(sim, &s.dataset).unwrap().run().unwrap();
    assert!(out.stats.jobs_completed > 0);
}

#[test]
fn external_fastsim_plugin_matches_builtin_fcfs_easy_roughly() {
    // FastSim implements FCFS+EASY like the builtin; driven through the
    // plugin protocol it should land within a few percent on utilization.
    let (cfg, ds) = small_workload(0.7, 6, 31);
    let builtin = run(&cfg, &ds, "fcfs", "easy");
    let sim = SimConfig::new(cfg, "fcfs", "easy")
        .unwrap()
        .with_scheduler(SchedulerSelect::FastSim);
    let external = Engine::new(sim, &ds).unwrap().run().unwrap();
    let (u1, u2) = (builtin.mean_utilization(), external.mean_utilization());
    assert!(
        (u1 - u2).abs() < 0.1,
        "builtin {u1} vs fastsim-plugin {u2} utilization"
    );
    assert_eq!(
        builtin.stats.jobs_completed, external.stats.jobs_completed,
        "same job set must complete"
    );
}

#[test]
fn scheduleflow_overhead_exceeds_builtin() {
    let cfg = presets::adastra();
    let mut spec = WorkloadSpec::for_system(&cfg, 0.3, 37);
    spec.span = SimDuration::hours(1);
    let ds = sraps_data::adastra::synthesize(&cfg, &spec);
    let builtin = run(&cfg, &ds, "fcfs", "none");
    let sim = SimConfig::new(cfg, "fcfs", "none")
        .unwrap()
        .with_scheduler(SchedulerSelect::ScheduleFlow);
    let sf = Engine::new(sim, &ds).unwrap().run().unwrap();
    assert!(
        sf.sched_stats.recomputations > builtin.sched_stats.recomputations,
        "scheduleflow recomputes per interaction ({} vs {})",
        sf.sched_stats.recomputations,
        builtin.sched_stats.recomputations
    );
}

#[test]
fn cooling_model_couples_to_scheduling() {
    // Same workload, two policies: the cooling trajectories must differ
    // when the power trajectories differ (the DCDT coupling the paper is
    // about), and track power direction.
    let s = scenario::fig6_scaled(13, 0.04);
    let run_cooled = |policy: &str, backfill: &str| {
        let sim = SimConfig::new(s.config.clone(), policy, backfill)
            .unwrap()
            .with_window(s.sim_start, s.sim_end)
            .with_cooling();
        Engine::new(sim, &s.dataset).unwrap().run().unwrap()
    };
    let a = run_cooled("fcfs", "none");
    let b = run_cooled("fcfs", "easy");
    assert_eq!(a.cooling.len(), a.power.len());
    // Peak return temperature must follow peak power ordering.
    let peak_t = |o: &sraps_core::SimOutput| {
        o.cooling
            .iter()
            .map(|c| c.tower_return_c)
            .fold(0.0, f64::max)
    };
    let (pa, pb) = (a.peak_power_kw(), b.peak_power_kw());
    let (ta, tb) = (peak_t(&a), peak_t(&b));
    if (pa - pb).abs() > 100.0 {
        assert_eq!(
            pa > pb,
            ta > tb,
            "hotter power profile must produce hotter return water"
        );
    }
}

#[test]
fn infeasible_exact_trace_degrades_gracefully() {
    // Two jobs recorded on the SAME nodes at the SAME time — a corrupt
    // trace. Replay must fall back to count-based placement, not corrupt
    // occupancy or error out.
    use sraps_types::job::JobBuilder;
    use sraps_types::{JobTelemetry, NodeSet, SimDuration};
    let cfg = presets::adastra();
    let jobs = (0..2u64)
        .map(|i| {
            JobBuilder::new(i)
                .submit(SimTime::seconds(0))
                .window(SimTime::seconds(60), SimTime::seconds(3660))
                .walltime(SimDuration::hours(2))
                .nodes(4)
                .placement(NodeSet::contiguous(0, 4)) // both claim nodes 0-3
                .telemetry(JobTelemetry::from_scalars(0.5, Some(0.5), 900.0))
                .build()
        })
        .collect();
    let ds = sraps_data::Dataset::new("adastra", jobs);
    let out = Engine::new(SimConfig::replay(cfg), &ds)
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(out.stats.jobs_completed, 2);
    assert_eq!(
        out.sched_stats.placement_fallbacks, 1,
        "second job deviates"
    );
    // Both ran concurrently on disjoint nodes: peak demand 8.
    assert!(ds.peak_recorded_nodes() == 8);
}

#[test]
fn empty_window_is_a_config_error_not_a_panic() {
    let (cfg, ds) = small_workload(0.3, 2, 43);
    let sim = SimConfig::replay(cfg).with_window(SimTime::seconds(100), SimTime::seconds(100));
    assert!(Engine::new(sim, &ds).is_err());
}

#[test]
fn zero_job_window_produces_idle_history() {
    let (cfg, ds) = small_workload(0.3, 2, 47);
    // A window long after every job ended.
    let far = ds.capture_end + sraps_types::SimDuration::hours(5);
    let sim =
        SimConfig::replay(cfg.clone()).with_window(far, far + sraps_types::SimDuration::hours(1));
    let out = Engine::new(sim, &ds).unwrap().run().unwrap();
    assert_eq!(out.stats.jobs_completed, 0);
    assert!(out
        .power
        .iter()
        .all(|p| (p.it_power_kw - cfg.idle_it_power_kw()).abs() < 1.0));
    assert!(out.utilization.iter().all(|&u| u == 0.0));
}

#[test]
fn accounts_aggregate_across_simulations() {
    // The paper supports "aggregation of this information across multiple
    // simulations": two disjoint windows, merged accounts = whole-run sums.
    let (cfg, ds) = small_workload(0.5, 8, 53);
    let mid = SimTime::seconds(4 * 3600);
    let run_window = |s: SimTime, e: SimTime| {
        let sim = SimConfig::replay(cfg.clone())
            .with_window(s, e)
            .with_accounts();
        Engine::new(sim, &ds).unwrap().run().unwrap()
    };
    let first = run_window(ds.capture_start, mid);
    let second = run_window(mid, ds.capture_end + sraps_types::SimDuration::hours(2));
    let mut merged = first.accounts.clone();
    merged.merge(&second.accounts);
    let merged_jobs: u64 = merged.stats.values().map(|s| s.jobs_completed).sum();
    assert_eq!(
        merged_jobs,
        first.stats.jobs_completed + second.stats.jobs_completed
    );
    let merged_energy: f64 = merged.stats.values().map(|s| s.energy_kwh).sum();
    let sum_energy: f64 = first
        .accounts
        .stats
        .values()
        .chain(second.accounts.stats.values())
        .map(|s| s.energy_kwh)
        .sum();
    assert!((merged_energy - sum_energy).abs() < 1e-9);
}

#[test]
fn user_stats_cover_all_completed_jobs() {
    let (cfg, ds) = small_workload(0.6, 5, 59);
    let out = run(&cfg, &ds, "fcfs", "easy");
    let users = Users::from_outcomes(&out.outcomes);
    let total: u64 = users.stats.values().map(|u| u.jobs_completed).sum();
    assert_eq!(total, out.stats.jobs_completed);
    assert!(users.wait_spread(1) >= 1.0);
}

#[test]
fn power_cap_respected_under_every_policy() {
    let (cfg, ds) = small_workload(0.9, 5, 61);
    let idle_kw = cfg.idle_it_power_kw();
    let free = run(&cfg, &ds, "fcfs", "firstfit");
    let cap = (free.peak_power_kw() - idle_kw) * 0.5;
    for policy in ["fcfs", "sjf", "priority"] {
        let sim = SimConfig::new(cfg.clone(), policy, "firstfit")
            .unwrap()
            .with_power_cap(cap);
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert!(
            out.peak_power_kw() < free.peak_power_kw(),
            "{policy}: cap must reduce the peak"
        );
    }
}

#[test]
fn conservative_vs_easy_same_completed_set_at_low_load() {
    let (cfg, ds) = small_workload(0.4, 5, 67);
    let easy = run(&cfg, &ds, "fcfs", "easy");
    let cons = run(&cfg, &ds, "fcfs", "conservative");
    assert_eq!(easy.stats.jobs_completed, cons.stats.jobs_completed);
}

#[test]
fn priority_aging_rescues_starving_giants() {
    // Plain priority + first-fit can starve the widest jobs behind a
    // stream of narrow fills; the aging factor must not make them wait
    // longer, and typically completes at least as many of them.
    let s = scenario::fig8_scaled(3, 0.04);
    let giant = s
        .dataset
        .jobs()
        .iter()
        .map(|j| j.nodes_requested)
        .max()
        .unwrap();
    let run_policy = |policy: &str| {
        let sim = SimConfig::new(s.config.clone(), policy, "firstfit")
            .unwrap()
            .with_window(s.sim_start, s.sim_end);
        Engine::new(sim, &s.dataset).unwrap().run().unwrap()
    };
    let plain = run_policy("priority");
    let aged = run_policy("priority_aging");
    let giants_done =
        |o: &sraps_core::SimOutput| o.outcomes.iter().filter(|x| x.nodes == giant).count();
    assert!(
        giants_done(&aged) >= giants_done(&plain),
        "aging must not starve wide jobs harder ({} vs {})",
        giants_done(&aged),
        giants_done(&plain)
    );
    // Aging bounds the tail: the p99 wait cannot exceed plain priority's
    // by more than a small factor.
    assert!(
        aged.stats.wait_percentile_secs(0.99)
            <= plain.stats.wait_percentile_secs(0.99) * 1.5 + 3600.0,
        "aged p99 {} vs plain p99 {}",
        aged.stats.wait_percentile_secs(0.99),
        plain.stats.wait_percentile_secs(0.99)
    );
}

#[test]
fn carbon_accounting_rewards_midday_load() {
    use sraps_acct::CarbonIntensity;
    let (cfg, ds) = small_workload(0.5, 6, 71);
    let out = run(&cfg, &ds, "fcfs", "easy");
    let total_kw: Vec<f64> = out.power.iter().map(|p| p.total_kw).collect();
    let flat = CarbonIntensity::constant(0.4);
    let diurnal = CarbonIntensity::diurnal(0.2, 0.4, sraps_types::SimDuration::days(2));
    let t0 = out.times[0];
    let dt = cfg.tick;
    let flat_kg = flat.emissions_kg(t0, &out.times, &total_kw, dt);
    let diurnal_kg = diurnal.emissions_kg(t0, &out.times, &total_kw, dt);
    // Flat 0.4 matches the stats module's constant estimate.
    assert!((flat_kg - out.stats.carbon_kg()).abs() / flat_kg < 0.01);
    assert!(diurnal_kg > 0.0 && diurnal_kg != flat_kg);
}

#[test]
fn fingerprinting_forecasts_held_out_profiles() {
    use sraps_ml::fingerprint::FingerprintLibrary;
    // Train a shape library on Marconi100-style traced jobs; forecast a
    // held-out job's profile from its first third and compare energies.
    let cfg = presets::marconi100();
    let mut spec = sraps_data::WorkloadSpec::for_system(&cfg, 0.5, 73);
    spec.span = SimDuration::hours(6);
    let ds = sraps_data::marconi100::synthesize(&cfg, &spec);
    let (train, test) = ds.jobs().split_at(ds.len() * 3 / 4);
    let lib = FingerprintLibrary::build(train, 4, 7).unwrap();
    let mut checked = 0;
    for j in test.iter().filter(|j| j.duration().as_secs() >= 1800) {
        let full = j.telemetry.node_power_w.as_ref().unwrap();
        let third = SimDuration::seconds(j.duration().as_secs() / 3);
        let predicted = lib.predict_profile(full, third, j.duration());
        let Some(pred) = predicted else { continue };
        // Energy of the forecast within 40 % of the truth (shape+level
        // recovery from a third of the trace).
        let true_mean = full.mean() as f64;
        let pred_mean = pred.mean() as f64;
        assert!(
            (pred_mean - true_mean).abs() / true_mean < 0.4,
            "job {}: predicted mean {pred_mean:.0} vs true {true_mean:.0}",
            j.id
        );
        checked += 1;
    }
    assert!(checked >= 5, "need enough held-out jobs, got {checked}");
}

#[test]
fn dismissed_jobs_never_run() {
    let (cfg, ds) = small_workload(0.5, 8, 41);
    let start = SimTime::seconds(2 * 3600);
    let end = SimTime::seconds(5 * 3600);
    let sim = SimConfig::new(cfg, "fcfs", "easy")
        .unwrap()
        .with_window(start, end);
    let out = Engine::new(sim, &ds).unwrap().run().unwrap();
    for o in &out.outcomes {
        let j = ds.jobs().iter().find(|j| j.id == o.id).unwrap();
        assert!(
            j.recorded_end > start && j.submit < end,
            "job {} outside the window was simulated",
            o.id
        );
    }
}
