//! Tick-vs-event engine parity: the event core's entire claim is that it
//! produces **bit-identical** output to the paper's fixed-tick loop while
//! skipping the idle spans. This suite pins that claim across the policy ×
//! backfill grid and with every physics subsystem enabled at once.

use proptest::prelude::*;
use sraps_core::{Engine, EngineMode, Outage, SchedulerSelect, SimConfig, SimOutput};
use sraps_data::{adastra, lassen, marconi100, Dataset, WorkloadSpec};
use sraps_systems::{presets, SystemConfig};
use sraps_types::{NodeSet, SimDuration, SimTime, Trace};

/// Exact equality on every series and aggregate a run produces.
fn assert_identical(tick: &SimOutput, event: &SimOutput, what: &str) {
    assert_eq!(tick.times, event.times, "{what}: times differ");
    assert_eq!(tick.power, event.power, "{what}: power history differs");
    assert_eq!(
        tick.utilization, event.utilization,
        "{what}: utilization differs"
    );
    assert_eq!(
        tick.queue_depth, event.queue_depth,
        "{what}: queue depth differs"
    );
    assert_eq!(
        tick.queue_demand_nodes, event.queue_demand_nodes,
        "{what}: queue demand differs"
    );
    assert_eq!(tick.cooling, event.cooling, "{what}: cooling differs");
    assert_eq!(tick.outcomes, event.outcomes, "{what}: outcomes differ");
    assert_eq!(tick.stats, event.stats, "{what}: stats differ");
    // Scheduler *decisions* must match exactly. Invocation/recomputation
    // counts intentionally differ: skipping no-op scheduler calls is the
    // event core's point, so only the placement-derived counters compare.
    assert_eq!(
        tick.sched_stats.placements, event.sched_stats.placements,
        "{what}: placements differ"
    );
    assert_eq!(
        tick.sched_stats.backfilled, event.sched_stats.backfilled,
        "{what}: backfill decisions differ"
    );
    assert_eq!(
        tick.sched_stats.placement_fallbacks, event.sched_stats.placement_fallbacks,
        "{what}: replay fallbacks differ"
    );
    assert!(
        tick.sched_stats.invocations >= event.sched_stats.invocations,
        "{what}: the event core can only make fewer scheduler calls"
    );
    assert_eq!(tick.label, event.label);
}

fn run(sim: SimConfig, ds: &Dataset, mode: EngineMode) -> SimOutput {
    Engine::new(sim.with_engine(mode), ds)
        .unwrap()
        .run()
        .unwrap()
}

fn run_both(sim: &SimConfig, ds: &Dataset, what: &str) {
    let tick = run(sim.clone(), ds, EngineMode::Tick);
    let event = run(sim.clone(), ds, EngineMode::Event);
    assert_identical(&tick, &event, what);
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

#[test]
fn parity_across_policy_backfill_grid() {
    // Summary-telemetry system (constant traces → hoisted physics path).
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.7, 6, 11);
    for policy in ["replay", "fcfs", "sjf"] {
        for backfill in ["none", "easy", "conservative"] {
            let sim = SimConfig::new(cfg.clone(), policy, backfill).unwrap();
            run_both(&sim, &ds, &format!("adastra {policy}-{backfill}"));
        }
    }
}

#[test]
fn parity_on_trace_telemetry_dataset() {
    // Marconi100 synthesizes per-job traces (non-constant telemetry →
    // the per-tick sampling path of the physics batcher).
    let cfg = presets::marconi100();
    let ds = workload(&cfg, 0.6, 4, 3);
    for (policy, backfill) in [
        ("replay", "none"),
        ("fcfs", "easy"),
        ("sjf", "conservative"),
    ] {
        let sim = SimConfig::new(cfg.clone(), policy, backfill).unwrap();
        run_both(&sim, &ds, &format!("marconi100 {policy}-{backfill}"));
    }
}

#[test]
fn parity_at_low_utilization_where_spans_are_long() {
    // The sparse case is where the event core actually skips: long idle
    // gaps between submissions.
    let cfg = presets::lassen();
    let ds = workload(&cfg, 0.1, 12, 7);
    for (policy, backfill) in [("replay", "none"), ("fcfs", "easy")] {
        let sim = SimConfig::new(cfg.clone(), policy, backfill).unwrap();
        run_both(&sim, &ds, &format!("sparse lassen {policy}-{backfill}"));
    }
}

#[test]
fn parity_with_outages_cooling_and_power_cap() {
    // Everything on at once: outage edges cut spans, cooling integrates
    // stateful per-tick physics, and the power-cap scheduler wraps the
    // builtin one.
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
    let sim = SimConfig::new(cfg.clone(), "fcfs", "easy")
        .unwrap()
        .with_cooling()
        .with_power_cap(cfg.peak_it_power_kw() * 0.4)
        .with_outages(outages);
    run_both(&sim, &ds, "adastra fcfs-easy +outages +cooling +cap");
}

#[test]
fn parity_with_accounts_and_windowed_prepopulation() {
    let cfg = presets::marconi100();
    let ds = workload(&cfg, 0.8, 8, 5);
    // Window starts mid-dataset so both cores prepopulate.
    let start = SimTime::seconds(3 * 3600);
    let sim = SimConfig::new(cfg, "fcfs", "firstfit")
        .unwrap()
        .with_accounts()
        .with_window(start, start + SimDuration::hours(3));
    let tick = run(sim.clone(), &ds, EngineMode::Tick);
    let event = run(sim, &ds, EngineMode::Event);
    assert_identical(&tick, &event, "windowed marconi100 +accounts");
    assert_eq!(
        tick.accounts.to_json().unwrap(),
        event.accounts.to_json().unwrap(),
        "account ledgers must serialize identically"
    );
}

#[test]
fn parity_with_external_scheduler_backends() {
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.4, 2, 23);
    for select in [SchedulerSelect::FastSim, SchedulerSelect::ScheduleFlow] {
        let sim = SimConfig::new(cfg.clone(), "fcfs", "none")
            .unwrap()
            .with_scheduler(select.clone());
        run_both(&sim, &ds, &format!("adastra external {select:?}"));
    }
}

#[test]
fn parity_on_saturated_day_with_conservative_backfill() {
    // The queue never drains, so every skip the event core takes rides on
    // the conservative plan's next-reservation hint — the PR 4 headroom
    // case. Saturation also keeps reservations maturing mid-span.
    let cfg = presets::adastra();
    let ds = workload(&cfg, 1.2, 8, 29);
    for policy in ["fcfs", "sjf"] {
        let sim = SimConfig::new(cfg.clone(), policy, "conservative").unwrap();
        run_both(
            &sim,
            &ds,
            &format!("saturated adastra {policy}-conservative"),
        );
    }
}

#[test]
fn parity_with_aging_policy() {
    // Uniform-rate aging must be event-bound: pairwise order never
    // changes between queue mutations (the key avoids `now` entirely).
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.9, 8, 31);
    for backfill in ["none", "firstfit", "easy", "conservative"] {
        let sim = SimConfig::new(cfg.clone(), "priority_aging", backfill).unwrap();
        run_both(&sim, &ds, &format!("adastra priority_aging-{backfill}"));
    }
}

#[test]
fn parity_under_binding_power_cap() {
    // A cap tight enough to defer placements continuously: the wrapper's
    // hint logic (inherit the inner deadline, pin when EASY deferrals
    // hold shadow nodes) has to agree with per-tick scheduling exactly.
    let cfg = presets::adastra();
    let ds = workload(&cfg, 1.0, 8, 37);
    let cap = cfg.peak_it_power_kw() * 0.35;
    for backfill in ["none", "firstfit", "easy", "conservative"] {
        let sim = SimConfig::new(cfg.clone(), "fcfs", backfill)
            .unwrap()
            .with_power_cap(cap);
        run_both(&sim, &ds, &format!("capped adastra fcfs-{backfill}"));
    }
}

#[test]
fn parity_replay_under_power_cap() {
    // Replay wrapped by the cap: the recorded-start hint now flows
    // through the wrapper instead of the engine's old replay special
    // case.
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.7, 6, 41);
    let sim = SimConfig::replay(cfg.clone()).with_power_cap(cfg.peak_it_power_kw() * 0.5);
    run_both(&sim, &ds, "capped adastra replay");
}

#[test]
fn parity_on_traced_saturated_day() {
    // Trace-telemetry (per-segment physics walk) under a never-draining
    // queue: both remaining hard paths at once.
    let cfg = presets::marconi100();
    let ds = workload(&cfg, 1.1, 6, 43);
    for (policy, backfill) in [("fcfs", "easy"), ("fcfs", "conservative")] {
        let sim = SimConfig::new(cfg.clone(), policy, backfill).unwrap();
        run_both(
            &sim,
            &ds,
            &format!("saturated marconi100 {policy}-{backfill}"),
        );
    }
}

proptest! {
    /// The segment iterator must reproduce per-tick `Trace::sample`
    /// exactly — it is the physics span's replacement for those calls.
    #[test]
    fn segments_reproduce_per_tick_samples(
        t0 in -60i64..120,
        dt in 1i64..45,
        values in prop::collection::vec(0.0f32..1500.0, 0..40),
        start in -90i64..600,
        step in 1i64..75,
        count in 0usize..300,
    ) {
        let trace = Trace::new(
            SimDuration::seconds(t0),
            SimDuration::seconds(dt),
            values,
        );
        let start = SimDuration::seconds(start);
        let step_d = SimDuration::seconds(step);
        let mut covered = 0usize;
        for seg in trace.segments(start, step_d, count) {
            prop_assert_eq!(seg.ticks.start, covered, "gap before segment");
            prop_assert!(seg.ticks.end > seg.ticks.start, "empty segment");
            for k in seg.ticks.clone() {
                let offset = start + SimDuration::seconds(step * k as i64);
                prop_assert_eq!(
                    seg.value,
                    trace.sample(offset),
                    "tick {} of {:?}", k, seg.ticks
                );
            }
            covered = seg.ticks.end;
        }
        prop_assert_eq!(covered, count, "segments must cover the span");
    }
}

#[test]
fn event_engine_skips_most_ticks_on_a_sparse_window() {
    // On a very sparse multi-day window the event core must visit far
    // fewer loop iterations than the tick core. Counted, not timed: the
    // profile's skipped-tick counter is deterministic, wall time is not.
    let cfg = presets::adastra();
    let ds = workload(&cfg, 0.05, 48, 13);
    let sim = SimConfig::new(cfg, "fcfs", "easy").unwrap();
    // Profiling is process-wide; no other test in this file toggles it or
    // reads a profile, and each run's counters are its own thread's.
    sraps_obs::set_profile(true);
    let tick = run(sim.clone(), &ds, EngineMode::Tick);
    let event = run(sim, &ds, EngineMode::Event);
    sraps_obs::set_profile(false);
    assert_identical(&tick, &event, "sparse 2-day adastra");
    let skipped = |out: &SimOutput| {
        let profile = out.profile.as_ref().expect("profiled run");
        profile.counter(sraps_obs::Counter::EngineTicksSkipped.name())
    };
    let ticks = tick.times.len() as u64;
    assert_eq!(skipped(&tick), 0, "the tick core visits every tick");
    assert!(
        skipped(&event) * 4 >= ticks * 3,
        "event core skipped only {} of {ticks} ticks",
        skipped(&event)
    );
}
