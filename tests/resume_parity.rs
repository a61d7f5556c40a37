//! Resume-parity suite: pausing an engine at a tick boundary, JSON
//! round-tripping its snapshot, and resuming in a *fresh* engine must be
//! invisible in every output byte — across policies, backfills, power
//! caps, outages, both engine cores, and any pause point.
//!
//! This is the contract behind `--checkpoint`/`--resume` and late-cap
//! prefix sharing: a resumed run and an uninterrupted run are the same
//! simulation, so a snapshot can stand in for its prefix.

use proptest::prelude::*;
use sraps_core::{
    Engine, EngineMode, EngineSnapshot, Outage, SimConfig, SimOutput, SimWindow,
    ENGINE_SCHEMA_VERSION,
};
use sraps_data::Dataset;
use sraps_integration::small_workload;
use sraps_systems::SystemConfig;
use sraps_types::SimDuration;
use std::sync::OnceLock;

/// One shared 2-hour Lassen workload: materializing a dataset per
/// proptest case would dominate the suite's runtime.
fn workload() -> &'static (SystemConfig, Dataset) {
    static WL: OnceLock<(SystemConfig, Dataset)> = OnceLock::new();
    WL.get_or_init(|| small_workload(0.6, 2, 31))
}

const POLICIES: [&str; 3] = ["fcfs", "sjf", "priority"];
const BACKFILLS: [&str; 3] = ["none", "easy", "firstfit"];

/// Axis variant: power cap × outages, encoded as 0..4.
fn configure(sim: SimConfig, variant: usize, total_nodes: u32) -> SimConfig {
    let mut sim = sim;
    if variant & 1 != 0 {
        sim = sim.with_power_cap(900.0);
    }
    if variant & 2 != 0 {
        let span = workload().1.capture_end - workload().1.capture_start;
        let mid = workload().1.capture_start + SimDuration::seconds(span.as_secs() / 2);
        sim = sim.with_outages(Outage::synthetic_set(7, total_nodes, mid, 2));
    }
    sim
}

/// The byte-level face of a finished run.
fn render(out: &SimOutput) -> (String, String, String, String, String) {
    (
        out.power_csv(),
        out.util_csv(),
        out.job_csv(),
        out.stats.render(),
        format!("{:?}", out.sched_stats),
    )
}

/// Full run vs run_until → snapshot → JSON round-trip → resume → run.
fn paused_equals_uninterrupted(
    policy: &str,
    backfill: &str,
    variant: usize,
    tick: bool,
    pause_frac: usize,
) -> Result<(), TestCaseError> {
    let (cfg, ds) = workload();
    let mode = if tick {
        EngineMode::Tick
    } else {
        EngineMode::Event
    };
    let sim = configure(
        SimConfig::new(cfg.clone(), policy, backfill).expect("valid axes"),
        variant,
        cfg.total_nodes,
    )
    .with_engine(mode);

    let full = Engine::new(sim.clone(), ds)
        .expect("builds")
        .run()
        .expect("runs");

    let mut paused = Engine::new(sim.clone(), ds).expect("builds");
    let pause_at = paused.sim_start() + SimDuration::minutes(15 * pause_frac as i64);
    paused.run_until(pause_at).expect("pauses");
    let snap = paused.snapshot().expect("snapshots");
    prop_assert_eq!(snap.schema, ENGINE_SCHEMA_VERSION);
    prop_assert_eq!(snap.now, pause_at);

    // The persistence path must be lossless: compare through JSON, not
    // the in-memory snapshot (bit-exact f64 round-trips included).
    let json = serde_json::to_string(&snap).expect("serializes");
    let restored: EngineSnapshot = serde_json::from_str(&json).expect("parses");
    let window = SimWindow::new(&sim, ds).expect("window");
    let resumed = Engine::resume(sim, &window, &restored)
        .expect("restores")
        .run()
        .expect("finishes");

    prop_assert_eq!(render(&full), render(&resumed));
    Ok(())
}

proptest! {
    /// The pause point, persistence round-trip, and every simulation axis
    /// are invisible in the outputs.
    #[test]
    fn snapshot_resume_is_byte_identical(
        policy_ix in 0usize..3,
        backfill_ix in 0usize..3,
        variant in 0usize..4,
        tick in any::<bool>(),
        pause_frac in 1usize..8,
    ) {
        paused_equals_uninterrupted(
            POLICIES[policy_ix],
            BACKFILLS[backfill_ix],
            variant,
            tick,
            pause_frac,
        )?;
    }
}

/// Pausing exactly at the window edges degenerates gracefully: a
/// snapshot at start is a fresh engine, a snapshot at end is a finished
/// prefix whose resume only drains the epilogue.
#[test]
fn edge_pause_points_still_agree() {
    for pause_frac in [0usize, 8] {
        paused_equals_uninterrupted("fcfs", "easy", 1, false, pause_frac)
            .unwrap_or_else(|e| panic!("pause_frac={pause_frac}: {e:?}"));
    }
}

// ------------------------------------------------------- golden fixture

/// On-disk snapshot schema pin. `SRAPS_UPDATE_FIXTURES=1 cargo test -p
/// sraps-integration --test resume_parity` rewrites it; a bare failure
/// here means the snapshot serialization changed and
/// `ENGINE_SCHEMA_VERSION` must be bumped before repinning.
fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(format!("engine_snapshot_v{ENGINE_SCHEMA_VERSION}.json"))
}

fn fixture_sim() -> SimConfig {
    let (cfg, _) = workload();
    SimConfig::new(cfg.clone(), "fcfs", "easy")
        .expect("valid axes")
        .with_power_cap(1100.0)
}

fn fixture_snapshot() -> EngineSnapshot {
    let (_, ds) = workload();
    let mut engine = Engine::new(fixture_sim(), ds).expect("builds");
    engine
        .run_until(engine.sim_start() + SimDuration::minutes(60))
        .expect("pauses");
    engine.snapshot().expect("snapshots")
}

#[test]
fn golden_fixture_pins_snapshot_schema() {
    let path = fixture_path();
    let computed = serde_json::to_string_pretty(&fixture_snapshot()).expect("serializes");
    if std::env::var_os("SRAPS_UPDATE_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("fixture dir");
        std::fs::write(&path, &computed).expect("fixture written");
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} ({e}) — run with SRAPS_UPDATE_FIXTURES=1",
            path.display()
        )
    });
    assert_eq!(
        committed,
        computed,
        "snapshot serialization drifted from {} — bump ENGINE_SCHEMA_VERSION, then repin",
        path.display()
    );
}

/// The committed fixture is not just comparable but *usable*: restoring
/// it and finishing matches an uninterrupted run byte for byte.
#[test]
fn golden_fixture_restores_and_finishes() {
    let (_, ds) = workload();
    let text = std::fs::read_to_string(fixture_path()).expect("committed fixture");
    let snap: EngineSnapshot = serde_json::from_str(&text).expect("parses");
    assert_eq!(snap.schema, ENGINE_SCHEMA_VERSION);

    let window = SimWindow::new(&fixture_sim(), ds).expect("window");
    let resumed = Engine::resume(fixture_sim(), &window, &snap)
        .expect("restores")
        .run()
        .expect("finishes");
    let full = Engine::new(fixture_sim(), ds)
        .expect("builds")
        .run()
        .expect("runs");
    assert_eq!(render(&full), render(&resumed));
}
