//! Fingerprint-stability suite: the cache key must change whenever any
//! sim-relevant axis changes, collide for identical specs, and stay
//! stable across processes and releases (golden-key fixtures: if one of
//! those fails, the keys moved, and whether `ENGINE_SCHEMA_VERSION` must
//! be bumped before repinning depends on why; see
//! `golden_keys_pin_the_schema`).

use proptest::prelude::*;
use sraps_core::{Fingerprint, SchedulerSelect};
use sraps_data::{Dataset, WorkloadSpec};
use sraps_exp::{CellSpec, ExperimentMatrix, PrebuiltWorkload, SweepRunner, WorkloadPlan};
use sraps_systems::{presets, SystemConfig};
use sraps_types::job::JobBuilder;
use sraps_types::{Job, JobId, JobTelemetry, NodeSet, SimDuration, SimTime, Trace};
use std::sync::{Arc, OnceLock};

const SYSTEMS: &[&str] = &["frontier", "marconi100", "fugaku", "lassen", "adastra"];
const POLICIES: &[&str] = &["fcfs", "sjf", "priority"];
const BACKFILLS: &[&str] = &["none", "firstfit", "easy"];

fn plan(system: &str, load: f64, seed: u64, span_hours: i64, scale: f64) -> WorkloadPlan {
    WorkloadPlan::Synthetic {
        label: "probe".into(),
        group: "probe".into(),
        system: system.into(),
        load,
        seed,
        span: SimDuration::hours(span_hours),
        scale,
    }
}

fn cell(policy: &str, backfill: &str, cooling: bool, power_cap_kw: Option<f64>) -> CellSpec {
    CellSpec {
        index: 0,
        label: "probe-cell".into(),
        workload: 0,
        policy: policy.into(),
        backfill: backfill.into(),
        cooling,
        power_cap_kw,
        cap_at: None,
        scheduler: SchedulerSelect::Default,
        accounts_in: None,
    }
}

/// The full sim-relevant axis tuple one generated case covers.
type Axes = (
    (usize, f64, u64),    // system index, load, seed
    (i64, f64),           // span hours, scale
    (usize, usize, bool), // policy index, backfill index, cooling
    (f64, bool),          // power cap value, cap present
);

fn key_of(a: &Axes) -> String {
    let ((sys, load, seed), (span, scale), (pol, bf, cooling), (cap, capped)) = *a;
    let plan = plan(SYSTEMS[sys], load, seed, span, scale);
    let spec = cell(POLICIES[pol], BACKFILLS[bf], cooling, capped.then_some(cap));
    spec.fingerprint(plan.fingerprint().expect("known system"))
        .hex()
}

fn axes_strategy() -> impl Strategy<Value = Axes> {
    (
        (0usize..SYSTEMS.len(), 0.1f64..1.5, 0u64..1000),
        (1i64..72, 0.25f64..1.0),
        (
            0usize..POLICIES.len(),
            0usize..BACKFILLS.len(),
            any::<bool>(),
        ),
        (100.0f64..5000.0, any::<bool>()),
    )
}

proptest! {
    /// Identical specs collide; both halves of the cache contract in one
    /// property: key equality ⇔ axis-tuple equality.
    #[test]
    fn keys_equal_iff_axes_equal(a in axes_strategy(), b in axes_strategy()) {
        let (ka, kb) = (key_of(&a), key_of(&b));
        // Normalize: an absent power cap makes its value unobservable.
        let canon = |mut x: Axes| { if !x.3.1 { x.3.0 = 0.0; } x };
        if canon(a) == canon(b) {
            prop_assert_eq!(ka, kb, "identical specs must share a key");
        } else {
            prop_assert!(ka != kb, "distinct specs {a:?} vs {b:?} collided");
        }
    }

    /// Any single-axis mutation changes the key.
    #[test]
    fn single_axis_mutations_change_the_key(
        a in axes_strategy(),
        load_bump in 0.01f64..0.2,
        seed_bump in 1u64..50,
        span_bump in 1i64..24,
        scale_drop in 0.01f64..0.2,
        cap_bump in 1.0f64..100.0,
    ) {
        let base = key_of(&a);
        let mut m = a; m.0.0 = (m.0.0 + 1) % SYSTEMS.len();
        prop_assert!(key_of(&m) != base, "system mutation kept the key");
        let mut m = a; m.0.1 += load_bump;
        prop_assert!(key_of(&m) != base, "load mutation kept the key");
        let mut m = a; m.0.2 += seed_bump;
        prop_assert!(key_of(&m) != base, "seed mutation kept the key");
        let mut m = a; m.1.0 += span_bump;
        prop_assert!(key_of(&m) != base, "span mutation kept the key");
        let mut m = a; m.1.1 -= scale_drop;
        prop_assume!(m.1.1 > 0.0);
        prop_assert!(key_of(&m) != base, "scale mutation kept the key");
        let mut m = a; m.2.0 = (m.2.0 + 1) % POLICIES.len();
        prop_assert!(key_of(&m) != base, "policy mutation kept the key");
        let mut m = a; m.2.1 = (m.2.1 + 1) % BACKFILLS.len();
        prop_assert!(key_of(&m) != base, "backfill mutation kept the key");
        let mut m = a; m.2.2 = !m.2.2;
        prop_assert!(key_of(&m) != base, "cooling mutation kept the key");
        let mut m = a; m.3.1 = !m.3.1;
        prop_assert!(key_of(&m) != base, "cap presence mutation kept the key");
        if a.3.1 {
            let mut m = a; m.3.0 += cap_bump;
            prop_assert!(key_of(&m) != base, "cap value mutation kept the key");
        }
    }

    /// Recomputing in the same process is deterministic (the on-disk
    /// contract beyond that — stability across *processes* — is pinned by
    /// the golden keys below).
    #[test]
    fn keys_are_deterministic(a in axes_strategy()) {
        prop_assert_eq!(key_of(&a), key_of(&a));
    }
}

/// Golden keys: fixed specs hashed today. These encode the cross-process
/// stability promise: a failure means the canonical serialization (or a
/// preset system, whose config is folded into synthetic fingerprints)
/// changed. A change of encoding moves the key itself, so old entries
/// are never looked up again, and needs no salt bump: repin. A change of
/// semantics, where the same inputs now simulate differently, still
/// needs `ENGINE_SCHEMA_VERSION` bumped before repinning.
#[test]
fn golden_keys_pin_the_schema() {
    let wfp = plan("lassen", 0.7, 42, 24, 1.0)
        .fingerprint()
        .expect("lassen is a preset");
    let base = cell("fcfs", "easy", true, Some(1500.0));
    assert_eq!(
        base.fingerprint(wfp).hex(),
        "37dae47215ddbc576b81ddb927d8fdf0",
        "cell fingerprint schema drifted"
    );
    assert_eq!(
        wfp.hex(),
        "5c2a9c083412fd8fa59300c305f18801",
        "workload fingerprint schema drifted"
    );

    // A windowed replay keys on the jobs its window selects. The trace is
    // hand-built, so this pin depends on the key's serialization alone.
    let job = |id: u64, submit: i64, start: i64, end: i64| {
        JobBuilder::new(id)
            .submit(SimTime::seconds(submit))
            .window(SimTime::seconds(start), SimTime::seconds(end))
            .walltime(SimDuration::seconds(2 * (end - start)))
            .nodes(4)
            .telemetry(JobTelemetry::from_scalars(0.5, Some(0.25), 900.0))
            .build()
    };
    let ds = Dataset::new(
        "lassen",
        vec![
            job(1, 0, 60, 1_800),        // ends before the window
            job(2, 600, 1_200, 5_400),   // mid-run at the window start
            job(3, 4_000, 4_100, 9_000), // submitted inside the window
            job(4, 9_000, 9_100, 9_900), // submitted after the window
        ],
    );
    let window = (SimTime::seconds(3_600), SimTime::seconds(7_200));
    assert_eq!(
        plan_key(prebuilt(&presets::lassen(), ds, Some(window))).hex(),
        "666fa6e50ec7257b1cdf7238bd74f1dd",
        "windowed workload fingerprint schema drifted"
    );
}

/// The scheduler axis is hashed too: the same policy through a different
/// backend is a different simulation.
#[test]
fn scheduler_axis_changes_the_key() {
    let wfp = plan("lassen", 0.7, 42, 24, 1.0).fingerprint().unwrap();
    let a = cell("fcfs", "easy", false, None);
    let mut b = a.clone();
    b.scheduler = SchedulerSelect::FastSim;
    assert_ne!(a.fingerprint(wfp), b.fingerprint(wfp));
}

/// Labels and positions are cosmetic: renaming or reordering a study
/// must not orphan its cache entries.
#[test]
fn cosmetic_fields_do_not_affect_the_key() {
    let wfp = plan("lassen", 0.7, 42, 24, 1.0).fingerprint().unwrap();
    let a = cell("fcfs", "easy", false, None);
    let mut b = a.clone();
    b.label = "renamed/other-label".into();
    b.index = 99;
    b.workload = 7;
    assert_eq!(a.fingerprint(wfp), b.fingerprint(wfp));

    let p = plan("lassen", 0.7, 42, 24, 1.0);
    let q = WorkloadPlan::Synthetic {
        label: "renamed".into(),
        group: "other-group".into(),
        system: "lassen".into(),
        load: 0.7,
        seed: 42,
        span: SimDuration::hours(24),
        scale: 1.0,
    };
    assert_eq!(p.fingerprint().unwrap(), q.fingerprint().unwrap());
}

/// A small trace for the window-key tests: 6 h of lassen, seed 3.
fn trace() -> &'static (SystemConfig, Dataset) {
    static TRACE: OnceLock<(SystemConfig, Dataset)> = OnceLock::new();
    TRACE.get_or_init(|| {
        let cfg = presets::lassen();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.7, 3);
        spec.span = SimDuration::hours(6);
        let ds = sraps_data::lassen::synthesize(&cfg, &spec);
        (cfg, ds)
    })
}

fn prebuilt(
    cfg: &SystemConfig,
    ds: Dataset,
    window: Option<(SimTime, SimTime)>,
) -> PrebuiltWorkload {
    PrebuiltWorkload {
        label: "window".into(),
        config: cfg.clone(),
        dataset: Arc::new(ds),
        window,
    }
}

fn plan_key(w: PrebuiltWorkload) -> Fingerprint {
    WorkloadPlan::Prebuilt(Box::new(w)).fingerprint().unwrap()
}

fn window_key(ds: &Dataset, start: SimTime, end: SimTime) -> Fingerprint {
    plan_key(prebuilt(&trace().0, ds.clone(), Some((start, end))))
}

/// One edit to one job: its power sample (0), recorded end (1) or
/// submit time (2), moved by `delta`.
fn edit(job: &mut Job, kind: usize, delta: i64) {
    match kind {
        0 => {
            let power = job
                .telemetry
                .node_power_w
                .as_mut()
                .expect("lassen records power");
            power.values[0] += delta as f32;
        }
        1 => job.recorded_end += SimDuration::seconds(delta),
        _ => job.submit += SimDuration::seconds(delta),
    }
}

/// Whether the window `[start, end)` selects job `id` of `ds`. By id,
/// not position: `Dataset::edit_jobs` re-sorts an edited submit time.
fn selects(ds: &Dataset, start: SimTime, end: SimTime, id: JobId) -> bool {
    ds.jobs_in_window(start, end).any(|j| j.id == id)
}

proptest! {
    /// A window's key covers exactly the jobs the window selects: editing
    /// one job changes the key iff the window selects that job before or
    /// after the edit.
    #[test]
    fn window_keys_change_iff_a_selected_job_changes(
        offset in 0i64..6 * 3600,
        len in 1i64..3 * 3600,
        pick in 0usize..1 << 20,
        kind in 0usize..3,
        delta in 1i64..7200,
        negate in any::<bool>(),
    ) {
        let base = &trace().1;
        let start = base.capture_start + SimDuration::seconds(offset);
        let end = start + SimDuration::seconds(len);
        let i = pick % base.len();
        let id = base.jobs()[i].id;
        let mut edited = base.clone();
        edited.edit_jobs(|jobs| edit(&mut jobs[i], kind, if negate { -delta } else { delta }));
        let changed = window_key(base, start, end) != window_key(&edited, start, end);
        prop_assert_eq!(
            changed,
            selects(base, start, end, id) || selects(&edited, start, end, id),
            "edit {} of job {} in window +{}s..+{}s", kind, i, offset, offset + len
        );
    }
}

/// Moving either bound of a window by one second changes its key, and an
/// unset window keys as its capture bounds.
#[test]
fn window_bounds_are_keyed() {
    let (cfg, ds) = trace();
    let start = ds.capture_start + SimDuration::hours(2);
    let end = start + SimDuration::hours(1);
    let key = window_key(ds, start, end);
    let s = SimDuration::seconds(1);
    for (a, b) in [
        (start - s, end),
        (start + s, end),
        (start, end - s),
        (start, end + s),
    ] {
        assert_ne!(window_key(ds, a, b), key, "window {a}..{b}");
    }
    assert_eq!(
        plan_key(prebuilt(cfg, ds.clone(), None)),
        window_key(ds, ds.capture_start, ds.capture_end),
    );
}

/// Editing a job that ended before the window opens changes neither the
/// window's key nor what its cells simulate.
#[test]
fn jobs_ended_before_the_window_reach_neither_key_nor_metrics() {
    let (cfg, ds) = trace();
    let start = ds.capture_start + SimDuration::hours(3);
    let end = start + SimDuration::hours(1);
    let i = ds
        .jobs()
        .iter()
        .position(|j| j.recorded_end + SimDuration::hours(1) < start)
        .expect("a job ends an hour before the window");
    let mut edited = ds.clone();
    edited.edit_jobs(|jobs| {
        for kind in 0..3 {
            edit(&mut jobs[i], kind, -600);
        }
    });
    assert_eq!(window_key(ds, start, end), window_key(&edited, start, end));
    let metrics = |ds: &Dataset| {
        let matrix = ExperimentMatrix::scenario(prebuilt(cfg, ds.clone(), Some((start, end))))
            .pairs([("fcfs", "easy"), ("replay", "none")])
            .with_cooling();
        let results = SweepRunner::new(1).run(&matrix).unwrap();
        results
            .cells
            .into_iter()
            .map(|c| c.metrics)
            .collect::<Vec<_>>()
    };
    assert_eq!(metrics(ds), metrics(&edited));
}

/// A job mid-run at the window start is a prepopulation candidate: the
/// window sees it, so editing it changes the key.
#[test]
fn jobs_running_at_the_window_start_are_keyed() {
    let (_, ds) = trace();
    let start = ds.capture_start + SimDuration::hours(3);
    let end = start + SimDuration::hours(1);
    let i = ds
        .jobs()
        .iter()
        .position(|j| j.recorded_start < start && j.recorded_end > start)
        .expect("a job runs across the window start");
    let mut edited = ds.clone();
    edited.edit_jobs(|jobs| edit(&mut jobs[i], 0, 100));
    assert_ne!(window_key(ds, start, end), window_key(&edited, start, end));
}

/// Two jobs inside the window `[3600, 7200)` of a hand-built lassen
/// trace. Every `Option` is `Some` and every trace has several samples,
/// so each field has a value to change.
fn full_job_dataset() -> Dataset {
    let trace = |base: f32| {
        Trace::new(
            SimDuration::seconds(10),
            SimDuration::seconds(20),
            vec![base, base + 1.0, base + 2.0],
        )
    };
    let job = |id: u64, submit: i64| {
        JobBuilder::new(id)
            .user(3)
            .account(5)
            .submit(SimTime::seconds(submit))
            .window(
                SimTime::seconds(submit + 100),
                SimTime::seconds(submit + 900),
            )
            .walltime(SimDuration::seconds(1_800))
            .nodes(2)
            .placement(NodeSet::contiguous(4, 2))
            .priority(1.5)
            .telemetry(JobTelemetry {
                cpu_util: Some(trace(0.5)),
                gpu_util: Some(trace(0.25)),
                mem_util: Some(trace(0.125)),
                node_power_w: Some(trace(900.0)),
                net_tx_mbs: Some(trace(10.0)),
                net_rx_mbs: Some(trace(20.0)),
                flags: Default::default(),
            })
            .ml_score(0.75)
            .build()
    };
    Dataset::new("lassen", vec![job(1, 4_000), job(2, 4_200)])
}

/// A named edit of one job, and of one of its traces.
type JobEdit = (&'static str, fn(&mut Job));
type TraceEdit = (&'static str, fn(&mut Option<Trace>));

/// The window's key changes with every field of a job it selects: each
/// field of `Job` and of its telemetry, each part of each trace, and
/// each capture flag. Two datasets built the same way key equal.
#[test]
fn every_job_field_reaches_the_window_key() {
    let (start, end) = (SimTime::seconds(3_600), SimTime::seconds(7_200));
    let key = |ds: &Dataset| plan_key(prebuilt(&presets::lassen(), ds.clone(), Some((start, end))));
    let base = full_job_dataset();
    let base_key = key(&base);
    assert_eq!(key(&full_job_dataset()), base_key, "same build, same key");

    let job_edits: Vec<JobEdit> = vec![
        ("id", |j| j.id.0 += 10),
        ("user", |j| j.user.0 += 1),
        ("account", |j| j.account.0 += 1),
        ("submit", |j| j.submit += SimDuration::seconds(1)),
        ("recorded_start", |j| {
            j.recorded_start += SimDuration::seconds(1)
        }),
        ("recorded_end", |j| {
            j.recorded_end += SimDuration::seconds(1)
        }),
        ("walltime_limit", |j| {
            j.walltime_limit = SimDuration::seconds(1_801)
        }),
        ("nodes_requested", |j| j.nodes_requested += 1),
        ("recorded_nodes set", |j| {
            j.recorded_nodes = Some(NodeSet::contiguous(5, 2))
        }),
        ("recorded_nodes none", |j| j.recorded_nodes = None),
        ("priority", |j| j.priority += 0.5),
        ("ml_score value", |j| j.ml_score = Some(0.5)),
        ("ml_score none", |j| j.ml_score = None),
        ("started_before_capture", |j| {
            j.telemetry.flags.started_before_capture ^= true
        }),
        ("ended_after_capture", |j| {
            j.telemetry.flags.ended_after_capture ^= true
        }),
    ];
    let trace_edits: Vec<TraceEdit> = vec![
        ("t0", |t| t.as_mut().unwrap().t0 += SimDuration::seconds(1)),
        ("dt", |t| t.as_mut().unwrap().dt += SimDuration::seconds(1)),
        ("one value", |t| t.as_mut().unwrap().values[1] += 1.0),
        ("length", |t| t.as_mut().unwrap().values.push(0.0)),
        ("none", |t| *t = None),
    ];
    let slots: [fn(&mut JobTelemetry) -> &mut Option<Trace>; 6] = [
        |t| &mut t.cpu_util,
        |t| &mut t.gpu_util,
        |t| &mut t.mem_util,
        |t| &mut t.node_power_w,
        |t| &mut t.net_tx_mbs,
        |t| &mut t.net_rx_mbs,
    ];
    let mut checked = 0;
    let mut expect_moved = |what: String, f: &dyn Fn(&mut Job)| {
        let mut edited = base.clone();
        edited.edit_jobs(|jobs| f(&mut jobs[0]));
        assert_eq!(
            edited.jobs_in_window(start, end).count(),
            2,
            "{what}: the edited job stays selected"
        );
        assert_ne!(key(&edited), base_key, "{what} did not reach the key");
        checked += 1;
    };
    for (name, f) in &job_edits {
        expect_moved(name.to_string(), f);
    }
    for (slot, get) in slots.iter().enumerate() {
        for (name, f) in &trace_edits {
            expect_moved(format!("trace {slot}: {name}"), &|j: &mut Job| {
                f(get(&mut j.telemetry))
            });
        }
    }
    assert_eq!(checked, job_edits.len() + 6 * trace_edits.len());
}
