//! Regression guard for the scheduler hot path: a `schedule` call that
//! places nothing must perform **zero heap allocations**.
//!
//! On a saturated machine the engine issues such no-op calls at every
//! event, and the pre-timeline code paid a full queue sort plus a
//! collect+sort of every running end for each one. The incremental queue
//! order, the capacity timeline, and the persistent plan scratch exist
//! precisely so that work (and its allocator traffic) disappears; this
//! test pins the "zero allocations" half with a counting global allocator.

use sraps_sched::{
    BackfillKind, BuiltinScheduler, JobQueue, Placement, PolicyKind, PowerCapScheduler, QueuedJob,
    ResourceManager, RunningView, SchedContext, SchedulerBackend,
};
use sraps_types::{AccountId, JobId, JobIdMap, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

/// Obs enablement is process-global; the tests below must not overlap.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// `System`, with every allocation and reallocation counted per thread:
/// the test harness allocates on its own threads while a test runs, and
/// only the thread under test may count.
struct CountingAlloc;

thread_local! {
    // Const-initialized and drop-free: touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn qj(id: u64, submit: i64, nodes: u32, est: i64) -> QueuedJob {
    QueuedJob {
        id: JobId(id),
        account: AccountId(0),
        submit: SimTime::seconds(submit),
        nodes,
        estimate: SimDuration::seconds(est),
        priority: (id % 7) as f64,
        ml_score: None,
        recorded_start: SimTime::seconds(submit),
        recorded_nodes: None,
    }
}

/// Drive one saturated configuration: a wide running job pins the machine,
/// a deep queue sits blocked behind it. After a warm-up call (which may
/// size scratch buffers and sort once), every further no-op call must not
/// touch the allocator.
fn assert_noop_calls_do_not_allocate(policy: PolicyKind, backfill: BackfillKind) {
    let mut sched = BuiltinScheduler::new(policy, backfill);
    let mut rm = ResourceManager::new(64);
    let busy = rm.allocate(60).unwrap();
    let running = [RunningView {
        id: JobId(10_000),
        nodes: 60,
        estimated_end: SimTime::seconds(100_000),
        power_kw: 0.0,
    }];
    sched.on_job_started(SimTime::seconds(100_000), 60);

    let mut queue = JobQueue::new();
    for i in 0..64 {
        // All wider than the 4 free nodes: nothing can ever be placed.
        queue.push(qj(i, i as i64, 8 + (i % 9) as u32, 600 + 60 * i as i64));
    }
    let ctx = SchedContext {
        running: &running,
        accounts: None,
    };
    let mut out: Vec<Placement> = Vec::new();

    // Warm-up: first call may sort the queue and size the plan scratch.
    sched
        .schedule(SimTime::seconds(100), &mut queue, &mut rm, &ctx, &mut out)
        .unwrap();
    assert!(out.is_empty(), "{policy:?}-{backfill:?}: nothing fits");

    let before = allocations();
    for call in 0..50i64 {
        sched
            .schedule(
                SimTime::seconds(160 + 60 * call),
                &mut queue,
                &mut rm,
                &ctx,
                &mut out,
            )
            .unwrap();
        assert!(out.is_empty());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{policy:?}-{backfill:?}: a no-op schedule call allocated"
    );

    // New arrivals binary-insert without a re-sort. The absorbing call may
    // grow scratch buffers once (the queue got longer); every no-op call
    // after it must be allocation-free again.
    queue.push(qj(1_000, 5_000, 9, 700));
    sched
        .schedule(SimTime::seconds(5_060), &mut queue, &mut rm, &ctx, &mut out)
        .unwrap();
    assert!(out.is_empty());
    let before = allocations();
    for call in 0..20i64 {
        sched
            .schedule(
                SimTime::seconds(5_120 + 60 * call),
                &mut queue,
                &mut rm,
                &ctx,
                &mut out,
            )
            .unwrap();
        assert!(out.is_empty());
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "{policy:?}-{backfill:?}: no-op calls after an arrival allocated"
    );

    rm.release(&busy);
}

const COMBOS: [(PolicyKind, BackfillKind); 7] = [
    (PolicyKind::Fcfs, BackfillKind::None),
    (PolicyKind::Fcfs, BackfillKind::FirstFit),
    (PolicyKind::Fcfs, BackfillKind::Easy),
    (PolicyKind::Sjf, BackfillKind::Easy),
    (PolicyKind::PriorityAging, BackfillKind::Easy),
    (PolicyKind::Fcfs, BackfillKind::Conservative),
    (PolicyKind::Sjf, BackfillKind::Conservative),
];

/// The headline pin: obs compiled in but *disabled* (the default state) —
/// the instrumented hot path still makes zero heap allocations.
#[test]
fn noop_schedule_calls_allocate_nothing() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    assert!(
        !sraps_obs::profile_enabled() && !sraps_obs::trace_enabled(),
        "obs must be disabled by default"
    );
    for (policy, backfill) in COMBOS {
        assert_noop_calls_do_not_allocate(policy, backfill);
    }
}

/// Even with *profiling on*, the recorder stays allocation-free: spans and
/// counters land in const-initialized thread-local atomic arrays (no lazy
/// boxes, no destructor registration, no trace buffering).
#[test]
fn noop_schedule_calls_allocate_nothing_with_profiling_enabled() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    /// Profiling goes back off even if an assertion fails, so the other
    /// test still starts from the default state.
    struct ProfileOn;
    impl Drop for ProfileOn {
        fn drop(&mut self) {
            sraps_obs::set_profile(false);
        }
    }
    sraps_obs::set_profile(true);
    let _on = ProfileOn;
    // Touch the thread-local recorder once outside the counted window, on
    // the off chance TLS setup itself ever costs an allocation.
    sraps_obs::bump(sraps_obs::Counter::SchedInvocations);
    for (policy, backfill) in COMBOS {
        assert_noop_calls_do_not_allocate(policy, backfill);
    }
}

/// Under a cap no queued estimate fits, a capped call skips the inner
/// pass — and with it the node set that pass allocates for every proposal
/// the cap then defers. The machine is idle and could hold every queued
/// job, so a pass would propose them all.
#[test]
fn capped_calls_nothing_fits_allocate_nothing() {
    let _guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    for (policy, backfill) in COMBOS {
        let estimates: JobIdMap<f64> = (0..32).map(|i| (JobId(i), 50.0 + i as f64)).collect();
        let mut sched = PowerCapScheduler::new(
            BuiltinScheduler::new(policy, backfill),
            40.0,
            Arc::new(estimates),
        );
        let mut rm = ResourceManager::new(64);
        let mut queue = JobQueue::new();
        for i in 0..32 {
            queue.push(qj(i, i as i64, 1 + (i % 2) as u32, 600));
        }
        let ctx = SchedContext {
            running: &[],
            accounts: None,
        };
        let mut out: Vec<Placement> = Vec::new();
        // Warm-up: the first call folds the queue into the wrapper's
        // estimate bound and sorts the queue once.
        sched
            .schedule(SimTime::seconds(100), &mut queue, &mut rm, &ctx, &mut out)
            .unwrap();
        assert!(out.is_empty(), "{policy:?}-{backfill:?}: over budget");
        let before = allocations();
        for call in 0..50i64 {
            sched
                .schedule(
                    SimTime::seconds(160 + 60 * call),
                    &mut queue,
                    &mut rm,
                    &ctx,
                    &mut out,
                )
                .unwrap();
            assert!(out.is_empty());
        }
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "{policy:?}-{backfill:?}: a capped call nothing fits allocated"
        );
        assert_eq!(rm.free_count(), 64);
    }
}
