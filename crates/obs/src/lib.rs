//! `sraps-obs` — zero-cost-when-off instrumentation for the simulator.
//!
//! Three primitives, one rule: **when nothing is enabled, every call site
//! compiles down to one relaxed load of a static byte and a predictable
//! branch** — no clock reads, no heap allocations, no TLS registration.
//! The scheduler's no-op hot path stays allocation-free with this crate
//! wired in (pinned by `crates/sched/tests/no_alloc.rs`).
//!
//! * **Spans** ([`span`], [`Phase`]) — RAII monotonic-clock phase timing.
//!   Enabled spans accumulate `(calls, total_ns)` into fixed thread-local
//!   arrays of relaxed atomics; with tracing on they additionally emit
//!   `B`/`E` chrome-trace events. [`stopwatch`] is the *forced* variant:
//!   it always measures and returns the `Duration` (the single timing
//!   pathway behind `SimOutput::wall_time` and sweep wall clocks), but
//!   records into the profile only when enabled.
//! * **Counters** ([`bump`], [`add`], [`Counter`]) — a static registry of
//!   named event counters bumped via plain relaxed loads/stores on
//!   thread-local atomics. Each sweep cell runs wholly on one worker
//!   thread, so snapshot-deltas over these monotone accumulators give
//!   deterministic per-cell counts regardless of `--jobs`.
//! * **Captures** ([`capture`], [`Profile`]) — delta-snapshots of the
//!   current thread's accumulators, folded into a serializable
//!   [`Profile`] (per-phase timing + counter values) that merges
//!   deterministically across cells and exports as an aligned table.
//!
//! Tracing ([`set_trace`], [`write_trace`]) buffers `B`/`E` events per
//! thread and drains them into a chrome-trace JSON file that
//! `chrome://tracing` and <https://ui.perfetto.dev> load directly.
//! [`validate_chrome_trace`] checks well-formedness (every `E` matches a
//! `B`, per-thread timestamps monotone) and backs both the unit tests and
//! the CI smoke job.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

// ------------------------------------------------------------ global state

const PROFILE_BIT: u8 = 1;
const TRACE_BIT: u8 = 2;

/// The one static every disabled call site reads.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Enable/disable profile accumulation (spans + counters).
pub fn set_profile(on: bool) {
    set_bit(PROFILE_BIT, on);
}

/// Enable/disable chrome-trace event collection.
pub fn set_trace(on: bool) {
    set_bit(TRACE_BIT, on);
}

fn set_bit(bit: u8, on: bool) {
    if on {
        STATE.fetch_or(bit, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!bit, Ordering::Relaxed);
    }
}

/// True when profile accumulation is on.
#[inline]
pub fn profile_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & PROFILE_BIT != 0
}

/// True when trace collection is on.
#[inline]
pub fn trace_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & TRACE_BIT != 0
}

// --------------------------------------------------------------- registry

/// Timed phases. The enum discriminant indexes the thread-local
/// accumulator arrays; `name()` is the stable identifier used in
/// profiles, tables, and trace files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Whole `Engine::run` (forced: its duration is `SimOutput::wall_time`).
    EngineRun,
    /// Loop steps 1–2: completions, outage edges, eligibility.
    EngineEvents,
    /// Loop step 3: the scheduler invocation as seen by the engine.
    EngineScheduler,
    /// Event-core skip decision + event-horizon computation.
    EngineHorizon,
    /// Loop step 4: physics advanced across the span.
    EnginePhysics,
    /// Post-loop history grid + stats assembly.
    EngineFinalize,
    /// Scheduler backend `schedule()` body (nests inside `engine.scheduler`).
    SchedSchedule,
    /// One cell-cache lookup (hit or miss).
    CacheRead,
    /// One cell-cache write-back.
    CacheWrite,
    /// Whole sweep cell: cache consult + (on miss) simulation.
    SweepCell,
    /// Whole `SweepRunner::run` (forced: its duration is the sweep wall).
    SweepRun,
    /// One `sraps serve` request, admission to response (warm answers
    /// close it on the connection thread, cold ones on a worker).
    ServeRequest,
}

const PHASE_COUNT: usize = 12;

impl Phase {
    pub const ALL: [Phase; PHASE_COUNT] = [
        Phase::EngineRun,
        Phase::EngineEvents,
        Phase::EngineScheduler,
        Phase::EngineHorizon,
        Phase::EnginePhysics,
        Phase::EngineFinalize,
        Phase::SchedSchedule,
        Phase::CacheRead,
        Phase::CacheWrite,
        Phase::SweepCell,
        Phase::SweepRun,
        Phase::ServeRequest,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Phase::EngineRun => "engine.run",
            Phase::EngineEvents => "engine.events",
            Phase::EngineScheduler => "engine.scheduler",
            Phase::EngineHorizon => "engine.horizon",
            Phase::EnginePhysics => "engine.physics",
            Phase::EngineFinalize => "engine.finalize",
            Phase::SchedSchedule => "sched.schedule",
            Phase::CacheRead => "cache.read",
            Phase::CacheWrite => "cache.write",
            Phase::SweepCell => "sweep.cell",
            Phase::SweepRun => "sweep.run",
            Phase::ServeRequest => "serve.request",
        }
    }
}

/// Counted events. Like [`Phase`], the discriminant indexes the
/// accumulators and `name()` is the stable identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Ticks the event core skipped (span − 1 per loop iteration).
    EngineTicksSkipped,
    /// Completions popped off the engine's completion heap.
    EngineHeapPops,
    /// Scheduler invocations (folded from `SchedulerStats`).
    SchedInvocations,
    /// Placements effected (folded from `SchedulerStats`).
    SchedPlacements,
    /// Queue-order recomputations (folded from `SchedulerStats`).
    SchedRecomputations,
    /// Jobs placed out of order by backfill (folded from `SchedulerStats`).
    SchedBackfilled,
    /// Replay placements that fell back to first-fit (folded from
    /// `SchedulerStats`).
    SchedPlacementFallbacks,
    /// Conservative-backfill anchor searches over the free-capacity
    /// profile (one per queued job the planner searches before it stops).
    SchedAnchorSweeps,
    /// EASY shadow-time reservations computed against the timeline.
    SchedEasyReservations,
    /// Power-cap proposals deferred by the admission loop.
    SchedCapDeferrals,
    /// Full stable re-sorts of the job queue (order stamp changed).
    QueueResorts,
    /// Arrivals binary-inserted into the maintained queue order.
    QueueBinaryInserts,
    /// Capacity-timeline updates absorbed in place (`+=`/`-=` on an
    /// existing entry).
    TimelineInPlace,
    /// Capacity-timeline updates that inserted or removed an entry.
    TimelineEdits,
    /// Sweep cells served from the cell cache.
    CacheHits,
    /// Sweep cells the cache could not serve (absent or defective entry).
    CacheMisses,
    /// Defective cache entries (truncated, corrupt, stale schema, missing
    /// spill) demoted to misses for recompute-and-rewrite.
    CacheSelfHeals,
    /// Cells claimed off the shared cursor by spawned sweep workers.
    SweepWorkerSteals,
    /// Cell claim leases acquired (this process owns the simulation).
    ClaimsAcquired,
    /// Stale claim leases (heartbeat older than the TTL) reclaimed from
    /// a dead or wedged worker.
    ClaimsStaleReclaimed,
    /// Claim attempts that found a live lease held by another worker
    /// (the cell was deferred, not simulated).
    ClaimsContended,
    /// Per-cell retry attempts after a worker panic or transient I/O
    /// failure (attempts beyond the first).
    CellRetries,
    /// Cells that failed (out of retries, or on an error that is not
    /// retried) and landed in the failed-cells table instead of the
    /// report.
    CellsFailed,
    /// Faults fired by an armed `FaultPlan` (panics, failed/delayed
    /// writes, truncations).
    FaultsInjected,
    /// Cache write-backs degraded to a warning (disk full, permission
    /// denied, …); the cell result still flowed to the report.
    CacheWriteErrors,
}

const COUNTER_COUNT: usize = 25;

impl Counter {
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::EngineTicksSkipped,
        Counter::EngineHeapPops,
        Counter::SchedInvocations,
        Counter::SchedPlacements,
        Counter::SchedRecomputations,
        Counter::SchedBackfilled,
        Counter::SchedPlacementFallbacks,
        Counter::SchedAnchorSweeps,
        Counter::SchedEasyReservations,
        Counter::SchedCapDeferrals,
        Counter::QueueResorts,
        Counter::QueueBinaryInserts,
        Counter::TimelineInPlace,
        Counter::TimelineEdits,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::CacheSelfHeals,
        Counter::SweepWorkerSteals,
        Counter::ClaimsAcquired,
        Counter::ClaimsStaleReclaimed,
        Counter::ClaimsContended,
        Counter::CellRetries,
        Counter::CellsFailed,
        Counter::FaultsInjected,
        Counter::CacheWriteErrors,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Counter::EngineTicksSkipped => "engine.ticks_skipped",
            Counter::EngineHeapPops => "engine.heap_pops",
            Counter::SchedInvocations => "sched.invocations",
            Counter::SchedPlacements => "sched.placements",
            Counter::SchedRecomputations => "sched.recomputations",
            Counter::SchedBackfilled => "sched.backfilled",
            Counter::SchedPlacementFallbacks => "sched.placement_fallbacks",
            Counter::SchedAnchorSweeps => "sched.anchor_sweeps",
            Counter::SchedEasyReservations => "sched.easy_reservations",
            Counter::SchedCapDeferrals => "sched.cap_deferrals",
            Counter::QueueResorts => "queue.resorts",
            Counter::QueueBinaryInserts => "queue.binary_inserts",
            Counter::TimelineInPlace => "timeline.in_place",
            Counter::TimelineEdits => "timeline.edits",
            Counter::CacheHits => "cache.hits",
            Counter::CacheMisses => "cache.misses",
            Counter::CacheSelfHeals => "cache.self_heals",
            Counter::SweepWorkerSteals => "sweep.worker_steals",
            Counter::ClaimsAcquired => "claims.acquired",
            Counter::ClaimsStaleReclaimed => "claims.stale_reclaimed",
            Counter::ClaimsContended => "claims.contended",
            Counter::CellRetries => "sweep.cell_retries",
            Counter::CellsFailed => "sweep.cells_failed",
            Counter::FaultsInjected => "faults.injected",
            Counter::CacheWriteErrors => "cache.write_errors",
        }
    }

    /// One-line glossary entry (mirrored in the README).
    pub const fn describe(self) -> &'static str {
        match self {
            Counter::EngineTicksSkipped => "ticks the event core skipped outright",
            Counter::EngineHeapPops => "completions popped off the completion heap",
            Counter::SchedInvocations => "scheduler invocations",
            Counter::SchedPlacements => "placements effected",
            Counter::SchedRecomputations => "queue-order recomputations",
            Counter::SchedBackfilled => "jobs placed out of order by backfill",
            Counter::SchedPlacementFallbacks => "replay placements that fell back to first-fit",
            Counter::SchedAnchorSweeps => {
                "queued jobs the conservative planner searched before it stopped"
            }
            Counter::SchedEasyReservations => "EASY shadow-time reservations computed",
            Counter::SchedCapDeferrals => "power-cap proposals deferred",
            Counter::QueueResorts => "full queue re-sorts (order stamp changed)",
            Counter::QueueBinaryInserts => "arrivals binary-inserted into queue order",
            Counter::TimelineInPlace => "timeline updates absorbed in place",
            Counter::TimelineEdits => "timeline updates that inserted/removed entries",
            Counter::CacheHits => "sweep cells served from the cell cache",
            Counter::CacheMisses => "sweep cells the cache could not serve",
            Counter::CacheSelfHeals => "defective cache entries demoted to misses",
            Counter::SweepWorkerSteals => "cells claimed by spawned sweep workers",
            Counter::ClaimsAcquired => "cell claim leases acquired by this worker",
            Counter::ClaimsStaleReclaimed => "stale claim leases reclaimed after the TTL",
            Counter::ClaimsContended => "claim attempts that found a live foreign lease",
            Counter::CellRetries => "cell retry attempts after a panic or I/O fault",
            Counter::CellsFailed => "cells that failed (failed-cells table)",
            Counter::FaultsInjected => "faults fired by an armed fault plan",
            Counter::CacheWriteErrors => "cache write-backs degraded to a warning",
        }
    }
}

// ----------------------------------------------------- thread-local store

/// Per-thread monotone accumulators. Fixed arrays of atomics, const-
/// initialized: first access registers no destructor and allocates
/// nothing, and relaxed load+store bumps never touch the heap.
struct Recorder {
    counters: [AtomicU64; COUNTER_COUNT],
    phase_ns: [AtomicU64; PHASE_COUNT],
    phase_calls: [AtomicU64; PHASE_COUNT],
}

impl Recorder {
    const fn new() -> Self {
        Recorder {
            counters: [const { AtomicU64::new(0) }; COUNTER_COUNT],
            phase_ns: [const { AtomicU64::new(0) }; PHASE_COUNT],
            phase_calls: [const { AtomicU64::new(0) }; PHASE_COUNT],
        }
    }
}

thread_local! {
    static REC: Recorder = const { Recorder::new() };
}

#[inline]
fn relaxed_add(slot: &AtomicU64, n: u64) {
    // Thread-local, so a load+store pair is race-free and avoids the
    // read-modify-write lock prefix of `fetch_add`.
    slot.store(
        slot.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// Count one event. Disabled cost: one relaxed static load + branch.
#[inline]
pub fn bump(counter: Counter) {
    add(counter, 1);
}

/// Count `n` events at once (e.g. ticks skipped per span).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if STATE.load(Ordering::Relaxed) & PROFILE_BIT == 0 || n == 0 {
        return;
    }
    REC.with(|r| relaxed_add(&r.counters[counter as usize], n));
}

// ------------------------------------------------------------------ spans

/// RAII span: created by [`span`], records on drop. Inert (no clock read)
/// when nothing is enabled at creation.
pub struct Span {
    phase: Phase,
    start: Option<Instant>,
    traced: bool,
}

/// Open a span over `phase`. Disabled cost: one relaxed load + branch.
#[inline]
pub fn span(phase: Phase) -> Span {
    let state = STATE.load(Ordering::Relaxed);
    if state == 0 {
        return Span {
            phase,
            start: None,
            traced: false,
        };
    }
    let traced = state & TRACE_BIT != 0;
    if traced {
        emit(phase.name(), b'B');
    }
    Span {
        phase,
        start: Some(Instant::now()),
        traced,
    }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        if let Some(start) = self.start {
            close_span(self.phase, start, self.traced);
        }
    }
}

fn close_span(phase: Phase, start: Instant, traced: bool) {
    let ns = start.elapsed().as_nanos() as u64;
    if profile_enabled() {
        REC.with(|r| {
            relaxed_add(&r.phase_ns[phase as usize], ns);
            relaxed_add(&r.phase_calls[phase as usize], 1);
        });
    }
    if traced {
        emit(phase.name(), b'E');
    }
}

/// Forced timer: **always** measures (the caller needs the `Duration`
/// regardless of instrumentation state), records into the profile/trace
/// only when enabled. The single timing pathway for wall-clock fields.
pub struct Stopwatch {
    phase: Phase,
    start: Instant,
    traced: bool,
}

/// Start a forced timer over `phase`.
pub fn stopwatch(phase: Phase) -> Stopwatch {
    let traced = trace_enabled();
    if traced {
        emit(phase.name(), b'B');
    }
    Stopwatch {
        phase,
        start: Instant::now(),
        traced,
    }
}

impl Stopwatch {
    /// Stop, record (when enabled), and return the measured duration.
    pub fn finish(self) -> Duration {
        let elapsed = self.start.elapsed();
        if profile_enabled() {
            REC.with(|r| {
                relaxed_add(&r.phase_ns[self.phase as usize], elapsed.as_nanos() as u64);
                relaxed_add(&r.phase_calls[self.phase as usize], 1);
            });
        }
        if self.traced {
            emit(self.phase.name(), b'E');
        }
        elapsed
    }
}

// --------------------------------------------------------------- captures

/// Snapshot of the current thread's accumulators; [`Capture::finish`]
/// yields the delta as a [`Profile`]. Captures nest (the accumulators are
/// monotone), and because each sweep cell runs wholly on one thread, a
/// per-cell capture is deterministic for any `--jobs` value.
pub struct Capture {
    active: bool,
    counters: [u64; COUNTER_COUNT],
    phase_ns: [u64; PHASE_COUNT],
    phase_calls: [u64; PHASE_COUNT],
}

/// Begin a capture. Inactive (and free) when profiling is off.
pub fn capture() -> Capture {
    if !profile_enabled() {
        return Capture {
            active: false,
            counters: [0; COUNTER_COUNT],
            phase_ns: [0; PHASE_COUNT],
            phase_calls: [0; PHASE_COUNT],
        };
    }
    REC.with(|r| Capture {
        active: true,
        counters: snapshot(&r.counters),
        phase_ns: snapshot(&r.phase_ns),
        phase_calls: snapshot(&r.phase_calls),
    })
}

fn snapshot<const N: usize>(slots: &[AtomicU64; N]) -> [u64; N] {
    let mut out = [0u64; N];
    for (o, s) in out.iter_mut().zip(slots) {
        *o = s.load(Ordering::Relaxed);
    }
    out
}

impl Capture {
    /// The delta since [`capture`], as a profile; `None` when profiling
    /// was off at begin time.
    pub fn finish(&self) -> Option<Profile> {
        if !self.active {
            return None;
        }
        REC.with(|r| {
            let mut profile = Profile::default();
            for phase in Phase::ALL {
                let i = phase as usize;
                let calls = r.phase_calls[i].load(Ordering::Relaxed) - self.phase_calls[i];
                let ns = r.phase_ns[i].load(Ordering::Relaxed) - self.phase_ns[i];
                if calls > 0 || ns > 0 {
                    profile.phases.push(PhaseStat {
                        name: phase.name().to_string(),
                        calls,
                        total_ns: ns,
                    });
                }
            }
            for counter in Counter::ALL {
                let i = counter as usize;
                let value = r.counters[i].load(Ordering::Relaxed) - self.counters[i];
                if value > 0 {
                    profile.counters.push(CounterStat {
                        name: counter.name().to_string(),
                        value,
                    });
                }
            }
            Some(profile)
        })
    }
}

// --------------------------------------------------------------- profiles

/// Accumulated time in one phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    pub name: String,
    pub calls: u64,
    pub total_ns: u64,
}

/// Accumulated count of one event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterStat {
    pub name: String,
    pub value: u64,
}

/// A run's aggregated observability record: per-phase timing plus counter
/// values, in registry order. Merges are associative and name-keyed, so
/// per-cell profiles fold into one sweep profile deterministically.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Profile {
    pub phases: Vec<PhaseStat>,
    pub counters: Vec<CounterStat>,
}

impl Profile {
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty() && self.counters.is_empty()
    }

    /// Accumulate `(calls, total_ns)` under a phase name.
    pub fn record_phase(&mut self, name: &str, calls: u64, total_ns: u64) {
        if let Some(p) = self.phases.iter_mut().find(|p| p.name == name) {
            p.calls += calls;
            p.total_ns += total_ns;
        } else {
            self.phases.push(PhaseStat {
                name: name.to_string(),
                calls,
                total_ns,
            });
        }
    }

    /// Accumulate `value` under a counter name (no-op for zero on a
    /// missing entry, so empty sections stay empty).
    pub fn add_counter(&mut self, name: &str, value: u64) {
        if let Some(c) = self.counters.iter_mut().find(|c| c.name == name) {
            c.value += value;
        } else if value > 0 {
            self.counters.push(CounterStat {
                name: name.to_string(),
                value,
            });
        }
    }

    /// Fold `other` into `self`, matching entries by name.
    pub fn merge(&mut self, other: &Profile) {
        for p in &other.phases {
            self.record_phase(&p.name, p.calls, p.total_ns);
        }
        for c in &other.counters {
            self.add_counter(&c.name, c.value);
        }
    }

    /// Timing entry for a phase name, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Counter value for a name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Aligned per-phase / per-counter table (what `--profile` prints).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        if !self.phases.is_empty() {
            s.push_str(&format!(
                "{:<26} {:>12} {:>12} {:>12}\n",
                "phase", "calls", "total", "mean"
            ));
            for p in &self.phases {
                let mean = p.total_ns / p.calls.max(1);
                s.push_str(&format!(
                    "{:<26} {:>12} {:>12} {:>12}\n",
                    p.name,
                    p.calls,
                    format_ns(p.total_ns),
                    format_ns(mean)
                ));
            }
        }
        if !self.counters.is_empty() {
            if !s.is_empty() {
                s.push('\n');
            }
            s.push_str(&format!("{:<26} {:>12}\n", "counter", "value"));
            for c in &self.counters {
                s.push_str(&format!("{:<26} {:>12}\n", c.name, c.value));
            }
        }
        s
    }
}

/// Human-readable rendering of a nanosecond count (ns/us/ms/s).
pub fn format_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

// ---------------------------------------------------------------- tracing

#[derive(Clone, Copy)]
struct RawEvent {
    name: &'static str,
    ph: u8,
    ts_ns: u64,
    tid: u64,
}

/// Flushed events from every thread, per-thread chunks in order.
static SINK: Mutex<Vec<RawEvent>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Per-thread event buffer; drains into [`SINK`] on flush and at thread
/// exit, preserving per-thread event order.
struct TraceBuf {
    tid: u64,
    events: RefCell<Vec<RawEvent>>,
}

impl TraceBuf {
    fn flush(&self) {
        let mut events = self.events.borrow_mut();
        if !events.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.append(&mut events);
            }
        }
    }
}

impl Drop for TraceBuf {
    fn drop(&mut self) {
        let events = self.events.get_mut();
        if !events.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.append(events);
            }
        }
    }
}

thread_local! {
    static TRACE_TLS: TraceBuf = TraceBuf {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        events: RefCell::new(Vec::new()),
    };
}

fn emit(name: &'static str, ph: u8) {
    let ts_ns = now_ns();
    let _ = TRACE_TLS.try_with(|t| {
        t.events.borrow_mut().push(RawEvent {
            name,
            ph,
            ts_ns,
            tid: t.tid,
        });
    });
}

/// Flush the calling thread's buffered trace events to the global sink.
/// Worker threads flush automatically at exit; the thread that writes the
/// trace file calls this via [`take_trace_json`].
pub fn flush_thread_trace() {
    let _ = TRACE_TLS.try_with(TraceBuf::flush);
}

/// Drain every flushed event into chrome-trace JSON text
/// (`{"traceEvents": [...]}`), events grouped by thread with per-thread
/// order preserved.
pub fn take_trace_json() -> String {
    flush_thread_trace();
    let mut events = std::mem::take(&mut *SINK.lock().unwrap_or_else(|e| e.into_inner()));
    // Stable: groups by tid, keeps each thread's B/E order intact.
    events.sort_by_key(|e| e.tid);
    let mut s = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}}}",
            e.name,
            e.ph as char,
            e.ts_ns as f64 / 1000.0,
            e.tid
        ));
    }
    s.push_str("\n]}\n");
    s
}

/// Write the collected trace as a chrome-trace file at `path`. Installed
/// via temp file + rename (this crate sits below `sraps-types`, so the
/// idiom is inlined rather than shared) — a killed process never leaves
/// a torn trace behind.
pub fn write_trace(path: &std::path::Path) -> std::io::Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("trace");
    let tmp = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    std::fs::write(&tmp, take_trace_json())?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

// ------------------------------------------------------------- validation

/// One parsed chrome-trace event (duration events only).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceEventRecord {
    pub name: String,
    pub ph: String,
    pub ts: f64,
    pub pid: u64,
    pub tid: u64,
}

/// The chrome-trace envelope. Deserialized by hand because the JSON key
/// is camel-case (`traceEvents`), which the serde shim derive can't map.
pub struct ChromeTrace {
    pub events: Vec<TraceEventRecord>,
}

impl serde::Deserialize for ChromeTrace {
    fn deserialize(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(ChromeTrace {
            events: serde::field(v, "traceEvents")?,
        })
    }
}

/// Check a chrome-trace JSON text for well-formedness: parseable, only
/// `B`/`E` phases, per-thread timestamps non-decreasing, every `E`
/// matching the innermost open `B` of its thread, and no span left open.
/// Returns the event count.
pub fn validate_chrome_trace(text: &str) -> Result<usize, String> {
    let trace: ChromeTrace =
        serde_json::from_str(text).map_err(|e| format!("trace does not parse: {e}"))?;
    let mut stacks: std::collections::BTreeMap<u64, Vec<String>> = Default::default();
    let mut last_ts: std::collections::BTreeMap<u64, f64> = Default::default();
    for (i, e) in trace.events.iter().enumerate() {
        if let Some(&prev) = last_ts.get(&e.tid) {
            if e.ts < prev {
                return Err(format!(
                    "event {i} ({}): ts {} < previous ts {prev} on tid {}",
                    e.name, e.ts, e.tid
                ));
            }
        }
        last_ts.insert(e.tid, e.ts);
        match e.ph.as_str() {
            "B" => stacks.entry(e.tid).or_default().push(e.name.clone()),
            "E" => {
                let open = stacks.get_mut(&e.tid).and_then(Vec::pop);
                match open {
                    Some(name) if name == e.name => {}
                    Some(name) => {
                        return Err(format!(
                            "event {i}: E \"{}\" does not match open B \"{name}\" on tid {}",
                            e.name, e.tid
                        ));
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E \"{}\" without a matching B on tid {}",
                            e.name, e.tid
                        ));
                    }
                }
            }
            other => return Err(format!("event {i}: unsupported phase {other:?}")),
        }
    }
    for (tid, stack) in &stacks {
        if let Some(open) = stack.last() {
            return Err(format!("tid {tid}: span \"{open}\" was never closed"));
        }
    }
    Ok(trace.events.len())
}

// ------------------------------------------------------------------ tests

#[cfg(test)]
mod tests {
    use super::*;

    /// Obs state is process-global; tests that toggle it serialize here
    /// and restore the disabled default before releasing the lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    // The held lock is the point; it is never read.
    struct ObsGuard<'a>(#[allow(dead_code)] std::sync::MutexGuard<'a, ()>);

    fn enable(profile: bool, trace: bool) -> ObsGuard<'static> {
        let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _ = take_trace_json(); // drain leftovers
        set_profile(profile);
        set_trace(trace);
        ObsGuard(guard)
    }

    impl Drop for ObsGuard<'_> {
        fn drop(&mut self) {
            set_profile(false);
            set_trace(false);
            let _ = take_trace_json();
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let _g = enable(false, false);
        let cap = capture();
        bump(Counter::CacheHits);
        let _s = span(Phase::CacheRead);
        drop(_s);
        assert!(cap.finish().is_none(), "inactive capture yields no profile");
        assert!(
            take_trace_json().contains("[\n]"),
            "no trace events buffered"
        );
    }

    #[test]
    fn counters_and_spans_accumulate_into_captures() {
        let _g = enable(true, false);
        let cap = capture();
        bump(Counter::CacheHits);
        add(Counter::EngineTicksSkipped, 41);
        add(Counter::EngineTicksSkipped, 1);
        {
            let _s = span(Phase::EngineRun);
            let _inner = span(Phase::EngineScheduler);
        }
        let profile = cap.finish().expect("active capture");
        assert_eq!(profile.counter("cache.hits"), 1);
        assert_eq!(profile.counter("engine.ticks_skipped"), 42);
        assert_eq!(
            profile.counter("cache.misses"),
            0,
            "untouched counter absent"
        );
        let run = profile.phase("engine.run").expect("span recorded");
        assert_eq!(run.calls, 1);
        assert_eq!(profile.phase("engine.scheduler").unwrap().calls, 1);
        // Nested captures see only their own window.
        let cap2 = capture();
        bump(Counter::CacheMisses);
        let p2 = cap2.finish().unwrap();
        assert_eq!(p2.counter("cache.misses"), 1);
        assert_eq!(p2.counter("cache.hits"), 0);
    }

    #[test]
    fn stopwatch_measures_even_when_disabled() {
        let _g = enable(false, false);
        let cap = capture();
        let watch = stopwatch(Phase::EngineRun);
        let d = watch.finish();
        assert!(d.as_nanos() > 0 || d.is_zero()); // a real Duration either way
        assert!(cap.finish().is_none());

        set_profile(true);
        let cap = capture();
        let watch = stopwatch(Phase::EngineRun);
        std::thread::yield_now();
        let d = watch.finish();
        let p = cap.finish().unwrap();
        let stat = p.phase("engine.run").unwrap();
        assert_eq!(stat.calls, 1);
        assert!(stat.total_ns >= d.as_nanos() as u64 / 2);
    }

    #[test]
    fn profiles_merge_by_name() {
        let mut a = Profile::default();
        a.record_phase("engine.run", 1, 100);
        a.add_counter("cache.hits", 2);
        let mut b = Profile::default();
        b.record_phase("engine.run", 1, 50);
        b.record_phase("cache.read", 3, 9);
        b.add_counter("cache.hits", 1);
        b.add_counter("cache.misses", 4);
        a.merge(&b);
        assert_eq!(a.phase("engine.run").unwrap().calls, 2);
        assert_eq!(a.phase("engine.run").unwrap().total_ns, 150);
        assert_eq!(a.phase("cache.read").unwrap().calls, 3);
        assert_eq!(a.counter("cache.hits"), 3);
        assert_eq!(a.counter("cache.misses"), 4);
        let table = a.render_table();
        assert!(table.contains("engine.run"));
        assert!(table.contains("cache.misses"));
    }

    #[test]
    fn profile_roundtrips_through_json() {
        let mut p = Profile::default();
        p.record_phase("engine.run", 7, 123_456_789);
        p.add_counter("queue.resorts", 3);
        let text = serde_json::to_string_pretty(&p).unwrap();
        let back: Profile = serde_json::from_str(&text).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn trace_spans_nest_and_validate_across_threads() {
        let _g = enable(true, true);
        {
            let _outer = span(Phase::SweepRun);
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    scope.spawn(|| {
                        {
                            let _cell = span(Phase::SweepCell);
                            for _ in 0..3 {
                                let _run = span(Phase::EngineRun);
                                let _sched = span(Phase::EngineScheduler);
                            }
                        }
                        // Scoped threads signal completion before TLS
                        // destructors run, so flush before returning.
                        flush_thread_trace();
                    });
                }
            });
        }
        let text = take_trace_json();
        let count = validate_chrome_trace(&text).expect("trace is well-formed");
        // 1 sweep.run pair + per thread: 1 cell pair + 3×2 engine pairs.
        assert_eq!(count, 2 * (1 + 2 * (1 + 6)));
        assert!(text.contains("\"ph\":\"B\""));
        assert!(text.contains("\"name\":\"engine.scheduler\""));
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        // E without B.
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"E","ts":1.0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(text)
            .unwrap_err()
            .contains("without a matching B"));
        // Mismatched nesting.
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1},
            {"name":"b","ph":"B","ts":2.0,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":3.0,"pid":1,"tid":1},
            {"name":"b","ph":"E","ts":4.0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(text)
            .unwrap_err()
            .contains("does not match"));
        // Backwards time on one thread.
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":5.0,"pid":1,"tid":1},
            {"name":"a","ph":"E","ts":4.0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(text)
            .unwrap_err()
            .contains("previous ts"));
        // Unclosed span.
        let text = r#"{"traceEvents":[
            {"name":"a","ph":"B","ts":1.0,"pid":1,"tid":1}
        ]}"#;
        assert!(validate_chrome_trace(text)
            .unwrap_err()
            .contains("never closed"));
    }

    #[test]
    fn registry_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Phase::ALL.iter().map(|p| p.name()))
            .collect();
        assert!(names.iter().all(|n| n.contains('.')));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate registry name");
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "discriminant order matches ALL");
            assert!(!c.describe().is_empty());
        }
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
        }
    }
}
