//! The S-RAPS simulation engine (§3.2.3): the four-step forward-time loop
//! driving scheduler, power model, and cooling model.
//!
//! Two main-loop cores share every step ([`crate::config::EngineMode`]):
//!
//! * **tick** — the paper's loop: steps 1–4 at every telemetry tick;
//! * **event** — the hybrid event/tick core: steps 1–3 (complete /
//!   enqueue / schedule) run only at *event times* — the next pending
//!   submission, the earliest completion in the heap, the next outage
//!   edge — and step 4's physics is batch-advanced across the idle span
//!   in between. Histories stay tick-resolution and bit-identical to the
//!   tick core; only the work of discovering that nothing schedulable
//!   changed is skipped.
//!
//! With an empty queue the skip is always sound. With a non-empty queue,
//! after a call that placed nothing, the engine asks the scheduler for
//! its next internal deadline ([`SchedulerBackend::next_decision_time`]):
//! built-in policies with none/first-fit/EASY backfill change their
//! decisions only at events and answer `None`, conservative backfill
//! exposes the earlier of its next reservation and its planner's bound
//! on every job it left unplanned, replay (also under a power cap) the
//! earliest future recorded start, external engines their next internal
//! event — and the skip horizon is bounded by that deadline.
//! Only backends that cannot bound their next decision (a conservative
//! plan whose matured reservation failed to allocate, a cap-deferred
//! proposal under EASY/conservative, an external engine without an
//! event hint) still force one-tick stepping.

use crate::config::{EngineMode, SchedulerSelect, SimConfig};
use crate::fingerprint::ENGINE_SCHEMA_VERSION;
use crate::output::SimOutput;
use crate::snapshot::{ActiveSnapshot, EngineSnapshot};
use sraps_acct::{Accounts, JobOutcome, SystemStats};
use sraps_cooling::CoolingPlant;
use sraps_data::Dataset;
use sraps_extsched::{ExternalAdapter, FastSim, ScheduleFlow};
use sraps_obs::{Counter, Phase as ObsPhase};
use sraps_power::{node_power_from_telemetry, node_power_w, PowerModel};
use sraps_sched::{
    BuiltinScheduler, JobQueue, PolicyKind, QueuedJob, ResourceManager, RunningView, SchedContext,
    SchedulerBackend,
};
use sraps_types::{
    Job, JobId, JobIdMap, NodeSet, Result, SimDuration, SimTime, SrapsError, Trace, TraceSegments,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::{Arc, OnceLock};

/// How a job's telemetry drives the physics step.
#[derive(Debug, Clone, Copy)]
enum Profile {
    /// Every trace has at most one sample (the summary-dataset fidelity
    /// class: Fugaku / Lassen / Adastra): the job draws the same power at
    /// every offset, so it is sampled *once* at activation and its
    /// outcome integrates in closed form — the per-tick work shrinks to
    /// one cached add into the busy-power sum.
    Constant {
        node_w: f64,
        cpu: f64,
        gpu: f64,
        /// Cached `node_w × nodes` contribution to the busy-power sum.
        busy_w: f64,
    },
    /// Time-varying traces (Frontier / Marconi100): sampled every tick.
    Traced,
}

/// A job currently on the machine.
#[derive(Debug, Clone)]
struct Active {
    id: JobId,
    /// Index into [`Engine::jobs`] — the cached job handle, so the hot
    /// physics loop indexes a slice instead of hashing a `JobId`.
    job: usize,
    nodes: NodeSet,
    start: SimTime,
    /// When the job will actually complete (trace ground truth).
    actual_end: SimTime,
    /// What the scheduler believes (start + wall-time estimate).
    est_end: SimTime,
    /// Telemetry offset at `start` — non-zero for jobs prepopulated
    /// mid-execution (they resume their profile, not restart it).
    telemetry_offset: SimDuration,
    profile: Profile,
    // Accumulators for the job outcome (traced profiles only; constant
    // profiles integrate analytically at completion).
    energy_kwh: f64,
    node_power_sum_kw: f64,
    cpu_util_sum: f64,
    gpu_util_sum: f64,
    ticks: u64,
}

impl Active {
    fn new(
        id: JobId,
        job: usize,
        nodes: NodeSet,
        start: SimTime,
        actual_end: SimTime,
        est_end: SimTime,
        telemetry_offset: SimDuration,
    ) -> Active {
        Active {
            id,
            job,
            nodes,
            start,
            actual_end,
            est_end,
            telemetry_offset,
            profile: Profile::Traced,
            energy_kwh: 0.0,
            node_power_sum_kw: 0.0,
            cpu_util_sum: 0.0,
            gpu_util_sum: 0.0,
            ticks: 0,
        }
    }
}

/// A trace with at most one sample reads the same value at every offset —
/// the summary-dataset case whose sampling the physics batcher hoists out
/// of the per-tick loop.
fn is_constant(t: &Option<Trace>) -> bool {
    t.as_ref().is_none_or(|t| t.len() <= 1)
}

/// One maximal homogeneous run of a metric within a physics span: either
/// a constant hold or a straight slice of consecutive samples.
#[derive(Clone, Copy)]
enum MetricRun<'a> {
    /// The same value at every tick of the run.
    Hold(f32),
    /// Tick `k + j` of the run reads `samples[j]` (trace cadence equals
    /// the engine tick — the Marconi100/Frontier hot path).
    Stream(&'a [f32]),
}

impl MetricRun<'_> {
    #[inline]
    fn at(self, j: usize) -> f32 {
        match self {
            MetricRun::Hold(v) => v,
            MetricRun::Stream(s) => s[j],
        }
    }
}

/// Cursor over one metric's piecewise-constant value stream within a
/// physics span: traces are constant between samples, so the span walk
/// reads each metric once per *run* instead of re-sampling (divide,
/// clamp, branch) at every tick. Values are exactly [`Trace::sample`]'s
/// at each tick offset.
enum MetricCursor<'a> {
    /// One value across the whole span: metric missing, single-sample
    /// trace, or the span lies entirely in one sample's hold region.
    Constant(f32),
    /// `trace.dt == step` (trace cadence matches the tick): the sample
    /// index at tick `k` is `clamp(i0 + k, 0, len-1)` — a leading hold
    /// (before the trace), a streamed middle, a trailing hold (last
    /// value). This is the trace-dataset hot path (Marconi100/Frontier
    /// sample at exactly the engine tick).
    Aligned { values: &'a [f32], i0: i64 },
    /// Arbitrary cadence/alignment: the generic segment iterator.
    General {
        it: TraceSegments<'a>,
        end: usize,
        value: f32,
    },
}

impl<'a> MetricCursor<'a> {
    fn new(trace: Option<&'a Trace>, start: SimDuration, step: SimDuration, count: usize) -> Self {
        let Some(t) = trace.filter(|t| !t.is_empty()) else {
            return MetricCursor::Constant(0.0);
        };
        let n = t.values.len();
        if n == 1 {
            return MetricCursor::Constant(t.values[0]);
        }
        if t.dt == step {
            // idx(k) = floor((start - t0 + k·dt)/dt) = i0 + k, clamped —
            // identical to `sample` (trunc == floor for the positive
            // branch; non-positive clamps to the first value).
            let i0 = (start.as_secs() - t.t0.as_secs()).div_euclid(t.dt.as_secs());
            if i0 >= (n - 1) as i64 {
                return MetricCursor::Constant(t.values[n - 1]);
            }
            if count == 0 || i0 + (count as i64 - 1) <= 0 {
                return MetricCursor::Constant(t.values[0]);
            }
            return MetricCursor::Aligned {
                values: &t.values,
                i0,
            };
        }
        let mut it = t.segments(start, step, count);
        let (end, value) = it.next().map_or((count, 0.0), |s| (s.ticks.end, s.value));
        MetricCursor::General { it, end, value }
    }

    /// The maximal homogeneous run starting at tick `k` (ends capped at
    /// `count`); `k` must be non-decreasing across calls.
    #[inline]
    fn run_at(&mut self, k: usize, count: usize) -> (MetricRun<'a>, usize) {
        match self {
            MetricCursor::Constant(v) => (MetricRun::Hold(*v), count),
            MetricCursor::Aligned { values, i0 } => {
                let i = *i0 + k as i64;
                let last = values.len() - 1;
                if i <= 0 {
                    // The first value holds until the index turns 1.
                    (MetricRun::Hold(values[0]), ((1 - *i0) as usize).min(count))
                } else if i as usize >= last {
                    (MetricRun::Hold(values[last]), count)
                } else {
                    // Stream consecutive samples until the last sample's
                    // hold region begins.
                    let i = i as usize;
                    (MetricRun::Stream(&values[i..]), (k + (last - i)).min(count))
                }
            }
            MetricCursor::General { it, end, value } => {
                while k >= *end {
                    let s = it.next().expect("segments cover every tick");
                    *end = s.ticks.end;
                    *value = s.value;
                }
                (MetricRun::Hold(*value), *end)
            }
        }
    }
}

/// The simulation engine. Create with [`Engine::new`] (or
/// [`Engine::with_window`] over a shared window), run with
/// [`Engine::run`] — or drive it incrementally with [`Engine::run_until`],
/// capture the full state with [`Engine::snapshot`], and continue a
/// capture via [`Engine::resume`].
pub struct Engine {
    sim: SimConfig,
    /// Loop cursor: the next tick instant to visit.
    now: SimTime,
    /// Loop cursor: tick instants left to visit before `sim_end`.
    remaining: i64,
    /// Ticks of the current decided span whose physics has not advanced
    /// yet — control (steps 1–3) already ran for them. Non-zero between
    /// a control step and the completion of its physics span, i.e. when
    /// [`Engine::run_until`] cut the span short.
    span_left: i64,
    scheduler: Box<dyn SchedulerBackend>,
    rm: ResourceManager,
    queue: JobQueue,
    /// All in-window jobs; [`Active::job`] and `pending` index into this.
    /// Shared: every engine over the same [`SimWindow`] reads one copy.
    jobs: Arc<Vec<Job>>,
    /// `JobId` → index in `jobs`; touched once per placement, never in
    /// the per-tick loops.
    job_index: Arc<JobIdMap<usize>>,
    /// Not-yet-submitted jobs (indices into `jobs`), ascending by submit.
    pending: Arc<Vec<usize>>,
    next_pending: usize,
    active: Vec<Active>,
    /// Position of each active job in `active`, so a completion popped
    /// from the heap removes in O(1) after the O(log n) pop.
    active_pos: JobIdMap<usize>,
    /// Min-heap of (actual_end, id): the completion side of the event
    /// horizon, replacing the O(active) scan per tick.
    completions: BinaryHeap<Reverse<(SimTime, JobId)>>,
    /// Scheduler-facing view of `active`, maintained in lockstep so
    /// schedule calls stop rebuilding it.
    running: Vec<RunningView>,
    /// The window's per-job power estimates when the run has a cap;
    /// [`Engine::attach`] stamps each running view's `power_kw` from it.
    power_estimates: Option<Arc<JobIdMap<f64>>>,
    power_model: PowerModel,
    cooling: Option<CoolingPlant>,
    accounts: Accounts,
    outcomes: Vec<JobOutcome>,
    sim_start: SimTime,
    sim_end: SimTime,
    /// Which configured outages are currently applied.
    outage_active: Vec<bool>,
    /// Every outage edge (`from` and `until`), pre-sorted ascending, so
    /// the event-horizon check is a cursor lookup instead of a scan.
    outage_edges: Vec<SimTime>,
    /// First entry of `outage_edges` strictly after the last horizon
    /// query; `now` is monotone in the run loop, so the cursor only
    /// advances — O(1) amortized.
    outage_cursor: usize,
    // Histories.
    times: Vec<SimTime>,
    power_hist: Vec<sraps_power::PowerSample>,
    cooling_hist: Vec<sraps_cooling::CoolingSample>,
    util_hist: Vec<f64>,
    queue_hist: Vec<usize>,
    queue_demand_hist: Vec<u64>,
    /// Scratch: per-tick aggregate busy power within one physics span.
    span_busy: Vec<f64>,
    /// Scratch: the scheduler's placement buffer, reused across calls.
    placements: Vec<sraps_sched::Placement>,
    /// How many actives carry a traced (per-tick sampled) profile.
    traced_active: usize,
}

/// The cell-independent slice of engine construction: the simulation
/// window bounds and the classified in-window job set, shareable across
/// every engine simulating the same (dataset, window) pair.
///
/// [`Engine::new`] builds one privately; the sweep runner and the serve
/// daemon build one per workload, so the cells of a workload stop
/// re-cloning and re-sorting the same jobs (telemetry traces included).
/// Both construction paths route through [`Engine::with_window`], so
/// shared-window engines are identical to standalone ones by
/// construction.
pub struct SimWindow {
    sim_start: SimTime,
    sim_end: SimTime,
    /// All in-window jobs; `Active::job` and `pending` index into this.
    jobs: Arc<Vec<Job>>,
    /// `JobId` → index in `jobs`.
    job_index: Arc<JobIdMap<usize>>,
    /// Not-yet-submitted jobs, ascending by (submit, id).
    pending: Arc<Vec<usize>>,
    /// Jobs mid-run at the window start (dataset order) — prepopulation
    /// candidates; allocation is per-engine state and stays in
    /// [`Engine::with_window`].
    prepop: Vec<usize>,
    /// Per-job mean-power estimates (kW), the power-cap scheduler's
    /// input (§5). A pure fold over the jobs' telemetry traces, so it is
    /// computed once per window and shared, not copied: a forked
    /// power-cap scan builds many capped engines over one window.
    power_estimates: OnceLock<Arc<JobIdMap<f64>>>,
}

impl SimWindow {
    /// Select the window and classify the dataset's in-window jobs once
    /// (§3.2.2): jobs submitted inside the window become `pending`, jobs
    /// mid-run at the window start become prepopulation candidates.
    pub fn new(sim: &SimConfig, dataset: &Dataset) -> Result<SimWindow> {
        let (sim_start, sim_end) = dataset.resolve_window(sim.sim_start, sim.sim_end);
        if sim_end <= sim_start {
            return Err(SrapsError::Config(format!(
                "empty simulation window {sim_start}..{sim_end}"
            )));
        }
        // Dismiss out-of-window jobs (§3.2.2).
        let jobs: Vec<Job> = dataset
            .jobs_in_window(sim_start, sim_end)
            .cloned()
            .collect();
        let mut job_index = JobIdMap::with_capacity_and_hasher(jobs.len(), Default::default());
        let mut pending: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut prepop = Vec::new();
        for (idx, job) in jobs.iter().enumerate() {
            if job.recorded_start < sim_start && job.recorded_end > sim_start {
                prepop.push(idx);
            } else {
                pending.push(idx);
            }
            job_index.insert(job.id, idx);
        }
        pending.sort_by_key(|&i| (jobs[i].submit, jobs[i].id));
        Ok(SimWindow {
            sim_start,
            sim_end,
            jobs: Arc::new(jobs),
            job_index: Arc::new(job_index),
            pending: Arc::new(pending),
            prepop,
            power_estimates: OnceLock::new(),
        })
    }

    /// Per-job power estimates: what a site would have from user
    /// estimates or fingerprinting (§5). Lazy — uncapped windows never
    /// pay for it — and memoized across every engine on this window.
    fn power_estimates(&self) -> Arc<JobIdMap<f64>> {
        let table = self.power_estimates.get_or_init(|| {
            Arc::new(
                self.jobs
                    .iter()
                    .map(|j| {
                        let node_kw = j
                            .telemetry
                            .node_power_w
                            .as_ref()
                            .map_or(0.0, |t| t.mean() as f64 / 1000.0);
                        (j.id, node_kw * j.nodes_requested as f64)
                    })
                    .collect(),
            )
        });
        Arc::clone(table)
    }
}

impl Engine {
    /// Initialize the system (§3.2.1): select the window, load in-window
    /// jobs, build the scheduler, and prepopulate jobs already running at
    /// the window start — "this allows us to represent the actual system
    /// condition as observed in the telemetry at start of the simulation".
    pub fn new(sim: SimConfig, dataset: &Dataset) -> Result<Engine> {
        sim.validate()?;
        let window = SimWindow::new(&sim, dataset)?;
        Engine::with_window(sim, &window)
    }

    /// Like [`Engine::new`], but over a prebuilt [`SimWindow`] shared
    /// with other engines. Per-engine state (resource manager, scheduler,
    /// prepopulation allocations, histories) is still built here; only
    /// the immutable job set is shared.
    pub fn with_window(sim: SimConfig, window: &SimWindow) -> Result<Engine> {
        let mut engine = Engine::bare(sim, window)?;
        for &idx in &window.prepop {
            let job = &engine.jobs[idx];
            // Prepopulation: the job was mid-run when the window opens.
            let nodes = match &job.recorded_nodes {
                Some(set) if engine.rm.allocate_exact(set).is_ok() => set.clone(),
                _ => match engine.rm.allocate(job.nodes_requested) {
                    Ok(set) => set,
                    // An infeasible trace would land here; skip the job
                    // rather than corrupting occupancy (it stays in the
                    // shared job set but is never queued or activated).
                    Err(_) => continue,
                },
            };
            let est_end = (job.recorded_start + job.estimate())
                .max(engine.sim_start + engine.sim.system.tick);
            let a = Active::new(
                job.id,
                idx,
                nodes,
                engine.sim_start,
                job.recorded_end,
                est_end,
                engine.sim_start - job.recorded_start,
            );
            engine.activate(a);
        }
        Ok(engine)
    }

    /// Continue from a previously captured [`EngineSnapshot`] instead of
    /// starting fresh. The snapshot must come from an engine over the
    /// same dataset window. With the same config the resumed run
    /// finishes bit-identically to the original. The config may differ
    /// in late-binding axes — a power cap applied or removed, a policy
    /// switch — which take effect from the snapshot's instant on:
    /// scheduler state round-trips across compatible backend variants,
    /// and the queue re-sorts under the new policy exactly once.
    pub fn resume(sim: SimConfig, window: &SimWindow, snap: &EngineSnapshot) -> Result<Engine> {
        let mut engine = Engine::bare(sim, window)?;
        engine.apply_snapshot(snap)?;
        Ok(engine)
    }

    /// The state-free part of construction shared by fresh starts and
    /// snapshot restores: everything derivable from the config and the
    /// window — scheduler, physical models, outage edges, reserved
    /// histories — with an idle machine and the cursor at the window
    /// start. No prepopulation, no activation.
    fn bare(sim: SimConfig, window: &SimWindow) -> Result<Engine> {
        sim.validate()?;
        let sim_start = sim.sim_start.unwrap_or(window.sim_start);
        let sim_end = sim.sim_end.unwrap_or(window.sim_end);
        if (sim_start, sim_end) != (window.sim_start, window.sim_end) {
            return Err(SrapsError::Config(format!(
                "engine window {sim_start}..{sim_end} does not match shared window {}..{}",
                window.sim_start, window.sim_end
            )));
        }
        // The ML policy ranks by `Job::ml_score` and an unscored job as 0,
        // so over a window nothing annotated every job ties and the run is
        // FCFS under another name.
        if sim.policy == PolicyKind::Ml && !window.jobs.iter().any(|j| j.ml_score.is_some()) {
            return Err(SrapsError::Config(format!(
                "policy '{}' ranks jobs by ML score, and no job in the window has one \
                 (annotate the dataset with an ML pipeline first)",
                sim.policy.name()
            )));
        }
        let scheduler = Self::build_scheduler(&sim, window)?;
        let power_estimates = sim.power_cap_kw.map(|_| window.power_estimates());
        let rm = ResourceManager::new(sim.system.total_nodes);
        let power_model = PowerModel::new(&sim.system);
        let cooling = sim.cooling.then(|| CoolingPlant::new(&sim.system.cooling));
        let accounts = sim
            .accounts_in
            .clone()
            .unwrap_or_else(|| Accounts::new(sim.reference_power_kw()));

        let outage_active = vec![false; sim.outages.len()];
        let mut outage_edges: Vec<SimTime> =
            sim.outages.iter().flat_map(|o| [o.from, o.until]).collect();
        outage_edges.sort_unstable();
        let mut engine = Engine {
            scheduler,
            rm,
            now: sim_start,
            remaining: 0,
            span_left: 0,
            queue: JobQueue::new(),
            jobs: Arc::clone(&window.jobs),
            job_index: Arc::clone(&window.job_index),
            pending: Arc::clone(&window.pending),
            next_pending: 0,
            active: Vec::new(),
            active_pos: JobIdMap::default(),
            completions: BinaryHeap::new(),
            running: Vec::new(),
            power_estimates,
            power_model,
            cooling,
            accounts,
            outcomes: Vec::new(),
            sim_start,
            sim_end,
            outage_active,
            outage_edges,
            outage_cursor: 0,
            times: Vec::new(),
            power_hist: Vec::new(),
            cooling_hist: Vec::new(),
            util_hist: Vec::new(),
            queue_hist: Vec::new(),
            queue_demand_hist: Vec::new(),
            span_busy: Vec::new(),
            placements: Vec::new(),
            traced_active: 0,
            sim,
        };
        // Histories have a known final length: one sample per tick.
        engine.remaining = engine.ticks_total();
        let total_ticks = engine.remaining as usize;
        engine.times.reserve_exact(total_ticks);
        engine.power_hist.reserve_exact(total_ticks);
        engine.util_hist.reserve_exact(total_ticks);
        engine.queue_hist.reserve_exact(total_ticks);
        engine.queue_demand_hist.reserve_exact(total_ticks);
        if engine.cooling.is_some() {
            engine.cooling_hist.reserve_exact(total_ticks);
        }
        Ok(engine)
    }

    fn build_scheduler(sim: &SimConfig, window: &SimWindow) -> Result<Box<dyn SchedulerBackend>> {
        let jobs: &[Job] = &window.jobs;
        let tick = sim.system.tick;
        // Duration oracle for external emulators: ground-truth runtimes.
        // Deferred to the external branches — the builtin scheduler never
        // consults it, and the map costs O(jobs) per engine to assemble.
        let oracle = || {
            let durations: HashMap<JobId, SimDuration> =
                jobs.iter().map(|j| (j.id, j.duration())).collect();
            move |q: &QueuedJob| durations.get(&q.id).copied().unwrap_or(tick)
        };
        Ok(match sim.scheduler {
            // The experimental scheduler (§4.3) is the builtin one ranking
            // by the collection-phase accounts `Engine::schedule` hands it;
            // validation keeps power caps to the default scheduler.
            SchedulerSelect::Default | SchedulerSelect::Experimental => {
                let builtin = BuiltinScheduler::new(sim.policy, sim.backfill);
                match sim.power_cap_kw {
                    Some(cap_kw) => Box::new(sraps_sched::PowerCapScheduler::new(
                        builtin,
                        cap_kw,
                        window.power_estimates(),
                    )),
                    None => Box::new(builtin),
                }
            }
            SchedulerSelect::ScheduleFlow => Box::new(ExternalAdapter::new(
                ScheduleFlow::new(sim.system.total_nodes),
                true, // strict: report over-allocation as error (§4.2.1 AE)
                "scheduleflow",
                Box::new(oracle()),
            )),
            SchedulerSelect::FastSim => Box::new(ExternalAdapter::new(
                FastSim::new(sim.system.total_nodes),
                false,
                "fastsim",
                Box::new(oracle()),
            )),
        })
    }

    /// Register a job as running: active list, scheduler view, position
    /// map, completion heap, and the scheduler's capacity timeline stay
    /// in lockstep. Constant-telemetry jobs are sampled here, once,
    /// instead of once per tick.
    fn activate(&mut self, mut a: Active) {
        self.scheduler
            .on_job_started(a.est_end, a.nodes.len() as u32);
        self.classify(&mut a);
        self.attach(a);
    }

    /// Set the job's physics profile from its telemetry — a pure function
    /// of the job and its offset, so restore re-derives it instead of
    /// serializing floats twice.
    fn classify(&self, a: &mut Active) {
        let tel = &self.jobs[a.job].telemetry;
        if is_constant(&tel.node_power_w)
            && is_constant(&tel.cpu_util)
            && is_constant(&tel.gpu_util)
        {
            let spec = &self.sim.system.node_power;
            let node_w = node_power_from_telemetry(spec, tel, a.telemetry_offset);
            a.profile = Profile::Constant {
                node_w,
                cpu: tel.cpu_util_at(a.telemetry_offset) as f64,
                gpu: tel.gpu_util_at(a.telemetry_offset) as f64,
                busy_w: node_w * a.nodes.len() as f64,
            };
        } else {
            a.profile = Profile::Traced;
        }
    }

    /// Index a classified [`Active`] into every engine-side structure.
    /// Restore uses this directly: the scheduler's own record of the job
    /// is already inside its snapshotted state, so no
    /// [`SchedulerBackend::on_job_started`] call happens here. The
    /// running view's power estimate is looked up here, once per job, so
    /// a capped scheduler call reads it off the view.
    fn attach(&mut self, a: Active) {
        if let Profile::Traced = a.profile {
            self.traced_active += 1;
        }
        self.completions.push(Reverse((a.actual_end, a.id)));
        self.active_pos.insert(a.id, self.active.len());
        let power_kw = self
            .power_estimates
            .as_ref()
            .map_or(0.0, |table| table.get(&a.id).copied().unwrap_or(0.0));
        self.running.push(RunningView {
            id: a.id,
            nodes: a.nodes.len() as u32,
            estimated_end: a.est_end,
            power_kw,
        });
        self.active.push(a);
    }

    /// Apply/lift outage windows (part of step 1's state update).
    fn apply_outages(&mut self, now: SimTime) {
        for (i, o) in self.sim.outages.iter().enumerate() {
            let should_be_down = o.from <= now && now < o.until;
            if should_be_down && !self.outage_active[i] {
                self.rm.mark_down(&o.nodes);
                self.outage_active[i] = true;
            } else if !should_be_down && self.outage_active[i] {
                self.rm.mark_up(&o.nodes);
                self.outage_active[i] = false;
            }
        }
    }

    /// Step 1 — preparation: clear completed jobs, free their resources.
    /// Completions pop off the heap in (end, id) order: O(log n) per
    /// completed job, O(1) when nothing completes this tick.
    fn complete_jobs(&mut self, now: SimTime) {
        while let Some(&Reverse((end, id))) = self.completions.peek() {
            if end > now {
                break;
            }
            self.completions.pop();
            sraps_obs::bump(Counter::EngineHeapPops);
            let i = self
                .active_pos
                .remove(&id)
                .expect("every heap entry has an active job");
            let a = self.active.swap_remove(i);
            self.running.swap_remove(i);
            if i < self.active.len() {
                self.active_pos.insert(self.active[i].id, i);
            }
            if let Profile::Traced = a.profile {
                self.traced_active -= 1;
            }
            self.scheduler
                .on_job_completed(a.est_end, a.nodes.len() as u32);
            self.rm.release(&a.nodes);
            let outcome = Self::finish(&self.jobs[a.job], &a, self.sim.system.tick);
            if self.sim.track_accounts {
                self.accounts.record(&outcome);
            }
            self.outcomes.push(outcome);
        }
    }

    fn finish(job: &Job, a: &Active, dt: SimDuration) -> JobOutcome {
        let ticks = a.ticks.max(1) as f64;
        let (avg_kw, energy, cpu, gpu) = if a.ticks == 0 {
            // Sub-tick job: integrate analytically from the trace mean.
            let mean_w = job
                .telemetry
                .node_power_w
                .as_ref()
                .map_or(0.0, |t| t.mean() as f64);
            let hours = (a.actual_end - a.start).as_hours_f64();
            (
                mean_w / 1000.0,
                mean_w / 1000.0 * a.nodes.len() as f64 * hours,
                job.telemetry.cpu_util_at(SimDuration::ZERO) as f64,
                job.telemetry.gpu_util_at(SimDuration::ZERO) as f64,
            )
        } else if let Profile::Constant {
            node_w, cpu, gpu, ..
        } = a.profile
        {
            // Constant draw: the per-tick sums are a closed form.
            let kw = node_w / 1000.0;
            (
                kw,
                kw * a.nodes.len() as f64 * dt.as_hours_f64() * ticks,
                cpu,
                gpu,
            )
        } else {
            (
                a.node_power_sum_kw / ticks,
                a.energy_kwh,
                a.cpu_util_sum / ticks,
                a.gpu_util_sum / ticks,
            )
        };
        JobOutcome {
            id: a.id,
            user: job.user,
            account: job.account,
            nodes: a.nodes.len() as u32,
            submit: job.submit,
            start: a.start,
            end: a.actual_end,
            energy_kwh: energy,
            avg_node_power_kw: avg_kw,
            avg_cpu_util: cpu,
            avg_gpu_util: gpu,
            priority: job.priority,
        }
    }

    /// Step 2 — eligibility: queue jobs submitted by `now` (§3.2.3: "jobs
    /// can only be scheduled and placed once they have been submitted").
    fn enqueue_eligible(&mut self, now: SimTime) {
        let replaying = self.sim.policy == sraps_sched::PolicyKind::Replay;
        while self.next_pending < self.pending.len() {
            let idx = self.pending[self.next_pending];
            let job = &self.jobs[idx];
            if job.submit > now {
                break;
            }
            if replaying && job.recorded_end <= now {
                // The job ran entirely between two ticks. Placing it now
                // would occupy its recorded nodes a full tick late and
                // collide with the next tenant; account it directly on the
                // recorded timeline instead.
                let ghost = Active::new(
                    job.id,
                    idx,
                    job.recorded_nodes
                        .clone()
                        .unwrap_or_else(|| NodeSet::contiguous(0, job.nodes_requested)),
                    job.recorded_start,
                    job.recorded_end,
                    job.recorded_end,
                    SimDuration::ZERO,
                );
                let outcome = Self::finish(job, &ghost, self.sim.system.tick);
                if self.sim.track_accounts {
                    self.accounts.record(&outcome);
                }
                self.outcomes.push(outcome);
                self.next_pending += 1;
                continue;
            }
            self.queue.push(QueuedJob {
                id: job.id,
                account: job.account,
                submit: job.submit,
                nodes: job.nodes_requested,
                estimate: job.estimate(),
                priority: job.priority,
                ml_score: job.ml_score,
                recorded_start: job.recorded_start,
                recorded_nodes: job.recorded_nodes.clone(),
            });
            self.next_pending += 1;
        }
    }

    /// Step 3 — schedule: let the backend place jobs. Returns how many
    /// jobs were placed (the event core's skip condition).
    fn schedule(&mut self, now: SimTime) -> Result<usize> {
        if self.queue.is_empty() {
            return Ok(0);
        }
        let accounts = match self.sim.scheduler {
            // Experimental runs rank by the collection run's table, never
            // by the one this run accumulates.
            SchedulerSelect::Experimental => self.sim.accounts_in.as_ref(),
            _ => self.sim.track_accounts.then_some(&self.accounts),
        };
        let ctx = SchedContext {
            running: &self.running,
            accounts,
        };
        // The placement buffer is owned by the engine and reused across
        // calls, so a scheduler invocation allocates no list of its own.
        let mut placements = std::mem::take(&mut self.placements);
        placements.clear();
        self.scheduler
            .schedule(now, &mut self.queue, &mut self.rm, &ctx, &mut placements)?;
        let placed = placements.len();
        let replaying = self.sim.policy == sraps_sched::PolicyKind::Replay;
        for p in placements.drain(..) {
            let idx = self.job_index[&p.job];
            let job = &self.jobs[idx];
            // Replay anchors to the recorded timeline: placement may land
            // up to one tick late (quantization), but the job still ends at
            // its recorded end and samples telemetry on the recorded
            // clock — otherwise occupancy drifts and recorded placements
            // start colliding.
            let (actual_end, offset) = if replaying {
                (job.recorded_end.max(now), now - job.recorded_start)
            } else {
                (now + job.duration(), SimDuration::ZERO)
            };
            let est_end = now + job.estimate();
            self.activate(Active::new(
                p.job, idx, p.nodes, now, actual_end, est_end, offset,
            ));
        }
        self.placements = placements;
        Ok(placed)
    }

    /// Step 4 for the tick core — the paper's loop, one tick at a time:
    /// sample every active job's telemetry at this instant, sum busy
    /// power in active order, advance power/cooling, record histories.
    /// This is the reference implementation the parity suite validates
    /// the event core against; [`Engine::advance_physics`] produces
    /// bit-identical output because constant traces sample to the same
    /// value at every offset and all accumulation orders match.
    fn tick_physics(&mut self, now: SimTime) {
        let dt = self.sim.system.tick;
        let dt_hours = dt.as_hours_f64();
        let spec = &self.sim.system.node_power;

        let mut busy = 0.0;
        let jobs = &self.jobs;
        for a in &mut self.active {
            let tel = &jobs[a.job].telemetry;
            let offset = (now - a.start) + a.telemetry_offset;
            let node_w = node_power_from_telemetry(spec, tel, offset);
            let n = a.nodes.len() as f64;
            busy += node_w * n;
            if let Profile::Traced = a.profile {
                a.energy_kwh += node_w / 1000.0 * n * dt_hours;
                a.node_power_sum_kw += node_w / 1000.0;
                a.cpu_util_sum += tel.cpu_util_at(offset) as f64;
                a.gpu_util_sum += tel.gpu_util_at(offset) as f64;
            }
            a.ticks += 1;
        }

        let sample = self.power_model.sample(busy, self.rm.free_count());
        if let Some(plant) = &mut self.cooling {
            let reading = match &self.sim.wetbulb_trace {
                Some(trace) => {
                    let ambient = trace.sample(now - self.sim_start) as f64;
                    plant.step_at_ambient(dt, sample.it_power_kw, sample.total_kw, ambient)
                }
                None => plant.step(dt, sample.it_power_kw, sample.total_kw),
            };
            self.cooling_hist.push(reading);
        }
        self.power_hist.push(sample);
        self.util_hist.push(self.rm.utilization());
        self.queue_hist.push(self.queue.len());
        self.queue_demand_hist.push(self.queue.demand_nodes());
    }

    /// Step 4 for the event core — physics batched across a span:
    /// advance the physical models and record histories for `ticks`
    /// consecutive tick instants starting at `from`.
    ///
    /// Between events the active set, occupancy, and queue are all
    /// constant. Constant-profile jobs (summary datasets) are already
    /// folded into `const_busy_w`, so the common idle span costs O(1)
    /// per tick: replicate one power sample and the constant history
    /// values. Traced jobs walk their overlapping trace *segments* once
    /// per span (job loop outside the tick loop): each segment's metrics
    /// are sampled once and its per-tick increments applied across the
    /// segment's tick range. Every floating-point operation happens with
    /// the same inputs and in the same order as the one-tick-at-a-time
    /// loop, keeping histories bit-identical across engine cores.
    fn advance_physics(&mut self, from: SimTime, ticks: usize) {
        let dt = self.sim.system.tick;
        let dt_secs = dt.as_secs();
        let dt_hours = dt.as_hours_f64();
        let spec = &self.sim.system.node_power;

        let free = self.rm.free_count();
        let util = self.rm.utilization();
        let qlen = self.queue.len();
        let qdemand = self.queue.demand_nodes();
        // (`times` is filled once at the end of the run: the tick grid
        // is fully determined by the window, not by the simulation.)
        // Constant-over-the-span series fill via resize (memset-grade).
        self.util_hist.resize(self.util_hist.len() + ticks, util);
        self.queue_hist.resize(self.queue_hist.len() + ticks, qlen);
        self.queue_demand_hist
            .resize(self.queue_demand_hist.len() + ticks, qdemand);

        if self.traced_active == 0 {
            // Only constant-profile jobs on the machine: every tick of
            // the span sees the same busy sum (summed in active order,
            // exactly as the one-tick loop would), so one (pure) power
            // sample serves the whole span.
            let mut busy = 0.0;
            for a in &mut self.active {
                if let Profile::Constant { busy_w, .. } = a.profile {
                    busy += busy_w;
                }
                a.ticks += ticks as u64;
            }
            let sample = self.power_model.sample(busy, free);
            self.power_hist
                .resize(self.power_hist.len() + ticks, sample);
            if let Some(plant) = &mut self.cooling {
                // The plant integrates state; it still steps per tick.
                match &self.sim.wetbulb_trace {
                    Some(trace) => {
                        for k in 0..ticks {
                            let now = from + SimDuration::seconds(dt_secs * k as i64);
                            let ambient = trace.sample(now - self.sim_start) as f64;
                            self.cooling_hist.push(plant.step_at_ambient(
                                dt,
                                sample.it_power_kw,
                                sample.total_kw,
                                ambient,
                            ));
                        }
                    }
                    None => {
                        for _ in 0..ticks {
                            self.cooling_hist.push(plant.step(
                                dt,
                                sample.it_power_kw,
                                sample.total_kw,
                            ));
                        }
                    }
                }
            }
            return;
        }

        // Traced jobs present: walk each job's overlapping trace segments
        // once per span (traces are piecewise-constant between samples),
        // job-by-job in active order so the per-tick sums match the
        // one-tick loop exactly. Per segment the three metrics are read
        // once and the per-tick increments hoisted; the increments are
        // then applied per tick (repeated addition, not a closed form) so
        // every accumulator sees the same value sequence as the one-tick
        // loop — bit-identical histories *and* outcomes.
        let mut span_busy = std::mem::take(&mut self.span_busy);
        span_busy.clear();
        span_busy.resize(ticks, 0.0);
        let jobs = &self.jobs;
        for a in &mut self.active {
            match a.profile {
                Profile::Constant { busy_w, .. } => {
                    for b in span_busy.iter_mut() {
                        *b += busy_w;
                    }
                }
                Profile::Traced => {
                    let tel = &jobs[a.job].telemetry;
                    let n = a.nodes.len() as f64;
                    let base = (from - a.start) + a.telemetry_offset;
                    if ticks <= 3 {
                        // Short span (events a tick or two apart): the
                        // reference per-tick sampling is cheaper than
                        // setting up segment cursors it would barely use.
                        for (k, b) in span_busy.iter_mut().enumerate() {
                            let offset = base + SimDuration::seconds(dt_secs * k as i64);
                            let node_w = node_power_from_telemetry(spec, tel, offset);
                            *b += node_w * n;
                            a.energy_kwh += node_w / 1000.0 * n * dt_hours;
                            a.node_power_sum_kw += node_w / 1000.0;
                            a.cpu_util_sum += tel.cpu_util_at(offset) as f64;
                            a.gpu_util_sum += tel.gpu_util_at(offset) as f64;
                        }
                        a.ticks += ticks as u64;
                        continue;
                    }
                    // Joint walk over the (up to) three recorded metrics;
                    // a missing metric is one constant-0 run, exactly
                    // like the `*_at` accessors report 0.
                    let has_power = tel.node_power_w.is_some();
                    let mut power = MetricCursor::new(tel.node_power_w.as_ref(), base, dt, ticks);
                    let mut cpu = MetricCursor::new(tel.cpu_util.as_ref(), base, dt, ticks);
                    let mut gpu = MetricCursor::new(tel.gpu_util.as_ref(), base, dt, ticks);
                    let mut k = 0;
                    while k < ticks {
                        let (prun, pe) = power.run_at(k, ticks);
                        let (crun, ce) = cpu.run_at(k, ticks);
                        let (grun, ge) = gpu.run_at(k, ticks);
                        let end = pe.min(ce).min(ge);
                        if let (MetricRun::Hold(pw), MetricRun::Hold(cu), MetricRun::Hold(gu)) =
                            (prun, crun, grun)
                        {
                            // Constant across the run: hoist the per-tick
                            // increments once and apply them `end − k`
                            // times (repeated addition, not a closed
                            // form, so accumulators stay bit-identical
                            // to the one-tick loop).
                            let node_w = if has_power {
                                pw as f64
                            } else {
                                node_power_w(spec, cu as f64, gu as f64)
                            };
                            let busy_add = node_w * n;
                            let energy_add = node_w / 1000.0 * n * dt_hours;
                            let kw_add = node_w / 1000.0;
                            let cpu_add = cu as f64;
                            let gpu_add = gu as f64;
                            for b in &mut span_busy[k..end] {
                                *b += busy_add;
                            }
                            for _ in k..end {
                                a.energy_kwh += energy_add;
                                a.node_power_sum_kw += kw_add;
                                a.cpu_util_sum += cpu_add;
                                a.gpu_util_sum += gpu_add;
                            }
                        } else {
                            // At least one metric streams sample-per-tick:
                            // walk the slices directly — same arithmetic,
                            // same order as the one-tick loop, minus its
                            // per-tick sampling (divide/clamp/branch).
                            for (j, b) in span_busy[k..end].iter_mut().enumerate() {
                                let cu = crun.at(j) as f64;
                                let gu = grun.at(j) as f64;
                                // `node_power_from_telemetry`'s rule:
                                // recorded power wins, else the
                                // utilization→power model.
                                let node_w = if has_power {
                                    prun.at(j) as f64
                                } else {
                                    node_power_w(spec, cu, gu)
                                };
                                *b += node_w * n;
                                a.energy_kwh += node_w / 1000.0 * n * dt_hours;
                                a.node_power_sum_kw += node_w / 1000.0;
                                a.cpu_util_sum += cu;
                                a.gpu_util_sum += gu;
                            }
                        }
                        k = end;
                    }
                }
            }
            a.ticks += ticks as u64;
        }

        for (k, &busy) in span_busy.iter().enumerate() {
            let sample = self.power_model.sample(busy, free);
            if let Some(plant) = &mut self.cooling {
                let now = from + SimDuration::seconds(dt_secs * k as i64);
                let reading = match &self.sim.wetbulb_trace {
                    Some(trace) => {
                        let ambient = trace.sample(now - self.sim_start) as f64;
                        plant.step_at_ambient(dt, sample.it_power_kw, sample.total_kw, ambient)
                    }
                    None => plant.step(dt, sample.it_power_kw, sample.total_kw),
                };
                self.cooling_hist.push(reading);
            }
            self.power_hist.push(sample);
        }
        self.span_busy = span_busy;
    }

    /// The event horizon: earliest future instant at which steps 1–3 can
    /// do anything — the next pending submission, the earliest completion
    /// in the heap, or the next outage edge; `sim_end` bounds it. With a
    /// non-empty queue, [`Engine::step_control`] additionally bounds it by
    /// the scheduler's internal deadline
    /// ([`SchedulerBackend::next_decision_time`]) and skips only when
    /// that deadline is absent or in the future.
    ///
    /// Outage edges are pre-sorted at construction; since `now` is
    /// monotone across calls, a cursor over that list replaces the
    /// per-call scan of every configured outage (outage state only
    /// toggles at edges, so the next state change is exactly the first
    /// edge strictly after `now`).
    fn next_event_time(&mut self, now: SimTime) -> SimTime {
        let mut e = self.sim_end;
        if let Some(&idx) = self.pending.get(self.next_pending) {
            e = e.min(self.jobs[idx].submit);
        }
        if let Some(&Reverse((end, _))) = self.completions.peek() {
            e = e.min(end);
        }
        while self.outage_cursor < self.outage_edges.len()
            && self.outage_edges[self.outage_cursor] <= now
        {
            self.outage_cursor += 1;
        }
        if let Some(&edge) = self.outage_edges.get(self.outage_cursor) {
            e = e.min(edge);
        }
        e
    }

    /// Tick instants the run loop visits: `sim_start + k·dt` strictly
    /// before `sim_end`.
    fn ticks_total(&self) -> i64 {
        let dt_secs = self.sim.system.tick.as_secs();
        ((self.sim_end - self.sim_start).as_secs() + dt_secs - 1) / dt_secs
    }

    /// One control step at `now` — loop steps 1–3 plus the skip
    /// decision: completions, outage edges, eligibility, the scheduler
    /// invocation, and (in event mode) the event-horizon computation.
    /// Returns the decided span: how many ticks of physics are due
    /// before control must run again. Tick mode always decides 1. The
    /// caller owns advancing physics across the returned span.
    fn step_control(&mut self, now: SimTime, remaining: i64) -> Result<i64> {
        {
            let _s = sraps_obs::span(ObsPhase::EngineEvents);
            self.complete_jobs(now);
            self.apply_outages(now);
            self.enqueue_eligible(now);
        }
        let placed = {
            let _s = sraps_obs::span(ObsPhase::EngineScheduler);
            self.schedule(now)?
        };
        if self.sim.engine != EngineMode::Event {
            return Ok(1);
        }
        // Skip to the event horizon when steps 1–3 are provably
        // no-ops until then: always with an empty queue, and with a
        // non-empty one when this call placed nothing (placements can
        // shift backfill reservations, so they force a one-tick step)
        // and the scheduler's internal deadline, if it reports one,
        // lies in the future — it then bounds the horizon.
        let dt_secs = self.sim.system.tick.as_secs();
        let span = {
            let _s = sraps_obs::span(ObsPhase::EngineHorizon);
            let mut deadline: Option<SimTime> = None;
            let can_skip = if self.queue.is_empty() {
                true
            } else if placed > 0 {
                false
            } else {
                match self.scheduler.next_decision_time(now) {
                    None => true,
                    Some(t) if t > now => {
                        deadline = Some(t);
                        true
                    }
                    Some(_) => false,
                }
            };
            if can_skip {
                let mut horizon = self.next_event_time(now);
                if let Some(t) = deadline {
                    horizon = horizon.min(t);
                }
                let raw = (horizon - now).as_secs();
                ((raw + dt_secs - 1) / dt_secs).clamp(1, remaining)
            } else {
                1
            }
        };
        sraps_obs::add(Counter::EngineTicksSkipped, (span - 1) as u64);
        Ok(span)
    }

    /// Run to the end of the window and assemble the output. Works both
    /// on fresh engines and on engines resumed mid-run (the cursor picks
    /// up wherever the last [`Engine::run_until`] or snapshot left it).
    pub fn run(mut self) -> Result<SimOutput> {
        // The one timing pathway: the stopwatch always measures (its value
        // is `SimOutput::wall_time`); the capture snapshots the thread's
        // obs accumulators so the output carries this run's profile delta.
        let run_capture = sraps_obs::capture();
        let run_watch = sraps_obs::stopwatch(ObsPhase::EngineRun);
        self.run_until(self.sim_end)?;
        self.assemble(run_watch, run_capture)
    }

    /// Window start of this engine's run.
    pub fn sim_start(&self) -> SimTime {
        self.sim_start
    }

    /// The engine's current instant — a tick boundary, advanced by
    /// [`Engine::run_until`] (the window start on a fresh engine).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advance the simulation up to the first tick boundary at or past
    /// `until` (bounded by the window end), then pause. The engine stays
    /// usable: call again with a later target, [`Engine::snapshot`] the
    /// state, or hand the engine to [`Engine::run`] to finish.
    ///
    /// Pausing is invisible to the results: physics spans integrate tick
    /// by tick in tick order no matter how they are cut (the discipline
    /// the resume-parity suite pins), and a span cut mid-way is remembered
    /// in the cursor so control is not re-run at resume.
    pub fn run_until(&mut self, until: SimTime) -> Result<()> {
        let dt_secs = self.sim.system.tick.as_secs();
        let event_mode = self.sim.engine == EngineMode::Event;
        // The loop visits tick instants sim_start + k·dt strictly before
        // sim_end; `remaining` tracks the count instead of re-dividing.
        while self.remaining > 0 && self.now < until {
            if self.span_left == 0 {
                self.span_left = self.step_control(self.now, self.remaining)?;
            }
            // Ceiling-align the target to the tick grid so an unaligned
            // `until` cannot produce a zero-tick chunk and stall.
            let want = (((until - self.now).as_secs() + dt_secs - 1) / dt_secs).max(1);
            let chunk = if event_mode {
                self.span_left.min(want)
            } else {
                1
            };
            {
                let _s = sraps_obs::span(ObsPhase::EnginePhysics);
                if event_mode {
                    self.advance_physics(self.now, chunk as usize);
                } else {
                    self.tick_physics(self.now);
                }
            }
            self.now += SimDuration::seconds(dt_secs * chunk);
            self.remaining -= chunk;
            self.span_left -= chunk;
        }
        Ok(())
    }

    /// Capture the engine's full mid-run state at the current tick
    /// boundary. Fails when the scheduler backend cannot serialize its
    /// state ([`SchedulerBackend::snapshot_state`]).
    pub fn snapshot(&self) -> Result<EngineSnapshot> {
        Ok(EngineSnapshot {
            schema: ENGINE_SCHEMA_VERSION,
            jobs_len: self.jobs.len(),
            now: self.now,
            remaining: self.remaining,
            span_left: self.span_left,
            next_pending: self.next_pending,
            active: self
                .active
                .iter()
                .map(|a| ActiveSnapshot {
                    id: a.id,
                    job: a.job,
                    nodes: a.nodes.clone(),
                    start: a.start,
                    actual_end: a.actual_end,
                    est_end: a.est_end,
                    telemetry_offset: a.telemetry_offset,
                    energy_kwh: a.energy_kwh,
                    node_power_sum_kw: a.node_power_sum_kw,
                    cpu_util_sum: a.cpu_util_sum,
                    gpu_util_sum: a.gpu_util_sum,
                    ticks: a.ticks,
                })
                .collect(),
            queue: self.queue.clone(),
            rm: self.rm.clone(),
            scheduler: self.scheduler.snapshot_state()?,
            outage_active: self.outage_active.clone(),
            outage_cursor: self.outage_cursor,
            outcomes: self.outcomes.clone(),
            accounts: self.accounts.clone(),
            power_hist: self.power_hist.clone(),
            cooling_hist: self.cooling_hist.clone(),
            util_hist: self.util_hist.clone(),
            queue_hist: self.queue_hist.clone(),
            queue_demand_hist: self.queue_demand_hist.clone(),
            cooling_loop_temp_c: self.cooling.as_ref().map(|p| p.loop_temp_c()),
        })
    }

    /// Overwrite a [`Engine::bare`] engine's state with a snapshot's.
    /// Validates the schema, the window job set, and the config before
    /// touching anything, so a stale or mismatched snapshot is an
    /// [`SrapsError::Snapshot`] rather than a wrong resume.
    fn apply_snapshot(&mut self, snap: &EngineSnapshot) -> Result<()> {
        if snap.schema != ENGINE_SCHEMA_VERSION {
            return Err(SrapsError::Snapshot(format!(
                "snapshot schema v{} does not match engine schema v{ENGINE_SCHEMA_VERSION}",
                snap.schema
            )));
        }
        if snap.jobs_len != self.jobs.len() {
            return Err(SrapsError::Snapshot(format!(
                "snapshot covers {} jobs, window has {}",
                snap.jobs_len,
                self.jobs.len()
            )));
        }
        if snap.rm.total_nodes() != self.sim.system.total_nodes {
            return Err(SrapsError::Snapshot(format!(
                "snapshot machine has {} nodes, config has {}",
                snap.rm.total_nodes(),
                self.sim.system.total_nodes
            )));
        }
        if snap.outage_active.len() != self.sim.outages.len() {
            return Err(SrapsError::Snapshot(format!(
                "snapshot tracks {} outages, config has {}",
                snap.outage_active.len(),
                self.sim.outages.len()
            )));
        }
        if snap.cooling_loop_temp_c.is_some() != self.cooling.is_some() {
            return Err(SrapsError::Snapshot(
                "snapshot and config disagree on cooling".into(),
            ));
        }
        if snap.next_pending > self.pending.len() {
            return Err(SrapsError::Snapshot(format!(
                "snapshot pending cursor {} out of range ({} pending jobs)",
                snap.next_pending,
                self.pending.len()
            )));
        }
        for a in &snap.active {
            if self.jobs.get(a.job).map(|j| j.id) != Some(a.id) {
                return Err(SrapsError::Snapshot(format!(
                    "snapshot active job {} does not match window index {}",
                    a.id, a.job
                )));
            }
        }
        self.scheduler.restore_state(&snap.scheduler)?;

        self.now = snap.now;
        self.remaining = snap.remaining;
        self.span_left = snap.span_left;
        self.next_pending = snap.next_pending;
        self.queue = snap.queue.clone();
        self.rm = snap.rm.clone();
        self.outage_active.clone_from(&snap.outage_active);
        self.outage_cursor = snap.outage_cursor.min(self.outage_edges.len());
        self.outcomes = snap.outcomes.clone();
        self.accounts = snap.accounts.clone();
        self.power_hist = snap.power_hist.clone();
        self.cooling_hist = snap.cooling_hist.clone();
        self.util_hist = snap.util_hist.clone();
        self.queue_hist = snap.queue_hist.clone();
        self.queue_demand_hist = snap.queue_demand_hist.clone();
        if let (Some(plant), Some(temp)) = (&mut self.cooling, snap.cooling_loop_temp_c) {
            plant.set_loop_temp_c(temp);
        }
        // Rebuild the derived structures: profiles reclassify from the
        // telemetry (deterministic), the completion heap's pop order is
        // fully determined by its total element order no matter the
        // insertion sequence, and the running views mirror `active`.
        for s in &snap.active {
            let mut a = Active::new(
                s.id,
                s.job,
                s.nodes.clone(),
                s.start,
                s.actual_end,
                s.est_end,
                s.telemetry_offset,
            );
            a.energy_kwh = s.energy_kwh;
            a.node_power_sum_kw = s.node_power_sum_kw;
            a.cpu_util_sum = s.cpu_util_sum;
            a.gpu_util_sum = s.gpu_util_sum;
            a.ticks = s.ticks;
            self.classify(&mut a);
            self.attach(a);
        }
        Ok(())
    }

    /// Post-loop assembly for [`Engine::run`]: final completion sweep,
    /// history time grid, facility stats, and the scheduler-stats fold.
    /// The run's stopwatch and capture close after the finalize-span
    /// work, so the output's wall time and profile cover all of it.
    fn assemble(
        mut self,
        run_watch: sraps_obs::Stopwatch,
        run_capture: sraps_obs::Capture,
    ) -> Result<SimOutput> {
        let dt = self.sim.system.tick;
        let dt_secs = dt.as_secs();
        let finalize = sraps_obs::span(ObsPhase::EngineFinalize);
        // Final sweep so jobs ending exactly at the boundary complete.
        self.complete_jobs(self.now);
        // The tick grid the histories were sampled on.
        let total_ticks = self.power_hist.len();
        self.times.extend(
            (0..total_ticks as i64).map(|k| self.sim_start + SimDuration::seconds(dt_secs * k)),
        );
        // Jobs still on the machine were cut off by the window: surface
        // them instead of letting them vanish without an outcome.
        let jobs_censored = self.active.len() as u64;

        let span = self.sim_end - self.sim_start;
        let mut stats = SystemStats::from_outcomes(&self.outcomes, self.sim.system.total_nodes);
        stats.jobs_censored = jobs_censored;
        let n = self.power_hist.len().max(1) as f64;
        let avg_total = self.power_hist.iter().map(|p| p.total_kw).sum::<f64>() / n;
        let avg_loss = self.power_hist.iter().map(|p| p.loss_kw).sum::<f64>() / n;
        let energy_mwh = self
            .power_hist
            .iter()
            .map(|p| p.total_kw * dt.as_hours_f64() / 1000.0)
            .sum::<f64>();
        let avg_util = self.util_hist.iter().sum::<f64>() / self.util_hist.len().max(1) as f64;
        stats.set_facility(span, avg_total, avg_loss, energy_mwh, avg_util);

        let label = match self.sim.policy {
            sraps_sched::PolicyKind::Replay => "replay".to_string(),
            p => format!("{}-{}", p.name(), self.sim.backfill.name()),
        };
        // Fold the scheduler's own lifetime counters into the obs view
        // exactly once per run, so `--profile` shows invocations and
        // placements next to phase timings without double-counting.
        let sched_stats = self.scheduler.stats();
        sraps_obs::add(Counter::SchedInvocations, sched_stats.invocations);
        sraps_obs::add(Counter::SchedPlacements, sched_stats.placements);
        sraps_obs::add(Counter::SchedRecomputations, sched_stats.recomputations);
        sraps_obs::add(Counter::SchedBackfilled, sched_stats.backfilled);
        sraps_obs::add(
            Counter::SchedPlacementFallbacks,
            sched_stats.placement_fallbacks,
        );
        drop(finalize);
        let wall_time = run_watch.finish();
        let profile = run_capture.finish();
        Ok(SimOutput {
            label,
            scheduler_name: match self.sim.scheduler {
                SchedulerSelect::Experimental => self.sim.scheduler.name(),
                _ => self.scheduler.name(),
            },
            times: self.times,
            power: self.power_hist,
            cooling: self.cooling_hist,
            utilization: self.util_hist,
            queue_depth: self.queue_hist,
            queue_demand_nodes: self.queue_demand_hist,
            outcomes: self.outcomes,
            stats,
            accounts: self.accounts,
            sched_stats,
            wall_time,
            sim_span: span,
            profile,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_data::{adastra, marconi100, scenario, WorkloadSpec};
    use sraps_systems::presets;

    fn small_adastra() -> (sraps_systems::SystemConfig, Dataset) {
        let cfg = presets::adastra();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.7, 5);
        spec.span = SimDuration::hours(4);
        let ds = adastra::synthesize(&cfg, &spec);
        (cfg, ds)
    }

    /// Resume `snap` under `sim` over the window `sim` selects of `ds`.
    fn resume(sim: SimConfig, ds: &Dataset, snap: &EngineSnapshot) -> Result<Engine> {
        let window = SimWindow::new(&sim, ds)?;
        Engine::resume(sim, &window, snap)
    }

    #[test]
    fn replay_and_reschedule_complete_jobs() {
        let (cfg, ds) = small_adastra();
        for (policy, backfill) in [("replay", "none"), ("fcfs", "easy"), ("sjf", "firstfit")] {
            let sim = SimConfig::new(cfg.clone(), policy, backfill).unwrap();
            let out = Engine::new(sim, &ds).unwrap().run().unwrap();
            assert!(
                out.stats.jobs_completed > 0,
                "{policy}-{backfill} completed nothing"
            );
            assert!(out.mean_power_kw() > cfg.idle_it_power_kw());
        }
    }

    #[test]
    fn replay_reproduces_recorded_starts() {
        let (cfg, ds) = small_adastra();
        let sim = SimConfig::replay(cfg.clone());
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        let tick = cfg.tick.as_secs();
        for o in &out.outcomes {
            let recorded = ds.jobs().iter().find(|j| j.id == o.id).unwrap();
            let delta = (o.start - recorded.recorded_start).as_secs().abs();
            assert!(
                delta <= tick,
                "job {} started {}s off its recorded start",
                o.id,
                delta
            );
        }
    }

    #[test]
    fn reschedule_never_starts_before_submit() {
        let (cfg, ds) = small_adastra();
        let sim = SimConfig::new(cfg, "fcfs", "easy").unwrap();
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        for o in &out.outcomes {
            assert!(o.start >= o.submit, "job {} ran before submission", o.id);
        }
    }

    #[test]
    fn windowed_run_prepopulates() {
        let cfg = presets::marconi100();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.9, 6);
        spec.span = SimDuration::hours(8);
        let ds = marconi100::synthesize(&cfg, &spec);
        // Start the window mid-dataset: jobs running at that instant must
        // occupy nodes from the first tick.
        let start = SimTime::seconds(4 * 3600);
        let sim = SimConfig::replay(cfg).with_window(start, start + SimDuration::hours(2));
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert!(
            out.utilization[0] > 0.0,
            "prepopulation must occupy nodes at t0"
        );
    }

    #[test]
    fn deterministic_runs() {
        let (cfg, ds) = small_adastra();
        let run = || {
            let sim = SimConfig::new(cfg.clone(), "fcfs", "easy").unwrap();
            Engine::new(sim, &ds).unwrap().run().unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats.jobs_completed, b.stats.jobs_completed);
        assert_eq!(a.power.len(), b.power.len());
        for (x, y) in a.power.iter().zip(&b.power) {
            assert_eq!(x.total_kw, y.total_kw);
        }
    }

    #[test]
    fn tick_and_event_engines_agree_on_a_small_run() {
        let (cfg, ds) = small_adastra();
        let run = |mode: EngineMode| {
            let sim = SimConfig::new(cfg.clone(), "fcfs", "easy")
                .unwrap()
                .with_engine(mode);
            Engine::new(sim, &ds).unwrap().run().unwrap()
        };
        let tick = run(EngineMode::Tick);
        let event = run(EngineMode::Event);
        assert_eq!(tick.times, event.times);
        assert_eq!(tick.utilization, event.utilization);
        assert_eq!(tick.queue_depth, event.queue_depth);
        assert_eq!(tick.outcomes, event.outcomes);
        for (x, y) in tick.power.iter().zip(&event.power) {
            assert_eq!(x.total_kw, y.total_kw);
        }
    }

    #[test]
    fn event_engine_skips_idle_spans_but_keeps_tick_histories() {
        // A sparse workload with long gaps: the event core must still
        // emit one history sample per telemetry tick.
        let cfg = presets::adastra();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.05, 9);
        spec.span = SimDuration::hours(12);
        let ds = adastra::synthesize(&cfg, &spec);
        let sim = SimConfig::new(cfg.clone(), "fcfs", "none").unwrap();
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        let expected = ((ds.capture_end - ds.capture_start).as_secs() + cfg.tick.as_secs() - 1)
            / cfg.tick.as_secs();
        assert_eq!(out.times.len(), expected as usize);
        for w in out.times.windows(2) {
            assert_eq!((w[1] - w[0]).as_secs(), cfg.tick.as_secs());
        }
    }

    #[test]
    fn censored_jobs_are_counted_not_dropped() {
        // Cut the window mid-workload: anything still running at the end
        // must be reported as censored.
        let (cfg, ds) = small_adastra();
        let end = ds.capture_start + SimDuration::hours(1);
        let sim = SimConfig::replay(cfg).with_window(ds.capture_start, end);
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert!(
            out.stats.jobs_censored > 0,
            "a 1h cut of a 4h workload must censor something"
        );
        // Censored jobs never produce outcomes.
        let in_window = ds
            .jobs()
            .iter()
            .filter(|j| j.recorded_start < end && j.recorded_end > ds.capture_start)
            .count() as u64;
        assert!(out.stats.jobs_completed + out.stats.jobs_censored <= in_window);
    }

    #[test]
    fn energy_accounting_consistent() {
        let (cfg, ds) = small_adastra();
        let sim = SimConfig::new(cfg, "fcfs", "firstfit").unwrap();
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        // Facility energy must exceed the jobs' energy (idle + losses).
        let job_energy_mwh: f64 = out.outcomes.iter().map(|o| o.energy_kwh).sum::<f64>() / 1000.0;
        assert!(out.stats.total_energy_mwh > job_energy_mwh * 0.9);
    }

    #[test]
    fn backfill_improves_utilization_under_load() {
        let s = scenario::fig4(3);
        let run = |policy: &str, backfill: &str| {
            let sim = SimConfig::new(s.config.clone(), policy, backfill)
                .unwrap()
                .with_window(s.sim_start, s.sim_end);
            Engine::new(sim, &s.dataset).unwrap().run().unwrap()
        };
        let nobf = run("fcfs", "none");
        let easy = run("fcfs", "easy");
        assert!(
            easy.mean_utilization() >= nobf.mean_utilization() - 0.02,
            "easy {} vs nobf {}",
            easy.mean_utilization(),
            nobf.mean_utilization()
        );
    }

    #[test]
    fn fastsim_backend_runs_end_to_end() {
        let (cfg, ds) = small_adastra();
        let sim = SimConfig::new(cfg, "fcfs", "easy")
            .unwrap()
            .with_scheduler(SchedulerSelect::FastSim);
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert_eq!(out.scheduler_name, "fastsim");
        assert!(out.stats.jobs_completed > 0);
    }

    #[test]
    fn scheduleflow_backend_runs_on_small_synthetic() {
        let cfg = presets::adastra();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.3, 8);
        spec.span = SimDuration::hours(1);
        let ds = adastra::synthesize(&cfg, &spec);
        let sim = SimConfig::new(cfg, "fcfs", "none")
            .unwrap()
            .with_scheduler(SchedulerSelect::ScheduleFlow);
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert!(out.sched_stats.recomputations > out.stats.jobs_completed);
    }

    #[test]
    fn cooling_histories_only_when_enabled() {
        let (cfg, ds) = small_adastra();
        let without = Engine::new(SimConfig::replay(cfg.clone()), &ds)
            .unwrap()
            .run()
            .unwrap();
        assert!(without.cooling.is_empty());
        let with = Engine::new(SimConfig::replay(cfg).with_cooling(), &ds)
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(with.cooling.len(), with.power.len());
        assert!(with.cooling.iter().all(|c| c.pue >= 1.0));
    }

    #[test]
    fn accounts_collected_when_enabled() {
        let (cfg, ds) = small_adastra();
        let sim = SimConfig::replay(cfg).with_accounts();
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert!(!out.accounts.is_empty());
        let total_jobs: u64 = out.accounts.stats.values().map(|s| s.jobs_completed).sum();
        assert_eq!(total_jobs, out.stats.jobs_completed);
    }

    #[test]
    fn power_cap_clips_job_power() {
        let (cfg, ds) = small_adastra();
        let uncapped = Engine::new(
            SimConfig::new(cfg.clone(), "fcfs", "firstfit").unwrap(),
            &ds,
        )
        .unwrap()
        .run()
        .unwrap();
        // Cap well below the uncapped peak *job* power (total − idle floor).
        let idle_kw = cfg.idle_it_power_kw();
        let peak_job_kw = uncapped
            .power
            .iter()
            .map(|p| p.it_power_kw)
            .fold(0.0, f64::max)
            - idle_kw;
        let cap = peak_job_kw * 0.6;
        let capped = Engine::new(
            SimConfig::new(cfg, "fcfs", "firstfit")
                .unwrap()
                .with_power_cap(cap),
            &ds,
        )
        .unwrap()
        .run()
        .unwrap();
        let capped_peak_job = capped
            .power
            .iter()
            .map(|p| p.it_power_kw)
            .fold(0.0, f64::max)
            - idle_kw;
        // Estimates are trace means while instantaneous draw fluctuates, so
        // allow headroom — but the cap must clearly bind.
        assert!(
            capped_peak_job < peak_job_kw * 0.85,
            "cap {cap:.0} kW did not bind: peak {capped_peak_job:.0} vs {peak_job_kw:.0}"
        );
        assert!(
            capped.stats.avg_wait_secs() >= uncapped.stats.avg_wait_secs(),
            "capping cannot reduce waits"
        );
    }

    #[test]
    fn outages_shrink_capacity_and_lift() {
        let (cfg, ds) = small_adastra();
        let half = cfg.total_nodes / 2;
        let sim = SimConfig::new(cfg.clone(), "fcfs", "firstfit")
            .unwrap()
            .with_outages(vec![crate::config::Outage {
                nodes: sraps_types::NodeSet::contiguous(0, half),
                from: SimTime::seconds(3600),
                until: SimTime::seconds(2 * 3600),
            }]);
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert!(out.stats.jobs_completed > 0);
        // During the outage, occupancy can never exceed the surviving half.
        let tick = cfg.tick.as_secs();
        for (t, u) in out.times.iter().zip(&out.utilization) {
            let s = t.as_secs();
            if (3600 + tick..2 * 3600 - tick).contains(&s) {
                // utilization is busy/(total-down), can be 1.0; but busy
                // nodes must be ≤ total − down ⇒ busy/total ≤ 0.5.
                let busy_frac = u * ((cfg.total_nodes - half) as f64 / cfg.total_nodes as f64);
                assert!(
                    busy_frac <= 0.51,
                    "busy fraction {busy_frac:.2} at t={s} exceeds surviving capacity"
                );
            }
        }
    }

    #[test]
    fn outage_validation_rejects_empty_windows() {
        let (cfg, _) = small_adastra();
        let sim = SimConfig::replay(cfg).with_outages(vec![crate::config::Outage {
            nodes: sraps_types::NodeSet::contiguous(0, 4),
            from: SimTime::seconds(100),
            until: SimTime::seconds(100),
        }]);
        assert!(sim.validate().is_err());
    }

    #[test]
    fn weather_trace_drives_cooling_ambient() {
        let (cfg, ds) = small_adastra();
        let hot = sraps_types::Trace::constant(30.0);
        let cool = sraps_types::Trace::constant(10.0);
        let run_with = |trace: sraps_types::Trace| {
            let sim = SimConfig::replay(cfg.clone())
                .with_cooling()
                .with_weather(trace);
            Engine::new(sim, &ds).unwrap().run().unwrap()
        };
        let hot_out = run_with(hot);
        let cool_out = run_with(cool);
        let mean_return = |o: &SimOutput| {
            o.cooling.iter().map(|c| c.tower_return_c).sum::<f64>() / o.cooling.len() as f64
        };
        assert!(
            mean_return(&hot_out) > mean_return(&cool_out) + 5.0,
            "hot ambient must raise return water: {:.1} vs {:.1}",
            mean_return(&hot_out),
            mean_return(&cool_out)
        );
    }

    #[test]
    fn run_until_snapshot_restore_matches_uninterrupted() {
        let (cfg, ds) = small_adastra();
        let sim = || SimConfig::new(cfg.clone(), "fcfs", "easy").unwrap();
        let baseline = Engine::new(sim(), &ds).unwrap().run().unwrap();

        let mut paused = Engine::new(sim(), &ds).unwrap();
        paused
            .run_until(ds.capture_start + SimDuration::hours(2))
            .unwrap();
        let snap = paused.snapshot().unwrap();
        let resumed = resume(sim(), &ds, &snap).unwrap().run().unwrap();

        assert_eq!(baseline.times, resumed.times);
        assert_eq!(baseline.outcomes, resumed.outcomes);
        assert_eq!(baseline.utilization, resumed.utilization);
        assert_eq!(baseline.queue_depth, resumed.queue_depth);
        for (a, b) in baseline.power.iter().zip(&resumed.power) {
            assert_eq!(a.total_kw, b.total_kw);
            assert_eq!(a.loss_kw, b.loss_kw);
        }
        assert_eq!(baseline.sched_stats, resumed.sched_stats);
    }

    #[test]
    fn fork_continues_and_late_cap_binds() {
        let (cfg, ds) = small_adastra();
        let base = SimConfig::new(cfg.clone(), "fcfs", "firstfit").unwrap();
        let mut prefix = Engine::new(base.clone(), &ds).unwrap();
        prefix
            .run_until(ds.capture_start + SimDuration::hours(1))
            .unwrap();
        let snap = prefix.snapshot().unwrap();
        let fork = |sim: SimConfig| resume(sim, &ds, &snap).unwrap().run().unwrap();

        // Fork 1: same config — must finish identically to a straight run.
        let same = fork(base.clone());
        let straight = Engine::new(base.clone(), &ds).unwrap().run().unwrap();
        assert_eq!(straight.outcomes, same.outcomes);
        for (a, b) in straight.power.iter().zip(&same.power) {
            assert_eq!(a.total_kw, b.total_kw);
        }

        // Fork 2: a power cap binding from the forked instant on.
        let idle_kw = cfg.idle_it_power_kw();
        let peak_job_kw = straight
            .power
            .iter()
            .map(|p| p.it_power_kw)
            .fold(0.0, f64::max)
            - idle_kw;
        let capped = fork(
            SimConfig::new(cfg, "fcfs", "firstfit")
                .unwrap()
                .with_power_cap(peak_job_kw * 0.5),
        );
        // The shared prefix is bit-identical; afterwards the cap defers work.
        assert_eq!(
            straight.power[0].total_kw, capped.power[0].total_kw,
            "prefix must be shared"
        );
        assert!(
            capped.stats.avg_wait_secs() >= straight.stats.avg_wait_secs(),
            "capping cannot reduce waits"
        );
    }

    #[test]
    fn stale_snapshot_schema_is_rejected() {
        let (cfg, ds) = small_adastra();
        let sim = SimConfig::new(cfg.clone(), "fcfs", "easy").unwrap();
        let mut e = Engine::new(sim.clone(), &ds).unwrap();
        e.run_until(ds.capture_start + SimDuration::hours(1))
            .unwrap();
        let mut snap = e.snapshot().unwrap();
        snap.schema += 1;
        let err = resume(sim, &ds, &snap).err();
        assert!(matches!(err, Some(SrapsError::Snapshot(_))), "{err:?}");
    }

    #[test]
    fn experimental_runs_rank_by_the_collected_accounts() {
        let cfg = presets::adastra();
        let (half, all) = (cfg.total_nodes / 2, cfg.total_nodes);
        // The collection run found account 1 frugal and account 2 hot.
        let mut collected = Accounts::new(1.0);
        for (account, kw) in [(1, 0.3), (2, 1.8)] {
            collected.record(&JobOutcome {
                id: JobId(0),
                user: sraps_types::UserId(0),
                account: sraps_types::AccountId(account),
                nodes: 8,
                submit: SimTime::ZERO,
                start: SimTime::ZERO,
                end: SimTime::seconds(3600),
                energy_kwh: kw * 8.0,
                avg_node_power_kw: kw,
                avg_cpu_util: 0.5,
                avg_gpu_util: 0.5,
                priority: 0.0,
            });
        }
        let job = |id: u64, account: u32, submit: i64, start: i64, nodes: u32, node_w: f32| {
            sraps_types::job::JobBuilder::new(id)
                .account(account)
                .submit(SimTime::seconds(submit))
                .window(SimTime::seconds(start), SimTime::seconds(start + 3600))
                .walltime(SimDuration::hours(1))
                .nodes(nodes)
                .telemetry(sraps_types::JobTelemetry::from_scalars(
                    0.5,
                    Some(0.5),
                    node_w,
                ))
                .build()
        };
        // In this run account 1 draws 2.5 kW a node and account 2 0.5 kW,
        // so when jobs 1 and 2 end at 1 h the live table ranks account 1
        // the hotter. Jobs 3 (account 2) and 4 (account 1) each want the
        // whole machine, so one of them starts at 1 h and one at 2 h.
        let ds = Dataset::new(
            "adastra",
            vec![
                job(1, 1, 0, 0, half, 2500.0),
                job(2, 2, 0, 0, half, 500.0),
                job(3, 2, 1800, 3600, all, 1000.0),
                job(4, 1, 1800, 7200, all, 1000.0),
            ],
        );
        let first_of_3_and_4 = |scheduler: SchedulerSelect| {
            let sim = SimConfig::new(cfg.clone(), "acct_low_avg_power", "none")
                .unwrap()
                .with_window(SimTime::ZERO, SimTime::seconds(5 * 3600))
                .with_scheduler(scheduler)
                .with_accounts_json(collected.clone());
            let out = Engine::new(sim, &ds).unwrap().run().unwrap();
            let live = |a| out.accounts.get(sraps_types::AccountId(a)).unwrap();
            assert!(live(1).avg_node_power_kw > live(2).avg_node_power_kw);
            let start = |id| {
                out.outcomes
                    .iter()
                    .find(|o| o.id == JobId(id))
                    .unwrap()
                    .start
            };
            assert_ne!(start(3), start(4));
            if start(3) < start(4) {
                3
            } else {
                4
            }
        };
        // The default scheduler ranks by the live table: frugal-now
        // account 2 first. The experimental one keeps the collected
        // ranking: account 1 first.
        assert_eq!(first_of_3_and_4(SchedulerSelect::Default), 3);
        assert_eq!(first_of_3_and_4(SchedulerSelect::Experimental), 4);
    }

    #[test]
    fn ml_policy_needs_a_scored_job_in_the_window() {
        let (cfg, mut ds) = small_adastra();
        let sim = SimConfig::new(cfg, "ml", "firstfit").unwrap();
        let err = Engine::new(sim.clone(), &ds)
            .err()
            .expect("no job is scored");
        assert!(err.to_string().contains("policy 'ml'"), "{err}");
        // One scored job is enough: the others rank as 0, as before.
        ds.edit_jobs(|jobs| jobs[0].ml_score = Some(0.5));
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        assert!(out.stats.jobs_completed > 0);
    }

    #[test]
    fn conservative_backfill_runs_end_to_end() {
        let (cfg, ds) = small_adastra();
        let out = Engine::new(SimConfig::new(cfg, "fcfs", "conservative").unwrap(), &ds)
            .unwrap()
            .run()
            .unwrap();
        assert!(out.stats.jobs_completed > 0);
        for o in &out.outcomes {
            assert!(o.start >= o.submit);
        }
    }
}
