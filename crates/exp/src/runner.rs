//! [`SweepRunner`]: multi-threaded, work-stealing execution of an
//! [`ExperimentMatrix`], with optional content-addressed caching and a
//! bounded-memory metrics-only mode.
//!
//! Three properties drive the design:
//!
//! 1. **Determinism** — parallel output must be bit-identical to serial.
//!    Workers pull cell indices from a shared atomic cursor (cheap dynamic
//!    load balancing: a thread that lands a long replay cell doesn't stall
//!    the others), but every result is written into its cell's slot and
//!    the assembled `Vec` is in matrix order. Each cell's simulation is
//!    deterministic given (config, dataset), and datasets and windows are
//!    built once per workload — so thread count and interleaving are
//!    unobservable. Caching preserves this: cached metrics roundtrip
//!    bit-exactly, so a warm run's reports are byte-identical to the cold
//!    run's.
//! 2. **Saturation** — cells vary wildly in cost (replay vs backfill,
//!    15-day vs 61 000 s windows), so static chunking would idle threads;
//!    the cursor gives single-cell granularity.
//! 3. **Bounded memory** — a full [`SimOutput`] holds tick-resolution
//!    histories; 100k-cell matrices cannot retain them all.
//!    [`SweepOptions::metrics_only`] folds each output into
//!    [`CellMetrics`] and drops it, making [`SweepResults`] O(cells ×
//!    metrics); [`SweepOptions::spill_histories`] optionally parks the
//!    power/util histories in the cache directory on the way down.
//!
//! Plans fingerprint first (cursor-parallel; a windowed replay hashes
//! only the jobs its window selects, so W windows of one long trace cost
//! W scans of the trace plus their own jobs), then every cell runs
//! through the one cell pipeline ([`crate::pipeline`]) against its
//! workload's memo: the dataset and the simulation window are built once
//! per workload, by the first cell that misses. Late-cap cells
//! ([`crate::ExperimentMatrix::power_cap_at`]) that share an uncapped
//! prefix fork from one in-memory snapshot of it, simulated once per
//! sweep; a prefix only one cell needs is simulated privately.
//!
//! A fourth property rides on top of the original three —
//! **crash-safety**: with a cache directory configured, every miss is
//! guarded by a [`ClaimSet`] lease so N cooperating processes partition
//! one matrix without duplicating simulation; each cell simulates
//! inside `catch_unwind` with bounded, jittered retry, so a poisoned
//! cell (or an injected [`crate::faults`] fault) degrades to a
//! [`CellFailure`] row instead of tearing down the sweep; and cache
//! write-back errors degrade to a warning plus counter while the result
//! still flows to the report.

use crate::cache::CellCache;
use crate::cell::{CellSpec, WorkloadPlan};
use crate::claims::ClaimSet;
use crate::matrix::ExperimentMatrix;
use crate::metrics::CellMetrics;
use crate::pipeline::{retryable, CellJob, Probe, Step, WorkloadMemo};
use sraps_core::{Fingerprint, SimOutput};
use sraps_obs::{Counter, Phase as ObsPhase, Profile};
use sraps_types::{Result, SrapsError};
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Why a cell's result is a placeholder: it panicked or errored on
/// every attempt. Failed cells are excluded from report rows and listed
/// in the failed-cells table instead; any failure makes `sraps sweep`
/// exit nonzero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFailure {
    /// Rendered error of the *last* attempt.
    pub error: String,
    /// Total attempts made: `retries + 1` when `exhausted`, fewer when
    /// the last error is not retried.
    pub attempts: u32,
    /// The cell ran out of retries: its last error is of a kind that is
    /// retried (a panic or an I/O error). False when the error is not
    /// retried (a configuration error fails the cell at once).
    pub exhausted: bool,
}

/// One finished cell: its spec, its workload's label, the scalar metrics
/// reports aggregate, and — in full-retention cold runs — the simulation
/// output.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub spec: CellSpec,
    pub workload_label: String,
    /// Seed-aggregation group of the workload (label minus seed).
    pub workload_group: String,
    /// Workload seed, when synthetic.
    pub seed: Option<u64>,
    pub metrics: CellMetrics,
    /// Full simulation output. `None` on cache hits (the cache stores
    /// metrics, not histories) and in metrics-only mode.
    pub output: Option<SimOutput>,
    /// Content-addressed key, when caching was enabled.
    pub cache_key: Option<String>,
    /// True when the metrics were deserialized from the cache instead of
    /// simulated.
    pub from_cache: bool,
    /// This cell's observability delta when profiling was enabled: for a
    /// miss, the engine's phases and counters; for a hit, the cache-read
    /// span and hit counter (never zeroed engine phases). Each cell runs
    /// wholly on one worker thread, so the delta is deterministic for any
    /// `--jobs` value — except that the shared window's build lands in
    /// whichever cell of the workload needed it first.
    pub profile: Option<Profile>,
    /// `Some` when the cell failed: `metrics` is the
    /// all-zero placeholder and the cell is excluded from report rows.
    pub failure: Option<CellFailure>,
}

/// Everything a sweep produced, cells in matrix order.
#[derive(Debug)]
pub struct SweepResults {
    pub cells: Vec<CellResult>,
    /// Materialized workload labels, for grouping in reports.
    pub workload_labels: Vec<String>,
    /// Wall-clock cost of the whole sweep (workloads + cells).
    pub wall: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Cache directory consulted, when caching was enabled.
    pub cache_dir: Option<PathBuf>,
    /// Work items (plans + cells) claimed off the shared cursor by
    /// *spawned* worker threads — 0 on the serial fast path.
    pub worker_steals: u64,
    /// Prefixes that two or more late-cap cells of one workload share,
    /// each simulated once — a pure function of the matrix.
    pub prefix_groups: usize,
    /// Cells that forked from one of those shared prefixes.
    pub prefix_forks: usize,
}

impl SweepResults {
    /// Cells grouped by workload, preserving matrix order inside groups.
    pub fn by_workload(&self) -> Vec<(String, Vec<&CellResult>)> {
        let mut groups: Vec<(String, Vec<&CellResult>)> = self
            .workload_labels
            .iter()
            .map(|l| (l.clone(), Vec::new()))
            .collect();
        for cell in &self.cells {
            groups[cell.spec.workload].1.push(cell);
        }
        groups.retain(|(_, cells)| !cells.is_empty());
        groups
    }

    /// Find a cell by its unique label.
    pub fn cell(&self, label: &str) -> Option<&CellResult> {
        self.cells.iter().find(|c| c.spec.label == label)
    }

    /// The retained outputs, in matrix order. In a full-retention
    /// uncached sweep this is every cell (what figure-style consumers
    /// run); cache hits and metrics-only cells are skipped.
    pub fn outputs(&self) -> Vec<&SimOutput> {
        self.cells
            .iter()
            .filter_map(|c| c.output.as_ref())
            .collect()
    }

    /// Cells whose metrics came from the cache.
    pub fn cache_hits(&self) -> usize {
        self.cells.iter().filter(|c| c.from_cache).count()
    }

    /// Cells that were simulated (and, when caching, written back).
    pub fn cache_misses(&self) -> usize {
        self.cells.len() - self.cache_hits()
    }

    /// Cells that failed (see [`CellFailure`]), in matrix order.
    pub fn failed_cells(&self) -> Vec<&CellResult> {
        self.cells.iter().filter(|c| c.failure.is_some()).collect()
    }

    /// The per-cell profiles merged in matrix order — deterministic
    /// counters regardless of `--jobs` (phase *timings* are wall-clock
    /// and naturally vary). `None` when profiling was disabled.
    pub fn merged_profile(&self) -> Option<Profile> {
        let mut merged: Option<Profile> = None;
        for cell in &self.cells {
            if let Some(p) = &cell.profile {
                merged.get_or_insert_with(Profile::default).merge(p);
            }
        }
        merged
    }

    /// The display profile `--profile` renders: the merged per-cell
    /// deltas plus the sweep-level wall clock and worker-steal count
    /// (which depend on thread scheduling and so stay out of
    /// [`SweepResults::merged_profile`]).
    pub fn profile(&self) -> Profile {
        let mut p = self.merged_profile().unwrap_or_default();
        p.record_phase(
            ObsPhase::SweepRun.name(),
            1,
            self.wall.as_nanos().min(u64::MAX as u128) as u64,
        );
        p.add_counter(Counter::SweepWorkerSteals.name(), self.worker_steals);
        p
    }
}

/// Everything a sweep can be configured with, in one builder-style
/// bundle shared by [`SweepRunner`], the CLI, and the serve daemon's
/// cell pipeline. Construct with [`SweepOptions::new`] (or `default()`),
/// chain setters, hand to [`SweepRunner::with_options`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Print per-cell progress lines to stderr (CLI mode).
    pub progress: bool,
    /// Memoize cells under this directory: hits skip simulation, misses
    /// simulate and write back atomically. Cached cells return no
    /// [`SimOutput`], so enable for metrics/report consumers, not figure
    /// replays.
    pub cache_dir: Option<PathBuf>,
    /// Drop each [`SimOutput`] after folding it into [`CellMetrics`]:
    /// sweep memory becomes O(cells × metrics) instead of O(cells ×
    /// history length). Reports are unchanged (they are pure functions
    /// of the metrics).
    pub metrics_only: bool,
    /// Spill each simulated cell's power/util history CSVs into the
    /// cache directory (requires `cache_dir`), and require them on hits
    /// — how `--write-histories` survives metrics-only and cached
    /// sweeps.
    pub spill_histories: bool,
    /// Retries per cell after a panic or transient I/O failure before
    /// the cell lands in the failed-cells table (total attempts =
    /// `retries + 1`).
    pub retries: u32,
    /// Abort the sweep on the first *permanent* cell failure instead of
    /// degrading it to a failed-cells row.
    pub fail_fast: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            progress: false,
            cache_dir: None,
            metrics_only: false,
            spill_histories: false,
            retries: 2,
            fail_fast: false,
        }
    }
}

impl SweepOptions {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    pub fn metrics_only(mut self, on: bool) -> Self {
        self.metrics_only = on;
        self
    }

    pub fn spill_histories(mut self, on: bool) -> Self {
        self.spill_histories = on;
        self
    }

    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    pub fn fail_fast(mut self, on: bool) -> Self {
        self.fail_fast = on;
        self
    }
}

/// Work-stealing sweep executor: a thread count plus a [`SweepOptions`].
#[derive(Debug, Clone)]
pub struct SweepRunner {
    jobs: usize,
    opts: SweepOptions,
}

impl SweepRunner {
    /// Run with exactly `jobs` worker threads (`0` ⇒ 1), default options.
    pub fn new(jobs: usize) -> Self {
        Self::with_options(jobs, SweepOptions::default())
    }

    /// Run with exactly `jobs` worker threads (`0` ⇒ 1) and `opts`.
    pub fn with_options(jobs: usize, opts: SweepOptions) -> Self {
        SweepRunner {
            jobs: jobs.max(1),
            opts,
        }
    }

    /// Use every available core, default options.
    pub fn auto() -> Self {
        Self::auto_with(SweepOptions::default())
    }

    /// Use every available core with `opts`.
    pub fn auto_with(opts: SweepOptions) -> Self {
        Self::with_options(
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            opts,
        )
    }

    pub fn jobs(&self) -> usize {
        self.jobs
    }

    pub fn options(&self) -> &SweepOptions {
        &self.opts
    }

    /// Execute the matrix: expand, fingerprint the plans, run every cell
    /// through the cell pipeline (consulting the cache first when one is
    /// configured).
    ///
    /// On cell failure the error of the failing cell first in dispatch
    /// order is returned (already-running cells finish first), keeping
    /// even the error path independent of thread count.
    pub fn run(&self, matrix: &ExperimentMatrix) -> Result<SweepResults> {
        // The one timing pathway for the sweep wall clock (records into
        // the profile/trace only when obs is enabled, measures always).
        let sweep_watch = sraps_obs::stopwatch(ObsPhase::SweepRun);
        let steals = AtomicU64::new(0);
        let (plans, cells) = matrix.expand()?;
        if self.opts.spill_histories && self.opts.cache_dir.is_none() {
            return Err(SrapsError::Config(
                "spill_histories needs a cache directory (SweepOptions::cache_dir)".into(),
            ));
        }
        let cache = match &self.opts.cache_dir {
            Some(dir) => Some(CellCache::open(dir)?),
            None => None,
        };

        // Phase 1: plan fingerprints, when cells are keyed by content (a
        // cache). Synthetic plans fingerprint without building their
        // dataset, so a fully warm sweep synthesizes nothing; datasets
        // materialize when a cell actually misses.
        let fingerprints = if cache.is_some() {
            self.fingerprint_plans(&plans, &steals)?
                .into_iter()
                .map(Some)
                .collect()
        } else {
            vec![None; plans.len()]
        };
        // Late-cap cells fork from a snapshot of their uncapped prefix.
        // Each prefix that two or more cells of a workload share gets a
        // slot in the workload's memo, so it is simulated once.
        let mut forks: Vec<HashMap<Fingerprint, usize>> = vec![HashMap::new(); plans.len()];
        for cell in &cells {
            if let Some(switch) = cell.late_cap() {
                *forks[cell.workload]
                    .entry(cell.prefix_fingerprint(switch))
                    .or_default() += 1;
            }
        }
        forks.iter_mut().for_each(|f| f.retain(|_, n| *n >= 2));
        let prefix_groups = forks.iter().map(HashMap::len).sum();
        let prefix_forks = forks.iter().flat_map(HashMap::values).sum();
        let workloads: Vec<WorkloadMemo> = plans
            .into_iter()
            .zip(fingerprints)
            .zip(forks)
            .map(|((plan, fp), shared)| {
                WorkloadMemo::new(plan, fp).share_prefixes(shared.into_keys())
            })
            .collect();
        // Claim leases guard the misses of a cached sweep: cooperating
        // processes sharing the cache directory partition the matrix
        // instead of simulating cells twice.
        let claims = cache
            .as_ref()
            .map(|c| ClaimSet::open(c.dir()))
            .transpose()?;

        // Phase 2: cells, cursor-parallel, collected by index into
        // matrix order. Cells whose claim is held by another process are
        // skipped in this pass (the worker moves on) and resolved
        // afterwards by polling the cache.
        let total = cells.len();
        let exec = CellExec {
            runner: self,
            cells: &cells,
            workloads: &workloads,
            cache: cache.as_ref(),
            claims: claims.as_ref(),
            counter: AtomicUsize::new(0),
        };
        // Dispatch every workload's first cell before the rest (each part
        // in matrix order), so concurrent workers build different
        // workloads' datasets and windows in parallel rather than
        // queueing behind one build, then run each workload's cells back
        // to back.
        let mut seen = vec![false; workloads.len()];
        let (mut order, rest): (Vec<usize>, Vec<usize>) =
            (0..total).partition(|&i| !std::mem::replace(&mut seen[cells[i].workload], true));
        order.extend(rest);
        let results = run_indexed(self.jobs, total, &steals, |k| {
            exec.step(order[k], Probe::Counted)
        });
        let mut slots: Vec<Option<CellResult>> = (0..total).map(|_| None).collect();
        for (k, result) in collect_ordered(results)?.into_iter().enumerate() {
            slots[order[k]] = result;
        }
        exec.resolve_deferred(&mut slots)?;
        let results = slots
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| {
                SrapsError::Config("internal: a deferred sweep cell was never resolved".into())
            })?;

        Ok(SweepResults {
            cells: results,
            workload_labels: workloads.iter().map(|w| w.plan.label()).collect(),
            wall: sweep_watch.finish(),
            jobs: self.jobs,
            cache_dir: self.opts.cache_dir.clone(),
            worker_steals: steals.into_inner(),
            prefix_groups,
            prefix_forks,
        })
    }

    /// Every plan's [`WorkloadPlan::fingerprint`], cursor-parallel.
    fn fingerprint_plans(
        &self,
        plans: &[WorkloadPlan],
        steals: &AtomicU64,
    ) -> Result<Vec<Fingerprint>> {
        collect_ordered(run_indexed(self.jobs, plans.len(), steals, |i| {
            plans[i].fingerprint()
        }))
    }
}

/// Everything phase 2 needs to step one cell and fold the outcome into a
/// [`CellResult`], shared by the main pass and the deferral loop.
struct CellExec<'a> {
    runner: &'a SweepRunner,
    cells: &'a [CellSpec],
    workloads: &'a [WorkloadMemo],
    cache: Option<&'a CellCache>,
    claims: Option<&'a ClaimSet>,
    /// Finished cells, for progress lines.
    counter: AtomicUsize,
}

impl CellExec<'_> {
    /// One step of cell `i` under a `sweep.cell` span and a profile
    /// capture of everything it does (cache probe included). `None` when
    /// another process holds the cell's claim.
    fn step(&self, i: usize, probe: Probe) -> Result<Option<CellResult>> {
        let opts = &self.runner.opts;
        let cell = &self.cells[i];
        let workload = &self.workloads[cell.workload];
        let capture = sraps_obs::capture();
        let watch = sraps_obs::stopwatch(ObsPhase::SweepCell);
        let key = workload.cell_key(cell);
        let job = CellJob {
            cell,
            workload,
            key: key.as_deref(),
            cache: self.cache,
            claims: self.claims,
            opts,
            salt: i,
            cancel: &|| false,
        };
        let step = job.step(probe);
        let elapsed = watch.finish();
        let profile = capture.finish();
        let (metrics, output, from_cache, failure) = match step? {
            Step::Done {
                metrics,
                output,
                from_cache,
            } => (
                metrics,
                output.filter(|_| !opts.metrics_only).map(|o| *o),
                from_cache,
                None,
            ),
            Step::Failed { error, .. } if opts.fail_fast => return Err(error),
            Step::Failed { error, attempts } => (
                CellMetrics::failed(),
                None,
                false,
                Some(CellFailure {
                    exhausted: retryable(&error),
                    error: error.to_string(),
                    attempts,
                }),
            ),
            Step::Contended | Step::Canceled => return Ok(None),
        };
        if opts.progress {
            let done = self.counter.fetch_add(1, Ordering::Relaxed) + 1;
            eprintln!(
                "  [{done:>3}/{}] {:<40} {:>6} jobs  util {:>5.1}%  {}",
                self.cells.len(),
                cell.label,
                metrics.jobs_completed,
                metrics.mean_utilization * 100.0,
                if failure.is_some() {
                    "  FAILED".to_string()
                } else if from_cache {
                    "  cached".to_string()
                } else {
                    format!("{:>8.2}s", elapsed.as_secs_f64())
                },
            );
        }
        let plan = &workload.plan;
        Ok(Some(CellResult {
            spec: cell.clone(),
            // Metadata comes from the plan, not the built dataset, so hit
            // and miss paths produce the same rows.
            workload_label: plan.label(),
            workload_group: plan.group(),
            seed: plan.seed(),
            metrics,
            output,
            cache_key: key,
            from_cache,
            profile,
            failure,
        }))
    }

    /// Serial post-pass for cells the main pass deferred: re-step each
    /// one (the other process usually finishes and installs it; a
    /// crashed owner's stale lease is reclaimed and the cell simulated
    /// here), with jittered sleeps between rounds so N pollers don't
    /// stampede.
    fn resolve_deferred(&self, slots: &mut [Option<CellResult>]) -> Result<()> {
        let Some(claims) = self.claims else {
            return Ok(());
        };
        let mut round = 0u32;
        loop {
            let pending: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_none()).collect();
            if pending.is_empty() {
                return Ok(());
            }
            if round > 0 {
                std::thread::sleep(claims.backoff("deferred", round));
            }
            for i in pending {
                slots[i] = self.step(i, Probe::Recheck)?;
            }
            round = round.wrapping_add(1);
        }
    }
}

/// Run `task(i)` for `i in 0..total` on `jobs` threads pulling indices
/// from a shared cursor; slot results by index. After any task fails, no
/// *new* indices are dispatched (in-flight tasks finish), so a failing
/// matrix doesn't burn through its remaining cells. Every index a
/// *spawned* worker claims bumps `steals` (the serial fast path never
/// does).
fn run_indexed<T, F>(
    jobs: usize,
    total: usize,
    steals: &AtomicU64,
    task: F,
) -> Vec<Option<Result<T>>>
where
    T: Send,
    F: Fn(usize) -> Result<T> + Sync,
{
    let slots: Mutex<Vec<Option<Result<T>>>> = Mutex::new((0..total).map(|_| None).collect());
    if total == 0 {
        return slots.into_inner().unwrap();
    }
    let cursor = AtomicUsize::new(0);
    let failed = std::sync::atomic::AtomicBool::new(false);
    let workers = jobs.clamp(1, total);
    if workers == 1 {
        // Serial fast path: no thread spawn overhead for tiny sweeps.
        let mut out = slots.into_inner().unwrap();
        for (i, slot) in out.iter_mut().enumerate() {
            let result = task(i);
            let stop = result.is_err();
            *slot = Some(result);
            if stop {
                break;
            }
        }
        return out;
    }
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                loop {
                    if failed.load(Ordering::Relaxed) {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    steals.fetch_add(1, Ordering::Relaxed);
                    let result = task(i);
                    if result.is_err() {
                        failed.store(true, Ordering::Relaxed);
                    }
                    slots.lock().unwrap()[i] = Some(result);
                }
                // Scoped threads signal completion before their TLS
                // destructors run; flush any buffered trace events now so
                // a `--trace-out` write after this scope sees them.
                sraps_obs::flush_thread_trace();
            });
        }
    });
    slots.into_inner().unwrap()
}

/// Unwrap slotted results in index order; first (lowest-index) error wins.
fn collect_ordered<T>(slots: Vec<Option<Result<T>>>) -> Result<Vec<T>> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.unwrap_or_else(|| {
                Err(SrapsError::Config(format!(
                    "internal: sweep cell {i} was never executed"
                )))
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ExperimentMatrix;
    use crate::report::Report;
    use sraps_types::SimDuration;
    use std::collections::HashSet;

    fn small_matrix() -> ExperimentMatrix {
        ExperimentMatrix::synthetic(["lassen"])
            .span(SimDuration::hours(2))
            .loads([0.5])
            .seed_count(1)
            .pairs([("fcfs", "none"), ("fcfs", "easy"), ("sjf", "easy")])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sraps-runner-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn runs_cells_in_matrix_order() {
        let results = SweepRunner::new(2).run(&small_matrix()).unwrap();
        assert_eq!(results.cells.len(), 3);
        let labels: Vec<&str> = results
            .cells
            .iter()
            .map(|c| c.spec.label.as_str())
            .collect();
        assert_eq!(labels, vec!["fcfs-none", "fcfs-easy", "sjf-easy"]);
        for c in &results.cells {
            assert!(
                c.metrics.jobs_completed > 0,
                "{} completed nothing",
                c.spec.label
            );
            assert!(c.output.is_some(), "full retention is the default");
            assert!(!c.from_cache);
            assert!(c.cache_key.is_none(), "no cache configured");
        }
        assert_eq!(results.cache_hits(), 0);
        assert_eq!(results.cache_misses(), 3);
    }

    #[test]
    fn parallel_equals_serial() {
        let serial = SweepRunner::new(1).run(&small_matrix()).unwrap();
        let parallel = SweepRunner::new(4).run(&small_matrix()).unwrap();
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(s.spec.label, p.spec.label);
            assert_eq!(s.metrics, p.metrics, "cell {} diverged", s.spec.label);
            let (so, po) = (s.output.as_ref().unwrap(), p.output.as_ref().unwrap());
            assert_eq!(so.times, po.times);
            assert_eq!(so.utilization, po.utilization);
        }
    }

    #[test]
    fn warm_cache_skips_every_simulation_and_reports_identically() {
        let dir = temp_dir("warm");
        let runner = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir));
        let cold = runner.run(&small_matrix()).unwrap();
        assert_eq!(cold.cache_hits(), 0);
        assert_eq!(cold.cache_misses(), 3);
        assert!(cold.cells.iter().all(|c| c.cache_key.is_some()));

        let warm = runner.run(&small_matrix()).unwrap();
        assert_eq!(warm.cache_hits(), 3, "identical matrix ⇒ 100% hits");
        assert_eq!(warm.cache_misses(), 0);
        for (c, w) in cold.cells.iter().zip(&warm.cells) {
            assert_eq!(c.metrics, w.metrics, "cached metrics must be bit-exact");
            assert_eq!(c.cache_key, w.cache_key);
            assert!(w.output.is_none(), "hits carry no SimOutput");
        }
        // Reports are byte-identical between the cold and warm runs.
        let (rc, rw) = (Report::from_results(&cold), Report::from_results(&warm));
        assert_eq!(rc.to_csv(), rw.to_csv());
        assert_eq!(rc.to_json(), rw.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cold_parallel_equals_warm_serial_with_cache() {
        let dir = temp_dir("jobs-mix");
        let cold = SweepRunner::with_options(4, SweepOptions::new().cache_dir(&dir))
            .run(&small_matrix())
            .unwrap();
        let warm = SweepRunner::with_options(1, SweepOptions::new().cache_dir(&dir))
            .run(&small_matrix())
            .unwrap();
        assert_eq!(warm.cache_hits(), 3);
        assert_eq!(
            Report::from_results(&cold).to_csv(),
            Report::from_results(&warm).to_csv(),
            "mixing --jobs with caching must stay deterministic"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_entry_is_recomputed_and_rewritten() {
        let dir = temp_dir("truncate");
        let runner = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir));
        let cold = runner.run(&small_matrix()).unwrap();
        let key = cold.cells[1].cache_key.clone().unwrap();
        let path = dir.join(format!("{key}.json"));
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 3]).unwrap();

        let rerun = runner.run(&small_matrix()).unwrap();
        assert_eq!(rerun.cache_hits(), 2, "only the truncated entry misses");
        assert_eq!(rerun.cache_misses(), 1);
        assert!(rerun.cells[1].output.is_some(), "the miss re-simulated");
        assert_eq!(rerun.cells[1].metrics, cold.cells[1].metrics);
        // …and the entry was rewritten: a third run is all hits.
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            full,
            "rewritten entry matches the original bytes"
        );
        assert_eq!(runner.run(&small_matrix()).unwrap().cache_hits(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_only_retains_no_outputs_and_reports_identically() {
        let full = SweepRunner::new(2).run(&small_matrix()).unwrap();
        let lean = SweepRunner::with_options(2, SweepOptions::new().metrics_only(true))
            .run(&small_matrix())
            .unwrap();
        assert!(lean.cells.iter().all(|c| c.output.is_none()));
        assert!(lean.outputs().is_empty());
        for (f, l) in full.cells.iter().zip(&lean.cells) {
            assert_eq!(f.metrics, l.metrics);
        }
        let (rf, rl) = (Report::from_results(&full), Report::from_results(&lean));
        assert_eq!(rf.to_csv(), rl.to_csv());
        assert_eq!(rf.to_json(), rl.to_json());
        assert_eq!(rf.render_table(), rl.render_table());
    }

    #[test]
    fn spilled_histories_survive_cache_hits() {
        let dir = temp_dir("spill");
        let runner = SweepRunner::with_options(
            2,
            SweepOptions::new()
                .cache_dir(&dir)
                .metrics_only(true)
                .spill_histories(true),
        );
        let cold = runner.run(&small_matrix()).unwrap();
        let cache = CellCache::open(&dir).unwrap();
        for cell in &cold.cells {
            let (power, util) = cache.history_paths(cell.cache_key.as_ref().unwrap());
            let power = std::fs::read_to_string(power).unwrap();
            assert!(power.starts_with("t_secs,it_kw"), "spilled power CSV");
            assert!(util.is_file(), "spilled util CSV");
        }
        let warm = runner.run(&small_matrix()).unwrap();
        assert_eq!(warm.cache_hits(), 3, "hits satisfied from spill");
        // Spill without a cache dir is a configuration error.
        assert!(
            SweepRunner::with_options(1, SweepOptions::new().spill_histories(true))
                .run(&small_matrix())
                .is_err()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Caps on job power low enough to bind after the switch (each
    /// raises the mean wait), so a fork that resumed under the wrong cap
    /// would show.
    fn capped_matrix() -> ExperimentMatrix {
        ExperimentMatrix::synthetic(["lassen"])
            .span(SimDuration::hours(2))
            .loads([0.5])
            .seed_count(1)
            .pairs([("fcfs", "easy")])
            .power_caps_kw([None, Some(20.0), Some(40.0), Some(60.0)])
            .power_cap_at(SimDuration::minutes(60))
    }

    #[test]
    fn late_cap_forks_equal_one_cap_runs() {
        // In the matrix the three capped cells fork from one shared
        // prefix; run as a one-cap matrix, each simulates its own. Both
        // execute snapshot-at-switch → resume-under-cap, so every cell
        // must match its lone run byte for byte.
        let matrix = SweepRunner::new(2).run(&capped_matrix()).unwrap();
        assert_eq!(matrix.prefix_groups, 1, "three capped cells, one prefix");
        assert_eq!(matrix.prefix_forks, 3);
        let waits: HashSet<u64> = matrix
            .cells
            .iter()
            .map(|c| c.metrics.avg_wait_secs.to_bits())
            .collect();
        assert_eq!(waits.len(), 4, "every cap binds, each differently");
        for cell in &matrix.cells {
            let lone = capped_matrix().power_caps_kw([cell.spec.power_cap_kw]);
            let lone = SweepRunner::new(1).run(&lone).unwrap();
            assert_eq!(lone.prefix_groups, 0, "a lone cell shares no prefix");
            let alone = &lone.cells[0];
            assert_eq!(cell.metrics, alone.metrics, "{}", cell.spec.label);
            let (a, b) = (
                cell.output.as_ref().unwrap(),
                alone.output.as_ref().unwrap(),
            );
            assert_eq!(a.power_csv(), b.power_csv(), "{}", cell.spec.label);
            assert_eq!(a.util_csv(), b.util_csv(), "{}", cell.spec.label);
        }
    }

    #[test]
    fn cap_at_zero_equals_cap_from_start() {
        // A cap switched in at t=0 must reproduce the always-capped run
        // exactly: the fork sequence (snapshot at the boundary, resume
        // under the cap) adds nothing at offset zero.
        let from_start = ExperimentMatrix::synthetic(["lassen"])
            .span(SimDuration::hours(2))
            .loads([0.5])
            .pairs([("fcfs", "easy")])
            .power_caps_kw([Some(1000.0)]);
        let at_zero = from_start.clone().power_cap_at(SimDuration::seconds(0));
        let a = SweepRunner::new(1).run(&from_start).unwrap();
        let b = SweepRunner::new(1).run(&at_zero).unwrap();
        assert_eq!(a.cells[0].metrics, b.cells[0].metrics);
        let (ao, bo) = (
            a.cells[0].output.as_ref().unwrap(),
            b.cells[0].output.as_ref().unwrap(),
        );
        assert_eq!(ao.power_csv(), bo.power_csv());
        assert_eq!(ao.util_csv(), bo.util_csv());
    }

    #[test]
    fn cached_capped_sweep_writes_no_snapshots() {
        let dir = temp_dir("prefix-cache");
        let runner = SweepRunner::with_options(2, SweepOptions::new().cache_dir(&dir));
        let cold = runner.run(&capped_matrix()).unwrap();
        assert_eq!(cold.cache_misses(), 4);
        assert_eq!(cold.prefix_forks, 3);
        let snapshots = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap.json"))
            .count();
        assert_eq!(snapshots, 0, "shared prefixes live in memory only");
        // Evicting one capped entry re-simulates that cell alone, and it
        // reproduces its cold metrics.
        let evicted = CellCache::open(&dir)
            .unwrap()
            .entry_path(cold.cells[1].cache_key.as_ref().unwrap());
        std::fs::remove_file(evicted).unwrap();
        let rerun = runner.run(&capped_matrix()).unwrap();
        assert_eq!(rerun.cache_hits(), 3, "only the evicted cell re-runs");
        assert!(rerun.cells[1].output.is_some(), "the miss re-simulated");
        assert_eq!(rerun.cells[1].metrics, cold.cells[1].metrics);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn windows_of_one_trace_keep_their_standalone_fingerprints() {
        // Windows of one shared trace fingerprint in parallel; each key
        // must be its plan's own fingerprint, and distinct windows differ.
        let cfg = sraps_systems::presets::lassen();
        let mut spec = sraps_data::WorkloadSpec::for_system(&cfg, 0.5, 3);
        spec.span = SimDuration::hours(6);
        let ds = std::sync::Arc::new(sraps_data::lassen::synthesize(&cfg, &spec));
        let windows: Vec<crate::PrebuiltWorkload> = (1..4)
            .map(|h| {
                let start = ds.capture_start + SimDuration::hours(h);
                crate::PrebuiltWorkload {
                    label: format!("w{h}"),
                    config: cfg.clone(),
                    dataset: std::sync::Arc::clone(&ds),
                    window: Some((start, start + SimDuration::hours(1))),
                }
            })
            .collect();
        let (plans, _) = ExperimentMatrix::scenarios(windows).expand().unwrap();
        let shared = SweepRunner::new(2)
            .fingerprint_plans(&plans, &AtomicU64::new(0))
            .unwrap();
        for (plan, fp) in plans.iter().zip(&shared) {
            assert_eq!(*fp, plan.fingerprint().unwrap(), "{}", plan.label());
        }
        assert_eq!(shared.iter().collect::<HashSet<_>>().len(), 3);
    }

    #[test]
    fn run_indexed_covers_every_slot() {
        let steals = AtomicU64::new(0);
        let out = run_indexed(8, 100, &steals, |i| Ok(i * i));
        let vals = collect_ordered(out).unwrap();
        assert_eq!(vals, (0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(
            steals.into_inner(),
            100,
            "every index is claimed by a spawned worker"
        );
    }

    #[test]
    fn work_is_spread_across_worker_threads() {
        // Wall-clock speedup needs multiple hardware cores, but the
        // executor property we can assert anywhere is that >1 OS thread
        // actually executes tasks when jobs > 1 (work stealing, not a
        // serial loop behind a flag). A short sleep keeps the first
        // worker from draining the cursor before the others start.
        let out = run_indexed(4, 16, &AtomicU64::new(0), |i| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            Ok((i, std::thread::current().id()))
        });
        let vals = collect_ordered(out).unwrap();
        let distinct: std::collections::HashSet<_> = vals.iter().map(|(_, tid)| *tid).collect();
        assert!(
            distinct.len() > 1,
            "expected multiple worker threads, saw {}",
            distinct.len()
        );
        // And the serial fast path stays on the caller's thread — and
        // counts no steals.
        let here = std::thread::current().id();
        let steals = AtomicU64::new(0);
        let out = run_indexed(1, 4, &steals, |i| Ok((i, std::thread::current().id())));
        assert!(collect_ordered(out)
            .unwrap()
            .iter()
            .all(|(_, tid)| *tid == here));
        assert_eq!(steals.into_inner(), 0, "serial path steals nothing");
    }

    #[test]
    fn first_error_is_deterministic() {
        for jobs in [1, 4] {
            let out = run_indexed(jobs, 10, &AtomicU64::new(0), |i| {
                if i % 3 == 1 {
                    Err(SrapsError::Config(format!("cell {i} boom")))
                } else {
                    Ok(i)
                }
            });
            let err = collect_ordered(out).unwrap_err();
            assert_eq!(err, SrapsError::Config("cell 1 boom".into()));
        }
    }

    #[test]
    fn by_workload_groups_cells() {
        let m = ExperimentMatrix::synthetic(["lassen"])
            .span(SimDuration::hours(1))
            .loads([0.4])
            .seed_count(2)
            .pairs([("fcfs", "none")]);
        let results = SweepRunner::new(2).run(&m).unwrap();
        let groups = results.by_workload();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].1.len(), 1);
        assert!(results.cell("lassen-s42/fcfs-none").is_some());
    }
}
