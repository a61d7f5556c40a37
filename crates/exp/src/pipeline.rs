//! The one cell pipeline. Every path that turns a [`CellSpec`] into
//! metrics runs through this module: sweep workers, the sweep's deferral
//! loop, and the serve daemon's cold path.
//!
//! * [`WorkloadMemo`] is a workload's memo chain: its dataset, then the
//!   [`SimWindow`] every cell of the workload runs in, then the prefix
//!   snapshots that two or more of its late-cap cells fork from. Each
//!   link is built at most once, by the first cell that needs it;
//!   concurrent cells block on it and then share it.
//! * [`CellJob::step`] is the cell state machine: probe the cache, claim
//!   a miss, re-check under the lease, simulate inside `catch_unwind`
//!   with bounded jittered retries, write back, release. Its `cancel`
//!   hook is a no-op for sweeps and the request deadline for the daemon.
//!
//! A lease releases when it drops, so every way out of a step — a hit
//! under the lease, cancellation, failure, a configuration error —
//! releases it, and a successful step releases it only after the entry
//! is installed.

use crate::cache::CellCache;
use crate::cell::{CellSpec, WorkloadPlan};
use crate::claims::{ClaimOutcome, Lease};
use crate::faults;
use crate::matrix::PrebuiltWorkload;
use crate::metrics::CellMetrics;
use crate::runner::SweepOptions;
use crate::ClaimSet;
use sraps_core::{Engine, EngineSnapshot, Fingerprint, SimConfig, SimOutput, SimWindow};
use sraps_data::Dataset;
use sraps_obs::Counter;
use sraps_types::{Result, SrapsError};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Duration;

/// One workload and everything derived from it, each built at most once
/// on first use — a fully warm cached sweep builds none of it.
pub struct WorkloadMemo {
    pub plan: WorkloadPlan,
    /// The plan's fingerprint, when cells are keyed by content (a cache
    /// is in play).
    pub fp: Option<Fingerprint>,
    dataset: OnceLock<Result<PrebuiltWorkload>>,
    window: OnceLock<Result<SimWindow>>,
    /// Shared prefix snapshots by [`CellSpec::prefix_fingerprint`]: one
    /// slot per prefix that two or more cells fork from, fixed before
    /// any cell runs. A late-cap cell whose prefix has no slot simulates
    /// it privately.
    prefixes: HashMap<Fingerprint, OnceLock<Result<EngineSnapshot>>>,
}

impl WorkloadMemo {
    /// A memo that shares no prefixes.
    pub fn new(plan: WorkloadPlan, fp: Option<Fingerprint>) -> Self {
        WorkloadMemo {
            plan,
            fp,
            dataset: OnceLock::new(),
            window: OnceLock::new(),
            prefixes: HashMap::new(),
        }
    }

    /// Give each prefix key in `keys` a shared snapshot slot: the first
    /// cell that forks from it simulates the prefix, the rest reuse it.
    pub(crate) fn share_prefixes(mut self, keys: impl IntoIterator<Item = Fingerprint>) -> Self {
        self.prefixes = keys.into_iter().map(|k| (k, OnceLock::new())).collect();
        self
    }

    /// Content key of `cell` over this workload, when it has a
    /// fingerprint.
    pub fn cell_key(&self, cell: &CellSpec) -> Option<String> {
        self.fp.map(|fp| cell.fingerprint(fp).hex())
    }

    /// The materialized dataset. A failure here is a configuration error
    /// (bad scenario path, malformed plan), not a cell failure.
    pub fn materialized(&self) -> Result<&PrebuiltWorkload> {
        self.dataset
            .get_or_init(|| self.plan.materialize())
            .as_ref()
            .map_err(Clone::clone)
    }

    /// The window every cell of this workload runs in. `sim` may be any
    /// of its cells' configs: they all select the workload's window.
    fn window(&self, sim: &SimConfig, dataset: &Dataset) -> Result<&SimWindow> {
        self.window
            .get_or_init(|| SimWindow::new(sim, dataset))
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// How [`CellJob::step`] reads the cache before it claims a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// The cell's one counted consult: bumps `cache.hits`/`cache.misses`
    /// and self-heals a defective entry.
    Counted,
    /// A counter-free re-check (deferral polls; the daemon, whose
    /// connection thread already consulted), so single-process counters
    /// stay deterministic.
    Recheck,
}

/// Where a [`CellJob::step`] ended.
#[derive(Debug)]
pub enum Step {
    /// Metrics are available: read from the cache, or simulated here
    /// (`output` is then the run's full output).
    Done {
        metrics: CellMetrics,
        output: Option<Box<SimOutput>>,
        from_cache: bool,
    },
    /// Every attempt failed, or one failed with a non-retryable error.
    Failed { error: SrapsError, attempts: u32 },
    /// Another process holds a live lease on the cell: step again later
    /// (its entry usually lands; a dead owner's lease goes stale and is
    /// reclaimed).
    Contended,
    /// `cancel` fired before the cell settled.
    Canceled,
}

impl Step {
    fn hit(metrics: CellMetrics) -> Step {
        Step::Done {
            metrics,
            output: None,
            from_cache: true,
        }
    }
}

/// A cache miss's claim: owned (with a lease, or unclaimed without a
/// claim set or when the claim layer is down), or held by another
/// process.
enum Claim {
    Own(Option<Lease>),
    Contended,
}

/// One cell bound to its workload and the shared cache and claim layer.
pub struct CellJob<'a> {
    pub cell: &'a CellSpec,
    pub workload: &'a WorkloadMemo,
    /// Content key; the cell runs uncached without one or without a cache.
    pub key: Option<&'a str>,
    pub cache: Option<&'a CellCache>,
    pub claims: Option<&'a ClaimSet>,
    /// Retries and history spill.
    pub opts: &'a SweepOptions,
    /// Fault-injection index and retry-jitter salt: the sweep's cell
    /// index, the daemon's request sequence number.
    pub salt: usize,
    /// Polled before claiming and between attempts.
    pub cancel: &'a (dyn Fn() -> bool + Sync),
}

impl CellJob<'_> {
    /// Drive the cell once through the pipeline. `Err` only for a
    /// workload that fails to materialize; every per-cell problem is a
    /// [`Step::Failed`].
    pub fn step(&self, probe: Probe) -> Result<Step> {
        let spill = self.opts.spill_histories;
        let cached = self.cache.zip(self.key);
        let mut lease = None;
        if let Some((cache, key)) = cached {
            let hit = match probe {
                Probe::Counted => cache.load(key, spill),
                Probe::Recheck => cache.peek(key, spill),
            };
            if let Some(hit) = hit {
                return Ok(Step::hit(hit.metrics));
            }
            if (self.cancel)() {
                return Ok(Step::Canceled);
            }
            lease = match self.claim(key) {
                Claim::Own(lease) => lease,
                Claim::Contended => return Ok(Step::Contended),
            };
            // Between our miss and our claim the previous owner may have
            // installed the entry.
            if lease.is_some() {
                if let Some(hit) = cache.peek(key, spill) {
                    return Ok(Step::hit(hit.metrics));
                }
            }
        }
        let workload = self.workload.materialized()?;
        let mut attempts = 0u32;
        let output = loop {
            attempts += 1;
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                faults::panic_point(self.salt);
                self.simulate(workload)
            }));
            let error = match attempt {
                Ok(Ok(output)) => break output,
                Ok(Err(e)) => e,
                Err(payload) => SrapsError::Panic(panic_message(payload)),
            };
            if attempts > self.opts.retries || !retryable(&error) {
                sraps_obs::bump(Counter::CellsFailed);
                return Ok(Step::Failed { error, attempts });
            }
            sraps_obs::bump(Counter::CellRetries);
            if (self.cancel)() {
                return Ok(Step::Canceled);
            }
            std::thread::sleep(retry_backoff(attempts, self.salt));
        };
        let metrics = CellMetrics::from_output(&output);
        if let Some((cache, key)) = cached {
            self.store(cache, key, &metrics, &output);
        }
        drop(lease);
        Ok(Step::Done {
            metrics,
            output: Some(Box::new(output)),
            from_cache: false,
        })
    }

    /// Classify a miss against the claim set. Transient claim-I/O errors
    /// get a short bounded retry; a persistently failing claim layer
    /// degrades to running unclaimed (correctness never depends on
    /// claims — only duplicate-work avoidance does).
    fn claim(&self, key: &str) -> Claim {
        let Some(claims) = self.claims else {
            return Claim::Own(None);
        };
        let mut last_err = None;
        for attempt in 0..3u32 {
            if attempt > 0 {
                std::thread::sleep(claims.backoff(key, attempt));
                sraps_obs::bump(Counter::CellRetries);
            }
            match claims.try_acquire(key) {
                Ok(ClaimOutcome::Acquired(lease)) => return Claim::Own(Some(lease)),
                Ok(ClaimOutcome::Contended) => return Claim::Contended,
                Err(e) => last_err = Some(e),
            }
        }
        eprintln!(
            "warning: claim layer unavailable for cell {key}: {} (running unclaimed)",
            last_err.expect("loop ran")
        );
        Claim::Own(None)
    }

    /// One simulation attempt over the workload's shared window. A
    /// late-cap cell always snapshots at the switch and resumes under the
    /// cap — from the memo's shared prefix when other cells fork from it
    /// too, from a private one otherwise — which makes sharing
    /// bit-identical to not sharing by construction.
    fn simulate(&self, workload: &PrebuiltWorkload) -> Result<SimOutput> {
        let cell = self.cell;
        let sim = cell.build_sim(workload)?;
        let window = self.workload.window(&sim, &workload.dataset)?;
        let Some(switch) = cell.late_cap() else {
            return Engine::with_window(sim, window)?.run();
        };
        let prefix = || {
            let mut engine = Engine::with_window(cell.prefix_spec().build_sim(workload)?, window)?;
            let at = engine.sim_start() + switch;
            engine.run_until(at)?;
            engine.snapshot()
        };
        let private;
        let snap = match self.workload.prefixes.get(&cell.prefix_fingerprint(switch)) {
            Some(slot) => slot.get_or_init(prefix).as_ref().map_err(Clone::clone)?,
            None => {
                private = prefix()?;
                &private
            }
        };
        Engine::resume(sim, window, snap)?.run()
    }

    /// Write back, degrading instead of failing: transient errors retry
    /// with jittered backoff; exhaustion warns and bumps
    /// `cache.write_errors` while the result still flows to the caller.
    fn store(&self, cache: &CellCache, key: &str, metrics: &CellMetrics, output: &SimOutput) {
        let histories = self
            .opts
            .spill_histories
            .then(|| (output.power_csv(), output.util_csv()));
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let wrote = faults::before_cache_write(self.salt).and_then(|()| {
                cache.store(
                    key,
                    &self.cell.label,
                    metrics,
                    histories.as_ref().map(|(p, u)| (p.as_str(), u.as_str())),
                )
            });
            match wrote {
                Ok(()) => {
                    faults::after_cache_write(self.salt, &cache.entry_path(key));
                    return;
                }
                Err(_) if attempts <= self.opts.retries => {
                    sraps_obs::bump(Counter::CellRetries);
                    std::thread::sleep(retry_backoff(attempts, self.salt));
                }
                Err(e) => {
                    sraps_obs::bump(Counter::CacheWriteErrors);
                    eprintln!("warning: cache write failed for cell {key}: {e}");
                    return;
                }
            }
        }
    }
}

/// Errors worth a bounded in-process retry: transient I/O hiccups and
/// worker panics (which injected faults model as fire-once). Config and
/// simulation-semantics errors are deterministic — retrying re-fails.
pub(crate) fn retryable(e: &SrapsError) -> bool {
    matches!(e, SrapsError::Io(_) | SrapsError::Panic(_))
}

/// Render a `catch_unwind` payload into the `SrapsError::Panic` message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// Exponential backoff before retry `attempt` (1-based), jittered per
/// cell so simultaneous retries across workers don't re-collide:
/// ~10 ms · 2^(attempt−1), capped at ~500 ms, ±50% deterministic jitter.
fn retry_backoff(attempt: u32, salt: usize) -> Duration {
    let base = 10u64
        .saturating_mul(1 << attempt.saturating_sub(1).min(6))
        .min(500);
    let jitter = faults::splitmix64(0x9e37_79b9_7f4a_7c15 ^ attempt as u64 ^ (salt as u64) << 32)
        % base.max(1);
    Duration::from_millis(base / 2 + jitter / 2 + 1)
}
