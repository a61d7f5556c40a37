//! [`ExperimentMatrix`]: the declarative description of a sweep.
//!
//! A matrix is a workload axis (synthetic systems × loads × seeds, or
//! prebuilt datasets such as the paper scenarios) crossed with a schedule
//! axis (policies × backfills, or explicit pairs) and run-shape axes
//! (cooling on/off, power caps). [`ExperimentMatrix::expand`] flattens it
//! into concrete [`CellSpec`]s plus the [`WorkloadPlan`]s the cells share,
//! validating every name eagerly so a typo fails before any simulation
//! starts.

use crate::cell::{CellSpec, WorkloadPlan};
use sraps_acct::Accounts;
use sraps_core::SchedulerSelect;
use sraps_data::scenario::Scenario;
use sraps_data::{Dataset, MAX_OFFERED_LOAD};
use sraps_sched::{BackfillKind, PolicyKind};
use sraps_systems::{presets, SystemConfig};
use sraps_types::{Result, SimDuration, SimTime, SrapsError};
use std::sync::Arc;

/// A ready-made workload (dataset already built): what a paper
/// [`Scenario`] or a custom study supplies directly.
#[derive(Debug, Clone)]
pub struct PrebuiltWorkload {
    /// Short label used in cell names and reports (e.g. `fig4-pm100-day50`).
    pub label: String,
    pub config: SystemConfig,
    pub dataset: Arc<Dataset>,
    /// Simulation window, when the workload documents one.
    pub window: Option<(SimTime, SimTime)>,
}

impl From<Scenario> for PrebuiltWorkload {
    fn from(s: Scenario) -> Self {
        PrebuiltWorkload {
            label: s.label.to_string(),
            config: s.config,
            dataset: Arc::new(s.dataset),
            window: Some((s.sim_start, s.sim_end)),
        }
    }
}

/// The workload side of the matrix.
#[derive(Debug, Clone)]
enum WorkloadAxis {
    /// Synthetic datasets: systems × loads × seeds at one span/scale.
    Synthetic {
        systems: Vec<String>,
        loads: Vec<f64>,
        seeds: Vec<u64>,
        span: SimDuration,
        scale: f64,
    },
    /// Caller-provided datasets (paper scenarios, custom traces).
    Prebuilt(Vec<PrebuiltWorkload>),
}

/// Declarative sweep description. Build with [`ExperimentMatrix::synthetic`]
/// or [`ExperimentMatrix::scenarios`], chain axis setters, then hand to
/// [`crate::SweepRunner`].
#[derive(Debug, Clone)]
pub struct ExperimentMatrix {
    workloads: WorkloadAxis,
    policies: Vec<String>,
    backfills: Vec<String>,
    /// Explicit (policy, backfill) pairs; overrides the cross-product.
    pairs: Option<Vec<(String, String)>>,
    cooling: Vec<bool>,
    power_caps_kw: Vec<Option<f64>>,
    /// Cap-switch offset: capped cells bind their cap only from
    /// `sim_start + cap_at`; cells that differ only in the cap share the
    /// prefix before it (see [`ExperimentMatrix::power_cap_at`]).
    cap_at: Option<SimDuration>,
    scheduler: SchedulerSelect,
    accounts_in: Option<Accounts>,
}

impl ExperimentMatrix {
    /// Sweep over synthetic workloads for the named systems
    /// (`frontier | marconi100 | fugaku | lassen | adastra`).
    pub fn synthetic<I, S>(systems: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        ExperimentMatrix {
            workloads: WorkloadAxis::Synthetic {
                systems: systems.into_iter().map(Into::into).collect(),
                loads: vec![0.8],
                seeds: vec![42],
                span: SimDuration::days(1),
                scale: 1.0,
            },
            policies: vec!["fcfs".into()],
            backfills: vec!["none".into()],
            pairs: None,
            cooling: vec![false],
            power_caps_kw: vec![None],
            cap_at: None,
            scheduler: SchedulerSelect::Default,
            accounts_in: None,
        }
    }

    /// Sweep over prebuilt workloads (paper scenarios or custom datasets).
    pub fn scenarios<I, W>(workloads: I) -> Self
    where
        I: IntoIterator<Item = W>,
        W: Into<PrebuiltWorkload>,
    {
        ExperimentMatrix {
            workloads: WorkloadAxis::Prebuilt(workloads.into_iter().map(Into::into).collect()),
            policies: vec!["fcfs".into()],
            backfills: vec!["none".into()],
            pairs: None,
            cooling: vec![false],
            power_caps_kw: vec![None],
            cap_at: None,
            scheduler: SchedulerSelect::Default,
            accounts_in: None,
        }
    }

    /// One prebuilt workload — the common single-scenario study.
    pub fn scenario(workload: impl Into<PrebuiltWorkload>) -> Self {
        Self::scenarios([workload.into()])
    }

    // ------------------------------------------------- axis setters

    pub fn policies<I, S>(mut self, policies: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.policies = policies.into_iter().map(Into::into).collect();
        self
    }

    pub fn backfills<I, S>(mut self, backfills: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.backfills = backfills.into_iter().map(Into::into).collect();
        self
    }

    /// Explicit (policy, backfill) combinations instead of the full
    /// cross-product — how the figure studies pick their four runs.
    pub fn pairs<I, A, B>(mut self, pairs: I) -> Self
    where
        I: IntoIterator<Item = (A, B)>,
        A: Into<String>,
        B: Into<String>,
    {
        self.pairs = Some(
            pairs
                .into_iter()
                .map(|(p, b)| (p.into(), b.into()))
                .collect(),
        );
        self
    }

    /// Offered-load axis for synthetic workloads.
    pub fn loads<I: IntoIterator<Item = f64>>(mut self, loads: I) -> Self {
        if let WorkloadAxis::Synthetic { loads: l, .. } = &mut self.workloads {
            *l = loads.into_iter().collect();
        }
        self
    }

    /// Explicit seed list for synthetic workloads.
    pub fn seeds<I: IntoIterator<Item = u64>>(mut self, seeds: I) -> Self {
        if let WorkloadAxis::Synthetic { seeds: s, .. } = &mut self.workloads {
            *s = seeds.into_iter().collect();
        }
        self
    }

    /// `n` consecutive seeds starting at 42 (the artifact's default).
    pub fn seed_count(self, n: u64) -> Self {
        self.seed_count_from(42, n)
    }

    /// `n` consecutive seeds starting at `base`.
    pub fn seed_count_from(self, base: u64, n: u64) -> Self {
        self.seeds((0..n).map(|i| base + i))
    }

    /// Synthetic workload span (default 1 day).
    pub fn span(mut self, span: SimDuration) -> Self {
        if let WorkloadAxis::Synthetic { span: s, .. } = &mut self.workloads {
            *s = span;
        }
        self
    }

    /// Scale factor for large machines (as `sraps --scale`).
    pub fn scale(mut self, scale: f64) -> Self {
        if let WorkloadAxis::Synthetic { scale: f, .. } = &mut self.workloads {
            *f = scale;
        }
        self
    }

    /// Cooling axis: `[false]` (default), `[true]`, or both.
    pub fn cooling<I: IntoIterator<Item = bool>>(mut self, cooling: I) -> Self {
        self.cooling = cooling.into_iter().collect();
        self
    }

    /// Run every cell with the cooling model on.
    pub fn with_cooling(self) -> Self {
        self.cooling([true])
    }

    /// Facility power-cap axis (`None` = uncapped).
    pub fn power_caps_kw<I: IntoIterator<Item = Option<f64>>>(mut self, caps: I) -> Self {
        self.power_caps_kw = caps.into_iter().collect();
        self
    }

    /// Defer every cell's power cap until `at` past the window start
    /// (uncapped cells are unaffected). Cells of one workload that differ
    /// only in the cap value then share their pre-switch prefix: the
    /// sweep simulates it once, snapshots it in memory, and resumes each
    /// cell from the snapshot under its own cap.
    pub fn power_cap_at(mut self, at: SimDuration) -> Self {
        self.cap_at = Some(at);
        self
    }

    /// Scheduler backend for every cell (default: builtin).
    pub fn scheduler(mut self, scheduler: SchedulerSelect) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Collection-phase accounts for the experimental incentive scheduler.
    pub fn accounts_in(mut self, accounts: Accounts) -> Self {
        self.accounts_in = Some(accounts);
        self
    }

    // ------------------------------------------------- expansion

    /// The (policy, backfill) combinations this matrix runs.
    fn schedule_pairs(&self) -> Vec<(String, String)> {
        match &self.pairs {
            Some(p) => p.clone(),
            None => self
                .policies
                .iter()
                .flat_map(|p| self.backfills.iter().map(move |b| (p.clone(), b.clone())))
                .collect(),
        }
    }

    /// Number of cells the matrix expands to.
    pub fn cell_count(&self) -> usize {
        let workloads = match &self.workloads {
            WorkloadAxis::Synthetic {
                systems,
                loads,
                seeds,
                ..
            } => systems.len() * loads.len() * seeds.len(),
            WorkloadAxis::Prebuilt(w) => w.len(),
        };
        workloads * self.schedule_pairs().len() * self.cooling.len() * self.power_caps_kw.len()
    }

    /// Flatten into workload plans and cell specs, validating every axis
    /// value. Cell order is the deterministic matrix order: workloads
    /// outermost, then schedule pairs, cooling, power caps.
    pub fn expand(&self) -> Result<(Vec<WorkloadPlan>, Vec<CellSpec>)> {
        let pairs = self.schedule_pairs();
        if pairs.is_empty() {
            return Err(SrapsError::Config(
                "matrix has no policy/backfill pairs".into(),
            ));
        }
        for (p, b) in &pairs {
            PolicyKind::parse(p)
                .ok_or_else(|| SrapsError::Config(format!("unknown policy '{p}'")))?;
            BackfillKind::parse(b)
                .ok_or_else(|| SrapsError::Config(format!("unknown backfill '{b}'")))?;
        }
        if self.cooling.is_empty() {
            return Err(SrapsError::Config(
                "matrix has an empty cooling axis".into(),
            ));
        }
        if self.power_caps_kw.is_empty() {
            return Err(SrapsError::Config(
                "matrix has an empty power-cap axis".into(),
            ));
        }
        if self.scheduler == SchedulerSelect::Experimental && self.accounts_in.is_none() {
            return Err(SrapsError::Config(
                "experimental scheduler sweeps need accounts_in (collection-phase accounts)".into(),
            ));
        }

        let workloads = self.workload_plans()?;
        if workloads.is_empty() {
            return Err(SrapsError::Config("matrix has no workloads".into()));
        }

        // Label components are included only for axes that actually vary,
        // so small studies keep the familiar `<policy>-<backfill>` names.
        let many_workloads = workloads.len() > 1;
        let many_cooling = self.cooling.len() > 1;
        let many_caps = self.power_caps_kw.len() > 1;

        let mut cells = Vec::with_capacity(self.cell_count());
        for (w_ix, plan) in workloads.iter().enumerate() {
            for (policy, backfill) in &pairs {
                for &cooling in &self.cooling {
                    for &cap in &self.power_caps_kw {
                        let mut label = String::new();
                        if many_workloads {
                            label.push_str(&plan.label());
                            label.push('/');
                        }
                        label.push_str(policy);
                        label.push('-');
                        label.push_str(backfill);
                        if many_cooling && cooling {
                            label.push_str("+cool");
                        }
                        if many_caps {
                            if let Some(kw) = cap {
                                // Shortest-roundtrip float: distinct caps
                                // always yield distinct labels.
                                label.push_str(&format!("+cap{kw}"));
                                if let Some(at) = self.cap_at {
                                    label.push_str(&format!("@{}s", at.as_secs()));
                                }
                            }
                        }
                        cells.push(CellSpec {
                            index: cells.len(),
                            label,
                            workload: w_ix,
                            policy: policy.clone(),
                            backfill: backfill.clone(),
                            cooling,
                            power_cap_kw: cap,
                            cap_at: self.cap_at,
                            scheduler: self.scheduler.clone(),
                            accounts_in: self.accounts_in.clone(),
                        });
                    }
                }
            }
        }
        // Labels key reports, `SweepResults::cell`, and history file
        // names — a collision would silently merge or overwrite cells.
        // (Cache keys hash the underlying axis values instead of the
        // label, so this check also guarantees one cache entry per cell
        // within a run.)
        let mut seen = std::collections::HashSet::new();
        for cell in &cells {
            if !seen.insert(&cell.label) {
                return Err(SrapsError::Config(format!(
                    "duplicate cell label '{}' — repeated axis values?",
                    cell.label
                )));
            }
        }
        Ok((workloads, cells))
    }

    fn workload_plans(&self) -> Result<Vec<WorkloadPlan>> {
        match &self.workloads {
            WorkloadAxis::Prebuilt(list) => Ok(list
                .iter()
                .cloned()
                .map(|w| WorkloadPlan::Prebuilt(Box::new(w)))
                .collect()),
            WorkloadAxis::Synthetic {
                systems,
                loads,
                seeds,
                span,
                scale,
            } => {
                if systems.is_empty() || loads.is_empty() || seeds.is_empty() {
                    return Err(SrapsError::Config(
                        "synthetic matrix needs ≥1 system, load, and seed".into(),
                    ));
                }
                let many_seeds = seeds.len() > 1;
                let many_loads = loads.len() > 1;
                let mut plans = Vec::new();
                for system in systems {
                    // Validate the system name up front.
                    presets::system_by_name(system)
                        .ok_or_else(|| SrapsError::Config(format!("unknown system '{system}'")))?;
                    for &load in loads {
                        if !(load > 0.0 && load <= MAX_OFFERED_LOAD) {
                            return Err(SrapsError::Config(format!(
                                "offered load {load} outside (0, {MAX_OFFERED_LOAD}]"
                            )));
                        }
                        for &seed in seeds {
                            let mut group = system.clone();
                            if many_loads {
                                group.push_str(&format!("-l{load:.2}"));
                            }
                            let mut label = group.clone();
                            if many_seeds {
                                label.push_str(&format!("-s{seed}"));
                            }
                            plans.push(WorkloadPlan::Synthetic {
                                label,
                                group,
                                system: system.clone(),
                                load,
                                seed,
                                span: *span,
                                scale: *scale,
                            });
                        }
                    }
                }
                Ok(plans)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_product_expands_in_matrix_order() {
        let m = ExperimentMatrix::synthetic(["lassen"])
            .policies(["fcfs", "sjf", "priority"])
            .backfills(["none", "easy"])
            .seed_count(3);
        assert_eq!(m.cell_count(), 18);
        let (workloads, cells) = m.expand().unwrap();
        assert_eq!(workloads.len(), 3, "three seeds of one system/load");
        assert_eq!(cells.len(), 18);
        // Deterministic order: workload-major, then pairs.
        assert_eq!(cells[0].label, "lassen-s42/fcfs-none");
        assert_eq!(cells[1].label, "lassen-s42/fcfs-easy");
        assert_eq!(cells[6].label, "lassen-s43/fcfs-none");
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn pairs_override_cross_product() {
        let m = ExperimentMatrix::synthetic(["adastra"])
            .policies(["ignored"])
            .pairs([("replay", "none"), ("fcfs", "easy")]);
        let (_, cells) = m.expand().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].label, "replay-none");
        assert_eq!(cells[1].label, "fcfs-easy");
    }

    #[test]
    fn bad_names_fail_eagerly() {
        assert!(ExperimentMatrix::synthetic(["lassen"])
            .policies(["frobnicate"])
            .expand()
            .is_err());
        assert!(ExperimentMatrix::synthetic(["lassen"])
            .backfills(["frobnicate"])
            .expand()
            .is_err());
        assert!(ExperimentMatrix::synthetic(["summit"]).expand().is_err());
        assert!(ExperimentMatrix::synthetic(["lassen"])
            .loads([0.0])
            .expand()
            .is_err());
        assert!(ExperimentMatrix::synthetic(["lassen"])
            .loads([1e6])
            .expand()
            .is_err());
    }

    #[test]
    fn experimental_scheduler_requires_accounts() {
        let m = ExperimentMatrix::synthetic(["lassen"])
            .policies(["acct_edp"])
            .backfills(["firstfit"])
            .scheduler(SchedulerSelect::Experimental);
        assert!(m.expand().is_err());
        let m = m.accounts_in(Accounts::new(1.0));
        assert!(m.expand().is_ok());
    }

    #[test]
    fn label_axes_appear_only_when_varying() {
        let m = ExperimentMatrix::synthetic(["lassen"])
            .policies(["fcfs"])
            .backfills(["easy"])
            .power_caps_kw([None, Some(1200.0)]);
        let (_, cells) = m.expand().unwrap();
        assert_eq!(cells[0].label, "fcfs-easy");
        assert_eq!(cells[1].label, "fcfs-easy+cap1200");
    }

    #[test]
    fn close_power_caps_get_distinct_labels() {
        let m = ExperimentMatrix::synthetic(["lassen"])
            .policies(["fcfs"])
            .backfills(["easy"])
            .power_caps_kw([Some(1200.2), Some(1200.4)]);
        let (_, cells) = m.expand().unwrap();
        assert_eq!(cells[0].label, "fcfs-easy+cap1200.2");
        assert_eq!(cells[1].label, "fcfs-easy+cap1200.4");
    }

    #[test]
    fn expanded_cells_have_distinct_cache_keys() {
        // Every schedule-axis combination must fingerprint differently
        // over the same workload — aliasing keys would silently serve one
        // cell's metrics as another's.
        let m = ExperimentMatrix::synthetic(["lassen"])
            .policies(["fcfs", "sjf"])
            .backfills(["none", "easy"])
            .cooling([false, true])
            .power_caps_kw([None, Some(1200.0)]);
        let (plans, cells) = m.expand().unwrap();
        let wfp = plans[0].fingerprint().unwrap();
        let keys: std::collections::HashSet<String> =
            cells.iter().map(|c| c.fingerprint(wfp).hex()).collect();
        assert_eq!(keys.len(), cells.len(), "cache keys collided");
    }

    #[test]
    fn cap_at_salts_labels_and_keys_of_capped_cells_only() {
        let base = ExperimentMatrix::synthetic(["lassen"])
            .policies(["fcfs"])
            .backfills(["easy"])
            .power_caps_kw([None, Some(1200.0)]);
        let late = base.clone().power_cap_at(SimDuration::minutes(30));
        let (plans, plain) = base.expand().unwrap();
        let (_, deferred) = late.expand().unwrap();
        assert_eq!(deferred[0].label, "fcfs-easy");
        assert_eq!(deferred[1].label, "fcfs-easy+cap1200@1800s");
        assert_eq!(deferred[1].late_cap(), Some(SimDuration::minutes(30)));
        assert_eq!(deferred[0].late_cap(), None, "uncapped cell has no switch");
        let wfp = plans[0].fingerprint().unwrap();
        // An uncapped cell keeps its cache key across `--cap-at` settings;
        // a capped cell is salted by the switch instant.
        assert_eq!(plain[0].fingerprint(wfp), deferred[0].fingerprint(wfp));
        assert_ne!(plain[1].fingerprint(wfp), deferred[1].fingerprint(wfp));
        // The shared prefix of a deferred-cap cell keys like its uncapped
        // sibling's simulation prefix — cap stripped, switch salted in.
        let pfp = deferred[1].prefix_fingerprint(SimDuration::minutes(30));
        assert_eq!(
            pfp,
            deferred[0].prefix_fingerprint(SimDuration::minutes(30)),
            "cells differing only in cap share one prefix key"
        );
        assert_ne!(
            pfp,
            deferred[1].prefix_fingerprint(SimDuration::minutes(20))
        );
        assert_ne!(pfp, deferred[0].fingerprint(wfp));
    }

    #[test]
    fn duplicate_cells_are_rejected() {
        let m = ExperimentMatrix::synthetic(["lassen"]).pairs([("fcfs", "easy"), ("fcfs", "easy")]);
        let err = m.expand().unwrap_err();
        assert!(err.to_string().contains("duplicate cell label"), "{err}");
    }
}
