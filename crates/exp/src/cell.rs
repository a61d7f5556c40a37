//! Cells and workloads: the concrete units a sweep executes.
//!
//! [`WorkloadPlan`] describes *how to obtain* a dataset (synthesize by
//! system/load/seed, or use a prebuilt one); materializing it yields a
//! [`PrebuiltWorkload`], the dataset in memory, shared by every cell that
//! uses it; [`CellSpec`] is one simulation to run — it knows how to turn
//! itself into a [`SimConfig`] against its workload.

use crate::matrix::PrebuiltWorkload;
use sraps_acct::Accounts;
use sraps_core::{EngineMode, Fingerprint, Fingerprinter, SchedulerSelect, SimConfig};
use sraps_data::{Dataset, WorkloadSpec};
use sraps_systems::{presets, SystemConfig};
use sraps_types::{Result, SimDuration, SrapsError};
use std::sync::Arc;

/// How to obtain one workload of the sweep.
#[derive(Debug, Clone)]
pub enum WorkloadPlan {
    /// Synthesize a dataset shaped like the system's public dataset.
    Synthetic {
        label: String,
        /// Label minus the seed component — the key seed aggregation
        /// groups by (`lassen-l0.70` for `lassen-l0.70-s43`).
        group: String,
        system: String,
        load: f64,
        seed: u64,
        span: SimDuration,
        scale: f64,
    },
    /// Use a caller-provided dataset (boxed: it carries a full
    /// `SystemConfig`, far larger than the synthetic parameters).
    Prebuilt(Box<PrebuiltWorkload>),
}

impl WorkloadPlan {
    pub fn label(&self) -> String {
        match self {
            WorkloadPlan::Synthetic { label, .. } => label.clone(),
            WorkloadPlan::Prebuilt(w) => w.label.clone(),
        }
    }

    /// The seed-aggregation group this workload belongs to.
    pub fn group(&self) -> String {
        match self {
            WorkloadPlan::Synthetic { group, .. } => group.clone(),
            WorkloadPlan::Prebuilt(w) => w.label.clone(),
        }
    }

    /// The workload seed, when synthetic.
    pub fn seed(&self) -> Option<u64> {
        match self {
            WorkloadPlan::Synthetic { seed, .. } => Some(*seed),
            WorkloadPlan::Prebuilt(_) => None,
        }
    }

    /// Canonical content fingerprint of the workload this plan produces.
    ///
    /// Covers every field the simulation can observe. Synthetic plans
    /// hash their generator parameters plus the resolved (scaled) system
    /// config. Prebuilt plans hash the system config, the window bounds
    /// resolved as [`sraps_core::SimWindow::new`] resolves them, and each
    /// job [`Dataset::jobs_in_window`] selects (telemetry included) in
    /// dataset order — exactly what the engine reads of a dataset. Each
    /// job goes in field by field ([`Fingerprinter::write_job`]), not as
    /// Debug text. A window of a long trace thus costs its own jobs, found
    /// by binary search, not a pass over the whole trace, and edits
    /// outside the window keep its key. Labels and groups are cosmetic
    /// and deliberately excluded, so renaming a study does not orphan its
    /// cache entries.
    pub fn fingerprint(&self) -> Result<Fingerprint> {
        let mut fp = Fingerprinter::new();
        match self {
            WorkloadPlan::Synthetic {
                system,
                load,
                seed,
                span,
                scale,
                ..
            } => {
                fp.write_str("synthetic");
                fp.write_str(system);
                fp.write_f64(*load);
                fp.write_u64(*seed);
                fp.write_i64(span.as_secs());
                fp.write_f64(*scale);
                // The generators derive the dataset from the (scaled)
                // system config too — preset drift must miss the cache.
                fp.write_debug(&system_scaled(system, *scale)?);
            }
            WorkloadPlan::Prebuilt(w) => {
                let (start, end) = w.window.unzip();
                let (start, end) = w.dataset.resolve_window(start, end);
                fp.write_str("prebuilt-window-fields");
                fp.write_debug(&w.config);
                fp.write_i64(start.as_secs());
                fp.write_i64(end.as_secs());
                for job in w.dataset.jobs_in_window(start, end) {
                    fp.write_job(job);
                }
            }
        }
        Ok(fp.finish())
    }

    /// Build the dataset. Deterministic: same plan ⇒ identical workload.
    pub fn materialize(&self) -> Result<PrebuiltWorkload> {
        match self {
            WorkloadPlan::Prebuilt(w) => Ok((**w).clone()),
            WorkloadPlan::Synthetic {
                label,
                system,
                load,
                seed,
                span,
                scale,
                ..
            } => {
                let cfg = system_scaled(system, *scale)?;
                let mut spec = WorkloadSpec::for_system(&cfg, *load, *seed);
                spec.span = *span;
                let dataset = synthesize_by_name(system, &cfg, &spec)?;
                Ok(PrebuiltWorkload {
                    label: label.clone(),
                    config: cfg,
                    dataset: Arc::new(dataset),
                    window: None,
                })
            }
        }
    }
}

/// Look up a preset system by name, scaled down when `scale < 1`
/// (64-node floor, as the artifact's `--scale`).
pub fn system_scaled(name: &str, scale: f64) -> Result<SystemConfig> {
    let mut cfg = presets::system_by_name(name)
        .ok_or_else(|| SrapsError::Config(format!("unknown system '{name}'")))?;
    if scale < 1.0 {
        cfg = cfg.scaled_to(((cfg.total_nodes as f64 * scale).round() as u32).max(64));
    }
    Ok(cfg)
}

/// Dispatch to the per-system generator (the dataloaders of §3.2.2).
pub fn synthesize_by_name(
    system: &str,
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
) -> Result<Dataset> {
    Ok(match system {
        "frontier" => sraps_data::frontier::synthesize(cfg, spec),
        "marconi100" => sraps_data::marconi100::synthesize(cfg, spec),
        "fugaku" => sraps_data::fugaku::synthesize(cfg, spec),
        "lassen" => sraps_data::lassen::synthesize(cfg, spec),
        "adastra" | "adastraMI250" => sraps_data::adastra::synthesize(cfg, spec),
        other => return Err(SrapsError::Config(format!("no dataloader for '{other}'"))),
    })
}

/// One simulation of the sweep: a schedule-axis point bound to a workload.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Position in matrix order; results are collected by this index, which
    /// is what makes parallel output identical to serial.
    pub index: usize,
    /// Unique human-readable name (`fcfs-easy`, `lassen-s43/sjf-none`, …).
    pub label: String,
    /// Index into the matrix's workload list.
    pub workload: usize,
    pub policy: String,
    pub backfill: String,
    pub cooling: bool,
    pub power_cap_kw: Option<f64>,
    /// When set (and the cell is capped), the cap binds only from
    /// `sim_start + cap_at`: the runner simulates the uncapped prefix,
    /// snapshots at the switch instant, and resumes under the cap. Cells
    /// that differ only in `power_cap_kw` then share one prefix.
    pub cap_at: Option<SimDuration>,
    pub scheduler: SchedulerSelect,
    /// Collection-phase accounts for the experimental scheduler.
    pub accounts_in: Option<Accounts>,
}

impl CellSpec {
    /// Content-addressed cache key of this cell over `workload_fp` (its
    /// workload plan's [`WorkloadPlan::fingerprint`]).
    ///
    /// Hashes every sim-relevant schedule-axis field in fixed order; the
    /// positional fields (`index`, `workload`) and the display `label`
    /// are excluded, so the same simulation is shared across matrices
    /// that arrange or name it differently.
    pub fn fingerprint(&self, workload_fp: Fingerprint) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        fp.write_fingerprint(workload_fp);
        self.write_axes(&mut fp);
        fp.finish()
    }

    /// Hash every sim-relevant schedule-axis field in fixed order.
    fn write_axes(&self, fp: &mut Fingerprinter) {
        fp.write_str(&self.policy);
        fp.write_str(&self.backfill);
        fp.write_bool(self.cooling);
        fp.write_opt_f64(self.power_cap_kw);
        // The effective late-cap switch: only a *capped* cell observes
        // `cap_at`, so uncapped cells keep one key across `--cap-at`
        // settings.
        match self.late_cap() {
            Some(at) => {
                fp.write_u8(1);
                fp.write_i64(at.as_secs());
            }
            None => fp.write_u8(0),
        }
        fp.write_str(self.scheduler.name());
        // Cells always run the event core; its name stays in the key so
        // existing cache entries keep theirs.
        fp.write_str(EngineMode::Event.name());
        match &self.accounts_in {
            // `Accounts` holds a BTreeMap — Debug order is deterministic.
            Some(accounts) => {
                fp.write_u8(1);
                fp.write_debug(accounts);
            }
            None => fp.write_u8(0),
        }
    }

    /// The cap-switch offset, when this cell actually defers a cap:
    /// `Some` only if the cell is capped *and* a `cap_at` is set.
    pub fn late_cap(&self) -> Option<SimDuration> {
        match (self.power_cap_kw, self.cap_at) {
            (Some(_), Some(at)) => Some(at),
            _ => None,
        }
    }

    /// The cell this cell's shared prefix simulates: the same spec with
    /// the late-binding axes (the cap and its switch time) stripped.
    pub fn prefix_spec(&self) -> CellSpec {
        let mut prefix = self.clone();
        prefix.power_cap_kw = None;
        prefix.cap_at = None;
        prefix
    }

    /// Key of this cell's prefix run within its workload: the stripped
    /// spec's schedule axes salted with the switch instant. Cells of one
    /// workload whose late-binding axes diverge only *after* `switch`
    /// share the key, and a sweep simulates their prefix once. It has no
    /// workload part: prefixes are shared only inside one workload's
    /// [`crate::WorkloadMemo`], never stored.
    pub fn prefix_fingerprint(&self, switch: SimDuration) -> Fingerprint {
        let mut fp = Fingerprinter::new();
        fp.write_str("prefix");
        self.prefix_spec().write_axes(&mut fp);
        fp.write_i64(switch.as_secs());
        fp.finish()
    }

    /// Materialize the cell's [`SimConfig`] against its workload.
    pub fn build_sim(&self, workload: &PrebuiltWorkload) -> Result<SimConfig> {
        let mut sim = SimConfig::new(workload.config.clone(), &self.policy, &self.backfill)?;
        if let Some((start, end)) = workload.window {
            sim = sim.with_window(start, end);
        }
        if self.cooling {
            sim = sim.with_cooling();
        }
        if let Some(cap) = self.power_cap_kw {
            sim = sim.with_power_cap(cap);
        }
        sim = sim.with_scheduler(self.scheduler.clone());
        if let Some(accounts) = &self.accounts_in {
            sim = sim.with_accounts_json(accounts.clone());
        }
        sim.validate()?;
        Ok(sim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_plan_materializes_deterministically() {
        let plan = WorkloadPlan::Synthetic {
            label: "lassen-s7".into(),
            group: "lassen".into(),
            system: "lassen".into(),
            load: 0.5,
            seed: 7,
            span: SimDuration::hours(2),
            scale: 1.0,
        };
        let a = plan.materialize().unwrap();
        let b = plan.materialize().unwrap();
        assert!(!a.dataset.is_empty());
        assert_eq!(a.dataset.jobs(), b.dataset.jobs());
        assert_eq!(a.config.name, "lassen");
    }

    #[test]
    fn cell_builds_a_valid_sim() {
        let plan = WorkloadPlan::Synthetic {
            label: "adastra".into(),
            group: "adastra".into(),
            system: "adastra".into(),
            load: 0.4,
            seed: 1,
            span: SimDuration::hours(1),
            scale: 1.0,
        };
        let w = plan.materialize().unwrap();
        let cell = CellSpec {
            index: 0,
            label: "fcfs-easy".into(),
            workload: 0,
            policy: "fcfs".into(),
            backfill: "easy".into(),
            cooling: true,
            power_cap_kw: None,
            cap_at: None,
            scheduler: SchedulerSelect::Default,
            accounts_in: None,
        };
        let sim = cell.build_sim(&w).unwrap();
        assert!(sim.cooling);
        assert_eq!(sim.policy.name(), "fcfs");
    }

    #[test]
    fn unknown_system_is_a_config_error() {
        let plan = WorkloadPlan::Synthetic {
            label: "x".into(),
            group: "x".into(),
            system: "summit".into(),
            load: 0.5,
            seed: 1,
            span: SimDuration::hours(1),
            scale: 1.0,
        };
        assert!(plan.materialize().is_err());
    }
}
