//! [`Report`]: aggregation of sweep results into comparison tables.
//!
//! A report has one row per cell, each carrying the cell's
//! [`CellMetrics`] plus deltas against a **baseline cell of the same
//! workload** (by default the workload's first cell — for the figure
//! studies that is the replay run, matching how the paper reports
//! "vs. replay" numbers). When the matrix swept multiple seeds, a
//! seed-aggregated summary (mean over seeds, grouped by workload group ×
//! cell kind) is appended.
//!
//! Export formats:
//! * [`Report::render_table`] — aligned text for terminals;
//! * [`Report::to_csv`] — one row per cell (+ summary rows);
//! * [`Report::to_json`] — the full structure via the serde shim.
//!
//! Every number is simulation-derived (never wall clock), so report text
//! is bit-identical across `--jobs` settings.

use crate::metrics::CellMetrics;
use crate::runner::SweepResults;
use serde::Serialize;

/// One comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct ReportRow {
    pub workload: String,
    pub cell: String,
    pub metrics: CellMetrics,
    /// Relative mean-wait change vs the baseline cell, percent.
    pub d_wait_pct: Option<f64>,
    /// Utilization change vs baseline, percentage points.
    pub d_util_pp: Option<f64>,
    /// Relative mean-power change vs baseline, percent.
    pub d_power_pct: Option<f64>,
    /// Relative energy change vs baseline, percent.
    pub d_energy_pct: Option<f64>,
    /// True for the row the deltas are measured against.
    pub is_baseline: bool,
}

/// Seed-aggregated summary row (only present for multi-seed sweeps).
#[derive(Debug, Clone, Serialize)]
pub struct SummaryRow {
    pub group: String,
    pub cell_kind: String,
    pub seeds: usize,
    pub metrics: CellMetrics,
}

/// A cell that failed. Kept out of [`Report::rows`] (its
/// placeholder metrics would poison baselines and seed means) and listed
/// here instead.
#[derive(Debug, Clone, Serialize)]
pub struct FailedRow {
    pub workload: String,
    pub cell: String,
    pub attempts: u32,
    pub error: String,
}

#[derive(Debug, Clone, Serialize)]
pub struct Report {
    pub rows: Vec<ReportRow>,
    pub summary: Vec<SummaryRow>,
    /// Cells that failed permanently (empty on a healthy sweep).
    pub failed: Vec<FailedRow>,
    /// The `<policy>-<backfill>` kind deltas are measured against, when
    /// one applied.
    pub baseline: Option<String>,
}

/// `<policy>-<backfill>` plus the cooling/cap suffixes — the cell's
/// identity with the workload prefix stripped.
fn cell_kind(label: &str) -> String {
    match label.rsplit_once('/') {
        Some((_, kind)) => kind.to_string(),
        None => label.to_string(),
    }
}

fn pct(new: f64, base: f64) -> Option<f64> {
    (base.abs() > 1e-12).then(|| (new - base) / base * 100.0)
}

impl Report {
    /// Deltas against each workload's first cell.
    pub fn from_results(results: &SweepResults) -> Report {
        Self::build(results, None)
    }

    /// Deltas against the cell whose kind (label minus workload prefix)
    /// matches `baseline` in each workload group, e.g. `"replay-none"`.
    pub fn with_baseline(results: &SweepResults, baseline: &str) -> Report {
        Self::build(results, Some(baseline))
    }

    fn build(results: &SweepResults, baseline: Option<&str>) -> Report {
        let mut rows = Vec::with_capacity(results.cells.len());
        let mut resolved_baseline: Option<String> = baseline.map(str::to_string);
        for (_, cells) in results.by_workload() {
            // Failed cells never become rows, baselines, or summary
            // members — their all-zero placeholder metrics would poison
            // every delta they touch.
            let cells: Vec<_> = cells.into_iter().filter(|c| c.failure.is_none()).collect();
            let base = match baseline {
                Some(kind) => cells
                    .iter()
                    .copied()
                    .find(|c| cell_kind(&c.spec.label) == kind),
                None => cells.first().copied(),
            };
            if baseline.is_none() {
                if let Some(b) = base {
                    // Record the implicit baseline kind (first cell).
                    resolved_baseline.get_or_insert_with(|| cell_kind(&b.spec.label));
                }
            }
            for cell in cells {
                let (m, b) = (&cell.metrics, base.map(|b| &b.metrics));
                let is_baseline = base
                    .map(|b| b.spec.index == cell.spec.index)
                    .unwrap_or(false);
                rows.push(ReportRow {
                    workload: cell.workload_label.clone(),
                    cell: cell.spec.label.clone(),
                    metrics: m.clone(),
                    d_wait_pct: b.and_then(|b| pct(m.avg_wait_secs, b.avg_wait_secs)),
                    d_util_pp: b.map(|b| (m.mean_utilization - b.mean_utilization) * 100.0),
                    d_power_pct: b.and_then(|b| pct(m.mean_power_kw, b.mean_power_kw)),
                    d_energy_pct: b.and_then(|b| pct(m.energy_mwh, b.energy_mwh)),
                    is_baseline,
                });
            }
        }
        Report {
            rows,
            summary: Self::seed_summary(results),
            failed: results
                .failed_cells()
                .into_iter()
                .map(|c| {
                    let f = c.failure.as_ref().expect("failed_cells filters on failure");
                    FailedRow {
                        workload: c.workload_label.clone(),
                        cell: c.spec.label.clone(),
                        attempts: f.attempts,
                        error: f.error.clone(),
                    }
                })
                .collect(),
            baseline: resolved_baseline,
        }
    }

    /// Mean metrics per (workload group, cell kind) across seeds, in first-
    /// appearance order; empty unless some group spans several seeds.
    fn seed_summary(results: &SweepResults) -> Vec<SummaryRow> {
        let mut keys: Vec<(String, String)> = Vec::new();
        for cell in &results.cells {
            let key = (cell.workload_group.clone(), cell_kind(&cell.spec.label));
            if !keys.contains(&key) {
                keys.push(key);
            }
        }
        let mut out = Vec::new();
        let mut multi_seed = false;
        for (group, kind) in keys {
            let members: Vec<&CellMetrics> = results
                .cells
                .iter()
                .filter(|c| {
                    c.failure.is_none()
                        && c.workload_group == group
                        && cell_kind(&c.spec.label) == kind
                })
                .map(|c| &c.metrics)
                .collect();
            if members.len() > 1 {
                multi_seed = true;
            }
            if let Some(mean) = CellMetrics::mean(&members) {
                out.push(SummaryRow {
                    group,
                    cell_kind: kind,
                    seeds: members.len(),
                    metrics: mean,
                });
            }
        }
        if multi_seed {
            out
        } else {
            Vec::new() // summary would duplicate the rows 1:1
        }
    }

    /// Aligned text table (plus the seed summary when present).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        let header = format!(
            "{:<26} {:>6} {:>7} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}\n",
            "cell",
            "jobs",
            "util%",
            "meanP_kW",
            "peakP_kW",
            "MWh",
            "wait_s",
            "p99_s",
            "Δwait%",
            "Δutil",
            "ΔMWh%"
        );
        let mut last_workload: Option<&str> = None;
        for row in &self.rows {
            if last_workload != Some(row.workload.as_str()) {
                s.push_str(&format!("workload {}\n", row.workload));
                s.push_str(&header);
                last_workload = Some(row.workload.as_str());
            }
            let delta = |v: Option<f64>| match v {
                Some(x) => format!("{x:+.1}"),
                None => "-".to_string(),
            };
            s.push_str(&format!(
                "{:<26} {:>6} {:>7.1} {:>10.1} {:>10.1} {:>9.2} {:>9.0} {:>9.0} {:>8} {:>8} {:>8}{}\n",
                cell_kind(&row.cell),
                row.metrics.jobs_completed,
                row.metrics.mean_utilization * 100.0,
                row.metrics.mean_power_kw,
                row.metrics.peak_power_kw,
                row.metrics.energy_mwh,
                row.metrics.avg_wait_secs,
                row.metrics.p99_wait_secs,
                delta(row.d_wait_pct),
                delta(row.d_util_pp),
                delta(row.d_energy_pct),
                if row.is_baseline { "  *base" } else { "" },
            ));
        }
        if !self.summary.is_empty() {
            s.push_str("\nseed-averaged summary\n");
            s.push_str(&format!(
                "{:<20} {:<22} {:>5} {:>7} {:>10} {:>9} {:>9}\n",
                "group", "cell", "seeds", "util%", "meanP_kW", "MWh", "wait_s"
            ));
            for row in &self.summary {
                s.push_str(&format!(
                    "{:<20} {:<22} {:>5} {:>7.1} {:>10.1} {:>9.2} {:>9.0}\n",
                    row.group,
                    row.cell_kind,
                    row.seeds,
                    row.metrics.mean_utilization * 100.0,
                    row.metrics.mean_power_kw,
                    row.metrics.energy_mwh,
                    row.metrics.avg_wait_secs,
                ));
            }
        }
        s
    }

    /// Aligned text table of permanently failed cells; empty string when
    /// the sweep was healthy. The CLI prints this after the main table
    /// (and exits nonzero) whenever it is non-empty.
    pub fn render_failed_table(&self) -> String {
        if self.failed.is_empty() {
            return String::new();
        }
        let mut s = String::from("failed cells\n");
        s.push_str(&format!("{:<26} {:>8}  {}\n", "cell", "attempts", "error"));
        for row in &self.failed {
            s.push_str(&format!(
                "{:<26} {:>8}  {}\n",
                cell_kind(&row.cell),
                row.attempts,
                row.error
            ));
        }
        s
    }

    /// CSV: one row per cell; summary rows carry `kind=summary`.
    pub fn to_csv(&self) -> String {
        let mut s = String::from(
            "kind,workload,cell,seeds,jobs_completed,jobs_censored,mean_utilization,\
             mean_power_kw,peak_power_kw,max_power_swing_kw,energy_mwh,avg_wait_secs,\
             p99_wait_secs,avg_turnaround_secs,run_pue,d_wait_pct,d_util_pp,d_power_pct,\
             d_energy_pct,is_baseline\n",
        );
        let opt = |v: Option<f64>| v.map(|x| format!("{x:.6}")).unwrap_or_default();
        for row in &self.rows {
            let m = &row.metrics;
            s.push_str(&format!(
                "cell,{},{},1,{},{},{:.6},{:.3},{:.3},{:.3},{:.6},{:.3},{:.3},{:.3},{},{},{},{},{},{}\n",
                row.workload,
                row.cell,
                m.jobs_completed,
                m.jobs_censored,
                m.mean_utilization,
                m.mean_power_kw,
                m.peak_power_kw,
                m.max_power_swing_kw,
                m.energy_mwh,
                m.avg_wait_secs,
                m.p99_wait_secs,
                m.avg_turnaround_secs,
                opt(m.run_pue),
                opt(row.d_wait_pct),
                opt(row.d_util_pp),
                opt(row.d_power_pct),
                opt(row.d_energy_pct),
                row.is_baseline,
            ));
        }
        for row in &self.summary {
            let m = &row.metrics;
            s.push_str(&format!(
                "summary,{},{},{},{},{},{:.6},{:.3},{:.3},{:.3},{:.6},{:.3},{:.3},{:.3},{},,,,,\n",
                row.group,
                row.cell_kind,
                row.seeds,
                m.jobs_completed,
                m.jobs_censored,
                m.mean_utilization,
                m.mean_power_kw,
                m.peak_power_kw,
                m.max_power_swing_kw,
                m.energy_mwh,
                m.avg_wait_secs,
                m.p99_wait_secs,
                m.avg_turnaround_secs,
                opt(m.run_pue),
            ));
        }
        s
    }

    /// Pretty JSON of the whole report.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// The `--profile` view of a sweep: a per-cell breakdown (source and
    /// wall time of each cell, cache hits reporting their cache-read time
    /// rather than zeroed engine phases) followed by the aggregated
    /// phase/counter table from [`SweepResults::profile`].
    ///
    /// Wall-clock numbers vary run to run by nature; the *counters* in
    /// the aggregate table are deterministic for any `--jobs` value.
    pub fn render_profile_table(results: &SweepResults) -> String {
        let mut s = format!(
            "sweep profile: {} cells ({} cached, {} simulated), jobs={}, wall {}\n",
            results.cells.len(),
            results.cache_hits(),
            results.cache_misses(),
            results.jobs,
            sraps_obs::format_ns(results.wall.as_nanos().min(u64::MAX as u128) as u64),
        );
        if results.cells.iter().any(|c| c.profile.is_some()) {
            s.push_str(&format!(
                "\n{:<40} {:>9} {:>10} {:>12} {:>12}\n",
                "cell", "source", "time", "sched_calls", "ticks_skip"
            ));
            for cell in &results.cells {
                let Some(p) = &cell.profile else { continue };
                let cell_ns = p
                    .phase(sraps_obs::Phase::SweepCell.name())
                    .map_or(0, |ph| ph.total_ns);
                s.push_str(&format!(
                    "{:<40} {:>9} {:>10} {:>12} {:>12}\n",
                    cell.spec.label,
                    if cell.from_cache { "cache" } else { "sim" },
                    sraps_obs::format_ns(cell_ns),
                    p.counter(sraps_obs::Counter::SchedInvocations.name()),
                    p.counter(sraps_obs::Counter::EngineTicksSkipped.name()),
                ));
            }
        }
        s.push('\n');
        s.push_str(&results.profile().render_table());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ExperimentMatrix, SweepRunner};
    use sraps_types::SimDuration;

    fn results(seeds: u64) -> SweepResults {
        SweepRunner::new(2)
            .run(
                &ExperimentMatrix::synthetic(["lassen"])
                    .span(SimDuration::hours(2))
                    .loads([0.6])
                    .seed_count(seeds)
                    .pairs([("replay", "none"), ("fcfs", "easy")]),
            )
            .unwrap()
    }

    #[test]
    fn baseline_defaults_to_first_cell_per_workload() {
        let r = Report::from_results(&results(1));
        assert_eq!(r.rows.len(), 2);
        assert!(r.rows[0].is_baseline);
        assert_eq!(r.rows[0].d_wait_pct.map(|d| d.abs() < 1e-9), Some(true));
        assert!(!r.rows[1].is_baseline);
        assert_eq!(r.baseline.as_deref(), Some("replay-none"));
        assert!(r.summary.is_empty(), "single seed ⇒ no summary");
    }

    #[test]
    fn explicit_baseline_by_kind() {
        let r = Report::with_baseline(&results(1), "fcfs-easy");
        assert!(r.rows[1].is_baseline);
        assert!(!r.rows[0].is_baseline);
        assert_eq!(r.baseline.as_deref(), Some("fcfs-easy"));
    }

    #[test]
    fn seed_summary_appears_for_multi_seed() {
        let r = Report::from_results(&results(2));
        assert_eq!(r.rows.len(), 4);
        assert_eq!(r.summary.len(), 2, "one summary row per cell kind");
        assert_eq!(r.summary[0].seeds, 2);
        assert_eq!(r.summary[0].group, "lassen");
    }

    #[test]
    fn exports_are_consistent() {
        let r = Report::from_results(&results(2));
        let csv = r.to_csv();
        assert_eq!(csv.lines().count(), 1 + 4 + 2);
        assert!(csv.starts_with("kind,workload,cell"));
        let json = r.to_json();
        assert!(json.contains("\"baseline\": \"replay-none\""));
        assert!(json.contains("\"summary\""));
        // Deterministic: rebuilding produces identical text.
        let r2 = Report::from_results(&results(2));
        assert_eq!(r2.to_csv(), csv);
        assert_eq!(r2.to_json(), json);
        assert_eq!(r2.render_table(), r.render_table());
    }
}
