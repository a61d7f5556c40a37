//! Fugaku / F-Data dataset: monthly job-summary records with node power
//! (min/max/avg), consumed energy, operation/memory counters and a derived
//! performance class (compute- vs memory-bound).

use crate::dataset::Dataset;
use crate::packer::pack_jobs_lagged;
use crate::synthetic::{account_power_bias, gen_summary_telemetry, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sraps_systems::SystemConfig;
use sraps_types::job::JobBuilder;
use sraps_types::{SimDuration, SimTime};

/// F-Data's job classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfClass {
    ComputeBound,
    MemoryBound,
}

/// One F-Data job-summary row (schema-faithful subset).
#[derive(Debug, Clone, PartialEq)]
pub struct FDataRecord {
    pub job_id: u64,
    pub user_id: u32,
    pub account_id: u32,
    pub submit_ts: i64,
    pub start_ts: i64,
    pub end_ts: i64,
    pub time_limit_secs: i64,
    pub num_nodes: u32,
    /// Node power summary, watts.
    pub node_power_min_w: f32,
    pub node_power_avg_w: f32,
    pub node_power_max_w: f32,
    /// Total energy consumed, joules.
    pub energy_j: f64,
    /// Floating-point operation count (synthetic scale).
    pub flop_count: f64,
    /// Memory traffic, bytes (synthetic scale).
    pub mem_bytes: f64,
    pub perf_class: PerfClass,
    pub priority: f64,
}

/// Generate F-Data-shaped records.
pub fn generate(cfg: &SystemConfig, spec: &WorkloadSpec) -> Vec<FDataRecord> {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xF06A_0003);
    let specs = spec.sample_specs(&mut rng);
    let packed = pack_jobs_lagged(specs, cfg.total_nodes, spec.sched_lag_max_secs, spec.seed);
    packed
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let bias = account_power_bias(p.spec.account);
            let tel = gen_summary_telemetry(&mut rng, &cfg.node_power, false, bias);
            let avg_w = tel.node_power_w.as_ref().unwrap().mean();
            let spread = rng.gen_range(0.05..0.3) * avg_w;
            let runtime_s = (p.end - p.start).as_secs_f64();
            let perf_class = if rng.gen_bool(0.55) {
                PerfClass::ComputeBound
            } else {
                PerfClass::MemoryBound
            };
            // Compute-bound jobs burn flops; memory-bound ones move bytes.
            let (flops, mem) = match perf_class {
                PerfClass::ComputeBound => (runtime_s * 2.0e12, runtime_s * 0.4e9),
                PerfClass::MemoryBound => (runtime_s * 0.3e12, runtime_s * 2.5e9),
            };
            FDataRecord {
                job_id: i as u64 + 1,
                user_id: p.spec.user,
                account_id: p.spec.account,
                submit_ts: p.spec.submit.as_secs(),
                start_ts: p.start.as_secs(),
                end_ts: p.end.as_secs(),
                time_limit_secs: p.spec.walltime.as_secs(),
                num_nodes: p.spec.nodes,
                node_power_min_w: (avg_w - spread).max(0.0),
                node_power_avg_w: avg_w,
                node_power_max_w: avg_w + spread,
                energy_j: avg_w as f64 * p.spec.nodes as f64 * runtime_s,
                flop_count: flops,
                mem_bytes: mem,
                perf_class,
                priority: p.spec.priority,
            }
        })
        .collect()
}

/// Load F-Data records: scalar telemetry, no recorded placement (F-Data
/// publishes no node lists, so replay uses count-based placement).
pub fn load(cfg: &SystemConfig, records: &[FDataRecord]) -> Dataset {
    let jobs = records
        .iter()
        .map(|r| {
            // Derive a CPU utilization proxy from where the job's average
            // power sits in the node envelope.
            let idle = cfg.node_power.idle_node_w();
            let peak = cfg.node_power.peak_node_w();
            let util = ((r.node_power_avg_w as f64 - idle) / (peak - idle)).clamp(0.0, 1.0);
            let tel =
                sraps_types::JobTelemetry::from_scalars(util as f32, None, r.node_power_avg_w);
            JobBuilder::new(r.job_id)
                .user(r.user_id)
                .account(r.account_id)
                .submit(SimTime::seconds(r.submit_ts))
                .window(SimTime::seconds(r.start_ts), SimTime::seconds(r.end_ts))
                .walltime(SimDuration::seconds(r.time_limit_secs))
                .nodes(r.num_nodes)
                .priority(r.priority)
                .telemetry(tel)
                .build()
        })
        .collect();
    Dataset::new(&cfg.name, jobs)
}

/// Generate + load.
pub fn synthesize(cfg: &SystemConfig, spec: &WorkloadSpec) -> Dataset {
    load(cfg, &generate(cfg, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_systems::presets;

    fn cfg_small() -> SystemConfig {
        presets::fugaku().scaled_to(2048)
    }

    #[test]
    fn summaries_are_consistent() {
        let cfg = cfg_small();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.6, 11);
        spec.span = SimDuration::hours(8);
        let recs = generate(&cfg, &spec);
        assert!(!recs.is_empty());
        for r in &recs {
            assert!(r.node_power_min_w <= r.node_power_avg_w);
            assert!(r.node_power_avg_w <= r.node_power_max_w);
            let expected_energy =
                r.node_power_avg_w as f64 * r.num_nodes as f64 * (r.end_ts - r.start_ts) as f64;
            assert!((r.energy_j - expected_energy).abs() / expected_energy.max(1.0) < 1e-6);
        }
        assert!(recs.iter().any(|r| r.perf_class == PerfClass::ComputeBound));
        assert!(recs.iter().any(|r| r.perf_class == PerfClass::MemoryBound));
    }

    #[test]
    fn loader_builds_scalar_jobs_without_placement() {
        let cfg = cfg_small();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.6, 12);
        spec.span = SimDuration::hours(8);
        let ds = synthesize(&cfg, &spec);
        assert!(!ds.is_empty());
        assert!(ds.jobs().iter().all(|j| j.recorded_nodes.is_none()));
        assert!(ds
            .jobs()
            .iter()
            .all(|j| j.telemetry.node_power_w.as_ref().unwrap().len() == 1));
    }

    #[test]
    fn perf_class_drives_counters() {
        let cfg = cfg_small();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.5, 13);
        spec.span = SimDuration::hours(8);
        let recs = generate(&cfg, &spec);
        for r in recs {
            match r.perf_class {
                PerfClass::ComputeBound => assert!(r.flop_count / r.mem_bytes > 1e2),
                PerfClass::MemoryBound => assert!(r.flop_count / r.mem_bytes < 1e3),
            }
        }
    }
}
