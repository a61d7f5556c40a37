//! Marconi100 / PM100 dataset: records with 20 s CPU and node power
//! traces, pre-curated but containing shared-node jobs that S-RAPS
//! filters ("we filter jobs containing shared nodes as this is not yet
//! supported in our model").

use crate::dataset::Dataset;
use crate::packer::pack_jobs_lagged;
use crate::synthetic::{account_power_bias, gen_trace_telemetry, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sraps_systems::SystemConfig;
use sraps_types::job::JobBuilder;
use sraps_types::{NodeSet, SimDuration};

/// One row of the PM100 job table (schema-faithful subset).
#[derive(Debug, Clone, PartialEq)]
pub struct Pm100Record {
    pub job_id: u64,
    pub user_id: u32,
    pub account_id: u32,
    pub submit_ts: i64,
    pub start_ts: i64,
    pub end_ts: i64,
    pub time_limit_secs: i64,
    pub num_nodes: u32,
    /// PM100 includes node-sharing jobs; the loader drops them.
    pub shared: bool,
    pub assigned_nodes: Vec<u32>,
    /// Per-node power at 20 s cadence, watts.
    pub node_power_w: Vec<f32>,
    /// CPU power at 20 s cadence, watts (kept schema-faithful; the model
    /// consumes utilization derived from it).
    pub cpu_power_w: Vec<f32>,
    /// CPU utilization in \[0,1\] at 20 s cadence.
    pub cpu_util: Vec<f32>,
    pub priority: f64,
}

/// Fraction of PM100 jobs that are shared-node (and thus filtered). The
/// real dataset is pre-curated but still carries them; we synthesize a
/// visible share so the filter path is exercised.
const SHARED_FRAC: f64 = 0.07;

/// Generate a PM100-shaped record set for the given spec.
pub fn generate(cfg: &SystemConfig, spec: &WorkloadSpec) -> Vec<Pm100Record> {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x9A9C_0001);
    let specs = spec.sample_specs(&mut rng);
    let packed = pack_jobs_lagged(specs, cfg.total_nodes, spec.sched_lag_max_secs, spec.seed);
    packed
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            let bias = account_power_bias(p.spec.account);
            let tel = gen_trace_telemetry(
                &mut rng,
                &cfg.node_power,
                p.end - p.start,
                cfg.trace_dt,
                true,
                bias,
            );
            let power = tel.node_power_w.as_ref().expect("trace fidelity").clone();
            let cpu_util = tel.cpu_util.as_ref().expect("trace fidelity").clone();
            let cpu_power: Vec<f32> = cpu_util
                .values
                .iter()
                .map(|&u| {
                    (cfg.node_power.cpu_idle_w
                        + (cfg.node_power.cpu_peak_w - cfg.node_power.cpu_idle_w) * u as f64)
                        as f32
                })
                .collect();
            Pm100Record {
                job_id: i as u64 + 1,
                user_id: p.spec.user,
                account_id: p.spec.account,
                submit_ts: p.spec.submit.as_secs(),
                start_ts: p.start.as_secs(),
                end_ts: p.end.as_secs(),
                time_limit_secs: p.spec.walltime.as_secs(),
                num_nodes: p.spec.nodes,
                shared: rng.gen_bool(SHARED_FRAC),
                assigned_nodes: p.placement.as_slice().to_vec(),
                node_power_w: power.values,
                cpu_power_w: cpu_power,
                cpu_util: cpu_util.values,
                priority: p.spec.priority,
            }
        })
        .collect()
}

/// Load PM100 records into a [`Dataset`]: filter shared-node jobs, attach
/// traces, carry the recorded placement for replay.
pub fn load(cfg: &SystemConfig, records: &[Pm100Record]) -> Dataset {
    let dt = cfg.trace_dt;
    let jobs = records
        .iter()
        .filter(|r| !r.shared)
        .map(|r| {
            let tel = sraps_types::JobTelemetry {
                cpu_util: Some(sraps_types::Trace::new(
                    SimDuration::ZERO,
                    dt,
                    r.cpu_util.clone(),
                )),
                gpu_util: None,
                mem_util: None,
                node_power_w: Some(sraps_types::Trace::new(
                    SimDuration::ZERO,
                    dt,
                    r.node_power_w.clone(),
                )),
                net_tx_mbs: None,
                net_rx_mbs: None,
                flags: Default::default(),
            };
            JobBuilder::new(r.job_id)
                .user(r.user_id)
                .account(r.account_id)
                .submit(sraps_types::SimTime::seconds(r.submit_ts))
                .window(
                    sraps_types::SimTime::seconds(r.start_ts),
                    sraps_types::SimTime::seconds(r.end_ts),
                )
                .walltime(SimDuration::seconds(r.time_limit_secs))
                .nodes(r.num_nodes)
                .placement(NodeSet::from_indices(r.assigned_nodes.clone()))
                .priority(r.priority)
                .telemetry(tel)
                .build()
        })
        .collect();
    Dataset::new(&cfg.name, jobs)
}

/// Convenience: generate + load in one step.
pub fn synthesize(cfg: &SystemConfig, spec: &WorkloadSpec) -> Dataset {
    load(cfg, &generate(cfg, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_systems::presets;

    fn small_spec(cfg: &SystemConfig) -> WorkloadSpec {
        let mut s = WorkloadSpec::for_system(cfg, 0.8, 42);
        s.span = SimDuration::hours(6);
        s
    }

    #[test]
    fn generator_emits_trace_records() {
        let cfg = presets::marconi100();
        let recs = generate(&cfg, &small_spec(&cfg));
        assert!(!recs.is_empty());
        for r in recs.iter().take(50) {
            assert!(r.submit_ts <= r.start_ts);
            assert!(r.start_ts < r.end_ts);
            assert_eq!(r.assigned_nodes.len(), r.num_nodes as usize);
            assert!(!r.node_power_w.is_empty());
            assert_eq!(r.node_power_w.len(), r.cpu_util.len());
        }
        assert!(recs.iter().any(|r| r.shared), "some shared jobs generated");
    }

    #[test]
    fn loader_filters_shared_jobs() {
        let cfg = presets::marconi100();
        let recs = generate(&cfg, &small_spec(&cfg));
        let shared = recs.iter().filter(|r| r.shared).count();
        let ds = load(&cfg, &recs);
        assert_eq!(ds.len(), recs.len() - shared);
        assert!(ds.jobs().iter().all(|j| j.recorded_nodes.is_some()));
    }

    #[test]
    fn recorded_schedule_is_feasible() {
        let cfg = presets::marconi100();
        let ds = synthesize(&cfg, &small_spec(&cfg));
        assert!(ds.peak_recorded_nodes() <= cfg.total_nodes as u64);
    }

    #[test]
    fn power_traces_within_envelope() {
        let cfg = presets::marconi100();
        let ds = synthesize(&cfg, &small_spec(&cfg));
        for j in ds.jobs().iter().take(30) {
            let t = j.telemetry.node_power_w.as_ref().unwrap();
            assert!(t.max() as f64 <= cfg.node_power.peak_node_w() * 1.3);
            assert!(t.min() as f64 >= cfg.node_power.idle_node_w() * 0.6);
        }
    }
}
