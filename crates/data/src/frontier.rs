//! Frontier dataset: 15 s CPU/GPU power traces from Slurm + Cray EX
//! telemetry (STREAM). The real excerpt is proprietary; the generator
//! reproduces its documented shape, including the site's priority rule —
//! "a modified FIFO queue, boosted based on node count and penalized on
//! allocation overuse" \[16\].

use crate::dataset::Dataset;
use crate::packer::{pack_jobs_lagged, JobSpec};
use crate::synthetic::{account_power_bias, gen_trace_telemetry, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sraps_systems::SystemConfig;
use sraps_types::job::JobBuilder;
use sraps_types::{NodeSet, SimDuration, SimTime};

/// One Frontier job with its telemetry excerpt.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierRecord {
    pub job_id: u64,
    pub user_id: u32,
    pub account_id: u32,
    pub submit_ts: i64,
    pub start_ts: i64,
    pub end_ts: i64,
    pub time_limit_secs: i64,
    pub num_nodes: u32,
    pub assigned_nodes: Vec<u32>,
    /// Per-node total power at 15 s, watts.
    pub node_power_w: Vec<f32>,
    /// CPU utilization at 15 s.
    pub cpu_util: Vec<f32>,
    /// GPU utilization at 15 s.
    pub gpu_util: Vec<f32>,
    /// Slurm priority after node-count boost / overuse penalty.
    pub priority: f64,
}

/// Frontier's priority rule: FIFO boosted by node count, penalized when the
/// account has overused its allocation. We model overuse as a per-account
/// deterministic flag (~25 % of accounts).
pub fn frontier_priority(nodes: u32, account: u32) -> f64 {
    let boost = (nodes as f64).ln_1p() * 2.0;
    let overused = account.is_multiple_of(4);
    let penalty = if overused { 3.0 } else { 0.0 };
    boost - penalty
}

/// Extra wide jobs to inject (node count, duration, submit) — scenario
/// hooks for the Fig 6 "three full-system runs".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WideJob {
    pub nodes: u32,
    pub duration: SimDuration,
    pub submit: SimTime,
}

/// Generate Frontier-shaped records: background mix from `spec` plus the
/// injected `wide_jobs`.
pub fn generate_with_wide_jobs(
    cfg: &SystemConfig,
    spec: &WorkloadSpec,
    wide_jobs: &[WideJob],
) -> Vec<FrontierRecord> {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0xF0_0002);
    let mut specs = spec.sample_specs(&mut rng);
    for (i, w) in wide_jobs.iter().enumerate() {
        specs.push(JobSpec {
            submit: w.submit,
            duration: w.duration,
            walltime: SimDuration::seconds((w.duration.as_secs() as f64 * 1.2) as i64),
            nodes: w.nodes,
            user: 1000 + i as u32,
            account: 100 + i as u32,
            priority: frontier_priority(w.nodes, 100 + i as u32),
        });
    }
    for s in &mut specs {
        s.priority = frontier_priority(s.nodes, s.account);
    }
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
            FrontierRecord {
                job_id: i as u64 + 1,
                user_id: p.spec.user,
                account_id: p.spec.account,
                submit_ts: p.spec.submit.as_secs(),
                start_ts: p.start.as_secs(),
                end_ts: p.end.as_secs(),
                time_limit_secs: p.spec.walltime.as_secs(),
                num_nodes: p.spec.nodes,
                assigned_nodes: p.placement.as_slice().to_vec(),
                node_power_w: tel.node_power_w.as_ref().unwrap().values.clone(),
                cpu_util: tel.cpu_util.as_ref().unwrap().values.clone(),
                gpu_util: tel.gpu_util.as_ref().unwrap().values.clone(),
                priority: p.spec.priority,
            }
        })
        .collect()
}

/// Generate without injected wide jobs.
pub fn generate(cfg: &SystemConfig, spec: &WorkloadSpec) -> Vec<FrontierRecord> {
    generate_with_wide_jobs(cfg, spec, &[])
}

/// Load Frontier records into a [`Dataset`].
pub fn load(cfg: &SystemConfig, records: &[FrontierRecord]) -> Dataset {
    let dt = cfg.trace_dt;
    let jobs = records
        .iter()
        .map(|r| {
            let tel = sraps_types::JobTelemetry {
                cpu_util: Some(sraps_types::Trace::new(
                    SimDuration::ZERO,
                    dt,
                    r.cpu_util.clone(),
                )),
                gpu_util: Some(sraps_types::Trace::new(
                    SimDuration::ZERO,
                    dt,
                    r.gpu_util.clone(),
                )),
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
                .submit(SimTime::seconds(r.submit_ts))
                .window(SimTime::seconds(r.start_ts), SimTime::seconds(r.end_ts))
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

/// Generate + load.
pub fn synthesize(cfg: &SystemConfig, spec: &WorkloadSpec) -> Dataset {
    load(cfg, &generate(cfg, spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_systems::presets;

    fn cfg_small() -> SystemConfig {
        presets::frontier().scaled_to(512)
    }

    fn spec(cfg: &SystemConfig) -> WorkloadSpec {
        let mut s = WorkloadSpec::for_system(cfg, 0.8, 7);
        s.span = SimDuration::hours(6);
        s
    }

    #[test]
    fn priority_boosts_wide_jobs_and_penalizes_overuse() {
        assert!(frontier_priority(4096, 1) > frontier_priority(2, 1));
        assert!(
            frontier_priority(64, 4) < frontier_priority(64, 1),
            "account 4 overused"
        );
    }

    #[test]
    fn wide_job_injection_lands_in_dataset() {
        let cfg = cfg_small();
        let wide = WideJob {
            nodes: 500,
            duration: SimDuration::hours(1),
            submit: SimTime::seconds(3600),
        };
        let recs = generate_with_wide_jobs(&cfg, &spec(&cfg), &[wide]);
        assert!(recs.iter().any(|r| r.num_nodes == 500));
        let ds = load(&cfg, &recs);
        assert!(ds.peak_recorded_nodes() <= cfg.total_nodes as u64);
    }

    #[test]
    fn records_have_gpu_traces() {
        let cfg = cfg_small();
        let recs = generate(&cfg, &spec(&cfg));
        assert!(!recs.is_empty());
        assert!(recs.iter().all(|r| !r.gpu_util.is_empty()));
        let ds = load(&cfg, &recs);
        assert!(ds.jobs().iter().all(|j| j.telemetry.gpu_util.is_some()));
    }

    #[test]
    fn dataset_roundtrip_preserves_counts() {
        let cfg = cfg_small();
        let recs = generate(&cfg, &spec(&cfg));
        let ds = load(&cfg, &recs);
        assert_eq!(ds.len(), recs.len(), "frontier loader keeps all records");
    }
}
