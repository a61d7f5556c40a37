//! Lassen / LAST dataset: 1.4 M jobs recorded as separate *allocation* and
//! *job-step* tables that must be combined "to get usable information for
//! each job allocated with accumulated energy data", plus network tx/rx.

use crate::dataset::Dataset;
use crate::packer::pack_jobs_lagged;
use crate::synthetic::{account_power_bias, gen_summary_telemetry, WorkloadSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sraps_systems::SystemConfig;
use sraps_types::job::JobBuilder;
use sraps_types::{JobTelemetry, SimDuration, SimTime, Trace};

/// LSF allocation record (one per job allocation).
#[derive(Debug, Clone, PartialEq)]
pub struct LastAllocation {
    pub alloc_id: u64,
    pub user_hash: u32,
    pub account_hash: u32,
    pub submit_ts: i64,
    pub begin_ts: i64,
    pub end_ts: i64,
    pub time_limit_secs: i64,
    pub num_nodes: u32,
}

/// Job-step disposition record (several per allocation).
#[derive(Debug, Clone, PartialEq)]
pub struct LastStep {
    pub alloc_id: u64,
    pub step_index: u32,
    /// Energy accumulated over the step, joules.
    pub energy_j: f64,
    /// Network traffic of the step, MB.
    pub net_tx_mb: f64,
    pub net_rx_mb: f64,
    pub exit_status: i32,
}

/// Generate LAST-shaped allocation + step tables.
pub fn generate(cfg: &SystemConfig, spec: &WorkloadSpec) -> (Vec<LastAllocation>, Vec<LastStep>) {
    let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x1A55_0004);
    let specs = spec.sample_specs(&mut rng);
    let packed = pack_jobs_lagged(specs, cfg.total_nodes, spec.sched_lag_max_secs, spec.seed);
    let mut allocs = Vec::with_capacity(packed.len());
    let mut steps = Vec::new();
    for (i, p) in packed.into_iter().enumerate() {
        let alloc_id = i as u64 + 1;
        let bias = account_power_bias(p.spec.account);
        let tel = gen_summary_telemetry(&mut rng, &cfg.node_power, true, bias);
        let avg_w = tel.node_power_w.as_ref().unwrap().mean() as f64;
        let runtime_s = (p.end - p.start).as_secs_f64();
        let total_energy = avg_w * p.spec.nodes as f64 * runtime_s;
        // Split the allocation's energy across 1–4 steps.
        let n_steps = rng.gen_range(1..=4u32);
        let mut remaining = total_energy;
        for s in 0..n_steps {
            let frac = if s == n_steps - 1 {
                1.0
            } else {
                rng.gen_range(0.1..0.5)
            };
            let e = remaining * frac;
            remaining -= e;
            steps.push(LastStep {
                alloc_id,
                step_index: s,
                energy_j: e,
                net_tx_mb: rng.gen_range(1.0..5000.0),
                net_rx_mb: rng.gen_range(1.0..5000.0),
                exit_status: if rng.gen_bool(0.97) { 0 } else { 1 },
            });
        }
        allocs.push(LastAllocation {
            alloc_id,
            user_hash: p.spec.user,
            account_hash: p.spec.account,
            submit_ts: p.spec.submit.as_secs(),
            begin_ts: p.start.as_secs(),
            end_ts: p.end.as_secs(),
            time_limit_secs: p.spec.walltime.as_secs(),
            num_nodes: p.spec.nodes,
        });
    }
    (allocs, steps)
}

/// Combine allocations and steps into jobs: sum step energy per allocation,
/// derive the average node power, and keep network totals as telemetry.
pub fn load(cfg: &SystemConfig, allocs: &[LastAllocation], steps: &[LastStep]) -> Dataset {
    use std::collections::HashMap;
    let mut energy: HashMap<u64, f64> = HashMap::with_capacity(allocs.len());
    let mut net: HashMap<u64, (f64, f64)> = HashMap::with_capacity(allocs.len());
    for s in steps {
        *energy.entry(s.alloc_id).or_default() += s.energy_j;
        let e = net.entry(s.alloc_id).or_default();
        e.0 += s.net_tx_mb;
        e.1 += s.net_rx_mb;
    }
    let idle = cfg.node_power.idle_node_w();
    let peak = cfg.node_power.peak_node_w();
    let jobs = allocs
        .iter()
        .map(|a| {
            let runtime_s = ((a.end_ts - a.begin_ts).max(1)) as f64;
            let e_j = energy.get(&a.alloc_id).copied().unwrap_or(0.0);
            let avg_node_w = e_j / (a.num_nodes.max(1) as f64 * runtime_s);
            let util = ((avg_node_w - idle) / (peak - idle)).clamp(0.0, 1.0);
            let (tx, rx) = net.get(&a.alloc_id).copied().unwrap_or((0.0, 0.0));
            let tel = JobTelemetry {
                cpu_util: Some(Trace::constant(util as f32)),
                gpu_util: Some(Trace::constant(util as f32)),
                mem_util: None,
                node_power_w: Some(Trace::constant(avg_node_w as f32)),
                net_tx_mbs: Some(Trace::constant((tx / runtime_s) as f32)),
                net_rx_mbs: Some(Trace::constant((rx / runtime_s) as f32)),
                flags: Default::default(),
            };
            JobBuilder::new(a.alloc_id)
                .user(a.user_hash)
                .account(a.account_hash)
                .submit(SimTime::seconds(a.submit_ts))
                .window(SimTime::seconds(a.begin_ts), SimTime::seconds(a.end_ts))
                .walltime(SimDuration::seconds(a.time_limit_secs))
                .nodes(a.num_nodes)
                .telemetry(tel)
                .build()
        })
        .collect();
    Dataset::new(&cfg.name, jobs)
}

/// Generate + combine.
pub fn synthesize(cfg: &SystemConfig, spec: &WorkloadSpec) -> Dataset {
    let (a, s) = generate(cfg, spec);
    load(cfg, &a, &s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_systems::presets;

    fn spec(cfg: &SystemConfig) -> WorkloadSpec {
        let mut s = WorkloadSpec::for_system(cfg, 0.7, 21);
        s.span = SimDuration::hours(8);
        s
    }

    #[test]
    fn steps_reference_allocations_and_conserve_energy() {
        let cfg = presets::lassen();
        let (allocs, steps) = generate(&cfg, &spec(&cfg));
        assert!(!allocs.is_empty());
        let ids: std::collections::HashSet<u64> = allocs.iter().map(|a| a.alloc_id).collect();
        assert!(steps.iter().all(|s| ids.contains(&s.alloc_id)));
        // Each allocation has at least one step.
        let step_ids: std::collections::HashSet<u64> = steps.iter().map(|s| s.alloc_id).collect();
        assert_eq!(ids, step_ids);
    }

    #[test]
    fn loader_combines_step_energy() {
        let cfg = presets::lassen();
        let (allocs, steps) = generate(&cfg, &spec(&cfg));
        let ds = load(&cfg, &allocs, &steps);
        assert_eq!(ds.len(), allocs.len());
        // Energy re-derived from avg power × nodes × runtime matches the
        // sum of step energies.
        let a0 = &allocs[0];
        let sum_e: f64 = steps
            .iter()
            .filter(|s| s.alloc_id == a0.alloc_id)
            .map(|s| s.energy_j)
            .sum();
        let j0 = ds.jobs().iter().find(|j| j.id.0 == a0.alloc_id).unwrap();
        let p = j0.telemetry.node_power_w.as_ref().unwrap().mean() as f64;
        let re = p * a0.num_nodes as f64 * (a0.end_ts - a0.begin_ts) as f64;
        assert!((re - sum_e).abs() / sum_e < 0.01);
    }

    #[test]
    fn network_telemetry_present() {
        let cfg = presets::lassen();
        let ds = synthesize(&cfg, &spec(&cfg));
        assert!(ds
            .jobs()
            .iter()
            .all(|j| j.telemetry.net_tx_mbs.is_some() && j.telemetry.net_rx_mbs.is_some()));
    }

    #[test]
    fn missing_steps_mean_zero_power() {
        let cfg = presets::lassen();
        let alloc = LastAllocation {
            alloc_id: 1,
            user_hash: 0,
            account_hash: 0,
            submit_ts: 0,
            begin_ts: 0,
            end_ts: 100,
            time_limit_secs: 200,
            num_nodes: 2,
        };
        let ds = load(&cfg, &[alloc], &[]);
        assert_eq!(
            ds.jobs()[0].telemetry.node_power_w.as_ref().unwrap().mean(),
            0.0
        );
    }
}
