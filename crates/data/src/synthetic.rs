//! Workload specification, self-calibration, and telemetry synthesis.
//!
//! A [`WorkloadSpec`] describes a workload statistically (arrival rate,
//! size/runtime mix, user population). [`WorkloadSpec::for_system`]
//! calibrates the arrival rate so that the *offered load* — mean node-hours
//! demanded per hour over the machine size — hits a target utilization,
//! the single most important knob for reproducing the paper's figures
//! (Fig 4 needs a saturated Marconi100; Fig 5 a half-loaded Adastra;
//! Fig 10(a) needs Fugaku to cross from 16 % to overload).

use crate::arrival::nhpp_arrivals;
use crate::distributions::{job_node_count, job_runtime_secs, walltime_request_secs};
use crate::packer::JobSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sraps_systems::{NodePowerSpec, SystemConfig};
use sraps_types::{JobTelemetry, SimDuration, SimTime, Trace};

/// Mean of the diurnal acceptance curve with the default night floor.
const DIURNAL_MEAN: f64 = 0.625;

/// The heaviest offered load a caller may ask a synthetic workload for:
/// ten times the machine's capacity. Arrivals are drawn in O(load × span),
/// so an unbounded load runs for minutes to forever; the heaviest load
/// any paper scenario, bench or test uses is 1.3 (Fig 10's overload
/// phase).
pub const MAX_OFFERED_LOAD: f64 = 10.0;

/// Statistical description of a workload to synthesize.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    pub seed: u64,
    /// Workload span (arrivals occur in `[0, span)`).
    pub span: SimDuration,
    /// Peak arrival rate of the diurnal envelope, jobs/hour.
    pub peak_rate_per_hour: f64,
    /// Night-time fraction of the peak rate.
    pub night_floor: f64,
    /// Probability a job draws from the wide (≥5 % of machine) tail.
    pub wide_job_frac: f64,
    /// Median runtime of the lognormal body, seconds.
    pub median_runtime_secs: f64,
    /// Runtime cap, seconds.
    pub max_runtime_secs: f64,
    pub n_users: u32,
    pub n_accounts: u32,
    /// Cap on a single job's width.
    pub max_job_nodes: u32,
    /// Maximum scheduler start lag in the recorded history, seconds (see
    /// [`crate::packer::pack_jobs_lagged`]): the inefficiency real batch
    /// systems carry, which rescheduling recovers (Fig 4's replay gap).
    pub sched_lag_max_secs: i64,
}

impl WorkloadSpec {
    /// Spec calibrated for `cfg` at `target_load` offered utilization
    /// (1.0 ≈ demand equals capacity; >1 builds a queue).
    pub fn for_system(cfg: &SystemConfig, target_load: f64, seed: u64) -> Self {
        let mut spec = WorkloadSpec {
            seed,
            span: SimDuration::days(1),
            peak_rate_per_hour: 0.0,
            night_floor: 0.25,
            wide_job_frac: 0.015,
            median_runtime_secs: 2400.0,
            max_runtime_secs: 24.0 * 3600.0,
            n_users: 96,
            n_accounts: 24,
            max_job_nodes: cfg.total_nodes,
            sched_lag_max_secs: 900,
        };
        spec.calibrate_rate(cfg.total_nodes, target_load);
        spec
    }

    /// Set `peak_rate_per_hour` so mean offered node-hours/hour equals
    /// `target_load × total_nodes`. Uses an empirical mean of the size ×
    /// runtime mix (they are sampled independently) from a fixed probe RNG,
    /// so calibration itself is deterministic and spec-dependent only.
    pub fn calibrate_rate(&mut self, total_nodes: u32, target_load: f64) {
        let mut probe = SmallRng::seed_from_u64(0x5EED_CAFE);
        let n = 4000;
        let mut mean_nh = 0.0;
        for _ in 0..n {
            let nodes = job_node_count(&mut probe, self.max_job_nodes, self.wide_job_frac);
            let rt = job_runtime_secs(&mut probe, self.median_runtime_secs, self.max_runtime_secs);
            mean_nh += nodes as f64 * rt as f64 / 3600.0;
        }
        mean_nh /= n as f64;
        let jobs_per_hour = target_load * total_nodes as f64 / mean_nh.max(1e-9);
        // The diurnal thinning keeps DIURNAL_MEAN of candidates on average.
        self.peak_rate_per_hour = jobs_per_hour / DIURNAL_MEAN;
    }

    /// Expected accepted arrivals over the span (for test budgeting).
    pub fn expected_jobs(&self) -> f64 {
        self.peak_rate_per_hour * DIURNAL_MEAN * self.span.as_hours_f64()
    }

    /// Sample the raw job demands (before packing).
    pub fn sample_specs(&self, rng: &mut SmallRng) -> Vec<JobSpec> {
        let arrivals = nhpp_arrivals(
            rng,
            self.span.as_secs(),
            self.peak_rate_per_hour,
            self.night_floor,
        );
        arrivals
            .into_iter()
            .map(|t| {
                let nodes = job_node_count(rng, self.max_job_nodes, self.wide_job_frac);
                let rt = job_runtime_secs(rng, self.median_runtime_secs, self.max_runtime_secs);
                let wt = walltime_request_secs(rng, rt);
                let user = rng.gen_range(0..self.n_users.max(1));
                let account = user % self.n_accounts.max(1);
                JobSpec {
                    submit: SimTime::seconds(t),
                    duration: SimDuration::seconds(rt),
                    walltime: SimDuration::seconds(wt),
                    nodes,
                    user,
                    account,
                    // Site default priority: log node-count boost (the
                    // Frontier-style large-job boost of [16]).
                    priority: (nodes as f64).ln_1p(),
                }
            })
            .collect()
    }
}

/// Per-account power persona: accounts differ systematically in how hot
/// their applications run — required for the incentive study (§4.3) to
/// have signal. Account `a` gets a stable multiplier in [0.75, 1.25].
pub fn account_power_bias(account: u32) -> f64 {
    // Deterministic hash → [0,1) → bias band.
    let h = (account as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    0.75 + 0.5 * unit
}

/// Synthesize trace telemetry (Frontier/PM100 fidelity): phase-structured
/// per-node power plus correlated CPU/GPU utilization traces.
pub fn gen_trace_telemetry(
    rng: &mut SmallRng,
    power: &NodePowerSpec,
    duration: SimDuration,
    dt: SimDuration,
    has_gpus: bool,
    power_bias: f64,
) -> JobTelemetry {
    let n = (duration.as_secs() / dt.as_secs()).max(1) as usize;
    // Application phases: compute bursts vs memory/i-o lulls.
    let base_cpu = rng.gen_range(0.35..0.95);
    let base_gpu = if has_gpus {
        rng.gen_range(0.3..0.98)
    } else {
        0.0
    };
    let n_phases = (1 + n / 120).min(8);
    let phase_len = (n / n_phases).max(1);

    let mut cpu = Vec::with_capacity(n);
    let mut gpu = Vec::with_capacity(n);
    let mut pw = Vec::with_capacity(n);
    let mut phase_cpu: f64 = base_cpu;
    let mut phase_gpu: f64 = base_gpu;
    for i in 0..n {
        if i % phase_len == 0 {
            phase_cpu = (base_cpu + rng.gen_range(-0.25..0.25f64)).clamp(0.05, 1.0);
            phase_gpu = if has_gpus {
                (base_gpu + rng.gen_range(-0.3..0.3f64)).clamp(0.0, 1.0)
            } else {
                0.0
            };
        }
        let cu = (phase_cpu + rng.gen_range(-0.04..0.04f64)).clamp(0.0, 1.0);
        let gu = if has_gpus {
            (phase_gpu + rng.gen_range(-0.05..0.05f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let watts = node_watts(power, cu, gu) * power_bias;
        cpu.push(cu as f32);
        gpu.push(gu as f32);
        pw.push(watts as f32);
    }
    JobTelemetry {
        cpu_util: Some(Trace::new(SimDuration::ZERO, dt, cpu)),
        gpu_util: has_gpus.then(|| Trace::new(SimDuration::ZERO, dt, gpu)),
        mem_util: None,
        node_power_w: Some(Trace::new(SimDuration::ZERO, dt, pw)),
        net_tx_mbs: None,
        net_rx_mbs: None,
        flags: Default::default(),
    }
}

/// Synthesize summary telemetry (Fugaku/Lassen/Adastra fidelity): scalars.
pub fn gen_summary_telemetry(
    rng: &mut SmallRng,
    power: &NodePowerSpec,
    has_gpus: bool,
    power_bias: f64,
) -> JobTelemetry {
    let cu = rng.gen_range(0.25..0.95);
    let gu = if has_gpus {
        rng.gen_range(0.2..0.95)
    } else {
        0.0
    };
    let watts = node_watts(power, cu, gu) * power_bias;
    JobTelemetry::from_scalars(cu as f32, has_gpus.then_some(gu as f32), watts as f32)
}

/// Synthesize a diurnal ambient wet-bulb trace: `base_c` at night rising by
/// `amplitude_c` toward mid-afternoon, sampled at `dt` over `span`. Offsets
/// are relative to trace start (pass to `SimConfig::with_weather`).
pub fn gen_wetbulb_trace(
    span: SimDuration,
    dt: SimDuration,
    base_c: f64,
    amplitude_c: f64,
) -> Trace {
    let n = (span.as_secs() / dt.as_secs()).max(1) as usize;
    let values = (0..n)
        .map(|i| {
            let t = i as i64 * dt.as_secs();
            let day_frac = (t.rem_euclid(86_400)) as f64 / 86_400.0;
            // Peak at 15:00, trough at 03:00.
            let phase = (day_frac - 15.0 / 24.0) * std::f64::consts::TAU;
            (base_c + amplitude_c * 0.5 * (1.0 + phase.cos())) as f32
        })
        .collect();
    Trace::new(SimDuration::ZERO, dt, values)
}

/// Linear component power (duplicated from `sraps-power` to keep this crate
/// independent of the model crates; the engine uses the model's version).
fn node_watts(p: &NodePowerSpec, cpu_util: f64, gpu_util: f64) -> f64 {
    p.cpu_idle_w
        + (p.cpu_peak_w - p.cpu_idle_w) * cpu_util
        + p.gpu_idle_w
        + (p.gpu_peak_w - p.gpu_idle_w) * gpu_util
        + p.mem_w
        + p.static_w
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_systems::presets;

    #[test]
    fn calibration_hits_target_load_band() {
        let cfg = presets::adastra();
        let spec = WorkloadSpec::for_system(&cfg, 0.5, 1);
        let mut rng = SmallRng::seed_from_u64(spec.seed);
        let mut spec2 = spec.clone();
        spec2.span = SimDuration::days(10);
        let specs = spec2.sample_specs(&mut rng);
        let nh: f64 = specs
            .iter()
            .map(|s| s.nodes as f64 * s.duration.as_hours_f64())
            .sum();
        let offered = nh / (cfg.total_nodes as f64 * spec2.span.as_hours_f64());
        assert!(
            (offered - 0.5).abs() < 0.15,
            "offered load {offered} should be ≈0.5"
        );
    }

    #[test]
    fn sampled_specs_are_deterministic_per_seed() {
        let cfg = presets::lassen();
        let spec = WorkloadSpec::for_system(&cfg, 0.7, 99);
        let mut r1 = SmallRng::seed_from_u64(spec.seed);
        let mut r2 = SmallRng::seed_from_u64(spec.seed);
        assert_eq!(spec.sample_specs(&mut r1), spec.sample_specs(&mut r2));
    }

    #[test]
    fn account_bias_is_stable_and_banded() {
        for a in 0..500u32 {
            let b = account_power_bias(a);
            assert!((0.75..=1.25).contains(&b));
            assert_eq!(b, account_power_bias(a));
        }
        // Biases actually differ across accounts.
        assert!((account_power_bias(1) - account_power_bias(2)).abs() > 1e-6);
    }

    #[test]
    fn trace_telemetry_is_well_formed() {
        let cfg = presets::frontier();
        let mut rng = SmallRng::seed_from_u64(5);
        let tel = gen_trace_telemetry(
            &mut rng,
            &cfg.node_power,
            SimDuration::hours(2),
            cfg.trace_dt,
            true,
            1.0,
        );
        let p = tel.node_power_w.as_ref().unwrap();
        assert_eq!(p.len(), (2 * 3600 / 15) as usize);
        // Power within the node envelope.
        assert!(p.min() as f64 >= cfg.node_power.idle_node_w() * 0.9);
        assert!(p.max() as f64 <= cfg.node_power.peak_node_w() * 1.3);
        assert!(tel.gpu_util.is_some());
        // Phase structure ⇒ variation.
        assert!(p.std_dev() > 1.0);
    }

    #[test]
    fn summary_telemetry_is_scalars() {
        let cfg = presets::fugaku();
        let mut rng = SmallRng::seed_from_u64(5);
        let tel = gen_summary_telemetry(&mut rng, &cfg.node_power, false, 1.0);
        assert_eq!(tel.node_power_w.as_ref().unwrap().len(), 1);
        assert!(tel.gpu_util.is_none());
    }

    #[test]
    fn wetbulb_trace_is_diurnal() {
        let t = gen_wetbulb_trace(SimDuration::days(2), SimDuration::minutes(10), 15.0, 8.0);
        // Afternoon hotter than pre-dawn, both days.
        for day in 0..2 {
            let afternoon = t.sample(SimDuration::seconds(day * 86_400 + 15 * 3600));
            let predawn = t.sample(SimDuration::seconds(day * 86_400 + 3 * 3600));
            assert!(afternoon > predawn + 6.0, "{afternoon} vs {predawn}");
        }
        // Bounded by base..base+amplitude.
        assert!(t.min() >= 15.0 - 1e-3 && t.max() <= 23.0 + 1e-3);
    }

    #[test]
    fn power_bias_scales_power() {
        let cfg = presets::fugaku();
        let mut r1 = SmallRng::seed_from_u64(7);
        let mut r2 = SmallRng::seed_from_u64(7);
        let frugal = gen_summary_telemetry(&mut r1, &cfg.node_power, false, 0.8);
        let hot = gen_summary_telemetry(&mut r2, &cfg.node_power, false, 1.2);
        assert!(hot.node_power_w.unwrap().mean() > frugal.node_power_w.unwrap().mean());
    }
}
