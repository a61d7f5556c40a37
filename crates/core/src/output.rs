//! Simulation output: the in-memory equivalent of the artifact's output
//! directory (`power_history.parquet`, `util.parquet`, `queue_history.csv`,
//! `cooling_model.parquet`, `job_history.csv`, `stats.out`,
//! `accounts.json`).

use sraps_acct::{Accounts, JobOutcome, SystemStats};
use sraps_cooling::CoolingSample;
use sraps_power::PowerSample;
use sraps_sched::SchedulerStats;
use sraps_types::{SimDuration, SimTime};

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// `<policy>-<backfill>` label, e.g. `fcfs-easy`.
    pub label: String,
    pub scheduler_name: &'static str,
    /// Tick timestamps.
    pub times: Vec<SimTime>,
    /// Facility power per tick.
    pub power: Vec<PowerSample>,
    /// Cooling readings per tick (empty when the cooling model is off).
    pub cooling: Vec<CoolingSample>,
    /// Node-occupancy utilization per tick, in \[0,1\].
    pub utilization: Vec<f64>,
    /// Queued-job count per tick.
    pub queue_depth: Vec<usize>,
    /// Aggregate node demand of queued jobs per tick.
    pub queue_demand_nodes: Vec<u64>,
    /// Completed jobs.
    pub outcomes: Vec<JobOutcome>,
    pub stats: SystemStats,
    pub accounts: Accounts,
    pub sched_stats: SchedulerStats,
    /// Wall-clock cost of the run.
    pub wall_time: std::time::Duration,
    /// Simulated span.
    pub sim_span: SimDuration,
    /// This run's observability delta (phase timings + counters); `None`
    /// unless profiling was enabled (`sraps_obs::set_profile(true)`).
    pub profile: Option<sraps_obs::Profile>,
}

impl SimOutput {
    /// Simulation speedup over real time (the §4.2.2 "688×" metric).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall <= 0.0 {
            f64::INFINITY
        } else {
            self.sim_span.as_secs_f64() / wall
        }
    }

    /// Mean total facility power over the run, kW.
    pub fn mean_power_kw(&self) -> f64 {
        if self.power.is_empty() {
            0.0
        } else {
            self.power.iter().map(|p| p.total_kw).sum::<f64>() / self.power.len() as f64
        }
    }

    /// Peak total facility power, kW.
    pub fn peak_power_kw(&self) -> f64 {
        self.power.iter().map(|p| p.total_kw).fold(0.0, f64::max)
    }

    /// Mean utilization over the run.
    pub fn mean_utilization(&self) -> f64 {
        if self.utilization.is_empty() {
            0.0
        } else {
            self.utilization.iter().sum::<f64>() / self.utilization.len() as f64
        }
    }

    /// Energy-weighted PUE over the whole run: Σ(IT + losses + cooling
    /// aux) / Σ IT. Per-tick PUE spikes at low load; the run-level number
    /// is what a facility reports (Frontier's actual average is ≈1.06).
    /// `None` when the cooling model was off.
    pub fn run_pue(&self) -> Option<f64> {
        if self.cooling.is_empty() || self.cooling.len() != self.power.len() {
            return None;
        }
        let (mut facility, mut it) = (0.0, 0.0);
        for (p, c) in self.power.iter().zip(&self.cooling) {
            facility += p.total_kw + c.fan_power_kw + c.pump_power_kw;
            it += p.it_power_kw;
        }
        (it > 0.0).then(|| facility / it)
    }

    /// Largest tick-to-tick power change, kW — the "power swing" metric the
    /// paper's smoothing claims are about.
    pub fn max_power_swing_kw(&self) -> f64 {
        self.power
            .windows(2)
            .map(|w| (w[1].total_kw - w[0].total_kw).abs())
            .fold(0.0, f64::max)
    }

    /// `power_history` as CSV (`t,it_kw,loss_kw,total_kw`).
    pub fn power_csv(&self) -> String {
        let mut s = String::with_capacity(self.times.len() * 32 + 64);
        s.push_str("t_secs,it_kw,loss_kw,total_kw\n");
        for (t, p) in self.times.iter().zip(&self.power) {
            s.push_str(&format!(
                "{},{:.3},{:.3},{:.3}\n",
                t.as_secs(),
                p.it_power_kw,
                p.loss_kw,
                p.total_kw
            ));
        }
        s
    }

    /// `util+queue` history as CSV
    /// (`t,utilization,queue_depth,queue_demand_nodes`).
    pub fn util_csv(&self) -> String {
        let mut s = String::with_capacity(self.times.len() * 28 + 48);
        s.push_str("t_secs,utilization,queue_depth,queue_demand_nodes\n");
        for i in 0..self.times.len() {
            s.push_str(&format!(
                "{},{:.4},{},{}\n",
                self.times[i].as_secs(),
                self.utilization[i],
                self.queue_depth.get(i).copied().unwrap_or(0),
                self.queue_demand_nodes.get(i).copied().unwrap_or(0)
            ));
        }
        s
    }

    /// `cooling_model` history as CSV (`t,pue,tower_return_c,fan_kw`).
    pub fn cooling_csv(&self) -> String {
        let mut s = String::with_capacity(self.cooling.len() * 32 + 48);
        s.push_str("t_secs,pue,tower_return_c,fan_kw,pump_kw\n");
        for (t, c) in self.times.iter().zip(&self.cooling) {
            s.push_str(&format!(
                "{},{:.4},{:.3},{:.2},{:.2}\n",
                t.as_secs(),
                c.pue,
                c.tower_return_c,
                c.fan_power_kw,
                c.pump_power_kw
            ));
        }
        s
    }

    /// `job_history` as CSV.
    pub fn job_csv(&self) -> String {
        let mut s = String::with_capacity(self.outcomes.len() * 64 + 96);
        s.push_str("job_id,account,nodes,submit,start,end,energy_kwh,avg_node_power_kw\n");
        for o in &self.outcomes {
            s.push_str(&format!(
                "{},{},{},{},{},{},{:.4},{:.4}\n",
                o.id.0,
                o.account.0,
                o.nodes,
                o.submit.as_secs(),
                o.start.as_secs(),
                o.end.as_secs(),
                o.energy_kwh,
                o.avg_node_power_kw
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> SimOutput {
        SimOutput {
            label: "fcfs-easy".into(),
            scheduler_name: "default",
            times: vec![
                SimTime::seconds(0),
                SimTime::seconds(60),
                SimTime::seconds(120),
            ],
            power: vec![
                PowerSample {
                    it_power_kw: 100.0,
                    loss_kw: 5.0,
                    total_kw: 105.0,
                    load_fraction: 0.5,
                },
                PowerSample {
                    it_power_kw: 200.0,
                    loss_kw: 10.0,
                    total_kw: 210.0,
                    load_fraction: 0.9,
                },
                PowerSample {
                    it_power_kw: 150.0,
                    loss_kw: 7.0,
                    total_kw: 157.0,
                    load_fraction: 0.7,
                },
            ],
            cooling: vec![],
            utilization: vec![0.5, 0.9, 0.7],
            queue_depth: vec![3, 1, 0],
            queue_demand_nodes: vec![12, 4, 0],
            outcomes: vec![],
            stats: SystemStats::default(),
            accounts: Accounts::new(1.0),
            sched_stats: SchedulerStats::default(),
            wall_time: std::time::Duration::from_millis(500),
            sim_span: SimDuration::seconds(180),
            profile: None,
        }
    }

    #[test]
    fn aggregate_metrics() {
        let o = output();
        assert!((o.mean_power_kw() - (105.0 + 210.0 + 157.0) / 3.0).abs() < 1e-9);
        assert_eq!(o.peak_power_kw(), 210.0);
        assert!((o.mean_utilization() - 0.7).abs() < 1e-9);
        assert!((o.max_power_swing_kw() - 105.0).abs() < 1e-9);
        assert!((o.speedup() - 360.0).abs() < 1e-9, "180 s in 0.5 s wall");
    }

    #[test]
    fn csv_renders_headers_and_rows() {
        let o = output();
        let p = o.power_csv();
        assert!(p.starts_with("t_secs,it_kw"));
        assert_eq!(p.lines().count(), 4);
        let u = o.util_csv();
        assert!(u.contains("0,0.5000,3,12"));
    }

    #[test]
    fn empty_histories_are_safe() {
        let mut o = output();
        o.power.clear();
        o.times.clear();
        o.utilization.clear();
        assert_eq!(o.mean_power_kw(), 0.0);
        assert_eq!(o.max_power_swing_kw(), 0.0);
        assert_eq!(o.mean_utilization(), 0.0);
        assert_eq!(o.run_pue(), None);
    }

    #[test]
    fn run_pue_is_energy_weighted() {
        let mut o = output();
        o.cooling = o
            .power
            .iter()
            .map(|_| sraps_cooling::CoolingSample {
                tower_return_c: 28.0,
                supply_c: 24.0,
                fan_power_kw: 5.0,
                pump_power_kw: 5.0,
                pue: 0.0, // per-tick value unused by run_pue
                heat_kw: 0.0,
            })
            .collect();
        let it: f64 = o.power.iter().map(|p| p.it_power_kw).sum();
        let fac: f64 = o.power.iter().map(|p| p.total_kw + 10.0).sum();
        assert!((o.run_pue().unwrap() - fac / it).abs() < 1e-12);
        assert!(o.run_pue().unwrap() > 1.0);
    }
}
