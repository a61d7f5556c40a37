//! Facility-level power aggregation.

use crate::loss::{distribution_loss_w, rectifier_loss_w};
use serde::{Deserialize, Serialize};
use sraps_systems::SystemConfig;

/// One facility power reading produced each tick.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PowerSample {
    /// Power delivered to compute nodes (busy + idle), kW.
    pub it_power_kw: f64,
    /// Rectification + distribution losses, kW.
    pub loss_kw: f64,
    /// Total electrical input to the machine (IT + losses), kW. Cooling
    /// auxiliaries are accounted by the cooling model, not here.
    pub total_kw: f64,
    /// IT load as a fraction of the system's peak.
    pub load_fraction: f64,
}

impl PowerSample {
    /// System power efficiency: delivered / drawn (the paper tracks this as
    /// "system power efficiency" in §3.2.6).
    pub fn efficiency(&self) -> f64 {
        if self.total_kw <= 0.0 {
            1.0
        } else {
            self.it_power_kw / self.total_kw
        }
    }
}

/// Computes facility power from the sum of node draws.
///
/// The engine supplies `busy_power_w` (Σ node power of running jobs, from
/// traces or the component model) and the count of idle nodes; the model
/// adds idle draw and pushes the total through the loss chain.
#[derive(Debug, Clone)]
pub struct PowerModel {
    peak_it_w: f64,
    idle_node_w: f64,
    loss: sraps_systems::LossSpec,
}

impl PowerModel {
    pub fn new(cfg: &SystemConfig) -> Self {
        PowerModel {
            peak_it_w: cfg.peak_it_power_kw() * 1000.0,
            idle_node_w: cfg.node_power.idle_node_w(),
            loss: cfg.loss,
        }
    }

    /// Facility sample for this tick.
    ///
    /// * `busy_power_w` — aggregate power of all allocated nodes, watts.
    /// * `idle_nodes` — nodes with no job; they draw idle power.
    pub fn sample(&self, busy_power_w: f64, idle_nodes: u32) -> PowerSample {
        let it_w = busy_power_w + idle_nodes as f64 * self.idle_node_w;
        let load_fraction = if self.peak_it_w > 0.0 {
            (it_w / self.peak_it_w).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let rect_loss = rectifier_loss_w(&self.loss, it_w, load_fraction);
        let dist_loss = distribution_loss_w(&self.loss, it_w + rect_loss);
        let loss_w = rect_loss + dist_loss;
        PowerSample {
            it_power_kw: it_w / 1000.0,
            loss_kw: loss_w / 1000.0,
            total_kw: (it_w + loss_w) / 1000.0,
            load_fraction,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_systems::presets;

    #[test]
    fn empty_system_draws_idle_power() {
        let cfg = presets::marconi100();
        let model = PowerModel::new(&cfg);
        let s = model.sample(0.0, cfg.total_nodes);
        assert!((s.it_power_kw - cfg.idle_it_power_kw()).abs() < 1e-6);
        assert!(s.loss_kw > 0.0, "losses exist even at idle");
        assert!(s.total_kw > s.it_power_kw);
    }

    #[test]
    fn full_system_hits_peak() {
        let cfg = presets::adastra();
        let model = PowerModel::new(&cfg);
        let busy = cfg.total_nodes as f64 * cfg.node_power.peak_node_w();
        let s = model.sample(busy, 0);
        assert!((s.it_power_kw - cfg.peak_it_power_kw()).abs() < 1e-6);
        assert!((s.load_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_in_unit_interval() {
        let cfg = presets::frontier();
        let model = PowerModel::new(&cfg);
        for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let busy = frac * cfg.total_nodes as f64 * cfg.node_power.peak_node_w();
            let idle = ((1.0 - frac) * cfg.total_nodes as f64) as u32;
            let s = model.sample(busy, idle);
            assert!(
                s.efficiency() > 0.9 && s.efficiency() <= 1.0,
                "{}",
                s.efficiency()
            );
        }
    }

    #[test]
    fn power_monotone_in_load() {
        let cfg = presets::lassen();
        let model = PowerModel::new(&cfg);
        let mut prev = -1.0;
        for i in 0..=10 {
            let frac = i as f64 / 10.0;
            let busy = frac * cfg.total_nodes as f64 * cfg.node_power.peak_node_w();
            let idle = cfg.total_nodes - (frac * cfg.total_nodes as f64) as u32;
            let s = model.sample(busy, idle);
            assert!(s.total_kw > prev, "total power must rise with load");
            prev = s.total_kw;
        }
    }

    #[test]
    fn zero_sample_is_identity() {
        let s = PowerSample::default();
        assert_eq!(s.efficiency(), 1.0);
    }
}
