//! The assembled cooling plant stepped once per engine tick.

use crate::cdu::Cdu;
use crate::tower::CoolingTower;
use serde::{Deserialize, Serialize};
use sraps_systems::CoolingSpec;
use sraps_types::SimDuration;

/// One cooling reading per tick — the series Fig 6 plots.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct CoolingSample {
    /// Water temperature arriving at the cooling towers, °C
    /// (Fig 6 "Cooling Tower Return Temperature").
    pub tower_return_c: f64,
    /// Facility supply temperature after the tower, °C.
    pub supply_c: f64,
    /// Tower fan power, kW.
    pub fan_power_kw: f64,
    /// Loop pump power, kW.
    pub pump_power_kw: f64,
    /// Power usage effectiveness = (IT + losses + cooling aux) / IT.
    pub pue: f64,
    /// Heat carried by the loop this tick, kW.
    pub heat_kw: f64,
}

/// Transient lumped plant: CDU bank + water loop with thermal mass +
/// cooling tower.
///
/// State is the loop's mean water temperature; each tick integrates
/// `C·dT/dt = Q_in − Q_rejected` with explicit Euler at the engine step.
/// `Q_rejected` rises with how far the loop runs above the tower's
/// achievable cold-water temperature, which is what creates the lag between
/// a power swing and the tower response visible in the paper's Fig 6.
#[derive(Debug, Clone)]
pub struct CoolingPlant {
    spec: CoolingSpec,
    cdu: Cdu,
    tower: CoolingTower,
    /// Mean loop water temperature, °C (the integrated state).
    loop_temp_c: f64,
}

impl CoolingPlant {
    pub fn new(spec: &CoolingSpec) -> Self {
        CoolingPlant {
            spec: *spec,
            cdu: Cdu::new(spec.hx_effectiveness, spec.design_flow_kg_s),
            tower: CoolingTower {
                design_approach_c: spec.tower_approach_c,
                fan_design_kw: spec.fan_design_kw,
                design_load_kw: spec.design_load_kw,
            },
            loop_temp_c: spec.supply_setpoint_c,
        }
    }

    /// Current loop temperature (diagnostics/tests).
    pub fn loop_temp_c(&self) -> f64 {
        self.loop_temp_c
    }

    /// Overwrite the integrated loop temperature. The loop temperature is
    /// the plant's *only* mutable state (spec, CDU and tower are rebuilt
    /// from the [`CoolingSpec`]), so restoring it from an engine snapshot
    /// resumes the transient bit-identically.
    pub fn set_loop_temp_c(&mut self, temp_c: f64) {
        self.loop_temp_c = temp_c;
    }

    /// Advance the plant one tick at the system's design ambient.
    ///
    /// * `dt` — engine tick;
    /// * `it_heat_kw` — heat entering the loop this tick (IT power; the
    ///   rectifier losses heat air handled separately and are excluded);
    /// * `it_plus_losses_kw` — electrical input, for the PUE numerator.
    pub fn step(
        &mut self,
        dt: SimDuration,
        it_heat_kw: f64,
        it_plus_losses_kw: f64,
    ) -> CoolingSample {
        self.step_at_ambient(
            dt,
            it_heat_kw,
            it_plus_losses_kw,
            self.spec.ambient_wetbulb_c,
        )
    }

    /// Advance the plant one tick under an explicit ambient wet-bulb
    /// temperature (weather-trace runs).
    pub fn step_at_ambient(
        &mut self,
        dt: SimDuration,
        it_heat_kw: f64,
        it_plus_losses_kw: f64,
        wetbulb_c: f64,
    ) -> CoolingSample {
        let load_fraction = if self.spec.design_load_kw > 0.0 {
            it_heat_kw / self.spec.design_load_kw
        } else {
            0.0
        };

        // Tower-side: achievable cold water at this load and ambient.
        let cold_c = self.tower.cold_water_c(wetbulb_c, load_fraction);

        // Heat rejected grows with loop-above-cold-water excess, with the
        // loop's full capacity rate as the transfer coefficient. At steady
        // state this balances Q_in, pinning T_loop = cold + Q/(ṁ·c_p·k).
        let ua = self.cdu.capacity_rate(); // kW/°C
        let rejected_kw = (ua * (self.loop_temp_c - cold_c)).max(0.0);

        // Integrate the loop energy balance.
        let c = self.spec.loop_thermal_capacity_kj_per_c.max(1e-6); // kJ/°C
        let dtemp = (it_heat_kw - rejected_kw) * dt.as_secs_f64() / c;
        self.loop_temp_c += dtemp;
        // Water loops are protected; clamp to physical band.
        self.loop_temp_c = self.loop_temp_c.clamp(wetbulb_c - 5.0, 95.0);

        // The CDU return (hot side of the loop) arrives at the tower.
        let tower_return_c = self
            .cdu
            .secondary_return_c(self.loop_temp_c, it_heat_kw * 0.5)
            .min(95.0);

        let fan_kw = self.tower.fan_power_kw(rejected_kw.max(it_heat_kw * 0.2));
        let pump_kw = self.spec.design_load_kw * self.spec.pump_frac_of_design;

        let pue = if it_heat_kw > 0.0 {
            (it_plus_losses_kw + fan_kw + pump_kw) / it_heat_kw
        } else {
            1.0
        };

        CoolingSample {
            tower_return_c,
            supply_c: cold_c,
            fan_power_kw: fan_kw,
            pump_power_kw: pump_kw,
            pue,
            heat_kw: it_heat_kw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_systems::presets;

    fn plant() -> CoolingPlant {
        CoolingPlant::new(&presets::frontier().cooling)
    }

    fn run_steady(plant: &mut CoolingPlant, heat_kw: f64, ticks: usize) -> CoolingSample {
        let mut last = CoolingSample::default();
        for _ in 0..ticks {
            last = plant.step(SimDuration::seconds(15), heat_kw, heat_kw * 1.05);
        }
        last
    }

    #[test]
    fn steady_state_balances_heat() {
        let mut p = plant();
        let s = run_steady(&mut p, 15_000.0, 20_000);
        // At steady state the loop stops moving: |Q_in − Q_out| small, i.e.
        // temperature change per tick is negligible.
        let t1 = p.loop_temp_c();
        p.step(SimDuration::seconds(15), 15_000.0, 15_750.0);
        assert!((p.loop_temp_c() - t1).abs() < 1e-3);
        assert!(s.tower_return_c > s.supply_c, "return hotter than supply");
    }

    #[test]
    fn hotter_load_means_hotter_return_water() {
        let mut p1 = plant();
        let mut p2 = plant();
        let low = run_steady(&mut p1, 10_000.0, 20_000);
        let high = run_steady(&mut p2, 24_000.0, 20_000);
        assert!(high.tower_return_c > low.tower_return_c + 0.5);
    }

    #[test]
    fn pue_in_plausible_band_and_worse_at_low_load() {
        let mut p1 = plant();
        let mut p2 = plant();
        let low = run_steady(&mut p1, 8_000.0, 10_000);
        let high = run_steady(&mut p2, 24_000.0, 10_000);
        for s in [low, high] {
            assert!(s.pue > 1.0 && s.pue < 1.5, "pue {} out of band", s.pue);
        }
        // Fixed pump power hurts proportionally more at low load.
        assert!(low.pue >= high.pue - 0.05);
    }

    #[test]
    fn temperature_response_lags_power_step() {
        let mut p = plant();
        run_steady(&mut p, 10_000.0, 20_000);
        let before = p.loop_temp_c();
        // Step power up; one tick later the loop has moved only a little —
        // the lag Fig 6 relies on.
        p.step(SimDuration::seconds(15), 25_000.0, 26_000.0);
        let after_1 = p.loop_temp_c();
        run_steady(&mut p, 25_000.0, 20_000);
        let settled = p.loop_temp_c();
        assert!(after_1 > before && after_1 < settled);
        assert!(
            (after_1 - before) < (settled - before) * 0.2,
            "single tick must cover <20% of the settling distance"
        );
    }

    #[test]
    fn zero_heat_drifts_to_ambient_band_with_unit_pue() {
        let mut p = plant();
        let s = run_steady(&mut p, 0.0, 5_000);
        assert_eq!(s.pue, 1.0);
        assert!(p.loop_temp_c() >= presets::frontier().cooling.ambient_wetbulb_c - 5.0);
    }
}
