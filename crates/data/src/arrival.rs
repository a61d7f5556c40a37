//! Job arrival process: non-homogeneous Poisson with a diurnal profile.
//!
//! HPC submission rates follow working hours — the PM100 and Frontier
//! figures in the paper show evening load swings driven by it. We generate
//! arrivals by thinning a homogeneous Poisson process at the peak rate.

use rand::Rng;

/// Diurnal modulation in [floor, 1]: a raised cosine peaking at 14:00 and
/// bottoming out at 02:00 local time, floored so nights aren't silent.
pub fn diurnal_factor(time_secs: i64, floor: f64) -> f64 {
    let day_frac = (time_secs.rem_euclid(86_400)) as f64 / 86_400.0;
    // Peak at 14:00 → phase shift 14/24.
    let phase = (day_frac - 14.0 / 24.0) * std::f64::consts::TAU;
    let raised = 0.5 * (1.0 + phase.cos());
    floor + (1.0 - floor) * raised
}

/// Generate arrival times in `[0, span_secs)` by thinning: candidate events
/// at `peak_rate_per_hour`, each kept with the diurnal probability.
pub fn nhpp_arrivals<R: Rng>(
    rng: &mut R,
    span_secs: i64,
    peak_rate_per_hour: f64,
    night_floor: f64,
) -> Vec<i64> {
    let mut out = Vec::new();
    if peak_rate_per_hour <= 0.0 || !peak_rate_per_hour.is_finite() || span_secs <= 0 {
        return out;
    }
    let rate_per_sec = peak_rate_per_hour / 3600.0;
    let mut t = 0.0f64;
    loop {
        // Exponential inter-arrival at the envelope rate.
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate_per_sec;
        if t >= span_secs as f64 {
            break;
        }
        let keep_p = diurnal_factor(t as i64, night_floor);
        if rng.gen_bool(keep_p.clamp(0.0, 1.0)) {
            out.push(t as i64);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn diurnal_peaks_afternoon_dips_night() {
        let at_14 = diurnal_factor(14 * 3600, 0.2);
        let at_02 = diurnal_factor(2 * 3600, 0.2);
        assert!((at_14 - 1.0).abs() < 1e-9, "peak at 14:00");
        assert!((at_02 - 0.2).abs() < 1e-9, "floor at 02:00");
        assert!(diurnal_factor(8 * 3600, 0.2) > at_02);
    }

    #[test]
    fn diurnal_is_periodic() {
        for h in 0..24 {
            let a = diurnal_factor(h * 3600, 0.3);
            let b = diurnal_factor(h * 3600 + 5 * 86_400, 0.3);
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn arrivals_sorted_within_span_and_roughly_at_rate() {
        let mut rng = SmallRng::seed_from_u64(7);
        let span = 10 * 86_400;
        let arr = nhpp_arrivals(&mut rng, span, 60.0, 0.25);
        assert!(arr.windows(2).all(|w| w[0] <= w[1]));
        assert!(arr.iter().all(|&t| (0..span).contains(&t)));
        // Mean acceptance of the diurnal curve with floor 0.25 is ~0.625;
        // expect 60*0.625 = ~37.5/h → 9000 over 10 days, within 20 %.
        let expected = 60.0 * 0.625 * 240.0;
        let n = arr.len() as f64;
        assert!((n - expected).abs() / expected < 0.2, "{n} vs {expected}");
    }

    #[test]
    fn arrivals_cluster_in_daytime() {
        let mut rng = SmallRng::seed_from_u64(11);
        let arr = nhpp_arrivals(&mut rng, 20 * 86_400, 40.0, 0.1);
        let day = arr
            .iter()
            .filter(|&&t| {
                let h = (t % 86_400) / 3600;
                (9..19).contains(&h)
            })
            .count();
        assert!(
            day as f64 / arr.len() as f64 > 0.55,
            "daytime fraction {}",
            day as f64 / arr.len() as f64
        );
    }

    #[test]
    fn degenerate_inputs_yield_empty() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(nhpp_arrivals(&mut rng, 0, 60.0, 0.2).is_empty());
        assert!(nhpp_arrivals(&mut rng, 1000, 0.0, 0.2).is_empty());
        assert!(nhpp_arrivals(&mut rng, 1000, f64::NAN, 0.2).is_empty());
        assert!(nhpp_arrivals(&mut rng, 1000, f64::INFINITY, 0.2).is_empty());
    }
}
