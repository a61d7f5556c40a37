//! The per-layer metrics of the traced run.
//!
//! Every workload reports every metric; a layer a workload does not reach
//! reads 0. Times are self times (a span's duration minus its measured
//! children) per workload operation unless the meaning says otherwise;
//! `unattributed_ms` is the operation's wall time that no span or replay
//! covers, reported on its own rather than folded into another row.
//!
//! The operation: one engine run (`sched_conservative`), one cold + warm
//! round (`window_sweep`), one cold query (`whatif_serve`, whose cache and
//! claim counts cover the whole traced window).

/// (name, unit, meaning). `BENCHMARK.json` lists the same names.
pub const PER_LAYER: [(&str, &str, &str); 30] = [
    ("data.synthesize_ms", "ms", "one dataset synthesis (set-up)"),
    (
        "exp.plan_fingerprint_ms",
        "ms",
        "standalone WorkloadPlan::fingerprint, per plan",
    ),
    (
        "core.window_build_ms",
        "ms",
        "standalone SimWindow::new, per window",
    ),
    ("engine.events_ms", "ms", "engine.events self time per op"),
    ("engine.physics_ms", "ms", "engine.physics self time per op"),
    ("sched.schedule_ms", "ms", "sched.schedule self time per op"),
    ("sched.invocations", "count", "scheduler invocations per op"),
    (
        "sched.anchor_sweeps",
        "count",
        "conservative anchor sweeps per op",
    ),
    (
        "sched.anchor_sweeps_per_call",
        "count",
        "anchor sweeps per invocation",
    ),
    (
        "sched.plan_fast_path_ratio",
        "ratio",
        "plan_fast_paths / invocations",
    ),
    ("queue.resorts", "count", "full queue re-sorts per op"),
    (
        "timeline.edits",
        "count",
        "timeline inserts/removals per op",
    ),
    ("cache.read_us", "us", "mean cache.read span"),
    ("cache.write_ms", "ms", "mean cache.write span"),
    ("cache.hits", "count", "cache hits per op"),
    ("cache.misses", "count", "cache misses per op"),
    ("cache.hit_ratio", "ratio", "hits / (hits + misses)"),
    (
        "claims.acquired",
        "count",
        "claim leases acquired per op (whatif_serve: cold answers with from_cache false)",
    ),
    (
        "claims.contended",
        "count",
        "claims that met a live lease per op",
    ),
    (
        "exp.report_ms",
        "ms",
        "Report::from_results + to_csv per op",
    ),
    (
        "serve.warm_server_us_p50",
        "us",
        "Response.elapsed_us, warm class",
    ),
    (
        "serve.warm_server_us_p99",
        "us",
        "Response.elapsed_us, warm class",
    ),
    (
        "serve.cold_server_us_p50",
        "us",
        "Response.elapsed_us, cold class",
    ),
    (
        "serve.cold_server_us_p99",
        "us",
        "Response.elapsed_us, cold class",
    ),
    (
        "serve.client_gap_ms",
        "ms",
        "mean client latency minus server time",
    ),
    (
        "serve.queue_wait_ms",
        "ms",
        "mean cold wait for the worker (daemon trace)",
    ),
    (
        "serve.queue_depth_max",
        "count",
        "largest stats.queue_depth sampled",
    ),
    (
        "unattributed_ms",
        "ms",
        "wall time per op that no span covers",
    ),
    (
        "bench.gen_late_ms_p99",
        "ms",
        "open-loop send lateness, p99",
    ),
    (
        "bench.trace_overhead_pct",
        "%",
        "traced op time over untraced, minus 100%",
    ),
];

/// Values for [`PER_LAYER`], all 0 until set.
pub struct Layers {
    values: [f64; PER_LAYER.len()],
    /// The self-time table the values were drawn from, printed before
    /// the result line.
    pub table: String,
}

impl Default for Layers {
    fn default() -> Self {
        Layers {
            values: [0.0; PER_LAYER.len()],
            table: String::new(),
        }
    }
}

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        let i = PER_LAYER
            .iter()
            .position(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("unknown per-layer metric '{name}'"));
        self.values[i] = if value.is_finite() { value } else { 0.0 };
    }

    pub fn entries(&self) -> Vec<(&'static str, f64, &'static str)> {
        PER_LAYER
            .iter()
            .zip(self.values)
            .map(|((name, unit, _), v)| (*name, v, *unit))
            .collect()
    }

    /// The engine and scheduler rows: self times from `st`, counts from
    /// the obs profile `p` of `per` operations.
    pub fn set_engine_rows(&mut self, st: &SelfTimes, p: &sraps_obs::Profile, per: f64) {
        let c = |name: &str| p.counter(name) as f64;
        let calls = c("sched.invocations").max(1.0);
        self.set("engine.events_ms", st.get("engine.events"));
        self.set("engine.physics_ms", st.get("engine.physics"));
        self.set("sched.schedule_ms", st.get("sched.schedule"));
        self.set("sched.invocations", c("sched.invocations") / per);
        self.set("sched.anchor_sweeps", c("sched.anchor_sweeps") / per);
        self.set(
            "sched.anchor_sweeps_per_call",
            c("sched.anchor_sweeps") / calls,
        );
        self.set(
            "sched.plan_fast_path_ratio",
            c("sched.plan_fast_paths") / calls,
        );
        self.set("queue.resorts", c("queue.resorts") / per);
        self.set("timeline.edits", c("timeline.edits") / per);
    }

    pub fn render(&self) -> String {
        let mut s = self.table.clone();
        for ((name, unit, meaning), v) in PER_LAYER.iter().zip(self.values) {
            s.push_str(&format!("layer {name:<30} {v:>14.4} {unit:<6} {meaning}\n"));
        }
        s
    }
}

/// Self-time rows of one operation: (span, calls per op, self ms per op).
/// Rendered as the table that accounts for the operation's wall time.
pub struct SelfTimes {
    pub rows: Vec<(String, f64, f64)>,
    /// Breakdowns of time a row already covers, shown but not summed.
    notes: Vec<(String, f64, f64)>,
}

impl SelfTimes {
    pub fn new() -> SelfTimes {
        SelfTimes {
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    pub fn add(&mut self, name: &str, calls: f64, self_ms: f64) {
        self.rows.push((name.to_string(), calls, self_ms.max(0.0)));
    }

    /// A part of an existing row (e.g. a replayed call inside a span).
    pub fn note(&mut self, name: &str, calls: f64, ms: f64) {
        self.notes.push((name.to_string(), calls, ms));
    }

    pub fn covered_ms(&self) -> f64 {
        self.rows.iter().map(|r| r.2).sum()
    }

    pub fn get(&self, name: &str) -> f64 {
        self.rows.iter().find(|r| r.0 == name).map_or(0.0, |r| r.2)
    }

    /// The table, closed by the unattributed remainder of `wall_ms`.
    pub fn render(&self, op: &str, wall_ms: f64) -> String {
        let mut s = format!("self time per {op} (wall {wall_ms:.3} ms)\n");
        s.push_str(&format!(
            "  {:<34} {:>10} {:>12} {:>7}\n",
            "span", "calls", "self ms", "share"
        ));
        let share = |ms: f64| 100.0 * ms / wall_ms.max(1e-9);
        for (name, calls, ms) in &self.rows {
            s.push_str(&format!(
                "  {name:<34} {calls:>10.1} {ms:>12.3} {:>6.1}%\n",
                share(*ms)
            ));
        }
        let rest = wall_ms - self.covered_ms();
        s.push_str(&format!(
            "  {:<34} {:>10} {rest:>12.3} {:>6.1}%\n",
            "unattributed",
            "",
            share(rest)
        ));
        for (name, calls, ms) in &self.notes {
            s.push_str(&format!(
                "  (within the rows) {name:<16} {calls:>10.1} {ms:>12.3} {:>6.1}%\n",
                share(*ms)
            ));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::PER_LAYER;

    /// The names printed with `--trace 1` are exactly `BENCHMARK.json`'s
    /// per-layer list, with the same units.
    #[test]
    fn per_layer_matches_benchmark_json() {
        let spec = include_str!("../../BENCHMARK.json");
        let section = &spec[spec.find("\"per_layer\"").expect("per_layer section")..];
        let listed = section.matches("\"name\"").count();
        assert_eq!(listed, PER_LAYER.len());
        for (name, unit, _) in PER_LAYER {
            let entry = format!(r#"{{"name": "{name}", "unit": "{unit}""#);
            assert!(
                section.contains(&entry),
                "{entry} missing from BENCHMARK.json"
            );
        }
    }
}
