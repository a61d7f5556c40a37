//! End-to-end benchmark of the S-RAPS twin.
//!
//! ```sh
//! bash twinbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `run.sh` builds the release `sraps` daemon and this binary, then runs
//! one workload (see `BENCHMARK.json` for why each exists):
//!
//! * `sched_conservative` — one in-process `Engine` run per operation on a
//!   saturated adastra workload under conservative backfill.
//! * `window_sweep` — cold then warm cached `SweepRunner` passes over
//!   one-hour windows of one shared 60-day lassen trace.
//! * `whatif_serve` — an open-loop warm/cold query mix against a spawned
//!   `sraps serve` daemon.
//!
//! Every workload checks its outputs; a wrong answer counts as a failed
//! operation. The last stdout line is one JSON object: with `--trace 0`
//! it carries the end-to-end metrics, with `--trace 1` the per-layer
//! metrics of a separate traced run. The lines before it give the
//! provenance stamp and the workload's own named metrics.

mod layers;
mod pinned;
mod sched;
mod serve;
mod stats;
mod sweep;
mod trace;

use layers::Layers;
use std::path::PathBuf;
use std::process::ExitCode;

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed at exit.
    pub work: PathBuf,
    /// The release `sraps` binary (spawned by `whatif_serve`).
    pub sraps: PathBuf,
    pub nproc: usize,
}

/// A workload's result, before printing.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run's outputs or its measurement are not valid.
    pub problems: Vec<String>,
    pub setup_s: f64,
    pub throughput_per_s: f64,
    pub peak_rss_mb: f64,
    /// The workload's own metrics under their per-workload names, printed
    /// but not bounded: (name, value, unit, note).
    pub named: Vec<(&'static str, f64, &'static str, String)>,
    pub layers: Layers,
}

impl Outcome {
    pub fn named(&mut self, name: &'static str, value: f64, unit: &'static str, note: String) {
        self.named.push((name, value, unit, note));
    }
}

/// Workload names, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["sched_conservative", "window_sweep", "whatif_serve"];

const USAGE: &str =
    "usage: twinbench --workload NAME --seed N --seconds S --trace 0|1 --sraps PATH";

fn parse_args() -> Result<(String, Ctx), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace, mut sraps) =
        (None, None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value\n{USAGE}", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("bad --seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0 or 1)")),
                })
            }
            "--sraps" => sraps = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
        i += 2;
    }
    let workload = workload.ok_or(USAGE)?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.ok_or(USAGE)?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let sraps = sraps.ok_or(USAGE)?;
    // Scratch lives beside the build output, which the checkout ignores.
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    let work = target.join(format!("twinbench-{workload}-{}", std::process::id()));
    let ctx = Ctx {
        seed: seed.ok_or(USAGE)?,
        seconds,
        trace: trace.ok_or(USAGE)?,
        work,
        sraps,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    Ok((workload, ctx))
}

/// The result line's number format: shortest round-trip decimal, never
/// NaN or infinite (JSON has neither).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("twinbench: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("twinbench: create {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    println!("provenance: {}", stats::provenance(&ctx, &workload));
    let (started, steal_before) = (std::time::Instant::now(), stats::steal_s());
    let result = match workload.as_str() {
        "sched_conservative" => sched::run(&ctx),
        "window_sweep" => sweep::run(&ctx),
        _ => serve::run(&ctx),
    };
    let cpu_s = started.elapsed().as_secs_f64() * ctx.nproc as f64;
    println!(
        "host: {:.2}% of CPU time stolen by the hypervisor during the run",
        100.0 * (stats::steal_s() - steal_before) / cpu_s
    );
    let _ = std::fs::remove_dir_all(&ctx.work);
    let out = match result {
        Ok(out) => out,
        Err(msg) => {
            eprintln!("twinbench: {workload}: {msg}");
            return ExitCode::FAILURE;
        }
    };
    for p in &out.problems {
        eprintln!("twinbench: INVALID: {p}");
    }
    for (name, value, unit, note) in &out.named {
        println!("{workload}.{name:<22} {value:>14.4} {unit:<6} {note}");
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "{workload}.{:<22} {failed_frac:>14.4} {:<6} {} of {} operations",
        "failed_frac", "ratio", out.failed, out.attempted
    );
    let metrics: Vec<(&str, f64, &str)> = if ctx.trace {
        print!("{}", out.layers.render());
        out.layers.entries()
    } else {
        vec![
            ("setup_s", out.setup_s, "s"),
            ("throughput_per_s", out.throughput_per_s, "1/s"),
            ("peak_rss_mb", out.peak_rss_mb, "MB"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                r#""{name}": {{"value": {}, "unit": "{unit}"}}"#,
                num(*value)
            )
        })
        .collect();
    println!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        out.problems.is_empty() && out.failed == 0,
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
