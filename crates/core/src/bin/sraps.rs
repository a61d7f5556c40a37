//! `sraps` — the command-line front-end, mirroring the paper artifact's
//! `python main.py` interface:
//!
//! ```text
//! sraps --system marconi100 --policy fcfs --backfill easy -ff 4381000 -t 61000 -o out/
//! sraps --scenario fig4 --policy priority --backfill firstfit -o out/
//! sraps --system frontier --scheduler fastsim --load 0.8 --span 1d
//! sraps --system marconi100 --scheduler experimental --policy acct_edp \
//!       --backfill firstfit --accounts --accounts-json replay/accounts.json
//! sraps sweep --system lassen --policies fcfs,sjf,priority \
//!       --backfills none,easy --seeds 3 --jobs 4
//! ```
//!
//! Without `--scenario`, a synthetic dataset shaped like the system's
//! public dataset is generated (`--load`, `--span`, `--seed` control it).
//! Outputs (power/util/queue/cooling CSVs, `job_history.csv`, `stats.out`,
//! `accounts.json`) land in `-o DIR` (default `simulation_results/<id>`).
//!
//! `sraps sweep` runs *matrices* of simulations (systems × policies ×
//! backfills × seeds × …) on a multi-threaded work-stealing executor and
//! emits a baseline-relative comparison report — see [`sraps_exp`]. With
//! `--cache` (or `SRAPS_CACHE_DIR` set) finished cells are memoized on
//! disk under content-addressed keys, so re-running an overlapping matrix
//! only simulates the cells that changed; `--metrics-only` bounds sweep
//! memory for very large matrices.

use sraps_core::{Engine, EngineMode, EngineSnapshot, SchedulerSelect, SimConfig, SimOutput};
use sraps_data::{scenario, Dataset, WorkloadSpec};
use sraps_systems::SystemConfig;
use sraps_types::{fsio::write_atomic, time::parse_duration, SimDuration, SimTime};
use std::path::PathBuf;
use std::process::ExitCode;

#[derive(Debug, Clone, PartialEq)]
struct CliArgs {
    system: Option<String>,
    scenario: Option<String>,
    policy: String,
    backfill: String,
    scheduler: String,
    engine: EngineMode,
    fast_forward: Option<SimDuration>,
    duration: Option<SimDuration>,
    load: f64,
    span: SimDuration,
    seed: u64,
    scale: f64,
    cooling: bool,
    accounts: bool,
    accounts_json: Option<PathBuf>,
    power_cap_kw: Option<f64>,
    out_dir: Option<PathBuf>,
    profile: bool,
    trace_out: Option<PathBuf>,
    checkpoint: Option<PathBuf>,
    checkpoint_at: Option<SimDuration>,
    resume: Option<PathBuf>,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            system: None,
            scenario: None,
            policy: "replay".into(),
            backfill: "none".into(),
            scheduler: "default".into(),
            engine: EngineMode::default(),
            fast_forward: None,
            duration: None,
            load: 0.8,
            span: SimDuration::days(1),
            seed: 42,
            scale: 1.0,
            cooling: false,
            accounts: false,
            accounts_json: None,
            power_cap_kw: None,
            out_dir: None,
            profile: false,
            trace_out: None,
            checkpoint: None,
            checkpoint_at: None,
            resume: None,
        }
    }
}

const USAGE: &str = "\
usage: sraps (--system NAME | --scenario fig4|fig5|fig6|fig7|fig8|fig10) [options]
       sraps sweep ...        run an experiment matrix, optionally cached and
                              metrics-only (see `sraps sweep --help`)
       sraps serve ...        run the resident what-if twin service
                              (see `sraps serve --help`)
       sraps query ...        send what-if queries to a running daemon
                              (see `sraps query --help`)
       sraps validate-trace PATH
                              check a --trace-out file is well-formed
                              chrome-trace JSON with properly nested spans

options:
  --system NAME          frontier | marconi100 | fugaku | lassen | adastra
  --scenario NAME        use a paper scenario's workload and window
  --policy P             replay|fcfs|sjf|ljf|priority|ml|acct_* (default replay)
  --backfill B           none|firstfit|easy|conservative (default none)
  --scheduler S          default|experimental|scheduleflow|fastsim
  --engine E             event|tick main-loop core (default event; both are
                         bit-identical, tick is the paper's fixed-tick loop)
  -ff SECS               fast-forward: simulation window start
  -t DUR                 simulation duration (accepts 61000, 1h, 15d, …)
  --load F               synthetic offered load (default 0.8)
  --span DUR             synthetic workload span (default 1d)
  --seed N               synthetic workload seed (default 42)
  --scale F              scale large machines (frontier/fugaku) by F
  -c, --cooling          run the cooling model
  --accounts             track per-account statistics
  --accounts-json FILE   reload collection-phase accounts.json
  --power-cap KW         enforce a facility job-power cap
  -o, --output DIR       output directory (default simulation_results/<id>)
  --profile              print per-phase timings and counters on stderr and
                         write profile.json into the output directory
  --trace-out PATH       write a chrome-trace (Perfetto-loadable) JSON of
                         every instrumented span to PATH
  --checkpoint PATH      pause at --checkpoint-at, write an engine snapshot
                         (JSON) to PATH, and exit without simulating further
  --checkpoint-at DUR    offset into the window at which to checkpoint
                         (required by --checkpoint, tick-boundary-aligned)
  --resume PATH          restore a --checkpoint snapshot and continue; with
                         the same flags the finished run is byte-identical
                         to one that never paused
  -h, --help             this help
";

fn parse_args(argv: &[String]) -> Result<CliArgs, String> {
    let mut a = CliArgs::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--system" => a.system = Some(value(&mut i, "--system")?),
            "--scenario" => a.scenario = Some(value(&mut i, "--scenario")?),
            "--policy" => a.policy = value(&mut i, "--policy")?,
            "--backfill" => a.backfill = value(&mut i, "--backfill")?,
            "--scheduler" => a.scheduler = value(&mut i, "--scheduler")?,
            "--engine" => {
                let v = value(&mut i, "--engine")?;
                a.engine =
                    EngineMode::parse(&v).ok_or_else(|| format!("bad --engine value '{v}'"))?;
            }
            "-ff" => {
                let v = value(&mut i, "-ff")?;
                a.fast_forward =
                    Some(parse_duration(&v).ok_or_else(|| format!("bad -ff value '{v}'"))?);
            }
            "-t" => {
                let v = value(&mut i, "-t")?;
                a.duration = Some(parse_duration(&v).ok_or_else(|| format!("bad -t value '{v}'"))?);
            }
            "--load" => {
                a.load = value(&mut i, "--load")?
                    .parse()
                    .map_err(|e| format!("bad --load: {e}"))?;
            }
            "--span" => {
                let v = value(&mut i, "--span")?;
                a.span = parse_duration(&v).ok_or_else(|| format!("bad --span value '{v}'"))?;
            }
            "--seed" => {
                a.seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--scale" => {
                a.scale = value(&mut i, "--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "-c" | "--cooling" => a.cooling = true,
            "--accounts" => a.accounts = true,
            "--accounts-json" => {
                a.accounts_json = Some(PathBuf::from(value(&mut i, "--accounts-json")?));
            }
            "--power-cap" => {
                let v = value(&mut i, "--power-cap")?;
                let kw: f64 = v.parse().map_err(|e| format!("bad --power-cap: {e}"))?;
                if !(kw.is_finite() && kw > 0.0) {
                    return Err(format!("bad --power-cap '{v}': need a finite kW value > 0"));
                }
                a.power_cap_kw = Some(kw);
            }
            "-o" | "--output" => a.out_dir = Some(PathBuf::from(value(&mut i, "--output")?)),
            "--profile" => a.profile = true,
            "--trace-out" => a.trace_out = Some(PathBuf::from(value(&mut i, "--trace-out")?)),
            "--checkpoint" => a.checkpoint = Some(PathBuf::from(value(&mut i, "--checkpoint")?)),
            "--checkpoint-at" => {
                let v = value(&mut i, "--checkpoint-at")?;
                a.checkpoint_at =
                    Some(parse_duration(&v).ok_or_else(|| format!("bad --checkpoint-at '{v}'"))?);
            }
            "--resume" => a.resume = Some(PathBuf::from(value(&mut i, "--resume")?)),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
        i += 1;
    }
    if a.system.is_none() && a.scenario.is_none() {
        return Err(format!("need --system or --scenario\n\n{USAGE}"));
    }
    if a.checkpoint.is_some() != a.checkpoint_at.is_some() {
        return Err("--checkpoint and --checkpoint-at must be given together".into());
    }
    Ok(a)
}

/// System + dataset + optional documented window for a run.
type RunInputs = (SystemConfig, Dataset, Option<(SimTime, SimTime)>);

/// Build the (config, dataset, window) triple the run will use.
fn build_inputs(a: &CliArgs) -> Result<RunInputs, String> {
    if let Some(name) = &a.scenario {
        let s = match name.as_str() {
            "fig4" => scenario::fig4(a.seed),
            "fig5" => scenario::fig5(a.seed),
            "fig6" => scenario::fig6_scaled(a.seed, a.scale),
            "fig7" => scenario::fig7(a.seed, a.scale),
            "fig8" => scenario::fig8_scaled(a.seed, a.scale),
            "fig10" => scenario::fig10(a.seed, a.scale.min(4096.0 / 158_976.0)),
            other => return Err(format!("unknown scenario '{other}'")),
        };
        return Ok((s.config, s.dataset, Some((s.sim_start, s.sim_end))));
    }
    let name = a.system.as_deref().expect("checked in parse_args");
    // Shared with the sweep subsystem so system lookup, the scale floor,
    // and the dataloader dispatch cannot drift between interfaces.
    let cfg = sraps_exp::cell::system_scaled(name, a.scale).map_err(|e| e.to_string())?;
    let mut spec = WorkloadSpec::for_system(&cfg, a.load, a.seed);
    spec.span = a.span;
    let ds = sraps_exp::cell::synthesize_by_name(name, &cfg, &spec).map_err(|e| e.to_string())?;
    Ok((cfg, ds, None))
}

// Artifacts install via temp+rename so an interrupted run never leaves a
// torn CSV where the next tool (or a rerun's diff) would read it.
fn write_outputs(dir: &PathBuf, out: &SimOutput) -> sraps_types::Result<()> {
    std::fs::create_dir_all(dir).map_err(|e| {
        sraps_types::SrapsError::Io(format!("create output dir {}: {e}", dir.display()))
    })?;
    write_atomic(&dir.join("power_history.csv"), out.power_csv().as_bytes())?;
    write_atomic(&dir.join("util.csv"), out.util_csv().as_bytes())?;
    write_atomic(&dir.join("job_history.csv"), out.job_csv().as_bytes())?;
    write_atomic(&dir.join("stats.out"), out.stats.render().as_bytes())?;
    if !out.cooling.is_empty() {
        write_atomic(&dir.join("cooling_model.csv"), out.cooling_csv().as_bytes())?;
    }
    if !out.accounts.is_empty() {
        write_atomic(
            &dir.join("accounts.json"),
            out.accounts.to_json().unwrap_or_default().as_bytes(),
        )?;
    }
    Ok(())
}

/// The run's window bounds: explicit `-ff`/`-t` beat the scenario's
/// documented window, and `-t` counts from the start bound. Each bound is
/// set on its own; one left `None` resolves to the capture bound, as in
/// [`Dataset::resolve_window`].
fn run_window(
    a: &CliArgs,
    dataset: &Dataset,
    window: Option<(SimTime, SimTime)>,
) -> (Option<SimTime>, Option<SimTime>) {
    let start = a
        .fast_forward
        .map(|ff| dataset.capture_start + ff)
        .or(window.map(|w| w.0));
    let end = match a.duration {
        Some(d) => Some(start.unwrap_or(dataset.capture_start) + d),
        None => window.map(|w| w.1),
    };
    (start, end)
}

fn run(a: CliArgs) -> Result<(), String> {
    let (cfg, dataset, window) = build_inputs(&a)?;
    println!(
        "system {} ({} nodes), dataset {} jobs",
        cfg.name,
        cfg.total_nodes,
        dataset.len()
    );

    let mut sim = SimConfig::new(cfg, &a.policy, &a.backfill).map_err(|e| e.to_string())?;
    match a.scheduler.as_str() {
        "default" => {}
        "experimental" => sim.scheduler = SchedulerSelect::Experimental,
        "scheduleflow" => sim.scheduler = SchedulerSelect::ScheduleFlow,
        "fastsim" => sim.scheduler = SchedulerSelect::FastSim,
        other => return Err(format!("unknown scheduler '{other}'")),
    }
    sim = sim.with_engine(a.engine);
    (sim.sim_start, sim.sim_end) = run_window(&a, &dataset, window);
    if a.cooling {
        sim = sim.with_cooling();
    }
    if a.accounts {
        sim = sim.with_accounts();
    }
    if let Some(path) = &a.accounts_json {
        let loaded = sraps_acct::Accounts::load(path).map_err(|e| e.to_string())?;
        sim = sim.with_accounts_json(loaded);
    }
    if let Some(cap) = a.power_cap_kw {
        sim = sim.with_power_cap(cap);
    }

    // Instrumentation is process-global; flip it on for exactly this run.
    sraps_obs::set_profile(a.profile);
    sraps_obs::set_trace(a.trace_out.is_some());
    let mut engine = match &a.resume {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("read snapshot {}: {e}", path.display()))?;
            let snap: EngineSnapshot = serde_json::from_str(&text)
                .map_err(|e| format!("parse snapshot {}: {e}", path.display()))?;
            Engine::builder(sim)
                .resume(&snap)
                .build(&dataset)
                .map_err(|e| e.to_string())?
        }
        None => Engine::new(sim, &dataset).map_err(|e| e.to_string())?,
    };
    if let (Some(path), Some(at)) = (&a.checkpoint, a.checkpoint_at) {
        // Pause at the tick boundary, persist, and stop: the snapshot is
        // the run's artifact (resume it with --resume to finish).
        let result = (|| -> Result<(), String> {
            engine
                .run_until(engine.sim_start() + at)
                .map_err(|e| e.to_string())?;
            let snap = engine.snapshot().map_err(|e| e.to_string())?;
            let json = serde_json::to_string(&snap).map_err(|e| e.to_string())?;
            write_atomic(path, json.as_bytes())
                .map_err(|e| format!("write snapshot {}: {e}", path.display()))?;
            Ok(())
        })();
        sraps_obs::set_profile(false);
        sraps_obs::set_trace(false);
        result?;
        println!("checkpoint written to {}", path.display());
        return Ok(());
    }
    let out = engine.run().map_err(|e| e.to_string())?;
    sraps_obs::set_profile(false);
    sraps_obs::set_trace(false);
    if let Some(path) = &a.trace_out {
        sraps_obs::write_trace(path).map_err(|e| format!("write trace {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    }

    println!(
        "{}: {} jobs, util {:.1}%, mean {:.1} kW, peak {:.1} kW, {:.0}x real-time",
        out.label,
        out.stats.jobs_completed,
        out.mean_utilization() * 100.0,
        out.mean_power_kw(),
        out.peak_power_kw(),
        out.speedup()
    );
    println!("{}", out.stats.render());

    // Artifact-style output directory: simulation_results/<7-hex>.
    let dir = a.out_dir.unwrap_or_else(|| {
        let id = {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut h = DefaultHasher::new();
            (out.label.as_str(), a.seed, out.stats.jobs_completed).hash(&mut h);
            format!("{:07x}", h.finish() & 0xFFF_FFFF)
        };
        PathBuf::from("simulation_results").join(id)
    });
    write_outputs(&dir, &out).map_err(|e| e.to_string())?;
    if let Some(profile) = &out.profile {
        eprint!("\n{}", profile.render_table());
        let json = serde_json::to_string_pretty(profile).map_err(|e| e.to_string())?;
        write_atomic(&dir.join("profile.json"), json.as_bytes()).map_err(|e| e.to_string())?;
    }
    println!("output written to {}", dir.display());
    Ok(())
}

/// `sraps validate-trace PATH`: parse and structurally check a chrome-trace
/// file (every `E` closes a matching `B`, per-thread timestamps are
/// monotone). Prints the event count on success.
fn validate_trace(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let events = sraps_obs::validate_chrome_trace(&text)?;
    println!("trace ok: {events} events ({path})");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `sraps sweep ...` — the experiment-matrix subcommand (sraps-exp).
    if argv.first().map(String::as_str) == Some("sweep") {
        return match sraps_exp::cli::sweep_command(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    // `sraps serve ...` / `sraps query ...` — the resident what-if twin
    // service and its NDJSON client (sraps-serve).
    if argv.first().map(String::as_str) == Some("serve") {
        return match sraps_serve::cli::serve_command(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    if argv.first().map(String::as_str) == Some("query") {
        return match sraps_serve::cli::query_command(&argv[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("{msg}");
                ExitCode::FAILURE
            }
        };
    }
    // `sraps validate-trace PATH` — structural check of a --trace-out file.
    if argv.first().map(String::as_str) == Some("validate-trace") {
        let result = match argv.get(1) {
            Some(path) if argv.len() == 2 => validate_trace(path),
            _ => Err("usage: sraps validate-trace PATH".into()),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    // Help is a success, on stdout (unlike usage-on-error).
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match parse_args(&argv) {
        Ok(args) => match run(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliArgs, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn artifact_style_invocation_parses() {
        let a = parse(&[
            "--system",
            "marconi100",
            "--policy",
            "fcfs",
            "--backfill",
            "easy",
            "-ff",
            "4381000",
            "-t",
            "61000",
            "-o",
            "out",
        ])
        .unwrap();
        assert_eq!(a.system.as_deref(), Some("marconi100"));
        assert_eq!(a.policy, "fcfs");
        assert_eq!(a.backfill, "easy");
        assert_eq!(a.fast_forward, Some(SimDuration::seconds(4_381_000)));
        assert_eq!(a.duration, Some(SimDuration::seconds(61_000)));
        assert_eq!(a.out_dir, Some(PathBuf::from("out")));
    }

    #[test]
    fn engine_flag_parses() {
        let a = parse(&["--system", "adastra", "--engine", "tick"]).unwrap();
        assert_eq!(a.engine, EngineMode::Tick);
        let a = parse(&["--system", "adastra"]).unwrap();
        assert_eq!(a.engine, EngineMode::Event);
        assert!(parse(&["--system", "adastra", "--engine", "warp"]).is_err());
    }

    #[test]
    fn duration_suffixes_accepted() {
        let a = parse(&["--system", "adastra", "-t", "1h", "--span", "15d"]).unwrap();
        assert_eq!(a.duration, Some(SimDuration::hours(1)));
        assert_eq!(a.span, SimDuration::days(15));
    }

    #[test]
    fn profile_and_trace_flags_parse() {
        let a = parse(&["--system", "adastra"]).unwrap();
        assert!(!a.profile);
        assert_eq!(a.trace_out, None);
        let a = parse(&[
            "--system",
            "adastra",
            "--profile",
            "--trace-out",
            "/tmp/t.json",
        ])
        .unwrap();
        assert!(a.profile);
        assert_eq!(a.trace_out, Some(PathBuf::from("/tmp/t.json")));
        assert!(parse(&["--system", "adastra", "--trace-out"]).is_err());
    }

    #[test]
    fn checkpoint_flags_parse_and_pair_up() {
        let a = parse(&[
            "--system",
            "adastra",
            "--checkpoint",
            "/tmp/s.json",
            "--checkpoint-at",
            "30m",
        ])
        .unwrap();
        assert_eq!(a.checkpoint, Some(PathBuf::from("/tmp/s.json")));
        assert_eq!(a.checkpoint_at, Some(SimDuration::minutes(30)));

        let a = parse(&["--system", "adastra", "--resume", "/tmp/s.json"]).unwrap();
        assert_eq!(a.resume, Some(PathBuf::from("/tmp/s.json")));

        // Either half of the checkpoint pair alone is a usage error.
        let e = parse(&["--system", "adastra", "--checkpoint", "/tmp/s.json"]).unwrap_err();
        assert!(e.contains("--checkpoint-at"));
        let e = parse(&["--system", "adastra", "--checkpoint-at", "30m"]).unwrap_err();
        assert!(e.contains("--checkpoint"));
        assert!(parse(&["--system", "adastra", "--checkpoint-at", "soon"]).is_err());
    }

    #[test]
    fn missing_system_and_scenario_is_an_error() {
        assert!(parse(&["--policy", "fcfs"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let e = parse(&["--system", "adastra", "--frobnicate"]).unwrap_err();
        assert!(e.contains("unknown argument"));
    }

    #[test]
    fn non_finite_power_cap_is_an_error() {
        for v in ["nan", "inf", "0", "-5"] {
            let e = parse(&["--system", "lassen", "--power-cap", v]).unwrap_err();
            assert!(e.contains("--power-cap"), "{v}: {e}");
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse(&["--system"]).is_err());
        assert!(parse(&["--system", "adastra", "--power-cap"]).is_err());
    }

    #[test]
    fn scenario_and_flags_parse() {
        let a = parse(&[
            "--scenario",
            "fig4",
            "--policy",
            "priority",
            "--backfill",
            "firstfit",
            "-c",
            "--accounts",
            "--power-cap",
            "1200",
            "--seed",
            "7",
            "--scale",
            "0.25",
        ])
        .unwrap();
        assert_eq!(a.scenario.as_deref(), Some("fig4"));
        assert!(a.cooling && a.accounts);
        assert_eq!(a.power_cap_kw, Some(1200.0));
        assert_eq!(a.seed, 7);
        assert!((a.scale - 0.25).abs() < 1e-12);
    }

    #[test]
    fn build_inputs_for_system_and_scenario() {
        let a = parse(&["--system", "adastra", "--span", "2h", "--load", "0.5"]).unwrap();
        let (cfg, ds, window) = build_inputs(&a).unwrap();
        assert_eq!(cfg.name, "adastra");
        assert!(!ds.is_empty());
        assert!(window.is_none());

        let a = parse(&["--scenario", "fig5"]).unwrap();
        let (cfg, _, window) = build_inputs(&a).unwrap();
        assert_eq!(cfg.name, "adastra");
        assert!(window.is_some());
    }

    /// Ticks and job outcomes of the run an invocation describes.
    fn simulated(args: &[&str]) -> (usize, usize) {
        let a = parse(args).unwrap();
        let (cfg, ds, window) = build_inputs(&a).unwrap();
        let mut sim = SimConfig::new(cfg, &a.policy, &a.backfill).unwrap();
        (sim.sim_start, sim.sim_end) = run_window(&a, &ds, window);
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        (out.times.len(), out.outcomes.len())
    }

    const ADASTRA_4H: [&str; 4] = ["--system", "adastra", "--span", "4h"];

    #[test]
    fn duration_alone_restricts_the_window() {
        let whole = simulated(&ADASTRA_4H);
        let hour = simulated(&[&ADASTRA_4H[..], &["-t", "1h"]].concat());
        let from_zero = simulated(&[&ADASTRA_4H[..], &["-ff", "0", "-t", "1h"]].concat());
        assert_eq!(hour, from_zero, "-t counts from the capture start");
        assert_eq!(hour.0, 60, "one hour of one-minute ticks");
        assert!(hour.1 < whole.1, "{hour:?} vs whole capture {whole:?}");
    }

    #[test]
    fn fast_forward_alone_restricts_the_window() {
        let whole = simulated(&ADASTRA_4H);
        let late = simulated(&[&ADASTRA_4H[..], &["-ff", "3h"]].concat());
        assert_eq!(late.0, whole.0 - 180, "the window starts 3 h in");
        assert!(late.1 < whole.1, "{late:?} vs whole capture {whole:?}");
    }

    #[test]
    fn bad_system_or_scenario_reported() {
        let a = parse(&["--system", "summit"]).unwrap();
        assert!(build_inputs(&a).is_err());
        let a = parse(&["--scenario", "fig99"]).unwrap();
        assert!(build_inputs(&a).is_err());
    }
}
