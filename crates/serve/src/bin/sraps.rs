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

use sraps_core::{
    Engine, EngineMode, EngineSnapshot, SchedulerSelect, SimConfig, SimOutput, SimWindow,
};
use sraps_data::{scenario, Dataset, WorkloadSpec};
use sraps_exp::cli::{observed, write_trace, Argv};
use sraps_systems::SystemConfig;
use sraps_types::{fsio::write_atomic, SimDuration, SimTime};
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
  --load F               synthetic offered load, at most 10 (default 0.8)
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
    let mut args = Argv::new(argv);
    while let Some(flag) = args.flag() {
        match flag {
            "--system" => a.system = Some(args.value()?),
            "--scenario" => a.scenario = Some(args.value()?),
            "--policy" => a.policy = args.value()?,
            "--backfill" => a.backfill = args.value()?,
            "--scheduler" => a.scheduler = args.value()?,
            "--engine" => a.engine = args.value_with(EngineMode::parse)?,
            "-ff" => a.fast_forward = Some(args.duration()?),
            "-t" => a.duration = Some(args.positive_duration()?),
            "--load" => a.load = args.offered_load()?,
            "--span" => a.span = args.positive_duration()?,
            "--seed" => a.seed = args.num()?,
            "--scale" => a.scale = args.positive()?,
            "-c" | "--cooling" => a.cooling = true,
            "--accounts" => a.accounts = true,
            "--accounts-json" => a.accounts_json = Some(args.value()?.into()),
            "--power-cap" => a.power_cap_kw = Some(args.positive()?),
            "-o" | "--output" => a.out_dir = Some(args.value()?.into()),
            "--profile" => a.profile = true,
            "--trace-out" => a.trace_out = Some(args.value()?.into()),
            "--checkpoint" => a.checkpoint = Some(args.value()?.into()),
            "--checkpoint-at" => a.checkpoint_at = Some(args.duration()?),
            "--resume" => a.resume = Some(args.value()?.into()),
            other => return Err(format!("unknown argument '{other}'\n\n{USAGE}")),
        }
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
        let d = CliArgs::default();
        let workload_flags = [(a.load != d.load, "--load"), (a.span != d.span, "--span")];
        let s = scenario::by_name(name, a.seed, a.scale, &workload_flags)?;
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

    let out = observed(a.profile, a.trace_out.is_some(), || {
        let mut engine = match &a.resume {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("read snapshot {}: {e}", path.display()))?;
                let snap: EngineSnapshot = serde_json::from_str(&text)
                    .map_err(|e| format!("parse snapshot {}: {e}", path.display()))?;
                SimWindow::new(&sim, &dataset)
                    .and_then(|window| Engine::resume(sim, &window, &snap))
                    .map_err(|e| e.to_string())?
            }
            None => Engine::new(sim, &dataset).map_err(|e| e.to_string())?,
        };
        if let (Some(path), Some(at)) = (&a.checkpoint, a.checkpoint_at) {
            // Pause at the tick boundary, persist, and stop: the snapshot
            // is the run's artifact (resume it with --resume to finish).
            engine
                .run_until(engine.sim_start() + at)
                .map_err(|e| e.to_string())?;
            let snap = engine.snapshot().map_err(|e| e.to_string())?;
            let json = serde_json::to_string(&snap).map_err(|e| e.to_string())?;
            write_atomic(path, json.as_bytes())
                .map_err(|e| format!("write snapshot {}: {e}", path.display()))?;
            println!("checkpoint written to {}", path.display());
            return Ok(None);
        }
        engine.run().map(Some).map_err(|e| e.to_string())
    })?;
    let Some(out) = out else {
        return Ok(());
    };
    write_trace(a.trace_out.as_deref())?;

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
    let result = match argv.first().map(String::as_str) {
        Some("sweep") => sraps_exp::cli::sweep_command(&argv[1..]),
        Some("serve") => sraps_serve::cli::serve_command(&argv[1..]),
        Some("query") => sraps_serve::cli::query_command(&argv[1..]),
        Some("validate-trace") => match &argv[1..] {
            [path] => validate_trace(path),
            _ => Err("usage: sraps validate-trace PATH".into()),
        }
        .map_err(|e| format!("error: {e}")),
        // Help is a success, on stdout (unlike usage-on-error).
        _ if argv.iter().any(|a| a == "-h" || a == "--help") => {
            println!("{USAGE}");
            Ok(())
        }
        _ => parse_args(&argv).and_then(|a| run(a).map_err(|e| format!("error: {e}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
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
    fn malformed_values_name_their_flag() {
        for (flag, v) in [
            ("--load", "nan"),
            ("--load", "inf"),
            ("--load", "0"),
            ("--load", "-1"),
            ("--load", "1e6"),
            ("--scale", "nan"),
            ("--scale", "-1"),
            ("--scale", "0"),
            ("--span", "0"),
            ("-t", "0"),
            ("-ff", "-1h"),
            ("--checkpoint-at", "-1h"),
        ] {
            let e = parse(&["--system", "lassen", flag, v]).unwrap_err();
            assert!(e.contains(&format!("bad {flag} value")), "{flag} {v}: {e}");
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
        // A scenario fixes its own workload: flags it would ignore fail.
        for (args, flag) in [
            (&["--scenario", "fig5", "--load", "0.3"][..], "--load"),
            (&["--scenario", "fig6", "--span", "2h"][..], "--span"),
            (&["--scenario", "fig5", "--scale", "0.25"][..], "--scale"),
        ] {
            let e = build_inputs(&parse(args).unwrap()).unwrap_err();
            assert!(e.contains(flag), "{args:?}: {e}");
        }
    }
}
