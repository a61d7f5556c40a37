//! The `sraps sweep` subcommand: a thin argv veneer over
//! [`ExperimentMatrix`] + [`SweepRunner`] + [`Report`].
//!
//! ```text
//! sraps sweep --system lassen --policies fcfs,sjf,priority \
//!             --backfills none,easy --seeds 3 --jobs 4
//! sraps sweep --scenario fig4 --pairs replay:none,fcfs:none,fcfs:easy,priority:firstfit
//! sraps sweep --system frontier --scale 0.1 --loads 0.7,0.9,1.1 --cooling
//! ```
//!
//! Prints the comparison table and writes `sweep.csv` + `sweep.json`
//! (and optionally per-cell histories) into the output directory. The
//! written files are bit-identical for any `--jobs` value.

use crate::cache::CellCache;
use crate::matrix::ExperimentMatrix;
use crate::report::Report;
use crate::runner::{SweepOptions, SweepRunner};
use sraps_core::EngineMode;
use sraps_data::scenario;
use sraps_types::fsio::write_atomic;
use sraps_types::time::parse_duration;
use sraps_types::SimDuration;
use std::path::PathBuf;

pub const SWEEP_USAGE: &str = "\
usage: sraps sweep (--system NAMES | --scenario NAMES) [options]

workload axes:
  --system NAMES         comma-separated: frontier|marconi100|fugaku|lassen|adastra
  --scenario NAMES       comma-separated paper scenarios: fig4|fig5|fig6|fig7|fig8|fig10
  --loads F,F            offered loads for synthetic workloads (default 0.8)
  --seeds N              number of consecutive seeds (default 1)
  --seed N               first seed (default 42)
  --span DUR             synthetic workload span (default 1d; accepts 1h, 15d, 61000)
  --scale F              scale large machines by F (systems, and the
                         fig6/fig7/fig8/fig10 scenarios)

schedule axes:
  --policies P,P         cross-product policies (default fcfs)
  --backfills B,B        cross-product backfills (default none)
  --pairs P:B,P:B        explicit policy:backfill pairs (overrides the cross-product)

run shape:
  -c, --cooling          run the cooling model in every cell
  --power-caps KW,KW     facility power-cap axis; 'none' = uncapped
                         (e.g. --power-caps none,1200)
  --cap-at DUR           defer every cell's power cap until DUR past the
                         window start (uncapped cells unaffected); needs a
                         non-'none' --power-caps value. Cells that differ
                         only in the cap simulate their shared prefix
                         once per sweep and fork from an in-memory
                         snapshot of it (output is identical to running
                         each cell alone)
  --engine E             event|tick main-loop core for every cell
                         (default event; both produce identical output)

execution & output:
  --jobs N               worker threads (default: all cores)
  --baseline P-B         baseline cell kind for deltas (default: first cell)
  -o, --output DIR       report directory (default simulation_results/sweep)
  --write-histories      also write per-cell power/util CSVs
  -q, --quiet            suppress per-cell progress lines
  -h, --help             this help

observability:
  --profile              collect per-phase timings and counters; print the
                         aggregated profile table on stderr after the run
  --trace-out PATH       write a chrome-trace (Perfetto-loadable) JSON of
                         every span to PATH (validate with
                         `sraps validate-trace PATH`)

fault tolerance:
  --retries N            per-cell retry budget for worker panics and
                         transient I/O (default 2); exhausted cells land
                         in the failed-cells table and the sweep exits
                         nonzero
  --fail-fast            abort the whole sweep on the first cell that
                         exhausts its retries, instead of collecting it
                         into the failed-cells table
  --no-claims            skip the per-cell claim leases cached sweeps use
                         to partition work across cooperating processes
                         (claim TTL/poll tune via SRAPS_CLAIM_TTL_MS and
                         SRAPS_CLAIM_POLL_MS)
  --faults SPEC          arm the deterministic fault-injection harness
                         (also: SRAPS_FAULTS env; the flag wins). SPEC is
                         comma-separated entries KIND@INDEX or KIND%RATE
                         with optional :persist / :seedN / :DURms
                         modifiers; cell kinds: panic, write-fail,
                         write-delay, truncate; service kinds (indexed
                         by daemon request sequence): accept-fail,
                         slow-worker, drop-conn. e.g.
                         'panic@2,truncate@0', 'panic%25:seed7', or
                         'slow-worker%50:200ms,drop-conn@2'

caching & memory:
  --cache                memoize cells on disk: hits skip simulation,
                         misses simulate and write back atomically
  --cache-dir DIR        cache location (implies --cache; default
                         $SRAPS_CACHE_DIR, else OUTPUT/cache). Setting
                         SRAPS_CACHE_DIR also enables caching.
  --no-cache             disable caching even if SRAPS_CACHE_DIR is set
  --metrics-only         drop each cell's full output after folding it
                         into metrics: sweep memory stays O(cells), and
                         reports are byte-identical to the default path
                         (with --write-histories this needs --cache, the
                         histories spill there)
";

#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    pub systems: Vec<String>,
    pub scenarios: Vec<String>,
    pub policies: Vec<String>,
    pub backfills: Vec<String>,
    pub pairs: Option<Vec<(String, String)>>,
    pub loads: Vec<f64>,
    pub seed_count: u64,
    pub seed_base: u64,
    pub span: SimDuration,
    pub scale: f64,
    pub cooling: bool,
    pub power_caps: Vec<Option<f64>>,
    /// `--cap-at DUR`: defer every cell's cap until this offset.
    pub cap_at: Option<SimDuration>,
    pub engine: EngineMode,
    pub jobs: Option<usize>,
    pub baseline: Option<String>,
    pub out_dir: PathBuf,
    pub write_histories: bool,
    pub quiet: bool,
    /// `Some(true)` ⇒ `--cache`/`--cache-dir`, `Some(false)` ⇒
    /// `--no-cache`, `None` ⇒ enabled iff `SRAPS_CACHE_DIR` is set.
    pub cache: Option<bool>,
    /// Explicit `--cache-dir`; otherwise resolved via
    /// [`CellCache::default_dir`].
    pub cache_dir: Option<PathBuf>,
    pub metrics_only: bool,
    /// `--profile`: collect phase timings + counters and print the
    /// aggregated table on stderr.
    pub profile: bool,
    /// `--trace-out PATH`: write a chrome-trace JSON of every span.
    pub trace_out: Option<PathBuf>,
    /// `--retries N`; `None` ⇒ runner default.
    pub retries: Option<u32>,
    /// `--fail-fast`: abort on the first permanently failed cell.
    pub fail_fast: bool,
    /// `--no-claims` clears this (claim leases are on by default).
    pub claims: bool,
    /// `--faults SPEC`: validated fault-plan spec (armed at run time).
    pub faults: Option<String>,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            systems: Vec::new(),
            scenarios: Vec::new(),
            policies: vec!["fcfs".into()],
            backfills: vec!["none".into()],
            pairs: None,
            loads: vec![0.8],
            seed_count: 1,
            seed_base: 42,
            span: SimDuration::days(1),
            scale: 1.0,
            cooling: false,
            power_caps: vec![None],
            cap_at: None,
            engine: EngineMode::default(),
            jobs: None,
            baseline: None,
            out_dir: PathBuf::from("simulation_results").join("sweep"),
            write_histories: false,
            quiet: false,
            cache: None,
            cache_dir: None,
            metrics_only: false,
            profile: false,
            trace_out: None,
            retries: None,
            fail_fast: false,
            claims: true,
            faults: None,
        }
    }
}

impl SweepArgs {
    /// Resolve the cache directory the run will use (`None` ⇒ caching
    /// off): explicit flags beat the `SRAPS_CACHE_DIR` auto-enable.
    pub fn resolved_cache_dir(&self) -> Option<PathBuf> {
        let enabled = match self.cache {
            Some(on) => on,
            None => std::env::var_os("SRAPS_CACHE_DIR").is_some(),
        };
        enabled.then(|| {
            self.cache_dir
                .clone()
                .unwrap_or_else(|| CellCache::default_dir(&self.out_dir))
        })
    }
}

fn split_csv(s: &str) -> Vec<String> {
    s.split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(str::to_string)
        .collect()
}

pub fn parse_sweep_args(argv: &[String]) -> Result<SweepArgs, String> {
    let mut a = SweepArgs::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--system" | "--systems" => a.systems = split_csv(&value(&mut i, "--system")?),
            "--scenario" | "--scenarios" => a.scenarios = split_csv(&value(&mut i, "--scenario")?),
            "--policies" => a.policies = split_csv(&value(&mut i, "--policies")?),
            "--backfills" => a.backfills = split_csv(&value(&mut i, "--backfills")?),
            "--pairs" => {
                let mut pairs = Vec::new();
                for part in split_csv(&value(&mut i, "--pairs")?) {
                    let (p, b) = part
                        .split_once(':')
                        .ok_or_else(|| format!("bad pair '{part}': want policy:backfill"))?;
                    pairs.push((p.to_string(), b.to_string()));
                }
                if pairs.is_empty() {
                    return Err("--pairs needs at least one policy:backfill".into());
                }
                a.pairs = Some(pairs);
            }
            "--loads" => {
                a.loads = split_csv(&value(&mut i, "--loads")?)
                    .iter()
                    .map(|v| v.parse().map_err(|e| format!("bad load '{v}': {e}")))
                    .collect::<Result<_, String>>()?;
            }
            "--seeds" => {
                a.seed_count = value(&mut i, "--seeds")?
                    .parse()
                    .map_err(|e| format!("bad --seeds: {e}"))?;
                if a.seed_count == 0 {
                    return Err("--seeds must be ≥ 1".into());
                }
            }
            "--seed" => {
                a.seed_base = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--span" => {
                let v = value(&mut i, "--span")?;
                a.span = parse_duration(&v).ok_or_else(|| format!("bad --span value '{v}'"))?;
            }
            "--scale" => {
                a.scale = value(&mut i, "--scale")?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
            }
            "-c" | "--cooling" => a.cooling = true,
            "--power-caps" => {
                a.power_caps = split_csv(&value(&mut i, "--power-caps")?)
                    .iter()
                    .map(|v| {
                        if v == "none" {
                            return Ok(None);
                        }
                        let kw: f64 = v
                            .parse()
                            .map_err(|e| format!("bad --power-caps value '{v}': {e}"))?;
                        if !(kw.is_finite() && kw > 0.0) {
                            return Err(format!(
                                "bad --power-caps value '{v}': need a finite kW value > 0"
                            ));
                        }
                        Ok(Some(kw))
                    })
                    .collect::<Result<_, String>>()?;
            }
            "--cap-at" => {
                let v = value(&mut i, "--cap-at")?;
                a.cap_at =
                    Some(parse_duration(&v).ok_or_else(|| format!("bad --cap-at value '{v}'"))?);
            }
            "--engine" => {
                let v = value(&mut i, "--engine")?;
                a.engine =
                    EngineMode::parse(&v).ok_or_else(|| format!("bad --engine value '{v}'"))?;
            }
            "--jobs" => {
                let v: usize = value(&mut i, "--jobs")?
                    .parse()
                    .map_err(|e| format!("bad --jobs: {e}"))?;
                if v == 0 {
                    return Err("--jobs must be ≥ 1".into());
                }
                a.jobs = Some(v);
            }
            flag @ ("--batch" | "--batch-max-lanes" | "--prefix-share") => {
                return Err(format!(
                    "{flag} was removed: every sweep builds each workload's window \
                     once and shares it across the workload's cells, and simulates \
                     each prefix its --cap-at cells share once"
                ))
            }
            "--baseline" => a.baseline = Some(value(&mut i, "--baseline")?),
            "-o" | "--output" => a.out_dir = PathBuf::from(value(&mut i, "--output")?),
            "--write-histories" => a.write_histories = true,
            // --no-cache wins over --cache/--cache-dir regardless of
            // argument order (an alias with caching baked in stays
            // overridable from the end of the command line).
            "--cache" => {
                if a.cache != Some(false) {
                    a.cache = Some(true);
                }
            }
            "--cache-dir" => {
                a.cache_dir = Some(PathBuf::from(value(&mut i, "--cache-dir")?));
                if a.cache != Some(false) {
                    a.cache = Some(true);
                }
            }
            "--no-cache" => a.cache = Some(false),
            "--metrics-only" => a.metrics_only = true,
            "--profile" => a.profile = true,
            "--trace-out" => a.trace_out = Some(PathBuf::from(value(&mut i, "--trace-out")?)),
            "--retries" => {
                a.retries = Some(
                    value(&mut i, "--retries")?
                        .parse()
                        .map_err(|e| format!("bad --retries: {e}"))?,
                );
            }
            "--fail-fast" => a.fail_fast = true,
            "--no-claims" => a.claims = false,
            "--faults" => {
                let spec = value(&mut i, "--faults")?;
                // Validate eagerly so a typo fails before any simulation.
                crate::faults::FaultPlan::parse(&spec)?;
                a.faults = Some(spec);
            }
            "-q" | "--quiet" => a.quiet = true,
            "-h" | "--help" => return Err(SWEEP_USAGE.to_string()),
            other => return Err(format!("unknown sweep argument '{other}'\n\n{SWEEP_USAGE}")),
        }
        i += 1;
    }
    if a.systems.is_empty() == a.scenarios.is_empty() {
        return Err(format!(
            "need exactly one of --system or --scenario\n\n{SWEEP_USAGE}"
        ));
    }
    if a.cap_at.is_some() && !a.power_caps.iter().any(Option::is_some) {
        return Err("--cap-at needs at least one non-'none' --power-caps value".into());
    }
    Ok(a)
}

/// Build the matrix a parsed argv describes.
pub fn build_matrix(a: &SweepArgs) -> Result<ExperimentMatrix, String> {
    let mut matrix = if a.systems.is_empty() {
        // Synthetic-only axes must not be silently ignored: reject them
        // whenever they would have changed a --system sweep's behaviour.
        let defaults = SweepArgs::default();
        for (supplied, flag) in [
            (a.seed_count != defaults.seed_count, "--seeds"),
            (a.loads != defaults.loads, "--loads"),
            (a.span != defaults.span, "--span"),
        ] {
            if supplied {
                return Err(format!(
                    "{flag} applies to --system sweeps only; scenarios fix \
                     their own workload (vary --seed instead)"
                ));
            }
        }
        let mut workloads = Vec::new();
        for name in &a.scenarios {
            // fig4/fig5 run full-size systems with no scale knob; mixing
            // them into a scaled sweep would silently compare across
            // scales, so reject rather than ignore.
            if a.scale != 1.0 && matches!(name.as_str(), "fig4" | "fig5") {
                return Err(format!(
                    "--scale does not apply to scenario '{name}' (only \
                     fig6/fig7/fig8/fig10 scale)"
                ));
            }
            let s = match name.as_str() {
                "fig4" => scenario::fig4(a.seed_base),
                "fig5" => scenario::fig5(a.seed_base),
                "fig6" => scenario::fig6_scaled(a.seed_base, a.scale),
                "fig7" => scenario::fig7(a.seed_base, a.scale),
                "fig8" => scenario::fig8_scaled(a.seed_base, a.scale),
                "fig10" => scenario::fig10(a.seed_base, a.scale.min(4096.0 / 158_976.0)),
                other => return Err(format!("unknown scenario '{other}'")),
            };
            workloads.push(s);
        }
        ExperimentMatrix::scenarios(workloads)
    } else {
        ExperimentMatrix::synthetic(a.systems.clone())
            .loads(a.loads.clone())
            .seed_count_from(a.seed_base, a.seed_count)
            .span(a.span)
            .scale(a.scale)
    };
    matrix = matrix
        .policies(a.policies.clone())
        .backfills(a.backfills.clone());
    if let Some(pairs) = &a.pairs {
        matrix = matrix.pairs(pairs.clone());
    }
    if a.cooling {
        matrix = matrix.with_cooling();
    }
    matrix = matrix.power_caps_kw(a.power_caps.clone()).engine(a.engine);
    if let Some(at) = a.cap_at {
        matrix = matrix.power_cap_at(at);
    }
    Ok(matrix)
}

/// Entry point called by the `sraps` binary for `sraps sweep ...`.
pub fn sweep_command(argv: &[String]) -> Result<(), String> {
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{SWEEP_USAGE}");
        return Ok(());
    }
    let a = parse_sweep_args(argv)?;
    let matrix = build_matrix(&a)?;
    let cache_dir = a.resolved_cache_dir();
    if a.metrics_only && a.write_histories && cache_dir.is_none() {
        return Err(
            "--metrics-only with --write-histories needs --cache (the histories \
             spill into the cache directory)"
                .into(),
        );
    }
    let mut opts = SweepOptions::new()
        .progress(!a.quiet)
        .metrics_only(a.metrics_only)
        .claims(a.claims)
        .fail_fast(a.fail_fast);
    if let Some(retries) = a.retries {
        opts = opts.retries(retries);
    }
    if let Some(dir) = &cache_dir {
        opts = opts.cache_dir(dir);
        // With a cache in play, hits carry no in-memory output, so the
        // histories must come from (and therefore go to) the spill.
        if a.write_histories {
            opts = opts.spill_histories(true);
        }
    }
    let runner = match a.jobs {
        Some(n) => SweepRunner::with_options(n, opts),
        None => SweepRunner::auto_with(opts),
    };
    // A ctrl-c'd (or SIGTERM'd) sweep must not leave claim files behind
    // for cooperating processes to wait a full TTL on: latch the signal,
    // release every live lease, exit 130.
    if cache_dir.is_some() && a.claims {
        crate::claims::install_interrupt_release();
    }

    println!(
        "sweep: {} cells on {} threads{}",
        matrix.cell_count(),
        runner.jobs(),
        match &cache_dir {
            Some(dir) => format!(", cache {}", dir.display()),
            None => String::new(),
        }
    );
    // Fault injection is process-global and deterministic; arm it for
    // exactly this run. The flag wins over the SRAPS_FAULTS env knob.
    let env_faults = sraps_types::string_env("SRAPS_FAULTS")
        .map_err(|e| e.to_string())?
        .filter(|s| !s.is_empty());
    let fault_spec = a.faults.clone().or(env_faults);
    if let Some(spec) = &fault_spec {
        crate::faults::arm(crate::faults::FaultPlan::parse(spec)?);
        eprintln!("faults armed: {spec}");
    }
    // Instrumentation is process-global; flip it on for exactly this run.
    sraps_obs::set_profile(a.profile);
    sraps_obs::set_trace(a.trace_out.is_some());
    let results = runner.run(&matrix);
    crate::faults::disarm();
    let results = results.map_err(|e| e.to_string())?;
    sraps_obs::set_profile(false);
    sraps_obs::set_trace(false);
    if let Some(path) = &a.trace_out {
        sraps_obs::write_trace(path).map_err(|e| format!("write trace {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    }
    let report = match &a.baseline {
        Some(kind) => Report::with_baseline(&results, kind),
        None => Report::from_results(&results),
    };
    if a.baseline.is_some() && !report.rows.iter().any(|r| r.is_baseline) {
        let kinds: Vec<String> = results
            .cells
            .iter()
            .map(|c| match c.spec.label.rsplit_once('/') {
                Some((_, kind)) => kind.to_string(),
                None => c.spec.label.clone(),
            })
            .collect();
        return Err(format!(
            "baseline '{}' matches no cell; cell kinds are: {}",
            a.baseline.as_deref().unwrap_or_default(),
            kinds.join(", ")
        ));
    }

    println!();
    print!("{}", report.render_table());
    if !report.failed.is_empty() {
        println!();
        print!("{}", report.render_failed_table());
    }
    println!(
        "\n{} cells in {:.2}s wall ({} threads)",
        results.cells.len(),
        results.wall.as_secs_f64(),
        results.jobs
    );
    if !report.failed.is_empty() {
        // Greppable (tests and CI pin this shape), mirrors the cache line.
        println!("failed: {} cells exhausted retries", report.failed.len());
    }
    if let Some(dir) = &cache_dir {
        // The CI cache job greps this exact shape.
        println!(
            "cache: {} hits, {} misses ({})",
            results.cache_hits(),
            results.cache_misses(),
            dir.display()
        );
    }
    if results.prefix_groups > 0 {
        // The CI snapshot-parity job greps this line.
        println!(
            "prefix: {} shared prefixes across {} cells",
            results.prefix_groups, results.prefix_forks
        );
    }
    if a.profile {
        // stderr keeps stdout (table + grepped lines) machine-stable.
        eprint!("\n{}", Report::render_profile_table(&results));
    }

    // Every report artifact installs via temp+rename: a crash (or an
    // injected fault) mid-write never leaves a torn file where a
    // cooperating process — or the user — would read it.
    let install = |path: PathBuf, bytes: &[u8]| -> Result<(), String> {
        write_atomic(&path, bytes).map_err(|e| e.to_string())
    };
    std::fs::create_dir_all(&a.out_dir).map_err(|e| e.to_string())?;
    install(a.out_dir.join("sweep.csv"), report.to_csv().as_bytes())?;
    install(a.out_dir.join("sweep.json"), report.to_json().as_bytes())?;
    if a.write_histories {
        let cache = match &cache_dir {
            Some(dir) => Some(CellCache::open(dir).map_err(|e| e.to_string())?),
            None => None,
        };
        for cell in results.cells.iter().filter(|c| c.failure.is_none()) {
            let stem = cell.spec.label.replace('/', "_");
            let (power_out, util_out) = (
                a.out_dir.join(format!("{stem}-power.csv")),
                a.out_dir.join(format!("{stem}-util.csv")),
            );
            if let Some(cache) = &cache {
                // Cached sweep: the runner spilled (or required) the
                // history CSVs for every cell — copy rather than
                // re-rendering tick-resolution histories from memory.
                let key = cell.cache_key.as_ref().expect("cache implies key");
                let (power_in, util_in) = cache.history_paths(key);
                let read = |p: &std::path::Path| {
                    std::fs::read(p).map_err(|e| format!("{}: {e}", p.display()))
                };
                install(power_out, &read(&power_in)?)?;
                install(util_out, &read(&util_in)?)?;
            } else {
                // Uncached (full-retention) sweep: histories are in
                // memory.
                let out = cell.output.as_ref().expect("uncached retains outputs");
                install(power_out, out.power_csv().as_bytes())?;
                install(util_out, out.util_csv().as_bytes())?;
            }
        }
    }
    println!("report written to {}", a.out_dir.display());
    // The reports above are written first — a partially failed sweep
    // still leaves its (failure-annotated) artifacts behind — and *then*
    // the run exits nonzero so scripts and CI notice.
    if !report.failed.is_empty() {
        return Err(format!(
            "{} of {} cells exhausted retries (see the failed-cells table above)",
            report.failed.len(),
            results.cells.len(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<SweepArgs, String> {
        parse_sweep_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn acceptance_invocation_parses() {
        let a = parse(&[
            "--system",
            "lassen",
            "--policies",
            "fcfs,sjf,priority",
            "--backfills",
            "none,easy",
            "--seeds",
            "3",
            "--jobs",
            "4",
        ])
        .unwrap();
        assert_eq!(a.systems, vec!["lassen"]);
        assert_eq!(a.policies, vec!["fcfs", "sjf", "priority"]);
        assert_eq!(a.backfills, vec!["none", "easy"]);
        assert_eq!(a.seed_count, 3);
        assert_eq!(a.jobs, Some(4));
        let m = build_matrix(&a).unwrap();
        assert_eq!(m.cell_count(), 18);
    }

    #[test]
    fn pairs_and_caps_parse() {
        let a = parse(&[
            "--scenario",
            "fig4",
            "--pairs",
            "replay:none,fcfs:easy",
            "--power-caps",
            "none,1200",
            "--baseline",
            "replay-none",
            "-q",
        ])
        .unwrap();
        assert_eq!(
            a.pairs,
            Some(vec![
                ("replay".to_string(), "none".to_string()),
                ("fcfs".to_string(), "easy".to_string())
            ])
        );
        assert_eq!(a.power_caps, vec![None, Some(1200.0)]);
        assert_eq!(a.baseline.as_deref(), Some("replay-none"));
        assert!(a.quiet);
    }

    #[test]
    fn engine_flag_parses_and_reaches_the_matrix() {
        let a = parse(&["--system", "lassen", "--engine", "tick"]).unwrap();
        assert_eq!(a.engine, EngineMode::Tick);
        build_matrix(&a).unwrap();
        assert_eq!(
            parse(&["--system", "lassen"]).unwrap().engine,
            EngineMode::Event
        );
        assert!(parse(&["--system", "lassen", "--engine", "warp"]).is_err());
    }

    #[test]
    fn cache_flags_parse_and_resolve() {
        // Note: resolution is checked only for explicit flags here; the
        // SRAPS_CACHE_DIR auto-enable path is covered end-to-end in the
        // CLI smoke tests (env mutation races the parallel test harness).
        let a = parse(&["--system", "lassen"]).unwrap();
        assert_eq!(a.cache, None);
        assert!(!a.metrics_only);

        let a = parse(&["--system", "lassen", "--cache", "--metrics-only"]).unwrap();
        assert_eq!(a.cache, Some(true));
        assert!(a.metrics_only);
        if std::env::var_os("SRAPS_CACHE_DIR").is_none() {
            assert_eq!(
                a.resolved_cache_dir(),
                Some(a.out_dir.join("cache")),
                "--cache defaults under the output dir"
            );
        }

        let a = parse(&["--system", "lassen", "--cache-dir", "/tmp/c"]).unwrap();
        assert_eq!(a.resolved_cache_dir(), Some(PathBuf::from("/tmp/c")));

        // --no-cache wins regardless of order.
        for args in [
            ["--system", "lassen", "--cache", "--no-cache"],
            ["--system", "lassen", "--no-cache", "--cache"],
        ] {
            let a = parse(&args).unwrap();
            assert_eq!(a.cache, Some(false));
            assert_eq!(a.resolved_cache_dir(), None);
        }
    }

    #[test]
    fn batch_flags_parse() {
        // Scripts passing the removed batching and prefix-sharing flags
        // get an error that says why, not a silent run of something else.
        for args in [
            &["--system", "lassen", "--batch"][..],
            &["--system", "lassen", "--batch-max-lanes", "8"][..],
            &[
                "--system",
                "lassen",
                "--power-caps",
                "1200",
                "--cap-at",
                "45m",
                "--prefix-share",
            ][..],
        ] {
            let err = parse(args).unwrap_err();
            assert!(err.contains("was removed"), "{err}");
        }
    }

    #[test]
    fn cap_at_parses_with_validation() {
        let a = parse(&[
            "--system",
            "lassen",
            "--power-caps",
            "none,1200",
            "--cap-at",
            "45m",
        ])
        .unwrap();
        assert_eq!(a.cap_at, Some(SimDuration::minutes(45)));
        let m = build_matrix(&a).unwrap();
        assert_eq!(m.cell_count(), 2);

        // --cap-at without any actual cap is meaningless.
        let err = parse(&["--system", "lassen", "--cap-at", "45m"]).unwrap_err();
        assert!(err.contains("non-'none' --power-caps"), "{err}");
        let err = parse(&[
            "--system",
            "lassen",
            "--power-caps",
            "none",
            "--cap-at",
            "45m",
        ])
        .unwrap_err();
        assert!(err.contains("non-'none' --power-caps"), "{err}");

        assert!(parse(&["--system", "lassen", "--cap-at", "bogus"]).is_err());
    }

    #[test]
    fn non_finite_power_caps_are_rejected() {
        for caps in ["nan,none", "none,inf", "0", "-20"] {
            let err = parse(&["--system", "lassen", "--power-caps", caps]).unwrap_err();
            assert!(err.contains("--power-caps"), "{caps}: {err}");
        }
    }

    #[test]
    fn profile_and_trace_flags_parse() {
        let a = parse(&["--system", "lassen"]).unwrap();
        assert!(!a.profile);
        assert_eq!(a.trace_out, None);

        let a = parse(&[
            "--system",
            "lassen",
            "--profile",
            "--trace-out",
            "/tmp/trace.json",
        ])
        .unwrap();
        assert!(a.profile);
        assert_eq!(a.trace_out, Some(PathBuf::from("/tmp/trace.json")));
        assert!(parse(&["--system", "lassen", "--trace-out"]).is_err());
    }

    #[test]
    fn rejects_bad_usage() {
        assert!(parse(&[]).is_err(), "no workload");
        assert!(parse(&["--system", "lassen", "--scenario", "fig4"]).is_err());
        assert!(parse(&["--system", "lassen", "--jobs", "0"]).is_err());
        assert!(parse(&["--system", "lassen", "--seeds", "0"]).is_err());
        assert!(parse(&["--system", "lassen", "--pairs", "fcfs"]).is_err());
        assert!(parse(&["--system", "lassen", "--frobnicate"]).is_err());
    }

    #[test]
    fn scale_rejected_for_unscalable_scenarios() {
        let a = parse(&["--scenario", "fig4", "--scale", "0.25"]).unwrap();
        let err = build_matrix(&a).unwrap_err();
        assert!(err.contains("--scale does not apply"), "{err}");
        // Scalable scenarios accept it.
        let a = parse(&["--scenario", "fig6", "--scale", "0.05"]).unwrap();
        assert!(build_matrix(&a).is_ok());
        // Synthetic-only axes stay rejected for scenarios.
        let a = parse(&["--scenario", "fig6", "--loads", "0.5"]).unwrap();
        assert!(build_matrix(&a).unwrap_err().contains("--loads"));
    }

    #[test]
    fn scenario_matrix_builds() {
        let a = parse(&["--scenario", "fig4", "--pairs", "replay:none,fcfs:easy"]).unwrap();
        let m = build_matrix(&a).unwrap();
        assert_eq!(m.cell_count(), 2);
        let a = parse(&["--scenario", "fig99"]).unwrap();
        assert!(build_matrix(&a).is_err());
    }
}
