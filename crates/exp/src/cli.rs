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
//!
//! The module is also the front end every `sraps` subcommand shares:
//! the [`Argv`] flag reader and one helper per process-wide switch
//! ([`with_faults`], [`observed`]).

use crate::cache::CellCache;
use crate::faults::{self, FaultPlan};
use crate::matrix::ExperimentMatrix;
use crate::report::Report;
use crate::runner::{SweepOptions, SweepRunner};
use sraps_data::{scenario, MAX_OFFERED_LOAD};
use sraps_types::fsio::write_atomic;
use sraps_types::time::parse_duration;
use sraps_types::SimDuration;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;

pub const SWEEP_USAGE: &str = "\
usage: sraps sweep (--system NAMES | --scenario NAMES) [options]

workload axes:
  --system NAMES         comma-separated: frontier|marconi100|fugaku|lassen|adastra
  --scenario NAMES       comma-separated paper scenarios: fig4|fig5|fig6|fig7|fig8|fig10
  --loads F,F            offered loads for synthetic workloads, each at
                         most 10 (default 0.8)
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
                         SRAPS_CACHE_DIR also enables caching. A cached
                         sweep leases each miss with a claim file, so
                         cooperating processes on one cache never
                         simulate a cell twice (claim TTL/poll tune via
                         SRAPS_CLAIM_TTL_MS and SRAPS_CLAIM_POLL_MS)
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
            faults: None,
        }
    }
}

impl SweepArgs {
    /// Resolve the cache directory the run will use (`None` ⇒ caching
    /// off): explicit flags beat the `SRAPS_CACHE_DIR` auto-enable.
    pub fn resolved_cache_dir(&self) -> Option<PathBuf> {
        let enabled = self.cache.unwrap_or_else(|| CellCache::env_dir().is_some());
        enabled.then(|| {
            self.cache_dir
                .clone()
                .unwrap_or_else(|| CellCache::default_dir(&self.out_dir))
        })
    }
}

/// A cursor over one subcommand's argv. Every parser of the `sraps`
/// binary reads its flags through it, so each value check, and the error
/// that names the flag, exists once.
pub struct Argv<'a> {
    argv: &'a [String],
    next: usize,
    flag: &'a str,
}

impl<'a> Argv<'a> {
    pub fn new(argv: &'a [String]) -> Self {
        Argv {
            argv,
            next: 0,
            flag: "",
        }
    }

    /// The next flag, or `None` once argv is used up.
    pub fn flag(&mut self) -> Option<&'a str> {
        let flag = self.argv.get(self.next)?;
        self.next += 1;
        self.flag = flag;
        Some(flag)
    }

    /// The current flag's value.
    pub fn value(&mut self) -> Result<String, String> {
        let v = self
            .argv
            .get(self.next)
            .ok_or_else(|| format!("{} needs a value", self.flag))?;
        self.next += 1;
        Ok(v.clone())
    }

    /// The value read by `parse`, which answers `None` for a bad value.
    pub fn value_with<T>(&mut self, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        let v = self.value()?;
        parse(&v).ok_or_else(|| format!("bad {} value '{v}'", self.flag))
    }

    /// The value as a `T`.
    pub fn num<T: FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: Display,
    {
        let v = self.value()?;
        num(self.flag, &v)
    }

    /// The value as a finite number > 0.
    pub fn positive(&mut self) -> Result<f64, String> {
        let v = self.value()?;
        positive(self.flag, &v)
    }

    /// The value as an offered load (see [`offered_load`]).
    pub fn offered_load(&mut self) -> Result<f64, String> {
        let v = self.value()?;
        offered_load(self.flag, &v)
    }

    /// The value as a duration (`61000`, `30m`, `2h`, `15d`), never
    /// negative.
    pub fn duration(&mut self) -> Result<SimDuration, String> {
        self.duration_from(SimDuration::ZERO)
    }

    /// The value as a duration > 0: the length of a workload or window.
    pub fn positive_duration(&mut self) -> Result<SimDuration, String> {
        self.duration_from(SimDuration::seconds(1))
    }

    fn duration_from(&mut self, min: SimDuration) -> Result<SimDuration, String> {
        let v = self.value()?;
        let d = parse_duration(&v).ok_or_else(|| format!("bad {} value '{v}'", self.flag))?;
        if d < min {
            return Err(format!(
                "bad {} value '{v}': need a duration ≥ {}s",
                self.flag,
                min.as_secs()
            ));
        }
        Ok(d)
    }

    /// The value as a comma-separated list, each non-empty item read by
    /// `item(flag, item)`.
    pub fn list<T>(
        &mut self,
        item: impl Fn(&str, &str) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let v = self.value()?;
        v.split(',')
            .map(str::trim)
            .filter(|p| !p.is_empty())
            .map(|p| item(self.flag, p))
            .collect()
    }
}

/// `v`, a value of `flag`, as a `T`.
pub fn num<T: FromStr>(flag: &str, v: &str) -> Result<T, String>
where
    T::Err: Display,
{
    v.parse()
        .map_err(|e| format!("bad {flag} value '{v}': {e}"))
}

/// `v`, a value of `flag`, as a finite number > 0.
pub fn positive(flag: &str, v: &str) -> Result<f64, String> {
    let x: f64 = num(flag, v)?;
    if !(x.is_finite() && x > 0.0) {
        return Err(format!("bad {flag} value '{v}': need a finite number > 0"));
    }
    Ok(x)
}

/// `v`, a value of `flag`, as an offered load: a finite number > 0 and
/// at most [`MAX_OFFERED_LOAD`].
pub fn offered_load(flag: &str, v: &str) -> Result<f64, String> {
    let load = positive(flag, v)?;
    if load > MAX_OFFERED_LOAD {
        return Err(format!(
            "bad {flag} value '{v}': need a load ≤ {MAX_OFFERED_LOAD} \
             (ten times the machine's capacity)"
        ));
    }
    Ok(load)
}

/// `v` as it stands: the item reader for lists of names.
pub fn text(_flag: &str, v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

/// Run `f` with fault injection armed from `flag` (a `--faults` value),
/// or else from `SRAPS_FAULTS`, and disarmed after it returns. The plan
/// is process-global, so it is armed for exactly this run.
pub fn with_faults<T>(flag: Option<&str>, f: impl FnOnce() -> T) -> Result<T, String> {
    let env = sraps_types::string_env("SRAPS_FAULTS").map_err(|e| e.to_string())?;
    if let Some(spec) = flag.or(env.as_deref().filter(|s| !s.is_empty())) {
        faults::arm(FaultPlan::parse(spec)?);
        eprintln!("faults armed: {spec}");
    }
    let out = f();
    faults::disarm();
    Ok(out)
}

/// Run `f` with process-wide profiling and tracing switched on as asked,
/// and both off again after it returns.
pub fn observed<T>(profile: bool, trace: bool, f: impl FnOnce() -> T) -> T {
    sraps_obs::set_profile(profile);
    sraps_obs::set_trace(trace);
    let out = f();
    sraps_obs::set_profile(false);
    sraps_obs::set_trace(false);
    out
}

/// Write the trace an [`observed`] run collected to `path`, if given.
pub fn write_trace(path: Option<&Path>) -> Result<(), String> {
    if let Some(path) = path {
        sraps_obs::write_trace(path).map_err(|e| format!("write trace {}: {e}", path.display()))?;
        eprintln!("trace written to {}", path.display());
    }
    Ok(())
}

pub fn parse_sweep_args(argv: &[String]) -> Result<SweepArgs, String> {
    let mut a = SweepArgs::default();
    let mut args = Argv::new(argv);
    while let Some(flag) = args.flag() {
        match flag {
            "--system" | "--systems" => a.systems = args.list(text)?,
            "--scenario" | "--scenarios" => a.scenarios = args.list(text)?,
            "--policies" => a.policies = args.list(text)?,
            "--backfills" => a.backfills = args.list(text)?,
            "--pairs" => {
                let pairs = args.list(|_, part| {
                    part.split_once(':')
                        .map(|(p, b)| (p.to_string(), b.to_string()))
                        .ok_or_else(|| format!("bad pair '{part}': want policy:backfill"))
                })?;
                if pairs.is_empty() {
                    return Err("--pairs needs at least one policy:backfill".into());
                }
                a.pairs = Some(pairs);
            }
            "--loads" => a.loads = args.list(offered_load)?,
            "--seeds" => {
                a.seed_count = args.num()?;
                if a.seed_count == 0 {
                    return Err("--seeds must be ≥ 1".into());
                }
            }
            "--seed" => a.seed_base = args.num()?,
            "--span" => a.span = args.positive_duration()?,
            "--scale" => a.scale = args.positive()?,
            "-c" | "--cooling" => a.cooling = true,
            "--power-caps" => {
                a.power_caps = args.list(|flag, v| match v {
                    "none" => Ok(None),
                    _ => positive(flag, v).map(Some),
                })?;
            }
            "--cap-at" => a.cap_at = Some(args.duration()?),
            "--jobs" => {
                let n = args.num()?;
                if n == 0 {
                    return Err("--jobs must be ≥ 1".into());
                }
                a.jobs = Some(n);
            }
            flag @ ("--batch" | "--batch-max-lanes" | "--prefix-share") => {
                return Err(format!(
                    "{flag} was removed: every sweep builds each workload's window \
                     once and shares it across the workload's cells, and simulates \
                     each prefix its --cap-at cells share once"
                ))
            }
            "--baseline" => a.baseline = Some(args.value()?),
            "-o" | "--output" => a.out_dir = args.value()?.into(),
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
                a.cache_dir = Some(args.value()?.into());
                if a.cache != Some(false) {
                    a.cache = Some(true);
                }
            }
            "--no-cache" => a.cache = Some(false),
            "--metrics-only" => a.metrics_only = true,
            "--profile" => a.profile = true,
            "--trace-out" => a.trace_out = Some(args.value()?.into()),
            "--retries" => a.retries = Some(args.num()?),
            "--fail-fast" => a.fail_fast = true,
            "--faults" => {
                let spec = args.value()?;
                // Validate eagerly so a typo fails before any simulation.
                FaultPlan::parse(&spec)?;
                a.faults = Some(spec);
            }
            "-q" | "--quiet" => a.quiet = true,
            other => return Err(format!("unknown sweep argument '{other}'\n\n{SWEEP_USAGE}")),
        }
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
        let d = SweepArgs::default();
        let workload_flags = [
            (a.seed_count != d.seed_count, "--seeds"),
            (a.loads != d.loads, "--loads"),
            (a.span != d.span, "--span"),
        ];
        let workloads = a
            .scenarios
            .iter()
            .map(|name| scenario::by_name(name, a.seed_base, a.scale, &workload_flags))
            .collect::<Result<Vec<_>, _>>()?;
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
    matrix = matrix.power_caps_kw(a.power_caps.clone());
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
    if cache_dir.is_some() {
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
    let results = with_faults(a.faults.as_deref(), || {
        observed(a.profile, a.trace_out.is_some(), || runner.run(&matrix))
    })?
    .map_err(|e| e.to_string())?;
    write_trace(a.trace_out.as_deref())?;
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
    // Failed cells by cause: out of retries, or on an error that is not
    // retried (a configuration error fails at once).
    let exhausted = results
        .failed_cells()
        .iter()
        .filter(|c| c.failure.as_ref().is_some_and(|f| f.exhausted))
        .count();
    let not_retried = report.failed.len() - exhausted;
    let failed_by_cause: Vec<(usize, &str)> = [
        (exhausted, "exhausted retries"),
        (not_retried, "hit an error that is not retried"),
    ]
    .into_iter()
    .filter(|&(n, _)| n > 0)
    .collect();
    for (n, cause) in &failed_by_cause {
        // Greppable (tests and CI pin this shape), mirrors the cache line.
        println!("failed: {n} cells {cause}");
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
        let causes: Vec<String> = failed_by_cause
            .iter()
            .map(|(n, cause)| format!("{n} {cause}"))
            .collect();
        return Err(format!(
            "{} of {} cells failed: {} (see the failed-cells table above)",
            report.failed.len(),
            results.cells.len(),
            causes.join(", "),
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
    fn malformed_values_name_their_flag() {
        for (flag, v) in [
            ("--loads", "0.5,nan"),
            ("--loads", "inf"),
            ("--loads", "0"),
            ("--loads", "-1"),
            ("--loads", "1e6"),
            ("--scale", "nan"),
            ("--scale", "-1"),
            ("--span", "0"),
            ("--cap-at", "-1h"),
        ] {
            let err = parse(&["--system", "lassen", "--power-caps", "20", flag, v]).unwrap_err();
            assert!(
                err.contains(&format!("bad {flag} value")),
                "{flag} {v}: {err}"
            );
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
