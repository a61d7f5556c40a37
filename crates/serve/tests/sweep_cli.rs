//! End-to-end smoke tests for `sraps sweep`: drive the real binary over a
//! small policy×backfill grid and check the report artifacts.

use std::path::Path;
use std::process::Command;

fn sraps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sraps"))
}

#[test]
fn sweep_smoke_over_policy_backfill_grid() {
    let dir = std::env::temp_dir().join(format!("sraps-sweep-smoke-{}", std::process::id()));
    let out = sraps()
        .args([
            "sweep",
            "--system",
            "lassen",
            "--policies",
            "fcfs,sjf",
            "--backfills",
            "none,easy",
            "--span",
            "2h",
            "--jobs",
            "2",
            "--quiet",
            "-o",
        ])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "sweep failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sweep: 4 cells"),
        "cell count in banner: {stdout}"
    );
    assert!(stdout.contains("fcfs-none"), "table lists cells: {stdout}");
    assert!(stdout.contains("*base"), "baseline marked: {stdout}");

    let csv = std::fs::read_to_string(dir.join("sweep.csv")).expect("sweep.csv written");
    assert!(csv.starts_with("kind,workload,cell"));
    assert_eq!(csv.lines().count(), 1 + 4, "header + 4 cells: {csv}");
    let json = std::fs::read_to_string(dir.join("sweep.json")).expect("sweep.json written");
    assert!(json.contains("\"rows\""));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_is_bit_identical_across_jobs() {
    let base = std::env::temp_dir().join(format!("sraps-sweep-jobs-{}", std::process::id()));
    let run = |jobs: &str, sub: &str| -> (String, String) {
        let dir = base.join(sub);
        let out = sraps()
            .args([
                "sweep",
                "--system",
                "lassen",
                "--policies",
                "fcfs,sjf",
                "--backfills",
                "none,easy",
                "--span",
                "2h",
                "--quiet",
                "--jobs",
                jobs,
                "-o",
            ])
            .arg(&dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(dir.join("sweep.csv")).unwrap(),
            std::fs::read_to_string(dir.join("sweep.json")).unwrap(),
        )
    };
    let (csv1, json1) = run("1", "serial");
    let (csv4, json4) = run("4", "parallel");
    assert_eq!(csv1, csv4, "CSV must be bit-identical for --jobs 1 vs 4");
    assert_eq!(json1, json4, "JSON must be bit-identical for --jobs 1 vs 4");
    std::fs::remove_dir_all(&base).ok();
}

/// Shared small grid used by the cache tests below.
fn grid_args(jobs: &str) -> Vec<String> {
    [
        "sweep",
        "--system",
        "lassen",
        "--policies",
        "fcfs,sjf",
        "--backfills",
        "none,easy",
        "--span",
        "2h",
        "--quiet",
        "--jobs",
        jobs,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

#[test]
fn cold_parallel_vs_warm_serial_cache_is_deterministic() {
    // The satellite scenario: a cold --jobs 4 run fills the cache, a warm
    // --jobs 1 run serves every cell from it, and the reports match byte
    // for byte (caching must not interact with the executor).
    let base = std::env::temp_dir().join(format!("sraps-cli-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");
    let run = |jobs: &str, sub: &str| -> (String, String, String) {
        let dir = base.join(sub);
        let mut args = grid_args(jobs);
        args.extend([
            "--cache-dir".into(),
            cache.display().to_string(),
            "-o".into(),
        ]);
        let out = sraps().args(&args).arg(&dir).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            std::fs::read_to_string(dir.join("sweep.csv")).unwrap(),
            std::fs::read_to_string(dir.join("sweep.json")).unwrap(),
        )
    };

    let (cold_stdout, cold_csv, cold_json) = run("4", "cold");
    assert!(
        cold_stdout.contains("cache: 0 hits, 4 misses"),
        "cold run misses everything: {cold_stdout}"
    );
    let (warm_stdout, warm_csv, warm_json) = run("1", "warm");
    assert!(
        warm_stdout.contains("cache: 4 hits, 0 misses"),
        "warm run must be 100% hits: {warm_stdout}"
    );
    assert_eq!(cold_csv, warm_csv, "cold/warm sweep.csv must be identical");
    assert_eq!(cold_json, warm_json);

    // Truncate one entry: the runner recomputes and rewrites it.
    let entry = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("cache has entries");
    let full = std::fs::read_to_string(&entry).unwrap();
    std::fs::write(&entry, &full[..full.len() / 2]).unwrap();
    let (healed_stdout, healed_csv, _) = run("2", "healed");
    assert!(
        healed_stdout.contains("cache: 3 hits, 1 misses"),
        "only the truncated entry recomputes: {healed_stdout}"
    );
    assert_eq!(healed_csv, cold_csv);
    assert_eq!(
        std::fs::read_to_string(&entry).unwrap(),
        full,
        "the truncated entry was rewritten"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn metrics_only_reports_match_full_retention_byte_for_byte() {
    let base = std::env::temp_dir().join(format!("sraps-cli-lean-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let run = |extra: &[&str], sub: &str| -> (String, String) {
        let dir = base.join(sub);
        let mut args = grid_args("2");
        args.extend(extra.iter().map(|s| s.to_string()));
        args.push("-o".into());
        let out = sraps().args(&args).arg(&dir).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            std::fs::read_to_string(dir.join("sweep.csv")).unwrap(),
            std::fs::read_to_string(dir.join("sweep.json")).unwrap(),
        )
    };
    let (full_csv, full_json) = run(&["--no-cache"], "full");
    let (lean_csv, lean_json) = run(&["--metrics-only", "--no-cache"], "lean");
    assert_eq!(full_csv, lean_csv);
    assert_eq!(full_json, lean_json);
    // --metrics-only --write-histories without a cache cannot work and
    // says so.
    let out = sraps()
        .args(grid_args("1"))
        .args(["--metrics-only", "--write-histories", "--no-cache", "-o"])
        .arg(base.join("bad"))
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("needs --cache"));
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn cache_env_var_enables_and_no_cache_overrides() {
    let base = std::env::temp_dir().join(format!("sraps-cli-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("envcache");
    // SRAPS_CACHE_DIR alone turns caching on…
    let out = sraps()
        .args(grid_args("2"))
        .arg("-o")
        .arg(base.join("a"))
        .env("SRAPS_CACHE_DIR", &cache)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cache: 0 hits, 4 misses"), "{stdout}");
    assert!(cache.is_dir(), "cache created at $SRAPS_CACHE_DIR");
    // …and --no-cache wins over the environment.
    let out = sraps()
        .args(grid_args("2"))
        .args(["--no-cache", "-o"])
        .arg(base.join("b"))
        .env("SRAPS_CACHE_DIR", &cache)
        .output()
        .unwrap();
    assert!(out.status.success());
    assert!(
        !String::from_utf8_lossy(&out.stdout).contains("cache:"),
        "--no-cache suppresses caching entirely"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn empty_cache_env_var_is_unset() {
    let cwd = std::env::temp_dir().join(format!("sraps-cli-empty-env-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = sraps()
        .args([
            "sweep", "--system", "lassen", "--span", "1h", "-q", "-o", "out",
        ])
        .env("SRAPS_CACHE_DIR", "")
        .current_dir(&cwd)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("cache:"), "{stdout}");
    let entries: Vec<_> = std::fs::read_dir(&cwd)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(entries, ["out"], "no cache entry in the working directory");
    std::fs::remove_dir_all(&cwd).ok();
}

#[test]
fn cached_write_histories_exports_from_the_spill() {
    let base = std::env::temp_dir().join(format!("sraps-cli-hist-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let cache = base.join("cache");
    let run = |sub: &str| {
        let dir = base.join(sub);
        let mut args = grid_args("2");
        args.extend([
            "--cache-dir".into(),
            cache.display().to_string(),
            "--metrics-only".into(),
            "--write-histories".into(),
            "-o".into(),
        ]);
        let out = sraps().args(&args).arg(&dir).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        dir
    };
    let cold = run("cold");
    let warm = run("warm");
    for dir in [&cold, &warm] {
        for stem in ["fcfs-none", "fcfs-easy", "sjf-none", "sjf-easy"] {
            let power = std::fs::read_to_string(dir.join(format!("{stem}-power.csv")))
                .unwrap_or_else(|_| panic!("{stem}-power.csv in {}", dir.display()));
            assert!(power.starts_with("t_secs,it_kw"));
        }
    }
    // Cold (simulated+spilled) and warm (copied from spill) histories agree.
    for stem in ["fcfs-none", "sjf-easy"] {
        let name = format!("{stem}-power.csv");
        assert_eq!(
            std::fs::read_to_string(cold.join(&name)).unwrap(),
            std::fs::read_to_string(warm.join(&name)).unwrap()
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn profile_and_trace_smoke() {
    let base = std::env::temp_dir().join(format!("sraps-cli-prof-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let trace = base.join("trace.json");
    let cache = base.join("cache");
    let run = |jobs: &str, sub: &str| -> (String, String) {
        let dir = base.join(sub);
        let mut args = grid_args(jobs);
        args.extend([
            "--profile".into(),
            "--trace-out".into(),
            trace.display().to_string(),
            "--cache-dir".into(),
            cache.display().to_string(),
            "-o".into(),
        ]);
        let out = sraps().args(&args).arg(&dir).output().expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };

    // Cold run: every cell simulates; the profile shows engine phases.
    let (stdout, stderr) = run("2", "cold");
    assert!(
        stdout.contains("cache: 0 hits, 4 misses"),
        "grepped cache line intact with --profile: {stdout}"
    );
    assert!(stderr.contains("sweep profile: 4 cells"), "{stderr}");
    assert!(stderr.contains("engine.run"), "phase table: {stderr}");
    assert!(stderr.contains("sched.invocations"), "counters: {stderr}");
    assert!(stderr.contains("trace written to"), "{stderr}");

    // The trace file is Perfetto-loadable: the validator subcommand
    // checks B/E nesting and per-thread timestamp monotonicity.
    let out = sraps()
        .arg("validate-trace")
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "validate-trace failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("trace ok:"));

    // Warm run: hits profile as cache reads, never zeroed engine phases.
    let (stdout, stderr) = run("1", "warm");
    assert!(stdout.contains("cache: 4 hits, 0 misses"), "{stdout}");
    assert!(stderr.contains("cache.read"), "hits show reads: {stderr}");
    assert!(stderr.contains("cache.hits"), "{stderr}");
    assert!(
        !stderr.contains("engine.run"),
        "all-hit sweeps report no engine phases: {stderr}"
    );

    // A corrupt trace is rejected with a nonzero exit.
    std::fs::write(
        &trace,
        "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"E\",\"ts\":1,\"pid\":1,\"tid\":1}]}",
    )
    .unwrap();
    let out = sraps()
        .arg("validate-trace")
        .arg(&trace)
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "unmatched E must fail validation");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn sweep_help_and_errors() {
    let out = sraps().args(["sweep", "--help"]).output().unwrap();
    assert!(out.status.success(), "--help is a success");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("usage: sraps sweep"),
        "usage on stdout: {text}"
    );

    let out = sraps()
        .args(["sweep", "--system", "summit"])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let out = sraps()
        .args([
            "sweep",
            "--system",
            "lassen",
            "--policies",
            "frobnicate",
            "-q",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown policy must fail");

    // Synthetic-only axes are rejected for scenario sweeps, not ignored.
    let out = sraps()
        .args(["sweep", "--scenario", "fig4", "--seeds", "3", "-q"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "--seeds with --scenario must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--seeds"));

    // A baseline kind that matches no cell is an error, not a silent
    // report with empty delta columns.
    let out = sraps()
        .args([
            "sweep",
            "--system",
            "lassen",
            "--policies",
            "fcfs",
            "--span",
            "1h",
            "--baseline",
            "typo-kind",
            "-q",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "unknown baseline must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("matches no cell"));
}

/// No CLI path scores jobs, and the ML policy over unscored jobs is FCFS
/// under another name: a single run and a sweep cell both refuse it and
/// name the policy.
#[test]
fn ml_policy_on_unscored_jobs_fails_naming_the_policy() {
    let dir = std::env::temp_dir().join(format!("sraps-ml-unscored-{}", std::process::id()));
    let runs: [&[&str]; 2] = [
        &["--system", "lassen", "--policy", "ml", "--span", "1h", "-o"],
        &[
            "sweep",
            "--system",
            "lassen",
            "--span",
            "1h",
            "--policies",
            "ml,fcfs",
            "--backfills",
            "easy",
            "-q",
            "-o",
        ],
    ];
    for args in runs {
        let out = sraps().args(args).arg(&dir).output().unwrap();
        assert!(!out.status.success(), "{args:?} must fail");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        // A sweep names a failed cell's error in its failed-cells table.
        let text = format!("{stderr}{stdout}");
        assert!(text.contains("policy 'ml'"), "{args:?}: {text}");
        if args[0] == "sweep" {
            // A configuration error is not retried, so the sweep words
            // the failure by that cause, not as exhausted retries.
            assert!(
                stdout.contains("failed: 1 cells hit an error that is not retried"),
                "{stdout}"
            );
            assert!(!stdout.contains("exhausted retries"), "{stdout}");
            assert!(
                stderr.contains("1 of 2 cells failed: 1 hit an error that is not retried"),
                "{stderr}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn classic_single_run_interface_still_works() {
    let dir = std::env::temp_dir().join(format!("sraps-classic-{}", std::process::id()));
    let out = sraps()
        .args([
            "--system",
            "lassen",
            "--policy",
            "fcfs",
            "--backfill",
            "easy",
            "--span",
            "1h",
            "-o",
        ])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "classic run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(Path::new(&dir.join("stats.out")).exists());
    std::fs::remove_dir_all(&dir).ok();
}
