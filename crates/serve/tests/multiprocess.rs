//! Crash-safety end-to-end tests: several real `sraps sweep` processes
//! cooperating on one cache directory through the claim-lease protocol.
//!
//! The headline invariants, pinned here exactly as the CI chaos job pins
//! them:
//! * concurrent sweeps never simulate a cell twice — per-process
//!   `cache: H hits, M misses` lines sum to the matrix size;
//! * a `kill -9`'d worker leaves only a stale lease behind; a restarted
//!   sweep reclaims it and finishes the matrix;
//! * every recovered report is byte-identical to a clean serial run.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

fn sraps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sraps"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sraps-mp-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const MATRIX: &[&str] = &[
    "sweep",
    "--system",
    "lassen",
    "--span",
    "2h",
    "--policies",
    "fcfs,sjf",
    "--backfills",
    "none,easy",
    "--quiet",
    "--jobs",
    "2",
];
const MATRIX_CELLS: usize = 4;

fn sweep_cmd(out: &Path, cache: &Path) -> Command {
    let mut cmd = sraps();
    cmd.args(MATRIX)
        .arg("-o")
        .arg(out)
        .arg("--cache-dir")
        .arg(cache)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Parse the pinned `cache: H hits, M misses (...)` stdout line.
fn hits_misses(stdout: &str) -> (usize, usize) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("cache: "))
        .unwrap_or_else(|| panic!("no cache line in:\n{stdout}"));
    let mut nums = line
        .split_whitespace()
        .filter_map(|w| w.parse::<usize>().ok());
    (nums.next().unwrap(), nums.next().unwrap())
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn concurrent_sweeps_partition_the_matrix_without_duplicate_work() {
    let base = temp_dir("partition");
    let cache = base.join("cache");
    // Reference: a clean serial run with its own cache.
    let reference = sweep_cmd(&base.join("ref"), &base.join("ref-cache"))
        .output()
        .expect("binary runs");
    assert!(reference.status.success());

    let workers: Vec<_> = (0..2)
        .map(|w| {
            sweep_cmd(&base.join(format!("out{w}")), &cache)
                .spawn()
                .expect("worker spawns")
        })
        .collect();
    let outputs: Vec<_> = workers
        .into_iter()
        .map(|w| w.wait_with_output().expect("worker finishes"))
        .collect();

    // Each worker exits clean and accounts for the full matrix; between
    // them every cell simulated exactly once.
    let mut total_misses = 0;
    for (w, out) in outputs.iter().enumerate() {
        assert!(
            out.status.success(),
            "worker {w} failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let (h, m) = hits_misses(&String::from_utf8_lossy(&out.stdout));
        assert_eq!(h + m, MATRIX_CELLS, "worker {w} matrix coverage");
        total_misses += m;
    }
    assert_eq!(
        total_misses, MATRIX_CELLS,
        "claim leases must stop any cell from simulating twice"
    );

    // Every worker's report is byte-identical to the clean serial run.
    let want = read(base.join("ref").join("sweep.csv"));
    for w in 0..2 {
        assert_eq!(
            read(base.join(format!("out{w}")).join("sweep.csv")),
            want,
            "worker {w} report diverged"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn racing_one_cell_simulates_it_exactly_once() {
    let base = temp_dir("one-cell");
    let cache = base.join("cache");
    let single = |out: PathBuf| {
        let mut cmd = sraps();
        cmd.args([
            "sweep", "--system", "lassen", "--span", "2h", "--quiet", "--jobs", "1",
        ])
        .arg("-o")
        .arg(out)
        .arg("--cache-dir")
        .arg(&cache)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
        cmd
    };
    let workers: Vec<_> = (0..2)
        .map(|w| single(base.join(format!("out{w}"))).spawn().unwrap())
        .collect();
    let outputs: Vec<_> = workers
        .into_iter()
        .map(|w| w.wait_with_output().unwrap())
        .collect();
    let mut misses = 0;
    for out in &outputs {
        assert!(out.status.success());
        misses += hits_misses(&String::from_utf8_lossy(&out.stdout)).1;
    }
    assert_eq!(misses, 1, "the contended cell ran exactly once");
    let entries = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .count();
    assert_eq!(entries, 1, "exactly one cache entry, no torn leftovers");
    assert_eq!(
        read(base.join("out0").join("sweep.csv")),
        read(base.join("out1").join("sweep.csv")),
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn killed_worker_is_reclaimed_and_the_matrix_completes() {
    let base = temp_dir("kill9");
    let cache = base.join("cache");
    let reference = sweep_cmd(&base.join("ref"), &base.join("ref-cache"))
        .output()
        .expect("binary runs");
    assert!(reference.status.success());

    // A worker whose every cache write stalls 10 s: guaranteed to be
    // mid-sweep (holding claims) when the SIGKILL lands.
    let mut victim = sweep_cmd(&base.join("victim"), &cache)
        .env("SRAPS_FAULTS", "write-delay%100:10000ms")
        .spawn()
        .expect("victim spawns");
    std::thread::sleep(std::time::Duration::from_millis(1500));
    victim.kill().expect("kill -9");
    let _ = victim.wait();
    let stale_claims = std::fs::read_dir(&cache)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "claim"))
                .count()
        })
        .unwrap_or(0);

    // Restart with a short TTL: the corpse's leases age out and are
    // reclaimed; the sweep finishes the whole matrix.
    let out = sweep_cmd(&base.join("restart"), &cache)
        .env("SRAPS_CLAIM_TTL_MS", "250")
        .output()
        .expect("restart runs");
    assert!(
        out.status.success(),
        "restart failed ({stale_claims} stale claims left by corpse):\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (h, m) = hits_misses(&String::from_utf8_lossy(&out.stdout));
    assert_eq!(h + m, MATRIX_CELLS, "full matrix accounted for");
    // Reclaiming the corpse's last claim removed its lease, and the
    // restart removed its own at exit.
    let left: Vec<_> = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "claim" || x == "lease"))
        .collect();
    assert!(left.is_empty(), "claims or leases left behind: {left:?}");

    assert_eq!(
        read(base.join("restart").join("sweep.csv")),
        read(base.join("ref").join("sweep.csv")),
        "recovered report must match the uninterrupted serial run byte-for-byte"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn cli_faults_persist_panic_exits_nonzero_with_failed_table() {
    let base = temp_dir("cli-faults");
    let out = sraps()
        .args(MATRIX)
        .args(["--faults", "panic@1:persist", "--retries", "1"])
        .arg("-o")
        .arg(base.join("out"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "exhausted retries must exit nonzero");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("failed cells"), "table printed: {stdout}");
    assert!(
        stdout.contains("failed: 1 cells exhausted retries"),
        "greppable summary: {stdout}"
    );
    // Reports still land (written before the nonzero exit) and the
    // failure is recorded in them.
    let json = read(base.join("out").join("sweep.json"));
    assert!(json.contains("worker panic"), "{json}");
    let csv = read(base.join("out").join("sweep.csv"));
    assert_eq!(
        csv.lines().count(),
        1 + MATRIX_CELLS - 1,
        "failed cell excluded from report rows"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn cli_fault_injected_run_converges_on_rerun() {
    let base = temp_dir("cli-converge");
    let cache = base.join("cache");
    // Fire-once panics plus a torn cache entry: the run itself converges
    // (retries), the torn entry self-heals on the rerun.
    let first = sweep_cmd(&base.join("out1"), &cache)
        .args(["--faults", "panic@0,panic@3,truncate@2"])
        .output()
        .expect("binary runs");
    assert!(
        first.status.success(),
        "fire-once faults converge in-run:\n{}",
        String::from_utf8_lossy(&first.stderr)
    );
    let rerun = sweep_cmd(&base.join("out2"), &cache)
        .output()
        .expect("binary runs");
    assert!(rerun.status.success());
    let (h, m) = hits_misses(&String::from_utf8_lossy(&rerun.stdout));
    assert_eq!(h, MATRIX_CELLS - 1, "only the torn entry re-simulates");
    assert_eq!(m, 1);
    assert_eq!(
        read(base.join("out1").join("sweep.csv")),
        read(base.join("out2").join("sweep.csv")),
        "injected faults never perturb report bytes"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// Fabricate a claim file as a (possibly dead) owner would leave it.
fn write_claim(path: &Path, owner: &str, heartbeat_ms: u64) {
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(
        path,
        format!(r#"{{"owner":"{owner}","pid":1,"heartbeat_ms":{heartbeat_ms}}}"#),
    )
    .unwrap();
}

fn now_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_millis() as u64
}

#[test]
fn deferred_cell_resolves_after_owner_dies_between_heartbeats() {
    let base = temp_dir("dead-owner");
    let cache = base.join("cache");
    // Learn the single cell's cache key from a clean run, then reset the
    // cache to just a *fresh* claim owned by a worker that will never
    // heartbeat again — exactly what a crash between refreshes leaves.
    let single = |out: &str| {
        let mut cmd = sraps();
        cmd.args([
            "sweep", "--system", "lassen", "--span", "2h", "--quiet", "--jobs", "1",
        ])
        .arg("-o")
        .arg(base.join(out))
        .arg("--cache-dir")
        .arg(&cache)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
        cmd
    };
    let learn = single("learn").output().expect("binary runs");
    assert!(learn.status.success());
    let key = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json"))
        .expect("one cache entry")
        .file_stem()
        .unwrap()
        .to_string_lossy()
        .into_owned();
    std::fs::remove_dir_all(&cache).unwrap();
    write_claim(&cache.join(format!("{key}.claim")), "dead:1:0", now_ms());

    // The sweep first sees a live foreign lease (heartbeat is fresh) and
    // defers; the owner is dead, so the heartbeat ages past the TTL and
    // the deferral loop's claim re-attempt reclaims and simulates.
    let out = single("resolved")
        .env("SRAPS_CLAIM_TTL_MS", "300")
        .env("SRAPS_CLAIM_POLL_MS", "20")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "deferred cell must resolve once the dead owner's lease ages out:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (h, m) = hits_misses(&String::from_utf8_lossy(&out.stdout));
    assert_eq!((h, m), (0, 1), "the cell simulated here, not skipped");
    assert_eq!(
        read(base.join("learn").join("sweep.csv")),
        read(base.join("resolved").join("sweep.csv")),
        "recovery never perturbs report bytes"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn tombstone_rename_race_elects_exactly_one_reclaimer() {
    use sraps_exp::{ClaimOutcome, ClaimSet};
    use std::time::Duration;
    let base = temp_dir("reclaim-race");
    // Several rounds: the race window (pause → re-read → rename) is
    // jittered per owner, so one round might not actually collide.
    for round in 0..5 {
        let key = format!("hot{round}");
        write_claim(&base.join(format!("{key}.claim")), "dead:1:0", 1);
        // The planted claim is stale under any TTL; the winner's fresh
        // claim must stay live for the whole race even if its heartbeat
        // thread is starved, or a late racer would reclaim it too.
        let sets: Vec<ClaimSet> = (0..4)
            .map(|_| {
                ClaimSet::open_with(&base, Duration::from_secs(5), Duration::from_millis(2))
                    .unwrap()
            })
            .collect();
        // Outcomes (winning leases included) stay alive until every racer
        // is done: a lease dropped early would release the claim and let
        // a late racer acquire it afresh.
        let outcomes: Vec<ClaimOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = sets
                .iter()
                .map(|set| s.spawn(|| set.try_acquire(&key).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let wins = outcomes
            .iter()
            .filter(|o| matches!(o, ClaimOutcome::Acquired(_)))
            .count();
        assert_eq!(
            wins, 1,
            "round {round}: exactly one of 4 racing reclaimers wins the rename"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn sigterm_mid_sweep_releases_claim_leases() {
    let base = temp_dir("sigterm-release");
    let cache = base.join("cache");
    // Every cache write stalls 10 s: the worker is guaranteed to be
    // holding claims when the signal lands.
    let victim = sweep_cmd(&base.join("victim"), &cache)
        .env("SRAPS_FAULTS", "write-delay%100:10000ms")
        .spawn()
        .expect("victim spawns");
    std::thread::sleep(std::time::Duration::from_millis(1500));
    let held: usize = std::fs::read_dir(&cache)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "claim"))
                .count()
        })
        .unwrap_or(0);
    assert!(held > 0, "victim must be holding claims when signaled");
    let kill = Command::new("kill")
        .arg("-TERM")
        .arg(victim.id().to_string())
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let out = victim.wait_with_output().expect("victim exits");
    assert_eq!(out.status.code(), Some(130), "interrupt exit status");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("released"),
        "release is announced:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let leaked = std::fs::read_dir(&cache)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.path()
                .extension()
                .is_some_and(|x| x == "claim" || x == "lease")
        })
        .count();
    assert_eq!(
        leaked, 0,
        "no claim or lease file survives a SIGTERM'd sweep"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn profile_counters_pin_the_claim_protocol() {
    let base = temp_dir("claim-counters");
    let out = sweep_cmd(&base.join("out"), &base.join("cache"))
        .arg("--profile")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Zero-valued counters are omitted from the table, so absence is the
    // assertion for the never-fired ones.
    let counter = |name: &str| -> u64 {
        stderr
            .lines()
            .find(|l| l.trim_start().starts_with(name))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    assert_eq!(
        counter("claims.acquired") as usize,
        MATRIX_CELLS,
        "single process: every miss acquires its claim\n{stderr}"
    );
    assert_eq!(counter("claims.contended"), 0, "{stderr}");
    assert_eq!(counter("claims.stale_reclaimed"), 0, "{stderr}");
    assert_eq!(counter("sweep.cells_failed"), 0, "{stderr}");
    std::fs::remove_dir_all(&base).ok();
}
