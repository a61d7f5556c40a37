//! End-to-end robustness tests for `sraps serve` / `sraps query`.
//!
//! Each test boots a real daemon on an ephemeral port (parsed from the
//! pinned `serve: listening on ...` stdout line), speaks the NDJSON
//! protocol over TCP, and shuts down with a real SIGTERM — asserting
//! the drain contract every time: exit 0, a `serve: drained` line, and
//! zero leaked `.claim` or `.lease` files in the shared cache directory.

use sraps_serve::{Request, Response};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

fn sraps() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sraps"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sraps-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Claim links and lease files in `cache`.
fn claim_files(cache: &Path) -> usize {
    std::fs::read_dir(cache)
        .map(|d| {
            d.filter_map(|e| e.ok())
                .filter(|e| {
                    e.path()
                        .extension()
                        .is_some_and(|x| x == "claim" || x == "lease")
                })
                .count()
        })
        .unwrap_or(0)
}

/// Voluntary context switches summed over the threads of `pid`.
#[cfg(target_os = "linux")]
fn context_switches(pid: u32) -> u64 {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .expect("task list readable")
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("status")).ok())
        .filter_map(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
                .and_then(|v| v.trim().parse::<u64>().ok())
        })
        .sum()
}

/// A running daemon plus the stdout reader that watched it come up.
struct Daemon {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    /// Boot `sraps serve` on an ephemeral port with a 2 h lassen
    /// scenario and block until the listening line appears.
    fn spawn(cache: &Path, extra: &[&str], envs: &[(&str, &str)]) -> Daemon {
        let mut cmd = sraps();
        cmd.args(["serve", "--span", "2h", "--addr", "127.0.0.1:0"])
            .arg("--cache-dir")
            .arg(cache)
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        for (k, v) in envs {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn().expect("daemon spawns");
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            let n = stdout.read_line(&mut line).expect("daemon stdout readable");
            assert!(n > 0, "daemon exited before printing its address");
            if let Some(rest) = line.strip_prefix("serve: listening on ") {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("address token")
                    .to_string();
            }
        };
        Daemon {
            child,
            addr,
            stdout,
        }
    }

    fn signal(&self, sig: &str) {
        let status = Command::new("kill")
            .arg(sig)
            .arg(self.child.id().to_string())
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill {sig} delivered");
    }

    /// SIGTERM, wait for exit, and assert the full drain contract.
    fn shutdown(mut self) -> String {
        self.signal("-TERM");
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .expect("drain stdout readable");
        let status = self.child.wait().expect("daemon exits");
        assert!(status.success(), "drained daemon exits 0 (got {status})");
        assert!(
            rest.contains("serve: drained ("),
            "drain line printed:\n{rest}"
        );
        rest
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One NDJSON client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect to daemon");
        writer.set_nodelay(true).expect("nodelay");
        writer
            .set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        let reader = BufReader::new(writer.try_clone().expect("clone stream"));
        Conn { reader, writer }
    }

    fn send(&mut self, req: &Request) -> Response {
        let mut line = serde_json::to_string(req).expect("encode request");
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .expect("send request");
        self.writer.flush().expect("flush request");
        let mut resp = String::new();
        let n = self.reader.read_line(&mut resp).expect("read response");
        assert!(n > 0, "daemon closed the connection mid-exchange");
        serde_json::from_str(&resp).unwrap_or_else(|e| panic!("bad response '{resp}': {e}"))
    }
}

fn query(scenario: &str, policy: &str, backfill: &str) -> Request {
    Request {
        op: Some("query".into()),
        scenario: Some(scenario.into()),
        policy: Some(policy.into()),
        backfill: Some(backfill.into()),
        deadline_ms: Some(30_000),
        ..Request::default()
    }
}

fn read(path: PathBuf) -> String {
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn cold_then_warm_queries_and_sweep_parity() {
    let base = temp_dir("parity");
    let cache = base.join("cache");
    let daemon = Daemon::spawn(&cache, &["--workers", "2"], &[]);
    let mut conn = Conn::open(&daemon.addr);

    // Cold: no cache entry yet — a worker simulates the cell under a
    // claim lease.
    let cold = conn.send(&query("lassen", "sjf", "easy"));
    assert_eq!(cold.status, "ok", "cold query answers: {:?}", cold.error);
    assert_eq!(cold.warm, Some(false));
    let cold_metrics = cold.metrics.expect("cold response carries metrics");

    // Warm: the same question now answers straight from the cache on
    // the connection thread, with identical numbers.
    let warm = conn.send(&query("lassen", "sjf", "easy"));
    assert_eq!(warm.status, "ok");
    assert_eq!(warm.warm, Some(true), "second ask is a warm hit");
    assert_eq!(warm.from_cache, Some(true));
    let warm_metrics = warm.metrics.expect("warm response carries metrics");
    assert_eq!(
        serde_json::to_string(&cold_metrics).unwrap(),
        serde_json::to_string(&warm_metrics).unwrap(),
        "warm answer is byte-identical to the cold one"
    );

    // Health endpoints.
    let pong = conn.send(&Request {
        op: Some("ping".into()),
        ..Request::default()
    });
    assert_eq!(pong.status, "pong");
    let stats = conn.send(&Request {
        op: Some("stats".into()),
        ..Request::default()
    });
    assert_eq!(stats.status, "stats");
    let body = stats.stats.expect("stats body");
    assert_eq!(body.scenarios, 1);
    assert_eq!(body.warm_hits, 1);
    assert_eq!(body.cold_completed, 1);
    assert!(!body.draining);

    // Unknown scenario / policy are structured errors, not hangups.
    let bad = conn.send(&query("no-such-machine", "fcfs", "none"));
    assert_eq!(bad.status, "error");
    assert!(bad.error.unwrap().contains("unknown scenario"));

    drop(conn);
    daemon.shutdown();
    assert_eq!(claim_files(&cache), 0, "drain leaks no claim files");

    // Byte parity with the batch path: a sweep over the same axes on the
    // daemon-filled cache must hit (shared fingerprint), and its report
    // must be byte-identical to a sweep computed from scratch.
    let sweep = |out: &Path, cache: &Path| {
        let r = sraps()
            .args([
                "sweep",
                "--system",
                "lassen",
                "--span",
                "2h",
                "--policies",
                "sjf",
                "--backfills",
                "easy",
                "--quiet",
                "--jobs",
                "1",
            ])
            .arg("-o")
            .arg(out)
            .arg("--cache-dir")
            .arg(cache)
            .output()
            .expect("sweep runs");
        assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
        String::from_utf8_lossy(&r.stdout).into_owned()
    };
    let reused = sweep(&base.join("reused"), &cache);
    assert!(
        reused.contains("cache: 1 hits, 0 misses"),
        "sweep reuses the daemon's cell:\n{reused}"
    );
    sweep(&base.join("fresh"), &base.join("fresh-cache"));
    assert_eq!(
        read(base.join("reused").join("sweep.csv")),
        read(base.join("fresh").join("sweep.csv")),
        "daemon-computed cells yield byte-identical sweep reports"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn deadlines_fairness_and_backpressure_reject_structurally() {
    let base = temp_dir("admission");
    let cache = base.join("cache");
    // One worker that sleeps 2 s per cold request: every admitted query
    // parks long enough to observe deadlines and concurrency caps.
    // max-pending is 2, not 1: admission checks the queue bound before
    // the per-client cap, so the fairness rejection is only observable
    // while the queue still has room.
    let daemon = Daemon::spawn(
        &cache,
        &[
            "--workers",
            "1",
            "--per-client",
            "1",
            "--max-pending",
            "2",
            "--faults",
            "slow-worker%100:2000ms",
        ],
        &[],
    );

    // Deadline: a 300 ms budget cannot outlast the 2 s slow-worker stall,
    // so the connection thread answers a structured timeout.
    let mut conn = Conn::open(&daemon.addr);
    let mut req = query("lassen", "fcfs", "none");
    req.client = Some("impatient".into());
    req.deadline_ms = Some(300);
    let timed_out = conn.send(&req);
    assert_eq!(timed_out.status, "timeout");
    assert!(
        timed_out.error.unwrap().contains("deadline"),
        "timeout names its cause"
    );

    // Fairness: while one slow query from client "greedy" is in flight,
    // a second from the same client is rejected with a retry hint; a
    // different client is admitted (then also rejected only if the
    // queue bound trips).
    let addr = daemon.addr.clone();
    let holder = std::thread::spawn(move || {
        let mut conn = Conn::open(&addr);
        let mut req = query("lassen", "sjf", "none");
        req.client = Some("greedy".into());
        conn.send(&req)
    });
    std::thread::sleep(Duration::from_millis(400));
    let mut req = query("lassen", "sjf", "easy");
    req.client = Some("greedy".into());
    let unfair = conn.send(&req);
    assert_eq!(unfair.status, "rejected", "per-client cap rejects");
    assert!(unfair.error.unwrap().contains("concurrency limit"));
    assert!(unfair.retry_after_ms.is_some(), "rejection hints a retry");

    // Backpressure: "greedy"'s job occupies one of the two queue slots
    // (the worker is still stalled on the canceled first query); one
    // more query fills the queue, and the next is turned away.
    let mut q1 = query("lassen", "fcfs", "easy");
    q1.client = Some("other-1".into());
    let addr = daemon.addr.clone();
    let queued = std::thread::spawn(move || Conn::open(&addr).send(&q1));
    std::thread::sleep(Duration::from_millis(400));
    let mut q2 = query("lassen", "sjf", "easy");
    q2.client = Some("other-2".into());
    let full = conn.send(&q2);
    assert_eq!(full.status, "rejected", "bounded queue rejects");
    assert!(full.error.unwrap().contains("queue full"));
    assert!(full.retry_after_ms.is_some());

    let held = holder.join().unwrap();
    assert_eq!(held.status, "ok", "the admitted slow query still answers");
    let queued = queued.join().unwrap();
    assert_eq!(queued.status, "ok", "the queued query drains to a worker");

    drop(conn);
    daemon.shutdown();
    assert_eq!(claim_files(&cache), 0);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn query_client_rides_out_accept_fail_and_dropped_connections() {
    let base = temp_dir("chaos-client");
    let cache = base.join("cache");
    // Request 0 gets its connection dropped mid-exchange, request 1 is
    // rejected at admission; the `sraps query` client must reconnect /
    // back off and land the answer on a later attempt.
    let daemon = Daemon::spawn(
        &cache,
        &["--workers", "1", "--faults", "drop-conn@0,accept-fail@1"],
        &[],
    );
    let out = sraps()
        .args([
            "query",
            "--addr",
            &daemon.addr,
            "--scenario",
            "lassen",
            "--policy",
            "sjf",
            "--backfill",
            "easy",
            "--deadline-ms",
            "30000",
            "--retries",
            "5",
        ])
        .output()
        .expect("query runs");
    assert!(
        out.status.success(),
        "client retries through injected chaos:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let resp: Response =
        serde_json::from_str(String::from_utf8_lossy(&out.stdout).trim()).expect("one response");
    assert_eq!(resp.status, "ok");
    assert_eq!(resp.warm, Some(false));

    daemon.shutdown();
    assert_eq!(claim_files(&cache), 0);
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn daemon_reclaims_cells_from_a_kill_dash_nined_sweep_worker() {
    let base = temp_dir("reclaim");
    let cache = base.join("cache");
    // An external sweep worker whose cache writes stall 10 s grabs claim
    // leases over the same cells the daemon serves, then dies by SIGKILL
    // — no release, no tombstone, just stale lease files.
    let mut victim = sraps()
        .args([
            "sweep",
            "--system",
            "lassen",
            "--span",
            "2h",
            "--policies",
            "fcfs,sjf",
            "--quiet",
            "--jobs",
            "2",
        ])
        .arg("-o")
        .arg(base.join("victim"))
        .arg("--cache-dir")
        .arg(&cache)
        .env("SRAPS_FAULTS", "write-delay%100:10000ms")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("victim sweep spawns");
    std::thread::sleep(Duration::from_millis(1500));
    assert!(claim_files(&cache) > 0, "victim holds leases when killed");
    victim.kill().expect("SIGKILL victim");
    victim.wait().expect("victim reaped");

    // The daemon, sharing the cache, must wait out the (shortened) TTL,
    // reclaim the dead worker's lease, and answer the query.
    let daemon = Daemon::spawn(
        &cache,
        &["--workers", "2"],
        &[("SRAPS_CLAIM_TTL_MS", "400"), ("SRAPS_CLAIM_POLL_MS", "20")],
    );
    let mut conn = Conn::open(&daemon.addr);
    // Ask for both cells the dead worker had claimed: each stale lease
    // must be reclaimed (rename-to-tombstone) and the cell computed.
    for policy in ["fcfs", "sjf"] {
        let resp = conn.send(&query("lassen", policy, "none"));
        assert_eq!(
            resp.status, "ok",
            "daemon reclaims the dead worker's {policy} cell: {:?}",
            resp.error
        );
        assert_eq!(resp.warm, Some(false), "the cell was computed, not found");
    }

    drop(conn);
    daemon.shutdown();
    assert_eq!(claim_files(&cache), 0, "reclaimed leases do not leak");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn sigterm_finishes_in_flight_work_before_exiting() {
    let base = temp_dir("drain");
    let cache = base.join("cache");
    // 700 ms artificial stall: long enough that SIGTERM lands while the
    // query is in flight, short enough that the drain finishes it.
    let daemon = Daemon::spawn(
        &cache,
        &["--workers", "1", "--faults", "slow-worker%100:700ms"],
        &[],
    );
    let addr = daemon.addr.clone();
    let inflight = std::thread::spawn(move || {
        let mut conn = Conn::open(&addr);
        conn.send(&query("lassen", "fcfs", "easy"))
    });
    std::thread::sleep(Duration::from_millis(300));

    // New work is rejected once the drain latches, but the in-flight
    // query still gets its real answer before exit.
    let drained = daemon.shutdown();
    assert!(
        drained.contains("1 in flight at signal"),
        "drain reports the in-flight request:\n{drained}"
    );
    let resp = inflight.join().unwrap();
    assert_eq!(
        resp.status, "ok",
        "in-flight query answered during drain: {:?}",
        resp.error
    );
    assert_eq!(claim_files(&cache), 0, "drain releases every claim lease");
    std::fs::remove_dir_all(&base).ok();
}

#[cfg(target_os = "linux")]
#[test]
fn an_idle_daemon_does_not_wake() {
    let base = temp_dir("idle");
    let cache = base.join("cache");
    let daemon = Daemon::spawn(&cache, &["--workers", "2"], &[]);
    // One cold answer first, so the claim heartbeat is running too.
    let mut conn = Conn::open(&daemon.addr);
    let cold = conn.send(&query("lassen", "fcfs", "easy"));
    assert_eq!(cold.status, "ok", "{:?}", cold.error);
    drop(conn);
    // Let the connection thread see the hangup and exit.
    std::thread::sleep(Duration::from_millis(200));
    let pid = daemon.child.id();
    let before = context_switches(pid);
    std::thread::sleep(Duration::from_secs(1));
    let switches = context_switches(pid).saturating_sub(before);
    assert!(
        switches < 10,
        "an idle daemon's threads switched {switches} times in 1 s"
    );
    daemon.shutdown();
    assert_eq!(claim_files(&cache), 0, "drain leaks no claim or lease");
    std::fs::remove_dir_all(&base).ok();
}
