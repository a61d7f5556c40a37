//! `whatif_serve`: the resident twin under an open-loop query mix. The
//! release `sraps serve` daemon hosts lassen and adastra scenarios (1 d,
//! load 0.7) with one cold worker; set-up boots it and pre-warms a fixed
//! cell set into a fresh cache directory. Two connections then send on
//! seeded Poisson schedules, each from its own thread:
//!
//! * `warm` re-queries pre-warmed cells (answered off the cache on the
//!   connection thread) and samples the `stats` endpoint;
//! * `cold` queries cells never seen before (fresh power caps and cap
//!   switch times), at a rate that keeps the worker 12–25% busy.
//!
//! Latency runs from each request's due time, so a stall also charges
//! the requests queued behind it. The bounded throughput is server-side:
//! cold cells per second of the daemon's own handling time. Every answer is checked: warm answers
//! against the pre-warmed ones, all of those and every cold answer
//! against an in-process `SweepRunner` computing the same cell after the
//! timed window closes.

use crate::layers::SelfTimes;
use crate::stats::{self, median, percentile, Rng};
use crate::trace::{self, SpanRec};
use crate::{Ctx, Outcome};
use sraps_exp::{CellMetrics, ExperimentMatrix, SweepOptions, SweepRunner};
use sraps_serve::{Request, Response};
use sraps_types::SimDuration;
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

const SCENARIOS: [&str; 2] = ["lassen", "adastra"];
const LOAD: f64 = 0.7;
/// The scenarios' workload seed: the daemon's default. `--seed` drives the
/// query stream (schedules, cells, caps, switch times) instead, because
/// cold-cell cost moves with the scenario datasets and ten runs over ten
/// dataset seeds spread beyond any usable bound on top of the host's noise.
const SCENARIO_SEED: u64 = 42;
const WARM_POLICIES: [&str; 5] = ["fcfs", "sjf", "ljf", "priority", "priority_aging"];
const WARM_BACKFILLS: [&str; 2] = ["easy", "firstfit"];
const COLD_PAIRS: [(&str, &str); 2] = [("fcfs", "easy"), ("sjf", "firstfit")];
/// Cap switch offsets for cold cells, hours into the day.
const COLD_CAP_AT_H: [i64; 3] = [4, 10, 16];
/// Cold caps are drawn from this band of each scenario's uncapped peak.
const COLD_CAP_BAND: (f64, f64) = (0.7, 0.95);
/// Offered rates, queries per second. A capped cold cell takes ~6–12 ms
/// of worker time on a 2-core box, so 20/s keeps the one worker 12–25%
/// busy. Busier settings were tried on 2 vCPUs: at 60/s slow seeds queued
/// without bound, and at 35/s (20–45% busy) the latency medians of ten
/// runs spread by 25% because the worker, two connection threads and the
/// generator contend for two CPUs.
const WARM_RATE: f64 = 60.0;
const COLD_RATE: f64 = 20.0;
const STATS_EVERY_S: f64 = 0.1;
/// The traced daemon records every engine span of every cold cell
/// (~7k events, ~0.5 MB of trace each), so its window is capped.
const TRACED_WINDOW_S: f64 = 5.0;
const SETUP_REPEATS: usize = 25;
/// Validity bounds of the open loop: beyond these the run measures the
/// generator or a backlog, not the daemon. A generator that cannot keep
/// up is late on most sends; single sends late by tens of milliseconds
/// are the hypervisor descheduling a virtual CPU (seen up to 20 ms).
const LATE_P50_BOUND_MS: f64 = 5.0;
const LATE_P99_BOUND_MS: f64 = 100.0;
const BACKLOG_BOUND: usize = 10;
/// How long to wait for answers after the last request is due.
const DRAIN_S: f64 = 30.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    Warm,
    Cold,
    Stats,
}

/// One cell the benchmark queries: scenario, schedule axes, optional cap.
#[derive(Clone, Debug)]
struct Cell {
    scenario: usize,
    policy: &'static str,
    backfill: &'static str,
    cap: Option<(f64, i64)>,
}

impl Cell {
    fn request(&self, id: String) -> Request {
        Request {
            op: Some("query".into()),
            id: Some(id),
            client: None,
            scenario: Some(SCENARIOS[self.scenario].into()),
            policy: Some(self.policy.into()),
            backfill: Some(self.backfill.into()),
            power_cap_kw: self.cap.map(|c| c.0),
            cap_at_s: self.cap.map(|c| c.1),
            deadline_ms: None,
        }
    }
}

fn warm_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for scenario in 0..SCENARIOS.len() {
        for policy in WARM_POLICIES {
            for backfill in WARM_BACKFILLS {
                cells.push(Cell {
                    scenario,
                    policy,
                    backfill,
                    cap: None,
                });
            }
        }
    }
    cells
}

/// A running daemon; stopped (SIGTERM, then SIGKILL) when dropped.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open so the daemon's exit banner never meets a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(ctx: &Ctx, cache: &Path, trace_out: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(&ctx.sraps);
        cmd.args([
            "serve",
            "--systems",
            &SCENARIOS.join(","),
            "--loads",
            &LOAD.to_string(),
        ])
        .args([
            "--span",
            "1d",
            "--seed",
            &SCENARIO_SEED.to_string(),
            "--workers",
            "1",
        ])
        .args(["--addr", "127.0.0.1:0", "--quiet", "--cache-dir"])
        .arg(cache);
        if let Some(path) = trace_out {
            cmd.arg("--trace-out").arg(path);
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", ctx.sraps.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            _stdout: stdout,
        };
        read.map_err(|e| format!("read daemon stdout: {e}"))?;
        daemon.addr = line
            .strip_prefix("serve: listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner: {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    /// SIGTERM, then wait for the drain (which writes the trace).
    fn stop(mut self) -> Result<(), String> {
        self.terminate()
    }

    fn terminate(&mut self) -> Result<(), String> {
        if self.child.try_wait().ok().flatten().is_some() {
            return Ok(());
        }
        let _ = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status();
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(60) {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                _ => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err("daemon did not drain within 60 s".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.terminate();
    }
}

/// A blocking line-oriented connection, for set-up and pre-warming.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
        })
    }

    fn call(&mut self, req: &Request) -> Result<Response, String> {
        let mut line = serde_json::to_string(req).map_err(|e| e.to_string())?;
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut resp = String::new();
        self.reader
            .read_line(&mut resp)
            .map_err(|e| e.to_string())?;
        serde_json::from_str(resp.trim_end()).map_err(|e| format!("bad response {resp:?}: {e}"))
    }
}

/// Boot a daemon on a fresh cache directory and pre-warm `cells` through
/// it; returns the daemon, the pre-warm answers, and the set-up time.
fn boot(
    ctx: &Ctx,
    tag: &str,
    cells: &[Cell],
    traced: bool,
) -> Result<(Daemon, Vec<Response>, f64), String> {
    let cache = ctx.work.join(format!("cache-{tag}"));
    let trace_out = traced.then(|| ctx.work.join(format!("trace-{tag}.json")));
    let t = Instant::now();
    let daemon = Daemon::spawn(ctx, &cache, trace_out.as_deref())?;
    let mut conn = Conn::open(&daemon.addr)?;
    let pong = conn.call(&Request {
        op: Some("ping".into()),
        ..Request::default()
    })?;
    if pong.status != "pong" {
        return Err(format!("ping answered {:?}", pong.status));
    }
    let answers = cells
        .iter()
        .enumerate()
        .map(|(i, c)| conn.call(&c.request(format!("p{i}"))))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((daemon, answers, t.elapsed().as_secs_f64()))
}

/// One scheduled request of the open loop.
struct Due {
    at_s: f64,
    class: Class,
    /// Index into the warm or cold cell table (unused for stats).
    cell: usize,
    line: String,
}

/// What happened to one scheduled request.
struct Sample {
    due_s: f64,
    sent_s: f64,
    recv_s: Option<f64>,
    resp: Option<Response>,
}

/// Seeded schedules for both connections over `[0, window_s)`, plus the
/// cold cells they introduce.
fn schedules(
    rng: &mut Rng,
    window_s: f64,
    warm: &[Cell],
    peaks: &[f64],
) -> (Vec<Due>, Vec<Due>, Vec<Cell>) {
    let mut warm_q = Vec::new();
    let (mut t, mut next_stats, mut n) = (rng.exp_gap(WARM_RATE), 0.0, 0);
    while t < window_s || next_stats < window_s {
        if next_stats <= t {
            let line = r#"{"op":"stats"}"#.to_string();
            warm_q.push(Due {
                at_s: next_stats,
                class: Class::Stats,
                cell: 0,
                line,
            });
            next_stats += STATS_EVERY_S;
            continue;
        }
        let cell = rng.below(warm.len());
        let line =
            serde_json::to_string(&warm[cell].request(format!("w{n}"))).expect("request encodes");
        warm_q.push(Due {
            at_s: t,
            class: Class::Warm,
            cell,
            line,
        });
        n += 1;
        t += rng.exp_gap(WARM_RATE);
    }
    let mut cold_q = Vec::new();
    let mut cold_cells = Vec::new();
    // Every cold cell is new, so no cold query can hit the cache.
    let mut seen = HashSet::new();
    let mut t = rng.exp_gap(COLD_RATE);
    while t < window_s {
        let scenario = rng.below(SCENARIOS.len());
        let pair = rng.below(COLD_PAIRS.len());
        let frac = COLD_CAP_BAND.0 + (COLD_CAP_BAND.1 - COLD_CAP_BAND.0) * rng.uniform();
        let kw = (peaks[scenario] * frac * 1000.0).round() / 1000.0;
        let at = COLD_CAP_AT_H[rng.below(COLD_CAP_AT_H.len())] * 3600;
        if !seen.insert((scenario, pair, kw.to_bits(), at)) {
            continue;
        }
        let (policy, backfill) = COLD_PAIRS[pair];
        let cell = Cell {
            scenario,
            policy,
            backfill,
            cap: Some((kw, at)),
        };
        let line = serde_json::to_string(&cell.request(format!("c{}", cold_cells.len())))
            .expect("request encodes");
        cold_q.push(Due {
            at_s: t,
            class: Class::Cold,
            cell: cold_cells.len(),
            line,
        });
        cold_cells.push(cell);
        t += rng.exp_gap(COLD_RATE);
    }
    (warm_q, cold_q, cold_cells)
}

/// Drive one connection open-loop: a sender thread writes each request at
/// its due time whether or not earlier ones were answered, while this
/// thread reads the answers (in request order, per the wire protocol) on
/// a clone of the stream. Requests unanswered `DRAIN_S` after the last
/// one was due are left without a response, and so count as failed.
fn drive(addr: &str, schedule: &[Due], t0: Instant) -> Result<Vec<Sample>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    // Answers wake the reader as they arrive; the timeout only lets it
    // notice the drain deadline.
    stream
        .set_read_timeout(Some(Duration::from_millis(200)))
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    let now = move || t0.elapsed().as_secs_f64();
    let drain_until = schedule.last().map_or(0.0, |d| d.at_s) + DRAIN_S;
    std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut sent = Vec::with_capacity(schedule.len());
            for d in schedule {
                let wait = d.at_s - now();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                writer
                    .write_all(format!("{}\n", d.line).as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                sent.push(now());
            }
            Ok::<_, String>(sent)
        });
        let mut answers: Vec<(f64, Response)> = Vec::with_capacity(schedule.len());
        let mut line = Vec::new();
        while answers.len() < schedule.len() && now() < drain_until {
            match reader.read_until(b'\n', &mut line) {
                Ok(0) => return Err("daemon closed the connection".to_string()),
                Ok(_) => {
                    let text = String::from_utf8_lossy(&line);
                    let resp: Response = serde_json::from_str(text.trim_end())
                        .map_err(|e| format!("bad response {text:?}: {e}"))?;
                    answers.push((now(), resp));
                    line.clear();
                }
                // A timed-out read keeps the partial line in `line`.
                Err(e)
                    if matches!(
                        e.kind(),
                        ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(format!("receive: {e}")),
            }
        }
        let sent = sender.join().map_err(|_| "sender panicked")??;
        let mut answers = answers.into_iter();
        Ok(schedule
            .iter()
            .zip(sent)
            .map(|(d, sent_s)| {
                let (recv_s, resp) = answers.next().unzip();
                Sample {
                    due_s: d.at_s,
                    sent_s,
                    recv_s,
                    resp,
                }
            })
            .collect())
    })
}

/// In-process reference answers for `cells`: one metrics-only sweep per
/// (scenario, schedule pair, cap switch) group, caps as the cap axis.
fn reference(ctx: &Ctx, cells: &[Cell]) -> Result<(Vec<CellMetrics>, sraps_obs::Profile), String> {
    let mut groups: HashMap<(usize, &str, &str, Option<i64>), Vec<usize>> = HashMap::new();
    for (i, c) in cells.iter().enumerate() {
        groups
            .entry((c.scenario, c.policy, c.backfill, c.cap.map(|c| c.1)))
            .or_default()
            .push(i);
    }
    let mut keys: Vec<_> = groups.keys().copied().collect();
    keys.sort();
    let mut out: Vec<Option<CellMetrics>> = vec![None; cells.len()];
    let mut profile = sraps_obs::Profile::default();
    let runner = SweepRunner::with_options(ctx.nproc, SweepOptions::new().metrics_only(true));
    for key in keys {
        let members = &groups[&key];
        let (scenario, policy, backfill, cap_at) = key;
        let mut m = ExperimentMatrix::synthetic([SCENARIOS[scenario]])
            .loads([LOAD])
            .seeds([SCENARIO_SEED])
            .span(SimDuration::days(1))
            .pairs([(policy, backfill)])
            .power_caps_kw(members.iter().map(|&i| cells[i].cap.map(|c| c.0)));
        if let Some(at) = cap_at {
            m = m.power_cap_at(SimDuration::seconds(at));
        }
        let results = runner.run(&m).map_err(|e| e.to_string())?;
        if let Some(p) = results.merged_profile() {
            profile.merge(&p);
        }
        for (&i, cell) in members.iter().zip(&results.cells) {
            out[i] = Some(cell.metrics.clone());
        }
    }
    Ok((
        out.into_iter()
            .map(|m| m.expect("every cell is in a group"))
            .collect(),
        profile,
    ))
}

/// One measured window against a booted daemon.
struct Window {
    warm: Vec<Sample>,
    cold: Vec<Sample>,
    /// (class, cell index) of each warm-connection request, in order.
    warm_cells: Vec<(Class, usize)>,
    cold_cells: Vec<Cell>,
    /// CPU time the daemon used over the window, all threads.
    daemon_cpu_s: f64,
    /// VmHWM of this process and of the daemon when the window closed,
    /// before the output checks re-simulate cells in this process.
    bench_rss_mb: f64,
    daemon_rss_mb: f64,
    window_s: f64,
}

fn measure(
    daemon: Daemon,
    window_s: f64,
    rng: &mut Rng,
    warm: &[Cell],
    peaks: &[f64],
) -> Result<Window, String> {
    let (warm_q, cold_q, cold_cells) = schedules(rng, window_s, warm, peaks);
    let t0 = Instant::now() + Duration::from_millis(50);
    let addr = daemon.addr.clone();
    let cpu_before = stats::cpu_s(daemon.child.id());
    let (warm_s, cold_s) = std::thread::scope(|s| {
        let w = s.spawn(|| drive(&addr, &warm_q, t0));
        let c = s.spawn(|| drive(&addr, &cold_q, t0));
        (w.join(), c.join())
    });
    let warm_s = warm_s.map_err(|_| "warm generator panicked")??;
    let cold_s = cold_s.map_err(|_| "cold generator panicked")??;
    let daemon_cpu_s = stats::cpu_s(daemon.child.id()) - cpu_before;
    let bench_rss_mb = stats::peak_rss_mb(None);
    let daemon_rss_mb = stats::peak_rss_mb(Some(daemon.child.id()));
    daemon.stop()?;
    Ok(Window {
        warm: warm_s,
        cold: cold_s,
        warm_cells: warm_q.iter().map(|d| (d.class, d.cell)).collect(),
        cold_cells,
        daemon_cpu_s,
        bench_rss_mb,
        daemon_rss_mb,
        window_s,
    })
}

fn ms(v: f64) -> f64 {
    v * 1e3
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let warm = warm_cells();
    let mut setup_s = Vec::new();
    let mut booted = None;
    for n in 0..SETUP_REPEATS {
        if let Some((daemon, _)) = booted.take() {
            Daemon::stop(daemon)?;
        }
        let (daemon, answers, s) = boot(ctx, &format!("setup{n}"), &warm, false)?;
        setup_s.push(s);
        booted = Some((daemon, answers));
    }
    out.setup_s = median(&setup_s);
    let (daemon, prewarm) = booted.expect("SETUP_REPEATS > 0");
    let prewarm: Vec<CellMetrics> = prewarm
        .into_iter()
        .map(|r| r.metrics.filter(|_| r.status == "ok"))
        .collect::<Option<Vec<_>>>()
        .ok_or("a pre-warm query was not answered ok")?;
    // Cold caps scale with each scenario's uncapped peak power.
    let peaks: Vec<f64> = (0..SCENARIOS.len())
        .map(|s| {
            let mine = warm.iter().zip(&prewarm).filter(|(c, _)| c.scenario == s);
            mine.map(|(_, m)| m.peak_power_kw).fold(0.0, f64::max)
        })
        .collect();

    let mut rng = Rng::new(ctx.seed, 0x5e7e);
    let window_s = if ctx.trace {
        ctx.seconds / 2.0
    } else {
        ctx.seconds
    };
    let plain = measure(daemon, window_s, &mut rng, &warm, &peaks)?;
    let traced = if ctx.trace {
        let (daemon, answers, _) = boot(ctx, "traced", &warm, true)?;
        let same = answers
            .iter()
            .zip(&prewarm)
            .all(|(a, m)| a.metrics.as_ref() == Some(m));
        if !same {
            return Err(
                "the traced daemon's pre-warm answers differ from the first daemon's".into(),
            );
        }
        let w = measure(
            daemon,
            window_s.min(TRACED_WINDOW_S),
            &mut rng,
            &warm,
            &peaks,
        )?;
        let path = ctx.work.join("trace-traced.json");
        let file = std::fs::File::open(&path).map_err(|e| format!("open daemon trace: {e}"))?;
        let threads = trace::parse_chrome_trace(BufReader::new(file))?;
        std::fs::remove_file(&path).map_err(|e| format!("remove daemon trace: {e}"))?;
        Some((w, threads))
    } else {
        None
    };

    // Checks, after every timed window has closed.
    let (ref_warm, _) = reference(ctx, &warm)?;
    let mut windows = vec![&plain];
    if let Some((w, _)) = &traced {
        windows.push(w);
    }
    if ctx.trace {
        sraps_obs::set_profile(true);
    }
    let mut cold_profile = sraps_obs::Profile::default();
    let mut cold_count = 0usize;
    for w in &windows {
        let (ref_cold, p) = reference(ctx, &w.cold_cells)?;
        cold_profile.merge(&p);
        cold_count += w.cold_cells.len();
        check(&mut out, w, &prewarm, &ref_cold);
    }
    sraps_obs::set_profile(false);
    let bad_prewarm = prewarm
        .iter()
        .zip(&ref_warm)
        .filter(|(a, b)| a != b)
        .count();
    let mut fp = sraps_core::Fingerprinter::new();
    for m in &prewarm {
        fp.write_str(&serde_json::to_string(m).map_err(|e| e.to_string())?);
    }
    let digest = fp.finish().hex();
    if bad_prewarm > 0 || !crate::pinned::matches("whatif_serve", ctx.seed, &digest) {
        out.failed = out.attempted;
    }

    summarize(&mut out, &plain, &digest);
    if let Some((w, threads)) = &traced {
        layers(&mut out, &plain, w, threads, &cold_profile, cold_count)?;
    }
    Ok(out)
}

/// Count attempted and failed queries of one window and flag an invalid
/// open loop.
fn check(out: &mut Outcome, w: &Window, prewarm: &[CellMetrics], ref_cold: &[CellMetrics]) {
    let mut wrong = 0;
    for (s, (class, cell)) in w.warm.iter().zip(&w.warm_cells) {
        if *class == Class::Stats {
            continue;
        }
        out.attempted += 1;
        let ok = s.resp.as_ref().is_some_and(|r| r.status == "ok");
        if !ok || s.resp.as_ref().and_then(|r| r.metrics.as_ref()) != Some(&prewarm[*cell]) {
            wrong += 1;
        }
    }
    for (s, want) in w.cold.iter().zip(ref_cold) {
        out.attempted += 1;
        let ok = s.resp.as_ref().is_some_and(|r| r.status == "ok");
        if !ok || s.resp.as_ref().and_then(|r| r.metrics.as_ref()) != Some(want) {
            wrong += 1;
        }
    }
    out.failed += wrong;

    let late: Vec<f64> = w
        .warm
        .iter()
        .chain(&w.cold)
        .map(|s| ms(s.sent_s - s.due_s))
        .collect();
    let (late_p50, late_p99) = (percentile(&late, 50.0), percentile(&late, 99.0));
    if late_p50 > LATE_P50_BOUND_MS || late_p99 > LATE_P99_BOUND_MS {
        out.problems.push(format!(
            "generator ran late: p50 {late_p50:.2} ms, p99 {late_p99:.2} ms \
             (bounds {LATE_P50_BOUND_MS}, {LATE_P99_BOUND_MS} ms)"
        ));
    }
    // Backlog: cold requests still unanswered when the window closed
    // (one or two are in service), and queue depth growth.
    let open_at_close = w
        .cold
        .iter()
        .filter(|s| s.recv_s.is_none_or(|r| r > w.window_s))
        .count();
    if open_at_close > BACKLOG_BOUND {
        out.problems
            .push(format!("cold backlog of {open_at_close} at window close"));
    }
    let depth = queue_depths(w);
    let third = depth.len() / 3;
    if third > 0 {
        let first = stats::mean(&depth[..third]);
        let last = stats::mean(&depth[depth.len() - third..]);
        if last > first + 1.0 {
            out.problems
                .push(format!("queue depth grew from {first:.2} to {last:.2}"));
        }
    }
}

fn queue_depths(w: &Window) -> Vec<f64> {
    w.warm
        .iter()
        .filter_map(|s| {
            s.resp
                .as_ref()?
                .stats
                .as_ref()
                .map(|b| b.queue_depth as f64)
        })
        .collect()
}

/// Latencies (ms from due time) and server times (µs) of ok answers of
/// one class.
fn class_times(w: &Window, class: Class) -> (Vec<f64>, Vec<f64>) {
    let samples: Vec<&Sample> = match class {
        Class::Cold => w.cold.iter().collect(),
        _ => w
            .warm
            .iter()
            .zip(&w.warm_cells)
            .filter(|(_, c)| c.0 == class)
            .map(|(s, _)| s)
            .collect(),
    };
    let ok = samples.into_iter().filter_map(|s| {
        let r = s.resp.as_ref().filter(|r| r.status == "ok")?;
        Some((ms(s.recv_s? - s.due_s), r.elapsed_us.unwrap_or(0) as f64))
    });
    ok.unzip()
}

fn summarize(out: &mut Outcome, w: &Window, digest: &str) {
    let (warm_ms, _) = class_times(w, Class::Warm);
    let (cold_ms, cold_us) = class_times(w, Class::Cold);
    let tail = |v: &[f64], wanted: &[f64]| {
        stats::tail_percentile(v.len(), wanted).map_or(0.0, |p| percentile(v, p))
    };
    // The bounded figure is the daemon's cold capacity: cold cells answered
    // per second of the daemon's CPU time over the window. Cold cells take
    // ~98% of that time; the warm answers and `stats` calls the rest. CPU
    // time leaves out what the hypervisor steals: while it stole up to 9%,
    // the wall-clock figure below spread by 26% over ten runs of one build.
    out.throughput_per_s = cold_us.len() as f64 / w.daemon_cpu_s;
    // A cold answer's `elapsed_us` runs from the daemon parsing the request
    // to the answer. The daemon serves a connection one request at a time,
    // so that is the cell's cache probe, claim, window build, engine run and
    // write-back, never time queued behind other cold cells.
    let cold_server_s = cold_us.iter().sum::<f64>() / 1e6;
    out.peak_rss_mb = w.bench_rss_mb + w.daemon_rss_mb;
    let (nw, nc) = (warm_ms.len(), cold_ms.len());
    out.named(
        "warm_ms_p50",
        median(&warm_ms),
        "ms",
        format!("{nw} warm answers"),
    );
    out.named(
        "warm_ms_p99",
        tail(&warm_ms, &[99.0]),
        "ms",
        format!("{nw} warm answers"),
    );
    out.named(
        "cold_ms_p50",
        median(&cold_ms),
        "ms",
        format!("{nc} cold answers"),
    );
    out.named(
        "cold_ms_p90",
        tail(&cold_ms, &[90.0]),
        "ms",
        format!("{nc} cold answers"),
    );
    out.named(
        "served_qps",
        (nw + nc) as f64 / w.window_s,
        "1/s",
        format!("offered {WARM_RATE}+{COLD_RATE}/s"),
    );
    out.named(
        "cold_cells_per_cpu_s",
        out.throughput_per_s,
        "1/s",
        format!("{nc} cold answers / {:.3} s of daemon CPU", w.daemon_cpu_s),
    );
    out.named(
        "cold_cells_per_server_s",
        nc as f64 / cold_server_s,
        "1/s",
        format!("{nc} cold answers / their summed Response.elapsed_us"),
    );
    out.named(
        "cold_server_ms_p50",
        median(&cold_us) / 1e3,
        "ms",
        format!("{nc} cold answers, Response.elapsed_us"),
    );
    let busy = cold_server_s / w.window_s;
    out.named(
        "worker_busy",
        busy,
        "ratio",
        "cold server time / window".into(),
    );
    let late: Vec<f64> = w
        .warm
        .iter()
        .chain(&w.cold)
        .map(|s| ms(s.sent_s - s.due_s))
        .collect();
    out.named(
        "gen_late_ms_p99",
        percentile(&late, 99.0),
        "ms",
        "send time minus due time".into(),
    );
    out.named(
        "queue_depth_max",
        stats::max(&queue_depths(w)),
        "count",
        "stats.queue_depth samples".into(),
    );
    out.named(
        "setup_s",
        out.setup_s,
        "s",
        format!("median of {SETUP_REPEATS} boots + pre-warms, digest {digest}"),
    );
    out.named(
        "peak_rss_mb",
        out.peak_rss_mb,
        "MB",
        "VmHWM of this process + the daemon".into(),
    );
}

/// Per-layer metrics of the traced window, from the daemon's chrome trace
/// (worker and connection-thread spans), its answers and `stats`, and the
/// in-process re-simulation of the same cold cells (deterministic counts).
fn layers(
    out: &mut Outcome,
    plain: &Window,
    w: &Window,
    threads: &trace::Threads,
    cold_profile: &sraps_obs::Profile,
    cold_count: usize,
) -> Result<(), String> {
    // The worker is the one thread that runs engines; the warm
    // connection is the connection thread with the most requests.
    let worker = threads
        .iter()
        .find(|(_, spans)| spans.iter().any(|s| s.name == "engine.run"))
        .map(|(tid, _)| *tid)
        .ok_or("trace has no worker thread")?;
    let count = |spans: &[SpanRec]| spans.iter().filter(|s| s.name == "serve.request").count();
    let warm_tid = threads
        .iter()
        .filter(|(tid, _)| **tid != worker)
        .max_by_key(|(_, spans)| count(spans))
        .map(|(tid, _)| *tid)
        .ok_or("trace has no connection thread")?;

    // Worker jobs: maximal runs of top-level spans closed by a
    // cache.write (every simulated cell ends by storing its entry); each
    // job is known by the start of its first span.
    let mut jobs: Vec<f64> = Vec::new();
    let mut open: Option<f64> = None;
    for s in threads[&worker].iter().filter(|s| s.depth == 0) {
        let start = *open.get_or_insert(s.start_us);
        if s.name == "cache.write" {
            jobs.push(start);
            open = None;
        }
    }
    // Cold requests: every request that probed the cache and missed,
    // i.e. on a connection other than the warm one, in probe order.
    let mut cold_reqs: Vec<(f64, f64)> = Vec::new(); // (probe end, request start)
    for (tid, spans) in threads {
        if *tid == worker || *tid == warm_tid {
            continue;
        }
        let mut probe_end = None;
        for s in spans {
            match (s.name, s.depth) {
                ("cache.read", 1) => probe_end = Some(s.end_us),
                ("serve.request", 0) => {
                    if let Some(p) = probe_end.take() {
                        cold_reqs.push((p, s.start_us));
                    }
                }
                _ => {}
            }
        }
    }
    cold_reqs.sort_by(|a, b| a.0.total_cmp(&b.0));
    if cold_reqs.len() != jobs.len() {
        return Err(format!(
            "trace pairs {} cold requests with {} worker jobs",
            cold_reqs.len(),
            jobs.len()
        ));
    }
    // The load window's cold requests are the last ones (pre-warm first).
    // Between a request's cache miss and the worker's first span lie the
    // queue wait, the claim, and the unspanned window build; the last is
    // replayed standalone and the remainder reported as the queue wait.
    let n = w.cold_cells.len().min(jobs.len());
    let skip = jobs.len() - n;
    let window_ms = window_replay_ms();
    let pairs = || cold_reqs.iter().zip(&jobs).skip(skip);
    let wait_ms: Vec<f64> = pairs()
        .map(|((p, _), job_start)| ((job_start - p) / 1e3 - window_ms).max(0.0))
        .collect();
    let probe_ms = stats::mean(&pairs().map(|((p, s), _)| (p - s) / 1e3).collect::<Vec<_>>());
    let from = jobs.get(skip).copied().unwrap_or(f64::MAX);
    let per = n.max(1) as f64;
    let mut st = SelfTimes::new();
    for (name, (calls, us)) in trace::self_by_name(&threads[&worker], from, f64::MAX) {
        st.add(name, calls / per, us / 1e3 / per);
    }
    st.add("serve.request probe (cold)", 1.0, probe_ms);
    st.add("core.window_build (replay)", 1.0, window_ms);
    st.add("serve.queue_wait + claim", 1.0, stats::mean(&wait_ms));
    let (_, cold_us) = class_times(w, Class::Cold);
    let (_, warm_us) = class_times(w, Class::Warm);
    let wall_ms = stats::mean(&cold_us) / 1e3;

    let all_spans: Vec<&SpanRec> = threads.values().flatten().collect();
    let mean_span = |name: &str| {
        let durations: Vec<f64> = all_spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect();
        stats::mean(&durations)
    };
    let warm_samples = w
        .warm
        .iter()
        .zip(&w.warm_cells)
        .filter(|(_, c)| c.0 == Class::Warm);
    let gaps: Vec<f64> = warm_samples
        .map(|(s, _)| s)
        .chain(&w.cold)
        .filter_map(|s| Some(ms(s.recv_s? - s.due_s) - s.resp.as_ref()?.elapsed_us? as f64 / 1e3))
        .collect();
    let answered_ok = |want_from_cache: bool| {
        w.cold
            .iter()
            .filter(|s| {
                s.resp
                    .as_ref()
                    .is_some_and(|r| r.status == "ok" && r.from_cache == Some(want_from_cache))
            })
            .count() as f64
    };
    let (warm_hits, cold_done) = (warm_us.len() as f64, answered_ok(false) + answered_ok(true));

    let l = &mut out.layers;
    l.table = st.render("cold query (server time)", wall_ms);
    l.set("data.synthesize_ms", synth_replay_ms());
    l.set("exp.plan_fingerprint_ms", fingerprint_replay_ms());
    l.set("core.window_build_ms", window_ms);
    l.set_engine_rows(&st, cold_profile, cold_count.max(1) as f64);
    l.set("cache.read_us", mean_span("cache.read"));
    l.set("cache.write_ms", mean_span("cache.write") / 1e3);
    l.set("cache.hits", warm_hits);
    l.set("cache.misses", cold_done);
    l.set(
        "cache.hit_ratio",
        warm_hits / (warm_hits + cold_done).max(1.0),
    );
    // The daemon exports no claim counters. Each cold cell it simulated
    // itself (from_cache false) held a lease, so `claims.acquired` is
    // inferred from the answers; contention is not observable from
    // outside and stays 0, as for any layer a workload does not reach.
    l.set("claims.acquired", answered_ok(false));
    l.set("serve.warm_server_us_p50", median(&warm_us));
    l.set("serve.warm_server_us_p99", percentile(&warm_us, 99.0));
    l.set("serve.cold_server_us_p50", median(&cold_us));
    l.set("serve.cold_server_us_p99", percentile(&cold_us, 99.0));
    l.set("serve.client_gap_ms", stats::mean(&gaps));
    l.set("serve.queue_wait_ms", stats::mean(&wait_ms));
    l.set("serve.queue_depth_max", stats::max(&queue_depths(w)));
    l.set("unattributed_ms", wall_ms - st.covered_ms());
    let late: Vec<f64> = w
        .warm
        .iter()
        .chain(&w.cold)
        .map(|s| ms(s.sent_s - s.due_s))
        .collect();
    l.set("bench.gen_late_ms_p99", percentile(&late, 99.0));
    let (_, plain_cold_us) = class_times(plain, Class::Cold);
    l.set(
        "bench.trace_overhead_pct",
        (median(&cold_us) / median(&plain_cold_us) - 1.0) * 100.0,
    );
    Ok(())
}

fn scenario_inputs() -> Vec<(
    sraps_systems::SystemConfig,
    sraps_data::WorkloadSpec,
    &'static str,
)> {
    SCENARIOS
        .iter()
        .map(|name| {
            let cfg = sraps_exp::cell::system_scaled(name, 1.0).expect("preset system");
            let mut spec = sraps_data::WorkloadSpec::for_system(&cfg, LOAD, SCENARIO_SEED);
            spec.span = SimDuration::days(1);
            (cfg, spec, *name)
        })
        .collect()
}

fn synth_replay_ms() -> f64 {
    let inputs = scenario_inputs();
    median(
        &inputs
            .iter()
            .map(|(cfg, spec, name)| {
                let t = Instant::now();
                std::hint::black_box(
                    sraps_exp::cell::synthesize_by_name(name, cfg, spec).expect("synthesizes"),
                );
                ms(t.elapsed().as_secs_f64())
            })
            .collect::<Vec<_>>(),
    )
}

fn fingerprint_replay_ms() -> f64 {
    let m = ExperimentMatrix::synthetic(SCENARIOS)
        .loads([LOAD])
        .seeds([SCENARIO_SEED])
        .span(SimDuration::days(1));
    let (plans, _) = m.expand().expect("valid matrix");
    median(
        &plans
            .iter()
            .map(|p| {
                let t = Instant::now();
                std::hint::black_box(p.fingerprint().expect("fingerprints"));
                ms(t.elapsed().as_secs_f64())
            })
            .collect::<Vec<_>>(),
    )
}

fn window_replay_ms() -> f64 {
    median(
        &scenario_inputs()
            .iter()
            .map(|(cfg, spec, name)| {
                let ds = sraps_exp::cell::synthesize_by_name(name, cfg, spec).expect("synthesizes");
                let sim =
                    sraps_core::SimConfig::new(cfg.clone(), "fcfs", "easy").expect("valid pair");
                let t = Instant::now();
                std::hint::black_box(
                    sraps_core::SimWindow::new(&sim, &ds).expect("non-empty window"),
                );
                ms(t.elapsed().as_secs_f64())
            })
            .collect::<Vec<_>>(),
    )
}
