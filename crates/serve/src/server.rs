//! The resident what-if twin daemon.
//!
//! One process holds the registered scenarios (workload plans whose
//! datasets materialize lazily, exactly once) plus the open cell cache
//! and claim set, and answers schedule-axis what-if queries over
//! newline-delimited JSON ([`crate::protocol`]):
//!
//! * **Warm path** — the connection thread fingerprints the query's
//!   cell against the scenario's workload fingerprint and probes the
//!   [`CellCache`] directly: a hit is answered in microseconds without
//!   touching the queue or a worker.
//! * **Cold path** — misses go through admission control (bounded
//!   pending queue, per-client fairness cap, drain check) into an
//!   in-process worker pool that drives the cell through
//!   [`sraps_exp::CellJob::step`] — the *same* cell pipeline a sweep
//!   worker runs, over the scenario's memoized dataset and window — so
//!   external `sraps sweep` processes on the same cache directory
//!   co-compute, and a `kill -9`'d worker's claims are reclaimed after
//!   the TTL.
//!
//! Robustness is first-class: per-request deadlines (client-supplied,
//! server-capped) cancel queued work on expiry and return a structured
//! `timeout`; panics inside a cell are isolated by the runner's
//! `catch_unwind`/retry machinery; SIGTERM/ctrl-c latches a drain —
//! stop accepting, finish in-flight cells, release claim leases, flush
//! the obs trace, exit 0. A second signal exits immediately.

use crate::protocol::{Request, Response, StatsBody};
use sraps_exp::cell::{CellSpec, WorkloadPlan};
use sraps_exp::{faults, CellCache, CellJob, ClaimSet, Probe, Step, SweepOptions, WorkloadMemo};
use sraps_obs::Phase as ObsPhase;
use sraps_sched::{BackfillKind, PolicyKind};
use sraps_types::{signals, Result, SrapsError};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Daemon configuration, fully resolved by the CLI layer.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (printed on stdout).
    pub addr: String,
    /// Cold-path worker threads.
    pub workers: usize,
    /// Admission bound: cold requests queued but not yet running.
    pub max_pending: usize,
    /// Fairness bound: queued-or-running requests per client id.
    pub per_client: usize,
    /// Server-side cap on client deadlines.
    pub max_deadline: Duration,
    /// Deadline applied when the client sends none.
    pub default_deadline: Duration,
    /// Per-cell simulation retries (mirrors `sweep --retries`).
    pub retries: u32,
    /// Shared cache directory (the cooperation point with `sraps sweep`).
    pub cache_dir: PathBuf,
    /// Scenarios registered at startup, queried by workload label.
    pub plans: Vec<WorkloadPlan>,
    /// Chrome-trace output written at drain.
    pub trace_out: Option<PathBuf>,
    pub quiet: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2),
            max_pending: 64,
            per_client: 8,
            max_deadline: Duration::from_secs(60),
            default_deadline: Duration::from_secs(10),
            retries: 2,
            cache_dir: PathBuf::from("cache"),
            plans: Vec::new(),
            trace_out: None,
            quiet: false,
        }
    }
}

/// One admitted cold request, shared between its connection thread
/// (waits for the answer or the deadline) and a worker (computes it).
struct Job {
    seq: usize,
    client: String,
    cell: CellSpec,
    key: String,
    scenario: usize,
    deadline: Instant,
    /// Set on deadline expiry (or drain-side worker skip): queued work
    /// is dropped, a running attempt stops at its next checkpoint.
    canceled: AtomicBool,
    done: Mutex<Option<Response>>,
    cv: Condvar,
}

impl Job {
    fn expired(&self) -> bool {
        self.canceled.load(Ordering::Relaxed) || Instant::now() >= self.deadline
    }

    fn deliver(&self, resp: Response) {
        let mut slot = self.done.lock().unwrap();
        if slot.is_none() {
            *slot = Some(resp);
            self.cv.notify_all();
        }
    }
}

/// Always-on operational counters behind the `stats` endpoint: the
/// daemon's one counter set.
#[derive(Default)]
struct Stats {
    requests: AtomicU64,
    warm_hits: AtomicU64,
    cold_completed: AtomicU64,
    rejected: AtomicU64,
    timeouts: AtomicU64,
    failed: AtomicU64,
}

struct Server {
    cfg: ServeConfig,
    /// Registered scenarios, fingerprinted at startup; each dataset and
    /// window is built at most once, on the scenario's first cold query.
    scenarios: Vec<WorkloadMemo>,
    /// What the cell pipeline needs of the sweep options (the retries).
    cell_opts: SweepOptions,
    by_name: HashMap<String, usize>,
    cache: CellCache,
    claims: ClaimSet,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    draining: AtomicBool,
    /// Admitted cold requests whose response has not been written yet.
    in_flight: AtomicUsize,
    /// Queued-or-running requests per fairness bucket.
    clients: Mutex<HashMap<String, usize>>,
    workers_alive: AtomicUsize,
    seq: AtomicUsize,
    stats: Stats,
    started: Instant,
}

/// Run the daemon until SIGTERM/ctrl-c, then drain and return. The
/// listening address is printed on stdout as
/// `serve: listening on HOST:PORT` once the socket is bound.
pub fn serve(cfg: ServeConfig) -> Result<()> {
    if cfg.plans.is_empty() {
        return Err(SrapsError::Config(
            "serve needs at least one scenario".into(),
        ));
    }
    let mut scenarios = Vec::with_capacity(cfg.plans.len());
    let mut by_name = HashMap::new();
    for plan in &cfg.plans {
        let name = plan.label();
        let fp = plan.fingerprint()?;
        if by_name.insert(name.clone(), scenarios.len()).is_some() {
            return Err(SrapsError::Config(format!("duplicate scenario '{name}'")));
        }
        scenarios.push(WorkloadMemo::new(plan.clone(), Some(fp)));
    }
    let cache = CellCache::open(&cfg.cache_dir)?;
    let claims = ClaimSet::open(&cfg.cache_dir)?;
    let listener = TcpListener::bind(&cfg.addr)
        .map_err(|e| SrapsError::Io(format!("bind {}: {e}", cfg.addr)))?;
    let local = listener
        .local_addr()
        .map_err(|e| SrapsError::Io(format!("local_addr: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| SrapsError::Io(format!("set_nonblocking: {e}")))?;

    let server = Arc::new(Server {
        scenarios,
        cell_opts: SweepOptions::new().retries(cfg.retries),
        by_name,
        cache,
        claims,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        draining: AtomicBool::new(false),
        in_flight: AtomicUsize::new(0),
        clients: Mutex::new(HashMap::new()),
        workers_alive: AtomicUsize::new(0),
        seq: AtomicUsize::new(0),
        stats: Stats::default(),
        started: Instant::now(),
        cfg,
    });

    let mut workers = Vec::with_capacity(server.cfg.workers);
    for w in 0..server.cfg.workers {
        let srv = Arc::clone(&server);
        srv.workers_alive.fetch_add(1, Ordering::SeqCst);
        workers.push(
            std::thread::Builder::new()
                .name(format!("sraps-serve-worker-{w}"))
                .spawn(move || {
                    worker_loop(&srv);
                    srv.workers_alive.fetch_sub(1, Ordering::SeqCst);
                    sraps_obs::flush_thread_trace();
                })
                .map_err(|e| SrapsError::Io(format!("spawn worker: {e}")))?,
        );
    }

    signals::arm();
    println!(
        "serve: listening on {local} ({} scenario(s), {} worker(s), cache {})",
        server.scenarios.len(),
        server.cfg.workers,
        server.cfg.cache_dir.display()
    );

    // Accept loop: non-blocking accept polled against the signal latch,
    // so a drain request is observed within ~10 ms.
    while !signals::requested() {
        match listener.accept() {
            Ok((stream, peer)) => {
                let srv = Arc::clone(&server);
                let _ = std::thread::Builder::new()
                    .name("sraps-serve-conn".into())
                    .spawn(move || {
                        let _ = stream.set_nonblocking(false);
                        // Request/response lines are tiny; without
                        // NODELAY, Nagle + delayed ACK adds ~40 ms to
                        // every warm exchange.
                        let _ = stream.set_nodelay(true);
                        connection_loop(&srv, stream, peer.ip().to_string());
                        sraps_obs::flush_thread_trace();
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => {
                eprintln!("serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
    drain(&server, workers)
}

/// Graceful drain: stop admitting, let workers finish every queued and
/// running cell (deadlines still bound the wait), wait for the admitted
/// responses to be written, release claim leases, flush the obs trace.
fn drain(server: &Arc<Server>, workers: Vec<std::thread::JoinHandle<()>>) -> Result<()> {
    let at_signal = server.in_flight.load(Ordering::SeqCst);
    server.draining.store(true, Ordering::SeqCst);
    server.queue_cv.notify_all();
    if !server.cfg.quiet {
        eprintln!("serve: drain requested ({at_signal} request(s) in flight)");
    }
    for w in workers {
        let _ = w.join();
    }
    // Workers are done; admitted requests now only need their connection
    // threads to write the response. Deadlines bound this, but guard the
    // wait anyway so a wedged client socket cannot hold the drain hostage.
    let grace = server.cfg.max_deadline + Duration::from_secs(5);
    let start = Instant::now();
    while server.in_flight.load(Ordering::SeqCst) > 0 && start.elapsed() < grace {
        std::thread::sleep(Duration::from_millis(10));
    }
    // `in_flight` drops just before the connection thread writes the
    // response bytes; give those final local-socket writes a moment so
    // process exit cannot truncate an answered request.
    std::thread::sleep(Duration::from_millis(100));
    let released = sraps_exp::release_all_live();
    if let Some(path) = &server.cfg.trace_out {
        sraps_obs::flush_thread_trace();
        sraps_obs::write_trace(path)
            .map_err(|e| SrapsError::Io(format!("write trace {}: {e}", path.display())))?;
    }
    println!("serve: drained ({at_signal} in flight at signal, {released} lease(s) released)");
    Ok(())
}

/// Cold-path worker: pop, honor cancellation, run the cell pipeline
/// until the cell settles, deliver.
fn worker_loop(server: &Arc<Server>) {
    loop {
        let job = {
            let mut q = server.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break Some(job);
                }
                if server.draining.load(Ordering::SeqCst) {
                    break None;
                }
                q = server
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(50))
                    .unwrap()
                    .0;
            }
        };
        let Some(job) = job else { return };
        if job.expired() {
            // The connection thread answers `timeout` at the deadline;
            // the queued work is simply dropped.
            job.canceled.store(true, Ordering::Relaxed);
            continue;
        }
        if let Some(delay) = faults::slow_worker(job.seq) {
            std::thread::sleep(delay);
        }
        let scenario = &server.scenarios[job.scenario];
        if let Err(e) = scenario.materialized() {
            let name = scenario.plan.label();
            job.deliver(Response::error(
                None,
                format!("materialize scenario '{name}': {e}"),
            ));
            continue;
        }
        let cell = CellJob {
            cell: &job.cell,
            workload: scenario,
            key: Some(&job.key),
            cache: Some(&server.cache),
            claims: Some(&server.claims),
            opts: &server.cell_opts,
            salt: job.seq,
            cancel: &|| job.expired(),
        };
        // A cell another process is computing: poll with a jittered
        // backoff until its entry lands (or its dead owner's lease goes
        // stale and this worker reclaims it).
        let mut round = 0u32;
        let outcome = loop {
            match cell.step(Probe::Recheck) {
                Ok(Step::Contended) => {
                    round = round.wrapping_add(1);
                    std::thread::sleep(server.claims.backoff(&job.key, round));
                }
                settled => break settled,
            }
        };
        let resp = match outcome {
            Ok(Step::Done {
                metrics,
                from_cache,
                ..
            }) => {
                server.stats.cold_completed.fetch_add(1, Ordering::Relaxed);
                let mut r = Response::new(None, "ok");
                r.warm = Some(false);
                r.from_cache = Some(from_cache);
                r.metrics = Some(metrics);
                r
            }
            Ok(Step::Failed { error, attempts }) => {
                server.stats.failed.fetch_add(1, Ordering::Relaxed);
                let mut r = Response::new(None, "failed");
                r.error = Some(error.to_string());
                r.attempts = Some(attempts as u64);
                r
            }
            // The connection thread answers `timeout`.
            Ok(Step::Canceled | Step::Contended) => continue,
            Err(e) => Response::error(None, e.to_string()),
        };
        job.deliver(resp);
    }
}

/// Per-connection loop: NDJSON in, NDJSON out, in order.
fn connection_loop(server: &Arc<Server>, stream: TcpStream, peer: String) {
    let reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(_) => return,
    };
    let mut out = stream;
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        let seq = server.seq.fetch_add(1, Ordering::Relaxed);
        if faults::drop_conn(seq) {
            // Injected connection drop: vanish mid-request, like a
            // client would see from a crashed proxy. The request itself
            // was never admitted.
            return;
        }
        let span = sraps_obs::span(ObsPhase::ServeRequest);
        let resp = match serde_json::from_str::<Request>(&line) {
            Ok(req) => handle_request(server, req, seq, &peer),
            Err(e) => Response::error(None, format!("bad request: {e}")),
        };
        drop(span);
        let mut text = match serde_json::to_string(&resp) {
            Ok(t) => t,
            Err(e) => format!(r#"{{"status":"error","error":"serialize response: {e}"}}"#),
        };
        text.push('\n');
        let wrote = out.write_all(text.as_bytes()).and_then(|()| out.flush());
        if wrote.is_err() {
            return;
        }
    }
}

fn handle_request(server: &Arc<Server>, req: Request, seq: usize, peer: &str) -> Response {
    match req.op.as_deref().unwrap_or("query") {
        "ping" => Response::new(req.id, "pong"),
        "stats" => {
            let mut r = Response::new(req.id, "stats");
            r.stats = Some(stats_body(server));
            r
        }
        "query" => handle_query(server, req, seq, peer),
        other => Response::error(req.id, format!("unknown op '{other}'")),
    }
}

fn stats_body(server: &Server) -> StatsBody {
    let requests = server.stats.requests.load(Ordering::Relaxed);
    let warm = server.stats.warm_hits.load(Ordering::Relaxed);
    StatsBody {
        uptime_ms: server.started.elapsed().as_millis() as u64,
        scenarios: server.scenarios.len() as u64,
        workers: server.workers_alive.load(Ordering::SeqCst) as u64,
        queue_depth: server.queue.lock().unwrap().len() as u64,
        in_flight: server.in_flight.load(Ordering::SeqCst) as u64,
        draining: server.draining.load(Ordering::SeqCst),
        requests,
        warm_hits: warm,
        cold_completed: server.stats.cold_completed.load(Ordering::Relaxed),
        rejected: server.stats.rejected.load(Ordering::Relaxed),
        timeouts: server.stats.timeouts.load(Ordering::Relaxed),
        failed: server.stats.failed.load(Ordering::Relaxed),
        cache_hit_rate: if requests == 0 {
            0.0
        } else {
            warm as f64 / requests as f64
        },
    }
}

/// Build the query's cell against its scenario. The spec fields match
/// what a sweep matrix would produce for the same axes, and the cache
/// fingerprint excludes position/label — so a daemon answer and a sweep
/// cell share one cache entry (and therefore identical bytes) by
/// construction.
fn build_cell(server: &Server, req: &Request) -> std::result::Result<(usize, CellSpec), String> {
    let name = req.scenario.as_deref().ok_or("query needs a scenario")?;
    let idx = *server
        .by_name
        .get(name)
        .ok_or_else(|| format!("unknown scenario '{name}'"))?;
    let policy = req.policy.clone().unwrap_or_else(|| "fcfs".into());
    let backfill = req.backfill.clone().unwrap_or_else(|| "none".into());
    PolicyKind::parse(&policy).ok_or_else(|| format!("unknown policy '{policy}'"))?;
    BackfillKind::parse(&backfill).ok_or_else(|| format!("unknown backfill '{backfill}'"))?;
    if let Some(cap) = req.power_cap_kw {
        if !cap.is_finite() || cap <= 0.0 {
            return Err(format!("bad power_cap_kw {cap}"));
        }
    }
    let cap_at = match req.cap_at_s {
        Some(s) if s < 0 => return Err(format!("bad cap_at_s {s}")),
        Some(s) => Some(sraps_types::SimDuration::seconds(s)),
        None => None,
    };
    let mut label = format!("{name}/{policy}-{backfill}");
    if let Some(kw) = req.power_cap_kw {
        label.push_str(&format!("+cap{kw}"));
    }
    Ok((
        idx,
        CellSpec {
            index: 0,
            label,
            workload: 0,
            policy,
            backfill,
            cooling: false,
            power_cap_kw: req.power_cap_kw,
            cap_at,
            scheduler: sraps_core::SchedulerSelect::Default,
            accounts_in: None,
        },
    ))
}

fn handle_query(server: &Arc<Server>, req: Request, seq: usize, peer: &str) -> Response {
    let t0 = Instant::now();
    server.stats.requests.fetch_add(1, Ordering::Relaxed);
    let id = req.id.clone();
    let (scenario_idx, cell) = match build_cell(server, &req) {
        Ok(v) => v,
        Err(msg) => return Response::error(id, msg),
    };
    let key = server.scenarios[scenario_idx]
        .cell_key(&cell)
        .expect("scenarios are fingerprinted at startup");

    // Warm path: answered on this thread, straight from the cache.
    if let Some(hit) = server.cache.load(&key, false) {
        server.stats.warm_hits.fetch_add(1, Ordering::Relaxed);
        let mut r = Response::new(id, "ok");
        r.warm = Some(true);
        r.from_cache = Some(true);
        r.metrics = Some(hit.metrics);
        r.elapsed_us = Some(t0.elapsed().as_micros() as u64);
        return r;
    }

    // Admission control for the cold path.
    if faults::accept_fail(seq) {
        server.stats.rejected.fetch_add(1, Ordering::Relaxed);
        return Response::rejected(id, "injected accept failure", Some(25));
    }
    let client = req.client.clone().unwrap_or_else(|| peer.to_string());
    let deadline = Duration::from_millis(
        req.deadline_ms
            .unwrap_or(server.cfg.default_deadline.as_millis() as u64)
            .min(server.cfg.max_deadline.as_millis() as u64)
            .max(1),
    );
    let job = {
        let queue = server.queue.lock().unwrap();
        if server.draining.load(Ordering::SeqCst) {
            server.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Response::rejected(id, "draining", None);
        }
        if queue.len() >= server.cfg.max_pending {
            server.stats.rejected.fetch_add(1, Ordering::Relaxed);
            return Response::rejected(
                id,
                format!("queue full ({} pending)", queue.len()),
                Some(server.claims.poll().as_millis() as u64 + 25),
            );
        }
        {
            let mut clients = server.clients.lock().unwrap();
            let count = clients.entry(client.clone()).or_insert(0);
            if *count >= server.cfg.per_client {
                server.stats.rejected.fetch_add(1, Ordering::Relaxed);
                return Response::rejected(
                    id,
                    format!("client '{client}' at concurrency limit ({})", *count),
                    Some(25),
                );
            }
            *count += 1;
        }
        server.in_flight.fetch_add(1, Ordering::SeqCst);
        let job = Arc::new(Job {
            seq,
            client: client.clone(),
            cell,
            key,
            scenario: scenario_idx,
            deadline: Instant::now() + deadline,
            canceled: AtomicBool::new(false),
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        let mut queue = queue;
        queue.push_back(Arc::clone(&job));
        server.queue_cv.notify_one();
        job
    };

    // Wait for the worker or the deadline, whichever lands first.
    let mut resp = {
        let mut done = job.done.lock().unwrap();
        loop {
            if let Some(resp) = done.take() {
                break resp;
            }
            let now = Instant::now();
            if now >= job.deadline {
                job.canceled.store(true, Ordering::Relaxed);
                server.stats.timeouts.fetch_add(1, Ordering::Relaxed);
                let mut r = Response::new(None, "timeout");
                r.error = Some(format!(
                    "deadline {} ms expired before the cell finished",
                    deadline.as_millis()
                ));
                break r;
            }
            done = job.cv.wait_timeout(done, job.deadline - now).unwrap().0;
        }
    };
    {
        let mut clients = server.clients.lock().unwrap();
        if let Some(count) = clients.get_mut(&job.client) {
            *count -= 1;
            if *count == 0 {
                clients.remove(&job.client);
            }
        }
    }
    server.in_flight.fetch_sub(1, Ordering::SeqCst);
    resp.id = id;
    resp.elapsed_us = Some(t0.elapsed().as_micros() as u64);
    resp
}
