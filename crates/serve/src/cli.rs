//! `sraps serve` / `sraps query` — CLI front-ends for the resident
//! what-if twin service.
//!
//! `serve` registers synthetic scenarios (the same axes `sraps sweep`
//! takes) and runs the daemon until SIGTERM/ctrl-c; `query` is a small
//! NDJSON client used interactively and by CI: it retries dropped
//! connections and `rejected` responses with the server's backoff hint,
//! and can self-assert a warm-query latency budget (`--assert-p50-ms`).

use crate::protocol::{Request, Response};
use crate::server::{serve, ServeConfig};
use sraps_exp::cli::{observed, offered_load, text, with_faults, Argv};
use sraps_exp::{CellCache, ExperimentMatrix, FaultPlan};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SERVE_USAGE: &str = "\
usage: sraps serve [options]

Run a resident what-if twin service: scenarios are registered at
startup, queries arrive as newline-delimited JSON over TCP, warm
queries answer straight from the cell cache, cold queries run on an
in-process worker pool under the sweep's claim-lease protocol (so
external `sraps sweep` processes on the same cache directory
co-compute). SIGTERM/ctrl-c drains gracefully: accepting stops,
in-flight cells finish, claim leases are released, the trace flushes.

scenarios (same synthetic axes as `sraps sweep`):
  --systems LIST         comma-separated preset systems (default lassen)
  --loads LIST           offered loads, each at most 10 (default 0.8)
  --seed N               base workload seed (default 42)
  --seeds N              seeds per (system, load): N from --seed up
  --span DUR             synthetic workload span (default 1d)
  --scale F              scale large machines by F

service:
  --addr HOST:PORT       bind address (default 127.0.0.1:0; the chosen
                         port is printed as 'serve: listening on ...')
  --cache-dir DIR        shared cell cache (default $SRAPS_CACHE_DIR)
  --workers N            cold-path worker threads (default: CPUs)
  --max-pending N        admission bound on queued cold requests
                         (default 64; beyond it requests are rejected
                         with a retry-after hint)
  --per-client N         per-client fairness cap on queued-or-running
                         requests (default 8)
  --default-deadline-ms N  deadline when the client sends none
                         (default 10000)
  --max-deadline-ms N    server-side cap on client deadlines
                         (default 60000)
  --retries N            per-cell simulation retries (default 2)
  --faults SPEC          arm fault injection (also SRAPS_FAULTS); adds
                         service kinds accept-fail, slow-worker%R:MS,
                         drop-conn alongside the cell kinds
  --trace-out PATH       write a chrome trace at drain
  --quiet                suppress per-drain chatter on stderr
  -h, --help             this help
";

const QUERY_USAGE: &str = "\
usage: sraps query --addr HOST:PORT [options]

Send what-if queries (or health probes) to a running `sraps serve`
daemon and print each NDJSON response. Dropped connections and
'rejected' responses are retried with the server's backoff hint.

  --addr HOST:PORT       daemon address (required)
  --op OP                query | stats | ping (default query)
  --scenario NAME        scenario to query (required for op=query)
  --policy P             scheduling policy delta (default fcfs)
  --backfill B           backfill delta (default none)
  --power-cap KW         facility power-cap delta
  --cap-at DUR           cap-switch offset (with --power-cap)
  --deadline-ms N        per-request deadline (server-capped)
  --client ID            fairness bucket (default: peer IP)
  --count N              repeat the request N times (default 1)
  --retries N            reconnect/rejection retries (default 5)
  --assert-p50-ms F      exit nonzero unless the client-measured p50
                         latency of the ok responses is <= F ms
  --quiet                print only the summary and the last response
  -h, --help             this help
";

pub fn serve_command(argv: &[String]) -> Result<(), String> {
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{SERVE_USAGE}");
        return Ok(());
    }
    let (cfg, faults_spec) = parse_serve_args(argv)?;
    let result = with_faults(faults_spec.as_deref(), || {
        observed(false, cfg.trace_out.is_some(), || serve(cfg))
    })?;
    result.map_err(|e| e.to_string())
}

/// The daemon's config, scenarios registered, and its `--faults` spec.
fn parse_serve_args(argv: &[String]) -> Result<(ServeConfig, Option<String>), String> {
    let mut cfg = ServeConfig::default();
    let mut systems = vec!["lassen".to_string()];
    let mut loads = vec![0.8f64];
    let mut seed = 42u64;
    let mut seed_count = 1u64;
    let mut span = sraps_types::SimDuration::days(1);
    let mut scale = 1.0f64;
    let mut cache_dir: Option<PathBuf> = None;
    let mut faults_spec: Option<String> = None;
    let mut args = Argv::new(argv);
    while let Some(flag) = args.flag() {
        match flag {
            "--addr" => cfg.addr = args.value()?,
            "--systems" => systems = args.list(text)?,
            "--loads" => loads = args.list(offered_load)?,
            "--seed" => seed = args.num()?,
            "--seeds" => seed_count = args.num()?,
            "--span" => span = args.positive_duration()?,
            "--scale" => scale = args.positive()?,
            "--cache-dir" => cache_dir = Some(args.value()?.into()),
            "--workers" => cfg.workers = args.num()?,
            "--max-pending" => cfg.max_pending = args.num()?,
            "--per-client" => cfg.per_client = args.num()?,
            "--default-deadline-ms" => cfg.default_deadline = Duration::from_millis(args.num()?),
            "--max-deadline-ms" => cfg.max_deadline = Duration::from_millis(args.num()?),
            "--retries" => cfg.retries = args.num()?,
            "--faults" => {
                let spec = args.value()?;
                FaultPlan::parse(&spec)?;
                faults_spec = Some(spec);
            }
            "--trace-out" => cfg.trace_out = Some(args.value()?.into()),
            "--quiet" => cfg.quiet = true,
            other => return Err(format!("unknown argument '{other}'\n\n{SERVE_USAGE}")),
        }
    }
    if cfg.workers == 0 {
        return Err("--workers must be >= 1".into());
    }
    cfg.cache_dir = cache_dir
        .or_else(CellCache::env_dir)
        .ok_or("serve needs --cache-dir (or SRAPS_CACHE_DIR)")?;

    // Scenario registration goes through the sweep's own matrix
    // expansion, so labels, validation, and workload fingerprints cannot
    // drift between `sraps sweep` and the daemon.
    let matrix = ExperimentMatrix::synthetic(systems.iter().map(String::as_str))
        .loads(loads.iter().copied())
        .seed_count_from(seed, seed_count)
        .span(span)
        .scale(scale)
        .policies(["fcfs"]);
    let (plans, _cells) = matrix.expand().map_err(|e| e.to_string())?;
    cfg.plans = plans;
    Ok((cfg, faults_spec))
}

#[derive(Debug)]
struct QueryArgs {
    addr: String,
    req: Request,
    count: usize,
    retries: u32,
    assert_p50_ms: Option<f64>,
    quiet: bool,
}

fn parse_query_args(argv: &[String]) -> Result<QueryArgs, String> {
    let mut a = QueryArgs {
        addr: String::new(),
        req: Request::default(),
        count: 1,
        retries: 5,
        assert_p50_ms: None,
        quiet: false,
    };
    let mut args = Argv::new(argv);
    while let Some(flag) = args.flag() {
        match flag {
            "--addr" => a.addr = args.value()?,
            "--op" => a.req.op = Some(args.value()?),
            "--scenario" => a.req.scenario = Some(args.value()?),
            "--policy" => a.req.policy = Some(args.value()?),
            "--backfill" => a.req.backfill = Some(args.value()?),
            "--power-cap" => a.req.power_cap_kw = Some(args.positive()?),
            "--cap-at" => a.req.cap_at_s = Some(args.duration()?.as_secs()),
            "--deadline-ms" => a.req.deadline_ms = Some(args.num()?),
            "--client" => a.req.client = Some(args.value()?),
            "--count" => a.count = args.num()?,
            "--retries" => a.retries = args.num()?,
            "--assert-p50-ms" => a.assert_p50_ms = Some(args.num()?),
            "--quiet" => a.quiet = true,
            other => return Err(format!("unknown argument '{other}'\n\n{QUERY_USAGE}")),
        }
    }
    if a.addr.is_empty() {
        return Err(format!("--addr is required\n\n{QUERY_USAGE}"));
    }
    if a.req.op.as_deref().unwrap_or("query") == "query" && a.req.scenario.is_none() {
        return Err(format!("op=query needs --scenario\n\n{QUERY_USAGE}"));
    }
    if a.count == 0 {
        return Err("--count must be >= 1".into());
    }
    Ok(a)
}

/// A client connection that lazily (re)connects — dropped connections
/// (the daemon's `drop-conn` fault, a restart) are survived by retrying
/// the idempotent request on a fresh socket.
struct Client {
    addr: String,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Client {
    fn connect(&mut self) -> Result<&mut (BufReader<TcpStream>, TcpStream), String> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| format!("connect {}: {e}", self.addr))?;
            // One-line exchanges: NODELAY, or Nagle + delayed ACK puts
            // ~40 ms under every warm-latency measurement.
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(Duration::from_secs(120)))
                .map_err(|e| format!("set timeout: {e}"))?;
            let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
            self.conn = Some((reader, stream));
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// One request/response exchange; `Ok(None)` means the connection
    /// died mid-exchange (caller reconnects and retries).
    fn exchange(&mut self, line: &str) -> Result<Option<String>, String> {
        let (reader, writer) = self.connect()?;
        let sent = writer
            .write_all(line.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush());
        if sent.is_err() {
            self.conn = None;
            return Ok(None);
        }
        let mut resp = String::new();
        match reader.read_line(&mut resp) {
            Ok(0) | Err(_) => {
                self.conn = None;
                Ok(None)
            }
            Ok(_) => Ok(Some(resp.trim_end().to_string())),
        }
    }
}

pub fn query_command(argv: &[String]) -> Result<(), String> {
    if argv.iter().any(|a| a == "-h" || a == "--help") {
        println!("{QUERY_USAGE}");
        return Ok(());
    }
    let a = parse_query_args(argv)?;
    let mut client = Client {
        addr: a.addr.clone(),
        conn: None,
    };
    let line = serde_json::to_string(&a.req).map_err(|e| format!("encode request: {e}"))?;
    let mut ok_latencies_us: Vec<u64> = Vec::with_capacity(a.count);
    let mut bad = 0usize;
    let mut last = String::new();
    for n in 0..a.count {
        let mut budget = a.retries;
        let resp_line = loop {
            let t0 = Instant::now();
            match client.exchange(&line)? {
                Some(text) => {
                    let resp: Response = serde_json::from_str(&text)
                        .map_err(|e| format!("bad response '{text}': {e}"))?;
                    if resp.status == "rejected" {
                        if budget == 0 {
                            break (text, None);
                        }
                        budget -= 1;
                        let wait = resp.retry_after_ms.unwrap_or(25);
                        std::thread::sleep(Duration::from_millis(wait));
                        continue;
                    }
                    let us = t0.elapsed().as_micros() as u64;
                    let good = matches!(resp.status.as_str(), "ok" | "pong" | "stats");
                    break (text, good.then_some(us));
                }
                None => {
                    // Connection dropped mid-exchange; the request is
                    // idempotent, so reconnect and resend.
                    if budget == 0 {
                        return Err(format!("connection to {} kept dropping", a.addr));
                    }
                    budget -= 1;
                    std::thread::sleep(Duration::from_millis(25));
                }
            }
        };
        let (text, latency) = resp_line;
        match latency {
            Some(us) => ok_latencies_us.push(us),
            None => bad += 1,
        }
        if !a.quiet || n + 1 == a.count {
            println!("{text}");
        }
        last = text;
    }
    let summary_needed = a.count > 1 || a.assert_p50_ms.is_some();
    if summary_needed {
        let p50_us = percentile_us(&mut ok_latencies_us);
        eprintln!(
            "query: {} ok, {} other, p50 {:.3} ms",
            ok_latencies_us.len(),
            bad,
            p50_us as f64 / 1000.0
        );
        if let Some(limit) = a.assert_p50_ms {
            if ok_latencies_us.is_empty() {
                return Err("assert-p50-ms: no successful responses".into());
            }
            let p50_ms = p50_us as f64 / 1000.0;
            if p50_ms > limit {
                return Err(format!("p50 {p50_ms:.3} ms exceeds budget {limit} ms"));
            }
        }
    }
    if bad > 0 {
        return Err(format!("{bad} request(s) did not succeed; last: {last}"));
    }
    Ok(())
}

fn percentile_us(latencies: &mut [u64]) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    latencies.sort_unstable();
    latencies[latencies.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn query_args_parse_and_validate() {
        let a = parse_query_args(&args(&[
            "--addr",
            "127.0.0.1:7777",
            "--scenario",
            "lassen",
            "--policy",
            "sjf",
            "--backfill",
            "easy",
            "--power-cap",
            "20000",
            "--cap-at",
            "1h",
            "--deadline-ms",
            "2500",
            "--count",
            "3",
            "--assert-p50-ms",
            "5",
        ]))
        .unwrap();
        assert_eq!(a.addr, "127.0.0.1:7777");
        assert_eq!(a.req.scenario.as_deref(), Some("lassen"));
        assert_eq!(a.req.policy.as_deref(), Some("sjf"));
        assert_eq!(a.req.cap_at_s, Some(3600));
        assert_eq!(a.req.deadline_ms, Some(2500));
        assert_eq!(a.count, 3);
        assert_eq!(a.assert_p50_ms, Some(5.0));
    }

    #[test]
    fn malformed_values_name_their_flag() {
        let query = ["--addr", "h:1", "--scenario", "lassen"];
        for v in ["nan", "inf", "0", "-5"] {
            let err = parse_query_args(&args(&[&query[..], &["--power-cap", v]].concat()));
            assert!(err.unwrap_err().contains("bad --power-cap value"), "{v}");
        }
        let err = parse_query_args(&args(&[&query[..], &["--cap-at", "-1h"]].concat()));
        assert!(err.unwrap_err().contains("bad --cap-at value"));

        for (flag, v) in [
            ("--loads", "nan"),
            ("--loads", "0"),
            ("--loads", "1e6"),
            ("--scale", "-3"),
            ("--scale", "nan"),
            ("--span", "0"),
        ] {
            let err = parse_serve_args(&args(&["--cache-dir", "c", flag, v])).unwrap_err();
            assert!(
                err.contains(&format!("bad {flag} value")),
                "{flag} {v}: {err}"
            );
        }
    }

    #[test]
    fn query_requires_addr_and_scenario() {
        assert!(parse_query_args(&args(&["--scenario", "x"]))
            .unwrap_err()
            .contains("--addr"));
        assert!(parse_query_args(&args(&["--addr", "h:1"]))
            .unwrap_err()
            .contains("--scenario"));
        // stats/ping probes need no scenario.
        assert!(parse_query_args(&args(&["--addr", "h:1", "--op", "stats"])).is_ok());
    }

    #[test]
    fn percentile_is_the_sorted_midpoint() {
        assert_eq!(percentile_us(&mut []), 0);
        assert_eq!(percentile_us(&mut [7]), 7);
        assert_eq!(percentile_us(&mut [9, 1, 5]), 5);
        assert_eq!(percentile_us(&mut [4, 3, 2, 1]), 3);
    }
}
