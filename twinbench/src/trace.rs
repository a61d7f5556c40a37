//! Reading the program's own instrumentation: `sraps_obs` profiles
//! captured in process, and the chrome trace `sraps serve --trace-out`
//! writes at drain.

use crate::layers::SelfTimes;
use sraps_obs::{Phase, Profile};
use std::collections::BTreeMap;
use std::io::BufRead;

/// Direct children of each obs phase, as the engine, sweep runner and
/// cache nest their spans. A profile holds totals only, so self time is
/// derived from this nesting; the daemon trace needs no such table.
const CHILDREN: [(&str, &[&str]); 3] = [
    (
        "engine.run",
        &[
            "engine.events",
            "engine.scheduler",
            "engine.horizon",
            "engine.physics",
            "engine.finalize",
        ],
    ),
    ("engine.scheduler", &["sched.schedule"]),
    ("sweep.cell", &["cache.read", "engine.run", "cache.write"]),
];

fn total_ms(p: &Profile, name: &str) -> f64 {
    p.phase(name).map_or(0.0, |s| s.total_ns as f64 / 1e6)
}

/// Self time of every phase in `p`, divided by `per` operations.
pub fn profile_self_times(p: &Profile, per: f64) -> SelfTimes {
    let mut st = SelfTimes::new();
    for phase in &p.phases {
        if phase.name == "sweep.run" {
            continue; // the operation itself, measured from outside
        }
        let children: f64 = CHILDREN
            .iter()
            .find(|(parent, _)| *parent == phase.name)
            .map_or(0.0, |(_, kids)| kids.iter().map(|k| total_ms(p, k)).sum());
        let self_ms = phase.total_ns as f64 / 1e6 - children;
        st.add(&phase.name, phase.calls as f64 / per, self_ms / per);
    }
    st
}

/// One closed span of the daemon trace.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Duration minus the spans nested directly inside it.
    pub self_us: f64,
    pub depth: usize,
}

/// Spans per thread id, in the order they closed.
pub type Threads = BTreeMap<u64, Vec<SpanRec>>;

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest.find([',', '}'])?;
    Some(rest[..end].trim_matches('"'))
}

/// Parse the one-event-per-line chrome trace `sraps_obs::write_trace`
/// produces into closed spans per thread, streaming (a traced daemon
/// writes hundreds of megabytes). Span names must be `sraps_obs` phases;
/// an unknown name or an unmatched `E` is an error.
pub fn parse_chrome_trace(input: impl BufRead) -> Result<Threads, String> {
    struct Open {
        name: &'static str,
        start_us: f64,
        child_us: f64,
    }
    let mut stacks: BTreeMap<u64, Vec<Open>> = BTreeMap::new();
    let mut threads = Threads::new();
    for line in input.lines() {
        let line = line.map_err(|e| format!("read trace: {e}"))?;
        if !line.contains("\"ph\"") {
            continue;
        }
        let bad = || format!("malformed trace line: {line}");
        let name = field(&line, "\"name\":").ok_or_else(bad)?;
        let name = Phase::ALL
            .iter()
            .map(|p| p.name())
            .find(|n| *n == name)
            .ok_or_else(bad)?;
        let ph = field(&line, "\"ph\":").ok_or_else(bad)?;
        let ts: f64 = field(&line, "\"ts\":")
            .and_then(|v| v.parse().ok())
            .ok_or_else(bad)?;
        let tid: u64 = field(&line, "\"tid\":")
            .and_then(|v| v.parse().ok())
            .ok_or_else(bad)?;
        let stack = stacks.entry(tid).or_default();
        match ph {
            "B" => stack.push(Open {
                name,
                start_us: ts,
                child_us: 0.0,
            }),
            "E" => {
                let open = stack.pop().filter(|o| o.name == name).ok_or_else(bad)?;
                let dur = ts - open.start_us;
                if let Some(parent) = stack.last_mut() {
                    parent.child_us += dur;
                }
                threads.entry(tid).or_default().push(SpanRec {
                    name: open.name,
                    start_us: open.start_us,
                    end_us: ts,
                    self_us: dur - open.child_us,
                    depth: stack.len(),
                });
            }
            _ => {}
        }
    }
    Ok(threads)
}

/// Self time per span name over `spans` whose start lies in
/// `[from_us, to_us]`: name → (calls, self µs).
pub fn self_by_name(
    spans: &[SpanRec],
    from_us: f64,
    to_us: f64,
) -> BTreeMap<&'static str, (f64, f64)> {
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for s in spans
        .iter()
        .filter(|s| s.start_us >= from_us && s.start_us <= to_us)
    {
        let e = out.entry(s.name).or_default();
        e.0 += 1.0;
        e.1 += s.self_us;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_get_self_time() {
        let text = r#"{"traceEvents":[
{"name":"engine.run","ph":"B","ts":0.000,"pid":1,"tid":2},
{"name":"engine.events","ph":"B","ts":1.000,"pid":1,"tid":2},
{"name":"engine.events","ph":"E","ts":4.000,"pid":1,"tid":2},
{"name":"engine.run","ph":"E","ts":10.000,"pid":1,"tid":2}
]}"#;
        let t = parse_chrome_trace(text.as_bytes()).unwrap();
        let spans = &t[&2];
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "engine.events");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[1].self_us, 7.0);
        let unmatched = r#"{"name":"engine.run","ph":"E","ts":1,"pid":1,"tid":1}"#;
        assert!(parse_chrome_trace(unmatched.as_bytes()).is_err());
        let unknown = r#"{"name":"x","ph":"B","ts":1,"pid":1,"tid":1}"#;
        assert!(parse_chrome_trace(unknown.as_bytes()).is_err());
    }
}
