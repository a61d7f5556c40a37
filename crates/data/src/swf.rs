//! Standard Workload Format (SWF) import/export \[13\].
//!
//! SWF is the lingua franca of scheduling simulators; §3.2.2 names it as
//! the reference for what a dataloader must extract. Supporting it means
//! any user can bring their own trace without writing a loader.
//!
//! Fields (whitespace-separated, `;` comments):
//! `job_id submit wait runtime procs avg_cpu mem req_procs req_time req_mem
//!  status user group app queue partition prev_job think_time`

use crate::dataset::Dataset;
use sraps_types::job::JobBuilder;
use sraps_types::{Job, Result, SimDuration, SimTime, SrapsError};

/// Parse SWF text into a dataset. `nodes_per_proc` converts processor
/// counts to node counts (1 for per-node traces).
pub fn parse_swf(name: &str, text: &str, procs_per_node: u32) -> Result<Dataset> {
    let ppn = procs_per_node.max(1);
    let mut jobs: Vec<Job> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 18 {
            return Err(SrapsError::Data(format!(
                "swf line {}: expected 18 fields, got {}",
                lineno + 1,
                f.len()
            )));
        }
        let num = |i: usize| -> Result<i64> {
            f[i].parse::<f64>()
                .map(|v| v as i64)
                .map_err(|e| SrapsError::Data(format!("swf line {}: field {i}: {e}", lineno + 1)))
        };
        let job_id = num(0)? as u64;
        let submit = num(1)?;
        let wait = num(2)?.max(0);
        let runtime = num(3)?.max(0);
        let procs = num(4)?.max(1) as u32;
        let req_procs = num(7)?;
        let req_time = num(8)?;
        let user = num(11)?.max(0) as u32;
        let group = num(12)?.max(0) as u32;

        let nodes = procs
            .max(if req_procs > 0 { req_procs as u32 } else { 1 })
            .div_ceil(ppn);
        let start = submit + wait;
        let walltime = if req_time > 0 { req_time } else { runtime };
        jobs.push(
            JobBuilder::new(job_id)
                .user(user)
                .account(group)
                .submit(SimTime::seconds(submit))
                .window(SimTime::seconds(start), SimTime::seconds(start + runtime))
                .walltime(SimDuration::seconds(walltime))
                .nodes(nodes.max(1))
                .build(),
        );
    }
    Ok(Dataset::new(name, jobs))
}

/// Render a dataset as SWF text (lossy: power telemetry has no SWF field).
pub fn to_swf(ds: &Dataset, procs_per_node: u32) -> String {
    let mut out = String::with_capacity(ds.len() * 64 + 128);
    out.push_str("; generated by sraps\n");
    out.push_str(&format!("; system: {}\n", ds.system));
    for j in ds.jobs() {
        let wait = (j.recorded_start - j.submit).clamp_non_negative().as_secs();
        let runtime = j.duration().as_secs();
        let procs = j.nodes_requested * procs_per_node;
        out.push_str(&format!(
            "{} {} {} {} {} -1 -1 {} {} -1 1 {} {} -1 -1 -1 -1 -1\n",
            j.id.0,
            j.submit.as_secs(),
            wait,
            runtime,
            procs,
            procs,
            j.walltime_limit.as_secs(),
            j.user.0,
            j.account.0,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
; comment line
1 0 10 100 4 -1 -1 4 200 -1 1 7 3 -1 -1 -1 -1 -1
2 50 0 60 8 -1 -1 8 -1 -1 1 8 3 -1 -1 -1 -1 -1
";

    #[test]
    fn parse_basic_fields() {
        let ds = parse_swf("t", SAMPLE, 1).unwrap();
        assert_eq!(ds.len(), 2);
        let j = &ds.jobs()[0];
        assert_eq!(j.id.0, 1);
        assert_eq!(j.submit, SimTime::seconds(0));
        assert_eq!(j.recorded_start, SimTime::seconds(10));
        assert_eq!(j.recorded_end, SimTime::seconds(110));
        assert_eq!(j.nodes_requested, 4);
        assert_eq!(j.walltime_limit, SimDuration::seconds(200));
        assert_eq!(j.user.0, 7);
        assert_eq!(j.account.0, 3);
    }

    #[test]
    fn missing_req_time_falls_back_to_runtime() {
        let ds = parse_swf("t", SAMPLE, 1).unwrap();
        assert_eq!(ds.jobs()[1].walltime_limit, SimDuration::seconds(60));
    }

    #[test]
    fn procs_per_node_conversion_rounds_up() {
        let ds = parse_swf("t", "1 0 0 10 9 -1 -1 9 10 -1 1 0 0 -1 -1 -1 -1 -1\n", 4).unwrap();
        assert_eq!(ds.jobs()[0].nodes_requested, 3, "9 procs on 4-proc nodes");
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(parse_swf("t", "1 2 3\n", 1).is_err());
        assert!(parse_swf("t", "a b c d e f g h i j k l m n o p q r\n", 1).is_err());
    }

    #[test]
    fn roundtrip_preserves_schedule() {
        let ds = parse_swf("t", SAMPLE, 1).unwrap();
        let text = to_swf(&ds, 1);
        let ds2 = parse_swf("t", &text, 1).unwrap();
        assert_eq!(ds.len(), ds2.len());
        for (a, b) in ds.jobs().iter().zip(ds2.jobs()) {
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.recorded_start, b.recorded_start);
            assert_eq!(a.recorded_end, b.recorded_end);
            assert_eq!(a.nodes_requested, b.nodes_requested);
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let ds = parse_swf("t", "\n; x\n\n", 1).unwrap();
        assert!(ds.is_empty());
    }
}
