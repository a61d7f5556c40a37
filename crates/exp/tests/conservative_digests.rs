//! Conservative backfill on a saturated machine, pinned by digest. On an
//! adastra day at offered load 1.3 the queue grows to hundreds of jobs,
//! and the conservative planner stops deep in it: it plans only as far
//! as a job could still start now or before the earliest future
//! reservation. A planner that stops one job too early changes a
//! placement or a decision time, and with it a digest here. The engine
//! parity suite cannot see such a change, because both engine cores
//! share the planner.
//!
//! The runs: fcfs and sjf, uncapped and under a 300 kW cap that defers
//! thousands of proposals over the day. Each run's job outcomes and power
//! and utilization histories fold into one [`Fingerprinter`] digest,
//! salted with `ENGINE_SCHEMA_VERSION`: bumping it re-takes these values,
//! and nothing else may change them.

use sraps_core::{Fingerprinter, SimOutput};
use sraps_exp::{ExperimentMatrix, SweepRunner};
use sraps_types::SimDuration;

/// Digest of what a run reports: outcomes, then the two histories.
fn digest(out: &SimOutput) -> String {
    let mut fp = Fingerprinter::new();
    fp.write_debug(&out.outcomes);
    fp.write_debug(&out.power);
    fp.write_debug(&out.utilization);
    fp.finish().hex()
}

#[test]
fn saturated_adastra_day_conservative() {
    let matrix = ExperimentMatrix::synthetic(["adastra"])
        .span(SimDuration::days(1))
        .loads([1.3])
        .policies(["fcfs", "sjf"])
        .backfills(["conservative"])
        .power_caps_kw([None, Some(300.0)]);
    let results = SweepRunner::new(1).run(&matrix).expect("sweep runs");
    let actual: Vec<(String, String)> = results
        .cells
        .iter()
        .map(|c| {
            let cap = c
                .spec
                .power_cap_kw
                .map_or("none".into(), |kw| kw.to_string());
            let key = format!("{}/{cap}", c.spec.policy);
            (
                key,
                digest(c.output.as_ref().expect("uncached run keeps output")),
            )
        })
        .collect();
    let golden = [
        ("fcfs/none", "1a503e6390c8fa8337f00f0069cc2a56"),
        ("fcfs/300", "05d8bb2da67b192cc6b668e4afe94a26"),
        ("sjf/none", "d7278ab4167a99da6a7b4aa4500dfe0e"),
        ("sjf/300", "54d5d6b49089042942745312bcd4d736"),
    ];
    let expected: Vec<(String, String)> = golden
        .iter()
        .map(|&(k, d)| (k.to_string(), d.to_string()))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(k, d)| format!("        (\"{k}\", \"{d}\"),\n"))
            .collect();
        panic!("digests differ; actual:\n{table}");
    }
}
