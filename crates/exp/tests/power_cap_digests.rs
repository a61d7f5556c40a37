//! Binding power caps, pinned by digest. Under a cap that binds, the
//! power-cap wrapper defers most of what its inner policy proposes, so
//! once its cap is on every run below takes the deferral path over and
//! over.
//! Each cell's job outcomes and power and utilization histories are
//! folded into one [`Fingerprinter`] digest and compared to a golden
//! value; a change to how deferred placements are handled shows up as a
//! digest mismatch even when every coarser test still passes.
//!
//! The grid: 20 and 60 kW caps on 2 h and 1 d lassen workloads (load
//! 0.7); fcfs and sjf; none, first-fit, EASY and conservative backfill;
//! the cap bound from the start, or switched in halfway through the
//! window through [`SweepRunner`]'s late-cap fork (the two capped cells
//! of each pair share one uncapped prefix). A [`Fingerprinter`] is
//! salted with `ENGINE_SCHEMA_VERSION`, so bumping it re-takes these
//! values; nothing else may change them.
//!
//! The other end of the range is pinned too: a cap above the sum of the
//! window's estimates never binds, so it must leave every digest equal
//! to the uncapped run's.

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

/// Run fcfs and sjf with each of `backfills` under 20 and 60 kW caps on
/// a `hours`-long lassen workload, capped from the start or, with
/// `late`, from halfway through; every cell's digest must equal its
/// `golden` entry (keyed `policy/backfill/cap`).
fn check(hours: i64, late: bool, backfills: &[&str], golden: &[(&str, &str)]) {
    let mut matrix = ExperimentMatrix::synthetic(["lassen"])
        .span(SimDuration::hours(hours))
        .loads([0.7])
        .policies(["fcfs", "sjf"])
        .backfills(backfills.iter().copied())
        .power_caps_kw([Some(20.0), Some(60.0)]);
    if late {
        matrix = matrix.power_cap_at(SimDuration::hours(hours / 2));
    }
    let results = SweepRunner::new(1).run(&matrix).expect("sweep runs");
    let expected_groups = if late { 2 * backfills.len() } else { 0 };
    assert_eq!(results.prefix_groups, expected_groups, "late-cap forks");
    let actual: Vec<(String, String)> = results
        .cells
        .iter()
        .map(|c| {
            let cap = c.spec.power_cap_kw.expect("every cell is capped");
            let key = format!("{}/{}/{cap}", c.spec.policy, c.spec.backfill);
            (
                key,
                digest(c.output.as_ref().expect("uncached run keeps output")),
            )
        })
        .collect();
    let expected: Vec<(String, String)> = golden
        .iter()
        .map(|&(k, d)| (k.to_string(), d.to_string()))
        .collect();
    if actual != expected {
        let table: String = actual
            .iter()
            .map(|(k, d)| format!("        (\"{k}\", \"{d}\"),\n"))
            .collect();
        panic!("{hours} h, late cap {late}: digests differ; actual:\n{table}");
    }
}

#[test]
fn two_hours_capped_from_start() {
    check(
        2,
        false,
        &["none", "firstfit", "easy", "conservative"],
        &[
            ("fcfs/none/20", "506509614b82bc343f7049ad315dba21"),
            ("fcfs/none/60", "fcae213c9f29047b92d5b5f94401c49f"),
            ("fcfs/firstfit/20", "506509614b82bc343f7049ad315dba21"),
            ("fcfs/firstfit/60", "fcae213c9f29047b92d5b5f94401c49f"),
            ("fcfs/easy/20", "506509614b82bc343f7049ad315dba21"),
            ("fcfs/easy/60", "fcae213c9f29047b92d5b5f94401c49f"),
            ("fcfs/conservative/20", "506509614b82bc343f7049ad315dba21"),
            ("fcfs/conservative/60", "fcae213c9f29047b92d5b5f94401c49f"),
            ("sjf/none/20", "cde757f5a0cec992b15941906f4b83e0"),
            ("sjf/none/60", "7683ef185b57fb79b16daed53304a41b"),
            ("sjf/firstfit/20", "cde757f5a0cec992b15941906f4b83e0"),
            ("sjf/firstfit/60", "7683ef185b57fb79b16daed53304a41b"),
            ("sjf/easy/20", "cde757f5a0cec992b15941906f4b83e0"),
            ("sjf/easy/60", "7683ef185b57fb79b16daed53304a41b"),
            ("sjf/conservative/20", "cde757f5a0cec992b15941906f4b83e0"),
            ("sjf/conservative/60", "7683ef185b57fb79b16daed53304a41b"),
        ],
    );
}

#[test]
fn two_hours_capped_halfway() {
    check(
        2,
        true,
        &["none", "firstfit", "easy", "conservative"],
        &[
            ("fcfs/none/20", "6ffe6b5eb736b076e5966b809eddf906"),
            ("fcfs/none/60", "30ba09a1ad809261d6cce0eabb6fbb4b"),
            ("fcfs/firstfit/20", "6ffe6b5eb736b076e5966b809eddf906"),
            ("fcfs/firstfit/60", "30ba09a1ad809261d6cce0eabb6fbb4b"),
            ("fcfs/easy/20", "6ffe6b5eb736b076e5966b809eddf906"),
            ("fcfs/easy/60", "30ba09a1ad809261d6cce0eabb6fbb4b"),
            ("fcfs/conservative/20", "6ffe6b5eb736b076e5966b809eddf906"),
            ("fcfs/conservative/60", "30ba09a1ad809261d6cce0eabb6fbb4b"),
            ("sjf/none/20", "68c83a3bce9c51fd8036e3662fba3c7a"),
            ("sjf/none/60", "3ea41096bd4a52f6a66ab46390ae6744"),
            ("sjf/firstfit/20", "68c83a3bce9c51fd8036e3662fba3c7a"),
            ("sjf/firstfit/60", "3ea41096bd4a52f6a66ab46390ae6744"),
            ("sjf/easy/20", "68c83a3bce9c51fd8036e3662fba3c7a"),
            ("sjf/easy/60", "3ea41096bd4a52f6a66ab46390ae6744"),
            ("sjf/conservative/20", "68c83a3bce9c51fd8036e3662fba3c7a"),
            ("sjf/conservative/60", "3ea41096bd4a52f6a66ab46390ae6744"),
        ],
    );
}

#[test]
fn one_day_capped_from_start_event_bound() {
    check(
        24,
        false,
        &["none", "firstfit", "easy"],
        &[
            ("fcfs/none/20", "6598d1bacf6e0ec8658403187729e98e"),
            ("fcfs/none/60", "59986c973aa5f73200bca9aa5796cb62"),
            ("fcfs/firstfit/20", "34875b0dad77afff147686d779ab4fde"),
            ("fcfs/firstfit/60", "c5935acdcc0a7d13855fb2f0b3911904"),
            ("fcfs/easy/20", "cbbe86a2b96e6c67efbe1d14bbad92e7"),
            ("fcfs/easy/60", "632ebf53c654463c00f3f32f3f227474"),
            ("sjf/none/20", "e632ac8975f1a67272cd9550cb36b555"),
            ("sjf/none/60", "d86fa55b6f3acc23bb5ee2d2433f8cdc"),
            ("sjf/firstfit/20", "11fd0e8a9544301f3b2029588fdc1c45"),
            ("sjf/firstfit/60", "25ab3ab78890a9e769975a746682e8e4"),
            ("sjf/easy/20", "3894ee317e6c050053a077310fa64a66"),
            ("sjf/easy/60", "5ae0d1772ff7f6ec486fb0eccce9d8c1"),
        ],
    );
}

#[test]
fn one_day_capped_from_start_conservative() {
    check(
        24,
        false,
        &["conservative"],
        &[
            ("fcfs/conservative/20", "5db10a64c9ae1d5468e73c2ee207e001"),
            ("fcfs/conservative/60", "fddd387d277556942ab102f4d5b6a7b1"),
            ("sjf/conservative/20", "27f008cf8ebf4ab11eb2d5262d32e18f"),
            ("sjf/conservative/60", "aeb48e43899a86fd710fbe861f00a55d"),
        ],
    );
}

#[test]
fn one_day_capped_halfway_event_bound() {
    check(
        24,
        true,
        &["none", "firstfit", "easy"],
        &[
            ("fcfs/none/20", "dad12708bc036269f6b94f82f20c32e8"),
            ("fcfs/none/60", "d9ce507a073310b9500678895c83e9bf"),
            ("fcfs/firstfit/20", "1df7e864cf7da9a79422170f30b26fb9"),
            ("fcfs/firstfit/60", "632799d537383f67e9274b475df2fc56"),
            ("fcfs/easy/20", "1df7e864cf7da9a79422170f30b26fb9"),
            ("fcfs/easy/60", "3b707dd83642c0a282d0a838a9874768"),
            ("sjf/none/20", "0f4bf43c314dd141061d4eeea76adf60"),
            ("sjf/none/60", "04382e539894a4939f2ab4c51cf19f26"),
            ("sjf/firstfit/20", "24b26d8058bfc6c709ebef562fdcb41b"),
            ("sjf/firstfit/60", "942b94a9e5e469c66efc69d3d2e57230"),
            ("sjf/easy/20", "f1212128ccf0c9b01ad45ac984e646c9"),
            ("sjf/easy/60", "9afd478c09c6bb130e9c307fa15c07ff"),
        ],
    );
}

#[test]
fn one_day_capped_halfway_conservative() {
    check(
        24,
        true,
        &["conservative"],
        &[
            ("fcfs/conservative/20", "4b2d803b0c2f7bdfdfc3528c7c0d5fc1"),
            ("fcfs/conservative/60", "fececf7f1630cdb41e5f649319068aa1"),
            ("sjf/conservative/20", "4dcdcdde99e39ff0f4707f93179bff99"),
            ("sjf/conservative/60", "6eaf4a0748cbc6edc03a07846228ee34"),
        ],
    );
}

#[test]
fn one_day_cap_above_every_estimate_is_invisible() {
    const CAP_KW: f64 = 100_000.0;
    let matrix = ExperimentMatrix::synthetic(["lassen"])
        .span(SimDuration::hours(24))
        .loads([0.7])
        .policies(["fcfs"])
        .backfills(["none", "firstfit", "easy", "conservative"])
        .power_caps_kw([None, Some(CAP_KW)]);
    // The engine's estimate table, recomputed: each in-window job's mean
    // recorded node power times its width.
    let (plans, _) = matrix.expand().expect("matrix expands");
    let workload = plans[0].materialize().expect("workload builds");
    let (start, end) = workload.dataset.resolve_window(None, None);
    let total_kw: f64 = workload
        .dataset
        .jobs_in_window(start, end)
        .map(|j| {
            let node_kw = j
                .telemetry
                .node_power_w
                .as_ref()
                .map_or(0.0, |t| t.mean() as f64 / 1000.0);
            node_kw * j.nodes_requested as f64
        })
        .sum();
    assert!(
        total_kw < CAP_KW,
        "the day's estimates sum to {total_kw} kW"
    );

    let results = SweepRunner::new(1).run(&matrix).expect("sweep runs");
    let mut uncapped = std::collections::HashMap::new();
    for c in &results.cells {
        let d = digest(c.output.as_ref().expect("uncached run keeps output"));
        let key = format!("{}/{}", c.spec.policy, c.spec.backfill);
        match c.spec.power_cap_kw {
            None => {
                uncapped.insert(key, d);
            }
            Some(_) => assert_eq!(Some(&d), uncapped.get(&key), "{key}: the cap showed"),
        }
    }
    assert_eq!(uncapped.len(), 4);
}
