//! Built-in scheduling policies: the `--policy` option.

use crate::queue::{JobQueue, QueuedJob};
use crate::scheduler::SchedContext;
use serde::{Deserialize, Serialize};
use sraps_types::AccountId;

/// Which built-in policy orders the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Replay the recorded schedule (the original RAPS mechanism).
    Replay,
    /// First-come, first-served by submission time.
    Fcfs,
    /// Shortest job first, by runtime estimate.
    Sjf,
    /// Largest job first, by node count.
    Ljf,
    /// Dataset/site priority, descending.
    Priority,
    /// Priority with wait-time aging (Slurm's age factor): effective
    /// priority = site priority + hours waited. Prevents the starvation
    /// plain priority + first-fit shows on the Fig 6 giants.
    PriorityAging,
    /// Account's trailing average power, highest first (§4.3).
    AcctAvgPower,
    /// Account's trailing average power, lowest first (§4.3).
    AcctLowAvgPower,
    /// Account's mean EDP, lowest (most efficient) first (§4.3).
    AcctEdp,
    /// Account's mean ED²P, lowest first (§4.3).
    AcctEd2p,
    /// Account's Fugaku points, highest first (\[37\], §4.3).
    AcctFugakuPts,
    /// ML score from the inference pipeline, best (highest) first (§4.4).
    Ml,
}

impl PolicyKind {
    /// Parse a `--policy` string (artifact names accepted).
    pub fn parse(s: &str) -> Option<PolicyKind> {
        Some(match s {
            "replay" => PolicyKind::Replay,
            "fcfs" => PolicyKind::Fcfs,
            "sjf" => PolicyKind::Sjf,
            "ljf" => PolicyKind::Ljf,
            "priority" => PolicyKind::Priority,
            "priority_aging" | "priority-aging" => PolicyKind::PriorityAging,
            "acct_avg_power" => PolicyKind::AcctAvgPower,
            "acct_low_avg_power" => PolicyKind::AcctLowAvgPower,
            "acct_edp" => PolicyKind::AcctEdp,
            "acct_ed2p" => PolicyKind::AcctEd2p,
            "acct_fugaku_pts" => PolicyKind::AcctFugakuPts,
            "ml" => PolicyKind::Ml,
            _ => return None,
        })
    }

    /// CLI name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Replay => "replay",
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::Sjf => "sjf",
            PolicyKind::Ljf => "ljf",
            PolicyKind::Priority => "priority",
            PolicyKind::PriorityAging => "priority_aging",
            PolicyKind::AcctAvgPower => "acct_avg_power",
            PolicyKind::AcctLowAvgPower => "acct_low_avg_power",
            PolicyKind::AcctEdp => "acct_edp",
            PolicyKind::AcctEd2p => "acct_ed2p",
            PolicyKind::AcctFugakuPts => "acct_fugaku_pts",
            PolicyKind::Ml => "ml",
        }
    }

    /// Whether this policy needs account statistics to be meaningful.
    pub fn needs_accounts(self) -> bool {
        matches!(
            self,
            PolicyKind::AcctAvgPower
                | PolicyKind::AcctLowAvgPower
                | PolicyKind::AcctEdp
                | PolicyKind::AcctEd2p
                | PolicyKind::AcctFugakuPts
        )
    }

    /// Whether this policy's sort key can change between queue mutations.
    /// Builtin job-field keys are immutable once the job is queued; only
    /// the account policies read live statistics (which move whenever a
    /// job completes), so their keys are versioned by the scheduler's
    /// completion count.
    pub fn key_is_versioned(self) -> bool {
        self.needs_accounts()
    }

    /// The scheduling sort key for one queued job: ascending key =
    /// schedule first (ties broken by submit time, then id — see
    /// [`JobQueue::sort_by_key_stable`]).
    ///
    /// No key depends on `now`: uniform aging orders by
    /// `submit/3600 − priority` ascending, the same order as
    /// `priority + (now − submit)/3600` descending with every job aging
    /// at the same rate. Keeping `now` out makes the order provably
    /// constant between events (no f64 rounding collapse as waits grow) —
    /// the property the engine's event core relies on to skip no-op
    /// scheduler calls, and the property that lets [`JobQueue`] keep the
    /// order incrementally instead of re-sorting per call.
    pub fn sort_key(self, ctx: &SchedContext<'_>, j: &QueuedJob) -> f64 {
        let acct_key = |account: AccountId, f: &dyn Fn(&sraps_acct::AccountStats) -> f64| -> f64 {
            ctx.accounts
                .and_then(|a| a.get(account))
                .map(f)
                .unwrap_or(0.0)
        };
        match self {
            // Replay order is by recorded start; the replay scheduler also
            // gates placement on reaching that time.
            PolicyKind::Replay => j.recorded_start.as_secs() as f64,
            PolicyKind::Fcfs => j.submit.as_secs() as f64,
            PolicyKind::Sjf => j.estimate.as_secs_f64(),
            PolicyKind::Ljf => -(j.nodes as f64),
            PolicyKind::Priority => -j.priority,
            // Slurm-style uniform aging: effective priority = site
            // priority + hours waited (see the method docs for why `now`
            // cancels out of the key).
            PolicyKind::PriorityAging => j.submit.as_secs_f64() / 3600.0 - j.priority,
            PolicyKind::AcctAvgPower => -acct_key(j.account, &|s| s.avg_node_power_kw),
            PolicyKind::AcctLowAvgPower => acct_key(j.account, &|s| s.avg_node_power_kw),
            PolicyKind::AcctEdp => acct_key(j.account, &|s| s.mean_edp()),
            PolicyKind::AcctEd2p => acct_key(j.account, &|s| s.mean_ed2p()),
            PolicyKind::AcctFugakuPts => -acct_key(j.account, &|s| s.fugaku_points),
            // Higher score = smaller predicted system impact = first.
            PolicyKind::Ml => -j.ml_score.unwrap_or(0.0),
        }
    }

    /// Reorder the queue in place with a full stable sort — the
    /// from-scratch reference. The scheduler hot path uses
    /// [`PolicyKind::order_incremental`], which produces the identical
    /// order.
    pub fn order(self, queue: &mut JobQueue, ctx: &SchedContext<'_>) {
        queue.sort_by_key_stable(|j| self.sort_key(ctx, j));
    }

    /// Establish the policy order incrementally: no-op when the queue is
    /// already in this policy's order at `key_epoch`, binary insertion
    /// for new arrivals, full sort only when the stamp changed.
    /// `key_epoch` versions mutable key sources (account statistics); it
    /// is ignored for policies whose keys are pure job functions.
    pub fn order_incremental(self, queue: &mut JobQueue, ctx: &SchedContext<'_>, key_epoch: u64) {
        let stamp = crate::queue::OrderStamp {
            policy: self,
            key_epoch: if self.key_is_versioned() {
                key_epoch
            } else {
                0
            },
        };
        queue.ensure_order_by(stamp, |j| self.sort_key(ctx, j));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueuedJob;
    use sraps_acct::{Accounts, JobOutcome};
    use sraps_types::{JobId, SimDuration, SimTime, UserId};

    fn qj(id: u64, submit: i64, nodes: u32, est: i64, prio: f64, account: u32) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            account: AccountId(account),
            submit: SimTime::seconds(submit),
            nodes,
            estimate: SimDuration::seconds(est),
            priority: prio,
            ml_score: None,
            recorded_start: SimTime::seconds(submit + 10),
            recorded_nodes: None,
        }
    }

    fn ids(queue: &JobQueue) -> Vec<u64> {
        queue.jobs().iter().map(|j| j.id.0).collect()
    }

    fn empty_ctx() -> SchedContext<'static> {
        SchedContext {
            running: &[],
            accounts: None,
        }
    }

    #[test]
    fn parse_roundtrip_all() {
        for p in [
            PolicyKind::Replay,
            PolicyKind::Fcfs,
            PolicyKind::Sjf,
            PolicyKind::Ljf,
            PolicyKind::Priority,
            PolicyKind::PriorityAging,
            PolicyKind::AcctAvgPower,
            PolicyKind::AcctLowAvgPower,
            PolicyKind::AcctEdp,
            PolicyKind::AcctEd2p,
            PolicyKind::AcctFugakuPts,
            PolicyKind::Ml,
        ] {
            assert_eq!(PolicyKind::parse(p.name()), Some(p));
        }
        assert_eq!(PolicyKind::parse("bogus"), None);
    }

    #[test]
    fn fcfs_orders_by_submit() {
        let mut q = JobQueue::new();
        q.push(qj(1, 30, 1, 10, 0.0, 0));
        q.push(qj(2, 10, 1, 10, 0.0, 0));
        q.push(qj(3, 20, 1, 10, 0.0, 0));
        PolicyKind::Fcfs.order(&mut q, &empty_ctx());
        assert_eq!(ids(&q), vec![2, 3, 1]);
    }

    #[test]
    fn sjf_orders_by_estimate() {
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 1, 300, 0.0, 0));
        q.push(qj(2, 0, 1, 100, 0.0, 0));
        q.push(qj(3, 0, 1, 200, 0.0, 0));
        PolicyKind::Sjf.order(&mut q, &empty_ctx());
        assert_eq!(ids(&q), vec![2, 3, 1]);
    }

    #[test]
    fn ljf_orders_by_node_count_desc() {
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 4, 10, 0.0, 0));
        q.push(qj(2, 0, 64, 10, 0.0, 0));
        q.push(qj(3, 0, 16, 10, 0.0, 0));
        PolicyKind::Ljf.order(&mut q, &empty_ctx());
        assert_eq!(ids(&q), vec![2, 3, 1]);
    }

    #[test]
    fn priority_aging_parses_and_promotes_long_waiters() {
        assert_eq!(
            PolicyKind::parse("priority_aging"),
            Some(PolicyKind::PriorityAging)
        );
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 1, 10, 1.0, 0)); // low priority, waited 10 h
        q.push(qj(2, 9 * 3600, 1, 10, 5.0, 0)); // high priority, waited 1 h
        PolicyKind::PriorityAging.order(&mut q, &empty_ctx());
        // 1.0 + 10 h > 5.0 + 1 h → the old job wins.
        assert_eq!(ids(&q), vec![1, 2]);
        // Without aging, priority alone would pick job 2.
        PolicyKind::Priority.order(&mut q, &empty_ctx());
        assert_eq!(ids(&q), vec![2, 1]);
    }

    #[test]
    fn priority_orders_desc() {
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 1, 10, 1.0, 0));
        q.push(qj(2, 0, 1, 10, 9.0, 0));
        PolicyKind::Priority.order(&mut q, &empty_ctx());
        assert_eq!(ids(&q), vec![2, 1]);
    }

    #[test]
    fn ml_orders_by_score_desc_missing_scores_last_among_positive() {
        let mut q = JobQueue::new();
        let mut a = qj(1, 0, 1, 10, 0.0, 0);
        a.ml_score = Some(0.2);
        let mut b = qj(2, 0, 1, 10, 0.0, 0);
        b.ml_score = Some(0.9);
        let c = qj(3, 1, 1, 10, 0.0, 0); // no score → 0
        q.push(a);
        q.push(b);
        q.push(c);
        PolicyKind::Ml.order(&mut q, &empty_ctx());
        assert_eq!(ids(&q), vec![2, 1, 3]);
    }

    fn accounts_fixture() -> Accounts {
        let mut acc = Accounts::new(1.0);
        // Account 1: frugal (0.4 kW); account 2: hot (1.6 kW).
        for (acct, p) in [(1u32, 0.4f64), (2, 1.6)] {
            acc.record(&JobOutcome {
                id: JobId(0),
                user: UserId(0),
                account: AccountId(acct),
                nodes: 10,
                submit: SimTime::ZERO,
                start: SimTime::ZERO,
                end: SimTime::seconds(3600),
                energy_kwh: p * 10.0,
                avg_node_power_kw: p,
                avg_cpu_util: 0.5,
                avg_gpu_util: 0.0,
                priority: 1.0,
            });
        }
        acc
    }

    #[test]
    fn account_policies_use_collected_stats() {
        let acc = accounts_fixture();
        let ctx = SchedContext {
            running: &[],
            accounts: Some(&acc),
        };
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 1, 10, 0.0, 1)); // frugal account
        q.push(qj(2, 0, 1, 10, 0.0, 2)); // hot account

        PolicyKind::AcctAvgPower.order(&mut q, &ctx);
        assert_eq!(ids(&q), vec![2, 1], "high average power first");

        PolicyKind::AcctLowAvgPower.order(&mut q, &ctx);
        assert_eq!(ids(&q), vec![1, 2], "low average power first");

        PolicyKind::AcctFugakuPts.order(&mut q, &ctx);
        assert_eq!(ids(&q), vec![1, 2], "frugal account earned the points");
    }

    #[test]
    fn account_policy_without_accounts_degrades_to_stable_order() {
        let mut q = JobQueue::new();
        q.push(qj(2, 5, 1, 10, 0.0, 7));
        q.push(qj(1, 0, 1, 10, 0.0, 7));
        PolicyKind::AcctEdp.order(&mut q, &empty_ctx());
        assert_eq!(ids(&q), vec![1, 2], "ties fall back to submit order");
    }

    #[test]
    fn needs_accounts_flags_incentive_policies() {
        assert!(PolicyKind::AcctFugakuPts.needs_accounts());
        assert!(!PolicyKind::Fcfs.needs_accounts());
        assert!(!PolicyKind::Ml.needs_accounts());
    }
}
