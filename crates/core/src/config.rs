//! Simulation configuration — the programmatic equivalent of the
//! artifact's CLI (`--system --policy --backfill --scheduler -ff -t
//! --accounts --accounts-json -c`).

use sraps_acct::Accounts;
use sraps_sched::{BackfillKind, PolicyKind};
use sraps_systems::SystemConfig;
use sraps_types::{NodeSet, Result, SimTime, SrapsError, Trace};

/// A node outage window: the nodes are down/drained in `[from, until)`.
///
/// The paper flags missing down/drain information as the main accuracy gap
/// of the open datasets ("this information could greatly increase the
/// accuracy of schedules"); outages let what-if studies model it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outage {
    pub nodes: NodeSet,
    pub from: SimTime,
    pub until: SimTime,
}

impl Outage {
    /// Deterministically synthesize `count` outage windows over `span`:
    /// contiguous racks of 1–4 % of the machine, down for 30 min–6 h.
    /// Stand-in for the node-status feeds the open datasets lack.
    pub fn synthetic_set(seed: u64, total_nodes: u32, span: SimTime, count: usize) -> Vec<Outage> {
        // Tiny xorshift so sraps-core needs no RNG dependency.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count)
            .map(|_| {
                let width = ((next() % (total_nodes as u64 / 25).max(1)) as u32
                    + total_nodes / 100)
                    .max(1)
                    .min(total_nodes);
                let first = (next() % (total_nodes - width).max(1) as u64) as u32;
                let from = SimTime::seconds((next() % span.as_secs().max(1) as u64) as i64);
                let dur = 1800 + (next() % (6 * 3600)) as i64;
                Outage {
                    nodes: NodeSet::contiguous(first, width),
                    from,
                    until: from + sraps_types::SimDuration::seconds(dur),
                }
            })
            .collect()
    }
}

/// Which main-loop core drives the run (`--engine`).
///
/// Both cores produce bit-identical histories and outcomes; the event
/// core skips the idle spans of the §3.2.3 loop (ticks where nothing
/// schedulable can change) and batch-advances the physics across them,
/// which is what makes multi-day low-utilization sweeps cheap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// The paper's fixed-tick loop: steps 1–4 at every telemetry tick.
    Tick,
    /// Hybrid event/tick core: steps 1–3 only at event times (next
    /// submission, earliest completion, outage edge), step 4 batched
    /// across the span in between.
    #[default]
    Event,
}

impl EngineMode {
    /// Parse the `--engine` CLI value.
    pub fn parse(s: &str) -> Option<EngineMode> {
        match s {
            "tick" => Some(EngineMode::Tick),
            "event" => Some(EngineMode::Event),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            EngineMode::Tick => "tick",
            EngineMode::Event => "event",
        }
    }
}

/// Which scheduler drives the run (`--scheduler`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedulerSelect {
    /// The built-in scheduler with its policy + backfill options.
    Default,
    /// The account-incentive scheduler (§4.3); requires a loaded
    /// `accounts.json` collection.
    Experimental,
    /// External event-based ScheduleFlow integration (§4.2.1).
    ScheduleFlow,
    /// External FastSim plugin-mode integration (§4.2.2).
    FastSim,
}

impl SchedulerSelect {
    /// Stable CLI name — also the form cache fingerprints hash, so the
    /// strings must never be reused across variants.
    pub fn name(&self) -> &'static str {
        match self {
            SchedulerSelect::Default => "default",
            SchedulerSelect::Experimental => "experimental",
            SchedulerSelect::ScheduleFlow => "scheduleflow",
            SchedulerSelect::FastSim => "fastsim",
        }
    }
}

/// Full configuration for one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub system: SystemConfig,
    pub policy: PolicyKind,
    pub backfill: BackfillKind,
    pub scheduler: SchedulerSelect,
    /// Main-loop core (`--engine`); default is the hybrid event/tick core.
    pub engine: EngineMode,
    /// Simulation window start (`-ff` fast-forward), in dataset time.
    pub sim_start: Option<SimTime>,
    /// Simulation window end (`-t` duration from start).
    pub sim_end: Option<SimTime>,
    /// Run the cooling model (`-c`).
    pub cooling: bool,
    /// Track per-account statistics (`--accounts`).
    pub track_accounts: bool,
    /// Collection-phase account stats (`--accounts-json`), consumed by the
    /// experimental scheduler.
    pub accounts_in: Option<Accounts>,
    /// Facility job-power cap, kW: wraps the built-in scheduler in
    /// [`sraps_sched::PowerCapScheduler`] (energy-aware extension).
    pub power_cap_kw: Option<f64>,
    /// Scheduled node outages applied during the run.
    pub outages: Vec<Outage>,
    /// Ambient wet-bulb temperature trace (°C, offsets relative to the
    /// simulation start). Without it the cooling model uses the system's
    /// constant design ambient.
    pub wetbulb_trace: Option<Trace>,
}

impl SimConfig {
    /// Convenience constructor with policy/backfill by artifact name.
    pub fn new(system: SystemConfig, policy: &str, backfill: &str) -> Result<SimConfig> {
        let policy = PolicyKind::parse(policy)
            .ok_or_else(|| SrapsError::Config(format!("unknown policy '{policy}'")))?;
        let backfill = BackfillKind::parse(backfill)
            .ok_or_else(|| SrapsError::Config(format!("unknown backfill '{backfill}'")))?;
        Ok(SimConfig {
            system,
            policy,
            backfill,
            scheduler: SchedulerSelect::Default,
            engine: EngineMode::default(),
            sim_start: None,
            sim_end: None,
            cooling: false,
            track_accounts: false,
            accounts_in: None,
            power_cap_kw: None,
            outages: Vec::new(),
            wetbulb_trace: None,
        })
    }

    /// Replay configuration (the original RAPS behaviour).
    pub fn replay(system: SystemConfig) -> SimConfig {
        SimConfig::new(system, "replay", "none").expect("replay/none are valid")
    }

    pub fn with_window(mut self, start: SimTime, end: SimTime) -> Self {
        self.sim_start = Some(start);
        self.sim_end = Some(end);
        self
    }

    pub fn with_cooling(mut self) -> Self {
        self.cooling = true;
        self
    }

    pub fn with_accounts(mut self) -> Self {
        self.track_accounts = true;
        self
    }

    pub fn with_accounts_json(mut self, accounts: Accounts) -> Self {
        self.accounts_in = Some(accounts);
        self.track_accounts = true;
        self
    }

    pub fn with_scheduler(mut self, scheduler: SchedulerSelect) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Select the main-loop core (tick vs hybrid event/tick).
    pub fn with_engine(mut self, engine: EngineMode) -> Self {
        self.engine = engine;
        self
    }

    /// Enforce a facility job-power cap (kW) at scheduling time.
    pub fn with_power_cap(mut self, cap_kw: f64) -> Self {
        self.power_cap_kw = Some(cap_kw);
        self
    }

    /// Apply node outage windows during the run.
    pub fn with_outages(mut self, outages: Vec<Outage>) -> Self {
        self.outages = outages;
        self
    }

    /// Drive the cooling model's ambient from a wet-bulb trace.
    pub fn with_weather(mut self, wetbulb_trace: Trace) -> Self {
        self.wetbulb_trace = Some(wetbulb_trace);
        self
    }

    /// Reference node power for Fugaku-point accrual, kW: the node power
    /// at 60 % utilization.
    pub fn reference_power_kw(&self) -> f64 {
        let p = &self.system.node_power;
        (p.idle_node_w() + 0.6 * (p.peak_node_w() - p.idle_node_w())) / 1000.0
    }

    /// Validate cross-field consistency.
    pub fn validate(&self) -> Result<()> {
        self.system.validate()?;
        if let (Some(s), Some(e)) = (self.sim_start, self.sim_end) {
            if e <= s {
                return Err(SrapsError::Config(format!(
                    "simulation window empty: {s} ≥ {e}"
                )));
            }
        }
        if let Some(cap) = self.power_cap_kw {
            // `cap <= 0.0` alone would let NaN through, and a NaN cap
            // admits nothing: every `est <= NaN` is false.
            if !(cap.is_finite() && cap > 0.0) {
                return Err(SrapsError::Config(format!(
                    "power cap must be a finite kW value > 0, got {cap}"
                )));
            }
            if self.scheduler != SchedulerSelect::Default {
                return Err(SrapsError::Config(
                    "power cap is implemented for the default scheduler only".into(),
                ));
            }
        }
        for o in &self.outages {
            if o.until <= o.from {
                return Err(SrapsError::Config(format!(
                    "empty outage window {}..{}",
                    o.from, o.until
                )));
            }
            if o.nodes.is_empty() {
                return Err(SrapsError::Config("outage with no nodes".into()));
            }
        }
        if self.scheduler == SchedulerSelect::Experimental {
            if !self.policy.needs_accounts() {
                return Err(SrapsError::Config(format!(
                    "experimental scheduler needs an account policy, got {}",
                    self.policy.name()
                )));
            }
            if self.accounts_in.is_none() {
                return Err(SrapsError::Config(
                    "experimental scheduler needs accounts_in (the collection run's accounts.json)"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_systems::presets;

    #[test]
    fn engine_mode_parses_and_defaults_to_event() {
        assert_eq!(EngineMode::parse("tick"), Some(EngineMode::Tick));
        assert_eq!(EngineMode::parse("event"), Some(EngineMode::Event));
        assert_eq!(EngineMode::parse("warp"), None);
        let c = SimConfig::replay(presets::adastra());
        assert_eq!(c.engine, EngineMode::Event);
        let c = c.with_engine(EngineMode::Tick);
        assert_eq!(c.engine, EngineMode::Tick);
        assert_eq!(c.engine.name(), "tick");
    }

    #[test]
    fn new_parses_artifact_names() {
        let c = SimConfig::new(presets::adastra(), "fcfs", "easy").unwrap();
        assert_eq!(c.policy, PolicyKind::Fcfs);
        assert_eq!(c.backfill, BackfillKind::Easy);
        assert!(SimConfig::new(presets::adastra(), "nope", "easy").is_err());
        assert!(SimConfig::new(presets::adastra(), "fcfs", "nope").is_err());
    }

    #[test]
    fn replay_defaults() {
        let c = SimConfig::replay(presets::lassen());
        assert_eq!(c.policy, PolicyKind::Replay);
        c.validate().unwrap();
    }

    #[test]
    fn window_validation() {
        let c = SimConfig::replay(presets::lassen())
            .with_window(SimTime::seconds(100), SimTime::seconds(100));
        assert!(c.validate().is_err());
    }

    #[test]
    fn power_cap_must_be_finite_and_positive() {
        let capped = |kw| SimConfig::replay(presets::lassen()).with_power_cap(kw);
        for kw in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -1.0] {
            assert!(capped(kw).validate().is_err(), "cap {kw} must be rejected");
        }
        capped(1200.0).validate().unwrap();
    }

    #[test]
    fn experimental_requires_accounts() {
        let mut c = SimConfig::new(presets::frontier(), "acct_edp", "firstfit").unwrap();
        c.scheduler = SchedulerSelect::Experimental;
        assert!(c.validate().is_err(), "missing accounts_in");
        let c = c.with_accounts_json(Accounts::new(1.0));
        c.validate().unwrap();
    }

    #[test]
    fn experimental_rejects_plain_policies() {
        let mut c = SimConfig::new(presets::frontier(), "fcfs", "firstfit").unwrap();
        c.scheduler = SchedulerSelect::Experimental;
        c.accounts_in = Some(Accounts::new(1.0));
        assert!(c.validate().is_err());
    }

    #[test]
    fn synthetic_outages_are_valid_and_deterministic() {
        let a = Outage::synthetic_set(7, 1000, SimTime::seconds(86_400), 10);
        let b = Outage::synthetic_set(7, 1000, SimTime::seconds(86_400), 10);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        for o in &a {
            assert!(!o.nodes.is_empty());
            assert!(o.until > o.from);
            assert!(o.nodes.as_slice().iter().all(|&n| n < 1000));
            // Each outage passes config validation.
            let sim = SimConfig::replay(presets::adastra()).with_outages(vec![o.clone()]);
            sim.validate().unwrap();
        }
    }

    #[test]
    fn reference_power_default_is_mid_envelope() {
        let c = SimConfig::replay(presets::fugaku());
        let p = &c.system.node_power;
        let expected = (p.idle_node_w() + 0.6 * (p.peak_node_w() - p.idle_node_w())) / 1000.0;
        assert!((c.reference_power_kw() - expected).abs() < 1e-12);
    }
}
