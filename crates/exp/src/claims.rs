//! Per-cell claim leases: N cooperating sweep processes partition one
//! matrix without duplicating simulation work.
//!
//! The cell cache already dedupes *results* — atomic write-back means
//! two workers racing the same key at worst install identical bytes.
//! What it cannot prevent is both workers *simulating* the cell. A
//! [`ClaimSet`] closes that gap with a lease file beside each cache
//! entry:
//!
//! ```text
//! <dir>/<32-hex-key>.claim    { owner, pid, heartbeat_ms }
//! ```
//!
//! Protocol:
//!
//! * **Acquire** — `O_EXCL` (`create_new`) on the claim path. Exclusive
//!   creation is the only primitive that picks a single winner among
//!   racing processes; rename-then-read-back would let two workers both
//!   observe themselves as owner.
//! * **Heartbeat** — a background thread rewrites every held claim
//!   (temp file + rename, so readers never see a torn claim) every
//!   TTL/4, proving the owner is alive.
//! * **Skip** — a live foreign lease means another worker is simulating
//!   the cell; callers defer the cell and poll for the cache entry
//!   instead of blocking a worker thread on it.
//! * **Reclaim** — a claim whose heartbeat is older than the TTL
//!   (default 30 s, at least 20 ms, `SRAPS_CLAIM_TTL_MS`) belongs to a
//!   dead or wedged worker. After a jittered confirmation pause the
//!   claimant `rename`s the stale claim to a unique tombstone — rename
//!   is atomic, so exactly one of N racing reclaimers succeeds — and
//!   retries the exclusive create. Corrupt or torn claim files (a worker
//!   killed mid-install) are stale once their mtime ages past the TTL.
//! * **Release** — the lease file is removed on completion (or drop).
//!   Release verifies ownership first so a worker whose lease was
//!   reclaimed while it was wedged cannot delete the new owner's claim.
//!
//! Everything assumes claim files live on one filesystem shared by the
//! cooperating processes (the `SRAPS_CACHE_DIR` partition), which also
//! gives all workers one clock domain for TTL arithmetic in the common
//! single-host case; across hosts, keep the TTL generously above any
//! plausible clock skew.

use crate::faults::splitmix64;
use serde::{Deserialize, Serialize};
use sraps_obs::Counter;
use sraps_types::{fsio, Result, SrapsError};
use std::collections::HashSet;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Every live [`ClaimSet`] in the process, so an interrupt handler (or
/// the daemon's drain path) can release all held leases at once without
/// threading handles through every call site.
static LIVE: Mutex<Vec<Weak<Shared>>> = Mutex::new(Vec::new());

/// Default lease TTL: a heartbeat older than this marks the owner dead.
pub const DEFAULT_TTL: Duration = Duration::from_secs(30);
/// Default base poll/backoff interval for contended cells.
pub const DEFAULT_POLL: Duration = Duration::from_millis(25);
/// The heartbeat refreshes held claims every TTL/4, but never more often
/// than this.
const HEARTBEAT_FLOOR: Duration = Duration::from_millis(5);
/// The shortest TTL the heartbeat keeps a live lease fresh under: below
/// four times the heartbeat's 5 ms floor, a lease reads as stale between
/// heartbeats and a peer reclaims it and simulates the cell again.
pub const MIN_TTL: Duration = Duration::from_millis(20);

/// On-disk claim body. Readers only trust `heartbeat_ms` (and the file
/// mtime when the JSON is torn); `owner`/`pid` are for ownership checks
/// and post-mortem diagnostics.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ClaimFile {
    owner: String,
    pid: u32,
    heartbeat_ms: u64,
}

/// Outcome of a claim attempt.
#[derive(Debug)]
pub enum ClaimOutcome {
    /// This worker owns the cell; simulate it, then release the lease.
    Acquired(Lease),
    /// A live foreign lease exists — defer the cell and poll the cache.
    Contended,
}

/// What a claim file looks like to a prospective claimant.
enum ClaimState {
    /// No claim on disk (released or never taken).
    Gone,
    /// Heartbeat within the TTL: the owner is alive.
    Fresh,
    /// Heartbeat (or mtime, for torn files) older than the TTL.
    Stale,
}

struct Shared {
    dir: PathBuf,
    owner: String,
    ttl: Duration,
    poll: Duration,
    held: Mutex<HashSet<String>>,
    stop: Mutex<bool>,
    wake: Condvar,
}

fn now_ms() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl Shared {
    fn claim_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.claim"))
    }

    fn claim_body(&self) -> String {
        serde_json::to_string(&ClaimFile {
            owner: self.owner.clone(),
            pid: std::process::id(),
            heartbeat_ms: now_ms(),
        })
        .expect("claim body serializes")
    }

    /// Classify the claim at `path` without trusting its integrity: a
    /// torn or unparseable body (worker killed mid-install) falls back
    /// to file-mtime aging so it cannot wedge the cell forever.
    fn read_state(&self, path: &Path) -> ClaimState {
        let ttl_ms = self.ttl.as_millis() as u64;
        match std::fs::read_to_string(path) {
            Ok(text) => match serde_json::from_str::<ClaimFile>(&text) {
                Ok(claim) => {
                    if now_ms().saturating_sub(claim.heartbeat_ms) > ttl_ms {
                        ClaimState::Stale
                    } else {
                        ClaimState::Fresh
                    }
                }
                Err(_) => match path.metadata().and_then(|m| m.modified()) {
                    Ok(mtime) => match mtime.elapsed() {
                        Ok(age) if age > self.ttl => ClaimState::Stale,
                        _ => ClaimState::Fresh,
                    },
                    Err(_) => ClaimState::Gone,
                },
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => ClaimState::Gone,
            // Unreadable for another reason (permissions?): assume live.
            Err(_) => ClaimState::Fresh,
        }
    }

    /// Whether the claim at `path` currently names this process as owner.
    fn owned_by_us(&self, path: &Path) -> bool {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|t| serde_json::from_str::<ClaimFile>(&t).ok())
            .is_some_and(|c| c.owner == self.owner)
    }

    fn release(&self, key: &str) {
        self.held.lock().unwrap().remove(key);
        let path = self.claim_path(key);
        // Ownership check: if our lease went stale and was reclaimed,
        // the path now holds the new owner's claim — leave it alone.
        if self.owned_by_us(&path) {
            let _ = std::fs::remove_file(&path);
        }
    }

    /// Release every lease this set still holds (interrupt/drain path).
    /// Returns how many claim files were actually removed.
    fn release_all(&self) -> usize {
        let keys: Vec<String> = std::mem::take(&mut *self.held.lock().unwrap())
            .into_iter()
            .collect();
        let mut removed = 0;
        for key in keys {
            let path = self.claim_path(&key);
            if self.owned_by_us(&path) && std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }
}

/// Release every lease held by every live [`ClaimSet`] in this process.
/// Safe to call from a drain path at any time: later `Lease::release`
/// calls become no-ops (the ownership check sees the file gone or
/// re-owned). Returns the number of claim files removed.
pub fn release_all_live() -> usize {
    let mut live = LIVE.lock().unwrap();
    let mut removed = 0;
    live.retain(|w| match w.upgrade() {
        Some(shared) => {
            removed += shared.release_all();
            true
        }
        None => false,
    });
    removed
}

/// Arm the SIGINT/SIGTERM latch and spawn a watcher that, on the first
/// signal, releases every live claim lease and exits 130. Idempotent.
///
/// This is the `sraps sweep` shutdown path: a ctrl-c'd sweep must not
/// leave `.claim` files for peers to wait a full TTL on. The resident
/// daemon does **not** use this — it arms the same latch but runs its
/// own drain (finish in-flight cells, then [`release_all_live`]).
pub fn install_interrupt_release() {
    static INSTALLED: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
    if INSTALLED.swap(true, std::sync::atomic::Ordering::SeqCst) {
        return;
    }
    sraps_types::signals::arm();
    let _ = std::thread::Builder::new()
        .name("sraps-interrupt-release".into())
        .spawn(|| loop {
            if sraps_types::signals::requested() {
                let removed = release_all_live();
                eprintln!("sraps: interrupted — released {removed} claim lease(s)");
                std::process::exit(130);
            }
            std::thread::sleep(Duration::from_millis(25));
        });
}

/// Handle on the claim namespace of one cache directory. Dropping the
/// set stops the heartbeat thread; leases still held keep their files
/// (they will age out via the TTL), so prefer releasing every lease
/// before the set goes away.
pub struct ClaimSet {
    shared: Arc<Shared>,
    heartbeat: Option<std::thread::JoinHandle<()>>,
}

/// An acquired cell lease. Released on [`Lease::release`] or drop.
pub struct Lease {
    shared: Arc<Shared>,
    key: String,
    released: bool,
}

impl std::fmt::Debug for Lease {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Lease").field("key", &self.key).finish()
    }
}

impl Lease {
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Remove the claim file (after the cell's result is installed).
    pub fn release(mut self) {
        self.shared.release(&self.key.clone());
        self.released = true;
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if !self.released {
            self.shared.release(&self.key.clone());
            self.released = true;
        }
    }
}

impl ClaimSet {
    /// Open the claim namespace under `dir` (the cache directory) with
    /// TTL/poll taken from `SRAPS_CLAIM_TTL_MS` / `SRAPS_CLAIM_POLL_MS`
    /// or their defaults. A set-but-malformed knob, a TTL below
    /// [`MIN_TTL`] or a poll of 0 is a [`SrapsError::Config`] here, not a
    /// silent fallback or clamp.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ClaimSet> {
        let (ttl, poll) = claim_knobs(
            sraps_types::string_env("SRAPS_CLAIM_TTL_MS")?.as_deref(),
            sraps_types::string_env("SRAPS_CLAIM_POLL_MS")?.as_deref(),
        )?;
        Self::open_with(dir, ttl, poll)
    }

    /// Open with explicit knobs (tests shrink the TTL to milliseconds).
    pub fn open_with(dir: impl Into<PathBuf>, ttl: Duration, poll: Duration) -> Result<ClaimSet> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SrapsError::Io(format!("create claim dir {}: {e}", dir.display())))?;
        // Pid alone is not unique across a host's pid-reuse horizon
        // (fold in the creation instant), and pid+instant is not unique
        // across claim sets opened in one process in the same
        // millisecond (fold in a process-global sequence).
        static OWNER_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = OWNER_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let owner = format!("{}:{:x}:{seq}", std::process::id(), now_ms());
        let shared = Arc::new(Shared {
            dir,
            owner,
            ttl: ttl.max(Duration::from_millis(1)),
            poll: poll.max(Duration::from_millis(1)),
            held: Mutex::new(HashSet::new()),
            stop: Mutex::new(false),
            wake: Condvar::new(),
        });
        let heartbeat = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sraps-claim-heartbeat".into())
                .spawn(move || heartbeat_loop(&shared))
                .map_err(|e| SrapsError::Io(format!("spawn heartbeat thread: {e}")))?
        };
        LIVE.lock().unwrap().push(Arc::downgrade(&shared));
        Ok(ClaimSet {
            shared,
            heartbeat: Some(heartbeat),
        })
    }

    /// Base poll interval — the runner's deferral loop scales its
    /// backoff from this.
    pub fn poll(&self) -> Duration {
        self.shared.poll
    }

    pub fn ttl(&self) -> Duration {
        self.shared.ttl
    }

    /// This process's owner id (diagnostics, tests).
    pub fn owner(&self) -> &str {
        &self.shared.owner
    }

    /// The claim path for `key` (tests fabricate stale claims here).
    pub fn claim_path(&self, key: &str) -> PathBuf {
        self.shared.claim_path(key)
    }

    /// Deterministically jittered delay for contended-cell polling:
    /// `base..2*base`, scattered by (owner, key, round) so N workers
    /// that collided once don't re-collide in lockstep.
    pub fn backoff(&self, key: &str, round: u32) -> Duration {
        let base = self.shared.poll.as_millis() as u64;
        let h = splitmix64(fnv64(&self.shared.owner) ^ fnv64(key) ^ round as u64);
        Duration::from_millis(base + h % base.max(1))
    }

    /// One claim attempt for `key`: exclusive-create, or classify the
    /// incumbent and — when it is stale — race to reclaim it. Never
    /// blocks on a live lease.
    pub fn try_acquire(&self, key: &str) -> Result<ClaimOutcome> {
        let path = self.shared.claim_path(key);
        // Two rounds: a reclaim loops back to the exclusive create once.
        for _ in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut f) => {
                    if let Err(e) = f.write_all(self.shared.claim_body().as_bytes()) {
                        drop(f);
                        let _ = std::fs::remove_file(&path);
                        return Err(SrapsError::Io(format!(
                            "write claim {}: {e}",
                            path.display()
                        )));
                    }
                    self.shared.held.lock().unwrap().insert(key.to_string());
                    sraps_obs::bump(Counter::ClaimsAcquired);
                    return Ok(ClaimOutcome::Acquired(Lease {
                        shared: Arc::clone(&self.shared),
                        key: key.to_string(),
                        released: false,
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    match self.shared.read_state(&path) {
                        ClaimState::Gone => continue, // released just now — retry create
                        ClaimState::Fresh => {
                            sraps_obs::bump(Counter::ClaimsContended);
                            return Ok(ClaimOutcome::Contended);
                        }
                        ClaimState::Stale => {
                            if !self.reclaim(key, &path)? {
                                sraps_obs::bump(Counter::ClaimsContended);
                                return Ok(ClaimOutcome::Contended);
                            }
                            // Reclaimed: loop back to the exclusive create.
                        }
                    }
                }
                Err(e) => {
                    return Err(SrapsError::Io(format!(
                        "create claim {}: {e}",
                        path.display()
                    )))
                }
            }
        }
        // Exclusive create lost twice in a row (heavy churn): defer.
        sraps_obs::bump(Counter::ClaimsContended);
        Ok(ClaimOutcome::Contended)
    }

    /// Race to remove a stale claim. A jittered pause desynchronizes N
    /// simultaneous reclaimers, a re-read confirms the claim is still
    /// stale (the pause may have let a heartbeat land), and an atomic
    /// rename to a unique tombstone picks exactly one winner.
    fn reclaim(&self, key: &str, path: &Path) -> Result<bool> {
        std::thread::sleep(self.backoff(key, u32::MAX));
        if !matches!(self.shared.read_state(path), ClaimState::Stale) {
            return Ok(false);
        }
        let tomb = fsio::temp_sibling(path);
        match std::fs::rename(path, &tomb) {
            // The re-read and the rename are two steps: another reclaimer
            // may have won in between and installed its fresh claim, which
            // the rename just moved away. Put a live claim back (a hard
            // link only lands on a free path) and lose the race.
            Ok(()) if !matches!(self.shared.read_state(&tomb), ClaimState::Stale) => {
                let _ = std::fs::hard_link(&tomb, path);
                let _ = std::fs::remove_file(&tomb);
                Ok(false)
            }
            Ok(()) => {
                let _ = std::fs::remove_file(&tomb);
                sraps_obs::bump(Counter::ClaimsStaleReclaimed);
                Ok(true)
            }
            // Another reclaimer won the rename (or the owner released).
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(SrapsError::Io(format!(
                "reclaim stale claim {}: {e}",
                path.display()
            ))),
        }
    }
}

impl Drop for ClaimSet {
    fn drop(&mut self) {
        *self.shared.stop.lock().unwrap() = true;
        self.shared.wake.notify_all();
        if let Some(h) = self.heartbeat.take() {
            let _ = h.join();
        }
    }
}

/// The claim knobs from the raw `SRAPS_CLAIM_TTL_MS` and
/// `SRAPS_CLAIM_POLL_MS` values (unset ⇒ `None` ⇒ the default), checked:
/// a TTL below [`MIN_TTL`] or a poll of 0 is a config error naming the
/// variable. [`ClaimSet::open_with`] would clamp either, running with a
/// lease the heartbeat cannot keep alive.
fn claim_knobs(ttl: Option<&str>, poll: Option<&str>) -> Result<(Duration, Duration)> {
    let ms = |var: &str, raw| -> Result<Option<Duration>> {
        Ok(sraps_types::parse_env_value::<u64>(var, raw)?.map(Duration::from_millis))
    };
    let ttl = ms("SRAPS_CLAIM_TTL_MS", ttl)?.unwrap_or(DEFAULT_TTL);
    if ttl < MIN_TTL {
        return Err(SrapsError::Config(format!(
            "SRAPS_CLAIM_TTL_MS is {} ms; it must be at least {} ms, or the heartbeat \
             (every TTL/4, at most every {} ms) cannot keep a live lease fresh",
            ttl.as_millis(),
            MIN_TTL.as_millis(),
            HEARTBEAT_FLOOR.as_millis()
        )));
    }
    let poll = ms("SRAPS_CLAIM_POLL_MS", poll)?.unwrap_or(DEFAULT_POLL);
    if poll.is_zero() {
        return Err(SrapsError::Config(
            "SRAPS_CLAIM_POLL_MS is 0 ms; it must be at least 1 ms".into(),
        ));
    }
    Ok((ttl, poll))
}

/// Refresh every held claim at TTL/4 so live leases never age out.
/// Refreshes go through temp+rename (readers never see a torn claim)
/// and re-verify ownership first — a lease stolen while this process
/// was wedged must not be clobbered back.
fn heartbeat_loop(shared: &Shared) {
    let interval = (shared.ttl / 4).max(HEARTBEAT_FLOOR);
    let mut stop = shared.stop.lock().unwrap();
    loop {
        // The flag is checked before waiting: a drop that signals before
        // this thread first takes the lock must not wait out an interval.
        stop = shared
            .wake
            .wait_timeout_while(stop, interval, |stop| !*stop)
            .unwrap()
            .0;
        if *stop {
            return;
        }
        let keys: Vec<String> = shared.held.lock().unwrap().iter().cloned().collect();
        for key in keys {
            let path = shared.claim_path(&key);
            if shared.owned_by_us(&path) {
                let _ = fsio::write_atomic(&path, shared.claim_body().as_bytes());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_set(tag: &str, ttl: Duration) -> ClaimSet {
        let dir = std::env::temp_dir().join(format!("sraps-claims-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ClaimSet::open_with(dir, ttl, Duration::from_millis(2)).unwrap()
    }

    fn cleanup(set: &ClaimSet) {
        std::fs::remove_dir_all(&set.shared.dir).ok();
    }

    #[test]
    fn acquire_release_roundtrip() {
        let set = temp_set("roundtrip", DEFAULT_TTL);
        let lease = match set.try_acquire("k0").unwrap() {
            ClaimOutcome::Acquired(l) => l,
            ClaimOutcome::Contended => panic!("uncontended key must acquire"),
        };
        assert!(set.claim_path("k0").is_file());
        // Same process, second claimant: contended, not a deadlock.
        assert!(matches!(
            set.try_acquire("k0").unwrap(),
            ClaimOutcome::Contended
        ));
        lease.release();
        assert!(!set.claim_path("k0").is_file(), "release removes the file");
        assert!(matches!(
            set.try_acquire("k0").unwrap(),
            ClaimOutcome::Acquired(_)
        ));
        cleanup(&set);
    }

    #[test]
    fn dropping_a_fresh_set_does_not_wait_out_a_heartbeat() {
        // A warm sweep opens and drops its set within milliseconds, so the
        // drop can signal before the heartbeat thread first waits; the
        // thread must still see the flag instead of sleeping TTL/4.
        let started = std::time::Instant::now();
        for _ in 0..5 {
            drop(temp_set("fresh", DEFAULT_TTL));
        }
        let took = started.elapsed();
        assert!(took < DEFAULT_TTL / 8, "5 open/drop cycles took {took:?}");
        let dir = std::env::temp_dir().join(format!("sraps-claims-fresh-{}", std::process::id()));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn drop_releases_like_release() {
        let set = temp_set("drop", DEFAULT_TTL);
        {
            let _lease = match set.try_acquire("k1").unwrap() {
                ClaimOutcome::Acquired(l) => l,
                ClaimOutcome::Contended => panic!(),
            };
            assert!(set.claim_path("k1").is_file());
        }
        assert!(!set.claim_path("k1").is_file());
        cleanup(&set);
    }

    #[test]
    fn racing_threads_elect_exactly_one_owner() {
        let set = std::sync::Arc::new(temp_set("race", DEFAULT_TTL));
        // Winners park their lease here so it stays held for the whole
        // race — otherwise a slow loser could legitimately acquire the
        // key after an early release.
        let won: std::sync::Mutex<Vec<Lease>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let set = std::sync::Arc::clone(&set);
                let won = &won;
                s.spawn(move || {
                    if let ClaimOutcome::Acquired(l) = set.try_acquire("hot").unwrap() {
                        won.lock().unwrap().push(l);
                    }
                });
            }
        });
        let mut won = won.into_inner().unwrap();
        assert_eq!(won.len(), 1, "exactly one of 8 racing claimants may win");
        won.pop().unwrap().release();
        cleanup(&set);
    }

    #[test]
    fn stale_claims_are_reclaimed_after_ttl() {
        let set = temp_set("stale", Duration::from_millis(20));
        // A dead worker's claim: valid JSON, ancient heartbeat.
        let body = serde_json::to_string(&ClaimFile {
            owner: "dead:beef".into(),
            pid: 1,
            heartbeat_ms: 1,
        })
        .unwrap();
        std::fs::write(set.claim_path("k2"), body).unwrap();
        let got = set.try_acquire("k2").unwrap();
        assert!(
            matches!(got, ClaimOutcome::Acquired(_)),
            "stale claim must be reclaimed, got {got:?}"
        );
        cleanup(&set);
    }

    #[test]
    fn torn_claims_age_out_by_mtime() {
        let set = temp_set("torn", Duration::from_millis(30));
        std::fs::write(set.claim_path("k3"), "{\"owner\":\"tru").unwrap();
        // Fresh mtime: conservatively treated as live.
        assert!(matches!(
            set.try_acquire("k3").unwrap(),
            ClaimOutcome::Contended
        ));
        std::thread::sleep(Duration::from_millis(60));
        assert!(matches!(
            set.try_acquire("k3").unwrap(),
            ClaimOutcome::Acquired(_)
        ));
        cleanup(&set);
    }

    #[test]
    fn heartbeat_keeps_a_slow_cell_alive() {
        let set = temp_set("beat", Duration::from_millis(40));
        let _lease = match set.try_acquire("k4").unwrap() {
            ClaimOutcome::Acquired(l) => l,
            ClaimOutcome::Contended => panic!(),
        };
        // Well past the TTL: the heartbeat thread must have refreshed,
        // so a second claimant still sees a live lease.
        std::thread::sleep(Duration::from_millis(120));
        assert!(matches!(
            set.try_acquire("k4").unwrap(),
            ClaimOutcome::Contended
        ));
        cleanup(&set);
    }

    #[test]
    fn release_never_deletes_a_reclaimed_successor() {
        let set = temp_set("steal", Duration::from_millis(10));
        let other = ClaimSet::open_with(
            set.shared.dir.clone(),
            Duration::from_millis(10),
            Duration::from_millis(2),
        )
        .unwrap();
        // Fabricate the on-disk state of a wedged worker: a claim owned
        // by `set` whose heartbeat froze long ago. The key is not in
        // `set.held`, so its heartbeat thread leaves it alone — which is
        // exactly the wedged-owner scenario.
        let body = serde_json::to_string(&ClaimFile {
            owner: set.owner().to_string(),
            pid: std::process::id(),
            heartbeat_ms: 1,
        })
        .unwrap();
        std::fs::write(set.claim_path("k5"), body).unwrap();
        let lease = Lease {
            shared: Arc::clone(&set.shared),
            key: "k5".into(),
            released: false,
        };
        let stolen = match other.try_acquire("k5").unwrap() {
            ClaimOutcome::Acquired(l) => l,
            ClaimOutcome::Contended => panic!("ancient heartbeat must be reclaimable"),
        };
        // Our (stale, stolen) lease releases: must NOT remove the
        // successor's claim file.
        lease.release();
        assert!(set.claim_path("k5").is_file(), "successor claim survives");
        stolen.release();
        cleanup(&set);
    }

    #[test]
    fn release_all_removes_only_owned_claims() {
        // Exercised per-set (not via `release_all_live`, which would
        // race other tests' live leases in this parallel test binary).
        let set = temp_set("relall", DEFAULT_TTL);
        let a = match set.try_acquire("ra").unwrap() {
            ClaimOutcome::Acquired(l) => l,
            ClaimOutcome::Contended => panic!(),
        };
        let b = match set.try_acquire("rb").unwrap() {
            ClaimOutcome::Acquired(l) => l,
            ClaimOutcome::Contended => panic!(),
        };
        // A foreign claim in the same dir must survive the sweep.
        let foreign = serde_json::to_string(&ClaimFile {
            owner: "other:1".into(),
            pid: 1,
            heartbeat_ms: now_ms(),
        })
        .unwrap();
        std::fs::write(set.claim_path("rc"), foreign).unwrap();
        assert_eq!(set.shared.release_all(), 2);
        assert!(!set.claim_path("ra").is_file());
        assert!(!set.claim_path("rb").is_file());
        assert!(set.claim_path("rc").is_file(), "foreign claim untouched");
        // The leases' own Drop releases are now no-ops.
        drop(a);
        drop(b);
        assert!(set.claim_path("rc").is_file());
        cleanup(&set);
    }

    #[test]
    fn malformed_env_knob_is_a_config_error() {
        // `parse_env_value` is the pure core `ClaimSet::open` routes
        // through; asserting on it avoids mutating the process env in a
        // parallel test binary.
        let err = sraps_types::parse_env_value::<u64>("SRAPS_CLAIM_TTL_MS", Some("30s"))
            .expect_err("malformed TTL must not silently default");
        assert!(matches!(err, SrapsError::Config(_)), "got {err:?}");
    }

    #[test]
    fn claim_knobs_the_heartbeat_cannot_keep_are_config_errors() {
        // `claim_knobs` reads the raw values through `parse_env_value`,
        // as `ClaimSet::open` does, without touching the process env.
        for (ttl, poll, var) in [
            (Some("0"), None, "SRAPS_CLAIM_TTL_MS"),
            (Some("19"), None, "SRAPS_CLAIM_TTL_MS"),
            (None, Some("0"), "SRAPS_CLAIM_POLL_MS"),
            (Some("250"), Some(" 0 "), "SRAPS_CLAIM_POLL_MS"),
        ] {
            match claim_knobs(ttl, poll) {
                Err(SrapsError::Config(msg)) => {
                    assert!(msg.contains(var), "{ttl:?}/{poll:?}: {msg}")
                }
                other => panic!("{ttl:?}/{poll:?} must be a config error, got {other:?}"),
            }
        }
        assert_eq!(
            claim_knobs(None, None).unwrap(),
            (DEFAULT_TTL, DEFAULT_POLL)
        );
        assert_eq!(
            claim_knobs(Some("20"), Some("1")).unwrap(),
            (MIN_TTL, Duration::from_millis(1))
        );
        assert_eq!(
            claim_knobs(Some("250"), Some("20")).unwrap(),
            (Duration::from_millis(250), Duration::from_millis(20))
        );
    }

    #[test]
    fn backoff_is_jittered_and_bounded() {
        let set = temp_set("jitter", DEFAULT_TTL);
        let base = set.poll();
        let delays: Vec<Duration> = (0..16).map(|r| set.backoff("k", r)).collect();
        for d in &delays {
            assert!(*d >= base && *d < base * 2, "{d:?} outside [base, 2*base)");
        }
        assert!(
            delays.windows(2).any(|w| w[0] != w[1]),
            "jitter must vary across rounds"
        );
        cleanup(&set);
    }
}
