//! [`CellCache`]: the content-addressed on-disk memo of finished cells.
//!
//! A sweep cell is a pure function of (workload plan, cell spec), so its
//! scalar [`CellMetrics`] can be stored under the spec's fingerprint
//! ([`crate::CellSpec::fingerprint`]) and reused by any later sweep that
//! expands to the same cell — re-running a matrix after editing one axis
//! only simulates the cells that axis touched.
//!
//! Layout (flat, one entry per cell under the cache directory):
//!
//! ```text
//! <dir>/<32-hex-key>.json         versioned metrics envelope
//! <dir>/<32-hex-key>-power.csv    spilled power history (optional)
//! <dir>/<32-hex-key>-util.csv     spilled util/queue history (optional)
//! ```
//!
//! Guarantees:
//!
//! * **Atomicity** — entries are written to a temp file in the same
//!   directory and `rename`d into place, so concurrent workers (threads
//!   or separate processes sharing `SRAPS_CACHE_DIR`) never observe a
//!   torn entry; at worst two writers race to install identical bytes.
//! * **Self-healing** — *any* defect on read (missing file, truncated or
//!   corrupt JSON, schema or key mismatch, missing required history
//!   spill) is a miss, never an error: the runner recomputes the cell
//!   and rewrites the entry.
//! * **Invalidation** — keys embed
//!   [`sraps_core::ENGINE_SCHEMA_VERSION`], so engine-semantics bumps
//!   orphan old entries wholesale; [`CACHE_SCHEMA_VERSION`] guards the
//!   envelope format itself.

use crate::metrics::CellMetrics;
use serde::{Deserialize, Serialize};
use sraps_types::{fsio, Result, SrapsError};
use std::path::{Path, PathBuf};

/// Envelope-format version: bump when the entry layout changes (old
/// entries then read as misses and are rewritten).
pub const CACHE_SCHEMA_VERSION: u32 = 1;

/// One stored entry: the envelope re-checked on read plus the metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct CacheEntry {
    /// [`CACHE_SCHEMA_VERSION`] at write time.
    schema: u32,
    /// The key the entry was stored under (defends against copied files).
    key: String,
    /// Display label at write time — diagnostic only, not verified (the
    /// same simulation may be labelled differently across matrices).
    label: String,
    metrics: CellMetrics,
}

/// What a cache hit returns.
#[derive(Debug, Clone)]
pub struct CachedCell {
    pub metrics: CellMetrics,
}

/// Handle on a cache directory.
#[derive(Debug, Clone)]
pub struct CellCache {
    dir: PathBuf,
}

impl CellCache {
    /// Open (creating if needed) a cache directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<CellCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| SrapsError::Io(format!("create cache dir {}: {e}", dir.display())))?;
        Ok(CellCache { dir })
    }

    /// `$SRAPS_CACHE_DIR`, an empty value read as unset: the one place
    /// the variable is read.
    pub fn env_dir() -> Option<PathBuf> {
        std::env::var_os("SRAPS_CACHE_DIR")
            .filter(|v| !v.is_empty())
            .map(PathBuf::from)
    }

    /// The cache directory for a sweep writing to `out_dir`:
    /// `$SRAPS_CACHE_DIR` when set, else `<out_dir>/cache`.
    pub fn default_dir(out_dir: &Path) -> PathBuf {
        Self::env_dir().unwrap_or_else(|| out_dir.join("cache"))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the metrics envelope for `key` (the fault harness tears
    /// it; the claim protocol leases beside it).
    pub fn entry_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.json"))
    }

    /// Counter-free lookup. Used to revalidate a cell right after its
    /// claim lease is acquired and while polling a deferred cell: the
    /// consult already counted the one real miss, and an entry landing
    /// in between is another worker's completion — not a second consult
    /// — so the hit/miss counters must not move again.
    pub fn peek(&self, key: &str, need_histories: bool) -> Option<CachedCell> {
        self.load_inner(key, need_histories).0
    }

    /// Paths of the spilled history CSVs for `key` (power, util).
    pub fn history_paths(&self, key: &str) -> (PathBuf, PathBuf) {
        (
            self.dir.join(format!("{key}-power.csv")),
            self.dir.join(format!("{key}-util.csv")),
        )
    }

    /// Look up a cell. `need_histories` additionally requires both
    /// spilled history CSVs, so a sweep that will export histories never
    /// hits an entry that cannot supply them. Every failure mode is a
    /// miss (`None`) by design — see the module docs.
    pub fn load(&self, key: &str, need_histories: bool) -> Option<CachedCell> {
        let _s = sraps_obs::span(sraps_obs::Phase::CacheRead);
        let (cell, healed) = self.load_inner(key, need_histories);
        match cell {
            Some(_) => sraps_obs::bump(sraps_obs::Counter::CacheHits),
            None => {
                sraps_obs::bump(sraps_obs::Counter::CacheMisses);
                if healed {
                    sraps_obs::bump(sraps_obs::Counter::CacheSelfHeals);
                }
            }
        }
        cell
    }

    /// The lookup itself, split out so [`CellCache::load`] can distinguish
    /// a plain miss (no entry on disk) from a *self-healing* one (an entry
    /// exists but is defective and will be recomputed and rewritten).
    fn load_inner(&self, key: &str, need_histories: bool) -> (Option<CachedCell>, bool) {
        let text = match std::fs::read_to_string(self.entry_path(key)) {
            Ok(text) => text,
            Err(_) => return (None, false),
        };
        let Ok(entry) = serde_json::from_str::<CacheEntry>(&text) else {
            return (None, true);
        };
        if entry.schema != CACHE_SCHEMA_VERSION || entry.key != key {
            return (None, true);
        }
        if need_histories {
            let (power, util) = self.history_paths(key);
            if !power.is_file() || !util.is_file() {
                return (None, true);
            }
        }
        (
            Some(CachedCell {
                metrics: entry.metrics,
            }),
            false,
        )
    }

    /// Store a finished cell, optionally spilling its history CSVs.
    /// Histories are installed before the envelope so a reader that sees
    /// the entry is guaranteed to see its histories too. Two threads can
    /// store one key (labels are not hashed, so two workloads can share
    /// content under different labels); [`fsio::write_atomic`] gives each
    /// writer its own temp file, so at worst they race identical bytes
    /// through `rename`.
    pub fn store(
        &self,
        key: &str,
        label: &str,
        metrics: &CellMetrics,
        histories: Option<(&str, &str)>,
    ) -> Result<()> {
        let _s = sraps_obs::span(sraps_obs::Phase::CacheWrite);
        if let Some((power_csv, util_csv)) = histories {
            let (power, util) = self.history_paths(key);
            fsio::write_atomic(&power, power_csv.as_bytes())?;
            fsio::write_atomic(&util, util_csv.as_bytes())?;
        }
        let entry = CacheEntry {
            schema: CACHE_SCHEMA_VERSION,
            key: key.to_string(),
            label: label.to_string(),
            metrics: metrics.clone(),
        };
        let json = serde_json::to_string_pretty(&entry)
            .map_err(|e| SrapsError::Io(format!("serialize cache entry {key}: {e}")))?;
        fsio::write_atomic(&self.entry_path(key), json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> CellMetrics {
        CellMetrics {
            jobs_completed: 12,
            jobs_censored: 1,
            mean_utilization: 0.5625,
            mean_power_kw: 123.456789,
            peak_power_kw: 222.2,
            max_power_swing_kw: 17.0,
            energy_mwh: 1.0 / 3.0, // awkward float: exercises roundtrip
            avg_wait_secs: 0.1 + 0.2,
            p99_wait_secs: 1234.0,
            avg_turnaround_secs: 4321.5,
            // One ULP above 1.06: prints with full precision digits.
            run_pue: Some(f64::from_bits(1.06f64.to_bits() + 1)),
        }
    }

    fn temp_cache(tag: &str) -> CellCache {
        let dir = std::env::temp_dir().join(format!("sraps-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        CellCache::open(dir).unwrap()
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let cache = temp_cache("roundtrip");
        let m = metrics();
        assert!(cache.load("k0", false).is_none(), "cold cache misses");
        cache.store("k0", "fcfs-easy", &m, None).unwrap();
        let back = cache.load("k0", false).expect("warm cache hits");
        assert_eq!(back.metrics, m);
        // Bit-exact floats: the report CSVs of a warm run must be
        // byte-identical to the cold run's.
        assert_eq!(
            back.metrics.energy_mwh.to_bits(),
            m.energy_mwh.to_bits(),
            "f64 JSON roundtrip must be exact"
        );
        assert_eq!(
            back.metrics.run_pue.map(f64::to_bits),
            m.run_pue.map(f64::to_bits)
        );
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn histories_gate_hits_when_required() {
        let cache = temp_cache("hist");
        cache.store("k1", "cell", &metrics(), None).unwrap();
        assert!(cache.load("k1", false).is_some());
        assert!(
            cache.load("k1", true).is_none(),
            "entry without spilled histories must miss when they are required"
        );
        cache
            .store("k1", "cell", &metrics(), Some(("p,csv\n", "u,csv\n")))
            .unwrap();
        assert!(cache.load("k1", true).is_some());
        let (power, util) = cache.history_paths("k1");
        assert_eq!(std::fs::read_to_string(power).unwrap(), "p,csv\n");
        assert_eq!(std::fs::read_to_string(util).unwrap(), "u,csv\n");
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn corrupt_entries_read_as_misses() {
        let cache = temp_cache("corrupt");
        cache.store("k2", "cell", &metrics(), None).unwrap();
        let path = cache.dir().join("k2.json");

        // Truncation (the CI scenario): a torn/partial entry misses.
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(cache.load("k2", false).is_none());

        // Not JSON at all.
        std::fs::write(&path, "garbage").unwrap();
        assert!(cache.load("k2", false).is_none());

        // A valid entry copied under the wrong key.
        std::fs::write(&path, full.replace("\"k2\"", "\"other\"")).unwrap();
        assert!(cache.load("k2", false).is_none());

        // Recompute-and-rewrite restores it.
        cache.store("k2", "cell", &metrics(), None).unwrap();
        assert!(cache.load("k2", false).is_some());
        std::fs::remove_dir_all(cache.dir()).ok();
    }

    #[test]
    fn default_dir_falls_back_under_the_results_dir() {
        // The SRAPS_CACHE_DIR branch is covered by the CLI smoke tests,
        // which set the variable on a child process — mutating process
        // env here would race the parallel test harness.
        if std::env::var_os("SRAPS_CACHE_DIR").is_none() {
            let out = PathBuf::from("results/run");
            assert_eq!(CellCache::default_dir(&out), out.join("cache"));
        }
    }
}
