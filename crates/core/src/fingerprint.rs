//! Content-addressed fingerprinting for sweep cells.
//!
//! A sweep cell is a pure function of (workload plan, cell spec): hashing
//! a canonical serialization of every sim-relevant field yields a key
//! under which its metrics can be memoized on disk and reused across
//! processes. Three properties matter:
//!
//! 1. **Stability** — the same spec must hash identically in every
//!    process on every platform, so the hash is a vendored FNV-1a (128
//!    bit, the offline-shim policy: no registry deps) over explicitly
//!    ordered field writes, never over `std::hash::Hash` (which is
//!    documented to vary across releases and uses random seeds in
//!    `HashMap`).
//! 2. **Sensitivity** — any sim-relevant mutation must change the key.
//!    Strings are length-prefixed and every field is written in a fixed
//!    order, so adjacent fields cannot alias (`"ab" + "c"` ≠ `"a" + "bc"`).
//! 3. **Invalidation** — results depend on the engine's semantics, not
//!    just its inputs. [`ENGINE_SCHEMA_VERSION`] is folded into every
//!    fingerprint; bump it whenever an engine, model, or dataloader
//!    change alters simulation output so every stale cache entry misses.
//!
//! Jobs, the bulk of a windowed replay's key, go in field by field
//! ([`Fingerprinter::write_job`]): a fixed binary encoding with floats
//! by their bits, a length before every variable-length part and a
//! presence byte before every `Option`. It destructures each type
//! exhaustively, so a field added to a job fails to compile until it is
//! keyed.
//!
//! Debug text keys the rest, system configs and account tables:
//! [`Fingerprinter`] implements [`std::fmt::Write`], so
//! [`Fingerprinter::write_debug`] streams the formatter's output straight
//! through the hasher without building the string. Derived `Debug` output
//! is deterministic (floats print in shortest-roundtrip form, and the
//! workspace's types hold `Vec`s/`BTreeMap`s, never iteration-order-
//! randomized maps), which makes it a serviceable canonical serialization
//! whose drift the golden-key fixtures catch.

use sraps_types::{CaptureFlags, Job, JobTelemetry, Trace};
use std::fmt;

/// Cache-invalidation salt: bump on any change that alters simulation
/// output for identical inputs (engine semantics, physics models,
/// dataloaders, preset systems, metrics definitions). Folded into every
/// fingerprint, so a bump orphans — rather than corrupts — old entries.
///
/// v2: uniform-aging priority key became time-invariant (identical
/// mathematical order, but f64 rounding ties can resolve differently)
/// and power-capped runs now report effected placements instead of
/// shadow proposals in their scheduler statistics.
///
/// v3: cell fingerprints gained the late-binding power-cap axis
/// (`cap_at`), and engine snapshots carry the same version stamp.
pub const ENGINE_SCHEMA_VERSION: u32 = 3;

/// A finished 128-bit fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Fixed-width lowercase hex — the on-disk cache entry stem.
    pub fn hex(&self) -> String {
        format!("{:032x}", self.0)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013B;

/// Streaming FNV-1a/128 with typed, self-delimiting writers.
#[derive(Debug, Clone)]
pub struct Fingerprinter {
    state: u128,
}

impl Default for Fingerprinter {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprinter {
    /// A fresh hasher, pre-salted with [`ENGINE_SCHEMA_VERSION`].
    pub fn new() -> Self {
        let mut fp = Fingerprinter {
            state: FNV128_OFFSET,
        };
        fp.write_u32(ENGINE_SCHEMA_VERSION);
        fp
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u128;
            self.state = self.state.wrapping_mul(FNV128_PRIME);
        }
    }

    pub fn write_u8(&mut self, v: u8) {
        self.write_bytes(&[v]);
    }

    pub fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    pub fn write_i64(&mut self, v: i64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Bit-exact: distinguishes `-0.0` from `0.0` and every NaN payload,
    /// which is the right call for a cache key (never aliases two specs).
    pub fn write_f64(&mut self, v: f64) {
        self.write_bytes(&v.to_bits().to_le_bytes());
    }

    pub fn write_bool(&mut self, v: bool) {
        self.write_u8(v as u8);
    }

    /// Length-prefixed, so adjacent strings cannot alias.
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    /// Presence byte + value, so `None` and `Some(0.0)` differ.
    pub fn write_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.write_u8(1);
                self.write_f64(x);
            }
            None => self.write_u8(0),
        }
    }

    /// Every field of `job`, in declaration order, in a fixed binary
    /// encoding (210 bytes for a lassen job). The destructuring patterns
    /// list every field with no `..`, so a new field of [`Job`],
    /// [`JobTelemetry`], [`Trace`] or [`CaptureFlags`] fails to compile
    /// here until it is keyed.
    pub fn write_job(&mut self, job: &Job) {
        let Job {
            id,
            user,
            account,
            submit,
            recorded_start,
            recorded_end,
            walltime_limit,
            nodes_requested,
            recorded_nodes,
            priority,
            telemetry,
            ml_score,
        } = job;
        self.write_u64(id.0);
        self.write_u32(user.0);
        self.write_u32(account.0);
        self.write_i64(submit.as_secs());
        self.write_i64(recorded_start.as_secs());
        self.write_i64(recorded_end.as_secs());
        self.write_i64(walltime_limit.as_secs());
        self.write_u32(*nodes_requested);
        match recorded_nodes {
            Some(nodes) => {
                self.write_u8(1);
                self.write_u64(nodes.len() as u64);
                for &n in nodes.as_slice() {
                    self.write_u32(n);
                }
            }
            None => self.write_u8(0),
        }
        self.write_f64(*priority);
        let JobTelemetry {
            cpu_util,
            gpu_util,
            mem_util,
            node_power_w,
            net_tx_mbs,
            net_rx_mbs,
            flags,
        } = telemetry;
        for trace in [
            cpu_util,
            gpu_util,
            mem_util,
            node_power_w,
            net_tx_mbs,
            net_rx_mbs,
        ] {
            self.write_opt_trace(trace.as_ref());
        }
        let CaptureFlags {
            started_before_capture,
            ended_after_capture,
        } = flags;
        self.write_bool(*started_before_capture);
        self.write_bool(*ended_after_capture);
        self.write_opt_f64(*ml_score);
    }

    /// Presence byte, then the trace's offset, interval, sample count and
    /// samples by their bits.
    fn write_opt_trace(&mut self, trace: Option<&Trace>) {
        let Some(Trace { t0, dt, values }) = trace else {
            self.write_u8(0);
            return;
        };
        self.write_u8(1);
        self.write_i64(t0.as_secs());
        self.write_i64(dt.as_secs());
        self.write_u64(values.len() as u64);
        for v in values {
            self.write_u32(v.to_bits());
        }
    }

    /// Fold another fingerprint in (e.g. a workload fingerprint into a
    /// cell fingerprint).
    pub fn write_fingerprint(&mut self, fp: Fingerprint) {
        self.write_bytes(&fp.0.to_le_bytes());
    }

    /// Stream any `Debug`-printable structure through the hasher without
    /// building its debug string: `fp.write_debug(&dataset)`.
    pub fn write_debug<T: fmt::Debug>(&mut self, value: &T) {
        use fmt::Write;
        write!(self, "{value:?}").expect("fingerprint writes are infallible");
        // Delimit: a streamed debug blob must not alias the next field.
        self.write_u8(0xFE);
    }

    pub fn finish(&self) -> Fingerprint {
        Fingerprint(self.state)
    }
}

impl fmt::Write for Fingerprinter {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write_bytes(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_hashers() {
        let run = || {
            let mut fp = Fingerprinter::new();
            fp.write_str("lassen");
            fp.write_f64(0.7);
            fp.write_u64(42);
            fp.finish()
        };
        assert_eq!(run(), run());
        assert_eq!(run().hex().len(), 32);
    }

    #[test]
    fn adjacent_strings_do_not_alias() {
        let key = |a: &str, b: &str| {
            let mut fp = Fingerprinter::new();
            fp.write_str(a);
            fp.write_str(b);
            fp.finish()
        };
        assert_ne!(key("ab", "c"), key("a", "bc"));
        assert_ne!(key("", "abc"), key("abc", ""));
    }

    #[test]
    fn option_presence_is_hashed() {
        let key = |v: Option<f64>| {
            let mut fp = Fingerprinter::new();
            fp.write_opt_f64(v);
            fp.finish()
        };
        assert_ne!(key(None), key(Some(0.0)));
        assert_ne!(key(Some(0.0)), key(Some(-0.0)), "bit-exact floats");
    }

    #[test]
    fn debug_streaming_matches_debug_string_bytes() {
        #[derive(Debug)]
        #[allow(dead_code)]
        struct Probe {
            a: f64,
            b: Vec<u32>,
        }
        let p = Probe {
            a: 1.5,
            b: vec![1, 2],
        };
        let mut streamed = Fingerprinter::new();
        streamed.write_debug(&p);
        let mut manual = Fingerprinter::new();
        manual.write_bytes(format!("{p:?}").as_bytes());
        manual.write_u8(0xFE);
        assert_eq!(streamed.finish(), manual.finish());
    }

    #[test]
    fn golden_salt_anchor() {
        // Pins the hash function + current schema salt: if FNV constants,
        // the salt, or the write encoding drift, this fails loudly. Update
        // deliberately (it is what invalidates every on-disk cache).
        let mut fp = Fingerprinter::new();
        fp.write_str("golden");
        assert_eq!(fp.finish().hex(), "23b4281528e93259c408f1ab7292c0f5");
    }
}
