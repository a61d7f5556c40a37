//! A compact fixed-capacity bitset used for node-allocation masks.
//!
//! The resource manager needs "which of the N nodes are free" queries and
//! first-fit scans over systems as large as Fugaku (158 976 nodes). A
//! `Vec<u64>` word bitset keeps those scans cache-friendly and lets us skip
//! fully-allocated regions 64 nodes at a time.

use serde::{Deserialize, Serialize};

/// Fixed-capacity bitset backed by 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bitset {
    len: usize,
    words: Vec<u64>,
    ones: usize,
}

impl Bitset {
    /// Create a bitset of `len` bits, all clear.
    pub fn new(len: usize) -> Self {
        Bitset {
            len,
            words: vec![0; len.div_ceil(64)],
            ones: 0,
        }
    }

    /// Create a bitset of `len` bits, all set.
    pub fn full(len: usize) -> Self {
        let mut b = Bitset::new(len);
        for w in b.words.iter_mut() {
            *w = u64::MAX;
        }
        // Clear bits past `len` in the final word so counts stay exact.
        let spare = b.words.len() * 64 - len;
        if spare > 0 {
            if let Some(last) = b.words.last_mut() {
                *last >>= spare;
                *last <<= 0; // no-op for clarity; mask already applied by shift
            }
        }
        b.ones = len;
        b
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.ones
    }

    pub fn get(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Set bit `i`; returns whether the bit changed.
    pub fn set(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask == 0 {
            *w |= mask;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Clear bit `i`; returns whether the bit changed.
    pub fn clear(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len);
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        if *w & mask != 0 {
            *w &= !mask;
            self.ones -= 1;
            true
        } else {
            false
        }
    }

    /// Index of the first set bit at or after `from`, if any.
    pub fn first_set_from(&self, from: usize) -> Option<usize> {
        if from >= self.len {
            return None;
        }
        let mut wi = from / 64;
        let mut word = self.words[wi] & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let bit = wi * 64 + word.trailing_zeros() as usize;
                return (bit < self.len).then_some(bit);
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            word = self.words[wi];
        }
    }

    /// Take (set→clear is caller's choice) the first `n` set bits, in
    /// ascending order. Returns `None` without modification if fewer than
    /// `n` bits are set.
    pub fn collect_first_set(&self, n: usize) -> Option<Vec<u32>> {
        if n > self.ones {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        let mut i = 0;
        while out.len() < n {
            match self.first_set_from(i) {
                Some(bit) => {
                    out.push(bit as u32);
                    i = bit + 1;
                }
                None => return None, // unreachable given ones check; defensive
            }
        }
        Some(out)
    }

    /// Claim (clear) the first `n` set bits in one word-level pass,
    /// appending their indices in ascending order to `out`. Returns
    /// `false` without modification if fewer than `n` bits are set.
    ///
    /// This is the resource manager's first-fit hot path: one sweep that
    /// reads each word once and clears bits as it collects them, instead
    /// of a scan ([`Bitset::collect_first_set`]) followed by a second
    /// per-index [`Bitset::clear`] pass.
    pub fn take_first_set(&mut self, n: usize, out: &mut Vec<u32>) -> bool {
        if n > self.ones {
            return false;
        }
        let mut remaining = n;
        for (wi, w) in self.words.iter_mut().enumerate() {
            while *w != 0 {
                if remaining == 0 {
                    self.ones -= n;
                    return true;
                }
                let bit = w.trailing_zeros() as usize;
                *w &= *w - 1; // clear the lowest set bit
                out.push((wi * 64 + bit) as u32);
                remaining -= 1;
            }
        }
        debug_assert_eq!(remaining, 0, "ones said {n} bits were available");
        self.ones -= n;
        true
    }

    /// Iterate over all set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        let mut next = 0usize;
        std::iter::from_fn(move || {
            let bit = self.first_set_from(next)?;
            next = bit + 1;
            Some(bit)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_all_clear_and_full_is_all_set() {
        let b = Bitset::new(130);
        assert_eq!(b.count_ones(), 0);
        assert!(!b.get(0) && !b.get(129));
        let f = Bitset::full(130);
        assert_eq!(f.count_ones(), 130);
        assert!(f.get(0) && f.get(129));
    }

    #[test]
    fn full_does_not_set_bits_past_len() {
        let f = Bitset::full(70);
        // Direct word inspection: second word must have only 6 low bits set.
        assert_eq!(f.words[1], (1u64 << 6) - 1);
        assert_eq!(f.iter_ones().count(), 70);
    }

    #[test]
    fn set_clear_tracks_ones() {
        let mut b = Bitset::new(100);
        assert!(b.set(3));
        assert!(!b.set(3));
        assert_eq!(b.count_ones(), 1);
        assert!(b.clear(3));
        assert!(!b.clear(3));
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn first_set_from_scans_across_words() {
        let mut b = Bitset::new(200);
        b.set(5);
        b.set(64);
        b.set(199);
        assert_eq!(b.first_set_from(0), Some(5));
        assert_eq!(b.first_set_from(6), Some(64));
        assert_eq!(b.first_set_from(65), Some(199));
        assert_eq!(b.first_set_from(200), None);
    }

    #[test]
    fn collect_first_set_ascending_or_none() {
        let mut b = Bitset::new(128);
        for i in [7usize, 70, 100] {
            b.set(i);
        }
        assert_eq!(b.collect_first_set(2), Some(vec![7, 70]));
        assert_eq!(b.collect_first_set(3), Some(vec![7, 70, 100]));
        assert_eq!(b.collect_first_set(4), None);
    }

    #[test]
    fn take_first_set_claims_in_one_pass() {
        let mut b = Bitset::full(130);
        let mut out = Vec::new();
        assert!(b.take_first_set(3, &mut out));
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(b.count_ones(), 127);
        assert!(!b.get(0) && !b.get(2) && b.get(3));
        // Spans a word boundary.
        out.clear();
        assert!(b.take_first_set(70, &mut out));
        assert_eq!(out.first(), Some(&3));
        assert_eq!(out.len(), 70);
        assert_eq!(b.count_ones(), 57);
        // Appends without clearing the output buffer.
        let mut acc = vec![999];
        assert!(b.take_first_set(1, &mut acc));
        assert_eq!(acc, vec![999, 73]);
    }

    #[test]
    fn take_first_set_fails_atomically() {
        let mut b = Bitset::new(64);
        b.set(5);
        let mut out = Vec::new();
        assert!(!b.take_first_set(2, &mut out));
        assert!(out.is_empty());
        assert_eq!(b.count_ones(), 1);
        assert!(b.get(5));
    }

    #[test]
    fn take_first_set_matches_collect_then_clear() {
        let mut a = Bitset::new(200);
        for i in [0usize, 1, 63, 64, 65, 127, 128, 199] {
            a.set(i);
        }
        let mut b = a.clone();
        let picked = a.collect_first_set(5).unwrap();
        for &i in &picked {
            a.clear(i as usize);
        }
        let mut taken = Vec::new();
        assert!(b.take_first_set(5, &mut taken));
        assert_eq!(picked, taken);
        assert_eq!(a, b);
    }

    #[test]
    fn iter_ones_matches_gets() {
        let mut b = Bitset::new(300);
        let set: Vec<usize> = vec![0, 63, 64, 65, 128, 299];
        for &i in &set {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), set);
    }
}
