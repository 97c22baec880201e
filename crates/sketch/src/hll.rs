//! HyperLogLog (Flajolet, Fusy, Gandouet, Meunier — 2007).
//!
//! The modern standard for full-scan distinct counting, included so the
//! workspace can answer the obvious question a reader in 2026 asks of a
//! 2000 paper: *how do the sampling estimators compare to what replaced
//! probabilistic counting?* Registers hold the maximum leading-zero rank
//! per bucket; the harmonic-mean estimator with the `α_m` constant gives
//! standard error ≈ `1.04/√m`. Small-range correction falls back to
//! linear counting over empty registers (as in the original paper);
//! 64-bit hashes make the large-range correction unnecessary at any
//! scale this workspace touches.
//!
//! Merges are counted (`sketch.hll.merges`); inserts are not. An insert
//! runs once per row and touches only its own register, while a counter
//! would add a shared atomic add to every row.

use crate::DistinctSketch;
use std::sync::{Arc, OnceLock};

/// Register-merge counter (`sketch.hll.merges`).
fn merge_count() -> &'static Arc<dve_obs::Counter> {
    static C: OnceLock<Arc<dve_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| dve_obs::global().counter("sketch.hll.merges"))
}

/// HyperLogLog sketch with `m = 2^p` registers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HyperLogLog {
    registers: Vec<u8>,
    p: u32,
}

impl HyperLogLog {
    /// Creates a sketch with precision `p` (registers `m = 2^p`),
    /// `4 ≤ p ≤ 18`.
    ///
    /// # Panics
    ///
    /// Panics for `p` outside `[4, 18]`.
    pub fn new(p: u32) -> Self {
        assert!(
            (4..=18).contains(&p),
            "precision must be in [4, 18], got {p}"
        );
        Self {
            registers: vec![0u8; 1 << p],
            p,
        }
    }

    /// Number of registers.
    pub fn registers(&self) -> usize {
        self.registers.len()
    }

    /// The precision `p` this sketch was built with.
    pub fn precision(&self) -> u32 {
        self.p
    }

    /// The raw register array (`2^p` bytes) — the sketch's entire
    /// state, for persistence. Rehydrate with
    /// [`HyperLogLog::from_registers`].
    pub fn register_bytes(&self) -> &[u8] {
        &self.registers
    }

    /// Rebuilds a sketch from a persisted register array. `None` when
    /// the precision is out of range, the length is not `2^p`, or a
    /// register exceeds the maximum rank `64 - p + 1`.
    pub fn from_registers(p: u32, registers: Vec<u8>) -> Option<Self> {
        if !(4..=18).contains(&p) || registers.len() != 1 << p {
            return None;
        }
        let max_rank = (64 - p + 1) as u8;
        if registers.iter().any(|&r| r > max_rank) {
            return None;
        }
        Some(Self { registers, p })
    }

    /// The bias-correction constant `α_m`.
    fn alpha(m: usize) -> f64 {
        match m {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            m => 0.7213 / (1.0 + 1.079 / m as f64),
        }
    }

    /// Merges another sketch of identical precision (register-wise max).
    ///
    /// # Panics
    ///
    /// Panics if precisions differ.
    pub fn merge(&mut self, other: &HyperLogLog) {
        assert_eq!(
            self.p, other.p,
            "cannot merge sketches of different precision"
        );
        merge_count().inc();
        for (a, b) in self.registers.iter_mut().zip(&other.registers) {
            *a = (*a).max(*b);
        }
    }

    /// Expected relative standard error for this precision, `1.04/√m`.
    pub fn expected_rse(&self) -> f64 {
        1.04 / (self.registers.len() as f64).sqrt()
    }
}

impl DistinctSketch for HyperLogLog {
    fn name(&self) -> &'static str {
        "HLL"
    }

    fn insert(&mut self, hash: u64) {
        let idx = (hash >> (64 - self.p)) as usize;
        let rest = hash << self.p;
        // Rank = leading zeros of the remaining bits + 1, capped so an
        // all-zero remainder stays representable.
        let rank = (rest.leading_zeros() + 1).min(64 - self.p + 1) as u8;
        if rank > self.registers[idx] {
            self.registers[idx] = rank;
        }
    }

    fn estimate(&self) -> f64 {
        let m = self.registers.len();
        let mf = m as f64;
        let mut inv_sum = 0.0f64;
        let mut zeros = 0usize;
        for &r in &self.registers {
            // 2^-r via exp2: ranks reach 64 - p + 1 (> 31), so an integer
            // shift would overflow.
            inv_sum += (-f64::from(r)).exp2();
            if r == 0 {
                zeros += 1;
            }
        }
        let raw = Self::alpha(m) * mf * mf / inv_sum;
        // Small-range correction: linear counting while registers are
        // mostly empty.
        if raw <= 2.5 * mf && zeros > 0 {
            mf * (mf / zeros as f64).ln()
        } else {
            raw
        }
    }

    fn memory_bytes(&self) -> usize {
        self.registers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_value;

    fn estimate_n(p: u32, n: u64) -> f64 {
        let mut s = HyperLogLog::new(p);
        for v in 0..n {
            s.insert(hash_value(v));
        }
        s.estimate()
    }

    #[test]
    fn estimates_within_rse_envelope() {
        let p = 12; // m = 4096, rse ≈ 1.6%
        for &n in &[100u64, 5_000, 100_000, 1_000_000] {
            let est = estimate_n(p, n);
            let rel = (est - n as f64).abs() / n as f64;
            assert!(rel < 0.08, "n = {n}: est {est:.0} ({rel:.3} rel err)");
        }
    }

    #[test]
    fn small_range_correction_is_near_exact() {
        // Tiny cardinalities: linear-counting fallback is near exact.
        for &n in &[1u64, 10, 50] {
            let est = estimate_n(12, n);
            assert!(
                (est - n as f64).abs() <= 1.0 + n as f64 * 0.02,
                "n = {n}: {est}"
            );
        }
    }

    #[test]
    fn duplicates_do_not_move_estimate() {
        let mut a = HyperLogLog::new(10);
        let mut b = HyperLogLog::new(10);
        for v in 0..10_000u64 {
            a.insert(hash_value(v % 100));
            b.insert(hash_value(v % 100));
            b.insert(hash_value(v % 100));
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn merge_equals_union() {
        let mut a = HyperLogLog::new(12);
        let mut b = HyperLogLog::new(12);
        let mut whole = HyperLogLog::new(12);
        for v in 0..50_000u64 {
            whole.insert(hash_value(v));
            if v % 3 == 0 {
                a.insert(hash_value(v));
            } else {
                b.insert(hash_value(v));
            }
        }
        a.merge(&b);
        assert_eq!(a.estimate(), whole.estimate());
    }

    #[test]
    fn precision_improves_accuracy() {
        let n = 200_000u64;
        let coarse = (estimate_n(6, n) - n as f64).abs();
        let fine = (estimate_n(14, n) - n as f64).abs();
        assert!(fine < coarse, "coarse {coarse}, fine {fine}");
    }

    #[test]
    fn memory_is_one_byte_per_register() {
        assert_eq!(HyperLogLog::new(12).memory_bytes(), 4096);
        assert!((HyperLogLog::new(12).expected_rse() - 0.016).abs() < 2e-3);
    }

    #[test]
    #[should_panic(expected = "precision")]
    fn rejects_bad_precision() {
        HyperLogLog::new(3);
    }

    #[test]
    fn merges_are_counted() {
        let merges_before = super::merge_count().get();
        let mut a = HyperLogLog::new(8);
        let mut b = HyperLogLog::new(8);
        for v in 0..100u64 {
            a.insert(hash_value(v));
        }
        b.merge(&a);
        assert!(super::merge_count().get() > merges_before);
    }
}

#[cfg(test)]
mod overflow_regression {
    use super::*;
    use crate::DistinctSketch;

    /// Regression: a hash whose post-index bits are all zero drives the
    /// register to rank 64 − p + 1 (> 31); the estimator must not overflow
    /// a 32-bit shift computing 2^-rank.
    #[test]
    fn extreme_rank_does_not_overflow() {
        let mut s = HyperLogLog::new(12);
        s.insert(0); // idx 0, remainder 0 → rank 53
        let est = s.estimate();
        assert!(est.is_finite() && est >= 1.0, "estimate {est}");
        // And the register really is at the cap.
        let mut t = HyperLogLog::new(4);
        t.insert(0); // rank 61 at p = 4
        assert!(t.estimate().is_finite());
    }
}
