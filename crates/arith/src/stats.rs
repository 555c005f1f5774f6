//! Process-wide counters for the hybrid representation's fast path.
//!
//! The rational hot path (simplex reduced costs and witnesses,
//! Fourier–Motzkin combinations) is instrumented with two relaxed atomic
//! counters — compiled unconditionally, **not** gated behind
//! `debug_assertions` — so release binaries can report
//! how often the machine-word fast path fired versus falling back to the
//! limb representation. `diophantus bench --json` surfaces the numbers;
//! future performance work can watch the promotion frequency move.
//!
//! The counters are cumulative for the process. Callers that want a
//! per-phase reading should [`reset`] first (or subtract a prior
//! [`snapshot`]); concurrent arithmetic keeps counting while you read, so
//! treat snapshots as statistics, not exact event counts.
//!
//! The cells themselves live in the `dioph-obs` registry (under
//! `arith.small_hits`, `arith.big_fallbacks`, `arith.int_small_hits` and
//! `arith.int_big_fallbacks`), so arithmetic tallies land in the same
//! `--metrics` output as every other subsystem; this module is the
//! arith-shaped facade over those cells.

use dioph_obs::registry::{
    ARITH_BIG_FALLBACKS, ARITH_INT_BIG_FALLBACKS, ARITH_INT_SMALL_HITS, ARITH_SMALL_HITS,
};

/// Records one rational operation served entirely by the machine-word path.
#[inline]
pub(crate) fn record_small_hit() {
    ARITH_SMALL_HITS.incr();
}

/// Records one rational operation that fell back to the limb path.
#[inline]
pub(crate) fn record_big_fallback() {
    ARITH_BIG_FALLBACKS.incr();
}

/// Records one integer kernel operation (exact division, gcd) served by the
/// machine-word path.
#[inline]
pub(crate) fn record_int_small_hit() {
    ARITH_INT_SMALL_HITS.incr();
}

/// Records one integer kernel operation that fell back to the limb path.
#[inline]
pub(crate) fn record_int_big_fallback() {
    ARITH_INT_BIG_FALLBACKS.incr();
}

/// A point-in-time reading of the fast-path counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Snapshot {
    /// Rational operations served by the machine-word fast path.
    pub small_hits: u64,
    /// Rational operations that fell back to the limb representation.
    pub big_fallbacks: u64,
    /// Integer kernel operations (exact division, gcd — the fraction-free
    /// elimination hot path) served by the machine-word fast path.
    pub int_small_hits: u64,
    /// Integer kernel operations that fell back to the limb representation.
    pub int_big_fallbacks: u64,
}

impl Snapshot {
    /// Total instrumented rational operations (saturating: the counters are
    /// process-cumulative and their sum must not wrap in a long-lived
    /// server, where a wrapped total would turn the hit rate into garbage).
    pub fn total(&self) -> u64 {
        self.small_hits.saturating_add(self.big_fallbacks)
    }

    /// Fraction of rational operations served by the fast path (`None` when
    /// no operations were recorded).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            None
        } else {
            Some(self.small_hits as f64 / total as f64)
        }
    }

    /// Total instrumented integer kernel operations (saturating, like
    /// [`Self::total`]).
    pub fn int_total(&self) -> u64 {
        self.int_small_hits.saturating_add(self.int_big_fallbacks)
    }

    /// Fraction of integer kernel operations served by the machine-word path
    /// (`None` when no operations were recorded).
    pub fn int_hit_rate(&self) -> Option<f64> {
        let total = self.int_total();
        if total == 0 {
            None
        } else {
            Some(self.int_small_hits as f64 / total as f64)
        }
    }

    /// Counter deltas since an `earlier` snapshot (saturating, so a
    /// concurrent [`reset`] cannot underflow).
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            small_hits: self.small_hits.saturating_sub(earlier.small_hits),
            big_fallbacks: self.big_fallbacks.saturating_sub(earlier.big_fallbacks),
            int_small_hits: self.int_small_hits.saturating_sub(earlier.int_small_hits),
            int_big_fallbacks: self.int_big_fallbacks.saturating_sub(earlier.int_big_fallbacks),
        }
    }
}

/// Reads the current counter values.
pub fn snapshot() -> Snapshot {
    Snapshot {
        small_hits: ARITH_SMALL_HITS.get(),
        big_fallbacks: ARITH_BIG_FALLBACKS.get(),
        int_small_hits: ARITH_INT_SMALL_HITS.get(),
        int_big_fallbacks: ARITH_INT_BIG_FALLBACKS.get(),
    }
}

/// Resets every counter to zero.
pub fn reset() {
    ARITH_SMALL_HITS.reset();
    ARITH_BIG_FALLBACKS.reset();
    ARITH_INT_SMALL_HITS.reset();
    ARITH_INT_BIG_FALLBACKS.reset();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rational;

    #[test]
    fn counters_observe_fast_and_slow_paths() {
        // Tests run concurrently in one process, so assert on deltas of the
        // operations this test performs, not absolute values.
        let before = snapshot();
        let a = Rational::from_i64s(1, 3);
        let _ = &a + &a; // machine-word path
        let mid = snapshot().since(&before);
        assert!(mid.small_hits >= 1);

        let huge = Rational::from(u128::MAX);
        let _ = &huge * &huge; // numerator beyond i64: limb path
        let after = snapshot().since(&before);
        assert!(after.big_fallbacks >= 1);
        assert!(after.total() >= 2);
        assert!(after.hit_rate().is_some());
        assert_eq!(Snapshot::default().hit_rate(), None);
    }

    #[test]
    fn int_counters_observe_exact_div_paths() {
        use crate::Integer;
        let before = snapshot();
        let _ = Integer::from(21).checked_exact_div(&Integer::from(7)); // machine path
        let mid = snapshot().since(&before);
        assert!(mid.int_small_hits >= 1);

        let huge = Integer::from(u128::MAX);
        let _ = (&huge * &huge).checked_exact_div(&huge); // limb path
        let after = snapshot().since(&before);
        assert!(after.int_big_fallbacks >= 1);
        assert!(after.int_total() >= 2);
        assert!(after.int_hit_rate().is_some());
        assert_eq!(Snapshot::default().int_hit_rate(), None);
    }

    #[test]
    fn totals_saturate_instead_of_wrapping() {
        // Counter-overflow edge case: a snapshot whose parts sum past
        // u64::MAX must clamp, not wrap to a tiny total (which would report
        // a nonsense hit rate).
        let s = Snapshot {
            small_hits: u64::MAX - 1,
            big_fallbacks: 2,
            int_small_hits: u64::MAX,
            int_big_fallbacks: u64::MAX,
        };
        assert_eq!(s.total(), u64::MAX);
        assert_eq!(s.int_total(), u64::MAX);
        let rate = s.hit_rate().expect("non-zero total");
        assert!((0.0..=1.0).contains(&rate), "{rate}");
        let rate = s.int_hit_rate().expect("non-zero total");
        assert!((0.0..=1.0).contains(&rate), "{rate}");
    }
}
