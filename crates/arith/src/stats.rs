//! Process-wide counters for the hybrid representation's fast path.
//!
//! The rational hot path (simplex reduced costs and witnesses,
//! Fourier–Motzkin back-substitution) and the integer kernel operations
//! (exact division, gcd) are instrumented with relaxed atomic counters —
//! compiled unconditionally, **not** gated behind `debug_assertions` — so
//! release binaries can report how often the machine-word fast path fired
//! versus falling back to the limb representation.
//!
//! The cells live in the `dioph-obs` registry (under `arith.small_hits`,
//! `arith.big_fallbacks`, `arith.int_small_hits` and
//! `arith.int_big_fallbacks`), so arithmetic tallies land in the same
//! `--metrics` output as every other subsystem and are read the same way:
//! as a `dioph_obs::snapshot()` delta around the work of interest
//! (`diophantus bench --json` reports theirs as `arith_small_path` and
//! `arith_int_path`). This module only records.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Integer, Rational};

    #[test]
    fn counters_observe_fast_and_slow_paths() {
        // Tests run concurrently in one process, so assert on deltas of the
        // operations this test performs, not absolute values.
        let (small, big) = (ARITH_SMALL_HITS.get(), ARITH_BIG_FALLBACKS.get());
        let a = Rational::from_i64s(1, 3);
        let _ = &a + &a; // machine-word path
        assert!(ARITH_SMALL_HITS.get() > small);

        let huge = Rational::from(u128::MAX);
        let _ = &huge * &huge; // numerator beyond i64: limb path
        assert!(ARITH_BIG_FALLBACKS.get() > big);
    }

    #[test]
    fn int_counters_observe_exact_div_paths() {
        let (small, big) = (ARITH_INT_SMALL_HITS.get(), ARITH_INT_BIG_FALLBACKS.get());
        let _ = Integer::from(21).checked_exact_div(&Integer::from(7)); // machine path
        assert!(ARITH_INT_SMALL_HITS.get() > small);

        let huge = Integer::from(u128::MAX);
        let _ = (&huge * &huge).checked_exact_div(&huge); // limb path
        assert!(ARITH_INT_BIG_FALLBACKS.get() > big);
    }
}
