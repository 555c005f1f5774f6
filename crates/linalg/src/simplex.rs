//! Exact phase-1 simplex over integer rows, fraction-free.
//!
//! This is the feasibility engine backing Theorem 4.2 of the paper
//! (polynomial-time decidability of the Diophantine-solution problem for
//! MPIs). It decides whether the polyhedron
//!
//! ```text
//!     { x ∈ ℚⁿ  :  A·x ≥ b,  x ≥ 0 }
//! ```
//!
//! for integer `A` and `b` is non-empty and, if so, returns a rational point
//! inside it. Bland's rule guarantees termination (no cycling).
//!
//! The tableau stays in integers (Bareiss/Edmonds style) instead of reducing
//! every rational entry to lowest terms after every operation:
//!
//! * each row `i` stores integer coefficients plus one positive denominator
//!   `d_i`, representing the rational row `r_i / d_i`;
//! * a pivot on `(leave, enter)` with stored pivot `L` updates every other
//!   row by the two-term cross-multiplication `r_i ← L·r_i − r_i[enter]·r_l`
//!   (the Bareiss step), with a **single** exact division per row — the row
//!   is reduced by the gcd of its entries, rhs and denominator;
//! * the strict Bareiss variant divides by the previous pivot instead, but
//!   it needs a denominator shared by *all* rows, which forces every row —
//!   including the untouched ones — to be rescaled on every pivot. On the
//!   sparse tableaus of Theorem 4.1 that throws away the zero-skipping the
//!   row representation exists for, so this kernel uses the gcd-normalised
//!   per-row form: rows whose pivot-column entry is zero are skipped
//!   entirely, and the per-row gcd bounds coefficient growth at least as
//!   tightly as the previous-pivot division.
//!
//! Every decision the simplex takes — Bland's entering column (sign of a
//! reduced cost), the ratio test (comparison of `rhs_i/coeff_i` across
//! rows), tie-breaking, termination — is invariant under scaling a row by a
//! positive constant, so the run pivots exactly as a rational tableau would,
//! and witness components are read off as canonical [`Rational`]s.
//!
//! The tableau rows live behind the [`IntRow`] abstraction: the strict
//! homogeneous systems of the paper's reduction produce rows that are mostly
//! zeros (plus one surplus and at most one artificial coefficient), so the
//! pivot loop skips zeros by construction.
//!
//! Before any tableau is built, a ratio-test-free prune rejects systems with
//! a row whose coefficients are all `≤ 0` against a positive right-hand side:
//! no `x ≥ 0` can satisfy it.
//!
//! Strict inequalities are handled one level up (by the
//! [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem) machinery)
//! via the homogeneity of the systems produced by the paper's reduction:
//! `A·x > 0, x ≥ 0` is rationally feasible iff `A·x ≥ 1, x ≥ 0` is.

use dioph_arith::{Integer, Natural, Rational};

use crate::error::{iteration_budget, LinalgError};
use crate::row::{normalise_row, IntRow};
use crate::scratch::{auto_pooled, LpScratch};

/// Result of a phase-1 simplex run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimplexOutcome {
    /// A feasible point `x ≥ 0` with `A·x ≥ b` was found.
    Feasible(Vec<Rational>),
    /// The polyhedron is empty.
    Infeasible,
}

impl SimplexOutcome {
    /// Returns the witness if feasible.
    pub fn witness(&self) -> Option<&[Rational]> {
        match self {
            SimplexOutcome::Feasible(w) => Some(w),
            SimplexOutcome::Infeasible => None,
        }
    }

    /// `true` iff a feasible point was found.
    pub fn is_feasible(&self) -> bool {
        matches!(self, SimplexOutcome::Feasible(_))
    }
}

/// Finds `x ≥ 0` with `A·x ≥ b` (row-wise) for integer rows `A`, if such a
/// point exists.
///
/// # Errors
/// [`LinalgError::IterationBudget`] if the run exceeds its iteration budget
/// (a defensive bound — Bland's rule excludes cycling, so a terminating
/// implementation never reaches it; reporting it as a value keeps a worker
/// thread from panicking and poisoning the engine pool).
///
/// # Panics
/// Panics if a row's dimension differs from `n`, or if the number of rows
/// differs from the length of `b`.
pub fn feasible_point(
    n: usize,
    a: &[IntRow],
    b: &[Integer],
) -> Result<SimplexOutcome, LinalgError> {
    feasible_point_with_budget(n, a, b, iteration_budget(n + 2 * a.len(), a.len()))
}

/// [`feasible_point`] with an explicit iteration budget (regression tests
/// drive budget blowouts through here; production callers use the default
/// budget).
///
/// # Errors
/// [`LinalgError::IterationBudget`] after `max_iterations` pivots.
///
/// # Panics
/// As [`feasible_point`].
pub fn feasible_point_with_budget(
    n: usize,
    a: &[IntRow],
    b: &[Integer],
    max_iterations: usize,
) -> Result<SimplexOutcome, LinalgError> {
    assert_eq!(a.len(), b.len(), "row count mismatch between A and b");
    solve_in(n, a, |i| b[i].clone(), max_iterations, &mut LpScratch::default())
}

/// The feasibility front door for MPI-derived systems: decides
/// `A·x ≥ 1, x ≥ 0` (the homogeneity scaling of `A·x > 0`) for the stored
/// integer rows directly, with no materialised `b` and no row clones, through
/// a caller-provided scratch. Every working buffer is drawn from `scratch`
/// and recycled there, so a warmed scratch makes the whole run
/// allocation-free apart from the returned witness. Reuse is capacity-only:
/// pivots and outcome are bit-identical to [`feasible_point`] with `b = 1`.
pub(crate) fn feasible_point_scaled_in(
    n: usize,
    a: &[IntRow],
    scratch: &mut LpScratch,
) -> Result<SimplexOutcome, LinalgError> {
    solve_in(n, a, |_| Integer::one(), iteration_budget(n + 2 * a.len(), a.len()), scratch)
}

/// Builds the standard-form tableau for `A·x ≥ rhs(i)` in `scratch` and
/// pivots it to optimality.
fn solve_in(
    n: usize,
    a: &[IntRow],
    rhs: impl Fn(usize) -> Integer,
    max_iterations: usize,
    scratch: &mut LpScratch,
) -> Result<SimplexOutcome, LinalgError> {
    for row in a {
        assert_eq!(row.dim(), n, "row dimension mismatch in simplex input");
    }
    if a.is_empty() {
        return Ok(SimplexOutcome::Feasible(vec![Rational::zero(); n])); // alloc-ok: returned witness
    }
    // Ratio-test-free pruning: a row with no positive coefficient cannot
    // reach a positive right-hand side on x ≥ 0.
    if a.iter().enumerate().any(|(i, row)| {
        rhs(i).is_positive() && row.iter_nonzero().all(|(_, value)| !value.is_positive())
    }) {
        return Ok(SimplexOutcome::Infeasible);
    }

    // Standard form: for every row  a_i·x - s_i = b_i  with s_i ≥ 0, stored
    // as sorted sparse entries over the final column layout (the x-part
    // indices are already increasing, and the surplus column n+i comes after
    // all of them). Rows are normalised so the right-hand side is
    // non-negative; rows that originally had b_i ≤ 0 use the surplus (or its
    // negation, a slack) as the initial basic variable, all other rows
    // receive an artificial variable.
    //
    // Column layout: [ x (n) | s (m) | artificials (k) ].
    scratch.reset();
    for (i, a_row) in a.iter().enumerate() {
        let mut entries = scratch.pool.take();
        entries.extend(a_row.iter_nonzero().map(|(col, v)| (col, v.clone())));
        entries.push((n + i, Integer::minus_one()));
        let mut rhs_i = rhs(i);
        if rhs_i.is_negative() || rhs_i.is_zero() {
            // Flip the equation so the rhs is non-negative and the surplus
            // column carries +1 (it then serves as the initial basis).
            for (_, value) in entries.iter_mut() {
                let taken = core::mem::take(value);
                *value = -taken;
            }
            rhs_i = -rhs_i;
            scratch.needs_artificial.push(false);
        } else {
            scratch.needs_artificial.push(true);
        }
        scratch.staged.push(entries);
        scratch.rhs.push(rhs_i);
    }

    attach_artificials_and_run(n, max_iterations, scratch)
}

/// Second construction pass plus the pivot loop: extends the staged rows
/// with their artificial column (the artificial count is only known once
/// every row is staged), records the initial basis and pivots to optimality.
fn attach_artificials_and_run(
    n: usize,
    max_iterations: usize,
    scratch: &mut LpScratch,
) -> Result<SimplexOutcome, LinalgError> {
    let m = scratch.staged.len();
    let k = scratch.needs_artificial.iter().filter(|&&needs| needs).count();
    let total = n + m + k;

    // Per-row positive denominators: row i represents rows[i] / dens[i].
    scratch.dens.resize(m, Natural::one());
    {
        let mut art_idx = 0;
        for i in 0..m {
            let mut entries = core::mem::take(&mut scratch.staged[i]);
            if scratch.needs_artificial[i] {
                entries.push((n + m + art_idx, Integer::one()));
                scratch.basis.push(n + m + art_idx);
                art_idx += 1;
            } else {
                // The surplus/slack column of this row has coefficient +1.
                scratch.basis.push(n + i);
            }
            let row = auto_pooled(total, entries, &mut scratch.pool);
            scratch.rows.push(row);
        }
        scratch.staged.clear();
    }

    let LpScratch { rows, rhs, dens, basis, in_basis, reduced, merge_buf, .. } = scratch;
    let mut iterations = 0usize;

    loop {
        iterations += 1;
        dioph_obs::registry::LP_SIMPLEX_PIVOTS.incr();
        if iterations > max_iterations {
            return Err(LinalgError::IterationBudget { iterations: max_iterations });
        }

        // Reduced costs: r_j = c_j - Σ_i c_{basis[i]} * T[i][j], as exact
        // rationals (signs drive Bland's rule, and summing across rows needs
        // the true per-row scales). The phase-1 cost vector is 0/1 (1 exactly
        // on artificial columns), so the sum collapses to plain subtractions
        // over the non-zeros of the artificial-basic rows. This is the only
        // per-entry rational arithmetic: the eliminate pass below is pure
        // integers.
        in_basis.clear();
        in_basis.resize(total, false);
        for &basic in basis.iter() {
            in_basis[basic] = true;
        }
        reduced.clear();
        for j in 0..total {
            reduced.push(if j >= n + m { Rational::one() } else { Rational::zero() });
        }
        for ((row, den), &basic) in rows.iter().zip(dens.iter()).zip(basis.iter()) {
            if basic >= n + m {
                for (j, value) in row.iter_nonzero() {
                    reduced[j] -= &Rational::new(value.clone(), den.clone());
                }
            }
        }
        // Entering variable: smallest index with negative reduced cost (Bland).
        let entering = (0..total).find(|&j| !in_basis[j] && reduced[j].is_negative());

        let Some(enter) = entering else {
            // Optimal: the objective is the sum of the artificial basics.
            let mut obj = Rational::zero();
            for i in 0..m {
                if basis[i] >= n + m {
                    obj += &Rational::new(rhs[i].clone(), dens[i].clone());
                }
            }
            if !obj.is_zero() {
                return Ok(SimplexOutcome::Infeasible);
            }
            // Feasible: read off the x-part of the basic solution.
            let mut x = vec![Rational::zero(); n]; // alloc-ok: returned witness
            for i in 0..m {
                if basis[i] < n {
                    x[basis[i]] = Rational::new(rhs[i].clone(), dens[i].clone());
                }
            }
            return Ok(SimplexOutcome::Feasible(x));
        };

        // Ratio test. Within a row the denominator cancels
        // (`(rhs_i/d_i) / (coeff_i/d_i) = rhs_i/coeff_i`), so the cross-row
        // comparison `rhs_i/coeff_i < rhs_l/coeff_l` is the integer
        // comparison `rhs_i·coeff_l < rhs_l·coeff_i` (both coeffs positive).
        // Bland tie-breaking by smallest basic variable index.
        let mut leaving: Option<usize> = None;
        let mut best: Option<(Integer, Integer)> = None; // (rhs, coeff) of the leader
        for i in 0..m {
            let Some(coeff) = rows[i].get(enter) else { continue };
            if !coeff.is_positive() {
                continue;
            }
            let better = match (&best, leaving) {
                (None, _) => true,
                (Some((best_rhs, best_coeff)), Some(leader)) => {
                    let lhs = &rhs[i] * best_coeff;
                    let rhs_side = best_rhs * coeff;
                    lhs < rhs_side || (lhs == rhs_side && basis[i] < basis[leader])
                }
                _ => unreachable!("best and leaving are set together"),
            };
            if better {
                best = Some((rhs[i].clone(), coeff.clone()));
                leaving = Some(i);
            }
        }

        let Some(leave) = leaving else {
            // The phase-1 objective is bounded below by zero, so an unbounded
            // direction cannot occur.
            unreachable!("phase-1 simplex objective cannot be unbounded");
        };

        // Pivot. The stored pivot L is positive; the leave row itself stays
        // untouched — its denominator simply becomes L (rational value
        // r_l / L, i.e. the normalised pivot row with a 1 in the enter
        // column). Every other row with a non-zero enter coefficient F takes
        // the fraction-free cross-multiplication
        //     r_i ← L·r_i − F·r_l ,   d_i ← d_i·L ,
        // followed by one exact gcd reduction of the whole row. Rows with
        // F = 0 are not touched at all — the zero-skipping a shared
        // denominator would lose.
        let pivot = rows[leave].get(enter).cloned().expect("ratio test picked a non-zero pivot");
        for i in 0..m {
            if i == leave {
                continue;
            }
            // After elimination the enter column of this row is exactly zero,
            // so taking the factor out of the tableau writes the final value
            // for free — no clone.
            let factor = rows[i].take(enter);
            if factor.is_zero() {
                continue;
            }
            let (leave_row, target_row) = if leave < i {
                let (head, tail) = rows.split_at_mut(i);
                (&head[leave], &mut tail[0])
            } else {
                let (head, tail) = rows.split_at_mut(leave);
                (&tail[0], &mut head[i])
            };
            target_row.eliminate(&pivot, &factor, leave_row, enter, merge_buf);
            rhs[i] = &(&pivot * &rhs[i]) - &(&factor * &rhs[leave]);
            dens[i] = &dens[i] * &pivot.magnitude();
            if let Some(g) = normalise_row(target_row, &mut rhs[i], &dens[i]) {
                dens[i] = &dens[i] / &g;
            }
            // Pivot boundary: elimination can cancel earlier fill-in, and a
            // densified row whose density receded must not stay dense (the
            // one-way ratchet made later passes scan dead zeros).
            target_row.resparsify();
        }
        dens[leave] = pivot.magnitude();
        if let Some(g) = normalise_row(&mut rows[leave], &mut rhs[leave], &dens[leave]) {
            dens[leave] = &dens[leave] / &g;
        }
        basis[leave] = enter;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(rows: &[&[i64]]) -> Vec<IntRow> {
        rows.iter()
            .map(|row| {
                IntRow::from_dense_auto(&row.iter().map(|&v| Integer::from(v)).collect::<Vec<_>>())
            })
            .collect()
    }

    fn ints(vals: &[i64]) -> Vec<Integer> {
        vals.iter().map(|&v| Integer::from(v)).collect()
    }

    fn rats(vals: &[i64]) -> Vec<Rational> {
        vals.iter().map(|&v| Rational::from(v)).collect()
    }

    /// `A·x` for an integer matrix and a rational point.
    fn apply(a: &[&[i64]], x: &[Rational]) -> Vec<Rational> {
        a.iter()
            .map(|row| {
                let mut acc = Rational::zero();
                for (&c, v) in row.iter().zip(x) {
                    acc += &(&Rational::from(c) * v);
                }
                acc
            })
            .collect()
    }

    fn solve(a: &[&[i64]], b: &[i64]) -> SimplexOutcome {
        let n = a.first().map_or(0, |row| row.len());
        feasible_point(n, &rows(a), &ints(b)).expect("within budget")
    }

    fn assert_feasible(a: &[&[i64]], b: &[i64]) -> Vec<Rational> {
        match solve(a, b) {
            SimplexOutcome::Feasible(x) => {
                for (lhs, &bi) in apply(a, &x).iter().zip(b) {
                    assert!(*lhs >= Rational::from(bi), "row violated: {lhs} < {bi}");
                }
                for v in &x {
                    assert!(!v.is_negative(), "negative component in witness");
                }
                x
            }
            SimplexOutcome::Infeasible => panic!("expected feasible"),
        }
    }

    #[test]
    fn trivial_origin_is_feasible() {
        // A x >= b with b <= 0 is satisfied by x = 0.
        let x = assert_feasible(&[&[1, 2], &[3, -1]], &[0, -5]);
        assert_eq!(x, rats(&[0, 0]));
    }

    #[test]
    fn single_constraint_needs_positive_x() {
        // x0 + x1 >= 3
        assert_feasible(&[&[1, 1]], &[3]);
    }

    #[test]
    fn infeasible_negative_coefficients() {
        // -x0 - x1 >= 1 with x >= 0 is impossible.
        assert_eq!(solve(&[&[-1, -1]], &[1]), SimplexOutcome::Infeasible);
    }

    #[test]
    fn mixed_system() {
        //  x0 - x1 >= 2
        // -x0 + 3x1 >= 1
        assert_feasible(&[&[1, -1], &[-1, 3]], &[2, 1]);
    }

    #[test]
    fn infeasible_opposing_rows() {
        //  x0 >= 5  and  -x0 >= -2  (i.e. x0 <= 2)
        assert_eq!(solve(&[&[1], &[-1]], &[5, -2]), SimplexOutcome::Infeasible);
    }

    #[test]
    fn paper_running_example() {
        // Homogeneous system from the paper's 3-MPI scaled to >= 1:
        //   -5e1 +  e2 + 3e3 >= 1
        //   -3e1 -  e2 + 3e3 >= 1
        //   - e1 +  e2 -  e3 >= 1
        let a: [&[i64]; 3] = [&[-5, 1, 3], &[-3, -1, 3], &[-1, 1, -1]];
        let x = assert_feasible(&a, &[1, 1, 1]);
        // The paper's solution direction (0, 2, 1) also satisfies the scaled
        // first row.
        assert!(apply(&a, &rats(&[0, 2, 1]))[0] >= Rational::one());
        assert!(!x.iter().all(Rational::is_zero));
    }

    #[test]
    fn infeasible_homogeneous_row_of_zeros() {
        // 0·x >= 1 is impossible.
        assert_eq!(solve(&[&[0, 0, 0]], &[1]), SimplexOutcome::Infeasible);
    }

    #[test]
    fn zero_rhs_rows_are_fine() {
        // x0 - x1 >= 0, x1 >= 2.
        assert_feasible(&[&[1, -1], &[0, 1]], &[0, 2]);
    }

    #[test]
    fn empty_system_is_feasible() {
        let outcome = feasible_point(3, &[], &[]).unwrap();
        assert_eq!(outcome, SimplexOutcome::Feasible(vec![Rational::zero(); 3]));
    }

    #[test]
    fn witnesses_are_canonical_rationals() {
        // 2x0 >= 3 pivots on a non-unit coefficient: the witness 3/2 must
        // come back reduced, not as the stored 3 over denominator 2 scaled
        // by any row gcd.
        let x = assert_feasible(&[&[2]], &[3]);
        assert_eq!(x[0], Rational::from_i64s(3, 2));
        assert_eq!(x[0].denom(), &Natural::from(2u64));
    }

    #[test]
    fn larger_random_like_instance() {
        // A structured 5x4 instance with known solution (1, 2, 3, 4).
        let a: [&[i64]; 5] =
            [&[1, 1, 1, 1], &[2, -1, 0, 1], &[-1, 2, -1, 1], &[0, 0, 3, -2], &[1, 0, 0, 0]];
        let b: Vec<i64> = apply(&a, &rats(&[1, 2, 3, 4]))
            .iter()
            .map(|v| v.numer().to_i64().expect("small integer"))
            .collect();
        assert_feasible(&a, &b);
    }

    #[test]
    fn prunes_nonpositive_rows_without_pivoting() {
        // All coefficients ≤ 0 against b > 0: rejected before any tableau
        // exists, so even a zero iteration budget cannot be exhausted.
        let one = ints(&[1]);
        for a in [[-1i64, -2], [0, 0]] {
            let outcome = feasible_point_with_budget(2, &rows(&[&a]), &one, 0).unwrap();
            assert_eq!(outcome, SimplexOutcome::Infeasible);
        }
        // A mixed-sign row is not prunable and must actually pivot.
        let err = feasible_point_with_budget(2, &rows(&[&[1, -1]]), &ints(&[3]), 0)
            .expect_err("zero budget cannot run a real pivot");
        assert_eq!(err, LinalgError::IterationBudget { iterations: 0 });
    }

    #[test]
    fn exhausted_iteration_budget_is_an_error_not_a_panic() {
        // Regression: the kernel used to `assert!` on the budget, panicking
        // the engine-pool worker that held the pair. A system that genuinely
        // needs pivots must surface a structured error under a budget too
        // small to finish.
        let a = rows(&[&[1, -1], &[-1, 3]]);
        let b = ints(&[2, 1]);
        let err = feasible_point_with_budget(2, &a, &b, 1)
            .expect_err("one iteration cannot finish this system");
        assert_eq!(err, LinalgError::IterationBudget { iterations: 1 });
        assert!(err.to_string().contains("iteration budget of 1"), "{err}");
        // The same system solves fine under the default budget.
        assert!(feasible_point(2, &a, &b).unwrap().is_feasible());
    }

    #[test]
    fn sparse_and_dense_rows_give_identical_outcomes() {
        // The same system fed as Dense and as Sparse rows must produce the
        // same witness (bit-identical pivoting order under Bland's rule).
        let a: [&[i64]; 3] = [&[1, 0, 0, -1, 0], &[0, 2, 0, 0, -1], &[-1, 0, 3, 0, 0]];
        let b = ints(&[1, 2, 3]);
        let dense_rows: Vec<IntRow> = a.iter().map(|row| IntRow::dense(ints(row))).collect();
        let sparse_rows: Vec<IntRow> = a
            .iter()
            .map(|row| {
                IntRow::sparse(
                    row.len(),
                    row.iter()
                        .enumerate()
                        .filter(|(_, &v)| v != 0)
                        .map(|(i, &v)| (i, Integer::from(v)))
                        .collect(),
                )
            })
            .collect();
        let from_dense = feasible_point(5, &dense_rows, &b).unwrap();
        let from_sparse = feasible_point(5, &sparse_rows, &b).unwrap();
        assert_eq!(from_dense, from_sparse);
        assert!(from_dense.is_feasible());
    }

    #[test]
    fn coefficients_past_the_machine_word_survive() {
        // Entries around 2^40: a single cross-multiplication already
        // overflows i64 (the inline Integer variant), so the kernel must
        // promote — and the gcd normalisation must bring values back down
        // so the witness still satisfies the system exactly.
        let big = 1i64 << 40;
        let a: [&[i64]; 3] = [&[big, -big + 1, 3], &[-big + 3, big, -2], &[1, -2, big]];
        assert_feasible(&a, &[1, 1, 1]);
    }
}
