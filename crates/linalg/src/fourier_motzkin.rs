//! Fourier–Motzkin elimination over integer rows.
//!
//! This is the "obviously correct" feasibility engine: the E7 baseline and
//! the reference the simplex is tested against. It decides the two shapes
//! the crate decides, both over non-negative unknowns:
//!
//! * `A·x ≥ b, x ≥ 0` — [`feasible_point`], the mirror of
//!   [`simplex::feasible_point`](crate::simplex::feasible_point);
//! * the strict homogeneous `A·x > 0, x ≥ 0` of Theorem 4.1 — through
//!   [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem) with
//!   [`FeasibilityEngine::FourierMotzkin`](crate::FeasibilityEngine).
//!
//! When the system is feasible, a witness point is produced by
//! back-substitution. The worst case is doubly exponential in the number of
//! variables, which is acceptable for the moderate dimensions arising from
//! bag-containment instances and invaluable as a cross-check for the simplex
//! (see experiment E7).
//!
//! Every constraint is an integer [`IntRow`] with an integer constant.
//! Combining a lower and an upper bound on a variable is the simplex's own
//! fraction-free elimination step, followed by the same gcd normalisation
//! the simplex applies per pivot, so every row stays primitive and
//! coefficients grow only as far as the combination genuinely needs.
//! Dividing a row and its constant by a positive number leaves each
//! back-substitution bound `(c − r·x)/a` unchanged, so normalisation changes
//! no verdict and no witness. Only back-substitution, which produces the
//! witness, computes in rationals.

use dioph_arith::{Integer, Natural, Rational};

use crate::row::{normalise_row, IntRow};

/// A constraint `row · x ≤ constant` (`<` when strict), with the row and
/// the constant divided by their common gcd.
#[derive(Clone, Debug)]
struct UpperForm {
    row: IntRow,
    strict: bool,
    constant: Integer,
}

impl UpperForm {
    fn new(mut row: IntRow, strict: bool, mut constant: Integer) -> UpperForm {
        normalise_row(&mut row, &mut constant, &Natural::zero());
        UpperForm { row, strict, constant }
    }

    /// The upper form `−a·x ≤ −b` of the constraint `a·x ≥ b` (`<` and `>`
    /// when strict).
    fn at_least(a: &IntRow, b: Integer, strict: bool) -> UpperForm {
        let mut row = a.clone();
        row.negate();
        UpperForm::new(row, strict, -b)
    }

    /// `true` iff the constraint holds at the origin — the verdict on a
    /// ground constraint, once every variable is eliminated.
    fn holds_at_origin(&self) -> bool {
        if self.strict {
            self.constant.is_positive()
        } else {
            !self.constant.is_negative()
        }
    }

    /// The bound `(constant − row·x) / row[var]` this form puts on `x_var`,
    /// with its strictness. `x_var` itself is still zero in `point` (and
    /// every higher variable was eliminated from the form), so the dot
    /// product covers exactly the variables already chosen.
    fn bound(&self, var: usize, point: &[Rational]) -> (Rational, bool) {
        let coeff = self.row.get(var).expect("a recorded bound mentions its variable");
        let rest = self.row.dot(point);
        (&(&Rational::from(&self.constant) - &rest) / &Rational::from(coeff), self.strict)
    }
}

/// Bounds recorded when a variable is eliminated, used for back-substitution.
struct EliminationStep {
    /// Index of the eliminated variable.
    var: usize,
    /// Forms with a negative coefficient on `var`: lower bounds on it.
    lowers: Vec<UpperForm>,
    /// Forms with a positive coefficient on `var`: upper bounds on it.
    uppers: Vec<UpperForm>,
}

/// Outcome of running Fourier–Motzkin elimination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FmOutcome {
    /// The system is feasible; a rational witness point is attached.
    Feasible(Vec<Rational>),
    /// The system has no rational solution.
    Infeasible,
}

impl FmOutcome {
    /// Returns the witness if feasible.
    pub fn witness(&self) -> Option<&[Rational]> {
        match self {
            FmOutcome::Feasible(w) => Some(w),
            FmOutcome::Infeasible => None,
        }
    }

    /// `true` iff the system was found feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, FmOutcome::Feasible(_))
    }
}

/// Finds `x ≥ 0` with `A·x ≥ b` (row-wise) for integer rows `A`, if such a
/// point exists — the reference for
/// [`simplex::feasible_point`](crate::simplex::feasible_point), on the same
/// inputs. The witness satisfies every row (asserted in debug builds).
///
/// # Panics
/// Panics if a row's dimension differs from `n`, or if the number of rows
/// differs from the length of `b`.
pub fn feasible_point(n: usize, a: &[IntRow], b: &[Integer]) -> FmOutcome {
    assert_eq!(a.len(), b.len(), "row count mismatch between A and b");
    let outcome = solve(n, a, |i| b[i].clone(), false);
    if let FmOutcome::Feasible(x) = &outcome {
        debug_assert!(
            a.iter().zip(b).all(|(row, b_i)| row.dot(x) >= Rational::from(b_i)),
            "FM witness must satisfy A·x ≥ b"
        );
    }
    outcome
}

/// Finds `x ≥ 0` with `A·x > 0` (row-wise), if such a point exists: the
/// Fourier–Motzkin route of
/// [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem).
pub(crate) fn strictly_feasible_point(n: usize, a: &[IntRow]) -> FmOutcome {
    solve(n, a, |_| Integer::zero(), true)
}

/// Decides `A·x ≥ rhs(i)` (`>` when `strict`) together with `x ≥ 0`.
fn solve(n: usize, a: &[IntRow], rhs: impl Fn(usize) -> Integer, strict: bool) -> FmOutcome {
    for row in a {
        assert_eq!(row.dim(), n, "row dimension mismatch in Fourier–Motzkin input");
    }
    let mut forms: Vec<UpperForm> = Vec::with_capacity(a.len() + n);
    for (i, row) in a.iter().enumerate() {
        forms.push(UpperForm::at_least(row, rhs(i), strict));
    }
    // x_j ≥ 0 as −x_j ≤ 0: every variable keeps this lower bound until it
    // is eliminated.
    for j in 0..n {
        let row = IntRow::sparse(n, vec![(j, Integer::minus_one())]);
        forms.push(UpperForm { row, strict: false, constant: Integer::zero() });
    }
    let (steps, ground) = eliminate(n, forms);
    if ground.iter().all(UpperForm::holds_at_origin) {
        FmOutcome::Feasible(back_substitute(n, &steps))
    } else {
        FmOutcome::Infeasible
    }
}

/// Eliminates the variables from the highest index down to 0, recording
/// each variable's bounds; returns the steps and the ground constraints
/// left once every variable is gone.
fn eliminate(dim: usize, mut current: Vec<UpperForm>) -> (Vec<EliminationStep>, Vec<UpperForm>) {
    let mut steps: Vec<EliminationStep> = Vec::with_capacity(dim);
    let mut spare = Vec::new();
    for var in (0..dim).rev() {
        let mut lowers = Vec::new();
        let mut uppers = Vec::new();
        let mut rest = Vec::new();
        for c in current {
            match c.row.get(var) {
                None => rest.push(c),
                Some(coeff) if coeff.is_positive() => uppers.push(c),
                Some(_) => lowers.push(c),
            }
        }
        // Combine every (lower, upper) pair. With l < 0 the lower form's
        // coefficient on x_var and u > 0 the upper form's, u·lo − l·up
        // cancels x_var with both multipliers positive, which keeps the
        // direction of the inequality.
        for lo in &lowers {
            for up in &uppers {
                let u = up.row.get(var).expect("upper bound has the variable");
                let mut row = lo.row.clone();
                let l = row.take(var);
                row.eliminate(u, &l, &up.row, var, &mut spare);
                row.resparsify();
                let constant = &(u * &lo.constant) - &(&l * &up.constant);
                rest.push(UpperForm::new(row, lo.strict || up.strict, constant));
            }
        }
        dioph_obs::registry::LP_FM_ELIMINATIONS.incr();
        steps.push(EliminationStep { var, lowers, uppers });
        current = rest;
    }
    debug_assert!(current.iter().all(|c| c.row.is_zero_row()), "ground constraints only");
    (steps, current)
}

/// Back-substitution: steps were pushed from the highest variable down, so
/// processing them in reverse order assigns x_0 first, each variable inside
/// the interval its recorded bounds leave given the values already chosen.
fn back_substitute(dim: usize, steps: &[EliminationStep]) -> Vec<Rational> {
    let mut point = vec![Rational::zero(); dim];
    for step in steps.iter().rev() {
        let var = step.var;
        let lower = step
            .lowers
            .iter()
            .map(|lo| lo.bound(var, &point))
            .reduce(tighter_lower)
            .expect("every variable keeps its non-negativity lower bound");
        let upper = step.uppers.iter().map(|up| up.bound(var, &point)).reduce(tighter_upper);
        point[var] = pick_value(lower, upper);
    }
    point
}

fn tighter_lower(a: (Rational, bool), b: (Rational, bool)) -> (Rational, bool) {
    match a.0.cmp(&b.0) {
        core::cmp::Ordering::Greater => a,
        core::cmp::Ordering::Less => b,
        core::cmp::Ordering::Equal => (a.0, a.1 || b.1),
    }
}

fn tighter_upper(a: (Rational, bool), b: (Rational, bool)) -> (Rational, bool) {
    match a.0.cmp(&b.0) {
        core::cmp::Ordering::Less => a,
        core::cmp::Ordering::Greater => b,
        core::cmp::Ordering::Equal => (a.0, a.1 || b.1),
    }
}

/// Picks a value inside the (guaranteed non-empty) interval described by a
/// lower bound and an optional upper bound, each with its strictness.
fn pick_value((l, ls): (Rational, bool), upper: Option<(Rational, bool)>) -> Rational {
    let Some((u, us)) = upper else {
        return if ls { &l + &Rational::one() } else { l };
    };
    debug_assert!(l <= u, "empty interval during back-substitution");
    if l == u {
        debug_assert!(!ls && !us, "point interval with a strict bound");
        l
    } else if !ls {
        // Prefer the lower endpoint when it is achievable: this keeps
        // witnesses small and integral more often.
        l
    } else if !us {
        u
    } else {
        &(&l + &u) / &Rational::from(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(a: &[&[i64]]) -> Vec<IntRow> {
        a.iter()
            .map(|row| {
                IntRow::from_dense_auto(&row.iter().map(|&v| Integer::from(v)).collect::<Vec<_>>())
            })
            .collect()
    }

    fn rats(vals: &[(i64, i64)]) -> Vec<Rational> {
        vals.iter().map(|&(n, d)| Rational::from_i64s(n, d)).collect()
    }

    /// FM on `A·x ≥ b, x ≥ 0`, with the witness checked against the system.
    fn at_least(a: &[&[i64]], b: &[i64]) -> FmOutcome {
        let n = a.first().map_or(0, |row| row.len());
        let b: Vec<Integer> = b.iter().map(|&v| Integer::from(v)).collect();
        let a = rows(a);
        let outcome = feasible_point(n, &a, &b);
        if let FmOutcome::Feasible(x) = &outcome {
            assert!(x.iter().all(|v| !v.is_negative()), "negative component in {x:?}");
            for (row, b_i) in a.iter().zip(&b) {
                assert!(row.dot(x) >= Rational::from(b_i), "{x:?} violates {row} >= {b_i}");
            }
        }
        outcome
    }

    /// FM on `A·x > 0, x ≥ 0`, with the witness checked against the system.
    fn strictly_positive(a: &[&[i64]]) -> FmOutcome {
        let n = a[0].len();
        let a = rows(a);
        let outcome = strictly_feasible_point(n, &a);
        if let FmOutcome::Feasible(x) = &outcome {
            assert!(x.iter().all(|v| !v.is_negative()), "negative component in {x:?}");
            assert!(a.iter().all(|row| row.dot(x).is_positive()), "{x:?} is not strict");
        }
        outcome
    }

    fn witness(outcome: FmOutcome) -> Vec<Rational> {
        match outcome {
            FmOutcome::Feasible(w) => w,
            FmOutcome::Infeasible => panic!("expected a feasible system"),
        }
    }

    #[test]
    fn empty_system_is_feasible() {
        let outcome = feasible_point(3, &[], &[]);
        assert_eq!(outcome, FmOutcome::Feasible(vec![Rational::zero(); 3]));
    }

    #[test]
    fn simple_bounded_region() {
        // 1 <= x <= 3, 2 <= y <= 5, x + y <= 6
        let a: [&[i64]; 5] = [&[1, 0], &[-1, 0], &[0, 1], &[0, -1], &[-1, -1]];
        let w = witness(at_least(&a, &[1, -3, 2, -5, -6]));
        assert_eq!(w, rats(&[(1, 1), (2, 1)]));
    }

    #[test]
    fn infeasible_contradiction() {
        // x >= 2 and x <= 1
        assert_eq!(at_least(&[&[1], &[-1]], &[2, -1]), FmOutcome::Infeasible);
    }

    #[test]
    fn achievable_lower_endpoint_is_preferred() {
        // 1 <= x <= 3: the closed lower endpoint wins (pick_value's lower
        // branch).
        assert_eq!(witness(at_least(&[&[1], &[-1]], &[1, -3])), rats(&[(1, 1)]));
    }

    #[test]
    fn point_interval_takes_its_only_value() {
        // x >= 1 and x <= 1 (pick_value's equal branch).
        assert_eq!(witness(at_least(&[&[1], &[-1]], &[1, -1])), rats(&[(1, 1)]));
    }

    #[test]
    fn strict_lower_bound_takes_a_closed_upper_endpoint() {
        // Neither accepted shape pairs a strict lower bound with a closed
        // upper one (strict rows only come homogeneous, where every closed
        // bound is a non-negativity lower bound), so pick_value's upper
        // branch is exercised directly: 0 < x <= 2 picks 2.
        let value = pick_value((Rational::zero(), true), Some((Rational::from(2), false)));
        assert_eq!(value, Rational::from(2));
    }

    #[test]
    fn strict_open_interval_needs_midpoint() {
        // ε1 - ε0 > 0 and 2ε0 - ε1 > 0: after ε0 = 1, ε1 lies in the open
        // interval (1, 2) (pick_value's midpoint branch).
        let w = witness(strictly_positive(&[&[-1, 1], &[2, -1]]));
        assert_eq!(w, rats(&[(1, 1), (3, 2)]));
    }

    #[test]
    fn strictness_matters() {
        // ε0 - ε1 >= 0 and ε1 - ε0 >= 0 hold at the origin; the strict
        // versions cannot both hold.
        let a: [&[i64]; 2] = [&[1, -1], &[-1, 1]];
        assert_eq!(witness(at_least(&a, &[0, 0])), rats(&[(0, 1), (0, 1)]));
        assert_eq!(strictly_positive(&a), FmOutcome::Infeasible);
    }

    #[test]
    fn equality_constraints() {
        // x + y = 4, x - y = 2 (each as two opposite rows)  =>  x = 3, y = 1
        let a: [&[i64]; 4] = [&[1, 1], &[-1, -1], &[1, -1], &[-1, 1]];
        assert_eq!(witness(at_least(&a, &[4, -4, 2, -2])), rats(&[(3, 1), (1, 1)]));
    }

    #[test]
    fn paper_running_example_system() {
        // The homogeneous system derived from the paper's 3-MPI (Section 4):
        //   -5e1 +  e2 + 3e3 > 0
        //   -3e1 -  e2 + 3e3 > 0
        //   - e1 +  e2 -  e3 > 0   (corrected from the paper's typo; see dioph-poly::mpi tests)
        // together with e_i >= 0. The paper exhibits the solution (0, 2, 1);
        // FM finds the direction (0, 1, 2/3).
        let a: [&[i64]; 3] = [&[-5, 1, 3], &[-3, -1, 3], &[-1, 1, -1]];
        assert_eq!(witness(strictly_positive(&a)), rats(&[(0, 1), (1, 1), (2, 3)]));
    }

    #[test]
    fn unsolvable_homogeneous_system() {
        // From the unsolvable 1-MPI u^4 + u^2 < u^4: exponents give
        // (4-4)ε > 0 and (4-2)ε > 0 with ε >= 0 — the first is impossible.
        assert_eq!(strictly_positive(&[&[0], &[2]]), FmOutcome::Infeasible);
    }

    #[test]
    fn unbounded_direction_found() {
        // x - y >= 3 with both nonnegative: feasible at (3, 0).
        assert_eq!(witness(at_least(&[&[1, -1]], &[3])), rats(&[(3, 1), (0, 1)]));
    }

    #[test]
    fn higher_dimensional_equalities_and_inequalities() {
        // x0 + x1 + x2 + x3 = 10, x0 = x1, x2 >= 4, x3 >= 2, all >= 0.
        let a: [&[i64]; 6] = [
            &[1, 1, 1, 1],
            &[-1, -1, -1, -1],
            &[1, -1, 0, 0],
            &[-1, 1, 0, 0],
            &[0, 0, 1, 0],
            &[0, 0, 0, 1],
        ];
        let w = witness(at_least(&a, &[10, -10, 0, 0, 4, 2]));
        assert_eq!(w, rats(&[(0, 1), (0, 1), (4, 1), (6, 1)]));
    }

    /// The gcd of a form's row entries and constant.
    fn content(form: &UpperForm) -> Natural {
        form.row
            .iter_nonzero()
            .fold(form.constant.magnitude(), |g, (_, v)| v.gcd(&Integer::from(g)))
    }

    #[test]
    fn combined_rows_stay_primitive() {
        // x0 - 2x1 <= 0 and x0 + 2x1 <= 4 combine on x1 as 2·lo + 2·up =
        // 4x0 <= 8, which must be stored as x0 <= 2. Non-primitive inputs
        // (6x0 - 3x1 >= 3) are reduced on the way in too.
        let a = rows(&[&[-1, 2], &[-1, -2], &[6, -3], &[0, 1]]);
        let b: Vec<Integer> = [0, -4, 3, 0].iter().map(|&v| Integer::from(v)).collect();
        let mut forms: Vec<UpperForm> = a
            .iter()
            .zip(&b)
            .map(|(row, b_i)| UpperForm::at_least(row, b_i.clone(), false))
            .collect();
        forms.push(UpperForm::at_least(&rows(&[&[1, 0]])[0], Integer::zero(), false));
        let (steps, ground) = eliminate(2, forms);
        let recorded = steps.iter().flat_map(|step| step.lowers.iter().chain(&step.uppers));
        let mut checked = 0;
        for form in recorded.chain(&ground) {
            if !form.row.is_zero_row() || !form.constant.is_zero() {
                assert!(
                    content(form).is_one(),
                    "{} <= {} is not primitive",
                    form.row,
                    form.constant
                );
                checked += 1;
            }
        }
        assert!(checked > a.len(), "combinations must have been recorded");
        let x0_bound = &steps[1].uppers;
        assert!(
            x0_bound.iter().any(|f| f.row.to_dense_vec() == [Integer::one(), Integer::zero()]
                && f.constant == Integer::from(2)),
            "4x0 <= 8 must be stored as x0 <= 2"
        );
    }
}
