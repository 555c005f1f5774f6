//! Property-based tests for the feasibility engines.
//!
//! The central invariants:
//! * Fourier–Motzkin and the exact simplex agree on feasibility of strict
//!   homogeneous systems (the shape produced by the paper's Theorem 4.1) and
//!   of `A·x ≥ b, x ≥ 0` systems, including past the machine word;
//! * every witness returned actually satisfies the system it was asked about;
//! * natural witnesses scale correctly from rational ones;
//! * dense and sparse [`IntRow`] inputs drive the simplex to identical
//!   outcomes (the pivot order under Bland's rule is
//!   representation-independent).

use dioph_arith::{Integer, Rational};
use dioph_linalg::{
    fourier_motzkin, simplex, FeasibilityEngine, FmOutcome, IntRow, StrictHomogeneousSystem,
};
use proptest::prelude::*;

/// A random strict homogeneous system with small integer coefficients.
fn shs_strategy() -> impl Strategy<Value = StrictHomogeneousSystem> {
    (1usize..5, 1usize..6).prop_flat_map(|(dim, rows)| {
        proptest::collection::vec(proptest::collection::vec(-5i64..=5, dim), rows).prop_map(
            move |rows| {
                let mut sys = StrictHomogeneousSystem::new(dim);
                for row in rows {
                    sys.push_row(row.into_iter().map(Integer::from).collect());
                }
                sys
            },
        )
    })
}

/// A random `A·x ≥ b` system (non-negative unknowns implied) with small
/// integer coefficients and right-hand sides of either sign.
fn at_least_strategy() -> impl Strategy<Value = (usize, Vec<IntRow>, Vec<Integer>)> {
    (1usize..4, 1usize..5).prop_flat_map(|(dim, rows)| {
        let row = (proptest::collection::vec(-4i64..=4, dim), -6i64..=6);
        proptest::collection::vec(row, rows).prop_map(move |rows| {
            let (a, b): (Vec<IntRow>, Vec<Integer>) = rows
                .into_iter()
                .map(|(coeffs, rhs)| {
                    let coeffs: Vec<Integer> = coeffs.into_iter().map(Integer::from).collect();
                    (IntRow::from_dense_auto(&coeffs), Integer::from(rhs))
                })
                .unzip();
            (dim, a, b)
        })
    })
}

/// `true` iff `x ≥ 0` and `A·x ≥ b` row-wise.
fn satisfies_at_least(a: &[IntRow], b: &[Integer], x: &[Rational]) -> bool {
    x.iter().all(|v| !v.is_negative())
        && a.iter().zip(b).all(|(row, b_i)| row.dot(x) >= Rational::from(b_i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The two engines must agree on every strict homogeneous system, and
    /// each rational witness must satisfy the system it answers (checked
    /// before any scaling to naturals).
    #[test]
    fn engines_agree_on_strict_homogeneous_systems(sys in shs_strategy()) {
        let simplex = sys.rational_solution(FeasibilityEngine::Simplex).unwrap();
        let fm = sys.rational_solution(FeasibilityEngine::FourierMotzkin).unwrap();
        prop_assert_eq!(simplex.is_some(), fm.is_some(), "engines disagree on {:?}", sys);
        for witness in simplex.iter().chain(&fm) {
            prop_assert!(sys.is_satisfied_by(witness), "{:?} fails {:?}", witness, sys);
        }
    }

    /// Natural witnesses must satisfy the system (both engines).
    #[test]
    fn natural_witnesses_are_valid(sys in shs_strategy()) {
        for engine in [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin] {
            if let Some(w) = sys.natural_solution(engine).unwrap() {
                prop_assert_eq!(w.len(), sys.dimension());
                prop_assert!(sys.is_satisfied_by_naturals(&w), "{:?} gave invalid witness {:?} for {:?}", engine, w, sys);
            }
        }
    }

    /// Scaling the system's rows by positive constants does not change
    /// feasibility (homogeneity).
    #[test]
    fn row_scaling_preserves_feasibility(sys in shs_strategy(), scale in 1i64..8) {
        let mut scaled = StrictHomogeneousSystem::new(sys.dimension());
        for row in sys.rows() {
            scaled.push_row(
                row.to_dense_vec().iter().map(|c| c * &Integer::from(scale)).collect(),
            );
        }
        prop_assert_eq!(
            sys.is_feasible(FeasibilityEngine::Simplex).unwrap(),
            scaled.is_feasible(FeasibilityEngine::Simplex).unwrap()
        );
    }

    /// Fourier–Motzkin keeps every row primitive, which is sound because a
    /// positive row scale never moves a back-substitution bound: scaling
    /// each row (and its right-hand side) by its own positive factor must
    /// leave the witness bit-identical, on both accepted shapes.
    #[test]
    fn fm_witnesses_are_invariant_under_positive_row_scaling(
        (dim, a, b) in at_least_strategy(),
        scales in proptest::collection::vec(1i64..8, 5),
    ) {
        let scale = |i: usize| Integer::from(scales[i % scales.len()]);
        let scaled_rows: Vec<IntRow> = a
            .iter()
            .enumerate()
            .map(|(i, row)| {
                IntRow::from_dense_auto(
                    &row.to_dense_vec().iter().map(|c| c * &scale(i)).collect::<Vec<_>>(),
                )
            })
            .collect();
        let scaled_b: Vec<Integer> = b.iter().enumerate().map(|(i, b_i)| b_i * &scale(i)).collect();
        prop_assert_eq!(
            fourier_motzkin::feasible_point(dim, &a, &b),
            fourier_motzkin::feasible_point(dim, &scaled_rows, &scaled_b)
        );
        let strict = |rows: &[IntRow]| {
            let mut sys = StrictHomogeneousSystem::new(dim);
            for row in rows {
                sys.push_row(row.to_dense_vec());
            }
            sys.rational_solution(FeasibilityEngine::FourierMotzkin).unwrap()
        };
        prop_assert_eq!(strict(&a), strict(&scaled_rows));
    }

    /// Adding a row can only shrink the feasible set.
    #[test]
    fn adding_rows_is_monotone(sys in shs_strategy(), extra in proptest::collection::vec(-5i64..=5, 1..5)) {
        let feasible_before = sys.is_feasible(FeasibilityEngine::Simplex).unwrap();
        let mut bigger = sys.clone();
        let mut row = extra;
        row.resize(sys.dimension(), 0);
        bigger.push_row(row.into_iter().map(Integer::from).collect());
        let feasible_after = bigger.is_feasible(FeasibilityEngine::Simplex).unwrap();
        if feasible_after {
            prop_assert!(feasible_before, "adding a constraint made an infeasible system feasible");
        }
    }

    /// The simplex must behave identically — same outcome, same witness —
    /// whether a system's rows arrive dense or sparse: Bland's rule is a
    /// function of coefficient *values*, never of their storage.
    #[test]
    fn simplex_outcome_is_representation_independent(sys in shs_strategy()) {
        let dim = sys.dimension();
        let dense_rows: Vec<IntRow> =
            sys.rows().iter().map(|row| IntRow::dense(row.to_dense_vec())).collect();
        let sparse_rows: Vec<IntRow> = sys
            .rows()
            .iter()
            .map(|row| IntRow::sparse(dim, row.iter_nonzero().map(|(c, v)| (c, v.clone())).collect()))
            .collect();
        let b = vec![Integer::one(); sys.len()];
        let from_dense = simplex::feasible_point(dim, &dense_rows, &b).unwrap();
        let from_sparse = simplex::feasible_point(dim, &sparse_rows, &b).unwrap();
        prop_assert_eq!(&from_dense, &from_sparse, "representations diverged on {:?}", sys);
        // And both agree with the public front door.
        prop_assert_eq!(
            from_dense.witness().map(<[Rational]>::to_vec),
            sys.rational_solution(FeasibilityEngine::Simplex).unwrap()
        );
    }

    /// Past the machine word: coefficients near 2^40 force cross-multiplied
    /// pivot values past 2^80, so the hybrid Integer must promote (and the
    /// gcd normalisation must not lose exactness on the way back down). Run
    /// on the raw kernel at non-homogeneous right-hand sides, with
    /// Fourier–Motzkin on the same `A·x ≥ b, x ≥ 0` system as the reference
    /// verdict, and every simplex witness checked against the system.
    #[test]
    fn simplex_exact_division_survives_the_word_boundary(
        base in proptest::collection::vec(proptest::collection::vec(-5i64..=5, 3), 1..5),
        b in proptest::collection::vec(-3i64..=3, 1..5),
        shift in 30u32..45,
    ) {
        let rows = base.len().min(b.len());
        let scale = Integer::from(1i64 << shift);
        let scaled: Vec<Vec<Integer>> = base[..rows]
            .iter()
            .map(|row| row.iter().map(|&v| Integer::from(v) * scale.clone()).collect())
            .collect();
        let int_rows: Vec<IntRow> = scaled.iter().map(|row| IntRow::from_dense_auto(row)).collect();
        let b_int: Vec<Integer> = b[..rows].iter().map(|&v| Integer::from(v)).collect();
        let outcome = simplex::feasible_point(3, &int_rows, &b_int).unwrap();
        let fm = fourier_motzkin::feasible_point(3, &int_rows, &b_int);
        prop_assert_eq!(outcome.is_feasible(), fm.is_feasible());
        for x in outcome.witness().into_iter().chain(fm.witness()) {
            prop_assert!(
                satisfies_at_least(&int_rows, &b_int, x),
                "{:?} fails {:?} >= {:?}", x, int_rows, b_int
            );
        }
    }

    /// FM witnesses for `A·x ≥ b, x ≥ 0` satisfy every constraint, FM and
    /// the simplex agree on the verdict, and an infeasible verdict survives
    /// a spot check of small integer points.
    #[test]
    fn fm_witnesses_satisfy_general_systems((dim, a, b) in at_least_strategy()) {
        let fm = fourier_motzkin::feasible_point(dim, &a, &b);
        let simplex = simplex::feasible_point(dim, &a, &b).unwrap();
        prop_assert_eq!(fm.is_feasible(), simplex.is_feasible(), "engines disagree on {:?} >= {:?}", a, b);
        match fm {
            FmOutcome::Feasible(w) => prop_assert!(satisfies_at_least(&a, &b, &w)),
            FmOutcome::Infeasible => {
                // Spot-check: a handful of small integer points must all fail.
                let candidates: Vec<Vec<Rational>> = (0i64..=2)
                    .flat_map(|v| {
                        (0..dim).map(move |i| {
                            let mut p = vec![Rational::zero(); dim];
                            p[i] = Rational::from(v);
                            p
                        })
                    })
                    .collect();
                for p in candidates {
                    prop_assert!(
                        !satisfies_at_least(&a, &b, &p),
                        "FM said infeasible but {:?} satisfies it", p
                    );
                }
            }
        }
    }
}
