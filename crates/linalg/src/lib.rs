//! # dioph-linalg — exact integer feasibility for strict homogeneous systems
//!
//! The decision procedure of *"Attacking Diophantus"* (PODS 2019) hinges on
//! Theorem 4.1: a monomial–polynomial inequality has a Diophantine solution
//! iff an associated **strict homogeneous linear system**
//! `(e − e_i)·ε > 0, ε ≥ 0` is feasible, and (Theorem 4.2) the latter
//! question is decidable in polynomial time.
//!
//! This crate provides that substrate, fully self-contained:
//!
//! * [`StrictHomogeneousSystem`] — the exact shape produced by the paper's
//!   reduction, with natural-number witness extraction
//!   ([`StrictHomogeneousSystem::natural_solution`]);
//! * [`IntRow`] — the one row type both engines pivot and eliminate over:
//!   integer coefficients, stored sparsely while at most half non-zero, so
//!   zero-skipping comes from the representation instead of per-loop
//!   checks;
//! * [`simplex`] — an exact phase-1 simplex for `A·x ≥ b, x ≥ 0` (the
//!   scalable engine). It is fraction-free: every intermediate value stays
//!   an integer, and each row takes a single exact gcd division per pivot
//!   instead of a rational reduction per entry;
//! * [`fourier_motzkin`] — Fourier–Motzkin elimination with witness
//!   extraction (the "obviously correct" engine, and the reference the
//!   simplex is tested against), on the same integer rows with the same
//!   gcd normalisation.
//!
//! Rationals appear only where a witness is read off.
//!
//! ```
//! use dioph_linalg::{FeasibilityEngine, StrictHomogeneousSystem};
//!
//! // The homogeneous system derived from the paper's running 3-MPI.
//! let mut sys = StrictHomogeneousSystem::new(3);
//! sys.push_row_i64(&[-5, 1, 3]);
//! sys.push_row_i64(&[-3, -1, 3]);
//! sys.push_row_i64(&[-1, 1, -1]);
//! let witness = sys.natural_solution(FeasibilityEngine::Simplex).unwrap().unwrap();
//! assert!(sys.is_satisfied_by_naturals(&witness));
//! // Fourier–Motzkin reaches the same verdict.
//! assert!(sys.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod feasibility;
pub mod fourier_motzkin;
pub mod row;
pub mod scratch;
pub mod simplex;

pub use error::LinalgError;
pub use feasibility::{scale_to_naturals, FeasibilityEngine, StrictHomogeneousSystem};
pub use fourier_motzkin::FmOutcome;
pub use row::{IntRow, SparseIntRow};
pub use scratch::{LpScratch, RowPool};
pub use simplex::SimplexOutcome;
