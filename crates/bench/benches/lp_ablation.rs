//! E7 — ablation of the feasibility engine behind Theorem 4.1/4.2:
//! exact phase-1 simplex vs Fourier–Motzkin elimination.
//!
//! Both engines decide the same strict homogeneous systems (and are
//! cross-checked to agree); the sweep over dimension and row count shows
//! Fourier–Motzkin's combinatorial blow-up against the simplex's steady
//! growth — the reason the simplex is the default engine.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use dioph_bench::{bench_rng, random_mpi};
use dioph_linalg::{FeasibilityEngine, StrictHomogeneousSystem};
use rand::Rng;

fn random_system(dimension: usize, rows: usize, rng: &mut impl Rng) -> StrictHomogeneousSystem {
    let mut sys = StrictHomogeneousSystem::new(dimension);
    for _ in 0..rows {
        let row: Vec<i64> = (0..dimension).map(|_| rng.random_range(-4..=6)).collect();
        sys.push_row(row.into_iter().map(dioph_arith::Integer::from).collect());
    }
    sys
}

fn bench_dimension_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7/dimension_sweep");
    for dimension in [2usize, 3, 4, 5, 6] {
        let mut rng = bench_rng();
        let systems: Vec<_> = (0..6).map(|_| random_system(dimension, 8, &mut rng)).collect();
        // Engines must agree on every instance.
        for sys in &systems {
            assert_eq!(
                sys.is_feasible(FeasibilityEngine::Simplex).unwrap(),
                sys.is_feasible(FeasibilityEngine::FourierMotzkin).unwrap(),
            );
        }
        for engine in [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin] {
            group.bench_with_input(
                BenchmarkId::new(format!("{engine:?}"), dimension),
                &systems,
                |b, systems| {
                    b.iter(|| {
                        for sys in systems {
                            black_box(sys.is_feasible(engine).unwrap());
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_row_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7/row_sweep");
    for rows in [4usize, 8, 16, 32] {
        let mut rng = bench_rng();
        let systems: Vec<_> = (0..6).map(|_| random_system(5, rows, &mut rng)).collect();
        // Fourier–Motzkin's pair combinations explode with the row count
        // (every elimination squares the constraint set in the worst case);
        // past 8 rows a single decision takes minutes and tens of gigabytes,
        // so the FM side of the ablation stops where the blow-up starts —
        // which is itself the measurement the ablation exists to show.
        let engines: &[FeasibilityEngine] = if rows <= 8 {
            &[FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin]
        } else {
            &[FeasibilityEngine::Simplex]
        };
        for &engine in engines {
            group.bench_with_input(
                BenchmarkId::new(format!("{engine:?}"), rows),
                &systems,
                |b, systems| {
                    b.iter(|| {
                        for sys in systems {
                            black_box(sys.is_feasible(engine).unwrap());
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_mpi_derived_systems(c: &mut Criterion) {
    // Systems exactly as they arise from compiled MPIs (non-negative
    // exponents, row = e − e_i), rather than uniform random coefficients.
    let mut group = c.benchmark_group("E7/mpi_derived_systems");
    for unknowns in [3usize, 5, 7] {
        let mut rng = bench_rng();
        let systems: Vec<_> =
            (0..6).map(|_| random_mpi(unknowns, 12, 5, &mut rng).to_strict_system()).collect();
        // FM only where it terminates in bench time: the 12-row systems
        // already push its doubly-exponential pair combinations past minutes
        // at 5 unknowns (see the row_sweep note).
        let engines: &[FeasibilityEngine] = if unknowns <= 3 {
            &[FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin]
        } else {
            &[FeasibilityEngine::Simplex]
        };
        for &engine in engines {
            group.bench_with_input(
                BenchmarkId::new(format!("{engine:?}"), unknowns),
                &systems,
                |b, systems| {
                    b.iter(|| {
                        for sys in systems {
                            black_box(sys.is_feasible(engine).unwrap());
                        }
                    });
                },
            );
        }
    }
    group.finish();
}

/// The grown E7 sweep: simplex-only, at dimensions and row counts where the
/// LP's wall-clock is measured in hundreds of milliseconds to seconds per
/// batch — large enough that the arithmetic substrate (small-int fast paths,
/// sparse rows, the fraction-free tableau's per-row gcd) dominates the
/// measurement instead of harness noise. Fourier–Motzkin is excluded here:
/// its doubly-exponential blow-up makes these sizes intractable for it.
fn bench_simplex_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("E7/simplex_scale");
    for dimension in [8usize, 12, 16, 20, 24] {
        let rows = 3 * dimension;
        let batch = if dimension <= 12 { 4 } else { 2 };
        let mut rng = bench_rng();
        let systems: Vec<_> =
            (0..batch).map(|_| random_system(dimension, rows, &mut rng)).collect();
        group.bench_with_input(
            BenchmarkId::new("Simplex", format!("{dimension}x{rows}")),
            &systems,
            |b, systems| {
                b.iter(|| {
                    for sys in systems {
                        black_box(sys.is_feasible(FeasibilityEngine::Simplex).unwrap());
                    }
                });
            },
        );
    }
    // MPI-derived growth: exactly the strict systems Theorem 4.1 produces,
    // at and beyond the sizes where compiled probe batches spend their time.
    for unknowns in [10usize, 14, 18] {
        let terms = 4 * unknowns;
        let batch = if unknowns <= 14 { 4 } else { 2 };
        let mut rng = bench_rng();
        let systems: Vec<_> = (0..batch)
            .map(|_| random_mpi(unknowns, terms, 6, &mut rng).to_strict_system())
            .collect();
        group.bench_with_input(
            BenchmarkId::new("Simplex/mpi", unknowns),
            &systems,
            |b, systems| {
                b.iter(|| {
                    for sys in systems {
                        black_box(sys.is_feasible(FeasibilityEngine::Simplex).unwrap());
                    }
                });
            },
        );
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_dimension_sweep, bench_row_sweep, bench_mpi_derived_systems,
        bench_simplex_scale
}
criterion_main!(benches);
