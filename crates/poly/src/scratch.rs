//! The MPI layer of the scratch-memory discipline.
//!
//! Deciding one probe means building the strict homogeneous system of
//! Theorem 4.1 from the probe's MPI and handing it to an LP kernel. Both
//! halves used to allocate per call: one entry vector per polynomial term
//! plus a fresh [`StrictHomogeneousSystem`], then the kernel's whole working
//! set. [`MpiScratch`] owns a recycled system and the
//! [`LpScratch`](dioph_linalg::LpScratch) below it; the system's rows are
//! built from — and torn back down into — the scratch's shared integer
//! entry pool, so a warmed scratch rebuilds and decides the Theorem 4.1
//! system of each successive probe without fresh heap allocations.
//! [`MpiScratch::build_system`] takes the MPI as raw exponent vectors, so a
//! caller that assembled them in its own scratch (the probe compiler) needs
//! no [`Mpi`](crate::Mpi) value at all.
//!
//! Reuse is capacity-only: [`MpiScratch::build_system`] produces a system
//! equal to [`Mpi::to_strict_system`], and solving it in place gives the
//! bit-identical direction — and, through [`Mpi::witness_from_direction`],
//! witness — of the scratch-free route.
//!
//! [`Mpi::to_strict_system`]: crate::Mpi::to_strict_system
//! [`Mpi::witness_from_direction`]: crate::Mpi::witness_from_direction

use dioph_linalg::{LpScratch, StrictHomogeneousSystem};

/// Recycled buffers for MPI-system construction and LP solving: one value
/// per worker serves every probe that worker decides.
#[derive(Debug, Default)]
pub struct MpiScratch {
    /// The recycled Theorem 4.1 system (rows rebuilt per probe).
    pub(crate) sys: StrictHomogeneousSystem,
    /// The LP kernels' recycled working set; its integer entry pool also
    /// backs the rows of `sys`.
    pub(crate) lp: LpScratch,
}

impl MpiScratch {
    /// A cold scratch; buffers warm up over the first probe and are
    /// recycled from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// The system built by the last [`build_system`] call (for callers
    /// that inspect the system after deciding it).
    ///
    /// [`build_system`]: Self::build_system
    pub fn system(&self) -> &StrictHomogeneousSystem {
        &self.sys
    }
}
