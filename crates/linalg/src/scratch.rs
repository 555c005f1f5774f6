//! Recycled scratch buffers for the LP kernel — the linalg layer of the
//! workspace's scratch-memory discipline.
//!
//! The phase-1 simplex ([`crate::simplex`]) used to allocate its whole
//! working set per call: the standard-form construction vectors (entry
//! staging, rhs, basis, artificial flags), one `in_basis`
//! bitmap plus one `reduced`-cost vector **per pivot**, and a fresh merge
//! output for every sparse elimination. On the per-probe hot loop of the
//! containment decider those calls happen thousands of times per pair with
//! near-identical shapes, so all of that capacity is recyclable.
//!
//! [`LpScratch`] owns those buffers. [`RowPool`] recycles the sparse entry
//! vectors that back [`IntRow::Sparse`] rows — tableau rows are torn back
//! down into their entry storage at the next `LpScratch::reset` instead of
//! being dropped. The same pool is the recycling home for the rows of a
//! [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem), so one
//! probe's constraint rows become the next probe's tableau rows.
//! Fourier–Motzkin takes no scratch: it is a baseline and a test reference,
//! not on any hot path.
//!
//! Reuse is **capacity-only**: every buffer is cleared before use, so a
//! kernel run through a warmed scratch performs bit-identical arithmetic
//! (same pivot sequence, same witness) to a run through a fresh one. The
//! differential proptests in `tests/scratch_differential.rs` pin that.
//!
//! Observability: a [`RowPool`] miss (a request served by a fresh heap
//! allocation) bumps `alloc.scratch.spills`, and every return to the pool
//! records the pool's high-water mark in `alloc.pool.rows.hwm`.

use dioph_arith::{Integer, Natural, Rational};

use crate::row::{sparse_is_worth_it, IntRow, SparseIntRow};

/// A pool of sparse-row entry vectors: spent rows are torn down into their
/// `Vec<(usize, Integer)>` storage and handed back out, cleared, with their
/// capacity intact.
#[derive(Debug, Default)]
pub struct RowPool {
    spare: Vec<Vec<(usize, Integer)>>,
}

impl RowPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an empty entry vector from the pool, allocating a fresh one
    /// (and counting an `alloc.scratch.spills`) only when the pool is dry.
    pub fn take(&mut self) -> Vec<(usize, Integer)> {
        match self.spare.pop() {
            Some(entries) => entries,
            None => {
                dioph_obs::registry::ALLOC_SCRATCH_SPILLS.incr();
                Vec::new()
            }
        }
    }

    /// Returns an entry vector's capacity to the pool.
    pub fn put(&mut self, mut entries: Vec<(usize, Integer)>) {
        entries.clear();
        self.spare.push(entries);
        dioph_obs::registry::ALLOC_POOL_ROWS_HWM.record_max(self.spare.len() as u64);
    }

    /// Tears a row down, reclaiming its sparse entry storage. Dense storage
    /// is simply dropped — the systems of the paper's reduction stay sparse
    /// end to end, so dense rows are the exception, not the steady state.
    pub fn reclaim(&mut self, row: IntRow) {
        if let IntRow::Sparse(sparse) = row {
            self.put(sparse.entries);
        }
    }

    /// Number of entry vectors currently held.
    pub fn held(&self) -> usize {
        self.spare.len()
    }
}

/// [`IntRow::auto`] with pooled storage: identical representation choice,
/// but when the dense side wins the (now spent) entry vector goes back to
/// the pool instead of being dropped.
pub(crate) fn auto_pooled(
    dim: usize,
    entries: Vec<(usize, Integer)>,
    pool: &mut RowPool,
) -> IntRow {
    let sparse = SparseIntRow::new(dim, entries);
    if sparse_is_worth_it(sparse.nnz(), dim) {
        IntRow::Sparse(sparse)
    } else {
        let mut out = vec![Integer::zero(); dim]; // alloc-ok: dense rows bypass the pool
        let mut entries = sparse.entries;
        for (col, value) in entries.drain(..) {
            out[col] = value;
        }
        pool.put(entries);
        IntRow::Dense(out)
    }
}

/// The per-call working set of the phase-1 simplex, with every buffer
/// recycled across calls — one per worker.
///
/// The row pool ([`LpScratch::int_pool`]) is also the recycling home for
/// [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem) rows — the
/// MPI layer builds its systems from the same storage the simplex tableau
/// draws on.
#[derive(Debug, Default)]
pub struct LpScratch {
    /// Standard-form construction: which rows need an artificial variable.
    pub(crate) needs_artificial: Vec<bool>,
    /// Standard-form construction: entry vectors staged between the two
    /// construction passes (drained into `rows` once the artificial count
    /// is known).
    pub(crate) staged: Vec<Vec<(usize, Integer)>>,
    /// The tableau rows.
    pub(crate) rows: Vec<IntRow>,
    /// The right-hand sides.
    pub(crate) rhs: Vec<Integer>,
    /// Per-row positive denominators: row `i` represents `rows[i] / dens[i]`.
    pub(crate) dens: Vec<Natural>,
    /// The current basis, one column index per row.
    pub(crate) basis: Vec<usize>,
    /// Per-pivot bitmap of basic columns (hoisted out of the pivot loop).
    pub(crate) in_basis: Vec<bool>,
    /// Per-pivot reduced-cost vector (hoisted out of the pivot loop).
    pub(crate) reduced: Vec<Rational>,
    /// Spare output buffer for the sparse elimination merge; after each
    /// merge it holds the eliminated row's previous entries, ready for the
    /// next one.
    pub(crate) merge_buf: Vec<(usize, Integer)>,
    /// Recycled entry storage backing the sparse rows above.
    pub(crate) pool: RowPool,
}

impl LpScratch {
    /// A cold scratch; buffers warm up over the first call and are recycled
    /// from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared row pool, for callers that build
    /// [`StrictHomogeneousSystem`](crate::StrictHomogeneousSystem) rows out
    /// of recycled storage.
    pub fn int_pool(&mut self) -> &mut RowPool {
        &mut self.pool
    }

    /// Clears every buffer for a new kernel run, tearing the previous run's
    /// rows back down into the pool. Capacity is kept everywhere.
    pub(crate) fn reset(&mut self) {
        self.needs_artificial.clear();
        for entries in self.staged.drain(..) {
            self.pool.put(entries);
        }
        for row in self.rows.drain(..) {
            self.pool.reclaim(row);
        }
        self.rhs.clear();
        self.dens.clear();
        self.basis.clear();
        self.in_basis.clear();
        self.reduced.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_round_trips_sparse_entry_storage() {
        let mut pool = RowPool::new();
        assert_eq!(pool.held(), 0);
        let mut entries = pool.take();
        entries.push((1, Integer::from(7)));
        let capacity = entries.capacity();
        let row = IntRow::sparse(4, entries);
        pool.reclaim(row);
        assert_eq!(pool.held(), 1);
        let recycled = pool.take();
        assert!(recycled.is_empty());
        assert_eq!(recycled.capacity(), capacity, "capacity must survive the round trip");
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn dense_rows_are_dropped_not_pooled() {
        let mut pool = RowPool::new();
        pool.reclaim(IntRow::dense(vec![Integer::one(), Integer::one()]));
        assert_eq!(pool.held(), 0);
    }

    #[test]
    fn auto_pooled_matches_auto_and_recycles_the_dense_side() {
        let mut pool = RowPool::new();
        // Sparse-worthy entries: representation matches `auto`, storage kept.
        let sparse_entries = vec![(1, Integer::from(3))];
        let row = auto_pooled(8, sparse_entries.clone(), &mut pool);
        assert_eq!(row, IntRow::auto(8, sparse_entries));
        assert_eq!(pool.held(), 0);
        // Dense-worthy entries: representation matches `auto`, the spent
        // entry vector lands in the pool.
        let dense_entries: Vec<(usize, Integer)> =
            (0..3).map(|i| (i, Integer::from(i as i64 + 1))).collect();
        let row = auto_pooled(4, dense_entries.clone(), &mut pool);
        assert_eq!(row, IntRow::auto(4, dense_entries));
        assert_eq!(pool.held(), 1);
    }

    #[test]
    fn reset_reclaims_rows_and_staged_entries() {
        let mut scratch = LpScratch::new();
        scratch.staged.push(vec![(0, Integer::one())]);
        scratch.rows.push(IntRow::sparse(4, vec![(2, Integer::from(5))]));
        scratch.rhs.push(Integer::one());
        scratch.basis.push(0);
        scratch.reset();
        assert!(scratch.staged.is_empty());
        assert!(scratch.rows.is_empty());
        assert!(scratch.rhs.is_empty());
        assert!(scratch.basis.is_empty());
        assert_eq!(scratch.pool.held(), 2, "both entry vectors must be recycled");
    }
}
