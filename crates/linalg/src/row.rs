//! Shared row storage for the LP engines: dense and sparse coefficient rows
//! behind one abstraction, generic over the coefficient type.
//!
//! The strict homogeneous systems of Theorem 4.1 are mostly zeros: a row
//! `e − e_i` touches only the unknowns appearing in two monomials, and the
//! phase-1 simplex tableau built from it adds one surplus and at most one
//! artificial coefficient to each row — a handful of non-zeros in a tableau
//! whose width grows with the row count. [`GenSparseRow`] stores exactly the
//! non-zero entries (sorted by column); [`GenRow`] lets the pivot/eliminate/
//! combine routines run unchanged over dense and sparse rows, with
//! zero-skipping coming from the representation instead of per-loop checks.
//!
//! Two instantiations are used:
//!
//! * [`IntRow`] (`GenRow<Integer>`) — the integer rows of the fraction-free
//!   [`simplex`](crate::simplex), where every intermediate value stays an
//!   integer and division happens once per row, exactly;
//! * [`Row`] (`GenRow<Rational>`) — the exact rational rows of the
//!   Fourier–Motzkin engine.
//!
//! A sparse row that fills in past half its width during elimination is
//! densified on the spot, so the worst case degrades to the dense algorithm
//! instead of to a slower sparse one. The converse transition is
//! [`GenRow::resparsify`]: elimination can also *cancel* fill-in, and the
//! engines call it at pivot boundaries so a row whose density receded below
//! the threshold goes back to paying for its non-zeros only (without it the
//! densify ratchet was one-way and later passes scanned dense zeros).

use core::fmt;
use core::ops::Neg;

use dioph_arith::{Integer, Rational};

/// The coefficient interface the row machinery needs: a cloneable value with
/// an additive zero, a sign, and negation. Implemented by [`Rational`] and
/// [`Integer`].
pub trait Coeff:
    Clone + PartialEq + Eq + Default + fmt::Display + fmt::Debug + Neg<Output = Self>
{
    /// `true` iff the value is the additive zero ([`Default`] must produce
    /// that zero).
    fn is_zero(&self) -> bool;
    /// `true` iff the value is strictly negative.
    fn is_negative(&self) -> bool;
}

impl Coeff for Rational {
    fn is_zero(&self) -> bool {
        Rational::is_zero(self)
    }
    fn is_negative(&self) -> bool {
        Rational::is_negative(self)
    }
}

impl Coeff for Integer {
    fn is_zero(&self) -> bool {
        Integer::is_zero(self)
    }
    fn is_negative(&self) -> bool {
        Integer::is_negative(self)
    }
}

/// A sparse coefficient row: strictly increasing column indices, no stored
/// zeros.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct GenSparseRow<T> {
    pub(crate) dim: usize,
    pub(crate) entries: Vec<(usize, T)>,
}

/// The rational instantiation of [`GenSparseRow`] (the Fourier–Motzkin
/// rows).
pub type SparseRow = GenSparseRow<Rational>;

impl<T: Coeff> GenSparseRow<T> {
    /// Builds a sparse row over `dim` columns from (column, value) entries.
    ///
    /// # Panics
    /// Panics if the entries are not strictly increasing by column, mention a
    /// column `>= dim`, or contain an explicit zero.
    pub fn new(dim: usize, entries: Vec<(usize, T)>) -> Self {
        let mut prev: Option<usize> = None;
        for (col, value) in &entries {
            assert!(*col < dim, "sparse entry column {col} out of bounds for dimension {dim}");
            assert!(prev.is_none_or(|p| p < *col), "sparse entries must be strictly increasing");
            assert!(!value.is_zero(), "sparse rows must not store zeros");
            prev = Some(*col);
        }
        GenSparseRow { dim, entries }
    }

    /// Number of columns.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The stored entries, sorted by column.
    pub fn entries(&self) -> &[(usize, T)] {
        &self.entries
    }

    fn get(&self, col: usize) -> Option<&T> {
        self.entries.binary_search_by_key(&col, |(c, _)| *c).ok().map(|idx| &self.entries[idx].1)
    }

    fn take(&mut self, col: usize) -> T {
        match self.entries.binary_search_by_key(&col, |(c, _)| *c) {
            Ok(idx) => self.entries.remove(idx).1,
            Err(_) => T::default(),
        }
    }

    pub(crate) fn to_dense(&self) -> Vec<T> {
        let mut out = vec![T::default(); self.dim]; // alloc-ok: densification
        for (col, value) in &self.entries {
            out[*col] = value.clone();
        }
        out
    }
}

/// A coefficient row in either representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GenRow<T> {
    /// Every coefficient stored, zeros included.
    Dense(Vec<T>),
    /// Only the non-zero coefficients stored.
    Sparse(GenSparseRow<T>),
}

/// The exact rational row of the Fourier–Motzkin engine.
pub type Row = GenRow<Rational>;

/// The integer row of the fraction-free simplex.
pub type IntRow = GenRow<Integer>;

/// A sparse row is only worth its bookkeeping while it stays under half
/// full; past that the row is densified (and re-sparsified once it recedes,
/// see [`GenRow::resparsify`]).
const DENSIFY_NUMERATOR: usize = 1;
const DENSIFY_DENOMINATOR: usize = 2;

/// `true` iff a row with `nnz` non-zeros over `dim` columns belongs in the
/// sparse representation.
pub(crate) fn sparse_is_worth_it(nnz: usize, dim: usize) -> bool {
    nnz * DENSIFY_DENOMINATOR <= dim * DENSIFY_NUMERATOR
}

impl<T: Coeff> GenRow<T> {
    /// Builds a dense row.
    pub fn dense(coeffs: Vec<T>) -> Self {
        GenRow::Dense(coeffs)
    }

    /// Builds a sparse row (see [`GenSparseRow::new`] for the invariants).
    pub fn sparse(dim: usize, entries: Vec<(usize, T)>) -> Self {
        GenRow::Sparse(GenSparseRow::new(dim, entries))
    }

    /// Picks a representation for the given entries: sparse while the row is
    /// at most half non-zero, dense otherwise.
    ///
    /// # Panics
    /// Panics if the entries violate the sparse-row invariants (see
    /// [`GenSparseRow::new`]) — enforced on *both* sides of the density
    /// threshold, so a duplicate column can never silently overwrite a
    /// coefficient on the dense path.
    pub fn auto(dim: usize, entries: Vec<(usize, T)>) -> Self {
        let sparse = GenSparseRow::new(dim, entries);
        if sparse_is_worth_it(sparse.nnz(), dim) {
            GenRow::Sparse(sparse)
        } else {
            let mut out = vec![T::default(); dim]; // alloc-ok: densification
            for (col, value) in sparse.entries {
                out[col] = value;
            }
            GenRow::Dense(out)
        }
    }

    /// Builds a row from a dense slice, choosing the representation by the
    /// slice's density.
    pub fn from_dense_auto(coeffs: &[T]) -> Self {
        let entries: Vec<(usize, T)> = coeffs
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_zero())
            .map(|(i, v)| (i, v.clone()))
            .collect();
        GenRow::auto(coeffs.len(), entries)
    }

    /// Number of columns.
    pub fn dim(&self) -> usize {
        match self {
            GenRow::Dense(v) => v.len(),
            GenRow::Sparse(s) => s.dim,
        }
    }

    /// Number of non-zero coefficients.
    pub fn nnz(&self) -> usize {
        match self {
            GenRow::Dense(v) => v.iter().filter(|x| !x.is_zero()).count(),
            GenRow::Sparse(s) => s.nnz(),
        }
    }

    /// The coefficient at `col`; `None` means zero.
    pub fn get(&self, col: usize) -> Option<&T> {
        match self {
            GenRow::Dense(v) => {
                let value = &v[col];
                if value.is_zero() {
                    None
                } else {
                    Some(value)
                }
            }
            GenRow::Sparse(s) => s.get(col),
        }
    }

    /// Removes and returns the coefficient at `col` (zero if absent).
    pub fn take(&mut self, col: usize) -> T {
        match self {
            GenRow::Dense(v) => core::mem::take(&mut v[col]),
            GenRow::Sparse(s) => s.take(col),
        }
    }

    /// Iterates the non-zero coefficients in increasing column order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        // Both arms produce strictly increasing columns, which the sparse
        // merges in the elimination kernels rely on.
        match self {
            GenRow::Dense(v) => RowIter::Dense(v.iter().enumerate()),
            GenRow::Sparse(s) => RowIter::Sparse(s.entries.iter()),
        }
    }

    /// `true` iff every coefficient is zero.
    pub fn is_zero_row(&self) -> bool {
        self.iter_nonzero().next().is_none()
    }

    /// Negates every coefficient in place, reusing allocations.
    pub fn negate(&mut self) {
        match self {
            GenRow::Dense(v) => {
                for value in v.iter_mut() {
                    let taken = core::mem::take(value);
                    *value = -taken;
                }
            }
            GenRow::Sparse(s) => {
                for (_, value) in s.entries.iter_mut() {
                    let taken = core::mem::take(value);
                    *value = -taken;
                }
            }
        }
    }

    /// Moves a dense row back to the sparse representation when its density
    /// has receded to the sparse side of the threshold. Elimination both
    /// creates and *cancels* fill-in; without this the densification in
    /// the simplex's elimination step is a one-way ratchet and later passes scan dense zeros
    /// forever. The engines call it at pivot boundaries (once per updated
    /// row per pivot), so the scan amortises against the elimination that
    /// just walked the same row.
    pub fn resparsify(&mut self) {
        if let GenRow::Dense(v) = self {
            let dim = v.len();
            let nnz = v.iter().filter(|x| !x.is_zero()).count();
            if sparse_is_worth_it(nnz, dim) {
                let entries: Vec<(usize, T)> = v
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, x)| !x.is_zero())
                    .map(|(i, x)| (i, core::mem::take(x)))
                    .collect();
                *self = GenRow::Sparse(GenSparseRow { dim, entries });
            }
        }
    }

    /// `true` iff the representation matches the density threshold: sparse
    /// rows hold at most half their width in non-zeros, dense rows more.
    /// This is the invariant `auto` establishes and the simplex's
    /// elimination step plus [`Self::resparsify`] maintain (asserted by its
    /// tests).
    pub fn representation_is_canonical(&self) -> bool {
        match self {
            GenRow::Dense(_) => !sparse_is_worth_it(self.nnz(), self.dim()),
            GenRow::Sparse(s) => sparse_is_worth_it(s.nnz(), s.dim),
        }
    }

    /// A dense copy of the coefficients (used by displays and tests).
    pub fn to_dense_vec(&self) -> Vec<T> {
        match self {
            GenRow::Dense(v) => v.clone(),
            GenRow::Sparse(s) => s.to_dense(),
        }
    }
}

impl Row {
    /// The shared combination routine: `a_coeff * a + b_coeff * b` as a new
    /// row (the Fourier–Motzkin pair step). Exact zeros produced by
    /// cancellation are dropped.
    ///
    /// # Panics
    /// Panics if the rows have different dimensions.
    pub fn linear_combination(a_coeff: &Rational, a: &Row, b_coeff: &Rational, b: &Row) -> Row {
        assert_eq!(a.dim(), b.dim(), "row dimension mismatch in linear combination");
        let mut entries: Vec<(usize, Rational)> = Vec::with_capacity(a.nnz() + b.nnz());
        let mut ia = a.iter_nonzero().peekable();
        let mut ib = b.iter_nonzero().peekable();
        loop {
            let value = match (ia.peek(), ib.peek()) {
                (None, None) => break,
                (Some(&(ca, va)), Some(&(cb, vb))) if ca == cb => {
                    let v = &(a_coeff * va) + &(b_coeff * vb);
                    ia.next();
                    ib.next();
                    (ca, v)
                }
                (Some(&(ca, va)), Some(&(cb, _))) if ca < cb => {
                    ia.next();
                    (ca, a_coeff * va)
                }
                (Some(_), Some(&(cb, vb))) => {
                    ib.next();
                    (cb, b_coeff * vb)
                }
                (Some(&(ca, va)), None) => {
                    ia.next();
                    (ca, a_coeff * va)
                }
                (None, Some(&(cb, vb))) => {
                    ib.next();
                    (cb, b_coeff * vb)
                }
            };
            if !value.1.is_zero() {
                entries.push(value);
            }
        }
        Row::auto(a.dim(), entries)
    }

    /// Dot product with a dense point, skipping the column `skip` (pass
    /// `usize::MAX` — or any column `>= dim` — to skip nothing). This is the
    /// back-substitution kernel of Fourier–Motzkin.
    pub fn dot_skip(&self, point: &[Rational], skip: usize) -> Rational {
        debug_assert_eq!(point.len(), self.dim(), "dot product dimension mismatch");
        let mut acc = Rational::zero();
        for (col, coeff) in self.iter_nonzero() {
            if col == skip || point[col].is_zero() {
                continue;
            }
            acc += &(coeff * &point[col]);
        }
        acc
    }
}

/// Iterator over the non-zero entries of either representation.
enum RowIter<'a, T> {
    Dense(core::iter::Enumerate<core::slice::Iter<'a, T>>),
    Sparse(core::slice::Iter<'a, (usize, T)>),
}

impl<'a, T: Coeff> Iterator for RowIter<'a, T> {
    type Item = (usize, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RowIter::Dense(it) => it.by_ref().find(|(_, v)| !v.is_zero()),
            RowIter::Sparse(it) => it.next().map(|(i, v)| (*i, v)),
        }
    }
}

/// The sorted two-stream merge of the simplex's elimination step: walks the
/// `target` entries and the non-`skip` entries of `src` in column order,
/// producing `map_target(v)` for target-only columns, `map_src(v)` for
/// src-only columns and `combine(vt, vs)` where both are present. Exact
/// zeros are dropped, preserving the sparse no-stored-zeros invariant.
///
/// The merge writes into `out` (cleared first) so pivot loops can recycle
/// one output buffer across eliminations instead of allocating per merge.
pub(crate) fn merge_sparse<T: Coeff>(
    out: &mut Vec<(usize, T)>,
    target: &[(usize, T)],
    src: &GenRow<T>,
    skip: usize,
    mut map_target: impl FnMut(&T) -> T,
    mut map_src: impl FnMut(&T) -> T,
    mut combine: impl FnMut(&T, &T) -> T,
) {
    out.clear();
    out.reserve(target.len() + src.nnz());
    let mut it = target.iter().peekable();
    let mut is = src.iter_nonzero().filter(|&(col, _)| col != skip).peekable();
    loop {
        let (col, value) = match (it.peek(), is.peek()) {
            (None, None) => break,
            (Some(&&(ct, ref vt)), Some(&(cs, vs))) if ct == cs => {
                let value = combine(vt, vs);
                it.next();
                is.next();
                (ct, value)
            }
            (Some(&&(ct, ref vt)), Some(&(cs, _))) if ct < cs => {
                let value = map_target(vt);
                it.next();
                (ct, value)
            }
            (Some(_), Some(&(cs, vs))) => {
                let value = map_src(vs);
                is.next();
                (cs, value)
            }
            (Some(&&(ct, ref vt)), None) => {
                let value = map_target(vt);
                it.next();
                (ct, value)
            }
            (None, Some(&(cs, vs))) => {
                let value = map_src(vs);
                is.next();
                (cs, value)
            }
        };
        if !value.is_zero() {
            out.push((col, value));
        }
    }
}

impl<T: Coeff> fmt::Display for GenRow<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (col, value) in self.iter_nonzero() {
            if first {
                write!(f, "{value}*x{col}")?;
                first = false;
            } else if value.is_negative() {
                write!(f, " - {}*x{col}", value.clone().neg())?;
            } else {
                write!(f, " + {value}*x{col}")?;
            }
        }
        if first {
            write!(f, "0")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: i64) -> Rational {
        Rational::from(n)
    }

    fn dense(vals: &[i64]) -> Row {
        Row::Dense(vals.iter().map(|&v| Rational::from(v)).collect())
    }

    fn sparse(dim: usize, entries: &[(usize, i64)]) -> Row {
        Row::sparse(dim, entries.iter().map(|&(c, v)| (c, Rational::from(v))).collect())
    }

    #[test]
    fn representations_agree_on_accessors() {
        let d = dense(&[0, 3, 0, -2, 0, 0, 0, 0]);
        let s = sparse(8, &[(1, 3), (3, -2)]);
        assert_eq!(d.dim(), s.dim());
        assert_eq!(d.nnz(), 2);
        assert_eq!(s.nnz(), 2);
        for col in 0..8 {
            assert_eq!(d.get(col), s.get(col), "column {col}");
        }
        let dv: Vec<_> = d.iter_nonzero().map(|(c, v)| (c, v.clone())).collect();
        let sv: Vec<_> = s.iter_nonzero().map(|(c, v)| (c, v.clone())).collect();
        assert_eq!(dv, sv);
        assert_eq!(d.to_dense_vec(), s.to_dense_vec());
    }

    #[test]
    fn integer_rows_share_the_machinery() {
        let i = |v: i64| Integer::from(v);
        let d = IntRow::dense(vec![i(0), i(4), i(0), i(-6)]);
        let s = IntRow::sparse(4, vec![(1, i(4)), (3, i(-6))]);
        assert_eq!(d.nnz(), 2);
        for col in 0..4 {
            assert_eq!(d.get(col), s.get(col), "column {col}");
        }
        assert_eq!(d.to_dense_vec(), s.to_dense_vec());
        assert_eq!(s.to_string(), "4*x1 - 6*x3");
        let mut negated = s.clone();
        negated.negate();
        assert_eq!(negated.get(1), Some(&i(-4)));
        assert!(matches!(IntRow::auto(8, vec![(0, i(1))]), GenRow::Sparse(_)));
    }

    #[test]
    fn auto_picks_by_density() {
        assert!(matches!(Row::auto(8, vec![(1, r(1))]), Row::Sparse(_)));
        let dense_entries: Vec<(usize, Rational)> = (0..6).map(|i| (i, r(1))).collect();
        assert!(matches!(Row::auto(8, dense_entries), Row::Dense(_)));
        assert!(matches!(Row::from_dense_auto(&[r(0), r(1), r(0), r(0)]), Row::Sparse(_)));
    }

    #[test]
    fn take_zeroes_the_column() {
        for mut row in [dense(&[0, 5, 0, 7]), sparse(4, &[(1, 5), (3, 7)])] {
            assert_eq!(row.take(1), r(5));
            assert_eq!(row.get(1), None);
            assert_eq!(row.take(0), r(0));
            assert_eq!(row.get(3), Some(&r(7)));
        }
    }

    #[test]
    fn resparsify_undoes_receded_fill_in() {
        // A dense row still past the threshold stays dense ...
        let mut row = dense(&[1, 1, 1, 1, 1, 0, 0, 0]);
        row.resparsify();
        assert!(matches!(row, Row::Dense(_)), "5/8 non-zero: stays dense");
        // ... one whose density receded goes back to sparse.
        let mut row = dense(&[1, 0, 0, 0, 0, 0, 0, -1]);
        assert!(!row.representation_is_canonical());
        row.resparsify();
        assert!(matches!(row, Row::Sparse(_)), "receded fill-in must re-sparsify");
        assert!(row.representation_is_canonical());
        assert_eq!(row.to_dense_vec(), dense(&[1, 0, 0, 0, 0, 0, 0, -1]).to_dense_vec());
        // Idempotent on sparse rows.
        row.resparsify();
        assert!(matches!(row, Row::Sparse(_)));
    }

    #[test]
    fn linear_combination_cancels_exactly() {
        // 3 * (1, -2) + 2 * (-1, 3): column 0 cancels 3*1 + 2*(-1) = 1 ... no.
        // Use u*lo + (-l)*up with lo = (-2, 1), up = (3, 5) on column 0:
        // 3*(-2) + 2*3 = 0 — the eliminated column must vanish from storage.
        let lo = sparse(2, &[(0, -2), (1, 1)]);
        let up = sparse(2, &[(0, 3), (1, 5)]);
        let combined = Row::linear_combination(&r(3), &lo, &r(2), &up);
        assert_eq!(combined.get(0), None);
        assert!(combined.iter_nonzero().all(|(c, _)| c != 0));
        assert_eq!(combined.get(1), Some(&r(13)));
        // Dense/sparse mixes agree.
        let combined_mixed = Row::linear_combination(&r(3), &dense(&[-2, 1]), &r(2), &up);
        assert_eq!(combined.to_dense_vec(), combined_mixed.to_dense_vec());
    }

    #[test]
    fn dot_skip_and_negate() {
        let point = vec![r(1), r(2), r(3)];
        for mut row in [dense(&[2, 0, -1]), sparse(3, &[(0, 2), (2, -1)])] {
            assert_eq!(row.dot_skip(&point, usize::MAX), r(-1));
            assert_eq!(row.dot_skip(&point, 2), r(2));
            row.negate();
            assert_eq!(row.dot_skip(&point, usize::MAX), r(1));
        }
    }

    #[test]
    fn display_reads_like_a_constraint_lhs() {
        assert_eq!(sparse(4, &[(0, 2), (2, -3)]).to_string(), "2*x0 - 3*x2");
        assert_eq!(sparse(4, &[]).to_string(), "0");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_sparse_entries_are_rejected() {
        let _ = Row::sparse(4, vec![(2, r(1)), (1, r(1))]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn auto_rejects_duplicate_columns_on_the_dense_side_too() {
        // Three entries over four columns land on the dense path; the
        // duplicate column must still panic instead of silently
        // overwriting a coefficient.
        let _ = Row::auto(4, vec![(1, r(1)), (1, r(2)), (2, r(3))]);
    }

    #[test]
    #[should_panic(expected = "must not store zeros")]
    fn explicit_zero_entries_are_rejected() {
        let _ = Row::sparse(4, vec![(1, r(0))]);
    }
}
