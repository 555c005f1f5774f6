//! Integer row storage for the LP engines: dense and sparse coefficient rows
//! behind one type.
//!
//! The strict homogeneous systems of Theorem 4.1 are mostly zeros: a row
//! `e − e_i` touches only the unknowns appearing in two monomials, and the
//! phase-1 simplex tableau built from it adds one surplus and at most one
//! artificial coefficient to each row — a handful of non-zeros in a tableau
//! whose width grows with the row count. [`SparseIntRow`] stores exactly the
//! non-zero entries (sorted by column); [`IntRow`] lets the elimination and
//! normalisation routines run unchanged over dense and sparse rows, with
//! zero-skipping coming from the representation instead of per-loop checks.
//!
//! Both engines work on these rows, and both keep every coefficient an
//! integer: the fraction-free [`simplex`](crate::simplex) and
//! [`fourier_motzkin`](crate::fourier_motzkin) share one elimination step
//! (`pivot·target − factor·src`) and one gcd normalisation that divides a
//! row and its right-hand side by their common content. Rationals appear
//! only where a witness is read off.
//!
//! A sparse row that fills in past half its width during elimination is
//! densified on the spot, so the worst case degrades to the dense algorithm
//! instead of to a slower sparse one. The converse transition is
//! [`IntRow::resparsify`]: elimination can also *cancel* fill-in, and the
//! engines call it at pivot boundaries so a row whose density receded below
//! the threshold goes back to paying for its non-zeros only (without it the
//! densify ratchet was one-way and later passes scanned dense zeros).

use core::fmt;

use dioph_arith::{Integer, Natural, Rational};

/// A sparse integer row: strictly increasing column indices, no stored
/// zeros.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct SparseIntRow {
    pub(crate) dim: usize,
    pub(crate) entries: Vec<(usize, Integer)>,
}

impl SparseIntRow {
    /// Builds a sparse row over `dim` columns from (column, value) entries.
    ///
    /// # Panics
    /// Panics if the entries are not strictly increasing by column, mention a
    /// column `>= dim`, or contain an explicit zero.
    pub fn new(dim: usize, entries: Vec<(usize, Integer)>) -> Self {
        let mut prev: Option<usize> = None;
        for (col, value) in &entries {
            assert!(*col < dim, "sparse entry column {col} out of bounds for dimension {dim}");
            assert!(prev.is_none_or(|p| p < *col), "sparse entries must be strictly increasing");
            assert!(!value.is_zero(), "sparse rows must not store zeros");
            prev = Some(*col);
        }
        SparseIntRow { dim, entries }
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    fn get(&self, col: usize) -> Option<&Integer> {
        self.entries.binary_search_by_key(&col, |(c, _)| *c).ok().map(|idx| &self.entries[idx].1)
    }

    fn take(&mut self, col: usize) -> Integer {
        match self.entries.binary_search_by_key(&col, |(c, _)| *c) {
            Ok(idx) => self.entries.remove(idx).1,
            Err(_) => Integer::zero(),
        }
    }

    pub(crate) fn to_dense(&self) -> Vec<Integer> {
        let mut out = vec![Integer::zero(); self.dim]; // alloc-ok: densification
        for (col, value) in &self.entries {
            out[*col] = value.clone();
        }
        out
    }
}

/// An integer coefficient row in either representation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntRow {
    /// Every coefficient stored, zeros included.
    Dense(Vec<Integer>),
    /// Only the non-zero coefficients stored.
    Sparse(SparseIntRow),
}

/// A sparse row is only worth its bookkeeping while it stays under half
/// full; past that the row is densified (and re-sparsified once it recedes,
/// see [`IntRow::resparsify`]).
const DENSIFY_NUMERATOR: usize = 1;
const DENSIFY_DENOMINATOR: usize = 2;

/// `true` iff a row with `nnz` non-zeros over `dim` columns belongs in the
/// sparse representation.
pub(crate) fn sparse_is_worth_it(nnz: usize, dim: usize) -> bool {
    nnz * DENSIFY_DENOMINATOR <= dim * DENSIFY_NUMERATOR
}

impl IntRow {
    /// Builds a dense row.
    pub fn dense(coeffs: Vec<Integer>) -> Self {
        IntRow::Dense(coeffs)
    }

    /// Builds a sparse row (see [`SparseIntRow::new`] for the invariants).
    pub fn sparse(dim: usize, entries: Vec<(usize, Integer)>) -> Self {
        IntRow::Sparse(SparseIntRow::new(dim, entries))
    }

    /// Picks a representation for the given entries: sparse while the row is
    /// at most half non-zero, dense otherwise.
    ///
    /// # Panics
    /// Panics if the entries violate the sparse-row invariants (see
    /// [`SparseIntRow::new`]) — enforced on *both* sides of the density
    /// threshold, so a duplicate column can never silently overwrite a
    /// coefficient on the dense path.
    pub fn auto(dim: usize, entries: Vec<(usize, Integer)>) -> Self {
        let sparse = SparseIntRow::new(dim, entries);
        if sparse_is_worth_it(sparse.nnz(), dim) {
            IntRow::Sparse(sparse)
        } else {
            let mut out = vec![Integer::zero(); dim]; // alloc-ok: densification
            for (col, value) in sparse.entries {
                out[col] = value;
            }
            IntRow::Dense(out)
        }
    }

    /// Builds a row from a dense slice, choosing the representation by the
    /// slice's density.
    pub fn from_dense_auto(coeffs: &[Integer]) -> Self {
        let entries: Vec<(usize, Integer)> = coeffs
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_zero())
            .map(|(i, v)| (i, v.clone()))
            .collect();
        IntRow::auto(coeffs.len(), entries)
    }

    /// Number of columns.
    pub fn dim(&self) -> usize {
        match self {
            IntRow::Dense(v) => v.len(),
            IntRow::Sparse(s) => s.dim,
        }
    }

    /// Number of non-zero coefficients.
    pub fn nnz(&self) -> usize {
        match self {
            IntRow::Dense(v) => v.iter().filter(|x| !x.is_zero()).count(),
            IntRow::Sparse(s) => s.nnz(),
        }
    }

    /// The coefficient at `col`; `None` means zero.
    pub fn get(&self, col: usize) -> Option<&Integer> {
        match self {
            IntRow::Dense(v) => {
                let value = &v[col];
                if value.is_zero() {
                    None
                } else {
                    Some(value)
                }
            }
            IntRow::Sparse(s) => s.get(col),
        }
    }

    /// Removes and returns the coefficient at `col` (zero if absent).
    pub fn take(&mut self, col: usize) -> Integer {
        match self {
            IntRow::Dense(v) => core::mem::take(&mut v[col]),
            IntRow::Sparse(s) => s.take(col),
        }
    }

    /// Iterates the non-zero coefficients in increasing column order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, &Integer)> + '_ {
        // Both arms produce strictly increasing columns, which the sparse
        // merge in the elimination step relies on.
        match self {
            IntRow::Dense(v) => RowIter::Dense(v.iter().enumerate()),
            IntRow::Sparse(s) => RowIter::Sparse(s.entries.iter()),
        }
    }

    /// `true` iff every coefficient is zero.
    pub fn is_zero_row(&self) -> bool {
        self.iter_nonzero().next().is_none()
    }

    /// Negates every coefficient in place, reusing allocations.
    pub fn negate(&mut self) {
        match self {
            IntRow::Dense(v) => {
                for value in v.iter_mut() {
                    let taken = core::mem::take(value);
                    *value = -taken;
                }
            }
            IntRow::Sparse(s) => {
                for (_, value) in s.entries.iter_mut() {
                    let taken = core::mem::take(value);
                    *value = -taken;
                }
            }
        }
    }

    /// The dot product with a rational point (the back-substitution and
    /// witness-check kernel).
    pub fn dot(&self, point: &[Rational]) -> Rational {
        debug_assert_eq!(point.len(), self.dim(), "dot product dimension mismatch");
        let mut acc = Rational::zero();
        for (col, coeff) in self.iter_nonzero() {
            if !point[col].is_zero() {
                acc += &(&Rational::from(coeff) * &point[col]);
            }
        }
        acc
    }

    /// Moves a dense row back to the sparse representation when its density
    /// has receded to the sparse side of the threshold. Elimination both
    /// creates and *cancels* fill-in; without this the densification in
    /// the elimination step is a one-way ratchet and later passes scan dense
    /// zeros forever. The engines call it at pivot boundaries (once per
    /// updated row), so the scan amortises against the elimination that just
    /// walked the same row.
    pub fn resparsify(&mut self) {
        if let IntRow::Dense(v) = self {
            let dim = v.len();
            let nnz = v.iter().filter(|x| !x.is_zero()).count();
            if sparse_is_worth_it(nnz, dim) {
                let entries: Vec<(usize, Integer)> = v
                    .iter_mut()
                    .enumerate()
                    .filter(|(_, x)| !x.is_zero())
                    .map(|(i, x)| (i, core::mem::take(x)))
                    .collect();
                *self = IntRow::Sparse(SparseIntRow { dim, entries });
            }
        }
    }

    /// `true` iff the representation matches the density threshold: sparse
    /// rows hold at most half their width in non-zeros, dense rows more.
    /// This is the invariant `auto` establishes and the elimination step plus
    /// [`Self::resparsify`] maintain (asserted by the tests).
    pub fn representation_is_canonical(&self) -> bool {
        match self {
            IntRow::Dense(_) => !sparse_is_worth_it(self.nnz(), self.dim()),
            IntRow::Sparse(s) => sparse_is_worth_it(s.nnz(), s.dim),
        }
    }

    /// A dense copy of the coefficients (used by displays and tests).
    pub fn to_dense_vec(&self) -> Vec<Integer> {
        match self {
            IntRow::Dense(v) => v.clone(),
            IntRow::Sparse(s) => s.to_dense(),
        }
    }

    /// The fraction-free elimination step shared by both engines:
    /// `self ← pivot·self − factor·src`, skipping the column `skip` (whose
    /// coefficient the caller already removed with [`Self::take`]). A sparse
    /// row that fills in past the density threshold is densified here. The
    /// sparse merge writes into `spare` (swapped with the row's storage
    /// afterwards), so a pivot loop recycles one buffer across every
    /// elimination.
    pub(crate) fn eliminate(
        &mut self,
        pivot: &Integer,
        factor: &Integer,
        src: &IntRow,
        skip: usize,
        spare: &mut Vec<(usize, Integer)>,
    ) {
        match self {
            IntRow::Dense(v) => {
                // The cross-multiplication rescales every stored entry, so a
                // dense target is two passes: scale, then subtract over the
                // source's non-zeros.
                for value in v.iter_mut() {
                    if !value.is_zero() {
                        let taken = core::mem::take(value);
                        *value = &taken * pivot;
                    }
                }
                for (col, coeff) in src.iter_nonzero() {
                    if col == skip {
                        continue;
                    }
                    let delta = factor * coeff;
                    v[col] -= &delta;
                }
            }
            IntRow::Sparse(s) => {
                // Sorted two-stream merge of the target entries and the
                // non-`skip` entries of `src`; exact zeros are dropped,
                // preserving the no-stored-zeros invariant.
                spare.clear();
                spare.reserve(s.entries.len() + src.nnz());
                let mut it = s.entries.iter().peekable();
                let mut is = src.iter_nonzero().filter(|&(col, _)| col != skip).peekable();
                loop {
                    let (col, value) = match (it.peek(), is.peek()) {
                        (None, None) => break,
                        (Some(&&(ct, ref vt)), Some(&(cs, vs))) if ct == cs => {
                            let value = &(vt * pivot) - &(factor * vs);
                            it.next();
                            is.next();
                            (ct, value)
                        }
                        (Some(&&(ct, ref vt)), Some(&(cs, _))) if ct < cs => {
                            let value = vt * pivot;
                            it.next();
                            (ct, value)
                        }
                        (Some(_), Some(&(cs, vs))) => {
                            let value = -(factor * vs);
                            is.next();
                            (cs, value)
                        }
                        (Some(&&(ct, ref vt)), None) => {
                            let value = vt * pivot;
                            it.next();
                            (ct, value)
                        }
                        (None, Some(&(cs, vs))) => {
                            let value = -(factor * vs);
                            is.next();
                            (cs, value)
                        }
                    };
                    if !value.is_zero() {
                        spare.push((col, value));
                    }
                }
                core::mem::swap(&mut s.entries, spare);
                if !sparse_is_worth_it(s.entries.len(), s.dim) {
                    *self = IntRow::Dense(s.to_dense());
                }
            }
        }
    }
}

/// Divides `row` and `rhs` by the gcd of their entries and `seed` — the
/// single exact division of a fraction-free step — and returns that divisor,
/// or `None` when there is nothing to divide by (a gcd of 1, or of 0 for an
/// all-zero row, rhs and seed). The divisor is positive, so every sign and
/// every ratio `rhs / row[j]` is untouched.
///
/// The simplex seeds the gcd with a row's positive denominator (and then
/// divides the denominator by the result); Fourier–Motzkin seeds it with
/// zero, which leaves exactly the content of the row and its constant.
pub(crate) fn normalise_row(
    row: &mut IntRow,
    rhs: &mut Integer,
    seed: &Natural,
) -> Option<Natural> {
    let mut g: Natural = rhs.gcd(&Integer::from(seed));
    for (_, value) in row.iter_nonzero() {
        if g.is_one() {
            return None;
        }
        g = value.gcd(&Integer::from(g));
    }
    if g.is_one() || g.is_zero() {
        return None;
    }
    let divisor = Integer::from(g.clone());
    match row {
        IntRow::Dense(v) => {
            for value in v.iter_mut() {
                if !value.is_zero() {
                    let taken = core::mem::take(value);
                    *value = taken.exact_div(&divisor);
                }
            }
        }
        IntRow::Sparse(s) => {
            for (_, value) in s.entries.iter_mut() {
                let taken = core::mem::take(value);
                *value = taken.exact_div(&divisor);
            }
        }
    }
    *rhs = rhs.exact_div(&divisor);
    Some(g)
}

/// Iterator over the non-zero entries of either representation.
enum RowIter<'a> {
    Dense(core::iter::Enumerate<core::slice::Iter<'a, Integer>>),
    Sparse(core::slice::Iter<'a, (usize, Integer)>),
}

impl<'a> Iterator for RowIter<'a> {
    type Item = (usize, &'a Integer);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            RowIter::Dense(it) => it.by_ref().find(|(_, v)| !v.is_zero()),
            RowIter::Sparse(it) => it.next().map(|(i, v)| (*i, v)),
        }
    }
}

impl fmt::Display for IntRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (col, value) in self.iter_nonzero() {
            if first {
                write!(f, "{value}*x{col}")?;
                first = false;
            } else if value.is_negative() {
                write!(f, " - {}*x{col}", -value)?;
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

    fn i(n: i64) -> Integer {
        Integer::from(n)
    }

    fn ints(vals: &[i64]) -> Vec<Integer> {
        vals.iter().map(|&v| Integer::from(v)).collect()
    }

    fn dense(vals: &[i64]) -> IntRow {
        IntRow::Dense(ints(vals))
    }

    fn sparse(vals: &[i64]) -> IntRow {
        IntRow::sparse(
            vals.len(),
            vals.iter().enumerate().filter(|(_, &v)| v != 0).map(|(c, &v)| (c, i(v))).collect(),
        )
    }

    #[test]
    fn representations_agree_on_accessors() {
        let vals = [0, 3, 0, -2, 0, 0, 0, 0];
        let (d, s) = (dense(&vals), sparse(&vals));
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
        assert_eq!(s.to_string(), "3*x1 - 2*x3");
    }

    #[test]
    fn auto_picks_by_density() {
        assert!(matches!(IntRow::auto(8, vec![(1, i(1))]), IntRow::Sparse(_)));
        let dense_entries: Vec<(usize, Integer)> = (0..6).map(|c| (c, i(1))).collect();
        assert!(matches!(IntRow::auto(8, dense_entries), IntRow::Dense(_)));
        assert!(matches!(IntRow::from_dense_auto(&ints(&[0, 1, 0, 0])), IntRow::Sparse(_)));
    }

    #[test]
    fn take_zeroes_the_column() {
        for mut row in [dense(&[0, 5, 0, 7]), sparse(&[0, 5, 0, 7])] {
            assert_eq!(row.take(1), i(5));
            assert_eq!(row.get(1), None);
            assert_eq!(row.take(0), i(0));
            assert_eq!(row.get(3), Some(&i(7)));
        }
    }

    #[test]
    fn resparsify_undoes_receded_fill_in() {
        // A dense row still past the threshold stays dense ...
        let mut row = dense(&[1, 1, 1, 1, 1, 0, 0, 0]);
        row.resparsify();
        assert!(matches!(row, IntRow::Dense(_)), "5/8 non-zero: stays dense");
        // ... one whose density receded goes back to sparse.
        let mut row = dense(&[1, 0, 0, 0, 0, 0, 0, -1]);
        assert!(!row.representation_is_canonical());
        row.resparsify();
        assert!(matches!(row, IntRow::Sparse(_)), "receded fill-in must re-sparsify");
        assert!(row.representation_is_canonical());
        assert_eq!(row.to_dense_vec(), ints(&[1, 0, 0, 0, 0, 0, 0, -1]));
        // Idempotent on sparse rows.
        row.resparsify();
        assert!(matches!(row, IntRow::Sparse(_)));
    }

    #[test]
    fn dot_and_negate() {
        let point = vec![Rational::from(1), Rational::from_i64s(1, 2), Rational::from(3)];
        for mut row in [dense(&[2, 4, -1]), sparse(&[2, 0, -1])] {
            let expect = if row.get(1).is_some() { Rational::from(1) } else { Rational::from(-1) };
            assert_eq!(row.dot(&point), expect);
            row.negate();
            assert_eq!(row.dot(&point), -&expect);
        }
    }

    #[test]
    fn normalise_row_divides_out_the_content() {
        for mut row in [dense(&[0, 4, -6, 0]), sparse(&[0, 4, -6, 0])] {
            let mut rhs = i(-10);
            assert_eq!(
                normalise_row(&mut row, &mut rhs, &Natural::zero()),
                Some(Natural::from(2u64))
            );
            assert_eq!(row.to_dense_vec(), ints(&[0, 2, -3, 0]));
            assert_eq!(rhs, i(-5));
            // Already primitive: nothing to divide.
            assert_eq!(normalise_row(&mut row, &mut rhs, &Natural::zero()), None);
        }
        // The seed joins the gcd (the simplex's denominator).
        let mut row = dense(&[6, 0, 12]);
        let mut rhs = i(18);
        assert_eq!(
            normalise_row(&mut row, &mut rhs, &Natural::from(4u64)),
            Some(Natural::from(2u64))
        );
        assert_eq!((row.to_dense_vec(), rhs), (ints(&[3, 0, 6]), i(9)));
        // An all-zero row with a zero rhs has no content to divide by.
        let mut zero = sparse(&[0, 0]);
        let mut rhs = i(0);
        assert_eq!(normalise_row(&mut zero, &mut rhs, &Natural::zero()), None);
    }

    /// `pivot·target − factor·src` (skipping `skip`) on dense integer
    /// vectors: the reference the elimination step must reproduce.
    fn eliminate_reference(
        target: &[i64],
        pivot: i64,
        factor: i64,
        src: &[i64],
        skip: usize,
    ) -> Vec<Integer> {
        target
            .iter()
            .zip(src)
            .enumerate()
            .map(|(col, (&t, &s))| {
                let scaled = i(t) * i(pivot);
                if col == skip {
                    scaled
                } else {
                    scaled - i(factor) * i(s)
                }
            })
            .collect()
    }

    #[test]
    fn elimination_matches_dense_reference_in_every_representation() {
        let target_vals = [3i64, 0, 5, -1, 0, 2, 0, 0];
        let src_vals = [7i64, 1, 0, -1, 4, 2, 0, 0];
        let expect = eliminate_reference(&target_vals, 3, 2, &src_vals, 0);
        for target in [dense(&target_vals), sparse(&target_vals)] {
            for src in [dense(&src_vals), sparse(&src_vals)] {
                let mut t = target.clone();
                let mut spare = Vec::new();
                t.eliminate(&i(3), &i(2), &src, 0, &mut spare);
                assert_eq!(t.to_dense_vec(), expect);
            }
        }
    }

    #[test]
    fn elimination_densifies_on_fill_in() {
        let mut target = IntRow::sparse(8, vec![(0, i(1))]);
        let src = dense(&[0, 1, 1, 1, 1, 1, 1, 1]);
        let mut spare = Vec::new();
        target.eliminate(&i(1), &i(1), &src, usize::MAX, &mut spare);
        assert!(matches!(target, IntRow::Dense(_)), "fill-in past half must densify");
        assert_eq!(target.to_dense_vec(), ints(&[1, -1, -1, -1, -1, -1, -1, -1]));
    }

    #[test]
    fn display_reads_like_a_constraint_lhs() {
        assert_eq!(sparse(&[2, 0, -3, 0]).to_string(), "2*x0 - 3*x2");
        assert_eq!(sparse(&[0, 0, 0, 0]).to_string(), "0");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_sparse_entries_are_rejected() {
        let _ = IntRow::sparse(4, vec![(2, i(1)), (1, i(1))]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn auto_rejects_duplicate_columns_on_the_dense_side_too() {
        // Three entries over four columns land on the dense path; the
        // duplicate column must still panic instead of silently
        // overwriting a coefficient.
        let _ = IntRow::auto(4, vec![(1, i(1)), (1, i(2)), (2, i(3))]);
    }

    #[test]
    #[should_panic(expected = "must not store zeros")]
    fn explicit_zero_entries_are_rejected() {
        let _ = IntRow::sparse(4, vec![(1, i(0))]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The dense/sparse representation stays canonical through
        /// elimination: the step densifies past the threshold, and
        /// `resparsify` (the pivot boundary call) brings receded rows back —
        /// the ratchet releases. Values match the dense reference throughout.
        #[test]
        fn row_representation_stays_canonical_under_elimination(
            target in proptest::collection::vec(-3i64..=3, 4..12),
            srcs in proptest::collection::vec(
                (proptest::collection::vec(-3i64..=3, 4..12), 1i64..=3, -2i64..=2),
                1..6,
            ),
        ) {
            let dim = target.len();
            let mut row = IntRow::from_dense_auto(&ints(&target));
            let mut expect = target.clone();
            let mut spare = Vec::new();
            proptest::prop_assert!(row.representation_is_canonical());
            for (src, pivot, factor) in srcs {
                let mut padded = src;
                padded.resize(dim, 0);
                let src_row = IntRow::from_dense_auto(&ints(&padded));
                row.eliminate(&i(pivot), &i(factor), &src_row, usize::MAX, &mut spare);
                row.resparsify();
                expect = expect
                    .iter()
                    .zip(&padded)
                    .map(|(&t, &s)| t * pivot - factor * s)
                    .collect();
                proptest::prop_assert!(
                    row.representation_is_canonical(),
                    "non-canonical representation: nnz={} dim={}",
                    row.nnz(),
                    row.dim()
                );
                proptest::prop_assert_eq!(row.to_dense_vec(), ints(&expect));
            }
        }
    }
}
