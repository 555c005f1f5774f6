//! The probe layer of the scratch-memory discipline.
//!
//! [`ProbeScratch`] is the unit the engine hands out: one per worker thread
//! (or one per pair on the sequential path), threaded through every probe
//! that worker compiles and decides. It owns the probe compiler's buffers
//! (the grounded facts, the mapping search's bindings and the distinct
//! polynomial terms), the MPI/LP scratch of the layers below and the
//! guess-and-check enumeration buffers, so a warmed scratch compiles and
//! decides each successive probe — on either the LP route or the
//! enumeration route — without fresh heap allocations beyond the returned
//! witness.
//!
//! Reuse is capacity-only: verdicts and witnesses through a warmed scratch
//! are bit-identical to the fresh-allocation route (pinned by the
//! differential tests in `tests/scratch_differential.rs`).
//!
//! Observability: the per-probe counters (`containment.probes.decided`,
//! `alloc.scratch.reuses`, `cache.probe.compiled`,
//! `containment.mappings.enumerated`) are tallied here and flushed into
//! the registry by [`ProbeScratch::flush_counters`] — once per claimed
//! chunk in the engine's pool, once per pair on the sequential path — so a
//! hot loop does not touch the shared counter cells per probe. Every probe
//! served by an already-warmed scratch counts one `alloc.scratch.reuses`:
//! on a healthy hot loop that counter tracks `containment.probes.decided`
//! minus one per scratch.

use dioph_arith::Natural;
use dioph_poly::{Monomial, Mpi, MpiScratch, Polynomial};

/// Recycled buffers for compiling and deciding probes.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    /// The probe compiler's working set and its output.
    pub(crate) compile: CompileScratch,
    /// The MPI-system and LP-kernel scratch (the LP route).
    pub(crate) mpi: MpiScratch,
    /// Guess-and-check: one exponent-difference row per polynomial term,
    /// row storage recycled across probes.
    pub(crate) gc_rows: Vec<Vec<i128>>,
    /// Guess-and-check: the composition being enumerated.
    pub(crate) gc_current: Vec<u64>,
    /// Whether this scratch has decided a probe before (drives the
    /// `alloc.scratch.reuses` counter).
    warmed: bool,
    /// Registry counts not yet flushed.
    tally: Tally,
}

/// Per-probe registry counts held back until the next flush.
#[derive(Debug, Default)]
struct Tally {
    decided: u64,
    reuses: u64,
    compiled: u64,
    mappings: u64,
}

impl ProbeScratch {
    /// A cold scratch; buffers warm up over the first probe and are recycled
    /// from then on.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one probe decided through this scratch: counts an
    /// `alloc.scratch.reuses` when the scratch is already warm.
    pub(crate) fn note_probe(&mut self) {
        self.tally.decided += 1;
        if self.warmed {
            self.tally.reuses += 1;
        } else {
            self.warmed = true;
        }
    }

    /// Records one probe compilation that enumerated `mappings` containment
    /// mappings.
    pub(crate) fn note_compiled(&mut self, mappings: usize) {
        self.tally.compiled += 1;
        self.tally.mappings += mappings as u64;
    }

    /// Adds the counts tallied since the last flush to the registry.
    /// [`BagContainmentDecider::decide_index_in`] leaves its counts here;
    /// call this once per batch of probes (the engine's pool does so per
    /// claimed chunk) so `--metrics` totals stay exact.
    ///
    /// [`BagContainmentDecider::decide_index_in`]: crate::BagContainmentDecider::decide_index_in
    pub fn flush_counters(&mut self) {
        use dioph_obs::registry;
        let Tally { decided, reuses, compiled, mappings } = std::mem::take(&mut self.tally);
        for (counter, n) in [
            (&registry::CONTAINMENT_PROBES_DECIDED, decided),
            (&registry::ALLOC_SCRATCH_REUSES, reuses),
            (&registry::CACHE_PROBE_COMPILED, compiled),
            (&registry::CONTAINMENT_MAPPINGS, mappings),
        ] {
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// The probe compiler's buffers (see `compile.rs`): every vector is cleared
/// and refilled per probe, so only its capacity survives.
#[derive(Debug, Default)]
pub(crate) struct CompileScratch {
    /// The probe tuple as interned term ids, one per head position.
    pub(crate) tuple: Vec<u32>,
    /// The grounded containee's facts; sorted and merged into the unknowns.
    pub(crate) facts: Vec<Fact>,
    /// Fact arguments (interned term ids), addressed by [`Fact::start`].
    pub(crate) args: Vec<u32>,
    /// Candidate fact indices of every containing atom, concatenated.
    pub(crate) candidates: Vec<u32>,
    /// Each containing atom's `(start, end)` range in `candidates`.
    pub(crate) ranges: Vec<(u32, u32)>,
    /// Containing atoms in search order (fewest candidates first).
    pub(crate) order: Vec<u32>,
    /// The image (term id) of every containing-query variable slot.
    pub(crate) images: Vec<u32>,
    /// Slots bound since the current search depth began, for unwinding.
    pub(crate) trail: Vec<u32>,
    /// The fact matched at each search depth.
    pub(crate) chosen: Vec<u32>,
    /// One mapping's image exponents, accumulated at a search leaf.
    pub(crate) leaf: Vec<u64>,
    /// The compiled MPI.
    pub(crate) out: MpiTerms,
}

/// One grounded containee fact: a relation id and a slice of the scratch's
/// argument buffer, with its accumulated multiplicity.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Fact {
    pub(crate) relation: u32,
    pub(crate) start: u32,
    pub(crate) len: u32,
    pub(crate) multiplicity: u64,
}

impl Fact {
    pub(crate) fn args<'a>(&self, args: &'a [u32]) -> &'a [u32] {
        &args[self.start as usize..(self.start + self.len) as usize]
    }
}

/// A compiled MPI `P(u) < M(u)` in exponent-vector form: what the decider
/// reads, without a [`Mpi`] value behind it.
#[derive(Debug, Default)]
pub(crate) struct MpiTerms {
    /// The monomial's exponent vector (one entry per unknown).
    pub(crate) monomial: Vec<u64>,
    /// The polynomial's distinct terms with their coefficients.
    pub(crate) terms: TermSet,
    /// Term indices in polynomial order (ascending exponent vectors).
    pub(crate) order: Vec<u32>,
    /// Containment mappings enumerated (before accumulation).
    pub(crate) mapping_count: usize,
}

impl MpiTerms {
    /// Number of unknowns.
    pub(crate) fn dimension(&self) -> usize {
        self.monomial.len()
    }

    /// The polynomial's exponent vectors in polynomial order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = &[u64]> {
        self.order.iter().map(|&i| self.terms.row(i as usize))
    }

    /// Loads an already-built MPI (its terms are distinct and in order).
    pub(crate) fn load(&mut self, mpi: &Mpi, mapping_count: usize) {
        self.monomial.clear();
        self.monomial.extend_from_slice(mpi.monomial().exponents());
        self.terms.reset(self.monomial.len());
        for (coefficient, mono) in mpi.polynomial().terms() {
            let count = coefficient.to_u64().expect("a coefficient counts containment mappings");
            self.terms.push_distinct(mono.exponents(), count);
        }
        self.order.clear();
        self.order.extend(0..self.terms.len() as u32);
        self.mapping_count = mapping_count;
    }

    /// Sorts the terms into polynomial order.
    pub(crate) fn sort(&mut self) {
        let MpiTerms { terms, order, .. } = self;
        order.clear();
        order.extend(0..terms.len() as u32);
        // Distinct rows never tie, so the unstable (allocation-free) sort
        // is deterministic.
        order.sort_unstable_by(|&a, &b| terms.row(a as usize).cmp(terms.row(b as usize)));
    }

    /// Materialises the [`Mpi`] (the witness construction needs its
    /// coefficients; only a winning probe pays for it).
    pub(crate) fn to_mpi(&self) -> Mpi {
        let n = self.dimension();
        let polynomial = Polynomial::from_terms(
            n,
            self.order.iter().map(|&i| {
                let i = i as usize;
                (Natural::from(self.terms.count(i)), Monomial::from_slice(self.terms.row(i)))
            }),
        );
        Mpi::new(polynomial, Monomial::from_slice(&self.monomial))
    }
}

/// Marks an empty [`TermSet`] table slot.
const EMPTY: u32 = u32::MAX;

/// The distinct polynomial terms of one probe with their coefficients: an
/// open-addressing hash set over equal-width exponent vectors stored flat,
/// so accumulating a mapping's monomial costs no allocation once warm.
#[derive(Debug, Default)]
pub(crate) struct TermSet {
    width: usize,
    rows: Vec<u64>,
    counts: Vec<u64>,
    /// Row indices by hash, linear probing; length a power of two, at most
    /// half full.
    table: Vec<u32>,
}

impl TermSet {
    /// Empties the set for rows of `width` exponents.
    pub(crate) fn reset(&mut self, width: usize) {
        self.width = width;
        self.rows.clear();
        self.counts.clear();
        self.table.clear();
        self.table.resize(16, EMPTY);
    }

    /// Number of distinct rows.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Row `i`'s exponent vector.
    pub(crate) fn row(&self, i: usize) -> &[u64] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// How many times row `i` was inserted.
    pub(crate) fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Counts one occurrence of `row`.
    pub(crate) fn insert(&mut self, row: &[u64]) {
        let mask = self.table.len() - 1;
        let mut at = hash(row) & mask;
        loop {
            match self.table[at] {
                EMPTY => break,
                i if self.row(i as usize) == row => {
                    self.counts[i as usize] += 1;
                    return;
                }
                _ => at = (at + 1) & mask,
            }
        }
        self.table[at] = u32::try_from(self.len()).expect("distinct terms fit in u32");
        self.push_distinct(row, 1);
        if self.len() * 2 > self.table.len() {
            self.grow();
        }
    }

    /// Appends a row known to be distinct from every stored row, without
    /// indexing it (the set is not inserted into afterwards).
    fn push_distinct(&mut self, row: &[u64], count: u64) {
        self.rows.extend_from_slice(row);
        self.counts.push(count);
    }

    fn grow(&mut self) {
        let size = self.table.len() * 2;
        self.table.clear();
        self.table.resize(size, EMPTY);
        let mask = size - 1;
        for i in 0..self.len() {
            let mut at = hash(self.row(i)) & mask;
            while self.table[at] != EMPTY {
                at = (at + 1) & mask;
            }
            self.table[at] = i as u32;
        }
    }
}

/// A multiplicative hash of an exponent vector (FxHash-style mixing, with
/// the high half folded in so the low bits used for indexing are mixed).
fn hash(row: &[u64]) -> usize {
    let mut h = 0u64;
    for &x in row {
        h = (h.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    (h ^ (h >> 32)) as usize
}
