//! The bag-containment decision procedures.
//!
//! Three algorithms are provided, all deciding `q1 ⊑b q2` for a
//! projection-free containee `q1` and an arbitrary containing CQ `q2`:
//!
//! * [`Algorithm::MostGeneralProbe`] — the paper's headline procedure
//!   (Theorem 5.3): compile a single MPI for the most-general probe tuple and
//!   decide its solvability through the linear-system reduction
//!   (Theorems 4.1 and 4.2).
//! * [`Algorithm::AllProbes`] — the Corollary 3.1 characterisation: one MPI
//!   per probe tuple. Exponentially many probes, used for differential
//!   testing and the E6 crossover experiment.
//! * [`Algorithm::GuessCheck`] — the enumeration underlying the Π₂ᵖ
//!   procedure of Theorem 5.1: instead of solving an LP, enumerate candidate
//!   natural vectors `d` up to the small-solution bound of Lemma 5.1 and
//!   check each against every containment mapping. Exponential; serves as
//!   the baseline the LP route is compared against.
//!
//! Every algorithm decides a pair as a range of **work units** — the one
//! most-general probe, or every raw probe index of a sweep — and the event
//! (witness or error) of the lowest unit that has one decides the pair. The
//! decider alone knows what a unit is: [`BagContainmentDecider::units`]
//! counts them, [`BagContainmentDecider::decide_unit_in`] decides one, and
//! [`BagContainmentDecider::verdict`] turns the winning event into the
//! pair's verdict. Its own sequential loop
//! ([`BagContainmentDecider::decide_pair`]) and the worker pools of
//! `dioph-engine` are both written against these three calls.
//!
//! Whenever containment fails, an explicit, independently verifiable
//! [`Counterexample`] bag is produced.

use dioph_arith::Natural;
use dioph_cq::ConjunctiveQuery;
use dioph_linalg::FeasibilityEngine;

use crate::certificate::{BagContainment, ContainmentError};
use crate::compile::{CompiledPair, CompiledProbe};
use crate::scratch::{MpiTerms, ProbeScratch};

/// Which decision algorithm to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Algorithm {
    /// Theorem 5.3: single MPI for the most-general probe tuple (default).
    #[default]
    MostGeneralProbe,
    /// Corollary 3.1: one MPI per probe tuple.
    AllProbes,
    /// Theorem 5.1 / Lemma 5.1: bounded enumeration of candidate vectors,
    /// with a budget on the number of enumerated vectors (the decider reports
    /// [`ContainmentError::BudgetExceeded`] when the bound would be passed).
    GuessCheck {
        /// Maximum number of candidate vectors to enumerate per probe tuple.
        budget: u64,
    },
}

/// A configured bag-containment decider.
#[derive(Clone, Copy, Debug, Default)]
pub struct BagContainmentDecider {
    /// The algorithm to run.
    pub algorithm: Algorithm,
    /// The LP feasibility engine used by the MPI-based algorithms.
    pub engine: FeasibilityEngine,
}

impl BagContainmentDecider {
    /// A decider with the given algorithm and the default (simplex) engine.
    pub fn new(algorithm: Algorithm) -> Self {
        BagContainmentDecider { algorithm, engine: FeasibilityEngine::default() }
    }

    /// Overrides the feasibility engine.
    pub fn with_engine(mut self, engine: FeasibilityEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Decides `containee ⊑b containing`.
    ///
    /// # Errors
    /// * [`ContainmentError::ContaineeNotProjectionFree`] if the containee
    ///   has existential variables (outside the fragment solved by the paper);
    /// * [`ContainmentError::UnsafeQuery`] if the containee has a head
    ///   variable that does not occur in its body;
    /// * [`ContainmentError::EmptyBody`] if the containee has no body atoms;
    /// * [`ContainmentError::BudgetExceeded`] if the guess-and-check
    ///   enumeration would exceed its configured budget.
    pub fn decide(
        &self,
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
    ) -> Result<BagContainment, ContainmentError> {
        let pair = CompiledPair::new(containee.clone(), containing.clone())?;
        self.decide_pair(&pair)
    }

    /// Decides a pre-compiled pair: decides its [`Self::units`] in order,
    /// stops at the first event (a witness or an error), and hands it to
    /// [`Self::verdict`]. The most-general route reuses (and fills) the
    /// pair's memoised MPI, so repeated decisions of the same
    /// [`CompiledPair`] — a benchmark repeat loop, a batch stream replaying
    /// a pair — skip its compilation; the all-probes and guess-and-check
    /// routes compile every probe afresh in one scratch.
    ///
    /// # Errors
    /// [`ContainmentError::BudgetExceeded`] for an exhausted guess-and-check
    /// budget, [`ContainmentError::IterationBudget`] for an exhausted LP,
    /// and [`ContainmentError::ProbeSpaceOverflow`] from [`Self::units`]
    /// (validation errors are caught earlier, by [`CompiledPair::new`]).
    pub fn decide_pair(&self, pair: &CompiledPair) -> Result<BagContainment, ContainmentError> {
        let units = self.units(pair)?;
        // One scratch for the whole pair: every probe after the first runs
        // through warmed buffers.
        let mut scratch = ProbeScratch::new();
        let mut checked = 0usize;
        let mut event = None;
        for unit in 0..units {
            let Some(outcome) = self.decide_unit_in(pair, unit, &mut scratch) else { continue };
            checked += 1;
            if let Some(outcome) = outcome.transpose() {
                event = Some((unit, outcome));
                break;
            }
        }
        scratch.flush_counters();
        self.verdict(pair, event, checked)
    }

    /// The number of work units deciding `pair` takes, each decided by
    /// [`Self::decide_unit_in`]: one for the most-general probe, and for a
    /// probe sweep one per raw probe index ([`CompiledPair::probe_count`]),
    /// floored at one so a degenerate (empty) probe space still has a
    /// single no-op unit whose retirement finishes the pair.
    ///
    /// # Errors
    /// [`ContainmentError::ProbeSpaceOverflow`] when a sweep's probe space
    /// cannot be indexed; the most-general route never sweeps, so it never
    /// fails here. Raised before anything is decided or counted.
    pub fn units(&self, pair: &CompiledPair) -> Result<usize, ContainmentError> {
        match self.algorithm {
            Algorithm::MostGeneralProbe => Ok(1),
            Algorithm::AllProbes | Algorithm::GuessCheck { .. } => Ok(pair.probe_count()?.max(1)),
        }
    }

    /// Decides work unit `unit` of `pair` (below [`Self::units`]) in
    /// `scratch`: the most-general probe (memoised in the pair, through
    /// [`Self::decide_probe_in`]) or the probe with raw index `unit`
    /// (through [`Self::decide_index_in`]). `None` when the unit is not a
    /// probe tuple (nothing is decided); otherwise the probe's witness, or
    /// `Ok(None)` when the probe cannot break containment.
    ///
    /// This is the one unit of work of the sequential loop and of every
    /// worker pool, which is what makes parallel verdicts bit-identical to
    /// sequential ones.
    pub fn decide_unit_in(
        &self,
        pair: &CompiledPair,
        unit: usize,
        scratch: &mut ProbeScratch,
    ) -> Option<Result<Option<Vec<Natural>>, ContainmentError>> {
        match self.algorithm {
            Algorithm::MostGeneralProbe => {
                Some(self.decide_probe_in(pair.most_general_in(scratch), scratch))
            }
            Algorithm::AllProbes | Algorithm::GuessCheck { .. } => {
                self.decide_index_in(pair, unit, scratch)
            }
        }
    }

    /// Assembles the verdict of a pair whose units are all decided (or
    /// skipped past `event`): `event` is the lowest-unit witness or error,
    /// `checked` the number of probe tuples decided. A witness becomes a
    /// certificate through its probe as a [`CompiledProbe`]: the pair's
    /// memoised most-general probe, or a sweep's probe compiled once more
    /// (only the winning probe is ever materialised). Counts the pair
    /// in `engine.pairs_decided` and its verdict in the verdict counters —
    /// the only place either is counted.
    ///
    /// # Errors
    /// The error `event` carries.
    pub fn verdict(
        &self,
        pair: &CompiledPair,
        event: Option<(usize, Result<Vec<Natural>, ContainmentError>)>,
        checked: usize,
    ) -> Result<BagContainment, ContainmentError> {
        dioph_obs::registry::ENGINE_PAIRS_DECIDED.incr();
        let verdict = match event {
            None => BagContainment::Contained { probes_checked: checked },
            Some((_, Err(error))) => return Err(error),
            Some((unit, Ok(assignment))) => {
                let counterexample = match self.algorithm {
                    Algorithm::MostGeneralProbe => {
                        pair.counterexample(pair.most_general(), &assignment)
                    }
                    Algorithm::AllProbes | Algorithm::GuessCheck { .. } => {
                        let compiled =
                            pair.compile_probe(unit).expect("the witness came from a probe");
                        pair.counterexample(&compiled, &assignment)
                    }
                };
                BagContainment::NotContained(Box::new(counterexample))
            }
        };
        match verdict {
            BagContainment::Contained { .. } => {
                dioph_obs::registry::ENGINE_VERDICTS_CONTAINED.incr();
            }
            BagContainment::NotContained(_) => {
                dioph_obs::registry::ENGINE_VERDICTS_NOT_CONTAINED.incr();
            }
        }
        Ok(verdict)
    }

    /// Decides a single compiled probe: `Ok(Some(ξ))` returns an MPI
    /// assignment witnessing non-containment at this probe, `Ok(None)` means
    /// the probe's MPI is unsolvable (this probe cannot break containment).
    ///
    /// # Errors
    /// [`ContainmentError::BudgetExceeded`] when the guess-and-check
    /// enumeration would pass its per-probe budget.
    pub fn decide_probe(
        &self,
        compiled: &CompiledProbe,
    ) -> Result<Option<Vec<Natural>>, ContainmentError> {
        let mut scratch = ProbeScratch::new();
        self.decide_probe_in(compiled, &mut scratch)
    }

    /// [`Self::decide_probe`] through a caller-provided [`ProbeScratch`]:
    /// the probe's MPI is loaded into `scratch` and decided exactly as
    /// [`Self::decide_index_in`] decides a probe it compiled there — every
    /// working buffer (the Theorem 4.1 system, the LP kernel tableau, the
    /// guess-and-check enumeration state) is drawn from `scratch` and
    /// recycled, so a warmed scratch decides a probe with no heap
    /// allocation beyond the returned witness. Reuse is capacity-only;
    /// verdicts and witnesses are bit-identical to [`Self::decide_probe`].
    /// Flushes the scratch's counters.
    ///
    /// # Errors
    /// As [`Self::decide_probe`].
    pub fn decide_probe_in(
        &self,
        compiled: &CompiledProbe,
        scratch: &mut ProbeScratch,
    ) -> Result<Option<Vec<Natural>>, ContainmentError> {
        scratch.compile.out.load(compiled.mpi(), compiled.mapping_count());
        let outcome = self.decide_compiled(scratch);
        scratch.flush_counters();
        outcome
    }

    /// Compiles the probe with raw index `index` of `pair` into `scratch`
    /// and decides it: `None` when the index is not a probe tuple (nothing
    /// is decided), otherwise the outcome [`Self::decide_probe`] would give
    /// for [`CompiledPair::compile_probe`]`(index)`.
    ///
    /// This is the work unit of the all-probes and guess-and-check sweeps
    /// ([`Self::decide_unit_in`]). Nothing is memoised and a warmed scratch
    /// allocates nothing beyond a returned witness. The
    /// per-probe registry counters are tallied in `scratch` until
    /// [`ProbeScratch::flush_counters`].
    pub fn decide_index_in(
        &self,
        pair: &CompiledPair,
        index: usize,
        scratch: &mut ProbeScratch,
    ) -> Option<Result<Option<Vec<Natural>>, ContainmentError>> {
        pair.compile_index_in(index, scratch).then(|| self.decide_compiled(scratch))
    }

    /// Decides the MPI in `scratch`'s compile output.
    fn decide_compiled(
        &self,
        scratch: &mut ProbeScratch,
    ) -> Result<Option<Vec<Natural>>, ContainmentError> {
        let _probe_span = dioph_obs::span(dioph_obs::Phase::Probe);
        scratch.note_probe();
        let ProbeScratch { compile, mpi, gc_rows, gc_current, .. } = scratch;
        let terms = &compile.out;
        match self.algorithm {
            Algorithm::MostGeneralProbe | Algorithm::AllProbes => {
                if terms.order.is_empty() {
                    // No containment mapping: 0 < M(ξ) at the all-ones point.
                    return Ok(Some(vec![Natural::one(); terms.dimension()])); // alloc-ok: returned witness
                }
                mpi.build_system(&terms.monomial, terms.rows());
                let Some(d) = mpi.natural_direction(self.engine)? else {
                    return Ok(None);
                };
                Ok(Some(terms.to_mpi().witness_from_direction(&d)))
            }
            Algorithm::GuessCheck { budget } => {
                guess_check_probe(terms, budget, gc_rows, gc_current)
            }
        }
    }
}

/// The Lemma 5.1 bounded enumeration for one probe: searches for a natural
/// direction vector satisfying every strict inequality of the probe's MPI
/// system, within `budget` enumerated candidates.
fn guess_check_probe(
    compiled: &MpiTerms,
    budget: u64,
    gc_rows: &mut Vec<Vec<i128>>,
    gc_current: &mut Vec<u64>,
) -> Result<Option<Vec<Natural>>, ContainmentError> {
    let n = compiled.dimension();
    let e = &compiled.monomial;
    // Exponent differences computed straight on the machine words (widened
    // so u64::MAX − 0 stays exact), written into recycled row storage.
    let mut term_count = 0usize;
    for m in compiled.rows() {
        if gc_rows.len() == term_count {
            gc_rows.push(Vec::new()); // alloc-ok: outer growth, once per warm-up
        }
        let row = &mut gc_rows[term_count];
        row.clear();
        row.extend(e.iter().zip(m).map(|(&a, &b)| a as i128 - b as i128));
        term_count += 1;
    }
    // Rows past `term_count` are previous probes' leftovers: ignored here,
    // kept warm for the next probe.
    let rows = &gc_rows[..term_count];

    if rows.is_empty() {
        // No containment mapping at all: the all-ones bag already violates
        // containment for this probe tuple.
        return Ok(Some(vec![Natural::one(); n])); // alloc-ok: returned witness
    }

    // Small-solution bound (Lemma 5.1): a solution exists iff one exists
    // with component sum at most 6·n³·φ. We use the safe over-approximation
    // φ = max_h (1 + Σ_j |(e − e_h)_j|).
    let phi: u64 = rows
        .iter()
        .map(|row| 1 + row.iter().map(|c| c.unsigned_abs() as u64).sum::<u64>())
        .max()
        .unwrap_or(1);
    let bound = 6u64
        .saturating_mul(n as u64)
        .saturating_mul(n as u64)
        .saturating_mul(n as u64)
        .saturating_mul(phi);

    // Enumerate candidate vectors by increasing component sum, so the
    // smallest violating directions are found first.
    let mut enumerated = 0u64;
    let mut found = false;
    let current = gc_current;
    current.clear();
    current.resize(n, 0);
    'sums: for total in 0..=bound {
        let control = enumerate_compositions(current, 0, total, &mut |candidate| {
            enumerated += 1;
            if enumerated > budget {
                return EnumerationControl::Abort;
            }
            let satisfies_all = rows.iter().all(|row| {
                row.iter().zip(candidate).map(|(&c, &d)| c * d as i128).sum::<i128>() > 0
            });
            if satisfies_all {
                found = true;
                EnumerationControl::Stop
            } else {
                EnumerationControl::Continue
            }
        });
        match control {
            EnumerationControl::Continue => {}
            EnumerationControl::Stop | EnumerationControl::Abort => break 'sums,
        }
    }
    if enumerated > budget {
        return Err(ContainmentError::BudgetExceeded { budget });
    }
    if !found {
        return Ok(None);
    }
    // On `Stop`, `enumerate_compositions` leaves the winning candidate in the
    // composition buffer untouched — read it from there instead of cloning it
    // inside the visitor.
    let direction: &[u64] = current;
    let naturals: Vec<Natural> = direction.iter().copied().map(Natural::from).collect(); // alloc-ok: base search input
    let base = compiled
        .to_mpi()
        .smallest_base_for(&naturals)
        .expect("a direction satisfying every inequality yields a base");
    // ξ_j = ζ*^{d_j}: raise the base straight from the enumerated
    // machine-word exponents (no round trip through Natural and back).
    Ok(Some(direction.iter().map(|&d| base.pow(d)).collect())) // alloc-ok: returned witness
}

/// Convenience wrapper: decides `containee ⊑b containing` with the default
/// decider (most-general probe tuple + exact simplex).
pub fn is_bag_contained(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
) -> Result<BagContainment, ContainmentError> {
    BagContainmentDecider::default().decide(containee, containing)
}

/// Decides bag **equivalence** of two projection-free conjunctive queries:
/// containment in both directions. Returns the two directional results, so a
/// failed equivalence still exposes which direction broke and with which
/// witness bag.
///
/// # Errors
/// Propagates the validation errors of [`BagContainmentDecider::decide`]
/// (both queries must be projection-free, safe and non-empty, since each acts
/// as the containee in one direction).
pub fn bag_equivalence(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<(BagContainment, BagContainment), ContainmentError> {
    let decider = BagContainmentDecider::default();
    let forward = decider.decide(q1, q2)?;
    let backward = decider.decide(q2, q1)?;
    Ok((forward, backward))
}

/// `true` iff both directions of [`bag_equivalence`] hold.
pub fn are_bag_equivalent(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
) -> Result<bool, ContainmentError> {
    let (forward, backward) = bag_equivalence(q1, q2)?;
    Ok(forward.holds() && backward.holds())
}

/// Flow control for [`enumerate_compositions`].
enum EnumerationControl {
    Continue,
    Stop,
    Abort,
}

/// Enumerates every vector of naturals of the current length whose components
/// sum to exactly `remaining`, invoking `visit` on each. Returns the first
/// non-`Continue` control requested by the visitor (or `Continue` if the
/// enumeration ran to completion).
fn enumerate_compositions(
    current: &mut Vec<u64>,
    position: usize,
    remaining: u64,
    visit: &mut impl FnMut(&[u64]) -> EnumerationControl,
) -> EnumerationControl {
    if position + 1 == current.len() {
        current[position] = remaining;
        return visit(current);
    }
    if position == current.len() {
        // Zero-dimensional vector: only the empty composition of 0 exists.
        return if remaining == 0 { visit(current) } else { EnumerationControl::Continue };
    }
    for value in 0..=remaining {
        current[position] = value;
        match enumerate_compositions(current, position + 1, remaining - value, visit) {
            EnumerationControl::Continue => {}
            stop => return stop,
        }
    }
    current[position] = 0;
    EnumerationControl::Continue
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::paper_examples;
    use dioph_cq::{parse_query, Term};

    const ENGINES: [FeasibilityEngine; 2] =
        [FeasibilityEngine::Simplex, FeasibilityEngine::FourierMotzkin];

    fn all_deciders() -> Vec<BagContainmentDecider> {
        let mut out = Vec::new();
        for engine in ENGINES {
            out.push(BagContainmentDecider::new(Algorithm::MostGeneralProbe).with_engine(engine));
            out.push(BagContainmentDecider::new(Algorithm::AllProbes).with_engine(engine));
        }
        out.push(BagContainmentDecider::new(Algorithm::GuessCheck { budget: 2_000_000 }));
        out
    }

    fn assert_contained(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) {
        for decider in all_deciders() {
            let result = decider.decide(q1, q2).expect("decision should succeed");
            assert!(result.holds(), "{decider:?} claims {q1} is not contained in {q2}: {result}");
        }
    }

    fn assert_not_contained(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) {
        for decider in all_deciders() {
            let result = decider.decide(q1, q2).expect("decision should succeed");
            assert!(!result.holds(), "{decider:?} wrongly claims {q1} ⊑b {q2}");
            let ce = result.counterexample().expect("non-containment must carry a witness");
            assert!(ce.verify(q1, q2), "counterexample {ce} fails verification for {q1} vs {q2}");
        }
    }

    #[test]
    fn paper_section2_containment_relations() {
        // From the paper: q1 ⊑b q2, q2 ⋢b q1, q1 ⊑b q3, q2 ⊑b q3.
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let q3 = paper_examples::section2_query_q3();
        assert_contained(&q1, &q2);
        assert_not_contained(&q2, &q1);
        assert_contained(&q1, &q3);
        assert_contained(&q2, &q3);
    }

    #[test]
    fn paper_section3_running_example_is_not_contained() {
        // The Section 3/4 running example: the MPI has Diophantine solutions
        // (the paper exhibits (1, 4, 3)), so q1 ⋢b q2.
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        assert_not_contained(&q1, &q2);
    }

    #[test]
    fn identical_queries_are_contained() {
        let q = paper_examples::section2_query_q1();
        assert_contained(&q, &q.clone());
        let q3 = parse_query("q(x) <- R(x, x), S(x)").unwrap();
        assert_contained(&q3, &q3.clone());
    }

    #[test]
    fn extra_atoms_break_containment_under_bag_semantics() {
        // Under SET semantics, q1(x) ← R(x,x), S(x) is contained in
        // q2(x) ← R(x,x) (drop a conjunct). Under BAG semantics it is NOT:
        // with µ(R(c,c)) = 1 and µ(S(c)) = 2 the containee's multiplicity is
        // 2 while the containing query's is 1. The MPI view makes this
        // immediate: u_R < u_R·u_S is solvable.
        let q1 = parse_query("q(x) <- R(x, x), S(x)").unwrap();
        let q2 = parse_query("p(x) <- R(x, x)").unwrap();
        assert!(dioph_cq::is_set_contained(&q1, &q2));
        assert_not_contained(&q1, &q2);
        // The converse also fails (q2 has answers on bags with no S at all).
        assert_not_contained(&q2, &q1);
    }

    #[test]
    fn higher_multiplicity_on_containing_side_is_not_contained() {
        // q2 ⋢b q1 from the paper is one instance; a minimal one:
        // p(x) ← R²(x,x) is not bag-contained in q(x) ← R(x,x)? Wait: the
        // containee is the query whose multiplicities must be dominated:
        // R²(x,x) gives µ², R(x,x) gives µ; µ² > µ as soon as µ ≥ 2.
        let containee = parse_query("p(x) <- R^2(x, x)").unwrap();
        let containing = parse_query("q(x) <- R(x, x)").unwrap();
        assert_not_contained(&containee, &containing);
        // The other direction holds: µ ≤ µ² for µ ≥ 1 and equals at µ = 1... but
        // at µ = 0 both are 0, so containment holds.
        assert_contained(&containing, &containee);
    }

    #[test]
    fn disjoint_relations_are_never_contained() {
        let q1 = parse_query("q(x) <- R(x, x)").unwrap();
        let q2 = parse_query("p(x) <- S(x, x)").unwrap();
        assert_not_contained(&q1, &q2);
        assert_not_contained(&q2, &q1);
    }

    #[test]
    fn arity_mismatch_is_not_contained() {
        let q1 = parse_query("q(x, y) <- R(x, y)").unwrap();
        let q2 = parse_query("p(x) <- R(x, x)").unwrap();
        assert_not_contained(&q1, &q2);
    }

    #[test]
    fn repeated_head_variables_constrain_the_containing_query() {
        // q1(x,x) asks for the diagonal; q2(x,y) ← R(x,y) contains it.
        let q1 = parse_query("q(x, x) <- R(x, x)").unwrap();
        let q2 = parse_query("p(x, y) <- R(x, y)").unwrap();
        assert_contained(&q1, &q2);
        // The converse is false (q2 returns non-diagonal tuples).
        assert_not_contained(&q2, &q1);
    }

    #[test]
    fn constants_in_the_containing_query() {
        // q1(x) ← R(x,'c')  ⊑b  q2(x) ← R(x,y) (projecting away the constant).
        let q1 = parse_query("q(x) <- R(x, 'c')").unwrap();
        let q2 = parse_query("p(x) <- R(x, y)").unwrap();
        assert_contained(&q1, &q2);
    }

    #[test]
    fn containment_with_existential_multiplication() {
        // Paper-style phenomenon: the containing query can use an existential
        // variable to pick up extra multiplicity.
        // q1(x) ← R²(x,x)  vs  q2(x) ← R(x,y), R(y,x):
        // On the canonical instance {R(x̂,x̂)} the only mapping gives u², equal
        // to the containee's u², so containment holds.
        let q1 = parse_query("q(x) <- R^2(x, x)").unwrap();
        let q2 = parse_query("p(x) <- R(x, y), R(y, x)").unwrap();
        assert_contained(&q1, &q2);
    }

    #[test]
    fn boolean_queries_work() {
        // A ground Boolean containee (its body mentions only constants) is
        // bag-contained in the Boolean query asking for a symmetric pair of
        // edges anywhere: the containing query's sum includes the containee's
        // product as one of its terms.
        let q1 = parse_query("b1() <- E('a', 'b'), E('b', 'a')").unwrap();
        let q2 = parse_query("b2() <- E(x, y), E(y, x)").unwrap();
        assert_contained(&q1, &q2);
    }

    #[test]
    fn validation_errors() {
        let not_pf = parse_query("q(x) <- R(x, y)").unwrap();
        let ok = parse_query("p(x) <- R(x, x)").unwrap();
        let err = is_bag_contained(&not_pf, &ok).unwrap_err();
        assert!(matches!(err, ContainmentError::ContaineeNotProjectionFree { .. }));

        let unsafe_q = ConjunctiveQuery::from_atom_list(
            "u",
            vec![Term::var("x"), Term::var("z")],
            vec![dioph_cq::Atom::new("R", vec![Term::var("x"), Term::var("x")])],
        );
        let err = is_bag_contained(&unsafe_q, &ok).unwrap_err();
        assert!(matches!(err, ContainmentError::UnsafeQuery { .. }));

        let empty = ConjunctiveQuery::from_atom_list("e", vec![], vec![]);
        let err = is_bag_contained(&empty, &ok).unwrap_err();
        assert!(matches!(err, ContainmentError::EmptyBody { .. }));

        // The containing query may freely have projections — only the
        // containee is restricted.
        let has_proj = parse_query("p(x) <- R(x, y), R(y, y)").unwrap();
        assert!(is_bag_contained(&ok, &has_proj).is_ok());
    }

    #[test]
    fn bag_equivalence_checks_both_directions() {
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        // Set-equivalent but not bag-equivalent: the backward direction fails.
        let (forward, backward) = bag_equivalence(&q1, &q2).unwrap();
        assert!(forward.holds());
        assert!(!backward.holds());
        assert!(backward.counterexample().unwrap().verify(&q2, &q1));
        assert!(!are_bag_equivalent(&q1, &q2).unwrap());
        // Every query is bag-equivalent to itself.
        assert!(are_bag_equivalent(&q1, &q1.clone()).unwrap());
        // Projections anywhere make the equivalence question leave the fragment.
        let q3 = paper_examples::section2_query_q3();
        assert!(bag_equivalence(&q1, &q3).is_err());
    }

    #[test]
    fn guess_check_budget_is_enforced() {
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let decider = BagContainmentDecider::new(Algorithm::GuessCheck { budget: 3 });
        let err = decider.decide(&q1, &q2).unwrap_err();
        assert!(matches!(err, ContainmentError::BudgetExceeded { budget: 3 }));
    }

    #[test]
    fn bag_containment_implies_set_containment_on_fixtures() {
        // Sanity check of the basic observation from Section 2 on the
        // paper fixtures and a few crafted pairs.
        let pairs = [
            (paper_examples::section2_query_q1(), paper_examples::section2_query_q2()),
            (paper_examples::section2_query_q1(), paper_examples::section2_query_q3()),
            (
                parse_query("q(x) <- R(x, x), S(x)").unwrap(),
                parse_query("p(x) <- R(x, x)").unwrap(),
            ),
        ];
        for (q1, q2) in pairs {
            let bag = is_bag_contained(&q1, &q2).unwrap().holds();
            let set = dioph_cq::is_set_contained(&q1, &q2);
            if bag {
                assert!(set, "bag containment must imply set containment ({q1} vs {q2})");
            }
        }
    }
}
