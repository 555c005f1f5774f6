//! The three-way differential oracle and the disagreement shrinker.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dioph_analyze::{classify_pair, FragmentClass};
use dioph_arith::Natural;
use dioph_bagdb::{
    bag_containment_holds_on, bounded_bag_count, enumerate_bounded_bags, ground_atoms, BagInstance,
    BagViolation,
};
use dioph_containment::{
    bag_set_containment, set_containment, Algorithm, BagContainment, CompiledPair,
    ContainmentError, Counterexample,
};
use dioph_cq::{Atom, ConjunctiveQuery, Term};
use dioph_engine::{DecisionEngine, EngineConfig};

use crate::FuzzConfig;

/// SplitMix64-style stream derivation: case `index` of master seed `seed`
/// gets its own statistically independent RNG stream, so cases (and the
/// database sampling inside one case) never share randomness and a single
/// case can be replayed in isolation.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deliberate decider corruption, used to prove the oracle catches (and
/// minimises) a real bug. Applied to the decider's verdict before any check
/// runs, including during shrinking — so the injected bug stays reproducible
/// on the minimised pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Injection {
    /// Invert the verdict: `Contained` becomes `NotContained` with a
    /// fabricated certificate (caught by certificate replay), and
    /// `NotContained` becomes `Contained` (caught by the database sweep).
    FlipVerdict,
    /// Bump the claimed containee multiplicity of every counterexample by
    /// one (caught by certificate replay).
    TamperCertificate,
}

impl Injection {
    fn apply(self, verdict: BagContainment, pair: &CompiledPair) -> BagContainment {
        match (self, verdict) {
            (Injection::FlipVerdict, BagContainment::Contained { .. }) => {
                // A fabricated witness on the canonical bag. The pair really
                // is contained, so no bag satisfies lhs > rhs and the replay
                // check must reject this certificate.
                let canonical = pair.most_general();
                let bag = BagInstance::from_multiplicities(
                    canonical.grounded_containee().body().map(|(a, _)| (a.clone(), Natural::one())),
                );
                BagContainment::NotContained(Box::new(Counterexample {
                    probe: canonical.probe().to_vec(),
                    bag,
                    containee_multiplicity: Natural::one(),
                    containing_multiplicity: Natural::zero(),
                }))
            }
            (Injection::FlipVerdict, BagContainment::NotContained(_)) => {
                BagContainment::Contained { probes_checked: 0 }
            }
            (Injection::TamperCertificate, BagContainment::NotContained(mut ce)) => {
                ce.containee_multiplicity = ce.containee_multiplicity.clone() + Natural::one();
                BagContainment::NotContained(ce)
            }
            (Injection::TamperCertificate, contained) => contained,
        }
    }
}

/// The kind of three-way disagreement the oracle detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DisagreementKind {
    /// A `NotContained` certificate whose bag does not reproduce its claimed
    /// multiplicities under the independent Equation-2 evaluator.
    CertificateRejected,
    /// A `Contained` verdict on a pair that is not even set-contained
    /// (Chandra–Merlin is a necessary condition for bag containment).
    SetConditionViolated,
    /// The bag-set verdict disagrees with the set verdict on a
    /// projection-free containee (they must coincide per Section 3).
    BagSetMismatch,
    /// A `Contained` verdict contradicted by an explicit bag database.
    ContainedRefuted,
}

impl DisagreementKind {
    /// Stable kebab-case label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            DisagreementKind::CertificateRejected => "certificate-rejected",
            DisagreementKind::SetConditionViolated => "set-condition-violated",
            DisagreementKind::BagSetMismatch => "bag-set-mismatch",
            DisagreementKind::ContainedRefuted => "contained-refuted-by-database",
        }
    }
}

/// A detected disagreement, with the original pair and a shrunk reproducer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Disagreement {
    /// What went wrong.
    pub kind: DisagreementKind,
    /// Human-readable one-line diagnosis.
    pub detail: String,
    /// The original containee.
    pub containee: ConjunctiveQuery,
    /// The original containing query.
    pub containing: ConjunctiveQuery,
    /// The greedily minimised containee still reproducing the disagreement.
    pub minimized_containee: ConjunctiveQuery,
    /// The greedily minimised containing query.
    pub minimized_containing: ConjunctiveQuery,
    /// For database refutations: a minimised machine-checkable witness
    /// (probe tuple + bag + both multiplicities, in certificate form).
    pub counterexample: Option<Counterexample>,
}

/// Everything the oracle observed about one pair.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaseOutcome {
    /// The decider's verdict (post-injection), or the per-pair error.
    pub result: Result<BagContainment, ContainmentError>,
    /// The Chandra–Merlin set-containment verdict.
    pub set: bool,
    /// The bag-set verdict, when the containee is in the fragment.
    pub bag_set: Option<bool>,
    /// The decidability-matrix cell of the pair.
    pub fragment: FragmentClass,
    /// How many bag databases the brute-force side checked.
    pub databases: usize,
    /// The disagreement, if any — already shrunk.
    pub disagreement: Option<Disagreement>,
}

struct RawDisagreement {
    kind: DisagreementKind,
    detail: String,
    violation: Option<(BagInstance, BagViolation)>,
}

fn engine_for(config: &FuzzConfig) -> DecisionEngine {
    // All-probes rather than the most-general-probe default: it gives the
    // probe pool something to fan out (`jobs` is meaningful) and makes
    // `probes_checked` independent of the thread count.
    DecisionEngine::new(EngineConfig {
        jobs: config.jobs,
        algorithm: Algorithm::AllProbes,
        ..EngineConfig::default()
    })
}

/// The active domain for random schema databases: every constant the pair
/// mentions, padded with fresh `c{i}` constants up to `max_adom`.
fn schema_domain(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    max_adom: usize,
) -> Vec<Term> {
    let mut domain: Vec<Term> = containee
        .body_atoms()
        .chain(containing.body_atoms())
        .flat_map(dioph_cq::Atom::constants)
        .collect::<std::collections::BTreeSet<Term>>()
        .into_iter()
        .collect();
    let mut i = 0;
    while domain.len() < max_adom {
        let fresh = Term::constant(format!("c{i}"));
        if !domain.contains(&fresh) {
            domain.push(fresh);
        }
        i += 1;
    }
    domain.sort();
    domain
}

fn schema_of(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) -> Vec<(String, usize)> {
    let mut schema: Vec<(String, usize)> = containee
        .body_atoms()
        .chain(containing.body_atoms())
        .map(|a| (a.relation().to_string(), a.arity()))
        .collect();
    schema.sort();
    schema.dedup();
    schema
}

/// Sweeps bag databases against a `Contained` verdict. Returns the first
/// refuting bag (in deterministic order) and the number of bags checked.
fn sweep_databases(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    canonical_facts: &[Atom],
    config: &FuzzConfig,
    rng: &mut StdRng,
) -> (usize, Option<(BagInstance, BagViolation)>) {
    fn check(
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
        bag: BagInstance,
        checked: &mut usize,
    ) -> Option<(BagInstance, BagViolation)> {
        *checked += 1;
        match bag_containment_holds_on(containee, containing, &bag) {
            Ok(()) => None,
            Err(violation) => Some((bag, violation)),
        }
    }

    let mut checked = 0;
    // Phase 1: every bag over the containee's canonical facts with bounded
    // multiplicities — exhaustive when the space is small (the common case
    // for fuzz-sized queries), sampled otherwise.
    let exhaustive = bounded_bag_count(canonical_facts.len(), config.max_mult)
        .map(|n| n <= config.enumeration_cap)
        .unwrap_or(false);
    if exhaustive {
        for bag in enumerate_bounded_bags(canonical_facts, config.max_mult) {
            if let Some(found) = check(containee, containing, bag, &mut checked) {
                return (checked, Some(found));
            }
        }
    } else {
        for _ in 0..config.samples {
            let bag = BagInstance::from_multiplicities(canonical_facts.iter().filter_map(|f| {
                let m = rng.random_range(0..=config.max_mult);
                (m > 0).then(|| (f.clone(), Natural::from(m)))
            }));
            if let Some(found) = check(containee, containing, bag, &mut checked) {
                return (checked, Some(found));
            }
        }
    }

    // Phase 2: random bags over the full schema and a bounded active domain
    // — databases the canonical instance cannot express (extra facts,
    // merged constants).
    let fact_space = ground_atoms(
        &schema_of(containee, containing),
        &schema_domain(containee, containing, config.max_adom),
    );
    if !fact_space.is_empty() {
        for _ in 0..config.samples {
            let picks = rng.random_range(1..=fact_space.len().min(4));
            let mut bag = BagInstance::new();
            for _ in 0..picks {
                let fact = &fact_space[rng.random_range(0..fact_space.len())];
                bag.set(fact.clone(), Natural::from(rng.random_range(1..=config.max_mult)));
            }
            if let Some(found) = check(containee, containing, bag, &mut checked) {
                return (checked, Some(found));
            }
        }
    }
    (checked, None)
}

/// One full oracle pass over a pair: decide, inject, cross-check. Returns
/// the raw (unshrunk) disagreement, plus the bookkeeping the report needs.
#[allow(clippy::type_complexity)]
fn check_once(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    config: &FuzzConfig,
    db_seed: u64,
) -> (Result<BagContainment, ContainmentError>, bool, Option<bool>, usize, Option<RawDisagreement>)
{
    let set = set_containment(containee, containing).holds();
    let bag_set = bag_set_containment(containee, containing).ok().map(|r| r.holds());

    let pair = match CompiledPair::new(containee.clone(), containing.clone()) {
        Ok(pair) => Arc::new(pair),
        Err(e) => return (Err(e), set, bag_set, 0, None),
    };
    let verdict = match engine_for(config).decide_pair(Arc::clone(&pair)) {
        Ok(verdict) => verdict,
        Err(e) => return (Err(e), set, bag_set, 0, None),
    };
    let verdict = match config.injection {
        Some(injection) => injection.apply(verdict, &pair),
        None => verdict,
    };

    // Section 3: for a projection-free containee the bag-set verdict IS the
    // set verdict; any daylight between the two is a bug in one of them.
    if let Some(bag_set) = bag_set {
        if bag_set != set {
            let raw = RawDisagreement {
                kind: DisagreementKind::BagSetMismatch,
                detail: format!(
                    "bag-set says {} but set containment says {}",
                    if bag_set { "contained" } else { "not contained" },
                    if set { "contained" } else { "not contained" },
                ),
                violation: None,
            };
            return (Ok(verdict), set, Some(bag_set), 0, Some(raw));
        }
    }

    match &verdict {
        BagContainment::NotContained(ce) => {
            let raw = (!ce.verify(containee, containing)).then(|| RawDisagreement {
                kind: DisagreementKind::CertificateRejected,
                detail: format!(
                    "certificate claims {} > {} at tuple ({}) but the Equation-2 evaluator \
                     disagrees",
                    ce.containee_multiplicity,
                    ce.containing_multiplicity,
                    ce.probe.iter().map(ToString::to_string).collect::<Vec<_>>().join(", "),
                ),
                violation: None,
            });
            (Ok(verdict), set, bag_set, 0, raw)
        }
        BagContainment::Contained { .. } => {
            if !set {
                let raw = RawDisagreement {
                    kind: DisagreementKind::SetConditionViolated,
                    detail: "verdict is contained but Chandra–Merlin finds no containment \
                             mapping (set containment is necessary for bag containment)"
                        .to_string(),
                    violation: None,
                };
                return (Ok(verdict), set, bag_set, 0, Some(raw));
            }
            let canonical_facts: Vec<Atom> =
                pair.most_general().grounded_containee().body().map(|(a, _)| a.clone()).collect();
            let mut rng = StdRng::seed_from_u64(db_seed);
            let (databases, refutation) =
                sweep_databases(containee, containing, &canonical_facts, config, &mut rng);
            let raw = refutation.map(|(bag, violation)| RawDisagreement {
                kind: DisagreementKind::ContainedRefuted,
                detail: format!("verdict is contained but on bag {bag} the {violation}"),
                violation: Some((bag, violation)),
            });
            (Ok(verdict), set, bag_set, databases, raw)
        }
    }
}

fn valid_containee(q: &ConjunctiveQuery) -> bool {
    q.distinct_atom_count() > 0 && q.is_safe() && q.is_projection_free()
}

fn valid_containing(q: &ConjunctiveQuery) -> bool {
    q.distinct_atom_count() > 0 && q.is_safe()
}

/// Single-atom mutants of a query: each distinct atom removed entirely, and
/// each multiplicity above one decremented.
fn query_mutants(query: &ConjunctiveQuery) -> Vec<ConjunctiveQuery> {
    let atoms: Vec<(Atom, u64)> = query.body().map(|(a, m)| (a.clone(), m)).collect();
    let mut mutants = Vec::new();
    for skip in 0..atoms.len() {
        let body: Vec<(Atom, u64)> =
            atoms.iter().enumerate().filter(|(i, _)| *i != skip).map(|(_, p)| p.clone()).collect();
        mutants.push(ConjunctiveQuery::new(query.name(), query.head().to_vec(), body));
    }
    for (i, (_, m)) in atoms.iter().enumerate() {
        if *m > 1 {
            let body = atoms
                .iter()
                .enumerate()
                .map(|(j, (a, m))| (a.clone(), if j == i { m - 1 } else { *m }));
            mutants.push(ConjunctiveQuery::new(query.name(), query.head().to_vec(), body));
        }
    }
    mutants
}

/// Shrinks the witness bag of a database refutation: drop facts and
/// decrement multiplicities while the pair still violates containment on it.
fn shrink_bag(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    mut bag: BagInstance,
    mut violation: BagViolation,
) -> (BagInstance, BagViolation) {
    loop {
        let mut improved = false;
        let facts: Vec<(Atom, Natural)> = bag.iter().map(|(a, m)| (a.clone(), m.clone())).collect();
        for (fact, mult) in &facts {
            // Try removing the fact entirely, then shrinking it to a single
            // occurrence.
            for candidate_mult in [Natural::zero(), Natural::one()] {
                if mult <= &candidate_mult {
                    continue;
                }
                let mut candidate = bag.clone();
                candidate.set(fact.clone(), candidate_mult.clone());
                if let Err(v) = bag_containment_holds_on(containee, containing, &candidate) {
                    bag = candidate;
                    violation = v;
                    improved = true;
                    break;
                }
            }
            if improved {
                break;
            }
        }
        if !improved {
            return (bag, violation);
        }
    }
}

/// Greedy shrink loop: repeatedly adopt the first single-atom mutant (of
/// either query) that still reproduces the same disagreement kind.
fn shrink(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    kind: DisagreementKind,
    config: &FuzzConfig,
    db_seed: u64,
) -> (ConjunctiveQuery, ConjunctiveQuery, Option<(BagInstance, BagViolation)>) {
    let reproduces = |ce: &ConjunctiveQuery, cg: &ConjunctiveQuery| -> Option<RawDisagreement> {
        let (_, _, _, _, raw) = check_once(ce, cg, config, db_seed);
        raw.filter(|r| r.kind == kind)
    };
    let mut current_ce = containee.clone();
    let mut current_cg = containing.clone();
    let mut witness = None;
    loop {
        let mut improved = false;
        for mutant in query_mutants(&current_ce) {
            if !valid_containee(&mutant) {
                continue;
            }
            if let Some(raw) = reproduces(&mutant, &current_cg) {
                current_ce = mutant;
                witness = raw.violation;
                improved = true;
                break;
            }
        }
        if !improved {
            for mutant in query_mutants(&current_cg) {
                if !valid_containing(&mutant) {
                    continue;
                }
                if let Some(raw) = reproduces(&current_ce, &mutant) {
                    current_cg = mutant;
                    witness = raw.violation;
                    improved = true;
                    break;
                }
            }
        }
        if !improved {
            break;
        }
    }
    (current_ce, current_cg, witness)
}

/// Runs the full oracle on one pair — decide through the probe pool, apply
/// any configured injection, cross-check all three ways, and shrink any
/// disagreement to a minimal reproducer. Deterministic in `(pair, config,
/// db_seed)`; the decider configuration (`jobs`) must not change the
/// outcome, and the fuzzer exists to prove exactly that.
pub fn check_pair(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    config: &FuzzConfig,
    db_seed: u64,
) -> CaseOutcome {
    let fragment = classify_pair(containee, containing);
    let (result, set, bag_set, databases, raw) = check_once(containee, containing, config, db_seed);
    let disagreement = raw.map(|raw| {
        let (min_ce, min_cg, min_witness) =
            shrink(containee, containing, raw.kind, config, db_seed);
        // The shrink loop only records a witness when it improves the pair;
        // fall back to the original sweep's witness otherwise.
        let witness = min_witness.or(raw.violation);
        let counterexample = witness.map(|(bag, violation)| {
            let (bag, violation) = shrink_bag(&min_ce, &min_cg, bag, violation);
            Counterexample {
                probe: violation.tuple,
                bag,
                containee_multiplicity: violation.containee_multiplicity,
                containing_multiplicity: violation.containing_multiplicity,
            }
        });
        Disagreement {
            kind: raw.kind,
            detail: raw.detail,
            containee: containee.clone(),
            containing: containing.clone(),
            minimized_containee: min_ce,
            minimized_containing: min_cg,
            counterexample,
        }
    });
    CaseOutcome { result, set, bag_set, fragment, databases, disagreement }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::{paper_examples, parse_query};

    fn q(text: &str) -> ConjunctiveQuery {
        parse_query(text).unwrap()
    }

    fn config() -> FuzzConfig {
        FuzzConfig { samples: 8, ..FuzzConfig::default() }
    }

    #[test]
    fn clean_pairs_produce_no_disagreement() {
        let cases = [
            (paper_examples::section2_query_q1(), paper_examples::section2_query_q2()),
            (paper_examples::section2_query_q2(), paper_examples::section2_query_q1()),
            (q("q(x) <- R^2(x, x)"), q("p(x) <- R(x, y), R(y, x)")),
            (q("q(x) <- R(x, x), S(x, x)"), q("p(x) <- R(x, x)")),
        ];
        for (containee, containing) in cases {
            let outcome = check_pair(&containee, &containing, &config(), 1);
            assert!(outcome.disagreement.is_none(), "{containee} vs {containing}");
            assert_eq!(outcome.fragment, FragmentClass::PaperDecidable);
            // Bag-set coincides with set on the paper fragment.
            assert_eq!(outcome.bag_set, Some(outcome.set));
            if outcome.result.as_ref().unwrap().holds() {
                assert!(outcome.databases > 0, "contained verdicts must be swept");
            }
        }
    }

    #[test]
    fn flip_verdict_injection_is_caught_both_ways() {
        let cfg = FuzzConfig { injection: Some(Injection::FlipVerdict), ..config() };
        // A contained pair: flipping fabricates a bogus certificate.
        let containee = paper_examples::section2_query_q1();
        let containing = paper_examples::section2_query_q2();
        let outcome = check_pair(&containee, &containing, &cfg, 1);
        let d = outcome.disagreement.expect("flipped contained verdict must be caught");
        assert_eq!(d.kind, DisagreementKind::CertificateRejected);

        // A not-contained pair: flipping asserts containment; the bounded
        // sweep (or the set-condition check) must refute it.
        let containee = q("q(x) <- R^2(x, x)");
        let containing = q("p(x) <- R(x, x)");
        let outcome = check_pair(&containee, &containing, &cfg, 1);
        let d = outcome.disagreement.expect("flipped not-contained verdict must be caught");
        assert_eq!(d.kind, DisagreementKind::ContainedRefuted);
        let ce = d.counterexample.expect("database refutations carry a witness");
        assert!(ce.verify(&d.minimized_containee, &d.minimized_containing));
        // The reproducer is minimal: a single atom on each side suffices.
        assert!(d.minimized_containee.total_atom_count() <= 4);
        assert!(d.minimized_containing.total_atom_count() <= 4);
    }

    #[test]
    fn tampered_certificates_are_rejected() {
        let cfg = FuzzConfig { injection: Some(Injection::TamperCertificate), ..config() };
        let containee = paper_examples::section2_query_q2();
        let containing = paper_examples::section2_query_q1();
        let outcome = check_pair(&containee, &containing, &cfg, 1);
        let d = outcome.disagreement.expect("tampered certificate must be caught");
        assert_eq!(d.kind, DisagreementKind::CertificateRejected);
        // Contained pairs are untouched by this injection.
        let outcome = check_pair(&containing, &containee, &cfg, 1);
        assert!(outcome.disagreement.is_none());
    }

    #[test]
    fn outcomes_are_identical_across_jobs() {
        let pairs = [
            (q("q(x) <- R^2(x, x)"), q("p(x) <- R(x, y), R(y, x)")),
            (paper_examples::section2_query_q2(), paper_examples::section2_query_q1()),
        ];
        for (containee, containing) in pairs {
            let reference = check_pair(&containee, &containing, &config(), 3);
            for jobs in [1usize, 2, 4] {
                let cfg = FuzzConfig { jobs, ..config() };
                let outcome = check_pair(&containee, &containing, &cfg, 3);
                assert_eq!(outcome, reference, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn out_of_fragment_pairs_report_errors_not_panics() {
        let containee = q("q(x) <- R(x, y)");
        let containing = q("p(x) <- R(x, x)");
        let outcome = check_pair(&containee, &containing, &config(), 0);
        assert!(matches!(outcome.result, Err(ContainmentError::ContaineeNotProjectionFree { .. })));
        assert_eq!(outcome.bag_set, None);
        // Multiplicity-free with a projection-bearing containee: the
        // Chaudhuri–Vardi bag-set cell, not the paper fragment.
        assert_eq!(outcome.fragment, FragmentClass::BagSet);
    }

    #[test]
    fn seed_derivation_separates_streams() {
        let a = derive_seed(7, 0);
        let b = derive_seed(7, 1);
        let c = derive_seed(8, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(7, 0));
    }
}
