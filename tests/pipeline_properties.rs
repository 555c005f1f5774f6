//! Cross-crate property-based tests for the whole decision pipeline.
//!
//! The key soundness and completeness invariants checked on randomly
//! generated instances:
//!
//! * specialization pairs are always bag-contained (containment by
//!   construction survives the whole pipeline);
//! * all deciders (most-general probe / all probes, simplex / Fourier–Motzkin)
//!   agree on every instance;
//! * every non-containment verdict carries a counterexample bag that the
//!   independent Equation-2 evaluator confirms;
//! * bag containment implies set containment;
//! * a verdict of containment is never refuted by random-bag sampling;
//! * the 3-colorability reduction agrees with a direct graph search;
//! * the differential fuzzing oracle finds no disagreement on generated
//!   pairs, with identical outcomes across thread counts.

use diophantus::fuzz::{check_pair, generate_case, FuzzConfig};
use diophantus::workloads::random::{
    inflated_pair, random_projection_free_cq, specialization_pair,
};
use diophantus::workloads::threecol::three_colorable_via_containment;
use diophantus::workloads::{refute_by_random_bags, Graph, QueryShape, RefutationConfig};
use diophantus::{
    set_containment, Algorithm, BagContainmentDecider, ConjunctiveQuery, FeasibilityEngine,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn small_shape() -> QueryShape {
    QueryShape {
        relations: vec![("R".to_string(), 2), ("S".to_string(), 1)],
        atom_occurrences: 3,
        head_variables: 2,
        existential_variables: 2,
        constants: 1,
        max_multiplicity: 2,
    }
}

fn deciders() -> Vec<BagContainmentDecider> {
    vec![
        BagContainmentDecider::new(Algorithm::MostGeneralProbe),
        BagContainmentDecider::new(Algorithm::MostGeneralProbe)
            .with_engine(FeasibilityEngine::FourierMotzkin),
        BagContainmentDecider::new(Algorithm::AllProbes),
    ]
}

/// Decides with every configured decider and asserts they agree; returns the
/// common verdict.
fn unanimous_verdict(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) -> bool {
    let verdicts: Vec<(String, bool)> = deciders()
        .iter()
        .map(|d| {
            let result = d.decide(containee, containing).expect("valid instance");
            if let Some(ce) = result.counterexample() {
                assert!(
                    ce.verify(containee, containing),
                    "unverifiable counterexample for {containee} vs {containing}"
                );
            }
            (format!("{d:?}"), result.holds())
        })
        .collect();
    let first = verdicts[0].1;
    for (name, verdict) in &verdicts {
        assert_eq!(*verdict, first, "decider {name} disagrees on {containee} vs {containing}");
    }
    first
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Specialisation pairs are bag-contained by construction.
    #[test]
    fn specialization_pairs_are_contained(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (containee, containing) = specialization_pair(&small_shape(), &mut rng);
        prop_assert!(unanimous_verdict(&containee, &containing));
    }

    /// All deciders agree on arbitrary (mostly non-contained) random pairs,
    /// counterexamples verify, and bag containment implies set containment.
    #[test]
    fn deciders_agree_on_random_pairs(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = small_shape();
        let containee = random_projection_free_cq("q_containee", &shape, &mut rng);
        let containing = random_projection_free_cq("q_containing", &shape, &mut rng);
        let bag = unanimous_verdict(&containee, &containing);
        let set = set_containment(&containee, &containing).holds();
        if bag {
            prop_assert!(set, "bag containment must imply set containment");
        }
    }

    /// Inflated pairs still produce unanimous, verified verdicts (often
    /// non-containment), and containment verdicts are never refuted by
    /// random-bag sampling.
    #[test]
    fn verdicts_are_consistent_with_random_refutation(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (containee, containing) = inflated_pair(&small_shape(), &mut rng);
        let verdict = unanimous_verdict(&containee, &containing);
        let refuted = refute_by_random_bags(
            &containee,
            &containing,
            RefutationConfig { attempts: 60, max_multiplicity: 4 },
            &mut rng,
        );
        if let Some(ce) = refuted {
            prop_assert!(!verdict, "a sampled violating bag contradicts a containment verdict");
            prop_assert!(ce.verify(&containee, &containing));
        }
    }

    /// The Theorem 5.4 reduction agrees with direct 3-colorability search on
    /// random graphs.
    #[test]
    fn three_coloring_reduction_agrees(seed in 0u64..10_000, n in 3usize..6, p in 0.2f64..0.9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = Graph::random(n, p, &mut rng);
        let direct = graph.is_three_colorable();
        let via = three_colorable_via_containment(
            &graph,
            &BagContainmentDecider::new(Algorithm::MostGeneralProbe),
        );
        prop_assert_eq!(direct, via, "reduction disagrees on {:?}", graph);
    }

    /// Reflexivity: every projection-free query is bag-contained in itself.
    #[test]
    fn containment_is_reflexive(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_projection_free_cq("q", &small_shape(), &mut rng);
        prop_assert!(unanimous_verdict(&q, &q));
    }

    /// The differential fuzzing oracle on generated pairs: no disagreement
    /// between the MPI decider, the brute-force bag sweep, certificate
    /// replay and the set-containment necessary condition — and the whole
    /// outcome (verdict, certificate, database counts) is identical under
    /// jobs 1/2/4.
    #[test]
    fn fuzz_oracle_agrees_across_jobs(seed in 0u64..10_000) {
        let case = generate_case(seed, 0);
        let db_seed = diophantus::fuzz::derive_seed(seed, u64::MAX);
        let mut reference = None;
        for jobs in [1usize, 2, 4] {
            let config = FuzzConfig { jobs, samples: 8, ..FuzzConfig::default() };
            let outcome = check_pair(&case.containee, &case.containing, &config, db_seed);
            prop_assert!(
                outcome.disagreement.is_none(),
                "jobs={}: {:?}",
                jobs,
                outcome.disagreement
            );
            match &reference {
                None => reference = Some(outcome),
                Some(expected) => prop_assert_eq!(
                    expected,
                    &outcome,
                    "outcome diverged under jobs={}",
                    jobs
                ),
            }
        }
    }

    /// Transitivity on specialisation chains: σ2(σ1(q)) ⊑b σ1(q) ⊑b q, and the
    /// composed pair is also directly decided as contained.
    #[test]
    fn containment_along_specialisation_chains(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = small_shape();
        let (middle, top) = specialization_pair(&shape, &mut rng);
        // Specialise once more by merging the two head variables.
        let sigma = diophantus::cq::Substitution::from_pairs([(
            "x1".to_string(),
            diophantus::Term::var("x0"),
        )]);
        let bottom = middle.apply_substitution(&sigma).with_name("q_bottom");
        prop_assert!(unanimous_verdict(&bottom, &middle));
        prop_assert!(unanimous_verdict(&middle, &top));
        prop_assert!(unanimous_verdict(&bottom, &top));
    }
}
