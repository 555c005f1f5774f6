//! Differential tests for the probe compiler.
//!
//! The compile kernel builds every probe's MPI over interned ids in a
//! reused scratch. These tests rebuild each MPI the slow, materialising
//! way — ground the containee, enumerate `Hom_{h(x)=t}(q2, I_{q1(t)})`
//! with `query_homomorphisms_with_answer` over its canonical instance, and
//! read each mapping's monomial off the multiplicities of the image query
//! `h(q2)` (Equation 1) — and demand the same grounded containee, MPI and
//! mapping count for every raw probe index.

use std::collections::BTreeSet;

use diophantus::containment::{CompiledPair, CompiledProbe};
use diophantus::cq::{
    most_general_probe_tuple, paper_examples, parse_query, query_homomorphisms_with_answer, Atom,
    ConjunctiveQuery, ProbeSpace, Term,
};
use diophantus::poly::{Monomial, Mpi, Polynomial};
use diophantus::workloads::{generate_pairs, WorkloadKind};
use proptest::prelude::*;

/// The materialising reference: `None` when `tuple` does not unify with
/// the containee's head.
fn reference(
    containee: &ConjunctiveQuery,
    containing: &ConjunctiveQuery,
    tuple: &[Term],
) -> Option<(ConjunctiveQuery, Mpi, usize)> {
    let grounded = containee.ground_with(tuple)?;
    let unknowns: Vec<&Atom> = grounded.body_atoms().collect();
    let monomial = Monomial::new(grounded.body().map(|(_, m)| m).collect());
    let mappings =
        query_homomorphisms_with_answer(containing, &grounded.canonical_instance(), tuple);
    let mut polynomial = Polynomial::zero(unknowns.len());
    for h in &mappings {
        let image = containing.apply_substitution(h);
        polynomial.add_monomial(Monomial::new(
            unknowns.iter().map(|atom| image.multiplicity(atom)).collect(),
        ));
    }
    Some((grounded, Mpi::new(polynomial, monomial), mappings.len()))
}

fn assert_same(kernel: Option<&CompiledProbe>, expected: Option<(ConjunctiveQuery, Mpi, usize)>) {
    match (kernel, expected) {
        (None, None) => {}
        (Some(kernel), Some((grounded, mpi, mappings))) => {
            assert_eq!(kernel.grounded_containee(), &grounded);
            assert_eq!(kernel.mpi(), &mpi, "MPI of {grounded}");
            assert_eq!(kernel.mapping_count(), mappings, "mapping count of {grounded}");
        }
        (kernel, expected) => panic!(
            "the kernel and the reference disagree on unifiability: {:?} vs {:?}",
            kernel.map(CompiledProbe::probe),
            expected.map(|(g, _, _)| g.head().to_vec())
        ),
    }
}

/// Compares every raw probe index of the pair, and its most-general probe.
fn assert_kernel_matches_reference(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) {
    let pair = CompiledPair::new(containee.clone(), containing.clone()).expect("decidable pair");
    let space = ProbeSpace::new(containee);
    assert_eq!(pair.probe_count(), Ok(space.raw_len()));
    for index in 0..space.raw_len() {
        let expected = space.tuple(index).map(|tuple| {
            reference(containee, containing, &tuple).expect("probe tuples unify with the head")
        });
        assert_same(pair.compile_probe(index).as_ref(), expected);
    }
    let most_general = most_general_probe_tuple(containee);
    assert_same(Some(pair.most_general()), reference(containee, containing, &most_general));
}

#[test]
fn kernel_matches_the_materialising_route_on_the_paper_fixtures() {
    let q = |text: &str| parse_query(text).unwrap();
    let pairs = [
        (paper_examples::section2_query_q1(), paper_examples::section2_query_q2()),
        (paper_examples::section2_query_q2(), paper_examples::section2_query_q1()),
        (paper_examples::section2_query_q1(), paper_examples::section2_query_q3()),
        (paper_examples::section3_query_q1(), paper_examples::section3_query_q2()),
        (paper_examples::section3_probe_example(), paper_examples::section3_probe_example()),
        (q("q(x) <- R(x, 'c1'), R(x, 'c2')"), q("p(x) <- R(x, y1), R(x, y2)")),
        (q("q(x1, x2) <- R(x1, x2), R(x2, x1)"), q("p(x1, x2) <- R(x1, x2)")),
    ];
    for (containee, containing) in &pairs {
        assert_kernel_matches_reference(containee, containing);
    }
}

#[test]
fn kernel_matches_the_materialising_route_on_every_workload_kind() {
    let kinds = [
        WorkloadKind::Specialization { atoms: 5 },
        WorkloadKind::Inflated { atoms: 5 },
        WorkloadKind::Contained { atoms: 5 },
        WorkloadKind::Path { length: 2 },
        WorkloadKind::ExponentialMapping { mappings_log2: 3 },
        WorkloadKind::ThreeColorability { vertices: 4 },
        WorkloadKind::Chain { length: 3 },
        WorkloadKind::Star { rays: 3 },
        WorkloadKind::Clique { vertices: 3 },
    ];
    for kind in kinds {
        for seed in [7, 2019] {
            for pair in generate_pairs(kind, 3, seed) {
                let raw_len = ProbeSpace::new(&pair.containee).raw_len();
                assert!(raw_len <= 5_000, "{}: keep the sweep small ({raw_len})", pair.label);
                assert_kernel_matches_reference(&pair.containee, &pair.containing);
            }
        }
    }
}

#[test]
fn explicit_probe_tuples_match_the_reference() {
    // `CompiledProbe::compile` takes any tuple: terms outside the
    // containee's domain, and tuples that do not unify with the head.
    let containee = parse_query("q(x, x, y) <- R(x, y), S(y, 'c')").unwrap();
    let containing = parse_query("p(u, v, w) <- R(u, w), S(w, z)").unwrap();
    let (a, b, c) = (Term::canon("a"), Term::constant("b"), Term::constant("c"));
    for tuple in [
        vec![a.clone(), a.clone(), b.clone()],
        vec![a.clone(), b.clone(), c.clone()],
        vec![c.clone(), c.clone(), c.clone()],
        vec![a.clone(), a.clone()],
    ] {
        assert_same(
            CompiledProbe::compile(&containee, &containing, &tuple).as_ref(),
            reference(&containee, &containing, &tuple),
        );
    }
}

/// Terms of a containee: variables and constants `c0`, `c1`.
fn containee_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0usize..3).prop_map(|i| Term::var(format!("x{i}"))),
        (0usize..2).prop_map(|i| Term::constant(format!("c{i}"))),
    ]
}

/// Terms of a containing query: also existential variables and `c2`,
/// which no containee mentions.
fn containing_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        (0usize..3).prop_map(|i| Term::var(format!("x{i}"))),
        (0usize..2).prop_map(|i| Term::var(format!("y{i}"))),
        (0usize..3).prop_map(|i| Term::constant(format!("c{i}"))),
    ]
}

/// Atoms over `R` (used at arities 1 and 2), `S` and, for the containing
/// query only, `T`.
fn atom(term: impl Strategy<Value = Term>, relations: usize) -> impl Strategy<Value = Atom> {
    (0..relations, proptest::collection::vec(term, 1..3)).prop_map(|(r, mut terms)| {
        let relation = ["R", "S", "T"][r];
        if relation == "S" {
            terms.truncate(1);
        }
        Atom::new(relation, terms)
    })
}

/// A projection-free containee and a containing query of the same arity
/// (or one more, now and then).
fn pair() -> impl Strategy<Value = (ConjunctiveQuery, ConjunctiveQuery)> {
    (
        proptest::collection::vec((atom(containee_term(), 2), 1u64..3), 1..4),
        proptest::collection::vec((atom(containing_term(), 3), 1u64..3), 0..4),
        any::<u64>(),
    )
        .prop_map(|(body, containing_body, pick)| {
            let vars: Vec<Term> = body
                .iter()
                .flat_map(|(a, _)| a.terms().iter().filter(|t| t.is_var()).cloned())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            // Every body variable in the head (projection-free), plus a
            // repeated one now and then; no variables means a Boolean query.
            let mut head = vars.clone();
            if !vars.is_empty() && pick % 3 == 0 {
                head.insert(0, vars[pick as usize / 3 % vars.len()].clone());
            }
            let containee = ConjunctiveQuery::new("q", head.clone(), body);
            let free: Vec<Term> = containing_body
                .iter()
                .flat_map(|(a, _)| a.terms().iter().filter(|t| t.is_var()).cloned())
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let arity = head.len() + usize::from(pick % 7 == 0);
            let containing_head = (0..arity)
                .map(|i| match free.get((pick as usize >> 4).wrapping_add(i) % free.len().max(1)) {
                    Some(v) if pick % 5 != 0 => v.clone(),
                    _ => Term::constant(format!("c{}", i % 3)),
                })
                .collect();
            (containee, ConjunctiveQuery::new("p", containing_head, containing_body))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Random pairs with language constants, repeated head variables,
    /// non-unifiable candidate tuples, Boolean containees, containing
    /// constants absent from the containee and `R` at two arities.
    #[test]
    fn kernel_matches_the_materialising_route_on_random_pairs((containee, containing) in pair()) {
        assert_kernel_matches_reference(&containee, &containing);
    }
}
