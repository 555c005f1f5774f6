//! Certificates returned by the containment deciders.

use core::fmt;

use dioph_arith::Natural;
use dioph_bagdb::{bag_answer_multiplicity, BagInstance};
use dioph_cq::{ConjunctiveQuery, Term};

/// A machine-checkable witness that `containee ⋢b containing`.
///
/// The witness consists of a probe tuple `t` and a bag `µ` over the canonical
/// instance `I_{containee(t)}` such that the multiplicity of `t` in the bag
/// answer of the containee strictly exceeds its multiplicity in the bag
/// answer of the containing query. [`Counterexample::verify`] re-checks this
/// with the independent Equation-2 evaluator of `dioph-bagdb`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Counterexample {
    /// The violating answer tuple (a probe tuple of the containee).
    pub probe: Vec<Term>,
    /// The violating bag instance.
    pub bag: BagInstance,
    /// Multiplicity of `probe` in the containee's answer over `bag`.
    pub containee_multiplicity: Natural,
    /// Multiplicity of `probe` in the containing query's answer over `bag`.
    pub containing_multiplicity: Natural,
}

impl Counterexample {
    /// Re-evaluates both queries on the stored bag and checks that the
    /// recorded multiplicities are correct and actually violate containment.
    pub fn verify(&self, containee: &ConjunctiveQuery, containing: &ConjunctiveQuery) -> bool {
        let lhs = bag_answer_multiplicity(containee, &self.bag, &self.probe);
        let rhs = bag_answer_multiplicity(containing, &self.bag, &self.probe);
        lhs == self.containee_multiplicity && rhs == self.containing_multiplicity && lhs > rhs
    }

    /// Renders the witness as a JSON object.
    ///
    /// Terms and atoms are serialised in their datalog notation (so they can
    /// be fed back through the `dioph-cq` parser), and multiplicities as
    /// decimal *strings*, since [`Natural`] values can exceed every
    /// fixed-width JSON number type:
    ///
    /// ```json
    /// {"probe": ["'c1'", "'c2'"],
    ///  "bag": [{"atom": "R('c1', 'c2')", "multiplicity": "2"}],
    ///  "containee_multiplicity": "8",
    ///  "containing_multiplicity": "4"}
    /// ```
    pub fn to_json(&self) -> String {
        let probe: Vec<String> =
            self.probe.iter().map(|t| crate::json::string(&t.to_string())).collect();
        let bag: Vec<String> = self
            .bag
            .iter()
            .map(|(atom, mult)| {
                format!(
                    "{{\"atom\":{},\"multiplicity\":\"{mult}\"}}",
                    crate::json::string(&atom.to_string())
                )
            })
            .collect();
        format!(
            "{{\"probe\":[{}],\"bag\":[{}],\"containee_multiplicity\":\"{}\",\
             \"containing_multiplicity\":\"{}\"}}",
            probe.join(","),
            bag.join(","),
            self.containee_multiplicity,
            self.containing_multiplicity
        )
    }
}

impl fmt::Display for Counterexample {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tuple (")?;
        for (i, t) in self.probe.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(
            f,
            ") on bag {} : containee multiplicity {} > containing multiplicity {}",
            self.bag, self.containee_multiplicity, self.containing_multiplicity
        )
    }
}

/// Outcome of a bag-containment decision.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BagContainment {
    /// `containee ⊑b containing`; records how many probe tuples (and MPIs)
    /// were examined to conclude it.
    Contained {
        /// Number of probe tuples whose MPI was shown unsolvable.
        probes_checked: usize,
    },
    /// `containee ⋢b containing`, with an explicit violating bag.
    NotContained(Box<Counterexample>),
}

impl BagContainment {
    /// `true` iff the result asserts containment.
    pub fn holds(&self) -> bool {
        matches!(self, BagContainment::Contained { .. })
    }

    /// The counterexample, if containment fails.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        match self {
            BagContainment::NotContained(ce) => Some(ce),
            BagContainment::Contained { .. } => None,
        }
    }

    /// Renders the verdict as a JSON object: either
    /// `{"verdict":"contained","probes_checked":n}` or
    /// `{"verdict":"not_contained","counterexample":{…}}` with the
    /// [`Counterexample::to_json`] witness embedded.
    pub fn to_json(&self) -> String {
        match self {
            BagContainment::Contained { probes_checked } => {
                format!("{{\"verdict\":\"contained\",\"probes_checked\":{probes_checked}}}")
            }
            BagContainment::NotContained(ce) => {
                format!("{{\"verdict\":\"not_contained\",\"counterexample\":{}}}", ce.to_json())
            }
        }
    }
}

impl fmt::Display for BagContainment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BagContainment::Contained { probes_checked } => {
                write!(f, "contained (checked {probes_checked} probe tuple(s))")
            }
            BagContainment::NotContained(ce) => write!(f, "not contained: {ce}"),
        }
    }
}

/// Errors reported when the decision procedure's preconditions are violated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ContainmentError {
    /// The containee query has existential variables; the decision procedure
    /// of the paper applies only to projection-free containees.
    ContaineeNotProjectionFree {
        /// The offending existential variables.
        existential_variables: Vec<String>,
    },
    /// A query has a head variable that does not occur in its body, so its
    /// canonical instance does not determine the head (unsafe query).
    UnsafeQuery {
        /// Name of the offending query.
        query: String,
        /// Head variables missing from the body.
        missing_variables: Vec<String>,
    },
    /// The containee has an empty body; its answers are not well defined for
    /// the canonical-instance machinery.
    EmptyBody {
        /// Name of the offending query.
        query: String,
    },
    /// The enumeration-based decider exceeded its configured budget.
    BudgetExceeded {
        /// The configured bound on enumerated vectors.
        budget: u64,
    },
    /// The LP feasibility engine exhausted its defensive iteration budget.
    /// Reported as a value so a pathological pair fails alone instead of
    /// panicking the engine-pool worker holding it (the batch front-end
    /// surfaces it as a per-pair `decide` error and `--keep-going` streams
    /// continue).
    IterationBudget {
        /// The budget that was exhausted.
        iterations: usize,
    },
    /// The containee's probe space has more candidate tuples than a `usize`
    /// can index, so the all-probes and guess-and-check sweeps cannot run.
    /// Reported before the pair is scheduled, so `--keep-going` streams
    /// answer it as a per-pair `decide` error and continue.
    ProbeSpaceOverflow {
        /// Name of the containee.
        query: String,
        /// Size of its canonical active domain.
        domain: usize,
        /// Its arity (the probe tuples' length).
        arity: usize,
    },
}

impl ContainmentError {
    /// The stable `dioph-analyze` lint code for this error, when the error
    /// is a *fragment* violation the static analyzer can also detect
    /// (`D001` unsafe-query, `D002` containee-not-projection-free, `D003`
    /// empty-body). Engine-budget errors have no static counterpart and
    /// return `None`.
    ///
    /// This is the unification point between engine-time validation and the
    /// `diophantus check` lint pass: both report the same code for the same
    /// defect, so a pair that `check` passes clean (at error level) is never
    /// rejected by `CompiledPair::new` for a statically detectable reason.
    pub fn lint_code(&self) -> Option<&'static str> {
        match self {
            ContainmentError::UnsafeQuery { .. } => Some("D001"),
            ContainmentError::ContaineeNotProjectionFree { .. } => Some("D002"),
            ContainmentError::EmptyBody { .. } => Some("D003"),
            ContainmentError::BudgetExceeded { .. }
            | ContainmentError::IterationBudget { .. }
            | ContainmentError::ProbeSpaceOverflow { .. } => None,
        }
    }
}

impl From<dioph_linalg::LinalgError> for ContainmentError {
    fn from(error: dioph_linalg::LinalgError) -> Self {
        match error {
            dioph_linalg::LinalgError::IterationBudget { iterations } => {
                ContainmentError::IterationBudget { iterations }
            }
        }
    }
}

impl fmt::Display for ContainmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainmentError::ContaineeNotProjectionFree { existential_variables } => write!(
                f,
                "the containee must be projection-free; existential variables: {}",
                existential_variables.join(", ")
            ),
            ContainmentError::UnsafeQuery { query, missing_variables } => write!(
                f,
                "query {query} is unsafe: head variables {} do not occur in the body",
                missing_variables.join(", ")
            ),
            ContainmentError::EmptyBody { query } => {
                write!(f, "query {query} has an empty body")
            }
            ContainmentError::BudgetExceeded { budget } => {
                write!(f, "guess-and-check enumeration exceeded its budget of {budget} vectors")
            }
            ContainmentError::IterationBudget { iterations } => {
                write!(f, "the LP engine exceeded its iteration budget of {iterations}")
            }
            ContainmentError::ProbeSpaceOverflow { query, domain, arity } => write!(
                f,
                "the probe space of {query} has {domain}^{arity} candidate tuples, \
                 too many to index"
            ),
        }
    }
}

impl std::error::Error for ContainmentError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_cq::paper_examples;
    use dioph_cq::Atom;

    fn c(n: &str) -> Term {
        Term::constant(n)
    }

    #[test]
    fn counterexample_verification() {
        // The paper's q2 ⋢b q1 witness: Iµ = {R²(c1,c2), P(c2,c2)}, tuple (c1,c2).
        let q1 = paper_examples::section2_query_q1();
        let q2 = paper_examples::section2_query_q2();
        let bag =
            BagInstance::from_u64_multiplicities(paper_examples::section2_counterexample_bag());
        let good = Counterexample {
            probe: vec![c("c1"), c("c2")],
            bag: bag.clone(),
            containee_multiplicity: Natural::from(8u64),
            containing_multiplicity: Natural::from(4u64),
        };
        assert!(good.verify(&q2, &q1));
        // Swapping the roles breaks verification (4 > 8 is false).
        assert!(!good.verify(&q1, &q2));
        // Wrong recorded numbers break verification.
        let bad = Counterexample { containee_multiplicity: Natural::from(9u64), ..good.clone() };
        assert!(!bad.verify(&q2, &q1));
        // A bag that does not violate containment fails verification too.
        let harmless = Counterexample {
            probe: vec![c("c1"), c("c2")],
            bag: BagInstance::from_u64_multiplicities([
                (Atom::new("R", vec![c("c1"), c("c2")]), 1),
                (Atom::new("P", vec![c("c2"), c("c2")]), 1),
            ]),
            containee_multiplicity: Natural::one(),
            containing_multiplicity: Natural::one(),
        };
        assert!(!harmless.verify(&q2, &q1));
    }

    #[test]
    fn json_serialisation() {
        let ce = Counterexample {
            probe: vec![c("c1"), c("c2")],
            bag: BagInstance::from_u64_multiplicities([
                (Atom::new("R", vec![c("c1"), c("c2")]), 2),
                (Atom::new("P", vec![c("c2"), c("c2")]), 1),
            ]),
            containee_multiplicity: Natural::from(8u64),
            containing_multiplicity: Natural::from(4u64),
        };
        let json = ce.to_json();
        assert_eq!(
            json,
            "{\"probe\":[\"'c1'\",\"'c2'\"],\
             \"bag\":[{\"atom\":\"P('c2', 'c2')\",\"multiplicity\":\"1\"},\
             {\"atom\":\"R('c1', 'c2')\",\"multiplicity\":\"2\"}],\
             \"containee_multiplicity\":\"8\",\"containing_multiplicity\":\"4\"}"
        );
        let contained = BagContainment::Contained { probes_checked: 3 };
        assert_eq!(contained.to_json(), "{\"verdict\":\"contained\",\"probes_checked\":3}");
        let not = BagContainment::NotContained(Box::new(ce));
        assert!(not.to_json().starts_with("{\"verdict\":\"not_contained\",\"counterexample\":{"));
        assert!(not.to_json().ends_with("}}"));
    }

    #[test]
    fn outcome_accessors_and_display() {
        let contained = BagContainment::Contained { probes_checked: 3 };
        assert!(contained.holds());
        assert!(contained.counterexample().is_none());
        assert!(contained.to_string().contains("3 probe"));

        let ce = Counterexample {
            probe: vec![c("c1")],
            bag: BagInstance::new(),
            containee_multiplicity: Natural::one(),
            containing_multiplicity: Natural::zero(),
        };
        let not = BagContainment::NotContained(Box::new(ce));
        assert!(!not.holds());
        assert!(not.counterexample().is_some());
        assert!(not.to_string().contains("not contained"));
    }

    #[test]
    fn error_display() {
        let e = ContainmentError::ContaineeNotProjectionFree {
            existential_variables: vec!["y1".into(), "y2".into()],
        };
        assert!(e.to_string().contains("y1, y2"));
        let e = ContainmentError::UnsafeQuery {
            query: "q".into(),
            missing_variables: vec!["z".into()],
        };
        assert!(e.to_string().contains("unsafe"));
        assert!(ContainmentError::EmptyBody { query: "q".into() }.to_string().contains("empty"));
        assert!(ContainmentError::BudgetExceeded { budget: 10 }.to_string().contains("10"));
        let e: ContainmentError =
            dioph_linalg::LinalgError::IterationBudget { iterations: 7 }.into();
        assert_eq!(e, ContainmentError::IterationBudget { iterations: 7 });
        assert!(e.to_string().contains("iteration budget of 7"), "{e}");
    }
}
