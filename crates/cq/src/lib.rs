//! # dioph-cq — the conjunctive-query model
//!
//! The logical substrate of the *"Attacking Diophantus"* (PODS 2019)
//! reproduction: terms with canonical constants, atoms, conjunctive queries
//! in **bag representation**, substitutions, homomorphism / containment-
//! mapping enumeration, canonical instances, probe tuples and a datalog
//! parser.
//!
//! Everything here follows Section 2 and Section 3 of the paper closely; the
//! worked examples of those sections are available as fixtures in
//! [`paper_examples`].
//!
//! ```
//! use dioph_cq::{parse_query, probe_tuples, is_set_contained};
//!
//! let q1 = parse_query("q1(x1, x2) <- R^2(x1, x2), P^3(x2, x2)").unwrap();
//! let q2 = parse_query("q2(x1, x2) <- R^3(x1, x2), P^3(x2, x2)").unwrap();
//!
//! // Chandra–Merlin set containment: q1 ⊑s q2 and q2 ⊑s q1.
//! assert!(is_set_contained(&q1, &q2));
//! assert!(is_set_contained(&q2, &q1));
//!
//! // Probe tuples of a projection-free query (Definition 3.1).
//! assert_eq!(probe_tuples(&q1).len(), 4);
//! ```
//!
//! ---
//!
#![doc = include_str!("../../../docs/grammar.md")]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod homomorphism;
pub mod paper_examples;
mod parser;
mod probe;
mod query;
mod span;
mod substitution;
mod term;
mod ucq;

pub use atom::Atom;
pub use homomorphism::{
    containment_mappings, containment_mappings_to_grounded, homomorphisms_into, is_set_contained,
    query_homomorphisms, query_homomorphisms_with_answer,
};
pub use parser::{
    parse_program, parse_program_spanned, parse_query, parse_query_spanned, parse_ucq,
    ParseQueryError, ProgramParseError,
};
pub use probe::{canonical_active_domain, most_general_probe_tuple, probe_tuples, ProbeSpace};
pub use query::ConjunctiveQuery;
pub use span::{line_column, AtomOccurrence, LineIndex, QuerySpans, Span, SpannedQuery};
pub use substitution::Substitution;
pub use term::Term;
pub use ucq::UnionOfConjunctiveQueries;
