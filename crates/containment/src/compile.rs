//! Compilation of a bag-containment instance into a Monomial–Polynomial
//! Inequality (Definitions 3.2 and 3.3 of the paper).
//!
//! Fixing a projection-free containee `q1(x1)`, a probe tuple `t` and the
//! containing query `q2(x2)`:
//!
//! * the **unknowns** are the distinct atoms of `body(q1(t))` (equivalently,
//!   the facts of the canonical instance `I_{q1(t)}`), each standing for the
//!   unknown multiplicity that a bag assigns to that fact;
//! * the **monomial** `M_{q1(t)}(u)` has exponent `µ_{q1(t)}(α)` for the
//!   unknown of atom `α`;
//! * the **polynomial** `P^{q2}_{q1(t)}(u)` has one monomial per containment
//!   mapping `h ∈ CM(q2(x2), q1(t))`, namely the monomial of the collapsed
//!   image query `h(q2)`; mappings with identical images accumulate into the
//!   coefficient.
//!
//! Corollary 3.1 / Theorem 5.3 then reduce the containment question to the
//! (un)solvability of `P(u) < M(u)` over the naturals.
//!
//! ## One kernel
//!
//! Every probe — the most-general one, each index of the all-probes sweep,
//! each guess-and-check probe — is compiled by the same kernel. A
//! `CompilePlan`, built once per pair, interns relation names and the
//! sorted probe domain to integer ids, keeps the containee's body as
//! head-position arguments and the containing query as slot/id patterns.
//! Per probe, the kernel decodes the tuple, grounds and sorts the facts
//! (merging the ones that ground equal, Equation 1), searches the
//! containment mappings with the matched fact recorded at each depth, and
//! accumulates each mapping's image exponents into the distinct polynomial
//! terms — all in a [`ProbeScratch`], so a warmed scratch compiles a probe
//! without heap allocation. Ids are assigned in term and relation-name
//! order, so the sorted facts are exactly the grounded containee's body
//! order and the unknown vector matches [`CompiledProbe::atoms`].
//!
//! A [`CompiledProbe`] is the kernel's output plus the materialised
//! grounded containee; the decide loops only build one for the probe whose
//! witness becomes the certificate.

use std::sync::OnceLock;

use dioph_arith::Natural;
use dioph_bagdb::{bag_answer_multiplicity, BagInstance};
use dioph_cq::{most_general_probe_tuple, Atom, ConjunctiveQuery, ProbeSpace, Term};
use dioph_poly::Mpi;

use crate::certificate::{ContainmentError, Counterexample};
use crate::scratch::{CompileScratch, Fact, MpiTerms, ProbeScratch};

/// A compiled probe: the grounded containee `q1(t)` and its MPI.
///
/// The probe tuple and the unknown vector are not stored separately: the
/// probe is the grounded containee's head, and unknown `u_j` is the `j`-th
/// distinct atom of its body (in the deterministic body order).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CompiledProbe {
    /// The grounded containee `q1(t)`; its head is the probe tuple `t` and
    /// its distinct body atoms are the unknowns.
    grounded_containee: ConjunctiveQuery,
    /// The MPI `P^{q2}_{q1(t)}(u) < M_{q1(t)}(u)`.
    mpi: Mpi,
    /// Number of containment mappings found (before accumulation).
    mapping_count: usize,
}

impl CompiledProbe {
    /// Compiles the MPI for containee `q1`, containing query `q2` and probe
    /// tuple `probe`.
    ///
    /// Returns `None` when the probe tuple is not unifiable with the head of
    /// `q1` (such tuples are not probe tuples of `q1` at all).
    pub fn compile(
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
        probe: &[Term],
    ) -> Option<CompiledProbe> {
        CompiledProbe::compile_owned(containee, containing, probe.to_vec())
    }

    /// [`Self::compile`] taking ownership of the probe tuple, which becomes
    /// the grounded containee's head.
    pub fn compile_owned(
        containee: &ConjunctiveQuery,
        containing: &ConjunctiveQuery,
        probe: Vec<Term>,
    ) -> Option<CompiledProbe> {
        // The probe may carry terms outside the containee's active domain;
        // interning them too keeps every id in term order.
        let plan = CompilePlan::new(containee, containing, &probe);
        let mut scratch = ProbeScratch::new();
        let compiled = plan.compile_tuple(containee, probe, &mut scratch);
        scratch.flush_counters();
        compiled
    }

    /// The grounded containee `q(t)` around the MPI the kernel left in
    /// `out`.
    fn materialise(containee: &ConjunctiveQuery, probe: Vec<Term>, out: &MpiTerms) -> Self {
        let grounded = containee
            .ground_with_tuple(probe)
            .expect("the kernel only compiles tuples unifiable with the head");
        debug_assert_eq!(grounded.distinct_atom_count(), out.dimension());
        CompiledProbe {
            grounded_containee: grounded,
            mpi: out.to_mpi(),
            mapping_count: out.mapping_count,
        }
    }

    /// The probe tuple: the head of the grounded containee.
    pub fn probe(&self) -> &[Term] {
        self.grounded_containee.head()
    }

    /// The grounded containee `q1(t)`.
    pub fn grounded_containee(&self) -> &ConjunctiveQuery {
        &self.grounded_containee
    }

    /// The unknown vector: the atom associated with each unknown, in the
    /// grounded containee's deterministic (sorted) body order.
    pub fn atoms(&self) -> impl ExactSizeIterator<Item = &Atom> {
        self.grounded_containee.body_atoms()
    }

    /// The number of unknowns.
    pub fn dimension(&self) -> usize {
        self.grounded_containee.distinct_atom_count()
    }

    /// The compiled MPI `P(u) < M(u)`.
    pub fn mpi(&self) -> &Mpi {
        &self.mpi
    }

    /// The number of containment mappings from the containing query into
    /// `q1(t)` (the number of monomial contributions before accumulation).
    pub fn mapping_count(&self) -> usize {
        self.mapping_count
    }

    /// Human-readable unknown names `u_{α}` for display.
    pub fn unknown_names(&self) -> Vec<String> {
        self.atoms().map(|a| format!("u_{a}")).collect()
    }

    /// Turns a natural assignment to the unknowns into the corresponding bag
    /// over the canonical instance `I_{q1(t)}`.
    ///
    /// # Panics
    /// Panics if the assignment's length differs from the number of unknowns.
    pub fn assignment_to_bag(&self, assignment: &[Natural]) -> BagInstance {
        assert_eq!(assignment.len(), self.dimension(), "assignment dimension mismatch");
        BagInstance::from_multiplicities(self.atoms().cloned().zip(assignment.iter().cloned()))
    }
}

/// A whole containment pair, validated once and shared **read-only**
/// across probes, worker threads and repeated decisions.
///
/// The pair holds its compile plan (built on first use) and the compiled
/// most-general probe (Theorem 5.3), which is memoised: the default route
/// compiles one MPI per pair, and a pair decided again (a `bench --repeat`
/// loop, a batch stream replaying a pair, the two directions of an
/// equivalence check each hitting their own pair) reuses it. The
/// all-probes and guess-and-check routes compile every probe afresh in the
/// deciding worker's [`ProbeScratch`]
/// ([`BagContainmentDecider::decide_index_in`]), so nothing is kept per
/// probe and memory does not grow with the probe space. [`Self::probe`]
/// still memoises per raw index for callers that want the probes as
/// values; its slots are only allocated if it is called.
///
/// All state is immutable after initialisation, so a `CompiledPair` is
/// `Send + Sync` and can sit behind an `Arc` (or a scoped borrow) while any
/// number of threads resolve probe indices concurrently.
///
/// [`BagContainmentDecider::decide_index_in`]: crate::BagContainmentDecider::decide_index_in
#[derive(Debug)]
pub struct CompiledPair {
    containee: ConjunctiveQuery,
    containing: ConjunctiveQuery,
    plan: OnceLock<CompilePlan>,
    most_general: OnceLock<CompiledProbe>,
    space: OnceLock<ProbeSpace>,
    /// One memoisation slot per raw probe index, for [`Self::probe`] only;
    /// `None` marks an index whose candidate tuple is not unifiable with the
    /// head (not a probe tuple).
    slots: OnceLock<Vec<OnceLock<Option<CompiledProbe>>>>,
}

impl CompiledPair {
    /// Validates the containee and wraps the pair for shared compilation.
    ///
    /// # Errors
    /// The same validation errors as `BagContainmentDecider::decide`:
    /// [`ContainmentError::EmptyBody`],
    /// [`ContainmentError::ContaineeNotProjectionFree`] and
    /// [`ContainmentError::UnsafeQuery`].
    pub fn new(
        containee: ConjunctiveQuery,
        containing: ConjunctiveQuery,
    ) -> Result<CompiledPair, ContainmentError> {
        validate_containee(&containee)?;
        Ok(CompiledPair {
            containee,
            containing,
            plan: OnceLock::new(),
            most_general: OnceLock::new(),
            space: OnceLock::new(),
            slots: OnceLock::new(),
        })
    }

    /// The containee `q1` (left side of `⊑b`).
    pub fn containee(&self) -> &ConjunctiveQuery {
        &self.containee
    }

    /// The containing query `q2` (right side of `⊑b`).
    pub fn containing(&self) -> &ConjunctiveQuery {
        &self.containing
    }

    fn plan(&self) -> &CompilePlan {
        self.plan.get_or_init(|| CompilePlan::new(&self.containee, &self.containing, &[]))
    }

    /// The compiled most-general probe (Theorem 5.3), compiled on first use.
    pub fn most_general(&self) -> &CompiledProbe {
        self.most_general_in(&mut ProbeScratch::new())
    }

    /// [`Self::most_general`], compiling on first use through `scratch`
    /// (the deciding worker's), so a warmed scratch compiles it without
    /// growing buffers.
    pub fn most_general_in(&self, scratch: &mut ProbeScratch) -> &CompiledProbe {
        self.most_general.get_or_init(|| {
            let probe = most_general_probe_tuple(&self.containee);
            // The most-general route needs the plan for this one compilation
            // only, so a pair that has not built it for a probe sweep does
            // not keep it.
            let transient;
            let plan = match self.plan.get() {
                Some(plan) => plan,
                None => {
                    transient = CompilePlan::new(&self.containee, &self.containing, &[]);
                    &transient
                }
            };
            let compiled = plan
                .compile_tuple(&self.containee, probe, scratch)
                .expect("the most-general probe tuple always unifies with the head");
            scratch.flush_counters();
            compiled
        })
    }

    /// The indexed probe space of the containee, computed on first use.
    ///
    /// # Panics
    /// As [`ProbeSpace::new`]; [`Self::probe_count`] reports the size
    /// overflow as an error instead.
    pub fn probe_space(&self) -> &ProbeSpace {
        self.space.get_or_init(|| ProbeSpace::new(&self.containee))
    }

    /// The number of candidate probe tuples, `|adom(I_q1)|^{arity}` (the raw
    /// length of [`Self::probe_space`]): raw indices `0..probe_count()` are
    /// the values [`Self::probe`] and
    /// [`BagContainmentDecider::decide_index_in`] accept.
    ///
    /// # Errors
    /// [`ContainmentError::ProbeSpaceOverflow`] when the count does not fit
    /// in `usize`: such a space can never be swept, so the all-probes and
    /// guess-and-check routes reject the pair up front.
    ///
    /// [`BagContainmentDecider::decide_index_in`]: crate::BagContainmentDecider::decide_index_in
    pub fn probe_count(&self) -> Result<usize, ContainmentError> {
        let plan = self.plan();
        plan.raw_len.ok_or_else(|| ContainmentError::ProbeSpaceOverflow {
            query: self.containee.name().to_string(),
            domain: plan.domain.len(),
            arity: self.containee.arity(),
        })
    }

    /// Resolves (and memoises) the compilation of the probe with raw index
    /// `index` in [`Self::probe_space`]; `None` when that index is not a
    /// probe tuple. Safe to call from many threads at once. The decide
    /// loops do not use it (see the type docs); the first call allocates one
    /// slot per raw index.
    ///
    /// # Panics
    /// Panics if `index` is out of range for the probe space.
    pub fn probe(&self, index: usize) -> Option<&CompiledProbe> {
        let len = self.probe_space().raw_len();
        let slots = self.slots.get_or_init(|| (0..len).map(|_| OnceLock::new()).collect());
        slots[index].get_or_init(|| self.compile_probe(index)).as_ref()
    }

    /// Compiles the probe with raw index `index` into a fresh
    /// [`CompiledProbe`], without memoising it; `None` when that index is
    /// not a probe tuple. The decide loops call it once per pair, for the
    /// probe whose witness becomes the certificate.
    ///
    /// # Panics
    /// Panics if `index` is not below [`Self::probe_count`].
    pub fn compile_probe(&self, index: usize) -> Option<CompiledProbe> {
        let plan = self.plan();
        assert!(
            plan.raw_len.is_some_and(|len| index < len),
            "probe index {index} out of range {:?}",
            plan.raw_len
        );
        let mut scratch = ProbeScratch::new();
        let compiled = self.compile_index_in(index, &mut scratch);
        scratch.flush_counters();
        compiled.then(|| {
            let probe = scratch.compile.tuple.iter().map(|&t| plan.domain[t as usize].clone());
            CompiledProbe::materialise(&self.containee, probe.collect(), &scratch.compile.out)
        })
    }

    /// The kernel entry point of the decide loops: compiles the probe with
    /// raw index `index` into `scratch` (its MPI is left in the scratch's
    /// compile output). Returns `false` — compiling nothing — when the index
    /// is not a probe tuple, including every index past
    /// [`Self::probe_count`] (the degenerate no-op unit).
    pub(crate) fn compile_index_in(&self, index: usize, scratch: &mut ProbeScratch) -> bool {
        let plan = self.plan();
        if plan.raw_len.is_none_or(|len| index >= len) {
            return false;
        }
        plan.decode(index, &mut scratch.compile.tuple);
        let compiled = plan.compile(&mut scratch.compile);
        if compiled {
            scratch.note_compiled(scratch.compile.out.mapping_count);
        }
        compiled
    }

    /// Builds (and soundness-checks) the counterexample bag for a probe of
    /// this pair from a satisfying MPI assignment.
    ///
    /// # Panics
    /// Panics if the extracted bag does not actually violate containment —
    /// that would be an internal soundness bug, re-checked here with the
    /// independent Equation-2 evaluator.
    pub fn counterexample(
        &self,
        compiled: &CompiledProbe,
        assignment: &[Natural],
    ) -> Counterexample {
        let bag = compiled.assignment_to_bag(assignment);
        let probe: Vec<Term> = compiled.probe().to_vec();
        let containee_multiplicity = bag_answer_multiplicity(&self.containee, &bag, &probe);
        let containing_multiplicity = bag_answer_multiplicity(&self.containing, &bag, &probe);
        assert!(
            containee_multiplicity > containing_multiplicity,
            "internal soundness violation: extracted bag does not violate containment \
             (containee {containee_multiplicity} vs containing {containing_multiplicity})"
        );
        Counterexample { probe, bag, containee_multiplicity, containing_multiplicity }
    }
}

/// A term id no fact carries: a containing-query constant outside the
/// containee's domain.
const ABSENT: u32 = u32::MAX;

/// The image of a containing-query variable slot not bound yet.
const UNBOUND: u32 = u32::MAX;

/// An argument of a containee atom: grounded by the probe component at a
/// head position, or an interned constant.
#[derive(Clone, Copy, Debug)]
enum Ground {
    Head(u32),
    Term(u32),
}

/// An argument of a containing-query atom: a variable slot, or an interned
/// constant ([`ABSENT`] when the containee's domain lacks it).
#[derive(Clone, Copy, Debug)]
enum Pattern {
    Slot(u32),
    Term(u32),
}

/// A body atom over interned relation ids; its arguments are the
/// `start..start + len` slice of the owning [`PlanAtoms`]' argument buffer.
#[derive(Clone, Copy, Debug)]
struct PlanAtom {
    relation: u32,
    start: u32,
    len: u32,
    multiplicity: u64,
}

/// A query body over interned ids, its arguments stored flat.
#[derive(Debug)]
struct PlanAtoms<A> {
    atoms: Vec<PlanAtom>,
    args: Vec<A>,
}

impl<A> PlanAtoms<A> {
    /// Interns the distinct body atoms of `query`, in body order.
    fn new<'q>(
        query: &'q ConjunctiveQuery,
        relation: impl Fn(&str) -> u32,
        mut arg: impl FnMut(&'q Term) -> A,
    ) -> Self {
        let mut args = Vec::with_capacity(query.body_atoms().map(Atom::arity).sum());
        let atoms = query
            .body()
            .map(|(atom, multiplicity)| {
                let start = args.len() as u32;
                args.extend(atom.terms().iter().map(&mut arg));
                PlanAtom {
                    relation: relation(atom.relation()),
                    start,
                    len: atom.arity() as u32,
                    multiplicity,
                }
            })
            .collect();
        PlanAtoms { atoms, args }
    }

    fn args(&self, atom: &PlanAtom) -> &[A] {
        &self.args[atom.start as usize..(atom.start + atom.len) as usize]
    }
}

/// Everything about a pair the per-probe kernel needs, interned once.
#[derive(Debug)]
struct CompilePlan {
    /// The sorted probe domain (the containee's canonical active domain,
    /// plus the terms of an explicitly given probe); a term's id is its
    /// index, so ids compare like terms.
    domain: Vec<Term>,
    /// `|domain|^{arity}` candidate tuples, `None` when that overflows.
    raw_len: Option<usize>,
    /// Per containee head position: `Head(p)`, the first position carrying
    /// the same variable (a probe must repeat its component), or the head
    /// constant a probe must equal.
    head: Vec<Ground>,
    /// The containee's distinct body atoms.
    body: PlanAtoms<Ground>,
    /// The containing query's head patterns; `None` when its arity differs
    /// from the containee's (no containment mapping exists then).
    containing_head: Option<Vec<Pattern>>,
    /// The containing query's distinct body atoms.
    containing: PlanAtoms<Pattern>,
    /// Distinct variables of the containing query.
    slots: usize,
}

impl CompilePlan {
    /// Interns `containee` and `containing`; `extra` terms join the domain.
    ///
    /// # Panics
    /// Panics if a containee body variable is missing from its head (the
    /// containee is not projection-free, so its groundings are not ground).
    fn new(containee: &ConjunctiveQuery, containing: &ConjunctiveQuery, extra: &[Term]) -> Self {
        let domain = probe_domain(containee, extra);
        let term = |t: &Term| domain.binary_search(t).map_or(ABSENT, |i| i as u32);
        // Relation ids in name order, so facts sort like atoms.
        let mut relations: Vec<&str> =
            containee.body_atoms().chain(containing.body_atoms()).map(Atom::relation).collect();
        relations.sort_unstable();
        relations.dedup();
        let relation = |name: &str| {
            relations.binary_search(&name).expect("every relation was interned") as u32
        };

        let ground = |t: &Term| {
            if t.is_var() {
                let position = containee
                    .head()
                    .iter()
                    .position(|h| h == t)
                    .expect("containment mappings into a grounded query need a ground body");
                Ground::Head(position as u32)
            } else {
                Ground::Term(term(t))
            }
        };
        let head = containee.head().iter().map(ground).collect();
        let body = PlanAtoms::new(containee, relation, ground);

        // Variable slots in first-occurrence order, head first.
        fn pattern<'q>(
            t: &'q Term,
            vars: &mut Vec<&'q str>,
            term: &dyn Fn(&Term) -> u32,
        ) -> Pattern {
            match t.as_var() {
                Some(v) => {
                    let slot = vars.iter().position(|u| *u == v).unwrap_or_else(|| {
                        vars.push(v);
                        vars.len() - 1
                    });
                    Pattern::Slot(slot as u32)
                }
                None => Pattern::Term(term(t)),
            }
        }
        let mut vars: Vec<&str> = Vec::new(); // alloc-ok: plan built once per pair
        let containing_head = (containing.arity() == containee.arity())
            .then(|| containing.head().iter().map(|t| pattern(t, &mut vars, &term)).collect());
        let containing_atoms =
            PlanAtoms::new(containing, relation, |t| pattern(t, &mut vars, &term));
        let slots = vars.len();

        let arity = containee.arity();
        let raw_len = if arity == 0 {
            // A Boolean query has exactly one (empty) candidate tuple.
            Some(1)
        } else {
            u32::try_from(arity).ok().and_then(|a| domain.len().checked_pow(a))
        };
        CompilePlan {
            domain,
            raw_len,
            head,
            body,
            containing_head,
            containing: containing_atoms,
            slots,
        }
    }

    /// Decodes raw index `index` into its candidate tuple of term ids, in
    /// [`ProbeSpace`] order (position 0 is the most significant digit).
    fn decode(&self, index: usize, tuple: &mut Vec<u32>) {
        let base = self.domain.len();
        tuple.clear();
        tuple.resize(self.head.len(), 0);
        let mut rest = index;
        for component in tuple.iter_mut().rev() {
            *component = (rest % base) as u32;
            rest /= base;
        }
    }

    /// Compiles an explicit probe tuple into a [`CompiledProbe`] through
    /// `scratch`; `None` when it is not unifiable with the containee's head.
    fn compile_tuple(
        &self,
        containee: &ConjunctiveQuery,
        probe: Vec<Term>,
        scratch: &mut ProbeScratch,
    ) -> Option<CompiledProbe> {
        if probe.len() != self.head.len() {
            return None;
        }
        let tuple = &mut scratch.compile.tuple;
        tuple.clear();
        tuple.extend(probe.iter().map(|t| {
            let id = self.domain.binary_search(t).expect("probe terms are in the plan's domain");
            id as u32
        }));
        if !self.compile(&mut scratch.compile) {
            return None;
        }
        scratch.note_compiled(scratch.compile.out.mapping_count);
        Some(CompiledProbe::materialise(containee, probe, &scratch.compile.out))
    }

    /// The kernel: compiles the probe tuple in `s.tuple` into `s.out`.
    /// Returns `false` (compiling nothing) when the tuple is not unifiable
    /// with the containee's head.
    fn compile(&self, s: &mut CompileScratch) -> bool {
        // Definition 3.1: repeated head variables take equal components,
        // head constants themselves.
        let unifiable = self.head.iter().zip(&s.tuple).all(|(g, &t)| match *g {
            Ground::Head(p) => s.tuple[p as usize] == t,
            Ground::Term(c) => c == t,
        });
        if !unifiable {
            return false;
        }
        let _compile_span = dioph_obs::span(dioph_obs::Phase::Compile);

        // Ground the containee, then sort its facts into atom order (ids
        // compare like the names and terms they stand for) and merge the
        // ones that ground equal, adding multiplicities (Equation 1).
        s.facts.clear();
        s.args.clear();
        for atom in &self.body.atoms {
            let start = s.args.len() as u32;
            s.args.extend(self.body.args(atom).iter().map(|g| match *g {
                Ground::Head(p) => s.tuple[p as usize],
                Ground::Term(c) => c,
            }));
            s.facts.push(Fact {
                relation: atom.relation,
                start,
                len: atom.len,
                multiplicity: atom.multiplicity,
            });
        }
        let args = &s.args;
        s.facts.sort_unstable_by(|a, b| {
            a.relation.cmp(&b.relation).then_with(|| a.args(args).cmp(b.args(args)))
        });
        s.facts.dedup_by(|later, kept| {
            let same = later.relation == kept.relation && later.args(args) == kept.args(args);
            if same {
                kept.multiplicity += later.multiplicity;
            }
            same
        });
        let n = s.facts.len();
        // The unknowns are the merged facts; the monomial is their
        // multiplicities.
        s.out.monomial.clear();
        s.out.monomial.extend(s.facts.iter().map(|f| f.multiplicity));
        s.out.terms.reset(n);
        s.out.mapping_count = 0;

        // Each containing atom's candidate facts: same relation and arity,
        // constants in place.
        s.candidates.clear();
        s.ranges.clear();
        for atom in &self.containing.atoms {
            let start = s.candidates.len() as u32;
            let pats = self.containing.args(atom);
            for (j, fact) in s.facts.iter().enumerate() {
                let fits = fact.relation == atom.relation
                    && fact.len == atom.len
                    && pats.iter().zip(fact.args(args)).all(|(p, &t)| match *p {
                        Pattern::Slot(_) => true,
                        Pattern::Term(c) => c == t,
                    });
                if fits {
                    s.candidates.push(j as u32);
                }
            }
            s.ranges.push((start, s.candidates.len() as u32));
        }
        // Most constrained atoms first (ties keep the body order).
        let ranges = &s.ranges;
        s.order.clear();
        s.order.extend(0..self.containing.atoms.len() as u32);
        s.order.sort_unstable_by_key(|&a| (ranges[a as usize].1 - ranges[a as usize].0, a));

        // Seed: the containing head maps componentwise onto the probe tuple.
        s.images.clear();
        s.images.resize(self.slots, UNBOUND);
        let seeded = self.containing_head.as_ref().is_some_and(|head| {
            head.iter().zip(&s.tuple).all(|(p, &t)| match *p {
                Pattern::Slot(slot) => {
                    let image = &mut s.images[slot as usize];
                    let fits = *image == UNBOUND || *image == t;
                    *image = t;
                    fits
                }
                Pattern::Term(c) => c == t,
            })
        });
        if seeded {
            s.trail.clear();
            s.chosen.clear();
            s.chosen.resize(self.containing.atoms.len(), 0);
            s.leaf.clear();
            s.leaf.resize(n, 0);
            let mut search = Search {
                atoms: &self.containing,
                order: &s.order,
                ranges: &s.ranges,
                candidates: &s.candidates,
                facts: &s.facts,
                args: &s.args,
                images: &mut s.images,
                trail: &mut s.trail,
                chosen: &mut s.chosen,
                leaf: &mut s.leaf,
                out: &mut s.out,
            };
            search.run(0);
        }
        s.out.sort();
        true
    }
}

/// The backtracking search for `CM(q2(x2), q1(t))` over one probe's facts.
struct Search<'a> {
    atoms: &'a PlanAtoms<Pattern>,
    order: &'a [u32],
    ranges: &'a [(u32, u32)],
    candidates: &'a [u32],
    facts: &'a [Fact],
    args: &'a [u32],
    images: &'a mut [u32],
    trail: &'a mut Vec<u32>,
    chosen: &'a mut [u32],
    leaf: &'a mut [u64],
    out: &'a mut MpiTerms,
}

impl Search<'_> {
    fn run(&mut self, depth: usize) {
        let Some(&atom) = self.order.get(depth) else {
            self.visit();
            return;
        };
        let (atoms, candidates) = (self.atoms, self.candidates);
        let pats = atoms.args(&atoms.atoms[atom as usize]);
        let (lo, hi) = self.ranges[atom as usize];
        for &f in &candidates[lo as usize..hi as usize] {
            let mark = self.trail.len();
            if self.bind(pats, self.facts[f as usize]) {
                self.chosen[depth] = f;
                self.run(depth + 1);
            }
            for slot in self.trail.drain(mark..) {
                self.images[slot as usize] = UNBOUND;
            }
        }
    }

    /// Extends the bindings so the atom with patterns `pats` maps onto
    /// `fact`; newly bound slots go on the trail.
    fn bind(&mut self, pats: &[Pattern], fact: Fact) -> bool {
        for (p, &t) in pats.iter().zip(fact.args(self.args)) {
            if let Pattern::Slot(slot) = *p {
                let image = &mut self.images[slot as usize];
                if *image == UNBOUND {
                    *image = t;
                    self.trail.push(slot);
                } else if *image != t {
                    return false;
                }
            }
        }
        true
    }

    /// One containment mapping: its image query's monomial adds each
    /// containing atom's multiplicity to the fact it maps onto
    /// (Equation 1).
    fn visit(&mut self) {
        self.out.mapping_count += 1;
        self.leaf.fill(0);
        for (&atom, &f) in self.order.iter().zip(self.chosen.iter()) {
            self.leaf[f as usize] += self.atoms.atoms[atom as usize].multiplicity;
        }
        self.out.terms.insert(self.leaf);
    }
}

/// The sorted probe domain of `containee`: its canonical active domain
/// (the canonical constants of its variables plus its language constants,
/// as [`dioph_cq::canonical_active_domain`] computes it), plus `extra`.
/// Built from borrowed names, so each distinct term is cloned once.
fn probe_domain(containee: &ConjunctiveQuery, extra: &[Term]) -> Vec<Term> {
    // (variant rank in `Term`'s order, name): sorts exactly like the terms.
    fn key(t: &Term, canonicalise: bool) -> (u8, &str) {
        match t {
            Term::Var(v) if canonicalise => (2, v),
            Term::Var(v) => (0, v),
            Term::Const(c) => (1, c),
            Term::CanonConst(c) => (2, c),
        }
    }
    let containee_terms =
        containee.head().iter().chain(containee.body_atoms().flat_map(Atom::terms));
    let mut keys: Vec<(u8, &str)> =
        containee_terms.map(|t| key(t, true)).chain(extra.iter().map(|t| key(t, false))).collect();
    keys.sort_unstable();
    keys.dedup();
    keys.into_iter()
        .map(|(rank, name)| match rank {
            0 => Term::var(name),
            1 => Term::constant(name),
            _ => Term::canon(name),
        })
        .collect()
}

/// Checks that `containee` lies in the fragment the paper's decision
/// procedure covers: non-empty body, projection-free, safe.
pub(crate) fn validate_containee(containee: &ConjunctiveQuery) -> Result<(), ContainmentError> {
    if containee.distinct_atom_count() == 0 {
        return Err(ContainmentError::EmptyBody { query: containee.name().to_string() });
    }
    let existential: Vec<String> = containee.existential_variables().into_iter().collect();
    if !existential.is_empty() {
        return Err(ContainmentError::ContaineeNotProjectionFree {
            existential_variables: existential,
        });
    }
    if !containee.is_safe() {
        let body = containee.body_variables();
        let missing: Vec<String> =
            containee.head_variables().into_iter().filter(|v| !body.contains(v)).collect();
        return Err(ContainmentError::UnsafeQuery {
            query: containee.name().to_string(),
            missing_variables: missing,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dioph_arith::Natural;
    use dioph_cq::paper_examples;
    use dioph_linalg::FeasibilityEngine;

    fn nat(v: u64) -> Natural {
        Natural::from(v)
    }

    #[test]
    fn paper_section3_running_example_compiles_to_the_printed_mpi() {
        // q1(x1,x2) ← R²(x1,x2), R(c1,x2), R³(x1,c2), probe (x̂1, x̂2),
        // q2(x1,x2) ← R³(x1,x2), R²(x1,y1), R²(y2,y1).
        // The paper derives M = u1²·u2·u3³ and P = u1⁷ + u1⁵·u2² + u1³·u3⁴
        // with u1 = u_{R(x̂1,x̂2)}, u2 = u_{R(c1,x̂2)}, u3 = u_{R(x̂1,c2)}.
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let probe = vec![Term::canon("x1"), Term::canon("x2")];
        let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();

        assert_eq!(compiled.dimension(), 3);
        assert_eq!(compiled.mapping_count(), 3);

        // Identify the positions of the three unknowns.
        let pos = |atom: &Atom| compiled.atoms().position(|a| a == atom).unwrap();
        let u1 = pos(&Atom::new("R", vec![Term::canon("x1"), Term::canon("x2")]));
        let u2 = pos(&Atom::new("R", vec![Term::constant("c1"), Term::canon("x2")]));
        let u3 = pos(&Atom::new("R", vec![Term::canon("x1"), Term::constant("c2")]));

        // Monomial exponents: (2, 1, 3) on (u1, u2, u3).
        let mono = compiled.mpi().monomial();
        assert_eq!(mono.exponent(u1), 2);
        assert_eq!(mono.exponent(u2), 1);
        assert_eq!(mono.exponent(u3), 3);

        // Polynomial terms: u1^7, u1^5*u2^2, u1^3*u3^4, all with coefficient 1.
        let poly = compiled.mpi().polynomial();
        assert_eq!(poly.term_count(), 3);
        let mut expected = vec![(7u64, 0u64, 0u64), (5, 2, 0), (3, 0, 4)];
        let mut actual: Vec<(u64, u64, u64)> = poly
            .terms()
            .map(|(c, m)| {
                assert!(c.is_one());
                (m.exponent(u1), m.exponent(u2), m.exponent(u3))
            })
            .collect();
        expected.sort_unstable();
        actual.sort_unstable();
        assert_eq!(actual, expected);

        // The paper's evaluation: at (u1,u2,u3) = (1,4,3), P = 98 < 108 = M.
        let mut point = vec![Natural::zero(); 3];
        point[u1] = nat(1);
        point[u2] = nat(4);
        point[u3] = nat(3);
        assert!(compiled.mpi().is_solution(&point));
    }

    #[test]
    fn compile_fails_for_non_unifiable_probe() {
        // Head (x, x) cannot be grounded with two distinct constants.
        let q1 = dioph_cq::parse_query("q(x, x) <- R(x, x)").unwrap();
        let q2 = dioph_cq::parse_query("p(x, y) <- R(x, y)").unwrap();
        assert!(
            CompiledProbe::compile(&q1, &q2, &[Term::canon("x"), Term::constant("c")]).is_none()
        );
        assert!(CompiledProbe::compile(&q1, &q2, &[Term::canon("x"), Term::canon("x")]).is_some());
    }

    #[test]
    fn zero_polynomial_when_no_containment_mapping_exists() {
        // q2 uses a relation S that q1 does not mention: no containment mapping.
        let q1 = dioph_cq::parse_query("q(x) <- R(x, x)").unwrap();
        let q2 = dioph_cq::parse_query("p(x) <- S(x, x)").unwrap();
        let probe = vec![Term::canon("x")];
        let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();
        assert_eq!(compiled.mapping_count(), 0);
        assert!(compiled.mpi().polynomial().is_zero());
        // The MPI is then trivially solvable (containment fails).
        assert!(compiled.mpi().has_diophantine_solution(FeasibilityEngine::Simplex).unwrap());
    }

    #[test]
    fn identical_images_accumulate_coefficients() {
        // q1(x) ← R(x,x); q2(x) ← R(x,y1), R(y2,x): on the probe x̂ both
        // existential variables must map to x̂, and the two mappings' images
        // are distinct mappings but... here there is exactly one mapping.
        // Use a containing query with two interchangeable existential atoms
        // instead: q2(x) ← R(x,y1), R(x,y2) over q1(x) ← R(x,c1), R(x,c2):
        // mappings send (y1,y2) to (c1,c1), (c1,c2), (c2,c1), (c2,c2); the
        // images for (c1,c2) and (c2,c1) coincide, so that monomial gets
        // coefficient 2.
        let q1 = dioph_cq::parse_query("q(x) <- R(x, 'c1'), R(x, 'c2')").unwrap();
        let q2 = dioph_cq::parse_query("p(x) <- R(x, y1), R(x, y2)").unwrap();
        let probe = vec![Term::canon("x")];
        let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();
        assert_eq!(compiled.mapping_count(), 4);
        assert_eq!(compiled.mpi().polynomial().term_count(), 3);
        let coeffs: Vec<Natural> =
            compiled.mpi().polynomial().terms().map(|(c, _)| c.clone()).collect();
        assert!(coeffs.contains(&nat(2)));
        assert_eq!(compiled.mpi().polynomial().coefficient_sum(), nat(4));
    }

    #[test]
    fn assignment_to_bag_roundtrip() {
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let probe = vec![Term::canon("x1"), Term::canon("x2")];
        let compiled = CompiledProbe::compile(&q1, &q2, &probe).unwrap();
        let assignment = vec![nat(1), nat(4), nat(3)];
        let bag = compiled.assignment_to_bag(&assignment);
        assert_eq!(bag.support_size(), 3);
        for (atom, value) in compiled.atoms().zip(&assignment) {
            assert_eq!(&bag.multiplicity(atom), value);
        }
    }

    #[test]
    fn compiled_pair_memoises_and_matches_direct_compilation() {
        let q1 = paper_examples::section3_query_q1();
        let q2 = paper_examples::section3_query_q2();
        let pair = CompiledPair::new(q1.clone(), q2.clone()).unwrap();

        // The most-general probe is compiled once and shared by reference.
        let first = pair.most_general() as *const CompiledProbe;
        let second = pair.most_general() as *const CompiledProbe;
        assert_eq!(first, second, "repeated access must hit the same compilation");
        assert_eq!(
            pair.most_general(),
            &CompiledProbe::compile(&q1, &q2, &dioph_cq::most_general_probe_tuple(&q1)).unwrap()
        );

        // Every raw index resolves to exactly the probes the materialising
        // enumeration produces, in the same order.
        let space_len = pair.probe_space().raw_len();
        let via_pair: Vec<&CompiledProbe> = (0..space_len).filter_map(|i| pair.probe(i)).collect();
        let expected: Vec<CompiledProbe> = dioph_cq::probe_tuples(&q1)
            .iter()
            .map(|t| CompiledProbe::compile(&q1, &q2, t).unwrap())
            .collect();
        assert_eq!(via_pair.len(), expected.len());
        for (got, want) in via_pair.iter().zip(&expected) {
            assert_eq!(*got, want);
        }
        // Memoised: resolving an index again returns the same allocation.
        let a = pair.probe(0).unwrap() as *const CompiledProbe;
        let b = pair.probe(0).unwrap() as *const CompiledProbe;
        assert_eq!(a, b);
    }

    #[test]
    fn compiled_pair_is_send_sync_and_shareable_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledPair>();

        let q1 = paper_examples::section3_probe_example();
        let q2 = paper_examples::section3_probe_example();
        let pair = CompiledPair::new(q1, q2).unwrap();
        let n = pair.probe_space().raw_len();
        std::thread::scope(|s| {
            for worker in 0..4 {
                let pair = &pair;
                s.spawn(move || {
                    // Overlapping strides: every thread touches every index.
                    for i in 0..n {
                        let _ = pair.probe((i + worker) % n);
                    }
                });
            }
        });
        assert_eq!((0..n).filter_map(|i| pair.probe(i)).count(), 16);
    }

    #[test]
    fn compiled_pair_rejects_out_of_fragment_containees() {
        let ok = dioph_cq::parse_query("p(x) <- R(x, x)").unwrap();
        let not_pf = dioph_cq::parse_query("q(x) <- R(x, y)").unwrap();
        assert!(matches!(
            CompiledPair::new(not_pf, ok.clone()),
            Err(crate::ContainmentError::ContaineeNotProjectionFree { .. })
        ));
        let empty = ConjunctiveQuery::from_atom_list("e", vec![], vec![]);
        assert!(matches!(
            CompiledPair::new(empty, ok),
            Err(crate::ContainmentError::EmptyBody { .. })
        ));
    }

    #[test]
    fn grounding_merges_atoms_in_the_monomial() {
        // q1(x1,x2) ← R(x1,x2), R(x2,x1): on the diagonal probe (x̂, x̂) the two
        // atoms merge into a single unknown with monomial exponent 2.
        let q1 = dioph_cq::parse_query("q(x1, x2) <- R(x1, x2), R(x2, x1)").unwrap();
        let q2 = dioph_cq::parse_query("p(x1, x2) <- R(x1, x2)").unwrap();
        let diag = vec![Term::canon("z"), Term::canon("z")];
        // (x̂z, x̂z) is unifiable with (x1, x2) — both map to the same constant.
        let compiled = CompiledProbe::compile(&q1, &q2, &diag).unwrap();
        assert_eq!(compiled.dimension(), 1);
        assert_eq!(compiled.mpi().monomial().exponent(0), 2);
        assert_eq!(compiled.mpi().polynomial().term_count(), 1);
    }
}
