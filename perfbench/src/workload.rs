//! Seed-reproducible workload inputs, built in-process from
//! `dioph_workloads` with explicit sizes.
//!
//! Every instance is generated from a fixed size parameter — never from a
//! count — so no workload can grow superlinearly with how many pairs a run
//! asks for (`gen path --count N` makes path lengths `3..3+N`). The same
//! seed always yields byte-identical inputs.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use diophantus::cq::{Atom, ConjunctiveQuery};
use diophantus::workloads::suite::{exponential_mapping_instance, path_self_containment};
use diophantus::workloads::threecol::three_colorability_instance;
use diophantus::workloads::{generate_pairs, Graph, WorkloadKind};

/// The four benchmark workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// ~20k mixed pairs piped at once into `batch --json --jobs 2`.
    Stream,
    /// Closed-loop Theorem 5.4 reductions with an `expmap` minority.
    Hard,
    /// Closed-loop `batch --algorithm all-probes` over path self-containment.
    AllProbes,
    /// `diophantus check` on one ~2k-pair specialisation program.
    Lint,
}

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "stream" => Some(Workload::Stream),
            "hard" => Some(Workload::Hard),
            "allprobes" => Some(Workload::AllProbes),
            "lint" => Some(Workload::Lint),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream => "stream",
            Workload::Hard => "hard",
            Workload::AllProbes => "allprobes",
            Workload::Lint => "lint",
        }
    }

    /// The `diophantus` arguments the workload runs under.
    pub fn args(self) -> &'static [&'static str] {
        match self {
            Workload::Stream | Workload::Hard => &["batch", "--json", "--jobs", "2"],
            Workload::AllProbes => &["batch", "--json", "--jobs", "2", "--algorithm", "all-probes"],
            Workload::Lint => &["check", "--json"],
        }
    }
}

/// What the independent oracle expects of a pair.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Expect {
    /// Bag-contained by construction (specialisations, paths, expmap).
    Contained,
    /// A 3-colorability reduction: contained iff the graph is 3-colorable.
    ThreeColorable(bool),
    /// An inflated specialisation: usually not contained; a `contained`
    /// answer must survive the bounded brute-force check.
    Inflated,
}

/// One (containee, containing) pair with its batch-job text.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Pair {
    pub containee: ConjunctiveQuery,
    pub containing: ConjunctiveQuery,
    pub expect: Expect,
    /// The two `.`-terminated queries, exactly as written to the program.
    pub text: String,
}

impl Pair {
    fn new(containee: ConjunctiveQuery, containing: ConjunctiveQuery, expect: Expect) -> Pair {
        let text = format!("{containee}.\n{containing}.\n");
        Pair { containee, containing, expect, text }
    }

    fn renamed(&self, stem: &str) -> Pair {
        Pair::new(
            self.containee.clone().with_name(format!("{stem}a")),
            self.containing.clone().with_name(format!("{stem}b")),
            self.expect,
        )
    }
}

/// Distinct pairs per kind in `stream`; every third distinct pair is
/// followed by a re-issue, so re-issues are 25% of the 20,000 pairs.
const STREAM_PER_KIND: usize = 2_500;
/// How far back a re-issue may reach: well inside the CLI's 256-pair
/// compilation cache, so a re-issue can be served from it.
const REISSUE_WINDOW: usize = 64;
/// Vertices of every `hard` random graph `G(n, 1/2)`.
const HARD_VERTICES: usize = 7;
/// Every tenth `hard` pair is an `expmap` instance with `2^k` containment
/// mappings, `k` cycling through this band.
const HARD_EXPMAP_K: [usize; 5] = [6, 7, 8, 9, 10];
/// Distinct `hard` pairs a run cycles through. A pair comes back only
/// after thousands of others, long after the CLI's 256-pair compilation
/// cache has been cleared, so no repeat is served from it.
pub const HARD_POOL: usize = 4_000;
/// Path length of the `allprobes` pairs: 6 head variables give `6^6 =
/// 46,656` probe units per pair.
const ALLPROBES_PATH: usize = 5;
/// Distinct `allprobes` pairs per seed.
pub const ALLPROBES_PAIRS: usize = 8;
/// `allprobes` pairs per child: each compiled pair keeps its 46,656
/// compiled probes cached (~140 MiB), so a child gets half of them.
pub const ALLPROBES_ROUND: usize = 4;
/// Pairs in the `lint` program.
pub const LINT_PAIRS: usize = 2_000;

/// A derived, well-mixed seed for one sub-stream of a workload.
fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fixed warm-up pair every child answers first (not contained, so its
/// answer exercises certificate extraction too). Excluded from all timings
/// except `setup_s`.
pub fn warm_up() -> Pair {
    let containee = diophantus::parse_query("w0a(x) <- R^2(x, x)").expect("fixed text parses");
    let containing = diophantus::parse_query("w0b(x) <- R(x, x)").expect("fixed text parses");
    Pair::new(containee, containing, Expect::Inflated)
}

/// `stream`: 15,000 distinct pairs (2,500 of each of six kinds, shuffled
/// together) plus 5,000 re-issues of recent pairs under fresh names.
pub fn stream(seed: u64) -> Vec<Pair> {
    let kinds = [
        (WorkloadKind::Specialization { atoms: 4 }, Expect::Contained),
        (WorkloadKind::Inflated { atoms: 4 }, Expect::Inflated),
        (WorkloadKind::Contained { atoms: 4 }, Expect::Contained),
        (WorkloadKind::Chain { length: 3 }, Expect::Contained),
        (WorkloadKind::Star { rays: 3 }, Expect::Contained),
        (WorkloadKind::Clique { vertices: 3 }, Expect::Contained),
    ];
    let mut distinct: Vec<Pair> = Vec::with_capacity(kinds.len() * STREAM_PER_KIND);
    for (salt, (kind, expect)) in (1u64..).zip(kinds) {
        for p in generate_pairs(kind, STREAM_PER_KIND, derive(seed, salt)) {
            distinct.push(Pair::new(p.containee, p.containing, expect));
        }
    }
    let mut rng = StdRng::seed_from_u64(derive(seed, 100));
    for i in (1..distinct.len()).rev() {
        distinct.swap(i, rng.random_range(0..=i));
    }
    let mut out: Vec<Pair> = Vec::with_capacity(distinct.len() * 4 / 3);
    let mut recent: Vec<usize> = Vec::new();
    for (i, pair) in distinct.iter().enumerate() {
        recent.push(out.len());
        out.push(pair.renamed(&format!("s{i}")));
        if i % 3 == 2 {
            let window = &recent[recent.len().saturating_sub(REISSUE_WINDOW)..];
            let source = window[rng.random_range(0..window.len())];
            let reissue = out[source].renamed(&format!("r{i}"));
            out.push(reissue);
        }
    }
    out
}

/// `hard`: the first `count` pairs of an endless seeded sequence — nine
/// `G(7, 1/2)` 3-colorability reductions, then one `expmap` instance. Each
/// `expmap` instance gets its own relation names, so the compilation cache
/// never serves one instance to another.
pub fn hard(seed: u64, count: usize) -> Vec<Pair> {
    let mut rng = StdRng::seed_from_u64(derive(seed, 200));
    (0..count)
        .map(|i| {
            let stem = format!("h{i}");
            if i % 10 == 9 {
                let k = HARD_EXPMAP_K[(i / 10) % HARD_EXPMAP_K.len()];
                let (containee, containing) = exponential_mapping_instance(k);
                let prefix = format!("X{i}_");
                Pair::new(
                    relabel(&containee, &prefix),
                    relabel(&containing, &prefix),
                    Expect::Contained,
                )
                .renamed(&stem)
            } else {
                let graph = Graph::random(HARD_VERTICES, 0.5, &mut rng);
                let (containee, containing) = three_colorability_instance(&graph);
                Pair::new(containee, containing, Expect::ThreeColorable(graph.is_three_colorable()))
                    .renamed(&stem)
            }
        })
        .collect()
}

/// `allprobes`: eight length-5 path self-containment pairs, each over its
/// own relation name (derived from the seed) so the compilation cache
/// cannot serve one pair's probes to another.
pub fn allprobes(seed: u64) -> Vec<Pair> {
    let tag = derive(seed, 300) % 10_000;
    (0..ALLPROBES_PAIRS)
        .map(|j| {
            let (containee, containing) = path_self_containment(ALLPROBES_PATH);
            let prefix = format!("P{tag}_{j}_");
            Pair::new(
                relabel(&containee, &prefix),
                relabel(&containing, &prefix),
                Expect::Contained,
            )
            .renamed(&format!("a{j}"))
        })
        .collect()
}

/// `lint`: a 2,000-pair specialisation program in `diophantus gen`'s
/// layout (provenance header, one comment line per pair), with its pairs.
pub fn lint(seed: u64) -> (String, Vec<Pair>) {
    let derived = derive(seed, 400);
    let pairs: Vec<Pair> =
        generate_pairs(WorkloadKind::Specialization { atoms: 4 }, LINT_PAIRS, derived)
            .into_iter()
            .map(|p| Pair::new(p.containee, p.containing, Expect::Contained))
            .collect();
    let mut program = format!("% specialisation program, {LINT_PAIRS} pairs, seed {derived}\n");
    for (i, pair) in pairs.iter().enumerate() {
        program.push_str(&format!("% pair {}\n{}", i + 1, pair.text));
    }
    (program, pairs)
}

/// A program holding `pairs` in order (the `lint` warm-up program).
pub fn program_of(pairs: &[Pair]) -> String {
    pairs.iter().map(|p| p.text.as_str()).collect()
}

/// Prefixes every relation name of `q` — a renaming that changes no
/// verdict and no amount of work.
fn relabel(q: &ConjunctiveQuery, prefix: &str) -> ConjunctiveQuery {
    let body = q.body().map(|(atom, m)| {
        (Atom::new(format!("{prefix}{}", atom.relation()), atom.terms().to_vec()), m)
    });
    ConjunctiveQuery::new(q.name(), q.head().to_vec(), body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_produces_byte_identical_workloads() {
        assert_eq!(program_of(&stream(7)), program_of(&stream(7)));
        assert_eq!(program_of(&hard(7, 300)), program_of(&hard(7, 300)));
        assert_eq!(program_of(&allprobes(7)), program_of(&allprobes(7)));
        assert_eq!(lint(7).0, lint(7).0);
        assert_ne!(program_of(&stream(7)), program_of(&stream(8)));
        assert_ne!(program_of(&hard(7, 300)), program_of(&hard(8, 300)));
        assert_ne!(lint(7).0, lint(8).0);
    }

    #[test]
    fn hard_prefixes_do_not_depend_on_the_count() {
        assert_eq!(hard(3, 50), hard(3, 120)[..50].to_vec());
    }

    #[test]
    fn stream_has_the_stated_size_and_reissue_share() {
        let pairs = stream(1);
        assert_eq!(pairs.len(), 20_000);
        let reissued = pairs.iter().filter(|p| p.containee.name().starts_with('r')).count();
        assert_eq!(reissued, 5_000);
    }

    #[test]
    fn allprobes_pairs_have_distinct_relations_and_the_full_probe_space() {
        let pairs = allprobes(5);
        let mut relations: Vec<String> = pairs
            .iter()
            .map(|p| p.containee.body_atoms().next().unwrap().relation().to_string())
            .collect();
        relations.dedup();
        assert_eq!(relations.len(), ALLPROBES_PAIRS);
        assert_eq!(pairs[0].containee.head().len(), ALLPROBES_PATH + 1);
    }
}
