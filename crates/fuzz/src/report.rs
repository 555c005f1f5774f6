//! Fuzzing run drivers and the byte-stable report.
//!
//! The JSON envelope deliberately records only seed-determined data — no
//! timings, no thread counts — so `fuzz --json` output is byte-identical
//! across `--jobs` values. That invariance is pinned by a golden fixture and is
//! itself one of the correctness claims under test.

use dioph_analyze::FragmentClass;
use dioph_containment::{json, BagContainment, ContainmentError};
use dioph_cq::ConjunctiveQuery;

use crate::generate::generate_case;
use crate::oracle::{check_pair, derive_seed, Disagreement};
use crate::FuzzConfig;

/// The oracle's observations on one case, ready for reporting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CaseReport {
    /// 0-based case index.
    pub index: usize,
    /// Generator family, or `file:pairN` for replayed corpus pairs.
    pub label: String,
    /// The containee as decided.
    pub containee: ConjunctiveQuery,
    /// The containing query as decided.
    pub containing: ConjunctiveQuery,
    /// Decidability-matrix cell of the pair.
    pub fragment: FragmentClass,
    /// Chandra–Merlin set-containment verdict.
    pub set: bool,
    /// Bag-set verdict (`None` when the containee is out of fragment).
    pub bag_set: Option<bool>,
    /// Bag databases checked by the brute-force side.
    pub databases: usize,
    /// The decider's verdict or per-pair error.
    pub result: Result<BagContainment, ContainmentError>,
}

/// A full fuzzing run: per-case verdicts, shrunk disagreements, summary.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FuzzReport {
    /// The master seed of the run.
    pub seed: u64,
    /// Active-domain bound used for schema databases.
    pub max_adom: usize,
    /// Multiplicity bound used for every swept bag.
    pub max_mult: u64,
    /// Sampling budget used when enumeration was too large.
    pub samples: usize,
    /// Per-case observations, in case order.
    pub cases: Vec<CaseReport>,
    /// Shrunk disagreements, paired with the index of the offending case.
    pub disagreements: Vec<(usize, Disagreement)>,
}

impl FuzzReport {
    /// Number of `contained` verdicts.
    pub fn contained(&self) -> usize {
        self.cases.iter().filter(|c| matches!(&c.result, Ok(r) if r.holds())).count()
    }

    /// Number of `not_contained` verdicts.
    pub fn not_contained(&self) -> usize {
        self.cases.iter().filter(|c| matches!(&c.result, Ok(r) if !r.holds())).count()
    }

    /// Number of cases that failed to decide (fragment or budget errors).
    pub fn errors(&self) -> usize {
        self.cases.iter().filter(|c| c.result.is_err()).count()
    }

    /// Total bag databases checked across all cases.
    pub fn databases(&self) -> usize {
        self.cases.iter().map(|c| c.databases).sum()
    }

    /// The one-line human summary (mirrored by the `--json` `summary`).
    pub fn summary_line(&self) -> String {
        format!(
            "fuzz seed {}: {} case(s), {} contained, {} not contained, {} error(s), \
             {} database(s) checked, {} disagreement(s)",
            self.seed,
            self.cases.len(),
            self.contained(),
            self.not_contained(),
            self.errors(),
            self.databases(),
            self.disagreements.len()
        )
    }

    /// Multi-line human rendering of every disagreement (empty when clean).
    pub fn disagreement_lines(&self) -> String {
        let mut out = String::new();
        for (index, d) in &self.disagreements {
            let label = &self.cases[*index].label;
            out.push_str(&format!("[case {index} {label}] {}: {}\n", d.kind.label(), d.detail));
            out.push_str(&format!("  containee:  {}\n", d.containee));
            out.push_str(&format!("  containing: {}\n", d.containing));
            out.push_str(&format!("  minimized containee:  {}\n", d.minimized_containee));
            out.push_str(&format!("  minimized containing: {}\n", d.minimized_containing));
            if let Some(ce) = &d.counterexample {
                out.push_str(&format!("  witness: {ce}\n"));
            }
        }
        out
    }

    /// Renders the byte-stable JSON envelope. `pairs` entries reuse the
    /// `decide --json` certificate shape, so `diophantus verify` re-checks
    /// them with the independent Equation-2 evaluator.
    pub fn to_json(&self) -> String {
        let pairs: Vec<String> = self
            .cases
            .iter()
            .map(|c| {
                let outcome = match &c.result {
                    Ok(result) => format!("\"result\":{}", result.to_json()),
                    Err(e) => format!(
                        "\"error\":{{\"message\":{},\"code\":{}}}",
                        json::string(&e.to_string()),
                        match e.lint_code() {
                            Some(code) => format!("\"{code}\""),
                            None => "null".to_string(),
                        }
                    ),
                };
                format!(
                    "{{\"index\":{},\"label\":{},\"containee\":{},\"containing\":{},\
                     \"fragment\":\"{}\",\"set\":\"{}\",\"bag_set\":{},\"databases\":{},{}}}",
                    c.index,
                    json::string(&c.label),
                    json::string(&c.containee.to_string()),
                    json::string(&c.containing.to_string()),
                    c.fragment.label(),
                    verdict_word(c.set),
                    match c.bag_set {
                        Some(b) => format!("\"{}\"", verdict_word(b)),
                        None => "null".to_string(),
                    },
                    c.databases,
                    outcome
                )
            })
            .collect();
        let disagreements: Vec<String> = self
            .disagreements
            .iter()
            .map(|(index, d)| {
                let counterexample = match &d.counterexample {
                    Some(ce) => format!(",\"counterexample\":{}", ce.to_json()),
                    None => String::new(),
                };
                format!(
                    "{{\"index\":{index},\"kind\":\"{}\",\"detail\":{},\"containee\":{},\
                     \"containing\":{},\"minimized\":{{\"containee\":{},\"containing\":{}\
                     {counterexample}}}}}",
                    d.kind.label(),
                    json::string(&d.detail),
                    json::string(&d.containee.to_string()),
                    json::string(&d.containing.to_string()),
                    json::string(&d.minimized_containee.to_string()),
                    json::string(&d.minimized_containing.to_string()),
                )
            })
            .collect();
        format!(
            "{{\"command\":\"fuzz\",\"seed\":{},\"cases\":{},\"max_adom\":{},\"max_mult\":{},\
             \"samples\":{},\"algorithm\":\"all-probes\",\"engine\":\"simplex\",\"pairs\":[{}],\
             \"disagreements\":[{}],\"summary\":{{\"cases\":{},\"contained\":{},\
             \"not_contained\":{},\"errors\":{},\"databases\":{},\"disagreements\":{}}}}}\n",
            self.seed,
            self.cases.len(),
            self.max_adom,
            self.max_mult,
            self.samples,
            pairs.join(","),
            disagreements.join(","),
            self.cases.len(),
            self.contained(),
            self.not_contained(),
            self.errors(),
            self.databases(),
            self.disagreements.len()
        )
    }
}

fn verdict_word(holds: bool) -> &'static str {
    if holds {
        "contained"
    } else {
        "not_contained"
    }
}

fn run_cases(
    config: &FuzzConfig,
    cases: impl IntoIterator<Item = (String, ConjunctiveQuery, ConjunctiveQuery)>,
) -> FuzzReport {
    let mut reports = Vec::new();
    let mut disagreements = Vec::new();
    for (index, (label, containee, containing)) in cases.into_iter().enumerate() {
        // The database-sampling stream is derived from the seed and case
        // index only, never from the engine configuration — a prerequisite
        // for reports being identical across `--jobs`.
        let db_seed = derive_seed(derive_seed(config.seed, index as u64), u64::MAX);
        let outcome = check_pair(&containee, &containing, config, db_seed);
        if let Some(d) = outcome.disagreement {
            disagreements.push((index, d));
        }
        reports.push(CaseReport {
            index,
            label,
            containee,
            containing,
            fragment: outcome.fragment,
            set: outcome.set,
            bag_set: outcome.bag_set,
            databases: outcome.databases,
            result: outcome.result,
        });
    }
    FuzzReport {
        seed: config.seed,
        max_adom: config.max_adom,
        max_mult: config.max_mult,
        samples: config.samples,
        cases: reports,
        disagreements,
    }
}

/// Runs a full generated fuzzing campaign: `config.cases` seeded random
/// pairs, each decided through the probe pool and cross-checked against the
/// bounded brute-force ground truth.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    run_cases(
        config,
        (0..config.cases).map(|index| {
            let case = generate_case(config.seed, index);
            (case.label.to_string(), case.containee, case.containing)
        }),
    )
}

/// Replays an explicit list of labelled pairs (the regression corpus)
/// through the same oracle as [`run_fuzz`].
pub fn run_replay(
    config: &FuzzConfig,
    pairs: Vec<(String, ConjunctiveQuery, ConjunctiveQuery)>,
) -> FuzzReport {
    run_cases(config, pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Injection;
    use dioph_cq::parse_query;

    fn small() -> FuzzConfig {
        FuzzConfig { cases: 12, samples: 8, ..FuzzConfig::default() }
    }

    #[test]
    fn generated_runs_are_clean_and_reproducible() {
        let a = run_fuzz(&small());
        let b = run_fuzz(&small());
        assert_eq!(a, b);
        assert_eq!(a.cases.len(), 12);
        assert!(a.disagreements.is_empty(), "{}", a.disagreement_lines());
        assert_eq!(a.errors(), 0);
        assert_eq!(a.contained() + a.not_contained(), 12);
        assert!(a.databases() > 0);
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.summary_line().contains("12 case(s)"));
    }

    #[test]
    fn reports_are_byte_identical_across_jobs() {
        let reference = run_fuzz(&small()).to_json();
        for jobs in [2usize, 4] {
            let cfg = FuzzConfig { jobs, ..small() };
            assert_eq!(run_fuzz(&cfg).to_json(), reference, "jobs={jobs}");
        }
    }

    #[test]
    fn injected_bugs_surface_in_the_report() {
        let cfg = FuzzConfig { injection: Some(Injection::TamperCertificate), ..small() };
        let report = run_fuzz(&cfg);
        assert!(
            !report.disagreements.is_empty(),
            "12 mixed cases must include a not-contained verdict to tamper with"
        );
        let json = report.to_json();
        assert!(json.contains("\"kind\":\"certificate-rejected\""));
        assert!(report.disagreement_lines().contains("certificate-rejected"));
    }

    #[test]
    fn replay_runs_labelled_pairs_and_reports_fragment_errors() {
        let pairs = vec![
            (
                "corpus:pair1".to_string(),
                parse_query("q(x) <- R^2(x, x)").unwrap(),
                parse_query("p(x) <- R(x, x)").unwrap(),
            ),
            (
                "corpus:pair2".to_string(),
                parse_query("q(x) <- R(x, y)").unwrap(),
                parse_query("p(x) <- R(x, x)").unwrap(),
            ),
        ];
        let report = run_replay(&small(), pairs);
        assert_eq!(report.cases.len(), 2);
        assert_eq!(report.cases[0].label, "corpus:pair1");
        assert!(report.cases[0].result.is_ok());
        assert_eq!(report.errors(), 1);
        assert!(report.to_json().contains("\"code\":\"D002\""));
    }
}
