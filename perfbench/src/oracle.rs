//! The independent verdict oracle. It runs outside every timed region.
//!
//! * Pairs contained by construction (specialisations, paths, `expmap`)
//!   must be answered `contained`.
//! * A 3-colorability reduction must be answered `contained` exactly when
//!   `Graph::is_three_colorable` says so.
//! * Every `not_contained` certificate is replayed with
//!   `bag_answer_multiplicity` (Equation 2), sharing no code with the MPI
//!   route that produced it.
//! * An inflated pair answered `contained` goes through the `dioph-fuzz`
//!   bounded brute-force check.

use std::collections::HashMap;

use diophantus::arith::Natural;
use diophantus::bagdb::{bag_answer_multiplicity, BagInstance};
use diophantus::containment::BagContainment;
use diophantus::cq::{parse_query, Atom, Term};
use diophantus::fuzz::{check_pair, DisagreementKind, FuzzConfig};
use diophantus::jsonv::Json;

use crate::workload::{Expect, Pair};

/// Database-stream seed of the brute-force check.
const FUZZ_DB_SEED: u64 = 0x00D1_0FA7;

/// A checked answer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Answer {
    /// `contained`, with the number of probe tuples the decider checked.
    Contained {
        probes: u64,
    },
    NotContained,
}

/// Why an output line was rejected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Fault {
    /// The program reported a per-pair error instead of a verdict.
    ErrorLine(String),
    /// A verdict that contradicts the independent answer.
    WrongVerdict(String),
    /// A `not_contained` certificate that does not replay.
    BadCertificate(String),
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fault::ErrorLine(m) => write!(f, "error line: {m}"),
            Fault::WrongVerdict(m) => write!(f, "wrong verdict: {m}"),
            Fault::BadCertificate(m) => write!(f, "failed certificate replay: {m}"),
        }
    }
}

/// Checks verdict lines, remembering lines already verified for a pair so
/// repeated rounds over the same input replay each distinct line once.
#[derive(Default)]
pub struct Oracle {
    verified: HashMap<usize, (String, Answer)>,
}

impl Oracle {
    /// Checks the verdict `line` printed for `pairs[index]`.
    pub fn check(&mut self, pairs: &[Pair], index: usize, line: &str) -> Result<Answer, Fault> {
        if let Some((seen, answer)) = self.verified.get(&index) {
            if seen == line {
                return Ok(*answer);
            }
        }
        let answer = check_line(&pairs[index], line)?;
        self.verified.insert(index, (line.to_string(), answer));
        Ok(answer)
    }
}

/// Checks one `batch --json` verdict line against the pair it answers.
pub fn check_line(pair: &Pair, line: &str) -> Result<Answer, Fault> {
    let json = Json::parse(line).map_err(|e| Fault::ErrorLine(format!("unparseable line: {e}")))?;
    if let Some(error) = json.get("error") {
        let message = error.get("message").and_then(Json::as_str).unwrap_or("?");
        return Err(Fault::ErrorLine(message.to_string()));
    }
    let echoed = |key: &str| json.get(key).and_then(Json::as_str).map(str::to_string);
    if echoed("containee") != Some(pair.containee.to_string())
        || echoed("containing") != Some(pair.containing.to_string())
    {
        return Err(Fault::WrongVerdict(format!(
            "the line answers another pair than {}",
            pair.containee.name()
        )));
    }
    let result = json.get("result").ok_or(Fault::ErrorLine("no result".to_string()))?;
    let name = pair.containee.name();
    match result.get("verdict").and_then(Json::as_str) {
        Some("contained") => {
            match pair.expect {
                Expect::Contained | Expect::ThreeColorable(true) => {}
                Expect::ThreeColorable(false) => {
                    return Err(Fault::WrongVerdict(format!(
                        "{name}: contained, but the graph is not 3-colorable"
                    )))
                }
                Expect::Inflated => {
                    if let Some(detail) = brute_force_refutation(pair) {
                        return Err(Fault::WrongVerdict(format!(
                            "{name}: contained, but {detail}"
                        )));
                    }
                }
            }
            let probes = match result.get("probes_checked") {
                Some(Json::Number(n)) if *n >= 1.0 => *n as u64,
                _ => return Err(Fault::ErrorLine(format!("{name}: no probes_checked"))),
            };
            Ok(Answer::Contained { probes })
        }
        Some("not_contained") => {
            let certificate = result
                .get("counterexample")
                .ok_or_else(|| Fault::BadCertificate(format!("{name}: no counterexample")))?;
            replay_certificate(pair, certificate)
                .map_err(|e| Fault::BadCertificate(format!("{name}: {e}")))?;
            match pair.expect {
                Expect::Inflated | Expect::ThreeColorable(false) => Ok(Answer::NotContained),
                Expect::ThreeColorable(true) => Err(Fault::WrongVerdict(format!(
                    "{name}: not contained, but the graph is 3-colorable"
                ))),
                Expect::Contained => Err(Fault::WrongVerdict(format!(
                    "{name}: not contained, but the pair is contained by construction"
                ))),
            }
        }
        other => Err(Fault::WrongVerdict(format!("{name}: unknown verdict {other:?}"))),
    }
}

/// The bounded brute-force check of a `contained` claim: the fuzz oracle
/// sweeps bag databases for a violation and re-derives the verdict.
fn brute_force_refutation(pair: &Pair) -> Option<String> {
    let config = FuzzConfig { samples: 16, ..FuzzConfig::default() };
    let outcome = check_pair(&pair.containee, &pair.containing, &config, FUZZ_DB_SEED);
    if let Some(d) = &outcome.disagreement {
        if matches!(
            d.kind,
            DisagreementKind::ContainedRefuted | DisagreementKind::SetConditionViolated
        ) {
            return Some(d.detail.clone());
        }
    }
    match &outcome.result {
        Ok(BagContainment::NotContained(ce)) if ce.verify(&pair.containee, &pair.containing) => {
            Some("a violating bag exists".to_string())
        }
        _ => None,
    }
}

fn member<'a>(json: &'a Json, key: &str) -> Result<&'a str, String> {
    json.get(key).and_then(Json::as_str).ok_or_else(|| format!("certificate lacks \"{key}\""))
}

fn natural(json: &Json, key: &str) -> Result<Natural, String> {
    Natural::from_decimal_str(member(json, key)?).map_err(|e| format!("bad {key}: {e}"))
}

/// Replays a certificate with the Equation-2 evaluator: both recorded
/// multiplicities must be reproduced and must violate containment.
pub fn replay_certificate(pair: &Pair, certificate: &Json) -> Result<(), String> {
    let probe = certificate.get("probe").and_then(Json::as_array).ok_or("no probe array")?;
    let probe: Vec<Term> = probe
        .iter()
        .map(|t| {
            let text = t.as_str().ok_or("probe terms must be strings")?;
            let q = parse_query(&format!("w({text}) <- true."))
                .map_err(|e| format!("probe term {text}: {e}"))?;
            Ok(q.head()[0].clone())
        })
        .collect::<Result<_, String>>()?;
    let bag = certificate.get("bag").and_then(Json::as_array).ok_or("no bag array")?;
    let mut entries: Vec<(Atom, Natural)> = Vec::with_capacity(bag.len());
    for entry in bag {
        let text = member(entry, "atom")?;
        let q =
            parse_query(&format!("w() <- {text}.")).map_err(|e| format!("bag atom {text}: {e}"))?;
        let atom = q.body_atoms().next().cloned().ok_or("empty bag atom")?;
        entries.push((atom, natural(entry, "multiplicity")?));
    }
    let bag = BagInstance::from_multiplicities(entries);
    let lhs = bag_answer_multiplicity(&pair.containee, &bag, &probe);
    let rhs = bag_answer_multiplicity(&pair.containing, &bag, &probe);
    let (claimed_lhs, claimed_rhs) = (
        natural(certificate, "containee_multiplicity")?,
        natural(certificate, "containing_multiplicity")?,
    );
    if lhs != claimed_lhs || rhs != claimed_rhs {
        return Err(format!(
            "claims {claimed_lhs} > {claimed_rhs}, Equation 2 gives {lhs} and {rhs}"
        ));
    }
    if lhs <= rhs {
        return Err(format!("the bag does not violate containment ({lhs} <= {rhs})"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use diophantus::containment::{json, CompiledPair, Counterexample};
    use diophantus::is_bag_contained;

    /// The line `batch --json` prints for `pair` with `verdict` as result.
    fn line(pair: &Pair, verdict: &BagContainment) -> String {
        format!(
            "{{\"id\":1,\"containee\":{},\"containing\":{},\"result\":{}}}",
            json::string(&pair.containee.to_string()),
            json::string(&pair.containing.to_string()),
            verdict.to_json()
        )
    }

    fn decide(pair: &Pair) -> BagContainment {
        is_bag_contained(&pair.containee, &pair.containing).unwrap()
    }

    #[test]
    fn true_verdicts_pass() {
        let pairs = workload::hard(11, 40);
        for pair in &pairs {
            assert!(check_line(pair, &line(pair, &decide(pair))).is_ok(), "{}", pair.text);
        }
        let warm = workload::warm_up();
        assert_eq!(check_line(&warm, &line(&warm, &decide(&warm))), Ok(Answer::NotContained));
    }

    #[test]
    fn a_flipped_verdict_is_caught() {
        // Contained → not_contained, with a certificate fabricated on the
        // canonical bag (as `diophantus fuzz --inject flip-verdict` does).
        let pair = &workload::stream(3)[0];
        assert!(decide(pair).holds());
        let compiled = CompiledPair::new(pair.containee.clone(), pair.containing.clone()).unwrap();
        let canonical = compiled.most_general();
        let forged = Counterexample {
            probe: canonical.probe().to_vec(),
            bag: BagInstance::from_multiplicities(
                canonical.grounded_containee().body().map(|(a, _)| (a.clone(), Natural::one())),
            ),
            containee_multiplicity: Natural::one(),
            containing_multiplicity: Natural::zero(),
        };
        let flipped = line(pair, &BagContainment::NotContained(Box::new(forged)));
        assert!(matches!(check_line(pair, &flipped), Err(Fault::BadCertificate(_))));

        // Not contained (a non-3-colorable graph) → contained.
        let pairs = workload::hard(11, 200);
        let pair = pairs.iter().find(|p| p.expect == Expect::ThreeColorable(false)).unwrap();
        let claimed = BagContainment::Contained { probes_checked: 1 };
        assert!(matches!(check_line(pair, &line(pair, &claimed)), Err(Fault::WrongVerdict(_))));

        // An inflated pair claimed contained is refuted by brute force.
        let warm = workload::warm_up();
        let claimed = line(&warm, &BagContainment::Contained { probes_checked: 1 });
        assert!(matches!(check_line(&warm, &claimed), Err(Fault::WrongVerdict(_))));
    }

    #[test]
    fn a_tampered_certificate_is_caught() {
        let warm = workload::warm_up();
        let BagContainment::NotContained(mut ce) = decide(&warm) else { panic!("not contained") };
        ce.containee_multiplicity = ce.containee_multiplicity.clone() + Natural::one();
        let tampered = line(&warm, &BagContainment::NotContained(ce));
        assert!(matches!(check_line(&warm, &tampered), Err(Fault::BadCertificate(_))));
    }

    #[test]
    fn error_lines_and_mismatched_pairs_are_faults() {
        let warm = workload::warm_up();
        let error = "{\"id\":1,\"error\":{\"stage\":\"parse\",\"message\":\"boom\"}}";
        assert!(matches!(check_line(&warm, error), Err(Fault::ErrorLine(_))));
        let other = &workload::stream(3)[0];
        assert!(matches!(
            check_line(&warm, &line(other, &decide(other))),
            Err(Fault::WrongVerdict(_))
        ));
    }
}
