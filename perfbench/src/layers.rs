//! The traced run: per-layer numbers for one workload.
//!
//! 1. The binary runs the workload once with `--metrics --json`; its
//!    trailer supplies the operation counts (mappings, LP calls and
//!    pivots, allocations, steals, per-worker busy time).
//! 2. The same inputs are replayed in-process through each layer's public
//!    functions, with the benchmark's spans around every call, in
//!    alternating untraced and traced passes. Layer self times come from
//!    the last traced pass. The tracing overhead compares the fastest pass
//!    of each kind, since interference from outside only ever slows one.
//! 3. `DecisionEngine::run_batch` replays the pairs once more, timed at
//!    iterator pull and at the emit callback (admit-to-emit latency).

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use diophantus::analyze::{analyze_pairs, first_fragment_error, LintConfig};
use diophantus::containment::{
    json, Algorithm, BagContainment, BagContainmentDecider, ProbeScratch,
};
use diophantus::cq::parse_program_spanned;
use diophantus::engine::{CompilationCache, Job};
use diophantus::jsonv::Json;
use diophantus::{DecisionEngine, EngineConfig};

use crate::measure::{self, Ctx, Feed, Metric, Tally};
use crate::oracle::Oracle;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{self, Pair, Workload};

/// `hard` pairs in the traced run (the untraced run is time-bounded).
const HARD_TRACE_PAIRS: usize = 1_500;
/// Replay passes of each kind (untraced and traced).
const REPLAY_PASSES: usize = 3;
/// Compiled pairs the replay cache holds, as in the CLI's batch engine.
const CACHE_CAPACITY: usize = 256;
/// Spans that group a pair's or program's work; their self time is the
/// replay's unattributed time.
const ROOTS: [&str; 2] = ["pair", "program"];

/// Counts the replay takes where the work happens.
#[derive(Default)]
struct Counts {
    queries: u64,
    emit_bytes: u64,
    certified: u64,
    mpi_terms: u64,
    mappings: u64,
    diagnostics: u64,
}

/// The in-process pipeline: parse → check → compile → LP → certify → emit.
struct Replay {
    decider: BagContainmentDecider,
    cache: CompilationCache,
    scratch: ProbeScratch,
    sink: String,
    counts: Counts,
}

impl Replay {
    fn new(algorithm: Algorithm) -> Replay {
        Replay {
            decider: BagContainmentDecider::new(algorithm),
            cache: CompilationCache::new(CACHE_CAPACITY),
            scratch: ProbeScratch::new(),
            sink: String::new(),
            counts: Counts::default(),
        }
    }

    fn pair(&mut self, t: &mut Tracer, id: u64, text: &str) -> Result<(), String> {
        t.enter("pair", id);
        t.enter("cq.parse", id);
        let queries = parse_program_spanned(text).map_err(|e| e.message().to_string())?;
        t.exit();
        self.counts.queries += queries.len() as u64;
        let [containee, containing] = <[_; 2]>::try_from(queries).map_err(|_| "not a pair")?;

        t.enter("analyze.check", id);
        let fragment_error = first_fragment_error(&containee, text);
        t.exit();
        if let Some(e) = fragment_error {
            return Err(e);
        }

        t.enter("containment.compile", id);
        let misses = self.cache.misses();
        let pair = self
            .cache
            .get_or_compile(&containee.query, &containing.query)
            .map_err(|e| e.to_string())?;
        let probes: Vec<_> = if self.decider.algorithm == Algorithm::AllProbes {
            (0..pair.probe_space().raw_len()).filter_map(|i| pair.probe(i)).collect()
        } else {
            vec![pair.most_general()]
        };
        t.exit();
        if self.cache.misses() > misses {
            for probe in &probes {
                self.counts.mpi_terms += probe.mpi().polynomial().term_count() as u64;
                self.counts.mappings += probe.mapping_count() as u64;
            }
        }

        t.enter("linalg.lp", id);
        let mut witness = None;
        for probe in &probes {
            if let Some(assignment) =
                self.decider.decide_probe_in(probe, &mut self.scratch).map_err(|e| e.to_string())?
            {
                witness = Some((*probe, assignment));
                break;
            }
        }
        t.exit();

        let verdict = match witness {
            Some((probe, assignment)) => {
                t.enter("containment.certify", id);
                let certificate = pair.counterexample(probe, &assignment);
                t.exit();
                self.counts.certified += 1;
                BagContainment::NotContained(Box::new(certificate))
            }
            None => BagContainment::Contained { probes_checked: probes.len() },
        };

        t.enter("cli.emit", id);
        self.sink.clear();
        writeln!(
            self.sink,
            "{{\"id\":{id},\"containee\":{},\"containing\":{},\"result\":{}}}",
            json::string(&containee.query.to_string()),
            json::string(&containing.query.to_string()),
            verdict.to_json()
        )
        .map_err(|e| e.to_string())?;
        self.counts.emit_bytes += self.sink.len() as u64;
        t.exit();
        t.exit();
        Ok(())
    }

    /// The `check` pipeline on a whole program: parse, lint, render.
    fn program(&mut self, t: &mut Tracer, id: u64, program: &str) -> Result<(), String> {
        t.enter("program", id);
        t.enter("cq.parse", id);
        let queries = parse_program_spanned(program).map_err(|e| e.message().to_string())?;
        t.exit();
        self.counts.queries += queries.len() as u64;
        t.enter("analyze.lint", id);
        let analysis = analyze_pairs(&queries, program, &LintConfig::new());
        t.exit();
        t.enter("cli.emit", id);
        self.sink.clear();
        for d in analysis.all_diagnostics() {
            writeln!(
                self.sink,
                "{{\"code\":\"{}\",\"line\":{},\"column\":{},\"message\":{}}}",
                d.code,
                d.line,
                d.column,
                json::string(&d.message)
            )
            .map_err(|e| e.to_string())?;
            self.counts.diagnostics += 1;
        }
        for p in &analysis.pairs {
            let cost = p.cost.map_or("null".to_string(), |c| {
                format!(
                    "{{\"lp_unknowns\":{},\"lp_rows_bound\":{}}}",
                    c.lp_unknowns, c.lp_rows_bound
                )
            });
            writeln!(
                self.sink,
                "{{\"index\":{},\"containee\":{},\"containing\":{},\"fragment\":\"{}\",\"cost\":{cost}}}",
                p.index,
                json::string(&p.containee),
                json::string(&p.containing),
                p.fragment.label()
            )
            .map_err(|e| e.to_string())?;
        }
        self.counts.emit_bytes += self.sink.len() as u64;
        t.exit();
        t.exit();
        Ok(())
    }
}

/// What a workload replays.
struct Inputs {
    pairs: Vec<Pair>,
    /// The `lint` program (its pairs are `pairs`).
    program: Option<String>,
    feed: Feed,
    algorithm: Algorithm,
}

fn inputs(workload: Workload, seed: u64) -> Inputs {
    let batch = |pairs, feed, algorithm| Inputs { pairs, program: None, feed, algorithm };
    match workload {
        Workload::Stream => {
            batch(workload::stream(seed), Feed::AllAtOnce, Algorithm::MostGeneralProbe)
        }
        Workload::Hard => batch(
            workload::hard(seed, HARD_TRACE_PAIRS),
            Feed::OneAtATime,
            Algorithm::MostGeneralProbe,
        ),
        Workload::AllProbes => {
            let mut pairs = workload::allprobes(seed);
            pairs.truncate(workload::ALLPROBES_ROUND);
            batch(pairs, Feed::OneAtATime, Algorithm::AllProbes)
        }
        Workload::Lint => {
            let (program, pairs) = workload::lint(seed);
            Inputs {
                pairs,
                program: Some(program),
                feed: Feed::AllAtOnce,
                algorithm: Algorithm::MostGeneralProbe,
            }
        }
    }
}

/// One replay pass: the warm-up pair and program through every layer,
/// then the workload. Returns the wall time in seconds.
fn replay(inputs: &Inputs, t: &mut Tracer) -> Result<(f64, Counts), String> {
    let mut r = Replay::new(inputs.algorithm);
    let warm = workload::warm_up();
    let start = Instant::now();
    r.pair(t, 0, &warm.text)?;
    r.program(t, 0, &warm.text)?;
    match &inputs.program {
        Some(program) => r.program(t, 1, program)?,
        None => {
            for (id, pair) in (1u64..).zip(&inputs.pairs) {
                r.pair(t, id, &pair.text)?;
            }
        }
    }
    Ok((start.elapsed().as_secs_f64(), r.counts))
}

/// `DecisionEngine::run_batch` over the warm-up pair and the workload's
/// pairs (none for `lint`), closed-loop where the workload is. Returns the
/// admit-to-emit latencies in ms.
fn engine_replay(inputs: &Inputs) -> Result<Vec<f64>, String> {
    let texts: Vec<String> = std::iter::once(workload::warm_up().text)
        .chain(inputs.pairs.iter().filter(|_| inputs.program.is_none()).map(|p| p.text.clone()))
        .collect();
    let engine = DecisionEngine::new(EngineConfig {
        jobs: 2,
        algorithm: inputs.algorithm,
        ..Default::default()
    });
    let epoch = Instant::now();
    let pulled: Vec<AtomicU64> = texts.iter().map(|_| AtomicU64::new(0)).collect();
    let mut emitted = vec![0u64; texts.len()];
    let (gate, wait) = mpsc::channel::<()>();
    gate.send(()).map_err(|e| e.to_string())?;
    let closed_loop = inputs.feed == Feed::OneAtATime;
    let pulled_at = &pulled;
    let jobs = texts.iter().enumerate().map(move |(i, source)| {
        if closed_loop {
            // The previous verdict has been emitted (or the run is over).
            let _ = wait.recv();
        }
        pulled_at[i].store(epoch.elapsed().as_nanos() as u64, Ordering::Relaxed);
        Job { id: i as u64 + 1, source: source.clone(), read_error: None }
    });
    let mut failures = Vec::new();
    engine.run_batch(jobs, |verdict| {
        let i = (verdict.id - 1) as usize;
        emitted[i] = epoch.elapsed().as_nanos() as u64;
        if let Err(e) = &verdict.outcome {
            failures.push(e.to_string());
        }
        let _ = gate.send(());
        true
    });
    if let Some(first) = failures.first() {
        return Err(format!("run_batch failed {} pair(s): {first}", failures.len()));
    }
    // run_batch has joined its threads, so every pull time is visible.
    Ok(pulled
        .iter()
        .zip(&emitted)
        .map(|(p, e)| e.saturating_sub(p.load(Ordering::Relaxed)) as f64 / 1e6)
        .collect())
}

/// A value from the trailer's `counters` or `volatile` block.
fn counter(trailer: Option<&Json>, name: &str) -> f64 {
    let block = |b: &str| trailer.and_then(|m| m.get(b)).and_then(|c| c.get(name));
    match block("counters").or_else(|| block("volatile")) {
        Some(Json::Number(n)) => *n,
        _ => 0.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The traced run of one workload: per-layer metrics, plus a Chrome trace
/// and a summary written to `out`.
pub fn run(ctx: &Ctx, out: &Path) -> Result<(Tally, Vec<Metric>), String> {
    let inputs = inputs(ctx.workload, ctx.seed);
    let mut tally = Tally::default();

    // 1. The binary's own counters.
    let mut trailer: Option<Json> = None;
    let mut idle_frac = 0.0;
    match &inputs.program {
        Some(program) => {
            measure::lint_round(ctx, program, &inputs.pairs, false, &mut tally)?;
        }
        None => {
            let mut oracle = Oracle::default();
            let round = measure::batch_round(
                ctx,
                &inputs.pairs,
                inputs.feed,
                &["--metrics"],
                &mut oracle,
                &mut tally,
            )?;
            let last = round.trailer.last().ok_or("no --metrics trailer")?;
            let json = Json::parse(last).map_err(|e| format!("bad --metrics trailer: {e}"))?;
            let metrics = json.get("metrics").cloned().ok_or("no metrics member")?;
            let end = round.lines.last().map_or(round.spawned, |(_, _, at)| *at);
            let wall_ns = (end - round.spawned).as_nanos() as f64;
            let workers = metrics.get("workers").and_then(Json::as_array).unwrap_or(&[]);
            let busy: f64 = workers
                .iter()
                .map(|w| match w.get("busy_ns") {
                    Some(Json::Number(n)) => *n,
                    _ => 0.0,
                })
                .sum();
            idle_frac = 1.0 - ratio(busy, workers.len() as f64 * wall_ns);
            trailer = Some(metrics);
        }
    }

    // 2. In-process replays, alternating untraced and traced passes.
    let (mut untraced, mut traced) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..REPLAY_PASSES {
        untraced = untraced.min(replay(&inputs, &mut Tracer::new(false))?.0);
        let mut tracer = Tracer::new(true);
        let (wall, counts) = replay(&inputs, &mut tracer)?;
        traced = traced.min(wall);
        last = Some((tracer, wall, counts));
    }
    let (tracer, traced_wall, counts) = last.expect("REPLAY_PASSES is positive");

    // 3. The scheduler.
    let admit_to_emit = engine_replay(&inputs)?;

    let self_ns = tracer.self_ns();
    let self_ms = |name: &str| self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6;
    let attributed: f64 = self_ns
        .iter()
        .filter(|(name, _)| !ROOTS.contains(name))
        .map(|(_, ns)| *ns as f64 / 1e9)
        .sum();
    let t = trailer.as_ref();
    let decided = counter(t, "engine.pairs_decided");
    let hits = counter(t, "cache.compiled_pair.hits");
    let small = counter(t, "arith.small_hits");
    let m = |name: &'static str, unit: &'static str, value: f64| Metric {
        name,
        value,
        unit,
        samples: 1,
    };
    let metrics = vec![
        m("cq.parse.self_ms", "ms", self_ms("cq.parse")),
        m("cq.parse.queries", "count", counts.queries as f64),
        m("analyze.check.self_ms", "ms", self_ms("analyze.check")),
        m("cli.emit.self_ms", "ms", self_ms("cli.emit")),
        m("cli.emit.bytes", "bytes", counts.emit_bytes as f64),
        m("engine.admit_to_emit_p50_ms", "ms", median(&admit_to_emit).unwrap_or(0.0)),
        m("engine.worker.idle_frac", "ratio", idle_frac),
        m(
            "engine.cache.hit_rate",
            "ratio",
            ratio(hits, hits + counter(t, "cache.compiled_pair.misses")),
        ),
        m("engine.steals", "count", counter(t, "engine.steals")),
        m("engine.claim_spread_max", "count", counter(t, "engine.claim_spread.max")),
        m("containment.compile.self_ms", "ms", self_ms("containment.compile")),
        m("containment.compile.mappings", "count", counter(t, "containment.mappings.enumerated")),
        m(
            "containment.compile.terms_per_mapping",
            "ratio",
            ratio(counts.mpi_terms as f64, counts.mappings as f64),
        ),
        m("containment.certify.self_ms", "ms", self_ms("containment.certify")),
        m("containment.certify.count", "count", counts.certified as f64),
        m("linalg.lp.self_ms", "ms", self_ms("linalg.lp")),
        m("linalg.lp.calls", "count", counter(t, "lp.feasibility.calls")),
        m(
            "linalg.lp.pivots",
            "count",
            counter(t, "lp.simplex.pivots") + counter(t, "lp.bareiss.pivots"),
        ),
        m("arith.small_hit_rate", "ratio", ratio(small, small + counter(t, "arith.big_fallbacks"))),
        m("analyze.lint.self_ms", "ms", self_ms("analyze.lint")),
        m("analyze.diagnostics", "count", counts.diagnostics as f64),
        m("alloc.heap_per_pair", "count", ratio(counter(t, "alloc.heap.allocs"), decided)),
        m("trace.unattributed_frac", "ratio", 1.0 - attributed / traced_wall),
        m("trace.overhead_frac", "ratio", traced / untraced - 1.0),
    ];

    let stem = format!("{}-{}", ctx.workload.name(), ctx.seed);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let trace_path = out.join(format!("trace-{stem}.json"));
    std::fs::write(&trace_path, tracer.chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let mut summary = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"traced_wall_s\":{traced_wall},\"self_ms\":{{",
        ctx.workload.name(),
        ctx.seed
    );
    let layers: Vec<String> =
        self_ns.iter().map(|(n, ns)| format!("\"{n}\":{}", *ns as f64 / 1e6)).collect();
    summary.push_str(&layers.join(","));
    summary.push_str("},\"metrics\":{");
    let values: Vec<String> =
        metrics.iter().map(|m| format!("\"{}\":{}", m.name, m.value)).collect();
    summary.push_str(&values.join(","));
    summary.push_str("}}\n");
    let summary_path = out.join(format!("layers-{stem}.json"));
    std::fs::write(&summary_path, summary)
        .map_err(|e| format!("{}: {e}", summary_path.display()))?;
    eprintln!("perfbench: wrote {} and {}", trace_path.display(), summary_path.display());
    Ok((tally, metrics))
}
