//! End-to-end runs of the release `diophantus` binary as a child process.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use diophantus::analyze::classify_pair;
use diophantus::jsonv::Json;

use crate::child::Spawned;
use crate::oracle::{check_line, Answer, Oracle};
use crate::stats::{median, tail_percentile};
use crate::workload::{self, Pair, Workload};

/// Children spawned only to sample `setup_s`, on top of one per round.
const SETUP_SPAWNS: usize = 15;
/// The longest any one child may live.
const CHILD_LIMIT: Duration = Duration::from_secs(90);

/// What one run is asked to do.
pub struct Ctx {
    pub binary: PathBuf,
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    /// No child outlives this instant, so the run ends in bounded time.
    pub deadline: Instant,
}

impl Ctx {
    fn child_deadline(&self) -> Instant {
        self.deadline.min(Instant::now() + CHILD_LIMIT)
    }

    pub fn spawn(&self, extra: &[&str]) -> Result<Spawned, String> {
        let mut args = self.workload.args().to_vec();
        args.extend_from_slice(extra);
        Spawned::spawn(&self.binary, &args, self.child_deadline())
    }
}

/// Everything a run observed: samples and failures.
#[derive(Default)]
pub struct Tally {
    /// Pairs sent to a child, warm-up pairs included.
    pub attempted: u64,
    /// One entry per error line, wrong verdict, failed certificate replay
    /// or unanswered pair.
    pub faults: Vec<String>,
    pub setup_s: Vec<f64>,
    pub pairs_per_s: Vec<f64>,
    pub probes_per_s: Vec<f64>,
    pub verdict_ms: Vec<f64>,
    pub rss_mb: Vec<f64>,
}

impl Tally {
    fn fault(&mut self, message: String) {
        if self.faults.len() < 20 {
            eprintln!("perfbench: {message}");
        }
        self.faults.push(message);
    }
}

/// One batch child's answers.
pub struct Round {
    /// `(pair index, verdict line, when the line was read)`.
    pub lines: Vec<(usize, String, Instant)>,
    /// Lines printed after input was closed (the `--metrics` trailer).
    pub trailer: Vec<String>,
    pub spawned: Instant,
}

/// How a batch child is fed.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Feed {
    /// Every pair written at once, verdicts read as they come.
    AllAtOnce,
    /// Closed loop: the next pair is written only after the previous
    /// verdict arrived.
    OneAtATime,
    /// Closed loop cycling through the pairs until the instant passes.
    CycleUntil(Instant),
}

/// Answered pairs per second over consecutive windows of at least a second.
/// A partial last window is dropped unless it is the only one.
fn window_rates(start: Instant, lines: &[(usize, String, Instant)]) -> Vec<f64> {
    let mut rates = Vec::new();
    let (mut from, mut count) = (start, 0usize);
    for (_, _, at) in lines {
        count += 1;
        let span = (*at - from).as_secs_f64();
        if span >= 1.0 {
            rates.push(count as f64 / span);
            (from, count) = (*at, 0);
        }
    }
    if let (true, Some((_, _, last))) = (rates.is_empty(), lines.last()) {
        rates.push(count as f64 / (*last - start).as_secs_f64());
    }
    rates
}

/// Spawns a batch child, answers the warm-up pair, then feeds it `pairs`.
pub fn batch_round(
    ctx: &Ctx,
    pairs: &[Pair],
    feed: Feed,
    extra: &[&str],
    oracle: &mut Oracle,
    tally: &mut Tally,
) -> Result<Round, String> {
    let warm = workload::warm_up();
    let mut child = ctx.spawn(extra)?;
    let spawned = child.spawned;
    tally.attempted += 1;
    child.write_all(warm.text.as_bytes())?;
    let (line, at) = child.next_line()?.ok_or("the child exited before its warm-up verdict")?;
    if let Err(fault) = check_line(&warm, &line) {
        tally.fault(format!("warm-up pair: {fault}"));
    }
    tally.setup_s.push((at - spawned).as_secs_f64());
    let start = at;

    let mut lines: Vec<(usize, String, Instant)> = Vec::with_capacity(pairs.len());
    let mut written: Vec<Instant> = Vec::with_capacity(pairs.len());
    let outcome = (|| -> Result<(), String> {
        if feed == Feed::AllAtOnce {
            for pair in pairs {
                written.push(child.write_all(pair.text.as_bytes())?);
            }
            while lines.len() < written.len() {
                let (line, at) = child.next_line()?.ok_or("the child exited early")?;
                lines.push((lines.len(), line, at));
            }
            return Ok(());
        }
        let passes = if let Feed::CycleUntil(_) = feed { usize::MAX } else { 1 };
        for index in (0..pairs.len()).cycle().take(pairs.len().saturating_mul(passes)) {
            if let Feed::CycleUntil(stop) = feed {
                if Instant::now() >= stop {
                    break;
                }
            }
            written.push(child.write_all(pairs[index].text.as_bytes())?);
            let (line, at) = child.next_line()?.ok_or("the child exited early")?;
            lines.push((index, line, at));
        }
        Ok(())
    })();
    tally.attempted += written.len() as u64;
    let end = lines.last().map_or(start, |(_, _, at)| *at);
    let mut trailer = Vec::new();
    match outcome {
        Ok(()) => {
            if !pairs.is_empty() && child.sample_rss().is_some() {
                tally.rss_mb.extend(child.peak_rss_mb());
            }
            let (rest, status) = child.finish()?;
            if !status.success() {
                tally.fault(format!("the child exited with {status}"));
            }
            trailer = rest;
        }
        Err(e) => {
            // Every pair written but not answered counts as a failure;
            // dropping `child` kills the process.
            let unanswered = written.len() - lines.len();
            tally.fault(format!("{unanswered} of {} pairs unanswered: {e}", written.len()));
            tally.faults.extend((1..unanswered).map(|_| "unanswered pair".to_string()));
        }
    }
    for ((_, _, at), w) in lines.iter().zip(&written) {
        tally.verdict_ms.push((*at - *w).as_secs_f64() * 1e3);
    }
    let wall = end - start;
    if let Feed::CycleUntil(_) = feed {
        tally.pairs_per_s.extend(window_rates(start, &lines));
    } else if !lines.is_empty() {
        tally.pairs_per_s.push(lines.len() as f64 / wall.as_secs_f64());
    }
    // The oracle runs after the child is gone, outside every timed region.
    let mut probes = 0u64;
    for (index, line, _) in &lines {
        match oracle.check(pairs, *index, line) {
            Ok(Answer::Contained { probes: n }) => probes += n,
            Ok(Answer::NotContained) => probes += 1,
            Err(fault) => tally.fault(fault.to_string()),
        }
    }
    if !lines.is_empty() {
        tally.probes_per_s.push(probes as f64 / wall.as_secs_f64());
    }
    Ok(Round { lines, trailer, spawned })
}

/// `setup_s` on its own: spawn, answer the warm-up pair, exit.
fn setup_only(ctx: &Ctx, oracle: &mut Oracle, tally: &mut Tally) -> Result<(), String> {
    if ctx.workload == Workload::Lint {
        let warm = [workload::warm_up()];
        lint_round(ctx, &workload::program_of(&warm), &warm, true, tally)?;
    } else {
        batch_round(ctx, &[], Feed::AllAtOnce, &[], oracle, tally)?;
    }
    Ok(())
}

/// Runs `diophantus check --json` on `program`. For the one-pair warm-up
/// program the spawn-to-exit time is a `setup_s` sample; otherwise the run
/// yields `pairs_per_s` (spawn to report), `verdict_ms` (end of input to
/// report) and the sampled peak RSS.
pub fn lint_round(
    ctx: &Ctx,
    program: &str,
    pairs: &[Pair],
    setup: bool,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut child = ctx.spawn(&[])?;
    child.poll_rss = !setup;
    tally.attempted += pairs.len() as u64;
    child.write_all(program.as_bytes())?;
    child.close_input();
    let input_closed = Instant::now();
    let mut report = String::new();
    let mut last = input_closed;
    while let Some((line, at)) = child.next_line()? {
        report.push_str(&line);
        last = at;
    }
    let (_, status) = child.finish()?;
    if setup {
        tally.setup_s.push(child.spawned.elapsed().as_secs_f64());
    } else {
        tally.pairs_per_s.push(pairs.len() as f64 / (last - child.spawned).as_secs_f64());
        tally.verdict_ms.push((last - input_closed).as_secs_f64() * 1e3);
        tally.rss_mb.extend(child.peak_rss_mb());
    }
    if !status.success() {
        tally.fault(format!("check exited with {status}"));
    }
    if let Err(e) = check_lint_report(&report, pairs) {
        tally.fault(format!("lint report: {e}"));
    }
    Ok(())
}

/// Checks a `check --json` report: one entry per pair, in order, each
/// with the fragment label the pair has, and no error diagnostics.
fn check_lint_report(report: &str, pairs: &[Pair]) -> Result<(), String> {
    let json = Json::parse(report).map_err(|e| format!("unparseable: {e}"))?;
    let file = json
        .get("files")
        .and_then(Json::as_array)
        .and_then(|f| f.first())
        .ok_or("no file entry")?;
    let entries = file.get("pairs").and_then(Json::as_array).ok_or("no pairs")?;
    if entries.len() != pairs.len() {
        return Err(format!("{} pair entries for {} pairs", entries.len(), pairs.len()));
    }
    for (entry, pair) in entries.iter().zip(pairs) {
        let field = |k: &str| entry.get(k).and_then(Json::as_str).unwrap_or("");
        let expected = classify_pair(&pair.containee, &pair.containing).label();
        if field("containee") != pair.containee.name() || field("fragment") != expected {
            return Err(format!(
                "pair {} labelled {:?}, expected {expected}",
                pair.containee.name(),
                field("fragment")
            ));
        }
    }
    if json.get("summary").and_then(|s| s.get("errors")) != Some(&Json::Number(0.0)) {
        return Err("the report has error diagnostics".to_string());
    }
    Ok(())
}

/// The untraced end-to-end run of one workload.
pub fn run(ctx: &Ctx) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut oracle = Oracle::default();
    for _ in 0..SETUP_SPAWNS {
        setup_only(ctx, &mut oracle, &mut tally)?;
    }
    let begin = Instant::now();
    let end = begin + Duration::from_secs(ctx.seconds);
    match ctx.workload {
        Workload::Stream => {
            let pairs = workload::stream(ctx.seed);
            loop {
                batch_round(ctx, &pairs, Feed::AllAtOnce, &[], &mut oracle, &mut tally)?;
                if Instant::now() >= end {
                    break;
                }
            }
        }
        Workload::Hard => {
            let pairs = workload::hard(ctx.seed, workload::HARD_POOL);
            batch_round(ctx, &pairs, Feed::CycleUntil(end), &[], &mut oracle, &mut tally)?;
        }
        Workload::AllProbes => {
            let pairs = workload::allprobes(ctx.seed);
            for round in pairs.chunks(workload::ALLPROBES_ROUND).cycle() {
                batch_round(ctx, round, Feed::OneAtATime, &[], &mut oracle, &mut tally)?;
                if Instant::now() >= end {
                    break;
                }
            }
        }
        Workload::Lint => {
            let (program, pairs) = workload::lint(ctx.seed);
            loop {
                lint_round(ctx, &program, &pairs, false, &mut tally)?;
                if Instant::now() >= end {
                    break;
                }
            }
        }
    }
    Ok(tally)
}

/// A reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (for the human summary).
    pub samples: usize,
}

fn metric(
    name: &'static str,
    unit: &'static str,
    values: &[f64],
    value: Option<f64>,
) -> Option<Metric> {
    value.map(|value| Metric { name, value, unit, samples: values.len() })
}

/// The `end_to_end` metrics of `BENCHMARK.json`, which every workload
/// reports; an error if a sample set is empty.
pub fn end_to_end(t: &Tally) -> Result<Vec<Metric>, String> {
    let all = [
        metric("setup_s", "s", &t.setup_s, median(&t.setup_s)),
        metric("pairs_per_s", "1/s", &t.pairs_per_s, median(&t.pairs_per_s)),
        metric("verdict_p50_ms", "ms", &t.verdict_ms, median(&t.verdict_ms)),
        metric("peak_rss_mb", "MiB", &t.rss_mb, median(&t.rss_mb)),
    ];
    all.into_iter().map(|m| m.ok_or_else(|| "a metric has no samples".to_string())).collect()
}

/// Figures printed for people only: they do not exist on every workload,
/// so `BENCHMARK.json` cannot bound them.
pub fn extras(workload: Workload, t: &Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    if workload == Workload::AllProbes {
        out.extend(metric("probes_per_s", "1/s", &t.probes_per_s, median(&t.probes_per_s)));
    }
    out.extend(metric("verdict_p99_ms", "ms", &t.verdict_ms, tail_percentile(&t.verdict_ms, 99.0)));
    let rate = t.faults.len() as f64 / t.attempted.max(1) as f64;
    out.push(Metric {
        name: "error_rate",
        value: rate,
        unit: "ratio",
        samples: t.attempted as usize,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(start: Instant, ms: &[u64]) -> Vec<(usize, String, Instant)> {
        ms.iter().map(|&m| (0, String::new(), start + Duration::from_millis(m))).collect()
    }

    #[test]
    fn window_rates_close_a_window_per_second_and_keep_a_lone_partial_one() {
        let t = Instant::now();
        // Three verdicts by 1.0 s, two more by 2.0 s, one in a dropped partial window.
        let full = lines(t, &[400, 700, 1000, 1500, 2000, 2300]);
        assert_eq!(window_rates(t, &full), vec![3.0, 2.0]);
        assert_eq!(window_rates(t, &lines(t, &[250, 500])), vec![4.0]);
        assert!(window_rates(t, &[]).is_empty());
    }
}
