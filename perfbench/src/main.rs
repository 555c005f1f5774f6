//! The diophantus benchmark.
//!
//! ```text
//! perfbench --binary <diophantus> --out <dir> --workload <stream|hard|allprobes|lint>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it drives the release binary as a child process for
//! `--seconds` seconds and reports the end-to-end metrics; with `--trace 1`
//! it reports per-layer metrics (see `layers`). Every verdict is checked by
//! an independent oracle. A human summary goes to stderr; the last line of
//! stdout is one JSON object. The exit code is 1 if any pair failed or got
//! a wrong verdict, 2 on bad arguments. `perfbench/run.py` builds both
//! binaries and supplies `--binary` and `--out`.

mod child;
mod layers;
mod measure;
mod oracle;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use measure::{Ctx, Metric, Tally};
use workload::Workload;

/// A run must end within 180 s; children are killed well before that.
const RUN_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    ctx: Ctx,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<String, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).cloned().ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str, text: String| -> Result<u64, String> {
        text.parse().map_err(|_| format!("{flag} needs a whole number, got '{text}'"))
    };
    let name = get("--workload")?;
    let workload = Workload::from_name(&name).ok_or(format!("unknown workload '{name}'"))?;
    let seed = number("--seed", get("--seed")?)?;
    let seconds = number("--seconds", get("--seconds")?)?;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
    };
    if !(1..=120).contains(&seconds) {
        return Err("--seconds must be between 1 and 120".to_string());
    }
    let binary = PathBuf::from(get("--binary")?);
    let out = PathBuf::from(get("--out")?);
    let deadline = Instant::now() + RUN_LIMIT;
    Ok(Args { ctx: Ctx { binary, workload, seed, seconds, deadline }, trace, out })
}

fn print_summary(workload: Workload, metrics: &[Metric], extras: &[Metric], tally: &Tally) {
    eprintln!(
        "perfbench {}: {} pair(s) attempted, {} failed",
        workload.name(),
        tally.attempted,
        tally.faults.len()
    );
    for m in metrics.iter().chain(extras) {
        eprintln!("  {:<40} {:>16.6} {:<6} (n={})", m.name, m.value, m.unit, m.samples);
    }
}

fn result_line(tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        fields.push(format!("\"{}\":{{\"value\":{},\"unit\":\"{}\"}}", m.name, m.value, m.unit));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        tally.faults.is_empty(),
        tally.attempted.max(1),
        tally.faults.len(),
        fields.join(",")
    ))
}

fn run(args: &Args) -> Result<(Tally, Vec<Metric>, Vec<Metric>), String> {
    if args.trace {
        let (tally, metrics) = layers::run(&args.ctx, &args.out)?;
        Ok((tally, metrics, Vec::new()))
    } else {
        let tally = measure::run(&args.ctx)?;
        let metrics = measure::end_to_end(&tally)?;
        let extras = measure::extras(args.ctx.workload, &tally);
        Ok((tally, metrics, extras))
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args).and_then(|(tally, metrics, extras)| {
        print_summary(args.ctx.workload, &metrics, &extras, &tally);
        Ok((result_line(&tally, &metrics)?, tally.faults.is_empty()))
    });
    match outcome {
        Ok((line, correct)) => {
            println!("{line}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
