//! Suite-wide reclaim benchmark for the Gen-T workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <santos|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root (it reads `BENCHMARK.json` there and
//! writes scratch files under `.perfbench-run/`). The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! and the `end_to_end` metrics (`--trace 0`) or the `per_layer` metrics
//! (`--trace 1`) that `BENCHMARK.json` lists. Every answer is checked
//! against a reference computed with `GenT::reclaim`; any mismatch fails
//! the run.

mod inproc;
mod report;
mod serve_mix;
mod suite;
mod trace;

use report::Outcome;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <santos|serve-mix> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --expected <seed>   (print the seed's lines for expected.txt)";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn run(args: &Args, scratch: &Path) -> Result<Outcome, String> {
    let trace_path: Option<PathBuf> = args.trace.then(|| {
        Path::new(".perfbench-run").join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
    });
    let trace = trace_path.as_deref();
    let (seed, seconds) = (args.seed, args.seconds);
    let mut outcome = match args.workload.as_str() {
        "santos" => inproc::run(seed, seconds, trace, scratch),
        "serve-mix" => serve_mix::run(seed, seconds, trace, scratch),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    }?;
    if args.trace {
        outcome.values.insert("process.peak_rss_mb", report::peak_rss_mb());
    }
    Ok(outcome)
}

/// `--expected <seed>`: set up the seed's lakes of both kinds, run the
/// reference pass on each, and print the lines `perfbench/expected.txt`
/// pins for that seed. Nothing is timed.
fn print_expected(seed: &str) -> ExitCode {
    let Ok(seed) = seed.parse::<u64>() else {
        eprintln!("perfbench: bad --expected {seed}\n{USAGE}");
        return ExitCode::from(2);
    };
    let scratch = Path::new(".perfbench-run").join(format!("expected-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let lines: Result<Vec<String>, String> = [0, suite::SANTOS_NOISE_TABLES]
        .iter()
        .map(|&noise| {
            let p = suite::prepare(seed, noise, &scratch)?;
            let refs = suite::reference_pass(&gent_core::GenT::default(), &p)?;
            Ok(suite::expected_line(&p, &refs))
        })
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);
    match lines {
        Ok(lines) => {
            for l in lines {
                println!("{l}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, seed] = argv.as_slice() {
        if flag == "--expected" {
            return print_expected(seed);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let kind = if args.trace { "per_layer" } else { "end_to_end" };
    let listed = match report::listed_metrics(kind) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch =
        Path::new(".perfbench-run").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        return ExitCode::FAILURE;
    }
    let outcome = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    let line = outcome.and_then(|o| report::render(&o, &listed).map(|l| (l, o.correct())));
    match line {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: wrong answers; see above");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
