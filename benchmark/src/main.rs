//! `perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Runs one workload and prints a human-readable summary followed, as the
//! last line of standard output, by one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Run files (the sweep
//! document, the span file, a copy of the summary) go to `.bench_out/`
//! under the current directory.

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use dvs_perfbench::machine;
use dvs_perfbench::run::{self, Outcome};
use dvs_perfbench::workload::Workload;

const USAGE: &str =
    "usage: perfbench --workload optimise_x10|variants_x1 [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "`--seed` needs an integer")?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("`--seconds` needs a non-negative number")?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`--trace` takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("`--workload` is required")?,
        seed,
        seconds,
        trace,
    })
}

fn summary(args: &Args, o: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let _ = writeln!(s, "machine: {}", machine::record());
    for (name, unit, value) in o.report.rows() {
        let _ = writeln!(s, "  {name:<30} {value:>16.4} {unit}");
    }
    for note in &o.notes {
        let _ = writeln!(s, "{note}");
    }
    // an op that fails fails again in every pass: list each one once
    let mut distinct: Vec<&(String, String)> = o.failures.iter().collect();
    distinct.sort();
    distinct.dedup();
    let _ = writeln!(
        s,
        "ops: {} attempted, {} failed ({} distinct); output checks {}",
        o.attempted,
        o.failed,
        distinct.len(),
        if o.correct { "passed" } else { "FAILED" },
    );
    for (id, message) in distinct {
        let _ = writeln!(s, "  failed {id}: {message}");
    }
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: creating {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    // a panicking op is recorded as failed; one line on stderr is enough
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));
    dvs_pool::set_circuit_jobs(args.workload.circuit_jobs());
    let o = if args.trace {
        run::traced(args.workload, args.seed, out)
    } else {
        run::timed(args.workload, args.seed, args.seconds, out)
    };
    let text = summary(&args, &o);
    let log = out.join(format!(
        "run-{}-s{}-trace{}.log",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&log, &text) {
        eprintln!("perfbench: writing {}: {e}", log.display());
    }
    print!("{text}");
    println!("{}", o.report.result_line(o.correct, o.attempted, o.failed));
    ExitCode::SUCCESS
}
