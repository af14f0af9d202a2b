//! `unitherm-perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload (`paper-sweep`, `serve-mix`) for about S
//! seconds and prints, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced (`--trace 0`), the per-layer metrics traced
//! (`--trace 1`, which also writes the spans to
//! `.bench_build/perfbench-trace-<workload>-seed<N>.jsonl`). The line
//! before it is the run context. See README.md.

use std::collections::BTreeMap;
use std::process::ExitCode;

use unitherm_perfbench::outcome::{result_line, Outcome, END_TO_END, PER_LAYER};
use unitherm_perfbench::{context, serve, sweep, trace, Size, Traced};

/// The documented default seed (`README.md`; the held-out seed is 9001).
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!(
        "error: {msg}\nusage: unitherm-perfbench --workload paper-sweep|serve-mix [--seed N] [--seconds S] [--trace 0|1]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args =
        Args { workload: String::new(), seed: DEFAULT_SEED, seconds: 10.0, trace: false };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("invalid value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                args.seconds =
                    value.parse().map_err(|_| format!("invalid value {value:?} for {flag}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("invalid value {value:?} for --trace")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn untraced(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "paper-sweep" => sweep::run(&sweep::prepare(args.seed, Size::Full)?, args.seconds),
        "serve-mix" => serve::run(&serve::prepare(args.seed, Size::Full)?, args.seconds),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn traced(args: &Args) -> Result<Traced, String> {
    match args.workload.as_str() {
        "paper-sweep" => sweep::traced(&sweep::prepare(args.seed, Size::Full)?, args.seconds),
        "serve-mix" => serve::traced(&serve::prepare(args.seed, Size::Full)?, args.seconds),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn threads(workload: &str, trace: bool) -> &'static str {
    match (workload, trace) {
        ("paper-sweep", false) => "{\"scenario\":1,\"workers\":2}",
        ("paper-sweep", true) => "{\"scenario\":1,\"workers\":1}",
        _ => "{\"server_max_threads\":2,\"clients\":2,\"job_threads\":[1,2]}",
    }
}

fn log_metrics(table: &[(&str, &str)], values: &BTreeMap<&'static str, f64>) {
    for (name, unit) in table {
        eprintln!("  {name:<36} {:>16.4} {unit}", values[name]);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if !matches!(args.workload.as_str(), "paper-sweep" | "serve-mix") {
        return usage(&format!("unknown workload {:?}", args.workload));
    }
    let ctx = context::line(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        threads(&args.workload, args.trace),
    );
    if args.trace {
        let t = match traced(&args) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        eprintln!("{} traced: {} jobs, {} failed", args.workload, t.attempted, t.failed);
        log_metrics(&PER_LAYER, &t.metrics);
        eprint!("{}", t.notes);
        let path =
            format!(".bench_build/perfbench-trace-{}-seed{}.jsonl", args.workload, args.seed);
        let written = std::fs::create_dir_all(".bench_build")
            .and_then(|()| std::fs::write(&path, trace::to_jsonl(&t.spans)));
        match written {
            Ok(()) => eprintln!("spans written to {path}"),
            Err(e) => eprintln!("warning: could not write {path}: {e}"),
        }
        println!("{ctx}");
        println!("{}", result_line(t.failed == 0, t.attempted, t.failed, &PER_LAYER, &t.metrics));
    } else {
        let o = match untraced(&args) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let m = o.end_to_end();
        eprintln!(
            "{}: {} jobs in {:.2} s, {} failed (error_rate {}), {} latency samples beyond p90",
            args.workload,
            o.attempted(),
            o.elapsed_s,
            o.failed(),
            o.error_rate(),
            o.beyond_p90()
        );
        for j in o.jobs.iter().filter(|j| !j.ok).take(5) {
            eprintln!("  failed: {}", j.error.as_deref().unwrap_or("?"));
        }
        log_metrics(&END_TO_END, &m);
        println!("{ctx}");
        println!("{}", result_line(o.failed() == 0, o.attempted(), o.failed(), &END_TO_END, &m));
    }
    ExitCode::SUCCESS
}
