//! `benchmark`: the simulator's end-to-end and per-layer benchmark.
//! See the crate docs (`src/lib.rs`) for workloads, metrics and usage.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::host;
use perfbench::layers::traced_pass;
use perfbench::report::{compare, e2e_text, final_line, record_line, traced_text, Record};
use perfbench::spans::Spans;
use perfbench::workload::{e2e_pass, Params, Workload, DEFAULT_SEED};

const USAGE: &str = "usage:
  benchmark [--workload NAME]... [--seed N] [--seconds S] [--trace 0|1]
            [--json OUT] [--trace-out SPANS]
  benchmark --compare BEFORE.jsonl AFTER.jsonl

Runs every named workload (default: all of suite-quick, l1-stream,
replay-spill, mesh16-spill) on one thread: the e2e pass (--trace 0), the
traced pass (--trace 1), or both (no --trace). Each pass measures for about
S seconds (default 6). The last line of stdout is the JSON result.
--json appends the run's full record to OUT as one line; --compare reads
two such files (one run or many each) and judges every end-to-end metric
against its bound. --trace-out writes the traced passes' spans as Chrome
trace-event JSON.";

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    json: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: 6.0,
        trace: None,
        json: None,
        trace_out: None,
        compare: None,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::from_name(&v).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{v}'; expected one of {}",
                        names.join(", ")
                    )
                })?;
                a.workloads.push(w);
            }
            "--seed" => {
                a.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a non-negative integer")?;
            }
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                a.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--json" => a.json = Some(value()?.into()),
            "--trace-out" => a.trace_out = Some(value()?.into()),
            "--compare" => {
                let before = value()?;
                let after = it.next().ok_or("--compare needs BEFORE and AFTER")?;
                a.compare = Some((before.into(), after.into()));
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if a.workloads.is_empty() {
        a.workloads = Workload::ALL.to_vec();
    }
    Ok(a)
}

fn run_compare(before: &PathBuf, after: &PathBuf) -> ExitCode {
    let read = |p: &PathBuf| {
        std::fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))
    };
    match read(before).and_then(|b| read(after).and_then(|a| compare(&b, &a))) {
        Ok((table, regressed)) => {
            print!("{table}");
            if regressed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("benchmark: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((before, after)) = &args.compare {
        return run_compare(before, after);
    }
    let host = host::describe();
    println!(
        "benchmark: seed {}, {} s per pass, {host}",
        args.seed, args.seconds
    );
    let mut rec = Record {
        seed: args.seed,
        seconds: args.seconds,
        e2e: Vec::new(),
        traced: Vec::new(),
    };
    let mut spans = Spans::new();
    for &w in &args.workloads {
        let p = Params {
            workload: w,
            seed: args.seed,
            shrink: 1,
        };
        if args.trace != Some(true) {
            let r = e2e_pass(p, args.seconds);
            print!("{}", e2e_text(&r));
            rec.e2e.push(r);
        }
        if args.trace != Some(false) {
            let r = traced_pass(p, args.seconds, &mut spans);
            print!("{}", traced_text(&r));
            rec.traced.push(r);
        }
    }
    if let Some(path) = &args.json {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{}", record_line(&rec, &host)));
        if let Err(e) = appended {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    if let Some(path) = &args.trace_out {
        if let Err(e) = spans.write_chrome(path) {
            eprintln!("benchmark: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    println!("{}", final_line(&rec));
    ExitCode::SUCCESS
}
