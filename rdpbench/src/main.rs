//! The benchmark command.
//!
//! ```text
//! bench --workload NAME [--seed N] [--seconds S] [--trace [0|1]] [--scale full|smoke] [--out DIR]
//! bench --compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! A workload run prints every metric with its unit, writes a run file
//! (header + metrics) under `--out` (default `target/bench-runs`), and
//! prints a one-line JSON summary last. It exits non-zero when any
//! operation failed or any check did not hold. `--compare` prints a verdict
//! per workload and metric and exits non-zero when a metric regressed.

use rdpbench::{compare, spec, Options, Scale};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: bench --workload NAME [--seed N] [--seconds S] [--trace [0|1]] \
                     [--scale full|smoke] [--out DIR]\n       bench --compare PARENT_DIR CHANGE_DIR";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Run(opts)) => run(&opts),
        Ok(Command::Compare(parent, change)) => run_compare(&parent, &change),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

enum Command {
    Run(Options),
    Compare(PathBuf, PathBuf),
}

fn parse(args: &[String]) -> Result<Command, String> {
    let spec = spec::spec();
    let mut opts = Options {
        workload: String::new(),
        seed: None,
        seconds: spec.run_seconds as f64,
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("target/bench-runs"),
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--compare" => {
                let parent = value(&mut i, "--compare")?;
                let change = value(&mut i, "--compare")?;
                if i + 1 != args.len() {
                    return Err("--compare takes exactly two directories".into());
                }
                return Ok(Command::Compare(parent.into(), change.into()));
            }
            "--workload" => opts.workload = value(&mut i, "--workload")?,
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                opts.seed = Some(v.parse().map_err(|_| format!("bad seed `{v}`"))?);
            }
            "--seconds" => {
                let v = value(&mut i, "--seconds")?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s >= 0.0)
                    .ok_or(format!("bad seconds `{v}`"))?;
            }
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    opts.trace = false;
                    i += 1;
                }
                Some("1") => {
                    opts.trace = true;
                    i += 1;
                }
                _ => opts.trace = true,
            },
            "--scale" => {
                let v = value(&mut i, "--scale")?;
                opts.scale = Scale::parse(&v).ok_or(format!("bad scale `{v}`"))?;
            }
            "--out" => opts.out = value(&mut i, "--out")?.into(),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if !spec.workloads.contains(&opts.workload) {
        return Err(format!(
            "--workload must be one of {:?} (got `{}`)",
            spec.workloads, opts.workload
        ));
    }
    Ok(Command::Run(opts))
}

fn run(opts: &Options) -> ExitCode {
    let spec = spec::spec();
    let run = match rdpbench::run(opts) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("bench {}: {e}", opts.workload);
            return ExitCode::FAILURE;
        }
    };
    for (name, value) in &run.metrics {
        let unit = spec.find(name).map_or("", |d| d.unit.as_str());
        println!("{name:<30} {value:>16.6} {unit}");
    }
    for failure in &run.failures {
        eprintln!("FAILED: {failure}");
    }
    let file = opts.out.join(format!(
        "{}-{}-seed{}-{}.json",
        opts.workload,
        if opts.trace { "trace" } else { "e2e" },
        opts.seed.unwrap_or(rdpbench::DEFAULT_SEED),
        std::process::id()
    ));
    if let Err(e) = std::fs::write(&file, run.to_json(spec)) {
        eprintln!("could not write {}: {e}", file.display());
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {}", file.display());
    println!("{}", run.summary_line(spec, opts.trace));
    if run.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(parent: &Path, change: &Path) -> ExitCode {
    let result = compare::load_dir(parent)
        .and_then(|p| Ok((p, compare::load_dir(change)?)))
        .and_then(|(p, c)| compare::compare(spec::spec(), p, c));
    match result {
        Ok(rows) => {
            print!("{}", compare::render(&rows));
            if rows
                .iter()
                .any(|r| r.verdict == compare::Verdict::Regressed)
            {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
