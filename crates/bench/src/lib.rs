#![warn(missing_docs)]
//! Shared plumbing for the table/figure regeneration binaries, plus the run
//! metadata helpers the repository benchmark (`rdpbench/`) uses.
//!
//! Every table and figure of the paper's evaluation maps to one `[[bin]]`
//! target in this crate (see DESIGN.md §4 for the index). All binaries
//! accept `--smoke` to run a reduced-size suite for quick verification;
//! outputs go to stdout and `target/experiments/`.

use rdp_gen::GeneratorConfig;

pub mod mem;
pub mod timing;

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpArgs {
    /// Run the reduced-size suite.
    pub smoke: bool,
}

/// Parses `std::env::args` (only `--smoke` is recognized; anything else
/// prints usage and exits).
pub fn parse_args() -> ExpArgs {
    let mut args = ExpArgs::default();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--help" | "-h" => {
                eprintln!("usage: <experiment> [--smoke]");
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown argument `{other}` (supported: --smoke)");
                std::process::exit(2);
            }
        }
    }
    args
}

/// The standard suite, possibly reduced for smoke runs.
pub fn standard_suite(args: ExpArgs) -> Vec<GeneratorConfig> {
    if args.smoke {
        rdp_eval::suite::smoke_suite()
    } else {
        rdp_eval::suite::standard_suite()
    }
}

/// The fence suite, possibly reduced.
pub fn fence_suite(args: ExpArgs) -> Vec<GeneratorConfig> {
    let mut suite = rdp_eval::suite::fence_suite();
    if args.smoke {
        suite.truncate(2);
        for c in &mut suite {
            c.num_cells /= 2;
            // Keep the fenced fraction constant when shrinking.
            c.module_size = (c.module_size / 2).max(25);
        }
    }
    suite
}

/// Logical cores the OS reports for this process (1 when undetectable).
/// Benchmark JSON records this next to the kernel thread count so perf
/// numbers are comparable across hosts and PRs.
pub fn detected_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Short git revision of the working tree, `"unknown"` outside a checkout
/// (or when `git` is unavailable). Stamped into benchmark JSON so the perf
/// trajectory across PRs is attributable.
pub fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Geometric mean of strictly positive values (the contest's aggregate).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (s / values.len() as f64).exp()
}

/// Prints a table and saves both its text and CSV forms under
/// `target/experiments/` as `<name>.txt` / `<name>.csv`.
pub fn emit(name: &str, table: &rdp_eval::report::Table) {
    let text = table.to_string();
    println!("{text}");
    match rdp_eval::report::save(&format!("{name}.txt"), &text) {
        Ok(p) => eprintln!("wrote {}", p.display()),
        Err(e) => eprintln!("could not save {name}.txt: {e}"),
    }
    let _ = rdp_eval::report::save(&format!("{name}.csv"), &table.to_csv());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_helpers_are_well_formed() {
        assert!(detected_cores() >= 1);
        let rev = git_revision();
        assert!(!rev.is_empty());
        // Either a short hex hash or the explicit fallback.
        assert!(rev == "unknown" || rev.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn suites_shrink_in_smoke_mode() {
        let full = standard_suite(ExpArgs { smoke: false });
        let smoke = standard_suite(ExpArgs { smoke: true });
        assert!(smoke.len() < full.len());
        assert!(smoke[0].num_cells < full[0].num_cells);
        let fences = fence_suite(ExpArgs { smoke: true });
        assert_eq!(fences.len(), 2);
    }
}
