//! Integration tests for the `rdp` command-line tool, driving the real
//! binary end-to-end: generate → stats → place → check → score → route.

use std::path::PathBuf;
use std::process::Command;

fn rdp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rdp"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rdp_cli_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_cli_flow() {
    let dir = tmp("flow");
    let bench = dir.join("bench");
    let sol = dir.join("sol");

    let out = rdp()
        .args(["generate", "--preset", "tiny", "--name", "cli", "--seed", "7", "--out"])
        .arg(&bench)
        .output()
        .unwrap();
    assert!(out.status.success(), "generate failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(bench.join("cli.aux").exists());

    let aux = bench.join("cli.aux");
    let out = rdp().args(["stats", "--aux"]).arg(&aux).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cells"), "stats output: {stdout}");

    let out = rdp()
        .args(["place", "--aux"])
        .arg(&aux)
        .args(["--out"])
        .arg(&sol)
        .arg("--fast")
        .output()
        .unwrap();
    assert!(out.status.success(), "place failed: {}", String::from_utf8_lossy(&out.stderr));
    let sol_aux = sol.join("cli.aux");
    assert!(sol_aux.exists());

    let out = rdp().args(["check", "--aux"]).arg(&sol_aux).output().unwrap();
    assert!(out.status.success(), "check failed: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("legal"));

    let out = rdp().args(["score", "--aux"]).arg(&sol_aux).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("RC") && stdout.contains("scaled HPWL"), "score output: {stdout}");

    let out = rdp().args(["route", "--aux"]).arg(&sol_aux).arg("--map").output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("routed") && stdout.contains("legend"), "route output: {stdout}");
}

#[test]
fn score_accepts_pl_override() {
    let dir = tmp("plov");
    let bench = dir.join("bench");
    rdp()
        .args(["generate", "--preset", "tiny", "--name", "ov", "--seed", "9", "--out"])
        .arg(&bench)
        .output()
        .unwrap();
    // Score with the benchmark's own .pl passed explicitly.
    let out = rdp()
        .args(["score", "--aux"])
        .arg(bench.join("ov.aux"))
        .args(["--pl"])
        .arg(bench.join("ov.pl"))
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn unknown_command_exits_with_usage() {
    let out = rdp().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn missing_required_flag_is_an_error() {
    let out = rdp().args(["place", "--aux", "/nonexistent.aux"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --out"));
}

#[test]
fn serve_runs_a_demo_batch_to_done() {
    let dir = tmp("serve");
    let spool = dir.join("spool");
    let out = rdp()
        .args(["serve", "--demo", "2", "--workers", "2", "--preset", "tiny", "--spool"])
        .arg(&spool)
        .output()
        .unwrap();
    assert!(out.status.success(), "serve failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("job-000001") && stdout.contains("job-000002"), "table: {stdout}");
    assert!(stdout.matches("done").count() >= 2, "table: {stdout}");
    // All jobs terminal and clean: the spool must be empty.
    let residue = std::fs::read_dir(&spool).map(|d| d.count()).unwrap_or(0);
    assert_eq!(residue, 0, "spool should hold no unfinished jobs");
}

#[test]
fn serve_reports_failed_jobs_with_nonzero_exit() {
    // A zero deadline expires before any attempt starts.
    let out = rdp()
        .args(["serve", "--demo", "1", "--deadline", "0"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "expired deadline must fail the batch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("failed"), "table: {stdout}");
    assert!(stdout.contains("deadline"), "table: {stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 job(s) failed"));
}

/// Runs `rdp` and asserts a clean usage error (exit code 1, not a panic)
/// whose message names `flag`.
fn assert_bad_flag(args: &[&str], flag: &str) {
    let out = rdp().args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?} must fail cleanly, stderr: {stderr}");
    assert!(stderr.contains(&format!("bad --{flag}")), "stderr: {stderr}");
}

#[test]
fn serve_rejects_out_of_range_seconds() {
    for flag in ["budget", "deadline"] {
        for value in ["1e300", "-1", "NaN"] {
            assert_bad_flag(&["serve", "--demo", "1", &format!("--{flag}"), value], flag);
        }
    }
}

#[test]
fn place_rejects_out_of_range_budget() {
    let dir = tmp("budget");
    let bench = dir.join("bench");
    let out = rdp()
        .args(["generate", "--preset", "tiny", "--name", "b", "--seed", "3", "--out"])
        .arg(&bench)
        .output()
        .unwrap();
    assert!(out.status.success());
    let aux = bench.join("b.aux");
    let sol = dir.join("sol");
    let (aux, sol) = (aux.to_str().unwrap(), sol.to_str().unwrap());
    for value in ["1e300", "-1", "NaN"] {
        assert_bad_flag(&["place", "--aux", aux, "--out", sol, "--fast", "--budget", value], "budget");
    }
}

#[test]
fn place_accepts_the_estimator_flag() {
    let dir = tmp("est");
    let bench = dir.join("bench");
    rdp()
        .args(["generate", "--preset", "tiny", "--name", "es", "--seed", "21", "--out"])
        .arg(&bench)
        .output()
        .unwrap();
    let aux = bench.join("es.aux");
    let out = rdp()
        .args(["place", "--aux"])
        .arg(&aux)
        .args(["--out"])
        .arg(dir.join("sol"))
        .args(["--fast", "--estimator", "learned"])
        .output()
        .unwrap();
    assert!(out.status.success(), "place failed: {}", String::from_utf8_lossy(&out.stderr));

    // A bad tier name is rejected with the accepted spellings.
    let out = rdp()
        .args(["place", "--aux"])
        .arg(&aux)
        .args(["--out"])
        .arg(dir.join("sol2"))
        .args(["--estimator", "psychic"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad --estimator") && stderr.contains("auto"), "stderr: {stderr}");
}

#[test]
fn train_estimator_writes_a_parseable_weight_file() {
    let dir = tmp("train");
    let weights = dir.join("weights.txt");
    let out = rdp()
        .args(["train-estimator", "--designs", "2", "--preset", "tiny", "--holdout", "1", "--out"])
        .arg(&weights)
        .output()
        .unwrap();
    assert!(out.status.success(), "trainer failed: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&weights).unwrap();
    assert!(text.starts_with("rdp-estimator v1"), "header: {text}");
    assert!(text.lines().any(|l| l == "end"), "terminator: {text}");

    // --check against the compiled-in weights must fail for a training
    // run with non-default parameters (different weights), and must not
    // touch the output file.
    let before = std::fs::metadata(&weights).unwrap().modified().unwrap();
    let out = rdp()
        .args(["train-estimator", "--designs", "1", "--preset", "tiny", "--check"])
        .output()
        .unwrap();
    assert!(!out.status.success(), "non-default training must mismatch the builtin weights");
    assert!(String::from_utf8_lossy(&out.stderr).contains("differ"));
    assert_eq!(std::fs::metadata(&weights).unwrap().modified().unwrap(), before);
}

#[test]
fn check_fails_on_illegal_placement() {
    // The generated initial placement piles everything at the die center:
    // definitely illegal.
    let dir = tmp("illegal");
    let bench = dir.join("bench");
    rdp()
        .args(["generate", "--preset", "tiny", "--name", "il", "--seed", "11", "--out"])
        .arg(&bench)
        .output()
        .unwrap();
    let out = rdp().args(["check", "--aux"]).arg(bench.join("il.aux")).output().unwrap();
    assert!(!out.status.success(), "center-pile placement must fail the check");
    assert!(String::from_utf8_lossy(&out.stderr).contains("violations"));
}
