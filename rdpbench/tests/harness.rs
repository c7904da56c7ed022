//! Runs every workload of `BENCHMARK.json` at smoke scale through the
//! `bench` command, untraced twice and traced once, and checks the
//! harness's own contract: every declared metric reported and finite, the
//! stage partition summing to the traced placement time, deterministic
//! quality, and a run set compared with itself showing no regression.

use rdpbench::compare::{self, Verdict};
use rdpbench::json::Json;
use rdpbench::spec::spec;
use std::path::{Path, PathBuf};
use std::process::Command;

const QUALITY: [&str; 4] = ["hpwl", "scaled_hpwl", "rc", "routed_overflow"];

/// Runs `bench` on `workload` at smoke scale and returns its summary line.
fn bench(workload: &str, trace: bool, out: &Path) -> Json {
    let output = Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(["--workload", workload, "--scale", "smoke", "--seconds", "0"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .expect("bench runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "bench --workload {workload} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let last = stdout.lines().last().expect("bench prints a summary");
    let summary = Json::parse(last).expect("the summary line is JSON");
    assert_eq!(summary.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(summary.get("failed").and_then(Json::as_f64), Some(0.0));
    assert!(summary.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    summary
}

/// The summary's metric values, checked against the declared list.
fn metrics(summary: &Json, trace: bool) -> Vec<(String, f64)> {
    let reported = summary
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    let declared = spec().metrics(trace);
    assert_eq!(
        reported.len(),
        declared.len(),
        "reported {:?}",
        reported.keys()
    );
    declared
        .iter()
        .map(|def| {
            let m = reported
                .get(&def.name)
                .unwrap_or_else(|| panic!("`{}` missing", def.name));
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(def.unit.as_str())
            );
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(v.is_finite(), "`{}` = {v}", def.name);
            (def.name.clone(), v)
        })
        .collect()
}

fn out_dir(workload: &str, which: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("harness")
        .join(workload)
        .join(which);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create output dir");
    dir
}

fn check_workload(workload: &str) {
    let first_dir = out_dir(workload, "first");
    let first = metrics(&bench(workload, false, &first_dir), false);
    let second = metrics(&bench(workload, false, &out_dir(workload, "second")), false);
    for name in QUALITY {
        let value = |m: &[(String, f64)]| m.iter().find(|(n, _)| n == name).expect("declared").1;
        assert_eq!(
            value(&first).to_bits(),
            value(&second).to_bits(),
            "{workload}: `{name}` differs between two runs of one seed"
        );
    }

    let traced = metrics(&bench(workload, true, &out_dir(workload, "trace")), true);
    let value = |name: &str| traced.iter().find(|(n, _)| n == name).expect("declared").1;
    let partition: f64 = ["global_place", "routability", "legalize", "detailed"]
        .iter()
        .map(|s| value(&format!("stage.{s}_s")))
        .sum();
    let place = value("trace.place_s");
    assert!(
        (partition - place).abs() <= 0.02 * place,
        "{workload}: stages sum to {partition}, traced placement took {place}"
    );

    let runs = compare::load_dir(&first_dir).expect("run files");
    let rows = compare::compare(spec(), runs.clone(), runs).expect("comparable");
    assert!(
        rows.iter().all(|r| r.verdict != Verdict::Regressed),
        "{}",
        compare::render(&rows)
    );
    assert!(rows.iter().any(|r| r.verdict == Verdict::NoWorse));
}

#[test]
fn paper_fenced() {
    check_workload("paper_fenced");
}

#[test]
fn electro_ladder() {
    check_workload("electro_ladder");
}

#[test]
fn route_congested() {
    check_workload("route_congested");
}

#[test]
fn serve_mix() {
    check_workload("serve_mix");
}

#[test]
fn every_declared_workload_has_a_test() {
    assert_eq!(
        spec().workloads,
        [
            "paper_fenced",
            "electro_ladder",
            "route_congested",
            "serve_mix"
        ]
    );
}
