//! `bench --compare PARENT_DIR CHANGE_DIR`: medians, quartiles and a
//! verdict per workload and metric between two sets of run files.

use crate::record::{RunFile, RUN_IDENTITY};
use crate::spec::{Better, MetricDef, Spec};
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Timing metrics of `route_congested` that depend on the routed input:
/// unresolved when the two sides routed different placements.
const INPUT_BOUND: [&str; 4] = ["route_s", "job_p50_s", "job_p90_s", "jobs_per_s"];

/// Units of wall-clock metrics. The measuring host's speed drifts over
/// minutes, so these are unresolved unless the two sides' runs were made
/// in the same period (their start times interleave).
const TIME_UNITS: [&str; 4] = ["s", "ms", "us", "1/s"];

/// The comparison of one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    NoWorse,
    Regressed,
    Unresolved,
    /// Per-layer metrics carry no bound and get no verdict.
    Info,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// Summary of one side's values.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let (q1, q3) = quartiles(values);
        Side {
            median: median(values),
            q1,
            q3,
        }
    }

    /// Interquartile distance as a share of the median.
    fn spread(&self) -> f64 {
        let width = self.q3 - self.q1;
        if width == 0.0 {
            0.0
        } else {
            width / self.median.abs()
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub traced: bool,
    pub metric: String,
    pub parent: Side,
    pub change: Side,
    pub verdict: Verdict,
}

/// Judges one metric. `bound` is the allowed worsening as a share of the
/// parent's median. A spread wider than the bound leaves the metric
/// unresolved, unless every change run reads better than every parent run.
pub fn verdict(def: &MetricDef, parent: &[f64], change: &[f64]) -> Verdict {
    let Some(bound) = def.bound else {
        return Verdict::Info;
    };
    let (p, c) = (Side::of(parent), Side::of(change));
    let better = |a: f64, b: f64| match def.better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let spread = p.spread().max(c.spread());
    if spread > bound {
        let all_better = change.iter().all(|&x| parent.iter().all(|&y| better(x, y)));
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = if p.median == 0.0 {
        if c.median == 0.0 {
            0.0
        } else if better(c.median, p.median) {
            -f64::INFINITY
        } else {
            f64::INFINITY
        }
    } else {
        match def.better {
            Better::Lower => (c.median - p.median) / p.median.abs(),
            Better::Higher => (p.median - c.median) / p.median.abs(),
        }
    };
    if worsening > bound {
        Verdict::Regressed
    } else if worsening < 0.0 && -worsening > spread {
        Verdict::Better
    } else {
        Verdict::NoWorse
    }
}

/// Reads every `*.json` run file in `dir`.
pub fn load_dir(dir: &Path) -> Result<Vec<RunFile>, String> {
    let mut files = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            files.push(RunFile::parse(&path.display().to_string(), &text)?);
        }
    }
    if files.is_empty() {
        return Err(format!("{}: no run files", dir.display()));
    }
    Ok(files)
}

/// The settings that make runs comparable: the header minus the keys that
/// identify a single run.
fn settings(run: &RunFile) -> BTreeMap<String, String> {
    run.header
        .as_object()
        .map(|m| {
            m.keys()
                .filter(|k| !RUN_IDENTITY.contains(&k.as_str()))
                .filter_map(|k| Some((k.clone(), run.header_str(k)?)))
                .collect()
        })
        .unwrap_or_default()
}

/// First and last start time (unix ms) of a run set; `None` when a run
/// records none.
fn started(runs: &[RunFile]) -> Option<(f64, f64)> {
    runs.iter()
        .try_fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), r| {
            let t = r.header.get("started_unix_ms")?.as_f64()?;
            Some((lo.min(t), hi.max(t)))
        })
}

/// Whether the two sides' runs were made in the same period: each side
/// started a run before the other side's last one.
fn interleaved(parent: &[RunFile], change: &[RunFile]) -> bool {
    match (started(parent), started(change)) {
        (Some((p0, p1)), Some((c0, c1))) => p0 <= c1 && c0 <= p1,
        _ => false,
    }
}

type Groups = BTreeMap<(String, bool), Vec<RunFile>>;

fn group(runs: Vec<RunFile>) -> Result<Groups, String> {
    let mut groups: Groups = BTreeMap::new();
    for run in runs {
        let workload = run
            .header_str("workload")
            .ok_or(format!("{}: no workload", run.path))?;
        let traced = run.header_str("trace").as_deref() == Some("true");
        groups.entry((workload, traced)).or_default().push(run);
    }
    Ok(groups)
}

/// Compares two run sets. Refuses (returns `Err`) when runs of one
/// workload differ in any setting other than revision, seed and
/// fingerprints.
pub fn compare(
    spec: &Spec,
    parent: Vec<RunFile>,
    change: Vec<RunFile>,
) -> Result<Vec<Row>, String> {
    let (parent, change) = (group(parent)?, group(change)?);
    let mut rows = Vec::new();
    for ((workload, traced), p_runs) in &parent {
        let Some(c_runs) = change.get(&(workload.clone(), *traced)) else {
            continue;
        };
        let reference = settings(&p_runs[0]);
        for run in p_runs.iter().chain(c_runs) {
            let s = settings(run);
            if s != reference {
                let differing: std::collections::BTreeSet<&String> = reference
                    .keys()
                    .chain(s.keys())
                    .filter(|k| reference.get(*k) != s.get(*k))
                    .collect();
                return Err(format!(
                    "refusing to compare `{workload}`: {} differs from {} in {differing:?}",
                    run.path, p_runs[0].path
                ));
            }
        }
        let fingerprints = |runs: &[RunFile]| -> Vec<String> {
            let mut v: Vec<String> = runs
                .iter()
                .filter_map(|r| r.header_str("input_fingerprint"))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        let inputs_differ = fingerprints(p_runs) != fingerprints(c_runs);
        let same_period = interleaved(p_runs, c_runs);
        for def in spec.metrics(*traced) {
            let values = |runs: &[RunFile]| -> Vec<f64> {
                runs.iter().filter_map(|r| r.metric(&def.name)).collect()
            };
            let (p, c) = (values(p_runs), values(c_runs));
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let mut v = verdict(def, &p, &c);
            let timing = TIME_UNITS.contains(&def.unit.as_str());
            let input_bound = inputs_differ && INPUT_BOUND.contains(&def.name.as_str());
            if v != Verdict::Info && (input_bound || (timing && !same_period)) {
                v = Verdict::Unresolved;
            }
            rows.push(Row {
                workload: workload.clone(),
                traced: *traced,
                metric: def.name.clone(),
                parent: Side::of(&p),
                change: Side::of(&c),
                verdict: v,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two run sets share no workload".into());
    }
    Ok(rows)
}

/// The comparison as a table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<6} {:<28} {:>30} {:>30} {:>9}  verdict\n",
        "workload", "mode", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change"
    );
    let side = |s: &Side| format!("{:.4e} [{:.3e}, {:.3e}]", s.median, s.q1, s.q3);
    for r in rows {
        let delta = if r.parent.median == 0.0 {
            "n/a".to_string()
        } else {
            format!("{:+.2}%", (r.change.median / r.parent.median - 1.0) * 100.0)
        };
        let _ = writeln!(
            out,
            "{:<16} {:<6} {:<28} {:>30} {:>30} {:>9}  {}",
            r.workload,
            if r.traced { "trace" } else { "e2e" },
            r.metric,
            side(&r.parent),
            side(&r.change),
            delta,
            r.verdict.label()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            better,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let d = def(Better::Lower, 0.10);
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(&d, &base, &base), Verdict::NoWorse);
        assert_eq!(
            verdict(&d, &base, &[1.20, 1.21, 1.19, 1.20, 1.22]),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&d, &base, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Better
        );
        assert_eq!(
            verdict(&d, &[1.0, 2.0, 1.0, 2.0], &[1.5, 1.6, 1.4, 1.5]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&d, &[1.0, 2.0, 1.0, 2.0], &[0.5, 0.6, 0.55, 0.5]),
            Verdict::Better
        );
        let h = def(Better::Higher, 0.10);
        assert_eq!(
            verdict(&h, &base, &[0.80, 0.81, 0.79, 0.80, 0.82]),
            Verdict::Regressed
        );
    }

    fn runs(starts: &[u64], value: f64) -> Vec<RunFile> {
        starts
            .iter()
            .map(|t| {
                let text = format!(
                    r#"{{"header": {{"workload": "w", "trace": false, "started_unix_ms": {t}}},
                        "metrics": {{"m": {{"value": {value}, "unit": "s"}},
                                     "q": {{"value": 7, "unit": "dbu"}}}}}}"#
                );
                RunFile::parse("run", &text).unwrap()
            })
            .collect()
    }

    #[test]
    fn timings_need_runs_from_the_same_period() {
        let q = MetricDef {
            name: "q".into(),
            unit: "dbu".into(),
            ..def(Better::Lower, 0.10)
        };
        let spec = Spec {
            run_seconds: 1,
            workloads: vec!["w".into()],
            end_to_end: vec![def(Better::Lower, 0.10), q],
            per_layer: Vec::new(),
        };
        let verdicts = |p: &[u64], c: &[u64]| -> Vec<Verdict> {
            compare(&spec, runs(p, 1.0), runs(c, 1.5))
                .unwrap()
                .iter()
                .map(|r| r.verdict)
                .collect()
        };
        // Alternating runs: the timing regression stands.
        assert_eq!(
            verdicts(&[0, 20, 40], &[10, 30, 50]),
            [Verdict::Regressed, Verdict::NoWorse]
        );
        // The change measured after the parent: its timing is unresolved,
        // its quality still judged.
        assert_eq!(
            verdicts(&[0, 20, 40], &[60, 80, 100]),
            [Verdict::Unresolved, Verdict::NoWorse]
        );
    }
}
