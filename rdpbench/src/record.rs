//! One run's results: header settings, metrics, operation counts, and the
//! two forms they are written in (the one-line summary and the run file).

use crate::json::{number, quote, Json};
use crate::spec::Spec;
use std::fmt::Write as _;

/// A header value.
#[derive(Debug, Clone, PartialEq)]
pub enum Setting {
    Str(String),
    Num(f64),
    Bool(bool),
}

impl From<&str> for Setting {
    fn from(s: &str) -> Self {
        Setting::Str(s.to_string())
    }
}
impl From<String> for Setting {
    fn from(s: String) -> Self {
        Setting::Str(s)
    }
}
impl From<usize> for Setting {
    fn from(v: usize) -> Self {
        Setting::Num(v as f64)
    }
}
impl From<u64> for Setting {
    fn from(v: u64) -> Self {
        Setting::Num(v as f64)
    }
}
impl From<f64> for Setting {
    fn from(v: f64) -> Self {
        Setting::Num(v)
    }
}
impl From<bool> for Setting {
    fn from(v: bool) -> Self {
        Setting::Bool(v)
    }
}

impl Setting {
    fn to_json(&self) -> String {
        match self {
            Setting::Str(s) => quote(s),
            Setting::Num(v) => number(*v),
            Setting::Bool(b) => b.to_string(),
        }
    }
}

/// Header keys that identify a run rather than its settings; `--compare`
/// ignores them when it checks that two run sets are comparable.
pub const RUN_IDENTITY: [&str; 6] = [
    "git_revision",
    "seed",
    "input_fingerprint",
    "result_fingerprint",
    "started_unix_ms",
    "pid",
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Run {
    pub header: Vec<(String, Setting)>,
    pub metrics: Vec<(String, f64)>,
    pub attempted: u64,
    pub failures: Vec<String>,
    failed_ops: u64,
}

impl Run {
    /// Records a header setting (replacing an earlier value).
    pub fn setting(&mut self, key: &str, value: impl Into<Setting>) {
        let value = value.into();
        match self.header.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => slot.1 = value,
            None => self.header.push((key.to_string(), value)),
        }
    }

    /// Records a metric value.
    pub fn metric(&mut self, name: &str, value: f64) {
        assert!(
            !self.metrics.iter().any(|(n, _)| n == name),
            "metric `{name}` recorded twice"
        );
        self.metrics.push((name.to_string(), value));
    }

    /// Counts one attempted operation; it failed when `problems` is not
    /// empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed_ops += 1;
            self.failures.extend(problems);
        }
    }

    /// Records a problem found outside any one operation (a check across
    /// operations, or a harness error); it counts as one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.op(vec![problem]);
    }

    pub fn failed(&self) -> u64 {
        self.failed_ops
    }

    /// Checks the metrics against the declared list for this mode: every
    /// declared metric present and finite, nothing undeclared. A mismatch
    /// is a failure of the run.
    pub fn validate(&mut self, spec: &Spec, trace: bool) {
        let declared = spec.metrics(trace);
        let mut problems = Vec::new();
        for def in declared {
            match self.metrics.iter().find(|(n, _)| *n == def.name) {
                None => problems.push(format!("metric `{}` was not measured", def.name)),
                Some((_, v)) if !v.is_finite() => {
                    problems.push(format!("metric `{}` is not finite ({v})", def.name))
                }
                Some(_) => {}
            }
        }
        for (name, _) in &self.metrics {
            if !declared.iter().any(|d| d.name == *name) {
                problems.push(format!("metric `{name}` is not declared in BENCHMARK.json"));
            }
        }
        if !problems.is_empty() {
            self.op(problems);
        }
    }

    /// The summary object printed as the last line of standard output.
    pub fn summary_line(&self, spec: &Spec, trace: bool) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed_ops == 0,
            self.attempted.max(1),
            self.failed_ops
        );
        let mut first = true;
        for def in spec.metrics(trace) {
            if let Some((_, v)) = self.metrics.iter().find(|(n, _)| *n == def.name) {
                if v.is_finite() {
                    let sep = if first { "" } else { ", " };
                    first = false;
                    let _ = write!(
                        s,
                        "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                        quote(&def.name),
                        number(*v),
                        quote(&def.unit)
                    );
                }
            }
        }
        s.push_str("}}");
        s
    }

    /// The run file: header, counts, failures and every metric.
    pub fn to_json(&self, spec: &Spec) -> String {
        let mut s = String::from("{\n  \"header\": {\n");
        for (i, (k, v)) in self.header.iter().enumerate() {
            let sep = if i + 1 < self.header.len() { "," } else { "" };
            let _ = writeln!(s, "    {}: {}{sep}", quote(k), v.to_json());
        }
        let _ = writeln!(s, "  }},");
        let _ = writeln!(s, "  \"correct\": {},", self.failed_ops == 0);
        let _ = writeln!(s, "  \"attempted\": {},", self.attempted);
        let _ = writeln!(s, "  \"failed\": {},", self.failed_ops);
        let failures: Vec<String> = self.failures.iter().map(|f| quote(f)).collect();
        let _ = writeln!(s, "  \"failures\": [{}],", failures.join(", "));
        s.push_str("  \"metrics\": {\n");
        let finite: Vec<&(String, f64)> =
            self.metrics.iter().filter(|(_, v)| v.is_finite()).collect();
        for (i, (name, v)) in finite.iter().enumerate() {
            let unit = spec.find(name).map_or("", |d| d.unit.as_str());
            let sep = if i + 1 < finite.len() { "," } else { "" };
            let _ = writeln!(
                s,
                "    {}: {{\"value\": {}, \"unit\": {}}}{sep}",
                quote(name),
                number(*v),
                quote(unit)
            );
        }
        s.push_str("  }\n}\n");
        s
    }
}

/// A run file read back by `--compare`.
#[derive(Debug, Clone)]
pub struct RunFile {
    pub path: String,
    pub header: Json,
    pub metrics: Vec<(String, f64)>,
}

impl RunFile {
    /// Parses a run file written by [`Run::to_json`].
    pub fn parse(path: &str, text: &str) -> Result<RunFile, String> {
        let doc = Json::parse(text).map_err(|e| format!("{path}: {e}"))?;
        let header = doc
            .get("header")
            .cloned()
            .ok_or(format!("{path}: no header"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or(format!("{path}: no metrics"))?
            .iter()
            .map(|(k, v)| {
                v.get("value")
                    .and_then(Json::as_f64)
                    .map(|x| (k.clone(), x))
                    .ok_or(format!("{path}: metric `{k}` has no value"))
            })
            .collect::<Result<_, _>>()?;
        Ok(RunFile {
            path: path.to_string(),
            header,
            metrics,
        })
    }

    pub fn header_str(&self, key: &str) -> Option<String> {
        match self.header.get(key)? {
            Json::Str(s) => Some(s.clone()),
            Json::Num(v) => Some(number(*v)),
            Json::Bool(b) => Some(b.to_string()),
            _ => None,
        }
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}
