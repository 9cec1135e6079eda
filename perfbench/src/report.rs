//! Result assembly: the metric names and units come from `BENCHMARK.json`
//! (the one list of what the benchmark reports), and the result is one
//! JSON line on standard output.

use gent_serve::Json;
use std::collections::BTreeMap;

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What one run found.
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    pub values: Values,
}

impl Outcome {
    /// The run is correct when it attempted something and nothing failed.
    /// Both the printed `correct` and the exit code come from here.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// `(name, unit)` of every metric of one kind (`end_to_end` or
/// `per_layer`) listed in `BENCHMARK.json`.
pub fn listed_metrics(kind: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(kind)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{kind}` list"))?;
    list.iter()
        .map(|m| {
            match (m.get("name").and_then(Json::as_str), m.get("unit").and_then(Json::as_str)) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: a `{kind}` entry lacks a name or unit")),
            }
        })
        .collect()
}

/// Render the result line: every listed metric, no other. A listed metric
/// the run did not measure (or a measured one the list lacks) is a bug in
/// the benchmark, reported as an error rather than a partial result.
pub fn render(outcome: &Outcome, listed: &[(String, String)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(listed.len());
    for (name, unit) in listed {
        let v = *outcome
            .values
            .get(name.as_str())
            .ok_or_else(|| format!("metric `{name}` is listed but was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric `{name}` is not a finite number: {v}"));
        }
        metrics.push((
            name.clone(),
            Json::Object(vec![("value".into(), Json::Float(v)), ("unit".into(), Json::str(unit))]),
        ));
    }
    if let Some(extra) = outcome.values.keys().find(|k| !listed.iter().any(|(n, _)| n == *k)) {
        return Err(format!("metric `{extra}` was measured but BENCHMARK.json does not list it"));
    }
    Ok(Json::Object(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::Int(outcome.attempted as i64)),
        ("failed".into(), Json::Int(outcome.failed as i64)),
        ("metrics".into(), Json::Object(metrics)),
    ])
    .render())
}

/// Per-layer metrics of a layer the workload does not run read 0.
pub fn zero_fill(values: &mut Values, names: &[&'static str]) {
    for name in names {
        values.entry(name).or_insert(0.0);
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of unsorted samples. NaN when
/// there are none, which `render` refuses, so a run that measured nothing
/// fails instead of reporting 0.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// This process's peak resident set (`VmHWM`), in MB; NaN when it cannot
/// be read.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
