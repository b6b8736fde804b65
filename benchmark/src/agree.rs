//! `benchmark agree A.json B.json`: is result set B no worse than
//! reference set A by more than the bounds `BENCHMARK.json` declares?

use crate::spec::Spec;
use serde_json::Value;

/// One end-to-end metric × workload pairing present in both sets.
#[derive(Debug, Clone, PartialEq)]
pub struct Pairing {
    pub workload: String,
    pub metric: String,
    pub reference: f64,
    pub candidate: f64,
    /// Share of the reference by which the candidate is worse (negative
    /// when it is better).
    pub worse_by: f64,
    pub bound: f64,
}

impl Pairing {
    pub fn outside(&self) -> bool {
        self.worse_by > self.bound
    }
}

fn metric_value(set: &Value, workload: &str, metric: &str) -> Option<f64> {
    set.get("results")?
        .get(workload)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Every bounded metric × workload both sets hold. A pairing missing from
/// either set, or a workload that was not correct, is reported in `Err`.
pub fn compare(spec: &Spec, reference: &Value, candidate: &Value) -> Result<Vec<Pairing>, String> {
    let mut pairings = Vec::new();
    for workload in &spec.workloads {
        for (label, set) in [("reference", reference), ("candidate", candidate)] {
            let correct = set
                .get("results")
                .and_then(|r| r.get(workload))
                .and_then(|w| w.get("correct"))
                .and_then(Value::as_bool);
            if correct != Some(true) {
                return Err(format!("{label} set has no correct result for {workload}"));
            }
        }
        for decl in &spec.end_to_end {
            let Some(bound) = decl.bound else { continue };
            let get = |set: &Value, label: &str| {
                metric_value(set, workload, &decl.name)
                    .filter(|v| *v > 0.0)
                    .ok_or_else(|| format!("{label} set lacks {} on {workload}", decl.name))
            };
            let (a, b) = (get(reference, "reference")?, get(candidate, "candidate")?);
            let worse_by = if decl.higher_is_better {
                (a - b) / a
            } else {
                (b - a) / a
            };
            pairings.push(Pairing {
                workload: workload.clone(),
                metric: decl.name.clone(),
                reference: a,
                candidate: b,
                worse_by,
                bound,
            });
        }
    }
    Ok(pairings)
}

/// Print every pairing and return the exit code: 1 if any is outside its
/// bound (each named), 2 if the sets cannot be compared.
pub fn run(spec: &Spec, reference_path: &str, candidate_path: &str) -> i32 {
    let load = |path: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
    };
    let pairings = load(reference_path)
        .and_then(|a| load(candidate_path).map(|b| (a, b)))
        .and_then(|(a, b)| compare(spec, &a, &b));
    let pairings = match pairings {
        Ok(p) => p,
        Err(e) => {
            eprintln!("agree: {e}");
            return 2;
        }
    };
    println!("| workload | metric | reference | candidate | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    for p in &pairings {
        println!(
            "| {} | {} | {:.6} | {:.6} | {:+.2}% | {:.0}% | {} |",
            p.workload,
            p.metric,
            p.reference,
            p.candidate,
            p.worse_by * 100.0,
            p.bound * 100.0,
            if p.outside() { "OUTSIDE" } else { "ok" }
        );
    }
    let outside: Vec<&Pairing> = pairings.iter().filter(|p| p.outside()).collect();
    for p in &outside {
        eprintln!(
            "agree: {} on {} is worse by {:.2}% (bound {:.0}%)",
            p.metric,
            p.workload,
            p.worse_by * 100.0,
            p.bound * 100.0
        );
    }
    i32::from(!outside.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"{
        "run_seconds": 10,
        "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
        "end_to_end": [
            {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.05},
            {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10}
        ],
        "per_layer": [{"name": "x.count", "unit": "count", "better": "higher"}]
    }"#;

    fn set(w1: (f64, f64), w2: (f64, f64)) -> Value {
        let text = format!(
            r#"{{"results": {{
                "w1": {{"correct": true, "metrics": {{"work_per_s": {{"value": {}}}, "op_p50_ms": {{"value": {}}}}}}},
                "w2": {{"correct": true, "metrics": {{"work_per_s": {{"value": {}}}, "op_p50_ms": {{"value": {}}}}}}}
            }}}}"#,
            w1.0, w1.1, w2.0, w2.1
        );
        serde_json::from_str(&text).unwrap()
    }

    #[test]
    fn identical_sets_agree() {
        let spec = Spec::parse(SPEC).unwrap();
        let a = set((1000.0, 2.0), (50.0, 10.0));
        let p = compare(&spec, &a, &a).unwrap();
        assert_eq!(p.len(), 4);
        assert!(p.iter().all(|p| p.worse_by == 0.0 && !p.outside()));
    }

    #[test]
    fn direction_follows_the_metric() {
        let spec = Spec::parse(SPEC).unwrap();
        let a = set((1000.0, 2.0), (50.0, 10.0));
        // w1: throughput −4% (inside 5%), latency +15% (outside 10%);
        // w2: throughput +20% and latency −30% are improvements.
        let b = set((960.0, 2.3), (60.0, 7.0));
        let p = compare(&spec, &a, &b).unwrap();
        let outside: Vec<(&str, &str)> = p
            .iter()
            .filter(|p| p.outside())
            .map(|p| (p.workload.as_str(), p.metric.as_str()))
            .collect();
        assert_eq!(outside, vec![("w1", "op_p50_ms")]);
        let w1_rate = &p[0];
        assert!((w1_rate.worse_by - 0.04).abs() < 1e-12);
        assert!(p[2].worse_by < 0.0 && p[3].worse_by < 0.0);
    }

    #[test]
    fn a_regression_past_the_bound_is_named() {
        let spec = Spec::parse(SPEC).unwrap();
        let a = set((1000.0, 2.0), (50.0, 10.0));
        let b = set((1000.0, 2.0), (47.0, 10.0));
        let p = compare(&spec, &a, &b).unwrap();
        let bad: Vec<&Pairing> = p.iter().filter(|p| p.outside()).collect();
        assert_eq!(bad.len(), 1);
        assert_eq!(
            (bad[0].workload.as_str(), bad[0].metric.as_str()),
            ("w2", "work_per_s")
        );
    }

    #[test]
    fn missing_or_incorrect_results_cannot_be_compared() {
        let spec = Spec::parse(SPEC).unwrap();
        let a = set((1000.0, 2.0), (50.0, 10.0));
        let empty: Value = serde_json::from_str(r#"{"results": {}}"#).unwrap();
        assert!(compare(&spec, &a, &empty).is_err());
        let wrong: Value = serde_json::from_str(
            r#"{"results": {"w1": {"correct": false, "metrics": {}}, "w2": {"correct": true, "metrics": {}}}}"#,
        )
        .unwrap();
        assert!(compare(&spec, &a, &wrong).is_err());
        // A zero reading is a metric that was not measured.
        let zero = set((0.0, 2.0), (50.0, 10.0));
        assert!(compare(&spec, &a, &zero).is_err());
    }
}
