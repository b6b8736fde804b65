//! What one workload run hands back, and how it is printed.

use crate::spec::{MetricDecl, Spec};
use crate::stats::Summary;
use crate::sys;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// One measured value: a median over `n` windows, passes or samples with
/// their inter-quartile range, or a plain number (`n == 1`).
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub iqr: f64,
    pub n: usize,
}

/// Result of one workload run.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: lookups, reloads, verified rows, checked ranks.
    pub attempted: u64,
    /// Of those, the failed, refused, timed-out or bit-mismatching ones.
    pub failed: u64,
    /// Validity asserts that did not hold; any entry fails the run.
    pub violations: Vec<String>,
    /// Metrics by the names `BENCHMARK.json` declares.
    pub metrics: BTreeMap<String, Measured>,
    /// Values printed and stored beside the metrics but never gated.
    pub extras: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_measured(
            name,
            Measured {
                value,
                iqr: 0.0,
                n: 1,
            },
        );
    }

    pub fn set_summary(&mut self, name: &str, s: Summary) {
        self.set_measured(
            name,
            Measured {
                value: s.median,
                iqr: s.iqr,
                n: s.n,
            },
        );
    }

    /// A statistic of `n` pooled samples (a latency percentile).
    pub fn set_counted(&mut self, name: &str, value: f64, n: usize) {
        self.set_measured(name, Measured { value, iqr: 0.0, n });
    }

    fn set_measured(&mut self, name: &str, m: Measured) {
        self.metrics.insert(name.to_string(), m);
    }

    pub fn extra(&mut self, name: &str, value: Value) {
        self.extras.push((name.to_string(), value));
    }

    /// Count one output check; a failed one also counts as a failed
    /// operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// A workload-validity assert: the run fails when `ok` is false.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).map_or(0.0, |m| m.value)
    }
}

/// Print the run: a table on stderr, the full record to
/// `benchmark/out/<workload>[.trace].json`, and the driver's one-line JSON
/// object as the last line of stdout. Returns the process exit code.
pub fn emit(
    spec: &Spec,
    workload: &str,
    seed: u64,
    trace: bool,
    env: Value,
    mut out: Outcome,
) -> i32 {
    let decls: &[MetricDecl] = if trace {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for d in decls {
        if !out.metrics.contains_key(&d.name) {
            // An end-to-end metric is owed by every workload; a layer the
            // workload does not exercise did no work and reads 0.
            out.require(trace, || {
                format!("end-to-end metric {} was not measured", d.name)
            });
            out.set(&d.name, 0.0);
        }
    }
    let not_numbers: Vec<String> = out
        .metrics
        .iter()
        .filter(|(_, m)| !m.value.is_finite())
        .map(|(k, _)| k.clone())
        .collect();
    for name in not_numbers {
        out.violations
            .push(format!("metric {name} is not a finite number"));
        out.set(&name, 0.0);
    }
    let undeclared: Vec<String> = out
        .metrics
        .keys()
        .filter(|k| !decls.iter().any(|d| &d.name == *k))
        .cloned()
        .collect();
    for name in &undeclared {
        out.violations.push(format!(
            "measured metric {name} is not declared in BENCHMARK.json"
        ));
    }
    let correct = out.failed == 0 && out.violations.is_empty();

    eprintln!(
        "== {workload} (seed {seed}, {}) ==",
        if trace { "traced" } else { "untraced" }
    );
    let mut metrics_json = Vec::new();
    let mut record_json = Vec::new();
    for d in decls {
        let m = out.metrics[&d.name];
        if m.n > 1 {
            eprintln!(
                "  {:<40} {:>16.6} {:<10} (IQR {:.6}, n {})",
                d.name, m.value, d.unit, m.iqr, m.n
            );
        } else {
            eprintln!("  {:<40} {:>16.6} {}", d.name, m.value, d.unit);
        }
        metrics_json.push((d.name.clone(), json!({ "value": m.value, "unit": d.unit })));
        record_json.push((
            d.name.clone(),
            json!({ "value": m.value, "unit": d.unit, "iqr": m.iqr, "n": m.n }),
        ));
    }
    for (k, v) in &out.extras {
        eprintln!("  {k:<40} {}", serde_json::to_string(v).unwrap_or_default());
    }
    eprintln!("  attempted {}, failed {}", out.attempted, out.failed);
    for v in &out.violations {
        eprintln!("  FAILED: {v}");
    }

    let record = json!({
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "violations": out.violations,
        "metrics": Value::Object(record_json),
        "extras": Value::Object(out.extras),
        "env": env,
    });
    let suffix = if trace { ".trace.json" } else { ".json" };
    let path = Path::new(sys::OUT_DIR).join(format!("{workload}{suffix}"));
    if let Err(e) = std::fs::write(
        &path,
        serde_json::to_string_pretty(&record).unwrap_or_default(),
    ) {
        eprintln!("cannot write {}: {e}", path.display());
        return 2;
    }

    let line = json!({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": Value::Object(metrics_json),
    });
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    i32::from(!correct)
}
