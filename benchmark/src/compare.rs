//! `compare A.json B.json`: per end-to-end metric and workload, is B
//! within the metric's bound of A, worse, or unresolved?
//!
//! With `spread` the wider of the two runs' own spreads (the metric
//! recomputed on the thirds of the run): B is *worse* when it reads worse
//! than A by more than the bound and the spread leaves no doubt (`spread
//! <= bound`, or worse by more than `bound + spread`); *unresolved* when
//! the spread is wider than the bound and B does not read better than A,
//! because a difference the runs cannot resolve is not reported as
//! "unchanged" (choosing-metrics, section 6); *within* otherwise. The
//! command exits 0 only when every verdict is `within`.

use crate::json::{self, Value};
use crate::metrics::END_TO_END;
use crate::workloads::WORKLOADS;
use std::path::Path;

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric(file: &Value, workload: &str, name: &str) -> Option<f64> {
    file.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn spread(file: &Value, workload: &str, name: &str) -> f64 {
    file.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("spread"))
        .and_then(|s| s.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Exit codes of `compare`.
pub const ALL_WITHIN: u8 = 0;
pub const SOME_WORSE: u8 = 1;
pub const SOME_UNRESOLVED: u8 = 3;

/// Prints one verdict per metric and workload. Returns [`SOME_WORSE`] if
/// any is `worse` or a run failed its correctness gate, else
/// [`SOME_UNRESOLVED`] if any is `unresolved`, else [`ALL_WITHIN`].
pub fn compare(a_path: &Path, b_path: &Path) -> Result<u8, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut code = ALL_WITHIN;
    println!(
        "{:<14} {:<16} {:>14} {:>14} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "spread"
    );
    for (workload, _) in WORKLOADS {
        for file in [&a, &b] {
            let correct = file
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|e| e.get("correct"));
            if correct != Some(&Value::Bool(true)) {
                println!("{workload:<14} a run is missing or failed its correctness gate");
                code = SOME_WORSE;
            }
        }
        for def in &END_TO_END {
            let (Some(va), Some(vb)) = (
                metric(&a, workload, def.name),
                metric(&b, workload, def.name),
            ) else {
                continue;
            };
            // Positive = B is worse than A, as a share of A.
            let worse_by = if def.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let noise = spread(&a, workload, def.name).max(spread(&b, workload, def.name));
            let resolved = noise <= def.bound;
            let verdict = if worse_by > def.bound && (resolved || worse_by > def.bound + noise) {
                code = SOME_WORSE;
                "worse"
            } else if !resolved && worse_by > 0.0 {
                if code == ALL_WITHIN {
                    code = SOME_UNRESOLVED;
                }
                "unresolved"
            } else {
                "within"
            };
            println!(
                "{workload:<14} {:<16} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.1}% {:>6.1}%  {verdict}",
                def.name,
                worse_by * 100.0,
                def.bound * 100.0,
                noise * 100.0
            );
        }
    }
    Ok(code)
}
