//! `benchmark compare A B`: two sets of runs, each a directory holding
//! `results.json` files (in the directory itself or one level below),
//! judged per (workload, end-to-end metric) against the bounds in
//! `BENCHMARK.json`. There is deliberately no combined score.

use std::path::{Path, PathBuf};

use pps_obs::JsonValue;

use crate::report::{MetricSpec, Spec};
use crate::stats::{median, quartiles};

fn result_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut files = Vec::new();
    let own = dir.join("results.json");
    if own.is_file() {
        files.push(own);
    }
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let nested = entry
            .map_err(|e| e.to_string())?
            .path()
            .join("results.json");
        if nested.is_file() {
            files.push(nested);
        }
    }
    files.sort();
    if files.is_empty() {
        return Err(format!("no results.json under {}", dir.display()));
    }
    Ok(files)
}

/// One set of runs: each run's results document, in path order.
fn load_set(dir: &Path) -> Result<Vec<JsonValue>, String> {
    result_files(dir)?
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
            JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
        })
        .collect()
}

fn values(set: &[JsonValue], workload: &str, metric: &str) -> Vec<f64> {
    set.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    /// The base's own runs spread wider than the bound, and the change
    /// does not beat every one of them with every run.
    Unresolved,
}

impl Verdict {
    fn label(&self) -> &'static str {
        match self {
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `a` are the base runs, `b` the changed runs.
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> Verdict {
    let bound = metric.bound.unwrap_or(0.0);
    let better = |x: f64, y: f64| {
        if metric.lower_is_better {
            x < y
        } else {
            x > y
        }
    };
    let Some((q1, q3)) = quartiles(a) else {
        return Verdict::Unresolved;
    };
    if b.is_empty() {
        return Verdict::Unresolved;
    }
    let base = median(a);
    let spread = (q3 - q1) / base.abs();
    let b_beats_all = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if spread > bound && !b_beats_all {
        return Verdict::Unresolved;
    }
    let change = (median(b) - base) / base.abs();
    let worse = if metric.lower_is_better {
        change
    } else {
        -change
    };
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::WithinBound
    }
}

/// Prints the comparison table; returns whether anything regressed.
pub fn compare(a_dir: &Path, b_dir: &Path, spec: &Spec) -> Result<bool, String> {
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    println!(
        "{} runs in {} (A) vs {} runs in {} (B); spread and quartiles are of each side's runs",
        a.len(),
        a_dir.display(),
        b.len(),
        b_dir.display()
    );
    println!(
        "{:<16} {:<18} {:>34} {:>34} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "B wins"
    );
    let mut regressed = false;
    for workload in &spec.workloads {
        for metric in &spec.end_to_end {
            let (va, vb) = (
                values(&a, workload, &metric.name),
                values(&b, workload, &metric.name),
            );
            if va.is_empty() && vb.is_empty() {
                continue;
            }
            let side = |v: &[f64]| match (v.is_empty(), quartiles(v)) {
                (true, _) => "-".to_string(),
                (false, Some((q1, q3))) => format!("{:.6} [{q1:.6}, {q3:.6}]", median(v)),
                (false, None) => format!("{:.6}", median(v)),
            };
            // Runs pair up in order; ties count for neither side.
            let pairs = va.len().min(vb.len());
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|(x, y)| if metric.lower_is_better { y < x } else { y > x })
                .count();
            let change = if va.is_empty() || vb.is_empty() {
                "-".to_string()
            } else {
                format!("{:+.2}%", (median(&vb) / median(&va) - 1.0) * 100.0)
            };
            let verdict = judge(metric, &va, &vb);
            regressed |= verdict == Verdict::Regressed;
            println!(
                "{:<16} {:<18} {:>34} {:>34} {:>9} {:>6.0}% {:>3}/{:<3}  {}",
                workload,
                metric.name,
                side(&va),
                side(&vb),
                change,
                metric.bound.unwrap_or(0.0) * 100.0,
                wins,
                pairs,
                verdict.label()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latency(bound: f64) -> MetricSpec {
        MetricSpec {
            name: "latency_p50_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts() {
        let m = latency(0.1);
        let base = [1.0, 1.01, 0.99, 1.0];
        assert_eq!(judge(&m, &base, &[1.05, 1.04, 1.06]), Verdict::WithinBound);
        assert_eq!(judge(&m, &base, &[1.2, 1.25, 1.21]), Verdict::Regressed);
        // A base that spreads wider than the bound cannot show either.
        let noisy = [0.7, 1.0, 1.3, 1.0];
        assert_eq!(judge(&m, &noisy, &[1.0, 1.1]), Verdict::Unresolved);
        // ... unless every changed run beats every base run.
        assert_eq!(judge(&m, &noisy, &[0.5, 0.6]), Verdict::WithinBound);
        let throughput = MetricSpec {
            lower_is_better: false,
            ..latency(0.1)
        };
        assert_eq!(judge(&throughput, &base, &[0.8, 0.85]), Verdict::Regressed);
        assert_eq!(judge(&m, &[1.0], &[1.0]), Verdict::Unresolved);
    }
}
