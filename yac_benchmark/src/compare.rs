//! `yac_benchmark compare A.json... -- B.json...`: decides, per metric
//! and workload, whether the B runs are better than, no worse than, or
//! regressed from the A runs, with the directions and bounds in
//! `BENCHMARK.json` (read from the current directory).
//!
//! The rule: B is *better* when it wins at least nine tenths of the
//! pairs `(A[i], B[i])`, ties counting for neither, and the medians differ
//! by more than A's interquartile range. Otherwise, when either side's
//! interquartile range exceeds the metric's bound (as a share of its
//! median) the result is *unresolved* — unless every B run beats every A
//! run — and else B is *regressed* when its median is worse than A's by
//! more than the bound, *no worse* when not. Metrics without a bound
//! (per-layer ones) are only ever reported as better.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// The outcome for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B wins the pairs and the medians differ beyond A's spread.
    Better,
    /// B's median is within the bound of A's.
    NoWorse,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
    /// No bound to judge a regression by, and no gain.
    NoClaim,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
            Verdict::NoClaim => "-",
        }
    }
}

/// Applies the rule in the module docs to runs `a` (parent) and `b`
/// (change) of one metric.
#[must_use]
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: Option<f64>) -> Verdict {
    let beats = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let pairs = a.len().min(b.len());
    let wins = a.iter().zip(b).filter(|(&x, &y)| beats(y, x)).count();
    if wins * 10 >= pairs * 9 && beats(bm, am) && (bm - am).abs() > a3 - a1 {
        return Verdict::Better;
    }
    let Some(bound) = bound else {
        return Verdict::NoClaim;
    };
    let spread = ((a3 - a1) / am.abs()).max((b3 - b1) / bm.abs());
    if spread > bound {
        let every = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
        return if every {
            Verdict::NoWorse
        } else {
            Verdict::Unresolved
        };
    }
    let worse = if lower_is_better { bm - am } else { am - bm } / am.abs();
    if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::NoWorse
    }
}

struct MetricSpec {
    name: String,
    lower_is_better: bool,
    bound: Option<f64>,
}

fn load_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn load_spec(path: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = load_json(path)?;
    let mut specs = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        let list = doc
            .get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{path}: no {key} list"))?;
        for m in list {
            let field = |k: &str| m.get(k).and_then(Json::as_str);
            let name =
                field("name").ok_or_else(|| format!("{path}: {key} entry without a name"))?;
            specs.push(MetricSpec {
                name: name.to_owned(),
                lower_is_better: field("better") == Some("lower"),
                bound: m.get("bound").and_then(Json::as_f64),
            });
        }
    }
    Ok(specs)
}

/// Values per (metric, workload) over one side's result files.
fn load_side(files: &[String]) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut side: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for path in files {
        let doc = load_json(path)?;
        if doc.get("correct") != Some(&Json::Bool(true)) {
            return Err(format!("{path}: the run failed its checks"));
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: no workload (was it written with --out?)"))?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("{path}: no metrics"))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{path}: {name} has no value"))?;
            side.entry((name.clone(), workload.to_owned()))
                .or_default()
                .push(value);
        }
    }
    Ok(side)
}

/// Runs `compare` over `args` (`A.json... -- B.json...`) and returns
/// the report.
///
/// # Errors
///
/// On malformed arguments, unreadable or failed result files, or an
/// unreadable `BENCHMARK.json`.
pub fn run(args: &[String]) -> Result<String, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("expected A.json... -- B.json...")?;
    let (a_files, b_files) = (&args[..split], &args[split + 1..]);
    if a_files.is_empty() || b_files.is_empty() {
        return Err("each side needs at least one result file".into());
    }
    let specs = load_spec("BENCHMARK.json")?;
    let (a, b) = (load_side(a_files)?, load_side(b_files)?);
    let workloads: BTreeSet<&String> = a.keys().map(|(_, w)| w).collect();
    let cell = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        format!("{m:.6} [{q1:.6}, {q3:.6}] ({})", v.len())
    };
    let mut report = format!(
        "{:<32} {:<12} {:>40} {:>40}  verdict\n",
        "metric", "workload", "A median [q1, q3] (n)", "B median [q1, q3] (n)"
    );
    for spec in &specs {
        for workload in &workloads {
            let key = (spec.name.clone(), (*workload).clone());
            if let (Some(av), Some(bv)) = (a.get(&key), b.get(&key)) {
                let v = verdict(av, bv, spec.lower_is_better, spec.bound);
                let _ = writeln!(
                    report,
                    "{:<32} {:<12} {:>40} {:>40}  {}",
                    spec.name,
                    workload,
                    cell(av),
                    cell(bv),
                    v.label()
                );
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: [f64; 10] = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];

    #[test]
    fn clear_gains_are_better() {
        let b: Vec<f64> = A.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&A, &b, true, Some(0.1)), Verdict::Better);
        assert_eq!(verdict(&A, &b, true, None), Verdict::Better);
        // Higher-is-better metrics read the other way.
        assert_eq!(verdict(&A, &b, false, Some(0.1)), Verdict::Regressed);
    }

    #[test]
    fn small_changes_are_no_worse_and_large_ones_regress() {
        let b: Vec<f64> = A.iter().map(|x| x * 1.05).collect();
        assert_eq!(verdict(&A, &b, true, Some(0.1)), Verdict::NoWorse);
        let b: Vec<f64> = A.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&A, &b, true, Some(0.1)), Verdict::Regressed);
        assert_eq!(verdict(&A, &A, true, Some(0.1)), Verdict::NoWorse);
        assert_eq!(verdict(&A, &A, true, None), Verdict::NoClaim);
    }

    #[test]
    fn wide_spreads_are_unresolved() {
        let noisy = [5.0, 15.0, 6.0, 14.0, 10.0, 4.0, 16.0, 10.0, 7.0, 13.0];
        assert_eq!(verdict(&A, &noisy, true, Some(0.1)), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let parent = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 30.0, 30.0, 30.0, 30.0];
        let change = [9.0; 10];
        assert_eq!(verdict(&parent, &change, true, Some(0.1)), Verdict::NoWorse);
    }

    #[test]
    fn nine_of_ten_pairs_suffice_for_a_gain() {
        let faster = [1.0, 3.0, 1.5, 2.5, 2.0, 1.2, 2.8, 2.2, 1.8, 30.0];
        let slower: Vec<f64> = [1.0, 3.0, 1.5, 2.5, 2.0, 1.2, 2.8, 2.2, 1.8, 2.6]
            .iter()
            .map(|x| x + 10.0)
            .collect();
        assert_eq!(verdict(&slower, &faster, true, Some(0.1)), Verdict::Better);
        let eight_of_ten = [1.0, 3.0, 1.5, 2.5, 2.0, 1.2, 2.8, 2.2, 30.0, 30.0];
        assert_ne!(
            verdict(&slower, &eight_of_ten, true, Some(0.1)),
            Verdict::Better
        );
    }
}
