//! `ledger compare A B`: two run-record files (one JSON line per run,
//! as `--record` appends them), judged against the bounds of the
//! metric table. A is the parent (or the first set of runs), B the
//! change (or the second).

use crate::json::Value;
use crate::spec::{self, Better};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::process::ExitCode;

struct Run {
    workload: String,
    seed: u64,
    trace: bool,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = |what: &str| format!("{path}:{}: {what}", i + 1);
        let v = Value::parse(line).map_err(|e| at(&e))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| at("no metrics object"))?
            .iter()
            .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
            .collect();
        runs.push(Run {
            workload: v
                .get("workload")
                .and_then(Value::as_str)
                .ok_or_else(|| at("no workload"))?
                .to_string(),
            seed: v
                .get("seed")
                .and_then(Value::as_f64)
                .ok_or_else(|| at("no seed"))? as u64,
            trace: v.get("trace").and_then(Value::as_bool).unwrap_or(false),
            metrics,
        });
    }
    Ok(runs)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum Verdict {
    Ok,
    Worse,
    /// The run-to-run spread is wider than the bound and the two sets
    /// overlap: the data cannot say.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `b`'s median is than `a`'s, as a share of `a`'s
/// (negative when it is better), and what that means under `bound`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let noisy = [a, b].iter().any(|xs| xs.len() >= 2 && spread(xs) > bound);
    let verdict = if noisy {
        let every_b_beats_every_a = match better {
            Better::Lower => max(b) < min(a),
            Better::Higher => min(b) > max(a),
        };
        if every_b_beats_every_a {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

pub fn main(args: &[String]) -> ExitCode {
    let [a_path, b_path] = args else {
        eprintln!("usage: ledger compare A.jsonl B.jsonl");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("ledger compare: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut worse, mut unresolved, mut mismatched, mut rows) = (0, 0, 0, 0);
    println!(
        "{:<20} {:<14} {:>14} {:>14} {:>9} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "A iqr", "B iqr", "bound"
    );
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let (xa, xb) = (
                values(&a, w.name, false, m.name),
                values(&b, w.name, false, m.name),
            );
            if xa.is_empty() || xb.is_empty() {
                continue;
            }
            let (worse_by, verdict) = judge(&xa, &xb, m.better, m.bound);
            let iqr = |xs: &[f64]| {
                if xs.len() >= 2 {
                    format!("{:.1}%", 100.0 * spread(xs))
                } else {
                    "-".to_string()
                }
            };
            println!(
                "{:<20} {:<14} {:>14.6} {:>14.6} {:>8.2}% {:>7} {:>7} {:>5.0}%  {}",
                w.name,
                m.name,
                median(&xa),
                median(&xb),
                100.0 * worse_by,
                iqr(&xa),
                iqr(&xb),
                100.0 * m.bound,
                verdict.label()
            );
            rows += 1;
            worse += (verdict == Verdict::Worse) as usize;
            unresolved += (verdict == Verdict::Unresolved) as usize;
        }
    }
    // Exact counts: one commit and one seed give one value, bit for bit.
    for ra in a.iter().filter(|r| r.trace) {
        for rb in b
            .iter()
            .filter(|r| r.trace && r.workload == ra.workload && r.seed == ra.seed)
        {
            for m in spec::PER_LAYER.iter().filter(|m| m.exact) {
                let (va, vb) = (ra.metrics.get(m.name), rb.metrics.get(m.name));
                rows += 1;
                if va.map(|x| x.to_bits()) != vb.map(|x| x.to_bits()) {
                    mismatched += 1;
                    println!(
                        "{:<20} {:<40} seed {} exact count differs: {:?} vs {:?}",
                        ra.workload, m.name, ra.seed, va, vb
                    );
                }
            }
        }
    }
    println!(
        "{rows} comparison(s): {worse} worse, {unresolved} unresolved, {mismatched} exact count(s) differ"
    );
    if rows == 0 {
        eprintln!("ledger compare: the two files share no workload");
        return ExitCode::from(2);
    }
    if worse + mismatched > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        // 3% slower under a 5% bound.
        assert_eq!(
            judge(&steady, &[103.0, 103.5, 102.5, 103.0], Better::Lower, 0.05).1,
            Verdict::Ok
        );
        // 10% slower.
        let (by, v) = judge(&steady, &[110.0, 110.5, 110.0, 111.0], Better::Lower, 0.05);
        assert_eq!(v, Verdict::Worse);
        assert!((by - 0.1).abs() < 0.01);
        // 10% less throughput is worse when higher is better...
        assert_eq!(
            judge(&steady, &[90.0, 90.5, 90.0, 91.0], Better::Higher, 0.05).1,
            Verdict::Worse
        );
        // ...and better when lower is.
        assert_eq!(
            judge(&steady, &[90.0, 90.5, 90.0, 91.0], Better::Lower, 0.05).1,
            Verdict::Ok
        );
        // A spread wider than the bound cannot resolve an overlap...
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[90.0, 110.0, 130.0, 150.0], Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[50.0, 60.0, 70.0, 75.0], Better::Lower, 0.05).1,
            Verdict::Ok
        );
        // Single runs have no spread to speak of.
        assert_eq!(judge(&[1.0], &[1.2], Better::Lower, 0.05).1, Verdict::Worse);
    }
}
