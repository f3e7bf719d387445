//! `compare A.json B.json`: applies the benchmark's own bounds to two sets
//! of runs (A the parent, B the change) — one row per workload × metric.
//!
//! A row **passes** when B's median is no worse than A's by more than the
//! metric's bound. It is **unresolved** when either set's run-to-run spread
//! (interquartile distance over median) is wider than the bound, unless
//! every run of B reads better than every run of A. It has **regressed**
//! when B's median is worse by more than the bound. `failed_share` has no
//! bound: any rise regresses.

use crate::json::{self, Value};
use crate::stats;
use crate::{EndToEnd, END_TO_END, WORKLOADS};
use std::process::ExitCode;

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Pass,
    Unresolved,
    Regressed,
}

/// By what share of A's median B's median is worse (negative: better).
fn worse_by(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    if worse_by(m, med_a, med_b) > m.bound {
        return Verdict::Regressed;
    }
    let noisy = stats::spread(a) > m.bound || stats::spread(b) > m.bound;
    let all_better = b
        .iter()
        .all(|&vb| a.iter().all(|&va| worse_by(m, va, vb) < 0.0));
    if noisy && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Pass
    }
}

/// The end-to-end runs of one workload in a result file: per metric the
/// values of every run, plus ops attempted and failed over all runs.
struct Runs {
    values: Vec<Vec<f64>>,
    attempted: f64,
    failed: f64,
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs_of(doc: &Value, workload: &str) -> Runs {
    let mut runs = Runs {
        values: vec![Vec::new(); END_TO_END.len()],
        attempted: 0.0,
        failed: 0.0,
    };
    // Either a `results.json` ({"runs": [...]}) or one run's record.
    let records = match doc.get("runs") {
        Some(list) => list.as_array(),
        None => std::slice::from_ref(doc),
    };
    for record in records {
        let is = |key: &str, want: &Value| record.get(key) == Some(want);
        if !is("workload", &Value::from(workload)) || !is("trace", &Value::from(0u64)) {
            continue;
        }
        for (slot, m) in runs.values.iter_mut().zip(END_TO_END) {
            let value = record
                .get("metrics")
                .and_then(|all| all.get(m.name))
                .and_then(|one| one.get("value"))
                .and_then(Value::as_f64);
            slot.extend(value);
        }
        runs.attempted += record
            .get("attempted")
            .and_then(Value::as_f64)
            .unwrap_or(0.0);
        runs.failed += record.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
    }
    runs
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("A = {path_a}\nB = {path_b}");
    println!(
        "{:<14} {:<15} {:>12} {:>3} {:>12} {:>3} {:>7} {:>9} {:>6} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "A median",
        "n",
        "B median",
        "n",
        "B/A",
        "worse by",
        "bound",
        "spread A",
        "spread B"
    );
    let (mut rows, mut not_passed) = (0, 0);
    for workload in WORKLOADS {
        let (ra, rb) = (runs_of(&a, workload), runs_of(&b, workload));
        for (i, m) in END_TO_END.iter().enumerate() {
            let (va, vb) = (&ra.values[i], &rb.values[i]);
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(m, va, vb);
            let (med_a, med_b) = (stats::median(va), stats::median(vb));
            println!(
                "{workload:<14} {:<15} {med_a:>12.4} {:>3} {med_b:>12.4} {:>3} {:>7.4} {:>+8.2}% {:>5.0}% {:>7.2}% {:>7.2}%  {}",
                m.name,
                va.len(),
                vb.len(),
                med_b / med_a,
                100.0 * worse_by(m, med_a, med_b),
                100.0 * m.bound,
                100.0 * stats::spread(va),
                100.0 * stats::spread(vb),
                match verdict {
                    Verdict::Pass => "pass",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regressed => "REGRESSED",
                }
            );
            rows += 1;
            not_passed += usize::from(verdict != Verdict::Pass);
        }
        if ra.attempted > 0.0 && rb.attempted > 0.0 {
            let (share_a, share_b) = (ra.failed / ra.attempted, rb.failed / rb.attempted);
            let risen = share_b > share_a;
            println!(
                "{workload:<14} {:<15} {share_a:>12.6} {:>3} {share_b:>12.6} {:>3} {:>56}",
                "failed_share",
                "",
                "",
                if risen { "REGRESSED" } else { "pass" }
            );
            rows += 1;
            not_passed += usize::from(risen);
        }
    }
    println!("{rows} rows, {not_passed} not passed");
    if rows == 0 {
        eprintln!("benchmark compare: the files share no end-to-end run");
        return ExitCode::from(2);
    }
    if not_passed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY: &EndToEnd = &EndToEnd {
        name: "latency",
        unit: "ms",
        higher_is_better: false,
        bound: 0.10,
    };
    const RATE: &EndToEnd = &EndToEnd {
        name: "rate",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.10,
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            judge(LATENCY, &steady, &[104.0, 105.0, 103.0]),
            Verdict::Pass
        );
        assert_eq!(
            judge(LATENCY, &steady, &[112.0, 113.0, 111.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(RATE, &steady, &[88.0, 89.0, 87.0]),
            Verdict::Regressed
        );
        assert_eq!(judge(RATE, &steady, &[112.0, 113.0, 111.0]), Verdict::Pass);
        // A spread wider than the bound resolves nothing …
        let noisy = [80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(
            judge(LATENCY, &noisy, &[95.0, 105.0, 100.0]),
            Verdict::Unresolved
        );
        // … unless every run of B beats every run of A.
        assert_eq!(judge(LATENCY, &noisy, &[70.0, 75.0, 72.0]), Verdict::Pass);
    }
}
