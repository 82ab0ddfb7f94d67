//! `benchmark compare <a.json> <b.json>`: two result files, every
//! workload × end-to-end metric pairing judged against its bound.

use crate::metrics::{Better, EndToEnd, END_TO_END};
use crate::stats::{median, spread};
use crate::workload::WORKLOADS;
use serde::Value;

/// One end-to-end run as read back from a result file.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRow {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    pub paced_valid: bool,
    pub metrics: Vec<(String, f64)>,
    /// Ungated extras (`detect_p99_ms` over all samples, …).
    pub info: Vec<(String, f64)>,
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn numbers(map: &Value) -> Option<Vec<(String, f64)>> {
    Some(
        map.as_map()?
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), number(v)?)))
            .collect(),
    )
}

/// Reads the end-to-end runs of a result file (traced runs are skipped:
/// end-to-end numbers never come from them).
pub fn parse_runs(text: &str) -> Result<Vec<RunRow>, String> {
    let root = serde_json::parse(text).map_err(|e| e.to_string())?;
    let runs = root
        .field("runs", "result file")
        .map_err(|e| e.to_string())?
        .as_seq()
        .ok_or("`runs` is not a list")?;
    let mut rows = Vec::new();
    for run in runs {
        let get = |key: &str| run.field(key, "run").map_err(|e| e.to_string());
        if get("traced")? == &Value::Bool(true) {
            continue;
        }
        let count = |key: &str| -> Result<u64, String> {
            number(get(key)?)
                .map(|v| v as u64)
                .ok_or(format!("`{key}` is not a number"))
        };
        rows.push(RunRow {
            workload: get("workload")?
                .as_str()
                .ok_or("`workload` is not a string")?
                .to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            paced_valid: get("paced_valid")? != &Value::Bool(false),
            metrics: numbers(get("metrics")?).ok_or("`metrics` is not a map")?,
            info: get("info").ok().and_then(numbers).unwrap_or_default(),
        });
    }
    Ok(rows)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a pairing: the median over the set's runs and their
/// run-to-run spread (as a share of the median; `None` for a single run).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub spread: Option<f64>,
    pub runs: usize,
}

fn side(rows: &[RunRow], workload: &str, metric: &EndToEnd) -> Option<Side> {
    let latency = metric.name.starts_with("detect_");
    let mut values: Vec<f64> = rows
        .iter()
        .filter(|r| r.workload == workload && (!latency || r.paced_valid))
        .filter_map(|r| {
            r.metrics
                .iter()
                .find(|(n, _)| n == metric.name)
                .map(|(_, v)| *v)
        })
        .collect();
    Some(Side {
        spread: spread(&values),
        runs: values.len(),
        median: median(&mut values)?,
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    match metric.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// `worse` when `b` is worse than `a` by more than the bound; `unresolved`
/// when either set's own spread exceeds the bound (the sets cannot resolve
/// a difference that small), or a side has no valid run; otherwise `ok`.
pub fn judge(metric: &EndToEnd, a: Option<Side>, b: Option<Side>) -> Verdict {
    let (Some(a), Some(b)) = (a, b) else {
        return Verdict::Unresolved;
    };
    let noisy = [a.spread, b.spread]
        .iter()
        .any(|s| s.is_some_and(|s| s > metric.bound));
    if noisy {
        Verdict::Unresolved
    } else if worsening(metric, a.median, b.median) > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

fn error_share(rows: &[RunRow], workload: &str) -> Option<f64> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    for r in rows.iter().filter(|r| r.workload == workload) {
        attempted += r.attempted;
        failed += r.failed;
    }
    (attempted > 0).then(|| failed as f64 / attempted as f64)
}

/// Prints the comparison; returns whether it passes (no `worse`, no higher
/// `error_share`).
pub fn compare(a: &[RunRow], b: &[RunRow]) -> bool {
    let mut pass = true;
    println!(
        "{:<16} {:<16} {:>14} {:>14} {:>22} {:>6}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a (base a)", "bound"
    );
    for w in &WORKLOADS {
        for metric in &END_TO_END {
            let (sa, sb) = (side(a, w.name, metric), side(b, w.name, metric));
            if sa.is_none() && sb.is_none() {
                continue;
            }
            let verdict = judge(metric, sa, sb);
            pass &= verdict != Verdict::Worse;
            let show = |s: Option<Side>| s.map_or("-".to_string(), |s| format!("{:.4}", s.median));
            let ratio = match (sa, sb) {
                (Some(sa), Some(sb)) => {
                    format!("{:.4} (a={:.4})", sb.median / sa.median, sa.median)
                }
                _ => "-".to_string(),
            };
            let spreads = [sa, sb]
                .iter()
                .map(|s| match s.and_then(|s| s.spread) {
                    Some(s) => format!("{:.1}%", s * 100.0),
                    None => "n/a".to_string(),
                })
                .collect::<Vec<_>>()
                .join(" / ");
            println!(
                "{:<16} {:<16} {:>14} {:>14} {:>22} {:>5.0}%  {} (spread a / b: {spreads}; runs {} / {})",
                w.name,
                metric.name,
                show(sa),
                show(sb),
                ratio,
                metric.bound * 100.0,
                verdict.as_str(),
                sa.map_or(0, |s| s.runs),
                sb.map_or(0, |s| s.runs),
            );
        }
        // Measured but not gated: shown so that a tail that moved is seen.
        let info_median = |rows: &[RunRow], name: &str| {
            let mut values: Vec<f64> = rows
                .iter()
                .filter(|r| r.workload == w.name && r.paced_valid)
                .filter_map(|r| r.info.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            median(&mut values)
        };
        if let (Some(ia), Some(ib)) = (
            info_median(a, "detect_p99_ms"),
            info_median(b, "detect_p99_ms"),
        ) {
            println!(
                "{:<16} {:<16} {:>14.4} {:>14.4} {:>22} {:>6}  not gated",
                w.name,
                "detect_p99_ms",
                ia,
                ib,
                format!("{:.4} (a={:.4})", ib / ia, ia),
                "none"
            );
        }
        if let (Some(ea), Some(eb)) = (error_share(a, w.name), error_share(b, w.name)) {
            let higher = eb > ea;
            pass &= !higher;
            println!(
                "{:<16} {:<16} {:>14.6} {:>14.6} {:>22} {:>6}  {}",
                w.name,
                "error_share",
                ea,
                eb,
                "-",
                "none",
                if higher { "worse" } else { "ok" }
            );
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;

    // Metrics with bounds of the tests' own, so that retuning the real
    // table does not retune the tests.
    const THR: EndToEnd = EndToEnd {
        name: "throughput_rps",
        unit: "records/s",
        better: Better::Higher,
        bound: 0.07,
    };
    const P50: EndToEnd = EndToEnd {
        name: "detect_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };

    fn rows(workload: &str, metric: &str, values: &[f64]) -> Vec<RunRow> {
        values
            .iter()
            .map(|&v| RunRow {
                workload: workload.to_string(),
                attempted: 100,
                failed: 0,
                paced_valid: true,
                metrics: vec![(metric.to_string(), v)],
                info: Vec::new(),
            })
            .collect()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let thr = &THR;
        let judge_sets = |a: &[f64], b: &[f64]| {
            judge(
                thr,
                side(&rows("convoy_mix", thr.name, a), "convoy_mix", thr),
                side(&rows("convoy_mix", thr.name, b), "convoy_mix", thr),
            )
        };
        assert_eq!(
            judge_sets(&[100.0, 101.0, 99.0], &[95.0, 96.0, 94.0]),
            Verdict::Ok
        );
        assert_eq!(
            judge_sets(&[100.0, 101.0, 99.0], &[90.0, 91.0, 89.0]),
            Verdict::Worse
        );
        // A faster b is never worse.
        assert_eq!(
            judge_sets(&[100.0, 101.0, 99.0], &[150.0, 151.0, 149.0]),
            Verdict::Ok
        );
        // A set that spreads wider than the bound resolves nothing.
        assert_eq!(
            judge_sets(&[100.0, 120.0, 80.0], &[90.0, 91.0, 89.0]),
            Verdict::Unresolved
        );
        // Single runs have no spread to object with.
        assert_eq!(judge_sets(&[100.0], &[96.0]), Verdict::Ok);
        assert_eq!(judge_sets(&[100.0], &[]), Verdict::Unresolved);

        let p50 = &P50;
        assert!(worsening(p50, 2.0, 2.3) > p50.bound);
        assert!(worsening(p50, 2.0, 1.0) < 0.0);
    }

    #[test]
    fn invalid_paced_passes_are_not_latencies() {
        let p50 = &P50;
        let mut set = rows("dense_join", p50.name, &[2.0, 2.1, 900.0]);
        set[2].paced_valid = false;
        let s = side(&set, "dense_join", p50).unwrap();
        assert_eq!(s.runs, 2);
        assert!((s.median - 2.05).abs() < 1e-12);
    }

    #[test]
    fn result_files_round_trip_and_skip_traced_runs() {
        let text = r#"{"schema":1,"host_cpus":2,"runs":[
            {"workload":"convoy_mix","seed":1,"seconds":12.0,"traced":false,"correct":true,
             "attempted":10,"failed":1,"paced_valid":true,"samples":5,
             "metrics":{"throughput_rps":1234.5,"setup_s":2},"info":{"detect_p99_ms":7.5}},
            {"workload":"convoy_mix","seed":1,"seconds":12.0,"traced":true,"correct":true,
             "attempted":10,"failed":0,"paced_valid":null,"samples":0,"metrics":{}}]}"#;
        let rows = parse_runs(text).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].failed, 1);
        assert_eq!(
            rows[0].metrics,
            vec![
                ("throughput_rps".to_string(), 1234.5),
                ("setup_s".to_string(), 2.0)
            ]
        );
        assert_eq!(rows[0].info, vec![("detect_p99_ms".to_string(), 7.5)]);
        assert_eq!(error_share(&rows, "convoy_mix"), Some(0.1));
        assert!(parse_runs("{}").is_err());
    }

    #[test]
    fn a_higher_error_share_fails_the_comparison() {
        let thr = &THR;
        let a = rows("convoy_mix", thr.name, &[100.0, 100.5, 99.5]);
        let mut b = a.clone();
        assert!(compare(&a, &b));
        b[0].failed = 1;
        assert!(!compare(&a, &b));
        assert!(compare(&b, &a), "a lower error share is fine");
    }
}
