//! `sintra-bench compare A B`: do two sets of run records agree?
//!
//! One row per workload × end-to-end metric with each side's median and
//! quartiles, the relative difference (positive = B worse), the
//! metric's bound and a verdict. This is the "two sets of the same code
//! agree" check and the tool a later change's review reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use crate::record::StoredRecord;
use crate::stats;
use crate::workload::{Better, EndToEndMetric, END_TO_END, WORKLOADS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is within the bound of A's.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A side's own spread exceeds the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: Vec<f64>,
    pub b: Vec<f64>,
    /// `(median_b - median_a) / median_a`, signed so positive is worse.
    pub worsening: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges one metric on one workload. `setup_s` is exempt from the
/// spread rule (as in the pipeline): it is judged on medians only.
pub fn judge(metric: &EndToEndMetric, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma };
    let worsening = match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let verdict = if metric.name != "setup_s" && spread > metric.bound {
        Verdict::Unresolved
    } else if worsening > metric.bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

/// Loads every untraced `*.json` record of a file or directory.
pub fn load(path: &Path) -> Result<Vec<StoredRecord>, String> {
    let mut files = Vec::new();
    if path.is_dir() {
        let entries = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for entry in entries {
            let file = entry.map_err(|e| e.to_string())?.path();
            if file.extension().is_some_and(|ext| ext == "json") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }
    let mut records = Vec::new();
    for file in files {
        let text =
            std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
        let record = StoredRecord::parse(&text).map_err(|e| format!("{}: {e}", file.display()))?;
        if !record.traced {
            records.push(record);
        }
    }
    if records.is_empty() {
        return Err(format!("{}: no end-to-end run records", path.display()));
    }
    Ok(records)
}

/// Compares two record sets.
///
/// # Errors
///
/// Refuses sets that mix pinned and unpinned records: one is bound by
/// one core's CPU, the other by the scheduler's mood.
pub fn compare(a: &[StoredRecord], b: &[StoredRecord]) -> Result<Vec<Row>, String> {
    let pinned = a[0].pinned;
    if a.iter().chain(b).any(|r| r.pinned != pinned) {
        return Err("refusing to compare pinned records with unpinned ones".to_string());
    }
    if let Some(bad) = a.iter().chain(b).find(|r| !r.correct) {
        return Err(format!(
            "a {} record failed the oracle; nothing to compare",
            bad.workload
        ));
    }
    let values = |set: &[StoredRecord]| {
        let mut by_key: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
        for record in set {
            for (name, value) in &record.metrics {
                by_key
                    .entry((record.workload.clone(), name.clone()))
                    .or_default()
                    .push(*value);
            }
        }
        by_key
    };
    let (va, vb) = (values(a), values(b));
    let mut rows = Vec::new();
    for workload in WORKLOADS.iter().map(|w| w.name) {
        for metric in &END_TO_END {
            let key = (workload.to_string(), metric.name.to_string());
            let (Some(xa), Some(xb)) = (va.get(&key), vb.get(&key)) else {
                continue;
            };
            let (worsening, verdict) = judge(metric, xa, xb);
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name,
                a: xa.clone(),
                b: xb.clone(),
                worsening,
                bound: metric.bound,
                verdict,
            });
        }
    }
    if rows.is_empty() {
        return Err("the two sets share no workload".to_string());
    }
    Ok(rows)
}

/// The table `compare` prints.
pub fn render(rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<11} {:<19} {:>3} {:>10} {:>21} {:>3} {:>10} {:>21} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "nA",
        "median A",
        "quartiles A",
        "nB",
        "median B",
        "quartiles B",
        "worse by",
        "bound"
    );
    for row in rows {
        let side = |v: &[f64]| {
            let (q1, q3) = stats::quartiles(v);
            (
                v.len(),
                format!("{:.4}", stats::median(v)),
                format!("{q1:.4}..{q3:.4}"),
            )
        };
        let (na, ma, qa) = side(&row.a);
        let (nb, mb, qb) = side(&row.b);
        let _ = writeln!(
            out,
            "{:<11} {:<19} {:>3} {:>10} {:>21} {:>3} {:>10} {:>21} {:>+7.1}% {:>5.0}%  {}",
            row.workload,
            row.metric,
            na,
            ma,
            qa,
            nb,
            mb,
            qb,
            row.worsening * 100.0,
            row.bound * 100.0,
            row.verdict.as_str()
        );
    }
    out
}

/// Whether any row fails the comparison outright.
pub fn any_worse(rows: &[Row]) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::record;

    fn stored(workload: &str, pinned: bool, metric: &str, values: &[f64]) -> Vec<StoredRecord> {
        values
            .iter()
            .map(|v| {
                StoredRecord::parse(&record(workload, pinned, &[(metric, *v)]).to_json()).unwrap()
            })
            .collect()
    }

    #[test]
    fn verdicts_on_synthetic_records() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let a = stored("abc4_sat", true, "latency_p50_ms", &base);
        // Same distribution: ok.
        let rows = compare(&a, &a).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert!(!any_worse(&rows));
        // Slower by 5 points more than the bound allows: worse.
        let factor = 1.05 + rows[0].bound;
        let slower: Vec<f64> = base.iter().map(|v| v * factor).collect();
        let b = stored("abc4_sat", true, "latency_p50_ms", &slower);
        let rows = compare(&a, &b).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Worse);
        assert!((rows[0].worsening - (factor - 1.0)).abs() < 1e-9);
        assert!(any_worse(&rows));
        // Within the bound: ok.
        let within: Vec<f64> = base.iter().map(|v| v * (factor - 0.10)).collect();
        let c = stored("abc4_sat", true, "latency_p50_ms", &within);
        assert_eq!(compare(&a, &c).unwrap()[0].verdict, Verdict::Ok);
        // Faster: ok (and negative worsening).
        let rows = compare(&b, &a).unwrap();
        assert_eq!(rows[0].verdict, Verdict::Ok);
        assert!(rows[0].worsening < 0.0);
        // A noisy side: unresolved, whatever the medians say.
        let noisy = stored(
            "abc4_sat",
            true,
            "latency_p50_ms",
            &[70.0, 130.0, 100.0, 40.0, 160.0],
        );
        assert_eq!(compare(&a, &noisy).unwrap()[0].verdict, Verdict::Unresolved);
        assert!(render(&rows).contains("latency_p50_ms"));
    }

    #[test]
    fn direction_follows_the_metric() {
        let a = stored("abc4_sat", true, "throughput_pps", &[50.0, 50.0, 50.0]);
        let down = stored("abc4_sat", true, "throughput_pps", &[35.0, 35.0, 35.0]);
        assert_eq!(compare(&a, &down).unwrap()[0].verdict, Verdict::Worse);
        assert_eq!(compare(&down, &a).unwrap()[0].verdict, Verdict::Ok);
    }

    #[test]
    fn setup_is_judged_on_medians_only() {
        let a = stored("abc4_sat", true, "setup_s", &[0.04, 0.08, 0.05, 0.02, 0.09]);
        assert_eq!(compare(&a, &a).unwrap()[0].verdict, Verdict::Ok);
    }

    #[test]
    fn pinned_and_unpinned_do_not_compare() {
        let a = stored("abc4_sat", true, "throughput_pps", &[50.0]);
        let b = stored("abc4_sat", false, "throughput_pps", &[90.0]);
        assert!(compare(&a, &b).unwrap_err().contains("pinned"));
        let other = stored("abc4_lone", true, "throughput_pps", &[27.0]);
        assert!(compare(&a, &other).is_err(), "no shared workload");
    }
}
