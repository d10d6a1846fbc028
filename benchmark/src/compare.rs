//! `compare A.json B.json`: is B worse than A, by the benchmark's own
//! bounds and directions?

use bigtiny_bench::render_table;
use bigtiny_obs::{parse_json, Json};

use crate::metrics::Better;
use crate::stats::Summary;

/// What one (workload, metric) pairing shows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// B's median is better than A's by more than the bound.
    Improved,
    /// The medians differ by no more than the bound.
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Regression,
    /// A side's own min–max spread exceeds the bound and the two ranges
    /// overlap (or a side has too few passes for a median): the runs
    /// cannot tell the sides apart.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regression => "REGRESSION",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B against A. Returns the verdict and B's worsening as a share
/// of A's median (negative when B is better).
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> (Verdict, f64) {
    let (Some(ma), Some(mb)) = (a.median, b.median) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    let worse = better.worsening(ma, mb);
    // Every run of one side beats every run of the other.
    let disjoint = a.max < b.min || b.max < a.min;
    let verdict = if (a.spread() > bound || b.spread() > bound) && !disjoint {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regression
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse)
}

fn read(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn summary_of(j: &Json) -> Option<Summary> {
    Some(Summary {
        median: j.get("median").and_then(Json::as_num),
        min: j.get("min")?.as_num()?,
        max: j.get("max")?.as_num()?,
        n: j.get("n")?.as_num()? as usize,
    })
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads").and_then(Json::as_arr).ok_or_else(|| "no workloads array".to_owned())
}

fn failed_share(w: &Json) -> f64 {
    let n = |k: &str| w.get(k).and_then(Json::as_num).unwrap_or(0.0);
    n("cells_failed") / n("cells_attempted").max(1.0)
}

/// Compares two result documents; prints one row per (workload,
/// end-to-end metric). `Ok(true)` when B shows no regression and no
/// higher share of failed cells.
pub fn compare(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (read(path_a)?, read(path_b)?);
    let header: Vec<String> =
        ["workload", "metric", "A median", "B median", "delta", "bound", "better", "verdict"]
            .map(String::from)
            .to_vec();
    let mut rows = Vec::new();
    let (mut regressions, mut unresolved) = (0, 0);
    for wa in workloads(&a)? {
        let name = wa.get("name").and_then(Json::as_str).ok_or("workload without a name")?;
        let Some(wb) =
            workloads(&b)?.iter().find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let Some(Json::Obj(metrics)) = wa.get("end_to_end") else { continue };
        for (metric, ja) in metrics {
            let Some(jb) = wb.get("end_to_end").and_then(|e| e.get(metric)) else { continue };
            let (Some(sa), Some(sb)) = (summary_of(ja), summary_of(jb)) else { continue };
            let better = ja
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name} {metric}: no direction"))?;
            let bound = ja
                .get("bound")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("{name} {metric}: no bound"))?;
            let (verdict, worse) = judge(&sa, &sb, better, bound);
            regressions += usize::from(verdict == Verdict::Regression);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let med = |s: &Summary| s.median.map_or("n/a".to_owned(), crate::report::fmt_num);
            rows.push(vec![
                name.to_owned(),
                metric.clone(),
                med(&sa),
                med(&sb),
                format!("{:+.2}% worse", worse * 100.0),
                format!("{:.0}%", bound * 100.0),
                better.label().to_owned(),
                verdict.label().to_owned(),
            ]);
        }
        let (fa, fb) = (failed_share(wa), failed_share(wb));
        let verdict = if fb > fa { Verdict::Regression } else { Verdict::Unchanged };
        regressions += usize::from(verdict == Verdict::Regression);
        rows.push(vec![
            name.to_owned(),
            "cells_failed".to_owned(),
            format!("{:.4}", fa),
            format!("{:.4}", fb),
            "share of cells".to_owned(),
            "0%".to_owned(),
            "lower".to_owned(),
            verdict.label().to_owned(),
        ]);
    }
    println!("{}", render_table(&header, &rows));
    println!("{} pairings: {regressions} regression(s), {unresolved} unresolved", rows.len());
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, min: f64, max: f64) -> Summary {
        Summary { median: Some(median), min, max, n: 5 }
    }

    #[test]
    fn verdict_follows_bound_and_direction() {
        use Better::{Higher, Lower};
        let a = s(10.0, 9.9, 10.1);
        assert_eq!(judge(&a, &s(10.5, 10.4, 10.6), Lower, 0.1).0, Verdict::Unchanged);
        assert_eq!(judge(&a, &s(11.5, 11.4, 11.6), Lower, 0.1).0, Verdict::Regression);
        assert_eq!(judge(&a, &s(8.5, 8.4, 8.6), Lower, 0.1).0, Verdict::Improved);
        assert_eq!(judge(&a, &s(8.5, 8.4, 8.6), Higher, 0.1).0, Verdict::Regression);
        assert_eq!(judge(&a, &s(11.5, 11.4, 11.6), Higher, 0.1).0, Verdict::Improved);
        let (_, worse) = judge(&a, &s(11.0, 10.9, 11.1), Lower, 0.2);
        assert!((worse - 0.1).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_the_ranges_are_disjoint() {
        let noisy = s(10.0, 8.0, 12.0);
        assert_eq!(judge(&noisy, &s(10.2, 10.1, 10.3), Better::Lower, 0.1).0, Verdict::Unresolved);
        // Every run of B is slower than every run of A: resolved.
        assert_eq!(judge(&noisy, &s(14.0, 13.0, 15.0), Better::Lower, 0.1).0, Verdict::Regression);
        assert_eq!(judge(&noisy, &s(6.0, 5.0, 7.0), Better::Lower, 0.1).0, Verdict::Improved);
        // No median (fewer than three passes): nothing to compare.
        let few = Summary { median: None, min: 9.0, max: 11.0, n: 2 };
        assert_eq!(judge(&few, &s(10.0, 9.9, 10.1), Better::Lower, 0.1).0, Verdict::Unresolved);
    }
}
