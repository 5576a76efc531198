//! `benchmark compare A B`: two sets of result records, side by side.
//!
//! Per workload and metric it prints each side's median and quartiles.
//! A pair *disagrees* when the medians differ by more than the metric's
//! bound (end-to-end metrics), and is *beyond-iqr* when they differ by
//! more than both sides' inter-quartile distances. It also applies the
//! paired-win rule for claiming a gain: B wins at least nine tenths of at
//! least ten pairs (ties count for neither), and the medians differ by
//! more than A's inter-quartile distance. Pairs match records of equal
//! seed, in the order each side ran them.

use crate::json::Json;
use crate::record;
use crate::spec::{MetricSpec, Spec};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Paired runs a gain claim needs at least.
const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    BeyondIqr,
    Disagree,
    Gain,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: (f64, f64, f64),
    pub b: (f64, f64, f64),
    pub samples: (usize, usize),
    /// (B better, B worse, pairs).
    pub wins: (usize, usize, usize),
    pub verdict: Verdict,
}

/// Values of `metric` per seed, in record order, for one workload.
fn by_seed(records: &[Json], workload: &str, metric: &str) -> BTreeMap<u64, Vec<f64>> {
    let mut out: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for r in records {
        if r.get("workload").and_then(Json::as_str) != Some(workload) {
            continue;
        }
        if let Some(v) = record::value(r, metric) {
            let seed = r.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            out.entry(seed).or_default().push(v);
        }
    }
    out
}

/// Compares one metric of one workload; `None` when a side has no value.
pub fn row(m: &MetricSpec, workload: &str, a: &[Json], b: &[Json]) -> Option<Row> {
    let (sa, sb) = (by_seed(a, workload, &m.name), by_seed(b, workload, &m.name));
    let va: Vec<f64> = sa.values().flatten().copied().collect();
    let vb: Vec<f64> = sb.values().flatten().copied().collect();
    if va.is_empty() || vb.is_empty() {
        return None;
    }
    let (qa, qb) = (stats::quartiles(&va), stats::quartiles(&vb));
    let better = |x: f64, y: f64| if m.higher_is_better { y > x } else { y < x };
    let (mut won, mut lost, mut pairs) = (0, 0, 0);
    for (seed, xs) in &sa {
        if let Some(ys) = sb.get(seed) {
            for (&x, &y) in xs.iter().zip(ys) {
                pairs += 1;
                won += usize::from(better(x, y));
                lost += usize::from(better(y, x));
            }
        }
    }
    let diff = (qb.1 - qa.1).abs();
    let (iqr_a, iqr_b) = (qa.2 - qa.0, qb.2 - qb.0);
    let verdict =
        if pairs >= MIN_PAIRS && won * 10 >= pairs * 9 && better(qa.1, qb.1) && diff > iqr_a {
            Verdict::Gain
        } else if m.bound.is_some_and(|bound| diff > bound * qa.1.abs()) {
            Verdict::Disagree
        } else if diff > iqr_a.max(iqr_b) {
            Verdict::BeyondIqr
        } else {
            Verdict::Agree
        };
    Some(Row {
        workload: workload.to_string(),
        metric: m.name.clone(),
        a: qa,
        b: qb,
        samples: (va.len(), vb.len()),
        wins: (won, lost, pairs),
        verdict,
    })
}

/// Every row, workloads in spec order; and the printed table.
pub fn compare(spec: &Spec, a: &[Json], b: &[Json]) -> (Vec<Row>, String) {
    let mut rows = Vec::new();
    for (workload, _) in &spec.workloads {
        for m in spec.metrics() {
            rows.extend(row(m, workload, a, b));
        }
    }
    let mut text = String::new();
    let _ = writeln!(
        text,
        "{:<12} {:<28} {:>30} {:>30} {:>8} {:>9}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "delta", "B w/l/n"
    );
    for r in &rows {
        let side =
            |q: (f64, f64, f64), n: usize| format!("{:.4} [{:.4}, {:.4}] ({n})", q.1, q.0, q.2);
        let delta = if r.a.1 == 0.0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", (r.b.1 - r.a.1) / r.a.1.abs() * 100.0)
        };
        let _ = writeln!(
            text,
            "{:<12} {:<28} {:>30} {:>30} {:>8} {:>9}  {:?}",
            r.workload,
            r.metric,
            side(r.a, r.samples.0),
            side(r.b, r.samples.1),
            delta,
            format!("{}/{}/{}", r.wins.0, r.wins.1, r.wins.2),
            r.verdict
        );
    }
    (rows, text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seed: u64, v: f64) -> Json {
        Json::obj([
            ("workload", Json::str("w")),
            ("seed", Json::from(seed)),
            (
                "metrics",
                Json::obj([("m", Json::obj([("value", Json::from(v))]))]),
            ),
        ])
    }

    fn metric(bound: Option<f64>) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound,
        }
    }

    #[test]
    fn same_distribution_agrees() {
        let a: Vec<Json> = (0..5).map(|s| rec(s, 10.0 + s as f64 * 0.1)).collect();
        let b: Vec<Json> = (0..5).map(|s| rec(s, 10.05 + s as f64 * 0.1)).collect();
        let r = row(&metric(Some(0.1)), "w", &a, &b).unwrap();
        assert_eq!(r.verdict, Verdict::Agree);
        assert_eq!(r.wins, (0, 5, 5), "B is a little slower on every seed");
    }

    #[test]
    fn a_shift_beyond_the_bound_disagrees_and_beyond_the_spread_is_flagged() {
        let a: Vec<Json> = (0..5).map(|s| rec(s, 10.0 + s as f64 * 0.01)).collect();
        let slow: Vec<Json> = (0..5).map(|s| rec(s, 12.0 + s as f64 * 0.01)).collect();
        assert_eq!(
            row(&metric(Some(0.1)), "w", &a, &slow).unwrap().verdict,
            Verdict::Disagree
        );
        let nudged: Vec<Json> = (0..5).map(|s| rec(s, 10.5 + s as f64 * 0.01)).collect();
        assert_eq!(
            row(&metric(Some(0.1)), "w", &a, &nudged).unwrap().verdict,
            Verdict::BeyondIqr
        );
        assert_eq!(
            row(&metric(None), "w", &a, &slow).unwrap().verdict,
            Verdict::BeyondIqr
        );
    }

    #[test]
    fn a_gain_needs_nine_tenths_of_ten_pairs() {
        let a: Vec<Json> = (0..10).map(|s| rec(s, 10.0 + s as f64 * 0.01)).collect();
        let mut b: Vec<Json> = (0..10).map(|s| rec(s, 9.0 + s as f64 * 0.01)).collect();
        assert_eq!(
            row(&metric(Some(0.5)), "w", &a, &b).unwrap().verdict,
            Verdict::Gain
        );
        // Two losses of ten: 8/10 wins is not enough.
        b[0] = rec(0, 11.0);
        b[1] = rec(1, 11.0);
        let r = row(&metric(Some(0.5)), "w", &a, &b).unwrap();
        assert_eq!(r.wins, (8, 2, 10));
        assert_ne!(r.verdict, Verdict::Gain);
        // Nine pairs never claim a gain.
        let r = row(&metric(Some(0.5)), "w", &a[..9], &b[2..]).unwrap();
        assert_ne!(r.verdict, Verdict::Gain);
    }
}
