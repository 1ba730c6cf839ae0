//! `zbench compare`: applies the bounds in `BENCHMARK.json` to two sets of
//! timed results, one row per workload and end-to-end metric.
//!
//! A row is judged twice: on the reported value (the slices' quiet end)
//! and on the median of the same slices. The first repeats best on a shared
//! host; the second sees a slowdown that leaves the best slices alone.

use crate::json::Value;
use crate::spec::{Better, Spec, WORKLOADS};
use crate::stats;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Ok,
    /// The reported value is worse than the base's by more than the bound.
    Worse,
    /// The reported value holds but the median of slices is worse than the
    /// base's by more than the bound: some slices slowed down, not all.
    WorseMedian,
    /// Neither is worse, but a side's own slices spread wider than the bound:
    /// at this resolution "no worse" cannot be told from "unchanged".
    Unresolved,
    /// A side has no value for this row.
    Missing,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::WorseMedian => "worse-median",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// One metric of one workload over the timed results of some sets.
#[derive(Clone, Copy)]
struct Side {
    /// Median of the reported values.
    value: f64,
    /// Median of the medians of slices.
    slice_median: f64,
    /// Widest slice spread.
    spread: f64,
}

pub struct Row {
    pub workload: &'static str,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub base_slice_median: f64,
    pub new_slice_median: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

impl Row {
    pub fn to_json(&self) -> Value {
        Value::obj(vec![
            ("workload", Value::str(self.workload)),
            ("metric", Value::str(&self.metric)),
            ("base", Value::Num(self.base)),
            ("new", Value::Num(self.new)),
            ("ratio", Value::Num(self.new / self.base)),
            ("base_slice_median", Value::Num(self.base_slice_median)),
            ("new_slice_median", Value::Num(self.new_slice_median)),
            (
                "slice_median_ratio",
                Value::Num(self.new_slice_median / self.base_slice_median),
            ),
            ("bound", Value::Num(self.bound)),
            ("verdict", Value::str(self.verdict.label())),
        ])
    }
}

fn side(sets: &[&Value], workload: &str, metric: &str) -> Option<Side> {
    let mut values = Vec::new();
    let mut slice_medians = Vec::new();
    let mut spread = 0f64;
    for set in sets {
        for result in set.get("results").map_or(&[][..], Value::as_arr) {
            let timed = result.get("trace").and_then(Value::as_bool) == Some(false);
            if !timed || result.get("workload").and_then(Value::as_str) != Some(workload) {
                continue;
            }
            let field = |section: &str| result.get(section).and_then(|s| s.get(metric));
            let value = field("metrics")
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64);
            values.extend(value);
            // A metric that is not taken over slices is its own median.
            slice_medians.extend(field("slice_median").and_then(Value::as_f64).or(value));
            spread = spread.max(field("slice_spread").and_then(Value::as_f64).unwrap_or(0.0));
        }
    }
    Some(Side {
        value: stats::median(&values)?,
        slice_median: stats::median(&slice_medians)?,
        spread,
    })
}

pub fn compare(spec: &Spec, base: &[&Value], new: &[&Value]) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for bound in &spec.bounds {
            let sides = (
                side(base, workload, &bound.metric),
                side(new, workload, &bound.metric),
            );
            let worse = |base: f64, new: f64| match bound.better {
                Better::Lower => new > base * (1.0 + bound.bound),
                Better::Higher => new < base * (1.0 - bound.bound),
            };
            let (verdict, base, new) = match sides {
                (Some(base), Some(new)) => {
                    let verdict = if worse(base.value, new.value) {
                        Verdict::Worse
                    } else if worse(base.slice_median, new.slice_median) {
                        Verdict::WorseMedian
                    } else if base.spread.max(new.spread) > bound.bound {
                        Verdict::Unresolved
                    } else {
                        Verdict::Ok
                    };
                    (verdict, base, new)
                }
                _ => {
                    let none = Side {
                        value: f64::NAN,
                        slice_median: f64::NAN,
                        spread: 0.0,
                    };
                    (Verdict::Missing, none, none)
                }
            };
            rows.push(Row {
                workload,
                metric: bound.metric.clone(),
                base: base.value,
                new: new.value,
                base_slice_median: base.slice_median,
                new_slice_median: new.slice_median,
                bound: bound.bound,
                verdict,
            });
        }
    }
    rows
}

pub fn print(rows: &[Row]) {
    println!(
        "{:<20} {:<28} {:>14} {:>14} {:>24} {:>24} {:>6}  verdict",
        "workload", "metric", "base", "new", "new/base", "medians of slices", "bound"
    );
    for row in rows {
        println!(
            "{:<20} {:<28} {:>14.4} {:>14.4} {:>7.4} of {:<13.4} {:>7.4} of {:<13.4} {:>6.2}  {}",
            row.workload,
            row.metric,
            row.base,
            row.new,
            row.new / row.base,
            row.base,
            row.new_slice_median / row.base_slice_median,
            row.base_slice_median,
            row.bound,
            row.verdict.label()
        );
    }
    let count = |verdict: Verdict| rows.iter().filter(|row| row.verdict == verdict).count();
    println!(
        "{} rows: {} ok, {} worse, {} worse-median, {} unresolved, {} missing",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::WorseMedian),
        count(Verdict::Unresolved),
        count(Verdict::Missing)
    );
}

/// `true` unless a row is worse or missing. An unresolved row is not a
/// failure: it is never worse by more than the bound, only too noisy to be
/// called unchanged.
pub fn none_worse(rows: &[Row]) -> bool {
    rows.iter()
        .all(|row| matches!(row.verdict, Verdict::Ok | Verdict::Unresolved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::spec::Bound;

    fn set(value: f64, slice_median: f64, spread: f64) -> Value {
        json::parse(&format!(
            r#"{{"results": [{{"workload": "bank_z_long", "trace": false,
                "metrics": {{"latency_p50_us": {{"value": {value}, "unit": "us"}}}},
                "slice_median": {{"latency_p50_us": {slice_median}}},
                "slice_spread": {{"latency_p50_us": {spread}}}}}]}}"#
        ))
        .expect("test set parses")
    }

    fn verdict(base: &Value, new: &Value) -> Verdict {
        let spec = Spec {
            run_seconds: 20,
            bounds: vec![Bound {
                metric: "latency_p50_us".to_string(),
                better: Better::Lower,
                bound: 0.1,
            }],
        };
        compare(&spec, &[base], &[new])[0].verdict
    }

    #[test]
    fn worse_wins_over_noisy_and_the_median_of_slices_is_judged_too() {
        let base = set(10.0, 11.0, 0.02);
        assert_eq!(verdict(&base, &set(10.9, 12.0, 0.02)), Verdict::Ok);
        assert_eq!(verdict(&base, &set(11.1, 12.0, 0.02)), Verdict::Worse);
        // Noise on either side does not excuse a value that is worse.
        assert_eq!(verdict(&base, &set(11.1, 12.0, 0.5)), Verdict::Worse);
        assert_eq!(
            verdict(&set(10.0, 11.0, 0.5), &set(11.1, 12.0, 0.02)),
            Verdict::Worse
        );
        // The best slices hold and the typical slice does not.
        assert_eq!(verdict(&base, &set(10.0, 12.2, 0.02)), Verdict::WorseMedian);
        // Not worse, but too noisy to be called unchanged.
        assert_eq!(verdict(&base, &set(10.0, 11.0, 0.5)), Verdict::Unresolved);
        let rows = compare(
            &Spec {
                run_seconds: 20,
                bounds: Vec::new(),
            },
            &[&base],
            &[&base],
        );
        assert!(rows.is_empty() && none_worse(&rows));
    }
}
