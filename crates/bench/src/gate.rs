//! The figure gates: what `check_figures` evaluates on the sweep it has
//! just run, every figure at [`THREADS`] and [`WINDOW`].
//!
//! Only **relative shapes** are judged. A [`Gate::Ratio`] checks the ratio
//! between two series of one figure at the highest x they share against a
//! constant floor, which each entry of the table justifies beside it. A
//! [`Gate::Shape`] inspects a whole figure — every point of every series
//! it cares about — against the figure's own curve. Both are portable
//! across machines even though the absolute numbers are not; every floor
//! is calibrated on the sweep below, so `check_figures` takes no options.

use std::time::Duration;

use zstm_workload::Series;

use crate::json::Figure;
use crate::GOODPUT;

/// The thread counts `check_figures` sweeps every figure at.
pub const THREADS: [usize; 3] = [1, 2, 4];

/// The timed window of every point `check_figures` measures.
pub const WINDOW: Duration = Duration::from_millis(150);

/// One assertion about a figure's first file.
#[derive(Clone, Copy, Debug)]
pub enum Gate {
    /// `numerator / denominator` at the top x must stay at or above
    /// `floor`.
    Ratio {
        /// Label of the series that must hold up.
        numerator: &'static str,
        /// Label of the series it is measured against.
        denominator: &'static str,
        /// What the rule enforces, for the report.
        claim: &'static str,
        /// The lowest ratio that still holds the claim.
        floor: f64,
    },
    /// A property of the whole figure.
    Shape {
        /// What the rule enforces, for the report.
        claim: &'static str,
        /// Returns a one-line verdict on success, the violation on failure.
        check: fn(&Figure) -> Result<String, String>,
    },
}

impl Gate {
    /// What the rule enforces.
    pub fn claim(&self) -> &'static str {
        match self {
            Gate::Ratio { claim, .. } | Gate::Shape { claim, .. } => claim,
        }
    }

    /// Evaluates the gate on a figure's first file.
    ///
    /// # Errors
    ///
    /// Returns the violated claim, or why the figure could not be judged.
    pub fn check(&self, figure: &Figure) -> Result<String, String> {
        let violated = |e: String| format!("{e}\n    CLAIM VIOLATED: {}", self.claim());
        let name = &figure.name;
        match *self {
            Gate::Ratio {
                numerator,
                denominator,
                floor,
                ..
            } => {
                let (ratio, x) = ratio_at_top(figure, numerator, denominator)?;
                let verdict = format!(
                    "{name}: {numerator} / {denominator} = {ratio:.3} at x = {x} (floor {floor:.2})"
                );
                if ratio >= floor {
                    Ok(verdict)
                } else {
                    Err(violated(verdict))
                }
            }
            Gate::Shape { check, .. } => check(figure)
                .map(|verdict| format!("{name}: {verdict}"))
                .map_err(|e| violated(format!("{name}: {e}"))),
        }
    }
}

/// Goodput may wobble under overload but must never collapse: every
/// point of the overload sweep has to stay above this fraction of the
/// figure's own peak goodput. A server without admission control fails
/// this as offered load grows — excess work queues behind the admission
/// slot and drags every response down with it.
const GOODPUT_FLOOR_FRACTION: f64 = 0.2;

pub(crate) fn goodput_floor(figure: &Figure) -> Result<String, String> {
    let goodput = figure
        .series(GOODPUT)
        .ok_or_else(|| format!("no series '{GOODPUT}'"))?;
    if goodput.points.len() < 2 {
        return Err(format!(
            "series '{GOODPUT}' has {} point(s); the rule needs a sweep of at least 2",
            goodput.points.len()
        ));
    }
    let peak = goodput.points.iter().map(|&(_, y)| y).fold(0.0, f64::max);
    if peak <= 0.0 {
        return Err("goodput never rises above zero".to_string());
    }
    let floor = peak * GOODPUT_FLOOR_FRACTION;
    for &(x, y) in &goodput.points {
        if y < floor {
            return Err(format!(
                "goodput {y:.1} at x = {x} collapsed below {floor:.1} \
                 ({GOODPUT_FLOOR_FRACTION} × peak {peak:.1})"
            ));
        }
    }
    Ok(format!(
        "goodput stays within [{floor:.1}, {peak:.1}] across the sweep \
         (floor = {GOODPUT_FLOOR_FRACTION} × peak)"
    ))
}

/// Run-to-run tolerance for the conflict-granularity rule: the
/// finest-grained point may sit this far below the coarsest before the
/// shape counts as broken. Below parity on purpose: on a single-core box
/// fine buckets mostly buy *absence of aborts* rather than raw speed, and
/// the extra buckets cost a little per-transaction hashing — the rule
/// exists to catch fine-grained throughput *collapsing* against the
/// one-bucket map, which would mean per-bucket `TVar`s stopped paying for
/// themselves.
const GRANULARITY_TOLERANCE: f64 = 0.85;

pub(crate) fn collections_granularity(figure: &Figure) -> Result<String, String> {
    if figure.series.is_empty() {
        return Err("figure has no series".to_string());
    }
    let mut verdicts = Vec::new();
    for series in &figure.series {
        if series.points.len() < 2 {
            return Err(format!(
                "series '{}' has {} point(s); the granularity rule needs a bucket sweep",
                series.label,
                series.points.len()
            ));
        }
        // Points are pushed coarse-to-fine (x = bucket count).
        let &(coarse_x, coarse_y) = series.points.first().expect("len checked above");
        let &(fine_x, fine_y) = series.points.last().expect("len checked above");
        let floor = coarse_y * GRANULARITY_TOLERANCE;
        if fine_y < floor {
            return Err(format!(
                "'{}': {fine_y:.1} ops/s at {fine_x} buckets fell below \
                 {floor:.1} ({GRANULARITY_TOLERANCE} × {coarse_y:.1} at \
                 {coarse_x} bucket(s))",
                series.label
            ));
        }
        verdicts.push(format!(
            "{} {:.2}x",
            series.label,
            fine_y / coarse_y.max(f64::MIN_POSITIVE)
        ));
    }
    Ok(format!(
        "fine-grained buckets hold against coarse ({})",
        verdicts.join(", ")
    ))
}

/// Ratio `numerator / denominator` at the highest x the two series share.
fn ratio_at_top(figure: &Figure, numerator: &str, denominator: &str) -> Result<(f64, f64), String> {
    let series = |label: &str| {
        figure
            .series(label)
            .ok_or_else(|| format!("{}: no series '{label}'", figure.name))
    };
    let (num, den) = (series(numerator)?, series(denominator)?);
    let top = num
        .points
        .iter()
        .map(|&(x, _)| x)
        .filter(|x| den.points.iter().any(|&(dx, _)| dx == *x))
        .fold(f64::NEG_INFINITY, f64::max);
    if !top.is_finite() {
        return Err(format!(
            "{}: series '{numerator}' and '{denominator}' share no x values",
            figure.name
        ));
    }
    let at = |s: &Series| {
        s.points
            .iter()
            .find(|&&(x, _)| x == top)
            .map(|&(_, y)| y)
            .expect("top x chosen from shared points")
    };
    let (n, d) = (at(num), at(den));
    if d <= 0.0 {
        return Err(format!(
            "{}: denominator series '{denominator}' is zero at x = {top}",
            figure.name
        ));
    }
    Ok((n / d, top))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FIGURES;

    fn figure(name: &str, series: &[(&str, &[(f64, f64)])]) -> Figure {
        let series = series
            .iter()
            .map(|&(label, points)| {
                let mut s = Series::new(label);
                for &(x, y) in points {
                    s.push(x, y);
                }
                s
            })
            .collect();
        Figure {
            name: name.to_string(),
            series,
        }
    }

    /// Every ratio rule of the table, judged through `FigureDef::judge` on
    /// a two-series figure just above and just below its floor: the first
    /// passes, the second names the violated claim.
    #[test]
    fn every_ratio_floor_passes_above_and_fails_below() {
        let mut judged = 0;
        for def in FIGURES {
            for (i, gate) in def.gates.iter().enumerate() {
                let Gate::Ratio {
                    numerator,
                    denominator,
                    floor,
                    ..
                } = *gate
                else {
                    continue;
                };
                let at = |factor: f64| {
                    let den: &[(f64, f64)] = &[(1.0, 100.0), (4.0, 100.0)];
                    let num: &[(f64, f64)] = &[(1.0, 100.0), (4.0, 100.0 * floor * factor)];
                    def.judge(&figure(def.stem(), &[(numerator, num), (denominator, den)]))
                };
                let above = at(1.01);
                assert_eq!(above.len(), def.gates.len(), "{}", def.name);
                assert!(above[i].is_ok(), "{}: {:?}", def.name, above[i]);
                let below = at(0.99);
                assert!(violated(below[i].clone()), "{}: {:?}", def.name, below[i]);
                judged += 1;
            }
        }
        assert_eq!(judged, 5, "fig7, map, server twice, certify");
    }

    /// The verdict of the one gate the table gives figure `name`.
    fn verdict(name: &str, figure: &Figure) -> Result<String, String> {
        let def = FIGURES.iter().find(|def| def.name == name);
        let [verdict] = &def.expect(name).judge(figure)[..] else {
            panic!("{name}: one gate");
        };
        verdict.clone()
    }

    fn violated(verdict: Result<String, String>) -> bool {
        verdict.is_err_and(|message| message.contains("CLAIM VIOLATED"))
    }

    #[test]
    fn goodput_fails_on_a_collapse_and_holds_when_flat() {
        let goodput = |last: f64| {
            let points: &[(f64, f64)] = &[(1.0, 100.0), (4.0, 100.0), (8.0, last)];
            verdict("overload", &figure("overload", &[(GOODPUT, points)]))
        };
        assert!(goodput(95.0).is_ok());
        assert!(violated(goodput(19.0)));
    }

    #[test]
    fn granularity_fails_on_a_collapse_and_holds_when_flat() {
        let granularity = |last: f64| {
            let points: &[(f64, f64)] = &[(1.0, 100.0), (16.0, 100.0), (64.0, last)];
            let series = [("LSA-STM", points), ("Z-STM", &[(1.0, 50.0), (64.0, 50.0)])];
            verdict("collections", &figure("collections", &series))
        };
        assert!(granularity(100.0).is_ok());
        assert!(violated(granularity(84.0)));
    }
}
