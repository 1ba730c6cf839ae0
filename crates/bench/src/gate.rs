//! The bench-baseline regression gates: what `check_baselines` evaluates
//! for every [`Baseline`] of the figure table.
//!
//! Only **relative shapes** are compared. A [`Gate::Ratio`] checks the
//! ratio between two series of one figure at the highest x they share,
//! against a floor derived from the committed baseline's ratio, so a
//! genuine regression fails while run-to-run noise passes. A
//! [`Gate::Shape`] inspects a whole figure — every point of every series
//! it cares about — and is applied to the committed baseline as well as
//! the fresh run, so a reference that never had the shape (e.g.
//! hand-edited) fails just like a fresh regression.

use std::path::Path;

use zstm_workload::Series;

use crate::json::{from_json, Figure};
use crate::GOODPUT;

/// A figure's committed reference: `baselines/<first stem>.json`.
#[derive(Clone, Copy, Debug)]
pub struct Baseline {
    /// `(--duration-ms, --threads)` that regenerate the file.
    pub reseed: (u64, &'static str),
    /// What the file and a fresh run are held to; at least one.
    pub gates: &'static [Gate],
}

/// One assertion about a figure's first file.
#[derive(Clone, Copy, Debug)]
pub enum Gate {
    /// `numerator / denominator` at the top x must stay above a floor.
    Ratio {
        /// Label of the series that must hold up.
        numerator: &'static str,
        /// Label of the series it is measured against.
        denominator: &'static str,
        /// What the rule enforces, for the report.
        claim: &'static str,
        /// Floor for the fresh ratio given the baseline ratio.
        floor: fn(f64) -> f64,
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

    /// Evaluates the gate on `<stem>.json` of both directories.
    ///
    /// # Errors
    ///
    /// Returns the violated claim, or why a file could not be judged.
    pub fn check(
        &self,
        stem: &str,
        fresh_dir: &Path,
        baseline_dir: &Path,
    ) -> Result<String, String> {
        let violated = |e: String| format!("{e}\n    CLAIM VIOLATED: {}", self.claim());
        let baseline = load_figure(baseline_dir, stem)?;
        let fresh = load_figure(fresh_dir, stem);
        match *self {
            Gate::Ratio {
                numerator,
                denominator,
                floor,
                ..
            } => {
                let (fresh_ratio, fresh_x) = ratio_at_top(&fresh?, numerator, denominator)?;
                let (baseline_ratio, baseline_x) = ratio_at_top(&baseline, numerator, denominator)?;
                let floor = floor(baseline_ratio);
                let verdict = format!(
                    "{stem}: {numerator} / {denominator} = {fresh_ratio:.3} at x = {fresh_x} \
                     (baseline {baseline_ratio:.3} at x = {baseline_x}, floor {floor:.3})"
                );
                if fresh_ratio >= floor {
                    Ok(verdict)
                } else {
                    Err(violated(verdict))
                }
            }
            Gate::Shape { check, .. } => {
                check(&baseline)
                    .map_err(|e| violated(format!("{stem} (committed baseline): {e}")))?;
                let verdict = check(&fresh?).map_err(|e| violated(format!("{stem}: {e}")))?;
                Ok(format!("{stem}: {verdict}"))
            }
        }
    }
}

/// The floor policy for "the optimization must win" rules: the
/// win is a contention effect, so a hard `>= 1.0` floor only applies on
/// machines with at least `min_cores` hardware threads (while always
/// keeping half of the committed baseline's headroom); smaller boxes —
/// the single-core paper-repro container, but also small shared CI
/// runners, where the win is too noise-prone to hard-gate — only
/// enforce the baseline-relative shape.
pub(crate) fn contention_gated_floor(baseline: f64, min_cores: usize) -> f64 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= min_cores {
        (baseline * 0.5).max(1.0)
    } else {
        baseline * 0.5
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

fn load_figure(dir: &Path, stem: &str) -> Result<Figure, String> {
    let path = dir.join(format!("{stem}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
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
