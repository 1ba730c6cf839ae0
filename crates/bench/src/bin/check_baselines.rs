//! The bench-baseline regression gate.
//!
//! ```text
//! check-baselines [--fresh DIR] [--baselines DIR]
//! ```
//!
//! Reads the JSON series a fresh `repro_figures` run wrote under `--fresh`
//! (default `target/figures`) plus the committed reference series under
//! `--baselines` (default `baselines/`), and asserts that the **relative
//! shapes** still hold. Absolute throughput is machine-dependent and never
//! compared; each rule checks a ratio between two series of one figure at
//! the highest measured thread count, with a floor derived from the
//! committed baseline's ratio so a genuine regression fails while run-to-
//! run noise passes:
//!
//! * `clock_contention` — `ShardedClock` must beat `ScalarClock` (the
//!   sharded time base exists to win under contention);
//! * `fig7_totals` — Z-STM must sustain update Compute-Totals where LSA
//!   degrades (the paper's headline separation);
//! * `map` — LSA over the sharded clock must not regress against LSA over
//!   the scalar clock on the read-dominated map;
//! * `certify` — the online SSI certifier serializes every begin, read
//!   and commit through one global mutex, so native CS-STM must out-run
//!   its certified wrapper; the rule bounds how *cheap* certification is
//!   allowed to look (a collapsing ratio means the native engine — not
//!   the certifier — regressed);
//! * `server` — two rules on the TCP front end's RPS figure: the
//!   fault-free link must out-run the chaos-delayed one (a per-read
//!   delay is injected, so parity means the delay is not being paid —
//!   i.e. the measured path is broken), and execution width two must
//!   not regress against width one on the transfer workload.
//!
//! A second family of rules gates whole-figure **shapes** rather than
//! series ratios (applied to the fresh run *and* to the committed
//! baseline, so a hand-edited reference fails too):
//!
//! * `overload` — the tight-limits overload sweep must show admission
//!   control working: the shed rate is monotone non-decreasing in
//!   offered load (small tolerance for run-to-run noise) and strictly
//!   positive at the top offered load, while goodput never collapses
//!   below a fixed fraction of its own peak — flat goodput under 10×
//!   load is the whole point of load shedding;
//! * `collections` — the `TMap` conflict-granularity sweep must show
//!   per-bucket conflict detection working: at a fixed key range, the
//!   fine-grained bucket count must not collapse against one coarse
//!   bucket on an update-heavy mix (disjoint keys in distinct buckets
//!   never conflict, so losing to a single serialization point means
//!   the per-bucket `TVar` layout stopped paying for itself).
//!
//! Exit status 0 when every rule passes, 1 otherwise — wire it after a
//! short `repro_figures fig7 / map / collections / clocks / certify /
//! server / overload` run in CI (every gated figure's fresh `.json` must
//! exist under `--fresh`). The `queue` and `queue-async` figures are swept
//! and saved beside them but not gated: their rules compared parking
//! against a spin shape the API no longer has.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use zstm_bench::json::{from_json, Figure};

/// One relative-shape assertion: `numerator / denominator` at the highest
/// common thread count of figure `file` must stay above a floor derived
/// from the committed baseline's ratio.
struct Rule {
    /// Figure file stem (`<file>.json` in both directories).
    file: &'static str,
    numerator: &'static str,
    denominator: &'static str,
    /// What the rule enforces, for the report.
    claim: &'static str,
    /// Floor for the fresh ratio given the baseline ratio.
    floor: fn(f64) -> f64,
}

/// The floor policy for "the optimization must win" rules: the
/// win is a contention effect, so a hard `>= 1.0` floor only applies on
/// machines with at least `min_cores` hardware threads (while always
/// keeping half of the committed baseline's headroom); smaller boxes —
/// the single-core paper-repro container, but also small shared CI
/// runners, where the win is too noise-prone to hard-gate — only
/// enforce the baseline-relative shape.
fn contention_gated_floor(baseline: f64, min_cores: usize) -> f64 {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= min_cores {
        (baseline * 0.5).max(1.0)
    } else {
        baseline * 0.5
    }
}

const RULES: &[Rule] = &[
    Rule {
        file: "clock_contention",
        numerator: "ShardedClock",
        denominator: "ScalarClock",
        claim: "sharded clock beats the scalar fetch-add clock at the top thread count",
        // The sharded clock's win trades a couple of extra uncontended
        // atomics per stamp for keeping the shared line read-mostly; the
        // hard floor needs >= 8 hardware threads (2-4-vCPU runners are
        // too noise-prone for it).
        floor: |baseline| contention_gated_floor(baseline, 8),
    },
    Rule {
        file: "fig7_totals",
        numerator: "Z-STM",
        denominator: "LSA-STM",
        claim: "Z-STM sustains update Compute-Totals vs LSA (Figure 7 separation)",
        floor: |baseline| (baseline * 0.25).max(1.0),
    },
    Rule {
        file: "certify",
        numerator: "CS-STM",
        denominator: "CS-STM (certified)",
        claim: "native CS-STM out-runs its globally-serialized certified wrapper",
        // The certifier's single cert mutex caps the certified engine at
        // roughly single-threaded throughput, so the native/certified
        // ratio is >= 1 on any machine and grows with cores. The hard 1.0
        // floor holds everywhere; the baseline factor catches a native
        // CS-STM throughput collapse hiding behind a still-true ">= 1".
        floor: |baseline| (baseline * 0.5).max(1.0),
    },
    Rule {
        file: "server",
        numerator: "LSA-STM",
        denominator: "LSA-STM (chaos)",
        claim: "the fault-free link out-runs the chaos link with a per-read delay injected",
        // The chaos series pays a fixed sleep on every server-side read,
        // so the fault-free shape wins on any machine: a hard 1.0 floor
        // holds everywhere, and the baseline factor catches the fault-free
        // path collapsing toward the delayed one.
        floor: |baseline| (baseline * 0.25).max(1.0),
    },
    Rule {
        file: "server",
        numerator: "LSA-STM",
        denominator: "LSA-STM (serial)",
        claim: "execution width two does not regress against one on the server transfer workload",
        // Non-regression rule (same policy as `map`): on small
        // boxes a second permit buys nothing (the link, not the engine, is
        // the bottleneck) and the two shapes tie within noise; a gate that
        // convoys collapses the ratio and fails.
        floor: |baseline| (baseline * 0.7).min(0.8),
    },
    Rule {
        file: "map",
        numerator: "LSA-STM (sharded)",
        denominator: "LSA-STM (scalar)",
        claim: "sharded time base does not regress the read-dominated map on LSA",
        // Non-regression rule: the sharded clock must stay within noise of
        // the scalar clock even on boxes too small for it to win (the 0.8
        // cap keeps the floor below parity so run-to-run noise passes, and
        // the baseline factor keeps a real 30 %+ regression failing).
        floor: |baseline| (baseline * 0.7).min(0.8),
    },
];

/// One whole-figure shape assertion. Unlike [`Rule`] (a ratio between two
/// series at one x), a shape rule inspects a full figure — every point of
/// every series it cares about — and is applied to the committed baseline
/// as well as the fresh run, so a reference that never had the shape
/// (e.g. hand-edited) fails the gate just like a fresh regression.
struct ShapeRule {
    /// Figure file stem (`<file>.json` in both directories).
    file: &'static str,
    /// What the rule enforces, for the report.
    claim: &'static str,
    /// Returns a one-line verdict on success, the violation on failure.
    check: fn(&Figure) -> Result<String, String>,
}

/// Run-to-run tolerance for the monotone shed-rate rule: one point may
/// sit this far below its predecessor before the shape counts as broken
/// (shed rates are ratios in [0, 1], so this is 10 points of rate).
const SHED_RATE_TOLERANCE: f64 = 0.1;

/// Goodput may wobble under overload but must never collapse: every
/// point of the overload sweep has to stay above this fraction of the
/// figure's own peak goodput. A server without admission control fails
/// this as offered load grows — excess work queues behind the admission
/// slot and drags every response down with it.
const GOODPUT_FLOOR_FRACTION: f64 = 0.2;

fn overload_series<'a>(
    figure: &'a Figure,
    label: &str,
) -> Result<&'a zstm_workload::Series, String> {
    let series = figure
        .series(label)
        .ok_or_else(|| format!("no series '{label}'"))?;
    if series.points.len() < 2 {
        return Err(format!(
            "series '{label}' has {} point(s); the shape rules need a sweep of at least 2",
            series.points.len()
        ));
    }
    Ok(series)
}

fn shed_rate_monotone(figure: &Figure) -> Result<String, String> {
    let shed = overload_series(figure, "shed-rate")?;
    for pair in shed.points.windows(2) {
        let ((x0, y0), (x1, y1)) = (pair[0], pair[1]);
        if y1 < y0 - SHED_RATE_TOLERANCE {
            return Err(format!(
                "shed rate falls from {y0:.3} at x = {x0} to {y1:.3} at x = {x1} \
                 (tolerance {SHED_RATE_TOLERANCE})"
            ));
        }
    }
    let &(first_x, first_y) = shed.points.first().expect("len checked above");
    let &(top_x, top_y) = shed.points.last().expect("len checked above");
    if top_y <= 0.0 {
        return Err(format!(
            "shed rate is {top_y:.3} at the top offered load x = {top_x}; \
             an overloaded server that sheds nothing is queueing instead"
        ));
    }
    Ok(format!(
        "shed rate climbs {first_y:.3} → {top_y:.3} over x = {first_x}..{top_x}"
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

fn collections_granularity(figure: &Figure) -> Result<String, String> {
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

fn goodput_floor(figure: &Figure) -> Result<String, String> {
    let goodput = overload_series(figure, "goodput")?;
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

const SHAPE_RULES: &[ShapeRule] = &[
    ShapeRule {
        file: "overload",
        claim: "shed rate is monotone non-decreasing in offered load and positive under overload",
        check: shed_rate_monotone,
    },
    ShapeRule {
        file: "overload",
        claim: "goodput stays flat under overload instead of collapsing below its floor",
        check: goodput_floor,
    },
    ShapeRule {
        file: "collections",
        claim: "per-bucket conflict granularity: fine-grained TMap buckets do not collapse \
                against one coarse bucket at an equal key range",
        check: collections_granularity,
    },
];

fn load_figure(dir: &Path, file: &str) -> Result<Figure, String> {
    let path = dir.join(format!("{file}.json"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    from_json(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Ratio `numerator / denominator` at the highest x the two series share.
fn ratio_at_top(figure: &Figure, rule: &Rule) -> Result<(f64, f64), String> {
    let num = figure
        .series(rule.numerator)
        .ok_or_else(|| format!("{}: no series '{}'", figure.name, rule.numerator))?;
    let den = figure
        .series(rule.denominator)
        .ok_or_else(|| format!("{}: no series '{}'", figure.name, rule.denominator))?;
    let top = num
        .points
        .iter()
        .map(|&(x, _)| x)
        .filter(|x| den.points.iter().any(|&(dx, _)| dx == *x))
        .fold(f64::NEG_INFINITY, f64::max);
    if !top.is_finite() {
        return Err(format!(
            "{}: series '{}' and '{}' share no x values",
            figure.name, rule.numerator, rule.denominator
        ));
    }
    let at = |s: &zstm_workload::Series| {
        s.points
            .iter()
            .find(|&&(x, _)| x == top)
            .map(|&(_, y)| y)
            .expect("top x chosen from shared points")
    };
    let (n, d) = (at(num), at(den));
    if d <= 0.0 {
        return Err(format!(
            "{}: denominator series '{}' is zero at x = {top}",
            figure.name, rule.denominator
        ));
    }
    Ok((n / d, top))
}

fn check(rule: &Rule, fresh_dir: &Path, baseline_dir: &Path) -> Result<String, String> {
    let fresh = load_figure(fresh_dir, rule.file)?;
    let baseline = load_figure(baseline_dir, rule.file)?;
    let (fresh_ratio, fresh_x) = ratio_at_top(&fresh, rule)?;
    let (baseline_ratio, baseline_x) = ratio_at_top(&baseline, rule)?;
    let floor = (rule.floor)(baseline_ratio);
    let verdict = format!(
        "{}: {} / {} = {:.3} at x = {} (baseline {:.3} at x = {}, floor {:.3})",
        rule.file,
        rule.numerator,
        rule.denominator,
        fresh_ratio,
        fresh_x,
        baseline_ratio,
        baseline_x,
        floor
    );
    if fresh_ratio >= floor {
        Ok(verdict)
    } else {
        Err(format!("{verdict}\n    CLAIM VIOLATED: {}", rule.claim))
    }
}

fn check_shape(rule: &ShapeRule, fresh_dir: &Path, baseline_dir: &Path) -> Result<String, String> {
    let baseline = load_figure(baseline_dir, rule.file)?;
    (rule.check)(&baseline).map_err(|e| {
        format!(
            "{} (committed baseline): {e}\n    CLAIM VIOLATED: {}",
            rule.file, rule.claim
        )
    })?;
    let fresh = load_figure(fresh_dir, rule.file)?;
    let verdict = (rule.check)(&fresh)
        .map_err(|e| format!("{}: {e}\n    CLAIM VIOLATED: {}", rule.file, rule.claim))?;
    Ok(format!("{}: {verdict}", rule.file))
}

fn main() -> ExitCode {
    let mut fresh_dir = PathBuf::from("target/figures");
    let mut baseline_dir = PathBuf::from("baselines");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fresh" => fresh_dir = PathBuf::from(args.next().expect("--fresh needs a path")),
            "--baselines" => {
                baseline_dir = PathBuf::from(args.next().expect("--baselines needs a path"))
            }
            other => {
                eprintln!("unknown flag: {other} (expected --fresh DIR / --baselines DIR)");
                return ExitCode::from(2);
            }
        }
    }

    println!(
        "check-baselines: fresh = {}, baselines = {}",
        fresh_dir.display(),
        baseline_dir.display()
    );
    let mut failures = 0;
    for rule in RULES {
        match check(rule, &fresh_dir, &baseline_dir) {
            Ok(verdict) => println!("  ok   {verdict}"),
            Err(message) => {
                println!("  FAIL {message}");
                failures += 1;
            }
        }
    }
    for rule in SHAPE_RULES {
        match check_shape(rule, &fresh_dir, &baseline_dir) {
            Ok(verdict) => println!("  ok   {verdict}"),
            Err(message) => {
                println!("  FAIL {message}");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        println!(
            "all {} relative-shape and figure-shape rules hold",
            RULES.len() + SHAPE_RULES.len()
        );
        ExitCode::SUCCESS
    } else {
        println!("{failures} rule(s) violated");
        ExitCode::FAILURE
    }
}
