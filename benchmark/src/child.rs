//! What runs inside the fresh process each workload gets: the timed run, the
//! traced run, or the cost ladder. The last line it prints is
//! `result <json>`; the parent turns that into the line its caller reads.

use std::path::Path;
use std::time::{Duration, Instant};

use zstm_core::{AbortReason, TxKind};

use crate::harness::{run_window, Sliced, WindowOut, WindowSpec, PRIMARY, SECONDARY};
use crate::json::Value;
use crate::trace::{self, Name, Summary};
use crate::workloads::{bank::Bank, map::Map, queue::Queue, server::Server, Workload};
use crate::{affinity, ladder, procfs, spec, stats};

/// Fresh instances of the system per timed run.
const INSTANCES: usize = 5;
/// Slices per window; every sliced metric is read over the slices of every
/// instance. A hundred per run, so that the quiet twentieth (`harness::QUIET`)
/// is the sixth-best slice and a quiet spell of two seconds anywhere in the
/// run is enough to fill it.
const SLICES: usize = 20;
/// The traced run's two windows (plain, then traced) are each this share of
/// `--seconds`.
pub const TRACE_WINDOW_SHARE: f64 = 0.2;

pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: String,
}

/// Metrics in emission order and, for those taken over slices, the slices'
/// own median and spread.
#[derive(Default)]
struct Metrics {
    values: Vec<(String, f64)>,
    medians: Vec<(String, f64)>,
    spreads: Vec<(String, f64)>,
    missing: Vec<String>,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    fn put_sliced(&mut self, name: &str, sliced: Option<Sliced>) {
        match sliced {
            Some(sliced) => {
                self.put(name, sliced.value);
                self.medians.push((name.to_string(), sliced.median));
                self.spreads.push((name.to_string(), sliced.spread));
            }
            None => self.missing.push(name.to_string()),
        }
    }
}

fn window_spec(length_s: f64, trace: bool) -> WindowSpec {
    WindowSpec {
        slices: SLICES,
        slice: Duration::from_secs_f64(length_s / SLICES as f64),
        trace,
    }
}

struct Outcome {
    attempted: u64,
    failed: u64,
    input_hash: u64,
    audit: Result<(), String>,
    metrics: Metrics,
}

/// The timed run, tracing off: `INSTANCES` times over, set the system up
/// afresh and measure it for an equal share of `--seconds`. Every sliced
/// number is taken over the slices of all instances, so one instance's luck
/// with thread placement or heap layout is not the result. Emits the
/// end-to-end metrics.
fn timed_run<W: Workload>(args: &ChildArgs) -> Outcome {
    let inputs = W::generate(args.seed);
    let spec = window_spec(args.seconds / INSTANCES as f64, false);
    let mut audit = Ok(());
    let mut input_hash = 0;
    let mut setups = Vec::new();
    let mut windows = Vec::new();
    for _ in 0..INSTANCES {
        let began = Instant::now();
        let mut workload = W::setup(&inputs, args.smoke);
        setups.push(began.elapsed().as_secs_f64());
        let out = run_window(workload.workers(), &spec);
        input_hash = workload.input_hash();
        audit = audit.and(workload.finish(None).audit);
        windows.push(out);
    }
    let out = windows
        .into_iter()
        .reduce(|mut all: WindowOut, later| {
            all.append(later);
            all
        })
        .expect("at least one instance");
    println!("# {}: set up in {setups:?} s", W::NAME);
    let per_slice: Vec<u64> = out.slices.iter().map(|slice| slice[PRIMARY].ops).collect();
    println!("# {}: primary operations per slice {per_slice:?}", W::NAME);

    let (primary, secondary) = (out.class(PRIMARY), out.class(SECONDARY));
    let mut metrics = Metrics::default();
    // The second fastest of the five, for the reason the slices are read at
    // their quiet end (`harness::QUIET`): a set-up is short enough to fall
    // wholly into one of the host's slow spells, and their median follows
    // whichever speed three of the five happened to meet.
    let by_name = |value: f64| ("setup_s".to_string(), value);
    metrics.put(
        "setup_s",
        stats::quantile(&setups, 0.25).expect("at least one instance"),
    );
    metrics.medians.push(by_name(
        stats::median(&setups).expect("at least one instance"),
    ));
    metrics.spreads.push(by_name(stats::spread(&setups)));
    metrics.put_sliced("throughput_ops_s", primary.throughput_ops_s);
    metrics.put_sliced("latency_p50_us", primary.p50_us);
    metrics.put_sliced("secondary_throughput_ops_s", secondary.throughput_ops_s);
    metrics.put_sliced("secondary_latency_p50_us", secondary.p50_us);
    metrics.put_sliced("cpu_us_per_op", out.cpu_us_per_op());
    metrics.put("rss_peak_mb", procfs::rss_peak_mb());
    Outcome {
        attempted: out.attempted,
        failed: out.failed,
        input_hash,
        audit,
        metrics,
    }
}

fn reason_layer(reason: AbortReason) -> Option<&'static str> {
    Some(match reason {
        AbortReason::ReadValidation => "core.aborts.read_validation",
        AbortReason::WriteConflict => "core.aborts.write_conflict",
        AbortReason::Killed => "core.aborts.killed",
        AbortReason::SnapshotUnavailable => "core.aborts.snapshot_unavailable",
        AbortReason::ZonePassed => "core.aborts.zone_passed",
        AbortReason::ZoneCommitRace => "core.aborts.zone_commit_race",
        AbortReason::ZoneCross => "core.aborts.zone_cross",
        _ => return None,
    })
}

/// The traced run: one set-up, a plain window (the baseline the tracing
/// overhead is measured against), then a traced window on the same system.
/// Emits the workload's share of the per-layer metrics and writes the spans
/// to `<out>/trace-<workload>.json`.
fn traced_run<W: Workload>(args: &ChildArgs) -> Outcome {
    let inputs = W::generate(args.seed);
    let mut workload = W::setup(&inputs, args.smoke);
    let length_s = args.seconds * TRACE_WINDOW_SHARE;
    let plain = run_window(workload.workers(), &window_spec(length_s, false));
    // Discard what warm-up and the plain window counted.
    let _ = workload.take_stats();
    let traced = run_window(workload.workers(), &window_spec(length_s, true));
    let engine_stats = workload.take_stats();
    let input_hash = workload.input_hash();
    let finish = workload.finish(Some(&traced));

    let summary = Summary::of(&traced.tracers);
    let mut metrics = Metrics::default();
    for (layer, name, own) in [
        ("api.atomically_self_ns", Name::Atomically, true),
        ("api.read_i64_ns", Name::ReadI64, false),
        ("api.write_i64_ns", Name::WriteI64, false),
        ("api.long_read_i64_ns", Name::LongReadI64, false),
        ("api.read_bytes_ns", Name::ReadBytes, false),
        ("api.write_bytes_ns", Name::WriteBytes, false),
        ("collections.get_self_ns", Name::MapGet, true),
        ("collections.insert_self_ns", Name::MapInsert, true),
        ("collections.push_self_ns", Name::QueuePush, true),
        ("collections.pop_self_ns", Name::QueuePop, true),
    ] {
        let total = summary.get(name);
        if total.count > 0 {
            metrics.put(
                layer,
                if own {
                    total.mean_self_ns()
                } else {
                    total.mean_ns()
                },
            );
        }
    }
    for (layer, name) in [
        ("server.get_rtt_us_p50", Name::ClientGet),
        ("server.exec_rtt_us_p50", Name::ClientExec),
    ] {
        let mut durations = crate::hist::Hist::new();
        for tracer in &traced.tracers {
            for span in tracer.spans().iter().filter(|span| span.name == name) {
                durations.record(span.end_ns.saturating_sub(span.start_ns));
            }
        }
        if let Some(p50) = durations.quantile(0.5) {
            metrics.put(layer, p50 / 1e3);
        }
    }
    if let Some(stats) = engine_stats {
        let (commits, aborts) = (stats.total_commits(), stats.total_aborts());
        metrics.put("core.commits_short", stats.commits(TxKind::Short) as f64);
        metrics.put("core.commits_long", stats.commits(TxKind::Long) as f64);
        metrics.put("core.aborts_short", stats.aborts(TxKind::Short) as f64);
        metrics.put("core.aborts_long", stats.aborts(TxKind::Long) as f64);
        metrics.put(
            "core.commit_ratio",
            commits as f64 / (commits + aborts).max(1) as f64,
        );
        metrics.put("core.long_given_up", stats.retries_exhausted() as f64);
        for reason in AbortReason::ALL {
            if let Some(layer) = reason_layer(reason) {
                metrics.put(layer, stats.aborts_for(reason) as f64);
            }
        }
        metrics.put(
            "api.blocking_retries_per_op",
            stats.blocking_retries() as f64 / traced.committed().max(1) as f64,
        );
        metrics.put("core.condvar_parks", stats.condvar_parks() as f64);
        metrics.put("core.waker_parks", stats.waker_parks() as f64);
    }
    for (layer, value) in finish.layers {
        metrics.put(layer, value);
    }

    let primary = plain.class(PRIMARY);
    for (layer, value) in [
        (
            "e2e.latency_p90_us",
            primary.p90_us.map(|sliced| sliced.value),
        ),
        ("e2e.latency_p99_us", primary.p99_us),
        ("e2e.latency_p999_us", primary.p999_us),
        (
            "e2e.slice_spread",
            primary.throughput_ops_s.map(|sliced| sliced.spread),
        ),
    ] {
        match value {
            Some(value) => metrics.put(layer, value),
            None => metrics.missing.push(layer.to_string()),
        }
    }
    metrics.put(
        "e2e.failed_share",
        plain.failed as f64 / plain.attempted.max(1) as f64,
    );
    metrics.put(
        "driver.involuntary_ctx_switches",
        plain.involuntary_switches as f64 / length_s,
    );
    // Both classes, so that a workload whose primary class is rarely traced
    // still shows what its secondary class paid.
    let throughput = |out: &WindowOut| out.committed() as f64 / length_s;
    metrics.put(
        "trace.overhead_ratio",
        throughput(&plain) / throughput(&traced).max(f64::MIN_POSITIVE),
    );
    metrics.put("trace.spans_recorded", summary.spans_recorded as f64);

    let file = Path::new(&args.out_dir).join(format!("trace-{}.json", W::NAME));
    let document = trace::to_json(W::NAME, args.seed, &traced.tracers, &summary);
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&file, document.pretty(3)));
    let audit = match written {
        Ok(()) => {
            println!("# {}: trace written to {}", W::NAME, file.display());
            finish.audit
        }
        Err(error) => Err(format!("writing {}: {error}", file.display())),
    };
    Outcome {
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        input_hash,
        audit,
        metrics,
    }
}

fn run_workload<W: Workload>(args: &ChildArgs) -> Outcome {
    // Before any thread is started, so that all of them inherit both.
    match affinity::pin_to_one_cpu() {
        Ok(cpu) => println!("# {}: pinned to CPU {cpu}", W::NAME),
        Err(error) => println!("# {}: NOT pinned to one CPU: {error}", W::NAME),
    }
    if let Err(error) = affinity::raise_priority() {
        println!("# {}: priority NOT raised: {error}", W::NAME);
    }
    if args.trace {
        traced_run::<W>(args)
    } else {
        timed_run::<W>(args)
    }
}

/// Name of the pseudo-workload that runs the cost ladder in its own process.
pub const LADDER: &str = "ladder";

pub fn run(args: &ChildArgs) -> Result<(), String> {
    let outcome = match args.workload.as_str() {
        "bank_z_long" => run_workload::<Bank>(args),
        "map_zipf_lsa" => run_workload::<Map>(args),
        "queue_handoff_tl2" => run_workload::<Queue>(args),
        "server_transfer_cs" => run_workload::<Server>(args),
        LADDER => {
            let metrics = Metrics {
                values: ladder::run(args.seed, args.smoke),
                ..Metrics::default()
            };
            Outcome {
                attempted: metrics.values.len() as u64,
                failed: 0,
                input_hash: 0,
                audit: Ok(()),
                metrics,
            }
        }
        other => return Err(format!("unknown workload '{other}'")),
    };

    let units: Vec<(String, &str)> = spec::END_TO_END
        .iter()
        .map(|(name, unit)| (name.to_string(), *unit))
        .chain(
            spec::per_layer()
                .into_iter()
                .map(|layer| (layer.name, layer.unit)),
        )
        .collect();
    let unit_of = |name: &str| -> Result<&str, String> {
        units
            .iter()
            .find(|(known, _)| known == name)
            .map(|(_, unit)| *unit)
            .ok_or_else(|| format!("metric '{name}' has no declared unit"))
    };
    let mut metrics = Vec::new();
    for (name, value) in &outcome.metrics.values {
        let fields = vec![
            ("value", Value::Num(*value)),
            ("unit", Value::str(unit_of(name)?)),
        ];
        metrics.push((name.clone(), Value::obj(fields)));
    }
    let audit = match (&outcome.audit, outcome.metrics.missing.as_slice()) {
        (Err(broken), _) => broken.clone(),
        (Ok(()), []) => "ok".to_string(),
        (Ok(()), missing) => format!("no samples for {}", missing.join(", ")),
    };
    let by_name = |pairs: &[(String, f64)]| {
        Value::Obj(
            pairs
                .iter()
                .map(|(name, value)| (name.clone(), Value::Num(*value)))
                .collect(),
        )
    };
    let result = Value::obj(vec![
        ("workload", Value::str(&args.workload)),
        ("trace", Value::Bool(args.trace)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("correct", Value::Bool(audit == "ok")),
        ("audit", Value::str(&audit)),
        ("attempted", Value::Num(outcome.attempted as f64)),
        ("failed", Value::Num(outcome.failed as f64)),
        (
            "input_hash",
            Value::str(&format!("{:016x}", outcome.input_hash)),
        ),
        ("metrics", Value::Obj(metrics)),
        ("slice_median", by_name(&outcome.metrics.medians)),
        ("slice_spread", by_name(&outcome.metrics.spreads)),
    ]);
    println!("result {result}");
    Ok(())
}
