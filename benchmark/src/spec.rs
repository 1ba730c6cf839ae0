//! The benchmark's contract: `BENCHMARK.json`, embedded at build time and
//! checked against the names this program emits. A name on one side only is
//! a refusal to start — a metric nobody declared, or a declared metric
//! nobody measures, would otherwise go unnoticed until a claim rested on it.

use crate::json::{self, Value};

const SPEC_TEXT: &str = include_str!("../../BENCHMARK.json");

pub const WORKLOADS: [&str; 4] = [
    "bank_z_long",
    "map_zipf_lsa",
    "queue_handoff_tl2",
    "server_transfer_cs",
];

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("secondary_throughput_ops_s", "1/s"),
    ("secondary_latency_p50_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_peak_mb", "MB"),
];

const ENGINES: [&str; 5] = ["lsa", "tl2", "cs", "sstm", "z"];

/// Who measures a per-layer metric. A traced run must carry every name its
/// workload owns and the ladder's; a name that only other workloads own reads
/// 0 there. Without this a metric that stopped being measured (a renamed
/// span, a probe that gave up) would read 0 too, and look like a gain.
#[derive(Clone, Copy)]
pub enum Owner {
    /// The single-threaded cost ladder, measured beside every traced run.
    Ladder,
    /// The driver, on every workload.
    Every,
    Only(&'static [&'static str]),
}

const BANK: &str = WORKLOADS[0];
const MAP: &str = WORKLOADS[1];
const QUEUE: &str = WORKLOADS[2];
const SERVER: &str = WORKLOADS[3];
const LADDER: Owner = Owner::Ladder;
const EVERY: Owner = Owner::Every;
const ON_BANK: Owner = Owner::Only(&[BANK]);
const ON_MAP: Owner = Owner::Only(&[MAP]);
const ON_QUEUE: Owner = Owner::Only(&[QUEUE]);
const ON_SERVER: Owner = Owner::Only(&[SERVER]);
/// The workloads whose engine is in the benchmark's own process.
const IN_PROCESS: Owner = Owner::Only(&[BANK, MAP, QUEUE]);
/// `TQueue` keeps its head and tail in integer variables, its items in bytes.
const ON_INTEGERS: Owner = Owner::Only(&[BANK, QUEUE]);
const ON_BYTES: Owner = Owner::Only(&[MAP, QUEUE]);

/// `(name, unit, owner)`; `{e}` stands for each engine in turn.
const PER_LAYER: &[(&str, &str, Owner)] = &[
    ("clock.commit_stamp_ns.scalar", "ns", LADDER),
    ("clock.commit_stamp_ns.sharded", "ns", LADDER),
    ("core.spi_transfer_ns.{e}", "ns", LADDER),
    ("core.spi_transfer_allocs.{e}", "count", LADDER),
    ("api.typed_transfer_ns.{e}", "ns", LADDER),
    ("api.typed_transfer_allocs.{e}", "count", LADDER),
    ("api.erased_transfer_ns.{e}", "ns", LADDER),
    ("api.erased_transfer_allocs.{e}", "count", LADDER),
    ("certify.erased_transfer_ns.lsa", "ns", LADDER),
    ("collections.tmap_transfer_ns.{e}", "ns", LADDER),
    ("collections.tmap_transfer_allocs.{e}", "count", LADDER),
    ("api.atomically_self_ns", "ns", IN_PROCESS),
    ("api.read_i64_ns", "ns", ON_INTEGERS),
    ("api.write_i64_ns", "ns", ON_INTEGERS),
    ("api.long_read_i64_ns", "ns", ON_BANK),
    ("core.commits_short", "count", IN_PROCESS),
    ("core.commits_long", "count", IN_PROCESS),
    ("core.aborts_short", "count", IN_PROCESS),
    ("core.aborts_long", "count", IN_PROCESS),
    ("core.commit_ratio", "ratio", IN_PROCESS),
    ("core.long_given_up", "count", IN_PROCESS),
    ("core.aborts.read_validation", "count", IN_PROCESS),
    ("core.aborts.write_conflict", "count", IN_PROCESS),
    ("core.aborts.killed", "count", IN_PROCESS),
    ("core.aborts.snapshot_unavailable", "count", IN_PROCESS),
    ("core.aborts.zone_passed", "count", IN_PROCESS),
    ("core.aborts.zone_commit_race", "count", IN_PROCESS),
    ("core.aborts.zone_cross", "count", IN_PROCESS),
    ("collections.get_self_ns", "ns", ON_MAP),
    ("collections.insert_self_ns", "ns", ON_MAP),
    ("api.read_bytes_ns", "ns", ON_BYTES),
    ("api.write_bytes_ns", "ns", ON_BYTES),
    ("collections.bytes_read_per_get", "B", ON_MAP),
    ("collections.push_self_ns", "ns", ON_QUEUE),
    ("collections.pop_self_ns", "ns", ON_QUEUE),
    ("api.wake_us_p50.condvar", "us", ON_QUEUE),
    ("api.wake_us_p50.waker", "us", ON_QUEUE),
    ("api.blocking_retries_per_op", "ratio", IN_PROCESS),
    ("core.condvar_parks", "count", IN_PROCESS),
    ("core.waker_parks", "count", IN_PROCESS),
    ("server.encode_request_ns", "ns", LADDER),
    ("server.parse_request_ns", "ns", LADDER),
    ("server.command_parse_ns", "ns", LADDER),
    ("server.resolve_compile_ns", "ns", LADDER),
    ("server.reply_encode_ns", "ns", LADDER),
    ("server.parse_reply_ns", "ns", LADDER),
    ("server.inproc_exec_ns", "ns", LADDER),
    ("server.ping_rtt_us_p50", "us", ON_SERVER),
    ("server.get_rtt_us_p50", "us", ON_SERVER),
    ("server.exec_rtt_us_p50", "us", ON_SERVER),
    ("server.frames_per_transfer", "count", ON_SERVER),
    ("server.wait_wake_us_p50", "us", ON_SERVER),
    ("server.stats.commits", "count", ON_SERVER),
    ("server.stats.conflict_aborts", "count", ON_SERVER),
    ("server.stats.busy", "count", ON_SERVER),
    ("server.stats.timeouts", "count", ON_SERVER),
    ("e2e.latency_p90_us", "us", EVERY),
    ("e2e.latency_p99_us", "us", EVERY),
    ("e2e.latency_p999_us", "us", EVERY),
    ("e2e.failed_share", "ratio", EVERY),
    ("e2e.slice_spread", "ratio", EVERY),
    ("driver.involuntary_ctx_switches", "1/s", EVERY),
    ("trace.overhead_ratio", "ratio", EVERY),
    ("trace.spans_recorded", "count", EVERY),
];

pub struct Layer {
    pub name: String,
    pub unit: &'static str,
    pub owner: Owner,
}

/// Every per-layer metric, engines expanded.
pub fn per_layer() -> Vec<Layer> {
    PER_LAYER
        .iter()
        .flat_map(|&(pattern, unit, owner)| {
            let engines: &[&str] = if pattern.contains("{e}") {
                &ENGINES
            } else {
                &[""]
            };
            engines.iter().map(move |engine| Layer {
                name: pattern.replace("{e}", engine),
                unit,
                owner,
            })
        })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Bound {
    pub metric: String,
    pub better: Better,
    pub bound: f64,
}

pub struct Spec {
    pub run_seconds: u64,
    /// One per end-to-end metric, in `BENCHMARK.json` order.
    pub bounds: Vec<Bound>,
}

fn names(section: &Value) -> Vec<(String, String)> {
    section
        .as_arr()
        .iter()
        .map(|entry| {
            let field = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn same_names(
    what: &str,
    declared: &[(String, String)],
    emitted: &[(String, String)],
) -> Result<(), String> {
    for (name, unit) in emitted {
        match declared.iter().find(|(declared, _)| declared == name) {
            None => {
                return Err(format!(
                    "{what} '{name}' is emitted but not in BENCHMARK.json"
                ))
            }
            Some((_, declared)) if declared != unit => {
                return Err(format!(
                    "{what} '{name}' is emitted in '{unit}' but declared in '{declared}'"
                ))
            }
            Some(_) => {}
        }
    }
    match declared
        .iter()
        .find(|(name, _)| !emitted.iter().any(|(emitted, _)| emitted == name))
    {
        Some((name, _)) => Err(format!(
            "{what} '{name}' is in BENCHMARK.json but never emitted"
        )),
        None => Ok(()),
    }
}

/// Parses the embedded `BENCHMARK.json` and refuses it unless its workloads
/// and metrics are exactly the ones this program knows.
pub fn load() -> Result<Spec, String> {
    let spec = json::parse(SPEC_TEXT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = |key: &str| {
        spec.get(key)
            .ok_or_else(|| format!("BENCHMARK.json has no '{key}'"))
    };
    let owned = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    };
    // Workloads carry no unit; compare them with an empty one on both sides.
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|name| (*name, "")).collect();
    same_names(
        "workload",
        &names(section("workloads")?),
        &owned(&workloads),
    )?;
    same_names(
        "end-to-end metric",
        &names(section("end_to_end")?),
        &owned(&END_TO_END),
    )?;
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|layer| (layer.name, layer.unit.to_string()))
        .collect();
    same_names("per-layer metric", &names(section("per_layer")?), &layers)?;

    let bounds = section("end_to_end")?
        .as_arr()
        .iter()
        .map(|entry| {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or_default();
            let better = match entry.get("better").and_then(Value::as_str) {
                Some("lower") => Better::Lower,
                Some("higher") => Better::Higher,
                _ => return Err(format!("'{name}' needs \"better\": lower|higher")),
            };
            let bound = entry
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("'{name}' needs a numeric bound"))?;
            Ok(Bound {
                metric: name.to_string(),
                better,
                bound,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let run_seconds = section("run_seconds")?
        .as_f64()
        .filter(|s| *s >= 1.0)
        .ok_or("BENCHMARK.json: run_seconds must be a number >= 1")? as u64;
    Ok(Spec {
        run_seconds,
        bounds,
    })
}
