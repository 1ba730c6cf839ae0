//! `zbench`: the repository's benchmark. See `README.md` beside the manifest
//! for what it measures and why, and `../BENCHMARK.json` for the contract.
//!
//! ```text
//! zbench run [--seed N] [--workload W] [--trace 0|1] [--smoke]
//!            [--repeat N] [--out FILE] [--seconds S]
//! zbench compare BASE.json NEW.json
//! ```
//!
//! `--seconds` is the pipeline's: it states the `run_seconds` it read from
//! `BENCHMARK.json`, which is also the default. Results of different lengths
//! do not compare, and `compare` refuses to try.
//!
//! `run` starts one fresh child process per workload (so peak memory does not
//! leak from one into the next) and watches it: a child that outlives its
//! deadline is killed and reported with the names of its threads.

mod affinity;
mod alloc;
mod child;
mod compare;
mod harness;
mod hist;
mod json;
mod ladder;
mod procfs;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use child::{ChildArgs, LADDER, TRACE_WINDOW_SHARE};
use json::Value;
use spec::{Owner, Spec, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Time a child may spend outside its measured windows (set-ups, warm-up,
/// audit, or the whole ladder) before the watchdog calls it hung.
const SETUP_ALLOWANCE: Duration = Duration::from_secs(40);
/// Slack on top of allowance and window.
const WATCHDOG_SLACK: Duration = Duration::from_secs(20);
const DEFAULT_OUT_DIR: &str = "benchmark/out";

struct RunArgs {
    seed: u64,
    workload: Option<String>,
    trace: bool,
    smoke: bool,
    repeat: u64,
    out: Option<String>,
    seconds: Option<f64>,
}

fn usage() -> String {
    "usage: zbench run [--seed N] [--workload W] [--trace 0|1] [--smoke] [--repeat N] \
     [--out FILE] [--seconds S]\n       zbench compare BASE.json NEW.json"
        .to_string()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        seed: 1,
        workload: None,
        trace: false,
        smoke: false,
        repeat: 1,
        out: None,
        seconds: None,
    };
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = |what: &str| {
            rest.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}\n{}", usage()))
        };
        let number = |text: String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: '{text}' is not a whole number"))
        };
        match flag.as_str() {
            "--seed" => run.seed = number(value("a seed")?)?,
            "--workload" => {
                let name = value("a workload name")?;
                if !WORKLOADS.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload '{name}'; known: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                run.workload = Some(name);
            }
            "--trace" => {
                run.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: '{other}' is neither 0 nor 1")),
                }
            }
            "--smoke" => run.smoke = true,
            "--repeat" => run.repeat = number(value("a count")?)?.max(1),
            "--out" => run.out = Some(value("a file")?),
            "--seconds" => {
                let text = value("a duration")?;
                let seconds = text
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds: '{text}' is not in (0, 60]"))?;
                run.seconds = Some(seconds);
            }
            other => return Err(format!("unknown flag '{other}'\n{}", usage())),
        }
    }
    Ok(run)
}

/// Runs one child to completion under the watchdog and returns the value of
/// its `result` line.
fn run_child(args: &ChildArgs, deadline: Duration) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating zbench: {e}"))?;
    let mut child = Command::new(exe)
        .arg("child")
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--smoke", if args.smoke { "1" } else { "0" }])
        .args(["--out", &args.out_dir])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting the {} child: {e}", args.workload))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let (sender, lines) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if sender.send(line).is_err() {
                break;
            }
        }
    });
    let started = Instant::now();
    let mut result = None;
    let hung = loop {
        match lines.recv_timeout(deadline.saturating_sub(started.elapsed())) {
            Ok(line) => match line.strip_prefix("result ") {
                Some(json) => result = Some(json::parse(json)),
                None => println!("{line}"),
            },
            Err(mpsc::RecvTimeoutError::Disconnected) => break false,
            Err(mpsc::RecvTimeoutError::Timeout) => break true,
        }
    };
    if hung {
        let threads = procfs::thread_report(child.id());
        let _ = child.kill();
        let _ = child.wait();
        let _ = reader.join();
        return Err(format!(
            "{} exceeded its {} s deadline and was killed; threads: {}",
            args.workload,
            deadline.as_secs(),
            threads.join(" ")
        ));
    }
    let status = child.wait().map_err(|e| format!("waiting: {e}"))?;
    let _ = reader.join();
    if !status.success() {
        return Err(format!("{} child ended with {status}", args.workload));
    }
    result
        .ok_or_else(|| format!("{} child printed no result", args.workload))?
        .map_err(|e| format!("{} child's result does not parse: {e}", args.workload))
}

/// A failed child as a result value, so that a run's file shows it.
fn failure(workload: &str, trace: bool, reason: &str) -> Value {
    Value::obj(vec![
        ("workload", Value::str(workload)),
        ("trace", Value::Bool(trace)),
        ("correct", Value::Bool(false)),
        ("audit", Value::str(reason)),
        ("attempted", Value::Num(1.0)),
        ("failed", Value::Num(1.0)),
        ("metrics", Value::Obj(Vec::new())),
        ("slice_median", Value::Obj(Vec::new())),
        ("slice_spread", Value::Obj(Vec::new())),
    ])
}

fn set_field(object: &mut Value, key: &str, value: Value) {
    if let Value::Obj(fields) = object {
        match fields.iter_mut().find(|(name, _)| name == key) {
            Some((_, slot)) => *slot = value,
            None => fields.push((key.to_string(), value)),
        }
    }
}

type Metrics = Vec<(String, Value)>;

/// The whole per-layer list for a traced run of `workload`, from what its
/// child measured (`own`) and the ladder's rungs, and what is wrong with it.
/// A name only other workloads own reads 0. A name this workload, the driver
/// or the ladder owns and did not measure is a fault, and so is a name
/// measured by a workload that does not own it: either way the owner table
/// in `spec.rs` no longer says what a 0 means.
fn complete_layers(workload: &str, own: &Metrics, rungs: &Metrics) -> (Metrics, Vec<String>) {
    let mut faults = Vec::new();
    let mut complete = Vec::new();
    for layer in spec::per_layer() {
        let (source, owned) = match layer.owner {
            Owner::Ladder => (rungs, true),
            Owner::Every => (own, true),
            Owner::Only(workloads) => (own, workloads.contains(&workload)),
        };
        let measured = source.iter().find(|(name, _)| *name == layer.name);
        match (measured, owned) {
            (Some((_, value)), true) => complete.push((layer.name, value.clone())),
            (Some(_), false) => faults.push(format!("{} measured but not owned", layer.name)),
            (None, true) => faults.push(format!("{} not measured", layer.name)),
            (None, false) => {
                let zero = vec![("value", Value::Num(0.0)), ("unit", Value::str(layer.unit))];
                complete.push((layer.name, Value::obj(zero)));
            }
        }
    }
    (complete, faults)
}

/// Runs one workload in its child. A traced run also gets the ladder's rungs
/// (taken from `ladder`, which is measured once per set), so that each traced
/// result carries the whole per-layer list.
fn run_workload(args: &ChildArgs, window: Duration, ladder: Option<&Value>) -> Value {
    let deadline = SETUP_ALLOWANCE + window + WATCHDOG_SLACK;
    let mut result = match run_child(args, deadline) {
        Ok(result) => result,
        Err(reason) => {
            eprintln!("zbench: {reason}");
            return failure(&args.workload, args.trace, &reason);
        }
    };
    if !args.trace {
        return result;
    }
    let metrics = |of: Option<&Value>| -> Metrics {
        of.and_then(|v| v.get("metrics"))
            .map_or(&[][..], Value::as_obj)
            .to_vec()
    };
    let (complete, mut faults) =
        complete_layers(&args.workload, &metrics(Some(&result)), &metrics(ladder));
    set_field(&mut result, "metrics", Value::Obj(complete));
    if ladder.is_some_and(|l| !is_correct(l)) {
        faults.push("the cost ladder failed".to_string());
    }
    if !faults.is_empty() {
        let audit = result.get("audit").and_then(Value::as_str).unwrap_or("?");
        let audit = format!("{audit}; per-layer: {}", faults.join(", "));
        set_field(&mut result, "correct", Value::Bool(false));
        set_field(&mut result, "audit", Value::str(&audit));
    }
    result
}

fn print_result(result: &Value) {
    let text = |key: &str| result.get(key).and_then(Value::as_str).unwrap_or("?");
    let number = |key: &str| result.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN);
    println!(
        "== {} ({}) seed {} inputs {}: audit {}, attempted {}, failed {}",
        text("workload"),
        if result.get("trace").and_then(Value::as_bool) == Some(true) {
            "traced"
        } else {
            "timed"
        },
        number("seed"),
        text("input_hash"),
        text("audit"),
        number("attempted"),
        number("failed"),
    );
    for (name, metric) in result.get("metrics").map_or(&[][..], Value::as_obj) {
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("?");
        let over_slices = |section: &str| {
            let of_metric = result.get(section).and_then(|s| s.get(name));
            of_metric.and_then(Value::as_f64)
        };
        match (over_slices("slice_median"), over_slices("slice_spread")) {
            (Some(median), Some(spread)) => {
                println!(
                "   {name:<40} {value:>18.4} {unit:<4} (median of {} {median:.4}, spread {:.1} %)",
                if name == "setup_s" { "set-ups" } else { "slices" },
                spread * 100.0
            )
            }
            (None, Some(spread)) => println!(
                "   {name:<40} {value:>18.4} {unit:<4} (spread {:.1} %)",
                spread * 100.0
            ),
            _ => println!("   {name:<40} {value:>18.4} {unit}"),
        }
    }
}

/// The line a script reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`.
fn contract_line(result: &Value) -> Value {
    Value::obj(
        ["correct", "attempted", "failed", "metrics"]
            .map(|key| (key, result.get(key).cloned().unwrap_or(Value::Null)))
            .to_vec(),
    )
}

fn is_correct(result: &Value) -> bool {
    result.get("correct").and_then(Value::as_bool) == Some(true)
}

fn cmd_run(spec: &Spec, run: &RunArgs) -> Result<bool, String> {
    let seconds = match (run.seconds, run.smoke) {
        (Some(seconds), _) => seconds,
        (None, true) => 1.0,
        (None, false) => spec.run_seconds as f64,
    };
    let out_dir = match &run.out {
        Some(file) => std::path::Path::new(file)
            .parent()
            .filter(|dir| !dir.as_os_str().is_empty())
            .map_or(".".to_string(), |dir| dir.display().to_string()),
        None => DEFAULT_OUT_DIR.to_string(),
    };
    let names: Vec<&str> = match &run.workload {
        Some(name) => vec![name.as_str()],
        None => WORKLOADS.to_vec(),
    };
    // `--smoke` exercises both kinds of run; otherwise `--trace` picks one.
    let kinds = if run.smoke {
        vec![false, true]
    } else {
        vec![run.trace]
    };

    let mut all_correct = true;
    let mut sets = Vec::new();
    for repeat in 0..run.repeat {
        // Later sets swap the order and move to a further seed, so that what
        // they agree on is not owed to either.
        let seed = run.seed + repeat / 2;
        let mut order = names.clone();
        if repeat % 2 == 1 {
            order.reverse();
        }
        let child_args = |workload: &str, trace: bool| ChildArgs {
            workload: workload.to_string(),
            seed,
            seconds,
            trace,
            smoke: run.smoke,
            out_dir: out_dir.clone(),
        };
        let mut results = Vec::new();
        for &trace in &kinds {
            let ladder =
                trace.then(|| run_workload(&child_args(LADDER, false), Duration::ZERO, None));
            let window = Duration::from_secs_f64(if trace {
                seconds * 2.0 * TRACE_WINDOW_SHARE
            } else {
                seconds
            });
            for workload in &order {
                let result = run_workload(&child_args(workload, trace), window, ladder.as_ref());
                print_result(&result);
                all_correct &= is_correct(&result);
                results.push(result);
            }
        }
        sets.push(Value::obj(vec![
            ("seed", Value::Num(seed as f64)),
            (
                "order",
                Value::Arr(order.iter().map(|name| Value::str(name)).collect()),
            ),
            ("results", Value::Arr(results)),
        ]));
    }

    let mut document = vec![
        ("benchmark", Value::str("zbench")),
        ("seconds", Value::Num(seconds)),
        ("smoke", Value::Bool(run.smoke)),
        (
            "hardware_threads",
            Value::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        ),
    ];
    if sets.len() > 1 && kinds.contains(&false) {
        let mut agreement = Vec::new();
        for (index, later) in sets.iter().enumerate().skip(1) {
            println!("== set {index} against set 0");
            let rows = compare::compare(spec, &[&sets[0]], &[later]);
            compare::print(&rows);
            all_correct &= compare::none_worse(&rows);
            agreement.push(Value::obj(vec![
                ("base_set", Value::Num(0.0)),
                ("new_set", Value::Num(index as f64)),
                (
                    "rows",
                    Value::Arr(rows.iter().map(compare::Row::to_json).collect()),
                ),
            ]));
        }
        document.push(("repeat_compare", Value::Arr(agreement)));
    }
    let last = sets
        .last()
        .and_then(|set| set.get("results"))
        .map(|r| r.as_arr().to_vec());
    document.push(("sets", Value::Arr(sets)));
    if let Some(file) = &run.out {
        std::fs::create_dir_all(&out_dir)
            .and_then(|()| std::fs::write(file, Value::obj(document).pretty(4)))
            .map_err(|e| format!("writing {file}: {e}"))?;
        println!("== results written to {file}");
    }
    // With one workload and one kind of run the caller is a script: the last
    // line of standard output is its result and nothing else.
    if let (Some(_), [_], Some([result])) = (&run.workload, kinds.as_slice(), last.as_deref()) {
        println!("{}", contract_line(result));
    }
    Ok(all_correct)
}

fn cmd_compare(spec: &Spec, base: &str, new: &str) -> Result<bool, String> {
    let load = |file: &str| -> Result<Value, String> {
        let text = std::fs::read_to_string(file).map_err(|e| format!("reading {file}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{file}: {e}"))
    };
    let (base, new) = (load(base)?, load(new)?);
    // NaN for a file that does not say, which equals nothing, itself included.
    let seconds = |file: &Value| {
        let stated = file.get("seconds").and_then(Value::as_f64);
        stated.unwrap_or(f64::NAN)
    };
    if seconds(&base) != seconds(&new) {
        return Err(format!(
            "the runs in the two files are {} s and {} s long; only runs of one length compare",
            seconds(&base),
            seconds(&new)
        ));
    }
    let sets =
        |file: &Value| -> Vec<Value> { file.get("sets").map_or(&[][..], Value::as_arr).to_vec() };
    let (base, new) = (sets(&base), sets(&new));
    let rows = compare::compare(
        spec,
        &base.iter().collect::<Vec<_>>(),
        &new.iter().collect::<Vec<_>>(),
    );
    compare::print(&rows);
    Ok(compare::none_worse(&rows))
}

fn parse_child(args: &[String]) -> Result<ChildArgs, String> {
    let value = |flag: &str| {
        args.iter()
            .position(|arg| arg == flag)
            .and_then(|at| args.get(at + 1))
            .ok_or_else(|| format!("child: missing {flag}"))
    };
    Ok(ChildArgs {
        workload: value("--workload")?.clone(),
        seed: value("--seed")?.parse().map_err(|_| "child: bad --seed")?,
        seconds: value("--seconds")?
            .parse()
            .map_err(|_| "child: bad --seconds")?,
        trace: value("--trace")? == "1",
        smoke: value("--smoke")? == "1",
        out_dir: value("--out")?.clone(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = spec::load().and_then(|spec| match args.split_first() {
        Some((command, rest)) if command == "run" => cmd_run(&spec, &parse_run(rest)?),
        Some((command, [base, new])) if command == "compare" => cmd_compare(&spec, base, new),
        Some((command, rest)) if command == "child" => {
            child::run(&parse_child(rest)?).map(|()| true)
        }
        _ => Err(usage()),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("zbench: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measured(names: &[&str]) -> Metrics {
        let value = Value::obj(vec![("value", Value::Num(7.0)), ("unit", Value::str("ns"))]);
        names
            .iter()
            .map(|name| (name.to_string(), value.clone()))
            .collect()
    }

    fn owned_by(workload: &str, ladder: bool) -> Vec<String> {
        spec::per_layer()
            .into_iter()
            .filter(|layer| match layer.owner {
                Owner::Ladder => ladder,
                Owner::Every => !ladder,
                Owner::Only(workloads) => !ladder && workloads.contains(&workload),
            })
            .map(|layer| layer.name)
            .collect()
    }

    #[test]
    fn a_metric_its_owner_did_not_measure_is_a_fault_not_a_zero() {
        let workload = "server_transfer_cs";
        let (own, rungs) = (owned_by(workload, false), owned_by(workload, true));
        let refs =
            |names: &[String]| measured(&names.iter().map(String::as_str).collect::<Vec<_>>());
        let (complete, faults) = complete_layers(workload, &refs(&own), &refs(&rungs));
        assert_eq!(faults, Vec::<String>::new());
        assert_eq!(complete.len(), spec::per_layer().len());
        let value = |name: &str| {
            let (_, metric) = complete.iter().find(|(known, _)| known == name).unwrap();
            metric.get("value").and_then(Value::as_f64)
        };
        assert_eq!(value("server.ping_rtt_us_p50"), Some(7.0));
        assert_eq!(value("api.long_read_i64_ns"), Some(0.0));

        let without_ping: Vec<String> = own
            .iter()
            .filter(|name| *name != "server.ping_rtt_us_p50")
            .cloned()
            .collect();
        let (_, faults) = complete_layers(workload, &refs(&without_ping), &refs(&rungs));
        assert_eq!(faults, ["server.ping_rtt_us_p50 not measured"]);

        let mut with_stranger = own.clone();
        with_stranger.push("api.long_read_i64_ns".to_string());
        let (_, faults) = complete_layers(workload, &refs(&with_stranger), &refs(&rungs));
        assert_eq!(faults, ["api.long_read_i64_ns measured but not owned"]);

        let (_, faults) = complete_layers(workload, &refs(&own), &Vec::new());
        assert_eq!(faults.len(), rungs.len());
    }
}
