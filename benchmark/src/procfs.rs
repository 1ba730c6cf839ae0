//! `/proc` readers: CPU time, peak RSS, context switches, thread states.

use std::fs;

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Linux
/// exports 100 to user space on every architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// The fields of a `stat` line after the parenthesised command name (which
/// may itself contain spaces); index 0 is the state letter.
fn stat_fields(stat: &str) -> Vec<&str> {
    let after = stat.rfind(')').map_or(stat, |at| &stat[at + 1..]);
    after.split_whitespace().collect()
}

/// User + system CPU seconds of the whole process, exited threads included.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    let fields = stat_fields(&stat);
    // utime and stime are fields 14 and 15 of the full line, 11 and 12 here.
    let ticks = |i: usize| fields[i].parse::<u64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) as f64 / TICKS_PER_SEC
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn rss_peak_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status_field(&status, "VmHWM").expect("VmHWM in status") as f64 / 1024.0
}

/// Involuntary context switches summed over the threads alive right now.
pub fn involuntary_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("status")).ok())
        .filter_map(|status| status_field(&status, "nonvoluntary_ctxt_switches"))
        .sum()
}

/// `name(state)` of every thread of process `pid`, for the watchdog's report.
pub fn thread_report(pid: u32) -> Vec<String> {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return Vec::new();
    };
    let mut threads: Vec<String> = tasks
        .flatten()
        .map(|task| {
            let name = fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            let stat = fs::read_to_string(task.path().join("stat")).unwrap_or_default();
            let state = stat_fields(&stat)
                .first()
                .copied()
                .unwrap_or("?")
                .to_string();
            format!("{}({state})", name.trim())
        })
        .collect();
    threads.sort();
    threads
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_and_parens_in_the_name() {
        let fields = stat_fields("12 (a b) c) R 1 2 3");
        assert_eq!(fields[0], "R");
        assert_eq!(fields[3], "3");
    }

    #[test]
    fn live_readers_return_something_plausible() {
        assert!(rss_peak_mb() > 0.1);
        assert!(cpu_seconds() >= 0.0);
        assert!(!thread_report(std::process::id()).is_empty());
    }
}
