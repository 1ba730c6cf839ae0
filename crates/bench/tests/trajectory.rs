//! The committed `BENCH_<pr>.json` files are a trajectory, not an archive:
//! between the two newest, no allocation rung of the cost ladder may rise.
//! Allocation counts repeat exactly (unlike the `_ns` rungs beside them),
//! so a rise is a change in the code, not in the host.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use zstm_bench::json::{parse, Value};

/// `BENCH_<n>.json` files at the repository root, oldest first.
fn bench_files() -> Vec<(u64, PathBuf)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let entries = std::fs::read_dir(&root).expect("repository root");
    let mut files: Vec<_> = entries
        .filter_map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path.file_name()?.to_str()?;
            let pr = name.strip_prefix("BENCH_")?.strip_suffix(".json")?;
            Some((pr.parse().ok()?, path))
        })
        .collect();
    files.sort();
    files
}

/// Every `*_allocs.*` metric of a `zbench run --trace 1` document, the
/// highest reading where several workloads report it.
fn alloc_rungs(path: &Path) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path).expect("readable BENCH file");
    let doc = parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut rungs = BTreeMap::new();
    fn array<'v>(of: &'v Value, key: &str) -> &'v [Value] {
        match of.get(key) {
            Some(Value::Arr(items)) => items,
            _ => panic!("not a zbench document: no array {key:?}"),
        }
    }
    for set in array(&doc, "sets") {
        for result in array(set, "results") {
            let Some(Value::Obj(metrics)) = result.get("metrics") else {
                continue;
            };
            for (name, metric) in metrics {
                if let (true, Some(Value::Num(value))) =
                    (name.contains("_allocs."), metric.get("value"))
                {
                    let highest = rungs.entry(name.clone()).or_insert(*value);
                    *highest = highest.max(*value);
                }
            }
        }
    }
    rungs
}

#[test]
fn no_allocation_rung_rises_between_the_two_newest_bench_files() {
    let files = bench_files();
    let [.., (older_pr, older), (newer_pr, newer)] = files.as_slice() else {
        panic!("fewer than two BENCH_<pr>.json files at the repository root");
    };
    let (before, after) = (alloc_rungs(older), alloc_rungs(newer));
    assert!(
        !after.is_empty(),
        "BENCH_{newer_pr}.json has no *_allocs.* metric"
    );
    for (rung, now) in &after {
        let Some(then) = before.get(rung) else {
            continue;
        };
        assert!(
            *now <= then + 0.01,
            "{rung}: {then} in BENCH_{older_pr}.json, {now} in BENCH_{newer_pr}.json"
        );
    }
}
