//! Work counters must not depend on `--threads`.
//!
//! Threads only decide *where* each source's detection runs, never what it
//! computes, so every work counter in a `--metrics-json` snapshot —
//! hierarchy nodes, kernel calls and words, scratch-pool traffic, pool
//! tasks, framework rounds — must read the same at `--threads 1` and
//! `--threads 2`. A difference means some layer does redundant or missing
//! work at one thread count, or a counter drops a thread's batched
//! tallies. Timing histograms are excluded: they measure the host.
//!
//! Forks the real binary so each run starts from a fresh process-wide
//! metrics registry.

use midas_core::telemetry::Snapshot;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn midas(args: &[&str]) -> std::process::Output {
    let out = Command::new(env!("CARGO_BIN_EXE_midas"))
        .args(args)
        .output()
        .expect("spawn midas");
    assert!(
        out.status.success(),
        "midas {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("midas_thread_invariant_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `discover` at `threads`, returning its report and metrics snapshot.
fn discover(dir: &Path, threads: usize) -> (Vec<u8>, Snapshot) {
    let s = |p: PathBuf| p.to_str().unwrap().to_owned();
    let metrics = dir.join(format!("metrics-{threads}.json"));
    let out = midas(&[
        "discover",
        "--facts",
        &s(dir.join("facts.tsv")),
        "--kb",
        &s(dir.join("kb.tsv")),
        "--threads",
        &threads.to_string(),
        "--metrics-json",
        &s(metrics.clone()),
    ]);
    let json = std::fs::read_to_string(&metrics).unwrap();
    (
        out.stdout,
        Snapshot::from_json(&json).expect("valid metrics JSON"),
    )
}

/// The counters that measure work, by name.
fn work_counters(snap: &Snapshot) -> Vec<(String, u64)> {
    const PREFIXES: [&str; 4] = ["hierarchy.", "kernel.", "scratch.", "framework."];
    snap.counters
        .iter()
        .filter(|(name, _)| name == "pool.tasks" || PREFIXES.iter().any(|p| name.starts_with(p)))
        .cloned()
        .collect()
}

#[test]
fn work_counters_match_across_thread_counts() {
    let dir = scratch_dir();
    midas(&[
        "generate",
        "--dataset",
        "kvault",
        "--scale",
        "0.1",
        "--seed",
        "7",
        "--out",
        dir.to_str().unwrap(),
    ]);
    let (report_1, snap_1) = discover(&dir, 1);
    let (report_2, snap_2) = discover(&dir, 2);
    assert_eq!(report_1, report_2, "reports must be byte-identical");

    let (one, two) = (work_counters(&snap_1), work_counters(&snap_2));
    for name in [
        "hierarchy.nodes_evaluated",
        "pool.tasks",
        "framework.detect_calls",
    ] {
        assert!(snap_1.counter(name) > 0, "{name} never counted");
    }
    assert!(
        one.iter().any(|(n, _)| n.starts_with("kernel.")),
        "no kernel counters"
    );
    assert!(
        one.iter().any(|(n, _)| n.starts_with("scratch.")),
        "no scratch counters"
    );
    let names: BTreeSet<&String> = one.iter().chain(&two).map(|(name, _)| name).collect();
    let diffs: Vec<String> = names
        .into_iter()
        .filter(|name| snap_1.counter(name) != snap_2.counter(name))
        .map(|name| {
            format!(
                "{name}: {} at --threads 1, {} at --threads 2",
                snap_1.counter(name),
                snap_2.counter(name)
            )
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "thread-dependent work counters:\n{}",
        diffs.join("\n")
    );
    let _ = std::fs::remove_dir_all(&dir);
}
