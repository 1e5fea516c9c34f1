//! `exp <experiment> --prof-out=DIR`: the profile tree is the same at any
//! `--jobs=N`, the other artifact flags leave the experiment's own table
//! untouched, and an unwritable directory is a clear error.

use pbm_bench::experiments;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pbm-prof-out-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Runs `exp <args>` in-process and returns what it printed.
fn exp(args: &[String]) -> String {
    let (exp, opts) = experiments::parse(args).expect("valid command line");
    let mut out = Vec::new();
    exp.run(&opts, &mut out).expect("render into memory");
    String::from_utf8(out).expect("utf-8 table")
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| a.to_string()).collect()
}

/// Every file under `dir`, keyed by file name.
fn tree(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let entries = fs::read_dir(dir).expect("profile dir");
    entries
        .map(|entry| {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().into_string().expect("utf8 name");
            (name, fs::read(entry.path()).expect("artifact"))
        })
        .collect()
}

#[test]
fn prof_out_tree_is_byte_identical_across_jobs() {
    let root = scratch("jobs");
    let trees: Vec<_> = ["1", "8"]
        .iter()
        .map(|jobs| {
            let dir = root.join(jobs);
            exp(&args(&[
                "fig11",
                "--quick",
                &format!("--jobs={jobs}"),
                "--no-runner-json",
                &format!("--prof-out={}", dir.display()),
            ]));
            tree(&dir)
        })
        .collect();
    // A flame graph and a report per cell, plus the grid summary.
    assert_eq!(trees[0].len(), 2 * 20 + 1);
    assert!(trees[0].contains_key("BENCH_prof.json"));
    assert!(trees[0].contains_key("flame-lb___queue.folded"));
    assert_eq!(
        trees[0].keys().collect::<Vec<_>>(),
        trees[1].keys().collect::<Vec<_>>(),
        "file names diverged"
    );
    for (name, bytes) in &trees[0] {
        assert_eq!(bytes, &trees[1][name], "{name} differs at --jobs=1 and 8");
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn artifact_flags_leave_the_table_unchanged() {
    let root = scratch("all-flags");
    let printed = exp(&args(&[
        "fig11",
        "--quick",
        "--jobs=2",
        "--no-runner-json",
        &format!("--trace-out={}", root.join("t.json").display()),
        &format!("--metrics-csv={}", root.join("m.csv").display()),
        &format!("--prof-out={}", root.join("prof").display()),
    ]));
    let (table, attribution) = printed
        .split_once("\n== persist-latency attribution (fig11) ==\n")
        .expect("the attribution table is appended");
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig11-quick.txt");
    let want = fs::read_to_string(golden).expect("golden file");
    assert_eq!(
        table, want,
        "stdout before the attribution drifted from {golden}"
    );
    assert_eq!(
        attribution.lines().count(),
        1 + 20,
        "header plus a row a cell"
    );
    assert!(root.join("t-lb___queue.json").exists());
    assert!(root.join("m-lb___queue.csv").exists());
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn unwritable_prof_out_exits_2_with_a_diagnostic() {
    let root = scratch("unwritable");
    fs::create_dir_all(&root).expect("temp dir");
    let file = root.join("a-file");
    fs::write(&file, "not a directory").expect("temp file");
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["fig11", "--quick", "--jobs=1", "--no-runner-json"])
        .arg(format!("--prof-out={}", file.join("prof").display()))
        .output()
        .expect("exp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: cannot write "),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    let _ = fs::remove_dir_all(&root);
}
