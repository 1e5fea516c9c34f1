//! The `--trace-out=` error path: a trace that cannot be written is a
//! clear diagnostic and exit status 2, not a panic or a silent skip.

use std::process::Command;

#[test]
fn unwritable_trace_path_exits_2_with_a_diagnostic() {
    let missing = std::env::temp_dir()
        .join(format!("pbm-no-such-dir-{}", std::process::id()))
        .join("t.json");
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["fig11", "--quick", "--jobs=1", "--no-runner-json"])
        .arg(format!("--trace-out={}", missing.display()))
        .output()
        .expect("exp runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: cannot write trace JSON "),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}
