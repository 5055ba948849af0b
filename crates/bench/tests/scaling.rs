//! `scaling` rejects an argument it does not know: it exits 2 with the
//! reason on stderr, before it simulates anything.

use std::process::Command;

/// Runs `scaling` with `args` and returns the exit code and stderr.
fn scaling(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_scaling"))
        .args(args)
        .output()
        .unwrap();
    assert!(out.stdout.is_empty(), "nothing runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn an_unknown_app_exits_2() {
    let (code, stderr) = scaling(&["nosuch", "small"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(
        stderr.trim(),
        "scaling: unknown app 'nosuch' (try `runner list`)"
    );
}

#[test]
fn an_unknown_scale_exits_2() {
    let (code, stderr) = scaling(&["fft", "tiny"]);
    assert_eq!(code, Some(2), "{stderr}");
    assert_eq!(stderr.trim(), "scaling: unknown scale 'tiny' (small|paper)");
}
