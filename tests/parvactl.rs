//! The `parvactl` binary's argument handling, driven as a process.

use std::process::Command;

/// Run `parvactl` with `args`; return its exit code and stderr.
fn parvactl(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_parvactl"))
        .args(args)
        .output()
        .expect("parvactl runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_or_missing_numeric_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["fleet", "--seed", "abc"][..], "--seed"),
        (
            &["daemon", "--epochs", "12", "--checkpoint-at", "6x"][..],
            "--checkpoint-at",
        ),
        (&["region", "--intervals"][..], "--intervals"),
    ] {
        let (code, stderr) = parvactl(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}
