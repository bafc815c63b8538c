//! Malformed flags are usage errors: every harness binary exits 2 with
//! its usage line, names the offending flag, and runs nothing, instead
//! of falling back to a default.

use std::process::Command;

/// (binary, arguments, flag the error must name).
const CASES: &[(&str, &[&str], &str)] = &[
    (
        env!("CARGO_BIN_EXE_figures"),
        &["fig8", "--quick", "--max-cycles", "abc"],
        "--max-cycles",
    ),
    (
        env!("CARGO_BIN_EXE_figures"),
        &["fig8", "--quick", "--max-cycles"],
        "--max-cycles",
    ),
    (
        env!("CARGO_BIN_EXE_figures"),
        &["fig8", "--quick", "--max-cycles", "0"],
        "--max-cycles",
    ),
    (
        env!("CARGO_BIN_EXE_figures"),
        &["fig8", "--quick", "--max-cycles", "-7"],
        "--max-cycles",
    ),
    (
        env!("CARGO_BIN_EXE_figures"),
        &["fig8", "--quick", "--transform"],
        "--transform",
    ),
    (
        env!("CARGO_BIN_EXE_faultinject"),
        &["--class", "hang", "--seed", "x"],
        "--seed",
    ),
    (
        env!("CARGO_BIN_EXE_faultinject"),
        &["--class", "hang", "--seed"],
        "--seed",
    ),
    (
        env!("CARGO_BIN_EXE_faultinject"),
        &["--class", "hang", "--rounds", "x"],
        "--rounds",
    ),
    (
        env!("CARGO_BIN_EXE_faultinject"),
        &["--class", "hang", "--rounds", "0"],
        "--rounds",
    ),
    (
        env!("CARGO_BIN_EXE_faultinject"),
        &["--class", "hang", "--out"],
        "--out",
    ),
    (
        env!("CARGO_BIN_EXE_pipeview"),
        &["no-such-file.s", "abc"],
        "CYCLES",
    ),
    (
        env!("CARGO_BIN_EXE_pipeview"),
        &["no-such-file.s", "0"],
        "CYCLES",
    ),
    (
        env!("CARGO_BIN_EXE_pipeview"),
        &["--transform"],
        "--transform",
    ),
    (
        env!("CARGO_BIN_EXE_inspect"),
        &["mcf", "--transform"],
        "--transform",
    ),
];

#[test]
fn malformed_flags_exit_2_and_run_nothing() {
    for &(exe, args, flag) in CASES {
        let output = Command::new(exe)
            .args(args)
            .output()
            .expect("spawn harness binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let case = format!(
            "{} {}",
            exe.rsplit('/').next().unwrap_or(exe),
            args.join(" ")
        );
        assert_eq!(
            output.status.code(),
            Some(2),
            "{case} must exit 2, stderr:\n{stderr}"
        );
        assert!(
            stderr.contains(flag),
            "{case} does not name {flag}: {stderr}"
        );
        assert!(
            stderr.contains("usage:"),
            "{case} prints no usage: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{case} ran: {stderr}");
    }
}
