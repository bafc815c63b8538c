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

/// The CI quick sweep request, for cases that would otherwise run it.
const CI_QUICK_REQ: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/sweeps/ci-quick.req"
);

/// (binary, arguments, environment variable, its malformed value).
const ENV_CASES: &[(&str, &[&str], &str, &str)] = &[
    (
        env!("CARGO_BIN_EXE_figures"),
        &["table1"],
        "VANGUARD_THREADS",
        "abc",
    ),
    (
        env!("CARGO_BIN_EXE_figures"),
        &["table1"],
        "VANGUARD_THREADS",
        "0",
    ),
    (
        env!("CARGO_BIN_EXE_vanguard-sweep"),
        &["run", "--request", CI_QUICK_REQ, "--serial"],
        "VANGUARD_SHARDS",
        "x",
    ),
    (
        env!("CARGO_BIN_EXE_vanguard-sweep"),
        &["run", "--request", CI_QUICK_REQ, "--serial"],
        "VANGUARD_SHARDS",
        "0",
    ),
    (
        env!("CARGO_BIN_EXE_vanguard-sweep"),
        &["run", "--request", CI_QUICK_REQ, "--serial"],
        "VANGUARD_THREADS",
        "-2",
    ),
];

#[test]
fn malformed_env_knobs_exit_2_and_run_nothing() {
    for &(exe, args, var, value) in ENV_CASES {
        let output = Command::new(exe)
            .args(args)
            .env(var, value)
            .output()
            .expect("spawn harness binary");
        let stderr = String::from_utf8_lossy(&output.stderr);
        let case = format!(
            "{var}={value} {} {}",
            exe.rsplit('/').next().unwrap_or(exe),
            args.join(" ")
        );
        assert_eq!(
            output.status.code(),
            Some(2),
            "{case} must exit 2, stderr:\n{stderr}"
        );
        assert!(stderr.contains(var), "{case} does not name {var}: {stderr}");
        assert!(output.stdout.is_empty(), "{case} ran: {stderr}");
    }
}

/// A job stopped by `--max-cycles` is reported, not a panic: `figures`
/// exits 1 and names each job that did not complete.
#[test]
fn jobs_stopped_by_the_cycle_budget_are_reported() {
    let output = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig8", "--quick", "--max-cycles", "1000"])
        .output()
        .expect("spawn figures");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(!stderr.contains("panicked at"), "{stderr}");
    for line in [
        "h264ref 4-wide ref0 baseline: timed out after 1000 cycles",
        "mcf 2-wide ref0 transformed: timed out after 1000 cycles",
    ] {
        assert!(stderr.contains(line), "missing {line:?} in:\n{stderr}");
    }
}
