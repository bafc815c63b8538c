//! Integration tests for the `vanguard-sweep` binary: the CI
//! `sweep-resume` gate's contract, exercised through the real CLI.
//!
//! * a sharded run's merged output is byte-identical to `--serial`,
//!   and a completed run leaves only its journal behind (the claim
//!   directory is empty: no artifact entries, no stale claims);
//! * `--fault-kill-after` interrupts the run (exit 3) leaving a
//!   partial journal, and `resume` completes it byte-identically;
//! * a malformed number on any numeric flag is a usage error (exit 2);
//! * the committed request file `tests/sweeps/ci-quick.req` stays in
//!   sync with [`SweepRequest::ci_quick`].

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use vanguard_bench::sweep::{claim_dir, SweepRequest};

const SWEEP_EXE: &str = env!("CARGO_BIN_EXE_vanguard-sweep");

/// The committed CI request file (repo root `tests/sweeps/`).
fn ci_request_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/sweeps/ci-quick.req")
}

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "vanguard-sweep-resume-{tag}-{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Runs `vanguard-sweep` with `args`, returning (exit code, stdout).
/// Forwards the child's stderr so a failing assertion shows *why* the
/// binary exited the way it did.
fn run_sweep(args: &[&str]) -> (i32, Vec<u8>) {
    let output = Command::new(SWEEP_EXE)
        .args(args)
        .output()
        .expect("spawn vanguard-sweep");
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    (output.status.code().unwrap_or(-1), output.stdout)
}

#[test]
fn committed_request_matches_ci_quick() {
    let text = fs::read_to_string(ci_request_path()).expect("committed request file");
    let parsed = SweepRequest::parse(&text).expect("committed request parses");
    assert_eq!(parsed, SweepRequest::ci_quick());
    // The canonical render round-trips (the file may add comments, but
    // its semantic content is exactly the CI quick request).
    assert_eq!(SweepRequest::parse(&parsed.render()).unwrap(), parsed);
}

#[test]
fn sharded_run_matches_serial_byte_for_byte() {
    let dir = scratch("sharded");
    let request = ci_request_path();
    let request = request.to_str().unwrap();

    let (code, serial) = run_sweep(&["run", "--request", request, "--serial"]);
    assert_eq!(code, 0, "serial run succeeds");
    assert!(!serial.is_empty());

    let journal = dir.join("sharded.vgj");
    let (code, sharded) = run_sweep(&[
        "run",
        "--request",
        request,
        "--journal",
        journal.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    assert_eq!(code, 0, "sharded run succeeds");
    assert_eq!(sharded, serial, "sharded merge is byte-identical to serial");

    // A completed sweep leaves its journal and nothing else: no
    // profile, pair or image entries, and every claim file released.
    let claims: Vec<PathBuf> = fs::read_dir(claim_dir(&journal))
        .map(|rd| rd.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(claims.is_empty(), "claim directory not empty: {claims:?}");
    let mut files = Vec::new();
    let mut dirs = vec![dir.clone()];
    while let Some(d) = dirs.pop() {
        for entry in fs::read_dir(&d).unwrap().flatten() {
            if entry.path().is_dir() {
                dirs.push(entry.path());
            } else {
                files.push(entry.path());
            }
        }
    }
    assert_eq!(files, vec![journal.clone()], "only the journal is left");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = scratch("killresume");
    let request = ci_request_path();
    let request = request.to_str().unwrap();

    let (code, serial) = run_sweep(&["run", "--request", request, "--serial"]);
    assert_eq!(code, 0);

    // Interrupt: SIGKILL the workers after 2 journaled jobs. The
    // throttle keeps jobs slow enough that the kill lands mid-sweep.
    let journal = dir.join("killed.vgj");
    let (code, _) = run_sweep(&[
        "run",
        "--request",
        request,
        "--journal",
        journal.to_str().unwrap(),
        "--shards",
        "2",
        "--fault-kill-after",
        "2",
        "--throttle-ms",
        "40",
    ]);
    assert_eq!(code, 3, "--fault-kill-after exits 3 (interrupted)");
    assert!(journal.exists(), "interrupted run leaves its journal");

    // Resuming a journal that does not exist is a usage error.
    let (code, _) = run_sweep(&[
        "resume",
        "--request",
        request,
        "--journal",
        dir.join("no-such.vgj").to_str().unwrap(),
    ]);
    assert_eq!(code, 2, "resume without a journal exits 2");

    // Resume off the partial journal: completes, byte-identical.
    let (code, resumed) = run_sweep(&[
        "resume",
        "--request",
        request,
        "--journal",
        journal.to_str().unwrap(),
        "--shards",
        "2",
    ]);
    assert_eq!(code, 0, "resume completes");
    assert_eq!(
        resumed, serial,
        "resumed merge is byte-identical to an uninterrupted serial run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn malformed_numbers_are_usage_errors() {
    let dir = scratch("badnum");
    let request = ci_request_path();
    let request = request.to_str().unwrap();
    let journal = dir.join("bad.vgj");
    let journal = journal.to_str().unwrap();
    for (flag, value) in [
        ("--shards", "x"),
        ("--shards", "0"),
        ("--fault-kill-after", "x"),
        ("--throttle-ms", "-1"),
    ] {
        let output = Command::new(SWEEP_EXE)
            .args([
                "run",
                "--request",
                request,
                "--journal",
                journal,
                flag,
                value,
            ])
            .output()
            .expect("spawn vanguard-sweep");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{flag} {value} must exit 2, stderr:\n{stderr}"
        );
        assert!(stderr.contains("usage:"), "{flag} {value}: {stderr}");
        assert!(output.stdout.is_empty(), "{flag} {value} ran the sweep");
    }
    let _ = fs::remove_dir_all(&dir);
}
