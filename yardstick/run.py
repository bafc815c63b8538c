#!/usr/bin/env python3
"""The repository benchmark: one command per workload and seed.

    python3 yardstick/run.py --workload suite-quick --seed 0 --seconds 10 --trace 0

Builds the `yardstick` probe and the `vanguard-sweep` / `vanguard-fuzz`
binaries from source, repeats the workload until `--seconds` have
passed, checks every output, and prints one JSON object as the last line
of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a separate traced run. Exits 1 on any correctness failure,
including a simulated-statistics fingerprint that differs from the one
stored for the seed; 2 when the build or a probe cannot run. See
README.md beside this file.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN_QUICK = os.path.join(ROOT, "tests", "golden", "figures_quick_all.txt")
SNAPSHOT_FULL = os.path.join(HERE, "snapshots", "suite-full.txt")
FINGERPRINTS = os.path.join(HERE, "snapshots", "fingerprints.json")

# The workloads BENCHMARK.json declares.
WORKLOADS = ("suite-quick", "fuzz-diff")
# Runnable by hand but not declared (README, "Workloads"): `suite-full`
# so that the two declared ones get longer runs, and `sweep-grid`
# because a sharded sweep intermittently aborts on a journal defect in
# the program.
UNDECLARED = ("suite-full", "sweep-grid")
DEFAULT_SEED = 0
SAMPLE_JOBS = 4
SWEEP_SHARDS = 2
# 1-shard / --serial pairs behind farm.overhead_ms_per_job.
FARM_PAIRS = 3
# No single subprocess may outlive the run's 180-second limit.
STEP_TIMEOUT_S = 150

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "mips": "MIPS",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
    "sim_cycles": "cycles",
    "speedup_4w_geomean": "ratio",
}

PER_LAYER = {
    "workloads.build_ms": "ms",
    "workloads.input_mb": "MB",
    "engine.profile.runs": "count",
    "engine.profile.hits": "count",
    "engine.profile.ms": "ms",
    "engine.compile.runs": "count",
    "engine.compile.hits": "count",
    "engine.compile.ms": "ms",
    "engine.sim.jobs": "count",
    "engine.sim.busy_ms": "ms",
    "engine.sim.job_ms_p50": "ms",
    "engine.sim.job_ms_p95": "ms",
    "engine.pool.busy_frac": "ratio",
    "engine.pool.tail_ms": "ms",
    "engine.pool.wait_ms": "ms",
    "engine.jobs_failed": "count",
    "engine.jobs_retried": "count",
    "sim.fetch_ns_per_cycle": "ns",
    "sim.issue_ns_per_cycle": "ns",
    "sim.commit_ns_per_cycle": "ns",
    "sim.other_ns_per_cycle": "ns",
    "sim.ns_per_cycle": "ns",
    "sim.ipc": "ratio",
    "sim.frontend_stall_cycles": "cycles",
    "sim.operand_stall_cycles": "cycles",
    "sim.fu_stall_cycles": "cycles",
    "sim.branch_stall_cycles": "cycles",
    "sim.resolve_stall_cycles": "cycles",
    "sim.issued_wrong_path": "count",
    "bpred.mppki": "1/kinst",
    "bpred.resolve_mispredicts": "count",
    "mem.l1d_misses": "count",
    "mem.l2_misses": "count",
    "mem.l3_misses": "count",
    "transform.sites_converted": "count",
    "transform.code_growth_pct": "%",
    "lint.ms": "ms",
    "verify.ms": "ms",
    "interp.ms": "ms",
    "self_ms.workloads": "ms",
    "self_ms.harness": "ms",
    "self_ms.engine": "ms",
    "self_ms.profile": "ms",
    "self_ms.compile": "ms",
    "self_ms.sim": "ms",
    "self_ms.lint": "ms",
    "self_ms.verify": "ms",
    "self_ms.interp": "ms",
    "self_ms.untraced": "ms",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.idle_frac": "ratio",
    "trace.spans": "count",
}

# The farm's per-layer metrics. Only `sweep-grid` calls into the farm.
FARM_LAYER = {
    "farm.overhead_ms_per_job": "ms",
    "journal.records": "count",
    "journal.bytes": "bytes",
    "journal.append_us": "us",
    "journal.read_ms": "ms",
    "cache.entries": "count",
    "cache.bytes": "bytes",
    "cache.store_us": "us",
    "cache.load_us": "us",
    "cache.claim_us": "us",
}

# Per-layer metrics that one undeclared workload's traced run prints
# after PER_LAYER: the farm's, and the gap to the paper's full-scale
# Figure 8, which only `suite-full` reproduces.
EXTRA_LAYER = {
    "sweep-grid": FARM_LAYER,
    "suite-full": {"paper_gap_4w_pp": "pp"},
}

# The paper's Figure 8 4-wide SPEC INT 2006 geomean (its PTLSim result;
# the model is not validated against hardware).
PAPER_FIG8_4W_PCT = 11.0

class ProbeError(Exception):
    """A probe or binary could not run at all (not a wrong output)."""


def log(msg):
    sys.stderr.write(f"[yardstick] {msg}\n")
    sys.stderr.flush()


def median(values):
    """Median; counts stay whole numbers."""
    if not values:
        return 0.0
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def timing(name, values):
    """Median of a host timing; logs the sample count and range."""
    log(f"{name}: median {median(values):.4f} over {len(values)} repetitions "
        f"(min {min(values):.4f}, max {max(values):.4f})")
    return median(values)


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def child_env(**extra):
    """The caller's environment without any VANGUARD_* knob, plus
    `extra`: every engine and farm setting is pinned explicitly."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VANGUARD_")}
    env["CARGO_TARGET_DIR"] = target_dir()
    env.update({k: str(v) for k, v in extra.items()})
    return env


def build():
    cmds = [
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(HERE, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "-p", "vanguard-bench",
         "--bin", "vanguard-sweep", "--bin", "vanguard-fuzz"],
    ]
    for cmd in cmds:
        r = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                           stderr=subprocess.PIPE, timeout=850)
        if r.returncode != 0:
            sys.stderr.write(r.stderr.decode(errors="replace")[-4000:])
            raise ProbeError(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir(), "release")
    return {name: os.path.join(release, name)
            for name in ("yardstick", "vanguard-sweep", "vanguard-fuzz")}


class Proc:
    """A finished child process: exit code, wall seconds, peak RSS (MB,
    the child and the children it waited for), stdout and stderr."""

    def __init__(self, code, wall, rss_mb, out, err):
        self.code, self.wall, self.rss_mb, self.out, self.err = code, wall, rss_mb, out, err

    def json(self):
        lines = self.out.strip().splitlines()
        if self.code != 0 or not lines:
            raise ProbeError(f"probe exited {self.code}: {self.err.strip()[-2000:]}")
        return json.loads(lines[-1])


def spawn(cmd, work, env):
    """Runs `cmd` to completion in its own process and measures it."""
    out_path = os.path.join(work, "child.out")
    err_path = os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        p = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(STEP_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        text = f.read()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        errs = f.read()
    return Proc(p.returncode, wall, usage.ru_maxrss / 1024.0, text, errs)


class Run:
    """State of one benchmark invocation."""

    def __init__(self, args, bins, work):
        self.workload = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.bins = bins
        self.work = work
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0

    def fail(self, what, count=1):
        self.failed += count
        log(f"FAIL {what}")

    def start_window(self):
        """Starts the measured window, after the untimed warm-up."""
        self.started = time.perf_counter()

    def window_open(self, reps):
        return reps == 0 or time.perf_counter() - self.started < self.seconds

    def path(self, name):
        return os.path.join(self.work, name)

    def probe(self, *args):
        return spawn([self.bins["yardstick"], *args], self.work, child_env())

    def probe_args(self, cmd):
        return [cmd, "--workload", self.workload, "--seed", str(self.seed)]


def read(path):
    with open(path, "rb") as f:
        return f.read()


def check_fingerprint(run, digest, sim_cycles, speedup):
    """Compares the simulated-statistics fingerprint with the one stored
    for this workload and seed. The fingerprint is exact, so a
    difference is a behaviour change, never noise, and it fails the run:
    a host-only change must leave it bit-identical."""
    with open(FINGERPRINTS, encoding="utf-8") as f:
        stored = json.load(f).get(run.workload, {}).get(str(run.seed))
    mine = {"digest": digest, "sim_cycles": sim_cycles, "speedup_4w_geomean": speedup}
    if stored is None:
        log(f"fingerprint {mine} (none stored for seed {run.seed}: not checked)")
    elif stored == mine:
        log(f"fingerprint {digest} matches the stored one: simulated behaviour unchanged")
    else:
        run.fail(f"behaviour change: fingerprint {mine} differs from stored {stored}")


def rep_fingerprint(run, rep):
    """Checks a `yardstick rep` result's fingerprint; returns its
    speedup ratio."""
    speedup = 1 + rep["speedup_4w_geomean_pct"] / 100
    check_fingerprint(run, rep["digest"], rep["sim_cycles"], speedup)
    return speedup


def sample_check(run):
    """Seeded sample: committed state equals the interpreter's, lint
    clean, oracle differential clean."""
    r = run.probe(*run.probe_args("sample"), "--jobs", str(SAMPLE_JOBS)).json()
    run.attempted += int(r["sample.jobs"])
    if r["failed"]:
        run.fail(f"{r['failed']} sampled jobs disagree with the interpreter", r["failed"])


# ---------------------------------------------------------------- suite-*

def probe_reps(run, traced):
    """`yardstick rep` repetitions until the window closes, checked;
    with `traced`, untraced and traced repetitions alternate."""
    reps = []
    while run.window_open(len(reps)):
        for trace in ([False, True] if traced else [False]):
            n = len(reps)
            args = run.probe_args("rep") + ["--out", run.path(f"figs-{n}.txt")]
            if traced:
                args += ["--sample", str(SAMPLE_JOBS)]
            if trace:
                args += ["--trace", run.path(f"spans-{n}.tsv")]
            p = run.probe(*args)
            rep = p.json()
            rep["_proc"], rep["_traced"], rep["_n"] = p, trace, n
            reps.append(rep)
    for rep in reps:
        run.attempted += int(rep["attempted"])
        if rep["failed"] or rep["check_failures"]:
            run.fail(f"rep {rep['_n']}: {rep['failed']} jobs failed, "
                     f"{rep['check_failures']} checks failed",
                     int(rep["failed"]) + int(rep["check_failures"]))
        if run.workload.startswith("suite") and run.seed == DEFAULT_SEED:
            ref = GOLDEN_QUICK if run.workload == "suite-quick" else SNAPSHOT_FULL
            if read(run.path(f"figs-{rep['_n']}.txt")) != read(ref):
                run.fail(f"rep {rep['_n']}: figure output differs from {os.path.relpath(ref, ROOT)}")
    digests = {(r["digest"], r["sim_cycles"]) for r in reps}
    if len(digests) != 1:
        run.fail(f"simulated statistics differ between repetitions: {sorted(digests)}")
    return reps


def suite_e2e(run):
    # The sample check doubles as the warm-up: it loads the probe and
    # builds inputs before the first timed repetition.
    sample_check(run)
    run.start_window()
    reps = probe_reps(run, traced=False)
    first = reps[0]
    speedup = rep_fingerprint(run, first)
    walls = [r["_proc"].wall for r in reps]
    return {
        "wall_s": timing("wall_s", walls),
        "setup_s": timing("setup_s", [r["setup_s"] for r in reps]),
        "mips": median([r["sim_insts"] / r["_proc"].wall / 1e6 for r in reps]),
        "peak_rss_mb": median([r["_proc"].rss_mb for r in reps]),
        "sim_cycles": first["sim_cycles"],
        "speedup_4w_geomean": speedup,
    }


# ------------------------------------------------------------- sweep-grid

def parse_merged(text):
    """Sweep merged output -> (lines, failed, cycles, committed insts,
    4-wide vanguard/combined24kb speedup ratio)."""
    lines = text.splitlines()
    failed = cycles = insts = 0
    base, xform = {}, {}
    for line in lines:
        head, _, payload = line.partition(" | ")
        fields = payload.split()
        if not fields or fields[0] != "ok":
            failed += 1
            continue
        words = [int(w) for w in fields[1:]]
        cycles += words[0]
        insts += words[1] - words[2]
        _, kind, pred, width, bench, ref, side = head.split()
        if (kind, pred, width) == ("vanguard", "combined24kb", "w4"):
            (base if side == "base" else xform)[(bench, ref)] = words[0]
    ratios = [base[k] / xform[k] for k in base if k in xform]
    geo = statistics.geometric_mean(ratios) if ratios else 1.0
    return len(lines), failed, cycles, insts, geo


def serial_fingerprint(run, serial):
    """Checks the fingerprint of a `--serial` merged output; returns its
    cycles, committed instructions and speedup ratio."""
    _, _, cycles, insts, geo = parse_merged(serial.decode())
    check_fingerprint(run, hashlib.sha256(serial).hexdigest()[:16], cycles, geo)
    return cycles, insts, geo


def sweep_run(run, tag, mode):
    """One `vanguard-sweep run` from a fresh cache and journal; `mode`
    is a shard count or "serial". Returns the process and the merged
    output (None when the sweep failed)."""
    out, cache, journal = (run.path(f"{tag}.{ext}") for ext in ("out", "cache", "vgj"))
    shutil.rmtree(cache, ignore_errors=True)
    for stale in (out, journal, journal + ".snap"):
        if os.path.exists(stale):
            os.remove(stale)
    cmd = [run.bins["vanguard-sweep"], "run", "--request", run.path("grid.req"), "--out", out]
    if mode == "serial":
        cmd.append("--serial")
    else:
        cmd += ["--shards", str(mode), "--journal", journal]
    p = spawn(cmd, run.work, child_env(VANGUARD_THREADS=1, VANGUARD_CACHE_DIR=cache))
    if p.code != 0:
        return p, None
    return p, read(out)


def check_sweep(run, what, jobs, p, merged, serial):
    """Counts a sweep's jobs and fails it when it did not finish, left
    jobs incomplete, or differs from the serial output."""
    run.attempted += jobs
    if merged is None:
        last = (p.err.strip().splitlines() or ["?"])[-1]
        run.fail(f"{what}: vanguard-sweep exited {p.code}: {last}", jobs)
        return False
    _, failed, _, _, _ = parse_merged(merged.decode())
    if failed:
        run.fail(f"{what}: {failed} sweep jobs did not complete", failed)
    if serial is not None and merged != serial:
        run.fail(f"{what}: merged output differs from the --serial output")
    return True


def setup_probe(run, extra=()):
    return run.probe(*run.probe_args("setup"), *extra).json()


def sweep_e2e(run):
    reps = []
    while run.window_open(len(reps)):
        setup = setup_probe(run, ["--request", run.path("grid.req")])
        p, merged = sweep_run(run, f"rep{len(reps)}", SWEEP_SHARDS)
        reps.append((setup, p, merged))
    jobs = int(reps[0][0]["jobs"])
    sp, serial = sweep_run(run, "serial", "serial")
    check_sweep(run, "serial sweep", jobs, sp, serial, None)
    ok = [(s, p) for n, (s, p, merged) in enumerate(reps)
          if check_sweep(run, f"rep {n}", jobs, p, merged, serial)]
    sample_check(run)
    cycles, insts, geo = 0, 0, 1.0
    if serial is not None:
        cycles, insts, geo = serial_fingerprint(run, serial)
    timed = ok or [(s, p) for s, p, _ in reps]
    walls = [p.wall for _, p in timed]
    return {
        "wall_s": timing("wall_s", walls),
        "setup_s": timing("setup_s", [s["setup_s"] for s, _, _ in reps]),
        "mips": median([insts / w / 1e6 for w in walls]),
        "peak_rss_mb": median([p.rss_mb for _, p in timed]),
        "sim_cycles": cycles,
        "speedup_4w_geomean": geo,
    }


# -------------------------------------------------------------- fuzz-diff

FUZZ_SUMMARY = re.compile(r"^fuzz: (\d+) cases.* (\d+) failures$", re.M)


def fuzz_e2e(run):
    # The in-process replica re-runs every gate and counts the
    # simulations the exact metrics come from. It runs first, untimed,
    # as the warm-up.
    replica = run.probe(*run.probe_args("rep"), "--sample", str(SAMPLE_JOBS)).json()
    run.start_window()
    reps = []
    while run.window_open(len(reps)):
        setup = setup_probe(run)
        cmd = [run.bins["vanguard-fuzz"], "--cases", str(setup["jobs"]),
               "--seed", str(setup["start_seed"]), "--out", run.path("fuzz-out")]
        p = spawn(cmd, run.work, child_env())
        reps.append((setup, p))
    for n, (setup, p) in enumerate(reps):
        m = FUZZ_SUMMARY.search(p.out)
        run.attempted += int(setup["jobs"])
        if p.code != 0 or not m or int(m.group(1)) != setup["jobs"] or int(m.group(2)):
            failures = int(m.group(2)) if m else int(setup["jobs"])
            run.fail(f"rep {n}: vanguard-fuzz exited {p.code} with {failures} failing cases",
                     max(failures, 1))
    run.attempted += int(replica["attempted"])
    if replica["failed"] or replica["check_failures"]:
        run.fail(f"replica: {replica['failed']} cases failed, "
                 f"{replica['check_failures']} checks failed",
                 int(replica["failed"]) + int(replica["check_failures"]))
    speedup = rep_fingerprint(run, replica)
    walls = [p.wall for _, p in reps]
    return {
        "wall_s": timing("wall_s", walls),
        "setup_s": timing("setup_s", [s["setup_s"] for s, _ in reps]),
        "mips": median([replica["sim_insts"] / w / 1e6 for w in walls]),
        "peak_rss_mb": median([p.rss_mb for _, p in reps]),
        "sim_cycles": replica["sim_cycles"],
        "speedup_4w_geomean": speedup,
    }


# ------------------------------------------------------------ traced run

def dir_stats(path):
    entries = size = 0
    for dirpath, _, files in os.walk(path):
        for f in files:
            entries += 1
            size += os.path.getsize(os.path.join(dirpath, f))
    return entries, size


def traced(run):
    """Untraced and traced in-process reps alternate; the per-layer
    metrics are medians over the traced ones. Then the farm probes."""
    reps = probe_reps(run, traced=True)
    if run.workload != "sweep-grid":
        rep_fingerprint(run, reps[0])
    plain = [r for r in reps if not r["_traced"]]
    spans = [r for r in reps if r["_traced"]]
    kept = os.path.join(target_dir(), "yardstick-spans", f"{run.workload}-seed{run.seed}.tsv")
    os.makedirs(os.path.dirname(kept), exist_ok=True)
    shutil.copyfile(run.path(f"spans-{spans[-1]['_n']}.tsv"), kept)
    log(f"spans of the last traced repetition: {kept}")
    metrics = {}
    for name in PER_LAYER:
        values = [r[name] for r in spans if name in r]
        if values:
            metrics[name] = median(values)
    metrics["trace.overhead_s"] = median([r["rep_s"] for r in spans]) - median(
        [r["rep_s"] for r in plain])
    if run.workload == "suite-full":
        metrics["paper_gap_4w_pp"] = spans[0]["speedup_4w_geomean_pct"] - PAPER_FIG8_4W_PCT

    if run.workload == "sweep-grid":
        # One paired difference is within host noise, so take the median
        # over a few pairs, alternating which side runs first.
        jobs = int(setup_probe(run, ["--request", run.path("grid.req")])["jobs"])
        diffs = []
        for n in range(FARM_PAIRS):
            order = ["one", "serial"] if n % 2 == 0 else ["serial", "one"]
            runs = {tag: sweep_run(run, tag, 1 if tag == "one" else "serial") for tag in order}
            (one, merged), (serial, reference) = runs["one"], runs["serial"]
            check_sweep(run, "serial sweep", jobs, serial, reference, None)
            check_sweep(run, "1-shard sweep", jobs, one, merged, reference)
            diffs.append((one.wall - serial.wall) / jobs * 1e3)
        if reference is not None:
            serial_fingerprint(run, reference)
        metrics["farm.overhead_ms_per_job"] = timing("farm.overhead_ms_per_job", diffs)
        farm = run.probe("farm", "--work", run.work, "--journal", run.path("one.vgj")).json()
        for name in FARM_LAYER:
            if name in farm:
                metrics[name] = farm[name]
        metrics["cache.entries"], metrics["cache.bytes"] = dir_stats(run.path("one.cache"))
    return complete(run.workload, metrics)


def complete(workload, metrics):
    """Every per-layer metric the workload prints, in order, and their
    units: PER_LAYER, then the workload's EXTRA_LAYER. One it should
    have measured and did not is an error."""
    units = {**PER_LAYER, **EXTRA_LAYER.get(workload, {})}
    missing = [n for n in units if n not in metrics]
    if missing:
        raise ProbeError(f"traced run did not produce {missing}")
    return {n: metrics[n] for n in units}, units


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + UNDECLARED)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    try:
        bins = build()
        work = os.path.join(target_dir(), "yardstick-work", f"{args.workload}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        run = Run(args, bins, work)
        try:
            if args.trace:
                values, units = traced(run)
            else:
                runner = {"suite-quick": suite_e2e, "suite-full": suite_e2e,
                          "sweep-grid": sweep_e2e, "fuzz-diff": fuzz_e2e}[args.workload]
                values = runner(run)
                values["ok_rate"] = 1 - run.failed / max(run.attempted, 1)
                units = END_TO_END
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except (ProbeError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        log(f"cannot run: {e}")
        return 2

    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
