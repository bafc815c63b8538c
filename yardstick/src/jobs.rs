//! Job records: a [`ProgressObserver`] that logs every simulation job,
//! and the summaries built from the log (fingerprint digest, simulated
//! totals, pool occupancy).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;
use vanguard_core::engine::{JobResult, ProgressObserver, SimJob, Stage};
use vanguard_core::fnv1a;
use vanguard_sim::{MachineConfig, SimStats};

use crate::json::Obj;
use crate::trace::{Span, Tracer};

/// One finished simulation.
#[derive(Clone, Debug)]
pub struct JobDone {
    /// Stable identity of the job (benchmark, machine, predictor, input,
    /// variant, transform).
    pub key: String,
    /// The job's statistics.
    pub stats: SimStats,
    /// Job start and end (tracer clock, ns).
    pub start: u64,
    /// See `start`.
    pub end: u64,
    /// Wall time of the simulate stage alone, ns.
    pub sim_ns: u64,
    /// The pool phase (item) the job ran in.
    pub phase: u64,
}

/// Stable text identity of an engine job.
pub fn job_key(bench: &str, job: &SimJob, kind: &str) -> String {
    format!(
        "{bench}|{kind}|{}|{:?}|ref{}|{:?}",
        machine_text(&job.machine),
        job.predictor,
        job.ref_input,
        job.variant
    )
}

/// A machine's parameters as text, named one by one in the layout
/// `{:?}` gave them when the stored fingerprints were recorded, so a
/// field added to `MachineConfig` later leaves them valid.
fn machine_text(c: &MachineConfig) -> String {
    let m = &c.mem;
    let cache = |size: usize, ways: usize, line: usize, latency: u32| {
        format!(
            "CacheConfig {{ size_bytes: {size}, ways: {ways}, line_bytes: {line}, \
             latency: {latency} }}"
        )
    };
    let [l1i, l1d, l2, l3] =
        [m.l1i, m.l1d, m.l2, m.l3].map(|k| cache(k.size_bytes, k.ways, k.line_bytes, k.latency));
    format!(
        "MachineConfig {{ width: {}, fetch_buffer: {}, fe_depth: {}, fu_int: {}, \
         fu_ldst: {}, fu_fp: {}, redirect_latency: {}, dbb_entries: {}, \
         mem: MemConfig {{ l1i: {l1i}, l1d: {l1d}, l2: {l2}, l3: {l3}, \
         memory_latency: {}, miss_buffer: {}, lfrq: {} }}, max_cycles: {} }}",
        c.width,
        c.fetch_buffer,
        c.fe_depth,
        c.fu_int,
        c.fu_ldst,
        c.fu_fp,
        c.redirect_latency,
        c.dbb_entries,
        m.memory_latency,
        m.miss_buffer,
        m.lfrq,
        c.max_cycles,
    )
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Logs engine jobs and, when the tracer is enabled, records a span per
/// job and per profile/compile/simulate stage inside it.
#[derive(Debug)]
pub struct JobLog {
    tracer: Arc<Tracer>,
    phase: AtomicU64,
    kind: Mutex<String>,
    open: Mutex<HashMap<ThreadId, (u64, u64)>>,
    done: Mutex<Vec<JobDone>>,
    failed: AtomicU64,
    retried: AtomicU64,
}

impl JobLog {
    /// An empty log on `tracer`'s clock.
    pub fn new(tracer: Arc<Tracer>) -> Self {
        JobLog {
            tracer,
            phase: AtomicU64::new(0),
            kind: Mutex::new("vanguard".into()),
            open: Mutex::new(HashMap::new()),
            done: Mutex::new(Vec::new()),
            failed: AtomicU64::new(0),
            retried: AtomicU64::new(0),
        }
    }

    /// Sets the pool phase (span id of the current item) and the
    /// transform kind jobs of this phase run under.
    pub fn set_phase(&self, phase: u64, kind: &str) {
        self.phase.store(phase, Ordering::Relaxed);
        *lock(&self.kind) = kind.to_string();
    }

    /// Adds a job that ran outside the engine.
    pub fn push(&self, done: JobDone) {
        lock(&self.done).push(done);
    }

    /// Jobs that ended in a non-completed outcome.
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Jobs retried after a transient failure.
    pub fn retried(&self) -> u64 {
        self.retried.load(Ordering::Relaxed)
    }

    /// The finished jobs, in completion order.
    pub fn done(&self) -> Vec<JobDone> {
        lock(&self.done).clone()
    }

    fn close(&self) -> Option<(u64, u64)> {
        lock(&self.open).remove(&std::thread::current().id())
    }

    fn parent(&self) -> u64 {
        lock(&self.open)
            .get(&std::thread::current().id())
            .map_or_else(|| self.phase.load(Ordering::Relaxed), |&(id, _)| id)
    }

    fn stage_span(
        &self,
        parent: u64,
        job: u64,
        layer: &'static str,
        name: &str,
        elapsed: Duration,
    ) {
        let end = self.tracer.now();
        self.tracer.push(Span {
            id: self.tracer.alloc(),
            parent,
            job,
            layer,
            name: name.to_string(),
            start: end.saturating_sub(elapsed.as_nanos() as u64),
            end,
        });
    }
}

impl ProgressObserver for JobLog {
    fn job_started(&self, _index: usize, _job: &SimJob, _bench_name: &str) {
        let id = self.tracer.alloc();
        let now = self.tracer.now();
        lock(&self.open).insert(std::thread::current().id(), (id, now));
    }

    fn job_finished(
        &self,
        _index: usize,
        job: &SimJob,
        bench_name: &str,
        stats: &SimStats,
        elapsed: Duration,
    ) {
        let Some((id, start)) = self.close() else {
            return;
        };
        self.stage_span(id, id, "sim", "simulate", elapsed);
        let end = self.tracer.now();
        let phase = self.phase.load(Ordering::Relaxed);
        let kind = lock(&self.kind).clone();
        self.tracer.push(Span {
            id,
            parent: phase,
            job: id,
            layer: "engine",
            name: format!("job {bench_name}"),
            start,
            end,
        });
        self.push(JobDone {
            key: job_key(bench_name, job, &kind),
            stats: *stats,
            start,
            end,
            sim_ns: elapsed.as_nanos() as u64,
            phase,
        });
    }

    fn job_failed(&self, _index: usize, _job: &SimJob, bench_name: &str, _outcome: &JobResult) {
        self.failed.fetch_add(1, Ordering::Relaxed);
        if let Some((id, start)) = self.close() {
            self.tracer.push(Span {
                id,
                parent: self.phase.load(Ordering::Relaxed),
                job: id,
                layer: "engine",
                name: format!("failed job {bench_name}"),
                start,
                end: self.tracer.now(),
            });
        }
    }

    fn job_retried(&self, _index: usize, _job: &SimJob, _bench_name: &str) {
        self.retried.fetch_add(1, Ordering::Relaxed);
    }

    fn stage_completed(&self, stage: Stage, _bench_name: &str, elapsed: Duration, cached: bool) {
        if cached || !self.tracer.enabled() {
            return;
        }
        let parent = self.parent();
        let (layer, name) = match stage {
            Stage::Profile => ("profile", "profile"),
            Stage::Compile => ("compile", "compile"),
            Stage::Simulate => ("sim", "simulate"),
        };
        self.stage_span(parent, parent, layer, name, elapsed);
    }
}

/// The counters the fingerprint covers, as text. The fields are named
/// one by one (in the layout `{:?}` gave them when the stored
/// fingerprints were recorded), so a counter added to `SimStats` later
/// leaves every stored fingerprint valid.
fn stats_text(s: &SimStats) -> String {
    let m = &s.mem;
    let cache = |hits: u64, misses: u64| format!("CacheStats {{ hits: {hits}, misses: {misses} }}");
    format!(
        "SimStats {{ cycles: {}, issued: {}, issued_wrong_path: {}, fetched: {}, \
         predicts: {}, branches: {}, branch_mispredicts: {}, resolves: {}, \
         resolve_mispredicts: {}, branch_stall_cycles: {}, resolve_stall_cycles: {}, \
         frontend_stall_cycles: {}, operand_stall_cycles: {}, fu_stall_cycles: {}, \
         redirects: {}, icache_miss_under_mispredict: {}, icache_stall_cycles: {}, \
         mem: MemStats {{ l1i: {}, l1d: {}, l2: {}, l3: {}, memory_accesses: {} }} }}",
        s.cycles,
        s.issued,
        s.issued_wrong_path,
        s.fetched,
        s.predicts,
        s.branches,
        s.branch_mispredicts,
        s.resolves,
        s.resolve_mispredicts,
        s.branch_stall_cycles,
        s.resolve_stall_cycles,
        s.frontend_stall_cycles,
        s.operand_stall_cycles,
        s.fu_stall_cycles,
        s.redirects,
        s.icache_miss_under_mispredict,
        s.icache_stall_cycles,
        cache(m.l1i.hits, m.l1i.misses),
        cache(m.l1d.hits, m.l1d.misses),
        cache(m.l2.hits, m.l2.misses),
        cache(m.l3.hits, m.l3.misses),
        m.memory_accesses,
    )
}

/// Order-independent fingerprint of every job's identity and
/// statistics: a hash of the sorted per-job hashes.
pub fn digest(jobs: &[JobDone]) -> u64 {
    let mut hashes: Vec<u64> = jobs
        .iter()
        .map(|j| fnv1a(format!("{}|{}", j.key, stats_text(&j.stats)).as_bytes()))
        .collect();
    hashes.sort_unstable();
    let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// The `q`-quantile (0..=1) of `values` by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Adds the exact simulated totals and the simulated-statistics
/// fingerprint over `jobs` to `out`.
pub fn sim_totals(out: &mut Obj, jobs: &[JobDone]) {
    let sum = |f: fn(&SimStats) -> u64| jobs.iter().map(|j| f(&j.stats)).sum::<u64>();
    let cycles = sum(|s| s.cycles);
    let committed = sum(|s| s.committed());
    let mispredicts = sum(|s| s.branch_mispredicts + s.resolve_mispredicts);
    out.int("sim_jobs", jobs.len() as u64)
        .int("sim_cycles", cycles)
        .int("sim_insts", committed)
        .text("digest", &format!("{:016x}", digest(jobs)))
        .num("sim.ipc", committed as f64 / cycles.max(1) as f64)
        .int(
            "sim.frontend_stall_cycles",
            sum(|s| s.frontend_stall_cycles),
        )
        .int("sim.operand_stall_cycles", sum(|s| s.operand_stall_cycles))
        .int("sim.fu_stall_cycles", sum(|s| s.fu_stall_cycles))
        .int("sim.branch_stall_cycles", sum(|s| s.branch_stall_cycles))
        .int("sim.resolve_stall_cycles", sum(|s| s.resolve_stall_cycles))
        .int("sim.issued_wrong_path", sum(|s| s.issued_wrong_path))
        .num(
            "bpred.mppki",
            mispredicts as f64 * 1000.0 / committed.max(1) as f64,
        )
        .int("bpred.resolve_mispredicts", sum(|s| s.resolve_mispredicts))
        .int("mem.l1d_misses", sum(|s| s.mem.l1d.misses))
        .int("mem.l2_misses", sum(|s| s.mem.l2.misses))
        .int("mem.l3_misses", sum(|s| s.mem.l3.misses));
}

/// Adds pool occupancy over `jobs` to `out`: per phase, the window from
/// the first job start to the last job end on `workers` workers.
pub fn pool_stats(out: &mut Obj, jobs: &[JobDone], workers: usize) {
    let mut phases: HashMap<u64, Vec<&JobDone>> = HashMap::new();
    for j in jobs {
        phases.entry(j.phase).or_default().push(j);
    }
    let (mut capacity, mut busy, mut tail) = (0u64, 0u64, 0u64);
    for js in phases.values() {
        let first = js.iter().map(|j| j.start).min().unwrap_or(0);
        let last_end = js.iter().map(|j| j.end).max().unwrap_or(0);
        let last_start = js.iter().map(|j| j.start).max().unwrap_or(0);
        capacity += (last_end - first) * workers as u64;
        busy += js.iter().map(|j| j.end - j.start).sum::<u64>();
        tail += last_end - last_start;
    }
    let job_ms: Vec<f64> = jobs
        .iter()
        .map(|j| (j.end - j.start) as f64 / 1e6)
        .collect();
    out.int("engine.sim.jobs", jobs.len() as u64)
        .num(
            "engine.sim.busy_ms",
            jobs.iter().map(|j| j.sim_ns).sum::<u64>() as f64 / 1e6,
        )
        .num("engine.sim.job_ms_p50", quantile(&job_ms, 0.50))
        .num("engine.sim.job_ms_p95", quantile(&job_ms, 0.95))
        .num(
            "engine.pool.busy_frac",
            busy as f64 / capacity.max(1) as f64,
        )
        .num("engine.pool.tail_ms", tail as f64 / 1e6)
        .num(
            "engine.pool.wait_ms",
            capacity.saturating_sub(busy) as f64 / 1e6,
        );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 10.0);
        assert_eq!(quantile(&v, 0.95), 19.0);
        assert_eq!(quantile(&[3.0], 0.95), 3.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn digest_ignores_completion_order() {
        let job = |key: &str, cycles| JobDone {
            key: key.into(),
            stats: SimStats {
                cycles,
                ..SimStats::default()
            },
            start: 0,
            end: 1,
            sim_ns: 1,
            phase: 0,
        };
        let a = [job("a", 1), job("b", 2)];
        let b = [job("b", 2), job("a", 1)];
        assert_eq!(digest(&a), digest(&b));
        assert_ne!(digest(&a), digest(&[job("a", 1), job("b", 3)]));
    }

    #[test]
    fn job_key_names_every_recorded_machine_parameter() {
        let mut c = MachineConfig::four_wide();
        (c.width, c.fetch_buffer, c.fe_depth, c.fu_int) = (1, 2, 3, 4);
        (c.fu_ldst, c.fu_fp, c.redirect_latency, c.dbb_entries) = (5, 6, 7, 8);
        for (n, k) in [&mut c.mem.l1i, &mut c.mem.l1d, &mut c.mem.l2, &mut c.mem.l3]
            .into_iter()
            .enumerate()
        {
            (k.size_bytes, k.ways, k.line_bytes, k.latency) = (10 * n + 10, 11, 12, 13);
        }
        (c.mem.memory_latency, c.mem.miss_buffer, c.mem.lfrq) = (14, 15, 16);
        c.max_cycles = 17;
        let cache = |size| {
            format!("CacheConfig {{ size_bytes: {size}, ways: 11, line_bytes: 12, latency: 13 }}")
        };
        assert_eq!(
            machine_text(&c),
            format!(
                "MachineConfig {{ width: 1, fetch_buffer: 2, fe_depth: 3, fu_int: 4, \
                 fu_ldst: 5, fu_fp: 6, redirect_latency: 7, dbb_entries: 8, \
                 mem: MemConfig {{ l1i: {}, l1d: {}, l2: {}, l3: {}, \
                 memory_latency: 14, miss_buffer: 15, lfrq: 16 }}, max_cycles: 17 }}",
                cache(10),
                cache(20),
                cache(30),
                cache(40)
            )
        );
    }

    #[test]
    fn digest_text_names_every_recorded_counter() {
        let mut s = SimStats {
            cycles: 1,
            issued: 2,
            issued_wrong_path: 3,
            fetched: 4,
            predicts: 5,
            branches: 6,
            branch_mispredicts: 7,
            resolves: 8,
            resolve_mispredicts: 9,
            branch_stall_cycles: 10,
            resolve_stall_cycles: 11,
            frontend_stall_cycles: 12,
            operand_stall_cycles: 13,
            fu_stall_cycles: 14,
            redirects: 15,
            icache_miss_under_mispredict: 16,
            icache_stall_cycles: 17,
            ..SimStats::default()
        };
        s.mem.l1i.hits = 18;
        s.mem.l1i.misses = 19;
        s.mem.l1d.hits = 20;
        s.mem.l1d.misses = 21;
        s.mem.l2.hits = 22;
        s.mem.l2.misses = 23;
        s.mem.l3.hits = 24;
        s.mem.l3.misses = 25;
        s.mem.memory_accesses = 26;
        assert_eq!(
            stats_text(&s),
            "SimStats { cycles: 1, issued: 2, issued_wrong_path: 3, fetched: 4, \
             predicts: 5, branches: 6, branch_mispredicts: 7, resolves: 8, \
             resolve_mispredicts: 9, branch_stall_cycles: 10, resolve_stall_cycles: 11, \
             frontend_stall_cycles: 12, operand_stall_cycles: 13, fu_stall_cycles: 14, \
             redirects: 15, icache_miss_under_mispredict: 16, icache_stall_cycles: 17, \
             mem: MemStats { l1i: CacheStats { hits: 18, misses: 19 }, \
             l1d: CacheStats { hits: 20, misses: 21 }, l2: CacheStats { hits: 22, misses: 23 }, \
             l3: CacheStats { hits: 24, misses: 25 }, memory_accesses: 26 } }"
        );
    }
}
