//! In-memory span recording and the self-time arithmetic.
//!
//! A span is one call into a layer: a name, the layer it belongs to, a
//! start and an end on a monotonic clock, and a parent. Spans of one
//! job share a job id. Recording only appends to a vector; the spans are
//! written out once, after the measured run.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call into a layer. Times are nanoseconds since the
/// tracer's epoch; `parent == 0` marks a root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Unique id (ids start at 1).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Job id shared by all spans of one job (0 outside jobs).
    pub job: u64,
    /// Layer the span is charged to.
    pub layer: &'static str,
    /// Call name.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
}

/// Span recorder. A disabled tracer still hands out clock readings and
/// ids but stores nothing, so traced and untraced runs share one code
/// path.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            epoch: Instant::now(),
            enabled,
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being stored.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh span id.
    pub fn alloc(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores a finished span (no-op when disabled).
    pub fn push(&self, span: Span) {
        if self.enabled {
            self.spans
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(span);
        }
    }

    /// Runs `f` as a span under `parent`, passing it the new span's id.
    pub fn span<R>(
        &self,
        parent: u64,
        job: u64,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.alloc();
        let start = self.now();
        let out = f(id);
        let end = self.now();
        if self.enabled {
            self.push(Span {
                id,
                parent,
                job,
                layer,
                name: name.to_string(),
                start,
                end,
            });
        }
        out
    }

    /// All stored spans, in recording order.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
/// Overlapping intervals count once.
pub fn union_within(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals inside it. Children that overlap each other (on
/// different threads) are not subtracted twice, and the part of a child
/// outside its parent is not subtracted at all.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| union_within(c, s.start, s.end));
            dur - covered
        })
        .collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0) += t;
    }
    out
}

/// Writes spans as tab-separated lines:
/// `id parent job layer name start_ns end_ns`.
pub fn write_spans(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\tjob\tlayer\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.job, s.layer, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            layer,
            name: layer.to_string(),
            start,
            end,
        }
    }

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_within(&[(10, 40), (30, 60)], 0, 100), 50);
        assert_eq!(union_within(&[(10, 20), (30, 40)], 0, 100), 20);
        assert_eq!(union_within(&[(90, 120)], 0, 100), 10);
        assert_eq!(union_within(&[(10, 20), (10, 20)], 0, 100), 10);
        assert_eq!(union_within(&[(10, 50), (20, 30)], 0, 100), 40);
        assert_eq!(union_within(&[(150, 160)], 0, 100), 0);
        assert_eq!(union_within(&[], 0, 100), 0);
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Two jobs on two worker threads overlap inside one item.
        let spans = vec![
            span(1, 0, "harness", 0, 100),
            span(2, 1, "engine", 10, 60),
            span(3, 1, "engine", 40, 90),
            span(4, 2, "sim", 20, 50),
            span(5, 3, "sim", 45, 85),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 30, 40]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["harness"], 20);
        assert_eq!(layers["engine"], 30);
        assert_eq!(layers["sim"], 70);
    }

    #[test]
    fn child_outside_parent_only_counts_its_inside_part() {
        let spans = vec![span(1, 0, "a", 0, 100), span(2, 1, "b", 80, 130)];
        assert_eq!(self_times(&spans), vec![80, 50]);
    }

    #[test]
    fn grandchildren_do_not_reduce_the_grandparent() {
        let spans = vec![
            span(1, 0, "a", 0, 100),
            span(2, 1, "b", 0, 50),
            span(3, 2, "c", 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![50, 0, 50]);
    }

    #[test]
    fn disabled_tracer_stores_nothing() {
        let t = Tracer::new(false);
        let v = t.span(0, 0, "x", "x", |id| id);
        assert_eq!(v, 1);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        t.span(0, 7, "x", "call", |_| ());
        let spans = t.take();
        assert_eq!(spans.len(), 1);
        assert_eq!((spans[0].job, spans[0].layer), (7, "x"));
    }
}
