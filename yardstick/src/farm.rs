//! Farm probes: the sweep farm's storage calls timed one by one on the
//! sweep's own journal records, at the journal size the sweep reaches.
//!
//! `Journal::append` and `Journal::read` run on a fresh journal that
//! grows to the full record count; `DiskCache::store_content`,
//! `load_content` and `claim` run on a fresh content store.

use std::io;
use std::path::Path;
use std::time::Instant;
use vanguard_core::{DiskCache, Journal};

use crate::jobs::quantile;
use crate::json::Obj;

/// Reads of the full journal, for a stable median.
const READS: usize = 5;
const TAG: &str = "yardstick";

fn micros<R>(samples: &mut Vec<f64>, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    samples.push(t.elapsed().as_secs_f64() * 1e6);
    out
}

/// Records of an existing journal (the sweep's own).
pub fn journal_records(path: &Path) -> io::Result<Vec<(u64, Vec<u8>)>> {
    Ok(Journal::new(path)
        .read()?
        .records
        .into_iter()
        .map(|r| (r.key, r.payload))
        .collect())
}

/// Times every farm call over `records` in `work` and adds the medians
/// to `out`.
pub fn probe(records: &[(u64, Vec<u8>)], work: &Path, out: &mut Obj) -> io::Result<()> {
    let jpath = work.join("probe.vgj");
    let cdir = work.join("probe-cache");
    let _ = std::fs::remove_file(&jpath);
    let _ = std::fs::remove_dir_all(&cdir);
    std::fs::create_dir_all(&cdir)?;

    let journal = Journal::new(&jpath);
    let mut append = Vec::new();
    for (key, payload) in records {
        micros(&mut append, || journal.append(*key, payload))?;
    }
    let mut read = Vec::new();
    let mut count = 0;
    for _ in 0..READS {
        count = micros(&mut read, || journal.read())?.records.len();
    }
    let bytes = std::fs::metadata(&jpath)?.len();

    let cache = DiskCache::new(&cdir);
    let (mut store, mut load, mut claim) = (Vec::new(), Vec::new(), Vec::new());
    for (_, payload) in records {
        let key = micros(&mut store, || cache.store_content(TAG, payload))?;
        let back = micros(&mut load, || cache.load_content(TAG, key));
        if !matches!(back, Ok(Some(ref p)) if p == payload) {
            return Err(io::Error::other(
                "content store returned a different payload",
            ));
        }
        micros(&mut claim, || cache.claim(TAG, key).map(drop))?;
    }
    let read_ms = quantile(&read, 0.5) / 1e3;
    let (append_us, store_us, load_us, claim_us) = (
        quantile(&append, 0.5),
        quantile(&store, 0.5),
        quantile(&load, 0.5),
        quantile(&claim, 0.5),
    );
    out.int("journal.records", count as u64)
        .int("journal.bytes", bytes)
        .num("journal.append_us", append_us)
        .num("journal.read_ms", read_ms)
        .num("cache.store_us", store_us)
        .num("cache.load_us", load_us)
        .num("cache.claim_us", claim_us);
    Ok(())
}
