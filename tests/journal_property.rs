//! Property tests for the `VGJ1` sweep journal (DESIGN.md §7.11):
//! random job sets round-trip bit-exactly, `append_new` journals each
//! key once, and a truncated or corrupted tail is *dropped*, never
//! trusted — every record a read returns is byte-identical to one the
//! writer appended, in append order, no matter where the file was cut
//! or which byte was flipped.

use proptest::prelude::*;
use std::collections::HashSet;
use std::fs;
use std::sync::atomic::{AtomicU64, Ordering};
use vanguard_core::{Journal, JournalRecord};

/// Magic (4) + per-record header (key 8 + len 4 + checksum 8).
const MAGIC_LEN: usize = 4;
const RECORD_HEADER: usize = 20;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A fresh journal in a per-case temp directory (proptest runs many
/// cases per test; each needs its own file).
fn case_journal() -> (Journal, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!(
        "vanguard-journal-prop-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    (Journal::new(dir.join("j.vgj")), dir)
}

fn arb_jobs() -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
    proptest::collection::vec(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..40)),
        0..12,
    )
}

/// Byte offset where record `i` starts, given the appended job set.
fn record_offsets(jobs: &[(u64, Vec<u8>)]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(jobs.len() + 1);
    let mut at = MAGIC_LEN;
    for (_, payload) in jobs {
        offsets.push(at);
        at += RECORD_HEADER + payload.len();
    }
    offsets.push(at);
    offsets
}

/// The records a snapshot must be a prefix of: exactly the appended
/// jobs, in order, byte-identical.
fn assert_valid_prefix(records: &[JournalRecord], jobs: &[(u64, Vec<u8>)]) {
    assert!(records.len() <= jobs.len());
    for (record, (key, payload)) in records.iter().zip(jobs) {
        assert_eq!(record.key, *key, "a surviving record's key was altered");
        assert_eq!(
            record.payload, *payload,
            "a surviving record's payload was altered"
        );
    }
}

/// The job set with every repeated key dropped (first wins): what a
/// journal written through `Journal::append_new` must hold.
fn unique_jobs(jobs: &[(u64, Vec<u8>)]) -> Vec<(u64, Vec<u8>)> {
    let mut seen = HashSet::new();
    jobs.iter()
        .filter(|(k, _)| seen.insert(*k))
        .cloned()
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random job sets round-trip: every appended record comes back,
    /// in append order, byte-identical, with nothing dropped.
    #[test]
    fn random_job_sets_roundtrip(jobs in arb_jobs()) {
        let (journal, dir) = case_journal();
        for (key, payload) in &jobs {
            journal.append(*key, payload).unwrap();
        }
        let snap = journal.read().unwrap();
        assert_eq!(snap.records.len(), jobs.len());
        assert_eq!(snap.dropped_bytes, 0);
        assert_valid_prefix(&snap.records, &jobs);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Truncating the file at any point keeps exactly the records that
    /// fit whole before the cut; the torn tail is dropped, and the
    /// journal stays readable and appendable.
    #[test]
    fn truncation_keeps_only_whole_records(jobs in arb_jobs(), cut in any::<u64>()) {
        let (journal, dir) = case_journal();
        for (key, payload) in &jobs {
            journal.append(*key, payload).unwrap();
        }
        let bytes = if jobs.is_empty() {
            Vec::new()
        } else {
            fs::read(journal.path()).unwrap()
        };
        let offsets = record_offsets(&jobs);
        if !jobs.is_empty() {
            assert_eq!(bytes.len(), *offsets.last().unwrap());
            let cut = MAGIC_LEN + (cut as usize) % (bytes.len() - MAGIC_LEN + 1);
            fs::write(journal.path(), &bytes[..cut]).unwrap();
            let expected = offsets.iter().skip(1).filter(|&&end| end <= cut).count();
            let snap = journal.read().unwrap();
            assert_eq!(snap.records.len(), expected, "cut at byte {cut}");
            assert_eq!(snap.dropped_bytes as usize, cut - offsets[expected]);
            assert_valid_prefix(&snap.records, &jobs);
            // The truncated journal still accepts appends and the new
            // record is visible (the dead tail stays dropped).
            journal.append(0xfeed, b"resumed").unwrap();
            let after = journal.read().unwrap();
            assert!(after.records.len() <= expected + 1);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte after the magic never lets a corrupted
    /// record through: the snapshot is a byte-identical prefix of the
    /// appended jobs that stops before the flipped record.
    #[test]
    fn corruption_is_never_trusted(jobs in arb_jobs(), at in any::<u64>(), flip in 1u8..=255) {
        let (journal, dir) = case_journal();
        if jobs.is_empty() {
            let _ = fs::remove_dir_all(&dir);
            return Ok(());
        }
        for (key, payload) in &jobs {
            journal.append(*key, payload).unwrap();
        }
        let mut bytes = fs::read(journal.path()).unwrap();
        let at = MAGIC_LEN + (at as usize) % (bytes.len() - MAGIC_LEN);
        bytes[at] ^= flip;
        fs::write(journal.path(), &bytes).unwrap();

        let offsets = record_offsets(&jobs);
        // Index of the record the flipped byte lives in.
        let hit = offsets.iter().skip(1).filter(|&&end| end <= at).count();
        let snap = journal.read().unwrap();
        assert_eq!(
            snap.records.len(),
            hit,
            "flip at byte {at} (record {hit}) must drop that record and the rest"
        );
        assert!(snap.dropped_bytes > 0);
        assert_valid_prefix(&snap.records, &jobs);
        let _ = fs::remove_dir_all(&dir);
    }

    /// `append_new` journals each key once: written through it, a job
    /// set with repeated keys reads back as its first-wins unique
    /// subset, in append order, and every key is refused afterwards —
    /// the dedup that bounds a sweep's journal by its plan.
    #[test]
    fn append_new_journals_each_key_once(jobs in arb_jobs(), repeat in any::<u64>()) {
        let (journal, dir) = case_journal();
        // Repeat a seed-chosen prefix so the set always has duplicates.
        let mut all = jobs.clone();
        let n = if jobs.is_empty() { 0 } else { (repeat as usize) % (jobs.len() + 1) };
        all.extend(jobs[..n].iter().map(|(k, _)| (*k, b"dup".to_vec())));
        let unique = unique_jobs(&all);
        for (key, payload) in &all {
            journal.append_new(*key, payload).unwrap();
        }
        let snap = journal.read().unwrap();
        assert_eq!(snap.records.len(), unique.len());
        assert_eq!(snap.dropped_bytes, 0);
        assert!(snap.duplicate_keys().is_empty());
        assert_valid_prefix(&snap.records, &unique);
        for (key, _) in &unique {
            assert!(!journal.append_new(*key, b"dup").unwrap(), "key {key:#x} journaled twice");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
