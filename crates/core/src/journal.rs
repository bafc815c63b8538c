//! Persistent append-only job journal: the resume backbone of the
//! sweep service.
//!
//! A sweep's workers append one checksummed record per *completed* job,
//! keyed by the job's deterministic content-addressed key (see
//! [`Engine::job_key`](crate::engine::Engine::job_key)). An interrupted
//! sweep — `SIGKILL`ed worker, lost power, cancelled CI run — resumes
//! from the journal instead of restarting: every key already present is
//! skipped, and the merged output is reconstructed from the recorded
//! payloads without re-running a single job.
//!
//! The format follows the same crash-safety rules as the checksummed
//! entry store (DESIGN.md §7.11):
//!
//! * **Append-only** — records are only ever added at the tail under an
//!   exclusive file lock, so concurrent worker *processes* never
//!   interleave partial records.
//! * **Checksummed** — the file opens with a `VGJ1` magic and every
//!   record carries an FNV-1a checksum over its key, length, and
//!   payload. A torn tail (the writer died mid-append) or a flipped
//!   bit anywhere in a record fails validation.
//! * **Drop-the-tail, never trust it** — [`Journal::read`] returns the
//!   longest valid prefix; anything after the first malformed record is
//!   reported as [`JournalSnapshot::dropped_bytes`] and the jobs it
//!   might have described are simply recomputed. A corrupt journal
//!   degrades a resume into extra work, never into wrong results.
//! * **Bounded by its plan** — [`Journal::append_new`] skips a key that
//!   is already journaled, so a sweep's journal never holds more records
//!   than the sweep has jobs.

use crate::diskcache::fnv1a;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Journal file magic ("Vanguard Journal v1").
pub const JOURNAL_MAGIC: &[u8; 4] = b"VGJ1";

/// Per-record header size: key (8) + payload length (4) + checksum (8).
const RECORD_HEADER: usize = 20;

/// Record checksum: FNV-1a over the key and length header bytes
/// followed by the payload, so a flipped bit *anywhere* in a record —
/// including its key — fails validation and drops the tail.
fn record_checksum(key: u64, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(12 + payload.len());
    buf.extend_from_slice(&key.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    fnv1a(&buf)
}

/// One validated journal record: a completed job's key and its recorded
/// result payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalRecord {
    /// The job's deterministic content-addressed key.
    pub key: u64,
    /// The recorded result (the sweep service stores encoded
    /// [`SimStats`](vanguard_sim::SimStats); the journal itself is
    /// payload-agnostic).
    pub payload: Vec<u8>,
}

/// The validated contents of a journal file.
#[derive(Clone, Debug, Default)]
pub struct JournalSnapshot {
    /// Every valid record, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes discarded after the first malformed record (a torn or
    /// corrupt tail — the affected jobs are recomputed, never trusted).
    pub dropped_bytes: u64,
}

impl JournalSnapshot {
    /// Whether a record for `key` exists.
    pub fn contains(&self, key: u64) -> bool {
        self.records.iter().any(|r| r.key == key)
    }

    /// Keys that appear more than once — a completed job re-ran its
    /// side effects. The kill-and-resume fault class asserts this is
    /// empty across any kill/resume split.
    pub fn duplicate_keys(&self) -> Vec<u64> {
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for r in &self.records {
            *counts.entry(r.key).or_default() += 1;
        }
        let mut dup: Vec<u64> = counts
            .into_iter()
            .filter(|&(_, n)| n > 1)
            .map(|(k, _)| k)
            .collect();
        dup.sort_unstable();
        dup
    }
}

/// Parses the record stream after the magic into the longest valid
/// prefix; everything after the first malformed record is counted in
/// `dropped_bytes`.
fn parse_body(body: &[u8]) -> JournalSnapshot {
    let mut snapshot = JournalSnapshot::default();
    let mut at = 0;
    while at < body.len() {
        let rest = &body[at..];
        if rest.len() < RECORD_HEADER {
            break; // torn header
        }
        let key = u64::from_le_bytes(rest[0..8].try_into().unwrap());
        let len = u32::from_le_bytes(rest[8..12].try_into().unwrap()) as usize;
        let checksum = u64::from_le_bytes(rest[12..20].try_into().unwrap());
        let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + len) else {
            break; // torn payload
        };
        if record_checksum(key, payload) != checksum {
            break; // corrupt record: drop it and everything after
        }
        snapshot.records.push(JournalRecord {
            key,
            payload: payload.to_vec(),
        });
        at += RECORD_HEADER + len;
    }
    snapshot.dropped_bytes = (body.len() - at) as u64;
    snapshot
}

/// A handle on an append-only journal file. Cheap to construct; every
/// operation opens the file fresh, so any number of handles (across any
/// number of processes) can share one journal.
#[derive(Clone, Debug)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// A journal at `path` (the file is created on first append).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Journal { path: path.into() }
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Parses the bytes of the journal file. An empty file holds no
    /// records: the first append creates the file before it writes the
    /// magic, so a concurrent reader can see it at 0 bytes.
    fn parse(&self, bytes: &[u8]) -> io::Result<JournalSnapshot> {
        if bytes.is_empty() {
            return Ok(JournalSnapshot::default());
        }
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(self.not_a_journal());
        }
        Ok(parse_body(&bytes[JOURNAL_MAGIC.len()..]))
    }

    fn not_a_journal(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{} is not a VGJ1 journal", self.path.display()),
        )
    }

    /// Reads and validates the journal. A missing or empty file is an
    /// empty snapshot (a sweep that has not started yet, or whose first
    /// append is still writing the magic); a non-empty file must open
    /// with the `VGJ1` magic.
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or [`io::ErrorKind::InvalidData`] when the
    /// file is non-empty but does not start with the journal magic (it
    /// is not a journal — resuming from it would be meaningless).
    pub fn read(&self) -> io::Result<JournalSnapshot> {
        match fs::read(&self.path) {
            Ok(bytes) => self.parse(&bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(JournalSnapshot::default()),
            Err(e) => Err(e),
        }
    }

    /// Opens (creating if needed) and exclusively locks the file.
    fn open_locked(&self) -> io::Result<File> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&self.path)?;
        file.lock()?;
        Ok(file)
    }

    /// Appends one completed-job record under an exclusive file lock
    /// (creating the file with its magic on first use). The record is
    /// written with a single `write_all` and synced, so a reader — or a
    /// resume after a crash — sees either the whole record or a torn
    /// tail it will drop.
    ///
    /// # Errors
    ///
    /// Returns the I/O error; the caller treats a failed append as "job
    /// not journaled" and the job will be re-run on resume.
    pub fn append(&self, key: u64, payload: &[u8]) -> io::Result<()> {
        let mut file = self.open_locked()?;
        let result = self.append_locked(&mut file, key, payload);
        let _ = File::unlock(&file);
        result
    }

    /// Appends a record only if no record for `key` exists yet, checked
    /// under the same exclusive lock the append itself holds: however
    /// many workers finish the same job (a resume racing a straggler),
    /// at most one journal record for the key ever lands.
    ///
    /// Returns whether the record was written (`false` = already
    /// journaled, nothing to do).
    ///
    /// # Errors
    ///
    /// Returns the I/O error, or [`io::ErrorKind::InvalidData`] for a
    /// non-journal file — same contract as [`Journal::append`].
    pub fn append_new(&self, key: u64, payload: &[u8]) -> io::Result<bool> {
        let mut file = self.open_locked()?;
        let result = (|| {
            let mut bytes = Vec::new();
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut bytes)?;
            if self.parse(&bytes)?.contains(key) {
                return Ok(false);
            }
            self.append_locked(&mut file, key, payload)?;
            Ok(true)
        })();
        let _ = File::unlock(&file);
        result
    }

    fn append_locked(&self, file: &mut File, key: u64, payload: &[u8]) -> io::Result<()> {
        self.ensure_magic_locked(file)?;
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.extend_from_slice(&key.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&record_checksum(key, payload).to_le_bytes());
        record.extend_from_slice(payload);
        file.write_all(&record)?;
        file.sync_all()
    }

    /// Writes the magic into an empty file, or verifies it on an
    /// existing one, leaving the cursor at the end of the file.
    fn ensure_magic_locked(&self, file: &mut File) -> io::Result<()> {
        let end = file.seek(SeekFrom::End(0))?;
        if end == 0 {
            file.write_all(JOURNAL_MAGIC)?;
        } else {
            // Refuse to append to a non-journal file.
            let mut magic = [0u8; 4];
            file.seek(SeekFrom::Start(0))?;
            file.read_exact(&mut magic)?;
            if &magic != JOURNAL_MAGIC {
                return Err(self.not_a_journal());
            }
            file.seek(SeekFrom::End(0))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_journal(tag: &str) -> Journal {
        let dir =
            std::env::temp_dir().join(format!("vanguard-journal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        Journal::new(dir.join("journal.vgj"))
    }

    fn cleanup(j: &Journal) {
        if let Some(dir) = j.path().parent() {
            let _ = fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn missing_file_is_an_empty_snapshot() {
        let j = temp_journal("missing");
        let snap = j.read().unwrap();
        assert!(snap.records.is_empty());
        assert_eq!(snap.dropped_bytes, 0);
        cleanup(&j);
    }

    #[test]
    fn append_then_read_roundtrips_in_order() {
        let j = temp_journal("roundtrip");
        j.append(7, b"seven").unwrap();
        j.append(11, b"").unwrap();
        j.append(7, b"seven-again").unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 3);
        assert_eq!(snap.records[0].key, 7);
        assert_eq!(snap.records[0].payload, b"seven");
        assert_eq!(snap.records[1].payload, b"");
        assert_eq!(snap.records[1].key, 11);
        assert!(snap.contains(7));
        assert!(!snap.contains(12));
        assert_eq!(snap.duplicate_keys(), vec![7]);
        assert_eq!(snap.dropped_bytes, 0);
        cleanup(&j);
    }

    #[test]
    fn torn_tail_is_dropped_not_trusted() {
        let j = temp_journal("torn");
        j.append(1, b"first").unwrap();
        j.append(2, b"second").unwrap();
        let bytes = fs::read(j.path()).unwrap();
        // Tear the last record mid-payload.
        fs::write(j.path(), &bytes[..bytes.len() - 3]).unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].key, 1);
        assert!(snap.dropped_bytes > 0);
        // Appending after a torn tail still works; the torn bytes stay
        // dead (the reader drops everything after the first bad record).
        j.append(3, b"third").unwrap();
        let snap = j.read().unwrap();
        assert_eq!(
            snap.records.len(),
            1,
            "records after a torn tail stay dropped"
        );
        cleanup(&j);
    }

    #[test]
    fn corrupt_record_drops_it_and_the_rest() {
        let j = temp_journal("corrupt");
        j.append(1, b"aaaa").unwrap();
        j.append(2, b"bbbb").unwrap();
        j.append(3, b"cccc").unwrap();
        let mut bytes = fs::read(j.path()).unwrap();
        // Flip one payload byte of the middle record.
        let mid = JOURNAL_MAGIC.len() + (RECORD_HEADER + 4) + RECORD_HEADER + 1;
        bytes[mid] ^= 0x20;
        fs::write(j.path(), &bytes).unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].key, 1);
        assert!(snap.dropped_bytes > 0);
        cleanup(&j);
    }

    #[test]
    fn flipped_key_byte_is_detected() {
        let j = temp_journal("keyflip");
        j.append(0x1111, b"aaaa").unwrap();
        j.append(0x2222, b"bbbb").unwrap();
        let mut bytes = fs::read(j.path()).unwrap();
        // Flip a byte inside the *key* field of the second record: the
        // checksum covers the header, so the key is not trusted either.
        let key_at = JOURNAL_MAGIC.len() + (RECORD_HEADER + 4) + 1;
        bytes[key_at] ^= 0x01;
        fs::write(j.path(), &bytes).unwrap();
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].key, 0x1111);
        assert!(snap.dropped_bytes > 0);
        cleanup(&j);
    }

    #[test]
    fn empty_tail_is_an_empty_snapshot() {
        // The first append creates the tail before writing the magic; a
        // reader polling in between sees a 0-byte file.
        let j = temp_journal("empty");
        fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        fs::write(j.path(), b"").unwrap();
        let snap = j.read().unwrap();
        assert!(snap.records.is_empty());
        assert_eq!(snap.dropped_bytes, 0);
        assert!(j.append_new(7, b"first").unwrap());
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 1);
        assert_eq!(snap.records[0].payload, b"first");
        cleanup(&j);
    }

    #[test]
    fn non_journal_file_is_rejected() {
        let j = temp_journal("badmagic");
        fs::create_dir_all(j.path().parent().unwrap()).unwrap();
        fs::write(j.path(), b"not a journal at all").unwrap();
        assert_eq!(j.read().unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert!(j.append(1, b"x").is_err());
        cleanup(&j);
    }

    #[test]
    fn append_new_skips_journaled_keys() {
        let j = temp_journal("appendnew");
        assert!(j.append_new(1, b"one").unwrap());
        assert!(!j.append_new(1, b"one-again").unwrap());
        assert!(j.append_new(2, b"two").unwrap());
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 2);
        assert_eq!(snap.records[0].payload, b"one");
        assert!(snap.duplicate_keys().is_empty());
        cleanup(&j);
    }

    #[test]
    fn concurrent_appends_never_tear() {
        let j = temp_journal("concurrent");
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let j = j.clone();
                scope.spawn(move || {
                    for i in 0..25u64 {
                        let key = t * 100 + i;
                        j.append(key, format!("payload-{key}").as_bytes()).unwrap();
                    }
                });
            }
        });
        let snap = j.read().unwrap();
        assert_eq!(snap.records.len(), 100);
        assert_eq!(snap.dropped_bytes, 0);
        assert!(snap.duplicate_keys().is_empty());
        for r in &snap.records {
            assert_eq!(r.payload, format!("payload-{}", r.key).as_bytes());
        }
        cleanup(&j);
    }
}
