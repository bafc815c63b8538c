//! Crash-safe on-disk store: checksummed entries and cross-process
//! claims.
//!
//! The sweep farm (DESIGN.md §7.11) takes jobs through non-blocking
//! claims ([`DiskCache::try_claim`]) in a directory derived from its
//! journal path. The engine keeps profiles and compiled pairs in memory
//! only, so no engine artifact is ever written here. Entries are
//! namespaced by a `tag` so distinct payload types can never alias, and
//! the store survives crashes and concurrent writers without ever
//! serving a damaged byte:
//!
//! * **Atomic writes** — entries are written to a private temp file in
//!   the store directory and `rename`d into place, so a reader never
//!   observes a half-written entry (at worst it misses).
//! * **Checksummed entries** — every entry carries a magic tag, payload
//!   length, and FNV-1a checksum; [`DiskCache::load_bytes`] validates
//!   all three before trusting a byte.
//! * **Evict on corruption** — a corrupt entry is moved into a
//!   `quarantine/` subdirectory (preserved for postmortem) and reported
//!   as [`CorruptEntry`]; the caller recomputes and re-stores.
//! * **Cross-process claims** — [`DiskCache::claim`] hands exactly one
//!   process the right to produce a missing entry (an OS file lock on a
//!   `claim-…` file); everyone else blocks until the producer stores and
//!   releases, then re-loads. [`DiskCache::try_claim`] is the
//!   non-blocking form the sweep workers use. A `SIGKILL`ed holder
//!   releases its lock with its process, so a dead claim never wedges
//!   the farm.
//! * **Content-addressed payloads** — [`DiskCache::store_content`] keys
//!   an entry by the FNV-1a hash of its payload, so identical payloads
//!   share one entry, and [`DiskCache::load_content`] re-verifies the
//!   address against the bytes (a mismatch is quarantined like any
//!   other corruption).

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Entry header magic ("Vanguard Cache v1").
const MAGIC: &[u8; 4] = b"VGC1";

/// 64-bit FNV-1a — the checksum and key hash of the entry store, the
/// journal and the job keys (stable across platforms and processes, no
/// dependencies).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A cache entry that failed validation and was quarantined.
#[derive(Clone, Debug)]
pub struct CorruptEntry {
    /// Where the entry now lives (under `quarantine/`), or its original
    /// path if even the quarantine move failed.
    pub path: PathBuf,
    /// What failed to validate.
    pub detail: String,
}

/// A crash-safe, checksummed entry store rooted at a directory.
#[derive(Clone, Debug)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// A store rooted at `dir` (created lazily on first store or claim).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DiskCache { dir: dir.into() }
    }

    /// The store root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The quarantine directory for poisoned entries.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.dir.join("quarantine")
    }

    fn entry_path(&self, tag: &str, key: u64) -> PathBuf {
        self.dir.join(format!("{tag}-{key:016x}.bin"))
    }

    /// Loads and validates the raw entry for `(tag, key)`, returning the
    /// checksummed payload. `Ok(None)` is a clean miss.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptEntry`] when an entry exists but its envelope
    /// (magic, length, checksum) fails validation; the entry has been
    /// quarantined, so recomputing and re-storing is always safe. The
    /// caller is responsible for *structural* validation of the payload
    /// — use [`DiskCache::reject`] when that fails.
    pub fn load_bytes(&self, tag: &str, key: u64) -> Result<Option<Vec<u8>>, CorruptEntry> {
        let path = self.entry_path(tag, key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(self.quarantine(&path, format!("unreadable: {e}"))),
        };
        match Self::validate(&bytes) {
            Ok(payload) => Ok(Some(payload.to_vec())),
            Err(detail) => Err(self.quarantine(&path, detail.to_string())),
        }
    }

    fn validate(bytes: &[u8]) -> Result<&[u8], &'static str> {
        if bytes.len() < 20 {
            return Err("shorter than the entry header");
        }
        if &bytes[..4] != MAGIC {
            return Err("bad magic");
        }
        let len = u64::from_le_bytes(bytes[4..12].try_into().unwrap());
        let checksum = u64::from_le_bytes(bytes[12..20].try_into().unwrap());
        let payload = &bytes[20..];
        if payload.len() as u64 != len {
            return Err("payload length mismatch (truncated or torn write)");
        }
        if fnv1a(payload) != checksum {
            return Err("checksum mismatch");
        }
        Ok(payload)
    }

    /// Atomically stores a raw payload for `(tag, key)` under the
    /// checksummed envelope (temp file + rename; a concurrent reader
    /// sees either the old entry or the new one, never a torn write).
    ///
    /// # Errors
    ///
    /// Returns the I/O error; callers treat a failed store as a cache
    /// miss, never a run failure.
    pub fn store_bytes(&self, tag: &str, key: u64, payload: &[u8]) -> io::Result<()> {
        fs::create_dir_all(&self.dir)?;
        let mut entry = Vec::with_capacity(20 + payload.len());
        entry.extend_from_slice(MAGIC);
        entry.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        entry.extend_from_slice(&fnv1a(payload).to_le_bytes());
        entry.extend_from_slice(payload);
        let tmp = self
            .dir
            .join(format!(".tmp-{tag}-{key:016x}-{}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&entry)?;
            f.sync_all()?;
        }
        let result = fs::rename(&tmp, self.entry_path(tag, key));
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// Stores a payload content-addressed: the entry key is the FNV-1a
    /// hash of the payload itself, so identical artifacts share one
    /// entry regardless of who produced them. Returns the key. Storing
    /// an already-present entry is a cheap no-op (the bytes are by
    /// construction identical).
    ///
    /// # Errors
    ///
    /// Returns the I/O error; callers treat a failed store as a future
    /// cache miss, never a run failure.
    pub fn store_content(&self, tag: &str, payload: &[u8]) -> io::Result<u64> {
        let key = fnv1a(payload);
        if !self.entry_path(tag, key).exists() {
            self.store_bytes(tag, key, payload)?;
        }
        Ok(key)
    }

    /// Loads a content-addressed entry, re-verifying that the payload
    /// still hashes to its key (the content address is a second,
    /// independent checksum: an envelope that validates but no longer
    /// matches its address is quarantined).
    ///
    /// # Errors
    ///
    /// Returns [`CorruptEntry`] when the entry fails envelope validation
    /// or its payload no longer hashes to `key`.
    pub fn load_content(&self, tag: &str, key: u64) -> Result<Option<Vec<u8>>, CorruptEntry> {
        let Some(payload) = self.load_bytes(tag, key)? else {
            return Ok(None);
        };
        if fnv1a(&payload) != key {
            return Err(self.reject(tag, key, "content address mismatch"));
        }
        Ok(Some(payload))
    }

    fn claim_path(&self, tag: &str, key: u64) -> PathBuf {
        self.dir.join(format!("claim-{tag}-{key:016x}.lock"))
    }

    /// Claims the right to produce the entry for `(tag, key)` across
    /// concurrent *processes*. Returns `Some(guard)` when this caller
    /// won the claim — it should double-check the entry (the previous
    /// holder may have stored it), compute, store, and drop the guard.
    /// Returns `None` after **blocking** until the current holder
    /// released — the caller re-loads, and only re-claims if the entry
    /// is still missing (the holder died or failed to store).
    ///
    /// The claim is an OS file lock, so a `SIGKILL`ed holder releases it
    /// automatically: a dead producer costs one recompute, never a hang.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from creating or locking the claim file;
    /// callers treat a failed claim as "compute it myself" (correctness
    /// never depends on claims, only at-most-once economy does).
    pub fn claim(&self, tag: &str, key: u64) -> io::Result<Option<ClaimGuard>> {
        fs::create_dir_all(&self.dir)?;
        let path = self.claim_path(tag, key);
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => Ok(Some(ClaimGuard { file, path })),
            Err(_) => {
                // Another process holds the claim: wait for it to finish
                // (or die — the OS releases the lock either way).
                file.lock()?;
                let _ = File::unlock(&file);
                Ok(None)
            }
        }
    }

    /// Non-blocking variant of [`DiskCache::claim`]: returns `None`
    /// *immediately* when another process holds the claim, instead of
    /// waiting for it. The sweep workers take jobs with this — a
    /// contended job means someone else is running it, so the worker
    /// moves on to the next one rather than convoying. A claim file
    /// left behind by a dead holder is unlocked (the OS dropped the lock
    /// with the process), so the next caller simply wins it.
    ///
    /// # Errors
    ///
    /// Returns the I/O error from creating or locking the claim file.
    pub fn try_claim(&self, tag: &str, key: u64) -> io::Result<Option<ClaimGuard>> {
        fs::create_dir_all(&self.dir)?;
        let path = self.claim_path(tag, key);
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => Ok(Some(ClaimGuard { file, path })),
            Err(_) => Ok(None),
        }
    }

    /// Quarantines the entry for `(tag, key)` whose *payload* failed the
    /// caller's structural validation (the envelope was intact, so
    /// [`DiskCache::load_bytes`] returned it as a hit).
    pub fn reject(&self, tag: &str, key: u64, detail: impl Into<String>) -> CorruptEntry {
        self.quarantine(&self.entry_path(tag, key), detail.into())
    }

    /// Moves a poisoned entry into `quarantine/`, falling back to
    /// deletion so the corrupt bytes can never be re-read as a hit.
    /// Also sweeps the entry's orphaned `.tmp-…` files: a writer that
    /// died between `create` and `rename` leaves its private temp file
    /// behind, and a rejected entry is the natural point to reclaim
    /// them (a temp file removed under a *live* writer only fails that
    /// writer's rename, which it already treats as a cache miss).
    fn quarantine(&self, path: &Path, detail: String) -> CorruptEntry {
        let qdir = self.quarantine_dir();
        let _ = fs::create_dir_all(&qdir);
        self.sweep_orphaned_tmp(path);
        let dest = qdir.join(
            path.file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| "entry".into()),
        );
        if fs::rename(path, &dest).is_ok() {
            CorruptEntry { path: dest, detail }
        } else {
            let _ = fs::remove_file(path);
            CorruptEntry {
                path: path.to_path_buf(),
                detail,
            }
        }
    }

    /// Removes `.tmp-<stem>-<pid>` leftovers for the entry at `path`
    /// (stem = file name without the `.bin` extension). Best-effort.
    fn sweep_orphaned_tmp(&self, path: &Path) {
        let Some(stem) = path.file_stem().map(|s| s.to_string_lossy().into_owned()) else {
            return;
        };
        let prefix = format!(".tmp-{stem}-");
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
}

/// An exclusive cross-process claim on one cache entry, released (and
/// its claim file removed, best-effort) on drop. See
/// [`DiskCache::claim`].
#[derive(Debug)]
pub struct ClaimGuard {
    file: File,
    path: PathBuf,
}

impl Drop for ClaimGuard {
    fn drop(&mut self) {
        let _ = File::unlock(&self.file);
        let _ = fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A payload large enough that a mid-entry bit flip lands in it.
    const SAMPLE: &[u8] = b"a checksummed payload of a few dozen bytes";

    fn temp_cache(tag: &str) -> DiskCache {
        let dir =
            std::env::temp_dir().join(format!("vanguard-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        DiskCache::new(dir)
    }

    #[test]
    fn truncation_is_detected_and_quarantined() {
        let cache = temp_cache("truncate");
        cache.store_bytes("pair", 3, SAMPLE).unwrap();
        let path = cache.entry_path("pair", 3);
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = cache
            .load_bytes("pair", 3)
            .expect_err("truncated entry must not load");
        assert!(err.path.starts_with(cache.quarantine_dir()), "{err:?}");
        // Evicted: the next load is a clean miss, and re-storing works.
        assert!(cache.load_bytes("pair", 3).unwrap().is_none());
        cache.store_bytes("pair", 3, SAMPLE).unwrap();
        assert_eq!(
            cache.load_bytes("pair", 3).unwrap().as_deref(),
            Some(SAMPLE)
        );
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bitflip_is_detected() {
        let cache = temp_cache("bitflip");
        cache.store_bytes("pair", 5, SAMPLE).unwrap();
        let path = cache.entry_path("pair", 5);
        let mut bytes = fs::read(&path).unwrap();
        let mid = 20 + SAMPLE.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = cache
            .load_bytes("pair", 5)
            .expect_err("bit-flipped entry must not load");
        assert!(err.detail.contains("checksum"), "{err:?}");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn byte_entries_roundtrip_and_tags_namespace_keys() {
        let cache = temp_cache("bytes");
        cache
            .store_bytes("pair", 11, b"compiled pair payload")
            .unwrap();
        assert_eq!(
            cache.load_bytes("pair", 11).unwrap().as_deref(),
            Some(&b"compiled pair payload"[..])
        );
        // The same key under another tag is a clean miss — tags are
        // namespaces, so two payload types can never alias.
        assert!(cache.load_bytes("image", 11).unwrap().is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn reject_quarantines_structurally_invalid_payloads() {
        let cache = temp_cache("reject");
        cache.store_bytes("pair", 13, b"not a valid pair").unwrap();
        // Envelope validates, so load_bytes hits...
        assert!(cache.load_bytes("pair", 13).unwrap().is_some());
        // ...but the caller's structural validation fails and rejects it.
        let err = cache.reject("pair", 13, "undecodable pair");
        assert!(err.path.starts_with(cache.quarantine_dir()), "{err:?}");
        assert!(cache.load_bytes("pair", 13).unwrap().is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn reject_sweeps_orphaned_tmp_files() {
        let cache = temp_cache("tmp-orphans");
        cache.store_bytes("pair", 21, b"payload").unwrap();
        // A writer that died mid-store leaves its private temp file.
        let orphan = cache.dir().join(format!(".tmp-pair-{:016x}-99999", 21u64));
        let unrelated = cache.dir().join(format!(".tmp-pair-{:016x}-99999", 22u64));
        fs::write(&orphan, b"half-written").unwrap();
        fs::write(&unrelated, b"someone else's in-flight write").unwrap();
        cache.reject("pair", 21, "structurally invalid");
        assert!(!orphan.exists(), "orphaned .tmp swept on reject");
        assert!(
            unrelated.exists(),
            "other keys' in-flight temp files are left alone"
        );
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn content_addressed_entries_roundtrip_and_self_verify() {
        let cache = temp_cache("content");
        let key = cache.store_content("image", b"some program text").unwrap();
        assert_eq!(key, fnv1a(b"some program text"));
        assert_eq!(
            cache.load_content("image", key).unwrap().as_deref(),
            Some(&b"some program text"[..])
        );
        // Storing the same content again is a no-op on the same key.
        assert_eq!(
            cache.store_content("image", b"some program text").unwrap(),
            key
        );
        // An entry whose payload no longer matches its address is
        // quarantined even though the envelope checksum validates.
        cache
            .store_bytes("image", 0x1234, b"address mismatch")
            .unwrap();
        let err = cache.load_content("image", 0x1234).unwrap_err();
        assert!(err.detail.contains("content address"), "{err:?}");
        assert!(cache.load_content("image", 0x1234).unwrap().is_none());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn claim_admits_one_producer_and_releases_waiters() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let cache = temp_cache("claims");
        let produced = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| loop {
                    if cache.load_bytes("pair", 77).unwrap().is_some() {
                        break;
                    }
                    if let Some(_guard) = cache.claim("pair", 77).unwrap() {
                        if cache.load_bytes("pair", 77).unwrap().is_none() {
                            produced.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            cache.store_bytes("pair", 77, b"artifact").unwrap();
                        }
                        break;
                    }
                    // claim() returned after the holder released: re-load.
                });
            }
        });
        assert_eq!(
            produced.load(Ordering::Relaxed),
            1,
            "exactly one producer computed the artifact"
        );
        assert_eq!(
            cache.load_bytes("pair", 77).unwrap().as_deref(),
            Some(&b"artifact"[..])
        );
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn dead_holders_claim_file_is_won_at_once() {
        let cache = temp_cache("dead-claim");
        fs::create_dir_all(cache.dir()).unwrap();
        // A SIGKILLed holder leaves its claim file behind, unlocked: the
        // kernel dropped the lock with the process.
        let orphan = cache.claim_path("job", 9);
        fs::write(&orphan, b"").unwrap();
        let guard = cache
            .try_claim("job", 9)
            .unwrap()
            .expect("a dead holder's claim is won at once");
        // While held, a second claimant is turned away without waiting.
        assert!(cache.try_claim("job", 9).unwrap().is_none());
        drop(guard);
        assert!(!orphan.exists(), "a released claim removes its file");
        assert!(cache.try_claim("job", 9).unwrap().is_some());
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn bad_magic_is_detected() {
        let cache = temp_cache("magic");
        cache.store_bytes("pair", 9, SAMPLE).unwrap();
        let path = cache.entry_path("pair", 9);
        let mut bytes = fs::read(&path).unwrap();
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        let err = cache
            .load_bytes("pair", 9)
            .expect_err("bad magic must not load");
        assert!(err.detail.contains("magic"), "{err:?}");
        let _ = fs::remove_dir_all(cache.dir());
    }
}
