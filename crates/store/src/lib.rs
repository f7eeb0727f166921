//! Crash-safe, content-addressed, disk-backed blob store — the durable
//! tier under the in-memory `ArtifactCache`.
//!
//! Design invariants, in priority order:
//!
//! 1. **Verification never fails because caching failed.** Every public
//!    operation is total: [`BlobStore::open`] cannot error (an unusable
//!    root degrades the store to memory-only with a one-time stderr
//!    warning), [`BlobStore::get`] answers corruption with a quarantine
//!    and a miss, and any I/O failure mid-run flips the whole store to
//!    degraded mode for the rest of the process.
//! 2. **No torn reads, ever.** Blobs are published by temp-file +
//!    atomic rename (`O_EXCL` temp names, so racing writers of the same
//!    key are last-writer-wins and never interleave). A reader sees
//!    either a complete frame or no file. A crash between temp write
//!    and rename leaves only an orphan `.tmp-*` file, which
//!    [`BlobStore::gc`] sweeps.
//! 3. **Trust nothing on disk.** Every blob carries a magic/version
//!    header, its own key, the payload length, and an FNV-1a checksum
//!    of the payload. Any anomaly — short file, bad magic, version
//!    skew, key mismatch, checksum mismatch — moves the file to
//!    `quarantine/` (for post-mortem inspection), emits a
//!    `cache_quarantined` trace event, and reads as a clean miss so the
//!    caller recomputes and re-writes: the store self-heals.
//!
//! On-disk layout under the root:
//!
//! ```text
//! root/
//!   index                     generation-stamped key index (advisory)
//!   shards/<hh>/<key16>.blob  blobs, sharded by top key byte
//!   quarantine/               corrupt blobs, renamed aside
//! ```
//!
//! The index is an optimization for `stats`/`gc`, not a source of
//! truth: it is rebuilt by a directory walk whenever it is missing or
//! disagrees with the shards on disk, so deleting it (or crashing
//! before it was rewritten) costs a walk, never correctness.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime};

use octo_codec::fnv64;
use octo_faults::FaultSite;
use octo_obs::Histogram;
use octo_trace::TraceKind;

/// Magic bytes opening every blob frame.
pub const BLOB_MAGIC: [u8; 4] = *b"OCTB";
/// Frame format version (independent of the payload's own version).
pub const FRAME_VERSION: u32 = 1;
/// Frame header size: magic + version + key + payload len + checksum.
pub const FRAME_HEADER: usize = 4 + 4 + 8 + 8 + 8;

/// Counters snapshot for reporting (`octopocs cache stats`, batch
/// metrics sync).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Frame-valid blob reads.
    pub hits: u64,
    /// Reads that found no blob (including reads while degraded).
    pub misses: u64,
    /// Blobs successfully published (temp write + rename completed).
    pub writes: u64,
    /// Corrupt frames detected (short file, bad magic/version/key,
    /// checksum mismatch) plus payloads the caller reported unparseable.
    pub corrupt: u64,
    /// Files moved to `quarantine/` (≤ corrupt: a vanished file counts
    /// corrupt but leaves nothing to move).
    pub quarantined: u64,
    /// Blobs currently indexed on disk.
    pub entries: u64,
    /// Whether the store has degraded to memory-only mode.
    pub degraded: bool,
    /// Current write generation (increments once per `open`).
    pub generation: u64,
}

/// Outcome of [`BlobStore::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Blobs whose frame and checksum validated.
    pub valid: u64,
    /// Keys of corrupt blobs (frame or checksum anomalies).
    pub corrupt: Vec<u64>,
    /// Orphan temp files left by crashed writers.
    pub orphan_temps: u64,
}

/// Outcome of [`BlobStore::gc`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GcReport {
    /// Blobs removed by the generation/age policy.
    pub removed: u64,
    /// Blobs retained.
    pub kept: u64,
    /// Orphan temp files swept.
    pub temps_swept: u64,
}

/// Metric handles the embedding runtime can attach so blob I/O lands in
/// its registry histograms. Optional: a bare store records nothing.
#[derive(Default)]
struct Observers {
    read_micros: Option<Arc<Histogram>>,
    write_micros: Option<Arc<Histogram>>,
}

/// The disk blob store. All methods take `&self`; the store is shared
/// across worker threads behind an `Arc`.
pub struct BlobStore {
    root: PathBuf,
    degraded: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    corrupt: AtomicU64,
    quarantined: AtomicU64,
    temp_seq: AtomicU64,
    generation: u64,
    /// key → generation last written, mirrored to `root/index`.
    index: Mutex<BTreeMap<u64, u64>>,
    observers: Mutex<Observers>,
}

impl BlobStore {
    /// Opens (creating if needed) the store rooted at `root`.
    ///
    /// Never fails: if the directory tree cannot be created or probed,
    /// the store comes up in degraded (memory-only) mode — a one-time
    /// warning on stderr, every `get` a miss, every `put` a no-op.
    pub fn open(root: &Path) -> BlobStore {
        let mut store = BlobStore {
            root: root.to_path_buf(),
            degraded: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            temp_seq: AtomicU64::new(0),
            generation: 0,
            index: Mutex::new(BTreeMap::new()),
            observers: Mutex::new(Observers::default()),
        };
        if let Err(err) = fs::create_dir_all(store.shards_dir())
            .and_then(|()| fs::create_dir_all(store.quarantine_dir()))
        {
            store.degrade("creating store directories", &err.to_string());
            return store;
        }
        let (index, stored_generation) = store.load_or_rebuild_index();
        store.generation = stored_generation + 1;
        *store.index.lock().unwrap() = index;
        // Persist the bumped generation immediately so a crashed run
        // still ages its blobs; failure here just degrades like any
        // other write failure.
        store.flush_index();
        store
    }

    /// Attaches registry histograms for blob read/write latencies.
    pub fn attach_histograms(&self, read_micros: Arc<Histogram>, write_micros: Arc<Histogram>) {
        let mut obs = self.observers.lock().unwrap();
        obs.read_micros = Some(read_micros);
        obs.write_micros = Some(write_micros);
    }

    /// Whether the store has degraded to memory-only mode.
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// The write generation of this open (monotonic across opens).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Root directory of the store.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Reads the payload stored under `key`.
    ///
    /// Returns `None` for a clean miss, a corrupt blob (quarantined as a
    /// side effect), or a degraded store — the caller recomputes in all
    /// three cases and cannot tell them apart except via [`stats`].
    ///
    /// [`stats`]: BlobStore::stats
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        if self.is_degraded() {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let started = Instant::now();
        let path = self.blob_path(key);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(err) => {
                self.degrade("reading blob", &err.to_string());
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match validate_frame(&bytes, key) {
            Ok(payload) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.observe_read(started);
                Some(payload.to_vec())
            }
            Err(reason) => {
                self.quarantine_path(&path, key, &reason);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Publishes `payload` under `key` via temp-file + atomic rename.
    ///
    /// Failures degrade the store; they are never reported to the
    /// caller, whose computed value is already in the memory tier.
    pub fn put(&self, key: u64, payload: &[u8]) {
        if self.is_degraded() {
            return;
        }
        let started = Instant::now();
        let final_path = self.blob_path(key);
        let Some(shard) = final_path.parent().map(Path::to_path_buf) else {
            return;
        };
        if let Err(err) = fs::create_dir_all(&shard) {
            self.degrade("creating shard directory", &err.to_string());
            return;
        }
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
        frame.extend_from_slice(&BLOB_MAGIC);
        frame.extend_from_slice(&FRAME_VERSION.to_le_bytes());
        frame.extend_from_slice(&key.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        frame.extend_from_slice(&fnv64(payload).to_le_bytes());
        frame.extend_from_slice(payload);

        let temp = match self.write_temp(&shard, key, &frame) {
            Ok(temp) => temp,
            Err(err) => {
                self.degrade("writing temp blob", &err);
                return;
            }
        };
        // The crash-consistency window: a process dying here leaves an
        // orphan temp file and no published blob. The fault site lets
        // tests exercise exactly that interleaving deterministically.
        if octo_faults::should_inject(FaultSite::StoreRename) {
            return;
        }
        if let Err(err) = fs::rename(&temp, &final_path) {
            let _ = fs::remove_file(&temp);
            self.degrade("publishing blob", &err.to_string());
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.index.lock().unwrap().insert(key, self.generation);
        self.observe_write(started);
    }

    /// Quarantines the blob under `key` on the caller's behalf — used
    /// when the *payload* fails to decode even though the frame (and so
    /// the checksum) was valid, e.g. a payload-version mismatch.
    pub fn quarantine(&self, key: u64) {
        if self.is_degraded() {
            return;
        }
        let path = self.blob_path(key);
        self.quarantine_path(&path, key, "payload rejected by decoder");
    }

    /// Counter snapshot plus liveness flags.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            entries: self.index.lock().unwrap().len() as u64,
            degraded: self.is_degraded(),
            generation: self.generation,
        }
    }

    /// Walks every blob re-validating its frame and checksum.
    /// Non-destructive: corrupt blobs are reported, not moved (the next
    /// `get` will quarantine them).
    pub fn verify(&self) -> VerifyReport {
        let mut report = VerifyReport::default();
        for (key, path) in self.walk_blobs() {
            match fs::read(&path) {
                Ok(bytes) => match validate_frame(&bytes, key) {
                    Ok(_) => report.valid += 1,
                    Err(_) => report.corrupt.push(key),
                },
                Err(_) => report.corrupt.push(key),
            }
        }
        report.orphan_temps = self.walk_temps().len() as u64;
        report
    }

    /// Prunes blobs last written more than `keep_generations` opens ago
    /// and/or with mtime older than `max_age_secs`, and sweeps orphan
    /// temp files. `None` policies keep everything (temps are always
    /// swept — a live writer holds its temp for microseconds, gc runs
    /// between batches).
    pub fn gc(&self, keep_generations: Option<u64>, max_age_secs: Option<u64>) -> GcReport {
        let mut report = GcReport::default();
        let now = SystemTime::now();
        let mut index = self.index.lock().unwrap();
        for (key, path) in self.walk_blobs() {
            let generation = index.get(&key).copied().unwrap_or(0);
            let too_old_gen = keep_generations
                .map(|keep| generation + keep < self.generation)
                .unwrap_or(false);
            let too_old_age = max_age_secs
                .map(|secs| {
                    fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|m| now.duration_since(m).ok())
                        .map(|age| age.as_secs() > secs)
                        .unwrap_or(false)
                })
                .unwrap_or(false);
            if too_old_gen || too_old_age {
                if fs::remove_file(&path).is_ok() {
                    index.remove(&key);
                    report.removed += 1;
                }
            } else {
                report.kept += 1;
            }
        }
        for temp in self.walk_temps() {
            if fs::remove_file(&temp).is_ok() {
                report.temps_swept += 1;
            }
        }
        drop(index);
        self.flush_index();
        report
    }

    /// Rewrites `root/index` from the in-memory index (atomic rename).
    /// Failure degrades the store like any other write failure.
    pub fn flush_index(&self) {
        if self.is_degraded() {
            return;
        }
        let index = self.index.lock().unwrap();
        let mut text = format!("octo-store-index v1\ngeneration {}\n", self.generation);
        for (key, generation) in index.iter() {
            text.push_str(&format!("{key:016x} {generation}\n"));
        }
        drop(index);
        let temp = self.root.join(format!(
            ".index-tmp-{}-{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let result =
            fs::write(&temp, text).and_then(|()| fs::rename(&temp, self.root.join("index")));
        if let Err(err) = result {
            let _ = fs::remove_file(&temp);
            self.degrade("writing index", &err.to_string());
        }
    }

    // ---------------------------------------------------------- internals

    fn shards_dir(&self) -> PathBuf {
        self.root.join("shards")
    }

    fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    fn blob_path(&self, key: u64) -> PathBuf {
        self.shards_dir()
            .join(format!("{:02x}", key >> 56))
            .join(format!("{key:016x}.blob"))
    }

    fn write_temp(&self, shard: &Path, key: u64, frame: &[u8]) -> Result<PathBuf, String> {
        // O_EXCL temp names: two workers racing the same key each get
        // their own temp file, then race the rename — last writer wins
        // with both outcomes being complete frames.
        for _ in 0..8 {
            let temp = shard.join(format!(
                ".tmp-{key:016x}-{}-{}",
                std::process::id(),
                self.temp_seq.fetch_add(1, Ordering::Relaxed)
            ));
            let mut file = match OpenOptions::new().write(true).create_new(true).open(&temp) {
                Ok(file) => file,
                Err(err) if err.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(err) => return Err(err.to_string()),
            };
            return file
                .write_all(frame)
                .and_then(|()| file.flush())
                .map(|()| temp.clone())
                .map_err(|err| {
                    let _ = fs::remove_file(&temp);
                    err.to_string()
                });
        }
        Err("could not reserve a temp name".to_string())
    }

    fn quarantine_path(&self, path: &Path, key: u64, reason: &str) {
        self.corrupt.fetch_add(1, Ordering::Relaxed);
        let dest = self.quarantine_dir().join(format!(
            "{key:016x}-{}.blob",
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        match fs::rename(path, &dest) {
            Ok(()) => {
                self.quarantined.fetch_add(1, Ordering::Relaxed);
                self.index.lock().unwrap().remove(&key);
                octo_trace::emit(TraceKind::CacheQuarantined { key });
                eprintln!(
                    "octo-store: quarantined corrupt blob {key:016x} ({reason}) -> {}",
                    dest.display()
                );
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => {
                // Vanished between read and rename (e.g. a concurrent
                // quarantine): nothing left to move.
                self.index.lock().unwrap().remove(&key);
            }
            Err(err) => self.degrade("quarantining blob", &err.to_string()),
        }
    }

    /// Flips the store to memory-only mode, warning once on stderr.
    fn degrade(&self, what: &str, err: &str) {
        if !self.degraded.swap(true, Ordering::SeqCst) {
            eprintln!(
                "octo-store: {what} failed ({err}); disk cache at {} degraded to \
                 memory-only for the rest of this run",
                self.root.display()
            );
        }
    }

    /// `(key, path)` for every `<key16>.blob` under `shards/`.
    fn walk_blobs(&self) -> Vec<(u64, PathBuf)> {
        let mut blobs = Vec::new();
        let Ok(shards) = fs::read_dir(self.shards_dir()) else {
            return blobs;
        };
        for shard in shards.flatten() {
            let Ok(entries) = fs::read_dir(shard.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                    continue;
                };
                if let Some(hex) = name.strip_suffix(".blob") {
                    if let Ok(key) = u64::from_str_radix(hex, 16) {
                        blobs.push((key, path));
                    }
                }
            }
        }
        blobs.sort_by_key(|(key, _)| *key);
        blobs
    }

    /// Orphan `.tmp-*` files under `shards/`.
    fn walk_temps(&self) -> Vec<PathBuf> {
        let mut temps = Vec::new();
        let Ok(shards) = fs::read_dir(self.shards_dir()) else {
            return temps;
        };
        for shard in shards.flatten() {
            let Ok(entries) = fs::read_dir(shard.path()) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                if path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(".tmp-"))
                {
                    temps.push(path);
                }
            }
        }
        temps
    }

    /// Loads `root/index`; rebuilds it from a shard walk when missing,
    /// unparseable, or disagreeing with the blobs actually on disk.
    /// Returns the index and the stored generation.
    fn load_or_rebuild_index(&self) -> (BTreeMap<u64, u64>, u64) {
        let on_disk = self.walk_blobs();
        if let Some((index, generation)) = self.parse_index() {
            let matches =
                index.len() == on_disk.len() && on_disk.iter().all(|(k, _)| index.contains_key(k));
            if matches {
                return (index, generation);
            }
            // Stale: keep known generations, adopt walked-but-unindexed
            // blobs at the stored generation (we cannot date them).
            let rebuilt = on_disk
                .iter()
                .map(|(k, _)| (*k, index.get(k).copied().unwrap_or(generation)))
                .collect();
            return (rebuilt, generation);
        }
        let generation = 0;
        (
            on_disk.iter().map(|(k, _)| (*k, generation)).collect(),
            generation,
        )
    }

    fn parse_index(&self) -> Option<(BTreeMap<u64, u64>, u64)> {
        let text = fs::read_to_string(self.root.join("index")).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "octo-store-index v1" {
            return None;
        }
        let generation = lines.next()?.strip_prefix("generation ")?.parse().ok()?;
        let mut index = BTreeMap::new();
        for line in lines {
            let (hex, generation) = line.split_once(' ')?;
            index.insert(u64::from_str_radix(hex, 16).ok()?, generation.parse().ok()?);
        }
        Some((index, generation))
    }

    fn observe_read(&self, started: Instant) {
        if let Some(h) = &self.observers.lock().unwrap().read_micros {
            h.observe(elapsed_micros(started));
        }
    }

    fn observe_write(&self, started: Instant) {
        if let Some(h) = &self.observers.lock().unwrap().write_micros {
            h.observe(elapsed_micros(started));
        }
    }
}

impl Drop for BlobStore {
    fn drop(&mut self) {
        self.flush_index();
    }
}

fn elapsed_micros(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// Validates a frame read from disk, returning the payload slice.
fn validate_frame(bytes: &[u8], key: u64) -> Result<&[u8], String> {
    if bytes.len() < FRAME_HEADER {
        return Err(format!("short file: {} bytes", bytes.len()));
    }
    if bytes[..4] != BLOB_MAGIC {
        return Err("bad magic".to_string());
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != FRAME_VERSION {
        return Err(format!("frame version {version}"));
    }
    let stored_key = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    if stored_key != key {
        return Err(format!("key mismatch: frame says {stored_key:016x}"));
    }
    let payload_len = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let payload = &bytes[FRAME_HEADER..];
    if payload_len != payload.len() as u64 {
        return Err(format!(
            "length mismatch: header says {payload_len}, file holds {}",
            payload.len()
        ));
    }
    let checksum = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    if checksum != fnv64(payload) {
        return Err("checksum mismatch".to_string());
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("octo-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_round_trips_across_opens() {
        let root = temp_root("roundtrip");
        {
            let store = BlobStore::open(&root);
            store.put(0xabcd, b"hello blob");
            assert_eq!(store.get(0xabcd).as_deref(), Some(&b"hello blob"[..]));
            let stats = store.stats();
            assert_eq!((stats.hits, stats.writes, stats.entries), (1, 1, 1));
            assert!(!stats.degraded);
        }
        // A fresh open (warm start) sees the blob and a bumped generation.
        let store = BlobStore::open(&root);
        assert_eq!(store.get(0xabcd).as_deref(), Some(&b"hello blob"[..]));
        assert_eq!(store.generation(), 2);
        assert_eq!(store.get(0x1234), None, "unknown key is a clean miss");
        assert_eq!(store.stats().misses, 1);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bit_flip_quarantines_and_self_heals() {
        let root = temp_root("bitflip");
        let store = BlobStore::open(&root);
        store.put(7, b"payload bytes");
        let path = store.blob_path(7);
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert_eq!(store.get(7), None, "corrupt blob must read as a miss");
        let stats = store.stats();
        assert_eq!((stats.corrupt, stats.quarantined), (1, 1));
        assert!(!path.exists(), "corrupt blob moved aside");
        assert_eq!(
            fs::read_dir(root.join("quarantine")).unwrap().count(),
            1,
            "quarantine holds the evidence"
        );
        // Self-heal: recompute (the caller's job) and re-write.
        store.put(7, b"payload bytes");
        assert_eq!(store.get(7).as_deref(), Some(&b"payload bytes"[..]));
        assert!(!store.is_degraded());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn truncation_and_bad_magic_quarantine() {
        let root = temp_root("truncate");
        let store = BlobStore::open(&root);
        store.put(1, b"aaaa");
        store.put(2, b"bbbb");
        let p1 = store.blob_path(1);
        let bytes = fs::read(&p1).unwrap();
        fs::write(&p1, &bytes[..FRAME_HEADER - 3]).unwrap();
        let p2 = store.blob_path(2);
        let mut bytes = fs::read(&p2).unwrap();
        bytes[0] = b'X';
        fs::write(&p2, &bytes).unwrap();
        assert_eq!(store.get(1), None);
        assert_eq!(store.get(2), None);
        assert_eq!(store.stats().quarantined, 2);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn unusable_root_degrades_instead_of_failing() {
        let file = std::env::temp_dir().join(format!("octo-store-flat-{}", std::process::id()));
        fs::write(&file, b"not a directory").unwrap();
        let store = BlobStore::open(&file);
        assert!(store.is_degraded());
        store.put(1, b"dropped");
        assert_eq!(store.get(1), None);
        let stats = store.stats();
        assert_eq!((stats.writes, stats.misses), (0, 1));
        assert_eq!(
            fs::read(&file).unwrap(),
            b"not a directory",
            "target untouched"
        );
        let _ = fs::remove_file(&file);
    }

    #[test]
    fn verify_reports_corruption_without_moving_it() {
        let root = temp_root("verify");
        let store = BlobStore::open(&root);
        for key in 0..5u64 {
            store.put(key, format!("payload {key}").as_bytes());
        }
        let path = store.blob_path(3);
        let mut bytes = fs::read(&path).unwrap();
        bytes[FRAME_HEADER] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let report = store.verify();
        assert_eq!(report.valid, 4);
        assert_eq!(report.corrupt, vec![3]);
        assert!(path.exists(), "verify is non-destructive");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn gc_prunes_by_generation_and_sweeps_temps() {
        let root = temp_root("gc");
        {
            let store = BlobStore::open(&root); // generation 1
            store.put(10, b"old");
        }
        let store = BlobStore::open(&root); // generation 2
        store.put(20, b"new");
        // An orphan temp from a "crashed" writer.
        let shard = store.blob_path(10);
        fs::write(shard.parent().unwrap().join(".tmp-deadbeef-1-1"), b"orphan").unwrap();

        let report = store.gc(Some(0), None); // keep current generation only
        assert_eq!((report.removed, report.kept, report.temps_swept), (1, 1, 1));
        assert_eq!(store.get(10), None);
        assert_eq!(store.get(20).as_deref(), Some(&b"new"[..]));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn index_rebuilds_after_deletion() {
        let root = temp_root("index");
        {
            let store = BlobStore::open(&root);
            store.put(0xff00, b"x");
            store.put(0x00ff, b"y");
        }
        fs::remove_file(root.join("index")).unwrap();
        let store = BlobStore::open(&root);
        assert_eq!(store.stats().entries, 2, "index rebuilt from shard walk");
        assert_eq!(store.get(0xff00).as_deref(), Some(&b"x"[..]));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn racing_writers_leave_a_complete_frame() {
        let root = temp_root("race");
        let store = Arc::new(BlobStore::open(&root));
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    // Same key, same payload — like two workers preparing
                    // the same artifact.
                    let _ = i;
                    store.put(42, b"identical artifact payload");
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            store.get(42).as_deref(),
            Some(&b"identical artifact payload"[..])
        );
        assert_eq!(store.stats().corrupt, 0);
        let _ = fs::remove_dir_all(&root);
    }
}
