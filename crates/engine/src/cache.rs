//! Content-addressed on-disk stage cache.
//!
//! Every cacheable flow stage is keyed by a SHA-256 of everything that
//! determines its output: the canonical BLIF of each mode circuit, the
//! architecture fingerprint, the flow-option fingerprints, the flow kind
//! and the stage name (see [`crate::Engine`]). Entries live under
//!
//! ```text
//! <root>/<stage>/<aa>/<key>.json      (aa = first two hex digits)
//! ```
//!
//! and store `{"key": …, "stage": …, "sum": …, "payload": …}` where
//! `sum` is a SHA-256 over the serialized payload. Writes go through a
//! unique temp file + atomic rename, so concurrent workers computing the
//! same entry race benignly and a crash mid-write never leaves a
//! half-entry under the final name. Reads validate shape, embedded key
//! *and* content checksum; anything unreadable, mismatched or torn
//! counts as `corrupt`, is moved into `<root>/quarantine/` for
//! post-mortem (size-accounted and evicted oldest-first by
//! [`StageCache::gc`] like any entry), and falls back to recomputation
//! — a corrupted cache can cost time, never correctness.
//!
//! The [`crate::faultpoint`] sites [`faultpoint::CACHE_READ_IO`] and
//! [`faultpoint::CACHE_WRITE_PARTIAL`] inject unreadable reads and torn
//! writes here for chaos testing.

use crate::faultpoint;
use crate::json::{self, ObjBuilder, Value};
use std::path::{Path, PathBuf};

/// Cache activity counts. The store keeps no totals of its own: every
/// [`StageCache::get`] and [`StageCache::put`] counts into its caller's
/// tally, so activity is attributed to the job (and batch) that caused
/// it however many share the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries that existed but failed validation (shape, embedded key,
    /// content checksum) and were quarantined.
    pub corrupt: u64,
}

impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.writes += other.writes;
        self.corrupt += other.corrupt;
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> Self {
        iter.fold(CacheStats::default(), |mut total, s| {
            total += s;
            total
        })
    }
}

/// The stage cache rooted at one directory.
#[derive(Debug)]
pub struct StageCache {
    root: PathBuf,
}

impl StageCache {
    /// Opens (and creates) a cache rooted at `root`.
    ///
    /// # Errors
    ///
    /// Fails if the root directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The cache root.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The path of an entry (exposed for tests and tooling).
    #[must_use]
    pub fn entry_path(&self, stage: &str, key: &str) -> PathBuf {
        let prefix = key.get(..2).unwrap_or("xx");
        self.root
            .join(stage)
            .join(prefix)
            .join(format!("{key}.json"))
    }

    /// The quarantine directory: corrupted entries are moved here (not
    /// deleted) so a corruption storm leaves evidence; the next
    /// [`StageCache::gc`] sweeps it.
    #[must_use]
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Looks up `key` in `stage`, returning the stored payload.
    ///
    /// Counts a hit, a miss, or (for undecodable/mismatched/torn
    /// entries) a corruption into `tally` — corrupted entries are
    /// quarantined so the follow-up [`StageCache::put`] recreates them
    /// and garbage never propagates into a result.
    #[must_use]
    pub fn get(&self, stage: &str, key: &str, tally: &mut CacheStats) -> Option<Value> {
        let path = self.entry_path(stage, key);
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                tally.misses += 1;
                return None;
            }
            Err(_) => {
                self.quarantine(&path, tally);
                return None;
            }
        };
        // Injected read fault: the bytes came back unusable.
        if faultpoint::fire(faultpoint::CACHE_READ_IO) {
            self.quarantine(&path, tally);
            return None;
        }
        match json::parse(&text) {
            Ok(entry)
                if entry.get("key").and_then(Value::as_str) == Some(key)
                    && entry.get("stage").and_then(Value::as_str) == Some(stage) =>
            {
                match entry.get("payload") {
                    Some(payload) if checksum_matches(&entry, payload) => {
                        tally.hits += 1;
                        touch(&path);
                        Some(payload.clone())
                    }
                    _ => {
                        self.quarantine(&path, tally);
                        None
                    }
                }
            }
            _ => {
                self.quarantine(&path, tally);
                None
            }
        }
    }

    /// Stores `payload` under (`stage`, `key`). Failures are swallowed —
    /// a read-only or full cache disk degrades to recomputation. The
    /// entry carries a SHA-256 of the serialized payload, verified on
    /// every read. A completed write counts into `tally`.
    pub fn put(&self, stage: &str, key: &str, payload: &Value, tally: &mut CacheStats) {
        let path = self.entry_path(stage, key);
        let Some(dir) = path.parent() else { return };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let payload_json = payload.to_json();
        let entry = ObjBuilder::new()
            .field("key", key)
            .field("stage", stage)
            .field("sum", crate::hash::sha256_hex(payload_json.as_bytes()))
            .field("payload", payload.clone())
            .build();
        let mut text = entry.to_json();
        // Injected write fault: the entry is torn mid-write (as a crash
        // or full disk would) — the checksum catches it on read.
        if faultpoint::fire(faultpoint::CACHE_WRITE_PARTIAL) {
            text.truncate(text.len() / 2);
        }
        // Unique temp name per writer; rename is atomic within the dir.
        let tmp = dir.join(format!(
            ".tmp-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, &path).is_ok() {
            tally.writes += 1;
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Counts a corruption and moves the entry into the quarantine
    /// directory (falling back to removal if the move fails) — the
    /// entry's slot is free for recomputation either way, and the bad
    /// bytes survive for post-mortem until the next GC sweep.
    fn quarantine(&self, path: &Path, tally: &mut CacheStats) {
        tally.corrupt += 1;
        let dir = self.quarantine_dir();
        let moved = std::fs::create_dir_all(&dir).is_ok()
            && path
                .file_name()
                .is_some_and(|name| std::fs::rename(path, dir.join(name)).is_ok());
        if !moved {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Garbage-collects the store: evicts every entry older than
    /// `max_age`, then — least recently *used* first — enough further
    /// entries to bring the store under `max_bytes`. Either limit may be
    /// `None`.
    ///
    /// [`StageCache::get`] touches entries on every hit, so modification
    /// time tracks last use and the sweep is LRU, not insertion-order.
    /// An entry whose mtime cannot be read ranks *newest* (it is kept
    /// unless the byte budget forces it out last) — treating it as
    /// epoch-old would make exactly the unreadable entries the first
    /// victims of every sweep.
    ///
    /// Eviction order is deterministic (modification time, then path);
    /// a concurrently-vanishing entry is skipped, never an error.
    ///
    /// Quarantined corpses under `<root>/quarantine/` participate like
    /// any other entry: they count toward `scanned`/`bytes_before`, obey
    /// `max_age`, and are evicted oldest-first under the byte budget —
    /// a store that is mostly corpses still converges below `max_bytes`.
    ///
    /// # Errors
    ///
    /// Fails only if the cache root cannot be read.
    pub fn gc(
        &self,
        max_bytes: Option<u64>,
        max_age: Option<std::time::Duration>,
    ) -> std::io::Result<GcSummary> {
        let scan_time = std::time::SystemTime::now();
        let mut entries: Vec<(std::time::SystemTime, PathBuf, u64)> = Vec::new();
        let mut stack = vec![self.root.clone()];
        while let Some(dir) = stack.pop() {
            let reader = match std::fs::read_dir(&dir) {
                Ok(r) => r,
                Err(e) if dir == self.root => return Err(e),
                Err(_) => continue,
            };
            for entry in reader.filter_map(Result::ok) {
                let path = entry.path();
                if path.is_dir() {
                    // `quarantine/` is scanned like any other directory:
                    // its corpses occupy the same disk budget as live
                    // entries, so they must be size-accounted and
                    // LRU-ranked (quarantining preserves mtime, so old
                    // corpses are early victims) — ignoring them let a
                    // corrupted store exceed `max_bytes` forever.
                    stack.push(path);
                } else if path.extension().is_some_and(|e| e == "json") {
                    if let Ok(meta) = entry.metadata() {
                        // Unreadable mtime ⇒ rank as "used right now":
                        // never the preferred victim, and never counted
                        // as expired by the age limit.
                        let mtime = meta.modified().unwrap_or(scan_time);
                        entries.push((mtime, path, meta.len()));
                    }
                }
            }
        }
        entries.sort();

        let mut summary = GcSummary {
            scanned: entries.len(),
            bytes_before: entries.iter().map(|(_, _, len)| len).sum(),
            evicted: 0,
            bytes_evicted: 0,
        };
        let now = std::time::SystemTime::now();
        let mut live_bytes = summary.bytes_before;
        let budget = max_bytes.unwrap_or(u64::MAX);
        for (mtime, path, len) in &entries {
            let expired = max_age.is_some_and(|age| {
                now.duration_since(*mtime)
                    .map(|elapsed| elapsed > age)
                    .unwrap_or(false)
            });
            if !expired && live_bytes <= budget {
                break; // entries are oldest-first; the rest stay
            }
            match std::fs::remove_file(path) {
                Ok(()) => {
                    summary.evicted += 1;
                    summary.bytes_evicted += len;
                    live_bytes = live_bytes.saturating_sub(*len);
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Vanished concurrently: its bytes are gone from the
                    // store, but not our eviction.
                    live_bytes = live_bytes.saturating_sub(*len);
                }
                Err(_) => {
                    // Unremovable (permissions, read-only mount): its
                    // bytes still occupy the store — keep evicting
                    // younger entries until the budget really holds.
                }
            }
        }

        Ok(summary)
    }
}

/// The entry's recorded checksum matches the payload it carries. A
/// missing or non-string `sum` (a pre-checksum or hand-edited entry)
/// fails closed: unverifiable is corrupt.
fn checksum_matches(entry: &Value, payload: &Value) -> bool {
    entry.get("sum").and_then(Value::as_str)
        == Some(crate::hash::sha256_hex(payload.to_json().as_bytes()).as_str())
}

/// Best-effort LRU bookkeeping: bump an entry's mtime to "now" so GC
/// ranks it most recently used. Failures (read-only store, vanished
/// file) cost nothing but eviction precision.
fn touch(path: &Path) {
    if let Ok(file) = std::fs::File::options().write(true).open(path) {
        let _ = file.set_modified(std::time::SystemTime::now());
    }
}

/// What one [`StageCache::gc`] sweep did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcSummary {
    /// Entries found in the store.
    pub scanned: usize,
    /// Entries evicted.
    pub evicted: usize,
    /// Store size before the sweep, bytes.
    pub bytes_before: u64,
    /// Bytes evicted.
    pub bytes_evicted: u64,
}

impl GcSummary {
    /// Store size after the sweep, bytes.
    #[must_use]
    pub fn bytes_after(&self) -> u64 {
        self.bytes_before.saturating_sub(self.bytes_evicted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_root(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mm_engine_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn miss_then_hit() {
        let cache = StageCache::open(tmp_root("mh")).unwrap();
        let mut t = CacheStats::default();
        let key = "a".repeat(64);
        assert!(cache.get("placement", &key, &mut t).is_none());
        let payload = Value::Str("data".into());
        cache.put("placement", &key, &payload, &mut t);
        assert_eq!(cache.get("placement", &key, &mut t), Some(payload));
        assert_eq!((t.hits, t.misses, t.writes, t.corrupt), (1, 1, 1, 0));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn stages_are_disjoint_namespaces() {
        let cache = StageCache::open(tmp_root("ns")).unwrap();
        let mut t = CacheStats::default();
        let key = "b".repeat(64);
        cache.put("placement", &key, &Value::Num(1.0), &mut t);
        assert!(cache.get("result", &key, &mut t).is_none());
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn corrupted_entry_is_quarantined_and_recovered() {
        let cache = StageCache::open(tmp_root("cor")).unwrap();
        let mut t = CacheStats::default();
        let key = "c".repeat(64);
        cache.put("result", &key, &Value::Num(42.0), &mut t);

        // Truncate the entry mid-JSON.
        let path = cache.entry_path("result", &key);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();

        assert!(
            cache.get("result", &key, &mut t).is_none(),
            "corrupt => miss"
        );
        assert!(!path.exists(), "corrupt entry moved out of its slot");
        let corpse = cache.quarantine_dir().join(format!("{key}.json"));
        assert!(corpse.exists(), "corrupt entry kept for post-mortem");
        assert_eq!(t.corrupt, 1);

        // Recomputation path: put again, read back.
        cache.put("result", &key, &Value::Num(42.0), &mut t);
        assert_eq!(cache.get("result", &key, &mut t), Some(Value::Num(42.0)));

        // The corpse is ordinary GC state now: an unlimited sweep keeps
        // it (post-mortem evidence has no deadline of its own), a byte
        // budget evicts it oldest-first before any live entry.
        let scan = cache.gc(None, None).unwrap();
        assert_eq!(scan.scanned, 2, "corpse and live entry both scanned");
        assert_eq!(scan.evicted, 0, "no limits, no eviction");
        assert!(corpse.exists());
        let sweep = cache.gc(Some(scan.bytes_before - 1), None).unwrap();
        assert_eq!(sweep.evicted, 1, "the corpse is the oldest victim");
        assert!(!corpse.exists());
        assert_eq!(cache.get("result", &key, &mut t), Some(Value::Num(42.0)));
        let _ = std::fs::remove_dir_all(cache.root());
    }

    /// Regression: `gc` used to skip `quarantine/` during the scan and
    /// instead wipe it wholesale after budgeting — so corpses were
    /// invisible to `max_bytes` accounting. They must participate in
    /// size accounting and oldest-first eviction like live entries.
    #[test]
    fn gc_accounts_for_and_evicts_quarantined_entries() {
        let cache = StageCache::open(tmp_root("gc_quar")).unwrap();
        let mut t = CacheStats::default();
        let k0 = "0".repeat(64);
        let k1 = "f".repeat(64);
        cache.put("result", &k0, &Value::Str("x".repeat(64)), &mut t);
        let path = cache.entry_path("result", &k0);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() / 2]).unwrap();
        assert!(
            cache.get("result", &k0, &mut t).is_none(),
            "corrupt => quarantined"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
        cache.put("result", &k1, &Value::Str("y".repeat(64)), &mut t);

        let scan = cache.gc(None, None).unwrap();
        assert_eq!(scan.scanned, 2, "the corpse is size-accounted");
        assert_eq!(scan.evicted, 0, "corpses are no longer swept wholesale");
        let corpse = cache.quarantine_dir().join(format!("{k0}.json"));
        assert!(corpse.exists());

        let sweep = cache.gc(Some(scan.bytes_before - 1), None).unwrap();
        assert_eq!(sweep.evicted, 1, "budget eviction is oldest-first");
        assert!(!corpse.exists(), "the older corpse went before live data");
        assert_eq!(
            cache.get("result", &k1, &mut t),
            Some(Value::Str("y".repeat(64))),
            "the younger live entry survives"
        );
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn bitflipped_payload_fails_the_checksum() {
        let cache = StageCache::open(tmp_root("sum")).unwrap();
        let mut t = CacheStats::default();
        let key = "9".repeat(64);
        cache.put("result", &key, &Value::Str("payload-data".into()), &mut t);

        // Flip one payload byte: the entry still parses as JSON and the
        // embedded key/stage still match — only the checksum catches it.
        let path = cache.entry_path("result", &key);
        let text = std::fs::read_to_string(&path).unwrap();
        let tampered = text.replace("payload-data", "payload-dbta");
        assert_ne!(text, tampered, "tamper site present");
        std::fs::write(&path, tampered).unwrap();

        assert!(
            cache.get("result", &key, &mut t).is_none(),
            "bad sum => miss"
        );
        assert_eq!(t.corrupt, 1);
        assert!(
            cache.quarantine_dir().join(format!("{key}.json")).exists(),
            "tampered entry quarantined"
        );
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn entry_without_checksum_is_unverifiable_hence_corrupt() {
        let cache = StageCache::open(tmp_root("nosum")).unwrap();
        let mut t = CacheStats::default();
        let key = "8".repeat(64);
        let path = cache.entry_path("result", &key);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        let entry = ObjBuilder::new()
            .field("key", key.as_str())
            .field("stage", "result")
            .field("payload", Value::Num(1.0))
            .build();
        std::fs::write(&path, entry.to_json()).unwrap();
        assert!(
            cache.get("result", &key, &mut t).is_none(),
            "no sum => no trust"
        );
        assert_eq!(t.corrupt, 1);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn wrong_key_inside_entry_is_corruption() {
        let cache = StageCache::open(tmp_root("wk")).unwrap();
        let mut t = CacheStats::default();
        let key1 = "d".repeat(64);
        let key2 = "e".repeat(64);
        cache.put("result", &key1, &Value::Bool(true), &mut t);
        // Copy entry for key1 into key2's slot: content-address mismatch.
        let from = cache.entry_path("result", &key1);
        let to = cache.entry_path("result", &key2);
        std::fs::create_dir_all(to.parent().unwrap()).unwrap();
        std::fs::copy(&from, &to).unwrap();
        assert!(cache.get("result", &key2, &mut t).is_none());
        assert_eq!(t.corrupt, 1);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_respects_size_budget_oldest_first() {
        let cache = StageCache::open(tmp_root("gc_size")).unwrap();
        let mut t = CacheStats::default();
        for i in 0..6 {
            let key = format!("{i:064}");
            cache.put("result", &key, &Value::Str("x".repeat(64)), &mut t);
        }
        let all = cache.gc(None, None).unwrap();
        assert_eq!(all.scanned, 6);
        assert_eq!(all.evicted, 0, "no limits, no eviction");

        let budget = all.bytes_before / 2;
        let sweep = cache.gc(Some(budget), None).unwrap();
        assert!(sweep.evicted >= 3, "over-budget entries evicted");
        assert!(sweep.bytes_after() <= budget, "store under budget");
        let after = cache.gc(None, None).unwrap();
        assert_eq!(after.scanned, 6 - sweep.evicted);

        // Evicted entries are misses, surviving ones still hit.
        let mut hits = 0;
        for i in 0..6 {
            let key = format!("{i:064}");
            if cache.get("result", &key, &mut t).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 6 - sweep.evicted);
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_is_lru_a_just_hit_entry_survives_a_size_sweep() {
        let cache = StageCache::open(tmp_root("gc_lru")).unwrap();
        let mut t = CacheStats::default();
        let hot = "a".repeat(64);
        let cold = "b".repeat(64);
        cache.put("result", &hot, &Value::Str("x".repeat(64)), &mut t);
        cache.put("result", &cold, &Value::Str("x".repeat(64)), &mut t);

        // Backdate both entries, the hot one *further into the past* —
        // under insertion-order GC it would be the first victim.
        let backdate = |key: &str, secs: u64| {
            let path = cache.entry_path("result", key);
            let file = std::fs::File::options().write(true).open(path).unwrap();
            file.set_modified(std::time::SystemTime::now() - std::time::Duration::from_secs(secs))
                .unwrap();
        };
        backdate(&hot, 7_200);
        backdate(&cold, 3_600);

        // A hit must refresh the hot entry's recency...
        assert!(cache.get("result", &hot, &mut t).is_some());

        // ...so a sweep that only has room for one entry evicts the
        // colder, *older-by-last-use* entry, not the older-by-insertion
        // one.
        let all = cache.gc(None, None).unwrap();
        let sweep = cache.gc(Some(all.bytes_before / 2), None).unwrap();
        assert_eq!(sweep.evicted, 1);
        assert!(
            cache.get("result", &hot, &mut t).is_some(),
            "just-hit entry kept"
        );
        assert!(
            cache.get("result", &cold, &mut t).is_none(),
            "LRU entry evicted"
        );
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn gc_age_limit_evicts_stale_entries() {
        let cache = StageCache::open(tmp_root("gc_age")).unwrap();
        let mut t = CacheStats::default();
        let key = "a".repeat(64);
        cache.put("placement", &key, &Value::Num(1.0), &mut t);
        std::thread::sleep(std::time::Duration::from_millis(20));
        let sweep = cache
            .gc(None, Some(std::time::Duration::from_millis(1)))
            .unwrap();
        assert_eq!(sweep.evicted, 1, "stale entry evicted");
        assert_eq!(sweep.bytes_after(), 0);
        let keep = StageCache::open(cache.root()).unwrap();
        keep.put("placement", &key, &Value::Num(2.0), &mut t);
        let sweep = keep
            .gc(None, Some(std::time::Duration::from_secs(3600)))
            .unwrap();
        assert_eq!(sweep.evicted, 0, "fresh entry kept");
        let _ = std::fs::remove_dir_all(cache.root());
    }

    #[test]
    fn concurrent_writers_race_benignly() {
        let cache = StageCache::open(tmp_root("cc")).unwrap();
        let mut t = CacheStats::default();
        let key = "f".repeat(64);
        let racers: CacheStats = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut t = CacheStats::default();
                        for _ in 0..50 {
                            cache.put("result", &key, &Value::Num(7.0), &mut t);
                            let _ = cache.get("result", &key, &mut t);
                        }
                        t
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(cache.get("result", &key, &mut t), Some(Value::Num(7.0)));
        assert_eq!(racers.corrupt + t.corrupt, 0, "no torn reads");
        let _ = std::fs::remove_dir_all(cache.root());
    }
}
