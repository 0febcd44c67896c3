//! The crash-safe result cache.
//!
//! One file per result, named by the flight-recorder run id (FNV-1a
//! over netlist fingerprint + objective key + seeds), so a repeat
//! submission of an identical request is a filesystem lookup, not a
//! mapping run. Entries are two lines:
//!
//! ```text
//! {"schema":"nanomapd-cache-v1","run_id":"8d3…","circuit":"accumulator","objective":"min-at"}
//! {…the MappingReport, compact…}
//! ```
//!
//! The report line is stored **verbatim** and spliced verbatim into
//! cache-hit responses, so a hit is byte-identical to the serve that
//! populated it. Writes go through the atomic temp-file+rename
//! substrate: a `kill -9` mid-write leaves either no entry or a
//! complete one. Loads validate both lines and treat anything torn,
//! foreign or half-written as a miss — and delete it, so one corrupt
//! entry can never wedge its key forever.

use std::path::{Path, PathBuf};

use nanomap::artifact::versions;
use nanomap::atomic_write_text;
use nanomap_observe::{failpoint, json, JsonValue};

/// Schema tag on every cache entry's header line.
pub const CACHE_SCHEMA: &str = versions::CACHE;

/// An on-disk result cache rooted at one directory.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (and creates) the cache directory.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures as text.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(Self { dir })
    }

    /// The entry path for a run id.
    #[must_use]
    pub fn entry_path(&self, run_id: &str) -> PathBuf {
        self.dir.join(format!("{run_id}.json"))
    }

    /// Looks a run id up; returns the verbatim report text on a hit.
    /// Every failure mode — missing entry, injected IO fault, torn or
    /// foreign content — degrades to a miss (torn entries are removed).
    #[must_use]
    pub fn load(&self, run_id: &str) -> Option<String> {
        let path = self.entry_path(run_id);
        if failpoint::inject_io("cache.load").is_err() {
            return None;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => return None,
        };
        match Self::validate(run_id, &text) {
            Some(report) => Some(report),
            None => {
                // A torn or foreign entry is dead weight: removing it
                // turns "corrupt forever" into "recompute once".
                eprintln!(
                    "nanomapd: dropping torn cache entry {} ({} bytes)",
                    path.display(),
                    text.len()
                );
                let _ = std::fs::remove_file(&path);
                None
            }
        }
    }

    /// Validates entry text; returns the verbatim report line.
    fn validate(run_id: &str, text: &str) -> Option<String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = lines.next()?;
        let report = lines.next()?;
        if lines.next().is_some() {
            return None;
        }
        let header = json::parse(header).ok()?;
        header.check_schema(CACHE_SCHEMA).ok()?;
        if header.req::<&str>("run_id").ok()? != run_id {
            return None;
        }
        // The report must be intact JSON; it is returned untouched.
        json::parse(report).ok()?;
        Some(report.to_string())
    }

    /// Stores a result. Best-effort: a failed store (disk full,
    /// injected fault) costs a future recompute, never the request.
    pub fn store(&self, run_id: &str, circuit: &str, objective_key: &str, report_text: &str) {
        if failpoint::inject_io("cache.write").is_err() {
            eprintln!("nanomapd: cache write for {run_id} suppressed by failpoint");
            return;
        }
        let header = JsonValue::object()
            .with("schema", CACHE_SCHEMA)
            .with("run_id", run_id)
            .with("circuit", circuit)
            .with("objective", objective_key)
            .to_compact_string();
        let entry = format!("{header}\n{report_text}\n");
        if let Err(e) = atomic_write_text(&self.entry_path(run_id), &entry) {
            eprintln!("nanomapd: cache write for {run_id} failed: {e}");
        }
    }

    /// Number of (possibly torn) entries on disk — observability only.
    #[must_use]
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir).map_or(0, |entries| entries.flatten().count())
    }

    /// Total bytes of entries on disk — the `cache_bytes` gauge.
    #[must_use]
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir).map_or(0, |entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
    }

    /// True when the cache directory holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cache directory (for diagnostics and tests).
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(tag: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!("nanomapd-cache-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::open(dir).unwrap()
    }

    #[test]
    fn store_then_load_round_trips_verbatim() {
        let c = cache("roundtrip");
        let report = "{\"circuit\":\"acc\",\"delay_ns\":17.02,\"area_um2\":50000}";
        c.store("feedc0de00000000", "acc", "min-at", report);
        assert_eq!(c.load("feedc0de00000000").as_deref(), Some(report));
        assert_eq!(c.len(), 1);
        std::fs::remove_dir_all(c.dir()).unwrap();
    }

    #[test]
    fn missing_and_wrong_key_are_misses() {
        let c = cache("miss");
        assert_eq!(c.load("0000000000000000"), None);
        c.store("aaaaaaaaaaaaaaaa", "acc", "min-at", "{\"x\":1}");
        // Entry content names a different run id than the lookup key.
        std::fs::copy(
            c.entry_path("aaaaaaaaaaaaaaaa"),
            c.entry_path("bbbbbbbbbbbbbbbb"),
        )
        .unwrap();
        assert_eq!(c.load("bbbbbbbbbbbbbbbb"), None, "id mismatch is a miss");
        std::fs::remove_dir_all(c.dir()).unwrap();
    }

    #[test]
    fn torn_entries_are_misses_and_get_removed() {
        let c = cache("torn");
        let report = "{\"circuit\":\"acc\",\"num_les\":34}";
        c.store("cccccccccccccccc", "acc", "min-at", report);
        let path = c.entry_path("cccccccccccccccc");
        let full = std::fs::read_to_string(&path).unwrap();
        for (i, torn) in [
            &full[..full.len() / 2],         // truncated mid-report
            &full[..10],                     // truncated mid-header
            "",                              // empty file
            "{\"schema\":\"other-v1\"}\n{}", // foreign schema
        ]
        .iter()
        .enumerate()
        {
            std::fs::write(&path, torn).unwrap();
            assert_eq!(c.load("cccccccccccccccc"), None, "variant {i}");
            assert!(!path.exists(), "variant {i} not removed");
            // Re-store for the next variant.
            c.store("cccccccccccccccc", "acc", "min-at", report);
        }
        std::fs::remove_dir_all(c.dir()).unwrap();
    }
}
