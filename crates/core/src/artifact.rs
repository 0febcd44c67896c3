//! Crash-safe artifact writes.
//!
//! Every JSON sink in the flow — `--qor`, `--metrics`, `--explain`,
//! `--chrome-trace`, checkpoints — goes through [`atomic_write`]: the
//! bytes land in a temporary file in the destination directory, are
//! flushed and fsynced, and only then renamed over the target. A reader
//! (or a crash, or a SIGKILL) therefore observes either the previous
//! complete artifact or the new complete artifact, never a truncated
//! half-write.

// Artifact writes sit on the CLI's error path; every failure must
// surface as a typed error, never a panic.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};

/// A failed artifact write, carrying the destination path.
#[derive(Debug)]
pub struct ArtifactError {
    /// The path the write was for.
    pub path: PathBuf,
    /// The underlying I/O failure.
    pub source: std::io::Error,
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "writing {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for ArtifactError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Atomically replaces `path` with `bytes`.
///
/// The bytes are written to a process-unique temporary file in the same
/// directory (same filesystem, so the final `rename` is atomic), synced
/// to disk, and renamed over the target. Non-regular destinations that
/// already exist (`/dev/null`, pipes) are written in place instead,
/// since renaming over them would replace the special file.
///
/// # Errors
///
/// Returns the first I/O failure, naming the destination; the temporary
/// file is cleaned up on a best-effort basis.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), ArtifactError> {
    let err = |source| ArtifactError {
        path: path.to_path_buf(),
        source,
    };
    // Chaos harness: simulate ENOSPC/EIO before any bytes land so the
    // destination provably keeps its previous contents.
    nanomap_observe::failpoint::inject_io("artifact.write").map_err(err)?;
    if let Ok(meta) = std::fs::metadata(path) {
        if !meta.is_file() {
            return std::fs::write(path, bytes).map_err(err);
        }
    }
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let Some(file_name) = path.file_name() else {
        return Err(err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "destination has no file name",
        )));
    };
    let tmp = dir.join(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write_tmp = || -> std::io::Result<()> {
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(&tmp, path)
    };
    write_tmp().map_err(|source| {
        let _ = std::fs::remove_file(&tmp);
        err(source)
    })
}

/// [`atomic_write`] for text (the JSON sinks' convenience form). Appends
/// the trailing newline the plain `println!`-based sinks used to emit.
///
/// # Errors
///
/// Same as [`atomic_write`].
pub fn atomic_write_text(path: &Path, text: &str) -> Result<(), ArtifactError> {
    let mut bytes = Vec::with_capacity(text.len() + 1);
    bytes.extend_from_slice(text.as_bytes());
    if !text.ends_with('\n') {
        bytes.push(b'\n');
    }
    atomic_write(path, &bytes)
}

/// The single registry of artifact schema tags.
///
/// Every serialized artifact family embeds exactly one of these strings
/// so readers can reject foreign or future documents. New families add
/// a constant here (never an inline literal at the emit site); version
/// bumps happen here too, which keeps writer and parser in lockstep.
/// The observe crate sits below this one, so its two tags are
/// re-exported rather than redefined.
pub mod versions {
    /// QoR documents (`--qor`, committed baselines).
    pub const QOR: &str = "nanomap-qor-v1";
    /// Perf-gate documents (`bench/perf`, committed baselines).
    pub const PERF: &str = "nanomap-perf-v1";
    /// Mid-flow checkpoints (`--checkpoint-dir`).
    pub const CHECKPOINT: &str = "nanomap-checkpoint-v2";
    /// QoR explainability documents (`--explain`).
    pub const EXPLAIN: &str = "nanomap-explain-v1";
    /// Span-path profile documents (`--profile`, `nanomap profile`).
    pub const PROFILE: &str = nanomap_observe::PROFILE_SCHEMA;
    /// Event-bus streams and ledger lines (`--live-status`, `runs`).
    pub const EVENTS: &str = nanomap_observe::EVENTS_SCHEMA;
    /// `nanomapd` wire protocol lines (requests and responses).
    pub const SERVICE: &str = "nanomapd-v1";
    /// `nanomapd` result-cache entries on disk.
    pub const CACHE: &str = "nanomapd-cache-v1";
    /// `nanomapd` stats snapshots (the `stats` op and persisted file).
    pub const STATS: &str = "nanomapd-stats-v1";
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("nanomap-artifact-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = temp_dir("replace");
        let path = dir.join("a.json");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No temp litter left behind.
        let litter: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(litter.is_empty(), "{litter:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn text_write_appends_newline_once() {
        let dir = temp_dir("text");
        let path = dir.join("t.json");
        atomic_write_text(&path, "{}").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{}\n");
        atomic_write_text(&path, "{}\n").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"{}\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_a_typed_error() {
        let path = Path::new("/nonexistent-nanomap-dir/x.json");
        let e = atomic_write(path, b"x").unwrap_err();
        assert!(e.to_string().contains("/nonexistent-nanomap-dir/x.json"));
    }

    /// The atomicity contract under concurrency: a reader that polls the
    /// file while a writer rewrites it hundreds of times must only ever
    /// observe complete payloads.
    #[test]
    fn concurrent_reader_never_sees_a_partial_write() {
        let dir = temp_dir("race");
        let path = dir.join("raced.json");
        // Payloads are self-describing: 4 KiB of a single repeated digit.
        let payload = |i: usize| vec![b'0' + (i % 10) as u8; 4096];
        atomic_write(&path, &payload(0)).unwrap();
        let reader_path = path.clone();
        let reader = std::thread::spawn(move || {
            for _ in 0..2000 {
                let bytes = std::fs::read(&reader_path).unwrap();
                assert_eq!(bytes.len(), 4096, "torn read: {} bytes", bytes.len());
                assert!(
                    bytes.iter().all(|&b| b == bytes[0]),
                    "interleaved payloads observed"
                );
            }
        });
        for i in 1..500 {
            atomic_write(&path, &payload(i)).unwrap();
        }
        reader.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
