//! # icpe-persist — durable checkpoint storage
//!
//! Writes [`PipelineCheckpoint`](icpe_types::PipelineCheckpoint)-shaped
//! state to disk so a crashed or restarted serve instance can resume
//! detection without forgetting its open pattern windows. The store is
//! deliberately boring and auditable:
//!
//! * **File format** — two lines of text: a header
//!   `ICPE-CHECKPOINT v<format> seq=<n> crc32=<hex> len=<bytes>` and the
//!   JSON payload. The header's length and CRC32 are verified before the
//!   payload is parsed, so truncated or bit-flipped files are rejected with
//!   a typed [`PersistError`] instead of a parse panic somewhere deep in
//!   deserialization.
//! * **Atomicity** — each checkpoint is written to `<name>.tmp`, flushed
//!   (`sync_all`), then renamed into place. A crash mid-write leaves at
//!   worst a stale `.tmp`, never a half-written live checkpoint.
//! * **Retention** — the newest `retain` checkpoints are kept; older ones
//!   are deleted after a successful write. [`CheckpointStore::load_latest`]
//!   walks backwards and skips corrupt files, so a torn newest file (power
//!   loss between `write` and `sync`) falls back to the previous good one.
//!
//! The store is generic over any serde-serializable value, so the serve
//! layer can wrap the pipeline checkpoint with its own edge state (the
//! tick interval, edge counters) in one atomic file.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// On-disk format version (the container framing, not the payload schema —
/// the payload carries its own `version` field).
pub const FORMAT_VERSION: u32 = 1;

const FILE_PREFIX: &str = "checkpoint-";
const FILE_SUFFIX: &str = ".icpe";

/// Why a checkpoint could not be written or read back.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying filesystem failure.
    Io(std::io::Error),
    /// The file is shorter than its header claims (torn write).
    Truncated {
        /// Offending file.
        path: PathBuf,
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The payload bytes do not match the header's checksum.
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
    },
    /// The header is missing or malformed, or the payload is not valid
    /// JSON for the requested type.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// What went wrong.
        reason: String,
    },
    /// The file was written by an unsupported container format version.
    UnsupportedFormat {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "checkpoint io error: {e}"),
            PersistError::Truncated {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {} truncated: header promises {expected} payload bytes, found {found}",
                path.display()
            ),
            PersistError::ChecksumMismatch { path } => {
                write!(f, "checkpoint {} failed its CRC32 check", path.display())
            }
            PersistError::Corrupt { path, reason } => {
                write!(f, "checkpoint {} corrupt: {reason}", path.display())
            }
            PersistError::UnsupportedFormat { path, found } => write!(
                f,
                "checkpoint {} uses container format v{found} (supported: v{FORMAT_VERSION})",
                path.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, the zlib/`cksum -o3` polynomial), table-driven.
/// Implemented locally: the build environment has no registry access, and
/// 30 lines beat another shim crate.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    }
    const TABLE: [u32; 256] = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// An injected write fault, consulted per save via
/// [`CheckpointStore::with_fault_hook`] — the persist half of the chaos
/// harness. `persist` cannot depend on the runtime's `FaultPlan`, so the
/// hook is a plain callback the caller adapts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveFault {
    /// The write fails with an I/O error; nothing reaches disk.
    Fail,
    /// The file lands torn: the payload is truncated mid-way but the file
    /// is still renamed into place, as if the process died during the
    /// write — exercises [`CheckpointStore::load_latest`]'s fallback.
    Torn,
}

/// Callback deciding whether checkpoint `seq`'s write should fault.
pub type SaveFaultHook = std::sync::Arc<dyn Fn(u64) -> Option<SaveFault> + Send + Sync>;

/// A checkpoint `load_latest` walked past because it was unreadable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedCheckpoint {
    /// Sequence number of the skipped file.
    pub seq: u64,
    /// The rendered [`PersistError`] that made it unreadable.
    pub reason: String,
}

/// Result payload of
/// [`load_latest_with_skips`](CheckpointStore::load_latest_with_skips):
/// the newest readable `(seq, value)` (if any) plus the unreadable
/// checkpoints walked past to find it, newest first.
pub type LoadedWithSkips<T> = (Option<(u64, T)>, Vec<SkippedCheckpoint>);

/// A directory of atomic, CRC-protected, retention-bounded checkpoint
/// files.
#[derive(Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
    retain: usize,
    fault: Option<SaveFaultHook>,
}

impl fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CheckpointStore")
            .field("dir", &self.dir)
            .field("retain", &self.retain)
            .field("fault", &self.fault.as_ref().map(|_| "<hook>"))
            .finish()
    }
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory keeping the last
    /// `retain` checkpoints (minimum 1).
    pub fn open(dir: impl Into<PathBuf>, retain: usize) -> Result<CheckpointStore, PersistError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(CheckpointStore {
            dir,
            retain: retain.max(1),
            fault: None,
        })
    }

    /// Installs a write-fault hook consulted (with the checkpoint seq)
    /// before every [`save`](CheckpointStore::save). Testing/chaos only.
    pub fn with_fault_hook(mut self, hook: SaveFaultHook) -> CheckpointStore {
        self.fault = Some(hook);
        self
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the checkpoint file for sequence number `seq`.
    pub fn path_for(&self, seq: u64) -> PathBuf {
        self.dir
            .join(format!("{FILE_PREFIX}{seq:020}{FILE_SUFFIX}"))
    }

    /// Atomically writes `value` as checkpoint `seq` and prunes checkpoints
    /// beyond the retention bound. Returns the final path.
    pub fn save<T: Serialize>(&self, seq: u64, value: &T) -> Result<PathBuf, PersistError> {
        let payload = serde_json::to_string(value).map_err(|e| PersistError::Corrupt {
            path: self.path_for(seq),
            reason: format!("serialize: {e}"),
        })?;
        let header = format!(
            "ICPE-CHECKPOINT v{FORMAT_VERSION} seq={seq} crc32={:08x} len={}\n",
            crc32(payload.as_bytes()),
            payload.len()
        );
        let final_path = self.path_for(seq);
        let tmp_path = final_path.with_extension("tmp");
        match self.fault.as_ref().and_then(|hook| hook(seq)) {
            Some(SaveFault::Fail) => {
                return Err(PersistError::Io(std::io::Error::other(
                    "injected checkpoint write fault",
                )));
            }
            Some(SaveFault::Torn) => {
                // Half the payload, renamed into place anyway: the torn
                // newest file a mid-write crash would leave behind.
                let cut = payload.len() / 2;
                fs::write(
                    &tmp_path,
                    [header.as_bytes(), &payload.as_bytes()[..cut]].concat(),
                )?;
                fs::rename(&tmp_path, &final_path)?;
                self.prune()?;
                return Ok(final_path);
            }
            None => {}
        }
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(header.as_bytes())?;
            f.write_all(payload.as_bytes())?;
            f.write_all(b"\n")?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        self.prune()?;
        Ok(final_path)
    }

    /// Reads and verifies one checkpoint file.
    pub fn load<T: for<'de> Deserialize<'de>>(&self, path: &Path) -> Result<T, PersistError> {
        // All slicing happens on raw bytes: the header's `len` is
        // untrusted, and byte-slicing a `&str` at a non-char-boundary
        // would panic instead of reporting corruption.
        let bytes = fs::read(path)?;
        let newline =
            bytes
                .iter()
                .position(|&b| b == b'\n')
                .ok_or_else(|| PersistError::Corrupt {
                    path: path.to_path_buf(),
                    reason: "missing header line".into(),
                })?;
        let header = std::str::from_utf8(&bytes[..newline]).map_err(|_| PersistError::Corrupt {
            path: path.to_path_buf(),
            reason: "header is not UTF-8".into(),
        })?;
        let rest = &bytes[newline + 1..];
        let fields = parse_header(header).ok_or_else(|| PersistError::Corrupt {
            path: path.to_path_buf(),
            reason: format!("malformed header `{header}`"),
        })?;
        if fields.format != FORMAT_VERSION {
            return Err(PersistError::UnsupportedFormat {
                path: path.to_path_buf(),
                found: fields.format,
            });
        }
        if rest.len() < fields.len {
            return Err(PersistError::Truncated {
                path: path.to_path_buf(),
                expected: fields.len,
                found: rest.len(),
            });
        }
        let payload = &rest[..fields.len];
        if crc32(payload) != fields.crc {
            return Err(PersistError::ChecksumMismatch {
                path: path.to_path_buf(),
            });
        }
        let payload = std::str::from_utf8(payload).map_err(|_| PersistError::Corrupt {
            path: path.to_path_buf(),
            reason: "payload is not UTF-8".into(),
        })?;
        serde_json::from_str(payload).map_err(|e| PersistError::Corrupt {
            path: path.to_path_buf(),
            reason: format!("payload: {e}"),
        })
    }

    /// Sequence numbers of the checkpoints on disk, ascending.
    pub fn list(&self) -> Result<Vec<u64>, PersistError> {
        let mut seqs = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(stem) = name
                .strip_prefix(FILE_PREFIX)
                .and_then(|s| s.strip_suffix(FILE_SUFFIX))
            {
                if let Ok(seq) = stem.parse::<u64>() {
                    seqs.push(seq);
                }
            }
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Loads the newest readable checkpoint, walking backwards past corrupt
    /// or truncated files (a torn newest file must not brick recovery).
    /// Returns `None` when no checkpoint can be read at all. Skipped files
    /// are warned to stderr; use
    /// [`load_latest_with_skips`](CheckpointStore::load_latest_with_skips)
    /// to get them programmatically (for journal events / counters).
    pub fn load_latest<T: for<'de> Deserialize<'de>>(
        &self,
    ) -> Result<Option<(u64, T)>, PersistError> {
        self.load_latest_with_skips().map(|(found, _)| found)
    }

    /// [`load_latest`](CheckpointStore::load_latest), but also reports the
    /// torn/corrupt checkpoints it walked past (newest first) so the caller
    /// can surface them as observability events instead of a silent
    /// fallback.
    pub fn load_latest_with_skips<T: for<'de> Deserialize<'de>>(
        &self,
    ) -> Result<LoadedWithSkips<T>, PersistError> {
        let seqs = self.list()?;
        let mut skips = Vec::new();
        let mut last_err: Option<PersistError> = None;
        for &seq in seqs.iter().rev() {
            match self.load(&self.path_for(seq)) {
                Ok(value) => return Ok((Some((seq, value)), skips)),
                Err(e @ PersistError::Io(_)) => return Err(e),
                Err(e) => {
                    // Corrupt: warn loudly, record the skip, try the
                    // previous one.
                    eprintln!("icpe-persist: skipping unreadable checkpoint seq={seq}: {e}");
                    skips.push(SkippedCheckpoint {
                        seq,
                        reason: e.to_string(),
                    });
                    last_err = Some(e);
                }
            }
        }
        match last_err {
            // Every file on disk is corrupt: surface the failure rather
            // than silently starting fresh over bad state.
            Some(e) => Err(e),
            None => Ok((None, skips)),
        }
    }

    /// Deletes every checkpoint in the store (the stream ended for good;
    /// resuming from any of them would replay already-delivered results).
    pub fn clear(&self) -> Result<(), PersistError> {
        for seq in self.list()? {
            let _ = fs::remove_file(self.path_for(seq));
        }
        Ok(())
    }

    fn prune(&self) -> Result<(), PersistError> {
        let seqs = self.list()?;
        if seqs.len() > self.retain {
            for &seq in &seqs[..seqs.len() - self.retain] {
                let _ = fs::remove_file(self.path_for(seq));
            }
        }
        Ok(())
    }
}

struct Header {
    format: u32,
    crc: u32,
    len: usize,
}

fn parse_header(line: &str) -> Option<Header> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "ICPE-CHECKPOINT" {
        return None;
    }
    let format: u32 = parts.next()?.strip_prefix('v')?.parse().ok()?;
    let mut crc = None;
    let mut len = None;
    for part in parts {
        if let Some(v) = part.strip_prefix("crc32=") {
            crc = u32::from_str_radix(v, 16).ok();
        } else if let Some(v) = part.strip_prefix("len=") {
            len = v.parse::<usize>().ok();
        }
    }
    Some(Header {
        format,
        crc: crc?,
        len: len?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use icpe_types::{
        AlignerCheckpoint, EngineCheckpoint, ObsCheckpoint, PipelineCheckpoint, ProgressCheckpoint,
    };

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "icpe-persist-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(seq: u64) -> PipelineCheckpoint {
        PipelineCheckpoint {
            version: icpe_types::CHECKPOINT_VERSION,
            seq,
            records_ingested: 100 + seq,
            aligner: AlignerCheckpoint {
                buffers: Vec::new(),
                chains: Vec::new(),
                sealed_up_to: Some(seq as u32),
                max_seen: seq as u32 + 2,
                late_dropped: 1,
                duplicates: 0,
            },
            engine: EngineCheckpoint::empty(),
            progress: ProgressCheckpoint {
                windows_sealed: seq,
                pairs_merged: 4 * seq,
            },
            routing: None,
            obs: ObsCheckpoint::default(),
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_load_round_trip() {
        let store = CheckpointStore::open(tmp_dir("roundtrip"), 3).unwrap();
        let path = store.save(7, &sample(7)).unwrap();
        assert!(path.to_string_lossy().ends_with(".icpe"));
        let (seq, back): (u64, PipelineCheckpoint) = store.load_latest().unwrap().unwrap();
        assert_eq!(seq, 7);
        assert_eq!(back, sample(7));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn retention_keeps_last_k() {
        let store = CheckpointStore::open(tmp_dir("retain"), 2).unwrap();
        for seq in 1..=5 {
            store.save(seq, &sample(seq)).unwrap();
        }
        assert_eq!(store.list().unwrap(), vec![4, 5]);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn truncated_file_is_rejected_with_typed_error() {
        let store = CheckpointStore::open(tmp_dir("truncate"), 3).unwrap();
        let path = store.save(1, &sample(1)).unwrap();
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 20]).unwrap();
        match store.load::<PipelineCheckpoint>(&path) {
            Err(PersistError::Truncated {
                expected, found, ..
            }) => {
                assert!(found < expected);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_payload_is_rejected_with_typed_error() {
        let store = CheckpointStore::open(tmp_dir("corrupt"), 3).unwrap();
        let path = store.save(1, &sample(1)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        // Flip a payload byte (past the header line).
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let idx = header_end + 10;
        bytes[idx] ^= 0x20;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load::<PipelineCheckpoint>(&path),
            Err(PersistError::ChecksumMismatch { .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn lying_len_on_multibyte_payload_is_an_error_not_a_panic() {
        // `len` is untrusted: pointed mid-way into a multibyte character it
        // must surface as corruption (str slicing would panic instead).
        let store = CheckpointStore::open(tmp_dir("multibyte"), 3).unwrap();
        let path = store.path_for(1);
        let payload = "\"ééé\"";
        let cut = &payload.as_bytes()[..2]; // the quote + half of the first 'é'
        let header = format!(
            "ICPE-CHECKPOINT v{FORMAT_VERSION} seq=1 crc32={:08x} len=2\n",
            crc32(cut)
        );
        fs::write(&path, [header.as_bytes(), payload.as_bytes()].concat()).unwrap();
        match store.load::<String>(&path) {
            Err(PersistError::Corrupt { reason, .. }) => {
                assert!(reason.contains("UTF-8"), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn clear_removes_every_checkpoint() {
        let store = CheckpointStore::open(tmp_dir("clear"), 3).unwrap();
        store.save(1, &sample(1)).unwrap();
        store.save(2, &sample(2)).unwrap();
        store.clear().unwrap();
        assert!(store.list().unwrap().is_empty());
        assert!(store.load_latest::<PipelineCheckpoint>().unwrap().is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn garbage_header_is_rejected() {
        let store = CheckpointStore::open(tmp_dir("garbage"), 3).unwrap();
        let path = store.path_for(1);
        fs::write(&path, "not a checkpoint at all\n{}\n").unwrap();
        assert!(matches!(
            store.load::<PipelineCheckpoint>(&path),
            Err(PersistError::Corrupt { .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_latest_falls_back_past_torn_newest() {
        let store = CheckpointStore::open(tmp_dir("fallback"), 3).unwrap();
        store.save(1, &sample(1)).unwrap();
        let newest = store.save(2, &sample(2)).unwrap();
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let (seq, back): (u64, PipelineCheckpoint) = store.load_latest().unwrap().unwrap();
        assert_eq!(seq, 1, "fell back to the previous good checkpoint");
        assert_eq!(back, sample(1));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_latest_with_skips_reports_the_torn_file() {
        let store = CheckpointStore::open(tmp_dir("skips"), 3).unwrap();
        store.save(1, &sample(1)).unwrap();
        let newest = store.save(2, &sample(2)).unwrap();
        let full = fs::read(&newest).unwrap();
        fs::write(&newest, &full[..full.len() / 2]).unwrap();
        let (found, skips) = store
            .load_latest_with_skips::<PipelineCheckpoint>()
            .unwrap();
        assert_eq!(found.unwrap().0, 1);
        assert_eq!(skips.len(), 1);
        assert_eq!(skips[0].seq, 2);
        assert!(skips[0].reason.contains("truncated"), "{}", skips[0].reason);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn injected_save_fail_writes_nothing() {
        let hook: SaveFaultHook = std::sync::Arc::new(|seq| (seq == 2).then_some(SaveFault::Fail));
        let store = CheckpointStore::open(tmp_dir("savefail"), 3)
            .unwrap()
            .with_fault_hook(hook);
        store.save(1, &sample(1)).unwrap();
        assert!(matches!(
            store.save(2, &sample(2)),
            Err(PersistError::Io(_))
        ));
        assert_eq!(store.list().unwrap(), vec![1], "faulted seq never landed");
        let (seq, _): (u64, PipelineCheckpoint) = store.load_latest().unwrap().unwrap();
        assert_eq!(seq, 1);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn injected_torn_save_lands_and_recovery_falls_back() {
        let hook: SaveFaultHook = std::sync::Arc::new(|seq| (seq == 2).then_some(SaveFault::Torn));
        let store = CheckpointStore::open(tmp_dir("savetorn"), 3)
            .unwrap()
            .with_fault_hook(hook);
        store.save(1, &sample(1)).unwrap();
        store.save(2, &sample(2)).unwrap(); // lands torn, reports success
        assert_eq!(store.list().unwrap(), vec![1, 2]);
        let (found, skips) = store
            .load_latest_with_skips::<PipelineCheckpoint>()
            .unwrap();
        assert_eq!(found.unwrap().0, 1, "torn newest skipped");
        assert_eq!(skips[0].seq, 2);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn load_latest_on_empty_dir_is_none() {
        let store = CheckpointStore::open(tmp_dir("empty"), 3).unwrap();
        assert!(store.load_latest::<PipelineCheckpoint>().unwrap().is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn all_corrupt_surfaces_error() {
        let store = CheckpointStore::open(tmp_dir("allbad"), 3).unwrap();
        let path = store.save(1, &sample(1)).unwrap();
        fs::write(&path, "garbage\n").unwrap();
        assert!(store.load_latest::<PipelineCheckpoint>().is_err());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn unsupported_format_version_is_rejected() {
        let store = CheckpointStore::open(tmp_dir("format"), 3).unwrap();
        let path = store.save(1, &sample(1)).unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let bumped = text.replacen("ICPE-CHECKPOINT v1", "ICPE-CHECKPOINT v99", 1);
        fs::write(&path, bumped).unwrap();
        assert!(matches!(
            store.load::<PipelineCheckpoint>(&path),
            Err(PersistError::UnsupportedFormat { found: 99, .. })
        ));
        let _ = fs::remove_dir_all(store.dir());
    }
}
