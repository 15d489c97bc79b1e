//! The content-addressed result store: one snap frame per cache key,
//! plus the checkpoint-blob side store — shared by the in-process sweep
//! runner, the fabric daemon, and every worker process.
//!
//! This is the PR-1 disk cache, promoted out of the experiments crate so
//! the fabric can address it from multiple processes:
//!
//! * **Key.** [`cache_key_for`] — `"{system}__{workload-key}__{params
//!   hash}"`, FNV-1a over the exhaustive `Debug` rendering of the
//!   normalized [`SimParams`]. Observability knobs (checkpoint cadence,
//!   tracing) are zeroed before hashing because their on/off state leaves
//!   results byte-identical; the sampling configuration is *kept*, so a
//!   sampled estimate can never alias an exact result.
//! * **Entries.** `<dir>/<key>.snap`: the [`RunResult`] in its `bvl_snap`
//!   encoding inside a [`bvl_snap::frame`] — the same codec the fabric
//!   wire and the checkpoints use, so there is one codec for all three.
//!   Anything [`bvl_snap::from_framed`] rejects (truncation, a bad
//!   checksum, another `SNAP_VERSION`, duplicate stats paths, trailing
//!   bytes) is a **miss**, never an error: the point just re-simulates.
//!   Entries from the older JSON generation (`<key>.json`) are never
//!   read.
//! * **Writes.** Unique-temp-file + rename. Multiple fabric workers (and
//!   a daemon) share one store directory, so a plain `fs::write` could
//!   expose a torn half-written entry to a concurrent reader; the rename
//!   keeps every visible file complete, and last-writer-wins is safe
//!   because entries for one key are byte-identical by determinism.
//! * **Checkpoints.** `<dir>/ckpt/<key>.snap` blobs — the fabric's
//!   preemption/migration currency. Same unique-temp discipline; an
//!   undecodable blob is a miss (restart from cycle 0), reusing the PR-5
//!   `SnapError` paths.

use bvl_sim::{RunResult, SimParams, SysState, SystemKind};
use std::fs;
use std::path::{Path, PathBuf};

/// The cache key for a (system, workload-instance, params) point.
///
/// The checkpoint cadence and the trace flag are zeroed before hashing:
/// both are pure observability knobs whose on/off state leaves results
/// byte-identical (the restore-equivalence and tracing contracts), so a
/// checkpointed or traced run must *reuse* the cache entry of its plain
/// twin, not fork a parallel one. This is also the fabric's in-flight
/// dedupe key: two submissions differing only in those knobs coalesce
/// onto one simulation.
pub fn cache_key_for(system: SystemKind, workload_key: &str, params: &SimParams) -> String {
    let mut p = params.clone();
    p.checkpoint_every = 0;
    p.trace = false;
    format!(
        "{}__{}__{:016x}",
        system.label(),
        workload_key,
        fnv1a(format!("{p:?}").as_bytes())
    )
}

/// FNV-1a over `bytes` (64-bit).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A handle on one store directory. Cheap to clone; all state is on disk.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// A store rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ResultStore { dir: dir.into() }
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `key`'s result entry lives.
    pub fn result_path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.snap"))
    }

    /// Where the daemon's persistent admission-queue journal lives
    /// (`crate::journal`) — under the store so `--resume-queue` finds
    /// the backlog next to the results it was producing.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("queue.journal")
    }

    /// Where `key`'s in-flight checkpoint blob lives. Kept in a
    /// subdirectory so result entries and checkpoint blobs cannot collide,
    /// and so resumption can tell "completed" (entry present) from
    /// "interrupted" (blob present) at a glance.
    pub fn ckpt_path(&self, key: &str) -> PathBuf {
        self.dir.join("ckpt").join(format!("{key}.snap"))
    }

    /// Loads `key`'s result if present and decodable. Anything else —
    /// no file, torn or corrupt bytes, another format version — is a
    /// miss.
    pub fn load(&self, key: &str) -> Option<RunResult> {
        bvl_snap::from_framed(&fs::read(self.result_path(key)).ok()?).ok()
    }

    /// Persists `key`'s result atomically (unique temp file + rename).
    pub fn store(&self, key: &str, result: &RunResult) {
        fs::create_dir_all(&self.dir).expect("create cache dir");
        write_atomic(&self.result_path(key), &bvl_snap::to_framed(result));
    }

    /// Persists a checkpoint blob for `key` atomically, so an interrupt
    /// (or a concurrent reader in another fabric process) never sees a
    /// torn blob. (A torn blob would still be rejected by the frame
    /// checksum — the rename keeps the window empty, not merely
    /// survivable.)
    pub fn store_checkpoint(&self, key: &str, state: &SysState) {
        let path = self.ckpt_path(key);
        let dir = path.parent().expect("checkpoint path has a parent");
        fs::create_dir_all(dir).expect("create checkpoint dir");
        write_atomic(&path, &state.to_bytes());
    }

    /// Loads `key`'s checkpoint blob if present and decodable; anything
    /// else — no file, torn bytes, a version from an older simulator —
    /// is a miss, not an error (the point just restarts from cycle 0).
    pub fn load_checkpoint(&self, key: &str) -> Option<SysState> {
        let path = self.ckpt_path(key);
        let bytes = fs::read(&path).ok()?;
        match SysState::from_bytes(&bytes) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("{}: ignoring undecodable checkpoint ({e})", path.display());
                None
            }
        }
    }

    /// Removes `key`'s checkpoint blob (a completed point no longer
    /// counts as interrupted). Missing files are fine.
    pub fn remove_checkpoint(&self, key: &str) {
        let _ = fs::remove_file(self.ckpt_path(key));
    }
}

/// Unique-temp-file + rename. The temp name carries the writer's pid so
/// concurrent fabric processes writing the same key never clobber each
/// other's in-progress temp files.
fn write_atomic(path: &Path, bytes: &[u8]) {
    let mut name = path
        .file_name()
        .expect("store path has a file name")
        .to_os_string();
    name.push(format!(".{}.tmp", std::process::id()));
    let tmp = path.with_file_name(name);
    fs::write(&tmp, bytes).unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
    fs::rename(&tmp, path).unwrap_or_else(|e| panic!("rename {}: {e}", path.display()));
}
