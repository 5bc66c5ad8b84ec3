//! A durable version manager: the in-memory [`VersionManager`] behind a
//! replayable **operation log**.
//!
//! The version manager is the protocol's only serialization point
//! (§III-A.4), and that is exactly what makes it cheap to persist: its
//! state is a pure function of the sequence of successful mutating calls
//! it has served, and because blob ids and versions are handed out
//! sequentially, replaying that sequence against a fresh manager
//! reproduces the *identical* state — same ids, same versions, same
//! reveal order. So instead of snapshotting the manager's interior
//! (write logs, branch ancestry, collection watermarks), the wrapper
//! appends one small frame per successful mutation and rebuilds by
//! replay on open.
//!
//! Each recorded mutation carries the result the original call returned
//! (the assigned blob id or version), and replay *verifies* it: if a
//! replayed `create_blob` hands out a different id than the log recorded,
//! the log is from a different history than it claims and the open fails
//! with [`Error::Storage`] rather than serving diverged versions.
//!
//! The log lock is held **across** the inner call for mutating
//! operations, so log order always equals execution order — without
//! that, two racing `create_blob`s could log in the opposite order of
//! their id assignment and replay would verify-fail. Read-only calls
//! (`latest`, `snapshot_info`, `chain`, `wait_revealed`, …) bypass the
//! log entirely and keep the manager's native concurrency.

use crate::frame::FrameLog;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::LogChain;
use blobseer_core::ports::VersionService;
use blobseer_core::version_manager::{SnapshotInfo, VersionManager, WriteIntent, WriteTicket};
use blobseer_core::EngineStats;
use blobseer_types::wire::{Wire, WireReader, WireWriter};
use blobseer_types::{BlobId, Error, Result, Version};
use parking_lot::Mutex;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const REC_HEADER: u8 = 0;
const REC_CREATE: u8 = 1;
const REC_BRANCH: u8 = 2;
const REC_ASSIGN: u8 = 3;
const REC_COMMIT: u8 = 4;
const REC_DELETE: u8 = 5;
const REC_COLLECT: u8 = 6;

/// One record of the version log: the header every log starts with, or
/// one successful mutation together with the result replay must
/// reproduce. Encoded as a tag byte, then the fields in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VersionRecord {
    /// The block size the log was written under (first record only).
    Header {
        /// The deployment's block size.
        block_size: u64,
    },
    /// `create_blob()` handed out `blob`.
    Create {
        /// The new BLOB.
        blob: BlobId,
    },
    /// `branch(parent, at)` handed out `blob`.
    Branch {
        /// The BLOB forked.
        parent: BlobId,
        /// The version forked at.
        at: Version,
        /// The new BLOB.
        blob: BlobId,
    },
    /// `assign(blob, intent)` handed out `version`.
    Assign {
        /// The BLOB written.
        blob: BlobId,
        /// What the writer asked for.
        intent: WriteIntent,
        /// The version assigned.
        version: Version,
    },
    /// `commit(blob, version)`.
    Commit {
        /// The BLOB written.
        blob: BlobId,
        /// The version committed.
        version: Version,
    },
    /// `delete_blob(blob)`.
    Delete {
        /// The BLOB deleted.
        blob: BlobId,
    },
    /// `collect_before(blob, keep_from)`.
    Collect {
        /// The BLOB pruned.
        blob: BlobId,
        /// The oldest version kept.
        keep_from: Version,
    },
}

impl Wire for VersionRecord {
    fn put(&self, w: &mut WireWriter) {
        match *self {
            VersionRecord::Header { block_size } => (REC_HEADER, block_size).put(w),
            VersionRecord::Create { blob } => (REC_CREATE, blob).put(w),
            VersionRecord::Branch { parent, at, blob } => {
                (REC_BRANCH, parent, at).put(w);
                blob.put(w);
            }
            VersionRecord::Assign {
                blob,
                intent,
                version,
            } => {
                (REC_ASSIGN, blob, intent).put(w);
                version.put(w);
            }
            VersionRecord::Commit { blob, version } => (REC_COMMIT, blob, version).put(w),
            VersionRecord::Delete { blob } => (REC_DELETE, blob).put(w),
            VersionRecord::Collect { blob, keep_from } => (REC_COLLECT, blob, keep_from).put(w),
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            REC_HEADER => VersionRecord::Header {
                block_size: r.get_u64()?,
            },
            REC_CREATE => VersionRecord::Create {
                blob: BlobId::get(r)?,
            },
            REC_BRANCH => {
                let (parent, at, blob) = Wire::get(r)?;
                VersionRecord::Branch { parent, at, blob }
            }
            REC_ASSIGN => {
                let (blob, intent, version) = Wire::get(r)?;
                VersionRecord::Assign {
                    blob,
                    intent,
                    version,
                }
            }
            REC_COMMIT => {
                let (blob, version) = Wire::get(r)?;
                VersionRecord::Commit { blob, version }
            }
            REC_DELETE => VersionRecord::Delete {
                blob: BlobId::get(r)?,
            },
            REC_COLLECT => {
                let (blob, keep_from) = Wire::get(r)?;
                VersionRecord::Collect { blob, keep_from }
            }
            t => return Err(Error::Transport(format!("unknown record tag {t}"))),
        })
    }
}

fn replay_err(path: &Path, why: impl std::fmt::Display) -> Error {
    Error::Storage(format!("{}: version log replay: {why}", path.display()))
}

/// A [`VersionService`] whose state survives restart: an in-memory
/// [`VersionManager`] plus the operation log it is the replay of.
pub struct DurableVersionService {
    path: PathBuf,
    block_size: u64,
    inner: Mutex<(VersionManager, FrameLog)>,
}

fn fresh_manager(block_size: u64) -> VersionManager {
    VersionManager::new(block_size, Arc::new(EngineStats::new()))
}

/// Replays one record into `vm`, verifying the result it recorded.
fn replay(vm: &VersionManager, record: VersionRecord) -> std::result::Result<(), String> {
    let diverged = |call: &str, got: &dyn std::fmt::Display, recorded: &dyn std::fmt::Display| {
        Err(format!("{call} replayed to {got}, log recorded {recorded}"))
    };
    let e = |e: Error| e.to_string();
    match record {
        VersionRecord::Header { .. } => return Err("a second header record".into()),
        VersionRecord::Create { blob } => {
            let got = vm.create_blob();
            if got != blob {
                return diverged("create_blob", &got, &blob);
            }
        }
        VersionRecord::Branch { parent, at, blob } => {
            let got = vm.branch(parent, at).map_err(e)?;
            if got != blob {
                return diverged("branch", &got, &blob);
            }
        }
        VersionRecord::Assign {
            blob,
            intent,
            version,
        } => {
            let got = vm.assign(blob, intent).map_err(e)?.version;
            if got != version {
                return diverged("assign", &format!("version {got}"), &version);
            }
        }
        VersionRecord::Commit { blob, version } => vm.commit(blob, version).map_err(e)?,
        VersionRecord::Delete { blob } => drop(vm.delete_blob(blob).map_err(e)?),
        VersionRecord::Collect { blob, keep_from } => {
            drop(vm.collect_before(blob, keep_from).map_err(e)?)
        }
    }
    Ok(())
}

fn load(path: &Path, block_size: u64) -> Result<(VersionManager, FrameLog)> {
    let vm = fresh_manager(block_size);
    let mut saw_header = false;
    let mut log = FrameLog::open_with(path, |_, payload| {
        let record = VersionRecord::from_bytes(payload).map_err(|e| replay_err(path, e))?;
        if saw_header {
            return replay(&vm, record).map_err(|why| replay_err(path, why));
        }
        match record {
            VersionRecord::Header { block_size: logged } if logged == block_size => {
                saw_header = true;
                Ok(())
            }
            VersionRecord::Header { block_size: logged } => Err(replay_err(
                path,
                format!("log was written with block size {logged}, deployment wants {block_size}"),
            )),
            _ => Err(replay_err(path, "first record is not a header")),
        }
    })?;
    if !saw_header {
        // Fresh (or fully torn) log: stamp the header now so a reopened
        // deployment can validate its block size against ours.
        log.append(&VersionRecord::Header { block_size }.to_bytes())?;
    }
    Ok((vm, log))
}

impl DurableVersionService {
    /// Opens (or creates) the operation log at `path` and replays it into
    /// a fresh [`VersionManager`] configured for `block_size`.
    ///
    /// Fails with [`Error::Storage`] when the log was written under a
    /// different block size or replays to different ids/versions than it
    /// recorded.
    pub fn open(path: impl Into<PathBuf>, block_size: u64) -> Result<Self> {
        let path = path.into();
        let inner = load(&path, block_size)?;
        Ok(Self {
            path,
            block_size,
            inner: Mutex::named(inner, "disk.version_log.inner"),
        })
    }

    /// Simulates a restart in place: re-replays the log into a fresh
    /// manager. Pending (assigned-but-uncommitted) versions replay as
    /// pending again — commit order, not assignment order, decides what
    /// is revealed, exactly as before the restart.
    pub fn reopen(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        *inner = load(&self.path, self.block_size)?;
        Ok(())
    }

    /// The operation-log file (crash tests truncate it at chosen offsets).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Forces logged operations to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.inner.lock().1.sync()
    }

    /// Runs a mutating call and, on success, logs the frame `record`
    /// builds from the result — all under the log lock, so log order is
    /// execution order.
    fn mutate<T>(
        &self,
        call: impl FnOnce(&VersionManager) -> Result<T>,
        record: impl FnOnce(&T) -> VersionRecord,
    ) -> Result<T> {
        let mut inner = self.inner.lock();
        let (vm, log) = &mut *inner;
        let out = call(vm)?;
        log.append(&record(&out).to_bytes())?;
        Ok(out)
    }
}

impl VersionService for DurableVersionService {
    fn block_size(&self) -> u64 {
        self.block_size
    }

    fn create_blob(&self) -> Result<BlobId> {
        self.mutate(
            |vm| Ok(vm.create_blob()),
            |&blob| VersionRecord::Create { blob },
        )
    }

    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        self.mutate(
            |vm| vm.branch(parent, at),
            |&blob| VersionRecord::Branch { parent, at, blob },
        )
    }

    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        self.mutate(
            |vm| vm.assign(blob, intent),
            |ticket| VersionRecord::Assign {
                blob,
                intent,
                version: ticket.version,
            },
        )
    }

    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        self.mutate(
            |vm| vm.commit(blob, version),
            |_| VersionRecord::Commit { blob, version },
        )
    }

    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        self.inner.lock().0.latest(blob)
    }

    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        self.inner.lock().0.snapshot_info(blob, version)
    }

    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        self.inner.lock().0.chain(blob)
    }

    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        // Cloning the wait out from under the log lock is impossible with
        // the manager owned by the mutex; poll instead. Reveal latency in
        // the disk deployment is bounded by commit calls, which are fast.
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match self
                .inner
                .lock()
                .0
                .wait_revealed(blob, version, Duration::ZERO)
            {
                Err(Error::Timeout(_)) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                other => return other,
            }
        }
    }

    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.inner.lock().0.pending_versions(blob)
    }

    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        self.mutate(
            |vm| vm.delete_blob(blob),
            |_| VersionRecord::Delete { blob },
        )
    }

    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        self.mutate(
            |vm| vm.collect_before(blob, keep_from),
            |_| VersionRecord::Collect { blob, keep_from },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn log_path(tmp: &TempDir) -> PathBuf {
        tmp.path().join("version.log")
    }

    #[test]
    fn versions_survive_close_and_reopen() {
        let tmp = TempDir::new("vm-reopen");
        let vm = DurableVersionService::open(log_path(&tmp), 64).unwrap();
        let blob = vm.create_blob().unwrap();
        let t1 = vm.assign(blob, WriteIntent::Append { size: 128 }).unwrap();
        vm.commit(blob, t1.version).unwrap();
        let t2 = vm
            .assign(
                blob,
                WriteIntent::Write {
                    offset: 0,
                    size: 64,
                },
            )
            .unwrap();
        vm.commit(blob, t2.version).unwrap();
        drop(vm);

        let vm = DurableVersionService::open(log_path(&tmp), 64).unwrap();
        assert_eq!(vm.latest(blob).unwrap(), (Version::new(2), 128));
        assert_eq!(vm.snapshot_info(blob, Version::new(1)).unwrap().size, 128);
        // Sequential id allocation resumes where the log left off.
        assert_eq!(vm.create_blob().unwrap(), BlobId::new(2));
    }

    #[test]
    fn pending_versions_replay_as_pending() {
        let tmp = TempDir::new("vm-pending");
        let vm = DurableVersionService::open(log_path(&tmp), 64).unwrap();
        let blob = vm.create_blob().unwrap();
        let t1 = vm.assign(blob, WriteIntent::Append { size: 64 }).unwrap();
        let t2 = vm.assign(blob, WriteIntent::Append { size: 64 }).unwrap();
        vm.commit(blob, t1.version).unwrap();
        // t2 assigned but never committed before the "crash".
        vm.reopen().unwrap();
        assert_eq!(vm.latest(blob).unwrap().0, t1.version);
        assert_eq!(vm.pending_versions(blob).unwrap(), vec![t2.version]);
        // The writer can still finish after the restart.
        vm.commit(blob, t2.version).unwrap();
        assert_eq!(vm.latest(blob).unwrap(), (t2.version, 128));
    }

    #[test]
    fn branches_and_gc_survive_reopen() {
        let tmp = TempDir::new("vm-branch");
        let vm = DurableVersionService::open(log_path(&tmp), 64).unwrap();
        let blob = vm.create_blob().unwrap();
        for _ in 0..3 {
            let t = vm.assign(blob, WriteIntent::Append { size: 64 }).unwrap();
            vm.commit(blob, t.version).unwrap();
        }
        let fork = vm.branch(blob, Version::new(2)).unwrap();
        let roots = vm.collect_before(blob, Version::new(2)).unwrap();
        vm.reopen().unwrap();
        assert_eq!(vm.latest(fork).unwrap(), (Version::new(2), 128));
        // Collected versions stay collected: a second sweep finds nothing.
        assert!(!roots.is_empty());
        assert!(vm.collect_before(blob, Version::new(2)).unwrap().is_empty());
        // And the fork still branches from live history.
        let t = vm.assign(fork, WriteIntent::Append { size: 64 }).unwrap();
        vm.commit(fork, t.version).unwrap();
        assert_eq!(vm.latest(fork).unwrap().1, 192);
    }

    #[test]
    fn deleted_blobs_stay_deleted() {
        let tmp = TempDir::new("vm-delete");
        let vm = DurableVersionService::open(log_path(&tmp), 64).unwrap();
        let a = vm.create_blob().unwrap();
        let b = vm.create_blob().unwrap();
        let t = vm.assign(b, WriteIntent::Append { size: 64 }).unwrap();
        vm.commit(b, t.version).unwrap();
        vm.delete_blob(a).unwrap();
        vm.reopen().unwrap();
        assert!(vm.latest(a).is_err());
        assert_eq!(vm.latest(b).unwrap(), (Version::new(1), 64));
    }

    #[test]
    fn failed_mutations_are_not_logged() {
        let tmp = TempDir::new("vm-failed");
        let vm = DurableVersionService::open(log_path(&tmp), 64).unwrap();
        let blob = vm.create_blob().unwrap();
        assert!(vm.assign(blob, WriteIntent::Append { size: 0 }).is_err());
        assert!(vm.branch(BlobId::new(99), Version::new(1)).is_err());
        // A log polluted with failed ops would fail this replay.
        vm.reopen().unwrap();
        assert_eq!(vm.latest(blob).unwrap().0, Version::ZERO);
    }

    #[test]
    fn block_size_mismatch_is_rejected() {
        let tmp = TempDir::new("vm-blocksize");
        {
            let vm = DurableVersionService::open(log_path(&tmp), 64).unwrap();
            vm.create_blob().unwrap();
        }
        let err = match DurableVersionService::open(log_path(&tmp), 128) {
            Err(e) => e,
            Ok(_) => panic!("block-size mismatch accepted"),
        };
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }

    #[test]
    fn wait_revealed_crosses_threads() {
        let tmp = TempDir::new("vm-wait");
        let vm = Arc::new(DurableVersionService::open(log_path(&tmp), 64).unwrap());
        let blob = vm.create_blob().unwrap();
        let t = vm.assign(blob, WriteIntent::Append { size: 64 }).unwrap();
        let waiter = {
            let vm = Arc::clone(&vm);
            std::thread::spawn(move || vm.wait_revealed(blob, t.version, Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        vm.commit(blob, t.version).unwrap();
        waiter.join().unwrap().unwrap();
    }
}
