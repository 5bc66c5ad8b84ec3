//! The durable version manager: an in-memory [`VersionManager`] as a
//! **replica** of a replayable command log.
//!
//! The version manager is the protocol's only serialization point
//! (§III-A.4), and that is exactly what makes it cheap to persist and to
//! replicate: its state is a pure function of the sequence of successful
//! mutating calls it has served, and because blob ids and versions are
//! handed out sequentially, replaying that sequence against a fresh
//! manager reproduces the *identical* state — same ids, same versions,
//! same reveal order. So instead of snapshotting the manager's interior,
//! a [`VersionReplica`] appends one [`RepEntry`] frame per successful
//! mutation and rebuilds by replay on open.
//!
//! This is the one persisted form of the version manager.
//! [`DurableVersionService`] serves one replica alone;
//! `blobseer-control`'s `ReplicatedVersionService` runs N of them behind
//! an elected leader. Both write the same log:
//!
//! * frame 0 is the block size the log was written under (one varint);
//! * every later frame is one [`RepEntry`]: `term | index | seq | command
//!   | result`, where `result` is what the call handed out — the blob id
//!   of a `create_blob`/`branch`, the version of an `assign`, 0 otherwise.
//!
//! Replay *verifies* the log against itself: a block size other than the
//! deployment's, an entry whose index is not its slot, a command that no
//! longer applies, or one that hands out a different result than recorded
//! means the log is from a different history than it claims, and the open
//! fails with [`Error::Storage`] rather than serving diverged versions.
//! A follower applying the leader's entry runs the same check.
//!
//! Decoding runs against persisted bytes, so every malformed input must
//! surface as an [`Error`] — this file is in the workspace
//! `no-panic-decode` lint scope.

use crate::frame::FrameLog;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::LogChain;
use blobseer_core::ports::VersionService;
use blobseer_core::version_manager::{SnapshotInfo, VersionManager, WriteIntent, WriteTicket};
use blobseer_core::EngineStats;
use blobseer_types::wire::{Wire, WireReader, WireWriter};
use blobseer_types::{BlobId, Error, Result, Version};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

const CMD_CREATE_BLOB: u8 = 0;
const CMD_BRANCH: u8 = 1;
const CMD_ASSIGN: u8 = 2;
const CMD_COMMIT: u8 = 3;
const CMD_DELETE_BLOB: u8 = 4;
const CMD_COLLECT_BEFORE: u8 = 5;

/// Memoized replies kept per replica for retry deduplication (FIFO).
pub const DEDUP_CAP: usize = 1024;

/// The term a lone replica stamps on its entries: it never holds an
/// election.
const LONE_TERM: u64 = 0;

/// One mutation, tagged with the sequence number its submitter fixed, so
/// a retried submission deduplicates (exactly-once across leader
/// failover).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Command {
    /// Submission sequence number, unique per log.
    pub seq: u64,
    /// The mutation itself.
    pub kind: CommandKind,
}

/// The mutating half of the `VersionService` port — the only calls that
/// change version-manager state, and therefore the only ones logged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommandKind {
    /// `create_blob()`.
    CreateBlob,
    /// `branch(parent, at)`.
    Branch {
        /// The BLOB being forked.
        parent: BlobId,
        /// The (revealed) version to fork at.
        at: Version,
    },
    /// `assign(blob, intent)` — the serialization point.
    Assign {
        /// The BLOB being written.
        blob: BlobId,
        /// What the writer wants to do.
        intent: WriteIntent,
    },
    /// `commit(blob, version)`.
    Commit {
        /// The BLOB whose write is finishing.
        blob: BlobId,
        /// The version assigned to that write.
        version: Version,
    },
    /// `delete_blob(blob)`.
    DeleteBlob {
        /// The BLOB to delete.
        blob: BlobId,
    },
    /// `collect_before(blob, keep_from)`.
    CollectBefore {
        /// The BLOB being pruned.
        blob: BlobId,
        /// Oldest version that must survive.
        keep_from: Version,
    },
}

/// Sequence number, then a tag and the mutation's arguments.
impl Wire for Command {
    fn put(&self, w: &mut WireWriter) {
        self.seq.put(w);
        match self.kind {
            CommandKind::CreateBlob => w.put_u8(CMD_CREATE_BLOB),
            CommandKind::Branch { parent, at } => (CMD_BRANCH, parent, at).put(w),
            CommandKind::Assign { blob, intent } => (CMD_ASSIGN, blob, intent).put(w),
            CommandKind::Commit { blob, version } => (CMD_COMMIT, blob, version).put(w),
            CommandKind::DeleteBlob { blob } => (CMD_DELETE_BLOB, blob).put(w),
            CommandKind::CollectBefore { blob, keep_from } => {
                (CMD_COLLECT_BEFORE, blob, keep_from).put(w)
            }
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let seq = r.get_u64()?;
        let kind = match r.get_u8()? {
            CMD_CREATE_BLOB => CommandKind::CreateBlob,
            CMD_BRANCH => {
                let (parent, at) = Wire::get(r)?;
                CommandKind::Branch { parent, at }
            }
            CMD_ASSIGN => {
                let (blob, intent) = Wire::get(r)?;
                CommandKind::Assign { blob, intent }
            }
            CMD_COMMIT => {
                let (blob, version) = Wire::get(r)?;
                CommandKind::Commit { blob, version }
            }
            CMD_DELETE_BLOB => CommandKind::DeleteBlob {
                blob: BlobId::get(r)?,
            },
            CMD_COLLECT_BEFORE => {
                let (blob, keep_from) = Wire::get(r)?;
                CommandKind::CollectBefore { blob, keep_from }
            }
            t => return Err(Error::Transport(format!("wire: unknown command tag {t}"))),
        };
        Ok(Command { seq, kind })
    }
}

/// One slot of a replica log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RepEntry {
    /// Election term the entry was appended under.
    pub term: u64,
    /// Position in the log, starting at 0. Redundant with the frame's
    /// position but cheap, and it turns a mis-stitched log into a loud
    /// replay error instead of silent reordering.
    pub index: u64,
    /// The logged mutation.
    pub command: Command,
    /// What the call handed out ([`Reply::recorded`]); replay must
    /// reproduce it.
    pub result: u64,
}

/// `term | index | command | result` — one frame payload.
impl Wire for RepEntry {
    fn put(&self, w: &mut WireWriter) {
        (self.term, self.index, self.command).put(w);
        self.result.put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let (term, index, command) = Wire::get(r)?;
        Ok(RepEntry {
            term,
            index,
            command,
            result: r.get_u64()?,
        })
    }
}

/// The result of one applied command, as the port call returns it.
/// Replicas regenerate the same reply by applying the same command to the
/// same state, which is what lets any of them answer a retry.
#[derive(Clone)]
pub enum Reply {
    /// A `create_blob` or `branch` result.
    Blob(BlobId),
    /// An `assign` result.
    Ticket(WriteTicket),
    /// A `commit` result.
    Unit,
    /// A `delete_blob` or `collect_before` result.
    Roots(Vec<NodeKey>),
}

fn shape_err(want: &str) -> Error {
    Error::Internal(format!("version-log reply is not a {want}"))
}

impl Reply {
    /// What a log entry records of this reply: the blob id or version the
    /// call handed out, 0 for calls that hand out neither.
    pub fn recorded(&self) -> u64 {
        match self {
            Reply::Blob(b) => b.raw(),
            Reply::Ticket(t) => t.version.raw(),
            Reply::Unit | Reply::Roots(_) => 0,
        }
    }

    /// The blob id of a `create_blob`/`branch` reply.
    pub fn blob(self) -> Result<BlobId> {
        match self {
            Reply::Blob(b) => Ok(b),
            _ => Err(shape_err("blob id")),
        }
    }

    /// The ticket of an `assign` reply.
    pub fn ticket(self) -> Result<WriteTicket> {
        match self {
            Reply::Ticket(t) => Ok(t),
            _ => Err(shape_err("write ticket")),
        }
    }

    /// The unit of a `commit` reply.
    pub fn unit(self) -> Result<()> {
        match self {
            Reply::Unit => Ok(()),
            _ => Err(shape_err("unit")),
        }
    }

    /// The released roots of a `delete_blob`/`collect_before` reply.
    pub fn roots(self) -> Result<Vec<NodeKey>> {
        match self {
            Reply::Roots(r) => Ok(r),
            _ => Err(shape_err("root-key list")),
        }
    }
}

/// Applies one command to a state machine.
fn apply(vm: &VersionManager, kind: CommandKind) -> Result<Reply> {
    match kind {
        CommandKind::CreateBlob => Ok(Reply::Blob(vm.create_blob())),
        CommandKind::Branch { parent, at } => vm.branch(parent, at).map(Reply::Blob),
        CommandKind::Assign { blob, intent } => vm.assign(blob, intent).map(Reply::Ticket),
        CommandKind::Commit { blob, version } => vm.commit(blob, version).map(|()| Reply::Unit),
        CommandKind::DeleteBlob { blob } => vm.delete_blob(blob).map(Reply::Roots),
        CommandKind::CollectBefore { blob, keep_from } => {
            vm.collect_before(blob, keep_from).map(Reply::Roots)
        }
    }
}

fn diverged(index: u64, why: impl std::fmt::Display) -> Error {
    Error::Storage(format!("version log diverged at index {index}: {why}"))
}

/// One version-manager replica: the state machine, the log it is the
/// replay of (in memory, and on disk when durable), and the dedup memo.
pub struct VersionReplica {
    block_size: u64,
    /// The state machine. `Arc` so readers can use it with no lock held
    /// (reveal waits park on the manager's own condvar).
    vm: Arc<VersionManager>,
    log: Vec<RepEntry>,
    disk: Option<FrameLog>,
    /// One past the highest seq in `log`.
    next_seq: u64,
    /// seq → reply memo for exactly-once retries.
    dedup: HashMap<u64, Reply>,
    /// Insertion order of `dedup` keys, for FIFO eviction at [`DEDUP_CAP`].
    dedup_order: VecDeque<u64>,
}

impl VersionReplica {
    /// A RAM-only replica with an empty log.
    pub fn new(block_size: u64) -> Self {
        Self {
            block_size,
            vm: Arc::new(VersionManager::new(
                block_size,
                Arc::new(EngineStats::new()),
            )),
            log: Vec::new(),
            disk: None,
            next_seq: 1,
            dedup: HashMap::new(),
            dedup_order: VecDeque::new(),
        }
    }

    /// Opens (or creates) the replica log at `path` and replays it into a
    /// fresh state machine for `block_size`. Fails with [`Error::Storage`]
    /// when the log was written under another block size or does not
    /// replay to what it recorded.
    pub fn open(path: &Path, block_size: u64) -> Result<Self> {
        let at = |why: String| Error::Storage(format!("{}: {why}", path.display()));
        let mut saw_header = false;
        let mut entries = Vec::new();
        let mut disk = FrameLog::open_with(path, |_, payload| {
            if !saw_header {
                let logged = u64::from_bytes(payload).map_err(|e| at(format!("header: {e}")))?;
                if logged != block_size {
                    return Err(at(format!(
                        "log was written with block size {logged}, deployment wants {block_size}"
                    )));
                }
                saw_header = true;
            } else {
                let entry = RepEntry::from_bytes(payload);
                entries.push(entry.map_err(|e| at(format!("undecodable entry: {e}")))?);
            }
            Ok(())
        })?;
        if !saw_header {
            // Fresh (or fully torn) log: stamp the header so a reopened
            // deployment can validate its block size against ours.
            disk.append(&block_size.to_bytes())?;
        }
        let mut replica = Self::new(block_size);
        replica.replay(&entries).map_err(|e| match e {
            Error::Storage(why) => at(why),
            e => e,
        })?;
        replica.disk = Some(disk);
        Ok(replica)
    }

    /// The state machine (clone the `Arc` to read with no lock held).
    pub fn vm(&self) -> &Arc<VersionManager> {
        &self.vm
    }

    /// The log this replica is the replay of.
    pub fn entries(&self) -> &[RepEntry] {
        &self.log
    }

    /// The term of the last entry (0 for an empty log).
    pub fn last_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }

    /// A seq no entry of this log carries yet.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Memoized replies held for retry deduplication.
    pub fn memo_len(&self) -> usize {
        self.dedup.len()
    }

    /// The leader step: a retried seq returns its memoized reply;
    /// otherwise the command is applied, then appended under `term` and
    /// memoized. Returns the reply, and the new entry when one was
    /// appended. A precondition failure is returned and never logged.
    pub fn submit(&mut self, term: u64, command: Command) -> Result<(Reply, Option<RepEntry>)> {
        if let Some(reply) = self.dedup.get(&command.seq) {
            return Ok((reply.clone(), None));
        }
        let reply = apply(&self.vm, command.kind)?;
        let entry = RepEntry {
            term,
            index: self.log.len() as u64,
            command,
            result: reply.recorded(),
        };
        self.append(entry, reply.clone())?;
        Ok((reply, Some(entry)))
    }

    /// The follower step: applies the leader's `entry`, checks it
    /// reproduces the recorded result, then appends and memoizes it.
    pub fn follow(&mut self, entry: RepEntry) -> Result<()> {
        if entry.index != self.log.len() as u64 {
            return Err(diverged(
                self.log.len() as u64,
                format_args!("entry records index {}", entry.index),
            ));
        }
        let reply = apply(&self.vm, entry.command.kind).map_err(|e| diverged(entry.index, e))?;
        if reply.recorded() != entry.result {
            return Err(diverged(
                entry.index,
                format_args!(
                    "{:?} handed out {}, log recorded {}",
                    entry.command.kind,
                    reply.recorded(),
                    entry.result
                ),
            ));
        }
        self.append(entry, reply)
    }

    /// Adopts `entries` as this replica's whole history: replays them
    /// into a fresh state machine, then rewrites the durable log to match
    /// — how a stale or divergent replica catches up.
    pub fn rebuild(&mut self, entries: &[RepEntry]) -> Result<()> {
        self.replay(entries)?;
        if let Some(disk) = &mut self.disk {
            disk.truncate_all()?;
            let header = self.block_size.to_bytes();
            let frames: Vec<Vec<u8>> = entries.iter().map(Wire::to_bytes).collect();
            disk.append_payloads(std::iter::once(&header).chain(&frames).map(Vec::as_slice))?;
            disk.sync()?;
        }
        Ok(())
    }

    /// Forces the durable log (if any) to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.disk.as_ref().map_or(Ok(()), FrameLog::sync)
    }

    /// Replays `entries` into a fresh state machine, regenerating the
    /// memo. The durable log is kept but not written.
    fn replay(&mut self, entries: &[RepEntry]) -> Result<()> {
        let disk = self.disk.take();
        *self = Self::new(self.block_size);
        let replayed = entries.iter().try_for_each(|e| self.follow(*e));
        self.disk = disk;
        replayed
    }

    /// Appends `entry` to the durable log (first, so a crash between the
    /// two loses an ack the caller never received rather than inventing
    /// one) and the in-memory one, and memoizes its reply.
    fn append(&mut self, entry: RepEntry, reply: Reply) -> Result<()> {
        if let Some(disk) = &mut self.disk {
            disk.append(&entry.to_bytes())?;
        }
        self.log.push(entry);
        let seq = entry.command.seq;
        self.next_seq = self.next_seq.max(seq + 1);
        if self.dedup.insert(seq, reply).is_none() {
            self.dedup_order.push_back(seq);
            if self.dedup_order.len() > DEDUP_CAP {
                if let Some(evicted) = self.dedup_order.pop_front() {
                    self.dedup.remove(&evicted);
                }
            }
        }
        Ok(())
    }
}

/// A [`VersionService`] whose state survives restart: one durable
/// [`VersionReplica`] served alone. Mutations apply and append under the
/// replica lock, so log order is execution order; reads clone the state
/// machine out and run with no lock held.
pub struct DurableVersionService {
    path: PathBuf,
    block_size: u64,
    replica: Mutex<VersionReplica>,
}

impl DurableVersionService {
    /// Opens (or creates) the replica log at `path` and replays it into
    /// a fresh [`VersionManager`] configured for `block_size`.
    ///
    /// Fails with [`Error::Storage`] when the log was written under a
    /// different block size or replays to different ids/versions than it
    /// recorded.
    pub fn open(path: impl Into<PathBuf>, block_size: u64) -> Result<Self> {
        let path = path.into();
        let replica = VersionReplica::open(&path, block_size)?;
        Ok(Self {
            path,
            block_size,
            replica: Mutex::named(replica, "disk.version_log.replica"),
        })
    }

    /// Simulates a restart in place: re-replays the log into a fresh
    /// manager. Pending (assigned-but-uncommitted) versions replay as
    /// pending again — commit order, not assignment order, decides what
    /// is revealed, exactly as before the restart. Like a real restart,
    /// it strands reveal waiters parked on the old manager until their
    /// timeout.
    pub fn reopen(&self) -> Result<()> {
        let mut replica = self.replica.lock();
        *replica = VersionReplica::open(&self.path, self.block_size)?;
        Ok(())
    }

    /// The replica-log file (crash tests truncate it at chosen offsets).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Forces logged operations to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.replica.lock().sync()
    }

    fn mutate(&self, kind: CommandKind) -> Result<Reply> {
        let mut replica = self.replica.lock();
        let seq = replica.next_seq();
        Ok(replica.submit(LONE_TERM, Command { seq, kind })?.0)
    }

    fn vm(&self) -> Arc<VersionManager> {
        Arc::clone(self.replica.lock().vm())
    }
}

impl VersionService for DurableVersionService {
    fn block_size(&self) -> u64 {
        self.block_size
    }

    fn create_blob(&self) -> Result<BlobId> {
        self.mutate(CommandKind::CreateBlob)?.blob()
    }

    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        self.mutate(CommandKind::Branch { parent, at })?.blob()
    }

    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        self.mutate(CommandKind::Assign { blob, intent })?.ticket()
    }

    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        self.mutate(CommandKind::Commit { blob, version })?.unit()
    }

    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        self.vm().latest(blob)
    }

    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        self.vm().snapshot_info(blob, version)
    }

    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        self.vm().chain(blob)
    }

    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        self.vm().wait_revealed(blob, version, timeout)
    }

    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.vm().pending_versions(blob)
    }

    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        self.mutate(CommandKind::DeleteBlob { blob })?.roots()
    }

    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        self.mutate(CommandKind::CollectBefore { blob, keep_from })?
            .roots()
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

    fn entry(term: u64, index: u64) -> RepEntry {
        RepEntry {
            term,
            index,
            command: Command {
                seq: 40 + index,
                kind: CommandKind::CreateBlob,
            },
            result: index + 1,
        }
    }

    #[test]
    fn commands_roundtrip() {
        let kinds = [
            CommandKind::CreateBlob,
            CommandKind::Branch {
                parent: BlobId::new(7),
                at: Version::new(3),
            },
            CommandKind::Assign {
                blob: BlobId::new(1),
                intent: WriteIntent::Write {
                    offset: 4096,
                    size: 128,
                },
            },
            CommandKind::Assign {
                blob: BlobId::new(2),
                intent: WriteIntent::Append { size: u64::MAX },
            },
            CommandKind::Commit {
                blob: BlobId::new(9),
                version: Version::new(12),
            },
            CommandKind::DeleteBlob {
                blob: BlobId::new(4),
            },
            CommandKind::CollectBefore {
                blob: BlobId::new(5),
                keep_from: Version::new(2),
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            let cmd = Command {
                seq: 1_000 + i as u64,
                kind,
            };
            assert_eq!(Command::from_bytes(&cmd.to_bytes()).unwrap(), cmd);
        }
    }

    #[test]
    fn malformed_bytes_error_instead_of_panicking() {
        // Unknown command tag.
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u8(99);
        assert!(Command::from_bytes(&w.into_vec()).is_err());

        // Unknown intent tag.
        let mut w = WireWriter::new();
        w.put_u64(1);
        w.put_u8(CMD_ASSIGN);
        w.put_u64(3);
        w.put_u8(42);
        assert!(Command::from_bytes(&w.into_vec()).is_err());

        // Every truncation of a valid encoding errors cleanly.
        let bytes = RepEntry {
            term: 2,
            index: 5,
            command: Command {
                seq: 21,
                kind: CommandKind::Assign {
                    blob: BlobId::new(3),
                    intent: WriteIntent::Write {
                        offset: 70_000,
                        size: 300,
                    },
                },
            },
            result: 6,
        }
        .to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                RepEntry::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} decoded"
            );
        }
    }

    #[test]
    fn entries_roundtrip() {
        let e = entry(3, 17);
        assert_eq!(RepEntry::from_bytes(&e.to_bytes()).unwrap(), e);
    }

    #[test]
    fn index_mismatch_is_rejected() {
        let mut replica = VersionReplica::new(64);
        let err = match replica.follow(entry(3, 17)) {
            Err(e) => e,
            Ok(()) => panic!("mis-stitched entry accepted"),
        };
        assert!(matches!(err, Error::Storage(_)), "{err}");
        assert!(err.to_string().contains("records index 17"), "{err}");
    }

    /// A frame whose checksum holds but whose entry carries trailing
    /// bytes was written by a broken writer: the open reports the storage
    /// fault, not a network one.
    #[test]
    fn trailing_bytes_are_rejected() {
        let tmp = TempDir::new("vm-trailing");
        let mut log = FrameLog::open(log_path(&tmp)).unwrap();
        let mut bytes = entry(1, 0).to_bytes();
        bytes.push(0xFF);
        log.append_payloads([&64u64.to_bytes()[..], &bytes[..]])
            .unwrap();
        drop(log);
        let err = match VersionReplica::open(&log_path(&tmp), 64) {
            Err(e) => e,
            Ok(_) => panic!("trailing bytes accepted"),
        };
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }

    #[test]
    fn followers_check_the_recorded_result() {
        let mut leader = VersionReplica::new(64);
        let create = Command {
            seq: 1,
            kind: CommandKind::CreateBlob,
        };
        let (_, logged) = leader.submit(1, create).unwrap();
        let mut forged = logged.unwrap();
        forged.result = 2;
        let err = VersionReplica::new(64).follow(forged).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
        let mut follower = VersionReplica::new(64);
        follower.follow(logged.unwrap()).unwrap();
        assert_eq!(follower.entries(), leader.entries());
    }

    #[test]
    fn the_memo_answers_retries_and_evicts_oldest_first() {
        let mut replica = VersionReplica::new(64);
        let create = |seq| Command {
            seq,
            kind: CommandKind::CreateBlob,
        };
        for seq in 1..=DEDUP_CAP as u64 + 1 {
            replica.submit(1, create(seq)).unwrap();
        }
        // A retry of a remembered seq re-executes nothing.
        let (reply, logged) = replica.submit(1, create(2)).unwrap();
        assert_eq!((reply.blob().unwrap(), logged), (BlobId::new(2), None));
        // Seq 1 was evicted first, so its retry executes again.
        assert!(replica.submit(1, create(1)).unwrap().1.is_some());
        assert_eq!(replica.dedup.len(), DEDUP_CAP);
        assert_eq!(replica.dedup.len(), replica.dedup_order.len());
    }
}
