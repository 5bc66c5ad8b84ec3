//! A leader-based replicated [`VersionService`]: the version manager —
//! the protocol's single serialization point and, until this crate, its
//! single point of failure — run as a group of in-process replicas that
//! survives leader crashes mid-append-storm with no lost or duplicated
//! version numbers.
//!
//! ## Why replication is cheap here
//!
//! The version manager is a deterministic state machine over a small
//! command alphabet (the six mutating calls of the port, [`CommandKind`]):
//! its state is a pure function of the sequence of successful mutations,
//! and ids/versions are handed out sequentially, so replaying one log
//! against a fresh manager reproduces the *identical* state — the same
//! property `blobseer-disk`'s durable wrapper exploits for persistence is
//! what makes replicas byte-for-byte equivalent.
//!
//! ## Protocol
//!
//! One mutation = one **round**: the leader deduplicates the submission
//! (seq → memoized reply), applies the command to its own state machine
//! (a precondition failure is returned to the caller and never logged),
//! appends a term/index-stamped [`RepEntry`] to its log, then replicates
//! the entry to every live follower, which appends and applies it too.
//! The round runs with every live replica locked, so an acknowledged
//! mutation is on **all** live replicas — a superset of the majority the
//! quorum check guarantees — and any survivor can lead without data loss.
//!
//! Elections are deterministic: the live replica with the highest
//! `(last log term, log length, id)` wins, the same ordering recovery
//! uses to pick the reference log, so a mid-storm failover and a restart
//! agree about which history survives. Retried submissions are made
//! exactly-once by the dedup memo: a leader that crashed *before*
//! replicating never contaminated the survivors (the retry re-executes on
//! the new leader, whose state is still pre-command), and one that
//! crashed *after* left the memo on every follower (the retry returns the
//! cached reply without re-executing). [`CrashPoint`] injects exactly
//! those two failures.
//!
//! Reads go to the leader's state machine under a countdown **lease**:
//! while the lease has reads left the cached leader is trusted without a
//! group-wide membership check; every round and every re-validation
//! renews it. Reveal waits ([`VersionService::wait_revealed`]) park on
//! the leader's own condvar in short slices, re-resolving the leader
//! between slices, so a kill mid-wait strands the waiter for at most one
//! slice — and no `ctl.*` lock is ever held while parked.
//!
//! ## Lock order
//!
//! `ctl.group` → `ctl.replica` ranks ascending (replica `i` has rank
//! `i`). Every multi-replica operation locks the group first, then the
//! replicas it needs in ascending index order; nothing ever takes the
//! group lock while holding a replica lock.

use crate::codec::{Command, CommandKind};
use crate::replog::{decode_entry, encode_entry, RepEntry};
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::LogChain;
use blobseer_core::ports::VersionService;
use blobseer_core::version_manager::{SnapshotInfo, VersionManager, WriteIntent, WriteTicket};
use blobseer_core::EngineStats;
use blobseer_disk::FrameLog;
use blobseer_types::{BlobId, Error, Result, Version};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry budget for one submission across leader failures.
const MAX_ROUNDS: usize = 8;

/// Reads served off the cached leader before it is re-validated against
/// the live set.
const LEASE_READS: u32 = 64;

/// Memoized replies kept per replica for retry deduplication (FIFO).
const DEDUP_CAP: usize = 1024;

/// Reveal-wait poll slice: how long a waiter parks on one leader's
/// condvar before re-resolving leadership.
const WAIT_SLICE: Duration = Duration::from_millis(10);

/// The stable client id this service stamps on its commands. The log
/// format is multi-client; one hosted service instance is one client.
const CLIENT_ID: u64 = 1;

const CRASH_NONE: u8 = 0;
const CRASH_BEFORE: u8 = 1;
const CRASH_AFTER: u8 = 2;

/// Where the next submission kills the leader — fault injection for
/// failover tests. One-shot: the crash consumes the setting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// After the leader applied and logged locally but before any
    /// follower saw the entry. The retry must *re-execute* on the new
    /// leader (whose state is still pre-command) — exactly-once by
    /// containment.
    BeforeReplicate,
    /// After every follower acknowledged. The retry must hit the dedup
    /// memo and *not* re-execute — exactly-once by memoization.
    AfterReplicate,
}

/// The memoized result of one applied command. Followers regenerate the
/// same reply by applying the same command to the same state, which is
/// what lets any of them answer a retry after the leader dies.
#[derive(Clone)]
enum Reply {
    Blob(BlobId),
    Ticket(WriteTicket),
    Unit,
    Roots(Vec<NodeKey>),
}

fn shape_err(want: &str) -> Error {
    Error::Internal(format!("replicated reply is not a {want}"))
}

impl Reply {
    fn blob(self) -> Result<BlobId> {
        match self {
            Reply::Blob(b) => Ok(b),
            _ => Err(shape_err("blob id")),
        }
    }

    fn ticket(self) -> Result<WriteTicket> {
        match self {
            Reply::Ticket(t) => Ok(t),
            _ => Err(shape_err("write ticket")),
        }
    }

    fn unit(self) -> Result<()> {
        match self {
            Reply::Unit => Ok(()),
            _ => Err(shape_err("unit")),
        }
    }

    fn roots(self) -> Result<Vec<NodeKey>> {
        match self {
            Reply::Roots(r) => Ok(r),
            _ => Err(shape_err("root-key list")),
        }
    }
}

/// Applies one command to a replica's state machine. The manager is
/// deterministic, so every replica applying the same log computes the
/// same replies and the same state.
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

/// One replica's guarded state: the state machine, the log it replays,
/// and the dedup memo.
struct ReplicaState {
    /// The state machine. `Arc` so readers can use it with no `ctl.*`
    /// lock held (reveal waits park on the manager's own condvar).
    vm: Arc<VersionManager>,
    /// The replicated log this state machine is the replay of.
    log: Vec<RepEntry>,
    /// Durable form of `log` (durable deployments only), in the same
    /// checksummed frame format as every other `blobseer-disk` log.
    disk: Option<FrameLog>,
    /// seq → reply memo for exactly-once retries.
    dedup: HashMap<u64, Reply>,
    /// Insertion order of `dedup` keys, for FIFO eviction at [`DEDUP_CAP`].
    dedup_order: VecDeque<u64>,
}

impl ReplicaState {
    fn fresh(block_size: u64) -> Self {
        Self {
            vm: Arc::new(VersionManager::new(
                block_size,
                Arc::new(EngineStats::new()),
            )),
            log: Vec::new(),
            disk: None,
            dedup: HashMap::new(),
            dedup_order: VecDeque::new(),
        }
    }

    fn last_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }

    fn remember(&mut self, seq: u64, reply: Reply) {
        if self.dedup.insert(seq, reply).is_none() {
            self.dedup_order.push_back(seq);
            if self.dedup_order.len() > DEDUP_CAP {
                if let Some(evicted) = self.dedup_order.pop_front() {
                    self.dedup.remove(&evicted);
                }
            }
        }
    }

    /// Appends `entry` to the in-memory log and, when durable, the disk
    /// log (disk first, so a crash between the two loses an ack the
    /// caller never received rather than inventing one).
    fn append(&mut self, entry: RepEntry) -> Result<()> {
        if let Some(disk) = &mut self.disk {
            disk.append(&encode_entry(&entry))?;
        }
        self.log.push(entry);
        Ok(())
    }

    /// Replays `entries` into a fresh state machine, regenerating the
    /// dedup memo. The disk handle is kept but not rewritten.
    fn replay(&mut self, block_size: u64, entries: &[RepEntry]) -> Result<()> {
        self.vm = Arc::new(VersionManager::new(
            block_size,
            Arc::new(EngineStats::new()),
        ));
        self.log = Vec::new();
        self.dedup.clear();
        self.dedup_order.clear();
        for e in entries {
            let reply = apply(&self.vm, e.command.kind).map_err(|err| {
                Error::Internal(format!(
                    "replicated log replay diverged at index {}: {err}",
                    e.index
                ))
            })?;
            self.remember(e.command.seq, reply);
            self.log.push(*e);
        }
        Ok(())
    }

    /// [`ReplicaState::replay`] plus rewriting the durable log to match —
    /// how a divergent or stale replica adopts the reference history.
    fn rebuild(&mut self, block_size: u64, entries: &[RepEntry]) -> Result<()> {
        self.replay(block_size, entries)?;
        if let Some(disk) = &mut self.disk {
            disk.truncate_all()?;
            let frames: Vec<Vec<u8>> = entries.iter().map(encode_entry).collect();
            disk.append_payloads(frames.iter().map(Vec::as_slice))?;
            disk.sync()?;
        }
        Ok(())
    }
}

struct Replica {
    /// Rank = replica index: multi-replica operations lock ascending.
    state: Mutex<ReplicaState>,
    /// Flipped by [`ReplicatedVersionService::kill`]/`revive` (and the
    /// crash points); always written under the group lock, so rounds are
    /// serialized against kills.
    alive: AtomicBool,
}

/// Group-wide election state, guarded by the `ctl.group` lock.
struct Group {
    /// Election term; bumps on every leader change, stamps every entry.
    term: u64,
    /// The current leader's replica index, once one has been elected.
    leader: Option<usize>,
    /// Reads left on the leader lease before the fast path re-validates.
    lease_left: u32,
}

/// A [`VersionService`] served by a leader-based replica group: `n`
/// in-process [`VersionManager`] replicas, majority quorum, deterministic
/// re-election, and exactly-once retries across leader crashes.
///
/// With `n = 1` the group degenerates to a slightly indirected single
/// version manager — the figure-reproduction setting. Durable groups
/// ([`ReplicatedVersionService::open`]) persist one checksummed frame log
/// per replica and reconcile divergent logs on reopen.
pub struct ReplicatedVersionService {
    block_size: u64,
    replicas: Vec<Replica>,
    group: Mutex<Group>,
    next_seq: AtomicU64,
    crash_point: AtomicU8,
}

impl fmt::Debug for ReplicatedVersionService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // No locks here: Debug may run while a `ctl.*` lock is held.
        f.debug_struct("ReplicatedVersionService")
            .field("replicas", &self.replicas.len())
            .field("block_size", &self.block_size)
            .finish_non_exhaustive()
    }
}

fn quorum_err(alive: usize, total: usize, need: usize) -> Error {
    Error::Transport(format!(
        "version-manager group lost quorum: {alive} of {total} replicas alive, need {need}"
    ))
}

impl ReplicatedVersionService {
    /// A RAM-backed group of `replicas` state machines for BLOBs striped
    /// into `block_size`-byte blocks.
    pub fn new(replicas: usize, block_size: u64) -> Arc<Self> {
        assert!(replicas >= 1, "a group needs at least one replica");
        Arc::new(Self {
            block_size,
            replicas: (0..replicas)
                .map(|i| Replica {
                    state: Mutex::ranked(ReplicaState::fresh(block_size), "ctl.replica", i as u32),
                    alive: AtomicBool::new(true),
                })
                .collect(),
            group: Mutex::named(
                Group {
                    term: 0,
                    leader: None,
                    lease_left: 0,
                },
                "ctl.group",
            ),
            next_seq: AtomicU64::new(1),
            crash_point: AtomicU8::new(CRASH_NONE),
        })
    }

    /// Opens (or creates) a durable group persisting one frame log per
    /// replica under `dir` (`vm-replica-{i}.log`).
    ///
    /// Recovery picks the **reference** log by the election ordering —
    /// highest `(last term, length, id)` — and rebuilds every replica
    /// whose log differs (a leader that crashed before replicating an
    /// entry reopens with that unacknowledged entry discarded, because
    /// the survivors' re-executed history carries a higher term).
    pub fn open(dir: impl Into<PathBuf>, replicas: usize, block_size: u64) -> Result<Arc<Self>> {
        assert!(replicas >= 1, "a group needs at least one replica");
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| {
            Error::Storage(format!("{}: create replica-log dir: {e}", dir.display()))
        })?;
        let mut loaded = Vec::with_capacity(replicas);
        for i in 0..replicas {
            let path = dir.join(format!("vm-replica-{i}.log"));
            let mut entries: Vec<RepEntry> = Vec::new();
            let log = FrameLog::open_with(&path, |_, payload| {
                let e = decode_entry(payload, entries.len() as u64)?;
                entries.push(e);
                Ok(())
            })?;
            loaded.push((entries, log));
        }
        let reference = (0..loaded.len())
            .max_by_key(|&i| {
                let entries = &loaded[i].0;
                (entries.last().map_or(0, |e| e.term), entries.len(), i)
            })
            .ok_or_else(|| Error::Internal("empty replica group".into()))?;
        let ref_entries = loaded[reference].0.clone();
        let term = ref_entries.last().map_or(0, |e| e.term);
        let next_seq = ref_entries.iter().map(|e| e.command.seq).max().unwrap_or(0) + 1;
        let mut built = Vec::with_capacity(replicas);
        for (entries, log) in loaded {
            let mut state = ReplicaState::fresh(block_size);
            state.disk = Some(log);
            if entries == ref_entries {
                state.replay(block_size, &ref_entries)?;
            } else {
                state.rebuild(block_size, &ref_entries)?;
            }
            built.push(state);
        }
        Ok(Arc::new(Self {
            block_size,
            replicas: built
                .into_iter()
                .enumerate()
                .map(|(i, state)| Replica {
                    state: Mutex::ranked(state, "ctl.replica", i as u32),
                    alive: AtomicBool::new(true),
                })
                .collect(),
            group: Mutex::named(
                Group {
                    term,
                    leader: None,
                    lease_left: 0,
                },
                "ctl.group",
            ),
            next_seq: AtomicU64::new(next_seq),
            crash_point: AtomicU8::new(CRASH_NONE),
        }))
    }

    /// Number of replicas in the group (alive or not).
    pub fn replica_count(&self) -> usize {
        self.replicas.len()
    }

    /// Majority of the **total** group — dead replicas still count toward
    /// the denominator, exactly like a real deployment's quorum.
    fn quorum(&self) -> usize {
        self.replicas.len() / 2 + 1
    }

    /// Live replicas right now (atomic flags; no locks).
    fn live_count(&self) -> usize {
        self.replicas
            .iter()
            .filter(|r| r.alive.load(Ordering::SeqCst))
            .count()
    }

    /// The current leader's index, if one is elected (may be stale the
    /// moment it returns; diagnostics and tests only).
    pub fn leader(&self) -> Option<usize> {
        self.group.lock().leader
    }

    /// The current election term.
    pub fn term(&self) -> u64 {
        self.group.lock().term
    }

    /// Whether replica `i` is alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.replicas[i].alive.load(Ordering::SeqCst)
    }

    /// Length of replica `i`'s log (tests assert group convergence).
    pub fn log_len(&self, i: usize) -> usize {
        self.replicas[i].state.lock().log.len()
    }

    /// Arms the one-shot leader crash for the next submission.
    pub fn set_crash_point(&self, point: CrashPoint) {
        let tag = match point {
            CrashPoint::BeforeReplicate => CRASH_BEFORE,
            CrashPoint::AfterReplicate => CRASH_AFTER,
        };
        self.crash_point.store(tag, Ordering::SeqCst);
    }

    fn take_crash(&self, tag: u8) -> bool {
        self.crash_point
            .compare_exchange(tag, CRASH_NONE, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok()
    }

    /// Kills replica `i`: it stops acknowledging rounds and, if it was
    /// the leader, the next operation re-elects.
    pub fn kill(&self, i: usize) {
        let mut group = self.group.lock();
        self.replicas[i].alive.store(false, Ordering::SeqCst);
        if group.leader == Some(i) {
            group.leader = None;
            group.lease_left = 0;
        }
    }

    /// Kills the current leader, returning its index (`None` when no
    /// leader has been elected yet).
    pub fn kill_leader(&self) -> Option<usize> {
        let mut group = self.group.lock();
        let leader = group.leader.take()?;
        self.replicas[leader].alive.store(false, Ordering::SeqCst);
        group.lease_left = 0;
        Some(leader)
    }

    /// Brings a killed replica back: its state is rebuilt from the
    /// current leader's log (the only history that may have acknowledged
    /// writes), then it rejoins the live set.
    pub fn revive(&self, i: usize) -> Result<()> {
        let mut group = self.group.lock();
        if self.replicas[i].alive.load(Ordering::SeqCst) {
            return Ok(());
        }
        // Lock *all* replicas ascending — dead ones included — so the
        // `ctl.replica` rank discipline holds no matter where `i` sits.
        let mut guards: Vec<MutexGuard<'_, ReplicaState>> =
            self.replicas.iter().map(|r| r.state.lock()).collect();
        let leader = match group.leader {
            Some(l) => l,
            None => {
                let winner = guards
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i && self.replicas[j].alive.load(Ordering::SeqCst))
                    .max_by_key(|&(j, g)| (g.last_term(), g.log.len(), j))
                    .map(|(j, _)| j)
                    .ok_or_else(|| Error::Transport("no live replica to revive from".into()))?;
                group.term += 1;
                group.leader = Some(winner);
                group.lease_left = LEASE_READS;
                winner
            }
        };
        let entries = guards[leader].log.clone();
        guards[i].rebuild(self.block_size, &entries)?;
        self.replicas[i].alive.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Forces every live replica's durable log to stable storage.
    pub fn sync(&self) -> Result<()> {
        let _group = self.group.lock();
        for r in &self.replicas {
            if r.alive.load(Ordering::SeqCst) {
                if let Some(disk) = &r.state.lock().disk {
                    disk.sync()?;
                }
            }
        }
        Ok(())
    }

    /// Locks every live replica in ascending index order. Caller holds
    /// the group lock.
    fn lock_alive(&self) -> Vec<(usize, MutexGuard<'_, ReplicaState>)> {
        self.replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| r.alive.load(Ordering::SeqCst))
            .map(|(i, r)| (i, r.state.lock()))
            .collect()
    }

    /// With the group lock and live guards held: the leader's position in
    /// `guards`, electing one (term bump, fresh lease) if the recorded
    /// leader is dead or absent.
    fn leader_pos(
        &self,
        group: &mut Group,
        guards: &[(usize, MutexGuard<'_, ReplicaState>)],
    ) -> Result<usize> {
        let pos_of = |l: usize| guards.iter().position(|&(i, _)| i == l);
        if let Some(l) = group.leader {
            if let Some(pos) = pos_of(l) {
                return Ok(pos);
            }
        }
        let winner = guards
            .iter()
            .max_by_key(|&&(i, ref g)| (g.last_term(), g.log.len(), i))
            .map(|&(i, _)| i)
            .ok_or_else(|| quorum_err(0, self.replicas.len(), self.quorum()))?;
        group.term += 1;
        group.leader = Some(winner);
        group.lease_left = LEASE_READS;
        pos_of(winner).ok_or_else(|| Error::Internal("elected leader not among guards".into()))
    }

    /// Marks the leader dead mid-round (crash injection): the caller's
    /// retry will re-elect.
    fn crash(&self, group: &mut Group, leader: usize) {
        self.replicas[leader].alive.store(false, Ordering::SeqCst);
        group.leader = None;
        group.lease_left = 0;
    }

    /// One replication round. `Ok(None)` means the leader died mid-round
    /// and the submission should retry.
    fn round(&self, command: Command) -> Result<Option<Reply>> {
        let mut group = self.group.lock();
        let mut guards = self.lock_alive();
        if guards.len() < self.quorum() {
            return Err(quorum_err(guards.len(), self.replicas.len(), self.quorum()));
        }
        let leader_pos = self.leader_pos(&mut group, &guards)?;
        let leader_idx = guards[leader_pos].0;
        // Exactly-once: a retried seq returns its memoized reply.
        if let Some(reply) = guards[leader_pos].1.dedup.get(&command.seq) {
            let reply = reply.clone();
            group.lease_left = LEASE_READS;
            return Ok(Some(reply));
        }
        // Apply on the leader. A precondition failure is returned to the
        // caller and never logged or replicated, so replay stays valid.
        let reply = apply(&guards[leader_pos].1.vm, command.kind)?;
        let entry = RepEntry {
            term: group.term,
            index: guards[leader_pos].1.log.len() as u64,
            command,
        };
        guards[leader_pos].1.append(entry)?;
        guards[leader_pos].1.remember(command.seq, reply.clone());
        if self.take_crash(CRASH_BEFORE) {
            drop(guards);
            self.crash(&mut group, leader_idx);
            return Ok(None);
        }
        // Replicate: every live follower appends and applies. All of them
        // are locked, so an acknowledged entry is on a superset of the
        // quorum majority.
        for (pos, (idx, state)) in guards.iter_mut().enumerate() {
            if pos == leader_pos {
                continue;
            }
            state.append(entry)?;
            let follower_reply = apply(&state.vm, command.kind).map_err(|e| {
                Error::Internal(format!(
                    "replica {idx} diverged applying replicated index {}: {e}",
                    entry.index
                ))
            })?;
            state.remember(command.seq, follower_reply);
        }
        if self.take_crash(CRASH_AFTER) {
            drop(guards);
            self.crash(&mut group, leader_idx);
            return Ok(None);
        }
        group.lease_left = LEASE_READS;
        Ok(Some(reply))
    }

    /// Submits one mutation, retrying across leader failures. The seq is
    /// fixed once, so retries deduplicate.
    fn submit(&self, kind: CommandKind) -> Result<Reply> {
        let command = Command {
            client_id: CLIENT_ID,
            seq: self.next_seq.fetch_add(1, Ordering::Relaxed),
            kind,
        };
        for _ in 0..MAX_ROUNDS {
            if let Some(reply) = self.round(command)? {
                return Ok(reply);
            }
        }
        Err(Error::Transport(format!(
            "version-manager leadership failed {MAX_ROUNDS} times for one submission"
        )))
    }

    /// The leader's state machine for read-only calls. Fast path: while
    /// the lease has reads left, the cached leader is trusted with a
    /// single replica lock; otherwise the live set is re-validated (and a
    /// leader elected if needed).
    fn leader_vm(&self) -> Result<Arc<VersionManager>> {
        let mut group = self.group.lock();
        if let Some(l) = group.leader {
            // The lease is only honored while a majority is live — a
            // leader cut off from its quorum must not keep serving reads.
            if group.lease_left > 0
                && self.replicas[l].alive.load(Ordering::SeqCst)
                && self.live_count() >= self.quorum()
            {
                group.lease_left -= 1;
                return Ok(Arc::clone(&self.replicas[l].state.lock().vm));
            }
        }
        let guards = self.lock_alive();
        if guards.len() < self.quorum() {
            return Err(quorum_err(guards.len(), self.replicas.len(), self.quorum()));
        }
        let pos = self.leader_pos(&mut group, &guards)?;
        group.lease_left = LEASE_READS;
        Ok(Arc::clone(&guards[pos].1.vm))
    }
}

impl VersionService for ReplicatedVersionService {
    fn block_size(&self) -> u64 {
        self.block_size
    }

    fn create_blob(&self) -> Result<BlobId> {
        self.submit(CommandKind::CreateBlob)?.blob()
    }

    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        self.submit(CommandKind::Branch { parent, at })?.blob()
    }

    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        self.submit(CommandKind::Assign { blob, intent })?.ticket()
    }

    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        self.submit(CommandKind::Commit { blob, version })?.unit()
    }

    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        self.leader_vm()?.latest(blob)
    }

    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        self.leader_vm()?.snapshot_info(blob, version)
    }

    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        self.leader_vm()?.chain(blob)
    }

    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        // Park on the leader's condvar in short slices, re-resolving
        // leadership between slices: a leader kill mid-wait strands the
        // waiter for at most one slice. No `ctl.*` lock is held while
        // parked (`leader_vm` clones the Arc out).
        let deadline = Instant::now() + timeout;
        loop {
            let vm = self.leader_vm()?;
            let left = deadline.saturating_duration_since(Instant::now());
            match vm.wait_revealed(blob, version, left.min(WAIT_SLICE)) {
                Err(Error::Timeout(_)) if Instant::now() < deadline => {}
                other => return other,
            }
        }
    }

    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        self.leader_vm()?.pending_versions(blob)
    }

    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        self.submit(CommandKind::DeleteBlob { blob })?.roots()
    }

    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        self.submit(CommandKind::CollectBefore { blob, keep_from })?
            .roots()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_disk::testutil::TempDir;

    fn group3() -> Arc<ReplicatedVersionService> {
        ReplicatedVersionService::new(3, 64)
    }

    #[test]
    fn single_replica_group_behaves_like_a_version_manager() {
        let g = ReplicatedVersionService::new(1, 64);
        let b = g.create_blob().unwrap();
        let t = g.assign(b, WriteIntent::Append { size: 100 }).unwrap();
        g.commit(b, t.version).unwrap();
        assert_eq!(g.latest(b).unwrap(), (Version::new(1), 100));
        assert_eq!(g.block_size(), 64);
    }

    #[test]
    fn every_replica_holds_the_same_log() {
        let g = group3();
        let b = g.create_blob().unwrap();
        for _ in 0..5 {
            let t = g.assign(b, WriteIntent::Append { size: 64 }).unwrap();
            g.commit(b, t.version).unwrap();
        }
        // 1 create + 5 * (assign + commit) = 11 entries, on all three.
        for i in 0..3 {
            assert_eq!(g.log_len(i), 11, "replica {i}");
        }
    }

    #[test]
    fn election_is_deterministic_highest_id_wins_on_equal_logs() {
        let g = group3();
        let _ = g.create_blob().unwrap();
        assert_eq!(g.leader(), Some(2), "equal logs: highest id");
        let term = g.term();
        g.kill(2);
        let _ = g.create_blob().unwrap();
        assert_eq!(g.leader(), Some(1), "next-highest live id");
        assert_eq!(g.term(), term + 1, "failover bumps the term");
    }

    #[test]
    fn leader_crash_before_replicate_reexecutes_exactly_once() {
        let g = group3();
        let b = g.create_blob().unwrap();
        let old = g.leader().unwrap();
        g.set_crash_point(CrashPoint::BeforeReplicate);
        let t = g.assign(b, WriteIntent::Append { size: 10 }).unwrap();
        assert_eq!(
            t.version,
            Version::new(1),
            "re-executed once on the new leader"
        );
        assert!(!g.is_alive(old));
        assert_ne!(g.leader().unwrap(), old);
        g.commit(b, t.version).unwrap();
        assert_eq!(g.latest(b).unwrap(), (Version::new(1), 10));
        // The sequence continues with no gap.
        let t2 = g.assign(b, WriteIntent::Append { size: 10 }).unwrap();
        assert_eq!(t2.version, Version::new(2));
    }

    #[test]
    fn leader_crash_after_replicate_hits_the_dedup_memo() {
        let g = group3();
        let b = g.create_blob().unwrap();
        let old = g.leader().unwrap();
        g.set_crash_point(CrashPoint::AfterReplicate);
        let t = g.assign(b, WriteIntent::Append { size: 10 }).unwrap();
        assert_eq!(
            t.version,
            Version::new(1),
            "memoized reply, not a re-execution"
        );
        assert!(!g.is_alive(old));
        g.commit(b, t.version).unwrap();
        let t2 = g.assign(b, WriteIntent::Append { size: 10 }).unwrap();
        assert_eq!(t2.version, Version::new(2), "no duplicated version number");
        assert_eq!(g.latest(b).unwrap(), (Version::new(1), 10));
    }

    #[test]
    fn losing_quorum_fails_loudly() {
        let g = group3();
        let b = g.create_blob().unwrap();
        g.kill(0);
        g.kill(1);
        assert!(matches!(g.create_blob(), Err(Error::Transport(_))));
        assert!(matches!(g.latest(b), Err(Error::Transport(_))));
    }

    #[test]
    fn revived_replica_catches_up_from_the_leader() {
        let g = group3();
        let b = g.create_blob().unwrap();
        let dead = g.kill_leader().unwrap();
        for _ in 0..3 {
            let t = g.assign(b, WriteIntent::Append { size: 64 }).unwrap();
            g.commit(b, t.version).unwrap();
        }
        assert!(g.log_len(dead) < g.log_len(g.leader().unwrap()));
        g.revive(dead).unwrap();
        assert!(g.is_alive(dead));
        assert_eq!(g.log_len(dead), g.log_len(g.leader().unwrap()));
        // The revived replica can serve after the others die.
        for i in 0..3 {
            if i != dead {
                g.kill(i);
            }
        }
        // 1 of 3 is below quorum — revive one more to restore service.
        assert!(matches!(g.latest(b), Err(Error::Transport(_))));
        let other = (0..3).find(|&i| i != dead).unwrap();
        g.revive(other).unwrap();
        assert_eq!(g.latest(b).unwrap(), (Version::new(3), 192));
    }

    #[test]
    fn reads_outlive_the_lease() {
        let g = group3();
        let b = g.create_blob().unwrap();
        for _ in 0..(LEASE_READS * 2 + 3) {
            g.latest(b).unwrap();
        }
    }

    #[test]
    fn dedup_memo_is_fifo_capped() {
        let g = ReplicatedVersionService::new(1, 64);
        let b = g.create_blob().unwrap();
        for _ in 0..DEDUP_CAP / 2 + 10 {
            let t = g.assign(b, WriteIntent::Append { size: 1 }).unwrap();
            g.commit(b, t.version).unwrap();
        }
        let state = g.replicas[0].state.lock();
        assert!(state.dedup.len() <= DEDUP_CAP);
        assert_eq!(state.dedup.len(), state.dedup_order.len());
    }

    #[test]
    fn precondition_failures_are_not_replicated() {
        let g = group3();
        let b = g.create_blob().unwrap();
        let before = g.log_len(0);
        assert!(g.assign(b, WriteIntent::Append { size: 0 }).is_err());
        assert!(g.branch(BlobId::new(99), Version::new(1)).is_err());
        for i in 0..3 {
            assert_eq!(g.log_len(i), before, "failed calls never enter the log");
        }
    }

    #[test]
    fn durable_group_recovers_from_disk() {
        let tmp = TempDir::new("ctl-recover");
        let dir = tmp.path().join("replog");
        let b;
        {
            let g = ReplicatedVersionService::open(&dir, 3, 64).unwrap();
            b = g.create_blob().unwrap();
            let t = g.assign(b, WriteIntent::Append { size: 64 }).unwrap();
            g.commit(b, t.version).unwrap();
            g.sync().unwrap();
        }
        let g = ReplicatedVersionService::open(&dir, 3, 64).unwrap();
        assert_eq!(g.latest(b).unwrap(), (Version::new(1), 64));
        // Writes resume, and the recovered seq counter keeps dedup sound.
        let t = g.assign(b, WriteIntent::Append { size: 64 }).unwrap();
        g.commit(b, t.version).unwrap();
        assert_eq!(g.latest(b).unwrap(), (Version::new(2), 128));
    }

    #[test]
    fn reopen_reconciles_a_diverged_crashed_leader() {
        let tmp = TempDir::new("ctl-reconcile");
        let dir = tmp.path().join("replog");
        let b;
        {
            let g = ReplicatedVersionService::open(&dir, 3, 64).unwrap();
            b = g.create_blob().unwrap();
            // The leader logs the entry, crashes before replicating; the
            // retry re-executes under a higher term on the new leader.
            // The dead leader's disk now holds a divergent entry.
            g.set_crash_point(CrashPoint::BeforeReplicate);
            let t = g.assign(b, WriteIntent::Append { size: 64 }).unwrap();
            g.commit(b, t.version).unwrap();
            g.sync().unwrap();
        }
        let g = ReplicatedVersionService::open(&dir, 3, 64).unwrap();
        // The survivors' higher-term history wins; the group converges.
        assert_eq!(g.latest(b).unwrap(), (Version::new(1), 64));
        for i in 0..3 {
            assert_eq!(g.log_len(i), 3, "replica {i} reconciled");
        }
        let t = g.assign(b, WriteIntent::Append { size: 64 }).unwrap();
        assert_eq!(
            t.version,
            Version::new(2),
            "no duplicate from the stale log"
        );
    }

    #[test]
    fn failover_storm_yields_gap_free_versions() {
        let g = group3();
        let b = g.create_blob().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let killer = {
            let g = Arc::clone(&g);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if let Some(dead) = g.kill_leader() {
                        std::thread::sleep(Duration::from_millis(1));
                        g.revive(dead).unwrap();
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        let writers: Vec<_> = (0..8)
            .map(|_| {
                let g = Arc::clone(&g);
                std::thread::spawn(move || {
                    let mut versions = Vec::new();
                    for _ in 0..25 {
                        let t = g.assign(b, WriteIntent::Append { size: 64 }).unwrap();
                        g.commit(b, t.version).unwrap();
                        versions.push(t.version.raw());
                    }
                    versions
                })
            })
            .collect();
        let mut all: Vec<u64> = writers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        stop.store(true, Ordering::SeqCst);
        killer.join().unwrap();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=200).collect();
        assert_eq!(all, expect, "version sequence has gaps or duplicates");
        g.wait_revealed(b, Version::new(200), Duration::from_secs(10))
            .unwrap();
        assert_eq!(g.latest(b).unwrap(), (Version::new(200), 200 * 64));
        // And the whole group converged on one log.
        let len = g.log_len(0);
        for i in 1..3 {
            assert_eq!(g.log_len(i), len, "replica {i} diverged");
        }
    }
}
