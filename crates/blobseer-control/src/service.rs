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
//! against a fresh manager reproduces the *identical* state. That is how
//! `blobseer-disk` persists the version manager, and a member of this
//! group is exactly that persisted form, a [`VersionReplica`]: its entry
//! format, replay, result check and dedup memo are the disk crate's. This
//! module adds only what a group needs — election, the lease, crash
//! injection and reconciliation on open.
//!
//! ## Protocol
//!
//! One mutation = one **round**: the leader deduplicates the submission
//! (seq → memoized reply), applies the command to its own state machine
//! (a precondition failure is returned to the caller and never logged),
//! appends a term/index-stamped [`RepEntry`](blobseer_disk::RepEntry)
//! recording the result to its log, then replicates the entry to every
//! live follower, which applies it, checks it hands out the recorded
//! result, and appends it too.
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

use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::LogChain;
use blobseer_core::ports::VersionService;
use blobseer_core::version_manager::{SnapshotInfo, VersionManager, WriteIntent, WriteTicket};
use blobseer_disk::{Command, CommandKind, Reply, VersionReplica};
use blobseer_types::{BlobId, Error, Result, Version};
use parking_lot::{Mutex, MutexGuard};
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

/// Reveal-wait poll slice: how long a waiter parks on one leader's
/// condvar before re-resolving leadership.
const WAIT_SLICE: Duration = Duration::from_millis(10);

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

struct Replica {
    /// Rank = replica index: multi-replica operations lock ascending.
    state: Mutex<VersionReplica>,
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
/// version manager. Durable groups ([`ReplicatedVersionService::open`])
/// persist one replica log per member and reconcile divergent logs on
/// reopen.
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

/// The election ordering: highest `(last log term, log length, id)` wins.
fn rank(i: usize, replica: &VersionReplica) -> (u64, usize, usize) {
    (replica.last_term(), replica.entries().len(), i)
}

impl ReplicatedVersionService {
    /// A RAM-backed group of `replicas` state machines for BLOBs striped
    /// into `block_size`-byte blocks.
    pub fn new(replicas: usize, block_size: u64) -> Arc<Self> {
        assert!(replicas >= 1, "a group needs at least one replica");
        let members = (0..replicas).map(|_| VersionReplica::new(block_size));
        Self::from_members(members.collect(), block_size)
    }

    /// Opens (or creates) a durable group persisting one replica log per
    /// member under `dir` (`vm-replica-{i}.log`).
    ///
    /// Recovery picks the **reference** log by the election ordering and
    /// rebuilds every replica whose log differs (a leader that crashed
    /// before replicating an entry reopens with that unacknowledged entry
    /// discarded, because the survivors' re-executed history carries a
    /// higher term).
    pub fn open(dir: impl Into<PathBuf>, replicas: usize, block_size: u64) -> Result<Arc<Self>> {
        assert!(replicas >= 1, "a group needs at least one replica");
        let dir = dir.into();
        let mut members = (0..replicas)
            .map(|i| VersionReplica::open(&dir.join(format!("vm-replica-{i}.log")), block_size))
            .collect::<Result<Vec<_>>>()?;
        let history = (members.iter().enumerate())
            .max_by_key(|&(i, m)| rank(i, m))
            .map(|(_, m)| m.entries().to_vec())
            .unwrap_or_default();
        for member in &mut members {
            if member.entries() != history {
                member.rebuild(&history)?;
            }
        }
        Ok(Self::from_members(members, block_size))
    }

    /// A group of `members` that all hold the same log.
    fn from_members(members: Vec<VersionReplica>, block_size: u64) -> Arc<Self> {
        let (term, next_seq) = (members[0].last_term(), members[0].next_seq());
        Arc::new(Self {
            block_size,
            replicas: (members.into_iter().enumerate())
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
        })
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
        self.replicas[i].state.lock().entries().len()
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
        let mut guards: Vec<MutexGuard<'_, VersionReplica>> =
            self.replicas.iter().map(|r| r.state.lock()).collect();
        let leader = match group.leader {
            Some(l) => l,
            None => {
                let winner = guards
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i && self.replicas[j].alive.load(Ordering::SeqCst))
                    .max_by_key(|&(j, g)| rank(j, g))
                    .map(|(j, _)| j)
                    .ok_or_else(|| Error::Transport("no live replica to revive from".into()))?;
                group.term += 1;
                group.leader = Some(winner);
                group.lease_left = LEASE_READS;
                winner
            }
        };
        let entries = guards[leader].entries().to_vec();
        guards[i].rebuild(&entries)?;
        self.replicas[i].alive.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Forces every live replica's durable log to stable storage.
    pub fn sync(&self) -> Result<()> {
        let _group = self.group.lock();
        for r in &self.replicas {
            if r.alive.load(Ordering::SeqCst) {
                r.state.lock().sync()?;
            }
        }
        Ok(())
    }

    /// Locks every live replica in ascending index order. Caller holds
    /// the group lock.
    fn lock_alive(&self) -> Vec<(usize, MutexGuard<'_, VersionReplica>)> {
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
        guards: &[(usize, MutexGuard<'_, VersionReplica>)],
    ) -> Result<usize> {
        let pos_of = |l: usize| guards.iter().position(|&(i, _)| i == l);
        if let Some(l) = group.leader {
            if let Some(pos) = pos_of(l) {
                return Ok(pos);
            }
        }
        let winner = guards
            .iter()
            .max_by_key(|&&(i, ref g)| rank(i, g))
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
        // Exactly-once: a retried seq returns its memoized reply. A
        // precondition failure is returned to the caller and never logged
        // or replicated, so replay stays valid.
        let (reply, entry) = guards[leader_pos].1.submit(group.term, command)?;
        let Some(entry) = entry else {
            group.lease_left = LEASE_READS;
            return Ok(Some(reply));
        };
        if self.take_crash(CRASH_BEFORE) {
            drop(guards);
            self.crash(&mut group, leader_idx);
            return Ok(None);
        }
        // Replicate: every live follower applies, checks and appends. All
        // of them are locked, so an acknowledged entry is on a superset of
        // the quorum majority.
        for (pos, (_, state)) in guards.iter_mut().enumerate() {
            if pos != leader_pos {
                state.follow(entry)?;
            }
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
                return Ok(Arc::clone(self.replicas[l].state.lock().vm()));
            }
        }
        let guards = self.lock_alive();
        if guards.len() < self.quorum() {
            return Err(quorum_err(guards.len(), self.replicas.len(), self.quorum()));
        }
        let pos = self.leader_pos(&mut group, &guards)?;
        group.lease_left = LEASE_READS;
        Ok(Arc::clone(guards[pos].1.vm()))
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
    use blobseer_disk::version_log::DEDUP_CAP;
    use blobseer_disk::{FrameLog, RepEntry};
    use blobseer_types::wire::Wire;

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
        assert!(state.memo_len() <= DEDUP_CAP);
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

    /// A frame whose checksum holds but whose entry does not decode was
    /// written by a broken writer: the open reports the storage fault, not
    /// a network one.
    #[test]
    fn an_undecodable_checksummed_entry_fails_open_as_storage() {
        let tmp = TempDir::new("ctl-undecodable");
        let dir = tmp.path().join("replog");
        {
            let g = ReplicatedVersionService::open(&dir, 1, 64).unwrap();
            g.create_blob().unwrap();
            g.sync().unwrap();
        }
        let entry = RepEntry {
            term: 1,
            index: 1,
            command: Command {
                seq: 9,
                kind: CommandKind::DeleteBlob {
                    blob: BlobId::new(1),
                },
            },
            result: 0,
        };
        let bytes = entry.to_bytes();
        let mut log = FrameLog::open(dir.join("vm-replica-0.log")).unwrap();
        log.append(&bytes[..bytes.len() - 1]).unwrap();
        log.sync().unwrap();
        drop(log);
        let err = ReplicatedVersionService::open(&dir, 1, 64).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }

    #[test]
    fn group_logs_pin_their_block_size() {
        let tmp = TempDir::new("ctl-blocksize");
        let dir = tmp.path().join("replog");
        {
            let g = ReplicatedVersionService::open(&dir, 3, 64).unwrap();
            g.create_blob().unwrap();
        }
        let err = ReplicatedVersionService::open(&dir, 3, 128).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }

    /// A log whose entry records a result its replay does not hand out
    /// is from another history: the open refuses it instead of serving
    /// diverged ids.
    #[test]
    fn a_log_recording_another_result_fails_open_as_storage() {
        let tmp = TempDir::new("ctl-result");
        let dir = tmp.path().join("replog");
        let entry = RepEntry {
            term: 1,
            index: 0,
            command: Command {
                seq: 1,
                kind: CommandKind::CreateBlob,
            },
            result: 2,
        };
        let mut log = FrameLog::open(dir.join("vm-replica-0.log")).unwrap();
        log.append_payloads([&64u64.to_bytes()[..], &entry.to_bytes()[..]])
            .unwrap();
        drop(log);
        let err = ReplicatedVersionService::open(&dir, 1, 64).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
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
