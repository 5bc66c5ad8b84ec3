//! Disk-backed metadata DHT: one append-only **record log** plus an
//! in-memory **memtable** per shard.
//!
//! Tree nodes are immutable once published (§III-A.4: "no existing data
//! or metadata is ever modified"), so the classic LSM machinery —
//! compaction, levels, bloom filters — buys nothing here: a shard is
//! simply the replay of its record log, and the memtable IS the whole
//! table. Each record is one [`FrameLog`] frame holding a [`MetaRecord`],
//! whose [`Wire`] encoding is built from the node key's and tree node's
//! (`blobseer_core::meta::codec`), so the bytes a node travels the RPC
//! wire in are the bytes it rests on disk in:
//!
//! ```text
//! put:       tag 1 | node key | tree node
//! tombstone: tag 2 | node key
//! ```
//!
//! Keys shard by `hash64 % shards` — the *same* placement as the
//! in-memory [`blobseer_core::dht::MetaDht`], so a deployment can swap
//! backends without moving any key. [`DiskMetaStore`] stores a single
//! copy per node: durability comes from the log, not from replica
//! shards, so `metadata_replication` does not apply to this backend
//! (the cluster wiring documents this).
//!
//! Semantics mirror the in-memory DHT exactly where the equivalence
//! suite can see them: puts counted before the conflict check,
//! conflicting re-puts rejected in every build profile with the stored
//! copy untouched, idempotent re-puts appending nothing, deletes leaving
//! the op counters alone. `crash_shard` truncates the shard's log *and*
//! clears its memtable — on disk, losing a shard means losing its file.

use crate::frame::FrameLog;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::node::TreeNode;
use blobseer_core::ports::MetaStore;
use blobseer_core::sharded::group_indices_by;
use blobseer_types::wire::{Wire, WireReader, WireWriter};
use blobseer_types::{Error, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const REC_PUT: u8 = 1;
const REC_TOMBSTONE: u8 = 2;

/// One record of a shard's log: a tag byte, the node key, and for a put
/// the tree node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MetaRecord {
    /// The node was published.
    Put(NodeKey, TreeNode),
    /// The node was deleted.
    Tombstone(NodeKey),
}

impl Wire for MetaRecord {
    fn put(&self, w: &mut WireWriter) {
        match self {
            MetaRecord::Put(key, node) => {
                (REC_PUT, *key).put(w);
                node.put(w);
            }
            MetaRecord::Tombstone(key) => (REC_TOMBSTONE, *key).put(w),
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            REC_PUT => MetaRecord::Put(Wire::get(r)?, Wire::get(r)?),
            REC_TOMBSTONE => MetaRecord::Tombstone(Wire::get(r)?),
            t => return Err(Error::Transport(format!("unknown metadata record tag {t}"))),
        })
    }
}

/// One metadata shard: its record log and memtable.
struct DiskShard {
    path: PathBuf,
    /// Serializes appends *and* memtable mutations so log order always
    /// equals apply order.
    log: Mutex<FrameLog>,
    table: RwLock<HashMap<NodeKey, TreeNode>>,
    puts: AtomicU64,
    gets: AtomicU64,
}

fn load_shard(path: &Path) -> Result<(FrameLog, HashMap<NodeKey, TreeNode>)> {
    let mut table = HashMap::new();
    let log = FrameLog::open_with(path, |_, payload| {
        match MetaRecord::from_bytes(payload).map_err(|e| bad_record(path, &e))? {
            MetaRecord::Put(key, node) => table.insert(key, node),
            MetaRecord::Tombstone(key) => table.remove(&key),
        };
        Ok(())
    })?;
    Ok((log, table))
}

fn bad_record(path: &Path, e: &Error) -> Error {
    Error::Storage(format!(
        "{}: undecodable metadata record: {e}",
        path.display()
    ))
}

impl DiskShard {
    fn open(path: PathBuf) -> Result<Self> {
        let (log, table) = load_shard(&path)?;
        Ok(Self {
            path,
            log: Mutex::named(log, "disk.record_log.log"),
            table: RwLock::named(table, "disk.record_log.table"),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
        })
    }

    fn reopen(&self) -> Result<()> {
        let mut log = self.log.lock();
        let mut table = self.table.write();
        let (new_log, new_table) = load_shard(&self.path)?;
        *log = new_log;
        *table = new_table;
        self.puts.store(0, Ordering::Relaxed);
        self.gets.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// Batched put: items land in batch order, fresh records are
    /// written with one vectored write.
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.puts.fetch_add(items.len() as u64, Ordering::Relaxed);
        let mut log = self.log.lock();
        let mut out: Vec<Result<()>> = (0..items.len()).map(|_| Ok(())).collect();
        // First pass decides per item against the table plus the batch's
        // own earlier items (an intra-batch re-put must see them).
        let mut fresh: Vec<(usize, Vec<u8>)> = Vec::new();
        {
            let table = self.table.read();
            let mut staged: HashMap<NodeKey, usize> = HashMap::new();
            for (i, (key, node)) in items.iter().enumerate() {
                let existing = table
                    .get(key)
                    .or_else(|| staged.get(key).map(|&j| &items[j].1));
                match existing {
                    Some(prev) if prev != node => {
                        out[i] = Err(Error::MetadataConflict(format!("{key:?}")));
                    }
                    Some(_) => {}
                    None => {
                        staged.insert(*key, i);
                        fresh.push((i, MetaRecord::Put(*key, node.clone()).to_bytes()));
                    }
                }
            }
        }
        if let Err(e) = log.append_payloads(fresh.iter().map(|(_, p)| p.as_slice())) {
            for (i, _) in &fresh {
                out[*i] = Err(e.clone());
            }
            return out;
        }
        let mut table = self.table.write();
        for (i, _) in fresh {
            let (key, node) = &items[i];
            table.insert(*key, node.clone());
        }
        out
    }

    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        self.gets.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let table = self.table.read();
        keys.iter()
            .map(|key| {
                table
                    .get(key)
                    .cloned()
                    .ok_or_else(|| Error::MissingMetadata(format!("{key:?}")))
            })
            .collect()
    }

    /// Batched delete: the tombstones are appended (one vectored write)
    /// *before* the table is touched, so a failed append fails its items
    /// and leaves log and memtable agreeing.
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        let mut log = self.log.lock();
        let mut out: Vec<Result<bool>> = vec![Ok(false); keys.len()];
        let mut doomed: Vec<(usize, Vec<u8>)> = Vec::new();
        {
            let table = self.table.read();
            let mut pending: HashMap<NodeKey, ()> = HashMap::new();
            for (i, key) in keys.iter().enumerate() {
                if table.contains_key(key) && !pending.contains_key(key) {
                    pending.insert(*key, ());
                    doomed.push((i, MetaRecord::Tombstone(*key).to_bytes()));
                }
            }
        }
        if let Err(e) = log.append_payloads(doomed.iter().map(|(_, p)| p.as_slice())) {
            for (i, _) in &doomed {
                out[*i] = Err(e.clone());
            }
            return out;
        }
        let mut table = self.table.write();
        for (i, _) in doomed {
            table.remove(&keys[i]);
            out[i] = Ok(true);
        }
        out
    }

    fn crash(&self) {
        let mut log = self.log.lock();
        let mut table = self.table.write();
        // Losing a disk shard means losing its file; truncate so a
        // reopen agrees with the in-memory view.
        log.truncate_all()
            .expect("crash_shard: truncating the shard log failed"); // lint:allow(no-unwrap): crash hook; a failing simulated truncate is itself a bug
        table.clear();
    }

    fn node_count(&self) -> usize {
        self.table.read().len()
    }

    fn op_counts(&self) -> (u64, u64) {
        (
            self.puts.load(Ordering::Relaxed),
            self.gets.load(Ordering::Relaxed),
        )
    }
}

/// A disk-backed [`MetaStore`]: `n` shard record logs under one
/// directory, keys placed by `hash64 % n` exactly like the in-memory
/// DHT.
pub struct DiskMetaStore {
    shards: Vec<DiskShard>,
}

/// The record-log file backing metadata shard `i` under `dir`.
pub fn shard_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard:03}.log"))
}

impl DiskMetaStore {
    /// Opens (or creates) a store of `n` shards under `dir`, replaying
    /// each shard's record log into its memtable.
    pub fn open(dir: impl AsRef<Path>, n: usize) -> Result<Self> {
        assert!(n > 0, "need at least one metadata shard");
        let dir = dir.as_ref();
        let shards = (0..n)
            .map(|i| DiskShard::open(shard_path(dir, i)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { shards })
    }

    #[inline]
    fn shard_of(&self, key: &NodeKey) -> usize {
        (key.hash64() % self.shards.len() as u64) as usize
    }

    /// Reopens every shard in place (simulated restart): rescans the
    /// record logs, rebuilds the memtables, resets the op counters.
    pub fn reopen(&self) -> Result<()> {
        for s in &self.shards {
            s.reopen()?;
        }
        Ok(())
    }

    /// Forces every shard's appended records to stable storage.
    pub fn sync(&self) -> Result<()> {
        for s in &self.shards {
            s.log.lock().sync()?;
        }
        Ok(())
    }
}

impl MetaStore for DiskMetaStore {
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        let mut out: Vec<Result<()>> = (0..items.len()).map(|_| Ok(())).collect();
        for (shard, range) in group_indices_by(items.iter().map(|(k, _)| k), |k| self.shard_of(k)) {
            let group: Vec<(NodeKey, TreeNode)> = range.iter().map(|&i| items[i].clone()).collect();
            for (slot, result) in range.into_iter().zip(self.shards[shard].put_many(&group)) {
                out[slot] = result;
            }
        }
        out
    }

    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        let mut out: Vec<Result<TreeNode>> = keys
            .iter()
            .map(|key| Err(Error::MissingMetadata(format!("{key:?}"))))
            .collect();
        for (shard, range) in group_indices_by(keys.iter(), |k| self.shard_of(k)) {
            let group: Vec<NodeKey> = range.iter().map(|&i| keys[i]).collect();
            for (slot, found) in range.into_iter().zip(self.shards[shard].get_many(&group)) {
                out[slot] = found;
            }
        }
        out
    }

    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        let mut out: Vec<Result<bool>> = vec![Ok(false); keys.len()];
        for (shard, range) in group_indices_by(keys.iter(), |k| self.shard_of(k)) {
            let group: Vec<NodeKey> = range.iter().map(|&i| keys[i]).collect();
            for (slot, result) in range
                .into_iter()
                .zip(self.shards[shard].delete_many(&group))
            {
                out[slot] = result;
            }
        }
        out
    }

    fn fanout_shard(&self, key: &NodeKey) -> usize {
        self.shard_of(key)
    }

    fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn node_count(&self) -> usize {
        self.shards.iter().map(|s| s.node_count()).sum()
    }

    fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
        self.shards
            .iter()
            .map(|s| {
                let (p, g) = s.op_counts();
                (s.node_count(), p, g)
            })
            .collect()
    }

    fn crash_shard(&self, shard: usize) {
        self.shards[shard].crash();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;
    use blobseer_core::meta::key::Pos;
    use blobseer_core::meta::node::BlockDescriptor;
    use blobseer_types::{BlobId, BlockId, Version};

    fn key(v: u64, start: u64, len: u64) -> NodeKey {
        NodeKey::new(BlobId::new(1), Version::new(v), Pos::new(start, len))
    }

    fn leaf(b: u64) -> TreeNode {
        TreeNode::Leaf(BlockDescriptor {
            block_id: BlockId::new(b),
            providers: vec![0],
            len: 64,
        })
    }

    #[test]
    fn put_get_roundtrip_and_missing() {
        let tmp = TempDir::new("meta-roundtrip");
        let store = DiskMetaStore::open(tmp.path(), 4).unwrap();
        store.put(key(1, 0, 1), leaf(10)).unwrap();
        assert_eq!(store.get(&key(1, 0, 1)).unwrap(), leaf(10));
        assert!(matches!(
            store.get(&key(2, 0, 1)),
            Err(Error::MissingMetadata(_))
        ));
        assert_eq!(store.shard_count(), 4);
        assert_eq!(store.node_count(), 1);
    }

    #[test]
    fn nodes_survive_close_and_reopen() {
        let tmp = TempDir::new("meta-reopen");
        let store = DiskMetaStore::open(tmp.path(), 4).unwrap();
        for v in 0..64 {
            store.put(key(v, 0, 1), leaf(v)).unwrap();
        }
        assert!(store.delete(&key(3, 0, 1)));
        drop(store);

        let store = DiskMetaStore::open(tmp.path(), 4).unwrap();
        assert_eq!(store.node_count(), 63);
        for v in 0..64 {
            if v == 3 {
                assert!(store.get(&key(v, 0, 1)).is_err(), "tombstone replayed");
            } else {
                assert_eq!(store.get(&key(v, 0, 1)).unwrap(), leaf(v));
            }
        }
    }

    #[test]
    fn placement_matches_the_in_memory_dht() {
        let tmp = TempDir::new("meta-placement");
        let store = DiskMetaStore::open(tmp.path(), 8).unwrap();
        let dht = blobseer_core::dht::MetaDht::new(8, 1);
        for v in 0..128 {
            let k = key(v, 0, 1);
            assert_eq!(store.fanout_shard(&k), dht.shard_of(&k), "key {v}");
        }
    }

    #[test]
    fn conflicting_reput_is_rejected_and_original_kept() {
        let tmp = TempDir::new("meta-conflict");
        let store = DiskMetaStore::open(tmp.path(), 2).unwrap();
        store.put(key(1, 0, 1), leaf(10)).unwrap();
        let err = store.put(key(1, 0, 1), leaf(11)).unwrap_err();
        assert!(matches!(err, Error::MetadataConflict(_)), "{err}");
        // The forged node never reached the log either: replay agrees.
        store.reopen().unwrap();
        assert_eq!(store.get(&key(1, 0, 1)).unwrap(), leaf(10));
    }

    #[test]
    fn idempotent_reput_appends_nothing() {
        let tmp = TempDir::new("meta-idem");
        let store = DiskMetaStore::open(tmp.path(), 1).unwrap();
        store.put(key(1, 0, 1), leaf(10)).unwrap();
        let len = std::fs::metadata(shard_path(tmp.path(), 0)).unwrap().len();
        store.put(key(1, 0, 1), leaf(10)).unwrap();
        assert_eq!(
            std::fs::metadata(shard_path(tmp.path(), 0)).unwrap().len(),
            len
        );
        let stats = store.shard_stats();
        assert_eq!(stats[0], (1, 2, 0), "both puts counted, no gets");
    }

    #[test]
    fn vectored_ops_and_intra_batch_conflicts() {
        let tmp = TempDir::new("meta-vectored");
        let store = DiskMetaStore::open(tmp.path(), 4).unwrap();
        let items = vec![
            (key(1, 0, 1), leaf(1)),
            (key(2, 0, 1), leaf(2)),
            (key(1, 0, 1), leaf(1)),  // idempotent intra-batch re-put
            (key(1, 0, 1), leaf(99)), // conflicting intra-batch re-put
        ];
        let out = store.put_many(&items);
        assert!(out[0].is_ok() && out[1].is_ok() && out[2].is_ok());
        assert!(matches!(out[3], Err(Error::MetadataConflict(_))));
        assert_eq!(store.get(&key(1, 0, 1)).unwrap(), leaf(1));

        let keys = vec![key(1, 0, 1), key(9, 0, 1), key(2, 0, 1)];
        let got = store.get_many(&keys);
        assert_eq!(got[0], Ok(leaf(1)));
        assert!(got[1].is_err());
        assert_eq!(got[2], Ok(leaf(2)));

        let deleted = store.delete_many(&[key(1, 0, 1), key(1, 0, 1), key(9, 0, 1)]);
        assert_eq!(deleted, vec![Ok(true), Ok(false), Ok(false)]);
        assert_eq!(store.node_count(), 1);
    }

    /// Regression: a tombstone append the disk refuses is that item's
    /// `Err`, with the node still served — not the `expect` it was behind
    /// the single-item `delete`, which let one frame against a failing
    /// disk take an RPC worker thread down for good.
    #[test]
    fn a_refused_tombstone_append_is_a_per_item_error_not_a_panic() {
        let tmp = TempDir::new("meta-enospc");
        let store = DiskMetaStore::open(tmp.path(), 1).unwrap();
        store.put(key(1, 0, 1), leaf(10)).unwrap();
        // Every write to /dev/full fails with ENOSPC.
        *store.shards[0].log.lock() = FrameLog::open("/dev/full").unwrap();
        let out = store.delete_many(&[key(1, 0, 1), key(2, 0, 1)]);
        assert!(matches!(out[0], Err(Error::Storage(_))), "{out:?}");
        assert_eq!(out[1], Ok(false), "absent: no tombstone to append");
        assert!(!store.delete(&key(1, 0, 1)), "unknown outcome: not deleted");
        assert_eq!(store.get(&key(1, 0, 1)).unwrap(), leaf(10));
        assert_eq!(store.node_count(), 1, "log and memtable still agree");
    }

    #[test]
    fn crash_shard_loses_its_file_too() {
        let tmp = TempDir::new("meta-crash");
        let store = DiskMetaStore::open(tmp.path(), 2).unwrap();
        for v in 0..32 {
            store.put(key(v, 0, 1), leaf(v)).unwrap();
        }
        store.crash_shard(0);
        let survivors = store.node_count();
        assert!(survivors < 32, "shard 0 held something");
        // The loss is durable: a reopen sees the same survivors.
        store.reopen().unwrap();
        assert_eq!(store.node_count(), survivors);
    }

    #[test]
    fn in_place_reopen_preserves_state_and_resets_counters() {
        let tmp = TempDir::new("meta-inplace");
        let store = DiskMetaStore::open(tmp.path(), 4).unwrap();
        for v in 0..32 {
            store.put(key(v, 0, 1), leaf(v)).unwrap();
        }
        let _ = store.get(&key(1, 0, 1));
        store.reopen().unwrap();
        assert_eq!(store.node_count(), 32);
        assert_eq!(store.get(&key(7, 0, 1)).unwrap(), leaf(7));
        let (_, puts, gets) = store
            .shard_stats()
            .into_iter()
            .fold((0usize, 0u64, 0u64), |(n, p, g), (sn, sp, sg)| {
                (n + sn, p + sp, g + sg)
            });
        assert_eq!(puts, 0, "op counters are per process");
        assert_eq!(gets, 1, "only the post-reopen get counted");
    }
}
