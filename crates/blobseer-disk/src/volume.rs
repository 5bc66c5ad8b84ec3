//! Disk-backed data providers: one append-only **volume** file per
//! provider plus a rebuildable in-memory offset index.
//!
//! The design is the needle/volume layout of append-only photo/blob
//! stores, which the paper's append-only data model (§III-A.4: "no
//! existing data or metadata is ever modified") makes a perfect fit:
//! every put appends one framed record and remembers `block id → (file
//! offset, length)` in a hash map; gets are a single positional read at
//! the remembered extent; deletes append a tombstone record and drop the
//! index entry — the payload bytes stay where they are (space reclaim by
//! volume compaction is out of scope, matching the GC model where
//! release, not reuse, is what the protocol needs).
//!
//! The index is *soft state*: opening a volume replays its record log
//! (already torn-tail-truncated by [`FrameLog`]) and rebuilds the map, so
//! a process restart recovers exactly the committed puts minus the
//! committed tombstones. Each frame holds a [`VolumeHead`], and a put's
//! block right behind it:
//!
//! ```text
//! put:       tag 1 | block id varint | length varint | block
//! tombstone: tag 2 | block id varint
//! ```
//!
//! [`DiskProviderSet`] mirrors the semantics of the in-memory
//! [`blobseer_core::block_store::ProviderSet`] exactly — idempotent
//! re-puts append nothing, conflicting re-puts are an engine bug (debug
//! builds verify content equality against the stored bytes), per-item
//! vectored results, `puts`/`gets` counted per attempted operation — so
//! the op-script equivalence suite can hold the two backends against each
//! other. One deliberate difference: op counters restart at zero on
//! reopen (they are process-lifetime statistics, not durable state).

use crate::frame::{read_exact_at, Frame, FrameLog};
use blobseer_core::ports::BlockStore;
use blobseer_types::wire::{Wire, WireReader, WireWriter};
use blobseer_types::{BlockId, Error, NodeId, Result};
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const REC_PUT: u8 = 1;
const REC_TOMBSTONE: u8 = 2;

/// A volume record up to where a put's block starts: tag, block id and,
/// for a put, the block's length. The block itself is never copied behind
/// the head — it goes to the log as the frame's second part, from wherever
/// the caller's [`Bytes`] points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VolumeHead {
    /// A block of `len` bytes follows.
    Put {
        /// The block stored.
        id: BlockId,
        /// Its length in bytes.
        len: u64,
    },
    /// The block was deleted.
    Tombstone {
        /// The block deleted.
        id: BlockId,
    },
}

impl Wire for VolumeHead {
    fn put(&self, w: &mut WireWriter) {
        match *self {
            VolumeHead::Put { id, len } => (REC_PUT, id, len).put(w),
            VolumeHead::Tombstone { id } => (REC_TOMBSTONE, id).put(w),
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match r.get_u8()? {
            REC_PUT => {
                let (id, len) = Wire::get(r)?;
                VolumeHead::Put { id, len }
            }
            REC_TOMBSTONE => VolumeHead::Tombstone {
                id: BlockId::get(r)?,
            },
            t => return Err(Error::Transport(format!("unknown volume record tag {t}"))),
        })
    }
}

/// Where a live block's payload sits in the volume file.
#[derive(Clone, Copy, Debug)]
struct Extent {
    offset: u64,
    len: u32,
}

/// One provider's volume: the append handle, the read handle and the
/// offset index.
pub struct DiskVolume {
    node: NodeId,
    path: PathBuf,
    /// Append state; also serializes index *mutations* so the record log
    /// and the map can never disagree about operation order.
    log: Mutex<FrameLog>,
    /// Positional-read handle, replaced on [`Self::reopen`]. Reads clone
    /// the `Arc` out and read without any volume lock held.
    reader: RwLock<Arc<File>>,
    index: RwLock<HashMap<BlockId, Extent>>,
    bytes_stored: AtomicU64,
    puts: AtomicU64,
    gets: AtomicU64,
}

/// Replays a volume file, returning the recovered log and index state.
fn load(path: &Path) -> Result<(FrameLog, HashMap<BlockId, Extent>, u64)> {
    let mut index = HashMap::new();
    let mut bytes = 0u64;
    let log = FrameLog::open_with(path, |payload_off, payload| {
        let mut r = WireReader::new(payload);
        let head = VolumeHead::get(&mut r).map_err(|e| bad_record(path, &e))?;
        // A put's block fills the rest of its record; a tombstone is all head.
        let behind = r.remaining() as u64;
        match head {
            VolumeHead::Put { id, len } if len == behind => {
                let ext = Extent {
                    offset: payload_off + (payload.len() as u64 - len),
                    len: len as u32,
                };
                if let Some(prev) = index.insert(id, ext) {
                    // A put frame for a live id only happens via
                    // delete + re-put interleavings torn down to a
                    // prefix that kept both puts; last write wins,
                    // like replaying the ops would.
                    bytes -= prev.len as u64;
                }
                bytes += ext.len as u64;
            }
            VolumeHead::Tombstone { id } if behind == 0 => {
                if let Some(prev) = index.remove(&id) {
                    bytes -= prev.len as u64;
                }
            }
            _ => {
                let e = Error::Transport(format!("{behind} bytes behind a {head:?}"));
                return Err(bad_record(path, &e));
            }
        }
        Ok(())
    })?;
    Ok((log, index, bytes))
}

fn bad_record(path: &Path, e: &Error) -> Error {
    // A checksummed frame that fails to decode means the writer was
    // broken, not the medium — surface it instead of truncating.
    Error::Storage(format!(
        "{}: undecodable volume record: {e}",
        path.display()
    ))
}

impl DiskVolume {
    /// Opens (or creates) the volume at `path`, rebuilding the offset
    /// index from the record log.
    pub fn open(path: impl Into<PathBuf>, node: NodeId) -> Result<Self> {
        let path = path.into();
        let (log, index, bytes) = load(&path)?;
        let reader = log.reader();
        Ok(Self {
            node,
            path,
            log: Mutex::named(log, "disk.volume.log"),
            reader: RwLock::named(reader, "disk.volume.reader"),
            index: RwLock::named(index, "disk.volume.index"),
            bytes_stored: AtomicU64::new(bytes),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
        })
    }

    /// Simulates a process restart in place: drops the file handles,
    /// rescans the record log and rebuilds the index. Op counters reset
    /// (they are process statistics); stored state must not change —
    /// the equivalence tests close/reopen mid-script on exactly this.
    pub fn reopen(&self) -> Result<()> {
        let mut log = self.log.lock();
        let mut index = self.index.write();
        let (new_log, new_index, bytes) = load(&self.path)?;
        *self.reader.write() = new_log.reader();
        *log = new_log;
        *index = new_index;
        self.bytes_stored.store(bytes, Ordering::Relaxed);
        self.puts.store(0, Ordering::Relaxed);
        self.gets.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// The cluster node hosting this provider.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The volume file (crash tests truncate it at chosen offsets).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Forces appended records to stable storage.
    pub fn sync(&self) -> Result<()> {
        self.log.lock().sync()
    }

    /// In debug builds, verifies an attempted re-put carries the stored
    /// content — the same immutability tripwire the in-memory provider
    /// arms.
    fn debug_check_reput(&self, id: BlockId, ext: Extent, data: &[u8]) {
        if cfg!(debug_assertions) {
            let existing = self
                .read_extent(ext)
                // lint:allow(no-panic-decode): a debug-build immutability tripwire, not a decode of outside bytes
                .unwrap_or_else(|e| panic!("re-put validation read failed: {e}"));
            assert_eq!(
                &existing[..],
                data,
                "block {id} rewritten with different content — blocks are immutable"
            );
        }
    }

    fn read_extent(&self, ext: Extent) -> Result<Bytes> {
        let file = Arc::clone(&self.reader.read());
        let mut buf = vec![0u8; ext.len as usize];
        read_exact_at(&file, &self.path, &mut buf, ext.offset)?;
        Ok(Bytes::from(buf))
    }

    /// Stores a batch with one vectored write for all new records
    /// (idempotent re-puts append nothing).
    ///
    /// Record headers and checksums — the one pass this store makes over
    /// the payload bytes — are computed before the volume lock is taken,
    /// so concurrent batches checksum in parallel and the lock covers
    /// only the idempotence check, the write and the index insert. The
    /// price is a wasted checksum for a block that turns out to be stored
    /// already, which happens only when a client retries.
    pub fn put_many(&self, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        let heads: Vec<Vec<u8>> = items
            .iter()
            .map(|(id, data)| {
                let len = data.len() as u64;
                VolumeHead::Put { id: *id, len }.to_bytes()
            })
            .collect();
        let frames: Vec<Result<Frame<'_>>> = heads
            .iter()
            .zip(items)
            .map(|(head, (_, data))| Frame::of_parts(head, data))
            .collect();
        let mut log = self.log.lock();
        self.puts.fetch_add(items.len() as u64, Ordering::Relaxed);
        let mut out: Vec<Result<()>> = (0..items.len()).map(|_| Ok(())).collect();
        // Which items append a record (first occurrence of a new id).
        let mut fresh: Vec<usize> = Vec::new();
        let mut batch: Vec<Frame<'_>> = Vec::new();
        let mut fresh_ids: HashMap<BlockId, usize> = HashMap::new();
        {
            let index = self.index.read();
            for (i, (id, data)) in items.iter().enumerate() {
                if let Some(&ext) = index.get(id) {
                    self.debug_check_reput(*id, ext, data);
                    continue;
                }
                if let Some(&first) = fresh_ids.get(id) {
                    // Intra-batch re-put: idempotent against the first
                    // occurrence (deterministic content, as everywhere).
                    debug_assert_eq!(
                        items[first].1, *data,
                        "block {id} rewritten with different content — blocks are immutable"
                    );
                    continue;
                }
                match &frames[i] {
                    Ok(frame) => {
                        fresh_ids.insert(*id, i);
                        fresh.push(i);
                        batch.push(*frame);
                    }
                    Err(e) => out[i] = Err(e.clone()),
                }
            }
        }
        let offsets = match log.append_many(&batch) {
            Ok(offsets) => offsets,
            Err(e) => {
                for i in fresh {
                    out[i] = Err(e.clone());
                }
                return out;
            }
        };
        let mut index = self.index.write();
        for (i, payload_off) in fresh.into_iter().zip(offsets) {
            let (id, data) = &items[i];
            index.insert(
                *id,
                Extent {
                    offset: payload_off + heads[i].len() as u64,
                    len: data.len() as u32,
                },
            );
            self.bytes_stored
                .fetch_add(data.len() as u64, Ordering::Relaxed);
        }
        out
    }

    /// Fetches a batch: one index pass, then one positional read per hit.
    pub fn get_many(&self, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        self.gets.fetch_add(ids.len() as u64, Ordering::Relaxed);
        let extents: Vec<Option<Extent>> = {
            let index = self.index.read();
            ids.iter().map(|id| index.get(id).copied()).collect()
        };
        ids.iter()
            .zip(extents)
            .map(|(id, ext)| match ext {
                Some(ext) => self.read_extent(ext),
                None => Err(Error::MissingBlock(id.raw())),
            })
            .collect()
    }

    /// True if the volume holds the block.
    pub fn contains(&self, id: BlockId) -> bool {
        self.index.read().contains_key(&id)
    }

    /// Deletes a batch: one vectored write for all tombstones, then the
    /// index entries go. Per item, the bytes freed (0 if absent — no
    /// tombstone appended).
    pub fn delete_many(&self, ids: &[BlockId]) -> Vec<Result<u64>> {
        let mut log = self.log.lock();
        let mut out = vec![Ok(0u64); ids.len()];
        let mut doomed: Vec<(usize, BlockId, Vec<u8>, u32)> = Vec::new();
        {
            let index = self.index.read();
            let mut pending: HashMap<BlockId, ()> = HashMap::new();
            for (i, id) in ids.iter().enumerate() {
                // An intra-batch duplicate sees the earlier tombstone,
                // exactly like the sequential op order would.
                if pending.contains_key(id) {
                    continue;
                }
                if let Some(&ext) = index.get(id) {
                    pending.insert(*id, ());
                    doomed.push((
                        i,
                        *id,
                        VolumeHead::Tombstone { id: *id }.to_bytes(),
                        ext.len,
                    ));
                }
            }
        }
        if let Err(e) = log.append_payloads(doomed.iter().map(|(_, _, p, _)| p.as_slice())) {
            for (i, _, _, _) in &doomed {
                out[*i] = Err(e.clone());
            }
            return out;
        }
        let mut index = self.index.write();
        for (i, id, _, len) in doomed {
            index.remove(&id);
            self.bytes_stored.fetch_sub(len as u64, Ordering::Relaxed);
            out[i] = Ok(len as u64);
        }
        out
    }

    /// Number of live blocks.
    pub fn block_count(&self) -> usize {
        self.index.read().len()
    }

    /// Live payload bytes (tombstoned extents excluded).
    pub fn bytes_stored(&self) -> u64 {
        self.bytes_stored.load(Ordering::Relaxed)
    }

    /// `(puts, gets)` attempted since open/reopen.
    pub fn op_counts(&self) -> (u64, u64) {
        (
            self.puts.load(Ordering::Relaxed),
            self.gets.load(Ordering::Relaxed),
        )
    }
}

/// A dense set of disk-backed providers under one data directory —
/// provider `i`'s volume lives at `dir/provider-NNN.vol`.
pub struct DiskProviderSet {
    volumes: Vec<DiskVolume>,
}

/// The volume file backing provider `i` under `dir`.
pub fn volume_path(dir: &Path, provider: usize) -> PathBuf {
    dir.join(format!("provider-{provider:03}.vol"))
}

impl DiskProviderSet {
    /// Opens (or creates) `n` provider volumes under `dir`, hosted on the
    /// nodes produced by `node_of`.
    pub fn open(
        dir: impl AsRef<Path>,
        n: usize,
        node_of: impl Fn(usize) -> NodeId,
    ) -> Result<Self> {
        assert!(n > 0, "need at least one data provider");
        let dir = dir.as_ref();
        let volumes = (0..n)
            .map(|i| DiskVolume::open(volume_path(dir, i), node_of(i)))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { volumes })
    }

    /// Builds a set from already-opened volumes — how a deployment that
    /// runs one provider per server process (the loopback cluster) wraps
    /// each server's single volume.
    pub fn from_volumes(volumes: Vec<DiskVolume>) -> Self {
        assert!(!volumes.is_empty(), "need at least one data provider");
        Self { volumes }
    }

    /// The volume behind provider `i`.
    pub fn volume(&self, i: usize) -> &DiskVolume {
        &self.volumes[i]
    }

    /// Reopens every volume in place (simulated restart of all provider
    /// processes).
    pub fn reopen(&self) -> Result<()> {
        for v in &self.volumes {
            v.reopen()?;
        }
        Ok(())
    }

    /// Forces every volume's appended records to stable storage.
    pub fn sync(&self) -> Result<()> {
        for v in &self.volumes {
            v.sync()?;
        }
        Ok(())
    }
}

impl BlockStore for DiskProviderSet {
    fn len(&self) -> usize {
        self.volumes.len()
    }
    fn node(&self, provider: usize) -> NodeId {
        self.volumes[provider].node()
    }
    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.volumes.iter().position(|v| v.node() == node)
    }
    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.volumes[provider].contains(id)
    }
    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        self.volumes[provider].put_many(items)
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        self.volumes[provider].get_many(ids)
    }
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        self.volumes[provider].delete_many(ids)
    }
    fn block_count(&self, provider: usize) -> usize {
        self.volumes[provider].block_count()
    }
    fn bytes_stored(&self, provider: usize) -> u64 {
        self.volumes[provider].bytes_stored()
    }
    fn op_counts(&self, provider: usize) -> (u64, u64) {
        self.volumes[provider].op_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn set(dir: &Path) -> DiskProviderSet {
        DiskProviderSet::open(dir, 2, |i| NodeId::new(i as u64)).unwrap()
    }

    #[test]
    fn put_get_roundtrip_and_counters() {
        let tmp = TempDir::new("vol-roundtrip");
        let s = set(tmp.path());
        let data = Bytes::from_static(b"hello blocks");
        s.put(0, BlockId::new(1), data.clone()).unwrap();
        assert_eq!(s.get(0, BlockId::new(1)).unwrap(), data);
        assert_eq!(s.block_count(0), 1);
        assert_eq!(s.bytes_stored(0), 12);
        assert_eq!(s.op_counts(0), (1, 1));
        assert_eq!(s.layout_vector(), vec![1, 0]);
        assert_eq!(s.index_of_node(NodeId::new(1)), Some(1));
        assert_eq!(
            s.get(1, BlockId::new(1)),
            Err(Error::MissingBlock(1)),
            "providers are separate volumes"
        );
    }

    #[test]
    fn state_survives_reopen() {
        let tmp = TempDir::new("vol-reopen");
        let s = set(tmp.path());
        s.put(0, BlockId::new(1), Bytes::from_static(b"keep"))
            .unwrap();
        s.put(0, BlockId::new(2), Bytes::from_static(b"drop"))
            .unwrap();
        s.put(1, BlockId::new(3), Bytes::from_static(b"other"))
            .unwrap();
        assert_eq!(s.delete(0, BlockId::new(2)).unwrap(), 4);
        drop(s);

        let s = set(tmp.path());
        assert_eq!(s.op_counts(0), (0, 0), "op counters are per process");
        assert_eq!(&s.get(0, BlockId::new(1)).unwrap()[..], b"keep");
        assert!(!s.contains(0, BlockId::new(2)), "tombstone replayed");
        assert_eq!(&s.get(1, BlockId::new(3)).unwrap()[..], b"other");
        assert_eq!(s.total_block_count(), 2);
        assert_eq!(s.total_bytes_stored(), 9);
    }

    #[test]
    fn in_place_reopen_preserves_state() {
        let tmp = TempDir::new("vol-inplace");
        let s = set(tmp.path());
        for k in 0..50u64 {
            s.put(
                (k % 2) as usize,
                BlockId::new(k),
                Bytes::from(vec![k as u8; 8]),
            )
            .unwrap();
        }
        s.delete(0, BlockId::new(4)).unwrap();
        let before: Vec<u64> = s.layout_vector();
        s.reopen().unwrap();
        assert_eq!(s.layout_vector(), before);
        assert_eq!(&s.get(0, BlockId::new(6)).unwrap()[..], &[6u8; 8]);
        assert!(!s.contains(0, BlockId::new(4)));
        // Writes keep working after the in-place restart.
        s.put(0, BlockId::new(100), Bytes::from_static(b"post"))
            .unwrap();
        assert_eq!(&s.get(0, BlockId::new(100)).unwrap()[..], b"post");
    }

    #[test]
    fn delete_then_reput_replays_in_order() {
        let tmp = TempDir::new("vol-reput");
        let s = set(tmp.path());
        s.put(0, BlockId::new(7), Bytes::from_static(b"v")).unwrap();
        assert_eq!(s.delete(0, BlockId::new(7)).unwrap(), 1);
        s.put(0, BlockId::new(7), Bytes::from_static(b"v")).unwrap();
        drop(s);
        let s = set(tmp.path());
        assert_eq!(&s.get(0, BlockId::new(7)).unwrap()[..], b"v");
        assert_eq!(s.bytes_stored(0), 1, "no double counting across replay");
    }

    #[test]
    fn idempotent_reput_appends_nothing() {
        let tmp = TempDir::new("vol-idem");
        let s = set(tmp.path());
        s.put(0, BlockId::new(1), Bytes::from_static(b"same"))
            .unwrap();
        let len_after_first = std::fs::metadata(volume_path(tmp.path(), 0)).unwrap().len();
        s.put(0, BlockId::new(1), Bytes::from_static(b"same"))
            .unwrap();
        assert_eq!(
            std::fs::metadata(volume_path(tmp.path(), 0)).unwrap().len(),
            len_after_first
        );
        assert_eq!(s.op_counts(0).0, 2, "both puts counted");
        assert_eq!(s.bytes_stored(0), 4);
    }

    #[test]
    #[should_panic(expected = "blocks are immutable")]
    #[cfg(debug_assertions)]
    fn rewriting_a_block_panics_in_debug() {
        let tmp = TempDir::new("vol-immutable");
        let s = set(tmp.path());
        s.put(0, BlockId::new(1), Bytes::from_static(b"aa"))
            .unwrap();
        s.put(0, BlockId::new(1), Bytes::from_static(b"bb"))
            .unwrap();
    }

    #[test]
    fn vectored_ops_match_their_single_siblings() {
        let tmp = TempDir::new("vol-vectored");
        let s = set(tmp.path());
        let items: Vec<(BlockId, Bytes)> = (0..10u64)
            .map(|k| (BlockId::new(k), Bytes::from(vec![k as u8; 4])))
            .collect();
        assert!(s.put_many(0, &items).iter().all(|r| r.is_ok()));
        let ids: Vec<BlockId> = items.iter().map(|(id, _)| *id).collect();
        for (got, (_, want)) in s.get_many(0, &ids).into_iter().zip(&items) {
            assert_eq!(&got.unwrap(), want);
        }
        let freed = s.delete_many(0, &ids[..5]);
        assert!(freed.iter().all(|r| *r == Ok(4)));
        assert_eq!(s.block_count(0), 5);
        // Duplicate ids inside one batch behave like the op sequence.
        let dup = vec![ids[7], ids[7]];
        assert_eq!(s.delete_many(0, &dup), vec![Ok(4), Ok(0)]);
    }

    #[test]
    fn concurrent_puts_and_gets() {
        let tmp = TempDir::new("vol-concurrent");
        let s = Arc::new(set(tmp.path()));
        let threads: Vec<_> = (0..8u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let id = BlockId::new(t * 1000 + i);
                        s.put(0, id, Bytes::from(vec![t as u8; 16])).unwrap();
                        assert_eq!(s.get(0, id).unwrap().len(), 16);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(s.block_count(0), 400);
        assert_eq!(s.bytes_stored(0), 400 * 16);
        s.reopen().unwrap();
        assert_eq!(s.block_count(0), 400, "all interleaved puts recovered");
    }
}
