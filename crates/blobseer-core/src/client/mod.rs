//! The BlobSeer deployment and client: create/read/write/append with full
//! concurrency (§III-B, "clients can access the BLOBs with full concurrency,
//! even if they all access the same BLOB").
//!
//! # Write protocol (§III-D)
//!
//! 1. **Data phase, fully parallel:** the client splits the payload into
//!    blocks, asks the provider manager for targets, and stores the blocks.
//!    No synchronization with other writers ([`write`]/[`append`] modules).
//! 2. **Version assignment:** the only serialized step — the version
//!    manager assigns the snapshot number (and fixes append offsets).
//! 3. **Metadata phase, again parallel:** the client builds its tree nodes,
//!    weaving references to lower versions (including still-in-flight ones,
//!    via the write-log hints), and publishes them to the metadata DHT.
//! 4. **Commit:** the version manager reveals the snapshot once all lower
//!    versions have committed, which is what makes the whole history
//!    linearizable (§III-A.5).
//!
//! # Semantics of unaligned operations
//!
//! Metadata leaves cover fixed-size blocks, so operations that are not
//! block-aligned perform a read-modify-write of the boundary blocks (the
//! original system simply required page-aligned accesses; we relax that):
//!
//! * **Unaligned `write`** merges against the latest *revealed* snapshot at
//!   the time the write starts; two concurrent writers touching the *same
//!   block* resolve at block granularity (the later version wins the whole
//!   block).
//! * **Unaligned `append`** is exact even under concurrency: the version
//!   manager orders appends, and the rare unaligned path waits for its
//!   predecessor's reveal before merging the tail block, so no appended
//!   byte is ever lost. Block-aligned appends — all of Hadoop's traffic,
//!   thanks to BSFS's write-behind cache, and all the paper's workloads —
//!   skip the wait and retain the protocol's full parallelism. The wait's
//!   patience is `BlobSeerConfig::reveal_timeout`, the same one
//!   `BsfsOutput::close()` waits for its final append's reveal.
//!
//! # How to add a backend
//!
//! The client is written entirely against the port traits of
//! [`crate::ports`] — it never names a concrete service implementation. To
//! run the unchanged protocol on a new backend:
//!
//! 1. Implement [`crate::ports::BlockStore`] (and/or
//!    [`crate::ports::MetaStore`], [`crate::ports::VersionService`]) for
//!    your transport. Decorators that wrap an existing adapter work too —
//!    see [`crate::faults`] for fault injection and `experiments::concurrent`
//!    for the simnet-backed cost model driving the figure reproductions.
//! 2. Assemble an [`EnginePorts`] value (start from
//!    [`EnginePorts::in_memory`] and replace the fields you customize).
//! 3. Call [`BlobSeer::deploy_ports`]. Every [`BlobClient`] obtained from
//!    the deployment now routes its data, metadata and version traffic
//!    through your adapters.
//!
//! The traits are object-safe by design (`Arc<dyn …>` wiring), so backends
//! can be chosen at runtime.
//!
//! **Implement the three batch methods.** The client's hot paths call
//! nothing but the *vectored* store methods —
//! `put_many`/`get_many`/`delete_many` on [`crate::ports::BlockStore`]
//! (one batch per data provider) and [`crate::ports::MetaStore`] (one
//! batch per tree level) — so a write's data phase, a publish, a descent
//! and a GC cascade each cost O(levels + providers) backend calls rather
//! than O(blocks + nodes). They are the stores' *required* methods, and
//! step 1 above is "implement those three" (plus the shape and
//! diagnostics accessors): `put`/`get`/`delete` are provided by the
//! traits as a batch of one, so an adapter writes each store operation
//! once. Two invariants: results come back *per item, in input order* (a
//! subset may fail while the rest land; decorators and the provided
//! helpers rely on this — a one-item batch gets exactly one result), and
//! a batch must answer like its items applied in sequence, so an
//! intra-batch re-put or re-delete sees the items before it
//! (`tests/ports_equivalence.rs` has ready-made properties to hold a new
//! adapter to exactly that). A backend with no bulk path of its own can
//! satisfy both by mapping a private per-item function over the batch.
//!
//! **Worked example: the TCP backend.** The `blobseer-rpc` crate follows
//! exactly this recipe to take the protocol over real sockets:
//! `RpcBlockStore`/`RpcMetaStore`/`RpcVersionService` implement the three
//! traits over a small budget of *multiplexed* TCP connections (one frame
//! per port call — one per *batch* for the vectored methods, with
//! per-item status codes; service errors round-trip the wire as their own
//! [`blobseer_types::Error`] variants), and
//! `blobseer_rpc::LoopbackCluster::deploy` is nothing more than step
//! 2 + 3: it fills an [`EnginePorts`] with the RPC adapters and hands it
//! to [`BlobSeer::deploy_ports`]. Two practical notes for remote backends
//! it illustrates: fetch fixed deployment *shape* (provider count,
//! hosting nodes, block size) once at connect time so the non-`Result`
//! trait methods stay cheap and infallible, and correlate responses with
//! a per-frame request id rather than with connection order, because port
//! calls like [`crate::ports::VersionService::wait_revealed`] block
//! server-side — a caller parked for seconds must not occupy a
//! connection that hundreds of fast reads could be sharing.
//!
//! [`write`]: BlobClient::write
//! [`append`]: BlobClient::append

mod append;
mod deploy;
mod read;
mod write;

pub use deploy::{BlobSeer, EnginePorts};

use crate::gc::GcReport;
use crate::version_manager::SnapshotInfo;
use blobseer_types::{BlobId, ByteRange, Error, NodeId, Result, Version};
use std::sync::Arc;
use std::time::Duration;

/// A located extent of a BLOB: which nodes hold the block covering it.
/// The paper's locality primitive (§IV-C): "given a specified BLOB id,
/// version, offset and size, it returns the list of blocks that make up the
/// requested range, and the addresses of the physical nodes".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockLocation {
    /// The byte extent within the BLOB covered by this entry.
    pub range: ByteRange,
    /// Index of the underlying block.
    pub block_index: u64,
    /// Nodes hosting replicas (empty for holes).
    pub nodes: Vec<NodeId>,
}

/// A client handle. Cheap to clone; all methods are `&self` and safe to
/// call from many threads.
#[derive(Clone)]
pub struct BlobClient {
    pub(crate) sys: Arc<BlobSeer>,
    pub(crate) node: NodeId,
}

impl BlobClient {
    /// The node this client runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The deployment this client talks to.
    pub fn system(&self) -> &Arc<BlobSeer> {
        &self.sys
    }

    /// Creates a new empty BLOB (§III-A.1).
    ///
    /// # Panics
    /// Panics when the version manager is unreachable or its durable log
    /// cannot be appended; use [`Self::try_create`] to handle that as an
    /// error instead.
    pub fn create(&self) -> BlobId {
        // lint:allow(no-unwrap): documented convenience wrapper; the fallible path is try_create
        self.try_create().expect("create_blob failed")
    }

    /// [`Self::create`], propagating service-level failures.
    pub fn try_create(&self) -> Result<BlobId> {
        self.sys.vm.create_blob()
    }

    /// The latest revealed snapshot: `(version, size)`.
    pub fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        self.sys.vm.latest(blob)
    }

    /// Size of a specific snapshot.
    pub fn size(&self, blob: BlobId, version: Version) -> Result<u64> {
        Ok(self.sys.vm.snapshot_info(blob, version)?.size)
    }

    /// Blocks until `version` is revealed (the paper's "mechanism that
    /// allows the client to find out when new snapshot versions are
    /// available", §III-A.5).
    pub fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        self.sys.vm.wait_revealed(blob, version, timeout)
    }

    // --- versioning extensions ---------------------------------------------

    /// The revealed history of a BLOB: one [`SnapshotInfo`] per readable
    /// version, oldest first (inherited pre-branch versions included).
    /// Backs tooling like `examples/versioning_workflow.rs` and makes the
    /// paper's "all past versions … can potentially be accessed" concrete.
    pub fn history(&self, blob: BlobId) -> Result<Vec<SnapshotInfo>> {
        let (latest, _) = self.sys.vm.latest(blob)?;
        let mut out = Vec::with_capacity(latest.raw() as usize);
        for v in 1..=latest.raw() {
            match self.sys.vm.snapshot_info(blob, Version::new(v)) {
                Ok(info) => out.push(info),
                // Collected versions are simply absent from the history.
                Err(Error::NoSuchVersion { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// Forks the BLOB at a revealed version into an independent BLOB
    /// sharing all data and metadata (§VI-A). O(1).
    pub fn branch(&self, blob: BlobId, at: Version) -> Result<BlobId> {
        let info = self.sys.vm.snapshot_info(blob, at)?;
        let forked = self.sys.vm.branch(blob, at)?;
        if info.cap > 0 {
            // The fork holds a GC reference on the branch point's root.
            self.sys.gc.inc_nodes(&[info.root_key()])?;
        }
        Ok(forked)
    }

    /// Deletes the BLOB: unregisters it and reclaims the storage of all its
    /// versions. Branches taken from it keep working (they hold their own
    /// references on the shared history).
    pub fn delete_blob(&self, blob: BlobId) -> Result<GcReport> {
        let roots = self.sys.vm.delete_blob(blob)?;
        self.sys.gc.release_roots(&roots)
    }

    /// Garbage-collects own versions strictly below `keep_from` (§III-A.1:
    /// versions live "as long as they have not been garbaged for the sake
    /// of storage space"). The latest revealed version is always kept.
    pub fn gc_before(&self, blob: BlobId, keep_from: Version) -> Result<GcReport> {
        let roots = self.sys.vm.collect_before(blob, keep_from)?;
        self.sys.gc.release_roots(&roots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version_manager::WriteIntent;
    use blobseer_types::BlobSeerConfig;
    use bytes::Bytes;

    fn small_system() -> Arc<BlobSeer> {
        BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(64), 4)
    }

    fn client(sys: &Arc<BlobSeer>) -> BlobClient {
        sys.client(NodeId::new(100))
    }

    #[test]
    fn write_read_roundtrip_aligned() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let v = c.write(blob, 0, &data).unwrap();
        assert_eq!(v, Version::new(1));
        assert_eq!(c.latest(blob).unwrap(), (v, 256));
        assert_eq!(&c.read(blob, None, 0, 256).unwrap()[..], &data[..]);
        // Sub-range with unaligned extremes (§III-C).
        assert_eq!(&c.read(blob, None, 100, 100).unwrap()[..], &data[100..200]);
    }

    #[test]
    fn append_accumulates() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        let (o1, v1) = c.append(blob, &[1u8; 64]).unwrap();
        let (o2, v2) = c.append(blob, &[2u8; 64]).unwrap();
        assert_eq!((o1, o2), (0, 64));
        assert_eq!((v1, v2), (Version::new(1), Version::new(2)));
        let all = c.read(blob, None, 0, 128).unwrap();
        assert!(all[..64].iter().all(|&b| b == 1));
        assert!(all[64..].iter().all(|&b| b == 2));
    }

    #[test]
    fn append_bytes_stores_slices_of_the_callers_buffer() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        let data = Bytes::from((0..128u8).collect::<Vec<u8>>());
        let at = data.as_ptr();
        let (offset, version) = c.append_bytes(blob, data.clone()).unwrap();
        assert_eq!(offset, 0);
        let info = sys.version_manager().snapshot_info(blob, version).unwrap();
        let blocks = crate::meta::key::BlockRange::new(0, 2);
        let located = sys
            .tree()
            .locate(info.root_blob, info.version, info.cap, blocks)
            .unwrap();
        for (i, loc) in located.iter().enumerate() {
            let desc = loc.desc.as_ref().unwrap();
            let stored = sys
                .providers()
                .get(desc.providers[0] as usize, desc.block_id)
                .unwrap();
            assert_eq!(stored.as_ptr(), at.wrapping_add(i * 64), "block {i}");
        }
        assert_eq!(c.read(blob, None, 0, 128).unwrap(), data);
    }

    #[test]
    fn unaligned_append_slow_path() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.append(blob, &[7u8; 40]).unwrap(); // leaves file at 40 bytes (unaligned)
        let (o, _) = c.append(blob, &[9u8; 100]).unwrap();
        assert_eq!(o, 40);
        let all = c.read(blob, None, 0, 140).unwrap();
        assert!(all[..40].iter().all(|&b| b == 7), "prefix preserved");
        assert!(all[40..].iter().all(|&b| b == 9), "appended bytes");
    }

    #[test]
    fn every_version_remains_readable() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[1u8; 128]).unwrap();
        c.write(blob, 64, &[2u8; 64]).unwrap();
        c.write(blob, 0, &[3u8; 32]).unwrap();
        // v1: all ones.
        let v1 = c.read(blob, Some(Version::new(1)), 0, 128).unwrap();
        assert!(v1.iter().all(|&b| b == 1));
        // v2: ones then twos.
        let v2 = c.read(blob, Some(Version::new(2)), 0, 128).unwrap();
        assert!(v2[..64].iter().all(|&b| b == 1));
        assert!(v2[64..].iter().all(|&b| b == 2));
        // v3: RMW merged first block.
        let v3 = c.read(blob, Some(Version::new(3)), 0, 128).unwrap();
        assert!(v3[..32].iter().all(|&b| b == 3));
        assert!(v3[32..64].iter().all(|&b| b == 1));
        assert!(v3[64..].iter().all(|&b| b == 2));
    }

    #[test]
    fn holes_read_as_zeros() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 200, &[5u8; 56]).unwrap(); // blocks 0–2 are holes
        let all = c.read(blob, None, 0, 256).unwrap();
        assert!(all[..200].iter().all(|&b| b == 0));
        assert!(all[200..].iter().all(|&b| b == 5));
    }

    #[test]
    fn out_of_bounds_and_empty_reads() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[1u8; 100]).unwrap();
        assert!(matches!(
            c.read(blob, None, 50, 51),
            Err(Error::OutOfBounds {
                requested_end: 101,
                snapshot_size: 100
            })
        ));
        assert_eq!(c.read(blob, None, 100, 0).unwrap().len(), 0, "EOF read");
        assert_eq!(c.read(blob, None, 0, 0).unwrap().len(), 0);
        // Huge offsets must fail cleanly instead of wrapping past the
        // bounds check (release) or panicking on overflow (debug).
        assert!(matches!(
            c.read(blob, None, u64::MAX, 2),
            Err(Error::OutOfBounds { .. })
        ));
        assert!(matches!(
            c.locations(blob, None, u64::MAX - 1, 3),
            Err(Error::OutOfBounds { .. })
        ));
        // The write path gets the same hardening: a range overflowing u64
        // is rejected up front, before any geometry math can wrap.
        assert!(matches!(
            c.write(blob, u64::MAX - 10, &[0u8; 100]),
            Err(Error::WriteAborted(_))
        ));
        // A range that fits u64 but whose *block-rounded* end does not
        // must fail the same way (the tail_end rounding would wrap).
        assert!(matches!(
            c.write(blob, u64::MAX - 50, &[9u8; 10]),
            Err(Error::WriteAborted(_))
        ));
        assert_eq!(
            c.latest(blob).unwrap().1,
            100,
            "rejected writes left no trace"
        );
    }

    #[test]
    fn explicit_unrevealed_version_is_refused() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[1u8; 64]).unwrap();
        // Manually assign a version that never commits.
        let _stuck = sys
            .version_manager()
            .assign(blob, WriteIntent::Append { size: 64 })
            .unwrap();
        let v3 = c.write(blob, 0, &[3u8; 64]); // commits, but reveal stalls behind v2
        let v3 = v3.unwrap();
        assert!(matches!(
            c.read(blob, Some(v3), 0, 64),
            Err(Error::VersionNotRevealed { .. })
        ));
        // Latest revealed is still v1.
        assert_eq!(c.latest(blob).unwrap().0, Version::new(1));
    }

    #[test]
    fn failed_write_repair_unblocks_readers() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[1u8; 128]).unwrap();
        let v2 = c
            .simulate_failed_write(
                blob,
                WriteIntent::Write {
                    offset: 64,
                    size: 64,
                },
            )
            .unwrap();
        // The repaired version reveals and reads as v1's content.
        assert_eq!(c.latest(blob).unwrap().0, v2);
        let data = c.read(blob, Some(v2), 0, 128).unwrap();
        assert!(data.iter().all(|&b| b == 1));
        assert_eq!(sys.stats().snapshot().writes_aborted, 1);
        // Writes continue normally on top.
        let v3 = c.write(blob, 0, &[3u8; 64]).unwrap();
        let data = c.read(blob, Some(v3), 0, 128).unwrap();
        assert!(data[..64].iter().all(|&b| b == 3));
        assert!(data[64..].iter().all(|&b| b == 1));
    }

    #[test]
    fn failed_append_extends_with_zeros() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[1u8; 64]).unwrap();
        let v = c
            .simulate_failed_write(blob, WriteIntent::Append { size: 64 })
            .unwrap();
        assert_eq!(
            c.size(blob, v).unwrap(),
            128,
            "aborted append still extends"
        );
        let data = c.read(blob, Some(v), 0, 128).unwrap();
        assert!(data[..64].iter().all(|&b| b == 1));
        assert!(
            data[64..].iter().all(|&b| b == 0),
            "aborted range reads as zeros"
        );
    }

    #[test]
    fn locations_expose_replica_nodes() {
        let cfg = BlobSeerConfig::small_for_tests()
            .with_block_size(64)
            .with_replication(2);
        let sys = BlobSeer::deploy(cfg, 4);
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[1u8; 192]).unwrap();
        let locs = c.locations(blob, None, 0, 192).unwrap();
        assert_eq!(locs.len(), 3);
        for (i, l) in locs.iter().enumerate() {
            assert_eq!(l.block_index, i as u64);
            assert_eq!(l.nodes.len(), 2, "two replicas");
            assert_eq!(l.range, ByteRange::new(i as u64 * 64, 64));
        }
        // Round-robin with replication 2 over 4 providers: block 0 on
        // nodes {0,1}, block 1 on {2,3}, block 2 on {0,1}.
        assert_eq!(locs[0].nodes, locs[2].nodes);
        assert_ne!(locs[0].nodes, locs[1].nodes);
    }

    #[test]
    fn replication_zero_refuses_the_write() {
        // No replica means no readable block: the write must fail rather
        // than publish a version whose read is `MissingBlock`.
        // (The builder refuses 0; a literal config is how it gets in.)
        let cfg = BlobSeerConfig {
            replication: 0,
            ..BlobSeerConfig::small_for_tests().with_block_size(64)
        };
        let sys = BlobSeer::deploy(cfg, 4);
        let c = client(&sys);
        let blob = c.create();
        let err = c.write(blob, 0, &[1u8; 64]).unwrap_err();
        assert!(matches!(err, Error::NoProviderAvailable(_)), "{err}");
        assert_eq!(c.latest(blob).unwrap().0, Version::new(0));
    }

    #[test]
    fn replicated_reads_survive_provider_data_loss() {
        let cfg = BlobSeerConfig::small_for_tests()
            .with_block_size(64)
            .with_replication(2);
        let sys = BlobSeer::deploy(cfg, 2);
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[9u8; 64]).unwrap();
        // Both providers hold the block.
        let locs = c.locations(blob, None, 0, 64).unwrap();
        assert_eq!(locs[0].nodes.len(), 2);
        assert_eq!(
            sys.providers().block_count(0) + sys.providers().block_count(1),
            2
        );
        // Drop the block from the deterministically chosen replica (block
        // index 0 → replica 0): the read must fall back to the surviving
        // replica instead of surfacing the first refused get.
        let block_id = {
            let tree = sys.tree();
            let info = sys
                .version_manager()
                .snapshot_info(blob, Version::new(1))
                .unwrap();
            let located = tree
                .locate(
                    info.root_blob,
                    info.version,
                    info.cap,
                    crate::meta::key::BlockRange::new(0, 1),
                )
                .unwrap();
            located[0].desc.as_ref().unwrap().block_id
        };
        let chosen = locs[0].nodes[0].raw() as usize;
        assert!(sys.providers().delete(chosen, block_id).unwrap() > 0);
        let data = c.read(blob, None, 0, 64).unwrap();
        assert!(
            data.iter().all(|&b| b == 9),
            "failover replica serves the read"
        );
        // Losing every replica finally surfaces the error.
        let other = locs[0].nodes[1].raw() as usize;
        assert!(sys.providers().delete(other, block_id).unwrap() > 0);
        assert!(matches!(
            c.read(blob, None, 0, 64),
            Err(Error::MissingBlock(_))
        ));
    }

    #[test]
    fn branch_then_divergent_writes() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[1u8; 128]).unwrap();
        let fork = c.branch(blob, Version::new(1)).unwrap();
        c.write(blob, 0, &[2u8; 64]).unwrap();
        c.write(fork, 64, &[3u8; 64]).unwrap();
        // Parent: twos then ones.
        let p = c.read(blob, None, 0, 128).unwrap();
        assert!(p[..64].iter().all(|&b| b == 2));
        assert!(p[64..].iter().all(|&b| b == 1));
        // Fork: ones then threes.
        let f = c.read(fork, None, 0, 128).unwrap();
        assert!(f[..64].iter().all(|&b| b == 1));
        assert!(f[64..].iter().all(|&b| b == 3));
        // Shared history still readable from both.
        assert_eq!(
            c.read(blob, Some(Version::new(1)), 0, 128).unwrap(),
            c.read(fork, Some(Version::new(1)), 0, 128).unwrap()
        );
    }

    #[test]
    fn gc_frees_old_versions_but_keeps_shared_data() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &[1u8; 256]).unwrap(); // v1: 4 blocks
        c.write(blob, 0, &[2u8; 64]).unwrap(); // v2: rewrites block 0
        c.write(blob, 64, &[3u8; 64]).unwrap(); // v3: rewrites block 1
        let report = c.gc_before(blob, Version::new(3)).unwrap();
        assert!(report.nodes_deleted > 0);
        // v1's block 0 was only referenced by v1+v2... v2 shares v1's
        // blocks 1-3; v3 shares v2's block 0 and v1's blocks 2-3. After
        // collecting v1 and v2: v1's original block 0 and v1's block 1
        // become garbage (v3 replaced block 1), plus v2's... v2's block 0
        // is still referenced by v3. Blocks deleted: v1-block0, v1-block1.
        assert_eq!(report.blocks_deleted, 2);
        // Old versions are gone; latest still reads correctly.
        assert!(c.read(blob, Some(Version::new(1)), 0, 256).is_err());
        let data = c.read(blob, Some(Version::new(3)), 0, 256).unwrap();
        assert!(data[..64].iter().all(|&b| b == 2));
        assert!(data[64..128].iter().all(|&b| b == 3));
        assert!(data[128..].iter().all(|&b| b == 1));
    }

    #[test]
    fn placement_policies_affect_layout() {
        // The one placement rule, round robin, spreads a 64-block write
        // perfectly evenly over 8 providers.
        let sys = BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(64), 8);
        let c = client(&sys);
        let blob = c.create();
        c.write(blob, 0, &vec![1u8; 64 * 64]).unwrap();
        assert_eq!(sys.layout_vector(), vec![8; 8]);
    }

    #[test]
    fn concurrent_writers_different_blobs() {
        let sys = small_system();
        let mut handles = Vec::new();
        for t in 0..4u8 {
            let c = client(&sys);
            handles.push(std::thread::spawn(move || {
                let blob = c.create();
                for i in 0..10u8 {
                    c.append(blob, &[t * 16 + i; 64]).unwrap();
                }
                let (v, size) = c.latest(blob).unwrap();
                assert_eq!(v, Version::new(10));
                assert_eq!(size, 640);
                let data = c.read(blob, None, 0, 640).unwrap();
                for i in 0..10u8 {
                    assert!(data[i as usize * 64..(i as usize + 1) * 64]
                        .iter()
                        .all(|&b| b == t * 16 + i));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn history_lists_revealed_snapshots() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        assert!(
            c.history(blob).unwrap().is_empty(),
            "empty blob, empty history"
        );
        c.write(blob, 0, &[1u8; 64]).unwrap();
        c.append(blob, &[2u8; 64]).unwrap();
        c.write(blob, 0, &[3u8; 32]).unwrap();
        let history = c.history(blob).unwrap();
        assert_eq!(history.len(), 3);
        assert_eq!(
            history.iter().map(|s| s.size).collect::<Vec<_>>(),
            vec![64, 128, 128]
        );
        assert!(history.iter().all(|s| s.revealed));
        // After GC, collected versions disappear from the listing.
        c.gc_before(blob, Version::new(3)).unwrap();
        let history = c.history(blob).unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].version, Version::new(3));
        // A branch's history includes inherited versions.
        let fork = c.branch(blob, Version::new(3)).unwrap();
        c.append(fork, &[4u8; 64]).unwrap();
        let fh = c.history(fork).unwrap();
        assert_eq!(fh.len(), 2, "inherited v3 plus own v4");
        assert_eq!(fh[0].root_blob, blob);
        assert_eq!(fh[1].root_blob, fork);
    }

    #[test]
    fn writes_spanning_many_blocks_with_odd_sizes() {
        let sys = small_system(); // 64-byte blocks
        let c = client(&sys);
        let blob = c.create();
        // Prime with a pattern, then overwrite an awkward span.
        let base: Vec<u8> = (0..640u32).map(|i| i as u8).collect();
        c.write(blob, 0, &base).unwrap();
        let patch = vec![0xEE; 333];
        c.write(blob, 77, &patch).unwrap();
        let got = c.read(blob, None, 0, 640).unwrap();
        assert_eq!(&got[..77], &base[..77]);
        assert!(got[77..410].iter().all(|&b| b == 0xEE));
        assert_eq!(&got[410..], &base[410..]);
    }

    #[test]
    fn sparse_blob_mostly_holes() {
        let sys = small_system();
        let c = client(&sys);
        let blob = c.create();
        // One byte at a far offset: ~4 KB of holes before it.
        c.write(blob, 4000, &[42u8]).unwrap();
        assert_eq!(c.latest(blob).unwrap().1, 4001);
        let all = c.read(blob, None, 0, 4001).unwrap();
        assert!(all[..4000].iter().all(|&b| b == 0));
        assert_eq!(all[4000], 42);
        // Storage only holds the single written block, not the holes.
        let stored: u64 = sys.providers().total_bytes_stored();
        assert!(
            stored <= 64,
            "holes must not consume provider space: {stored}"
        );
    }

    #[test]
    fn concurrent_unaligned_appenders_lose_nothing() {
        // Regression test: tiny (sub-block) appends from many threads to
        // one BLOB. The unaligned slow path must wait for its predecessor's
        // reveal, so every appended record survives verbatim.
        let sys = small_system(); // 64-byte blocks
        let c0 = client(&sys);
        let blob = c0.create();
        let n_threads = 6u8;
        let per_thread = 20u8;
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let c = client(&sys);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread {
                    // 10-byte records: every append is unaligned.
                    let rec = [t * 32 + i; 10];
                    c.append(blob, &rec).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (v, size) = c0.latest(blob).unwrap();
        assert_eq!(v.raw(), (n_threads as u64) * (per_thread as u64));
        assert_eq!(size, n_threads as u64 * per_thread as u64 * 10);
        let data = c0.read(blob, None, 0, size).unwrap();
        let mut seen = std::collections::HashSet::new();
        for rec in data.chunks(10) {
            assert!(rec.iter().all(|&b| b == rec[0]), "torn record: {rec:?}");
            assert!(seen.insert(rec[0]), "duplicate record {}", rec[0]);
        }
        assert_eq!(seen.len(), (n_threads * per_thread) as usize);
    }

    #[test]
    fn concurrent_appenders_same_blob_disjoint_content() {
        // The paper's Fig. 5 scenario, live and small: N appenders to one
        // BLOB; all appends must land exactly once at distinct offsets.
        let sys = small_system();
        let c0 = client(&sys);
        let blob = c0.create();
        let n_threads = 8;
        let per_thread = 16;
        let mut handles = Vec::new();
        for t in 0..n_threads as u8 {
            let c = client(&sys);
            handles.push(std::thread::spawn(move || {
                for i in 0..per_thread as u8 {
                    c.append(blob, &[t * 16 + i; 64]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let (v, size) = c0.latest(blob).unwrap();
        assert_eq!(v.raw(), (n_threads * per_thread) as u64);
        assert_eq!(size, (n_threads * per_thread * 64) as u64);
        // Each 64-byte block is uniform and each (thread, i) value appears
        // exactly once.
        let data = c0.read(blob, None, 0, size).unwrap();
        let mut seen = std::collections::HashSet::new();
        for chunk in data.chunks(64) {
            assert!(chunk.iter().all(|&b| b == chunk[0]), "torn append detected");
            assert!(seen.insert(chunk[0]), "duplicate append content");
        }
        assert_eq!(seen.len(), n_threads * per_thread);
    }
}
