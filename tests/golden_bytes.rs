//! The byte-identity gate of the one codec: every value type, every RPC
//! exchange of the five services and every disk and replica-log record
//! kind, encoded today, against `tests/fixtures/golden_bytes.txt`.
//!
//! Each sample carries the decoder of its type. The fixture's bytes must
//! decode and re-encode to themselves, and every strict prefix of them
//! must fail to decode with an error, never a panic. RPC samples are
//! recorded by a proxy between real clients and servers; disk samples are
//! the frame payloads a scripted run leaves in each log.

use blobseer_control::ReplicatedVersionService;
use blobseer_core::block_store::ProviderSet;
use blobseer_core::dht::MetaDht;
use blobseer_core::gc::{GcHost, GcReport};
use blobseer_core::meta::key::{BlockRange, NodeKey, Pos};
use blobseer_core::meta::log::{LogChain, LogEntry};
use blobseer_core::meta::node::{BlockDescriptor, NodeRef, TreeNode};
use blobseer_core::ports::{BlockStore, GcService, MetaStore, PlacementService, VersionService};
use blobseer_core::provider_manager::{BlockAllocation, ProviderManager};
use blobseer_core::version_manager::{SnapshotInfo, VersionManager, WriteIntent, WriteTicket};
use blobseer_core::{EngineStats, FanoutExecutor};
use blobseer_disk::testutil::TempDir;
use blobseer_disk::{
    Command, CommandKind, DiskMetaStore, DiskVolume, FrameLog, MetaRecord, RepEntry, VolumeHead,
};
use blobseer_rpc::wire::{read_frame, write_frame};
use blobseer_rpc::{
    RpcBlockStore, RpcGcService, RpcMetaStore, RpcPlacementService, RpcServer, RpcService,
    RpcVersionService,
};
use blobseer_types::wire::{error_fixture, Wire, WireReader};
use blobseer_types::{BlobId, BlockId, Error, NodeId, Result, Version};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

/// Decodes a sample's bytes as its type and encodes the value again.
type Reencode = fn(&[u8]) -> Result<Vec<u8>>;

struct Sample {
    name: String,
    bytes: Vec<u8>,
    reencode: Reencode,
}

fn reencode<T: Wire>(bytes: &[u8]) -> Result<Vec<u8>> {
    Ok(T::from_bytes(bytes)?.to_bytes())
}

fn sample<T: Wire>(name: impl Into<String>, value: &T) -> Sample {
    Sample {
        name: name.into(),
        bytes: value.to_bytes(),
        reencode: reencode::<T>,
    }
}

fn key(blob: u64, v: u64, start: u64, len: u64) -> NodeKey {
    NodeKey::new(BlobId::new(blob), Version::new(v), Pos::new(start, len))
}

fn nref(blob: u64, v: u64) -> NodeRef {
    NodeRef {
        blob: BlobId::new(blob),
        version: Version::new(v),
    }
}

fn leaf(block: u64, providers: Vec<u32>, len: u32) -> TreeNode {
    TreeNode::Leaf(BlockDescriptor {
        block_id: BlockId::new(block),
        providers,
        len,
    })
}

/// Blob 1 writes v1..v3; blob 2 branches at v2 and writes v3', v4'. The
/// ticket of v4', whose border answers reach into both lineages.
fn sample_ticket() -> WriteTicket {
    let vm = VersionManager::new(64, Arc::new(EngineStats::new()));
    let parent = vm.create_blob();
    let write = |blob, offset, size| {
        let t = vm
            .assign(blob, WriteIntent::Write { offset, size })
            .unwrap();
        vm.commit(blob, t.version).unwrap();
        t
    };
    write(parent, 0, 512);
    write(parent, 128, 64);
    write(parent, 256, 256);
    let child = vm.branch(parent, Version::new(2)).unwrap();
    write(child, 0, 64);
    write(child, 320, 64)
}

fn sample_commands() -> Vec<(&'static str, Command)> {
    let (blob, version) = (BlobId::new, Version::new);
    let kinds = [
        ("create_blob", CommandKind::CreateBlob),
        (
            "branch",
            CommandKind::Branch {
                parent: blob(7),
                at: version(3),
            },
        ),
        (
            "assign_write",
            CommandKind::Assign {
                blob: blob(1),
                intent: WriteIntent::Write {
                    offset: 4096,
                    size: 128,
                },
            },
        ),
        (
            "assign_append",
            CommandKind::Assign {
                blob: blob(2),
                intent: WriteIntent::Append { size: u64::MAX },
            },
        ),
        (
            "commit",
            CommandKind::Commit {
                blob: blob(9),
                version: version(12),
            },
        ),
        ("delete_blob", CommandKind::DeleteBlob { blob: blob(4) }),
        (
            "collect_before",
            CommandKind::CollectBefore {
                blob: blob(5),
                keep_from: version(2),
            },
        ),
    ];
    (0u64..)
        .zip(kinds)
        .map(|(i, (name, kind))| {
            let cmd = Command {
                seq: 1_000 + i,
                kind,
            };
            (name, cmd)
        })
        .collect()
}

fn type_samples() -> Vec<Sample> {
    let mut s = vec![
        sample("type.u8", &0xABu8),
        sample("type.bool.false", &false),
        sample("type.bool.true", &true),
        sample("type.u32", &u32::MAX),
        sample("type.u64.small", &300u64),
        sample("type.u64.max", &u64::MAX),
        sample("type.usize", &12_345usize),
        sample("type.string", &String::from("wörld")),
        sample("type.duration", &Duration::from_millis(1500)),
    ];
    for (i, e) in error_fixture().iter().enumerate() {
        s.push(sample(format!("type.error.{i:02}"), e));
    }
    s.extend([
        sample("type.blob_id", &BlobId::new(7)),
        sample("type.block_id", &BlockId::new(u64::MAX)),
        sample("type.version", &Version::new(300)),
        sample("type.node_id", &NodeId::new(9)),
        sample("type.vec_u64", &vec![1u64, 300, u64::MAX]),
        sample(
            "type.vec_version",
            &vec![Version::new(2), Version::new(130)],
        ),
        sample(
            "type.vec_node_key",
            &vec![key(1, 2, 0, 4), key(3, 300, 8, 8)],
        ),
        sample("type.option.none", &None::<NodeRef>),
        sample("type.option.some", &Some(nref(9, 1))),
        sample("type.tuple2", &(4u64, 1000u64)),
        sample("type.tuple3", &(3u64, 7u64, 9u64)),
        sample("type.result.ok", &Ok::<u64, Error>(42)),
        sample(
            "type.result.err",
            &Err::<u64, Error>(Error::MissingBlock(5)),
        ),
        sample("type.pos", &Pos::new(8, 4)),
        sample("type.node_key", &key(3, 7, 8, 4)),
        sample("type.block_range", &BlockRange::new(2, 5)),
        sample("type.node_ref", &nref(9, 1)),
    ]);
    let descriptor = BlockDescriptor {
        block_id: BlockId::new(u64::MAX),
        providers: vec![0, 7, 300],
        len: u32::MAX,
    };
    s.push(sample("type.block_descriptor", &descriptor));
    let nodes = [
        (
            "inner",
            TreeNode::Inner {
                left: Some(nref(1, 2)),
                right: None,
            },
        ),
        ("leaf", TreeNode::Leaf(descriptor)),
        ("alias_none", TreeNode::LeafAlias(None)),
        ("alias_some", TreeNode::LeafAlias(Some(nref(9, 1)))),
    ];
    for (name, node) in &nodes {
        s.push(sample(format!("type.tree_node.{name}"), node));
    }
    let write = WriteIntent::Write {
        offset: 300,
        size: 5,
    };
    s.push(sample("type.write_intent.write", &write));
    let append = WriteIntent::Append { size: 128 };
    s.push(sample("type.write_intent.append", &append));
    let entry = LogEntry {
        version: Version::new(5),
        blocks: BlockRange::new(1, 3),
        cap_before: 4,
        cap_after: 8,
        size_after: 512,
    };
    s.push(sample("type.log_entry", &entry));
    let info = SnapshotInfo {
        version: Version::new(4),
        size: 1000,
        cap: 16,
        root_blob: BlobId::new(2),
        revealed: true,
    };
    s.push(sample("type.snapshot_info", &info));
    let ticket = sample_ticket();
    s.push(sample("type.write_ticket", &ticket));
    s.push(sample("type.log_chain", &ticket.chain));
    let allocation = BlockAllocation {
        block_id: BlockId::new(77),
        providers: vec![0, 3, 9],
    };
    s.push(sample("type.block_allocation", &allocation));
    let report = GcReport {
        nodes_deleted: 5,
        blocks_deleted: 3,
        bytes_freed: 4096,
        untracked_releases: 1,
    };
    s.push(sample("type.gc_report", &report));
    for (name, cmd) in sample_commands() {
        s.push(sample(format!("type.command.{name}"), &cmd));
    }
    let rep = RepEntry {
        term: 3,
        index: 17,
        command: sample_commands()[2].1,
        result: 5,
    };
    s.push(sample("type.rep_entry", &rep));
    s
}

// --- RPC exchanges through a recording proxy ---------------------------------

type Log = Arc<Mutex<Vec<(Vec<u8>, Vec<u8>)>>>;

/// Forwards every connection to `upstream`, one request/response at a time,
/// recording each exchange's bodies.
fn proxy(upstream: SocketAddr, log: Log) -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for client in listener.incoming() {
            let Ok(client) = client else { return };
            let log = Arc::clone(&log);
            std::thread::spawn(move || {
                let server = TcpStream::connect(upstream).unwrap();
                let mut from_client = BufReader::new(client.try_clone().unwrap());
                let mut from_server = BufReader::new(server.try_clone().unwrap());
                let (mut to_client, mut to_server) = (client, server);
                while let Ok(Some((id, req))) = read_frame(&mut from_client) {
                    write_frame(&mut to_server, id, &req).unwrap();
                    let Ok(Some((rid, resp))) = read_frame(&mut from_server) else {
                        return;
                    };
                    log.lock().unwrap().push((req, resp.clone()));
                    if write_frame(&mut to_client, rid, &resp).is_err() {
                        return;
                    }
                }
            });
        }
    });
    addr
}

struct Recorder {
    log: Log,
    out: Vec<Sample>,
}

impl Recorder {
    /// Names every exchange recorded since the last call: a request is the
    /// method tag and an `A`, a response the envelope around a `T`.
    fn take<A: Wire, T: Wire>(&mut self, label: &str) {
        let got: Vec<_> = self.log.lock().unwrap().drain(..).collect();
        assert!(!got.is_empty(), "{label}: no frame");
        for (i, (req, resp)) in got.into_iter().enumerate() {
            let name = match i {
                0 => format!("rpc.{label}"),
                _ => format!("rpc.{label}#{i}"),
            };
            self.out.push(Sample {
                name: format!("{name}.req"),
                bytes: req,
                reencode: reencode::<(u8, A)>,
            });
            self.out.push(Sample {
                name: format!("{name}.resp"),
                bytes: resp,
                reencode: reencode::<Result<T>>,
            });
        }
    }
}

fn rpc_samples() -> Vec<Sample> {
    let stats = Arc::new(EngineStats::new());
    let blocks: Arc<dyn BlockStore> = Arc::new(ProviderSet::new(2, |i| NodeId::new(10 + i as u64)));
    let dht: Arc<dyn MetaStore> = Arc::new(MetaDht::new(2, 1));
    let vm: Arc<dyn VersionService> = Arc::new(VersionManager::new(64, Arc::clone(&stats)));
    let pm = Arc::new(ProviderManager::new(2));
    let gc: Arc<dyn GcService> = Arc::new(GcHost::new(
        Arc::clone(&dht),
        Arc::clone(&blocks),
        Arc::clone(&pm) as Arc<dyn PlacementService>,
        Arc::clone(&stats),
        Arc::new(FanoutExecutor::new(1)),
    ));
    let servers = [
        RpcService::Block(blocks),
        RpcService::Meta(dht),
        RpcService::Version(vm),
        RpcService::Placement(pm),
        RpcService::Gc(gc),
    ]
    .map(|svc| RpcServer::spawn(svc, Default::default()).unwrap());
    let log: Log = Arc::default();
    let addrs: Vec<SocketAddr> = servers
        .iter()
        .map(|s| proxy(s.addr(), Arc::clone(&log)))
        .collect();
    let mut rec = Recorder {
        log,
        out: Vec::new(),
    };
    let client_stats = Arc::new(EngineStats::new());

    // Block service. A block travels as a length-prefixed byte string,
    // which is how a `Vec<u8>` encodes.
    type Blocks = Vec<Result<Vec<u8>>>;
    let b = RpcBlockStore::connect_with(&addrs[..1], Arc::clone(&client_stats), 1).unwrap();
    rec.take::<(), Vec<NodeId>>("block.DESCRIBE");
    let items = vec![
        (BlockId::new(1), Bytes::from_static(b"abcdefgh")),
        (BlockId::new(2), Bytes::from_static(b"ijkl")),
    ];
    assert!(b.put_many(0, &items).iter().all(|r| r.is_ok()));
    rec.take::<(usize, Vec<(BlockId, Vec<u8>)>), Vec<Result<()>>>("block.PUT_MANY");
    assert!(b.contains(0, BlockId::new(1)));
    rec.take::<(usize, BlockId), bool>("block.CONTAINS");
    let got = b.get_many(0, &[BlockId::new(1), BlockId::new(99)]);
    assert_eq!(got[0].as_deref(), Ok(&b"abcdefgh"[..]));
    assert!(got[1].is_err());
    rec.take::<(usize, Vec<BlockId>), Blocks>("block.GET_MANY");
    let freed = b.delete_many(0, &[BlockId::new(2), BlockId::new(99)]);
    assert_eq!(freed, vec![Ok(4), Ok(0)]);
    rec.take::<(usize, Vec<BlockId>), Vec<Result<u64>>>("block.DELETE_MANY");
    assert_eq!(b.block_count(0), 1);
    rec.take::<usize, usize>("block.BLOCK_COUNT");
    assert_eq!(b.bytes_stored(0), 8);
    rec.take::<usize, u64>("block.BYTES_STORED");
    assert_eq!(b.op_counts(0), (2, 2));
    rec.take::<usize, (u64, u64)>("block.OP_COUNTS");

    // Meta service.
    type Nodes = Vec<(NodeKey, TreeNode)>;
    let m = RpcMetaStore::connect_with(addrs[1], Arc::clone(&client_stats), 1).unwrap();
    rec.take::<(), usize>("meta.SHARD_COUNT");
    let inner = TreeNode::Inner {
        left: Some(nref(1, 1)),
        right: None,
    };
    let k_leaf = key(1, 1, 0, 1);
    let k_inner = key(1, 1, 0, 2);
    let put = m.put_many(&[(k_leaf, leaf(1, vec![0], 8)), (k_inner, inner.clone())]);
    assert!(put.iter().all(|r| r.is_ok()));
    rec.take::<Nodes, Vec<Result<()>>>("meta.PUT_MANY");
    let levels = m.put_levels(&[
        vec![(key(1, 2, 1, 1), leaf(2, vec![1, 0], 4))],
        vec![(key(1, 2, 0, 2), TreeNode::LeafAlias(Some(nref(1, 1))))],
    ]);
    assert!(levels.iter().flatten().all(|r| r.is_ok()));
    rec.take::<Nodes, Vec<Result<()>>>("meta.PUT_LEVELS");
    let conflict = m.put_many(&[(k_leaf, leaf(9, vec![0], 8))]);
    assert!(conflict[0].is_err());
    rec.take::<Nodes, Vec<Result<()>>>("meta.PUT_MANY.conflict");
    let got = m.get_many(&[k_leaf, k_inner, key(5, 5, 0, 1)]);
    assert_eq!(got[1], Ok(inner));
    assert!(got[2].is_err());
    rec.take::<Vec<NodeKey>, Vec<Result<TreeNode>>>("meta.GET_MANY");
    let gone = m.delete_many(&[key(1, 2, 1, 1), key(5, 5, 0, 1)]);
    assert_eq!(gone, vec![Ok(true), Ok(false)]);
    rec.take::<Vec<NodeKey>, Vec<Result<bool>>>("meta.DELETE_MANY");
    assert_eq!(m.node_count(), 3);
    rec.take::<(), usize>("meta.NODE_COUNT");
    assert_eq!(m.shard_stats().len(), 2);
    rec.take::<(), Vec<(usize, u64, u64)>>("meta.SHARD_STATS");
    m.crash_shard(99);
    rec.take::<usize, ()>("meta.CRASH_SHARD.error");

    // Version service.
    let v = RpcVersionService::connect_with(addrs[2], Arc::clone(&client_stats), 1).unwrap();
    rec.take::<(), u64>("version.BLOCK_SIZE");
    let blob = v.create_blob().unwrap();
    rec.take::<(), BlobId>("version.CREATE_BLOB");
    let t1 = v.assign(blob, WriteIntent::Append { size: 128 }).unwrap();
    rec.take::<(BlobId, WriteIntent), WriteTicket>("version.ASSIGN");
    v.commit(blob, t1.version).unwrap();
    rec.take::<(BlobId, Version), ()>("version.COMMIT");
    let write = WriteIntent::Write {
        offset: 64,
        size: 64,
    };
    let t2 = v.assign(blob, write).unwrap();
    rec.take::<(BlobId, WriteIntent), WriteTicket>("version.ASSIGN.write");
    v.commit(blob, t2.version).unwrap();
    rec.take::<(BlobId, Version), ()>("version.COMMIT.2");
    assert_eq!(v.latest(blob).unwrap(), (t2.version, 128));
    rec.take::<BlobId, (Version, u64)>("version.LATEST");
    assert_eq!(v.snapshot_info(blob, t1.version).unwrap().size, 128);
    rec.take::<(BlobId, Version), SnapshotInfo>("version.SNAPSHOT_INFO");
    assert!(v.snapshot_info(blob, Version::new(99)).is_err());
    rec.take::<(BlobId, Version), SnapshotInfo>("version.SNAPSHOT_INFO.error");
    assert_eq!(v.chain(blob).unwrap().segments().len(), 1);
    rec.take::<BlobId, LogChain>("version.CHAIN");
    let timeout = Duration::from_secs(1);
    v.wait_revealed(blob, t2.version, timeout).unwrap();
    rec.take::<(BlobId, Version, Duration), ()>("version.WAIT_REVEALED");
    let fork = v.branch(blob, t1.version).unwrap();
    rec.take::<(BlobId, Version), BlobId>("version.BRANCH");
    let t3 = v.assign(fork, WriteIntent::Append { size: 64 }).unwrap();
    rec.take::<(BlobId, WriteIntent), WriteTicket>("version.ASSIGN.fork");
    assert_eq!(v.pending_versions(fork).unwrap(), vec![t3.version]);
    rec.take::<BlobId, Vec<Version>>("version.PENDING_VERSIONS");
    v.commit(fork, t3.version).unwrap();
    rec.take::<(BlobId, Version), ()>("version.COMMIT.fork");
    assert!(!v.collect_before(blob, t2.version).unwrap().is_empty());
    rec.take::<(BlobId, Version), Vec<NodeKey>>("version.COLLECT_BEFORE");
    assert!(!v.delete_blob(fork).unwrap().is_empty());
    rec.take::<BlobId, Vec<NodeKey>>("version.DELETE_BLOB");

    // Placement service.
    let p = RpcPlacementService::connect_with(addrs[3], Arc::clone(&client_stats), 1).unwrap();
    rec.take::<(), usize>("placement.PROVIDER_COUNT");
    assert_eq!(p.allocate(3, 2).unwrap().len(), 3);
    rec.take::<(usize, usize), Vec<BlockAllocation>>("placement.ALLOCATE");
    p.release_many(&[0, 1]).unwrap();
    rec.take::<Vec<usize>, ()>("placement.RELEASE_MANY");
    assert_eq!(p.load_vector().unwrap().len(), 2);
    rec.take::<(), Vec<u64>>("placement.LOAD_VECTOR");
    assert!(matches!(
        p.register_provider(NodeId::new(42)),
        Err(Error::Unsupported(_))
    ));
    rec.take::<NodeId, usize>("placement.REGISTER_PROVIDER");
    p.heartbeat(0).unwrap();
    rec.take::<usize, u64>("placement.HEARTBEAT");
    assert!(p.allocate(1, 9).is_err());
    rec.take::<(usize, usize), Vec<BlockAllocation>>("placement.ALLOCATE.error");

    // GC service.
    let g = RpcGcService::connect_with(addrs[4], Arc::clone(&client_stats), 1).unwrap();
    g.inc_nodes(&[k_inner, k_leaf]).unwrap();
    rec.take::<Vec<NodeKey>, ()>("gc.INC_NODES");
    assert_eq!(g.node_count(&k_inner).unwrap(), 1);
    rec.take::<NodeKey, u64>("gc.NODE_COUNT");
    assert_eq!(g.tracked_nodes().unwrap(), 2);
    rec.take::<(), usize>("gc.TRACKED_NODES");
    assert!(g.release_roots(&[k_inner]).unwrap().nodes_deleted >= 1);
    rec.take::<Vec<NodeKey>, GcReport>("gc.RELEASE_ROOTS");
    drop(servers);
    rec.out
}

// --- disk and replica-log records --------------------------------------------

/// A volume frame: a [`VolumeHead`], then exactly the block it announces.
fn volume_frame(bytes: &[u8]) -> Result<Vec<u8>> {
    let mut r = WireReader::new(bytes);
    let head = VolumeHead::get(&mut r)?;
    let block = &bytes[bytes.len() - r.remaining()..];
    let announced = match head {
        VolumeHead::Put { len, .. } => len,
        VolumeHead::Tombstone { .. } => 0,
    };
    if block.len() as u64 != announced {
        return Err(Error::Transport(format!(
            "{} bytes behind {head:?}",
            block.len()
        )));
    }
    Ok([head.to_bytes(), block.to_vec()].concat())
}

/// One sample per frame of the log at `path`; frame `i` decodes with
/// `reencode(i)`.
fn frames(prefix: &str, path: &Path, reencode: fn(usize) -> Reencode, out: &mut Vec<Sample>) {
    let mut payloads = Vec::new();
    FrameLog::open_with(path, |_, payload| {
        payloads.push(payload.to_vec());
        Ok(())
    })
    .unwrap();
    for (i, bytes) in payloads.into_iter().enumerate() {
        out.push(Sample {
            name: format!("{prefix}.{i}"),
            bytes,
            reencode: reencode(i),
        });
    }
}

fn disk_samples(dir: &Path) -> Vec<Sample> {
    let mut s = Vec::new();
    let meta = dir.join("meta");
    {
        let store = DiskMetaStore::open(&meta, 1).unwrap();
        let k = key(1, 2, 4, 4);
        let node = TreeNode::Inner {
            left: None,
            right: Some(nref(1, 1)),
        };
        let put = store.put_many(&[(k, node), (key(1, 2, 4, 1), leaf(3, vec![1], 9))]);
        assert!(put.iter().all(|r| r.is_ok()));
        assert_eq!(store.delete_many(&[k]), vec![Ok(true)]);
    }
    let shard = blobseer_disk::record_log::shard_path(&meta, 0);
    frames(
        "disk.record_log",
        &shard,
        |_| reencode::<MetaRecord>,
        &mut s,
    );

    let vol = dir.join("volume");
    {
        let volume = DiskVolume::open(&vol, NodeId::new(0)).unwrap();
        let items = [(BlockId::new(300), Bytes::from_static(b"payload"))];
        assert!(volume.put_many(&items).iter().all(|r| r.is_ok()));
        assert_eq!(volume.delete_many(&[BlockId::new(300)]), vec![Ok(7)]);
    }
    frames("disk.volume", &vol, |_| volume_frame, &mut s);

    let rep = dir.join("replog");
    {
        let group = ReplicatedVersionService::open(&rep, 1, 64).unwrap();
        let blob = group.create_blob().unwrap();
        let write = WriteIntent::Write {
            offset: 64,
            size: 64,
        };
        let t = group.assign(blob, write).unwrap();
        group.commit(blob, t.version).unwrap();
        group
            .assign(blob, WriteIntent::Append { size: 64 })
            .unwrap();
        let fork = group.branch(blob, t.version).unwrap();
        group.collect_before(blob, t.version).unwrap();
        group.delete_blob(fork).unwrap();
    }
    let log = rep.join("vm-replica-0.log");
    // Frame 0 is the block-size header, every later frame one entry.
    let replica_frame = |i| match i {
        0 => reencode::<u64>,
        _ => reencode::<RepEntry>,
    };
    frames("control.replog", &log, replica_frame, &mut s);
    s
}

// --- the gate ----------------------------------------------------------------

/// Every sample, encoded by today's code (built once per test binary).
fn samples() -> &'static [Sample] {
    static SAMPLES: OnceLock<Vec<Sample>> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let dir = TempDir::new("golden-bytes");
        let mut all = type_samples();
        all.extend(rpc_samples());
        all.extend(disk_samples(dir.path()));
        all
    })
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The fixture: sample name → bytes, in file order.
fn golden() -> BTreeMap<String, Vec<u8>> {
    let text = include_str!("fixtures/golden_bytes.txt");
    let unhex = |h: &str| {
        (0..h.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&h[i..i + 2], 16).unwrap())
            .collect()
    };
    text.lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| {
            let (name, h) = line.split_once(' ').unwrap();
            (name.to_string(), unhex(h))
        })
        .collect()
}

#[test]
fn every_sample_encodes_to_its_golden_bytes() {
    let golden = golden();
    let ours: BTreeMap<&str, &[u8]> = (samples().iter())
        .map(|s| (s.name.as_str(), &s.bytes[..]))
        .collect();
    assert_eq!(ours.len(), samples().len(), "sample names are unique");
    let mut diffs = Vec::new();
    for (name, want) in &golden {
        match ours.get(name.as_str()) {
            Some(got) if got == want => {}
            Some(got) => diffs.push(format!("{name}: {} != golden {}", hex(got), hex(want))),
            None => diffs.push(format!("{name}: no longer produced")),
        }
    }
    for name in ours.keys().filter(|&&n| !golden.contains_key(n)) {
        diffs.push(format!("{name}: not in the fixture"));
    }
    assert!(diffs.is_empty(), "{}", diffs.join("\n"));
}

#[test]
fn every_golden_sample_decodes_and_reencodes_to_itself() {
    let golden = golden();
    for s in samples() {
        let bytes = &golden[&s.name];
        assert_eq!((s.reencode)(bytes).as_ref(), Ok(bytes), "{}", s.name);
    }
}

#[test]
fn every_truncation_of_every_sample_is_an_error() {
    for s in samples() {
        for cut in 0..s.bytes.len() {
            let got = (s.reencode)(&s.bytes[..cut]);
            assert!(got.is_err(), "{} cut at {cut} decoded: {got:?}", s.name);
        }
    }
}
