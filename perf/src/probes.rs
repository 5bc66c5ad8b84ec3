//! Isolated probes: each times one layer's public functions on their own,
//! on the batch shape of the workload being traced, so the layer table can
//! set "what this layer costs inside an op" beside "what it costs alone".
//!
//! Every probe reports the median of many short repetitions inside a small
//! time budget; together they add about two seconds to a traced run.

use crate::err_str as err;
use crate::payload::SplitMix;
use crate::ports::ticket_wire_bytes;
use crate::rig::{config, ScratchDir, PROVIDERS};
use crate::stats::median;
use blobseer_control::ReplicatedVersionService;
use blobseer_core::block_store::ProviderSet;
use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::meta::node::{BlockDescriptor, TreeNode};
use blobseer_core::ports::{BlockStore, MetaStore, VersionService};
use blobseer_core::{EngineStats, VersionManager, WriteIntent};
use blobseer_disk::{DiskMetaStore, DiskVolume, DurableVersionService, FrameLog};
use blobseer_rpc::wire::{read_frame, write_frame};
use blobseer_rpc::{LoopbackCluster, RpcBlockStore, RpcVersionService};
use blobseer_types::wire::{WireReader, WireWriter};
use blobseer_types::{BlobId, BlockId, NodeId, Version};
use bytes::Bytes;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The block size and the blocks per provider batch of the workload the
/// probes run beside.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub block: usize,
    pub batch: usize,
}

impl Shape {
    pub fn of(workload: &str) -> Self {
        match workload {
            // 64 blocks over 4 providers.
            "rpc_bulk" | "disk_bulk" => Shape {
                block: 64 << 10,
                batch: 16,
            },
            "rpc_append_log" => Shape {
                block: 4 << 10,
                batch: 1,
            },
            // One write-behind block per append.
            _ => Shape {
                block: 64 << 10,
                batch: 1,
            },
        }
    }

    fn batch_mib(&self) -> f64 {
        (self.block * self.batch) as f64 / (1 << 20) as f64
    }
}

/// How long one probe may time for, and how long the "h8192" history
/// gets: a smoke run shrinks both (and its numbers mean nothing).
#[derive(Clone, Copy)]
pub struct Effort {
    pub budget: Duration,
    pub history: u64,
}

impl Effort {
    pub fn full() -> Self {
        Self {
            budget: Duration::from_millis(40),
            history: 8192,
        }
    }

    pub fn smoke() -> Self {
        Self {
            budget: Duration::from_millis(2),
            history: 2048,
        }
    }
}

/// Median of the seconds `f` reports, over as many calls as fit in
/// `budget` (at least five). `f` times its own measured part, so a probe
/// can prepare inputs untimed.
fn median_of(budget: Duration, mut f: impl FnMut() -> f64) -> f64 {
    let mut samples = Vec::new();
    let begun = Instant::now();
    while samples.len() < 5 || begun.elapsed() < budget {
        samples.push(f());
    }
    median(&samples)
}

/// Median seconds per call of `f`, all of it timed.
fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    median_of(budget, || {
        let clock = Instant::now();
        f();
        clock.elapsed().as_secs_f64()
    })
}

type Probes = BTreeMap<&'static str, f64>;
type Fallible = Result<(), String>;

/// Fresh block ids for every batch: stores treat a re-put as a no-op.
struct Batches {
    block: Bytes,
    batch: usize,
    next_id: u64,
}

impl Batches {
    fn new(shape: Shape, seed: u64) -> Self {
        let mut rng = SplitMix::new(seed);
        let bytes: Vec<u8> = (0..shape.block).map(|_| rng.next_u64() as u8).collect();
        Self {
            block: Bytes::from(bytes),
            batch: shape.batch,
            next_id: 1,
        }
    }

    fn next(&mut self) -> Vec<(BlockId, Bytes)> {
        (0..self.batch)
            .map(|_| {
                self.next_id += 1;
                (BlockId::new(self.next_id), self.block.clone())
            })
            .collect()
    }
}

/// `put_many`/`get_many` throughput of provider 0 of `store`, batches
/// deleted (untimed) as they go so the store does not grow.
fn block_store_mibps(
    store: &dyn BlockStore,
    shape: Shape,
    effort: Effort,
    seed: u64,
) -> Result<(f64, f64), String> {
    let mut batches = Batches::new(shape, seed);
    let mut failure = None;
    let mut items = Vec::new();
    let put = median_of(effort.budget, || {
        let ids: Vec<BlockId> = items.iter().map(|(id, _): &(BlockId, Bytes)| *id).collect();
        store.delete_many(0, &ids);
        items = batches.next();
        let clock = Instant::now();
        let results = store.put_many(0, &items);
        let secs = clock.elapsed().as_secs_f64();
        failure = failure
            .take()
            .or_else(|| results.into_iter().find_map(|r| r.err()));
        secs
    });
    let ids: Vec<BlockId> = items.iter().map(|(id, _)| *id).collect();
    let get = median_secs(effort.budget, || {
        let results = store.get_many(0, &ids);
        failure = failure
            .take()
            .or_else(|| results.into_iter().find_map(|r| r.err()));
    });
    store.delete_many(0, &ids);
    match failure {
        Some(e) => Err(err(e)),
        None => Ok((shape.batch_mib() / put, shape.batch_mib() / get)),
    }
}

/// Median microseconds of one `assign` + `commit` pair on `vm`.
fn assign_commit_us(
    vm: &dyn VersionService,
    blob: BlobId,
    block: u64,
    effort: Effort,
) -> Result<f64, String> {
    let mut failure = None;
    let secs = median_secs(effort.budget, || {
        let done = vm
            .assign(blob, WriteIntent::Append { size: block })
            .and_then(|t| vm.commit(blob, t.version));
        failure = failure.take().or(done.err());
    });
    failure.map_or(Ok(secs * 1e6), |e| Err(err(e)))
}

/// The version manager alone, at a short and a long history; the wire size
/// of the ticket it hands out as the history grows; and the log scan the
/// client's tree build does with that ticket.
fn version_manager(out: &mut Probes, shape: Shape, effort: Effort) -> Fallible {
    let block = shape.block as u64;
    let vm = VersionManager::new(block, Arc::new(EngineStats::new()));
    let blob = vm.create_blob();
    let grow_to = |target: u64| -> Result<u64, String> {
        // Appends until the BLOB has `target` versions; returns the wire
        // size of the last ticket.
        let mut bytes = 0;
        while vm.latest(blob).map_err(err)?.0.raw() < target {
            let ticket = vm
                .assign(blob, WriteIntent::Append { size: block })
                .map_err(err)?;
            vm.commit(blob, ticket.version).map_err(err)?;
            if ticket.version.raw() == target {
                bytes = ticket_wire_bytes(&ticket);
            }
        }
        Ok(bytes)
    };
    out.insert("vm.assign.ticket_bytes.h1", grow_to(1)? as f64);
    // A fresh BLOB for the short-history timing: the timed pairs
    // themselves grow the history.
    let short = vm.create_blob();
    out.insert(
        "vm.assign_commit_us.h1",
        assign_commit_us(&vm, short, block, effort)?,
    );
    out.insert("vm.assign.ticket_bytes.h1024", grow_to(1024)? as f64);
    let history = effort.history;
    grow_to(history - 1)?;

    // The append that creates version `history` lands on block
    // `history - 1`; its tree build looks up, for every level where its
    // path is a right child, the last writer of the left sibling.
    let chain = vm.chain(blob).map_err(err)?;
    let leaf = history - 1;
    let siblings: Vec<Pos> = (0..63)
        .map(|level| 1u64 << level)
        .take_while(|len| *len <= leaf)
        .filter(|len| (leaf / len) % 2 == 1)
        .map(|len| Pos::new((leaf / len - 1) * len, len))
        .collect();
    let scan = median_secs(effort.budget, || {
        for pos in &siblings {
            black_box(chain.materializer_before(*pos, Version::new(history)));
        }
    });
    out.insert("meta.materializer_scan_us.h8192", scan * 1e6);

    out.insert("vm.assign.ticket_bytes.h8192", grow_to(history)? as f64);
    out.insert(
        "vm.assign_commit_us.h8192",
        assign_commit_us(&vm, blob, block, effort)?,
    );

    let replicated = ReplicatedVersionService::new(3, block);
    let blob = replicated.create_blob().map_err(err)?;
    out.insert(
        "control.assign_commit_us.r3",
        assign_commit_us(&*replicated, blob, block, effort)?,
    );
    Ok(())
}

/// The RAM block store alone, then the same batch through the RPC adapter:
/// the difference is the wire tax. Plus the bare round trip, the frame
/// codec over an in-memory pipe, and the varint codec.
fn transport(out: &mut Probes, shape: Shape, effort: Effort, seed: u64) -> Fallible {
    let ram = ProviderSet::new(PROVIDERS, |i| NodeId::new(i as u64));
    let (put, get) = block_store_mibps(&ram, shape, effort, seed)?;
    out.insert("block.mem.put_many_mibps", put);
    out.insert("block.mem.get_many_mibps", get);

    let cluster = LoopbackCluster::boot(config(shape.block as u64), PROVIDERS).map_err(err)?;
    let stats = Arc::new(EngineStats::new());
    let remote = RpcBlockStore::connect(cluster.block_addrs(), Arc::clone(&stats)).map_err(err)?;
    let (put, get) = block_store_mibps(&remote, shape, effort, seed)?;
    out.insert("rpc.block.put_many_mibps", put);
    out.insert("rpc.block.get_many_mibps", get);

    let vm = RpcVersionService::connect(cluster.vm_addr(), stats).map_err(err)?;
    let blob = vm.create_blob().map_err(err)?;
    let mut failure = None;
    let rtt = median_secs(effort.budget, || {
        failure = failure.take().or(vm.latest(blob).err());
    });
    if let Some(e) = failure {
        return Err(err(e));
    }
    out.insert("rpc.noop_rtt_us", rtt * 1e6);
    drop((remote, vm));
    drop(cluster);

    let mut rng = SplitMix::new(seed);
    let body: Vec<u8> = (0..1 << 20).map(|_| rng.next_u64() as u8).collect();
    let mut pipe = Vec::with_capacity(body.len() + 16);
    let mut failure = None;
    let framed = median_secs(effort.budget, || {
        pipe.clear();
        let back = write_frame(&mut pipe, 7, &body).and_then(|()| read_frame(&mut &pipe[..]));
        match back {
            Ok(Some((7, got))) if got.len() == body.len() => {}
            Ok(_) => failure = Some("frame did not round-trip".to_string()),
            Err(e) => failure = Some(err(e)),
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    out.insert("rpc.frame.write_read_mibps", 1.0 / framed);

    // 1024 values spread over every varint length.
    let values: Vec<u64> = (0..1024)
        .map(|_| rng.next_u64() >> (rng.next_u64() % 64))
        .collect();
    let mut decoded_all = true;
    let coded = median_secs(effort.budget, || {
        let mut w = WireWriter::new();
        for &v in &values {
            w.put_u64(v);
        }
        let mut r = WireReader::new(w.as_slice());
        for &v in &values {
            decoded_all &= r.get_u64().is_ok_and(|got| got == v);
        }
    });
    if !decoded_all {
        return Err("varint did not round-trip".into());
    }
    out.insert("types.wire.varint_ns", coded * 1e9 / values.len() as f64);
    Ok(())
}

/// The disk stores alone, in a scratch directory (no fsync, as shipped).
fn disk(out: &mut Probes, shape: Shape, effort: Effort, seed: u64) -> Fallible {
    let dir = ScratchDir::new("probe").map_err(err)?;
    let block = shape.block as u64;

    let volume = DiskVolume::open(dir.path().join("volume.log"), NodeId::new(0)).map_err(err)?;
    let mut batches = Batches::new(shape, seed);
    let mut failure = None;
    let mut items = Vec::new();
    let put = median_of(effort.budget, || {
        items = batches.next();
        let clock = Instant::now();
        let results = volume.put_many(&items);
        let secs = clock.elapsed().as_secs_f64();
        failure = failure
            .take()
            .or_else(|| results.into_iter().find_map(|r| r.err()));
        secs
    });
    let ids: Vec<BlockId> = items.iter().map(|(id, _)| *id).collect();
    let get = median_secs(effort.budget, || {
        let results = volume.get_many(&ids);
        failure = failure
            .take()
            .or_else(|| results.into_iter().find_map(|r| r.err()));
    });
    out.insert("disk.volume.put_many_mibps", shape.batch_mib() / put);
    out.insert("disk.volume.get_many_mibps", shape.batch_mib() / get);
    // Replay of what the put probe just wrote (timed once per reopen; a
    // log of a few MiB replays in milliseconds, so repeat it).
    let log_mib = std::fs::metadata(volume.path()).map_err(err)?.len() as f64 / (1 << 20) as f64;
    let replay = median_secs(effort.budget, || {
        failure = failure.take().or(volume.reopen().err());
    });
    out.insert("disk.volume.reopen_mibps", log_mib / replay);
    drop(volume);

    let mut log = FrameLog::open(dir.path().join("frame.log")).map_err(err)?;
    let payload = Batches::new(shape, seed).block;
    let append = median_secs(effort.budget, || {
        failure = failure.take().or(log.append(&payload).err());
    });
    out.insert(
        "disk.frame.append_mibps",
        shape.block as f64 / (1 << 20) as f64 / append,
    );
    drop(log);

    // One tree level of 64 leaves per call, as a 64-block write publishes.
    let meta = DiskMetaStore::open(dir.path().join("meta"), config(block).metadata_providers)
        .map_err(err)?;
    let mut version = 0;
    let level = median_of(effort.budget, || {
        version += 1;
        let nodes: Vec<(NodeKey, TreeNode)> = (0..64)
            .map(|i| {
                let leaf = TreeNode::Leaf(BlockDescriptor {
                    block_id: BlockId::new(i),
                    providers: vec![0],
                    len: shape.block as u32,
                });
                (
                    NodeKey::new(BlobId::new(1), Version::new(version), Pos::new(i, 1)),
                    leaf,
                )
            })
            .collect();
        let clock = Instant::now();
        let results = meta.put_many(&nodes);
        let secs = clock.elapsed().as_secs_f64();
        failure = failure
            .take()
            .or_else(|| results.into_iter().find_map(|r| r.err()));
        secs
    });
    out.insert("disk.record_log.put_many_nodes_per_s", 64.0 / level);
    drop(meta);

    let vm = DurableVersionService::open(dir.path().join("version.log"), block).map_err(err)?;
    let blob = vm.create_blob().map_err(err)?;
    out.insert(
        "disk.version_log.assign_commit_us",
        assign_commit_us(&vm, blob, block, effort)?,
    );
    failure.map_or(Ok(()), |e| Err(err(e)))
}

/// Runs every probe; the values by metric name.
pub fn run(shape: Shape, effort: Effort, seed: u64) -> Result<Probes, String> {
    let mut out = Probes::new();
    version_manager(&mut out, shape, effort)?;
    transport(&mut out, shape, effort, seed)?;
    disk(&mut out, shape, effort, seed)?;
    Ok(out)
}
