//! The parallel data path, end to end: client-side fan-out must change
//! *when* I/O happens (overlapped, not serialized) without changing any
//! observable byte, any failure-atomicity guarantee, or any simulated
//! clock. Each test pins one face of that contract:
//!
//! * fan-out vs. serial deployments are byte- and counter-identical;
//! * a mid-fan-out put failure still undoes the whole allocation;
//! * the RPC servers *structurally* observe overlapping requests
//!   (in-flight high watermark > 1) only where the client overlaps them
//!   across connections: the fan-out executor;
//! * a BSFS stream delivers its pinned snapshot byte-for-byte even while
//!   a writer appends concurrently;
//! * one-block reads over RPC return exactly the range asked for;
//! * replica failover retries are batched and counted;
//! * SimGate runs stay deterministic under the overlap charging model.

use blobseer_core::faults::{FaultPlan, FaultyBlockStore, PutFault};
use blobseer_core::ports::BlockStore;
use blobseer_core::{BlobClient, BlobSeer, EnginePorts};
use blobseer_disk::testutil::TempDir;
use blobseer_rpc::LoopbackCluster;
use blobseer_types::{BlobSeerConfig, BlockId, Error, NodeId, Result};
use bsfs::BsfsInput;
use bytes::Bytes;
use dfs::api::DfsInput;
use experiments::concurrent::{self, ClientTask};
use experiments::Constants;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

const BLOCK: u64 = 64;

fn cfg_with_threads(threads: usize) -> BlobSeerConfig {
    BlobSeerConfig::small_for_tests()
        .with_block_size(BLOCK)
        .with_client_io_threads(threads)
}

fn deploy_in_memory(threads: usize, seed: u64) -> std::sync::Arc<BlobSeer> {
    let cfg = cfg_with_threads(threads);
    let ports = EnginePorts::in_memory(&cfg, (0..4).map(NodeId::new).collect(), seed);
    BlobSeer::deploy_ports(cfg, ports)
}

/// A deployment with one executor thread and one with eight must produce
/// the same bytes *and* the same fan-out accounting: the executor changes
/// when I/O happens, never what is stored, read, or counted.
#[test]
fn fanout_and_serial_deployments_are_byte_and_counter_identical() {
    let payload: Vec<u8> = (0..64 * BLOCK).map(|i| (i % 251) as u8).collect();
    let run = |threads: usize| {
        let sys = deploy_in_memory(threads, 0xFA_0001);
        let client = sys.client(NodeId::new(0));
        let blob = client.create();
        client.write(blob, 0, &payload).unwrap();
        let data = client.read(blob, None, 0, payload.len() as u64).unwrap();
        let snap = sys.stats().snapshot();
        (
            data,
            snap.fanout_batches,
            snap.fanout_max_width,
            snap.read_replica_fallbacks,
        )
    };
    let (serial, serial_batches, serial_width, serial_fallbacks) = run(1);
    let (fanned, fanned_batches, fanned_width, fanned_fallbacks) = run(8);
    assert_eq!(&serial[..], &payload[..], "serial read corrupted");
    assert_eq!(&fanned[..], &serial[..], "fan-out changed the bytes");
    // The dispatch structure is deterministic: same batches, same widths,
    // whether they ran inline or on eight threads.
    assert_eq!(fanned_batches, serial_batches);
    assert_eq!(fanned_width, serial_width);
    assert_eq!(fanned_width, 4, "data phase fans out across 4 providers");
    assert_eq!((serial_fallbacks, fanned_fallbacks), (0, 0));
}

/// One provider refusing one put mid-fan-out must abort the write *and*
/// undo every block the other concurrently-running batches already
/// stored — whole-allocation undo, not per-batch (§VI-B: failed writers
/// leave no partial allocation behind).
#[test]
fn failed_put_mid_fanout_undoes_the_whole_allocation() {
    let cfg = cfg_with_threads(4);
    let base = EnginePorts::in_memory(&cfg, (0..4).map(NodeId::new).collect(), 0xFA_0002);
    let plan = FaultPlan::new();
    let store = Arc::new(FaultyBlockStore::new(
        Arc::clone(&base.providers),
        Arc::clone(&plan),
    ));
    let ports = EnginePorts {
        providers: Arc::clone(&store) as Arc<dyn BlockStore>,
        ..base
    };
    let sys = BlobSeer::deploy_ports(cfg, ports);
    let client = sys.client(NodeId::new(0));
    let blob = client.create();

    plan.set(PutFault::FailOnce);
    let err = client
        .write(blob, 0, &vec![7u8; (16 * BLOCK) as usize])
        .unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    assert!(plan.counters().1 >= 1, "the injected fault fired");
    for provider in 0..store.len() {
        assert_eq!(
            store.block_count(provider),
            0,
            "provider {provider} kept blocks from the aborted allocation"
        );
        assert_eq!(store.bytes_stored(provider), 0);
    }

    // The deployment is healthy afterwards: the next write lands in full.
    let payload = vec![9u8; (16 * BLOCK) as usize];
    client.write(blob, 0, &payload).unwrap();
    let data = client.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&data[..], &payload[..]);
}

/// Structural proof of overlap, from the servers' in-flight watermark.
/// Only the fan-out executor serves one client's requests at the same
/// time: a read-only run (descent over several levels, fetches from eight
/// providers) on a fresh cluster keeps the watermark at 1 with one
/// executor thread and raises it with eight. The pipelined metadata phase
/// puts every level's frame on one connection before it awaits an answer
/// (`tests/rpc_mux.rs` proves that), but a connection's frames are served
/// in order, so a one-thread client's append leaves the watermark at 1.
#[test]
fn rpc_in_flight_watermark_exceeds_one_only_under_fanout() {
    let payload = vec![3u8; (32 * BLOCK) as usize];
    let tmp = TempDir::new("parallel-io-watermark");
    let cfg = |threads| cfg_with_threads(threads).with_data_dir(tmp.path());

    // A first cluster only writes what the read-only runs will read; the
    // watermarks under test are those of *fresh* clusters booted over the
    // same directory afterwards.
    let blob = {
        let writer = LoopbackCluster::boot(cfg(1), 8).unwrap();
        let client = writer.deploy().unwrap().client(NodeId::new(100));
        let blob = client.create();
        client.write(blob, 0, &payload).unwrap();
        blob
    };
    let read_all = |client: &BlobClient| {
        let data = client.read(blob, None, 0, payload.len() as u64).unwrap();
        assert_eq!(&data[..], &payload[..]);
    };

    {
        let fanned = LoopbackCluster::boot(cfg(8), 8).unwrap();
        let client = fanned.deploy().unwrap().client(NodeId::new(100));
        // Overlap is a scheduling fact, not a protocol guarantee per call:
        // retry a few reads until the watermark proves it happened.
        for _ in 0..20 {
            read_all(&client);
            if fanned.in_flight_high_watermark() >= 2 {
                break;
            }
        }
        assert!(
            fanned.in_flight_high_watermark() >= 2,
            "8-wide fan-out never produced overlapping in-flight requests \
             (watermark {})",
            fanned.in_flight_high_watermark()
        );
    }

    let serial = LoopbackCluster::boot(cfg(1), 8).unwrap();
    let client = serial.deploy().unwrap().client(NodeId::new(100));
    for _ in 0..3 {
        read_all(&client);
    }
    assert_eq!(
        serial.in_flight_high_watermark(),
        1,
        "a one-thread client's descent and fetches never overlap"
    );

    // One block appended to the 32-block BLOB: capacity 64, a tree path of
    // 7 levels, one `put_many` frame each, pipelined on one connection and
    // served there one after another.
    for _ in 0..20 {
        client.append(blob, &[9u8; BLOCK as usize]).unwrap();
    }
    assert_eq!(
        serial.in_flight_high_watermark(),
        1,
        "a one-thread client's appends never overlap on the servers"
    );
}

/// A read inside one block is the `GET_MANY` answer's own bytes, sliced
/// rather than copied: over loopback RPC it must still return exactly the
/// range asked for — a whole block, an interior range, and the short last
/// block at the BLOB's end — while reads across blocks are assembled.
#[test]
fn one_block_reads_over_loopback_return_the_right_bytes() {
    let cluster = LoopbackCluster::boot(cfg_with_threads(2), 4).unwrap();
    let client = cluster.deploy().unwrap().client(NodeId::new(100));
    let blob = client.create();
    let payload: Vec<u8> = (0..4 * BLOCK + 20).map(|i| (i % 253) as u8).collect();
    client.write(blob, 0, &payload).unwrap();
    let ranges = [
        (0, BLOCK),
        (BLOCK + 3, 50),
        (4 * BLOCK, 20),
        (4 * BLOCK + 5, 15),
        (BLOCK - 4, 8),
        (0, 4 * BLOCK + 20),
    ];
    for (offset, size) in ranges {
        let got = client.read(blob, None, offset, size).unwrap();
        let want = &payload[offset as usize..(offset + size) as usize];
        assert_eq!(&got[..], want, "{size} bytes at {offset}");
    }
}

/// A BSFS stream reads a *pinned* snapshot: even with a writer appending
/// concurrently, the delivered bytes equal the plain read of that
/// snapshot.
#[test]
fn stream_matches_pinned_snapshot_under_concurrent_appends() {
    let cfg = cfg_with_threads(4);
    let ports = EnginePorts::in_memory(&cfg, (0..4).map(NodeId::new).collect(), 0xFA_0003);
    let sys = BlobSeer::deploy_ports(cfg, ports);
    let client = sys.client(NodeId::new(0));
    let blob = client.create();
    let payload: Vec<u8> = (0..32 * BLOCK).map(|i| (i % 239) as u8).collect();
    client.write(blob, 0, &payload).unwrap();

    let mut input = BsfsInput::open(client.clone(), blob).unwrap();
    let pinned = input.version();
    std::thread::scope(|scope| {
        // A concurrent appender racing the stream: the pinned version
        // must shield every delivered byte from it.
        let appender = client.clone();
        scope.spawn(move || {
            for i in 0..8u8 {
                appender
                    .append(blob, &[0xA0 | (i & 0x0F); BLOCK as usize])
                    .unwrap();
            }
        });
        let mut streamed = Vec::new();
        let mut buf = [0u8; 113]; // deliberately misaligned chunks
        loop {
            let n = input.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            streamed.extend_from_slice(&buf[..n]);
        }
        assert_eq!(
            &streamed[..],
            &payload[..],
            "the stream leaked appended bytes"
        );
    });
    let plain = client
        .read(blob, Some(pinned), 0, payload.len() as u64)
        .unwrap();
    assert_eq!(&plain[..], &payload[..]);
}

/// A [`BlockStore`] decorator that fails the next vectored get wholesale —
/// the shape of a provider crashing between locate and fetch.
struct FailNextGet {
    inner: Arc<dyn BlockStore>,
    armed: AtomicBool,
}

impl BlockStore for FailNextGet {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn node(&self, provider: usize) -> NodeId {
        self.inner.node(provider)
    }
    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.inner.index_of_node(node)
    }
    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        self.inner.put_many(provider, items)
    }
    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        if self.armed.swap(false, Ordering::SeqCst) {
            return ids
                .iter()
                .map(|&id| Err(Error::MissingBlock(id.raw())))
                .collect();
        }
        self.inner.get_many(provider, ids)
    }
    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.inner.contains(provider, id)
    }
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        self.inner.delete_many(provider, ids)
    }
    fn block_count(&self, provider: usize) -> usize {
        self.inner.block_count(provider)
    }
    fn bytes_stored(&self, provider: usize) -> u64 {
        self.inner.bytes_stored(provider)
    }
    fn op_counts(&self, provider: usize) -> (u64, u64) {
        self.inner.op_counts(provider)
    }
}

/// When the deterministically chosen replica refuses a batch, the read
/// fails over to the surviving replicas — batched, counted, and invisible
/// to the caller.
#[test]
fn replica_fallback_is_batched_and_counted() {
    let cfg = BlobSeerConfig {
        replication: 2,
        ..cfg_with_threads(4)
    };
    let base = EnginePorts::in_memory(&cfg, (0..4).map(NodeId::new).collect(), 0xFA_0004);
    let store = Arc::new(FailNextGet {
        inner: Arc::clone(&base.providers),
        armed: AtomicBool::new(false),
    });
    let ports = EnginePorts {
        providers: Arc::clone(&store) as Arc<dyn BlockStore>,
        ..base
    };
    let sys = BlobSeer::deploy_ports(cfg, ports);
    let client = sys.client(NodeId::new(0));
    let blob = client.create();
    let payload: Vec<u8> = (0..4 * BLOCK).map(|i| (i % 101) as u8).collect();
    client.write(blob, 0, &payload).unwrap();
    assert_eq!(sys.stats().snapshot().read_replica_fallbacks, 0);

    store.armed.store(true, Ordering::SeqCst);
    let data = client.read(blob, None, 0, payload.len() as u64).unwrap();
    assert_eq!(&data[..], &payload[..], "failover changed the bytes");
    assert!(
        sys.stats().snapshot().read_replica_fallbacks >= 1,
        "the failed primary batch must be retried against replicas"
    );
}

/// Same interleaving, same clocks — the overlap charging model
/// (per-phase `overhead + max(batch times)`) must keep SimGate runs fully
/// deterministic.
#[test]
fn simgate_runs_stay_deterministic_under_overlap_charging() {
    const SIM_BLOCK: u64 = 256;
    let run = || {
        let dep = concurrent::deploy(&Constants::default(), 8, 8, SIM_BLOCK);
        let boot = dep.sys.client(NodeId::new(0));
        let blob = boot.create();
        dep.set_charging(true);
        let ends = Mutex::new(Vec::new());
        let clients: Vec<ClientTask<'_>> = (0..8u64)
            .map(|i| {
                let (ends, fabric) = (&ends, &dep.fabric);
                (
                    NodeId::new(i),
                    Box::new(move |cl: BlobClient| {
                        let (offset, v) = cl.append(blob, &[i as u8; SIM_BLOCK as usize]).unwrap();
                        let data = cl.read(blob, Some(v), offset, SIM_BLOCK).unwrap();
                        assert!(data.iter().all(|&b| b == i as u8));
                        ends.lock()
                            .unwrap()
                            .push((i, fabric.gate().now().as_nanos()));
                    }) as Box<dyn FnOnce(BlobClient) + Send>,
                )
            })
            .collect();
        dep.run_clients(clients);
        let mut ends = ends.into_inner().unwrap();
        ends.sort_unstable();
        (ends, dep.now().as_nanos())
    };
    assert_eq!(run(), run(), "overlap charging broke determinism");
    assert_ne!(run().1, 0, "charging actually advanced the clock");
}
