//! Microbenchmarks of the versioned segment tree: the cost of publishing
//! write metadata and locating blocks, as a function of file size and
//! update width. These are the O(log n) paths the paper's decentralized
//! metadata design relies on (§III-A.3).

use blobseer_core::dht::MetaDht;
use blobseer_core::gc::GcTracker;
use blobseer_core::meta::key::BlockRange;
use blobseer_core::meta::log::{LogChain, LogEntry, LogSegment, SharedLog, WriteLog};
use blobseer_core::meta::node::BlockDescriptor;
use blobseer_core::meta::tree::TreeStore;
use blobseer_core::ports::{GcService, MetaStore};
use blobseer_core::stats::EngineStats;
use blobseer_core::FanoutExecutor;
use blobseer_types::{BlobId, BlockId, Version};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;

struct Fx {
    dht: Arc<dyn MetaStore>,
    gc: Arc<dyn GcService>,
    stats: EngineStats,
    exec: FanoutExecutor,
    log: SharedLog,
    blob: BlobId,
}

impl Fx {
    fn new() -> Self {
        Self {
            dht: Arc::new(MetaDht::new(20, 1)),
            gc: Arc::new(GcTracker::new()),
            stats: EngineStats::new(),
            exec: FanoutExecutor::new(1),
            log: Arc::new(RwLock::new(WriteLog::new())),
            blob: BlobId::new(1),
        }
    }

    fn chain(&self) -> LogChain {
        LogChain::new(vec![LogSegment::full(
            self.blob,
            Arc::clone(&self.log),
            Version::ZERO,
            Version::new(u64::MAX),
        )])
    }

    fn write(&self, v: u64, start: u64, end: u64, cap: u64) {
        let entry = LogEntry {
            version: Version::new(v),
            blocks: BlockRange::new(start, end),
            cap_before: if v == 1 { 0 } else { cap },
            cap_after: cap,
            size_after: cap * 64,
        };
        self.log.write().push(entry);
        let leaves: HashMap<u64, BlockDescriptor> = (start..end)
            .map(|b| {
                (
                    b,
                    BlockDescriptor {
                        block_id: BlockId::new(v * 100_000 + b),
                        providers: vec![0],
                        len: 64,
                    },
                )
            })
            .collect();
        let store = TreeStore {
            dht: &self.dht,
            gc: &self.gc,
            stats: &self.stats,
            exec: &self.exec,
        };
        store
            .publish_write(self.blob, &entry, &self.chain(), &leaves)
            .unwrap();
    }
}

/// Publishing a full initial tree of `n` blocks.
fn bench_publish_full(c: &mut Criterion) {
    let mut g = c.benchmark_group("segment_tree/publish_full");
    for &blocks in &[64u64, 256, 1024] {
        g.bench_with_input(
            BenchmarkId::from_parameter(blocks),
            &blocks,
            |b, &blocks| {
                b.iter(|| {
                    let fx = Fx::new();
                    fx.write(1, 0, blocks, blocks);
                    black_box(fx.dht.node_count())
                });
            },
        );
    }
    g.finish();
}

/// Publishing a single-block overwrite into an existing tree (the per-append
/// cost in steady state — one root-to-leaf path).
fn bench_publish_single_block(c: &mut Criterion) {
    let mut g = c.benchmark_group("segment_tree/publish_one_block_update");
    for &blocks in &[64u64, 1024] {
        g.bench_with_input(
            BenchmarkId::from_parameter(blocks),
            &blocks,
            |b, &blocks| {
                let fx = Fx::new();
                fx.write(1, 0, blocks, blocks);
                let mut v = 2u64;
                b.iter(|| {
                    fx.write(v, v % blocks, v % blocks + 1, blocks);
                    v += 1;
                });
            },
        );
    }
    g.finish();
}

/// Locating one block vs the whole range in a 1024-block snapshot.
fn bench_locate(c: &mut Criterion) {
    let fx = Fx::new();
    let blocks = 1024;
    fx.write(1, 0, blocks, blocks);
    let store = TreeStore {
        dht: &fx.dht,
        gc: &fx.gc,
        stats: &fx.stats,
        exec: &fx.exec,
    };
    let mut g = c.benchmark_group("segment_tree/locate");
    g.bench_function("one_block", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 1) % blocks;
            black_box(
                store
                    .locate(fx.blob, Version::new(1), blocks, BlockRange::new(i, i + 1))
                    .unwrap(),
            )
        });
    });
    g.bench_function("full_range", |b| {
        b.iter(|| {
            black_box(
                store
                    .locate(fx.blob, Version::new(1), blocks, BlockRange::new(0, blocks))
                    .unwrap(),
            )
        });
    });
    g.finish();
}

/// The pure shape arithmetic used by the experiment models.
fn bench_shape(c: &mut Criterion) {
    use blobseer_core::meta::shape;
    c.bench_function("segment_tree/shape_nodes_created", |b| {
        let entry = LogEntry {
            version: Version::new(5),
            blocks: BlockRange::new(100, 101),
            cap_before: 1024,
            cap_after: 1024,
            size_after: 1024 * 64,
        };
        b.iter(|| black_box(shape::nodes_created(black_box(&entry))));
    });
}

criterion_group!(
    benches,
    bench_publish_full,
    bench_publish_single_block,
    bench_locate,
    bench_shape
);
criterion_main!(benches);
