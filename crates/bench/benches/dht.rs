//! Microbenchmarks of the metadata DHT: put/get latency and concurrent
//! throughput across shard counts — the decentralization knob the paper
//! credits for metadata scalability (§III-A.3).

use blobseer_core::dht::MetaDht;
use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::meta::node::{BlockDescriptor, TreeNode};
use blobseer_core::ports::MetaStore;
use blobseer_types::{BlobId, BlockId, Version};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::sync::Arc;

fn key(v: u64, start: u64) -> NodeKey {
    NodeKey::new(BlobId::new(1), Version::new(v), Pos::new(start, 1))
}

fn leaf(id: u64) -> TreeNode {
    TreeNode::Leaf(BlockDescriptor {
        block_id: BlockId::new(id),
        providers: vec![0],
        len: 64,
    })
}

fn bench_put_get(c: &mut Criterion) {
    let mut g = c.benchmark_group("dht/put_get");
    for &shards in &[1usize, 4, 20] {
        g.bench_with_input(BenchmarkId::new("put", shards), &shards, |b, &shards| {
            let dht = MetaDht::new(shards, 1);
            let mut v = 0u64;
            b.iter(|| {
                v += 1;
                dht.put(key(v, v % 1024), leaf(v)).unwrap();
            });
        });
        g.bench_with_input(BenchmarkId::new("get", shards), &shards, |b, &shards| {
            let dht = MetaDht::new(shards, 1);
            for v in 0..4096u64 {
                dht.put(key(v, v % 1024), leaf(v)).unwrap();
            }
            let mut v = 0u64;
            b.iter(|| {
                v = (v + 1) % 4096;
                black_box(dht.get(&key(v, v % 1024)).unwrap())
            });
        });
    }
    g.finish();
}

/// Concurrent readers hammering the DHT: shard count scaling.
fn bench_concurrent_gets(c: &mut Criterion) {
    let mut g = c.benchmark_group("dht/concurrent_gets_8_threads");
    g.sample_size(10);
    for &shards in &[1usize, 20] {
        g.bench_with_input(
            BenchmarkId::from_parameter(shards),
            &shards,
            |b, &shards| {
                let dht = Arc::new(MetaDht::new(shards, 1));
                for v in 0..4096u64 {
                    dht.put(key(v, v % 1024), leaf(v)).unwrap();
                }
                b.iter(|| {
                    let threads: Vec<_> = (0..8)
                        .map(|t| {
                            let dht = Arc::clone(&dht);
                            std::thread::spawn(move || {
                                for i in 0..2000u64 {
                                    let v = (t * 911 + i) % 4096;
                                    black_box(dht.get(&key(v, v % 1024)).unwrap());
                                }
                            })
                        })
                        .collect();
                    for t in threads {
                        t.join().unwrap();
                    }
                });
            },
        );
    }
    g.finish();
}

/// Replicated puts (metadata fault tolerance, §VI-B).
fn bench_replicated_put(c: &mut Criterion) {
    let mut g = c.benchmark_group("dht/replicated_put");
    for &repl in &[1usize, 2, 3] {
        g.bench_with_input(BenchmarkId::from_parameter(repl), &repl, |b, &repl| {
            let dht = MetaDht::new(20, repl);
            let mut v = 0u64;
            b.iter(|| {
                v += 1;
                dht.put(key(v, v % 1024), leaf(v)).unwrap();
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_put_get,
    bench_concurrent_gets,
    bench_replicated_put
);
criterion_main!(benches);
