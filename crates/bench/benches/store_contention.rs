//! Contention microbenchmark for the lock-striped store adapters: put
//! throughput at 1/4/16 writer threads on a single data provider, global
//! lock (`shards = 1`, the seed's layout) vs. the sharded default.
//!
//! This is the bench behind the service-port refactor's performance claim:
//! under 16 concurrent writers the sharded provider must sustain at least
//! ~2× the global-lock put throughput, because writers hashing to
//! different stripes no longer serialize on one `RwLock`.

use blobseer_core::block_store::DataProvider;
use blobseer_core::sharded::DEFAULT_SHARDS;
use blobseer_types::{BlockId, NodeId};
use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::atomic::{AtomicU64, Ordering};

/// Puts per thread per measured iteration.
const PUTS: u64 = 256;

/// A monotone id well, so every put stores a fresh (immutable) block.
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn put_storm(provider: &DataProvider, threads: u64) {
    let payload = Bytes::from_static(b"0123456789abcdef0123456789abcdef");
    std::thread::scope(|s| {
        for _ in 0..threads {
            let base = NEXT_ID.fetch_add(PUTS, Ordering::Relaxed);
            let payload = payload.clone();
            s.spawn(move || {
                // One-item batches: every put takes its stripe's lock on
                // its own, the access pattern the striping is for.
                for i in 0..PUTS {
                    provider.put_many(&[(BlockId::new(base + i), payload.clone())]);
                }
                // Drop the blocks again so long runs stay memory-flat; the
                // deletes hit the same stripes and count as contention too.
                for i in 0..PUTS {
                    provider.delete_many(&[BlockId::new(base + i)]);
                }
            });
        }
    });
}

fn bench_put_contention(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_contention/put");
    for &threads in &[1u64, 4, 16] {
        for (label, shards) in [("global-lock", 1usize), ("sharded", DEFAULT_SHARDS)] {
            g.throughput(Throughput::Elements(threads * PUTS));
            g.bench_with_input(
                BenchmarkId::new(label, format!("{threads}thr")),
                &threads,
                |b, &threads| {
                    let provider = DataProvider::with_shards(NodeId::new(0), shards);
                    b.iter(|| put_storm(&provider, threads));
                },
            );
        }
    }
    g.finish();
}

/// Direct wall-clock comparison at 16 threads, printed with the bench run:
/// the sharded adapter's speedup over the global lock (the refactor's
/// acceptance line expects ≥ 2×).
fn bench_speedup_summary(c: &mut Criterion) {
    let mut g = c.benchmark_group("store_contention/speedup_16thr");
    let measure = |shards: usize| {
        let provider = DataProvider::with_shards(NodeId::new(0), shards);
        // Warm-up.
        put_storm(&provider, 16);
        let t = std::time::Instant::now();
        for _ in 0..8 {
            put_storm(&provider, 16);
        }
        t.elapsed().as_secs_f64()
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    g.bench_function("report", |b| {
        b.iter(|| {
            let global = measure(1);
            let sharded = measure(DEFAULT_SHARDS);
            println!(
                "    16-thread put storm ({cores} core(s)): global-lock {:.1} ms, \
                 sharded {:.1} ms → {:.2}x",
                global * 1e3,
                sharded * 1e3,
                global / sharded
            );
            if cores == 1 {
                println!(
                    "    note: single-core host — threads never overlap, so lock \
                     striping cannot show its parallel speedup here; run on ≥2 \
                     cores for the contention comparison"
                );
            }
            (global, sharded)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_put_contention, bench_speedup_summary);
criterion_main!(benches);
