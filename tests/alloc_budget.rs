//! Heap allocations per operation, pinned.
//!
//! The deployment is the in-process in-memory one the `mem_bsfs_mixed`
//! benchmark workload drives: 4 data providers, 64 KiB blocks, the default
//! fan-out. A counting global allocator counts every `alloc` and `realloc`
//! in the process while one operation runs, so the whole file is one test
//! and CI runs it alone (`cargo test --test alloc_budget --
//! --test-threads=1`).
//!
//! Hash-table storage is counted apart from everything else. A lock
//! stripe's table grows when its entry count crosses a threshold, and
//! which stripe a key lands in depends on the map's random hash seed, so a
//! write's table allocations vary from run to run; every other count is
//! the same each time. On x86_64 `std`'s `HashMap` allocates its tables
//! 16-byte aligned (one SSE2 group) and nothing else on these paths asks
//! for that alignment, which is how the allocator tells them apart. Each
//! count is the minimum over [`REPS`] fresh deployments and BLOBs: the
//! other allocations must equal the pinned count, the table allocations
//! must not exceed theirs.
//!
//! Before one-block reads were spliced and batch grouping stopped building
//! hash maps (other + tables; a write's table part as its minimum over
//! five ranged across runs), against the budget now:
//!
//! | op | before | now |
//! |---|---|---|
//! | one-block append at history 255 | 99 + 21–26 | 39 + ≤ 8 |
//! | one-block read at history 256 | 124 + 29 | 26 + 0 |
//! | 4-block read at history 256 | 210 + 42 | 96 + 0 |
//! | 1 MiB BSFS file write (4 KiB records) | 962 + 203–215 | 476 + ≤ 64 |
//! | 1 MiB BSFS file read (4 KiB records) | 1221 + 272 | 293 + 0 |
//!
//! Elsewhere — under `BLOBSEER_LOCK_CHECK=1`, whose checker allocates its
//! own bookkeeping, and on other architectures — the test only demands
//! that no op allocate more in all than the most it did before.

use blobseer_core::BlobSeer;
use blobseer_types::{BlobSeerConfig, NodeId};
use bsfs::BsfsCluster;
use bytes::Bytes;
use dfs::FileSystem;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Forwards to the system allocator, counting each allocation.
struct Counting;

/// Allocations other than hash-table storage.
static OTHER: AtomicU64 = AtomicU64::new(0);
/// Hash-table allocations (16-byte aligned).
static TABLES: AtomicU64 = AtomicU64::new(0);

fn count(layout: Layout) {
    let counter = if layout.align() >= 16 {
        &TABLES
    } else {
        &OTHER
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds `GlobalAlloc`'s contract; the counter is an atomic add.
// lint:allow(no-unsafe): the test-only counting allocator (docs/ANALYSIS.md)
unsafe impl GlobalAlloc for Counting {
    // lint:allow(no-unsafe): the signature `GlobalAlloc` requires
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    // lint:allow(no-unsafe): the signature `GlobalAlloc` requires
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    // lint:allow(no-unsafe): the signature `GlobalAlloc` requires
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const BLOCK: u64 = 64 << 10;
const REPS: usize = 5;
const RECORD: usize = 4 << 10;
const FILE: usize = 1 << 20;

/// Allocations made while `op` runs, as `(other, tables)` (what it
/// returns is dropped after).
fn allocations<T>(op: impl FnOnce() -> T) -> ((u64, u64), T) {
    let before = (OTHER.load(Ordering::SeqCst), TABLES.load(Ordering::SeqCst));
    let out = op();
    let after = (OTHER.load(Ordering::SeqCst), TABLES.load(Ordering::SeqCst));
    ((after.0 - before.0, after.1 - before.1), out)
}

/// One op's budget.
struct Budget {
    op: &'static str,
    /// Allocations other than hash-table storage: exactly this many.
    other: u64,
    /// Hash-table allocations: at most this many.
    tables: u64,
    /// The most allocations in all before: the bound wherever the split is
    /// not exact.
    before: u64,
}

/// In the order [`one_rep`] measures them.
const BUDGETS: [Budget; 5] = [
    Budget {
        op: "one-block append at history 255",
        other: 39,
        tables: 8,
        before: 125,
    },
    Budget {
        op: "one-block read at history 256",
        other: 26,
        tables: 0,
        before: 153,
    },
    Budget {
        op: "4-block read at history 256",
        other: 96,
        tables: 0,
        before: 252,
    },
    Budget {
        op: "1 MiB BSFS file write",
        other: 476,
        tables: 64,
        before: 1177,
    },
    Budget {
        op: "1 MiB BSFS file read",
        other: 293,
        tables: 0,
        before: 1493,
    },
];

fn deploy() -> Arc<BlobSeer> {
    BlobSeer::deploy(BlobSeerConfig::default().with_block_size(BLOCK), 4)
}

/// The counts of one repetition, on a fresh deployment and BLOB.
fn one_rep(rep: usize) -> [(u64, u64); 5] {
    let sys = deploy();
    let client = sys.client(NodeId::new(0));
    let blob = client.create();
    let block = Bytes::from(vec![rep as u8 + 1; BLOCK as usize]);
    for _ in 0..255 {
        client.append_bytes(blob, block.clone()).unwrap();
    }
    let (append, appended) = allocations(|| client.append_bytes(blob, block.clone()));
    assert_eq!(appended.unwrap().0, 255 * BLOCK);
    let (read_one, one) = allocations(|| client.read(blob, None, 100 * BLOCK + 10, BLOCK - 10));
    assert_eq!(&one.unwrap()[..], &block[10..]);
    let (read_four, four) = allocations(|| client.read(blob, None, 40 * BLOCK, 4 * BLOCK));
    assert!(four.unwrap().iter().all(|&b| b == rep as u8 + 1));

    let fs = BsfsCluster::new(Arc::clone(&sys)).mount(NodeId::new(1));
    let payload: Vec<u8> = (0..FILE).map(|i| (i % 251) as u8).collect();
    let (write_file, written) = allocations(|| {
        let mut out = fs.create("/f", false)?;
        for record in payload.chunks(RECORD) {
            out.write(record)?;
        }
        out.close()
    });
    written.unwrap();
    let mut back = vec![0u8; FILE];
    let (read_file, read) = allocations(|| {
        let mut input = fs.open("/f")?;
        for record in back.chunks_mut(RECORD) {
            input.read_exact(record)?;
        }
        blobseer_types::Result::Ok(())
    });
    read.unwrap();
    assert_eq!(back, payload);
    [append, read_one, read_four, write_file, read_file]
}

#[test]
fn allocations_per_op_stay_within_budget() {
    let mut min = [(u64::MAX, u64::MAX); 5];
    for rep in 0..REPS {
        for (m, n) in min.iter_mut().zip(one_rep(rep)) {
            *m = (m.0.min(n.0), m.1.min(n.1));
        }
    }
    let lock_check = std::env::var("BLOBSEER_LOCK_CHECK").is_ok_and(|v| v == "1");
    let exact = cfg!(target_arch = "x86_64") && !lock_check;
    for (budget, (other, tables)) in BUDGETS.iter().zip(min) {
        let op = budget.op;
        println!("{op}: {other} + {tables} allocations");
        assert!(
            other + tables <= budget.before,
            "{op}: {other} + {tables} allocations, more than the {} before",
            budget.before
        );
        if exact {
            assert_eq!(other, budget.other, "{op}: allocations besides hash tables");
            assert!(
                tables <= budget.tables,
                "{op}: {tables} hash-table allocations, budget {}",
                budget.tables
            );
        }
    }
}
