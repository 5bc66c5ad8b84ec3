//! Integration tests spanning the whole stack: storage engines, file
//! systems, Map/Reduce, and the experiment models must agree with each
//! other.

use blobseer_core::meta::key::BlockRange;
use blobseer_core::meta::log::LogEntry;
use blobseer_core::meta::shape;
use blobseer_core::BlobSeer;
use blobseer_types::{BlobSeerConfig, HdfsConfig, NodeId, Version};
use bsfs::BsfsCluster;
use dfs::api::FileSystem;
use dfs::util::{read_fully, write_file};
use hdfs_sim::HdfsCluster;
use mapreduce::apps::WordCount;
use mapreduce::{JobTracker, TaskTracker, TextGen};
use std::sync::Arc;

const BLOCK: u64 = 4096;

/// The shape arithmetic the figure-scale simulator uses must match the
/// exact number of metadata nodes the live engine writes — the no-drift
/// guarantee `blobseer_core::meta::shape` documents for the segment trees
/// of §III-A.3.
#[test]
fn shape_math_matches_live_engine_node_counts() {
    let sys = BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(BLOCK), 8);
    let client = sys.client(NodeId::new(0));
    let blob = client.create();

    // A history with appends, overwrites, growth and holes.
    let script: Vec<(u64, u64)> = vec![
        (0, 4 * BLOCK),          // v1: initial 4 blocks
        (0, 2 * BLOCK),          // v2: overwrite front
        (4 * BLOCK, BLOCK),      // v3: append (grows 4 → 8)
        (10 * BLOCK, 2 * BLOCK), // v4: far write (hole + growth to 16)
        (3 * BLOCK, 5 * BLOCK),  // v5: wide middle overwrite
    ];
    let mut cap_before = 0u64;
    let mut size = 0u64;
    for (i, &(offset, len)) in script.iter().enumerate() {
        let before = sys.stats().snapshot().meta_nodes_written;
        client
            .write(blob, offset, &vec![i as u8 + 1; len as usize])
            .unwrap();
        let actual = sys.stats().snapshot().meta_nodes_written - before;

        size = size.max(offset + len);
        let cap_after = size.div_ceil(BLOCK).next_power_of_two();
        let entry = LogEntry {
            version: Version::new(i as u64 + 1),
            blocks: BlockRange::of_bytes(offset, len, BLOCK),
            cap_before,
            cap_after,
            size_after: size,
        };
        assert_eq!(
            actual,
            shape::nodes_created(&entry),
            "live vs shape mismatch at step {i} {entry:?}"
        );
        cap_before = cap_after;
    }
}

/// The shape read-visit arithmetic matches the live descent's DHT gets.
#[test]
fn shape_math_matches_live_read_visits() {
    let sys = BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(BLOCK), 8);
    let client = sys.client(NodeId::new(0));
    let blob = client.create();
    client
        .write(blob, 0, &vec![1u8; (16 * BLOCK) as usize])
        .unwrap();
    for (offset, len) in [(0u64, BLOCK), (5 * BLOCK, 3 * BLOCK), (0, 16 * BLOCK)] {
        let before = sys.stats().snapshot().meta_nodes_read;
        client.read(blob, None, offset, len).unwrap();
        let actual = sys.stats().snapshot().meta_nodes_read - before;
        let expected = shape::nodes_visited(16, BlockRange::of_bytes(offset, len, BLOCK));
        assert_eq!(
            actual, expected,
            "read visit mismatch for [{offset}, +{len})"
        );
    }
}

/// Identical workloads through both FileSystem backends produce identical
/// bytes — the substitution property the paper's methodology rests on.
#[test]
fn backends_agree_byte_for_byte() {
    let bsfs_sys = BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(BLOCK), 6);
    let bsfs = BsfsCluster::new(bsfs_sys);
    let hdfs = HdfsCluster::new(HdfsConfig::small_for_tests().with_chunk_size(BLOCK), 6);
    let b = bsfs.mount(NodeId::new(0));
    let h = hdfs.mount(NodeId::new(0));

    let payload = TextGen::new(77).text(5 * BLOCK as usize + 321);
    for fs in [&b as &dyn FileSystem, &h as &dyn FileSystem] {
        fs.mkdirs("/a/b").unwrap();
        write_file(fs, "/a/b/data", &payload).unwrap();
        fs.rename("/a/b/data", "/a/data").unwrap();
    }
    assert_eq!(
        read_fully(&b, "/a/data").unwrap(),
        read_fully(&h, "/a/data").unwrap()
    );
    assert_eq!(
        b.status("/a/data").unwrap().len,
        h.status("/a/data").unwrap().len
    );
    // Block location tiling agrees structurally (offsets and lengths).
    let bl = b.block_locations("/a/data", 0, u64::MAX).unwrap();
    let hl = h.block_locations("/a/data", 0, u64::MAX).unwrap();
    assert_eq!(bl.len(), hl.len());
    for (x, y) in bl.iter().zip(&hl) {
        assert_eq!((x.offset, x.length), (y.offset, y.length));
    }
}

/// A full WordCount runs on both backends with identical results, while
/// HDFS serves strictly more centralized-metadata RPCs than BSFS's
/// namespace manager (the decentralization claim, §IV-A).
#[test]
fn wordcount_parity_and_metadata_centralization() {
    let nodes = 4usize;
    let bsfs_sys = BlobSeer::deploy(
        BlobSeerConfig::small_for_tests().with_block_size(BLOCK),
        nodes,
    );
    let bsfs = BsfsCluster::new(bsfs_sys);
    let hdfs = HdfsCluster::new(HdfsConfig::small_for_tests().with_chunk_size(BLOCK), nodes);

    let data = TextGen::new(3).text(4 * BLOCK as usize);
    let mut outputs = Vec::new();
    let mut central_ops = Vec::new();

    {
        let jt = JobTracker::new(
            (0..nodes)
                .map(|i| {
                    TaskTracker::new(
                        NodeId::new(i as u64),
                        Box::new(bsfs.mount(NodeId::new(i as u64))),
                    )
                })
                .collect(),
        );
        let fs = bsfs.mount(NodeId::new(0));
        write_file(&fs, "/in.txt", &data).unwrap();
        jt.run_job(
            &WordCount::job("/in.txt", "/out", 2),
            &WordCount,
            &WordCount,
        )
        .unwrap();
        let mut all = Vec::new();
        for r in 0..2 {
            all.extend(read_fully(&fs, &format!("/out/part-r-{r:05}")).unwrap());
        }
        outputs.push(all);
        central_ops.push(bsfs.namespace().op_count());
    }
    {
        let jt = JobTracker::new(
            (0..nodes)
                .map(|i| {
                    TaskTracker::new(
                        NodeId::new(i as u64),
                        Box::new(hdfs.mount(NodeId::new(i as u64))),
                    )
                })
                .collect(),
        );
        let fs = hdfs.mount(NodeId::new(0));
        write_file(&fs, "/in.txt", &data).unwrap();
        jt.run_job(
            &WordCount::job("/in.txt", "/out", 2),
            &WordCount,
            &WordCount,
        )
        .unwrap();
        let mut all = Vec::new();
        for r in 0..2 {
            all.extend(read_fully(&fs, &format!("/out/part-r-{r:05}")).unwrap());
        }
        outputs.push(all);
        central_ops.push(hdfs.namenode().op_count());
    }
    // Same input → same sorted word counts, regardless of backend.
    let parse = |bytes: &[u8]| {
        let mut v: Vec<String> = String::from_utf8(bytes.to_vec())
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect();
        v.sort();
        v
    };
    assert_eq!(parse(&outputs[0]), parse(&outputs[1]));
    // BSFS's centralized namespace sees far fewer calls than HDFS's
    // namenode, which also mediates every chunk allocation.
    assert!(
        central_ops[1] > central_ops[0],
        "namenode ops {} should exceed namespace-manager ops {}",
        central_ops[1],
        central_ops[0]
    );
}

/// Versioned reads through the BSFS layer: a reader opened before an
/// overwrite keeps its snapshot while new readers see new data — and the
/// old version remains explicitly addressable.
#[test]
fn bsfs_exposes_blobseer_versioning() {
    let sys = BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(BLOCK), 4);
    let cluster = BsfsCluster::new(sys);
    let fs = cluster.mount(NodeId::new(0));
    write_file(&fs, "/f", &vec![1u8; BLOCK as usize]).unwrap();
    let mut pinned = fs.open("/f").unwrap();
    // Append more data through a second handle.
    let mut out = fs.append("/f").unwrap();
    out.write(&vec![2u8; BLOCK as usize]).unwrap();
    out.close().unwrap();
    // The pinned reader still sees only the original block.
    assert_eq!(pinned.len(), BLOCK);
    let mut buf = vec![0u8; BLOCK as usize];
    pinned.read_exact(&mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 1));
    // A fresh reader sees both.
    assert_eq!(fs.status("/f").unwrap().len, 2 * BLOCK);
    // And the explicit version API reaches the past.
    let mut old = fs.open_version("/f", Version::new(1)).unwrap();
    assert_eq!(old.len(), BLOCK);
    old.read_exact(&mut buf).unwrap();
    assert!(buf.iter().all(|&x| x == 1));
}

/// Deleting files through BSFS reclaims provider storage even with
/// replication enabled.
#[test]
fn delete_reclaims_replicated_storage() {
    let cfg = BlobSeerConfig::small_for_tests()
        .with_block_size(BLOCK)
        .with_replication(2);
    let sys = BlobSeer::deploy(cfg, 4);
    let cluster = BsfsCluster::new(Arc::clone(&sys));
    let fs = cluster.mount(NodeId::new(0));
    write_file(&fs, "/r", &vec![5u8; (3 * BLOCK) as usize]).unwrap();
    let stored: u64 = sys.providers().total_bytes_stored();
    assert_eq!(stored, 2 * 3 * BLOCK, "two replicas of three blocks");
    fs.delete("/r", false).unwrap();
    let stored: u64 = sys.providers().total_bytes_stored();
    assert_eq!(stored, 0);
    assert_eq!(sys.dht().node_count(), 0, "metadata fully reclaimed too");
}
