//! Concurrent appends to one shared file — the §V-F scenario that HDFS
//! cannot express, exercised with real threads: eight writers build one
//! shared event log, every record lands exactly once, and the log is
//! totally ordered by the version manager.
//!
//! ```text
//! cargo run --example concurrent_append_log
//! ```

use blobseer_core::BlobSeer;
use blobseer_types::{BlobSeerConfig, Error, NodeId};
use bsfs::BsfsCluster;
use dfs::api::FileSystem;
use dfs::util::read_fully;
use hdfs_sim::{HdfsCluster, HdfsConfig};

const WRITERS: usize = 8;
const RECORDS_PER_WRITER: usize = 25;

fn main() {
    let system = BlobSeer::deploy(
        BlobSeerConfig::default()
            .with_block_size(256)
            .with_metadata_providers(4),
        8,
    );
    let cluster = BsfsCluster::new(system);
    let fs0 = cluster.mount(NodeId::new(0));
    dfs::util::write_file(&fs0, "/events.log", b"").ok();

    // Eight threads append records concurrently to the same file.
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let fs = cluster.mount(NodeId::new(w as u64));
            scope.spawn(move || {
                for i in 0..RECORDS_PER_WRITER {
                    let mut out = fs.append("/events.log").unwrap();
                    out.write(format!("writer-{w} event-{i:03}\n").as_bytes())
                        .unwrap();
                    out.close().unwrap();
                }
            });
        }
    });

    let log = read_fully(&fs0, "/events.log").unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&log).unwrap().lines().collect();
    println!(
        "shared log holds {} records from {WRITERS} concurrent writers",
        lines.len()
    );
    assert_eq!(lines.len(), WRITERS * RECORDS_PER_WRITER);

    // Every record exactly once…
    let mut seen = std::collections::HashSet::new();
    for l in &lines {
        assert!(seen.insert(*l), "duplicate record: {l}");
    }
    // …and per-writer order is preserved (each writer's appends were
    // serialized by the version manager in submission order).
    for w in 0..WRITERS {
        let mine: Vec<&&str> = lines
            .iter()
            .filter(|l| l.starts_with(&format!("writer-{w} ")))
            .collect();
        let mut sorted = mine.clone();
        sorted.sort();
        assert_eq!(mine, sorted, "writer {w}'s records out of order");
    }
    println!("each record exactly once, per-writer order preserved ✓");

    // Version history: the log has one snapshot per append — time travel!
    let client = cluster.system().client(NodeId::new(0));
    let blob = fs0.file_blob("/events.log").unwrap();
    let (latest, size) = client.latest(blob).unwrap();
    println!("log blob has {latest} snapshots, {size} bytes at head");
    let halfway = blobseer_types::Version::new(latest.raw() / 2);
    let old_size = client.size(blob, halfway).unwrap();
    println!("at {halfway} the log had only {old_size} bytes");

    // The HDFS baseline refuses this workload outright (§V-F).
    let hdfs = HdfsCluster::new(HdfsConfig::default().with_chunk_size(256), 4);
    let hfs = hdfs.mount(NodeId::new(0));
    dfs::util::write_file(&hfs, "/events.log", b"seed\n").unwrap();
    let err = hfs.append("/events.log").map(|_| ()).unwrap_err();
    match err {
        Error::Unsupported(what) => {
            println!("\nHDFS 0.20 baseline says: unsupported — {what}");
        }
        other => panic!("expected Unsupported, got {other}"),
    }
}
