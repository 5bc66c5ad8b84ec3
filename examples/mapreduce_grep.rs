//! The paper's flagship application pipeline (§V-G): generate text with
//! RandomTextWriter, then run distributed grep over it — on BSFS *and* on
//! the HDFS baseline, comparing locality and I/O behaviour.
//!
//! ```text
//! cargo run --example mapreduce_grep
//! ```

use blobseer_core::BlobSeer;
use blobseer_types::{BlobSeerConfig, NodeId};
use bsfs::BsfsCluster;
use dfs::api::FileSystem;
use dfs::util::read_fully;
use hdfs_sim::{HdfsCluster, HdfsConfig};
use mapreduce::apps::{DistributedGrep, RandomTextWriter};
use mapreduce::{JobTracker, TaskTracker};

const NODES: usize = 8;
const BLOCK: u64 = 16 * 1024;

fn run_pipeline(name: &str, trackers: JobTracker, fs: &dyn FileSystem) {
    // Stage 1: RandomTextWriter — map-only, one output file per mapper.
    let rtw = RandomTextWriter {
        bytes_per_mapper: 4 * BLOCK,
        seed: 2026,
    };
    let report = trackers
        .run_map_only(&RandomTextWriter::job(4, "/gen"), &rtw)
        .unwrap();
    println!(
        "[{name}] RandomTextWriter: {} mappers wrote {} records in {:.1} ms",
        report.map_tasks,
        report.output_records,
        report.duration_micros as f64 / 1000.0
    );

    // Stage 2: distributed grep over all generated files.
    let inputs: Vec<String> = (0..4).map(|i| format!("/gen/part-m-{i:05}")).collect();
    let job = mapreduce::JobSpec::new("grep", mapreduce::InputSpec::Files(inputs), "/grepped", 1);
    let grep = DistributedGrep::new("hookworm");
    let report = trackers.run_job(&job, &grep, &grep).unwrap();
    let out = read_fully(fs, "/grepped/part-r-00000").unwrap();
    println!(
        "[{name}] grep: {} maps ({} local / {} remote), result: {}",
        report.map_tasks,
        report.local_maps,
        report.remote_maps,
        String::from_utf8_lossy(&out).trim()
    );
}

fn main() {
    // --- BSFS ---------------------------------------------------------
    let system = BlobSeer::deploy(
        BlobSeerConfig::default()
            .with_block_size(BLOCK)
            .with_metadata_providers(4),
        NODES,
    );
    let cluster = BsfsCluster::new(system);
    let trackers = JobTracker::new(
        (0..NODES)
            .map(|i| {
                TaskTracker::new(
                    NodeId::new(i as u64),
                    Box::new(cluster.mount(NodeId::new(i as u64))),
                )
            })
            .collect(),
    );
    let fs = cluster.mount(NodeId::new(0));
    run_pipeline("BSFS", trackers, &fs);

    // --- HDFS baseline: identical job code, different storage ----------
    let hdfs = HdfsCluster::new(HdfsConfig::default().with_chunk_size(BLOCK), NODES);
    let trackers = JobTracker::new(
        (0..NODES)
            .map(|i| {
                TaskTracker::new(
                    NodeId::new(i as u64),
                    Box::new(hdfs.mount(NodeId::new(i as u64))),
                )
            })
            .collect(),
    );
    let fs = hdfs.mount(NodeId::new(0));
    run_pipeline("HDFS", trackers, &fs);

    println!("\nsame binaries, two storage backends — the paper's methodology (§V-B)");
}
