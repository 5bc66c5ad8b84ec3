//! Fig. 3(a): throughput of a single remote writer as the file grows from
//! 1 to 16 GB (§V-D).
//!
//! * **BSFS** — runs the **real client protocol** end-to-end through the
//!   concurrent harness ([`crate::concurrent`], here with one client on a
//!   non-colocated node, §V-D): every `BlobClient::append` performs the
//!   genuine data phase (provider-manager allocation + block put), version
//!   assignment, segment-tree publish and commit, while the adapters
//!   charge the §V cost model — cache-flush overhead and PM RPC, a 64 MB
//!   flow absorbed by the provider's disk, serialized version-manager
//!   service, parallel tree-node puts to the metadata DHT, commit
//!   round-trip. Every provider sees at most a couple of blocks, so disks
//!   never queue: the curve is flat.
//! * **HDFS** — one writer task on `hdfs-sim`'s real namenode and
//!   datanodes ([`concurrent::HdfsDeployment`]), per 64 MB chunk: pipeline
//!   overhead → the namenode's `add_chunk`, whose charged cost *grows with
//!   the file's chunk count* (0.20's OP_ADD rewrote the file's entire block
//!   list into the synchronously-fsynced edit log on every allocation) →
//!   the chunk's `put` on the sticky-random datanode the namenode chose,
//!   acknowledged once its disk absorbed the chunk. The O(chunks) namenode
//!   term bends the curve downward as the file grows — the decline the
//!   paper attributes to HDFS's weaker write path.

use crate::concurrent::{self, ClientTask, HdfsDeployment};
use crate::constants::Constants;
use crate::report::{Figure, Series};
use crate::topology::Backend;
use blobseer_core::BlobClient;
use blobseer_types::NodeId;
use hdfs_sim::HdfsConfig;

/// Real block and chunk size behind each modeled 64 MB block of both legs:
/// big enough to hold real content, small enough that a modeled 16 GB file
/// costs only 256 KB of actual memory.
const REAL_BLOCK: u64 = 1024;

/// The file the HDFS leg writes.
const HDFS_FILE: &str = "/fig3a";

/// The BSFS leg: the real client driving the harness-backed deployment
/// (one writer on the dedicated non-colocated node past the providers,
/// §V-D: "we chose to always deploy clients on nodes where no datanode
/// has previously been deployed"). Returns the simulated seconds taken.
fn bsfs_write_secs(c: &Constants, n_blocks: usize) -> f64 {
    let providers = Backend::Bsfs.microbench_storage_nodes();
    let dep = concurrent::deploy(c, providers, providers + 1, REAL_BLOCK);
    let writer_node = NodeId::new(providers as u64);
    let blob = dep.sys.client(writer_node).create();
    dep.set_charging(true);
    let clients: Vec<ClientTask<'_>> = vec![(
        writer_node,
        Box::new(move |cl: BlobClient| {
            let payload = vec![0u8; REAL_BLOCK as usize];
            for _ in 0..n_blocks {
                // Block-aligned appends: the paper's workload, and the
                // fast path that never waits on a predecessor's reveal.
                cl.append(blob, &payload).unwrap();
            }
        }),
    )];
    dep.run_clients(clients);
    assert_eq!(
        dep.sys.providers().total_block_count(),
        n_blocks,
        "every modeled block must be really stored"
    );
    dep.now().as_secs_f64()
}

/// The HDFS leg: one writer task on the dedicated non-colocated node past
/// the datanodes (§V-D), streaming each chunk to the datanode the
/// namenode's sticky-random session picked. Returns the deployment after
/// the write.
fn hdfs_write(c: &Constants, n_blocks: usize, seed: u64) -> HdfsDeployment {
    let datanodes = Backend::Hdfs.microbench_storage_nodes();
    let cfg = HdfsConfig::default().with_chunk_size(REAL_BLOCK);
    let dep = concurrent::deploy_hdfs(c, cfg, datanodes, datanodes + 1, seed);
    let writer = NodeId::new(datanodes as u64);
    dep.fabric.gate().run(vec![Box::new(|| {
        let (work, overhead) = (c.hdfs_chunk_overhead, c.provider_svc);
        dep.write(HDFS_FILE, writer, n_blocks as u64, work, overhead);
    })]);
    dep
}

/// Simulates one single-writer run; returns throughput in MB/s.
pub fn throughput_mbps(c: &Constants, backend: Backend, n_blocks: usize, seed: u64) -> f64 {
    let secs = match backend {
        Backend::Bsfs => bsfs_write_secs(c, n_blocks),
        Backend::Hdfs => hdfs_write(c, n_blocks, seed)
            .fabric
            .gate()
            .now()
            .as_secs_f64(),
    };
    let bytes = n_blocks as f64 * c.block_bytes as f64;
    bytes / (1024.0 * 1024.0) / secs
}

/// Reproduces Fig. 3(a): write throughput vs file size (GB), averaged over
/// the paper's 5 repetitions.
pub fn run(c: &Constants, sizes_gb: &[f64]) -> Figure {
    let mut fig = Figure::new(
        "Fig. 3(a)",
        "Single writer, single file: write throughput vs file size",
        "file size (GB)",
        "throughput (MB/s)",
    );
    for backend in [Backend::Hdfs, Backend::Bsfs] {
        let mut series = Series::new(backend.label());
        for &gb in sizes_gb {
            let n_blocks =
                ((gb * 1024.0 * 1024.0 * 1024.0) / c.block_bytes as f64).round() as usize;
            let mean = (0..crate::fig3b::REPETITIONS)
                .map(|rep| throughput_mbps(c, backend, n_blocks, 0xF163A + rep))
                .sum::<f64>()
                / crate::fig3b::REPETITIONS as f64;
            series.push(gb, mean);
        }
        fig.series.push(series);
    }
    fig
}

/// The paper's x grid: 1 → 16 GB.
pub fn paper_sizes() -> Vec<f64> {
    vec![1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsfs_is_faster_and_flat() {
        let c = Constants::default();
        let fig = run(&c, &[1.0, 8.0, 16.0]);
        let hdfs = &fig.series[0];
        let bsfs = &fig.series[1];
        for (&(x, h), &(_, b)) in hdfs.points.iter().zip(&bsfs.points) {
            assert!(
                b > h * 1.3,
                "BSFS should lead clearly at {x} GB: bsfs={b:.1} hdfs={h:.1}"
            );
        }
        // BSFS sustains its throughput as the file grows (±10%).
        let (b1, b16) = (bsfs.y_at(1.0).unwrap(), bsfs.y_at(16.0).unwrap());
        assert!(
            (b16 - b1).abs() / b1 < 0.10,
            "BSFS flat: {b1:.1} → {b16:.1}"
        );
        // HDFS declines with file size.
        let (h1, h16) = (hdfs.y_at(1.0).unwrap(), hdfs.y_at(16.0).unwrap());
        assert!(h16 < h1 * 0.93, "HDFS declines: {h1:.1} → {h16:.1}");
    }

    #[test]
    fn absolute_levels_are_in_the_paper_band() {
        // Paper: BSFS ≈ 60–70 MB/s; HDFS ≈ 35–47 MB/s.
        let c = Constants::default();
        let bsfs = throughput_mbps(&c, Backend::Bsfs, 128, 1);
        let hdfs = throughput_mbps(&c, Backend::Hdfs, 128, 1);
        assert!((55.0..75.0).contains(&bsfs), "BSFS at 8 GB: {bsfs:.1}");
        assert!((33.0..50.0).contains(&hdfs), "HDFS at 8 GB: {hdfs:.1}");
    }

    #[test]
    fn deterministic_per_seed() {
        let c = Constants::default();
        let a = throughput_mbps(&c, Backend::Hdfs, 32, 9);
        let b = throughput_mbps(&c, Backend::Hdfs, 32, 9);
        assert_eq!(a, b);
        let a = throughput_mbps(&c, Backend::Bsfs, 32, 9);
        let b = throughput_mbps(&c, Backend::Bsfs, 32, 9);
        assert_eq!(a, b, "ports-backed BSFS leg is deterministic too");
    }

    #[test]
    fn hdfs_leg_leaves_the_file_on_the_real_namenode() {
        let dep = hdfs_write(&Constants::default(), 16, 1);
        let path = dfs::DfsPath::parse(HDFS_FILE).unwrap();
        let snap = dep.cluster.namenode().file_snapshot(&path).unwrap();
        assert_eq!(snap.chunks.len(), 16);
        assert_eq!(dep.cluster.layout_vector().iter().sum::<u64>(), 16);
    }

    #[test]
    fn bsfs_leg_exercises_the_real_metadata_path() {
        // The figure run must leave behind genuine engine state: segment
        // trees in the DHT and a readable BLOB history — proof the trait
        // calls went through the real client, not bespoke glue.
        let c = Constants::default();
        let dep = concurrent::deploy(&c, 16, 17, 256);
        let client = dep.sys.client(blobseer_types::NodeId::new(16));
        let blob = client.create();
        for _ in 0..8 {
            client.append(blob, &vec![9u8; 256]).unwrap();
        }
        assert_eq!(client.history(blob).unwrap().len(), 8);
        assert!(dep.sys.dht().node_count() > 8, "tree nodes were published");
        let data = client.read(blob, None, 0, 8 * 256).unwrap();
        assert!(data.iter().all(|&b| b == 9));
    }
}
