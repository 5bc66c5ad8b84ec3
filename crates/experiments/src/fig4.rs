//! Fig. 4: average per-client read throughput as 1→250 clients
//! concurrently read *distinct* 64 MB chunks of one shared file (§V-E).
//!
//! **BSFS** runs the real client protocol end-to-end through the
//! concurrent harness ([`crate::concurrent`]): a boot client appends the
//! N-chunk file through the live provider manager (round-robin layout),
//! then N reader threads call the genuine `BlobClient::read` concurrently.
//! Everything the seed's model hand-computed now *emerges* from the code
//! under test: the version-manager lookup queues in the shared central
//! server, the root-to-leaf descent costs one sequential DHT hop per
//! segment-tree level actually fetched, the balanced layout gives every
//! reader its own provider disk, and co-located readers (the paper places
//! readers on storage machines) skip the network entirely.
//!
//! **HDFS** is the comparison baseline, run on `hdfs-sim`'s real namenode
//! and datanodes ([`crate::concurrent::HdfsDeployment`]): a remote boot
//! client writes the file through the namenode's sticky-random placement,
//! which lands several readers' chunks on the same datanode; each reader
//! then takes one charged `file_snapshot` and fetches its chunk from the
//! real datanode, whose disk queue and egress NIC serialize the readers
//! under max-min sharing, plus the 0.20 read path's per-block CRC
//! verification. Average throughput falls as N grows.

use crate::concurrent::{self, ClientTask};
use crate::constants::Constants;
use crate::report::{Figure, Series};
use crate::topology::Backend;
use blobseer_core::BlobClient;
use blobseer_types::NodeId;
use bytes::Bytes;
use hdfs_sim::HdfsConfig;
use parking_lot::Mutex;
use simnet::SimDuration;

/// Real engine bytes behind each modeled 64 MB chunk: one block per chunk,
/// small enough that a 250-chunk file costs nothing to materialize.
const REAL_CHUNK: u64 = 256;

/// Chunk read by reader `i`: a fixed permutation decoupling the reader's
/// node from its chunk's provider, as in a real deployment where reader
/// machines and layout are unrelated.
fn chunk_of(i: usize, n: usize) -> usize {
    (i + 13) % n
}

/// The BSFS leg: N concurrent readers driving the real read path. Returns
/// each reader's duration.
fn bsfs_reads(c: &Constants, n_clients: usize) -> Vec<Option<SimDuration>> {
    let providers = Backend::Bsfs.microbench_storage_nodes();
    let n_nodes = providers.max(n_clients);
    let dep = concurrent::deploy(c, providers, n_nodes, REAL_CHUNK);
    // Boot-up phase (uncharged): a dedicated client writes the N×64 MB
    // file; the layout comes from the live provider manager.
    let boot = dep.sys.client(NodeId::new(0));
    let blob = boot.create();
    let payload = vec![0u8; REAL_CHUNK as usize];
    for _ in 0..n_clients {
        boot.append(blob, &payload).unwrap();
    }
    dep.set_charging(true);
    // Measurement: reader i, co-located with storage node i (§V-C: reader
    // machines are chosen among the storage machines), reads its chunk.
    let durations: Mutex<Vec<Option<SimDuration>>> = Mutex::new(vec![None; n_clients]);
    let clients: Vec<ClientTask<'_>> = (0..n_clients)
        .map(|i| {
            let (durations, fabric) = (&durations, &dep.fabric);
            (
                NodeId::new(i as u64),
                Box::new(move |cl: BlobClient| {
                    let t0 = fabric.gate().now();
                    let chunk = chunk_of(i, n_clients) as u64;
                    cl.read(blob, None, chunk * REAL_CHUNK, REAL_CHUNK).unwrap();
                    durations.lock()[i] = Some(fabric.gate().now() - t0);
                }) as Box<dyn FnOnce(BlobClient) + Send>,
            )
        })
        .collect();
    dep.run_clients(clients);
    durations.into_inner()
}

/// The HDFS baseline leg: the same workload against the 0.20 read path
/// over a sticky-random layout. Returns each reader's duration and the
/// bytes it read; chunk `i` was booted as `i as u8` repeated.
fn hdfs_reads(c: &Constants, n: usize, seed: u64) -> (Vec<Option<SimDuration>>, Vec<Bytes>) {
    let datanodes = Backend::Hdfs.microbench_storage_nodes();
    let cfg = HdfsConfig::default().with_chunk_size(REAL_CHUNK);
    let dep = concurrent::deploy_hdfs(c, cfg, datanodes, datanodes.max(n), seed);
    // Boot-up (uncharged): a remote client writes the file, so HDFS spreads
    // it sticky-randomly (the "fair" second experiment of §V-E).
    let data: Vec<u8> = (0..n)
        .flat_map(|i| [i as u8; REAL_CHUNK as usize])
        .collect();
    dep.boot("/fig4", &data);
    let reads = Mutex::new(vec![(None, Bytes::new()); n]);
    let tasks: Vec<simnet::SimTask<'_>> = (0..n)
        .map(|i| {
            let (dep, reads) = (&dep, &reads);
            Box::new(move || {
                let t0 = dep.fabric.gate().now();
                // Namenode block-location query, then the block fetch with
                // the 0.20 CRC-verification overhead.
                let chunk = &dep.snapshot("/fig4").chunks[i];
                let got = dep.fetch(chunk, NodeId::new(i as u64), c.hdfs_read_overhead);
                reads.lock()[i] = (Some(dep.fabric.gate().now() - t0), got);
            }) as simnet::SimTask<'_>
        })
        .collect();
    dep.fabric.gate().run(tasks);
    reads.into_inner().into_iter().unzip()
}

/// Simulates N concurrent readers; returns the average per-client
/// throughput in MB/s.
pub fn avg_client_mbps(c: &Constants, backend: Backend, n_clients: usize, seed: u64) -> f64 {
    let durations = match backend {
        Backend::Bsfs => bsfs_reads(c, n_clients),
        Backend::Hdfs => hdfs_reads(c, n_clients, seed).0,
    };
    let rates = concurrent::client_mbps(c.block_bytes, &durations);
    rates.iter().sum::<f64>() / n_clients as f64
}

/// Reproduces Fig. 4: average read throughput per client vs client count.
pub fn run(c: &Constants, client_counts: &[usize]) -> Figure {
    let mut fig = Figure::new(
        "Fig. 4",
        "Concurrent readers of a shared file: average client throughput",
        "number of clients",
        "average throughput (MB/s)",
    );
    for backend in [Backend::Hdfs, Backend::Bsfs] {
        let mut series = Series::new(backend.label());
        for &n in client_counts {
            let mean = (0..crate::fig3b::REPETITIONS)
                .map(|rep| avg_client_mbps(c, backend, n, 0xF164 + rep))
                .sum::<f64>()
                / crate::fig3b::REPETITIONS as f64;
            series.push(n as f64, mean);
        }
        fig.series.push(series);
    }
    fig
}

/// The paper's x grid: 1 → 250 clients.
pub fn paper_counts() -> Vec<usize> {
    vec![1, 25, 50, 75, 100, 125, 150, 175, 200, 225, 250]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bsfs_stays_flat_hdfs_declines() {
        let c = Constants::default();
        let fig = run(&c, &[1, 100, 250]);
        let hdfs = &fig.series[0];
        let bsfs = &fig.series[1];
        // BSFS sustains per-client throughput (paper: "it is able to
        // deliver the same throughput even when the number of clients
        // increases").
        let (b1, b250) = (bsfs.y_at(1.0).unwrap(), bsfs.y_at(250.0).unwrap());
        assert!(
            b250 > b1 * 0.85,
            "BSFS should stay near-flat: {b1:.1} → {b250:.1}"
        );
        // HDFS collapses under contention.
        let (h1, h250) = (hdfs.y_at(1.0).unwrap(), hdfs.y_at(250.0).unwrap());
        assert!(h250 < h1 * 0.75, "HDFS should decline: {h1:.1} → {h250:.1}");
        // And BSFS leads at every point.
        for (&(x, h), &(_, b)) in hdfs.points.iter().zip(&bsfs.points) {
            assert!(b > h, "BSFS ahead at {x}: {b:.1} vs {h:.1}");
        }
    }

    #[test]
    fn absolute_levels_in_paper_band() {
        // Paper: BSFS ≈ 60 flat; HDFS from ≈ 45 down to ≈ 25.
        let c = Constants::default();
        let bsfs = avg_client_mbps(&c, Backend::Bsfs, 200, 3);
        let hdfs = avg_client_mbps(&c, Backend::Hdfs, 200, 3);
        assert!(
            (50.0..75.0).contains(&bsfs),
            "BSFS at 200 clients: {bsfs:.1}"
        );
        assert!(
            (15.0..40.0).contains(&hdfs),
            "HDFS at 200 clients: {hdfs:.1}"
        );
    }

    #[test]
    fn single_reader_is_disk_bound_not_contention_bound() {
        let c = Constants::default();
        let bsfs = avg_client_mbps(&c, Backend::Bsfs, 1, 3);
        // One reader: 64 MB over a 80 MB/s disk + overheads ≈ 60 MB/s.
        assert!((50.0..70.0).contains(&bsfs), "{bsfs:.1}");
    }

    #[test]
    fn bsfs_leg_reads_real_bytes_through_the_real_tree() {
        // The figure path must leave genuine engine evidence: the reader
        // bytes equal the booted content and the DHT holds the file's
        // segment tree — proof the curve comes from the live client, not
        // from modeled hop counts.
        let c = Constants::default();
        let providers = Backend::Bsfs.microbench_storage_nodes();
        let dep = concurrent::deploy(&c, providers, providers, REAL_CHUNK);
        let boot = dep.sys.client(NodeId::new(0));
        let blob = boot.create();
        for i in 0..8u8 {
            boot.append(blob, &vec![i; REAL_CHUNK as usize]).unwrap();
        }
        assert!(dep.sys.dht().node_count() >= 8, "segment tree published");
        dep.set_charging(true);
        let hits = Mutex::new(0u32);
        let clients: Vec<ClientTask<'_>> = (0..8u64)
            .map(|i| {
                let hits = &hits;
                (
                    NodeId::new(i),
                    Box::new(move |cl: BlobClient| {
                        let data = cl.read(blob, None, i * REAL_CHUNK, REAL_CHUNK).unwrap();
                        assert!(data.iter().all(|&b| b == i as u8));
                        *hits.lock() += 1;
                    }) as Box<dyn FnOnce(BlobClient) + Send>,
                )
            })
            .collect();
        dep.run_clients(clients);
        assert_eq!(hits.into_inner(), 8);
    }

    #[test]
    fn hdfs_readers_get_the_booted_bytes_from_the_datanodes() {
        let (durations, got) = hdfs_reads(&Constants::default(), 8, 1);
        assert!(durations.iter().all(Option::is_some));
        for (i, data) in got.iter().enumerate() {
            assert_eq!(&data[..], &[i as u8; REAL_CHUNK as usize][..], "reader {i}");
        }
    }
}
