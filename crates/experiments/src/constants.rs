//! Calibrated constants of the figure-scale models.
//!
//! Two kinds of numbers live here:
//!
//! * **Measured/stated by the paper** (§V-A): NIC throughput, latency,
//!   block size, cluster sizes. These are not tunable knobs.
//! * **Calibrated**: hardware rates of the 2009-era testbed and software
//!   path costs of Hadoop 0.20 / BlobSeer that the paper does not state.
//!   Each is documented with its physical justification; docs/REPRODUCING.md
//!   gives each figure's expected band, and `bench/benches/ablations.rs`
//!   sweeps the influential ones. The *shapes* of the reproduced figures come from
//!   the modeled mechanisms (placement policies, disk queueing, max-min
//!   NIC sharing, centralized-service serialization); the constants set
//!   absolute levels.

use simnet::SimDuration;

/// MiB in bytes, the unit of most rates below.
pub const MIB: f64 = 1024.0 * 1024.0;

/// All model constants.
#[derive(Clone, Debug)]
pub struct Constants {
    // --- stated by the paper (§V-A) ------------------------------------
    /// Measured TCP throughput of the 1 Gbit/s NICs: 117.5 MB/s.
    pub nic_bps: f64,
    /// Intra-cluster one-way latency: 0.1 ms.
    pub latency: SimDuration,
    /// Block/chunk size: 64 MB.
    pub block_bytes: u64,

    // --- 2009 hardware, calibrated ---------------------------------------
    /// Sequential disk write rate. Commodity SATA of the era sustained
    /// 60–80 MB/s; HDFS additionally writes per-block checksum files.
    pub disk_write_bps: f64,
    /// Sequential disk read rate.
    pub disk_read_bps: f64,

    // --- BlobSeer/BSFS software path ------------------------------------
    /// Client-side cost per 64 MB block (BSFS cache memcpy, chunking,
    /// serialization).
    pub bsfs_block_overhead: SimDuration,
    /// Per-block client cost on reads (the 4 KB read loop through the
    /// prefetch cache).
    pub bsfs_read_overhead: SimDuration,
    /// Version-manager service time per assignment: append a log entry,
    /// update the in-flight table (§III-A.4: the only serialized step).
    pub vm_assign_svc: SimDuration,
    /// Version-manager service time per read-side lookup ("the special
    /// call that allows the client to find out the latest version",
    /// §III-A.1). Calibrated to the namenode's base RPC cost — both are a
    /// small table lookup behind one RPC queue.
    pub vm_lookup_svc: SimDuration,
    /// Metadata-provider service time per tree-node put/get.
    pub meta_svc: SimDuration,
    /// Provider request-handling cost per block.
    pub provider_svc: SimDuration,
    /// Metadata providers deployed in the microbenchmarks (§V-C: 20).
    pub meta_shards: usize,

    // --- Hadoop 0.20 software path ----------------------------------------
    /// Per-chunk write-pipeline cost over the network: pipeline setup,
    /// 64 KB packet ack stalls, block finalize (0.20's DataStreamer).
    pub hdfs_chunk_overhead: SimDuration,
    /// Same, for a writer co-located with the target datanode (loopback:
    /// no packet stalls, cheaper pipeline).
    pub hdfs_chunk_overhead_local: SimDuration,
    /// Per-block read-path cost: connection setup plus CRC32 checksum
    /// verification (HDFS stores and verifies .meta checksums; BlobSeer
    /// has no checksum layer — a real protocol difference).
    pub hdfs_read_overhead: SimDuration,
    /// Namenode base service time per RPC.
    pub nn_svc: SimDuration,
    /// Namenode edit-log fsync on block allocation (0.20 logs OP_ADD
    /// synchronously).
    pub nn_editlog_fsync: SimDuration,
    /// 0.20's OP_ADD rewrites the file's *entire* block list on every
    /// allocation — O(chunks) namenode work per chunk, the mechanism
    /// behind HDFS's declining single-writer curve (Fig. 3(a)).
    pub nn_blocklist_per_chunk: SimDuration,

    // --- Map/Reduce job model (Fig. 6) -----------------------------------
    /// Fixed job overhead: job setup/cleanup tasks and jobtracker
    /// bookkeeping in 0.20.
    pub job_overhead: SimDuration,
    /// Tasktracker heartbeat interval (0.20 assigns one task per tracker
    /// per heartbeat).
    pub heartbeat: SimDuration,
    /// Per-task launch cost: 0.20 spawns a fresh JVM for every task
    /// (`mapred.job.reuse.jvm.num.tasks = 1`), plus task init and commit.
    pub task_overhead: SimDuration,
    /// Random-text generation rate of one mapper (Java string handling).
    pub textgen_bps: f64,
    /// Grep scan rate of one mapper. Hadoop's grep example applies
    /// java.util.regex to every line — measured rates in the single-digit
    /// MB/s were typical for 0.20-era clusters.
    pub grep_scan_bps: f64,
    /// Cost of the tiny reduce phase of grep (fetch + sum + write).
    pub reduce_phase: SimDuration,
}

impl Default for Constants {
    fn default() -> Self {
        Self {
            nic_bps: 117.5 * MIB,
            latency: SimDuration::from_micros(100),
            block_bytes: 64 * 1024 * 1024,

            disk_write_bps: 66.0 * MIB,
            disk_read_bps: 80.0 * MIB,

            bsfs_block_overhead: SimDuration::from_millis(60),
            bsfs_read_overhead: SimDuration::from_millis(250),
            vm_assign_svc: SimDuration::from_millis(4),
            vm_lookup_svc: SimDuration::from_millis(1),
            meta_svc: SimDuration::from_micros(150),
            provider_svc: SimDuration::from_millis(10),
            meta_shards: 20,

            hdfs_chunk_overhead: SimDuration::from_millis(450),
            hdfs_chunk_overhead_local: SimDuration::from_millis(300),
            hdfs_read_overhead: SimDuration::from_millis(550),
            nn_svc: SimDuration::from_millis(1),
            nn_editlog_fsync: SimDuration::from_millis(60),
            nn_blocklist_per_chunk: SimDuration::from_micros(1200),

            job_overhead: SimDuration::from_secs(15),
            heartbeat: SimDuration::from_secs(3),
            task_overhead: SimDuration::from_secs(3),
            textgen_bps: 52.0 * MIB,
            grep_scan_bps: 16.0 * MIB,
            reduce_phase: SimDuration::from_secs(5),
        }
    }
}

impl Constants {
    /// Round-trip latency for a small RPC.
    pub fn rtt(&self) -> SimDuration {
        self.latency + self.latency
    }

    /// Time to push one block through an uncontended NIC.
    pub fn block_net_secs(&self) -> f64 {
        self.block_bytes as f64 / self.nic_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_exact() {
        let c = Constants::default();
        assert_eq!(c.nic_bps, 117.5 * 1024.0 * 1024.0);
        assert_eq!(c.latency.as_nanos(), 100_000);
        assert_eq!(c.block_bytes, 64 * 1024 * 1024);
        assert_eq!(c.meta_shards, 20);
        assert_eq!(c.rtt().as_nanos(), 200_000);
    }

    #[test]
    fn derived_rates_are_sane() {
        let c = Constants::default();
        // A 64 MB block takes ~0.545 s on an idle NIC.
        assert!((c.block_net_secs() - 0.5447).abs() < 0.01);
        // Disk is the write bottleneck (the Fig. 3(a)/4 premise).
        assert!(c.disk_write_bps < c.nic_bps);
        assert!(c.disk_read_bps < c.nic_bps);
    }
}
