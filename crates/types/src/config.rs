//! Configuration for the two storage engines.
//!
//! Defaults mirror the paper's deployment (§V): 64 MB blocks, replication 1
//! (the throughput experiments compare unreplicated transfers), round-robin
//! placement for BlobSeer. Tests and benches shrink the block size so that
//! realistic multi-block files fit in memory.

use std::path::PathBuf;
use std::time::Duration;

/// Default patience of the unaligned-append slow path: how long a writer
/// waits for the preceding snapshot's reveal before repairing its own
/// version (see `blobseer_core::client` module docs).
pub const DEFAULT_UNALIGNED_APPEND_TIMEOUT: Duration = Duration::from_secs(30);

/// Default patience of `BsfsOutput::close()`: how long a closing stream
/// waits for its final append's snapshot to be revealed (close-to-open
/// visibility). Tests and simulated-time deployments shrink it — a 30 s
/// real condvar wait can never be satisfied inside a SimGate turn.
pub const DEFAULT_CLOSE_REVEAL_TIMEOUT: Duration = Duration::from_secs(30);

/// Default multiplexed-connection budget per remote endpoint: how many TCP
/// connections a client adapter opens to one service before pipelining
/// further concurrent requests onto the existing ones.
pub const DEFAULT_RPC_CLIENT_CONNECTIONS: usize = 4;

/// Default worker threads per RPC server: how many requests one service
/// listener executes concurrently (readers only parse frames; the workers
/// run the port calls).
pub const DEFAULT_RPC_SERVER_WORKERS: usize = 4;

/// Bound of an RPC server's request queue (`RpcServer::spawn`, every
/// `LoopbackCluster` server). A full queue makes connection readers stop
/// pulling frames off their sockets (TCP backpressure) instead of
/// buffering without limit.
pub const DEFAULT_RPC_SERVER_QUEUE_DEPTH: usize = 128;

/// Cap on the auto-sized client fan-out pool: with
/// `client_io_threads = None` a deployment uses `min(8, providers)` I/O
/// threads (one per provider until the pool saturates at 8, the paper's
/// per-client striping width in §V).
pub const DEFAULT_CLIENT_IO_THREADS_CAP: usize = 8;

/// Placement policy used by the provider manager (§III-B: "a load balancing
/// strategy that aims at evenly distributing the blocks across data
/// providers").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// BlobSeer's default: allocate blocks on providers in a round-robin
    /// fashion (§V-D).
    #[default]
    RoundRobin,
    /// Pick the provider currently storing the fewest blocks; ties broken by
    /// lowest node id. A natural "even distribution" alternative used in
    /// ablations.
    LeastLoaded,
    /// Uniform random placement (the balls-in-bins baseline).
    Random,
    /// Random with session affinity: with probability `stickiness`
    /// (in percent, 0–100) the next block stays on the previous provider.
    /// Models HDFS 0.20 pipeline-session behaviour for remote writers; see
    /// DESIGN.md §3.4.
    StickyRandom {
        /// Probability in percent (0–100) of re-using the previous target.
        stickiness: u8,
    },
}

/// Configuration of a BlobSeer deployment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobSeerConfig {
    /// Size of a data block ("we set this size to the size of the data piece
    /// a Map/Reduce worker is supposed to process", §III-A.2).
    pub block_size: u64,
    /// Number of replicas stored for each block (§VI-B). 1 = no replication.
    pub replication: usize,
    /// Placement policy used by the provider manager.
    pub placement: PlacementPolicy,
    /// Number of metadata providers forming the DHT (the paper deploys 10–20).
    pub metadata_providers: usize,
    /// Replication level of metadata tree nodes within the DHT (§VI-B:
    /// "metadata is stored in a DHT … resilient to faults by construction").
    pub metadata_replication: usize,
    /// How long an unaligned append waits for the preceding snapshot's
    /// reveal before giving up and repairing its assigned version. Tests
    /// and simulation runs shrink this so a crashed predecessor does not
    /// stall them for the full production patience.
    pub unaligned_append_timeout: Duration,
    /// How long a closing BSFS output stream waits for its final append's
    /// reveal (close-to-open visibility). Like the unaligned-append
    /// patience, tests and simulated-time deployments shrink this: `Drop`
    /// additionally bounds it so an abandoned stream can never stall a
    /// harness for the full production patience.
    pub close_reveal_timeout: Duration,
    /// Multiplexed TCP connections a remote-backend client opens per
    /// service endpoint. Concurrent requests beyond the budget pipeline
    /// onto the shared connections instead of opening new sockets.
    pub rpc_client_connections: usize,
    /// Worker threads per RPC server listener — the degree of request
    /// parallelism one service process offers.
    pub rpc_server_workers: usize,
    /// Byte budget of the client-side hot-read cache over blocks and
    /// metadata tree nodes. `0` disables caching — the default, and what
    /// the figure reproductions run with (the paper's curves are
    /// cache-cold; see `docs/REPRODUCING.md`).
    pub read_cache_bytes: u64,
    /// Threads in the client's fan-out I/O pool, which overlaps
    /// per-provider batches across the data, fetch, publish and GC phases.
    /// `None` (the default) auto-sizes to `min(8, providers)` at deploy
    /// time; `Some(1)` disables fan-out entirely — every batch runs inline
    /// on the caller, which is byte- and frame-identical to the serial
    /// client and is required for SimGate deployments (the virtual-time
    /// harness cannot gate extra OS threads; see
    /// `experiments::concurrent`). Must be at least 1.
    pub client_io_threads: Option<usize>,
    /// Root directory of the durable (disk-backed) storage tier. `None`
    /// (the default) keeps every service RAM-backed, as in all previous
    /// backends; `Some(dir)` makes a `LoopbackCluster` host its data
    /// providers, metadata DHT and version manager on append-only files
    /// under `dir`, so a stopped cluster can be re-booted on the same
    /// directory with all BLOBs, versions and metadata intact.
    pub data_dir: Option<PathBuf>,
    /// Read-ahead window of a BSFS input stream in bytes. While a caller
    /// consumes block *b*, the stream prefetches up to this many bytes
    /// ahead through the fan-out executor. `0` (the default) disables
    /// read-ahead. Values are interpreted as whole blocks (rounded up to a
    /// multiple of `block_size`); the builder warns when the value is not
    /// already a multiple.
    pub readahead_bytes: u64,
    /// Number of version-manager replicas a hosted cluster boots. `1`
    /// (the default, and the figure-reproduction setting) hosts the
    /// single version manager of the paper; values above 1 host a
    /// leader-based replica group (`blobseer-control`) that keeps issuing
    /// gap-free version numbers across leader crashes.
    pub version_replicas: usize,
}

impl Default for BlobSeerConfig {
    fn default() -> Self {
        Self {
            block_size: super::PAPER_BLOCK_SIZE,
            replication: 1,
            placement: PlacementPolicy::RoundRobin,
            metadata_providers: 20,
            metadata_replication: 1,
            unaligned_append_timeout: DEFAULT_UNALIGNED_APPEND_TIMEOUT,
            close_reveal_timeout: DEFAULT_CLOSE_REVEAL_TIMEOUT,
            rpc_client_connections: DEFAULT_RPC_CLIENT_CONNECTIONS,
            rpc_server_workers: DEFAULT_RPC_SERVER_WORKERS,
            read_cache_bytes: 0,
            data_dir: None,
            client_io_threads: None,
            readahead_bytes: 0,
            version_replicas: 1,
        }
    }
}

impl BlobSeerConfig {
    /// A configuration with small blocks, convenient for tests that want
    /// many-block files without gigabytes of RAM. Reveal patiences shrink
    /// too: in-process reveals are immediate, so a stuck predecessor should
    /// fail a test in seconds, not stall it for the production 30 s.
    pub fn small_for_tests() -> Self {
        Self {
            block_size: 4 * 1024,
            metadata_providers: 4,
            close_reveal_timeout: Duration::from_secs(2),
            // Small but real fan-out: tests exercise the pooled dispatch
            // path by default while staying cheap on 1-CPU runners.
            client_io_threads: Some(2),
            ..Self::default()
        }
    }

    /// Builder-style override of the block size.
    #[must_use]
    pub fn with_block_size(mut self, block_size: u64) -> Self {
        assert!(block_size > 0, "block size must be positive");
        self.block_size = block_size;
        self
    }

    /// Builder-style override of the replication level.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!(replication >= 1, "replication level must be at least 1");
        self.replication = replication;
        self
    }

    /// Builder-style override of the placement policy.
    #[must_use]
    pub fn with_placement(mut self, placement: PlacementPolicy) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style override of the metadata provider count.
    #[must_use]
    pub fn with_metadata_providers(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one metadata provider");
        self.metadata_providers = n;
        self
    }

    /// Builder-style override of the unaligned-append patience.
    #[must_use]
    pub fn with_unaligned_append_timeout(mut self, timeout: Duration) -> Self {
        self.unaligned_append_timeout = timeout;
        self
    }

    /// Builder-style override of the close-reveal patience.
    #[must_use]
    pub fn with_close_reveal_timeout(mut self, timeout: Duration) -> Self {
        self.close_reveal_timeout = timeout;
        self
    }

    /// Builder-style override of the hot-read cache budget (`0` disables).
    #[must_use]
    pub fn with_read_cache_bytes(mut self, bytes: u64) -> Self {
        self.read_cache_bytes = bytes;
        self
    }

    /// Builder-style override of the durable-storage root. Booting a
    /// cluster with this set hosts its services on append-only files
    /// under `dir` (created if absent) instead of RAM.
    #[must_use]
    pub fn with_data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Builder-style override of the fan-out I/O thread count. `1`
    /// disables fan-out (inline, serial-identical dispatch); see the
    /// field docs for the SimGate requirement.
    #[must_use]
    pub fn with_client_io_threads(mut self, threads: usize) -> Self {
        assert!(threads >= 1, "need at least one client I/O thread");
        self.client_io_threads = Some(threads);
        self
    }

    /// Builder-style override of the BSFS read-ahead window (`0`
    /// disables). Warns on stderr when the window is not a multiple of
    /// the *currently configured* block size — set the block size first
    /// when chaining, or expect the effective window to round up to
    /// whole blocks.
    #[must_use]
    pub fn with_readahead_bytes(mut self, bytes: u64) -> Self {
        if !bytes.is_multiple_of(self.block_size) {
            eprintln!(
                "warning: readahead_bytes = {bytes} is not a multiple of block_size = {}; \
                 the effective window rounds up to whole blocks",
                self.block_size
            );
        }
        self.readahead_bytes = bytes;
        self
    }

    /// Builder-style override of the version-manager replica count a
    /// hosted cluster boots. Must be at least 1; `1` keeps the paper's
    /// single version manager.
    #[must_use]
    pub fn with_version_replicas(mut self, replicas: usize) -> Self {
        assert!(replicas >= 1, "a deployment needs at least one replica");
        self.version_replicas = replicas;
        self
    }

    /// The read-ahead window in whole blocks (rounded up). `0` = off.
    pub fn readahead_blocks(&self) -> u64 {
        self.readahead_bytes.div_ceil(self.block_size)
    }
}

/// Configuration of the HDFS baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HdfsConfig {
    /// Chunk ("block" in HDFS terms) size; 64 MB in the paper.
    pub chunk_size: u64,
    /// Replication level. The paper's throughput experiments behave like
    /// replication 1; HDFS defaults to 3 in production.
    pub replication: usize,
    /// Whether `append` is supported. Hadoop 0.20 does not implement it
    /// (§V-F); flipping this models later Hadoop versions.
    pub append_supported: bool,
    /// Placement affinity in percent for remote writers (see
    /// `PlacementPolicy::StickyRandom` and DESIGN.md §3.4). 0 = pure random.
    pub placement_stickiness: u8,
}

impl Default for HdfsConfig {
    fn default() -> Self {
        Self {
            chunk_size: super::PAPER_BLOCK_SIZE,
            replication: 1,
            append_supported: false,
            placement_stickiness: 40,
        }
    }
}

impl HdfsConfig {
    /// Small-chunk configuration for tests.
    pub fn small_for_tests() -> Self {
        Self {
            chunk_size: 4 * 1024,
            replication: 1,
            append_supported: false,
            placement_stickiness: 40,
        }
    }

    /// Builder-style override of the chunk size.
    #[must_use]
    pub fn with_chunk_size(mut self, chunk_size: u64) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        self.chunk_size = chunk_size;
        self
    }

    /// Builder-style override of the replication level.
    #[must_use]
    pub fn with_replication(mut self, replication: usize) -> Self {
        assert!(replication >= 1, "replication level must be at least 1");
        self.replication = replication;
        self
    }

    /// Builder-style toggle for append support.
    #[must_use]
    pub fn with_append(mut self, yes: bool) -> Self {
        self.append_supported = yes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_mirror_the_paper() {
        let c = BlobSeerConfig::default();
        assert_eq!(c.block_size, 64 * 1024 * 1024);
        assert_eq!(c.replication, 1);
        assert_eq!(c.placement, PlacementPolicy::RoundRobin);
        assert_eq!(c.metadata_providers, 20);
        assert_eq!(c.unaligned_append_timeout, Duration::from_secs(30));
        assert_eq!(c.close_reveal_timeout, Duration::from_secs(30));
        assert_eq!(c.rpc_client_connections, 4);
        assert_eq!(c.rpc_server_workers, 4);
        assert_eq!(c.read_cache_bytes, 0, "figure runs are cache-cold");
        assert_eq!(c.data_dir, None, "RAM-backed unless opted in");
        assert_eq!(c.client_io_threads, None, "auto: min(8, providers)");
        assert_eq!(c.readahead_bytes, 0, "read-ahead is opt-in");
        assert_eq!(c.version_replicas, 1, "the paper runs one version manager");

        let h = HdfsConfig::default();
        assert_eq!(h.chunk_size, 64 * 1024 * 1024);
        assert!(!h.append_supported, "Hadoop 0.20 has no append (§V-F)");
    }

    #[test]
    fn builders_chain() {
        let c = BlobSeerConfig::small_for_tests()
            .with_block_size(1024)
            .with_replication(3)
            .with_placement(PlacementPolicy::LeastLoaded)
            .with_metadata_providers(2)
            .with_unaligned_append_timeout(Duration::from_millis(50))
            .with_close_reveal_timeout(Duration::from_millis(80))
            .with_read_cache_bytes(1 << 20)
            .with_data_dir("/tmp/blobseer-data")
            .with_client_io_threads(4)
            .with_readahead_bytes(4096)
            .with_version_replicas(3);
        assert_eq!(c.unaligned_append_timeout, Duration::from_millis(50));
        assert_eq!(c.close_reveal_timeout, Duration::from_millis(80));
        assert_eq!(c.block_size, 1024);
        assert_eq!(c.replication, 3);
        assert_eq!(c.placement, PlacementPolicy::LeastLoaded);
        assert_eq!(c.metadata_providers, 2);
        assert_eq!(c.read_cache_bytes, 1 << 20);
        assert_eq!(c.data_dir, Some(PathBuf::from("/tmp/blobseer-data")));
        assert_eq!(c.client_io_threads, Some(4));
        assert_eq!(c.readahead_bytes, 4096);
        assert_eq!(c.readahead_blocks(), 4, "1024-byte blocks, 4 KB window");
        assert_eq!(c.version_replicas, 3);

        let h = HdfsConfig::small_for_tests()
            .with_chunk_size(512)
            .with_append(true);
        assert_eq!(h.chunk_size, 512);
        assert!(h.append_supported);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_rejected() {
        let _ = BlobSeerConfig::default().with_block_size(0);
    }

    #[test]
    #[should_panic(expected = "replication level must be at least 1")]
    fn zero_replication_rejected() {
        let _ = BlobSeerConfig::default().with_replication(0);
    }

    #[test]
    #[should_panic(expected = "need at least one client I/O thread")]
    fn zero_io_threads_rejected() {
        let _ = BlobSeerConfig::default().with_client_io_threads(0);
    }

    #[test]
    fn unaligned_readahead_rounds_up_to_whole_blocks() {
        let c = BlobSeerConfig::small_for_tests().with_readahead_bytes(4096 + 1);
        assert_eq!(c.readahead_blocks(), 2);
        let off = BlobSeerConfig::small_for_tests();
        assert_eq!(off.readahead_blocks(), 0);
    }
}
