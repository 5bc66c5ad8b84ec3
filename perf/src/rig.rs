//! Building the deployments the workloads drive: the load shape that is the
//! same everywhere (4 data providers, 2 closed-loop client threads, one
//! deployment per client, `BlobSeerConfig::default()` apart from the block
//! size and the data directory), plus scratch directories inside the
//! checkout.

use crate::ports::instrument;
use crate::trace::{OpTimer, Trace};
use blobseer_core::{BlobSeer, EnginePorts, EngineStats, NoopObserver};
use blobseer_rpc::{
    LoopbackCluster, RpcBlockStore, RpcGcService, RpcMetaStore, RpcPlacementService,
    RpcVersionService,
};
use blobseer_types::{BlobSeerConfig, NodeId, Result};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Data providers in every deployment.
pub const PROVIDERS: usize = 4;

/// Client threads in every workload: fixed (it is `nproc` on the box the
/// benchmark was sized on), not derived, so op counts repeat elsewhere.
pub const CLIENTS: usize = 2;

/// The shipped configuration with only the block size chosen: cache off,
/// one version-manager replica, default fan-out and connection budget.
pub fn config(block_size: u64) -> BlobSeerConfig {
    BlobSeerConfig::default().with_block_size(block_size)
}

/// Where the benchmark writes: span files, result files, scratch data
/// directories. Inside the package, so inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed on drop.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = out_dir().join("tmp").join(format!(
            "{label}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes in regular files below the directory.
    pub fn bytes_on_disk(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            let Ok(entries) = std::fs::read_dir(dir) else {
                return 0;
            };
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One client: its own deployment and the timer for its ops.
pub struct Client {
    pub sys: Arc<BlobSeer>,
    pub timer: OpTimer,
}

/// One client deployment wired to `cluster`. Untraced it is exactly
/// `LoopbackCluster::deploy()`; traced, the same five RPC adapters are
/// built through their public `connect_with` and wrapped by the
/// benchmark's decorators before `deploy_ports`.
pub fn rpc_client(cluster: &LoopbackCluster, trace: Option<&Arc<Trace>>) -> Result<Client> {
    let Some(trace) = trace else {
        return Ok(Client {
            sys: cluster.deploy()?,
            timer: OpTimer::untraced(),
        });
    };
    let cfg = cluster.config().clone();
    let stats = Arc::new(EngineStats::new());
    let budget = cfg.rpc_client_connections;
    let ports = EnginePorts {
        providers: Arc::new(RpcBlockStore::connect_with(
            cluster.block_addrs(),
            Arc::clone(&stats),
            budget,
        )?),
        dht: Arc::new(RpcMetaStore::connect_with(
            cluster.meta_addr(),
            Arc::clone(&stats),
            budget,
        )?),
        vm: Arc::new(RpcVersionService::connect_with(
            cluster.vm_addr(),
            Arc::clone(&stats),
            budget,
        )?),
        pm: Arc::new(RpcPlacementService::connect_with(
            cluster.placement_addr(),
            Arc::clone(&stats),
            budget,
        )?),
        gc: Some(Arc::new(RpcGcService::connect_with(
            cluster.gc_addr(),
            Arc::clone(&stats),
            budget,
        )?)),
        stats,
        observer: Arc::new(NoopObserver),
    };
    let (ports, ctx) = instrument(ports, trace);
    let sys = BlobSeer::deploy_ports(cfg, ports);
    Ok(Client {
        timer: OpTimer::traced(Arc::clone(trace), ctx, Arc::clone(&sys)),
        sys,
    })
}

/// A booted loopback cluster with one deployment per client thread.
pub struct RpcRig {
    pub clients: Vec<Client>,
    // Dropped after the clients, so their connections close first.
    pub cluster: LoopbackCluster,
}

pub fn rpc_rig(cfg: BlobSeerConfig, trace: Option<&Arc<Trace>>) -> Result<RpcRig> {
    let cluster = LoopbackCluster::boot(cfg, PROVIDERS)?;
    let clients = (0..CLIENTS)
        .map(|_| rpc_client(&cluster, trace))
        .collect::<Result<_>>()?;
    Ok(RpcRig { clients, cluster })
}

/// The in-process in-memory deployment (`BlobSeer::deploy`), shared by
/// every client thread — the shape `BsfsCluster` wraps.
pub fn mem_client(cfg: BlobSeerConfig, trace: Option<&Arc<Trace>>) -> Client {
    let Some(trace) = trace else {
        return Client {
            sys: BlobSeer::deploy(cfg, PROVIDERS),
            timer: OpTimer::untraced(),
        };
    };
    // `BlobSeer::deploy`'s own wiring (nodes 0..n, its default placement
    // seed), with the decorators in between.
    let nodes = (0..PROVIDERS as u64).map(NodeId::new).collect();
    let (ports, ctx) = instrument(EnginePorts::in_memory(&cfg, nodes, 0x5EED_0001), trace);
    let sys = BlobSeer::deploy_ports(cfg, ports);
    Client {
        timer: OpTimer::traced(Arc::clone(trace), ctx, Arc::clone(&sys)),
        sys,
    }
}
