//! [`LoopbackCluster`]: an N-process-shaped BlobSeer deployment over real
//! loopback sockets.
//!
//! Boots the paper's service decomposition as separate server thread
//! groups — one listener per data provider, one for the metadata DHT, one
//! for the version manager, one for the provider (placement) manager and
//! one for the GC refcount service — and wires client deployments to them
//! through the RPC adapters. Every `BlobClient` obtained from such a
//! deployment drives the *unchanged* protocol of `blobseer_core::client`
//! end to end over TCP: data phase, version assignment, metadata publish,
//! commit, reads, GC.
//!
//! Hosting the control plane is what makes N deployments behave like N
//! *processes of one system* rather than N private systems that happen to
//! share storage:
//!
//! * the **provider manager** is one server-side load table — blocks
//!   written through any deployment charge the same per-provider load
//!   vector, so placement balances globally; and
//! * the **GC refcount tracker** is one server-side count per metadata
//!   node — a subtree shared by snapshots written through two different
//!   client processes has one count, and cascades (DHT deletes, block
//!   deletes, load releases) run server-side next to the stores.
//!
//! With `version_replicas > 1` the version manager itself is a
//! leader-based replica group (`blobseer_control`) hosted behind the same
//! listener — the cluster survives version-manager crashes with no lost
//! or duplicated version numbers.

use crate::client::{
    RpcBlockStore, RpcGcService, RpcMetaStore, RpcPlacementService, RpcVersionService,
};
use crate::server::{InFlight, RpcServer, RpcService, ServerOptions};
use blobseer_control::ReplicatedVersionService;
use blobseer_core::block_store::ProviderSet;
use blobseer_core::dht::MetaDht;
use blobseer_core::gc::GcHost;
use blobseer_core::ports::{
    BlockStore, GcService, MetaStore, PlacementService, ProtocolObserver, VersionService,
};
use blobseer_core::provider_manager::ProviderManager;
use blobseer_core::version_manager::VersionManager;
use blobseer_core::{BlobSeer, EnginePorts, EngineStats, FanoutExecutor, NoopObserver};
use blobseer_disk::frame::FrameLog;
use blobseer_disk::volume::volume_path;
use blobseer_disk::{DiskMetaStore, DiskProviderSet, DiskVolume, DurableVersionService};
use blobseer_types::wire::Wire;
use blobseer_types::{BlobSeerConfig, BlockId, Error, NodeId, Result};
use bytes::Bytes;
use std::net::SocketAddr;
use std::sync::Arc;

/// A booted loopback cluster: the server processes of Fig. 2, each behind
/// its own TCP listener. Dropping the cluster shuts every server down and
/// joins its threads; client deployments outliving the cluster observe
/// [`Error::Transport`] on their next call.
pub struct LoopbackCluster {
    cfg: BlobSeerConfig,
    servers: Vec<RpcServer>,
    block_addrs: Vec<SocketAddr>,
    meta_addr: SocketAddr,
    vm_addr: SocketAddr,
    placement_addr: SocketAddr,
    gc_addr: SocketAddr,
    server_stats: Arc<EngineStats>,
    /// Cluster-wide in-flight request tracker shared by every server.
    in_flight: Arc<InFlight>,
    /// The replicated version-manager group, when the cluster was booted
    /// with `version_replicas > 1` (RAM or disk backend); `None` otherwise.
    replicated_vm: Option<Arc<ReplicatedVersionService>>,
}

/// Block-id range width reserved per cluster *boot*: ~10^12 blocks each,
/// with room for 2^24 reboots of the same data directory. Within one
/// boot every deployment allocates from the shared hosted provider
/// manager, so disjointness needs no per-deployment carve-up.
const BLOCK_ID_RANGE: u64 = 1 << 40;

/// The cluster-side dense provider index space for the hosted GC service:
/// provider `i` is index 0 of the `i`-th single-provider server set. The
/// GC cascade deletes blocks through this adapter directly (in process,
/// next to the stores), not over the wire.
struct FannedProviders {
    sets: Vec<Arc<dyn BlockStore>>,
}

impl std::fmt::Debug for FannedProviders {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FannedProviders")
            .field("sets", &self.sets.len())
            .finish()
    }
}

impl BlockStore for FannedProviders {
    fn len(&self) -> usize {
        self.sets.len()
    }

    fn node(&self, provider: usize) -> NodeId {
        self.sets[provider].node(0)
    }

    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.sets
            .iter()
            .position(|s| s.index_of_node(node).is_some())
    }

    fn contains(&self, provider: usize, id: BlockId) -> bool {
        self.sets.get(provider).is_some_and(|s| s.contains(0, id))
    }

    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        match self.set(provider) {
            Ok(s) => s.put_many(0, items),
            Err(e) => items.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        match self.set(provider) {
            Ok(s) => s.get_many(0, ids),
            Err(e) => ids.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        match self.set(provider) {
            Ok(s) => s.delete_many(0, ids),
            Err(e) => ids.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    fn block_count(&self, provider: usize) -> usize {
        self.sets.get(provider).map_or(0, |s| s.block_count(0))
    }

    fn bytes_stored(&self, provider: usize) -> u64 {
        self.sets.get(provider).map_or(0, |s| s.bytes_stored(0))
    }

    fn op_counts(&self, provider: usize) -> (u64, u64) {
        self.sets.get(provider).map_or((0, 0), |s| s.op_counts(0))
    }
}

impl FannedProviders {
    fn set(&self, provider: usize) -> Result<&Arc<dyn BlockStore>> {
        self.sets
            .get(provider)
            .ok_or_else(|| Error::Internal(format!("provider index {provider} out of range")))
    }
}

impl LoopbackCluster {
    /// Boots `n_providers` single-provider block servers (provider `i`
    /// hosted on node `i`), one metadata-DHT server, one version-manager
    /// server, one placement (provider-manager) server and one GC server,
    /// all on loopback ephemeral ports.
    ///
    /// A non-zero `read_cache_bytes` is refused with
    /// [`Error::Unsupported`]: the client keeps no block cache, and a
    /// budget it would silently ignore is a misconfiguration.
    pub fn boot(cfg: BlobSeerConfig, n_providers: usize) -> Result<Self> {
        assert!(n_providers > 0, "need at least one data provider");
        if cfg.read_cache_bytes > 0 {
            return Err(Error::Unsupported(
                "read_cache_bytes: the client keeps no block cache",
            ));
        }
        // One tracker across all servers: its high watermark observes
        // requests overlapping *anywhere* in the cluster, which is what
        // client-side fan-out produces and a serial client cannot.
        let in_flight = Arc::new(InFlight::new());
        let opts = ServerOptions {
            in_flight: Some(Arc::clone(&in_flight)),
            ..ServerOptions::default()
        };
        let spawn = move |svc: RpcService| {
            RpcServer::spawn(svc, opts.clone())
                .map_err(|e| Error::Transport(format!("spawn loopback server: {e}")))
        };
        let mut servers = Vec::with_capacity(n_providers + 4);
        let mut block_addrs = Vec::with_capacity(n_providers);
        let mut sets: Vec<Arc<dyn BlockStore>> = Vec::with_capacity(n_providers);
        // Backend selection: `data_dir = None` hosts the in-memory
        // adapters (state dies with the cluster); `Some(dir)` hosts the
        // append-only disk stores of `blobseer-disk`, so booting again
        // with the same directory resumes exactly where the previous
        // cluster stopped. Same wire protocol, same client code, either
        // way. Note the disk metadata store keeps a single durable copy
        // per node — `metadata_replication` is an in-memory concern (its
        // durability comes from shard record logs, not replica shards).
        let server_stats = Arc::new(EngineStats::new());
        for i in 0..n_providers {
            let node = NodeId::new(i as u64);
            let set: Arc<dyn BlockStore> = match &cfg.data_dir {
                None => Arc::new(ProviderSet::new(1, |_| node)),
                Some(dir) => Arc::new(DiskProviderSet::from_volumes(vec![DiskVolume::open(
                    volume_path(&dir.join("block"), i),
                    node,
                )?])),
            };
            let server = spawn(RpcService::Block(Arc::clone(&set)))?;
            block_addrs.push(server.addr());
            servers.push(server);
            sets.push(set);
        }
        let dht: Arc<dyn MetaStore> = match &cfg.data_dir {
            None => Arc::new(MetaDht::new(
                cfg.metadata_providers,
                cfg.metadata_replication,
            )),
            Some(dir) => Arc::new(DiskMetaStore::open(
                dir.join("meta"),
                cfg.metadata_providers,
            )?),
        };
        let meta_server = spawn(RpcService::Meta(Arc::clone(&dht)))?;
        let meta_addr = meta_server.addr();
        servers.push(meta_server);
        // The version manager: the bare in-memory VM, one durable replica
        // served alone, or — with `version_replicas > 1` — a leader-based
        // replica group that survives mid-storm leader kills (see
        // `blobseer_control`). Every durable form writes the one replica-log
        // format of `blobseer_disk::version_log`.
        let (replicas, bs) = (cfg.version_replicas, cfg.block_size);
        let replicated_vm = match &cfg.data_dir {
            _ if replicas <= 1 => None,
            None => Some(ReplicatedVersionService::new(replicas, bs)),
            Some(dir) => Some(ReplicatedVersionService::open(
                dir.join("vm-replog"),
                replicas,
                bs,
            )?),
        };
        let vm: Arc<dyn VersionService> = match (&replicated_vm, &cfg.data_dir) {
            (Some(group), _) => Arc::clone(group) as Arc<dyn VersionService>,
            (None, None) => Arc::new(VersionManager::new(bs, Arc::clone(&server_stats))),
            (None, Some(dir)) => {
                Arc::new(DurableVersionService::open(dir.join("version.log"), bs)?)
            }
        };
        let vm_server = spawn(RpcService::Version(vm))?;
        let vm_addr = vm_server.addr();
        servers.push(vm_server);
        // Resume the boot counter from the persisted log: every past boot
        // of this data directory claimed a block-id range for its hosted
        // provider manager, so a rebooted cluster must allocate above all
        // of them (colliding ids would trip the providers' immutable-put
        // check).
        let boots = match &cfg.data_dir {
            None => 0,
            Some(dir) => {
                let mut past = 0u64;
                let mut log = FrameLog::open_with(dir.join("deployments.log"), |_, _| {
                    past += 1;
                    Ok(())
                })?;
                // One frame per boot, ever: the frame count is the next
                // boot index (the payload is only for humans reading the
                // log).
                log.append(&past.to_bytes())?;
                past
            }
        };
        // The hosted control plane: ONE provider manager and ONE GC
        // refcount tracker shared by every deployment wired to this
        // cluster, each behind its own listener. The GC host cascades
        // in-process, next to the stores it deletes from.
        let pm = Arc::new(ProviderManager::with_block_base(
            n_providers,
            1 + boots * BLOCK_ID_RANGE,
        ));
        let placement_server = spawn(RpcService::Placement(
            Arc::clone(&pm) as Arc<dyn PlacementService>
        ))?;
        let placement_addr = placement_server.addr();
        servers.push(placement_server);
        let gc_host: Arc<dyn GcService> = Arc::new(GcHost::new(
            dht,
            Arc::new(FannedProviders { sets }),
            pm,
            Arc::clone(&server_stats),
            Arc::new(FanoutExecutor::new(n_providers.min(8))),
        ));
        let gc_server = spawn(RpcService::Gc(gc_host))?;
        let gc_addr = gc_server.addr();
        servers.push(gc_server);
        Ok(Self {
            cfg,
            servers,
            block_addrs,
            meta_addr,
            vm_addr,
            placement_addr,
            gc_addr,
            server_stats,
            in_flight,
            replicated_vm,
        })
    }

    /// Wires a fresh client deployment to the cluster: RPC adapters for
    /// all five ports behind the unchanged [`BlobSeer::deploy_ports`].
    /// Call it once per simulated client process.
    ///
    /// Every deployment shares the cluster's hosted control plane: blob
    /// ids and versions come from the shared version-manager server,
    /// block ids and load accounting from the shared placement server,
    /// and metadata refcounts from the shared GC server — so blobs
    /// written through one deployment are readable (and collectable)
    /// through any other, and placement balances globally.
    pub fn deploy(&self) -> Result<Arc<BlobSeer>> {
        self.deploy_observed(Arc::new(NoopObserver))
    }

    /// [`Self::deploy`] with a custom [`ProtocolObserver`] wired into the
    /// deployment. Fault-injection tests use it to act at protocol phase
    /// boundaries — e.g. killing the version-manager leader between a
    /// storm's data phase and its version assignment
    /// (`tests/control_plane.rs`).
    pub fn deploy_observed(&self, observer: Arc<dyn ProtocolObserver>) -> Result<Arc<BlobSeer>> {
        // The data-path adapters account their round trips
        // (`port_round_trips`) and vectored items (`batched_items`) on
        // this deployment's stats; the control-plane adapters account on
        // `control_round_trips`.
        let stats = Arc::new(EngineStats::new());
        let budget = self.cfg.rpc_client_connections;
        let ports = EnginePorts {
            providers: Arc::new(RpcBlockStore::connect_with(
                &self.block_addrs,
                Arc::clone(&stats),
                budget,
            )?),
            dht: Arc::new(RpcMetaStore::connect_with(
                self.meta_addr,
                Arc::clone(&stats),
                budget,
            )?),
            vm: Arc::new(RpcVersionService::connect_with(
                self.vm_addr,
                Arc::clone(&stats),
                budget,
            )?),
            pm: Arc::new(RpcPlacementService::connect_with(
                self.placement_addr,
                Arc::clone(&stats),
                budget,
            )?),
            gc: Some(Arc::new(RpcGcService::connect_with(
                self.gc_addr,
                Arc::clone(&stats),
                budget,
            )?)),
            stats,
            observer,
        };
        Ok(BlobSeer::deploy_ports(self.cfg.clone(), ports))
    }

    /// The deployment configuration the cluster was booted with.
    pub fn config(&self) -> &BlobSeerConfig {
        &self.cfg
    }

    /// Number of server processes (listeners): one per provider, plus the
    /// DHT, the version manager, the placement manager and the GC
    /// service.
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Total request frames served across every server of the cluster —
    /// the server-side view of the round trips the client adapters count
    /// in their deployment's `port_round_trips` (data path) and
    /// `control_round_trips` (placement + GC).
    pub fn frames_served(&self) -> u64 {
        self.servers.iter().map(|s| s.frames_served()).sum()
    }

    /// Total TCP connections accepted across every server of the cluster.
    /// With muxed clients this is bounded by `deployments × endpoints ×
    /// rpc_client_connections` no matter how many requests are in flight
    /// — the mux tests assert on it.
    pub fn connections_accepted(&self) -> u64 {
        self.servers.iter().map(|s| s.connections_accepted()).sum()
    }

    /// Highest number of simultaneously in-flight requests ever observed
    /// across the whole cluster — the structural proof of client-side
    /// fan-out. A deployment with `client_io_threads = Some(1)` can never
    /// push this above 1 per client thread; the fan-out executor can.
    pub fn in_flight_high_watermark(&self) -> u64 {
        self.in_flight.high_watermark()
    }

    /// Addresses of the per-provider block services.
    pub fn block_addrs(&self) -> &[SocketAddr] {
        &self.block_addrs
    }

    /// Address of the metadata-DHT service.
    pub fn meta_addr(&self) -> SocketAddr {
        self.meta_addr
    }

    /// Address of the version-manager service.
    pub fn vm_addr(&self) -> SocketAddr {
        self.vm_addr
    }

    /// Address of the placement (provider-manager) service.
    pub fn placement_addr(&self) -> SocketAddr {
        self.placement_addr
    }

    /// Address of the GC refcount service.
    pub fn gc_addr(&self) -> SocketAddr {
        self.gc_addr
    }

    /// The hosted replicated version-manager group, when the cluster was
    /// booted with `version_replicas > 1` — fault-injection tests use it
    /// to kill and revive replicas mid-storm.
    pub fn replicated_vm(&self) -> Option<&Arc<ReplicatedVersionService>> {
        self.replicated_vm.as_ref()
    }

    /// Server-side engine counters (the hosted version manager's, e.g.
    /// `versions_assigned`). Client-side counters live on each
    /// deployment's own [`BlobSeer::stats`].
    pub fn server_stats(&self) -> &Arc<EngineStats> {
        &self.server_stats
    }

    /// Shuts every server down and joins its threads. Also runs on drop.
    pub fn shutdown(&mut self) {
        for server in &mut self.servers {
            server.shutdown();
        }
    }
}

impl Drop for LoopbackCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
