//! Deployment wiring: assembling the service processes of Fig. 2 behind the
//! port traits and handing out client handles.

use crate::exec::FanoutExecutor;
use crate::gc::GcHost;
use crate::meta::tree::TreeStore;
use crate::ports::{
    BlockStore, GcService, MetaStore, NoopObserver, PlacementService, ProtocolObserver,
    VersionService,
};
use crate::provider_manager::ProviderManager;
use crate::stats::EngineStats;
use crate::version_manager::VersionManager;
use blobseer_types::config::DEFAULT_CLIENT_IO_THREADS_CAP;
use blobseer_types::{BlobSeerConfig, NodeId};
use std::sync::Arc;

use super::BlobClient;

/// The backend adapters a deployment runs on. Build one to wire custom
/// [`BlockStore`]/[`MetaStore`]/[`VersionService`] implementations (a
/// simnet-backed cost model, a fault injector, later an RPC transport) into
/// the unchanged client protocol; [`BlobSeer::deploy`] builds the in-memory
/// default.
pub struct EnginePorts {
    /// The data providers.
    pub providers: Arc<dyn BlockStore>,
    /// The metadata DHT.
    pub dht: Arc<dyn MetaStore>,
    /// The version manager.
    pub vm: Arc<dyn VersionService>,
    /// The placement service scheduling block placement (in-memory
    /// [`ProviderManager`] or a remote adapter against a hosted one). Its
    /// provider count must match `providers.len()`.
    pub pm: Arc<dyn PlacementService>,
    /// The GC service holding node refcounts and running cascades. `None`
    /// wires a deployment-private [`GcHost`] over the ports above — correct
    /// for single-process deployments; multi-process clusters must share
    /// one hosted service or refcounts of shared subtrees diverge.
    pub gc: Option<Arc<dyn GcService>>,
    /// Engine counters, shared with any decorators that want to account
    /// their own work.
    pub stats: Arc<EngineStats>,
    /// Passive observer of protocol phase boundaries
    /// ([`crate::ports::ProtocolObserver`]); [`NoopObserver`] by default.
    pub observer: Arc<dyn ProtocolObserver>,
}

impl EnginePorts {
    /// The standard in-memory adapters: lock-striped [`crate::block_store::
    /// ProviderSet`]/[`crate::dht::MetaDht`] plus a [`VersionManager`], with
    /// one data provider per entry of `provider_nodes`.
    ///
    /// `_pm_seed` is ignored: round-robin placement draws no random
    /// numbers. The parameter stays only for existing callers.
    pub fn in_memory(cfg: &BlobSeerConfig, provider_nodes: Vec<NodeId>, _pm_seed: u64) -> Self {
        assert!(
            !provider_nodes.is_empty(),
            "need at least one data provider"
        );
        let stats = Arc::new(EngineStats::new());
        Self {
            providers: Arc::new(crate::block_store::ProviderSet::new(
                provider_nodes.len(),
                |i| provider_nodes[i],
            )),
            dht: Arc::new(crate::dht::MetaDht::new(
                cfg.metadata_providers,
                cfg.metadata_replication,
            )),
            vm: Arc::new(VersionManager::new(cfg.block_size, Arc::clone(&stats))),
            pm: Arc::new(ProviderManager::new(provider_nodes.len())),
            gc: None,
            stats,
            observer: Arc::new(NoopObserver),
        }
    }
}

/// A BlobSeer deployment: all service processes of Fig. 2 wired together
/// behind the port traits of [`crate::ports`].
pub struct BlobSeer {
    pub(crate) cfg: BlobSeerConfig,
    pub(crate) providers: Arc<dyn BlockStore>,
    pub(crate) pm: Arc<dyn PlacementService>,
    pub(crate) dht: Arc<dyn MetaStore>,
    pub(crate) vm: Arc<dyn VersionService>,
    pub(crate) gc: Arc<dyn GcService>,
    pub(crate) stats: Arc<EngineStats>,
    pub(crate) observer: Arc<dyn ProtocolObserver>,
    pub(crate) exec: Arc<FanoutExecutor>,
}

impl BlobSeer {
    /// Deploys the system with `n_data_providers` in-memory data providers
    /// hosted on nodes `0..n`.
    pub fn deploy(cfg: BlobSeerConfig, n_data_providers: usize) -> Arc<Self> {
        Self::deploy_on(cfg, (0..n_data_providers as u64).map(NodeId::new).collect())
    }

    /// Deploys with one in-memory data provider per given node.
    pub fn deploy_on(cfg: BlobSeerConfig, provider_nodes: Vec<NodeId>) -> Arc<Self> {
        let ports = EnginePorts::in_memory(&cfg, provider_nodes, 0);
        Self::deploy_ports(cfg, ports)
    }

    /// Deploys on explicit backend adapters — the extension point every
    /// non-default deployment goes through (see the module guide in
    /// [`crate::client`]).
    pub fn deploy_ports(cfg: BlobSeerConfig, ports: EnginePorts) -> Arc<Self> {
        assert!(
            cfg.block_size <= u32::MAX as u64,
            "block size must fit in 32 bits"
        );
        assert!(!ports.providers.is_empty(), "need at least one provider");
        assert_eq!(
            ports.pm.provider_count(),
            ports.providers.len(),
            "provider manager and block store must agree on the provider count"
        );
        // Auto-size the fan-out pool to the striping width, capped at the
        // paper's per-client width of 8; an explicit `Some(1)` keeps the
        // deployment thread-free (required under SimGate).
        let io_threads = cfg
            .client_io_threads
            .unwrap_or_else(|| ports.providers.len().min(DEFAULT_CLIENT_IO_THREADS_CAP))
            .max(1);
        let exec = Arc::new(FanoutExecutor::new(io_threads));
        // No external GC service → embed a deployment-private host over
        // the same ports (the single-process shape). Hosted clusters pass
        // a remote adapter instead so every client process shares one
        // refcount table.
        let gc = ports.gc.unwrap_or_else(|| {
            Arc::new(GcHost::new(
                Arc::clone(&ports.dht),
                Arc::clone(&ports.providers),
                Arc::clone(&ports.pm),
                Arc::clone(&ports.stats),
                Arc::clone(&exec),
            ))
        });
        Arc::new(Self {
            cfg,
            providers: ports.providers,
            pm: ports.pm,
            dht: ports.dht,
            vm: ports.vm,
            gc,
            stats: ports.stats,
            observer: ports.observer,
            exec,
        })
    }

    /// A client bound to a cluster node (the node matters for diagnostics
    /// and for locality-aware schedulers reading block locations).
    pub fn client(self: &Arc<Self>, node: NodeId) -> BlobClient {
        BlobClient {
            sys: Arc::clone(self),
            node,
        }
    }

    /// Deployment configuration.
    pub fn config(&self) -> &BlobSeerConfig {
        &self.cfg
    }

    /// Engine counters.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The data-provider port (for inspection in tests and experiments).
    pub fn providers(&self) -> &dyn BlockStore {
        &*self.providers
    }

    /// The metadata-store port (for inspection).
    pub fn dht(&self) -> &dyn MetaStore {
        &*self.dht
    }

    /// The version-service port (for inspection and direct protocol
    /// access).
    pub fn version_manager(&self) -> &dyn VersionService {
        &*self.vm
    }

    /// The placement-service port (the provider manager, or a remote
    /// adapter against a hosted one).
    pub fn provider_manager(&self) -> &dyn PlacementService {
        &*self.pm
    }

    /// The GC-service port (for inspection of refcounts in tests).
    pub fn gc_service(&self) -> &dyn GcService {
        &*self.gc
    }

    /// Per-provider block counts — the layout vector of Fig. 3(b).
    pub fn layout_vector(&self) -> Vec<u64> {
        self.providers.layout_vector()
    }

    pub(crate) fn tree(&self) -> TreeStore<'_> {
        TreeStore {
            dht: &self.dht,
            gc: &self.gc,
            stats: &self.stats,
            exec: self.exec.as_ref(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block_store::ProviderSet;
    use crate::dht::MetaDht;

    #[test]
    fn custom_ports_drive_the_same_protocol() {
        // Wire the deployment by hand — the path every custom backend uses.
        let cfg = BlobSeerConfig::small_for_tests().with_block_size(64);
        let stats = Arc::new(EngineStats::new());
        let ports = EnginePorts {
            providers: Arc::new(ProviderSet::new(2, |i| NodeId::new(10 + i as u64))),
            dht: Arc::new(MetaDht::new(4, 1)),
            vm: Arc::new(VersionManager::new(64, Arc::clone(&stats))),
            pm: Arc::new(ProviderManager::new(2)),
            gc: None,
            stats,
            observer: Arc::new(NoopObserver),
        };
        let sys = BlobSeer::deploy_ports(cfg, ports);
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        c.write(blob, 0, &[5u8; 128]).unwrap();
        assert_eq!(&c.read(blob, None, 0, 128).unwrap()[..], &[5u8; 128][..]);
        assert_eq!(sys.providers().node(0), NodeId::new(10));
        assert_eq!(sys.layout_vector(), vec![1, 1]);
    }

    #[test]
    #[should_panic(expected = "must agree on the provider count")]
    fn mismatched_pm_is_rejected() {
        let cfg = BlobSeerConfig::small_for_tests();
        let mut ports = EnginePorts::in_memory(&cfg, vec![NodeId::new(0), NodeId::new(1)], 0);
        ports.pm = Arc::new(ProviderManager::new(5));
        let _ = BlobSeer::deploy_ports(cfg, ports);
    }
}
