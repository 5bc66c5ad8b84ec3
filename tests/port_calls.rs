//! What the client, the GC cascade and the tree send through the ports.
//!
//! Every multi-provider and multi-shard path splits a batch by provider or
//! shard, makes one vectored call per group and puts the answers back in
//! input order. This file pins that structure from the outside:
//!
//! * recording decorators capture the exact `(op, provider or shard,
//!   ids/keys)` sequence of a 64-block write, a full read, a multi-shard
//!   append and descent, a failed write's undo, a `delete_blob` cascade and
//!   a replica-failover read, against `tests/fixtures/port_calls.txt`;
//! * a leaf descriptor naming no provider, or a provider the deployment
//!   does not have, fails the read and the locality lookup instead of
//!   panicking the client;
//! * a data phase that fails counts none of the blocks it then deletes.

use blobseer_core::meta::key::{NodeKey, Pos};
use blobseer_core::meta::node::TreeNode;
use blobseer_core::ports::{BlockHook, BlockStore, Hooked, MetaHook, MetaStore};
use blobseer_core::{BlobSeer, EnginePorts};
use blobseer_types::{BlobId, BlobSeerConfig, BlockId, Error, NodeId, Result, Version};
use bytes::Bytes;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const BLOCK: u64 = 64;
const PROVIDERS: u64 = 4;

type Log = Arc<Mutex<Vec<String>>>;

fn record(log: &Log, op: &str, target: String, items: impl IntoIterator<Item = String>) {
    let items: Vec<String> = items.into_iter().collect();
    log.lock()
        .unwrap()
        .push(format!("{op} {target} [{}]", items.join(" ")));
}

/// Records every vectored block-store call. Refuses, wholesale, the
/// `refuse`-th `put_many` call it sees (1-based; 0 = never).
struct RecordingBlocks {
    log: Log,
    puts: AtomicUsize,
    refuse: AtomicUsize,
}

impl BlockHook for RecordingBlocks {
    fn put_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        items: &[(BlockId, Bytes)],
    ) -> Vec<Result<()>> {
        let ids = items.iter().map(|(id, _)| id.raw().to_string());
        record(&self.log, "blocks.put_many", format!("p{provider}"), ids);
        let n = self.puts.fetch_add(1, Ordering::SeqCst) + 1;
        if n == self.refuse.load(Ordering::SeqCst) {
            let refused = || Error::WriteAborted(format!("provider {provider} refused"));
            return items.iter().map(|_| Err(refused())).collect();
        }
        inner.put_many(provider, items)
    }
    fn get_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        ids: &[BlockId],
    ) -> Vec<Result<Bytes>> {
        let shown = ids.iter().map(|id| id.raw().to_string());
        record(&self.log, "blocks.get_many", format!("p{provider}"), shown);
        inner.get_many(provider, ids)
    }
    fn delete_many(
        &self,
        inner: &dyn BlockStore,
        provider: usize,
        ids: &[BlockId],
    ) -> Vec<Result<u64>> {
        let shown = ids.iter().map(|id| id.raw().to_string());
        record(
            &self.log,
            "blocks.delete_many",
            format!("p{provider}"),
            shown,
        );
        inner.delete_many(provider, ids)
    }
}

/// Records every vectored metadata call with the fan-out shards its keys
/// map to (first-appearance order), and forwards `fanout_shard` so the
/// client groups exactly as it would over the bare store.
struct RecordingMeta {
    log: Log,
}

impl RecordingMeta {
    fn record<'a>(
        &self,
        inner: &dyn MetaStore,
        op: &str,
        keys: impl Iterator<Item = &'a NodeKey> + Clone,
    ) {
        let mut shards: Vec<usize> = Vec::new();
        for key in keys.clone() {
            let shard = inner.fanout_shard(key);
            if !shards.contains(&shard) {
                shards.push(shard);
            }
        }
        let shards: Vec<String> = shards.iter().map(usize::to_string).collect();
        let target = format!("s{}", shards.join(","));
        record(&self.log, op, target, keys.map(|key| format!("{key:?}")));
    }
}

impl MetaHook for RecordingMeta {
    fn put_many(&self, inner: &dyn MetaStore, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.record(inner, "meta.put_many", items.iter().map(|(key, _)| key));
        inner.put_many(items)
    }
    fn get_many(&self, inner: &dyn MetaStore, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        self.record(inner, "meta.get_many", keys.iter());
        inner.get_many(keys)
    }
    fn delete_many(&self, inner: &dyn MetaStore, keys: &[NodeKey]) -> Vec<Result<bool>> {
        self.record(inner, "meta.delete_many", keys.iter());
        inner.delete_many(keys)
    }
    fn fanout_shard(&self, inner: &dyn MetaStore, key: &NodeKey) -> usize {
        inner.fanout_shard(key)
    }
}

struct Recorded {
    sys: Arc<BlobSeer>,
    blocks: Arc<Hooked<Arc<dyn BlockStore>, RecordingBlocks>>,
    /// The undecorated block store, for setup the log must not see.
    raw_blocks: Arc<dyn BlockStore>,
    log: Log,
}

impl Recorded {
    /// An in-memory deployment of 4 providers with one I/O thread (every
    /// group runs inline, in dispatch order), behind recording decorators.
    fn deploy(replication: usize) -> Self {
        let cfg = BlobSeerConfig::small_for_tests()
            .with_block_size(BLOCK)
            .with_client_io_threads(1)
            .with_replication(replication);
        let base = EnginePorts::in_memory(&cfg, (0..PROVIDERS).map(NodeId::new).collect(), 7);
        let log: Log = Arc::default();
        let blocks = Arc::new(Hooked::new(
            Arc::clone(&base.providers),
            RecordingBlocks {
                log: Arc::clone(&log),
                puts: AtomicUsize::new(0),
                refuse: AtomicUsize::new(0),
            },
        ));
        let meta = Arc::new(Hooked::new(
            Arc::clone(&base.dht),
            RecordingMeta {
                log: Arc::clone(&log),
            },
        ));
        let raw_blocks = Arc::clone(&base.providers);
        let ports = EnginePorts {
            providers: Arc::clone(&blocks) as Arc<dyn BlockStore>,
            dht: meta,
            ..base
        };
        let sys = BlobSeer::deploy_ports(cfg, ports);
        Self {
            sys,
            blocks,
            raw_blocks,
            log,
        }
    }

    /// Runs `op` and appends the calls it made to `text` under `title`.
    fn section(&self, text: &mut String, title: &str, op: impl FnOnce()) {
        self.log.lock().unwrap().clear();
        op();
        writeln!(text, "# {title}").unwrap();
        for line in self.log.lock().unwrap().drain(..) {
            writeln!(text, "{line}").unwrap();
        }
    }
}

fn pattern(blocks: u64, salt: u64) -> Vec<u8> {
    (0..blocks * BLOCK)
        .map(|i| ((i + salt) % 251) as u8)
        .collect()
}

/// Every scatter-gather site, pinned call by call. The expected sequence
/// was captured from the hand-written per-site loops; it fixes batch
/// contents, batch order, the split by provider or shard, and which calls
/// are made at all.
#[test]
fn every_scatter_gather_site_makes_the_pinned_port_calls() {
    let mut text = String::new();

    let d = Recorded::deploy(1);
    let client = d.sys.client(NodeId::new(100));
    let blob = client.create();
    let base = pattern(64, 0);
    d.section(&mut text, "64-block write", || {
        client.write(blob, 0, &base).unwrap();
    });
    d.section(&mut text, "full read", || {
        let got = client.read(blob, None, 0, base.len() as u64).unwrap();
        assert_eq!(&got[..], &base[..]);
    });
    let tail = pattern(3, 7);
    d.section(&mut text, "append then a read across both versions", || {
        client.append(blob, &tail).unwrap();
        let got = client.read(blob, None, 60 * BLOCK, 7 * BLOCK).unwrap();
        assert_eq!(&got[..4 * BLOCK as usize], &base[60 * BLOCK as usize..]);
        assert_eq!(&got[4 * BLOCK as usize..], &tail[..]);
    });
    // The 4th put_many of the next write goes to the provider dispatched
    // last: refuse it, so the write fails after three batches landed.
    let refuse_at = d.blocks.hook.puts.load(Ordering::SeqCst) + PROVIDERS as usize;
    d.blocks.hook.refuse.store(refuse_at, Ordering::SeqCst);
    d.section(&mut text, "failed write and its undo", || {
        let err = client.write(blob, 0, &pattern(8, 3)).unwrap_err();
        assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    });
    d.section(&mut text, "delete_blob cascade", || {
        client.delete_blob(blob).unwrap();
    });
    for p in 0..d.raw_blocks.len() {
        assert_eq!(d.raw_blocks.block_count(p), 0, "provider {p} kept blocks");
    }

    let d = Recorded::deploy(2);
    let client = d.sys.client(NodeId::new(100));
    let blob = client.create();
    let data = pattern(8, 11);
    client.write(blob, 0, &data).unwrap();
    // Lose every block provider 0 holds: half the primaries fail over.
    for block in 0..8 {
        let key = NodeKey::new(blob, Version::new(1), Pos::new(block, 1));
        let TreeNode::Leaf(desc) = d.sys.dht().get(&key).unwrap() else {
            panic!("block {block} of a fresh write is a leaf");
        };
        if desc.providers.contains(&0) {
            assert!(d.raw_blocks.delete(0, desc.block_id).unwrap() > 0);
        }
    }
    d.section(&mut text, "replica failover read", || {
        let got = client.read(blob, None, 0, data.len() as u64).unwrap();
        assert_eq!(&got[..], &data[..]);
    });
    assert!(d.sys.stats().snapshot().read_replica_fallbacks > 0);

    let expected = include_str!("fixtures/port_calls.txt");
    let (want, got): (Vec<&str>, Vec<&str>) = (expected.lines().collect(), text.lines().collect());
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(g, w, "port call {} differs from the fixture", i + 1);
    }
    assert_eq!(got.len(), want.len(), "port call count differs");
}

/// A metadata hook that rewrites the provider list of every leaf it
/// serves — the shape of a corrupt or hostile metadata service.
struct RewriteLeaves {
    providers: Vec<u32>,
}

impl MetaHook for RewriteLeaves {
    fn get_many(&self, inner: &dyn MetaStore, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        let rewrite = |node| match node {
            TreeNode::Leaf(mut desc) => {
                desc.providers = self.providers.clone();
                TreeNode::Leaf(desc)
            }
            other => other,
        };
        inner
            .get_many(keys)
            .into_iter()
            .map(|r| r.map(rewrite))
            .collect()
    }
    fn fanout_shard(&self, inner: &dyn MetaStore, key: &NodeKey) -> usize {
        inner.fanout_shard(key)
    }
}

/// A leaf that names no provider, or provider 4 of 4, fails `read` and
/// `locations` with `MissingBlock` — never a panic, and never a silent
/// zero-filled hole.
#[test]
fn a_leaf_naming_no_or_an_unknown_provider_fails_the_operation() {
    for providers in [vec![], vec![PROVIDERS as u32]] {
        let cfg = BlobSeerConfig::small_for_tests().with_block_size(BLOCK);
        let base = EnginePorts::in_memory(&cfg, (0..PROVIDERS).map(NodeId::new).collect(), 7);
        let ports = EnginePorts {
            dht: Arc::new(Hooked::new(
                Arc::clone(&base.dht),
                RewriteLeaves {
                    providers: providers.clone(),
                },
            )),
            ..base
        };
        let sys = BlobSeer::deploy_ports(cfg, ports);
        let client = sys.client(NodeId::new(100));
        let blob: BlobId = client.create();
        client.write(blob, 0, &pattern(8, 0)).unwrap();
        let err = client.read(blob, None, 0, 8 * BLOCK).unwrap_err();
        assert!(
            matches!(err, Error::MissingBlock(_)),
            "{providers:?}: {err}"
        );
        let err = client.locations(blob, None, 0, 8 * BLOCK).unwrap_err();
        assert!(
            matches!(err, Error::MissingBlock(_)),
            "{providers:?}: {err}"
        );
    }
}

/// A data phase that fails deletes every replica it stored, so it counts
/// none of them: `blocks_written` and `bytes_written` stay 0.
#[test]
fn a_failed_data_phase_counts_no_written_blocks() {
    let d = Recorded::deploy(1);
    d.blocks
        .hook
        .refuse
        .store(PROVIDERS as usize, Ordering::SeqCst);
    let client = d.sys.client(NodeId::new(100));
    let blob = client.create();
    let err = client.write(blob, 0, &pattern(16, 0)).unwrap_err();
    assert!(matches!(err, Error::WriteAborted(_)), "{err}");
    let stats = d.sys.stats().snapshot();
    assert_eq!(stats.blocks_written, 0);
    assert_eq!(stats.bytes_written, 0);
    for p in 0..d.raw_blocks.len() {
        assert_eq!(d.raw_blocks.block_count(p), 0, "provider {p} kept blocks");
    }
}
