//! Engine-wide counters.
//!
//! All counters are relaxed atomics: they are monitoring data, never used
//! for synchronization. The experiment drivers read them to report e.g. the
//! number of metadata RPCs a write generates, and the load-balance figures
//! read per-provider block counts.

use std::sync::atomic::{AtomicU64, Ordering};

/// Global counters for one BlobSeer deployment.
#[derive(Debug, Default)]
pub struct EngineStats {
    /// Data blocks stored on providers (each replica counts once).
    pub blocks_written: AtomicU64,
    /// Payload bytes stored on providers (each replica counts once).
    pub bytes_written: AtomicU64,
    /// Payload bytes served by providers to readers.
    pub bytes_read: AtomicU64,
    /// Metadata tree nodes written to the DHT (each replica counts once).
    pub meta_nodes_written: AtomicU64,
    /// Metadata tree node lookups served by the DHT.
    pub meta_nodes_read: AtomicU64,
    /// Version assignments performed by the version manager.
    pub versions_assigned: AtomicU64,
    /// Writes that were aborted and repaired.
    pub writes_aborted: AtomicU64,
    /// Tree nodes deleted by the garbage collector.
    pub meta_nodes_collected: AtomicU64,
    /// Data blocks deleted by the garbage collector.
    pub blocks_collected: AtomicU64,
    /// GC releases of nodes the tracker never counted a reference for —
    /// refcount bugs that would otherwise surface only as permanent leaks
    /// (see `GcReport::untracked_releases`). Always 0 in a healthy engine.
    pub gc_untracked_releases: AtomicU64,
    /// Network round trips issued by remote port adapters (one per request
    /// frame). With the vectored port API a 64-block write costs
    /// O(tree levels + providers touched) round trips, not
    /// O(blocks + nodes) — asserted in `tests/rpc_cluster.rs`.
    pub port_round_trips: AtomicU64,
    /// Items carried by vectored port calls (`put_many`/`get_many`/
    /// `delete_many`) on remote adapters; `batched_items /
    /// port_round_trips` approximates the achieved batch size.
    pub batched_items: AtomicU64,
    /// Control-plane round trips issued by remote placement/GC adapters
    /// (one per request frame to the hosted provider manager or GC
    /// service). Kept separate from `port_round_trips` so the data-path
    /// frame invariants (14 frames per 64-block write, 13 per read —
    /// `tests/rpc_cluster.rs`) stay meaningful: a clean write costs
    /// exactly 3 control frames (allocate, child refcounts, root
    /// registration) and a read costs 0.
    pub control_round_trips: AtomicU64,
    /// Read-cache hits: inner tree nodes the RPC metadata adapter
    /// answered from its own cache without a round trip.
    pub cache_hits: AtomicU64,
    /// Read-cache misses: node lookups that cache forwarded to the server.
    pub cache_misses: AtomicU64,
    /// Diagnostic port calls (non-`Result` methods: counts, sizes, op
    /// counters) that a remote adapter answered with a zero/empty default
    /// because the backend was unreachable. Always 0 in a healthy
    /// deployment — a growing value means monitoring data is silently
    /// understating a half-dead cluster.
    pub rpc_degraded_diagnostics: AtomicU64,
    /// Fan-out dispatch groups issued by the client (one per multi-provider
    /// phase step: a data-phase store, a fetch wave, a tree level, a GC
    /// delete wave). Structural — counted whether the executor runs the
    /// group inline or across its pool.
    pub fanout_batches: AtomicU64,
    /// Widest fan-out group dispatched (jobs issued concurrently in one
    /// group). For a W-provider striped write this reaches W — asserted in
    /// `tests/rpc_cluster.rs` alongside the frame-count invariants.
    pub fanout_max_width: AtomicU64,
    /// Read-path block fetches recovered (or attempted) through a replica
    /// other than the deterministic first choice, after that replica's
    /// batch reported a per-item failure.
    pub read_replica_fallbacks: AtomicU64,
}

impl EngineStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to a counter (relaxed). Public so out-of-crate adapters
    /// (e.g. the RPC GC client mirroring server-side reports) account on
    /// the same counters the in-process engine uses.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Raises a high-watermark counter to `n` if it is below.
    #[inline]
    pub(crate) fn raise(counter: &AtomicU64, n: u64) {
        counter.fetch_max(n, Ordering::Relaxed);
    }

    /// Records one fan-out dispatch group of `width` jobs.
    #[inline]
    pub(crate) fn record_fanout(&self, width: usize) {
        Self::add(&self.fanout_batches, 1);
        Self::raise(&self.fanout_max_width, width as u64);
    }

    /// Snapshot of all counters as plain integers, for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let locks = parking_lot::lock_stats();
        StatsSnapshot {
            blocks_written: g(&self.blocks_written),
            bytes_written: g(&self.bytes_written),
            bytes_read: g(&self.bytes_read),
            meta_nodes_written: g(&self.meta_nodes_written),
            meta_nodes_read: g(&self.meta_nodes_read),
            versions_assigned: g(&self.versions_assigned),
            writes_aborted: g(&self.writes_aborted),
            meta_nodes_collected: g(&self.meta_nodes_collected),
            blocks_collected: g(&self.blocks_collected),
            gc_untracked_releases: g(&self.gc_untracked_releases),
            port_round_trips: g(&self.port_round_trips),
            batched_items: g(&self.batched_items),
            control_round_trips: g(&self.control_round_trips),
            cache_hits: g(&self.cache_hits),
            cache_misses: g(&self.cache_misses),
            rpc_degraded_diagnostics: g(&self.rpc_degraded_diagnostics),
            fanout_batches: g(&self.fanout_batches),
            fanout_max_width: g(&self.fanout_max_width),
            read_replica_fallbacks: g(&self.read_replica_fallbacks),
            lock_contended_acquires: locks.contended_acquires,
            lock_max_wait_ns: locks.max_wait_ns,
        }
    }
}

/// A point-in-time copy of [`EngineStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub blocks_written: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub meta_nodes_written: u64,
    pub meta_nodes_read: u64,
    pub versions_assigned: u64,
    pub writes_aborted: u64,
    pub meta_nodes_collected: u64,
    pub blocks_collected: u64,
    pub gc_untracked_releases: u64,
    pub port_round_trips: u64,
    pub batched_items: u64,
    pub control_round_trips: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rpc_degraded_diagnostics: u64,
    pub fanout_batches: u64,
    pub fanout_max_width: u64,
    pub read_replica_fallbacks: u64,
    /// Lock acquisitions that had to block (process-wide, from the
    /// instrumented `parking_lot` shim — not scoped to this engine).
    pub lock_contended_acquires: u64,
    /// Longest observed wait for any single lock acquisition, in
    /// nanoseconds (process-wide, from the shim).
    pub lock_max_wait_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = EngineStats::new();
        EngineStats::add(&s.blocks_written, 3);
        EngineStats::add(&s.blocks_written, 2);
        EngineStats::add(&s.bytes_read, 10);
        let snap = s.snapshot();
        assert_eq!(snap.blocks_written, 5);
        assert_eq!(snap.bytes_read, 10);
        assert_eq!(snap.versions_assigned, 0);
    }

    #[test]
    fn fanout_recording_counts_batches_and_keeps_the_widest() {
        let s = EngineStats::new();
        s.record_fanout(4);
        s.record_fanout(1);
        s.record_fanout(8);
        s.record_fanout(2);
        let snap = s.snapshot();
        assert_eq!(snap.fanout_batches, 4);
        assert_eq!(snap.fanout_max_width, 8);
    }

    #[test]
    fn snapshot_is_detached() {
        let s = EngineStats::new();
        let before = s.snapshot();
        EngineStats::add(&s.meta_nodes_written, 1);
        assert_eq!(before.meta_nodes_written, 0);
        assert_eq!(s.snapshot().meta_nodes_written, 1);
    }
}
