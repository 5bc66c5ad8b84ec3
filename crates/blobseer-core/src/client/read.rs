//! The read path: snapshot resolution, segment-tree descent and block
//! fetches (§III-C), plus the data-location primitive behind Hadoop's
//! affinity scheduling (§IV-C).

use crate::meta::key::BlockRange;
use crate::meta::tree::LocatedBlock;
use crate::ports::{ProtocolOp, ProtocolPhase};
use crate::stats::EngineStats;
use crate::version_manager::SnapshotInfo;
use blobseer_types::{BlobId, BlockId, ByteRange, Error, Result, Version};
use bytes::{Bytes, BytesMut};
use std::sync::Arc;

use super::{BlobClient, BlockLocation};

impl BlobClient {
    /// Reads `size` bytes at `offset` from the given snapshot
    /// (`None` = latest revealed). Fails with [`Error::OutOfBounds`] when
    /// the range exceeds the snapshot and [`Error::VersionNotRevealed`]
    /// when an explicit version is not yet visible (§III-A.5: readers only
    /// access revealed snapshots).
    pub fn read(
        &self,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        size: u64,
    ) -> Result<Bytes> {
        self.observe(ProtocolOp::Read, ProtocolPhase::Start);
        let info = self.resolve(blob, version)?;
        self.check_bounds(offset, size, info.size)?;
        if size == 0 {
            return Ok(Bytes::new());
        }
        let bs = self.sys.cfg.block_size;
        let located = self.locate(&info, BlockRange::of_bytes(offset, size, bs))?;
        self.observe(ProtocolOp::Read, ProtocolPhase::Located);
        let fetched = self.fetch(&located)?;
        let mut out = BytesMut::with_capacity(size as usize);
        let spans = ByteRange::new(offset, size).block_spans(bs);
        for ((span, loc), block) in spans.zip(located.iter()).zip(fetched) {
            debug_assert_eq!(span.block_index, loc.index);
            match block {
                None => out.resize(out.len() + span.len as usize, 0),
                Some(block) => {
                    let lo = span.offset_in_block as usize;
                    let hi = (span.offset_in_block + span.len) as usize;
                    let avail = block.len();
                    if lo < avail {
                        out.extend_from_slice(&block[lo..hi.min(avail)]);
                    }
                    // Stored tail blocks may be shorter than the span when a
                    // later write extended the BLOB past them: zero-fill.
                    if hi > avail.max(lo) {
                        out.resize(out.len() + (hi - avail.max(lo)), 0);
                    }
                }
            }
        }
        debug_assert_eq!(out.len() as u64, size);
        EngineStats::add(&self.sys.stats.bytes_read, size);
        self.observe(ProtocolOp::Read, ProtocolPhase::Done);
        Ok(out.freeze())
    }

    /// Fetch phase, vectored and fanned out, in waves. Wave 0 reads each
    /// block from the replica provider chosen deterministically by block
    /// index (to spread load); each later wave retries the blocks still
    /// missing against their next replica, in descriptor order (the
    /// replication the paper relies on for fault tolerance, §VI-B). Each
    /// wave is one `get_many` per provider, issued concurrently, and every
    /// retry counts in `EngineStats::read_replica_fallbacks`. Holes stay
    /// `None`. Fails with the lowest-index unrecovered block's *last*
    /// replica error once all are exhausted.
    fn fetch(&self, located: &[LocatedBlock]) -> Result<Vec<Option<Bytes>>> {
        // Per block to fetch: its slot, id, the replicas still to try (the
        // next one last) and the last error met.
        let mut todo: Vec<(usize, BlockId, Vec<usize>, Error)> = Vec::new();
        for (i, loc) in located.iter().enumerate() {
            if let Some(desc) = &loc.desc {
                let primary = desc.providers[loc.index as usize % desc.providers.len()] as usize;
                let mut order: Vec<usize> = desc
                    .providers
                    .iter()
                    .rev()
                    .map(|&p| p as usize)
                    .filter(|&p| p != primary)
                    .collect();
                order.push(primary);
                let unfetched = Error::MissingBlock(desc.block_id.raw());
                todo.push((i, desc.block_id, order, unfetched));
            }
        }
        let mut fetched: Vec<Option<Bytes>> = vec![None; located.len()];
        for wave in 0.. {
            let tries: Vec<(usize, usize)> = todo
                .iter_mut()
                .enumerate()
                .filter(|(_, (i, ..))| fetched[*i].is_none())
                .filter_map(|(t, (_, _, order, _))| order.pop().map(|p| (t, p)))
                .collect();
            if tries.is_empty() {
                break;
            }
            if wave > 0 {
                EngineStats::add(&self.sys.stats.read_replica_fallbacks, tries.len() as u64);
            }
            let ids: Vec<BlockId> = tries.iter().map(|&(t, _)| todo[t].1).collect();
            let providers = Arc::clone(&self.sys.providers);
            let results = self.sys.exec.scatter_gather(
                &self.sys.stats,
                &ids,
                tries.iter().map(|&(_, p)| p),
                move |p, batch| providers.get_many(p, batch),
            );
            for (&(t, _), result) in tries.iter().zip(results) {
                match result {
                    Ok(block) => fetched[todo[t].0] = Some(block),
                    Err(e) => todo[t].3 = e,
                }
            }
        }
        // `todo` is in block order, so the surfaced error is the lowest
        // unrecovered index's — deterministic, like the serial path's.
        match todo.into_iter().find(|(i, ..)| fetched[*i].is_none()) {
            Some((.., last_err)) => Err(last_err),
            None => Ok(fetched),
        }
    }

    /// The data-location primitive backing Hadoop's affinity scheduling
    /// (§IV-C). Returns one entry per block overlapping the range, with the
    /// nodes hosting its replicas.
    pub fn locations(
        &self,
        blob: BlobId,
        version: Option<Version>,
        offset: u64,
        size: u64,
    ) -> Result<Vec<BlockLocation>> {
        let info = self.resolve(blob, version)?;
        self.check_bounds(offset, size, info.size)?;
        if size == 0 {
            return Ok(Vec::new());
        }
        let bs = self.sys.cfg.block_size;
        let located = self.locate(&info, BlockRange::of_bytes(offset, size, bs))?;
        let spans = ByteRange::new(offset, size).block_spans(bs);
        Ok(spans
            .zip(located)
            .map(|(span, loc)| BlockLocation {
                range: span.absolute(bs),
                block_index: loc.index,
                nodes: loc
                    .desc
                    .map(|d| {
                        d.providers
                            .iter()
                            .map(|&p| self.sys.providers.node(p as usize))
                            .collect()
                    })
                    .unwrap_or_default(),
            })
            .collect())
    }

    /// Descends the snapshot's tree to the blocks of `query` and checks
    /// each leaf once, here, before any of it is used: a descriptor that
    /// names no provider, or one this deployment does not have, fails the
    /// operation with [`Error::MissingBlock`] — it is never read as a hole.
    fn locate(&self, info: &SnapshotInfo, query: BlockRange) -> Result<Vec<LocatedBlock>> {
        let located = self
            .sys
            .tree()
            .locate(info.root_blob, info.version, info.cap, query)?;
        let n = self.sys.providers.len();
        for desc in located.iter().filter_map(|loc| loc.desc.as_ref()) {
            if desc.providers.is_empty() || desc.providers.iter().any(|&p| p as usize >= n) {
                return Err(Error::MissingBlock(desc.block_id.raw()));
            }
        }
        Ok(located)
    }

    /// Overflow-safe range check: `offset + size` saturates instead of
    /// wrapping, so a huge offset fails with [`Error::OutOfBounds`] rather
    /// than slipping past the guard (release) or panicking (debug).
    fn check_bounds(&self, offset: u64, size: u64, snapshot_size: u64) -> Result<()> {
        match offset.checked_add(size) {
            Some(end) if end <= snapshot_size => Ok(()),
            _ => Err(Error::OutOfBounds {
                requested_end: offset.saturating_add(size),
                snapshot_size,
            }),
        }
    }

    pub(crate) fn resolve(&self, blob: BlobId, version: Option<Version>) -> Result<SnapshotInfo> {
        match version {
            None => {
                let (v, _) = self.sys.vm.latest(blob)?;
                self.sys.vm.snapshot_info(blob, v)
            }
            Some(v) => {
                let info = self.sys.vm.snapshot_info(blob, v)?;
                if !info.revealed {
                    return Err(Error::VersionNotRevealed {
                        blob: blob.raw(),
                        version: v.raw(),
                    });
                }
                Ok(info)
            }
        }
    }
}
