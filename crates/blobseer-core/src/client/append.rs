//! The append path: optimistic block-aligned data phase, version-manager
//! offset fixing, and the rare unaligned-tail slow path (§III-D).

use crate::ports::{ProtocolOp, ProtocolPhase};
use crate::version_manager::WriteIntent;
use blobseer_types::{BlobId, Error, Result, Version};
use bytes::Bytes;

use super::BlobClient;

impl BlobClient {
    /// Appends `data` at the end of the BLOB. The offset is fixed by the
    /// version manager *after* the data phase (§III-D); returns
    /// `(offset, version)`.
    ///
    /// The blocks the stores receive must outlive the caller's borrow, so
    /// this copies `data` once; a caller that owns its buffer hands it
    /// over with [`Self::append_bytes`] and pays no copy.
    pub fn append(&self, blob: BlobId, data: &[u8]) -> Result<(u64, Version)> {
        self.append_bytes(blob, Bytes::copy_from_slice(data))
    }

    /// [`Self::append`] of a buffer the caller gives up: the blocks sent
    /// to the providers are slices of `data` itself.
    pub fn append_bytes(&self, blob: BlobId, data: Bytes) -> Result<(u64, Version)> {
        if data.is_empty() {
            return Err(Error::WriteAborted(
                "zero-length appends are rejected".into(),
            ));
        }
        let bs = self.sys.cfg.block_size;
        self.observe(ProtocolOp::Append, ProtocolPhase::Start);
        // Optimistic data phase: chunk as if the append lands block-aligned
        // (always true for BSFS's write-behind cache and for the paper's
        // workloads). Descriptors are keyed relative to block 0 for now.
        let optimistic = self.store_blocks(data.clone(), 0)?;
        self.observe(ProtocolOp::Append, ProtocolPhase::DataDone);
        let ticket = match self.sys.vm.assign(
            blob,
            WriteIntent::Append {
                size: data.len() as u64,
            },
        ) {
            Ok(t) => t,
            Err(e) => {
                // No version exists (e.g. the BLOB was deleted between the
                // data phase and assignment): the optimistic blocks can
                // never be referenced — undo the data phase.
                self.release_stored(&optimistic);
                return Err(e);
            }
        };
        self.observe(ProtocolOp::Append, ProtocolPhase::VersionAssigned);
        let leaves = if ticket.offset.is_multiple_of(bs) {
            // Re-key descriptors at the real first block index.
            let first = ticket.offset / bs;
            optimistic
                .into_iter()
                .map(|(i, d)| (first + i, d))
                .collect()
        } else {
            // Rare slow path: the file tail is unaligned. Discard the
            // optimistic blocks (deleting them and releasing their load
            // accounting) and redo the data phase with boundary merging at
            // the now-known offset.
            self.release_stored(&optimistic);
            // An unaligned append rewrites the preceding snapshot's tail
            // block, so its content must be *exact*: wait until the
            // preceding version is revealed (block-aligned appends — the
            // paper's workloads — never take this path and keep full
            // parallelism). On timeout (crashed predecessor), repair our
            // assigned version so the reveal pipeline is not stalled. The
            // patience comes from `BlobSeerConfig::unaligned_append_timeout`
            // so tests and simulation runs can shrink it.
            if let Err(e) = self.wait_revealed(
                blob,
                ticket.version.prev(),
                self.sys.cfg.unaligned_append_timeout,
            ) {
                self.repair_aborted(&ticket)?;
                return Err(e);
            }
            // A failure in the redone data phase would also strand the
            // assigned version: self-repair before surfacing it.
            // The predecessor just revealed, so the pinned merge snapshot
            // is exactly the preceding version and its size.
            let redo = self
                .merge_boundaries(
                    blob,
                    ticket.offset,
                    &data,
                    ticket.prev_size,
                    (ticket.version.prev(), ticket.prev_size),
                )
                .and_then(|merged| {
                    let first_block = merged.start / bs;
                    self.store_blocks(merged.payload, first_block)
                });
            match redo {
                Ok(leaves) => leaves.into_iter().collect(),
                Err(e) => {
                    let _ = self.repair_aborted(&ticket);
                    return Err(e);
                }
            }
        };
        self.publish_and_commit(ProtocolOp::Append, &ticket, leaves)?;
        Ok((ticket.offset, ticket.version))
    }
}
