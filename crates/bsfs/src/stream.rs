//! BSFS streams: the client-side caching layer of §IV-B.
//!
//! "Hadoop manipulates data sequentially in small chunks of a few KB
//! (usually, 4 KB) at a time. … We implemented a similar caching mechanism
//! in BSFS. It prefetches a whole block when the requested data is not
//! already cached, and delays committing writes until a whole block has
//! been filled in the cache."
//!
//! The read stream pins the snapshot version at open time: readers enjoy
//! BlobSeer's snapshot isolation and never observe concurrent writers. It
//! caches exactly one block and fetches the next only on a miss, so a
//! sequential reader costs one fetch per block.

use blobseer_core::BlobClient;
use blobseer_types::{BlobId, Error, Result, Version};
use bytes::{Bytes, BytesMut};
use dfs::api::{DfsInput, DfsOutput};
use std::time::Duration;

/// Upper bound on the reveal wait performed by `Drop` (an abandoned
/// stream). `close()` waits the full configured
/// `BlobSeerConfig::close_reveal_timeout`; `Drop` is best-effort and must
/// never stall a harness for the production patience — in particular, a
/// simulated-time SimGate turn can never satisfy a real condvar wait, so
/// an unbounded drop-wait would hang the whole simulation.
const DROP_REVEAL_BOUND: Duration = Duration::from_millis(100);

/// A buffered, seekable reader over one file snapshot: it fetches one
/// whole block per cache miss, always from the snapshot pinned at open.
pub struct BsfsInput {
    client: BlobClient,
    blob: BlobId,
    version: Version,
    size: u64,
    pos: u64,
    /// The cached block: (block index, payload).
    cache: Option<(u64, Bytes)>,
    block_size: u64,
    /// Block fetches issued (cache effectiveness metric).
    fetches: u64,
}

impl BsfsInput {
    /// Opens the latest revealed snapshot of `blob`.
    pub fn open(client: BlobClient, blob: BlobId) -> Result<Self> {
        let (version, size) = client.latest(blob)?;
        Ok(Self::open_version(client, blob, version, size))
    }

    /// Opens a pinned snapshot (version-aware readers, §VI-A).
    pub fn open_version(client: BlobClient, blob: BlobId, version: Version, size: u64) -> Self {
        let block_size = client.system().config().block_size;
        Self {
            client,
            blob,
            version,
            size,
            pos: 0,
            cache: None,
            block_size,
            fetches: 0,
        }
    }

    /// The snapshot version this stream reads.
    pub fn version(&self) -> Version {
        self.version
    }

    /// Whole-block fetches issued so far.
    pub fn fetch_count(&self) -> u64 {
        self.fetches
    }

    /// Whether the cached block covers the absolute byte position.
    fn covers(&self, pos: u64) -> bool {
        match &self.cache {
            Some((block, data)) => {
                let start = block * self.block_size;
                pos >= start && pos < start + data.len() as u64
            }
            None => false,
        }
    }

    fn fill_cache(&mut self, block: u64) -> Result<()> {
        let start = block * self.block_size;
        let len = self.block_size.min(self.size - start);
        let data = self
            .client
            .read(self.blob, Some(self.version), start, len)?;
        self.fetches += 1;
        self.cache = Some((block, data));
        Ok(())
    }
}

impl DfsInput for BsfsInput {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        if self.pos >= self.size || buf.is_empty() {
            return Ok(0);
        }
        if !self.covers(self.pos) {
            self.fill_cache(self.pos / self.block_size)?;
        }
        let (block, data) = self.cache.as_ref().expect("just filled"); // lint:allow(no-unwrap): fill_cache populated the cache one line up
        let off = (self.pos - block * self.block_size) as usize;
        let n = buf.len().min(data.len() - off);
        buf[..n].copy_from_slice(&data[off..off + n]);
        self.pos += n as u64;
        Ok(n)
    }

    fn seek(&mut self, pos: u64) -> Result<()> {
        if pos > self.size {
            return Err(Error::OutOfBounds {
                requested_end: pos,
                snapshot_size: self.size,
            });
        }
        self.pos = pos;
        Ok(())
    }

    fn pos(&self) -> u64 {
        self.pos
    }

    fn len(&self) -> u64 {
        self.size
    }
}

/// A buffered writer that appends whole blocks to the file's BLOB.
pub struct BsfsOutput {
    client: BlobClient,
    blob: BlobId,
    buf: BytesMut,
    block_size: usize,
    written: u64,
    last_version: Option<Version>,
    closed: bool,
    /// Patience of `close()`'s reveal wait, from
    /// `BlobSeerConfig::close_reveal_timeout`.
    close_patience: Duration,
    /// Appends issued to BlobSeer (write-behind effectiveness metric).
    flushes: u64,
}

impl BsfsOutput {
    /// Opens a write-behind stream appending to `blob`.
    pub fn new(client: BlobClient, blob: BlobId) -> Self {
        let cfg = client.system().config();
        let block_size = cfg.block_size as usize;
        let close_patience = cfg.close_reveal_timeout;
        Self {
            client,
            blob,
            buf: BytesMut::with_capacity(block_size),
            block_size,
            written: 0,
            last_version: None,
            closed: false,
            close_patience,
            flushes: 0,
        }
    }

    /// Appends issued so far.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    fn flush_buf(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        // The frozen buffer *is* the block the providers store: no copy.
        let chunk = self.buf.split().freeze();
        let (_, v) = self.client.append_bytes(self.blob, chunk)?;
        self.flushes += 1;
        self.last_version = Some(v);
        Ok(())
    }

    /// Flushes the tail and waits up to `patience` for the final append's
    /// reveal. Shared by `close()` (full configured patience) and `Drop`
    /// (bounded best-effort).
    fn close_with_patience(&mut self, patience: Duration) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        self.flush_buf()?;
        self.closed = true;
        // Close-to-open visibility: wait until our last append is revealed,
        // so a reader opening after close() sees everything we wrote.
        if let Some(v) = self.last_version {
            self.client.wait_revealed(self.blob, v, patience)?;
        }
        Ok(())
    }
}

impl DfsOutput for BsfsOutput {
    fn write(&mut self, mut data: &[u8]) -> Result<()> {
        if self.closed {
            return Err(Error::StreamClosed);
        }
        self.written += data.len() as u64;
        // Fill the block buffer; flush every time it reaches a full block
        // ("delays committing writes until a whole block has been filled").
        while !data.is_empty() {
            let room = self.block_size - self.buf.len();
            let take = room.min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.buf.len() == self.block_size {
                self.flush_buf()?;
            }
        }
        Ok(())
    }

    fn pos(&self) -> u64 {
        self.written
    }

    fn close(&mut self) -> Result<()> {
        self.close_with_patience(self.close_patience)
    }
}

impl Drop for BsfsOutput {
    fn drop(&mut self) {
        // Best-effort flush on drop; errors surface only via explicit
        // close. The reveal wait is bounded regardless of configuration —
        // an abandoned stream must never stall its thread for the full
        // close patience.
        let _ = self.close_with_patience(self.close_patience.min(DROP_REVEAL_BOUND));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_core::BlobSeer;
    use blobseer_types::{BlobSeerConfig, NodeId};
    use std::sync::Arc;

    fn system() -> Arc<BlobSeer> {
        BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(256), 4)
    }

    #[test]
    fn small_writes_coalesce_into_block_appends() {
        let sys = system();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        let mut out = BsfsOutput::new(c.clone(), blob);
        // 100 writes of 10 bytes = 1000 bytes = 3 full blocks + 232 tail.
        for i in 0..100u8 {
            out.write(&[i; 10]).unwrap();
        }
        assert_eq!(
            out.flush_count(),
            3,
            "only full blocks flushed during writes"
        );
        out.close().unwrap();
        assert_eq!(out.flush_count(), 4, "tail flushed at close");
        let (v, size) = c.latest(blob).unwrap();
        assert_eq!(size, 1000);
        assert_eq!(v.raw(), 4);
        let data = c.read(blob, None, 0, 1000).unwrap();
        for i in 0..100usize {
            assert!(data[i * 10..(i + 1) * 10].iter().all(|&b| b == i as u8));
        }
    }

    #[test]
    fn reader_prefetches_whole_blocks() {
        let sys = system();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        let payload: Vec<u8> = (0..512u32).map(|i| i as u8).collect();
        c.write(blob, 0, &payload).unwrap();
        let mut input = BsfsInput::open(c, blob).unwrap();
        // 64 reads of 4 bytes from block 0: exactly one fetch.
        let mut buf = [0u8; 4];
        for i in 0..64usize {
            input.read_exact(&mut buf).unwrap();
            assert_eq!(&buf[..], &payload[i * 4..i * 4 + 4]);
        }
        assert_eq!(input.fetch_count(), 1, "4 KB-style reads served from cache");
        // Crossing into block 1 triggers the second fetch.
        input.read_exact(&mut buf).unwrap();
        assert_eq!(input.fetch_count(), 2);
    }

    #[test]
    fn seek_within_cached_block_keeps_cache() {
        let sys = system();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        c.write(blob, 0, &vec![9u8; 512]).unwrap();
        let mut input = BsfsInput::open(c, blob).unwrap();
        let mut buf = [0u8; 8];
        input.read_exact(&mut buf).unwrap();
        input.seek(100).unwrap();
        input.read_exact(&mut buf).unwrap();
        assert_eq!(input.fetch_count(), 1, "seek within block 0 is a cache hit");
        input.seek(300).unwrap();
        input.read_exact(&mut buf).unwrap();
        assert_eq!(input.fetch_count(), 2);
    }

    #[test]
    fn reader_is_snapshot_isolated() {
        let sys = system();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        c.write(blob, 0, &[1u8; 256]).unwrap();
        let mut input = BsfsInput::open(c.clone(), blob).unwrap();
        // A concurrent writer overwrites the file.
        c.write(blob, 0, &[2u8; 256]).unwrap();
        let mut buf = [0u8; 256];
        input.read_exact(&mut buf).unwrap();
        assert!(
            buf.iter().all(|&b| b == 1),
            "pinned snapshot sees the old data"
        );
        // A fresh reader sees the new version.
        let mut input2 = BsfsInput::open(c, blob).unwrap();
        input2.read_exact(&mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 2));
    }

    #[test]
    fn write_after_close_fails_and_drop_flushes() {
        let sys = system();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        {
            let mut out = BsfsOutput::new(c.clone(), blob);
            out.write(b"dropped but flushed").unwrap();
            // No explicit close: Drop must flush.
        }
        assert_eq!(c.latest(blob).unwrap().1, 19);
        let mut out = BsfsOutput::new(c, blob);
        out.close().unwrap();
        assert!(matches!(out.write(b"x"), Err(Error::StreamClosed)));
    }

    #[test]
    fn close_reveal_patience_is_configurable_and_drop_is_bounded() {
        use blobseer_core::WriteIntent;
        use std::time::Instant;
        // A stuck predecessor version means the stream's final append can
        // never reveal. close() must give up after the *configured*
        // patience (the seed hard-coded 30 s), and Drop after its own
        // bound, instead of stalling the caller.
        let cfg = BlobSeerConfig::small_for_tests()
            .with_block_size(256)
            .with_close_reveal_timeout(Duration::from_millis(50));
        let sys = BlobSeer::deploy(cfg, 4);
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        let _stuck = sys
            .version_manager()
            .assign(blob, WriteIntent::Append { size: 256 })
            .unwrap();

        let mut out = BsfsOutput::new(c.clone(), blob);
        out.write(&[1u8; 256]).unwrap(); // full block: flushed as v2
        let t0 = Instant::now();
        let err = out.close().unwrap_err();
        assert!(matches!(err, Error::Timeout(_)), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "configured 50 ms patience must beat the 30 s default"
        );

        // Drop of an abandoned stream: bounded even with a long configured
        // patience.
        let cfg = BlobSeerConfig::small_for_tests().with_block_size(256);
        let sys = BlobSeer::deploy(cfg, 4);
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        let _stuck = sys
            .version_manager()
            .assign(blob, WriteIntent::Append { size: 256 })
            .unwrap();
        let t0 = Instant::now();
        {
            let mut out = BsfsOutput::new(c, blob);
            out.write(&[2u8; 256]).unwrap();
            // No close: Drop flushes and waits at most its bound.
        }
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "drop must not wait the full close patience: {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn seek_away_from_prefetch_sequence_stays_correct() {
        let sys = system();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        let payload: Vec<u8> = (0..2048u32).map(|i| i as u8).collect();
        c.write(blob, 0, &payload).unwrap();
        let mut input = BsfsInput::open(c, blob).unwrap();
        let mut buf = [0u8; 16];
        input.read_exact(&mut buf).unwrap(); // prefetches block 0
        input.seek(6 * 256).unwrap(); // jump away from the sequence
        input.read_exact(&mut buf).unwrap();
        assert_eq!(&buf[..], &payload[6 * 256..6 * 256 + 16]);
        assert_eq!(input.fetch_count(), 2);
    }

    #[test]
    fn empty_file_reads_zero() {
        let sys = system();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        let mut input = BsfsInput::open(c, blob).unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(input.read(&mut buf).unwrap(), 0);
        assert_eq!(input.len(), 0);
        assert!(input.is_empty());
    }
}
