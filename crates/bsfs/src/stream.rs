//! BSFS streams: the client-side caching layer of §IV-B.
//!
//! "Hadoop manipulates data sequentially in small chunks of a few KB
//! (usually, 4 KB) at a time. … We implemented a similar caching mechanism
//! in BSFS. It prefetches a whole block when the requested data is not
//! already cached, and delays committing writes until a whole block has
//! been filled in the cache."
//!
//! The caching itself is `dfs`'s [`BlockReader`] / [`BlockWriter`] pair,
//! the one HDFS uses too. BSFS supplies the block fetch, a read of the
//! snapshot pinned at open (readers enjoy BlobSeer's snapshot isolation
//! and never observe concurrent writers), and the sink, one BLOB append
//! per block and a reveal wait at close.

use blobseer_core::BlobClient;
use blobseer_types::{BlobId, Result, Version};
use bytes::Bytes;
use dfs::api::DfsInput;
use dfs::{BlockReader, BlockSink, BlockWriter};
use std::time::Duration;

/// Upper bound on the reveal wait performed by `Drop` (an abandoned
/// stream). `close()` waits the full configured
/// `BlobSeerConfig::reveal_timeout`; `Drop` is best-effort and must
/// never stall a harness for the production patience — in particular, a
/// simulated-time SimGate turn can never satisfy a real condvar wait, so
/// an unbounded drop-wait would hang the whole simulation.
const DROP_REVEAL_BOUND: Duration = Duration::from_millis(100);

/// A buffered, seekable reader over one file snapshot: it fetches one
/// whole block per cache miss, always from the snapshot pinned at open.
pub struct BsfsInput {
    version: Version,
    reader: BlockReader,
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
        let reader = BlockReader::new(size, block_size, move |block| {
            let start = block * block_size;
            client.read(blob, Some(version), start, block_size.min(size - start))
        });
        Self { version, reader }
    }

    /// The snapshot version this stream reads.
    pub fn version(&self) -> Version {
        self.version
    }
}

impl DfsInput for BsfsInput {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        self.reader.read(buf)
    }

    fn seek(&mut self, pos: u64) -> Result<()> {
        self.reader.seek(pos)
    }

    fn pos(&self) -> u64 {
        self.reader.pos()
    }

    fn len(&self) -> u64 {
        self.reader.len()
    }
}

/// A write-behind stream appending whole blocks to the file's BLOB.
pub type BsfsOutput = BlockWriter<BlobAppender>;

/// Opens a write-behind stream appending to `blob`.
pub fn append_stream(client: BlobClient, blob: BlobId) -> BsfsOutput {
    let cfg = client.system().config();
    let block_size = cfg.block_size as usize;
    let patience = cfg.reveal_timeout;
    BlockWriter::new(
        block_size,
        BlobAppender {
            client,
            blob,
            last_version: None,
            patience,
        },
    )
}

/// The BSFS [`BlockSink`]: each block is one BLOB append; finishing waits
/// for the last append's reveal.
pub struct BlobAppender {
    client: BlobClient,
    blob: BlobId,
    last_version: Option<Version>,
    /// Patience of `close()`'s reveal wait, from
    /// `BlobSeerConfig::reveal_timeout`.
    patience: Duration,
}

impl BlockSink for BlobAppender {
    fn commit(&mut self, block: Bytes) -> Result<()> {
        let (_, v) = self.client.append_bytes(self.blob, block)?;
        self.last_version = Some(v);
        Ok(())
    }

    fn finish(&mut self, dropped: bool) -> Result<()> {
        // Close-to-open visibility: wait until our last append is revealed,
        // so a reader opening after close() sees everything we wrote. An
        // abandoned stream waits at most its bound, whatever the
        // configured patience.
        let patience = if dropped {
            self.patience.min(DROP_REVEAL_BOUND)
        } else {
            self.patience
        };
        match self.last_version {
            Some(v) => self.client.wait_revealed(self.blob, v, patience),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_core::BlobSeer;
    use blobseer_types::{BlobSeerConfig, Error, NodeId};
    use dfs::api::DfsOutput;
    use std::sync::Arc;

    fn system() -> Arc<BlobSeer> {
        BlobSeer::deploy(BlobSeerConfig::small_for_tests().with_block_size(256), 4)
    }

    #[test]
    fn small_writes_coalesce_into_block_appends() {
        let sys = system();
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        let mut out = append_stream(c.clone(), blob);
        // 100 writes of 10 bytes = 1000 bytes = 3 full blocks + 232 tail.
        for i in 0..100u8 {
            out.write(&[i; 10]).unwrap();
        }
        assert_eq!(
            out.commit_count(),
            3,
            "only full blocks flushed during writes"
        );
        out.close().unwrap();
        assert_eq!(out.commit_count(), 4, "tail flushed at close");
        let (v, size) = c.latest(blob).unwrap();
        assert_eq!(size, 1000);
        assert_eq!(v.raw(), 4);
        let data = c.read(blob, None, 0, 1000).unwrap();
        for i in 0..100usize {
            assert!(data[i * 10..(i + 1) * 10].iter().all(|&b| b == i as u8));
        }
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
            let mut out = append_stream(c.clone(), blob);
            out.write(b"dropped but flushed").unwrap();
            // No explicit close: Drop must flush.
        }
        assert_eq!(c.latest(blob).unwrap().1, 19);
        let mut out = append_stream(c, blob);
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
            .with_reveal_timeout(Duration::from_millis(50));
        let sys = BlobSeer::deploy(cfg, 4);
        let c = sys.client(NodeId::new(0));
        let blob = c.create();
        let _stuck = sys
            .version_manager()
            .assign(blob, WriteIntent::Append { size: 256 })
            .unwrap();

        let mut out = append_stream(c.clone(), blob);
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
            let mut out = append_stream(c, blob);
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
