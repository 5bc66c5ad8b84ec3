//! The whole-block stream pair both backends use: client-side caching.
//!
//! HDFS "employs a client side buffering mechanism … It prefetches data on
//! reading. On writing, it postpones committing data after the buffer has
//! reached at least a full chunk size" (§II-B), and BSFS implements "a
//! similar caching mechanism": it "prefetches a whole block when the
//! requested data is not already cached, and delays committing writes until
//! a whole block has been filled in the cache" (§IV-B). Hadoop's 4 KB
//! record accesses therefore never reach the storage individually.
//!
//! The caching is written once, here. A backend supplies only how to fetch
//! block `i` ([`BlockReader`]) and how to commit one block and finish the
//! file ([`BlockSink`] behind a [`BlockWriter`]).

use crate::api::{DfsInput, DfsOutput};
use blobseer_types::{Error, Result};
use bytes::{Bytes, BytesMut};

/// A seekable reader that caches exactly one whole block and fetches the
/// next only on a miss, so a sequential reader costs one fetch per block.
pub struct BlockReader {
    len: u64,
    block_size: u64,
    /// Fetches block `i`: all of it, shorter only at the end of the file.
    fetch: Box<dyn FnMut(u64) -> Result<Bytes> + Send>,
    pos: u64,
    /// The cached block: (block index, payload).
    cache: Option<(u64, Bytes)>,
    fetches: u64,
}

impl BlockReader {
    /// A reader over a file of `len` bytes cut into `block_size` blocks.
    pub fn new(
        len: u64,
        block_size: u64,
        fetch: impl FnMut(u64) -> Result<Bytes> + Send + 'static,
    ) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            len,
            block_size,
            fetch: Box::new(fetch),
            pos: 0,
            cache: None,
            fetches: 0,
        }
    }

    /// Whole-block fetches issued so far.
    pub fn fetch_count(&self) -> u64 {
        self.fetches
    }

    /// The cached block and the read position's offset in it, when the
    /// cache holds that position.
    fn cached(&self) -> Option<(&Bytes, usize)> {
        let (block, data) = self.cache.as_ref()?;
        let off = self.pos.checked_sub(block * self.block_size)?;
        (off < data.len() as u64).then_some((data, off as usize))
    }
}

impl DfsInput for BlockReader {
    fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
        if self.pos >= self.len || buf.is_empty() {
            return Ok(0);
        }
        if self.cached().is_none() {
            let block = self.pos / self.block_size;
            self.cache = Some((block, (self.fetch)(block)?));
            self.fetches += 1;
        }
        let Some((data, off)) = self.cached() else {
            return Err(Error::Internal(format!(
                "block fetch ended short of offset {}",
                self.pos
            )));
        };
        let n = buf.len().min(data.len() - off);
        buf[..n].copy_from_slice(&data[off..off + n]);
        self.pos += n as u64;
        Ok(n)
    }

    fn seek(&mut self, pos: u64) -> Result<()> {
        if pos > self.len {
            return Err(Error::OutOfBounds {
                requested_end: pos,
                snapshot_size: self.len,
            });
        }
        self.pos = pos;
        Ok(())
    }

    fn pos(&self) -> u64 {
        self.pos
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// Where a [`BlockWriter`] commits its blocks.
pub trait BlockSink: Send {
    /// Commits the file's next block: full, except perhaps the last.
    fn commit(&mut self, block: Bytes) -> Result<()>;

    /// Finishes the file after its last block. `dropped` is true when the
    /// stream is dropped unclosed: the sink must not block for long then.
    fn finish(&mut self, dropped: bool) -> Result<()>;
}

/// A write-behind stream: it fills one block in memory and hands the sink
/// each full block, then the tail and the finish at close (or drop).
///
/// A failed commit loses its block, so the failure sticks: every later
/// `write` and `close` returns the first commit error, and no later block
/// reaches the sink. `close` still finishes the sink, so the file's lease
/// or reveal wait is released.
pub struct BlockWriter<S: BlockSink> {
    sink: S,
    buf: BytesMut,
    block_size: usize,
    written: u64,
    commits: u64,
    closed: bool,
    /// The first commit error, if a block was lost.
    failed: Option<Error>,
}

impl<S: BlockSink> BlockWriter<S> {
    /// A writer committing `block_size` blocks to `sink`.
    pub fn new(block_size: usize, sink: S) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            sink,
            buf: BytesMut::with_capacity(block_size),
            block_size,
            written: 0,
            commits: 0,
            closed: false,
            failed: None,
        }
    }

    /// Blocks committed so far.
    pub fn commit_count(&self) -> u64 {
        self.commits
    }

    /// The first commit error, once a block is lost.
    fn check(&self) -> Result<()> {
        self.failed.clone().map_or(Ok(()), Err)
    }

    fn commit(&mut self) -> Result<()> {
        self.check()?;
        if self.buf.is_empty() {
            return Ok(());
        }
        // The frozen buffer *is* the block the sink stores: no copy. The
        // next block starts in a buffer of its own full size, so it never
        // regrows (and re-copies) on the way there.
        let fresh = BytesMut::with_capacity(self.block_size);
        let block = std::mem::replace(&mut self.buf, fresh).freeze();
        if let Err(e) = self.sink.commit(block) {
            self.failed = Some(e.clone());
            return Err(e);
        }
        self.commits += 1;
        Ok(())
    }

    fn close_as(&mut self, dropped: bool) -> Result<()> {
        if self.closed {
            return self.check();
        }
        let committed = self.commit();
        self.closed = true;
        let finished = self.sink.finish(dropped);
        committed.and(finished)
    }
}

impl<S: BlockSink> DfsOutput for BlockWriter<S> {
    fn write(&mut self, mut data: &[u8]) -> Result<()> {
        if self.closed {
            return Err(Error::StreamClosed);
        }
        self.check()?;
        self.written += data.len() as u64;
        while !data.is_empty() {
            let take = (self.block_size - self.buf.len()).min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.buf.len() == self.block_size {
                self.commit()?;
            }
        }
        Ok(())
    }

    fn pos(&self) -> u64 {
        self.written
    }

    fn close(&mut self) -> Result<()> {
        self.close_as(false)
    }
}

impl<S: BlockSink> Drop for BlockWriter<S> {
    fn drop(&mut self) {
        // Best effort: a dropped stream still finishes its sink, and its
        // errors, a lost block's included, surface only through an
        // explicit close.
        let _ = self.close_as(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    const BLOCK: u64 = 256;

    /// A reader over `data` that logs the blocks it fetches.
    fn reader(data: Vec<u8>) -> (BlockReader, Arc<Mutex<Vec<u64>>>) {
        let log = Arc::new(Mutex::new(Vec::new()));
        let fetched = Arc::clone(&log);
        let data = Bytes::from(data);
        let len = data.len() as u64;
        let reader = BlockReader::new(len, BLOCK, move |block| {
            fetched.lock().unwrap().push(block);
            let start = (block * BLOCK) as usize;
            Ok(data.slice(start..data.len().min(start + BLOCK as usize)))
        });
        (reader, log)
    }

    /// What a sink saw: committed blocks, then how it finished.
    #[derive(Default)]
    struct Seen {
        blocks: Vec<Bytes>,
        finished: Vec<bool>,
    }

    struct MemSink(Arc<Mutex<Seen>>);

    impl BlockSink for MemSink {
        fn commit(&mut self, block: Bytes) -> Result<()> {
            self.0.lock().unwrap().blocks.push(block);
            Ok(())
        }
        fn finish(&mut self, dropped: bool) -> Result<()> {
            self.0.lock().unwrap().finished.push(dropped);
            Ok(())
        }
    }

    fn writer() -> (BlockWriter<MemSink>, Arc<Mutex<Seen>>) {
        let seen = Arc::new(Mutex::new(Seen::default()));
        let sink = MemSink(Arc::clone(&seen));
        (BlockWriter::new(BLOCK as usize, sink), seen)
    }

    #[test]
    fn small_writes_coalesce_into_block_commits() {
        let (mut out, seen) = writer();
        // 100 writes of 10 bytes = 1000 bytes = 3 full blocks + 232 tail.
        for i in 0..100u8 {
            out.write(&[i; 10]).unwrap();
        }
        assert_eq!(
            out.commit_count(),
            3,
            "only full blocks committed during writes"
        );
        assert_eq!(out.pos(), 1000);
        out.close().unwrap();
        assert_eq!(out.commit_count(), 4, "tail committed at close");
        let seen = seen.lock().unwrap();
        let lens: Vec<usize> = seen.blocks.iter().map(|b| b.len()).collect();
        assert_eq!(lens, vec![256, 256, 256, 232]);
        let data: Vec<u8> = seen.blocks.iter().flat_map(|b| b.to_vec()).collect();
        for i in 0..100usize {
            assert!(data[i * 10..(i + 1) * 10].iter().all(|&b| b == i as u8));
        }
        assert_eq!(seen.finished, vec![false], "finished once, by close");
    }

    #[test]
    fn every_block_starts_in_a_buffer_of_full_block_size() {
        let (mut out, seen) = writer();
        for block in 0..3u64 {
            assert!(out.buf.capacity() >= BLOCK as usize, "block {block}");
            let at = out.buf.as_ptr();
            out.write(&[block as u8; BLOCK as usize - 1]).unwrap();
            assert_eq!(out.buf.as_ptr(), at, "block {block} regrew");
            out.write(&[block as u8]).unwrap();
        }
        assert_eq!(seen.lock().unwrap().blocks.len(), 3);
    }

    #[test]
    fn write_after_close_fails_and_drop_finishes() {
        let (mut out, seen) = writer();
        out.write(b"dropped but committed").unwrap();
        drop(out);
        {
            let seen = seen.lock().unwrap();
            assert_eq!(&seen.blocks[0][..], b"dropped but committed");
            assert_eq!(seen.finished, vec![true], "drop finishes as dropped");
        }
        let (mut out, seen) = writer();
        out.close().unwrap();
        out.close().unwrap();
        assert!(matches!(out.write(b"x"), Err(Error::StreamClosed)));
        drop(out);
        let seen = seen.lock().unwrap();
        assert!(seen.blocks.is_empty(), "an empty file commits no block");
        assert_eq!(seen.finished, vec![false], "close is idempotent");
    }

    /// A [`MemSink`] that fails its `fail_at`-th commit (from 0) and
    /// accepts every other.
    struct FailingSink {
        inner: MemSink,
        commits: usize,
        fail_at: usize,
    }

    impl BlockSink for FailingSink {
        fn commit(&mut self, block: Bytes) -> Result<()> {
            self.commits += 1;
            if self.commits == self.fail_at + 1 {
                return Err(Error::WriteAborted("disk full".into()));
            }
            self.inner.commit(block)
        }
        fn finish(&mut self, dropped: bool) -> Result<()> {
            self.inner.finish(dropped)
        }
    }

    #[test]
    fn a_failed_commit_fails_every_later_write_and_close() {
        let seen = Arc::new(Mutex::new(Seen::default()));
        let sink = FailingSink {
            inner: MemSink(Arc::clone(&seen)),
            commits: 0,
            fail_at: 1,
        };
        let mut out = BlockWriter::new(4, sink);
        out.write(b"aaaa").unwrap();
        let lost = out.write(b"bbbb").unwrap_err();
        assert_eq!(out.write(b"cc"), Err(lost.clone()), "the loss sticks");
        assert_eq!(out.close(), Err(lost.clone()));
        assert_eq!(out.close(), Err(lost), "and outlives close");
        let seen = seen.lock().unwrap();
        let blocks: Vec<&[u8]> = seen.blocks.iter().map(|b| &b[..]).collect();
        assert_eq!(blocks, [b"aaaa"], "no block after the lost one lands");
        assert_eq!(seen.finished, vec![false], "close still finishes the sink");
    }

    #[test]
    fn reader_prefetches_whole_blocks() {
        let payload: Vec<u8> = (0..512u32).map(|i| i as u8).collect();
        let (mut input, fetched) = reader(payload.clone());
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
        assert_eq!(*fetched.lock().unwrap(), vec![0, 1]);
    }

    #[test]
    fn seek_within_cached_block_keeps_cache() {
        let (mut input, _) = reader(vec![9u8; 512]);
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
    fn seek_away_from_prefetch_sequence_stays_correct() {
        let payload: Vec<u8> = (0..2048u32).map(|i| i as u8).collect();
        let (mut input, fetched) = reader(payload.clone());
        let mut buf = [0u8; 16];
        input.read_exact(&mut buf).unwrap(); // prefetches block 0
        input.seek(6 * 256).unwrap(); // jump away from the sequence
        input.read_exact(&mut buf).unwrap();
        assert_eq!(&buf[..], &payload[6 * 256..6 * 256 + 16]);
        assert_eq!(*fetched.lock().unwrap(), vec![0, 6]);
        // Seek to the end reads nothing; past it is refused.
        input.seek(2048).unwrap();
        assert_eq!(input.read(&mut buf).unwrap(), 0);
        assert!(input.seek(2049).is_err());
    }

    #[test]
    fn short_last_block_and_empty_file() {
        let payload: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        let (mut input, _) = reader(payload.clone());
        let mut got = vec![0u8; 300];
        input.read_exact(&mut got).unwrap();
        assert_eq!(got, payload);
        assert_eq!(input.fetch_count(), 2);

        let (mut input, fetched) = reader(Vec::new());
        let mut buf = [0u8; 4];
        assert_eq!(input.read(&mut buf).unwrap(), 0);
        assert_eq!(input.len(), 0);
        assert!(input.is_empty());
        assert!(fetched.lock().unwrap().is_empty());

        // A backend handing back less than the block is an error, not a
        // panic or a silent zero-length read.
        let mut input = BlockReader::new(300, BLOCK, |_| Ok(Bytes::from_static(b"abc")));
        input.seek(10).unwrap();
        assert!(matches!(input.read(&mut buf), Err(Error::Internal(_))));
    }
}
