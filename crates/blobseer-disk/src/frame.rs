//! The checksummed frame log every durable file in this crate is built on.
//!
//! A frame log is an append-only file of self-delimiting records:
//!
//! ```text
//! ┌────────────┬────────────┬───────────────────┐
//! │ len: u32 LE│ crc: u32 LE│ payload (len bytes)│  … repeated
//! └────────────┴────────────┴───────────────────┘
//! ```
//!
//! `crc` is the CRC-32 (IEEE, computed by `crc32fast`) of the payload
//! alone; the 8-byte header is protected indirectly — a corrupt `len`
//! either points past the end of the file or frames a byte range whose
//! checksum cannot match.
//!
//! # Recovery rule
//!
//! On open, the log is scanned from the start and the file is truncated
//! at the first frame that is not fully committed:
//!
//! * fewer than 8 bytes remain → torn header;
//! * `len` exceeds [`MAX_FRAME_PAYLOAD`] → corrupt header;
//! * fewer than `len` payload bytes remain → torn payload;
//! * checksum mismatch → torn or corrupt payload.
//!
//! Everything before the cut is intact (each earlier frame passed its own
//! checksum); everything from the cut on is discarded. This is the
//! log-structured contract: a crash mid-`write` loses at most the
//! writes whose frames had not fully reached the file, never anything
//! acknowledged before them, and recovery can never surface garbage
//! bytes as a record. The kill-at-any-write-offset suite in
//! `tests/crash_consistency.rs` drives exactly this rule byte by byte.
//!
//! Writers append with one vectored write per batch
//! ([`FrameLog::append_many`]): every frame's 8-byte header and the parts
//! of its payload go to the kernel as one `iovec` list, from the buffers
//! they already lie in — a 64 KB block is checksummed where the socket
//! read left it and is never copied behind its header first. The bytes
//! still reach the file in order, so on a POSIX file system a crashed
//! writer leaves a *prefix* of the appended bytes — the case the rule is
//! designed around. A writer that *survives* a failed append (disk full,
//! I/O error) cuts the file back to its committed length before it
//! reports the failure, so the next append starts where the index thinks
//! it does; if even that fails the log refuses every later append
//! ([`FrameLog::append_many`] has the details). `fsync` is a separate,
//! optional knob ([`FrameLog::sync`]): it narrows the window in which
//! acknowledged frames can be lost to a power failure, but recovery
//! correctness never depends on it.

use blobseer_types::wire::write_all_vectored;
use blobseer_types::{Error, Result};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, IoSlice, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_HEADER_LEN: u64 = 8;

/// Upper bound on one frame's payload: a 64 MB block (the paper's block
/// size) plus record-header headroom. A corrupt length prefix must not
/// make recovery attempt a huge allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 80 * 1024 * 1024;

/// Maps an I/O failure on `path` into [`Error::Storage`] with context.
pub fn storage_err(path: &Path, context: &str, e: std::io::Error) -> Error {
    Error::Storage(format!("{}: {context}: {e}", path.display()))
}

/// One frame ready to append: the header that commits it, computed, and
/// the payload it commits, borrowed in the (up to two) parts it lies in.
///
/// Building a frame is the expensive half of an append — the checksum
/// pass over the payload — and needs no log, so callers do it before they
/// take the lock that serializes their appends.
#[derive(Clone, Copy, Debug)]
pub struct Frame<'a> {
    header: [u8; FRAME_HEADER_LEN as usize],
    parts: [&'a [u8]; 2],
}

impl<'a> Frame<'a> {
    /// A frame whose payload is `payload`.
    pub fn new(payload: &'a [u8]) -> Result<Self> {
        Self::of_parts(payload, &[])
    }

    /// A frame whose payload is `head` followed by `body` — a small
    /// encoded record header in front of a block the caller holds
    /// elsewhere. Fails if the payload exceeds [`MAX_FRAME_PAYLOAD`]:
    /// recovery would take such a frame for a corrupt length and cut the
    /// log at it.
    pub fn of_parts(head: &'a [u8], body: &'a [u8]) -> Result<Self> {
        let total = head.len() + body.len();
        let len = u32::try_from(total)
            .ok()
            .filter(|&len| len <= MAX_FRAME_PAYLOAD)
            .ok_or_else(|| {
                Error::Storage(format!(
                    "frame payload of {total} bytes exceeds the {MAX_FRAME_PAYLOAD}-byte frame cap"
                ))
            })?;
        let mut crc = crc32fast::Hasher::new();
        crc.update(head);
        crc.update(body);
        let mut header = [0u8; FRAME_HEADER_LEN as usize];
        header[..4].copy_from_slice(&len.to_le_bytes());
        header[4..].copy_from_slice(&crc.finalize().to_le_bytes());
        Ok(Self {
            header,
            parts: [head, body],
        })
    }

    /// Bytes this frame occupies in the log, header included.
    fn encoded_len(&self) -> u64 {
        FRAME_HEADER_LEN + (self.parts[0].len() + self.parts[1].len()) as u64
    }
}

/// An open frame log: the append handle plus the committed tail offset.
///
/// One `FrameLog` is single-writer (callers wrap it in a mutex); reads
/// happen concurrently through [`Self::reader`] clones using positional
/// I/O, without touching the writer state.
pub struct FrameLog {
    path: PathBuf,
    file: Arc<File>,
    /// Offset one past the last fully-committed frame.
    tail: u64,
    /// Set when a failed append could not be rolled back: the file
    /// cursor no longer sits at `tail`, so no later append may run.
    poisoned: bool,
}

impl FrameLog {
    /// Opens `path` (creating it and missing parent directories if
    /// absent), replays every committed frame through `visit` as
    /// `(payload_file_offset, payload)`, and truncates a torn tail per
    /// the module-level recovery rule.
    ///
    /// `visit` returning `Err` aborts the open: a checksummed frame that
    /// the caller cannot decode means the writer was broken, which
    /// truncation must not paper over.
    pub fn open_with(
        path: impl Into<PathBuf>,
        mut visit: impl FnMut(u64, &[u8]) -> Result<()>,
    ) -> Result<Self> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| storage_err(&path, "create data directory", e))?;
        }
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| storage_err(&path, "open frame log", e))?;
        let file_len = file
            .metadata()
            .map_err(|e| storage_err(&path, "stat frame log", e))?
            .len();

        // Sequential scan: committed frames are visited, the first torn
        // or corrupt frame ends the log.
        let mut reader = BufReader::new(&file);
        let mut offset = 0u64;
        let mut payload = Vec::new();
        while offset + FRAME_HEADER_LEN <= file_len {
            let mut header = [0u8; FRAME_HEADER_LEN as usize];
            reader
                .read_exact(&mut header)
                .map_err(|e| storage_err(&path, "read frame header", e))?;
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if len > MAX_FRAME_PAYLOAD || offset + FRAME_HEADER_LEN + len as u64 > file_len {
                break; // corrupt length or torn payload
            }
            payload.resize(len as usize, 0);
            reader
                .read_exact(&mut payload)
                .map_err(|e| storage_err(&path, "read frame payload", e))?;
            if crc32fast::hash(&payload) != crc {
                break; // torn or corrupt payload
            }
            visit(offset + FRAME_HEADER_LEN, &payload)?;
            offset += FRAME_HEADER_LEN + len as u64;
        }
        drop(reader);

        if offset < file_len {
            file.set_len(offset)
                .map_err(|e| storage_err(&path, "truncate torn tail", e))?;
        }
        file.seek(SeekFrom::Start(offset))
            .map_err(|e| storage_err(&path, "seek to tail", e))?;
        Ok(Self {
            path,
            file: Arc::new(file),
            tail: offset,
            poisoned: false,
        })
    }

    /// [`Self::open_with`] without a replay visitor.
    pub fn open(path: impl Into<PathBuf>) -> Result<Self> {
        Self::open_with(path, |_, _| Ok(()))
    }

    /// Appends one frame; returns the file offset of its payload.
    pub fn append(&mut self, payload: &[u8]) -> Result<u64> {
        let offsets = self.append_many(&[Frame::new(payload)?])?;
        Ok(offsets[0])
    }

    /// [`Self::append_many`] of one single-part frame per payload — the
    /// form for small encoded records.
    pub fn append_payloads<'a>(
        &mut self,
        payloads: impl IntoIterator<Item = &'a [u8]>,
    ) -> Result<Vec<u64>> {
        let frames = payloads
            .into_iter()
            .map(Frame::new)
            .collect::<Result<Vec<_>>>()?;
        self.append_many(&frames)
    }

    /// Appends a batch of frames with a single vectored write, so a crash
    /// tears at most the batch's own suffix. Returns the payload offset
    /// of each frame, in order.
    ///
    /// A failed write may have put part of the batch in the file. Nothing
    /// of it is acknowledged, so before the error is returned the file is
    /// cut back to the committed length and the cursor put there: the
    /// next append lands where its returned offsets say. If the file
    /// cannot be restored either, the log is poisoned — this and every
    /// later append fails with [`Error::Storage`] rather than recording
    /// offsets that are off by the torn bytes. A reopen recovers from
    /// both.
    pub fn append_many(&mut self, frames: &[Frame<'_>]) -> Result<Vec<u64>> {
        self.append_via(|file| file, frames)
    }

    /// [`Self::append_many`] through `wrap(file)` — the seam the fault
    /// tests inject a failing writer at.
    fn append_via<'f, W: Write>(
        &'f mut self,
        wrap: impl FnOnce(&'f File) -> W,
        frames: &[Frame<'_>],
    ) -> Result<Vec<u64>> {
        if self.poisoned {
            return Err(Error::Storage(format!(
                "{}: frame log is poisoned: an earlier failed append could not be rolled back",
                self.path.display()
            )));
        }
        let mut offsets = Vec::with_capacity(frames.len());
        let mut slices = Vec::with_capacity(frames.len() * 3);
        let mut end = self.tail;
        for frame in frames {
            offsets.push(end + FRAME_HEADER_LEN);
            end += frame.encoded_len();
            slices.push(IoSlice::new(&frame.header));
            let parts = frame.parts.iter().filter(|part| !part.is_empty());
            slices.extend(parts.map(|part| IoSlice::new(part)));
        }
        if let Err((_, e)) = write_all_vectored(&mut wrap(&self.file), &mut slices) {
            let restored = self
                .file
                .set_len(self.tail)
                .and_then(|()| (&*self.file).seek(SeekFrom::Start(self.tail)));
            self.poisoned = restored.is_err();
            return Err(storage_err(&self.path, "append frames", e));
        }
        self.tail = end;
        Ok(offsets)
    }

    /// Reads `buf.len()` bytes at `offset` through the writer handle.
    /// Concurrent readers should prefer a [`Self::reader`] clone.
    pub fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> Result<()> {
        read_exact_at(&self.file, &self.path, buf, offset)
    }

    /// A cloneable handle for lock-free positional reads of committed
    /// payloads (Linux `pread` never disturbs the append position).
    pub fn reader(&self) -> Arc<File> {
        Arc::clone(&self.file)
    }

    /// Offset one past the last committed frame — the length a crash-free
    /// close leaves the file at.
    pub fn committed_len(&self) -> u64 {
        self.tail
    }

    /// The file backing this log.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Discards every frame (the disk analogue of crashing a RAM shard:
    /// used by `MetaStore::crash_shard`).
    pub fn truncate_all(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| storage_err(&self.path, "truncate log", e))?;
        (&*self.file)
            .seek(SeekFrom::Start(0))
            .map_err(|e| storage_err(&self.path, "seek to start", e))?;
        self.tail = 0;
        Ok(())
    }

    /// Forces appended frames to stable storage (`fsync`). Optional:
    /// recovery correctness never depends on it (see module docs).
    pub fn sync(&self) -> Result<()> {
        self.file
            .sync_data()
            .map_err(|e| storage_err(&self.path, "fsync", e))
    }
}

/// Positional read helper shared with the volume's lock-free read path.
pub fn read_exact_at(file: &File, path: &Path, buf: &mut [u8], offset: u64) -> Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
        .map_err(|e| storage_err(path, "positional read", e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    /// The parent format's encoder, kept as what the vectored write path is
    /// held against: a frame staged as header + payload in one buffer.
    fn encode_frame_into(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32fast::hash(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// SplitMix64: the deterministic randomness of the tests below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn bytes(&mut self, n: usize) -> Vec<u8> {
            (0..n).map(|_| self.next() as u8).collect()
        }
    }

    #[test]
    fn frames_survive_close_and_reopen() {
        let tmp = TempDir::new("frame-reopen");
        let path = tmp.path().join("log");
        let mut log = FrameLog::open(&path).unwrap();
        log.append(b"alpha").unwrap();
        // A batch: one-part frames, an empty one, and one whose payload
        // lies in two parts.
        let batch = [
            Frame::new(b"beta").unwrap(),
            Frame::new(b"").unwrap(),
            Frame::of_parts(b"gam", b"ma").unwrap(),
        ];
        let offsets = log.append_many(&batch).unwrap();
        assert_eq!(offsets.len(), 3);
        let committed = log.committed_len();
        drop(log);

        let mut seen = Vec::new();
        let log = FrameLog::open_with(&path, |off, payload| {
            seen.push((off, payload.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(log.committed_len(), committed);
        let payloads: Vec<&[u8]> = seen.iter().map(|(_, p)| p.as_slice()).collect();
        assert_eq!(payloads, vec![&b"alpha"[..], b"beta", b"", b"gamma"]);
        // Offsets point at the payloads themselves.
        let mut buf = vec![0u8; 5];
        log.read_exact_at(&mut buf, seen[0].0).unwrap();
        assert_eq!(&buf, b"alpha");
    }

    #[test]
    fn torn_tail_is_truncated_at_every_offset() {
        let tmp = TempDir::new("frame-torn");
        let pristine = tmp.path().join("pristine");
        let mut log = FrameLog::open(&pristine).unwrap();
        log.append(b"first").unwrap();
        let second_committed = log.committed_len();
        log.append(b"second-frame-payload").unwrap();
        let full = log.committed_len();
        drop(log);
        let bytes = std::fs::read(&pristine).unwrap();
        assert_eq!(bytes.len() as u64, full);

        for cut in second_committed..full {
            let path = tmp.path().join(format!("cut-{cut}"));
            std::fs::write(&path, &bytes[..cut as usize]).unwrap();
            let mut payloads = Vec::new();
            let log = FrameLog::open_with(&path, |_, p| {
                payloads.push(p.to_vec());
                Ok(())
            })
            .unwrap();
            assert_eq!(payloads, vec![b"first".to_vec()], "cut at {cut}");
            assert_eq!(log.committed_len(), second_committed);
            // The torn suffix is physically gone.
            assert_eq!(
                std::fs::metadata(&path).unwrap().len(),
                second_committed,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn corrupt_middle_frame_drops_it_and_everything_after() {
        let tmp = TempDir::new("frame-corrupt");
        let path = tmp.path().join("log");
        let mut log = FrameLog::open(&path).unwrap();
        log.append(b"keep").unwrap();
        let keep_end = log.committed_len();
        let second_payload_off = log.append(b"damage-me").unwrap();
        log.append(b"casualty").unwrap();
        drop(log);

        let mut bytes = std::fs::read(&path).unwrap();
        bytes[second_payload_off as usize] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();

        let mut payloads = Vec::new();
        let log = FrameLog::open_with(&path, |_, p| {
            payloads.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(payloads, vec![b"keep".to_vec()]);
        assert_eq!(log.committed_len(), keep_end);
    }

    /// A corrupt byte anywhere in a frame's whole 64-byte blocks — the part
    /// the folding checksum kernel covers, where the CPU has it — cuts the
    /// log at that frame.
    #[test]
    fn a_flipped_byte_in_a_bulk_block_cuts_the_log_at_its_frame() {
        let tmp = TempDir::new("frame-bulk-flip");
        let mut log = FrameLog::open(tmp.path().join("pristine")).unwrap();
        log.append(b"keep").unwrap();
        let keep_end = log.committed_len();
        let body = Rng(38).bytes(300);
        let batch = [
            Frame::of_parts(b"head-", &body).unwrap(),
            Frame::new(b"casualty").unwrap(),
        ];
        let payload_at = log.append_many(&batch).unwrap()[0] as usize;
        let pristine = std::fs::read(log.path()).unwrap();
        drop(log);

        let path = tmp.path().join("damaged");
        for i in 0..(5 + body.len()) / 64 * 64 {
            let mut bytes = pristine.clone();
            bytes[payload_at + i] ^= 0xFF;
            std::fs::write(&path, &bytes).unwrap();
            let mut payloads = Vec::new();
            let log = FrameLog::open_with(&path, |_, p| {
                payloads.push(p.to_vec());
                Ok(())
            })
            .unwrap();
            assert_eq!(payloads, vec![b"keep".to_vec()], "payload byte {i}");
            assert_eq!(log.committed_len(), keep_end, "payload byte {i}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_treated_as_corruption() {
        let tmp = TempDir::new("frame-overlen");
        let path = tmp.path().join("log");
        let mut log = FrameLog::open(&path).unwrap();
        log.append(b"ok").unwrap();
        let end = log.committed_len();
        drop(log);
        // A header claiming a payload far past MAX_FRAME_PAYLOAD, then
        // plausible-looking bytes: recovery must stop at the bad header.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&[0xAB; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let log = FrameLog::open(&path).unwrap();
        assert_eq!(log.committed_len(), end);
    }

    #[test]
    fn appends_resume_after_recovery() {
        let tmp = TempDir::new("frame-resume");
        let path = tmp.path().join("log");
        let mut log = FrameLog::open(&path).unwrap();
        log.append(b"one").unwrap();
        drop(log);
        // Tear the file mid-frame, then keep appending after recovery.
        let mut bytes = std::fs::read(&path).unwrap();
        let committed = bytes.len();
        bytes.extend_from_slice(&[9, 0, 0, 0]); // half a header
        std::fs::write(&path, &bytes).unwrap();
        let mut log = FrameLog::open(&path).unwrap();
        assert_eq!(log.committed_len(), committed as u64);
        log.append(b"two").unwrap();
        log.sync().unwrap();
        drop(log);
        let mut payloads = Vec::new();
        FrameLog::open_with(&path, |_, p| {
            payloads.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        assert_eq!(payloads, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    /// What one `write_vectored` call was offered: `(address, length)` of
    /// each slice. Forwards everything to the file.
    struct Recorder<'a> {
        file: &'a File,
        calls: &'a mut Vec<Vec<(usize, usize)>>,
    }

    impl Write for Recorder<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls.push(
                bufs.iter()
                    .map(|b| (b.as_ptr() as usize, b.len()))
                    .collect(),
            );
            self.file.write_vectored(bufs)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// The structure the copy-free path stands on: a batch is one
    /// `write_vectored` call, and the kernel is handed each block at the
    /// block's own address — nothing staged it behind its header.
    #[test]
    fn a_batch_is_one_vectored_write_of_the_callers_own_buffers() {
        let tmp = TempDir::new("frame-vectored");
        let mut log = FrameLog::open(tmp.path().join("log")).unwrap();
        let blocks: Vec<bytes::Bytes> = (0..4u8)
            .map(|k| bytes::Bytes::from(vec![k; 64 * 1024]))
            .collect();
        let heads: Vec<Vec<u8>> = (0..4u8).map(|k| vec![1, k, 0x80, 0x80, 0x04]).collect();
        let frames: Vec<Frame<'_>> = heads
            .iter()
            .zip(&blocks)
            .map(|(head, block)| Frame::of_parts(head, block).unwrap())
            .collect();
        let mut calls = Vec::new();
        let offsets = log
            .append_via(
                |file| Recorder {
                    file,
                    calls: &mut calls,
                },
                &frames,
            )
            .unwrap();
        assert_eq!(calls.len(), 1, "one write_vectored call per batch");
        for (k, block) in blocks.iter().enumerate() {
            assert_eq!(calls[0][3 * k].1, FRAME_HEADER_LEN as usize);
            assert_eq!(calls[0][3 * k + 1], (heads[k].as_ptr() as usize, 5));
            assert_eq!(
                calls[0][3 * k + 2],
                (block.as_ptr() as usize, block.len()),
                "block {k} must be written from where it lies"
            );
            let mut back = vec![0u8; block.len()];
            log.read_exact_at(&mut back, offsets[k] + 5).unwrap();
            assert_eq!(back, block[..]);
        }
    }

    /// Takes `budget` bytes in all, then fails.
    struct FailAfter<'a> {
        file: &'a File,
        budget: usize,
    }

    impl Write for FailAfter<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::Error::other("injected: device gone"));
            }
            let n = self.budget.min(buf.len());
            self.file.write_all(&buf[..n])?;
            self.budget -= n;
            Ok(n)
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            let mut n = 0;
            for buf in bufs {
                if self.budget == 0 && n > 0 {
                    break;
                }
                n += self.write(buf)?;
            }
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A failed append must not move where the next one lands: whatever
    /// part of the batch reached the file is cut off again, so the offsets
    /// handed out afterwards are where the payloads really are, and a
    /// reopen keeps every acknowledged frame.
    #[test]
    fn an_append_that_fails_after_k_bytes_leaves_the_log_at_its_tail() {
        let tmp = TempDir::new("frame-fail");
        let batch = [
            Frame::of_parts(b"head-", b"and-body").unwrap(),
            Frame::new(b"second").unwrap(),
        ];
        let total: u64 = batch.iter().map(Frame::encoded_len).sum();
        for k in 0..total as usize {
            let path = tmp.path().join(format!("fail-{k}"));
            let mut log = FrameLog::open(&path).unwrap();
            log.append(b"acknowledged").unwrap();
            let tail = log.committed_len();
            let err = log
                .append_via(|file| FailAfter { file, budget: k }, &batch)
                .unwrap_err();
            assert!(matches!(err, Error::Storage(_)), "k = {k}: {err}");
            assert_eq!(log.committed_len(), tail, "k = {k}");
            assert_eq!(std::fs::metadata(&path).unwrap().len(), tail, "k = {k}");

            let off = log.append(b"after").unwrap();
            let mut back = [0u8; 5];
            log.read_exact_at(&mut back, off).unwrap();
            assert_eq!(&back, b"after", "k = {k}: offset must match the file");
            drop(log);
            let mut payloads = Vec::new();
            FrameLog::open_with(&path, |_, p| {
                payloads.push(p.to_vec());
                Ok(())
            })
            .unwrap();
            assert_eq!(
                payloads,
                vec![b"acknowledged".to_vec(), b"after".to_vec()],
                "k = {k}"
            );
        }
    }

    /// When the file cannot be cut back either, the log must stop taking
    /// appends rather than hand out offsets it cannot vouch for.
    #[test]
    fn an_append_that_cannot_be_rolled_back_poisons_the_log() {
        let tmp = TempDir::new("frame-poison");
        let path = tmp.path().join("log");
        let mut log = FrameLog::open(&path).unwrap();
        log.append(b"acknowledged").unwrap();
        let tail = log.committed_len();
        // A read-only handle refuses the write *and* the truncate.
        log.file = Arc::new(File::open(&path).unwrap());
        assert!(log.append(b"lost").is_err());
        log.file = Arc::new(OpenOptions::new().write(true).open(&path).unwrap());
        let err = log.append(b"refused").unwrap_err();
        assert!(
            matches!(&err, Error::Storage(why) if why.contains("poisoned")),
            "{err}"
        );
        assert_eq!(log.committed_len(), tail);
        drop(log);
        // A reopen starts from what the file holds.
        let mut log = FrameLog::open(&path).unwrap();
        assert_eq!(log.committed_len(), tail);
        log.append(b"fine again").unwrap();
    }

    #[test]
    fn oversized_payloads_are_refused_not_written() {
        let big = vec![0u8; MAX_FRAME_PAYLOAD as usize];
        assert!(Frame::new(&big).is_ok());
        let err = Frame::of_parts(b"x", &big).unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
    }

    /// Wire-format pin: a volume, a record log and a version log written
    /// through the vectored, part-wise checksummed path are byte for byte
    /// what the parent's `encode_frame_into` produced for the same
    /// records.
    #[test]
    fn logs_are_byte_identical_to_the_staged_encoder() {
        use crate::record_log::{shard_path, DiskMetaStore};
        use crate::version_log::DurableVersionService;
        use crate::volume::DiskVolume;
        use blobseer_core::meta::key::{NodeKey, Pos};
        use blobseer_core::meta::node::{BlockDescriptor, TreeNode};
        use blobseer_core::ports::{MetaStore, VersionService};
        use blobseer_core::version_manager::WriteIntent;
        use blobseer_types::wire::{Wire, WireWriter};
        use blobseer_types::{BlobId, BlockId, NodeId, Version};
        use bytes::Bytes;

        let golden = |records: &[WireWriter]| {
            let mut file = Vec::new();
            for record in records {
                encode_frame_into(&mut file, record.as_slice());
            }
            file
        };
        let record = |fill: &dyn Fn(&mut WireWriter)| {
            let mut w = WireWriter::new();
            fill(&mut w);
            w
        };
        let tmp = TempDir::new("frame-golden");
        let mut rng = Rng(7);

        // Volume: single put, batched puts (one of them empty), both
        // kinds of delete.
        let blocks = [
            (BlockId::new(1), Bytes::from(rng.bytes(11))),
            (BlockId::new(300), Bytes::from(rng.bytes(70_000))),
            (BlockId::new(2), Bytes::new()),
        ];
        let volume = DiskVolume::open(tmp.path().join("volume"), NodeId::new(0)).unwrap();
        assert!(volume.put_many(&blocks[..1]).iter().all(|r| r.is_ok()));
        assert!(volume.put_many(&blocks).iter().all(|r| r.is_ok()));
        let ids: Vec<BlockId> = blocks.iter().map(|(id, _)| *id).collect();
        for (got, (_, data)) in volume.get_many(&ids).into_iter().zip(&blocks) {
            assert_eq!(&got.unwrap(), data);
        }
        assert_eq!(volume.delete_many(&[BlockId::new(1)]), vec![Ok(11)]);
        volume.delete_many(&[BlockId::new(300)]);
        let put = |(id, data): &(BlockId, Bytes)| {
            record(&|w| {
                w.put_u8(1);
                w.put_u64(id.raw());
                w.put_slice(data);
            })
        };
        let tombstone = |id: u64| {
            record(&|w| {
                w.put_u8(2);
                w.put_u64(id);
            })
        };
        assert_eq!(
            std::fs::read(volume.path()).unwrap(),
            golden(&[
                put(&blocks[0]),
                put(&blocks[1]),
                put(&blocks[2]),
                tombstone(1),
                tombstone(300),
            ])
        );

        // Record log: one shard, a batch of nodes and a delete.
        let key = |v: u64| NodeKey::new(BlobId::new(1), Version::new(v), Pos::new(0, 1));
        let nodes: Vec<(NodeKey, TreeNode)> = (1..=3)
            .map(|v| {
                let leaf = TreeNode::Leaf(BlockDescriptor {
                    block_id: BlockId::new(v),
                    providers: vec![0, 2],
                    len: 4096,
                });
                (key(v), leaf)
            })
            .collect();
        let meta = DiskMetaStore::open(tmp.path().join("meta"), 1).unwrap();
        meta.put(nodes[0].0, nodes[0].1.clone()).unwrap();
        assert!(meta.put_many(&nodes).iter().all(|r| r.is_ok()));
        assert!(meta.delete(&key(2)));
        let mut records: Vec<WireWriter> = nodes
            .iter()
            .map(|(key, node)| {
                record(&|w| {
                    w.put_u8(1);
                    key.put(w);
                    node.put(w);
                })
            })
            .collect();
        records.push(record(&|w| {
            w.put_u8(2);
            key(2).put(w);
        }));
        assert_eq!(
            std::fs::read(shard_path(&tmp.path().join("meta"), 0)).unwrap(),
            golden(&records)
        );

        // Version log: header, create, assign, commit — each entry
        // `term | index | seq | tag | args | result`.
        let vm = DurableVersionService::open(tmp.path().join("versions"), 4096).unwrap();
        let blob = vm.create_blob().unwrap();
        let ticket = vm.assign(blob, WriteIntent::Append { size: 100 }).unwrap();
        vm.commit(blob, ticket.version).unwrap();
        let entry = |index: u64, tag: u8, args: &dyn Fn(&mut WireWriter), result: u64| {
            record(&|w| {
                w.put_u64(0);
                w.put_u64(index);
                w.put_u64(index + 1);
                w.put_u8(tag);
                args(w);
                w.put_u64(result);
            })
        };
        assert_eq!(
            std::fs::read(vm.path()).unwrap(),
            golden(&[
                record(&|w| w.put_u64(4096)),
                entry(0, 0, &|_| {}, blob.raw()),
                entry(
                    1,
                    2,
                    &|w| {
                        w.put_u64(blob.raw());
                        w.put_u8(1);
                        w.put_u64(100);
                    },
                    ticket.version.raw(),
                ),
                entry(
                    2,
                    3,
                    &|w| {
                        w.put_u64(blob.raw());
                        w.put_u64(ticket.version.raw());
                    },
                    0,
                ),
            ])
        );
    }
}
