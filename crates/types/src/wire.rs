//! Dependency-free binary wire codec primitives.
//!
//! The RPC backend (`blobseer-rpc`) serializes every port call into
//! length-prefixed frames built from three primitives: LEB128 varints,
//! length-prefixed byte strings, and single bytes. Those primitives — and
//! the codec for [`Error`], which must survive a wire round-trip so service
//! failures propagate to remote clients as themselves rather than degrading
//! into transport errors — live here, next to the types they serialize.
//! Domain types owned by `blobseer-core` (tree nodes, tickets, log chains)
//! get their codecs in `blobseer-rpc`, built on these primitives.
//!
//! Malformed input never panics: every decode returns
//! [`Error::Transport`], so a corrupt frame surfaces as a transport
//! failure on the connection that produced it.

use crate::error::{Error, Result};
use std::io::{ErrorKind, IoSlice, Write};

/// Writes every byte of `bufs`, in order: `write_all` for a list of
/// buffers. A writer that takes all it is offered sees one
/// `write_vectored` call (one syscall on a socket or a file); one that
/// takes less is offered the rest again, [`ErrorKind::Interrupted`] is
/// retried, and a writer that takes nothing fails with
/// [`ErrorKind::WriteZero`]. On an error an unknown prefix of the bytes
/// has been written. `bufs` is consumed: its slices are advanced in place.
///
/// Both frame formats — the RPC wire's and the disk logs' — put a small
/// header in front of a payload they do not own; this is how the two leave
/// together without being copied into one buffer first.
pub fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> std::io::Result<()> {
    // Drops leading empty slices, so an all-empty list writes nothing.
    IoSlice::advance_slices(&mut bufs, 0);
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Writes wire primitives into a growing buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes room for `additional` more bytes, so a writer about to take a
    /// large payload whose size is known grows once instead of doubling
    /// its way there (every doubling re-copies what is already written).
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends an unsigned LEB128 varint (1–10 bytes).
    pub fn put_u64(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(byte);
                return;
            }
            self.buf.push(byte | 0x80);
        }
    }

    /// Appends a `u32` (as a varint).
    pub fn put_u32(&mut self, v: u32) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed byte string.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_slice(s.as_bytes());
    }

    /// Appends an [`Error`], tag plus payload; [`WireReader::get_error`]
    /// reconstructs the exact variant.
    pub fn put_error(&mut self, e: &Error) {
        match e {
            Error::NoSuchBlob(b) => {
                self.put_u8(0);
                self.put_u64(*b);
            }
            Error::NoSuchVersion { blob, version } => {
                self.put_u8(1);
                self.put_u64(*blob);
                self.put_u64(*version);
            }
            Error::VersionNotRevealed { blob, version } => {
                self.put_u8(2);
                self.put_u64(*blob);
                self.put_u64(*version);
            }
            Error::OutOfBounds {
                requested_end,
                snapshot_size,
            } => {
                self.put_u8(3);
                self.put_u64(*requested_end);
                self.put_u64(*snapshot_size);
            }
            Error::MissingMetadata(s) => {
                self.put_u8(4);
                self.put_str(s);
            }
            Error::MetadataConflict(s) => {
                self.put_u8(5);
                self.put_str(s);
            }
            Error::MissingBlock(b) => {
                self.put_u8(6);
                self.put_u64(*b);
            }
            Error::NoProviderAvailable(s) => {
                self.put_u8(7);
                self.put_str(s);
            }
            Error::NotFound(s) => {
                self.put_u8(8);
                self.put_str(s);
            }
            Error::AlreadyExists(s) => {
                self.put_u8(9);
                self.put_str(s);
            }
            Error::NotADirectory(s) => {
                self.put_u8(10);
                self.put_str(s);
            }
            Error::DirectoryNotEmpty(s) => {
                self.put_u8(11);
                self.put_str(s);
            }
            Error::InvalidPath(s) => {
                self.put_u8(12);
                self.put_str(s);
            }
            Error::LeaseConflict(s) => {
                self.put_u8(13);
                self.put_str(s);
            }
            Error::Unsupported(s) => {
                self.put_u8(14);
                self.put_str(s);
            }
            Error::WriteAborted(s) => {
                self.put_u8(15);
                self.put_str(s);
            }
            Error::StreamClosed => self.put_u8(16),
            Error::Timeout(s) => {
                self.put_u8(17);
                self.put_str(s);
            }
            Error::Transport(s) => {
                self.put_u8(18);
                self.put_str(s);
            }
            Error::Storage(s) => {
                self.put_u8(20);
                self.put_str(s);
            }
            Error::Internal(s) => {
                self.put_u8(19);
                self.put_str(s);
            }
        }
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads wire primitives from a byte slice. All methods fail with
/// [`Error::Transport`] on truncated or malformed input.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// The error every truncated read maps to.
fn truncated(what: &str) -> Error {
    Error::Transport(format!("wire: truncated {what}"))
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Reads one raw byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(|| truncated("u8"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a bool (rejecting anything but 0/1).
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Transport(format!("wire: invalid bool byte {b}"))),
        }
    }

    /// Reads an unsigned LEB128 varint.
    pub fn get_u64(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(Error::Transport("wire: varint overflows u64".into()));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a `u32` varint, rejecting out-of-range values.
    pub fn get_u32(&mut self) -> Result<u32> {
        let v = self.get_u64()?;
        u32::try_from(v).map_err(|_| Error::Transport(format!("wire: {v} overflows u32")))
    }

    /// Reads a length-prefixed byte string (borrowed from the input).
    pub fn get_slice(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u64()? as usize;
        if self.remaining() < len {
            return Err(truncated("byte string"));
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let s = self.get_slice()?;
        String::from_utf8(s.to_vec())
            .map_err(|_| Error::Transport("wire: invalid UTF-8 string".into()))
    }

    /// Reads an [`Error`] encoded by [`WireWriter::put_error`].
    pub fn get_error(&mut self) -> Result<Error> {
        let tag = self.get_u8()?;
        Ok(match tag {
            0 => Error::NoSuchBlob(self.get_u64()?),
            1 => Error::NoSuchVersion {
                blob: self.get_u64()?,
                version: self.get_u64()?,
            },
            2 => Error::VersionNotRevealed {
                blob: self.get_u64()?,
                version: self.get_u64()?,
            },
            3 => Error::OutOfBounds {
                requested_end: self.get_u64()?,
                snapshot_size: self.get_u64()?,
            },
            4 => Error::MissingMetadata(self.get_str()?),
            5 => Error::MetadataConflict(self.get_str()?),
            6 => Error::MissingBlock(self.get_u64()?),
            7 => Error::NoProviderAvailable(self.get_str()?),
            8 => Error::NotFound(self.get_str()?),
            9 => Error::AlreadyExists(self.get_str()?),
            10 => Error::NotADirectory(self.get_str()?),
            11 => Error::DirectoryNotEmpty(self.get_str()?),
            12 => Error::InvalidPath(self.get_str()?),
            13 => Error::LeaseConflict(self.get_str()?),
            14 => Error::Unsupported(intern_unsupported(self.get_str()?)),
            15 => Error::WriteAborted(self.get_str()?),
            16 => Error::StreamClosed,
            17 => Error::Timeout(self.get_str()?),
            18 => Error::Transport(self.get_str()?),
            19 => Error::Internal(self.get_str()?),
            20 => Error::Storage(self.get_str()?),
            t => return Err(Error::Transport(format!("wire: unknown error tag {t}"))),
        })
    }

    /// Asserts the whole input was consumed (trailing garbage is a framing
    /// bug on the peer).
    pub fn finish(self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(Error::Transport(format!(
                "wire: {} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Interns the message of a decoded [`Error::Unsupported`].
///
/// The variant carries `&'static str`, so decoding needs a static
/// allocation. Honest peers only ever send a handful of fixed operation
/// names; interning makes repeats free, and the table is capped so a
/// hostile peer flooding unique messages cannot grow memory without
/// bound — on overflow (or an implausibly long message) the decode
/// collapses to a fixed placeholder rather than leaking.
fn intern_unsupported(msg: String) -> &'static str {
    const MAX_INTERNED: usize = 64;
    const MAX_LEN: usize = 128;
    static TABLE: std::sync::Mutex<Vec<&'static str>> = std::sync::Mutex::new(Vec::new()); // lint:allow(no-std-sync): blobseer-types stays dependency-free; bounded, leaf-level table
    if msg.len() > MAX_LEN {
        return "unsupported operation (message too long to preserve)";
    }
    let mut table = TABLE.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(&interned) = table.iter().find(|&&s| s == msg) {
        return interned;
    }
    if table.len() >= MAX_INTERNED {
        return "unsupported operation (message table full)";
    }
    let interned: &'static str = Box::leak(msg.into_boxed_str());
    table.push(interned);
    interned
}

/// Every [`Error`] variant, with representative payloads — the fixture
/// behind "all error variants survive a wire round-trip" assertions here
/// and in the RPC equivalence tests.
pub fn error_fixture() -> Vec<Error> {
    vec![
        Error::NoSuchBlob(7),
        Error::NoSuchVersion {
            blob: 1,
            version: 9,
        },
        Error::VersionNotRevealed {
            blob: 2,
            version: 3,
        },
        Error::OutOfBounds {
            requested_end: u64::MAX,
            snapshot_size: 100,
        },
        Error::MissingMetadata("blob#1/v2@(0,4)".into()),
        Error::MetadataConflict("blob#1/v2@(0,1)".into()),
        Error::MissingBlock(42),
        Error::NoProviderAvailable("replication 3 exceeds provider count 2".into()),
        Error::NotFound("/a/b".into()),
        Error::AlreadyExists("/a".into()),
        Error::NotADirectory("/f".into()),
        Error::DirectoryNotEmpty("/d".into()),
        Error::InvalidPath("../x".into()),
        Error::LeaseConflict("/locked".into()),
        Error::Unsupported("append"),
        Error::WriteAborted("zero-length writes are rejected".into()),
        Error::StreamClosed,
        Error::Timeout("reveal of blob#1 v4".into()),
        Error::Transport("connection reset by peer".into()),
        Error::Internal("double commit of blob#1 v1".into()),
        Error::Storage("volume frame crc mismatch at offset 4096".into()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_across_magnitudes() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut w = WireWriter::new();
        for &v in &values {
            w.put_u64(v);
        }
        let mut r = WireReader::new(w.as_slice());
        for &v in &values {
            assert_eq!(r.get_u64().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn slices_strings_and_bools_roundtrip() {
        let mut w = WireWriter::new();
        w.put_slice(b"hello");
        w.put_str("wörld");
        w.put_bool(true);
        w.put_bool(false);
        w.put_u32(u32::MAX);
        let mut r = WireReader::new(w.as_slice());
        assert_eq!(r.get_slice().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "wörld");
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_u32().unwrap(), u32::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn every_error_variant_roundtrips() {
        for e in error_fixture() {
            let mut w = WireWriter::new();
            w.put_error(&e);
            let mut r = WireReader::new(w.as_slice());
            assert_eq!(r.get_error().unwrap(), e);
            r.finish().unwrap();
        }
    }

    #[test]
    fn unsupported_decode_interns_and_bounds_memory() {
        // Repeats of the same message intern to one static allocation.
        let decode = |msg: &str| {
            let mut w = WireWriter::new();
            w.put_u8(14);
            w.put_str(msg);
            match WireReader::new(w.as_slice()).get_error().unwrap() {
                Error::Unsupported(s) => s,
                e => panic!("wrong variant: {e}"),
            }
        };
        let a = decode("append-intern-test");
        let b = decode("append-intern-test");
        assert!(std::ptr::eq(a, b), "repeat decodes must share the intern");
        // An implausibly long message collapses to a placeholder instead
        // of leaking attacker-controlled bytes.
        let long = "x".repeat(1000);
        assert!(decode(&long).contains("too long"));
    }

    #[test]
    fn malformed_input_fails_with_transport_errors() {
        // Truncated varint.
        let mut r = WireReader::new(&[0x80]);
        assert!(matches!(r.get_u64(), Err(Error::Transport(_))));
        // Varint overflowing u64 (11 continuation bytes).
        let mut r = WireReader::new(&[0xFF; 11]);
        assert!(matches!(r.get_u64(), Err(Error::Transport(_))));
        // Byte string longer than the buffer.
        let mut w = WireWriter::new();
        w.put_u64(100);
        let mut r = WireReader::new(w.as_slice());
        assert!(matches!(r.get_slice(), Err(Error::Transport(_))));
        // Unknown error tag.
        let mut r = WireReader::new(&[200]);
        assert!(matches!(r.get_error(), Err(Error::Transport(_))));
        // Invalid bool.
        let mut r = WireReader::new(&[7]);
        assert!(matches!(r.get_bool(), Err(Error::Transport(_))));
        // Trailing bytes.
        let r = WireReader::new(&[1, 2]);
        assert!(matches!(r.finish(), Err(Error::Transport(_))));
    }

    /// Takes at most `take` bytes per call; every other call is
    /// interrupted first.
    struct Grudging {
        take: usize,
        calls: usize,
        got: Vec<u8>,
    }

    impl Write for Grudging {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(ErrorKind::Interrupted.into());
            }
            let mut room = self.take;
            for buf in bufs {
                let n = room.min(buf.len());
                self.got.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.take - room)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn vectored_write_all_survives_short_writes_and_interrupts() {
        let parts: [&[u8]; 5] = [b"", b"header", b"", b"a longer payload part", b"tail"];
        let whole = parts.concat();
        for take in [1, 5, 7, usize::MAX] {
            let mut w = Grudging {
                take,
                calls: 0,
                got: Vec::new(),
            };
            let mut bufs = parts.map(IoSlice::new);
            write_all_vectored(&mut w, &mut bufs).unwrap();
            assert_eq!(w.got, whole, "{take} bytes per call");
            if take == usize::MAX {
                assert_eq!(w.calls, 1, "a willing writer sees one call");
            }
        }
        // Nothing to write: the writer is not called at all.
        let mut idle = Grudging {
            take: 0,
            calls: 0,
            got: Vec::new(),
        };
        write_all_vectored(&mut idle, &mut [IoSlice::new(b""), IoSlice::new(b"")]).unwrap();
        assert_eq!(idle.calls, 0);
        // A writer that takes nothing is an error, not a spin.
        let err = write_all_vectored(&mut idle, &mut [IoSlice::new(b"x")]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn u32_range_is_enforced() {
        let mut w = WireWriter::new();
        w.put_u64(u32::MAX as u64 + 1);
        let mut r = WireReader::new(w.as_slice());
        assert!(matches!(r.get_u32(), Err(Error::Transport(_))));
    }
}
