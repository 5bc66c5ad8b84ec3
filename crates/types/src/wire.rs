//! The one binary codec of the workspace: the [`Wire`] trait and the
//! primitives it is built from.
//!
//! Everything that leaves a process — an RPC frame body, a disk-log record,
//! a replica-log entry — is encoded by [`Wire::put`] and decoded by
//! [`Wire::get`]. The primitives are LEB128 varints, length-prefixed byte
//! strings and single bytes ([`WireWriter`], [`WireReader`]). This module
//! implements the trait once for each building block: the integers,
//! `bool`, `String`, `Duration`, [`Error`] (so service failures cross the
//! wire as themselves), the id newtypes, and the combinators — `Vec<T>` (a
//! count, then the items), `Option<T>` (a bool, then the value), `Result<T>`
//! (status byte 0 and the value, or 1 and the error) and tuples (the fields
//! in order). Domain types implement it where they are defined (Rust's
//! orphan rule): the metadata types in `blobseer_core::meta::codec`, the
//! command and record types in the control and disk crates. So an id, a
//! list or an argument tuple has one encoding, wherever it travels. The
//! golden fixture `tests/fixtures/golden_bytes.txt` pins those bytes.
//!
//! Malformed input never panics: every decode returns
//! [`Error::Transport`]. Layers that decode *persisted* bytes map that to
//! [`Error::Storage`] at their boundary.

use crate::error::{Error, Result};
use std::io::{ErrorKind, IoSlice, Write};
use std::time::Duration;

/// Writes every byte of `bufs`, in order: `write_all` for a list of
/// buffers. A writer that takes all it is offered sees one
/// `write_vectored` call (one syscall on a socket or a file); one that
/// takes less is offered the rest again, [`ErrorKind::Interrupted`] is
/// retried, and a writer that takes nothing fails with
/// [`ErrorKind::WriteZero`]. An error comes with the number of leading
/// bytes the writer did take: a caller that wrote several records in one
/// call can tell which of them left whole. `bufs` is consumed: its slices
/// are advanced in place.
///
/// Both frame formats — the RPC wire's and the disk logs' — put a small
/// header in front of a payload they do not own; this is how the two leave
/// together without being copied into one buffer first.
pub fn write_all_vectored(
    w: &mut impl Write,
    mut bufs: &mut [IoSlice<'_>],
) -> std::result::Result<(), (usize, std::io::Error)> {
    // Drops leading empty slices, so an all-empty list writes nothing.
    IoSlice::advance_slices(&mut bufs, 0);
    let mut written = 0;
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err((written, ErrorKind::WriteZero.into())),
            Ok(n) => {
                written += n;
                IoSlice::advance_slices(&mut bufs, n);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err((written, e)),
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

    /// Appends a length-prefixed byte string.
    pub fn put_slice(&mut self, s: &[u8]) {
        self.put_u64(s.len() as u64);
        self.buf.extend_from_slice(s);
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

/// A value with one binary encoding, shared by the RPC wire and the
/// durable logs (see the module docs).
///
/// `get` reads exactly what `put` wrote, and fails with
/// [`Error::Transport`] on anything else. It never panics. It is bounded
/// by `Self: Sized`, so slices can implement the encoding half alone: a
/// borrowed `&[T]` encodes like the `Vec<T>` it decodes into.
pub trait Wire {
    /// Appends the encoding of `self`.
    fn put(&self, w: &mut WireWriter);

    /// Decodes one value from `r`.
    fn get(r: &mut WireReader<'_>) -> Result<Self>
    where
        Self: Sized;

    /// `self`, encoded on its own.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.put(&mut w);
        w.into_vec()
    }

    /// Decodes one value that must span all of `bytes`.
    fn from_bytes(bytes: &[u8]) -> Result<Self>
    where
        Self: Sized,
    {
        let mut r = WireReader::new(bytes);
        let value = Self::get(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

impl Wire for u8 {
    fn put(&self, w: &mut WireWriter) {
        w.put_u8(*self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_u8()
    }
}

/// One byte, 0 or 1; any other byte is rejected.
impl Wire for bool {
    fn put(&self, w: &mut WireWriter) {
        w.put_u8(*self as u8);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Error::Transport(format!("wire: invalid bool byte {b}"))),
        }
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_u64()
    }
}

/// A varint; decoding rejects values past the type's range.
impl Wire for u32 {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(*self as u64);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let v = r.get_u64()?;
        u32::try_from(v).map_err(|_| Error::Transport(format!("wire: {v} overflows u32")))
    }
}

/// A varint; decoding rejects values past the type's range.
impl Wire for usize {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(*self as u64);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let v = r.get_u64()?;
        usize::try_from(v).map_err(|_| Error::Transport(format!("wire: {v} overflows usize")))
    }
}

/// A length-prefixed byte string holding UTF-8.
impl Wire for str {
    fn put(&self, w: &mut WireWriter) {
        w.put_slice(self.as_bytes());
    }
}

impl Wire for String {
    fn put(&self, w: &mut WireWriter) {
        self.as_str().put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        String::from_utf8(r.get_slice()?.to_vec())
            .map_err(|_| Error::Transport("wire: invalid UTF-8 string".into()))
    }
}

/// Whole nanoseconds, saturating at ~585 years.
impl Wire for Duration {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(u64::try_from(self.as_nanos()).unwrap_or(u64::MAX));
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(Duration::from_nanos(r.get_u64()?))
    }
}

macro_rules! wire_ids {
    ($($id:ident),*) => {$(
        /// The raw id, as a varint.
        impl Wire for crate::ids::$id {
            fn put(&self, w: &mut WireWriter) {
                w.put_u64(self.raw());
            }
            fn get(r: &mut WireReader<'_>) -> Result<Self> {
                Ok(Self::new(r.get_u64()?))
            }
        }
    )*};
}

wire_ids!(BlobId, BlockId, NodeId, Version);

/// A count, then the items.
impl<T: Wire> Wire for [T] {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(self.len() as u64);
        for item in self {
            item.put(w);
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut WireWriter) {
        self.as_slice().put(w);
    }
    /// Every item this workspace lists takes at least one byte, so a count
    /// larger than the input left is truncated input — refused before
    /// anything is allocated for it.
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.get_u64()?;
        if n > r.remaining() as u64 {
            return Err(truncated("list"));
        }
        let mut out = Vec::with_capacity((n as usize).min(4096));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// A bool, then the value if it is `true`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut WireWriter) {
        self.is_some().put(w);
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok(match bool::get(r)? {
            true => Some(T::get(r)?),
            false => None,
        })
    }
}

/// Status byte 0 then the value, or 1 then the [`Error`]: one outcome of a
/// batch, and the shape of every RPC response body.
impl<T: Wire> Wire for Result<T> {
    fn put(&self, w: &mut WireWriter) {
        match self {
            Ok(v) => {
                w.put_u8(0);
                v.put(w);
            }
            Err(e) => {
                w.put_u8(1);
                e.put(w);
            }
        }
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(Ok(T::get(r)?)),
            1 => Ok(Err(Error::get(r)?)),
            s => Err(Error::Transport(format!("wire: unknown status byte {s}"))),
        }
    }
}

/// Nothing: the arguments of a call that takes none, the answer of one
/// that returns none.
impl Wire for () {
    fn put(&self, _: &mut WireWriter) {}
    fn get(_: &mut WireReader<'_>) -> Result<Self> {
        Ok(())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// A tag byte, then the variant's fields; decoding reconstructs the exact
/// variant.
impl Wire for Error {
    fn put(&self, w: &mut WireWriter) {
        let text = |w: &mut WireWriter, tag: u8, s: &str| {
            w.put_u8(tag);
            s.put(w);
        };
        match self {
            Error::NoSuchBlob(b) => (0u8, *b).put(w),
            Error::NoSuchVersion { blob, version } => (1u8, *blob, *version).put(w),
            Error::VersionNotRevealed { blob, version } => (2u8, *blob, *version).put(w),
            Error::OutOfBounds {
                requested_end,
                snapshot_size,
            } => (3u8, *requested_end, *snapshot_size).put(w),
            Error::MissingMetadata(s) => text(w, 4, s),
            Error::MetadataConflict(s) => text(w, 5, s),
            Error::MissingBlock(b) => (6u8, *b).put(w),
            Error::NoProviderAvailable(s) => text(w, 7, s),
            Error::NotFound(s) => text(w, 8, s),
            Error::AlreadyExists(s) => text(w, 9, s),
            Error::NotADirectory(s) => text(w, 10, s),
            Error::DirectoryNotEmpty(s) => text(w, 11, s),
            Error::InvalidPath(s) => text(w, 12, s),
            Error::LeaseConflict(s) => text(w, 13, s),
            Error::Unsupported(s) => text(w, 14, s),
            Error::WriteAborted(s) => text(w, 15, s),
            Error::StreamClosed => w.put_u8(16),
            Error::Timeout(s) => text(w, 17, s),
            Error::Transport(s) => text(w, 18, s),
            Error::Internal(s) => text(w, 19, s),
            Error::Storage(s) => text(w, 20, s),
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self> {
        let text = String::get;
        Ok(match r.get_u8()? {
            0 => Error::NoSuchBlob(r.get_u64()?),
            1 => Error::NoSuchVersion {
                blob: r.get_u64()?,
                version: r.get_u64()?,
            },
            2 => Error::VersionNotRevealed {
                blob: r.get_u64()?,
                version: r.get_u64()?,
            },
            3 => Error::OutOfBounds {
                requested_end: r.get_u64()?,
                snapshot_size: r.get_u64()?,
            },
            4 => Error::MissingMetadata(text(r)?),
            5 => Error::MetadataConflict(text(r)?),
            6 => Error::MissingBlock(r.get_u64()?),
            7 => Error::NoProviderAvailable(text(r)?),
            8 => Error::NotFound(text(r)?),
            9 => Error::AlreadyExists(text(r)?),
            10 => Error::NotADirectory(text(r)?),
            11 => Error::DirectoryNotEmpty(text(r)?),
            12 => Error::InvalidPath(text(r)?),
            13 => Error::LeaseConflict(text(r)?),
            14 => Error::Unsupported(intern_unsupported(text(r)?)),
            15 => Error::WriteAborted(text(r)?),
            16 => Error::StreamClosed,
            17 => Error::Timeout(text(r)?),
            18 => Error::Transport(text(r)?),
            19 => Error::Internal(text(r)?),
            20 => Error::Storage(text(r)?),
            t => return Err(Error::Transport(format!("wire: unknown error tag {t}"))),
        })
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
        "wörld".put(&mut w);
        (true, false, u32::MAX).put(&mut w);
        let mut r = WireReader::new(w.as_slice());
        assert_eq!(r.get_slice().unwrap(), b"hello");
        assert_eq!(String::get(&mut r).unwrap(), "wörld");
        assert_eq!(
            <(bool, bool, u32)>::get(&mut r).unwrap(),
            (true, false, u32::MAX)
        );
        r.finish().unwrap();
    }

    #[test]
    fn a_list_count_past_the_input_is_refused() {
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        w.put_u64(7);
        let got = Vec::<u64>::from_bytes(w.as_slice());
        assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");
        let got = <Option<u64>>::from_bytes(&[2]);
        assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");
        let got = <Result<u64>>::from_bytes(&[2, 0]);
        assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");
    }

    #[test]
    fn every_error_variant_roundtrips() {
        for e in error_fixture() {
            assert_eq!(Error::from_bytes(&e.to_bytes()), Ok(e));
        }
    }

    #[test]
    fn unsupported_decode_interns_and_bounds_memory() {
        // Repeats of the same message intern to one static allocation.
        let decode = |msg: &str| {
            let mut w = WireWriter::new();
            w.put_u8(14);
            msg.put(&mut w);
            match Error::from_bytes(w.as_slice()).unwrap() {
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
        assert!(matches!(
            Error::from_bytes(&[200]),
            Err(Error::Transport(_))
        ));
        // Invalid bool.
        assert!(matches!(bool::from_bytes(&[7]), Err(Error::Transport(_))));
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
        let (written, err) = write_all_vectored(&mut idle, &mut [IoSlice::new(b"x")]).unwrap_err();
        assert_eq!((written, err.kind()), (0, ErrorKind::WriteZero));
    }

    /// Takes what it is offered until `left` bytes are gone, then fails.
    struct Failing {
        left: usize,
    }

    impl Write for Failing {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match buf.len().min(self.left) {
                0 => Err(ErrorKind::BrokenPipe.into()),
                n => {
                    self.left -= n;
                    Ok(n)
                }
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failed_vectored_write_reports_the_bytes_taken_before_it() {
        for left in [0, 3, 6, 11] {
            let mut bufs = [b"header".as_slice(), b"payload"].map(IoSlice::new);
            let (written, err) = write_all_vectored(&mut Failing { left }, &mut bufs).unwrap_err();
            assert_eq!((written, err.kind()), (left, ErrorKind::BrokenPipe));
        }
    }

    #[test]
    fn u32_range_is_enforced() {
        let mut w = WireWriter::new();
        w.put_u64(u32::MAX as u64 + 1);
        assert!(matches!(
            u32::from_bytes(w.as_slice()),
            Err(Error::Transport(_))
        ));
    }
}
