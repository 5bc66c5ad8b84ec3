//! Framing, the response envelope and batch statuses: what the RPC layer
//! adds around bodies encoded with [`Wire`].
//!
//! Messages are length-prefixed, request-correlated binary frames:
//!
//! ```text
//! varint length | varint request id | body (length − id bytes)
//! ```
//!
//! The length covers the request id and the body, so a peer can skip a
//! whole frame knowing only the prefix. **One run of frames is one
//! write**: the varints are built as small headers and leave together with
//! the bodies in a single vectored write ([`write_frames`]; [`write_frame`]
//! is its one-frame case) — on a `TCP_NODELAY` socket every separate write
//! is a syscall and, for small frames, a packet of its own. A client
//! publishing a version's tree levels sends them as one run, and a server
//! answers the requests it found together in its read buffer as one run.
//! The reading side reads through a buffer (the connection loops wrap
//! their sockets in a `BufReader`), so the varints cost no syscall each,
//! while a large body still lands directly in its destination vector; what
//! the buffer already holds tells a reader whether its next frame can be
//! read without waiting for the network ([`complete_frame_buffered`]).
//!
//! The request id is chosen by the client and echoed verbatim on the
//! response frame; it is what lets many in-flight requests share one TCP
//! connection — the server may answer out of order (a parked
//! `wait_revealed` no longer blocks the answers behind it) and whichever
//! client caller reads the connection files each response for the waiter
//! that sent the matching id.
//!
//! A request body is a method tag, then the method's argument tuple; a
//! response body is the envelope ([`response_writer`], [`decode_response`])
//! around the answer. Both are encoded with [`Wire`]
//! (`blobseer_types::wire`; the domain types' impls live in
//! `blobseer_core::meta::codec`) into a [`Body`]. Only the two
//! block-payload paths write their bodies by hand: a `PUT_MANY` request
//! and a `GET_MANY` response, whose items may be
//! [`batch_status::DEFERRED`]. Their block payloads ride the frame **by
//! reference** ([`Body::put_bytes`]): the encoded bytes around them are
//! built in one buffer, each payload stays in its own [`Bytes`], and
//! [`write_frames`] hands it to the socket as an iovec of its own. On the
//! wire that is byte for byte the contiguous encoding; in memory, no
//! payload byte is copied into a frame buffer on either side.
//!
//! Every decode validates its input and fails with
//! [`blobseer_types::Error::Transport`]; a malformed frame can never
//! panic a server or client thread.

use blobseer_core::version_manager::WriteTicket;
use blobseer_types::wire::{write_all_vectored, Wire, WireReader, WireWriter};
use blobseer_types::{Error, Result};
use bytes::Bytes;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::ops::{Deref, DerefMut};

/// Upper bound on an accepted frame body (64 MB block + headroom). A
/// corrupt length prefix must not make a peer attempt a huge allocation.
pub const MAX_FRAME_LEN: u64 = 80 * 1024 * 1024;

/// Soft payload budget for one vectored (`*_many`) frame, comfortably
/// under [`MAX_FRAME_LEN`]. Clients chunk batched *puts* so each request
/// frame stays within it; servers answering batched *gets* stop encoding
/// payloads at it and mark the tail [`batch_status::DEFERRED`] for the
/// client to re-request — either way a batch of 64 MB blocks can never
/// assemble an over-cap frame.
pub const BATCH_BYTE_BUDGET: usize = 64 * 1024 * 1024;

/// Status bytes: the first byte of every response body (`OK`, `ERR`), and
/// of each item of a vectored (`*_many`) response. `OK` and `ERR` are the
/// status bytes of `Result<T>`'s [`Wire`] encoding; only a `GET_MANY`
/// response, written by hand, also uses `DEFERRED`.
pub mod batch_status {
    /// The item succeeded; its payload (if any) follows.
    pub const OK: u8 = 0;
    /// The item failed; its encoded [`blobseer_types::Error`] follows.
    pub const ERR: u8 = 1;
    /// The item was *not processed*: including its payload would have
    /// pushed the response frame past [`super::BATCH_BYTE_BUDGET`]. The
    /// client re-requests deferred items in a follow-up frame.
    pub const DEFERRED: u8 = 2;
}

/// Maps an I/O failure into [`Error::Transport`] with context.
pub(crate) fn transport(context: &str, e: std::io::Error) -> Error {
    Error::Transport(format!("{context}: {e}"))
}

/// A frame body under construction: [`Wire`] encodings go into its
/// writer (it derefs to a [`WireWriter`]), and block payloads are
/// *spliced* in by reference with [`Self::put_bytes`]. The writer holds
/// every byte of the body but the spliced payloads, which stay in their
/// own [`Bytes`], each recorded at the offset into the writer where its
/// bytes belong. [`write_frames`] sends the writer's runs and the payloads
/// interleaved, in one vectored write; [`Self::to_vec`] gives the same
/// bytes in one buffer.
#[derive(Debug, Default)]
pub struct Body {
    head: WireWriter,
    /// `(offset into head, payload)`, offsets in order.
    spliced: Vec<(usize, Bytes)>,
    /// The spliced payloads' total length.
    spliced_len: usize,
}

impl Body {
    /// Appends `data` as a length-prefixed byte string — the bytes
    /// [`WireWriter::put_slice`] writes — without copying it: the length
    /// varint goes into the writer, the payload is kept by reference.
    pub fn put_bytes(&mut self, data: &Bytes) {
        self.head.put_u64(data.len() as u64);
        self.spliced
            .push((self.head.as_slice().len(), data.clone()));
        self.spliced_len += data.len();
    }

    /// The body's bytes in one buffer: what a peer reads as this frame's
    /// body.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut pieces = Vec::new();
        self.pieces(&mut pieces);
        let mut out = Vec::with_capacity(self.wire_len());
        pieces.iter().for_each(|piece| out.extend_from_slice(piece));
        out
    }
}

/// The writer the body's encoded (non-spliced) bytes go into. Its
/// `as_slice` shows those bytes only; the whole body is
/// [`Body::to_vec`].
impl Deref for Body {
    type Target = WireWriter;
    fn deref(&self) -> &WireWriter {
        &self.head
    }
}

impl DerefMut for Body {
    fn deref_mut(&mut self) -> &mut WireWriter {
        &mut self.head
    }
}

/// What [`write_frames`] sends as a frame body: a byte slice, or a
/// [`Body`] with its spliced payloads.
pub trait FrameBody {
    /// The body's length on the wire.
    fn wire_len(&self) -> usize;
    /// Appends the body's bytes to `out`, in order, as slices of the
    /// buffers they lie in.
    fn pieces<'a>(&'a self, out: &mut Vec<IoSlice<'a>>);
}

impl<T: AsRef<[u8]> + ?Sized> FrameBody for T {
    fn wire_len(&self) -> usize {
        self.as_ref().len()
    }
    fn pieces<'a>(&'a self, out: &mut Vec<IoSlice<'a>>) {
        out.push(IoSlice::new(self.as_ref()));
    }
}

impl FrameBody for Body {
    fn wire_len(&self) -> usize {
        self.head.as_slice().len() + self.spliced_len
    }
    fn pieces<'a>(&'a self, out: &mut Vec<IoSlice<'a>>) {
        let head = self.head.as_slice();
        let mut at = 0;
        for (offset, data) in &self.spliced {
            out.push(IoSlice::new(&head[at..*offset]));
            out.push(IoSlice::new(data));
            at = *offset;
        }
        out.push(IoSlice::new(&head[at..]));
    }
}

/// Writes one length-prefixed frame tagged with `req_id`: the one-frame
/// case of [`write_frames`]. The id varint is part of the prefixed length,
/// and a response frame must echo the id of the request it answers.
pub fn write_frame(stream: &mut impl Write, req_id: u64, body: &[u8]) -> Result<()> {
    write_frames(stream, &[(req_id, body)]).map_err(|(_, e)| e)
}

/// Writes a run of length-prefixed frames, `(request id, body)` each, in
/// order: every header and every piece of every body in one vectored
/// write, then one flush. Only a writer that takes less than it was
/// offered sees a second call (as does a run of more pieces than one
/// `writev` takes, `IOV_MAX`). The bytes are exactly those of one
/// [`write_frame`] per frame, of each body's contiguous bytes.
///
/// On failure, the error comes with the number of leading frames the
/// writer took whole; the rest never left complete, so no peer can have
/// read them. A failed flush counts every frame as taken: its bytes may
/// have left.
pub fn write_frames<B: FrameBody + ?Sized>(
    stream: &mut impl Write,
    frames: &[(u64, &B)],
) -> std::result::Result<(), (usize, Error)> {
    // Every header in one buffer; frame i's header ends at `header_ends[i]`
    // in it, and the frame itself `ends[i]` bytes into the run.
    let mut headers = WireWriter::new();
    let mut header_ends = Vec::with_capacity(frames.len());
    let mut ends = Vec::with_capacity(frames.len());
    let mut run = 0;
    for (req_id, body) in frames {
        // A varint carries 7 bits per byte.
        let id_len = (64 - (req_id | 1).leading_zeros() as usize).div_ceil(7);
        let start = headers.as_slice().len();
        headers.put_u64((id_len + body.wire_len()) as u64);
        headers.put_u64(*req_id);
        header_ends.push(headers.as_slice().len());
        run += headers.as_slice().len() - start + body.wire_len();
        ends.push(run);
    }
    let mut parts = Vec::with_capacity(2 * frames.len());
    let mut start = 0;
    for ((_, body), &end) in frames.iter().zip(&header_ends) {
        parts.push(IoSlice::new(&headers.as_slice()[start..end]));
        body.pieces(&mut parts);
        start = end;
    }
    if let Err((written, e)) = write_all_vectored(stream, &mut parts) {
        let whole = ends.iter().take_while(|&&end| end <= written).count();
        return Err((whole, transport("write frames", e)));
    }
    stream
        .flush()
        .map_err(|e| (frames.len(), transport("flush frames", e)))
}

/// Whether `buf` — what a reader holds unread — starts with a whole frame:
/// its length prefix and every byte the prefix counts. A buffered reader
/// can read such a frame without waiting for the network. Says `false` on
/// a length prefix that is cut short or does not decode.
pub fn complete_frame_buffered(buf: &[u8]) -> bool {
    let mut r = WireReader::new(buf);
    r.get_u64().is_ok_and(|len| len <= r.remaining() as u64)
}

/// Reads one varint of a frame header byte by byte (through the caller's
/// buffer), consuming at most `limit` bytes. `Ok(None)` is EOF before the
/// first byte. Returns the value and the bytes consumed.
fn read_header_varint(
    stream: &mut impl Read,
    what: &str,
    limit: u64,
) -> Result<Option<(u64, u64)>> {
    let mut value = 0u64;
    let mut shift = 0u32;
    let mut used = 0u64;
    loop {
        if used == limit {
            return Err(Error::Transport(format!("frame too short for {what}")));
        }
        let mut byte = [0u8; 1];
        match stream.read(&mut byte) {
            Ok(0) if used == 0 => return Ok(None),
            Ok(0) => return Err(Error::Transport(format!("eof inside {what}"))),
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(transport(&format!("read {what}"), e)),
        }
        used += 1;
        if shift == 63 && byte[0] > 1 {
            return Err(Error::Transport(format!("{what} overflows u64")));
        }
        value |= ((byte[0] & 0x7F) as u64) << shift;
        if byte[0] & 0x80 == 0 {
            return Ok(Some((value, used)));
        }
        shift += 7;
    }
}

/// Reads one length-prefixed frame, returning its request id and body.
/// Returns `Ok(None)` on clean EOF at a frame boundary (the peer closed
/// the connection between requests).
///
/// The two header varints are read a byte at a time, so hand this a
/// buffered reader; the body is read straight into the returned vector,
/// with no zero-fill first where the reader takes uninitialized memory.
pub fn read_frame(stream: &mut impl Read) -> Result<Option<(u64, Vec<u8>)>> {
    let Some((len, _)) = read_header_varint(stream, "frame length", 10)? else {
        return Ok(None); // clean EOF
    };
    if len > MAX_FRAME_LEN {
        return Err(Error::Transport(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let Some((req_id, id_len)) = read_header_varint(stream, "request id", len)? else {
        return Err(Error::Transport("eof before request id".into()));
    };
    let n = len - id_len;
    let mut body = Vec::with_capacity(n as usize);
    let got = stream
        .take(n)
        .read_to_end(&mut body)
        .map_err(|e| transport("read frame body", e))?;
    if got as u64 != n {
        return Err(Error::Transport(format!(
            "eof after {got} of a {n}-byte frame body"
        )));
    }
    Ok(Some((req_id, body)))
}

/// Encodes a write ticket: [`WriteTicket`]'s [`Wire`] encoding, under the
/// name the benchmark's ticket-size probe calls.
pub fn put_write_ticket(w: &mut WireWriter, t: &WriteTicket) {
    t.put(w);
}

// --- response envelope ------------------------------------------------------

/// The body a handler encodes its answer into: it already holds the
/// success status byte, so what the handler appends *is* the response
/// body and wrapping it in the envelope copies nothing — a batched get's
/// payloads are spliced straight behind the status byte.
pub fn response_writer() -> Body {
    let mut w = Body::default();
    w.put_u8(batch_status::OK);
    w
}

/// Wraps a handler outcome into a response body: the handler's own body
/// (started by [`response_writer`], status byte `0` in front of the
/// payload), or status byte `1` followed by the encoded [`Error`] — the
/// bytes of `Result<T>`'s [`Wire`] encoding either way.
pub(crate) fn response(result: Result<Body>) -> Body {
    result.unwrap_or_else(|e| {
        let mut w = Body::default();
        Err::<(), _>(e).put(&mut w);
        w
    })
}

/// The response body for a handler outcome (the server's own encoder,
/// `Body` in, `Body` out), in one buffer: what a peer reads as the
/// response frame's body.
pub fn encode_response(result: Result<Body>) -> Vec<u8> {
    response(result).to_vec()
}

/// Opens a response body and decodes its payload with `payload`, which
/// must consume all of it: trailing bytes are a framing bug on the peer.
/// An encoded service [`Error`] surfaces as itself — failures cross the
/// wire as their real variants, never degraded into transport errors.
pub fn decode_response<T>(
    body: &[u8],
    payload: impl FnOnce(&mut WireReader<'_>) -> Result<T>,
) -> Result<T> {
    let mut r = WireReader::new(body);
    let answer = match r.get_u8()? {
        batch_status::OK => Ok(payload(&mut r)?),
        batch_status::ERR => Err(Error::get(&mut r)?),
        s => {
            return Err(Error::Transport(format!(
                "wire: unknown response status {s}"
            )))
        }
    };
    r.finish()?;
    answer
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_core::meta::key::{BlockRange, Pos};
    use blobseer_core::meta::log::{LogChain, LogEntry, LogSegment, WriteLog};
    use blobseer_core::meta::node::{BlockDescriptor, NodeRef, TreeNode};
    use blobseer_core::{
        BlockAllocation, EngineStats, GcReport, SnapshotInfo, VersionManager, WriteIntent,
    };
    use blobseer_types::{BlobId, BlockId, Version};
    use parking_lot::RwLock;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").unwrap();
        write_frame(&mut buf, u64::MAX, &[]).unwrap();
        let mut cursor = &buf[..];
        let (id, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((id, body.as_slice()), (7, &b"hello"[..]));
        let (id, body) = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!((id, body), (u64::MAX, Vec::new()));
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    /// A writer that takes at most `take` bytes per call and counts calls.
    struct Throttled {
        take: usize,
        calls: usize,
        got: Vec<u8>,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
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
    fn a_frame_is_one_write_on_a_writer_that_takes_everything() {
        for len in [0usize, 5, 4 << 20] {
            let body: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut expect = Vec::new();
            write_frame(&mut expect, 300, &body).unwrap();
            for take in [usize::MAX, 7, 1] {
                if take < 7 && len > 100 {
                    continue; // bytes-per-call variants only on small bodies
                }
                let mut w = Throttled {
                    take,
                    calls: 0,
                    got: Vec::new(),
                };
                write_frame(&mut w, 300, &body).unwrap();
                assert_eq!(w.got, expect, "{len}-byte body, {take} per call");
                if take == usize::MAX {
                    assert_eq!(w.calls, 1, "{len}-byte body");
                }
            }
            let (id, back) = read_frame(&mut &expect[..]).unwrap().unwrap();
            assert_eq!((id, back), (300, body));
        }
        let mut dead = Throttled {
            take: 0,
            calls: 0,
            got: Vec::new(),
        };
        let err = write_frame(&mut dead, 1, b"x").unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
    }

    /// A run of frames with ids spanning one to three varint bytes and
    /// bodies of assorted sizes: the first empty, each other a tag byte and
    /// spliced payloads of the given lengths (an empty one too). Beside
    /// each body, its bytes encoded contiguously with `put_slice`.
    fn run() -> Vec<(u64, Body, Vec<u8>)> {
        let lens: [(u64, &[usize]); 5] = [
            (0, &[]),
            (5, &[3]),
            (300, &[200, 0, 7]),
            (70_000, &[1]),
            (6, &[20_000, 130]),
        ];
        lens.into_iter()
            .map(|(id, lens)| {
                let mut body = Body::default();
                let mut flat = WireWriter::new();
                if id != 0 {
                    body.put_u8(id as u8);
                    flat.put_u8(id as u8);
                }
                for (k, &len) in lens.iter().enumerate() {
                    let data: Vec<u8> = (0..len).map(|i| (i + k + id as usize) as u8).collect();
                    body.put_bytes(&Bytes::from(data.clone()));
                    flat.put_slice(&data);
                }
                (id, body, flat.into_vec())
            })
            .collect()
    }

    /// The frames of a [`run`], by reference, for [`write_frames`].
    fn frames(run: &[(u64, Body, Vec<u8>)]) -> Vec<(u64, &Body)> {
        run.iter().map(|(id, body, _)| (*id, body)).collect()
    }

    #[test]
    fn a_run_of_frames_is_one_write_and_the_bytes_of_one_frame_each() {
        let run = run();
        let mut expect = Vec::new();
        for (id, body, flat) in &run {
            assert_eq!(&body.to_vec(), flat, "frame {id}");
            write_frame(&mut expect, *id, flat).unwrap();
        }
        for take in [usize::MAX, 1] {
            let mut w = Throttled {
                take,
                calls: 0,
                got: Vec::new(),
            };
            write_frames(&mut w, &frames(&run)).unwrap();
            assert_eq!(w.got, expect, "{take} bytes per call");
            if take == usize::MAX {
                assert_eq!(w.calls, 1, "one call for {} frames", run.len());
            }
        }
        let mut reader = &expect[..];
        for (id, _, flat) in &run {
            assert_eq!(
                read_frame(&mut reader).unwrap().as_ref(),
                Some(&(*id, flat.clone()))
            );
        }
    }

    /// A writer that takes everything and records, per call, where each
    /// slice it was offered lies.
    #[derive(Default)]
    struct Recording {
        calls: Vec<Vec<(*const u8, usize)>>,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls
                .push(bufs.iter().map(|b| (b.as_ptr(), b.len())).collect());
            Ok(bufs.iter().map(|b| b.len()).sum())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn spliced_payloads_leave_from_their_own_buffers() {
        let payloads: Vec<Bytes> = (0..3u8)
            .map(|k| Bytes::from(vec![k; 4096 + k as usize]))
            .collect();
        let mut body = Body::default();
        body.put_u8(8);
        for data in &payloads {
            body.put_u64(7);
            body.put_bytes(data);
        }
        let mut w = Recording::default();
        write_frames(&mut w, &[(1, &body), (2, &body)]).unwrap();
        let [call] = &w.calls[..] else {
            panic!("{} calls", w.calls.len());
        };
        for data in &payloads {
            let own = (data.as_ptr(), data.len());
            let offered = call.iter().filter(|&&slice| slice == own).count();
            assert_eq!(offered, 2, "each frame offers the block's own bytes");
        }
        // The rest of the write is headers and item prefixes: a few bytes
        // per item, never a copy of a payload.
        let own: Vec<_> = payloads.iter().map(|d| (d.as_ptr(), d.len())).collect();
        let rest: usize = (call.iter())
            .filter(|slice| !own.contains(slice))
            .map(|&(_, len)| len)
            .sum();
        assert!(rest < 64, "{rest} bytes besides the payloads");
        assert_eq!(body.to_vec().len(), body.wire_len());
    }

    /// A writer that takes what it is offered until `left` bytes are gone,
    /// then fails.
    struct FailAfter {
        left: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match buf.len().min(self.left) {
                0 => Err(ErrorKind::ConnectionReset.into()),
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
    fn a_failed_run_reports_the_frames_taken_whole() {
        let run = run();
        let frames = frames(&run);
        let mut ends = Vec::new();
        let mut wire = Vec::new();
        for (id, _, flat) in &run {
            write_frame(&mut wire, *id, flat).unwrap();
            ends.push(wire.len());
        }
        for k in 0..wire.len() {
            let (whole, err) = write_frames(&mut FailAfter { left: k }, &frames).unwrap_err();
            assert!(matches!(err, Error::Transport(_)), "{err}");
            assert_eq!(whole, ends.iter().filter(|&&end| end <= k).count(), "{k}");
        }
        write_frames(&mut FailAfter { left: wire.len() }, &frames).unwrap();
    }

    #[test]
    fn a_complete_frame_is_told_from_every_partial_one() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 300, &[7u8; 200]).unwrap();
        // The length (201 + 2 id bytes) is a two-byte varint: split at 1.
        assert!(!complete_frame_buffered(&[]), "empty");
        assert!(!complete_frame_buffered(&wire[..1]), "split length varint");
        for cut in [2, 3, 4, wire.len() - 1] {
            assert!(!complete_frame_buffered(&wire[..cut]), "partial at {cut}");
        }
        assert!(complete_frame_buffered(&wire), "exact frame");
        let mut more = wire.clone();
        more.extend_from_slice(&wire[..3]);
        assert!(
            complete_frame_buffered(&more),
            "a frame and part of the next"
        );
        assert!(!complete_frame_buffered(&[0xFF; 11]), "no varint decodes");
    }

    /// A reader that counts the calls reaching it.
    struct Counted<'a> {
        calls: usize,
        rest: &'a [u8],
    }

    impl Read for Counted<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.calls += 1;
            self.rest.read(buf)
        }
    }

    #[test]
    fn buffered_reads_cost_at_most_two_calls_per_small_frame() {
        let mut wire = Vec::new();
        for id in 0..10u64 {
            write_frame(&mut wire, id, &[id as u8; 40]).unwrap();
        }
        let mut reader = std::io::BufReader::new(Counted {
            calls: 0,
            rest: &wire,
        });
        for id in 0..10u64 {
            let (got, body) = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!((got, body), (id, vec![id as u8; 40]));
            assert!(reader.get_ref().calls <= 2 * (id as usize + 1));
        }
        assert!(read_frame(&mut reader).unwrap().is_none(), "clean EOF");
        // A body larger than the buffer is read into its own vector, not
        // through the buffer: a few calls, not one per buffer-full (128).
        // `read_to_end` offers a reader that initializes what it is handed,
        // like this one, chunks doubling from 8 KiB — the header fill plus
        // 8 KiB … 512 KiB plus the tail; a socket writes uninitialized
        // memory and is offered the whole rest after its first short read.
        let mut wire = Vec::new();
        write_frame(&mut wire, 9, &vec![7u8; 1 << 20]).unwrap();
        let mut reader = std::io::BufReader::new(Counted {
            calls: 0,
            rest: &wire,
        });
        let (_, body) = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(body, vec![7u8; 1 << 20]);
        assert!(reader.get_ref().calls <= 10, "{}", reader.get_ref().calls);
    }

    #[test]
    fn a_body_is_read_to_exactly_its_length() {
        for len in [0usize, 1, 8191, 8192, 8193, 300_000] {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, 5, &body).unwrap();
            write_frame(&mut wire, 6, b"next").unwrap();
            let mut reader = std::io::BufReader::new(&wire[..]);
            let (id, got) = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!((id, &got), (5, &body), "{len}-byte body");
            assert_eq!(got.capacity(), len, "sized once, never grown");
            // Not a byte of the next frame was taken.
            let (id, got) = read_frame(&mut reader).unwrap().unwrap();
            assert_eq!((id, &got[..]), (6, &b"next"[..]));
        }
    }

    #[test]
    fn a_truncated_body_is_a_transport_error() {
        for len in [1usize, 100, 20_000] {
            let mut wire = Vec::new();
            write_frame(&mut wire, 3, &vec![1u8; len]).unwrap();
            for cut in [2, wire.len() / 2, wire.len() - 1] {
                let mut reader = std::io::BufReader::new(&wire[..cut]);
                let err = read_frame(&mut reader).unwrap_err();
                assert!(
                    matches!(err, Error::Transport(_)),
                    "{len} cut at {cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn truncated_request_id_is_a_transport_error() {
        // A frame whose length prefix says 1 byte, but that byte has its
        // continuation bit set: the id varint runs off the end.
        let buf = [1u8, 0x80];
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
        // Length 0 cannot even hold an id.
        let buf = [0u8];
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut prefix = WireWriter::new();
        prefix.put_u64(MAX_FRAME_LEN + 1);
        let buf = prefix.into_vec();
        let err = read_frame(&mut &buf[..]).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
        // Rejected on the prefix alone: a body behind it is never read.
        let mut wire = buf.clone();
        wire.extend_from_slice(&[0u8; 64]);
        let mut reader = &wire[..];
        let err = read_frame(&mut reader).unwrap_err();
        assert!(matches!(err, Error::Transport(_)), "{err}");
        assert_eq!(reader.len(), 64, "nothing past the prefix consumed");
    }

    #[test]
    fn tree_nodes_roundtrip() {
        let nodes = [
            TreeNode::Inner {
                left: Some(NodeRef {
                    blob: BlobId::new(1),
                    version: Version::new(2),
                }),
                right: None,
            },
            TreeNode::Leaf(BlockDescriptor {
                block_id: BlockId::new(u64::MAX),
                providers: vec![0, 7, 300],
                len: u32::MAX,
            }),
            TreeNode::LeafAlias(None),
            TreeNode::LeafAlias(Some(NodeRef {
                blob: BlobId::new(9),
                version: Version::new(1),
            })),
        ];
        for node in &nodes {
            assert_eq!(&TreeNode::from_bytes(&node.to_bytes()).unwrap(), node);
        }
    }

    #[test]
    fn invalid_pos_is_a_transport_error() {
        // len 3 is not a power of two; start 2 is not aligned to len 4.
        for (start, len) in [(0u64, 3u64), (2, 4), (0, 0)] {
            let got = Pos::from_bytes(&(start, len).to_bytes());
            assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");
        }
    }

    fn roundtrip(ticket: &WriteTicket) -> (WriteTicket, usize) {
        let bytes = ticket.to_bytes();
        (WriteTicket::from_bytes(&bytes).unwrap(), bytes.len())
    }

    fn entry(v: u64, blocks: (u64, u64), cap_before: u64, cap_after: u64) -> LogEntry {
        LogEntry {
            version: Version::new(v),
            blocks: BlockRange::new(blocks.0, blocks.1),
            cap_before,
            cap_after,
            size_after: cap_after * 64,
        }
    }

    #[test]
    fn tickets_with_chains_roundtrip() {
        // Parent blob 1 wrote v1..v3; blob 2 branched at v2 — the parent's
        // v3 is beyond the branch point — and wrote v3' and v4' itself.
        let parent: WriteLog = [
            entry(1, (0, 8), 0, 8),
            entry(2, (2, 3), 8, 8),
            entry(3, (4, 8), 8, 8),
        ]
        .into_iter()
        .collect();
        let own: WriteLog = [entry(3, (0, 1), 8, 8), entry(4, (5, 6), 8, 8)]
            .into_iter()
            .collect();
        let chain = LogChain::new(vec![
            LogSegment {
                blob: BlobId::new(2),
                entries: Arc::new(RwLock::new(own)),
                vec_base: Version::new(2),
                lo: Version::new(2),
                hi: Version::new(u64::MAX),
            },
            LogSegment {
                blob: BlobId::new(1),
                entries: Arc::new(RwLock::new(parent)),
                vec_base: Version::ZERO,
                lo: Version::ZERO,
                hi: Version::new(2),
            },
        ]);
        let ticket = WriteTicket {
            blob: BlobId::new(2),
            version: Version::new(4),
            offset: 320,
            prev_size: 512,
            entry: chain.entry(Version::new(4)).unwrap(),
            chain,
        };
        let (back, _) = roundtrip(&ticket);
        assert_eq!(back.blob, ticket.blob);
        assert_eq!(back.version, ticket.version);
        assert_eq!(back.offset, ticket.offset);
        assert_eq!(back.prev_size, ticket.prev_size);
        assert_eq!(back.entry, ticket.entry);
        // The decoded chain answers the write's border exactly as the live
        // chain does, across both lineages.
        let border = ticket.chain.border(&ticket.entry).unwrap();
        assert_eq!(back.chain.border(&back.entry).unwrap(), border);
        let at = |blob: u64, v: u64| {
            Some(NodeRef {
                blob: BlobId::new(blob),
                version: Version::new(v),
            })
        };
        assert_eq!(
            border.answers(),
            [
                (Pos::new(0, 4), at(2, 3)), // own v3' wrote block 0
                (Pos::new(4, 1), at(1, 1)), // the parent's v3 is invisible
                (Pos::new(6, 2), at(1, 1)),
            ]
        );
        for (pos, answer) in border.answers() {
            assert_eq!(
                back.chain.try_materializer_before(*pos, ticket.version),
                Ok(*answer)
            );
        }
        // It holds nothing else: no entries, no other position, no other
        // version — and says so instead of answering "hole".
        assert!(back.chain.segments().is_empty());
        assert_eq!(back.chain.snapshot_geometry(Version::new(2)), None);
        for (pos, before) in [
            (Pos::new(5, 1), 4),
            (Pos::new(0, 8), 4),
            (Pos::new(0, 4), 3),
        ] {
            let err = back
                .chain
                .try_materializer_before(pos, Version::new(before))
                .unwrap_err();
            assert!(matches!(err, Error::Internal(_)), "{pos:?}@{before}: {err}");
        }
        // Re-encoding the decoded ticket gives the same bytes; a ticket
        // whose chain cannot answer its own border does not decode.
        assert_eq!(ticket.to_bytes(), back.to_bytes());
        let mut w = WireWriter::new();
        put_write_ticket(
            &mut w,
            &WriteTicket {
                entry: entry(4, (1, 2), 8, 8),
                ..back
            },
        );
        let err = WriteTicket::from_bytes(w.as_slice()).err();
        assert!(matches!(err, Some(Error::Transport(_))), "{err:?}");
    }

    /// Ticket size is a function of tree depth, not of history length.
    #[test]
    fn ticket_bytes_stay_bounded_as_history_grows() {
        let vm = VersionManager::new(4096, Arc::new(EngineStats::new()));
        let blob = vm.create_blob();
        let mut sizes = Vec::new();
        for history in 1..=65_536u64 {
            let ticket = vm.assign(blob, WriteIntent::Append { size: 4096 }).unwrap();
            vm.commit(blob, ticket.version).unwrap();
            if history.is_power_of_two() {
                let (back, bytes) = roundtrip(&ticket);
                assert_eq!(
                    back.chain.border(&back.entry).unwrap(),
                    ticket.chain.border(&ticket.entry).unwrap()
                );
                sizes.push(bytes);
            }
        }
        assert!(sizes[16] <= 256, "{} bytes at history 65536", sizes[16]);
        for (doubling, pair) in sizes.windows(2).enumerate() {
            assert!(
                pair[1] <= pair[0] + 16,
                "history 2^{doubling} → 2^{}: {} → {} bytes",
                doubling + 1,
                pair[0],
                pair[1]
            );
        }
    }

    #[test]
    fn malformed_log_entries_are_transport_errors() {
        // (blocks, cap_before, cap_after): empty range, capacity not a
        // power of two, range past the capacity, shrinking capacity.
        for (blocks, cap_before, cap_after) in [
            ((3, 3), 4, 4),
            ((0, 1), 0, 6),
            ((4, 9), 8, 8),
            ((0, 1), 3, 4),
            ((0, 1), 8, 4),
        ] {
            let bytes = entry(1, blocks, cap_before, cap_after).to_bytes();
            let got = LogEntry::from_bytes(&bytes);
            assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");
        }
        // A chain whose entries are not dense above their base.
        let log: WriteLog = [entry(1, (0, 1), 0, 1)].into_iter().collect();
        let chain = LogChain::new(vec![LogSegment::full(
            BlobId::new(1),
            Arc::new(RwLock::new(log)),
            Version::new(5),
            Version::new(u64::MAX),
        )]);
        let got = LogChain::from_bytes(&chain.to_bytes());
        assert!(matches!(got, Err(Error::Transport(_))));
    }

    #[test]
    fn allocations_snapshots_intents_durations_roundtrip() {
        let a = BlockAllocation {
            block_id: BlockId::new(77),
            providers: vec![0, 3, 9],
        };
        let info = SnapshotInfo {
            version: Version::new(4),
            size: 1000,
            cap: 16,
            root_blob: BlobId::new(2),
            revealed: true,
        };
        let report = GcReport {
            nodes_deleted: 5,
            blocks_deleted: 3,
            bytes_freed: 4096,
            untracked_releases: 1,
        };
        let mut w = WireWriter::new();
        a.put(&mut w);
        info.put(&mut w);
        WriteIntent::Write { offset: 5, size: 9 }.put(&mut w);
        WriteIntent::Append { size: 64 }.put(&mut w);
        Duration::from_millis(1500).put(&mut w);
        report.put(&mut w);
        let mut r = WireReader::new(w.as_slice());
        assert_eq!(BlockAllocation::get(&mut r).unwrap(), a);
        assert_eq!(SnapshotInfo::get(&mut r).unwrap(), info);
        assert_eq!(
            WriteIntent::get(&mut r).unwrap(),
            WriteIntent::Write { offset: 5, size: 9 }
        );
        assert_eq!(
            WriteIntent::get(&mut r).unwrap(),
            WriteIntent::Append { size: 64 }
        );
        assert_eq!(Duration::get(&mut r).unwrap(), Duration::from_millis(1500));
        assert_eq!(GcReport::get(&mut r).unwrap(), report);
        r.finish().unwrap();
    }

    #[test]
    fn response_envelope_carries_payloads_and_errors() {
        let mut payload = response_writer();
        payload.put_u64(42);
        let body = encode_response(Ok(payload));
        assert_eq!(decode_response(&body, u64::get), Ok(42));
        assert_eq!(body, Ok::<u64, Error>(42).to_bytes(), "a Result<T>");
        let mut long = body.clone();
        long.push(0);
        let got = decode_response(&long, u64::get);
        assert!(matches!(got, Err(Error::Transport(_))), "{got:?}");

        for e in blobseer_types::wire::error_fixture() {
            let body = encode_response(Err(e.clone()));
            let got = decode_response(&body, u64::get).unwrap_err();
            assert_eq!(got, e, "error variant must survive the envelope");
        }
    }
}
