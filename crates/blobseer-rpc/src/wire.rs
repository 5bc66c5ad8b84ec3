//! Wire codec for the port-trait domain types and the framing layer.
//!
//! Messages are length-prefixed, request-correlated binary frames:
//!
//! ```text
//! varint length | varint request id | body (length − id bytes)
//! ```
//!
//! The length covers the request id and the body, so a peer can skip a
//! whole frame knowing only the prefix. **One frame is one write**: the
//! two varints are built as one small header and leave together with the
//! body in a single vectored write ([`write_frame`]) — on a `TCP_NODELAY`
//! socket every separate write is a syscall and, for small frames, a
//! packet of its own. The reading side reads through a buffer (the
//! connection loops wrap their sockets in a `BufReader`), so the varints
//! cost no syscall each, while a large body still lands directly in its
//! destination vector. The request id is chosen by the
//! client and echoed verbatim on the response frame; it is what lets many
//! in-flight requests share one TCP connection — the server may answer
//! out of order (a parked `wait_revealed` no longer blocks the answers
//! behind it) and the client's demux thread routes each response to the
//! waiter that sent the matching id. Bodies are built from the primitives
//! in [`blobseer_types::wire`] (varints, length-prefixed byte strings);
//! this module adds codecs for every composite type that crosses a port
//! boundary — tree nodes, node keys, write tickets (bounded: the answers
//! to the write's border in place of the log), whole log chains, snapshot
//! infos, block allocations — plus request framing for the services.
//!
//! Every decode validates its input and fails with
//! [`blobseer_types::Error::Transport`]; a malformed frame can never
//! panic a server or client thread.

use blobseer_core::gc::GcReport;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::{Border, LogChain, LogEntry, LogSegment, WriteLog};
use blobseer_core::meta::node::NodeRef;
use blobseer_core::provider_manager::BlockAllocation;
use blobseer_core::version_manager::{SnapshotInfo, WriteTicket};
use blobseer_types::wire::{write_all_vectored, WireReader, WireWriter};
use blobseer_types::{BlobId, BlockId, Error, Result, Version};
use parking_lot::RwLock;
use std::io::{ErrorKind, IoSlice, Read, Write};
use std::sync::Arc;
use std::time::Duration;

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

/// Upper bound on what one block item adds to a frame besides its payload
/// (an id varint or a status byte, then a length varint) — what a frame
/// builder adds per item when it sizes its buffer for known payloads.
pub(crate) const ITEM_HEADER_MAX: usize = 20;

/// Per-item status bytes of the vectored (`*_many`) response frames.
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

/// Encodes one per-item outcome (status byte, then the error payload for
/// failures; the caller writes any success payload itself).
pub fn put_item_status<T>(w: &mut WireWriter, result: &Result<T>) {
    match result {
        Ok(_) => w.put_u8(batch_status::OK),
        Err(e) => {
            w.put_u8(batch_status::ERR);
            w.put_error(e);
        }
    }
}

/// Maps an I/O failure into [`Error::Transport`] with context.
pub(crate) fn transport(context: &str, e: std::io::Error) -> Error {
    Error::Transport(format!("{context}: {e}"))
}

/// Writes one length-prefixed frame tagged with `req_id`. The id varint
/// is part of the prefixed length, and a response frame must echo the id
/// of the request it answers.
///
/// Header (length + id) and body go out in one vectored write; only a
/// writer that takes less than it was offered sees a second call.
pub fn write_frame(stream: &mut impl Write, req_id: u64, body: &[u8]) -> Result<()> {
    // A varint carries 7 bits per byte.
    let id_len = (64 - (req_id | 1).leading_zeros() as usize).div_ceil(7);
    let mut header = WireWriter::new();
    header.put_u64((id_len + body.len()) as u64);
    header.put_u64(req_id);
    let mut parts = [IoSlice::new(header.as_slice()), IoSlice::new(body)];
    write_all_vectored(stream, &mut parts)
        .and_then(|()| stream.flush())
        .map_err(|e| transport("write frame", e))
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
/// buffered reader; the body is read straight into the returned vector.
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
    let mut body = vec![0u8; (len - id_len) as usize];
    stream
        .read_exact(&mut body)
        .map_err(|e| transport("read frame body", e))?;
    Ok(Some((req_id, body)))
}

// --- composite-type codecs --------------------------------------------------

// The metadata domain codecs (positions, node keys, block ranges and
// descriptors, tree nodes, write intents) live in
// `blobseer_core::meta::codec` because the disk-backed stores and the
// replicated version manager persist records in the same encoding;
// re-exported here so wire call sites keep one import surface.
pub use blobseer_core::meta::codec::{
    get_block_descriptor, get_block_range, get_node_key, get_opt_node_ref, get_pos, get_tree_node,
    get_write_intent, put_block_descriptor, put_block_range, put_node_key, put_opt_node_ref,
    put_pos, put_tree_node, put_write_intent,
};

/// Encodes a write-log entry.
pub fn put_log_entry(w: &mut WireWriter, e: &LogEntry) {
    w.put_u64(e.version.raw());
    put_block_range(w, e.blocks);
    w.put_u64(e.cap_before);
    w.put_u64(e.cap_after);
    w.put_u64(e.size_after);
}

/// Decodes a write-log entry, validating the tree geometry the walks of
/// `meta::log` rely on: a non-empty block range inside a power-of-two
/// capacity that did not shrink.
pub fn get_log_entry(r: &mut WireReader<'_>) -> Result<LogEntry> {
    let e = LogEntry {
        version: Version::new(r.get_u64()?),
        blocks: get_block_range(r)?,
        cap_before: r.get_u64()?,
        cap_after: r.get_u64()?,
        size_after: r.get_u64()?,
    };
    let grew_from = e.cap_before == 0 || e.cap_before.is_power_of_two();
    if e.blocks.is_empty()
        || !e.cap_after.is_power_of_two()
        || e.blocks.end > e.cap_after
        || !grew_from
        || e.cap_before > e.cap_after
    {
        return Err(Error::Transport(format!(
            "wire: invalid log entry geometry {e:?}"
        )));
    }
    Ok(e)
}

/// Encodes a snapshot info.
pub fn put_snapshot_info(w: &mut WireWriter, info: &SnapshotInfo) {
    w.put_u64(info.version.raw());
    w.put_u64(info.size);
    w.put_u64(info.cap);
    w.put_u64(info.root_blob.raw());
    w.put_bool(info.revealed);
}

/// Decodes a snapshot info.
pub fn get_snapshot_info(r: &mut WireReader<'_>) -> Result<SnapshotInfo> {
    Ok(SnapshotInfo {
        version: Version::new(r.get_u64()?),
        size: r.get_u64()?,
        cap: r.get_u64()?,
        root_blob: BlobId::new(r.get_u64()?),
        revealed: r.get_bool()?,
    })
}

/// Encodes a whole log chain as a point-in-time snapshot of its segments
/// — the answer of the `chain` call, O(history) bytes. Tickets do not
/// carry it ([`put_write_ticket`]); abort repair, which needs answers no
/// ticket holds, fetches it.
///
/// In-process deployments share the version manager's *live* logs through
/// `Arc`; over the wire the client receives a copy. For the repair of
/// version `v` the copy is sufficient: weaving only consults entries
/// *below* `v`, and those were appended under the per-BLOB mutex before
/// `v` was assigned — they are all present at encode time. A border-only
/// chain has no segments and encodes as an empty chain, which does not
/// decode.
pub fn put_log_chain(w: &mut WireWriter, chain: &LogChain) {
    let segments = chain.segments();
    w.put_u64(segments.len() as u64);
    for seg in segments {
        w.put_u64(seg.blob.raw());
        w.put_u64(seg.vec_base.raw());
        w.put_u64(seg.lo.raw());
        w.put_u64(seg.hi.raw());
        let entries = seg.entries.read();
        w.put_u64(entries.len() as u64);
        for e in entries.iter() {
            put_log_entry(w, e);
        }
    }
}

/// Decodes a log chain (the segments own fresh logs, indexed like the
/// version manager's).
pub fn get_log_chain(r: &mut WireReader<'_>) -> Result<LogChain> {
    let n = r.get_u64()? as usize;
    if n == 0 {
        return Err(Error::Transport("wire: empty log chain".into()));
    }
    let mut segments = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let blob = BlobId::new(r.get_u64()?);
        let vec_base = Version::new(r.get_u64()?);
        let lo = Version::new(r.get_u64()?);
        let hi = Version::new(r.get_u64()?);
        let n_entries = r.get_u64()? as usize;
        let mut entries = WriteLog::new();
        for k in 0..n_entries as u64 {
            let e = get_log_entry(r)?;
            // Dense, like the version manager's own log: lookups index by
            // version.
            if Some(e.version.raw()) != vec_base.raw().checked_add(1 + k) {
                return Err(Error::Transport(format!(
                    "wire: log entry {k} after {vec_base} claims {}",
                    e.version
                )));
            }
            entries.push(e);
        }
        segments.push(LogSegment {
            blob,
            entries: Arc::new(RwLock::new(entries)),
            vec_base,
            lo,
            hi,
        });
    }
    Ok(LogChain::new(segments))
}

/// How one border answer of a ticket is encoded: a tag, then for the two
/// node tags how many versions *back* from the ticket's the materializer
/// lies (`>= 1`) — "the latest writer before `v`" is mostly a recent one,
/// so the distance stays a short varint where the version would not.
mod border_tag {
    /// No earlier version materialized the position: a hole.
    pub const HOLE: u8 = 0;
    /// A version of the ticket's own blob; the distance follows.
    pub const OWN: u8 = 1;
    /// A version of an ancestor lineage; its blob id, then the distance.
    pub const ANCESTOR: u8 = 2;
}

/// Written in place of the border-answer count when the encoder's chain
/// could not answer the ticket's own border (a hand-built, inconsistent
/// ticket). Decoding fails on it: a missing answer must never read as a
/// hole.
const BORDER_UNANSWERED: u64 = u64::MAX;

/// Encodes a write ticket: offset, entry and — in place of the log — the
/// answers to the entry's border ([`LogChain::border`]): per position the
/// tree build of `t.entry` weaves, the latest materializer before
/// `t.version`. Only the answers travel; the decoder re-derives the
/// positions from the entry with the same walk. O(tree depth) bytes
/// whatever the length of the history, and the same bytes from a live
/// chain, a fully transferred one, or the border-only chain of a decoded
/// ticket.
///
/// The lookups run here, on the encoding thread — for a hosted version
/// manager a server worker, *outside* the per-BLOB mutex that serialized
/// the assignment. Every entry below `t.version` is already in the log by
/// then; later ones are clamped away.
pub fn put_write_ticket(w: &mut WireWriter, t: &WriteTicket) {
    w.put_u64(t.blob.raw());
    w.put_u64(t.offset);
    w.put_u64(t.prev_size);
    put_log_entry(w, &t.entry);
    let border = match t.chain.border(&t.entry) {
        Ok(border) if t.version == t.entry.version => border,
        _ => return w.put_u64(BORDER_UNANSWERED),
    };
    w.put_u64(border.answers().len() as u64);
    for (_, answer) in border.answers() {
        match answer {
            None => w.put_u8(border_tag::HOLE),
            Some(m) => {
                if m.blob == t.blob {
                    w.put_u8(border_tag::OWN);
                } else {
                    w.put_u8(border_tag::ANCESTOR);
                    w.put_u64(m.blob.raw());
                }
                w.put_u64(t.version.raw() - m.version.raw());
            }
        }
    }
}

/// Decodes a write ticket. Its chain is border-only: it answers the
/// border positions of the ticket's entry, for the ticket's version, and
/// fails with [`Error::Internal`] on anything else.
pub fn get_write_ticket(r: &mut WireReader<'_>) -> Result<WriteTicket> {
    let blob = BlobId::new(r.get_u64()?);
    let offset = r.get_u64()?;
    let prev_size = r.get_u64()?;
    let entry = get_log_entry(r)?;
    let version = entry.version;
    let n = r.get_u64()?;
    if n == BORDER_UNANSWERED {
        return Err(Error::Transport(
            "wire: the ticket's encoder could not answer its border".into(),
        ));
    }
    // A border has at most a few positions per tree level.
    let mut answers = Vec::with_capacity((n as usize).min(256));
    for _ in 0..n {
        let lineage = match r.get_u8()? {
            border_tag::HOLE => {
                answers.push(None);
                continue;
            }
            border_tag::OWN => blob,
            border_tag::ANCESTOR => BlobId::new(r.get_u64()?),
            t => {
                return Err(Error::Transport(format!(
                    "wire: unknown border-answer tag {t}"
                )))
            }
        };
        let back = r.get_u64()?;
        let at = version.raw().checked_sub(back).filter(|_| back > 0);
        let at = at.ok_or_else(|| {
            Error::Transport(format!(
                "wire: border answer {back} versions before {version}"
            ))
        })?;
        answers.push(Some(NodeRef {
            blob: lineage,
            version: Version::new(at),
        }));
    }
    let border = Border::of(&entry, answers).ok_or_else(|| {
        Error::Transport(format!(
            "wire: {n} border answers do not fit the border of {entry:?}"
        ))
    })?;
    Ok(WriteTicket {
        blob,
        version,
        offset,
        prev_size,
        entry,
        chain: LogChain::from_border(border),
    })
}

/// Encodes a block allocation.
pub fn put_block_allocation(w: &mut WireWriter, a: &BlockAllocation) {
    w.put_u64(a.block_id.raw());
    w.put_u64(a.providers.len() as u64);
    for &p in &a.providers {
        w.put_u64(p as u64);
    }
}

/// Decodes a block allocation.
pub fn get_block_allocation(r: &mut WireReader<'_>) -> Result<BlockAllocation> {
    let block_id = BlockId::new(r.get_u64()?);
    let n = r.get_u64()? as usize;
    let mut providers = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        providers.push(r.get_u64()? as usize);
    }
    Ok(BlockAllocation {
        block_id,
        providers,
    })
}

/// Encodes a duration as whole nanoseconds (saturating at ~585 years).
pub fn put_duration(w: &mut WireWriter, d: Duration) {
    w.put_u64(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
}

/// Decodes a duration.
pub fn get_duration(r: &mut WireReader<'_>) -> Result<Duration> {
    Ok(Duration::from_nanos(r.get_u64()?))
}

/// Encodes a list of versions.
pub fn put_versions(w: &mut WireWriter, versions: &[Version]) {
    w.put_u64(versions.len() as u64);
    for v in versions {
        w.put_u64(v.raw());
    }
}

/// Decodes a list of versions.
pub fn get_versions(r: &mut WireReader<'_>) -> Result<Vec<Version>> {
    let n = r.get_u64()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(Version::new(r.get_u64()?));
    }
    Ok(out)
}

/// Encodes a list of node keys.
pub fn put_node_keys(w: &mut WireWriter, keys: &[NodeKey]) {
    w.put_u64(keys.len() as u64);
    for k in keys {
        put_node_key(w, k);
    }
}

/// Decodes a list of node keys.
pub fn get_node_keys(r: &mut WireReader<'_>) -> Result<Vec<NodeKey>> {
    let n = r.get_u64()? as usize;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(get_node_key(r)?);
    }
    Ok(out)
}

/// Encodes a GC report.
pub fn put_gc_report(w: &mut WireWriter, report: &GcReport) {
    w.put_u64(report.nodes_deleted);
    w.put_u64(report.blocks_deleted);
    w.put_u64(report.bytes_freed);
    w.put_u64(report.untracked_releases);
}

/// Decodes a GC report.
pub fn get_gc_report(r: &mut WireReader<'_>) -> Result<GcReport> {
    Ok(GcReport {
        nodes_deleted: r.get_u64()?,
        blocks_deleted: r.get_u64()?,
        bytes_freed: r.get_u64()?,
        untracked_releases: r.get_u64()?,
    })
}

// --- response envelope ------------------------------------------------------

/// First byte of a response body that carries a payload.
const STATUS_OK: u8 = 0;
/// First byte of a response body that carries an encoded [`Error`].
const STATUS_ERR: u8 = 1;

/// The writer a handler encodes its answer into: it already holds the
/// success status byte, so what the handler appends *is* the response
/// body and [`encode_response`] has nothing to copy — a batched get's
/// payloads are written once, straight behind the envelope.
pub fn response_writer() -> WireWriter {
    let mut w = WireWriter::new();
    w.put_u8(STATUS_OK);
    w
}

/// Wraps a handler outcome into a response body: the handler's own
/// writer (started by [`response_writer`], status byte `0` in front of
/// the payload), or status byte `1` followed by the encoded [`Error`].
pub fn encode_response(result: Result<WireWriter>) -> Vec<u8> {
    match result {
        Ok(body) => {
            debug_assert_eq!(body.as_slice().first(), Some(&STATUS_OK));
            body.into_vec()
        }
        Err(e) => {
            let mut out = WireWriter::new();
            out.put_u8(STATUS_ERR);
            out.put_error(&e);
            out.into_vec()
        }
    }
}

/// Splits a response body into its payload, surfacing an encoded service
/// [`Error`] as itself — failures cross the wire as their real variants,
/// never degraded into transport errors.
pub fn decode_response(body: &[u8]) -> Result<WireReader<'_>> {
    let mut r = WireReader::new(body);
    match r.get_u8()? {
        STATUS_OK => Ok(r),
        STATUS_ERR => {
            let e = r.get_error()?;
            r.finish()?;
            Err(e)
        }
        s => Err(Error::Transport(format!(
            "wire: unknown response status {s}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_core::meta::key::{BlockRange, Pos};
    use blobseer_core::meta::node::{BlockDescriptor, NodeRef, TreeNode};
    use blobseer_core::{EngineStats, VersionManager, WriteIntent};

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
        // through the buffer: a few calls, not one per buffer-full.
        let mut wire = Vec::new();
        write_frame(&mut wire, 9, &vec![7u8; 1 << 20]).unwrap();
        let mut reader = std::io::BufReader::new(Counted {
            calls: 0,
            rest: &wire,
        });
        let (_, body) = read_frame(&mut reader).unwrap().unwrap();
        assert_eq!(body, vec![7u8; 1 << 20]);
        assert!(reader.get_ref().calls <= 3, "{}", reader.get_ref().calls);
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
            let mut w = WireWriter::new();
            put_tree_node(&mut w, node);
            let mut r = WireReader::new(w.as_slice());
            assert_eq!(&get_tree_node(&mut r).unwrap(), node);
            r.finish().unwrap();
        }
    }

    #[test]
    fn invalid_pos_is_a_transport_error() {
        // len 3 is not a power of two; start 2 is not aligned to len 4.
        for (start, len) in [(0u64, 3u64), (2, 4), (0, 0)] {
            let mut w = WireWriter::new();
            w.put_u64(start);
            w.put_u64(len);
            let mut r = WireReader::new(w.as_slice());
            assert!(matches!(get_pos(&mut r), Err(Error::Transport(_))));
        }
    }

    fn roundtrip(ticket: &WriteTicket) -> (WriteTicket, usize) {
        let mut w = WireWriter::new();
        put_write_ticket(&mut w, ticket);
        let mut r = WireReader::new(w.as_slice());
        let back = get_write_ticket(&mut r).unwrap();
        r.finish().unwrap();
        (back, w.as_slice().len())
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
        let mut first = WireWriter::new();
        put_write_ticket(&mut first, &ticket);
        let mut again = WireWriter::new();
        put_write_ticket(&mut again, &back);
        assert_eq!(first.as_slice(), again.as_slice());
        let mut w = WireWriter::new();
        put_write_ticket(
            &mut w,
            &WriteTicket {
                entry: entry(4, (1, 2), 8, 8),
                ..back
            },
        );
        let err = get_write_ticket(&mut WireReader::new(w.as_slice())).err();
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
            let mut w = WireWriter::new();
            put_log_entry(&mut w, &entry(1, blocks, cap_before, cap_after));
            let got = get_log_entry(&mut WireReader::new(w.as_slice()));
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
        let mut w = WireWriter::new();
        put_log_chain(&mut w, &chain);
        let got = get_log_chain(&mut WireReader::new(w.as_slice()));
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
        let mut w = WireWriter::new();
        put_block_allocation(&mut w, &a);
        put_snapshot_info(&mut w, &info);
        put_write_intent(&mut w, WriteIntent::Write { offset: 5, size: 9 });
        put_write_intent(&mut w, WriteIntent::Append { size: 64 });
        put_duration(&mut w, Duration::from_millis(1500));
        let report = GcReport {
            nodes_deleted: 5,
            blocks_deleted: 3,
            bytes_freed: 4096,
            untracked_releases: 1,
        };
        put_gc_report(&mut w, &report);
        let mut r = WireReader::new(w.as_slice());
        assert_eq!(get_block_allocation(&mut r).unwrap(), a);
        assert_eq!(get_snapshot_info(&mut r).unwrap(), info);
        assert_eq!(
            get_write_intent(&mut r).unwrap(),
            WriteIntent::Write { offset: 5, size: 9 }
        );
        assert_eq!(
            get_write_intent(&mut r).unwrap(),
            WriteIntent::Append { size: 64 }
        );
        assert_eq!(get_duration(&mut r).unwrap(), Duration::from_millis(1500));
        assert_eq!(get_gc_report(&mut r).unwrap(), report);
        r.finish().unwrap();
    }

    #[test]
    fn response_envelope_carries_payloads_and_errors() {
        let mut payload = response_writer();
        payload.put_u64(42);
        let body = encode_response(Ok(payload));
        let mut r = decode_response(&body).unwrap();
        assert_eq!(r.get_u64().unwrap(), 42);

        for e in blobseer_types::wire::error_fixture() {
            let body = encode_response(Err(e.clone()));
            let got = decode_response(&body).unwrap_err();
            assert_eq!(got, e, "error variant must survive the envelope");
        }
    }
}
