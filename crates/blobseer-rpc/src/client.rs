//! Client-side adapters: the five port traits — block store, metadata
//! DHT, version manager, placement and GC — implemented over
//! *multiplexed* TCP connections.
//!
//! Each adapter holds a small fixed budget of shared connections per
//! endpoint ([`blobseer_types::BlobSeerConfig::rpc_client_connections`]).
//! A call picks a connection round-robin, tags its frame with a fresh
//! request id, writes it under the connection's writer lock, and parks on
//! the connection's waiter table; a per-connection demux thread reads
//! response frames and routes each to the waiter holding the matching id.
//! Many client threads therefore pipeline on a few sockets, responses may
//! arrive out of order, and a blocking call (`wait_revealed`) parks only
//! its own waiter — never the connection. One caller can pipeline too:
//! `MuxPool::call_all` writes a run of frames before it awaits the first
//! response, which is how a version's tree levels are published in
//! overlapping round trips ([`MetaStore::put_levels`]).
//!
//! A connection that dies *idle* (server restart) is redialed
//! transparently on next use: the demux thread observes EOF immediately
//! and marks the connection dead, so the next call dials afresh instead
//! of surfacing a stale [`Error::Transport`]. A call whose request frame
//! *failed to write* also retries once on a fresh connection — the kernel
//! never accepted the frame, so the server cannot have dispatched it and
//! the retry is safe even for non-idempotent calls like `assign`. A call
//! whose frame was sent but never answered fails with
//! [`Error::Transport`]: its remote outcome is genuinely unknown.
//!
//! Service failures arrive as their real [`Error`] variants (decoded from
//! the response envelope); only genuine connectivity problems — refused
//! connections, resets, malformed frames — surface as
//! [`Error::Transport`].
//!
//! Port methods that return plain values rather than `Result` (they are
//! diagnostics: counts, sizes, op counters) cannot propagate a transport
//! failure; they degrade to a zero/empty answer — but never silently:
//! each degradation bumps `EngineStats::rpc_degraded_diagnostics` and the
//! first one logs a warning, so a half-dead cluster is observable instead
//! of reporting zeros. The fixed deployment *shape* — provider count,
//! hosting nodes, DHT shard count, block size — is fetched once at
//! connect time and served from cache, so the hot paths that consult it
//! stay local.

use crate::server::{block_tag, gc_tag, meta_tag, placement_tag, version_tag};
use crate::wire::{self, batch_status, decode_response};
use blobseer_core::gc::GcReport;
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::log::LogChain;
use blobseer_core::meta::node::TreeNode;
use blobseer_core::ports::{
    single, BlockStore, GcService, MetaStore, PlacementService, VersionService,
};
use blobseer_core::provider_manager::BlockAllocation;
use blobseer_core::version_manager::{SnapshotInfo, WriteIntent, WriteTicket};
use blobseer_core::EngineStats;
use blobseer_types::config::DEFAULT_RPC_CLIENT_CONNECTIONS;
use blobseer_types::wire::{WireReader, WireWriter};
use blobseer_types::{BlobId, BlockId, Error, NodeId, Result, Version};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Max items per vectored *metadata* frame. Tree nodes and node keys are
/// tens of bytes, so this bounds both request and response frames to a
/// few MB — far under [`wire::MAX_FRAME_LEN`] — while still collapsing
/// any realistic tree level into one round trip.
const META_BATCH_MAX: usize = 65_536;

/// Counts a diagnostic degradation (a non-`Result` port method answering
/// its zero/empty default because the backend was unreachable) and warns
/// once per process — satisfying "observable, not silent" without
/// flooding stderr when a whole cluster is down.
fn degraded(stats: &EngineStats, what: &str, e: &Error) {
    stats
        .rpc_degraded_diagnostics
        .fetch_add(1, Ordering::Relaxed);
    static WARNED: std::sync::Once = std::sync::Once::new();
    WARNED.call_once(|| {
        eprintln!(
            "blobseer-rpc: diagnostic {what} degraded to a default answer ({e}); \
             further degradations are counted on EngineStats::rpc_degraded_diagnostics"
        );
    });
}

/// The waiter table of one multiplexed connection.
struct Pending {
    /// Request id → response body; `None` while still in flight. Entries
    /// are inserted by [`MuxConn::send`] and removed by [`MuxConn::wait`],
    /// so the table is bounded by the number of in-flight calls.
    results: HashMap<u64, Option<Vec<u8>>>,
    /// Set by the demux thread when the connection dies; every current
    /// and future waiter fails with this error (outcome unknown).
    closed: Option<Error>,
}

/// One multiplexed connection: a writer half shared under a mutex, a
/// demux thread owning the reader half, and a waiter table keyed by
/// request id.
struct MuxConn {
    addr: SocketAddr,
    writer: Mutex<TcpStream>,
    pending: Mutex<Pending>,
    ready: Condvar,
    next_id: AtomicU64,
    /// Set when the demux thread exits or a frame write fails; the pool
    /// replaces dead connections on next use.
    dead: AtomicBool,
}

impl MuxConn {
    /// Dials the endpoint and starts its demux thread.
    fn dial(addr: SocketAddr) -> Result<Arc<Self>> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| wire::transport(&format!("connect to {addr}"), e))?;
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| wire::transport("clone mux stream", e))?;
        let conn = Arc::new(Self {
            addr,
            writer: Mutex::named(stream, "rpc.mux.writer"),
            pending: Mutex::named(
                Pending {
                    results: HashMap::new(),
                    closed: None,
                },
                "rpc.mux.pending",
            ),
            ready: Condvar::named("rpc.mux.ready"),
            next_id: AtomicU64::new(0),
            dead: AtomicBool::new(false),
        });
        let demux = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("rpc-demux".into())
            .spawn(move || demux_loop(reader, &demux))
            .map_err(|e| wire::transport("spawn demux thread", e))?;
        Ok(conn)
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Registers a waiter and writes one request frame. On any failure the
    /// frame is guaranteed undelivered (the connection is marked dead and
    /// the waiter withdrawn), so the caller may safely retry on a fresh
    /// connection.
    fn send(&self, request: &WireWriter) -> Result<u64> {
        if self.is_dead() {
            return Err(Error::Transport(format!(
                "{} died before the request was sent",
                self.addr
            )));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.pending.lock().results.insert(id, None);
        let mut writer = self.writer.lock();
        match wire::write_frame(&mut *writer, id, request.as_slice()) {
            Ok(()) => Ok(id),
            Err(e) => {
                drop(writer);
                self.dead.store(true, Ordering::SeqCst);
                self.pending.lock().results.remove(&id);
                Err(e)
            }
        }
    }

    /// Parks until the demux thread delivers the response for `id`, or
    /// the connection dies.
    fn wait(&self, id: u64) -> Result<Vec<u8>> {
        let mut p = self.pending.lock();
        loop {
            if matches!(p.results.get(&id), Some(Some(_))) {
                return match p.results.remove(&id) {
                    Some(Some(body)) => Ok(body),
                    _ => unreachable!("checked above"),
                };
            }
            if let Some(e) = p.closed.clone() {
                p.results.remove(&id);
                return Err(e);
            }
            self.ready.wait(&mut p);
        }
    }
}

/// The demux thread: reads response frames and routes each to its waiter.
/// Exits on EOF or a transport error — marking the connection dead first,
/// so idle death (a server restart) is already known the next time the
/// pool considers this connection.
fn demux_loop(stream: TcpStream, conn: &MuxConn) {
    let mut stream = BufReader::new(stream);
    loop {
        match wire::read_frame(&mut stream) {
            Ok(Some((id, body))) => {
                let mut p = conn.pending.lock();
                if let Some(slot) = p.results.get_mut(&id) {
                    *slot = Some(body);
                }
                drop(p);
                self_notify(conn);
            }
            Ok(None) | Err(_) => {
                conn.dead.store(true, Ordering::SeqCst);
                let mut p = conn.pending.lock();
                p.closed = Some(Error::Transport(format!(
                    "{} closed the connection with requests in flight",
                    conn.addr
                )));
                drop(p);
                self_notify(conn);
                return;
            }
        }
    }
}

/// Wakes every waiter on the connection; each re-checks its own slot.
fn self_notify(conn: &MuxConn) {
    conn.ready.notify_all();
}

/// A fixed budget of multiplexed connections to one endpoint. Slots are
/// dialed lazily (slot 0 eagerly at construction, as a reachability
/// probe) and redialed transparently when found dead.
pub(crate) struct MuxPool {
    addr: SocketAddr,
    slots: Vec<Mutex<Option<Arc<MuxConn>>>>,
    next: AtomicUsize,
    /// Deployment counters: every request frame bumps
    /// `port_round_trips` — the client-side round-trip meter the batching
    /// tests assert on — or `control_round_trips` for a control-plane
    /// pool (placement and GC traffic is metered separately from the
    /// data path, so the 14/13 frame-count invariants stay untouched).
    stats: Arc<EngineStats>,
    /// Control-plane pools meter on `control_round_trips`.
    control: bool,
}

impl MuxPool {
    /// Creates a pool of `budget` connection slots and eagerly dials one,
    /// so an unreachable endpoint fails at adapter construction, not
    /// mid-write.
    pub(crate) fn connect_with(
        addr: SocketAddr,
        stats: Arc<EngineStats>,
        budget: usize,
    ) -> Result<Self> {
        Self::connect_metered(addr, stats, budget, false)
    }

    /// [`Self::connect_with`] for control-plane adapters: round trips land
    /// on `EngineStats::control_round_trips` instead of
    /// `port_round_trips`, and are never mixed into `batched_items`.
    pub(crate) fn connect_control(
        addr: SocketAddr,
        stats: Arc<EngineStats>,
        budget: usize,
    ) -> Result<Self> {
        Self::connect_metered(addr, stats, budget, true)
    }

    fn connect_metered(
        addr: SocketAddr,
        stats: Arc<EngineStats>,
        budget: usize,
        control: bool,
    ) -> Result<Self> {
        assert!(budget >= 1, "a pool needs at least one connection");
        let pool = Self {
            addr,
            slots: (0..budget)
                .map(|i| Mutex::ranked(None, "rpc.mux.slot", i as u32))
                .collect(),
            next: AtomicUsize::new(0),
            stats,
            control,
        };
        pool.conn_at(0)?;
        Ok(pool)
    }

    /// The healthy connection for a slot, dialing (or redialing a dead
    /// one) under the slot lock so concurrent callers share one dial.
    fn conn_at(&self, slot: usize) -> Result<Arc<MuxConn>> {
        let mut guard = self.slots[slot].lock();
        if let Some(conn) = guard.as_ref() {
            if !conn.is_dead() {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = MuxConn::dial(self.addr)?;
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Meters and writes one request frame on the slot's connection,
    /// returning where its response will arrive. If the frame could not be
    /// *written*, it is retried once on a fresh connection — safe for any
    /// operation, because an unwritten frame was never dispatched.
    fn send_on(&self, slot: usize, request: &WireWriter) -> Result<(Arc<MuxConn>, u64)> {
        if self.control {
            self.stats
                .control_round_trips
                .fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.port_round_trips.fetch_add(1, Ordering::Relaxed);
        }
        let conn = self.conn_at(slot)?;
        match conn.send(request) {
            Ok(id) => Ok((conn, id)),
            Err(_) => {
                let conn = self.conn_at(slot)?;
                let id = conn.send(request)?;
                Ok((conn, id))
            }
        }
    }

    /// One request/response exchange, multiplexed: requests from many
    /// threads pipeline on the slot connections, matched back by request
    /// id.
    pub(crate) fn call(&self, request: &WireWriter) -> Result<Vec<u8>> {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let (conn, id) = self.send_on(slot, request)?;
        conn.wait(id)
    }

    /// [`Self::call`] for a run of independent requests: every frame is
    /// written (on one connection, in order) before the first response is
    /// awaited, so the round trips overlap. One frame, one meter tick and
    /// one result per request, each frame under the same
    /// unwritten-retries-once rule.
    pub(crate) fn call_all(&self, requests: &[WireWriter]) -> Vec<Result<Vec<u8>>> {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let sent: Vec<_> = requests
            .iter()
            .map(|request| self.send_on(slot, request))
            .collect();
        sent.into_iter()
            .map(|sent| sent.and_then(|(conn, id)| conn.wait(id)))
            .collect()
    }
}

/// A successful response body with the payload's start offset — kept
/// whole (no re-copy) so readers borrow it and block payloads can be
/// wrapped zero-copy.
struct RpcPayload {
    body: Vec<u8>,
    start: usize,
}

impl RpcPayload {
    fn reader(&self) -> WireReader<'_> {
        WireReader::new(&self.body[self.start..])
    }
}

/// A `Result`-returning RPC round trip: encodes, exchanges, unwraps the
/// response envelope.
fn call(pool: &MuxPool, request: WireWriter) -> Result<RpcPayload> {
    let body = pool.call(&request)?;
    let reader = decode_response(&body)?;
    let start = body.len() - reader.remaining();
    Ok(RpcPayload { body, start })
}

/// Decodes a vectored response: the echoed item count, then one status per
/// item — `OK` followed by a payload read by `read_payload`, or `ERR`
/// followed by the item's encoded [`Error`]. A count mismatch or an
/// unexpected status byte is a framing bug and fails the whole batch.
fn decode_batch_items<T>(
    r: &mut WireReader<'_>,
    expect: usize,
    mut read_payload: impl FnMut(&mut WireReader<'_>) -> Result<T>,
) -> Result<Vec<Result<T>>> {
    let n = r.get_u64()? as usize;
    if n != expect {
        return Err(Error::Transport(format!(
            "batched response answers {n} items, expected {expect}"
        )));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(match r.get_u8()? {
            batch_status::OK => Ok(read_payload(r)?),
            batch_status::ERR => Err(r.get_error()?),
            s => {
                return Err(Error::Transport(format!(
                    "unexpected batch status byte {s}"
                )))
            }
        });
    }
    Ok(out)
}

/// Decodes one round of a batched block fetch. Returns the answered items
/// as `(slot, Ok((offset, len)) | Err)` — payload *extents* into `body`,
/// so the caller can wrap the body in [`Bytes`] once and slice zero-copy —
/// plus the deferred items to re-request.
#[allow(clippy::type_complexity)]
fn decode_get_many(
    body: &[u8],
    pending: &[(usize, BlockId)],
) -> Result<(Vec<(usize, Result<(usize, usize)>)>, Vec<(usize, BlockId)>)> {
    let mut r = decode_response(body)?;
    let n = r.get_u64()? as usize;
    if n != pending.len() {
        return Err(Error::Transport(format!(
            "batched response answers {n} items, expected {}",
            pending.len()
        )));
    }
    let mut results = Vec::new();
    let mut deferred = Vec::new();
    for &(slot, id) in pending {
        match r.get_u8()? {
            batch_status::OK => {
                let s = r.get_slice()?;
                // `s` borrows from `body`, so its offset within the frame
                // is plain pointer arithmetic on the same allocation.
                let off = s.as_ptr() as usize - body.as_ptr() as usize;
                results.push((slot, Ok((off, s.len()))));
            }
            batch_status::ERR => results.push((slot, Err(r.get_error()?))),
            batch_status::DEFERRED => deferred.push((slot, id)),
            s => {
                return Err(Error::Transport(format!(
                    "unexpected batch status byte {s}"
                )))
            }
        }
    }
    r.finish()?;
    Ok((results, deferred))
}

// --- block store ------------------------------------------------------------

/// One remote block-service endpoint.
struct BlockEndpoint {
    pool: MuxPool,
}

/// [`BlockStore`] over one or more remote block services.
///
/// The dense provider index space the provider manager allocates in is
/// the concatenation of the endpoints' provider lists, in the order the
/// endpoints were given — so a deployment can host each data provider in
/// its own server process and the unchanged client protocol still
/// addresses them `0..len()`.
pub struct RpcBlockStore {
    endpoints: Vec<BlockEndpoint>,
    /// Dense provider index → (endpoint index, provider index within it).
    route: Vec<(usize, u64)>,
    /// Dense provider index → hosting node.
    nodes: Vec<NodeId>,
    stats: Arc<EngineStats>,
}

impl RpcBlockStore {
    /// Connects to the given block services with the default connection
    /// budget per endpoint. See [`Self::connect_with`].
    pub fn connect(addrs: &[SocketAddr], stats: Arc<EngineStats>) -> Result<Self> {
        Self::connect_with(addrs, stats, DEFAULT_RPC_CLIENT_CONNECTIONS)
    }

    /// Connects to the given block services (`budget` multiplexed
    /// connections per endpoint) and builds the dense index space over
    /// them. Fails if any endpoint is unreachable or empty. `stats`
    /// receives the adapter's round-trip/batch accounting
    /// (`port_round_trips`, `batched_items`) — pass the deployment's
    /// [`EngineStats`].
    pub fn connect_with(
        addrs: &[SocketAddr],
        stats: Arc<EngineStats>,
        budget: usize,
    ) -> Result<Self> {
        if addrs.is_empty() {
            return Err(Error::Transport(
                "RpcBlockStore needs at least one endpoint".into(),
            ));
        }
        let mut endpoints = Vec::with_capacity(addrs.len());
        let mut route = Vec::new();
        let mut nodes = Vec::new();
        for (ei, &addr) in addrs.iter().enumerate() {
            let pool = MuxPool::connect_with(addr, Arc::clone(&stats), budget)?;
            let mut req = WireWriter::new();
            req.put_u8(block_tag::DESCRIBE);
            let payload = call(&pool, req)?;
            let mut r = payload.reader();
            let n = r.get_u64()?;
            for local in 0..n {
                nodes.push(NodeId::new(r.get_u64()?));
                route.push((ei, local));
            }
            r.finish()?;
            endpoints.push(BlockEndpoint { pool });
        }
        Ok(Self {
            endpoints,
            route,
            nodes,
            stats,
        })
    }

    /// Request targeting one dense provider index, with the endpoint-local
    /// index substituted.
    fn provider_request(&self, tag: u8, provider: usize) -> Option<(&MuxPool, WireWriter)> {
        let &(ei, local) = self.route.get(provider)?;
        let mut req = WireWriter::new();
        req.put_u8(tag);
        req.put_u64(local);
        Some((&self.endpoints[ei].pool, req))
    }
}

impl BlockStore for RpcBlockStore {
    fn len(&self) -> usize {
        self.route.len()
    }

    fn node(&self, provider: usize) -> NodeId {
        self.nodes[provider]
    }

    fn index_of_node(&self, node: NodeId) -> Option<usize> {
        self.nodes.iter().position(|&n| n == node)
    }

    /// Transport failures degrade to `false` (the port reports presence,
    /// not reachability) — counted on `rpc_degraded_diagnostics`.
    fn contains(&self, provider: usize, id: BlockId) -> bool {
        let Some((pool, mut req)) = self.provider_request(block_tag::CONTAINS, provider) else {
            return false;
        };
        req.put_u64(id.raw());
        match call(pool, req).and_then(|payload| payload.reader().get_bool()) {
            Ok(present) => present,
            Err(e) => {
                degraded(&self.stats, "BlockStore::contains", &e);
                false
            }
        }
    }

    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        let Some(&(ei, local)) = self.route.get(provider) else {
            let e = Error::Internal(format!("provider index {provider} out of range"));
            return items.iter().map(|_| Err(e.clone())).collect();
        };
        self.stats
            .batched_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let pool = &self.endpoints[ei].pool;
        let mut out: Vec<Result<()>> = Vec::with_capacity(items.len());
        let mut start = 0;
        while start < items.len() {
            // Greedy chunking: as many blocks per frame as fit the batch
            // byte budget (always at least one: a block of any size the
            // frame cap admits gets a frame).
            let mut end = start + 1;
            let mut bytes = items[start].1.len();
            while end < items.len() && bytes + items[end].1.len() <= wire::BATCH_BYTE_BUDGET {
                bytes += items[end].1.len();
                end += 1;
            }
            let chunk = &items[start..end];
            // The one copy the payload takes on this side: sized up
            // front, so the request buffer never re-copies it growing.
            let mut req = WireWriter::new();
            req.reserve(bytes + (chunk.len() + 1) * wire::ITEM_HEADER_MAX);
            req.put_u8(block_tag::PUT_MANY);
            req.put_u64(local);
            req.put_u64(chunk.len() as u64);
            for (id, data) in chunk {
                req.put_u64(id.raw());
                req.put_slice(data);
            }
            match call(pool, req).and_then(|payload| {
                let mut r = payload.reader();
                decode_batch_items(&mut r, chunk.len(), |_| Ok(()))
            }) {
                Ok(results) => out.extend(results),
                // The whole chunk's outcome is unknown: every item fails
                // with the transport error (one refused frame must not be
                // mistaken for per-item success).
                Err(e) => out.extend(chunk.iter().map(|_| Err(e.clone()))),
            }
            start = end;
        }
        out
    }

    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        let Some(&(ei, local)) = self.route.get(provider) else {
            let e = Error::Internal(format!("provider index {provider} out of range"));
            return ids.iter().map(|_| Err(e.clone())).collect();
        };
        self.stats
            .batched_items
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let pool = &self.endpoints[ei].pool;
        let mut out: Vec<Result<Bytes>> = ids
            .iter()
            .map(|_| Err(Error::Transport(String::new())))
            .collect();
        // The server answers as many payloads as fit the batch budget and
        // defers the tail; loop until nothing is deferred. The server
        // always includes the first requested item, so each round makes
        // progress.
        let mut pending: Vec<(usize, BlockId)> = ids.iter().copied().enumerate().collect();
        while !pending.is_empty() {
            let mut req = WireWriter::new();
            req.put_u8(block_tag::GET_MANY);
            req.put_u64(local);
            req.put_u64(pending.len() as u64);
            for &(_, id) in &pending {
                req.put_u64(id.raw());
            }
            let body = match pool.call(&req) {
                Ok(body) => body,
                Err(e) => {
                    for &(slot, _) in &pending {
                        out[slot] = Err(e.clone());
                    }
                    return out;
                }
            };
            // First pass borrows the body to decode statuses and payload
            // extents; the body is then wrapped in `Bytes` ONCE so every
            // block of the batch is a zero-copy slice of it.
            let decoded = decode_get_many(&body, &pending);
            match decoded {
                Ok((results, deferred)) => {
                    let shared = Bytes::from(body);
                    for (slot, result) in results {
                        out[slot] = result.map(|(off, len)| shared.slice(off..off + len));
                    }
                    if deferred.len() >= pending.len() {
                        // No progress: a server must answer at least one
                        // item per round. Treat as a framing bug.
                        let e = Error::Transport("batched get made no progress".into());
                        for (slot, _) in deferred {
                            out[slot] = Err(e.clone());
                        }
                        return out;
                    }
                    pending = deferred;
                }
                Err(e) => {
                    for &(slot, _) in &pending {
                        out[slot] = Err(e.clone());
                    }
                    return out;
                }
            }
        }
        out
    }

    /// Per item, transport loss is an `Err`, distinguishable from `Ok(0)`
    /// ("absent") — the remote outcome of a lost delete is genuinely
    /// unknown.
    fn delete_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<u64>> {
        let Some(&(ei, local)) = self.route.get(provider) else {
            let e = Error::Internal(format!("provider index {provider} out of range"));
            return ids.iter().map(|_| Err(e.clone())).collect();
        };
        self.stats
            .batched_items
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let pool = &self.endpoints[ei].pool;
        let mut req = WireWriter::new();
        req.put_u8(block_tag::DELETE_MANY);
        req.put_u64(local);
        req.put_u64(ids.len() as u64);
        for id in ids {
            req.put_u64(id.raw());
        }
        match call(pool, req).and_then(|payload| {
            let mut r = payload.reader();
            decode_batch_items(&mut r, ids.len(), |r| r.get_u64())
        }) {
            Ok(results) => results,
            Err(e) => ids.iter().map(|_| Err(e.clone())).collect(),
        }
    }

    /// Transport failures degrade to `0` — counted on
    /// `rpc_degraded_diagnostics`.
    fn block_count(&self, provider: usize) -> usize {
        let Some((pool, req)) = self.provider_request(block_tag::BLOCK_COUNT, provider) else {
            return 0;
        };
        match call(pool, req).and_then(|payload| payload.reader().get_u64()) {
            Ok(n) => n as usize,
            Err(e) => {
                degraded(&self.stats, "BlockStore::block_count", &e);
                0
            }
        }
    }

    /// Transport failures degrade to `0` — counted on
    /// `rpc_degraded_diagnostics`.
    fn bytes_stored(&self, provider: usize) -> u64 {
        let Some((pool, req)) = self.provider_request(block_tag::BYTES_STORED, provider) else {
            return 0;
        };
        match call(pool, req).and_then(|payload| payload.reader().get_u64()) {
            Ok(n) => n,
            Err(e) => {
                degraded(&self.stats, "BlockStore::bytes_stored", &e);
                0
            }
        }
    }

    /// Transport failures degrade to `(0, 0)` — counted on
    /// `rpc_degraded_diagnostics`.
    fn op_counts(&self, provider: usize) -> (u64, u64) {
        let Some((pool, req)) = self.provider_request(block_tag::OP_COUNTS, provider) else {
            return (0, 0);
        };
        match call(pool, req).and_then(|payload| {
            let mut r = payload.reader();
            Ok((r.get_u64()?, r.get_u64()?))
        }) {
            Ok(counts) => counts,
            Err(e) => {
                degraded(&self.stats, "BlockStore::op_counts", &e);
                (0, 0)
            }
        }
    }
}

// --- meta store -------------------------------------------------------------

/// [`MetaStore`] over a remote metadata DHT service.
pub struct RpcMetaStore {
    pool: MuxPool,
    shard_count: usize,
    stats: Arc<EngineStats>,
}

impl RpcMetaStore {
    /// [`Self::connect_with`] with the default connection budget.
    pub fn connect(addr: SocketAddr, stats: Arc<EngineStats>) -> Result<Self> {
        Self::connect_with(addr, stats, DEFAULT_RPC_CLIENT_CONNECTIONS)
    }

    /// Connects (`budget` multiplexed connections) and caches the fixed
    /// shard count. `stats` receives the adapter's round-trip/batch
    /// accounting.
    pub fn connect_with(addr: SocketAddr, stats: Arc<EngineStats>, budget: usize) -> Result<Self> {
        let pool = MuxPool::connect_with(addr, Arc::clone(&stats), budget)?;
        let mut req = WireWriter::new();
        req.put_u8(meta_tag::SHARD_COUNT);
        let payload = call(&pool, req)?;
        let shard_count = payload.reader().get_u64()? as usize;
        Ok(Self {
            pool,
            shard_count,
            stats,
        })
    }

    /// Runs one metadata batch frame per `META_BATCH_MAX`-item chunk:
    /// encodes the chunk with `encode`, decodes per-item payloads with
    /// `decode`. A transport failure fails that chunk's items only.
    fn meta_batched<I, T>(
        &self,
        tag: u8,
        items: &[I],
        mut encode: impl FnMut(&mut WireWriter, &I),
        mut decode: impl FnMut(&mut WireReader<'_>) -> Result<T>,
    ) -> Vec<Result<T>> {
        self.stats
            .batched_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let mut out = Vec::with_capacity(items.len());
        for chunk in items.chunks(META_BATCH_MAX) {
            let req = batch_request(tag, chunk, &mut encode);
            out.extend(batch_results(
                self.pool.call(&req),
                chunk.len(),
                &mut decode,
            ));
        }
        out
    }
}

/// One vectored metadata request frame: tag, item count, items.
fn batch_request<I>(
    tag: u8,
    chunk: &[I],
    mut encode: impl FnMut(&mut WireWriter, &I),
) -> WireWriter {
    let mut req = WireWriter::new();
    req.put_u8(tag);
    req.put_u64(chunk.len() as u64);
    for item in chunk {
        encode(&mut req, item);
    }
    req
}

/// The per-item results of one vectored frame's response; a frame whose
/// exchange failed fails every one of its `n` items.
fn batch_results<T>(
    response: Result<Vec<u8>>,
    n: usize,
    decode: impl FnMut(&mut WireReader<'_>) -> Result<T>,
) -> Vec<Result<T>> {
    let decoded = response.and_then(|body| {
        let mut r = decode_response(&body)?;
        decode_batch_items(&mut r, n, decode)
    });
    match decoded {
        Ok(results) => results,
        Err(e) => (0..n).map(|_| Err(e.clone())).collect(),
    }
}

fn put_node(w: &mut WireWriter, (key, node): &(NodeKey, TreeNode)) {
    wire::put_node_key(w, key);
    wire::put_tree_node(w, node);
}

impl MetaStore for RpcMetaStore {
    /// The one single-item override in the tree: the provided helper maps
    /// an unknown outcome to `false` silently, and a lost remote delete
    /// must stay counted on `rpc_degraded_diagnostics`.
    // lint:allow(vectored-only): keeps the degraded-diagnostics count for a lost single delete; the body is its own delete_many
    fn delete(&self, key: &NodeKey) -> bool {
        let lost = |e| degraded(&self.stats, "MetaStore::delete", &e);
        let outcome = single(self.delete_many(std::slice::from_ref(key)));
        outcome.map_err(lost).unwrap_or(false)
    }

    /// One frame per batch: how a writer publishes a whole tree level in a
    /// single round trip. Per-item failures (e.g. a metadata conflict on
    /// one node) come back as that item's own error.
    fn put_many(&self, items: &[(NodeKey, TreeNode)]) -> Vec<Result<()>> {
        self.meta_batched(meta_tag::PUT_MANY, items, put_node, |_| Ok(()))
    }

    /// Still one frame per level (per `META_BATCH_MAX` chunk of one), but
    /// all of them are on the wire before the first response is awaited:
    /// a publish of `d` levels costs one overlapped wait, not `d`
    /// dependent round trips. Every level is attempted.
    fn put_levels(&self, levels: &[Vec<(NodeKey, TreeNode)>]) -> Vec<Vec<Result<()>>> {
        let chunks: Vec<(usize, &[(NodeKey, TreeNode)])> = levels
            .iter()
            .enumerate()
            .flat_map(|(i, level)| level.chunks(META_BATCH_MAX).map(move |chunk| (i, chunk)))
            .collect();
        let items: usize = levels.iter().map(Vec::len).sum();
        self.stats
            .batched_items
            .fetch_add(items as u64, Ordering::Relaxed);
        let requests: Vec<WireWriter> = chunks
            .iter()
            .map(|(_, chunk)| batch_request(meta_tag::PUT_MANY, chunk, put_node))
            .collect();
        let mut out: Vec<Vec<Result<()>>> = levels
            .iter()
            .map(|level| Vec::with_capacity(level.len()))
            .collect();
        for ((level, chunk), response) in chunks.iter().zip(self.pool.call_all(&requests)) {
            out[*level].extend(batch_results(response, chunk.len(), |_| Ok(())));
        }
        out
    }

    /// One frame per batch: a read descent fetches each tree level in a
    /// single round trip.
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        self.meta_batched(
            meta_tag::GET_MANY,
            keys,
            wire::put_node_key,
            wire::get_tree_node,
        )
    }

    /// One frame per batch: GC releases a whole cascade wave per round
    /// trip. Per item, transport loss is an `Err` ("outcome unknown").
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        self.meta_batched(meta_tag::DELETE_MANY, keys, wire::put_node_key, |r| {
            r.get_bool()
        })
    }

    fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Transport failures degrade to `0` — counted on
    /// `rpc_degraded_diagnostics`.
    fn node_count(&self) -> usize {
        let mut req = WireWriter::new();
        req.put_u8(meta_tag::NODE_COUNT);
        match call(&self.pool, req).and_then(|payload| payload.reader().get_u64()) {
            Ok(n) => n as usize,
            Err(e) => {
                degraded(&self.stats, "MetaStore::node_count", &e);
                0
            }
        }
    }

    /// Transport failures degrade to an empty vector — counted on
    /// `rpc_degraded_diagnostics`.
    fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
        let mut req = WireWriter::new();
        req.put_u8(meta_tag::SHARD_STATS);
        match call(&self.pool, req).and_then(|payload| {
            let mut r = payload.reader();
            let n = r.get_u64()? as usize;
            let mut out = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                out.push((r.get_u64()? as usize, r.get_u64()?, r.get_u64()?));
            }
            r.finish()?;
            Ok(out)
        }) {
            Ok(stats) => stats,
            Err(e) => {
                degraded(&self.stats, "MetaStore::shard_stats", &e);
                Vec::new()
            }
        }
    }

    /// Best-effort over the wire (a crash-injection hook; transport
    /// failures are ignored).
    fn crash_shard(&self, shard: usize) {
        let mut req = WireWriter::new();
        req.put_u8(meta_tag::CRASH_SHARD);
        req.put_u64(shard as u64);
        let _ = call(&self.pool, req);
    }
}

// --- version service --------------------------------------------------------

/// [`VersionService`] over a remote version manager.
pub struct RpcVersionService {
    pool: MuxPool,
    block_size: u64,
}

impl RpcVersionService {
    /// [`Self::connect_with`] with the default connection budget.
    pub fn connect(addr: SocketAddr, stats: Arc<EngineStats>) -> Result<Self> {
        Self::connect_with(addr, stats, DEFAULT_RPC_CLIENT_CONNECTIONS)
    }

    /// Connects (`budget` multiplexed connections) and caches the fixed
    /// block size. `stats` receives the adapter's round-trip accounting.
    pub fn connect_with(addr: SocketAddr, stats: Arc<EngineStats>, budget: usize) -> Result<Self> {
        let pool = MuxPool::connect_with(addr, stats, budget)?;
        let mut req = WireWriter::new();
        req.put_u8(version_tag::BLOCK_SIZE);
        let payload = call(&pool, req)?;
        let block_size = payload.reader().get_u64()?;
        Ok(Self { pool, block_size })
    }

    fn blob_request(tag: u8, blob: BlobId) -> WireWriter {
        let mut req = WireWriter::new();
        req.put_u8(tag);
        req.put_u64(blob.raw());
        req
    }
}

impl VersionService for RpcVersionService {
    fn block_size(&self) -> u64 {
        self.block_size
    }

    fn create_blob(&self) -> Result<BlobId> {
        let mut req = WireWriter::new();
        req.put_u8(version_tag::CREATE_BLOB);
        let payload = call(&self.pool, req)?;
        Ok(BlobId::new(payload.reader().get_u64()?))
    }

    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        let mut req = Self::blob_request(version_tag::BRANCH, parent);
        req.put_u64(at.raw());
        let payload = call(&self.pool, req)?;
        Ok(BlobId::new(payload.reader().get_u64()?))
    }

    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        let mut req = Self::blob_request(version_tag::ASSIGN, blob);
        wire::put_write_intent(&mut req, intent);
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let ticket = wire::get_write_ticket(&mut r)?;
        r.finish()?;
        Ok(ticket)
    }

    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        let mut req = Self::blob_request(version_tag::COMMIT, blob);
        req.put_u64(version.raw());
        call(&self.pool, req)?;
        Ok(())
    }

    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        let req = Self::blob_request(version_tag::LATEST, blob);
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let out = (Version::new(r.get_u64()?), r.get_u64()?);
        r.finish()?;
        Ok(out)
    }

    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        let mut req = Self::blob_request(version_tag::SNAPSHOT_INFO, blob);
        req.put_u64(version.raw());
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let info = wire::get_snapshot_info(&mut r)?;
        r.finish()?;
        Ok(info)
    }

    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        let req = Self::blob_request(version_tag::CHAIN, blob);
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let chain = wire::get_log_chain(&mut r)?;
        r.finish()?;
        Ok(chain)
    }

    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        let mut req = Self::blob_request(version_tag::WAIT_REVEALED, blob);
        req.put_u64(version.raw());
        wire::put_duration(&mut req, timeout);
        // The server enforces the timeout and answers with Ok or
        // Error::Timeout; this call parks on its waiter slot only, so
        // other requests keep pipelining on the same connection.
        call(&self.pool, req)?;
        Ok(())
    }

    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        let req = Self::blob_request(version_tag::PENDING_VERSIONS, blob);
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let versions = wire::get_versions(&mut r)?;
        r.finish()?;
        Ok(versions)
    }

    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        let req = Self::blob_request(version_tag::DELETE_BLOB, blob);
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let roots = wire::get_node_keys(&mut r)?;
        r.finish()?;
        Ok(roots)
    }

    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        let mut req = Self::blob_request(version_tag::COLLECT_BEFORE, blob);
        req.put_u64(keep_from.raw());
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let roots = wire::get_node_keys(&mut r)?;
        r.finish()?;
        Ok(roots)
    }
}

// --- placement service --------------------------------------------------------

/// [`PlacementService`] over a remote provider manager.
///
/// This is the control-plane half of the deployment: N independent client
/// processes allocate against *one* hosted load table, so global load
/// accounting holds across processes (the paper's provider manager is a
/// shared service, not client state). Round trips are metered on
/// [`EngineStats::control_round_trips`] — the data-path
/// `port_round_trips` invariants are unaffected.
pub struct RpcPlacementService {
    pool: MuxPool,
    /// Connect-time provider count, advanced locally when a registration
    /// through this adapter grows the pool — `provider_count` is a plain
    /// (non-`Result`) shape accessor and must not fail on transport loss.
    count: AtomicUsize,
}

impl RpcPlacementService {
    /// [`Self::connect_with`] with the default connection budget.
    pub fn connect(addr: SocketAddr, stats: Arc<EngineStats>) -> Result<Self> {
        Self::connect_with(addr, stats, DEFAULT_RPC_CLIENT_CONNECTIONS)
    }

    /// Connects (`budget` multiplexed connections) and caches the
    /// provider count. `stats` receives the adapter's round-trip
    /// accounting on `control_round_trips`.
    pub fn connect_with(addr: SocketAddr, stats: Arc<EngineStats>, budget: usize) -> Result<Self> {
        let pool = MuxPool::connect_control(addr, stats, budget)?;
        let mut req = WireWriter::new();
        req.put_u8(placement_tag::PROVIDER_COUNT);
        let payload = call(&pool, req)?;
        let count = payload.reader().get_u64()? as usize;
        Ok(Self {
            pool,
            count: AtomicUsize::new(count),
        })
    }
}

impl PlacementService for RpcPlacementService {
    fn provider_count(&self) -> usize {
        self.count.load(Ordering::SeqCst)
    }

    fn allocate(&self, n_blocks: usize, replication: usize) -> Result<Vec<BlockAllocation>> {
        let mut req = WireWriter::new();
        req.put_u8(placement_tag::ALLOCATE);
        req.put_u64(n_blocks as u64);
        req.put_u64(replication as u64);
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let n = r.get_u64()? as usize;
        let mut allocs = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            allocs.push(wire::get_block_allocation(&mut r)?);
        }
        r.finish()?;
        Ok(allocs)
    }

    fn release_many(&self, providers: &[usize]) -> Result<()> {
        let mut req = WireWriter::new();
        req.put_u8(placement_tag::RELEASE_MANY);
        req.put_u64(providers.len() as u64);
        for &p in providers {
            req.put_u64(p as u64);
        }
        call(&self.pool, req)?;
        Ok(())
    }

    fn load_vector(&self) -> Result<Vec<u64>> {
        let mut req = WireWriter::new();
        req.put_u8(placement_tag::LOAD_VECTOR);
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let n = r.get_u64()? as usize;
        let mut loads = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            loads.push(r.get_u64()?);
        }
        r.finish()?;
        Ok(loads)
    }

    fn register_provider(&self, node: NodeId) -> Result<usize> {
        let mut req = WireWriter::new();
        req.put_u8(placement_tag::REGISTER_PROVIDER);
        req.put_u64(node.raw());
        let payload = call(&self.pool, req)?;
        let idx = payload.reader().get_u64()? as usize;
        self.count.fetch_max(idx + 1, Ordering::SeqCst);
        Ok(idx)
    }

    fn heartbeat(&self, provider: usize) -> Result<u64> {
        let mut req = WireWriter::new();
        req.put_u8(placement_tag::HEARTBEAT);
        req.put_u64(provider as u64);
        call(&self.pool, req)?.reader().get_u64()
    }
}

// --- gc service ---------------------------------------------------------------

/// [`GcService`] over a remote [`blobseer_core::gc::GcHost`].
///
/// Distributed refcounts: a node shared by snapshots written through two
/// different client processes has *one* count on the hosted tracker.
/// Cascades run server-side, next to the metadata and block services; the
/// returned [`GcReport`] is mirrored into this deployment's
/// [`EngineStats`] so client-visible GC counters keep working. Round
/// trips are metered on `control_round_trips`.
pub struct RpcGcService {
    pool: MuxPool,
    stats: Arc<EngineStats>,
}

impl RpcGcService {
    /// [`Self::connect_with`] with the default connection budget.
    pub fn connect(addr: SocketAddr, stats: Arc<EngineStats>) -> Result<Self> {
        Self::connect_with(addr, stats, DEFAULT_RPC_CLIENT_CONNECTIONS)
    }

    /// Connects (`budget` multiplexed connections). `stats` receives the
    /// adapter's round-trip accounting on `control_round_trips` plus the
    /// mirrored per-cascade GC counters.
    pub fn connect_with(addr: SocketAddr, stats: Arc<EngineStats>, budget: usize) -> Result<Self> {
        let pool = MuxPool::connect_control(addr, Arc::clone(&stats), budget)?;
        Ok(Self { pool, stats })
    }
}

impl GcService for RpcGcService {
    fn inc_nodes(&self, keys: &[NodeKey]) -> Result<()> {
        let mut req = WireWriter::new();
        req.put_u8(gc_tag::INC_NODES);
        wire::put_node_keys(&mut req, keys);
        call(&self.pool, req)?;
        Ok(())
    }

    fn release_roots(&self, roots: &[NodeKey]) -> Result<GcReport> {
        let mut req = WireWriter::new();
        req.put_u8(gc_tag::RELEASE_ROOTS);
        wire::put_node_keys(&mut req, roots);
        let payload = call(&self.pool, req)?;
        let mut r = payload.reader();
        let report = wire::get_gc_report(&mut r)?;
        r.finish()?;
        // Mirror the server-side cascade into this deployment's counters,
        // so `delete_blob`/`gc_before` observability is hosting-agnostic.
        EngineStats::add(&self.stats.meta_nodes_collected, report.nodes_deleted);
        EngineStats::add(&self.stats.blocks_collected, report.blocks_deleted);
        EngineStats::add(&self.stats.gc_untracked_releases, report.untracked_releases);
        Ok(report)
    }

    fn node_count(&self, key: &NodeKey) -> Result<u64> {
        let mut req = WireWriter::new();
        req.put_u8(gc_tag::NODE_COUNT);
        wire::put_node_key(&mut req, key);
        call(&self.pool, req)?.reader().get_u64()
    }

    fn tracked_nodes(&self) -> Result<usize> {
        let mut req = WireWriter::new();
        req.put_u8(gc_tag::TRACKED_NODES);
        Ok(call(&self.pool, req)?.reader().get_u64()? as usize)
    }
}
