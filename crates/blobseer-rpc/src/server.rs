//! The RPC server: hosts one service port behind a
//! `std::net::TcpListener`.
//!
//! One [`RpcServer`] serves exactly one port — a [`BlockStore`], a
//! [`MetaStore`], a [`VersionService`], a [`PlacementService`] or a
//! [`GcService`] — on its own listener, which is what lets a deployment
//! place data providers, the metadata DHT, the version manager and the
//! control-plane services on separate "nodes" (separate listeners,
//! separate thread groups), mirroring the paper's process decomposition
//! (§III-B).
//!
//! Concurrency model: run to completion, one thread per connection. The
//! accept loop runs on its own thread; each accepted connection gets one
//! thread that decodes a frame and dispatches it — no hand-off, no queue,
//! no wake-up between decode and dispatch. Connections are served in
//! parallel (a slow handler delays later requests on its own connection
//! only), and their number is bounded by the clients' connection budgets
//! (`rpc_client_connections` per endpoint). Backpressure is TCP flow
//! control on the one connection: a thread busy with a request reads no
//! further frames. Every response frame echoes the request id of the
//! frame it answers, so one connection can carry many in-flight requests
//! — the muxed client depends on it. Known-parking calls
//! (`wait_revealed`) are not served in line: the connection thread
//! offloads them to a dedicated thread, so a request that deliberately
//! blocks for its whole timeout does not hold up the requests behind it:
//! their answers overtake its own, which its thread writes the moment it
//! is ready.
//!
//! Answers to a burst leave in one write. A pipelining client (a tree
//! publish writes one frame per level in one go) puts many requests into
//! the connection's read buffer at once; the connection thread holds the
//! answers of the requests it served and writes them as one run of frames
//! as soon as the buffer holds no complete next request — before it could
//! block reading the network — or once they pass 64 KiB. An answer thus
//! waits at most for the dispatch of the requests already in memory
//! behind it, never for the network, and a large answer (a block fetch)
//! is never held at all.
//!
//! Shutdown is graceful and deterministic: [`RpcServer::shutdown`] stops
//! the accept loop (waking it with a loopback connection), closes every
//! open connection (a connection thread finishes the request it is
//! serving, then its next read fails), and joins the accept thread, the
//! connection threads and the offload threads.
//!
//! Every handler arm decodes its whole argument tuple with one call to
//! [`Wire::get`] — a call that also refuses trailing bytes — runs the
//! port method and encodes the answer with [`Wire::put`]; only the block
//! payload arms (`PUT_MANY`, `GET_MANY`) decode and encode by hand: a
//! `PUT_MANY`'s blocks are slices of the buffer the request was read
//! into, and a `GET_MANY` answer splices each fetched block into its frame
//! by reference ([`wire::Body::put_bytes`]), so the socket write takes it
//! from where the store keeps it.

use crate::wire::{self, batch_status, Body, FrameBody};
use blobseer_core::meta::key::NodeKey;
use blobseer_core::meta::node::TreeNode;
use blobseer_core::ports::{BlockStore, GcService, MetaStore, PlacementService, VersionService};
use blobseer_types::wire::{Wire, WireReader};
use blobseer_types::{BlockId, Error, NodeId, Result};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The service a listener hosts.
#[derive(Clone)]
pub enum RpcService {
    /// A data-provider set (any [`BlockStore`] adapter).
    Block(Arc<dyn BlockStore>),
    /// A metadata DHT (any [`MetaStore`] adapter).
    Meta(Arc<dyn MetaStore>),
    /// A version manager (any [`VersionService`] adapter).
    Version(Arc<dyn VersionService>),
    /// A provider manager (any [`PlacementService`] adapter) — the
    /// control-plane authority for block placement and load accounting.
    Placement(Arc<dyn PlacementService>),
    /// A GC refcount service (any [`GcService`] adapter) — the
    /// control-plane authority for node refcounts and cascades.
    Gc(Arc<dyn GcService>),
}

impl RpcService {
    fn name(&self) -> &'static str {
        match self {
            RpcService::Block(_) => "block",
            RpcService::Meta(_) => "meta",
            RpcService::Version(_) => "version",
            RpcService::Placement(_) => "placement",
            RpcService::Gc(_) => "gc",
        }
    }
}

/// A running RPC server: one listener, one hosted service, one thread
/// per open connection.
pub struct RpcServer {
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// Concurrent-request tracker, shareable across every server of a
/// deployment: counts the requests currently between frame decode and
/// response write, and remembers the highest count ever seen. The high
/// watermark is the *structural* proof of client-side overlap — it rises
/// above 1 only where requests are served at the same time, which takes
/// frames outstanding on more than one connection. A connection's frames
/// are served one after another, so a run pipelined on one connection
/// (`MetaStore::put_levels` writes every tree level's frame before it
/// awaits the first answer) still counts one request at a time. For a
/// single client, only the fan-out executor (`client_io_threads > 1`)
/// overlaps requests, across the per-provider batches of a data phase or
/// a fetch wave; everything a one-thread client does keeps the watermark
/// at 1.
#[derive(Debug, Default)]
pub struct InFlight {
    cur: AtomicU64,
    high: AtomicU64,
}

impl InFlight {
    /// Fresh tracker (wrap in an `Arc` to share across servers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests currently being served.
    pub fn current(&self) -> u64 {
        self.cur.load(Ordering::SeqCst)
    }

    /// Highest number of simultaneously in-flight requests ever observed.
    pub fn high_watermark(&self) -> u64 {
        self.high.load(Ordering::SeqCst)
    }

    fn enter(self: &Arc<Self>) -> InFlightGuard {
        let now = self.cur.fetch_add(1, Ordering::SeqCst) + 1;
        self.high.fetch_max(now, Ordering::SeqCst);
        InFlightGuard(Arc::clone(self))
    }
}

/// RAII span of one tracked request; decrements on drop (after the
/// request was handled, before its response frame is held or written —
/// see [`respond`]).
struct InFlightGuard(Arc<InFlight>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.cur.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Bytes of held answers at which a connection thread writes them instead
/// of serving the next buffered request first: a burst of small answers
/// leaves in one write, a large one is never held back.
const HOLD_BYTES_MAX: usize = 64 * 1024;

/// State shared between the accept loop, the connection threads, the
/// offload threads and `shutdown()`.
///
/// The registries are bounded by the number of *live* connections and
/// in-flight offloads, not by the totals ever seen: a connection thread
/// removes its own stream clone when its peer disconnects, and finished
/// thread handles are reaped on every accept / offload spawn — a
/// long-running server does not accumulate fds or join handles from
/// churn.
struct Shared {
    /// Set once by `shutdown()`; the accept loop re-checks it after waking.
    stop: AtomicBool,
    /// Clones of the currently open streams (keyed by connection id), so
    /// shutdown can unblock connection threads by closing the sockets
    /// under them.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Dedicated threads for known-parking requests (`wait_revealed`).
    offloads: Mutex<Vec<JoinHandle<()>>>,
    /// Deployment-wide in-flight tracker, if the booter wants the
    /// overlap watermark observed.
    in_flight: Option<Arc<InFlight>>,
    /// Request frames served (one per dispatched request, batched or not)
    /// — the server-side round-trip counter the batching tests read.
    frames: AtomicU64,
    /// Connections accepted over the server's lifetime (the shutdown
    /// wake-up self-connect is not counted). The mux tests read this to
    /// prove 64 concurrent requests ride a handful of sockets.
    accepted: AtomicU64,
    /// Requests whose handler panicked (answered `Error::Internal`).
    panics: AtomicU64,
}

/// Where a server listens and what it reports to.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Where to listen. The default is an ephemeral loopback port; an
    /// explicit address lets a test restart a server on the port its
    /// clients already hold muxed connections to.
    pub addr: SocketAddr,
    /// Counts every request this server decodes until its response is
    /// written. Boot all servers of a deployment with one tracker and its
    /// high watermark proves (or disproves) client-side request overlap.
    pub in_flight: Option<Arc<InFlight>>,
}

impl Default for ServerOptions {
    fn default() -> Self {
        Self {
            addr: SocketAddr::from((Ipv4Addr::LOCALHOST, 0)),
            in_flight: None,
        }
    }
}

impl RpcServer {
    /// Binds `opts.addr` and starts serving `service` on it: an accept
    /// thread now, and one thread per connection as clients dial in.
    pub fn spawn(service: RpcService, opts: ServerOptions) -> io::Result<Self> {
        let ServerOptions { addr, in_flight } = opts;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            conns: Mutex::named(HashMap::new(), "rpc.server.conns"),
            handlers: Mutex::named(Vec::new(), "rpc.server.handlers"),
            offloads: Mutex::named(Vec::new(), "rpc.server.offloads"),
            in_flight,
            frames: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let name = format!("rpc-{}-{}", service.name(), addr.port());
            std::thread::Builder::new()
                .name(name)
                .spawn(move || accept_loop(listener, service, shared))?
        };
        Ok(Self {
            addr,
            accept_thread: Some(accept_thread),
            shared,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request frames served so far (every dispatched request counts one,
    /// whether it carried a single operation or a whole batch). With the
    /// vectored port API this grows with O(levels + providers) per client
    /// operation, not O(blocks + tree nodes).
    pub fn frames_served(&self) -> u64 {
        self.shared.frames.load(Ordering::Relaxed)
    }

    /// Connections this server has accepted over its lifetime. With a
    /// muxed client this stays at the client's connection budget no
    /// matter how many requests are in flight.
    pub fn connections_accepted(&self) -> u64 {
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Requests whose handler panicked. Each was answered with
    /// [`Error::Internal`] and cost neither its connection nor the thread
    /// serving it.
    pub fn handler_panics(&self) -> u64 {
        self.shared.panics.load(Ordering::Relaxed)
    }

    /// Stops accepting, closes every open connection, and joins the
    /// accept, connection and offload threads — each connection thread
    /// after the request it is serving. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.shared.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the accept loop: it is blocked in accept(); a throwaway
        // connection makes it re-check the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock connection reads by closing the sockets under them.
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handlers: Vec<_> = self.shared.handlers.lock().drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
        let offloads: Vec<_> = self.shared.offloads.lock().drain(..).collect();
        for h in offloads {
            let _ = h.join();
        }
    }
}

impl Drop for RpcServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, service: RpcService, shared: Arc<Shared>) {
    let mut next_conn_id = 0u64;
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            return; // the wake-up connection, or a late client
        }
        shared.accepted.fetch_add(1, Ordering::Relaxed);
        // Reap connection threads whose connections already ended
        // (dropping a finished JoinHandle just releases it).
        shared.handlers.lock().retain(|h| !h.is_finished());
        let _ = stream.set_nodelay(true);
        // The connection thread reads the stream and answers through a
        // cloned write half behind a mutex, which it shares with its
        // offload threads (responses interleave, never within a frame).
        let writer = match stream.try_clone() {
            Ok(w) => Arc::new(Mutex::named(w, "rpc.server.writer")),
            Err(_) => continue,
        };
        let conn_id = next_conn_id;
        next_conn_id += 1;
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(conn_id, clone);
        }
        let service = service.clone();
        let conn_shared = Arc::clone(&shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("rpc-conn".into())
            .spawn(move || {
                connection_loop(stream, writer, service, &conn_shared);
                // Deregister on the way out so the fd closes with the
                // peer, not at server shutdown.
                conn_shared.conns.lock().remove(&conn_id);
            })
        {
            shared.handlers.lock().push(handle);
        }
    }
}

/// Serves one connection's frames until EOF or a transport error: each
/// request is dispatched here, in arrival order, except the known-parking
/// calls, which go to a dedicated offload thread. Service errors are
/// *answers* (encoded in the response envelope), never reasons to drop
/// the connection.
fn connection_loop(
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    service: RpcService,
    shared: &Arc<Shared>,
) {
    let mut reader = io::BufReader::new(stream);
    serve_frames(&mut reader, &writer, |req_id, body| {
        shared.frames.fetch_add(1, Ordering::Relaxed);
        let track = shared.in_flight.as_ref().map(|t| t.enter());
        if parks_a_thread(&service, &body) {
            offload(&service, shared, Arc::clone(&writer), req_id, body, track);
            return None;
        }
        Some(respond(&service, shared, &body, track))
    });
}

/// Reads request frames until EOF or a transport error and writes the
/// answers `answer` gives (`None`: the request is answered elsewhere).
/// Answers are held while `reader`'s buffer holds a complete next request
/// and written as one run of frames, in arrival order, when it holds none
/// or when they reach [`HOLD_BYTES_MAX`] — so an answer never waits on the
/// network. The request body is the buffer the read filled, shareable so
/// a block store can keep slices of it instead of copies.
fn serve_frames<R: Read, W: Write, B: FrameBody>(
    reader: &mut io::BufReader<R>,
    writer: &Mutex<W>,
    mut answer: impl FnMut(u64, Bytes) -> Option<B>,
) {
    let mut held: Vec<(u64, B)> = Vec::new();
    let mut held_bytes = 0;
    let write_held = |held: &mut Vec<(u64, B)>| {
        if !held.is_empty() {
            let frames: Vec<(u64, &B)> = held.iter().map(|(id, body)| (*id, body)).collect();
            // A failed write surfaces as the next read's failure.
            let _ = wire::write_frames(&mut *writer.lock(), &frames);
            held.clear();
        }
    };
    // Ends at EOF or on a transport error: the peer is gone or the socket
    // was closed under us.
    while let Ok(Some((req_id, body))) = wire::read_frame(reader) {
        if let Some(response) = answer(req_id, Bytes::from(body)) {
            held_bytes += response.wire_len();
            held.push((req_id, response));
        }
        if held_bytes >= HOLD_BYTES_MAX || !wire::complete_frame_buffered(reader.buffer()) {
            write_held(&mut held);
            held_bytes = 0;
        }
    }
    write_held(&mut held);
}

/// Whether a request is one that deliberately blocks server-side for up
/// to its whole timeout (`wait_revealed`). Such requests must never
/// hold up the connection they arrived on.
fn parks_a_thread(service: &RpcService, body: &[u8]) -> bool {
    matches!(service, RpcService::Version(_)) && body.first() == Some(&version_tag::WAIT_REVEALED)
}

/// Serves a known-parking request on its own thread, which writes the
/// answer (echoing `req_id`) the moment it is ready, under the
/// connection's writer lock. If the thread cannot be spawned (resource
/// exhaustion) the request is dropped; its client sees the outcome when
/// the connection eventually closes.
fn offload(
    service: &RpcService,
    shared: &Arc<Shared>,
    writer: Arc<Mutex<TcpStream>>,
    req_id: u64,
    body: Bytes,
    track: Option<InFlightGuard>,
) {
    shared.offloads.lock().retain(|h| !h.is_finished());
    let service = service.clone();
    let offload_shared = Arc::clone(shared);
    if let Ok(handle) = std::thread::Builder::new()
        .name("rpc-wait".into())
        .spawn(move || {
            let response = respond(&service, &offload_shared, &body, track);
            let _ = wire::write_frames(&mut *writer.lock(), &[(req_id, &response)]);
        })
    {
        shared.offloads.lock().push(handle);
    }
}

/// Dispatches one request and returns its response body. A handler that
/// panics is answered [`Error::Internal`] and counted: the connection and
/// its thread both serve the next request.
fn respond(
    service: &RpcService,
    shared: &Shared,
    body: &Bytes,
    track: Option<InFlightGuard>,
) -> Body {
    let response =
        catch_unwind(AssertUnwindSafe(|| dispatch(service, body))).unwrap_or_else(|panic| {
            shared.panics.fetch_add(1, Ordering::Relaxed);
            let why = (panic.downcast_ref::<&str>().copied())
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string payload");
            let e = Error::Internal(format!("{} handler panicked: {why}", service.name()));
            wire::response(Err(e))
        });
    // End the tracked span before the response is held or leaves: once
    // the frame is on the wire the client may already be issuing its next
    // request to another server, and a serial client overlapping with our
    // own write-back would read as fan-out in the watermark.
    drop(track);
    response
}

fn dispatch(service: &RpcService, body: &Bytes) -> Body {
    let mut r = WireReader::new(body);
    let result = r.get_u8().and_then(|tag| match service {
        RpcService::Block(store) => handle_block(&**store, tag, r, body),
        RpcService::Meta(store) => handle_meta(&**store, tag, r),
        RpcService::Version(vm) => handle_version(&**vm, tag, r),
        RpcService::Placement(pm) => handle_placement(&**pm, tag, r),
        RpcService::Gc(gc) => handle_gc(&**gc, tag, r),
    });
    wire::response(result)
}

/// Decodes a request's arguments — the rest of its body after the tag —
/// with `decode`, which must consume all of it: trailing bytes are a
/// framing bug on the peer.
fn request<A>(
    mut r: WireReader<'_>,
    decode: impl FnOnce(&mut WireReader<'_>) -> Result<A>,
) -> Result<A> {
    let args = decode(&mut r)?;
    r.finish()?;
    Ok(args)
}

/// Serves one call: decodes its argument tuple, runs it, answers.
fn serve<A: Wire, T: Wire>(r: WireReader<'_>, call: impl FnOnce(A) -> Result<T>) -> Result<Body> {
    Ok(answer(&call(request(r, A::get)?)?))
}

/// `value`, encoded behind the response envelope.
fn answer<T: Wire>(value: &T) -> Body {
    let mut w = wire::response_writer();
    value.put(&mut w);
    w
}

/// Validates a provider index against the hosted store — a malformed
/// request must answer with an error, not panic the handler.
fn check_provider(store: &dyn BlockStore, p: usize) -> Result<usize> {
    if p >= store.len() {
        return Err(Error::Internal(format!(
            "provider index {p} out of range (store has {})",
            store.len()
        )));
    }
    Ok(p)
}

/// Method tags of the block service (mirrored by `client::RpcBlockStore`).
///
/// Tags 1, 2 and 4 were the single-item `PUT`/`GET`/`DELETE`, retired with
/// the single-item port methods: a one-item call is a `*_MANY` frame of
/// one. The numbers stay unused so surviving tags never move, and a frame
/// carrying one answers like any unknown tag.
pub(crate) mod block_tag {
    pub const DESCRIBE: u8 = 0;
    pub const CONTAINS: u8 = 3;
    pub const BLOCK_COUNT: u8 = 5;
    pub const BYTES_STORED: u8 = 6;
    pub const OP_COUNTS: u8 = 7;
    pub const PUT_MANY: u8 = 8;
    pub const GET_MANY: u8 = 9;
    pub const DELETE_MANY: u8 = 10;
    /// The calls that change nothing on the server: a client may resend
    /// one whose connection closed before it was answered.
    pub const READ_ONLY: &[u8] = &[
        DESCRIBE,
        CONTAINS,
        BLOCK_COUNT,
        BYTES_STORED,
        OP_COUNTS,
        GET_MANY,
    ];
}

/// Reads the next length-prefixed byte string as a zero-copy slice of
/// `body`, the request buffer `r` is decoding. The slice keeps the whole
/// request alive for as long as the store holds it.
fn get_shared(r: &mut WireReader<'_>, body: &Bytes) -> Result<Bytes> {
    let len = r.get_slice()?.len();
    let end = body.len() - r.remaining();
    Ok(body.slice(end - len..end))
}

fn handle_block(store: &dyn BlockStore, tag: u8, r: WireReader<'_>, body: &Bytes) -> Result<Body> {
    let provider = |p| check_provider(store, p);
    match tag {
        block_tag::DESCRIBE => serve(r, |()| {
            Ok((0..store.len()).map(|i| store.node(i)).collect::<Vec<_>>())
        }),
        block_tag::CONTAINS => serve(r, |(p, id)| Ok(store.contains(provider(p)?, id))),
        block_tag::PUT_MANY => {
            // Items by hand: each block is a slice of the request buffer.
            let (p, items) = request(r, |r| {
                let (p, n) = <(usize, u64)>::get(r)?;
                let mut items = Vec::new();
                for _ in 0..n {
                    items.push((BlockId::get(r)?, get_shared(r, body)?));
                }
                Ok((p, items))
            })?;
            Ok(answer(&store.put_many(provider(p)?, &items)))
        }
        block_tag::GET_MANY => {
            let (p, ids): (usize, Vec<BlockId>) = request(r, Wire::get)?;
            let results = store.get_many(provider(p)?, &ids);
            Ok(encode_get_many(&results))
        }
        block_tag::DELETE_MANY => serve(r, |(p, ids): (_, Vec<BlockId>)| {
            Ok(store.delete_many(provider(p)?, &ids))
        }),
        block_tag::BLOCK_COUNT => serve(r, |p| Ok(store.block_count(provider(p)?))),
        block_tag::BYTES_STORED => serve(r, |p| Ok(store.bytes_stored(provider(p)?))),
        block_tag::OP_COUNTS => serve(r, |p| Ok(store.op_counts(provider(p)?))),
        t => Err(Error::Transport(format!("unknown block method tag {t}"))),
    }
}

/// A `GET_MANY` answer, by hand: each payload is spliced behind its status
/// byte by reference — a RAM store's own slice, a volume's read buffer —
/// and those past the batch budget are deferred.
fn encode_get_many(results: &[Result<Bytes>]) -> Body {
    let mut w = wire::response_writer();
    // What the envelope put in `w`; the batch budget counts the rest,
    // spliced payloads included.
    let envelope = w.wire_len();
    w.put_u64(results.len() as u64);
    // Encode items while they fit the batch budget — counting the payload
    // *about to be appended*, or a batch of large blocks could overshoot
    // the budget by one block and assemble a frame past MAX_FRAME_LEN that
    // the client must reject. The tail is marked DEFERRED for the client
    // to re-request. The first item always encodes (whatever its size), so
    // a client loop over deferrals is guaranteed progress.
    let mut included_any = false;
    for result in results {
        let projected = w.wire_len() - envelope + result.as_ref().map_or(0, |d| d.len());
        if included_any && projected > wire::BATCH_BYTE_BUDGET {
            w.put_u8(batch_status::DEFERRED);
            continue;
        }
        match result {
            Ok(data) => {
                w.put_u8(batch_status::OK);
                w.put_bytes(data);
            }
            Err(e) => {
                w.put_u8(batch_status::ERR);
                e.put(&mut w);
            }
        }
        included_any = true;
    }
    w
}

/// Method tags of the meta service (mirrored by `client::RpcMetaStore`).
/// Tags 0, 1 and 2 were the single-item `PUT`/`GET`/`DELETE`, retired
/// like the block service's.
pub(crate) mod meta_tag {
    pub const SHARD_COUNT: u8 = 3;
    pub const NODE_COUNT: u8 = 4;
    pub const SHARD_STATS: u8 = 5;
    pub const CRASH_SHARD: u8 = 6;
    pub const PUT_MANY: u8 = 7;
    pub const GET_MANY: u8 = 8;
    pub const DELETE_MANY: u8 = 9;
    /// The calls that change nothing on the server (see
    /// [`super::block_tag::READ_ONLY`]).
    pub const READ_ONLY: &[u8] = &[SHARD_COUNT, NODE_COUNT, SHARD_STATS, GET_MANY];
}

fn handle_meta(store: &dyn MetaStore, tag: u8, r: WireReader<'_>) -> Result<Body> {
    match tag {
        meta_tag::PUT_MANY => serve(r, |items: Vec<(NodeKey, TreeNode)>| {
            Ok(store.put_many(&items))
        }),
        meta_tag::GET_MANY => serve(r, |keys: Vec<NodeKey>| Ok(store.get_many(&keys))),
        meta_tag::DELETE_MANY => serve(r, |keys: Vec<NodeKey>| Ok(store.delete_many(&keys))),
        meta_tag::SHARD_COUNT => serve(r, |()| Ok(store.shard_count())),
        meta_tag::NODE_COUNT => serve(r, |()| Ok(store.node_count())),
        meta_tag::SHARD_STATS => serve(r, |()| Ok(store.shard_stats())),
        meta_tag::CRASH_SHARD => serve(r, |shard: usize| {
            if shard >= store.shard_count() {
                return Err(Error::Internal(format!(
                    "shard index {shard} out of range (dht has {})",
                    store.shard_count()
                )));
            }
            store.crash_shard(shard);
            Ok(())
        }),
        t => Err(Error::Transport(format!("unknown meta method tag {t}"))),
    }
}

/// Method tags of the version service (mirrored by
/// `client::RpcVersionService`).
pub(crate) mod version_tag {
    pub const BLOCK_SIZE: u8 = 0;
    pub const CREATE_BLOB: u8 = 1;
    pub const BRANCH: u8 = 2;
    pub const ASSIGN: u8 = 3;
    pub const COMMIT: u8 = 4;
    pub const LATEST: u8 = 5;
    pub const SNAPSHOT_INFO: u8 = 6;
    pub const CHAIN: u8 = 7;
    pub const WAIT_REVEALED: u8 = 8;
    pub const PENDING_VERSIONS: u8 = 9;
    pub const DELETE_BLOB: u8 = 10;
    pub const COLLECT_BEFORE: u8 = 11;
    /// The calls that change nothing on the server (see
    /// [`super::block_tag::READ_ONLY`]).
    pub const READ_ONLY: &[u8] = &[
        BLOCK_SIZE,
        LATEST,
        SNAPSHOT_INFO,
        CHAIN,
        WAIT_REVEALED,
        PENDING_VERSIONS,
    ];
}

fn handle_version(vm: &dyn VersionService, tag: u8, r: WireReader<'_>) -> Result<Body> {
    match tag {
        version_tag::BLOCK_SIZE => serve(r, |()| Ok(vm.block_size())),
        version_tag::CREATE_BLOB => serve(r, |()| vm.create_blob()),
        version_tag::BRANCH => serve(r, |(parent, at)| vm.branch(parent, at)),
        version_tag::ASSIGN => serve(r, |(blob, intent)| vm.assign(blob, intent)),
        version_tag::COMMIT => serve(r, |(blob, version)| vm.commit(blob, version)),
        version_tag::LATEST => serve(r, |blob| vm.latest(blob)),
        version_tag::SNAPSHOT_INFO => serve(r, |(blob, version)| vm.snapshot_info(blob, version)),
        version_tag::CHAIN => serve(r, |blob| vm.chain(blob)),
        // Runs on a dedicated offload thread (see `parks_a_thread`), so
        // a parked wait leaves its connection thread free and other
        // requests on the same connection keep flowing.
        version_tag::WAIT_REVEALED => serve(r, |(blob, version, timeout)| {
            vm.wait_revealed(blob, version, timeout)
        }),
        version_tag::PENDING_VERSIONS => serve(r, |blob| vm.pending_versions(blob)),
        version_tag::DELETE_BLOB => serve(r, |blob| vm.delete_blob(blob)),
        version_tag::COLLECT_BEFORE => {
            serve(r, |(blob, keep_from)| vm.collect_before(blob, keep_from))
        }
        t => Err(Error::Transport(format!("unknown version method tag {t}"))),
    }
}

/// Method tags of the placement service (mirrored by
/// `client::RpcPlacementService`).
pub(crate) mod placement_tag {
    pub const PROVIDER_COUNT: u8 = 0;
    pub const ALLOCATE: u8 = 1;
    pub const RELEASE_MANY: u8 = 2;
    pub const LOAD_VECTOR: u8 = 3;
    pub const REGISTER_PROVIDER: u8 = 4;
    pub const HEARTBEAT: u8 = 5;
}

fn handle_placement(pm: &dyn PlacementService, tag: u8, r: WireReader<'_>) -> Result<Body> {
    match tag {
        placement_tag::PROVIDER_COUNT => serve(r, |()| Ok(pm.provider_count())),
        placement_tag::ALLOCATE => serve(r, |(n_blocks, replication)| {
            pm.allocate(n_blocks, replication)
        }),
        placement_tag::RELEASE_MANY => {
            serve(r, |providers: Vec<usize>| pm.release_many(&providers))
        }
        placement_tag::LOAD_VECTOR => serve(r, |()| pm.load_vector()),
        placement_tag::REGISTER_PROVIDER => serve(r, |node: NodeId| pm.register_provider(node)),
        placement_tag::HEARTBEAT => serve(r, |provider| pm.heartbeat(provider)),
        t => Err(Error::Transport(format!(
            "unknown placement method tag {t}"
        ))),
    }
}

/// Method tags of the GC service (mirrored by `client::RpcGcService`).
pub(crate) mod gc_tag {
    pub const INC_NODES: u8 = 0;
    pub const RELEASE_ROOTS: u8 = 1;
    pub const NODE_COUNT: u8 = 2;
    pub const TRACKED_NODES: u8 = 3;
}

fn handle_gc(gc: &dyn GcService, tag: u8, r: WireReader<'_>) -> Result<Body> {
    match tag {
        gc_tag::INC_NODES => serve(r, |keys: Vec<NodeKey>| gc.inc_nodes(&keys)),
        gc_tag::RELEASE_ROOTS => serve(r, |roots: Vec<NodeKey>| gc.release_roots(&roots)),
        gc_tag::NODE_COUNT => serve(r, |key| gc.node_count(&key)),
        gc_tag::TRACKED_NODES => serve(r, |()| gc.tracked_nodes()),
        t => Err(Error::Transport(format!("unknown gc method tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::io::{BufReader, IoSlice};

    /// A writer that keeps the bytes of each call apart.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.0
                .push(bufs.iter().flat_map(|b| b.iter().copied()).collect());
            Ok(self.0.last().map_or(0, Vec::len))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Writes {
        /// The `(id, body)` frames of each write.
        fn frames(&self) -> Vec<Vec<(u64, Vec<u8>)>> {
            let frames = |mut bytes: &[u8]| {
                std::iter::from_fn(move || wire::read_frame(&mut bytes).unwrap()).collect()
            };
            self.0.iter().map(|write| frames(write)).collect()
        }
    }

    /// A reader that hands out one scripted chunk per call and notes, at
    /// each call, how many writes `out` had seen.
    struct Script<'a> {
        chunks: VecDeque<Vec<u8>>,
        out: &'a Mutex<Writes>,
        writes_at_read: Vec<usize>,
    }

    impl Read for Script<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.writes_at_read.push(self.out.lock().0.len());
            let Some(chunk) = self.chunks.pop_front() else {
                return Ok(0);
            };
            assert!(chunk.len() <= buf.len(), "a chunk fits the read buffer");
            buf[..chunk.len()].copy_from_slice(&chunk);
            Ok(chunk.len())
        }
    }

    fn requests(ids: std::ops::Range<u64>) -> Vec<u8> {
        let mut wire = Vec::new();
        for id in ids {
            wire::write_frame(&mut wire, id, &id.to_le_bytes()).unwrap();
        }
        wire
    }

    /// Serves `chunks` with `answer`; returns what was written and the
    /// write counts seen at each read.
    fn serve_script(
        chunks: Vec<Vec<u8>>,
        answer: impl FnMut(u64, Bytes) -> Option<Vec<u8>>,
    ) -> (Writes, Vec<usize>) {
        let out = Mutex::new(Writes::default());
        let script = Script {
            chunks: chunks.into(),
            out: &out,
            writes_at_read: Vec::new(),
        };
        let mut reader = BufReader::new(script);
        serve_frames(&mut reader, &out, answer);
        let writes_at_read = reader.into_inner().writes_at_read;
        (out.into_inner(), writes_at_read)
    }

    #[test]
    fn a_buffered_burst_is_answered_in_one_write_in_arrival_order() {
        let (out, reads) = serve_script(vec![requests(0..10)], |_, body| Some(body.to_vec()));
        let expect: Vec<(u64, Vec<u8>)> = (0..10u64)
            .map(|id| (id, id.to_le_bytes().to_vec()))
            .collect();
        assert_eq!(out.frames(), [expect]);
        assert_eq!(reads, [0, 1], "written before the read that found EOF");
    }

    #[test]
    fn held_answers_leave_before_a_read_could_wait_on_the_network() {
        // Request 0 whole and half of request 1, then the rest of it.
        let wire = requests(0..2);
        let half = wire.len() * 3 / 4;
        let chunks = vec![wire[..half].to_vec(), wire[half..].to_vec()];
        let (out, reads) = serve_script(chunks, |_, body| Some(body.to_vec()));
        assert_eq!(
            out.frames(),
            [
                vec![(0, vec![0; 8])],
                vec![(1, 1u64.to_le_bytes().to_vec())]
            ]
        );
        assert_eq!(reads, [0, 1, 2], "each answer out before the next read");
        // An offloaded request (no answer here) holds nothing back.
        let (out, _) = serve_script(vec![requests(0..3)], |id, body| {
            (id != 1).then(|| body.to_vec())
        });
        let ids: Vec<Vec<u64>> = (out.frames().iter())
            .map(|write| write.iter().map(|(id, _)| *id).collect())
            .collect();
        assert_eq!(ids, [vec![0, 2]]);
    }

    #[test]
    fn held_answers_are_written_once_they_reach_the_cap() {
        // 20 000-byte answers: the fourth takes the held bytes past the cap.
        let (out, _) = serve_script(vec![requests(0..8)], |_, _| Some(vec![7; 20_000]));
        let sizes: Vec<usize> = out.frames().iter().map(Vec::len).collect();
        assert_eq!(sizes, [4, 4]);
        // One answer at the cap leaves at once, with what was held.
        let mut sizes = vec![10, 10, HOLD_BYTES_MAX, 10, 10].into_iter();
        let (out, _) = serve_script(vec![requests(0..5)], |_, _| {
            Some(vec![1; sizes.next().unwrap()])
        });
        let ids: Vec<Vec<u64>> = (out.frames().iter())
            .map(|write| write.iter().map(|(id, _)| *id).collect())
            .collect();
        assert_eq!(ids, [vec![0, 1, 2], vec![3, 4]]);
    }

    /// A `GET_MANY` answer splices each block it carries — the store's own
    /// bytes, not a copy — and defers a block that would take it past the
    /// batch budget: here the third of three budget-thirds, while an error
    /// and a small block still fit.
    #[test]
    fn a_get_many_answer_splices_its_blocks_and_defers_past_the_budget() {
        use blobseer_types::wire::WireReader;
        let third = Bytes::from(vec![7u8; wire::BATCH_BYTE_BUDGET / 3]);
        let small = Bytes::from_static(b"tail");
        let missing = Error::Internal("no such block".into());
        let results = [
            Ok(third.clone()),
            Err(missing.clone()),
            Ok(third.clone()),
            Ok(third.clone()),
            Ok(small.clone()),
        ];
        let body = encode_get_many(&results);
        let mut pieces = Vec::new();
        body.pieces(&mut pieces);
        let spliced = |data: &Bytes| {
            (pieces.iter())
                .filter(|p| p.as_ptr() == data.as_ptr() && p.len() == data.len())
                .count()
        };
        assert_eq!((spliced(&third), spliced(&small)), (2, 1));
        assert!(body.wire_len() <= wire::BATCH_BYTE_BUDGET + 64);

        let bytes = body.to_vec();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), batch_status::OK);
        assert_eq!(u64::get(&mut r).unwrap(), results.len() as u64);
        let mut statuses = Vec::new();
        for result in &results {
            let status = r.get_u8().unwrap();
            match status {
                batch_status::OK => {
                    assert_eq!(r.get_slice().unwrap(), &result.as_ref().unwrap()[..])
                }
                batch_status::ERR => assert_eq!(Error::get(&mut r).unwrap(), missing),
                _ => {}
            }
            statuses.push(status);
        }
        r.finish().unwrap();
        use batch_status::{DEFERRED, ERR, OK};
        assert_eq!(statuses, [OK, ERR, OK, DEFERRED, OK]);
    }
}
