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
//! Concurrency model: per-connection *readers* feeding a bounded worker
//! pool. The accept loop runs on its own thread; each accepted connection
//! gets a reader thread that decodes frames and pushes them onto a
//! bounded queue served by N shared workers (`BlobSeerConfig::
//! rpc_server_workers`; the queue bound is the constant
//! `DEFAULT_RPC_SERVER_QUEUE_DEPTH`, with [`RpcServer::spawn_with`] taking
//! an explicit one for tests).
//! Every response frame echoes the request id of the frame it answers and
//! may be written out of order, so one connection can carry many in-flight
//! requests — the muxed client depends on it. Known-parking calls
//! (`wait_revealed`) never enter the queue: the reader offloads them to a
//! dedicated thread, so a request that deliberately blocks for its whole
//! timeout cannot starve the worker pool. A full queue blocks only the
//! reader that hit it (per-connection backpressure), never a worker.
//!
//! Shutdown is graceful and deterministic: [`RpcServer::shutdown`] stops
//! the accept loop (waking it with a loopback connection), closes every
//! open connection (unblocking reader threads), lets the workers drain
//! the queue, and joins readers, workers and offload threads.

use crate::wire::{self, encode_response};
use blobseer_core::ports::{BlockStore, GcService, MetaStore, PlacementService, VersionService};
use blobseer_types::config::{DEFAULT_RPC_SERVER_QUEUE_DEPTH, DEFAULT_RPC_SERVER_WORKERS};
use blobseer_types::wire::{WireReader, WireWriter};
use blobseer_types::NodeId;
use blobseer_types::{BlobId, BlockId, Error, Result, Version};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
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

/// A running RPC server: one listener, one hosted service, one bounded
/// worker pool.
pub struct RpcServer {
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
}

/// Concurrent-request tracker, shareable across every server of a
/// deployment: counts the requests currently between frame decode and
/// response write, and remembers the highest count ever seen. The high
/// watermark is the *structural* proof of client-side overlap — it rises
/// above 1 only where one client has several frames outstanding at once.
/// Two things produce that. The fan-out executor (`client_io_threads >
/// 1`) overlaps the per-provider batches of a data phase or a fetch wave.
/// And the metadata phase of a write is pipelined whatever the thread
/// count: every tree level's `put_many` frame is written before the first
/// response is awaited (`MetaStore::put_levels`), so a write publishing
/// `d` levels can raise the watermark to `d` — and no higher. Everything
/// else a one-thread client does waits for each response before it sends
/// the next frame: its data phase, its descent and its fetches keep the
/// watermark at 1.
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
/// request was handled, just before its response frame is written — the
/// guard travels inside the [`Job`]).
struct InFlightGuard(Arc<InFlight>);

impl Drop for InFlightGuard {
    fn drop(&mut self) {
        self.0.cur.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One decoded request waiting for a worker: where to write the answer
/// (the connection's shared write half), which request id to echo, and
/// the request body — the buffer the socket read filled, shareable so a
/// block store can keep slices of it instead of copies.
struct Job {
    writer: Arc<Mutex<TcpStream>>,
    req_id: u64,
    body: Bytes,
    /// Holds the request in the deployment's [`InFlight`] tracker from
    /// frame decode until it has been handled (response about to be
    /// written).
    _track: Option<InFlightGuard>,
}

/// State shared between the accept loop, the readers, the workers and
/// `shutdown()`.
///
/// The registries are bounded by the number of *live* connections and
/// in-flight offloads, not by the totals ever seen: a reader removes its
/// own stream clone when its peer disconnects, and finished thread
/// handles are reaped on every accept / offload spawn — a long-running
/// server does not accumulate fds or join handles from churn.
struct Shared {
    /// Set once by `shutdown()`; every loop re-checks it after waking.
    stop: AtomicBool,
    /// Clones of the currently open streams (keyed by connection id), so
    /// shutdown can unblock reader threads by closing the sockets under
    /// them.
    conns: Mutex<HashMap<u64, TcpStream>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Dedicated threads for known-parking requests (`wait_revealed`).
    offloads: Mutex<Vec<JoinHandle<()>>>,
    /// The bounded request queue between readers and workers.
    queue: Mutex<VecDeque<Job>>,
    not_empty: Condvar,
    not_full: Condvar,
    queue_cap: usize,
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
}

impl RpcServer {
    /// Binds a loopback listener on an ephemeral port and starts serving
    /// `service` on it with the default worker-pool shape.
    pub fn spawn(service: RpcService) -> io::Result<Self> {
        Self::spawn_with(
            service,
            DEFAULT_RPC_SERVER_WORKERS,
            DEFAULT_RPC_SERVER_QUEUE_DEPTH,
        )
    }

    /// [`Self::spawn`] with an explicit worker-pool shape: `workers`
    /// dispatcher threads draining a queue of at most `queue_depth`
    /// decoded requests.
    pub fn spawn_with(service: RpcService, workers: usize, queue_depth: usize) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        Self::serve(listener, service, workers, queue_depth, None)
    }

    /// [`Self::spawn_with`] with a shared [`InFlight`] tracker: every
    /// request this server decodes is counted in `tracker` until its
    /// response is written. Boot all servers of a deployment with one
    /// tracker and its high watermark proves (or disproves) client-side
    /// request overlap.
    pub fn spawn_tracked(
        service: RpcService,
        workers: usize,
        queue_depth: usize,
        tracker: Arc<InFlight>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        Self::serve(listener, service, workers, queue_depth, Some(tracker))
    }

    /// [`Self::spawn_with`] on an explicit address instead of an
    /// ephemeral port — what lets a test restart a server on the port its
    /// clients already hold muxed connections to.
    pub fn spawn_at(
        addr: SocketAddr,
        service: RpcService,
        workers: usize,
        queue_depth: usize,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Self::serve(listener, service, workers, queue_depth, None)
    }

    fn serve(
        listener: TcpListener,
        service: RpcService,
        workers: usize,
        queue_depth: usize,
        in_flight: Option<Arc<InFlight>>,
    ) -> io::Result<Self> {
        assert!(workers >= 1, "a server needs at least one worker");
        assert!(queue_depth >= 1, "the request queue needs some depth");
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            conns: Mutex::named(HashMap::new(), "rpc.server.conns"),
            handlers: Mutex::named(Vec::new(), "rpc.server.handlers"),
            offloads: Mutex::named(Vec::new(), "rpc.server.offloads"),
            queue: Mutex::named(VecDeque::new(), "rpc.server.queue"),
            not_empty: Condvar::named("rpc.server.not_empty"),
            not_full: Condvar::named("rpc.server.not_full"),
            queue_cap: queue_depth,
            in_flight,
            frames: AtomicU64::new(0),
            accepted: AtomicU64::new(0),
        });
        let mut worker_threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let service = service.clone();
            let shared = Arc::clone(&shared);
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("rpc-worker-{i}"))
                    .spawn(move || worker_loop(service, shared))?,
            );
        }
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
            workers: worker_threads,
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

    /// Stops accepting, closes every open connection, drains the queue,
    /// and joins all threads. Idempotent; also runs on drop.
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
        // Unblock reader reads by closing the sockets under them.
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        // Wake queue waiters *while holding the queue lock*: any thread
        // not yet waiting still has the stop re-check ahead of it, so no
        // wake-up can be lost.
        {
            let _q = self.shared.queue.lock();
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        let handlers: Vec<_> = self.shared.handlers.lock().drain(..).collect();
        for h in handlers {
            let _ = h.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
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
        // Reap reader threads whose connections already ended (dropping
        // a finished JoinHandle just releases it).
        shared.handlers.lock().retain(|h| !h.is_finished());
        let _ = stream.set_nodelay(true);
        // The reader keeps the stream; workers answer through a cloned
        // write half behind a mutex (responses can interleave across
        // workers, never within a frame).
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
        let reader_shared = Arc::clone(&shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("rpc-conn".into())
            .spawn(move || {
                connection_loop(stream, writer, service, &reader_shared);
                // Deregister on the way out so the fd closes with the
                // peer, not at server shutdown.
                reader_shared.conns.lock().remove(&conn_id);
            })
        {
            shared.handlers.lock().push(handle);
        }
    }
}

/// Reads one connection's frames until EOF or a transport error, routing
/// each request to the worker queue — or to a dedicated offload thread
/// for known-parking calls. Service errors are *answers* (encoded in the
/// response envelope), never reasons to drop the connection.
fn connection_loop(
    stream: TcpStream,
    writer: Arc<Mutex<TcpStream>>,
    service: RpcService,
    shared: &Arc<Shared>,
) {
    let mut stream = io::BufReader::new(stream);
    loop {
        let (req_id, body) = match wire::read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) | Err(_) => return, // peer gone or socket closed
        };
        shared.frames.fetch_add(1, Ordering::Relaxed);
        let job = Job {
            writer: Arc::clone(&writer),
            req_id,
            body: Bytes::from(body),
            _track: shared.in_flight.as_ref().map(|t| t.enter()),
        };
        if parks_a_thread(&service, &job.body) {
            offload(&service, shared, job);
            continue;
        }
        // Enqueue with backpressure: a full queue parks this reader (and
        // only this reader) until a worker frees a slot.
        let mut q = shared.queue.lock();
        while q.len() >= shared.queue_cap {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            shared.not_full.wait(&mut q);
        }
        q.push_back(job);
        drop(q);
        shared.not_empty.notify_one();
    }
}

/// Whether a request is one that deliberately blocks server-side for up
/// to its whole timeout (`wait_revealed`). Such requests must never
/// occupy a pool worker.
fn parks_a_thread(service: &RpcService, body: &[u8]) -> bool {
    matches!(service, RpcService::Version(_)) && body.first() == Some(&version_tag::WAIT_REVEALED)
}

/// Serves a known-parking request on its own thread. If the thread cannot
/// be spawned (resource exhaustion) the request is dropped; its client
/// sees the outcome when the connection eventually closes.
fn offload(service: &RpcService, shared: &Arc<Shared>, job: Job) {
    shared.offloads.lock().retain(|h| !h.is_finished());
    let service = service.clone();
    if let Ok(handle) = std::thread::Builder::new()
        .name("rpc-wait".into())
        .spawn(move || serve_job(&service, job))
    {
        shared.offloads.lock().push(handle);
    }
}

/// A worker: drains the queue until shutdown, then exits once it is empty
/// (queued requests are served even during shutdown — their responses
/// simply fail to write if the connection is already gone).
fn worker_loop(service: RpcService, shared: Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock();
            loop {
                if let Some(job) = q.pop_front() {
                    shared.not_full.notify_one();
                    break Some(job);
                }
                if shared.stop.load(Ordering::SeqCst) {
                    break None;
                }
                shared.not_empty.wait(&mut q);
            }
        };
        match job {
            Some(job) => serve_job(&service, job),
            None => return,
        }
    }
}

/// Dispatches one request and writes its response frame, echoing the
/// request id so the client's demux can route it.
fn serve_job(service: &RpcService, job: Job) {
    let Job {
        writer,
        req_id,
        body,
        _track: track,
    } = job;
    let response = dispatch(service, &body);
    // End the tracked span before the response leaves: once the frame is
    // on the wire the client may already be issuing its next request to
    // another server, and a serial client overlapping with our own
    // write-back would read as fan-out in the watermark.
    drop(track);
    let _ = wire::write_frame(&mut *writer.lock(), req_id, &response);
}

fn dispatch(service: &RpcService, body: &Bytes) -> Vec<u8> {
    let result = match service {
        RpcService::Block(store) => handle_block(&**store, body),
        RpcService::Meta(store) => handle_meta(&**store, body),
        RpcService::Version(vm) => handle_version(&**vm, body),
        RpcService::Placement(pm) => handle_placement(&**pm, body),
        RpcService::Gc(gc) => handle_gc(&**gc, body),
    };
    encode_response(result)
}

/// Validates a provider index against the hosted store — a malformed
/// request must answer with an error, not panic the handler.
fn check_provider(store: &dyn BlockStore, provider: u64) -> Result<usize> {
    let p = provider as usize;
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
}

/// Reads the next length-prefixed byte string as a zero-copy slice of
/// `body`, the request buffer `r` is decoding. The slice keeps the whole
/// request alive for as long as the store holds it.
fn get_shared(r: &mut WireReader<'_>, body: &Bytes) -> Result<Bytes> {
    let len = r.get_slice()?.len();
    let end = body.len() - r.remaining();
    Ok(body.slice(end - len..end))
}

fn handle_block(store: &dyn BlockStore, body: &Bytes) -> Result<WireWriter> {
    let mut r = WireReader::new(body);
    let tag = r.get_u8()?;
    let mut w = wire::response_writer();
    // What the envelope put in `w`; the batch budget counts payload only.
    let envelope = w.as_slice().len();
    match tag {
        block_tag::DESCRIBE => {
            r.finish()?;
            w.put_u64(store.len() as u64);
            for i in 0..store.len() {
                w.put_u64(store.node(i).raw());
            }
        }
        block_tag::CONTAINS => {
            let p = r.get_u64()?;
            let id = BlockId::new(r.get_u64()?);
            r.finish()?;
            w.put_bool(store.contains(check_provider(store, p)?, id));
        }
        block_tag::PUT_MANY => {
            let p = r.get_u64()?;
            let n = r.get_u64()? as usize;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let id = BlockId::new(r.get_u64()?);
                items.push((id, get_shared(&mut r, body)?));
            }
            r.finish()?;
            let results = store.put_many(check_provider(store, p)?, &items);
            w.put_u64(results.len() as u64);
            for result in &results {
                wire::put_item_status(&mut w, result);
            }
        }
        block_tag::GET_MANY => {
            let p = r.get_u64()?;
            let n = r.get_u64()? as usize;
            let mut ids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ids.push(BlockId::new(r.get_u64()?));
            }
            r.finish()?;
            let results = store.get_many(check_provider(store, p)?, &ids);
            w.put_u64(results.len() as u64);
            // The payloads' one copy on this side: make room for them up
            // front (at most a budget's worth leaves in this frame).
            let payload: usize = results.iter().flatten().map(|d| d.len()).sum();
            w.reserve(payload.min(wire::BATCH_BYTE_BUDGET) + wire::ITEM_HEADER_MAX * results.len());
            // Encode items while they fit the batch budget — counting the
            // payload *about to be appended*, or a batch of large blocks
            // could overshoot the budget by one block and assemble a frame
            // past MAX_FRAME_LEN that the client must reject. The tail is
            // marked DEFERRED for the client to re-request. The first item
            // always encodes (whatever its size), so a client loop over
            // deferrals is guaranteed progress.
            let mut included_any = false;
            for result in &results {
                let projected =
                    w.as_slice().len() - envelope + result.as_ref().map_or(0, |d| d.len());
                if included_any && projected > wire::BATCH_BYTE_BUDGET {
                    w.put_u8(wire::batch_status::DEFERRED);
                    continue;
                }
                wire::put_item_status(&mut w, result);
                if let Ok(data) = result {
                    w.put_slice(data);
                }
                included_any = true;
            }
        }
        block_tag::DELETE_MANY => {
            let p = r.get_u64()?;
            let n = r.get_u64()? as usize;
            let mut ids = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                ids.push(BlockId::new(r.get_u64()?));
            }
            r.finish()?;
            let results = store.delete_many(check_provider(store, p)?, &ids);
            w.put_u64(results.len() as u64);
            for result in &results {
                wire::put_item_status(&mut w, result);
                if let Ok(freed) = result {
                    w.put_u64(*freed);
                }
            }
        }
        block_tag::BLOCK_COUNT => {
            let p = r.get_u64()?;
            r.finish()?;
            w.put_u64(store.block_count(check_provider(store, p)?) as u64);
        }
        block_tag::BYTES_STORED => {
            let p = r.get_u64()?;
            r.finish()?;
            w.put_u64(store.bytes_stored(check_provider(store, p)?));
        }
        block_tag::OP_COUNTS => {
            let p = r.get_u64()?;
            r.finish()?;
            let (puts, gets) = store.op_counts(check_provider(store, p)?);
            w.put_u64(puts);
            w.put_u64(gets);
        }
        t => return Err(Error::Transport(format!("unknown block method tag {t}"))),
    }
    Ok(w)
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
}

fn handle_meta(store: &dyn MetaStore, body: &[u8]) -> Result<WireWriter> {
    let mut r = WireReader::new(body);
    let tag = r.get_u8()?;
    let mut w = wire::response_writer();
    match tag {
        meta_tag::PUT_MANY => {
            let n = r.get_u64()? as usize;
            let mut items = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                let key = wire::get_node_key(&mut r)?;
                let node = wire::get_tree_node(&mut r)?;
                items.push((key, node));
            }
            r.finish()?;
            let results = store.put_many(&items);
            w.put_u64(results.len() as u64);
            for result in &results {
                wire::put_item_status(&mut w, result);
            }
        }
        meta_tag::GET_MANY => {
            let n = r.get_u64()? as usize;
            let mut keys = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                keys.push(wire::get_node_key(&mut r)?);
            }
            r.finish()?;
            let results = store.get_many(&keys);
            w.put_u64(results.len() as u64);
            for result in &results {
                wire::put_item_status(&mut w, result);
                if let Ok(node) = result {
                    wire::put_tree_node(&mut w, node);
                }
            }
        }
        meta_tag::DELETE_MANY => {
            let n = r.get_u64()? as usize;
            let mut keys = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                keys.push(wire::get_node_key(&mut r)?);
            }
            r.finish()?;
            let results = store.delete_many(&keys);
            w.put_u64(results.len() as u64);
            for result in &results {
                wire::put_item_status(&mut w, result);
                if let Ok(existed) = result {
                    w.put_bool(*existed);
                }
            }
        }
        meta_tag::SHARD_COUNT => {
            r.finish()?;
            w.put_u64(store.shard_count() as u64);
        }
        meta_tag::NODE_COUNT => {
            r.finish()?;
            w.put_u64(store.node_count() as u64);
        }
        meta_tag::SHARD_STATS => {
            r.finish()?;
            let stats = store.shard_stats();
            w.put_u64(stats.len() as u64);
            for (nodes, puts, gets) in stats {
                w.put_u64(nodes as u64);
                w.put_u64(puts);
                w.put_u64(gets);
            }
        }
        meta_tag::CRASH_SHARD => {
            let shard = r.get_u64()? as usize;
            r.finish()?;
            if shard >= store.shard_count() {
                return Err(Error::Internal(format!(
                    "shard index {shard} out of range (dht has {})",
                    store.shard_count()
                )));
            }
            store.crash_shard(shard);
        }
        t => return Err(Error::Transport(format!("unknown meta method tag {t}"))),
    }
    Ok(w)
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
}

fn handle_version(vm: &dyn VersionService, body: &[u8]) -> Result<WireWriter> {
    let mut r = WireReader::new(body);
    let tag = r.get_u8()?;
    let mut w = wire::response_writer();
    match tag {
        version_tag::BLOCK_SIZE => {
            r.finish()?;
            w.put_u64(vm.block_size());
        }
        version_tag::CREATE_BLOB => {
            r.finish()?;
            w.put_u64(vm.create_blob()?.raw());
        }
        version_tag::BRANCH => {
            let parent = BlobId::new(r.get_u64()?);
            let at = Version::new(r.get_u64()?);
            r.finish()?;
            w.put_u64(vm.branch(parent, at)?.raw());
        }
        version_tag::ASSIGN => {
            let blob = BlobId::new(r.get_u64()?);
            let intent = wire::get_write_intent(&mut r)?;
            r.finish()?;
            let ticket = vm.assign(blob, intent)?;
            wire::put_write_ticket(&mut w, &ticket);
        }
        version_tag::COMMIT => {
            let blob = BlobId::new(r.get_u64()?);
            let version = Version::new(r.get_u64()?);
            r.finish()?;
            vm.commit(blob, version)?;
        }
        version_tag::LATEST => {
            let blob = BlobId::new(r.get_u64()?);
            r.finish()?;
            let (v, size) = vm.latest(blob)?;
            w.put_u64(v.raw());
            w.put_u64(size);
        }
        version_tag::SNAPSHOT_INFO => {
            let blob = BlobId::new(r.get_u64()?);
            let version = Version::new(r.get_u64()?);
            r.finish()?;
            let info = vm.snapshot_info(blob, version)?;
            wire::put_snapshot_info(&mut w, &info);
        }
        version_tag::CHAIN => {
            let blob = BlobId::new(r.get_u64()?);
            r.finish()?;
            let chain = vm.chain(blob)?;
            wire::put_log_chain(&mut w, &chain);
        }
        version_tag::WAIT_REVEALED => {
            let blob = BlobId::new(r.get_u64()?);
            let version = Version::new(r.get_u64()?);
            let timeout = wire::get_duration(&mut r)?;
            r.finish()?;
            // Runs on a dedicated offload thread — the reader never
            // queues this tag (see `parks_a_thread`), so a parked wait
            // holds no worker slot and other requests on the same
            // connection keep flowing.
            vm.wait_revealed(blob, version, timeout)?;
        }
        version_tag::PENDING_VERSIONS => {
            let blob = BlobId::new(r.get_u64()?);
            r.finish()?;
            let versions = vm.pending_versions(blob)?;
            wire::put_versions(&mut w, &versions);
        }
        version_tag::DELETE_BLOB => {
            let blob = BlobId::new(r.get_u64()?);
            r.finish()?;
            let roots = vm.delete_blob(blob)?;
            wire::put_node_keys(&mut w, &roots);
        }
        version_tag::COLLECT_BEFORE => {
            let blob = BlobId::new(r.get_u64()?);
            let keep_from = Version::new(r.get_u64()?);
            r.finish()?;
            let roots = vm.collect_before(blob, keep_from)?;
            wire::put_node_keys(&mut w, &roots);
        }
        t => return Err(Error::Transport(format!("unknown version method tag {t}"))),
    }
    Ok(w)
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

fn handle_placement(pm: &dyn PlacementService, body: &[u8]) -> Result<WireWriter> {
    let mut r = WireReader::new(body);
    let tag = r.get_u8()?;
    let mut w = wire::response_writer();
    match tag {
        placement_tag::PROVIDER_COUNT => {
            r.finish()?;
            w.put_u64(pm.provider_count() as u64);
        }
        placement_tag::ALLOCATE => {
            let n_blocks = r.get_u64()? as usize;
            let replication = r.get_u64()? as usize;
            r.finish()?;
            let allocs = pm.allocate(n_blocks, replication)?;
            w.put_u64(allocs.len() as u64);
            for a in &allocs {
                wire::put_block_allocation(&mut w, a);
            }
        }
        placement_tag::RELEASE_MANY => {
            let n = r.get_u64()? as usize;
            let mut providers = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                providers.push(r.get_u64()? as usize);
            }
            r.finish()?;
            pm.release_many(&providers)?;
        }
        placement_tag::LOAD_VECTOR => {
            r.finish()?;
            let loads = pm.load_vector()?;
            w.put_u64(loads.len() as u64);
            for l in loads {
                w.put_u64(l);
            }
        }
        placement_tag::REGISTER_PROVIDER => {
            let node = NodeId::new(r.get_u64()?);
            r.finish()?;
            w.put_u64(pm.register_provider(node)? as u64);
        }
        placement_tag::HEARTBEAT => {
            let provider = r.get_u64()? as usize;
            r.finish()?;
            w.put_u64(pm.heartbeat(provider)?);
        }
        t => {
            return Err(Error::Transport(format!(
                "unknown placement method tag {t}"
            )))
        }
    }
    Ok(w)
}

/// Method tags of the GC service (mirrored by `client::RpcGcService`).
pub(crate) mod gc_tag {
    pub const INC_NODES: u8 = 0;
    pub const RELEASE_ROOTS: u8 = 1;
    pub const NODE_COUNT: u8 = 2;
    pub const TRACKED_NODES: u8 = 3;
}

fn handle_gc(gc: &dyn GcService, body: &[u8]) -> Result<WireWriter> {
    let mut r = WireReader::new(body);
    let tag = r.get_u8()?;
    let mut w = wire::response_writer();
    match tag {
        gc_tag::INC_NODES => {
            let keys = wire::get_node_keys(&mut r)?;
            r.finish()?;
            gc.inc_nodes(&keys)?;
        }
        gc_tag::RELEASE_ROOTS => {
            let roots = wire::get_node_keys(&mut r)?;
            r.finish()?;
            let report = gc.release_roots(&roots)?;
            wire::put_gc_report(&mut w, &report);
        }
        gc_tag::NODE_COUNT => {
            let key = wire::get_node_key(&mut r)?;
            r.finish()?;
            w.put_u64(gc.node_count(&key)?);
        }
        gc_tag::TRACKED_NODES => {
            r.finish()?;
            w.put_u64(gc.tracked_nodes()? as u64);
        }
        t => return Err(Error::Transport(format!("unknown gc method tag {t}"))),
    }
    Ok(w)
}
