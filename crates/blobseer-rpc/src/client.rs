//! Client-side adapters: the five port traits — block store, metadata
//! DHT, version manager, placement and GC — implemented over
//! *multiplexed* TCP connections.
//!
//! Each adapter holds a small fixed budget of shared connections per
//! endpoint ([`blobseer_types::BlobSeerConfig::rpc_client_connections`]).
//! A call picks a connection round-robin, tags its frame with a fresh
//! request id, writes it under the connection's writer lock, and awaits
//! the response with the matching id. No thread serves a connection: a
//! caller whose answer has not arrived takes the connection's reader role
//! if no one holds it, files the other callers' answers into their slots
//! and wakes exactly their owners, and hands the role to one caller still
//! waiting when its own answer arrives. A lone caller therefore reads its
//! own answer, with no thread hand-off at all. Many client threads
//! pipeline on a few sockets, responses may arrive out of order, and a
//! blocking call (`wait_revealed`) parks only its own waiter — never the
//! connection: whoever reads files its answer for it. One caller can
//! pipeline too: `MuxPool::call_all` writes a whole run of frames in one
//! vectored write before it awaits the first response, which is how a
//! version's tree levels are published in overlapping round trips
//! ([`MetaStore::put_levels`]). A reader wakes the owners of the answers
//! it filed once per burst of responses it finds buffered together, not
//! once per response, and files the answers buffered behind its own
//! before it hands the role on, so the server's one-write answer to such
//! a run is read in one go. A `PUT_MANY` request carries its blocks by
//! reference ([`wire::Body::put_bytes`]): that write takes each block from
//! the caller's own [`Bytes`], so no block is copied into a request buffer.
//!
//! A connection that dies *idle* (server restart) is redialed
//! transparently on next use. Nothing reads an idle connection, so a call
//! tests one with nothing in flight before it sends on it: a non-blocking
//! peek that reads zero bytes means the server closed it, and the call
//! dials afresh instead of surfacing a stale [`Error::Transport`]. The
//! pool's death count (`MuxPool::deaths`), which the read caches consult
//! before answering without a frame, probes the idle connections the same
//! way. A request frame that *failed to write* whole also retries once on a
//! fresh connection — the kernel never accepted all of it, so the server
//! cannot have dispatched it and the retry is safe even for non-idempotent
//! calls like `assign`; in a run, that is exactly the frames behind the
//! last one the write took whole, and they retry together. A frame that
//! was sent but never answered — its connection closed with it in flight —
//! is resent once, on a freshly dialed connection, if its call is
//! read-only (its tag is in the service's `READ_ONLY` list: block and
//! metadata fetches, counts and diagnostics, and the version manager's
//! queries). That covers a call that left on a connection the server
//! closed just after the probe. Any other call fails with
//! [`Error::Transport`]: its remote outcome is genuinely unknown, and it
//! is never sent again.
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
//! stay local (as do the tree's inner nodes once read, see [`RpcMetaStore`],
//! and the revealed snapshots once resolved, see [`RpcVersionService`]).

use crate::server::{block_tag, gc_tag, meta_tag, placement_tag, version_tag};
use crate::wire::{self, batch_status, decode_response, Body};
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
use blobseer_types::wire::Wire;
use blobseer_types::{BlobId, BlockId, Error, NodeId, Result, Version};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::Hash;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

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

/// How long a pool that heard from its server counts as alive without a
/// probe: [`MuxPool::deaths`] tests the pool's idle connections for a
/// close at most once per window, so a cache lookup pays a clock read, not
/// a syscall. A send tests its idle connection every time.
const LIVENESS_WINDOW_NS: u64 = 1_000_000;

/// Nanoseconds on a process-wide monotonic clock.
fn clock_ns() -> u64 {
    static START: OnceLock<Instant> = OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a pool shares with its connections.
#[derive(Default)]
struct Health {
    /// Connections of the pool that have died, ever ([`MuxPool::deaths`]).
    deaths: AtomicU64,
    /// [`clock_ns`] when a connection last read an answer or passed a
    /// probe.
    alive_at: AtomicU64,
}

impl Health {
    fn alive(&self) {
        self.alive_at.store(clock_ns(), Ordering::Relaxed);
    }
}

/// One in-flight request's entry in a connection's waiter table.
#[derive(Default)]
struct Slot {
    /// The response body, once a reader filed it.
    answer: Option<Vec<u8>>,
    /// The caller parked on this slot, if any. Whoever files the answer,
    /// hands the reader role over or closes the connection takes it and
    /// wakes it, so a waiter wakes once per event, never for another's.
    waiter: Option<Thread>,
}

/// The waiter table of one multiplexed connection, and its reader half.
struct Pending {
    /// Request id → slot. Entries are inserted by [`MuxConn::send`] and
    /// removed by [`MuxConn::wait`], so the table is bounded by the number
    /// of in-flight calls.
    slots: HashMap<u64, Slot>,
    /// The reader half while no caller holds the reader role; gone for
    /// good once the connection is closed.
    reader: Option<BufReader<TcpStream>>,
    /// Set when the connection dies; every current and future waiter fails
    /// with this error (outcome unknown).
    closed: Option<Error>,
}

/// One multiplexed connection: a writer half shared under a mutex, and a
/// waiter table keyed by request id that holds the reader half while no
/// caller reads.
///
/// No thread serves the connection. A caller whose answer has not arrived
/// takes the reader role if no one holds it ([`Self::wait`]): it files the
/// other callers' answers into their slots and wakes their owners, and
/// when its own answer arrives it hands the role to one caller still
/// waiting. A lone caller therefore reads its own answer with no wake-up
/// at all. A parked `wait_revealed` is a waiter like any other: whoever
/// reads files its answer for it.
struct MuxConn {
    addr: SocketAddr,
    writer: Mutex<Box<dyn Write + Send>>,
    pending: Mutex<Pending>,
    next_id: AtomicU64,
    /// Set when a read or a frame write fails or a probe finds the
    /// connection closed; the pool replaces dead connections on next use.
    dead: AtomicBool,
    health: Arc<Health>,
}

impl MuxConn {
    /// Dials the endpoint.
    fn dial(addr: SocketAddr, health: Arc<Health>) -> Result<Arc<Self>> {
        Self::dial_with(addr, health, |stream| Box::new(stream))
    }

    /// [`Self::dial`], writing through what `writer` makes of the stream.
    fn dial_with(
        addr: SocketAddr,
        health: Arc<Health>,
        writer: impl FnOnce(TcpStream) -> Box<dyn Write + Send>,
    ) -> Result<Arc<Self>> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| wire::transport(&format!("connect to {addr}"), e))?;
        let _ = stream.set_nodelay(true);
        let reader = stream
            .try_clone()
            .map_err(|e| wire::transport("clone mux stream", e))?;
        Ok(Arc::new(Self {
            addr,
            writer: Mutex::named(writer(stream), "rpc.mux.writer"),
            pending: Mutex::named(
                Pending {
                    slots: HashMap::new(),
                    reader: Some(BufReader::new(reader)),
                    closed: None,
                },
                "rpc.mux.pending",
            ),
            next_id: AtomicU64::new(0),
            dead: AtomicBool::new(false),
            health,
        }))
    }

    fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    fn mark_dead(&self) {
        if !self.dead.swap(true, Ordering::SeqCst) {
            self.health.deaths.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Marks the connection dead and fails its waiters, returning the
    /// parked ones to wake. The caller holds the waiter table.
    fn close(&self, p: &mut Pending) -> Vec<Thread> {
        self.mark_dead();
        p.reader = None;
        p.closed = Some(Error::Transport(format!(
            "{} closed the connection with requests in flight",
            self.addr
        )));
        p.slots
            .values_mut()
            .filter_map(|s| s.waiter.take())
            .collect()
    }

    /// Tests an idle connection — nothing in flight, no one reading — for
    /// a close its server made while it idled, with a non-blocking peek:
    /// zero bytes (or an error) marks it dead. A busy connection is left
    /// alone: its reader sees the close. The socket is non-blocking for
    /// the peek only, and the waiter-table lock keeps every other reader
    /// and writer off it meanwhile (nothing in flight means no write is
    /// under way, and none starts before its slot is registered).
    fn probe(&self) {
        let mut p = self.pending.lock();
        let Some(reader) = p.reader.as_ref() else {
            return;
        };
        if !p.slots.is_empty() || !reader.buffer().is_empty() {
            return;
        }
        let stream = reader.get_ref();
        let peeked = (stream.set_nonblocking(true)).and_then(|()| stream.peek(&mut [0u8; 1]));
        let restored = stream.set_nonblocking(false);
        match (peeked, restored) {
            (Ok(1..), Ok(())) => self.health.alive(),
            (Err(e), Ok(())) if e.kind() == ErrorKind::WouldBlock => self.health.alive(),
            _ => drop(self.close(&mut p)),
        }
    }

    /// Registers a slot per request, then writes the requests as one run
    /// of frames under one writer-lock hold. Returns the ids of the frames
    /// the connection took whole — a prefix of the run — and the write's
    /// outcome. On a failure the frames past that prefix are guaranteed
    /// undelivered (the connection is marked dead and their slots
    /// withdrawn), so the caller may safely retry them on a fresh
    /// connection; the prefix was sent, and its outcome is what its
    /// waiters learn.
    fn send(&self, requests: &[Body]) -> (Vec<u64>, Result<()>) {
        if self.is_dead() {
            let e = Error::Transport(format!("{} died before the request was sent", self.addr));
            return (Vec::new(), Err(e));
        }
        let n = requests.len() as u64;
        let first = self.next_id.fetch_add(n, Ordering::Relaxed);
        let mut ids: Vec<u64> = (first..first + n).collect();
        self.pending
            .lock()
            .slots
            .extend(ids.iter().map(|&id| (id, Slot::default())));
        let frames: Vec<(u64, &Body)> = ids.iter().copied().zip(requests).collect();
        let written = wire::write_frames(&mut *self.writer.lock(), &frames);
        let Err((sent, e)) = written else {
            return (ids, Ok(()));
        };
        self.mark_dead();
        let mut p = self.pending.lock();
        for id in ids.drain(sent..) {
            p.slots.remove(&id);
        }
        (ids, Err(e))
    }

    /// The response for `id`: filed by another caller's read, or read here
    /// by taking the reader role if no one holds it. Otherwise parks until
    /// the answer is filed, the role is handed over, or the connection
    /// dies.
    fn wait(&self, id: u64) -> Result<Vec<u8>> {
        let mut p = self.pending.lock();
        loop {
            let Pending {
                slots,
                reader,
                closed,
            } = &mut *p;
            let Some(slot) = slots.get_mut(&id) else {
                return Err(Error::Internal(format!("no waiter for request {id}")));
            };
            if let Some(answer) = slot.answer.take() {
                slots.remove(&id);
                return Ok(answer);
            }
            if let Some(e) = closed.clone() {
                slots.remove(&id);
                return Err(e);
            }
            if let Some(reader) = reader.take() {
                drop(p);
                return self.read_until(reader, id);
            }
            slot.waiter = Some(thread::current());
            drop(p);
            thread::park();
            p = self.pending.lock();
        }
    }

    /// The reader role, held by the caller awaiting `id`. It reads frames,
    /// filing other callers' answers and waking their owners once per
    /// burst — when the buffer holds no complete next frame, before a read
    /// that could block — until its own answer arrives. It then files the
    /// answers already buffered behind its own, which need no read from
    /// the network, and hands the role to one caller still waiting. A read
    /// that fails or meets EOF closes the connection.
    fn read_until(&self, mut reader: BufReader<TcpStream>, id: u64) -> Result<Vec<u8>> {
        let mut wake: Vec<Thread> = Vec::new();
        let mut own = None;
        let failed = loop {
            if !wire::complete_frame_buffered(reader.buffer()) {
                if own.is_some() {
                    break false;
                }
                wake.drain(..).for_each(|waiter| waiter.unpark());
            }
            match wire::read_frame(&mut reader) {
                Ok(Some((answered, body))) if answered == id => own = Some(body),
                Ok(Some((answered, body))) => {
                    if let Some(slot) = self.pending.lock().slots.get_mut(&answered) {
                        slot.answer = Some(body);
                        wake.extend(slot.waiter.take());
                    }
                }
                Ok(None) | Err(_) => break true,
            }
        };
        let mut p = self.pending.lock();
        p.slots.remove(&id);
        if failed {
            wake.extend(self.close(&mut p));
        } else {
            self.health.alive();
            p.reader = Some(reader);
            wake.extend(p.slots.values_mut().find_map(|s| s.waiter.take()));
        }
        let closed = p.closed.clone();
        drop(p);
        wake.into_iter().for_each(|waiter| waiter.unpark());
        own.ok_or_else(|| closed.unwrap_or_else(|| Error::Internal("no answer read".into())))
    }
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
    /// Deaths and last sign of life, shared with the pool's connections.
    health: Arc<Health>,
    /// Method tags of the calls that change nothing on the server: the
    /// ones resent when their connection closes before answering.
    read_only: &'static [u8],
}

impl MuxPool {
    /// Creates a pool of `budget` connection slots and eagerly dials one,
    /// so an unreachable endpoint fails at adapter construction, not
    /// mid-write. Calls whose tag is in `read_only` change nothing on the
    /// server, so they are resent when their connection closes before
    /// answering them.
    pub(crate) fn connect_with(
        addr: SocketAddr,
        stats: Arc<EngineStats>,
        budget: usize,
        read_only: &'static [u8],
    ) -> Result<Self> {
        Self::connect_metered(addr, stats, budget, false, read_only)
    }

    /// [`Self::connect_with`] for control-plane adapters: round trips land
    /// on `EngineStats::control_round_trips` instead of
    /// `port_round_trips`, and are never mixed into `batched_items`.
    pub(crate) fn connect_control(
        addr: SocketAddr,
        stats: Arc<EngineStats>,
        budget: usize,
    ) -> Result<Self> {
        Self::connect_metered(addr, stats, budget, true, &[])
    }

    fn connect_metered(
        addr: SocketAddr,
        stats: Arc<EngineStats>,
        budget: usize,
        control: bool,
        read_only: &'static [u8],
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
            health: Arc::default(),
            read_only,
        };
        pool.conn_at(0)?;
        Ok(pool)
    }

    /// How many of this pool's connections have died (EOF, reset, failed
    /// write, a close found by a probe): when it moves, the peer may have
    /// been replaced. Unless a connection of the pool heard from the
    /// server within the last [`LIVENESS_WINDOW_NS`], every idle connection
    /// is probed first ([`MuxConn::probe`]), so a cache that answers
    /// without a frame still sees a server that restarted while this pool
    /// sent nothing.
    pub(crate) fn deaths(&self) -> u64 {
        let quiet = clock_ns().saturating_sub(self.health.alive_at.load(Ordering::Relaxed));
        if quiet >= LIVENESS_WINDOW_NS {
            for slot in &self.slots {
                let conn = slot.lock().clone();
                conn.inspect(|conn| conn.probe());
            }
        }
        self.health.deaths.load(Ordering::SeqCst)
    }

    /// The healthy connection for a slot, dialing (or redialing a dead
    /// one) under the slot lock so concurrent callers share one dial. An
    /// idle connection is probed first, so a call never leaves on a
    /// connection its server already closed.
    fn conn_at(&self, slot: usize) -> Result<Arc<MuxConn>> {
        let mut guard = self.slots[slot].lock();
        if let Some(conn) = guard.as_ref() {
            conn.probe();
            if !conn.is_dead() {
                return Ok(Arc::clone(conn));
            }
        }
        let conn = MuxConn::dial(self.addr, Arc::clone(&self.health))?;
        *guard = Some(Arc::clone(&conn));
        Ok(conn)
    }

    /// Meters and writes a run of request frames on the slot's connection
    /// in one write, returning where each response will arrive. Frames the
    /// connection did not take whole are retried once, as one run, on a
    /// fresh connection — safe for any operation, because an unwritten
    /// frame was never dispatched. A frame that was taken is never sent
    /// again.
    fn send_on(&self, slot: usize, requests: &[Body]) -> Vec<Result<(Arc<MuxConn>, u64)>> {
        let meter = if self.control {
            &self.stats.control_round_trips
        } else {
            &self.stats.port_round_trips
        };
        meter.fetch_add(requests.len() as u64, Ordering::Relaxed);
        let mut sent = Vec::with_capacity(requests.len());
        let mut retries = 1;
        let failure = loop {
            let conn = match self.conn_at(slot) {
                Ok(conn) => conn,
                Err(e) => break e,
            };
            let (ids, written) = conn.send(&requests[sent.len()..]);
            sent.extend(ids.into_iter().map(|id| Ok((Arc::clone(&conn), id))));
            match written {
                Ok(()) => return sent,
                Err(e) if retries == 0 => break e,
                Err(_) => retries -= 1,
            }
        };
        sent.resize_with(requests.len(), || Err(failure.clone()));
        sent
    }

    /// Whether `request`'s call changes nothing on the server.
    fn read_only(&self, request: &Body) -> bool {
        (request.as_slice().first()).is_some_and(|tag| self.read_only.contains(tag))
    }

    /// One request/response exchange, multiplexed: requests from many
    /// threads pipeline on the slot connections, matched back by request
    /// id.
    pub(crate) fn call(&self, request: &Body) -> Result<Vec<u8>> {
        single(self.call_all(std::slice::from_ref(request)))
    }

    /// [`Self::call`] for a run of independent requests: every waiter is
    /// registered, then the whole run leaves in one vectored write on one
    /// connection, in order, before the first response is awaited — so the
    /// round trips overlap, and the answers a server sends back together
    /// are read in one go. One frame, one meter tick and one result per
    /// request; frames the write did not take whole retry once, together.
    /// A read-only request whose connection closed before answering it is
    /// resent once, alone, on a freshly dialed connection (the reader that
    /// met the close marked the connection dead before it failed the
    /// waiter).
    pub(crate) fn call_all(&self, requests: &[Body]) -> Vec<Result<Vec<u8>>> {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        (requests.iter().zip(self.send_on(slot, requests)))
            .map(|(request, sent)| {
                let (conn, id) = sent?;
                match conn.wait(id) {
                    Err(_) if self.read_only(request) => {
                        let (conn, id) = single(self.send_on(slot, std::slice::from_ref(request)))?;
                        conn.wait(id)
                    }
                    answer => answer,
                }
            })
            .collect()
    }
}

/// A request frame: the method tag, then the method's arguments.
fn request<A: Wire + ?Sized>(tag: u8, args: &A) -> Body {
    let mut req = Body::default();
    req.put_u8(tag);
    args.put(&mut req);
    req
}

/// One typed exchange: the tag and arguments out, the decoded answer
/// back — all of the response, or a transport error.
fn call<A: Wire + ?Sized, T: Wire>(pool: &MuxPool, tag: u8, args: &A) -> Result<T> {
    let body = pool.call(&request(tag, args))?;
    decode_response(&body, T::get)
}

/// [`call`] for a diagnostic: a port method that returns a plain value
/// cannot propagate a transport failure, so it answers `T::default()` —
/// counted on `rpc_degraded_diagnostics`.
fn diagnostic<A: Wire + ?Sized, T: Wire + Default>(
    pool: &MuxPool,
    stats: &EngineStats,
    what: &str,
    tag: u8,
    args: &A,
) -> T {
    call(pool, tag, args).unwrap_or_else(|e| {
        degraded(stats, what, &e);
        T::default()
    })
}

/// The per-item results of one vectored frame's response: one per item
/// sent. A frame whose exchange failed, or that answers a different
/// number of items, fails every one of its `n` items.
fn batch_results<T: Wire>(response: Result<Vec<u8>>, n: usize) -> Vec<Result<T>> {
    let decoded = response.and_then(|body| {
        let items: Vec<Result<T>> = decode_response(&body, Wire::get)?;
        if items.len() != n {
            return Err(Error::Transport(format!(
                "batched response answers {} items, expected {n}",
                items.len()
            )));
        }
        Ok(items)
    });
    decoded.unwrap_or_else(|e| (0..n).map(|_| Err(e.clone())).collect())
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
    decode_response(body, |r| {
        let n = usize::get(r)?;
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
                    // `s` borrows from `body`, so its offset within the
                    // frame is plain pointer arithmetic on the same
                    // allocation.
                    let off = s.as_ptr() as usize - body.as_ptr() as usize;
                    results.push((slot, Ok((off, s.len()))));
                }
                batch_status::ERR => results.push((slot, Err(Error::get(r)?))),
                batch_status::DEFERRED => deferred.push((slot, id)),
                s => {
                    return Err(Error::Transport(format!(
                        "unexpected batch status byte {s}"
                    )))
                }
            }
        }
        Ok((results, deferred))
    })
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
            let pool =
                MuxPool::connect_with(addr, Arc::clone(&stats), budget, block_tag::READ_ONLY)?;
            let hosted: Vec<NodeId> = call(&pool, block_tag::DESCRIBE, &())?;
            route.extend((0..hosted.len() as u64).map(|local| (ei, local)));
            nodes.extend(hosted);
            endpoints.push(BlockEndpoint { pool });
        }
        Ok(Self {
            endpoints,
            route,
            nodes,
            stats,
        })
    }

    /// The pool serving one dense provider index, and the index within
    /// that endpoint.
    fn endpoint(&self, provider: usize) -> Result<(&MuxPool, u64)> {
        let &(ei, local) = self
            .route
            .get(provider)
            .ok_or_else(|| Error::Internal(format!("provider index {provider} out of range")))?;
        Ok((&self.endpoints[ei].pool, local))
    }

    /// A diagnostic about one provider (see [`diagnostic`]); an index out
    /// of range answers the default without a round trip.
    fn provider_diagnostic<A: Wire, T: Wire + Default>(
        &self,
        what: &str,
        tag: u8,
        provider: usize,
        args: A,
    ) -> T {
        match self.endpoint(provider) {
            Ok((pool, local)) => diagnostic(pool, &self.stats, what, tag, &(local, args)),
            Err(_) => T::default(),
        }
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
        self.provider_diagnostic("BlockStore::contains", block_tag::CONTAINS, provider, id)
    }

    fn put_many(&self, provider: usize, items: &[(BlockId, Bytes)]) -> Vec<Result<()>> {
        let (pool, local) = match self.endpoint(provider) {
            Ok(endpoint) => endpoint,
            Err(e) => return items.iter().map(|_| Err(e.clone())).collect(),
        };
        self.stats
            .batched_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
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
            // Each block rides the frame by reference, never copied.
            let mut req = request(block_tag::PUT_MANY, &(local, chunk.len()));
            for (id, data) in chunk {
                id.put(&mut req);
                req.put_bytes(data);
            }
            // A refused frame fails every item of its chunk: one lost
            // frame must not be mistaken for per-item success.
            out.extend(batch_results(pool.call(&req), chunk.len()));
            start = end;
        }
        out
    }

    fn get_many(&self, provider: usize, ids: &[BlockId]) -> Vec<Result<Bytes>> {
        let (pool, local) = match self.endpoint(provider) {
            Ok(endpoint) => endpoint,
            Err(e) => return ids.iter().map(|_| Err(e.clone())).collect(),
        };
        self.stats
            .batched_items
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
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
            let wanted: Vec<BlockId> = pending.iter().map(|&(_, id)| id).collect();
            let body = match pool.call(&request(block_tag::GET_MANY, &(local, wanted))) {
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
        let (pool, local) = match self.endpoint(provider) {
            Ok(endpoint) => endpoint,
            Err(e) => return ids.iter().map(|_| Err(e.clone())).collect(),
        };
        self.stats
            .batched_items
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let mut req = request(block_tag::DELETE_MANY, &local);
        ids.put(&mut req);
        batch_results(pool.call(&req), ids.len())
    }

    /// Transport failures degrade to `0` — counted on
    /// `rpc_degraded_diagnostics`.
    fn block_count(&self, provider: usize) -> usize {
        self.provider_diagnostic(
            "BlockStore::block_count",
            block_tag::BLOCK_COUNT,
            provider,
            (),
        )
    }

    /// Transport failures degrade to `0` — counted on
    /// `rpc_degraded_diagnostics`.
    fn bytes_stored(&self, provider: usize) -> u64 {
        let what = "BlockStore::bytes_stored";
        self.provider_diagnostic(what, block_tag::BYTES_STORED, provider, ())
    }

    /// Transport failures degrade to `(0, 0)` — counted on
    /// `rpc_degraded_diagnostics`.
    fn op_counts(&self, provider: usize) -> (u64, u64) {
        self.provider_diagnostic("BlockStore::op_counts", block_tag::OP_COUNTS, provider, ())
    }
}

// --- meta store -------------------------------------------------------------

/// Entries a [`ReadCache`] holds before it starts over: a descent touches
/// O(depth) inner nodes, so this is thousands of hot paths, and as many
/// revealed snapshots.
const READ_CACHE_MAX: usize = 1 << 16;

/// Answers an adapter has read that never change once published, so that
/// asking again sends no frame: [`RpcMetaStore`]'s inner tree nodes and
/// [`RpcVersionService`]'s revealed snapshots. A constant-size bound,
/// cleared when full; dropped whole when the pool loses a connection,
/// because the peer may be a restarted RAM server that reuses blob ids.
struct ReadCache<K, V> {
    entries: HashMap<K, V>,
    /// The pool's [`MuxPool::deaths`] when `entries` were read.
    deaths: u64,
    /// Bumped by every invalidation, so a fetch that overlapped one does
    /// not put back what it removed.
    generation: u64,
}

impl<K: Eq + Hash, V> ReadCache<K, V> {
    fn new() -> Self {
        Self {
            entries: HashMap::new(),
            deaths: 0,
            generation: 0,
        }
    }

    /// The current entries' generation, after dropping them all if the
    /// pool lost a connection since they were read.
    fn generation(&mut self, deaths: u64) -> u64 {
        if self.deaths != deaths {
            self.deaths = deaths;
            self.forget(|_| true);
        }
        self.generation
    }

    /// Keeps `value`, read during `generation`, unless an invalidation ran
    /// since.
    fn insert(&mut self, generation: u64, key: K, value: V) {
        if generation != self.generation {
            return;
        }
        if self.entries.len() >= READ_CACHE_MAX {
            self.entries.clear();
        }
        self.entries.insert(key, value);
    }

    /// Drops the entries whose key is `gone`.
    fn forget(&mut self, mut gone: impl FnMut(&K) -> bool) {
        self.generation += 1;
        self.entries.retain(|key, _| !gone(key));
    }

    /// Drops `keys`.
    fn forget_keys(&mut self, keys: &[K]) {
        self.generation += 1;
        keys.iter().for_each(|key| drop(self.entries.remove(key)));
    }
}

/// [`MetaStore`] over a remote metadata DHT service, with an always-on
/// cache of the **inner** tree nodes it has read.
///
/// Published nodes never change, so `get_many` answers the keys it has
/// seen from memory and sends one `GET_MANY` frame carrying only the
/// misses, or none: with [`RpcVersionService`]'s revealed snapshots, a
/// warm one-block read costs 3 frames (latest, the leaf level, the block)
/// at any history depth instead of 3 + depth. The cache is read-allocate,
/// so a cold read pays what it always did, and never holds a leaf — the
/// node an abort repair replaces and GC frees a block behind — so a stale
/// inner node leads only to a leaf that is gone (`MissingMetadata`) or
/// that names the version's exact bytes (docs/ARCHITECTURE.md, "The read
/// descent"). Entries leave
/// on this adapter's `delete_many` and `crash_shard`, and all at once
/// when the pool loses a connection: the peer may be a restarted RAM
/// server that reuses blob ids. Hits and misses count on
/// [`EngineStats::cache_hits`]/[`EngineStats::cache_misses`].
pub struct RpcMetaStore {
    pool: MuxPool,
    shard_count: usize,
    stats: Arc<EngineStats>,
    inner_nodes: Mutex<ReadCache<NodeKey, TreeNode>>,
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
        let pool = MuxPool::connect_with(addr, Arc::clone(&stats), budget, meta_tag::READ_ONLY)?;
        let shard_count = call(&pool, meta_tag::SHARD_COUNT, &())?;
        Ok(Self {
            pool,
            shard_count,
            stats,
            inner_nodes: Mutex::named(ReadCache::new(), "rpc.meta.inner_nodes"),
        })
    }

    /// Runs one metadata batch frame per `META_BATCH_MAX`-item chunk. A
    /// transport failure fails that chunk's items only.
    fn meta_batched<I: Wire, T: Wire>(&self, tag: u8, items: &[I]) -> Vec<Result<T>> {
        self.stats
            .batched_items
            .fetch_add(items.len() as u64, Ordering::Relaxed);
        let mut out = Vec::with_capacity(items.len());
        for chunk in items.chunks(META_BATCH_MAX) {
            out.extend(batch_results(
                self.pool.call(&request(tag, chunk)),
                chunk.len(),
            ));
        }
        out
    }

    /// [`diagnostic`] on this adapter's pool and stats.
    fn diagnostic<T: Wire + Default>(&self, what: &str, tag: u8) -> T {
        diagnostic(&self.pool, &self.stats, what, tag, &())
    }
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
        self.meta_batched(meta_tag::PUT_MANY, items)
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
        let requests: Vec<Body> = chunks
            .iter()
            .map(|(_, chunk)| request(meta_tag::PUT_MANY, *chunk))
            .collect();
        let mut out: Vec<Vec<Result<()>>> = levels
            .iter()
            .map(|level| Vec::with_capacity(level.len()))
            .collect();
        for ((level, chunk), response) in chunks.iter().zip(self.pool.call_all(&requests)) {
            out[*level].extend(batch_results(response, chunk.len()));
        }
        out
    }

    /// Cached inner nodes answer locally; one frame per batch carries the
    /// rest, so a read descent pays at most one round trip per tree level
    /// and none for a level it has read before.
    fn get_many(&self, keys: &[NodeKey]) -> Vec<Result<TreeNode>> {
        let deaths = self.pool.deaths();
        let (mut out, generation) = {
            let mut cache = self.inner_nodes.lock();
            let generation = cache.generation(deaths);
            let hits: Vec<_> = keys
                .iter()
                .map(|key| cache.entries.get(key).cloned().map(Ok))
                .collect();
            (hits, generation)
        };
        let missed: Vec<NodeKey> = keys
            .iter()
            .zip(&out)
            .filter_map(|(key, hit)| hit.is_none().then_some(*key))
            .collect();
        EngineStats::add(&self.stats.cache_hits, (keys.len() - missed.len()) as u64);
        EngineStats::add(&self.stats.cache_misses, missed.len() as u64);
        if !missed.is_empty() {
            // `meta_batched` answers every key it is given, in order.
            let fetched: Vec<Result<TreeNode>> = self.meta_batched(meta_tag::GET_MANY, &missed);
            let deaths = self.pool.deaths();
            let mut cache = self.inner_nodes.lock();
            cache.generation(deaths);
            let slots = keys.iter().zip(&mut out).filter(|(_, slot)| slot.is_none());
            for ((key, slot), result) in slots.zip(fetched) {
                if let Ok(node @ TreeNode::Inner { .. }) = &result {
                    cache.insert(generation, *key, node.clone());
                }
                *slot = Some(result);
            }
        }
        out.into_iter().flatten().collect()
    }

    /// One frame per batch: GC releases a whole cascade wave per round
    /// trip. Per item, transport loss is an `Err` ("outcome unknown").
    fn delete_many(&self, keys: &[NodeKey]) -> Vec<Result<bool>> {
        let out = self.meta_batched(meta_tag::DELETE_MANY, keys);
        self.inner_nodes.lock().forget_keys(keys);
        out
    }

    fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Transport failures degrade to `0` — counted on
    /// `rpc_degraded_diagnostics`.
    fn node_count(&self) -> usize {
        self.diagnostic("MetaStore::node_count", meta_tag::NODE_COUNT)
    }

    /// Transport failures degrade to an empty vector — counted on
    /// `rpc_degraded_diagnostics`.
    fn shard_stats(&self) -> Vec<(usize, u64, u64)> {
        self.diagnostic("MetaStore::shard_stats", meta_tag::SHARD_STATS)
    }

    /// Best-effort over the wire (a crash-injection hook; transport
    /// failures are ignored). The cached inner nodes all go too — keys do
    /// not reveal their shard here — so the crash is not masked.
    fn crash_shard(&self, shard: usize) {
        let _: Result<()> = call(&self.pool, meta_tag::CRASH_SHARD, &shard);
        self.inner_nodes.lock().forget(|_| true);
    }
}

// --- version service --------------------------------------------------------

/// [`VersionService`] over a remote version manager, with an always-on
/// cache of the revealed snapshots it has resolved.
///
/// A revealed snapshot never changes again, so `snapshot_info` answers a
/// `(blob, version)` it has seen revealed from memory: a warm read pays
/// `latest` and no second version-manager frame. An unrevealed answer is
/// never kept — the same call asks again. Entries leave on this adapter's
/// `delete_blob` (the BLOB's) and `collect_before` (the BLOB's below
/// `keep_from`), and all at once when the pool loses a connection. Another
/// deployment's GC cannot reach them: a stale entry sends the read into a
/// tree whose nodes are the version's own or gone, so it ends in the
/// version's exact bytes or [`Error::MissingMetadata`]
/// (docs/ARCHITECTURE.md, "The read descent").
pub struct RpcVersionService {
    pool: MuxPool,
    block_size: u64,
    revealed: Mutex<ReadCache<(BlobId, Version), SnapshotInfo>>,
}

impl RpcVersionService {
    /// [`Self::connect_with`] with the default connection budget.
    pub fn connect(addr: SocketAddr, stats: Arc<EngineStats>) -> Result<Self> {
        Self::connect_with(addr, stats, DEFAULT_RPC_CLIENT_CONNECTIONS)
    }

    /// Connects (`budget` multiplexed connections) and caches the fixed
    /// block size. `stats` receives the adapter's round-trip accounting.
    pub fn connect_with(addr: SocketAddr, stats: Arc<EngineStats>, budget: usize) -> Result<Self> {
        let pool = MuxPool::connect_with(addr, stats, budget, version_tag::READ_ONLY)?;
        let block_size = call(&pool, version_tag::BLOCK_SIZE, &())?;
        Ok(Self {
            pool,
            block_size,
            revealed: Mutex::named(ReadCache::new(), "rpc.version.revealed"),
        })
    }
}

impl VersionService for RpcVersionService {
    fn block_size(&self) -> u64 {
        self.block_size
    }

    fn create_blob(&self) -> Result<BlobId> {
        call(&self.pool, version_tag::CREATE_BLOB, &())
    }

    fn branch(&self, parent: BlobId, at: Version) -> Result<BlobId> {
        call(&self.pool, version_tag::BRANCH, &(parent, at))
    }

    fn assign(&self, blob: BlobId, intent: WriteIntent) -> Result<WriteTicket> {
        call(&self.pool, version_tag::ASSIGN, &(blob, intent))
    }

    fn commit(&self, blob: BlobId, version: Version) -> Result<()> {
        call(&self.pool, version_tag::COMMIT, &(blob, version))
    }

    fn latest(&self, blob: BlobId) -> Result<(Version, u64)> {
        call(&self.pool, version_tag::LATEST, &blob)
    }

    /// A revealed snapshot seen before answers from memory; any other
    /// crosses the wire, and is kept if it answers revealed.
    fn snapshot_info(&self, blob: BlobId, version: Version) -> Result<SnapshotInfo> {
        let deaths = self.pool.deaths();
        let generation = {
            let mut cache = self.revealed.lock();
            let generation = cache.generation(deaths);
            if let Some(info) = cache.entries.get(&(blob, version)) {
                return Ok(*info);
            }
            generation
        };
        let info: SnapshotInfo = call(&self.pool, version_tag::SNAPSHOT_INFO, &(blob, version))?;
        if info.revealed {
            let deaths = self.pool.deaths();
            let mut cache = self.revealed.lock();
            cache.generation(deaths);
            cache.insert(generation, (blob, version), info);
        }
        Ok(info)
    }

    fn chain(&self, blob: BlobId) -> Result<LogChain> {
        call(&self.pool, version_tag::CHAIN, &blob)
    }

    /// The server enforces the timeout and answers with Ok or
    /// [`Error::Timeout`]; this call parks on its waiter slot only, so
    /// other requests keep pipelining on the same connection.
    fn wait_revealed(&self, blob: BlobId, version: Version, timeout: Duration) -> Result<()> {
        let args = (blob, version, timeout);
        call(&self.pool, version_tag::WAIT_REVEALED, &args)
    }

    fn pending_versions(&self, blob: BlobId) -> Result<Vec<Version>> {
        call(&self.pool, version_tag::PENDING_VERSIONS, &blob)
    }

    fn delete_blob(&self, blob: BlobId) -> Result<Vec<NodeKey>> {
        let out = call(&self.pool, version_tag::DELETE_BLOB, &blob);
        self.revealed.lock().forget(|&(b, _)| b == blob);
        out
    }

    fn collect_before(&self, blob: BlobId, keep_from: Version) -> Result<Vec<NodeKey>> {
        let out = call(&self.pool, version_tag::COLLECT_BEFORE, &(blob, keep_from));
        self.revealed
            .lock()
            .forget(|&(b, v)| b == blob && v < keep_from);
        out
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
    /// Connect-time provider count: the provider set is fixed at boot, and
    /// `provider_count` is a plain (non-`Result`) shape accessor that must
    /// not fail on transport loss.
    count: usize,
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
        let count = call(&pool, placement_tag::PROVIDER_COUNT, &())?;
        Ok(Self { pool, count })
    }
}

impl PlacementService for RpcPlacementService {
    fn provider_count(&self) -> usize {
        self.count
    }

    fn allocate(&self, n_blocks: usize, replication: usize) -> Result<Vec<BlockAllocation>> {
        call(
            &self.pool,
            placement_tag::ALLOCATE,
            &(n_blocks, replication),
        )
    }

    fn release_many(&self, providers: &[usize]) -> Result<()> {
        call(&self.pool, placement_tag::RELEASE_MANY, providers)
    }

    fn load_vector(&self) -> Result<Vec<u64>> {
        call(&self.pool, placement_tag::LOAD_VECTOR, &())
    }

    fn register_provider(&self, node: NodeId) -> Result<usize> {
        call(&self.pool, placement_tag::REGISTER_PROVIDER, &node)
    }

    fn heartbeat(&self, provider: usize) -> Result<u64> {
        call(&self.pool, placement_tag::HEARTBEAT, &provider)
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
        call(&self.pool, gc_tag::INC_NODES, keys)
    }

    fn release_roots(&self, roots: &[NodeKey]) -> Result<GcReport> {
        let report: GcReport = call(&self.pool, gc_tag::RELEASE_ROOTS, roots)?;
        // Mirror the server-side cascade into this deployment's counters,
        // so `delete_blob`/`gc_before` observability is hosting-agnostic.
        EngineStats::add(&self.stats.meta_nodes_collected, report.nodes_deleted);
        EngineStats::add(&self.stats.blocks_collected, report.blocks_deleted);
        EngineStats::add(&self.stats.gc_untracked_releases, report.untracked_releases);
        Ok(report)
    }

    fn node_count(&self, key: &NodeKey) -> Result<u64> {
        call(&self.pool, gc_tag::NODE_COUNT, key)
    }

    fn tracked_nodes(&self) -> Result<usize> {
        call(&self.pool, gc_tag::TRACKED_NODES, &())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RpcServer, RpcService, ServerOptions};
    use blobseer_core::block_store::ProviderSet;
    use blobseer_core::VersionManager;
    use std::io::IoSlice;

    /// A socket writer that passes on the first `left` bytes it is given,
    /// then fails as a reset connection would.
    struct FailAfter {
        inner: TcpStream,
        left: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            match buf.len().min(self.left) {
                0 => Err(std::io::ErrorKind::ConnectionReset.into()),
                n => {
                    let n = self.inner.write(&buf[..n])?;
                    self.left -= n;
                    Ok(n)
                }
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    /// A run of `assign`s — the non-idempotent call — whose write fails
    /// after `k` bytes: the frames taken whole are served once, on the
    /// connection they left on; the rest retry once, on a fresh one.
    #[test]
    fn a_failed_run_resends_exactly_the_frames_not_taken_whole() {
        const RUN: u64 = 6;
        let vm = Arc::new(VersionManager::new(64, Arc::new(EngineStats::new())));
        let blob = vm.create_blob();
        let requests: Vec<Body> = (0..RUN)
            .map(|_| {
                request(
                    version_tag::ASSIGN,
                    &(blob, WriteIntent::Append { size: 64 }),
                )
            })
            .collect();
        // Where each frame of the run ends when it is the failing
        // connection's first: its ids start at 0.
        let mut ends = Vec::new();
        let mut wire = Vec::new();
        for (id, request) in (0..RUN).zip(&requests) {
            wire::write_frames(&mut wire, &[(id, request)]).unwrap();
            ends.push(wire.len());
        }
        let cuts = [
            0,
            1,
            ends[0],
            ends[2] - 1,
            ends[2],
            ends[4] + 3,
            wire.len() - 1,
        ];
        let mut assigned = 0;
        for k in cuts {
            let server = RpcServer::spawn(
                RpcService::Version(Arc::clone(&vm) as _),
                ServerOptions::default(),
            )
            .unwrap();
            let stats = Arc::new(EngineStats::new());
            let pool = MuxPool::connect_with(server.addr(), Arc::clone(&stats), 1, &[]).unwrap();
            let failing = MuxConn::dial_with(server.addr(), Arc::clone(&pool.health), |inner| {
                Box::new(FailAfter { inner, left: k })
            })
            .unwrap();
            *pool.slots[0].lock() = Some(failing);

            let mut versions: Vec<u64> = (pool.call_all(&requests).into_iter())
                .map(|body| decode_response(&body.unwrap(), WriteTicket::get).unwrap())
                .map(|ticket| ticket.version.raw())
                .collect();
            // Every assign answered and served exactly once. The two
            // connections are served side by side, so in either order.
            versions.sort_unstable();
            let expect: Vec<u64> = (assigned + 1..=assigned + RUN).collect();
            assert_eq!(versions, expect, "cut at byte {k}");
            assigned += RUN;
            assert_eq!(server.frames_served(), RUN, "cut at byte {k}");
            assert_eq!(stats.snapshot().port_round_trips, RUN, "one tick per frame");
            assert_eq!(pool.deaths(), 1, "only the failing connection died");
        }
    }

    /// A socket writer that notes where every slice it is offered lies.
    struct Recording {
        inner: TcpStream,
        offered: Arc<Mutex<Vec<(usize, usize)>>>,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            (self.offered.lock()).extend(bufs.iter().map(|b| (b.as_ptr() as usize, b.len())));
            self.inner.write_vectored(bufs)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    /// 600 one-byte blocks make a frame of more than `IOV_MAX` (1024)
    /// pieces, so the socket takes each run in several `writev`s: the
    /// `PUT_MANY` request and the `GET_MANY` answer still cross whole, one
    /// frame each way, and the request offers every block from its own
    /// buffer.
    #[test]
    fn six_hundred_one_byte_blocks_cross_by_reference_in_one_frame_each_way() {
        let server = RpcServer::spawn(
            RpcService::Block(Arc::new(ProviderSet::new(1, |_| NodeId::new(0)))),
            ServerOptions::default(),
        )
        .unwrap();
        let stats = Arc::new(EngineStats::new());
        let store = RpcBlockStore::connect_with(&[server.addr()], Arc::clone(&stats), 1).unwrap();
        let offered = Arc::new(Mutex::new(Vec::new()));
        let pool = &store.endpoints[0].pool;
        let recording = Arc::clone(&offered);
        let conn = MuxConn::dial_with(server.addr(), Arc::clone(&pool.health), |inner| {
            Box::new(Recording {
                inner,
                offered: recording,
            })
        })
        .unwrap();
        *pool.slots[0].lock() = Some(conn);

        let items: Vec<(BlockId, Bytes)> = (0..600u64)
            .map(|k| (BlockId::new(k), Bytes::from(vec![k as u8])))
            .collect();
        let frames = || stats.snapshot().port_round_trips;
        let before = frames();
        assert!(store.put_many(0, &items).iter().all(Result::is_ok));
        assert_eq!(frames() - before, 1, "one PUT_MANY frame");
        let offered = offered.lock().clone();
        for (id, data) in &items {
            let own = (data.as_ptr() as usize, 1);
            assert!(offered.contains(&own), "block {id:?} was copied");
        }
        let ids: Vec<BlockId> = items.iter().map(|(id, _)| *id).collect();
        let before = frames();
        let got = store.get_many(0, &ids);
        assert_eq!(frames() - before, 1, "one GET_MANY frame");
        for (got, (_, want)) in got.into_iter().zip(&items) {
            assert_eq!(&got.unwrap(), want);
        }
    }
}
