//! The sharded `std::net` front end.
//!
//! [`NetServer`] turns the in-process [`Server`] into a real network
//! service without an async runtime or any dependency: one acceptor
//! thread assigns each incoming connection a globally unique session
//! id and routes it to the shard the id hashes to;
//! N worker shards each run a small readiness loop over their own
//! nonblocking sockets. A shard with nothing to do blocks in `poll(2)`
//! on its connections plus a wake socket, and the acceptor on its
//! listener plus its own: a command is sent first and then woken, so
//! no thread sleeps a fixed interval while idle. Everything that
//! matters per frame is **shard-local**:
//!
//! * each shard owns a [`Server`] over one shared [`PlanCache`]
//!   (compiles single-flight process-wide; no frame reads the cache,
//!   only admission and view changes do);
//! * each shard owns a private [`Registry`]; cross-shard totals exist
//!   only at [`NetServer::metrics_snapshot`], which merges and then
//!   fixes up the non-additive gauges (ladder level, hit rates,
//!   active sessions);
//! * admission is the one global: every shard's server claims from
//!   one [`AdmissionBudget`], so capacity holds across the fleet and
//!   an over-budget `Connect` is answered with `Shed(Rejected)` no
//!   matter which shard it landed on.
//!
//! The wire path inherits the [`wire`] module's
//! guarantees: a malformed, truncated or oversized frame costs the
//! peer its connection (`Shed(Protocol)` + `Goodbye`, connection
//! closed, `serve.net.protocol_errors` bumped) and costs the shard
//! nothing — the readiness loop carries no panicking path.

// Same hardening bar as the wire module: these threads must outlive
// every hostile peer.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fisheye_core::engine::EngineSpec;
use fisheye_core::post::PostStage;
use pixmap::{Gray8, Image};

use crate::cache::PlanCache;
use crate::metrics::Registry;
use crate::readiness::{Poller, Waker};
use crate::server::{AdmissionBudget, Server, ServerConfig, Session, SessionConfig, SubmitOutcome};
use crate::wire::{self, Message, SessionDesc, ShedReason, WireError};

/// Network front-end tuning on top of the per-shard [`ServerConfig`].
#[derive(Clone, Copy, Debug)]
pub struct NetServerConfig {
    /// Per-shard server tuning. `capacity` and `plan_cache_capacity`
    /// are **global**: capacity backs the shared admission budget and
    /// the cache capacity sizes the one plan cache every shard shares.
    pub server: ServerConfig,
    /// Worker shards (threads); connections spread across them by
    /// session-id hash.
    pub shards: usize,
    /// Outbound bytes a connection may buffer before the shard stops
    /// pumping new frames for it (they age in the bounded session
    /// queue instead — backpressure, not memory growth).
    pub max_write_buffer: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            server: ServerConfig::default(),
            shards: 2,
            max_write_buffer: 8 << 20,
        }
    }
}

/// SplitMix64 — the shard router. A session id is a counter, so the
/// mix is what spreads consecutive connections across shards.
fn shard_of(session_id: u64, shards: usize) -> usize {
    let mut z = session_id.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z % shards.max(1) as u64) as usize
}

enum ShardCmd {
    Accept { stream: TcpStream, session_id: u64 },
    Shutdown,
}

struct ShardHandle {
    tx: Sender<ShardCmd>,
    waker: Waker,
    join: Option<JoinHandle<()>>,
    server: Server,
}

/// A listening, sharded serving front end. Construct with
/// [`NetServer::bind`], talk to it with [`Client`](crate::Client) (or
/// any implementation of the [`wire`] protocol), stop it
/// with [`NetServer::shutdown`] — which drains every shard: pending
/// frames are shed with `Shed(Shutdown)` so the conservation
/// invariant (submitted = completed + dropped + shed) survives
/// teardown.
pub struct NetServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    accept_waker: Waker,
    shards: Vec<ShardHandle>,
    budget: AdmissionBudget,
    cache: PlanCache,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("shards", &self.shards.len())
            .field("active", &self.budget.active())
            .finish()
    }
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start the acceptor and
    /// shard threads.
    pub fn bind(addr: &str, cfg: NetServerConfig) -> Result<NetServer, fisheye::Error> {
        if cfg.shards == 0 {
            return Err(fisheye::Error::config("shard count must be at least 1"));
        }
        let listener = TcpListener::bind(addr)
            .map_err(|e| fisheye::Error::runtime(format!("bind {addr}: {e}")))?;
        let local = listener
            .local_addr()
            .map_err(|e| fisheye::Error::runtime(format!("local_addr: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| fisheye::Error::runtime(format!("set_nonblocking: {e}")))?;

        let budget = AdmissionBudget::new(cfg.server.capacity);
        let cache = PlanCache::new(cfg.server.plan_cache_capacity)?;
        let stop = Arc::new(AtomicBool::new(false));

        let poller =
            || Poller::new().map_err(|e| fisheye::Error::runtime(format!("wake socket: {e}")));
        let mut shards = Vec::with_capacity(cfg.shards);
        let mut routes = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let server =
                Server::with_parts(cfg.server, budget.clone(), cache.clone(), Registry::new())?;
            let (tx, rx) = std::sync::mpsc::channel();
            let (shard_poller, waker) = poller()?;
            let worker = server.clone();
            let max_write = cfg.max_write_buffer;
            let join = std::thread::Builder::new()
                .name(format!("fisheye-shard-{i}"))
                .spawn(move || shard_loop(worker, rx, shard_poller, max_write))
                .map_err(|e| fisheye::Error::runtime(format!("spawn shard: {e}")))?;
            routes.push((tx.clone(), waker.clone()));
            shards.push(ShardHandle {
                tx,
                waker,
                join: Some(join),
                server,
            });
        }

        let (mut accept_poller, accept_waker) = poller()?;
        let accept_stop = Arc::clone(&stop);
        let shard_count = cfg.shards;
        let acceptor = std::thread::Builder::new()
            .name("fisheye-accept".into())
            .spawn(move || {
                let next = AtomicU64::new(1);
                while !accept_stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            let session_id = next.fetch_add(1, Ordering::Relaxed);
                            let ok = stream.set_nonblocking(true).is_ok()
                                && stream.set_nodelay(true).is_ok();
                            if !ok {
                                continue;
                            }
                            let shard = shard_of(session_id, shard_count);
                            if let Some((tx, waker)) = routes.get(shard) {
                                if tx.send(ShardCmd::Accept { stream, session_id }).is_ok() {
                                    waker.wake();
                                }
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            // `shutdown` stores `stop`, then wakes
                            accept_poller.clear();
                            accept_poller.watch(&listener, true, false);
                            accept_poller.wait(None);
                        }
                        // e.g. EMFILE: the listener stays readable, so
                        // a wait would return at once
                        Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                    }
                }
            })
            .map_err(|e| fisheye::Error::runtime(format!("spawn acceptor: {e}")))?;

        Ok(NetServer {
            addr: local,
            stop,
            acceptor: Some(acceptor),
            accept_waker,
            shards,
            budget,
            cache,
        })
    }

    /// The bound address (with the real port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions currently admitted across all shards.
    pub fn active_sessions(&self) -> usize {
        self.budget.active()
    }

    /// Plan bytes resident in the shared plan cache — the number the
    /// soak bench bounds.
    pub fn resident_plan_bytes(&self) -> usize {
        self.cache.stats().bytes
    }

    /// Merge every shard's registry into one snapshot, then fix up
    /// the gauges that don't add: `serve.sessions.active` comes from
    /// the shared budget, `serve.degrade.level` is the worst shard's
    /// level, and the `serve.cache.*` family is read live from the
    /// one shared cache.
    pub fn metrics_snapshot(&self) -> Registry {
        let merged = Registry::new();
        let mut worst_level = 0.0f64;
        for sh in &self.shards {
            merged.merge_from(sh.server.metrics());
            if let Some(l) = sh.server.metrics().gauge_value("serve.degrade.level") {
                worst_level = worst_level.max(l);
            }
        }
        merged.gauge("serve.sessions.active", self.budget.active() as f64);
        merged.gauge("serve.degrade.level", worst_level);
        self.cache.export(&merged, "serve.cache");
        merged.gauge(
            "serve.cache.resident_bytes",
            self.cache.stats().bytes as f64,
        );
        merged
    }

    /// Stop accepting, drain every shard (pending frames are shed
    /// with `Shed(Shutdown)`, connections get a `Goodbye`), and join
    /// all threads. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        // The acceptor stops first, so no `Accept` follows a shard's
        // `Shutdown`, and only live threads are woken.
        if let Some(j) = self.acceptor.take() {
            self.stop.store(true, Ordering::SeqCst);
            self.accept_waker.wake();
            let _ = j.join();
        }
        for sh in self.shards.iter().filter(|sh| sh.join.is_some()) {
            if sh.tx.send(ShardCmd::Shutdown).is_ok() {
                sh.waker.wake();
            }
        }
        for sh in &mut self.shards {
            if let Some(j) = sh.join.take() {
                let _ = j.join();
            }
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long a draining shard keeps retrying blocked writes before
/// force-closing the stragglers.
const DRAIN_DEADLINE: Duration = Duration::from_secs(2);

/// How long the acceptor backs off after an accept error.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(1);

/// Pass over every connection, and repeat while the last pass made
/// progress. Then wait for a socket event or a command, the only
/// things that can create work: a `Session` has no timers, since
/// deadlines are judged inside `pump_one` and the ladder steps on
/// completions.
fn shard_loop(server: Server, rx: Receiver<ShardCmd>, mut poller: Poller, max_write: usize) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut draining: Option<Instant> = None;
    loop {
        poller.drain_wakes();
        loop {
            match rx.try_recv() {
                Ok(ShardCmd::Accept { stream, session_id }) => {
                    server.metrics().inc("serve.net.accepted");
                    conns.push(Conn::new(stream, session_id));
                }
                Ok(ShardCmd::Shutdown) => {
                    draining.get_or_insert_with(Instant::now);
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    draining.get_or_insert_with(Instant::now);
                    break;
                }
            }
        }
        let shutdown = draining.is_some();
        let mut progress = false;
        conns.retain_mut(|c| c.tick(&server, max_write, shutdown, &mut progress));
        let mut timeout = None;
        if let Some(started) = draining {
            if conns.is_empty() {
                return;
            }
            let Some(left) = DRAIN_DEADLINE.checked_sub(started.elapsed()) else {
                for c in &mut conns {
                    c.force_close(&server);
                }
                return;
            };
            timeout = Some(left);
        }
        if !progress {
            poller.clear();
            for c in &conns {
                c.watch(&mut poller);
            }
            poller.wait(timeout);
        }
    }
}

enum ConnState {
    AwaitHello,
    AwaitConnect,
    Active(Box<Session>),
    Closed,
}

struct Conn {
    stream: TcpStream,
    session_id: u64,
    state: ConnState,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Internal session seq → the client's wire seq, for frames in
    /// the session queue.
    pending: HashMap<u64, u64>,
    /// Flush the write buffer, then close.
    closing: bool,
    dead: bool,
    said_goodbye: bool,
}

impl Conn {
    fn new(stream: TcpStream, session_id: u64) -> Conn {
        Conn {
            stream,
            session_id,
            state: ConnState::AwaitHello,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: HashMap::new(),
            closing: false,
            dead: false,
            said_goodbye: false,
        }
    }

    /// One readiness-loop pass: read, decode, pump, write. Returns
    /// `false` when the connection is finished and should be dropped
    /// (dropping the session releases its admission slot and sheds
    /// its queue).
    fn tick(
        &mut self,
        server: &Server,
        max_write: usize,
        shutdown: bool,
        progress: &mut bool,
    ) -> bool {
        if shutdown && !self.closing {
            self.begin_shutdown(server);
        }
        if !self.dead && !self.closing {
            self.fill(progress);
            self.drain_messages(server, progress);
        }
        if !self.dead {
            self.pump(server, max_write, progress);
            self.flush(progress);
        }
        if self.dead {
            server.metrics().inc("serve.net.closed");
            return false;
        }
        if self.closing && self.wpos >= self.wbuf.len() {
            let _ = self.stream.shutdown(std::net::Shutdown::Both);
            server.metrics().inc("serve.net.closed");
            return false;
        }
        true
    }

    /// Register the readiness this connection waits for: readable
    /// while it still takes input, writable while output is unsent
    /// (how a session held back by `max_write` resumes, and all a
    /// draining connection waits for).
    fn watch(&self, poller: &mut Poller) {
        let readable = !self.closing && !self.dead;
        let writable = self.wpos < self.wbuf.len();
        poller.watch(&self.stream, readable, writable);
    }

    /// Shutdown drain: shed the queue (each shed frame gets a typed
    /// `Shed(Shutdown)`), say goodbye, and switch to flush-then-close.
    fn begin_shutdown(&mut self, server: &Server) {
        if let ConnState::Active(session) = &mut self.state {
            for internal in session.shed_pending() {
                let seq = self.pending.remove(&internal).unwrap_or(internal);
                self.queue_msg(
                    server,
                    &Message::Shed {
                        seq,
                        reason: ShedReason::Shutdown,
                    },
                );
            }
        }
        self.say_goodbye(server);
        self.closing = true;
        self.state = ConnState::Closed;
    }

    fn force_close(&mut self, server: &Server) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        self.state = ConnState::Closed;
        server.metrics().inc("serve.net.closed");
    }

    fn fill(&mut self, progress: &mut bool) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    *progress = true;
                    if let Some(read) = chunk.get(..n) {
                        self.rbuf.extend_from_slice(read);
                    }
                    if n < chunk.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    fn drain_messages(&mut self, server: &Server, progress: &mut bool) {
        // move the buffer out so decoded messages (which borrow it)
        // and `self` methods don't fight over the borrow
        let rbuf = std::mem::take(&mut self.rbuf);
        let mut consumed = 0usize;
        while !self.closing && !self.dead {
            match wire::decode_frame(rbuf.get(consumed..).unwrap_or(&[])) {
                Ok(Some((msg, used))) => {
                    consumed += used;
                    *progress = true;
                    self.handle(server, msg);
                }
                Ok(None) => break,
                Err(e) => {
                    self.protocol_error(server, e);
                    break;
                }
            }
        }
        self.rbuf = rbuf;
        if consumed > 0 {
            self.rbuf.drain(..consumed);
        }
    }

    fn handle(&mut self, server: &Server, msg: Message<'_>) {
        match msg {
            Message::Hello { version, .. } => {
                if !matches!(self.state, ConnState::AwaitHello) || version != wire::WIRE_VERSION {
                    self.protocol_error(server, WireError::Malformed("unexpected hello"));
                    return;
                }
                self.state = ConnState::AwaitConnect;
            }
            Message::Connect(desc) => {
                if !matches!(self.state, ConnState::AwaitConnect) {
                    self.protocol_error(server, WireError::Malformed("unexpected connect"));
                    return;
                }
                self.open_session(server, desc);
            }
            Message::SubmitFrame { seq, frame } => {
                let ConnState::Active(session) = &mut self.state else {
                    self.protocol_error(server, WireError::Malformed("submit before connect"));
                    return;
                };
                let internal = session.next_seq();
                match session.submit_frame(Arc::new(frame.to_frame())) {
                    SubmitOutcome::Queued => {
                        self.pending.insert(internal, seq);
                    }
                    SubmitOutcome::DroppedOldest(old) => {
                        self.pending.insert(internal, seq);
                        let old_seq = self.pending.remove(&old).unwrap_or(old);
                        self.queue_msg(
                            server,
                            &Message::Shed {
                                seq: old_seq,
                                reason: ShedReason::ReplacedOldest,
                            },
                        );
                    }
                    SubmitOutcome::DroppedNewest => {
                        self.queue_msg(
                            server,
                            &Message::Shed {
                                seq,
                                reason: ShedReason::QueueRefused,
                            },
                        );
                    }
                }
            }
            Message::SetView(view) => {
                let ConnState::Active(session) = &mut self.state else {
                    self.protocol_error(server, WireError::Malformed("set_view before connect"));
                    return;
                };
                if session.set_view(view).is_err() {
                    server.metrics().inc("serve.net.view_errors");
                    self.queue_msg(
                        server,
                        &Message::Shed {
                            seq: 0,
                            reason: ShedReason::Internal,
                        },
                    );
                }
            }
            Message::Goodbye => {
                // dropping the session sheds its queue and frees the slot
                self.state = ConnState::Closed;
                self.closing = true;
            }
            Message::FrameDone { .. } | Message::Shed { .. } => {
                self.protocol_error(server, WireError::Malformed("server-only message"));
            }
        }
    }

    fn open_session(&mut self, server: &Server, desc: SessionDesc<'_>) {
        let backend = match EngineSpec::parse(desc.backend) {
            Ok(spec) => spec,
            Err(_) => {
                self.protocol_error(server, WireError::BadValue("unknown backend"));
                return;
            }
        };
        let cfg = SessionConfig {
            lens: desc.lens,
            view: desc.view,
            source: desc.source,
            format: desc.format,
            backend,
            interp: desc.interp,
            post: PostStage::identity(),
            deadline: (desc.deadline_us > 0)
                .then(|| Duration::from_micros(u64::from(desc.deadline_us))),
            // the wire protocol describes single-camera sessions;
            // composite workloads are an in-process API for now
            workload: crate::server::Workload::Single,
        };
        match server.connect_with_id(cfg, self.session_id) {
            Ok(session) => {
                let id = session.id();
                self.state = ConnState::Active(Box::new(session));
                self.queue_msg(
                    server,
                    &Message::Hello {
                        version: wire::WIRE_VERSION,
                        session: id,
                    },
                );
            }
            Err(e) => {
                let reason = if e.is_rejected() {
                    ShedReason::Rejected
                } else {
                    ShedReason::Internal
                };
                self.queue_msg(server, &Message::Shed { seq: 0, reason });
                self.say_goodbye(server);
                self.closing = true;
                self.state = ConnState::Closed;
            }
        }
    }

    /// Correct pending frames and stream the results out, as long as
    /// the connection's outbound buffer stays under its cap.
    fn pump(&mut self, server: &Server, max_write: usize, progress: &mut bool) {
        loop {
            if self.wbuf.len() - self.wpos >= max_write {
                return;
            }
            let ConnState::Active(session) = &mut self.state else {
                return;
            };
            match session.pump_one() {
                Ok(Some(outcome)) => {
                    *progress = true;
                    let seq = self.pending.remove(&outcome.seq).unwrap_or(outcome.seq);
                    let latency_us = u32::try_from(outcome.latency.as_micros()).unwrap_or(u32::MAX);
                    let format = outcome.frame.format();
                    let planes = outcome.frame.into_planes();
                    let refs: Vec<&Image<Gray8>> = planes.iter().map(|p| &**p).collect();
                    if wire::encode_frame_done(
                        seq,
                        latency_us,
                        outcome.missed,
                        outcome.level,
                        format,
                        &refs,
                        &mut self.wbuf,
                    )
                    .is_err()
                    {
                        server.metrics().inc("serve.net.encode_errors");
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    // a per-frame config error (e.g. mismatched frame
                    // dims) fails the frame, never the shard
                    server.metrics().add("serve.frames.shed_internal", 1);
                    self.queue_msg(
                        server,
                        &Message::Shed {
                            seq: 0,
                            reason: ShedReason::Internal,
                        },
                    );
                    return;
                }
            }
        }
    }

    fn flush(&mut self, progress: &mut bool) {
        while self.wpos < self.wbuf.len() {
            let out = self.wbuf.get(self.wpos..).unwrap_or(&[]);
            match self.stream.write(out) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    *progress = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 64 * 1024 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
    }

    fn queue_msg(&mut self, server: &Server, msg: &Message<'_>) {
        if msg.encode_into(&mut self.wbuf).is_err() {
            server.metrics().inc("serve.net.encode_errors");
        }
    }

    fn say_goodbye(&mut self, server: &Server) {
        if !self.said_goodbye {
            self.said_goodbye = true;
            self.queue_msg(server, &Message::Goodbye);
        }
    }

    fn protocol_error(&mut self, server: &Server, err: WireError) {
        server.metrics().inc("serve.net.protocol_errors");
        let _ = err; // typed for the caller; the metric is the record
        self.queue_msg(
            server,
            &Message::Shed {
                seq: 0,
                reason: ShedReason::Protocol,
            },
        );
        self.say_goodbye(server);
        self.closing = true;
        self.state = ConnState::Closed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_router_spreads_consecutive_ids() {
        let shards = 4;
        let mut seen = [0usize; 4];
        for id in 1..=1000u64 {
            seen[shard_of(id, shards)] += 1;
        }
        for (i, &n) in seen.iter().enumerate() {
            assert!(n > 150, "shard {i} got only {n}/1000 sessions");
        }
    }

    #[test]
    fn zero_shards_is_a_config_error() {
        let cfg = NetServerConfig {
            shards: 0,
            ..NetServerConfig::default()
        };
        assert!(NetServer::bind("127.0.0.1:0", cfg).is_err());
    }
}
