//! The fingerprint-sharded router: a thin proxy that consistent-hashes
//! `tune`/`lookup` requests over the 128-bit sparsity fingerprint onto N
//! shard servers, with failover to the ring's next live shard.
//!
//! The router is the second tier of the connection reactor the server
//! runs on: the reactor owns the listener and every client connection with
//! its in-order slot queue, and the router adds one persistent connection
//! per shard on its own poll tokens. It never tunes and never caches: its
//! whole job is to pick a shard and move frames. Life of a request:
//!
//! 1. `stats` and `shutdown` are answered locally (shutdown drains the
//!    *router*; shards stay up). `sync` is refused — journal streaming is
//!    shard-to-shard.
//! 2. `tune`/`lookup` bodies are fingerprinted on the loop (parsing is
//!    cheap relative to tuning), a response slot is reserved, and the
//!    frame's *exact bytes* are forwarded to the first reachable shard in
//!    [`HashRing::successors`] order. The shard's response frame fills the
//!    slot byte-exact, so the client sees precisely what the shard said —
//!    in request order, even when pipelined requests hash to different
//!    shards and complete out of order upstream.
//! 3. **Failover:** a shard that refuses connections, dies mid-frame, or
//!    closes mid-stream is marked down; every request in flight on it is
//!    re-dispatched to the next live shard on that key's ring walk, which
//!    cold-tunes. Degraded, never wrong: the fallback shard computes the
//!    same deterministic decision the owner would have. A request only
//!    fails when *no* shard is reachable. Down shards are re-dialed after a
//!    cooldown.
//!
//! Observability: `serve.route.requests`, `serve.route.forwarded`,
//! `serve.route.failover`, `serve.route.shard_down`,
//! `serve.route.reconnects`, and a `router` section in the local `stats`
//! frame with per-shard states.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use waco_core::WacoError;
use waco_runtime::poll::{Event, Interest, Waker};

use crate::fingerprint::Fingerprint;
use crate::json::Json;
use crate::protocol::{
    decode_frame, encode_frame, error_response, parse_and_fingerprint, Decoded, Request,
};
use crate::reactor::{Reactor, Tier, TOKEN_TIER_BASE};
use crate::ring::{HashRing, DEFAULT_VNODES};

/// How long one blocking dial of a shard may take. Loopback refusals are
/// immediate; this only bounds a pathologically unresponsive stack.
const CONNECT_TIMEOUT: Duration = Duration::from_millis(500);
/// How long a down shard stays quarantined before the router re-dials it.
const RETRY_COOLDOWN: Duration = Duration::from_secs(1);

/// Validated router configuration. Construct via [`RouterConfig::builder`].
#[derive(Debug, Clone)]
pub struct RouterConfig {
    addr: SocketAddr,
    shards: Vec<SocketAddr>,
    vnodes: usize,
    timeout: Duration,
    max_connections: usize,
}

impl RouterConfig {
    /// Starts a builder with localhost defaults (ephemeral port,
    /// [`DEFAULT_VNODES`] ring points per shard, 64-connection cap, 30 s
    /// client idle timeout). Shard addresses are required.
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder {
            addr: "127.0.0.1:0".to_string(),
            shards: Vec::new(),
            vnodes: DEFAULT_VNODES,
            timeout_secs: 30.0,
            max_connections: 64,
        }
    }

    /// The configured bind address (port 0 = ephemeral).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shard addresses, in ring-index order.
    pub fn shards(&self) -> &[SocketAddr] {
        &self.shards
    }
}

/// Validating builder for [`RouterConfig`].
#[derive(Debug, Clone)]
pub struct RouterConfigBuilder {
    addr: String,
    shards: Vec<String>,
    vnodes: usize,
    timeout_secs: f64,
    max_connections: usize,
}

impl RouterConfigBuilder {
    /// Bind address, e.g. `127.0.0.1:7070`. Must be loopback.
    pub fn addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Adds one shard address. Ring index = insertion order.
    pub fn shard(mut self, addr: impl Into<String>) -> Self {
        self.shards.push(addr.into());
        self
    }

    /// Virtual nodes per shard on the hash ring.
    pub fn vnodes(mut self, vnodes: usize) -> Self {
        self.vnodes = vnodes;
        self
    }

    /// Client idle timeout in seconds.
    pub fn timeout_secs(mut self, secs: f64) -> Self {
        self.timeout_secs = secs;
        self
    }

    /// Maximum concurrently open client connections.
    pub fn max_connections(mut self, n: usize) -> Self {
        self.max_connections = n;
        self
    }

    /// Validates and builds.
    ///
    /// # Errors
    ///
    /// [`WacoError::InvalidConfig`] for no shards, a non-loopback or
    /// unparseable address (router or shard), zero vnodes/connections, or a
    /// non-positive timeout.
    pub fn build(self) -> Result<RouterConfig, WacoError> {
        let parse_loopback = |what: &str, text: &str| -> Result<SocketAddr, WacoError> {
            let addr: SocketAddr = text.parse().map_err(|_| {
                WacoError::InvalidConfig(format!("{what} `{text}` is not a socket address"))
            })?;
            if !addr.ip().is_loopback() {
                return Err(WacoError::InvalidConfig(format!(
                    "{what} `{addr}` is not a loopback address; the tuning service is localhost-only"
                )));
            }
            Ok(addr)
        };
        let addr = parse_loopback("router.addr", &self.addr)?;
        if self.shards.is_empty() {
            return Err(WacoError::InvalidConfig(
                "router needs at least one shard address".into(),
            ));
        }
        let shards = self
            .shards
            .iter()
            .map(|s| parse_loopback("router shard", s))
            .collect::<Result<Vec<_>, _>>()?;
        if self.vnodes == 0 {
            return Err(WacoError::InvalidConfig(
                "router.vnodes must be at least 1".into(),
            ));
        }
        if self.max_connections == 0 {
            return Err(WacoError::InvalidConfig(
                "router.max_connections must be at least 1".into(),
            ));
        }
        if !(self.timeout_secs > 0.0 && self.timeout_secs.is_finite()) {
            return Err(WacoError::InvalidConfig(format!(
                "router.timeout_secs must be positive and finite, got {}",
                self.timeout_secs
            )));
        }
        Ok(RouterConfig {
            addr,
            shards,
            vnodes: self.vnodes,
            timeout: Duration::from_secs_f64(self.timeout_secs),
            max_connections: self.max_connections,
        })
    }
}

// ---------------------------------------------------------------------------
// The router's tier of the reactor
// ---------------------------------------------------------------------------

/// One request forwarded (or awaiting forwarding) to a shard. Keeps the
/// encoded frame and the fingerprint so a shard death can re-dispatch it
/// down the ring walk.
struct Pending {
    conn: u64,
    slot: u64,
    frame: Vec<u8>,
    fp: Fingerprint,
    tried: Vec<usize>,
}

/// The router's connection to one shard. `stream` is lazily dialed;
/// `down_since` quarantines a shard that failed until the cooldown passes.
struct Upstream {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    down_since: Option<Instant>,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: VecDeque<Pending>,
    interest: Interest,
}

impl Upstream {
    fn state_name(&self) -> &'static str {
        if self.stream.is_some() {
            "connected"
        } else if self.down_since.is_some() {
            "down"
        } else {
            "idle"
        }
    }
}

/// Counters shared between the loop and [`Router`] handles.
struct RouterShared {
    shutdown: AtomicBool,
    requests: AtomicU64,
    forwarded: AtomicU64,
    failover: AtomicU64,
    shard_down: AtomicU64,
    reconnects: AtomicU64,
    waker: Waker,
}

/// What the router plugs into the [`Reactor`]: one poll token per shard
/// (shard `i` at `TOKEN_TIER_BASE + i`), ring dispatch, and failover.
struct RouterTier {
    shared: Arc<RouterShared>,
    ring: HashRing,
    upstreams: Vec<Upstream>,
}

impl Tier for RouterTier {
    fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    fn request(&mut self, reactor: &mut Reactor, token: u64, body: &Json, raw: &[u8]) {
        self.shared.requests.fetch_add(1, Ordering::Relaxed);
        waco_obs::counter("serve.route.requests", 1);
        let req = match Request::from_json(body) {
            Ok(r) => r,
            Err(e) => return reactor.respond(token, &error_response(&e.to_string(), false)),
        };
        match req {
            Request::Stats => reactor.respond(token, &self.stats_response()),
            Request::Shutdown => {
                reactor.respond(
                    token,
                    &Json::obj([("ok", Json::Bool(true)), ("draining", Json::Bool(true))]),
                );
                reactor.close_after_flush(token);
                self.shared.shutdown.store(true, Ordering::SeqCst);
                waco_obs::counter("serve.route.shutdowns", 1);
            }
            Request::Sync { .. } => {
                // Journal streaming is shard-to-shard: a joiner dials the
                // source shard directly (`serve --sync-from`).
                reactor.respond(
                    token,
                    &error_response("sync must target a shard directly, not the router", false),
                );
            }
            Request::Tune { matrix, .. } | Request::Lookup { matrix, .. } => {
                let fp = match parse_and_fingerprint(&matrix) {
                    Ok((_, fp)) => fp,
                    Err(e) => return reactor.respond(token, &error_response(&e, false)),
                };
                let Some(slot) = reactor.push_waiting(token) else {
                    return;
                };
                let pending = Pending {
                    conn: token,
                    slot,
                    frame: raw.to_vec(),
                    fp,
                    tried: Vec::new(),
                };
                self.dispatch(reactor, pending);
            }
        }
    }

    fn event(&mut self, reactor: &mut Reactor, ev: &Event) {
        let shard = (ev.token - TOKEN_TIER_BASE) as usize;
        if ev.readable || ev.closed {
            self.read_upstream(reactor, shard);
        }
        if ev.writable {
            self.flush_upstream(reactor, shard);
        }
    }
}

impl RouterTier {
    /// Forwards `pending` to the first reachable shard on its key's ring
    /// walk, skipping shards it already tried. When the chosen shard is not
    /// the key's owner, that is a failover. When no shard is reachable, the
    /// client gets an error frame — the only case a routed request fails.
    fn dispatch(&mut self, reactor: &mut Reactor, mut pending: Pending) {
        let order = self.ring.successors(pending.fp);
        let primary = order[0];
        for shard in order {
            if pending.tried.contains(&shard) {
                continue;
            }
            if !self.ensure_connected(reactor, shard) {
                continue;
            }
            pending.tried.push(shard);
            if shard != primary {
                self.shared.failover.fetch_add(1, Ordering::Relaxed);
                waco_obs::counter("serve.route.failover", 1);
            }
            self.shared.forwarded.fetch_add(1, Ordering::Relaxed);
            waco_obs::counter("serve.route.forwarded", 1);
            let up = &mut self.upstreams[shard];
            up.wbuf.extend_from_slice(&pending.frame);
            up.inflight.push_back(pending);
            self.flush_upstream(reactor, shard);
            return;
        }
        let frame = encode_frame(&error_response(
            "no shard reachable for this request",
            false,
        ));
        reactor.fill_slot(pending.conn, pending.slot, frame);
    }

    /// Dials the shard if needed. Returns `false` while it is quarantined
    /// or the dial fails (which starts/extends the quarantine).
    fn ensure_connected(&mut self, reactor: &Reactor, shard: usize) -> bool {
        if self.upstreams[shard].stream.is_some() {
            return true;
        }
        if let Some(since) = self.upstreams[shard].down_since {
            if since.elapsed() < RETRY_COOLDOWN {
                return false;
            }
        }
        let addr = self.upstreams[shard].addr;
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)
            .and_then(|s| s.set_nonblocking(true).map(|()| s));
        match stream {
            Ok(s) => {
                let _ = s.set_nodelay(true);
                let token = TOKEN_TIER_BASE + shard as u64;
                if reactor
                    .poller()
                    .add(s.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    self.upstreams[shard].down_since = Some(Instant::now());
                    return false;
                }
                let up = &mut self.upstreams[shard];
                if up.down_since.take().is_some() {
                    self.shared.reconnects.fetch_add(1, Ordering::Relaxed);
                    waco_obs::counter("serve.route.reconnects", 1);
                }
                up.stream = Some(s);
                up.interest = Interest::READ;
                up.rbuf.clear();
                up.wbuf.clear();
                true
            }
            Err(_) => {
                self.mark_down(shard);
                false
            }
        }
    }

    fn mark_down(&mut self, shard: usize) {
        let up = &mut self.upstreams[shard];
        if up.down_since.is_none() {
            self.shared.shard_down.fetch_add(1, Ordering::Relaxed);
            waco_obs::counter("serve.route.shard_down", 1);
        }
        up.down_since = Some(Instant::now());
    }

    /// Tears down a failed shard connection and re-dispatches everything in
    /// flight on it down each key's ring walk — the mid-frame-death path.
    fn upstream_failed(&mut self, reactor: &mut Reactor, shard: usize) {
        if let Some(s) = self.upstreams[shard].stream.take() {
            let _ = reactor.poller().delete(s.as_raw_fd());
        }
        self.upstreams[shard].rbuf.clear();
        self.upstreams[shard].wbuf.clear();
        self.mark_down(shard);
        let stranded: Vec<Pending> = self.upstreams[shard].inflight.drain(..).collect();
        for p in stranded {
            self.dispatch(reactor, p);
        }
    }

    fn read_upstream(&mut self, reactor: &mut Reactor, shard: usize) {
        let Some(up) = self.upstreams.get_mut(shard) else {
            return;
        };
        let Some(stream) = up.stream.as_mut() else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) => {
                    // The shard closed (or died); everything in flight on it
                    // must be re-routed.
                    self.upstream_failed(reactor, shard);
                    return;
                }
                Ok(n) => up.rbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.upstream_failed(reactor, shard);
                    return;
                }
            }
        }
        self.pair_upstream_frames(reactor, shard);
    }

    /// Pairs complete response frames with the shard's in-flight queue
    /// front — shards answer strictly in order, so position is identity.
    fn pair_upstream_frames(&mut self, reactor: &mut Reactor, shard: usize) {
        let mut consumed = 0;
        loop {
            let up = &self.upstreams[shard];
            match decode_frame(&up.rbuf[consumed..]) {
                Decoded::Incomplete => break,
                Decoded::Oversized(_) => {
                    // A shard violating framing cannot be trusted for the
                    // rest of the stream either.
                    self.upstream_failed(reactor, shard);
                    return;
                }
                Decoded::Complete(n, _frame) => {
                    let raw = up.rbuf[consumed..consumed + n].to_vec();
                    consumed += n;
                    // An unsolicited frame (no pending request) is dropped.
                    if let Some(p) = self.upstreams[shard].inflight.pop_front() {
                        reactor.fill_slot(p.conn, p.slot, raw);
                    }
                }
            }
        }
        self.upstreams[shard].rbuf.drain(..consumed);
    }

    fn flush_upstream(&mut self, reactor: &mut Reactor, shard: usize) {
        let Some(up) = self.upstreams.get_mut(shard) else {
            return;
        };
        let Some(stream) = up.stream.as_mut() else {
            return;
        };
        let mut written = 0;
        while written < up.wbuf.len() {
            match stream.write(&up.wbuf[written..]) {
                Ok(0) => {
                    self.upstream_failed(reactor, shard);
                    return;
                }
                Ok(n) => written += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.upstream_failed(reactor, shard);
                    return;
                }
            }
        }
        let fd = stream.as_raw_fd();
        up.wbuf.drain(..written);
        let want = Interest {
            read: true,
            write: !up.wbuf.is_empty(),
        };
        if want != up.interest {
            up.interest = want;
            let token = TOKEN_TIER_BASE + shard as u64;
            if reactor.poller().modify(fd, token, want).is_err() {
                self.upstream_failed(reactor, shard);
            }
        }
    }

    // -- stats --------------------------------------------------------------

    fn stats_response(&self) -> Json {
        let shard_states = Json::Arr(
            self.upstreams
                .iter()
                .map(|u| {
                    Json::obj([
                        ("addr", Json::str(u.addr.to_string())),
                        ("state", Json::str(u.state_name())),
                        ("inflight", Json::num(u.inflight.len() as f64)),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("ok", Json::Bool(true)),
            (
                "router",
                Json::obj([
                    ("shards", Json::num(self.upstreams.len() as f64)),
                    ("vnodes", Json::num(self.ring.vnodes() as f64)),
                    (
                        "requests",
                        Json::num(self.shared.requests.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "forwarded",
                        Json::num(self.shared.forwarded.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "failover",
                        Json::num(self.shared.failover.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "shard_down",
                        Json::num(self.shared.shard_down.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "reconnects",
                        Json::num(self.shared.reconnects.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "draining",
                        Json::Bool(self.shared.shutdown.load(Ordering::SeqCst)),
                    ),
                    ("shard_states", shard_states),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Router handle
// ---------------------------------------------------------------------------

/// A running router.
pub struct Router {
    shared: Arc<RouterShared>,
    local_addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Router {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("local_addr", &self.local_addr)
            .finish()
    }
}

impl Router {
    /// Binds and starts the proxy loop. Shards are dialed lazily on first
    /// use, so they may come up after the router does.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] when the bind or poller creation fails.
    pub fn start(config: RouterConfig) -> Result<Router, WacoError> {
        let _span = waco_obs::span("serve.route.start");
        let (mut reactor, waker, local_addr) = Reactor::bind(
            config.addr,
            config.shards.len() as u64,
            config.max_connections,
            config.timeout,
            "router busy: connection limit reached",
        )?;
        let shared = Arc::new(RouterShared {
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            forwarded: AtomicU64::new(0),
            failover: AtomicU64::new(0),
            shard_down: AtomicU64::new(0),
            reconnects: AtomicU64::new(0),
            waker,
        });
        let upstreams: Vec<Upstream> = config
            .shards
            .iter()
            .map(|&addr| Upstream {
                addr,
                stream: None,
                down_since: None,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                inflight: VecDeque::new(),
                interest: Interest::READ,
            })
            .collect();
        let mut tier = RouterTier {
            shared: Arc::clone(&shared),
            ring: HashRing::with_vnodes(upstreams.len(), config.vnodes),
            upstreams,
        };
        // Shard connections drop with `tier` when the loop exits; the shards
        // keep running.
        let thread = std::thread::spawn(move || reactor.run(&mut tier));

        Ok(Router {
            shared,
            local_addr,
            thread: Some(thread),
        })
    }

    /// The actual bound address (resolves an ephemeral port request).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Flips the drain flag and wakes the loop; [`Router::wait`] completes
    /// the drain. Shards are not told to shut down.
    pub fn begin_shutdown(&self) {
        if !self.shared.shutdown.swap(true, Ordering::SeqCst) {
            self.shared.waker.wake();
        }
    }

    /// Waits for the proxy loop to drain and exit.
    pub fn wait(mut self) {
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}
