//! The connection reactor shared by the tuning server and the shard router.
//!
//! One nonblocking, epoll-multiplexed thread ([`waco_runtime::poll::Poller`])
//! owns the listener, a waker, and every client connection. A connection
//! accumulates bytes, decodes complete frames straight out of its read
//! buffer (so clients may pipeline), and keeps an in-order queue of response
//! slots: a slot is either a finished, already-encoded frame or a
//! placeholder for an answer computed elsewhere (an executor, a shard).
//! Responses flush strictly in request order, whatever order the answers
//! arrive in.
//!
//! A tier plugs in only what differs through [`Tier`]: what to do with a
//! well-framed request, readiness on sockets the tier owns itself (the
//! router's shard connections), and a once-per-turn hook (the server drains
//! executor completions there). Everything else is the reactor's:
//!
//! * **Admission:** beyond `max_connections` open connections, a new
//!   connection is answered with a `busy` error frame and closed
//!   (`serve.rejected_busy`).
//! * **Framing errors:** an oversized length prefix is answered and the
//!   connection closed after the flush (framing is lost); a malformed body
//!   is answered and the connection keeps serving.
//! * **Idle timeout:** a connection with nothing to write and no answer
//!   pending is closed after `timeout`; a half-received frame at expiry
//!   counts as a timed-out request (`serve.rejected_timeout`) — this is what
//!   unwedges the loop from peers that die mid-frame.
//! * **Drain:** once [`Tier::draining`] turns true the listener closes, and
//!   the loop returns when the last connection is gone.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use waco_core::WacoError;
use waco_runtime::poll::{wake_pair, Event, Interest, Poller, WakeReceiver, Waker};

use crate::json::Json;
use crate::protocol::{decode_frame, encode_frame, error_response, Decoded, Frame};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
/// First poll token a tier may register its own sockets under; the reactor
/// numbers client connections after the tier's range.
pub(crate) const TOKEN_TIER_BASE: u64 = 2;

/// What a tier plugs into the [`Reactor`].
pub(crate) trait Tier {
    /// Whether the tier is shutting down: the reactor stops accepting and
    /// exits once every client connection is gone.
    fn draining(&self) -> bool;

    /// Handles one well-framed request body from client `token`. `raw` is
    /// the whole frame as received (length prefix + body).
    fn request(&mut self, reactor: &mut Reactor, token: u64, body: &Json, raw: &[u8]);

    /// Readiness on a tier-owned token (registered at or above
    /// [`TOKEN_TIER_BASE`] and below the client range).
    fn event(&mut self, _reactor: &mut Reactor, _ev: &Event) {}

    /// Runs once per loop turn, after readiness dispatch and before
    /// connections flush.
    fn turn(&mut self, _reactor: &mut Reactor) {}
}

/// A response slot: responses flush strictly in request order, so a slot
/// holds either an encoded frame or a placeholder for an answer in flight.
enum SlotState {
    Waiting,
    Ready(Vec<u8>),
}

struct Slot {
    id: u64,
    state: SlotState,
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    pending: VecDeque<Slot>,
    next_slot: u64,
    last_activity: Instant,
    close_after_flush: bool,
    interest: Interest,
}

impl Conn {
    fn push(&mut self, state: SlotState) -> u64 {
        let id = self.next_slot;
        self.next_slot += 1;
        self.pending.push_back(Slot { id, state });
        id
    }

    /// Whether the idle sweeper may close this connection: nothing buffered
    /// to write and no response in flight.
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.wbuf.is_empty()
    }
}

/// The event loop's connection state; see the module docs.
pub(crate) struct Reactor {
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: WakeReceiver,
    conns: HashMap<u64, Conn>,
    client_base: u64,
    next_token: u64,
    max_connections: usize,
    timeout: Duration,
    busy_message: &'static str,
    rejected_busy: u64,
    rejected_timeout: u64,
    touched: Vec<u64>,
}

impl Reactor {
    /// Binds a nonblocking listener and registers it and a fresh waker with
    /// a new poller. `tier_tokens` poll tokens starting at
    /// [`TOKEN_TIER_BASE`] are left to the tier. Returns the reactor, the
    /// waker other threads use to interrupt its wait, and the bound address.
    ///
    /// # Errors
    ///
    /// [`WacoError::Io`] when the bind or the poller/waker setup fails.
    pub(crate) fn bind(
        addr: SocketAddr,
        tier_tokens: u64,
        max_connections: usize,
        timeout: Duration,
        busy_message: &'static str,
    ) -> Result<(Reactor, Waker, SocketAddr), WacoError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| WacoError::io(format!("binding {addr}"), e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| WacoError::io("setting listener nonblocking", e))?;
        let local_addr = listener
            .local_addr()
            .map_err(|e| WacoError::io("reading bound address", e))?;
        let (waker, wake_rx) =
            wake_pair().map_err(|e| WacoError::io("creating event-loop waker", e))?;
        let poller = Poller::new().map_err(|e| WacoError::io("creating poller", e))?;
        poller
            .add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)
            .map_err(|e| WacoError::io("registering listener", e))?;
        poller
            .add(wake_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)
            .map_err(|e| WacoError::io("registering waker", e))?;
        let client_base = TOKEN_TIER_BASE + tier_tokens;
        let reactor = Reactor {
            poller,
            listener: Some(listener),
            wake_rx,
            conns: HashMap::new(),
            client_base,
            next_token: client_base,
            max_connections,
            timeout,
            busy_message,
            rejected_busy: 0,
            rejected_timeout: 0,
            touched: Vec::new(),
        };
        Ok((reactor, waker, local_addr))
    }

    /// Runs the loop until the tier drains and the last connection closes
    /// (or the poller fails, which is unrecoverable).
    pub(crate) fn run(&mut self, tier: &mut impl Tier) {
        let mut events = Vec::new();
        let mut touched = Vec::new();
        loop {
            if tier.draining() {
                if let Some(l) = self.listener.take() {
                    let _ = self.poller.delete(l.as_raw_fd());
                }
            }
            if self.listener.is_none() && self.conns.is_empty() {
                return;
            }
            let timeout = self.wait_budget();
            if self.poller.wait(&mut events, timeout).is_err() {
                return;
            }
            for ev in events.iter() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_all(),
                    TOKEN_WAKER => self.wake_rx.drain(),
                    t if t < self.client_base => tier.event(self, ev),
                    t => {
                        if ev.readable {
                            self.read_conn(tier, t);
                        }
                        self.touched.push(t);
                    }
                }
            }
            tier.turn(self);
            std::mem::swap(&mut touched, &mut self.touched);
            touched.sort_unstable();
            touched.dedup();
            for token in touched.drain(..) {
                self.advance(token);
            }
            self.sweep_idle();
        }
    }

    /// The poller, for tiers registering their own sockets.
    pub(crate) fn poller(&self) -> &Poller {
        &self.poller
    }

    /// Open client connections (including busy ones awaiting close).
    pub(crate) fn connections(&self) -> usize {
        self.conns.len()
    }

    /// Connections refused at the connection cap so far.
    pub(crate) fn rejected_busy(&self) -> u64 {
        self.rejected_busy
    }

    /// Connections closed by the idle sweep with a frame half received.
    pub(crate) fn rejected_timeout(&self) -> u64 {
        self.rejected_timeout
    }

    /// Queues `body` as the next response on `token`.
    pub(crate) fn respond(&mut self, token: u64, body: &Json) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.push(SlotState::Ready(encode_frame(body)));
        }
    }

    /// Reserves the next response slot on `token` for an answer computed
    /// elsewhere; [`Reactor::fill_slot`] completes it. `None` if the
    /// connection is gone.
    pub(crate) fn push_waiting(&mut self, token: u64) -> Option<u64> {
        Some(self.conns.get_mut(&token)?.push(SlotState::Waiting))
    }

    /// Completes a reserved slot with an encoded frame. A no-op when the
    /// client left while the answer was in flight.
    pub(crate) fn fill_slot(&mut self, token: u64, slot: u64, frame: Vec<u8>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if let Some(s) = conn.pending.iter_mut().find(|s| s.id == slot) {
            s.state = SlotState::Ready(frame);
            self.touched.push(token);
        }
    }

    /// Stops reading from `token` and closes it once every queued response
    /// has been written.
    pub(crate) fn close_after_flush(&mut self, token: u64) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.close_after_flush = true;
        }
    }

    /// How long the poll wait may block: until the earliest idle deadline
    /// among closable connections, capped to a 1 s heartbeat whenever any
    /// connection exists (so stuck flushes cannot wedge the loop), and
    /// unbounded only for an idle listener.
    fn wait_budget(&self) -> Option<Duration> {
        if self.conns.is_empty() {
            return None;
        }
        let now = Instant::now();
        let mut budget = Duration::from_secs(1);
        for c in self.conns.values() {
            if c.idle() {
                let deadline = c.last_activity + self.timeout;
                let remaining = deadline.saturating_duration_since(now);
                budget = budget.min(remaining.max(Duration::from_millis(10)));
            }
        }
        Some(budget)
    }

    fn accept_all(&mut self) {
        loop {
            let Some(listener) = self.listener.as_ref() else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut conn = Conn {
                        stream,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        pending: VecDeque::new(),
                        next_slot: 0,
                        last_activity: Instant::now(),
                        close_after_flush: false,
                        interest: Interest::READ,
                    };
                    if self.conns.len() >= self.max_connections {
                        // Over the connection cap: answer busy and close.
                        self.rejected_busy += 1;
                        waco_obs::counter("serve.rejected_busy", 1);
                        conn.push(SlotState::Ready(encode_frame(&error_response(
                            self.busy_message,
                            true,
                        ))));
                        conn.close_after_flush = true;
                    }
                    if self
                        .poller
                        .add(conn.stream.as_raw_fd(), token, conn.interest)
                        .is_err()
                    {
                        continue; // the stream drops and resets the peer
                    }
                    self.conns.insert(token, conn);
                    self.touched.push(token);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn read_conn(&mut self, tier: &mut impl Tier, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed; any response still in flight has nobody
                    // left to read it.
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        self.parse_frames(tier, token);
    }

    /// Hands every complete frame in `token`'s read buffer to the tier. The
    /// buffer is detached meanwhile so the tier can borrow the raw frame
    /// while it mutates the reactor.
    fn parse_frames(&mut self, tier: &mut impl Tier, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut rbuf = std::mem::take(&mut conn.rbuf);
        let mut consumed = 0;
        while let Some(conn) = self.conns.get_mut(&token) {
            if conn.close_after_flush {
                break; // framing lost or draining: ignore the tail
            }
            match decode_frame(&rbuf[consumed..]) {
                Decoded::Incomplete => break,
                Decoded::Oversized(msg) => {
                    // Answer, then close: the connection cannot be re-synced.
                    conn.push(SlotState::Ready(encode_frame(&error_response(&msg, false))));
                    conn.close_after_flush = true;
                    break;
                }
                Decoded::Complete(n, frame) => {
                    let raw = &rbuf[consumed..consumed + n];
                    consumed += n;
                    match frame {
                        // Framing is intact: answer and keep serving.
                        Frame::Malformed(msg) => self.respond(token, &error_response(&msg, false)),
                        Frame::Body(body) => tier.request(self, token, &body, raw),
                    }
                }
            }
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            rbuf.drain(..consumed);
            conn.rbuf = rbuf;
        }
    }

    /// Flushes a connection as far as the socket allows: move the ready
    /// prefix of the slot queue into the write buffer, write, and retune
    /// poll interest.
    fn advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while let Some(Slot {
            state: SlotState::Ready(frame),
            ..
        }) = conn.pending.front_mut()
        {
            conn.wbuf.append(frame);
            conn.pending.pop_front();
        }
        let mut written = 0;
        while written < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[written..]) {
                Ok(0) => {
                    self.close_conn(token);
                    return;
                }
                Ok(n) => {
                    written += n;
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            }
        }
        conn.wbuf.drain(..written);
        if conn.close_after_flush && conn.idle() {
            self.close_conn(token);
            return;
        }
        let want = Interest {
            read: !conn.close_after_flush,
            write: !conn.wbuf.is_empty(),
        };
        if want != conn.interest {
            conn.interest = want;
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, want)
                .is_err()
            {
                self.close_conn(token);
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
        }
    }

    /// Closes connections idle past the timeout, counting a half-received
    /// frame at expiry as a timed-out request.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let timeout = self.timeout;
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.idle() && now.duration_since(c.last_activity) > timeout)
            .map(|(&t, _)| t)
            .collect();
        for token in expired {
            if self.conns.get(&token).is_some_and(|c| !c.rbuf.is_empty()) {
                self.rejected_timeout += 1;
                waco_obs::counter("serve.rejected_timeout", 1);
            }
            self.close_conn(token);
        }
    }
}
