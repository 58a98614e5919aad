//! The wire server: hosts a [`SnapshotService`] over TCP or unix-domain
//! sockets.
//!
//! # Architecture
//!
//! One **acceptor thread** blocks in `accept` and hands each accepted
//! socket to a connection; shutdown wakes it with a connection of its own.
//! Each **connection** owns
//!
//! * its own [`ClientHandle`] — a per-connection bounded ingestion queue,
//!   so one slow or hostile connection exhausts *its* queue and sees
//!   `busy` replies while other connections keep their own capacity (the
//!   in-process backpressure contract, verbatim, over the wire);
//! * a blocking **reader thread** that decodes frames, roots a
//!   [`SpanKind::WireRequest`] span at decode time (the in-process request
//!   tree assembles beneath it), and dispatches requests;
//! * a **reply pump** on its own writer thread: one per connection,
//!   draining a FIFO of in-flight tickets. Consecutive completed replies
//!   are serialized into one buffer and flushed with a single write, so a
//!   burst of completions costs one wake-up and one syscall instead of
//!   one of each per reply. Flushes block the pump's own thread only —
//!   a peer that stops reading its replies wedges *its* connection
//!   (bounded by the configured write timeout, which severs it), never
//!   an executor worker, so other connections and the service's own
//!   pipeline tasks keep running;
//! * an optional **idle watchdog task** on the executor: a far-deadline
//!   timer that severs connections with no activity — no inbound frame,
//!   no outbound flush, nothing in flight — for the configured timeout.
//!   A quiet peer waiting on a slow in-flight request is active, not
//!   idle, and is never severed mid-request.
//!
//! # Inline serving
//!
//! The reader thread submits and scans through
//! [`ClientHandle::submit_batch_inline`] and [`ClientHandle::scan_inline`]:
//! the request is queued and bounds-checked as usual, then, if the
//! pipeline's lease on its process ids is free, the reader runs the
//! pipeline's own round (drain and `update_many`, or serve the scan
//! queue) on its own thread and writes the reply itself under the writer
//! lock. A request the reader could not serve — the lease was held, the
//! store is not wait-free, or the scan policy waits for coalescing
//! partners — goes to the reply pump, and so does a reply too large to
//! write without risking a reader blocked on a slow peer (see
//! `Conn::settle`). Three guards keep the old contracts: only wait-free
//! stores are served inline, so a reader never blocks on a store call;
//! only `Disabled` or zero-`Window` coalescing serves scans inline; and a
//! thread that finds a lease held only marks it, so the holder re-notifies
//! the pipeline and nothing waits or spins on a lease. An uncontended op crosses three thread wake-ups (server
//! reader → client reader → caller) instead of six (server reader →
//! executor worker → reply pump doorbell → reply pump ticket → client
//! reader → caller).
//!
//! A request is in flight from frame decode until its reply is written,
//! whichever thread writes it; the server's drain waits on that count.
//!
//! # Lifecycle
//!
//! Handshake first (`hello`/`welcome`, protocol version checked), then
//! requests. A peer that half-closes its sending direction stops intake;
//! in-flight tickets resolve, their replies flush, and only then does the
//! server close its side. [`WireServer::shutdown`] performs the same drain
//! across every connection — wake and stop the acceptor, refuse new work
//! with `closed`, wait for in-flight tickets, flush, then close the
//! listener.
//! A connection that dies mid-request leaves its accepted submissions in
//! the service pipeline — they are applied and their tickets resolve
//! server-side, so the service's `accepted == resolved` accounting holds
//! no matter how rudely a peer disconnects.

use std::collections::VecDeque;
use std::future::Future;
use std::io::Write;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::task::{Context, Poll};
use std::time::{Duration, Instant};

use psnap_core::PartialSnapshot;
use psnap_json::Json;
use psnap_obs::{span, Span, SpanKind};
use psnap_serve::{ClientHandle, Executor, Handle, OpCell, SnapshotService, SubmitError, Ticket};

use crate::frame::{
    encode_frame, encode_frame_into, read_frame, read_frame_into, FrameError, MAX_FRAME_LEN,
};
use crate::proto::{
    parse_hello, reject_json, welcome_json, Reply, ReplyBody, Request, RequestBody, WireErrorKind,
    PROTOCOL_VERSION,
};
use crate::stream::Stream;

/// Wire server tuning knobs.
#[derive(Clone, Debug)]
pub struct WireServerConfig {
    /// Per-frame payload cap, advertised in the welcome frame.
    pub max_frame_len: usize,
    /// Sever connections with no activity (inbound frame, outbound reply
    /// flush, or in-flight request) for this long. `None` disables the
    /// watchdog.
    pub idle_timeout: Option<Duration>,
    /// Handshake read deadline: a connection that does not complete its
    /// hello within this window is dropped.
    pub handshake_timeout: Duration,
    /// Sever a connection whose peer has stopped reading: a reply write
    /// that cannot make progress for this long fails and tears the
    /// connection down (its tickets still resolve server-side). `None`
    /// lets a non-reading peer block its own writer thread indefinitely.
    pub write_timeout: Option<Duration>,
}

impl Default for WireServerConfig {
    fn default() -> Self {
        WireServerConfig {
            max_frame_len: MAX_FRAME_LEN,
            idle_timeout: None,
            handshake_timeout: Duration::from_secs(5),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Stream::Tcp(stream))
            }
            Listener::Unix(l) => {
                let (stream, _) = l.accept()?;
                Ok(Stream::Unix(stream))
            }
        }
    }
}

/// A ticket the reply pump is waiting on, paired with the reply body it
/// produces on completion.
enum PendingTicket {
    Submit(Ticket<()>),
    Scan(Ticket<Vec<u64>>),
    /// Already resolved, but too large for the reader thread to write (see
    /// [`Conn::settle`]); taken once.
    Ready(Option<ReplyBody>),
}

impl PendingTicket {
    fn poll_body(&mut self, cx: &mut Context<'_>) -> Poll<ReplyBody> {
        match self {
            PendingTicket::Submit(t) => Pin::new(t).poll(cx).map(|()| ReplyBody::Submitted),
            PendingTicket::Scan(t) => Pin::new(t).poll(cx).map(ReplyBody::Values),
            PendingTicket::Ready(body) => Poll::Ready(body.take().expect("reply taken twice")),
        }
    }

    /// The reply body if the ticket has already resolved, without waiting.
    fn try_body(&mut self) -> Option<ReplyBody> {
        match self {
            PendingTicket::Submit(t) => t.try_take().map(|()| ReplyBody::Submitted),
            PendingTicket::Scan(t) => t.try_take().map(ReplyBody::Values),
            PendingTicket::Ready(body) => body.take(),
        }
    }
}

/// One in-flight request queued for the reply pump.
struct PendingReply {
    id: u64,
    ticket: PendingTicket,
    /// Held, never read: the wire span travels with the request and ends
    /// (by drop) once its reply has been serialized — the flight-recorder
    /// tree completes when the wire layer is done with the request.
    _span: Span,
}

/// Awaits a [`PendingTicket`] to completion.
struct TicketBody<'a>(&'a mut PendingTicket);

impl Future for TicketBody<'_> {
    type Output = ReplyBody;
    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.0.poll_body(cx)
    }
}

/// The reply pump's FIFO, shared between the reader thread (producer) and
/// the pump task (consumer).
struct PumpQueue {
    entries: VecDeque<PendingReply>,
    /// Set while the pump is parked on an empty queue; the producer rings
    /// it to wake the pump.
    doorbell: Option<Arc<OpCell<()>>>,
    /// Set when the reader thread exits: the pump drains what is left and
    /// stops.
    closed: bool,
}

/// Flush the pump's write buffer once it crosses this size even if more
/// completed replies are queued, bounding reply latency under sustained
/// bursts.
const PUMP_FLUSH_BYTES: usize = 32 * 1024;

/// Per-connection shared state, reachable from the reader thread, the
/// reply pump, the idle watchdog, and the server's drain.
struct Conn {
    /// The accepted socket (this handle is used for severing only; reads
    /// and writes go through clones).
    stream: Stream,
    /// Serialized reply writer (inline error replies from the reader
    /// thread interleave with pump flushes; ids correlate).
    writer: Mutex<Stream>,
    /// Requests accepted but not yet replied to, with a condvar for the
    /// drain to wait on.
    in_flight: Mutex<u64>,
    drained: Condvar,
    /// Ticket-backed requests awaiting their reply, in dispatch order.
    pump: Mutex<PumpQueue>,
    /// Set once the connection stops accepting new requests (half-close,
    /// idle severance, or server drain); later requests get `closed`.
    intake_closed: AtomicBool,
    /// The server's clock epoch (shared with [`ServerShared`]).
    epoch: Instant,
    /// Nanoseconds (since the epoch) of the last activity: inbound frame
    /// or successfully flushed outbound reply. The idle watchdog also
    /// treats in-flight requests as activity, so this only has to cover
    /// the quiet gaps between requests.
    last_activity_ns: AtomicU64,
    /// Set by the reader thread on exit; the drain polls it.
    finished: AtomicBool,
}

impl Conn {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn touch(&self) {
        self.last_activity_ns
            .store(self.now_ns(), Ordering::Release);
    }

    /// Stops intake and severs both socket directions; the reader wakes
    /// with an error and tears the connection down.
    fn sever(&self) {
        self.intake_closed.store(true, Ordering::Release);
        self.stream.shutdown(Shutdown::Both);
    }

    fn in_flight_count(&self) -> u64 {
        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn begin_request(&self) {
        *self.in_flight.lock().unwrap_or_else(|e| e.into_inner()) += 1;
    }

    fn end_requests(&self, completed: u64) {
        if completed == 0 {
            return;
        }
        let mut n = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        *n -= completed;
        if *n == 0 {
            self.drained.notify_all();
        }
    }

    /// Hands one ticket-backed request to the reply pump (it stays in
    /// flight until its reply frame is flushed).
    fn push_reply(&self, entry: PendingReply) {
        let mut q = self.pump.lock().unwrap_or_else(|e| e.into_inner());
        q.entries.push_back(entry);
        if let Some(bell) = q.doorbell.take() {
            bell.complete(());
        }
    }

    /// Tells the pump to drain what is queued and exit (reader is gone; no
    /// more entries can arrive).
    fn close_pump(&self) {
        let mut q = self.pump.lock().unwrap_or_else(|e| e.into_inner());
        q.closed = true;
        if let Some(bell) = q.doorbell.take() {
            bell.complete(());
        }
    }

    /// Replies to an accepted request: from this (reader) thread if its
    /// ticket has already resolved — served inline, or by a pipeline round
    /// that got to it first — otherwise through the reply pump.
    ///
    /// A resolved reply of [`PUMP_FLUSH_BYTES`] or more also goes through
    /// the pump: a few of those fill the socket buffer of a peer that reads
    /// slowly or not at all, and a reader blocked writing them would stop
    /// the connection's intake.
    fn settle(&self, id: u64, mut ticket: PendingTicket, span: Span) {
        let Some(body) = ticket.try_body() else {
            return self.push_reply(PendingReply {
                id,
                ticket,
                _span: span,
            });
        };
        let reply = Reply {
            id,
            result: Ok(body),
        };
        let frame = encode_frame(reply.to_wire_string().as_bytes());
        if frame.len() < PUMP_FLUSH_BYTES {
            self.send_frame(&frame);
        } else {
            self.push_reply(PendingReply {
                id,
                ticket: PendingTicket::Ready(reply.result.ok()),
                _span: span,
            });
        }
    }

    /// Blocks until no request is in flight (bounded by `deadline`).
    fn wait_drained(&self, deadline: Instant) {
        let mut n = self.in_flight.lock().unwrap_or_else(|e| e.into_inner());
        while *n > 0 {
            let now = Instant::now();
            if now >= deadline {
                return;
            }
            let (guard, _) = self
                .drained
                .wait_timeout(n, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            n = guard;
        }
    }

    /// Answers a request from the reader thread and ends it in flight.
    fn send_reply(&self, reply: &Reply) {
        // One buffered frame, one write: the peer's reader wakes once with
        // the whole frame instead of once for the header and once for the
        // payload.
        self.send_frame(&encode_frame(reply.to_wire_string().as_bytes()));
    }

    /// Writes one encoded reply frame from the reader thread and ends its
    /// request in flight.
    fn send_frame(&self, frame: &[u8]) {
        let ok = {
            let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
            w.write_all(frame).is_ok()
        };
        self.end_requests(1);
        if ok {
            self.touch();
        } else {
            // Dead peer, or one that stopped reading long enough to trip
            // the write timeout: sever so the connection tears down
            // instead of queueing more replies it will never take.
            self.sever();
        }
    }
}

/// The per-connection reply pump: drains ticket-backed requests in dispatch
/// order, serializing consecutive completed replies into one buffer and
/// flushing them with a single write. The buffer is flushed before the pump
/// suspends on a still-pending ticket (no completed reply waits behind a
/// pending one) and when it crosses [`PUMP_FLUSH_BYTES`].
///
/// Runs under [`block_on`](psnap_serve::block_on) on a dedicated writer
/// thread, NOT as an executor task: flushes block on the socket, and a
/// peer that pipelines requests and then stops reading would otherwise
/// pin an executor worker (two such peers stall the default 2-worker
/// executor — and with it the service's own drain/scan loops — for every
/// client). On its own thread the stall is confined to this connection,
/// and the socket write timeout severs it.
async fn reply_pump(conn: Arc<Conn>) {
    enum Step {
        Entry(Box<PendingReply>),
        Park(Arc<OpCell<()>>),
        Exit,
    }
    let mut buf: Vec<u8> = Vec::new();
    let mut unflushed = 0u64;
    let flush = |buf: &mut Vec<u8>, unflushed: &mut u64| {
        if *unflushed == 0 {
            return;
        }
        let ok = {
            let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
            // A dead peer makes this fail; the tickets behind these replies
            // have resolved either way, so the drain accounting proceeds.
            w.write_all(buf).is_ok()
        };
        buf.clear();
        conn.end_requests(*unflushed);
        *unflushed = 0;
        if ok {
            // An outbound flush is activity: the idle watchdog must not
            // sever a peer the moment its last slow reply lands.
            conn.touch();
        } else {
            // Write failed or timed out (peer gone, or it stopped reading
            // its replies): sever so the reader tears the connection down
            // rather than letting more replies pile up behind a socket
            // that will never drain.
            conn.sever();
        }
    };
    loop {
        let step = {
            let mut q = conn.pump.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(entry) = q.entries.pop_front() {
                Step::Entry(Box::new(entry))
            } else if q.closed {
                Step::Exit
            } else {
                let bell = OpCell::new();
                q.doorbell = Some(Arc::clone(&bell));
                Step::Park(bell)
            }
        };
        match step {
            Step::Exit => {
                flush(&mut buf, &mut unflushed);
                return;
            }
            Step::Park(bell) => {
                flush(&mut buf, &mut unflushed);
                Ticket::new(bell).await;
            }
            Step::Entry(mut entry) => {
                let body = match entry.ticket.try_body() {
                    Some(body) => body,
                    None => {
                        // Genuinely pending: everything serialized so far
                        // goes out before we suspend.
                        flush(&mut buf, &mut unflushed);
                        TicketBody(&mut entry.ticket).await
                    }
                };
                let reply = Reply {
                    id: entry.id,
                    result: Ok(body),
                };
                encode_frame_into(reply.to_wire_string().as_bytes(), &mut buf);
                unflushed += 1;
                drop(entry); // ends the wire span: the request tree is complete
                if buf.len() >= PUMP_FLUSH_BYTES {
                    flush(&mut buf, &mut unflushed);
                }
            }
        }
    }
}

struct ServerShared<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    service: Arc<SnapshotService<u64, S>>,
    config: WireServerConfig,
    handle: Handle,
    epoch: Instant,
    stop: AtomicBool,
    conns: Mutex<Vec<Arc<Conn>>>,
    acceptor_done: Arc<OpCell<()>>,
}

impl<S> ServerShared<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A listening wire endpoint hosting one [`SnapshotService`]. Dropping the
/// server (or calling [`shutdown`](WireServer::shutdown)) drains in-flight
/// requests before the listener closes. The service itself is shared and
/// stays up — in-process clients and other endpoints are unaffected.
pub struct WireServer<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    shared: Arc<ServerShared<S>>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    shut: Mutex<bool>,
}

impl<S> WireServer<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    /// Starts a TCP endpoint on `addr` (use port 0 for an ephemeral port;
    /// the bound address is available via [`local_addr`]).
    ///
    /// [`local_addr`]: WireServer::local_addr
    pub fn serve_tcp(
        service: Arc<SnapshotService<u64, S>>,
        addr: &str,
        config: WireServerConfig,
        executor: &Executor,
    ) -> std::io::Result<WireServer<S>> {
        let listener = TcpListener::bind(addr)?;
        let tcp_addr = Some(listener.local_addr()?);
        Ok(Self::start(
            service,
            Listener::Tcp(listener),
            tcp_addr,
            None,
            config,
            executor,
        ))
    }

    /// Starts a unix-domain endpoint at `path` (removed first if it is a
    /// stale socket file).
    pub fn serve_unix(
        service: Arc<SnapshotService<u64, S>>,
        path: &Path,
        config: WireServerConfig,
        executor: &Executor,
    ) -> std::io::Result<WireServer<S>> {
        let _ = std::fs::remove_file(path);
        let listener = UnixListener::bind(path)?;
        Ok(Self::start(
            service,
            Listener::Unix(listener),
            None,
            Some(path.to_path_buf()),
            config,
            executor,
        ))
    }

    fn start(
        service: Arc<SnapshotService<u64, S>>,
        listener: Listener,
        tcp_addr: Option<SocketAddr>,
        unix_path: Option<PathBuf>,
        config: WireServerConfig,
        executor: &Executor,
    ) -> WireServer<S> {
        let shared = Arc::new(ServerShared {
            service,
            config,
            handle: executor.handle(),
            epoch: Instant::now(),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            acceptor_done: OpCell::new(),
        });
        let accept_shared = Arc::clone(&shared);
        std::thread::spawn(move || acceptor(&accept_shared, &listener));
        WireServer {
            shared,
            tcp_addr,
            unix_path,
            shut: Mutex::new(false),
        }
    }

    /// The bound TCP address, if this is a TCP endpoint.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// Live connections (racy gauge; finished connections are pruned by
    /// the acceptor's next pass and by shutdown).
    pub fn connection_count(&self) -> usize {
        self.shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|c| !c.finished.load(Ordering::Acquire))
            .count()
    }

    /// Graceful drain: stop accepting connections and new requests, let
    /// every in-flight ticket resolve and its reply flush, then close all
    /// sockets and the listener. Bounded by `timeout` per phase; idempotent.
    pub fn shutdown(&self, timeout: Duration) {
        let mut done = self.shut.lock().unwrap_or_else(|e| e.into_inner());
        if *done {
            return;
        }
        *done = true;
        self.shared.stop.store(true, Ordering::Release);
        // Wake the acceptor out of its blocking `accept` with a connection
        // of our own, then wait for it to exit: after this no connection
        // can be added behind the drain's back. If the wake-up connect
        // fails, the wait below still ends at `timeout`.
        self.wake_acceptor(timeout);
        let _ = psnap_serve::block_on_timeout(
            Ticket::new(Arc::clone(&self.shared.acceptor_done)),
            timeout,
        );
        let conns: Vec<Arc<Conn>> = self
            .shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        // Phase 1: stop intake everywhere (later requests answer `closed`).
        for conn in &conns {
            conn.intake_closed.store(true, Ordering::Release);
        }
        // Phase 2: wait for in-flight tickets to resolve and flush.
        let deadline = Instant::now() + timeout;
        for conn in &conns {
            conn.wait_drained(deadline);
        }
        // Phase 3: sever. Readers blocked in `read` wake with an error and
        // finish; the listener closed when the acceptor thread exited, and
        // any socket file is removed below.
        for conn in &conns {
            conn.stream.shutdown(Shutdown::Both);
        }
        let deadline = Instant::now() + timeout;
        for conn in &conns {
            while !conn.finished.load(Ordering::Acquire) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        self.shared
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
    }

    fn wake_acceptor(&self, timeout: Duration) {
        if let Some(mut addr) = self.tcp_addr {
            if addr.ip().is_unspecified() {
                addr.set_ip(match addr {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&addr, timeout);
        }
        if let Some(path) = &self.unix_path {
            let _ = UnixStream::connect(path);
        }
    }
}

impl<S> Drop for WireServer<S>
where
    S: PartialSnapshot<u64> + 'static,
{
    fn drop(&mut self) {
        self.shutdown(Duration::from_secs(5));
    }
}

/// The acceptor thread: blocks in `accept` and spawns a reader thread per
/// accepted connection. Shutdown raises `stop` and wakes it with a
/// connection of its own, which is dropped unserved.
fn acceptor<S>(shared: &Arc<ServerShared<S>>, listener: &Listener)
where
    S: PartialSnapshot<u64> + 'static,
{
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok(stream) => {
                if shared.stop.load(Ordering::Acquire) {
                    break;
                }
                spawn_connection(shared, stream);
                // Prune finished connections so a long-lived server with
                // churning clients does not accumulate dead entries.
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .retain(|c| !c.finished.load(Ordering::Acquire));
            }
            // Transient accept errors (aborted handshakes, fd pressure):
            // back off briefly rather than spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
    shared.acceptor_done.complete(());
}

fn spawn_connection<S>(shared: &Arc<ServerShared<S>>, stream: Stream)
where
    S: PartialSnapshot<u64> + 'static,
{
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let Ok(reader) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        stream,
        writer: Mutex::new(writer),
        in_flight: Mutex::new(0),
        drained: Condvar::new(),
        pump: Mutex::new(PumpQueue {
            entries: VecDeque::new(),
            doorbell: None,
            closed: false,
        }),
        intake_closed: AtomicBool::new(false),
        epoch: shared.epoch,
        last_activity_ns: AtomicU64::new(shared.now_ns()),
        finished: AtomicBool::new(false),
    });
    // One socket-level write timeout covers every clone (pump flushes and
    // the reader thread's inline error replies alike): a peer that stops
    // reading can wedge only its own connection, and only this long.
    conn.stream.set_write_timeout(shared.config.write_timeout);
    shared
        .conns
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(Arc::clone(&conn));
    // The reply pump: one dedicated writer thread for the connection's
    // lifetime (see `reply_pump` — its flushes block on the socket, so it
    // must not occupy an executor worker).
    let conn_pump = Arc::clone(&conn);
    std::thread::spawn(move || psnap_serve::block_on(reply_pump(conn_pump)));
    // Idle watchdog: a far-deadline timer on the executor's wheel (an idle
    // timeout of seconds spans many 256-slot laps at the default
    // granularity). It re-arms after activity — inbound frames, outbound
    // reply flushes, or requests still in flight — and severs a connection
    // only once all three have been absent for the timeout.
    if let Some(idle) = shared.config.idle_timeout {
        let conn_wd = Arc::clone(&conn);
        let handle = shared.handle.clone();
        shared.handle.spawn(async move {
            let idle_ns = idle.as_nanos() as u64;
            loop {
                if conn_wd.finished.load(Ordering::Acquire)
                    || conn_wd.intake_closed.load(Ordering::Acquire)
                {
                    return;
                }
                let age = conn_wd
                    .now_ns()
                    .saturating_sub(conn_wd.last_activity_ns.load(Ordering::Acquire));
                if age < idle_ns {
                    handle.sleep(Duration::from_nanos(idle_ns - age)).await;
                } else if conn_wd.in_flight_count() > 0 {
                    // Quiet wire, but a request is still in flight (a slow
                    // scan, a gated drain): the connection is active, not
                    // idle. Its reply flush will stamp fresh activity; a
                    // peer that never reads that reply is the write
                    // timeout's problem, not ours.
                    handle.sleep(idle).await;
                } else {
                    // Sever both directions: the reader wakes with an error
                    // and tears the connection down.
                    conn_wd.sever();
                    return;
                }
            }
        });
    }
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        run_connection(&shared, &conn, reader);
        // No more dispatches can arrive: let the pump drain and exit.
        conn.close_pump();
        conn.finished.store(true, Ordering::Release);
        conn.drained.notify_all();
    });
}

/// The connection reader: handshake, then the request loop. Runs on its own
/// OS thread (frame reads block); what it dispatches completes either on
/// this thread (inline serving) or on the service's pipeline tasks.
fn run_connection<S>(shared: &Arc<ServerShared<S>>, conn: &Arc<Conn>, mut reader: Stream)
where
    S: PartialSnapshot<u64> + 'static,
{
    // --- Handshake -------------------------------------------------------
    reader.set_read_timeout(Some(shared.config.handshake_timeout));
    let hello = match read_frame(&mut reader, shared.config.max_frame_len) {
        Ok(bytes) => bytes,
        Err(_) => {
            conn.stream.shutdown(Shutdown::Both);
            return;
        }
    };
    let version = std::str::from_utf8(&hello)
        .ok()
        .and_then(|text| Json::parse(text).ok())
        .and_then(|json| parse_hello(&json));
    match version {
        Some(v) if v == PROTOCOL_VERSION => {
            let welcome = welcome_json(shared.service.components(), shared.config.max_frame_len)
                .to_string_compact();
            let frame = encode_frame(welcome.as_bytes());
            let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
            if w.write_all(&frame).is_err() {
                drop(w);
                conn.stream.shutdown(Shutdown::Both);
                return;
            }
        }
        _ => {
            let reject = reject_json("version_mismatch").to_string_compact();
            let frame = encode_frame(reject.as_bytes());
            let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
            let _ = w.write_all(&frame);
            drop(w);
            conn.stream.shutdown(Shutdown::Both);
            return;
        }
    }
    reader.set_read_timeout(None);
    conn.touch();

    // --- Request loop ----------------------------------------------------
    // Buffered from here on: a burst of pipelined frames costs one read
    // syscall per buffer fill instead of two per frame (header + payload).
    let mut reader = std::io::BufReader::with_capacity(64 * 1024, reader);
    let client = shared.service.client();
    let components = shared.service.components();
    let mut payload = Vec::new();
    loop {
        match read_frame_into(&mut reader, shared.config.max_frame_len, &mut payload) {
            Ok(()) => {}
            Err(FrameError::Eof) => {
                // Half-close: the peer is done sending. Stop intake, let
                // in-flight replies flush, close our side, done.
                conn.intake_closed.store(true, Ordering::Release);
                conn.wait_drained(Instant::now() + Duration::from_secs(30));
                conn.stream.shutdown(Shutdown::Both);
                return;
            }
            Err(_) => {
                // Died mid-frame (reset, truncation, oversized, idle
                // severance). Accepted submissions are already in the
                // service pipeline and will resolve server-side; nothing
                // can be replied on a broken framing layer.
                conn.intake_closed.store(true, Ordering::Release);
                conn.stream.shutdown(Shutdown::Both);
                return;
            }
        };
        conn.touch();
        // In flight from decode until its reply is written, whichever path
        // answers it: a drain waiting on this count can never sever a
        // request that has passed the intake check below.
        conn.begin_request();

        // Root the request tree at frame decode: the service's own request
        // root (ingest / scan request) nests beneath this span, so a wire
        // request shows up in the flight recorder as one tree from byte
        // arrival to reply.
        let mut wire_span = Span::root(SpanKind::WireRequest);

        // Fast path first: the canonical document shape parses with a
        // strict scanner; anything else (whitespace, reordered keys,
        // foreign clients) takes the general JSON route.
        let request = std::str::from_utf8(&payload).ok().and_then(|text| {
            Request::parse_wire(text).or_else(|| {
                Json::parse(text)
                    .ok()
                    .and_then(|json| Request::from_json(&json))
            })
        });
        let Some(request) = request else {
            // Undecodable request: answer `bad_request` with id 0 (the id,
            // if any, did not parse) and keep the connection — framing is
            // intact, only this payload was malformed.
            conn.send_reply(&Reply {
                id: 0,
                result: Err(WireErrorKind::BadRequest),
            });
            continue;
        };
        wire_span.set_args(request.body.opcode(), payload.len() as u64);

        if conn.intake_closed.load(Ordering::Acquire) {
            conn.send_reply(&Reply {
                id: request.id,
                result: Err(WireErrorKind::Closed),
            });
            continue;
        }
        dispatch(shared, conn, &client, components, request, wire_span);
    }
}

/// Validates and dispatches one decoded request. Submits and scans go
/// through the service's inline entry points: a request the reader thread
/// served itself is answered from here, anything still pending goes to the
/// connection's reply pump. Errors and stats answer from here too.
fn dispatch<S>(
    shared: &Arc<ServerShared<S>>,
    conn: &Arc<Conn>,
    client: &ClientHandle<u64, S>,
    components: usize,
    request: Request,
    wire_span: Span,
) where
    S: PartialSnapshot<u64> + 'static,
{
    let id = request.id;
    // The wire span is entered around the service call so the in-process
    // request root parents beneath it; it then travels with the reply and
    // ends once the reply frame is serialized — the tree completes when the
    // wire layer is truly done with the request.
    match request.body {
        RequestBody::Submit { writes } => {
            if writes.iter().any(|(c, _)| *c >= components) {
                conn.send_reply(&Reply {
                    id,
                    result: Err(WireErrorKind::BadRequest),
                });
                return;
            }
            let pushed = {
                let _in = span::enter(wire_span.context());
                client.submit_batch_inline(writes)
            };
            match pushed {
                Ok(ticket) => conn.settle(id, PendingTicket::Submit(ticket), wire_span),
                Err(e) => conn.send_reply(&Reply {
                    id,
                    result: Err(submit_error(e)),
                }),
            }
        }
        RequestBody::Scan {
            components: requested,
            freshness,
        } => {
            if requested.iter().any(|c| *c >= components) {
                conn.send_reply(&Reply {
                    id,
                    result: Err(WireErrorKind::BadRequest),
                });
                return;
            }
            let pushed = {
                let _in = span::enter(wire_span.context());
                client.scan_inline(requested, freshness)
            };
            match pushed {
                Ok(ticket) => conn.settle(id, PendingTicket::Scan(ticket), wire_span),
                Err(e) => conn.send_reply(&Reply {
                    id,
                    result: Err(submit_error(e)),
                }),
            }
        }
        RequestBody::Stats => {
            let stats = shared.service.obs().to_json();
            conn.send_reply(&Reply {
                id,
                result: Ok(ReplyBody::Stats(stats)),
            });
        }
    }
}

fn submit_error(e: SubmitError) -> WireErrorKind {
    match e {
        SubmitError::Busy => WireErrorKind::Busy,
        SubmitError::Closed => WireErrorKind::Closed,
    }
}
