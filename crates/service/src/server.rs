//! The sharded TCP server: one accept thread, a fixed pool of shard
//! workers, and a plaintext status/control port.
//!
//! Connections are assigned round-robin by connection id (`id % shards`)
//! and handed to their shard over a `std::sync::mpsc` channel; each shard
//! worker owns its connections outright and drives them with non-blocking
//! reads/writes, so no locks sit on the ingestion hot path. A connection
//! (`Conn`) is the only code that touches a data socket: it moves bytes
//! between the socket and its sans-IO `Session` and knows nothing of
//! the protocol. What outlives a read or a document belongs to the shard,
//! not to a connection: one read buffer serves every connection in turn
//! (a session takes the bytes before the next read), and one `DocSpares`
//! holds the parsers and monitors of finished documents for whichever
//! session opens the next one — so an idle connection holds a socket and
//! its framing state, and a busy shard stops allocating per document.
//! The shared session table (`Arc<Mutex<…>>`) holds only status-page
//! metadata, with per-session counters as atomics.
//!
//! # Who blocks on what, and who wakes whom
//!
//! No thread ticks: each blocks in `readiness::wait` (`poll(2)`) with no
//! deadline until a socket of its own can move a byte or its waker fires,
//! so an idle server — with no connection or with a thousand — runs
//! nothing at all.
//!
//! | Thread | Blocks on | Woken by |
//! |---|---|---|
//! | `abc-shard-N` | its waker + one entry per connection it owns | the accept thread (after the hand-off `send`), [`ServerHandle::request_stop`] / [`ServerHandle::join`] / status `shutdown` (after the stop store), [`ServerHandle::request_forensics_dump`] / status `dump` (after the epoch bump) |
//! | `abc-accept` | the data listener + its waker | the stop store |
//! | `abc-status` | the status listener + its waker | the stop store; while a `shutdown` reply waits for the shards, each shard's exit (after its `shards_done` increment) |
//!
//! Every wake follows the store or send it announces, and a woken thread
//! drains its waker before it re-reads that state (`Control`), so a
//! change is either seen by this look or wakes the next wait.
//!
//! `poll(2)` is level-triggered, so a connection's interest mirrors its
//! session exactly: readability is asked for only while
//! `Session::wants_bytes` (not after EOF or a fatal error, not while the
//! peer leaves the reply queue above its soft cap) and writability only
//! while `Session::pending` is non-zero. Asking for more — readability
//! after EOF, writability with nothing queued — is a condition that stays
//! true while nothing consumes it, and the shard would spin on it; asking
//! for less would strand bytes. `crates/service/tests/readiness.rs` pins
//! both by count (`service.shard_wakeups`, `service.read_would_block`).

use std::collections::BTreeMap;
use std::io::{IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use abc_core::Xi;
use abc_rational::Ratio;

use crate::metrics::{self, Metrics, MARGIN_NONE};
use crate::readiness::{wait, PollFd, Waker};
use crate::session::{warn_parts, DocSpares, Session, SessionCounters};

// Flight-recorder counters (no-ops unless the embedding process called
// `abc_obs::enable`). The first two are what an idle horde must not move.
static OBS_SHARD_WAKEUPS: abc_obs::CounterDef = abc_obs::CounterDef::new("service.shard_wakeups");
static OBS_READ_WOULD_BLOCK: abc_obs::CounterDef =
    abc_obs::CounterDef::new("service.read_would_block");
static OBS_ACCEPT_ERRORS: abc_obs::CounterDef = abc_obs::CounterDef::new("service.accept_errors");

/// How long the accept thread stands back after an `accept` that failed
/// for a reason other than "nothing to accept" (`EMFILE` when descriptors
/// run out): the listener stays readable, so without a pause the
/// level-triggered wait would return at once, for ever.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Reads per tick per connection, so one firehose client cannot starve its
/// shard siblings within a single scheduling round.
const MAX_READS_PER_TICK: usize = 16;

/// Size of a shard's read buffer (the most one `read` takes).
const READ_BUF_LEN: usize = 64 * 1024;

/// Reply slices submitted per `writev`.
const OUT_MAX_IOV: usize = 8;

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Data-port bind address (use port 0 for an ephemeral port).
    pub addr: String,
    /// Status/control-port bind address.
    pub status_addr: String,
    /// Number of shard worker threads.
    pub shards: usize,
    /// Default `Ξ` monitored for sessions that send no `xi` line.
    pub xi: Xi,
    /// Per-line byte cap (see [`abc_sim::textio::LineAssembler`]).
    pub max_line_len: usize,
    /// Per-frame byte cap for the v2 binary framing (see
    /// [`abc_sim::binio::FrameAssembler`]). Enforced from the length
    /// prefix alone, before any payload buffers.
    pub max_frame_len: usize,
    /// Cap on the `processes` count a client may declare. Keep it
    /// consistent with `max_line_len`: a legal `faulty` line grows ~8
    /// bytes per faulty index, so the default 10 000 processes fits the
    /// default 64 KiB line cap even with every process faulty.
    pub max_processes: usize,
    /// `Some(h)` with `h ≥ 1`: per-document monitors run in bounded-memory
    /// mode, pruning their settled prefix so at most ~`2·h` events stay
    /// live (a third more than the oldest declared, undelivered message
    /// is old, when that is more: a prune costs the whole window, so a
    /// session prunes only what frees a quarter of it). Clients must not
    /// name send events older than `h` behind the frontier (the pruning
    /// contract — violations get a parse error, not a dropped server).
    /// `None` (the default) keeps the exact unbounded behavior; `Some(0)`
    /// is rejected by [`start`].
    pub prune_horizon: Option<usize>,
    /// Early-warning threshold (`abc serve --warn-margin P/Q`): when a
    /// document's synchrony margin reaches this ratio, its session's
    /// `warning` state flips (once per document, before any latch) and
    /// `abc_service_margin_warnings_total` increments — at the event whose
    /// append raised the margin, because a monitor with a threshold keeps
    /// its margin
    /// ([`abc_core::monitor::IncrementalChecker::enable_margin_tracking`])
    /// and compares it after every append, in O(1). The ratio must lie
    /// above 1 with parts within `i64`, the range of a monitored `Ξ`
    /// ([`start`] refuses any other); a threshold at or above a
    /// document's `Ξ` never fires, as the latch comes first. `None` (the
    /// default) disables warnings.
    pub warn_margin: Option<Ratio>,
    /// Violation-forensics directory (`abc serve --forensics-dir DIR`):
    /// when set, every session records its recent wire records, margin
    /// history, and decision timeline, and writes a byte-reproducible
    /// bundle ([`crate::forensics`]) the moment a violation latches — or
    /// on the status port's `dump` command. `None` (the default) disables
    /// capture entirely (zero ingest-path cost).
    pub forensics_dir: Option<std::path::PathBuf>,
    /// How many recent wire records each session's forensics tail keeps
    /// (`abc serve --forensics-tail N`). Only consulted when
    /// [`ServerConfig::forensics_dir`] is set.
    pub forensics_tail: usize,
}

/// Default [`ServerConfig::forensics_tail`]: enough wire context to replay
/// the closing window of a violating cycle without letting a firehose
/// session hold megabytes of line copies.
pub const DEFAULT_FORENSICS_TAIL: usize = 256;

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            status_addr: "127.0.0.1:0".into(),
            shards: std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
            xi: Xi::from_integer(2),
            max_line_len: abc_sim::textio::DEFAULT_MAX_LINE_LEN,
            max_frame_len: abc_sim::binio::DEFAULT_MAX_FRAME_LEN,
            max_processes: 10_000,
            prune_horizon: None,
            warn_margin: None,
            forensics_dir: None,
            forensics_tail: DEFAULT_FORENSICS_TAIL,
        }
    }
}

/// Status-page metadata for one live session.
#[derive(Clone, Debug)]
pub struct SessionMeta {
    /// Peer address.
    pub peer: String,
    /// Owning shard.
    pub shard: usize,
    counters: SessionCounters,
}

impl SessionMeta {
    /// Events ingested by this session so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.counters.events.load(Ordering::Relaxed)
    }

    /// Violations latched by this session so far.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.counters.violations.load(Ordering::Relaxed)
    }

    /// Events currently held live by this session's monitor (equals the
    /// events ingested into the open document when pruning is off).
    #[must_use]
    pub fn live_events(&self) -> u64 {
        self.counters.live_events.load(Ordering::Relaxed)
    }

    /// Traversal-graph arcs currently held live by this session's monitor.
    #[must_use]
    pub fn live_arcs(&self) -> u64 {
        self.counters.live_arcs.load(Ordering::Relaxed)
    }

    /// Events this session's monitors have compacted away so far.
    #[must_use]
    pub fn pruned_events(&self) -> u64 {
        self.counters.pruned_events.load(Ordering::Relaxed)
    }

    /// The open document's last exactly computed margin, in basis points
    /// (`ratio × 10⁴`, floored — see
    /// [`crate::metrics::ratio_to_basis_points`]); `None` while no exact
    /// probe has run or no relevant cycle exists.
    #[must_use]
    pub fn margin_basis_points(&self) -> Option<u64> {
        let bp = self.counters.margin_bp.load(Ordering::Relaxed);
        (bp != MARGIN_NONE).then_some(bp)
    }

    /// Whether the open document's margin has crossed the
    /// [`ServerConfig::warn_margin`] threshold.
    #[must_use]
    pub fn warning(&self) -> bool {
        self.counters.warning.load(Ordering::Relaxed) != 0
    }
}

type SessionTable = Arc<Mutex<BTreeMap<u64, SessionMeta>>>;

/// Locks the session table, recovering from poisoning.
///
/// The table holds only status-page metadata — no admissibility state —
/// so a panic inside another thread's critical section leaves at worst a
/// stale or missing metadata row. Recovering the guard with
/// [`PoisonError::into_inner`] keeps the accept path, the shard sweeps,
/// and the status page alive, which is strictly better than cascading
/// the panic into every server thread. The `poisoned_lock` integration
/// test deliberately poisons this mutex and asserts the server keeps
/// serving; this helper is the *only* way server code takes the table
/// lock (registered as `lock-fn 1 lock_table` in `lint.conf`).
fn lock_table(
    table: &Mutex<BTreeMap<u64, SessionMeta>>,
) -> MutexGuard<'_, BTreeMap<u64, SessionMeta>> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What the server's threads share besides metrics and the session table:
/// the state a blocked thread may be asked to look at, and the wakers that
/// announce it. The discipline is one rule in two halves — *publish, then
/// wake*; *drain, then look* (see [`crate::readiness`]).
struct Control {
    stop: AtomicBool,
    /// Bumped once per forensics-dump request; each shard tracks the last
    /// epoch it acted on and dumps all its sessions when it changes.
    dump_epoch: AtomicU64,
    /// Shards that have fully exited (final counters flushed); the status
    /// port's `shutdown` reply waits on this before rendering its final
    /// snapshot.
    shards_done: AtomicUsize,
    /// One per shard, by shard index.
    shard_wakers: Vec<Waker>,
    accept_waker: Waker,
    status_waker: Waker,
}

impl Control {
    fn new(shards: usize) -> std::io::Result<Control> {
        Ok(Control {
            stop: AtomicBool::new(false),
            dump_epoch: AtomicU64::new(0),
            shards_done: AtomicUsize::new(0),
            shard_wakers: (0..shards)
                .map(|_| Waker::new())
                .collect::<Result<_, _>>()?,
            accept_waker: Waker::new()?,
            status_waker: Waker::new()?,
        })
    }

    /// Whether every shard has exited and flushed its final counters.
    fn shards_drained(&self) -> bool {
        // ordering: Acquire pairs with each shard's Release increment
        // after its final counter flush — `true` here means those final
        // writes are visible to the caller.
        self.shards_done.load(Ordering::Acquire) >= self.shard_wakers.len()
    }

    fn stopping(&self) -> bool {
        // ordering: Acquire pairs with the Release store in request_stop,
        // making everything the stopper did first visible here. The flag
        // is cold (read once per wake-up), so strength costs nothing.
        self.stop.load(Ordering::Acquire)
    }

    /// Initiates graceful shutdown (idempotent) and tells every thread.
    fn request_stop(&self) {
        // ordering: Release publishes the shutdown decision — any thread
        // whose Acquire load sees `true` also sees writes made before the
        // request. The wakes follow the store: a thread that drained its
        // waker before this store blocks again and is woken by these.
        self.stop.store(true, Ordering::Release);
        self.shard_wakers.iter().for_each(Waker::wake);
        self.accept_waker.wake();
        self.status_waker.wake();
    }

    /// Asks every shard for a forensics bundle of each live session.
    fn request_dump(&self) {
        // Relaxed: the epoch is a pure signal — each shard dumps from its
        // own thread-local session state, so no cross-thread data rides
        // on this store. The wakes follow it, as for the stop flag.
        self.dump_epoch.fetch_add(1, Ordering::Relaxed);
        self.shard_wakers.iter().for_each(Waker::wake);
    }
}

/// A running server: bound addresses, shared metrics, and the join/stop
/// handle. Dropping the handle does *not* stop the server; call
/// [`ServerHandle::join`] or [`ServerHandle::request_stop`], or send the
/// status port `shutdown` — the server's threads block until told, so
/// there is no flag to set behind their back.
pub struct ServerHandle {
    addr: SocketAddr,
    status_addr: SocketAddr,
    metrics: Arc<Metrics>,
    table: SessionTable,
    control: Arc<Control>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound data-port address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound status/control-port address.
    #[must_use]
    pub fn status_addr(&self) -> SocketAddr {
        self.status_addr
    }

    /// Shared counters.
    #[must_use]
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.metrics
    }

    /// Whether shutdown has been initiated (by [`ServerHandle::request_stop`]
    /// or the status port's `shutdown` command).
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.control.stopping()
    }

    /// Requests graceful shutdown (idempotent): stop accepting, flush
    /// pending replies, close sessions, exit all threads.
    pub fn request_stop(&self) {
        self.control.request_stop();
    }

    /// Requests shutdown and joins every server thread.
    pub fn join(mut self) {
        self.request_stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Whether every shard worker has exited and flushed its final
    /// counters (only ever true once shutdown was requested).
    #[must_use]
    pub fn shards_drained(&self) -> bool {
        self.control.shards_drained()
    }

    /// Asks every shard to write a forensics bundle for each of its live
    /// sessions (the programmatic twin of the status port's `dump`
    /// command). No-op unless the server was configured with
    /// [`ServerConfig::forensics_dir`]. Dumps happen asynchronously on
    /// the shard threads, which are woken for it.
    pub fn request_forensics_dump(&self) {
        self.control.request_dump();
    }
}

/// Binds both ports and spawns the accept, shard, and status threads.
///
/// # Errors
///
/// Any bind/configuration I/O error.
pub fn start(config: ServerConfig) -> std::io::Result<ServerHandle> {
    if config.prune_horizon == Some(0) {
        // A zero horizon would compact the frontier itself, making every
        // later `m` line a stale reference — no client could comply.
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "prune_horizon must be at least 1",
        ));
    }
    if config.warn_margin.as_ref().map(warn_parts) == Some(None) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            // Every relevant cycle has ratio at least 1.
            "--warn-margin must lie above 1, with parts within i64",
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let status_listener = TcpListener::bind(&config.status_addr)?;
    status_listener.set_nonblocking(true)?;
    let status_addr = status_listener.local_addr()?;

    let metrics = Arc::new(Metrics::new());
    let table: SessionTable = Arc::new(Mutex::new(BTreeMap::new()));
    let shards = config.shards.max(1);
    let control = Arc::new(Control::new(shards)?);

    let mut threads = Vec::new();
    let mut senders: Vec<Sender<NewConn>> = Vec::new();
    for shard in 0..shards {
        let (tx, rx) = channel();
        senders.push(tx);
        let config = config.clone();
        let metrics = Arc::clone(&metrics);
        let table = Arc::clone(&table);
        let control = Arc::clone(&control);
        threads.push(
            std::thread::Builder::new()
                .name(format!("abc-shard-{shard}"))
                .spawn(move || shard_loop(shard, &rx, &config, &metrics, &table, &control))?,
        );
    }

    {
        let metrics = Arc::clone(&metrics);
        let table = Arc::clone(&table);
        let control = Arc::clone(&control);
        threads.push(
            std::thread::Builder::new()
                .name("abc-accept".into())
                .spawn(move || accept_loop(&listener, &senders, &metrics, &table, &control))?,
        );
    }

    {
        let metrics = Arc::clone(&metrics);
        let table = Arc::clone(&table);
        let control = Arc::clone(&control);
        threads.push(
            std::thread::Builder::new()
                .name("abc-status".into())
                .spawn(move || status_loop(&status_listener, &metrics, &table, &control))?,
        );
    }

    Ok(ServerHandle {
        addr,
        status_addr,
        metrics,
        table,
        control,
        threads,
    })
}

impl ServerHandle {
    /// Snapshot of the live session table (id → metadata).
    #[must_use]
    pub fn sessions(&self) -> BTreeMap<u64, SessionMeta> {
        lock_table(&self.table).clone()
    }

    /// Test-only hook: panics while holding the session-table lock on a
    /// scratch thread, leaving the mutex poisoned. Exists so the
    /// poisoned-lock recovery contract of [`lock_table`] can be asserted
    /// end to end from an integration test; never call it in production
    /// code.
    #[doc(hidden)]
    pub fn poison_session_table_for_test(&self) {
        let table = Arc::clone(&self.table);
        let _ = std::thread::spawn(move || {
            let _guard = lock_table(&table);
            panic!("deliberate poison (test hook)");
        })
        .join();
    }
}

/// A freshly accepted connection on its way to a shard.
struct NewConn {
    id: u64,
    stream: TcpStream,
    counters: SessionCounters,
}

/// The one listener loop, for the data port and the status port alike:
/// blocks on `listener` and `waker`, hands every connection the backlog
/// holds to `serve`, and returns once shutdown is requested.
fn accept_until_stopped(
    listener: &TcpListener,
    waker: &Waker,
    control: &Control,
    mut serve: impl FnMut(TcpStream, SocketAddr),
) {
    let mut listening = PollFd::new(listener);
    listening.set_interest(true, false);
    let mut set = [waker.entry(), listening];
    // Drain, then look: the flag is re-read only behind a drained waker.
    while !control.stopping() {
        wait(&mut set, None);
        waker.drain();
        while !control.stopping() {
            match listener.accept() {
                Ok((stream, peer)) => serve(stream, peer),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Out of descriptors, most likely. The backlog keeps
                    // the listener readable, so stand back instead of
                    // spinning, leave a count, and keep accepting.
                    OBS_ACCEPT_ERRORS.add(1);
                    std::thread::sleep(ACCEPT_BACKOFF);
                    break;
                }
            }
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    senders: &[Sender<NewConn>],
    metrics: &Arc<Metrics>,
    table: &SessionTable,
    control: &Control,
) {
    let mut next_id = 0u64;
    accept_until_stopped(listener, &control.accept_waker, control, |stream, peer| {
        let id = next_id;
        next_id += 1;
        let shard_count = senders.len().max(1) as u64;
        let Ok(shard) = usize::try_from(id % shard_count) else {
            return; // unreachable: the remainder fits a usize
        };
        let (Some(sender), Some(waker)) = (senders.get(shard), control.shard_wakers.get(shard))
        else {
            return; // unreachable: shard < senders.len()
        };
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        metrics.sessions_opened.fetch_add(1, Ordering::Relaxed);
        let counters = SessionCounters::new();
        lock_table(table).insert(
            id,
            SessionMeta {
                peer: peer.to_string(),
                shard,
                counters: counters.clone(),
            },
        );
        // A send can only fail if the shard already exited, which only
        // happens during shutdown — drop the connection then. The wake
        // follows the send it announces.
        let conn = NewConn {
            id,
            stream,
            counters,
        };
        if sender.send(conn).is_ok() {
            waker.wake();
        } else {
            lock_table(table).remove(&id);
            metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// One data connection: the socket and the session the bytes belong to.
/// All it asks of the session is whether it wants bytes, what reply bytes
/// are pending and whether it is finished.
struct Conn {
    stream: TcpStream,
    session: Session,
    /// The socket failed or the session finished: the shard drops the
    /// connection.
    dead: bool,
}

impl Conn {
    /// Drives the connection once: write pending replies, and if the
    /// socket came back `readable`, read what arrived into the session and
    /// write again. Returns whether any byte moved. `shard` is what the
    /// owning shard lends every connection in turn.
    fn tick(&mut self, readable: bool, metrics: &Metrics, shard: &mut ShardState) -> bool {
        let mut work = self.write_replies(metrics);
        if readable && !self.dead && self.session.wants_bytes() {
            work |= self.read_requests(metrics, shard);
            work |= self.write_replies(metrics);
        }
        if self.session.finished() {
            self.dead = true;
        }
        work
    }

    /// Asks the shard's next wait for exactly what [`Conn::tick`] would act
    /// on (see the module docs).
    fn arm(&self, entry: &mut PollFd) {
        entry.set_interest(self.session.wants_bytes(), self.session.pending() > 0);
    }

    fn read_requests(&mut self, metrics: &Metrics, shard: &mut ShardState) -> bool {
        let ShardState { read_buf, spares } = shard;
        let mut work = false;
        for _ in 0..MAX_READS_PER_TICK {
            match self.stream.read(read_buf) {
                Ok(0) => {
                    self.session.feed_eof(metrics, spares);
                    break;
                }
                Ok(n) => {
                    work = true;
                    metrics.bytes_in.fetch_add(n as u64, Ordering::Relaxed);
                    // The session takes the bytes before the next `read`
                    // (this connection's or a sibling's) overwrites them.
                    self.session
                        .feed(read_buf.get(..n).unwrap_or(&[]), metrics, spares);
                    // A short read emptied the socket: the wait, not a
                    // `read` that comes back empty-handed, says when there
                    // is more.
                    if n < read_buf.len() || !self.session.wants_bytes() {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    OBS_READ_WOULD_BLOCK.add(1);
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        work
    }

    fn write_replies(&mut self, metrics: &Metrics) -> bool {
        // Span only when there is something to write, so idle ticks don't
        // flood the recorder ring.
        let _span = (self.session.pending() > 0).then(|| abc_obs::span("service.ack_drain"));
        let mut work = false;
        while self.session.pending() > 0 {
            let mut slices = [IoSlice::new(&[]); OUT_MAX_IOV];
            let k = self.session.reply_slices(&mut slices);
            match (&self.stream).write_vectored(slices.get(..k).unwrap_or(&[])) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    work = true;
                    metrics.bytes_out.fetch_add(n as u64, Ordering::Relaxed);
                    self.session.consume(n);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        work
    }
}

/// What a shard owns on behalf of all its connections and lends each one
/// while it ticks.
struct ShardState {
    /// The one read buffer: a session has taken a read's bytes before the
    /// next read happens, so connections need none of their own.
    read_buf: Box<[u8]>,
    /// Parsers and monitors of finished documents, for the next ones.
    spares: DocSpares,
}

fn shard_loop(
    shard: usize,
    rx: &Receiver<NewConn>,
    config: &ServerConfig,
    metrics: &Arc<Metrics>,
    table: &SessionTable,
    control: &Control,
) {
    let Some(waker) = control.shard_wakers.get(shard) else {
        return; // unreachable: one waker per shard
    };
    let mut conns: Vec<Conn> = Vec::new();
    // The wait set: the waker first, then `set[i + 1]` for `conns[i]`.
    let mut set = vec![waker.entry()];
    let mut state = ShardState {
        read_buf: vec![0u8; READ_BUF_LEN].into_boxed_slice(),
        spares: DocSpares::new(),
    };
    let mut seen_epoch = control.dump_epoch.load(Ordering::Relaxed);
    let mut stopping = false;
    while !stopping {
        wait(&mut set, None);
        OBS_SHARD_WAKEUPS.add(1);
        let mut work = false;
        // Whether some connection of this round is to be dropped.
        let mut reap = false;
        if set.first().is_some_and(PollFd::ready) {
            // Drain, then look: whatever is published after these reads
            // has its own wake still to come.
            waker.drain();
            stopping = control.stopping();
            while let Ok(conn) = rx.try_recv() {
                if stopping {
                    // Refuse late arrivals during shutdown.
                    lock_table(table).remove(&conn.id);
                    metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let mut conn = Conn {
                    stream: conn.stream,
                    session: Session::new(conn.id, config, conn.counters),
                    dead: false,
                };
                // The greeting goes out now; the entry (not ready in this
                // round) asks for whatever that left to do.
                work |= conn.tick(false, metrics, &mut state);
                reap |= conn.dead;
                let mut entry = PollFd::new(&conn.stream);
                conn.arm(&mut entry);
                set.push(entry);
                conns.push(conn);
            }
            // Relaxed: the epoch is a pure signal (see Control::request_dump);
            // all dumped state is owned by this thread.
            let epoch = control.dump_epoch.load(Ordering::Relaxed);
            if epoch != seen_epoch {
                seen_epoch = epoch;
                for c in &mut conns {
                    c.session.dump_forensics("request", metrics);
                }
            }
        }
        // Only what came back ready — on the way out, everything once
        // more: a last read and flush before the connections drop.
        for (c, entry) in conns.iter_mut().zip(set.iter_mut().skip(1)) {
            if entry.ready() || stopping {
                work |= c.tick(entry.readable() || stopping, metrics, &mut state);
                c.arm(entry);
                reap |= c.dead;
            }
        }
        if work {
            // One shard-queue-depth sample per round that did work — the
            // loadgen/forensics view of how loaded this shard is.
            abc_obs::sample("service.shard_sessions", conns.len() as u64);
        }
        if reap || stopping {
            for i in (0..conns.len()).rev() {
                if stopping || conns.get(i).is_some_and(|c| c.dead) {
                    let mut c = conns.swap_remove(i);
                    set.swap_remove(i + 1);
                    c.session.close(&mut state.spares);
                    lock_table(table).remove(&c.session.id());
                    metrics.sessions_closed.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
    // ordering: Release pairs with the Acquire loads in shards_drained /
    // the status port's shutdown wait — whoever sees this shard counted
    // also sees its final counter flushes and table removals above. The
    // wake follows the increment it announces.
    control.shards_done.fetch_add(1, Ordering::Release);
    control.status_waker.wake();
}

fn status_loop(
    listener: &TcpListener,
    metrics: &Arc<Metrics>,
    table: &SessionTable,
    control: &Control,
) {
    accept_until_stopped(listener, &control.status_waker, control, |stream, _| {
        handle_status_conn(stream, metrics, table, control);
    });
}

/// Snapshot of the session table taken under [`lock_table`] and rendered
/// *after* the lock is dropped: formatting grows `String`s and loads a
/// dozen atomics per row, none of which needs the table — only the
/// id→meta association does. ([`SessionMeta`] is a handful of `Arc`
/// clones, so the critical section is a shallow copy.) Keeping the
/// lock's critical sections O(rows) and allocation-light also keeps the
/// R3 lock-order story trivial: no other lock, I/O, or formatting ever
/// runs under the level-1 table lock.
fn snapshot_sessions(table: &SessionTable) -> Vec<(u64, SessionMeta)> {
    let table = lock_table(table);
    table.iter().map(|(id, meta)| (*id, meta.clone())).collect()
}

/// Aggregate monitor memory over the live sessions: `(live_events,
/// live_arcs, pruned_events)`.
fn monitor_totals(rows: &[(u64, SessionMeta)]) -> (u64, u64, u64) {
    let sum = |gauge: fn(&SessionMeta) -> u64| rows.iter().map(|(_, meta)| gauge(meta)).sum();
    (
        sum(SessionMeta::live_events),
        sum(SessionMeta::live_arcs),
        sum(SessionMeta::pruned_events),
    )
}

/// Renders the human status page: the metrics registry, aggregate
/// monitor-memory gauges, and one row per live session.
fn render_human_status(metrics: &Metrics, rows: &[(u64, SessionMeta)]) -> String {
    use std::fmt::Write;
    let mut body = metrics.render();
    let (live_events, live_arcs, pruned) = monitor_totals(rows);
    let _ = writeln!(body, "abc_service_monitor_live_events {live_events}");
    let _ = writeln!(body, "abc_service_monitor_live_arcs {live_arcs}");
    let _ = writeln!(body, "abc_service_monitor_pruned_events_total {pruned}");
    for (id, meta) in rows {
        let margin = match meta.margin_basis_points() {
            Some(bp) => metrics::format_scaled(bp, metrics::MARGIN_SCALE_POW10),
            None => "none".to_string(),
        };
        let _ = writeln!(
            body,
            "session {id} peer={} shard={} events={} violations={} live_events={} \
             live_arcs={} pruned_events={} margin={margin} warning={}",
            meta.peer,
            meta.shard,
            meta.events(),
            meta.violations(),
            meta.live_events(),
            meta.live_arcs(),
            meta.pruned_events(),
            u64::from(meta.warning()),
        );
    }
    body
}

/// Renders the Prometheus text-exposition body: the registry's families
/// plus the table-derived gauges (aggregate monitor memory and the
/// per-session labelled margin/warning gauges).
fn render_prometheus_status(metrics: &Metrics, rows: &[(u64, SessionMeta)]) -> String {
    use crate::metrics::{prom_header, Kind};
    use std::fmt::Write;
    let mut body = metrics.render_prometheus();
    let (live_events, live_arcs, pruned) = monitor_totals(rows);
    prom_header(
        &mut body,
        "abc_service_monitor_live_events",
        Kind::Gauge,
        "Events currently live across all session monitors.",
    );
    let _ = writeln!(body, "abc_service_monitor_live_events {live_events}");
    prom_header(
        &mut body,
        "abc_service_monitor_live_arcs",
        Kind::Gauge,
        "Traversal-graph arcs currently live across all session monitors.",
    );
    let _ = writeln!(body, "abc_service_monitor_live_arcs {live_arcs}");
    prom_header(
        &mut body,
        "abc_service_monitor_pruned_events_total",
        Kind::Counter,
        "Events compacted away by bounded-memory pruning.",
    );
    let _ = writeln!(body, "abc_service_monitor_pruned_events_total {pruned}");
    prom_header(
        &mut body,
        "abc_service_session_margin",
        Kind::Gauge,
        "Last exactly computed synchrony margin per session (absent until a probe runs).",
    );
    for (id, meta) in rows {
        if let Some(bp) = meta.margin_basis_points() {
            let m = metrics::format_scaled(bp, metrics::MARGIN_SCALE_POW10);
            let _ = writeln!(body, "abc_service_session_margin{{session=\"{id}\"}} {m}");
        }
    }
    prom_header(
        &mut body,
        "abc_service_session_warning",
        Kind::Gauge,
        "Whether the session's margin has crossed the warn-margin threshold.",
    );
    for (id, meta) in rows {
        let _ = writeln!(
            body,
            "abc_service_session_warning{{session=\"{id}\"}} {}",
            u64::from(meta.warning()),
        );
    }
    body
}

/// Status protocol: the client sends one command line — `metrics` (or an
/// empty line / immediate EOF, both treated as `metrics`) for the human
/// status page, `prom` or an HTTP-ish `GET …` for the Prometheus text
/// exposition (`GET` gets a minimal HTTP response, so
/// `curl http://status-addr/metrics` scrapes directly), `dump` to request
/// a forensics bundle for every live session, or `shutdown` — and
/// receives a plaintext response. `shutdown` waits (bounded) for every
/// shard to exit and then appends a final counter/gauge snapshot to its
/// reply, so the last scrape a client sees reflects all flushed work.
fn handle_status_conn(
    mut stream: TcpStream,
    metrics: &Arc<Metrics>,
    table: &SessionTable,
    control: &Control,
) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    // A non-reading status client must not wedge the (single) status
    // thread — and with it the `shutdown` command and ServerHandle::join.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 512];
    let mut line = Vec::new();
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                line.extend_from_slice(buf.get(..n).unwrap_or(&[]));
                if line.contains(&b'\n') || line.len() > 400 {
                    break;
                }
            }
            Err(_) => break, // timeout / reset: treat as `metrics`
        }
    }
    let command = String::from_utf8_lossy(&line);
    let command = command.lines().next().unwrap_or("").trim();
    let response = if command == "shutdown" {
        control.request_stop();
        // Final-snapshot flush: wait (bounded — a wedged shard must not
        // wedge the reply) for every shard to exit, then append the final
        // counter/gauge state to the acknowledgement. Each exiting shard
        // wakes this thread after counting itself.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut exits = [control.status_waker.entry()];
        loop {
            // Drain, then look — so the snapshot below sees the shards'
            // final counter flushes (Control::shards_drained's Acquire).
            control.status_waker.drain();
            if control.shards_drained() || Instant::now() >= deadline {
                break;
            }
            wait(&mut exits, Some(deadline));
        }
        let rows = snapshot_sessions(table);
        format!("ok shutting down\n{}", render_human_status(metrics, &rows))
    } else if command == "dump" {
        control.request_dump();
        "ok forensics dump requested\n".to_string()
    } else if command.is_empty() || command == "metrics" {
        // Formatting happens strictly after the table lock is dropped
        // (see snapshot_sessions) — the critical section is a shallow
        // clone, never a growing String.
        let rows = snapshot_sessions(table);
        render_human_status(metrics, &rows)
    } else if command == "prom" || command.starts_with("GET") {
        let rows = snapshot_sessions(table);
        let body = render_prometheus_status(metrics, &rows);
        if command.starts_with("GET") {
            format!(
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
        } else {
            body
        }
    } else {
        format!("error unknown command {command:?}\n")
    };
    let _ = stream.write_all(response.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_error(config: ServerConfig) -> std::io::Error {
        match start(config) {
            Ok(handle) => {
                handle.join();
                panic!("the configuration was accepted");
            }
            Err(e) => e,
        }
    }

    #[test]
    fn start_rejects_configurations_no_client_or_warning_could_use() {
        let zero = start_error(ServerConfig {
            prune_horizon: Some(0),
            ..ServerConfig::default()
        });
        assert_eq!(zero.kind(), std::io::ErrorKind::InvalidInput);
        // Every relevant cycle has ratio at least 1: a threshold there or
        // below would warn at the first cycle, which no kept margin says in
        // O(1). Refused up front, naming the flag, as are parts a monitored
        // `Ξ` could not have.
        let warned = |w: &str, horizon| ServerConfig {
            warn_margin: Some(w.parse().unwrap()),
            prune_horizon: horizon,
            ..ServerConfig::default()
        };
        let wide = "18446744073709551617/18446744073709551616";
        for w in ["1", "0", "-3/2", "9/10", wide] {
            let refused = start_error(warned(w, Some(64)));
            assert_eq!(refused.kind(), std::io::ErrorKind::InvalidInput);
            assert!(refused.to_string().contains("--warn-margin"), "{refused}");
        }
        // A threshold above 1 stays valid, bounded or not, even one above
        // every `Ξ` (it never fires).
        for (w, horizon) in [
            ("65/64", None),
            ("65/64", Some(64)),
            ("1099511627776", None),
        ] {
            start(warned(w, horizon))
                .expect("a usable configuration")
                .join();
        }
    }
}
