//! The Tiera TCP server.
//!
//! Structure generalizes the paper's prototype (§3): worker threads
//! service client requests; a dedicated event thread evaluates timer
//! events and drains background responses. Wall-clock time is mapped 1:1
//! onto the instance's virtual clock so policies written in seconds behave
//! as expected when the server runs live.
//!
//! Two scheduling decisions differ from the thread-per-request pool the
//! paper describes, both driven by a measured scaling regression (eight
//! connections ran at 0.81× the throughput of one; EXPERIMENTS.md, "Bench
//! history"):
//!
//! * **Sharded accept.** The acceptor round-robins incoming connections
//!   across per-worker queues; a connection is pinned to one worker for
//!   its lifetime. There is no shared dispatch queue for workers to
//!   contend on.
//! * **Per-connection read/write split.** A pipelined connection is
//!   serviced by its pinned worker (reads, decodes, and executes requests
//!   in arrival order) plus a dedicated writer thread that drains a
//!   response queue, coalescing every queued response into one flush. A
//!   slow or large response therefore never head-of-line blocks the
//!   socket reads, and the syscall cost of a burst of small responses is
//!   amortized to a single flush.
//!
//! Every connection opens with the v2 hello; a peer that opens with
//! anything else is closed and counted on
//! [`ServerHandle::connection_errors`]. A lockstep client (one request in
//! flight, declared in its hello) is answered inline by its worker, with
//! no writer thread; DESIGN.md §3d explains why a pipelined one needs it.
//!
//! Back-pressure rules: the per-connection response queue is unbounded in
//! queue length but bounded in practice by the client's in-flight window —
//! the server never reads ahead of execution (one request is decoded,
//! executed, and queued at a time), so a client with W requests in flight
//! can have at most W responses queued. On shutdown the reader stops
//! consuming frames, already-executed responses are drained and flushed by
//! the writer, and only then does the connection close — requests in
//! flight at shutdown either get a complete response frame or a clean EOF,
//! never a torn frame.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use tiera_support::channel;

use tiera_core::catalog::TierCatalog;
use tiera_core::instance::{Instance, PutOptions};
use tiera_core::object::Tag;
use tiera_core::retry::RetryPolicy;
use tiera_sim::SimTime;

use crate::proto::{
    negotiate, split_seq, write_hello, write_seq_frame, Request, Response, LOCKSTEP, MAGIC,
    PIPE_BUF,
};

/// Period of the event thread's pump.
const EVENT_TICK: Duration = Duration::from_millis(20);

/// Server configuration (the thread-pool sizes of paper §3).
#[derive(Clone, Default)]
pub struct ServerConfig {
    /// Threads servicing client requests — also the number of accept
    /// shards connections are pinned across (0 → default of 4).
    pub request_threads: usize,
    /// Tier catalog used to resolve `AttachTier` reconfiguration requests;
    /// without one, tier attachment over RPC is rejected.
    pub catalog: Option<TierCatalog>,
    /// Retry/failover policy installed on the instance at server start
    /// (`None` leaves the instance's current policy untouched). A served
    /// instance typically wants [`RetryPolicy::robust`]: clients are remote
    /// and transient tier faults should be ridden out server-side.
    pub retry: Option<RetryPolicy>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("request_threads", &self.request_threads)
            .field("catalog", &self.catalog.is_some())
            .field("retry", &self.retry)
            .finish()
    }
}

/// A running server; dropping the handle shuts it down.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
    pump_errors: Arc<Failures>,
    connection_errors: Arc<Failures>,
}

/// Failures of one kind: how many, and the first one's error.
#[derive(Default)]
struct Failures {
    count: AtomicU64,
    first: OnceLock<String>,
}

impl Failures {
    fn record(&self, error: impl std::fmt::Display) {
        // `first` is set before `count` grows: Release here, Acquire where
        // the handle reads `count`.
        self.first.get_or_init(|| error.to_string());
        self.count.fetch_add(1, Ordering::Release);
    }
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Event-thread ticks whose [`Instance::pump`] failed: background work
    /// or, under a metadata directory, a metadata write refused or a record
    /// recovery could not decode. The instance reports each such failure
    /// once, so this count is where it stays visible.
    pub fn pump_failures(&self) -> u64 {
        self.pump_errors.count.load(Ordering::Acquire)
    }

    /// The first failed tick's error text.
    pub fn first_pump_error(&self) -> Option<&str> {
        self.pump_errors.first.get().map(String::as_str)
    }

    /// Connections that ended in an error rather than a clean close or
    /// shutdown: a failed accept, a peer that did not open with the hello,
    /// a torn or malformed frame, a failed socket read, write or option.
    pub fn connection_errors(&self) -> u64 {
        self.connection_errors.count.load(Ordering::Acquire)
    }

    /// The first failed connection's error text.
    pub fn first_connection_error(&self) -> Option<&str> {
        self.connection_errors.first.get().map(String::as_str)
    }

    /// Requests shutdown and joins all threads. Graceful: connections
    /// finish writing responses for requests already executed before
    /// closing.
    pub fn shutdown(self) {
        // Dropping the handle does the work.
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Poke the acceptor so it notices. A refused poke finds no
        // listener: the acceptor, which owns it, has already exited.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            // A thread that panicked has already reported it, and `Drop`
            // must not panic again.
            let _ = t.join();
        }
    }
}

/// The Tiera RPC server.
pub struct TieraServer;

impl TieraServer {
    /// Starts serving `instance` on `addr` (use port 0 for an ephemeral
    /// port; the bound address is on the handle).
    pub fn start(
        instance: Arc<Instance>,
        addr: &str,
        cfg: ServerConfig,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let epoch = Instant::now();
        let mut threads = Vec::new();
        let request_threads = if cfg.request_threads == 0 { 4 } else { cfg.request_threads };
        let catalog = Arc::new(cfg.catalog);
        if let Some(retry) = cfg.retry {
            instance.set_retry_policy(retry);
        }

        // Request shards: each worker owns a private connection queue; the
        // acceptor round-robins new connections across them, pinning each
        // connection to one worker for its lifetime (no shared dispatch
        // queue, no cross-worker contention on accept).
        let connection_errors = Arc::new(Failures::default());
        let mut shard_txs = Vec::with_capacity(request_threads);
        for worker in 0..request_threads {
            let (conn_tx, conn_rx) = channel::unbounded::<TcpStream>();
            shard_txs.push(conn_tx);
            let instance = Arc::clone(&instance);
            let shutdown = Arc::clone(&shutdown);
            let catalog = Arc::clone(&catalog);
            let errors = Arc::clone(&connection_errors);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tiera-req-{worker}"))
                    .spawn(move || {
                        while let Ok(stream) = conn_rx.recv() {
                            if shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            if let Err(e) =
                                serve_connection(&instance, &catalog, stream, epoch, &shutdown)
                            {
                                errors.record(e);
                            }
                        }
                    })
                    .expect("spawn worker"),
            );
        }

        // Event thread: maps wall time onto virtual time and pumps. It
        // pumps once more after shutdown is requested, so that the last
        // tick's metadata is made durable too. A failed tick is counted on
        // the handle.
        let pump_errors = Arc::new(Failures::default());
        {
            let instance = Arc::clone(&instance);
            let shutdown = Arc::clone(&shutdown);
            let errors = Arc::clone(&pump_errors);
            threads.push(
                std::thread::Builder::new()
                    .name("tiera-events".into())
                    .spawn(move || loop {
                        let stopping = shutdown.load(Ordering::Acquire);
                        let now = wall_to_virtual(epoch);
                        instance.env().clock().advance_to(now);
                        if let Err(e) = instance.pump(instance.env().clock().now()) {
                            errors.record(e);
                        }
                        if stopping {
                            break;
                        }
                        std::thread::sleep(EVENT_TICK);
                    })
                    .expect("spawn event thread"),
            );
        }

        // Acceptor: owns the shard senders; dropping them on exit releases
        // every idle worker from its queue.
        {
            let shutdown = Arc::clone(&shutdown);
            let errors = Arc::clone(&connection_errors);
            threads.push(
                std::thread::Builder::new()
                    .name("tiera-accept".into())
                    .spawn(move || {
                        let mut next = 0usize;
                        for stream in listener.incoming() {
                            if shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            match stream {
                                Ok(stream) => {
                                    // A queue closes only when its worker
                                    // has died; the connection closes with
                                    // the failed send.
                                    if shard_txs[next % shard_txs.len()].send(stream).is_err() {
                                        errors.record("request worker exited");
                                    }
                                    next += 1;
                                }
                                Err(e) => errors.record(e),
                            }
                        }
                    })
                    .expect("spawn acceptor"),
            );
        }

        Ok(ServerHandle { addr: local, shutdown, threads, pump_errors, connection_errors })
    }
}

fn wall_to_virtual(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

/// Serves one connection: the hello, then sequenced frames until EOF,
/// shutdown, or an error. A lockstep client is answered inline; any other
/// gets a writer thread ([`serve_pipelined`]).
fn serve_connection(
    instance: &Arc<Instance>,
    catalog: &Option<TierCatalog>,
    stream: TcpStream,
    epoch: Instant,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    // Best effort: without it a small response may wait on Nagle's
    // algorithm, but nothing is lost.
    stream.set_nodelay(true).ok();
    // A short read timeout lets the worker notice shutdown while a client
    // holds the connection open idle (otherwise joining the pool would hang
    // until every client disconnects).
    stream.set_read_timeout(Some(Duration::from_millis(50)))?;
    let mut reader = BufReader::with_capacity(PIPE_BUF, stream.try_clone()?);
    match read_word_interruptible(&mut reader, shutdown)? {
        Some(MAGIC) => {}
        Some(_) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "peer did not open with the protocol hello",
            ))
        }
        None => return Ok(()),
    }
    let Some(want) = read_word_interruptible(&mut reader, shutdown)? else {
        return Ok(());
    };
    let granted = negotiate(want);
    write_hello(&mut &stream, granted)?;
    if granted < 2 {
        // Unsatisfiable hello (below v2); refuse.
        return Ok(());
    }
    if want & LOCKSTEP != 0 {
        let mut writer = BufWriter::with_capacity(PIPE_BUF, stream);
        serve_requests(instance, catalog, &mut reader, epoch, shutdown, |seq, payload| {
            write_seq_frame(&mut writer, seq, &payload)?;
            writer.flush()
        })?;
    } else {
        serve_pipelined(instance, catalog, &mut reader, stream, epoch, shutdown)?;
    }
    // Closing a socket with unread data in its receive buffer makes the
    // kernel answer with RST, which can discard responses just flushed
    // before the client reads them. Requests the client already sent but
    // we will never execute are read and discarded (bounded by the 50 ms
    // socket timeout going idle), so the close is a clean FIN and "in
    // flight at shutdown" means a complete response or a clean EOF — never
    // a reset mid-drain.
    drain_unread_frames(&mut reader, shutdown);
    Ok(())
}

/// Reads sequenced frames, executes them in arrival order, and hands each
/// `(seq, encoded response)` to `answer`, until EOF or shutdown. A frame
/// torn, oversized, or too short to carry a sequence number breaks the
/// framing (there is nothing to address an error response to) and ends
/// the connection with an error, as does a failed `answer`.
fn serve_requests(
    instance: &Arc<Instance>,
    catalog: &Option<TierCatalog>,
    reader: &mut BufReader<TcpStream>,
    epoch: Instant,
    shutdown: &AtomicBool,
    mut answer: impl FnMut(u64, Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    while !shutdown.load(Ordering::Acquire) {
        let Some(len) = read_word_interruptible(reader, shutdown)? else {
            break;
        };
        let frame = read_body_interruptible(reader, len)?;
        let (seq, payload) = split_seq(&frame)?;
        let response = match Request::decode(payload) {
            Ok(req) => handle(instance, catalog, req, epoch),
            Err(e) => Response::Error { message: format!("bad request: {e}") },
        };
        answer(seq, response.encode())?;
    }
    Ok(())
}

/// How many queued responses the writer drains into one flush, max. Keeps
/// a single flush bounded (latency) while still amortizing the syscall
/// over a burst.
const COALESCE_LIMIT: usize = 128;

/// The pipelined loop. The worker thread runs [`serve_requests`], queueing
/// each response; a per-connection writer thread drains the queue,
/// coalescing up to [`COALESCE_LIMIT`] responses per flush. When the
/// worker stops, the queue closes and the writer finishes what was already
/// executed — no torn frames.
fn serve_pipelined(
    instance: &Arc<Instance>,
    catalog: &Option<TierCatalog>,
    reader: &mut BufReader<TcpStream>,
    stream: TcpStream,
    epoch: Instant,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    let (resp_tx, resp_rx) = channel::unbounded::<(u64, Vec<u8>)>();
    let writer = std::thread::Builder::new().name("tiera-conn-writer".into()).spawn(
        move || -> io::Result<()> {
            let mut w = BufWriter::with_capacity(PIPE_BUF, stream);
            while let Ok((seq, payload)) = resp_rx.recv() {
                write_seq_frame(&mut w, seq, &payload)?;
                // Coalesce: everything already queued goes out in the same
                // flush. Every batch is flushed before the next wait, so
                // nothing is left buffered when the queue closes.
                for (seq, payload) in
                    std::iter::from_fn(|| resp_rx.try_recv().ok()).take(COALESCE_LIMIT)
                {
                    write_seq_frame(&mut w, seq, &payload)?;
                }
                w.flush()?;
            }
            Ok(())
        },
    )?;
    let served = serve_requests(instance, catalog, reader, epoch, shutdown, |seq, payload| {
        resp_tx.send((seq, payload)).map_err(|_| io::Error::other("response writer exited"))
    });
    drop(resp_tx);
    let written =
        writer.join().unwrap_or_else(|_| Err(io::Error::other("response writer panicked")));
    // The writer's own error first: a failed send only echoes it.
    written.and(served)
}

/// Reads and discards well-formed frames until the socket goes idle (one
/// read timeout, once `shutdown` is set), EOF, a malformed length shows
/// up, or a 250 ms budget runs out (a client that keeps streaming must not
/// stall server shutdown). See the shutdown contract in
/// [`serve_connection`].
fn drain_unread_frames(reader: &mut BufReader<TcpStream>, shutdown: &AtomicBool) {
    let budget = Instant::now();
    while budget.elapsed() < Duration::from_millis(250) {
        match read_word_interruptible(reader, shutdown) {
            Ok(Some(len)) if read_body_interruptible(reader, len).is_ok() => {}
            _ => return,
        }
    }
}

/// Reads one little-endian `u32` (a frame header or a hello word),
/// tolerant of read timeouts: partial progress is preserved across
/// timeouts, and the shutdown flag is honored while waiting. `None` means
/// a clean EOF at a word boundary, or shutdown.
fn read_word_interruptible<R: io::Read>(
    r: &mut R,
    shutdown: &AtomicBool,
) -> io::Result<Option<u32>> {
    let mut word = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut word[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-header")),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(u32::from_le_bytes(word)))
}

/// Reads a frame body of `len` bytes (header already consumed), riding out
/// read timeouts: a frame whose header has arrived is expected to finish.
fn read_body_interruptible<R: io::Read>(r: &mut R, len: u32) -> io::Result<Vec<u8>> {
    let len = len as usize;
    if len > crate::proto::MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "frame too big"));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-frame")),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(payload)
}

fn do_put(
    instance: &Arc<Instance>,
    key: &str,
    value: Vec<u8>,
    tags: &[String],
    now: SimTime,
) -> Response {
    let opts = PutOptions { tags: tags.iter().map(Tag::new).collect() };
    match instance.put_with(key, value, opts, now) {
        Ok(r) => Response::PutOk { latency_ns: r.latency.as_nanos() },
        Err(e) => Response::Error { message: e.to_string() },
    }
}

fn do_get(instance: &Arc<Instance>, key: &str, now: SimTime) -> Response {
    match instance.get(key, now) {
        Ok((value, r)) => Response::GetOk {
            value: value.to_vec(),
            latency_ns: r.latency.as_nanos(),
            served_by: r.served_by.to_string(),
        },
        Err(e) => Response::Error { message: e.to_string() },
    }
}

fn do_delete(instance: &Arc<Instance>, key: &str, now: SimTime) -> Response {
    match instance.delete(key, now) {
        Ok(latency) => Response::Deleted { latency_ns: latency.as_nanos() },
        Err(e) => Response::Error { message: e.to_string() },
    }
}

fn handle(
    instance: &Arc<Instance>,
    catalog: &Option<TierCatalog>,
    req: Request,
    epoch: Instant,
) -> Response {
    let now = {
        // Never let a request run "before" already-published virtual time.
        let wall = wall_to_virtual(epoch);
        instance.env().clock().advance_to(wall)
    };
    match req {
        Request::Ping => Response::Pong,
        Request::Put { key, value, tags } => do_put(instance, key.as_str(), value, &tags, now),
        Request::Get { key } => do_get(instance, key.as_str(), now),
        Request::Delete { key } => do_delete(instance, key.as_str(), now),
        Request::MultiPut { items } => Response::Batch {
            parts: items
                .into_iter()
                .map(|item| do_put(instance, item.key.as_str(), item.value, &item.tags, now))
                .collect(),
        },
        Request::MultiGet { keys } => Response::Batch {
            parts: keys.iter().map(|key| do_get(instance, key.as_str(), now)).collect(),
        },
        Request::MultiDelete { keys } => Response::Batch {
            parts: keys.iter().map(|key| do_delete(instance, key.as_str(), now)).collect(),
        },
        Request::Stats => {
            let reads = instance.stats().reads();
            let writes = instance.stats().writes();
            let (events, _, _) = instance.stats().dispatch_counters();
            Response::Stats {
                objects: instance.registry().len() as u64,
                reads: reads.count,
                writes: writes.count,
                events,
            }
        }
        Request::AddRule { spec_text } => {
            // Parse the event clause, run the spec analyzer against the
            // instance's live tier set, compile, and install through the
            // core's checked front door — the same validation pipeline a
            // spec file gets at compile time (paper §4.2.3).
            match tiera_spec::parse_event(&spec_text) {
                Ok(decl) => {
                    let empty = TierCatalog::new();
                    let compiler = tiera_spec::Compiler::new(&empty, instance.env().clone());
                    match compiler.compile_event_checked(&decl, &instance.tier_names()) {
                        Ok(rule) => match instance.install_rule(rule) {
                            Ok(id) => Response::RuleAdded { rule_id: id.0 },
                            Err(e) => Response::Error { message: e.to_string() },
                        },
                        Err(e) => Response::Error { message: e.to_string() },
                    }
                }
                Err(e) => Response::Error { message: e.to_string() },
            }
        }
        Request::RemoveRule { rule_id } => {
            if instance.policy().remove(tiera_core::policy::RuleId(rule_id)) {
                Response::Ok
            } else {
                Response::Error { message: format!("no rule with id {rule_id}") }
            }
        }
        Request::ListRules => Response::Rules {
            rules: instance
                .policy()
                .snapshot()
                .into_iter()
                .map(|(id, rule)| (id.0, rule.label.unwrap_or_else(|| format!("{:?}", rule.event))))
                .collect(),
        },
        Request::AttachTier { type_name, label, capacity } => match catalog {
            None => Response::Error {
                message: "server has no tier catalog; tier attachment disabled".into(),
            },
            Some(catalog) => match catalog.create(&type_name, &label, capacity) {
                Ok(tier) => match instance.attach_tier(tier) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error { message: e.to_string() },
                },
                Err(e) => Response::Error { message: e.to_string() },
            },
        },
        Request::DetachTier { label } => match instance.detach_tier(&label) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Error { message: e.to_string() },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;

    #[test]
    fn a_failed_tick_is_counted_on_the_handle() {
        let dir = std::env::temp_dir().join(format!("tiera-server-tick-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = tiera_metastore::MetaStore::open(&dir).unwrap();
        store.put(b"undecodable", b"\xff").unwrap();
        store.sync().unwrap();
        drop(store);
        let instance = InstanceBuilder::new("events", SimEnv::new(5))
            .tier(MemTier::with_capacity("t1", 1 << 20))
            .metadata_dir(&dir)
            .build()
            .unwrap();
        let cfg = ServerConfig { request_threads: 1, ..ServerConfig::default() };
        let handle = TieraServer::start(instance, "127.0.0.1:0", cfg).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while handle.pump_failures() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(handle.pump_failures(), 1, "the first tick reports the record, once");
        let first = handle.first_pump_error().unwrap();
        assert!(first.contains("could not be decoded") && first.contains("undecodable"), "{first}");
        handle.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
