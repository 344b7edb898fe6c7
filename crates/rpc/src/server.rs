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
//! * **Per-connection read/write split (v2 only).** A pipelined
//!   connection is serviced by its pinned worker (reads, decodes, and
//!   executes requests in arrival order) plus a dedicated writer thread
//!   that drains a response queue, coalescing every queued response into
//!   one flush. A slow or large response therefore never head-of-line
//!   blocks the socket reads, and the syscall cost of a burst of small
//!   responses is amortized to a single flush.
//!
//! The first four bytes of a connection pick the framing: [`MAGIC`] opens
//! the v2 hello exchange (sequence-numbered frames, batching, pipelining);
//! anything else is a v1 frame length and the connection is served
//! single-shot exactly as before, so old clients keep working unmodified.
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

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tiera_support::channel;

use tiera_core::catalog::TierCatalog;
use tiera_core::instance::{Instance, PutOptions};
use tiera_core::retry::RetryPolicy;
use tiera_core::object::Tag;
use tiera_sim::SimTime;

use crate::proto::{
    negotiate, split_seq, write_frame, write_seq_frame, Request, Response, MAGIC, PIPE_BUF,
};

/// Server configuration (the thread-pool sizes of paper §3).
#[derive(Clone, Default)]
pub struct ServerConfig {
    /// Threads servicing client requests — also the number of accept
    /// shards connections are pinned across (0 → default of 4).
    pub request_threads: usize,
    /// Period of the event thread's pump (zero → default of 20 ms).
    pub event_tick: Duration,
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
            .field("event_tick", &self.event_tick)
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
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown and joins all threads. Graceful: connections
    /// finish writing responses for requests already executed before
    /// closing.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Poke the acceptor so it notices.
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
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
        let event_tick = if cfg.event_tick.is_zero() {
            Duration::from_millis(20)
        } else {
            cfg.event_tick
        };
        let catalog = Arc::new(cfg.catalog);
        if let Some(retry) = cfg.retry {
            instance.set_retry_policy(retry);
        }

        // Request shards: each worker owns a private connection queue; the
        // acceptor round-robins new connections across them, pinning each
        // connection to one worker for its lifetime (no shared dispatch
        // queue, no cross-worker contention on accept).
        let mut shard_txs = Vec::with_capacity(request_threads);
        for worker in 0..request_threads {
            let (conn_tx, conn_rx) = channel::unbounded::<TcpStream>();
            shard_txs.push(conn_tx);
            let instance = Arc::clone(&instance);
            let shutdown = Arc::clone(&shutdown);
            let catalog = Arc::clone(&catalog);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("tiera-req-{worker}"))
                    .spawn(move || {
                        while let Ok(stream) = conn_rx.recv() {
                            if shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            let _ =
                                serve_connection(&instance, &catalog, stream, epoch, &shutdown);
                        }
                    })
                    .expect("spawn worker"),
            );
        }

        // Event thread: maps wall time onto virtual time and pumps. It
        // pumps once more after shutdown is requested, so that the last
        // tick's metadata is made durable too.
        {
            let instance = Arc::clone(&instance);
            let shutdown = Arc::clone(&shutdown);
            let tick = event_tick;
            threads.push(
                std::thread::Builder::new()
                    .name("tiera-events".into())
                    .spawn(move || loop {
                        let stopping = shutdown.load(Ordering::Acquire);
                        let now = wall_to_virtual(epoch);
                        instance.env().clock().advance_to(now);
                        let _ = instance.pump(instance.env().clock().now());
                        if stopping {
                            break;
                        }
                        std::thread::sleep(tick);
                    })
                    .expect("spawn event thread"),
            );
        }

        // Acceptor: owns the shard senders; dropping them on exit releases
        // every idle worker from its queue.
        {
            let shutdown = Arc::clone(&shutdown);
            threads.push(
                std::thread::Builder::new()
                    .name("tiera-accept".into())
                    .spawn(move || {
                        let mut next = 0usize;
                        for stream in listener.incoming() {
                            if shutdown.load(Ordering::Acquire) {
                                break;
                            }
                            if let Ok(stream) = stream {
                                let _ = shard_txs[next % shard_txs.len()].send(stream);
                                next += 1;
                            }
                        }
                    })
                    .expect("spawn acceptor"),
            );
        }

        Ok(ServerHandle {
            addr: local,
            shutdown,
            threads,
        })
    }
}

fn wall_to_virtual(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

/// Serves one connection: sniffs the first word to pick the framing, then
/// runs the matching loop until EOF, error, or shutdown.
fn serve_connection(
    instance: &Arc<Instance>,
    catalog: &Option<TierCatalog>,
    stream: TcpStream,
    epoch: Instant,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // A short read timeout lets the worker notice shutdown while a client
    // holds the connection open idle (otherwise joining the pool would hang
    // until every client disconnects).
    stream.set_read_timeout(Some(Duration::from_millis(50))).ok();
    // Sized for the pipelined dialect's bursts; a v1 connection just
    // under-uses it.
    let mut reader = BufReader::with_capacity(PIPE_BUF, stream.try_clone()?);
    match read_word_interruptible(&mut reader, shutdown)? {
        WordRead::Word(word) if word == MAGIC => {
            serve_pipelined(instance, catalog, reader, stream, epoch, shutdown)
        }
        WordRead::Word(len) => {
            serve_single_shot(instance, catalog, reader, stream, epoch, shutdown, len)
        }
        WordRead::Eof | WordRead::ShuttingDown => Ok(()),
    }
}

/// The v1 loop: one request frame in, one response frame out, in lockstep.
/// `first_len` is the already-sniffed header of the first frame.
fn serve_single_shot(
    instance: &Arc<Instance>,
    catalog: &Option<TierCatalog>,
    mut reader: BufReader<TcpStream>,
    stream: TcpStream,
    epoch: Instant,
    shutdown: &AtomicBool,
    first_len: u32,
) -> io::Result<()> {
    let mut writer = BufWriter::new(stream);
    let mut pending_len = Some(first_len);
    while !shutdown.load(Ordering::Acquire) {
        let len = match pending_len.take() {
            Some(len) => len,
            None => match read_word_interruptible(&mut reader, shutdown)? {
                WordRead::Word(len) => len,
                WordRead::Eof | WordRead::ShuttingDown => return Ok(()),
            },
        };
        let frame = read_body_interruptible(&mut reader, len)?;
        let response = match Request::decode(&frame) {
            Ok(req) => handle(instance, catalog, req, epoch),
            Err(e) => Response::Error {
                message: format!("bad request: {e}"),
            },
        };
        write_frame(&mut writer, &response.encode())?;
    }
    Ok(())
}

/// How many queued responses the writer drains into one flush, max. Keeps
/// a single flush bounded (latency) while still amortizing the syscall
/// over a burst.
const COALESCE_LIMIT: usize = 128;

/// The v2 loop. The worker thread reads sequence-numbered frames, decodes
/// and executes them in arrival order, and queues `(seq, encoded
/// response)` pairs; a per-connection writer thread drains the queue,
/// coalescing up to [`COALESCE_LIMIT`] responses per flush. On shutdown or
/// reader exit the queue is closed, the writer drains what was already
/// executed, flushes, and the connection closes — no torn frames.
fn serve_pipelined(
    instance: &Arc<Instance>,
    catalog: &Option<TierCatalog>,
    mut reader: BufReader<TcpStream>,
    stream: TcpStream,
    epoch: Instant,
    shutdown: &AtomicBool,
) -> io::Result<()> {
    // Finish the hello: the MAGIC word was sniffed; the client's version
    // word follows. Reply with the granted version.
    let want = match read_word_interruptible(&mut reader, shutdown)? {
        WordRead::Word(v) => v,
        WordRead::Eof | WordRead::ShuttingDown => return Ok(()),
    };
    let granted = negotiate(want);
    {
        let mut hello = stream.try_clone()?;
        crate::proto::write_hello(&mut hello, granted)?;
    }
    if granted < 2 {
        // Unsatisfiable hello (a v1-only peer impersonating v2); refuse.
        return Ok(());
    }

    let (resp_tx, resp_rx) = channel::unbounded::<(u64, Vec<u8>)>();
    let writer_stream = stream.try_clone()?;
    let writer = std::thread::Builder::new()
        .name("tiera-conn-writer".into())
        .spawn(move || {
            let mut w = BufWriter::with_capacity(PIPE_BUF, writer_stream);
            'outer: while let Ok((seq, payload)) = resp_rx.recv() {
                if write_seq_frame(&mut w, seq, &payload).is_err() {
                    break;
                }
                // Coalesce: everything already queued goes out in the same
                // flush.
                for _ in 0..COALESCE_LIMIT {
                    match resp_rx.try_recv() {
                        Ok((seq, payload)) => {
                            if write_seq_frame(&mut w, seq, &payload).is_err() {
                                break 'outer;
                            }
                        }
                        Err(_) => break,
                    }
                }
                if w.flush().is_err() {
                    break;
                }
            }
            // Channel closed: responses for requests executed before
            // shutdown are already written; make sure they reach the wire.
            let _ = w.flush();
        })
        .map_err(io::Error::other)?;

    let mut framing_intact = true;
    while !shutdown.load(Ordering::Acquire) {
        let len = match read_word_interruptible(&mut reader, shutdown) {
            Ok(WordRead::Word(len)) => len,
            Ok(WordRead::Eof | WordRead::ShuttingDown) => break,
            Err(_) => {
                framing_intact = false;
                break;
            }
        };
        let frame = match read_body_interruptible(&mut reader, len) {
            Ok(frame) => frame,
            Err(_) => {
                framing_intact = false;
                break;
            }
        };
        let Ok((seq, payload)) = split_seq(&frame) else {
            // A frame too short to carry a sequence number cannot be
            // answered (there is nothing to address the error to); the
            // framing is broken, so close the connection.
            framing_intact = false;
            break;
        };
        let response = match Request::decode(payload) {
            Ok(req) => handle(instance, catalog, req, epoch),
            Err(e) => Response::Error {
                message: format!("bad request: {e}"),
            },
        };
        if resp_tx.send((seq, response.encode())).is_err() {
            break;
        }
    }
    drop(resp_tx);
    let _ = writer.join();
    if framing_intact {
        // Closing a socket with unread data in its receive buffer makes
        // the kernel answer with RST, which can discard responses the
        // writer just flushed before the client reads them. Requests the
        // client already pipelined but we will never execute are read and
        // discarded (bounded by the 50 ms socket timeout going idle), so
        // the close is a clean FIN and "in flight at shutdown" means a
        // complete response or a clean EOF — never a reset mid-drain.
        drain_unread_frames(&mut reader);
    }
    Ok(())
}

/// Reads and discards well-formed frames until the socket goes idle (one
/// read timeout), EOF, a malformed length shows up, or a 250 ms budget
/// runs out (a client that keeps streaming must not stall server
/// shutdown). See the shutdown contract in [`serve_pipelined`].
fn drain_unread_frames(reader: &mut BufReader<TcpStream>) {
    let budget = Instant::now();
    while budget.elapsed() < Duration::from_millis(250) {
        let mut word = [0u8; 4];
        let mut filled = 0usize;
        while filled < 4 {
            match reader.read(&mut word[filled..]) {
                Ok(0) => return,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return, // idle (timeout) or broken — stop draining
            }
        }
        let len = u32::from_le_bytes(word);
        if len as usize > crate::proto::MAX_FRAME {
            return;
        }
        if read_body_interruptible(reader, len).is_err() {
            return;
        }
    }
}

enum WordRead {
    Word(u32),
    Eof,
    ShuttingDown,
}

/// Reads one little-endian `u32` (a frame header or a hello word),
/// tolerant of read timeouts: partial progress is preserved across
/// timeouts, and the shutdown flag is honored while waiting.
fn read_word_interruptible<R: io::Read>(
    r: &mut R,
    shutdown: &AtomicBool,
) -> io::Result<WordRead> {
    let mut word = [0u8; 4];
    let mut filled = 0usize;
    while filled < 4 {
        match r.read(&mut word[filled..]) {
            Ok(0) if filled == 0 => return Ok(WordRead::Eof),
            Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "eof mid-header")),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Acquire) {
                    return Ok(WordRead::ShuttingDown);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(WordRead::Word(u32::from_le_bytes(word)))
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
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(payload)
}

fn do_put(instance: &Arc<Instance>, key: &str, value: Vec<u8>, tags: &[String], now: SimTime) -> Response {
    let opts = PutOptions {
        tags: tags.iter().map(Tag::new).collect(),
    };
    match instance.put_with(key, value, opts, now) {
        Ok(r) => Response::PutOk {
            latency_ns: r.latency.as_nanos(),
        },
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    }
}

fn do_get(instance: &Arc<Instance>, key: &str, now: SimTime) -> Response {
    match instance.get(key, now) {
        Ok((value, r)) => Response::GetOk {
            value: value.to_vec(),
            latency_ns: r.latency.as_nanos(),
            served_by: r.served_by.to_string(),
        },
        Err(e) => Response::Error {
            message: e.to_string(),
        },
    }
}

fn do_delete(instance: &Arc<Instance>, key: &str, now: SimTime) -> Response {
    match instance.delete(key, now) {
        Ok(latency) => Response::Deleted {
            latency_ns: latency.as_nanos(),
        },
        Err(e) => Response::Error {
            message: e.to_string(),
        },
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
            parts: keys
                .iter()
                .map(|key| do_get(instance, key.as_str(), now))
                .collect(),
        },
        Request::MultiDelete { keys } => Response::Batch {
            parts: keys
                .iter()
                .map(|key| do_delete(instance, key.as_str(), now))
                .collect(),
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
                    let compiler =
                        tiera_spec::Compiler::new(&empty, instance.env().clone());
                    match compiler.compile_event_checked(&decl, &instance.tier_names()) {
                        Ok(rule) => match instance.install_rule(rule) {
                            Ok(id) => Response::RuleAdded { rule_id: id.0 },
                            Err(e) => Response::Error {
                                message: e.to_string(),
                            },
                        },
                        Err(e) => Response::Error {
                            message: e.to_string(),
                        },
                    }
                }
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            }
        }
        Request::RemoveRule { rule_id } => {
            if instance.policy().remove(tiera_core::policy::RuleId(rule_id)) {
                Response::Ok
            } else {
                Response::Error {
                    message: format!("no rule with id {rule_id}"),
                }
            }
        }
        Request::ListRules => Response::Rules {
            rules: instance
                .policy()
                .snapshot()
                .into_iter()
                .map(|(id, rule)| {
                    (
                        id.0,
                        rule.label.unwrap_or_else(|| format!("{:?}", rule.event)),
                    )
                })
                .collect(),
        },
        Request::AttachTier {
            type_name,
            label,
            capacity,
        } => match catalog {
            None => Response::Error {
                message: "server has no tier catalog; tier attachment disabled".into(),
            },
            Some(catalog) => match catalog.create(&type_name, &label, capacity) {
                Ok(tier) => match instance.attach_tier(tier) {
                    Ok(()) => Response::Ok,
                    Err(e) => Response::Error {
                        message: e.to_string(),
                    },
                },
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            },
        },
        Request::DetachTier { label } => match instance.detach_tier(&label) {
            Ok(()) => Response::Ok,
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        },
    }
}
