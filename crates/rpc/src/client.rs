//! Clients: blocking TCP, pipelined TCP, and in-process loopback. Both TCP
//! clients speak the one v2 framing of [`crate::proto`].
//!
//! [`TieraClient`] keeps one request in flight (one request, one response,
//! in lockstep) over a [`PipelinedClient`] whose hello declares that
//! depth, so the server answers it inline. It applies a per-request read
//! deadline and reconnects after any transport error: a request torn
//! mid-frame (or a server killed mid-request) fails that one call instead
//! of wedging the connection forever.
//!
//! [`PipelinedClient`] negotiates protocol v2 and keeps many requests in
//! flight on one connection: [`PipelinedClient::submit`] queues a
//! sequence-numbered frame (coalesced with its neighbors into one write),
//! [`PipelinedClient::wait`] demultiplexes responses by sequence number —
//! completions may arrive in any order. Batch helpers
//! (`multi_put`/`multi_get`/`multi_delete`) pack up to [`MAX_BATCH`]
//! operations into a single frame with per-item outcomes.

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use tiera_core::instance::{Instance, PutOptions};
use tiera_core::object::Tag;
use tiera_sim::SimDuration;
use tiera_support::collections::{FxHashMap, FxHashSet};

use crate::proto::{
    read_frame, read_hello, split_seq, write_hello, write_seq_frame, PutItem, Request, Response,
    LOCKSTEP, MAX_BATCH, PIPE_BUF, VERSION,
};

/// Default per-request read deadline for both TCP clients: generous enough
/// for a loaded server, finite so a dead one cannot wedge the caller.
pub const DEFAULT_READ_DEADLINE: Duration = Duration::from_secs(10);

/// Outcome of a client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReceipt {
    /// Virtual latency the middleware charged.
    pub latency: SimDuration,
    /// For GETs, the serving tier.
    pub served_by: Option<String>,
}

/// One key's outcome in a batched read: its bytes and receipt, or why it
/// failed.
pub type GetOutcome = io::Result<(Vec<u8>, ClientReceipt)>;

fn unexpected(resp: Response) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unexpected response: {resp:?}"))
}

// Shared response interpretation, so the lockstep, pipelined, and batch
// paths agree on semantics.

fn as_pong(resp: Response) -> io::Result<()> {
    match resp {
        Response::Pong => Ok(()),
        Response::Error { message } => Err(io::Error::other(message)),
        other => Err(unexpected(other)),
    }
}

fn as_ok(resp: Response) -> io::Result<()> {
    match resp {
        Response::Ok => Ok(()),
        Response::Error { message } => Err(io::Error::other(message)),
        other => Err(unexpected(other)),
    }
}

fn as_put(resp: Response) -> io::Result<ClientReceipt> {
    match resp {
        Response::PutOk { latency_ns } => {
            Ok(ClientReceipt { latency: SimDuration::from_nanos(latency_ns), served_by: None })
        }
        Response::Error { message } => Err(io::Error::other(message)),
        other => Err(unexpected(other)),
    }
}

fn as_get(resp: Response) -> io::Result<(Vec<u8>, ClientReceipt)> {
    match resp {
        Response::GetOk { value, latency_ns, served_by } => Ok((
            value,
            ClientReceipt {
                latency: SimDuration::from_nanos(latency_ns),
                served_by: Some(served_by),
            },
        )),
        Response::Error { message } => Err(io::Error::other(message)),
        other => Err(unexpected(other)),
    }
}

fn as_delete(resp: Response) -> io::Result<ClientReceipt> {
    match resp {
        Response::Deleted { latency_ns } => {
            Ok(ClientReceipt { latency: SimDuration::from_nanos(latency_ns), served_by: None })
        }
        Response::Error { message } => Err(io::Error::other(message)),
        other => Err(unexpected(other)),
    }
}

/// Unpacks a `Batch` response into per-item outcomes via `interpret`,
/// enforcing that the server answered every item.
fn as_batch<T>(
    resp: Response,
    expected: usize,
    interpret: impl Fn(Response) -> io::Result<T>,
) -> io::Result<Vec<io::Result<T>>> {
    match resp {
        Response::Batch { parts } => {
            if parts.len() != expected {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("batch answered {} of {expected} items", parts.len()),
                ));
            }
            Ok(parts.into_iter().map(&interpret).collect())
        }
        Response::Error { message } => Err(io::Error::other(message)),
        other => Err(unexpected(other)),
    }
}

fn check_batch_len(len: usize) -> io::Result<()> {
    if len > MAX_BATCH {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("batch of {len} exceeds MAX_BATCH ({MAX_BATCH})"),
        ));
    }
    Ok(())
}

/// A blocking TCP client: one request in flight at a time.
///
/// It runs as a [`PipelinedClient`] whose hello declares lockstep use, so
/// the server writes each response inline instead of through a writer
/// thread.
///
/// Robustness: every call carries the configured read deadline, and any
/// transport error (timeout, torn frame, connection reset) poisons the
/// connection — the failing call returns the error, and the next call
/// transparently reconnects. In-flight state is never reused across a
/// reconnect, so a desynchronized frame stream cannot misattribute
/// responses.
pub struct TieraClient {
    addr: SocketAddr,
    deadline: Option<Duration>,
    conn: Option<PipelinedClient>,
    redials: u64,
}

impl TieraClient {
    /// Connects to a Tiera server with the default read deadline.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with_deadline(addr, Some(DEFAULT_READ_DEADLINE))
    }

    /// Connects with an explicit per-request read deadline (`None` waits
    /// forever).
    pub fn connect_with_deadline(
        addr: impl ToSocketAddrs,
        deadline: Option<Duration>,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        Ok(Self {
            addr,
            deadline,
            conn: Some(PipelinedClient::handshake(stream, deadline, true)?),
            redials: 0,
        })
    }

    /// Whether a live connection is currently held (false after a
    /// transport error, until the next call reconnects).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// How many times this client has transparently reconnected after a
    /// transport error. A redial means the previous request's fate is
    /// unknown — it may or may not have been applied — so any
    /// non-idempotent retry issued after a redial must carry an
    /// idempotency token (see `tiera-cluster`'s routed DELETE).
    pub fn redials(&self) -> u64 {
        self.redials
    }

    /// One exchange: `submit` queues the request, and the response comes
    /// back uninterpreted, so a server-side error never poisons the
    /// connection.
    fn call(
        &mut self,
        submit: impl FnOnce(&mut PipelinedClient) -> io::Result<Token>,
    ) -> io::Result<Response> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                let conn = PipelinedClient::handshake(stream, self.deadline, true)?;
                self.redials += 1;
                conn
            }
        };
        let token = submit(&mut conn)?;
        let response = conn.wait(token)?;
        // Only a complete exchange gives the connection back. After any
        // error its state is unknowable (a late response could still
        // arrive), so it is dropped and the next call redials.
        self.conn = Some(conn);
        Ok(response)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<()> {
        as_pong(self.call(|conn| conn.submit(&Request::Ping))?)
    }

    /// Stores an object.
    pub fn put(&mut self, key: &str, value: &[u8]) -> io::Result<ClientReceipt> {
        self.put_tagged(key, value, &[])
    }

    /// Stores an object with tags.
    pub fn put_tagged(
        &mut self,
        key: &str,
        value: &[u8],
        tags: &[&str],
    ) -> io::Result<ClientReceipt> {
        as_put(self.call(|conn| conn.submit_put_tagged(key, value, tags))?)
    }

    /// Fetches an object.
    pub fn get(&mut self, key: &str) -> io::Result<(Vec<u8>, ClientReceipt)> {
        as_get(self.call(|conn| conn.submit_get(key))?)
    }

    /// Deletes an object.
    pub fn delete(&mut self, key: &str) -> io::Result<ClientReceipt> {
        as_delete(self.call(|conn| conn.submit_delete(key))?)
    }

    /// Fetches `(objects, reads, writes, events)` counters.
    pub fn stats(&mut self) -> io::Result<(u64, u64, u64, u64)> {
        match self.call(|conn| conn.submit(&Request::Stats))? {
            Response::Stats { objects, reads, writes, events } => {
                Ok((objects, reads, writes, events))
            }
            other => Err(unexpected(other)),
        }
    }

    // ---- runtime reconfiguration (paper §4.2.3) ----

    /// Installs a policy rule from specification text
    /// (`event(...) : response { ... }`); returns its rule id.
    pub fn add_rule(&mut self, spec_text: &str) -> io::Result<u64> {
        let req = Request::AddRule { spec_text: spec_text.to_string() };
        match self.call(|conn| conn.submit(&req))? {
            Response::RuleAdded { rule_id } => Ok(rule_id),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Removes a rule by id.
    pub fn remove_rule(&mut self, rule_id: u64) -> io::Result<()> {
        as_ok(self.call(|conn| conn.submit(&Request::RemoveRule { rule_id }))?)
    }

    /// Lists installed rules as `(id, label)` pairs.
    pub fn list_rules(&mut self) -> io::Result<Vec<(u64, String)>> {
        match self.call(|conn| conn.submit(&Request::ListRules))? {
            Response::Rules { rules } => Ok(rules),
            Response::Error { message } => Err(io::Error::other(message)),
            other => Err(unexpected(other)),
        }
    }

    /// Attaches a tier resolved through the server's catalog.
    pub fn attach_tier(&mut self, type_name: &str, label: &str, capacity: u64) -> io::Result<()> {
        let req = Request::AttachTier {
            type_name: type_name.to_string(),
            label: label.to_string(),
            capacity,
        };
        as_ok(self.call(|conn| conn.submit(&req))?)
    }

    /// Detaches a tier by label.
    pub fn detach_tier(&mut self, label: &str) -> io::Result<()> {
        let req = Request::DetachTier { label: label.to_string() };
        as_ok(self.call(|conn| conn.submit(&req))?)
    }
}

/// Handle for one in-flight pipelined request; redeem it with
/// [`PipelinedClient::wait`] (or a typed `wait_*` helper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token(u64);

impl Token {
    /// The request's wire sequence number.
    pub fn seq(self) -> u64 {
        self.0
    }
}

/// A pipelined TCP client speaking protocol v2.
///
/// Many requests may be in flight on the one connection: `submit` encodes
/// a sequence-numbered frame into the send buffer (several submits
/// coalesce into one write syscall), `wait` flushes and then reads
/// responses, matching them to tokens by sequence number — out-of-order
/// completion is handled by parking early responses until their token is
/// redeemed.
///
/// Unlike [`TieraClient`] there is no transparent reconnect: in-flight
/// requests cannot be safely replayed (a PUT may or may not have been
/// applied), so after a transport error every `wait` fails and the caller
/// decides what to re-issue on a fresh connection.
pub struct PipelinedClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    version: u32,
    /// Declared in the hello: at most one request in flight.
    lockstep: bool,
    next_seq: u64,
    /// Sequence numbers submitted and not yet redeemed or received.
    awaiting: FxHashSet<u64>,
    /// Responses received while waiting for an earlier token.
    parked: FxHashMap<u64, Response>,
}

impl std::fmt::Debug for PipelinedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelinedClient")
            .field("version", &self.version)
            .field("lockstep", &self.lockstep)
            .field("next_seq", &self.next_seq)
            .field("in_flight", &self.awaiting.len())
            .finish()
    }
}

impl PipelinedClient {
    /// Connects and negotiates protocol v2 with the default read deadline.
    ///
    /// Fails with a clean error (rather than a hang or a garbage decode)
    /// when the peer does not answer the hello with one.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::connect_with_deadline(addr, Some(DEFAULT_READ_DEADLINE))
    }

    /// Connects with an explicit per-request read deadline.
    pub fn connect_with_deadline(
        addr: impl ToSocketAddrs,
        deadline: Option<Duration>,
    ) -> io::Result<Self> {
        Self::handshake(TcpStream::connect(addr)?, deadline, false)
    }

    /// Opens the session on a connected stream. A `lockstep` hello
    /// promises the server at most one request in flight, which lets it
    /// answer inline; `submit` then refuses a second request until the
    /// first is redeemed, so the promise holds.
    fn handshake(
        mut stream: TcpStream,
        deadline: Option<Duration>,
        lockstep: bool,
    ) -> io::Result<Self> {
        // Best effort: without it a small request may wait on Nagle's
        // algorithm, but nothing is lost.
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(deadline)?;
        let flags = if lockstep { LOCKSTEP } else { 0 };
        write_hello(&mut stream, VERSION | flags)?;
        // A pipelined connection moves bursts of frames in each direction;
        // generous buffers keep a full pipeline window per syscall.
        let mut reader = BufReader::with_capacity(PIPE_BUF, stream.try_clone()?);
        let granted = read_hello(&mut reader).map_err(|e| {
            io::Error::new(
                e.kind(),
                format!("handshake failed ({e}); the server does not speak protocol v2"),
            )
        })?;
        if !(2..=VERSION).contains(&granted) {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                format!("server refused pipelined protocol (granted version {granted})"),
            ));
        }
        Ok(Self {
            reader,
            writer: BufWriter::with_capacity(PIPE_BUF, stream),
            version: granted,
            lockstep,
            next_seq: 0,
            awaiting: FxHashSet::default(),
            parked: FxHashMap::default(),
        })
    }

    /// The negotiated protocol version (currently always 2).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Requests submitted but not yet redeemed by a `wait`.
    pub fn in_flight(&self) -> usize {
        self.awaiting.len()
    }

    /// Queues a request without waiting for its response. The frame lands
    /// in the send buffer — neighbors coalesce into one write — and is
    /// guaranteed on the wire after [`PipelinedClient::flush`] (which
    /// `wait` performs implicitly).
    pub fn submit(&mut self, req: &Request) -> io::Result<Token> {
        if self.lockstep && !self.awaiting.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a lockstep connection holds one request in flight; wait for it first",
            ));
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        write_seq_frame(&mut self.writer, seq, &req.encode())?;
        self.awaiting.insert(seq);
        Ok(Token(seq))
    }

    /// Forces buffered request frames onto the wire.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Waits for the response to `token`, reading (and parking) any other
    /// responses that arrive first.
    pub fn wait(&mut self, token: Token) -> io::Result<Response> {
        if let Some(resp) = self.parked.remove(&token.0) {
            return Ok(resp);
        }
        if !self.awaiting.contains(&token.0) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("token {} is not in flight", token.0),
            ));
        }
        self.writer.flush()?;
        loop {
            let frame = read_frame(&mut self.reader)?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"))?;
            let (seq, payload) = split_seq(&frame)?;
            if !self.awaiting.remove(&seq) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response for unknown sequence number {seq}"),
                ));
            }
            let resp = Response::decode(payload)?;
            if seq == token.0 {
                return Ok(resp);
            }
            self.parked.insert(seq, resp);
        }
    }

    // ---- typed submit/wait pairs ----

    /// Queues a PUT.
    pub fn submit_put(&mut self, key: &str, value: &[u8]) -> io::Result<Token> {
        self.submit_put_tagged(key, value, &[])
    }

    /// Queues a tagged PUT.
    pub fn submit_put_tagged(
        &mut self,
        key: &str,
        value: &[u8],
        tags: &[&str],
    ) -> io::Result<Token> {
        self.submit(&Request::Put {
            key: key.to_string(),
            value: value.to_vec(),
            tags: tags.iter().map(|s| s.to_string()).collect(),
        })
    }

    /// Queues a GET.
    pub fn submit_get(&mut self, key: &str) -> io::Result<Token> {
        self.submit(&Request::Get { key: key.to_string() })
    }

    /// Queues a DELETE.
    pub fn submit_delete(&mut self, key: &str) -> io::Result<Token> {
        self.submit(&Request::Delete { key: key.to_string() })
    }

    /// Redeems a PUT token.
    pub fn wait_put(&mut self, token: Token) -> io::Result<ClientReceipt> {
        as_put(self.wait(token)?)
    }

    /// Redeems a GET token.
    pub fn wait_get(&mut self, token: Token) -> io::Result<(Vec<u8>, ClientReceipt)> {
        as_get(self.wait(token)?)
    }

    /// Redeems a DELETE token.
    pub fn wait_delete(&mut self, token: Token) -> io::Result<ClientReceipt> {
        as_delete(self.wait(token)?)
    }

    /// Round-trip liveness probe (submits and waits).
    pub fn ping(&mut self) -> io::Result<()> {
        let token = self.submit(&Request::Ping)?;
        as_pong(self.wait(token)?)
    }

    // ---- batch helpers ----

    /// Stores up to [`MAX_BATCH`] objects in one frame; returns per-item
    /// outcomes in order (partial failure is per item, not per batch).
    pub fn multi_put(
        &mut self,
        items: &[(&str, &[u8])],
    ) -> io::Result<Vec<io::Result<ClientReceipt>>> {
        check_batch_len(items.len())?;
        let req = Request::MultiPut {
            items: items
                .iter()
                .map(|(key, value)| PutItem {
                    key: key.to_string(),
                    value: value.to_vec(),
                    tags: Vec::new(),
                })
                .collect(),
        };
        let token = self.submit(&req)?;
        as_batch(self.wait(token)?, items.len(), as_put)
    }

    /// Fetches up to [`MAX_BATCH`] objects in one frame; per-item outcomes
    /// in key order.
    pub fn multi_get(&mut self, keys: &[&str]) -> io::Result<Vec<GetOutcome>> {
        check_batch_len(keys.len())?;
        let req = Request::MultiGet { keys: keys.iter().map(|k| k.to_string()).collect() };
        let token = self.submit(&req)?;
        as_batch(self.wait(token)?, keys.len(), as_get)
    }

    /// Deletes up to [`MAX_BATCH`] objects in one frame; per-item outcomes
    /// in key order.
    pub fn multi_delete(&mut self, keys: &[&str]) -> io::Result<Vec<io::Result<ClientReceipt>>> {
        check_batch_len(keys.len())?;
        let req = Request::MultiDelete { keys: keys.iter().map(|k| k.to_string()).collect() };
        let token = self.submit(&req)?;
        as_batch(self.wait(token)?, keys.len(), as_delete)
    }
}

/// In-process client with the same surface as [`TieraClient`], for
/// colocated deployments (paper: the server "can be co-located with the
/// application on the same EC2 instance").
pub struct LocalClient {
    instance: Arc<Instance>,
}

impl LocalClient {
    /// Wraps an instance.
    pub fn new(instance: Arc<Instance>) -> Self {
        Self { instance }
    }

    fn now(&self) -> tiera_sim::SimTime {
        self.instance.env().clock().now()
    }

    /// Stores an object.
    pub fn put(&self, key: &str, value: &[u8]) -> io::Result<ClientReceipt> {
        self.put_tagged(key, value, &[])
    }

    /// Stores an object with tags.
    pub fn put_tagged(&self, key: &str, value: &[u8], tags: &[&str]) -> io::Result<ClientReceipt> {
        let opts = PutOptions { tags: tags.iter().map(Tag::new).collect() };
        self.instance
            .put_with(key, value.to_vec(), opts, self.now())
            .map(|r| ClientReceipt { latency: r.latency, served_by: None })
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// Fetches an object.
    pub fn get(&self, key: &str) -> io::Result<(Vec<u8>, ClientReceipt)> {
        self.instance
            .get(key, self.now())
            .map(|(v, r)| {
                (
                    v.to_vec(),
                    ClientReceipt { latency: r.latency, served_by: Some(r.served_by.to_string()) },
                )
            })
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// Deletes an object.
    pub fn delete(&self, key: &str) -> io::Result<ClientReceipt> {
        self.instance
            .delete(key, self.now())
            .map(|latency| ClientReceipt { latency, served_by: None })
            .map_err(|e| io::Error::other(e.to_string()))
    }

    /// Stores several objects, mirroring [`PipelinedClient::multi_put`]'s
    /// per-item outcome shape.
    pub fn multi_put(&self, items: &[(&str, &[u8])]) -> io::Result<Vec<io::Result<ClientReceipt>>> {
        check_batch_len(items.len())?;
        Ok(items.iter().map(|(k, v)| self.put(k, v)).collect())
    }

    /// Fetches several objects, mirroring [`PipelinedClient::multi_get`].
    pub fn multi_get(&self, keys: &[&str]) -> io::Result<Vec<GetOutcome>> {
        check_batch_len(keys.len())?;
        Ok(keys.iter().map(|k| self.get(k)).collect())
    }

    /// Deletes several objects, mirroring [`PipelinedClient::multi_delete`].
    pub fn multi_delete(&self, keys: &[&str]) -> io::Result<Vec<io::Result<ClientReceipt>>> {
        check_batch_len(keys.len())?;
        Ok(keys.iter().map(|k| self.delete(k)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{ServerConfig, TieraServer};
    use tiera_core::prelude::*;
    use tiera_sim::SimEnv;

    fn instance() -> Arc<Instance> {
        InstanceBuilder::new("rpc", SimEnv::new(61))
            .tier(MemTier::with_capacity("t1", 64 << 20))
            .build()
            .unwrap()
    }

    #[test]
    fn server_start_installs_the_configured_retry_policy() {
        let inst = instance();
        assert!(inst.retry_policy().is_trivial(), "instances default to no retries");
        let handle = TieraServer::start(
            Arc::clone(&inst),
            "127.0.0.1:0",
            ServerConfig { retry: Some(RetryPolicy::robust()), ..ServerConfig::default() },
        )
        .unwrap();
        assert_eq!(inst.retry_policy(), RetryPolicy::robust());
        // And the served data path still works under the non-trivial policy.
        let mut client = TieraClient::connect(handle.addr()).unwrap();
        client.put("k", b"v").unwrap();
        let (value, _) = client.get("k").unwrap();
        assert_eq!(value, b"v");
        handle.shutdown();
        // `retry: None` leaves an existing policy untouched.
        let inst2 = instance();
        inst2.set_retry_policy(RetryPolicy::robust());
        let handle2 =
            TieraServer::start(Arc::clone(&inst2), "127.0.0.1:0", ServerConfig::default()).unwrap();
        assert_eq!(inst2.retry_policy(), RetryPolicy::robust());
        handle2.shutdown();
    }

    #[test]
    fn tcp_roundtrip() {
        let inst = instance();
        let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TieraClient::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        client.put("greeting", b"hello tiera").unwrap();
        let (value, receipt) = client.get("greeting").unwrap();
        assert_eq!(value, b"hello tiera");
        assert_eq!(receipt.served_by.as_deref(), Some("t1"));
        client.delete("greeting").unwrap();
        let err = client.get("greeting").unwrap_err();
        assert!(err.to_string().contains("no such object"), "{err}");
        let (objects, reads, writes, _) = client.stats().unwrap();
        assert_eq!(objects, 0);
        assert!(reads >= 1 && writes >= 1);
        handle.shutdown();
    }

    #[test]
    fn pipelined_roundtrip_and_batches() {
        let inst = instance();
        let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = PipelinedClient::connect(handle.addr()).unwrap();
        assert_eq!(client.version(), VERSION);
        client.ping().unwrap();

        // Pipelined: 32 puts in flight at once, then their gets.
        let puts: Vec<Token> = (0..32)
            .map(|i| client.submit_put(&format!("k{i}"), format!("v{i}").as_bytes()).unwrap())
            .collect();
        assert_eq!(client.in_flight(), 32);
        for t in puts {
            client.wait_put(t).unwrap();
        }
        let gets: Vec<Token> =
            (0..32).map(|i| client.submit_get(&format!("k{i}")).unwrap()).collect();
        for (i, t) in gets.into_iter().enumerate() {
            let (v, r) = client.wait_get(t).unwrap();
            assert_eq!(v, format!("v{i}").as_bytes());
            assert_eq!(r.served_by.as_deref(), Some("t1"));
        }
        assert_eq!(client.in_flight(), 0);

        // Batch round trip with a per-item miss in the middle.
        let outcomes = client.multi_put(&[("a", b"1".as_ref()), ("b", b"2".as_ref())]).unwrap();
        assert!(outcomes.iter().all(|o| o.is_ok()));
        let fetched = client.multi_get(&["a", "missing", "b"]).unwrap();
        assert_eq!(fetched[0].as_ref().unwrap().0, b"1");
        assert!(fetched[1].is_err());
        assert_eq!(fetched[2].as_ref().unwrap().0, b"2");
        let deleted = client.multi_delete(&["a", "b", "a"]).unwrap();
        assert!(deleted[0].is_ok() && deleted[1].is_ok());
        assert!(deleted[2].is_err(), "second delete of `a` must fail");
        handle.shutdown();
    }

    #[test]
    fn waiting_a_redeemed_token_is_an_error() {
        let inst = instance();
        let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = PipelinedClient::connect(handle.addr()).unwrap();
        let t = client.submit_put("k", b"v").unwrap();
        client.wait_put(t).unwrap();
        let err = client.wait(t).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        handle.shutdown();
    }

    #[test]
    fn a_lockstep_client_refuses_a_second_request_in_flight() {
        let handle =
            TieraServer::start(instance(), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let stream = TcpStream::connect(handle.addr()).unwrap();
        let mut client =
            PipelinedClient::handshake(stream, Some(DEFAULT_READ_DEADLINE), true).unwrap();
        let first = client.submit(&Request::Ping).unwrap();
        let err = client.submit(&Request::Ping).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{err}");
        assert_eq!(client.in_flight(), 1, "the refused request was never sent");
        assert_eq!(client.wait(first).unwrap(), Response::Pong);
        let second = client.submit(&Request::Ping).unwrap();
        assert_eq!(client.wait(second).unwrap(), Response::Pong);
        handle.shutdown();
    }

    #[test]
    fn concurrent_tcp_clients() {
        let inst = instance();
        let handle = TieraServer::start(
            inst,
            "127.0.0.1:0",
            ServerConfig { request_threads: 4, ..ServerConfig::default() },
        )
        .unwrap();
        let addr = handle.addr();
        let mut joins = Vec::new();
        for c in 0..4 {
            joins.push(std::thread::spawn(move || {
                let mut client = TieraClient::connect(addr).unwrap();
                for i in 0..50 {
                    let key = format!("c{c}-k{i}");
                    client.put(&key, format!("v{i}").as_bytes()).unwrap();
                    let (v, _) = client.get(&key).unwrap();
                    assert_eq!(v, format!("v{i}").as_bytes());
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut client = TieraClient::connect(addr).unwrap();
        let (objects, ..) = client.stats().unwrap();
        assert_eq!(objects, 200);
        handle.shutdown();
    }

    #[test]
    fn hammer_request_pool_with_mixed_ops() {
        // Four clients hammer the 4-shard request pool with put/get/
        // delete while the server's event thread pumps concurrently; the
        // sharded registry's incremental aggregates must match a recount
        // afterwards, and surviving keys must be readable.
        let inst = instance();
        let handle = TieraServer::start(
            Arc::clone(&inst),
            "127.0.0.1:0",
            ServerConfig { request_threads: 4, ..ServerConfig::default() },
        )
        .unwrap();
        let addr = handle.addr();
        let joins: Vec<_> = (0..4)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = TieraClient::connect(addr).unwrap();
                    for i in 0..120u64 {
                        let key = format!("c{c}-k{}", i % 30);
                        client.put(&key, format!("v{c}-{i}").as_bytes()).unwrap();
                        let (v, _) = client.get(&key).unwrap();
                        assert_eq!(v, format!("v{c}-{i}").as_bytes());
                        if i % 5 == 0 {
                            client.delete(&key).unwrap();
                        }
                    }
                })
            })
            .collect();
        for j in joins {
            j.join().unwrap();
        }
        let reg = inst.registry();
        assert_eq!(
            reg.aggregates("t1"),
            reg.recount_aggregates("t1"),
            "aggregates drifted under the RPC pool"
        );
        // 30 keys per client; every 5th iteration deletes, and 120 % 5 == 0
        // hits keys 0,5,10,... — exact survivor count is deterministic per
        // client: keys whose final write index i (90..119) satisfies
        // i % 5 != 0. Just assert registry and stats agree instead.
        let mut client = TieraClient::connect(addr).unwrap();
        let (objects, ..) = client.stats().unwrap();
        assert_eq!(objects as usize, reg.len());
        for key in reg.keys_in("t1") {
            client.get(key.as_str()).unwrap();
        }
        handle.shutdown();
    }

    #[test]
    fn server_policies_run_in_wall_time() {
        // A 50 ms write-back timer fires while the server runs live.
        let env = SimEnv::new(62);
        let inst = InstanceBuilder::new("timed", env)
            .tier(MemTier::with_capacity("fast", 64 << 20))
            .tier(MemTier::with_traits(
                "slow",
                64 << 20,
                TierTraits {
                    durable: true,
                    availability_zone: "zone-a".into(),
                    class: tiera_sim::StorageClass::BlockStore,
                },
            ))
            .rule(Rule::on(EventKind::timer(SimDuration::from_millis(50))).respond(
                ResponseSpec::copy(Selector::InTier("fast".into()).and(Selector::Dirty), ["slow"]),
            ))
            .build()
            .unwrap();
        let handle =
            TieraServer::start(Arc::clone(&inst), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TieraClient::connect(handle.addr()).unwrap();
        client.put("wb", b"dirty-data").unwrap();
        // Wait out a couple of timer periods in wall time.
        std::thread::sleep(std::time::Duration::from_millis(200));
        let meta = inst.registry().get(&"wb".into()).unwrap();
        assert!(meta.in_tier("slow"), "write-back ran live: {meta:?}");
        handle.shutdown();
    }

    #[test]
    fn runtime_reconfiguration_over_tcp() {
        // The Figure 17 flow, but entirely over the wire: swap the policy
        // and the tier set on a live server.
        let env = SimEnv::new(63);
        let inst = InstanceBuilder::new("reconf", env.clone())
            .tier(MemTier::with_capacity("memcached", 64 << 20))
            .tier(MemTier::with_capacity("ebs", 64 << 20))
            .build()
            .unwrap();
        let mut catalog = tiera_core::catalog::TierCatalog::new();
        catalog.register("Mem", |label, cap| {
            MemTier::with_capacity(label, cap) as tiera_core::tier::TierHandle
        });
        let handle = TieraServer::start(
            Arc::clone(&inst),
            "127.0.0.1:0",
            ServerConfig { catalog: Some(catalog), ..ServerConfig::default() },
        )
        .unwrap();
        let mut client = TieraClient::connect(handle.addr()).unwrap();

        // Install a write-through rule from spec text.
        let rule_id = client
            .add_rule(
                "event(insert.into) : response {
                     store(what: insert.object, to: [memcached, ebs]);
                 }",
            )
            .unwrap();
        client.put("k1", b"v1").unwrap();
        let meta = inst.registry().get(&"k1".into()).unwrap();
        assert!(meta.in_tier("memcached") && meta.in_tier("ebs"));

        // Attach a new tier through the catalog, swap the rule for one
        // targeting it, and verify placement follows.
        client.attach_tier("Mem", "ephemeral", 64 << 20).unwrap();
        client.remove_rule(rule_id).unwrap();
        let id2 = client
            .add_rule(
                "event(insert.into) : response {
                     store(what: insert.object, to: [memcached, ephemeral]);
                 }",
            )
            .unwrap();
        client.detach_tier("ebs").unwrap();
        client.put("k2", b"v2").unwrap();
        let meta = inst.registry().get(&"k2".into()).unwrap();
        assert!(meta.in_tier("ephemeral") && !meta.in_tier("ebs"));

        let rules = client.list_rules().unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].0, id2);

        // Error paths surface as io errors with the server's message.
        assert!(client.add_rule("event(bogus) : response {}").is_err());
        assert!(client.remove_rule(9999).is_err());
        assert!(client.attach_tier("Tape", "t", 1).is_err());
        assert!(client.detach_tier("missing").is_err());
        handle.shutdown();
    }

    #[test]
    fn attach_tier_rejected_without_catalog() {
        let inst = instance();
        let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
        let mut client = TieraClient::connect(handle.addr()).unwrap();
        let err = client.attach_tier("Mem", "x", 1 << 20).unwrap_err();
        assert!(err.to_string().contains("no tier catalog"), "{err}");
        handle.shutdown();
    }

    #[test]
    fn local_client_matches_tcp_semantics() {
        let inst = instance();
        let client = LocalClient::new(Arc::clone(&inst));
        client.put_tagged("k", b"v", &["tmp"]).unwrap();
        let (v, r) = client.get("k").unwrap();
        assert_eq!(v, b"v");
        assert_eq!(r.served_by.as_deref(), Some("t1"));
        client.delete("k").unwrap();
        assert!(client.get("k").is_err());
        // Batch surface mirrors the pipelined client's shape.
        let outcomes = client.multi_put(&[("a", b"1".as_ref()), ("b", b"2".as_ref())]).unwrap();
        assert!(outcomes.iter().all(|o| o.is_ok()));
        let fetched = client.multi_get(&["a", "gone", "b"]).unwrap();
        assert!(fetched[0].is_ok() && fetched[1].is_err() && fetched[2].is_ok());
        let deleted = client.multi_delete(&["a", "b"]).unwrap();
        assert!(deleted.iter().all(|o| o.is_ok()));
    }
}
