//! Protocol conformance suite for the pipelined RPC plane (ISSUE 6
//! satellite 2, plus the torn-write regression of satellite 4).
//!
//! Where the lib tests drive the real server end to end, these tests pin
//! the *protocol contract* itself, using hand-rolled stub servers where
//! the interesting behavior (out-of-order completion, torn writes, peers
//! that do not speak v2) is easier to stage deliberately than to provoke:
//!
//! * out-of-order completion maps responses to the right sequence numbers;
//! * batch requests report partial failure per item;
//! * handshake version negotiation, including a client meeting a peer that
//!   does not answer the hello;
//! * graceful shutdown with requests in flight — complete frames or clean
//!   EOF, never torn frames;
//! * a pipelined client that writes far ahead of its reads never
//!   deadlocks with the server;
//! * a request dropped mid-frame never wedges `TieraClient`: the read
//!   deadline fails the call and the next call reconnects.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tiera_core::prelude::*;
use tiera_rpc::proto::{
    read_frame, read_hello, split_seq, write_hello, write_seq_frame, Request, Response, MAX_FRAME,
    VERSION,
};
use tiera_rpc::{PipelinedClient, ServerConfig, TieraClient, TieraServer};
use tiera_sim::SimEnv;

fn instance() -> Arc<Instance> {
    InstanceBuilder::new("conformance", SimEnv::new(77))
        .tier(MemTier::with_capacity("t1", 1 << 20))
        .build()
        .unwrap()
}

/// Runs `serve(connection_index, stream)` on each accepted connection,
/// each on its own thread (a stalling connection must not block a
/// reconnect). Returns the listen address. The threads die with the test.
fn stub_server(
    conns: usize,
    serve: impl Fn(usize, TcpStream) + Send + Sync + 'static,
) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve = Arc::new(serve);
    std::thread::spawn(move || {
        for i in 0..conns {
            match listener.accept() {
                Ok((stream, _)) => {
                    let serve = Arc::clone(&serve);
                    std::thread::spawn(move || serve(i, stream));
                }
                Err(_) => break,
            }
        }
    });
    addr
}

/// Completes the v2 handshake server-side: reads the client hello, grants
/// `VERSION`.
fn stub_handshake(stream: &mut TcpStream) -> u32 {
    let want = read_hello(stream).unwrap();
    write_hello(stream, VERSION).unwrap();
    want
}

/// Reads one sequenced request frame; returns its sequence number.
fn stub_read_request(stream: &mut TcpStream) -> u64 {
    let frame = read_frame(stream).unwrap().unwrap();
    let (seq, payload) = split_seq(&frame).unwrap();
    Request::decode(payload).unwrap();
    seq
}

/// Answers sequence number `seq` with `resp`.
fn stub_answer(stream: &mut TcpStream, seq: u64, resp: &Response) -> std::io::Result<()> {
    write_seq_frame(stream, seq, &resp.encode())?;
    stream.flush()
}

// ---- out-of-order completion ----

#[test]
fn out_of_order_responses_map_to_their_sequence_numbers() {
    // The stub collects a burst of requests and answers them in REVERSE
    // submission order, tagging each response with a value derived from
    // its sequence number. Every token must still redeem to its own
    // response.
    const BURST: usize = 16;
    let addr = stub_server(1, |_, mut stream| {
        stub_handshake(&mut stream);
        let mut seqs = Vec::new();
        for _ in 0..BURST {
            let frame = read_frame(&mut stream).unwrap().unwrap();
            let (seq, payload) = split_seq(&frame).unwrap();
            Request::decode(payload).unwrap();
            seqs.push(seq);
        }
        for &seq in seqs.iter().rev() {
            let resp = Response::PutOk { latency_ns: seq * 1000 + 7 };
            write_seq_frame(&mut stream, seq, &resp.encode()).unwrap();
        }
        stream.flush().unwrap();
    });

    let mut client = PipelinedClient::connect(addr).unwrap();
    let tokens: Vec<_> =
        (0..BURST).map(|i| client.submit_put(&format!("k{i}"), b"v").unwrap()).collect();
    // Redeem in submission order even though the wire carries them
    // reversed: the first wait parks 15 responses.
    for token in tokens {
        let receipt = client.wait_put(token).unwrap();
        assert_eq!(
            receipt.latency.as_nanos(),
            token.seq() * 1000 + 7,
            "token {} redeemed someone else's response",
            token.seq()
        );
    }
    assert_eq!(client.in_flight(), 0);
}

#[test]
fn out_of_order_waits_against_the_real_server() {
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    for i in 0..8 {
        let t = client.submit_put(&format!("k{i}"), format!("v{i}").as_bytes()).unwrap();
        client.wait_put(t).unwrap();
    }
    // Submit eight gets, redeem them in reverse order.
    let tokens: Vec<_> = (0..8).map(|i| client.submit_get(&format!("k{i}")).unwrap()).collect();
    for (i, token) in tokens.into_iter().enumerate().rev() {
        let (value, _) = client.wait_get(token).unwrap();
        assert_eq!(value, format!("v{i}").as_bytes());
    }
    handle.shutdown();
}

#[test]
fn a_response_for_an_unknown_sequence_number_is_a_protocol_error() {
    let addr = stub_server(1, |_, mut stream| {
        stub_handshake(&mut stream);
        let frame = read_frame(&mut stream).unwrap().unwrap();
        let (seq, _) = split_seq(&frame).unwrap();
        // Answer a sequence number the client never issued.
        write_seq_frame(&mut stream, seq + 999, &Response::Pong.encode()).unwrap();
        stream.flush().unwrap();
    });
    let mut client = PipelinedClient::connect(addr).unwrap();
    let token = client.submit(&Request::Ping).unwrap();
    let err = client.wait(token).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

#[test]
fn a_duplicate_response_is_a_protocol_error() {
    let addr = stub_server(1, |_, mut stream| {
        stub_handshake(&mut stream);
        // Answer the first request's sequence number twice.
        let frame = read_frame(&mut stream).unwrap().unwrap();
        let (first_seq, _) = split_seq(&frame).unwrap();
        let frame = read_frame(&mut stream).unwrap().unwrap();
        split_seq(&frame).unwrap();
        for _ in 0..2 {
            write_seq_frame(&mut stream, first_seq, &Response::Pong.encode()).unwrap();
        }
        stream.flush().unwrap();
    });
    let mut client = PipelinedClient::connect(addr).unwrap();
    let t0 = client.submit(&Request::Ping).unwrap();
    let t1 = client.submit(&Request::Ping).unwrap();
    assert_eq!(client.wait(t0).unwrap(), Response::Pong);
    let err = client.wait(t1).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

// ---- batch partial failure ----

#[test]
fn multi_get_reports_misses_per_item() {
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    for outcome in
        client.multi_put(&[("present-a", b"1".as_ref()), ("present-b", b"2".as_ref())]).unwrap()
    {
        outcome.unwrap();
    }
    let fetched = client.multi_get(&["present-a", "missing-1", "present-b", "missing-2"]).unwrap();
    assert_eq!(fetched.len(), 4);
    assert_eq!(fetched[0].as_ref().unwrap().0, b"1");
    assert_eq!(fetched[2].as_ref().unwrap().0, b"2");
    for miss in [&fetched[1], &fetched[3]] {
        let err = miss.as_ref().unwrap_err();
        assert!(err.to_string().contains("no such object"), "{err}");
    }
    handle.shutdown();
}

#[test]
fn multi_put_reports_capacity_failures_per_item() {
    // A 4 KiB tier: small items land, the oversized one fails, and the
    // batch carries both outcomes instead of failing wholesale.
    let inst = InstanceBuilder::new("tiny", SimEnv::new(78))
        .tier(MemTier::with_capacity("t1", 4096))
        .build()
        .unwrap();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let big = vec![0u8; 64 * 1024];
    let outcomes = client
        .multi_put(&[
            ("small-1", b"x".as_ref()),
            ("too-big", big.as_slice()),
            ("small-2", b"y".as_ref()),
        ])
        .unwrap();
    assert!(outcomes[0].is_ok());
    let err = outcomes[1].as_ref().unwrap_err();
    assert!(err.to_string().contains("full"), "{err}");
    assert!(outcomes[2].is_ok(), "items after a failure still execute");
    // The successes are durable and readable.
    let fetched = client.multi_get(&["small-1", "small-2"]).unwrap();
    assert!(fetched.iter().all(|f| f.is_ok()));
    handle.shutdown();
}

#[test]
fn multi_delete_reports_missing_keys_per_item() {
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    client.multi_put(&[("a", b"1".as_ref())]).unwrap();
    let outcomes = client.multi_delete(&["a", "never-existed"]).unwrap();
    assert!(outcomes[0].is_ok());
    assert!(outcomes[1].is_err());
    handle.shutdown();
}

// ---- handshake version negotiation ----

#[test]
fn new_client_negotiates_v2_with_the_new_server() {
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let client = PipelinedClient::connect(handle.addr()).unwrap();
    assert_eq!(client.version(), VERSION);
    handle.shutdown();
}

#[test]
fn future_client_versions_clamp_down_to_v2() {
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    // Speak the hello by hand, asking for a version from the future.
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_hello(&mut stream, 99).unwrap();
    let granted = read_hello(&mut stream).unwrap();
    assert_eq!(granted, VERSION, "server must clamp, not refuse or echo");
    // The connection is live at the granted version.
    write_seq_frame(&mut stream, 1, &Request::Ping.encode()).unwrap();
    stream.flush().unwrap();
    let frame = read_frame(&mut stream).unwrap().unwrap();
    let (seq, payload) = split_seq(&frame).unwrap();
    assert_eq!(seq, 1);
    assert_eq!(Response::decode(payload).unwrap(), Response::Pong);
    handle.shutdown();
}

#[test]
fn unsatisfiable_hello_is_refused_with_granted_zero() {
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write_hello(&mut stream, 1).unwrap();
    assert_eq!(read_hello(&mut stream).unwrap(), 0, "v1-over-hello is refused");
    // ... and the server closes the connection.
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    handle.shutdown();
}

#[test]
fn new_client_meeting_v1_only_framing_errors_cleanly() {
    // A server that predates the hello reads its MAGIC as a frame length,
    // finds it above MAX_FRAME, and closes. Both clients must turn that
    // into a clean error, not a hang or a garbage decode.
    let addr = stub_server(2, |_, mut stream| {
        let mut word = [0u8; 4];
        stream.read_exact(&mut word).unwrap();
        assert!(u32::from_le_bytes(word) as usize > MAX_FRAME);
    });
    let err = PipelinedClient::connect(addr).unwrap_err();
    assert!(
        err.to_string().contains("does not speak protocol v2"),
        "error must tell the caller what went wrong: {err}"
    );
    let err = TieraClient::connect(addr).err().expect("no v2 peer, no client");
    assert!(err.to_string().contains("does not speak protocol v2"), "{err}");
}

#[test]
fn v1_server_answering_with_a_frame_is_detected() {
    // A different old-server behavior: it treats the hello as garbage and
    // answers with a bare Error frame. The frame header is not MAGIC, so
    // the client detects the version mismatch rather than mis-parsing.
    let addr = stub_server(2, |_, mut stream| {
        let mut sink = [0u8; 8];
        stream.read_exact(&mut sink).unwrap();
        let resp = Response::Error { message: "bad request".into() }.encode();
        stream.write_all(&(resp.len() as u32).to_le_bytes()).unwrap();
        stream.write_all(&resp).unwrap();
    });
    let err = PipelinedClient::connect(addr).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    let err = TieraClient::connect(addr).err().expect("no v2 peer, no client");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
}

#[test]
fn pipelined_window_batches_and_lockstep_round_trip_on_one_server() {
    // The whole plane against one live server: pipelined echo, a full
    // 128-deep window of puts and then of gets, the batch round trip with
    // a per-item miss, and the lockstep client on the same listener.
    const DEPTH: usize = 128;
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut piped = PipelinedClient::connect(handle.addr()).unwrap();
    piped.ping().unwrap();

    let puts: Vec<_> = (0..DEPTH)
        .map(|i| piped.submit_put(&format!("k{i}"), format!("v{i}").as_bytes()).unwrap())
        .collect();
    assert_eq!(piped.in_flight(), DEPTH);
    for token in puts {
        piped.wait_put(token).unwrap();
    }
    let gets: Vec<_> = (0..DEPTH).map(|i| piped.submit_get(&format!("k{i}")).unwrap()).collect();
    for (i, token) in gets.into_iter().enumerate() {
        let (value, _) = piped.wait_get(token).unwrap();
        assert_eq!(value, format!("v{i}").as_bytes(), "k{i}");
    }

    for outcome in piped.multi_put(&[("ba", b"1".as_ref()), ("bb", b"2".as_ref())]).unwrap() {
        outcome.unwrap();
    }
    let fetched = piped.multi_get(&["ba", "missing", "bb"]).unwrap();
    assert_eq!(fetched[0].as_ref().unwrap().0, b"1");
    assert!(fetched[1].is_err());
    assert_eq!(fetched[2].as_ref().unwrap().0, b"2");
    for outcome in piped.multi_delete(&["ba", "bb"]).unwrap() {
        outcome.unwrap();
    }

    let mut lockstep = TieraClient::connect(handle.addr()).unwrap();
    lockstep.ping().unwrap();
    lockstep.put("lockstep", b"ok").unwrap();
    assert_eq!(lockstep.get("lockstep").unwrap().0, b"ok");
    assert_eq!(lockstep.get("k7").unwrap().0, b"v7", "one store behind both clients");
    handle.shutdown();
}

#[test]
fn failed_connections_are_counted_and_clean_closes_are_not() {
    // One worker serves the connections in the order they arrive.
    let cfg = ServerConfig { request_threads: 1, ..ServerConfig::default() };
    let handle = TieraServer::start(instance(), "127.0.0.1:0", cfg).unwrap();
    let hello = |stream: &mut TcpStream| {
        write_hello(stream, VERSION).unwrap();
        assert_eq!(read_hello(stream).unwrap(), VERSION);
    };
    // A clean close after the hello.
    let mut clean = TcpStream::connect(handle.addr()).unwrap();
    hello(&mut clean);
    drop(clean);
    // A frame that promises 64 bytes, delivers 10, and closes.
    let mut torn = TcpStream::connect(handle.addr()).unwrap();
    hello(&mut torn);
    torn.write_all(&64u32.to_le_bytes()).unwrap();
    torn.write_all(&[0u8; 10]).unwrap();
    drop(torn);
    // An old client: a bare frame where the hello belongs.
    let mut bare = TcpStream::connect(handle.addr()).unwrap();
    bare.write_all(&1u32.to_le_bytes()).unwrap();
    bare.write_all(&Request::Ping.encode()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while handle.connection_errors() < 2 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    // The worker served the clean close before either failure.
    assert_eq!(handle.connection_errors(), 2);
    let first = handle.first_connection_error().unwrap();
    assert!(first.contains("eof mid-frame"), "{first}");
    drop(bare);
    handle.shutdown();
}

// ---- graceful shutdown with requests in flight ----

#[test]
fn shutdown_with_requests_in_flight_never_tears_a_frame() {
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    // Fill the pipe with 200 puts, get them on the wire, then shut the
    // server down while they are (potentially) still being executed.
    let tokens: Vec<_> = (0..200)
        .map(|i| client.submit_put(&format!("k{i}"), &vec![i as u8; 256]).unwrap())
        .collect();
    client.flush().unwrap();
    handle.shutdown();
    // Contract: every request gets either a complete response frame or a
    // clean EOF at a frame boundary. A torn frame would surface as
    // InvalidData (garbage decode) or an eof-mid-frame read error.
    let mut completed = 0usize;
    let mut first_error: Option<std::io::Error> = None;
    for token in tokens {
        match client.wait_put(token) {
            Ok(_) => {
                assert!(first_error.is_none(), "completion after EOF");
                completed += 1;
            }
            Err(e) => {
                if first_error.is_none() {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
                    assert!(e.to_string().contains("server closed"), "torn frame: {e}");
                    first_error = Some(e);
                }
            }
        }
    }
    // The server was mid-burst; whatever it executed, it answered.
    assert!(completed <= 200);
}

#[test]
fn responses_already_executed_are_flushed_before_close() {
    // Complete a burst fully, THEN shut down: every response must already
    // be redeemable (the writer drains its queue before the socket
    // closes).
    let inst = instance();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let tokens: Vec<_> =
        (0..50).map(|i| client.submit_put(&format!("k{i}"), b"v").unwrap()).collect();
    // Redeem the LAST token first: the server executes one connection's
    // requests in order and the writer preserves queue order, so once
    // response 49 arrives, responses 0..48 are on the wire ahead of it.
    let (last, rest) = tokens.split_last().unwrap();
    client.wait_put(*last).unwrap();
    handle.shutdown();
    for token in rest {
        client.wait_put(*token).unwrap_or_else(|e| {
            panic!("response for executed request {} lost at shutdown: {e}", token.seq())
        });
    }
}

// ---- a pipelined client that writes before it reads ----

#[test]
fn a_client_writing_ahead_of_its_reads_never_deadlocks_the_server() {
    // The GET's response and the PUTs behind it each exceed what loopback
    // buffers in both directions (Linux caps tcp_rmem at 32 MiB and
    // tcp_wmem at 4 MiB by default). A worker that wrote the response
    // itself would block on a client that is not reading yet, while that
    // client blocks writing PUTs the worker is not reading.
    const BIG: usize = 48 << 20;
    const PUTS: usize = 48;
    let inst = InstanceBuilder::new("write-ahead", SimEnv::new(79))
        .tier(MemTier::with_capacity("t1", 256 << 20))
        .build()
        .unwrap();
    let handle = TieraServer::start(inst, "127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = handle.addr();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let client = std::thread::spawn(move || {
        let run = || -> std::io::Result<usize> {
            let mut client = PipelinedClient::connect(addr)?;
            let put = client.submit_put("big", &vec![7u8; BIG])?;
            client.wait_put(put)?;
            let get = client.submit_get("big")?;
            client.flush()?;
            // Let the server start answering the GET before the PUTs land.
            std::thread::sleep(Duration::from_millis(50));
            let chunk = vec![1u8; 1 << 20];
            let puts = (0..PUTS)
                .map(|i| client.submit_put(&format!("p{i}"), &chunk))
                .collect::<std::io::Result<Vec<_>>>()?;
            let (value, _) = client.wait_get(get)?;
            for put in puts {
                client.wait_put(put)?;
            }
            Ok(value.len())
        };
        done_tx.send(run()).unwrap();
    });
    match done_rx.recv_timeout(Duration::from_secs(30)) {
        Ok(outcome) => {
            assert_eq!(outcome.unwrap(), BIG);
            client.join().unwrap();
            handle.shutdown();
        }
        Err(_) => {
            // A deadlocked worker can never be joined: leak the server
            // rather than hang the suite on its shutdown.
            std::mem::forget(handle);
            panic!("client and server deadlocked with requests and a response in flight");
        }
    }
}

// ---- torn-write wedge: read deadline + reconnect ----

#[test]
fn server_killed_mid_request_fails_the_call_and_reconnects() {
    // Connection 1: read the request, then drop the socket without
    // answering — the old client would block forever on read. Connection
    // 2: serve properly, proving the client redialed.
    let addr = stub_server(2, |i, mut stream| {
        stub_handshake(&mut stream);
        let seq = stub_read_request(&mut stream);
        if i == 0 {
            return; // killed mid-request
        }
        stub_answer(&mut stream, seq, &Response::Pong).unwrap();
    });
    let mut client = TieraClient::connect(addr).unwrap();
    assert_eq!(client.redials(), 0, "the initial dial is not a redial");
    let err = client.ping().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    assert!(!client.is_connected(), "errored connection must be poisoned");
    client.ping().unwrap();
    assert!(client.is_connected());
    assert_eq!(
        client.redials(),
        1,
        "exactly one transparent redial — the signal a retrying caller \
         must pair with an idempotency token"
    );
}

#[test]
fn half_a_response_frame_hits_the_read_deadline_not_a_wedge() {
    // Connection 1: answer with HALF a frame, then stall with the socket
    // open — the torn-write scenario from the issue. The per-request
    // deadline must fail the call; the stub holds the socket open longer
    // than the deadline to prove the client did not just see a reset.
    let addr = stub_server(2, |i, mut stream| {
        stub_handshake(&mut stream);
        let seq = stub_read_request(&mut stream);
        if i == 0 {
            let torn = &(64u32).to_le_bytes(); // promises 64 bytes...
            stream.write_all(torn).unwrap();
            stream.write_all(&seq.to_le_bytes()).unwrap();
            stream.write_all(&Response::Pong.encode()).unwrap(); // ...delivers 9
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(800));
            return;
        }
        stub_answer(&mut stream, seq, &Response::Pong).unwrap();
    });
    let mut client =
        TieraClient::connect_with_deadline(addr, Some(Duration::from_millis(250))).unwrap();
    let err = client.ping().unwrap_err();
    assert!(
        matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
        "expected a deadline error, got {err}"
    );
    // The wedge is gone: the very next call transparently reconnects.
    client.ping().unwrap();
}

#[test]
fn deadline_failure_does_not_leak_the_stale_response_into_the_next_call() {
    // Connection 1: stall past the deadline, then answer with a WRONG
    // response. Because the client poisons and redials instead of reusing
    // the socket, that late response can never be attributed to a later
    // request.
    let addr = stub_server(2, |i, mut stream| {
        stub_handshake(&mut stream);
        let seq = stub_read_request(&mut stream);
        if i == 0 {
            std::thread::sleep(Duration::from_millis(500));
            // The client may have closed by now; the write may fail.
            let _ = stub_answer(&mut stream, seq, &Response::Error { message: "stale".into() });
            return;
        }
        stub_answer(&mut stream, seq, &Response::Pong).unwrap();
    });
    let mut client =
        TieraClient::connect_with_deadline(addr, Some(Duration::from_millis(150))).unwrap();
    assert!(client.ping().is_err());
    client.ping().expect("fresh connection must not see the stale frame");
}
