//! The closed-loop load generator: one thread, one request outstanding
//! (sixteen on the pipelined workload), every read checked.

use std::collections::VecDeque;
use std::time::Instant;

use tiera_rpc::proto::Response;
use tiera_rpc::Token;

use crate::measure::{peak_rss_mib, percentile, process_cpu_ns};
use crate::stream::{Op, Stream, FULL_CHECK_EVERY, MULTI_GET_KEYS};
use crate::sut::{Counters, Got, ReadResult, Sut};
use crate::trace::Tracer;

/// Requests the pipelined client keeps in flight: fill to the window, then
/// redeem half of it, so the next refill's submits coalesce into one write.
pub const PIPE_WINDOW: usize = 16;

/// Running totals of what the generator has asked for and got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted (a `multi_get` is one per key).
    pub attempted: u64,
    /// Of those: an `Err`, a missing key, or bytes that differ from the oracle.
    pub failed: u64,
    /// Stream ops completed (the sweep is not part of the stream).
    pub ops: u64,
    /// Stream PUTs completed.
    pub puts: u64,
    /// Stream reads completed, per key.
    pub gets: u64,
    /// Simulated latency charged to those reads, ns.
    pub sim_get_ns: u64,
}

/// What one slice measured. Latencies are around the public call, µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SliceStat {
    /// Stream ops per wall-clock second.
    pub ops_per_s: f64,
    /// Process CPU, all threads, per stream op, µs.
    pub cpu_us_per_op: f64,
    /// Median GET latency.
    pub get_p50_us: f64,
    /// 95th percentile GET latency.
    pub get_p95_us: f64,
    /// Median PUT latency.
    pub put_p50_us: f64,
    /// 95th percentile PUT latency.
    pub put_p95_us: f64,
}

/// A run of consecutive slices.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Per-slice measurements.
    pub slices: Vec<SliceStat>,
    /// Stream ops completed in the phase.
    pub ops: u64,
    /// Totals and program counters when the phase began.
    pub start: (Tally, Counters),
    /// The same at the checkpoint, if the phase reached it.
    pub checkpoint: Option<(Tally, Counters)>,
    /// Peak resident set (`VmHWM`) at the checkpoint, MiB: after a fixed
    /// number of ops, however many more the run's seconds allow.
    pub checkpoint_peak_rss_mib: f64,
}

/// Drives one [`Sut`] with one [`Stream`].
pub struct Driver {
    /// The stack.
    pub sut: Sut,
    /// Its inputs and oracle.
    pub stream: Stream,
    /// Totals so far.
    pub tally: Tally,
    /// First failure seen, for the report.
    pub first_error: Option<String>,
    /// Spans, while a traced phase runs.
    pub tracer: Option<Tracer>,
    /// Every GET / PUT latency (ns) since it was set to `Some`; tails need
    /// more samples than a slice holds.
    pub all_latencies: Option<(Vec<u32>, Vec<u32>)>,
    get_ns: Vec<u32>,
    put_ns: Vec<u32>,
    buf: Vec<u8>,
    scratch: Vec<u8>,
    checks: u64,
    inflight: VecDeque<InFlight>,
}

/// Interprets a pipelined response as a read.
fn as_read(resp: Response) -> ReadResult {
    match resp {
        Response::GetOk {
            value, latency_ns, ..
        } => Ok((Got::Owned(value), latency_ns)),
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response to a get: {other:?}")),
    }
}

/// Interprets a pipelined response as a write acknowledgement.
fn as_write(resp: Response) -> Result<u64, String> {
    match resp {
        Response::PutOk { latency_ns } => Ok(latency_ns),
        Response::Error { message } => Err(message),
        other => Err(format!("unexpected response to a put: {other:?}")),
    }
}

/// A pipelined request in flight.
struct InFlight {
    /// Redeems the response.
    token: Token,
    /// The key it touched.
    key: u32,
    /// For a read, the stamp the reply must carry.
    expect: Option<u32>,
    /// When `submit` was called.
    submitted: Instant,
    /// When `submit` returned.
    submit_end: Instant,
    /// When generation of the op began (traced runs).
    gen_start: Instant,
}

fn ns_between(a: Instant, b: Instant) -> u32 {
    b.duration_since(a).as_nanos().min(u32::MAX as u128) as u32
}

impl Driver {
    /// A driver over a freshly set-up stack.
    pub fn new(sut: Sut, stream: Stream) -> Self {
        Self {
            sut,
            stream,
            tally: Tally::default(),
            first_error: None,
            tracer: None,
            all_latencies: None,
            get_ns: Vec::new(),
            put_ns: Vec::new(),
            buf: Vec::new(),
            scratch: Vec::new(),
            checks: 0,
            inflight: VecDeque::with_capacity(PIPE_WINDOW),
        }
    }

    fn fail(&mut self, what: String) {
        self.tally.failed += 1;
        self.first_error.get_or_insert(what);
    }

    /// Checks one read against the oracle; returns the simulated latency of
    /// a correct one.
    fn verify_read(&mut self, key: u32, expect: u32, result: ReadResult) -> Option<u64> {
        self.tally.attempted += 1;
        match result {
            Err(e) => {
                self.fail(format!("get key {key}: {e}"));
                None
            }
            Ok((got, sim_ns)) => {
                let full = self.checks.is_multiple_of(FULL_CHECK_EVERY);
                self.checks += 1;
                if self
                    .stream
                    .check(key, expect, got.as_slice(), full, &mut self.scratch)
                {
                    Some(sim_ns)
                } else {
                    self.fail(format!("get key {key}: bytes differ from stamp {expect}"));
                    None
                }
            }
        }
    }

    /// Counts one write; `true` if it was acknowledged.
    fn verify_write(&mut self, key: u32, result: Result<u64, String>) -> bool {
        self.tally.attempted += 1;
        match result {
            Ok(_) => {
                self.tally.puts += 1;
                true
            }
            Err(e) => {
                self.fail(format!("put key {key}: {e}"));
                false
            }
        }
    }

    fn count_read(&mut self, sim_ns: u64) {
        self.tally.gets += 1;
        self.tally.sim_get_ns += sim_ns;
    }

    /// Records the spans of one synchronous op: `gen` from `gen_start` to
    /// `call_start`, the call, and `verify` from `call_end` to now.
    fn trace_op(
        &mut self,
        gen_start: Option<Instant>,
        call: &'static str,
        call_start: Instant,
        call_end: Instant,
    ) {
        if let (Some(tracer), Some(gen_start)) = (&mut self.tracer, gen_start) {
            let end = Instant::now();
            let root = tracer.root(gen_start, end);
            tracer.child(root, "gen", gen_start, call_start);
            tracer.child(root, call, call_start, call_end);
            tracer.child(root, "verify", call_end, end);
        }
    }

    /// Generates and executes the next op of the stream.
    pub fn step(&mut self) {
        if self.sut.pipelined().is_some() {
            self.step_pipelined();
        } else {
            self.step_sync();
        }
    }

    fn step_sync(&mut self) {
        let gen_start = self.tracer.as_ref().map(|_| Instant::now());
        let op = self.stream.next_op();
        match op {
            Op::Get(key) => {
                let expect = self.stream.stamp(key);
                let t0 = Instant::now();
                let result = self.sut.get(key, &self.stream);
                let t1 = Instant::now();
                if let Some(sim_ns) = self.verify_read(key, expect, result) {
                    self.count_read(sim_ns);
                    self.get_ns.push(ns_between(t0, t1));
                }
                self.trace_op(gen_start, self.sut.get_span(), t0, t1);
            }
            Op::Put(key) => {
                self.stream.fill(key, self.stream.stamp(key), &mut self.buf);
                let t0 = Instant::now();
                let result = self.sut.put(key, &self.stream, &self.buf);
                let t1 = Instant::now();
                if self.verify_write(key, result) {
                    self.put_ns.push(ns_between(t0, t1));
                }
                self.trace_op(gen_start, self.sut.put_span(), t0, t1);
            }
            Op::MultiGet(keys) => {
                let expect: [u32; MULTI_GET_KEYS] = keys.map(|k| self.stream.stamp(k));
                let t0 = Instant::now();
                let results = match self.sut.multi_get(&keys, &self.stream) {
                    Some(results) => results,
                    None => keys
                        .iter()
                        .map(|&k| self.sut.get(k, &self.stream))
                        .collect(),
                };
                let t1 = Instant::now();
                // One call, sixteen ops: its latency is not a GET sample
                // (the ladder reports `cluster.multi_get16.call_ns`).
                for ((key, expect), result) in keys.into_iter().zip(expect).zip(results) {
                    if let Some(sim_ns) = self.verify_read(key, expect, result) {
                        self.count_read(sim_ns);
                    }
                }
                self.trace_op(gen_start, "call.cluster.coordinator.multi_get", t0, t1);
            }
        }
        self.tally.ops += op.weight();

        let pump_start = (self.sut.pump_due() && self.tracer.is_some()).then(Instant::now);
        if let Err(e) = self.sut.after_op() {
            self.tally.attempted += 1;
            self.fail(format!("pump: {e}"));
        }
        if let (Some(tracer), Some(start)) = (&mut self.tracer, pump_start) {
            let end = Instant::now();
            let root = tracer.root(start, end);
            tracer.child(root, "call.core.instance.pump", start, end);
        }
    }

    fn step_pipelined(&mut self) {
        let gen_start = Instant::now();
        let (key, expect) = match self.stream.next_op() {
            Op::Get(key) => (key, Some(self.stream.stamp(key))),
            Op::Put(key) => {
                self.stream.fill(key, self.stream.stamp(key), &mut self.buf);
                (key, None)
            }
            Op::MultiGet(_) => unreachable!("the pipelined workload's shape has no multi_get"),
        };
        let client = self.sut.pipelined().expect("checked by step");
        let name = &self.stream.names[key as usize];
        let submitted = Instant::now();
        let token = match expect {
            Some(_) => client.submit_get(name),
            None => client.submit_put(name, &self.buf),
        };
        match token {
            Ok(token) => self.inflight.push_back(InFlight {
                token,
                key,
                expect,
                gen_start,
                submitted,
                submit_end: Instant::now(),
            }),
            Err(e) => {
                self.tally.attempted += 1;
                self.tally.ops += 1;
                self.fail(format!("submit key {key}: {e}"));
            }
        }
        if self.inflight.len() >= PIPE_WINDOW {
            for _ in 0..PIPE_WINDOW / 2 {
                self.redeem();
            }
        }
    }

    /// Waits for the oldest request in flight and checks its reply. The op's
    /// latency runs from its `submit` to this `wait`'s return.
    fn redeem(&mut self) {
        let Some(f) = self.inflight.pop_front() else {
            return;
        };
        let client = self
            .sut
            .pipelined()
            .expect("only the pipelined path submits");
        let wait_start = Instant::now();
        let response = client.wait(f.token).map_err(|e| e.to_string());
        let wait_end = Instant::now();
        let latency = ns_between(f.submitted, wait_end);
        match f.expect {
            Some(stamp) => {
                if let Some(sim_ns) = self.verify_read(f.key, stamp, response.and_then(as_read)) {
                    self.count_read(sim_ns);
                    self.get_ns.push(latency);
                }
            }
            None => {
                if self.verify_write(f.key, response.and_then(as_write)) {
                    self.put_ns.push(latency);
                }
            }
        }
        self.tally.ops += 1;
        if let Some(tracer) = &mut self.tracer {
            let end = Instant::now();
            let root = tracer.root(f.gen_start, end);
            tracer.child(root, "gen", f.gen_start, f.submitted);
            tracer.child(root, "call.rpc.client.submit", f.submitted, f.submit_end);
            tracer.child(root, "call.rpc.client.wait", wait_start, wait_end);
            tracer.child(root, "verify", wait_end, end);
        }
    }

    /// Runs stream ops until `slice_ops` more have completed.
    pub fn run_slice(&mut self, slice_ops: u64) -> SliceStat {
        self.get_ns.clear();
        self.put_ns.clear();
        let from = self.tally.ops;
        let cpu_start = process_cpu_ns();
        let start = Instant::now();
        while self.tally.ops - from < slice_ops {
            self.step();
        }
        let wall = start.elapsed().as_secs_f64();
        // Saturating: a thread of this process that exits mid-slice takes its
        // time with it (the harness starts none; a test harness does).
        let cpu_ns = process_cpu_ns().saturating_sub(cpu_start);
        let done = (self.tally.ops - from) as f64;
        if let Some((gets, puts)) = &mut self.all_latencies {
            gets.extend(&self.get_ns);
            puts.extend(&self.put_ns);
        }
        self.get_ns.sort_unstable();
        self.put_ns.sort_unstable();
        let us = |sorted: &[u32], p: f64| percentile(sorted, p) / 1e3;
        SliceStat {
            ops_per_s: done / wall,
            cpu_us_per_op: cpu_ns as f64 / 1e3 / done,
            get_p50_us: us(&self.get_ns, 0.50),
            get_p95_us: us(&self.get_ns, 0.95),
            put_p50_us: us(&self.put_ns, 0.50),
            put_p95_us: us(&self.put_ns, 0.95),
        }
    }

    /// Runs slices until `seconds` have passed and at least `min_slices` have
    /// run, reading the program's counters at slice `checkpoint`.
    pub fn run_phase(
        &mut self,
        slice_ops: u64,
        seconds: f64,
        min_slices: u64,
        checkpoint: u64,
    ) -> Phase {
        let mut phase = Phase {
            start: (self.tally, self.sut.counters()),
            ..Phase::default()
        };
        let start = Instant::now();
        while (phase.slices.len() as u64) < min_slices || start.elapsed().as_secs_f64() < seconds {
            phase.slices.push(self.run_slice(slice_ops));
            if phase.slices.len() as u64 == checkpoint {
                phase.checkpoint = Some((self.tally, self.sut.counters()));
                phase.checkpoint_peak_rss_mib = peak_rss_mib();
            }
        }
        phase.ops = self.tally.ops - phase.start.0.ops;
        phase
    }

    /// Redeems everything still in flight.
    pub fn drain(&mut self) {
        while !self.inflight.is_empty() {
            self.redeem();
        }
    }

    /// Reads every key back and checks it against the oracle's final state.
    pub fn sweep(&mut self) {
        self.drain();
        for key in 0..self.stream.shape().keys {
            let expect = self.stream.stamp(key);
            let result = self.sut.get(key, &self.stream);
            self.verify_read(key, expect, result);
        }
    }
}
