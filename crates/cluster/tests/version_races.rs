//! The lost-write races a write version settles, each staged by
//! holding one owner's store part way: the owner's tier parks the PUT's
//! placement guard — which runs after the PUT has replaced its record and
//! before it writes any byte — until the test releases it.
//!
//! * **Read against write.** A read that finds the owners the write has
//!   reached ahead of the metadata passes over them; it never writes the
//!   older version back over them.
//! * **Write against write.** Two writers landing at the owners in either
//!   order leave every owner at the higher version, so once both have
//!   acknowledged, every read returns it.
//! * **Sweep against write.** A rejoin sweep purges only the copies of
//!   writes that failed, never one of a write still in flight, whose
//!   acknowledgement counts it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

use tiera_cluster::{ClusterError, ClusterNode, Coordinator};
use tiera_core::prelude::*;
use tiera_core::tier::RequestCounts;
use tiera_sim::SimEnv;
use tiera_support::sync::Mutex;
use tiera_support::Bytes;

/// A durable memory tier whose next `would_overflow` call, once armed,
/// reports on `parked` and waits for `release`.
struct Parking {
    inner: Arc<MemTier>,
    armed: AtomicBool,
    parked: Sender<()>,
    release: Mutex<Receiver<()>>,
}

/// The test's ends of a [`Parking`] tier: where it reports, and what
/// releases it.
struct Gate {
    parked: Receiver<()>,
    release: Sender<()>,
}

impl Parking {
    fn new(name: &str) -> (Arc<Self>, Gate) {
        let (parked_tx, parked) = channel();
        let (release, release_rx) = channel();
        let inner = MemTier::with_traits(
            name,
            64 << 20,
            TierTraits { durable: true, ..TierTraits::default() },
        );
        let tier = Arc::new(Self {
            inner,
            armed: AtomicBool::new(false),
            parked: parked_tx,
            release: Mutex::new(release_rx),
        });
        (tier, Gate { parked, release })
    }
}

impl Tier for Parking {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn tier_traits(&self) -> TierTraits {
        self.inner.tier_traits()
    }
    fn capacity(&self, now: SimTime) -> u64 {
        self.inner.capacity(now)
    }
    fn used(&self) -> u64 {
        self.inner.used()
    }
    fn put(&self, key: &ObjectKey, data: Bytes, now: SimTime) -> Result<OpReceipt> {
        self.inner.put(key, data, now)
    }
    fn get(&self, key: &ObjectKey, now: SimTime) -> Result<(Bytes, OpReceipt)> {
        self.inner.get(key, now)
    }
    fn delete(&self, key: &ObjectKey, now: SimTime) -> Result<OpReceipt> {
        self.inner.delete(key, now)
    }
    fn contains(&self, key: &ObjectKey) -> bool {
        self.inner.contains(key)
    }
    fn grow(&self, percent: f64, now: SimTime) -> SimTime {
        self.inner.grow(percent, now)
    }
    fn shrink(&self, percent: f64, now: SimTime) {
        self.inner.shrink(percent, now)
    }
    fn request_counts(&self) -> RequestCounts {
        self.inner.request_counts()
    }
    fn would_overflow(&self, bytes: u64, now: SimTime) -> bool {
        if self.armed.swap(false, Ordering::SeqCst) {
            self.parked.send(()).unwrap();
            self.release.lock().recv().unwrap();
        }
        self.inner.would_overflow(bytes, now)
    }
}

/// A cluster member, its tier and the test's ends of that tier.
type Member = (Arc<ClusterNode>, Arc<Parking>, Gate);

/// `replicas` nodes, R = `replicas`, W = 2, each storing into its own
/// [`Parking`] tier through a PUT rule that checks the tier's room before
/// it stores.
fn cluster(replicas: usize) -> (Arc<Coordinator>, Vec<Member>) {
    let coord = Arc::new(Coordinator::new(replicas, 2));
    let nodes = (0..replicas as u64)
        .map(|i| {
            let name = format!("node-{i}");
            let (tier, gate) = Parking::new("t1");
            let inst = InstanceBuilder::new(name.as_str(), SimEnv::new(40 + i))
                .tier(Arc::clone(&tier))
                .rule(
                    Rule::on(EventKind::action(ActionOp::Put))
                        .respond(ResponseSpec::If {
                            guard: Guard::tier_filled("t1"),
                            then: Vec::new(),
                        })
                        .respond(ResponseSpec::store(Selector::Inserted, ["t1"])),
                )
                .build()
                .unwrap();
            let node = ClusterNode::new(name, inst);
            coord.add_node(Arc::clone(&node)).unwrap();
            (node, tier, gate)
        })
        .collect();
    (coord, nodes)
}

/// Key `k`'s owners in ring order, each with its tier and gate.
fn owners<'a>(coord: &Coordinator, nodes: &'a [Member]) -> Vec<&'a Member> {
    coord
        .owner_names("k")
        .iter()
        .map(|name| nodes.iter().find(|(n, _, _)| n.name() == name).unwrap())
        .collect()
}

/// What an owner's own instance holds for `k`.
fn held(node: &ClusterNode) -> Vec<u8> {
    node.instance().get("k", SimTime::ZERO).unwrap().0.to_vec()
}

#[test]
fn a_read_racing_a_write_never_writes_an_owner_back() {
    let t = SimTime::ZERO;
    let (coord, nodes) = cluster(3);
    coord.put("k", Bytes::from(&b"v1"[..]), t).unwrap();
    let owners = owners(&coord, &nodes);
    // The write of v2 holds at the last owner, the first two done.
    let (_, last_tier, last_gate) = owners[2];
    last_tier.armed.store(true, Ordering::SeqCst);
    let writer = {
        let coord = Arc::clone(&coord);
        std::thread::spawn(move || coord.put("k", Bytes::from(&b"v2"[..]), t))
    };
    last_gate.parked.recv().unwrap();
    // The read starts at the first owner. It may serve v1 or refuse,
    // but not write v1 back over the owners v2 has reached.
    match coord.get("k", t) {
        Ok((data, _)) => assert_eq!(&data[..], b"v1"),
        Err(e) => assert!(matches!(e, ClusterError::NoFreshReplica { .. }), "{e}"),
    }
    last_gate.release.send(()).unwrap();
    writer.join().unwrap().unwrap();
    for (node, _, _) in &owners {
        assert_eq!(held(node), b"v2", "{} holds the older value", node.name());
    }
    let (data, _) = coord.get("k", t).unwrap();
    assert_eq!(&data[..], b"v2");
}

#[test]
fn two_racing_writes_settle_every_owner_on_the_higher_version() {
    let t = SimTime::ZERO;
    let (coord, nodes) = cluster(4);
    coord.put("k", Bytes::from(&b"v0"[..]), t).unwrap();
    let owners = owners(&coord, &nodes);
    // Write `a` takes its version first, lands at the first owner and
    // holds at the second. Write `b` takes a later one and lands at the
    // last two while the first two are cut off (an owner does not let a
    // PUT replace one it is still placing). Then `a` goes on and reaches
    // the last two after `b`.
    let (second, second_tier, second_gate) = owners[1];
    second_tier.armed.store(true, Ordering::SeqCst);
    let a = {
        let coord = Arc::clone(&coord);
        std::thread::spawn(move || coord.put("k", Bytes::from(&b"a"[..]), t))
    };
    second_gate.parked.recv().unwrap();
    let first = &owners[0].0;
    first.set_partitioned(true);
    second.set_partitioned(true);
    coord.put("k", Bytes::from(&b"b"[..]), t).unwrap();
    first.set_partitioned(false);
    second.set_partitioned(false);
    second_gate.release.send(()).unwrap();
    a.join().unwrap().unwrap();
    // Both acknowledged; `b` holds the higher version. Eight reads start
    // at every owner twice, and repair the two `b` skipped.
    for read in 0..8 {
        let (data, _) = coord.get("k", t).unwrap_or_else(|e| panic!("read {read}: {e}"));
        assert_eq!(&data[..], b"b", "read {read}");
    }
    for (node, _, _) in &owners {
        assert_eq!(held(node), b"b", "{}", node.name());
    }
}

#[test]
fn a_rejoin_leaves_a_write_in_flight_alone_beside_a_failed_one() {
    let t = SimTime::ZERO;
    let (coord, nodes) = cluster(4);
    coord.put("k", Bytes::from(&b"v0"[..]), t).unwrap();
    let owners = owners(&coord, &nodes);
    let [first, second, third, fourth] = [0, 1, 2, 3].map(|i| &owners[i].0);
    let (_, second_tier, second_gate) = owners[1];
    // Write `a` lands at the first owner and holds at the second.
    second_tier.armed.store(true, Ordering::SeqCst);
    let a = {
        let coord = Arc::clone(&coord);
        std::thread::spawn(move || coord.put("k", Bytes::from(&b"a"[..]), t))
    };
    second_gate.parked.recv().unwrap();
    // Write `f`, with a later version, reaches only the third owner and
    // fails its quorum; the fourth still holds the served `v0`.
    first.set_partitioned(true);
    second.kill();
    fourth.kill();
    assert!(coord.put("k", Bytes::from(&b"f"[..]), t).is_err());
    first.set_partitioned(false);
    fourth.revive();
    // The first owner's copy of `a` is ahead of the served version and
    // behind the failed one, but it is no failed write's copy: the sweep
    // leaves it, though the fourth owner could merge `v0` over it.
    coord.rejoin(first.name(), t).unwrap();
    assert_eq!(held(first), b"a");
    second.revive();
    second_gate.release.send(()).unwrap();
    a.join().unwrap().unwrap();
    // `a` is acknowledged, and the copies it counted serve it with the
    // third owner, which holds the failed write's copy, down.
    third.kill();
    for read in 0..4 {
        let (data, _) = coord.get("k", t).unwrap_or_else(|e| panic!("read {read}: {e}"));
        assert_eq!(&data[..], b"a", "read {read}");
    }
    // Back up, it is purged and repaired by the read that probes it.
    third.revive();
    for _ in 0..4 {
        coord.get("k", t).unwrap();
    }
    assert_eq!(held(third), b"a");
}
