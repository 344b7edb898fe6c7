//! Routing: the membership a route is read from, and the owners and
//! old-ring fallbacks of one key as positions into a handle snapshot.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::node::ClusterNode;
use crate::ring::Ring;

use super::rebalance::{RebalanceReport, RebalanceRun};
use super::{ClusterError, Coordinator, Handles};

/// How many values a [`Few`] holds in place.
const FEW: usize = 8;

/// Values held in place up to [`FEW`], on the heap beyond: a key's owners
/// and old-ring fallbacks, or their acknowledgements, cost no allocation
/// while R ≤ 4.
pub(super) enum Few<T> {
    Inline(usize, [T; FEW]),
    Heap(Vec<T>),
}

impl<T: Copy + Default> Few<T> {
    pub(super) fn new() -> Self {
        Few::Inline(0, [T::default(); FEW])
    }

    pub(super) fn push(&mut self, value: T) {
        match self {
            Few::Inline(len, buf) if *len < FEW => {
                buf[*len] = value;
                *len += 1;
            }
            Few::Inline(_, buf) => {
                let mut heap = buf.to_vec();
                heap.push(value);
                *self = Few::Heap(heap);
            }
            Few::Heap(heap) => heap.push(value),
        }
    }
}

impl<T> Deref for Few<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            Few::Inline(len, buf) => &buf[..*len],
            Few::Heap(heap) => heap,
        }
    }
}

impl<T> DerefMut for Few<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            Few::Inline(len, buf) => &mut buf[..*len],
            Few::Heap(heap) => heap,
        }
    }
}

/// Where one key's bytes may be, as positions into a [`Handles`]
/// snapshot: its current owners first, then the old-ring owners that a
/// rebalance in flight has not drained yet.
pub(super) struct Route {
    pub(super) order: Few<usize>,
    pub(super) owners: usize,
}

impl Route {
    /// Rotates the owners so the one at `start` is probed first; ring
    /// order is kept from there on.
    pub(super) fn start_at(&mut self, start: usize) {
        self.order[..self.owners].rotate_left(start);
    }

    /// The current owners, in probe order.
    pub(super) fn owners(&self) -> &[usize] {
        &self.order[..self.owners]
    }
}

pub(super) struct Membership {
    pub(super) ring: Ring,
    /// The handle position of each `ring` vnode point's owner, so a route
    /// walks integers instead of comparing names. Rebuilt by
    /// [`Membership::reindex`] after every change to a ring or to `nodes`.
    pub(super) points: Vec<usize>,
    pub(super) nodes: Handles,
    pub(super) rebalance: Option<RebalanceRun>,
    pub(super) last_report: Option<RebalanceReport>,
}

impl Coordinator {
    /// The handle snapshot and [`Route`] for `key`, taken out of the ring
    /// lock — node IO never happens under it.
    pub(super) fn route(&self, key: &str) -> Result<(Handles, Route), ClusterError> {
        let mem = self.membership.read();
        if mem.ring.is_empty() {
            return Err(ClusterError::NoMembers);
        }
        Ok((Arc::clone(&mem.nodes), mem.route(key, self.replicas)))
    }
}

impl Membership {
    /// Resolves the owner of every vnode point, of the ring and of a
    /// rebalance's old ring, to its handle position.
    pub(super) fn reindex(&mut self) {
        let nodes = &self.nodes;
        let resolve = |ring: &Ring| -> Vec<usize> {
            ring.point_owners()
                .map(|name| position(nodes, name).expect("every ring member has a handle"))
                .collect()
        };
        self.points = resolve(&self.ring);
        if let Some(run) = &mut self.rebalance {
            run.old_points = resolve(&run.old_ring);
        }
    }

    /// `key`'s owners, and during a rebalance its old-ring owners, as
    /// handle positions. Nothing is cloned, and under R ≤ 4 nothing is
    /// allocated.
    pub(super) fn route(&self, key: &str, replicas: usize) -> Route {
        let mut order = Few::new();
        owners_into(&self.ring, &self.points, key, replicas, &mut order);
        let owners = order.len();
        if let Some(run) = &self.rebalance {
            let mut old = Few::new();
            owners_into(&run.old_ring, &run.old_points, key, replicas, &mut old);
            for &pos in old.iter() {
                if !order[..owners].contains(&pos) {
                    order.push(pos);
                }
            }
        }
        Route { order, owners }
    }
}

/// Pushes onto an empty `out` what [`Ring::owners_iter`] yields, as handle
/// positions: `points` holds the position of each of `ring`'s point
/// owners, so the walk compares integers.
fn owners_into(ring: &Ring, points: &[usize], key: &str, replicas: usize, out: &mut Few<usize>) {
    let want = replicas.min(ring.len());
    let (before, from) = points.split_at(ring.first_point(key));
    for &pos in from.iter().chain(before) {
        if out.len() == want {
            break;
        }
        if !out.contains(&pos) {
            out.push(pos);
        }
    }
}

/// Position of `name` in `handles`, which are sorted by name.
pub(super) fn position(handles: &[Arc<ClusterNode>], name: &str) -> Option<usize> {
    handles.binary_search_by(|h| h.name().cmp(name)).ok()
}

pub(super) fn find<'a>(
    handles: &'a [Arc<ClusterNode>],
    name: &str,
) -> Option<&'a Arc<ClusterNode>> {
    position(handles, name).map(|i| &handles[i])
}
