//! A deterministic executor for closed-loop virtual clients.
//!
//! [`crate::SerialResource`] and [`crate::SharedBandwidth`] grant in call
//! order, so a run is a function of its seed only if the calls arrive in an
//! order the seed fixes. [`run_clients`] fixes it: one thread steps every
//! client off a min-heap keyed by `(virtual time, client id)`, so the client
//! furthest behind in virtual time always goes next and ties go to the lower
//! id.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::clock::SimTime;

/// Runs `clients` virtual clients, all ready at `start`, until each is done.
///
/// `step(id, t)` runs client `id`'s next operation starting at `t` and
/// returns the time the client is ready again, or `None` once it is done.
/// Steps run in nondecreasing `(t, id)` order.
///
/// # Panics
/// Panics if a step returns a time before the one it started at.
pub fn run_clients(
    clients: usize,
    start: SimTime,
    mut step: impl FnMut(usize, SimTime) -> Option<SimTime>,
) {
    let mut ready: BinaryHeap<Reverse<(SimTime, usize)>> =
        (0..clients).map(|id| Reverse((start, id))).collect();
    while let Some(Reverse((t, id))) = ready.pop() {
        if let Some(next) = step(id, t) {
            assert!(next >= t, "client {id} stepped back from {t} to {next}");
            ready.push(Reverse((next, id)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    #[test]
    fn steps_run_in_time_then_id_order() {
        // Client i advances by (i + 1) ms per step, five steps each.
        let mut seen = Vec::new();
        run_clients(3, SimTime::ZERO, |id, t| {
            seen.push((t, id));
            let taken = seen.iter().filter(|&&(_, c)| c == id).count();
            (taken < 5).then(|| t + SimDuration::from_millis(id as u64 + 1))
        });
        assert_eq!(seen.len(), 15);
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
        // All three start at zero; ties go to the lower id.
        assert_eq!(&seen[..3], &[(SimTime::ZERO, 0), (SimTime::ZERO, 1), (SimTime::ZERO, 2)]);
    }

    #[test]
    fn finished_client_never_delays_the_others() {
        let mut steps = [0u32; 2];
        run_clients(2, SimTime::ZERO, |id, t| {
            steps[id] += 1;
            (id == 1 && t < SimTime::from_secs(1000)).then(|| t + SimDuration::from_secs(100))
        });
        assert_eq!(steps, [1, 11]);
    }

    #[test]
    fn zero_clients_is_a_no_op() {
        run_clients(0, SimTime::ZERO, |id, _| panic!("stepped client {id}"));
    }

    #[test]
    fn a_step_returning_its_start_time_is_stepped_again() {
        // Client 0 makes no progress twice (a failed op charges nothing)
        // and keeps its turn over client 1, which is ready at the same time.
        let mut order = Vec::new();
        run_clients(2, SimTime::from_secs(1), |id, t| {
            order.push(id);
            (id == 0 && order.len() < 3).then_some(t)
        });
        assert_eq!(order, [0, 0, 0, 1]);
    }
}
