//! The sharded engine's panic contract: a world that panics in `dispatch`
//! unwinds out of `run_until` with its own message, and the simulation it
//! unwound through is still usable afterwards.

use netsim::shard::{pack_key, Emit, ShardWorld, ShardedSim};
use netsim::sim::RunOutcome;
use netsim::time::{Duration, Instant};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Swallows tokens; panics on each while armed.
struct Tripwire {
    armed: bool,
}

impl ShardWorld for Tripwire {
    type Event = u32;

    fn dispatch(&mut self, _now: Instant, id: u32, _out: &mut Vec<Emit<u32>>) {
        assert!(!self.armed, "token {id} tripped the wire");
    }
}

#[test]
fn dispatch_panic_unwinds_with_its_message_and_sim_survives() {
    let worlds = vec![Tripwire { armed: false }, Tripwire { armed: true }];
    let mut sim = ShardedSim::new(worlds, Duration::from_nanos(100));
    sim.inject(1, Instant::ZERO, pack_key(2, 0), 4);
    sim.inject(0, Instant::from_nanos(500), pack_key(2, 1), 5);
    let deadline = Instant::from_nanos(10_000);
    let err = catch_unwind(AssertUnwindSafe(|| sim.run_until(deadline)))
        .expect_err("the armed shard must blow up");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("token 4 tripped the wire"), "got: {msg}");
    // Nothing is left half-done: the second token is still queued and
    // the same simulation runs it to completion.
    assert_eq!(sim.pending(), 1);
    sim.world_mut(1).armed = false;
    assert!(matches!(sim.run_until(deadline), RunOutcome::Drained));
    assert_eq!(sim.events_dispatched(), 2);
}
