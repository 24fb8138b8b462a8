//! Stepping a `Testbed` is the same run.
//!
//! `Testbed::run_until` is resumable: a caller that wants to look at the
//! world while it runs (Fig. 10's rate probes watch a drop counter and
//! stop at the first drop) advances it in slices. That is only sound if
//! the slices add up to exactly the run one call would have made — the
//! same events in the same order, with nothing keyed to where a call
//! happened to stop. `netsim`'s `deadline_stops_and_parks_clock` shows it
//! for a toy world on `Simulation`; this holds the real `Network` to it,
//! through the testbed, on `bench_netsim --scenario smoke`'s world: the
//! paper's leaf-spine under dense traffic, channel-state snapshots every
//! 4 ms, 8 ms.

mod common;

use fabric::testbed::Testbed;
use fabric::topology::Topology;
use netsim::time::{Duration, Instant};

const SEED: u64 = 9;
const HORIZON: Duration = Duration::from_millis(8);

fn smoke_world() -> Testbed {
    let topo = Topology::leaf_spine(2, 2, 3);
    let num_hosts = topo.num_hosts();
    let mut tb = Testbed::new(topo, common::config(SEED));
    for h in 0..num_hosts {
        let source = common::source(h, num_hosts, 600_000.0, SEED);
        tb.set_source(h, Instant::ZERO, source);
    }
    tb
}

/// Everything a run leaves behind that a caller can read. `SnapshotRecord`
/// has no `PartialEq`; its `Debug` form names every field.
fn outcome(mut tb: Testbed) -> (Instant, u64, usize, String, String) {
    assert!(
        !tb.snapshots().is_empty(),
        "the horizon must seal a snapshot"
    );
    (
        tb.now(),
        tb.events_dispatched(),
        tb.pending(),
        format!("{:#?}", tb.snapshots()),
        tb.export_metrics(),
    )
}

#[test]
fn one_millisecond_steps_make_the_run_one_call_makes() {
    let mut whole = smoke_world();
    whole.run_until(Instant::ZERO + HORIZON);

    let mut stepped = smoke_world();
    let mut t = Instant::ZERO;
    while t < Instant::ZERO + HORIZON {
        t += Duration::from_millis(1);
        stepped.run_until(t);
        assert_eq!(stepped.now(), t, "the clock parks at each deadline");
    }

    let (whole, stepped) = (outcome(whole), outcome(stepped));
    assert_eq!(whole.0, stepped.0, "clock");
    assert_eq!(whole.1, stepped.1, "events dispatched");
    assert_eq!(whole.2, stepped.2, "events pending");
    assert!(whole.3 == stepped.3, "snapshot records differ");
    assert!(whole.4 == stepped.4, "exported metrics differ");
}
