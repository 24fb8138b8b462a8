//! The `(time, insertion order)` contract, checked at the world level.
//!
//! `netsim/tests/queue_differential.rs` holds `EventQueue` to the
//! reference `BinaryHeapQueue` on generated scripts. This test holds it
//! there on the one real workload that ever told them apart: a serial
//! fat_tree:8 run, where one `KeepaliveTick` schedules thousands of
//! `EnqueueEgress` at a single instant and each of those, on an idle
//! port, pushes a same-instant `StartTx`. The two-list queue let such a
//! push overtake the part of the burst its 256-entry refill had left in
//! the far heap, so the serial fat-tree digests were artefacts of the
//! queue and not of the model.
//!
//! One `Network` is driven the way `Testbed` drives it, but by hand over
//! the reference queue; its snapshot records must equal `Testbed`'s byte
//! for byte. That makes this test the authority for the serial fat-tree
//! digest pinned in `bench/tests/noop_profile_digest.rs`.

mod common;

use fabric::network::{NetEvent, Network, SnapshotRecord};
use fabric::testbed::{Testbed, TestbedConfig};
use fabric::topology::Topology;
use fabric::Source;
use netsim::queue::reference::BinaryHeapQueue;
use netsim::sim::{Scheduler, World};
use netsim::time::{Duration, Instant};

const SEED: u64 = 9;

/// `bench_netsim --topology fat_tree:8 --seed 9` runs 40 ms; the first
/// snapshot to seal already tells the two orders apart (the two-list
/// queue sealed it at 12 481 115 ns, the reference order seals it at
/// 12 543 371 ns), so the run stops shortly after it.
const HORIZON: Duration = Duration::from_millis(13);

fn config() -> TestbedConfig {
    common::config(SEED)
}

/// `bench_netsim`'s fat-tree traffic: 100 kpps per host.
fn source(host: u32, num_hosts: u32) -> Box<dyn Source> {
    common::source(host, num_hosts, 100_000.0, SEED)
}

/// `SnapshotRecord` has no `PartialEq`; its `Debug` form names every
/// field, so equal renderings are equal records.
fn render(records: &[SnapshotRecord]) -> String {
    assert!(!records.is_empty(), "the horizon must seal a snapshot");
    format!("{records:#?}")
}

fn via_testbed(topo: Topology) -> (u64, String) {
    let num_hosts = topo.num_hosts();
    let mut tb = Testbed::new(topo, config());
    for h in 0..num_hosts {
        tb.set_source(h, Instant::ZERO, source(h, num_hosts));
    }
    tb.run_until(Instant::ZERO + HORIZON);
    (tb.events_dispatched(), render(tb.snapshots()))
}

/// `Testbed::new` + `set_source` + `Simulation::run_until`, spelled out
/// over the reference queue: the same initial events in the same order,
/// the handler run into a parked trampoline whose follow-ups are
/// forwarded in the order it drains them.
fn via_reference_queue(topo: Topology) -> (u64, String) {
    let cfg = config();
    let num_hosts = topo.num_hosts();
    let mut net = Network::new(
        topo,
        cfg.snapshot,
        cfg.lb,
        cfg.latency,
        cfg.driver.clone(),
        cfg.queue_capacity_bytes,
        cfg.seed,
    );
    let mut queue: BinaryHeapQueue<NetEvent> = BinaryHeapQueue::new();
    queue.push(Instant::ZERO, NetEvent::ObserverTick);
    if cfg.driver.keepalive_period.is_some() {
        queue.push(Instant::ZERO, NetEvent::KeepaliveTick);
    }
    if let Some(first) = cfg.driver.snapshot_period {
        queue.push(Instant::ZERO + first, NetEvent::ScheduleSnapshot);
    }
    if let Some(first) = cfg.driver.poll_period {
        queue.push(Instant::ZERO + first, NetEvent::PollSweep);
    }
    for h in 0..num_hosts {
        net.set_source(h, source(h, num_hosts));
        queue.push(Instant::ZERO, NetEvent::HostWake { host: h });
    }

    let deadline = Instant::ZERO + HORIZON;
    let mut tramp: Scheduler<NetEvent> = Scheduler::parked_at(Instant::ZERO);
    while let Some((now, ev)) = queue.pop_at_or_before(deadline) {
        tramp.repark(now);
        net.handle(now, ev, &mut tramp);
        while let Some((at, follow_up)) = tramp.drain_next() {
            queue.push(at, follow_up);
        }
    }
    (queue.popped(), render(&net.instr.snapshots))
}

#[test]
fn serial_fat_tree_run_matches_the_reference_queue_order() {
    let (events, records) = via_testbed(Topology::fat_tree(8));
    let (ref_events, ref_records) = via_reference_queue(Topology::fat_tree(8));
    assert_eq!(events, ref_events, "event counts differ");
    assert!(
        records == ref_records,
        "snapshot records differ between EventQueue and BinaryHeapQueue order"
    );
}
