//! The egress transmitter's timeline and its event cost.
//!
//! A port costs no event while its wire is idle: a packet enqueued on an
//! idle port starts transmitting inside its `EnqueueEgress`, and a port
//! with packets queued behind the frame on the wire wakes once, at that
//! frame's `busy_until` (`TxDone`), re-arming only while more are queued.
//! These are what the benchmark's fabric workloads measure.
//!
//! Each case places packets by hand on switch 0's port toward switch 1
//! of a two-switch line and reads two things: the instants the packets
//! reach switch 1's ingress, and `events_dispatched()`. Snapshots are
//! disabled on both switches and keepalives are off, so no unit adds a
//! shim or exports a notification; the packets are addressed to a host
//! that does not exist, so switch 1 drops each one after its ingress.
//! Every dispatched event is then a placed one, a `TxDone` wake, a peer
//! arrival, or the one `ObserverTick` `Testbed::new` places at zero.

use fabric::network::NetEvent;
use fabric::switchmod::QueuedPacket;
use fabric::testbed::{Testbed, TestbedConfig};
use fabric::topology::{LinkProps, Topology};
use fabric::{DriverConfig, Packet, SnapshotConfig};
use netsim::time::{Duration, Instant};
use wire::FlowKey;

/// Switch 0's port facing switch 1 (`Topology::line`).
const PORT: u16 = 1;
/// 1 250 B on 100 GbE serialize in exactly 100 ns.
const SIZE: u32 = 1_250;
const SER: Duration = Duration::from_nanos(100);
/// `LinkProps::fabric_100g`'s propagation delay.
const PROP: Duration = Duration::from_nanos(300);
/// No host has this ID, so switch 1 cannot route the packet on.
const NOWHERE: u32 = 99;
/// The `ObserverTick` at zero; the next one (5 ms) is past every horizon.
const DRIVER_EVENTS: u64 = 1;

/// When the first packet is placed.
fn t0() -> Instant {
    Instant::ZERO + Duration::from_micros(1)
}

fn line(queue_capacity_bytes: u64) -> Testbed {
    let link = LinkProps::fabric_100g();
    assert_eq!(link.serialize_ns(SIZE), SER.as_nanos());
    assert_eq!(link.prop_ns, PROP.as_nanos());
    let mut cfg = TestbedConfig::new(SnapshotConfig::packet_count_cs(8));
    cfg.driver = DriverConfig {
        keepalive_period: None,
        ..DriverConfig::default()
    };
    cfg.queue_capacity_bytes = queue_capacity_bytes;
    let mut tb = Testbed::new(Topology::line(2), cfg);
    for switch in &mut tb.network_mut().switches {
        switch.snapshot_enabled = false;
    }
    tb
}

fn data(seq: u16) -> Packet {
    Packet::data(FlowKey::tcp(0, NOWHERE, seq, 1), SIZE)
}

/// Place `pkt` on switch 0's egress queue toward switch 1 at `at`.
fn place(tb: &mut Testbed, at: Instant, pkt: Packet) {
    let qp = QueuedPacket { pkt, from_port: 0 };
    tb.schedule_at(
        at,
        NetEvent::EnqueueEgress {
            sw: 0,
            port: PORT,
            qp,
        },
    );
}

/// Run to `until` one nanosecond at a time and return the instants at
/// which packets reached switch 1's ingress.
fn peer_arrivals(tb: &mut Testbed, until: Instant) -> Vec<Instant> {
    let ingress = |tb: &Testbed| tb.network().switches[1].stats.ingress_packets;
    let mut seen = ingress(tb);
    let mut at = Vec::new();
    let mut t = tb.now();
    while t < until {
        t += Duration::from_nanos(1);
        tb.run_until(t);
        let now_seen = ingress(tb);
        for _ in seen..now_seen {
            at.push(t);
        }
        seen = now_seen;
    }
    at
}

fn horizon() -> Instant {
    t0() + Duration::from_micros(4)
}

#[test]
fn a_burst_on_an_idle_port_serializes_back_to_back_with_one_wake_per_follower() {
    let mut tb = line(300_000);
    for seq in 0..3 {
        place(&mut tb, t0(), data(seq));
    }
    let arrivals = peer_arrivals(&mut tb, horizon());
    let t = t0() + PROP;
    assert_eq!(arrivals, [t + SER, t + SER * 2, t + SER * 3]);
    let (placed, wakes) = (3, 2);
    assert_eq!(
        tb.events_dispatched(),
        placed + wakes + arrivals.len() as u64 + DRIVER_EVENTS,
        "the head transmits inside its enqueue; each follower costs one wake"
    );
}

#[test]
fn a_lone_packet_costs_no_wake() {
    let mut tb = line(300_000);
    place(&mut tb, t0(), data(0));
    let arrivals = peer_arrivals(&mut tb, horizon());
    assert_eq!(arrivals, [t0() + SER + PROP]);
    assert_eq!(tb.events_dispatched(), 1 + 1 + DRIVER_EVENTS);
    assert_eq!(tb.network().switches[0].stats.egress_packets, 1);
}

#[test]
fn a_packet_enqueued_at_busy_until_starts_at_once() {
    let mut tb = line(300_000);
    place(&mut tb, t0(), data(0));
    place(&mut tb, t0() + SER, data(1));
    let arrivals = peer_arrivals(&mut tb, horizon());
    assert_eq!(arrivals, [t0() + SER + PROP, t0() + SER * 2 + PROP]);
    assert_eq!(
        tb.events_dispatched(),
        2 + 2 + DRIVER_EVENTS,
        "the wire is free at busy_until: no wake"
    );

    // One nanosecond earlier the wire is still busy: the packet waits
    // for the one wake at busy_until and leaves at the same instant.
    let mut tb = line(300_000);
    place(&mut tb, t0(), data(0));
    place(&mut tb, t0() + SER - Duration::from_nanos(1), data(1));
    let arrivals = peer_arrivals(&mut tb, horizon());
    assert_eq!(arrivals, [t0() + SER + PROP, t0() + SER * 2 + PROP]);
    assert_eq!(tb.events_dispatched(), 2 + 1 + 2 + DRIVER_EVENTS);
}

#[test]
fn an_initiation_and_a_frame_onto_a_down_link_take_no_wire_time() {
    // An initiation at the head of the queue dies after egress processing
    // (§6): the data packet behind it leaves at the same instant.
    let mut tb = line(300_000);
    place(&mut tb, t0(), Packet::initiation(1));
    place(&mut tb, t0(), data(0));
    let arrivals = peer_arrivals(&mut tb, horizon());
    assert_eq!(arrivals, [t0() + SER + PROP]);
    assert_eq!(tb.events_dispatched(), 2 + 1 + DRIVER_EVENTS);

    // A frame onto a down link is lost after the egress pipeline ran;
    // the wire stays free for the next packet once the link is back.
    let mut tb = line(300_000);
    let ns = Duration::from_nanos(1);
    tb.flap_link_at(t0() - ns, 0, PORT, ns * 2);
    place(&mut tb, t0(), data(0));
    place(&mut tb, t0() + ns, data(1));
    let arrivals = peer_arrivals(&mut tb, horizon());
    assert_eq!(arrivals, [t0() + ns + SER + PROP]);
    assert_eq!(tb.network().switches[0].stats.link_drops, 1);
    assert_eq!(tb.network().switches[0].stats.egress_packets, 1);
    let link_events = 2;
    assert_eq!(tb.events_dispatched(), link_events + 2 + 1 + DRIVER_EVENTS);
}

#[test]
fn a_packet_on_the_wire_does_not_count_against_the_queue() {
    // Room for exactly one packet. The head leaves the queue inside its
    // enqueue, so the second packet still fits; the third does not.
    let mut tb = line(u64::from(SIZE));
    for seq in 0..3 {
        place(&mut tb, t0(), data(seq));
    }
    let arrivals = peer_arrivals(&mut tb, horizon());
    assert_eq!(arrivals, [t0() + SER + PROP, t0() + SER * 2 + PROP]);
    let stats = tb.network().switches[0].stats;
    assert_eq!((stats.egress_packets, stats.queue_drops), (2, 1));
    assert_eq!(tb.events_dispatched(), 3 + 1 + 2 + DRIVER_EVENTS);
}
