//! Per-device fault state, driven through the `Testbed`.
//!
//! A switch carries more than its units: the link state of each port, the
//! control-plane-down gate, and the notification-export fault on its PCIe
//! path. Each case injects one fault on `bench_netsim`'s leaf-spine world
//! (2 leaves, 2 spines, 3 hosts a leaf, channel-state snapshots every
//! 4 ms) and reads the counters that fault moves: per-device statistics
//! and the run's metrics registry. The last case schedules events naming
//! a device, port or host the world lacks (a packet arriving on a port
//! past the last one included), and expects the snapshots of the same
//! run without them: dispatch ignores such an event.

mod common;

use fabric::network::{NetEvent, NotifFaultConfig, NotifFaultKind};
use fabric::switchmod::QueuedPacket;
use fabric::testbed::Testbed;
use fabric::topology::{PortPeer, Topology};
use fabric::Packet;
use netsim::time::{Duration, Instant};
use speedlight_core::observer::UnitOutcome;
use std::collections::BTreeMap;
use wire::FlowKey;

const SEED: u64 = 9;
/// Leaf 0; its port 0 is the uplink to spine 2 (`Topology::leaf_spine`).
const LEAF: u16 = 0;

fn ms(n: u64) -> Instant {
    Instant::ZERO + Duration::from_millis(n)
}

/// The leaf-spine world under all-to-all traffic light enough for a
/// debug build: 100 kpps a host.
fn world() -> Testbed {
    let topo = Topology::leaf_spine(2, 2, 3);
    let num_hosts = topo.num_hosts();
    let mut tb = Testbed::new(topo, common::config(SEED));
    for h in 0..num_hosts {
        let source = common::source(h, num_hosts, 100_000.0, SEED);
        tb.set_source(h, Instant::ZERO, source);
    }
    tb
}

fn counter(tb: &Testbed, name: &str) -> u64 {
    tb.network().instr.metrics.counter(name)
}

fn link_drops(tb: &Testbed, dev: u16) -> u64 {
    tb.network().switches[usize::from(dev)].stats.link_drops
}

#[test]
fn a_flapped_uplink_drops_frames_at_both_ends_until_it_comes_back() {
    let mut tb = world();
    let PortPeer::Switch {
        switch: spine,
        port: spine_port,
    } = tb.network().topology().ports[usize::from(LEAF)][0]
    else {
        panic!("leaf port 0 is an uplink");
    };
    assert_eq!((spine, spine_port), (2, LEAF));

    tb.run_until(ms(3));
    let before = (link_drops(&tb, LEAF), link_drops(&tb, spine));
    assert_eq!(before, (0, 0), "no drops while every link is up");

    tb.flap_link_at(ms(3), LEAF, 0, Duration::from_millis(2));
    tb.run_until(ms(5));
    let down = (link_drops(&tb, LEAF), link_drops(&tb, spine));
    assert!(down.0 > 0, "the leaf serializes onto its down uplink");
    assert!(
        down.1 > 0,
        "the spine sees the outage too (the peer half of the link shadow)"
    );

    tb.run_until(ms(12));
    let after = (link_drops(&tb, LEAF), link_drops(&tb, spine));
    assert_eq!(after, down, "no frame is lost once the link is back up");
    for dev in (0..4).filter(|&d| d != LEAF && d != spine) {
        assert_eq!(link_drops(&tb, dev), 0, "device {dev} is off the cable");
    }
    assert_eq!(counter(&tb, "fault.link_down"), 1);
    assert_eq!(counter(&tb, "fault.link_up"), 1);
}

#[test]
fn a_crashed_control_plane_loses_exports_then_rejoins_snapshots() {
    let mut tb = world();
    let recovered_at = ms(9);
    tb.crash_cp_at(ms(5), LEAF, recovered_at - ms(5));
    tb.run_until(ms(40));

    assert!(
        counter(&tb, "fault.notify_lost_cp_down") > 0,
        "notifications reach the dead socket and are lost"
    );
    assert_eq!(counter(&tb, "fault.cp_crashed"), 1);
    assert_eq!(counter(&tb, "fault.cp_recovered"), 1);

    let leaf_units = tb.network().switches[usize::from(LEAF)].unit_ids();
    let rec = tb
        .snapshots()
        .iter()
        .find(|r| r.issued_at > recovered_at)
        .expect("a snapshot issued after recovery seals");
    assert!(!rec.forced, "epoch {} needed a timeout", rec.snapshot.epoch);
    assert!(!rec.snapshot.excluded.contains(&LEAF));
    for uid in &leaf_units {
        assert!(
            matches!(rec.snapshot.units.get(uid), Some(UnitOutcome::Value { .. })),
            "{uid:?} has no value in epoch {}",
            rec.snapshot.epoch
        );
    }
}

#[test]
fn a_drop_fault_drops_every_second_export_of_its_device_only() {
    let mut tb = world();
    tb.set_notif_fault(
        LEAF,
        NotifFaultConfig {
            kind: NotifFaultKind::Drop,
            every: 2,
        },
    );
    tb.enable_trace();
    tb.run_until(ms(12));

    // Every export reaches the fault gate once: the gate drops it
    // (`fault.notify.drop`) or hands it on to the CP socket, which queues
    // it (`notify.export`) or overflows (`notify.drop`).
    let mut dropped: BTreeMap<u64, u64> = BTreeMap::new();
    let mut exports: BTreeMap<u64, u64> = BTreeMap::new();
    for line in tb.trace_lines() {
        let ev = obs::json::parse_line(&line).expect("trace line parses");
        let kind = obs::json::field(&ev, "ev").and_then(|v| v.as_str());
        let dev = obs::json::field(&ev, "dev").and_then(|v| v.as_u64());
        let (Some(kind), Some(dev)) = (kind, dev) else {
            continue;
        };
        match kind {
            "fault.notify.drop" => {
                *dropped.entry(dev).or_default() += 1;
                *exports.entry(dev).or_default() += 1;
            }
            "notify.export" | "notify.drop" => *exports.entry(dev).or_default() += 1,
            _ => {}
        }
    }
    let leaf_dropped = dropped.get(&u64::from(LEAF)).copied().unwrap_or(0);
    let leaf_exports = exports.get(&u64::from(LEAF)).copied().unwrap_or(0);
    assert!(leaf_exports > 10, "the leaf exports notifications");
    assert_eq!(
        leaf_dropped,
        leaf_exports / 2,
        "every second one is dropped"
    );
    assert_eq!(
        dropped.keys().collect::<Vec<_>>(),
        vec![&u64::from(LEAF)],
        "no other device drops any"
    );
    assert_eq!(counter(&tb, "fault.notify_dropped"), leaf_dropped);
    assert!(
        exports.keys().any(|&d| d != u64::from(LEAF)),
        "other devices export too"
    );
}

#[test]
fn events_naming_a_missing_device_port_or_host_are_ignored() {
    let run = |stray: bool| {
        let mut tb = world();
        if stray {
            let net = tb.network();
            let missing_sw = net.switches.len() as u16;
            let missing_port = net.switches[usize::from(LEAF)].ports();
            let missing_host = net.topology().num_hosts();
            let packet = Packet::data(FlowKey::tcp(0, 1, 7, 1), 700);
            for event in [
                NetEvent::DeviceFault { sw: missing_sw },
                NetEvent::CpCrash { sw: missing_sw },
                NetEvent::UnitInitiate {
                    sw: missing_sw,
                    port: 0,
                    epoch: 1,
                },
                NetEvent::UnitInitiate {
                    sw: LEAF,
                    port: missing_port,
                    epoch: 1,
                },
                NetEvent::EnqueueEgress {
                    sw: LEAF,
                    port: missing_port,
                    qp: QueuedPacket {
                        pkt: packet.clone(),
                        from_port: 0,
                    },
                },
                NetEvent::ArriveIngress {
                    sw: LEAF,
                    port: missing_port,
                    pkt: packet,
                },
                NetEvent::HostWake { host: missing_host },
            ] {
                tb.schedule_at(ms(3), event);
            }
        }
        tb.run_until(ms(16));
        assert!(!tb.snapshots().is_empty(), "the run seals snapshots");
        format!("{:#?}", tb.snapshots())
    };
    assert_eq!(run(true), run(false));
}
