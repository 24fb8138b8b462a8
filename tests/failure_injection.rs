//! Failure injection and partial deployment (§6, §10).

use speedlight::core::observer::UnitOutcome;
use speedlight::experiments::common::{attach_workload, standard_testbed, Workload};
use speedlight::fabric::network::DriverConfig;
use speedlight::fabric::switchmod::SnapshotConfig;
use speedlight::fabric::testbed::{Testbed, TestbedConfig};
use speedlight::fabric::topology::{LbKind, Topology};
use speedlight::netsim::dist::Dist;
use speedlight::netsim::time::{Duration, Instant};
use speedlight::telemetry::MetricKind;
use speedlight::workloads::PoissonSource;

#[test]
fn failed_device_is_excluded_not_wedging_the_observer() {
    let mut tb = standard_testbed(
        SnapshotConfig::packet_count_cs(128),
        LbKind::Ecmp,
        DriverConfig {
            snapshot_period: Some(Duration::from_millis(10)),
            device_timeout: Duration::from_millis(40),
            ..DriverConfig::default()
        },
        5,
    );
    attach_workload(&mut tb, Workload::Memcache, 5);
    // Run healthy for a while, then spine 3 "fails" (stops participating
    // in the snapshot protocol; it still forwards).
    tb.run_until(Instant::ZERO + Duration::from_millis(35));
    tb.network_mut().switches[3].snapshot_enabled = false;
    tb.run_until(Instant::ZERO + Duration::from_millis(200));

    let snaps = tb.snapshots();
    let healthy = snaps.iter().filter(|r| !r.forced).count();
    let forced = snaps.iter().filter(|r| r.forced).count();
    assert!(healthy >= 2, "pre-failure snapshots should complete");
    assert!(forced >= 5, "post-failure snapshots should force-finalize");
    // Forced snapshots exclude device 3 but keep everyone else's values.
    let last = snaps.iter().rev().find(|r| r.forced).unwrap();
    assert!(last.snapshot.excluded.contains(&3));
    assert!(last.snapshot.devices.contains(&0));
    let usable = last.snapshot.usable().count();
    assert!(usable > 0, "non-failed devices still report");
    // And every unit of the failed device is marked, not fabricated.
    for (uid, outcome) in &last.snapshot.units {
        if uid.device == 3 {
            assert_eq!(*outcome, UnitOutcome::DeviceExcluded);
        }
    }
}

#[test]
fn two_devices_failing_in_the_same_epoch_are_both_excluded() {
    // Regression for `observer::force_finalize` with multiple lagging
    // devices: when two switches die simultaneously mid-epoch, every
    // forced snapshot after the failure must exclude BOTH of them while
    // the surviving devices keep reporting usable values.
    let mut tb = standard_testbed(
        SnapshotConfig::packet_count_cs(128),
        LbKind::Ecmp,
        DriverConfig {
            snapshot_period: Some(Duration::from_millis(10)),
            device_timeout: Duration::from_millis(40),
            ..DriverConfig::default()
        },
        7,
    );
    attach_workload(&mut tb, Workload::Memcache, 7);
    tb.run_until(Instant::ZERO + Duration::from_millis(35));
    // Both spines fail in the same instant — same epoch, same timeout.
    tb.network_mut().switches[2].snapshot_enabled = false;
    tb.network_mut().switches[3].snapshot_enabled = false;
    tb.run_until(Instant::ZERO + Duration::from_millis(200));

    let snaps = tb.snapshots();
    assert!(snaps.iter().filter(|r| !r.forced).count() >= 2);
    let forced: Vec<_> = snaps.iter().filter(|r| r.forced).collect();
    assert!(
        forced.len() >= 5,
        "post-failure snapshots should force-finalize"
    );
    let last = forced.last().unwrap();
    assert!(
        last.snapshot.excluded.contains(&2) && last.snapshot.excluded.contains(&3),
        "both failed devices must be excluded, got {:?}",
        last.snapshot.excluded
    );
    assert!(last.snapshot.devices.contains(&0));
    assert!(last.snapshot.usable().count() > 0, "survivors still report");
    for (uid, outcome) in &last.snapshot.units {
        if uid.device == 2 || uid.device == 3 {
            assert_eq!(*outcome, UnitOutcome::DeviceExcluded);
        }
    }
}

#[test]
fn tiny_notification_buffer_degrades_gracefully() {
    let topo = Topology::leaf_spine(2, 2, 3);
    let mut cfg = TestbedConfig::new(SnapshotConfig {
        modulus: 256,
        channel_state: false,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    });
    cfg.latency.cp_queue_capacity = 2; // absurdly small socket buffer
    cfg.driver.snapshot_period = Some(Duration::from_millis(5));
    let mut tb = Testbed::new(topo, cfg);
    for h in 0..6u32 {
        let dsts: Vec<u32> = (0..6).filter(|&d| d != h).collect();
        tb.set_source(
            h,
            Instant::ZERO,
            Box::new(PoissonSource::new(
                h,
                dsts,
                50_000.0,
                Dist::constant(500.0),
                5,
            )),
        );
    }
    tb.run_until(Instant::ZERO + Duration::from_millis(250));
    let drops: u64 = tb
        .network()
        .switches
        .iter()
        .map(|s| s.stats.notify_drops)
        .sum();
    assert!(drops > 0, "the test must actually drop notifications");
    // Snapshots still finish (retries + conservative marking), and any
    // value that IS reported consistent remains trustworthy.
    assert!(
        tb.snapshots().len() >= 20,
        "only {} snapshots",
        tb.snapshots().len()
    );
}

#[test]
fn partial_deployment_on_a_line_still_snapshots_consistently() {
    // §10: only some devices are snapshot-enabled. On a 4-switch line,
    // disable the middle two; the edge switches still take a consistent
    // snapshot with the shim transiting the disabled region untouched.
    let topo = Topology::line(4);
    let mut cfg = TestbedConfig::new(SnapshotConfig {
        modulus: 128,
        channel_state: false, // multi-hop gaps keep per-channel FIFO: line topology
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    });
    cfg.driver.snapshot_period = Some(Duration::from_millis(5));
    let mut tb = Testbed::new(topo, cfg);
    // Disable switches 1 and 2 and remove them from the observer set.
    for sw in [1u16, 2] {
        tb.network_mut().switches[usize::from(sw)].snapshot_enabled = false;
        tb.network_mut().observer.detach_device(sw);
    }
    tb.set_source(
        0,
        Instant::ZERO,
        Box::new(PoissonSource::new(
            0,
            vec![1],
            80_000.0,
            Dist::constant(400.0),
            3,
        )),
    );
    tb.set_source(
        1,
        Instant::ZERO,
        Box::new(PoissonSource::new(
            1,
            vec![0],
            80_000.0,
            Dist::constant(400.0),
            4,
        )),
    );
    tb.run_until(Instant::ZERO + Duration::from_millis(150));

    let snaps = tb.snapshots();
    assert!(snaps.len() >= 20, "{} snapshots", snaps.len());
    for rec in snaps {
        assert!(!rec.forced);
        assert!(rec.snapshot.fully_consistent());
        // Only the enabled edge devices participate.
        for uid in rec.snapshot.units.keys() {
            assert!(uid.device == 0 || uid.device == 3, "unexpected {uid}");
        }
    }
    // Disabled switches processed traffic but took no snapshots.
    let mid = &tb.network().switches[1];
    assert!(mid.stats.ingress_packets > 1_000);
    assert_eq!(mid.agent.cp().stats().notifications, 0);
}

#[test]
fn node_attachment_joins_the_next_epoch() {
    // §6 "Node attachment": a switch that is snapshot-disabled at first
    // joins later; it participates from the next initiated epoch on, and
    // pre-attachment epochs are unaffected.
    let mut tb = standard_testbed(
        SnapshotConfig::packet_count_cs(128),
        LbKind::Ecmp,
        DriverConfig {
            snapshot_period: Some(Duration::from_millis(10)),
            ..DriverConfig::default()
        },
        6,
    );
    attach_workload(&mut tb, Workload::Memcache, 6);
    // Detach spine 3 from the observer before anything runs.
    tb.network_mut().observer.detach_device(3);
    tb.run_until(Instant::ZERO + Duration::from_millis(45));
    let before = tb.snapshots().len();
    assert!(before >= 2);
    for rec in &tb.snapshots()[..before] {
        assert!(rec.snapshot.units.keys().all(|u| u.device != 3));
    }
    // Re-attach: present from the next epoch.
    let units = tb.network().switches[3].unit_ids();
    tb.network_mut().observer.register_device(3, units);
    tb.run_until(Instant::ZERO + Duration::from_millis(160));
    let after: Vec<_> = tb.snapshots()[before..].to_vec();
    assert!(!after.is_empty());
    let joined = after
        .iter()
        .filter(|r| r.snapshot.units.keys().any(|u| u.device == 3))
        .count();
    assert!(joined >= after.len() - 1, "device 3 must join promptly");
    for rec in &after {
        assert!(!rec.forced, "attachment must not wedge epochs");
    }
}
