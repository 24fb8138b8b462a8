//! Live (threaded) emulation: real threads, real channels, real clocks.
//!
//! Runs a line of switch devices as OS threads connected by channels,
//! drives traffic from generator threads, and takes wall-clock-scheduled
//! snapshots — the synchronization spread you see below includes this
//! machine's *actual* scheduling jitter, the live analogue of Fig. 9.
//!
//! Run with: `cargo run --release --example live_emulation`

use emulation::{Cluster, ClusterConfig};
use std::time::Duration;

fn main() {
    let cfg = ClusterConfig {
        switches: 4,
        modulus: 64,
        channel_state: false,
        snapshots: 20,
        interval: Duration::from_millis(10),
        host_rate: 50_000,
        timeout: Duration::from_millis(500),
        record_deliveries: false,
        fail_devices: Vec::new(),
    };
    println!(
        "spinning up {} switch threads + 2 host generators, {} snapshots \
         at {:?} intervals…\n",
        cfg.switches, cfg.snapshots, cfg.interval
    );
    let report = Cluster::new(cfg).run();

    println!(
        "frames generated: {}   snapshots completed: {}",
        report.frames_sent,
        report.snapshots.len()
    );
    for snap in &report.snapshots {
        println!(
            "  epoch {:>3}: total receives at cut = {:>8}   consistent: {}",
            snap.epoch,
            snap.consistent_total(),
            snap.fully_consistent()
        );
    }

    let mut spreads: Vec<f64> = report.sync_spread_us.values().copied().collect();
    spreads.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if !spreads.is_empty() {
        println!(
            "\nwall-clock snapshot sync across devices (real OS jitter): \
             median {:.1} us, max {:.1} us over {} epochs",
            spreads[spreads.len() / 2],
            spreads.last().unwrap(),
            spreads.len()
        );
    }
}
