//! Shard-count invariance of the sharded fabric engine: the same seeded
//! scenario, run at 1, 2, 3, or 4 shards, must produce byte-identical
//! artifacts — snapshots, merged delivery outputs, golden traces, and
//! metrics. The sharded-at-1-shard run is the reference execution.
//!
//! Property test: random seeds × topologies (leaf-spine, fat-tree k=4,
//! line) × shard counts, plus a pinned regression seed for the
//! cross-shard in-flight-packet-at-window-edge corner.

use fabric::network::DriverConfig;
use fabric::shard::{PartitionHint, ShardedTestbed};
use fabric::switchmod::SnapshotConfig;
use fabric::testbed::TestbedConfig;
use fabric::topology::Topology;
use fabric::traffic::Emission;
use fabric::Source;
use netsim::rng::SimRng;
use netsim::time::{Duration, Instant};
use proptest::prelude::*;
use telemetry::MetricKind;
use wire::FlowKey;

/// Constant-bit-rate source: deterministic, engine-independent load.
struct Cbr {
    src: u32,
    dst: u32,
    rate_pps: u64,
}

impl Source for Cbr {
    fn on_wake(
        &mut self,
        now: Instant,
        _rng: &mut SimRng,
        out: &mut Vec<Emission>,
    ) -> Option<Instant> {
        out.push(Emission {
            flow: FlowKey::tcp(self.src, self.dst, 10_000, 80),
            bytes: 1_000,
        });
        Some(now + Duration::from_nanos(1_000_000_000 / self.rate_pps))
    }
}

#[derive(Debug, Clone, Copy)]
enum Topo {
    LeafSpine,
    FatTree4,
    Line5,
}

impl Topo {
    fn build(self) -> (Topology, PartitionHint) {
        match self {
            Topo::LeafSpine => (
                Topology::leaf_spine(2, 2, 3),
                PartitionHint::LeafSpine { leaves: 2 },
            ),
            Topo::FatTree4 => (Topology::fat_tree(4), PartitionHint::FatTree { k: 4 }),
            Topo::Line5 => (Topology::line(5), PartitionHint::Generic),
        }
    }
}

/// Run one seeded scenario at `shards` and render every covered artifact
/// to comparable bytes.
fn artifacts(topo: Topo, shards: usize, seed: u64) -> String {
    let (topology, hint) = topo.build();
    let snap = SnapshotConfig {
        modulus: 16,
        channel_state: true,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    };
    let mut cfg = TestbedConfig::new(snap);
    cfg.seed = seed;
    cfg.driver = DriverConfig::default();
    let num_hosts = topology.num_hosts();
    let mut tb = ShardedTestbed::new(topology, cfg, hint, shards);
    for h in 0..num_hosts {
        // Every host sends to its "antipode" so traffic crosses the
        // partition cut on every topology.
        let dst = (h + num_hosts / 2) % num_hosts;
        if dst == h {
            continue;
        }
        tb.set_source(
            h,
            Instant::ZERO,
            Box::new(Cbr {
                src: h,
                dst,
                rate_pps: 40_000,
            }),
        );
    }
    tb.enable_trace();
    tb.enable_delivery_log();
    tb.snapshot_at(Instant::from_nanos(2_000_000));
    tb.snapshot_at(Instant::from_nanos(6_000_000));
    tb.run_until(Instant::from_nanos(30_000_000));
    let snaps = format!("{:?}", tb.snapshots());
    let rx = format!("{:?}", tb.host_rx());
    let sync = format!("{:?}", tb.sync_spreads(1));
    let log = format!("{:?}", tb.delivery_log().map(|l| l.len()));
    let metrics = tb.export_metrics();
    let trace = tb.take_trace_lines().join("\n");
    format!("snaps={snaps} rx={rx} sync={sync} log={log} metrics={metrics} trace={trace}")
}

proptest! {
    /// Random seed, topology, and shard count: byte-identical to the
    /// sharded-at-1 reference execution.
    #[test]
    fn sharded_run_matches_single_shard_reference(
        seed in 0u64..1_000_000,
        topo_idx in 0usize..3,
        shards in 2usize..=4,
    ) {
        let topo = [Topo::LeafSpine, Topo::FatTree4, Topo::Line5][topo_idx];
        let reference = artifacts(topo, 1, seed);
        let got = artifacts(topo, shards, seed);
        prop_assert_eq!(
            got, reference,
            "artifacts diverge at {} shards (topo {:?}, seed {})", shards, topo, seed
        );
    }
}

/// Pinned regression corner: packets in flight across the leaf-spine cut
/// at a window edge. With 300 ns lookahead and continuous cross-leaf
/// CBR, every window boundary has fabric packets mid-flight on cut links;
/// seed 0xB412 historically exercised a delivery landing exactly on a
/// window's horizon edge. The three shard placements must still execute
/// it identically to the one-shard reference.
#[test]
fn pinned_seed_in_flight_packet_at_barrier() {
    let reference = artifacts(Topo::LeafSpine, 1, 0xB412);
    for shards in [2, 3, 4] {
        let got = artifacts(Topo::LeafSpine, shards, 0xB412);
        assert_eq!(
            got, reference,
            "in-flight-at-barrier corner diverges at {shards} shards"
        );
    }
}
