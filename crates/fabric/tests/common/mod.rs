//! `bench_netsim`'s world, shared by the integration tests that replay it.

use fabric::network::DriverConfig;
use fabric::switchmod::SnapshotConfig;
use fabric::testbed::TestbedConfig;
use fabric::Source;
use netsim::dist::Dist;
use netsim::time::Duration;
use telemetry::MetricKind;
use workloads::PoissonSource;

/// `bench_netsim`'s configuration: channel-state snapshots every 4 ms,
/// modulus 512.
pub fn config(seed: u64) -> TestbedConfig {
    let mut cfg = TestbedConfig::new(SnapshotConfig {
        modulus: 512,
        channel_state: true,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    });
    cfg.seed = seed;
    cfg.driver = DriverConfig {
        snapshot_period: Some(Duration::from_millis(4)),
        ..DriverConfig::default()
    };
    cfg
}

/// `bench_netsim`'s traffic: `pps` 700-byte packets a second from `host`,
/// spread over every other host on 8 flows each (600 kpps per host on the
/// leaf-spine, 100 kpps on a fat tree).
pub fn source(host: u32, num_hosts: u32, pps: f64, seed: u64) -> Box<dyn Source> {
    let dsts = (0..num_hosts).filter(|&d| d != host).collect();
    Box::new(
        PoissonSource::new(
            host,
            dsts,
            pps,
            Dist::constant(700.0),
            seed ^ u64::from(host),
        )
        .flows_per_dst(8),
    )
}
