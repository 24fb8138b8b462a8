//! The three discrete-event workloads: one traffic shape (`bench_netsim`'s
//! fig9 configuration) on a small and a large topology, the large one
//! through both engines.

use crate::stats;
use fabric::network::{DriverConfig, SnapshotRecord};
use fabric::shard::{PartitionHint, ShardedTestbed};
use fabric::switchmod::SnapshotConfig;
use fabric::testbed::{Testbed, TestbedConfig};
use fabric::topology::Topology;
use fabric::traffic::{Emission, Source};
use netsim::dist::Dist;
use netsim::rng::SimRng;
use netsim::time::{Duration, Instant};
use speedlight_core::observer::UnitOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant as WallInstant;
use telemetry::MetricKind;
use workloads::PoissonSource;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topo {
    /// The paper's testbed: 2 leaves, 2 spines, 3 hosts per leaf.
    LeafSpine,
    /// `fat_tree(8)`: 80 switches, 128 hosts.
    FatTree8,
}

impl Topo {
    pub fn build(self) -> Topology {
        match self {
            Topo::LeafSpine => Topology::leaf_spine(2, 2, 3),
            Topo::FatTree8 => Topology::fat_tree(8),
        }
    }

    fn hint(self) -> PartitionHint {
        match self {
            Topo::LeafSpine => PartitionHint::LeafSpine { leaves: 2 },
            Topo::FatTree8 => PartitionHint::FatTree { k: 8 },
        }
    }

    /// Period of the channel-state snapshots. The leaf-spine seals one in
    /// about 1.2 ms and takes `bench_netsim`'s 4 ms. The fat tree needs
    /// 6 to 9 ms (keepalive rounds, 2 ms apart, carry the marker over its
    /// idle channels hop by hop): at 4 ms epochs overlap, units skip
    /// epochs, and all but the first snapshot seal inconsistent with a
    /// growing backlog. 12 ms is the shortest round period at which every
    /// epoch of every seed tried sealed consistent.
    pub fn snapshot_period(self) -> Duration {
        match self {
            Topo::LeafSpine => Duration::from_millis(4),
            Topo::FatTree8 => Duration::from_millis(12),
        }
    }

    /// Offered load per host: the 128-host tree is driven more gently so
    /// both topologies land in the same events-per-trial range.
    pub fn pps_per_host(self) -> f64 {
        match self {
            Topo::LeafSpine => 600_000.0,
            Topo::FatTree8 => 100_000.0,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct DesSpec {
    pub topo: Topo,
    pub horizon: Duration,
    /// 1 = the serial `Testbed`; more = `ShardedTestbed` on that many
    /// shards, its windows run inline on the calling thread.
    pub shards: usize,
}

pub const FIG9_LEAF_SPINE: DesSpec = DesSpec {
    topo: Topo::LeafSpine,
    horizon: Duration::from_millis(600),
    shards: 1,
};
pub const FAT_TREE8: DesSpec = DesSpec {
    topo: Topo::FatTree8,
    horizon: Duration::from_millis(60),
    shards: 1,
};
pub const FAT_TREE8_SHARDS2: DesSpec = DesSpec {
    shards: 2,
    ..FAT_TREE8
};

/// Variations of a trial the layer ledger needs; the measured trials use
/// the default.
#[derive(Debug, Clone, Copy)]
pub struct TrialOpts {
    /// `false` drops the periodic snapshots (keepalives stay), which is
    /// what the snapshot-overhead share is measured against.
    pub snapshots: bool,
    /// Run with the JSONL `obs` trace sink enabled.
    pub obs_trace: bool,
    /// Run with the deterministic profiler enabled.
    pub profile: bool,
}

impl Default for TrialOpts {
    fn default() -> Self {
        TrialOpts {
            snapshots: true,
            obs_trace: false,
            profile: false,
        }
    }
}

pub fn testbed_config(topo: Topo, seed: u64, snapshots: bool) -> TestbedConfig {
    let mut cfg = TestbedConfig::new(SnapshotConfig {
        modulus: 512,
        channel_state: true,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    });
    cfg.seed = seed;
    cfg.driver = DriverConfig {
        snapshot_period: snapshots.then(|| topo.snapshot_period()),
        ..DriverConfig::default()
    };
    cfg
}

/// A Poisson source that counts what it emits, so delivery can be checked
/// against it. The count is a statistic read after the run, hence relaxed.
pub struct CountedPoisson {
    inner: PoissonSource,
    sent: Arc<AtomicU64>,
}

impl Source for CountedPoisson {
    fn on_wake(
        &mut self,
        now: Instant,
        rng: &mut SimRng,
        out: &mut Vec<Emission>,
    ) -> Option<Instant> {
        let before = out.len();
        let next = self.inner.on_wake(now, rng, out);
        self.sent
            .fetch_add((out.len() - before) as u64, Ordering::Relaxed);
        next
    }
}

/// Host `host`'s source: Poisson at `pps` to every other host, 700-byte
/// packets, 8 flows per destination.
pub fn poisson_source(host: u32, num_hosts: u32, pps: f64, seed: u64) -> PoissonSource {
    let dsts: Vec<u32> = (0..num_hosts).filter(|&d| d != host).collect();
    PoissonSource::new(
        host,
        dsts,
        pps,
        Dist::constant(700.0),
        seed ^ u64::from(host),
    )
    .flows_per_dst(8)
}

pub fn counted_sources(
    topo: Topo,
    num_hosts: u32,
    seed: u64,
    sent: &Arc<AtomicU64>,
) -> Vec<CountedPoisson> {
    (0..num_hosts)
        .map(|h| CountedPoisson {
            inner: poisson_source(h, num_hosts, topo.pps_per_host(), seed),
            sent: Arc::clone(sent),
        })
        .collect()
}

/// What one trial produced, besides its two host times.
#[derive(Debug, Clone)]
pub struct DesOutcome {
    pub events: u64,
    pub digest: u64,
    pub snapshots: usize,
    /// `completed_at - issued_at` of every unforced snapshot, µs, ascending.
    pub latencies_us: Vec<f64>,
    /// Fig. 9's synchronization spread of every fully notified epoch, µs,
    /// ascending.
    pub spreads_us: Vec<f64>,
    /// Epochs the observer initiated.
    pub attempted: u64,
    /// Epochs forced, sealed with an excluded device, sealed inconsistent,
    /// or unsealed at the horizon though older than the retry timeout.
    pub failed: u64,
    pub host_sent: u64,
    pub host_delivered: u64,
    /// Violations of the per-trial checks, empty when all hold.
    pub problems: Vec<String>,
    /// Pending events at the horizon (the queue depth a replay is shaped by).
    pub pending: u64,
    /// Unit invocations by case, from the switch counters and the sealed
    /// channel state: `(current, in_flight, advance)`.
    pub unit_cases: (u64, u64, u64),
    pub metrics: obs::metrics::Metrics,
    pub profile: Option<obs::profile::Profile>,
    /// `(windows, messages)` of the sharded runtime.
    pub shard_stats: Option<(u64, u64)>,
    pub devices: u64,
}

#[derive(Debug, Clone)]
pub struct DesTrial {
    pub setup_s: f64,
    pub wall_s: f64,
    pub out: DesOutcome,
}

pub fn digest_record(h: &mut parfan::digest::Fnv64, rec: &SnapshotRecord) {
    h.update(&rec.snapshot.epoch.to_le_bytes());
    h.update(&rec.snapshot.consistent_total().to_le_bytes());
    h.update(&[u8::from(rec.forced)]);
    h.write_u64(rec.snapshot.excluded.len() as u64);
    h.write_u64(rec.snapshot.units.len() as u64);
    h.write_u64(rec.completed_at.as_nanos());
}

/// Everything derived from the completed-snapshot list, shared by both
/// engines and the traced driver.
pub struct SnapshotFacts {
    pub digest: u64,
    pub latencies_us: Vec<f64>,
    pub failed_sealed: u64,
    pub sealed_epochs: Vec<u64>,
    pub in_flight_packets: u64,
    pub monotone: bool,
}

pub fn snapshot_facts(records: &[SnapshotRecord]) -> SnapshotFacts {
    let mut h = parfan::digest::Fnv64::new();
    let mut latencies_us = Vec::new();
    let mut failed_sealed = 0;
    let mut in_flight_packets = 0u64;
    let mut by_epoch: Vec<(u64, u64)> = Vec::with_capacity(records.len());
    for rec in records {
        digest_record(&mut h, rec);
        let snap = &rec.snapshot;
        if rec.forced || !snap.excluded.is_empty() || !snap.fully_consistent() {
            failed_sealed += 1;
        }
        if !rec.forced {
            latencies_us.push(
                rec.completed_at
                    .saturating_since(rec.issued_at)
                    .as_micros_f64(),
            );
        }
        // With a packet-count metric every in-flight packet contributes
        // exactly one to its unit's channel state.
        for outcome in snap.units.values() {
            if let UnitOutcome::Value { channel, .. } = outcome {
                in_flight_packets += channel;
            }
        }
        by_epoch.push((snap.epoch, snap.consistent_total()));
    }
    latencies_us.sort_by(f64::total_cmp);
    by_epoch.sort_unstable();
    SnapshotFacts {
        digest: h.finish(),
        latencies_us,
        failed_sealed,
        monotone: by_epoch.windows(2).all(|w| w[0].1 <= w[1].1),
        sealed_epochs: by_epoch.into_iter().map(|(e, _)| e).collect(),
        in_flight_packets,
    }
}

/// Epochs initiated but unsealed at `horizon` although issued more than
/// `retry_timeout` before it. Periodic epoch `e` is issued at `e * period`.
fn stale_unsealed(
    initiated: u64,
    sealed: &[u64],
    period: Duration,
    horizon: Duration,
    retry: Duration,
) -> u64 {
    (1..=initiated)
        .filter(|e| sealed.binary_search(e).is_err())
        .filter(|&e| horizon.saturating_sub(period.saturating_mul(e)) > retry)
        .count() as u64
}

/// What a finished run hands over, whichever engine or driver ran it.
pub struct Raw {
    pub events: u64,
    pub facts: SnapshotFacts,
    /// Fig. 9's spread per fully notified epoch, µs, any order.
    pub spreads_us: Vec<f64>,
    pub host_sent: u64,
    pub host_delivered: u64,
    pub pending: u64,
    pub metrics: obs::metrics::Metrics,
}

/// Facts of the topology the checks and the ledger need.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Switches plus hosts.
    pub devices: u64,
    /// Most packets one keepalive round can put on the wire (`ports²` of
    /// the widest switch); keepalives reach hosts like data does.
    pub keepalive_fanout: u64,
}

impl Shape {
    pub fn of(topo: &Topology) -> Shape {
        let widest = (0..topo.num_switches()).map(|s| topo.num_ports(s)).max();
        Shape {
            devices: u64::from(topo.num_switches()) + u64::from(topo.num_hosts()),
            keepalive_fanout: u64::from(widest.unwrap_or(0)).pow(2),
        }
    }
}

pub fn outcome(spec: &DesSpec, shape: Shape, mut raw: Raw) -> DesOutcome {
    raw.spreads_us.sort_by(f64::total_cmp);
    let Raw { facts, metrics, .. } = raw;
    let attempted = metrics.counter("snapshots.initiated");
    let retry = DriverConfig::default().retry_timeout;
    let period = spec.topo.snapshot_period();
    let failed = facts.failed_sealed
        + stale_unsealed(attempted, &facts.sealed_epochs, period, spec.horizon, retry);
    let mut problems = Vec::new();
    if !facts.monotone {
        problems.push("consistent_total is not monotone in epoch order".to_string());
    }
    let keepalives = metrics.counter("keepalives.injected") * shape.keepalive_fanout;
    if raw.host_delivered == 0 || raw.host_delivered > raw.host_sent + keepalives {
        problems.push(format!(
            "hosts received {} packets, outside 1..={} sent + {keepalives} keepalives",
            raw.host_delivered, raw.host_sent
        ));
    }
    // Two units (ingress, egress) see every packet at every hop; an
    // advance raises a notification; the rest carried the current epoch.
    let unit_calls = metrics.gauge("switch.ingress_packets").unwrap_or(0)
        + metrics.gauge("switch.egress_packets").unwrap_or(0);
    let advance =
        metrics.counter("cp.notifications") + metrics.gauge("switch.notify_drops").unwrap_or(0);
    let in_flight = facts.in_flight_packets;
    let current = unit_calls.saturating_sub(advance + in_flight);
    DesOutcome {
        events: raw.events,
        digest: facts.digest,
        snapshots: facts.sealed_epochs.len(),
        latencies_us: facts.latencies_us,
        spreads_us: raw.spreads_us,
        attempted,
        failed,
        host_sent: raw.host_sent,
        host_delivered: raw.host_delivered,
        problems,
        pending: raw.pending,
        unit_cases: (current, in_flight, advance),
        metrics,
        profile: None,
        shard_stats: None,
        devices: shape.devices,
    }
}

fn spreads_to_us(spreads: Vec<(u64, Duration)>) -> Vec<f64> {
    spreads
        .into_iter()
        .map(|(_, d)| d.as_micros_f64())
        .collect()
}

/// Either engine behind one surface, with what the checks need beside it.
enum Bed {
    Serial(Box<Testbed>),
    Sharded(Box<ShardedTestbed>),
}

struct World {
    bed: Bed,
    shape: Shape,
    sent: Arc<AtomicU64>,
}

/// Topology, testbed and a source on every host: what `setup_s` times.
fn build(spec: &DesSpec, seed: u64, snapshots: bool) -> World {
    let sent = Arc::new(AtomicU64::new(0));
    let topo = spec.topo.build();
    let shape = Shape::of(&topo);
    let num_hosts = topo.num_hosts();
    let cfg = testbed_config(spec.topo, seed, snapshots);
    let sources = (0u32..).zip(counted_sources(spec.topo, num_hosts, seed, &sent));
    let bed = if spec.shards <= 1 {
        let mut tb = Testbed::new(topo, cfg);
        for (h, src) in sources {
            tb.set_source(h, Instant::ZERO, Box::new(src));
        }
        Bed::Serial(Box::new(tb))
    } else {
        let mut tb = ShardedTestbed::new(topo, cfg, spec.topo.hint(), spec.shards);
        for (h, src) in sources {
            tb.set_source(h, Instant::ZERO, Box::new(src));
        }
        Bed::Sharded(Box::new(tb))
    };
    World { bed, shape, sent }
}

/// One trial: build the world (timed as set-up), run it to the horizon
/// (timed as wall), then read the results out. Host time is one `Instant`
/// pair around each region, taken here and nowhere inside the simulator.
/// Library fan-out is pinned to this thread: the sharded engine runs its
/// windows inline.
pub fn run_trial(spec: &DesSpec, seed: u64, opts: TrialOpts) -> DesTrial {
    parfan::with_jobs(1, || {
        let start = WallInstant::now();
        let mut world = build(spec, seed, opts.snapshots);
        let setup_s = start.elapsed().as_secs_f64();
        match &mut world.bed {
            Bed::Serial(tb) if opts.obs_trace => tb.enable_trace(),
            Bed::Sharded(tb) if opts.obs_trace => tb.enable_trace(),
            _ => {}
        }
        match &mut world.bed {
            Bed::Serial(tb) if opts.profile => tb.enable_profiling(),
            Bed::Sharded(tb) if opts.profile => tb.enable_profiling(),
            _ => {}
        }

        let deadline = Instant::ZERO + spec.horizon;
        let start = WallInstant::now();
        match &mut world.bed {
            Bed::Serial(tb) => tb.run_until(deadline),
            Bed::Sharded(tb) => {
                tb.run_until(deadline);
            }
        }
        let wall_s = start.elapsed().as_secs_f64();

        let host_sent = world.sent.load(Ordering::Relaxed);
        let out = match &mut world.bed {
            Bed::Serial(tb) => {
                let all_units = tb.network().observer_expected() as u64;
                let raw = Raw {
                    events: tb.events_dispatched(),
                    facts: snapshot_facts(tb.snapshots()),
                    spreads_us: spreads_to_us(tb.sync_spreads(all_units)),
                    host_sent,
                    host_delivered: tb.network().instr.host_rx.iter().sum(),
                    pending: tb.pending() as u64,
                    metrics: tb.network_mut().take_metrics(),
                };
                let mut out = outcome(spec, world.shape, raw);
                out.profile = opts.profile.then(|| tb.take_profile());
                out
            }
            Bed::Sharded(tb) => {
                let all_units = tb.network_mut(0).observer_expected() as u64;
                let raw = Raw {
                    events: tb.events_dispatched(),
                    facts: snapshot_facts(tb.snapshots()),
                    spreads_us: spreads_to_us(tb.sync_spreads(all_units)),
                    host_sent,
                    host_delivered: tb.host_rx().iter().sum(),
                    pending: tb.pending(),
                    metrics: tb.take_metrics(),
                };
                let mut out = outcome(spec, world.shape, raw);
                out.profile = opts.profile.then(|| tb.take_profile());
                let s = tb.shard_stats();
                out.shard_stats = Some((s.windows, s.messages));
                out
            }
        };
        DesTrial {
            setup_s,
            wall_s,
            out,
        }
    })
}

/// Median and, where the sample supports it, p90 of an ascending series.
pub fn p50_p90(sorted: &[f64]) -> (Option<f64>, Option<f64>) {
    if sorted.is_empty() {
        return (None, None);
    }
    let p90 = stats::supports_percentile(sorted.len(), 0.9).then(|| stats::percentile(sorted, 0.9));
    (Some(stats::percentile(sorted, 0.5)), p90)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fig9 input at a smoke horizon: 10 ms, because the first
    /// periodic snapshot is issued at 4 ms and a shorter run seals none,
    /// leaving every seed with the digest of an empty list.
    fn smoke() -> DesSpec {
        DesSpec {
            horizon: Duration::from_millis(10),
            ..FIG9_LEAF_SPINE
        }
    }

    #[test]
    fn same_seed_same_digest_and_another_seed_another() {
        let a = run_trial(&smoke(), 9, TrialOpts::default());
        let b = run_trial(&smoke(), 9, TrialOpts::default());
        let c = run_trial(&smoke(), 10, TrialOpts::default());
        assert!(a.out.snapshots >= 1);
        assert_eq!((a.out.digest, a.out.events), (b.out.digest, b.out.events));
        assert_ne!(a.out.digest, c.out.digest);
        assert!(a.out.problems.is_empty(), "{:?}", a.out.problems);
        assert!(a.out.host_delivered > 0 && a.out.host_delivered <= a.out.host_sent);
    }

    #[test]
    fn stale_unsealed_epochs_count_as_failed() {
        let horizon = Duration::from_millis(60);
        let retry = Duration::from_millis(20);
        // Epochs 1..=14 initiated (4 ms apart); 3 and 14 never sealed.
        let sealed: Vec<u64> = (1..=13).filter(|&e| e != 3).collect();
        // Epoch 3 was issued at 12 ms (48 ms old): stale. Epoch 14 at
        // 56 ms is merely in flight.
        let period = Duration::from_millis(4);
        assert_eq!(stale_unsealed(14, &sealed, period, horizon, retry), 1);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        assert_eq!(p50_p90(&few), (Some(49.0), None));
        let enough: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(p50_p90(&enough), (Some(49.0), Some(89.0)));
        assert_eq!(p50_p90(&[]), (None, None));
    }
}
