//! The user-facing testbed harness.
//!
//! Wraps a [`Network`] in a [`Simulation`], wires up the periodic driver
//! events (observer maintenance, keepalives, optional periodic snapshots
//! and polling sweeps), and exposes the measurement outputs the experiment
//! binaries consume.

use crate::latency::LatencyModel;
use crate::network::{
    DriverConfig, NetEvent, Network, NotifFaultConfig, PollSweepRecord, SnapshotRecord,
};
use crate::switchmod::SnapshotConfig;
use crate::topology::{LbKind, Topology};
use crate::traffic::Source;
use netsim::rng::SeedEcho;
use netsim::sim::Simulation;
use netsim::time::{Duration, Instant};
use speedlight_core::consistency::DeliveryEvent;
use speedlight_core::Epoch;

/// Everything needed to stand a testbed up.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// Snapshot protocol configuration.
    pub snapshot: SnapshotConfig,
    /// Load balancer run by every switch.
    pub lb: LbKind,
    /// Latency/capacity models.
    pub latency: LatencyModel,
    /// Observer/driver timing.
    pub driver: DriverConfig,
    /// Egress queue capacity per port, bytes.
    pub queue_capacity_bytes: u64,
    /// Master seed (all randomness derives from it).
    pub seed: u64,
}

impl TestbedConfig {
    /// A testbed with the given snapshot configuration and defaults
    /// everywhere else.
    pub fn new(snapshot: SnapshotConfig) -> TestbedConfig {
        TestbedConfig {
            snapshot,
            lb: LbKind::Ecmp,
            latency: LatencyModel::default(),
            driver: DriverConfig::default(),
            queue_capacity_bytes: 300_000, // ~200 MTU packets
            seed: 0xC0FFEE,
        }
    }
}

/// A ready-to-run simulated deployment.
pub struct Testbed {
    sim: Simulation<Network>,
    /// Echoes the master seed if a test panics while the testbed is alive,
    /// so any failing deterministic run is replayable.
    _seed_echo: SeedEcho,
}

impl Testbed {
    /// Build a testbed over `topo` and start the driver loops.
    pub fn new(topo: Topology, cfg: TestbedConfig) -> Testbed {
        let network = Network::new(
            topo,
            cfg.snapshot,
            cfg.lb,
            cfg.latency,
            cfg.driver.clone(),
            cfg.queue_capacity_bytes,
            cfg.seed,
        );
        let mut sim = Simulation::new(network);
        sim.schedule_at(Instant::ZERO, NetEvent::ObserverTick);
        if cfg.driver.keepalive_period.is_some() {
            sim.schedule_at(Instant::ZERO, NetEvent::KeepaliveTick);
        }
        if let Some(first) = cfg.driver.snapshot_period {
            sim.schedule_after(first, NetEvent::ScheduleSnapshot);
        }
        if let Some(first) = cfg.driver.poll_period {
            sim.schedule_after(first, NetEvent::PollSweep);
        }
        Testbed {
            sim,
            _seed_echo: SeedEcho::new("fabric::testbed", cfg.seed),
        }
    }

    /// Attach a traffic source to `host` and schedule its first wake.
    pub fn set_source(&mut self, host: u32, start: Instant, source: Box<dyn Source>) {
        self.sim.world_mut().set_source(host, source);
        self.sim.schedule_at(start, NetEvent::HostWake { host });
    }

    /// Ask the observer to initiate one snapshot at `at`.
    pub fn snapshot_at(&mut self, at: Instant) {
        self.sim.schedule_at(at, NetEvent::ScheduleSnapshot);
    }

    /// Start one polling sweep at `at`.
    pub fn poll_at(&mut self, at: Instant) {
        self.sim.schedule_at(at, NetEvent::PollSweep);
    }

    /// Run the simulation until `deadline` (events at the deadline still
    /// execute) and park the clock there.
    ///
    /// Resumable: with profiling off, advancing in any number of calls
    /// to increasing deadlines is exactly the run one call to the last
    /// deadline makes — same events, same order, same snapshots and
    /// metrics (`tests/stepped_run.rs`), which is what lets a caller
    /// watch the world between slices (`experiments::fig10` stops a rate
    /// probe at its first notification drop). With profiling on every
    /// call also closes the profile window open at its deadline, so the
    /// simulation is still the same run but the profile's window counts
    /// and stall sums depend on where the calls stopped.
    pub fn run_until(&mut self, deadline: Instant) {
        self.sim.run_until(deadline);
        // Close any profile window left open at the boundary — mirrors
        // the sharded engine's deadline-truncated final window. A no-op
        // when profiling is disabled.
        self.sim.world_mut().profile_run_boundary();
    }

    /// Enable the deterministic profiler (see `obs::profile`). Call
    /// before the first `run_until` so the accounting covers the run.
    pub fn enable_profiling(&mut self) {
        self.sim.world_mut().enable_profiler();
    }

    /// Render and consume the profile.
    ///
    /// # Panics
    /// If profiling was never enabled.
    pub fn take_profile(&mut self) -> obs::profile::Profile {
        self.sim.world_mut().take_profile()
    }

    /// Kill device `dev`'s snapshot participation at `at` (it keeps
    /// forwarding, but stops answering snapshot traffic).
    pub fn fail_device_at(&mut self, at: Instant, dev: u16) {
        self.sim.schedule_at(at, NetEvent::DeviceFault { sw: dev });
    }

    /// Flap the link at (`dev`, `port`): down at `at`, back up after
    /// `down_for`. Both endpoints of the cable are affected.
    pub fn flap_link_at(&mut self, at: Instant, dev: u16, port: u16, down_for: Duration) {
        self.sim.schedule_at(
            at,
            NetEvent::LinkSet {
                sw: dev,
                port,
                up: false,
            },
        );
        self.sim.schedule_at(
            at + down_for,
            NetEvent::LinkSet {
                sw: dev,
                port,
                up: true,
            },
        );
    }

    /// Crash device `dev`'s control plane at `at`; it restarts with
    /// pristine tracking state after `down_for` and resyncs to the latest
    /// issued epoch.
    pub fn crash_cp_at(&mut self, at: Instant, dev: u16, down_for: Duration) {
        self.sim.schedule_at(at, NetEvent::CpCrash { sw: dev });
        self.sim
            .schedule_at(at + down_for, NetEvent::CpRecover { sw: dev });
    }

    /// Install a notification-export fault (drop / duplicate / reorder
    /// every `cfg.every`-th notification) on device `dev`.
    pub fn set_notif_fault(&mut self, dev: u16, cfg: NotifFaultConfig) {
        self.sim.world_mut().set_notif_fault(dev, cfg);
    }

    /// Degrade the PTP time plane for every subsequent initiation fan-out.
    pub fn set_ptp_degradation(&mut self, deg: timesync::PtpDegradation) {
        self.sim.world_mut().set_ptp_degradation(deg);
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.sim.now()
    }

    /// Total events the underlying simulation has dispatched.
    pub fn events_dispatched(&self) -> u64 {
        self.sim.events_dispatched()
    }

    /// Number of pending events in the simulation queue.
    pub fn pending(&self) -> usize {
        self.sim.pending()
    }

    /// The network (for inspection and advanced setup).
    pub fn network(&self) -> &Network {
        self.sim.world()
    }

    /// Mutable access to the network.
    pub fn network_mut(&mut self) -> &mut Network {
        self.sim.world_mut()
    }

    /// Completed snapshots so far.
    pub fn snapshots(&self) -> &[SnapshotRecord] {
        &self.sim.world().instr.snapshots
    }

    /// Polling sweeps so far.
    pub fn polls(&self) -> &[PollSweepRecord] {
        &self.sim.world().instr.polls
    }

    /// Enable the per-delivery replay log (conformance tests).
    pub fn enable_delivery_log(&mut self) {
        self.sim.world_mut().enable_delivery_log();
    }

    /// The replay log, if enabled.
    pub fn delivery_log(&self) -> Option<&[DeliveryEvent]> {
        self.sim.world().instr.delivery_log.as_deref()
    }

    /// Enable JSONL tracing, stamping the `trace.meta` header at the
    /// current simulated time. Call before the run whose events you want.
    pub fn enable_trace(&mut self) {
        let t = self.sim.now().as_nanos();
        self.sim
            .world_mut()
            .set_trace(obs::sinks::TraceSink::jsonl(), t);
    }

    /// Buffered trace lines (empty when tracing is off).
    pub fn trace_lines(&self) -> Vec<String> {
        self.sim.world().trace_lines()
    }

    /// Drain the buffered trace lines, leaving the sink active.
    pub fn take_trace_lines(&mut self) -> Vec<String> {
        self.sim.world_mut().take_trace_lines()
    }

    /// Export the metrics registry (plus switch/observer totals) as JSON.
    pub fn export_metrics(&mut self) -> String {
        self.sim.world_mut().export_metrics()
    }

    /// Fig. 9's synchronization metric: for each epoch with at least
    /// `min_units` progress notifications, the spread between the earliest
    /// and latest data-plane timestamp.
    pub fn sync_spreads(&self, min_units: u64) -> Vec<(Epoch, Duration)> {
        self.sim
            .world()
            .instr
            .sync
            .iter()
            .filter(|(_, (_, _, n))| *n >= min_units)
            .map(|(&e, &(lo, hi, _))| (e, hi.saturating_since(lo)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::Emission;
    use netsim::rng::SimRng;
    use speedlight_core::observer::UnitOutcome;
    use telemetry::MetricKind;
    use wire::FlowKey;

    /// A steady CBR source: `rate_pps` packets/s of `bytes`-byte packets
    /// to a fixed destination.
    struct Cbr {
        dst: u32,
        src: u32,
        rate_pps: u64,
        bytes: u32,
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
                bytes: self.bytes,
            });
            Some(now + Duration::from_nanos(1_000_000_000 / self.rate_pps))
        }
    }

    fn cbr(src: u32, dst: u32, rate_pps: u64) -> Box<Cbr> {
        Box::new(Cbr {
            dst,
            src,
            rate_pps,
            bytes: 1_000,
        })
    }

    fn leaf_spine_testbed(channel_state: bool) -> Testbed {
        let topo = Topology::leaf_spine(2, 2, 3);
        let snap = if channel_state {
            SnapshotConfig::packet_count_cs(16)
        } else {
            SnapshotConfig {
                modulus: 16,
                channel_state: false,
                ingress_metric: MetricKind::PacketCount,
                egress_metric: MetricKind::PacketCount,
            }
        };
        let mut tb = Testbed::new(topo, TestbedConfig::new(snap));
        // Cross-leaf traffic both ways keeps every uplink busy.
        for h in 0..3u32 {
            tb.set_source(h, Instant::ZERO, cbr(h, h + 3, 50_000));
            tb.set_source(h + 3, Instant::ZERO, cbr(h + 3, h, 50_000));
        }
        tb
    }

    #[test]
    fn traffic_flows_end_to_end() {
        let mut tb = leaf_spine_testbed(false);
        tb.run_until(Instant::from_nanos(10_000_000)); // 10 ms
        let rx: u64 = tb.network().instr.host_rx.iter().sum();
        assert!(rx > 2_000, "expected steady delivery, got {rx}");
        assert_eq!(tb.network().instr.unroutable_drops, 0);
        for sw in &tb.network().switches {
            assert!(sw.stats.ingress_packets > 0, "switch {} idle", sw.id);
        }
    }

    #[test]
    fn snapshot_completes_without_channel_state() {
        let mut tb = leaf_spine_testbed(false);
        tb.snapshot_at(Instant::from_nanos(2_000_000));
        tb.run_until(Instant::from_nanos(50_000_000));
        let snaps = tb.snapshots();
        assert_eq!(snaps.len(), 1, "snapshot must complete");
        let rec = &snaps[0];
        assert!(!rec.forced, "no timeout should be needed");
        assert_eq!(rec.snapshot.epoch, 1);
        // 4 switches × (uplinks+hosts ports vary) × 2 directions units.
        assert_eq!(rec.snapshot.units.len(), tb.network().observer_expected());
        assert!(rec.snapshot.fully_consistent());
    }

    #[test]
    fn snapshot_completes_with_channel_state() {
        let mut tb = leaf_spine_testbed(true);
        tb.snapshot_at(Instant::from_nanos(2_000_000));
        tb.run_until(Instant::from_nanos(100_000_000));
        let snaps = tb.snapshots();
        assert_eq!(
            snaps.len(),
            1,
            "CS snapshot must complete, even if it \
                                    needs keepalives"
        );
        assert!(!snaps[0].forced);
        // Consistent packet-count snapshots: every unit usable.
        assert!(
            snaps[0].snapshot.fully_consistent(),
            "outcomes: {:?}",
            snaps[0]
                .snapshot
                .units
                .values()
                .filter(|o| !matches!(o, UnitOutcome::Value { .. }))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn snapshot_conservation_audit_passes() {
        let mut tb = leaf_spine_testbed(true);
        tb.network_mut().enable_audit();
        for i in 1..=3u64 {
            tb.snapshot_at(Instant::from_nanos(2_000_000 * i));
        }
        tb.run_until(Instant::from_nanos(150_000_000));
        let snaps = tb.snapshots().to_vec();
        assert_eq!(snaps.len(), 3);
        let audit = tb.network().instr.audit.as_ref().unwrap();
        let mut reports = Vec::new();
        for rec in &snaps {
            for (uid, outcome) in &rec.snapshot.units {
                if let UnitOutcome::Value { local, channel } = outcome {
                    reports.push((*uid, rec.snapshot.epoch, *local, Some(*channel)));
                }
            }
        }
        assert!(!reports.is_empty());
        let violations = audit.audit(reports);
        assert!(violations.is_empty(), "violations: {violations:#?}");
    }

    #[test]
    fn sync_spread_is_recorded_and_small() {
        let mut tb = leaf_spine_testbed(false);
        tb.snapshot_at(Instant::from_nanos(2_000_000));
        tb.run_until(Instant::from_nanos(50_000_000));
        let spreads = tb.sync_spreads(8);
        assert!(!spreads.is_empty());
        let (_, spread) = spreads[0];
        // Initiation-driven sync: tens of microseconds (Fig. 9 territory),
        // far below a polling sweep.
        assert!(
            spread < Duration::from_micros(200),
            "sync spread {spread} too large"
        );
    }

    #[test]
    fn polling_sweep_collects_every_unit() {
        let mut tb = leaf_spine_testbed(false);
        tb.poll_at(Instant::from_nanos(2_000_000));
        tb.run_until(Instant::from_nanos(100_000_000));
        let polls = tb.polls();
        assert_eq!(polls.len(), 1);
        assert_eq!(polls[0].samples.len(), tb.network().observer_expected());
        // Polling spread: milliseconds, orders of magnitude above snapshots.
        let lo = polls[0].samples.iter().map(|s| s.2).min().unwrap();
        let hi = polls[0].samples.iter().map(|s| s.2).max().unwrap();
        assert!(hi.saturating_since(lo) > Duration::from_millis(1));
    }

    #[test]
    fn periodic_snapshots_accumulate() {
        let topo = Topology::leaf_spine(2, 2, 3);
        let mut cfg = TestbedConfig::new(SnapshotConfig {
            modulus: 64,
            channel_state: false,
            ingress_metric: MetricKind::PacketCount,
            egress_metric: MetricKind::PacketCount,
        });
        cfg.driver.snapshot_period = Some(Duration::from_millis(5));
        let mut tb = Testbed::new(topo, cfg);
        for h in 0..3u32 {
            tb.set_source(h, Instant::ZERO, cbr(h, h + 3, 50_000));
            tb.set_source(h + 3, Instant::ZERO, cbr(h + 3, h, 50_000));
        }
        tb.run_until(Instant::from_nanos(100_000_000)); // 100 ms
        assert!(
            tb.snapshots().len() >= 15,
            "expected ~19 periodic snapshots, got {}",
            tb.snapshots().len()
        );
        // Monotone epochs, all complete.
        for (i, rec) in tb.snapshots().iter().enumerate() {
            assert!(!rec.forced, "snapshot {i} forced");
        }
    }

    #[test]
    fn packet_counters_are_causally_consistent_totals() {
        // With a packet-count metric and channel state, the network-wide
        // consistent total (local + channel) must equal the omniscient
        // expected total at the cut — spot-checked via audit above; here we
        // sanity-check that totals grow across epochs.
        let mut tb = leaf_spine_testbed(true);
        for i in 1..=2u64 {
            tb.snapshot_at(Instant::from_nanos(3_000_000 * i));
        }
        tb.run_until(Instant::from_nanos(150_000_000));
        let snaps = tb.snapshots();
        assert_eq!(snaps.len(), 2);
        let t1 = snaps[0].snapshot.consistent_total();
        let t2 = snaps[1].snapshot.consistent_total();
        assert!(t1 > 0);
        assert!(t2 > t1, "totals must grow with traffic: {t1} vs {t2}");
    }

    #[test]
    fn trace_captures_snapshot_lifecycle() {
        let mut tb = leaf_spine_testbed(true);
        tb.enable_trace();
        tb.snapshot_at(Instant::from_nanos(3_000_000));
        tb.run_until(Instant::from_nanos(50_000_000));
        assert_eq!(tb.snapshots().len(), 1);

        let lines = tb.trace_lines();
        assert!(!lines.is_empty());
        let parsed: Vec<_> = lines
            .iter()
            .map(|l| obs::json::parse_line(l).expect("trace line parses"))
            .collect();

        // Header first, then nondecreasing sim-time stamps.
        assert_eq!(
            obs::json::field(&parsed[0], "ev").and_then(|v| v.as_str()),
            Some("trace.meta")
        );
        assert_eq!(
            obs::json::field(&parsed[0], "schema").and_then(|v| v.as_str()),
            Some(obs::TRACE_SCHEMA)
        );
        let mut last_t = 0u64;
        for ev in &parsed {
            let t = obs::json::field(ev, "t")
                .and_then(|v| v.as_u64())
                .expect("t field");
            assert!(t >= last_t, "timestamps must be nondecreasing");
            last_t = t;
        }

        // Every lifecycle stage shows up at least once.
        let kinds: std::collections::BTreeSet<&str> = parsed
            .iter()
            .filter_map(|e| obs::json::field(e, "ev").and_then(|v| v.as_str()))
            .collect();
        for kind in [
            "snap.initiate",
            "dev.initiate",
            "unit.initiate",
            "unit.save",
            "marker.seen",
            "notify.export",
            "cp.process",
            "cp.report",
            "report.arrive",
            "obs.finalize",
            "snap.complete",
        ] {
            assert!(kinds.contains(kind), "missing lifecycle event {kind}");
        }

        let metrics = tb.export_metrics();
        assert!(metrics.contains("\"snapshots.initiated\": 1"));
        assert!(metrics.contains("\"snapshots.completed\": 1"));
        assert!(metrics.contains("snapshot.completion_latency_ns"));
        assert!(metrics.contains("cp.queue_depth"));
    }
}
