//! The traced driver: the serial engine's loop, owned by the benchmark so
//! that a span can be taken at each layer boundary without touching the
//! crates being measured.
//!
//! It is `Testbed` + `Simulation::run_until` spelled out: the same four
//! initial events, the same `(time, insertion order)` queue, and the
//! handler run into a parked trampoline scheduler whose follow-ups are
//! forwarded in the order it drains them — the construction
//! `Network::handle_profiled` uses, and for the same reason byte-identical
//! to the untraced run. The digest check in `layers` holds it to that.

use crate::des::{self, DesOutcome, DesSpec};
use fabric::network::{DriverConfig, NetEvent, Network};
use fabric::switchmod::SnapshotConfig;
use fabric::testbed::TestbedConfig;
use fabric::topology::Topology;
use fabric::traffic::Source;
use netsim::queue::EventQueue;
use netsim::sim::{Scheduler, World};
use netsim::time::{Duration, Instant};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant as WallInstant;
use telemetry::MetricKind;

/// Every this-many-th event is kept as full spans.
const SAMPLE_EVERY: u64 = 1024;

/// Event kinds the ledger names. Anything else (faults, polling — absent
/// from these workloads) is pooled, so a variant added later still counts.
pub const KINDS: [&str; 15] = [
    "ArriveIngress",
    "EnqueueEgress",
    "StartTx",
    "TxDone",
    "DeliverHost",
    "HostWake",
    "ScheduleSnapshot",
    "DeviceInitiate",
    "UnitInitiate",
    "NotifyArrive",
    "CpProcess",
    "ReportArrive",
    "ObserverTick",
    "KeepaliveTick",
    "other",
];

/// `(index into KINDS, snapshot epoch the event belongs to or 0)`.
fn classify(ev: &NetEvent) -> (usize, u64) {
    match ev {
        NetEvent::ArriveIngress { .. } => (0, 0),
        NetEvent::EnqueueEgress { .. } => (1, 0),
        NetEvent::StartTx { .. } => (2, 0),
        NetEvent::TxDone { .. } => (3, 0),
        NetEvent::DeliverHost { .. } => (4, 0),
        NetEvent::HostWake { .. } => (5, 0),
        NetEvent::ScheduleSnapshot => (6, 0),
        NetEvent::DeviceInitiate { epoch, .. } => (7, *epoch),
        NetEvent::UnitInitiate { epoch, .. } => (8, *epoch),
        NetEvent::NotifyArrive { .. } => (9, 0),
        NetEvent::CpProcess { .. } => (10, 0),
        NetEvent::ReportArrive { report, .. } => (11, report.epoch),
        NetEvent::ObserverTick => (12, 0),
        NetEvent::KeepaliveTick => (13, 0),
        _ => (14, 0),
    }
}

/// One recorded span. `parent` indexes the span list; spans of one
/// snapshot share `epoch` (0 for data-path events, which belong to none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub epoch: u64,
}

/// Count and busy host-nanoseconds of one (layer, kind).
#[derive(Debug, Default, Clone, Copy)]
pub struct Busy {
    pub count: u64,
    pub ns: u64,
}

impl Busy {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.ns += ns;
    }

    pub fn ns_per_op(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug, Clone)]
pub struct TracedRun {
    pub wall_s: f64,
    pub out: DesOutcome,
    /// `netsim::queue` pops and pushes.
    pub pop: Busy,
    pub push: Busy,
    /// `fabric::network` dispatch by event kind, indexed like [`KINDS`].
    pub handle: [Busy; KINDS.len()],
    /// Queue depth at every sampled event, ascending.
    pub depths: Vec<f64>,
    pub spans: Vec<Span>,
}

impl TracedRun {
    pub fn handle_busy_s(&self) -> f64 {
        self.handle.iter().map(|b| b.ns).sum::<u64>() as f64 / 1e9
    }
}

/// The world of one Fig. 10 probe: a single `ports`-port switch, no
/// traffic, snapshots without channel state every `1/rate_hz`, and no
/// forced finalization — `experiments::fig10`'s configuration.
pub fn rate_probe_config(seed: u64, rate_hz: f64) -> TestbedConfig {
    let mut cfg = TestbedConfig::new(SnapshotConfig {
        modulus: 4_096,
        channel_state: false,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    });
    cfg.seed = seed;
    cfg.driver = DriverConfig {
        snapshot_period: Some(Duration::from_nanos((1e9 / rate_hz) as u64)),
        device_timeout: Duration::from_secs(3600),
        ..DriverConfig::default()
    };
    cfg
}

/// Run `topo` under `cfg` with `sources` (host `i` gets `sources[i]`) to
/// `horizon`, recording spans. `sent` is the counter the sources feed.
pub fn run(
    spec: &DesSpec,
    topo: Topology,
    cfg: TestbedConfig,
    sources: Vec<Box<dyn Source>>,
    sent: &Arc<AtomicU64>,
) -> TracedRun {
    let shape = des::Shape::of(&topo);
    let mut net = Network::new(
        topo,
        cfg.snapshot,
        cfg.lb,
        cfg.latency,
        cfg.driver.clone(),
        cfg.queue_capacity_bytes,
        cfg.seed,
    );
    // `Testbed::new`'s initial events, then `set_source`'s, in its order.
    let mut queue: EventQueue<NetEvent> = EventQueue::new();
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
    for (host, source) in (0u32..).zip(sources) {
        net.set_source(host, source);
        queue.push(Instant::ZERO, NetEvent::HostWake { host });
    }

    let deadline = Instant::ZERO + spec.horizon;
    let mut tramp: Scheduler<NetEvent> = Scheduler::parked_at(Instant::ZERO);
    let mut pop = Busy::default();
    let mut push = Busy::default();
    let mut handle = [Busy::default(); KINDS.len()];
    let mut depths = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut events = 0u64;

    // Three clock reads per event: the end of one event's push span is the
    // start of the next one's pop span.
    let origin = WallInstant::now();
    let since = |t: WallInstant| t.duration_since(origin).as_nanos() as u64;
    let mut t0 = origin;
    loop {
        let popped = queue.pop_at_or_before(deadline);
        let t1 = WallInstant::now();
        let Some((now, ev)) = popped else {
            break;
        };
        pop.add((t1 - t0).as_nanos() as u64);
        let (kind, epoch) = classify(&ev);
        tramp.repark(now);
        net.handle(now, ev, &mut tramp);
        let t2 = WallInstant::now();
        handle[kind].add((t2 - t1).as_nanos() as u64);
        let mut pushed = 0u64;
        while let Some((at, follow_up)) = tramp.drain_next() {
            queue.push(at, follow_up);
            pushed += 1;
        }
        let t3 = WallInstant::now();
        push.count += pushed;
        push.ns += (t3 - t2).as_nanos() as u64;

        if events.is_multiple_of(SAMPLE_EVERY) {
            depths.push(queue.len() as f64);
            let parent = spans.len() as u32;
            let mut keep = |name, start, end, parent| {
                spans.push(Span {
                    name,
                    start_ns: since(start),
                    end_ns: since(end),
                    parent,
                    epoch,
                })
            };
            keep("event", t0, t3, None);
            keep("netsim.queue.pop", t0, t1, Some(parent));
            keep(KINDS[kind], t1, t2, Some(parent));
            keep("netsim.queue.push", t2, t3, Some(parent));
        }
        events += 1;
        t0 = t3;
    }
    let wall_s = origin.elapsed().as_secs_f64();

    let all_units = net.observer_expected() as u64;
    let spreads_us = net
        .instr
        .sync
        .values()
        .filter(|(_, _, n)| *n >= all_units)
        .map(|&(lo, hi, _)| hi.saturating_since(lo).as_micros_f64())
        .collect();
    let raw = des::Raw {
        events,
        facts: des::snapshot_facts(&net.instr.snapshots),
        spreads_us,
        host_sent: sent.load(Ordering::Relaxed),
        host_delivered: net.instr.host_rx.iter().sum(),
        pending: queue.len() as u64,
        metrics: net.take_metrics(),
    };
    let out = des::outcome(spec, shape, raw);
    depths.sort_by(f64::total_cmp);
    TracedRun {
        wall_s,
        out,
        pop,
        push,
        handle,
        depths,
        spans,
    }
}

/// The traced counterpart of `des::run_trial` for a serial DES workload.
pub fn run_des(spec: &DesSpec, seed: u64) -> TracedRun {
    let topo = spec.topo.build();
    let sent = Arc::new(AtomicU64::new(0));
    let sources = des::counted_sources(spec.topo, topo.num_hosts(), seed, &sent)
        .into_iter()
        .map(|s| Box::new(s) as Box<dyn Source>)
        .collect();
    run(
        spec,
        topo,
        des::testbed_config(spec.topo, seed, true),
        sources,
        &sent,
    )
}

/// JSON lines, one span each, for `--spans-out`.
pub fn render_spans(spans: &[Span]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"epoch\":{}}}",
            s.name, s.start_ns, s.end_ns, s.epoch
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::des::TrialOpts;

    #[test]
    fn traced_driver_reproduces_the_testbed_bit_for_bit() {
        let spec = DesSpec {
            horizon: Duration::from_millis(10),
            ..des::FIG9_LEAF_SPINE
        };
        let plain = des::run_trial(&spec, 9, TrialOpts::default());
        let traced = run_des(&spec, 9);
        assert!(plain.out.snapshots >= 1, "the horizon must seal a snapshot");
        assert_eq!(
            (
                traced.out.digest,
                traced.out.events,
                traced.out.host_delivered
            ),
            (plain.out.digest, plain.out.events, plain.out.host_delivered)
        );
        assert_eq!(traced.out.spreads_us, plain.out.spreads_us);
        assert_eq!(traced.out.pending, plain.out.pending);

        // Every event is one pop and one dispatch; spans nest under theirs.
        assert_eq!(traced.pop.count, traced.out.events);
        let dispatched: u64 = traced.handle.iter().map(|b| b.count).sum();
        assert_eq!(dispatched, traced.out.events);
        assert_eq!(traced.spans.len() % 4, 0);
        for (i, s) in traced.spans.iter().enumerate() {
            assert!(s.end_ns >= s.start_ns);
            match s.parent {
                None => assert_eq!(s.name, "event"),
                Some(p) => {
                    let parent = &traced.spans[p as usize];
                    assert!((p as usize) < i && parent.name == "event");
                    assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
                }
            }
        }
        let line = render_spans(&traced.spans[..1]);
        assert!(crate::json::parse(line.trim()).is_ok(), "{line}");
    }
}
