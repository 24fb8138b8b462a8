//! The network world: event interpreter tying switches, hosts, control
//! planes, and the observer together.

use crate::latency::LatencyModel;
use crate::packet::{Packet, PacketRole};
use crate::shard::{lookahead_of, DomainTable};
use crate::switchmod::{QueuedPacket, SnapshotConfig, Switch};
use crate::topology::{LbKind, PortPeer, Topology};
use crate::traffic::{Emission, Source};
use netsim::rng::SimRng;
use netsim::sim::{Scheduler, World};
use netsim::time::{Duration, Instant};
use speedlight_core::consistency::{ConservationChecker, Delivery, DeliveryEvent};
use speedlight_core::control::Report;
use speedlight_core::device::Arrival;
use speedlight_core::observer::GlobalSnapshot;
use speedlight_core::pipeline::{PipelineConfig, PipelineObserver};
use speedlight_core::types::{ChannelId, Notification, UnitId, CPU_CHANNEL};
use speedlight_core::{Epoch, WrappedId};
use std::collections::BTreeMap;
use telemetry::MetricKind;
use wire::{PacketType, SnapshotHeader};

/// Events of the network world.
#[derive(Debug)]
pub enum NetEvent {
    /// A packet reaches a switch's ingress pipeline.
    ArriveIngress {
        /// Switch.
        sw: u16,
        /// Ingress port.
        port: u16,
        /// The packet.
        pkt: Packet,
    },
    /// A routed packet reaches its egress queue.
    EnqueueEgress {
        /// Switch.
        sw: u16,
        /// Egress port.
        port: u16,
        /// The packet with its upstream channel.
        qp: QueuedPacket,
    },
    /// Never scheduled, and a no-op if it were: an idle port transmits
    /// inside `EnqueueEgress`. The variant stays only because the
    /// benchmark's traced pass names it; it goes with that ledger row.
    StartTx {
        /// Switch.
        sw: u16,
        /// Port.
        port: u16,
    },
    /// The transmitter's wake at the port's `busy_until`: the frame on
    /// the wire is done and a packet is queued behind it. At most one is
    /// pending per port (`EgressPort::wake_pending`).
    TxDone {
        /// Switch.
        sw: u16,
        /// Port.
        port: u16,
    },
    /// A packet reaches a host NIC.
    DeliverHost {
        /// Host.
        host: u32,
        /// The packet.
        pkt: Packet,
    },
    /// A host traffic source wake-up.
    HostWake {
        /// Host.
        host: u32,
    },
    /// The observer initiates the next snapshot epoch.
    ScheduleSnapshot,
    /// A device control plane's snapshot timer fires (clock-skewed).
    DeviceInitiate {
        /// Device.
        sw: u16,
        /// Epoch to initiate.
        epoch: Epoch,
    },
    /// One ingress unit executes the initiation.
    UnitInitiate {
        /// Device.
        sw: u16,
        /// Port.
        port: u16,
        /// Epoch.
        epoch: Epoch,
    },
    /// A data-plane notification lands at the control-plane socket.
    NotifyArrive {
        /// Device.
        sw: u16,
        /// The notification.
        n: Notification,
    },
    /// The control plane picks up the next queued notification.
    CpProcess {
        /// Device.
        sw: u16,
    },
    /// A control-plane report reaches the observer.
    ReportArrive {
        /// Reporting device.
        device: u16,
        /// The report.
        report: Report,
    },
    /// Periodic observer maintenance (retries, timeouts).
    ObserverTick,
    /// Start one polling sweep over all switches (baseline framework).
    PollSweep,
    /// Issue the next counter read in a switch's polling sequence.
    PollRead {
        /// Switch.
        sw: u16,
        /// Index into the unit list (`0..2*ports`).
        idx: u16,
        /// Sweep this read belongs to.
        sweep: u32,
    },
    /// A deferred poll read completes (the value is sampled now).
    PollComplete {
        /// Switch.
        sw: u16,
        /// Index being completed.
        idx: u16,
        /// Sweep.
        sweep: u32,
        /// The unit whose counter is read.
        uid: UnitId,
    },
    /// Periodic liveness check: inject keepalives for stalled channels.
    KeepaliveTick,
    /// Fault injection: an inter-switch link changes state. Both endpoints
    /// observe the change; frames serialized onto a down link are lost.
    LinkSet {
        /// One endpoint switch.
        sw: u16,
        /// The port on `sw` whose link changes.
        port: u16,
        /// New link state.
        up: bool,
    },
    /// Fault injection: a device's snapshot agent dies (forwarding keeps
    /// working; shims pass through untouched).
    DeviceFault {
        /// The failing device.
        sw: u16,
    },
    /// Fault injection: a device's control plane crashes, losing its
    /// tracking state and queued notifications.
    CpCrash {
        /// The crashing device.
        sw: u16,
    },
    /// A crashed control plane restarts and resynchronizes against the
    /// observer's newest issued epoch.
    CpRecover {
        /// The recovering device.
        sw: u16,
    },
    /// Flush a reorder-held notification that no later notification
    /// displaced (keeps the reorder fault loss-free).
    NotifRelease {
        /// The device holding the notification.
        sw: u16,
        /// Hold sequence number (stale releases are ignored).
        seq: u64,
    },
    /// Sharded mode only: the control plane's keepalive check, shipped to
    /// one device. In the serial engine [`NetEvent::KeepaliveTick`] reads
    /// every device's completion state directly; across shards that state
    /// lives on the owner, so the tick emits one probe per device and the
    /// owner evaluates it locally.
    KeepaliveProbe {
        /// The probed device.
        sw: u16,
        /// Oldest pending epoch at probe time.
        epoch: Epoch,
    },
    /// Sharded mode only: a recovering control plane's resync target. The
    /// newest issued epoch is observer (control-domain) state, so
    /// [`NetEvent::CpRecover`] executes on the control domain and ships
    /// the epoch to the device owner via this event.
    CpRecoverSync {
        /// The recovering device.
        sw: u16,
        /// Resync target (newest issued epoch at recovery time).
        epoch: Epoch,
    },
}

/// A completed snapshot with timing metadata.
#[derive(Debug, Clone)]
pub struct SnapshotRecord {
    /// The assembled snapshot.
    pub snapshot: GlobalSnapshot,
    /// When the observer issued it.
    pub issued_at: Instant,
    /// When assembly finished.
    pub completed_at: Instant,
    /// Whether a timeout forced finalization.
    pub forced: bool,
}

/// One polling sweep's samples.
#[derive(Debug, Clone, Default)]
pub struct PollSweepRecord {
    /// Per-unit `(unit, value, read_time)`.
    pub samples: Vec<(UnitId, u64, Instant)>,
}

/// Observer/driver configuration.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Lead time between issuing a snapshot and its scheduled instant.
    pub lead_time: Duration,
    /// Period between automatic snapshots (`None` = only explicit ones).
    pub snapshot_period: Option<Duration>,
    /// Period between polling sweeps (`None` = no polling).
    pub poll_period: Option<Duration>,
    /// Re-initiate epochs incomplete for longer than this.
    pub retry_timeout: Duration,
    /// Force-finalize (exclude lagging devices) after this.
    pub device_timeout: Duration,
    /// Observer maintenance tick.
    pub tick: Duration,
    /// Keepalive injection check period (channel-state liveness).
    pub keepalive_period: Option<Duration>,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            lead_time: Duration::from_millis(1),
            snapshot_period: None,
            poll_period: None,
            retry_timeout: Duration::from_millis(20),
            device_timeout: Duration::from_millis(200),
            tick: Duration::from_millis(5),
            keepalive_period: Some(Duration::from_millis(2)),
        }
    }
}

/// What a notification-export fault does to the selected notifications
/// (adversarial testing; see the conformance crate's `notif=` spec key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifFaultKind {
    /// Silently drop them.
    Drop,
    /// Deliver them twice.
    Dup,
    /// Hold one and release it after the next notification from a
    /// *different* unit (cross-unit reorder; per-unit FIFO survives, as it
    /// would over PCIe DMA).
    Reorder,
}

/// Per-device notification-export fault configuration.
#[derive(Debug, Clone, Copy)]
pub struct NotifFaultConfig {
    /// What happens to the selected notifications.
    pub kind: NotifFaultKind,
    /// Select every `every`-th exported notification (≥ 2).
    pub every: u32,
}

/// Live state of one device's notification-export fault.
#[derive(Debug)]
pub(crate) struct NotifFaultState {
    cfg: NotifFaultConfig,
    /// Notifications seen so far (selection counter).
    seen: u64,
    /// A held notification awaiting reorder, with its hold sequence.
    pub(crate) held: Option<(Notification, u64)>,
    /// Monotone hold sequence (stale `NotifRelease` events are ignored).
    seq: u64,
}

/// How long a reorder-held notification waits for a displacing arrival
/// before the safety flush releases it anyway.
const REORDER_HOLD: Duration = Duration::from_micros(200);

/// Measurement side-channels filled while the simulation runs.
#[derive(Debug, Default)]
pub struct Instrumentation {
    /// Completed snapshots, in completion order.
    pub snapshots: Vec<SnapshotRecord>,
    /// Per-epoch earliest/latest data-plane progress timestamp and count
    /// (Fig. 9's synchronization metric).
    pub sync: BTreeMap<Epoch, (Instant, Instant, u64)>,
    /// Polling sweeps.
    pub polls: Vec<PollSweepRecord>,
    /// Omniscient conservation audit (tests enable this).
    pub audit: Option<ConservationChecker>,
    /// Per-delivery replay log for the conformance oracle (opt-in): every
    /// tagged packet a unit processed, with unwrapped tag and pre-update
    /// metric value, in processing order.
    pub delivery_log: Option<Vec<DeliveryEvent>>,
    /// Packets delivered per host, indexed by host ID.
    pub host_rx: Vec<u64>,
    /// Packets dropped because a FIB had no route.
    pub unroutable_drops: u64,
    /// Structured snapshot-lifecycle trace (default: off, near-zero cost).
    pub trace: obs::sinks::TraceSink,
    /// Deterministic metrics registry (counters/gauges/histograms), fed at
    /// lifecycle events only — never on the per-packet path.
    pub metrics: obs::metrics::Metrics,
}

struct Host {
    attached: (u16, u16),
    source: Option<Box<dyn Source>>,
    nic_busy_until: Instant,
    /// Traffic RNG, pre-forked from the base stream once (forking is
    /// pure, so caching it preserves every draw exactly).
    rng: SimRng,
}

/// In sharded mode (`lookahead` set), clamp a cross-domain delay to the
/// lookahead; the serial engine passes delays through untouched.
fn cross_domain(lookahead: Option<Duration>, delay: Duration) -> Duration {
    lookahead.map_or(delay, |la| delay.max(la))
}

/// Where the event interpreter schedules follow-ups. The serial engine
/// hands it the real [`Scheduler`]; the profiled serial run and the
/// sharded engine (`crate::shard`) hand it adapters that classify each
/// follow-up on its way to the one queue it ends up in.
pub(crate) trait Sched {
    /// The instant of the event being handled.
    fn now(&self) -> Instant;

    /// Schedule `event` at the absolute instant `at`.
    fn at(&mut self, at: Instant, event: NetEvent);

    /// Schedule `event` to fire `delay` from now.
    #[inline]
    fn after(&mut self, delay: Duration, event: NetEvent) {
        self.at(self.now() + delay, event);
    }
}

impl Sched for Scheduler<NetEvent> {
    #[inline]
    fn now(&self) -> Instant {
        Scheduler::now(self)
    }

    #[inline]
    fn at(&mut self, at: Instant, event: NetEvent) {
        Scheduler::at(self, at, event);
    }

    #[inline]
    fn after(&mut self, delay: Duration, event: NetEvent) {
        Scheduler::after(self, delay, event);
    }
}

/// Deterministic profiling state (see `obs::profile`): the domain
/// classification table and the per-domain accounting core.
pub(crate) struct NetProfiler {
    pub(crate) table: DomainTable,
    pub(crate) core: obs::profile::DomainProfiler,
}

impl NetProfiler {
    /// Count `ev`, emitted while handling an event of domain `src`, as a
    /// message if it leaves that domain; returns its destination domain.
    #[inline]
    pub(crate) fn classify(&mut self, src: u32, ev: &NetEvent) -> u32 {
        let dst = self.table.of(ev);
        if dst != src {
            self.core.msg(src as usize, dst as usize);
        }
        dst
    }
}

/// The serial profiler's scheduler: counts each follow-up's cross-domain
/// edge and forwards it to the real [`Scheduler`] in emission order — the
/// order the unprofiled handler inserts in, so execution with profiling
/// enabled is byte-identical to without.
struct ProfiledSched<'a> {
    sched: &'a mut Scheduler<NetEvent>,
    prof: &'a mut NetProfiler,
    /// Domain of the event being handled.
    domain: u32,
}

impl Sched for ProfiledSched<'_> {
    fn now(&self) -> Instant {
        self.sched.now()
    }

    fn at(&mut self, at: Instant, event: NetEvent) {
        self.prof.classify(self.domain, &event);
        self.sched.at(at, event);
    }
}

/// The simulated network (implements [`World`]).
pub struct Network {
    topo: Topology,
    /// The switches.
    pub switches: Vec<Switch>,
    hosts: Vec<Host>,
    /// The snapshot observer.
    pub observer: PipelineObserver,
    latency: LatencyModel,
    driver: DriverConfig,
    snapshot_cfg: SnapshotConfig,
    rng: SimRng,
    /// Epoch → issue time (retry/timeout bookkeeping).
    issued: BTreeMap<Epoch, Instant>,
    /// Epoch → last re-initiation time (retry pacing).
    retried: BTreeMap<Epoch, Instant>,
    next_sweep: u32,
    /// Reused emission buffer for host wakes (avoids a per-wake alloc).
    scratch_emissions: Vec<Emission>,
    /// PTP degradation schedule folded into initiation offsets
    /// (all-zero = healthy).
    ptp_deg: timesync::PtpDegradation,
    /// Newest epoch the observer has issued (CP crash-recovery resync
    /// target).
    last_issued_epoch: Epoch,
    /// Sharded execution mode: the conservative lookahead
    /// (partition-independent: the minimum inter-device link propagation
    /// delay in the topology). `None` is the serial engine, byte-for-byte
    /// unchanged. In sharded mode every event belongs to a *domain*
    /// (device, host, or the control plane) and nondeterminism is
    /// domain-scoped, so a domain's behavior cannot depend on how domains
    /// are packed onto shards: device-domain latency draws come from each
    /// device's own stream ([`Switch`]'s `rng`; the global stream stays
    /// exclusively control-domain), and every cross-domain follow-up is
    /// clamped to at least the lookahead, which is what lets the
    /// conservative window protocol run shards in parallel without ever
    /// reordering a domain's event stream.
    sharded: Option<Duration>,
    /// Deterministic profiler (`None` = disabled: the event hot path pays
    /// exactly one branch).
    profiler: Option<Box<NetProfiler>>,
    /// Instrumentation outputs.
    pub instr: Instrumentation,
}

impl Network {
    /// Build a network over `topo`.
    pub fn new(
        topo: Topology,
        snapshot_cfg: SnapshotConfig,
        lb_kind: LbKind,
        latency: LatencyModel,
        driver: DriverConfig,
        queue_capacity_bytes: u64,
        seed: u64,
    ) -> Network {
        let rng = SimRng::new(seed);
        let fibs = topo.build_fibs();
        let num_sw = topo.num_switches();
        // The pair analysis needs every FIB at once; compute it for all
        // switches first so each FIB can then be moved (not cloned) into
        // its switch.
        let pairs: Vec<Vec<bool>> = (0..num_sw)
            .map(|s| used_port_pairs(&topo, &fibs, s))
            .collect();
        let mut switches = Vec::with_capacity(usize::from(num_sw));
        for ((s, fib), considered_pair) in (0..num_sw).zip(fibs).zip(pairs) {
            let ports = topo.num_ports(s);
            // External channel considered iff the peer is a switch (hosts
            // do not participate in the snapshot protocol).
            let considered_ext: Vec<bool> = (0..ports)
                .map(|p| {
                    matches!(
                        topo.ports[usize::from(s)][usize::from(p)],
                        PortPeer::Switch { .. }
                    )
                })
                .collect();
            switches.push(Switch::new(
                s,
                ports,
                &snapshot_cfg,
                lb_kind,
                rng.fork_idx("lb-salt", u64::from(s)).below(u64::MAX),
                queue_capacity_bytes,
                fib,
                considered_ext,
                considered_pair,
            ));
        }
        let mut observer = PipelineObserver::new(PipelineConfig::for_modulus(snapshot_cfg.modulus));
        for sw in &switches {
            observer.register_device(sw.id, sw.unit_ids());
        }
        let host_rng_base = rng.fork("hosts");
        let hosts: Vec<Host> = (0u64..)
            .zip(&topo.hosts)
            .map(|(h, &attached)| Host {
                attached,
                source: None,
                nic_busy_until: Instant::ZERO,
                rng: host_rng_base.fork_idx("host", h),
            })
            .collect();
        let instr = Instrumentation {
            host_rx: vec![0; hosts.len()],
            ..Instrumentation::default()
        };
        Network {
            topo,
            switches,
            hosts,
            observer,
            latency,
            driver,
            snapshot_cfg,
            rng,
            issued: BTreeMap::new(),
            retried: BTreeMap::new(),
            next_sweep: 0,
            scratch_emissions: Vec::new(),
            ptp_deg: timesync::PtpDegradation::default(),
            last_issued_epoch: 0,
            sharded: None,
            profiler: None,
            instr,
        }
    }

    /// Switch this network replica into sharded execution mode (see
    /// `crate::shard`). Must be called before any event is handled: the
    /// mode changes which RNG stream device-domain draws consume, so
    /// flipping it mid-run would splice two incompatible executions.
    /// `lookahead` is the conservative window the cross-domain clamps
    /// enforce.
    pub(crate) fn enable_sharded_mode(&mut self, lookahead: Duration) {
        for (s, switch) in (0u64..).zip(&mut self.switches) {
            switch.rng = Some(self.rng.fork_idx("dev", s));
        }
        self.sharded = Some(lookahead);
    }

    /// Install a PTP degradation schedule (adversarial scenarios).
    pub fn set_ptp_degradation(&mut self, deg: timesync::PtpDegradation) {
        self.ptp_deg = deg;
    }

    /// Install a notification-export fault on `sw` (adversarial scenarios).
    pub fn set_notif_fault(&mut self, sw: u16, cfg: NotifFaultConfig) {
        assert!(cfg.every >= 2, "every=1 would starve the control plane");
        self.switches[usize::from(sw)].notif_fault = Some(NotifFaultState {
            cfg,
            seen: 0,
            held: None,
            seq: 0,
        });
    }

    /// Attach a traffic source to a host.
    pub fn set_source(&mut self, host: u32, source: Box<dyn Source>) {
        self.hosts[host as usize].source = Some(source);
    }

    /// Enable the omniscient conservation audit (tests).
    pub fn enable_audit(&mut self) {
        self.instr.audit = Some(ConservationChecker::new());
    }

    /// Enable the per-delivery replay log (conformance tests).
    pub fn enable_delivery_log(&mut self) {
        self.instr.delivery_log = Some(Vec::new());
    }

    /// Install a trace sink and stamp the `trace.meta` header event at
    /// `t_ns` (every trace opens with it, carrying the schema tag).
    pub fn set_trace(&mut self, sink: obs::sinks::TraceSink, t_ns: u64) {
        self.instr.trace = sink;
        obs::event!(
            &mut self.instr.trace,
            t_ns,
            "trace.meta",
            schema = obs::TRACE_SCHEMA,
        );
    }

    /// Buffered trace lines (empty when tracing is off).
    pub fn trace_lines(&self) -> Vec<String> {
        self.instr.trace.lines()
    }

    /// Drain the buffered trace lines, leaving the sink active.
    pub fn take_trace_lines(&mut self) -> Vec<String> {
        self.instr.trace.take_lines()
    }

    /// Export the metrics registry as schema'd JSON, folding in the
    /// simulated switch/observer totals as gauges first so a single
    /// document captures the whole run.
    pub fn export_metrics(&mut self) -> String {
        self.fold_metrics();
        self.instr.metrics.to_json()
    }

    /// Take the metrics registry (folded like [`Self::export_metrics`]),
    /// leaving an empty one behind. For harnesses that add their own
    /// gauges before rendering.
    pub fn take_metrics(&mut self) -> obs::metrics::Metrics {
        self.fold_metrics();
        std::mem::take(&mut self.instr.metrics)
    }

    /// Enable the deterministic profiler (sim-time accounting per
    /// partition domain; see DESIGN.md §16). Call before the first event
    /// is handled — the accounting must cover the whole run. The window
    /// lookahead is taken from sharded mode when active, otherwise
    /// derived from the topology exactly as the sharded engine would, so
    /// serial and sharded profiles of one scenario use the same window
    /// definition.
    pub fn enable_profiler(&mut self) {
        let table = DomainTable::new(&self.topo);
        let lookahead = self.sharded.unwrap_or_else(|| lookahead_of(&self.topo));
        self.profiler = Some(Box::new(NetProfiler {
            table,
            core: obs::profile::DomainProfiler::new(table.count() as usize, lookahead.as_nanos()),
        }));
    }

    /// Sharded engine: account the window that just closed at `horizon`.
    pub(crate) fn profile_window_close(&mut self, horizon_ns: u64) {
        if let Some(p) = &mut self.profiler {
            p.core.window_close(horizon_ns);
        }
    }

    /// Serial engine: close any window left open at a `run_until`
    /// boundary (mirrors the barrier engine's deadline truncation).
    pub(crate) fn profile_run_boundary(&mut self) {
        if let Some(p) = &mut self.profiler {
            p.core.close_boundary();
        }
    }

    /// Remove and return the profiling state: for the duration of one
    /// handler call, so a scheduling adapter can hold it while
    /// [`Network::handle_event`] holds the network, and for good when the
    /// sharded testbed merges per-replica cores before rendering.
    pub(crate) fn take_net_profiler(&mut self) -> Option<Box<NetProfiler>> {
        self.profiler.take()
    }

    /// Put back what [`Network::take_net_profiler`] lent out.
    pub(crate) fn restore_net_profiler(&mut self, prof: Option<Box<NetProfiler>>) {
        self.profiler = prof;
    }

    /// Render this replica's profile: per-domain accounting plus the
    /// observer-pipeline section. Consumes the profiler (the accounting
    /// is a whole-run artifact).
    ///
    /// # Panics
    /// If profiling was never enabled.
    pub fn take_profile(&mut self) -> obs::profile::Profile {
        let Some(mut prof) = self.profiler.take() else {
            panic!("take_profile called but profiling was never enabled");
        };
        prof.core.close_boundary();
        let pipeline = self.observer.stats().profile_section();
        crate::shard::profile_of(&prof.table, &prof.core, pipeline)
    }

    fn fold_metrics(&mut self) {
        let mut ingress = 0u64;
        let mut egress = 0u64;
        let mut queue_drops = 0u64;
        let mut notify_drops = 0u64;
        let mut keepalives = 0u64;
        for sw in &self.switches {
            ingress += sw.stats.ingress_packets;
            egress += sw.stats.egress_packets;
            queue_drops += sw.stats.queue_drops;
            notify_drops += sw.stats.notify_drops;
            keepalives += sw.stats.keepalives_sent;
        }
        let m = &mut self.instr.metrics;
        m.gauge_set("switch.ingress_packets", ingress);
        m.gauge_set("switch.egress_packets", egress);
        m.gauge_set("switch.queue_drops", queue_drops);
        m.gauge_set("switch.notify_drops", notify_drops);
        m.gauge_set("switch.keepalives_sent", keepalives);
        m.gauge_set("observer.finalized", self.observer.finalized_count());
        m.gauge_set("net.unroutable_drops", self.instr.unroutable_drops);
        self.observer.fold_metrics(m);
    }

    /// Apply a link-state change to this replica's topology view: both
    /// endpoints of the cable flip together. This is the state-only half
    /// of the [`NetEvent::LinkSet`] handler; the sharded testbed delivers
    /// it to the replica owning the *peer* endpoint (which must see the
    /// outage to stop/resume serializing frames) without repeating the
    /// owner-side metrics and trace emission.
    pub(crate) fn apply_link_shadow(&mut self, sw: u16, port: u16, up: bool) {
        let mut set = |sw: u16, port: u16| {
            if let Some(slot) = self
                .switches
                .get_mut(usize::from(sw))
                .and_then(|s| s.link_up.get_mut(usize::from(port)))
            {
                *slot = up;
            }
        };
        set(sw, port);
        let peer = self
            .topo
            .ports
            .get(usize::from(sw))
            .and_then(|ports| ports.get(usize::from(port)));
        if let Some(&PortPeer::Switch {
            switch: peer,
            port: peer_port,
        }) = peer
        {
            set(peer, peer_port);
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Total processing units the observer expects per snapshot.
    pub fn observer_expected(&self) -> usize {
        self.switches.iter().map(|s| s.unit_ids().len()).sum()
    }

    /// Enqueue a notification at the CP socket and kick the consumer.
    /// This is the post-fault-interception delivery path: everything that
    /// reaches it is what the control plane actually observes.
    fn deliver_notification(
        &mut self,
        sw: u16,
        n: Notification,
        now: Instant,
        sched: &mut impl Sched,
    ) {
        let capacity = self.latency.cp_queue_capacity;
        let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
            return;
        };
        if switch.cp_queue.len() >= capacity {
            switch.stats.notify_drops += 1;
            self.instr.metrics.inc("cp.notify_dropped");
            obs::event!(
                &mut self.instr.trace,
                now.as_nanos(),
                "notify.drop",
                dev = sw,
            );
            return;
        }
        switch.cp_queue.push_back((n, now));
        let depth = switch.cp_queue.len() as u64;
        self.instr.metrics.inc("cp.notifications");
        self.instr.metrics.gauge_max("cp.queue_depth_max", depth);
        self.instr
            .metrics
            .observe("cp.queue_depth", &obs::metrics::DEPTH_BOUNDS, depth);
        obs::event!(
            &mut self.instr.trace,
            now.as_nanos(),
            "notify.export",
            dev = sw,
            depth = depth,
        );
        if !switch.cp_busy {
            switch.cp_busy = true;
            sched.at(now, NetEvent::CpProcess { sw });
        }
    }

    /// Run one unit's snapshot + metric pipeline over a packet, stamping
    /// the outgoing shim header.
    fn unit_process(
        &mut self,
        uid: UnitId,
        channel: ChannelId,
        pkt: &mut Packet,
        now: Instant,
        sched: &mut impl Sched,
    ) {
        let Network {
            switches,
            latency,
            snapshot_cfg,
            rng,
            instr,
            ..
        } = self;
        let Some(switch) = switches.get_mut(usize::from(uid.device)) else {
            return;
        };
        let (sw, port) = (uid.device, uid.port);
        let is_init = pkt.is_initiation();
        let modulus = snapshot_cfg.modulus;

        // Metric pre-read (the value a snapshot would save) + contribution.
        let enabled = switch.snapshot_enabled;
        let bank = switch.bank(uid.direction);
        let (pre_value, contrib) = (bank.read(port), bank.contrib(pkt.size));

        let incoming_channel_id = pkt.snapshot.map(|h| h.channel_id).unwrap_or(0);
        match pkt.snapshot {
            Some(hdr) if enabled => {
                let arrival = Arrival {
                    channel,
                    id: WrappedId::from_raw(hdr.snapshot_id % modulus, modulus),
                    local_state: pre_value,
                    contrib,
                    init: is_init,
                };
                // With the default `TraceSink::Off` the unit's trace is one
                // always-false `enabled()` branch (`fig9_leaf_spine`
                // `wall_s` in BENCHMARK.json holds the line on it).
                let t_ns = now.as_nanos();
                let Some(out) = switch.agent.on_packet(uid, arrival, &mut instr.trace, t_ns) else {
                    return;
                };
                if let Some(log) = &mut instr.delivery_log {
                    log.push(DeliveryEvent {
                        unit: uid,
                        channel,
                        tag: out.tag,
                        local_state: pre_value,
                        contrib,
                        init: is_init,
                    });
                }
                // Metric update after the snapshot logic (Fig. 3 l.13);
                // initiations skip the update-counter stage (§6).
                if !is_init {
                    switch
                        .bank_mut(uid.direction)
                        .on_packet(port, now, pkt.size);
                }
                if let Some(n) = out.notification {
                    // Fig. 9's sync metric: every epoch a unit or one of its
                    // channels newly reaches (always a notified move), at
                    // data-plane time.
                    for epoch in [out.reached, out.channel_reached].into_iter().flatten() {
                        let e = instr.sync.entry(epoch).or_insert((now, now, 0));
                        e.0 = e.0.min(now);
                        e.1 = e.1.max(now);
                        e.2 += 1;
                    }
                    let delay = latency
                        .notify_pcie
                        .sample(switch.rng.as_mut().unwrap_or(rng));
                    sched.after(delay, NetEvent::NotifyArrive { sw, n });
                }
                // Initiations are excluded from the audit.
                if !is_init && channel != CPU_CHANNEL {
                    if let Some(audit) = &mut instr.audit {
                        audit.record(Delivery {
                            unit: uid,
                            tag: out.tag,
                            local_after: out.epoch.max(out.tag),
                            contrib,
                        });
                    }
                }
                pkt.snapshot = Some(SnapshotHeader {
                    packet_type: if is_init {
                        PacketType::Initiation
                    } else {
                        PacketType::Data
                    },
                    snapshot_id: out.out_sid.raw(),
                    channel_id: incoming_channel_id,
                });
            }
            _ => {
                // Headerless traffic (fresh from a host) or snapshots
                // disabled on this device: metric update only; the receive
                // is a purely local event for the audit.
                let current = if enabled {
                    switch.agent.current(uid)
                } else {
                    None
                };
                if !is_init {
                    switch
                        .bank_mut(uid.direction)
                        .on_packet(port, now, pkt.size);
                    if let (Some(audit), Some((_, local_after))) = (&mut instr.audit, current) {
                        audit.record(Delivery {
                            unit: uid,
                            tag: local_after,
                            local_after,
                            contrib,
                        });
                    }
                }
                if let (None, Some((sid, _))) = (pkt.snapshot, current) {
                    // First snapshot-enabled device on the path inserts the
                    // shim, stamped with the unit's current epoch (§10).
                    pkt.snapshot = Some(SnapshotHeader::data(sid.raw()));
                    pkt.size += wire::WIRE_LEN as u32;
                }
            }
        }
    }

    /// Route a processed packet out of `sw` (entered via ingress `in_port`).
    fn route(
        &mut self,
        sw: u16,
        in_port: u16,
        mut pkt: Packet,
        now: Instant,
        sched: &mut impl Sched,
    ) {
        let out_port = {
            // Destructure so the ECMP pick can borrow the load balancer
            // while the next-hop slice stays borrowed from the FIB — one
            // lookup instead of three (version stamp included).
            let Some(Switch {
                fib,
                lb,
                fib_version_seen,
                ..
            }) = self.switches.get_mut(usize::from(sw))
            else {
                return;
            };
            let hops = fib.next_hops(pkt.dst_host);
            let out = match hops.len() {
                0 => None,
                1 => hops.first().copied(),
                n => hops.get(lb.pick(&pkt.flow, now, n)).copied(),
            };
            if out.is_some() {
                *fib_version_seen = fib.version;
            }
            out
        };
        let Some(out_port) = out_port else {
            self.instr.unroutable_drops += 1;
            return;
        };
        if let Some(hdr) = &mut pkt.snapshot {
            hdr.channel_id = in_port; // §5.1 Channel ID
        }
        sched.after(
            self.latency.fabric_delay,
            NetEvent::EnqueueEgress {
                sw,
                port: out_port,
                qp: QueuedPacket {
                    pkt,
                    from_port: in_port,
                },
            },
        );
    }

    /// The transmitter of `(sw, port)`, run inline by `EnqueueEgress` on
    /// an idle port and by the port's `TxDone` wake: initiations are
    /// processed and die in place, frames onto a down link are lost
    /// after the egress pipeline ran, and the next real packet starts
    /// serializing. The wake re-arms at `busy_until` only while more
    /// packets are queued.
    fn start_tx(&mut self, sw: u16, port: u16, now: Instant, sched: &mut impl Sched) {
        let (s, p) = (usize::from(sw), usize::from(port));
        let (Some(props), Some(peer)) = (
            self.topo.link_props.get(s).and_then(|l| l.get(p)).copied(),
            self.topo.ports.get(s).and_then(|l| l.get(p)).copied(),
        ) else {
            return;
        };
        loop {
            // One switch borrow for wake + dequeue + gauge.
            let Some(switch) = self.switches.get_mut(s) else {
                return;
            };
            let Some(ep) = switch.egress_ports.get_mut(p) else {
                return;
            };
            ep.wake_pending = false;
            let Some(mut qp) = ep.dequeue() else {
                return;
            };
            let depth = ep.queue.len() as u64;
            if switch.eg_metrics.kind() == MetricKind::QueueDepth {
                switch.eg_metrics.set_gauge(port, depth);
            }
            let channel = ChannelId(qp.from_port);
            self.unit_process(UnitId::egress(sw, port), channel, &mut qp.pkt, now, sched);
            if qp.pkt.is_initiation() {
                continue; // dropped after egress processing (§6)
            }
            // One switch borrow for link state + counters + busy period.
            let Some(switch) = self.switches.get_mut(s) else {
                return;
            };
            if switch.link_up.get(p) != Some(&true) {
                // Link down: the egress pipeline ran (the unit saw the
                // packet) but the frame is lost on the wire.
                switch.stats.link_drops += 1;
                continue;
            }
            let Some(ep) = switch.egress_ports.get_mut(p) else {
                return;
            };
            let ser = Duration::from_nanos(props.serialize_ns(qp.pkt.size));
            ep.busy_until = now + ser;
            ep.wake_pending = !ep.queue.is_empty();
            let rearm = ep.wake_pending;
            switch.stats.egress_packets += 1;
            let prop = Duration::from_nanos(props.prop_ns);
            let mut pkt = qp.pkt;
            match peer {
                PortPeer::Host(h) => {
                    pkt.snapshot = None; // strip the shim before delivery
                    sched.after(ser + prop, NetEvent::DeliverHost { host: h, pkt });
                }
                PortPeer::Switch {
                    switch: peer_sw,
                    port: peer_port,
                } => {
                    sched.after(
                        ser + prop,
                        NetEvent::ArriveIngress {
                            sw: peer_sw,
                            port: peer_port,
                            pkt,
                        },
                    );
                }
                PortPeer::Unused => {}
            }
            if rearm {
                sched.after(ser, NetEvent::TxDone { sw, port });
            }
            return;
        }
    }

    /// Fan initiations for `epoch` out to `devices` aimed at true time
    /// `target`, through the clock-offset/scheduling model.
    fn fan_out_initiations(
        &mut self,
        epoch: Epoch,
        target: Instant,
        devices: &[u16],
        sched: &mut impl Sched,
        now: Instant,
    ) {
        for &sw in devices {
            let dev = self.latency.initiation.sample_device(&mut self.rng);
            // Degraded PTP adds its deterministic extra offset on top of
            // the sampled residual; it never touches the RNG stream, so
            // degraded and healthy runs share every other draw.
            let offset_ns = dev
                .offset_ns
                .saturating_add(self.ptp_deg.extra_offset_ns(sw, target.as_nanos()));
            let base = if offset_ns >= 0 {
                target + Duration::from_nanos(offset_ns as u64)
            } else {
                Instant::from_nanos(target.as_nanos().saturating_sub(offset_ns.unsigned_abs()))
            };
            let mut at = (base + dev.sched).max(now);
            if let Some(lookahead) = self.sharded {
                // Control → device crosses domains: hold the initiation
                // outside the lookahead window. The lead time (ms) dwarfs
                // the lookahead (ns), so the clamp only ever bites on
                // retry fan-outs aimed at `now`.
                at = at.max(now + lookahead);
            }
            sched.at(at, NetEvent::DeviceInitiate { sw, epoch });
        }
    }

    /// Record a snapshot completion in the metrics registry and emit the
    /// `snap.complete` event (shared by the normal and forced paths).
    fn record_completion(
        &mut self,
        snapshot: &GlobalSnapshot,
        issued_at: Instant,
        now: Instant,
        forced: bool,
    ) {
        let dur = now.saturating_since(issued_at);
        let m = &mut self.instr.metrics;
        m.inc("snapshots.completed");
        if forced {
            m.inc("snapshots.forced");
        }
        m.observe(
            "snapshot.completion_latency_ns",
            &obs::metrics::LATENCY_BOUNDS_NS,
            dur.as_nanos(),
        );
        obs::event!(
            &mut self.instr.trace,
            now.as_nanos(),
            "snap.complete",
            epoch = snapshot.epoch,
            dur_ns = dur.as_nanos(),
            units = snapshot.units.len(),
            excluded = snapshot.excluded.len(),
            forced = forced,
        );
    }

    /// Apply a control-plane recovery on the device: clear the down gate
    /// and resynchronize tracking to `epoch` (shared by the serial
    /// `CpRecover` handler and the sharded `CpRecoverSync` one).
    fn cp_recover_apply(&mut self, sw: u16, epoch: Epoch, now: Instant) {
        if let Some(switch) = self.switches.get_mut(usize::from(sw)) {
            switch.agent.recover(epoch);
        }
        self.instr.metrics.inc("fault.cp_recovered");
        obs::event!(
            &mut self.instr.trace,
            now.as_nanos(),
            "fault.cp_recover",
            dev = sw,
            epoch = epoch,
        );
    }

    fn poll_unit_order(&self, sw: u16, idx: u16) -> Option<UnitId> {
        let ports = self.switches.get(usize::from(sw))?.ports();
        if idx < ports {
            Some(UnitId::ingress(sw, idx))
        } else if idx < 2 * ports {
            Some(UnitId::egress(sw, idx - ports))
        } else {
            None
        }
    }

    /// Does `sw` still owe `epoch` its reports while snapshotting? Then a
    /// keepalive round may unblock it.
    fn keepalive_due(&self, sw: u16, epoch: Epoch) -> bool {
        self.switches
            .get(usize::from(sw))
            .is_some_and(|s| s.snapshot_enabled && !s.agent.cp().device_complete(epoch))
    }

    /// Inject one round of keepalives at `sw`: every ingress unit's sid is
    /// broadcast through every egress queue, propagating snapshot IDs over
    /// silent channels (§6).
    fn inject_keepalives(&mut self, sw: u16, now: Instant, sched: &mut impl Sched) {
        let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
            return;
        };
        switch.stats.keepalives_sent += 1;
        self.instr.metrics.inc("keepalives.injected");
        obs::event!(
            &mut self.instr.trace,
            now.as_nanos(),
            "keepalive.inject",
            dev = sw,
        );
        let ports = switch.ports();
        for (p, unit) in (0..ports).zip(&switch.agent.units.ingress) {
            let sid = unit.sid();
            for q in 0..ports {
                let mut pkt = Packet::keepalive(u32::MAX);
                pkt.snapshot = Some(SnapshotHeader {
                    packet_type: PacketType::Data,
                    snapshot_id: sid.raw(),
                    channel_id: p,
                });
                sched.after(
                    self.latency.fabric_delay,
                    NetEvent::EnqueueEgress {
                        sw,
                        port: q,
                        qp: QueuedPacket { pkt, from_port: p },
                    },
                );
            }
        }
    }
}

/// Derive which (ingress, egress) port pairs of switch `s` carry traffic
/// under the computed routing: pair `(p, q)` is used iff some destination
/// routes out `q` while `p` can feed traffic toward it (host ports feed
/// everything they attach; switch ports feed what their owner routes
/// through us). Same-port pairs are always considered — initiations
/// traverse them (§6). Returned as a row-major `ports × ports` matrix
/// (`[p * ports + q]`), the layout [`Switch::new`] consumes.
fn used_port_pairs(topo: &Topology, fibs: &[crate::topology::Fib], s: u16) -> Vec<bool> {
    let ports = usize::from(topo.num_ports(s));
    let mut used = vec![false; ports * ports];
    for p in 0..ports {
        used[p * ports + p] = true;
    }
    for h in 0..topo.num_hosts() {
        let outs = fibs[usize::from(s)].next_hops(h);
        for (p, peer) in topo.ports[usize::from(s)].iter().enumerate().take(ports) {
            let feeds = match *peer {
                PortPeer::Host(src) => src != h,
                PortPeer::Switch {
                    switch: peer,
                    port: peer_port,
                } => fibs[usize::from(peer)].next_hops(h).contains(&peer_port),
                PortPeer::Unused => false,
            };
            if feeds {
                for &q in outs {
                    if usize::from(q) != p {
                        used[p * ports + usize::from(q)] = true;
                    }
                }
            }
        }
    }
    used
}

impl World for Network {
    type Event = NetEvent;

    fn handle(&mut self, now: Instant, event: NetEvent, sched: &mut Scheduler<NetEvent>) {
        // Profiled serial runs schedule through the classifying adapter;
        // sharded runs are profiled by the shard world (`crate::shard`),
        // which already classifies domains. Disabled profiling costs
        // exactly this one branch.
        if self.profiler.is_some() && self.sharded.is_none() {
            self.handle_profiled(now, event, sched);
        } else {
            self.handle_event(now, event, sched);
        }
    }
}

impl Network {
    /// Serial profiled dispatch: account the event under its domain and
    /// run the real handler against [`ProfiledSched`].
    fn handle_profiled(&mut self, now: Instant, event: NetEvent, sched: &mut Scheduler<NetEvent>) {
        let Some(mut prof) = self.profiler.take() else {
            panic!("handle_profiled without a profiler");
        };
        let domain = prof.table.of(&event);
        prof.core.observe_windowed(domain as usize, now.as_nanos());
        let mut profiled = ProfiledSched {
            sched,
            prof: &mut prof,
            domain,
        };
        self.handle_event(now, event, &mut profiled);
        self.profiler = Some(prof);
    }

    /// The event interpreter proper: every [`NetEvent`] arm.
    pub(crate) fn handle_event(&mut self, now: Instant, event: NetEvent, sched: &mut impl Sched) {
        match event {
            NetEvent::ArriveIngress { sw, port, mut pkt } => {
                let switch = self.switches.get_mut(usize::from(sw));
                let Some(switch) = switch.filter(|s| port < s.ports()) else {
                    return;
                };
                switch.stats.ingress_packets += 1;
                let uid = UnitId::ingress(sw, port);
                self.unit_process(uid, ChannelId(0), &mut pkt, now, sched);
                if pkt.role == PacketRole::Keepalive {
                    return; // keepalives die after propagating their ID
                }
                self.route(sw, port, pkt, now, sched);
            }

            NetEvent::EnqueueEgress { sw, port, qp } => {
                // One switch borrow for enqueue + gauge + the idle test.
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                let Some(ep) = switch.egress_ports.get_mut(usize::from(port)) else {
                    return;
                };
                if !ep.enqueue(qp) {
                    switch.stats.queue_drops += 1;
                    return;
                }
                let depth = ep.queue.len() as u64;
                let idle = ep.is_idle(now);
                // A busy port with no wake yet arms one for the end of
                // the frame on the wire.
                let wake = !idle && !ep.wake_pending;
                ep.wake_pending |= wake;
                let busy_until = ep.busy_until;
                if switch.eg_metrics.kind() == MetricKind::QueueDepth {
                    switch.eg_metrics.set_gauge(port, depth);
                }
                if idle {
                    self.start_tx(sw, port, now, sched);
                } else if wake {
                    sched.at(busy_until, NetEvent::TxDone { sw, port });
                }
            }

            NetEvent::TxDone { sw, port } => {
                self.start_tx(sw, port, now, sched);
            }

            // Never scheduled: see the variant's doc.
            NetEvent::StartTx { .. } => {}

            NetEvent::DeliverHost { host, pkt } => {
                debug_assert!(pkt.snapshot.is_none(), "shim must be stripped");
                let _ = pkt;
                if let Some(rx) = self.instr.host_rx.get_mut(host as usize) {
                    *rx += 1;
                }
            }

            NetEvent::HostWake { host } => {
                let Some(Host {
                    attached: (sw, port),
                    source: Some(source),
                    nic_busy_until,
                    rng,
                }) = self.hosts.get_mut(host as usize)
                else {
                    return;
                };
                let (sw, port) = (*sw, *port);
                let Some(&props) = self
                    .topo
                    .link_props
                    .get(usize::from(sw))
                    .and_then(|links| links.get(usize::from(port)))
                else {
                    return;
                };
                let mut rng = rng.fork_idx("wake", now.as_nanos());
                let mut emissions = std::mem::take(&mut self.scratch_emissions);
                let next = source.on_wake(now, &mut rng, &mut emissions);
                for em in emissions.drain(..) {
                    let start = (*nic_busy_until).max(now);
                    let ser = Duration::from_nanos(props.serialize_ns(em.bytes));
                    *nic_busy_until = start + ser;
                    let arrive = start + ser + Duration::from_nanos(props.prop_ns);
                    sched.at(
                        arrive,
                        NetEvent::ArriveIngress {
                            sw,
                            port,
                            pkt: Packet::data(em.flow, em.bytes),
                        },
                    );
                }
                self.scratch_emissions = emissions;
                if let Some(next) = next {
                    sched.at(next.max(now), NetEvent::HostWake { host });
                }
            }

            NetEvent::ScheduleSnapshot => {
                if let Some(epoch) = self
                    .observer
                    .begin_snapshot_traced(&mut self.instr.trace, now.as_nanos())
                {
                    self.instr.metrics.inc("snapshots.initiated");
                    let target = now + self.driver.lead_time;
                    self.issued.insert(epoch, now);
                    self.last_issued_epoch = self.last_issued_epoch.max(epoch);
                    let devices: Vec<u16> = self.observer.device_ids().collect();
                    self.fan_out_initiations(epoch, target, &devices, sched, now);
                }
                if let Some(period) = self.driver.snapshot_period {
                    sched.after(period, NetEvent::ScheduleSnapshot);
                }
            }

            NetEvent::DeviceInitiate { sw, epoch } => {
                obs::event!(
                    &mut self.instr.trace,
                    now.as_nanos(),
                    "dev.initiate",
                    dev = sw,
                    epoch = epoch,
                );
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                for port in 0..switch.ports() {
                    let extra = self
                        .latency
                        .initiation
                        .cpu_to_unit
                        .sample(switch.rng.as_mut().unwrap_or(&mut self.rng));
                    sched.after(extra, NetEvent::UnitInitiate { sw, port, epoch });
                }
            }

            NetEvent::UnitInitiate { sw, port, epoch } => {
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                if !switch.snapshot_enabled {
                    return;
                }
                // A retry that arrives after a newer initiation already
                // reached this unit is stale and must not be injected: a
                // wrapped marker from the past would alias to a phantom
                // future epoch and poison every downstream Last Seen
                // register.
                let Ok(marker) = switch.agent.admit_initiation(port, epoch) else {
                    self.instr.metrics.inc("init.stale_dropped");
                    obs::event!(
                        &mut self.instr.trace,
                        now.as_nanos(),
                        "init.stale",
                        dev = sw,
                        port = port,
                        epoch = epoch,
                    );
                    return;
                };
                obs::event!(
                    &mut self.instr.trace,
                    now.as_nanos(),
                    "unit.initiate",
                    dev = sw,
                    port = port,
                    epoch = epoch,
                );
                let mut pkt = Packet::initiation(marker.raw());
                let uid = UnitId::ingress(sw, port);
                self.unit_process(uid, CPU_CHANNEL, &mut pkt, now, sched);
                // Forward to the same-port egress unit through the fabric
                // (Fig. 6, arrow 3).
                sched.after(
                    self.latency.fabric_delay,
                    NetEvent::EnqueueEgress {
                        sw,
                        port,
                        qp: QueuedPacket {
                            pkt,
                            from_port: port,
                        },
                    },
                );
            }

            NetEvent::NotifyArrive { sw, n } => {
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                if switch.agent.cp_down() {
                    // The CP socket is dead: the export is lost, as a real
                    // PCIe write to a crashed agent would be.
                    self.instr.metrics.inc("fault.notify_lost_cp_down");
                    obs::event!(
                        &mut self.instr.trace,
                        now.as_nanos(),
                        "fault.notify.cp_down",
                        dev = sw,
                    );
                    return;
                }
                // Fault interception: decide what reaches the CP socket
                // before touching the queue (at most two deliveries: the
                // duplicate, or a released reorder hold plus the trigger).
                let mut deliveries: [Option<Notification>; 2] = [Some(n), None];
                if let Some(fs) = switch.notif_fault.as_mut() {
                    fs.seen += 1;
                    let selected = fs.seen % u64::from(fs.cfg.every) == 0;
                    match fs.cfg.kind {
                        NotifFaultKind::Drop if selected => {
                            deliveries = [None, None];
                            self.instr.metrics.inc("fault.notify_dropped");
                            obs::event!(
                                &mut self.instr.trace,
                                now.as_nanos(),
                                "fault.notify.drop",
                                dev = sw,
                            );
                        }
                        NotifFaultKind::Dup if selected => {
                            deliveries = [Some(n), Some(n)];
                            self.instr.metrics.inc("fault.notify_duplicated");
                            obs::event!(
                                &mut self.instr.trace,
                                now.as_nanos(),
                                "fault.notify.dup",
                                dev = sw,
                            );
                        }
                        NotifFaultKind::Reorder => {
                            if let Some((held, _)) = fs.held {
                                // A displacing arrival releases the hold.
                                // Cross-unit: the newcomer overtakes (the
                                // reorder). Same-unit: flush the hold first,
                                // preserving per-unit FIFO (§5.2's wrapped
                                // IDs only unwrap forward).
                                fs.held = None;
                                if held.unit != n.unit {
                                    deliveries = [Some(n), Some(held)];
                                    self.instr.metrics.inc("fault.notify_reordered");
                                    obs::event!(
                                        &mut self.instr.trace,
                                        now.as_nanos(),
                                        "fault.notify.reorder",
                                        dev = sw,
                                    );
                                } else {
                                    deliveries = [Some(held), Some(n)];
                                }
                            } else if selected {
                                fs.seq += 1;
                                let seq = fs.seq;
                                fs.held = Some((n, seq));
                                deliveries = [None, None];
                                sched.after(REORDER_HOLD, NetEvent::NotifRelease { sw, seq });
                                obs::event!(
                                    &mut self.instr.trace,
                                    now.as_nanos(),
                                    "fault.notify.hold",
                                    dev = sw,
                                );
                            }
                        }
                        _ => {}
                    }
                }
                for n in deliveries.into_iter().flatten() {
                    self.deliver_notification(sw, n, now, sched);
                }
            }

            NetEvent::NotifRelease { sw, seq } => {
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                let held = match switch.notif_fault.as_mut() {
                    Some(fs) if matches!(fs.held, Some((_, s)) if s == seq) => {
                        fs.held.take().map(|(n, _)| n)
                    }
                    _ => None,
                };
                if let Some(n) = held.filter(|_| !switch.agent.cp_down()) {
                    self.deliver_notification(sw, n, now, sched);
                }
            }

            NetEvent::LinkSet { sw, port, up } => {
                self.apply_link_shadow(sw, port, up);
                self.instr.metrics.inc(if up {
                    "fault.link_up"
                } else {
                    "fault.link_down"
                });
                obs::event!(
                    &mut self.instr.trace,
                    now.as_nanos(),
                    "fault.link",
                    dev = sw,
                    port = port,
                    up = up,
                );
            }

            NetEvent::DeviceFault { sw } => {
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                switch.snapshot_enabled = false;
                self.instr.metrics.inc("fault.device_killed");
                obs::event!(
                    &mut self.instr.trace,
                    now.as_nanos(),
                    "fault.device",
                    dev = sw,
                );
            }

            NetEvent::CpCrash { sw } => {
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                switch.crash_cp();
                self.instr.metrics.inc("fault.cp_crashed");
                obs::event!(
                    &mut self.instr.trace,
                    now.as_nanos(),
                    "fault.cp_crash",
                    dev = sw,
                );
            }

            NetEvent::CpRecover { sw } => {
                let epoch = self.last_issued_epoch;
                if let Some(lookahead) = self.sharded {
                    // The resync target is control-domain state, so this
                    // event runs on the control domain and ships the epoch
                    // to the device owner.
                    sched.after(lookahead, NetEvent::CpRecoverSync { sw, epoch });
                } else {
                    self.cp_recover_apply(sw, epoch, now);
                }
            }

            NetEvent::CpRecoverSync { sw, epoch } => {
                self.cp_recover_apply(sw, epoch, now);
            }

            NetEvent::KeepaliveProbe { sw, epoch } => {
                if self.keepalive_due(sw, epoch) {
                    self.inject_keepalives(sw, now, sched);
                }
            }

            NetEvent::CpProcess { sw } => {
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                let proc = self
                    .latency
                    .cp_process
                    .sample(switch.rng.as_mut().unwrap_or(&mut self.rng));
                let Some((n, _dp_time)) = switch.cp_queue.pop_front() else {
                    switch.cp_busy = false;
                    return;
                };
                let reports =
                    switch.process_notification_traced(&n, &mut self.instr.trace, now.as_nanos());
                for report in reports {
                    let lat = self
                        .latency
                        .report_latency
                        .sample(switch.rng.as_mut().unwrap_or(&mut self.rng));
                    // Device → control: the report crosses domains, so the
                    // sharded engine keeps it outside the lookahead window.
                    let delay = cross_domain(self.sharded, proc + lat);
                    sched.after(delay, NetEvent::ReportArrive { device: sw, report });
                }
                if switch.cp_queue.is_empty() {
                    switch.cp_busy = false;
                } else {
                    sched.after(proc, NetEvent::CpProcess { sw });
                }
            }

            NetEvent::ReportArrive { device, report } => {
                obs::event!(
                    &mut self.instr.trace,
                    now.as_nanos(),
                    "report.arrive",
                    dev = device,
                    epoch = report.epoch,
                );
                if let Some(snapshot) = self.observer.on_report_traced(
                    device,
                    report,
                    &mut self.instr.trace,
                    now.as_nanos(),
                ) {
                    let issued_at = self.issued.remove(&snapshot.epoch).unwrap_or(Instant::ZERO);
                    self.retried.remove(&snapshot.epoch);
                    self.record_completion(&snapshot, issued_at, now, false);
                    self.instr.snapshots.push(SnapshotRecord {
                        snapshot,
                        issued_at,
                        completed_at: now,
                        forced: false,
                    });
                }
            }

            NetEvent::ObserverTick => {
                // Maintenance begins by pumping the pipeline stages to
                // quiescence (a no-op for the synchronous embedding) so
                // timeout decisions below are made against fully-folded
                // state.
                self.observer
                    .pump_traced(&mut self.instr.trace, now.as_nanos());
                let pending: Vec<Epoch> = self.observer.pending_epochs().collect();
                // Initiations are cumulative (an initiation for epoch E
                // advances a unit past every epoch < E), so re-initiating
                // only the *newest* overdue epoch suffices for liveness —
                // and avoids an event storm when many epochs are pending.
                let mut newest_overdue: Option<(Epoch, Instant)> = None;
                for epoch in pending {
                    let Some(&issued_at) = self.issued.get(&epoch) else {
                        continue;
                    };
                    let age = now.saturating_since(issued_at);
                    if age >= self.driver.device_timeout {
                        if let Some(snapshot) = self.observer.force_finalize_traced(
                            epoch,
                            &mut self.instr.trace,
                            now.as_nanos(),
                        ) {
                            self.issued.remove(&epoch);
                            self.retried.remove(&epoch);
                            self.record_completion(&snapshot, issued_at, now, true);
                            self.instr.snapshots.push(SnapshotRecord {
                                snapshot,
                                issued_at,
                                completed_at: now,
                                forced: true,
                            });
                        }
                    } else if age >= self.driver.retry_timeout {
                        newest_overdue = Some((epoch, issued_at));
                    }
                }
                if let Some((epoch, _)) = newest_overdue {
                    let paced = self
                        .retried
                        .get(&epoch)
                        .map(|t| now.saturating_since(*t) >= self.driver.retry_timeout)
                        .unwrap_or(true);
                    if paced {
                        let lagging: Vec<u16> =
                            self.observer.lagging_devices(epoch).into_iter().collect();
                        if !lagging.is_empty() {
                            self.retried.insert(epoch, now);
                            self.instr.metrics.inc("snapshots.reinitiated");
                            obs::event!(
                                &mut self.instr.trace,
                                now.as_nanos(),
                                "snap.reinitiate",
                                epoch = epoch,
                                devices = lagging.len(),
                            );
                            self.fan_out_initiations(epoch, now, &lagging, sched, now);
                        }
                    }
                }
                sched.after(self.driver.tick, NetEvent::ObserverTick);
            }

            NetEvent::PollSweep => {
                let sweep = self.next_sweep;
                self.next_sweep += 1;
                self.instr.polls.push(PollSweepRecord::default());
                for sw in 0..self.switches.len() as u16 {
                    // Each device agent starts after its own request/wakeup
                    // delay — sweeps of different switches are offset. The
                    // draw stays on the control domain's stream (the sweep
                    // is observer-side); only the emission crosses domains.
                    let start = self.latency.poll_agent_start.sample(&mut self.rng);
                    let start = cross_domain(self.sharded, start);
                    sched.after(start, NetEvent::PollRead { sw, idx: 0, sweep });
                }
                if let Some(period) = self.driver.poll_period {
                    sched.after(period, NetEvent::PollSweep);
                }
            }

            NetEvent::PollRead { sw, idx, sweep } => {
                let Some(uid) = self.poll_unit_order(sw, idx) else {
                    return;
                };
                let Some(switch) = self.switches.get_mut(usize::from(sw)) else {
                    return;
                };
                let delay = self
                    .latency
                    .poll_read
                    .sample(switch.rng.as_mut().unwrap_or(&mut self.rng));
                sched.after(
                    delay,
                    NetEvent::PollComplete {
                        sw,
                        idx,
                        sweep,
                        uid,
                    },
                );
            }

            NetEvent::PollComplete {
                sw,
                idx,
                sweep,
                uid,
            } => {
                let Some(switch) = self.switches.get(usize::from(sw)) else {
                    return;
                };
                let value = switch.bank(uid.direction).read(uid.port);
                // Sharded mode: the sweep record was pushed by `PollSweep`
                // on the control domain's shard; device owners grow their
                // local vector so every sample lands under its sweep index
                // (the merge is per-sweep, so gaps on other shards are
                // fine).
                if self.sharded.is_some() {
                    while self.instr.polls.len() <= sweep as usize {
                        self.instr.polls.push(PollSweepRecord::default());
                    }
                }
                if let Some(rec) = self.instr.polls.get_mut(sweep as usize) {
                    rec.samples.push((uid, value, now));
                }
                sched.at(
                    now,
                    NetEvent::PollRead {
                        sw,
                        idx: idx + 1,
                        sweep,
                    },
                );
            }

            NetEvent::KeepaliveTick => {
                if self.snapshot_cfg.channel_state {
                    let oldest_pending = self.observer.pending_epochs().next();
                    if let Some(oldest) = oldest_pending {
                        let stale = self
                            .issued
                            .get(&oldest)
                            .map(|t| now.saturating_since(*t) > self.driver.lead_time * 2)
                            .unwrap_or(false);
                        if stale {
                            if let Some(lookahead) = self.sharded {
                                // Device completion state lives on each
                                // owner shard; ship the check there.
                                for sw in 0..self.switches.len() as u16 {
                                    sched.after(
                                        lookahead,
                                        NetEvent::KeepaliveProbe { sw, epoch: oldest },
                                    );
                                }
                            } else {
                                for sw in 0..self.switches.len() as u16 {
                                    if self.keepalive_due(sw, oldest) {
                                        self.inject_keepalives(sw, now, sched);
                                    }
                                }
                            }
                        }
                    }
                }
                if let Some(period) = self.driver.keepalive_period {
                    sched.after(period, NetEvent::KeepaliveTick);
                }
            }
        }
    }
}
