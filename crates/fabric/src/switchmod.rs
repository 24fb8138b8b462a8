//! One simulated switch: the device's snapshot agent (units, their
//! omniscient epoch shadows and the control plane), metric banks, egress
//! queues, load balancer, and the per-device state the event interpreter
//! keeps beside them (link and fault gates, the device's latency stream in
//! sharded mode).

use crate::network::NotifFaultState;
use crate::packet::Packet;
use crate::topology::{Fib, LbKind};
use loadbalance::{Ecmp, FlowletSwitch, LoadBalancer};
use netsim::rng::SimRng;
use netsim::time::{Duration, Instant};
use speedlight_core::device::SwitchAgent;
use speedlight_core::types::{Direction, Notification, UnitId};
use std::collections::VecDeque;
use telemetry::{MetricBank, MetricKind};

/// Snapshot-related configuration shared by every switch in a deployment.
#[derive(Debug, Clone)]
pub struct SnapshotConfig {
    /// Snapshot ID modulus.
    pub modulus: u16,
    /// Whether channel state is collected.
    pub channel_state: bool,
    /// Metric measured at ingress units.
    pub ingress_metric: MetricKind,
    /// Metric measured at egress units.
    pub egress_metric: MetricKind,
}

impl SnapshotConfig {
    /// A packet-count snapshot with channel state (the richest variant).
    pub fn packet_count_cs(modulus: u16) -> SnapshotConfig {
        SnapshotConfig {
            modulus,
            channel_state: true,
            ingress_metric: MetricKind::PacketCount,
            egress_metric: MetricKind::PacketCount,
        }
    }

    /// The Fig. 12 configuration: EWMA interarrival, no channel state.
    pub fn ewma(modulus: u16) -> SnapshotConfig {
        SnapshotConfig {
            modulus,
            channel_state: false,
            ingress_metric: MetricKind::EwmaInterarrival,
            egress_metric: MetricKind::EwmaInterarrival,
        }
    }
}

/// A packet sitting in an egress queue, remembering its upstream channel.
#[derive(Debug, Clone)]
pub struct QueuedPacket {
    /// The packet.
    pub pkt: Packet,
    /// The ingress port it came from (the egress unit's channel).
    pub from_port: u16,
}

/// One output-queued egress port.
///
/// The transmitter costs no event while it is idle: it is a
/// `busy_until` instant plus at most one pending wake. The port is idle
/// at `now` when `!wake_pending && busy_until <= now`; a packet enqueued
/// on an idle port starts transmitting inside that `EnqueueEgress`, so
/// it leaves the queue at once and does not count against
/// `capacity_bytes` for the rest of its enqueue instant. A packet
/// enqueued on a busy port waits for the wake (`NetEvent::TxDone`) at
/// `busy_until`, which transmits the head and re-arms only while more
/// packets are queued.
#[derive(Debug)]
pub struct EgressPort {
    /// FIFO queue.
    pub queue: VecDeque<QueuedPacket>,
    /// Occupancy in bytes.
    pub queued_bytes: u64,
    /// Byte capacity (tail-drop beyond this).
    pub capacity_bytes: u64,
    /// When the frame on the wire finishes serializing (`ZERO` before
    /// the first transmit).
    pub(crate) busy_until: Instant,
    /// Whether a `TxDone` wake is scheduled for `busy_until`.
    pub(crate) wake_pending: bool,
    /// Tail-drop count.
    pub drops: u64,
}

impl EgressPort {
    fn new(capacity_bytes: u64) -> EgressPort {
        EgressPort {
            queue: VecDeque::new(),
            queued_bytes: 0,
            capacity_bytes,
            busy_until: Instant::ZERO,
            wake_pending: false,
            drops: 0,
        }
    }

    /// Whether the transmitter can start a frame at `now`.
    pub(crate) fn is_idle(&self, now: Instant) -> bool {
        !self.wake_pending && self.busy_until <= now
    }

    /// Try to enqueue; `false` (and a drop count) on overflow.
    pub fn enqueue(&mut self, qp: QueuedPacket) -> bool {
        if self.queued_bytes + u64::from(qp.pkt.size) > self.capacity_bytes {
            self.drops += 1;
            return false;
        }
        self.queued_bytes += u64::from(qp.pkt.size);
        self.queue.push_back(qp);
        true
    }

    /// Dequeue the head packet.
    pub fn dequeue(&mut self) -> Option<QueuedPacket> {
        let qp = self.queue.pop_front()?;
        self.queued_bytes -= u64::from(qp.pkt.size);
        Some(qp)
    }
}

/// Statistics counters for one switch.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwitchStats {
    /// Packets processed at ingress.
    pub ingress_packets: u64,
    /// Packets transmitted.
    pub egress_packets: u64,
    /// Tail drops across all egress queues.
    pub queue_drops: u64,
    /// Notifications dropped at the CP socket buffer.
    pub notify_drops: u64,
    /// Keepalive broadcasts injected for liveness.
    pub keepalives_sent: u64,
    /// Frames lost on the wire because the egress link was down.
    pub link_drops: u64,
}

/// A full switch: the §4.1 data plane and CPU agent (one [`SwitchAgent`],
/// which also unwraps each packet's true epoch against its omniscient
/// shadows) plus what the simulator keeps beside it — forwarding, metric
/// banks, queues, link state and the notification fault gate.
pub struct Switch {
    /// Device ID.
    pub id: u16,
    /// Whether this device participates in snapshots (partial deployment,
    /// §10). Disabled switches forward shims untouched.
    pub snapshot_enabled: bool,
    /// The processing units and their epoch shadows, control plane,
    /// initiation guard and crash gate.
    pub agent: SwitchAgent,
    /// Forwarding table.
    pub fib: Fib,
    /// Multipath selector.
    pub lb: Box<dyn LoadBalancer + Send>,
    /// Ingress metric registers.
    pub ing_metrics: MetricBank,
    /// Egress metric registers.
    pub eg_metrics: MetricBank,
    /// Output queues.
    pub egress_ports: Vec<EgressPort>,
    /// Pending notifications awaiting serial CP processing; each carries
    /// the data-plane timestamp it was generated at.
    pub cp_queue: VecDeque<(Notification, Instant)>,
    /// Whether the CP is mid-notification.
    pub cp_busy: bool,
    /// Counters.
    pub stats: SwitchStats,
    /// Snapshotted register for the FIB version (§10 "Measuring
    /// Forwarding State"): the last FIB version a forwarded packet saw.
    pub fib_version_seen: u64,
    /// Per-port link state; frames serialized onto a down link are lost
    /// on the wire (fault injection).
    pub(crate) link_up: Vec<bool>,
    /// Notification-export fault injection on the PCIe path.
    pub(crate) notif_fault: Option<NotifFaultState>,
    /// This device's latency stream in sharded mode (forked from the root
    /// seed by device id, so a device's draws do not depend on how devices
    /// are packed onto shards); `None` in the serial engine, which draws
    /// from the network's one stream.
    pub(crate) rng: Option<SimRng>,
}

impl std::fmt::Debug for Switch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Switch")
            .field("id", &self.id)
            .field("snapshot_enabled", &self.snapshot_enabled)
            .field("lb", &self.lb.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Switch {
    /// Build a switch. `considered_ext` and `considered_pair` (derived
    /// from the routing analysis) are [`SwitchAgent::new`]'s.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: u16,
        ports: u16,
        cfg: &SnapshotConfig,
        lb_kind: LbKind,
        lb_salt: u64,
        queue_capacity_bytes: u64,
        fib: Fib,
        considered_ext: Vec<bool>,
        considered_pair: Vec<bool>,
    ) -> Switch {
        let n = usize::from(ports);
        let lb: Box<dyn LoadBalancer + Send> = match lb_kind {
            LbKind::Ecmp => Box::new(Ecmp::new(lb_salt)),
            LbKind::Flowlet { gap_us } => {
                Box::new(FlowletSwitch::new(lb_salt, Duration::from_micros(gap_us)))
            }
        };

        Switch {
            id,
            snapshot_enabled: true,
            agent: SwitchAgent::new(
                id,
                ports,
                cfg.modulus,
                cfg.channel_state,
                &considered_ext,
                &considered_pair,
            ),
            fib,
            lb,
            ing_metrics: MetricBank::new(cfg.ingress_metric, ports),
            eg_metrics: MetricBank::new(cfg.egress_metric, ports),
            egress_ports: (0..ports)
                .map(|_| EgressPort::new(queue_capacity_bytes))
                .collect(),
            cp_queue: VecDeque::new(),
            cp_busy: false,
            stats: SwitchStats::default(),
            fib_version_seen: 0,
            link_up: vec![true; n],
            notif_fault: None,
            rng: None,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> u16 {
        self.egress_ports.len() as u16
    }

    /// The metric bank of `direction`'s units.
    pub(crate) fn bank(&self, direction: Direction) -> &MetricBank {
        match direction {
            Direction::Ingress => &self.ing_metrics,
            Direction::Egress => &self.eg_metrics,
        }
    }

    /// Mutable [`Switch::bank`].
    pub(crate) fn bank_mut(&mut self, direction: Direction) -> &mut MetricBank {
        match direction {
            Direction::Ingress => &mut self.ing_metrics,
            Direction::Egress => &mut self.eg_metrics,
        }
    }

    /// Run the control plane over one queued notification with trace
    /// emission: a `cp.process` event (with the residual CP queue depth),
    /// then whatever `cp.report` / `cp.inconsistent` events the control
    /// plane produces.
    pub fn process_notification_traced<S: obs::Sink>(
        &mut self,
        n: &Notification,
        sink: &mut S,
        t_ns: u64,
    ) -> Vec<speedlight_core::control::Report> {
        obs::event!(
            sink,
            t_ns,
            "cp.process",
            dev = self.id,
            queued = self.cp_queue.len(),
        );
        self.agent.on_notification_traced(n, sink, t_ns)
    }

    /// Simulate a control-plane crash: the agent dies
    /// ([`SwitchAgent::crash`]) and takes with it every queued
    /// notification and any notification a reorder fault holds in the
    /// PCIe path. The data plane (units, metrics, queues) is untouched.
    pub fn crash_cp(&mut self) {
        self.agent.crash();
        self.cp_queue.clear();
        self.cp_busy = false;
        if let Some(fault) = &mut self.notif_fault {
            fault.held = None;
        }
    }

    /// All unit IDs of this switch (observer registration).
    pub fn unit_ids(&self) -> Vec<UnitId> {
        self.agent.unit_ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedlight_core::types::ChannelId;

    fn test_switch(ports: u16) -> Switch {
        let n = usize::from(ports);
        Switch::new(
            0,
            ports,
            &SnapshotConfig::packet_count_cs(8),
            LbKind::Ecmp,
            0,
            100_000,
            Fib::default(),
            vec![true; n],
            vec![true; n * n],
        )
    }

    #[test]
    fn switch_builds_units_and_registers_them() {
        let sw = test_switch(4);
        assert_eq!(sw.ports(), 4);
        assert_eq!(sw.unit_ids().len(), 8);
        assert_eq!(sw.agent.cp().units().count(), 8);
        assert_eq!(sw.agent.units.ingress.len(), 4);
        assert_eq!(sw.agent.units.egress[0].config().num_channels, 4);
        assert_eq!(sw.agent.units.ingress[0].config().num_channels, 1);
        // Per-device interpreter state: one gate per port, no device
        // stream until sharded mode forks one.
        assert_eq!(sw.link_up, vec![true; 4]);
        assert!(sw.rng.is_none());
        assert!(sw.notif_fault.is_none());
    }

    #[test]
    fn sharded_mode_forks_one_stream_per_device() {
        let topo = crate::topology::Topology::leaf_spine(2, 2, 3);
        let mut net = crate::network::Network::new(
            topo,
            SnapshotConfig::packet_count_cs(8),
            LbKind::Ecmp,
            crate::latency::LatencyModel::default(),
            crate::network::DriverConfig::default(),
            100_000,
            7,
        );
        assert!(net.switches.iter().all(|s| s.rng.is_none()));
        net.enable_sharded_mode(Duration::from_nanos(500));
        let draws: Vec<u64> = net
            .switches
            .iter_mut()
            .map(|s| s.rng.as_mut().expect("forked").below(u64::MAX))
            .collect();
        let root = netsim::rng::SimRng::new(7);
        let expected: Vec<u64> = (0..draws.len() as u64)
            .map(|s| root.fork_idx("dev", s).below(u64::MAX))
            .collect();
        assert_eq!(draws, expected);
    }

    #[test]
    fn egress_port_tail_drops_on_overflow() {
        let mut port = EgressPort::new(3_000);
        let qp = |src_port: u16| QueuedPacket {
            pkt: Packet::data(wire::FlowKey::tcp(0, 1, src_port, 1), 1_500),
            from_port: 0,
        };
        assert!(port.enqueue(qp(1)));
        assert!(port.enqueue(qp(2)));
        assert!(!port.enqueue(qp(3)), "third 1500B packet exceeds 3000B");
        assert_eq!(port.drops, 1);
        assert_eq!(port.queued_bytes, 3_000);
        let out = port.dequeue().unwrap();
        assert_eq!(out.pkt.flow.src_port, 1);
        assert_eq!(port.queued_bytes, 1_500);
        assert!(port.enqueue(qp(4)));
    }

    #[test]
    fn unconsidered_channels_are_configured_through() {
        let sw = Switch::new(
            0,
            2,
            &SnapshotConfig::packet_count_cs(8),
            LbKind::Ecmp,
            0,
            100_000,
            Fib::default(),
            vec![false, true], // port 0 faces a host
            // Row-major pair matrix: [0→0, 0→1, 1→0, 1→1].
            vec![true, false, true, true],
        );
        // Host-facing ingress never gates completion: a CP-view check —
        // no stalled channel for epoch 1 on that unit even though silent.
        let stalled = sw.agent.cp().stalled_channels(1);
        assert!(!stalled.contains(&(UnitId::ingress(0, 0), ChannelId(0))));
        assert!(stalled.contains(&(UnitId::ingress(0, 1), ChannelId(0))));
        // considered_pair[p][q] gates ingress p → egress q: with
        // pair[0][1] = false, egress 1 does not wait on ingress 0.
        assert!(!stalled.contains(&(UnitId::egress(0, 1), ChannelId(0))));
        assert!(stalled.contains(&(UnitId::egress(0, 1), ChannelId(1))));
        assert!(stalled.contains(&(UnitId::egress(0, 0), ChannelId(0))));
        assert!(stalled.contains(&(UnitId::egress(0, 0), ChannelId(1))));
    }

    #[test]
    fn cp_crash_drops_the_queue_and_the_reorder_hold() {
        let topo = crate::topology::Topology::leaf_spine(2, 2, 3);
        let mut net = crate::network::Network::new(
            topo,
            SnapshotConfig::packet_count_cs(8),
            LbKind::Ecmp,
            crate::latency::LatencyModel::default(),
            crate::network::DriverConfig::default(),
            100_000,
            7,
        );
        net.set_notif_fault(
            0,
            crate::network::NotifFaultConfig {
                kind: crate::network::NotifFaultKind::Reorder,
                every: 2,
            },
        );
        let sw = &mut net.switches[0];
        let w1 = speedlight_core::WrappedId::from_raw(1, 8);
        let out = sw.agent.units.ingress[0].on_packet(ChannelId(0), w1, 3, 1, false);
        let n = out.notification.expect("advancing packet notifies");
        sw.cp_queue.push_back((n, Instant::ZERO));
        sw.cp_busy = true;
        sw.notif_fault.as_mut().expect("installed").held = Some((n, 1));
        sw.crash_cp();
        assert!(sw.cp_queue.is_empty(), "queued notifications lost");
        assert!(!sw.cp_busy);
        assert!(sw.notif_fault.as_ref().is_some_and(|f| f.held.is_none()));
        assert!(sw.agent.cp_down(), "the socket stays down until recovery");
    }

    #[test]
    fn flowlet_switch_constructs() {
        let sw = Switch::new(
            3,
            2,
            &SnapshotConfig::ewma(16),
            LbKind::Flowlet { gap_us: 80 },
            9,
            100_000,
            Fib::default(),
            vec![true; 2],
            vec![true; 4],
        );
        assert_eq!(sw.lb.name(), "flowlet");
        assert!(!sw.agent.cp().channel_state());
    }
}
