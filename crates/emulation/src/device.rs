//! The device actor: one [`SwitchAgent`] (a switch's data-plane units and
//! colocated control plane) running on one thread, plus the forwarding,
//! counters, links and replay log that only a live device has.
//!
//! The real system puts the Tofino and its CPU in one box with a PCIe
//! notification path; here both halves share a thread, with the
//! notification queue in between — the control plane drains it after each
//! frame, exactly the "data plane exports, CPU consumes" split of §5.3/§6.

use crate::messages::{DeviceMsg, Frame, ObserverMsg};
use speedlight_core::consistency::DeliveryEvent;
use speedlight_core::device::{Arrival, SwitchAgent};
use speedlight_core::types::{ChannelId, Notification, UnitId, CPU_CHANNEL};
use speedlight_core::{Epoch, WrappedId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::time::Instant as WallInstant;
use wire::SnapshotHeader;

/// Where a device port leads.
#[derive(Clone)]
pub enum PortTarget {
    /// Link to another device's port.
    Device {
        /// Peer's inbox.
        tx: SyncSender<DeviceMsg>,
        /// Peer's ingress port number.
        peer_port: u16,
    },
    /// A host sink (frames are counted and dropped).
    Host(u32),
    /// Unwired.
    Unused,
}

/// Static device configuration.
pub struct DeviceConfig {
    /// Device ID.
    pub id: u16,
    /// Snapshot ID modulus.
    pub modulus: u16,
    /// Channel-state variant?
    pub channel_state: bool,
    /// Per-port targets (defines the port count).
    pub targets: Vec<PortTarget>,
    /// FIB: destination host → egress port.
    pub fib: BTreeMap<u32, u16>,
    /// Record a per-delivery replay log for the conformance oracle.
    pub record_deliveries: bool,
}

/// The running state of a device actor.
pub struct Device {
    cfg: DeviceConfig,
    agent: SwitchAgent,
    /// Per-port receive counters (the snapshotted metric: packets seen at
    /// ingress / egress).
    ing_count: Vec<u64>,
    eg_count: Vec<u64>,
    notif_queue: VecDeque<Notification>,
    observer: Sender<ObserverMsg>,
    t0: WallInstant,
    /// Snapshot participation (fault injection flips this off).
    snapshot_enabled: bool,
    /// Replay log (when `cfg.record_deliveries`).
    delivery_log: Option<Vec<DeliveryEvent>>,
}

impl Device {
    /// Build a device actor.
    pub fn new(cfg: DeviceConfig, observer: Sender<ObserverMsg>, t0: WallInstant) -> Device {
        let ports = cfg.targets.len() as u16;
        // An ingress port's external channel counts only for switch peers.
        let considered_ext: Vec<bool> = cfg
            .targets
            .iter()
            .map(|t| matches!(t, PortTarget::Device { .. }))
            .collect();
        let agent = SwitchAgent::new(
            cfg.id,
            ports,
            cfg.modulus,
            cfg.channel_state,
            &considered_ext,
            &vec![true; usize::from(ports) * usize::from(ports)],
        );
        let delivery_log = cfg.record_deliveries.then(Vec::new);
        Device {
            agent,
            ing_count: vec![0; usize::from(ports)],
            eg_count: vec![0; usize::from(ports)],
            notif_queue: VecDeque::new(),
            observer,
            cfg,
            t0,
            snapshot_enabled: true,
            delivery_log,
        }
    }

    /// Unit IDs of this device (observer registration).
    pub fn unit_ids(&self) -> Vec<UnitId> {
        self.agent.unit_ids()
    }

    /// Run one packet through unit `unit` ([`SwitchAgent::on_packet`]):
    /// log the delivery, report the epoch the unit newly reached, queue
    /// the notification. A frame contributes 1 to the counted metric, an
    /// initiation nothing. The outgoing ID, or `None` for a unit or
    /// channel this device lacks.
    fn unit_process(
        &mut self,
        unit: UnitId,
        channel: ChannelId,
        id: WrappedId,
        local_state: u64,
        init: bool,
    ) -> Option<WrappedId> {
        let contrib = u64::from(!init);
        let pkt = Arrival {
            channel,
            id,
            local_state,
            contrib,
            init,
        };
        let out = self.agent.on_packet(unit, pkt, &mut obs::NoopSink, 0)?;
        if let Some(log) = &mut self.delivery_log {
            log.push(DeliveryEvent {
                unit,
                channel,
                tag: out.tag,
                local_state,
                contrib,
                init,
            });
        }
        if let Some(epoch) = out.reached {
            let at = WallInstant::now().duration_since(self.t0).as_nanos() as u64;
            let _ = self.observer.send(ObserverMsg::Progress {
                epoch,
                at_nanos: at,
            });
        }
        self.notif_queue.extend(out.notification);
        Some(out.out_sid)
    }

    /// Drain the notification queue through the control plane.
    fn drain_cp(&mut self) {
        while let Some(n) = self.notif_queue.pop_front() {
            for report in self.agent.on_notification(&n) {
                let _ = self.observer.send(ObserverMsg::Report {
                    device: self.cfg.id,
                    report,
                });
            }
        }
    }

    /// Process a frame arriving on `port`; forwards it onward. A port, or
    /// a route out of a port, past this device's last is ignored.
    pub fn on_frame(&mut self, port: u16, mut frame: Frame) {
        let modulus = self.cfg.modulus;
        let route = self.cfg.fib.get(&frame.dst_host).copied();
        let ports = self.cfg.targets.len();
        if usize::from(port) >= ports || route.is_some_and(|q| usize::from(q) >= ports) {
            return;
        }
        let pre = count(&mut self.ing_count, port);
        if !self.snapshot_enabled {
            // A failed snapshot agent: forwarding (and the metric) keeps
            // working, shims pass through untouched, no unit processing.
            if let Some(out_port) = route {
                count(&mut self.eg_count, out_port);
                self.transmit(out_port, frame);
            }
            return;
        }
        // ---- Ingress unit ----
        let dev = self.cfg.id;
        let ingress = UnitId::ingress(dev, port);
        let in_sid = match frame.shim.and_then(|b| SnapshotHeader::decode(&b).ok()) {
            Some(hdr) => {
                let wrapped = WrappedId::from_raw(hdr.snapshot_id % modulus, modulus);
                self.unit_process(ingress, ChannelId(0), wrapped, pre, false)
            }
            None => self.agent.current(ingress).map(|(sid, _)| sid),
        };

        // ---- Forwarding ----
        let (Some(out_port), Some(in_sid)) = (route, in_sid) else {
            self.drain_cp();
            return;
        };

        // ---- Egress unit (channel = ingress port) ----
        let pre = count(&mut self.eg_count, out_port);
        let egress = UnitId::egress(dev, out_port);
        let Some(out_sid) = self.unit_process(egress, ChannelId(port), in_sid, pre, false) else {
            self.drain_cp();
            return;
        };

        // ---- Transmit (the shim is stripped toward a host) ----
        let hdr = SnapshotHeader {
            packet_type: wire::PacketType::Data,
            snapshot_id: out_sid.raw(),
            channel_id: port,
        };
        frame.shim = Some(hdr.encode());
        self.transmit(out_port, frame);
        self.drain_cp();
    }

    /// Send `frame` out of `port` if a device is wired there; a host sinks
    /// it.
    fn transmit(&self, port: u16, frame: Frame) {
        let target = self.cfg.targets.get(usize::from(port));
        if let Some(PortTarget::Device { tx, peer_port }) = target {
            let port = *peer_port;
            let _ = tx.send(DeviceMsg::Frame { port, frame });
        }
    }

    /// Control-plane initiation: CPU → every ingress → same-port egress
    /// (Fig. 6 path 3). A port that has already taken an epoch at least
    /// as new (a retry that lost the race) is skipped.
    pub fn on_initiate(&mut self, epoch: Epoch) {
        if !self.snapshot_enabled {
            return;
        }
        for p in 0..self.cfg.targets.len() as u16 {
            let Ok(wrapped) = self.agent.admit_initiation(p, epoch) else {
                continue;
            };
            let (dev, i) = (self.cfg.id, usize::from(p));
            let (Some(&ing), Some(&eg)) = (self.ing_count.get(i), self.eg_count.get(i)) else {
                continue;
            };
            let ingress = UnitId::ingress(dev, p);
            let Some(out_sid) = self.unit_process(ingress, CPU_CHANNEL, wrapped, ing, true) else {
                continue;
            };
            // Same-port egress; dropped after processing.
            self.unit_process(UnitId::egress(dev, p), ChannelId(p), out_sid, eg, true);
        }
        self.drain_cp();
    }

    /// Run the actor loop until `Shutdown`.
    pub fn run(mut self, inbox: Receiver<DeviceMsg>) {
        for msg in inbox.iter() {
            match msg {
                DeviceMsg::Frame { port, frame } => self.on_frame(port, frame),
                DeviceMsg::Initiate { epoch } => self.on_initiate(epoch),
                DeviceMsg::SetSnapshotEnabled { enabled } => self.snapshot_enabled = enabled,
                DeviceMsg::Shutdown => break,
            }
        }
        let _ = self.observer.send(ObserverMsg::DeviceDone {
            device: self.cfg.id,
            deliveries: self.delivery_log.take().unwrap_or_default(),
        });
    }
}

/// Count one frame on `port`: the count before it, or 0 (and nothing
/// counted) for a port the device lacks.
fn count(counts: &mut [u64], port: u16) -> u64 {
    let counter = counts.get_mut(usize::from(port));
    counter.map_or(0, |c| std::mem::replace(c, *c + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    fn two_port_device(observer: Sender<ObserverMsg>) -> Device {
        let cfg = DeviceConfig {
            id: 0,
            modulus: 8,
            channel_state: false,
            targets: vec![PortTarget::Host(0), PortTarget::Host(1)],
            fib: BTreeMap::from([(0, 0), (1, 1)]),
            record_deliveries: false,
        };
        Device::new(cfg, observer, WallInstant::now())
    }

    #[test]
    fn initiation_advances_all_units_and_reports() {
        let (tx, rx) = channel();
        let mut dev = two_port_device(tx);
        dev.on_initiate(1);
        // No channel state: completion is immediate → 4 unit reports.
        let mut reports = 0;
        while let Ok(msg) = rx.try_recv() {
            if let ObserverMsg::Report { report, .. } = msg {
                assert_eq!(report.epoch, 1);
                reports += 1;
            }
        }
        assert_eq!(reports, 4);
    }

    #[test]
    fn stale_reinitiation_is_refused() {
        let (tx, rx) = channel();
        let mut dev = two_port_device(tx);
        dev.on_initiate(7);
        // A retry of an older epoch wraps to 2 mod 8; injected behind 7 it
        // would alias forward to phantom epochs 8, 9 and 10.
        dev.on_initiate(2);
        let epochs: Vec<Epoch> = rx
            .try_iter()
            .filter_map(|msg| match msg {
                ObserverMsg::Report { report, .. } => Some(report.epoch),
                _ => None,
            })
            .collect();
        assert!(!epochs.is_empty());
        assert!(epochs.iter().all(|&e| e <= 7), "phantom epochs: {epochs:?}");
    }

    #[test]
    fn frames_flow_and_counters_snapshot() {
        let (tx, rx) = channel();
        let mut dev = two_port_device(tx);
        // 3 frames in port 0, out port 1 (dst host 1).
        for _ in 0..3 {
            dev.on_frame(
                0,
                Frame {
                    flow: wire::FlowKey::tcp(0, 1, 1, 1),
                    dst_host: 1,
                    size: 100,
                    shim: None,
                },
            );
        }
        dev.on_initiate(1);
        let mut values = BTreeMap::new();
        while let Ok(msg) = rx.try_recv() {
            if let ObserverMsg::Report { report, .. } = msg {
                if let speedlight_core::control::ReportValue::Value { local, .. } = report.value {
                    values.insert(report.unit, local);
                }
            }
        }
        assert_eq!(values[&UnitId::ingress(0, 0)], 3);
        assert_eq!(values[&UnitId::egress(0, 1)], 3);
        assert_eq!(values[&UnitId::ingress(0, 1)], 0);
    }

    /// The replay log's tags are true epochs, not wrapped IDs: six rounds
    /// at modulus 4, each an initiation then a frame from an upstream
    /// switch stamped with the round's epoch, so the IDs wrap once.
    #[test]
    fn replay_log_tags_unwrap_across_a_wrap() {
        const M: u16 = 4;
        let (tx, _rx) = channel();
        let (peer, _peer_rx) = std::sync::mpsc::sync_channel(64);
        let cfg = DeviceConfig {
            id: 0,
            modulus: M,
            channel_state: true,
            targets: vec![
                PortTarget::Host(0),
                PortTarget::Device {
                    tx: peer,
                    peer_port: 0,
                },
            ],
            fib: BTreeMap::from([(0, 0), (1, 1)]),
            record_deliveries: true,
        };
        let mut dev = Device::new(cfg, tx, WallInstant::now());
        let mut expected = Vec::new();
        for epoch in 1..=6 {
            dev.on_initiate(epoch);
            for p in 0..2 {
                expected.push((UnitId::ingress(0, p), CPU_CHANNEL, epoch, true));
                expected.push((UnitId::egress(0, p), ChannelId(p), epoch, true));
            }
            let hdr = SnapshotHeader::data(WrappedId::wrap(epoch, M).raw());
            let frame = Frame {
                flow: wire::FlowKey::tcp(1, 0, 1, 1),
                dst_host: 0,
                size: 100,
                shim: Some(hdr.encode()),
            };
            dev.on_frame(1, frame);
            expected.push((UnitId::ingress(0, 1), ChannelId(0), epoch, false));
            expected.push((UnitId::egress(0, 0), ChannelId(1), epoch, false));
        }
        let log: Vec<_> = dev
            .delivery_log
            .expect("recording")
            .into_iter()
            .map(|d| (d.unit, d.channel, d.tag, d.init))
            .collect();
        assert_eq!(log, expected);
    }

    /// A port past the last, or a route out of one, is ignored: no panic
    /// and no counter moved, with snapshots disabled or enabled.
    #[test]
    fn out_of_range_ports_are_ignored() {
        let frame = |dst_host| Frame {
            flow: wire::FlowKey::tcp(0, 1, 1, 1),
            dst_host,
            size: 100,
            shim: None,
        };
        let (tx, rx) = channel();
        let mut dev = two_port_device(tx);
        dev.snapshot_enabled = false;
        dev.on_frame(2, frame(1));
        dev.snapshot_enabled = true;
        dev.cfg.fib.insert(9, 5);
        dev.on_frame(0, frame(9));
        dev.on_frame(2, frame(1));
        assert_eq!(
            (dev.ing_count.as_slice(), dev.eg_count.as_slice()),
            (&[0, 0][..], &[0, 0][..])
        );
        assert!(rx.try_recv().is_err());
    }

    #[test]
    fn shutdown_signals_done() {
        let (otx, orx) = channel();
        let (dtx, drx) = channel();
        let dev = two_port_device(otx);
        let handle = std::thread::spawn(move || dev.run(drx));
        dtx.send(DeviceMsg::Shutdown).unwrap();
        handle.join().unwrap();
        let done = orx
            .try_iter()
            .any(|m| matches!(m, ObserverMsg::DeviceDone { device: 0, .. }));
        assert!(done);
    }
}
