//! The device actor: a switch's data plane and (colocated) control plane
//! running on one thread.
//!
//! The real system puts the Tofino and its CPU in one box with a PCIe
//! notification path; here both halves share a thread, with the
//! notification queue in between — the control plane drains it after each
//! frame, exactly the "data plane exports, CPU consumes" split of §5.3/§6.

use crate::messages::{DeviceMsg, Frame, ObserverMsg};
use speedlight_core::consistency::DeliveryEvent;
use speedlight_core::control::ControlPlane;
use speedlight_core::types::{ChannelId, Direction, Notification, UnitId, CPU_CHANNEL};
use speedlight_core::unit::{DataPlaneUnit, UnitConfig};
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
    /// Host-facing ports (strip the shim on egress; ingress channel not
    /// considered for completion).
    pub host_ports: Vec<bool>,
    /// Record a per-delivery replay log for the conformance oracle.
    pub record_deliveries: bool,
}

/// The running state of a device actor.
pub struct Device {
    cfg: DeviceConfig,
    ingress: Vec<DataPlaneUnit>,
    egress: Vec<DataPlaneUnit>,
    /// Per-port receive counters (the snapshotted metric: packets seen at
    /// ingress / egress).
    ing_count: Vec<u64>,
    eg_count: Vec<u64>,
    cp: ControlPlane,
    notif_queue: VecDeque<Notification>,
    observer: Sender<ObserverMsg>,
    epoch_shadow: BTreeMap<UnitId, Epoch>,
    t0: WallInstant,
    /// Snapshot participation (fault injection flips this off).
    snapshot_enabled: bool,
    /// Replay log (when `cfg.record_deliveries`).
    delivery_log: Option<Vec<DeliveryEvent>>,
    /// Per-(unit, channel) monotone shadow of unwrapped tags, feeding the
    /// replay log only (never the protocol).
    ls_shadow: BTreeMap<(UnitId, u16), Epoch>,
}

struct Units<'a> {
    ingress: &'a mut [DataPlaneUnit],
    egress: &'a mut [DataPlaneUnit],
}

impl speedlight_core::control::Registers for Units<'_> {
    fn read_sid(&mut self, unit: UnitId) -> WrappedId {
        self.unit(unit).sid()
    }
    fn read_last_seen(&mut self, unit: UnitId, channel: ChannelId) -> WrappedId {
        self.unit(unit).last_seen(channel)
    }
    fn take_slot(
        &mut self,
        unit: UnitId,
        id: WrappedId,
    ) -> Option<speedlight_core::unit::SnapSlot> {
        self.unit_mut(unit).take_slot(id)
    }
}

impl Units<'_> {
    fn unit(&self, id: UnitId) -> &DataPlaneUnit {
        let bank = match id.direction {
            Direction::Ingress => &*self.ingress,
            Direction::Egress => &*self.egress,
        };
        let Some(unit) = bank.get(usize::from(id.port)) else {
            panic!("unit id {id:?} out of range");
        };
        unit
    }
    fn unit_mut(&mut self, id: UnitId) -> &mut DataPlaneUnit {
        let bank = match id.direction {
            Direction::Ingress => &mut *self.ingress,
            Direction::Egress => &mut *self.egress,
        };
        let Some(unit) = bank.get_mut(usize::from(id.port)) else {
            panic!("unit id {id:?} out of range");
        };
        unit
    }
}

impl Device {
    /// Build a device actor.
    pub fn new(cfg: DeviceConfig, observer: Sender<ObserverMsg>, t0: WallInstant) -> Device {
        let ports = cfg.targets.len() as u16;
        let mk = |unit, channels| {
            DataPlaneUnit::new(UnitConfig {
                unit,
                modulus: cfg.modulus,
                channel_state: cfg.channel_state,
                num_channels: channels,
            })
        };
        let ingress: Vec<_> = (0..ports)
            .map(|p| mk(UnitId::ingress(cfg.id, p), 1))
            .collect();
        let egress: Vec<_> = (0..ports)
            .map(|p| mk(UnitId::egress(cfg.id, p), ports))
            .collect();
        let mut cp = ControlPlane::new(cfg.id, cfg.modulus, cfg.channel_state);
        for p in 0..ports {
            // Ingress external channel considered only for switch peers.
            let considered = matches!(cfg.targets[usize::from(p)], PortTarget::Device { .. });
            cp.register_unit(UnitId::ingress(cfg.id, p), 1, vec![considered]);
            cp.register_unit(
                UnitId::egress(cfg.id, p),
                ports,
                vec![true; usize::from(ports)],
            );
        }
        let delivery_log = cfg.record_deliveries.then(Vec::new);
        Device {
            ingress,
            egress,
            ing_count: vec![0; usize::from(ports)],
            eg_count: vec![0; usize::from(ports)],
            cp,
            notif_queue: VecDeque::new(),
            observer,
            epoch_shadow: BTreeMap::new(),
            cfg,
            t0,
            snapshot_enabled: true,
            delivery_log,
            ls_shadow: BTreeMap::new(),
        }
    }

    /// Unit IDs of this device (observer registration).
    pub fn unit_ids(cfg: &DeviceConfig) -> Vec<UnitId> {
        (0..cfg.targets.len() as u16)
            .flat_map(|p| [UnitId::ingress(cfg.id, p), UnitId::egress(cfg.id, p)])
            .collect()
    }

    fn track(&mut self, n: &Notification) {
        let entry = self.epoch_shadow.entry(n.unit).or_insert(0);
        let new = n.new_sid.unwrap_from(*entry);
        if new > *entry {
            *entry = new;
            let at = WallInstant::now().duration_since(self.t0).as_nanos() as u64;
            let _ = self.observer.send(ObserverMsg::Progress {
                epoch: new,
                at_nanos: at,
            });
        }
    }

    fn push_notification(&mut self, n: Notification) {
        self.track(&n);
        self.notif_queue.push_back(n);
    }

    /// Drain the notification queue through the control plane.
    fn drain_cp(&mut self) {
        while let Some(n) = self.notif_queue.pop_front() {
            let mut units = Units {
                ingress: &mut self.ingress,
                egress: &mut self.egress,
            };
            for report in self.cp.on_notification(&n, &mut units) {
                let _ = self.observer.send(ObserverMsg::Report {
                    device: self.cfg.id,
                    report,
                });
            }
        }
    }

    /// Append one delivery to the replay log (no-op unless recording).
    ///
    /// `true_epoch` carries the known unwrapped epoch for CPU-channel
    /// initiations (their epoch stream is not monotone under retries);
    /// everything else unwraps against the per-channel monotone shadow.
    #[allow(clippy::too_many_arguments)]
    fn record_delivery(
        &mut self,
        unit: UnitId,
        channel: ChannelId,
        wrapped: WrappedId,
        true_epoch: Option<Epoch>,
        local_state: u64,
        contrib: u64,
        init: bool,
    ) {
        let Some(log) = self.delivery_log.as_mut() else {
            return;
        };
        let tag = match true_epoch {
            Some(e) => e,
            None => {
                let shadow = self.ls_shadow.entry((unit, channel.0)).or_insert(0);
                let t = wrapped.unwrap_from(*shadow);
                *shadow = t;
                t
            }
        };
        log.push(DeliveryEvent {
            unit,
            channel,
            tag,
            local_state,
            contrib,
            init,
        });
    }

    fn decode_shim(frame: &Frame) -> Option<SnapshotHeader> {
        frame.shim.and_then(|b| SnapshotHeader::decode(&b).ok())
    }

    /// Process a frame arriving on `port`; forwards it onward.
    pub fn on_frame(&mut self, port: u16, mut frame: Frame) {
        let modulus = self.cfg.modulus;
        if !self.snapshot_enabled {
            // A failed snapshot agent: forwarding (and the metric) keeps
            // working, shims pass through untouched, no unit processing.
            self.ing_count[usize::from(port)] += 1;
            let Some(&out_port) = self.cfg.fib.get(&frame.dst_host) else {
                return;
            };
            self.eg_count[usize::from(out_port)] += 1;
            if let PortTarget::Device { tx, peer_port } = &self.cfg.targets[usize::from(out_port)] {
                let _ = tx.send(DeviceMsg::Frame {
                    port: *peer_port,
                    frame,
                });
            }
            return;
        }
        // ---- Ingress unit ----
        let pre = self.ing_count[usize::from(port)];
        let in_sid = match Self::decode_shim(&frame) {
            Some(hdr) => {
                let wrapped = WrappedId::from_raw(hdr.snapshot_id % modulus, modulus);
                self.record_delivery(
                    UnitId::ingress(self.cfg.id, port),
                    ChannelId(0),
                    wrapped,
                    None,
                    pre,
                    1,
                    false,
                );
                let out =
                    self.ingress[usize::from(port)].on_packet(ChannelId(0), wrapped, pre, 1, false);
                if let Some(n) = out.notification {
                    self.push_notification(n);
                }
                out.out_sid
            }
            None => self.ingress[usize::from(port)].sid(),
        };
        self.ing_count[usize::from(port)] += 1;

        // ---- Forwarding ----
        let Some(&out_port) = self.cfg.fib.get(&frame.dst_host) else {
            self.drain_cp();
            return;
        };

        // ---- Egress unit (channel = ingress port) ----
        let pre = self.eg_count[usize::from(out_port)];
        self.record_delivery(
            UnitId::egress(self.cfg.id, out_port),
            ChannelId(port),
            in_sid,
            None,
            pre,
            1,
            false,
        );
        let out =
            self.egress[usize::from(out_port)].on_packet(ChannelId(port), in_sid, pre, 1, false);
        if let Some(n) = out.notification {
            self.push_notification(n);
        }
        self.eg_count[usize::from(out_port)] += 1;

        // ---- Transmit ----
        match &self.cfg.targets[usize::from(out_port)] {
            PortTarget::Device { tx, peer_port } => {
                let hdr = SnapshotHeader {
                    packet_type: wire::PacketType::Data,
                    snapshot_id: out.out_sid.raw(),
                    channel_id: port,
                };
                frame.shim = Some(hdr.encode());
                let _ = tx.send(DeviceMsg::Frame {
                    port: *peer_port,
                    frame,
                });
            }
            PortTarget::Host(_) => { /* shim stripped; frame sunk */ }
            PortTarget::Unused => {}
        }
        self.drain_cp();
    }

    /// Control-plane initiation: CPU → every ingress → same-port egress
    /// (Fig. 6 path 3).
    pub fn on_initiate(&mut self, epoch: Epoch) {
        if !self.snapshot_enabled {
            return;
        }
        let wrapped = WrappedId::wrap(epoch, self.cfg.modulus);
        for p in 0..self.cfg.targets.len() as u16 {
            self.record_delivery(
                UnitId::ingress(self.cfg.id, p),
                CPU_CHANNEL,
                wrapped,
                Some(epoch),
                self.ing_count[usize::from(p)],
                0,
                true,
            );
            let out = self.ingress[usize::from(p)].on_packet(
                CPU_CHANNEL,
                wrapped,
                self.ing_count[usize::from(p)],
                0,
                true,
            );
            if let Some(n) = out.notification {
                self.push_notification(n);
            }
            // Same-port egress; dropped after processing.
            self.record_delivery(
                UnitId::egress(self.cfg.id, p),
                ChannelId(p),
                out.out_sid,
                None,
                self.eg_count[usize::from(p)],
                0,
                true,
            );
            let eg = self.egress[usize::from(p)].on_packet(
                ChannelId(p),
                out.out_sid,
                self.eg_count[usize::from(p)],
                0,
                true,
            );
            if let Some(n) = eg.notification {
                self.push_notification(n);
            }
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
            host_ports: vec![true, true],
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
