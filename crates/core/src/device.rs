//! One switch's snapshot agent (§4.1, §5.3, §6), with no clock and no I/O.
//!
//! A Speedlight switch is two things: per-port data-plane units, and a CPU
//! agent that consumes their notifications, injects initiation markers and
//! refuses stale ones. [`SwitchAgent`] is that pair for one device. A
//! substrate (the `fabric` simulator, the threaded `emulation`) wraps one
//! agent per device and keeps what only it has: time, random draws,
//! queues, links, metric registers and its instrumentation.

use crate::control::{ControlPlane, Registers, Report};
use crate::id::{Epoch, WrappedId};
use crate::types::{ChannelId, Direction, Notification, UnitId};
use crate::unit::{DataPlaneUnit, SnapSlot, UnitConfig};

/// A refused initiation: the port has already taken an epoch at least as
/// new, or the port does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stale;

/// The per-port register state of one switch's data plane.
///
/// Implements [`Registers`], so the control plane reads and clears
/// snapshot slots exactly as over PCIe.
#[derive(Debug)]
pub struct Units {
    device: u16,
    /// Ingress processing units, one per port.
    pub ingress: Vec<DataPlaneUnit>,
    /// Egress processing units, one per port.
    pub egress: Vec<DataPlaneUnit>,
}

impl Units {
    /// The unit `id`; panics on an ID outside this device's units.
    pub fn unit(&self, id: UnitId) -> &DataPlaneUnit {
        debug_assert_eq!(id.device, self.device);
        let bank = match id.direction {
            Direction::Ingress => &self.ingress,
            Direction::Egress => &self.egress,
        };
        let Some(unit) = bank.get(usize::from(id.port)) else {
            panic!("unit id {id:?} out of range for device {}", self.device);
        };
        unit
    }

    /// Mutable [`Units::unit`].
    pub fn unit_mut(&mut self, id: UnitId) -> &mut DataPlaneUnit {
        debug_assert_eq!(id.device, self.device);
        let bank = match id.direction {
            Direction::Ingress => &mut self.ingress,
            Direction::Egress => &mut self.egress,
        };
        let Some(unit) = bank.get_mut(usize::from(id.port)) else {
            panic!("unit id {id:?} out of range for device {}", self.device);
        };
        unit
    }
}

impl Registers for Units {
    fn read_sid(&mut self, unit: UnitId) -> WrappedId {
        self.unit(unit).sid()
    }
    fn read_last_seen(&mut self, unit: UnitId, channel: ChannelId) -> WrappedId {
        self.unit(unit).last_seen(channel)
    }
    fn take_slot(&mut self, unit: UnitId, id: WrappedId) -> Option<SnapSlot> {
        self.unit_mut(unit).take_slot(id)
    }
}

/// One switch's data-plane units and the CPU agent that serves them.
#[derive(Debug)]
pub struct SwitchAgent {
    /// The data-plane units. A substrate drives packets through them
    /// directly; the agent owns them so its control plane can read them.
    pub units: Units,
    cp: ControlPlane,
    /// The control plane as built: a crashed agent restarts from this
    /// (zeroed tracking state), not from the pre-crash arrays.
    cp_pristine: ControlPlane,
    /// Per-port newest epoch whose initiation marker was admitted. The
    /// agent tracks true (unwrapped) epochs, so a retry carrying an epoch
    /// no newer than the port has already taken is refused: the unit's
    /// rollover comparison assumes a monotone ID stream per channel
    /// (§5.3), and a stale wrapped marker would alias forward to a
    /// phantom future epoch.
    init_high: Vec<Epoch>,
    /// Set by [`SwitchAgent::crash`], cleared by [`SwitchAgent::recover`]:
    /// while set the agent's socket is dead and a substrate must drop the
    /// notifications it would deliver.
    cp_down: bool,
}

impl SwitchAgent {
    /// Build the agent of `device` with `ports` ports.
    ///
    /// `considered_ext[p]` — whether ingress port `p`'s external upstream
    /// channel counts toward completion (true iff the peer is a
    /// snapshot-enabled switch). `considered_pair` is a row-major
    /// `ports × ports` matrix: `considered_pair[p * ports + q]` — whether
    /// the internal channel ingress `p` → egress `q` counts (§6 "operators
    /// can configure the removal of non-utilized upstream neighbors").
    pub fn new(
        device: u16,
        ports: u16,
        modulus: u16,
        channel_state: bool,
        considered_ext: &[bool],
        considered_pair: &[bool],
    ) -> SwitchAgent {
        let n = usize::from(ports);
        assert_eq!(considered_ext.len(), n);
        assert_eq!(considered_pair.len(), n * n);
        let unit = |unit: UnitId, num_channels: u16| {
            DataPlaneUnit::new(UnitConfig {
                unit,
                modulus,
                channel_state,
                num_channels,
            })
        };
        let mut cp = ControlPlane::new(device, modulus, channel_state);
        for (p, &ext) in (0..ports).zip(considered_ext) {
            cp.register_unit(UnitId::ingress(device, p), 1, vec![ext]);
            // Egress unit q's channel i is ingress port i.
            let mask = considered_pair.iter().skip(usize::from(p)).step_by(n);
            cp.register_unit(UnitId::egress(device, p), ports, mask.copied().collect());
        }
        SwitchAgent {
            units: Units {
                device,
                ingress: (0..ports)
                    .map(|p| unit(UnitId::ingress(device, p), 1))
                    .collect(),
                egress: (0..ports)
                    .map(|p| unit(UnitId::egress(device, p), ports))
                    .collect(),
            },
            cp_pristine: cp.clone(),
            cp,
            init_high: vec![0; n],
            cp_down: false,
        }
    }

    /// Admit an initiation of `epoch` at ingress `port`: the wrapped
    /// marker to inject, or [`Stale`] when the port has already taken an
    /// epoch at least as new (a retry that lost a race) or does not exist.
    pub fn admit_initiation(&mut self, port: u16, epoch: Epoch) -> Result<WrappedId, Stale> {
        let p = usize::from(port);
        let (Some(high), Some(unit)) = (self.init_high.get_mut(p), self.units.ingress.get(p))
        else {
            return Err(Stale);
        };
        if epoch <= *high {
            return Err(Stale);
        }
        *high = epoch;
        Ok(unit.wrap(epoch))
    }

    /// Run the control plane over one notification; the reports of every
    /// epoch it finished.
    pub fn on_notification(&mut self, n: &Notification) -> Vec<Report> {
        self.cp.on_notification(n, &mut self.units)
    }

    /// [`SwitchAgent::on_notification`] with the control plane's trace
    /// events.
    pub fn on_notification_traced<S: obs::Sink>(
        &mut self,
        n: &Notification,
        sink: &mut S,
        t_ns: u64,
    ) -> Vec<Report> {
        self.cp
            .on_notification_traced(n, &mut self.units, sink, t_ns)
    }

    /// The agent process dies: its tracking state restarts from the
    /// pristine copy and its socket stays down until
    /// [`SwitchAgent::recover`]. The data plane is untouched.
    pub fn crash(&mut self) {
        self.cp = self.cp_pristine.clone();
        self.cp_down = true;
    }

    /// The agent comes back: the socket reopens and tracking resumes past
    /// `epoch`, the observer's newest issued snapshot
    /// ([`ControlPlane::resync_to`]).
    pub fn recover(&mut self, epoch: Epoch) {
        self.cp_down = false;
        self.cp.resync_to(epoch);
    }

    /// The control plane.
    pub fn cp(&self) -> &ControlPlane {
        &self.cp
    }

    /// Whether the agent is down (crashed, not yet recovered).
    pub fn cp_down(&self) -> bool {
        self.cp_down
    }

    /// Every unit ID of this device, port by port, ingress before egress
    /// (observer registration).
    pub fn unit_ids(&self) -> Vec<UnitId> {
        let device = self.units.device;
        (0..self.units.ingress.len() as u16)
            .flat_map(|p| [UnitId::ingress(device, p), UnitId::egress(device, p)])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: u16 = 8;

    fn agent(ports: u16) -> SwitchAgent {
        let n = usize::from(ports);
        SwitchAgent::new(0, ports, M, true, &vec![true; n], &vec![true; n * n])
    }

    #[test]
    fn builds_units_and_registers_them() {
        let a = agent(4);
        assert_eq!(a.unit_ids().len(), 8);
        assert_eq!(a.cp().units().count(), 8);
        assert_eq!(a.units.ingress.len(), 4);
        assert_eq!(a.units.egress[0].config().num_channels, 4);
        assert_eq!(a.units.ingress[0].config().num_channels, 1);
        assert!(!a.cp_down());
    }

    #[test]
    fn registers_view_reaches_units() {
        let mut a = agent(2);
        let uid = UnitId::ingress(0, 1);
        assert_eq!(a.units.read_sid(uid).raw(), 0);
        // Drive the unit forward and read back through the trait.
        let w1 = WrappedId::from_raw(1, M);
        a.units.ingress[1].on_packet(ChannelId(0), w1, 5, 1, false);
        assert_eq!(a.units.read_sid(uid).raw(), 1);
        assert_eq!(a.units.read_last_seen(uid, ChannelId(0)).raw(), 1);
        let slot = a.units.take_slot(uid, w1).expect("saved");
        assert_eq!(slot.value, 5);
    }

    #[test]
    fn stale_and_foreign_initiations_are_refused() {
        let mut a = agent(2);
        assert_eq!(a.admit_initiation(0, 7), Ok(WrappedId::wrap(7, M)));
        assert_eq!(a.admit_initiation(0, 7), Err(Stale), "equal epoch");
        assert_eq!(a.admit_initiation(0, 2), Err(Stale), "older epoch");
        // Ports keep their own high-water marks.
        assert_eq!(a.admit_initiation(1, 2), Ok(WrappedId::wrap(2, M)));
        assert_eq!(a.admit_initiation(0, 9), Ok(WrappedId::wrap(9, M)));
        assert_eq!(a.admit_initiation(2, 10), Err(Stale), "no such port");
    }

    #[test]
    fn crash_resets_tracking_and_recover_resyncs() {
        let mut a = agent(2);
        let uid = UnitId::ingress(0, 0);
        let w1 = WrappedId::from_raw(1, M);
        let out = a.units.ingress[0].on_packet(ChannelId(0), w1, 3, 1, false);
        let n = out.notification.expect("advancing packet notifies");
        let _ = a.on_notification(&n);
        assert_eq!(a.cp().unit_epoch(uid), Some(1));
        a.crash();
        assert_eq!(a.cp().unit_epoch(uid), Some(0), "tracking state zeroed");
        assert!(a.cp_down(), "the socket stays down until recovery");
        a.recover(5);
        assert!(!a.cp_down());
        assert!(a
            .unit_ids()
            .into_iter()
            .all(|u| a.cp().unit_last_read(u) == Some(5)));
    }
}
