//! One switch's snapshot agent (§4.1, §5.3, §6), with no clock and no I/O.
//!
//! A Speedlight switch is two things: per-port data-plane units, and a CPU
//! agent that consumes their notifications, injects initiation markers and
//! refuses stale ones. [`SwitchAgent`] is that pair for one device, and
//! [`SwitchAgent::on_packet`] is the one packet path both substrates call:
//! it runs a unit and unwraps the packet's ID into its true epoch against
//! omniscient shadows the agent keeps with the units. A substrate (the
//! `fabric` simulator, the threaded `emulation`) wraps one agent per
//! device and keeps what only it has: time, random draws, queues, links,
//! metric registers and its instrumentation sinks.

use crate::control::{ControlPlane, Registers, Report};
use crate::id::{Epoch, WrappedId};
use crate::types::{ChannelId, Direction, Notification, UnitId, CPU_CHANNEL};
use crate::unit::{DataPlaneUnit, SnapSlot, UnitConfig};
use std::ops::Range;

/// A refused initiation: the port has already taken an epoch at least as
/// new, or the port does not exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stale;

/// One packet as a unit receives it ([`SwitchAgent::on_packet`]).
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// The upstream channel ([`CPU_CHANNEL`] for an initiation marker).
    pub channel: ChannelId,
    /// The snapshot ID the packet carries.
    pub id: WrappedId,
    /// The snapshotted register's value before this packet's update.
    pub local_state: u64,
    /// The packet's channel-state contribution if it is in flight.
    pub contrib: u64,
    /// Whether the packet is an initiation marker (never in flight).
    pub init: bool,
}

/// What one packet did at one unit.
#[derive(Debug, Clone, Copy)]
pub struct Processed {
    /// The snapshot ID to write into the forwarded header.
    pub out_sid: WrappedId,
    /// The notification for the CPU, if a register changed.
    pub notification: Option<Notification>,
    /// The packet's true epoch: its ID unwrapped against the channel's
    /// shadow, or on [`CPU_CHANNEL`] the epoch the port's last admitted
    /// initiation took.
    pub tag: Epoch,
    /// The unit's true epoch after the packet.
    pub epoch: Epoch,
    /// The epoch the unit newly reached, if the packet advanced it.
    pub reached: Option<Epoch>,
    /// The epoch the packet's channel newly reached, if its Last Seen
    /// moved and the move was notified (channel-state mode).
    pub channel_reached: Option<Epoch>,
}

/// The per-port register state of one switch's data plane, and the
/// omniscient shadows of its registers.
///
/// Implements [`Registers`], so the control plane reads and clears
/// snapshot slots exactly as over PCIe.
#[derive(Debug)]
pub struct Units {
    device: u16,
    modulus: u16,
    /// Ingress processing units, one per port.
    pub ingress: Vec<DataPlaneUnit>,
    /// Egress processing units, one per port.
    pub egress: Vec<DataPlaneUnit>,
    /// Shadow of each unit's ID register as a true epoch, indexed like
    /// [`Units::index`]. Instrumentation only (replay log, conservation
    /// audit, sync metric); it never feeds the protocol.
    epochs: Vec<Epoch>,
    /// Shadow of each (unit, channel) Last Seen register as a true epoch:
    /// an ingress unit's one channel, then one row of `ports` channels per
    /// egress unit. Monotone per channel, so a wrapped ID unwraps against
    /// it. Instrumentation only.
    last_seen: Vec<Epoch>,
}

impl Units {
    /// Unit `id`'s index among this device's units (ingress ports, then
    /// egress) and its row of channels in the Last Seen shadow; `None` for
    /// a unit this device lacks.
    fn index(&self, id: UnitId) -> Option<(usize, Range<usize>)> {
        let (n, p) = (self.ingress.len(), usize::from(id.port));
        if id.device != self.device || p >= n {
            return None;
        }
        Some(match id.direction {
            Direction::Ingress => (p, p..p + 1),
            Direction::Egress => (n + p, n + p * n..n + (p + 1) * n),
        })
    }

    /// Unit `id` with its ID shadow and its row of Last Seen shadows.
    fn locate(&mut self, id: UnitId) -> Option<(&mut DataPlaneUnit, &mut Epoch, &mut [Epoch])> {
        let (u, row) = self.index(id)?;
        let bank = match id.direction {
            Direction::Ingress => &mut self.ingress,
            Direction::Egress => &mut self.egress,
        };
        let unit = bank.get_mut(usize::from(id.port))?;
        Some((unit, self.epochs.get_mut(u)?, self.last_seen.get_mut(row)?))
    }

    /// The unit `id`, if this device has it.
    fn unit(&self, id: UnitId) -> Option<&DataPlaneUnit> {
        let bank = match id.direction {
            Direction::Ingress => &self.ingress,
            Direction::Egress => &self.egress,
        };
        bank.get(usize::from(id.port))
            .filter(|_| id.device == self.device)
    }

    /// Mutable [`Units::unit`].
    fn unit_mut(&mut self, id: UnitId) -> Option<&mut DataPlaneUnit> {
        let bank = match id.direction {
            Direction::Ingress => &mut self.ingress,
            Direction::Egress => &mut self.egress,
        };
        bank.get_mut(usize::from(id.port))
            .filter(|_| id.device == self.device)
    }
}

/// A unit this device lacks reads as registers in their boot state.
impl Registers for Units {
    fn read_sid(&mut self, unit: UnitId) -> WrappedId {
        let boot = WrappedId::wrap(0, self.modulus);
        self.unit(unit).map_or(boot, DataPlaneUnit::sid)
    }
    fn read_last_seen(&mut self, unit: UnitId, channel: ChannelId) -> WrappedId {
        let boot = WrappedId::wrap(0, self.modulus);
        self.unit(unit).map_or(boot, |u| u.last_seen(channel))
    }
    fn take_slot(&mut self, unit: UnitId, id: WrappedId) -> Option<SnapSlot> {
        self.unit_mut(unit)?.take_slot(id)
    }
}

/// One switch's data-plane units and the CPU agent that serves them.
#[derive(Debug)]
pub struct SwitchAgent {
    /// The data-plane units. A substrate drives packets through them with
    /// [`SwitchAgent::on_packet`]; the agent owns them so its control
    /// plane can read them.
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
                modulus,
                ingress: (0..ports)
                    .map(|p| unit(UnitId::ingress(device, p), 1))
                    .collect(),
                egress: (0..ports)
                    .map(|p| unit(UnitId::egress(device, p), ports))
                    .collect(),
                epochs: vec![0; 2 * n],
                last_seen: vec![0; n + n * n],
            },
            cp_pristine: cp.clone(),
            cp,
            init_high: vec![0; n],
            cp_down: false,
        }
    }

    /// Run one packet through unit `id` with the unit's trace events, and
    /// unwrap it against the shadows; `None` for a unit this device lacks
    /// or a channel that unit does not have, with nothing changed.
    pub fn on_packet<S: obs::Sink>(
        &mut self,
        id: UnitId,
        pkt: Arrival,
        sink: &mut S,
        t_ns: u64,
    ) -> Option<Processed> {
        let (unit, epoch, row) = self.units.locate(id)?;
        let (tag, last_seen) = if pkt.channel == CPU_CHANNEL {
            // Initiation markers carry no monotone stream per channel
            // (retries re-initiate older epochs): the guard knows the epoch.
            (*self.init_high.get(usize::from(id.port))?, None)
        } else {
            let ls = row.get_mut(usize::from(pkt.channel.0))?;
            (pkt.id.unwrap_from(*ls), Some(ls))
        };
        let out = unit.on_packet_traced(
            pkt.channel,
            pkt.id,
            pkt.local_state,
            pkt.contrib,
            pkt.init,
            sink,
            t_ns,
        );
        // Every change of the ID register is notified, so the shadow
        // moves only on a notification.
        let reached = out.notification.and_then(|n| {
            let new = n.new_sid.unwrap_from(*epoch);
            let advanced = new > *epoch;
            *epoch = new;
            advanced.then_some(new)
        });
        let notified = out.notification.is_some_and(|n| n.channel.is_some());
        let channel_reached = last_seen.and_then(|ls| {
            let moved = tag > *ls;
            *ls = tag;
            (moved && notified).then_some(tag)
        });
        Some(Processed {
            out_sid: out.out_sid,
            notification: out.notification,
            tag,
            epoch: *epoch,
            reached,
            channel_reached,
        })
    }

    /// Unit `id`'s ID register and the true epoch behind it; `None` for a
    /// unit this device lacks.
    pub fn current(&self, id: UnitId) -> Option<(WrappedId, Epoch)> {
        let (u, _) = self.units.index(id)?;
        Some((self.units.unit(id)?.sid(), *self.units.epochs.get(u)?))
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

    /// A packet of true epoch `stamp` on `channel`, as data.
    fn data(channel: ChannelId, stamp: Epoch, modulus: u16) -> Arrival {
        Arrival {
            channel,
            id: WrappedId::wrap(stamp, modulus),
            local_state: 0,
            contrib: 1,
            init: false,
        }
    }

    /// A 2-port agent at modulus 4 under a seeded interleaving of
    /// initiations and data packets that wraps the ID space many times.
    /// Every packet is stamped with its true epoch; channels stay FIFO and
    /// within the no-lapping bound (§5.3), so the unit's own decisions are
    /// the model's. The agent must recover every stamp as the packet's
    /// tag, and report each epoch a unit or a channel reaches exactly once.
    #[test]
    fn on_packet_tags_every_packet_with_its_true_epoch_across_wraps() {
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        const M: u16 = 4;
        const P: usize = 2;
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut a = SwitchAgent::new(0, 2, M, true, &[true; P], &[true; P * P]);
            // The model: the newest epoch issued, each port's last
            // initiation, each channel's last stamp, each unit's epoch.
            let mut g: Epoch = 0;
            let mut init = [0; P];
            let mut ext = [0; P];
            let mut fwd = [[0; P]; P];
            let mut ing = [0; P];
            let mut eg = [0; P];
            let mut seen = BTreeSet::new();
            let mut run = |a: &mut SwitchAgent,
                           id: UnitId,
                           pkt: Arrival,
                           stamp: Epoch,
                           unit_epoch: &mut Epoch,
                           channel_last: Option<&mut Epoch>| {
                let out = a
                    .on_packet(id, pkt, &mut obs::NoopSink, 0)
                    .expect("own unit");
                assert_eq!(out.tag, stamp, "seed {seed}: {id:?} {pkt:?}");
                let advanced = stamp > *unit_epoch;
                *unit_epoch = (*unit_epoch).max(stamp);
                assert_eq!(out.reached, advanced.then_some(stamp), "seed {seed}");
                assert_eq!(out.epoch, *unit_epoch);
                if let Some(e) = out.reached {
                    assert!(seen.insert((id, None, e)), "{id:?} reached {e} twice");
                }
                let moved = channel_last.map(|last| {
                    let moved = stamp > *last;
                    *last = stamp;
                    moved
                });
                assert_eq!(out.channel_reached, moved.unwrap_or(false).then_some(stamp));
                if let Some(e) = out.channel_reached {
                    assert!(
                        seen.insert((id, Some(pkt.channel), e)),
                        "{id:?} channel twice"
                    );
                }
                out
            };
            for _ in 0..600 {
                let port: u16 = rng.gen_range(0..2);
                let p = usize::from(port);
                let lowest = ext.iter().chain(fwd.iter().flatten()).min().copied();
                if rng.gen_bool(0.3) {
                    // A round ends once every port has taken epoch `g`; the
                    // next starts only if no channel would lap.
                    if init.iter().all(|&e| e == g) && g + 1 - lowest.unwrap_or(0) < Epoch::from(M)
                    {
                        g += 1;
                    }
                    if init[p] == g {
                        continue;
                    }
                    init[p] = g;
                    let marker = a.admit_initiation(port, g).expect("fresh epoch");
                    let pkt = Arrival {
                        init: true,
                        channel: CPU_CHANNEL,
                        ..data(CPU_CHANNEL, g, M)
                    };
                    assert_eq!(pkt.id, marker);
                    let out = run(&mut a, UnitId::ingress(0, port), pkt, g, &mut ing[p], None);
                    // Same-port egress (Fig. 6, path 3).
                    let pkt = Arrival {
                        id: out.out_sid,
                        init: true,
                        ..data(ChannelId(port), 0, M)
                    };
                    let (stamp, cell) = (ing[p], &mut fwd[p][p]);
                    run(
                        &mut a,
                        UnitId::egress(0, port),
                        pkt,
                        stamp,
                        &mut eg[p],
                        Some(cell),
                    );
                } else {
                    // External data into ingress `p`, then out egress `q`.
                    let step: Epoch = rng.gen_range(0..=2);
                    let stamp = (ext[p] + step).min(g);
                    let pkt = data(ChannelId(0), stamp, M);
                    let cell = &mut ext[p];
                    let out = run(
                        &mut a,
                        UnitId::ingress(0, port),
                        pkt,
                        stamp,
                        &mut ing[p],
                        Some(cell),
                    );
                    let q_port: u16 = rng.gen_range(0..2);
                    let q = usize::from(q_port);
                    let pkt = Arrival {
                        id: out.out_sid,
                        ..data(ChannelId(port), 0, M)
                    };
                    let (stamp, cell) = (ing[p], &mut fwd[q][p]);
                    run(
                        &mut a,
                        UnitId::egress(0, q_port),
                        pkt,
                        stamp,
                        &mut eg[q],
                        Some(cell),
                    );
                }
            }
            assert!(g > 4 * Epoch::from(M), "seed {seed}: only {g} epochs");
        }
    }

    #[test]
    fn foreign_units_and_channels_change_nothing() {
        let mut a = agent(2);
        let uid = UnitId::egress(0, 1);
        a.on_packet(uid, data(ChannelId(0), 3, M), &mut obs::NoopSink, 0)
            .expect("own unit");
        let before = format!("{a:?}");
        for (id, channel) in [
            (UnitId::ingress(1, 0), ChannelId(0)), // another device's unit
            (UnitId::ingress(0, 2), ChannelId(0)), // a port past the last
            (UnitId::egress(0, u16::MAX), ChannelId(0)),
            (UnitId::ingress(0, 0), ChannelId(1)), // a channel the unit lacks
            (UnitId::egress(0, 1), ChannelId(2)),
        ] {
            let pkt = data(channel, 5, M);
            assert!(
                a.on_packet(id, pkt, &mut obs::NoopSink, 0).is_none(),
                "{id:?}"
            );
            assert_eq!(a.current(id).is_none(), channel == ChannelId(0), "{id:?}");
        }
        assert_eq!(format!("{a:?}"), before, "registers and shadows untouched");
        assert_eq!(a.current(uid), Some((WrappedId::wrap(3, M), 3)));
        assert_eq!(
            a.units.read_sid(UnitId::ingress(1, 0)),
            WrappedId::wrap(0, M)
        );
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
