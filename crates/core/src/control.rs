//! The per-device control plane (Fig. 7, §6).
//!
//! The control plane complements the hardware-constrained data plane: it
//! consumes the notification stream, detects when snapshots **complete**
//! (all considered upstream channels have advanced), detects when hardware
//! limits made an epoch **inconsistent** (the unit's ID skipped ahead while
//! some channel lagged more than one epoch), reads finished values out of
//! the register file, and recovers from dropped notifications both
//! conservatively (skipped epochs are marked inconsistent) and proactively
//! (register polling).
//!
//! All arithmetic here is on unbounded [`Epoch`]s: the control plane
//! unwraps the data plane's rolled-over IDs against its own monotone view,
//! which is sound under the no-lapping assumption (§5.3, see [`crate::id`]).
//!
//! ## Ordering inside one notification
//!
//! A single packet can change both a Last Seen entry and the snapshot ID.
//! The data plane updates Last Seen with the packet, so the control plane
//! must apply the Last Seen update *before* computing the inconsistency
//! range for the ID change; doing it in the other order falsely marks
//! epochs that were already complete. (With the Fig. 7 pseudocode's
//! exclusive upper bound this is exactly `done+1 ..= new_sid-1`.)

use crate::id::{Epoch, WrappedId};
use crate::types::{ChannelId, Notification, UnitId, CPU_CHANNEL};
use crate::unit::SnapSlot;
use std::collections::{BTreeMap, BTreeSet};

/// Abstract register-file access from control plane to its data plane
/// (PCIe reads in the real system). Implemented by [`crate::device::Units`],
/// the register view both substrates drive through one
/// [`crate::device::SwitchAgent`].
pub trait Registers {
    /// Read the unit's current snapshot ID register.
    fn read_sid(&mut self, unit: UnitId) -> WrappedId;
    /// Read one Last Seen register.
    fn read_last_seen(&mut self, unit: UnitId, channel: ChannelId) -> WrappedId;
    /// Read and clear one snapshot value slot (`None` if uninitialized).
    fn take_slot(&mut self, unit: UnitId, id: WrappedId) -> Option<SnapSlot>;
}

/// The value reported for `(unit, epoch)` once the epoch is finished there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportValue {
    /// A directly read, consistent value.
    Value {
        /// The snapshotted local state.
        local: u64,
        /// Accumulated channel state (0 when channel state is disabled).
        channel: u64,
    },
    /// No-channel-state mode: the unit's ID skipped this epoch, so the value
    /// was inferred from the next written slot (Fig. 7 ll. 19–21).
    Inferred {
        /// The inferred local state.
        local: u64,
    },
    /// Hardware limits (or conservative handling of dropped notifications)
    /// made this epoch's value unreliable at this unit.
    Inconsistent,
    /// The slot could not be read at all (lost to drops); conservatively
    /// unusable.
    Missing,
}

impl ReportValue {
    /// Stable trace label for this outcome (`cp.report` events).
    pub fn label(&self) -> &'static str {
        match self {
            ReportValue::Value { .. } => "value",
            ReportValue::Inferred { .. } => "inferred",
            ReportValue::Inconsistent => "inconsistent",
            ReportValue::Missing => "missing",
        }
    }
}

/// A finished `(unit, epoch)` measurement, shipped to the snapshot observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// The reporting unit.
    pub unit: UnitId,
    /// The finished epoch.
    pub epoch: Epoch,
    /// The measurement (or why it is unusable).
    pub value: ReportValue,
}

/// Per-unit tracking state (the `ctrl*` arrays of Fig. 7).
#[derive(Debug, Clone)]
struct UnitTracking {
    /// `lastRead[unit]`: newest epoch whose value has been read/reported.
    last_read: Epoch,
    /// `ctrlSnapID[unit]`: controller's view of the unit's current epoch.
    ctrl_sid: Epoch,
    /// `ctrlLastSeen[unit][*]`: controller's view of each channel.
    ctrl_last_seen: Vec<Epoch>,
    /// Channels counted toward completion. Structurally silent channels can
    /// be removed by the operator (§6 "Ensuring liveness").
    considered: Vec<bool>,
    /// Epochs marked inconsistent and not yet reported.
    inconsistent: BTreeSet<Epoch>,
}

impl UnitTracking {
    fn min_considered_ls(&self) -> Epoch {
        self.ctrl_last_seen
            .iter()
            .zip(&self.considered)
            .filter(|(_, c)| **c)
            .map(|(e, _)| *e)
            .min()
            // With no considered channels, completion degenerates to the
            // unit's own progress (same as the no-channel-state mode).
            .unwrap_or(self.ctrl_sid)
    }
}

/// Statistics counters for introspection and the scalability experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlPlaneStats {
    /// Notifications processed (after dedup).
    pub notifications: u64,
    /// Duplicate/no-op notifications dropped.
    pub duplicates: u64,
    /// Register slots read.
    pub slot_reads: u64,
    /// Epochs marked inconsistent.
    pub inconsistent_epochs: u64,
}

/// A device's snapshot control plane.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    device: u16,
    modulus: u16,
    channel_state: bool,
    units: BTreeMap<UnitId, UnitTracking>,
    stats: ControlPlaneStats,
}

impl ControlPlane {
    /// Create the control plane for `device`.
    ///
    /// `channel_state` must match the data-plane build (the two variants
    /// process notifications differently, Fig. 7).
    pub fn new(device: u16, modulus: u16, channel_state: bool) -> ControlPlane {
        ControlPlane {
            device,
            modulus,
            channel_state,
            units: BTreeMap::new(),
            stats: ControlPlaneStats::default(),
        }
    }

    /// The device this control plane serves.
    pub fn device(&self) -> u16 {
        self.device
    }

    /// Whether this control plane runs the channel-state variant.
    pub fn channel_state(&self) -> bool {
        self.channel_state
    }

    /// Processing statistics.
    pub fn stats(&self) -> ControlPlaneStats {
        self.stats
    }

    /// Register a local processing unit with `num_channels` upstream
    /// channels; `considered[i] == false` excludes channel `i` from
    /// completion (host-facing or structurally unused channels, §6).
    pub fn register_unit(&mut self, unit: UnitId, num_channels: u16, considered: Vec<bool>) {
        assert_eq!(considered.len(), usize::from(num_channels));
        self.units.insert(
            unit,
            UnitTracking {
                last_read: 0,
                ctrl_sid: 0,
                ctrl_last_seen: vec![0; usize::from(num_channels)],
                considered,
                inconsistent: BTreeSet::new(),
            },
        );
    }

    /// All registered units.
    pub fn units(&self) -> impl Iterator<Item = UnitId> + '_ {
        self.units.keys().copied()
    }

    /// The controller's view of a unit's current epoch.
    pub fn unit_epoch(&self, unit: UnitId) -> Option<Epoch> {
        self.units.get(&unit).map(|t| t.ctrl_sid)
    }

    /// Newest epoch fully read/reported for `unit`.
    pub fn unit_last_read(&self, unit: UnitId) -> Option<Epoch> {
        self.units.get(&unit).map(|t| t.last_read)
    }

    /// Whether every local unit has finished (read out) `epoch`.
    pub fn device_complete(&self, epoch: Epoch) -> bool {
        self.units.values().all(|t| t.last_read >= epoch)
    }

    /// Units that have not yet finished `epoch` (re-initiation targets, §6).
    pub fn unfinished_units(&self, epoch: Epoch) -> Vec<UnitId> {
        self.units
            .iter()
            .filter(|(_, t)| t.last_read < epoch)
            .map(|(u, _)| *u)
            .collect()
    }

    /// Channels that stall completion of `epoch` at some unit: considered
    /// channels whose controller-view Last Seen is still below `epoch`.
    /// The fabric uses this to drive broadcast injection (§6).
    pub fn stalled_channels(&self, epoch: Epoch) -> Vec<(UnitId, ChannelId)> {
        let mut out = Vec::new();
        for (unit, t) in &self.units {
            if t.last_read >= epoch {
                continue;
            }
            for (i, (&ls, &cons)) in t.ctrl_last_seen.iter().zip(&t.considered).enumerate() {
                if cons && ls < epoch {
                    out.push((*unit, ChannelId(i as u16)));
                }
            }
        }
        out
    }

    /// Operator reconfiguration: stop counting `channel` toward completion
    /// at `unit` (§6, lack of traffic due to network structure). May
    /// immediately finish epochs; returns the resulting reports.
    pub fn remove_neighbor_consideration(
        &mut self,
        unit: UnitId,
        channel: ChannelId,
        regs: &mut dyn Registers,
    ) -> Vec<Report> {
        let Some(t) = self.units.get_mut(&unit) else {
            return Vec::new();
        };
        let idx = usize::from(channel.0);
        if idx < t.considered.len() {
            t.considered[idx] = false;
        }
        self.drain_completions(unit, regs, &mut obs::NoopSink, 0)
    }

    /// Handle one data-plane notification (Fig. 7). Returns the reports for
    /// every epoch that this notification finished.
    pub fn on_notification(&mut self, n: &Notification, regs: &mut dyn Registers) -> Vec<Report> {
        self.on_notification_traced(n, regs, &mut obs::NoopSink, 0)
    }

    /// [`ControlPlane::on_notification`] with trace emission: `cp.report`
    /// for every epoch the notification finishes and `cp.inconsistent` when
    /// hardware limits condemn an epoch. `on_notification` delegates here
    /// with [`obs::NoopSink`], which folds the instrumentation away.
    pub fn on_notification_traced<S: obs::Sink>(
        &mut self,
        n: &Notification,
        regs: &mut dyn Registers,
        sink: &mut S,
        t_ns: u64,
    ) -> Vec<Report> {
        // Unknown units (e.g., pre-registration traffic) fall out of the
        // handlers' own lookups — both are total over any notification.
        if self.channel_state {
            self.on_notify_cs(n, regs, sink, t_ns)
        } else {
            self.on_notify_no_cs(n, regs, sink, t_ns)
        }
    }

    /// Fig. 7 `OnNotifyCS`.
    fn on_notify_cs<S: obs::Sink>(
        &mut self,
        n: &Notification,
        regs: &mut dyn Registers,
        sink: &mut S,
        t_ns: u64,
    ) -> Vec<Report> {
        let Some(t) = self.units.get_mut(&n.unit) else {
            return Vec::new(); // unknown unit
        };
        let mut changed = false;

        // 1. Last Seen update *first* (see module docs on ordering). A
        //    channel index beyond what was provisioned at registration is
        //    ignored like an unknown unit — total path, no panic.
        if let Some(ch) = n.channel {
            if ch != CPU_CHANNEL {
                if let Some(slot) = t.ctrl_last_seen.get_mut(usize::from(ch.0)) {
                    let new_ls = n.new_last_seen.unwrap_from(*slot);
                    if new_ls != *slot {
                        *slot = new_ls;
                        changed = true;
                    }
                }
            }
        }

        // 2. Snapshot ID change: mark the epochs that can no longer be
        //    correct (Fig. 7 ll. 2–7). Two failure classes meet here:
        //    epochs whose channel state is truncated because a considered
        //    channel lags (everything above `min(lastSeen)`), and epochs
        //    whose local save was skipped by a >1 ID jump (everything above
        //    the unit's *previous* ID). The boundary is the min of the two —
        //    taking only `min(lastSeen)` would miss skipped saves whenever
        //    the very notification that reports the jump also fast-forwards
        //    the lagging channel (single-channel units always do).
        let new_sid = n.new_sid.unwrap_from(t.ctrl_sid);
        if new_sid != t.ctrl_sid {
            let old_sid = n.old_sid.unwrap_from(t.ctrl_sid);
            let done = t.min_considered_ls().min(old_sid);
            for epoch in (done + 1)..new_sid {
                if epoch > t.last_read && t.inconsistent.insert(epoch) {
                    self.stats.inconsistent_epochs += 1;
                    obs::event!(
                        sink,
                        t_ns,
                        "cp.inconsistent",
                        dev = self.device,
                        epoch = epoch,
                    );
                }
            }
            t.ctrl_sid = new_sid;
            changed = true;
        }

        if !changed {
            self.stats.duplicates += 1;
            return Vec::new();
        }
        self.stats.notifications += 1;
        self.drain_completions(n.unit, regs, sink, t_ns)
    }

    /// Read out every epoch of `unit` that is now complete (channel-state
    /// mode; Fig. 7 ll. 11–15).
    fn drain_completions<S: obs::Sink>(
        &mut self,
        unit: UnitId,
        regs: &mut dyn Registers,
        sink: &mut S,
        t_ns: u64,
    ) -> Vec<Report> {
        let modulus = self.modulus;
        let Some(t) = self.units.get_mut(&unit) else {
            return Vec::new(); // unknown unit
        };
        let to_read = t.min_considered_ls().min(t.ctrl_sid);
        let mut reports = Vec::new();
        for epoch in (t.last_read + 1)..=to_read {
            let wrapped = WrappedId::wrap(epoch, modulus);
            let value = if t.inconsistent.remove(&epoch) {
                // Clear the slot so a later epoch mapping here never reads
                // stale data after a dropped save-notification.
                let _ = regs.take_slot(unit, wrapped);
                ReportValue::Inconsistent
            } else {
                self.stats.slot_reads += 1;
                match regs.take_slot(unit, wrapped) {
                    Some(SnapSlot { value, channel, .. }) => ReportValue::Value {
                        local: value,
                        channel,
                    },
                    None => ReportValue::Missing,
                }
            };
            obs::event!(
                sink,
                t_ns,
                "cp.report",
                dev = unit.device,
                port = unit.port,
                epoch = epoch,
                outcome = value.label(),
            );
            reports.push(Report { unit, epoch, value });
        }
        if to_read > t.last_read {
            t.last_read = to_read;
        }
        reports
    }

    /// Fig. 7 `OnNotifyNoCS`: completion is immediate on ID advance; skipped
    /// epochs inherit the value of the next written slot (ll. 16–22).
    fn on_notify_no_cs<S: obs::Sink>(
        &mut self,
        n: &Notification,
        regs: &mut dyn Registers,
        sink: &mut S,
        t_ns: u64,
    ) -> Vec<Report> {
        let modulus = self.modulus;
        let Some(t) = self.units.get_mut(&n.unit) else {
            return Vec::new(); // unknown unit
        };
        let new_sid = n.new_sid.unwrap_from(t.ctrl_sid);
        if new_sid <= t.last_read {
            self.stats.duplicates += 1;
            return Vec::new();
        }
        self.stats.notifications += 1;
        t.ctrl_sid = t.ctrl_sid.max(new_sid);

        let mut reports = Vec::new();
        let mut valid_value: Option<u64> = None;
        // Descend from the newest epoch so skipped slots inherit the value
        // saved by the jump that skipped them (the state was unchanged in
        // between — that is precisely why the data plane could skip).
        for epoch in ((t.last_read + 1)..=new_sid).rev() {
            self.stats.slot_reads += 1;
            let value = match regs.take_slot(n.unit, WrappedId::wrap(epoch, modulus)) {
                Some(slot) => {
                    valid_value = Some(slot.value);
                    ReportValue::Value {
                        local: slot.value,
                        channel: 0,
                    }
                }
                None => match valid_value {
                    Some(v) => ReportValue::Inferred { local: v },
                    None => ReportValue::Missing,
                },
            };
            obs::event!(
                sink,
                t_ns,
                "cp.report",
                dev = n.unit.device,
                port = n.unit.port,
                epoch = epoch,
                outcome = value.label(),
            );
            reports.push(Report {
                unit: n.unit,
                epoch,
                value,
            });
        }
        t.last_read = new_sid;
        reports.reverse(); // report in ascending epoch order
        reports
    }

    /// Proactive register polling (§6): re-synchronize the controller view
    /// of `unit` straight from the registers, recovering from dropped
    /// notifications. Returns reports for any epochs this completes.
    pub fn poll_unit(&mut self, unit: UnitId, regs: &mut dyn Registers) -> Vec<Report> {
        let Some(t) = self.units.get(&unit) else {
            return Vec::new();
        };
        let num_channels = t.ctrl_last_seen.len();
        // A poll cannot know the unit's true previous ID (that history is
        // exactly what the dropped notifications carried), so it passes the
        // controller's stale view as `old_sid` — conservatively marking any
        // missed epochs inconsistent rather than risking stale reads.
        let stale_sid = WrappedId::wrap(t.ctrl_sid, self.modulus);
        let sid = regs.read_sid(unit);
        let mut reports = Vec::new();
        if self.channel_state {
            for i in 0..num_channels {
                let ch = ChannelId(i as u16);
                let ls = regs.read_last_seen(unit, ch);
                let synth = Notification {
                    unit,
                    old_sid: stale_sid,
                    new_sid: sid,
                    channel: Some(ch),
                    old_last_seen: ls,
                    new_last_seen: ls,
                };
                reports.extend(self.on_notify_cs(&synth, regs, &mut obs::NoopSink, 0));
            }
        }
        let synth = Notification {
            unit,
            old_sid: stale_sid,
            new_sid: sid,
            channel: None,
            old_last_seen: sid,
            new_last_seen: sid,
        };
        reports.extend(if self.channel_state {
            self.on_notify_cs(&synth, regs, &mut obs::NoopSink, 0)
        } else {
            self.on_notify_no_cs(&synth, regs, &mut obs::NoopSink, 0)
        });
        reports
    }

    /// Crash-recovery resynchronization: fast-forward every unit's tracking
    /// state to `epoch`, the observer's newest issued snapshot.
    ///
    /// A restarted control plane has lost its `ctrl*` arrays and — because
    /// snapshot IDs are wrapped (§5.2) — cannot safely unwrap register
    /// contents against a zeroed reference. The recovery protocol instead
    /// asks the observer for the newest issued epoch and declares everything
    /// up to it read: epochs in flight during the outage are abandoned
    /// locally (the observer's timeout excludes this device from them) and
    /// reporting resumes cleanly from `epoch + 1`.
    pub fn resync_to(&mut self, epoch: Epoch) {
        for t in self.units.values_mut() {
            t.last_read = t.last_read.max(epoch);
            t.ctrl_sid = t.ctrl_sid.max(epoch);
            for ls in &mut t.ctrl_last_seen {
                *ls = (*ls).max(epoch);
            }
            t.inconsistent.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{DataPlaneUnit, UnitConfig};

    /// A register file backed by real `DataPlaneUnit`s, as the fabric will
    /// provide.
    struct TestRegs {
        units: BTreeMap<UnitId, DataPlaneUnit>,
    }

    impl Registers for TestRegs {
        fn read_sid(&mut self, unit: UnitId) -> WrappedId {
            self.units[&unit].sid()
        }
        fn read_last_seen(&mut self, unit: UnitId, channel: ChannelId) -> WrappedId {
            self.units[&unit].last_seen(channel)
        }
        fn take_slot(&mut self, unit: UnitId, id: WrappedId) -> Option<SnapSlot> {
            self.units.get_mut(&unit)?.take_slot(id)
        }
    }

    const M: u16 = 8;

    fn setup(channel_state: bool, num_channels: u16) -> (ControlPlane, TestRegs, UnitId) {
        let uid = UnitId::ingress(0, 0);
        let mut cp = ControlPlane::new(0, M, channel_state);
        cp.register_unit(uid, num_channels, vec![true; usize::from(num_channels)]);
        let mut units = BTreeMap::new();
        units.insert(
            uid,
            DataPlaneUnit::new(UnitConfig {
                unit: uid,
                modulus: M,
                channel_state,
                num_channels,
            }),
        );
        (cp, TestRegs { units }, uid)
    }

    /// Drive a packet through the DP unit and feed any notification to the CP.
    fn drive(
        cp: &mut ControlPlane,
        regs: &mut TestRegs,
        uid: UnitId,
        ch: u16,
        epoch: Epoch,
        state: u64,
        contrib: u64,
    ) -> Vec<Report> {
        let w = WrappedId::wrap(epoch, M);
        let Some(u) = regs.units.get_mut(&uid) else {
            panic!("drive: unit {uid:?} not in the test register file");
        };
        let out = u.on_packet(ChannelId(ch), w, state, contrib, false);
        match out.notification {
            Some(n) => cp.on_notification(&n, regs),
            None => Vec::new(),
        }
    }

    #[test]
    fn steady_advance_with_channel_state_completes_when_all_channels_catch_up() {
        let (mut cp, mut regs, uid) = setup(true, 2);
        // Channel 0 advances to epoch 1; channel 1 lags — no completion yet.
        let r = drive(&mut cp, &mut regs, uid, 0, 1, 42, 1);
        assert!(r.is_empty());
        // Channel 1 sends an in-flight epoch-0 packet (contributes 5): no
        // last-seen change (0 -> 0), no notification, no completion.
        let r = drive(&mut cp, &mut regs, uid, 1, 0, 43, 5);
        assert!(r.is_empty());
        // Channel 1 catches up to epoch 1: epoch 1 completes.
        let r = drive(&mut cp, &mut regs, uid, 1, 1, 44, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].epoch, 1);
        assert_eq!(
            r[0].value,
            ReportValue::Value {
                local: 42,
                channel: 5
            }
        );
        assert!(cp.device_complete(1));
        assert!(!cp.device_complete(2));
    }

    #[test]
    fn lagging_channel_beyond_one_epoch_marks_inconsistent() {
        let (mut cp, mut regs, uid) = setup(true, 2);
        // Channel 0 advances through epochs 1 and 2 while channel 1 is
        // silent: epoch 1's channel state can no longer accumulate.
        drive(&mut cp, &mut regs, uid, 0, 1, 10, 1);
        drive(&mut cp, &mut regs, uid, 0, 2, 20, 1);
        // Channel 1 catches straight up to 2: epochs 1 and 2 both finish;
        // 1 is inconsistent, 2 is good.
        let r = drive(&mut cp, &mut regs, uid, 1, 2, 21, 1);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].epoch, 1);
        assert_eq!(r[0].value, ReportValue::Inconsistent);
        assert_eq!(r[1].epoch, 2);
        assert_eq!(
            r[1].value,
            ReportValue::Value {
                local: 20,
                channel: 0
            }
        );
        assert_eq!(cp.stats().inconsistent_epochs, 1);
    }

    #[test]
    fn steady_lockstep_never_marks_inconsistent() {
        let (mut cp, mut regs, uid) = setup(true, 2);
        let mut reports = Vec::new();
        for epoch in 1..=20u64 {
            reports.extend(drive(&mut cp, &mut regs, uid, 0, epoch, epoch * 10, 1));
            reports.extend(drive(&mut cp, &mut regs, uid, 1, epoch, epoch * 10 + 1, 1));
        }
        assert_eq!(reports.len(), 20, "one report per epoch");
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.epoch, i as Epoch + 1);
            assert!(
                matches!(r.value, ReportValue::Value { .. }),
                "epoch {} got {:?}",
                r.epoch,
                r.value
            );
        }
        assert_eq!(cp.stats().inconsistent_epochs, 0);
    }

    #[test]
    fn rollover_is_transparent_to_the_control_plane() {
        let (mut cp, mut regs, uid) = setup(true, 1);
        // March through 3 full wraps of the ID space.
        for epoch in 1..=(3 * u64::from(M)) {
            let r = drive(&mut cp, &mut regs, uid, 0, epoch, epoch, 1);
            assert_eq!(r.len(), 1);
            assert_eq!(r[0].epoch, epoch);
            assert_eq!(
                r[0].value,
                ReportValue::Value {
                    local: epoch,
                    channel: 0
                }
            );
        }
    }

    #[test]
    fn no_cs_mode_completes_immediately_and_infers_skipped_epochs() {
        let (mut cp, mut regs, uid) = setup(false, 1);
        let r = drive(&mut cp, &mut regs, uid, 0, 1, 10, 1);
        assert_eq!(r.len(), 1);
        assert_eq!(
            r[0].value,
            ReportValue::Value {
                local: 10,
                channel: 0
            }
        );
        // Jump 1 -> 4: epochs 2 and 3 skipped; their value is inferred from
        // epoch 4's slot (the state saved at the jump).
        let r = drive(&mut cp, &mut regs, uid, 0, 4, 40, 1);
        assert_eq!(r.len(), 3);
        assert_eq!(r[0].epoch, 2);
        assert_eq!(r[0].value, ReportValue::Inferred { local: 40 });
        assert_eq!(r[1].epoch, 3);
        assert_eq!(r[1].value, ReportValue::Inferred { local: 40 });
        assert_eq!(r[2].epoch, 4);
        assert_eq!(
            r[2].value,
            ReportValue::Value {
                local: 40,
                channel: 0
            }
        );
    }

    #[test]
    fn duplicate_notifications_are_noops() {
        let (mut cp, mut regs, uid) = setup(true, 1);
        let w1 = WrappedId::wrap(1, M);
        let Some(u) = regs.units.get_mut(&uid) else {
            panic!("unit {uid:?} not in the test register file");
        };
        let out = u.on_packet(ChannelId(0), w1, 5, 1, false);
        let Some(n) = out.notification else {
            panic!("first packet past the epoch boundary must notify");
        };
        let r1 = cp.on_notification(&n, &mut regs);
        assert_eq!(r1.len(), 1);
        // Replay the same notification: dropped as duplicate, no reports.
        let r2 = cp.on_notification(&n, &mut regs);
        assert!(r2.is_empty());
        assert_eq!(cp.stats().duplicates, 1);
    }

    #[test]
    fn dropped_notification_recovers_via_polling() {
        let (mut cp, mut regs, uid) = setup(false, 1);
        // The DP advances to epoch 2 but the notification is "dropped"
        // (never delivered to the CP).
        let w2 = WrappedId::wrap(2, M);
        let Some(u) = regs.units.get_mut(&uid) else {
            panic!("unit {uid:?} not in the test register file");
        };
        u.on_packet(ChannelId(0), w2, 22, 1, false);
        assert!(cp.device_complete(0) && !cp.device_complete(2));
        // Proactive poll recovers epochs 1 (inferred) and 2 (read).
        let r = cp.poll_unit(uid, &mut regs);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0].epoch, 1);
        assert_eq!(r[0].value, ReportValue::Inferred { local: 22 });
        assert_eq!(r[1].epoch, 2);
        assert_eq!(
            r[1].value,
            ReportValue::Value {
                local: 22,
                channel: 0
            }
        );
        assert!(cp.device_complete(2));
    }

    #[test]
    fn polling_recovers_channel_state_mode_too() {
        let (mut cp, mut regs, uid) = setup(true, 2);
        // Both channels advance to epoch 1, but all notifications dropped.
        let w1 = WrappedId::wrap(1, M);
        let Some(u) = regs.units.get_mut(&uid) else {
            panic!("unit {uid:?} not in the test register file");
        };
        u.on_packet(ChannelId(0), w1, 7, 1, false);
        u.on_packet(ChannelId(1), w1, 8, 1, false);
        let r = cp.poll_unit(uid, &mut regs);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].epoch, 1);
        assert_eq!(
            r[0].value,
            ReportValue::Value {
                local: 7,
                channel: 0
            }
        );
    }

    #[test]
    fn unconsidered_channels_do_not_gate_completion() {
        let uid = UnitId::ingress(0, 0);
        let mut cp = ControlPlane::new(0, M, true);
        // Channel 1 is host-facing: excluded from consideration up front.
        cp.register_unit(uid, 2, vec![true, false]);
        let mut units = BTreeMap::new();
        units.insert(
            uid,
            DataPlaneUnit::new(UnitConfig {
                unit: uid,
                modulus: M,
                channel_state: true,
                num_channels: 2,
            }),
        );
        let mut regs = TestRegs { units };
        let r = drive(&mut cp, &mut regs, uid, 0, 1, 11, 1);
        assert_eq!(r.len(), 1, "completes without channel 1 ever advancing");
        assert_eq!(r[0].epoch, 1);
    }

    #[test]
    fn removing_a_stalled_neighbor_releases_epochs() {
        let (mut cp, mut regs, uid) = setup(true, 2);
        drive(&mut cp, &mut regs, uid, 0, 1, 11, 1);
        assert!(!cp.device_complete(1));
        assert_eq!(cp.stalled_channels(1), vec![(uid, ChannelId(1))]);
        let r = cp.remove_neighbor_consideration(uid, ChannelId(1), &mut regs);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].epoch, 1);
        assert!(cp.device_complete(1));
        assert!(cp.stalled_channels(1).is_empty());
    }

    #[test]
    fn unfinished_units_lists_laggards() {
        let (mut cp, mut regs, uid) = setup(true, 1);
        let other = UnitId::egress(0, 1);
        cp.register_unit(other, 1, vec![true]);
        regs.units.insert(
            other,
            DataPlaneUnit::new(UnitConfig {
                unit: other,
                modulus: M,
                channel_state: true,
                num_channels: 1,
            }),
        );
        drive(&mut cp, &mut regs, uid, 0, 1, 1, 1);
        assert_eq!(cp.unfinished_units(1), vec![other]);
        assert!(!cp.device_complete(1));
    }

    #[test]
    fn unknown_unit_notifications_are_ignored() {
        let (mut cp, mut regs, _) = setup(true, 1);
        let ghost = UnitId::egress(9, 9);
        let n = Notification {
            unit: ghost,
            old_sid: WrappedId::wrap(0, M),
            new_sid: WrappedId::wrap(1, M),
            channel: Some(ChannelId(0)),
            old_last_seen: WrappedId::wrap(0, M),
            new_last_seen: WrappedId::wrap(1, M),
        };
        assert!(cp.on_notification(&n, &mut regs).is_empty());
    }

    #[test]
    fn inconsistent_epoch_slot_is_cleared_for_reuse() {
        let (mut cp, mut regs, uid) = setup(true, 2);
        drive(&mut cp, &mut regs, uid, 0, 1, 10, 1);
        drive(&mut cp, &mut regs, uid, 0, 2, 20, 1);
        let r = drive(&mut cp, &mut regs, uid, 1, 2, 21, 1);
        assert_eq!(r[0].value, ReportValue::Inconsistent);
        // Epoch 1's slot must have been cleared even though it was skipped.
        assert!(!regs.units[&uid].peek_slot(WrappedId::wrap(1, M)).written);
    }
}
