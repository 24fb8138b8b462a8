//! The data-plane processing unit (Figs. 4–5).
//!
//! One [`DataPlaneUnit`] models the snapshot logic of a per-port,
//! per-direction processing element, restricted to what a line-rate
//! match-action pipeline can do (§5.3):
//!
//! * register arrays of fixed size (`modulus` snapshot slots, one Last Seen
//!   entry per upstream channel) — the slot file is logically `modulus`
//!   deep and materialised up to the highest slot written, see below,
//! * at most **one** slot written per packet — no looping over intermediate
//!   snapshot IDs when the packet's ID and the local ID differ by more than
//!   one (the control plane marks those epochs inconsistent, Fig. 7),
//! * wrapped snapshot IDs with rollover, compared using the Last Seen entry
//!   of the packet's channel as the rollover reference (§5.3),
//! * a notification exported to the CPU on any update of the local ID or a
//!   Last Seen entry.
//!
//! The unit is metric-agnostic: the caller passes in the current value of
//! the snapshotted register (`local_state`) *before* applying the packet's
//! own update, plus the packet's channel-state contribution (e.g. `1` for a
//! packet counter, the byte count for a byte counter, `0` for metrics where
//! channel state is meaningless). Per Fig. 3, the saved state excludes the
//! packet that triggers the snapshot — its send belongs to the new epoch.
//!
//! # The register file is only as deep as the run has written
//!
//! The hardware array has `modulus` slots whether or not a snapshot ever
//! lands in them; the model allocates a slot when a packet first advances
//! the unit to it. The backing `Vec` starts empty and grows, with `Vec`'s
//! own amortised doubling, to the highest slot an advancing packet has
//! written, never past `modulus`. Every read treats the missing tail as
//! what it would hold on the switch — zeroes: [`DataPlaneUnit::peek_slot`]
//! gives `SnapSlot::default()`, [`DataPlaneUnit::take_slot`] gives `None`,
//! an in-flight credit finds nothing written and adds nothing. An ID whose
//! raw value is not below `modulus` is a caller bug and panics, in release
//! builds too, as indexing a full-depth array would. A world of 1 280
//! units at modulus 512 that takes four snapshots holds 5 slots a unit; at
//! full depth it would zero-fill 15.7 MB once and never read it.

use crate::id::{Epoch, WrappedId};
use crate::types::{ChannelId, Direction, Notification, PacketVerdict, UnitId, CPU_CHANNEL};

/// Static configuration of a processing unit.
#[derive(Debug, Clone)]
pub struct UnitConfig {
    /// This unit's identity (used in notifications).
    pub unit: UnitId,
    /// Snapshot ID modulus ("max snapshot id" + 1 in paper terms).
    pub modulus: u16,
    /// Whether channel state is collected (§5.1 "−" items).
    pub channel_state: bool,
    /// Number of real upstream channels (excluding the CPU pseudo-channel).
    pub num_channels: u16,
}

/// One entry of the snapshot value register array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapSlot {
    /// The saved local state for this epoch.
    pub value: u64,
    /// Accumulated channel state (in-flight contributions).
    pub channel: u64,
    /// Set when the slot is saved; cleared when the control plane reads it.
    /// Stands in for the "check for value initialization" of Fig. 7 l.21.
    pub written: bool,
}

/// Result of processing one packet's snapshot header.
#[derive(Debug, Clone)]
pub struct PacketOutcome {
    /// How the packet related to the local epoch.
    pub verdict: PacketVerdict,
    /// The snapshot ID to write into the forwarded packet's header
    /// (`pkt.sid ← sid`, Fig. 3 l.13).
    pub out_sid: WrappedId,
    /// Notification for the CPU, if any state changed.
    pub notification: Option<Notification>,
}

/// A data-plane processing unit's snapshot state machine.
#[derive(Debug, Clone)]
pub struct DataPlaneUnit {
    cfg: UnitConfig,
    sid: WrappedId,
    /// The snapshot value registers `[0, slots.len())`; every slot from
    /// there up to `modulus` is still in its boot state and is not stored.
    slots: Vec<SnapSlot>,
    /// Last Seen per real upstream channel (kept even without channel state
    /// as the rollover reference; without channel state its updates are not
    /// notified and it plays no role in completion).
    last_seen: Vec<WrappedId>,
    /// Last Seen for the CPU pseudo-channel — rollover reference only (§6).
    cpu_last_seen: WrappedId,
}

impl DataPlaneUnit {
    /// Create a unit with all registers zeroed (the boot state of a newly
    /// attached device, §6 "Node attachment").
    pub fn new(cfg: UnitConfig) -> DataPlaneUnit {
        assert!(cfg.modulus >= 2, "modulus must allow progress");
        let zero = WrappedId::wrap(0, cfg.modulus);
        DataPlaneUnit {
            slots: Vec::new(),
            last_seen: vec![zero; usize::from(cfg.num_channels)],
            cpu_last_seen: zero,
            sid: zero,
            cfg,
        }
    }

    /// The unit's configuration.
    pub fn config(&self) -> &UnitConfig {
        &self.cfg
    }

    /// Current snapshot ID register.
    pub fn sid(&self) -> WrappedId {
        self.sid
    }

    /// Current Last Seen register for a channel.
    pub fn last_seen(&self, channel: ChannelId) -> WrappedId {
        if channel == CPU_CHANNEL {
            self.cpu_last_seen
        } else {
            let Some(&seen) = self.last_seen.get(usize::from(channel.0)) else {
                panic!("channel {} outside this unit's channel space", channel.0)
            };
            seen
        }
    }

    /// Process one packet's snapshot header.
    ///
    /// * `channel` — the upstream channel the packet arrived on
    ///   ([`CPU_CHANNEL`] for control-plane initiations at an ingress unit).
    /// * `pkt_sid` — the snapshot ID carried by the packet.
    /// * `local_state` — the snapshotted register's value *before* this
    ///   packet's metric update is applied.
    /// * `contrib` — this packet's channel-state contribution if it turns
    ///   out to be in flight.
    /// * `is_initiation` — initiation packets are never counted as in
    ///   flight (§6).
    pub fn on_packet(
        &mut self,
        channel: ChannelId,
        pkt_sid: WrappedId,
        local_state: u64,
        contrib: u64,
        is_initiation: bool,
    ) -> PacketOutcome {
        self.on_packet_traced(
            channel,
            pkt_sid,
            local_state,
            contrib,
            is_initiation,
            &mut obs::NoopSink,
            0,
        )
    }

    /// [`DataPlaneUnit::on_packet`] with trace emission: `unit.save` when
    /// the packet advances the local epoch (the state-save of Fig. 3), and
    /// `marker.seen` when it moves a Last Seen register (first marker of an
    /// epoch on that channel). With [`obs::NoopSink`] the whole
    /// instrumentation folds away — `on_packet` delegates here at zero cost.
    #[allow(clippy::too_many_arguments)]
    pub fn on_packet_traced<S: obs::Sink>(
        &mut self,
        channel: ChannelId,
        pkt_sid: WrappedId,
        local_state: u64,
        contrib: u64,
        is_initiation: bool,
        sink: &mut S,
        t_ns: u64,
    ) -> PacketOutcome {
        debug_assert_eq!(pkt_sid.modulus(), self.cfg.modulus);
        let ls = self.last_seen(channel);
        let old_sid = self.sid;

        // Rollover-safe three-way comparison using the channel's Last Seen
        // entry as the reference (§5.3). FIFO channels make both the
        // packet's ID and the local ID at least `ls`, and no-lapping bounds
        // both within `modulus - 1` of it, so forward distances from `ls`
        // order them correctly.
        let d_pkt = pkt_sid.forward_distance(ls);
        let d_sid = self.sid.forward_distance(ls);

        let verdict = if d_pkt > d_sid {
            // New snapshot: save local state into the new epoch's slot and
            // jump. Intermediate slots are *not* written (single-slot
            // constraint); the control plane will mark them inconsistent.
            let adv = d_pkt - d_sid;
            self.sid = pkt_sid;
            let idx = self.slot_index(pkt_sid);
            let saved = SnapSlot {
                value: local_state,
                channel: 0,
                written: true,
            };
            match self.slots.get_mut(idx) {
                Some(slot) => *slot = saved,
                None => {
                    self.slots.resize(idx, SnapSlot::default());
                    self.slots.push(saved);
                }
            }
            obs::event!(
                sink,
                t_ns,
                "unit.save",
                dev = self.cfg.unit.device,
                port = self.cfg.unit.port,
                dir = dir_label(self.cfg.unit.direction),
                sid = pkt_sid.raw(),
                adv = adv,
            );
            PacketVerdict::Advanced(adv)
        } else if d_pkt < d_sid {
            // In-flight packet from an older epoch. The ideal algorithm
            // credits every epoch in (pkt_sid, sid]; the hardware can update
            // only the *current* slot, which is correct for the current
            // epoch iff the gap is exactly 1 — larger gaps are what Fig. 7
            // marks inconsistent.
            if self.cfg.channel_state && !is_initiation {
                if let Some(slot) = self.slots.get_mut(usize::from(self.sid.raw())) {
                    if slot.written {
                        slot.channel += contrib;
                    }
                }
            }
            PacketVerdict::InFlight(d_sid - d_pkt)
        } else {
            PacketVerdict::Current
        };

        // Last Seen update (monotone by FIFO).
        let ls_changed = pkt_sid != ls;
        if ls_changed {
            if channel == CPU_CHANNEL {
                self.cpu_last_seen = pkt_sid;
            } else if let Some(seen) = self.last_seen.get_mut(usize::from(channel.0)) {
                *seen = pkt_sid;
            }
            obs::event!(
                sink,
                t_ns,
                "marker.seen",
                dev = self.cfg.unit.device,
                port = self.cfg.unit.port,
                dir = dir_label(self.cfg.unit.direction),
                ch = channel.0,
                sid = pkt_sid.raw(),
            );
        }

        // Notification on any update of the local ID or a Last Seen entry
        // (§5.3). Without channel state only ID changes are reported, since
        // Last Seen exists purely as a rollover reference.
        let sid_changed = self.sid != old_sid;
        let notification = if sid_changed || (ls_changed && self.cfg.channel_state) {
            Some(Notification {
                unit: self.cfg.unit,
                old_sid,
                new_sid: self.sid,
                channel: self.cfg.channel_state.then_some(channel),
                old_last_seen: ls,
                new_last_seen: pkt_sid,
            })
        } else {
            None
        };

        PacketOutcome {
            verdict,
            out_sid: self.sid,
            notification,
        }
    }

    /// Read and clear one snapshot slot (the control plane's register read;
    /// clearing implements the initialization check of Fig. 7 l.21).
    pub fn take_slot(&mut self, id: WrappedId) -> Option<SnapSlot> {
        let idx = self.slot_index(id);
        let slot = self.slots.get_mut(idx)?;
        if slot.written {
            let out = *slot;
            *slot = SnapSlot::default();
            Some(out)
        } else {
            None
        }
    }

    /// Inspect a slot without clearing it (tests and proactive CP polling).
    pub fn peek_slot(&self, id: WrappedId) -> SnapSlot {
        let idx = self.slot_index(id);
        self.slots.get(idx).copied().unwrap_or_default()
    }

    /// Where `id` lives in the register file. The file is `modulus` deep
    /// however much of it is materialised, so an ID from a larger ID space
    /// is out of bounds: a caller bug, fatal in release builds too.
    fn slot_index(&self, id: WrappedId) -> usize {
        assert!(
            id.raw() < self.cfg.modulus,
            "snapshot slot {} outside this unit's {}-slot register file",
            id.raw(),
            self.cfg.modulus
        );
        usize::from(id.raw())
    }

    /// Snapshot the unit's registers as seen over the CPU interface —
    /// used by the control plane's proactive polling recovery path (§6).
    pub fn poll_registers(&self) -> PolledRegisters {
        PolledRegisters {
            sid: self.sid,
            last_seen: self.last_seen.clone(),
        }
    }
}

/// Trace label for a unit direction (matches the [`UnitId`] display form).
fn dir_label(d: Direction) -> &'static str {
    match d {
        Direction::Ingress => "in",
        Direction::Egress => "out",
    }
}

/// A proactive register poll result (§6 "Ensuring liveness").
#[derive(Debug, Clone)]
pub struct PolledRegisters {
    /// The unit's current snapshot ID.
    pub sid: WrappedId,
    /// The unit's Last Seen array (real channels only).
    pub last_seen: Vec<WrappedId>,
}

/// Convenience: wrap an epoch with this unit's modulus.
impl DataPlaneUnit {
    /// Wrap a full epoch into this unit's ID space.
    pub fn wrap(&self, epoch: Epoch) -> WrappedId {
        WrappedId::wrap(epoch, self.cfg.modulus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(channel_state: bool, channels: u16, modulus: u16) -> DataPlaneUnit {
        DataPlaneUnit::new(UnitConfig {
            unit: UnitId::ingress(0, 0),
            modulus,
            channel_state,
            num_channels: channels,
        })
    }

    fn w(v: u16, m: u16) -> WrappedId {
        WrappedId::from_raw(v, m)
    }

    #[test]
    fn boot_state_is_epoch_zero() {
        let u = unit(true, 2, 8);
        assert_eq!(u.sid().raw(), 0);
        assert_eq!(u.last_seen(ChannelId(0)).raw(), 0);
        assert_eq!(u.last_seen(CPU_CHANNEL).raw(), 0);
        assert_eq!(u.peek_slot(w(0, 8)), SnapSlot::default());
    }

    #[test]
    fn current_epoch_packet_is_a_noop() {
        let mut u = unit(true, 1, 8);
        let out = u.on_packet(ChannelId(0), w(0, 8), 10, 1, false);
        assert_eq!(out.verdict, PacketVerdict::Current);
        assert_eq!(out.out_sid.raw(), 0);
        assert!(out.notification.is_none());
    }

    #[test]
    fn newer_packet_advances_and_saves_pre_update_state() {
        let mut u = unit(true, 1, 8);
        let out = u.on_packet(ChannelId(0), w(1, 8), 42, 1, false);
        assert_eq!(out.verdict, PacketVerdict::Advanced(1));
        assert_eq!(out.out_sid.raw(), 1);
        let slot = u.peek_slot(w(1, 8));
        assert!(slot.written);
        assert_eq!(slot.value, 42); // state *before* this packet's update
        assert_eq!(slot.channel, 0);
        let n = out.notification.expect("sid change must notify");
        assert_eq!(n.old_sid.raw(), 0);
        assert_eq!(n.new_sid.raw(), 1);
        assert_eq!(n.channel, Some(ChannelId(0)));
        assert_eq!(n.old_last_seen.raw(), 0);
        assert_eq!(n.new_last_seen.raw(), 1);
    }

    #[test]
    fn in_flight_packet_credits_current_slot() {
        let mut u = unit(true, 2, 8);
        // Channel 0 advances us to epoch 1.
        u.on_packet(ChannelId(0), w(1, 8), 100, 1, false);
        // Channel 1 still in epoch 0: in-flight, contributes 7 bytes.
        let out = u.on_packet(ChannelId(1), w(0, 8), 101, 7, false);
        assert_eq!(out.verdict, PacketVerdict::InFlight(1));
        assert_eq!(out.out_sid.raw(), 1, "header rewritten to local sid");
        assert_eq!(u.peek_slot(w(1, 8)).channel, 7);
        // The in-flight packet did not change Last Seen (still 0 == 0), so
        // no notification.
        assert!(out.notification.is_none());
    }

    #[test]
    fn last_seen_update_notifies_with_channel_state() {
        let mut u = unit(true, 2, 8);
        u.on_packet(ChannelId(0), w(1, 8), 0, 1, false);
        // Channel 1 catches up: last seen 0 -> 1, sid unchanged.
        let out = u.on_packet(ChannelId(1), w(1, 8), 0, 1, false);
        assert_eq!(out.verdict, PacketVerdict::Current);
        let n = out.notification.expect("last-seen change must notify");
        assert_eq!(n.old_sid, n.new_sid);
        assert_eq!(n.channel, Some(ChannelId(1)));
        assert_eq!(n.old_last_seen.raw(), 0);
        assert_eq!(n.new_last_seen.raw(), 1);
    }

    #[test]
    fn without_channel_state_only_sid_changes_notify() {
        let mut u = unit(false, 2, 8);
        let out = u.on_packet(ChannelId(0), w(1, 8), 5, 1, false);
        let n = out.notification.expect("sid change notifies");
        assert_eq!(n.channel, None);
        // Catch-up on the other channel: no notification without CS.
        let out = u.on_packet(ChannelId(1), w(1, 8), 5, 1, false);
        assert!(out.notification.is_none());
        // And no channel accumulation on in-flight.
        u.on_packet(ChannelId(0), w(2, 8), 6, 1, false);
        let out = u.on_packet(ChannelId(1), w(1, 8), 6, 9, false);
        assert_eq!(out.verdict, PacketVerdict::InFlight(1));
        assert_eq!(u.peek_slot(w(2, 8)).channel, 0);
    }

    #[test]
    fn skip_jump_leaves_intermediate_slots_unwritten() {
        let mut u = unit(true, 1, 8);
        let out = u.on_packet(ChannelId(0), w(3, 8), 50, 1, false);
        assert_eq!(out.verdict, PacketVerdict::Advanced(3));
        assert!(!u.peek_slot(w(1, 8)).written);
        assert!(!u.peek_slot(w(2, 8)).written);
        assert!(u.peek_slot(w(3, 8)).written);
        assert_eq!(u.peek_slot(w(3, 8)).value, 50);
    }

    #[test]
    fn rollover_advance_and_in_flight() {
        let m = 4;
        let mut u = unit(true, 2, m);
        // Walk channel 0 up through a full wrap: epochs 1,2,3,4(->0),5(->1).
        for (epoch, state) in [(1u16, 10u64), (2, 20), (3, 30)] {
            u.on_packet(ChannelId(0), w(epoch % m, m), state, 1, false);
        }
        // Bring channel 1 to epoch 3 so its reference is fresh.
        u.on_packet(ChannelId(1), w(3, m), 31, 1, false);
        // Epoch 4 wraps to raw 0.
        let out = u.on_packet(ChannelId(0), w(0, m), 40, 1, false);
        assert_eq!(out.verdict, PacketVerdict::Advanced(1));
        assert_eq!(u.sid().raw(), 0);
        assert_eq!(u.peek_slot(w(0, m)).value, 40);
        // Channel 1 sends an epoch-3 packet: in-flight across the wrap.
        let out = u.on_packet(ChannelId(1), w(3, m), 41, 5, false);
        assert_eq!(out.verdict, PacketVerdict::InFlight(1));
        assert_eq!(u.peek_slot(w(0, m)).channel, 5);
    }

    #[test]
    fn cpu_initiation_advances_but_never_counts_in_flight() {
        let mut u = unit(true, 1, 8);
        let out = u.on_packet(CPU_CHANNEL, w(1, 8), 7, 1, true);
        assert_eq!(out.verdict, PacketVerdict::Advanced(1));
        assert_eq!(u.last_seen(CPU_CHANNEL).raw(), 1);
        // A duplicate (re-sent) initiation is ignored.
        let out = u.on_packet(CPU_CHANNEL, w(1, 8), 8, 1, true);
        assert_eq!(out.verdict, PacketVerdict::Current);
        // An outdated initiation is in-flight-classified but never credited.
        u.on_packet(ChannelId(0), w(2, 8), 9, 1, false);
        let before = u.peek_slot(w(2, 8)).channel;
        let out = u.on_packet(CPU_CHANNEL, w(1, 8), 9, 1, true);
        assert_eq!(out.verdict, PacketVerdict::InFlight(1));
        assert_eq!(u.peek_slot(w(2, 8)).channel, before);
    }

    #[test]
    fn take_slot_clears_written() {
        let mut u = unit(true, 1, 8);
        u.on_packet(ChannelId(0), w(1, 8), 42, 1, false);
        let slot = u.take_slot(w(1, 8)).expect("written");
        assert_eq!(slot.value, 42);
        assert!(u.take_slot(w(1, 8)).is_none(), "second read sees cleared");
        assert!(!u.peek_slot(w(1, 8)).written);
    }

    #[test]
    fn poll_registers_reflects_state() {
        let mut u = unit(true, 2, 8);
        u.on_packet(ChannelId(0), w(2, 8), 0, 1, false);
        u.on_packet(ChannelId(1), w(1, 8), 0, 1, false);
        let regs = u.poll_registers();
        assert_eq!(regs.sid.raw(), 2);
        assert_eq!(regs.last_seen[0].raw(), 2);
        assert_eq!(regs.last_seen[1].raw(), 1);
    }

    #[test]
    fn in_flight_before_any_snapshot_is_impossible_but_guarded() {
        // At boot (sid=0, ls=0) every packet is Current or Advanced; the
        // contribution guard on unwritten slots protects against misuse.
        let mut u = unit(true, 1, 8);
        let out = u.on_packet(ChannelId(0), w(0, 8), 0, 1, false);
        assert_eq!(out.verdict, PacketVerdict::Current);
        assert_eq!(u.peek_slot(w(0, 8)).channel, 0);
        assert!(u.slots.is_empty(), "a Current packet materialises nothing");
    }

    #[test]
    fn fresh_register_file_reads_as_zeroes_at_every_index() {
        let m = 8;
        let mut u = unit(true, 1, m);
        assert!(u.slots.is_empty());
        for raw in [0, u.sid().raw(), m - 1] {
            assert_eq!(u.peek_slot(w(raw, m)), SnapSlot::default());
            assert_eq!(u.take_slot(w(raw, m)), None);
        }
        assert!(u.slots.is_empty(), "reads materialise nothing");
        // One save at slot 5: the file is 6 deep, the slots below read as
        // they did, the slots above are still not stored.
        u.on_packet(ChannelId(0), w(5, m), 50, 1, false);
        assert_eq!(u.slots.len(), 6);
        assert_eq!(u.peek_slot(w(4, m)), SnapSlot::default());
        assert_eq!(u.peek_slot(w(m - 1, m)), SnapSlot::default());
        assert_eq!(u.take_slot(w(m - 1, m)), None);
        assert_eq!(u.peek_slot(w(5, m)).value, 50);
    }

    #[test]
    fn in_flight_credit_to_a_read_out_slot_is_a_noop() {
        // The only slot an in-flight packet ever credits is the current
        // one, which the advance that made it current also materialised;
        // once the control plane has read it out, a late credit adds
        // nothing and allocates nothing.
        let mut u = unit(true, 2, 8);
        u.on_packet(ChannelId(0), w(1, 8), 10, 1, false);
        assert!(u.take_slot(w(1, 8)).is_some());
        let out = u.on_packet(ChannelId(1), w(0, 8), 11, 7, false);
        assert_eq!(out.verdict, PacketVerdict::InFlight(1));
        assert_eq!(u.peek_slot(w(1, 8)), SnapSlot::default());
        assert_eq!(u.slots.len(), 2);
    }

    #[test]
    fn register_file_stops_growing_at_modulus_and_slots_are_reused() {
        let m: u16 = 8;
        let mut u = unit(true, 1, m);
        for epoch in 1..=u64::from(m) + 3 {
            let id = u.wrap(epoch);
            // What the previous lap left in this slot, read or not, is
            // overwritten by the save.
            let out = u.on_packet(ChannelId(0), id, epoch * 10, 1, false);
            assert_eq!(out.verdict, PacketVerdict::Advanced(1));
            assert_eq!(u.peek_slot(id).value, epoch * 10);
            assert!(u.slots.len() <= usize::from(m));
            if epoch % 2 == 0 {
                assert_eq!(u.take_slot(id).map(|s| s.value), Some(epoch * 10));
                assert_eq!(u.take_slot(id), None);
            }
        }
        assert_eq!(u.slots.len(), usize::from(m));
        // Epoch m+3 reused slot 3; a skip over slots 4 and 5 leaves the
        // previous lap's slots as they were, as on a full-depth file.
        let out = u.on_packet(ChannelId(0), w(6, m), 999, 1, false);
        assert_eq!(out.verdict, PacketVerdict::Advanced(3));
        assert!(!u.peek_slot(w(4, m)).written, "taken on the first lap");
        assert_eq!(
            u.peek_slot(w(5, m)).value,
            50,
            "never taken, never rewritten"
        );
        assert_eq!(u.peek_slot(w(6, m)).value, 999);
        assert_eq!(u.slots.len(), usize::from(m));
    }

    /// An ID from a larger ID space indexes past the `modulus`-deep file:
    /// fatal whether or not the file is materialised that far, and in
    /// release builds too (`cargo test --release -p speedlight-core`),
    /// where the `debug_assert` on the modulus is compiled out.
    #[test]
    fn id_outside_the_modulus_panics_at_every_entry_point() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let foreign = w(8, 16);
        let mut fresh = unit(true, 1, 8);
        let mut full = unit(true, 1, 8);
        for epoch in 1..=8 {
            let id = full.wrap(epoch);
            full.on_packet(ChannelId(0), id, 0, 1, false);
        }
        for u in [&mut fresh, &mut full] {
            assert!(catch_unwind(AssertUnwindSafe(|| u.peek_slot(foreign))).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| u.take_slot(foreign))).is_err());
            assert!(catch_unwind(AssertUnwindSafe(|| {
                u.on_packet(ChannelId(0), foreign, 0, 1, false)
            }))
            .is_err());
        }
    }
}
