//! The differential oracle.
//!
//! Every substrate records the exact sequence of tagged deliveries each of
//! its units processed ([`DeliveryEvent`]: unwrapped tag, pre-update metric
//! value, contribution, initiation flag). Replaying that sequence through
//! the idealized Fig. 3 protocol ([`IdealUnit`]) yields, per unit and
//! epoch, the value an unconstrained implementation would have
//! snapshotted. The oracle then audits the substrate's *reported*
//! snapshots against that replay:
//!
//! * `Value { local, channel }` must equal the ideal slot exactly — this is
//!   the paper's claim that the hardware-constrained protocol agrees with
//!   the ideal one on every epoch it reports consistent, *including* across
//!   snapshot-ID wraparound (the log stores unwrapped tags, so a modulus-4
//!   run is compared at full epoch resolution);
//! * `Inferred { local }` (no-channel-state skips) must equal the ideal
//!   slot value — Fig. 3 fills every skipped slot with the same state the
//!   hardware's single write saved;
//! * exclusions must match the scenario's fault schedule, forced
//!   finalization must not occur in fault-free runs, and network-wide
//!   consistent totals must be monotone.

use crate::diff::Divergence;
use speedlight_core::consistency::DeliveryEvent;
use speedlight_core::ideal::{IdealSnap, IdealUnit};
use speedlight_core::observer::{GlobalSnapshot, UnitOutcome};
use speedlight_core::types::{UnitId, CPU_CHANNEL};
use std::collections::{BTreeMap, BTreeSet};

/// One completed snapshot plus how it completed.
#[derive(Debug, Clone)]
pub struct SnapEntry {
    /// The assembled snapshot.
    pub snapshot: GlobalSnapshot,
    /// Whether it only finished via `force_finalize`.
    pub forced: bool,
}

/// Everything one substrate produced for a scenario.
#[derive(Debug, Clone)]
pub struct SubstrateRun {
    /// Substrate label (`"fabric"`, `"emulation"`).
    pub substrate: &'static str,
    /// Completed snapshots in epoch order.
    pub snapshots: Vec<SnapEntry>,
    /// The recorded delivery log (per-unit processing order preserved).
    pub log: Vec<DeliveryEvent>,
}

/// What the scenario allows the substrate to do.
///
/// Each adversarial fault class maps onto these knobs (the invariant
/// table in DESIGN.md §12): permanently killed devices *must* be
/// excluded from forced snapshots once their kill epoch passes
/// (`faulted`); transient faults (link flaps under channel state,
/// notification drops, CP crashes) merely *permit* forcing and permit
/// excluding the affected devices (`allow_forced` + `may_exclude`);
/// load, duplication, reordering, and bounded PTP degradation permit
/// nothing — runs under them are held to the fully strict contract.
#[derive(Debug, Clone)]
pub struct Expectations {
    /// Channel-state variant?
    pub channel_state: bool,
    /// Devices the fault schedule permanently kills, mapped to the first
    /// epoch at which their exclusion becomes *required* (a device killed
    /// after completing `k` snapshots must be excluded from every forced
    /// epoch `>= k + 1`). Exclusion of these devices is *permitted* at
    /// any epoch (the kill may land mid-snapshot).
    pub faulted: BTreeMap<u16, u64>,
    /// Devices a transient fault may (but need not) drag into a forced
    /// exclusion: link-flap endpoints, notification-drop victims,
    /// crashed control planes.
    pub may_exclude: BTreeSet<u16>,
    /// Whether `force_finalize` completions are allowed at all.
    pub allow_forced: bool,
    /// Whether forced snapshots may exclude **only** expected devices
    /// (`faulted` keys and `may_exclude`).
    ///
    /// True for no-channel-state runs (completion never depends on a
    /// neighbor, so only an affected device can time out). In
    /// channel-state mode a dead device starves its neighbors' channels,
    /// which may legitimately drag them into the exclusion too.
    pub strict_exclusions: bool,
}

impl Expectations {
    /// A healthy run: no faults, nothing excluded, nothing forced.
    pub fn healthy(channel_state: bool) -> Expectations {
        Expectations {
            channel_state,
            faulted: BTreeMap::new(),
            may_exclude: BTreeSet::new(),
            allow_forced: false,
            strict_exclusions: true,
        }
    }
}

/// Per-unit ideal replay of a recorded delivery log.
#[derive(Debug)]
pub struct IdealReplay {
    units: BTreeMap<UnitId, IdealUnit>,
}

impl IdealReplay {
    /// Replay `log` through one [`IdealUnit`] per unit.
    ///
    /// Unit channel counts are sized from the log itself (the ideal
    /// protocol only indexes channels it receives on).
    pub fn from_log(log: &[DeliveryEvent], channel_state: bool) -> IdealReplay {
        let mut channels: BTreeMap<UnitId, u16> = BTreeMap::new();
        for ev in log {
            let entry = channels.entry(ev.unit).or_insert(1);
            if ev.channel != CPU_CHANNEL {
                *entry = (*entry).max(ev.channel.0 + 1);
            }
        }
        let mut units: BTreeMap<UnitId, IdealUnit> = channels
            .into_iter()
            .map(|(uid, n)| (uid, IdealUnit::new(uid, n, channel_state)))
            .collect();
        for ev in log {
            let unit = units.get_mut(&ev.unit).expect("sized above");
            unit.on_packet(ev.channel, ev.tag, ev.local_state, ev.contrib, ev.init);
        }
        IdealReplay { units }
    }

    /// The ideal snapshot for `(unit, epoch)`, if the replay reached it.
    pub fn snapshot(&self, unit: UnitId, epoch: u64) -> Option<IdealSnap> {
        self.units.get(&unit)?.snapshot(epoch)
    }

    /// Units that appeared in the log.
    pub fn units(&self) -> impl Iterator<Item = UnitId> + '_ {
        self.units.keys().copied()
    }
}

/// Audit one substrate's snapshots against the ideal replay of its own
/// delivery log plus the scenario's expectations. Returns every
/// divergence found (empty = conformant).
pub fn check_run(run: &SubstrateRun, expect: &Expectations) -> Vec<Divergence> {
    let replay = IdealReplay::from_log(&run.log, expect.channel_state);
    let mut divergences = Vec::new();
    let substrate = run.substrate;

    // The participating unit set must not drift across the run.
    let unit_set: Option<BTreeSet<UnitId>> = run
        .snapshots
        .first()
        .map(|e| e.snapshot.units.keys().copied().collect());

    let mut totals: Vec<(u64, u64)> = Vec::new(); // (epoch, total)
    for entry in &run.snapshots {
        let snap = &entry.snapshot;

        if let Some(expected_units) = &unit_set {
            let this: BTreeSet<UnitId> = snap.units.keys().copied().collect();
            if &this != expected_units {
                divergences.push(Divergence::UnitSetMismatch {
                    context: format!("{substrate}-epoch-{}", snap.epoch),
                    missing: expected_units.difference(&this).copied().collect(),
                    extra: this.difference(expected_units).copied().collect(),
                });
            }
        }

        // Exclusion policy.
        if entry.forced {
            if !expect.allow_forced {
                divergences.push(Divergence::UnexpectedForce {
                    substrate,
                    epoch: snap.epoch,
                });
            }
            for (&d, &from_epoch) in &expect.faulted {
                if snap.epoch >= from_epoch && !snap.excluded.contains(&d) {
                    divergences.push(Divergence::MissingExclusion {
                        substrate,
                        epoch: snap.epoch,
                        device: d,
                    });
                }
            }
            if expect.strict_exclusions {
                for &d in &snap.excluded {
                    if !expect.faulted.contains_key(&d) && !expect.may_exclude.contains(&d) {
                        divergences.push(Divergence::UnexpectedExclusion {
                            substrate,
                            epoch: snap.epoch,
                            device: d,
                        });
                    }
                }
            }
        } else {
            for &d in &snap.excluded {
                divergences.push(Divergence::UnexpectedExclusion {
                    substrate,
                    epoch: snap.epoch,
                    device: d,
                });
            }
        }

        // Per-unit value comparison against the ideal replay.
        for (&uid, outcome) in &snap.units {
            match *outcome {
                UnitOutcome::Value { local, channel } => match replay.snapshot(uid, snap.epoch) {
                    None => divergences.push(Divergence::UnexplainedEpoch {
                        substrate,
                        unit: uid,
                        epoch: snap.epoch,
                    }),
                    Some(ideal) => {
                        if ideal.value != local {
                            divergences.push(Divergence::ValueMismatch {
                                substrate,
                                unit: uid,
                                epoch: snap.epoch,
                                reported: local,
                                expected: ideal.value,
                            });
                        }
                        if expect.channel_state && ideal.channel != channel {
                            divergences.push(Divergence::ChannelMismatch {
                                substrate,
                                unit: uid,
                                epoch: snap.epoch,
                                reported: channel,
                                expected: ideal.channel,
                            });
                        }
                    }
                },
                UnitOutcome::Inferred { local } => match replay.snapshot(uid, snap.epoch) {
                    None => divergences.push(Divergence::UnexplainedEpoch {
                        substrate,
                        unit: uid,
                        epoch: snap.epoch,
                    }),
                    Some(ideal) => {
                        if ideal.value != local {
                            divergences.push(Divergence::ValueMismatch {
                                substrate,
                                unit: uid,
                                epoch: snap.epoch,
                                reported: local,
                                expected: ideal.value,
                            });
                        }
                    }
                },
                // Hardware-limit skip in channel-state mode: the paper
                // accepts the loss; there is no value to compare.
                UnitOutcome::Inconsistent => {}
                UnitOutcome::Missing => divergences.push(Divergence::MissingReport {
                    substrate,
                    unit: uid,
                    epoch: snap.epoch,
                }),
                // Exclusion correctness is handled by the policy above.
                UnitOutcome::DeviceExcluded => {}
            }
        }

        if snap.fully_consistent() {
            totals.push((snap.epoch, snap.consistent_total()));
        }
    }

    // Monotone consistent totals over fully consistent snapshots, compared
    // in *epoch* order: counters only grow, so a later epoch can never
    // total less. The list is in completion order, which faults can
    // scramble (a dropped notification delays one epoch's finalization
    // past its successor's) — that reordering is legitimate; a shrinking
    // epoch-ordered total is not.
    totals.sort_unstable_by_key(|&(epoch, _)| epoch);
    for w in totals.windows(2) {
        if w[1].1 < w[0].1 {
            divergences.push(Divergence::NonMonotoneTotal {
                substrate,
                epoch: w[1].0,
                prev_total: w[0].1,
                total: w[1].1,
            });
        }
    }

    divergences
}

/// Compare the participating unit sets of two substrates (they run the
/// same logical topology, so the sets must be identical).
pub fn check_unit_sets(context: &str, a: &SubstrateRun, b: &SubstrateRun) -> Vec<Divergence> {
    let (Some(sa), Some(sb)) = (a.snapshots.first(), b.snapshots.first()) else {
        return Vec::new();
    };
    let ua: BTreeSet<UnitId> = sa.snapshot.units.keys().copied().collect();
    let ub: BTreeSet<UnitId> = sb.snapshot.units.keys().copied().collect();
    if ua == ub {
        Vec::new()
    } else {
        vec![Divergence::UnitSetMismatch {
            context: context.to_string(),
            missing: ua.difference(&ub).copied().collect(),
            extra: ub.difference(&ua).copied().collect(),
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedlight_core::observer::UnitMap;
    use speedlight_core::types::ChannelId;

    fn uid() -> UnitId {
        UnitId::ingress(0, 0)
    }

    fn ev(tag: u64, local_state: u64, contrib: u64, init: bool) -> DeliveryEvent {
        DeliveryEvent {
            unit: uid(),
            channel: if init { CPU_CHANNEL } else { ChannelId(0) },
            tag,
            local_state,
            contrib,
            init,
        }
    }

    #[test]
    fn replay_matches_manual_ideal_run() {
        // Two data packets in epoch 0, then the initiation for epoch 1.
        let log = vec![ev(0, 0, 1, false), ev(0, 1, 1, false), ev(1, 2, 0, true)];
        let replay = IdealReplay::from_log(&log, true);
        assert_eq!(
            replay.snapshot(uid(), 1),
            Some(IdealSnap {
                value: 2,
                channel: 0
            })
        );
    }

    #[test]
    fn check_run_accepts_matching_values_and_flags_corruption() {
        let log = vec![ev(0, 0, 1, false), ev(1, 1, 0, true)];
        let mut snap = GlobalSnapshot {
            epoch: 1,
            devices: [0].into(),
            excluded: BTreeSet::new(),
            units: UnitMap::from_iter([(
                uid(),
                UnitOutcome::Value {
                    local: 1,
                    channel: 0,
                },
            )]),
        };
        let run = |snap: &GlobalSnapshot| SubstrateRun {
            substrate: "test",
            snapshots: vec![SnapEntry {
                snapshot: snap.clone(),
                forced: false,
            }],
            log: log.clone(),
        };
        let expect = Expectations::healthy(true);
        assert!(check_run(&run(&snap), &expect).is_empty());
        *snap
            .units
            .get_mut(&uid())
            .expect("the unit is in the snapshot") = UnitOutcome::Value {
            local: 2,
            channel: 0,
        };
        let divergences = check_run(&run(&snap), &expect);
        assert!(matches!(
            divergences.as_slice(),
            [Divergence::ValueMismatch {
                reported: 2,
                expected: 1,
                ..
            }]
        ));
    }
}
