//! The snapshot observer (§3 "Operation", §6).
//!
//! A host-side process that (1) registers the set of participating devices,
//! (2) issues snapshot epochs — respecting the **no-lapping** invariant by
//! capping outstanding epochs below the ID modulus (§5.3), (3) assembles
//! per-unit reports shipped up by the device control planes into
//! [`GlobalSnapshot`]s, and (4) deals with failures: devices that time out
//! are excluded from the snapshot rather than wedging it (§6).
//!
//! Like the rest of `speedlight-core` this is sans-I/O: the embedding layer
//! decides when to call [`Observer::begin_snapshot`] (e.g. at a
//! PTP-scheduled instant) and what to do with the initiation fan-out.

use crate::control::{Report, ReportValue};
use crate::id::Epoch;
use crate::types::UnitId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::iter::Zip;
use std::ops::Index;
use std::sync::Arc;

/// Observer configuration.
#[derive(Debug, Clone)]
pub struct ObserverConfig {
    /// Snapshot ID modulus used by the data planes.
    pub modulus: u16,
    /// Maximum epochs in flight at once. Must be ≤ `modulus - 1` to uphold
    /// no-lapping; smaller values trade snapshot rate for slack.
    pub max_outstanding: u16,
}

impl ObserverConfig {
    /// The most permissive safe configuration for a given modulus.
    pub fn for_modulus(modulus: u16) -> ObserverConfig {
        assert!(modulus >= 2);
        ObserverConfig {
            modulus,
            max_outstanding: modulus - 1,
        }
    }
}

/// Outcome of one unit's measurement within a global snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitOutcome {
    /// A consistent, directly read value (local state + channel state).
    Value {
        /// Snapshotted local state.
        local: u64,
        /// Accumulated channel state.
        channel: u64,
    },
    /// Value inferred across a skipped epoch (no-channel-state mode).
    Inferred {
        /// Inferred local state.
        local: u64,
    },
    /// Hardware limits / conservative drop handling invalidated this value.
    Inconsistent,
    /// The control plane could not produce the value.
    Missing,
    /// The owning device timed out and was excluded from the snapshot.
    DeviceExcluded,
}

impl From<ReportValue> for UnitOutcome {
    fn from(v: ReportValue) -> UnitOutcome {
        match v {
            ReportValue::Value { local, channel } => UnitOutcome::Value { local, channel },
            ReportValue::Inferred { local } => UnitOutcome::Inferred { local },
            ReportValue::Inconsistent => UnitOutcome::Inconsistent,
            ReportValue::Missing => UnitOutcome::Missing,
        }
    }
}

impl UnitOutcome {
    /// The usable local value, if any (consistent or inferred).
    pub fn local(&self) -> Option<u64> {
        match self {
            UnitOutcome::Value { local, .. } | UnitOutcome::Inferred { local } => Some(*local),
            _ => None,
        }
    }
}

/// A fully assembled network-wide snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalSnapshot {
    /// The snapshot epoch.
    pub epoch: Epoch,
    /// Devices that participated (registered at initiation and not excluded).
    pub devices: BTreeSet<u16>,
    /// Devices excluded by timeout.
    pub excluded: BTreeSet<u16>,
    /// Per-unit outcomes, iterated in `UnitId` order. A snapshot sealed
    /// by the [`PipelineObserver`](crate::pipeline::PipelineObserver)
    /// shares its key column with every other snapshot sealed under the
    /// same registration state and owns only its outcome column.
    pub units: UnitMap,
}

/// A snapshot's per-unit outcomes as a sorted two-column map: a
/// `UnitId`-sorted, duplicate-free key column beside an outcome column
/// (`values[i]` belongs to `keys[i]`).
///
/// The key column is an `Arc`: the staged pipeline seals every snapshot of
/// one registration state over its membership's own column, so a retained
/// snapshot costs one [`UnitOutcome`] per unit and no keys or tree nodes.
/// A map collected with [`FromIterator`] owns its column. Iteration is in
/// `UnitId` order, lookups are a binary search, and equality compares
/// content, never column identity.
#[derive(Clone, PartialEq, Eq)]
pub struct UnitMap {
    /// Sorted, no duplicates; shared per registration state when sealed
    /// by the pipeline.
    pub(crate) keys: Arc<[UnitId]>,
    /// One outcome per key, in key order.
    pub(crate) values: Vec<UnitOutcome>,
}

impl UnitMap {
    /// Number of units.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the map holds no unit.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The outcome of `unit`, if present.
    pub fn get(&self, unit: &UnitId) -> Option<&UnitOutcome> {
        let i = self.keys.binary_search(unit).ok()?;
        self.values.get(i)
    }

    /// The outcome of `unit` for in-place edits, if present. Only the
    /// outcome column is mutable; the (possibly shared) keys are not.
    pub fn get_mut(&mut self, unit: &UnitId) -> Option<&mut UnitOutcome> {
        let i = self.keys.binary_search(unit).ok()?;
        self.values.get_mut(i)
    }

    /// The units, in `UnitId` order.
    pub fn keys(&self) -> std::slice::Iter<'_, UnitId> {
        self.keys.iter()
    }

    /// The outcomes, in their units' order.
    pub fn values(&self) -> std::slice::Iter<'_, UnitOutcome> {
        self.values.iter()
    }

    /// `(unit, outcome)` pairs in `UnitId` order.
    pub fn iter(&self) -> Zip<std::slice::Iter<'_, UnitId>, std::slice::Iter<'_, UnitOutcome>> {
        self.keys.iter().zip(&self.values)
    }

    /// `(unit, outcome)` pairs in `UnitId` order, outcomes mutable.
    pub fn iter_mut(
        &mut self,
    ) -> Zip<std::slice::Iter<'_, UnitId>, std::slice::IterMut<'_, UnitOutcome>> {
        self.keys.iter().zip(&mut self.values)
    }
}

/// Printed as a map, exactly as the `BTreeMap` it replaced printed.
impl fmt::Debug for UnitMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl Index<&UnitId> for UnitMap {
    type Output = UnitOutcome;

    /// Panics when `unit` is absent, as `BTreeMap`'s index does.
    fn index(&self, unit: &UnitId) -> &UnitOutcome {
        match self.get(unit) {
            Some(outcome) => outcome,
            None => panic!("no outcome for {unit:?} in the snapshot"),
        }
    }
}

impl<'a> IntoIterator for &'a UnitMap {
    type Item = (&'a UnitId, &'a UnitOutcome);
    type IntoIter = Zip<std::slice::Iter<'a, UnitId>, std::slice::Iter<'a, UnitOutcome>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Collects into an owned key column. Of two pairs with one key the later
/// wins, as in `BTreeMap`.
impl FromIterator<(UnitId, UnitOutcome)> for UnitMap {
    fn from_iter<I: IntoIterator<Item = (UnitId, UnitOutcome)>>(pairs: I) -> UnitMap {
        let mut pairs: Vec<(UnitId, UnitOutcome)> = pairs.into_iter().collect();
        // Stable, so of equal keys the later pair stays later.
        pairs.sort_by_key(|&(unit, _)| unit);
        let mut keys: Vec<UnitId> = Vec::with_capacity(pairs.len());
        let mut values = Vec::with_capacity(pairs.len());
        for (unit, outcome) in pairs {
            match values.last_mut() {
                Some(last) if keys.last() == Some(&unit) => *last = outcome,
                _ => {
                    keys.push(unit);
                    values.push(outcome);
                }
            }
        }
        UnitMap {
            keys: keys.into(),
            values,
        }
    }
}

impl GlobalSnapshot {
    /// Iterate over units with usable values.
    pub fn usable(&self) -> impl Iterator<Item = (UnitId, u64)> + '_ {
        self.units
            .iter()
            .filter_map(|(u, o)| o.local().map(|v| (*u, v)))
    }

    /// Sum of `local + channel` over consistent values — for counting
    /// metrics this is the causally-consistent network-wide total.
    ///
    /// Overflow policy: the total **saturates** at `u64::MAX`. Counter
    /// values near the u64 boundary are already degenerate (real switch
    /// counters wrap far below it), so a saturated total is a readable
    /// "off the scale" marker — preferable to a panic in release builds
    /// or, worse, a silently wrapped small number that looks plausible.
    /// Callers that must distinguish saturation use
    /// [`GlobalSnapshot::checked_consistent_total`].
    pub fn consistent_total(&self) -> u64 {
        self.units.values().fold(0u64, |acc, o| match o {
            UnitOutcome::Value { local, channel } => {
                acc.saturating_add(*local).saturating_add(*channel)
            }
            UnitOutcome::Inferred { local } => acc.saturating_add(*local),
            _ => acc,
        })
    }

    /// [`GlobalSnapshot::consistent_total`] without the saturation: `None`
    /// when the exact sum does not fit in a `u64`.
    pub fn checked_consistent_total(&self) -> Option<u64> {
        self.units.values().try_fold(0u64, |acc, o| match o {
            UnitOutcome::Value { local, channel } => acc.checked_add(*local)?.checked_add(*channel),
            UnitOutcome::Inferred { local } => acc.checked_add(*local),
            _ => Some(acc),
        })
    }

    /// True when every unit reported a consistent or inferred value.
    pub fn fully_consistent(&self) -> bool {
        self.units
            .values()
            .all(|o| matches!(o, UnitOutcome::Value { .. } | UnitOutcome::Inferred { .. }))
    }
}

#[derive(Debug, Clone)]
struct PendingSnapshot {
    device_set: BTreeSet<u16>,
    expected: BTreeSet<UnitId>,
    excluded: BTreeSet<u16>,
    values: BTreeMap<UnitId, UnitOutcome>,
}

/// The network-wide snapshot observer.
#[derive(Debug, Clone)]
pub struct Observer {
    cfg: ObserverConfig,
    devices: BTreeMap<u16, Vec<UnitId>>,
    next_epoch: Epoch,
    pending: BTreeMap<Epoch, PendingSnapshot>,
    finalized: u64,
    misattributed: u64,
}

impl Observer {
    /// Create an observer with no registered devices.
    pub fn new(cfg: ObserverConfig) -> Observer {
        assert!(cfg.max_outstanding >= 1);
        assert!(
            cfg.max_outstanding < cfg.modulus,
            "outstanding epochs must stay below the modulus (no-lapping)"
        );
        Observer {
            cfg,
            devices: BTreeMap::new(),
            next_epoch: 1,
            pending: BTreeMap::new(),
            finalized: 0,
            misattributed: 0,
        }
    }

    /// Register a device and its expected processing units (§6 "Node
    /// attachment"). The device participates starting with the *next*
    /// initiated snapshot.
    pub fn register_device(&mut self, device: u16, units: Vec<UnitId>) {
        self.devices.insert(device, units);
    }

    /// Remove a device (decommissioning). Pending snapshots that expected
    /// it will only finish via [`Observer::force_finalize`].
    pub fn detach_device(&mut self, device: u16) {
        self.devices.remove(&device);
    }

    /// Registered device IDs.
    pub fn device_ids(&self) -> impl Iterator<Item = u16> + '_ {
        self.devices.keys().copied()
    }

    /// Epochs issued but not yet finalized.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Epochs currently pending, oldest first.
    pub fn pending_epochs(&self) -> impl Iterator<Item = Epoch> + '_ {
        self.pending.keys().copied()
    }

    /// Number of snapshots finalized so far.
    pub fn finalized_count(&self) -> u64 {
        self.finalized
    }

    /// Reports rejected because the delivering device did not own the
    /// reported unit (see `report.misattributed` in the trace).
    pub fn misattributed_count(&self) -> u64 {
        self.misattributed
    }

    /// Issue the next snapshot epoch, or `None` if doing so would violate
    /// the no-lapping cap (the caller should retry after completions).
    ///
    /// The caller is responsible for fanning the returned epoch out to every
    /// registered device control plane as a scheduled initiation.
    pub fn begin_snapshot(&mut self) -> Option<Epoch> {
        self.begin_snapshot_traced(&mut obs::NoopSink, 0)
    }

    /// [`Observer::begin_snapshot`] with trace emission: a `snap.initiate`
    /// event carrying the epoch and the expected device/unit counts.
    pub fn begin_snapshot_traced<S: obs::Sink>(
        &mut self,
        sink: &mut S,
        t_ns: u64,
    ) -> Option<Epoch> {
        if self.pending.len() >= usize::from(self.cfg.max_outstanding) {
            return None;
        }
        if self.devices.is_empty() {
            return None;
        }
        let epoch = self.next_epoch;
        // Checked-arithmetic policy: a wrapped epoch counter would silently
        // alias wrapped snapshot IDs and corrupt no-lapping bookkeeping.
        self.next_epoch = epoch.checked_add(1).unwrap_or_else(|| {
            panic!("observer epoch counter overflow: next_epoch would exceed u64::MAX")
        });
        let device_set: BTreeSet<u16> = self.devices.keys().copied().collect();
        let expected: BTreeSet<UnitId> = self
            .devices
            .values()
            .flat_map(|units| units.iter().copied())
            .collect();
        obs::event!(
            sink,
            t_ns,
            "snap.initiate",
            epoch = epoch,
            devices = device_set.len(),
            units = expected.len(),
        );
        self.pending.insert(
            epoch,
            PendingSnapshot {
                device_set,
                expected,
                excluded: BTreeSet::new(),
                values: BTreeMap::new(),
            },
        );
        Some(epoch)
    }

    /// Deliver one control-plane report. Returns the finished snapshot if
    /// this report completed its epoch.
    ///
    /// Reports for unknown epochs, for devices outside the epoch's device
    /// set (late attachers, §6), or duplicates are ignored.
    pub fn on_report(&mut self, device: u16, report: Report) -> Option<GlobalSnapshot> {
        self.on_report_traced(device, report, &mut obs::NoopSink, 0)
    }

    /// [`Observer::on_report`] with trace emission: an `obs.finalize` event
    /// when this report completes its epoch.
    pub fn on_report_traced<S: obs::Sink>(
        &mut self,
        device: u16,
        report: Report,
        sink: &mut S,
        t_ns: u64,
    ) -> Option<GlobalSnapshot> {
        // Attribution check first: a report whose unit belongs to a
        // different device than the one delivering it is misrouted (or
        // spoofed) — crediting it would let device A complete device B's
        // share of the epoch. Rejected regardless of epoch validity.
        if report.unit.device != device {
            obs::event!(
                sink,
                t_ns,
                "report.misattributed",
                dev = device,
                unit_dev = report.unit.device,
                epoch = report.epoch,
            );
            self.misattributed += 1;
            return None;
        }
        let pending = self.pending.get_mut(&report.epoch)?;
        if !pending.device_set.contains(&device) || pending.excluded.contains(&device) {
            return None; // spurious: device not in this epoch's set
        }
        if !pending.expected.contains(&report.unit) {
            return None;
        }
        pending
            .values
            .entry(report.unit)
            .or_insert_with(|| report.value.into());
        if pending.values.len() == pending.expected.len() {
            let snap = self.finalize(report.epoch)?;
            obs::event!(
                sink,
                t_ns,
                "obs.finalize",
                epoch = snap.epoch,
                units = snap.units.len(),
                excluded = snap.excluded.len(),
                forced = false,
            );
            return Some(snap);
        }
        None
    }

    /// Units still missing for `epoch` (retry / re-initiation planning).
    pub fn missing_units(&self, epoch: Epoch) -> Vec<UnitId> {
        match self.pending.get(&epoch) {
            Some(p) => p
                .expected
                .iter()
                .filter(|u| !p.values.contains_key(u))
                .copied()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Devices with at least one missing unit for `epoch`.
    pub fn lagging_devices(&self, epoch: Epoch) -> BTreeSet<u16> {
        self.missing_units(epoch).iter().map(|u| u.device).collect()
    }

    /// Timeout path: exclude every device that still has missing units and
    /// finalize the snapshot with what arrived (§6: "If a device fails, it
    /// may timeout and be excluded from the global snapshot").
    pub fn force_finalize(&mut self, epoch: Epoch) -> Option<GlobalSnapshot> {
        self.force_finalize_traced(epoch, &mut obs::NoopSink, 0)
    }

    /// [`Observer::force_finalize`] with trace emission: one `snap.exclude`
    /// per timed-out device, then an `obs.finalize` marked `forced`.
    pub fn force_finalize_traced<S: obs::Sink>(
        &mut self,
        epoch: Epoch,
        sink: &mut S,
        t_ns: u64,
    ) -> Option<GlobalSnapshot> {
        let pending = self.pending.get_mut(&epoch)?;
        let lagging: BTreeSet<u16> = pending
            .expected
            .iter()
            .filter(|u| !pending.values.contains_key(u))
            .map(|u| u.device)
            .collect();
        for dev in &lagging {
            pending.excluded.insert(*dev);
            obs::event!(sink, t_ns, "snap.exclude", epoch = epoch, dev = *dev);
        }
        // Exclusion policy (§6): an excluded device contributes NOTHING —
        // every one of its units reads DeviceExcluded, even units it did
        // deliver before timing out (a partial view of a failed device is
        // not a consistent cut). The values it DID deliver are counted and
        // surfaced in the finalize event so the discard is auditable
        // instead of silent.
        let expected = pending.expected.clone();
        let mut discarded: u64 = 0;
        for unit in expected {
            if lagging.contains(&unit.device) {
                if let Some(prev) = pending.values.insert(unit, UnitOutcome::DeviceExcluded) {
                    if prev != UnitOutcome::DeviceExcluded {
                        discarded += 1;
                    }
                }
            }
        }
        let snap = self.finalize(epoch)?;
        obs::event!(
            sink,
            t_ns,
            "obs.finalize",
            epoch = snap.epoch,
            units = snap.units.len(),
            excluded = snap.excluded.len(),
            forced = true,
            discarded = discarded,
        );
        Some(snap)
    }

    /// Remove `epoch` from the pending set and seal its snapshot. Total:
    /// an epoch that is not pending (already finalized, or never opened)
    /// yields `None` instead of tearing down the event loop.
    fn finalize(&mut self, epoch: Epoch) -> Option<GlobalSnapshot> {
        let p = self.pending.remove(&epoch)?;
        self.finalized += 1;
        Some(GlobalSnapshot {
            epoch,
            devices: &p.device_set - &p.excluded,
            excluded: p.excluded,
            units: p.values.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(unit: UnitId, epoch: Epoch, local: u64) -> Report {
        Report {
            unit,
            epoch,
            value: ReportValue::Value { local, channel: 0 },
        }
    }

    fn two_device_observer() -> Observer {
        let mut obs = Observer::new(ObserverConfig::for_modulus(8));
        obs.register_device(0, vec![UnitId::ingress(0, 0), UnitId::egress(0, 0)]);
        obs.register_device(1, vec![UnitId::ingress(1, 0), UnitId::egress(1, 0)]);
        obs
    }

    #[test]
    fn assembles_snapshot_when_all_units_report() {
        let mut obs = two_device_observer();
        let epoch = obs.begin_snapshot().unwrap();
        assert_eq!(epoch, 1);
        assert!(obs
            .on_report(0, report(UnitId::ingress(0, 0), 1, 10))
            .is_none());
        assert!(obs
            .on_report(0, report(UnitId::egress(0, 0), 1, 11))
            .is_none());
        assert!(obs
            .on_report(1, report(UnitId::ingress(1, 0), 1, 12))
            .is_none());
        let snap = obs
            .on_report(1, report(UnitId::egress(1, 0), 1, 13))
            .expect("final report completes the snapshot");
        assert_eq!(snap.epoch, 1);
        assert!(snap.fully_consistent());
        assert_eq!(snap.consistent_total(), 10 + 11 + 12 + 13);
        assert_eq!(snap.devices, BTreeSet::from([0, 1]));
        assert!(snap.excluded.is_empty());
        assert_eq!(obs.outstanding(), 0);
        assert_eq!(obs.finalized_count(), 1);
    }

    #[test]
    fn no_lapping_cap_limits_outstanding_epochs() {
        let mut obs = Observer::new(ObserverConfig {
            modulus: 4,
            max_outstanding: 3,
        });
        obs.register_device(0, vec![UnitId::ingress(0, 0)]);
        assert_eq!(obs.begin_snapshot(), Some(1));
        assert_eq!(obs.begin_snapshot(), Some(2));
        assert_eq!(obs.begin_snapshot(), Some(3));
        assert_eq!(obs.begin_snapshot(), None, "cap reached");
        // Completing epoch 1 frees a slot.
        obs.on_report(0, report(UnitId::ingress(0, 0), 1, 5))
            .unwrap();
        assert_eq!(obs.begin_snapshot(), Some(4));
    }

    #[test]
    fn cannot_snapshot_an_empty_network() {
        let mut obs = Observer::new(ObserverConfig::for_modulus(8));
        assert_eq!(obs.begin_snapshot(), None);
    }

    #[test]
    fn duplicate_reports_do_not_double_count() {
        let mut obs = Observer::new(ObserverConfig::for_modulus(8));
        obs.register_device(0, vec![UnitId::ingress(0, 0), UnitId::egress(0, 0)]);
        obs.begin_snapshot().unwrap();
        obs.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        // Duplicate (e.g., a retry raced with the original) is ignored and
        // keeps the first value.
        assert!(obs
            .on_report(0, report(UnitId::ingress(0, 0), 1, 99))
            .is_none());
        let snap = obs
            .on_report(0, report(UnitId::egress(0, 0), 1, 11))
            .unwrap();
        assert_eq!(
            snap.units[&UnitId::ingress(0, 0)],
            UnitOutcome::Value {
                local: 10,
                channel: 0
            }
        );
    }

    #[test]
    fn late_attached_device_is_ignored_for_in_flight_epochs() {
        let mut obs = Observer::new(ObserverConfig::for_modulus(8));
        obs.register_device(0, vec![UnitId::ingress(0, 0)]);
        obs.begin_snapshot().unwrap();
        // Device 1 attaches after epoch 1 was initiated.
        obs.register_device(1, vec![UnitId::ingress(1, 0)]);
        // Its (spurious) epoch-1 report is ignored.
        assert!(obs
            .on_report(1, report(UnitId::ingress(1, 0), 1, 7))
            .is_none());
        let snap = obs
            .on_report(0, report(UnitId::ingress(0, 0), 1, 5))
            .unwrap();
        assert_eq!(snap.units.len(), 1);
        // But epoch 2 includes it.
        let e2 = obs.begin_snapshot().unwrap();
        assert_eq!(e2, 2);
        assert!(obs
            .on_report(0, report(UnitId::ingress(0, 0), 2, 6))
            .is_none());
        let snap2 = obs
            .on_report(1, report(UnitId::ingress(1, 0), 2, 8))
            .unwrap();
        assert_eq!(snap2.units.len(), 2);
    }

    #[test]
    fn timeout_excludes_lagging_devices() {
        let mut obs = two_device_observer();
        obs.begin_snapshot().unwrap();
        obs.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        obs.on_report(0, report(UnitId::egress(0, 0), 1, 11));
        assert_eq!(obs.lagging_devices(1), BTreeSet::from([1]));
        let snap = obs.force_finalize(1).unwrap();
        assert_eq!(snap.excluded, BTreeSet::from([1]));
        assert_eq!(snap.devices, BTreeSet::from([0]));
        assert_eq!(
            snap.units[&UnitId::ingress(1, 0)],
            UnitOutcome::DeviceExcluded
        );
        assert!(!snap.fully_consistent());
        assert_eq!(snap.consistent_total(), 21);
        // Excluded device's late report arrives afterwards: epoch is gone.
        assert!(obs
            .on_report(1, report(UnitId::ingress(1, 0), 1, 12))
            .is_none());
    }

    #[test]
    fn force_finalize_excludes_two_devices_failing_in_the_same_epoch() {
        // Regression: force_finalize must cope with MULTIPLE lagging
        // devices at once — every unit of both is marked DeviceExcluded,
        // both land in `excluded`, and a third healthy device's values
        // survive untouched.
        let mut obs = Observer::new(ObserverConfig::for_modulus(8));
        for d in 0..3u16 {
            obs.register_device(d, vec![UnitId::ingress(d, 0), UnitId::egress(d, 0)]);
        }
        obs.begin_snapshot().unwrap();
        obs.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        obs.on_report(0, report(UnitId::egress(0, 0), 1, 11));
        // Devices 1 and 2 both died: no reports at all.
        assert_eq!(obs.lagging_devices(1), BTreeSet::from([1, 2]));
        let snap = obs.force_finalize(1).unwrap();
        assert_eq!(snap.excluded, BTreeSet::from([1, 2]));
        assert_eq!(snap.devices, BTreeSet::from([0]));
        for (uid, outcome) in &snap.units {
            match uid.device {
                0 => assert!(matches!(outcome, UnitOutcome::Value { .. })),
                _ => assert_eq!(*outcome, UnitOutcome::DeviceExcluded),
            }
        }
        assert_eq!(snap.consistent_total(), 21);
        assert_eq!(obs.outstanding(), 0);
        // The epoch is gone: stragglers' late reports are ignored and the
        // next epoch proceeds normally with all three devices expected.
        assert!(obs
            .on_report(1, report(UnitId::ingress(1, 0), 1, 9))
            .is_none());
        assert_eq!(obs.begin_snapshot(), Some(2));
    }

    #[test]
    fn missing_units_drive_retries() {
        let mut obs = two_device_observer();
        obs.begin_snapshot().unwrap();
        obs.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        let missing = obs.missing_units(1);
        assert_eq!(missing.len(), 3);
        assert!(missing.contains(&UnitId::egress(0, 0)));
        assert!(obs.missing_units(99).is_empty());
    }

    #[test]
    fn reports_for_unknown_epochs_or_units_are_ignored() {
        let mut obs = two_device_observer();
        obs.begin_snapshot().unwrap();
        assert!(obs
            .on_report(0, report(UnitId::ingress(0, 0), 7, 1))
            .is_none());
        assert!(obs
            .on_report(0, report(UnitId::ingress(9, 9), 1, 1))
            .is_none());
    }

    #[test]
    fn outcome_helpers() {
        assert_eq!(
            UnitOutcome::Value {
                local: 3,
                channel: 1
            }
            .local(),
            Some(3)
        );
        assert_eq!(UnitOutcome::Inferred { local: 4 }.local(), Some(4));
        assert_eq!(UnitOutcome::Inconsistent.local(), None);
        assert_eq!(UnitOutcome::Missing.local(), None);
        assert_eq!(UnitOutcome::DeviceExcluded.local(), None);
    }

    #[test]
    #[should_panic(expected = "no-lapping")]
    fn config_rejects_unsafe_outstanding_cap() {
        Observer::new(ObserverConfig {
            modulus: 4,
            max_outstanding: 4,
        });
    }

    #[test]
    fn consistent_total_saturates_at_the_u64_boundary() {
        let snap = GlobalSnapshot {
            epoch: 1,
            devices: BTreeSet::from([0]),
            excluded: BTreeSet::new(),
            units: UnitMap::from_iter([
                (
                    UnitId::ingress(0, 0),
                    UnitOutcome::Value {
                        local: u64::MAX - 1,
                        channel: 1,
                    },
                ),
                (UnitId::egress(0, 0), UnitOutcome::Inferred { local: 7 }),
            ]),
        };
        // local + channel alone hits u64::MAX exactly; the inferred unit
        // pushes past it and the total clamps instead of wrapping.
        assert_eq!(snap.consistent_total(), u64::MAX);
        assert_eq!(snap.checked_consistent_total(), None);
    }

    #[test]
    fn misattributed_report_is_rejected_and_counted() {
        // Regression: device 0 delivers a report for device 1's (expected!)
        // unit. Pre-fix this was credited — device 0 could complete device
        // 1's share of the epoch with spoofed attribution. It must be
        // rejected, traced, and must leave the unit missing.
        let mut obs = two_device_observer();
        let mut sink = obs::sinks::RingSink::new(16);
        obs.begin_snapshot_traced(&mut sink, 0).unwrap();
        assert!(obs
            .on_report_traced(0, report(UnitId::ingress(1, 0), 1, 99), &mut sink, 10)
            .is_none());
        assert_eq!(obs.misattributed_count(), 1);
        assert!(obs.missing_units(1).contains(&UnitId::ingress(1, 0)));
        let ev = sink
            .events()
            .find(|e| e.name == "report.misattributed")
            .expect("misattribution must be traced");
        assert_eq!(ev.get("dev").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(ev.get("unit_dev").and_then(|v| v.as_u64()), Some(1));
        // The spoofed value never lands: finishing the epoch legitimately
        // yields device 1's real value, not 99.
        obs.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        obs.on_report(0, report(UnitId::egress(0, 0), 1, 11));
        obs.on_report(1, report(UnitId::ingress(1, 0), 1, 12));
        let snap = obs
            .on_report(1, report(UnitId::egress(1, 0), 1, 13))
            .unwrap();
        assert_eq!(
            snap.units[&UnitId::ingress(1, 0)],
            UnitOutcome::Value {
                local: 12,
                channel: 0
            }
        );
    }

    #[test]
    fn forced_finalize_counts_discarded_partial_values() {
        // Regression: device 1 reported its ingress unit but timed out on
        // egress. Exclusion policy still zeroes the whole device (excluded
        // ⇒ every unit DeviceExcluded), but the overwrite of a delivered
        // value must be surfaced as `discarded` in the finalize event, not
        // vanish silently.
        let mut obs = two_device_observer();
        let mut sink = obs::sinks::RingSink::new(16);
        obs.begin_snapshot_traced(&mut sink, 0).unwrap();
        obs.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        obs.on_report(0, report(UnitId::egress(0, 0), 1, 11));
        obs.on_report(1, report(UnitId::ingress(1, 0), 1, 12));
        let snap = obs.force_finalize_traced(1, &mut sink, 50).unwrap();
        assert_eq!(snap.excluded, BTreeSet::from([1]));
        assert_eq!(
            snap.units[&UnitId::ingress(1, 0)],
            UnitOutcome::DeviceExcluded,
            "exclusion is total: even the delivered unit reads DeviceExcluded"
        );
        let ev = sink
            .events()
            .find(|e| e.name == "obs.finalize")
            .expect("forced finalize must be traced");
        assert_eq!(ev.get("forced"), Some(&obs::Value::Bool(true)));
        assert_eq!(
            ev.get("discarded").and_then(|v| v.as_u64()),
            Some(1),
            "the delivered-then-discarded ingress value must be counted"
        );
    }

    #[test]
    fn forced_finalize_with_no_partial_values_discards_nothing() {
        let mut obs = two_device_observer();
        let mut sink = obs::sinks::RingSink::new(16);
        obs.begin_snapshot_traced(&mut sink, 0).unwrap();
        obs.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        obs.on_report(0, report(UnitId::egress(0, 0), 1, 11));
        obs.force_finalize_traced(1, &mut sink, 50).unwrap();
        let ev = sink.events().find(|e| e.name == "obs.finalize").unwrap();
        assert_eq!(ev.get("discarded").and_then(|v| v.as_u64()), Some(0));
    }

    #[test]
    #[should_panic(expected = "epoch counter overflow")]
    fn epoch_counter_overflow_panics_with_context() {
        let mut obs = two_device_observer();
        obs.next_epoch = u64::MAX;
        // Issuing the final representable epoch must not wrap the counter
        // to 0 (which would alias wrapped snapshot IDs); it panics with
        // context instead.
        obs.begin_snapshot();
    }

    #[test]
    fn checked_consistent_total_matches_when_in_range() {
        let snap = GlobalSnapshot {
            epoch: 1,
            devices: BTreeSet::from([0]),
            excluded: BTreeSet::new(),
            units: UnitMap::from_iter([
                (
                    UnitId::ingress(0, 0),
                    UnitOutcome::Value {
                        local: 10,
                        channel: 2,
                    },
                ),
                (UnitId::egress(0, 0), UnitOutcome::Inconsistent),
            ]),
        };
        assert_eq!(snap.consistent_total(), 12);
        assert_eq!(snap.checked_consistent_total(), Some(12));
    }
}
