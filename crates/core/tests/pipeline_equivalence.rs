//! Differential property tests: the staged pipeline observer must be
//! behaviorally identical to the monolithic reference observer on every
//! legal *and* hostile report sequence — shuffled delivery orders,
//! duplicated reports, misattributed reports (a device delivering a
//! report for a unit it does not own), stragglers and never-issued epochs
//! — over fleets shaped to break a table indexed by device id: sparse ids
//! from `0` to `u16::MAX`, ingress and egress units mixed, devices with no
//! units, units registered by one device and owned by another, and
//! devices detached and registered between initiations while older epochs
//! are still pending on the membership they began under.
//!
//! Also here: the pipeline's bounded-memory claim at scale. Peak pending
//! values (the assemble stage's working set) must stay at one epoch's
//! worth of units when epochs drain in order, even at 10⁵ channels — and
//! the snapshots sealed at that scale must equal the reference's.
//!
//! And the map a snapshot carries: `UnitMap`, a sorted key column beside
//! an outcome column, against `BTreeMap` as its reference on sequences
//! with repeated keys, and a collected map against one the pipeline
//! sealed over the membership's shared key column.
//!
//! And the unit → slot map validate computes, by arithmetic for a group of
//! ports `0..P` in one or both directions and by search otherwise: every
//! expected unit's value lands in its own cell, and every other unit of the
//! device is refused, on sets one unit away from a product.

use proptest::prelude::*;
use speedlight_core::control::{Report, ReportValue};
use speedlight_core::observer::{GlobalSnapshot, Observer, ObserverConfig, UnitMap, UnitOutcome};
use speedlight_core::pipeline::{PipelineConfig, PipelineObserver};
use speedlight_core::{Direction, Epoch, UnitId};
use std::collections::{BTreeMap, BTreeSet};

const MODULUS: u16 = 8;

/// The device ids fleets draw from: both ends of the `u16` range, adjacent
/// ids and wide gaps — the shapes an id-indexed table can get wrong.
const ID_POOL: [u16; 6] = [0, 1, 2, 300, 40_000, u16::MAX];

/// One device a fleet may register, detach and register again.
#[derive(Debug, Clone)]
struct PoolDevice {
    id: u16,
    /// What it registers: ingress and egress units, possibly none,
    /// possibly repeated, possibly one owned by another id (`unit.device`
    /// differs from the registrant — which may or may not be in the fleet).
    units: Vec<UnitId>,
    /// Registered before the first step.
    initially: bool,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    /// Initiate an epoch under the registration state of the moment.
    Begin,
    /// Detach the `i`-th pool device if it is registered, else register
    /// it: epochs already pending keep the membership they began under.
    Toggle(usize),
    /// Deliver one report of the legit list (index modulo its length).
    Deliver {
        report: usize,
        /// Deliver from `unit.device + 1` (wrapping) instead of the owner.
        misattribute: bool,
        /// Rewrite the epoch to one that was never issued.
        future: bool,
        /// Re-home the unit onto the `report`-th fleet device, port and
        /// direction kept: a unit that device may never have registered
        /// (it may have registered none at all).
        stray: bool,
    },
    /// Deliver, in order, every report the `i`-th pending epoch expects.
    Complete(usize),
}

#[derive(Debug, Clone)]
struct Fleet {
    devices: Vec<PoolDevice>,
    steps: Vec<Step>,
}

fn fleet_strategy() -> impl Strategy<Value = Fleet> {
    // A unit is (egress?, port, foreign-owner roll); a device is (index
    // into ID_POOL, units, registered-initially roll).
    let unit = (any::<bool>(), 0u16..3, 0u8..8);
    let device = (
        0usize..ID_POOL.len(),
        proptest::collection::vec(unit, 0..=3),
        0u8..4,
    );
    (
        proptest::collection::vec(device, 1..=4),
        proptest::collection::vec((0u8..20, 0usize..64, 0u8..20), 0..100),
    )
        .prop_map(|(raw_devices, raw_steps)| {
            let mut devices: Vec<PoolDevice> = Vec::new();
            for (id_idx, raw_units, initially) in raw_devices {
                let id = ID_POOL[id_idx];
                if devices.iter().any(|d| d.id == id) {
                    continue;
                }
                let units = raw_units
                    .into_iter()
                    .map(|(egress, port, foreign)| UnitId {
                        // ~1 in 8 units belongs to the next id of the pool.
                        device: if foreign == 0 {
                            ID_POOL[(id_idx + 1) % ID_POOL.len()]
                        } else {
                            id
                        },
                        direction: direction(egress),
                        port,
                    })
                    .collect();
                devices.push(PoolDevice {
                    id,
                    units,
                    // The first device always starts registered, so most
                    // fleets can initiate at all.
                    initially: devices.is_empty() || initially != 0,
                });
            }
            let steps = raw_steps
                .into_iter()
                .map(|(kind, pick, hostility)| match kind {
                    0..=3 => Step::Begin,
                    4..=5 => Step::Toggle(pick),
                    6..=7 => Step::Complete(pick),
                    _ => Step::Deliver {
                        report: pick,
                        // ~15% of deliveries arrive from the wrong device,
                        // 5% name an epoch nobody issued, 10% a unit
                        // re-homed onto some device of the fleet.
                        misattribute: hostility < 3,
                        future: hostility == 3,
                        stray: (4..=5).contains(&hostility),
                    },
                })
                .collect();
            Fleet { devices, steps }
        })
}

fn direction(egress: bool) -> Direction {
    if egress {
        Direction::Egress
    } else {
        Direction::Ingress
    }
}

fn report_for(unit: UnitId, epoch: Epoch) -> Report {
    let egress = u64::from(unit.direction == Direction::Egress);
    Report {
        unit,
        epoch,
        value: ReportValue::Value {
            // Deterministic, distinct per (unit, epoch): a corrupted
            // credit would change some completed snapshot.
            local: u64::from(unit.device) * 1000 + u64::from(unit.port) * 10 + egress * 5 + epoch,
            channel: epoch,
        },
    }
}

/// Everything externally observable from one observer run.
#[derive(Debug, PartialEq)]
struct RunResult {
    epochs: Vec<Option<Epoch>>,
    completed: Vec<Option<GlobalSnapshot>>,
    /// What the fabric's retry path reads: `(epoch, lagging devices,
    /// missing units)` of every pending epoch, taken before each force.
    retry_view: Vec<(Epoch, BTreeSet<u16>, Vec<UnitId>)>,
    forced: Vec<GlobalSnapshot>,
    misattributed: u64,
    finalized: u64,
}

/// The externally-observable observer surface, so one driver can run both
/// implementations.
trait ObsApi {
    fn register(&mut self, device: u16, units: Vec<UnitId>);
    fn detach(&mut self, device: u16);
    fn begin(&mut self) -> Option<Epoch>;
    fn report(&mut self, device: u16, r: Report) -> Option<GlobalSnapshot>;
    fn pending(&self) -> Vec<Epoch>;
    fn lagging(&self, epoch: Epoch) -> BTreeSet<u16>;
    fn missing(&self, epoch: Epoch) -> Vec<UnitId>;
    fn force(&mut self, epoch: Epoch) -> Option<GlobalSnapshot>;
    /// `(misattributed, finalized)`.
    fn counts(&self) -> (u64, u64);
}

macro_rules! impl_obs_api {
    ($($observer:ty),*) => {$(
        impl ObsApi for $observer {
            fn register(&mut self, device: u16, units: Vec<UnitId>) {
                self.register_device(device, units)
            }
            fn detach(&mut self, device: u16) {
                self.detach_device(device)
            }
            fn begin(&mut self) -> Option<Epoch> {
                self.begin_snapshot()
            }
            fn report(&mut self, device: u16, r: Report) -> Option<GlobalSnapshot> {
                self.on_report(device, r)
            }
            fn pending(&self) -> Vec<Epoch> {
                self.pending_epochs().collect()
            }
            fn lagging(&self, epoch: Epoch) -> BTreeSet<u16> {
                self.lagging_devices(epoch)
            }
            fn missing(&self, epoch: Epoch) -> Vec<UnitId> {
                self.missing_units(epoch)
            }
            fn force(&mut self, epoch: Epoch) -> Option<GlobalSnapshot> {
                self.force_finalize(epoch)
            }
            fn counts(&self) -> (u64, u64) {
                (self.misattributed_count(), self.finalized_count())
            }
        }
    )*};
}

impl_obs_api!(Observer, PipelineObserver);

/// Drive one observer through the whole scenario.
fn drive(fleet: &Fleet, obs: &mut dyn ObsApi) -> RunResult {
    let mut registered: Vec<bool> = fleet.devices.iter().map(|d| d.initially).collect();
    for d in fleet.devices.iter().filter(|d| d.initially) {
        obs.register(d.id, d.units.clone());
    }
    // The legit report list: every (unit, epoch) pair of every epoch
    // initiated so far, units as registered at its initiation; Deliver
    // steps index into it. Sealed epochs stay listed — their reports are
    // the stragglers.
    let mut legit: Vec<Report> = Vec::new();
    let mut issued: Epoch = 0;
    let mut epochs = Vec::new();
    let mut completed = Vec::new();
    for &step in &fleet.steps {
        match step {
            Step::Begin => {
                // The pipeline refuses, as lapped, a report `MODULUS` or
                // more epochs behind the newest issued one (its wrapped id
                // aliases); the reference has no such window and would
                // still credit it. An initiator that respects no-lapping
                // never opens that gap over a pending epoch, and neither
                // does this one.
                let next = issued + 1;
                if (obs.pending().first()).is_some_and(|&old| next - old >= u64::from(MODULUS)) {
                    continue;
                }
                let begun = obs.begin();
                issued += u64::from(begun.is_some());
                epochs.push(begun);
                if let Some(epoch) = begun {
                    for (d, _) in fleet.devices.iter().zip(&registered).filter(|(_, r)| **r) {
                        legit.extend(d.units.iter().map(|&unit| report_for(unit, epoch)));
                    }
                }
            }
            Step::Toggle(i) => {
                let i = i % fleet.devices.len();
                let d = &fleet.devices[i];
                if registered[i] {
                    obs.detach(d.id);
                } else {
                    obs.register(d.id, d.units.clone());
                }
                registered[i] = !registered[i];
            }
            Step::Deliver {
                report,
                misattribute,
                future,
                stray,
            } => {
                if legit.is_empty() {
                    continue;
                }
                let mut r = legit[report % legit.len()];
                if future {
                    r.epoch += 1000;
                }
                if stray {
                    r.unit.device = fleet.devices[report % fleet.devices.len()].id;
                }
                let from = if misattribute {
                    r.unit.device.wrapping_add(1)
                } else {
                    r.unit.device
                };
                completed.push(obs.report(from, r));
            }
            Step::Complete(i) => {
                let pending = obs.pending();
                if pending.is_empty() {
                    continue;
                }
                let epoch = pending[i % pending.len()];
                for r in legit.iter().filter(|r| r.epoch == epoch) {
                    completed.push(obs.report(r.unit.device, *r));
                }
            }
        }
    }
    // Timeout path: force-finalize whatever is still pending, in order.
    let mut retry_view = Vec::new();
    let mut forced = Vec::new();
    for epoch in obs.pending() {
        for p in obs.pending() {
            retry_view.push((p, obs.lagging(p), obs.missing(p)));
        }
        forced.extend(obs.force(epoch));
    }
    let (misattributed, finalized) = obs.counts();
    RunResult {
        epochs,
        completed,
        retry_view,
        forced,
        misattributed,
        finalized,
    }
}

proptest! {
    #[test]
    fn pipeline_matches_reference_on_hostile_sequences(fleet in fleet_strategy()) {
        let mut reference = Observer::new(ObserverConfig::for_modulus(MODULUS));
        let mut pipeline = PipelineObserver::new(PipelineConfig::for_modulus(MODULUS));

        let got_ref = drive(&fleet, &mut reference);
        let got_pipe = drive(&fleet, &mut pipeline);

        prop_assert_eq!(got_ref, got_pipe);

        // Every report the pipeline took in was credited or refused for
        // exactly one reason — none vanished between stages.
        let s = pipeline.stats();
        let dropped = s.misattributed
            + s.future_epoch
            + s.lapped
            + s.stale_epoch
            + s.foreign_device
            + s.excluded_device
            + s.unexpected_unit
            + s.duplicate;
        prop_assert_eq!(s.offered, s.accepted + dropped);
    }
}

/// Random `(unit, outcome)` sequences over a 36-unit key space (three ids
/// of the pool, three ports, both directions), so keys repeat: each
/// `repeat` re-emits an earlier pair's key with a fresh outcome at a later
/// position, where larger and smaller keys may sit between the two.
fn pairs_strategy() -> impl Strategy<Value = Vec<(UnitId, UnitOutcome)>> {
    let outcome = || {
        (0u8..5, 0u64..1000, 0u64..1000).prop_map(|(kind, local, channel)| match kind {
            0 => UnitOutcome::Value { local, channel },
            1 => UnitOutcome::Inferred { local },
            2 => UnitOutcome::Inconsistent,
            3 => UnitOutcome::Missing,
            _ => UnitOutcome::DeviceExcluded,
        })
    };
    let unit = (0usize..3, 0u16..3, any::<bool>()).prop_map(|(id, port, egress)| UnitId {
        // Ids 0, 300 and u16::MAX: both ends of a device-indexed table.
        device: ID_POOL[[0, 3, 5][id]],
        port,
        direction: direction(egress),
    });
    let repeat = (0usize..64, 0usize..64, outcome());
    (
        proptest::collection::vec((unit, outcome()), 0..40),
        proptest::collection::vec(repeat, 0..12),
    )
        .prop_map(|(mut pairs, repeats)| {
            for (from, gap, outcome) in repeats {
                if pairs.is_empty() {
                    break;
                }
                let from = from % pairs.len();
                let at = from + 1 + gap % (pairs.len() - from);
                pairs.insert(at, (pairs[from].0, outcome));
            }
            pairs
        })
}

/// Seal `content` through the pipeline: each device registers its units
/// and reports their outcomes, except that a device holding any
/// `DeviceExcluded` outcome reports nothing and is force-excluded.
fn seal_through_pipeline(content: &BTreeMap<UnitId, UnitOutcome>) -> GlobalSnapshot {
    let mut by_device: BTreeMap<u16, Vec<(UnitId, UnitOutcome)>> = BTreeMap::new();
    for (&unit, &outcome) in content {
        by_device
            .entry(unit.device)
            .or_default()
            .push((unit, outcome));
    }
    let mut pipe = PipelineObserver::new(PipelineConfig::for_modulus(MODULUS));
    for (&device, pairs) in &by_device {
        pipe.register_device(device, pairs.iter().map(|&(unit, _)| unit).collect());
    }
    let epoch = pipe.begin_snapshot().expect("a device is registered");
    let mut sealed = None;
    for (&device, pairs) in &by_device {
        for &(unit, outcome) in pairs {
            let value = match outcome {
                UnitOutcome::Value { local, channel } => ReportValue::Value { local, channel },
                UnitOutcome::Inferred { local } => ReportValue::Inferred { local },
                UnitOutcome::Inconsistent => ReportValue::Inconsistent,
                UnitOutcome::Missing => ReportValue::Missing,
                UnitOutcome::DeviceExcluded => continue,
            };
            let report = Report { unit, epoch, value };
            sealed = sealed.or(pipe.on_report(device, report));
        }
    }
    sealed
        .or_else(|| pipe.force_finalize(epoch))
        .expect("the epoch seals")
}

proptest! {
    /// `UnitMap` — the sorted key column beside an outcome column that
    /// replaced `BTreeMap<UnitId, UnitOutcome>` in `GlobalSnapshot` —
    /// against the `BTreeMap` as its reference, and a collected map (owned
    /// key column) against one the pipeline sealed (shared key column).
    #[test]
    fn unit_map_matches_btreemap(pairs in pairs_strategy()) {
        // Sequential inserts: the later of two pairs with one key wins.
        let mut reference = BTreeMap::new();
        for &(unit, outcome) in &pairs {
            reference.insert(unit, outcome);
        }
        let map: UnitMap = pairs.iter().copied().collect();

        prop_assert_eq!(map.iter().collect::<Vec<_>>(), reference.iter().collect::<Vec<_>>());
        prop_assert_eq!((&map).into_iter().collect::<Vec<_>>(), reference.iter().collect::<Vec<_>>());
        prop_assert_eq!(map.len(), reference.len());
        prop_assert_eq!(map.is_empty(), reference.is_empty());
        prop_assert_eq!(map.keys().collect::<Vec<_>>(), reference.keys().collect::<Vec<_>>());
        prop_assert_eq!(map.values().collect::<Vec<_>>(), reference.values().collect::<Vec<_>>());

        let mut edited = map.clone();
        for (unit, want) in &reference {
            prop_assert_eq!(map.get(unit), Some(want));
            prop_assert_eq!(&map[unit], want);
            let cell = edited.get_mut(unit);
            prop_assert_eq!(cell.as_deref(), Some(want));
            if let Some(cell) = cell {
                *cell = UnitOutcome::Missing;
            }
        }
        // Every edit landed on its own unit, through `iter_mut` as well.
        prop_assert!(edited.values().all(|o| *o == UnitOutcome::Missing));
        for (_, outcome) in edited.iter_mut() {
            *outcome = UnitOutcome::Inconsistent;
        }
        prop_assert!(edited.values().all(|o| *o == UnitOutcome::Inconsistent));
        prop_assert_eq!(edited.keys().collect::<Vec<_>>(), reference.keys().collect::<Vec<_>>());

        for device in [0, 300, u16::MAX, 1, 40_000] {
            for port in 0..4 {
                for unit in [UnitId::ingress(device, port), UnitId::egress(device, port)] {
                    if !reference.contains_key(&unit) {
                        prop_assert_eq!(map.get(&unit), None);
                        prop_assert_eq!(edited.get_mut(&unit), None);
                    }
                }
            }
        }

        if reference.is_empty() {
            return Ok(());
        }
        // The same content through the pipeline: a device with any
        // `DeviceExcluded` outcome is excluded whole.
        let excluded: BTreeSet<u16> = reference
            .iter()
            .filter(|(_, o)| **o == UnitOutcome::DeviceExcluded)
            .map(|(u, _)| u.device)
            .collect();
        let mut content = reference.clone();
        for (unit, outcome) in content.iter_mut() {
            if excluded.contains(&unit.device) {
                *outcome = UnitOutcome::DeviceExcluded;
            }
        }
        let sealed = seal_through_pipeline(&content);
        prop_assert_eq!(&sealed.excluded, &excluded);
        let owned: UnitMap = content.into_iter().collect();
        prop_assert_eq!(sealed.units, owned);
    }
}

/// One device's registration for the slot test: the units it owns, in
/// `UnitId` order, and the units of other devices registered beside them.
#[derive(Debug, Clone)]
struct OwnedSet {
    owner: u16,
    /// Sorted, deduplicated, all `owner`'s.
    units: Vec<UnitId>,
    /// Owned by other ids of the pool: their groups sit before or after
    /// the owner's in the membership's unit column.
    foreign: Vec<UnitId>,
}

/// Products of ports `0..P` in one direction and in both, products that
/// lack their last unit or one direction of one port, a product with a hole,
/// lone egress units — each possibly with a unit at port `u16::MAX` added,
/// and with other devices' units registered alongside.
fn owned_set_strategy() -> impl Strategy<Value = OwnedSet> {
    (
        0usize..ID_POOL.len(),
        0u8..6,
        1u16..40,
        any::<bool>(),
        0u16..40,
        0u8..3,
        proptest::collection::vec((0usize..ID_POOL.len(), 0u16..3, any::<bool>()), 0..3),
    )
        .prop_map(|(owner, kind, ports, egress, hole, top, foreign)| {
            let owner_id = ID_POOL[owner];
            let unit = |port, egress| UnitId {
                device: owner_id,
                port,
                direction: direction(egress),
            };
            let one_way = (0..ports).map(|port| unit(port, egress));
            let both_ways = (0..ports).flat_map(|port| [unit(port, false), unit(port, true)]);
            let hole = hole % ports;
            let mut units: Vec<UnitId> = match kind {
                0 => one_way.collect(),
                1 => both_ways.collect(),
                2 => both_ways.take(2 * usize::from(ports) - 1).collect(),
                3 => both_ways.filter(|&u| u != unit(hole, egress)).collect(),
                4 => one_way.filter(|u| u.port != hole).collect(),
                _ => vec![unit(hole, true)],
            };
            if top > 0 {
                units.push(unit(u16::MAX, top == 2));
            }
            units.sort_unstable();
            units.dedup();
            let foreign = foreign
                .into_iter()
                .filter(|&(id, _, _)| id != owner)
                .map(|(id, port, egress)| UnitId {
                    device: ID_POOL[id],
                    port,
                    direction: direction(egress),
                })
                .collect();
            OwnedSet {
                owner: owner_id,
                units,
                foreign,
            }
        })
}

proptest! {
    /// The pipeline's unit → slot map, seen from outside: every unit of a
    /// group lands in its own cell of the sealed snapshot (its slot is its
    /// index in the sorted set), whatever shape the group has, and every
    /// unit outside the set — the other direction of an expected port, the
    /// port one past a product, port `u16::MAX`, another device's unit
    /// re-homed onto the owner — is refused as unexpected.
    #[test]
    fn slots_are_ranks_in_the_owners_sorted_set(set in owned_set_strategy()) {
        let OwnedSet { owner, units, foreign } = &set;
        let mut pipe = PipelineObserver::new(PipelineConfig::for_modulus(MODULUS));
        let mut registered: Vec<UnitId> = foreign.clone();
        registered.extend(units.iter().rev());
        pipe.register_device(*owner, registered);
        let epoch = pipe.begin_snapshot().expect("the owner is registered");

        let ports = units.iter().map(|u| u.port).filter(|&p| p != u16::MAX);
        let past = ports.max().map_or(0, |p| p + 1);
        let mut probes: Vec<UnitId> = [0, 1, past, u16::MAX - 1, u16::MAX]
            .into_iter()
            .flat_map(|port| [UnitId::ingress(*owner, port), UnitId::egress(*owner, port)])
            .collect();
        probes.extend(units.iter().map(|u| UnitId {
            direction: direction(u.direction == Direction::Ingress),
            ..*u
        }));
        probes.extend(foreign.iter().map(|u| UnitId { device: *owner, ..*u }));
        probes.sort_unstable();
        probes.dedup();
        probes.retain(|u| units.binary_search(u).is_err());
        for &unit in &probes {
            let value = ReportValue::Value { local: 0, channel: 0 };
            let sealed = pipe.on_report(*owner, Report { unit, epoch, value });
            prop_assert!(sealed.is_none());
        }
        prop_assert_eq!(pipe.stats().unexpected_unit, probes.len() as u64);
        prop_assert_eq!(pipe.stats().accepted, 0);

        let mut sealed = None;
        for (i, &unit) in units.iter().enumerate() {
            let value = ReportValue::Value { local: i as u64, channel: 0 };
            sealed = sealed.or(pipe.on_report(*owner, Report { unit, epoch, value }));
        }
        prop_assert_eq!(pipe.stats().accepted, units.len() as u64);
        // Foreign owners never report: their groups time out.
        let snap = sealed.or_else(|| pipe.force_finalize(epoch)).expect("the epoch seals");
        prop_assert!(!snap.excluded.contains(owner));
        for (i, unit) in units.iter().enumerate() {
            let want = UnitOutcome::Value { local: i as u64, channel: 0 };
            prop_assert_eq!(snap.units.get(unit), Some(&want), "{:?}", unit);
        }
    }
}

/// Bounded memory at scale: 10⁵ channels through three epochs drained in
/// order. The assemble working set (peak pending values) must stay at one
/// epoch's worth of units — queuing never accumulates values across
/// epochs when the sink keeps up. The reference observer rides the same
/// report stream, so each sealed snapshot is also checked against it at a
/// scale the property test above never generates.
#[test]
fn peak_pending_values_bounded_at_1e5_channels() {
    const DEVICES: u16 = 100;
    const PORTS: u16 = 1000;
    let units: usize = usize::from(DEVICES) * usize::from(PORTS);

    let mut pipe = PipelineObserver::new(PipelineConfig::for_modulus(16));
    let mut reference = Observer::new(ObserverConfig::for_modulus(16));
    for d in 0..DEVICES {
        pipe.register_device(d, (0..PORTS).map(|p| UnitId::ingress(d, p)).collect());
        reference.register_device(d, (0..PORTS).map(|p| UnitId::ingress(d, p)).collect());
    }
    for _ in 0..3 {
        let epoch = pipe.begin_snapshot().expect("below no-lapping cap");
        assert_eq!(reference.begin_snapshot(), Some(epoch));
        let mut sealed = None;
        let mut ref_sealed = None;
        for d in 0..DEVICES {
            for p in 0..PORTS {
                let report = report_for(UnitId::ingress(d, p), epoch);
                sealed = pipe.on_report(d, report);
                ref_sealed = reference.on_report(d, report);
            }
        }
        let sealed = sealed.expect("last report completes the epoch");
        assert_eq!(sealed.epoch, epoch);
        assert_eq!(sealed.units.len(), units);
        assert_eq!(Some(sealed), ref_sealed);
    }
    let stats = pipe.stats();
    assert_eq!(stats.accepted, 3 * units as u64);
    assert!(
        stats.peak_pending_values <= units,
        "peak pending values {} exceeds one epoch's working set {}",
        stats.peak_pending_values,
        units
    );
}
