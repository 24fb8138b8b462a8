//! Differential property tests: the staged pipeline observer must be
//! behaviorally identical to the monolithic reference observer on every
//! legal *and* hostile report sequence — shuffled delivery orders,
//! duplicated reports, and misattributed reports (a device delivering a
//! report for a unit it does not own).
//!
//! Also here: the pipeline's bounded-memory claim at scale. Peak pending
//! values (the assemble stage's working set) must stay at one epoch's
//! worth of units when epochs drain in order, even at 10⁵ channels — and
//! the snapshots sealed at that scale must equal the reference's.

use proptest::prelude::*;
use speedlight_core::control::{Report, ReportValue};
use speedlight_core::observer::{GlobalSnapshot, Observer, ObserverConfig};
use speedlight_core::pipeline::{PipelineConfig, PipelineObserver};
use speedlight_core::{Epoch, UnitId};
use std::collections::BTreeSet;

const MODULUS: u16 = 8;

/// One delivery in a generated sequence: which expected report to send,
/// and whether to corrupt the delivering device (misattribution).
#[derive(Debug, Clone, Copy)]
struct DeliveryOp {
    /// Index into the legit report list (modulo its length).
    report: usize,
    /// Deliver from `unit.device + 1` instead of the owner.
    misattribute: bool,
}

#[derive(Debug, Clone)]
struct Fleet {
    /// `units_per_device[d]` = number of ports on device `d` (1 unit each).
    units_per_device: Vec<u16>,
    /// Epochs to initiate before delivering (bounded by no-lapping).
    initiations: usize,
    /// The (possibly shuffled, duplicated, corrupted) delivery sequence.
    ops: Vec<DeliveryOp>,
}

fn fleet_strategy() -> impl Strategy<Value = Fleet> {
    (
        proptest::collection::vec(1u16..=3, 1..=4),
        1usize..usize::from(MODULUS - 1),
        proptest::collection::vec((0usize..64, 0u8..20), 0..80),
    )
        .prop_map(|(units_per_device, initiations, raw)| Fleet {
            units_per_device,
            initiations,
            ops: raw
                .into_iter()
                .map(|(report, hostility)| DeliveryOp {
                    report,
                    // ~15% of deliveries arrive from the wrong device.
                    misattribute: hostility < 3,
                })
                .collect(),
        })
}

fn units_of(fleet: &Fleet, device: u16) -> Vec<UnitId> {
    (0..fleet.units_per_device[usize::from(device)])
        .map(|port| UnitId::ingress(device, port))
        .collect()
}

fn report_for(unit: UnitId, epoch: Epoch) -> Report {
    Report {
        unit,
        epoch,
        value: ReportValue::Value {
            // Deterministic, distinct per (unit, epoch): a corrupted
            // credit would change some completed snapshot.
            local: u64::from(unit.device) * 1000 + u64::from(unit.port) * 10 + epoch,
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
    fn begin(&mut self) -> Option<Epoch>;
    fn report(&mut self, device: u16, r: Report) -> Option<GlobalSnapshot>;
    fn pending(&self) -> Vec<Epoch>;
    fn lagging(&self, epoch: Epoch) -> BTreeSet<u16>;
    fn missing(&self, epoch: Epoch) -> Vec<UnitId>;
    fn force(&mut self, epoch: Epoch) -> Option<GlobalSnapshot>;
    /// `(misattributed, finalized)`.
    fn counts(&self) -> (u64, u64);
}

impl ObsApi for Observer {
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

impl ObsApi for PipelineObserver {
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

/// Drive one observer through the whole scenario.
fn drive(fleet: &Fleet, obs: &mut dyn ObsApi) -> RunResult {
    let ndev = fleet.units_per_device.len() as u16;
    let mut epochs = Vec::new();
    for _ in 0..fleet.initiations {
        epochs.push(obs.begin());
    }
    // The legit report list: every (unit, initiated epoch) pair in a
    // fixed order; ops index into it.
    let mut legit = Vec::new();
    for &epoch in epochs.iter().flatten() {
        for d in 0..ndev {
            for unit in units_of(fleet, d) {
                legit.push(report_for(unit, epoch));
            }
        }
    }
    let mut completed = Vec::new();
    for op in &fleet.ops {
        if legit.is_empty() {
            break;
        }
        let r = legit[op.report % legit.len()];
        let from = if op.misattribute {
            (r.unit.device + 1) % ndev.max(1)
        } else {
            r.unit.device
        };
        completed.push(obs.report(from, r));
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
        let ndev = fleet.units_per_device.len() as u16;

        let mut reference = Observer::new(ObserverConfig::for_modulus(MODULUS));
        let mut pipeline = PipelineObserver::new(PipelineConfig::for_modulus(MODULUS));
        for d in 0..ndev {
            reference.register_device(d, units_of(&fleet, d));
            pipeline.register_device(d, units_of(&fleet, d));
        }

        let got_ref = drive(&fleet, &mut reference);
        let got_pipe = drive(&fleet, &mut pipeline);

        prop_assert_eq!(got_ref, got_pipe);
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
