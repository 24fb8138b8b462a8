//! Staged snapshot-assembly pipeline.
//!
//! [`Observer`](crate::observer::Observer) assembles each epoch in one
//! monolithic step: every report mutates a per-epoch map cloned from the
//! full registration state, and all validation happens implicitly through
//! map lookups. That shape hits a scaling wall at million-channel fabrics
//! — per-epoch clones of the expected-unit set are O(all units), and there
//! is no way to shed load when reports arrive faster than they can be
//! folded.
//!
//! [`PipelineObserver`] decomposes assembly into five explicit stages with
//! bounded inter-stage queues:
//!
//! ```text
//!            offer_report()                      take_finalized()
//!                 │                                     ▲
//!                 ▼                                     │ 5. persist-hook
//!   ┌─────────┐  pop   ┌──────────┐  pop   ┌──────────┐│   (sealed queue)
//!   │ collect ├───────►│ validate ├───────►│ assemble ├┤
//!   └─────────┘        └──────────┘        └────┬─────┘│
//!    bounded:           attribution,            │ epoch │
//!    a full queue       epoch-window,           ▼ done  │
//!    refuses the        membership &      ┌──────────┐ │
//!    offer              duplicate checks  │ finalize ├─┘
//!                                         └──────────┘
//!                                          seals GlobalSnapshot,
//!                                          emits obs.finalize
//! ```
//!
//! * **collect** — the bounded ingress queue. [`PipelineObserver::offer_report`]
//!   refuses when full (returns `false`, counts a `backpressure_rejects`):
//!   an embedder that stages the pumps itself pumps and offers again. The
//!   `on_report*` wrappers pump to quiescence after every offer, so their
//!   callers never see a refusal.
//! * **validate** — per-arriving-report consistency checks: attribution
//!   (the delivering device must own the reported unit), the no-lapping
//!   epoch window (a report more than `modulus` epochs behind the newest
//!   issued epoch can alias a wrapped ID), future epochs (never issued),
//!   epoch liveness, membership, and exclusion. Every rejection is counted
//!   by [`DropReason`]; attribution and lapping violations are traced.
//! * **assemble** — folds validated reports into the per-epoch assembly:
//!   first value wins (duplicates counted), a running wraparound-checked
//!   total is maintained per epoch, and a completed epoch is queued for
//!   finalization. Membership (device set + expected units) is **shared**
//!   across epochs via [`std::sync::Arc`] and rebuilt only when
//!   registration changes. An epoch owns no heap until its first accepted
//!   report; that report allocates one outcome column aligned with the
//!   membership's unit column and one delivered bitmap over it — the
//!   column its sealed snapshot will keep. The reference observer clones
//!   both sets per epoch.
//! * **finalize** — seals [`GlobalSnapshot`]s and emits the `obs.finalize`
//!   event, identical byte-for-byte to the reference observer's. A sealed
//!   snapshot's [`UnitMap`](crate::observer::UnitMap) pairs an `Arc` clone
//!   of the membership's `UnitId`-sorted unit column with the epoch's own
//!   outcome column, moved, not copied: seal only fills each excluded
//!   device's range with `DeviceExcluded` in place. No tree is built,
//!   nothing is sorted, no key or value is copied, and every snapshot
//!   sealed under one registration state shares one key column.
//! * **persist-hook** — the bounded sealed queue, drained by the embedder
//!   via [`PipelineObserver::take_finalized`] (the hook point where the
//!   future snapshot store attaches). A full sealed queue stalls the
//!   finalize stage rather than dropping snapshots.
//!
//! Validate and assemble work in **column space**: a device id indexes a
//! table to its group, the group maps `(direction, port)` to a slot — a
//! multiply-add for the ports × directions run paths register, a search
//! of its range of the unit column otherwise — and the group's range start
//! plus the slot is the unit's cell in the epoch's column and bitmap.
//! Nothing else is searched per report but the epoch's `excluded` set,
//! which is empty outside forced finalization.
//!
//! **Equivalence contract:** driven synchronously (offer + pump per
//! report, as the fabric does), the pipeline is observably identical to
//! the reference `Observer` — same returned snapshots, same trace events,
//! same timing. `tests/pipeline_equivalence.rs` shuffles, duplicates and
//! misattributes report streams against both, and the conformance suite
//! pins the digest of the full scenario matrix — a value the reference
//! produced too.

use crate::control::Report;
use crate::id::Epoch;
use crate::observer::{GlobalSnapshot, ObserverConfig, UnitMap, UnitOutcome};
use crate::types::{Direction, UnitId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Range;
use std::sync::Arc;

/// Configuration for the staged pipeline.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// The underlying observer protocol parameters (modulus, outstanding
    /// cap) — shared with the reference implementation.
    pub observer: ObserverConfig,
    /// Capacity of the collect (ingress) queue. When full,
    /// [`PipelineObserver::offer_report`] refuses.
    pub collect_capacity: usize,
    /// Capacity of the validated queue between validate and assemble.
    pub validated_capacity: usize,
    /// Capacity of the sealed (persist-hook) queue. A full queue stalls
    /// the finalize stage; snapshots are never dropped.
    pub sealed_capacity: usize,
}

impl PipelineConfig {
    /// Defaults for a given modulus: generous queues sized for the fabric
    /// driver's synchronous pump (which never lets them fill).
    pub fn for_modulus(modulus: u16) -> PipelineConfig {
        PipelineConfig {
            observer: ObserverConfig::for_modulus(modulus),
            collect_capacity: 1024,
            validated_capacity: 1024,
            sealed_capacity: 64,
        }
    }
}

/// Why the validate (or assemble) stage refused a report. Counted in
/// [`PipelineStats`]; the exceptional reasons are also traced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The delivering device does not own the reported unit.
    Misattributed,
    /// The epoch was never issued (greater than the newest issued epoch).
    FutureEpoch,
    /// The epoch is at least `modulus` behind the newest issued epoch —
    /// its wrapped ID could alias a live epoch (no-lapping violation).
    Lapped,
    /// The epoch is inside the window but no longer (or never) pending —
    /// a straggler for an already-finalized epoch.
    StaleEpoch,
    /// The device was not registered when the epoch was initiated.
    ForeignDevice,
    /// The device was already excluded from this epoch by timeout.
    ExcludedDevice,
    /// The unit is not in the epoch's expected set.
    UnexpectedUnit,
    /// The unit already has a value for this epoch (first value wins).
    Duplicate,
}

/// Stage-occupancy peaks over one seal-to-seal interval, sampled when an
/// epoch seals. The series is the profile artifact's time axis: it shows
/// *when* a stage backed up, not just that it eventually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageSample {
    /// The epoch whose seal closed this interval.
    pub epoch: Epoch,
    /// Peak collect-queue depth in the interval.
    pub collect: u64,
    /// Peak validated-queue depth in the interval.
    pub validated: u64,
    /// Peak ready-queue depth in the interval.
    pub ready: u64,
    /// Peak sealed-queue depth in the interval.
    pub sealed: u64,
    /// Peak pending-value count in the interval.
    pub pending_values: u64,
}

/// Cap on the stage series length: long soaks keep the profile bounded;
/// samples past the cap are counted, not stored.
pub const STAGE_SERIES_CAP: usize = 4096;

/// Pipeline counters and high-water marks, exported as metrics by the
/// fabric and asserted on by the bounded-memory tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Reports accepted into the collect queue.
    pub offered: u64,
    /// Reports refused at the collect queue (backpressure).
    pub backpressure_rejects: u64,
    /// Reports that passed every check and contributed a value.
    pub accepted: u64,
    /// Drops by reason — see [`DropReason`].
    pub misattributed: u64,
    /// Reports for epochs newer than anything issued.
    pub future_epoch: u64,
    /// Reports violating the no-lapping window.
    pub lapped: u64,
    /// Stragglers for finalized epochs.
    pub stale_epoch: u64,
    /// Reports from devices outside the epoch's device set.
    pub foreign_device: u64,
    /// Reports from devices excluded by timeout.
    pub excluded_device: u64,
    /// Duplicate per-unit reports (first value wins).
    pub duplicate: u64,
    /// Reports whose unit is outside the epoch's expected set.
    pub unexpected_unit: u64,
    /// Epochs whose running consistent-total overflowed u64 (the sealed
    /// snapshot's total saturates, per the reference overflow policy).
    pub total_overflow: u64,
    /// Delivered values overwritten by `DeviceExcluded` during forced
    /// finalization (mirrors the `discarded` finalize-event field).
    pub discarded_values: u64,
    /// High-water mark of the collect queue.
    pub peak_collect_depth: usize,
    /// High-water mark of the validated queue.
    pub peak_validated_depth: usize,
    /// High-water mark of the ready (completed-epoch) queue.
    pub peak_ready_depth: usize,
    /// High-water mark of the sealed (persist-hook) queue.
    pub peak_sealed_depth: usize,
    /// High-water mark of values buffered across all pending epochs — the
    /// bounded-memory claim: O(outstanding epochs × delivered units), with
    /// membership shared, never cloned per epoch.
    pub peak_pending_values: usize,
    /// Per-seal interval peaks (the profile artifact's stage series),
    /// capped at [`STAGE_SERIES_CAP`].
    pub stage_series: Vec<StageSample>,
    /// Seal samples discarded after the series cap was reached.
    pub stage_series_dropped: u64,
    /// Interval (since-last-seal) peaks, re-armed at each sample. These
    /// feed [`StageSample`]; whole-run peaks are the `peak_*` fields.
    ivl_collect: usize,
    ivl_validated: usize,
    ivl_ready: usize,
    ivl_sealed: usize,
    ivl_pending_values: usize,
}

impl PipelineStats {
    fn bump_collect(&mut self, depth: usize) {
        self.peak_collect_depth = self.peak_collect_depth.max(depth);
        self.ivl_collect = self.ivl_collect.max(depth);
    }

    fn bump_validated(&mut self, depth: usize) {
        self.peak_validated_depth = self.peak_validated_depth.max(depth);
        self.ivl_validated = self.ivl_validated.max(depth);
    }

    fn bump_ready(&mut self, depth: usize) {
        self.peak_ready_depth = self.peak_ready_depth.max(depth);
        self.ivl_ready = self.ivl_ready.max(depth);
    }

    fn bump_sealed(&mut self, depth: usize) {
        self.peak_sealed_depth = self.peak_sealed_depth.max(depth);
        self.ivl_sealed = self.ivl_sealed.max(depth);
    }

    fn bump_pending(&mut self, depth: usize) {
        self.peak_pending_values = self.peak_pending_values.max(depth);
        self.ivl_pending_values = self.ivl_pending_values.max(depth);
    }

    /// Close the current seal interval: push one [`StageSample`] (or
    /// count it once the series is full) and re-arm the interval peaks.
    fn note_seal(&mut self, epoch: Epoch) {
        let sample = StageSample {
            epoch,
            collect: self.ivl_collect as u64,
            validated: self.ivl_validated as u64,
            ready: self.ivl_ready as u64,
            sealed: self.ivl_sealed as u64,
            pending_values: self.ivl_pending_values as u64,
        };
        if self.stage_series.len() < STAGE_SERIES_CAP {
            self.stage_series.push(sample);
        } else {
            self.stage_series_dropped += 1;
        }
        self.ivl_collect = 0;
        self.ivl_validated = 0;
        self.ivl_ready = 0;
        self.ivl_sealed = 0;
        self.ivl_pending_values = 0;
    }

    /// Render this run's stats as the profile artifact's pipeline section.
    pub fn profile_section(&self) -> obs::profile::PipelineSection {
        obs::profile::PipelineSection {
            offered: self.offered,
            backpressure_rejects: self.backpressure_rejects,
            accepted: self.accepted,
            peak_collect: self.peak_collect_depth as u64,
            peak_validated: self.peak_validated_depth as u64,
            peak_ready: self.peak_ready_depth as u64,
            peak_sealed: self.peak_sealed_depth as u64,
            peak_pending_values: self.peak_pending_values as u64,
            stages: self
                .stage_series
                .iter()
                .map(|s| obs::profile::StageRow {
                    epoch: s.epoch,
                    collect: s.collect,
                    validated: s.validated,
                    ready: s.ready,
                    sealed: s.sealed,
                    pending_values: s.pending_values,
                })
                .collect(),
            stages_dropped: self.stage_series_dropped,
        }
    }

    fn record_drop(&mut self, reason: DropReason) {
        match reason {
            DropReason::Misattributed => self.misattributed += 1,
            DropReason::FutureEpoch => self.future_epoch += 1,
            DropReason::Lapped => self.lapped += 1,
            DropReason::StaleEpoch => self.stale_epoch += 1,
            DropReason::ForeignDevice => self.foreign_device += 1,
            DropReason::ExcludedDevice => self.excluded_device += 1,
            DropReason::UnexpectedUnit => self.unexpected_unit += 1,
            DropReason::Duplicate => self.duplicate += 1,
        }
    }
}

/// One device's expected units. A slot plus the group's range start is
/// the unit's cell in the membership's shared unit column and in every
/// epoch's outcome column, so per-epoch state never needs a unit-keyed
/// search structure, and a product group (every run path's) computes the
/// slot from the report alone, reading nothing beyond this.
#[derive(Debug)]
struct DeviceGroup {
    /// The owning device: `unit.device` of every unit below.
    device: u16,
    /// The device's expected units: this range of the membership's unit
    /// column, sorted (slot `i` ↔ `units[range.start + i]`).
    range: Range<usize>,
    shape: Shape,
}

/// How a group finds a unit's slot, its rank in `UnitId` order (port,
/// then Ingress < Egress); decided once, at membership build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Exactly ports `0..P` in one direction: `slot = port`.
    Ports(Direction),
    /// Exactly ports `0..P` in both: `slot = 2·port + (direction == Egress)`.
    PortPairs,
    /// Anything else: a binary search of the group's range of the column.
    Listed,
}

impl Shape {
    /// The shape of `units`: sorted, deduplicated, all of one device, so
    /// ports that count 0, 1, 2, … (`n` = 1) name one unit per port, and
    /// ports that count 0, 0, 1, 1, … (`n` = 2) name both units of each.
    fn of_units(units: &[UnitId]) -> Shape {
        let counts =
            |n: usize| (units.iter().enumerate()).all(|(i, u)| usize::from(u.port) == i / n);
        match units.first().map(|u| u.direction) {
            Some(d) if counts(1) && units.iter().all(|u| u.direction == d) => Shape::Ports(d),
            Some(_) if units.len().is_multiple_of(2) && counts(2) => Shape::PortPairs,
            _ => Shape::Listed,
        }
    }
}

impl DeviceGroup {
    /// The slot of `unit`, if expected. `column` is the membership's unit
    /// column, which only a [`Shape::Listed`] group reads.
    fn slot_of(&self, column: &[UnitId], unit: &UnitId) -> Option<usize> {
        let port = usize::from(unit.port);
        let slot = match self.shape {
            Shape::Ports(direction) if unit.direction == direction => port,
            Shape::Ports(_) => return None,
            Shape::PortPairs => 2 * port + usize::from(unit.direction == Direction::Egress),
            Shape::Listed => column.get(self.range.clone())?.binary_search(unit).ok()?,
        };
        (slot < self.len()).then_some(slot)
    }

    fn len(&self) -> usize {
        self.range.len()
    }

    /// Cells of this group set in `seen`, counted a word at a time; an
    /// empty bitmap (nothing accepted yet) counts none.
    fn delivered(&self, seen: &[u64]) -> usize {
        let Range { start, end } = self.range;
        let words = start / 64..end.div_ceil(64);
        let counts = words.map(|w| {
            let (lo, hi) = (start.max(w * 64), end.min(w * 64 + 64));
            let mask = u64::MAX.checked_shr((64 - (hi - lo)) as u32).unwrap_or(0) << (lo - w * 64);
            let count = |word: &u64| (word & mask).count_ones() as usize;
            seen.get(w).map_or(0, count)
        });
        counts.sum()
    }
}

/// Membership captured at epoch initiation: shared across every epoch
/// issued under the same registration state (the memory win over the
/// reference observer's per-epoch clones) and by every snapshot sealed
/// under it, whose key column is `units` itself.
#[derive(Debug)]
struct Membership {
    /// The registered devices — what a sealed snapshot's `devices` is
    /// built from. Never searched per report: `by_id` answers that.
    device_set: BTreeSet<u16>,
    /// Every expected unit, `UnitId`-sorted: the groups' units laid end to
    /// end in device order. Built once per registration state and handed
    /// to each sealed snapshot as its key column.
    units: Arc<[UnitId]>,
    /// One group per registered device (empty when it expects no unit)
    /// and per unregistered owner of a registered unit, in device order.
    groups: Vec<DeviceGroup>,
    /// Device id → index into `groups`, `None` for an unregistered id;
    /// ids past the largest registered one are past the end. One probe
    /// answers both "registered?" and "which group?".
    by_id: Vec<Option<u32>>,
}

impl Membership {
    /// The groups with an undelivered cell in `seen`, each with its
    /// delivered count, in device order.
    fn lagging<'a>(&'a self, seen: &'a [u64]) -> impl Iterator<Item = (&'a DeviceGroup, usize)> {
        let counted = self.groups.iter().map(|g| (g, g.delivered(seen)));
        counted.filter(|(g, count)| *count < g.len())
    }
}

/// Per-epoch assembly state. A silent epoch owns no heap; its first
/// accepted report allocates `values` and `seen` over the whole unit
/// column, and seal moves `values` into the snapshot.
#[derive(Debug, Clone)]
struct EpochAssembly {
    membership: Arc<Membership>,
    excluded: BTreeSet<u16>,
    /// Cell → outcome, aligned with `membership.units`; meaningful only
    /// where `seen` has the bit. An excluded device's range is filled
    /// with `DeviceExcluded` at seal.
    values: Vec<UnitOutcome>,
    /// Bit `i` set ⇔ cell `i` delivered (the duplicate check is a bit
    /// test).
    seen: Vec<u64>,
    /// Unique values delivered across all devices (completion counter).
    delivered: usize,
    /// Values this epoch holds in pipeline memory (delivered plus any
    /// forced-exclusion fills) — returned to `pending_values` at seal.
    stored: usize,
    /// Running consistent-total, checked per arriving report; `None` once
    /// it has overflowed u64 (the wraparound-totals consistency check).
    running_total: Option<u64>,
}

impl EpochAssembly {
    fn complete(&self) -> bool {
        self.delivered == self.membership.units.len()
    }

    /// True when cell `cell` has a delivered value.
    fn is_set(&self, cell: usize) -> bool {
        (self.seen.get(cell / 64)).is_some_and(|w| w & (1u64 << (cell % 64)) != 0)
    }
}

/// A report that survived the validate stage.
#[derive(Debug, Clone, Copy)]
struct Validated {
    device: u16,
    /// The unit's cell in its epoch's column, computed during validation
    /// (membership is per-epoch immutable, so it stays valid while the
    /// report sits in the queue).
    cell: usize,
    report: Report,
}

/// The staged snapshot observer. See the module docs for the stage
/// diagram and the equivalence contract with the reference
/// [`Observer`](crate::observer::Observer).
#[derive(Debug, Clone)]
pub struct PipelineObserver {
    cfg: PipelineConfig,
    devices: BTreeMap<u16, Vec<UnitId>>,
    membership: Option<Arc<Membership>>,
    next_epoch: Epoch,
    assemblies: BTreeMap<Epoch, EpochAssembly>,
    collect: VecDeque<(u16, Report)>,
    validated: VecDeque<Validated>,
    ready: VecDeque<Epoch>,
    sealed: VecDeque<GlobalSnapshot>,
    pending_values: usize,
    finalized: u64,
    stats: PipelineStats,
}

impl PipelineObserver {
    /// Create a pipeline observer with no registered devices.
    pub fn new(cfg: PipelineConfig) -> PipelineObserver {
        assert!(cfg.observer.max_outstanding >= 1);
        assert!(
            cfg.observer.max_outstanding < cfg.observer.modulus,
            "outstanding epochs must stay below the modulus (no-lapping)"
        );
        assert!(cfg.collect_capacity >= 1);
        assert!(cfg.validated_capacity >= 1);
        assert!(cfg.sealed_capacity >= 1);
        PipelineObserver {
            cfg,
            devices: BTreeMap::new(),
            membership: None,
            next_epoch: 1,
            assemblies: BTreeMap::new(),
            collect: VecDeque::new(),
            validated: VecDeque::new(),
            ready: VecDeque::new(),
            sealed: VecDeque::new(),
            pending_values: 0,
            finalized: 0,
            stats: PipelineStats::default(),
        }
    }

    /// Register a device and its expected units (§6 "Node attachment").
    /// Participates starting with the next initiated snapshot.
    pub fn register_device(&mut self, device: u16, units: Vec<UnitId>) {
        self.devices.insert(device, units);
        self.membership = None;
    }

    /// Remove a device. Pending epochs that expected it only finish via
    /// [`PipelineObserver::force_finalize`].
    pub fn detach_device(&mut self, device: u16) {
        self.devices.remove(&device);
        self.membership = None;
    }

    /// Registered device IDs.
    pub fn device_ids(&self) -> impl Iterator<Item = u16> + '_ {
        self.devices.keys().copied()
    }

    /// Epochs issued but not yet finalized.
    pub fn outstanding(&self) -> usize {
        self.assemblies.len()
    }

    /// Epochs currently pending, oldest first.
    pub fn pending_epochs(&self) -> impl Iterator<Item = Epoch> + '_ {
        self.assemblies.keys().copied()
    }

    /// Number of snapshots finalized so far.
    pub fn finalized_count(&self) -> u64 {
        self.finalized
    }

    /// Reports rejected for misattribution (parity with the reference
    /// observer's counter).
    pub fn misattributed_count(&self) -> u64 {
        self.stats.misattributed
    }

    /// Pipeline counters and high-water marks.
    pub fn stats(&self) -> &PipelineStats {
        &self.stats
    }

    fn membership_arc(&mut self) -> Arc<Membership> {
        if let Some(m) = &self.membership {
            return Arc::clone(m);
        }
        // `UnitId` orders by device first, so the sorted column holds each
        // device's units as one run, the runs in device order.
        let mut column: Vec<UnitId> = Vec::with_capacity(self.devices.values().map(Vec::len).sum());
        column.extend(self.devices.values().flatten());
        column.sort_unstable();
        column.dedup();
        let owners: BTreeSet<u16> = (column.chunk_by(|a, b| a.device == b.device))
            .filter_map(|run| run.first().map(|u| u.device))
            .chain(self.devices.keys().copied())
            .collect();
        let table_len = (self.devices.keys().next_back()).map_or(0, |&max| usize::from(max) + 1);
        let mut by_id = vec![None; table_len];
        let mut groups = Vec::with_capacity(owners.len());
        let mut start = 0;
        for device in owners {
            let range = start..column.partition_point(|u| u.device <= device);
            start = range.end;
            let registered = self.devices.contains_key(&device);
            if let Some(cell) = by_id.get_mut(usize::from(device)).filter(|_| registered) {
                *cell = Some(groups.len() as u32);
            }
            let shape = Shape::of_units(column.get(range.clone()).unwrap_or_default());
            groups.push(DeviceGroup {
                device,
                range,
                shape,
            });
        }
        let m = Arc::new(Membership {
            device_set: self.devices.keys().copied().collect(),
            units: column.into(),
            groups,
            by_id,
        });
        self.membership = Some(Arc::clone(&m));
        m
    }

    /// Issue the next snapshot epoch, or `None` at the no-lapping cap or
    /// with no registered devices. Mirrors
    /// [`Observer::begin_snapshot`](crate::observer::Observer::begin_snapshot).
    pub fn begin_snapshot(&mut self) -> Option<Epoch> {
        self.begin_snapshot_traced(&mut obs::NoopSink, 0)
    }

    /// [`PipelineObserver::begin_snapshot`] with trace emission
    /// (`snap.initiate`, identical to the reference observer's).
    pub fn begin_snapshot_traced<S: obs::Sink>(
        &mut self,
        sink: &mut S,
        t_ns: u64,
    ) -> Option<Epoch> {
        if self.assemblies.len() >= usize::from(self.cfg.observer.max_outstanding) {
            return None;
        }
        if self.devices.is_empty() {
            return None;
        }
        let epoch = self.next_epoch;
        // Checked-arithmetic policy (same as the reference observer): a
        // wrapped epoch counter would alias wrapped snapshot IDs.
        self.next_epoch = epoch.checked_add(1).unwrap_or_else(|| {
            panic!("observer epoch counter overflow: next_epoch would exceed u64::MAX")
        });
        let membership = self.membership_arc();
        obs::event!(
            sink,
            t_ns,
            "snap.initiate",
            epoch = epoch,
            devices = membership.device_set.len(),
            units = membership.units.len(),
        );
        self.assemblies.insert(
            epoch,
            EpochAssembly {
                membership,
                values: Vec::new(),
                seen: Vec::new(),
                excluded: BTreeSet::new(),
                delivered: 0,
                stored: 0,
                running_total: Some(0),
            },
        );
        Some(epoch)
    }

    /// Stage 1 (collect): enqueue one report. Returns `false` without
    /// enqueueing when the collect queue is full — the backpressure
    /// signal. The report is *not* validated here; that happens when the
    /// validate stage pops it.
    pub fn offer_report(&mut self, device: u16, report: Report) -> bool {
        if self.collect.len() >= self.cfg.collect_capacity {
            self.stats.backpressure_rejects += 1;
            return false;
        }
        self.collect.push_back((device, report));
        self.stats.offered += 1;
        let depth = self.collect.len();
        self.stats.bump_collect(depth);
        true
    }

    /// Stage 2 (validate): move reports from collect to the validated
    /// queue, applying the per-arriving-report consistency checks.
    /// Returns how many reports were popped.
    pub fn pump_validate_traced<S: obs::Sink>(&mut self, sink: &mut S, t_ns: u64) -> usize {
        let mut moved = 0;
        while self.validated.len() < self.cfg.validated_capacity {
            let Some((device, report)) = self.collect.pop_front() else {
                break;
            };
            moved += 1;
            match self.validate(device, &report) {
                Ok(cell) => {
                    self.validated.push_back(Validated {
                        device,
                        cell,
                        report,
                    });
                    let depth = self.validated.len();
                    self.stats.bump_validated(depth);
                }
                Err(reason) => self.reject(reason, device, &report, sink, t_ns),
            }
        }
        moved
    }

    /// All per-arriving-report checks; returns the unit's cell in the
    /// epoch's column on success.
    fn validate(&self, device: u16, report: &Report) -> Result<usize, DropReason> {
        // Attribution: the delivering device must own the unit. Checked
        // before anything else — a spoofed report is rejected regardless
        // of epoch validity (mirrors the reference observer's fix).
        if report.unit.device != device {
            return Err(DropReason::Misattributed);
        }
        // No-lapping window: newest issued epoch is next_epoch - 1. A
        // report at or beyond the modulus behind it could alias a wrapped
        // ID; one beyond next_epoch was never issued at all.
        let newest_issued = self.next_epoch.saturating_sub(1);
        if report.epoch > newest_issued {
            return Err(DropReason::FutureEpoch);
        }
        if newest_issued - report.epoch >= u64::from(self.cfg.observer.modulus) {
            return Err(DropReason::Lapped);
        }
        let Some(assembly) = self.assemblies.get(&report.epoch) else {
            return Err(DropReason::StaleEpoch);
        };
        let membership = &*assembly.membership;
        let Some(&Some(group)) = membership.by_id.get(usize::from(device)) else {
            return Err(DropReason::ForeignDevice);
        };
        if assembly.excluded.contains(&device) {
            return Err(DropReason::ExcludedDevice);
        }
        let group = membership.groups.get(group as usize);
        group
            .and_then(|g| Some(g.range.start + g.slot_of(&membership.units, &report.unit)?))
            .ok_or(DropReason::UnexpectedUnit)
    }

    fn reject<S: obs::Sink>(
        &mut self,
        reason: DropReason,
        device: u16,
        report: &Report,
        sink: &mut S,
        t_ns: u64,
    ) {
        self.stats.record_drop(reason);
        match reason {
            DropReason::Misattributed => {
                obs::event!(
                    sink,
                    t_ns,
                    "report.misattributed",
                    dev = device,
                    unit_dev = report.unit.device,
                    epoch = report.epoch,
                );
            }
            DropReason::Lapped => {
                obs::event!(
                    sink,
                    t_ns,
                    "report.lapped",
                    dev = device,
                    epoch = report.epoch,
                );
            }
            _ => {}
        }
    }

    /// Stage 3 (assemble): fold validated reports into their epoch
    /// assemblies; completed epochs move to the ready queue. Returns how
    /// many reports were folded.
    pub fn pump_assemble(&mut self) -> usize {
        let mut moved = 0;
        while let Some(Validated {
            device,
            cell,
            report,
        }) = self.validated.pop_front()
        {
            moved += 1;
            self.fold(device, cell, report);
        }
        moved
    }

    /// Fold one validated report into its epoch assembly. Liveness and
    /// exclusion are re-checked here — the epoch may have been
    /// force-finalized (or the device excluded) between validation and
    /// folding when the report transited the validated queue.
    ///
    /// The entire fold works in column space: one bit test-and-set (the
    /// first-value-wins duplicate check) and one store, both at `cell`.
    /// Nothing is searched, and nothing is sorted or copied later:
    /// outcomes land in the column the sealed snapshot keeps.
    fn fold(&mut self, device: u16, cell: usize, report: Report) {
        let Some(assembly) = self.assemblies.get_mut(&report.epoch) else {
            self.stats.record_drop(DropReason::StaleEpoch);
            return;
        };
        if assembly.excluded.contains(&device) {
            self.stats.record_drop(DropReason::ExcludedDevice);
            return;
        }
        if assembly.seen.is_empty() {
            let units = assembly.membership.units.len();
            assembly.values = vec![UnitOutcome::Missing; units];
            assembly.seen = vec![0; units.div_ceil(64)];
        }
        let (Some(word), Some(value)) = (
            assembly.seen.get_mut(cell / 64),
            assembly.values.get_mut(cell),
        ) else {
            panic!("cell {cell} outside epoch {}'s column", report.epoch);
        };
        let mask = 1u64 << (cell % 64);
        if *word & mask != 0 {
            self.stats.record_drop(DropReason::Duplicate);
            return;
        }
        let outcome: UnitOutcome = report.value.into();
        *word |= mask;
        *value = outcome;
        // Wraparound-totals consistency check: maintain the running
        // consistent-total per epoch, flagging u64 overflow the moment
        // the offending report arrives (the sealed snapshot's total
        // then saturates, matching the reference overflow policy).
        if let Some(total) = assembly.running_total {
            let next = match outcome {
                UnitOutcome::Value { local, channel } => total
                    .checked_add(local)
                    .and_then(|t| t.checked_add(channel)),
                UnitOutcome::Inferred { local } => total.checked_add(local),
                _ => Some(total),
            };
            if next.is_none() {
                self.stats.total_overflow += 1;
            }
            assembly.running_total = next;
        }
        assembly.delivered += 1;
        assembly.stored += 1;
        self.pending_values += 1;
        let pending = self.pending_values;
        self.stats.bump_pending(pending);
        self.stats.accepted += 1;
        if assembly.complete() {
            self.ready.push_back(report.epoch);
            let depth = self.ready.len();
            self.stats.bump_ready(depth);
        }
    }

    /// Fused validate+assemble fast path: drain the whole collect queue in
    /// one chunk, folding each surviving report straight into its epoch
    /// assembly without the validated-queue hop. Observably identical to
    /// `pump_validate_traced` followed by `pump_assemble` (same checks,
    /// same counters, same trace events, same collect order) — it only
    /// skips the intermediate enqueue/dequeue, which is pure overhead when
    /// both stages run back-to-back anyway. The per-stage pumps stay for
    /// staged embedders; this is what [`PipelineObserver::pump`] uses.
    fn pump_fused_traced<S: obs::Sink>(&mut self, sink: &mut S, t_ns: u64) -> usize {
        let mut moved = 0;
        while let Some((device, report)) = self.collect.pop_front() {
            moved += 1;
            match self.validate(device, &report) {
                Ok(cell) => self.fold(device, cell, report),
                Err(reason) => self.reject(reason, device, &report, sink, t_ns),
            }
        }
        moved
    }

    /// Stage 4 (finalize): seal completed epochs into the persist-hook
    /// queue, emitting `obs.finalize`. Stalls (returns early) when the
    /// sealed queue is full — snapshots are never dropped. Returns how
    /// many snapshots were sealed.
    pub fn pump_finalize_traced<S: obs::Sink>(&mut self, sink: &mut S, t_ns: u64) -> usize {
        let mut sealed = 0;
        while self.sealed.len() < self.cfg.sealed_capacity {
            let Some(epoch) = self.ready.pop_front() else {
                break;
            };
            let Some(snap) = self.seal(epoch) else {
                continue; // force-finalized while queued
            };
            obs::event!(
                sink,
                t_ns,
                "obs.finalize",
                epoch = snap.epoch,
                units = snap.units.len(),
                excluded = snap.excluded.len(),
                forced = false,
            );
            self.sealed.push_back(snap);
            let depth = self.sealed.len();
            self.stats.bump_sealed(depth);
            sealed += 1;
        }
        sealed
    }

    /// Stage 5 (persist-hook): pop the oldest sealed snapshot. The
    /// embedder's store — fabric instrumentation today, the snapshot
    /// store subsystem later — attaches here.
    pub fn take_finalized(&mut self) -> Option<GlobalSnapshot> {
        self.sealed.pop_front()
    }

    /// Run every stage to quiescence. The synchronous embedding calls
    /// this after each offer; staged embedders (the bench harness) drive
    /// the per-stage pumps directly.
    pub fn pump(&mut self) {
        self.pump_traced(&mut obs::NoopSink, 0);
    }

    /// [`PipelineObserver::pump`] with trace emission. Anything a staged
    /// embedder left in the validated queue is folded first (preserving
    /// report order), then collect drains through the fused fast path.
    pub fn pump_traced<S: obs::Sink>(&mut self, sink: &mut S, t_ns: u64) {
        loop {
            let mut progress = 0;
            progress += self.pump_finalize_traced(sink, t_ns);
            progress += self.pump_assemble();
            progress += self.pump_fused_traced(sink, t_ns);
            if progress == 0 {
                break;
            }
        }
    }

    fn seal(&mut self, epoch: Epoch) -> Option<GlobalSnapshot> {
        let mut a = self.assemblies.remove(&epoch)?;
        self.stats.note_seal(epoch);
        self.finalized += 1;
        self.pending_values -= a.stored.min(self.pending_values);
        // The snapshot's keys are the membership's unit column itself and
        // its values the epoch's own column, moved: only an excluded
        // group's range is written, one fill each. Only a forced epoch
        // that accepted nothing has no column yet.
        if a.values.is_empty() {
            a.values = vec![UnitOutcome::Missing; a.membership.units.len()];
        }
        for group in &a.membership.groups {
            if a.excluded.contains(&group.device) {
                if let Some(range) = a.values.get_mut(group.range.clone()) {
                    range.fill(UnitOutcome::DeviceExcluded);
                }
            } else {
                // Seal runs on a complete epoch, or after force-finalize
                // excluded every device with an undelivered unit.
                let count = group.delivered(&a.seen);
                assert!(
                    count == group.len(),
                    "epoch {epoch} sealed with device {} at {count} of {} units",
                    group.device,
                    group.len()
                );
            }
        }
        Some(GlobalSnapshot {
            epoch,
            devices: &a.membership.device_set - &a.excluded,
            excluded: a.excluded,
            units: UnitMap {
                keys: Arc::clone(&a.membership.units),
                values: a.values,
            },
        })
    }

    /// Synchronous convenience mirroring
    /// [`Observer::on_report`](crate::observer::Observer::on_report):
    /// offer, pump to quiescence, and return the completed snapshot if
    /// this report finished its epoch.
    pub fn on_report(&mut self, device: u16, report: Report) -> Option<GlobalSnapshot> {
        self.on_report_traced(device, report, &mut obs::NoopSink, 0)
    }

    /// [`PipelineObserver::on_report`] with trace emission.
    pub fn on_report_traced<S: obs::Sink>(
        &mut self,
        device: u16,
        report: Report,
        sink: &mut S,
        t_ns: u64,
    ) -> Option<GlobalSnapshot> {
        if !self.offer_report(device, report) {
            // Total fallback: drain and retry rather than silently losing
            // the report (the synchronous embedding never gets here — it
            // pumps after every offer).
            self.pump_traced(sink, t_ns);
            if !self.offer_report(device, report) {
                return None;
            }
        }
        self.pump_traced(sink, t_ns);
        self.take_finalized()
    }

    /// Units still missing for `epoch` (retry planning). Matches the
    /// reference observer.
    pub fn missing_units(&self, epoch: Epoch) -> Vec<UnitId> {
        let Some(a) = self.assemblies.get(&epoch) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for (group, _) in a.membership.lagging(&a.seen) {
            let units = a.membership.units.get(group.range.clone()).unwrap_or(&[]);
            let cells = group.range.clone().zip(units);
            let missing = cells.filter(|&(cell, _)| !a.is_set(cell));
            out.extend(missing.map(|(_, &unit)| unit));
        }
        out
    }

    /// Devices with at least one missing unit for `epoch`.
    pub fn lagging_devices(&self, epoch: Epoch) -> BTreeSet<u16> {
        let Some(a) = self.assemblies.get(&epoch) else {
            return BTreeSet::new();
        };
        let lagging = a.membership.lagging(&a.seen);
        lagging.map(|(group, _)| group.device).collect()
    }

    /// Timeout path, mirroring
    /// [`Observer::force_finalize`](crate::observer::Observer::force_finalize):
    /// exclude lagging devices and seal with what arrived.
    pub fn force_finalize(&mut self, epoch: Epoch) -> Option<GlobalSnapshot> {
        self.force_finalize_traced(epoch, &mut obs::NoopSink, 0)
    }

    /// [`PipelineObserver::force_finalize`] with trace emission: one
    /// `snap.exclude` per timed-out device, then `obs.finalize` marked
    /// `forced` and carrying the `discarded` delivered-value count.
    ///
    /// Forced finalization deliberately bypasses the ready/sealed queues:
    /// a timeout decision must not itself be subject to persist
    /// backpressure. Queued reports are pumped first so anything already
    /// delivered is credited before the exclusion cut.
    pub fn force_finalize_traced<S: obs::Sink>(
        &mut self,
        epoch: Epoch,
        sink: &mut S,
        t_ns: u64,
    ) -> Option<GlobalSnapshot> {
        // Pump validate + assemble only: anything already delivered is
        // credited, but a concurrently-completed epoch stays in the ready
        // queue (not the persist queue) so the forced path below can still
        // claim it — sealing it forced with zero exclusions, which is the
        // honest record of "the timeout fired after everything arrived".
        loop {
            let progress = self.pump_validate_traced(sink, t_ns) + self.pump_assemble();
            if progress == 0 {
                break;
            }
        }
        let assembly = self.assemblies.get_mut(&epoch)?;
        // A device lags when any of its expected group is undelivered.
        // Exclusion policy (§6): a lagging device contributes nothing —
        // values it did deliver are overwritten with DeviceExcluded (seal
        // fills the whole group), and the overwrite count is surfaced as
        // `discarded` (never silent). The undelivered rest of each group
        // now also counts as pipeline memory until seal.
        let mut discarded: u64 = 0;
        for (group, count) in assembly.membership.lagging(&assembly.seen) {
            assembly.excluded.insert(group.device);
            obs::event!(
                sink,
                t_ns,
                "snap.exclude",
                epoch = epoch,
                dev = group.device
            );
            discarded += count as u64;
            let newly = group.len() - count;
            assembly.stored += newly;
            self.pending_values += newly;
        }
        self.stats.discarded_values += discarded;
        let pending = self.pending_values;
        self.stats.bump_pending(pending);
        // Drop the epoch from the ready queue if it completed concurrently
        // (total: seal() below would return None for the second taker).
        self.ready.retain(|e| *e != epoch);
        let snap = self.seal(epoch)?;
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

    /// Fold pipeline counters and high-water marks into a metrics
    /// registry (gauges, so re-folding is idempotent).
    pub fn fold_metrics(&self, m: &mut obs::metrics::Metrics) {
        let s = &self.stats;
        m.gauge_set("observer.pipeline.offered", s.offered);
        m.gauge_set("observer.pipeline.accepted", s.accepted);
        m.gauge_set(
            "observer.pipeline.backpressure_rejects",
            s.backpressure_rejects,
        );
        // Every `DropReason`: a refused report shows in this artifact.
        m.gauge_set("observer.pipeline.misattributed", s.misattributed);
        m.gauge_set("observer.pipeline.future_epoch", s.future_epoch);
        m.gauge_set("observer.pipeline.lapped", s.lapped);
        m.gauge_set("observer.pipeline.stale_epoch", s.stale_epoch);
        m.gauge_set("observer.pipeline.foreign_device", s.foreign_device);
        m.gauge_set("observer.pipeline.excluded_device", s.excluded_device);
        m.gauge_set("observer.pipeline.unexpected_unit", s.unexpected_unit);
        m.gauge_set("observer.pipeline.duplicate", s.duplicate);
        m.gauge_set("observer.pipeline.total_overflow", s.total_overflow);
        m.gauge_set("observer.pipeline.discarded_values", s.discarded_values);
        m.gauge_set(
            "observer.pipeline.peak_collect_depth",
            s.peak_collect_depth as u64,
        );
        m.gauge_set(
            "observer.pipeline.peak_pending_values",
            s.peak_pending_values as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ReportValue;

    fn report(unit: UnitId, epoch: Epoch, local: u64) -> Report {
        Report {
            unit,
            epoch,
            value: ReportValue::Value { local, channel: 0 },
        }
    }

    fn two_device_pipeline() -> PipelineObserver {
        let mut p = PipelineObserver::new(PipelineConfig::for_modulus(8));
        p.register_device(0, vec![UnitId::ingress(0, 0), UnitId::egress(0, 0)]);
        p.register_device(1, vec![UnitId::ingress(1, 0), UnitId::egress(1, 0)]);
        p
    }

    #[test]
    fn synchronous_embedding_matches_reference_behavior() {
        let mut p = two_device_pipeline();
        assert_eq!(p.begin_snapshot(), Some(1));
        assert!(p
            .on_report(0, report(UnitId::ingress(0, 0), 1, 10))
            .is_none());
        assert!(p
            .on_report(0, report(UnitId::egress(0, 0), 1, 11))
            .is_none());
        assert!(p
            .on_report(1, report(UnitId::ingress(1, 0), 1, 12))
            .is_none());
        let snap = p
            .on_report(1, report(UnitId::egress(1, 0), 1, 13))
            .expect("final report completes the snapshot");
        assert_eq!(snap.epoch, 1);
        assert_eq!(snap.consistent_total(), 46);
        assert_eq!(p.outstanding(), 0);
        assert_eq!(p.finalized_count(), 1);
        assert_eq!(p.stats().accepted, 4);
        assert_eq!(p.stats().peak_pending_values, 4);
    }

    #[test]
    fn backpressure_refuses_at_collect_capacity() {
        let mut cfg = PipelineConfig::for_modulus(8);
        cfg.collect_capacity = 2;
        let mut p = PipelineObserver::new(cfg);
        p.register_device(0, vec![UnitId::ingress(0, 0), UnitId::egress(0, 0)]);
        p.begin_snapshot().unwrap();
        assert!(p.offer_report(0, report(UnitId::ingress(0, 0), 1, 1)));
        assert!(p.offer_report(0, report(UnitId::egress(0, 0), 1, 2)));
        assert!(
            !p.offer_report(0, report(UnitId::ingress(0, 0), 1, 3)),
            "offer refused at capacity"
        );
        assert_eq!(p.stats().backpressure_rejects, 1);
        p.pump();
        assert_eq!(p.take_finalized().map(|s| s.epoch), Some(1));
        assert!(
            p.offer_report(0, report(UnitId::ingress(0, 0), 1, 3)),
            "pump drained the queue: the retried offer is taken"
        );
    }

    #[test]
    fn staged_pumps_move_work_one_stage_at_a_time() {
        let mut p = two_device_pipeline();
        p.begin_snapshot().unwrap();
        for (dev, unit) in [
            (0, UnitId::ingress(0, 0)),
            (0, UnitId::egress(0, 0)),
            (1, UnitId::ingress(1, 0)),
            (1, UnitId::egress(1, 0)),
        ] {
            assert!(p.offer_report(dev, report(unit, 1, 5)));
        }
        assert_eq!(p.stats().peak_collect_depth, 4);
        assert_eq!(p.pump_validate_traced(&mut obs::NoopSink, 0), 4);
        assert_eq!(p.pump_assemble(), 4);
        assert_eq!(p.pump_finalize_traced(&mut obs::NoopSink, 0), 1);
        let snap = p.take_finalized().expect("sealed snapshot available");
        assert_eq!(snap.epoch, 1);
        assert!(p.take_finalized().is_none());
    }

    #[test]
    fn validate_rejects_misattributed_and_windows() {
        let mut p = two_device_pipeline();
        let mut sink = obs::sinks::RingSink::new(16);
        p.begin_snapshot_traced(&mut sink, 0).unwrap();
        // Misattributed: device 0 delivering device 1's unit.
        assert!(p
            .on_report_traced(0, report(UnitId::ingress(1, 0), 1, 9), &mut sink, 1)
            .is_none());
        assert_eq!(p.stats().misattributed, 1);
        assert!(sink.events().any(|e| e.name == "report.misattributed"));
        // Future epoch: never issued.
        assert!(p
            .on_report(0, report(UnitId::ingress(0, 0), 7, 9))
            .is_none());
        assert_eq!(p.stats().future_epoch, 1);
        // Unexpected unit.
        assert!(p
            .on_report(0, report(UnitId::ingress(0, 9), 1, 9))
            .is_none());
        assert_eq!(p.stats().unexpected_unit, 1);
        // The epoch still completes with the legitimate reports.
        p.on_report(0, report(UnitId::ingress(0, 0), 1, 1));
        p.on_report(0, report(UnitId::egress(0, 0), 1, 2));
        p.on_report(1, report(UnitId::ingress(1, 0), 1, 3));
        assert!(p.on_report(1, report(UnitId::egress(1, 0), 1, 4)).is_some());
    }

    #[test]
    fn lapped_reports_are_rejected_and_traced() {
        let mut cfg = PipelineConfig::for_modulus(4);
        cfg.observer.max_outstanding = 1;
        let mut p = PipelineObserver::new(cfg);
        p.register_device(0, vec![UnitId::ingress(0, 0)]);
        let mut sink = obs::sinks::RingSink::new(64);
        for e in 1..=6u64 {
            p.begin_snapshot_traced(&mut sink, 0).unwrap();
            p.on_report(0, report(UnitId::ingress(0, 0), e, 1)).unwrap();
        }
        // Newest issued is 6; epoch 1 is 5 >= modulus(4) behind: lapped.
        assert!(p
            .on_report_traced(0, report(UnitId::ingress(0, 0), 1, 1), &mut sink, 9)
            .is_none());
        assert_eq!(p.stats().lapped, 1);
        assert!(sink.events().any(|e| e.name == "report.lapped"));
        // Epoch 4 is inside the window but finalized: a stale straggler.
        assert!(p
            .on_report(0, report(UnitId::ingress(0, 0), 4, 1))
            .is_none());
        assert_eq!(p.stats().stale_epoch, 1);
    }

    #[test]
    fn duplicates_keep_first_value_and_are_counted() {
        let mut p = PipelineObserver::new(PipelineConfig::for_modulus(8));
        p.register_device(0, vec![UnitId::ingress(0, 0), UnitId::egress(0, 0)]);
        p.begin_snapshot().unwrap();
        p.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        assert!(p
            .on_report(0, report(UnitId::ingress(0, 0), 1, 99))
            .is_none());
        assert_eq!(p.stats().duplicate, 1);
        let snap = p.on_report(0, report(UnitId::egress(0, 0), 1, 11)).unwrap();
        assert_eq!(
            snap.units[&UnitId::ingress(0, 0)],
            UnitOutcome::Value {
                local: 10,
                channel: 0
            }
        );
    }

    #[test]
    fn forced_finalize_counts_discarded_and_traces_exclusions() {
        let mut p = two_device_pipeline();
        let mut sink = obs::sinks::RingSink::new(16);
        p.begin_snapshot_traced(&mut sink, 0).unwrap();
        p.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        p.on_report(0, report(UnitId::egress(0, 0), 1, 11));
        p.on_report(1, report(UnitId::ingress(1, 0), 1, 12));
        let snap = p.force_finalize_traced(1, &mut sink, 50).unwrap();
        assert_eq!(snap.excluded, BTreeSet::from([1]));
        assert_eq!(
            snap.units[&UnitId::ingress(1, 0)],
            UnitOutcome::DeviceExcluded
        );
        assert_eq!(p.stats().discarded_values, 1);
        let ev = sink.events().find(|e| e.name == "obs.finalize").unwrap();
        assert_eq!(ev.get("forced"), Some(&obs::Value::Bool(true)));
        assert_eq!(ev.get("discarded").and_then(|v| v.as_u64()), Some(1));
        assert!(sink.events().any(|e| e.name == "snap.exclude"));
    }

    #[test]
    fn forced_finalize_credits_queued_reports_first() {
        // A report sitting unprocessed in the collect queue when the
        // timeout fires must be credited before the exclusion cut.
        let mut p = two_device_pipeline();
        p.begin_snapshot().unwrap();
        p.on_report(0, report(UnitId::ingress(0, 0), 1, 10));
        p.on_report(0, report(UnitId::egress(0, 0), 1, 11));
        assert!(p.offer_report(1, report(UnitId::ingress(1, 0), 1, 12)));
        assert!(p.offer_report(1, report(UnitId::egress(1, 0), 1, 13)));
        // No pump: both of device 1's reports are still queued. The
        // forced path pumps first, so the epoch actually completes clean.
        let snap = p.force_finalize(1).expect("epoch seals");
        assert!(snap.excluded.is_empty(), "queued reports were credited");
        assert_eq!(snap.consistent_total(), 46);
        assert_eq!(p.stats().discarded_values, 0);
    }

    #[test]
    fn membership_is_shared_across_epochs_not_cloned() {
        let mut p = two_device_pipeline();
        let e1 = p.begin_snapshot().unwrap();
        let e2 = p.begin_snapshot().unwrap();
        let m1 = Arc::as_ptr(&p.assemblies[&e1].membership);
        let m2 = Arc::as_ptr(&p.assemblies[&e2].membership);
        assert_eq!(m1, m2, "same registration state ⇒ shared membership");
        // Registration change rebuilds membership for later epochs only.
        p.register_device(2, vec![UnitId::ingress(2, 0)]);
        let e3 = p.begin_snapshot().unwrap();
        let m3 = Arc::as_ptr(&p.assemblies[&e3].membership);
        assert_ne!(m1, m3);
    }

    /// Heap bytes `epoch` holds of its own: its outcome column and bitmap
    /// (membership is shared, and `excluded` stays empty until forced
    /// finalization).
    fn epoch_heap_bytes(p: &PipelineObserver, epoch: Epoch) -> usize {
        use std::mem::size_of;
        let a = &p.assemblies[&epoch];
        a.values.capacity() * size_of::<UnitOutcome>() + a.seen.capacity() * size_of::<u64>()
    }

    #[test]
    fn an_epoch_owns_no_heap_until_its_first_report_then_one_column() {
        use std::mem::size_of;
        const DEVICES: u16 = 1000;
        const PORTS: u16 = 1000;
        let cfg = PipelineConfig::for_modulus(8);
        let outstanding = u64::from(cfg.observer.max_outstanding);
        let mut p = PipelineObserver::new(cfg);
        for d in 0..DEVICES {
            p.register_device(d, (0..PORTS).map(|port| UnitId::ingress(d, port)).collect());
        }
        for e in 1..=outstanding {
            assert_eq!(p.begin_snapshot(), Some(e));
        }
        assert_eq!(p.begin_snapshot(), None, "at the no-lapping cap");
        // Nothing delivered: not one byte per device or per unit, with the
        // million-unit membership held once.
        for e in 1..=outstanding {
            assert_eq!(epoch_heap_bytes(&p, e), 0, "epoch {e}");
        }
        let shared = p
            .membership
            .as_ref()
            .expect("built at the first initiation");
        assert_eq!(Arc::strong_count(shared), outstanding as usize + 1);
        // One report from one device: that epoch allocates exactly the
        // whole outcome column and its bitmap, the column its snapshot
        // will keep.
        assert!(p
            .on_report(7, report(UnitId::ingress(7, 3), 2, 1))
            .is_none());
        let n = usize::from(DEVICES) * usize::from(PORTS);
        let column = n * size_of::<UnitOutcome>() + n.div_ceil(64) * size_of::<u64>();
        for e in 1..=outstanding {
            let want = if e == 2 { column } else { 0 };
            assert_eq!(epoch_heap_bytes(&p, e), want, "epoch {e}");
        }
        assert_eq!(p.lagging_devices(2).len(), usize::from(DEVICES));
        // A forced epoch that accepted nothing gets its column at seal.
        let silent = p.force_finalize(1).expect("epoch 1 seals");
        assert_eq!(silent.excluded.len(), usize::from(DEVICES));
        assert_eq!(silent.units.values.len(), n);
        let excluded = |o: &UnitOutcome| *o == UnitOutcome::DeviceExcluded;
        assert!(silent.units.values.iter().all(excluded));
    }

    /// Heap bytes `m` holds: its key column and its group and id tables.
    /// (A group owns no heap; `device_set` is one tree entry per
    /// registered device.)
    fn membership_heap_bytes(m: &Membership) -> usize {
        use std::mem::size_of;
        m.units.len() * size_of::<UnitId>()
            + m.groups.capacity() * size_of::<DeviceGroup>()
            + m.by_id.capacity() * size_of::<Option<u32>>()
    }

    #[test]
    fn membership_heap_does_not_depend_on_the_announced_port() {
        use std::mem::size_of;
        const DEVICES: u16 = 1000;
        let mut p = PipelineObserver::new(PipelineConfig::for_modulus(8));
        for d in 0..DEVICES {
            p.register_device(d, vec![UnitId::ingress(d, u16::MAX)]);
        }
        assert_eq!(p.begin_snapshot(), Some(1));
        let m = p
            .membership
            .as_ref()
            .expect("built at the first initiation");
        // The key column plus a constant per group and per id: not one
        // byte for the 65 535 ports each device skips.
        let n = usize::from(DEVICES);
        assert_eq!(m.groups.len(), n);
        assert_eq!(m.by_id.len(), n);
        let want = n * (size_of::<UnitId>() + size_of::<DeviceGroup>() + size_of::<Option<u32>>());
        assert_eq!(membership_heap_bytes(m), want);
        // The top port is still the one unit each device is held to.
        for unit in [
            UnitId::egress(7, u16::MAX),
            UnitId::ingress(7, u16::MAX - 1),
        ] {
            assert!(p.on_report(7, report(unit, 1, 1)).is_none());
        }
        assert_eq!(p.stats().unexpected_unit, 2);
        assert!(p
            .on_report(7, report(UnitId::ingress(7, u16::MAX), 1, 1))
            .is_none());
        assert_eq!(p.stats().accepted, 1);
    }

    #[test]
    fn run_path_groups_take_the_arithmetic_branch() {
        // What the fabric's switches and the emulation's devices register
        // (both directions of ports 0..P, interleaved), and what the
        // benchmark's fleet registers (ingress of ports 0..P).
        const PORTS: u16 = 64;
        let mut p = PipelineObserver::new(PipelineConfig::for_modulus(8));
        let both = (0..PORTS).flat_map(|port| [UnitId::ingress(0, port), UnitId::egress(0, port)]);
        p.register_device(0, both.collect());
        p.register_device(1, (0..PORTS).map(|port| UnitId::ingress(1, port)).collect());
        p.begin_snapshot().unwrap();
        let m = p
            .membership
            .as_ref()
            .expect("built at the first initiation");
        let shapes: Vec<Shape> = m.groups.iter().map(|g| g.shape).collect();
        assert_eq!(shapes, [Shape::PortPairs, Shape::Ports(Direction::Ingress)]);
        for g in &m.groups {
            for (slot, unit) in m.units[g.range.clone()].iter().enumerate() {
                assert_eq!(g.slot_of(&m.units, unit), Some(slot), "{unit:?}");
            }
            for port in [PORTS, u16::MAX] {
                for unit in [
                    UnitId::ingress(g.device, port),
                    UnitId::egress(g.device, port),
                ] {
                    assert_eq!(g.slot_of(&m.units, &unit), None, "{unit:?}");
                }
            }
        }
        assert_eq!(m.groups[1].slot_of(&m.units, &UnitId::egress(1, 0)), None);
    }

    #[test]
    fn group_counts_read_the_bitmap_across_word_edges() {
        let seen = [u64::MAX ^ 1, 0b1011 << 60, u64::MAX >> 1];
        let set = |cell: usize| seen[cell / 64] >> (cell % 64) & 1 == 1;
        let group = |range: Range<usize>| DeviceGroup {
            device: 0,
            range,
            shape: Shape::Listed,
        };
        for start in 0..=192 {
            for end in start..=192 {
                let want = (start..end).filter(|&cell| set(cell)).count();
                assert_eq!(group(start..end).delivered(&seen), want, "{start}..{end}");
            }
        }
        assert_eq!(group(3..100).delivered(&[]), 0, "no column yet");
    }

    #[test]
    fn sealed_snapshots_share_the_membership_key_column() {
        use std::mem::size_of;
        const DEVICES: u16 = 100;
        const PORTS: u16 = 100;
        const LAGGARD: u16 = 7;
        let units = usize::from(DEVICES) * usize::from(PORTS);
        let local = |u: UnitId| u64::from(u.device) * 1000 + u64::from(u.port);
        let mut p = PipelineObserver::new(PipelineConfig::for_modulus(8));
        for d in 0..DEVICES {
            p.register_device(d, (0..PORTS).map(|port| UnitId::ingress(d, port)).collect());
        }
        let epochs = [1, 2, 3].map(|e| {
            assert_eq!(p.begin_snapshot(), Some(e));
            e
        });
        // Epochs 1 and 2 complete; in epoch 3 the laggard delivers one
        // unit of its group and times out. Each epoch's column is noted at
        // its first report.
        let mut sealed = Vec::new();
        let mut columns = Vec::new();
        for epoch in epochs {
            for d in 0..DEVICES {
                let ports = if epoch == 3 && d == LAGGARD { 1 } else { PORTS };
                for port in 0..ports {
                    let unit = UnitId::ingress(d, port);
                    sealed.extend(p.on_report(d, report(unit, epoch, local(unit))));
                    if (d, port) == (0, 0) {
                        columns.push(p.assemblies[&epoch].values.as_ptr());
                    }
                }
            }
        }
        sealed.extend(p.force_finalize(3));
        let [s1, s2, s3] = <[GlobalSnapshot; 3]>::try_from(sealed).expect("three seals");
        assert_eq!(s3.excluded, BTreeSet::from([LAGGARD]));

        // One key allocation, the membership's, behind all three.
        let m = p
            .membership
            .as_ref()
            .expect("built at the first initiation");
        for (s, column) in [&s1, &s2, &s3].into_iter().zip(columns) {
            assert!(Arc::ptr_eq(&s.units.keys, &m.units), "epoch {}", s.epoch);
            assert_eq!(s.units.len(), units);
            // Each owns its epoch's outcome column, moved and not copied
            // by the clean seals and the forced one alike, and nothing
            // more.
            assert_eq!(s.units.values.as_ptr(), column, "epoch {}", s.epoch);
            assert_eq!(
                s.units.values.capacity() * size_of::<UnitOutcome>(),
                units * size_of::<UnitOutcome>(),
                "epoch {}",
                s.epoch
            );
        }

        // The forced seal reads DeviceExcluded across the laggard's whole
        // range of the column (its delivered unit included) and every
        // other device's values as delivered.
        let range = m.groups[usize::from(LAGGARD)].range.clone();
        assert_eq!(range.len(), usize::from(PORTS));
        for (i, (&unit, &outcome)) in s3.units.iter().enumerate() {
            if range.contains(&i) {
                assert_eq!(unit.device, LAGGARD);
                assert_eq!(outcome, UnitOutcome::DeviceExcluded, "{unit:?}");
            } else {
                let value = UnitOutcome::Value {
                    local: local(unit),
                    channel: 0,
                };
                assert_eq!(outcome, value, "{unit:?}");
            }
        }
        assert_eq!(p.stats().discarded_values, 1);
    }

    #[test]
    fn an_egress_only_group_refuses_ingress() {
        // Device 0 expects only egress port 0, a one-direction product:
        // ingress port 1 must not read as egress 0.
        let mut p = PipelineObserver::new(PipelineConfig::for_modulus(8));
        p.register_device(0, vec![UnitId::egress(0, 0)]);
        p.begin_snapshot().unwrap();
        assert!(p
            .on_report(0, report(UnitId::ingress(0, 1), 1, 99))
            .is_none());
        assert_eq!(p.stats().unexpected_unit, 1);
        let snap = p.on_report(0, report(UnitId::egress(0, 0), 1, 5)).unwrap();
        assert_eq!(snap.consistent_total(), 5);
    }

    #[test]
    fn every_drop_reason_reaches_the_metrics() {
        // Exhaustive on purpose: a new variant does not compile until it
        // is given a gauge here (and so in `fold_metrics`).
        fn gauge(reason: DropReason) -> &'static str {
            match reason {
                DropReason::Misattributed => "observer.pipeline.misattributed",
                DropReason::FutureEpoch => "observer.pipeline.future_epoch",
                DropReason::Lapped => "observer.pipeline.lapped",
                DropReason::StaleEpoch => "observer.pipeline.stale_epoch",
                DropReason::ForeignDevice => "observer.pipeline.foreign_device",
                DropReason::ExcludedDevice => "observer.pipeline.excluded_device",
                DropReason::UnexpectedUnit => "observer.pipeline.unexpected_unit",
                DropReason::Duplicate => "observer.pipeline.duplicate",
            }
        }
        let all = [
            DropReason::Misattributed,
            DropReason::FutureEpoch,
            DropReason::Lapped,
            DropReason::StaleEpoch,
            DropReason::ForeignDevice,
            DropReason::ExcludedDevice,
            DropReason::UnexpectedUnit,
            DropReason::Duplicate,
        ];
        // Reason `i` is dropped `i + 1` times: a gauge wired to the wrong
        // counter reads the wrong number.
        let mut p = two_device_pipeline();
        for (i, &reason) in all.iter().enumerate() {
            for _ in 0..=i {
                p.stats.record_drop(reason);
            }
        }
        p.stats.total_overflow = 42;
        let mut m = obs::metrics::Metrics::new();
        p.fold_metrics(&mut m);
        for (i, &reason) in all.iter().enumerate() {
            assert_eq!(m.gauge(gauge(reason)), Some(i as u64 + 1), "{reason:?}");
        }
        assert_eq!(m.gauge("observer.pipeline.total_overflow"), Some(42));
    }

    #[test]
    fn running_total_overflow_is_flagged_per_report() {
        let mut p = PipelineObserver::new(PipelineConfig::for_modulus(8));
        p.register_device(0, vec![UnitId::ingress(0, 0), UnitId::egress(0, 0)]);
        p.begin_snapshot().unwrap();
        p.on_report(0, report(UnitId::ingress(0, 0), 1, u64::MAX - 1));
        assert_eq!(p.stats().total_overflow, 0);
        let snap = p.on_report(0, report(UnitId::egress(0, 0), 1, 5)).unwrap();
        assert_eq!(
            p.stats().total_overflow,
            1,
            "flagged on the offending report"
        );
        assert_eq!(snap.consistent_total(), u64::MAX, "sealed total saturates");
        assert_eq!(snap.checked_consistent_total(), None);
    }

    #[test]
    fn sealed_queue_stalls_finalize_without_dropping() {
        let mut cfg = PipelineConfig::for_modulus(8);
        cfg.sealed_capacity = 1;
        let mut p = PipelineObserver::new(cfg);
        p.register_device(0, vec![UnitId::ingress(0, 0)]);
        p.begin_snapshot().unwrap();
        p.begin_snapshot().unwrap();
        assert!(p.offer_report(0, report(UnitId::ingress(0, 0), 1, 1)));
        assert!(p.offer_report(0, report(UnitId::ingress(0, 0), 2, 2)));
        p.pump();
        // Only one snapshot fits the sealed queue; the other epoch waits.
        assert_eq!(p.stats().peak_sealed_depth, 1);
        assert_eq!(p.take_finalized().map(|s| s.epoch), Some(1));
        p.pump();
        assert_eq!(p.take_finalized().map(|s| s.epoch), Some(2));
        assert_eq!(p.finalized_count(), 2);
    }

    #[test]
    #[should_panic(expected = "sealed with device")]
    fn sealing_an_incomplete_unforced_epoch_panics_with_context() {
        let mut p = two_device_pipeline();
        p.begin_snapshot().unwrap();
        assert!(p
            .on_report(0, report(UnitId::ingress(0, 0), 1, 10))
            .is_none());
        let _ = p.seal(1);
    }

    #[test]
    #[should_panic(expected = "epoch counter overflow")]
    fn epoch_counter_overflow_panics_with_context() {
        let mut p = two_device_pipeline();
        p.next_epoch = u64::MAX;
        p.begin_snapshot();
    }
}
