//! The adversarial conformance tier.
//!
//! Named chaos scenarios (`conformance::matrix::ADVERSARIAL`) run through
//! the same differential oracle as the healthy matrix, under the
//! per-fault-class invariant table; a pinned-seed generated batch proves
//! the `AdversarialGen` stream stays deterministic and conformant at any
//! worker count; and mutation twins prove each adversarial oracle
//! rule actually fails when its fault handling is broken.

use conformance::oracle::check_run;
use conformance::runner::{expectations, run_fabric};
use conformance::{
    assert_conformant, matrix, matrix_digest, run_matrix, run_scenario, AdversarialGen, Divergence,
    Scenario,
};
use speedlight_core::observer::UnitOutcome;

fn sc(spec: &str) -> Scenario {
    Scenario::from_spec(spec).expect("adversarial spec must parse")
}

fn run_and_check(spec: &str) {
    let scenario = sc(spec);
    let outcome = run_scenario(&scenario);
    assert_conformant(&outcome);
    assert_eq!(
        outcome.fabric.snapshots.len(),
        scenario.snapshots,
        "fabric must complete every scheduled snapshot for `{spec}` \
         (force-finalization covers faulted epochs)"
    );
    assert!(
        !outcome.fabric.log.is_empty(),
        "fabric delivery log empty for `{spec}`"
    );
}

// One test per adversarial scenario; `covered_adversarial_scenarios`
// below proves this list matches `matrix::ADVERSARIAL` exactly.
macro_rules! adversarial_tests {
    ($($name:ident,)*) => {
        $(
            #[test]
            fn $name() {
                run_and_check(matrix::spec(stringify!($name)));
            }
        )*
        const TESTED_NAMES: &[&str] = &[$(stringify!($name)),*];
    };
}

adversarial_tests! {
    flap_line_cs,
    flap_line_nocs,
    partition_line_cs,
    partition_leafspine_cs,
    incast_line_10x,
    incast_line_100x_nocs,
    incast_memcache_25x,
    notif_drop_line,
    notif_dup_line,
    notif_reorder_line,
    cpcrash_line,
    cpcrash_line_cs,
    ptp_drift_line,
    ptp_step_line,
    ptp_asym_leafspine,
    twin_kill_line,
    chaos_cocktail_cs,
}

/// Every adversarial scenario has a per-scenario test and vice versa.
#[test]
fn covered_adversarial_scenarios() {
    let tested: std::collections::BTreeSet<&str> = TESTED_NAMES.iter().copied().collect();
    let in_matrix: std::collections::BTreeSet<&str> =
        matrix::ADVERSARIAL.iter().map(|&(n, _)| n).collect();
    assert_eq!(tested, in_matrix);
}

/// The tier's acceptance floor: ≥ 12 scenarios spanning link flaps,
/// partitions, incast (including one at 100×), every notification fault
/// kind, CP crash-recovery, and ≥ 3 PTP-degradation variants — with
/// distinct seeds, disjoint from the healthy matrix.
#[test]
fn adversarial_tier_meets_coverage_floor() {
    let scenarios: Vec<Scenario> = matrix::ADVERSARIAL.iter().map(|&(_, s)| sc(s)).collect();
    assert!(scenarios.len() >= 12, "only {} scenarios", scenarios.len());
    assert!(scenarios.iter().any(|s| !s.flaps.is_empty()));
    // A partition: an outage spanning several snapshot intervals.
    assert!(scenarios
        .iter()
        .any(|s| s.flaps.iter().any(|f| f.down_ms >= 2 * s.interval_ms)));
    assert!(scenarios.iter().any(|s| s.load >= 10));
    assert!(scenarios.iter().any(|s| s.load == 100));
    for kind in [
        conformance::NotifFaultKind::Drop,
        conformance::NotifFaultKind::Dup,
        conformance::NotifFaultKind::Reorder,
    ] {
        assert!(
            scenarios
                .iter()
                .any(|s| s.notif_faults.iter().any(|f| f.kind == kind)),
            "notif fault kind {kind:?} missing"
        );
    }
    assert!(scenarios.iter().any(|s| !s.cp_crashes.is_empty()));
    assert!(
        scenarios.iter().filter(|s| s.has_ptp_degradation()).count() >= 3,
        "need ≥ 3 PTP-degradation variants"
    );
    // Satellite: multiple kills in the same epoch.
    assert!(scenarios.iter().any(|s| s.faults.len() >= 2
        && s.faults
            .windows(2)
            .any(|w| w[0].after_snapshots == w[1].after_snapshots)));
    let mut seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
    seeds.extend(matrix::SCENARIOS.iter().map(|&(_, s)| sc(s).seed));
    let n = seeds.len();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), n, "duplicate seeds across matrices");
}

/// Two devices dying in the same epoch: the run force-finalizes, and every
/// forced snapshot past the kill point excludes *both* (regression for the
/// multi-fault `FaultSpec` schedule — `fault=1@3;fault=2@3`).
#[test]
fn twin_kill_same_epoch_forces_and_excludes_both() {
    let scenario = sc(matrix::spec("twin_kill_line"));
    let expect = expectations(&scenario);
    let (run, conservation) = run_fabric(&scenario);
    assert!(conservation.is_empty(), "{conservation:?}");
    assert!(check_run(&run, &expect).is_empty(), "oracle must pass");
    let forced: Vec<_> = run.snapshots.iter().filter(|e| e.forced).collect();
    assert!(!forced.is_empty(), "twin kill must force-finalize");
    for entry in &forced {
        if entry.snapshot.epoch >= 4 {
            for dev in [1u16, 2] {
                assert!(
                    entry.snapshot.excluded.contains(&dev),
                    "epoch {} forced without excluding device {dev}",
                    entry.snapshot.epoch
                );
            }
        }
    }
    // And the epochs completed before the kill were not forced.
    assert!(run
        .snapshots
        .iter()
        .any(|e| !e.forced && e.snapshot.epoch < 4));
}

/// The whole adversarial tier, serial vs parallel: byte-identical digests.
#[test]
fn adversarial_parallel_matches_serial() {
    let scenarios: Vec<Scenario> = matrix::ADVERSARIAL.iter().map(|&(_, s)| sc(s)).collect();
    let serial = parfan::with_jobs(1, || matrix_digest(&run_matrix(&scenarios)));
    let parallel = parfan::with_jobs(4, || matrix_digest(&run_matrix(&scenarios)));
    assert_eq!(
        serial, parallel,
        "parallel adversarial digest {parallel:#018x} != serial {serial:#018x}"
    );
}

/// A pinned-seed generated batch runs conformant, and its matrix digest is
/// identical at any parallelism (the CI `adversarial` job's contract).
#[test]
fn generated_batch_is_conformant_and_parallel_stable() {
    let batch = AdversarialGen::new(0xAD5EED).batch(32);
    let serial = parfan::with_jobs(1, || {
        let outcomes = run_matrix(&batch);
        for o in &outcomes {
            assert_conformant(o);
        }
        matrix_digest(&outcomes)
    });
    let parallel = parfan::with_jobs(2, || matrix_digest(&run_matrix(&batch)));
    assert_eq!(
        serial, parallel,
        "generated batch digest {parallel:#018x} != serial {serial:#018x}"
    );
}

// --- Mutation twins: each adversarial oracle rule must actually fail ---
// --- when the handling it checks is broken.                          ---

/// Rule: forcing is only legal when the fault schedule explains it.
/// Breaking the expectation (allow_forced = false) on a genuinely forced
/// run must produce `UnexpectedForce`.
#[test]
fn mutation_unexplained_force_is_detected() {
    let scenario = sc(matrix::spec("twin_kill_line"));
    let (run, _) = run_fabric(&scenario);
    let mut expect = expectations(&scenario);
    assert!(check_run(&run, &expect).is_empty());
    expect.allow_forced = false;
    let divergences = check_run(&run, &expect);
    assert!(
        divergences
            .iter()
            .any(|d| matches!(d, Divergence::UnexpectedForce { .. })),
        "disallowed force must be detected, got {divergences:?}"
    );
}

/// Rule: a killed device must be excluded from every forced snapshot past
/// its kill epoch. Erasing the exclusion must produce `MissingExclusion`.
#[test]
fn mutation_missing_exclusion_is_detected() {
    let scenario = sc(matrix::spec("twin_kill_line"));
    let expect = expectations(&scenario);
    let (run, _) = run_fabric(&scenario);
    assert!(check_run(&run, &expect).is_empty());
    let mut corrupted = run.clone();
    let entry = corrupted
        .snapshots
        .iter_mut()
        .find(|e| e.forced && e.snapshot.epoch >= 4)
        .expect("a forced post-kill snapshot exists");
    assert!(entry.snapshot.excluded.remove(&1));
    let divergences = check_run(&corrupted, &expect);
    assert!(
        divergences
            .iter()
            .any(|d| matches!(d, Divergence::MissingExclusion { device: 1, .. })),
        "missing exclusion must be detected, got {divergences:?}"
    );
}

/// Rule: under a strict schedule, forced snapshots may exclude only the
/// devices the fault class predicts. Injecting an unrelated exclusion
/// must produce `UnexpectedExclusion`.
#[test]
fn mutation_unexpected_exclusion_is_detected() {
    let scenario = sc(matrix::spec("twin_kill_line"));
    let expect = expectations(&scenario);
    assert!(expect.strict_exclusions, "twin_kill_line is a strict run");
    let (run, _) = run_fabric(&scenario);
    assert!(check_run(&run, &expect).is_empty());
    let mut corrupted = run.clone();
    let entry = corrupted
        .snapshots
        .iter_mut()
        .find(|e| e.forced)
        .expect("a forced snapshot exists");
    // Device 0 is neither killed nor in the may-exclude set.
    entry.snapshot.excluded.insert(0);
    let divergences = check_run(&corrupted, &expect);
    assert!(
        divergences
            .iter()
            .any(|d| matches!(d, Divergence::UnexpectedExclusion { device: 0, .. })),
        "unrelated exclusion must be detected, got {divergences:?}"
    );
}

/// Rule: notification duplication earns no slack — values stay exact.
/// Corrupting a reported value in the dup run must produce
/// `ValueMismatch`.
#[test]
fn mutation_corrupt_value_under_dup_fault_is_detected() {
    let scenario = sc(matrix::spec("notif_dup_line"));
    let expect = expectations(&scenario);
    assert!(!expect.allow_forced, "dup must not excuse forcing");
    let (run, _) = run_fabric(&scenario);
    assert!(check_run(&run, &expect).is_empty());
    let mut corrupted = run.clone();
    let entry = corrupted.snapshots.last_mut().expect("snapshots exist");
    let (&target, outcome) = entry
        .snapshot
        .units
        .iter_mut()
        .find(|(_, o)| matches!(o, UnitOutcome::Value { .. }))
        .expect("a Value outcome exists");
    let UnitOutcome::Value { local, .. } = outcome else {
        unreachable!()
    };
    *local += 1;
    let divergences = check_run(&corrupted, &expect);
    assert!(
        divergences.iter().any(|d| matches!(
            d,
            Divergence::ValueMismatch { unit, .. } if *unit == target
        )),
        "value corruption under dup fault must be detected, got {divergences:?}"
    );
}

/// Rule: cross-unit reorder is absorbed exactly, so a forced completion
/// in the reorder run is illegal. Flipping a snapshot's forced flag must
/// produce `UnexpectedForce`.
#[test]
fn mutation_forced_flag_under_reorder_is_detected() {
    let scenario = sc(matrix::spec("notif_reorder_line"));
    let expect = expectations(&scenario);
    assert!(!expect.allow_forced, "reorder must not excuse forcing");
    let (run, _) = run_fabric(&scenario);
    assert!(check_run(&run, &expect).is_empty());
    let mut corrupted = run.clone();
    corrupted
        .snapshots
        .first_mut()
        .expect("snapshots exist")
        .forced = true;
    let divergences = check_run(&corrupted, &expect);
    assert!(
        divergences
            .iter()
            .any(|d| matches!(d, Divergence::UnexpectedForce { .. })),
        "forced-flag corruption must be detected, got {divergences:?}"
    );
}

/// Rule: bounded PTP degradation earns no slack — values stay exact.
/// Corrupting a reported value in the drift run must produce
/// `ValueMismatch`.
#[test]
fn mutation_corrupt_value_under_ptp_drift_is_detected() {
    let scenario = sc(matrix::spec("ptp_drift_line"));
    let expect = expectations(&scenario);
    assert!(
        !expect.allow_forced,
        "bounded drift must not excuse forcing"
    );
    let (run, _) = run_fabric(&scenario);
    assert!(check_run(&run, &expect).is_empty());
    let mut corrupted = run.clone();
    let entry = corrupted.snapshots.first_mut().expect("snapshots exist");
    let (&target, outcome) = entry
        .snapshot
        .units
        .iter_mut()
        .find(|(_, o)| matches!(o, UnitOutcome::Value { .. }))
        .expect("a Value outcome exists");
    let UnitOutcome::Value { local, .. } = outcome else {
        unreachable!()
    };
    *local = local.wrapping_add(3);
    let divergences = check_run(&corrupted, &expect);
    assert!(
        divergences.iter().any(|d| matches!(
            d,
            Divergence::ValueMismatch { unit, .. } if *unit == target
        )),
        "value corruption under PTP drift must be detected, got {divergences:?}"
    );
}
