//! The seeded conformance matrix.
//!
//! Every test runs one [`Scenario`] through `run_scenario` — the
//! deterministic fabric always, the threaded emulation when `emu=1` — and
//! asserts the oracle found no divergence. On failure a replayable
//! artifact is dumped and the panic message carries the one-command
//! reproduction line.

use conformance::artifact::REPLAY_ENV;
use conformance::oracle::check_run;
use conformance::runner::{expectations, run_fabric};
use conformance::{
    assert_conformant, matrix, matrix_digest, run_matrix, run_scenario, Divergence, Lb, Scenario,
    WorkloadKind,
};
use speedlight_core::observer::UnitOutcome;

fn sc(spec: &str) -> Scenario {
    Scenario::from_spec(spec).expect("matrix spec must parse")
}

fn run_and_check(spec: &str) {
    let scenario = sc(spec);
    let outcome = run_scenario(&scenario);
    assert_conformant(&outcome);
    assert_eq!(
        outcome.fabric.snapshots.len(),
        scenario.snapshots,
        "fabric must complete every scheduled snapshot for `{spec}`"
    );
    assert!(
        !outcome.fabric.log.is_empty(),
        "fabric delivery log empty for `{spec}`"
    );
    if let Some(emu) = &outcome.emulation {
        // Wall-clock substrate: the observer may skip a schedule slot
        // under the no-lapping cap, but never more than one.
        assert!(
            emu.snapshots.len() + 1 >= scenario.snapshots,
            "emulation completed only {} of {} snapshots for `{spec}`",
            emu.snapshots.len(),
            scenario.snapshots
        );
        assert!(
            !emu.log.is_empty(),
            "emulation delivery log empty for `{spec}`"
        );
    }
}

// One test per scenario; specs live in `conformance::matrix::SCENARIOS`
// (the single source of truth, shared with the parallel whole-matrix
// runner). `covered_scenarios` below proves this list matches the matrix.
macro_rules! scenario_tests {
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

scenario_tests! {
    hadoop_ecmp_nocs,
    hadoop_ecmp_cs,
    hadoop_flowlet_nocs,
    hadoop_flowlet_cs,
    graphx_ecmp_nocs,
    graphx_ecmp_cs,
    graphx_flowlet_nocs,
    graphx_flowlet_cs,
    memcache_ecmp_nocs,
    memcache_ecmp_cs,
    memcache_flowlet_nocs,
    memcache_flowlet_cs,
    line_wrap_mod4_nocs,
    line_wrap_mod4_cs,
    line_wrap_mod8_nocs,
    line_wrap_mod8_cs,
    fault_leafspine_cs,
    fault_line_nocs_strict,
    fault_leafspine_nocs_strict,
    emu_line3,
    emu_line2_wrap,
    emu_line4,
    emu_line3_fault,
}

/// Every matrix scenario has a per-scenario test and vice versa — a
/// scenario added to one list but not the other is a hard failure, not a
/// silent coverage gap.
#[test]
fn covered_scenarios() {
    let tested: std::collections::BTreeSet<&str> = TESTED_NAMES.iter().copied().collect();
    let in_matrix: std::collections::BTreeSet<&str> =
        matrix::SCENARIOS.iter().map(|&(n, _)| n).collect();
    assert_eq!(tested, in_matrix);
}

/// The acceptance floor for the matrix itself: ≥ 20 scenarios spanning
/// every workload, both load balancers, both snapshot variants, at least
/// one fault schedule, and at least one emulation arm.
#[test]
fn matrix_meets_coverage_floor() {
    let scenarios: Vec<Scenario> = matrix::SCENARIOS.iter().map(|&(_, s)| sc(s)).collect();
    assert!(scenarios.len() >= 20, "only {} scenarios", scenarios.len());
    for wl in [
        WorkloadKind::Hadoop,
        WorkloadKind::GraphX,
        WorkloadKind::Memcache,
        WorkloadKind::Cbr,
    ] {
        assert!(
            scenarios.iter().any(|s| s.workload == wl),
            "workload {wl:?} missing from the matrix"
        );
    }
    for lb in [Lb::Ecmp, Lb::Flowlet] {
        assert!(scenarios.iter().any(|s| s.lb == lb), "{lb:?} missing");
    }
    for cs in [false, true] {
        assert!(scenarios.iter().any(|s| s.channel_state == cs));
    }
    assert!(scenarios.iter().any(|s| !s.faults.is_empty()));
    assert!(scenarios.iter().any(|s| s.emulate));
    // Seeds are distinct: no scenario accidentally re-runs another.
    let mut seeds: Vec<u64> = scenarios.iter().map(|s| s.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    assert_eq!(seeds.len(), scenarios.len(), "duplicate seeds in matrix");
}

/// Mutation sensitivity: corrupting a single unit's reported local value
/// in an otherwise-conformant run must be flagged, naming that unit.
#[test]
fn mutation_corrupt_local_value_is_detected() {
    let scenario = sc("topo=line:3;wl=cbr;cs=0;mod=16;snaps=6;ival=5;seed=0x7001");
    let expect = expectations(&scenario);
    let (run, conservation) = run_fabric(&scenario);
    assert!(conservation.is_empty(), "{conservation:?}");
    assert!(check_run(&run, &expect).is_empty(), "clean run must pass");

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
        "single-unit corruption must be detected, got {divergences:?}"
    );
}

/// Mutation sensitivity for the channel-state variant: corrupting one
/// unit's reported *channel* state must be flagged.
#[test]
fn mutation_corrupt_channel_state_is_detected() {
    let scenario = sc("topo=line:3;wl=cbr;cs=1;mod=16;snaps=6;ival=5;seed=0x7002");
    let expect = expectations(&scenario);
    let (run, conservation) = run_fabric(&scenario);
    assert!(conservation.is_empty(), "{conservation:?}");
    assert!(check_run(&run, &expect).is_empty(), "clean run must pass");

    let mut corrupted = run.clone();
    let entry = corrupted.snapshots.first_mut().expect("snapshots exist");
    let (&target, outcome) = entry
        .snapshot
        .units
        .iter_mut()
        .find(|(_, o)| matches!(o, UnitOutcome::Value { .. }))
        .expect("a Value outcome exists");
    let UnitOutcome::Value { channel, .. } = outcome else {
        unreachable!()
    };
    *channel += 7;

    let divergences = check_run(&corrupted, &expect);
    assert!(
        divergences.iter().any(|d| matches!(
            d,
            Divergence::ChannelMismatch { unit, .. } if *unit == target
        )),
        "channel-state corruption must be detected, got {divergences:?}"
    );
}

/// Replay hook: when `SPEEDLIGHT_SCENARIO` holds a spec string (as every
/// failure artifact prescribes), re-execute exactly that scenario. A
/// no-op otherwise, so the test is always safe to run.
#[test]
fn replay_from_env() {
    let Ok(spec) = std::env::var(REPLAY_ENV) else {
        return;
    };
    obs::sinks::stderr_line(&format!(
        "[conformance] replaying scenario from {REPLAY_ENV}: {spec}"
    ));
    run_and_check(&spec);
}

/// The tentpole acceptance bar: the whole matrix run through the parallel
/// fan-out produces byte-identical deterministic results to a serial run.
/// The emulation arms are forced off here — they are wall-clock substrates
/// and excluded from the digest by design (see `fabric_digest`); the next
/// test exercises them in parallel separately.
///
/// The digest is pinned to the value the monolithic reference `Observer`
/// also produced over this matrix when the fabric could still run under
/// it (CHANGES.md, ISSUE 12), so a change to what the fabric's observer
/// emits fails here.
#[test]
fn matrix_parallel_matches_serial() {
    const MATRIX_DIGEST: u64 = 0xfae5_95f6_7657_e89b;
    let scenarios: Vec<Scenario> = matrix::SCENARIOS
        .iter()
        .map(|&(_, s)| {
            let mut s = sc(s);
            s.emulate = false;
            s
        })
        .collect();
    let serial = parfan::with_jobs(1, || matrix_digest(&run_matrix(&scenarios)));
    let parallel = parfan::with_jobs(4, || matrix_digest(&run_matrix(&scenarios)));
    assert_eq!(
        serial, parallel,
        "parallel matrix digest {parallel:#018x} != serial {serial:#018x}"
    );
    assert_eq!(
        serial, MATRIX_DIGEST,
        "matrix digest {serial:#018x} != pinned {MATRIX_DIGEST:#018x}"
    );
}

/// Misattribution regression at the conformance layer: a report whose
/// unit claims a different device than the one delivering it must be
/// rejected — identically — by both observer implementations, and the
/// rejection must be traced. Before the fix the reference observer
/// credited the spoofed value to the victim unit.
#[test]
fn misattributed_report_rejected_by_both_observers() {
    use speedlight_core::control::{Report, ReportValue};
    use speedlight_core::observer::{Observer, ObserverConfig};
    use speedlight_core::pipeline::{PipelineConfig, PipelineObserver};
    use speedlight_core::types::UnitId;

    let report = |unit: UnitId, epoch, local| Report {
        unit,
        epoch,
        value: ReportValue::Value { local, channel: 0 },
    };
    let units = |device| vec![UnitId::ingress(device, 0)];

    let mut reference = Observer::new(ObserverConfig::for_modulus(16));
    let mut pipeline = PipelineObserver::new(PipelineConfig::for_modulus(16));
    for obs in [0u16, 1] {
        reference.register_device(obs, units(obs));
        pipeline.register_device(obs, units(obs));
    }

    let epoch = reference.begin_snapshot().expect("reference initiates");
    assert_eq!(pipeline.begin_snapshot(), Some(epoch));

    // Device 0 delivers a report for device 1's unit: both reject it.
    let spoofed = report(UnitId::ingress(1, 0), epoch, 99);
    let mut ring = obs::sinks::RingSink::new(8);
    assert!(reference
        .on_report_traced(0, spoofed, &mut ring, 0)
        .is_none());
    assert!(pipeline
        .on_report_traced(0, spoofed, &mut ring, 0)
        .is_none());
    assert_eq!(reference.misattributed_count(), 1);
    assert_eq!(pipeline.misattributed_count(), 1);
    let traced = ring
        .events()
        .filter(|e| e.name == "report.misattributed")
        .count();
    assert_eq!(traced, 2, "both rejections must be traced");

    // Genuine reports (device 0's unit, then device 1's own) still
    // complete the epoch — with the real value, not the spoofed 99.
    assert!(reference
        .on_report(0, report(UnitId::ingress(0, 0), epoch, 7))
        .is_none());
    assert!(pipeline
        .on_report(0, report(UnitId::ingress(0, 0), epoch, 7))
        .is_none());
    let snap_ref = reference
        .on_report(1, report(UnitId::ingress(1, 0), epoch, 12))
        .expect("reference completes");
    let snap_pipe = pipeline
        .on_report(1, report(UnitId::ingress(1, 0), epoch, 12))
        .expect("pipeline completes");
    assert_eq!(snap_ref, snap_pipe);
    assert_eq!(
        snap_ref.units[&UnitId::ingress(1, 0)],
        speedlight_core::observer::UnitOutcome::Value {
            local: 12,
            channel: 0
        }
    );
}

/// The emulation-bearing scenarios still pass the oracle when their
/// (thread-spawning, wall-clock) runs are themselves co-scheduled by the
/// parallel fan-out.
#[test]
fn matrix_parallel_runs_emulation_arms() {
    let scenarios: Vec<Scenario> = matrix::SCENARIOS
        .iter()
        .map(|&(_, s)| sc(s))
        .filter(|s| s.emulate)
        .collect();
    assert!(scenarios.len() >= 3, "emulation arms missing from matrix");
    let outcomes = parfan::with_jobs(2, || run_matrix(&scenarios));
    for o in &outcomes {
        assert_conformant(o);
        assert!(o.emulation.is_some(), "emulation arm did not run");
    }
}
