//! Scenario execution: the same [`Scenario`] runs on the deterministic
//! simulated fabric and (for line topologies) the threaded emulation, and
//! every substrate's output is audited by the oracle in [`crate::oracle`].

use crate::diff::Divergence;
use crate::oracle::{check_run, check_unit_sets, Expectations, SnapEntry, SubstrateRun};
use crate::scenario::switch_peer;
use crate::scenario::{Lb, NotifFaultKind as ScNotifKind, Scenario, Topo, WorkloadKind};
use emulation::cluster::{Cluster, ClusterConfig};
use experiments::common::{attach_workload_load, standard_testbed, Workload};
use fabric::network::{
    DriverConfig, NotifFaultConfig, NotifFaultKind as FabNotifKind, SnapshotRecord,
};
use fabric::switchmod::SnapshotConfig;
use fabric::testbed::{Testbed, TestbedConfig};
use fabric::topology::{LbKind, Topology};
use netsim::dist::Dist;
use netsim::rng::SeedEcho;
use netsim::time::{Duration, Instant};
use speedlight_core::observer::UnitOutcome;
use std::collections::{BTreeMap, BTreeSet};
use telemetry::MetricKind;
use timesync::PtpDegradation;
use workloads::PoissonSource;

/// Everything one scenario produced, across substrates, plus the oracle's
/// verdict.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The scenario that ran.
    pub scenario: Scenario,
    /// The deterministic fabric run.
    pub fabric: SubstrateRun,
    /// The threaded emulation run, when the scenario asked for one.
    pub emulation: Option<SubstrateRun>,
    /// Every divergence the oracle found (empty = conformant).
    pub divergences: Vec<Divergence>,
}

/// The oracle expectations a scenario implies — the invariant table of
/// DESIGN.md §12, in code.
///
/// * Device kills *require* excluding the dead device from every forced
///   epoch past its kill point (kill after `k` completed snapshots →
///   required from epoch `k + 1`).
/// * Transient faults (channel-state link flaps, notification drops, CP
///   crashes) *permit* forcing and permit excluding the affected devices,
///   but require neither: the fault may land between epochs and cost
///   nothing.
/// * Everything else (duplication, cross-unit reorder, incast load,
///   bounded PTP degradation) earns no slack at all — those runs are held
///   to the healthy contract.
pub fn expectations(sc: &Scenario) -> Expectations {
    let mut faulted: BTreeMap<u16, u64> = BTreeMap::new();
    for f in &sc.faults {
        let required_from = f.after_snapshots as u64 + 1;
        faulted
            .entry(f.device)
            .and_modify(|e| *e = (*e).min(required_from))
            .or_insert(required_from);
    }
    let mut may_exclude: BTreeSet<u16> = BTreeSet::new();
    let mut allow_forced = !faulted.is_empty();
    if sc.channel_state {
        // An outage stalls the channels crossing the dead link, which can
        // time both endpoints out; without channel state completion never
        // waits on a neighbor, so a flap costs nothing.
        for fl in &sc.flaps {
            allow_forced = true;
            may_exclude.insert(fl.device);
            if let Some((peer, _)) = switch_peer(sc.topo, fl.device, fl.port) {
                may_exclude.insert(peer);
            }
        }
    }
    for nf in &sc.notif_faults {
        // Dropped exports delay (cumulative) reports; dup and reorder are
        // absorbed by the CP's idempotent, forward-only tracking.
        if nf.kind == ScNotifKind::Drop {
            allow_forced = true;
            may_exclude.insert(nf.device);
        }
    }
    for cc in &sc.cp_crashes {
        allow_forced = true;
        may_exclude.insert(cc.device);
    }
    Expectations {
        channel_state: sc.channel_state,
        faulted,
        may_exclude,
        allow_forced,
        // A dead device starves its neighbors' channels in channel-state
        // mode, so exclusion can spread beyond the predicted set; every
        // other fault class has a bounded blast radius.
        strict_exclusions: !sc.channel_state || sc.faults.is_empty(),
    }
}

fn snapshot_config(sc: &Scenario) -> SnapshotConfig {
    SnapshotConfig {
        modulus: sc.modulus,
        channel_state: sc.channel_state,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    }
}

fn interval_nanos(sc: &Scenario) -> u64 {
    sc.interval_ms * 1_000_000
}

fn lb_and_driver(sc: &Scenario) -> (LbKind, DriverConfig) {
    let lb = match sc.lb {
        Lb::Ecmp => LbKind::Ecmp,
        Lb::Flowlet => LbKind::Flowlet { gap_us: 50 },
    };
    let mut driver = DriverConfig::default();
    if sc.force_inducing() {
        // Force-finalize quickly so faulted epochs complete inside the run.
        driver.device_timeout = Duration::from_millis(40);
    }
    (lb, driver)
}

fn leaf_spine_workload(sc: &Scenario) -> Workload {
    match sc.workload {
        WorkloadKind::Hadoop => Workload::Hadoop,
        WorkloadKind::GraphX => Workload::GraphX,
        WorkloadKind::Memcache => Workload::Memcache,
        WorkloadKind::Cbr => unreachable!("rejected by Scenario::validate"),
    }
}

/// The line topology's traffic: bidirectional so snapshot IDs piggyback
/// across every inter-switch link (mirrors the emulation's host
/// generators). `load` scales the paper-calibrated base rate into the
/// incast tier.
fn line_sources(sc: &Scenario) -> impl Iterator<Item = (u32, Box<PoissonSource>)> + '_ {
    [(0u32, 1u32), (1, 0)].into_iter().map(|(src, dst)| {
        let source = PoissonSource::new(
            src,
            vec![dst],
            80_000.0 * f64::from(sc.load),
            Dist::constant(400.0),
            sc.seed ^ (0x5EED * u64::from(src + 1)),
        );
        (src, Box::new(source))
    })
}

/// Translate the scenario's snapshot and fault schedule onto a testbed and
/// run it to its horizon. The one copy both engines replay: a macro because
/// `Testbed` and `ShardedTestbed` spell these methods the same but share
/// no trait, and a drift between two copies would make the
/// shard-equivalence suite test a different scenario from the one the
/// oracle judges.
macro_rules! schedule_and_run {
    ($tb:expr, $sc:expr) => {{
        let (tb, sc) = (&mut $tb, $sc);
        let ival = interval_nanos(sc);
        for i in 0..sc.snapshots {
            tb.snapshot_at(Instant::from_nanos(ival * (i as u64 + 1)));
        }
        // The whole fault schedule goes through simulation events, so a
        // parallel matrix run replays it identically (nothing depends on
        // when the host thread happens to observe the run).
        for f in &sc.faults {
            // Disable half an interval before the (k+1)-th snapshot is
            // scheduled.
            let at = ival * (f.after_snapshots as u64) + ival / 2;
            tb.fail_device_at(Instant::from_nanos(at), f.device);
        }
        for f in &sc.flaps {
            tb.flap_link_at(
                Instant::from_nanos(f.at_ms * 1_000_000),
                f.device,
                f.port,
                Duration::from_millis(f.down_ms),
            );
        }
        for f in &sc.cp_crashes {
            tb.crash_cp_at(
                Instant::from_nanos(f.at_ms * 1_000_000),
                f.device,
                Duration::from_millis(f.down_ms),
            );
        }
        for f in &sc.notif_faults {
            tb.set_notif_fault(
                f.device,
                NotifFaultConfig {
                    kind: match f.kind {
                        ScNotifKind::Drop => FabNotifKind::Drop,
                        ScNotifKind::Dup => FabNotifKind::Dup,
                        ScNotifKind::Reorder => FabNotifKind::Reorder,
                    },
                    every: f.every,
                },
            );
        }
        if sc.has_ptp_degradation() {
            let (step_ns, step_device, step_at_ns) = match sc.ptp_step {
                Some(s) => (s.step_us * 1_000, s.device, s.at_ms * 1_000_000),
                None => (0, 0, 0),
            };
            tb.set_ptp_degradation(PtpDegradation {
                drift_ppb: sc.ptp_drift_ppb,
                step_ns,
                step_device,
                step_at_ns,
                asym_ns: sc.ptp_asym_us * 1_000,
            });
        }
        let tail = if sc.force_inducing() {
            200_000_000
        } else {
            100_000_000
        };
        tb.run_until(Instant::from_nanos(ival * sc.snapshots as u64 + tail));
    }};
}

fn snap_entries(records: &[SnapshotRecord]) -> Vec<SnapEntry> {
    records
        .iter()
        .map(|r| SnapEntry {
            snapshot: r.snapshot.clone(),
            forced: r.forced,
        })
        .collect()
}

/// Run the scenario on the simulated fabric. Returns the substrate run
/// plus any flow-conservation violations from the omniscient audit (which
/// only the fabric can provide: it sees headerless host packets the
/// delivery log does not carry).
pub fn run_fabric(sc: &Scenario) -> (SubstrateRun, Vec<Divergence>) {
    let (run, divergences, _) = run_fabric_inner(sc, false);
    (run, divergences)
}

/// [`run_fabric`] with the snapshot-lifecycle trace captured as JSONL
/// lines (deterministic sim-time stamps, so golden-file comparable).
pub fn run_fabric_traced(sc: &Scenario) -> (SubstrateRun, Vec<Divergence>, Vec<String>) {
    run_fabric_inner(sc, true)
}

fn run_fabric_inner(sc: &Scenario, trace: bool) -> (SubstrateRun, Vec<Divergence>, Vec<String>) {
    let (lb, driver) = lb_and_driver(sc);
    let mut tb = match sc.topo {
        Topo::LeafSpine => {
            let mut tb = standard_testbed(snapshot_config(sc), lb, driver, sc.seed);
            attach_workload_load(&mut tb, leaf_spine_workload(sc), sc.seed, sc.load);
            tb
        }
        Topo::Line(n) => {
            let mut cfg = TestbedConfig::new(snapshot_config(sc));
            cfg.lb = lb;
            cfg.driver = driver;
            cfg.seed = sc.seed;
            let mut tb = Testbed::new(Topology::line(n), cfg);
            for (h, source) in line_sources(sc) {
                tb.set_source(h, Instant::ZERO, source);
            }
            tb
        }
    };
    tb.enable_delivery_log();
    tb.network_mut().enable_audit();
    if trace {
        tb.enable_trace();
    }

    schedule_and_run!(tb, sc);

    let snapshots = snap_entries(tb.snapshots());
    let log = tb
        .delivery_log()
        .expect("delivery log enabled above")
        .to_vec();

    let audit = tb.network().instr.audit.as_ref().expect("audit enabled");
    let mut reports = Vec::new();
    for entry in &snapshots {
        for (&uid, outcome) in &entry.snapshot.units {
            if let UnitOutcome::Value { local, channel } = *outcome {
                reports.push((
                    uid,
                    entry.snapshot.epoch,
                    local,
                    sc.channel_state.then_some(channel),
                ));
            }
        }
    }
    let conservation: Vec<Divergence> = audit
        .audit(reports)
        .into_iter()
        .map(|violation| Divergence::Conservation {
            substrate: "fabric",
            violation,
        })
        .collect();

    (
        SubstrateRun {
            substrate: "fabric",
            snapshots,
            log,
        },
        conservation,
        tb.take_trace_lines(),
    )
}

/// Run the scenario on the sharded fabric engine with `shards` shards,
/// returning the substrate run plus the golden trace lines. Mirrors
/// [`run_fabric`] minus the omniscient conservation audit (the audit is a
/// serial-engine instrument; the oracle's other checks still apply), so
/// the output is directly digest-comparable across shard counts — the
/// sharded engine's contract is byte-identical artifacts at any shard
/// count.
pub fn run_fabric_sharded(sc: &Scenario, shards: usize) -> (SubstrateRun, Vec<String>) {
    let (run, trace, _, _) = run_fabric_sharded_full(sc, shards);
    (run, trace)
}

/// [`run_fabric_sharded`] plus the merged metrics JSON and the
/// deterministic `speedlight-profile/v1` artifact — the full set of
/// byte-comparable sharded outputs. Every element is shard-count- and
/// jobs-invariant; the CI `profile-equivalence` job rides on the last
/// two.
pub fn run_fabric_sharded_full(
    sc: &Scenario,
    shards: usize,
) -> (SubstrateRun, Vec<String>, String, String) {
    use experiments::common::{testbed_topology, workload_sources};
    use fabric::shard::{PartitionHint, ShardedTestbed};

    let (lb, driver) = lb_and_driver(sc);
    let (topo, hint) = match sc.topo {
        Topo::LeafSpine => (testbed_topology(), PartitionHint::LeafSpine { leaves: 2 }),
        Topo::Line(n) => (Topology::line(n), PartitionHint::Generic),
    };
    let mut cfg = TestbedConfig::new(snapshot_config(sc));
    cfg.lb = lb;
    cfg.driver = driver;
    cfg.seed = sc.seed;
    let mut tb = ShardedTestbed::new(topo, cfg, hint, shards);
    match sc.topo {
        Topo::LeafSpine => {
            for (h, source) in workload_sources(leaf_spine_workload(sc), sc.seed, sc.load) {
                tb.set_source(h, Instant::ZERO, source);
            }
        }
        Topo::Line(_) => {
            for (h, source) in line_sources(sc) {
                tb.set_source(h, Instant::ZERO, source);
            }
        }
    }
    tb.enable_delivery_log();
    tb.enable_trace();
    tb.enable_profiling();

    schedule_and_run!(tb, sc);

    let snapshots = snap_entries(tb.snapshots());
    let log = tb.delivery_log().expect("delivery log enabled above");
    let trace = tb.take_trace_lines();
    let metrics = tb.export_metrics();
    let profile = tb.take_profile().to_json();
    (
        SubstrateRun {
            substrate: "fabric-sharded",
            snapshots,
            log,
        },
        trace,
        metrics,
        profile,
    )
}

/// Digest of a sharded run's full artifact set (snapshots, delivery log,
/// golden trace) — the byte-equality currency of the CI
/// `shard-equivalence` job.
pub fn sharded_digest(run: &SubstrateRun, trace: &[String]) -> u64 {
    let mut h = parfan::digest::Fnv64::new();
    h.update(format!("{run:?}").as_bytes());
    for line in trace {
        h.update(line.as_bytes());
        h.update(b"\n");
    }
    h.finish()
}

/// Run the scenario on the threaded emulation cluster (line topologies
/// only; wall-clock time).
pub fn run_emulation(sc: &Scenario) -> SubstrateRun {
    let Topo::Line(n) = sc.topo else {
        unreachable!("rejected by Scenario::validate");
    };
    let report = Cluster::new(ClusterConfig {
        switches: n,
        modulus: sc.modulus,
        channel_state: sc.channel_state,
        snapshots: sc.snapshots,
        // Wall-clock interval: never tighter than the OS scheduler can
        // reliably hit.
        interval: std::time::Duration::from_millis(sc.interval_ms.max(8)),
        host_rate: 20_000,
        // A faulted run waits out the whole timeout once per dead epoch;
        // keep that bounded while staying generous for healthy runs.
        timeout: std::time::Duration::from_millis(if sc.faults.is_empty() { 1_000 } else { 300 }),
        record_deliveries: true,
        fail_devices: sc
            .faults
            .iter()
            .map(|f| (f.device, f.after_snapshots))
            .collect(),
    })
    .run();
    let snapshots = report
        .snapshots
        .iter()
        .map(|s| SnapEntry {
            snapshot: s.clone(),
            forced: report.forced_epochs.contains(&s.epoch),
        })
        .collect();
    let log = report.delivery_logs.into_values().flatten().collect();
    SubstrateRun {
        substrate: "emulation",
        snapshots,
        log,
    }
}

/// Run `sc` on every substrate it selects and collect the oracle verdict.
pub fn run_scenario(sc: &Scenario) -> ScenarioOutcome {
    sc.validate().expect("scenario must be valid");
    // Echo the master seed if anything below panics (satellite of the
    // seed-on-failure policy; the fabric testbed echoes its own too).
    let _seed_echo = SeedEcho::new("conformance::runner", sc.seed);

    let expect = expectations(sc);
    let (fabric, mut divergences) = run_fabric(sc);
    divergences.extend(check_run(&fabric, &expect));

    let emulation = sc.emulate.then(|| run_emulation(sc));
    if let Some(emu) = &emulation {
        divergences.extend(check_run(emu, &expect));
        divergences.extend(check_unit_sets("fabric-vs-emulation", &fabric, emu));
    }

    ScenarioOutcome {
        scenario: sc.clone(),
        fabric,
        emulation,
        divergences,
    }
}

/// Run every scenario in the matrix, fanning out across cores. Scenarios
/// are independent seeded runs, so the outcome vector is identical (in
/// order and content) at any worker count; each job's label carries
/// the full spec string, so a panicking scenario is reproducible from the
/// failure message alone.
pub fn run_matrix(scenarios: &[Scenario]) -> Vec<ScenarioOutcome> {
    parfan::map_labeled(
        scenarios,
        |_, sc| format!("scenario `{}`", sc.spec()),
        |_, sc| run_scenario(sc),
    )
}

/// Digest of the deterministic arm of one outcome: the spec, the full
/// fabric run (every snapshot, outcome, and delivery-log entry via its
/// `Debug` rendering), and the divergence list. The emulation arm is
/// deliberately excluded — it is a wall-clock substrate and not
/// byte-reproducible, which is exactly why the oracle (not a digest)
/// checks it.
pub fn fabric_digest(outcome: &ScenarioOutcome) -> u64 {
    let mut h = parfan::digest::Fnv64::new();
    h.update(outcome.scenario.spec().as_bytes());
    h.update(format!("{:?}", outcome.fabric).as_bytes());
    // Emulation-derived divergences never appear here for a conformant
    // matrix (the list is empty); for a diverging one the fabric-side
    // entries still make serial and parallel runs comparable.
    for d in outcome
        .divergences
        .iter()
        .filter(|d| !format!("{d:?}").contains("emulation"))
    {
        h.update(format!("{d:?}").as_bytes());
    }
    h.finish()
}

/// Order-sensitive digest of a whole matrix run's deterministic arms.
pub fn matrix_digest(outcomes: &[ScenarioOutcome]) -> u64 {
    let mut h = parfan::digest::Fnv64::new();
    for o in outcomes {
        h.write_u64(fabric_digest(o));
    }
    h.finish()
}
