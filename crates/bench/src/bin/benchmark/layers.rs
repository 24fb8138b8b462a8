//! The layer ledger: one separate pass per workload (`--trace 1`), never
//! mixed into the end-to-end numbers. It combines (a) the traced driver's
//! spans, (b) isolated replays shaped by the traced run's counts and
//! (c) counters the crates already export, and says what share of the
//! untraced run each layer's cost accounts for.

use crate::des::{self, DesOutcome, DesSpec, TrialOpts};
use crate::observer1m;
use crate::ratesearch;
use crate::replay::{self, Timeline};
use crate::spec::{Kind, Workload, LEDGER};
use crate::stats;
use crate::traced::{self, TracedRun, KINDS};
use crate::{peak_rss_bytes, Trial};
use fabric::topology::Topology;
use netsim::time::Duration;
use std::collections::BTreeMap;

pub struct Ledger {
    /// Every [`LEDGER`] name, 0 where the workload has no such layer.
    pub values: BTreeMap<&'static str, f64>,
    /// The untraced reference trial the shares are taken against.
    pub reference: Trial,
    /// `(layer, ns per op, ops in the run)`: the rows that explain wall time.
    pub shares: Vec<(&'static str, f64, u64)>,
    pub spans: Vec<traced::Span>,
    pub problems: Vec<String>,
}

impl Ledger {
    fn new(reference: Trial) -> Ledger {
        Ledger {
            values: LEDGER.iter().map(|&(name, _)| (name, 0.0)).collect(),
            reference,
            shares: Vec::new(),
            spans: Vec::new(),
            problems: Vec::new(),
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        let Some(slot) = self.values.get_mut(name) else {
            panic!("{name} is not in the ledger");
        };
        *slot = value;
    }

    /// Record a per-op cost and the number of such ops in the run.
    fn cost(&mut self, name: &'static str, ns_per_op: f64, ops: u64) {
        self.set(name, ns_per_op);
        self.shares.push((name, ns_per_op, ops));
    }

    /// Σ(ns/op × ops) over the recorded rows, as a share of the run.
    fn explained_share(&self) -> f64 {
        let ns: f64 = self
            .shares
            .iter()
            .map(|&(_, ns, ops)| ns * ops as f64)
            .sum();
        ns / 1e9 / self.reference.wall_s
    }

    /// The ledger as text: each cost row with the share of the reference
    /// run's wall time it accounts for.
    pub fn render_shares(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for &(name, ns, ops) in &self.shares {
            let share = ns * ops as f64 / 1e9 / self.reference.wall_s;
            let _ = writeln!(
                out,
                "#   {name:<44} {ns:>9.2} ns x {ops:>10} = {:>5.1} % of wall_s",
                share * 100.0
            );
        }
        out
    }
}

pub fn run(w: &Workload, seed: u64) -> Ledger {
    match w.kind {
        Kind::Des(spec) if spec.shards <= 1 => serial_des(&spec, seed),
        Kind::Des(spec) => sharded_des(&spec, seed),
        Kind::Observer => observer(seed),
        Kind::RateSearch => rate_search(seed),
    }
}

fn des_reference(spec: &DesSpec, seed: u64) -> (Trial, DesOutcome) {
    des::run_trial(spec, seed, TrialOpts::default()); // warm-up
    let t = des::run_trial(spec, seed, TrialOpts::default());
    (Trial::from_des(&t), t.out)
}

fn sim_rows(l: &mut Ledger) {
    let r = l.reference.clone();
    l.set("sim.events", r.work as f64);
    for (name, value) in &r.sim {
        l.set(&format!("sim.{name}"), *value);
    }
}

/// Rows shared by every workload that moves packets through switches.
fn packet_path_replays(l: &mut Ledger, out: &DesOutcome) {
    let (current, in_flight, advance) = replay::unit_cases();
    l.cost("core.unit.ns_per_packet.current", current, out.unit_cases.0);
    l.cost(
        "core.unit.ns_per_packet.in_flight",
        in_flight,
        out.unit_cases.1,
    );
    l.cost("core.unit.ns_per_packet.advance", advance, out.unit_cases.2);
    let unit_calls = out.unit_cases.0 + out.unit_cases.1 + out.unit_cases.2;
    l.cost(
        "telemetry.metric_bank.ns_per_packet",
        replay::metric_bank_step(),
        unit_calls,
    );
    l.cost(
        "workloads.poisson.ns_per_packet",
        replay::poisson_step(),
        out.host_sent,
    );
    control_rows(l, out);
}

fn control_rows(l: &mut Ledger, out: &DesOutcome) {
    let notifications = out.metrics.counter("cp.notifications");
    let (advance, duplicate) = replay::control_cases();
    l.cost(
        "core.control.ns_per_notification.advance",
        advance,
        notifications,
    );
    l.set("core.control.ns_per_notification.duplicate", duplicate);
    l.set("core.control.notifications", notifications as f64);
    l.set(
        "core.control.queue_depth_max",
        out.metrics.gauge("cp.queue_depth_max").unwrap_or(0) as f64,
    );
    l.set(
        "core.control.notify_drops",
        out.metrics.gauge("switch.notify_drops").unwrap_or(0) as f64,
    );
}

/// Rows the traced driver supplies: queue and dispatch busy time, the
/// per-kind dispatch cost, and the tracing overhead itself.
fn traced_rows(l: &mut Ledger, t: &TracedRun) {
    l.set("netsim.queue.busy_s", (t.pop.ns + t.push.ns) as f64 / 1e9);
    l.set("fabric.network.busy_s", t.handle_busy_s());
    for (kind, busy) in KINDS.iter().zip(&t.handle) {
        l.set(
            &format!("fabric.network.ns_per_event.{kind}"),
            busy.ns_per_op(),
        );
    }
    l.set(
        "bench.trace.overhead_share",
        (t.wall_s - l.reference.wall_s) / l.reference.wall_s,
    );
    l.set("bench.trace.spans", t.spans.len() as f64);
}

fn median_depth(t: &TracedRun) -> usize {
    if t.depths.is_empty() {
        1
    } else {
        stats::percentile(&t.depths, 0.5) as usize
    }
}

fn serial_des(spec: &DesSpec, seed: u64) -> Ledger {
    let (reference, out) = des_reference(spec, seed);
    let rss = peak_rss_bytes();
    let mut l = Ledger::new(reference);
    sim_rows(&mut l);
    l.set(
        "fabric.testbed.bytes_per_device",
        rss as f64 / out.devices as f64,
    );
    l.set(
        "fabric.network.events_per_host_packet",
        out.events as f64 / out.host_sent.max(1) as f64,
    );

    let traced = traced::run_des(spec, seed);
    if (traced.out.digest, traced.out.events) != (out.digest, out.events) {
        l.problems.push(format!(
            "traced driver diverged: digest {:016x} events {} vs untraced {:016x} {}",
            traced.out.digest, traced.out.events, out.digest, out.events
        ));
    }
    traced_rows(&mut l, &traced);

    let no_snapshots = des::run_trial(
        spec,
        seed,
        TrialOpts {
            snapshots: false,
            ..TrialOpts::default()
        },
    );
    l.set(
        "fabric.network.snapshot_overhead_share",
        (l.reference.wall_s - no_snapshots.wall_s) / l.reference.wall_s,
    );
    let obs_traced = des::run_trial(
        spec,
        seed,
        TrialOpts {
            obs_trace: true,
            ..TrialOpts::default()
        },
    );
    if obs_traced.out.digest != out.digest {
        l.problems
            .push("the obs trace sink changed the digest".to_string());
    }
    let extra_s = obs_traced.wall_s - l.reference.wall_s;
    l.set("obs.trace.overhead_share", extra_s / l.reference.wall_s);
    l.set("obs.trace.ns_per_event", extra_s * 1e9 / out.events as f64);

    let dense = replay::event_queue_hold(median_depth(&traced), Timeline::Dense);
    l.cost("netsim.queue.dense_ns_per_op", dense, out.events);
    l.cost(
        "netsim.sim.ns_per_event",
        replay::simulation_loop(),
        out.events,
    );
    packet_path_replays(&mut l, &out);
    let explained = l.explained_share();
    l.set("bench.layers.explained_share", explained);
    l.spans = traced.spans;
    l
}

fn sharded_des(spec: &DesSpec, seed: u64) -> Ledger {
    let (reference, out) = des_reference(spec, seed);
    let mut l = Ledger::new(reference);
    sim_rows(&mut l);
    l.set(
        "fabric.network.events_per_host_packet",
        out.events as f64 / out.host_sent.max(1) as f64,
    );
    let (windows, messages) = out.shard_stats.unwrap_or((0, 0));
    l.set("netsim.shard.windows", windows as f64);
    l.set("netsim.shard.messages", messages as f64);

    // The run is timed whole (above); the deterministic profile says how
    // much of each window a domain sat idle, in simulated time.
    let profiled = des::run_trial(
        spec,
        seed,
        TrialOpts {
            profile: true,
            ..TrialOpts::default()
        },
    );
    if profiled.out.digest != out.digest {
        l.problems
            .push("the profiler changed the digest".to_string());
    }
    if let Some(p) = &profiled.out.profile {
        let stall: u64 = p.domains.iter().map(|d| d.stall_ns).sum();
        let slots = p.windows.max(1) * p.domains.len().max(1) as u64;
        l.set(
            "netsim.shard.stall_sim_ns_per_window",
            stall as f64 / slots as f64,
        );
    }

    let depth = (out.pending / spec.shards as u64) as usize;
    l.cost(
        "netsim.keyed_queue.ns_per_op",
        replay::keyed_queue_hold(depth),
        out.events,
    );
    let costs = replay::shard_windows();
    l.cost("netsim.shard.ns_per_window", costs.ns_per_window, windows);
    l.cost("netsim.shard.ns_per_msg", costs.ns_per_msg, messages);
    l.set(
        "netsim.shard.threaded_ns_per_window",
        costs.threaded_ns_per_window,
    );
    packet_path_replays(&mut l, &out);
    let explained = l.explained_share();
    l.set("bench.layers.explained_share", explained);
    l
}

fn observer(seed: u64) -> Ledger {
    observer1m::run_trial(seed, false); // warm-up
    let plain = observer1m::run_trial(seed, false);
    let mut l = Ledger::new(Trial::from_observer(&plain));
    sim_rows(&mut l);
    let traced = observer1m::run_trial(seed, true);
    if traced.digest != plain.digest {
        l.problems
            .push("the stage spans changed the digest".to_string());
    }
    let Some(busy) = traced.busy else {
        unreachable!("a traced trial records stage spans");
    };
    l.set("core.pipeline.stage_busy_s.collect", busy.collect_s);
    l.set("core.pipeline.stage_busy_s.validate", busy.validate_s);
    l.set("core.pipeline.stage_busy_s.assemble", busy.assemble_s);
    l.set("core.pipeline.stage_busy_s.finalize", busy.finalize_s);
    let staged =
        busy.collect_s + busy.validate_s + busy.assemble_s + busy.finalize_s + busy.persist_s;
    l.cost(
        "core.pipeline.ns_per_report",
        staged * 1e9 / traced.offered as f64,
        traced.offered,
    );
    let s = &plain.stats;
    l.set(
        "core.pipeline.accepted_per_offered",
        s.accepted as f64 / s.offered.max(1) as f64,
    );
    l.set(
        "core.pipeline.backpressure_rejects",
        s.backpressure_rejects as f64,
    );
    l.set(
        "core.pipeline.peak_collect_depth",
        s.peak_collect_depth as f64,
    );
    l.set(
        "core.pipeline.peak_pending_values",
        s.peak_pending_values as f64,
    );
    l.set(
        "bench.trace.overhead_share",
        (traced.wall_s - plain.wall_s) / plain.wall_s,
    );
    l.set("bench.trace.spans", (busy.batches * 5) as f64);
    let explained = l.explained_share();
    l.set("bench.layers.explained_share", explained);
    l
}

fn rate_search(seed: u64) -> Ledger {
    ratesearch::run_trial(seed); // warm-up
    let plain = ratesearch::run_trial(seed);
    let rate_hz = plain.max_rate_at_64().unwrap_or(70.0);
    let mut l = Ledger::new(Trial::from_rate_search(&plain));
    sim_rows(&mut l);

    // The search itself is opaque, so the traced driver replays its last
    // accepted probe: 64 ports at the rate found, one simulated second.
    // Of the spec only the horizon matters here: no host sends anything.
    let probe = DesSpec {
        horizon: Duration::from_secs(1),
        ..des::FIG9_LEAF_SPINE
    };
    let sent = std::sync::Arc::default();
    let traced = traced::run(
        &probe,
        Topology::single_switch(64),
        traced::rate_probe_config(seed, rate_hz),
        Vec::new(),
        &sent,
    );
    traced_rows(&mut l, &traced);
    // The probe is one of the search's many; its wall time is not the
    // search's, so the tracing overhead cannot be read off it.
    l.set("bench.trace.overhead_share", 0.0);
    l.set("sim.events", traced.out.events as f64);
    l.set("sim.snapshots", traced.out.snapshots as f64);

    let sparse = replay::event_queue_hold(median_depth(&traced), Timeline::Sparse);
    l.set("netsim.queue.sparse_ns_per_op", sparse);
    l.set("netsim.sim.ns_per_event", replay::simulation_loop());
    let (_, _, advance) = replay::unit_cases();
    l.set("core.unit.ns_per_packet.advance", advance);
    control_rows(&mut l, &traced.out);
    // Shares are of the probe, the only run whose counts are known.
    l.shares.clear();
    l.spans = traced.spans;
    l
}
