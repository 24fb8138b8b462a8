//! End-to-end DES throughput harness with a machine-readable output.
//!
//! Runs a fig9-scale scenario (dense all-to-all Poisson traffic with
//! periodic channel-state snapshots) on a selectable topology and shard
//! count, and emits `BENCH_netsim.json`: events/sec, wall-clock, events
//! dispatched, seed, and a deterministic digest of the completed snapshots
//! so a queue/hot-path change can prove it altered nothing observable.
//!
//! ```text
//! cargo run --release -p bench --bin bench_netsim -- [options]
//!   --scenario fig9|smoke     scenario scale (default fig9)
//!   --topology <spec>         leaf_spine (the paper's 2x2x3 testbed,
//!                             default) or fat_tree:<k> (even k >= 2)
//!   --shards <usize>          simulation shard count (default 1: the
//!                             serial Testbed; >= 2 runs the sharded
//!                             runtime — the snapshot digest is
//!                             shard-count-invariant by construction)
//!   --seed <u64>              master seed (default 9)
//!   --trials <usize>          measured trials (default 1). One extra
//!                             warm-up trial always runs first and is
//!                             excluded from every timing statistic;
//!                             median/min/stddev cover measured trials
//!                             only. Every trial's digest must agree.
//!   --out <path>              output JSON (default BENCH_netsim.json)
//!   --baseline <path>         embed speedup vs a previous run's JSON
//!   --check <path>            validate <path>'s schema and fail if this
//!                             run regresses >threshold below it
//!   --threshold <f64>         regression threshold for --check (default 0.30)
//!   --expect-digest <hex>     fail unless the snapshot digest equals
//!                             this value (shard-equivalence gating)
//!   --metrics-out <path>      obs metrics JSON from the warm-up trial,
//!                             plus the measured throughput (and, when
//!                             sharded, shard.count/windows/messages)
//!                             as gauges (default BENCH_netsim_metrics.json)
//!   --profile-out <path>      write the deterministic `speedlight-profile/v1`
//!                             artifact (per-domain events, cross-domain
//!                             messages, barrier-stall sim-time, window
//!                             count, observer-pipeline occupancy). The
//!                             profiler rides the warm-up trial, and the
//!                             cross-trial digest assertion proves it
//!                             perturbed nothing. A human stall summary
//!                             (per shard when sharded) goes to stderr —
//!                             the artifact itself is jobs- and
//!                             shard-count-invariant.
//! ```
//!
//! With `SPEEDLIGHT_TRACE=<path>` in the environment, the warm-up trial
//! runs with the JSONL trace sink enabled and its trace is written to
//! `<path>` (inspect it with the `speedlight-trace` binary). Because
//! tracing rides the warm-up trial, it never perturbs a measured wall
//! clock.

use fabric::network::DriverConfig;
use fabric::shard::{PartitionHint, ShardedTestbed};
use fabric::switchmod::SnapshotConfig;
use fabric::testbed::{Testbed, TestbedConfig};
use fabric::topology::Topology;
use netsim::dist::Dist;
use netsim::time::{Duration, Instant};
use telemetry::MetricKind;
use workloads::PoissonSource;

use std::process::ExitCode;
use std::time::Instant as WallInstant;

/// Scenario scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    /// Fig. 9 scale: the full testbed under dense traffic, ~40 ms of
    /// simulated time (hundreds of thousands of events).
    Fig9,
    /// CI smoke scale: same shape, ~8 ms of simulated time.
    Smoke,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::Fig9 => "fig9",
            Scenario::Smoke => "smoke",
        }
    }

    fn sim_horizon(self) -> Duration {
        match self {
            Scenario::Fig9 => Duration::from_millis(40),
            Scenario::Smoke => Duration::from_millis(8),
        }
    }
}

/// Benchmark topology axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TopoChoice {
    /// The paper's 2x2 leaf-spine testbed with 3 hosts per leaf.
    LeafSpine,
    /// A k-ary fat tree (even k): 5k²/4 switches, k³/4 hosts.
    FatTree(u16),
}

impl TopoChoice {
    fn parse(spec: &str) -> TopoChoice {
        if spec == "leaf_spine" {
            return TopoChoice::LeafSpine;
        }
        if let Some(k) = spec.strip_prefix("fat_tree:") {
            let k: u16 = k
                .parse()
                .unwrap_or_else(|_| panic!("bad fat-tree arity in {spec:?}"));
            return TopoChoice::FatTree(k);
        }
        panic!("unknown topology {spec:?} (leaf_spine|fat_tree:<k>)");
    }

    fn name(self) -> String {
        match self {
            TopoChoice::LeafSpine => "leaf_spine".into(),
            TopoChoice::FatTree(k) => format!("fat_tree:{k}"),
        }
    }

    fn build(self) -> Topology {
        match self {
            TopoChoice::LeafSpine => Topology::leaf_spine(2, 2, 3),
            TopoChoice::FatTree(k) => Topology::fat_tree(k),
        }
    }

    fn hint(self) -> PartitionHint {
        match self {
            TopoChoice::LeafSpine => PartitionHint::LeafSpine { leaves: 2 },
            TopoChoice::FatTree(k) => PartitionHint::FatTree { k },
        }
    }

    /// Per-host offered load. The fat tree hosts many more sources than
    /// the 6-host leaf-spine, so each is driven more gently to keep the
    /// benchmark in the hundreds-of-thousands-of-events regime per
    /// simulated millisecond rather than the tens of millions.
    fn pps_per_host(self) -> f64 {
        match self {
            TopoChoice::LeafSpine => 600_000.0,
            TopoChoice::FatTree(_) => 100_000.0,
        }
    }
}

struct Measurement {
    scenario: Scenario,
    topology: TopoChoice,
    shards: usize,
    seed: u64,
    sim_time_s: f64,
    wall_clock_s: f64,
    events_dispatched: u64,
    events_per_sec: f64,
    snapshots_completed: usize,
    forced_snapshots: usize,
    host_packets_delivered: u64,
    snapshot_digest: u64,
    metrics: obs::metrics::Metrics,
    trace_lines: Vec<String>,
    profile: Option<obs::profile::Profile>,
}

fn config(seed: u64) -> TestbedConfig {
    let snapshot = SnapshotConfig {
        modulus: 512,
        channel_state: true,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    };
    let mut cfg = TestbedConfig::new(snapshot);
    cfg.seed = seed;
    cfg.driver = DriverConfig {
        snapshot_period: Some(Duration::from_millis(4)),
        ..DriverConfig::default()
    };
    cfg
}

fn source_for(host: u32, num_hosts: u32, pps: f64, seed: u64) -> Box<PoissonSource> {
    let dsts: Vec<u32> = (0..num_hosts).filter(|&d| d != host).collect();
    Box::new(
        PoissonSource::new(
            host,
            dsts,
            pps,
            Dist::constant(700.0),
            seed ^ u64::from(host),
        )
        .flows_per_dst(8),
    )
}

/// Either execution engine behind one surface: `--shards 1` is the serial
/// [`Testbed`] (the committed-baseline path), `--shards >= 2` the sharded
/// runtime. Both replay the identical scenario, and the digest below is
/// engine- and shard-count-invariant.
enum Bed {
    Serial(Box<Testbed>),
    Sharded(Box<ShardedTestbed>),
}

fn build(topology: TopoChoice, shards: usize, seed: u64) -> Bed {
    let topo = topology.build();
    let cfg = config(seed);
    let num_hosts = topo.num_hosts();
    let pps = topology.pps_per_host();
    if shards <= 1 {
        let mut tb = Testbed::new(topo, cfg);
        for h in 0..num_hosts {
            tb.set_source(h, Instant::ZERO, source_for(h, num_hosts, pps, seed));
        }
        Bed::Serial(Box::new(tb))
    } else {
        let mut tb = ShardedTestbed::new(topo, cfg, topology.hint(), shards);
        for h in 0..num_hosts {
            tb.set_source(h, Instant::ZERO, source_for(h, num_hosts, pps, seed));
        }
        Bed::Sharded(Box::new(tb))
    }
}

fn run(
    scenario: Scenario,
    topology: TopoChoice,
    shards: usize,
    seed: u64,
    trace: bool,
    profile: bool,
) -> Measurement {
    let mut bed = build(topology, shards, seed);
    if trace {
        match &mut bed {
            Bed::Serial(tb) => tb.enable_trace(),
            Bed::Sharded(tb) => tb.enable_trace(),
        }
    }
    if profile {
        match &mut bed {
            Bed::Serial(tb) => tb.enable_profiling(),
            Bed::Sharded(tb) => tb.enable_profiling(),
        }
    }
    let horizon = scenario.sim_horizon();
    let start = WallInstant::now();
    match &mut bed {
        Bed::Serial(tb) => {
            tb.run_until(Instant::ZERO + horizon);
        }
        Bed::Sharded(tb) => {
            tb.run_until(Instant::ZERO + horizon);
        }
    }
    let wall = start.elapsed();

    let mut h = parfan::digest::Fnv64::new();
    let (events, snapshots_completed, forced, host_rx, metrics, trace_lines) = match &mut bed {
        Bed::Serial(tb) => {
            for rec in tb.snapshots() {
                digest_record(&mut h, rec);
            }
            (
                tb.events_dispatched(),
                tb.snapshots().len(),
                tb.snapshots().iter().filter(|r| r.forced).count(),
                tb.network().instr.host_rx.iter().sum::<u64>(),
                tb.network_mut().take_metrics(),
                tb.take_trace_lines(),
            )
        }
        Bed::Sharded(tb) => {
            for rec in tb.snapshots() {
                digest_record(&mut h, rec);
            }
            let stats = tb.shard_stats();
            let mut metrics = tb.take_metrics();
            metrics.gauge_set("shard.count", tb.num_shards() as u64);
            metrics.gauge_set("shard.windows", stats.windows);
            metrics.gauge_set("shard.messages", stats.messages);
            (
                tb.events_dispatched(),
                tb.snapshots().len(),
                tb.snapshots().iter().filter(|r| r.forced).count(),
                tb.host_rx().iter().sum::<u64>(),
                metrics,
                tb.take_trace_lines(),
            )
        }
    };
    let profile = profile.then(|| match &mut bed {
        Bed::Serial(tb) => tb.take_profile(),
        Bed::Sharded(tb) => tb.take_profile(),
    });
    let digest = h.finish();
    let wall_s = wall.as_secs_f64();
    Measurement {
        scenario,
        topology,
        shards,
        seed,
        sim_time_s: horizon.as_secs_f64(),
        wall_clock_s: wall_s,
        events_dispatched: events,
        events_per_sec: events as f64 / wall_s.max(1e-9),
        snapshots_completed,
        forced_snapshots: forced,
        host_packets_delivered: host_rx,
        snapshot_digest: digest,
        metrics,
        trace_lines,
        profile,
    }
}

fn digest_record(h: &mut parfan::digest::Fnv64, rec: &fabric::network::SnapshotRecord) {
    h.update(&rec.snapshot.epoch.to_le_bytes());
    h.update(&rec.snapshot.consistent_total().to_le_bytes());
    h.update(&[u8::from(rec.forced)]);
    h.write_u64(rec.snapshot.excluded.len() as u64);
    h.write_u64(rec.snapshot.units.len() as u64);
    h.write_u64(rec.completed_at.as_nanos());
}

/// Aggregate of `--trials` measured runs (plus one discarded warm-up).
struct Report {
    trials: usize,
    events_per_sec_min: f64,
    wall_clock_stddev_s: f64,
    /// Representative measurement: deterministic fields (and the warm-up
    /// trial's metrics/trace), wall clock and events/sec replaced by the
    /// across-measured-trial medians (so `events_per_sec` — the field
    /// `--check` gates on — is the median over measured trials only).
    m: Measurement,
}

fn run_trials(
    scenario: Scenario,
    topology: TopoChoice,
    shards: usize,
    seed: u64,
    trials: usize,
    trace: bool,
    profile: bool,
) -> Report {
    // Trial 0 is the warm-up: it pays the first-touch costs (page faults,
    // allocator growth, branch-predictor training) and is excluded from
    // every timing statistic. Tracing also rides it, so measured trials
    // never carry the sink overhead.
    let idx: Vec<usize> = (0..trials.max(1) + 1).collect();
    let mut ms = parfan::map_labeled(
        &idx,
        |_, &t| {
            let kind = if t == 0 { "warm-up" } else { "measured" };
            format!(
                "bench {kind} trial {t} scenario={} topology={} shards={shards} seed={seed}",
                scenario.name(),
                topology.name(),
            )
        },
        |_, &t| {
            run(
                scenario,
                topology,
                shards,
                seed,
                trace && t == 0,
                profile && t == 0,
            )
        },
    );
    // Every trial (warm-up included) replays the same seeded scenario, so
    // digests and event counts must agree bit for bit; a disagreement is a
    // real determinism bug, not measurement noise.
    for (t, m) in ms.iter().enumerate() {
        assert_eq!(
            (m.snapshot_digest, m.events_dispatched),
            (ms[0].snapshot_digest, ms[0].events_dispatched),
            "trial {t} diverged from trial 0: the simulation is not deterministic"
        );
    }
    let eps: Vec<f64> = ms.iter().skip(1).map(|m| m.events_per_sec).collect();
    let walls: Vec<f64> = ms.iter().skip(1).map(|m| m.wall_clock_s).collect();
    let mut m = ms.swap_remove(0);
    m.events_per_sec = sim_stats::percentile(&eps, 0.5);
    m.wall_clock_s = sim_stats::percentile(&walls, 0.5);
    Report {
        trials: eps.len(),
        events_per_sec_min: eps.iter().copied().fold(f64::INFINITY, f64::min),
        wall_clock_stddev_s: if walls.len() > 1 {
            sim_stats::std_dev(&walls)
        } else {
            0.0
        },
        m,
    }
}

fn render_json(r: &Report, baseline_eps: Option<f64>) -> String {
    let m = &r.m;
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"speedlight-bench-netsim/v1\",\n");
    out.push_str(&format!("  \"scenario\": \"{}\",\n", m.scenario.name()));
    out.push_str(&format!("  \"topology\": \"{}\",\n", m.topology.name()));
    out.push_str(&format!("  \"shards\": {},\n", m.shards));
    out.push_str(&format!("  \"seed\": {},\n", m.seed));
    out.push_str(&format!("  \"sim_time_s\": {},\n", m.sim_time_s));
    out.push_str(&format!("  \"wall_clock_s\": {:.6},\n", m.wall_clock_s));
    out.push_str(&format!(
        "  \"events_dispatched\": {},\n",
        m.events_dispatched
    ));
    out.push_str(&format!("  \"events_per_sec\": {:.1},\n", m.events_per_sec));
    out.push_str(&format!("  \"trials\": {},\n", r.trials));
    out.push_str(&format!(
        "  \"events_per_sec_median\": {:.1},\n",
        m.events_per_sec
    ));
    out.push_str(&format!(
        "  \"events_per_sec_min\": {:.1},\n",
        r.events_per_sec_min
    ));
    out.push_str(&format!(
        "  \"wall_clock_stddev_s\": {:.6},\n",
        r.wall_clock_stddev_s
    ));
    out.push_str(&format!(
        "  \"snapshots_completed\": {},\n",
        m.snapshots_completed
    ));
    out.push_str(&format!(
        "  \"forced_snapshots\": {},\n",
        m.forced_snapshots
    ));
    out.push_str(&format!(
        "  \"host_packets_delivered\": {},\n",
        m.host_packets_delivered
    ));
    if let Some(base) = baseline_eps {
        out.push_str(&format!("  \"baseline_events_per_sec\": {base:.1},\n"));
        out.push_str(&format!(
            "  \"speedup_vs_baseline\": {:.3},\n",
            m.events_per_sec / base.max(1e-9)
        ));
    }
    out.push_str(&format!(
        "  \"snapshot_digest\": \"{:016x}\"\n",
        m.snapshot_digest
    ));
    out.push_str("}\n");
    out
}

/// Human-readable stall digest for stderr. When sharded, rows are
/// aggregated per shard by reconstructing the owner map from the public
/// partition — a shard-count-*dependent* view, which is exactly why it
/// goes to stderr and never into the (invariant) artifact. Serial runs
/// get the five most-stalled domains instead.
fn stall_summary(p: &obs::profile::Profile, topology: TopoChoice, shards: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} windows, lookahead {} ns, {} domains",
        p.windows,
        p.lookahead_ns,
        p.domains.len()
    );
    if shards >= 2 {
        let topo = topology.build();
        let ns = usize::from(topo.num_switches());
        let assign = fabric::shard::partition_devices(&topo, topology.hint(), shards);
        // Devices by partition, hosts co-located with their switch, the
        // control domain pinned to shard 0 — the `ShardedTestbed` rules.
        let owner = |id: usize| -> usize {
            if id < ns {
                assign.get(id).copied().unwrap_or(0)
            } else {
                topo.hosts
                    .get(id - ns)
                    .and_then(|&(sw, _)| assign.get(usize::from(sw)))
                    .copied()
                    .unwrap_or(0)
            }
        };
        let mut per = vec![(0u64, 0u64, 0u64); shards];
        for row in &p.domains {
            if let Some(s) = per.get_mut(owner(row.id as usize)) {
                s.0 += row.events;
                s.1 += row.msgs_out;
                s.2 += row.stall_ns;
            }
        }
        for (i, (events, msgs, stall)) in per.iter().enumerate() {
            let _ = writeln!(
                out,
                "  shard {i}: events={events} msgs_out={msgs} stall={stall} ns \
                 (avg {} ns/window)",
                stall / p.windows.max(1)
            );
        }
    } else {
        let mut rows: Vec<&obs::profile::DomainRow> = p.domains.iter().collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.stall_ns));
        for r in rows.iter().take(5) {
            let _ = writeln!(
                out,
                "  {} {}: events={} msgs_out={} stall={} ns",
                r.kind, r.id, r.events, r.msgs_out, r.stall_ns
            );
        }
    }
    out
}

/// Pull one scalar field out of a flat JSON object (the harness's own
/// schema — no nesting, no escapes in the values we read).
fn json_field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\"");
    let at = doc.find(&pat)?;
    let rest = doc[at + pat.len()..].trim_start();
    let rest = rest.strip_prefix(':')?.trim_start();
    let end = rest.find([',', '\n', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim().trim_matches('"'))
}

/// Validate that `doc` carries the v1 schema with sane field types.
/// Returns the baseline events/sec on success. The `topology`/`shards`
/// fields are additive (absent in pre-axis baselines), so they are not
/// required here.
fn validate_schema(doc: &str) -> Result<f64, String> {
    let schema = json_field(doc, "schema").ok_or("missing \"schema\" field")?;
    if schema != "speedlight-bench-netsim/v1" {
        return Err(format!("unexpected schema {schema:?}"));
    }
    for key in ["scenario", "snapshot_digest"] {
        if json_field(doc, key).is_none() {
            return Err(format!("missing \"{key}\" field"));
        }
    }
    for key in ["seed", "events_dispatched", "snapshots_completed"] {
        let raw = json_field(doc, key).ok_or_else(|| format!("missing \"{key}\" field"))?;
        raw.parse::<u64>()
            .map_err(|_| format!("field \"{key}\" is not an integer: {raw:?}"))?;
    }
    for key in ["sim_time_s", "wall_clock_s", "events_per_sec"] {
        let raw = json_field(doc, key).ok_or_else(|| format!("missing \"{key}\" field"))?;
        let v: f64 = raw
            .parse()
            .map_err(|_| format!("field \"{key}\" is not a number: {raw:?}"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("field \"{key}\" must be positive, got {v}"));
        }
    }
    Ok(json_field(doc, "events_per_sec").unwrap().parse().unwrap())
}

fn main() -> ExitCode {
    let mut scenario = Scenario::Fig9;
    let mut topology = TopoChoice::LeafSpine;
    let mut shards: usize = 1;
    let mut seed: u64 = 9;
    let mut trials: usize = 1;
    let mut out_path = String::from("BENCH_netsim.json");
    let mut metrics_out_path = String::from("BENCH_netsim_metrics.json");
    let mut profile_out_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut expect_digest: Option<u64> = None;
    let mut threshold: f64 = 0.30;
    let trace_path = std::env::var("SPEEDLIGHT_TRACE").ok();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} requires a value"))
        };
        match arg.as_str() {
            "--scenario" => {
                scenario = match value("--scenario").as_str() {
                    "fig9" => Scenario::Fig9,
                    "smoke" => Scenario::Smoke,
                    other => panic!("unknown scenario {other:?} (fig9|smoke)"),
                }
            }
            "--topology" => topology = TopoChoice::parse(&value("--topology")),
            "--shards" => {
                shards = value("--shards").parse().expect("--shards takes a usize");
                assert!(shards >= 1, "--shards must be at least 1");
            }
            "--seed" => seed = value("--seed").parse().expect("--seed takes a u64"),
            "--trials" => {
                trials = value("--trials").parse().expect("--trials takes a usize");
                assert!(trials >= 1, "--trials must be at least 1");
            }
            "--out" => out_path = value("--out"),
            "--metrics-out" => metrics_out_path = value("--metrics-out"),
            "--profile-out" => profile_out_path = Some(value("--profile-out")),
            "--baseline" => baseline_path = Some(value("--baseline")),
            "--check" => check_path = Some(value("--check")),
            "--expect-digest" => {
                let raw = value("--expect-digest");
                expect_digest = Some(u64::from_str_radix(&raw, 16).unwrap_or_else(|_| {
                    panic!("--expect-digest takes 16 hex digits, got {raw:?}")
                }));
            }
            "--threshold" => {
                threshold = value("--threshold")
                    .parse()
                    .expect("--threshold takes a f64")
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let r = run_trials(
        scenario,
        topology,
        shards,
        seed,
        trials,
        trace_path.is_some(),
        profile_out_path.is_some(),
    );
    let m = &r.m;
    eprintln!(
        "scenario={} topology={} shards={} seed={} trials={} (+1 warm-up) events={} \
         wall={:.3}s (stddev {:.3}s) throughput={:.0} events/s (median; min {:.0}) \
         snapshots={} (forced {}) digest={:016x}",
        m.scenario.name(),
        m.topology.name(),
        m.shards,
        m.seed,
        r.trials,
        m.events_dispatched,
        m.wall_clock_s,
        r.wall_clock_stddev_s,
        m.events_per_sec,
        r.events_per_sec_min,
        m.snapshots_completed,
        m.forced_snapshots,
        m.snapshot_digest,
    );

    if let Some(want) = expect_digest {
        if m.snapshot_digest != want {
            eprintln!(
                "digest check FAILED: got {:016x}, expected {want:016x} \
                 (shard-equivalence violation)",
                m.snapshot_digest
            );
            return ExitCode::FAILURE;
        }
        eprintln!("digest check ok: {want:016x}");
    }

    let baseline_eps = baseline_path.map(|p| {
        let doc =
            std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("cannot read baseline {p}: {e}"));
        validate_schema(&doc).unwrap_or_else(|e| panic!("bad baseline {p}: {e}"))
    });

    std::fs::write(&out_path, render_json(&r, baseline_eps))
        .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");

    // The warm-up trial's obs metrics, with the measured throughput folded
    // in as a gauge (truncated to u64: the registry is float-free by
    // design). Shard gauges (count/windows/messages) ride along when the
    // sharded engine ran.
    let mut metrics = r.m.metrics.clone();
    metrics.gauge_set("bench.events_per_sec", m.events_per_sec as u64);
    metrics.gauge_set("bench.events_dispatched", m.events_dispatched);
    std::fs::write(&metrics_out_path, metrics.to_json())
        .unwrap_or_else(|e| panic!("cannot write {metrics_out_path}: {e}"));
    eprintln!("wrote {metrics_out_path}");

    if let Some(p) = &trace_path {
        let mut doc = r.m.trace_lines.join("\n");
        doc.push('\n');
        std::fs::write(p, doc).unwrap_or_else(|e| panic!("cannot write trace {p}: {e}"));
        eprintln!("wrote trace {p} ({} events)", r.m.trace_lines.len());
    }

    if let Some(p) = &profile_out_path {
        let Some(profile) = &r.m.profile else {
            unreachable!("--profile-out always profiles the warm-up trial");
        };
        let doc = profile.to_json();
        std::fs::write(p, &doc).unwrap_or_else(|e| panic!("cannot write profile {p}: {e}"));
        eprintln!(
            "wrote profile {p} (digest {})",
            obs::profile::extract_digest(&doc).unwrap_or_default()
        );
        eprint!("{}", stall_summary(profile, topology, shards));
    }

    if let Some(p) = check_path {
        let doc = match std::fs::read_to_string(&p) {
            Ok(doc) => doc,
            Err(e) => {
                eprintln!("check FAILED: cannot read committed baseline {p}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let committed_eps = match validate_schema(&doc) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("check FAILED: committed baseline {p} invalid: {e}");
                return ExitCode::FAILURE;
            }
        };
        let floor = committed_eps * (1.0 - threshold);
        if m.events_per_sec < floor {
            eprintln!(
                "check FAILED: {:.0} events/s is below the regression floor {:.0} \
                 ({}% under committed baseline {:.0})",
                m.events_per_sec,
                floor,
                (threshold * 100.0) as u32,
                committed_eps,
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "check ok: {:.0} events/s vs committed {:.0} (floor {:.0})",
            m.events_per_sec, committed_eps, floor
        );
    }
    ExitCode::SUCCESS
}
