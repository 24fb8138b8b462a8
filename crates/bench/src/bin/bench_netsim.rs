//! Run one seeded DES scenario once and pin what it computed.
//!
//! Runs a fig9-scale scenario (dense all-to-all Poisson traffic with
//! periodic channel-state snapshots) on a selectable topology and shard
//! count, once, on the main thread, and prints one summary line to
//! stderr: events dispatched, wall clock, events/s, and a deterministic
//! digest of the completed snapshots, so a queue/hot-path change can prove
//! it altered nothing observable. The events/s on that line is a
//! courtesy, not a measurement: speed numbers come from the `benchmark`
//! binary (`BENCHMARK.json`).
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
//!   --expect-digest <hex>     fail unless the snapshot digest equals
//!                             this value (shard-equivalence gating)
//!   --metrics-out <path>      write the run's obs metrics JSON (plus,
//!                             when sharded, shard.count/windows/messages
//!                             as gauges)
//!   --profile-out <path>      write the deterministic `speedlight-profile/v1`
//!                             artifact (per-domain events, cross-domain
//!                             messages, barrier-stall sim-time, window
//!                             count, observer-pipeline occupancy). A
//!                             human stall summary (per shard when
//!                             sharded) goes to stderr — the artifact
//!                             itself is shard-count-invariant.
//!   --trace-out <path>        enable the JSONL trace sink and write the
//!                             run's trace (inspect it with the
//!                             `speedlight-trace` binary)
//! ```
//!
//! Tracing and profiling ride the one run; neither perturbs the
//! simulation, so the digest is the same with them on or off
//! (`--expect-digest` under both is how the tests pin that).

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
    wall_clock_s: f64,
    events_dispatched: u64,
    snapshots_completed: usize,
    forced_snapshots: usize,
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
    let (events, snapshots_completed, forced, metrics, trace_lines) = match &mut bed {
        Bed::Serial(tb) => {
            for rec in tb.snapshots() {
                digest_record(&mut h, rec);
            }
            (
                tb.events_dispatched(),
                tb.snapshots().len(),
                tb.snapshots().iter().filter(|r| r.forced).count(),
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
                metrics,
                tb.take_trace_lines(),
            )
        }
    };
    let profile = profile.then(|| match &mut bed {
        Bed::Serial(tb) => tb.take_profile(),
        Bed::Sharded(tb) => tb.take_profile(),
    });
    Measurement {
        wall_clock_s: wall.as_secs_f64(),
        events_dispatched: events,
        snapshots_completed,
        forced_snapshots: forced,
        snapshot_digest: h.finish(),
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

fn main() -> ExitCode {
    let mut scenario = Scenario::Fig9;
    let mut topology = TopoChoice::LeafSpine;
    let mut shards: usize = 1;
    let mut seed: u64 = 9;
    let mut metrics_out_path: Option<String> = None;
    let mut profile_out_path: Option<String> = None;
    let mut expect_digest: Option<u64> = None;
    let mut trace_path: Option<String> = None;

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
            "--metrics-out" => metrics_out_path = Some(value("--metrics-out")),
            "--profile-out" => profile_out_path = Some(value("--profile-out")),
            "--trace-out" => trace_path = Some(value("--trace-out")),
            "--expect-digest" => {
                let raw = value("--expect-digest");
                expect_digest = Some(u64::from_str_radix(&raw, 16).unwrap_or_else(|_| {
                    panic!("--expect-digest takes 16 hex digits, got {raw:?}")
                }));
            }
            other => panic!("unknown argument {other:?}"),
        }
    }

    let m = run(
        scenario,
        topology,
        shards,
        seed,
        trace_path.is_some(),
        profile_out_path.is_some(),
    );
    eprintln!(
        "scenario={} topology={} shards={shards} seed={seed} events={} wall={:.3}s \
         throughput={:.0} events/s snapshots={} (forced {}) digest={:016x}",
        scenario.name(),
        topology.name(),
        m.events_dispatched,
        m.wall_clock_s,
        m.events_dispatched as f64 / m.wall_clock_s.max(1e-9),
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

    if let Some(p) = &metrics_out_path {
        std::fs::write(p, m.metrics.to_json())
            .unwrap_or_else(|e| panic!("cannot write metrics {p}: {e}"));
        eprintln!("wrote metrics {p}");
    }

    if let Some(p) = &trace_path {
        std::fs::write(p, obs::sinks::render_lines(&m.trace_lines))
            .unwrap_or_else(|e| panic!("cannot write trace {p}: {e}"));
        eprintln!("wrote trace {p} ({} events)", m.trace_lines.len());
    }

    if let (Some(p), Some(profile)) = (&profile_out_path, &m.profile) {
        let doc = profile.to_json();
        std::fs::write(p, &doc).unwrap_or_else(|e| panic!("cannot write profile {p}: {e}"));
        eprintln!(
            "wrote profile {p} (digest {})",
            obs::profile::extract_digest(&doc).unwrap_or_default()
        );
        eprint!("{}", stall_summary(profile, topology, shards));
    }
    ExitCode::SUCCESS
}
