//! Sharded execution of one network simulation: domains, the topology
//! partitioner, and the [`ShardedTestbed`] harness.
//!
//! The sharded engine partitions the fabric **by device**: every event
//! belongs to exactly one *domain* — the device it executes on, the host
//! it wakes, or the control plane (observer/driver) — and each domain is
//! owned by exactly one shard. A shard holds a full [`Network`] replica
//! (identical construction from the same seed, so per-domain RNG streams
//! and static state agree everywhere) but only ever processes events for
//! the domains it owns; all other state in the replica stays inert.
//!
//! Determinism contract (shard-count invariance): a domain's
//! event stream, RNG draws, and emitted follow-ups are
//! functions of the domain alone, never of how domains are packed onto
//! shards. Three mechanisms enforce this:
//!
//! 1. **Domain-scoped nondeterminism** — [`Network`] in sharded mode
//!    draws device latencies from per-device RNGs forked from the root
//!    seed by device id and reserves the global stream for the control
//!    domain (see `Network::enable_sharded_mode`).
//! 2. **Canonical event keys** — every emission carries a
//!    `(source domain, per-domain sequence)` key
//!    ([`netsim::shard::pack_key`]); each shard's queue is a calendar
//!    ordered by `(time, key)`, so a shard processes any given multiset
//!    of events in one canonical order. The handler schedules straight
//!    into that queue and a follow-up's sequence number is stamped as it
//!    is emitted. Any stamping gives the same execution as long as it is
//!    blockwise-monotone — one dispatch's keys form one contiguous block
//!    of its domain's sequence, blocks follow dispatch order, and two
//!    follow-ups of one dispatch at the same instant keep their emission
//!    order — because keys only ever break ties between events at the
//!    *same* instant: follow-ups at different instants are ordered by
//!    time whatever their keys say.
//! 3. **Lookahead windows** — every cross-*domain* emission is delayed by
//!    at least the topology's minimum link propagation (naturally for
//!    packets, clamped for control traffic), so the conservative
//!    window protocol in [`netsim::shard`] can run each window shard by
//!    shard without ever reordering a domain's inputs.
//!
//! Outputs are combined by shard-count-independent merge rules
//! (see [`ShardedTestbed`]): sums for disjoint counters, min/max/sum for
//! the sync map, canonical sorts for traces, polls, and the delivery
//! log. The merges are applied at *every* shard count — including 1 — so
//! shard counts 1, 2, 4 and 8 produce byte-identical artifacts.
//!
//! The sharded engine is a second execution mode, not a replacement: the
//! serial [`crate::testbed::Testbed`] is untouched and remains the
//! reference for all committed baselines.

use crate::network::{
    NetEvent, NetProfiler, Network, NotifFaultConfig, PollSweepRecord, Sched, SnapshotRecord,
};
use crate::topology::{PortPeer, Topology};
use crate::traffic::Source;
use netsim::rng::SeedEcho;
use netsim::shard::{pack_key, Emit, EmitSink, ShardWorld, ShardedSim};
use netsim::sim::RunOutcome;
use netsim::time::{Duration, Instant};
use speedlight_core::consistency::DeliveryEvent;
use speedlight_core::Epoch;

use crate::testbed::TestbedConfig;

/// Maps events to the domains that own their state.
///
/// Domain ids are dense: devices first (`0..num_switches`), then hosts
/// (`num_switches..num_switches+num_hosts`), then the control domain,
/// then one *external* pseudo-domain used to key testbed-level
/// injections (it never executes events).
#[derive(Debug, Clone, Copy)]
pub struct DomainTable {
    num_switches: u32,
    num_hosts: u32,
}

impl DomainTable {
    /// The domain table for `topo`.
    pub fn new(topo: &Topology) -> DomainTable {
        DomainTable {
            num_switches: topo.num_switches() as u32,
            num_hosts: topo.num_hosts(),
        }
    }

    /// The device domain of switch `sw`.
    pub fn device(&self, sw: u16) -> u32 {
        assert!(u32::from(sw) < self.num_switches, "unknown switch {sw}");
        u32::from(sw)
    }

    /// The host domain of host `h`.
    pub fn host(&self, h: u32) -> u32 {
        assert!(h < self.num_hosts, "unknown host {h}");
        self.num_switches + h
    }

    /// The control (observer/driver) domain.
    pub fn control(&self) -> u32 {
        self.num_switches + self.num_hosts
    }

    /// The external pseudo-domain keying testbed-level injections.
    pub fn external(&self) -> u32 {
        self.control() + 1
    }

    /// Total number of domains, external pseudo-domain included.
    pub fn count(&self) -> u32 {
        self.external() + 1
    }

    /// The domain owning `ev`'s state.
    pub fn of(&self, ev: &NetEvent) -> u32 {
        match *ev {
            NetEvent::ArriveIngress { sw, .. }
            | NetEvent::EnqueueEgress { sw, .. }
            | NetEvent::StartTx { sw, .. }
            | NetEvent::TxDone { sw, .. }
            | NetEvent::DeviceInitiate { sw, .. }
            | NetEvent::UnitInitiate { sw, .. }
            | NetEvent::NotifyArrive { sw, .. }
            | NetEvent::CpProcess { sw }
            | NetEvent::PollRead { sw, .. }
            | NetEvent::PollComplete { sw, .. }
            | NetEvent::LinkSet { sw, .. }
            | NetEvent::DeviceFault { sw }
            | NetEvent::CpCrash { sw }
            | NetEvent::NotifRelease { sw, .. }
            | NetEvent::KeepaliveProbe { sw, .. }
            | NetEvent::CpRecoverSync { sw, .. } => self.device(sw),
            NetEvent::DeliverHost { host, .. } | NetEvent::HostWake { host } => self.host(host),
            // `CpRecover` resynchronizes against the *observer's* newest
            // issued epoch, so it executes on the control domain and
            // ships the target to the device via `CpRecoverSync`.
            NetEvent::ScheduleSnapshot
            | NetEvent::ObserverTick
            | NetEvent::PollSweep
            | NetEvent::KeepaliveTick
            | NetEvent::CpRecover { .. }
            | NetEvent::ReportArrive { .. } => self.control(),
        }
    }
}

/// Structure hint for the device partitioner: exploiting the topology's
/// shape minimizes cut edges (links whose endpoints live on different
/// shards), which keeps cross-shard traffic low. Any hint is *correct*
/// for any topology — outputs never depend on the partition — so a wrong
/// hint only costs performance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionHint {
    /// Contiguous balanced chunks of the device id space.
    Generic,
    /// Leaf-spine: the first `leaves` devices are leaves (chunked so
    /// leaf+host clusters stay together), the rest are spines
    /// (round-robin — every spine touches every leaf anyway).
    LeafSpine {
        /// Number of leaf switches (device ids `0..leaves`).
        leaves: u16,
    },
    /// k-ary fat-tree as built by [`Topology::fat_tree`]: pods (edge +
    /// aggregation switches) are kept whole and chunked across shards;
    /// core switches are round-robin (each core touches every pod).
    FatTree {
        /// The tree arity.
        k: u16,
    },
}

/// Assign every device to a shard in `0..shards`. Hosts are not listed:
/// they always follow their attached device (the host link is the one
/// edge that must never be cut — it carries the densest traffic).
pub fn partition_devices(topo: &Topology, hint: PartitionHint, shards: usize) -> Vec<usize> {
    let n = usize::from(topo.num_switches());
    let shards = shards.max(1);
    // Balanced contiguous chunks: floor(idx * shards / total).
    let chunk =
        |idx: usize, total: usize| -> usize { (idx * shards).checked_div(total).unwrap_or(0) };
    (0..n)
        .map(|d| match hint {
            PartitionHint::Generic => chunk(d, n),
            PartitionHint::LeafSpine { leaves } => {
                let leaves = usize::from(leaves).min(n);
                if d < leaves {
                    chunk(d, leaves)
                } else {
                    (d - leaves) % shards
                }
            }
            PartitionHint::FatTree { k } => {
                let k = usize::from(k.max(2));
                let half = k / 2;
                let pod_devices = 2 * half * k; // edges + aggs
                if d < pod_devices {
                    // Edge `e` is in pod `e / half`; agg `a` is in pod
                    // `(a - num_edge) / half`. Keep each pod whole.
                    let pod = if d < half * k {
                        d / half
                    } else {
                        (d - half * k) / half
                    };
                    chunk(pod, k)
                } else {
                    (d - pod_devices) % shards
                }
            }
        })
        .collect()
}

/// Count the inter-switch links whose endpoints land on different shards
/// under `assign` (each cable counted once). The partitioner's quality
/// metric: cut edges are the only cross-shard packet paths.
pub fn cut_edges(topo: &Topology, assign: &[usize]) -> usize {
    let mut cut = 0;
    for (sw, ports) in topo.ports.iter().enumerate() {
        for (port, peer) in ports.iter().enumerate() {
            if let PortPeer::Switch {
                switch: peer_sw,
                port: peer_port,
            } = *peer
            {
                let a = (sw, port);
                let b = (usize::from(peer_sw), usize::from(peer_port));
                if a < b && assign.get(sw) != assign.get(usize::from(peer_sw)) {
                    cut += 1;
                }
            }
        }
    }
    cut
}

/// The partition-independent lookahead for `topo`: the minimum one-way
/// propagation delay over every attached link. Every packet that crosses
/// domains rides a link, so its delay is naturally at least this;
/// control-plane cross-domain traffic is clamped to it by the network's
/// sharded mode.
pub fn lookahead_of(topo: &Topology) -> Duration {
    let mut min_ns = u64::MAX;
    for (sw, ports) in topo.ports.iter().enumerate() {
        for (port, peer) in ports.iter().enumerate() {
            if matches!(peer, PortPeer::Unused) {
                continue;
            }
            if let Some(props) = topo.link_props.get(sw).and_then(|row| row.get(port)) {
                min_ns = min_ns.min(props.prop_ns);
            }
        }
    }
    assert!(
        min_ns != u64::MAX && min_ns > 0,
        "topology has no usable links (or a zero-propagation link): \
         cannot derive a positive lookahead"
    );
    Duration::from_nanos(min_ns)
}

/// Assemble the schema'd `speedlight-profile/v1` artifact from a
/// classification table and a (possibly merged) accounting core. Rows
/// cover every real domain — devices, hosts, control — in dense id
/// order; the external pseudo-domain only keys injections
/// ([`DomainTable::of`] never returns it) and is excluded.
pub(crate) fn profile_of(
    table: &DomainTable,
    core: &obs::profile::DomainProfiler,
    pipeline: obs::profile::PipelineSection,
) -> obs::profile::Profile {
    assert_eq!(
        core.domains(),
        table.count() as usize,
        "profiler sized for a different domain table"
    );
    let domains = (0..table.external())
        .map(|d| obs::profile::DomainRow {
            id: d,
            kind: if d < table.num_switches {
                "device"
            } else if d < table.num_switches + table.num_hosts {
                "host"
            } else {
                "control"
            },
            events: core.events_of(d as usize),
            msgs_out: core.msgs_out_of(d as usize),
            msgs_in: core.msgs_in_of(d as usize),
            stall_ns: core.stall_ns_of(d as usize),
        })
        .collect();
    obs::profile::Profile {
        lookahead_ns: core.lookahead_ns(),
        windows: core.windows(),
        domains,
        pipeline: Some(pipeline),
    }
}

/// One shard's world fragment: a full network replica, the domain table,
/// the owner map, and the per-domain emission sequence counters that
/// stamp canonical keys.
struct NetShard {
    net: Network,
    table: DomainTable,
    /// `owners[domain]` → shard index, for every domain in the table.
    owners: Vec<usize>,
    /// This shard's index.
    shard: usize,
    /// `seqs[domain]` → next emission sequence number. Only the owned
    /// domains' slots advance, and they advance identically at any shard
    /// count (a domain's event stream is packing-independent).
    seqs: Vec<u64>,
}

/// The scheduler a shard hands the event interpreter: borrows only. Each
/// follow-up gets the next key of the dispatching domain, is classified
/// to its destination domain's owner (counting the profiler's
/// cross-domain edge), and goes to `emit` — once.
struct ShardSched<'a, F> {
    now: Instant,
    /// Domain of the event being handled.
    domain: u32,
    /// That domain's next emission sequence number.
    seq: &'a mut u64,
    table: DomainTable,
    owners: &'a [usize],
    prof: Option<&'a mut NetProfiler>,
    emit: F,
}

impl<F: FnMut(usize, Instant, u64, NetEvent)> Sched for ShardSched<'_, F> {
    #[inline]
    fn now(&self) -> Instant {
        self.now
    }

    #[inline]
    fn at(&mut self, at: Instant, event: NetEvent) {
        let key = pack_key(self.domain, *self.seq);
        *self.seq += 1;
        let dest_domain = match &mut self.prof {
            Some(prof) => prof.classify(self.domain, &event),
            None => self.table.of(&event),
        };
        let Some(&dest) = self.owners.get(dest_domain as usize) else {
            panic!("domain {dest_domain} has no owner entry");
        };
        (self.emit)(dest, at, key, event);
    }
}

impl NetShard {
    fn owner_of(&self, domain: u32) -> usize {
        let Some(&owner) = self.owners.get(domain as usize) else {
            panic!("domain {domain} has no owner entry");
        };
        owner
    }

    /// Handle one event, handing each follow-up to `emit` as
    /// `(dest shard, time, key, event)` in emission order.
    fn run(
        &mut self,
        now: Instant,
        event: NetEvent,
        emit: impl FnMut(usize, Instant, u64, NetEvent),
    ) {
        let domain = self.table.of(&event);
        if self.owner_of(domain) != self.shard {
            // The only event delivered off-owner is the link-state shadow:
            // both endpoints of a flapped cable must see the outage, so
            // the testbed mirrors `LinkSet` to the peer's shard and the
            // replica applies the state change without the owner-side
            // metrics/trace.
            if let NetEvent::LinkSet { sw, port, up } = event {
                self.net.apply_link_shadow(sw, port, up);
                return;
            }
            panic!(
                "shard {} received an event for domain {} owned by shard {}",
                self.shard,
                domain,
                self.owner_of(domain)
            );
        }
        // The adapter holds the profiler while the handler holds the
        // network.
        let mut prof = self.net.take_net_profiler();
        if let Some(p) = &mut prof {
            p.core.observe(domain as usize, now.as_nanos());
        }
        let Some(seq) = self.seqs.get_mut(domain as usize) else {
            panic!("domain {domain} has no sequence counter");
        };
        let mut sched = ShardSched {
            now,
            domain,
            seq,
            table: self.table,
            owners: &self.owners,
            prof: prof.as_deref_mut(),
            emit,
        };
        self.net.handle_event(now, event, &mut sched);
        self.net.restore_net_profiler(prof);
    }
}

impl ShardWorld for NetShard {
    type Event = NetEvent;

    fn dispatch(&mut self, now: Instant, event: NetEvent, out: &mut Vec<Emit<NetEvent>>) {
        self.run(now, event, |dest, time, key, event| {
            out.push(Emit {
                dest,
                time,
                key,
                event,
            });
        });
    }

    fn dispatch_into(&mut self, now: Instant, event: NetEvent, sink: &mut EmitSink<'_, NetEvent>) {
        self.run(now, event, |dest, time, key, event| {
            sink.emit(dest, time, key, event);
        });
    }

    fn window_close(&mut self, horizon: Instant) {
        // Fires on every shard at the end of every window (even eventless
        // ones), so each replica's window count — and therefore the
        // merged profile — is shard-count-invariant.
        self.net.profile_window_close(horizon.as_nanos());
    }
}

/// A sharded deployment of the fig-8 testbed: the same construction
/// surface as [`crate::testbed::Testbed`], executed as N shards
/// with shard-count-independent merged outputs.
pub struct ShardedTestbed {
    sim: ShardedSim<NetShard>,
    table: DomainTable,
    owners: Vec<usize>,
    topo: Topology,
    /// Next external-injection sequence number (one per *logical*
    /// injection: a mirrored `LinkSet` reuses its original's key, so the
    /// key stream never depends on how endpoints are packed).
    ext_seq: u64,
    _seed_echo: SeedEcho,
}

impl ShardedTestbed {
    /// Build a sharded testbed over `topo` with `shards` shards and start
    /// the driver loops on the control domain. `shards` is a simulation
    /// *configuration*: it selects the partition.
    pub fn new(
        topo: Topology,
        cfg: TestbedConfig,
        hint: PartitionHint,
        shards: usize,
    ) -> ShardedTestbed {
        let shards = shards.max(1);
        let table = DomainTable::new(&topo);
        let lookahead = lookahead_of(&topo);
        let assign = partition_devices(&topo, hint, shards);

        let mut owners = vec![0usize; table.count() as usize];
        owners.iter_mut().zip(&assign).for_each(|(o, &s)| *o = s);
        for (h, &(sw, _)) in topo.hosts.iter().enumerate() {
            // Hosts are co-located with their attached device.
            let Some(&dev_shard) = assign.get(usize::from(sw)) else {
                panic!("host {h} attached to unknown switch {sw}");
            };
            owners[table.num_switches as usize + h] = dev_shard;
        }
        // Control is pinned to shard 0; the external pseudo-domain only
        // keys injections and owns nothing.
        owners[table.control() as usize] = 0;
        owners[table.external() as usize] = 0;

        let worlds: Vec<NetShard> = (0..shards)
            .map(|shard| {
                let mut net = Network::new(
                    topo.clone(),
                    cfg.snapshot.clone(),
                    cfg.lb,
                    cfg.latency.clone(),
                    cfg.driver.clone(),
                    cfg.queue_capacity_bytes,
                    cfg.seed,
                );
                net.enable_sharded_mode(lookahead);
                NetShard {
                    net,
                    table,
                    owners: owners.clone(),
                    shard,
                    seqs: vec![0; table.count() as usize],
                }
            })
            .collect();
        let sim = ShardedSim::new(worlds, lookahead);

        let mut tb = ShardedTestbed {
            sim,
            table,
            owners,
            topo,
            ext_seq: 0,
            _seed_echo: SeedEcho::new("fabric::shard::testbed", cfg.seed),
        };
        tb.inject(Instant::ZERO, NetEvent::ObserverTick);
        if cfg.driver.keepalive_period.is_some() {
            tb.inject(Instant::ZERO, NetEvent::KeepaliveTick);
        }
        if let Some(first) = cfg.driver.snapshot_period {
            tb.inject(Instant::ZERO + first, NetEvent::ScheduleSnapshot);
        }
        if let Some(first) = cfg.driver.poll_period {
            tb.inject(Instant::ZERO + first, NetEvent::PollSweep);
        }
        tb
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.sim.num_shards()
    }

    /// The conservative lookahead in force.
    pub fn lookahead(&self) -> Duration {
        lookahead_of(&self.topo)
    }

    fn ext_key(&mut self) -> u64 {
        let key = pack_key(self.table.external(), self.ext_seq);
        self.ext_seq += 1;
        key
    }

    fn owner(&self, domain: u32) -> usize {
        let Some(&owner) = self.owners.get(domain as usize) else {
            panic!("domain {domain} has no owner entry");
        };
        owner
    }

    /// Inject one external event, routed to its domain's owner and keyed
    /// from the external pseudo-domain's counter. The counter advances
    /// once per call, independent of the partition, so injection keys —
    /// and therefore queue order — are shard-count-invariant.
    fn inject(&mut self, at: Instant, ev: NetEvent) {
        let shard = self.owner(self.table.of(&ev));
        let key = self.ext_key();
        self.sim.inject(shard, at, key, ev);
    }

    /// Inject a link-state change: the owning shard gets the full handler
    /// (state + metrics + trace); if the cable's peer endpoint lives on a
    /// different shard, that shard gets a state-only mirror under the
    /// *same* key so both replicas see the flip at the same point in the
    /// event order.
    fn inject_link(&mut self, at: Instant, sw: u16, port: u16, up: bool) {
        let owner = self.owner(self.table.device(sw));
        let key = self.ext_key();
        self.sim
            .inject(owner, at, key, NetEvent::LinkSet { sw, port, up });
        if let Some(PortPeer::Switch { switch: peer, .. }) = self
            .topo
            .ports
            .get(usize::from(sw))
            .and_then(|ports| ports.get(usize::from(port)))
            .copied()
        {
            let peer_owner = self.owner(self.table.device(peer));
            if peer_owner != owner {
                self.sim
                    .inject(peer_owner, at, key, NetEvent::LinkSet { sw, port, up });
            }
        }
    }

    /// Attach a traffic source to `host` (installed on the owning
    /// replica) and schedule its first wake.
    pub fn set_source(&mut self, host: u32, start: Instant, source: Box<dyn Source>) {
        let owner = self.owner(self.table.host(host));
        self.sim.world_mut(owner).net.set_source(host, source);
        self.inject(start, NetEvent::HostWake { host });
    }

    /// Ask the observer to initiate one snapshot at `at`.
    pub fn snapshot_at(&mut self, at: Instant) {
        self.inject(at, NetEvent::ScheduleSnapshot);
    }

    /// Start one polling sweep at `at`.
    pub fn poll_at(&mut self, at: Instant) {
        self.inject(at, NetEvent::PollSweep);
    }

    /// Kill device `dev`'s snapshot participation at `at`.
    pub fn fail_device_at(&mut self, at: Instant, dev: u16) {
        self.inject(at, NetEvent::DeviceFault { sw: dev });
    }

    /// Flap the link at (`dev`, `port`): down at `at`, back up after
    /// `down_for`. Both endpoint replicas observe the change.
    pub fn flap_link_at(&mut self, at: Instant, dev: u16, port: u16, down_for: Duration) {
        self.inject_link(at, dev, port, false);
        self.inject_link(at + down_for, dev, port, true);
    }

    /// Crash device `dev`'s control plane at `at`; it restarts after
    /// `down_for` and resyncs via the control domain.
    pub fn crash_cp_at(&mut self, at: Instant, dev: u16, down_for: Duration) {
        self.inject(at, NetEvent::CpCrash { sw: dev });
        self.inject(at + down_for, NetEvent::CpRecover { sw: dev });
    }

    /// Install a notification-export fault on device `dev` (owner
    /// replica only — the fault intercepts the device's own exports).
    pub fn set_notif_fault(&mut self, dev: u16, cfg: NotifFaultConfig) {
        let owner = self.owner(self.table.device(dev));
        self.sim.world_mut(owner).net.set_notif_fault(dev, cfg);
    }

    /// Degrade the PTP time plane for every subsequent initiation
    /// fan-out. Applied to every replica: the offsets are consulted on
    /// the control domain, but the configuration is global static state.
    pub fn set_ptp_degradation(&mut self, deg: timesync::PtpDegradation) {
        for i in 0..self.sim.num_shards() {
            self.sim.world_mut(i).net.set_ptp_degradation(deg);
        }
    }

    /// Enable the per-delivery replay log on every replica.
    pub fn enable_delivery_log(&mut self) {
        for i in 0..self.sim.num_shards() {
            self.sim.world_mut(i).net.enable_delivery_log();
        }
    }

    /// Enable JSONL tracing on every replica. Shard 0 stamps the
    /// `trace.meta` header; the other shards install a bare sink so the
    /// merged stream has exactly one header.
    pub fn enable_trace(&mut self) {
        let t = self.sim.now().as_nanos();
        self.sim
            .world_mut(0)
            .net
            .set_trace(obs::sinks::TraceSink::jsonl(), t);
        for i in 1..self.sim.num_shards() {
            self.sim.world_mut(i).net.instr.trace = obs::sinks::TraceSink::jsonl();
        }
    }

    /// Run the simulation until `deadline`.
    pub fn run_until(&mut self, deadline: Instant) -> RunOutcome {
        self.sim.run_until(deadline)
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.sim.now()
    }

    /// Total events dispatched across all shards. Includes link-shadow
    /// mirror deliveries, so the count may differ (slightly) across shard
    /// counts; it is a throughput measure, not a merged artifact.
    pub fn events_dispatched(&self) -> u64 {
        self.sim.events_dispatched()
    }

    /// Pending events across all shards.
    pub fn pending(&self) -> u64 {
        self.sim.pending()
    }

    /// Window/message statistics (shard-count-dependent by nature; never
    /// merged into simulation metrics).
    pub fn shard_stats(&self) -> netsim::shard::ShardStats {
        self.sim.stats()
    }

    /// The network replica owned by `shard` (inspection and tests).
    pub fn network_mut(&mut self, shard: usize) -> &mut Network {
        &mut self.sim.world_mut(shard).net
    }

    /// Completed snapshots. Observer state lives on the control domain,
    /// so shard 0's replica holds the only populated record list.
    pub fn snapshots(&self) -> &[SnapshotRecord] {
        &self.sim.world(0).net.instr.snapshots
    }

    /// Packets delivered per host: elementwise sum over replicas (each
    /// host's slot is only ever touched by its owner).
    pub fn host_rx(&self) -> Vec<u64> {
        let mut merged: Vec<u64> = Vec::new();
        for i in 0..self.sim.num_shards() {
            let rx = &self.sim.world(i).net.instr.host_rx;
            if merged.len() < rx.len() {
                merged.resize(rx.len(), 0);
            }
            for (m, v) in merged.iter_mut().zip(rx) {
                *m += v;
            }
        }
        merged
    }

    /// Fig. 9's synchronization metric over the merged per-epoch sync
    /// map: min of earliest, max of latest, sum of counts — the same
    /// fold the per-notification updates apply, so any grouping of
    /// devices onto shards reconstructs the same map.
    pub fn sync_spreads(&self, min_units: u64) -> Vec<(Epoch, Duration)> {
        let mut merged: std::collections::BTreeMap<Epoch, (Instant, Instant, u64)> =
            std::collections::BTreeMap::new();
        for i in 0..self.sim.num_shards() {
            for (&epoch, &(lo, hi, n)) in &self.sim.world(i).net.instr.sync {
                let e = merged.entry(epoch).or_insert((lo, hi, 0));
                e.0 = e.0.min(lo);
                e.1 = e.1.max(hi);
                e.2 += n;
            }
        }
        merged
            .iter()
            .filter(|(_, (_, _, n))| *n >= min_units)
            .map(|(&e, &(lo, hi, _))| (e, hi.saturating_since(lo)))
            .collect()
    }

    /// Polling sweeps, merged: per sweep, the union of every shard's
    /// samples in `(read_time, unit)` order (a canonical order no serial
    /// interleaving is needed for).
    pub fn polls(&self) -> Vec<PollSweepRecord> {
        let mut sweeps = 0;
        for i in 0..self.sim.num_shards() {
            sweeps = sweeps.max(self.sim.world(i).net.instr.polls.len());
        }
        let mut merged = vec![PollSweepRecord::default(); sweeps];
        for i in 0..self.sim.num_shards() {
            for (sweep, rec) in self.sim.world(i).net.instr.polls.iter().enumerate() {
                if let Some(m) = merged.get_mut(sweep) {
                    m.samples.extend(rec.samples.iter().copied());
                }
            }
        }
        for rec in &mut merged {
            rec.samples.sort_by_key(|&(unit, _, at)| (at, unit));
        }
        merged
    }

    /// The merged per-delivery replay log, if enabled: per-shard logs
    /// grouped by receiving device (stable, so each device's processing
    /// order — which is shard-count-invariant — is preserved), devices in
    /// id order. Returns `None` when the log was never enabled.
    pub fn delivery_log(&self) -> Option<Vec<DeliveryEvent>> {
        let mut merged: Vec<DeliveryEvent> = Vec::new();
        let mut enabled = false;
        for i in 0..self.sim.num_shards() {
            if let Some(log) = &self.sim.world(i).net.instr.delivery_log {
                enabled = true;
                merged.extend(log.iter().copied());
            }
        }
        if !enabled {
            return None;
        }
        merged.sort_by_key(|d| d.unit.device);
        Some(merged)
    }

    /// Drain and merge every replica's trace buffer into the canonical
    /// stream (header first, then `(time, content)` order; see
    /// [`obs::sinks::merge_shard_lines`]).
    pub fn take_trace_lines(&mut self) -> Vec<String> {
        let per_shard: Vec<Vec<String>> = (0..self.sim.num_shards())
            .map(|i| self.sim.world_mut(i).net.take_trace_lines())
            .collect();
        obs::sinks::merge_shard_lines(per_shard)
    }

    /// Take the merged metrics registry: each replica's folded registry
    /// combined under [`obs::metrics::Metrics::merge_from`] (counter and
    /// histogram sums, `_max` gauges as maxima). Inert replicas fold
    /// zeros, so the merged totals equal a single-process run's.
    pub fn take_metrics(&mut self) -> obs::metrics::Metrics {
        let mut merged = self.sim.world_mut(0).net.take_metrics();
        for i in 1..self.sim.num_shards() {
            merged.merge_from(&self.sim.world_mut(i).net.take_metrics());
        }
        merged
    }

    /// Export the merged metrics registry as JSON.
    pub fn export_metrics(&mut self) -> String {
        self.take_metrics().to_json()
    }

    /// Enable the deterministic profiler on every replica. Call before
    /// the first `run_until` — the accounting must cover the whole run.
    pub fn enable_profiling(&mut self) {
        for i in 0..self.sim.num_shards() {
            self.sim.world_mut(i).net.enable_profiler();
        }
    }

    /// Take the merged profile: per-replica accounting cores summed
    /// domainwise. Each domain's counters live on exactly one replica
    /// (the owner's — inert replicas hold zeros), and every replica
    /// counts every window (every window closes on all shards),
    /// so the merge asserts window-count agreement and sums the rest.
    /// The observer-pipeline section comes from shard 0, where the
    /// control domain is pinned.
    ///
    /// # Panics
    /// If profiling was never enabled.
    pub fn take_profile(&mut self) -> obs::profile::Profile {
        let Some(mut merged) = self.sim.world_mut(0).net.take_net_profiler() else {
            panic!("take_profile called but profiling was never enabled");
        };
        for i in 1..self.sim.num_shards() {
            let Some(other) = self.sim.world_mut(i).net.take_net_profiler() else {
                panic!("shard {i} was built without profiling");
            };
            merged.core.merge_from(&other.core);
        }
        let observer = &self.sim.world_mut(0).net.observer;
        let pipeline = observer.pipeline.stats().profile_section();
        profile_of(&merged.table, &merged.core, pipeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::switchmod::SnapshotConfig;
    use crate::traffic::Emission;
    use netsim::rng::SimRng;
    use telemetry::MetricKind;
    use wire::FlowKey;

    struct Cbr {
        src: u32,
        dst: u32,
        rate_pps: u64,
    }

    impl Source for Cbr {
        fn on_wake(
            &mut self,
            now: Instant,
            _rng: &mut SimRng,
            out: &mut Vec<Emission>,
        ) -> Option<Instant> {
            out.push(Emission {
                flow: FlowKey::tcp(self.src, self.dst, 10_000, 80),
                bytes: 1_000,
            });
            Some(now + Duration::from_nanos(1_000_000_000 / self.rate_pps))
        }
    }

    fn sharded_leaf_spine(shards: usize, channel_state: bool) -> ShardedTestbed {
        let topo = Topology::leaf_spine(2, 2, 3);
        let snap = SnapshotConfig {
            modulus: 16,
            channel_state,
            ingress_metric: MetricKind::PacketCount,
            egress_metric: MetricKind::PacketCount,
        };
        let mut tb = ShardedTestbed::new(
            topo,
            TestbedConfig::new(snap),
            PartitionHint::LeafSpine { leaves: 2 },
            shards,
        );
        for h in 0..3u32 {
            tb.set_source(
                h,
                Instant::ZERO,
                Box::new(Cbr {
                    src: h,
                    dst: h + 3,
                    rate_pps: 50_000,
                }),
            );
            tb.set_source(
                h + 3,
                Instant::ZERO,
                Box::new(Cbr {
                    src: h + 3,
                    dst: h,
                    rate_pps: 50_000,
                }),
            );
        }
        tb
    }

    fn run_to_horizon(tb: &mut ShardedTestbed) {
        tb.run_until(Instant::from_nanos(50_000_000));
    }

    /// Everything a run produces that the equivalence contract covers,
    /// rendered to comparable bytes.
    fn run_artifacts(shards: usize, channel_state: bool) -> (String, String, String) {
        let mut tb = sharded_leaf_spine(shards, channel_state);
        tb.enable_trace();
        tb.enable_delivery_log();
        tb.snapshot_at(Instant::from_nanos(2_000_000));
        run_to_horizon(&mut tb);
        let snaps = format!("{:?}", tb.snapshots());
        let misc = format!(
            "rx={:?} sync={:?} log={:?}",
            tb.host_rx(),
            tb.sync_spreads(1),
            tb.delivery_log().map(|l| l.len()),
        );
        let trace = tb.take_trace_lines().join("\n");
        (snaps, misc, trace)
    }

    #[test]
    fn partition_assigns_every_device_in_range() {
        for (topo, hint) in [
            (
                Topology::leaf_spine(2, 2, 3),
                PartitionHint::LeafSpine { leaves: 2 },
            ),
            (Topology::fat_tree(4), PartitionHint::FatTree { k: 4 }),
            (Topology::line(5), PartitionHint::Generic),
        ] {
            for shards in [1, 2, 3, 4, 8] {
                let assign = partition_devices(&topo, hint, shards);
                assert_eq!(assign.len(), usize::from(topo.num_switches()));
                assert!(assign.iter().all(|&s| s < shards));
                if shards == 1 {
                    assert_eq!(cut_edges(&topo, &assign), 0);
                }
            }
        }
    }

    #[test]
    fn fat_tree_partition_keeps_pods_whole() {
        let topo = Topology::fat_tree(4);
        let assign = partition_devices(&topo, PartitionHint::FatTree { k: 4 }, 4);
        // k=4: edges 0..8 (2 per pod), aggs 8..16 (2 per pod).
        for pod in 0..4usize {
            let edge0 = assign[pod * 2];
            assert_eq!(assign[pod * 2 + 1], edge0, "pod {pod} edge split");
            assert_eq!(assign[8 + pod * 2], edge0, "pod {pod} agg split");
            assert_eq!(assign[8 + pod * 2 + 1], edge0, "pod {pod} agg split");
        }
        // Pod-internal links (edge<->agg) are never cut; only agg<->core.
        let cut = cut_edges(&topo, &assign);
        assert!(cut > 0 && cut <= 16, "agg-core cut edges only, got {cut}");
    }

    #[test]
    fn lookahead_is_min_link_propagation() {
        assert_eq!(
            lookahead_of(&Topology::leaf_spine(2, 2, 3)),
            Duration::from_nanos(300)
        );
        assert_eq!(
            lookahead_of(&Topology::single_switch(2)),
            Duration::from_nanos(500)
        );
    }

    #[test]
    fn sharded_run_completes_snapshots() {
        let mut tb = sharded_leaf_spine(2, false);
        tb.snapshot_at(Instant::from_nanos(2_000_000));
        run_to_horizon(&mut tb);
        assert_eq!(tb.snapshots().len(), 1, "snapshot must complete");
        assert!(!tb.snapshots()[0].forced);
        assert!(tb.snapshots()[0].snapshot.fully_consistent());
        let rx: u64 = tb.host_rx().iter().sum();
        assert!(rx > 2_000, "expected steady delivery, got {rx}");
    }

    #[test]
    fn artifacts_are_identical_at_any_shard_count() {
        let reference = run_artifacts(1, true);
        for shards in [2, 3, 4] {
            let got = run_artifacts(shards, true);
            assert_eq!(got.0, reference.0, "snapshots diverge at {shards} shards");
            assert_eq!(
                got.1, reference.1,
                "merged outputs diverge at {shards} shards"
            );
            assert_eq!(got.2, reference.2, "traces diverge at {shards} shards");
        }
    }

    #[test]
    fn profiles_are_identical_at_any_shard_count() {
        let render = |shards: usize| {
            let mut tb = sharded_leaf_spine(shards, true);
            tb.enable_profiling();
            tb.snapshot_at(Instant::from_nanos(2_000_000));
            run_to_horizon(&mut tb);
            tb.take_profile().to_json()
        };
        let reference = render(1);
        assert!(reference.contains("\"schema\": \"speedlight-profile/v1\""));
        assert!(reference.contains("\"kind\":\"device\""));
        assert!(reference.contains("\"kind\":\"host\""));
        assert!(reference.contains("\"kind\":\"control\""));
        assert!(
            reference.contains("\"pipeline\": {"),
            "staged pipeline section missing"
        );
        for shards in [2, 3, 4] {
            assert_eq!(
                render(shards),
                reference,
                "profile diverges at {shards} shards"
            );
        }
    }

    #[test]
    fn profiling_does_not_change_sharded_artifacts() {
        // Same scenario as `run_artifacts`, but with the profiler on:
        // the dispatch hooks are pure accounting, so every merged
        // artifact must be byte-identical to the unprofiled run.
        let reference = run_artifacts(2, true);
        let mut tb = sharded_leaf_spine(2, true);
        tb.enable_profiling();
        tb.enable_trace();
        tb.enable_delivery_log();
        tb.snapshot_at(Instant::from_nanos(2_000_000));
        run_to_horizon(&mut tb);
        let snaps = format!("{:?}", tb.snapshots());
        let misc = format!(
            "rx={:?} sync={:?} log={:?}",
            tb.host_rx(),
            tb.sync_spreads(1),
            tb.delivery_log().map(|l| l.len()),
        );
        let trace = tb.take_trace_lines().join("\n");
        assert_eq!(snaps, reference.0, "profiling changed snapshots");
        assert_eq!(misc, reference.1, "profiling changed merged outputs");
        assert_eq!(trace, reference.2, "profiling changed the trace");
        let profile = tb.take_profile();
        assert!(profile.windows > 0, "no windows accounted");
        assert!(
            profile.domains.iter().any(|d| d.events > 0),
            "no events accounted"
        );
    }

    #[test]
    fn merged_metrics_are_identical_at_any_shard_count() {
        let render = |shards: usize| {
            let mut tb = sharded_leaf_spine(shards, false);
            tb.snapshot_at(Instant::from_nanos(2_000_000));
            run_to_horizon(&mut tb);
            tb.export_metrics()
        };
        let reference = render(1);
        assert!(reference.contains("\"snapshots.completed\": 1"));
        for shards in [2, 4] {
            assert_eq!(
                render(shards),
                reference,
                "metrics diverge at {shards} shards"
            );
        }
    }
}
