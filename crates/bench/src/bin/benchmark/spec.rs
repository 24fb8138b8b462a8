//! What the benchmark measures: the workloads, the end-to-end metrics
//! with their bounds, and the names of the layer ledger. This is the one
//! table of bounds: `--compare` judges by it, and `BENCHMARK.json` at the
//! repository root restates the part its format can hold (a test below
//! holds the two equal).

use crate::des::{DesSpec, FAT_TREE8, FAT_TREE8_SHARDS2, FIG9_LEAF_SPINE};
use crate::stats::{Better, Bound};

pub const DEFAULT_SEED: u64 = 9;
/// Seconds of measured trials per workload when none is given.
pub const DEFAULT_SECONDS: u64 = 20;
/// A run measures at least this many trials however slow they are.
pub const MIN_TRIALS: usize = 3;
/// Runs (processes) per workload in the all-workloads document. Their
/// medians, not the trials of one process, say how far a metric moves
/// from run to run on this machine.
pub const RUNS: usize = 5;

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Des(DesSpec),
    Observer,
    RateSearch,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "fig9_leaf_spine",
        why: "The paper's testbed: a tiny cache-resident world on a dense timeline, where the event \
              queue's near list, fabric dispatch and per-packet unit logic do almost all the work.",
        kind: Kind::Des(FIG9_LEAF_SPINE),
    },
    Workload {
        name: "fat_tree8",
        why: "Same layers, other regime: 208 devices, a working set beyond cache, more hops and \
              ECMP choices; a win that only helps small worlds shows on fig9 and not here.",
        kind: Kind::Des(FAT_TREE8),
    },
    Workload {
        name: "fat_tree8_shards2",
        why: "The identical input through the sharded engine, 2 shards run inline on one thread \
              (KeyedQueue, window loop, inbox merge; the worker pool is not covered); a serial-engine \
              change that costs the sharded path shows only here.",
        kind: Kind::Des(FAT_TREE8_SHARDS2),
    },
    Workload {
        name: "observer_1m",
        why: "Bypasses the simulator: 8 epochs of 10^6 reports driven stage by stage through the \
              observer pipeline; every netsim or fabric change predicts no change here.",
        kind: Kind::Observer,
    },
    Workload {
        name: "fig10_rate_search",
        why: "The simulator as a control-plane queueing model: no data packets, a sparse timeline \
              on the queue's far-heap path, overloaded probes; also yields the paper's Fig. 10 number.",
        kind: Kind::RateSearch,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

const DES: &[&str] = &["fig9_leaf_spine", "fat_tree8", "fat_tree8_shards2"];

/// An end-to-end metric. `host` numbers are this machine's wall clock and
/// memory; `sim` numbers are simulated time and repeat exactly for a seed.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: &'static str,
    pub better: Better,
    pub bound: Bound,
    /// Workloads it is defined on; empty means all.
    pub on: &'static [&'static str],
}

impl EndToEnd {
    pub fn applies_to(&self, workload: &str) -> bool {
        self.on.is_empty() || self.on.contains(&workload)
    }
}

const TEN_PERCENT: Bound = Bound::Share {
    share: 0.10,
    floor: 0.0,
};

/// Host times get the widest bound the `BENCHMARK.json` format allows.
/// The issue asked for 10 %, which this shared 2-core micro-VM cannot
/// resolve: the medians of two sets of ten runs of one binary have
/// differed by 18 % (README, "Measured spread").
const HOST_TIME_SHARE: f64 = 0.25;

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        clock: "host",
        better: Better::Lower,
        // Most set-ups are far below 5 ms, where a share of the median is
        // finer than the timer's own jitter. `BENCHMARK.json` can hold
        // only the share.
        bound: Bound::Share {
            share: HOST_TIME_SHARE,
            floor: 0.005,
        },
        on: &[],
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        clock: "host",
        better: Better::Lower,
        bound: Bound::Share {
            share: HOST_TIME_SHARE,
            floor: 0.0,
        },
        on: &[],
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        clock: "host",
        better: Better::Lower,
        bound: TEN_PERCENT,
        on: &[],
    },
    EndToEnd {
        name: "fail_share",
        unit: "ratio",
        clock: "-",
        better: Better::Lower,
        bound: Bound::AnyWorsening,
        on: &[],
    },
    EndToEnd {
        name: "snap_latency_p50_us",
        unit: "us",
        clock: "sim",
        better: Better::Lower,
        bound: TEN_PERCENT,
        on: DES,
    },
    EndToEnd {
        name: "snap_latency_p90_us",
        unit: "us",
        clock: "sim",
        better: Better::Lower,
        bound: TEN_PERCENT,
        on: &["fig9_leaf_spine"],
    },
    EndToEnd {
        name: "sync_spread_p50_us",
        unit: "us",
        clock: "sim",
        better: Better::Lower,
        bound: TEN_PERCENT,
        on: DES,
    },
    EndToEnd {
        name: "max_snapshot_rate_hz",
        unit: "Hz",
        clock: "sim",
        better: Better::Higher,
        bound: TEN_PERCENT,
        on: &["fig10_rate_search"],
    },
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The three end-to-end metrics every workload has and that are never
/// zero — the ones `BENCHMARK.json` can gate (`--trace 0`).
pub const GATED: [&str; 3] = ["wall_s", "setup_s", "peak_rss_mb"];

/// The layer ledger (`--trace 1`), `<crate>.<module>.<metric>` with its
/// unit. A workload reports 0 for a layer it does not exercise. The
/// `sim.*` rows are the simulated-time results of the untraced reference
/// trial: end-to-end numbers, listed here because not every workload has
/// them and they are compared exactly, not against a bound.
pub const LEDGER: &[(&str, &str)] = &[
    ("netsim.queue.dense_ns_per_op", "ns"),
    ("netsim.queue.sparse_ns_per_op", "ns"),
    ("netsim.queue.busy_s", "s"),
    ("netsim.keyed_queue.ns_per_op", "ns"),
    ("netsim.sim.ns_per_event", "ns"),
    ("netsim.shard.ns_per_window", "ns"),
    ("netsim.shard.ns_per_msg", "ns"),
    ("netsim.shard.threaded_ns_per_window", "ns"),
    ("netsim.shard.windows", "count"),
    ("netsim.shard.messages", "count"),
    ("netsim.shard.stall_sim_ns_per_window", "ns"),
    ("fabric.network.busy_s", "s"),
    ("fabric.network.ns_per_event.ArriveIngress", "ns"),
    ("fabric.network.ns_per_event.EnqueueEgress", "ns"),
    ("fabric.network.ns_per_event.StartTx", "ns"),
    ("fabric.network.ns_per_event.TxDone", "ns"),
    ("fabric.network.ns_per_event.DeliverHost", "ns"),
    ("fabric.network.ns_per_event.HostWake", "ns"),
    ("fabric.network.ns_per_event.ScheduleSnapshot", "ns"),
    ("fabric.network.ns_per_event.DeviceInitiate", "ns"),
    ("fabric.network.ns_per_event.UnitInitiate", "ns"),
    ("fabric.network.ns_per_event.NotifyArrive", "ns"),
    ("fabric.network.ns_per_event.CpProcess", "ns"),
    ("fabric.network.ns_per_event.ReportArrive", "ns"),
    ("fabric.network.ns_per_event.ObserverTick", "ns"),
    ("fabric.network.ns_per_event.KeepaliveTick", "ns"),
    ("fabric.network.ns_per_event.other", "ns"),
    ("fabric.network.events_per_host_packet", "ratio"),
    ("fabric.network.snapshot_overhead_share", "ratio"),
    ("fabric.testbed.bytes_per_device", "B"),
    ("core.unit.ns_per_packet.current", "ns"),
    ("core.unit.ns_per_packet.in_flight", "ns"),
    ("core.unit.ns_per_packet.advance", "ns"),
    ("core.control.ns_per_notification.advance", "ns"),
    ("core.control.ns_per_notification.duplicate", "ns"),
    ("core.control.notifications", "count"),
    ("core.control.queue_depth_max", "count"),
    ("core.control.notify_drops", "count"),
    ("core.pipeline.stage_busy_s.collect", "s"),
    ("core.pipeline.stage_busy_s.validate", "s"),
    ("core.pipeline.stage_busy_s.assemble", "s"),
    ("core.pipeline.stage_busy_s.finalize", "s"),
    ("core.pipeline.ns_per_report", "ns"),
    ("core.pipeline.accepted_per_offered", "ratio"),
    ("core.pipeline.backpressure_rejects", "count"),
    ("core.pipeline.peak_collect_depth", "count"),
    ("core.pipeline.peak_pending_values", "count"),
    ("workloads.poisson.ns_per_packet", "ns"),
    ("telemetry.metric_bank.ns_per_packet", "ns"),
    ("obs.trace.overhead_share", "ratio"),
    ("obs.trace.ns_per_event", "ns"),
    ("bench.trace.overhead_share", "ratio"),
    ("bench.trace.spans", "count"),
    ("bench.layers.explained_share", "ratio"),
    ("sim.events", "count"),
    ("sim.snapshots", "count"),
    ("sim.snap_latency_p50_us", "us"),
    ("sim.snap_latency_p90_us", "us"),
    ("sim.sync_spread_p50_us", "us"),
    ("sim.max_snapshot_rate_hz", "Hz"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    /// `(name, unit, better, bound)` of every entry of one of the lists;
    /// `better` and `bound` are empty or 0 where the list has none.
    fn entries(doc: &Value, key: &str) -> Vec<(String, String, String, f64)> {
        doc.get(key)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
                (field("name"), field("unit"), field("better"), bound)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_restates_this_table() {
        let doc = json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();

        let workloads: Vec<String> = entries(&doc, "workloads")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        let seconds = doc.get("run_seconds").and_then(Value::as_f64);
        assert_eq!(seconds, Some(DEFAULT_SECONDS as f64));

        // The gated metrics carry the bounds `--compare` judges by.
        let ours: Vec<(String, String, String, f64)> = GATED
            .iter()
            .map(|&g| {
                let m = end_to_end(g).unwrap();
                let Bound::Share { share, .. } = m.bound else {
                    panic!("{g} has no share for BENCHMARK.json to hold");
                };
                (
                    g.to_string(),
                    m.unit.to_string(),
                    m.better.label().to_string(),
                    share,
                )
            })
            .collect();
        assert_eq!(entries(&doc, "end_to_end"), ours);

        let ledger: Vec<(String, String)> = LEDGER
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        let theirs: Vec<(String, String)> = entries(&doc, "per_layer")
            .into_iter()
            .map(|(n, u, _, _)| (n, u))
            .collect();
        assert_eq!(theirs, ledger);
    }

    #[test]
    fn every_metric_names_known_workloads() {
        for m in &END_TO_END {
            for w in m.on {
                assert!(
                    workload(w).is_some(),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
        }
        assert!(workload("emulation").is_none());
    }
}
