//! Fig. 12: evaluating load balancing with snapshots vs. polling.
//!
//! For each workload (Hadoop, GraphX, memcache) and each load balancer
//! (ECMP, flowlet), take a series of snapshots of the **EWMA of packet
//! interarrival time** at egress and compute, per snapshot, the standard
//! deviation across the uplink ports of each leaf ("uplinks were compared
//! only to other uplinks on the same switch", §8.3). The polling baseline
//! computes the same statistic from asynchronous sweep reads.
//!
//! Paper shapes to reproduce:
//! * Hadoop — flowlets balance much better than ECMP, but *polling shows
//!   little-to-no gain for flowlets*;
//! * GraphX — polling consistently *underestimates* the imbalance;
//! * memcache — load is nearly perfectly balanced (µs-scale deviations),
//!   and polling *overestimates* the imbalance.

use crate::common::{attach_workload, leaf_uplinks, render_cdf, standard_testbed, Workload};
use fabric::network::DriverConfig;
use fabric::switchmod::SnapshotConfig;
use fabric::topology::LbKind;
use netsim::time::{Duration, Instant};
use sim_stats::{std_dev, Cdf};
use speedlight_core::types::{Direction, UnitId};

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig12Config {
    /// Measured duration per run.
    pub duration: Duration,
    /// Snapshot period.
    pub snapshot_period: Duration,
    /// Polling sweep period.
    pub poll_period: Duration,
    /// Warm-up to skip (EWMA priming).
    pub warmup: Duration,
    /// Flowlet gap (µs) for the flowlet arm.
    pub flowlet_gap_us: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig12Config {
    fn default() -> Self {
        Fig12Config {
            duration: Duration::from_millis(2_000),
            snapshot_period: Duration::from_millis(2),
            poll_period: Duration::from_millis(5),
            warmup: Duration::from_millis(100),
            flowlet_gap_us: 60,
            seed: 12,
        }
    }
}

/// One panel (workload) of Fig. 12: the four CDFs, stddev in microseconds.
#[derive(Debug)]
pub struct Fig12Panel {
    /// The workload.
    pub workload: Workload,
    /// ECMP measured by polling.
    pub ecmp_polling: Cdf,
    /// ECMP measured by snapshots.
    pub ecmp_snapshots: Cdf,
    /// Flowlet measured by polling.
    pub flowlet_polling: Cdf,
    /// Flowlet measured by snapshots.
    pub flowlet_snapshots: Cdf,
}

/// All three panels.
#[derive(Debug)]
pub struct Fig12 {
    /// Hadoop, GraphX, memcache panels.
    pub panels: Vec<Fig12Panel>,
}

/// Run one (workload, lb) cell; returns (snapshot stddevs, polling
/// stddevs) in microseconds. Public for the examples and debug bins.
pub fn run_cell(cfg: &Fig12Config, workload: Workload, lb: LbKind) -> (Vec<f64>, Vec<f64>) {
    let (snap, poll, _) = run_cell_inner(cfg, workload, lb, false);
    (snap, poll)
}

/// [`run_cell`] with the snapshot-lifecycle trace captured as JSONL lines.
pub fn run_cell_traced(
    cfg: &Fig12Config,
    workload: Workload,
    lb: LbKind,
) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    run_cell_inner(cfg, workload, lb, true)
}

fn run_cell_inner(
    cfg: &Fig12Config,
    workload: Workload,
    lb: LbKind,
    trace: bool,
) -> (Vec<f64>, Vec<f64>, Vec<String>) {
    let snapshot = SnapshotConfig::ewma(512);
    let driver = DriverConfig {
        snapshot_period: Some(cfg.snapshot_period),
        poll_period: Some(cfg.poll_period),
        ..DriverConfig::default()
    };
    let mut tb = standard_testbed(snapshot, lb, driver, cfg.seed);
    attach_workload(&mut tb, workload, cfg.seed);
    if trace {
        tb.enable_trace();
    }
    tb.run_until(Instant::ZERO + cfg.warmup + cfg.duration);
    let trace_lines = tb.take_trace_lines();

    let uplinks = leaf_uplinks();
    let warm = Instant::ZERO + cfg.warmup;

    // Per-snapshot, per-leaf stddev across uplink egress EWMAs.
    let mut snap_devs = Vec::new();
    for rec in tb.snapshots() {
        if rec.completed_at < warm {
            continue;
        }
        for (sw, ports) in &uplinks {
            let values: Vec<f64> = ports
                .iter()
                .filter_map(|&p| {
                    rec.snapshot
                        .units
                        .get(&UnitId::egress(*sw, p))
                        .and_then(|o| o.local())
                })
                .map(|ns| ns as f64 / 1e3)
                .collect();
            if values.len() == ports.len() && values.iter().all(|&v| v > 0.0) {
                snap_devs.push(std_dev(&values));
            }
        }
    }

    // Per-sweep, per-leaf stddev from the asynchronous polled reads.
    let mut poll_devs = Vec::new();
    for sweep in tb.polls() {
        if sweep.samples.iter().any(|s| s.2 < warm) || sweep.samples.is_empty() {
            continue;
        }
        for (sw, ports) in &uplinks {
            let values: Vec<f64> = sweep
                .samples
                .iter()
                .filter(|(u, _, _)| {
                    u.device == *sw && u.direction == Direction::Egress && ports.contains(&u.port)
                })
                .map(|&(_, v, _)| v as f64 / 1e3)
                .collect();
            if values.len() == ports.len() && values.iter().all(|&v| v > 0.0) {
                poll_devs.push(std_dev(&values));
            }
        }
    }
    (snap_devs, poll_devs, trace_lines)
}

/// The workload × load-balancer grid, flattened into six independent cells
/// in `Workload::all()` order (ECMP before flowlet within each workload).
fn grid_cells(cfg: &Fig12Config) -> Vec<(Workload, LbKind)> {
    Workload::all()
        .into_iter()
        .flat_map(|w| {
            [
                (w, LbKind::Ecmp),
                (
                    w,
                    LbKind::Flowlet {
                        gap_us: cfg.flowlet_gap_us,
                    },
                ),
            ]
        })
        .collect()
}

/// Run the full grid with tracing on and merge the per-cell traces in cell
/// (input) order, so the result is byte-identical at any worker count.
pub fn grid_trace(cfg: &Fig12Config) -> Vec<String> {
    let cells = grid_cells(cfg);
    let traces = parfan::map_labeled(
        &cells,
        |_, &(w, lb)| format!("fig12-trace workload={w:?} lb={lb:?} seed={}", cfg.seed),
        |_, &(w, lb)| run_cell_traced(cfg, w, lb).2,
    );
    obs::sinks::merge_job_lines(traces)
}

/// Run the experiment. Each cell builds its own testbed from `cfg.seed` and
/// fans out across cores; panels reassemble in `Workload::all()` order.
pub fn run(cfg: &Fig12Config) -> Fig12 {
    let cells = grid_cells(cfg);
    let results = parfan::map_labeled(
        &cells,
        |_, &(w, lb)| format!("fig12 workload={w:?} lb={lb:?} seed={}", cfg.seed),
        |_, &(w, lb)| run_cell(cfg, w, lb),
    );
    let mut cells_out = results.into_iter();
    let panels = Workload::all()
        .into_iter()
        .map(|workload| {
            let (es, ep) = cells_out.next().expect("ecmp cell");
            let (fs, fp) = cells_out.next().expect("flowlet cell");
            Fig12Panel {
                workload,
                ecmp_polling: Cdf::new(ep),
                ecmp_snapshots: Cdf::new(es),
                flowlet_polling: Cdf::new(fp),
                flowlet_snapshots: Cdf::new(fs),
            }
        })
        .collect();
    Fig12 { panels }
}

impl Fig12 {
    /// Render all panels.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "Fig. 12: stddev of uplink EWMA-of-interarrival across same-leaf \
             uplinks (us)\n",
        );
        for p in &self.panels {
            out.push_str(&format!("\n== ({}) ==\n", p.workload.label()));
            out.push_str(&render_cdf("ECMP Polling", &p.ecmp_polling, 15, "us"));
            out.push_str(&render_cdf("ECMP Snapshots", &p.ecmp_snapshots, 15, "us"));
            out.push_str(&render_cdf("Flowlet Polling", &p.flowlet_polling, 15, "us"));
            out.push_str(&render_cdf(
                "Flowlet Snapshots",
                &p.flowlet_snapshots,
                15,
                "us",
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig12Config {
        Fig12Config {
            duration: Duration::from_millis(500),
            snapshot_period: Duration::from_millis(2),
            poll_period: Duration::from_millis(5),
            warmup: Duration::from_millis(80),
            flowlet_gap_us: 60,
            seed: 12,
        }
    }

    #[test]
    fn hadoop_flowlets_beat_ecmp_under_snapshots_but_polling_understates_it() {
        let cfg = small();
        let (ecmp_snap, ecmp_poll) = run_cell(&cfg, Workload::Hadoop, LbKind::Ecmp);
        let (fl_snap, fl_poll) = run_cell(&cfg, Workload::Hadoop, LbKind::Flowlet { gap_us: 60 });
        assert!(ecmp_snap.len() > 50 && fl_snap.len() > 50);
        let snap_ratio =
            sim_stats::percentile(&ecmp_snap, 0.5) / sim_stats::percentile(&fl_snap, 0.5).max(1e-9);
        let poll_ratio =
            sim_stats::percentile(&ecmp_poll, 0.5) / sim_stats::percentile(&fl_poll, 0.5).max(1e-9);
        // "in reality flowlets improve balance significantly" (§8.3):
        assert!(
            snap_ratio > 3.0,
            "snapshots should show a large flowlet gain, got {snap_ratio:.1}x"
        );
        // "polling shows little-to-no gain for flowlets": the asynchronous
        // view understates the improvement.
        assert!(
            poll_ratio < snap_ratio * 0.85,
            "polling should understate the gain: poll {poll_ratio:.1}x vs              snapshots {snap_ratio:.1}x"
        );
    }

    #[test]
    fn memcache_is_far_better_balanced_than_hadoop() {
        let cfg = small();
        let (hadoop, _) = run_cell(&cfg, Workload::Hadoop, LbKind::Ecmp);
        let (mc, _) = run_cell(&cfg, Workload::Memcache, LbKind::Ecmp);
        assert!(!hadoop.is_empty() && !mc.is_empty());
        let mh = sim_stats::percentile(&hadoop, 0.5);
        let mm = sim_stats::percentile(&mc, 0.5);
        assert!(
            mm * 3.0 < mh,
            "memcache median {mm:.2} us vs hadoop {mh:.2} us"
        );
    }

    #[test]
    fn memcache_polling_overestimates_the_imbalance() {
        // "Our Memcache workload is very evenly distributed, but … polling
        //  consistently overestimates the imbalance" (§8.3).
        let cfg = small();
        let (snap, poll) = run_cell(&cfg, Workload::Memcache, LbKind::Ecmp);
        let ms = sim_stats::percentile(&snap, 0.5);
        let mp = sim_stats::percentile(&poll, 0.5);
        assert!(
            mp > ms,
            "polling median {mp:.2} us should exceed snapshot median {ms:.2} us"
        );
    }

    #[test]
    fn graphx_polling_misestimates_the_imbalance() {
        // The figure's very point: asynchronous polling measures a
        // different distribution than consistent snapshots (for GraphX the
        // paper reports consistent underestimation).
        let cfg = small();
        let (snaps, polls) = run_cell(&cfg, Workload::GraphX, LbKind::Ecmp);
        assert!(snaps.len() > 30, "snapshots: {}", snaps.len());
        assert!(polls.len() > 10, "polls: {}", polls.len());
        let ms = sim_stats::percentile(&snaps, 0.5);
        let mp = sim_stats::percentile(&polls, 0.5);
        assert!(
            mp < ms && (ms - mp) / ms > 0.02,
            "for barrier-synchronized bursts polling smears the imbalance \
             downward: poll {mp:.2} vs snap {ms:.2}"
        );
    }
}
