//! Design ablations beyond the paper's evaluation.
//!
//! Three knobs DESIGN.md calls out:
//!
//! 1. **Snapshot-ID modulus** — smaller register arrays save SRAM but cap
//!    the outstanding-snapshot window (no-lapping); this quantifies the
//!    trade-off using the resource model.
//! 2. **Channel state on/off** — the notification volume and completion
//!    latency cost of the richer variant, measured on the testbed.
//! 3. **Keepalive injection on/off** — whether channel-state snapshots
//!    still complete (and how fast) when traffic alone must propagate IDs.

use crate::common::{render_table, standard_testbed, testbed_topology};
use fabric::network::DriverConfig;
use fabric::switchmod::SnapshotConfig;
use fabric::topology::LbKind;
use netsim::dist::Dist;
use netsim::time::{Duration, Instant};
use pipeline_model::{allocate, speedlight_pipeline, Variant};
use telemetry::MetricKind;
use workloads::PoissonSource;

/// Modulus sweep row.
#[derive(Debug, Clone, Copy)]
pub struct ModulusRow {
    /// Snapshot ID modulus.
    pub modulus: u16,
    /// SRAM of the 64-port channel-state pipeline, KB.
    pub sram_kb: f64,
    /// Maximum outstanding snapshots (no-lapping cap).
    pub max_outstanding: u16,
}

/// Ablation 1: modulus vs. memory vs. outstanding window.
pub fn modulus_sweep(moduli: &[u16]) -> Vec<ModulusRow> {
    moduli
        .iter()
        .map(|&m| ModulusRow {
            modulus: m,
            sram_kb: allocate(&speedlight_pipeline(Variant::ChannelState, 64, m)).sram_kb,
            max_outstanding: m - 1,
        })
        .collect()
}

/// Channel-state cost row.
#[derive(Debug, Clone, Copy)]
pub struct CsCostRow {
    /// Whether channel state was enabled.
    pub channel_state: bool,
    /// Median issue→completion latency, microseconds.
    pub median_completion_us: f64,
    /// Notifications processed per snapshot (network-wide).
    pub notifications_per_snapshot: f64,
}

fn run_completion(channel_state: bool, keepalives: bool, seed: u64) -> (Vec<f64>, f64, usize) {
    let snapshot = SnapshotConfig {
        modulus: 512,
        channel_state,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    };
    let n_snapshots = 40u64;
    let period = Duration::from_millis(8);
    let driver = DriverConfig {
        snapshot_period: Some(period),
        keepalive_period: keepalives.then(|| Duration::from_millis(2)),
        ..DriverConfig::default()
    };
    let mut tb = standard_testbed(snapshot, LbKind::Ecmp, driver, seed);
    let topo = testbed_topology();
    for h in 0..topo.num_hosts() {
        let dsts: Vec<u32> = (0..topo.num_hosts()).filter(|&d| d != h).collect();
        tb.set_source(
            h,
            Instant::ZERO,
            Box::new(
                PoissonSource::new(
                    h,
                    dsts,
                    60_000.0,
                    Dist::constant(700.0),
                    seed ^ u64::from(h),
                )
                // One flow per destination: with so few flows, ECMP can
                // leave considered channels silent — the condition the
                // keepalive ablation probes.
                .flows_per_dst(1),
            ),
        );
    }
    tb.run_until(Instant::ZERO + period * (n_snapshots + 15));
    let completions: Vec<f64> = tb
        .snapshots()
        .iter()
        .filter(|r| !r.forced)
        .map(|r| r.completed_at.saturating_since(r.issued_at).as_micros_f64())
        .collect();
    let notifications: u64 = tb
        .network()
        .switches
        .iter()
        .map(|s| s.agent.cp().stats().notifications + s.agent.cp().stats().duplicates)
        .sum();
    let n = tb.snapshots().len();
    (completions, notifications as f64 / n.max(1) as f64, n)
}

/// Ablation 2: the cost of channel state. The two arms are independent
/// seeded runs and fan out across cores.
pub fn channel_state_cost(seed: u64) -> Vec<CsCostRow> {
    let arms = [false, true];
    parfan::map_labeled(
        &arms,
        |_, &cs| format!("ablation channel-state cs={cs} seed={seed}"),
        |_, &cs| {
            let (completions, notifs, _) = run_completion(cs, true, seed);
            CsCostRow {
                channel_state: cs,
                median_completion_us: sim_stats::percentile(&completions, 0.5),
                notifications_per_snapshot: notifs,
            }
        },
    )
}

/// Keepalive ablation row.
#[derive(Debug, Clone, Copy)]
pub struct KeepaliveRow {
    /// Whether keepalive injection ran.
    pub keepalives: bool,
    /// Snapshots completed (not forced).
    pub completed: usize,
    /// Median completion latency, microseconds.
    pub median_completion_us: f64,
}

/// Ablation 3: keepalives vs. traffic-only ID propagation (channel state).
/// The two arms fan out across cores.
pub fn keepalive_ablation(seed: u64) -> Vec<KeepaliveRow> {
    let arms = [true, false];
    parfan::map_labeled(
        &arms,
        |_, &ka| format!("ablation keepalive ka={ka} seed={seed}"),
        |_, &ka| {
            let (completions, _, _) = run_completion(true, ka, seed);
            KeepaliveRow {
                keepalives: ka,
                completed: completions.len(),
                median_completion_us: sim_stats::percentile(&completions, 0.5),
            }
        },
    )
}

/// Render all three ablations.
pub fn render_all(seed: u64) -> String {
    let mut out = String::new();
    let rows: Vec<Vec<String>> = modulus_sweep(&[4, 16, 64, 256, 1024, 4096])
        .into_iter()
        .map(|r| {
            vec![
                r.modulus.to_string(),
                format!("{:.0}", r.sram_kb),
                r.max_outstanding.to_string(),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Ablation 1: snapshot-ID modulus vs. SRAM (64-port, +Chnl.State) \
         vs. outstanding-snapshot window",
        &["Modulus", "SRAM (KB)", "Max outstanding"],
        &rows,
    ));
    out.push('\n');

    let rows: Vec<Vec<String>> = channel_state_cost(seed)
        .into_iter()
        .map(|r| {
            vec![
                r.channel_state.to_string(),
                format!("{:.0}", r.median_completion_us),
                format!("{:.1}", r.notifications_per_snapshot),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Ablation 2: channel-state cost",
        &[
            "Channel state",
            "Median completion (us)",
            "Notifications/snapshot",
        ],
        &rows,
    ));
    out.push('\n');

    let rows: Vec<Vec<String>> = keepalive_ablation(seed)
        .into_iter()
        .map(|r| {
            vec![
                r.keepalives.to_string(),
                r.completed.to_string(),
                format!("{:.0}", r.median_completion_us),
            ]
        })
        .collect();
    out.push_str(&render_table(
        "Ablation 3: keepalive injection (channel-state liveness)",
        &["Keepalives", "Completed", "Median completion (us)"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulus_trades_memory_for_window() {
        let rows = modulus_sweep(&[4, 256, 4096]);
        assert!(rows[0].sram_kb < rows[1].sram_kb);
        assert!(rows[1].sram_kb < rows[2].sram_kb);
        assert_eq!(rows[0].max_outstanding, 3);
        assert_eq!(rows[2].max_outstanding, 4095);
    }

    #[test]
    fn channel_state_costs_notifications_and_latency() {
        let rows = channel_state_cost(99);
        let no_cs = rows[0];
        let cs = rows[1];
        assert!(!no_cs.channel_state && cs.channel_state);
        assert!(
            cs.notifications_per_snapshot > 1.5 * no_cs.notifications_per_snapshot,
            "CS {} vs no-CS {}",
            cs.notifications_per_snapshot,
            no_cs.notifications_per_snapshot
        );
        assert!(
            cs.median_completion_us >= no_cs.median_completion_us,
            "CS completion {} should not beat no-CS {}",
            cs.median_completion_us,
            no_cs.median_completion_us
        );
    }

    #[test]
    fn keepalives_rescue_channels_that_traffic_leaves_silent() {
        // With few flows, ECMP can leave a considered (ingress, uplink)
        // channel entirely flow-free, so channel-state completion stalls —
        // exactly the "lack of traffic" liveness problem of §6. Broadcast
        // injection must rescue it; without injection, stalls (forced
        // finalizations) are expected and completions cannot be better.
        let rows = keepalive_ablation(99);
        let with = rows[0];
        let without = rows[1];
        assert!(with.keepalives && !without.keepalives);
        assert!(with.completed > 20, "with keepalives: {}", with.completed);
        assert!(
            with.completed >= without.completed,
            "keepalives can only help: with {} vs without {}",
            with.completed,
            without.completed
        );
    }
}
