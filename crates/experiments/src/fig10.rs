//! Fig. 10: maximum sustained snapshot rate vs. ports per router.
//!
//! "In the experiment, we initiated a series of snapshots on a single
//! switch with fixed interval. Snapshot frequencies that were too high
//! eventually resulted in notification drops. The graphs plot the highest
//! frequency without drops." (§8.2). The bottleneck is the unoptimized
//! (serial, ~110 µs/notification) control plane, not the ASIC-CPU channel.
//!
//! Paper shape: >70 snapshots/s at 64 ports, scaling roughly inversely
//! with port count (log-log straight line from ~1000+ Hz at 4 ports).
//!
//! # A probe ends at its first drop
//!
//! "The highest frequency without drops" makes one dropped notification
//! the whole verdict for a rate, and the drop counter only ever goes up,
//! so a probe simulates only until the answer is known: it advances its
//! testbed `PROBE_STEP` of simulated time at a go and returns
//! *unsustainable* the first time `notify_drops` reads non-zero. A probe
//! that never drops still runs its full horizon, because the other two
//! conditions (enough snapshots issued, control-plane queue drained) are
//! statements about the end of the trial. Stepping a testbed is the same
//! run as one call to the horizon (`fabric/tests/stepped_run.rs`), so
//! every verdict, the probe sequence and every [`RatePoint`] are those of
//! probes run to the end regardless, bit for bit — which at the default
//! configuration would dispatch 16.8 M events for the same 70 verdicts
//! instead of 2.8 M, 88 % of them after a drop had settled the answer.

use crate::common::render_table;
use fabric::network::DriverConfig;
use fabric::switchmod::SnapshotConfig;
use fabric::testbed::{Testbed, TestbedConfig};
use fabric::topology::Topology;
use netsim::time::{Duration, Instant};
use telemetry::MetricKind;

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct Fig10Config {
    /// Port counts to sweep.
    pub port_counts: Vec<u16>,
    /// Simulated seconds per trial.
    pub trial_secs: u64,
    /// Binary-search resolution (Hz).
    pub resolution_hz: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig10Config {
    fn default() -> Self {
        Fig10Config {
            port_counts: vec![4, 8, 16, 32, 64],
            trial_secs: 1,
            resolution_hz: 4.0,
            seed: 10,
        }
    }
}

/// One point on the curve.
#[derive(Debug, Clone, Copy)]
pub struct RatePoint {
    /// Ports per router.
    pub ports: u16,
    /// Maximum sustained snapshot rate, Hz.
    pub max_rate_hz: f64,
}

/// The Fig. 10 curve.
#[derive(Debug)]
pub struct Fig10 {
    /// Max sustained rate per port count.
    pub points: Vec<RatePoint>,
}

/// Simulated time a probe runs between two looks at the drop counter.
/// The bracket phase's grossly overloaded probes drop within milliseconds
/// (64 ports at 10 kHz: inside 5 ms of a 1 s trial, after 12 708 of
/// 3 111 485 events), so a much coarser step would hand their saving back;
/// a probe that reaches the horizon pays a thousand resumptions of
/// `run_until`, which is noise beside its ~5 × 10^4 events.
const PROBE_STEP: Duration = Duration::from_millis(1);

/// Why a probe stopped simulating. When is on the testbed's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// A notification was dropped: the rate is unsustainable whatever the
    /// rest of the trial would have shown, so it is not simulated.
    FirstDrop,
    /// The whole trial ran without a drop; its end state decides.
    Horizon,
}

/// The single-switch world one probe runs: `ports` ports, a snapshot every
/// `1 / rate_hz` seconds, no data traffic.
fn probe_world(ports: u16, rate_hz: f64, seed: u64) -> Testbed {
    let topo = Topology::single_switch(ports);
    let mut cfg = TestbedConfig::new(SnapshotConfig {
        modulus: 4_096,
        channel_state: false,
        ingress_metric: MetricKind::PacketCount,
        egress_metric: MetricKind::PacketCount,
    });
    cfg.seed = seed;
    cfg.driver = DriverConfig {
        snapshot_period: Some(Duration::from_nanos((1e9 / rate_hz) as u64)),
        device_timeout: Duration::from_secs(3600), // never force-finalize
        ..DriverConfig::default()
    };
    Testbed::new(topo, cfg)
}

/// Advance a probe's world towards `horizon`, a [`PROBE_STEP`] at a time,
/// until the step that shows the first notification drop.
fn run_probe(tb: &mut Testbed, horizon: Instant) -> Stop {
    let mut t = tb.now();
    while t < horizon {
        t = (t + PROBE_STEP).min(horizon);
        tb.run_until(t);
        if tb.network().switches[0].stats.notify_drops > 0 {
            return Stop::FirstDrop;
        }
    }
    Stop::Horizon
}

/// Whether a single `ports`-port switch sustains snapshots at `rate_hz`:
/// every issued snapshot completes, nothing is force-finalized, no
/// notification drops, and the CP queue has drained by the end.
fn sustainable(ports: u16, rate_hz: f64, secs: u64, seed: u64) -> bool {
    let mut tb = probe_world(ports, rate_hz, seed);
    let horizon = Instant::ZERO + Duration::from_secs(secs);
    if run_probe(&mut tb, horizon) == Stop::FirstDrop {
        return false;
    }
    let expected = (rate_hz * secs as f64 * 0.9) as usize; // startup slack
    let issued_enough = tb.snapshots().len() >= expected;
    let net = tb.network();
    let sw = &net.switches[0];
    let drained = sw.cp_queue.len() < usize::from(2 * ports);
    issued_enough && sw.stats.notify_drops == 0 && drained
}

/// Find the sustainability frontier for one port count: bracket with a
/// coarse geometric probe, then binary-search. Each trial builds its own
/// testbed from `seed`, so one point is a pure function of its inputs.
fn search_point(ports: u16, trial_secs: u64, resolution_hz: f64, seed: u64) -> RatePoint {
    let lo = 1.0f64;
    let mut hi = 20_000.0f64;
    while hi / 2.0 > lo && !sustainable(ports, hi / 2.0, trial_secs, seed) {
        hi /= 2.0;
    }
    let mut lo_ok = lo;
    let mut hi_bad = hi;
    while hi_bad - lo_ok > resolution_hz {
        let mid = (lo_ok + hi_bad) / 2.0;
        if sustainable(ports, mid, trial_secs, seed) {
            lo_ok = mid;
        } else {
            hi_bad = mid;
        }
    }
    RatePoint {
        ports,
        max_rate_hz: lo_ok,
    }
}

/// Run the experiment. The rate search per port count is sequential (each
/// probe brackets the next), but the sweep points are independent and fan
/// out across cores.
pub fn run(cfg: &Fig10Config) -> Fig10 {
    let points = parfan::map_labeled(
        &cfg.port_counts,
        |_, &ports| format!("fig10 ports={ports} seed={}", cfg.seed),
        |_, &ports| search_point(ports, cfg.trial_secs, cfg.resolution_hz, cfg.seed),
    );
    Fig10 { points }
}

impl Fig10 {
    /// Render the curve.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| vec![p.ports.to_string(), format!("{:.0}", p.max_rate_hz)])
            .collect();
        render_table(
            "Fig. 10: max sustained snapshot rate before notification queue \
             buildup (no channel state)",
            &["Ports/Router", "Max Rate (Hz)"],
            &rows,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `run(&Fig10Config::default())`, to the bit. Every value is dyadic
    /// (a bisection of 1 and 20 000), so the literals are exact in `f64`.
    const CURVE: [(u16, f64); 5] = [
        (4, 1396.92578125),
        (8, 703.5625),
        (16, 337.375),
        (32, 161.6171875),
        (64, 78.625),
    ];

    /// A probe that never stops early: one uninterrupted run to the
    /// horizon, then the three conditions. Returns the verdict and the
    /// drop count it was read from.
    fn full_horizon_reference(ports: u16, rate_hz: f64, secs: u64, seed: u64) -> (bool, u64) {
        let mut tb = probe_world(ports, rate_hz, seed);
        tb.run_until(Instant::ZERO + Duration::from_secs(secs));
        let expected = (rate_hz * secs as f64 * 0.9) as usize;
        let issued_enough = tb.snapshots().len() >= expected;
        let sw = &tb.network().switches[0];
        let drained = sw.cp_queue.len() < usize::from(2 * ports);
        let drops = sw.stats.notify_drops;
        (issued_enough && drops == 0 && drained, drops)
    }

    /// Every rate the default search's bracket phase visits for `ports`
    /// (10 kHz, halving down to the first sustained one), then 0.5x, 1.2x
    /// and 1.5x the frontier it ends on.
    fn probe_grid(ports: u16, frontier_hz: f64) -> Vec<f64> {
        let mut rates = Vec::new();
        let mut rate = 10_000.0;
        while rate > frontier_hz {
            rates.push(rate);
            rate /= 2.0;
        }
        rates.push(rate);
        rates.extend([0.5, 1.2, 1.5].map(|x| x * frontier_hz));
        assert!(rates.len() >= 6, "{ports} ports: {rates:?}");
        rates
    }

    #[test]
    fn early_verdict_equals_full_horizon_verdict() {
        let horizon = Instant::ZERO + Duration::from_secs(1);
        let mut backlogged_without_drops = 0;
        for (ports, frontier_hz) in [CURVE[0], CURVE[2], CURVE[4]] {
            for rate_hz in probe_grid(ports, frontier_hz) {
                let at = format!("{ports} ports @ {rate_hz} Hz");
                let (ref_sustained, ref_drops) = full_horizon_reference(ports, rate_hz, 1, 10);
                let sustained = sustainable(ports, rate_hz, 1, 10);
                assert_eq!(sustained, ref_sustained, "{at}");
                assert_eq!(sustained, rate_hz <= frontier_hz, "{at}");

                let mut tb = probe_world(ports, rate_hz, 10);
                let stop = run_probe(&mut tb, horizon);
                let drops = tb.network().switches[0].stats.notify_drops;
                match stop {
                    Stop::FirstDrop => {
                        assert!(drops > 0 && ref_drops >= drops, "{at}");
                        assert!(tb.now() <= horizon, "{at}");
                        assert_eq!(tb.now().as_nanos() % PROBE_STEP.as_nanos(), 0, "{at}");
                    }
                    // Sustained or not, a probe that never drops is
                    // judged on the end of the trial and must reach it.
                    Stop::Horizon => {
                        assert_eq!((drops, ref_drops), (0, 0), "{at}");
                        assert_eq!(tb.now(), horizon, "{at}");
                        backlogged_without_drops += u32::from(!sustained);
                    }
                }
            }
        }
        assert!(
            backlogged_without_drops > 0,
            "the grid must hold a probe that fails on the end-of-trial checks alone"
        );
    }

    #[test]
    fn overloaded_probe_stops_within_milliseconds() {
        // The search's most expensive probe: 3 111 485 events to the
        // horizon, for a verdict that is final after the first few
        // thousand.
        let mut tb = probe_world(64, 10_000.0, 10);
        let stop = run_probe(&mut tb, Instant::ZERO + Duration::from_secs(1));
        assert_eq!(stop, Stop::FirstDrop);
        assert!(
            tb.now() < Instant::ZERO + Duration::from_millis(10),
            "stopped at {}",
            tb.now()
        );
        assert!(
            tb.events_dispatched() < 50_000,
            "{}",
            tb.events_dispatched()
        );
    }

    /// The curve itself, which the range checks below never pinned. The
    /// digest is the one `benchmark --workload fig10_rate_search --seed 9`
    /// prints.
    #[test]
    fn default_curve_is_pinned() {
        let points = run(&Fig10Config::default()).points;
        let got: Vec<(u16, f64)> = points.iter().map(|p| (p.ports, p.max_rate_hz)).collect();
        assert_eq!(got, CURVE);

        let seed9 = run(&Fig10Config {
            seed: 9,
            ..Fig10Config::default()
        });
        let mut h = parfan::digest::Fnv64::new();
        for p in &seed9.points {
            h.write_u64(u64::from(p.ports));
            h.write_f64(p.max_rate_hz);
        }
        assert_eq!(h.finish(), 0xe206_6472_9b30_0270);
    }

    #[test]
    fn sixty_four_ports_sustain_over_70_hz() {
        let cfg = Fig10Config {
            port_counts: vec![64],
            trial_secs: 1,
            resolution_hz: 8.0,
            seed: 10,
        };
        let f = run(&cfg);
        let rate = f.points[0].max_rate_hz;
        // Paper: "Even for 64 ports (a full linecard), Speedlight can
        // sustain over 70 snapshots per second."
        assert!(rate > 70.0, "64-port max rate {rate:.0} Hz");
        assert!(rate < 400.0, "rate {rate:.0} Hz implausibly high");
    }

    #[test]
    fn rate_scales_inversely_with_ports() {
        let cfg = Fig10Config {
            port_counts: vec![4, 16, 64],
            trial_secs: 1,
            resolution_hz: 16.0,
            seed: 10,
        };
        let f = run(&cfg);
        let r4 = f.points[0].max_rate_hz;
        let r16 = f.points[1].max_rate_hz;
        let r64 = f.points[2].max_rate_hz;
        assert!(r4 > r16 && r16 > r64, "{r4:.0} / {r16:.0} / {r64:.0}");
        // Roughly inverse: 16x the ports cuts the rate by ~8-32x.
        let ratio = r4 / r64;
        assert!((6.0..50.0).contains(&ratio), "r4/r64 = {ratio:.1}");
    }

    #[test]
    fn unsustainable_rates_are_detected() {
        // 64 ports at 5 kHz cannot possibly drain through a ~110 µs/notif
        // control plane.
        assert!(!sustainable(64, 5_000.0, 1, 10));
        assert!(sustainable(4, 20.0, 1, 10));
    }
}
