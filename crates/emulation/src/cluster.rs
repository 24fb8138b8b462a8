//! Cluster wiring, the observer loop, and graceful shutdown.
//!
//! A [`Cluster`] stands up a line topology of devices (thread each), a
//! traffic generator thread per host, and runs the observer inline:
//! schedule an epoch, broadcast `Initiate` at the wall-clock instant,
//! collect reports, repeat. Shutdown is graceful: generators stop first,
//! devices drain their inboxes, the observer drains reports, threads join.

use crate::device::{Device, DeviceConfig, PortTarget};
use crate::messages::{DeviceMsg, Frame, ObserverMsg};
use speedlight_core::consistency::DeliveryEvent;
use speedlight_core::observer::GlobalSnapshot;
use speedlight_core::pipeline::{PipelineConfig, PipelineObserver};
use speedlight_core::Epoch;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration as WallDuration, Instant as WallInstant};
use wire::FlowKey;

/// Live-emulation configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of switches in the line.
    pub switches: u16,
    /// Snapshot ID modulus.
    pub modulus: u16,
    /// Channel-state variant?
    pub channel_state: bool,
    /// Snapshots to take.
    pub snapshots: usize,
    /// Wall-clock interval between snapshots.
    pub interval: WallDuration,
    /// Traffic rate per host generator (frames/s).
    pub host_rate: u64,
    /// Per-snapshot completion timeout.
    pub timeout: WallDuration,
    /// Record per-device replay logs for the conformance oracle.
    pub record_deliveries: bool,
    /// Fault schedule: `(device, k)` disables snapshot participation on
    /// `device` just before the `k`-th snapshot (0-based) is scheduled.
    pub fail_devices: Vec<(u16, usize)>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            switches: 3,
            modulus: 64,
            channel_state: false,
            snapshots: 10,
            interval: WallDuration::from_millis(10),
            host_rate: 20_000,
            timeout: WallDuration::from_millis(500),
            record_deliveries: false,
            fail_devices: Vec::new(),
        }
    }
}

/// What a finished run produced.
#[derive(Debug)]
pub struct ClusterReport {
    /// Completed snapshots, in epoch order.
    pub snapshots: Vec<GlobalSnapshot>,
    /// Wall-clock sync spread per epoch (max − min progress stamp), µs.
    pub sync_spread_us: BTreeMap<Epoch, f64>,
    /// Frames generated, summed over both host generators.
    pub frames_sent: u64,
    /// Epochs that only finished via `force_finalize` (device timeout).
    pub forced_epochs: Vec<Epoch>,
    /// Per-device replay logs (empty unless recording was enabled).
    pub delivery_logs: BTreeMap<u16, Vec<DeliveryEvent>>,
}

/// A live cluster run.
pub struct Cluster {
    cfg: ClusterConfig,
}

impl Cluster {
    /// Prepare a cluster with the given configuration.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        Cluster { cfg }
    }

    /// Run to completion and report.
    ///
    /// Topology: a line of `switches` devices, one host at each end
    /// (host 0 on the left, host 1 on the right), traffic flowing both
    /// ways so snapshot IDs piggyback across every inter-switch link.
    pub fn run(self) -> ClusterReport {
        let cfg = self.cfg;
        let n = cfg.switches;
        assert!(n >= 1);
        let t0 = WallInstant::now();

        // Channels: one inbox per device.
        let (txs, rxs): (Vec<SyncSender<DeviceMsg>>, Vec<Receiver<DeviceMsg>>) =
            (0..n).map(|_| sync_channel::<DeviceMsg>(65_536)).unzip();
        let (obs_tx, obs_rx) = channel::<ObserverMsg>();

        // Build device configs for the line: port 0 = left, port 1 = right.
        let mut observer = PipelineObserver::new(PipelineConfig::for_modulus(cfg.modulus));
        let mut handles: Vec<JoinHandle<()>> = Vec::new();
        for (d, rx) in (0..n).zip(rxs) {
            let left = if d == 0 {
                PortTarget::Host(0)
            } else {
                PortTarget::Device {
                    tx: txs[usize::from(d) - 1].clone(),
                    peer_port: 1,
                }
            };
            let right = if d == n - 1 {
                PortTarget::Host(1)
            } else {
                PortTarget::Device {
                    tx: txs[usize::from(d) + 1].clone(),
                    peer_port: 0,
                }
            };
            let dev_cfg = DeviceConfig {
                id: d,
                modulus: cfg.modulus,
                channel_state: cfg.channel_state,
                targets: vec![left, right],
                fib: BTreeMap::from([(0u32, 0u16), (1u32, 1u16)]),
                record_deliveries: cfg.record_deliveries,
            };
            let device = Device::new(dev_cfg, obs_tx.clone(), t0);
            observer.register_device(d, device.unit_ids());
            handles.push(
                std::thread::Builder::new()
                    .name(format!("device-{d}"))
                    .spawn(move || device.run(rx))
                    .expect("spawn device"),
            );
        }

        // Host generators: host 0 sends rightwards into device 0 port 0;
        // host 1 sends leftwards into device n-1 port 1.
        let stop = Arc::new(AtomicBool::new(false));
        let frames_sent = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let mut gen_handles = Vec::new();
        let gen_specs = [
            (txs[0].clone(), 0u16, 0u32, 1u32),
            (txs[usize::from(n) - 1].clone(), 1u16, 1u32, 0u32),
        ];
        for (tx, port, src, dst) in gen_specs {
            let stop = Arc::clone(&stop);
            let sent = Arc::clone(&frames_sent);
            let gap = WallDuration::from_nanos(1_000_000_000 / cfg.host_rate.max(1));
            gen_handles.push(
                std::thread::Builder::new()
                    .name(format!("host-{src}"))
                    .spawn(move || {
                        // Paced against a schedule, so frames track wall
                        // time at `host_rate` even when the thread wakes
                        // late: one behind sends what is due (the inbox's
                        // bound limits the burst), then sleeps only until
                        // the next due instant.
                        let mut due = WallInstant::now();
                        while !stop.load(Ordering::Acquire) {
                            let now = WallInstant::now();
                            if now < due {
                                std::thread::sleep(due - now);
                                continue;
                            }
                            let frame = Frame {
                                flow: FlowKey::tcp(src, dst, 10_000, 80),
                                dst_host: dst,
                                size: 700,
                                shim: None,
                            };
                            if tx.send(DeviceMsg::Frame { port, frame }).is_err() {
                                break;
                            }
                            // invariants: allow(relaxed-ordering) — pure frame statistic; no other memory depends on its order
                            sent.fetch_add(1, Ordering::Relaxed);
                            due += gap;
                        }
                    })
                    .expect("spawn host"),
            );
        }

        // Observer loop (inline on this thread).
        let mut snapshots = Vec::new();
        let mut forced_epochs = Vec::new();
        let mut sync: BTreeMap<Epoch, (u64, u64)> = BTreeMap::new();
        for k in 0..cfg.snapshots {
            for &(d, at) in &cfg.fail_devices {
                if at == k {
                    let _ =
                        txs[usize::from(d)].send(DeviceMsg::SetSnapshotEnabled { enabled: false });
                }
            }
            // `k as u32` would silently truncate a >4B snapshot count and
            // `Duration * u32` aborts opaquely on overflow — fail with a
            // diagnosable message for both.
            let reps = u32::try_from(k + 1).expect("snapshot count exceeds u32 schedule range");
            let fire_at = t0
                + cfg
                    .interval
                    .checked_mul(reps)
                    .expect("snapshot schedule overflows wall-clock Duration");
            // PTP-scheduled initiation: all devices told "now" when the
            // wall clock reaches the instant (the broadcast loop below is
            // the real-world jitter source we are measuring).
            while WallInstant::now() < fire_at {
                std::hint::spin_loop();
            }
            let Some(epoch) = observer.begin_snapshot() else {
                continue;
            };
            for tx in &txs {
                let _ = tx.send(DeviceMsg::Initiate { epoch });
            }
            // Collect until this epoch completes (newer reports are for
            // later epochs and are buffered by the observer itself).
            let deadline = WallInstant::now() + cfg.timeout;
            'collect: while WallInstant::now() < deadline {
                match obs_rx.recv_timeout(WallDuration::from_millis(5)) {
                    Ok(ObserverMsg::Report { device, report }) => {
                        if let Some(snap) = observer.on_report(device, report) {
                            snapshots.push(snap);
                            break 'collect;
                        }
                    }
                    Ok(ObserverMsg::Progress { epoch, at_nanos }) => {
                        let e = sync.entry(epoch).or_insert((at_nanos, at_nanos));
                        e.0 = e.0.min(at_nanos);
                        e.1 = e.1.max(at_nanos);
                    }
                    Ok(ObserverMsg::DeviceDone { .. }) => {}
                    Err(_) => {}
                }
            }
            if observer.pending_epochs().any(|e| e == epoch) {
                if let Some(snap) = observer.force_finalize(epoch) {
                    forced_epochs.push(snap.epoch);
                    snapshots.push(snap);
                }
            }
        }

        // ---- Graceful shutdown ----
        stop.store(true, Ordering::Release);
        for h in gen_handles {
            let _ = h.join();
        }
        for tx in &txs {
            let _ = tx.send(DeviceMsg::Shutdown);
        }
        let mut done = 0;
        let mut delivery_logs = BTreeMap::new();
        let drain_deadline = WallInstant::now() + WallDuration::from_secs(5);
        while done < n && WallInstant::now() < drain_deadline {
            match obs_rx.recv_timeout(WallDuration::from_millis(20)) {
                Ok(ObserverMsg::DeviceDone { device, deliveries }) => {
                    if !deliveries.is_empty() {
                        delivery_logs.insert(device, deliveries);
                    }
                    done += 1;
                }
                Ok(ObserverMsg::Progress { epoch, at_nanos }) => {
                    let e = sync.entry(epoch).or_insert((at_nanos, at_nanos));
                    e.0 = e.0.min(at_nanos);
                    e.1 = e.1.max(at_nanos);
                }
                Ok(_) => {}
                Err(_) => {}
            }
        }
        for h in handles {
            let _ = h.join();
        }

        snapshots.sort_by_key(|s| s.epoch);
        ClusterReport {
            snapshots,
            sync_spread_us: sync
                .into_iter()
                .map(|(e, (lo, hi))| (e, (hi - lo) as f64 / 1e3))
                .collect(),
            // invariants: allow(relaxed-ordering) — read after every generator joined; join supplies the happens-before edge
            frames_sent: frames_sent.load(Ordering::Relaxed),
            forced_epochs,
            delivery_logs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use speedlight_core::observer::UnitOutcome;

    #[test]
    fn live_cluster_takes_consistent_snapshots() {
        let report = Cluster::new(ClusterConfig {
            switches: 3,
            snapshots: 6,
            interval: WallDuration::from_millis(8),
            host_rate: 30_000,
            ..ClusterConfig::default()
        })
        .run();
        assert!(
            report.snapshots.len() >= 5,
            "got {} snapshots",
            report.snapshots.len()
        );
        assert!(report.frames_sent > 100);
        // Every unit reported a usable value (no-CS mode: Value/Inferred).
        for snap in &report.snapshots {
            assert!(
                snap.fully_consistent(),
                "epoch {} outcomes: {:?}",
                snap.epoch,
                snap.units
                    .values()
                    .filter(|o| !matches!(
                        o,
                        UnitOutcome::Value { .. } | UnitOutcome::Inferred { .. }
                    ))
                    .collect::<Vec<_>>()
            );
        }
        // Counter totals are monotone across epochs (consistent cuts of a
        // monotone counter).
        let totals: Vec<u64> = report
            .snapshots
            .iter()
            .map(|s| s.consistent_total())
            .collect();
        for w in totals.windows(2) {
            assert!(w[1] >= w[0], "totals {totals:?}");
        }
    }

    #[test]
    fn live_sync_spread_is_measured() {
        let report = Cluster::new(ClusterConfig {
            switches: 2,
            snapshots: 4,
            ..ClusterConfig::default()
        })
        .run();
        assert!(!report.sync_spread_us.is_empty());
        for (&epoch, &spread) in &report.sync_spread_us {
            // Real OS jitter: spreads are positive and bounded by a sane
            // wall-clock budget (well under the 10 ms interval).
            assert!(spread >= 0.0, "epoch {epoch}");
            assert!(spread < 10_000.0, "epoch {epoch} spread {spread} us");
        }
    }

    #[test]
    fn channel_state_cluster_completes_with_traffic() {
        let report = Cluster::new(ClusterConfig {
            switches: 2,
            channel_state: true,
            snapshots: 4,
            interval: WallDuration::from_millis(15),
            host_rate: 50_000,
            timeout: WallDuration::from_millis(2_000),
            ..ClusterConfig::default()
        })
        .run();
        assert!(!report.snapshots.is_empty());
        let consistent = report
            .snapshots
            .iter()
            .filter(|s| s.fully_consistent())
            .count();
        assert!(
            consistent >= 1,
            "at least one fully consistent CS snapshot expected"
        );
    }
}
