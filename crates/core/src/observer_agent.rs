//! The snapshot observer's scheduling and liveness decisions (§3, §6),
//! with no clock and no I/O.
//!
//! Beyond assembling reports, the observer has four jobs: schedule each
//! epoch, re-initiate toward devices that lag, exclude a device that
//! times out, and notice channel-state completion that has stalled.
//! [`ObserverAgent`] makes those decisions once for both substrates. It
//! wraps the [`PipelineObserver`] and keeps each pending epoch's issue and
//! last initiation instants, in nanoseconds of whatever clock its caller
//! runs. A substrate (the `fabric` simulator, the threaded `emulation`)
//! keeps what only it has: time, random draws, links, metrics, and the
//! delivery of each [`Initiation`] the agent names.

use crate::control::Report;
use crate::id::Epoch;
use crate::observer::GlobalSnapshot;
use crate::pipeline::PipelineObserver;
use obs::Sink;
use std::collections::BTreeMap;

/// Initiations to deliver: `epoch` to `devices`, aimed at `target_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Initiation {
    /// The epoch to initiate.
    pub epoch: Epoch,
    /// The instant the devices should initiate at.
    pub target_ns: u64,
    /// The devices to tell.
    pub devices: Vec<u16>,
}

/// A sealed snapshot and the instant [`ObserverAgent::begin`] issued its
/// epoch.
pub type Sealed = (GlobalSnapshot, u64);

/// The observer pipeline plus the issue, retry, force and keepalive
/// decisions, timed in caller-supplied nanoseconds.
#[derive(Debug, Clone)]
pub struct ObserverAgent {
    /// The report-assembling observer (device registration, statistics).
    pub pipeline: PipelineObserver,
    /// Each pending epoch's issue instant and the instant it was last
    /// initiated (issued or re-initiated).
    pending: BTreeMap<Epoch, (u64, u64)>,
    newest_issued: Epoch,
    lead_time: u64,
    retry_timeout: u64,
    device_timeout: u64,
}

impl ObserverAgent {
    /// Drive `pipeline`: an epoch targets `lead` after its issue, is
    /// re-initiated toward lagging devices once `retry` old (and at most
    /// once per `retry`), and is forced once `timeout` old.
    pub fn new(pipeline: PipelineObserver, lead: u64, retry: u64, timeout: u64) -> Self {
        ObserverAgent {
            pipeline,
            pending: BTreeMap::new(),
            newest_issued: 0,
            lead_time: lead,
            retry_timeout: retry,
            device_timeout: timeout,
        }
    }

    /// The newest epoch issued so far (a recovering control plane's
    /// resync target), 0 before the first.
    pub fn newest_issued(&self) -> Epoch {
        self.newest_issued
    }

    /// Issue the next epoch to every registered device, or `None` at the
    /// no-lapping cap or with no device registered.
    pub fn begin<S: Sink>(&mut self, sink: &mut S, t_ns: u64) -> Option<Initiation> {
        let epoch = self.pipeline.begin_snapshot_traced(sink, t_ns)?;
        self.pending.insert(epoch, (t_ns, t_ns));
        self.newest_issued = self.newest_issued.max(epoch);
        Some(Initiation {
            epoch,
            target_ns: t_ns.saturating_add(self.lead_time),
            devices: self.pipeline.device_ids().collect(),
        })
    }

    /// A report from device `dev` reaches the observer: trace its arrival
    /// and fold it; the snapshot it sealed, if any.
    pub fn on_report<S: Sink>(
        &mut self,
        dev: u16,
        report: Report,
        sink: &mut S,
        t_ns: u64,
    ) -> Option<Sealed> {
        obs::event!(sink, t_ns, "report.arrive", dev = dev, epoch = report.epoch);
        let snapshot = self.pipeline.on_report_traced(dev, report, sink, t_ns)?;
        Some(self.seal(snapshot, false, sink, t_ns))
    }

    /// Maintenance at `t_ns`: force every epoch at least `device_timeout`
    /// old, oldest first, and re-initiate the newest epoch at least
    /// `retry_timeout` old toward its lagging devices. Initiations are
    /// cumulative (one for epoch E advances a unit past every older
    /// epoch), so re-initiating only the newest overdue epoch suffices
    /// for liveness and keeps a backlog from becoming an event storm.
    pub fn tick<S: Sink>(&mut self, sink: &mut S, t_ns: u64) -> (Vec<Sealed>, Option<Initiation>) {
        // Timeouts are judged against fully folded state.
        self.pipeline.pump_traced(sink, t_ns);
        let mut forced = Vec::new();
        let mut overdue = None;
        for epoch in self.pipeline.pending_epochs().collect::<Vec<_>>() {
            let Some(&(issued, _)) = self.pending.get(&epoch) else {
                continue;
            };
            let age = t_ns.saturating_sub(issued);
            if age >= self.device_timeout {
                if let Some(snap) = self.pipeline.force_finalize_traced(epoch, sink, t_ns) {
                    forced.push(self.seal(snap, true, sink, t_ns));
                }
            } else if age >= self.retry_timeout {
                overdue = Some(epoch);
            }
        }
        let retry = overdue.and_then(|epoch| self.retry(epoch, sink, t_ns));
        (forced, retry)
    }

    /// The oldest pending epoch if it has waited longer than twice the
    /// lead time: channel-state completion may be stalled on silent
    /// channels, and a keepalive round would unblock it.
    pub fn keepalive_due(&self, t_ns: u64) -> Option<Epoch> {
        let oldest = self.pipeline.pending_epochs().next()?;
        let &(issued, _) = self.pending.get(&oldest)?;
        (t_ns.saturating_sub(issued) > self.lead_time.saturating_mul(2)).then_some(oldest)
    }

    /// Re-initiate `epoch` toward its lagging devices, unless it was
    /// initiated (issued or re-initiated) less than `retry_timeout` ago
    /// or nobody lags.
    fn retry<S: Sink>(&mut self, epoch: Epoch, sink: &mut S, t_ns: u64) -> Option<Initiation> {
        let (_, last) = self.pending.get_mut(&epoch)?;
        if t_ns.saturating_sub(*last) < self.retry_timeout {
            return None;
        }
        let devices: Vec<u16> = self.pipeline.lagging_devices(epoch).into_iter().collect();
        if devices.is_empty() {
            return None;
        }
        *last = t_ns;
        let n = devices.len();
        obs::event!(sink, t_ns, "snap.reinitiate", epoch = epoch, devices = n);
        Some(Initiation {
            epoch,
            target_ns: t_ns,
            devices,
        })
    }

    /// Drop a sealed epoch's timers and emit its `snap.complete`, right
    /// after the pipeline's own `obs.finalize`.
    fn seal(&mut self, snap: GlobalSnapshot, forced: bool, sink: &mut impl Sink, t: u64) -> Sealed {
        let issued = self.pending.remove(&snap.epoch).map_or(0, |p| p.0);
        obs::event!(
            sink,
            t,
            "snap.complete",
            epoch = snap.epoch,
            dur_ns = t.saturating_sub(issued),
            units = snap.units.len(),
            excluded = snap.excluded.len(),
            forced = forced,
        );
        (snap, issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::ReportValue;
    use crate::pipeline::PipelineConfig;
    use crate::types::UnitId;

    const LEAD: u64 = 1_000;
    const RETRY: u64 = 20_000;
    const TIMEOUT: u64 = 200_000;

    /// Devices 0 and 1, one ingress unit each.
    fn agent() -> ObserverAgent {
        let mut p = PipelineObserver::new(PipelineConfig::for_modulus(8));
        for d in 0..2 {
            p.register_device(d, vec![UnitId::ingress(d, 0)]);
        }
        ObserverAgent::new(p, LEAD, RETRY, TIMEOUT)
    }

    fn report(device: u16, epoch: Epoch) -> Report {
        let value = ReportValue::Value {
            local: 1,
            channel: 0,
        };
        Report {
            unit: UnitId::ingress(device, 0),
            epoch,
            value,
        }
    }

    fn begin(a: &mut ObserverAgent, t: u64) -> Epoch {
        a.begin(&mut obs::NoopSink, t).expect("below the cap").epoch
    }

    fn tick(a: &mut ObserverAgent, t: u64) -> (Vec<Sealed>, Option<Initiation>) {
        a.tick(&mut obs::NoopSink, t)
    }

    #[test]
    fn begin_targets_the_lead_time_and_tracks_the_newest_epoch() {
        let mut a = agent();
        let init = a.begin(&mut obs::NoopSink, 5).unwrap();
        assert_eq!((init.epoch, init.target_ns), (1, 5 + LEAD));
        assert_eq!(init.devices, vec![0, 1]);
        assert_eq!(a.newest_issued(), 1);
        assert_eq!(a.pending.get(&1), Some(&(5, 5)));
    }

    #[test]
    fn forcing_happens_at_the_device_timeout_and_not_before() {
        let mut a = agent();
        let e = begin(&mut a, 100);
        assert!(a
            .on_report(0, report(0, e), &mut obs::NoopSink, 150)
            .is_none());
        assert!(tick(&mut a, 100 + TIMEOUT - 1).0.is_empty());
        let (forced, _) = tick(&mut a, 100 + TIMEOUT);
        let [(snap, issued)] = forced.as_slice() else {
            panic!("one forced epoch, got {}", forced.len());
        };
        assert_eq!((snap.epoch, *issued), (e, 100));
        assert!(snap.excluded.contains(&1));
    }

    #[test]
    fn only_the_newest_overdue_epoch_is_reinitiated() {
        let mut a = agent();
        let epochs: Vec<Epoch> = (0..3).map(|k| begin(&mut a, k * 10)).collect();
        let (forced, retry) = tick(&mut a, 20 + RETRY);
        assert!(forced.is_empty());
        let retry = retry.expect("an overdue epoch with lagging devices");
        assert_eq!(retry.epoch, epochs[2]);
        assert_eq!((retry.target_ns, retry.devices), (20 + RETRY, vec![0, 1]));
    }

    #[test]
    fn reinitiation_is_paced_by_the_retry_timeout() {
        let mut a = agent();
        let e = begin(&mut a, 0);
        assert!(tick(&mut a, RETRY - 1).1.is_none());
        let first = tick(&mut a, RETRY).1.expect("overdue");
        assert_eq!(first.epoch, e);
        assert_eq!(first.devices, vec![0, 1]);
        // Device 0 catches up; only device 1 is named again.
        assert!(a
            .on_report(0, report(0, e), &mut obs::NoopSink, RETRY + 1)
            .is_none());
        assert!(tick(&mut a, 2 * RETRY - 1).1.is_none());
        let second = tick(&mut a, 2 * RETRY).1.expect("paced retry");
        assert_eq!((second.epoch, second.devices), (e, vec![1]));
    }

    #[test]
    fn keepalive_is_due_strictly_after_twice_the_lead_time() {
        let mut a = agent();
        assert_eq!(a.keepalive_due(0), None);
        let e = begin(&mut a, 7);
        begin(&mut a, 8);
        assert_eq!(a.keepalive_due(7 + 2 * LEAD), None);
        assert_eq!(a.keepalive_due(7 + 2 * LEAD + 1), Some(e));
    }

    #[test]
    fn no_per_epoch_state_survives_sealing_or_forcing() {
        let mut a = agent();
        let sealed = begin(&mut a, 0);
        let forced = begin(&mut a, 1);
        assert!(a
            .on_report(0, report(0, sealed), &mut obs::NoopSink, 2)
            .is_none());
        let done = a.on_report(1, report(1, sealed), &mut obs::NoopSink, 3);
        assert!(done.is_some_and(|(snap, issued)| snap.epoch == sealed && issued == 0));
        assert_eq!(tick(&mut a, 1 + TIMEOUT).0.len(), 1);
        assert!(a.pending.is_empty());
        assert_eq!(a.pipeline.outstanding(), 0);
        assert_eq!(a.newest_issued(), forced);
    }

    #[test]
    fn completion_is_traced_after_each_finalize() {
        let mut a = agent();
        let mut sink = obs::sinks::RingSink::new(64);
        for t in 0..2 {
            a.begin(&mut sink, t).unwrap();
        }
        a.tick(&mut sink, 1 + TIMEOUT);
        let names: Vec<&str> = sink.events().map(|ev| ev.name).collect();
        let finalize_then_complete = ["obs.finalize", "snap.complete"];
        let pairs = names.windows(2).filter(|w| *w == finalize_then_complete);
        assert_eq!(pairs.count(), 2, "{names:?}");
    }
}
