//! The observer agent driving two emulation devices by hand, with no
//! threads and no wall clock: the same calls `Cluster::run` makes, so a
//! lost initiation is shown to become a paced re-initiation and an
//! unforced snapshot rather than a timeout.

use emulation::device::{Device, DeviceConfig, PortTarget};
use emulation::messages::ObserverMsg;
use obs::NoopSink;
use speedlight_core::observer_agent::{ObserverAgent, Sealed};
use speedlight_core::pipeline::{PipelineConfig, PipelineObserver};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

const RETRY_NS: u64 = 10_000_000;
const TIMEOUT_NS: u64 = 500_000_000;

fn device(id: u16, observer: Sender<ObserverMsg>) -> Device {
    let cfg = DeviceConfig {
        id,
        modulus: 8,
        channel_state: false,
        targets: vec![PortTarget::Host(0), PortTarget::Host(1)],
        fib: BTreeMap::new(),
        record_deliveries: false,
    };
    Device::new(cfg, observer, Instant::now())
}

/// Fold every queued report into the agent at `t_ns`.
fn deliver(agent: &mut ObserverAgent, rx: &Receiver<ObserverMsg>, t_ns: u64) -> Vec<Sealed> {
    let reports = rx.try_iter().filter_map(|msg| match msg {
        ObserverMsg::Report { device, report } => Some((device, report)),
        _ => None,
    });
    let sealed = reports.filter_map(|(d, r)| agent.on_report(d, r, &mut NoopSink, t_ns));
    sealed.collect()
}

#[test]
fn lost_initiation_is_retried_and_seals_unforced() {
    let (tx, rx) = channel();
    let mut devices = [device(0, tx.clone()), device(1, tx)];
    let mut pipeline = PipelineObserver::new(PipelineConfig::for_modulus(8));
    for (d, dev) in (0..).zip(&devices) {
        pipeline.register_device(d, dev.unit_ids());
    }
    let mut agent = ObserverAgent::new(pipeline, 0, RETRY_NS, TIMEOUT_NS);

    let init = agent
        .begin(&mut NoopSink, 0)
        .expect("two devices registered");
    assert_eq!(init.devices, vec![0, 1]);
    // The first initiation reaches device 0 only.
    devices[0].on_initiate(init.epoch);
    assert!(deliver(&mut agent, &rx, 1).is_empty());

    let (forced, retry) = agent.tick(&mut NoopSink, RETRY_NS - 1);
    assert!(forced.is_empty() && retry.is_none());
    let (forced, retry) = agent.tick(&mut NoopSink, RETRY_NS);
    assert!(forced.is_empty());
    let retry = retry.expect("device 1 lags past the retry time");
    assert_eq!(
        (retry.epoch, retry.devices.as_slice()),
        (init.epoch, &[1][..])
    );
    for &d in &retry.devices {
        devices[usize::from(d)].on_initiate(retry.epoch);
    }

    let sealed = deliver(&mut agent, &rx, RETRY_NS + 1);
    // Sealed by a report, not by `tick`: unforced.
    let [(snap, issued)] = sealed.as_slice() else {
        panic!("the re-initiation seals the epoch, got {}", sealed.len());
    };
    assert_eq!((snap.epoch, *issued), (init.epoch, 0));
    assert!(snap.excluded.is_empty());
    assert!(snap.fully_consistent());
    assert_eq!(agent.pipeline.outstanding(), 0);
}
