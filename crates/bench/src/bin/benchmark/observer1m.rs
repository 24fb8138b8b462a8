//! `observer_1m`: a seeded report storm over 10⁶ channels through the
//! staged `PipelineObserver`, driven stage by stage so the bounded queues
//! and the backpressure path are what is measured. No simulator runs.

use speedlight_core::control::{Report, ReportValue};
use speedlight_core::observer::{GlobalSnapshot, UnitOutcome};
use speedlight_core::pipeline::{PipelineConfig, PipelineObserver, PipelineStats};
use speedlight_core::{Epoch, UnitId};
use std::time::Instant as WallInstant;

const MODULUS: u16 = 512;
pub const DEVICES: u16 = 1000;
pub const PORTS: u16 = 1000;
pub const CHANNELS: u64 = DEVICES as u64 * PORTS as u64;
pub const EPOCHS: u64 = 8;

/// The `i`-th report of `epoch` in the seeded delivery order: a stride
/// walk of the unit space. The stride ends in 7, so it is coprime to the
/// channel count (a product of 2s and 5s) and the walk visits every unit
/// exactly once per epoch; the order differs by seed and epoch.
fn delivery(seed: u64, epoch: Epoch, i: u64) -> (u16, Report) {
    let n = CHANNELS;
    let mixed = seed
        .wrapping_mul(0x5851_f42d_4c95_7f2d)
        .wrapping_add(epoch.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let stride = ((mixed % (n / 10)) * 10 + 7) % n;
    let idx = (i % n).wrapping_mul(stride).wrapping_add(mixed >> 32) % n;
    let device = (idx / u64::from(PORTS)) as u16;
    let port = (idx % u64::from(PORTS)) as u16;
    let report = Report {
        unit: UnitId::ingress(device, port),
        epoch,
        value: ReportValue::Value {
            local: idx ^ epoch,
            channel: 0,
        },
    };
    (device, report)
}

/// Σ over `idx` in `0..n` of `idx ^ epoch`, bit by bit: bit `b` of the
/// XOR is set for the indices whose bit `b` differs from the epoch's.
pub fn xor_sum(n: u64, epoch: u64) -> u64 {
    (0..64)
        .map(|b| {
            let period = 1u128 << (b + 1);
            let half = 1u128 << b;
            let n = u128::from(n);
            let set = (n / period) * half + (n % period).saturating_sub(half);
            let differing = if (epoch >> b) & 1 == 1 { n - set } else { set };
            (differing << b) as u64
        })
        .fold(0u64, u64::wrapping_add)
}

/// Host-time spans around the five stage calls (the traced pass only).
#[derive(Debug, Default, Clone, Copy)]
pub struct StageBusy {
    pub collect_s: f64,
    pub validate_s: f64,
    pub assemble_s: f64,
    pub finalize_s: f64,
    pub persist_s: f64,
    /// Batches timed (one span per stage per batch).
    pub batches: u64,
}

#[derive(Debug, Clone)]
pub struct ObserverTrial {
    pub setup_s: f64,
    pub wall_s: f64,
    pub offered: u64,
    /// Reports credited to a sealed snapshot.
    pub credited: u64,
    pub sealed: u64,
    pub digest: u64,
    pub problems: Vec<String>,
    pub stats: PipelineStats,
    pub busy: Option<StageBusy>,
}

/// What the checks and the digest need from one sealed snapshot, in a
/// single pass over its 10⁶ units. The digest is FNV-1a over 64-bit words
/// rather than bytes: eight snapshots of a million units are hashed after
/// every trial, outside the timed region but inside the run's time budget.
struct Sealed {
    credited: u64,
    total: u64,
    words: u64,
}

fn inspect(snap: &GlobalSnapshot) -> Sealed {
    let mut s = Sealed {
        credited: 0,
        total: 0,
        words: 0xcbf2_9ce4_8422_2325,
    };
    let mix = |words: &mut u64, w: u64| *words = (*words ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    for (unit, outcome) in &snap.units {
        mix(
            &mut s.words,
            (u64::from(unit.device) << 16) | u64::from(unit.port),
        );
        if let UnitOutcome::Value { local, channel } = outcome {
            mix(&mut s.words, *local);
            mix(&mut s.words, *channel);
            s.credited += 1;
            s.total = s.total.wrapping_add(*local).wrapping_add(*channel);
        }
    }
    s
}

/// Run `f`, adding its host time to `slot` when there is one.
fn timed<R>(slot: Option<&mut f64>, f: impl FnOnce() -> R) -> R {
    let Some(slot) = slot else {
        return f();
    };
    let start = WallInstant::now();
    let r = f();
    *slot += start.elapsed().as_secs_f64();
    r
}

/// Run every stage once, in pipeline order, and move what sealed into
/// `sealed`. Returns how many items moved anywhere.
fn pump_stages(
    pipe: &mut PipelineObserver,
    sealed: &mut Vec<GlobalSnapshot>,
    mut busy: Option<&mut StageBusy>,
) -> usize {
    let mut moved = timed(busy.as_deref_mut().map(|b| &mut b.validate_s), || {
        pipe.pump_validate_traced(&mut obs::NoopSink, 0)
    });
    moved += timed(busy.as_deref_mut().map(|b| &mut b.assemble_s), || {
        pipe.pump_assemble()
    });
    moved += timed(busy.as_deref_mut().map(|b| &mut b.finalize_s), || {
        pipe.pump_finalize_traced(&mut obs::NoopSink, 0)
    });
    moved += timed(busy.as_deref_mut().map(|b| &mut b.persist_s), || {
        let before = sealed.len();
        sealed.extend(std::iter::from_fn(|| pipe.take_finalized()));
        sealed.len() - before
    });
    if let Some(b) = busy {
        b.batches += 1;
    }
    moved
}

/// The observer with its thousand devices registered, and how long that
/// took: what `setup_s` times.
fn build() -> (PipelineObserver, f64) {
    let start = WallInstant::now();
    let mut pipe = PipelineObserver::new(PipelineConfig::for_modulus(MODULUS));
    for d in 0..DEVICES {
        pipe.register_device(d, (0..PORTS).map(|p| UnitId::ingress(d, p)).collect());
    }
    let setup_s = start.elapsed().as_secs_f64();
    (pipe, setup_s)
}

/// One trial. With `traced`, one span is taken around each stage call of
/// each batch (a batch is what fits the collect queue, 1024 reports).
pub fn run_trial(seed: u64, traced: bool) -> ObserverTrial {
    let (mut pipe, setup_s) = build();

    let mut sealed: Vec<GlobalSnapshot> = Vec::with_capacity(EPOCHS as usize);
    let mut busy = traced.then(StageBusy::default);
    let mut offered = 0u64;
    let start = WallInstant::now();
    for _ in 0..EPOCHS {
        let Some(epoch) = pipe.begin_snapshot() else {
            panic!("every earlier epoch has sealed, so the no-lapping cap cannot bind");
        };
        let mut i = 0;
        while i < CHANNELS {
            // Collect: offer until the bounded queue refuses.
            timed(busy.as_mut().map(|b| &mut b.collect_s), || {
                while i < CHANNELS {
                    let (device, report) = delivery(seed, epoch, i);
                    if !pipe.offer_report(device, report) {
                        break; // backpressure: a retry after the pump, not a failure
                    }
                    offered += 1;
                    i += 1;
                }
            });
            while pump_stages(&mut pipe, &mut sealed, busy.as_mut()) > 0 {}
        }
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut problems = Vec::new();
    let mut h = parfan::digest::Fnv64::new();
    let mut credited = 0u64;
    for snap in &sealed {
        let seen = inspect(snap);
        h.write_u64(snap.epoch);
        h.write_u64(snap.devices.len() as u64);
        h.write_u64(snap.excluded.len() as u64);
        h.write_u64(snap.units.len() as u64);
        h.write_u64(seen.words);
        credited += seen.credited;
        if snap.units.len() as u64 != CHANNELS {
            problems.push(format!(
                "epoch {} sealed {} units, expected {CHANNELS}",
                snap.epoch,
                snap.units.len()
            ));
        }
        let want = xor_sum(CHANNELS, snap.epoch);
        if seen.total != want {
            problems.push(format!(
                "epoch {} total {} differs from the closed form {want}",
                snap.epoch, seen.total
            ));
        }
    }
    if sealed.len() as u64 != EPOCHS {
        problems.push(format!("{} of {EPOCHS} epochs sealed", sealed.len()));
    }
    ObserverTrial {
        setup_s,
        wall_s,
        offered,
        credited,
        sealed: sealed.len() as u64,
        digest: h.finish(),
        problems,
        stats: pipe.stats().clone(),
        busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_matches_the_sum_it_replaces() {
        for n in [1u64, 2, 7, 8, 1000, 4097] {
            for epoch in [0u64, 1, 5, 8, 511, 1 << 40] {
                let brute = (0..n).fold(0u64, |acc, idx| acc.wrapping_add(idx ^ epoch));
                assert_eq!(xor_sum(n, epoch), brute, "n={n} epoch={epoch}");
            }
        }
    }

    #[test]
    fn stride_walk_visits_every_unit_once() {
        let mut seen = vec![false; CHANNELS as usize];
        for i in 0..CHANNELS {
            let (device, report) = delivery(9, 3, i);
            assert_eq!(device, report.unit.device);
            let idx = usize::from(device) * usize::from(PORTS) + usize::from(report.unit.port);
            assert!(!std::mem::replace(&mut seen[idx], true), "unit {idx} twice");
        }
    }
}
