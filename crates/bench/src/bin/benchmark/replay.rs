//! Isolated replays: one layer at a time, through its public functions,
//! on an input shaped by counts the traced run supplied. Each returns
//! host-nanoseconds per operation over a fixed operation count, so the
//! number is comparable between commits (it is a cost, not a speed-up:
//! it omits everything the layer waits for in a real run).

use crate::des;
use fabric::traffic::Source;
use netsim::queue::EventQueue;
use netsim::rng::SimRng;
use netsim::shard::{pack_key, Emit, KeyedQueue, ShardWorld, ShardedSim};
use netsim::sim::{Scheduler, Simulation, World};
use netsim::time::{Duration, Instant};
use speedlight_core::control::{ControlPlane, Registers};
use speedlight_core::types::{ChannelId, Notification, UnitId};
use speedlight_core::unit::{DataPlaneUnit, SnapSlot, UnitConfig};
use speedlight_core::WrappedId;
use std::hint::black_box;
use std::time::Instant as WallInstant;
use telemetry::{MetricBank, MetricKind};

/// Operations per replay: long enough that the clock reads vanish, short
/// enough that every replay together stays within a few seconds.
const OPS: u64 = 2_000_000;

fn ns_per_op(start: WallInstant, ops: u64) -> f64 {
    start.elapsed().as_nanos() as f64 / ops as f64
}

/// Follow-up delays of the two timeline shapes: dense traffic lands within
/// the event queue's 65 µs near horizon, control-plane-only runs a
/// millisecond or more beyond it.
#[derive(Debug, Clone, Copy)]
pub enum Timeline {
    Dense,
    Sparse,
}

impl Timeline {
    fn delta(self, rng: &mut SimRng) -> Duration {
        match self {
            Timeline::Dense => Duration::from_nanos(rng.below(65_000)),
            Timeline::Sparse => Duration::from_nanos(1_000_000 + rng.below(9_000_000)),
        }
    }
}

/// The hold model on `EventQueue`: at a steady `depth`, pop the earliest
/// event and push one `delta` later. One op is one pop and one push —
/// what the engine does per event.
pub fn event_queue_hold(depth: usize, shape: Timeline) -> f64 {
    let mut rng = SimRng::new(0x9e37);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth.max(1) {
        q.push(Instant::ZERO + shape.delta(&mut rng), i as u64);
    }
    let hold = |q: &mut EventQueue<u64>, rng: &mut SimRng| {
        let Some((t, e)) = q.pop() else {
            unreachable!("the hold model keeps the queue at its depth");
        };
        q.push(t + shape.delta(rng), black_box(e));
    };
    for _ in 0..OPS / 10 {
        hold(&mut q, &mut rng); // reach the steady-state layout first
    }
    let start = WallInstant::now();
    for _ in 0..OPS {
        hold(&mut q, &mut rng);
    }
    ns_per_op(start, OPS)
}

/// The same hold model on the sharded runtime's `KeyedQueue`.
pub fn keyed_queue_hold(depth: usize) -> f64 {
    let mut rng = SimRng::new(0x9e37);
    let mut q: KeyedQueue<u64> = KeyedQueue::new();
    let mut seq = 0u64;
    let mut key = || {
        seq += 1;
        pack_key(0, seq)
    };
    for i in 0..depth.max(1) {
        q.push(
            Instant::ZERO + Timeline::Dense.delta(&mut rng),
            key(),
            i as u64,
        );
    }
    let mut hold = |q: &mut KeyedQueue<u64>| {
        let Some((t, _, e)) = q.pop() else {
            unreachable!("the hold model keeps the queue at its depth");
        };
        q.push(t + Timeline::Dense.delta(&mut rng), key(), black_box(e));
    };
    for _ in 0..OPS / 10 {
        hold(&mut q);
    }
    let start = WallInstant::now();
    for _ in 0..OPS {
        hold(&mut q);
    }
    ns_per_op(start, OPS)
}

/// `Simulation::run_until` over a world that does nothing but schedule
/// one follow-up per event: the engine's own cost per event.
pub fn simulation_loop() -> f64 {
    struct Chain;
    impl World for Chain {
        type Event = u64;
        fn handle(&mut self, _: Instant, n: u64, sched: &mut Scheduler<u64>) {
            sched.after(Duration::from_micros(1), black_box(n) + 1);
        }
    }
    let mut sim = Simulation::new(Chain);
    sim.schedule_at(Instant::ZERO, 0);
    sim.max_events = Some(OPS);
    let start = WallInstant::now();
    sim.run_to_completion();
    ns_per_op(start, OPS)
}

/// A shard world with `chains` self-perpetuating events per shard, one
/// lookahead apart. With `cross`, each follow-up goes to the other shard
/// (one cross-shard message per event); without, it stays home.
struct Relay {
    me: usize,
    shards: usize,
    lookahead: Duration,
    cross: bool,
    seq: u64,
}

impl ShardWorld for Relay {
    type Event = u64;
    fn dispatch(&mut self, now: Instant, n: u64, out: &mut Vec<Emit<u64>>) {
        self.seq += 1;
        out.push(Emit {
            dest: if self.cross {
                (self.me + 1) % self.shards
            } else {
                self.me
            },
            time: now + self.lookahead,
            key: pack_key(self.me as u32, self.seq),
            event: black_box(n),
        });
    }
}

/// Host time of `windows` windows of a 2-shard `ShardedSim` with `chains`
/// events per shard per window, its windows run inline (`threads` 1, as
/// the workload runs them) or on worker threads. Returns
/// `(seconds, windows, messages)` as the runtime counted them.
fn relay_run(chains: u64, cross: bool, windows: u64, threads: usize) -> (f64, u64, u64) {
    const SHARDS: usize = 2;
    let lookahead = Duration::from_nanos(300);
    let worlds = (0..SHARDS)
        .map(|me| Relay {
            me,
            shards: SHARDS,
            lookahead,
            cross,
            seq: 0,
        })
        .collect();
    let mut sim = ShardedSim::new(worlds, lookahead);
    for shard in 0..SHARDS {
        for c in 0..chains {
            sim.inject(
                shard,
                Instant::ZERO,
                pack_key(u32::MAX >> 8, shard as u64 * chains + c),
                c,
            );
        }
    }
    let deadline = Instant::ZERO + lookahead.saturating_mul(windows.saturating_sub(1));
    let start = WallInstant::now();
    parfan::with_jobs(threads, || sim.run_until(deadline));
    let secs = start.elapsed().as_secs_f64();
    let stats = sim.stats();
    (secs, stats.windows, stats.messages)
}

/// Costs of the window protocol at 2 shards.
#[derive(Debug, Clone, Copy)]
pub struct WindowCosts {
    /// A window that carries one home-bound event per shard, run inline.
    pub ns_per_window: f64,
    /// What each of 32 cross-shard messages per shard adds to a window.
    pub ns_per_msg: f64,
    /// The first again with one worker thread per shard: the price of the
    /// barrier hand-off the inline loop does not pay.
    pub threaded_ns_per_window: f64,
}

pub fn shard_windows() -> WindowCosts {
    const WINDOWS: u64 = 20_000;
    const CHAINS: u64 = 32;
    let per_window = |(secs, windows, _): (f64, u64, u64)| secs * 1e9 / windows.max(1) as f64;
    // Same events per window either way; the difference is the routing.
    let home = per_window(relay_run(CHAINS, false, WINDOWS, 1));
    let (cross_s, cross_windows, messages) = relay_run(CHAINS, true, WINDOWS, 1);
    let routing_ns = cross_s * 1e9 - home * cross_windows as f64;
    WindowCosts {
        ns_per_window: per_window(relay_run(1, false, WINDOWS, 1)),
        ns_per_msg: routing_ns / messages.max(1) as f64,
        threaded_ns_per_window: per_window(relay_run(1, false, WINDOWS, 2)),
    }
}

fn unit(channels: u16) -> DataPlaneUnit {
    DataPlaneUnit::new(UnitConfig {
        unit: UnitId::ingress(0, 0),
        modulus: 512,
        channel_state: true,
        num_channels: channels,
    })
}

/// `DataPlaneUnit::on_packet` in its three cases, channel state on:
/// `(current, in_flight, advance)` ns per packet.
pub fn unit_cases() -> (f64, f64, f64) {
    let current = {
        let mut u = unit(4);
        let w = WrappedId::from_raw(0, 512);
        let start = WallInstant::now();
        for _ in 0..OPS {
            black_box(u.on_packet(ChannelId(0), black_box(w), 7, 1, false));
        }
        ns_per_op(start, OPS)
    };
    let in_flight = {
        let mut u = unit(4);
        u.on_packet(ChannelId(0), WrappedId::from_raw(1, 512), 7, 1, false);
        let old = WrappedId::from_raw(0, 512);
        let start = WallInstant::now();
        for _ in 0..OPS {
            black_box(u.on_packet(ChannelId(1), black_box(old), 7, 1, false));
        }
        ns_per_op(start, OPS)
    };
    let advance = {
        let mut u = unit(1);
        let start = WallInstant::now();
        for epoch in 1..=OPS {
            black_box(u.on_packet(ChannelId(0), WrappedId::wrap(epoch, 512), epoch, 1, false));
        }
        ns_per_op(start, OPS)
    };
    (current, in_flight, advance)
}

struct OneUnit(DataPlaneUnit);

impl Registers for OneUnit {
    fn read_sid(&mut self, _: UnitId) -> WrappedId {
        self.0.sid()
    }
    fn read_last_seen(&mut self, _: UnitId, channel: ChannelId) -> WrappedId {
        self.0.last_seen(channel)
    }
    fn take_slot(&mut self, _: UnitId, id: WrappedId) -> Option<SnapSlot> {
        self.0.take_slot(id)
    }
}

/// `ControlPlane::on_notification`: `(advance, duplicate)` ns each. The
/// advance case alternates a unit advance with the notification it
/// raises (both are timed; the unit's share is `unit_cases().2`).
pub fn control_cases() -> (f64, f64) {
    let uid = UnitId::ingress(0, 0);
    let advance = {
        let mut cp = ControlPlane::new(0, 4_096, false);
        cp.register_unit(uid, 1, vec![true]);
        let mut regs = OneUnit(DataPlaneUnit::new(UnitConfig {
            unit: uid,
            modulus: 4_096,
            channel_state: false,
            num_channels: 1,
        }));
        let start = WallInstant::now();
        for epoch in 1..=OPS {
            let out =
                regs.0
                    .on_packet(ChannelId(0), WrappedId::wrap(epoch, 4_096), epoch, 1, false);
            let Some(n) = out.notification else {
                unreachable!("every epoch advance raises a notification");
            };
            black_box(cp.on_notification(&n, &mut regs));
        }
        ns_per_op(start, OPS)
    };
    let duplicate = {
        let mut cp = ControlPlane::new(0, 512, true);
        cp.register_unit(uid, 1, vec![true]);
        let mut regs = OneUnit(unit(1));
        let zero = WrappedId::from_raw(0, 512);
        let n = Notification {
            unit: uid,
            old_sid: zero,
            new_sid: zero,
            channel: Some(ChannelId(0)),
            old_last_seen: zero,
            new_last_seen: zero,
        };
        let start = WallInstant::now();
        for _ in 0..OPS {
            black_box(cp.on_notification(black_box(&n), &mut regs));
        }
        ns_per_op(start, OPS)
    };
    (advance, duplicate)
}

/// `PoissonSource`'s next-emission step with the fig9 parameters.
pub fn poisson_step() -> f64 {
    let mut src = des::poisson_source(0, 6, des::Topo::LeafSpine.pps_per_host(), 9);
    let mut rng = SimRng::new(9);
    let mut out = Vec::with_capacity(1);
    let mut now = Instant::ZERO;
    let start = WallInstant::now();
    for _ in 0..OPS {
        out.clear();
        let Some(next) = src.on_wake(now, &mut rng, &mut out) else {
            unreachable!("an unbounded Poisson source never finishes");
        };
        black_box(&out);
        now = next;
    }
    ns_per_op(start, OPS)
}

/// `MetricBank::on_packet` + `read` with the packet-count metric: what
/// each unit does to its register per packet.
pub fn metric_bank_step() -> f64 {
    let mut bank = MetricBank::new(MetricKind::PacketCount, 64);
    let mut t = 0u64;
    let start = WallInstant::now();
    for _ in 0..OPS {
        t += 800;
        bank.on_packet(7, Instant::from_nanos(t), 700);
        black_box(bank.read(7));
    }
    ns_per_op(start, OPS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_counts_windows_and_messages() {
        let (_, windows, messages) = relay_run(4, true, 50, 1);
        assert_eq!(windows, 50);
        // 2 shards × 4 chains, one message per event; the last window's
        // follow-ups are routed too.
        assert_eq!(messages, 2 * 4 * 50);
        let (_, windows, messages) = relay_run(1, false, 50, 2);
        assert_eq!((windows, messages), (50, 0));
    }
}
