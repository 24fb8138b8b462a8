//! Conservative sharded parallel DES runtime.
//!
//! One logical simulation is partitioned into N shards, each owning a
//! disjoint set of event *domains* (the world decides what a domain is —
//! the fabric maps devices, hosts, and the control plane onto them). Each
//! shard has its own [`KeyedQueue`] — the serial engine's calendar core
//! ordered by `(time, key)` instead of `(time, insertion order)`;
//! cross-shard follow-ups travel as timestamped messages routed between
//! windows.
//!
//! # Window-barrier protocol
//!
//! The runtime advances in lookahead windows, SimBricks-style:
//!
//! 1. `T` = the minimum next-event time across all shards (a global,
//!    partition-independent quantity).
//! 2. `H = T + L`, where the lookahead `L` is a partition-independent
//!    constant chosen by the world (for the fabric: the minimum link
//!    propagation delay on any inter-device edge).
//! 3. Every shard processes its events with `time < H` in `(time, key)`
//!    order. The world schedules each follow-up through an [`EmitSink`]
//!    — one push: same-shard follow-ups straight into the local queue,
//!    cross-shard ones into the shard's outbox.
//! 4. Window end. Outboxes are drained in shard-index order and each
//!    message is pushed into its destination queue.
//!
//! The protocol is conservative: the world guarantees every cross-domain
//! follow-up is scheduled at least `L` after the event that caused it, so
//! a message emitted inside the window `[T, H)` lands at `time ≥ H` —
//! never inside the window being processed. The runtime asserts this.
//!
//! # Why execution is byte-identical at any shard count
//!
//! Every event carries a canonical key: `(source domain, per-source
//! emission sequence)`, packed into a `u64` and totally ordered together
//! with the timestamp. Because
//!
//! * the window sequence `[T, T+L)` depends only on global event times
//!   (N-invariant), and
//! * the multiset of events a domain receives per window is N-invariant
//!   (same emitters, same keys, routing changes only *which queue* holds
//!   them), and
//! * each queue pops in total `(time, key)` order,
//!
//! every domain observes the same events in the same order at every shard
//! count, so all state evolution — and every digest, trace, and metric
//! derived from it — is byte-identical at shard counts 1, 2, 4 and 8.
//!
//! # Workers
//!
//! Windows run on the calling thread, one shard after another. A window
//! holds microseconds of work (≈ 80 events on `fat_tree:8`, ≈ 11 on the
//! paper's leaf-spine), less than one barrier crossing costs. Threads go
//! where runs are independent: `parfan` fans whole simulations out.

use crate::queue::Calendar;
use crate::sim::RunOutcome;
use crate::time::{Duration, Instant};

/// Number of low bits of a packed key holding the per-source emission
/// sequence; the bits above hold the source domain id.
pub const KEY_SEQ_BITS: u32 = 40;

/// Pack a `(source domain, emission sequence)` pair into one ordered key.
/// Panics if the sequence overflows its bit budget (2^40 emissions from a
/// single domain — far beyond any simulation horizon here).
pub fn pack_key(src_domain: u32, seq: u64) -> u64 {
    assert!(
        seq < (1 << KEY_SEQ_BITS),
        "emission sequence overflow for domain {src_domain}"
    );
    (u64::from(src_domain) << KEY_SEQ_BITS) | seq
}

/// A shard-local event queue ordered by `(time, key)`.
///
/// It is the calendar core of [`crate::queue`] — the one under
/// [`crate::queue::EventQueue`] — with the event's canonical key as the
/// tie-break in place of an insertion sequence: the order is a property
/// of the *events themselves*, which is what makes per-shard pop
/// sequences independent of how events were routed. Two events with the
/// same `(time, key)` pop in unspecified order; [`pack_key`] never
/// produces such a pair.
pub struct KeyedQueue<E> {
    core: Calendar<E>,
}

impl<E> Default for KeyedQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> KeyedQueue<E> {
    /// An empty queue.
    pub fn new() -> Self {
        KeyedQueue {
            core: Calendar::new(),
        }
    }

    /// Insert `event` at `(time, key)`.
    pub fn push(&mut self, time: Instant, key: u64, event: E) {
        self.core.push(time, key, event);
    }

    /// Remove and return the earliest `(time, key, event)`.
    pub fn pop(&mut self) -> Option<(Instant, u64, E)> {
        self.pop_at_or_before(Instant::from_nanos(u64::MAX))
    }

    /// Remove and return the earliest `(time, key, event)` if it fires at
    /// or before `deadline` — one queue operation where `peek_time` then
    /// `pop` is two.
    pub fn pop_at_or_before(&mut self, deadline: Instant) -> Option<(Instant, u64, E)> {
        self.core.pop_if(|time, _| time <= deadline)
    }

    /// Earliest pending time, if any.
    pub fn peek_time(&self) -> Option<Instant> {
        self.core.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.core.len() == 0
    }

    /// Total events popped over the queue's lifetime.
    pub fn popped(&self) -> u64 {
        self.core.popped()
    }
}

/// A follow-up event captured from a shard world, addressed to a shard.
pub struct Emit<E> {
    /// Destination shard index.
    pub dest: usize,
    /// Absolute fire time.
    pub time: Instant,
    /// Canonical `(source domain, sequence)` key ([`pack_key`]).
    pub key: u64,
    /// The event itself.
    pub event: E,
}

/// Where a [`ShardWorld`] schedules the follow-ups of the event it is
/// handling: the shard's own queue and outbox, lent for one dispatch.
pub struct EmitSink<'a, E> {
    queue: &'a mut KeyedQueue<E>,
    outbox: &'a mut Vec<Emit<E>>,
    /// Capture buffer for the default [`ShardWorld::dispatch_into`].
    scratch: &'a mut Vec<Emit<E>>,
    /// The dispatching shard's index.
    shard: usize,
    /// The instant of the event being handled.
    now: Instant,
}

impl<E> EmitSink<'_, E> {
    /// Schedule `event` at `(time, key)` on shard `dest`: one push, into
    /// the local queue when `dest` is the dispatching shard, into its
    /// outbox otherwise. Panics if `time` is before the event being
    /// handled; the lookahead contract on cross-shard follow-ups is
    /// checked when the outbox is routed.
    #[inline]
    pub fn emit(&mut self, dest: usize, time: Instant, key: u64, event: E) {
        assert!(
            time >= self.now,
            "follow-up scheduled into the past: now={}, at={}",
            self.now,
            time
        );
        if dest == self.shard {
            self.queue.push(time, key, event);
        } else {
            self.outbox.push(Emit {
                dest,
                time,
                key,
                event,
            });
        }
    }
}

/// A world fragment owning one shard's domains.
///
/// The implementor routes each follow-up to the shard owning its
/// destination domain and stamps it with a canonical key. The contract
/// that makes the conservative protocol sound: any follow-up addressed
/// to a *different shard's* domain must fire at least the configured
/// lookahead after `now` (the runtime asserts it when routing).
///
/// A world implements [`ShardWorld::dispatch`] and, if follow-ups are
/// its hot path, overrides [`ShardWorld::dispatch_into`] as well. The
/// runtime calls only `dispatch_into`; `dispatch` is what its default
/// body runs, so a world that collects follow-ups in a `Vec` anyway
/// writes nothing else, and one that overrides the sink method saves the
/// copy through that `Vec` for every follow-up.
pub trait ShardWorld {
    /// The event alphabet.
    type Event;

    /// Handle one owned event at `now`, appending every follow-up to
    /// `out` (same-shard follow-ups included).
    fn dispatch(&mut self, now: Instant, event: Self::Event, out: &mut Vec<Emit<Self::Event>>);

    /// Handle one owned event at `now`, scheduling every follow-up
    /// through `sink` (same-shard follow-ups included). The default
    /// collects them with [`ShardWorld::dispatch`] and emits them in
    /// that order.
    fn dispatch_into(
        &mut self,
        now: Instant,
        event: Self::Event,
        sink: &mut EmitSink<'_, Self::Event>,
    ) {
        let mut scratch = std::mem::take(sink.scratch);
        self.dispatch(now, event, &mut scratch);
        for e in scratch.drain(..) {
            sink.emit(e.dest, e.time, e.key, e.event);
        }
        *sink.scratch = scratch;
    }

    /// Called once per shard at the end of **every** window with the
    /// window's horizon (exclusive bound) — including windows in which
    /// this shard executed no events. Default is a no-op; profiling
    /// worlds use it to account barrier stall deterministically (each
    /// replica sees the identical window sequence regardless of how
    /// domains are packed onto shards).
    fn window_close(&mut self, _horizon: Instant) {}
}

/// One shard: a world fragment plus its queue and outbox.
struct Shard<S: ShardWorld> {
    world: S,
    queue: KeyedQueue<S::Event>,
    /// Cross-shard follow-ups emitted this window, drained at the barrier.
    outbox: Vec<Emit<S::Event>>,
    /// Reusable capture buffer for the default
    /// [`ShardWorld::dispatch_into`].
    scratch: Vec<Emit<S::Event>>,
}

/// Runtime statistics (not part of the deterministic output: routing
/// counts vary with shard count by design, so they are reported out of
/// band and never merged into simulation metrics).
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardStats {
    /// Lookahead windows executed.
    pub windows: u64,
    /// Cross-shard messages routed.
    pub messages: u64,
}

/// A sharded simulation: N shard worlds advancing in lockstep windows.
pub struct ShardedSim<S: ShardWorld> {
    shards: Vec<Shard<S>>,
    lookahead: Duration,
    now: Instant,
    stats: ShardStats,
    /// Guard against runaway event cascades; `None` disables the guard.
    pub max_events: Option<u64>,
}

impl<S: ShardWorld> ShardedSim<S> {
    /// Create a sharded simulation at time zero. `lookahead` must be
    /// positive — a zero-lookahead window could never make progress.
    pub fn new(worlds: Vec<S>, lookahead: Duration) -> Self {
        assert!(!worlds.is_empty(), "at least one shard required");
        assert!(
            lookahead > Duration::ZERO,
            "lookahead must be positive for the window protocol to advance"
        );
        ShardedSim {
            shards: worlds
                .into_iter()
                .map(|world| Shard {
                    world,
                    queue: KeyedQueue::new(),
                    outbox: Vec::new(),
                    scratch: Vec::new(),
                })
                .collect(),
            lookahead,
            now: Instant::ZERO,
            stats: ShardStats::default(),
            max_events: None,
        }
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Current (parked) simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Runtime statistics.
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Total events dispatched across all shards.
    pub fn events_dispatched(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.popped()).sum()
    }

    /// Total pending events across all shards.
    pub fn pending(&self) -> u64 {
        self.shards.iter().map(|s| s.queue.len() as u64).sum()
    }

    /// Shard `i`'s world (inspection between runs). Panics if `i` is
    /// out of range.
    pub fn world(&self, i: usize) -> &S {
        let Some(shard) = self.shards.get(i) else {
            panic!("shard {i} out of range");
        };
        &shard.world
    }

    /// Exclusive access to shard `i`'s world (setup and inspection
    /// between runs). Panics if `i` is out of range.
    pub fn world_mut(&mut self, i: usize) -> &mut S {
        let Some(shard) = self.shards.get_mut(i) else {
            panic!("shard {i} out of range");
        };
        &mut shard.world
    }

    /// Schedule an external event on shard `shard` while the simulation
    /// is parked (setup, or between `run_until` calls).
    pub fn inject(&mut self, shard: usize, time: Instant, key: u64, event: S::Event) {
        assert!(
            time >= self.now,
            "cannot inject into the past: now={}, at={}",
            self.now,
            time
        );
        let Some(dest) = self.shards.get_mut(shard) else {
            panic!("shard {shard} out of range");
        };
        dest.queue.push(time, key, event);
    }

    /// Minimum next-event time across all shards.
    fn min_next_time(&self) -> Option<Instant> {
        self.shards.iter().filter_map(|s| s.queue.peek_time()).min()
    }

    /// Drain every outbox in shard-index order into destination queues,
    /// asserting the conservative contract (`time ≥ window horizon`).
    /// Each buffer goes back to its shard, so its capacity survives the
    /// barrier.
    fn route_outboxes(&mut self, horizon: Instant) -> u64 {
        let mut routed = 0;
        for src in 0..self.shards.len() {
            let Some(shard) = self.shards.get_mut(src) else {
                continue;
            };
            let mut outbox = std::mem::take(&mut shard.outbox);
            for emit in outbox.drain(..) {
                assert!(
                    emit.time >= horizon,
                    "cross-shard message inside its own window: at={}, horizon={} \
                     (a cross-domain follow-up was scheduled closer than the lookahead)",
                    emit.time,
                    horizon
                );
                let Some(dest) = self.shards.get_mut(emit.dest) else {
                    panic!("cross-shard message to unknown shard {}", emit.dest);
                };
                dest.queue.push(emit.time, emit.key, emit.event);
                routed += 1;
            }
            if let Some(shard) = self.shards.get_mut(src) {
                shard.outbox = outbox;
            }
        }
        routed
    }

    /// Run until every queue drains or `deadline` passes. Events at the
    /// deadline still execute (matching [`crate::sim::Simulation`]).
    pub fn run_until(&mut self, deadline: Instant) -> RunOutcome {
        let mut dispatched: u64 = 0;
        loop {
            let Some(t) = self.min_next_time() else {
                return RunOutcome::Drained;
            };
            if t > deadline {
                self.now = self.now.max(deadline);
                return RunOutcome::DeadlineReached;
            }
            let horizon = window_horizon(t, self.lookahead);
            // Park where the window actually got to, so `inject` refuses
            // an instant some domain has already passed.
            let mut latest = t;
            for (idx, shard) in self.shards.iter_mut().enumerate() {
                let (count, last) = process_window(shard, idx, horizon, deadline);
                dispatched += count;
                latest = latest.max(last.unwrap_or(t));
            }
            self.stats.messages += self.route_outboxes(horizon);
            self.stats.windows += 1;
            self.now = latest;
            if let Some(limit) = self.max_events {
                if dispatched >= limit {
                    return RunOutcome::EventLimit;
                }
            }
        }
    }
}

/// Window bound for a minimum event time `t`: `t + L`, saturating so a
/// run-to-completion near the top of the clock cannot overflow.
fn window_horizon(t: Instant, lookahead: Duration) -> Instant {
    Instant::from_nanos(t.as_nanos().saturating_add(lookahead.as_nanos()))
}

/// Process one shard's events in `[.., horizon) ∩ [.., deadline]`. The
/// world schedules follow-ups through an [`EmitSink`]: same-shard into
/// the local queue (they may still fall inside this window — intra-domain
/// cascades are not bounded by the lookahead), cross-shard into the
/// outbox. Closes with exactly one [`ShardWorld::window_close`] call.
/// Returns the number of events dispatched and the instant of the last
/// one.
fn process_window<S: ShardWorld>(
    shard: &mut Shard<S>,
    own_idx: usize,
    horizon: Instant,
    deadline: Instant,
) -> (u64, Option<Instant>) {
    let mut dispatched = 0;
    let mut last = None;
    // `t < horizon && t <= deadline` as one bound, so each event costs one
    // queue operation; `horizon ≥ lookahead > 0`, so the step back is
    // well defined.
    let bound = (horizon - Duration::from_nanos(1)).min(deadline);
    while let Some((time, _key, event)) = shard.queue.pop_at_or_before(bound) {
        let mut sink = EmitSink {
            queue: &mut shard.queue,
            outbox: &mut shard.outbox,
            scratch: &mut shard.scratch,
            shard: own_idx,
            now: time,
        };
        shard.world.dispatch_into(time, event, &mut sink);
        dispatched += 1;
        last = Some(time);
    }
    shard.world.window_close(horizon);
    (dispatched, last)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy world: each shard counts tokens it sees and forwards each
    /// token to the next shard (one `hop_delay` later) until its hop
    /// budget is spent.
    struct TokenWorld {
        shard: usize,
        shards: usize,
        hop_delay: Duration,
        /// Each forwarding dispatch also emits — *after* the forward hop,
        /// at this earlier offset — a local token that stops here.
        echo: Option<Duration>,
        /// Taken off every forward hop's instant (contract-breaking).
        rewind: Duration,
        seq: u64,
        /// (time ns, token id) in dispatch order.
        log: Vec<(u64, u32)>,
        /// Horizons passed to `window_close`, in call order.
        closes: Vec<u64>,
    }

    #[derive(Clone, Copy)]
    struct Tok {
        id: u32,
        hops: u32,
    }

    impl TokenWorld {
        fn new(shard: usize, shards: usize, hop_delay: Duration) -> TokenWorld {
            TokenWorld {
                shard,
                shards,
                hop_delay,
                echo: None,
                rewind: Duration::ZERO,
                seq: 0,
                log: Vec::new(),
                closes: Vec::new(),
            }
        }

        fn next_key(&mut self) -> u64 {
            self.seq += 1;
            pack_key(self.shard as u32, self.seq - 1)
        }

        /// The world's one behaviour, handing each follow-up to `emit` as
        /// `(dest, time, key, token)`.
        fn step(
            &mut self,
            now: Instant,
            Tok { id, hops }: Tok,
            mut emit: impl FnMut(usize, Instant, u64, Tok),
        ) {
            self.log.push((now.as_nanos(), id));
            if hops == 0 {
                return;
            }
            let key = self.next_key();
            emit(
                (self.shard + 1) % self.shards,
                now + self.hop_delay - self.rewind,
                key,
                Tok { id, hops: hops - 1 },
            );
            if let Some(offset) = self.echo {
                let key = self.next_key();
                emit(self.shard, now + offset, key, Tok { id, hops: 0 });
            }
        }
    }

    impl ShardWorld for TokenWorld {
        type Event = Tok;

        fn dispatch(&mut self, now: Instant, tok: Tok, out: &mut Vec<Emit<Tok>>) {
            self.step(now, tok, |dest, time, key, event| {
                out.push(Emit {
                    dest,
                    time,
                    key,
                    event,
                });
            });
        }

        fn window_close(&mut self, horizon: Instant) {
            self.closes.push(horizon.as_nanos());
        }
    }

    impl AsRef<TokenWorld> for TokenWorld {
        fn as_ref(&self) -> &TokenWorld {
            self
        }
    }

    /// [`TokenWorld`] scheduling through the sink: the runtime must never
    /// reach its `dispatch`.
    struct SinkTokenWorld(TokenWorld);

    impl ShardWorld for SinkTokenWorld {
        type Event = Tok;

        fn dispatch(&mut self, _now: Instant, _tok: Tok, _out: &mut Vec<Emit<Tok>>) {
            unreachable!("the runtime calls only `dispatch_into`");
        }

        fn dispatch_into(&mut self, now: Instant, tok: Tok, sink: &mut EmitSink<'_, Tok>) {
            self.0.step(now, tok, |dest, time, key, event| {
                sink.emit(dest, time, key, event);
            });
        }

        fn window_close(&mut self, horizon: Instant) {
            self.0.window_close(horizon);
        }
    }

    impl From<TokenWorld> for SinkTokenWorld {
        fn from(world: TokenWorld) -> Self {
            SinkTokenWorld(world)
        }
    }

    impl AsRef<TokenWorld> for SinkTokenWorld {
        fn as_ref(&self) -> &TokenWorld {
            &self.0
        }
    }

    /// Either way into the runtime: [`TokenWorld`] through the default
    /// `Vec` adapter, [`SinkTokenWorld`] through the sink.
    trait Twin: ShardWorld<Event = Tok> + From<TokenWorld> + AsRef<TokenWorld> {}
    impl<W: ShardWorld<Event = Tok> + From<TokenWorld> + AsRef<TokenWorld>> Twin for W {}

    fn twin_sim<W: Twin>(
        shards: usize,
        lookahead: Duration,
        world: impl Fn(usize) -> TokenWorld,
    ) -> ShardedSim<W> {
        ShardedSim::new((0..shards).map(|s| W::from(world(s))).collect(), lookahead)
    }

    fn token_sim(
        shards: usize,
        hop_delay: Duration,
        lookahead: Duration,
    ) -> ShardedSim<TokenWorld> {
        twin_sim(shards, lookahead, |s| TokenWorld::new(s, shards, hop_delay))
    }

    const L: Duration = Duration::from_nanos(100);

    #[test]
    fn keyed_queue_pops_in_time_then_key_order() {
        let mut q = KeyedQueue::new();
        q.push(Instant::from_nanos(5), pack_key(1, 0), "b");
        q.push(Instant::from_nanos(5), pack_key(0, 7), "a");
        q.push(Instant::from_nanos(2), pack_key(9, 9), "first");
        q.push(Instant::from_nanos(5), pack_key(1, 1), "c");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(Instant::from_nanos(2)));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, ["first", "a", "b", "c"]);
        assert!(q.is_empty());
        assert_eq!(q.popped(), 4);
    }

    #[test]
    fn pack_key_orders_by_domain_then_sequence() {
        assert!(pack_key(0, u64::MAX >> (64 - KEY_SEQ_BITS)) < pack_key(1, 0));
        assert_eq!(pack_key(3, 5), (3u64 << KEY_SEQ_BITS) | 5);
    }

    #[test]
    #[should_panic(expected = "emission sequence overflow")]
    fn pack_key_rejects_sequence_overflow() {
        pack_key(0, 1 << KEY_SEQ_BITS);
    }

    #[test]
    #[should_panic(expected = "lookahead must be positive")]
    fn zero_lookahead_is_rejected() {
        let worlds = vec![TokenWorld::new(0, 1, L)];
        ShardedSim::new(worlds, Duration::ZERO);
    }

    #[test]
    fn run_reports_drained_deadline_and_event_limit() {
        // A 3-hop token across 2 shards: drains before a far deadline.
        let mut sim = token_sim(2, L, L);
        sim.inject(0, Instant::ZERO, pack_key(2, 0), Tok { id: 1, hops: 3 });
        assert!(matches!(
            sim.run_until(Instant::from_nanos(10_000)),
            RunOutcome::Drained
        ));
        assert_eq!(sim.events_dispatched(), 4);
        assert_eq!(sim.pending(), 0);

        // Same scenario, deadline mid-flight: parks at the deadline.
        let mut sim = token_sim(2, L, L);
        sim.inject(0, Instant::ZERO, pack_key(2, 0), Tok { id: 1, hops: 3 });
        assert!(matches!(
            sim.run_until(Instant::from_nanos(150)),
            RunOutcome::DeadlineReached
        ));
        assert_eq!(sim.now(), Instant::from_nanos(150));
        assert_eq!(sim.pending(), 1);

        // Event guard trips before the token finishes hopping.
        let mut sim = token_sim(2, L, L);
        sim.max_events = Some(2);
        sim.inject(0, Instant::ZERO, pack_key(2, 0), Tok { id: 1, hops: 9 });
        assert!(matches!(
            sim.run_until(Instant::from_nanos(10_000)),
            RunOutcome::EventLimit
        ));
    }

    #[test]
    fn deadline_events_still_execute() {
        let mut sim = token_sim(1, L, L);
        sim.inject(
            0,
            Instant::from_nanos(500),
            pack_key(1, 0),
            Tok { id: 7, hops: 0 },
        );
        assert!(matches!(
            sim.run_until(Instant::from_nanos(500)),
            RunOutcome::Drained
        ));
        assert_eq!(sim.world(0).log, [(500, 7)]);
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn injecting_into_the_past_panics() {
        let mut sim = token_sim(1, L, L);
        sim.inject(
            0,
            Instant::from_nanos(90),
            pack_key(1, 0),
            Tok { id: 0, hops: 0 },
        );
        // Parks at the deadline (50) without reaching the pending event.
        sim.run_until(Instant::from_nanos(50));
        sim.inject(
            0,
            Instant::from_nanos(20),
            pack_key(1, 1),
            Tok { id: 0, hops: 0 },
        );
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn an_earlier_deadline_does_not_rewind_the_clock() {
        let mut sim = token_sim(1, L, L);
        sim.inject(
            0,
            Instant::from_nanos(900),
            pack_key(1, 0),
            Tok { id: 0, hops: 0 },
        );
        sim.run_until(Instant::from_nanos(500));
        sim.run_until(Instant::from_nanos(250));
        assert_eq!(sim.now(), Instant::from_nanos(500));
        sim.inject(
            0,
            Instant::from_nanos(300),
            pack_key(1, 1),
            Tok { id: 0, hops: 0 },
        );
    }

    #[test]
    #[should_panic(expected = "cannot inject into the past")]
    fn drained_run_parks_at_the_last_dispatched_instant() {
        // One window [1000, 1100) dispatches both tokens; the clock must
        // park at 1050, not at the window's start.
        let mut sim = token_sim(1, L, L);
        for (seq, at) in [(0, 1_000), (1, 1_050)] {
            sim.inject(
                0,
                Instant::from_nanos(at),
                pack_key(1, seq),
                Tok { id: 0, hops: 0 },
            );
        }
        assert!(matches!(
            sim.run_until(Instant::from_nanos(10_000)),
            RunOutcome::Drained
        ));
        assert_eq!(sim.world(0).log, [(1_000, 0), (1_050, 0)]);
        sim.inject(
            0,
            Instant::from_nanos(1_010),
            pack_key(1, 2),
            Tok { id: 0, hops: 0 },
        );
    }

    /// Cross-shard hops scheduled closer than the lookahead break the
    /// conservative contract; the router must refuse.
    fn lookahead_violation<W: Twin>() {
        let mut sim: ShardedSim<W> =
            twin_sim(2, L, |s| TokenWorld::new(s, 2, Duration::from_nanos(10)));
        sim.inject(0, Instant::ZERO, pack_key(2, 0), Tok { id: 1, hops: 1 });
        sim.run_until(Instant::from_nanos(1_000));
    }

    #[test]
    #[should_panic(expected = "cross-shard message inside its own window")]
    fn lookahead_violation_is_caught_when_routing() {
        lookahead_violation::<TokenWorld>();
    }

    #[test]
    #[should_panic(expected = "cross-shard message inside its own window")]
    fn lookahead_violation_is_caught_when_routing_through_the_sink() {
        lookahead_violation::<SinkTokenWorld>();
    }

    /// A follow-up one nanosecond before the event that caused it.
    fn backdated_follow_up<W: Twin>() {
        let mut sim: ShardedSim<W> = twin_sim(1, L, |s| TokenWorld {
            rewind: Duration::from_nanos(1),
            ..TokenWorld::new(s, 1, Duration::ZERO)
        });
        sim.inject(
            0,
            Instant::from_nanos(50),
            pack_key(1, 0),
            Tok { id: 1, hops: 1 },
        );
        sim.run_until(Instant::from_nanos(1_000));
    }

    #[test]
    #[should_panic(expected = "follow-up scheduled into the past: now=50ns, at=49ns")]
    fn follow_up_into_the_past_panics_through_the_default_adapter() {
        backdated_follow_up::<TokenWorld>();
    }

    #[test]
    #[should_panic(expected = "follow-up scheduled into the past: now=50ns, at=49ns")]
    fn follow_up_into_the_past_panics_through_the_sink() {
        backdated_follow_up::<SinkTokenWorld>();
    }

    /// Everything the runtime lets a caller observe, from a scenario in
    /// which every forwarding dispatch emits two follow-ups with the
    /// *later* instant first: the hop (cross-shard above one shard), then
    /// the earlier local echo.
    #[derive(Debug, PartialEq)]
    struct Observed {
        logs: Vec<Vec<(u64, u32)>>,
        closes: Vec<Vec<u64>>,
        windows: u64,
        messages: u64,
        dispatched: u64,
    }

    fn echo_run<W: Twin>(shards: usize) -> Observed {
        let mut sim: ShardedSim<W> = twin_sim(shards, L, |s| TokenWorld {
            echo: Some(Duration::from_nanos(30)),
            ..TokenWorld::new(s, shards, L)
        });
        for id in 0..6u32 {
            sim.inject(
                (id as usize) % shards,
                Instant::from_nanos(u64::from(id) * 7),
                pack_key(shards as u32, u64::from(id)),
                Tok { id, hops: 5 },
            );
        }
        assert!(matches!(
            sim.run_until(Instant::from_nanos(100_000)),
            RunOutcome::Drained
        ));
        let worlds = || (0..shards).map(|s| sim.world(s).as_ref());
        Observed {
            logs: worlds().map(|w| w.log.clone()).collect(),
            closes: worlds().map(|w| w.closes.clone()).collect(),
            windows: sim.stats().windows,
            messages: sim.stats().messages,
            dispatched: sim.events_dispatched(),
        }
    }

    #[test]
    fn sink_and_default_adapter_run_identically() {
        for shards in [1, 2, 3] {
            let via_vec = echo_run::<TokenWorld>(shards);
            assert_eq!(
                echo_run::<SinkTokenWorld>(shards),
                via_vec,
                "{shards} shards"
            );
            // 6 tokens × (6 hops + 5 echoes).
            assert_eq!(via_vec.dispatched, 66);
            assert_eq!(via_vec.messages, if shards == 1 { 0 } else { 30 });
            // Token 0's echo, emitted after its hop to t=100, still ran
            // at its own earlier instant: every shard's log is in time
            // order.
            assert!(via_vec.logs[0].contains(&(30, 0)));
            for log in &via_vec.logs {
                assert!(log.windows(2).all(|w| w[0].0 <= w[1].0));
            }
        }
    }

    /// Run a multi-token scenario and return the per-shard `window_close`
    /// horizon sequences.
    fn run_scenario_closes(shards: usize) -> Vec<Vec<u64>> {
        let mut sim = token_sim(shards, L, L);
        for id in 0..6u32 {
            let shard = (id as usize) % shards;
            sim.inject(
                shard,
                Instant::from_nanos(u64::from(id) * 7),
                pack_key(shards as u32, u64::from(id)),
                Tok { id, hops: 5 },
            );
        }
        assert!(matches!(
            sim.run_until(Instant::from_nanos(100_000)),
            RunOutcome::Drained
        ));
        let windows = sim.stats().windows;
        let closes: Vec<Vec<u64>> = (0..shards)
            .map(|s| std::mem::take(&mut sim.world_mut(s).closes))
            .collect();
        for c in &closes {
            assert_eq!(
                c.len() as u64,
                windows,
                "window_close must fire on every shard at every window"
            );
        }
        closes
    }

    #[test]
    fn window_close_fires_identically_on_every_shard() {
        let closes = run_scenario_closes(3);
        // Every shard sees the same horizon sequence: the window schedule
        // is global, not per-shard.
        assert!(closes.iter().all(|c| *c == closes[0]));
        assert!(!closes[0].is_empty());
        assert!(closes[0].windows(2).all(|w| w[0] < w[1]));
    }
}
