//! The simulation driver loop.
//!
//! A [`World`] owns all simulated components and interprets events; the
//! [`Simulation`] owns the world plus the clock and event queue, and runs
//! the classic pop-advance-dispatch loop. Handlers receive a [`Scheduler`]
//! through which they enqueue follow-up events (they cannot rewind time).

use crate::queue::EventQueue;
use crate::time::{Duration, Instant};

/// A simulated world: all state plus the event interpreter.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event at simulated time `now`, scheduling any follow-ups.
    fn handle(&mut self, now: Instant, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

/// Handle through which event handlers schedule new events.
#[derive(Debug)]
pub struct Scheduler<E> {
    now: Instant,
    queue: EventQueue<E>,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: Instant::ZERO,
            queue: EventQueue::new(),
        }
    }

    /// Create a free-standing scheduler parked at `now` with an empty
    /// queue: a capture trampoline. A handler written against
    /// [`Scheduler`] runs into it unmodified, and the caller drains what
    /// it scheduled via [`Scheduler::drain_next`].
    ///
    /// No engine uses one any more — the sharded runtime and the profiler
    /// hand the handler an adapter that schedules straight into the real
    /// queue. `parked_at`, [`Scheduler::repark`] and
    /// [`Scheduler::drain_next`] stay for the two drivers that
    /// re-implement the serial loop around a handler call: the
    /// benchmark's frozen `traced.rs` and `fabric/tests/queue_order.rs`
    /// (ROADMAP item 1(b) retires them).
    pub fn parked_at(now: Instant) -> Self {
        Scheduler {
            now,
            queue: EventQueue::new(),
        }
    }

    /// Move a drained trampoline scheduler ([`Scheduler::parked_at`]) to
    /// a new instant. Panics if events are still queued — reparking would
    /// silently reorder them against the new clock.
    pub fn repark(&mut self, now: Instant) {
        assert!(
            self.queue.is_empty(),
            "repark with {} events still queued",
            self.queue.len()
        );
        self.now = now;
    }

    /// Pop the next scheduled event in `(time, insertion order)`: how the
    /// owner of a trampoline scheduler ([`Scheduler::parked_at`])
    /// collects a handler's follow-ups instead of dispatching them.
    pub fn drain_next(&mut self) -> Option<(Instant, E)> {
        self.queue.pop()
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Schedule `event` at the absolute instant `at`. Scheduling in the past
    /// is a logic error and panics (it would silently corrupt causality).
    ///
    /// Events at one instant fire in the order they were scheduled, so
    /// `at(now(), …)` runs after every event already queued for the
    /// current instant.
    pub fn at(&mut self, at: Instant, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Schedule `event` to fire `delay` from now.
    ///
    /// Routes through [`Scheduler::at`] so it is subject to the same
    /// schedule-into-the-past check (`now + delay` can only land in the
    /// past by wrapping, which the overflow-checked [`Instant`] addition
    /// turns into a loud panic instead of silent causality corruption).
    pub fn after(&mut self, delay: Duration, event: E) {
        self.at(self.now + delay, event);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained.
    Drained,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The event-count guard tripped (probable livelock).
    EventLimit,
}

/// A running simulation: a [`World`] plus clock and event queue.
#[derive(Debug)]
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    /// Guard against runaway event cascades; `None` disables the guard.
    pub max_events: Option<u64>,
}

impl<W: World> Simulation<W> {
    /// Create a simulation at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
            max_events: None,
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.sched.now
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for setup and inspection between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Total events dispatched over this simulation's lifetime.
    pub fn events_dispatched(&self) -> u64 {
        self.sched.queue.popped()
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.sched.pending()
    }

    /// Schedule an initial/external event at an absolute time.
    pub fn schedule_at(&mut self, at: Instant, event: W::Event) {
        self.sched.at(at, event);
    }

    /// Schedule an initial/external event relative to the current time.
    pub fn schedule_after(&mut self, delay: Duration, event: W::Event) {
        self.sched.after(delay, event);
    }

    /// Run until the queue drains or `deadline` passes. Events scheduled
    /// exactly at the deadline still execute.
    pub fn run_until(&mut self, deadline: Instant) -> RunOutcome {
        let mut dispatched: u64 = 0;
        loop {
            // One queue operation per event: pop iff due by the deadline.
            let Some((time, event)) = self.sched.queue.pop_at_or_before(deadline) else {
                if self.sched.queue.is_empty() {
                    return RunOutcome::Drained;
                }
                // Park the clock at the deadline so subsequent scheduling is
                // relative to where the run stopped — never behind where an
                // earlier run already parked it.
                self.sched.now = self.sched.now.max(deadline);
                return RunOutcome::DeadlineReached;
            };
            self.sched.now = time;
            self.world.handle(time, event, &mut self.sched);
            dispatched += 1;
            if let Some(limit) = self.max_events {
                if dispatched >= limit {
                    return RunOutcome::EventLimit;
                }
            }
        }
    }

    /// Run until the queue drains (use [`Simulation::max_events`] as a
    /// safety net for worlds that can self-sustain).
    pub fn run_to_completion(&mut self) -> RunOutcome {
        self.run_until(Instant::from_nanos(u64::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that counts down: each `Tick(n)` schedules `Tick(n-1)` 1us
    /// later until zero.
    struct Countdown {
        fired: Vec<(Instant, u32)>,
    }

    enum Ev {
        Tick(u32),
    }

    impl World for Countdown {
        type Event = Ev;
        fn handle(&mut self, now: Instant, event: Ev, sched: &mut Scheduler<Ev>) {
            let Ev::Tick(n) = event;
            self.fired.push((now, n));
            if n > 0 {
                sched.after(Duration::from_micros(1), Ev::Tick(n - 1));
            }
        }
    }

    #[test]
    fn runs_cascading_events_in_order() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.schedule_at(Instant::from_nanos(0), Ev::Tick(3));
        assert_eq!(sim.run_to_completion(), RunOutcome::Drained);
        let fired = &sim.world().fired;
        assert_eq!(fired.len(), 4);
        assert_eq!(fired[0], (Instant::ZERO, 3));
        assert_eq!(fired[3], (Instant::from_nanos(3_000), 0));
        assert_eq!(sim.now().as_nanos(), 3_000);
    }

    #[test]
    fn deadline_stops_and_parks_clock() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.schedule_at(Instant::ZERO, Ev::Tick(100));
        let outcome = sim.run_until(Instant::from_nanos(2_500));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(sim.world().fired.len(), 3); // at 0, 1000, 2000 ns
        assert_eq!(sim.now(), Instant::from_nanos(2_500));
        // Resume to a later deadline.
        let outcome = sim.run_until(Instant::from_nanos(5_000));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(sim.world().fired.len(), 6);
    }

    #[test]
    fn an_earlier_deadline_does_not_rewind_the_clock() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.schedule_at(Instant::ZERO, Ev::Tick(100));
        let outcome = sim.run_until(Instant::from_nanos(5_000));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(sim.now(), Instant::from_nanos(5_000));
        let outcome = sim.run_until(Instant::from_nanos(2_500));
        assert_eq!(outcome, RunOutcome::DeadlineReached);
        assert_eq!(sim.now(), Instant::from_nanos(5_000));
        assert_eq!(sim.world().fired.len(), 6); // at 0 … 5000 ns
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn an_earlier_deadline_does_not_reopen_the_past_to_scheduling() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.schedule_at(Instant::ZERO, Ev::Tick(100));
        sim.run_until(Instant::from_nanos(5_000));
        sim.run_until(Instant::from_nanos(2_500));
        sim.schedule_at(Instant::from_nanos(3_000), Ev::Tick(0));
    }

    #[test]
    fn event_at_deadline_still_fires() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.schedule_at(Instant::from_nanos(500), Ev::Tick(0));
        assert_eq!(sim.run_until(Instant::from_nanos(500)), RunOutcome::Drained);
        assert_eq!(sim.world().fired.len(), 1);
    }

    #[test]
    fn event_limit_guard_trips() {
        let mut sim = Simulation::new(Countdown { fired: vec![] });
        sim.max_events = Some(10);
        sim.schedule_at(Instant::ZERO, Ev::Tick(1_000_000));
        assert_eq!(sim.run_to_completion(), RunOutcome::EventLimit);
        assert_eq!(sim.world().fired.len(), 10);
    }

    #[test]
    #[should_panic(expected = "simulated time overflow")]
    fn near_max_schedule_fails_loudly_instead_of_wrapping() {
        // Regression: `after` used to push `now + delay` with wrapping
        // arithmetic, so near-u64::MAX schedules silently landed in the
        // deep past and corrupted causality. Now the addition itself
        // panics before the queue is touched.
        struct Wrap;
        impl World for Wrap {
            type Event = ();
            fn handle(&mut self, _: Instant, _: (), sched: &mut Scheduler<()>) {
                sched.after(Duration::from_nanos(u64::MAX), ());
            }
        }
        let mut sim = Simulation::new(Wrap);
        sim.schedule_at(Instant::from_nanos(10), ());
        sim.run_to_completion();
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        struct Bad;
        impl World for Bad {
            type Event = ();
            fn handle(&mut self, now: Instant, _: (), sched: &mut Scheduler<()>) {
                sched.at(now - Duration::from_nanos(1), ());
            }
        }
        let mut sim = Simulation::new(Bad);
        sim.schedule_at(Instant::from_nanos(10), ());
        sim.run_to_completion();
    }
}
