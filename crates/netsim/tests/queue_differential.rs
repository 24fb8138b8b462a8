//! Differential tests of the two public queues over the one calendar core.
//!
//! [`EventQueue`] must pop a byte-identical `(time, event)` sequence to the
//! retained [`BinaryHeapQueue`] reference under arbitrary interleavings of
//! pushes and pops — including same-instant FIFO ties, same-instant bursts
//! of hundreds of events, pushes at and just below the last popped instant
//! (where a same-instant push walks a busy 8 ns bucket's list), and times
//! that straddle the near/far horizon.
//! [`KeyedQueue`] must pop the same scripts in `(time, key)` order, held
//! against a `BinaryHeap` of `(time, key, ordinal)` tuples — and must pop
//! one event sequence however a dispatch's keys were stamped, as long as
//! the stamping is blockwise-monotone.

use netsim::queue::reference::BinaryHeapQueue;
use netsim::queue::EventQueue;
use netsim::rng::SimRng;
use netsim::shard::{pack_key, KeyedQueue};
use netsim::time::{Duration, Instant};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scripted operation against both queues.
#[derive(Debug, Clone)]
enum Op {
    /// Push at this time (the event payload is the push's ordinal).
    Push(u64),
    /// Push this many events at one instant: a same-instant run longer
    /// than any batch the queue could move internally.
    Burst(usize, u64),
    /// Push at the time of the last pop (zero before the first): what a
    /// handler's `at(now, …)` follow-up does. It queues behind everything
    /// already pending at that instant, so it walks its bucket's list
    /// whenever a later entry shares the 8 ns bucket.
    PushNow,
    /// Push this many events at the time of the last pop.
    BurstNow(usize),
    /// Push this many nanoseconds before the last pop (saturating at
    /// zero): an entry below the same-instant pushes, pushed after them.
    PushBefore(u64),
    /// Pop unconditionally.
    Pop,
    /// Pop with a deadline.
    PopAtOrBefore(u64),
}

/// Longest generated same-instant burst.
const BURST_MAX: u64 = 700;

/// Decode a raw `(selector, value)` pair into an operation. The time
/// scale mixes a tight cluster (guaranteed same-instant ties), an
/// in-window range, times a nanosecond or two either side of a window
/// boundary, far-future times that land in the far heap and exercise
/// refills, a tight cluster *inside* the far range (so bursts, pops and
/// later pushes meet at one far instant), and the u64 saturation edge.
/// One raw push in sixteen is a burst. A fifth of the pushes land at the
/// last pop's instant (one in eight of those a burst) and a fifth just
/// below it, so a same-instant push meets entries at its instant pushed
/// before it (lower seqs) and entries below it pushed after it (higher
/// seqs).
fn decode_op(sel: u8, raw: u64) -> Op {
    let time = match sel % 10 {
        0..=3 => raw % 8,
        4 | 5 => raw % 60_000,
        6 => 65_536 * (1 + raw % 3) - 2 + (raw >> 8) % 4,
        7 => raw % 10_000_000,
        8 => 5_000_000 + raw % 4,
        _ => u64::MAX - (raw % 2),
    };
    let burst = 1 + ((raw >> 32) % BURST_MAX) as usize;
    match (sel / 10) % 10 {
        0..=2 if raw >> 60 == 0 => Op::Burst(burst, time),
        0..=2 => Op::Push(time),
        3 if raw >> 61 == 0 => Op::BurstNow(burst),
        3 => Op::PushNow,
        4 => Op::PushBefore(1 + raw % 16),
        5..=7 => Op::Pop,
        _ => Op::PopAtOrBefore(time),
    }
}

/// The instant a push op pushes at and how many events, given the last
/// popped time; `None` for a pop.
fn push_times(op: &Op, last_pop: u64) -> Option<(u64, usize)> {
    match *op {
        Op::Push(t) => Some((t, 1)),
        Op::Burst(n, t) => Some((t, n)),
        Op::PushNow => Some((last_pop, 1)),
        Op::BurstNow(n) => Some((last_pop, n)),
        Op::PushBefore(d) => Some((last_pop.saturating_sub(d), 1)),
        Op::Pop | Op::PopAtOrBefore(_) => None,
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (any::<u8>(), any::<u64>()).prop_map(|(sel, raw)| decode_op(sel, raw))
}

/// Drive both queues through `ops` and assert identical observable
/// behavior at every step; returns the number of events popped.
fn run_differential(ops: &[Op]) -> Result<u64, TestCaseError> {
    let mut dut: EventQueue<usize> = EventQueue::new();
    let mut refq: BinaryHeapQueue<usize> = BinaryHeapQueue::new();
    let mut pushed = 0usize;
    let mut last_pop = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if let Some((t, n)) = push_times(op, last_pop) {
            for _ in 0..n {
                dut.push(Instant::from_nanos(t), pushed);
                refq.push(Instant::from_nanos(t), pushed);
                pushed += 1;
            }
        }
        let popped = match *op {
            Op::Pop => {
                let want = refq.pop();
                prop_assert_eq!(dut.pop(), want, "pop diverged at op {}", i);
                want
            }
            Op::PopAtOrBefore(d) => {
                let d = Instant::from_nanos(d);
                let want = refq.pop_at_or_before(d);
                prop_assert_eq!(
                    dut.pop_at_or_before(d),
                    want,
                    "pop_at_or_before diverged at op {}",
                    i
                );
                want
            }
            _ => None,
        };
        if let Some((t, _)) = popped {
            last_pop = t.as_nanos();
        }
        prop_assert_eq!(dut.len(), refq.len(), "len diverged at op {}", i);
        prop_assert_eq!(dut.is_empty(), refq.is_empty());
        prop_assert_eq!(
            dut.peek_time(),
            refq.peek_time(),
            "peek diverged at op {}",
            i
        );
        prop_assert_eq!(dut.popped(), refq.popped(), "popped diverged at op {}", i);
    }
    // Drain: the tails must match exactly too.
    loop {
        let (a, b) = (dut.pop(), refq.pop());
        prop_assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
    }
    prop_assert_eq!(dut.popped(), refq.popped());
    Ok(dut.popped())
}

/// Drive a [`KeyedQueue`] and a heap of `(time, key, ordinal)` tuples
/// through `ops` and assert identical observable behavior at every step;
/// returns the number of events popped. Keys are what the sharded engine's are:
/// unique, and not monotone in push order — a scrambled 5-bit domain
/// above the ordinal — so same-instant runs land out of key order.
fn run_keyed_differential(ops: &[Op]) -> Result<u64, TestCaseError> {
    let mut dut: KeyedQueue<usize> = KeyedQueue::new();
    let mut model: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut pushed = 0usize;
    let mut popped = 0u64;
    let mut push = |dut: &mut KeyedQueue<usize>, model: &mut BinaryHeap<_>, t: u64| {
        let domain = (pushed as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
        let key = pack_key(domain as u32, pushed as u64);
        dut.push(Instant::from_nanos(t), key, pushed);
        model.push(Reverse((t, key, pushed)));
        pushed += 1;
    };
    let expected = |model: &mut BinaryHeap<Reverse<(u64, u64, usize)>>, deadline: u64| {
        let due = matches!(model.peek(), Some(Reverse((t, _, _))) if *t <= deadline);
        let Reverse((t, key, i)) = due.then(|| model.pop()).flatten()?;
        Some((Instant::from_nanos(t), key, i))
    };
    let mut last_pop = 0u64;
    for (i, op) in ops.iter().enumerate() {
        if let Some((t, n)) = push_times(op, last_pop) {
            for _ in 0..n {
                push(&mut dut, &mut model, t);
            }
        }
        let want = match *op {
            Op::Pop => {
                let want = expected(&mut model, u64::MAX);
                prop_assert_eq!(dut.pop(), want, "pop diverged at op {}", i);
                want
            }
            Op::PopAtOrBefore(d) => {
                let want = expected(&mut model, d);
                prop_assert_eq!(
                    dut.pop_at_or_before(Instant::from_nanos(d)),
                    want,
                    "pop_at_or_before diverged at op {}",
                    i
                );
                want
            }
            _ => None,
        };
        if let Some((t, _, _)) = want {
            popped += 1;
            last_pop = t.as_nanos();
        }
        prop_assert_eq!(dut.len(), model.len(), "len diverged at op {}", i);
        prop_assert_eq!(dut.is_empty(), model.is_empty());
        prop_assert_eq!(
            dut.peek_time(),
            model
                .peek()
                .map(|Reverse((t, _, _))| Instant::from_nanos(*t)),
            "peek diverged at op {}",
            i
        );
        prop_assert_eq!(dut.popped(), popped, "popped diverged at op {}", i);
    }
    loop {
        let (a, b) = (dut.pop(), expected(&mut model, u64::MAX));
        prop_assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
        popped += 1;
    }
    prop_assert_eq!(dut.popped(), popped);
    Ok(popped)
}

/// One follow-up of a scripted dispatch: its delay after the dispatched
/// event and the domain it executes on.
type FollowUp = (u64, u32);

/// Domains in the stamping model (source domains of keys).
const DOMAINS: u32 = 4;

/// Decode a raw value into a follow-up. Delays cluster on 0–3 ns so that
/// follow-ups of one dispatch, of different dispatches and of different
/// domains all meet at one instant; one in eight reaches far enough to
/// cross a bucket, and one in sixty-four the near/far horizon.
fn decode_follow_up(raw: u64) -> FollowUp {
    let delay = match raw % 64 {
        0 => 60_000 + (raw >> 8) % 20_000,
        1..=8 => (raw >> 8) % 200,
        _ => (raw >> 8) % 4,
    };
    (delay, ((raw >> 40) % u64::from(DOMAINS)) as u32)
}

/// Run a dispatch loop over one [`KeyedQueue`]: pop an event, take the
/// next scripted block as its follow-ups, stamp the block's keys from
/// the dispatching domain's counter, push. `by_time` stamps the block in
/// `(time, emission)` order — what draining a trampoline calendar did —
/// instead of emission order. Returns the popped `(time, ordinal)`
/// sequence; the ordinal names the follow-up by block and position, so
/// it is the same event under either stamping.
fn run_stamped(blocks: &[Vec<FollowUp>], by_time: bool) -> Vec<(u64, usize)> {
    let mut q: KeyedQueue<(usize, u32)> = KeyedQueue::new();
    let mut seqs = [0u64; DOMAINS as usize];
    let mut ordinal = 0usize;
    let mut order = Vec::new();
    // Seed events, keyed from a pseudo-domain above the real ones.
    for d in 0..DOMAINS {
        q.push(Instant::ZERO, pack_key(DOMAINS, u64::from(d)), (ordinal, d));
        ordinal += 1;
    }
    let mut blocks = blocks.iter();
    while let Some((now, _key, (id, domain))) = q.pop() {
        order.push((now.as_nanos(), id));
        let Some(block) = blocks.next() else {
            continue;
        };
        let mut stamping: Vec<usize> = (0..block.len()).collect();
        if by_time {
            stamping.sort_by_key(|&i| block[i].0); // stable: ties keep emission order
        }
        let seq = &mut seqs[domain as usize];
        let mut keys = vec![0; block.len()];
        for i in stamping {
            keys[i] = pack_key(domain, *seq);
            *seq += 1;
        }
        for (i, &(delay, dest)) in block.iter().enumerate() {
            let at = now + Duration::from_nanos(delay);
            q.push(at, keys[i], (ordinal + i, dest));
        }
        ordinal += block.len();
    }
    order
}

proptest! {
    /// Why the sharded engine may stamp keys as follow-ups are emitted:
    /// a dispatch's keys are one contiguous block of its domain's
    /// sequence either way, so only follow-ups of *one* dispatch can
    /// trade keys, and two of those at one instant keep their order
    /// under both stampings — the pop sequence cannot tell them apart.
    #[test]
    fn keyed_queue_pop_order_ignores_stamping_order_within_a_dispatch(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u64>().prop_map(decode_follow_up), 0..6),
            1..300,
        )
    ) {
        prop_assert_eq!(run_stamped(&blocks, false), run_stamped(&blocks, true));
    }

    /// The two implementations are observationally identical on random
    /// push/pop interleavings.
    #[test]
    fn calendar_queue_matches_binary_heap_reference(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        run_differential(&ops)?;
    }

    /// The keyed queue pops the same interleavings in `(time, key)` order.
    #[test]
    fn keyed_queue_matches_binary_heap_model(
        ops in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        run_keyed_differential(&ops)?;
    }
}

/// Pinned regression trace: a deterministic pseudo-random script (fixed
/// seed) heavy on same-instant ties and horizon crossings. Kept separate
/// from the proptest so this exact interleaving runs on every `cargo
/// test`, regardless of the property runner's case budget.
#[test]
fn pinned_regression_trace_seed_2018() {
    let mut rng = SimRng::new(2018);
    let mut ops = Vec::with_capacity(4000);
    for _ in 0..4000 {
        let t = match rng.below(10) {
            0..=3 => rng.below(8),                  // tie cluster
            4..=6 => rng.below(65_536),             // in-window
            7..=8 => 65_536 + rng.below(9_000_000), // far heap
            _ => u64::MAX - rng.below(2),           // saturation edge
        };
        ops.push(match rng.below(10) {
            0..=4 => Op::Push(t),
            5..=7 => Op::Pop,
            _ => Op::PopAtOrBefore(t),
        });
    }
    let popped = run_differential(&ops).expect("differential trace must agree");
    assert!(popped > 0, "trace exercised no pops");
    let popped = run_keyed_differential(&ops).expect("keyed trace must agree");
    assert!(popped > 0, "keyed trace exercised no pops");
}

/// Pinned regression: a same-instant run longer than the 256-entry refill
/// batch the two-list queue used to migrate. That queue lowered its
/// horizon to `T + 1` when the batch filled, so a push *at `T`* entered
/// the near list and popped ahead of the 344 earlier `T` events still in
/// the far heap: pop 257 returned event 600 where the reference returns
/// event 256.
#[test]
fn same_instant_push_does_not_overtake_a_long_burst() {
    const T: u64 = 1_000_000;
    let mut ops = vec![Op::Burst(600, T)];
    for _ in 0..10 {
        ops.push(Op::Pop);
        ops.push(Op::Push(T));
    }
    let popped = run_differential(&ops).expect("burst trace must agree");
    assert_eq!(popped, 610);
}

/// Pinned same-instant trace: what a fabric handler does at one instant.
/// A burst at `T` is pending and `T + 3` shares its 8 ns bucket; each pop
/// at `T` pushes same-instant follow-ups (behind the burst's remaining
/// entries, so each walks the bucket's list) and one event just below `T`
/// (pushed after them, popped before them), then a deadline one
/// nanosecond short of `T` must hold the follow-ups back.
#[test]
fn same_instant_follow_ups_pop_behind_their_burst_and_after_earlier_times() {
    const T: u64 = 2_000;
    let mut ops = vec![Op::Burst(40, T), Op::Push(T + 3)];
    for _ in 0..8 {
        ops.extend([
            Op::Pop,
            Op::PushNow,
            Op::BurstNow(3),
            Op::PushBefore(2),
            Op::PopAtOrBefore(T - 1),
            Op::PopAtOrBefore(T - 1),
        ]);
    }
    let popped = run_differential(&ops).expect("same-instant trace must agree");
    assert_eq!(popped, 41 + 8 * 5);
    run_keyed_differential(&ops).expect("keyed same-instant trace must agree");
}
