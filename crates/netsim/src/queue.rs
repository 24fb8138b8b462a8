//! A deterministic, time-ordered event queue.
//!
//! Events scheduled for the same instant pop in insertion order (a strictly
//! monotone sequence number breaks ties). This makes whole-simulation runs
//! byte-for-byte reproducible, which the test suite depends on.
//!
//! # Structure
//!
//! One private ordering core, `Calendar`, pops in `(time, tie)` order and
//! sits under both public queues: [`EventQueue`] passes its insertion
//! sequence as the tie, [`crate::shard::KeyedQueue`] passes the event's
//! canonical key. The core has two tiers:
//!
//! * a **calendar** over the near window `[anchor, anchor + 65 536 ns)`:
//!   8 192 buckets of 8 ns, each an intrusive singly linked list in
//!   `(time, tie)` order over one slab of nodes with a LIFO free list (the
//!   live slab is the pending depth, so it stays cache-resident), and an
//!   occupancy bitmap searched with `trailing_zeros` from a cursor that
//!   moves forward on pop and back on an earlier push. A push is a bucket
//!   index and a tail append; it walks the bucket's list from the head
//!   only when it lands out of order inside one 8 ns bucket. A pop is a
//!   bitmap scan and an unlink. Neither moves any other entry;
//! * a **far heap** for events past the window (periodic driver ticks,
//!   timeouts). When the calendar drains, the window re-anchors at the
//!   heap minimum and *everything* inside the new window migrates over —
//!   in ascending order, so each migration is a tail append.
//!
//! The packet-level workloads push almost every event a few hundred
//! nanoseconds to a few microseconds ahead of the clock, into the middle
//! of what is pending: on `bench_netsim --topology fat_tree:8`, before an
//! idle egress port transmitted inside its enqueue (10 802 003 events),
//! 32 ns buckets walked a bucket's list on 6 520 107 of 10 666 137 near
//! pushes and 8 ns buckets on 2 974 066. [`EventQueue::pop_at_or_before`]
//! folds the driver loop's peek-then-pop pair into one operation.
//!
//! The retained [`reference::BinaryHeapQueue`] implements the identical
//! `(time, insertion-order)` contract on a plain binary heap; the
//! differential proptest in `tests/queue_differential.rs` checks that the
//! two pop byte-identical sequences under randomized interleavings, and
//! `fabric/tests/queue_order.rs` checks it on a whole fat-tree run.

use crate::time::Instant;
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

/// log2 of a calendar bucket's width in nanoseconds.
const BUCKET_SHIFT: u32 = 3;

/// Buckets in the calendar.
const BUCKETS: usize = 8192;

/// Width of the near window: wide enough to swallow the packet-scale
/// event cloud (serialization + propagation + PCIe delays are all ≪
/// 64 µs), narrow enough that millisecond-scale periodic events stay in
/// the far heap.
const HORIZON_NS: u64 = (BUCKETS as u64) << BUCKET_SHIFT;

/// "No node": ends a bucket's list and the free list. The slab never
/// grows to this index, so looking it up finds nothing — which is how the
/// link code tells an empty list from a node without a panicking branch.
const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Entry<E> {
    time: Instant,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Instant, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) wins.
        other.key().cmp(&self.key())
    }
}

/// One slab slot: a pending event linked into its bucket's list, or a
/// free slot (`event` is `None`) linked into the free list.
#[derive(Debug)]
struct Node<E> {
    time: Instant,
    tie: u64,
    next: u32,
    event: Option<E>,
}

/// The ends of one calendar bucket's list, [`NIL`] when it is empty.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    head: u32,
    tail: u32,
}

/// The ordering core under [`EventQueue`] and
/// [`crate::shard::KeyedQueue`]: a priority queue popping in `(time,
/// tie)` order. Entries with an equal `(time, tie)` pop in insertion order
/// from the calendar and in unspecified order from the far heap; neither
/// caller produces such a pair.
#[derive(Debug)]
pub(crate) struct Calendar<E> {
    slab: Vec<Node<E>>,
    /// Most recently freed slot, [`NIL`] when every slot is live.
    free: u32,
    buckets: Vec<Bucket>,
    /// Bit `b % 64` of word `b / 64` is set iff bucket `b` is non-empty.
    occupied: [u64; BUCKETS / 64],
    /// No bucket below this one is occupied.
    cursor: usize,
    /// Events in the calendar.
    near_len: usize,
    /// Time at which bucket 0 starts. Earlier times (legal on the raw
    /// queue) sort into bucket 0 too.
    anchor: u64,
    /// Latest time the calendar holds — inclusive, so the window can end
    /// at `u64::MAX`. Every far entry is past it, so the global minimum is
    /// in the calendar whenever the calendar is non-empty.
    last: u64,
    /// Events past `last`; `Entry::seq` carries the tie.
    far: BinaryHeap<Entry<E>>,
    popped: u64,
}

impl<E> Calendar<E> {
    pub(crate) fn new() -> Self {
        Calendar {
            slab: Vec::new(),
            free: NIL,
            buckets: vec![
                Bucket {
                    head: NIL,
                    tail: NIL
                };
                BUCKETS
            ],
            occupied: [0; BUCKETS / 64],
            cursor: 0,
            near_len: 0,
            anchor: 0,
            last: HORIZON_NS - 1,
            far: BinaryHeap::new(),
            popped: 0,
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, time: Instant, tie: u64, event: E) {
        if time.as_nanos() <= self.last {
            self.link(time, tie, event);
        } else {
            self.far.push(Entry {
                time,
                seq: tie,
                event,
            });
        }
    }

    /// Store `node` in a slab slot and return its index.
    #[inline]
    fn alloc(&mut self, node: Node<E>) -> u32 {
        let idx = self.free;
        // The most recently freed slot is the one still in cache.
        if let Some(slot) = self.slab.get_mut(idx as usize) {
            self.free = slot.next;
            *slot = node;
            return idx;
        }
        let fresh = self.slab.len();
        assert!(
            fresh < NIL as usize,
            "more than 2^32 - 1 events pending in one calendar"
        );
        self.slab.push(node);
        fresh as u32
    }

    /// Link an event at or before `last` into its bucket, keeping the
    /// bucket's list in `(time, tie)` order.
    #[inline]
    fn link(&mut self, time: Instant, tie: u64, event: E) {
        let b = (time.as_nanos().saturating_sub(self.anchor) >> BUCKET_SHIFT) as usize;
        let idx = self.alloc(Node {
            time,
            tie,
            next: NIL,
            event: Some(event),
        });
        // `time <= last` keeps `b` below `BUCKETS`, so the lookup cannot
        // miss; it is written as one that cannot panic either.
        let Some(bucket) = self.buckets.get_mut(b) else {
            return;
        };
        match self.slab.get_mut(bucket.tail as usize) {
            // Empty bucket (its tail is NIL).
            None => {
                *bucket = Bucket {
                    head: idx,
                    tail: idx,
                };
                if let Some(word) = self.occupied.get_mut(b >> 6) {
                    *word |= 1 << (b & 63);
                }
                if b < self.cursor {
                    self.cursor = b;
                }
            }
            // At or after the bucket's last entry: the common case.
            Some(tail) if (tail.time, tail.tie) <= (time, tie) => {
                tail.next = idx;
                bucket.tail = idx;
            }
            // Out of order inside one bucket: walk from the head to the
            // first entry that sorts after the new one (the tail does).
            Some(_) => {
                let (mut prev, mut cur) = (NIL, bucket.head);
                while let Some(n) = self.slab.get(cur as usize) {
                    if (n.time, n.tie) > (time, tie) {
                        break;
                    }
                    (prev, cur) = (cur, n.next);
                }
                if let Some(new) = self.slab.get_mut(idx as usize) {
                    new.next = cur;
                }
                match self.slab.get_mut(prev as usize) {
                    Some(p) => p.next = idx,
                    None => bucket.head = idx,
                }
            }
        }
        self.near_len += 1;
    }

    /// Re-anchor the drained calendar at the far-heap minimum and migrate
    /// every far event inside the new window. The heap yields them in
    /// ascending `(time, tie)` order, so each one is a tail append.
    fn refill(&mut self) {
        let Some(head) = self.far.peek() else {
            return;
        };
        self.anchor = head.time.as_nanos();
        self.last = self.anchor.saturating_add(HORIZON_NS - 1);
        self.cursor = 0;
        loop {
            let Some(top) = self.far.peek_mut() else {
                break;
            };
            if top.time.as_nanos() > self.last {
                break;
            }
            let e = PeekMut::pop(top);
            self.link(e.time, e.seq, e.event);
        }
    }

    /// The first occupied bucket and the slab index of its head.
    #[inline]
    fn first(&self) -> Option<(usize, u32)> {
        if self.near_len == 0 {
            return None;
        }
        let mut w = self.cursor >> 6;
        loop {
            let word = *self.occupied.get(w)?;
            if word != 0 {
                let b = (w << 6) | word.trailing_zeros() as usize;
                return Some((b, self.buckets.get(b)?.head));
            }
            w += 1;
        }
    }

    /// Remove and return the earliest `(time, tie, event)` if `due` accepts
    /// its `(time, tie)`.
    #[inline]
    pub(crate) fn pop_if(
        &mut self,
        due: impl FnOnce(Instant, u64) -> bool,
    ) -> Option<(Instant, u64, E)> {
        if self.near_len == 0 {
            self.refill();
        }
        let (b, idx) = self.first()?;
        let node = self.slab.get_mut(idx as usize)?;
        if !due(node.time, node.tie) {
            return None;
        }
        let event = node.event.take()?;
        let (time, tie, next) = (node.time, node.tie, node.next);
        node.next = self.free;
        self.free = idx;
        let bucket = self.buckets.get_mut(b)?;
        bucket.head = next;
        if next == NIL {
            bucket.tail = NIL;
            *self.occupied.get_mut(b >> 6)? &= !(1 << (b & 63));
        }
        self.cursor = b;
        self.near_len -= 1;
        self.popped += 1;
        Some((time, tie, event))
    }

    pub(crate) fn peek_time(&self) -> Option<Instant> {
        match self.first() {
            // calendar <= last < far
            Some((_, idx)) => self.slab.get(idx as usize).map(|n| n.time),
            None => self.far.peek().map(|e| e.time),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    pub(crate) fn popped(&self) -> u64 {
        self.popped
    }
}

/// An event queue ordering events by `(time, insertion order)`.
#[derive(Debug)]
pub struct EventQueue<E> {
    core: Calendar<E>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            core: Calendar::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    #[inline]
    pub fn push(&mut self, at: Instant, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.core.push(at, seq, event);
    }

    /// Remove and return the earliest event, with its firing time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        self.pop_at_or_before(Instant::from_nanos(u64::MAX))
    }

    /// Remove and return the earliest event if it fires at or before
    /// `deadline`; `None` when the queue is empty or the next event is
    /// beyond the deadline (disambiguate with [`EventQueue::is_empty`]).
    ///
    /// This is the driver loop's single hot operation, replacing the
    /// peek-then-pop pair.
    #[inline]
    pub fn pop_at_or_before(&mut self, deadline: Instant) -> Option<(Instant, E)> {
        let (time, _seq, event) = self.core.pop_if(|time, _| time <= deadline)?;
        Some((time, event))
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Instant> {
        self.core.peek_time()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.core.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events popped so far (for run statistics / guards).
    pub fn popped(&self) -> u64 {
        self.core.popped()
    }
}

pub mod reference {
    //! The original `BinaryHeap` event queue, kept as the reference
    //! implementation for differential testing of [`super::EventQueue`].

    use super::Entry;
    use crate::time::Instant;
    use std::collections::BinaryHeap;

    /// The `(time, insertion-order)` queue on a plain binary heap.
    #[derive(Debug, Default)]
    pub struct BinaryHeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        popped: u64,
    }

    impl<E> BinaryHeapQueue<E> {
        /// Create an empty queue.
        pub fn new() -> Self {
            BinaryHeapQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                popped: 0,
            }
        }

        /// Schedule `event` to fire at absolute time `at`.
        pub fn push(&mut self, at: Instant, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Entry {
                time: at,
                seq,
                event,
            });
        }

        /// Remove and return the earliest event, with its firing time.
        pub fn pop(&mut self) -> Option<(Instant, E)> {
            let e = self.heap.pop()?;
            self.popped += 1;
            Some((e.time, e.event))
        }

        /// Remove and return the earliest event at or before `deadline`.
        pub fn pop_at_or_before(&mut self, deadline: Instant) -> Option<(Instant, E)> {
            if self.heap.peek()?.time > deadline {
                return None;
            }
            self.pop()
        }

        /// Firing time of the earliest pending event.
        pub fn peek_time(&self) -> Option<Instant> {
            self.heap.peek().map(|e| e.time)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Whether the queue has no pending events.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Total number of events popped so far.
        pub fn popped(&self) -> u64 {
            self.popped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Instant;

    fn t(ns: u64) -> Instant {
        Instant::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn interleaved_push_pop_preserves_fifo_within_instant() {
        let mut q = EventQueue::new();
        q.push(t(5), 1);
        q.push(t(5), 2);
        assert_eq!(q.pop(), Some((t(5), 1)));
        q.push(t(5), 3);
        assert_eq!(q.pop(), Some((t(5), 2)));
        assert_eq!(q.pop(), Some((t(5), 3)));
    }

    #[test]
    fn counters_track_state() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(t(1), ());
        q.push(t(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(t(1)));
        q.pop();
        assert_eq!(q.popped(), 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn events_beyond_the_horizon_pop_in_order() {
        // Mix near-future, far-future, and multi-window spans.
        let mut q = EventQueue::new();
        let far = HORIZON_NS * 3 + 17;
        let farther = HORIZON_NS * 7 + 2;
        q.push(t(farther), "d");
        q.push(t(5), "a");
        q.push(t(far), "c");
        q.push(t(HORIZON_NS - 1), "b");
        assert_eq!(q.pop(), Some((t(5), "a")));
        assert_eq!(q.pop(), Some((t(HORIZON_NS - 1), "b")));
        assert_eq!(q.pop(), Some((t(far), "c")));
        assert_eq!(q.pop(), Some((t(farther), "d")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_below_the_anchor_still_pops_first() {
        // After the window re-anchored, a push at an earlier time (legal
        // for the raw queue; the Scheduler forbids it) sorts into the first
        // bucket and pops before everything later.
        let mut q = EventQueue::new();
        q.push(t(1_000_000), 1);
        q.push(t(1_000_020), 2);
        q.push(t(1_020_000), 3);
        assert_eq!(q.pop(), Some((t(1_000_000), 1)));
        assert_eq!(q.core.anchor, 1_000_000);
        q.push(t(999_000), 4);
        q.push(t(10), 5);
        q.push(t(1_000_010), 6);
        assert_eq!(q.peek_time(), Some(t(10)));
        assert_eq!(q.pop(), Some((t(10), 5)));
        assert_eq!(q.pop(), Some((t(999_000), 4)));
        assert_eq!(q.pop(), Some((t(1_000_010), 6)));
        assert_eq!(q.pop(), Some((t(1_000_020), 2)));
        assert_eq!(q.pop(), Some((t(1_020_000), 3)));
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(t(100), "a");
        q.push(t(200), "b");
        assert_eq!(q.pop_at_or_before(t(50)), None);
        assert!(!q.is_empty());
        assert_eq!(q.pop_at_or_before(t(100)), Some((t(100), "a")));
        assert_eq!(q.pop_at_or_before(t(150)), None);
        assert_eq!(q.pop_at_or_before(t(u64::MAX)), Some((t(200), "b")));
        assert_eq!(q.pop_at_or_before(t(u64::MAX)), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_straddling_storage_tiers_pop_fifo() {
        // Same instant, pushed at different queue phases (far heap, then
        // the calendar once the window re-anchored and the first of them
        // popped): FIFO must hold.
        let mut q = EventQueue::new();
        q.push(t(1_000_300), 0);
        q.push(t(1_000_300), 1);
        assert_eq!(q.core.far.len(), 2);
        assert_eq!(q.pop(), Some((t(1_000_300), 0)));
        q.push(t(1_000_300), 2);
        q.push(t(1_000_300), 3);
        assert_eq!(q.core.far.len(), 0);
        assert_eq!(q.pop(), Some((t(1_000_300), 1)));
        assert_eq!(q.pop(), Some((t(1_000_300), 2)));
        assert_eq!(q.pop(), Some((t(1_000_300), 3)));
    }

    #[test]
    fn near_u64_max_times_do_not_panic_or_stall() {
        let mut q = EventQueue::new();
        q.push(t(u64::MAX), "end");
        q.push(t(u64::MAX - 1), "penultimate");
        q.push(t(0), "start");
        assert_eq!(q.pop(), Some((t(0), "start")));
        assert_eq!(q.pop(), Some((t(u64::MAX - 1), "penultimate")));
        assert_eq!(q.pop(), Some((t(u64::MAX), "end")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn a_refill_migrates_the_whole_window_in_order() {
        // Many more far events inside one window than any bounded batch
        // would move: the first pop migrates them all, in order.
        let mut q = EventQueue::new();
        let n = 775;
        for i in 0..n {
            q.push(t(1_000_000 + (i % 13) as u64), i);
        }
        assert_eq!(q.pop(), Some((t(1_000_000), 0)));
        assert_eq!((q.core.near_len, q.core.far.len()), (n - 1, 0));
        let mut popped = vec![(t(1_000_000), 0)];
        while let Some((time, i)) = q.pop() {
            popped.push((time, i));
        }
        assert_eq!(popped.len(), n);
        for w in popped.windows(2) {
            assert!(w[0] < w[1], "out of order: {:?} then {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn out_of_order_pushes_inside_one_bucket_sort_by_time_then_tie() {
        // Times 0..8 share bucket 0; so does anything below the anchor.
        let mut q = Calendar::new();
        for (tie, ns) in [(4, 5), (9, 2), (2, 2), (5, 7), (1, 5), (7, 0)] {
            q.push(t(ns), tie, (ns, tie));
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop_if(|_, _| true))
            .map(|(_, _, e)| e)
            .collect();
        assert_eq!(order, [(0, 7), (2, 2), (2, 9), (5, 1), (5, 4), (7, 5)]);
    }

    #[test]
    fn same_instant_pushes_after_a_pop_queue_behind_earlier_ones() {
        // Seqs 0 and 1 sit in the calendar at 500; seq 0 pops; seq 2 at
        // 500 queues behind seq 1, and a push below that instant (legal on
        // the raw queue) still pops first.
        let mut q = EventQueue::new();
        q.push(t(500), 0);
        q.push(t(500), 1);
        assert_eq!(q.pop(), Some((t(500), 0)));
        q.push(t(500), 2);
        q.push(t(200), 3);
        assert_eq!(q.pop(), Some((t(200), 3)));
        q.push(t(500), 4);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(500), 1)));
        assert_eq!(q.pop(), Some((t(500), 2)));
        assert_eq!(q.pop(), Some((t(500), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_into_a_drained_window_pop_before_the_far_heap() {
        // The window holds nothing but a far event is pending: pushes at
        // and after the popped instant pop before it.
        let mut q = EventQueue::new();
        q.push(t(1_000), 0);
        q.push(t(9_000_000), 1);
        assert_eq!(q.pop(), Some((t(1_000), 0)));
        q.push(t(1_000), 2);
        assert_eq!(q.pop(), Some((t(1_000), 2)));
        q.push(t(1_400), 3);
        assert_eq!(q.pop(), Some((t(1_400), 3)));
        assert_eq!(q.pop(), Some((t(9_000_000), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn counters_and_peek_count_same_instant_pushes_after_a_pop() {
        let mut q = EventQueue::new();
        q.push(t(40), 0);
        assert_eq!(q.pop(), Some((t(40), 0)));
        q.push(t(40), 1);
        q.push(t(40), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(t(40)));
        q.push(t(90), 3);
        assert_eq!(q.peek_time(), Some(t(40)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((t(40), 1)));
        assert_eq!(q.popped(), 2);
        assert_eq!(q.pop(), Some((t(40), 2)));
        assert_eq!(q.popped(), 3);
        assert_eq!(q.peek_time(), Some(t(90)));
        assert_eq!(q.pop(), Some((t(90), 3)));
        assert!(q.is_empty());
        assert_eq!(q.popped(), 4);
    }

    #[test]
    fn pop_at_or_before_holds_a_same_instant_push_past_the_deadline() {
        let mut q = EventQueue::new();
        q.push(t(300), "a");
        assert_eq!(q.pop(), Some((t(300), "a")));
        q.push(t(300), "b");
        assert_eq!(q.pop_at_or_before(t(299)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(t(300)), Some((t(300), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn freed_slots_are_reused_so_the_slab_is_the_peak_depth() {
        let mut q = EventQueue::new();
        for i in 0..8u64 {
            q.push(t(i * 100), i);
        }
        for i in 8..10_000u64 {
            assert!(q.pop().is_some());
            q.push(t(i * 100), i); // crosses the window many times
        }
        assert_eq!(q.len(), 8);
        assert_eq!(q.core.slab.len(), 8);
    }

    #[test]
    fn reference_queue_agrees_on_a_small_trace() {
        let mut q = EventQueue::new();
        let mut r = reference::BinaryHeapQueue::new();
        let times = [40u64, 7, 7, 900_000, 12, 7, 300, 40];
        for (i, &ns) in times.iter().enumerate() {
            q.push(t(ns), i);
            r.push(t(ns), i);
        }
        loop {
            let (a, b) = (q.pop(), r.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
