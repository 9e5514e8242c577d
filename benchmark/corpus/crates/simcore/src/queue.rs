//! Pluggable event queues for the simulation loop.
//!
//! The event loop in [`crate::sim`] orders events by `(time, seq)` — the
//! FIFO tie-break at equal [`SimTime`] that the whole workspace's
//! determinism contract rests on. This module separates *how that order is
//! maintained* from the loop itself behind the [`EventQueue`] trait:
//!
//! * [`ReferenceQueue`] — the original binary heap. Obviously correct,
//!   `O(log n)` per operation, kept as the differential-test oracle.
//! * [`CalendarQueue`] — a calendar/ladder queue: a ring of time buckets
//!   covering one "year" (`width × buckets` nanoseconds), with a sorted
//!   overflow ladder for events beyond the year. Near-future pushes are
//!   `O(1)` appends; pops drain one lazily-sorted bucket at a time, so
//!   batched same-timestamp workloads approach `O(1)` per event.
//!
//! Both implementations produce the *identical* pop sequence for any push
//! sequence — ascending `(time, seq)` — which
//! `crates/simcore/tests/differential.rs` checks against randomly
//! generated event programs. Queue elements are plain [`EventKey`]s:
//! payloads live in the simulation's slot arena, so the queue never
//! allocates per event.
//!
//! # The calendar invariants
//!
//! * `base` is the start (ns) of the current year; it only moves forward.
//! * Every key in a bucket satisfies `base <= at < base + year`; every key
//!   in the overflow ladder satisfies `at >= base + year` at insert time,
//!   and `at >= base` always.
//! * All non-empty buckets are at indices `>= cursor` (a push below the
//!   cursor moves the cursor back).
//! * Equal dispatch times always land in the same bucket, so a batch pop
//!   of one timestamp never has to look beyond the cursor bucket.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicU8, Ordering};

use crate::time::SimTime;

/// One queued event: dispatch time, global FIFO sequence number, and the
/// arena slot holding its payload.
///
/// Field order matters: the derived `Ord` is lexicographic over
/// `(at, seq, slot)`, and `seq` is globally unique, so ordering is total
/// and FIFO at equal times.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Absolute dispatch time.
    pub at: SimTime,
    /// Global scheduling sequence number (FIFO tie-break).
    pub seq: u64,
    /// Arena slot index of the event payload.
    pub slot: u32,
}

/// A priority queue of [`EventKey`]s dispensing them in ascending
/// `(at, seq)` order.
///
/// The contract callers (the simulation loop) must uphold: every pushed
/// key's `at` is `>=` the `at` of the last popped key, and `seq` values
/// are unique. Implementations must be deterministic — no wall clock, no
/// randomness, no address-dependent ordering.
pub trait EventQueue {
    /// Inserts a key.
    fn push(&mut self, key: EventKey);

    /// Removes and returns the smallest `(at, seq)` key.
    fn pop_next(&mut self) -> Option<EventKey>;

    /// Pops *every* key sharing the smallest dispatch time, appending them
    /// to `out` in ascending `seq` order; returns that time.
    fn pop_batch(&mut self, out: &mut Vec<EventKey>) -> Option<SimTime>;

    /// The smallest queued dispatch time. Takes `&mut self` because the
    /// calendar queue settles its cursor (promotes overflow) to answer.
    fn min_time(&mut self) -> Option<SimTime>;

    /// Number of queued keys.
    fn len(&self) -> usize;

    /// True when no keys are queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A short static name for reports and benchmarks.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// ReferenceQueue: the original binary heap, now the oracle.
// ---------------------------------------------------------------------------

/// The original binary-heap event queue, kept as the differential-test
/// oracle: `O(log n)` per operation, trivially correct ordering.
#[derive(Default)]
pub struct ReferenceQueue {
    heap: BinaryHeap<Reverse<EventKey>>,
}

impl ReferenceQueue {
    /// Creates an empty queue.
    pub fn new() -> ReferenceQueue {
        ReferenceQueue { heap: BinaryHeap::new() }
    }
}

impl EventQueue for ReferenceQueue {
    fn push(&mut self, key: EventKey) {
        self.heap.push(Reverse(key));
    }

    fn pop_next(&mut self) -> Option<EventKey> {
        self.heap.pop().map(|r| r.0)
    }

    fn pop_batch(&mut self, out: &mut Vec<EventKey>) -> Option<SimTime> {
        let first = self.heap.pop()?;
        let t = first.0.at;
        out.push(first.0);
        while let Some(head) = self.heap.peek() {
            if head.0.at != t {
                break;
            }
            if let Some(next) = self.heap.pop() {
                out.push(next.0);
            }
        }
        Some(t)
    }

    fn min_time(&mut self) -> Option<SimTime> {
        self.heap.peek().map(|r| r.0.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn name(&self) -> &'static str {
        "reference"
    }
}

// ---------------------------------------------------------------------------
// CalendarQueue: bucketed near future, BTreeMap ladder for the far future.
// ---------------------------------------------------------------------------

/// Buckets the queue starts with (and never shrinks below).
const INITIAL_BUCKETS: usize = 16;
/// Upper bound on the bucket ring (2^16 buckets ≈ 1.5 MiB of headers).
const MAX_BUCKETS: usize = 1 << 16;
/// Initial bucket width in nanoseconds (~65 µs) before any resize has
/// observed the actual event spacing.
const INITIAL_WIDTH: u64 = 1 << 16;
/// Resize samples at most this many queued keys to estimate spacing.
const WIDTH_SAMPLE: usize = 4096;

/// One calendar bucket: its keys, lazily sorted ascending by `(at, seq)`
/// and consumed from the front via the `head` index. Draining by index
/// (instead of popping from the back of a descending sort) keeps the
/// keys in dispatch order in memory, so a same-time batch moves out with
/// one contiguous copy and a sort of already-ascending pushes is a
/// single detect-sorted scan.
#[derive(Default)]
struct Bucket {
    /// Live keys are `keys[head..]`; the prefix is already dispatched.
    keys: Vec<EventKey>,
    /// Index of the first live key.
    head: usize,
    /// Whether `keys[head..]` is sorted ascending by `(at, seq)`.
    sorted: bool,
}

impl Bucket {
    fn is_empty(&self) -> bool {
        self.head == self.keys.len()
    }

    /// The live (not yet dispatched) keys.
    fn live(&self) -> &[EventKey] {
        let live = self.keys.get(self.head..);
        debug_assert!(live.is_some(), "bucket head ran past its keys");
        live.unwrap_or(&[])
    }

    fn push(&mut self, key: EventKey) {
        if self.head > 0 {
            // Drop the dispatched prefix before appending, so `sort`
            // only ever sees live keys.
            self.keys.drain(..self.head);
            self.head = 0;
        }
        self.sorted = self.keys.is_empty();
        self.keys.push(key);
    }

    fn sort(&mut self) {
        if !self.sorted {
            debug_assert_eq!(self.head, 0, "unsorted bucket with a dead prefix");
            self.keys.sort_unstable_by_key(|x| (x.at, x.seq));
            self.sorted = true;
        }
    }

    /// Pops the smallest live key. Callers sort first.
    fn pop_front(&mut self) -> Option<EventKey> {
        let key = self.keys.get(self.head).copied();
        if key.is_some() {
            self.head += 1;
            if self.is_empty() {
                self.keys.clear();
                self.head = 0;
            }
        }
        key
    }

    /// Moves the leading same-time run into `out`; returns its length.
    /// Callers sort first.
    fn drain_run(&mut self, t: SimTime, out: &mut Vec<EventKey>) -> usize {
        let run = self.live().partition_point(|k| k.at <= t);
        let end = self.head + run;
        if let Some(batch) = self.keys.get(self.head..end) {
            out.extend_from_slice(batch);
        }
        self.head = end;
        if self.is_empty() {
            self.keys.clear();
            self.head = 0;
        }
        run
    }
}

/// A calendar/ladder event queue (see the module docs for the layout and
/// invariants).
///
/// Geometry (bucket count and width) adapts deterministically: when the
/// population outgrows the ring, the queue is rebuilt with a wider ring
/// and a width estimated from the observed inter-event spacing. No wall
/// clock or randomness is consulted anywhere, so a push/pop sequence
/// always produces the same internal layout — and, more importantly, the
/// same pop order as [`ReferenceQueue`].
pub struct CalendarQueue {
    buckets: Vec<Bucket>,
    /// Bucket width in nanoseconds (>= 1).
    width: u64,
    /// Start (ns) of the current year; only ever moves forward.
    base: u64,
    /// Current bucket index; all non-empty buckets are at `>= cursor`.
    cursor: usize,
    /// Keys currently held in buckets (the rest are in `overflow`).
    in_year: usize,
    /// Far-future ladder: `(at, seq) -> slot`, sorted by the key.
    overflow: BTreeMap<(u64, u64), u32>,
    len: usize,
}

impl Default for CalendarQueue {
    fn default() -> CalendarQueue {
        CalendarQueue::new()
    }
}

impl CalendarQueue {
    /// Creates an empty queue with the default geometry.
    pub fn new() -> CalendarQueue {
        CalendarQueue::with_geometry(INITIAL_WIDTH, INITIAL_BUCKETS)
    }

    /// Creates an empty queue with an explicit bucket `width` (ns,
    /// clamped to >= 1) and bucket count (clamped to `1..=65536`).
    ///
    /// Exposed so tests can place events exactly on bucket edges and year
    /// boundaries; simulation users should prefer [`CalendarQueue::new`].
    pub fn with_geometry(width: u64, buckets: usize) -> CalendarQueue {
        let nb = buckets.clamp(1, MAX_BUCKETS);
        CalendarQueue {
            buckets: (0..nb).map(|_| Bucket::default()).collect(),
            width: width.max(1),
            base: 0,
            cursor: 0,
            in_year: 0,
            overflow: BTreeMap::new(),
            len: 0,
        }
    }

    /// The span of one year (the whole bucket ring) in nanoseconds.
    fn year(&self) -> u64 {
        self.width.saturating_mul(self.buckets.len() as u64)
    }

    /// Files `key` into its bucket, or the overflow ladder when it lies
    /// beyond the current year. Does not touch `len`.
    fn file_key(&mut self, key: EventKey) {
        let at = key.at.as_nanos();
        let off = at.saturating_sub(self.base) / self.width;
        if off >= self.buckets.len() as u64 {
            self.overflow.insert((at, key.seq), key.slot);
            return;
        }
        let idx = off as usize;
        if idx < self.cursor {
            // Defensive: a push below the cursor (the loop never does
            // this for an earlier *time*, but a same-time requeue after
            // `stop` may land in the bucket the cursor just drained).
            self.cursor = idx;
        }
        self.buckets[idx].push(key);
        self.in_year += 1;
    }

    /// Moves every overflow key that now falls inside the current year
    /// into its bucket.
    fn promote(&mut self) {
        let due = match self.base.checked_add(self.year()) {
            Some(end) => {
                let rest = self.overflow.split_off(&(end, 0));
                std::mem::replace(&mut self.overflow, rest)
            }
            // The year runs past u64::MAX: everything fits.
            None => std::mem::take(&mut self.overflow),
        };
        for (&(at, seq), &slot) in &due {
            self.file_key(EventKey { at: SimTime::from_nanos(at), seq, slot });
        }
    }

    /// Positions the cursor on the first non-empty bucket, rebasing the
    /// year onto the overflow ladder when the buckets are drained.
    /// Returns false when the queue is empty.
    fn settle(&mut self) -> bool {
        if self.len == 0 {
            return false;
        }
        while self.in_year == 0 {
            // Everything queued is in the far future: jump the year
            // straight to the earliest overflow key instead of stepping
            // through empty years one by one.
            let Some((&(at, _), _)) = self.overflow.iter().next() else {
                return false;
            };
            self.base = at;
            self.cursor = 0;
            self.promote();
        }
        let nb = self.buckets.len();
        while self.cursor < nb {
            let c = self.cursor;
            if !self.buckets[c].is_empty() {
                return true;
            }
            self.cursor += 1;
        }
        // Unreachable by the cursor invariant (`in_year > 0` implies a
        // non-empty bucket at `>= cursor`); answer conservatively.
        false
    }

    /// Rebuilds the ring when the population has outgrown it, estimating
    /// a new width from the observed event spacing. Deterministic: depends
    /// only on the queued keys.
    fn maybe_grow(&mut self) {
        let cap = self.buckets.len();
        if self.len <= cap.saturating_mul(4) || cap >= MAX_BUCKETS {
            return;
        }
        let mut all: Vec<EventKey> = Vec::with_capacity(self.len);
        for b in &mut self.buckets {
            all.extend_from_slice(b.live());
            b.keys.clear();
            b.head = 0;
            b.sorted = true;
        }
        for (&(at, seq), &slot) in &self.overflow {
            all.push(EventKey { at: SimTime::from_nanos(at), seq, slot });
        }
        self.overflow.clear();
        all.sort_unstable_by_key(|x| (x.at, x.seq));
        let nb = self.len.next_power_of_two().clamp(INITIAL_BUCKETS, MAX_BUCKETS);
        self.buckets = (0..nb).map(|_| Bucket::default()).collect();
        if let Some(w) = estimate_width(&all) {
            self.width = w;
        }
        self.cursor = 0;
        self.in_year = 0;
        if let Some(first) = all.first() {
            self.base = first.at.as_nanos();
        }
        for key in all {
            self.file_key(key);
        }
    }
}

/// Estimates a bucket width (ns) from a sorted key sample: the average
/// gap between *distinct* timestamps, times a small packing factor.
/// `None` when every sampled key shares one timestamp (keep the old
/// width — there is no spacing to learn from).
fn estimate_width(sorted: &[EventKey]) -> Option<u64> {
    let n = sorted.len().min(WIDTH_SAMPLE);
    let sample = &sorted[..n];
    let (Some(first), Some(last)) = (sample.first(), sample.last()) else {
        return None;
    };
    let span = last.at.as_nanos().saturating_sub(first.at.as_nanos());
    let mut steps = 0u64;
    for w in sample.windows(2) {
        if w[1].at > w[0].at {
            steps += 1;
        }
    }
    if steps == 0 || span == 0 {
        return None;
    }
    // ~3 distinct timestamps per bucket keeps buckets short without
    // making the ring so fine that settling walks empty buckets.
    Some((span.saturating_mul(3) / steps).max(1))
}

impl EventQueue for CalendarQueue {
    fn push(&mut self, key: EventKey) {
        self.file_key(key);
        self.len += 1;
        self.maybe_grow();
    }

    fn pop_next(&mut self) -> Option<EventKey> {
        if !self.settle() {
            return None;
        }
        let c = self.cursor;
        let b = &mut self.buckets[c];
        b.sort();
        let key = b.pop_front();
        if key.is_some() {
            self.in_year -= 1;
            self.len -= 1;
        }
        key
    }

    fn pop_batch(&mut self, out: &mut Vec<EventKey>) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        let c = self.cursor;
        let b = &mut self.buckets[c];
        b.sort();
        let t = match b.live().first() {
            Some(k) => k.at,
            None => return None,
        };
        // Ascending order puts the `at == t` run at the front of the
        // live keys: one contiguous copy moves the whole batch out, in
        // dispatch order, with no per-key popping.
        let popped = b.drain_run(t, out);
        self.in_year -= popped;
        self.len -= popped;
        Some(t)
    }

    fn min_time(&mut self) -> Option<SimTime> {
        if !self.settle() {
            return None;
        }
        let c = self.cursor;
        let b = &mut self.buckets[c];
        b.sort();
        b.live().first().map(|k| k.at)
    }

    fn len(&self) -> usize {
        self.len
    }

    fn name(&self) -> &'static str {
        "calendar"
    }
}

// ---------------------------------------------------------------------------
// Queue selection.
// ---------------------------------------------------------------------------

/// Which [`EventQueue`] implementation a [`crate::sim::Simulation`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// The calendar/ladder queue (the default).
    Calendar,
    /// The original binary heap (the test oracle).
    Reference,
}

impl QueueKind {
    /// Constructs an empty queue of this kind.
    pub fn make(self) -> Box<dyn EventQueue> {
        match self {
            QueueKind::Calendar => Box::new(CalendarQueue::new()),
            QueueKind::Reference => Box::new(ReferenceQueue::new()),
        }
    }

    /// The kind's short static name.
    pub fn name(self) -> &'static str {
        match self {
            QueueKind::Calendar => "calendar",
            QueueKind::Reference => "reference",
        }
    }
}

/// Process-wide default queue kind for `Simulation::new` (0 = calendar,
/// 1 = reference). A plain atomic so the digest-invariance gate can flip
/// the default and re-run a whole campaign without threading a parameter
/// through every constructor.
static DEFAULT_KIND: AtomicU8 = AtomicU8::new(0);

/// Sets the process-wide default queue kind used by
/// [`crate::sim::Simulation::new`].
///
/// Intended for tests and benchmarks (the digest-invariance gate runs the
/// campaign smoke under both kinds); production code should rely on the
/// default or pass an explicit kind to
/// [`crate::sim::Simulation::with_queue_kind`].
pub fn set_default_queue_kind(kind: QueueKind) {
    let v = match kind {
        QueueKind::Calendar => 0,
        QueueKind::Reference => 1,
    };
    DEFAULT_KIND.store(v, Ordering::SeqCst);
}

/// The current process-wide default queue kind.
pub fn default_queue_kind() -> QueueKind {
    match DEFAULT_KIND.load(Ordering::SeqCst) {
        1 => QueueKind::Reference,
        _ => QueueKind::Calendar,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(at: u64, seq: u64) -> EventKey {
        EventKey { at: SimTime::from_nanos(at), seq, slot: seq as u32 }
    }

    fn drain(q: &mut dyn EventQueue) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(k) = q.pop_next() {
            out.push((k.at.as_nanos(), k.seq));
        }
        out
    }

    #[test]
    fn reference_pops_in_key_order() {
        let mut q = ReferenceQueue::new();
        q.push(key(5, 0));
        q.push(key(1, 1));
        q.push(key(5, 2));
        q.push(key(1, 3));
        assert_eq!(drain(&mut q), vec![(1, 1), (1, 3), (5, 0), (5, 2)]);
    }

    #[test]
    fn calendar_pops_in_key_order_across_buckets_and_overflow() {
        let mut q = CalendarQueue::with_geometry(10, 4); // year = 40 ns
        for &(at, seq) in
            &[(39, 0), (0, 1), (40, 2), (10, 3), (1_000_000, 4), (39, 5), (41, 6), (9, 7)]
        {
            q.push(key(at, seq));
        }
        assert_eq!(
            drain(&mut q),
            vec![(0, 1), (9, 7), (10, 3), (39, 0), (39, 5), (40, 2), (41, 6), (1_000_000, 4)]
        );
    }

    #[test]
    fn calendar_batch_pops_one_timestamp_fifo() {
        let mut q = CalendarQueue::with_geometry(100, 8);
        q.push(key(50, 3));
        q.push(key(50, 1));
        q.push(key(60, 2));
        q.push(key(50, 7));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime::from_nanos(50)));
        let seqs: Vec<u64> = out.iter().map(|k| k.seq).collect();
        assert_eq!(seqs, vec![1, 3, 7]);
        out.clear();
        assert_eq!(q.pop_batch(&mut out), Some(SimTime::from_nanos(60)));
        assert_eq!(out.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn calendar_bucket_edges_and_year_boundaries() {
        // width 10, 4 buckets: edges at 0/10/20/30, year boundary at 40.
        let mut q = CalendarQueue::with_geometry(10, 4);
        let times = [0u64, 9, 10, 19, 20, 29, 30, 39, 40, 79, 80, 120];
        for (i, &t) in times.iter().enumerate() {
            q.push(key(t, i as u64));
        }
        let got: Vec<u64> = drain(&mut q).into_iter().map(|(at, _)| at).collect();
        let mut want = times.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn calendar_interleaves_push_and_pop_monotonically() {
        let mut q = CalendarQueue::with_geometry(7, 4);
        q.push(key(3, 0));
        q.push(key(1_000, 1));
        assert_eq!(q.pop_next(), Some(key(3, 0)));
        // Push between the popped time and the far-future key.
        q.push(key(500, 2));
        q.push(key(3, 3)); // same time as the last pop: must still come first
        assert_eq!(drain(&mut q), vec![(3, 3), (500, 2), (1_000, 1)]);
    }

    #[test]
    fn calendar_growth_keeps_order() {
        let mut q = CalendarQueue::with_geometry(1 << 16, INITIAL_BUCKETS);
        let mut want = Vec::new();
        // Push far more keys than the initial ring holds comfortably, on a
        // spacing the initial width is wrong for.
        for seq in 0..10_000u64 {
            let at = (seq % 97) * 1_000_003;
            q.push(key(at, seq));
            want.push((at, seq));
        }
        want.sort_unstable();
        assert_eq!(drain(&mut q), want);
    }

    #[test]
    fn calendar_handles_max_sentinel_times() {
        let mut q = CalendarQueue::with_geometry(10, 4);
        q.push(key(u64::MAX, 0));
        q.push(key(5, 1));
        q.push(key(u64::MAX, 2));
        assert_eq!(drain(&mut q), vec![(5, 1), (u64::MAX, 0), (u64::MAX, 2)]);
    }

    #[test]
    fn default_kind_round_trips() {
        assert_eq!(default_queue_kind(), QueueKind::Calendar);
        set_default_queue_kind(QueueKind::Reference);
        assert_eq!(default_queue_kind(), QueueKind::Reference);
        set_default_queue_kind(QueueKind::Calendar);
        assert_eq!(default_queue_kind(), QueueKind::Calendar);
        assert_eq!(QueueKind::Calendar.name(), "calendar");
        assert_eq!(QueueKind::Reference.make().name(), "reference");
    }
}
