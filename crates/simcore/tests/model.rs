//! Model test for the event queue.
//!
//! Random programs of plain, nested-follower and self-re-arming tick
//! commands run through one interpreter loop over two pending sets: an
//! [`EventQueue`], and a `Vec` kept sorted by `(at, seq)` — the
//! determinism contract written out longhand. The next event is the
//! minimum `(at, seq)`, every scheduling call takes the next global
//! `seq`, and a tick schedules its follower before it re-arms itself.
//! Both runs must agree on the dispatch log, the final clock and the pop
//! count. Programs are capped at 16 commands so a failing case prints in
//! full (the vendored proptest shim does not shrink).

use proptest::prelude::*;

use simcore::sim::EventQueue;
use simcore::time::{SimDuration, SimTime};

/// One command of a generated program, installed at time zero.
#[derive(Clone, Copy, Debug)]
struct Cmd {
    /// Dispatch time in milliseconds; a small range gives many ties.
    at_ms: u8,
    /// Command selector, taken modulo the number of variants.
    kind: u8,
    /// Variant-specific small parameter (delays, periods).
    a: u8,
    /// Variant-specific small parameter (repeat counts).
    b: u8,
}

/// A pending event, as the interpreter dispatches it.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Logs `id`.
    Plain { id: u32 },
    /// Logs `id`, then schedules a follower `delay_ms` later (0 → a
    /// same-time tie with every event already queued at that time).
    Nested { id: u32, delay_ms: u64 },
    /// Ticks `left` more times, `period_ms` apart. Each tick logs and
    /// schedules a follower one period out, which ties with the tick's own
    /// re-arm.
    Tick { id: u32, period_ms: u64, left: u64 },
}

fn decode(c: Cmd, id: u32) -> Op {
    let (a, b) = (u64::from(c.a), u64::from(c.b));
    match c.kind % 3 {
        0 => Op::Plain { id },
        1 => Op::Nested { id, delay_ms: a % 4 },
        _ => Op::Tick { id, period_ms: a % 4 + 1, left: b % 4 + 1 },
    }
}

/// Dispatch log entry: `(time_ns, payload id)`.
type Log = Vec<(u64, u32)>;

/// A run's observable outcome: log, final clock (ns), pop count.
type Outcome = (Log, u64, u64);

fn ms(n: u64) -> u64 {
    SimDuration::from_millis(n).as_nanos()
}

/// A set of pending events the interpreter schedules into and pops from.
trait Pending {
    /// Queues `op` at `at` (ns) with the next sequence number.
    fn schedule(&mut self, at: u64, op: Op);
    /// Pops the next event with the clock (ns) it runs at.
    fn pop(&mut self) -> Option<(u64, Op)>;
}

impl Pending for EventQueue<Op> {
    fn schedule(&mut self, at: u64, op: Op) {
        self.schedule_at(SimTime::from_nanos(at), op);
    }

    fn pop(&mut self) -> Option<(u64, Op)> {
        let op = self.pop_until(SimTime::MAX)?;
        Some((self.now().as_nanos(), op))
    }
}

/// The contract, longhand: pending events in a `Vec` kept sorted by
/// `(at, seq)`, dispatched from the front.
#[derive(Default)]
struct SortedVec {
    pending: Vec<(u64, u64, Op)>,
    seq: u64,
}

impl Pending for SortedVec {
    fn schedule(&mut self, at: u64, op: Op) {
        let key = (at, self.seq);
        let pos = self.pending.partition_point(|&(t, s, _)| (t, s) < key);
        self.pending.insert(pos, (at, self.seq, op));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(u64, Op)> {
        if self.pending.is_empty() {
            return None;
        }
        let (at, _, op) = self.pending.remove(0);
        Some((at, op))
    }
}

/// Installs the program at time zero and runs it to exhaustion.
fn interpret(cmds: &[Cmd], pending: &mut impl Pending) -> Outcome {
    for (i, &c) in cmds.iter().enumerate() {
        pending.schedule(ms(u64::from(c.at_ms)), decode(c, i as u32));
    }
    let (mut log, mut now, mut popped) = (Log::new(), 0, 0);
    while let Some((at, op)) = pending.pop() {
        now = at;
        popped += 1;
        match op {
            Op::Plain { id } => log.push((now, id)),
            Op::Nested { id, delay_ms } => {
                log.push((now, id));
                pending.schedule(now + ms(delay_ms), Op::Plain { id: 1_000 + id });
            }
            Op::Tick { id, period_ms, left } => {
                log.push((now, 2_000 + id));
                let next = now + ms(period_ms);
                pending.schedule(next, Op::Plain { id: 3_000 + id });
                if left > 1 {
                    pending.schedule(next, Op::Tick { id, period_ms, left: left - 1 });
                }
            }
        }
    }
    (log, now, popped)
}

fn cmd_strategy() -> impl Strategy<Value = Cmd> {
    (0u8..8, any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(at_ms, kind, a, b)| Cmd {
        at_ms,
        kind,
        a,
        b,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The queue dispatches exactly what the sorted-`Vec` model does.
    #[test]
    fn queue_matches_the_sorted_vec_model(
        cmds in proptest::collection::vec(cmd_strategy(), 1..17)
    ) {
        prop_assert_eq!(
            interpret(&cmds, &mut EventQueue::new()),
            interpret(&cmds, &mut SortedVec::default()),
            "program: {:?}",
            cmds
        );
    }
}
