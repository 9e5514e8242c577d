//! Model test for the event engine.
//!
//! Random programs of plain, nested-follower and periodic commands run
//! twice: through [`Simulation`], and through a sorted-`Vec` interpreter
//! of the determinism contract written out longhand. The next event is
//! the minimum `(at, seq)`, every scheduling call takes the next global
//! `seq`, and a periodic rearm takes its `seq` after everything its
//! handler scheduled. Both runs must agree on the dispatch log, the final
//! clock and the executed-event count. Programs are capped at 16 commands
//! so a failing case prints in full (the vendored proptest shim does not
//! shrink).

use proptest::prelude::*;

use simcore::sim::Simulation;
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

/// The decoded form of a [`Cmd`], shared by both interpreters.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// Logs `id`.
    Plain,
    /// Logs `id`, then schedules a follower `delay_ms` later (0 → a
    /// same-time tie with every event already queued at that time).
    Nested { delay_ms: u64 },
    /// Ticks `reps` times, `period_ms` apart. Each tick logs and schedules
    /// a follower one period out, which ties with the tick's own rearm.
    Periodic { period_ms: u64, reps: u64 },
}

fn decode(c: Cmd) -> Op {
    let (a, b) = (u64::from(c.a), u64::from(c.b));
    match c.kind % 3 {
        0 => Op::Plain,
        1 => Op::Nested { delay_ms: a % 4 },
        _ => Op::Periodic { period_ms: a % 4 + 1, reps: b % 4 + 1 },
    }
}

/// Dispatch log entry: `(time_ns, payload id)`.
type Log = Vec<(u64, u32)>;

/// A run's observable outcome: log, final clock (ns), executed count.
type Outcome = (Log, u64, u64);

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// Runs the program through the engine.
fn engine(cmds: &[Cmd]) -> Outcome {
    let mut sim = Simulation::new(Log::new());
    for (i, &c) in cmds.iter().enumerate() {
        let id = i as u32;
        let first = ms(u64::from(c.at_ms));
        let at = SimTime::ZERO + first;
        match decode(c) {
            Op::Plain => sim.schedule_at(at, move |log: &mut Log, ctx| {
                log.push((ctx.now().as_nanos(), id));
            }),
            Op::Nested { delay_ms } => sim.schedule_at(at, move |log: &mut Log, ctx| {
                log.push((ctx.now().as_nanos(), id));
                ctx.after(ms(delay_ms), move |log: &mut Log, ctx| {
                    log.push((ctx.now().as_nanos(), 1_000 + id));
                });
            }),
            Op::Periodic { period_ms, reps } => {
                let mut fired = 0;
                sim.schedule_periodic(first, move |log: &mut Log, ctx| {
                    log.push((ctx.now().as_nanos(), 2_000 + id));
                    ctx.after(ms(period_ms), move |log: &mut Log, ctx| {
                        log.push((ctx.now().as_nanos(), 3_000 + id));
                    });
                    fired += 1;
                    (fired < reps).then_some(ms(period_ms))
                });
            }
        }
    }
    sim.run();
    let (now, executed) = (sim.now().as_nanos(), sim.events_executed());
    (sim.into_state(), now, executed)
}

/// A pending event in the model: what runs when it is dispatched.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// Logs `id` and, for a nested command, schedules its follower.
    Once { id: u32, follow_ms: Option<u64> },
    /// A periodic tick with `left` ticks to go, this one included.
    Tick { id: u32, period_ms: u64, left: u64 },
}

/// The contract, longhand: pending events in a `Vec` kept sorted by
/// `(at, seq)`, dispatched from the front.
#[derive(Default)]
struct Model {
    pending: Vec<(u64, u64, Ev)>,
    seq: u64,
}

impl Model {
    fn schedule(&mut self, at: u64, ev: Ev) {
        let key = (at, self.seq);
        let pos = self.pending.partition_point(|&(t, s, _)| (t, s) < key);
        self.pending.insert(pos, (at, self.seq, ev));
        self.seq += 1;
    }

    fn run(cmds: &[Cmd]) -> Outcome {
        let mut m = Model::default();
        for (i, &c) in cmds.iter().enumerate() {
            let id = i as u32;
            let at = ms(u64::from(c.at_ms)).as_nanos();
            let ev = match decode(c) {
                Op::Plain => Ev::Once { id, follow_ms: None },
                Op::Nested { delay_ms } => Ev::Once { id, follow_ms: Some(delay_ms) },
                Op::Periodic { period_ms, reps } => Ev::Tick { id, period_ms, left: reps },
            };
            m.schedule(at, ev);
        }
        let (mut log, mut now, mut executed) = (Log::new(), 0, 0);
        while !m.pending.is_empty() {
            let (at, _, ev) = m.pending.remove(0);
            now = at;
            executed += 1;
            match ev {
                Ev::Once { id, follow_ms } => {
                    log.push((now, id));
                    if let Some(d) = follow_ms {
                        m.schedule(
                            now + ms(d).as_nanos(),
                            Ev::Once { id: 1_000 + id, follow_ms: None },
                        );
                    }
                }
                Ev::Tick { id, period_ms, left } => {
                    log.push((now, 2_000 + id));
                    let next = now + ms(period_ms).as_nanos();
                    m.schedule(next, Ev::Once { id: 3_000 + id, follow_ms: None });
                    if left > 1 {
                        m.schedule(next, Ev::Tick { id, period_ms, left: left - 1 });
                    }
                }
            }
        }
        (log, now, executed)
    }
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

    /// The engine dispatches exactly what the sorted-`Vec` model does.
    #[test]
    fn engine_matches_the_sorted_vec_model(
        cmds in proptest::collection::vec(cmd_strategy(), 1..17)
    ) {
        prop_assert_eq!(engine(&cmds), Model::run(&cmds), "program: {:?}", cmds);
    }
}
