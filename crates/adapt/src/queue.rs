//! Push vs pull work distribution — the River principle.
//!
//! Paper §4: River "provides mechanisms to enable consistent and high
//! performance in spite of erratic performance in underlying components",
//! chiefly through a *distributed queue*: consumers take work at the rate
//! they can actually sustain, rather than receiving a static share.
//!
//! [`distribute`] runs the same batch of work items under both strategies
//! against consumers with arbitrary time-varying rates, making the
//! static-parallelism penalty directly measurable.

use simcore::resource::{barrier, equal_shares, RateProfile};
use simcore::time::{SimDuration, SimTime};

/// A work-distribution strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Static partition: item `i` is pre-assigned to consumer
    /// `i mod consumers` (fail-stop thinking).
    Push,
    /// Distributed queue: a free consumer pulls the next item
    /// (fail-stutter thinking).
    Pull,
}

/// The outcome of distributing a batch.
#[derive(Clone, Debug, PartialEq)]
pub struct DistributeOutcome {
    /// When the last item completed.
    pub makespan: SimDuration,
    /// Items completed by each consumer.
    pub per_consumer: Vec<u64>,
}

/// Errors from work distribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueError {
    /// A consumer with pre-assigned work never finishes (push strategy
    /// with a dead consumer), or no consumer remains (pull strategy).
    StarvedForever,
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "work can never complete: consumer(s) permanently stopped")
    }
}

impl std::error::Error for QueueError {}

/// Distributes `items` work items of `item_units` each over consumers whose
/// service capacity is given by `rates` (units/second over time), starting
/// at `start`.
pub fn distribute(
    strategy: Strategy,
    rates: &[RateProfile],
    items: u64,
    item_units: f64,
    start: SimTime,
) -> Result<DistributeOutcome, QueueError> {
    assert!(!rates.is_empty(), "need at least one consumer");
    assert!(items > 0 && item_units > 0.0, "degenerate batch");
    match strategy {
        Strategy::Push => push(rates, items, item_units, start),
        Strategy::Pull => pull(rates, items, item_units, start),
    }
}

fn push(
    rates: &[RateProfile],
    items: u64,
    item_units: f64,
    start: SimTime,
) -> Result<DistributeOutcome, QueueError> {
    let per_consumer = equal_shares(items, rates.len());
    let makespan =
        barrier(rates, &per_consumer, item_units, start).map_err(|_| QueueError::StarvedForever)?;
    Ok(DistributeOutcome { makespan, per_consumer })
}

fn pull(
    rates: &[RateProfile],
    items: u64,
    item_units: f64,
    start: SimTime,
) -> Result<DistributeOutcome, QueueError> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut ready: BinaryHeap<Reverse<(SimTime, usize)>> =
        (0..rates.len()).map(|i| Reverse((start, i))).collect();
    let mut per_consumer = vec![0u64; rates.len()];
    let mut issued = 0u64;
    let mut finish = start;
    while issued < items {
        let Some(Reverse((avail, i))) = ready.pop() else {
            return Err(QueueError::StarvedForever);
        };
        match rates[i].time_to_transfer(avail, item_units) {
            Some(dt) => {
                issued += 1;
                per_consumer[i] += 1;
                let done = avail + dt;
                finish = finish.max(done);
                ready.push(Reverse((done, i)));
            }
            None => {
                // Consumer is dead from here on; it simply pulls no more.
            }
        }
    }
    Ok(DistributeOutcome { makespan: finish - start, per_consumer })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn constant_rates(rates: &[f64]) -> Vec<RateProfile> {
        rates.iter().map(|&r| RateProfile::constant(r)).collect()
    }

    #[test]
    fn uniform_consumers_tie() {
        let rates = constant_rates(&[10.0, 10.0, 10.0, 10.0]);
        let push = distribute(Strategy::Push, &rates, 400, 1.0, SimTime::ZERO).expect("ok");
        let pull = distribute(Strategy::Pull, &rates, 400, 1.0, SimTime::ZERO).expect("ok");
        assert_eq!(push.makespan, SimDuration::from_secs(10));
        // Pull pays no penalty when everyone is identical.
        assert_eq!(pull.makespan, SimDuration::from_secs(10));
        assert_eq!(pull.per_consumer, vec![100, 100, 100, 100]);
    }

    #[test]
    fn push_tracks_the_straggler_pull_does_not() {
        // One consumer at a third of the speed: push is gated by it, pull
        // routes around it.
        let rates = constant_rates(&[10.0, 10.0, 10.0, 10.0 / 3.0]);
        let push = distribute(Strategy::Push, &rates, 400, 1.0, SimTime::ZERO).expect("ok");
        let pull = distribute(Strategy::Pull, &rates, 400, 1.0, SimTime::ZERO).expect("ok");
        // Push: 100 items at 10/3 u/s = 30 s.
        assert_eq!(push.makespan, SimDuration::from_secs(30));
        // Pull: aggregate 33.3 u/s → ~12 s.
        assert!(pull.makespan < SimDuration::from_secs(14), "{}", pull.makespan);
        // The slow consumer did roughly a third the work of the others.
        let slow = pull.per_consumer[3] as f64;
        let fast = pull.per_consumer[0] as f64;
        assert!(slow < 0.6 * fast, "slow {slow} fast {fast}");
    }

    #[test]
    fn dead_consumer_kills_push_not_pull() {
        let mut rates = constant_rates(&[10.0, 10.0, 10.0]);
        rates[1] = RateProfile::from_breakpoints(vec![
            (SimTime::ZERO, 10.0),
            (SimTime::from_secs(1), 0.0),
        ]);
        let push = distribute(Strategy::Push, &rates, 300, 1.0, SimTime::ZERO);
        assert_eq!(push, Err(QueueError::StarvedForever));
        let pull = distribute(Strategy::Pull, &rates, 300, 1.0, SimTime::ZERO).expect("ok");
        assert_eq!(pull.per_consumer.iter().sum::<u64>(), 300);
        // The dead consumer only got what it finished in its first second.
        assert!(pull.per_consumer[1] <= 11, "{:?}", pull.per_consumer);
    }

    #[test]
    fn all_dead_is_an_error() {
        let rates = vec![RateProfile::from_breakpoints(vec![
            (SimTime::ZERO, 10.0),
            (SimTime::from_secs(1), 0.0),
        ])];
        let r = distribute(Strategy::Pull, &rates, 1_000, 1.0, SimTime::ZERO);
        assert_eq!(r, Err(QueueError::StarvedForever));
    }

    #[test]
    fn pull_adapts_to_time_varying_rates() {
        // A consumer that is slow early and fast late still ends up with
        // close to its fair share of work.
        let varying = RateProfile::from_breakpoints(vec![
            (SimTime::ZERO, 2.0),
            (SimTime::from_secs(10), 18.0),
        ]);
        let rates = vec![RateProfile::constant(10.0), varying];
        let pull = distribute(Strategy::Pull, &rates, 400, 1.0, SimTime::ZERO).expect("ok");
        let total: u64 = pull.per_consumer.iter().sum();
        assert_eq!(total, 400);
        assert!(pull.per_consumer[1] > 100, "{:?}", pull.per_consumer);
    }

    #[test]
    fn work_is_conserved() {
        let rates = constant_rates(&[3.0, 7.0, 11.0]);
        for strategy in [Strategy::Push, Strategy::Pull] {
            let out = distribute(strategy, &rates, 1_001, 2.5, SimTime::ZERO).expect("ok");
            assert_eq!(out.per_consumer.iter().sum::<u64>(), 1_001, "{strategy:?}");
        }
    }
}
