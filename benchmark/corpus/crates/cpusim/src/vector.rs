//! Scalar–vector memory-bank interference.
//!
//! Paper §2.2.2 (Memory Bank Conflicts), citing Raghavan & Hayes:
//! "perturbations to a vector reference stream can reduce memory system
//! efficiency by up to a factor of two."
//!
//! [`BankedMemory`] models an interleaved memory of `banks` banks, each
//! with a recovery (busy) time of `bank_cycles`. A unit-stride vector
//! stream visits banks round-robin and, when `banks >= bank_cycles`, hides
//! all recovery time — one element per cycle. Interleaved scalar references
//! hit arbitrary banks and collide with the stream's schedule, stalling the
//! pipeline; efficiency degrades toward one half.

use simcore::rng::Stream;

/// An interleaved, multi-bank memory system.
#[derive(Clone, Debug)]
pub struct BankedMemory {
    banks: usize,
    bank_cycles: u64,
    // Cycle at which each bank becomes ready again.
    ready_at: Vec<u64>,
    now: u64,
}

impl BankedMemory {
    /// Creates a memory with `banks` banks and `bank_cycles` busy time per
    /// access.
    pub fn new(banks: usize, bank_cycles: u64) -> Self {
        assert!(banks > 0, "need at least one bank");
        assert!(bank_cycles > 0, "bank busy time must be positive");
        BankedMemory { banks, bank_cycles, ready_at: vec![0; banks], now: 0 }
    }

    /// Issues one access to `address`; returns the cycle at which it
    /// completed. At most one access issues per cycle; a busy bank stalls
    /// the pipeline until it recovers.
    pub fn access(&mut self, address: u64) -> u64 {
        let bank = (address as usize) % self.banks;
        // Issue no earlier than the next pipeline cycle and no earlier
        // than bank recovery.
        let issue = self.now.max(self.ready_at[bank]);
        self.ready_at[bank] = issue + self.bank_cycles;
        self.now = issue + 1;
        issue
    }

    /// The current pipeline cycle.
    pub fn now(&self) -> u64 {
        self.now
    }
}

/// Result of a vector-stream run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamResult {
    /// Vector elements transferred.
    pub elements: u64,
    /// Total accesses issued (vector + interfering scalar).
    pub accesses: u64,
    /// Total cycles consumed.
    pub cycles: u64,
}

impl StreamResult {
    /// Vector elements per cycle.
    pub fn efficiency(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.elements as f64 / self.cycles as f64
        }
    }

    /// Memory-system utilisation: accesses retired per cycle (1.0 = one
    /// access every cycle, the interleaved memory's peak).
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.accesses as f64 / self.cycles as f64
        }
    }
}

/// Streams `elements` unit-stride vector references, with an interfering
/// scalar reference to a random address inserted after each vector element
/// with probability `scalar_rate`.
pub fn run_stream(
    mem: &mut BankedMemory,
    elements: u64,
    scalar_rate: f64,
    rng: &mut Stream,
) -> StreamResult {
    let start = mem.now();
    let mut accesses = 0;
    for i in 0..elements {
        mem.access(i);
        accesses += 1;
        if scalar_rate > 0.0 && rng.next_bool(scalar_rate) {
            mem.access(rng.next_u64());
            accesses += 1;
        }
    }
    StreamResult { elements, accesses, cycles: mem.now() - start }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_stream_is_fully_pipelined() {
        let mut mem = BankedMemory::new(8, 8);
        let mut rng = Stream::from_seed(1);
        let r = run_stream(&mut mem, 10_000, 0.0, &mut rng);
        assert!((r.efficiency() - 1.0).abs() < 0.01, "eff {}", r.efficiency());
    }

    #[test]
    fn perturbed_stream_halves_efficiency() {
        // The Raghavan–Hayes factor of two.
        let mut mem = BankedMemory::new(8, 8);
        let mut rng = Stream::from_seed(2);
        let r = run_stream(&mut mem, 100_000, 0.5, &mut rng);
        let u = r.utilization();
        assert!((0.35..0.65).contains(&u), "utilization {u}");
    }

    #[test]
    fn efficiency_declines_monotonically_with_interference() {
        let mut last = f64::INFINITY;
        for rate in [0.0, 0.1, 0.3, 0.5] {
            let mut mem = BankedMemory::new(8, 8);
            let mut rng = Stream::from_seed(3);
            let eff = run_stream(&mut mem, 50_000, rate, &mut rng).utilization();
            assert!(eff < last + 0.02, "rate {rate}: eff {eff} vs last {last}");
            last = eff;
        }
    }

    #[test]
    fn busy_bank_stalls() {
        let mut mem = BankedMemory::new(2, 4);
        // Two back-to-back accesses to bank 0.
        let a = mem.access(0);
        let b = mem.access(2);
        assert_eq!(a, 0);
        assert_eq!(b, 4, "second access must wait for bank recovery");
    }

    #[test]
    fn more_banks_absorb_more_interference() {
        let run = |banks: usize| {
            let mut mem = BankedMemory::new(banks, 8);
            let mut rng = Stream::from_seed(4);
            run_stream(&mut mem, 50_000, 0.3, &mut rng).utilization()
        };
        assert!(run(32) > run(8), "32 banks {} vs 8 banks {}", run(32), run(8));
    }
}
