//! An output-queued switch with pluggable (and possibly unfair) arbitration.
//!
//! Paper §2.1.3 (Unfairness): "if enough load is placed on a Myrinet
//! switch, certain routes receive preference; the result is that the nodes
//! behind disfavored links appear 'slower' to a sender, even though they
//! are fully capable of receiving data at link rate."
//!
//! [`Switch`] accepts per-input packet demands destined to output ports and
//! arbitrates each output's bandwidth among competing inputs. Under
//! [`Arbitration::Fair`], backlogged inputs share an output equally; under
//! [`Arbitration::Priority`], lower-numbered inputs always win — which is
//! invisible at low load and starves disfavoured inputs at high load,
//! exactly the observed behaviour.

use std::collections::VecDeque;

use simcore::time::{SimDuration, SimTime};

/// How an output port divides its bandwidth among backlogged inputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arbitration {
    /// Round-robin over backlogged inputs: equal shares.
    Fair,
    /// Strict priority by input index: the pathological favouritism
    /// observed in loaded Myrinet switches.
    Priority,
}

/// A packet queued at the switch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Packet {
    /// Arrival time at the switch.
    pub at: SimTime,
    /// Input port it arrived on.
    pub input: usize,
    /// Output port it must leave through.
    pub output: usize,
    /// Size in bytes.
    pub bytes: u64,
}

/// A delivered packet with its departure time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Forwarded {
    /// The packet.
    pub packet: Packet,
    /// When its last byte left the output port.
    pub done: SimTime,
}

/// An output-queued crossbar switch.
#[derive(Clone, Debug)]
pub struct Switch {
    inputs: usize,
    outputs: usize,
    rate: f64,
    arbitration: Arbitration,
    // Per-output, per-input FIFO of pending packets.
    queues: Vec<Vec<VecDeque<Packet>>>,
    // Per-output progress clock and round-robin pointer, persisted across
    // drain calls.
    out_clock: Vec<SimTime>,
    rr: Vec<usize>,
    delivered: Vec<Forwarded>,
}

impl Switch {
    /// Creates a switch with `inputs × outputs` ports, each output draining
    /// at `rate` bytes/second.
    pub fn new(inputs: usize, outputs: usize, rate: f64, arbitration: Arbitration) -> Self {
        assert!(inputs > 0 && outputs > 0, "ports must be positive");
        assert!(rate > 0.0, "rate must be positive");
        Switch {
            inputs,
            outputs,
            rate,
            arbitration,
            queues: vec![vec![VecDeque::new(); inputs]; outputs],
            out_clock: vec![SimTime::ZERO; outputs],
            rr: vec![0; outputs],
            delivered: Vec::new(),
        }
    }

    /// Enqueues a packet.
    ///
    /// # Panics
    ///
    /// Panics if the ports are out of range.
    pub fn enqueue(&mut self, p: Packet) {
        assert!(p.input < self.inputs, "input {} out of range", p.input);
        assert!(p.output < self.outputs, "output {} out of range", p.output);
        self.queues[p.output][p.input].push_back(p);
    }

    /// Drains every output until `deadline`, consuming queued packets
    /// according to the arbitration policy. Returns packets completed in
    /// this call.
    pub fn drain_until(&mut self, deadline: SimTime) -> Vec<Forwarded> {
        let mut out = Vec::new();
        for output in 0..self.outputs {
            self.drain_output(output, deadline, &mut out);
        }
        self.delivered.extend(out.iter().copied());
        out
    }

    fn drain_output(&mut self, output: usize, deadline: SimTime, out: &mut Vec<Forwarded>) {
        let per_byte = SimDuration::from_secs_f64(1.0 / self.rate);
        let mut clock = self.out_clock[output];
        let mut rr_next = self.rr[output];
        loop {
            // Find the candidate input whose head packet has arrived by
            // `clock` (or the earliest future arrival if the port is idle).
            let queues = &self.queues[output];
            let mut earliest: Option<SimTime> = None;
            let mut candidates: Vec<usize> = Vec::new();
            for (input, queue) in queues.iter().enumerate() {
                if let Some(p) = queue.front() {
                    earliest = Some(earliest.map_or(p.at, |e: SimTime| e.min(p.at)));
                    if p.at <= clock {
                        candidates.push(input);
                    }
                }
            }
            if candidates.is_empty() {
                match earliest {
                    // Idle: jump to the next arrival.
                    Some(t) if t < deadline => {
                        clock = clock.max(t);
                        continue;
                    }
                    _ => break,
                }
            }
            let input = match self.arbitration {
                Arbitration::Priority => *candidates.iter().min().expect("non-empty"),
                Arbitration::Fair => {
                    // Pick the first candidate at or after the round-robin
                    // pointer, wrapping.
                    let pick =
                        candidates.iter().copied().find(|&i| i >= rr_next).unwrap_or(candidates[0]);
                    rr_next = (pick + 1) % self.inputs;
                    pick
                }
            };
            let p = self.queues[output][input].pop_front().expect("candidate has head");
            let start = clock.max(p.at);
            let done = start + per_byte * p.bytes;
            if done > deadline {
                // Cannot finish before the deadline; put it back.
                self.queues[output][input].push_front(p);
                break;
            }
            clock = done;
            out.push(Forwarded { packet: p, done });
        }
        self.out_clock[output] = clock.min(deadline);
        self.rr[output] = rr_next;
    }

    /// Every packet delivered so far.
    pub fn delivered(&self) -> &[Forwarded] {
        &self.delivered
    }

    /// Per-input delivered byte counts (across all outputs).
    pub fn delivered_bytes_by_input(&self) -> Vec<u64> {
        let mut v = vec![0u64; self.inputs];
        for f in &self.delivered {
            v[f.packet.input] += f.packet.bytes;
        }
        v
    }

    /// Bytes still queued.
    pub fn backlog_bytes(&self) -> u64 {
        self.queues
            .iter()
            .flat_map(|per_in| per_in.iter())
            .flat_map(|q| q.iter())
            .map(|p| p.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(at_ms: u64, input: usize, output: usize, bytes: u64) -> Packet {
        Packet { at: SimTime::from_millis(at_ms), input, output, bytes }
    }

    /// Loads two inputs with heavy traffic to one output and returns the
    /// delivered byte ratio input0 : input1 after one second.
    fn contended_ratio(arb: Arbitration) -> f64 {
        let mut sw = Switch::new(2, 1, 1e6, arb);
        // Each input offers 1 MB/s to a single 1 MB/s output: 2x overload.
        for i in 0..100 {
            sw.enqueue(pkt(i * 10, 0, 0, 10_000));
            sw.enqueue(pkt(i * 10, 1, 0, 10_000));
        }
        sw.drain_until(SimTime::from_secs(1));
        let by_input = sw.delivered_bytes_by_input();
        by_input[0] as f64 / by_input[1].max(1) as f64
    }

    #[test]
    fn fair_arbitration_splits_evenly_under_load() {
        let r = contended_ratio(Arbitration::Fair);
        assert!((r - 1.0).abs() < 0.1, "ratio {r}");
    }

    #[test]
    fn priority_arbitration_starves_disfavoured_input() {
        let r = contended_ratio(Arbitration::Priority);
        assert!(r > 5.0, "ratio {r}");
    }

    #[test]
    fn light_load_hides_unfairness() {
        // At 20% load both inputs get everything through regardless of
        // policy — the paper's point that the fault only appears under load.
        for arb in [Arbitration::Fair, Arbitration::Priority] {
            let mut sw = Switch::new(2, 1, 1e6, arb);
            for i in 0..10 {
                sw.enqueue(pkt(i * 100, 0, 0, 10_000));
                sw.enqueue(pkt(i * 100, 1, 0, 10_000));
            }
            sw.drain_until(SimTime::from_secs(1));
            let by_input = sw.delivered_bytes_by_input();
            assert_eq!(by_input[0], 100_000, "{arb:?}");
            assert_eq!(by_input[1], 100_000, "{arb:?}");
        }
    }

    #[test]
    fn packets_respect_arrival_times() {
        let mut sw = Switch::new(1, 1, 1e6, Arbitration::Fair);
        sw.enqueue(pkt(500, 0, 0, 1_000));
        let done = sw.drain_until(SimTime::from_secs(1));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].done, SimTime::from_millis(501));
    }

    #[test]
    fn undrained_packets_stay_backlogged() {
        let mut sw = Switch::new(1, 1, 1e3, Arbitration::Fair);
        sw.enqueue(pkt(0, 0, 0, 10_000)); // needs 10 s
        let done = sw.drain_until(SimTime::from_secs(1));
        assert!(done.is_empty());
        assert_eq!(sw.backlog_bytes(), 10_000);
    }

    #[test]
    fn separate_outputs_do_not_contend() {
        let mut sw = Switch::new(2, 2, 1e6, Arbitration::Priority);
        sw.enqueue(pkt(0, 0, 0, 1_000_000));
        sw.enqueue(pkt(0, 1, 1, 1_000_000));
        let done = sw.drain_until(SimTime::from_secs(1));
        assert_eq!(done.len(), 2);
        for f in done {
            assert_eq!(f.done, SimTime::from_secs(1));
        }
    }
}
