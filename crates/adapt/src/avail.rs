//! Availability as Gray & Reuter define it.
//!
//! Paper §3.3: "Gray and Reuter define availability as follows: 'The
//! fraction of the offered load that is processed with acceptable response
//! times.' A system that only utilizes the fail-stop model is likely to
//! deliver poor performance under even a single performance failure; if
//! performance does not meet the threshold, availability decreases."
//!
//! [`AvailabilityMeter`] scores request latencies against a deadline and
//! reports that fraction.

use simcore::time::SimDuration;

/// Measures Gray–Reuter availability over a stream of request latencies.
#[derive(Clone, Debug)]
pub struct AvailabilityMeter {
    deadline: SimDuration,
    acceptable: u64,
    total: u64,
    dropped: u64,
}

impl AvailabilityMeter {
    /// Creates a meter with the given acceptable-response deadline.
    pub fn new(deadline: SimDuration) -> Self {
        AvailabilityMeter { deadline, acceptable: 0, total: 0, dropped: 0 }
    }

    /// Records a completed request.
    pub fn record(&mut self, latency: SimDuration) {
        self.total += 1;
        if latency <= self.deadline {
            self.acceptable += 1;
        }
    }

    /// Records a request that never completed (counts as unacceptable).
    pub fn record_dropped(&mut self) {
        self.total += 1;
        self.dropped += 1;
    }

    /// The availability: fraction of offered load processed within the
    /// deadline. A meter with no offered load reports 1.0.
    pub fn availability(&self) -> f64 {
        if self.total == 0 {
            1.0
        } else {
            self.acceptable as f64 / self.total as f64
        }
    }

    /// Offered requests so far.
    pub fn offered(&self) -> u64 {
        self.total
    }

    /// Requests that never completed.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The deadline being enforced.
    pub fn deadline(&self) -> SimDuration {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_fraction_within_deadline() {
        let mut m = AvailabilityMeter::new(SimDuration::from_millis(100));
        m.record(SimDuration::from_millis(50));
        m.record(SimDuration::from_millis(100)); // boundary counts
        m.record(SimDuration::from_millis(150));
        m.record(SimDuration::from_secs(10));
        assert!((m.availability() - 0.5).abs() < 1e-12);
        assert_eq!(m.offered(), 4);
    }

    #[test]
    fn dropped_requests_hurt() {
        let mut m = AvailabilityMeter::new(SimDuration::from_millis(100));
        m.record(SimDuration::from_millis(10));
        m.record_dropped();
        assert!((m.availability() - 0.5).abs() < 1e-12);
        assert_eq!(m.dropped(), 1);
    }

    #[test]
    fn empty_meter_is_fully_available() {
        let m = AvailabilityMeter::new(SimDuration::from_millis(1));
        assert_eq!(m.availability(), 1.0);
    }
}
