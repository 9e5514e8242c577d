//! A SCSI chain: shared bus, timeouts, parity errors, and bus resets.
//!
//! Paper §2.1.2 (Timeouts), citing Talagala and Patterson's 400-disk farm:
//! "SCSI timeouts and parity errors make up 49% of all errors; when network
//! errors are removed, this figure rises to 87% of all error instances ...
//! a timeout or parity error occurs roughly two times per day on average.
//! These errors often lead to SCSI bus resets, affecting the performance of
//! all disks on the degraded SCSI chain."
//!
//! [`ScsiChain`] owns a set of disks, generates an error process calibrated
//! to those ratios, and applies bus resets to *every* disk on the chain —
//! the signature fail-stutter behaviour where one component's fault
//! degrades its healthy neighbours.

use simcore::dist::{Distribution, Exponential, WeightedIndex};
use simcore::resource::Grant;
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};

use crate::disk::{Disk, DiskError};

/// Error categories observed in a storage farm, per Talagala & Patterson.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// SCSI command timeout (leads to a bus reset).
    ScsiTimeout,
    /// SCSI parity error (leads to a bus reset).
    ScsiParity,
    /// Network error (no effect on the chain; kept for census fidelity).
    Network,
    /// Other disk error (no bus reset).
    Other,
}

/// One error instance on the chain's timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorEvent {
    /// When it occurred.
    pub at: SimTime,
    /// What it was.
    pub kind: ErrorKind,
}

/// A census of errors by category.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ErrorCensus {
    /// SCSI timeouts.
    pub scsi_timeout: u64,
    /// SCSI parity errors.
    pub scsi_parity: u64,
    /// Network errors.
    pub network: u64,
    /// Everything else.
    pub other: u64,
}

impl ErrorCensus {
    /// Total errors.
    pub fn total(&self) -> u64 {
        self.scsi_timeout + self.scsi_parity + self.network + self.other
    }

    /// Fraction of all errors that are SCSI timeouts or parity errors
    /// (the paper reports 49%).
    pub fn scsi_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.scsi_timeout + self.scsi_parity) as f64 / self.total() as f64
    }

    /// The same fraction with network errors removed (the paper reports
    /// 87%).
    pub fn scsi_fraction_excluding_network(&self) -> f64 {
        let non_net = self.total() - self.network;
        if non_net == 0 {
            return 0.0;
        }
        (self.scsi_timeout + self.scsi_parity) as f64 / non_net as f64
    }
}

/// Configuration of the chain's error process.
#[derive(Clone, Copy, Debug)]
pub struct ErrorProcess {
    /// Mean time between SCSI timeout-or-parity events (the paper's farm:
    /// roughly two per day).
    pub scsi_mtbe: SimDuration,
    /// Duration of a bus reset (all disks stall).
    pub reset_duration: SimDuration,
}

impl Default for ErrorProcess {
    fn default() -> Self {
        ErrorProcess {
            scsi_mtbe: SimDuration::from_secs(43_200), // two per day
            reset_duration: SimDuration::from_secs(2),
        }
    }
}

/// A SCSI chain: disks sharing a bus, plus an error process.
#[derive(Clone, Debug)]
pub struct ScsiChain {
    disks: Vec<Disk>,
    errors: Vec<ErrorEvent>,
    applied: usize,
    census: ErrorCensus,
    reset_duration: SimDuration,
    resets_applied: u64,
}

impl ScsiChain {
    /// Builds a chain over `disks`, pre-generating its error timeline for
    /// `horizon`. The category mix is calibrated to the paper's 49% / 87%
    /// figures: timeouts+parity 49%, network 43.7%, other 7.3%.
    pub fn new(
        disks: Vec<Disk>,
        process: ErrorProcess,
        horizon: SimDuration,
        rng: &mut Stream,
    ) -> Self {
        assert!(!disks.is_empty(), "a chain needs at least one disk");
        // Weights chosen so scsi/(all) = 0.49 and scsi/(all - network) = 0.87.
        const W_SCSI: f64 = 0.49;
        const W_NETWORK: f64 = 1.0 - W_SCSI / 0.87;
        const W_OTHER: f64 = 1.0 - W_SCSI - W_NETWORK;
        // Split timeouts-vs-parity 60/40 (the paper does not separate them).
        let weights = WeightedIndex::new(&[W_SCSI * 0.6, W_SCSI * 0.4, W_NETWORK, W_OTHER]);
        // The SCSI MTBE covers only the timeout+parity share, so the
        // all-category arrival rate is scaled up accordingly.
        let mean_any = process.scsi_mtbe.as_secs_f64() * W_SCSI;
        let inter = Exponential::with_mean(mean_any);

        let mut errors = Vec::new();
        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + horizon;
        loop {
            t += SimDuration::from_secs_f64(inter.sample(rng));
            if t >= end {
                break;
            }
            let kind = match weights.sample(rng) {
                0 => ErrorKind::ScsiTimeout,
                1 => ErrorKind::ScsiParity,
                2 => ErrorKind::Network,
                _ => ErrorKind::Other,
            };
            errors.push(ErrorEvent { at: t, kind });
        }

        ScsiChain {
            disks,
            errors,
            applied: 0,
            census: ErrorCensus::default(),
            reset_duration: process.reset_duration,
            resets_applied: 0,
        }
    }

    /// Applies every error at or before `now`: SCSI timeouts and parity
    /// errors reset the bus, stalling all disks.
    fn advance(&mut self, now: SimTime) {
        while let Some(&e) = self.errors.get(self.applied) {
            if e.at > now {
                break;
            }
            self.applied += 1;
            match e.kind {
                ErrorKind::ScsiTimeout => self.census.scsi_timeout += 1,
                ErrorKind::ScsiParity => self.census.scsi_parity += 1,
                ErrorKind::Network => self.census.network += 1,
                ErrorKind::Other => self.census.other += 1,
            }
            if matches!(e.kind, ErrorKind::ScsiTimeout | ErrorKind::ScsiParity) {
                let until = e.at + self.reset_duration;
                for d in &mut self.disks {
                    d.block_until(until);
                }
                self.resets_applied += 1;
            }
        }
    }

    /// Reads from disk `idx` through the chain.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn read(
        &mut self,
        now: SimTime,
        idx: usize,
        lba: u64,
        nblocks: u64,
    ) -> Result<Grant, DiskError> {
        self.advance(now);
        self.disks[idx].read(now, lba, nblocks)
    }

    /// Writes to disk `idx` through the chain.
    pub fn write(
        &mut self,
        now: SimTime,
        idx: usize,
        lba: u64,
        nblocks: u64,
    ) -> Result<Grant, DiskError> {
        self.advance(now);
        self.disks[idx].write(now, lba, nblocks)
    }

    /// Number of disks on the chain.
    pub fn len(&self) -> usize {
        self.disks.len()
    }

    /// True if the chain has no disks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.disks.is_empty()
    }

    /// The error census for all errors whose time has been reached.
    pub fn census(&self) -> ErrorCensus {
        self.census
    }

    /// The full pre-generated error timeline (for experiment reporting).
    pub fn error_timeline(&self) -> &[ErrorEvent] {
        &self.errors
    }

    /// How many bus resets have been applied.
    pub fn resets_applied(&self) -> u64 {
        self.resets_applied
    }

    /// Census over the entire pre-generated horizon, regardless of how far
    /// the chain has been driven.
    pub fn full_horizon_census(&self) -> ErrorCensus {
        let mut c = ErrorCensus::default();
        for e in &self.errors {
            match e.kind {
                ErrorKind::ScsiTimeout => c.scsi_timeout += 1,
                ErrorKind::ScsiParity => c.scsi_parity += 1,
                ErrorKind::Network => c.network += 1,
                ErrorKind::Other => c.other += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Geometry;

    fn chain(n_disks: usize, horizon_days: u64, seed: u64) -> ScsiChain {
        let rng = Stream::from_seed(seed);
        let disks = (0..n_disks)
            .map(|i| Disk::new(Geometry::hawk_5400(), rng.derive(&format!("disk-{i}"))))
            .collect();
        ScsiChain::new(
            disks,
            ErrorProcess::default(),
            SimDuration::from_secs(horizon_days * 86_400),
            &mut rng.derive("scsi-unit.errors"),
        )
    }

    #[test]
    fn error_mix_matches_paper_ratios() {
        // Six months, as in the study.
        let c = chain(8, 180, 1).full_horizon_census();
        assert!(c.total() > 400, "six months should produce hundreds of errors");
        let f = c.scsi_fraction();
        assert!((f - 0.49).abs() < 0.06, "scsi fraction {f}");
        let f_ex = c.scsi_fraction_excluding_network();
        assert!((f_ex - 0.87).abs() < 0.06, "non-network scsi fraction {f_ex}");
    }

    #[test]
    fn scsi_rate_is_about_two_per_day() {
        let c = chain(8, 180, 2).full_horizon_census();
        let per_day = (c.scsi_timeout + c.scsi_parity) as f64 / 180.0;
        assert!((per_day - 2.0).abs() < 0.5, "per-day {per_day}");
    }

    #[test]
    fn bus_reset_stalls_every_disk() {
        let mut ch = chain(4, 180, 3);
        // Find the first reset-causing error and issue IO just after it on
        // a *different* disk than any IO so far.
        let first_reset = ch
            .error_timeline()
            .iter()
            .find(|e| matches!(e.kind, ErrorKind::ScsiTimeout | ErrorKind::ScsiParity))
            .copied()
            .expect("180 days must contain a reset");
        let t = first_reset.at + SimDuration::from_millis(1);
        for idx in 0..4 {
            let g = ch.read(t, idx, 0, 64).expect("ok");
            assert!(
                g.start >= first_reset.at + SimDuration::from_secs(2),
                "disk {idx} should stall through the reset: {g:?}"
            );
        }
        assert!(ch.resets_applied() >= 1);
    }

    #[test]
    fn census_advances_with_time() {
        let mut ch = chain(2, 180, 4);
        assert_eq!(ch.census().total(), 0);
        let _ = ch.read(SimTime::from_secs(30 * 86_400), 0, 0, 8);
        let after_month = ch.census().total();
        assert!(after_month > 0, "a month of errors should have been applied");
        assert!(after_month < ch.full_horizon_census().total());
    }

    #[test]
    fn determinism_across_identical_seeds() {
        let a = chain(4, 30, 9).full_horizon_census();
        let b = chain(4, 30, 9).full_horizon_census();
        assert_eq!(a, b);
    }
}
