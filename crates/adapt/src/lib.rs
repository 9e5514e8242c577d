//! # adapt — adaptive algorithms for fail-stutter tolerance
//!
//! The mechanisms §3–§4 of *"Fail-Stutter Fault Tolerance"* call for, and
//! the related-work baselines the paper compares against:
//!
//! * [`queue`] — push (static partition) vs pull (River-style distributed
//!   queue) work distribution over consumers with time-varying rates.
//! * [`hedge`] — Shasha–Turek duplicate issue under slow-down failures,
//!   with reconciliation so side effects commit exactly once.
//! * [`avail`] — availability as Gray & Reuter define it: the fraction of
//!   offered load processed with acceptable response times.
//!
//! TCP-style AIMD, the paper's other §4 adaptation, lives beside the
//! network it adapts to, in `netsim::adaptive_transfer` (E10).
//!
//! # Examples
//!
//! ```
//! use adapt::queue::{distribute, Strategy};
//! use simcore::resource::RateProfile;
//! use simcore::time::SimTime;
//!
//! // Four consumers, one at a third of the speed.
//! let rates: Vec<RateProfile> = [10.0, 10.0, 10.0, 10.0 / 3.0]
//!     .iter().map(|&r| RateProfile::constant(r)).collect();
//! let push = distribute(Strategy::Push, &rates, 400, 1.0, SimTime::ZERO).unwrap();
//! let pull = distribute(Strategy::Pull, &rates, 400, 1.0, SimTime::ZERO).unwrap();
//! assert!(pull.makespan < push.makespan); // the distributed queue wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod avail;
pub mod hedge;
pub mod oracle;
pub mod queue;
pub mod river;
pub mod txn;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::avail::AvailabilityMeter;
    pub use crate::hedge::{run_hedged, HedgeConfig, HedgeOutcome, TaskOutcome};
    pub use crate::queue::{distribute, DistributeOutcome, QueueError, Strategy};
    pub use crate::river::{run_decluster, DeclusterOutcome, DeclusterPolicy};
    pub use crate::txn::{run_transactions, Executor, Txn, TxnBatchOutcome, TxnOutcome};
}
