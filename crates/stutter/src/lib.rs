//! # stutter — the fail-stutter fault model
//!
//! This crate implements the contribution of *"Fail-Stutter Fault
//! Tolerance"* (Arpaci-Dusseau & Arpaci-Dusseau, HotOS VIII, 2001): a fault
//! model between fail-stop (too optimistic: components either work
//! perfectly or stop detectably) and Byzantine (too general to design
//! against). Under fail-stutter, a component may *also* be
//! **performance-faulty**: correct, but slower than its performance
//! specification.
//!
//! The pieces, mapped to the paper's §3.1:
//!
//! * [`fault`] — the taxonomy: correctness vs performance faults, and the
//!   three-valued [`fault::HealthState`].
//! * [`spec`] — performance specifications at three fidelities; the
//!   designer's trade-off between simple specs and frequent "faults".
//! * [`component`] — the component itself: a nominal rate under a fault
//!   timeline.
//! * [`injector`] — generators for every performance-fault phenomenon class
//!   surveyed in the paper's §2 (fault masking, blackouts, erratic stutter,
//!   interference episodes, wear-out), composable and deterministic, and
//!   the one rule for serving a FIFO queue under such a timeline
//!   ([`injector::SlowdownProfile::serve`]).
//! * [`detect`] — online detectors, including the paper's threshold rule
//!   `T` that separates "very slow" from "absolutely failed".
//! * [`registry`] — the notification rule: only *persistent* performance
//!   faults are exported as component "performance state".
//! * [`predict`] — erratic performance as an early indicator of impending
//!   absolute failure (§3.3 reliability claim).
//!
//! # Examples
//!
//! ```
//! use simcore::prelude::*;
//! use stutter::prelude::*;
//!
//! // A disk specified at 10 MB/s that develops a persistent 50% stutter.
//! let spec = PerfSpec::constant(10.0);
//! let injector = Injector::StaticSlowdown { factor: 0.5 };
//! let mut rng = Stream::from_seed(1).derive("disk");
//! let profile = injector.timeline(SimDuration::from_secs(3600), &mut rng);
//!
//! let mut detector = EwmaDetector::new(spec, 0.3);
//! let mut registry = Registry::new(SimDuration::from_secs(30));
//! let mut published = None;
//! for s in 0..120 {
//!     let now = SimTime::from_secs(s);
//!     let observed = 10.0 * profile.multiplier_at(now);
//!     let verdict = detector.observe(observed);
//!     if let Some(n) = registry.report(ComponentId(0), now, verdict) {
//!         published = Some(n);
//!     }
//! }
//! let n = published.expect("persistent stutter must be exported");
//! assert!(matches!(n.state, HealthState::PerfFaulty { .. }));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod component;
pub mod detect;
pub mod fault;
pub mod injector;
pub mod oracle;
pub mod predict;
pub mod registry;
pub mod spec;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::component::Component;
    pub use crate::detect::{EwmaDetector, PeerRelativeDetector, ThresholdDetector};
    pub use crate::fault::{ComponentId, HealthState};
    pub use crate::injector::{DurationDist, FactorDist, Injector, SlowdownProfile};
    pub use crate::oracle::{check_export_agreement, predict_export, ExportPrediction};
    pub use crate::predict::{FailurePredictor, Prediction, PredictorConfig, Trend};
    pub use crate::registry::{Notification, Registry};
    pub use crate::spec::PerfSpec;
}
