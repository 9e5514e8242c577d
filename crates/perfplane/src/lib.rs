//! # perfplane — the cluster-wide performance-state plane
//!
//! Paper §3.1: "if a component is persistently performance-faulty, it may
//! be useful for a system to export information about component
//! 'performance state', allowing agents within the system to readily learn
//! of and react to these performance-faulty constituents." Inside one
//! process that is [`stutter::registry::Registry`]; across a cluster the
//! state has to *travel*, over a network that is itself a fail-stutter
//! component, and consumers have to act on possibly-stale views.
//!
//! This crate is that missing distribution layer:
//!
//! * [`entry`] — versioned per-component [`stutter::fault::HealthState`]
//!   entries with monotone per-origin sequence numbers and fail-stop
//!   tombstones, plus the single-writer merge rule.
//! * [`gossip`] — a push-pull anti-entropy protocol with fanout `k`,
//!   running on [`simcore`] events and carrying digests over
//!   [`netsim::mesh::Mesh`] links, so the plane's own carrier can be
//!   slowed, black-holed, or partitioned by [`stutter`] injectors.
//! * [`view`] — the [`view::StalenessView`] consumers query: state + age +
//!   confidence, with a decay rule that demotes stale `PerfFaulty`/`Ok`
//!   entries toward [`view::PlaneState::Unknown`] instead of trusting them
//!   forever (tombstones never decay — fail-stop is permanent).
//! * [`oracle`] — eventual-convergence, no-false-fail-stop,
//!   monotone-staleness, and plane-degraded checks for the campaign
//!   harness.
//!
//! # Example
//!
//! ```
//! use perfplane::prelude::*;
//! use simcore::prelude::*;
//!
//! // Four nodes, each observing its own disk; disk 0 drifts to 40%.
//! let mut spec = PlaneSpec::homogeneous(PlaneConfig::default(), 4, 10e6);
//! spec.components[0].profile = SlowdownProfile::from_breakpoints(vec![
//!     (SimTime::ZERO, 1.0),
//!     (SimTime::from_secs(60), 0.4),
//! ]);
//! let run = run_plane(&spec, &mut Stream::from_seed(7));
//!
//! // Every node eventually hears about the drift through gossip alone.
//! let horizon = spec.config.horizon;
//! for view in &run.views {
//!     let v = view.query(ComponentId(0), SimTime::ZERO + horizon);
//!     assert!(matches!(v.state, PlaneState::Known(HealthState::PerfFaulty { .. })));
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod entry;
pub mod gossip;
pub mod oracle;
pub mod view;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::entry::{HealthEntry, NodeId, Store};
    pub use crate::gossip::{run_plane, PlaneConfig, PlaneRun, PlaneSpec, PlaneStats};
    pub use crate::view::{PlaneState, PlaneView, StalenessView};
    pub use stutter::fault::{ComponentId, HealthState};
    pub use stutter::injector::SlowdownProfile;
}
