//! # simcore — deterministic discrete-event simulation kernel
//!
//! The substrate under every experiment in the fail-stutter workspace:
//! a virtual clock ([`time`]), a seed-tree deterministic RNG ([`rng`]),
//! workload distributions ([`dist`]), a typed `(time, seq)` event queue
//! ([`sim`]), timeline queueing/rate resources ([`resource`]) and
//! measurement ([`stats`]).
//!
//! Design rules:
//!
//! * **Integer time.** All instants are nanoseconds in [`time::SimTime`];
//!   event order never depends on floating-point rounding.
//! * **Seed trees, not shared RNGs.** Components derive private streams by
//!   label ([`rng::Stream::derive`]) so adding a component never perturbs
//!   the randomness observed by another.
//! * **Calculational device models where possible.** Most hardware models
//!   answer "when does this request finish?" with the pure primitives in
//!   [`resource`]. Only message-driven models need [`sim::EventQueue`]:
//!   the gossip performance plane pops its observe, refresh, gossip and
//!   delivery events from one, in its own dispatch loop.
//!
//! # Examples
//!
//! ```
//! use simcore::prelude::*;
//!
//! // A one-server queue fed by Poisson arrivals, measured by histogram.
//! let mut rng = Stream::from_seed(1).derive("arrivals");
//! let inter = Exponential::with_mean(0.01); // 100 req/s
//! let mut server = FcfsServer::new();
//! let mut lat = Histogram::new();
//! let mut t = SimTime::ZERO;
//! for _ in 0..1000 {
//!     t += SimDuration::from_secs_f64(inter.sample(&mut rng));
//!     let grant = server.serve(t, SimDuration::from_millis(5));
//!     lat.record(grant.latency_from(t).as_secs_f64() * 1e3);
//! }
//! assert!(lat.quantile(0.5) >= 5.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod resource;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;

/// Convenience re-exports of the items nearly every model needs.
pub mod prelude {
    pub use crate::dist::{
        Distribution, Exponential, LogNormal, Normal, Pareto, TwoPoint, Uniform, Weibull,
        WeightedIndex,
    };
    pub use crate::resource::{FcfsServer, Grant, RateProfile};
    pub use crate::rng::Stream;
    pub use crate::sim::EventQueue;
    pub use crate::stats::{Ewma, Histogram, Series};
    pub use crate::time::{SimDuration, SimTime};
}
