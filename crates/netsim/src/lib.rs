//! # netsim — the network substrate
//!
//! Link, switch and fabric models reproducing the network phenomena of
//! §2.1.3 of *"Fail-Stutter Fault Tolerance"*:
//!
//! * [`link`] — serialising links carrying fail-stutter timelines.
//! * [`mesh`] — a full mesh of directed links (the carrier a control
//!   plane gossips over).
//! * [`switch`] — an output-queued switch whose arbitration can be unfair
//!   under load (the Myrinet route-preference observation).
//! * [`wormhole`] — wormhole routing with a deadlock watchdog whose
//!   recovery halts all traffic for seconds (the Myrinet deadlock).
//! * [`transpose`] — an all-to-all transpose through a finite shared
//!   buffer, where one slow receiver congests everyone (the CM-5 flow
//!   control collapse).
//!
//! # Examples
//!
//! ```
//! use netsim::transpose::{healthy_baseline, run_transpose, NODES};
//!
//! let healthy = healthy_baseline();
//! let mut mult = vec![1.0; NODES];
//! mult[0] = 1.0 / 3.0; // one receiver at a third of its speed
//! let degraded = run_transpose(&mult);
//! let slowdown = degraded.elapsed.as_secs_f64() / healthy.elapsed.as_secs_f64();
//! assert!(slowdown > 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive_transfer;
pub mod link;
pub mod mesh;
pub mod multicast;
pub mod switch;
pub mod transpose;
pub mod wormhole;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::adaptive_transfer::{run_adaptive_transfer, PortArbitration, TransferOutcome};
    pub use crate::link::{Delivery, Link};
    pub use crate::mesh::Mesh;
    pub use crate::multicast::{run_multicast, McastOutcome, McastProtocol};
    pub use crate::switch::{Arbitration, Forwarded, Packet, Switch};
    pub use crate::transpose::{
        barrier_transpose_time, healthy_baseline, run_transpose, TransposeResult,
    };
    pub use crate::wormhole::{MessageOutcome, WormholeFabric};
}
