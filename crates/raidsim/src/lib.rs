//! # raidsim — the §3.2 storage example
//!
//! The worked example of *"Fail-Stutter Fault Tolerance"*: write `D` blocks
//! to `2·N` disks in RAID-10, under three designs of increasing realism
//! about performance faults.
//!
//! * [`vdisk`] — fluid disks with fail-stutter timelines and RAID-1
//!   mirror-pair rate semantics.
//! * [`controller`] — the three striping controllers: equal-static
//!   (scenario 1, throughput `N·b`), proportional-static (scenario 2,
//!   `(N−1)·B + b`), and adaptive chunk-pulling with a block map
//!   (scenario 3, ≈ full available bandwidth).
//! * [`model`] — the paper's closed-form predictions, which [`oracle`]
//!   turns into tolerance-banded checks.
//! * [`mech`] — the same three designs over mechanical disks.
//! * [`wind`] — a WiND-style self-managing array (§5): monitoring, failure
//!   prediction, and reconstruction to a hot spare, which is itself a
//!   stutter source while it runs.
//!
//! # Examples
//!
//! ```
//! use raidsim::prelude::*;
//! use simcore::prelude::*;
//! use stutter::prelude::*;
//!
//! // N = 4 pairs at 10 MB/s; one pair stutters at 50%.
//! let slow = Injector::StaticSlowdown { factor: 0.5 }
//!     .timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(1));
//! let mut pairs: Vec<MirrorPair> =
//!     (0..4).map(|_| MirrorPair::healthy(10e6)).collect();
//! pairs[0] = MirrorPair::new(VDisk::new(10e6).with_profile(slow), VDisk::new(10e6));
//! let array = Raid10::new(pairs, SimDuration::from_secs(3600));
//!
//! let w = Workload::new(65_536, 65_536); // 4 GB
//! let s1 = array.write_static(w, SimTime::ZERO).unwrap();
//! let s3 = array.write_adaptive(w, SimTime::ZERO, 64).unwrap();
//! assert!(s3.throughput > 1.5 * s1.throughput); // adaptive wins
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod mech;
pub mod model;
pub mod oracle;
pub mod vdisk;
pub mod wind;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::controller::{MapEntry, Raid10, RaidError, Workload, WriteOutcome};
    pub use crate::mech::{MechPair, MechRaid10};
    pub use crate::model::{
        scenario1_throughput, scenario1_waste, scenario2_throughput, scenario3_throughput,
    };
    pub use crate::oracle::{Band, Violation};
    pub use crate::vdisk::{MirrorPair, VDisk};
    pub use crate::wind::{run_wind, Management, WindEvent, WindOutcome};
}
