//! # fail-stutter — a toolkit for fail-stutter fault tolerance
//!
//! A from-scratch Rust reproduction of *"Fail-Stutter Fault Tolerance"*
//! (Remzi H. Arpaci-Dusseau and Andrea C. Arpaci-Dusseau, HotOS VIII,
//! 2001). The paper proposes a fault model between fail-stop and
//! Byzantine: components may, in addition to stopping detectably, become
//! **performance-faulty** — correct but slower than their performance
//! specification. Systems designed only for fail-stop track their slowest
//! component; systems designed for fail-stutter keep delivering the
//! bandwidth that is actually available.
//!
//! This umbrella crate re-exports the workspace:
//!
//! | Crate | Role |
//! |---|---|
//! | [`simcore`] | deterministic simulation kernel: integer time, seed-tree RNG, distributions, a `(time, seq)` event queue, timeline resources |
//! | [`stutter`] | **the fault model**: taxonomy, specs, injectors, detectors, notification, prediction |
//! | [`blockdev`] | disk substrate: zones, bad-block remapping, SCSI chains, file-system aging |
//! | [`netsim`] | network substrate: unfair switches, deadlock watchdogs, flow-control collapse, AIMD transfers |
//! | [`cpusim`] | processor substrate: masked caches, nondeterministic TLBs, hogs, predictor aliasing |
//! | [`raidsim`] | the paper's §3.2 RAID-10 example: three controller designs, the §5 WiND self-managing array |
//! | [`adapt`] | adaptive mechanisms: distributed queues, hedging, availability |
//! | [`cluster`] | parallel workloads: NOW-Sort-style sort, replicated hash table |
//! | [`perfplane`] | cluster-wide performance-state plane: gossip, staleness-aware views, oracles |
//! | [`metastable`] | closed-loop client populations: retry storms, metastable collapse, mitigation policies |
//!
//! # Quickstart
//!
//! ```
//! use fail_stutter::raidsim::prelude::*;
//! use fail_stutter::simcore::prelude::*;
//! use fail_stutter::stutter::prelude::*;
//!
//! // Four mirror pairs at 10 MB/s; one develops a 50% stutter.
//! let slow = Injector::StaticSlowdown { factor: 0.5 }
//!     .timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(1));
//! let mut pairs: Vec<MirrorPair> = (0..4).map(|_| MirrorPair::healthy(10e6)).collect();
//! pairs[0] = MirrorPair::new(VDisk::new(10e6).with_profile(slow), VDisk::new(10e6));
//! let array = Raid10::new(pairs, SimDuration::from_secs(3600));
//!
//! let w = Workload::new(65_536, 65_536);
//! let fail_stop = array.write_static(w, SimTime::ZERO).unwrap();
//! let fail_stutter = array.write_adaptive(w, SimTime::ZERO, 64).unwrap();
//! assert!(fail_stutter.throughput / fail_stop.throughput > 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use adapt;
pub use blockdev;
pub use cluster;
pub use cpusim;
pub use metastable;
pub use netsim;
pub use perfplane;
pub use raidsim;
pub use simcore;
pub use stutter;
