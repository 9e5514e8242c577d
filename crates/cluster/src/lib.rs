//! # cluster — cluster nodes and parallel workloads
//!
//! The application-level workloads whose sensitivity to one slow component
//! motivates *"Fail-Stutter Fault Tolerance"*:
//!
//! * [`node`] — cluster nodes with CPU and disk rates under fail-stutter
//!   timelines.
//! * [`sort`] — a NOW-Sort-style barrier-synchronised parallel sort: one
//!   CPU-hogged node halves global performance; adaptive record placement
//!   absorbs it.
//! * [`dds`] — a replicated hash table whose garbage-collecting replica
//!   stalls mirrored updates and then over-saturates (the Gribble et al.
//!   observation).
//!
//! # Examples
//!
//! ```
//! use cluster::prelude::*;
//! use simcore::prelude::*;
//!
//! let nodes: Vec<Node> = (0..4).map(|_| Node::new(1e6, 10e6)).collect();
//! let out = run_sort(&nodes, SortJob::minute_sort(4_000_000), Placement::Static, SimTime::ZERO);
//! assert_eq!(out.total, SimDuration::from_secs(21));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dds;
pub mod node;
pub mod service;
pub mod sort;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::dds::{run_dds, DdsOutcome};
    pub use crate::node::Node;
    pub use crate::service::{run_service, Partition, ResponsePolicy, ServiceOutcome};
    pub use crate::sort::{run_sort, Placement, SortJob, SortOutcome};
}
