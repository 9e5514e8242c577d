//! # blockdev — the storage substrate
//!
//! Disk, SCSI-chain and file-system models reproducing the storage
//! phenomena surveyed in §2.1.2 and §2.2.1 of *"Fail-Stutter Fault
//! Tolerance"*:
//!
//! * [`geometry`] — zoned geometry (outer/inner bandwidth ≈ 2×) and the
//!   mechanical seek/rotate/transfer model.
//! * [`remap`] — transparent bad-block remapping, the silent tax behind the
//!   5.0-vs-5.5 MB/s Hawk observation.
//! * [`disk`] — the disk itself, carrying a fail-stutter
//!   [`stutter::injector::SlowdownProfile`] (thermal recalibration,
//!   wear-out, fail-stop).
//! * [`scsi`] — a shared bus whose timeouts and parity errors reset every
//!   disk on the chain, calibrated to the Talagala–Patterson error census.
//! * [`aging`] — extent allocation and file-system aging (fresh vs aged
//!   sequential-read spread of ~2×).
//!
//! # Examples
//!
//! ```
//! use blockdev::prelude::*;
//! use simcore::prelude::*;
//!
//! let mut disk = Disk::new(Geometry::hawk_5400(), Stream::from_seed(1));
//! let (bw, _) = measure_sequential_read(&mut disk, SimTime::ZERO, 8 << 20, 1 << 20)
//!     .expect("healthy disk");
//! assert!(bw > 5.0e6, "a healthy Hawk streams >5 MB/s, got {bw}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aging;
pub mod disk;
pub mod geometry;
pub mod remap;
pub mod scsi;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::aging::{Extent, File, FileSystem};
    pub use crate::disk::{measure_sequential_read, Disk, DiskError};
    pub use crate::geometry::Geometry;
    pub use crate::remap::RemapTable;
    pub use crate::scsi::{ErrorCensus, ErrorEvent, ErrorKind, ErrorProcess, ScsiChain};
}
