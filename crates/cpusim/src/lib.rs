//! # cpusim — the processor and memory substrate
//!
//! Models of the CPU-side phenomena surveyed in §2.1.1 and §2.2 of
//! *"Fail-Stutter Fault Tolerance"*:
//!
//! * [`cache`] — a set-associative cache with maskable ways: the Viking
//!   parts sold as 16 KB/4-way that behaved as 4 KB direct-mapped, with
//!   application spreads up to 40%.
//! * [`tlb`] — nondeterministic TLB replacement (Bressoud–Schneider).
//! * [`vm`] — page mapping vs page colouring (Chen–Bershad's up-to-50%).
//! * [`hog`] — memory hogs (up-to-40× interactive blowup) and CPU hogs
//!   (NOW-Sort's factor of two).
//! * [`nonmono`] — fetch-predictor aliasing: identical code up to 3×
//!   slower depending on load address (Kushman's UltraSPARC study).
//! * [`vector`] — scalar–vector memory-bank interference (factor of two).
//!
//! # Examples
//!
//! ```
//! use cpusim::cache::{Cache, CacheConfig, run_working_set};
//!
//! // Two "identical" processors: one fault-masked down to a quarter of
//! // its cache.
//! let mut spec = Cache::new(CacheConfig::viking_spec());
//! let mut masked = Cache::new(CacheConfig::viking_spec());
//! masked.mask_ways(1);
//! let s = run_working_set(&mut spec, 8 * 1024, 32, 8);
//! let m = run_working_set(&mut masked, 8 * 1024, 32, 8);
//! assert!(m.miss_ratio() > s.miss_ratio());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod hog;
pub mod nonmono;
pub mod tlb;
pub mod vector;
pub mod vm;

/// Convenience re-exports.
pub mod prelude {
    pub use crate::cache::{run_time_cycles, run_working_set, Cache, CacheConfig, CacheStats};
    pub use crate::hog::{Demand, Machine};
    pub use crate::nonmono::{alignment_spread, run_snippet, FetchUnit, Snippet};
    pub use crate::tlb::{divergence, Tlb};
    pub use crate::vector::{run_stream, BankedMemory, StreamResult};
    pub use crate::vm::{mapping_comparison, Allocation, VmMachine};
}
