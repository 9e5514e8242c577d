//! Unit fixture, caller half: the millis helper is imported with `use`
//! and called unqualified, so only the import resolves the call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod util;

use crate::util::deadline;

/// Compares a deadline in millis against a limit in seconds.
pub fn expired(limit_secs: u64) -> bool {
    deadline(3) > limit_secs
}
