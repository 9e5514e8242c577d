//! Effect fixture, oracle half (clean case): the verdict reads the
//! timeline through `rate_at`, whose cursor is a fresh temporary. The
//! call also passes the oracle's own by-value parameter, which carries no
//! mutable borrow, so the cursor write does not reach the verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
/// Judges the timeline's rate at `at`.
pub fn check(line: &simcore::Timeline, at: usize) -> bool {
    line.rate_at(at) > 0
}
