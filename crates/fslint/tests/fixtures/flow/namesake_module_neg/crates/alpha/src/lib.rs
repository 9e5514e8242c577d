//! Flow fixture, clock half: a `clock` module whose `now_nanos` reads the
//! host clock.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod clock;
