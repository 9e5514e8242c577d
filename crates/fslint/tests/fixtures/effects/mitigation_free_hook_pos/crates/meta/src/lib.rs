//! Effect fixture, server half: the state a mitigation policy must act
//! on through returned decisions, never by direct mutation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod policy;

/// The simulated server a policy advises.
pub struct Server {
    /// Requests waiting for service.
    pub queue: Vec<u64>,
}
