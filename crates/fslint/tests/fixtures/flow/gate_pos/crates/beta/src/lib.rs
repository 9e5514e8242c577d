//! Flow fixture: a clock-reading `Vm::load` whose name collides with the
//! std atomic `load`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// A virtual machine whose `load` reads the host clock.
pub struct Vm;

impl Vm {
    /// Host nanoseconds since an arbitrary instant.
    pub fn load(&self) -> u64 {
        std::time::Instant::now().elapsed().as_nanos() as u64
    }
}
