//! panic-path positive fixture: attributes that name `test` without
//! making an item test code. A `#[cfg(not(test))]` or
//! `#[cfg_attr(test, …)]` fn is built into the real binary, so an
//! unscheduled fail-stop in it is a finding like any other.

/// The entry point: its methods seed the reachability fixpoint.
pub struct Injector {
    levels: Vec<u64>,
}

impl Injector {
    /// The first level, built only outside tests.
    #[cfg(not(test))]
    pub fn first(&self) -> u64 {
        *self.levels.first().unwrap()
    }

    /// The last level; only a test build allows it to go unused.
    #[cfg_attr(test, allow(dead_code))]
    pub fn last(&self) -> u64 {
        *self.levels.last().expect("levels are never empty")
    }
}
