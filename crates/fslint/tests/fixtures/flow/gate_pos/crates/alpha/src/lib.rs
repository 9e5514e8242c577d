//! Flow fixture, positive: `gate_neg`'s fold over a `Vm` — naming the
//! type makes beta's tainted `Vm::load` the callee.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use beta::Vm;

/// A stand-in FNV-1a accumulator.
pub struct Fnv64(u64);

impl Fnv64 {
    /// Folds one word into the digest.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
    }
}

/// Folds the machine's clock-derived load.
pub fn fold(vm: &Vm) -> u64 {
    let mut h = Fnv64(0xcbf2_9ce4_8422_2325);
    h.write_u64(vm.load());
    h.0
}
