//! Resource interference: memory hogs and CPU hogs.
//!
//! Paper §2.2.2: "the response time of the interactive job is shown to be
//! up to 40 times worse when competing with a memory-intensive process for
//! memory resources" (Brown & Mowry), and "a node with excess CPU load
//! reduces global sorting performance by a factor of two" (NOW-Sort).
//!
//! [`Machine`] models a node with physical memory and a proportional-share
//! CPU. An interactive job's response time explodes when a hog's resident
//! set evicts its working set (each interaction must page back in through
//! the disk); a CPU hog halves the share a batch job receives.

use simcore::time::SimDuration;

/// A process's resource demand.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Demand {
    /// Resident-set demand in bytes.
    pub memory: u64,
    /// CPU shares requested (1.0 = one full CPU's worth of runnable work).
    pub cpu: f64,
}

/// A node with finite memory and a proportional-share CPU.
#[derive(Clone, Debug)]
pub struct Machine {
    memory: u64,
    disk_page_in: SimDuration,
    page_bytes: u64,
    hogs: Vec<Demand>,
}

impl Machine {
    /// Creates a machine with `memory` bytes of RAM and the given cost to
    /// fault one page in from disk.
    pub fn new(memory: u64, disk_page_in: SimDuration) -> Self {
        Machine { memory, disk_page_in, page_bytes: 4096, hogs: Vec::new() }
    }

    /// A 2000-vintage workstation: 256 MB RAM, 8 ms page-in.
    pub fn workstation() -> Self {
        Machine::new(256 << 20, SimDuration::from_millis(8))
    }

    /// Starts a competing process.
    pub fn add_hog(&mut self, hog: Demand) {
        self.hogs.push(hog);
    }

    /// Removes all competing processes.
    pub fn clear_hogs(&mut self) {
        self.hogs.clear();
    }

    /// Total memory demanded by hogs.
    pub fn hog_memory(&self) -> u64 {
        self.hogs.iter().map(|h| h.memory).sum()
    }

    /// Total CPU demanded by hogs.
    fn hog_cpu(&self) -> f64 {
        self.hogs.iter().map(|h| h.cpu).sum()
    }

    /// The CPU share a job demanding one share receives under
    /// proportional sharing.
    pub fn cpu_share(&self) -> f64 {
        1.0 / (1.0 + self.hog_cpu())
    }

    /// How many of a job's `working_set` bytes remain resident when it is
    /// rescheduled after the hogs have run: global replacement lets a
    /// memory hog evict everyone else.
    pub fn resident_after_hogs(&self, working_set: u64) -> u64 {
        let free_for_job = self.memory.saturating_sub(self.hog_memory());
        working_set.min(free_for_job)
    }

    /// Response time of one interaction of an interactive job: `compute`
    /// of CPU work on a `working_set`-byte footprint. Evicted pages fault
    /// back in through the disk before the interaction completes.
    pub fn interactive_response(&self, compute: SimDuration, working_set: u64) -> SimDuration {
        let resident = self.resident_after_hogs(working_set);
        let evicted_pages = (working_set - resident).div_ceil(self.page_bytes);
        let fault_cost = self.disk_page_in * evicted_pages;
        let cpu_time = compute.mul_f64(1.0 / self.cpu_share());
        cpu_time + fault_cost
    }

    /// Time for a batch job of `work` CPU-seconds under the current
    /// contention (memory pressure ignored for a streaming batch job).
    pub fn batch_time(&self, work: SimDuration) -> SimDuration {
        work.mul_f64(1.0 / self.cpu_share())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn idle_machine_gives_full_service() {
        let m = Machine::workstation();
        let r = m.interactive_response(SimDuration::from_millis(50), 64 * MB);
        assert_eq!(r, SimDuration::from_millis(50));
        assert_eq!(m.cpu_share(), 1.0);
    }

    #[test]
    fn memory_hog_blows_up_interactive_response() {
        // Brown & Mowry's up-to-40x: a 50 ms interaction on a 64 MB
        // working set, against an out-of-core hog that takes nearly all
        // of RAM.
        let mut m = Machine::workstation();
        let base = m.interactive_response(SimDuration::from_millis(50), 64 * MB);
        m.add_hog(Demand { memory: 240 * MB, cpu: 1.0 });
        let hogged = m.interactive_response(SimDuration::from_millis(50), 64 * MB);
        let blowup = hogged.as_secs_f64() / base.as_secs_f64();
        assert!(blowup > 10.0, "blowup {blowup}");
        assert!(blowup < 10_000.0, "blowup {blowup}");
    }

    #[test]
    fn partial_pressure_partial_eviction() {
        let mut m = Machine::workstation();
        m.add_hog(Demand { memory: 224 * MB, cpu: 0.0 });
        // 32 MB remain for a 64 MB working set.
        assert_eq!(m.resident_after_hogs(64 * MB), 32 * MB);
        let r = m.interactive_response(SimDuration::from_millis(10), 64 * MB);
        // 32 MB of faults at 8 ms per 4 KB page = 65.5 s.
        assert!(r > SimDuration::from_secs(60), "{r}");
    }

    #[test]
    fn cpu_hog_halves_batch_throughput() {
        let mut m = Machine::workstation();
        let base = m.batch_time(SimDuration::from_secs(100));
        m.add_hog(Demand { memory: 0, cpu: 1.0 });
        let loaded = m.batch_time(SimDuration::from_secs(100));
        assert_eq!(base, SimDuration::from_secs(100));
        assert_eq!(loaded, SimDuration::from_secs(200));
    }

    #[test]
    fn clear_hogs_restores_service() {
        let mut m = Machine::workstation();
        m.add_hog(Demand { memory: 128 * MB, cpu: 2.0 });
        m.clear_hogs();
        assert_eq!(m.cpu_share(), 1.0);
        assert_eq!(m.hog_memory(), 0);
    }

    #[test]
    fn fits_in_remaining_memory_no_faults() {
        let mut m = Machine::workstation();
        m.add_hog(Demand { memory: 128 * MB, cpu: 0.0 });
        let r = m.interactive_response(SimDuration::from_millis(20), 64 * MB);
        assert_eq!(r, SimDuration::from_millis(20));
    }
}
