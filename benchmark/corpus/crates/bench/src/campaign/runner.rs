//! Sharded campaign execution.
//!
//! Scenarios are claimed work-stealing style off an atomic cursor by a
//! fixed pool of `std::thread` workers. Determinism does not depend on the
//! schedule: each scenario's result is a pure function of (scenario,
//! config), and results are reassembled in enumeration order before any
//! digest is taken.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use super::scenario::{run_scenario, Scenario, ScenarioResult};
use super::CampaignConfig;

/// Runs every scenario across `cfg.threads` workers; results come back in
/// enumeration (id) order regardless of which worker ran what.
pub fn run_all(scenarios: &[Scenario], cfg: &CampaignConfig) -> Vec<ScenarioResult> {
    let threads = cfg.threads.max(1);
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ScenarioResult>>> =
        scenarios.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(sc) = scenarios.get(i) else { break };
                let result = run_scenario(sc, cfg);
                // Poison is recovered, not propagated: the slot is only
                // ever assigned, so a poisoned lock still holds a sound
                // (possibly None) value.
                *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                // fslint: allow(panic-path) — thread::scope propagates worker panics, so reaching here means every worker completed and filled its slot
                .expect("worker pool exited before finishing every scenario")
        })
        .collect()
}
