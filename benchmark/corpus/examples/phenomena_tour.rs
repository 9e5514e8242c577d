//! A tour of the §2 fault catalog.
//!
//! Generates an hour-long timeline for every phenomenon the paper's survey
//! documents, prints each one's performance signature, and shows what the
//! same EWMA detector + notification registry make of it — which faults are
//! transient noise and which get exported as persistent performance state.
//!
//! Run with: `cargo run --release --example phenomena_tour`

use fail_stutter::simcore::prelude::*;
use fail_stutter::stutter::catalog;
use fail_stutter::stutter::prelude::*;

fn main() {
    let horizon = SimDuration::from_secs(3600);
    let rng = Stream::from_seed(2001);
    println!(
        "{:<34} {:>9} {:>9} {:>11} {:>9}",
        "phenomenon", "mean", "worst", "exports", "suppressed"
    );
    println!("{}", "-".repeat(78));
    for (i, (name, injector)) in catalog::all().into_iter().enumerate() {
        let profile = injector.timeline(horizon, &mut rng.derive(name));
        let mean = profile.mean_multiplier(horizon);
        let worst = (0..3600)
            .map(|s| profile.multiplier_at(SimTime::from_secs(s)))
            .min_by(f64::total_cmp)
            .unwrap_or(f64::INFINITY);

        // Watch it the fail-stutter way.
        let mut detector = EwmaDetector::new(PerfSpec::constant(1.0), 0.2);
        let mut registry = Registry::new(SimDuration::from_secs(60));
        for s in 0..3600 {
            let now = SimTime::from_secs(s);
            let verdict = detector.observe(profile.multiplier_at(now));
            registry.report(ComponentId(i as u32), now, verdict);
        }
        println!(
            "{:<34} {:>8.1}% {:>8.1}% {:>11} {:>9}",
            name,
            mean * 100.0,
            worst * 100.0,
            registry.notifications().len(),
            registry.suppressed(),
        );
    }
    println!(
        "\nPersistent faults are exported once; transient stutter is suppressed\n\
         (the paper's notification rule). Means and worsts are fractions of the\n\
         component's performance specification."
    );
}
