//! Erratic performance as an early warning (§3.3 reliability claim).
//!
//! A disk begins to wear out: its delivered bandwidth declines erratically
//! for half an hour before it fail-stops. A fail-stop system learns of the
//! failure when requests start timing out; a fail-stutter system watches
//! the performance-fault trend and raises a prediction early enough to
//! drain the disk first.
//!
//! Run with: `cargo run --example failure_prediction`

use fail_stutter::simcore::prelude::*;
use fail_stutter::stutter::prelude::*;

fn main() {
    let horizon = SimDuration::from_secs(7_200);
    let injector = Injector::Compose(vec![
        // The decline...
        Injector::Wearout {
            onset: SimTime::from_secs(1_800),
            ramp: SimDuration::from_secs(1_500),
            floor: 0.25,
            fail_after: Some(SimDuration::from_secs(600)),
        },
        // ...buried in ordinary noise.
        Injector::Stutter {
            hold: DurationDist::Exp { mean: SimDuration::from_secs(45) },
            factor: FactorDist::Uniform { lo: 0.92, hi: 1.0 },
        },
    ]);
    let profile = injector.timeline(horizon, &mut Stream::from_seed(77));
    let fail_at = profile.fail_at().expect("this disk dies");

    let mut predictor = FailurePredictor::new(PredictorConfig::default());
    let mut prediction = None;
    let mut t = SimTime::ZERO;
    println!("Sampling delivered bandwidth every 30 s (nominal 10 MB/s):\n");
    while t < fail_at {
        let fraction = profile.multiplier_at(t);
        if t.as_nanos().is_multiple_of(SimTime::from_secs(600).as_nanos()) {
            println!("  [{t}] {:5.2} MB/s", 10.0 * fraction);
        }
        if prediction.is_none() {
            if let Some(p) = predictor.observe(t, fraction) {
                println!(
                    "  [{t}] PREDICTION: level {:.0}% of spec, losing {:.0}%/window -> \
                     schedule replacement",
                    p.level * 100.0,
                    p.decline_per_window * 100.0
                );
                prediction = Some(p);
            }
        }
        t += SimDuration::from_secs(30);
    }
    println!("\n  [{fail_at}] disk fail-stops.");
    match predictor.lead_time(fail_at) {
        Some(lead) => println!(
            "\nWarning lead time: {:.0} s — enough to rebuild onto a hot spare at leisure.",
            lead.as_secs_f64()
        ),
        None => println!("\nNo early warning was raised."),
    }
}
