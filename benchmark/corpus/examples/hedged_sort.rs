//! Surviving stragglers: a parallel sort and a hedged task batch.
//!
//! Part 1 reruns the NOW-Sort experience: a barrier-synchronised parallel
//! sort where one node is half-hogged doubles its end-to-end time; the
//! adaptive placement absorbs it.
//!
//! Part 2 runs the Shasha–Turek move on a task batch: duplicate any task
//! that misses its hedge deadline onto another worker and reconcile the
//! winners, bounding the tail at a measured replication cost.
//!
//! Run with: `cargo run --example hedged_sort`

use fail_stutter::adapt::prelude::*;
use fail_stutter::cluster::prelude::*;
use fail_stutter::simcore::prelude::*;
use fail_stutter::simcore::resource::RateProfile;
use fail_stutter::stutter::prelude::*;

fn main() {
    // --- Part 1: the sort ---------------------------------------------
    let job = SortJob::minute_sort(8_000_000);
    let clean: Vec<Node> = (0..8).map(|_| Node::new(1e6, 10e6)).collect();
    let hog = Injector::StaticSlowdown { factor: 0.5 }
        .timeline(SimDuration::from_secs(3600), &mut Stream::from_seed(7));
    let mut hogged = clean.clone();
    hogged[3] = Node::new(1e6, 10e6).with_cpu_profile(hog.clone()).with_disk_profile(hog);

    let dedicated = run_sort(&clean, job, Placement::Static, SimTime::ZERO);
    let perturbed = run_sort(&hogged, job, Placement::Static, SimTime::ZERO);
    let adaptive = run_sort(&hogged, job, Placement::Adaptive, SimTime::ZERO);

    println!("Parallel sort, 8M records over 8 nodes (node 3 half-hogged):\n");
    println!("  dedicated cluster, static placement:  {:6.1} s", dedicated.total.as_secs_f64());
    println!(
        "  hogged cluster,    static placement:  {:6.1} s  ({:.2}x — the paper's factor of two)",
        perturbed.total.as_secs_f64(),
        perturbed.total.as_secs_f64() / dedicated.total.as_secs_f64()
    );
    println!(
        "  hogged cluster,    adaptive placement: {:5.1} s  (node 3 got {} of {} records)",
        adaptive.total.as_secs_f64(),
        adaptive.per_node[3],
        job.records
    );

    // --- Part 2: hedged tasks ------------------------------------------
    let mut speeds = [1.0; 16];
    speeds[7] = 0.02; // one worker at 2% — a severe slow-down failure
    let rates: Vec<RateProfile> = speeds.iter().map(|&s| RateProfile::constant(s)).collect();

    let blocking = run_hedged(&rates, 64, 1.0, HedgeConfig { hedge_after: None }, SimTime::ZERO)
        .expect("all workers alive");
    let hedged = run_hedged(
        &rates,
        64,
        1.0,
        HedgeConfig { hedge_after: Some(SimDuration::from_secs(2)) },
        SimTime::ZERO,
    )
    .expect("all workers alive");

    println!("\n64 unit tasks over 16 workers, worker 7 at 2% speed:\n");
    println!(
        "  blocking:  worst latency {:6.1} s, no wasted work",
        blocking.worst_latency().as_secs_f64()
    );
    println!(
        "  hedged@2s: worst latency {:6.1} s, {:.1}% of work discarded by reconciliation, \
         {} duplicate commits suppressed",
        hedged.worst_latency().as_secs_f64(),
        100.0 * hedged.work_wasted / hedged.work_spent,
        hedged.reconciled
    );
}
