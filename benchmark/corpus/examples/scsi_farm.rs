//! Six months in the life of a disk farm (the Talagala–Patterson study).
//!
//! Builds an eight-disk SCSI chain, pre-generates half a year of its error
//! process, prints the error census the paper quotes (49% of all errors
//! are SCSI timeouts/parity; 87% once network errors are excluded; about
//! two per day), and then shows what one bus reset does to an innocent
//! video stream on a neighbouring disk — the fail-stutter signature of a
//! shared interconnect.
//!
//! Run with: `cargo run --release --example scsi_farm`

use fail_stutter::blockdev::prelude::*;
use fail_stutter::simcore::prelude::*;

fn main() {
    let rng = Stream::from_seed(1999);
    let days = 180u64;
    let disks: Vec<Disk> = (0..8)
        .map(|i| Disk::new(Geometry::hawk_5400(), rng.derive(&format!("disk-{i}"))))
        .collect();
    let mut chain = ScsiChain::new(
        disks,
        ErrorProcess::default(),
        SimDuration::from_secs(days * 86_400),
        &mut rng.derive("farm.errors"),
    );

    let census = chain.full_horizon_census();
    println!("Error census over {days} days (8-disk chain):\n");
    for (name, count) in [
        ("SCSI timeouts", census.scsi_timeout),
        ("SCSI parity errors", census.scsi_parity),
        ("network errors", census.network),
        ("other", census.other),
    ] {
        println!("  {name:<22} {count:>5}");
    }
    println!(
        "\n  timeouts+parity share of all errors:      {:.1}%  (paper: 49%)",
        census.scsi_fraction() * 100.0
    );
    println!(
        "  share excluding network errors:           {:.1}%  (paper: 87%)",
        census.scsi_fraction_excluding_network() * 100.0
    );
    println!(
        "  timeout/parity rate:                      {:.2}/day (paper: ~2/day)",
        (census.scsi_timeout + census.scsi_parity) as f64 / days as f64
    );

    // One reset, seen from an innocent neighbour: stream video frames off
    // disk 5 across the first reset on the chain.
    let first_reset = chain
        .error_timeline()
        .iter()
        .find(|e| matches!(e.kind, ErrorKind::ScsiTimeout | ErrorKind::ScsiParity))
        .copied()
        .expect("six months always contains a reset");
    println!(
        "\nFirst bus reset at {} ({:?}). Streaming 256 KB frames from disk 5 around it:",
        first_reset.at, first_reset.kind
    );
    let mut t = first_reset.at - SimDuration::from_secs(1);
    for frame in 0..12u64 {
        let lba = frame * 512;
        let g = chain.read(t, 5, lba, 512).expect("disk healthy");
        let latency_ms = g.latency_from(t).as_secs_f64() * 1e3;
        let marker = if latency_ms > 200.0 { "  <-- bus reset stalls the whole chain" } else { "" };
        println!("  frame {frame:>2}: {latency_ms:>8.1} ms{marker}");
        t = g.finish + SimDuration::from_millis(100);
    }
    println!(
        "\nDisk 5 never failed — but for two seconds it was performance-faulty\n\
         because a *different* disk timed out. That is the gap between the\n\
         fail-stop model and the machine room."
    );
}
