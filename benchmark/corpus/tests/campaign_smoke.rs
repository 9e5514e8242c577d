//! Tier-1 gate for the scenario-campaign harness.
//!
//! Runs the reduced (smoke) campaign twice and asserts (a) bit-for-bit
//! determinism, (b) zero oracle violations, and (c) the pinned golden
//! campaign digest. The digest is a pure function of the campaign config
//! and the seed tree — if an intentional change to a simulator, injector,
//! or oracle shifts it, regenerate with:
//!
//! ```text
//! cargo run -p fs-bench --release --bin fs-campaign -- --smoke
//! ```
//!
//! and record the new constant here (see docs/TESTING.md). A digest shift
//! with *no* intentional semantic change is a regression.

use fs_bench::campaign::{run_campaign, CampaignConfig};

/// `fs-campaign --smoke` (master seed 42).
const GOLDEN_SMOKE_DIGEST: u64 = 0xbd73_a9d3_ca4d_7881;

#[test]
fn smoke_campaign_is_deterministic_violation_free_and_pinned() {
    let cfg = CampaignConfig::smoke(42);
    let first = run_campaign(&cfg);
    let second = run_campaign(&cfg);

    assert_eq!(
        first.digest, second.digest,
        "consecutive runs with one config must reproduce bit-for-bit"
    );
    // 12 injector classes × 5 mechanism kinds × 2 replicates.
    assert_eq!(first.results.len(), 120);
    assert!(
        first.violations.is_empty(),
        "oracle violations in the smoke campaign:\n{}",
        first.violations.join("\n")
    );
    assert_eq!(
        first.digest, GOLDEN_SMOKE_DIGEST,
        "campaign digest drifted: got {:016x}, pinned {:016x} (see docs/TESTING.md)",
        first.digest, GOLDEN_SMOKE_DIGEST
    );
}

#[test]
fn campaign_digest_is_schedule_independent() {
    // Same seed tree on very different shard counts: per-scenario streams
    // are derived by label, so the schedule must not leak into results.
    let mut narrow = CampaignConfig::smoke(42);
    narrow.threads = 1;
    let mut wide = CampaignConfig::smoke(42);
    wide.threads = 7;
    assert_eq!(run_campaign(&narrow).digest, run_campaign(&wide).digest);
}
