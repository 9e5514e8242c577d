//! Digest-invariance gate across event-queue implementations.
//!
//! The event engine's queue is pluggable ([`simcore::queue`]): the
//! calendar queue is the production default, the binary-heap
//! `ReferenceQueue` is the oracle. Dispatch order — and therefore every
//! seeded result in the workspace — must not depend on which one is
//! plugged in. This test runs the smoke campaign under *both* kinds and
//! pins both digests to the same golden as `tests/campaign_smoke.rs`, so
//! future queue tuning (bucket geometry, resize policy, batch draining)
//! can never silently reorder equal-time ties.
//!
//! Single `#[test]`, sequential: the queue kind is a process-wide default
//! (`set_default_queue_kind`), so the two campaign runs must not overlap
//! with each other — keeping them in one test body makes that structural.
//! The golden matches campaign_smoke's; regenerate the same way
//! (`cargo run -p fs-bench --release --bin fs-campaign -- --smoke`).

use fs_bench::campaign::{run_campaign, CampaignConfig};
use simcore::queue::{default_queue_kind, set_default_queue_kind, QueueKind};

/// `fs-campaign --smoke` (master seed 42) — same pin as campaign_smoke.
const GOLDEN_SMOKE_DIGEST: u64 = 0xbd73_a9d3_ca4d_7881;

#[test]
fn smoke_digest_is_identical_under_both_queue_kinds() {
    let cfg = CampaignConfig::smoke(42);
    let mut digests = Vec::new();
    for kind in [QueueKind::Calendar, QueueKind::Reference] {
        set_default_queue_kind(kind);
        let report = run_campaign(&cfg);
        assert!(
            report.violations.is_empty(),
            "oracle violations under {} queue:\n{}",
            kind.name(),
            report.violations.join("\n")
        );
        digests.push((kind, report.digest));
    }
    set_default_queue_kind(QueueKind::Calendar);
    assert_eq!(default_queue_kind(), QueueKind::Calendar);
    for (kind, digest) in digests {
        assert_eq!(
            digest,
            GOLDEN_SMOKE_DIGEST,
            "campaign digest under the {} queue drifted: got {digest:016x}, pinned \
             {GOLDEN_SMOKE_DIGEST:016x} — the queue implementations no longer dispatch \
             the identical (time, seq) order (see docs/TESTING.md)",
            kind.name()
        );
    }
}
