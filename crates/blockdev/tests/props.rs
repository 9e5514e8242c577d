//! Property tests for the storage substrate.

use proptest::prelude::*;

use blockdev::prelude::*;
use simcore::rng::Stream;
use simcore::time::SimTime;

proptest! {
    /// Remapped blocks go to distinct spares, and resolution round-trips.
    #[test]
    fn remap_spares_distinct(lbas in proptest::collection::btree_set(0u64..900, 1..64)) {
        let mut t = RemapTable::new(1_000, 100);
        let mut spares = std::collections::BTreeSet::new();
        for &lba in &lbas {
            let spare = t.grow_defect(lba).expect("spares available");
            prop_assert!(spares.insert(spare), "spare reused");
            prop_assert!(spare >= 900, "spare outside spare area");
        }
        for &lba in &lbas {
            prop_assert!(t.is_remapped(lba));
            prop_assert!(t.resolve(lba).is_err());
        }
        prop_assert_eq!(t.defect_count(), lbas.len() as u64);
        // Unremapped blocks resolve to themselves.
        for lba in 0..900 {
            if !lbas.contains(&lba) {
                prop_assert_eq!(t.resolve(lba), Ok(lba));
            }
        }
    }

    /// File-system invariant: allocated files never overlap each other or
    /// the free list, and blocks are conserved.
    #[test]
    fn filesystem_space_is_partitioned(
        sizes in proptest::collection::vec(1u64..2_000, 1..24),
        churn in 0u32..30
    ) {
        let total = 100_000u64;
        let mut fs = FileSystem::new(total, Stream::from_seed(7));
        fs.age(churn);
        let mut created = Vec::new();
        for &s in &sizes {
            if let Ok(idx) = fs.create_file(s) {
                created.push(idx);
            }
        }
        // Collect every allocated extent from the created files plus the
        // free list; they must tile without overlap within the device.
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for &idx in &created {
            for e in fs.file(idx).extents() {
                spans.push((e.start, e.len));
            }
        }
        let allocated: u64 = spans.iter().map(|&(_, l)| l).sum();
        let expected: u64 = created.iter().map(|&i| fs.file(i).len_blocks()).sum();
        prop_assert_eq!(allocated, expected);
        prop_assert!(fs.free_blocks() <= total);
        for &(start, len) in &spans {
            prop_assert!(start + len <= total, "extent beyond device");
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            prop_assert!(w[0].0 + w[0].1 <= w[1].0, "overlapping extents {w:?}");
        }
    }

    /// Geometry: transfer time is additive over splits, and zone rates are
    /// monotone non-increasing.
    #[test]
    fn geometry_transfer_additive(lba in 0u64..3_000_000, n1 in 1u64..500, n2 in 1u64..500) {
        let g = Geometry::hawk_5400();
        prop_assume!(lba + n1 + n2 <= g.blocks);
        let whole = g.transfer_time(lba, n1 + n2).as_secs_f64();
        let parts = g.transfer_time(lba, n1).as_secs_f64()
            + g.transfer_time(lba + n1, n2).as_secs_f64();
        // Each transfer_time call rounds to whole nanoseconds once.
        prop_assert!((whole - parts).abs() < 3e-9, "whole {whole} vs parts {parts}");
        for z in 1..g.zones {
            prop_assert!(g.zone_rate(z) <= g.zone_rate(z - 1));
        }
    }

    /// Disk requests never overlap in time and never start before arrival.
    #[test]
    fn disk_grants_are_ordered(ops in proptest::collection::vec((0u64..3_000_000, 1u64..256), 1..48)) {
        let mut d = Disk::new(Geometry::hawk_5400(), Stream::from_seed(3));
        let mut t = SimTime::ZERO;
        let mut last_finish = SimTime::ZERO;
        for &(lba, n) in &ops {
            let g = d.read(t, lba, n).expect("healthy");
            prop_assert!(g.start >= t);
            prop_assert!(g.start >= last_finish);
            prop_assert!(g.finish > g.start);
            last_finish = g.finish;
            t = g.finish;
        }
    }

    /// SCSI chains are deterministic per seed and error counts advance
    /// monotonically with time.
    #[test]
    fn scsi_census_monotone(days in 1u64..60, seed in any::<u64>()) {
        let rng = Stream::from_seed(seed);
        let disks = vec![Disk::new(Geometry::hawk_5400(), rng.derive("d"))];
        let mut chain = ScsiChain::new(
            disks,
            ErrorProcess::default(),
            simcore::time::SimDuration::from_secs(days * 86_400),
            &mut rng.derive("e"),
        );
        let mut last = 0;
        for day in 0..days {
            let _ = chain.read(SimTime::from_secs(day * 86_400), 0, 0, 8);
            let now = chain.census().total();
            prop_assert!(now >= last);
            last = now;
        }
        prop_assert!(chain.census().total() <= chain.full_horizon_census().total());
    }
}
