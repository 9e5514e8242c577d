//! Property tests for the processor substrate.

use proptest::prelude::*;

use cpusim::prelude::*;
use simcore::rng::Stream;

proptest! {
    /// Hits plus misses equals accesses, for any access pattern.
    #[test]
    fn cache_accounting(addrs in proptest::collection::vec(0u64..1_000_000, 1..512)) {
        let mut c = Cache::new(CacheConfig::viking_spec());
        for &a in &addrs {
            c.access(a);
        }
        let s = c.stats();
        prop_assert_eq!(s.accesses(), addrs.len() as u64);
        prop_assert!(s.miss_ratio() <= 1.0);
    }

    /// A masked cache never gets more hits than the full cache on the same
    /// access stream (LRU inclusion across capacities in the same sets).
    #[test]
    fn masking_never_helps(
        addrs in proptest::collection::vec(0u64..65_536, 1..512),
        remaining in 1u32..4
    ) {
        let mut full = Cache::new(CacheConfig::viking_spec());
        let mut masked = Cache::new(CacheConfig::viking_spec());
        masked.mask_ways(remaining);
        for &a in &addrs {
            full.access(a);
            masked.access(a);
        }
        prop_assert!(masked.stats().hits <= full.stats().hits,
            "masked {:?} vs full {:?}", masked.stats(), full.stats());
    }

    /// An immediate re-access always hits.
    #[test]
    fn repeat_access_hits(addr in 0u64..1_000_000) {
        let mut c = Cache::new(CacheConfig::viking_spec());
        c.access(addr);
        prop_assert!(c.access(addr));
    }

    /// TLBs with equal hidden phases stay identical on any input; contents
    /// never exceed capacity.
    #[test]
    fn tlb_phase_determinism(
        refs in proptest::collection::vec(0u64..4_096, 1..512),
        phase in any::<u16>()
    ) {
        let mut a = Tlb::new(16, 4, phase);
        let mut b = Tlb::new(16, 4, phase);
        let d = divergence(&mut a, &mut b, &refs);
        prop_assert_eq!(d, 0);
        prop_assert!(a.contents().len() <= 64);
        prop_assert_eq!(a.hits() + a.misses(), refs.len() as u64);
    }

    /// Banked memory: cycles consumed at least one per access; utilisation
    /// never exceeds one access per cycle.
    #[test]
    fn banked_memory_bounds(
        elements in 100u64..5_000,
        rate in 0.0f64..1.0,
        banks in 1usize..32,
        busy in 1u64..16
    ) {
        let mut mem = BankedMemory::new(banks, busy);
        let mut rng = Stream::from_seed(1);
        let r = run_stream(&mut mem, elements, rate, &mut rng);
        prop_assert!(r.cycles >= r.accesses, "{r:?}");
        prop_assert!(r.utilization() <= 1.0 + 1e-9);
        prop_assert!(r.efficiency() <= 1.0 + 1e-9);
    }

    /// The fetch predictor: total transfers = hits + mispredicts, and a
    /// straight-line loop mispredicts at most once per branch per target
    /// change.
    #[test]
    fn predictor_accounting(branches in 1u64..64, iters in 1u64..50) {
        let s = Snippet { branches, spacing: 4, iterations: iters };
        let cycles = run_snippet(s, 0, 1_024, 1.0, 0.0);
        // With zero penalty, cycles = total branches exactly.
        prop_assert!((cycles - (branches * iters) as f64).abs() < 1e-9);
        // With penalty and a big table, only the first iteration misses.
        let with_penalty = run_snippet(s, 0, 1_024, 1.0, 3.0);
        let expected = (branches * iters) as f64 + 3.0 * branches as f64;
        prop_assert!((with_penalty - expected).abs() < 1e-9);
    }

    /// The hog model is monotone: more hog memory never shortens the
    /// interactive response.
    #[test]
    fn hog_monotone(ws_mb in 1u64..128, hog1 in 0u64..256, hog2 in 0u64..256) {
        let (lo, hi) = if hog1 <= hog2 { (hog1, hog2) } else { (hog2, hog1) };
        let compute = simcore::time::SimDuration::from_millis(50);
        let ws = ws_mb << 20;
        let mut m1 = Machine::workstation();
        m1.add_hog(Demand { memory: lo << 20, cpu: 0.0 });
        let mut m2 = Machine::workstation();
        m2.add_hog(Demand { memory: hi << 20, cpu: 0.0 });
        prop_assert!(m1.interactive_response(compute, ws) <= m2.interactive_response(compute, ws));
    }

    /// Page mappings are stable and injective per machine.
    #[test]
    fn vm_mappings_stable(pages in 1u64..256, seed in any::<u64>()) {
        let cfg = CacheConfig { capacity: 1 << 20, line: 64, ways: 2 };
        let mut m = VmMachine::new(cfg, Allocation::Random, Stream::from_seed(seed));
        let first: Vec<u64> = (0..pages).inspect(|&p| {
            m.load(p * 4096);
        }).collect();
        let _ = first;
        // Re-touching gives the same physical placement: a second sweep of
        // the same pages cannot miss more than the first (stability).
        let s1 = m.run_sweeps(pages, 512, 1);
        let s2 = m.run_sweeps(pages, 512, 1);
        prop_assert_eq!(s1.misses, s2.misses);
    }
}

proptest! {
    /// Memory-hog interference (§2.2.2) only ever hurts: with any hog
    /// present the victim's interactive response and batch time are at
    /// least the hog-free baseline, and clearing the hogs restores the
    /// baseline exactly.
    #[test]
    fn hog_never_speeds_up_victim(
        ws_mb in 1u64..256,
        compute_ms in 1u64..500,
        hog_mem_mb in 0u64..512,
        hog_cpu_pct in 0u32..200,
        work_ms in 1u64..500,
    ) {
        let compute = simcore::time::SimDuration::from_millis(compute_ms);
        let work = simcore::time::SimDuration::from_millis(work_ms);
        let ws = ws_mb << 20;
        let baseline = Machine::workstation();
        let mut hogged = Machine::workstation();
        hogged.add_hog(Demand {
            memory: hog_mem_mb << 20,
            cpu: f64::from(hog_cpu_pct) / 100.0,
        });
        prop_assert!(
            hogged.interactive_response(compute, ws) >= baseline.interactive_response(compute, ws)
        );
        prop_assert!(hogged.batch_time(work) >= baseline.batch_time(work));
        hogged.clear_hogs();
        prop_assert_eq!(
            hogged.interactive_response(compute, ws),
            baseline.interactive_response(compute, ws)
        );
        prop_assert_eq!(hogged.batch_time(work), baseline.batch_time(work));
    }
}
