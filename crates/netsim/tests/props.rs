//! Property tests for the network substrate.

use proptest::prelude::*;

use netsim::prelude::*;
use netsim::transpose::{BYTES_PER_PAIR, NODES};
use simcore::time::{SimDuration, SimTime};
use stutter::component::Component;

proptest! {
    /// The switch conserves bytes: everything enqueued is either delivered
    /// or still backlogged, under both arbitration policies.
    #[test]
    fn switch_conserves_bytes(
        packets in proptest::collection::vec(
            (0u64..2_000, 0usize..4, 0usize..2, 1u64..50_000),
            1..64
        ),
        priority in any::<bool>()
    ) {
        let arb = if priority { Arbitration::Priority } else { Arbitration::Fair };
        let mut sw = Switch::new(4, 2, 1e6, arb);
        let mut total = 0u64;
        for &(at_ms, input, output, bytes) in &packets {
            sw.enqueue(Packet { at: SimTime::from_millis(at_ms), input, output, bytes });
            total += bytes;
        }
        let done = sw.drain_until(SimTime::from_secs(2));
        let delivered: u64 = done.iter().map(|f| f.packet.bytes).sum();
        prop_assert_eq!(delivered + sw.backlog_bytes(), total);
        // Completions never precede arrivals.
        for f in &done {
            prop_assert!(f.done >= f.packet.at);
        }
    }

    /// Draining twice with a later deadline only adds packets, in
    /// non-decreasing completion order per output.
    #[test]
    fn incremental_drains_compose(
        packets in proptest::collection::vec((0u64..500, 1u64..20_000), 1..48)
    ) {
        let mut one = Switch::new(1, 1, 1e6, Arbitration::Fair);
        let mut two = Switch::new(1, 1, 1e6, Arbitration::Fair);
        for &(at_ms, bytes) in &packets {
            let p = Packet { at: SimTime::from_millis(at_ms), input: 0, output: 0, bytes };
            one.enqueue(p);
            two.enqueue(p);
        }
        one.drain_until(SimTime::from_secs(10));
        two.drain_until(SimTime::from_secs(1));
        two.drain_until(SimTime::from_secs(10));
        prop_assert_eq!(one.delivered(), two.delivered());
    }

    /// Wormhole message completion is monotone in the inter-packet gap,
    /// and only gaps at or above the threshold trigger deadlocks.
    #[test]
    fn wormhole_monotone_and_thresholded(
        packets in 2u32..20,
        gap_ms in 0u64..200
    ) {
        let mut f = WormholeFabric::new(100e6);
        let out = f.send_message(SimTime::ZERO, packets, 1_000, SimDuration::from_millis(gap_ms));
        let expect_deadlocks = gap_ms >= 50;
        prop_assert_eq!(out.deadlocks_triggered > 0, expect_deadlocks);
        if expect_deadlocks {
            prop_assert_eq!(out.deadlocks_triggered, packets - 1);
        }

        let mut slower = WormholeFabric::new(100e6);
        let out2 = slower.send_message(
            SimTime::ZERO,
            packets,
            1_000,
            SimDuration::from_millis(gap_ms + 1),
        );
        prop_assert!(out2.finished >= out.finished);
    }

    /// The transpose delivers every byte: goodput × elapsed = total.
    #[test]
    fn transpose_conserves_bytes(slow in 0.1f64..1.0, which in 0usize..16) {
        let mut mult = vec![1.0; NODES];
        mult[which] = slow;
        let out = run_transpose(&mult);
        let total = (BYTES_PER_PAIR * (NODES * NODES) as u64) as f64;
        let implied = out.goodput * out.elapsed.as_secs_f64();
        prop_assert!((implied / total - 1.0).abs() < 1e-6);
        // A slow receiver never makes the transpose faster than healthy.
        let healthy = healthy_baseline();
        prop_assert!(out.elapsed >= healthy.elapsed);
    }

    /// Links serialise: a batch of sends occupies the link for exactly the
    /// sum of serialisation times.
    #[test]
    fn link_serialisation_adds_up(sizes in proptest::collection::vec(1u64..1_000_000, 1..16)) {
        let mut l = Link::new(1e6, SimDuration::ZERO);
        let mut last = None;
        for &bytes in &sizes {
            last = l.send(SimTime::ZERO, bytes);
        }
        let total: u64 = sizes.iter().sum();
        let expect = SimDuration::from_secs_f64(total as f64 / 1e6);
        let got = last.expect("link up").arrive - SimTime::ZERO;
        let diff = got.as_secs_f64() - expect.as_secs_f64();
        prop_assert!(diff.abs() < 1e-6 * sizes.len() as f64, "diff {diff}");
    }
}

proptest! {
    /// Multicast: group delivery never exceeds the offered stream, and
    /// bimodal delivery is never slower than atomic.
    #[test]
    fn multicast_orderings(
        n in 2usize..10,
        slow in 0.05f64..1.0,
        which in 0usize..10
    ) {
        use netsim::prelude::*;
        use simcore::rng::Stream;
        use stutter::injector::Injector;

        let which = which % n;
        let profile = Injector::StaticSlowdown { factor: slow }
            .timeline(SimDuration::from_secs(240), &mut Stream::from_seed(1));
        let mut members: Vec<Component> = (0..n).map(|_| Component::new(1_000.0)).collect();
        members[which] = Component::new(1_000.0).with_profile(profile);
        let atomic = run_multicast(&members, McastProtocol::Atomic);
        let bimodal = run_multicast(&members, McastProtocol::Bimodal);
        prop_assert!(atomic.mean_delivery <= 900.0 * 1.001);
        prop_assert!(bimodal.mean_delivery <= 900.0 * 1.001);
        prop_assert!(bimodal.mean_delivery + 1e-6 >= atomic.mean_delivery,
            "bimodal {} < atomic {}", bimodal.mean_delivery, atomic.mean_delivery);
        prop_assert!(atomic.peak_lag >= atomic.final_lag - 1e-6);
    }
}

proptest! {
    /// Slow-port backpressure bounds (§2.1.3): an output port serialises
    /// at `rate`, so (a) bytes delivered through it never exceed
    /// `rate × deadline`, (b) the backlog can shrink no faster than every
    /// port draining flat out, and (c) because queueing is per-output, an
    /// overloaded port's backpressure never leaks into another port's
    /// deliveries.
    #[test]
    fn slow_port_backpressure_bounds(
        packets in proptest::collection::vec((0u64..1_000, 0usize..4, 1u64..60_000), 1..64),
        extra in proptest::collection::vec((0u64..1_000, 0usize..4, 1u64..60_000), 1..64),
        deadline_ms in 100u64..2_000,
    ) {
        let rate = 1e6;
        let deadline = SimTime::from_millis(deadline_ms);
        let mut base = Switch::new(4, 2, rate, Arbitration::Fair);
        let mut loaded = Switch::new(4, 2, rate, Arbitration::Fair);
        let mut offered = 0u64;
        for &(at_ms, input, bytes) in &packets {
            let p = Packet { at: SimTime::from_millis(at_ms), input, output: 0, bytes };
            base.enqueue(p);
            loaded.enqueue(p);
            offered += bytes;
        }
        // Congest output 1 of the loaded switch only.
        for &(at_ms, input, bytes) in &extra {
            loaded.enqueue(Packet { at: SimTime::from_millis(at_ms), input, output: 1, bytes });
            offered += bytes;
        }
        let base_done = base.drain_until(deadline);
        let loaded_done = loaded.drain_until(deadline);

        // (a) serialisation ceiling on the slow port.
        let through_port0: u64 = base_done.iter().map(|f| f.packet.bytes).sum();
        prop_assert!(
            through_port0 as f64 <= rate * deadline.as_secs_f64() * (1.0 + 1e-9) + 1.0,
            "port 0 moved {through_port0} bytes in {deadline_ms} ms"
        );

        // (b) work-conservation floor on the backlog.
        let max_drainable = 2.0 * rate * deadline.as_secs_f64();
        prop_assert!(
            loaded.backlog_bytes() as f64 >= offered as f64 - max_drainable - 1.0,
            "backlog {} below floor", loaded.backlog_bytes()
        );

        // (c) output isolation: identical deliveries on the uncongested path.
        let out0_base: Vec<&Forwarded> =
            base_done.iter().filter(|f| f.packet.output == 0).collect();
        let out0_loaded: Vec<&Forwarded> =
            loaded_done.iter().filter(|f| f.packet.output == 0).collect();
        prop_assert_eq!(out0_base.len(), out0_loaded.len());
        for (a, b) in out0_base.iter().zip(&out0_loaded) {
            prop_assert_eq!(a.packet, b.packet);
            prop_assert_eq!(a.done, b.done);
        }
    }
}
