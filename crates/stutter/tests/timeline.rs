//! The one step timeline and the one static placement against the code
//! they replaced. `RateProfile`'s cursor search stands in for three
//! binary searches, `SlowdownProfile` lost its own integration loop,
//! sort-and-dedup merge and active-segment scan, and `equal_shares` with
//! `barrier` replaced the RAID, River and NOW-Sort loops. Each old body
//! is kept below as the reference, and every property asks for equality
//! (bit for bit where a float comes out).

use proptest::prelude::*;
use simcore::resource::{barrier, equal_shares, RateProfile};
use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime};
use stutter::catalog;
use stutter::injector::{Cursor, Injector, SlowdownProfile};

type Steps = [(SimTime, f64)];

/// `RateProfile::rate_at` before the cursor search.
fn old_rate_at(segs: &Steps, t: SimTime) -> f64 {
    let idx = segs.partition_point(|&(s, _)| s <= t);
    segs[idx - 1].1
}

/// `RateProfile::integrate` before the cursor search.
fn old_integrate(segs: &Steps, from: SimTime, to: SimTime) -> f64 {
    let mut total = 0.0;
    let mut cursor = from;
    let mut idx = segs.partition_point(|&(s, _)| s <= from) - 1;
    while cursor < to {
        let seg_end = segs.get(idx + 1).map_or(SimTime::MAX, |&(s, _)| s).min(to);
        total += segs[idx].1 * (seg_end - cursor).as_secs_f64();
        cursor = seg_end;
        idx += 1;
    }
    total
}

/// `RateProfile::time_to_transfer` before the cursor search.
fn old_time_to_transfer(segs: &Steps, start: SimTime, units: f64) -> Option<SimDuration> {
    if units == 0.0 {
        return Some(SimDuration::ZERO);
    }
    let mut remaining = units;
    let mut cursor = start;
    let mut idx = segs.partition_point(|&(s, _)| s <= start) - 1;
    loop {
        let rate = segs[idx].1;
        match segs.get(idx + 1) {
            Some(&(end, _)) => {
                let capacity = rate * (end - cursor).as_secs_f64();
                if capacity >= remaining {
                    return Some((cursor + SimDuration::from_secs_f64(remaining / rate)) - start);
                }
                remaining -= capacity;
                cursor = end;
                idx += 1;
            }
            None if rate <= 0.0 => return None,
            None => return Some((cursor + SimDuration::from_secs_f64(remaining / rate)) - start),
        }
    }
}

/// `SlowdownProfile::mean_multiplier`'s own loop, which split the segment
/// holding the fail instant.
fn old_mean_multiplier(p: &SlowdownProfile, horizon: SimDuration) -> f64 {
    let segs = p.segments();
    let end = SimTime::ZERO + horizon;
    let mut total = 0.0;
    let mut cursor = SimTime::ZERO;
    for i in 0..segs.len() {
        let seg_start = segs[i].0;
        if seg_start >= end {
            break;
        }
        let seg_end = segs.get(i + 1).map_or(end, |&(s, _)| s.min(end));
        let mut a = seg_start.max(cursor);
        let mut m = segs[i].1;
        if let Some(f) = p.fail_at() {
            if f <= a {
                m = 0.0;
            } else if f < seg_end {
                total += m * (f - a).as_secs_f64();
                a = f;
                m = 0.0;
            }
        }
        total += m * (seg_end - a).as_secs_f64();
        cursor = seg_end;
    }
    total / horizon.as_secs_f64()
}

/// `SlowdownProfile::compose`'s breakpoints before the instant merge:
/// both lists collected, sorted and deduplicated.
fn old_compose(a: &SlowdownProfile, b: &SlowdownProfile) -> Vec<(SimTime, f64)> {
    let mut times: Vec<SimTime> =
        a.segments().iter().chain(b.segments()).map(|&(t, _)| t).collect();
    times.sort_unstable();
    times.dedup();
    let at = |t| (t, old_rate_at(a.segments(), t) * old_rate_at(b.segments(), t));
    times.into_iter().map(at).collect()
}

/// `SlowdownProfile::next_active` as its own forward scan: from the
/// segment holding `t` to the first positive one, stopping at the fail
/// instant.
fn old_next_active(p: &SlowdownProfile, t: SimTime) -> Option<SimTime> {
    if p.failed_at(t) {
        return None;
    }
    let segs = p.segments();
    let idx = segs.partition_point(|&(s, _)| s <= t) - 1;
    if segs[idx].1 > 0.0 {
        return Some(t);
    }
    for &(start, m) in &segs[idx + 1..] {
        if p.failed_at(start) {
            return None;
        }
        if m > 0.0 {
            return Some(start);
        }
    }
    None
}

/// The equal split as `Raid10::write_static`, `adapt::queue::push` and
/// `cluster::sort::run_sort` each wrote it.
fn old_equal_split(total: u64, n: usize) -> Vec<u64> {
    let n = n as u64;
    (0..n).map(|i| total / n + u64::from(i < total % n)).collect()
}

/// `Raid10::run_static_assignment`'s loop (and `adapt::queue::push`'s):
/// the slowest share's transfer, or the first share that never finishes.
fn old_barrier(
    profiles: &[RateProfile],
    shares: &[u64],
    unit: u64,
    start: SimTime,
) -> Result<SimDuration, usize> {
    let mut elapsed = SimDuration::ZERO;
    for (i, &share) in shares.iter().enumerate() {
        if share == 0 {
            continue;
        }
        let units = (share * unit) as f64;
        match old_time_to_transfer(profiles[i].segments(), start, units) {
            Some(t) => elapsed = elapsed.max(t),
            None => return Err(i),
        }
    }
    Ok(elapsed)
}

/// One phase of `cluster::sort::run_phases` as it read: a share that
/// never finishes counts as `horizon`, and the phase lasts the longest.
fn old_sort_phase(
    profiles: &[RateProfile],
    shares: &[u64],
    unit: u64,
    start: SimTime,
    horizon: SimDuration,
) -> SimDuration {
    let mut phase = SimDuration::ZERO;
    for (profile, &share) in profiles.iter().zip(shares) {
        if share > 0 {
            let dt = old_time_to_transfer(profile.segments(), start, (share * unit) as f64);
            phase = phase.max(dt.unwrap_or(horizon));
        }
    }
    phase
}

const HORIZONS: [SimDuration; 4] = [
    SimDuration::from_secs(60),
    SimDuration::from_secs(600),
    SimDuration::from_secs(3_600),
    SimDuration::from_secs(7_200),
];

/// A step timeline: a catalog, wear-out or no-fault injector's timeline
/// at one of four horizons, or random `[0, 1]` levels (runs of zeros,
/// breakpoints 1 ns apart). Half get a fail instant: on a breakpoint,
/// strictly between two, or past the last.
fn arb_timeline() -> impl Strategy<Value = SlowdownProfile> {
    (
        0usize..24,
        proptest::collection::vec(prop_oneof![1u64..3, 1u64..4_000_000_000], 0..120),
        proptest::collection::vec(prop_oneof![Just(0.0), Just(1.0), 0.0f64..1.0], 121),
        any::<u64>(),
        0u64..6,
    )
        .prop_map(|(pick, gaps, levels, seed, fail_kind)| {
            let mut injectors: Vec<Injector> = catalog::all().into_iter().map(|(_, i)| i).collect();
            let onset = SimTime::from_secs(seed % 3_000);
            injectors.push(catalog::wearout(onset, SimDuration::from_secs(1 + seed % 1_000)));
            injectors.push(Injector::NoFault);
            let profile = match injectors.get(pick) {
                Some(inj) => {
                    let horizon = HORIZONS[(seed % 4) as usize];
                    inj.timeline(horizon, &mut Stream::from_seed(seed))
                }
                None => {
                    let mut t = SimTime::ZERO;
                    let mut bps = vec![(t, levels[0])];
                    for (g, &m) in gaps.iter().zip(&levels[1..]) {
                        t += SimDuration::from_nanos(*g);
                        bps.push((t, m));
                    }
                    SlowdownProfile::from_breakpoints(bps)
                }
            };
            let starts: Vec<SimTime> = profile.segments().iter().map(|&(t, _)| t).collect();
            let k = (seed >> 8) as usize % starts.len();
            let gap = starts.get(k + 1).map_or(1, |&n| (n - starts[k]).as_nanos());
            let fail = match fail_kind {
                0 => starts[k],
                1 => starts[k] + SimDuration::from_nanos(1 + (seed >> 16) % gap.max(1)),
                2 => starts[starts.len() - 1] + SimDuration::from_nanos(1 + seed % 1_000_000_000),
                _ => return profile,
            };
            profile.with_failure_at(fail)
        })
}

/// Every breakpoint and the fail instant, exactly and 1 ns either side,
/// plus instants past both ends, ascending.
fn probes(p: &SlowdownProfile) -> Vec<SimTime> {
    let near = |t: SimTime| {
        let ns = t.as_nanos();
        [ns.max(1) - 1, ns, ns + 1].map(SimTime::from_nanos)
    };
    let mut out: Vec<SimTime> =
        p.segments().iter().map(|&(t, _)| t).chain(p.fail_at()).flat_map(near).collect();
    let last = out.iter().copied().max().unwrap_or(SimTime::ZERO);
    out.extend([last + SimDuration::from_secs(1), last + SimDuration::from_secs(9_000)]);
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `RateProfile`'s reads equal the binary-search bodies they replaced,
    /// on the multipliers themselves and on the absolute profile: the
    /// rate through a fresh cursor, one walked forward, the same walked
    /// back, and one left on another timeline; integrals bit for bit;
    /// and transfer times, including ones that never finish.
    #[test]
    fn rate_profile_reads_equal_the_binary_searches(
        p in arb_timeline(),
        other in arb_timeline(),
        nominal in 0.5f64..1e7,
        pick in any::<u64>(),
    ) {
        let probes = probes(&p);
        let n = probes.len();
        let mut foreign = Cursor::default();
        other.multiplier_from(&mut foreign, probes[pick as usize % n]);
        for rates in [RateProfile::from_breakpoints(p.segments().to_vec()), p.to_rate_profile(nominal)] {
            let segs = rates.segments();
            let mut forward = Cursor::default();
            for &t in &probes {
                let want = old_rate_at(segs, t);
                prop_assert_eq!(rates.rate_at(t), want, "fresh at {:?}", t);
                prop_assert_eq!(rates.rate_from(&mut forward, t), want, "forward at {:?}", t);
                prop_assert_eq!(rates.rate_from(&mut foreign.clone(), t), want, "foreign at {:?}", t);
            }
            for &t in probes.iter().rev() {
                prop_assert_eq!(rates.rate_from(&mut forward, t), old_rate_at(segs, t), "backward at {:?}", t);
            }
            for (i, &from) in probes.iter().enumerate() {
                let to = probes[(i + 1 + (pick >> 8) as usize % n) % n].max(from);
                let (got, want) = (rates.integrate(from, to), old_integrate(segs, from, to));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "integral over {:?}..{:?}", from, to);
                let units = [0.0, rates.rate_at(from) * 0.37, want, want * 2.0 + 1.0][i % 4];
                let got = rates.time_to_transfer(from, units);
                prop_assert_eq!(got, old_time_to_transfer(segs, from, units), "{} units at {:?}", units, from);
            }
        }
    }

    /// `mean_multiplier` integrates up to the fail instant and equals its
    /// old loop bit for bit at every horizon; `compose` merges instants
    /// into the old sorted and deduplicated list; `next_active_from`
    /// through a forward cursor equals the old scan.
    #[test]
    fn slowdown_profile_equals_its_old_loops(
        p in arb_timeline(),
        other in arb_timeline(),
        horizon_ms in prop_oneof![1u64..10_000, 1u64..10_000_000],
    ) {
        for h in HORIZONS.iter().copied().chain([SimDuration::from_millis(horizon_ms)]) {
            let (got, want) = (p.mean_multiplier(h), old_mean_multiplier(&p, h));
            prop_assert_eq!(got.to_bits(), want.to_bits(), "mean over {:?}", h);
        }
        let composed = p.compose(&other);
        prop_assert_eq!(composed.segments(), &old_compose(&p, &other)[..]);
        let earliest = p.fail_at().into_iter().chain(other.fail_at()).min();
        prop_assert_eq!(composed.fail_at(), earliest);
        let mut forward = Cursor::default();
        for &t in &probes(&p) {
            let want = old_next_active(&p, t);
            prop_assert_eq!(p.next_active_from(&mut forward, t), want, "forward at {:?}", t);
            prop_assert_eq!(p.next_active(t), want, "fresh at {:?}", t);
        }
    }

    /// `equal_shares` and `barrier` equal the RAID and River loops, the
    /// first share that never finishes included; a sort phase maps that
    /// share to its 2^20 s horizon as it did, unless another share needs
    /// even longer.
    #[test]
    fn static_placement_equals_the_old_loops(
        timelines in proptest::collection::vec(arb_timeline(), 1..6),
        total in prop_oneof![0u64..20, 0u64..1_000_000],
        unit in prop_oneof![Just(1u64), 1u64..70_000],
        start_ms in prop_oneof![Just(0u64), 0u64..4_000_000],
        nominal in 1e3f64..1e7,
    ) {
        let n = timelines.len();
        let shares = equal_shares(total, n);
        prop_assert_eq!(&shares, &old_equal_split(total, n));
        let profiles: Vec<RateProfile> = timelines.iter().map(|p| p.to_rate_profile(nominal)).collect();
        let start = SimTime::from_millis(start_ms);
        let got = barrier(&profiles, &shares, unit as f64, start);
        prop_assert_eq!(got, old_barrier(&profiles, &shares, unit, start));
        let horizon = SimDuration::from_secs(1 << 20);
        let phase = old_sort_phase(&profiles, &shares, unit, start, horizon);
        if got.is_ok() || phase <= horizon {
            prop_assert_eq!(got.unwrap_or(horizon), phase);
        }
    }
}
