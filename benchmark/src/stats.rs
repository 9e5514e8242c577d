//! The untraced measurement loop, its statistics and the result line.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::time::{Duration, Instant};

/// What one run of a workload reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// A run whose inputs could not be prepared.
    pub fn broken() -> Outcome {
        Outcome { attempted: 1, failed: 1, metrics: BTreeMap::new() }
    }
}

/// The median of `v` (0 when empty).
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Set-up repetitions timed before each pass.
const SETUP_PER_PASS: usize = 3;

/// Runs of [`reference_work`] before each pass; the fastest one counts.
const REFERENCE_PER_PASS: usize = 3;

/// Seconds the fastest of [`REFERENCE_PER_PASS`] runs of
/// [`reference_work`] typically takes on the reference host: a 2-core
/// Intel Xeon virtual machine at 2.0 GHz.
const REFERENCE_SECS: f64 = 0.004;

/// Fixed work shaped like the simulators: an event heap whose handlers
/// update a 256 KiB state table. Its run time measures how fast the host
/// is at that moment; returns the seconds it took.
fn reference_work() -> f64 {
    let t0 = Instant::now();
    let mut state = vec![1.0f64; 1 << 15];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> =
        (0..1024u32).map(|i| Reverse((u64::from(i), i))).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..60_000 {
        let Some(Reverse((t, id))) = heap.pop() else { break };
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize ^ id as usize) & (state.len() - 1);
        state[slot] = state[slot] * 0.999 + (t as f64).sqrt();
        heap.push(Reverse((t + 1 + (x >> 54), id)));
    }
    std::hint::black_box(state);
    t0.elapsed().as_secs_f64()
}

/// The end-to-end metrics of an untraced run.
///
/// Passes alternate between `nproc` workers and one worker until
/// `seconds` have elapsed; the first pass at each setting is a warm-up
/// that `pass` still checks but that is not timed. `pass(workers)` runs
/// one pass and returns the operations it completed.
///
/// On a shared host the same pass takes up to twice as long while other
/// tenants contend for the cores, in spells of seconds to minutes. So
/// before each pass the benchmark times [`reference_work`], and scales
/// that pass's time, and the set-up times taken just before it, by
/// [`REFERENCE_SECS`] over the fastest reference run. Every reported time
/// is a median of scaled samples. `peak_rss_mb` is the median over passes
/// of each pass's peak resident set size.
pub fn measure<T>(
    seconds: u64,
    nproc: usize,
    mut setup: impl FnMut() -> T,
    mut pass: impl FnMut(usize) -> u64,
) -> BTreeMap<&'static str, f64> {
    let mut setup_secs = Vec::new();
    let mut pass_secs: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut rss_mb = Vec::new();
    let mut ops = 0;
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut round = 0;
    while round < 4 || Instant::now() < deadline {
        let reference = (0..REFERENCE_PER_PASS).map(|_| reference_work()).fold(f64::MAX, f64::min);
        let scale = REFERENCE_SECS / reference;
        for _ in 0..SETUP_PER_PASS {
            let t0 = Instant::now();
            std::hint::black_box(setup());
            setup_secs.push(t0.elapsed().as_secs_f64() * scale);
        }
        let which = round % 2;
        let workers = if which == 0 { nproc } else { 1 };
        reset_peak_rss();
        let t0 = Instant::now();
        ops = pass(workers);
        let secs = t0.elapsed().as_secs_f64();
        rss_mb.push(peak_rss_mb());
        eprintln!(
            "pass {round}: {workers} worker(s), {secs:.6} s, reference work {reference:.6} s"
        );
        if round >= 2 {
            pass_secs[which].push(secs * scale);
        }
        round += 1;
    }
    let rate = |secs: &mut [f64]| ops as f64 / median(secs);
    BTreeMap::from([
        ("setup_s", median(&mut setup_secs)),
        ("ops_per_s", rate(&mut pass_secs[0])),
        ("ops_per_s_1t", rate(&mut pass_secs[1])),
        ("peak_rss_mb", median(&mut rss_mb)),
    ])
}

/// Resets this process's peak resident set size to its current one, so
/// that the next [`peak_rss_mb`] reads the peak of one pass. Without the
/// reset (kernels before 4.0) the reading is the process's peak so far.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and every metric of `names` with its unit. A metric the run did not
/// produce reads 0.
pub fn result_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = out.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    )
}
