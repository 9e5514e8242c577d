//! Fixture: a reasoned suppression above a line with no clock read. It
//! silences nothing, so it is reported as `suppression-stale`.

fn simulated(now_ns: u64) -> u64 {
    // fslint: allow(no-wall-clock) — the clock read this once covered is gone
    now_ns + 1
}
