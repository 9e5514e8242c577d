//! The closed-loop population engine.
//!
//! Clients cycle think → issue → wait; the server drains a bounded FIFO
//! queue at `service_rate × multiplier(t)`, where the multiplier comes
//! from a (windowed) `stutter` slowdown profile — the *trigger*. A
//! request served after its issuer's timeout is *orphan work*: capacity
//! spent producing nothing. Once the queue holds more than
//! `service_rate × timeout` requests, everything served is orphaned,
//! goodput pins near zero, every attempt times out and (with naive
//! retries) demand is amplified by the retry policy — the feedback loop
//! that makes collapse outlive the trigger.
//!
//! The engine is aggregate: same-tick requests form *cohorts*
//! ([`crate::server`]), so cost per tick is O(cohorts), independent of
//! the client population. A run is a plain loop over the ticks, and the
//! clients waiting out a think time or a backoff sit in fixed-size rings
//! of per-tick counters, so a tick allocates nothing and walks no tree.

use simcore::rng::Stream;
use simcore::time::{SimDuration, SimTime, NANOS_PER_SEC};
use stutter::injector::{Cursor, SlowdownProfile};
use stutter::predict::FailurePredictor;

use crate::client::{Backoff, BudgetConfig, RetryBudget, RetryPolicy};
use crate::policy::{CircuitBreaker, Mitigation, ShedConfig};
use crate::server::{Cohort, ServerQueue};

/// Most counters either tick wheel may hold; [`Config::validate`]
/// rejects a configuration whose think or backoff wheel would need more
/// once its ring is rounded up to a power of two. The cap is a power of
/// two itself, so rounding never pushes a one-column ring past it.
pub(crate) const MAX_WHEEL_SLOTS: u64 = 1 << 20;

/// Ticks over which one batch of clients' next fresh issues is spread.
const THINK_SPREAD: u64 = 4;

/// Closed-loop population configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Closed-loop client population size.
    pub population: u64,
    /// Think time between a completed (or abandoned) operation and the
    /// next fresh request.
    pub think: SimDuration,
    /// Per-client timeout/retry policy.
    pub policy: RetryPolicy,
    /// Retry-token budget; `None` = naive unbudgeted retries.
    pub budget: Option<BudgetConfig>,
    /// Nominal service rate, requests/second.
    pub service_rate: f64,
    /// Hard bound on queued requests.
    pub queue_cap: u64,
    /// Engine tick; must divide one second evenly.
    pub dt: SimDuration,
    /// Run length.
    pub horizon: SimDuration,
    /// Extra open-arrival requests/second (timeout applies, but no
    /// retries and no think loop).
    pub open_per_sec: f64,
    /// Start collapsed: every client issues at t = 0 instead of being
    /// staggered over one think time — the recovery side of the
    /// hysteresis sweep.
    pub initial_burst: bool,
}

impl Config {
    /// The campaign-cell reference configuration.
    ///
    /// Sized so the stable regime is comfortably feasible (utilisation
    /// ≈ 0.65) while the fully-collapsed retry storm demands ≈ 1.18×
    /// nominal capacity: vulnerable, in the fluid-model sense, to a deep
    /// enough trigger — and the queue bound (10× `service_rate ×
    /// timeout`) is deep enough to hold the head past the client timeout,
    /// which is what sustains pure orphan service.
    pub fn campaign() -> Self {
        Config {
            population: 13_000,
            think: SimDuration::from_secs(10),
            policy: RetryPolicy {
                timeout: SimDuration::from_secs(1),
                max_attempts: 3,
                backoff: Backoff {
                    base: SimDuration::from_millis(500),
                    cap: SimDuration::from_secs(2),
                },
            },
            budget: None,
            service_rate: 2_000.0,
            queue_cap: 20_000,
            dt: SimDuration::from_millis(50),
            horizon: SimDuration::from_secs(450),
            open_per_sec: 0.0,
            initial_burst: false,
        }
    }

    /// Checks every constraint the engine relies on, in release builds
    /// too. [`run`] refuses an invalid configuration, but
    /// sweep/CLI code should call this at the config boundary, where the
    /// error can name the offending knob instead of panicking mid-run.
    pub fn validate(&self) -> Result<(), String> {
        if self.population == 0 {
            return Err("population must be non-empty".to_string());
        }
        if self.service_rate.is_nan() || self.service_rate <= 0.0 {
            return Err(format!("service rate must be positive, got {}", self.service_rate));
        }
        if self.policy.max_attempts < 1 {
            return Err("at least one attempt per operation".to_string());
        }
        if self.dt.is_zero() {
            return Err("tick must be positive".to_string());
        }
        if !NANOS_PER_SEC.is_multiple_of(self.dt.as_nanos()) {
            return Err(format!(
                "tick must divide one second evenly, got dt = {} ns",
                self.dt.as_nanos()
            ));
        }
        let think_slots = TickWheel::slots(self.think_wheel_ticks(), 1);
        if think_slots > MAX_WHEEL_SLOTS {
            return Err(format!(
                "think = {} ns needs a {think_slots}-slot think wheel at dt = {} ns; \
                 the cap is {MAX_WHEEL_SLOTS}",
                self.think.as_nanos(),
                self.dt.as_nanos()
            ));
        }
        let retry_columns = u64::from(self.policy.max_attempts - 1);
        if retry_columns > MAX_WHEEL_SLOTS {
            return Err(format!(
                "policy.max_attempts = {} needs more backoff-wheel columns than the \
                 {MAX_WHEEL_SLOTS}-slot cap",
                self.policy.max_attempts
            ));
        }
        let backoff_ticks = self.backoff_wheel_ticks();
        let backoff_slots = TickWheel::slots(backoff_ticks, retry_columns);
        if backoff_slots > MAX_WHEEL_SLOTS {
            return Err(format!(
                "policy.backoff delays up to {} ticks over policy.max_attempts = {} need a \
                 {backoff_slots}-slot backoff wheel; the cap is {MAX_WHEEL_SLOTS}",
                backoff_ticks - 1,
                self.policy.max_attempts
            ));
        }
        Ok(())
    }

    /// Number of whole engine ticks in the run.
    pub fn ticks(&self) -> u64 {
        assert!(!self.dt.is_zero(), "tick must be positive");
        self.horizon.as_nanos() / self.dt.as_nanos()
    }

    /// Engine ticks per simulated second.
    ///
    /// [`Config::validate`] has already established that `dt` divides
    /// one second evenly, so the division here is exact.
    pub fn ticks_per_sec(&self) -> u64 {
        let per_sec = NANOS_PER_SEC / self.dt.as_nanos();
        debug_assert!(per_sec * self.dt.as_nanos() == NANOS_PER_SEC);
        per_sec
    }

    fn dur_ticks(&self, d: SimDuration) -> u64 {
        (d.as_nanos() / self.dt.as_nanos()).max(1)
    }

    /// Think-wheel length: a think is scheduled up to
    /// `think + THINK_SPREAD - 1` ticks ahead of the tick being drained.
    fn think_wheel_ticks(&self) -> u64 {
        self.dur_ticks(self.think).saturating_add(THINK_SPREAD)
    }

    /// Backoff-wheel length: one more than the longest backoff delay, in
    /// ticks, over the attempts that can still retry.
    fn backoff_wheel_ticks(&self) -> u64 {
        let longest = (1..self.policy.max_attempts)
            .map(|a| self.dur_ticks(self.policy.backoff.delay(a)))
            .max()
            .unwrap_or(0);
        longest.saturating_add(1)
    }
}

/// A ring of per-tick client counters, `width` of them per tick. It
/// stands in for a `BTreeMap<(tick, column), count>` as long as no count
/// is added more than `len - 1` ticks ahead of the tick being drained.
/// The ring rounds `len` up to a power of two, so a tick's row is its low
/// bits (`tick & mask`), not a division.
struct TickWheel {
    counts: Vec<u64>,
    width: usize,
    mask: u64,
}

impl TickWheel {
    /// Counters a wheel of `len` ticks and `width` columns allocates.
    fn slots(len: u64, width: u64) -> u64 {
        len.checked_next_power_of_two().map_or(u64::MAX, |rows| rows.saturating_mul(width))
    }

    fn new(len: u64, width: usize) -> Self {
        let rows = len.next_power_of_two();
        TickWheel { counts: vec![0; rows as usize * width], width, mask: rows - 1 }
    }

    fn slot(&self, tick: u64, col: usize) -> usize {
        debug_assert!(col < self.width, "column {col} of a {}-column wheel", self.width);
        (tick & self.mask) as usize * self.width + col
    }

    fn add(&mut self, tick: u64, col: usize, n: u64) {
        let at = self.slot(tick, col);
        if let Some(count) = self.counts.get_mut(at) {
            *count += n;
        }
    }

    fn take(&mut self, tick: u64, col: usize) -> u64 {
        let at = self.slot(tick, col);
        self.counts.get_mut(at).map_or(0, std::mem::take)
    }
}

/// End-of-run counters; the conservation oracles audit these.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// First attempts issued by closed-loop clients.
    pub issued_fresh: u64,
    /// Retry attempts issued by closed-loop clients.
    pub issued_retry: u64,
    /// Open-arrival requests issued.
    pub issued_open: u64,
    /// Requests fast-failed by the circuit breaker.
    pub rejected_breaker: u64,
    /// Requests rejected by depth shedding.
    pub rejected_shed: u64,
    /// Requests rejected by the hard queue capacity bound.
    pub rejected_cap: u64,
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Closed-loop requests served before their issuer's deadline.
    pub served_live: u64,
    /// Open-arrival requests served before their deadline.
    pub served_open: u64,
    /// Requests served after their issuer gave up (wasted work).
    pub served_orphan: u64,
    /// Orphaned requests discarded unserved by age shedding.
    pub dropped_expired: u64,
    /// Closed-loop requests whose issuer timed out waiting.
    pub timeouts: u64,
    /// Open-arrival requests that timed out waiting.
    pub open_timeouts: u64,
    /// Retries granted and scheduled (after budget clamping).
    pub retries_scheduled: u64,
    /// Operations abandoned (retries exhausted or budget-refused).
    pub gave_up: u64,
    /// Live closed-loop requests still queued at the horizon.
    pub queue_live_end: u64,
    /// Live open-arrival requests still queued at the horizon.
    pub queue_open_end: u64,
    /// Orphaned requests still queued at the horizon.
    pub queue_orphan_end: u64,
    /// Clients still waiting out a backoff at the horizon.
    pub backoff_end: u64,
    /// Clients thinking (or past-horizon scheduled) at the horizon.
    pub think_end: u64,
    /// Total service credit accrued (requests' worth of capacity).
    pub capacity_credit: f64,
    /// First tick on which any admission was rejected, if any.
    pub first_reject_tick: Option<u64>,
}

/// Per-tick series and totals recorded for the oracles and experiments.
#[derive(Clone, Debug)]
pub struct RunTrace {
    /// Engine tick length.
    pub dt: SimDuration,
    /// Ticks executed.
    pub ticks: u64,
    /// Ticks per simulated second.
    pub ticks_per_sec: u64,
    /// Live (non-orphan) requests served, per tick.
    pub goodput: Vec<u64>,
    /// First tick with degraded capacity (multiplier < 1), if any.
    pub first_degraded: Option<u64>,
    /// Last tick with degraded capacity, if any.
    pub last_degraded: Option<u64>,
    /// End-of-run counters.
    pub totals: Totals,
}

impl RunTrace {
    /// Goodput folded into per-second sums.
    pub fn goodput_per_sec(&self) -> Vec<u64> {
        self.goodput.chunks(self.ticks_per_sec as usize).map(|c| c.iter().sum()).collect()
    }

    /// Total live requests served.
    pub fn total_goodput(&self) -> u64 {
        self.totals.served_live + self.totals.served_open
    }

    /// Degraded (trigger) span in whole seconds `(first, last)`, if the
    /// run saw any capacity dip.
    pub fn degraded_secs(&self) -> Option<(u64, u64)> {
        match (self.first_degraded, self.last_degraded) {
            (Some(a), Some(b)) => Some((a / self.ticks_per_sec, b / self.ticks_per_sec)),
            _ => None,
        }
    }
}

struct Engine<'a> {
    cfg: Config,
    trigger: &'a SlowdownProfile,
    /// Where the last tick read the trigger; ticks read it in time order.
    trigger_at: Cursor,
    queue: ServerQueue,
    budget: Option<RetryBudget>,
    breaker: Option<CircuitBreaker>,
    predictor: Option<(FailurePredictor, ShedConfig, f64, f64)>,
    pred_armed: bool,
    plain_shed: Option<ShedConfig>,
    /// Clients thinking, by the tick of their next fresh issue.
    think_wheel: TickWheel,
    /// Clients backing off, by retry tick; column `a - 2` holds those
    /// about to make attempt `a`.
    backoff_wheel: TickWheel,
    jitter: Stream,
    credit: f64,
    open_acc: f64,
    tick: u64,
    timeout_ticks: u64,
    think_ticks: u64,
    dt_secs: f64,
    waiting: u64,
    in_backoff: u64,
    in_think: u64,
    totals: Totals,
    trace: RunTrace,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: Config,
        trigger: &'a SlowdownProfile,
        mitigation: Mitigation,
        rng: &mut Stream,
    ) -> Self {
        let checked = cfg.validate();
        assert!(checked.is_ok(), "invalid metastable config: {:?}", checked);
        let ticks = cfg.ticks();
        let ticks_per_sec = cfg.ticks_per_sec();
        let think_ticks = cfg.dur_ticks(cfg.think);
        let timeout_ticks = cfg.dur_ticks(cfg.policy.timeout);
        let (breaker, plain_shed, predictor) = match mitigation {
            Mitigation::None => (None, None, None),
            Mitigation::Shed(s) => (None, Some(s), None),
            Mitigation::Breaker(b) => (Some(CircuitBreaker::new(b)), None, None),
            Mitigation::PredictiveShed { shed, predictor, level, decline } => {
                (None, None, Some((FailurePredictor::new(predictor), shed, level, decline)))
            }
        };
        let mut think_wheel = TickWheel::new(cfg.think_wheel_ticks(), 1);
        if cfg.initial_burst {
            think_wheel.add(0, 0, cfg.population);
        } else {
            // Stagger first issues uniformly over one think time, with a
            // seeded phase so replicates de-correlate.
            let phase = rng.derive("meta-stagger").next_below(think_ticks);
            let mut prev = 0;
            for s in 0..think_ticks {
                let cum = cfg.population * (s + 1) / think_ticks;
                let c = cum - prev;
                prev = cum;
                think_wheel.add((s + phase) % think_ticks, 0, c);
            }
        }
        let retry_columns = (cfg.policy.max_attempts - 1) as usize;
        Engine {
            cfg,
            trigger,
            trigger_at: Cursor::default(),
            queue: ServerQueue::new(cfg.queue_cap),
            budget: cfg.budget.map(RetryBudget::new),
            breaker,
            predictor,
            pred_armed: false,
            plain_shed,
            think_wheel,
            backoff_wheel: TickWheel::new(cfg.backoff_wheel_ticks(), retry_columns),
            jitter: rng.derive("meta-jitter"),
            credit: 0.0,
            open_acc: 0.0,
            tick: 0,
            timeout_ticks,
            think_ticks,
            dt_secs: cfg.dt.as_secs_f64(),
            waiting: 0,
            in_backoff: 0,
            in_think: cfg.population,
            totals: Totals::default(),
            trace: RunTrace {
                dt: cfg.dt,
                ticks,
                ticks_per_sec,
                goodput: Vec::with_capacity(ticks as usize),
                first_degraded: None,
                last_degraded: None,
                totals: Totals::default(),
            },
        }
    }

    /// Spreads `n` clients' next fresh issues over a few ticks starting
    /// one think time after `t` (a seeded phase picks the remainder slot
    /// so lockstep cohorts de-correlate across replicates).
    fn schedule_think(&mut self, t: u64, n: u64) {
        if n == 0 {
            return;
        }
        let base = t + self.think_ticks;
        let phase = self.jitter.next_below(THINK_SPREAD);
        let per = n / THINK_SPREAD;
        let rem = n % THINK_SPREAD;
        for s in 0..THINK_SPREAD {
            let c = per + if s == phase { rem } else { 0 };
            self.think_wheel.add(base + s, 0, c);
        }
        self.in_think += n;
    }

    /// Routes `n` failed closed-loop attempts (timeout or rejection) at
    /// attempt number `attempt`: budget-clamped retry after backoff, or
    /// give up and think.
    fn fail_path(&mut self, t: u64, attempt: u32, n: u64) {
        let retryable = if attempt < self.cfg.policy.max_attempts { n } else { 0 };
        let granted = match &mut self.budget {
            Some(b) => b.grant(retryable),
            None => retryable,
        };
        let refused = n - granted;
        if granted > 0 {
            let delay = self.cfg.dur_ticks(self.cfg.policy.backoff.delay(attempt));
            self.backoff_wheel.add(t + delay, attempt as usize - 1, granted);
            self.in_backoff += granted;
            self.totals.retries_scheduled += granted;
        }
        if refused > 0 {
            self.totals.gave_up += refused;
            self.schedule_think(t, refused);
        }
    }

    /// Admits one issuing batch through breaker → shed → capacity, in
    /// that order, routing rejected closed-loop clients to the retry
    /// path.
    fn admit(
        &mut self,
        t: u64,
        attempt: u32,
        n: u64,
        open: bool,
        shed: Option<ShedConfig>,
        admit_left: &mut Option<u64>,
    ) {
        if open {
            self.totals.issued_open += n;
        } else if attempt > 1 {
            self.totals.issued_retry += n;
        } else {
            self.totals.issued_fresh += n;
        }
        let mut remaining = n;
        let mut rej_breaker = 0;
        if let Some(left) = admit_left {
            let a = remaining.min(*left);
            rej_breaker = remaining - a;
            *left -= a;
            remaining = a;
        }
        let mut rej_shed = 0;
        if let Some(s) = shed {
            let room = s.max_depth.saturating_sub(self.queue.depth());
            let a = remaining.min(room);
            rej_shed = remaining - a;
            remaining = a;
        }
        let room = self.queue.free_slots();
        let a = remaining.min(room);
        let rej_cap = remaining - a;
        remaining = a;

        self.totals.rejected_breaker += rej_breaker;
        self.totals.rejected_shed += rej_shed;
        self.totals.rejected_cap += rej_cap;
        let rejected = rej_breaker + rej_shed + rej_cap;
        if rejected > 0 && self.totals.first_reject_tick.is_none() {
            self.totals.first_reject_tick = Some(t);
        }
        if remaining > 0 {
            self.totals.admitted += remaining;
            self.queue.push(Cohort {
                deadline_tick: t + self.timeout_ticks,
                attempt,
                remaining,
                open,
            });
            if !open {
                self.waiting += remaining;
            }
        }
        if rejected > 0 && !open {
            self.fail_path(t, attempt, rejected);
        }
    }

    /// One engine tick: serve, expire, issue, record.
    fn step(&mut self, now: SimTime) {
        let t = self.tick;
        let mult = self.trigger.multiplier_from(&mut self.trigger_at, now);
        if mult < 1.0 - 1e-9 {
            if self.trace.first_degraded.is_none() {
                self.trace.first_degraded = Some(t);
            }
            self.trace.last_degraded = Some(t);
        }
        if let Some((p, _, level, decline)) = &mut self.predictor {
            p.observe(now, mult);
            self.pred_armed = p.trend_crossed(*level, *decline);
        }
        let shed = match (&self.plain_shed, &self.predictor) {
            (Some(s), _) => Some(*s),
            (None, Some((_, s, _, _))) if self.pred_armed => Some(*s),
            _ => None,
        };
        if let Some(b) = &mut self.breaker {
            b.begin_tick();
        }

        // Serve. Unused capacity is lost (no banking across an idle
        // queue beyond one request's worth of fractional carry).
        let accrued = self.cfg.service_rate * mult * self.dt_secs;
        self.credit += accrued;
        self.totals.capacity_credit += accrued;
        let drop_expired = shed.map(|s| s.drop_expired).unwrap_or(false);
        let served = self.queue.serve(&mut self.credit, drop_expired);
        if self.queue.depth() == 0 {
            self.credit = self.credit.min(1.0);
        }
        self.totals.served_live += served.live_closed;
        self.totals.served_open += served.live_open;
        self.totals.served_orphan += served.orphan;
        self.totals.dropped_expired += served.dropped_expired;
        if let Some(b) = &mut self.breaker {
            b.record(served.live_closed + served.live_open, 0);
        }
        if let Some(bud) = &mut self.budget {
            bud.deposit(served.live_closed);
        }
        self.waiting -= served.live_closed;
        self.schedule_think(t, served.live_closed);

        // Timeouts: unserved remainders orphan, issuers retry or give up.
        while let Some(e) = self.queue.expire_next(t) {
            if let Some(b) = &mut self.breaker {
                b.record(0, e.count);
            }
            if e.open {
                self.totals.open_timeouts += e.count;
            } else {
                self.totals.timeouts += e.count;
                self.waiting -= e.count;
                self.fail_path(t, e.attempt, e.count);
            }
        }

        // Issue: retries (ascending attempt), then fresh, then open.
        let mut admit_left = self.breaker.as_ref().and_then(|b| b.admit_limit());
        for attempt in 2..=self.cfg.policy.max_attempts {
            let count = self.backoff_wheel.take(t, attempt as usize - 2);
            if count > 0 {
                self.in_backoff -= count;
                self.admit(t, attempt, count, false, shed, &mut admit_left);
            }
        }
        let fresh = self.think_wheel.take(t, 0);
        if fresh > 0 {
            self.in_think -= fresh;
            self.admit(t, 1, fresh, false, shed, &mut admit_left);
        }
        self.open_acc += self.cfg.open_per_sec * self.dt_secs;
        let n_open = self.open_acc as u64;
        if n_open > 0 {
            self.open_acc -= n_open as f64;
            self.admit(t, 1, n_open, true, shed, &mut admit_left);
        }

        // Record.
        self.trace.goodput.push(served.live_closed + served.live_open);
        assert!(
            self.waiting + self.in_backoff + self.in_think == self.cfg.population,
            "client conservation broken at tick {t}"
        );
        self.tick += 1;
    }

    fn finish(mut self) -> RunTrace {
        let (live, open, orphan) = self.queue.census();
        debug_assert_eq!(self.waiting, live, "waiting clients must equal live queued requests");
        self.totals.queue_live_end = live;
        self.totals.queue_open_end = open;
        self.totals.queue_orphan_end = orphan;
        self.totals.backoff_end = self.in_backoff;
        self.totals.think_end = self.in_think;
        self.trace.totals = self.totals;
        self.trace
    }
}

/// Runs the closed loop to the horizon under `trigger` and `mitigation`.
///
/// Deterministic given `(config, trigger, rng)`: one [`Config::ticks`]
/// loop of fixed `dt` steps, with no event queue involved.
pub fn run(
    cfg: &Config,
    trigger: &SlowdownProfile,
    mitigation: Mitigation,
    rng: &mut Stream,
) -> RunTrace {
    let mut engine = Engine::new(*cfg, trigger, mitigation, rng);
    let mut now = SimTime::ZERO;
    for _ in 0..engine.trace.ticks {
        engine.step(now);
        now += cfg.dt;
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::trigger_window;
    use std::collections::BTreeMap;

    fn small() -> Config {
        Config {
            population: 400,
            think: SimDuration::from_secs(10),
            policy: RetryPolicy {
                timeout: SimDuration::from_secs(1),
                max_attempts: 3,
                backoff: Backoff {
                    base: SimDuration::from_millis(500),
                    cap: SimDuration::from_millis(500),
                },
            },
            budget: None,
            service_rate: 60.0,
            queue_cap: 600,
            dt: SimDuration::from_millis(50),
            horizon: SimDuration::from_secs(120),
            open_per_sec: 0.0,
            initial_burst: false,
        }
    }

    fn outage(start: u64, secs: u64) -> SlowdownProfile {
        SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(start), 0.0),
            (SimTime::from_secs(start + secs), 1.0),
        ])
    }

    #[test]
    fn validate_rejects_non_dividing_dt() {
        // A `Result`, not a `debug_assert!`: the check must hold in
        // release builds too, where a 7 ms tick would silently truncate
        // `ticks_per_sec` and reshape every per-second rate.
        let mut cfg = small();
        assert!(cfg.validate().is_ok());
        cfg.dt = SimDuration::from_millis(7);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("divide one second"), "{err}");
        cfg.dt = SimDuration::ZERO;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_names_the_offending_knob() {
        let mut cfg = small();
        cfg.population = 0;
        assert!(cfg.validate().unwrap_err().contains("population"));
        let mut cfg = small();
        cfg.service_rate = 0.0;
        assert!(cfg.validate().unwrap_err().contains("service rate"));
        let mut cfg = small();
        cfg.policy.max_attempts = 0;
        assert!(cfg.validate().unwrap_err().contains("attempt"));
    }

    #[test]
    fn validate_caps_the_tick_wheels() {
        // The wheels are sized from public fields, so a config must not
        // be able to make the engine allocate without bound.
        let mut cfg = small();
        cfg.think = SimDuration::from_secs(60_000);
        let err = cfg.validate().unwrap_err();
        assert!(err.contains("think") && err.contains("cap"), "{err}");
        let mut cfg = small();
        cfg.policy.max_attempts = u32::MAX;
        assert!(cfg.validate().unwrap_err().contains("policy.max_attempts"));
        let mut cfg = small();
        let fixed = SimDuration::from_secs(60_000);
        cfg.policy.backoff = Backoff { base: fixed, cap: fixed };
        assert!(cfg.validate().unwrap_err().contains("policy.backoff"));
        // A wheel of exactly the cap is still a valid configuration, and
        // rounding its ring up to a power of two allocates no more.
        let mut cfg = small();
        cfg.think = cfg.dt.mul_f64((MAX_WHEEL_SLOTS - THINK_SPREAD) as f64);
        assert!(cfg.validate().is_ok());
        let think = TickWheel::new(cfg.think_wheel_ticks(), 1);
        assert!(think.counts.len() as u64 <= MAX_WHEEL_SLOTS);
        // Two backoff columns of half the cap each.
        let mut cfg = small();
        let longest = cfg.dt.mul_f64((MAX_WHEEL_SLOTS / 2 - 1) as f64);
        cfg.policy.backoff = Backoff { base: longest, cap: longest };
        assert!(cfg.validate().is_ok());
        let backoff = TickWheel::new(cfg.backoff_wheel_ticks(), 2);
        assert!(backoff.counts.len() as u64 <= MAX_WHEEL_SLOTS);
        // Three columns of 2^18 + 1 ticks ask for fewer slots than the
        // cap, but their ring rounds up to 2^19 rows: refused.
        let mut cfg = small();
        cfg.policy.max_attempts = 4;
        let longest = cfg.dt.mul_f64((MAX_WHEEL_SLOTS / 4) as f64);
        cfg.policy.backoff = Backoff { base: longest, cap: longest };
        assert!(3 * cfg.backoff_wheel_ticks() < MAX_WHEEL_SLOTS);
        assert!(cfg.validate().unwrap_err().contains("policy.backoff"));
    }

    #[test]
    fn tick_wheels_match_the_map_they_stand_in_for() {
        // The campaign config's backoff wheel (21 ticks, two columns) and
        // think wheel (204 ticks): neither length is a power of two.
        let cfg = Config::campaign();
        assert_eq!((cfg.backoff_wheel_ticks(), cfg.think_wheel_ticks()), (21, 204));
        for (len, width) in [(21, 2), (204, 1)] {
            let mut wheel = TickWheel::new(len, width);
            let mut model: BTreeMap<(u64, usize), u64> = BTreeMap::new();
            let mut rng = Stream::from_seed(len).derive("tick-wheel-model");
            for tick in 0..20 * len {
                for _ in 0..rng.next_below(4) {
                    let at = tick + rng.next_below(len);
                    let col = rng.next_below(width as u64) as usize;
                    let n = 1 + rng.next_below(1_000);
                    wheel.add(at, col, n);
                    *model.entry((at, col)).or_default() += n;
                }
                for col in 0..width {
                    let want = model.remove(&(tick, col)).unwrap_or(0);
                    assert_eq!(wheel.take(tick, col), want, "{len}-tick wheel, tick {tick}");
                }
            }
        }
    }

    #[test]
    fn quiet_run_conserves_and_serves() {
        let mut rng = Stream::from_seed(7).derive("meta-engine-test-quiet");
        let cfg = small();
        let tr = run(&cfg, &SlowdownProfile::nominal(), Mitigation::None, &mut rng);
        let t = tr.totals;
        assert_eq!(t.issued_fresh + t.issued_retry, t.admitted);
        assert_eq!(t.timeouts, 0);
        assert_eq!(t.served_orphan, 0);
        // ~40 req/s for ~120 s, minus ramp-in.
        assert!(t.served_live > 4_000, "goodput too low: {}", t.served_live);
        assert_eq!(cfg.population, t.queue_live_end + t.backoff_end + t.think_end);
    }

    #[test]
    fn outage_orphans_and_retries() {
        let mut rng = Stream::from_seed(7).derive("meta-engine-test-outage");
        let cfg = small();
        let tr = run(&cfg, &outage(30, 10), Mitigation::None, &mut rng);
        let t = tr.totals;
        assert!(t.timeouts > 0, "an outage longer than the timeout must time out waiters");
        assert!(t.issued_retry > 0, "timeouts must schedule retries");
        assert!(t.served_orphan > 0, "orphaned work must be served after the outage");
        assert_eq!(t.issued_fresh + t.issued_retry, t.admitted + t.rejected_cap);
        assert_eq!(
            t.admitted,
            t.served_live
                + t.served_orphan
                + t.dropped_expired
                + t.queue_live_end
                + t.queue_orphan_end
        );
        assert_eq!(t.timeouts, t.served_orphan + t.dropped_expired + t.queue_orphan_end);
        assert_eq!(t.retries_scheduled, t.issued_retry + t.backoff_end);
    }

    #[test]
    fn capacity_bound_holds() {
        let mut rng = Stream::from_seed(7).derive("meta-engine-test-capacity");
        let cfg = small();
        let tr = run(&cfg, &outage(30, 10), Mitigation::None, &mut rng);
        let served =
            (tr.totals.served_live + tr.totals.served_open + tr.totals.served_orphan) as f64;
        assert!(served <= tr.totals.capacity_credit + 1.0);
    }

    #[test]
    fn windowed_trigger_marks_degraded_span() {
        let mut rng = Stream::from_seed(7).derive("meta-engine-test-window");
        let cfg = small();
        let src = SlowdownProfile::from_breakpoints(vec![(SimTime::ZERO, 0.3)]);
        let w = trigger_window(&src, SimTime::from_secs(30), SimDuration::from_secs(10), 100.0);
        let tr = run(&cfg, &w, Mitigation::None, &mut rng);
        let (a, b) = tr.degraded_secs().expect("window must register as degraded");
        assert_eq!((a, b), (30, 39));
    }
}
