//! Push-pull anti-entropy dissemination of performance state.
//!
//! Every node locally watches one component (its own disk, NIC, or CPU —
//! the paper's "each component monitors itself" reading of §3.1) through
//! the same pipeline the single-process registry uses: raw rate samples,
//! EWMA smoothing, a peer-relative classification round (no a-priori spec
//! needed — [`stutter::detect::PeerRelativeDetector`] compares the node
//! against the rates the plane itself has gossiped), and a
//! [`stutter::registry::Registry`] persistence filter. Exported edges mint
//! new versioned entries; a heartbeat republish keeps ages bounded.
//!
//! Dissemination is classic push-pull gossip: every `gossip_interval` each
//! node pushes its full digest to `fanout` random peers over
//! [`netsim::mesh::Mesh`] links; a receiver merges what is fresher and
//! replies with what *it* knows that the sender does not. Because the
//! carrier is made of ordinary [`netsim::link::Link`]s, the plane itself
//! can stutter: slow links delay convergence, dead links partition it —
//! and the oracles in [`crate::oracle`] pin down exactly what consumers
//! may still assume.
//!
//! The absolute-failure rule is the paper's threshold `T`
//! ([`PlaneConfig::fail_threshold`]): only a component observed at zero
//! rate continuously for `T` is declared failed and tombstoned. A slow or
//! black-holed *link* can therefore never fabricate a fail-stop — the
//! no-false-fail-stop oracle holds by construction.

use std::rc::Rc;

use simcore::rng::Stream;
use simcore::sim::EventQueue;
use simcore::stats::Ewma;
use simcore::time::{SimDuration, SimTime};
use stutter::detect::PeerRelativeDetector;
use stutter::fault::{ComponentId, HealthState};
use stutter::injector::SlowdownProfile;
use stutter::registry::Registry;

use netsim::mesh::Mesh;

use crate::entry::{HealthEntry, NodeId, Store};
use crate::oracle::longest_outage;
use crate::view::{StalenessConfig, StalenessView};

/// Tunables of one plane deployment.
#[derive(Clone, Debug)]
pub struct PlaneConfig {
    /// Peers each node pushes to per gossip round.
    pub fanout: usize,
    /// Time between gossip rounds.
    pub gossip_interval: SimDuration,
    /// Time between local rate observations.
    pub observe_interval: SimDuration,
    /// Heartbeat republish period: bounds entry age while healthy.
    pub refresh_interval: SimDuration,
    /// The paper's threshold `T`: a component at zero rate for this long
    /// is absolutely failed and tombstoned.
    pub fail_threshold: SimDuration,
    /// Registry persistence window for class-change exports.
    pub persistence: SimDuration,
    /// Peer-relative fault fraction (below `fraction · median` is faulty).
    pub peer_fraction: f64,
    /// EWMA smoothing factor for local observations.
    pub ewma_alpha: f64,
    /// Gossip carrier link rate, bytes/second.
    pub link_rate: f64,
    /// Gossip carrier propagation latency.
    pub link_latency: SimDuration,
    /// Serialised bytes per digest entry (plus a fixed 64-byte header).
    pub entry_bytes: u64,
    /// How long the plane runs.
    pub horizon: SimDuration,
    /// Staleness policy handed to consumer views.
    pub staleness: StalenessConfig,
}

impl PlaneConfig {
    /// Checks the constraints [`run_plane`] relies on; the error names the
    /// offending field. A zero interval would re-arm its periodic event
    /// at the same instant forever, so the run would never reach its
    /// horizon.
    pub fn validate(&self) -> Result<(), String> {
        for (name, interval) in [
            ("observe_interval", self.observe_interval),
            ("refresh_interval", self.refresh_interval),
            ("gossip_interval", self.gossip_interval),
        ] {
            if interval.is_zero() {
                return Err(format!("{name} must be positive"));
            }
        }
        if self.fanout < 1 {
            return Err("fanout must be at least 1".to_string());
        }
        Ok(())
    }
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            fanout: 2,
            gossip_interval: SimDuration::from_secs(2),
            observe_interval: SimDuration::from_secs(1),
            refresh_interval: SimDuration::from_secs(10),
            fail_threshold: SimDuration::from_secs(30),
            persistence: SimDuration::from_secs(5),
            peer_fraction: 0.75,
            ewma_alpha: 0.3,
            link_rate: 1e6,
            link_latency: SimDuration::from_millis(1),
            entry_bytes: 64,
            horizon: SimDuration::from_secs(600),
            staleness: StalenessConfig::default(),
        }
    }
}

/// One component under observation: node `i` watches component `i`.
#[derive(Clone, Debug)]
pub struct ObservedComponent {
    /// Nominal (spec) rate in units/second.
    pub nominal: f64,
    /// The injected truth the node samples.
    pub profile: SlowdownProfile,
}

/// A full plane deployment: config, observed truth, carrier timelines.
#[derive(Clone, Debug)]
pub struct PlaneSpec {
    /// Plane tunables.
    pub config: PlaneConfig,
    /// One observed component per node.
    pub components: Vec<ObservedComponent>,
    /// Optional fail-stutter timeline per directed link, indexed
    /// `from * n + to`.
    pub link_profiles: Vec<Option<SlowdownProfile>>,
}

impl PlaneSpec {
    /// A spec with `n` nodes all observing healthy components at
    /// `nominal`, over healthy links.
    pub fn homogeneous(config: PlaneConfig, n: usize, nominal: f64) -> Self {
        assert!(n >= 2, "a plane needs at least two nodes, got {n}");
        PlaneSpec {
            config,
            components: (0..n)
                .map(|_| ObservedComponent { nominal, profile: SlowdownProfile::nominal() })
                .collect(),
            link_profiles: vec![None; n * n],
        }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.components.len()
    }

    /// Attaches a timeline to the directed gossip link `from → to`.
    pub fn set_link_profile(&mut self, from: usize, to: usize, profile: SlowdownProfile) {
        let n = self.nodes();
        assert!(from < n && to < n && from != to, "bad link ({from} -> {to})");
        let idx = from * n + to;
        self.link_profiles[idx] = Some(profile);
    }

    /// A copy of this spec with every link additionally slowed by
    /// `factor` — the degraded twin for the plane-degraded metamorphic
    /// oracle.
    pub fn degraded(&self, factor: f64) -> PlaneSpec {
        assert!(factor > 0.0 && factor <= 1.0, "degrade factor must be in (0,1], got {factor}");
        let slow = SlowdownProfile::from_breakpoints(vec![(SimTime::ZERO, factor)]);
        let n = self.nodes();
        let mut out = self.clone();
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                let idx = from * n + to;
                let p = &mut out.link_profiles[idx];
                *p = Some(match p.take() {
                    Some(existing) => existing.compose(&slow),
                    None => slow.clone(),
                });
            }
        }
        out
    }
}

/// Transport and dissemination counters for one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Push digests handed to the carrier.
    pub pushes_sent: u64,
    /// Push digests lost to permanently-dead links.
    pub pushes_dropped: u64,
    /// Pull replies handed to the carrier.
    pub replies_sent: u64,
    /// Digests delivered (pushes and replies).
    pub delivered: u64,
    /// Entries accepted by a merge anywhere.
    pub merges: u64,
    /// Entries minted by origins (edges, heartbeats, tombstones).
    pub local_publishes: u64,
    /// Fail-stop tombstones minted.
    pub tombstones: u64,
    /// Payload bytes accepted by the carrier.
    pub carrier_bytes: u64,
}

/// The outcome of one plane run: per-node staleness views plus metadata
/// the oracles need.
#[derive(Clone, Debug)]
pub struct PlaneRun {
    /// One queryable view per node, in node order.
    pub views: Vec<StalenessView>,
    /// Transport counters.
    pub stats: PlaneStats,
    /// Config echo (oracles derive the convergence allowance from it).
    pub config: PlaneConfig,
    /// Ground truth per component: did its profile actually fail-stop
    /// (zero rate for ≥ `fail_threshold`, or an absolute failure) within
    /// the horizon?
    pub truly_failed: Vec<bool>,
    /// End of the simulated window (`SimTime::ZERO + config.horizon`).
    pub end: SimTime,
}

impl PlaneRun {
    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.views.len()
    }
}

/// One event of the plane's dispatch loop.
enum Event {
    /// Node `i` samples its component; re-arms every `observe_interval`.
    Observe(usize),
    /// Node `i` republishes its heartbeat; re-arms every `refresh_interval`.
    Refresh(usize),
    /// Node `i` pushes its digest to `fanout` peers; re-arms every
    /// `gossip_interval`.
    Gossip(usize),
    /// A push digest from `from` arrives at `to`.
    Push { from: usize, to: usize, entries: Rc<[HealthEntry]> },
    /// The pull reply to a push arrives back at its sender `to`.
    Reply { to: usize, entries: Vec<HealthEntry> },
}

struct NodeState {
    store: Store,
    ewma: Ewma,
    registry: Registry,
    rng: Stream,
    zero_since: Option<SimTime>,
    next_seq: u64,
    tombstoned: bool,
}

struct SimState {
    cfg: PlaneConfig,
    components: Vec<ObservedComponent>,
    detector: PeerRelativeDetector,
    mesh: Mesh,
    nodes: Vec<NodeState>,
    stats: PlaneStats,
    /// `observe`'s peer-relative round, reused across calls.
    rates: Vec<f64>,
}

impl SimState {
    fn publish(&mut self, i: usize, now: SimTime, state: HealthState, rate: f64) {
        let node = &mut self.nodes[i];
        node.next_seq += 1;
        let entry = HealthEntry {
            component: ComponentId(i as u32),
            origin: NodeId(i as u32),
            seq: node.next_seq,
            state,
            rate,
            observed_at: now,
        };
        if node.store.merge(now, entry) {
            self.stats.local_publishes += 1;
            if entry.is_tombstone() {
                self.stats.tombstones += 1;
                node.tombstoned = true;
            }
        }
    }

    fn observe(&mut self, i: usize, now: SimTime) {
        if self.nodes[i].tombstoned {
            return;
        }
        let comp = &self.components[i];
        let raw = comp.nominal * comp.profile.multiplier_at(now);
        self.nodes[i].ewma.observe(raw);
        let smoothed = self.nodes[i].ewma.value_or(0.0);

        let verdict = if raw <= 0.0 {
            // Below the threshold `T` a silent device is still only
            // *suspect*; at `T` it is absolutely failed (paper §3.1).
            let since = *self.nodes[i].zero_since.get_or_insert(now);
            (now.saturating_since(since) >= self.cfg.fail_threshold).then_some(HealthState::Failed)
        } else {
            self.nodes[i].zero_since = None;
            (smoothed > 0.0).then(|| {
                // Peer-relative round: own smoothed rate first, then the
                // peer rates the plane itself has delivered so far.
                let rates = &mut self.rates;
                rates.clear();
                rates.push(smoothed);
                rates.extend(
                    self.nodes[i]
                        .store
                        .latest()
                        .filter(|e| {
                            e.component != ComponentId(i as u32)
                                && !e.is_tombstone()
                                && e.rate > 0.0
                        })
                        .map(|e| e.rate),
                );
                self.detector.classify_round(rates)[0]
            })
        };
        let Some(verdict) = verdict else { return };
        if let Some(n) = self.nodes[i].registry.report(ComponentId(i as u32), now, verdict) {
            let rate = if matches!(n.state, HealthState::Failed) { 0.0 } else { smoothed };
            self.publish(i, now, n.state, rate);
        }
    }

    fn heartbeat(&mut self, i: usize, now: SimTime) {
        if self.nodes[i].tombstoned || self.nodes[i].ewma.value().is_none() {
            return;
        }
        let state = self.nodes[i].registry.exported(ComponentId(i as u32));
        let smoothed = self.nodes[i].ewma.value_or(0.0);
        self.publish(i, now, state, smoothed);
    }

    fn pick_peers(&mut self, i: usize) -> Vec<usize> {
        let n = self.nodes.len();
        let k = self.cfg.fanout.min(n - 1);
        let mut peers = Vec::with_capacity(k);
        while peers.len() < k {
            let mut p = self.nodes[i].rng.next_below((n - 1) as u64) as usize;
            if p >= i {
                p += 1;
            }
            if !peers.contains(&p) {
                peers.push(p);
            }
        }
        peers
    }

    fn payload_bytes(&self, entries: usize) -> u64 {
        64 + self.cfg.entry_bytes * entries as u64
    }

    fn gossip_round(&mut self, i: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        let digest = self.nodes[i].store.snapshot();
        if digest.is_empty() {
            return;
        }
        let bytes = self.payload_bytes(digest.len());
        for to in self.pick_peers(i) {
            self.stats.pushes_sent += 1;
            match self.mesh.send(i, to, now, bytes) {
                Some(d) => {
                    let entries = Rc::clone(&digest);
                    queue.schedule_at(d.arrive, Event::Push { from: i, to, entries });
                }
                None => self.stats.pushes_dropped += 1,
            }
        }
    }

    fn receive_push(
        &mut self,
        from: usize,
        to: usize,
        entries: &[HealthEntry],
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        // Pull half first, against the digest as sent: everything the
        // receiver holds that is fresher than the sender's view.
        let reply = self.nodes[to].store.fresher_than(entries);
        self.deliver(to, entries, now);
        if reply.is_empty() {
            return;
        }
        let bytes = self.payload_bytes(reply.len());
        self.stats.replies_sent += 1;
        if let Some(d) = self.mesh.send(to, from, now, bytes) {
            queue.schedule_at(d.arrive, Event::Reply { to: from, entries: reply });
        }
    }

    /// Merges a delivered digest (push or reply) into node `to`'s store.
    fn deliver(&mut self, to: usize, entries: &[HealthEntry], now: SimTime) {
        self.stats.delivered += 1;
        for &e in entries {
            if self.nodes[to].store.merge(now, e) {
                self.stats.merges += 1;
            }
        }
    }
}

/// Ground truth: did the component's profile absolutely fail within the
/// horizon, under the threshold rule `T = fail_threshold`?
fn profile_fails(profile: &SlowdownProfile, threshold: SimDuration, horizon: SimDuration) -> bool {
    longest_outage(profile, horizon) >= threshold
}

/// Runs one plane deployment to its horizon and returns the per-node
/// views. Pure: the result is a function of `spec` and `rng` alone.
pub fn run_plane(spec: &PlaneSpec, rng: &mut Stream) -> PlaneRun {
    let n = spec.nodes();
    assert!(n >= 2, "a plane needs at least two nodes, got {n}");
    assert_eq!(spec.link_profiles.len(), n * n, "link profile matrix must be n*n");
    let cfg = spec.config.clone();
    let checked = cfg.validate();
    assert!(checked.is_ok(), "invalid plane config: {checked:?}");

    let mut mesh = Mesh::homogeneous(n, cfg.link_rate, cfg.link_latency);
    for from in 0..n {
        for to in 0..n {
            if from == to {
                continue; // the diagonal carries nothing
            }
            let idx = from * n + to;
            if let Some(p) = &spec.link_profiles[idx] {
                mesh.set_profile(from, to, p.clone());
            }
        }
    }

    let nodes = (0..n)
        .map(|i| NodeState {
            store: Store::new(),
            ewma: Ewma::new(cfg.ewma_alpha),
            registry: Registry::new(cfg.persistence),
            rng: rng.derive_index(i as u64),
            zero_since: None,
            next_seq: 0,
            tombstoned: false,
        })
        .collect();

    let truly_failed = spec
        .components
        .iter()
        .map(|c| profile_fails(&c.profile, cfg.fail_threshold, cfg.horizon))
        .collect();

    let mut state = SimState {
        cfg: cfg.clone(),
        components: spec.components.clone(),
        detector: PeerRelativeDetector::new(cfg.peer_fraction),
        mesh,
        nodes,
        stats: PlaneStats::default(),
        rates: Vec::with_capacity(n),
    };

    // Each periodic event re-arms after its handler has scheduled its
    // deliveries, so the re-arm takes the later sequence number.
    let mut queue = EventQueue::new();
    for i in 0..n {
        queue.schedule_at(SimTime::ZERO + cfg.observe_interval, Event::Observe(i));
        queue.schedule_at(SimTime::ZERO + cfg.refresh_interval, Event::Refresh(i));
        queue.schedule_at(SimTime::ZERO + cfg.gossip_interval, Event::Gossip(i));
    }
    let end = SimTime::ZERO + cfg.horizon;
    while let Some(event) = queue.pop_until(end) {
        let now = queue.now();
        match event {
            Event::Observe(i) => {
                state.observe(i, now);
                queue.schedule_at(now + cfg.observe_interval, Event::Observe(i));
            }
            Event::Refresh(i) => {
                state.heartbeat(i, now);
                queue.schedule_at(now + cfg.refresh_interval, Event::Refresh(i));
            }
            Event::Gossip(i) => {
                state.gossip_round(i, now, &mut queue);
                queue.schedule_at(now + cfg.gossip_interval, Event::Gossip(i));
            }
            Event::Push { from, to, entries } => {
                state.receive_push(from, to, &entries, now, &mut queue);
            }
            Event::Reply { to, entries } => state.deliver(to, &entries, now),
        }
    }

    state.stats.carrier_bytes = state.mesh.bytes_sent();
    let stats = state.stats;
    let views = state
        .nodes
        .into_iter()
        .map(|node| StalenessView::new(node.store.into_history(), cfg.staleness))
        .collect();

    PlaneRun { views, stats, config: cfg, truly_failed, end }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::PlaneState;

    fn drift_at(t: SimTime, factor: f64) -> SlowdownProfile {
        SlowdownProfile::from_breakpoints(vec![(SimTime::ZERO, 1.0), (t, factor)])
    }

    #[test]
    fn healthy_plane_reaches_all_ok_views() {
        let spec = PlaneSpec::homogeneous(PlaneConfig::default(), 4, 10e6);
        let run = run_plane(&spec, &mut Stream::from_seed(1));
        for (i, view) in run.views.iter().enumerate() {
            for c in 0..4u32 {
                let q = view.query(ComponentId(c), run.end);
                assert!(
                    matches!(q.state, PlaneState::Known(HealthState::Healthy)),
                    "node {i} sees component {c} as {:?}",
                    q.state
                );
            }
        }
        assert!(run.stats.merges > 0, "gossip must move entries");
        assert_eq!(run.stats.tombstones, 0);
    }

    #[test]
    fn drift_is_disseminated_to_every_node() {
        let mut spec = PlaneSpec::homogeneous(PlaneConfig::default(), 6, 10e6);
        spec.components[0].profile = drift_at(SimTime::from_secs(60), 0.3);
        let run = run_plane(&spec, &mut Stream::from_seed(2));
        for (i, view) in run.views.iter().enumerate() {
            let q = view.query(ComponentId(0), run.end);
            assert!(
                matches!(q.state, PlaneState::Known(HealthState::PerfFaulty { .. })),
                "node {i} sees the drifting disk as {:?}",
                q.state
            );
            let est = view.estimated_rate(ComponentId(0), run.end, 10e6);
            assert!(est < 4.5e6, "node {i} estimate {est} should track the 3 MB/s truth");
        }
    }

    #[test]
    fn true_fail_stop_tombstones_everywhere_and_is_permanent() {
        let mut spec = PlaneSpec::homogeneous(PlaneConfig::default(), 4, 10e6);
        spec.components[1].profile =
            SlowdownProfile::nominal().with_failure_at(SimTime::from_secs(100));
        let run = run_plane(&spec, &mut Stream::from_seed(3));
        assert!(run.truly_failed[1]);
        assert!(run.stats.tombstones >= 1);
        for view in &run.views {
            let q = view.query(ComponentId(1), run.end);
            assert!(matches!(q.state, PlaneState::Known(HealthState::Failed)), "{:?}", q.state);
            assert_eq!(q.confidence, 1.0);
        }
    }

    #[test]
    fn short_blackout_never_tombstones() {
        // 10 s outage < the 30 s threshold T: suspect, never failed.
        let mut spec = PlaneSpec::homogeneous(PlaneConfig::default(), 4, 10e6);
        spec.components[2].profile = SlowdownProfile::from_breakpoints(vec![
            (SimTime::ZERO, 1.0),
            (SimTime::from_secs(60), 0.0),
            (SimTime::from_secs(70), 1.0),
        ]);
        let run = run_plane(&spec, &mut Stream::from_seed(4));
        assert!(!run.truly_failed[2]);
        assert_eq!(run.stats.tombstones, 0);
        for view in &run.views {
            for (_, e) in view.history(ComponentId(2)) {
                assert!(!e.is_tombstone(), "false fail-stop from a bounded stutter");
            }
        }
    }

    #[test]
    fn dead_links_partition_but_do_not_corrupt() {
        // Node 3 is fully cut off from round one.
        let mut spec = PlaneSpec::homogeneous(PlaneConfig::default(), 4, 10e6);
        spec.components[0].profile = drift_at(SimTime::from_secs(30), 0.2);
        let dead = SlowdownProfile::nominal().with_failure_at(SimTime::ZERO);
        for other in 0..3 {
            spec.set_link_profile(other, 3, dead.clone());
            spec.set_link_profile(3, other, dead.clone());
        }
        let run = run_plane(&spec, &mut Stream::from_seed(5));
        // The partitioned node never hears about the drift...
        let q = run.views[3].query(ComponentId(0), run.end);
        assert_eq!(q.state, PlaneState::Unknown);
        // ...but the connected majority still converges on it.
        for i in 0..3 {
            let q = run.views[i].query(ComponentId(0), run.end);
            assert!(matches!(q.state, PlaneState::Known(HealthState::PerfFaulty { .. })));
        }
        assert!(run.stats.pushes_dropped > 0);
    }

    /// The default config with one edit applied, which must be rejected.
    fn rejected(edit: impl FnOnce(&mut PlaneConfig)) -> String {
        let mut cfg = PlaneConfig::default();
        assert_eq!(cfg.validate(), Ok(()));
        edit(&mut cfg);
        cfg.validate().expect_err("the edited config must be rejected")
    }

    #[test]
    fn validate_rejects_zero_observe_interval() {
        let err = rejected(|c| c.observe_interval = SimDuration::ZERO);
        assert!(err.contains("observe_interval"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_refresh_interval() {
        let err = rejected(|c| c.refresh_interval = SimDuration::ZERO);
        assert!(err.contains("refresh_interval"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_gossip_interval() {
        let err = rejected(|c| c.gossip_interval = SimDuration::ZERO);
        assert!(err.contains("gossip_interval"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_fanout() {
        let err = rejected(|c| c.fanout = 0);
        assert!(err.contains("fanout"), "{err}");
    }

    #[test]
    #[should_panic(expected = "gossip_interval")]
    fn run_plane_refuses_a_zero_interval_instead_of_hanging() {
        let config = PlaneConfig { gossip_interval: SimDuration::ZERO, ..PlaneConfig::default() };
        run_plane(&PlaneSpec::homogeneous(config, 4, 10e6), &mut Stream::from_seed(1));
    }

    #[test]
    fn runs_are_deterministic() {
        let mut spec = PlaneSpec::homogeneous(PlaneConfig::default(), 5, 10e6);
        spec.components[0].profile = drift_at(SimTime::from_secs(45), 0.5);
        let a = run_plane(&spec, &mut Stream::from_seed(9));
        let b = run_plane(&spec, &mut Stream::from_seed(9));
        assert_eq!(a.stats, b.stats);
        for (va, vb) in a.views.iter().zip(&b.views) {
            for c in 0..5u32 {
                assert_eq!(va.history(ComponentId(c)), vb.history(ComponentId(c)));
            }
        }
    }
}
