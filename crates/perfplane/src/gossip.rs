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
//! node pushes its full digest to two random peers over
//! [`netsim::mesh::Mesh`] links; a receiver merges what is fresher and
//! replies with what *it* knows that the sender does not. Because the
//! carrier is made of ordinary [`netsim::link::Link`]s, the plane itself
//! can stutter: slow links delay convergence, dead links partition it —
//! and the oracles in [`crate::oracle`] pin down exactly what consumers
//! may still assume.
//!
//! The absolute-failure rule is the paper's threshold `T` (30 s): only a
//! component observed at zero rate continuously for `T` is declared failed
//! and tombstoned. A slow or black-holed *link* can therefore never
//! fabricate a fail-stop — the no-false-fail-stop oracle holds by
//! construction.

use simcore::rng::Stream;
use simcore::sim::EventQueue;
use simcore::stats::Ewma;
use simcore::time::{SimDuration, SimTime};
use stutter::component::Component;
use stutter::detect::PeerRelativeDetector;
use stutter::fault::{ComponentId, HealthState};
use stutter::injector::{Cursor, SlowdownProfile};
use stutter::registry::Registry;

use netsim::mesh::Mesh;

use crate::entry::{HealthEntry, NodeId, Store};
use crate::oracle::longest_outage;
use crate::view::StalenessView;

/// Peers each node pushes to per gossip round.
const FANOUT: usize = 2;
/// Time between local rate observations.
const OBSERVE_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Heartbeat republish period: bounds entry age while healthy.
pub const REFRESH_INTERVAL: SimDuration = SimDuration::from_secs(10);
/// The paper's threshold `T`: a component at zero rate for this long is
/// absolutely failed and tombstoned.
const FAIL_THRESHOLD: SimDuration = SimDuration::from_secs(30);
/// Registry persistence window for class-change exports.
pub const PERSISTENCE: SimDuration = SimDuration::from_secs(5);
/// Peer-relative fault fraction (below `fraction · median` is faulty).
const PEER_FRACTION: f64 = 0.75;
/// EWMA smoothing factor for local observations.
const EWMA_ALPHA: f64 = 0.3;
/// Gossip carrier link rate, bytes/second.
const LINK_RATE: f64 = 1e6;
/// Gossip carrier propagation latency.
const LINK_LATENCY: SimDuration = SimDuration::from_millis(1);
/// Serialised bytes per digest entry (plus a fixed 64-byte header).
const ENTRY_BYTES: u64 = 64;

/// Tunables of one plane deployment.
#[derive(Clone, Copy, Debug)]
pub struct PlaneConfig {
    /// Time between gossip rounds.
    pub gossip_interval: SimDuration,
    /// Entries older than this demote to
    /// [`PlaneState::Unknown`](crate::view::PlaneState::Unknown) in
    /// consumer views (tombstones excepted).
    pub stale_after: SimDuration,
    /// How long the plane runs.
    pub horizon: SimDuration,
}

impl PlaneConfig {
    /// Checks the constraint [`run_plane`] relies on; the error names the
    /// offending field. A zero gossip interval would re-arm its periodic
    /// event at the same instant forever, so the run would never reach its
    /// horizon.
    pub fn validate(&self) -> Result<(), String> {
        if self.gossip_interval.is_zero() {
            return Err("gossip_interval must be positive".to_string());
        }
        Ok(())
    }
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            gossip_interval: SimDuration::from_secs(2),
            stale_after: SimDuration::from_secs(60),
            horizon: SimDuration::from_secs(600),
        }
    }
}

/// A full plane deployment: config, observed truth, carrier timelines.
#[derive(Clone, Debug)]
pub struct PlaneSpec {
    /// Plane tunables.
    pub config: PlaneConfig,
    /// One observed component per node: node `i` samples the injected
    /// truth of component `i`.
    pub components: Vec<Component>,
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
            components: vec![Component::new(nominal); n],
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
    /// (zero rate for ≥ the threshold `T`, or an absolute failure) within
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
///
/// The periodic kinds are rounds: each handles every node in index order,
/// then re-arms once. Messages carry node indices and payload slots as
/// `u32`, so a queued event (key and event) takes 32 bytes, not 48.
enum Event {
    /// Every node samples its component; re-arms every `OBSERVE_INTERVAL`.
    Observe,
    /// Every node republishes its heartbeat; re-arms every
    /// `REFRESH_INTERVAL`.
    Refresh,
    /// Every node pushes its digest to `FANOUT` peers; re-arms every
    /// `gossip_interval`.
    Gossip,
    /// The push digest in payload `slot` arrives from `from` at `to`.
    Push { from: u32, to: u32, slot: u32 },
    /// The pull reply in payload `slot` arrives back at its sender `to`.
    Reply { to: u32, slot: u32 },
}

const _: () = assert!(std::mem::size_of::<Event>() == 16);

/// A node index or payload slot as a message carries it. Planes have a
/// handful of nodes and in-flight messages, far below `u32::MAX`.
fn wire(index: usize) -> u32 {
    debug_assert!(u32::try_from(index).is_ok(), "index {index} overflows a message field");
    index as u32
}

/// The entries of in-flight pushes and replies, one buffer per message,
/// indexed by the slot its event carries. A delivered message's buffer is
/// cleared and recycled through the free list.
#[derive(Default)]
struct Payloads {
    buffers: Vec<Vec<HealthEntry>>,
    free: Vec<usize>,
}

impl Payloads {
    /// The slot of an empty buffer no message holds.
    fn acquire(&mut self) -> usize {
        self.free.pop().unwrap_or_else(|| {
            self.buffers.push(Vec::new());
            self.buffers.len() - 1
        })
    }

    /// Empties `slot`'s buffer and frees the slot.
    fn release(&mut self, slot: usize) {
        self.buffers[slot].clear();
        self.free.push(slot);
    }
}

struct NodeState {
    store: Store,
    ewma: Ewma,
    /// Where `observe` last read the node's component profile.
    reading: Cursor,
    registry: Registry,
    rng: Stream,
    zero_since: Option<SimTime>,
    next_seq: u64,
    tombstoned: bool,
}

struct SimState {
    components: Vec<Component>,
    detector: PeerRelativeDetector,
    mesh: Mesh,
    nodes: Vec<NodeState>,
    stats: PlaneStats,
    payloads: Payloads,
    /// `observe`'s peer-relative round, reused across calls.
    rates: Vec<f64>,
    /// `gossip_round`'s push targets, reused across calls.
    peers: Vec<usize>,
}

impl SimState {
    /// The plane of `spec` at time zero: its carrier mesh and one fresh
    /// node per component, each with its own stream derived from `rng`.
    fn new(spec: &PlaneSpec, rng: &mut Stream) -> Self {
        let n = spec.nodes();
        assert!(n >= 2, "a plane needs at least two nodes, got {n}");
        assert_eq!(spec.link_profiles.len(), n * n, "link profile matrix must be n*n");
        let checked = spec.config.validate();
        assert!(checked.is_ok(), "invalid plane config: {checked:?}");

        let mut mesh = Mesh::homogeneous(n, LINK_RATE, LINK_LATENCY);
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
                store: Store::new(n),
                ewma: Ewma::new(EWMA_ALPHA),
                reading: Cursor::default(),
                registry: Registry::new(PERSISTENCE),
                rng: rng.derive_index(i as u64),
                zero_since: None,
                next_seq: 0,
                tombstoned: false,
            })
            .collect();

        SimState {
            components: spec.components.clone(),
            detector: PeerRelativeDetector::new(PEER_FRACTION),
            mesh,
            nodes,
            stats: PlaneStats::default(),
            payloads: Payloads::default(),
            rates: Vec::with_capacity(n),
            peers: Vec::with_capacity(FANOUT.min(n - 1)),
        }
    }

    /// Ends the run: per-node views, final counters and the ground truth.
    fn finish(mut self, spec: &PlaneSpec) -> PlaneRun {
        let cfg = spec.config;
        self.stats.carrier_bytes = self.mesh.bytes_sent();
        let views = self
            .nodes
            .into_iter()
            .map(|node| StalenessView::new(node.store.into_history(), cfg.stale_after))
            .collect();
        let truly_failed = spec
            .components
            .iter()
            .map(|c| profile_fails(&c.profile, FAIL_THRESHOLD, cfg.horizon))
            .collect();
        PlaneRun {
            views,
            stats: self.stats,
            config: cfg,
            truly_failed,
            end: SimTime::ZERO + cfg.horizon,
        }
    }

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
        let node = &mut self.nodes[i];
        let raw = comp.rate_from(&mut node.reading, now);
        node.ewma.observe(raw);
        let smoothed = self.nodes[i].ewma.value_or(0.0);

        let verdict = if raw <= 0.0 {
            // Below the threshold `T` a silent device is still only
            // *suspect*; at `T` it is absolutely failed (paper §3.1).
            let since = *self.nodes[i].zero_since.get_or_insert(now);
            (now.saturating_since(since) >= FAIL_THRESHOLD).then_some(HealthState::Failed)
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
                self.detector.classify(rates, 0)
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

    /// Fills `peers` with `FANOUT` distinct random peers of node `i`.
    fn pick_peers(&mut self, i: usize) {
        let n = self.nodes.len();
        let k = FANOUT.min(n - 1);
        let peers = &mut self.peers;
        peers.clear();
        while peers.len() < k {
            let mut p = self.nodes[i].rng.next_below((n - 1) as u64) as usize;
            if p >= i {
                p += 1;
            }
            if !peers.contains(&p) {
                peers.push(p);
            }
        }
    }

    fn payload_bytes(entries: usize) -> u64 {
        64 + ENTRY_BYTES * entries as u64
    }

    /// Node `i` pushes a copy of its freshest entries to each of its peers.
    fn gossip_round(&mut self, i: usize, now: SimTime, queue: &mut EventQueue<Event>) {
        let entries = self.nodes[i].store.latest().count();
        if entries == 0 {
            return;
        }
        let bytes = Self::payload_bytes(entries);
        self.pick_peers(i);
        for &to in &self.peers {
            self.stats.pushes_sent += 1;
            match self.mesh.send(i, to, now, bytes) {
                Some(d) => {
                    let slot = self.payloads.acquire();
                    self.payloads.buffers[slot].extend(self.nodes[i].store.latest());
                    let push = Event::Push { from: wire(i), to: wire(to), slot: wire(slot) };
                    queue.schedule_at(d.arrive, push);
                }
                None => self.stats.pushes_dropped += 1,
            }
        }
    }

    fn receive_push(
        &mut self,
        from: usize,
        to: usize,
        slot: usize,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) {
        // Pull half first, against the digest as sent: everything the
        // receiver holds that is fresher than the sender's view.
        let reply = self.payloads.acquire();
        let mut fresher = std::mem::take(&mut self.payloads.buffers[reply]);
        fresher.extend(self.nodes[to].store.fresher_than(&self.payloads.buffers[slot]));
        let entries = fresher.len();
        self.payloads.buffers[reply] = fresher;
        self.deliver(to, slot, now);
        if entries == 0 {
            self.payloads.release(reply);
            return;
        }
        self.stats.replies_sent += 1;
        match self.mesh.send(to, from, now, Self::payload_bytes(entries)) {
            Some(d) => {
                queue.schedule_at(d.arrive, Event::Reply { to: wire(from), slot: wire(reply) })
            }
            None => self.payloads.release(reply),
        }
    }

    /// Merges the delivered message in `slot` (push or reply) into node
    /// `to`'s store, then recycles its buffer.
    // Inlined into the dispatch loop and `receive_push`: every delivery
    // runs it.
    #[inline]
    fn deliver(&mut self, to: usize, slot: usize, now: SimTime) {
        let entries = &self.payloads.buffers[slot];
        merge_delivered(&mut self.nodes[to].store, &mut self.stats, entries, now);
        self.payloads.release(slot);
    }
}

/// Merges one delivered digest into `store`, counting the delivery and
/// every entry it accepts.
fn merge_delivered(
    store: &mut Store,
    stats: &mut PlaneStats,
    entries: &[HealthEntry],
    now: SimTime,
) {
    stats.delivered += 1;
    for &e in entries {
        if store.merge(now, e) {
            stats.merges += 1;
        }
    }
}

/// Ground truth: did the component's profile absolutely fail within the
/// horizon, under the threshold rule `T = FAIL_THRESHOLD`?
fn profile_fails(profile: &SlowdownProfile, threshold: SimDuration, horizon: SimDuration) -> bool {
    longest_outage(profile, horizon) >= threshold
}

/// Runs one plane deployment to its horizon and returns the per-node
/// views. Pure: the result is a function of `spec` and `rng` alone.
///
/// The three periodic kinds run as rounds over all nodes. This dispatches
/// as one timer per node and kind would: the rounds are armed at time
/// zero in the order `Observe`, `Refresh`, `Gossip`, so wherever periods
/// coincide each node's kinds keep their relative order; handlers of
/// different nodes at one instant touch disjoint state (the node's store,
/// EWMA, registry, stream and outgoing links); and a `Gossip` round
/// schedules its pushes in node order, so every message keeps its
/// relative sequence number. The one case that could differ is a message
/// arriving on the exact nanosecond of a round: per-node timers could
/// dispatch it between two nodes' handlers, while a round runs whole on
/// one side of it.
pub fn run_plane(spec: &PlaneSpec, rng: &mut Stream) -> PlaneRun {
    let mut state = SimState::new(spec, rng);
    let n = spec.nodes();
    let cfg = spec.config;

    // Each round re-arms after its handlers have scheduled their
    // deliveries, so the re-arm takes the later sequence number.
    let mut queue = EventQueue::new();
    queue.schedule_at(SimTime::ZERO + OBSERVE_INTERVAL, Event::Observe);
    queue.schedule_at(SimTime::ZERO + REFRESH_INTERVAL, Event::Refresh);
    queue.schedule_at(SimTime::ZERO + cfg.gossip_interval, Event::Gossip);
    let end = SimTime::ZERO + cfg.horizon;
    while let Some(event) = queue.pop_until(end) {
        let now = queue.now();
        match event {
            Event::Observe => {
                (0..n).for_each(|i| state.observe(i, now));
                queue.schedule_at(now + OBSERVE_INTERVAL, Event::Observe);
            }
            Event::Refresh => {
                (0..n).for_each(|i| state.heartbeat(i, now));
                queue.schedule_at(now + REFRESH_INTERVAL, Event::Refresh);
            }
            Event::Gossip => {
                (0..n).for_each(|i| state.gossip_round(i, now, &mut queue));
                queue.schedule_at(now + cfg.gossip_interval, Event::Gossip);
            }
            Event::Push { from, to, slot } => {
                state.receive_push(from as usize, to as usize, slot as usize, now, &mut queue)
            }
            Event::Reply { to, slot } => state.deliver(to as usize, slot as usize, now),
        }
    }
    state.finish(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::PlaneState;
    use proptest::prelude::*;

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

    #[test]
    fn validate_rejects_zero_gossip_interval() {
        let mut cfg = PlaneConfig::default();
        assert_eq!(cfg.validate(), Ok(()));
        cfg.gossip_interval = SimDuration::ZERO;
        let err = cfg.validate().expect_err("a zero gossip interval must be rejected");
        assert!(err.contains("gossip_interval"), "{err}");
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

    /// One event of the reference dispatch: a timer per node and kind, and
    /// messages that own their entries.
    enum PerNode {
        Observe(usize),
        Refresh(usize),
        Gossip(usize),
        Push { from: usize, to: usize, entries: Vec<HealthEntry> },
        Reply { to: usize, entries: Vec<HealthEntry> },
    }

    /// `run_plane` with one periodic timer per node and kind, armed at
    /// time zero node by node, and owned message payloads; it calls the
    /// same observe, heartbeat and merge code.
    fn run_per_node(spec: &PlaneSpec, rng: &mut Stream) -> PlaneRun {
        let mut state = SimState::new(spec, rng);
        let gossip = spec.config.gossip_interval;
        let mut queue = EventQueue::new();
        for i in 0..spec.nodes() {
            queue.schedule_at(SimTime::ZERO + OBSERVE_INTERVAL, PerNode::Observe(i));
            queue.schedule_at(SimTime::ZERO + REFRESH_INTERVAL, PerNode::Refresh(i));
            queue.schedule_at(SimTime::ZERO + gossip, PerNode::Gossip(i));
        }
        let end = SimTime::ZERO + spec.config.horizon;
        while let Some(event) = queue.pop_until(end) {
            let now = queue.now();
            match event {
                PerNode::Observe(i) => {
                    state.observe(i, now);
                    queue.schedule_at(now + OBSERVE_INTERVAL, PerNode::Observe(i));
                }
                PerNode::Refresh(i) => {
                    state.heartbeat(i, now);
                    queue.schedule_at(now + REFRESH_INTERVAL, PerNode::Refresh(i));
                }
                PerNode::Gossip(i) => {
                    let digest: Vec<HealthEntry> = state.nodes[i].store.latest().copied().collect();
                    if !digest.is_empty() {
                        let bytes = SimState::payload_bytes(digest.len());
                        state.pick_peers(i);
                        for &to in &state.peers {
                            state.stats.pushes_sent += 1;
                            match state.mesh.send(i, to, now, bytes) {
                                Some(d) => {
                                    let entries = digest.clone();
                                    queue.schedule_at(
                                        d.arrive,
                                        PerNode::Push { from: i, to, entries },
                                    );
                                }
                                None => state.stats.pushes_dropped += 1,
                            }
                        }
                    }
                    queue.schedule_at(now + gossip, PerNode::Gossip(i));
                }
                PerNode::Push { from, to, entries } => {
                    let node = &mut state.nodes[to];
                    let reply: Vec<HealthEntry> = node.store.fresher_than(&entries).collect();
                    merge_delivered(&mut node.store, &mut state.stats, &entries, now);
                    if !reply.is_empty() {
                        state.stats.replies_sent += 1;
                        let bytes = SimState::payload_bytes(reply.len());
                        if let Some(d) = state.mesh.send(to, from, now, bytes) {
                            queue
                                .schedule_at(d.arrive, PerNode::Reply { to: from, entries: reply });
                        }
                    }
                }
                PerNode::Reply { to, entries } => {
                    merge_delivered(&mut state.nodes[to].store, &mut state.stats, &entries, now);
                }
            }
        }
        state.finish(spec)
    }

    /// An instant in `(0, horizon]`, on the nanosecond grid.
    fn instant(rng: &mut Stream, horizon: SimDuration) -> SimTime {
        SimTime::from_nanos(1 + rng.next_below(horizon.as_nanos()))
    }

    /// A plane of `n` nodes whose carrier links run catalog timelines or
    /// die, and whose components drift, black out briefly or fail-stop.
    fn random_spec(n: usize, gossip_secs: u64, horizon_secs: u64, seed: u64) -> PlaneSpec {
        let config = PlaneConfig {
            gossip_interval: SimDuration::from_secs(gossip_secs),
            horizon: SimDuration::from_secs(horizon_secs),
            ..PlaneConfig::default()
        };
        let horizon = config.horizon;
        let mut spec = PlaneSpec::homogeneous(config, n, 10e6);
        let mut rng = Stream::from_seed(seed);
        let injectors = stutter::catalog::all();
        for from in 0..n {
            for to in (0..n).filter(|&to| to != from) {
                let profile = match rng.next_below(8) {
                    0..=2 => continue,
                    3 => SlowdownProfile::nominal().with_failure_at(instant(&mut rng, horizon)),
                    _ => {
                        let pick = rng.next_below(injectors.len() as u64) as usize;
                        injectors[pick].1.timeline(horizon, &mut rng)
                    }
                };
                spec.set_link_profile(from, to, profile);
            }
        }
        for c in &mut spec.components {
            let at = instant(&mut rng, horizon);
            c.profile = match rng.next_below(4) {
                0 => SlowdownProfile::nominal(),
                1 => drift_at(at, rng.next_f64_range(0.1, 0.9)),
                2 => SlowdownProfile::from_breakpoints(vec![
                    (SimTime::ZERO, 1.0),
                    (at, 0.0),
                    (at + SimDuration::from_secs(1 + rng.next_below(59)), 1.0),
                ]),
                _ => SlowdownProfile::nominal().with_failure_at(at),
            };
        }
        spec
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Batched rounds and pooled payloads dispatch exactly as per-node
        /// timers with owned payloads: equal counters, and every node's
        /// history of every component equal entry for entry. Gossip
        /// intervals of 1 s and 10 s coincide with the observe and refresh
        /// periods, so the time-zero arming order is exercised too.
        #[test]
        fn batched_rounds_match_per_node_dispatch(
            n in 2usize..9,
            gossip in 0usize..7,
            horizon in 60u64..601,
            seed in any::<u64>()
        ) {
            let gossip_secs = [1, 2, 3, 5, 10, 20, 30][gossip];
            let spec = random_spec(n, gossip_secs, horizon, seed);
            let batched = run_plane(&spec, &mut Stream::from_seed(seed));
            let per_node = run_per_node(&spec, &mut Stream::from_seed(seed));
            prop_assert_eq!(batched.stats, per_node.stats);
            for (i, (a, b)) in batched.views.iter().zip(&per_node.views).enumerate() {
                for c in (0..n as u32).map(ComponentId) {
                    prop_assert_eq!(a.history(c), b.history(c), "node {} component {}", i, c);
                }
            }
        }
    }
}
