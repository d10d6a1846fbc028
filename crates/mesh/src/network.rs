//! The data OCN latency/accounting model and the dedicated ULI network.

use std::collections::VecDeque;

use crate::coreset::CoreSet;
use crate::rng::XorShift64;
use crate::topology::{Tile, Topology};
use crate::traffic::{TrafficClass, TrafficStats};

/// Cycles a message spends in each router on its path (Table II).
pub const ROUTER_CYCLES: u64 = 1;
/// Cycles a message spends on each channel on its path (Table II).
pub const CHANNEL_CYCLES: u64 = 1;
/// Flit width in bytes, the serialization granularity (Table II).
pub const FLIT_BYTES: u64 = 16;
/// Header/control bytes the data OCN adds to every message's payload.
pub const HEADER_BYTES: u64 = 8;

/// Cycles for a message of `total_bytes` to cross `hops` links: every hop
/// pays a router and a channel, every flit after the first one more
/// channel cycle, plus one cycle to eject. Both networks time messages with
/// this one formula.
fn message_latency(hops: u32, total_bytes: u64) -> u64 {
    let flits = total_bytes.div_ceil(FLIT_BYTES).max(1);
    hops as u64 * (ROUTER_CYCLES + CHANNEL_CYCLES) + (flits - 1) * CHANNEL_CYCLES + 1
}

/// Shape of the data on-chip network. Its timing is Table II's, fixed:
/// XY routing, [`FLIT_BYTES`]-byte flits, [`ROUTER_CYCLES`] +
/// [`CHANNEL_CYCLES`] per hop, [`HEADER_BYTES`]-byte message headers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MeshConfig {
    /// Physical layout of the mesh.
    pub topology: Topology,
}

impl MeshConfig {
    /// The 64-core system of Table II: an 8×8 mesh.
    pub fn paper_64_core() -> Self {
        Self::with_topology(Topology::new(8, 8))
    }

    /// The 256-core system of Table V: an 8-row, 32-column mesh.
    pub fn paper_256_core() -> Self {
        Self::with_topology(Topology::new(8, 32))
    }

    /// A custom mesh.
    pub fn with_topology(topology: Topology) -> Self {
        MeshConfig { topology }
    }
}

impl Default for MeshConfig {
    fn default() -> Self {
        Self::paper_64_core()
    }
}

/// The data on-chip network: computes message latencies and accounts traffic.
///
/// This is a latency-only model (no cycle-accurate link arbitration): a
/// message from `a` to `b` carrying `p` payload bytes takes
///
/// ```text
/// hops(a,b) * (ROUTER_CYCLES + CHANNEL_CYCLES) + (flits - 1) * CHANNEL_CYCLES + 1
/// ```
///
/// cycles, where `flits = ceil((p + HEADER_BYTES) / FLIT_BYTES)`. Contention
/// is modelled downstream by the L2 bank and DRAM queueing in
/// `bigtiny-coherence`, which is where the paper's workloads actually queue.
#[derive(Clone, Debug)]
pub struct Mesh {
    topology: Topology,
    stats: TrafficStats,
    faults: Option<SpikeState>,
}

/// Deterministic latency-spike injection for a [`Mesh`] (fault testing).
///
/// Each sent message independently suffers an extra `spike_cycles` of latency
/// with probability `spike_per_mille`/1000, decided by a seeded xorshift
/// stream. Message order on a mesh is deterministic under the simulator's
/// global token sequencing, so a given seed always spikes the same messages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MeshFaults {
    /// Per-message spike probability in thousandths (0 = never, 1000 = all).
    pub spike_per_mille: u32,
    /// Extra cycles added to a spiked message's latency.
    pub spike_cycles: u64,
    /// Seed of the decision stream.
    pub seed: u64,
}

#[derive(Clone, Debug)]
struct SpikeState {
    per_mille: u32,
    extra: u64,
    rng: XorShift64,
    spikes: u64,
}

impl Mesh {
    /// Creates a mesh network with the given configuration.
    pub fn new(config: MeshConfig) -> Self {
        Mesh { topology: config.topology, stats: TrafficStats::new(), faults: None }
    }

    /// Arms (or, with `None`, disarms) deterministic latency-spike
    /// injection. The golden path — no faults armed — is entirely
    /// unaffected.
    pub fn set_faults(&mut self, faults: Option<MeshFaults>) {
        self.faults = faults.filter(|f| f.spike_per_mille > 0).map(|f| SpikeState {
            per_mille: f.spike_per_mille.min(1000),
            extra: f.spike_cycles,
            rng: XorShift64::new(f.seed ^ 0x6d65_7368_5f66_6c74),
            spikes: 0,
        });
    }

    /// Number of injected latency spikes so far (0 when faults are off).
    pub fn fault_spikes(&self) -> u64 {
        self.faults.as_ref().map_or(0, |s| s.spikes)
    }

    /// The configured topology.
    pub fn topology(&self) -> Topology {
        self.topology
    }

    /// Latency in cycles for a message of `total_bytes` from `from` to `to`,
    /// without recording it.
    pub fn latency(&self, from: Tile, to: Tile, total_bytes: u64) -> u64 {
        message_latency(from.hops_to(to), total_bytes)
    }

    /// Sends a message: records its bytes under `class` and returns its
    /// latency in cycles. `payload_bytes` excludes the header, which is added
    /// automatically.
    pub fn send(&mut self, from: Tile, to: Tile, class: TrafficClass, payload_bytes: u64) -> u64 {
        let total = payload_bytes + HEADER_BYTES;
        let hops = from.hops_to(to);
        self.stats.record(class, total, hops);
        let mut lat = self.latency(from, to, total);
        if let Some(f) = self.faults.as_mut() {
            if f.rng.next_below(1000) < f.per_mille as u64 {
                f.spikes += 1;
                lat += f.extra;
            }
        }
        lat
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Clears accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = TrafficStats::new();
    }
}

/// A single-word user-level interrupt message.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UliMessage {
    /// Sending core.
    pub from: usize,
    /// One machine word of payload (the paper's messages are single-word).
    pub payload: u64,
    /// Simulated cycle at which the message arrives at its destination.
    pub arrives_at: u64,
}

/// Result of attempting to send a ULI request.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UliOutcome {
    /// The request was accepted and will be observed by the receiver.
    Sent,
    /// The receiver has ULI disabled or its request buffer is full; a NACK
    /// arrives back at the sender at `reply_at`.
    Nack {
        /// Cycle at which the sender observes the NACK.
        reply_at: u64,
    },
    /// The receiver's core has fail-stopped: its ULI unit answers with a
    /// dead indication (distinguishable from a busy NACK, so thieves can
    /// quarantine the victim and trigger recovery instead of retrying).
    Dead {
        /// Cycle at which the sender observes the dead reply.
        reply_at: u64,
    },
}

/// Per-core ULI unit state.
#[derive(Clone, Debug, Default)]
struct UliUnit {
    enabled: bool,
    /// The core fail-stopped: every future request is answered with
    /// [`UliOutcome::Dead`] and buffered requests are never serviced.
    dead: bool,
    pending_req: Option<UliMessage>,
    pending_resp: VecDeque<UliMessage>,
}

/// Upper bound on buffered responses at one thief core.
///
/// On the golden path the protocol allows a single outstanding steal per
/// thief, so at most one response is ever in flight. Under fault injection a
/// thief may time out on a slow steal and issue a new one before the stale
/// response drains, so a small queue is needed; anything deeper than this cap
/// indicates a runtime bug, not a fault.
const ULI_RESP_QUEUE_CAP: usize = 4;

/// A crash-consistent snapshot of one core's ULI unit, for diagnostics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct UliCoreState {
    /// Whether the core currently accepts ULI requests.
    pub enabled: bool,
    /// Whether the core has fail-stopped (quarantined, expected-silent —
    /// distinct from a hung core, which the watchdog poisons).
    pub dead: bool,
    /// Origin core of the buffered request, if any.
    pub pending_req_from: Option<usize>,
    /// Arrival cycle of the buffered request, if any.
    pub pending_req_arrives_at: Option<u64>,
    /// Number of responses buffered at (in flight to) this core.
    pub pending_responses: usize,
}

/// The dedicated ULI mesh of Section IV: two virtual channels (request and
/// response), single-word messages, one buffered request and one buffered
/// response per core, NACK when the receiver is disabled or busy.
#[derive(Clone, Debug)]
pub struct UliNetwork {
    topology: Topology,
    units: Vec<UliUnit>,
    stats: TrafficStats,
    total_latency: u64,
    total_hops: u64,
    nacks: u64,
}

/// Payload + header size of a ULI message in bytes (one word + routing info).
const ULI_MESSAGE_BYTES: u64 = 8;

impl UliNetwork {
    /// Creates a ULI network over `topology` with `num_cores` endpoints.
    ///
    /// All cores start with ULI **disabled**; the runtime enables ULI when a
    /// worker enters its scheduling loop.
    pub fn new(topology: Topology, num_cores: usize) -> Self {
        assert!(num_cores <= topology.num_tiles(), "more cores than tiles");
        UliNetwork {
            topology,
            units: vec![UliUnit::default(); num_cores],
            stats: TrafficStats::new(),
            total_latency: 0,
            total_hops: 0,
            nacks: 0,
        }
    }

    fn latency(&self, from: usize, to: usize) -> (u64, u32) {
        let hops = self.topology.core_tile(from).hops_to(self.topology.core_tile(to));
        (message_latency(hops, ULI_MESSAGE_BYTES), hops)
    }

    fn record(&mut self, from: usize, to: usize) -> u64 {
        let (lat, hops) = self.latency(from, to);
        self.stats.record(TrafficClass::Uli, ULI_MESSAGE_BYTES, hops);
        self.total_latency += lat;
        self.total_hops += hops as u64;
        lat
    }

    /// Enables or disables ULI reception on `core`.
    pub fn set_enabled(&mut self, core: usize, enabled: bool) {
        self.units[core].enabled = enabled;
    }

    /// Attempts to deliver a ULI request from core `from` to core `to` at
    /// cycle `now`.
    ///
    /// Returns [`UliOutcome::Nack`] if the receiver has ULI disabled or
    /// already has a buffered request; the NACK consumes a round trip.
    ///
    /// # Panics
    ///
    /// Panics if `from == to` — a core never interrupts itself.
    pub fn try_send_request(
        &mut self,
        from: usize,
        to: usize,
        payload: u64,
        now: u64,
    ) -> UliOutcome {
        assert_ne!(from, to, "a core cannot send a ULI to itself");
        let lat = self.record(from, to);
        let unit = &self.units[to];
        if unit.dead {
            let back = self.record(to, from);
            return UliOutcome::Dead { reply_at: now + lat + back };
        }
        if !unit.enabled || unit.pending_req.is_some() {
            let back = self.record(to, from);
            self.nacks += 1;
            return UliOutcome::Nack { reply_at: now + lat + back };
        }
        self.units[to].pending_req = Some(UliMessage { from, payload, arrives_at: now + lat });
        UliOutcome::Sent
    }

    /// Whether [`UliNetwork::take_request`] at cycle `now` would return a
    /// request: one has arrived at `core` by `now`, and the core is alive
    /// with ULI enabled.
    pub fn request_ready(&self, core: usize, now: u64) -> bool {
        let unit = &self.units[core];
        unit.enabled && !unit.dead && unit.pending_req.is_some_and(|m| m.arrives_at <= now)
    }

    /// Removes and returns the pending request at `core` if one has arrived
    /// by cycle `now` **and** the core has ULI enabled.
    pub fn take_request(&mut self, core: usize, now: u64) -> Option<UliMessage> {
        if self.request_ready(core, now) {
            self.units[core].pending_req.take()
        } else {
            None
        }
    }

    /// Whether a request is buffered at `core` (arrived or in flight).
    pub fn has_pending_request(&self, core: usize) -> bool {
        self.units[core].pending_req.is_some()
    }

    /// Sends a ULI response from `from` back to `to` (the original thief).
    ///
    /// Responses queue in arrival order. On the golden path at most one is
    /// ever buffered (one outstanding steal per thief); under fault injection
    /// a stale response from a timed-out steal can coexist briefly with a
    /// fresh one.
    ///
    /// # Panics
    ///
    /// Panics if `to` has more than `ULI_RESP_QUEUE_CAP` (4) responses buffered
    /// — that is a runtime bug, not a reachable fault state.
    pub fn send_response(&mut self, from: usize, to: usize, payload: u64, now: u64) {
        let lat = self.record(from, to);
        let unit = &mut self.units[to];
        assert!(
            unit.pending_resp.len() < ULI_RESP_QUEUE_CAP,
            "thief core {to} has {} buffered ULI responses (runtime bug)",
            unit.pending_resp.len()
        );
        unit.pending_resp.push_back(UliMessage { from, payload, arrives_at: now + lat });
    }

    /// Whether [`UliNetwork::take_response`] at cycle `now` would return a
    /// response: the oldest one buffered at `core` has arrived by `now`.
    pub fn response_ready(&self, core: usize, now: u64) -> bool {
        self.units[core].pending_resp.front().is_some_and(|m| m.arrives_at <= now)
    }

    /// Removes and returns the oldest response buffered at `core` if it has
    /// arrived by cycle `now`. Responses are accepted even while ULI is
    /// disabled.
    pub fn take_response(&mut self, core: usize, now: u64) -> Option<UliMessage> {
        if self.response_ready(core, now) {
            self.units[core].pending_resp.pop_front()
        } else {
            None
        }
    }

    /// Silently drops a request from `from` to `to`: the request's bytes are
    /// charged to the network but the receiver never observes it and no NACK
    /// comes back. Used by fault injection to model a lost message; the
    /// sender believes the send succeeded.
    pub fn drop_request(&mut self, from: usize, to: usize) {
        let _ = self.record(from, to);
    }

    /// Injects a forced NACK for a request from `from` to `to`: the request
    /// and its NACK reply are charged to the network as usual, but the
    /// receiver never observes the request. Used by fault injection to model
    /// a receiver whose request buffer appears full.
    pub fn forced_nack(&mut self, from: usize, to: usize, now: u64) -> UliOutcome {
        let lat = self.record(from, to);
        let back = self.record(to, from);
        self.nacks += 1;
        UliOutcome::Nack { reply_at: now + lat + back }
    }

    /// Delays the request currently buffered at `core` by `extra` cycles, if
    /// one exists. Used by fault injection to model in-network delay.
    pub fn delay_request(&mut self, core: usize, extra: u64) {
        if let Some(m) = self.units[core].pending_req.as_mut() {
            m.arrives_at += extra;
        }
    }

    /// Fail-stops `core`'s ULI unit at cycle `now`: every future request
    /// is answered [`UliOutcome::Dead`], and buffered requests are never
    /// serviced. A request already buffered (its sender is committed to
    /// waiting for a response) is answered with an immediate payload-0
    /// "miss" response so the waiting thief unblocks — it learns the
    /// victim is dead on its next attempt.
    pub fn set_dead(&mut self, core: usize, now: u64) {
        self.units[core].dead = true;
        if let Some(req) = self.units[core].pending_req.take() {
            self.send_response(core, req.from, 0, now);
        }
    }

    /// Revives `core`'s ULI unit (the core rejoins the computation). ULI
    /// reception stays disabled until the core re-enables it.
    pub fn set_alive(&mut self, core: usize) {
        self.units[core].dead = false;
    }

    /// Whether `core`'s ULI unit has fail-stopped.
    pub fn is_dead(&self, core: usize) -> bool {
        self.units[core].dead
    }

    /// Set of currently-dead cores. Unbounded in core index: a 256-core
    /// mesh reports a quarantined core 200 just like core 2.
    pub fn dead_mask(&self) -> CoreSet {
        let mut dead = CoreSet::new();
        for (i, u) in self.units.iter().enumerate() {
            if u.dead {
                dead.insert(i);
            }
        }
        dead
    }

    /// A crash-consistent snapshot of `core`'s ULI unit for diagnostics.
    pub fn unit_state(&self, core: usize) -> UliCoreState {
        let u = &self.units[core];
        UliCoreState {
            enabled: u.enabled,
            dead: u.dead,
            pending_req_from: u.pending_req.map(|m| m.from),
            pending_req_arrives_at: u.pending_req.map(|m| m.arrives_at),
            pending_responses: u.pending_resp.len(),
        }
    }

    /// Accumulated ULI traffic statistics.
    pub fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// Total ULI messages sent (requests, responses, and NACK replies).
    pub fn message_count(&self) -> u64 {
        self.stats.messages(TrafficClass::Uli)
    }

    /// Number of NACKed requests.
    pub fn nack_count(&self) -> u64 {
        self.nacks
    }

    /// Mean per-message latency in cycles (0 when no messages were sent).
    pub fn mean_latency(&self) -> f64 {
        let n = self.message_count();
        if n == 0 {
            0.0
        } else {
            self.total_latency as f64 / n as f64
        }
    }

    /// Mean per-message hop count.
    pub fn mean_hops(&self) -> f64 {
        let n = self.message_count();
        if n == 0 {
            0.0
        } else {
            self.total_hops as f64 / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(MeshConfig::paper_64_core())
    }

    #[test]
    fn zero_hop_message_still_costs_a_cycle() {
        let m = mesh();
        let t = Tile::new(2, 2);
        assert_eq!(m.latency(t, t, 8), 1);
    }

    #[test]
    fn latency_scales_with_hops_and_flits() {
        let m = mesh();
        let a = Tile::new(0, 0);
        let b = Tile::new(3, 0);
        // 3 hops * 2 cycles + 0 extra flits + 1
        assert_eq!(m.latency(a, b, 16), 7);
        // 72 bytes = 5 flits -> 4 extra serialization cycles
        assert_eq!(m.latency(a, b, 72), 11);
    }

    /// The ULI mesh and the data OCN time a one-flit message alike, between
    /// every pair of tiles of both paper machines.
    #[test]
    fn uli_and_data_networks_agree_on_one_flit_latency() {
        for config in [MeshConfig::paper_64_core(), MeshConfig::paper_256_core()] {
            let topo = config.topology;
            let (mesh, n) = (Mesh::new(config), topo.num_tiles());
            let mut uli = UliNetwork::new(topo, n);
            for from in 0..n {
                for to in 0..n {
                    uli.send_response(from, to, 0, 0);
                    let arrival = uli.take_response(to, u64::MAX).expect("queued").arrives_at;
                    let data = mesh.latency(topo.core_tile(from), topo.core_tile(to), FLIT_BYTES);
                    assert_eq!(arrival, data, "{from} -> {to} on {topo:?}");
                }
            }
        }
    }

    #[test]
    fn send_records_header_plus_payload() {
        let mut m = mesh();
        m.send(Tile::new(0, 0), Tile::new(1, 0), TrafficClass::WbReq, 64);
        assert_eq!(m.stats().bytes(TrafficClass::WbReq), 72);
        assert_eq!(m.stats().messages(TrafficClass::WbReq), 1);
    }

    #[test]
    fn reset_clears_stats() {
        let mut m = mesh();
        m.send(Tile::new(0, 0), Tile::new(1, 0), TrafficClass::CpuReq, 0);
        m.reset_stats();
        assert_eq!(m.stats().total_data_bytes(), 0);
    }

    #[test]
    fn uli_send_to_enabled_core_is_delivered_after_latency() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(5, true);
        assert_eq!(u.try_send_request(0, 5, 42, 100), UliOutcome::Sent);
        // 5 hops * 2 + 1 = 11 cycles
        assert!(!u.request_ready(5, 110));
        assert!(u.take_request(5, 105).is_none(), "must not arrive early");
        assert!(u.request_ready(5, 111), "the peek answers what the take would");
        let m = u.take_request(5, 111).expect("arrived");
        assert_eq!(m.from, 0);
        assert_eq!(m.payload, 42);
        assert!(u.take_request(5, 200).is_none(), "taken exactly once");
    }

    #[test]
    fn uli_send_to_disabled_core_nacks() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        match u.try_send_request(0, 1, 7, 0) {
            UliOutcome::Nack { reply_at } => assert_eq!(reply_at, 6), // 1 hop each way: (2+1)*2
            other => panic!("expected NACK, got {other:?}"),
        }
        assert_eq!(u.nack_count(), 1);
    }

    #[test]
    fn uli_busy_receiver_nacks_second_request() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(9, true);
        assert_eq!(u.try_send_request(0, 9, 1, 0), UliOutcome::Sent);
        assert!(matches!(u.try_send_request(2, 9, 2, 0), UliOutcome::Nack { .. }));
    }

    #[test]
    fn uli_disabled_receiver_defers_buffered_request() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(1, true);
        assert_eq!(u.try_send_request(0, 1, 3, 0), UliOutcome::Sent);
        u.set_enabled(1, false);
        assert!(!u.request_ready(1, 1000));
        assert!(u.take_request(1, 1000).is_none(), "disabled core does not service");
        u.set_enabled(1, true);
        assert!(u.take_request(1, 1000).is_some());
    }

    #[test]
    fn uli_response_round_trip() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(8, true);
        u.try_send_request(0, 8, 0xdead, 0);
        let req = u.take_request(8, 100).unwrap();
        u.send_response(8, req.from, 0xbeef, 100);
        assert!(!u.response_ready(0, 102));
        assert!(u.take_response(0, 100).is_none());
        assert!(u.response_ready(0, 103), "the peek answers what the take would");
        let resp = u.take_response(0, 103).expect("1 hop back: 2+1 cycles");
        assert_eq!(resp.payload, 0xbeef);
        assert_eq!(resp.from, 8);
    }

    #[test]
    fn uli_stats_accumulate() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(63, true);
        u.try_send_request(0, 63, 0, 0);
        u.send_response(63, 0, 0, 50);
        assert_eq!(u.message_count(), 2);
        assert!(u.mean_hops() > 13.9 && u.mean_hops() < 14.1);
        assert!(u.mean_latency() > 0.0);
    }

    /// Regression pin: a quiet ULI network (idle runtimes, baseline setups)
    /// must report finite means, never NaN from 0/0.
    #[test]
    fn uli_zero_message_means_are_finite() {
        let u = UliNetwork::new(Topology::new(8, 8), 64);
        assert_eq!(u.message_count(), 0);
        assert_eq!(u.mean_latency(), 0.0);
        assert_eq!(u.mean_hops(), 0.0);
        assert!(u.mean_latency().is_finite() && u.mean_hops().is_finite());
    }

    #[test]
    #[should_panic(expected = "cannot send a ULI to itself")]
    fn uli_self_send_panics() {
        let mut u = UliNetwork::new(Topology::new(2, 2), 4);
        u.try_send_request(1, 1, 0, 0);
    }

    #[test]
    fn uli_responses_queue_in_order() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.send_response(1, 0, 10, 0);
        u.send_response(2, 0, 20, 0);
        let a = u.take_response(0, 1000).unwrap();
        let b = u.take_response(0, 1000).unwrap();
        assert_eq!((a.payload, b.payload), (10, 20));
        assert!(u.take_response(0, 1000).is_none());
    }

    #[test]
    #[should_panic(expected = "runtime bug")]
    fn uli_response_queue_overflow_panics() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        for i in 0..5 {
            u.send_response(1, 0, i, 0);
        }
    }

    #[test]
    fn forced_nack_charges_round_trip_and_counts() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(1, true);
        match u.forced_nack(0, 1, 0) {
            UliOutcome::Nack { reply_at } => assert_eq!(reply_at, 6),
            other => panic!("expected NACK, got {other:?}"),
        }
        assert_eq!(u.nack_count(), 1);
        assert_eq!(u.message_count(), 2);
        assert!(!u.has_pending_request(1), "receiver never sees the request");
    }

    #[test]
    fn delay_request_pushes_arrival_out() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(1, true);
        assert_eq!(u.try_send_request(0, 1, 5, 0), UliOutcome::Sent);
        u.delay_request(1, 100);
        assert!(u.take_request(1, 50).is_none(), "delayed past original arrival");
        assert!(u.take_request(1, 103).is_some());
    }

    #[test]
    fn unit_state_snapshots_pending_work() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(3, true);
        u.try_send_request(0, 3, 1, 0);
        u.send_response(3, 0, 2, 0);
        let s = u.unit_state(3);
        assert!(s.enabled);
        assert_eq!(s.pending_req_from, Some(0));
        assert!(s.pending_req_arrives_at.is_some());
        let thief = u.unit_state(0);
        assert_eq!(thief.pending_responses, 1);
    }

    #[test]
    fn dead_unit_answers_dead_and_never_services() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(1, true);
        u.set_dead(1, 100);
        assert!(u.is_dead(1));
        assert_eq!(u.dead_mask(), CoreSet::from_mask(1 << 1));
        match u.try_send_request(0, 1, 7, 100) {
            UliOutcome::Dead { reply_at } => assert_eq!(reply_at, 106), // 1 hop each way
            other => panic!("expected Dead, got {other:?}"),
        }
        assert!(u.take_request(1, 10_000).is_none(), "a dead core services nothing");
        u.set_alive(1);
        assert!(!u.is_dead(1));
        assert!(u.dead_mask().is_empty());
        assert_eq!(u.try_send_request(0, 1, 7, 200), UliOutcome::Sent);
    }

    /// Regression: the dead set must represent cores ≥ 64. The old `u64`
    /// fold silently truncated at core 63, so a quarantined core 200 in a
    /// 256-core mesh was invisible to recovery.
    #[test]
    fn dead_mask_represents_cores_past_64() {
        let mut u = UliNetwork::new(Topology::new(8, 32), 256);
        u.set_enabled(200, true);
        u.set_dead(200, 0);
        u.set_dead(70, 0);
        u.set_dead(3, 0);
        let dead = u.dead_mask();
        assert_eq!(dead.iter().collect::<Vec<_>>(), vec![3, 70, 200]);
        match u.try_send_request(0, 200, 7, 100) {
            UliOutcome::Dead { .. } => {}
            other => panic!("expected Dead, got {other:?}"),
        }
        u.set_alive(200);
        assert_eq!(u.dead_mask().iter().collect::<Vec<_>>(), vec![3, 70]);
    }

    #[test]
    fn death_with_buffered_request_unblocks_the_waiting_thief() {
        let mut u = UliNetwork::new(Topology::new(8, 8), 64);
        u.set_enabled(1, true);
        assert_eq!(u.try_send_request(0, 1, 7, 0), UliOutcome::Sent);
        u.set_dead(1, 50);
        // The committed thief gets a payload-0 miss response instead of
        // waiting forever on a core that will never service the request.
        let resp = u.take_response(0, 60).expect("unblocking response");
        assert_eq!(resp.payload, 0);
        assert_eq!(resp.from, 1);
        assert!(!u.has_pending_request(1));
    }

    #[test]
    fn mesh_spikes_are_deterministic_and_counted() {
        let run = |seed| {
            let mut m = mesh();
            m.set_faults(Some(MeshFaults { spike_per_mille: 500, spike_cycles: 40, seed }));
            let mut lats = Vec::new();
            for i in 0..64u64 {
                let a = Tile::new((i % 8) as u16, 0);
                let b = Tile::new(0, (i % 8) as u16);
                lats.push(m.send(a, b, TrafficClass::CpuReq, 16));
            }
            (lats, m.fault_spikes())
        };
        let (l1, s1) = run(7);
        let (l2, s2) = run(7);
        assert_eq!(l1, l2, "same seed, same spikes");
        assert_eq!(s1, s2);
        assert!(s1 > 0, "a 50% plan must spike some of 64 messages");
        let (l3, _) = run(8);
        assert_ne!(l1, l3, "different seed, different spike pattern");
    }

    #[test]
    fn mesh_without_faults_never_spikes() {
        let mut m = mesh();
        m.set_faults(Some(MeshFaults { spike_per_mille: 0, spike_cycles: 40, seed: 1 }));
        let base = m.latency(Tile::new(0, 0), Tile::new(3, 0), 24);
        assert_eq!(m.send(Tile::new(0, 0), Tile::new(3, 0), TrafficClass::CpuReq, 16), base);
        assert_eq!(m.fault_spikes(), 0);
    }
}
