//! Always-on flight recorder and live heartbeat telemetry.
//!
//! # Flight recorder
//!
//! Every [`CorePort`](crate::CorePort) owns a [`FlightRing`]: a
//! fixed-capacity ring buffer of the last N simulation events on that core
//! (token grants, ULI request/response/Dead traffic, steal attempts and
//! hits, task lifecycle, fault injections, deque operations). Recording is
//! *observation only*: every hook reads clocks and identifiers the
//! simulation already computed and never sequences, charges cycles, or
//! touches shared simulated state — so armed and unarmed runs are
//! bit-for-bit identical (pinned by the golden-trace invariance table's
//! `observability`, `ring-off` and `ring-4x` rows). When a run dies — watchdog trip, poison,
//! crash-audit failure — each core's ring tail is serialized into the
//! [`DiagnosticBundle`](crate::DiagnosticBundle) as a black box: the last
//! few thousand cycles of history instead of bare counters.
//!
//! # Heartbeat
//!
//! A [`Heartbeat`] hook installed on the sequencer emits a
//! [`HeartbeatSnap`] every K *grants* (not wall time), so the cadence is a
//! deterministic function of the op stream. Fields published only while a
//! core holds the sequencer token (snapshot sequence number, trigger cycle,
//! total grants, [`LiveCounters`] sums) are identical across reruns and
//! backends; the per-core strip (waiting/running states), fast-grant count,
//! and anything wall-clock are host-timing artifacts and are documented as
//! out-of-band. Serialization to line JSON lives in `bigtiny-obs`
//! (`bigtiny-obs-heartbeat-v1`); the engine only hands the snapshot to an
//! opaque sink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::breakdown::{TimeBreakdown, TIME_CATEGORIES};
use crate::fault::FaultCounters;
use crate::watchdog::SeqCoreDiag;

/// Default per-core flight-ring capacity (events). Large enough to span
/// several steal protocols' worth of history, small enough that a 256-core
/// system keeps the whole recorder under ~1 MiB of host memory.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 256;

/// What happened, from the recording core's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// The sequencer granted this core the token.
    Grant,
    /// A ULI steal request left this core for `to`.
    UliReqSend {
        /// Destination (victim) core.
        to: usize,
    },
    /// A ULI steal request from `from` was delivered to this core.
    UliReqRecv {
        /// Originating (thief) core.
        from: usize,
    },
    /// A ULI steal response left this core for `to`.
    UliRespSend {
        /// Destination (thief) core.
        to: usize,
    },
    /// A ULI steal response from `from` was collected on this core.
    UliRespRecv {
        /// Originating (victim) core.
        from: usize,
    },
    /// A send to `to` bounced: the victim was already in a handler.
    UliNack {
        /// Destination core that NACKed.
        to: usize,
    },
    /// A send to `to` bounced with a Dead outcome (fail-stopped core).
    UliDead {
        /// Destination core that was dead.
        to: usize,
    },
    /// The runtime started a steal attempt against `victim`.
    StealAttempt {
        /// Victim core probed.
        victim: usize,
    },
    /// A steal attempt against `victim` returned a task.
    StealHit {
        /// Victim core the task came from.
        victim: usize,
    },
    /// A task was created on this core.
    TaskSpawn {
        /// Task id.
        task: u32,
    },
    /// A task body began executing on this core.
    TaskBegin {
        /// Task id.
        task: u32,
    },
    /// A task body returned on this core.
    TaskEnd {
        /// Task id.
        task: u32,
    },
    /// This core (the thief) claimed a stolen task.
    TaskStolen {
        /// Task id.
        task: u32,
    },
    /// A task's `wait()` returned on this core.
    TaskJoin {
        /// Task id.
        task: u32,
    },
    /// Crash recovery re-created a task on this core.
    TaskRespawn {
        /// Replacement task id.
        task: u32,
    },
    /// Crash recovery discarded an unstarted orphan task.
    TaskDiscarded {
        /// Task id.
        task: u32,
    },
    /// A multiplicity deque double-claim re-executed a task as an audited
    /// duplicate.
    TaskDuplicate {
        /// Replacement task id.
        task: u32,
    },
    /// A deque push on this core.
    DequePush,
    /// A deque pop on this core.
    DequePop,
    /// A deque steal executed by this core's handler.
    DequeSteal,
    /// Fault injection dropped an outbound ULI send.
    FaultUliDrop,
    /// Fault injection forced a NACK on an outbound ULI send.
    FaultUliNack,
    /// Fault injection delayed an outbound ULI send by `extra` cycles.
    FaultUliDelay {
        /// Injected extra latency in cycles.
        extra: u64,
    },
    /// Fault injection dropped an inbound ULI request on this core.
    FaultRxDrop,
    /// Fault injection forced an empty steal lookup on this core.
    FaultStealMiss,
    /// This core fail-stopped.
    Crash,
    /// This core was revived.
    Revive,
}

impl FlightKind {
    /// Stable lower-snake label used in black-box dumps and traces.
    pub fn label(self) -> &'static str {
        match self {
            FlightKind::Grant => "grant",
            FlightKind::UliReqSend { .. } => "uli_req_send",
            FlightKind::UliReqRecv { .. } => "uli_req_recv",
            FlightKind::UliRespSend { .. } => "uli_resp_send",
            FlightKind::UliRespRecv { .. } => "uli_resp_recv",
            FlightKind::UliNack { .. } => "uli_nack",
            FlightKind::UliDead { .. } => "uli_dead",
            FlightKind::StealAttempt { .. } => "steal_attempt",
            FlightKind::StealHit { .. } => "steal_hit",
            FlightKind::TaskSpawn { .. } => "task_spawn",
            FlightKind::TaskBegin { .. } => "task_begin",
            FlightKind::TaskEnd { .. } => "task_end",
            FlightKind::TaskStolen { .. } => "task_stolen",
            FlightKind::TaskJoin { .. } => "task_join",
            FlightKind::TaskRespawn { .. } => "task_respawn",
            FlightKind::TaskDiscarded { .. } => "task_discarded",
            FlightKind::TaskDuplicate { .. } => "task_duplicate",
            FlightKind::DequePush => "deque_push",
            FlightKind::DequePop => "deque_pop",
            FlightKind::DequeSteal => "deque_steal",
            FlightKind::FaultUliDrop => "fault_uli_drop",
            FlightKind::FaultUliNack => "fault_uli_nack",
            FlightKind::FaultUliDelay { .. } => "fault_uli_delay",
            FlightKind::FaultRxDrop => "fault_rx_drop",
            FlightKind::FaultStealMiss => "fault_steal_miss",
            FlightKind::Crash => "crash",
            FlightKind::Revive => "revive",
        }
    }

    /// The event's argument as a named value, if it carries one (`peer`,
    /// `task`, or `extra`). Lets serializers stay exhaustive without
    /// matching every variant.
    pub fn arg(self) -> Option<(&'static str, u64)> {
        match self {
            FlightKind::Grant
            | FlightKind::DequePush
            | FlightKind::DequePop
            | FlightKind::DequeSteal
            | FlightKind::FaultUliDrop
            | FlightKind::FaultUliNack
            | FlightKind::FaultRxDrop
            | FlightKind::FaultStealMiss
            | FlightKind::Crash
            | FlightKind::Revive => None,
            FlightKind::UliReqSend { to }
            | FlightKind::UliRespSend { to }
            | FlightKind::UliNack { to }
            | FlightKind::UliDead { to } => Some(("peer", to as u64)),
            FlightKind::UliReqRecv { from } | FlightKind::UliRespRecv { from } => {
                Some(("peer", from as u64))
            }
            FlightKind::StealAttempt { victim } | FlightKind::StealHit { victim } => {
                Some(("peer", victim as u64))
            }
            FlightKind::TaskSpawn { task }
            | FlightKind::TaskBegin { task }
            | FlightKind::TaskEnd { task }
            | FlightKind::TaskStolen { task }
            | FlightKind::TaskJoin { task }
            | FlightKind::TaskRespawn { task }
            | FlightKind::TaskDiscarded { task }
            | FlightKind::TaskDuplicate { task } => Some(("task", task as u64)),
            FlightKind::FaultUliDelay { extra } => Some(("extra", extra)),
        }
    }
}

/// One recorded event: the core's simulated clock when it happened plus
/// what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Recording core's simulated cycle at the event.
    pub time: u64,
    /// What happened.
    pub kind: FlightKind,
}

/// Fixed-capacity per-core event ring. Capacity 0 disables recording
/// entirely (every `record` is a single never-taken branch).
#[derive(Debug, Clone, Default)]
pub struct FlightRing {
    buf: Vec<FlightEvent>,
    cap: usize,
    /// Index of the next slot to overwrite once the ring is full.
    next: usize,
    /// Events ever recorded (≥ `buf.len()`; the ring holds the last `cap`).
    total: u64,
}

impl FlightRing {
    /// A ring holding the last `cap` events (0 disables recording).
    pub fn new(cap: usize) -> Self {
        FlightRing { buf: Vec::new(), cap, next: 0, total: 0 }
    }

    /// Records one event. Never touches simulated state.
    #[inline]
    pub fn record(&mut self, time: u64, kind: FlightKind) {
        if self.cap == 0 {
            return;
        }
        self.total += 1;
        let ev = FlightEvent { time, kind };
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            // Wrap by compare-and-reset: `% self.cap` is a 64-bit division
            // by a runtime value on every recorded event of every run.
            self.next += 1;
            if self.next == self.cap {
                self.next = 0;
            }
        }
    }

    /// The retained tail in chronological (recording) order.
    pub fn tail(&self) -> Vec<FlightEvent> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
        out
    }

    /// Events ever recorded on this ring (the tail keeps the last
    /// `capacity()` of them).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Configured capacity (0 = recording disabled).
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

/// Per-core live counters published by each [`CorePort`](crate::CorePort)
/// at the top of every sequenced section — i.e. only while the publisher
/// holds the sequencer token, which makes every value read at a heartbeat
/// boundary a deterministic function of the grant stream. Allocated only
/// when a heartbeat is armed, so unarmed runs pay nothing.
#[derive(Debug)]
pub struct LiveCounters {
    cores: Vec<LiveCore>,
}

#[derive(Debug)]
struct LiveCore {
    clock: AtomicU64,
    cats: [AtomicU64; 9],
    faults: [AtomicU64; 6],
}

impl LiveCounters {
    pub(crate) fn new(num_cores: usize) -> Self {
        LiveCounters {
            cores: (0..num_cores)
                .map(|_| LiveCore {
                    clock: AtomicU64::new(0),
                    cats: Default::default(),
                    faults: Default::default(),
                })
                .collect(),
        }
    }

    /// Publishes one core's current clock, time breakdown, and fault
    /// counters. Called under the sequencer token.
    pub(crate) fn publish(
        &self,
        core: usize,
        clock: u64,
        breakdown: &TimeBreakdown,
        faults: &FaultCounters,
    ) {
        let slot = &self.cores[core];
        slot.clock.store(clock, Ordering::Relaxed);
        for (i, cat) in TIME_CATEGORIES.iter().enumerate() {
            slot.cats[i].store(breakdown.get(*cat), Ordering::Relaxed);
        }
        for (i, (_, v)) in faults.pairs().iter().enumerate() {
            slot.faults[i].store(*v, Ordering::Relaxed);
        }
    }

    /// Maximum published core clock.
    fn max_clock(&self) -> u64 {
        self.cores.iter().map(|c| c.clock.load(Ordering::Relaxed)).max().unwrap_or(0)
    }

    /// Sum of each time category across cores, in [`TIME_CATEGORIES`]
    /// order.
    fn breakdown_sums(&self) -> [u64; 9] {
        let mut out = [0u64; 9];
        for c in &self.cores {
            for (i, v) in c.cats.iter().enumerate() {
                out[i] += v.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Sum of each fault counter across cores, in
    /// [`FaultCounters::pairs`] order.
    fn fault_sums(&self) -> [u64; 6] {
        let mut out = [0u64; 6];
        for c in &self.cores {
            for (i, v) in c.faults.iter().enumerate() {
                out[i] += v.load(Ordering::Relaxed);
            }
        }
        out
    }
}

/// One heartbeat snapshot, taken every K grants.
///
/// Deterministic fields (identical across reruns and backends for the same
/// config): `seq`, `time`, `total_grants`, `max_clock`, `breakdown`,
/// `faults`. Out-of-band fields (host-timing artifacts): `fast_grants`,
/// `cores`. Wall-clock rates are added by the sink, never here.
#[derive(Debug, Clone)]
pub struct HeartbeatSnap {
    /// Snapshot index (1-based; `total_grants / every`).
    pub seq: u64,
    /// Simulated time of the grant that triggered this snapshot.
    pub time: u64,
    /// Total token grants at the trigger.
    pub total_grants: u64,
    /// Grants taken through the inline fast re-grant path (out-of-band:
    /// fast-path eligibility depends on host thread timing).
    pub fast_grants: u64,
    /// Maximum core clock published to the live counters (0 when they
    /// are not armed).
    pub max_clock: u64,
    /// Live per-category cycle sums across cores, in
    /// [`TIME_CATEGORIES`] order.
    pub breakdown: [u64; 9],
    /// Live fault-injection counter sums across cores, in
    /// [`FaultCounters::pairs`] order.
    pub faults: [u64; 6],
    /// Per-core scheduler strip (out-of-band): every field except `grants`
    /// and `last_time` of the granting core reflects host-instantaneous
    /// scheduler state and is not rerun-stable.
    pub cores: Vec<SeqCoreDiag>,
    /// Always empty; kept so the `bigtiny-obs-heartbeat-v1` schema keeps
    /// its `islands` key (DESIGN §3.1.2).
    pub islands: Vec<u64>,
}

impl HeartbeatSnap {
    pub(crate) fn new(
        seq: u64,
        time: u64,
        total_grants: u64,
        fast_grants: u64,
        live: Option<&LiveCounters>,
        cores: Vec<SeqCoreDiag>,
    ) -> Self {
        HeartbeatSnap {
            seq,
            time,
            total_grants,
            fast_grants,
            max_clock: live.map_or(0, |l| l.max_clock()),
            breakdown: live.map_or([0; 9], |l| l.breakdown_sums()),
            faults: live.map_or([0; 6], |l| l.fault_sums()),
            cores,
            islands: Vec::new(),
        }
    }
}

/// Heartbeat configuration: emit a [`HeartbeatSnap`] to `sink` every
/// `every` grants. The sink runs on whichever simulation thread took the
/// triggering grant, with no engine locks held — it may do I/O, but must
/// never touch simulated state.
#[derive(Clone)]
pub struct Heartbeat {
    /// Emission cadence in grants (must be > 0).
    pub every: u64,
    /// Snapshot consumer.
    pub sink: Arc<dyn Fn(&HeartbeatSnap) + Send + Sync>,
}

impl Heartbeat {
    /// A heartbeat firing every `every` grants into `sink`.
    pub fn new(every: u64, sink: Arc<dyn Fn(&HeartbeatSnap) + Send + Sync>) -> Self {
        assert!(every > 0, "heartbeat cadence must be at least one grant");
        Heartbeat { every, sink }
    }
}

impl std::fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeat").field("every", &self.every).finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_last_cap_events_in_order() {
        let mut r = FlightRing::new(4);
        for t in 0..10u64 {
            r.record(t, FlightKind::Grant);
        }
        assert_eq!(r.total(), 10);
        let tail = r.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(tail.iter().map(|e| e.time).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_partial_fill_preserves_order() {
        let mut r = FlightRing::new(8);
        for t in [3u64, 5, 9] {
            r.record(t, FlightKind::DequePush);
        }
        assert_eq!(r.tail().iter().map(|e| e.time).collect::<Vec<_>>(), vec![3, 5, 9]);
        assert_eq!(r.total(), 3);
    }

    /// Every capacity (1 wraps on each record) at every fill level, across
    /// several wraps: the tail is the last `cap` events, oldest first.
    #[test]
    fn ring_tail_is_the_last_cap_events_at_every_fill_level() {
        for cap in [1usize, 2, 3, 4, 7] {
            let mut r = FlightRing::new(cap);
            for n in 0..=3 * cap as u64 + 1 {
                let want: Vec<u64> = (n.saturating_sub(cap as u64)..n).collect();
                let got: Vec<u64> = r.tail().iter().map(|e| e.time).collect();
                assert_eq!(got, want, "capacity {cap} after {n} records");
                assert_eq!(r.total(), n);
                r.record(n, FlightKind::Grant);
            }
        }
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let mut r = FlightRing::new(0);
        r.record(1, FlightKind::Grant);
        assert_eq!(r.total(), 0);
        assert!(r.tail().is_empty());
    }

    #[test]
    fn kind_labels_and_args() {
        assert_eq!(FlightKind::Grant.label(), "grant");
        assert_eq!(FlightKind::Grant.arg(), None);
        assert_eq!(FlightKind::UliReqSend { to: 3 }.arg(), Some(("peer", 3)));
        assert_eq!(FlightKind::TaskSpawn { task: 7 }.arg(), Some(("task", 7)));
        assert_eq!(FlightKind::FaultUliDelay { extra: 40 }.arg(), Some(("extra", 40)));
    }
}
