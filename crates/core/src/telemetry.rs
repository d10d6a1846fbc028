//! Host-side scheduler telemetry: per-victim steal counters, ULI
//! round-trip latency histograms, `has_stolen_child` elision counts, and
//! (optionally) per-task lifecycle events for trace export.
//!
//! Everything in this module is pure host-side bookkeeping. Recording
//! never sequences an operation, never charges a cycle, and only reads
//! clocks the simulation already computed (`port.now()`), so telemetry is
//! bit-for-bit invisible to simulated results — the golden-trace pins in
//! `tests/tests/golden_trace.rs` hold it to that.

/// A fixed-bucket log2 latency histogram: bucket `i` counts values in
/// `[2^i, 2^(i+1))`, with bucket 0 covering `{0, 1}` and the last bucket
/// open-ended. The bucket layout is part of the metrics schema, so it
/// never changes with the data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Log2Histogram {
    buckets: [u64; Self::NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; Self::NUM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Log2Histogram {
    /// Number of buckets. 32 covers latencies up to `2^31` cycles before
    /// the open-ended last bucket — far beyond any simulated round trip.
    pub const NUM_BUCKETS: usize = 32;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a value lands in.
    fn bucket_of(v: u64) -> usize {
        if v < 2 {
            0
        } else {
            ((63 - v.leading_zeros()) as usize).min(Self::NUM_BUCKETS - 1)
        }
    }

    /// Records one value. The running sum saturates at `u64::MAX` rather
    /// than wrapping, so `mean` degrades gracefully (reads low) if a
    /// caller ever records astronomically large values.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Per-bucket counts, in bucket order.
    pub fn buckets(&self) -> &[u64; Self::NUM_BUCKETS] {
        &self.buckets
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1 << i
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values; 0.0 when empty (never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `p`-th percentile (`p` in `[0, 100]`) by rank-walking
    /// the buckets and interpolating linearly inside the target bucket
    /// (between its lower bound and its upper bound, clamped to the
    /// recorded maximum). Resolution is therefore the bucket width — exact
    /// for the bucket, approximate within it. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = Self::bucket_lo(i);
                let hi =
                    if i + 1 < Self::NUM_BUCKETS { Self::bucket_lo(i + 1) - 1 } else { self.max };
                let hi = hi.min(self.max).max(lo);
                let frac = (rank - seen) as f64 / c as f64;
                // The f64 round-trip of a huge `hi - lo` can land above the
                // true width (f64 has 53 mantissa bits); clamp so `lo + off`
                // can never overflow past `hi`.
                let off = (((hi - lo) as f64 * frac).round() as u64).min(hi - lo);
                return lo + off;
            }
            seen += c;
        }
        self.max
    }

    /// Median estimate (see [`Log2Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th-percentile estimate (see [`Log2Histogram::percentile`]).
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th-percentile estimate (see [`Log2Histogram::percentile`]).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Steal-attempt outcomes against one victim, summed over all thieves.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VictimCounters {
    /// Steal attempts directed at this victim (lock-and-look, or a ULI
    /// request issued / forced to miss before any traffic).
    pub attempts: u64,
    /// Attempts that came back with a task.
    pub hits: u64,
    /// Attempts that came back empty (including NACKs, timeouts, and
    /// fault-forced misses).
    pub misses: u64,
}

/// Scheduler telemetry for one run, collected host-side while the
/// simulation executes and reported through
/// [`TaskRun::telemetry`](crate::TaskRun).
///
/// Under an armed fault plan, a timed-out steal whose response arrives
/// late is counted as both a miss (at the timeout) and a hit (at the late
/// claim), so `hits + misses` can slightly exceed `attempts`. A DTS steal
/// abandoned because the program completed while the thief awaited its
/// response resolves as neither (at most one per worker). Without faults,
/// those completion-race attempts are the only imbalance.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct StealTelemetry {
    /// Per-victim steal outcomes, indexed by victim core id.
    pub per_victim: Vec<VictimCounters>,
    /// ULI steal round-trip latency (request send to response receipt on
    /// the thief), DTS only.
    pub uli_rtt: Log2Histogram,
    /// `has_stolen_child` elisions: joins and completions that skipped the
    /// conservative AMO/invalidate protocol because no child was stolen
    /// (Section IV-C of the paper).
    pub hsc_elisions: u64,
    /// Completed `wait()` joins.
    pub joins: u64,
}

impl StealTelemetry {
    /// An empty telemetry record for `workers` cores.
    pub fn new(workers: usize) -> Self {
        StealTelemetry { per_victim: vec![VictimCounters::default(); workers], ..Self::default() }
    }

    /// Total steal attempts across victims.
    pub fn total_attempts(&self) -> u64 {
        self.per_victim.iter().map(|v| v.attempts).sum()
    }

    /// Total steal hits across victims.
    pub fn total_hits(&self) -> u64 {
        self.per_victim.iter().map(|v| v.hits).sum()
    }

    /// Total steal misses across victims.
    pub fn total_misses(&self) -> u64 {
        self.per_victim.iter().map(|v| v.misses).sum()
    }
}

/// One task lifecycle event, recorded only when
/// [`RuntimeConfig::record_task_events`](crate::RuntimeConfig) is set. The
/// trace exporter turns Spawn..ExecEnd into async task-lifetime spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskEvent {
    /// Simulated cycle on the recording core.
    pub cycle: u64,
    /// Core that recorded the event.
    pub core: usize,
    /// Task id the event concerns.
    pub task: u32,
    /// What happened.
    pub kind: TaskEventKind,
}

/// The task lifecycle points recorded as [`TaskEvent`]s.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskEventKind {
    /// The task was created (`spawn`, or the root's allocation).
    Spawn {
        /// Task id of the spawning task, `None` only for the root.
        parent: Option<u32>,
    },
    /// A worker began executing the task body.
    ExecBegin,
    /// The task body returned.
    ExecEnd,
    /// A thief claimed the task from victim `from`.
    Stolen {
        /// Victim core the task was taken from.
        from: usize,
    },
    /// The task's `wait()` returned — all children joined.
    Join,
    /// Crash recovery re-created the task: this event's task id is the
    /// replacement, `of` is the task that was executing on the fail-stopped
    /// core. The replacement inherits `of`'s parent and join obligation.
    Respawn {
        /// Task id of the original that died mid-execution.
        of: u32,
    },
    /// Crash recovery discarded the task without executing it: it sat
    /// unstarted in a fail-stopped core's deque, and every such orphan is a
    /// descendant of a task frozen on that core's execution stack, so
    /// re-executing the stack bottom recreates it.
    Discarded,
    /// A multiplicity deque double-claimed the original task `of` (owner
    /// and thief both won its slot), and this fresh record re-executes the
    /// body. Unlike [`TaskEventKind::Respawn`], the original *also* runs
    /// to completion — legal only under a multiplicity policy with an
    /// idempotent kernel, which the checker's `Multiplicity` audit mode
    /// verifies.
    Duplicate {
        /// Task id of the original that was double-claimed.
        of: u32,
    },
}

/// Why an event cannot extend a well-formed task stream. `Display` is the
/// sentence `check_task_dag` reports.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TaskFault {
    /// A second `ExecEnd` for one task record.
    EndedTwice(u32),
    /// `Discarded` after the task's body began executing.
    DiscardedMidExec(u32),
    /// Anything else that makes the stream not a spawn/join DAG recorded
    /// in per-core time order; the text says what.
    Malformed(String),
}

impl std::fmt::Display for TaskFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFault::EndedTwice(t) => write!(f, "task {t} ended twice"),
            TaskFault::DiscardedMidExec(t) => {
                write!(f, "task {t} discarded after it began executing")
            }
            TaskFault::Malformed(why) => f.write_str(why),
        }
    }
}

/// What the stream has said about one task so far (see [`TaskLedger`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TaskLife {
    /// A `Spawn`, `Respawn` or `Duplicate` introduced the task.
    pub spawned: bool,
    /// The task whose join waits for this one: the `Spawn`'s parent, or
    /// for a `Respawn` replacement the dead original's. `None` for the
    /// root and for a `Duplicate`, which carries no join obligation.
    pub parent: Option<u32>,
    /// `(cycle, core)` of the `ExecBegin`.
    pub exec_begin: Option<(u64, usize)>,
    /// Cycle of the `ExecEnd`.
    pub exec_end: Option<u64>,
    /// Recovery discarded the task from a dead core's deque.
    pub discarded: bool,
    /// A `Respawn` names this task as the original that died mid-execution.
    pub respawned: bool,
    /// How many `Duplicate`s name this task as their original.
    pub duplicates: u32,
    /// This record *is* a multiplicity duplicate.
    pub is_duplicate: bool,
    /// A thief claimed the task.
    pub stolen: bool,
    /// `(cycle, core)` of the first event recorded for the task; `None` for
    /// an id the stream only ever named as a parent or an original, or
    /// never named at all (ids are dense, records are not).
    pub first: Option<(u64, usize)>,
    /// `(cycle, core)` of the last event recorded for the task.
    pub last: (u64, usize),
}

/// The task lifecycle, stated once: a fold over the [`TaskEvent`] stream in
/// recording order that keeps one [`TaskLife`] per task id and the stream's
/// lifecycle counts. Every reader of the stream — the crash / multiplicity
/// audit, the DAG check, the critical-path replay, the trace exporter —
/// reads this and decides only what is its own to decide.
///
/// [`TaskLedger::push`] reports an event that breaks well-formedness and
/// applies it anyway, as far as it can be, so a reader may stop at the
/// first fault (a stream is a DAG or it is not) or carry on and report
/// every one (the audit). A well-formed stream obeys:
///
/// * every task is introduced exactly once, before any of its other
///   events, by a `Spawn` whose parent was introduced earlier and is not
///   the task itself, or by a `Respawn` / `Duplicate` of an introduced
///   original; exactly one `Spawn` — the root — has no parent;
/// * a task begins and ends execution at most once, in that order, and is
///   discarded only before it begins;
/// * cycles never decrease on one core.
#[derive(Clone, Debug, Default)]
pub struct TaskLedger {
    /// Tasks introduced (root, spawns, respawn replacements, duplicates).
    pub tasks: u64,
    /// `ExecEnd`s: task bodies that ran to completion.
    pub executed: u64,
    /// Steal claims.
    pub steals: u64,
    /// Completed `wait()` joins.
    pub joins: u64,
    /// Crash-recovery re-spawns of tasks lost on dead cores.
    pub respawns: u64,
    /// Orphans discarded from dead cores' deques.
    pub discards: u64,
    /// Multiplicity-deque duplicate re-executions.
    pub duplicates: u64,
    lives: Vec<TaskLife>,
    root: Option<u32>,
    last_cycle: Vec<u64>,
}

impl TaskLedger {
    /// Folds a whole stream, stopping at its first fault.
    pub fn fold(events: &[TaskEvent]) -> Result<Self, TaskFault> {
        let mut ledger = TaskLedger::default();
        let fault = events.iter().find_map(|e| ledger.push(e));
        fault.map_or(Ok(ledger), Err)
    }

    /// One record per task id up to the largest the stream named.
    pub fn lives(&self) -> &[TaskLife] {
        &self.lives
    }

    /// The parentless `Spawn`ed task.
    pub fn root(&self) -> Option<u32> {
        self.root
    }

    /// Whether a `Respawn` names `task` or one of its ancestors: the
    /// replacement re-runs the dead task's whole subtree, so a covered task
    /// that stopped mid-execution, or never started, is accounted for.
    pub fn covered(&self, task: u32) -> bool {
        let mut at = Some(task);
        // A well-formed stream's links run to strictly earlier spawns; the
        // bound only matters on a malformed one, whose links may cycle.
        for _ in 0..self.lives.len() {
            match at.and_then(|t| self.lives.get(t as usize)) {
                Some(life) if life.respawned => return true,
                Some(life) => at = life.parent,
                None => return false,
            }
        }
        false
    }

    /// The record of `task`, created if the stream has not named it yet.
    fn life(&mut self, task: u32) -> &mut TaskLife {
        let id = task as usize;
        if self.lives.len() <= id {
            self.lives.resize(id + 1, TaskLife::default());
        }
        &mut self.lives[id]
    }

    fn is_spawned(&self, task: u32) -> bool {
        self.lives.get(task as usize).is_some_and(|l| l.spawned)
    }

    /// Advances the ledger by one event. Returns the (first) way the event
    /// breaks well-formedness, if it does; the event is applied regardless.
    pub fn push(&mut self, e: &TaskEvent) -> Option<TaskFault> {
        use TaskEventKind::*;
        let (id, at) = (e.task, (e.cycle, e.core));
        let mut fault = None;
        macro_rules! bad {
            ($($why:tt)*) => {{
                fault.get_or_insert(TaskFault::Malformed(format!($($why)*)));
            }};
        }
        if self.last_cycle.len() <= e.core {
            self.last_cycle.resize(e.core + 1, 0);
        }
        let last = std::mem::replace(&mut self.last_cycle[e.core], e.cycle);
        if e.cycle < last {
            bad!("core {} went back in time: cycle {} after {last}", e.core, e.cycle);
        }
        let spawned = self.life(id).spawned;
        let introduces = matches!(e.kind, Spawn { .. } | Respawn { .. } | Duplicate { .. });
        if introduces {
            if spawned {
                bad!("task {id} spawned twice");
            }
            self.tasks += 1;
        } else if !spawned {
            match e.kind {
                ExecBegin => bad!("task {id} began executing without a Spawn"),
                Discarded => bad!("task {id} discarded without a Spawn"),
                Stolen { .. } => bad!("task {id} stolen without a Spawn"),
                Join => bad!("task {id} joined without a Spawn"),
                // An end is faulted below for the begin it lacks.
                _ => {}
            }
        }
        // `life(id)` above made the record: index it from here on.
        let own = id as usize;
        match e.kind {
            Spawn { parent } => {
                match parent {
                    Some(p) if p == id => bad!("task {id} is its own parent"),
                    Some(p) if !self.is_spawned(p) => {
                        bad!("task {id} spawned by task {p}, which was never spawned")
                    }
                    Some(_) => {}
                    None if self.root.is_some() => {
                        bad!("expected exactly one parentless root task, found 2")
                    }
                    None => self.root = Some(id),
                }
                self.lives[own].parent = parent;
            }
            Respawn { of } => {
                if !self.is_spawned(of) {
                    bad!("task {id} respawns task {of}, which was never spawned");
                }
                self.respawns += 1;
                let original = self.life(of);
                original.respawned = true;
                // The replacement re-runs the dead task's subtree in its
                // parent's stead.
                let parent = original.parent;
                self.lives[own].parent = parent;
            }
            Duplicate { of } => {
                if !self.is_spawned(of) {
                    bad!("task {id} duplicates task {of}, which was never spawned");
                }
                self.duplicates += 1;
                self.life(of).duplicates += 1;
                // Parentless, but not a root: the original carries the join.
                self.lives[own].is_duplicate = true;
            }
            ExecBegin => {
                if self.lives[own].exec_begin.replace(at).is_some() {
                    bad!("task {id} began executing twice");
                }
            }
            ExecEnd => {
                self.executed += 1;
                if self.lives[own].exec_begin.is_none() {
                    bad!("task {id} ended without beginning");
                }
                if self.lives[own].exec_end.replace(e.cycle).is_some() {
                    fault.get_or_insert(TaskFault::EndedTwice(id));
                }
            }
            Discarded => {
                self.discards += 1;
                self.lives[own].discarded = true;
                if self.lives[own].exec_begin.is_some() {
                    fault.get_or_insert(TaskFault::DiscardedMidExec(id));
                }
            }
            Stolen { .. } => {
                self.steals += 1;
                self.lives[own].stolen = true;
            }
            Join => self.joins += 1,
        }
        let life = &mut self.lives[own];
        life.spawned |= introduces;
        life.first.get_or_insert(at);
        life.last = at;
        fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_cover_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 0);
        assert_eq!(Log2Histogram::bucket_of(2), 1);
        assert_eq!(Log2Histogram::bucket_of(3), 1);
        assert_eq!(Log2Histogram::bucket_of(4), 2);
        assert_eq!(Log2Histogram::bucket_of(1023), 9);
        assert_eq!(Log2Histogram::bucket_of(1024), 10);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), Log2Histogram::NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_stats_track_records() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.mean(), 0.0, "empty histogram must not be NaN");
        h.record(4);
        h.record(8);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 12);
        assert_eq!(h.max(), 8);
        assert_eq!(h.mean(), 6.0);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[3], 1);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Log2Histogram::new();
        a.record(2);
        let mut b = Log2Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 102);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn bucket_bounds_are_schema_stable() {
        assert_eq!(Log2Histogram::bucket_lo(0), 0);
        assert_eq!(Log2Histogram::bucket_lo(1), 2);
        assert_eq!(Log2Histogram::bucket_lo(5), 32);
    }

    #[test]
    fn percentiles_empty_and_single() {
        let h = Log2Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        // `percentile` on an empty histogram is 0 for every `p`, including
        // the extremes and out-of-range values (which clamp): rank-walking
        // zero buckets must short-circuit, never divide by the zero count.
        for p in [0.0, 50.0, 100.0, -3.0, 250.0] {
            assert_eq!(h.percentile(p), 0, "empty histogram at p={p}");
        }
        // A single value is exact at every percentile: the interpolation
        // upper bound clamps to the recorded max.
        let mut h = Log2Histogram::new();
        h.record(100);
        assert_eq!(h.p50(), 100);
        assert_eq!(h.p90(), 100);
        assert_eq!(h.p99(), 100);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max(), "{p50} {p90} {p99}");
        // Bucket-resolution accuracy: the true percentiles are 500/900/990,
        // so the estimates must land in the same power-of-two bucket.
        assert_eq!(Log2Histogram::bucket_of(p50), Log2Histogram::bucket_of(500));
        assert_eq!(Log2Histogram::bucket_of(p90), Log2Histogram::bucket_of(900));
        assert_eq!(Log2Histogram::bucket_of(p99), Log2Histogram::bucket_of(990));
    }

    #[test]
    fn percentiles_pick_heavy_tail() {
        // 99 fast values and one slow outlier: p50 stays in the fast
        // bucket, p99 crosses into the outlier's reach.
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(8);
        }
        h.record(100_000);
        assert!(h.p50() < 16, "{}", h.p50());
        assert!(h.percentile(100.0) == 100_000, "{}", h.percentile(100.0));
    }

    #[test]
    fn percentile_extreme_p_values_clamp() {
        let mut h = Log2Histogram::new();
        for v in [3, 5, 9] {
            h.record(v);
        }
        // p=0 clamps to the first recorded value's bucket floor; p=100 is
        // the max; out-of-range inputs clamp rather than misbehave.
        assert_eq!(h.percentile(0.0), h.percentile(-5.0));
        assert_eq!(h.percentile(100.0), 9);
        assert_eq!(h.percentile(250.0), 9);
        assert!(h.percentile(0.0) <= h.percentile(100.0));
    }

    #[test]
    fn percentile_bucket_zero_holds_both_zero_and_one() {
        // Bucket 0 covers {0, 1}: all-zeros must report 0, not 1.
        let mut h = Log2Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.p50(), 0);
        assert_eq!(h.percentile(100.0), 0);
        // A mix interpolates within the bucket but never exceeds the max.
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        assert!(h.p50() <= 1);
        assert_eq!(h.percentile(100.0), 1);
    }

    #[test]
    fn percentile_open_ended_last_bucket_does_not_overflow() {
        // The last bucket is open-ended (everything >= 2^31 lands there);
        // interpolation against a near-u64::MAX max must clamp instead of
        // wrapping to a tiny value.
        let mut h = Log2Histogram::new();
        h.record(1u64 << 31);
        h.record(u64::MAX);
        let p99 = h.p99();
        assert!(p99 >= 1u64 << 31, "interpolated percentile wrapped: {p99}");
        assert_eq!(h.percentile(100.0), u64::MAX);
        // All-max histogram: estimates stay inside [bucket floor, max]
        // (bucket resolution means p50 interpolates mid-bucket, but it must
        // never wrap past the max).
        let mut h = Log2Histogram::new();
        for _ in 0..4 {
            h.record(u64::MAX);
        }
        assert!(h.p50() >= 1u64 << 31);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }

    fn ev(cycle: u64, core: usize, task: u32, kind: TaskEventKind) -> TaskEvent {
        TaskEvent { cycle, core, task, kind }
    }

    /// Root 0 spawns 1 (stolen to core 1, which dies inside it with child 2
    /// begun and child 3 still queued); 4 respawns 1; 5 duplicates 4.
    fn recovery_stream() -> Vec<TaskEvent> {
        use TaskEventKind::*;
        vec![
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 0, ExecBegin),
            ev(2, 0, 1, Spawn { parent: Some(0) }),
            ev(3, 1, 1, Stolen { from: 0 }),
            ev(4, 1, 1, ExecBegin),
            ev(5, 1, 2, Spawn { parent: Some(1) }),
            ev(6, 1, 3, Spawn { parent: Some(1) }),
            ev(7, 1, 2, ExecBegin),
            ev(9, 2, 3, Discarded),
            ev(10, 2, 4, Respawn { of: 1 }),
            ev(11, 2, 4, ExecBegin),
            ev(12, 0, 5, Duplicate { of: 4 }),
            ev(13, 0, 5, ExecBegin),
            ev(14, 0, 5, ExecEnd),
            ev(15, 2, 4, ExecEnd),
            ev(16, 0, 0, Join),
            ev(17, 0, 0, ExecEnd),
        ]
    }

    #[test]
    fn ledger_folds_a_recovery_stream_into_lives_and_counts() {
        let l = TaskLedger::fold(&recovery_stream()).expect("well-formed");
        assert_eq!(
            (l.tasks, l.executed, l.steals, l.joins, l.respawns, l.discards, l.duplicates),
            (6, 3, 1, 1, 1, 1, 1)
        );
        assert_eq!(l.root(), Some(0));
        let lives = l.lives();
        assert_eq!(lives.len(), 6);
        // The replacement inherits the dead original's parent; the
        // duplicate has none and is not a root.
        assert_eq!(lives[4].parent, Some(0));
        assert!(lives[1].respawned && !lives[4].respawned);
        assert_eq!((lives[5].parent, lives[5].is_duplicate, lives[4].duplicates), (None, true, 1));
        assert!(lives[1].stolen && !lives[2].stolen);
        assert_eq!((lives[4].exec_begin, lives[4].exec_end), (Some((11, 2)), Some(15)));
        assert_eq!((lives[3].first, lives[3].last), (Some((6, 1)), (9, 2)));
        assert!(lives[3].discarded && lives[3].exec_begin.is_none());
        // The respawn covers the dead task and everything under it, and
        // nothing else.
        assert!(l.covered(1) && l.covered(2) && l.covered(3));
        assert!(!l.covered(0) && !l.covered(4) && !l.covered(5) && !l.covered(99));
    }

    #[test]
    fn ledger_reports_the_first_fault_of_an_event_and_applies_it_anyway() {
        use TaskEventKind::*;
        let fault = |prefix: &[TaskEvent], e: TaskEvent| {
            let mut l = TaskLedger::default();
            for p in prefix {
                assert_eq!(l.push(p), None, "prefix must be well-formed: {p:?}");
            }
            (l.push(&e).map(|f| f.to_string()).unwrap_or_default(), l)
        };
        let root = ev(0, 0, 0, Spawn { parent: None });
        let begun = [root, ev(1, 0, 0, ExecBegin)];
        let cases = [
            (&[][..], ev(0, 0, 3, Stolen { from: 1 }), "task 3 stolen without a Spawn"),
            (&[], ev(0, 0, 3, Join), "task 3 joined without a Spawn"),
            (&[], ev(0, 0, 3, Discarded), "task 3 discarded without a Spawn"),
            (&[], ev(0, 0, 3, ExecBegin), "task 3 began executing without a Spawn"),
            (&[], ev(0, 0, 3, ExecEnd), "task 3 ended without beginning"),
            (&[root], ev(1, 0, 0, Spawn { parent: None }), "task 0 spawned twice"),
            (&[root], ev(1, 0, 0, Respawn { of: 0 }), "task 0 spawned twice"),
            (&[root], ev(1, 0, 0, Duplicate { of: 0 }), "task 0 spawned twice"),
            (&[root], ev(1, 0, 1, Spawn { parent: Some(1) }), "task 1 is its own parent"),
            (
                &[root],
                ev(1, 0, 1, Spawn { parent: Some(7) }),
                "task 1 spawned by task 7, which was never spawned",
            ),
            (
                &[root],
                ev(1, 0, 1, Spawn { parent: None }),
                "expected exactly one parentless root task, found 2",
            ),
            (
                &[root],
                ev(1, 0, 1, Respawn { of: 7 }),
                "task 1 respawns task 7, which was never spawned",
            ),
            (
                &[root],
                ev(1, 0, 1, Duplicate { of: 7 }),
                "task 1 duplicates task 7, which was never spawned",
            ),
            (&begun, ev(2, 0, 0, ExecBegin), "task 0 began executing twice"),
            (&begun, ev(2, 0, 0, Discarded), "task 0 discarded after it began executing"),
            (&begun, ev(0, 0, 0, ExecEnd), "core 0 went back in time: cycle 0 after 1"),
        ];
        for (prefix, e, want) in cases {
            let (got, l) = fault(prefix, e);
            assert_eq!(got, want, "{e:?}");
            assert_eq!(l.lives()[e.task as usize].last, (e.cycle, e.core));
        }
        // Applied anyway: the late `ExecEnd` still ends the task, a second
        // one is the one fault with a kind of its own.
        let (_, mut l) = fault(&begun, ev(0, 0, 0, ExecEnd));
        assert_eq!((l.executed, l.lives()[0].exec_end), (1, Some(0)));
        assert_eq!(l.push(&ev(5, 0, 0, ExecEnd)), Some(TaskFault::EndedTwice(0)));
        assert_eq!(l.executed, 2);
        // `fold` stops at the first fault.
        assert_eq!(
            TaskLedger::fold(&[root, ev(1, 0, 0, ExecBegin), ev(2, 0, 0, Discarded), root]).err(),
            Some(TaskFault::DiscardedMidExec(0))
        );
    }

    /// Bad parent links are recorded as the stream gave them, so they can
    /// dangle or close a cycle; the coverage walk must return regardless.
    #[test]
    fn coverage_walk_survives_dangling_and_cyclic_parent_links() {
        use TaskEventKind::*;
        let mut l = TaskLedger::default();
        for e in [
            ev(0, 0, 0, Spawn { parent: None }),
            ev(1, 0, 1, Spawn { parent: Some(1) }),
            ev(2, 0, 2, Spawn { parent: Some(3) }),
            ev(3, 0, 3, Spawn { parent: Some(2) }),
            ev(4, 0, 4, Spawn { parent: Some(900) }),
        ] {
            l.push(&e);
        }
        for t in 0..6 {
            assert!(!l.covered(t), "task {t}");
        }
        l.push(&ev(5, 0, 5, Respawn { of: 3 }));
        assert!(l.covered(2) && l.covered(3) && !l.covered(1) && !l.covered(4));
    }

    /// A fifth copy of the lifecycle cannot grow back unnoticed: outside
    /// this file, no non-test code of the stream's readers walks parent
    /// links for coverage, or takes a respawn's original to copy its
    /// parent link.
    #[test]
    fn only_the_ledger_derives_a_task_lifecycle() {
        let crates = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("crates/");
        let mut scanned = 0;
        for reader in ["checker", "obs"] {
            for entry in std::fs::read_dir(crates.join(reader).join("src")).expect("source dir") {
                let path = entry.expect("directory entry").path();
                let text = std::fs::read_to_string(&path).expect("source is readable");
                let code = text.split("#[cfg(test)]").next().unwrap_or_default();
                let squeezed: String = code.split_whitespace().collect();
                for forbidden in ["fncovered", "letcovered", "Respawn{of"] {
                    assert!(
                        !squeezed.contains(forbidden),
                        "{} has `{forbidden}`: read the TaskLedger instead",
                        path.display()
                    );
                }
                scanned += 1;
            }
        }
        assert!(scanned >= 15, "the readers' sources moved: {scanned} files scanned");
    }

    #[test]
    fn telemetry_totals_sum_victims() {
        let mut t = StealTelemetry::new(3);
        t.per_victim[1].attempts = 5;
        t.per_victim[1].hits = 3;
        t.per_victim[2].attempts = 2;
        t.per_victim[2].misses = 2;
        assert_eq!(t.total_attempts(), 7);
        assert_eq!(t.total_hits(), 3);
        assert_eq!(t.total_misses(), 2);
    }
}
