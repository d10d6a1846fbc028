//! System configurations, including every named configuration the paper
//! evaluates (Table II, Section V-A).

use bigtiny_coherence::{CoreMemConfig, MemConfig, Protocol};
use bigtiny_mesh::{MeshConfig, Topology};

use crate::event::CheckMode;
use crate::fault::FaultPlan;
use crate::flight::{Heartbeat, DEFAULT_FLIGHT_CAPACITY};

/// Host execution backend for the simulated cores. Every backend produces
/// the identical sequenced-op stream (pinned by the golden-trace tests) and
/// hosts the liveness watchdog; they differ only in host wall clock.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ExecBackend {
    /// Pick automatically: [`ExecBackend::Fibers`] where supported (x86_64
    /// Linux), else [`ExecBackend::Threads`]. Where fibers are supported,
    /// `BIGTINY_BACKEND=threads` selects [`ExecBackend::Threads`] instead;
    /// any other value is ignored with a warning on stderr.
    #[default]
    Auto,
    /// One OS thread per simulated core: a token handoff is a futex wake
    /// plus a kernel context switch. The portability fallback for hosts
    /// without fiber support.
    Threads,
    /// Every core as a stackful fiber on the thread that calls
    /// `run_system`: a token handoff is a user-space stack switch. Panics
    /// at run start where unsupported (non-x86_64-Linux).
    Fibers,
    /// An alias of [`ExecBackend::Fibers`] (same run, same `backend_label`
    /// `fibers`). The N-island fiber backend it named never beat one island
    /// and is gone (DESIGN.md §3.1.2); the alias stays only while the
    /// frozen `benchmark/` crate names it (ROADMAP item 3(a) deletes both).
    ShardedFibers,
}

/// Grant tie-breaking policy of the sequencer.
///
/// The sequencer always grants a waiter holding the globally minimum
/// *time*; when two or more waiters share that minimum time the choice
/// among them is semantically free — any of them is a legal next step of
/// the simulated machine. This policy picks.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub enum SchedulePolicy {
    /// Break ties by the lowest core id (the historical behavior). Zero
    /// cost, records nothing, and preserves every golden op-stream hash
    /// bit for bit.
    #[default]
    MinCore,
    /// Replay an explorer-chosen choice sequence: the `i`-th grant with
    /// ≥ 2 minimum-time candidates takes the candidate (in ascending
    /// core-id order) at index `script[i]`, and every such grant is
    /// recorded as a [`crate::ChoicePoint`] in
    /// [`crate::RunReport::choice_points`]. Out-of-range and exhausted
    /// script entries fall back to index 0, so `Scripted(vec![])` replays
    /// the `MinCore` schedule exactly while recording its choice points.
    Scripted(Vec<u32>),
}

/// Core microarchitecture class.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CoreKind {
    /// 4-way out-of-order, 64 KB L1, hardware (MESI) coherence.
    Big,
    /// Single-issue in-order, 4 KB L1, per-configuration coherence.
    Tiny,
}

impl CoreKind {
    /// Non-memory instructions retired per cycle (Table II).
    pub const fn issue_width(self) -> u64 {
        match self {
            CoreKind::Big => 4,
            CoreKind::Tiny => 1,
        }
    }

    /// What a memory stall is divided by as the core sees it: a big core's
    /// out-of-order window overlaps part of every miss with independent
    /// work; a tiny core stalls for all of it.
    pub const fn overlap_div(self) -> u64 {
        match self {
            CoreKind::Big => 2,
            CoreKind::Tiny => 1,
        }
    }

    /// Cycles to interrupt the core for a ULI: "a few" on a tiny core,
    /// 10-50 on a big one, which drains its out-of-order pipeline.
    pub const fn uli_cost(self) -> u64 {
        match self {
            CoreKind::Big => 30,
            CoreKind::Tiny => 5,
        }
    }
}

/// Configuration of one simulated core.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreConfig {
    /// Microarchitecture class.
    pub kind: CoreKind,
    /// Private-cache configuration.
    pub mem: CoreMemConfig,
}

impl CoreConfig {
    /// The paper's big core (MESI, 64 KB L1D).
    pub fn big() -> Self {
        CoreConfig { kind: CoreKind::Big, mem: CoreMemConfig::big() }
    }

    /// The paper's tiny core with protocol `protocol` (4 KB L1D).
    pub fn tiny(protocol: Protocol) -> Self {
        CoreConfig { kind: CoreKind::Tiny, mem: CoreMemConfig::tiny(protocol) }
    }
}

/// Full simulated-system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Human-readable name, e.g. `b.T/HCC-gwb` or `O3x8`.
    pub name: String,
    /// Data-OCN configuration (fixes topology and bank count).
    pub mesh: MeshConfig,
    /// Cores, in core-id order. Core 0 runs the program's main thread. A
    /// core's timing is its [`CoreKind`]'s.
    pub cores: Vec<CoreConfig>,
    /// Global seed for deterministic pseudo-randomness.
    pub seed: u64,
    /// Record per-core execution traces (see [`crate::render_timeline`]).
    pub trace: bool,
    /// Record per-task attribution spans (see [`crate::AttrSpan`]): which
    /// task each core's cycles belong to, with a full [`TimeBreakdown`](crate::TimeBreakdown)
    /// per span. Off by default; recording only reads already-computed
    /// clocks and is bit-for-bit invisible to simulated timing.
    pub attr: bool,
    /// Fault-injection plan. Defaults to [`FaultPlan::none()`], which is
    /// zero-cost: no fault code runs and timing is bit-for-bit unchanged.
    pub faults: FaultPlan,
    /// Liveness watchdog: maximum sequencer grants between runtime
    /// progress marks before the run is declared stuck. Arming it also
    /// arms the idle-spin rule ([`crate::MAX_IDLE_CHARGES`]). `None`
    /// (default) disables the watchdog entirely.
    pub watchdog_budget: Option<u64>,
    /// Host execution backend (fibers vs one thread per core). Simulated
    /// results are identical whichever is picked; see [`ExecBackend`].
    pub backend: ExecBackend,
    /// DRF conformance checking. `Off` (default) collects nothing and is
    /// bit-for-bit invisible; armed modes buffer the addressed per-op
    /// event stream in [`crate::RunReport::mem_events`] without changing a
    /// single simulated cycle or op-stream hash.
    pub check: CheckMode,
    /// Sequencer grant tie-breaking policy. `MinCore` (default) is the
    /// historical lowest-core-id rule; `Scripted` replays an explicit
    /// choice sequence and records every tie as a
    /// [`crate::ChoicePoint`] — the hook the schedule-space explorer
    /// (`bigtiny-checker::explore`) drives.
    pub schedule: SchedulePolicy,
    /// Per-core flight-recorder ring capacity in events
    /// ([`DEFAULT_FLIGHT_CAPACITY`] by default; 0 disables recording).
    /// The recorder is always on because it is observation-only: it reads
    /// clocks the simulation already computed and never sequences or
    /// charges a cycle, so armed and unarmed runs are bit-for-bit
    /// identical (golden-pinned).
    pub flight_ring: usize,
    /// Live heartbeat hook: emit a [`crate::HeartbeatSnap`] every
    /// `heartbeat.every` sequencer grants. `None` (default) is zero-cost.
    pub heartbeat: Option<Heartbeat>,
}

impl SystemConfig {
    fn new(name: &str, mesh: MeshConfig, cores: Vec<CoreConfig>) -> Self {
        SystemConfig {
            name: name.to_owned(),
            mesh,
            cores,
            seed: 0x5eed,
            trace: false,
            attr: false,
            faults: FaultPlan::none(),
            watchdog_budget: None,
            backend: ExecBackend::Auto,
            check: CheckMode::Off,
            schedule: SchedulePolicy::MinCore,
            flight_ring: DEFAULT_FLIGHT_CAPACITY,
            heartbeat: None,
        }
    }

    /// A traditional multicore with `n` big out-of-order cores (the paper's
    /// `O3x1`, `O3x4`, `O3x8` comparison points).
    pub fn o3(n: usize) -> Self {
        assert!((1..=64).contains(&n));
        Self::new(&format!("O3x{n}"), MeshConfig::paper_64_core(), vec![CoreConfig::big(); n])
    }

    /// A big.TINY system: `num_big` big cores followed by `num_tiny` tiny
    /// cores running `tiny_protocol`, on `mesh`.
    pub fn big_tiny(
        name: &str,
        mesh: MeshConfig,
        num_big: usize,
        num_tiny: usize,
        tiny_protocol: Protocol,
    ) -> Self {
        assert!(num_big + num_tiny <= mesh.topology.num_tiles(), "too many cores for the mesh");
        let mut cores = vec![CoreConfig::big(); num_big];
        cores.extend(std::iter::repeat_n(CoreConfig::tiny(tiny_protocol), num_tiny));
        Self::new(name, mesh, cores)
    }

    /// The paper's 64-core `big.TINY/MESI`: 4 big + 60 tiny, all MESI.
    pub fn big_tiny_mesi() -> Self {
        Self::big_tiny("b.T/MESI", MeshConfig::paper_64_core(), 4, 60, Protocol::Mesi)
    }

    /// The paper's 64-core `big.TINY/HCC-*`: 4 big MESI cores + 60 tiny
    /// cores running the given software-centric protocol.
    pub fn big_tiny_hcc(tiny_protocol: Protocol) -> Self {
        assert_ne!(tiny_protocol, Protocol::Mesi, "use big_tiny_mesi() for the MESI configuration");
        Self::big_tiny(
            &format!("b.T/HCC-{}", tiny_protocol.label()),
            MeshConfig::paper_64_core(),
            4,
            60,
            tiny_protocol,
        )
    }

    /// The paper's 256-core system (Table V): 4 big + 252 tiny on an 8×32
    /// mesh with 32 L2 banks and 4× the DRAM bandwidth.
    pub fn big_tiny_256(tiny_protocol: Protocol) -> Self {
        let name = if tiny_protocol == Protocol::Mesi {
            "b.T-256/MESI".to_owned()
        } else {
            format!("b.T-256/HCC-{}", tiny_protocol.label())
        };
        Self::big_tiny(&name, MeshConfig::paper_256_core(), 4, 252, tiny_protocol)
    }

    /// A 64-tiny-core system (used by the Figure 4 granularity study).
    pub fn tiny_only(n: usize, protocol: Protocol) -> Self {
        assert!((1..=64).contains(&n));
        Self::big_tiny(
            &format!("tiny{n}/{}", protocol.label()),
            MeshConfig::paper_64_core(),
            0,
            n,
            protocol,
        )
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Number of big cores.
    pub fn num_big(&self) -> usize {
        self.cores.iter().filter(|c| c.kind == CoreKind::Big).count()
    }

    /// Ids of tiny cores.
    pub fn tiny_cores(&self) -> Vec<usize> {
        (0..self.cores.len()).filter(|i| self.cores[*i].kind == CoreKind::Tiny).collect()
    }

    /// The mesh topology.
    pub fn topology(&self) -> Topology {
        self.mesh.topology
    }

    /// Derives the memory-system configuration.
    pub fn mem_config(&self) -> MemConfig {
        MemConfig::paper(self.mesh, self.cores.iter().map(|c| c.mem).collect())
    }

    /// Returns a copy with a different seed (for replicated experiments).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with the given fault plan armed.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Returns a copy with the liveness watchdog armed at `budget`
    /// sequencer grants between progress marks.
    pub fn with_watchdog(mut self, budget: u64) -> Self {
        self.watchdog_budget = Some(budget);
        self
    }

    /// Returns a copy pinned to the given host execution backend.
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Returns a copy with the DRF conformance checker armed at `check`.
    pub fn with_check(mut self, check: CheckMode) -> Self {
        self.check = check;
        self
    }

    /// Returns a copy with the given sequencer tie-breaking policy.
    pub fn with_schedule(mut self, schedule: SchedulePolicy) -> Self {
        self.schedule = schedule;
        self
    }

    /// Returns a copy with per-task attribution-span recording armed.
    pub fn with_attr(mut self) -> Self {
        self.attr = true;
        self
    }

    /// Returns a copy with the per-core flight-recorder ring resized to
    /// `events` entries (0 disables recording).
    pub fn with_flight_ring(mut self, events: usize) -> Self {
        self.flight_ring = events;
        self
    }

    /// Returns a copy with the given heartbeat hook armed.
    pub fn with_heartbeat(mut self, heartbeat: Heartbeat) -> Self {
        self.heartbeat = Some(heartbeat);
        self
    }

    /// Host stack bytes reserved per simulated core (thread stack or
    /// guard-paged fiber mmap, so an overflow faults loudly). Stacks are
    /// lazily committed, so the cost of a large size is address space and
    /// mapping count, both of which scale with core count — hence the size
    /// shrinks as the system grows: 32 MB up to 64 cores (the historical
    /// fixed size), 8 MB up to 256, 2 MB beyond (a 1024-core system then
    /// reserves 2 GB, not 32 GB, and stays clear of `vm.max_map_count`).
    pub fn core_stack_bytes(&self) -> usize {
        match self.num_cores() {
            0..=64 => 32 << 20,
            65..=256 => 8 << 20,
            _ => 2 << 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_64_core_shape() {
        let c = SystemConfig::big_tiny_mesi();
        assert_eq!(c.num_cores(), 64);
        assert_eq!(c.num_big(), 4);
        assert_eq!(c.tiny_cores().len(), 60);
        assert_eq!(c.topology().num_banks(), 8);
    }

    #[test]
    fn hcc_configs_name_protocols() {
        assert_eq!(SystemConfig::big_tiny_hcc(Protocol::DeNovo).name, "b.T/HCC-dnv");
        assert_eq!(SystemConfig::big_tiny_hcc(Protocol::GpuWt).name, "b.T/HCC-gwt");
        assert_eq!(SystemConfig::big_tiny_hcc(Protocol::GpuWb).name, "b.T/HCC-gwb");
    }

    #[test]
    fn o3_systems_are_all_big() {
        let c = SystemConfig::o3(8);
        assert_eq!(c.num_cores(), 8);
        assert_eq!(c.num_big(), 8);
        assert!(c.cores.iter().all(|cc| cc.mem.protocol == Protocol::Mesi));
    }

    #[test]
    fn large_system_shape() {
        let c = SystemConfig::big_tiny_256(Protocol::GpuWb);
        assert_eq!(c.num_cores(), 256);
        assert_eq!(c.topology().num_banks(), 32);
        assert_eq!(c.name, "b.T-256/HCC-gwb");
    }

    #[test]
    #[should_panic(expected = "use big_tiny_mesi")]
    fn hcc_with_mesi_rejected() {
        SystemConfig::big_tiny_hcc(Protocol::Mesi);
    }

    #[test]
    fn stack_default_shrinks_with_core_count() {
        assert_eq!(SystemConfig::big_tiny_mesi().core_stack_bytes(), 32 << 20);
        assert_eq!(SystemConfig::o3(4).core_stack_bytes(), 32 << 20);
        assert_eq!(SystemConfig::big_tiny_256(Protocol::GpuWb).core_stack_bytes(), 8 << 20);
    }

    #[test]
    fn area_equivalence_of_o3x8() {
        // The paper sizes O3x8 by total L1 capacity: 8 big L1s ~= 4 big + 60
        // tiny L1s (64KB*8 = 512KB vs 64KB*4 + 4KB*60 = 496KB).
        let o3 = SystemConfig::o3(8);
        let bt = SystemConfig::big_tiny_mesi();
        let cap = |c: &SystemConfig| c.cores.iter().map(|x| x.mem.l1_bytes).sum::<usize>();
        let (a, b) = (cap(&o3), cap(&bt));
        let ratio = a as f64 / b as f64;
        assert!((0.9..1.1).contains(&ratio), "L1 area ratio {ratio}");
    }
}
