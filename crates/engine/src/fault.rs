//! Deterministic fault injection for adversarial-schedule testing.
//!
//! A [`FaultPlan`] describes which faults to inject and how often; it is
//! part of [`SystemConfig`](crate::SystemConfig) and defaults to
//! [`FaultPlan::none()`], in which case **no fault code runs at all**: the
//! golden path is bit-for-bit identical to a build without this module.
//!
//! Determinism: every fault decision is a roll on a seeded xorshift stream.
//! Each core owns its own stream (seeded from the plan seed and the core
//! id) consumed in that core's program order, and the data-OCN owns one
//! stream consumed in message order — both orders are fixed by the global
//! token sequencer, so the same seed injects the same faults at the same
//! points on every run, even though faults change timing.
//!
//! The fault taxonomy (see DESIGN.md, "Fault model & liveness"):
//!
//! * **ULI request drop** — the thief's steal request is charged to the
//!   network but never arrives and no NACK returns; the thief believes the
//!   send succeeded and must time out.
//! * **ULI forced NACK** — the request bounces as if the victim's buffer
//!   were full, exercising the NACK-retry path far beyond its natural rate.
//! * **ULI delivery delay** — the request arrives late by a fixed number of
//!   cycles, widening steal/termination race windows.
//! * **ULI receive drop** — the victim's ULI unit takes the request but the
//!   handler never sees it (a lost interrupt).
//! * **Steal-victim miss** — the runtime's victim selection is forced to
//!   report an empty deque, starving thieves into long retry storms.
//! * **Mesh latency spike** — a data-OCN message suffers a large extra
//!   latency, perturbing every memory-system timing assumption.
//! * **Fail-stop core crash** — a tiny core goes permanently (or, with
//!   `revive_after_cycles`, temporarily) dark at a sequenced cycle
//!   boundary: its ULI unit answers every future steal request with a dead
//!   indication and the surviving cores must recover its lost work. Unlike
//!   the transient faults above, the doomed set and crash cycles are rolled
//!   **once per core at system start** (not per opportunity), so the crash
//!   schedule is a pure function of the plan and seed.

use bigtiny_mesh::{CoreSet, MeshFaults, XorShift64};

/// A deterministic fault-injection plan (see the module docs).
///
/// All probabilities are in thousandths: `0` disables that fault, `1000`
/// fires on every opportunity.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Probability a ULI request is silently dropped in the network.
    pub uli_drop_per_mille: u32,
    /// Probability a ULI request is force-NACKed.
    pub uli_nack_per_mille: u32,
    /// Probability a delivered ULI request is delayed by
    /// [`FaultPlan::uli_delay_cycles`].
    pub uli_delay_per_mille: u32,
    /// Extra delivery delay for delayed requests, in cycles.
    pub uli_delay_cycles: u64,
    /// Probability an arrived ULI request is dropped at the receiver
    /// instead of being dispatched to the handler.
    pub uli_rx_drop_per_mille: u32,
    /// Probability a steal-victim lookup is forced to miss (runtime-level).
    pub steal_miss_per_mille: u32,
    /// Probability a data-OCN message suffers a latency spike.
    pub mesh_spike_per_mille: u32,
    /// Extra latency of a spiked data-OCN message, in cycles.
    pub mesh_spike_cycles: u64,
    /// Probability (rolled **once** per crash-eligible core at system
    /// start) that the core fail-stops mid-run. Crash-eligible cores are
    /// tiny cores other than core 0 (core 0 runs the program's root task).
    pub crash_per_mille: u32,
    /// Set of cores forced to fail-stop, independent of
    /// [`FaultPlan::crash_per_mille`]. Unbounded in core index (a 256-core
    /// plan can doom core 200); entries naming crash-ineligible cores are
    /// ignored.
    pub crash_cores: CoreSet,
    /// Cycle at which doomed cores fail-stop (each dies at its first
    /// scheduler safe point at or after this cycle). `0` picks a
    /// deterministic per-core cycle in `[1024, 9216)`.
    pub crash_at_cycle: u64,
    /// Cycles after its crash at which a dead core comes back and rejoins
    /// the computation. `0` means the crash is permanent.
    pub revive_after_cycles: u64,
    /// Seed of every fault decision stream.
    pub seed: u64,
}

impl FaultPlan {
    /// No faults: the zero-cost default. With this plan the simulator's
    /// timing and determinism are bit-for-bit unchanged.
    pub const fn none() -> Self {
        FaultPlan {
            uli_drop_per_mille: 0,
            uli_nack_per_mille: 0,
            uli_delay_per_mille: 0,
            uli_delay_cycles: 0,
            uli_rx_drop_per_mille: 0,
            steal_miss_per_mille: 0,
            mesh_spike_per_mille: 0,
            mesh_spike_cycles: 0,
            crash_per_mille: 0,
            crash_cores: CoreSet::new(),
            crash_at_cycle: 0,
            revive_after_cycles: 0,
            seed: 0,
        }
    }

    /// ULI drop-storm: a quarter of steal requests vanish in the network
    /// and some arrive but are lost at the receiver.
    pub fn uli_drop_storm(seed: u64) -> Self {
        FaultPlan {
            uli_drop_per_mille: 250,
            uli_nack_per_mille: 150,
            uli_rx_drop_per_mille: 100,
            ..Self::none_seeded(seed)
        }
    }

    /// Steal-miss storm: most victim lookups are forced empty, with extra
    /// ULI delivery delay widening the retry windows.
    pub fn steal_miss_storm(seed: u64) -> Self {
        FaultPlan {
            steal_miss_per_mille: 600,
            uli_delay_per_mille: 200,
            uli_delay_cycles: 400,
            ..Self::none_seeded(seed)
        }
    }

    /// Mesh latency spikes: 5% of data-OCN messages take an extra 500
    /// cycles.
    pub fn mesh_latency_spikes(seed: u64) -> Self {
        FaultPlan { mesh_spike_per_mille: 50, mesh_spike_cycles: 500, ..Self::none_seeded(seed) }
    }

    /// Everything at once: the hostile plan used by the chaos integration
    /// tests.
    pub fn hostile(seed: u64) -> Self {
        FaultPlan {
            uli_drop_per_mille: 200,
            uli_nack_per_mille: 150,
            uli_delay_per_mille: 150,
            uli_delay_cycles: 300,
            uli_rx_drop_per_mille: 80,
            steal_miss_per_mille: 300,
            mesh_spike_per_mille: 30,
            mesh_spike_cycles: 400,
            ..Self::none_seeded(seed)
        }
    }

    /// A single mid-run fail-stop: tiny core 5 dies and stays dead.
    pub fn crash_one(seed: u64) -> Self {
        FaultPlan {
            crash_cores: CoreSet::from_mask(1 << 5),
            crash_at_cycle: 1500,
            ..Self::none_seeded(seed)
        }
    }

    /// The acceptance-criteria crash storm: three tiny cores (5, 9, 13 —
    /// tiny in both the 64-core paper machine and the 16-core ablation
    /// machine) all die mid-run and never return.
    pub fn crash_storm(seed: u64) -> Self {
        FaultPlan {
            crash_cores: CoreSet::from_mask((1 << 5) | (1 << 9) | (1 << 13)),
            crash_at_cycle: 1500,
            ..Self::none_seeded(seed)
        }
    }

    /// Two tiny cores die mid-run and revive 4000 cycles later, exercising
    /// the quarantine re-probe and graceful-rejoin paths.
    pub fn crash_revive(seed: u64) -> Self {
        FaultPlan {
            crash_cores: CoreSet::from_mask((1 << 5) | (1 << 9)),
            crash_at_cycle: 1500,
            revive_after_cycles: 4000,
            ..Self::none_seeded(seed)
        }
    }

    /// Crash × transient mix: a core crash on top of the hostile transient
    /// storm — the worst chaos plan the integration tests run directly.
    pub fn crash_hostile(seed: u64) -> Self {
        FaultPlan {
            crash_cores: CoreSet::from_mask(1 << 5),
            crash_at_cycle: 1500,
            ..Self::hostile(seed)
        }
    }

    fn none_seeded(seed: u64) -> Self {
        FaultPlan { seed, ..Self::none() }
    }

    /// Whether any fault is armed. `false` guarantees the golden path.
    pub fn is_active(&self) -> bool {
        self.uli_drop_per_mille > 0
            || self.uli_nack_per_mille > 0
            || self.uli_delay_per_mille > 0
            || self.uli_rx_drop_per_mille > 0
            || self.steal_miss_per_mille > 0
            || self.mesh_spike_per_mille > 0
            || self.crash_armed()
    }

    /// Whether fail-stop crashes are armed. Runtimes gate their recovery
    /// machinery (exec-frame recording, respawn factories, dead-core
    /// polling) on this, the same way [`FaultPlan::is_active`] gates the
    /// transient-hardening paths.
    pub fn crash_armed(&self) -> bool {
        self.crash_per_mille > 0 || !self.crash_cores.is_empty()
    }

    /// The plan's data-OCN spike component, if armed.
    pub fn mesh_faults(&self) -> Option<MeshFaults> {
        (self.mesh_spike_per_mille > 0).then_some(MeshFaults {
            spike_per_mille: self.mesh_spike_per_mille,
            spike_cycles: self.mesh_spike_cycles,
            seed: self.seed,
        })
    }

    /// Every named plan [`FaultPlan::by_name`] resolves, in its match
    /// order. CLI error messages enumerate this list so a typo shows the
    /// valid spellings.
    pub const NAMES: [&'static str; 9] = [
        "none",
        "uli-drop-storm",
        "steal-miss-storm",
        "mesh-latency-spikes",
        "hostile",
        "crash-one",
        "crash-storm",
        "crash-revive",
        "crash-hostile",
    ];

    /// Looks up a named plan (one of [`FaultPlan::NAMES`]) for CLI use.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "uli-drop-storm" => Some(Self::uli_drop_storm(seed)),
            "steal-miss-storm" => Some(Self::steal_miss_storm(seed)),
            "mesh-latency-spikes" => Some(Self::mesh_latency_spikes(seed)),
            "hostile" => Some(Self::hostile(seed)),
            "crash-one" => Some(Self::crash_one(seed)),
            "crash-storm" => Some(Self::crash_storm(seed)),
            "crash-revive" => Some(Self::crash_revive(seed)),
            "crash-hostile" => Some(Self::crash_hostile(seed)),
            _ => None,
        }
    }

    /// Resolves a named plan or, failing that, parses a
    /// [`FaultPlan::from_spec`] `key=value` spec — the form the chaos
    /// fuzzer prints for minimal reproducers.
    pub fn parse(s: &str, seed: u64) -> Option<Self> {
        Self::by_name(s, seed).or_else(|| {
            Self::from_spec(s).map(|mut p| {
                if p.seed == 0 {
                    p.seed = seed;
                }
                p
            })
        })
    }

    /// Renders the plan as a comma-separated `key=value` spec listing only
    /// its non-default dimensions (`"none"` for the empty plan). The
    /// output round-trips through [`FaultPlan::from_spec`]; the chaos
    /// fuzzer prints it as the `--fault-plan` argument of a minimal
    /// reproducer.
    pub fn to_spec(&self) -> String {
        let mut parts: Vec<String> = [
            ("uli_drop", self.uli_drop_per_mille as u64),
            ("uli_nack", self.uli_nack_per_mille as u64),
            ("uli_delay", self.uli_delay_per_mille as u64),
            ("uli_delay_cycles", self.uli_delay_cycles),
            ("uli_rx_drop", self.uli_rx_drop_per_mille as u64),
            ("steal_miss", self.steal_miss_per_mille as u64),
            ("mesh_spike", self.mesh_spike_per_mille as u64),
            ("mesh_spike_cycles", self.mesh_spike_cycles),
        ]
        .iter()
        .filter(|(_, v)| *v != 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
        if !self.crash_cores.is_empty() {
            parts.push(format!("crash_cores={}", self.crash_cores.to_hex()));
        }
        for (k, v) in [
            ("crash", self.crash_per_mille as u64),
            ("crash_at", self.crash_at_cycle),
            ("revive_after", self.revive_after_cycles),
            ("seed", self.seed),
        ] {
            if v != 0 {
                parts.push(format!("{k}={v}"));
            }
        }
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join(",")
        }
    }

    /// Parses a comma-separated `key=value` spec produced by
    /// [`FaultPlan::to_spec`] (`crash_cores` also accepts `0x` hex).
    /// Returns `None` on any unknown key or malformed value.
    pub fn from_spec(spec: &str) -> Option<Self> {
        if spec == "none" {
            return Some(Self::none());
        }
        let mut p = Self::none();
        for part in spec.split(',') {
            let (k, raw) = part.split_once('=')?;
            let raw = raw.trim();
            // `crash_cores` is a set of arbitrary width (hex or decimal
            // mask); every other value is a plain u64 (with `0x` accepted).
            if k.trim() == "crash_cores" {
                p.crash_cores = CoreSet::parse(raw)?;
                continue;
            }
            let parse = |v: &str| -> Option<u64> {
                if let Some(hex) = v.strip_prefix("0x") {
                    u64::from_str_radix(hex, 16).ok()
                } else {
                    v.parse().ok()
                }
            };
            let v = parse(raw)?;
            let mille = |v: u64| -> Option<u32> { (v <= 1000).then_some(v as u32) };
            match k.trim() {
                "uli_drop" => p.uli_drop_per_mille = mille(v)?,
                "uli_nack" => p.uli_nack_per_mille = mille(v)?,
                "uli_delay" => p.uli_delay_per_mille = mille(v)?,
                "uli_delay_cycles" => p.uli_delay_cycles = v,
                "uli_rx_drop" => p.uli_rx_drop_per_mille = mille(v)?,
                "steal_miss" => p.steal_miss_per_mille = mille(v)?,
                "mesh_spike" => p.mesh_spike_per_mille = mille(v)?,
                "mesh_spike_cycles" => p.mesh_spike_cycles = v,
                "crash" => p.crash_per_mille = mille(v)?,
                "crash_at" => p.crash_at_cycle = v,
                "revive_after" => p.revive_after_cycles = v,
                "seed" => p.seed = v,
                _ => return None,
            }
        }
        Some(p)
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Per-core injected-fault counts, reported through
/// [`RunReport`](crate::RunReport) for ablations and regression tracking.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct FaultCounters {
    /// ULI requests silently dropped in the network.
    pub uli_drops: u64,
    /// ULI requests force-NACKed.
    pub uli_nacks: u64,
    /// ULI requests delivered late.
    pub uli_delays: u64,
    /// ULI requests dropped at the receiver.
    pub uli_rx_drops: u64,
    /// Steal-victim lookups forced to miss.
    pub steal_misses: u64,
    /// Fail-stop crashes taken (at most one per doomed core per life).
    pub crashes: u64,
}

impl FaultCounters {
    /// Sum of all injected faults.
    pub fn total(&self) -> u64 {
        self.uli_drops
            + self.uli_nacks
            + self.uli_delays
            + self.uli_rx_drops
            + self.steal_misses
            + self.crashes
    }

    /// All `(label, count)` pairs — the stable iteration surface the
    /// metrics exporter keys its schema on.
    pub fn pairs(&self) -> [(&'static str, u64); 6] {
        [
            ("uli_drops", self.uli_drops),
            ("uli_nacks", self.uli_nacks),
            ("uli_delays", self.uli_delays),
            ("uli_rx_drops", self.uli_rx_drops),
            ("steal_misses", self.steal_misses),
            ("crashes", self.crashes),
        ]
    }
}

impl std::ops::AddAssign for FaultCounters {
    fn add_assign(&mut self, o: Self) {
        self.uli_drops += o.uli_drops;
        self.uli_nacks += o.uli_nacks;
        self.uli_delays += o.uli_delays;
        self.uli_rx_drops += o.uli_rx_drops;
        self.steal_misses += o.steal_misses;
        self.crashes += o.crashes;
    }
}

/// One core's fault-decision state: a dedicated xorshift stream plus the
/// counts of what it injected. Inactive plans never touch the stream.
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    active: bool,
    rng: XorShift64,
    /// This core is scheduled to fail-stop (forced by the crash-core mask
    /// or rolled by `crash_per_mille`); decided once at construction.
    doomed: bool,
    /// The cycle at or after which a doomed core dies.
    crash_at: u64,
    /// Set once the crash has been taken (a revived core does not re-die).
    crashed: bool,
    pub counters: FaultCounters,
}

impl FaultState {
    pub fn new(plan: FaultPlan, core: usize, crash_eligible: bool) -> Self {
        // The doom roll uses its own one-shot stream, separate from the
        // per-opportunity stream below: transient-fault consumption in
        // program order must not shift the crash schedule.
        let mut doomed = false;
        let mut crash_at = 0;
        if crash_eligible && plan.crash_armed() {
            let forced = plan.crash_cores.contains(core);
            let mut crng =
                XorShift64::new(plan.seed ^ (core as u64 + 1).wrapping_mul(0x6372_6173_685f_6174));
            let rolled =
                plan.crash_per_mille > 0 && crng.next_below(1000) < plan.crash_per_mille as u64;
            if forced || rolled {
                doomed = true;
                crash_at = if plan.crash_at_cycle > 0 {
                    plan.crash_at_cycle
                } else {
                    1024 + crng.next_below(8192)
                };
            }
        }
        FaultState {
            active: plan.is_active(),
            rng: XorShift64::new(plan.seed ^ (core as u64 + 1).wrapping_mul(0x666c_745f_636f_7265)),
            plan,
            doomed,
            crash_at,
            crashed: false,
            counters: FaultCounters::default(),
        }
    }

    /// Whether fail-stop crashes are armed in the plan (on any core, not
    /// necessarily this one).
    pub fn crash_armed(&self) -> bool {
        self.plan.crash_armed()
    }

    /// Whether this core's scheduled crash is due at local time `now`.
    pub fn crash_pending(&self, now: u64) -> bool {
        self.doomed && !self.crashed && now >= self.crash_at
    }

    /// Records that this core took its crash.
    pub fn note_crashed(&mut self) {
        self.crashed = true;
        self.counters.crashes += 1;
    }

    /// Cycles after a crash at which the dead core revives (0 = never).
    pub fn revive_after(&self) -> u64 {
        self.plan.revive_after_cycles
    }

    fn roll(&mut self, per_mille: u32) -> bool {
        per_mille > 0 && self.rng.next_below(1000) < per_mille as u64
    }

    /// Decides the fate of an outgoing ULI request.
    pub fn on_uli_send(&mut self) -> UliSendFault {
        if !self.active {
            return UliSendFault::None;
        }
        if self.roll(self.plan.uli_drop_per_mille) {
            self.counters.uli_drops += 1;
            return UliSendFault::Drop;
        }
        if self.roll(self.plan.uli_nack_per_mille) {
            self.counters.uli_nacks += 1;
            return UliSendFault::Nack;
        }
        if self.roll(self.plan.uli_delay_per_mille) {
            self.counters.uli_delays += 1;
            return UliSendFault::Delay(self.plan.uli_delay_cycles);
        }
        UliSendFault::None
    }

    /// Whether an arrived ULI request should be dropped at the receiver.
    pub fn on_uli_receive(&mut self) -> bool {
        if self.active && self.roll(self.plan.uli_rx_drop_per_mille) {
            self.counters.uli_rx_drops += 1;
            return true;
        }
        false
    }

    /// Whether a steal-victim lookup should be forced to miss.
    pub fn on_steal_lookup(&mut self) -> bool {
        if self.active && self.roll(self.plan.steal_miss_per_mille) {
            self.counters.steal_misses += 1;
            return true;
        }
        false
    }
}

/// Fate of one outgoing ULI request under fault injection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum UliSendFault {
    /// Deliver normally.
    None,
    /// Drop silently (sender believes it was sent).
    Drop,
    /// Bounce with a forced NACK.
    Nack,
    /// Deliver, but `0.cycles` late.
    Delay(u64),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_is_inactive_and_rolls_nothing() {
        let mut s = FaultState::new(FaultPlan::none(), 3, true);
        for _ in 0..100 {
            assert_eq!(s.on_uli_send(), UliSendFault::None);
            assert!(!s.on_uli_receive());
            assert!(!s.on_steal_lookup());
        }
        assert_eq!(s.counters.total(), 0);
    }

    #[test]
    fn decision_streams_are_deterministic_per_core() {
        let decisions = |core| {
            let mut s = FaultState::new(FaultPlan::hostile(42), core, true);
            (0..200).map(|_| s.on_uli_send()).collect::<Vec<_>>()
        };
        assert_eq!(decisions(1), decisions(1), "same core, same stream");
        assert_ne!(decisions(1), decisions(2), "cores have independent streams");
    }

    #[test]
    fn storm_plans_fire_at_roughly_configured_rates() {
        let mut s = FaultState::new(FaultPlan::uli_drop_storm(7), 0, false);
        for _ in 0..1000 {
            let _ = s.on_uli_send();
        }
        let drops = s.counters.uli_drops;
        assert!((150..350).contains(&drops), "250/1000 nominal, got {drops}");
    }

    #[test]
    fn named_plans_resolve() {
        // NAMES is the CLI's error-message surface: every entry must
        // resolve, and every plan `by_name` resolves must be listed.
        assert_eq!(
            FaultPlan::NAMES,
            [
                "none",
                "uli-drop-storm",
                "steal-miss-storm",
                "mesh-latency-spikes",
                "hostile",
                "crash-one",
                "crash-storm",
                "crash-revive",
                "crash-hostile",
            ]
        );
        for name in FaultPlan::NAMES {
            assert!(FaultPlan::by_name(name, 1).is_some(), "{name}");
        }
        assert!(FaultPlan::by_name("bogus", 1).is_none());
        assert!(!FaultPlan::by_name("none", 1).unwrap().is_active());
        assert!(FaultPlan::by_name("hostile", 1).unwrap().is_active());
        assert!(FaultPlan::by_name("crash-storm", 1).unwrap().is_active());
        assert!(FaultPlan::by_name("crash-storm", 1).unwrap().crash_armed());
        assert!(!FaultPlan::by_name("hostile", 1).unwrap().crash_armed());
    }

    #[test]
    fn crash_schedule_is_decided_once_and_deterministic() {
        // Forced mask: exactly the named cores are doomed, at the plan's
        // cycle, regardless of how much transient stream is consumed.
        let plan = FaultPlan::crash_storm(7);
        for core in 0..16 {
            let mut s = FaultState::new(plan.clone(), core, core != 0);
            let doomed = core == 5 || core == 9 || core == 13;
            assert_eq!(s.crash_pending(1500), doomed, "core {core}");
            assert!(!s.crash_pending(1499), "core {core} early");
            for _ in 0..100 {
                let _ = s.on_uli_send();
            }
            assert_eq!(s.crash_pending(1500), doomed, "core {core} after rolls");
            if doomed {
                s.note_crashed();
                assert!(!s.crash_pending(2000), "a taken crash never re-fires");
                assert_eq!(s.counters.crashes, 1);
            }
        }
        // Ineligible cores never die even when the mask names them.
        let s = FaultState::new(plan, 5, false);
        assert!(!s.crash_pending(u64::MAX));
        // Probabilistic doom: same seed, same doomed set; the per-core
        // crash cycle lands in the documented default window.
        let doomed_set = |seed| {
            (1..64usize)
                .filter(|&c| {
                    FaultState::new(
                        FaultPlan { crash_per_mille: 300, ..FaultPlan::none_seeded(seed) },
                        c,
                        true,
                    )
                    .crash_pending(u64::MAX)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(doomed_set(3), doomed_set(3));
        assert_ne!(doomed_set(3), doomed_set(4), "seed varies the doomed set");
        let n = doomed_set(3).len();
        assert!((5..=35).contains(&n), "300/1000 nominal over 63 cores, got {n}");
    }

    /// Regression: the old `u64` crash mask had a silent `core < 64` guard,
    /// so a plan dooming core 200 in a 256-core machine never fired.
    #[test]
    fn forced_crash_works_past_core_64() {
        let mut plan = FaultPlan::none();
        plan.crash_cores.insert(200);
        plan.crash_at_cycle = 1500;
        let s = FaultState::new(plan.clone(), 200, true);
        assert!(s.crash_pending(1500), "core 200 must be doomed");
        assert!(!s.crash_pending(1499));
        // Only the named core is doomed.
        assert!(!FaultState::new(plan.clone(), 199, true).crash_pending(u64::MAX));
        assert!(!FaultState::new(plan, 201, true).crash_pending(u64::MAX));
    }

    #[test]
    fn specs_round_trip() {
        assert_eq!(FaultPlan::none().to_spec(), "none");
        assert_eq!(FaultPlan::from_spec("none"), Some(FaultPlan::none()));
        for name in FaultPlan::NAMES {
            let p = FaultPlan::by_name(name, 11).unwrap();
            assert_eq!(FaultPlan::from_spec(&p.to_spec()), Some(p), "{name}");
        }
        let p = FaultPlan::from_spec("uli_drop=250,crash_cores=0x20,crash_at=1500").unwrap();
        assert_eq!(p.uli_drop_per_mille, 250);
        assert_eq!(p.crash_cores, CoreSet::from_mask(0x20));
        assert_eq!(p.crash_at_cycle, 1500);
        // Wide sets (cores ≥ 64) round-trip through the hex spec too.
        let mut wide = FaultPlan::none();
        wide.crash_cores.insert(200);
        wide.crash_cores.insert(5);
        wide.crash_at_cycle = 1500;
        assert_eq!(FaultPlan::from_spec(&wide.to_spec()), Some(wide.clone()), "{}", wide.to_spec());
        assert!(FaultPlan::from_spec(&wide.to_spec()).unwrap().crash_cores.contains(200));
        assert!(FaultPlan::from_spec("crash_cores=zz").is_none());
        assert!(FaultPlan::from_spec("bogus_key=1").is_none());
        assert!(FaultPlan::from_spec("uli_drop=1001").is_none(), "per-mille out of range");
        assert!(FaultPlan::from_spec("uli_drop").is_none(), "missing value");
        // `parse` accepts both forms and threads the CLI seed through.
        assert_eq!(FaultPlan::parse("hostile", 5), Some(FaultPlan::hostile(5)));
        assert_eq!(FaultPlan::parse("crash_cores=0x20", 5).unwrap().seed, 5);
        assert!(FaultPlan::parse("nope", 5).is_none());
    }

    #[test]
    fn mesh_component_extracted_only_when_armed() {
        assert!(FaultPlan::none().mesh_faults().is_none());
        let f = FaultPlan::mesh_latency_spikes(9).mesh_faults().unwrap();
        assert_eq!(f.spike_per_mille, 50);
        assert_eq!(f.seed, 9);
    }
}
