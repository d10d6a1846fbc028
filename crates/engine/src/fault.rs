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
/// fires on every opportunity. Each field is one row of
/// [`FaultPlan::KNOBS`], which is how a plan is parsed, printed and shrunk.
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

/// The largest value of a per-mille rate: the fault fires on every
/// opportunity.
const MAX_MILLE: u64 = 1000;

/// The largest value of a cycle-valued knob: far past the end of any run,
/// and far enough below `u64::MAX` that adding it to a simulated time
/// cannot overflow.
const MAX_CYCLES: u64 = 1_000_000_000;

/// The largest core a plan's crash set may name.
const MAX_CORE: u64 = 4095;

/// What a knob does to its plan. [`FaultPlan::is_active`],
/// [`FaultPlan::crash_armed`] and the chaos fuzzer's shrinker read this
/// instead of naming fields.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Role {
    /// A per-mille rate arming one transient fault.
    Transient,
    /// Arms fail-stop crashes.
    Crash,
    /// Scales the dimension armed by the knob with this key.
    Scales(&'static str),
    /// When doomed cores die: part of the crash schedule, meaningless
    /// without a crash.
    CrashAt,
    /// How long a crashed core stays dead: part of the crash schedule,
    /// meaningless without a crash, and a dimension of its own.
    Revive,
    /// Seeds every decision stream.
    Seed,
}

/// One knob of a [`FaultPlan`]: a row of [`FaultPlan::KNOBS`].
#[derive(Clone, Copy, Debug)]
pub struct Knob {
    /// The knob's key in a spec ([`FaultPlan::to_spec`]).
    pub key: &'static str,
    /// What the knob does.
    pub role: Role,
    /// The largest value [`FaultPlan::resolve`] accepts; for the crash
    /// set, the largest core.
    pub max: u64,
    value: Value,
}

/// The get/set pair of a knob that holds a number.
pub type Scalar = (fn(&FaultPlan) -> u64, fn(&mut FaultPlan, u64));

/// Where a knob's value lives in the plan: its get/set pair.
#[derive(Clone, Copy, Debug)]
enum Value {
    /// A number (a rate's field is a `u32`, which its maximum fits).
    Number(Scalar),
    /// The crash-core set.
    Cores(fn(&FaultPlan) -> &CoreSet, fn(&mut FaultPlan) -> &mut CoreSet),
}

/// A knob whose value is the number in `$field`.
macro_rules! scalar {
    ($key:literal, $field:ident, $role:expr, $max:expr) => {
        Knob {
            key: $key,
            role: $role,
            max: $max,
            value: Value::Number((|p| p.$field as u64, |p, v| p.$field = v as _)),
        }
    };
}

/// The hostile transient storm, shared by two named plans.
macro_rules! hostile {
    () => {
        "uli_drop=200,uli_nack=150,uli_delay=150,uli_delay_cycles=300,uli_rx_drop=80,\
         steal_miss=300,mesh_spike=30,mesh_spike_cycles=400"
    };
}

impl Knob {
    /// The knob's get/set pair, if it holds a number (every knob but the
    /// crash set does).
    pub fn scalar(&self) -> Option<Scalar> {
        match self.value {
            Value::Number(pair) => Some(pair),
            Value::Cores(..) => None,
        }
    }

    /// Whether the knob differs from its [`FaultPlan::none`] value.
    pub fn is_armed(&self, p: &FaultPlan) -> bool {
        match self.value {
            Value::Number((get, _)) => get(p) != 0,
            Value::Cores(get, _) => !get(p).is_empty(),
        }
    }

    /// Puts the knob back to its [`FaultPlan::none`] value.
    pub fn clear(&self, p: &mut FaultPlan) {
        match self.value {
            Value::Number((_, set)) => set(p, 0),
            Value::Cores(_, set) => *set(p) = CoreSet::new(),
        }
    }

    /// The knob's value as a spec prints it.
    fn text(&self, p: &FaultPlan) -> String {
        match self.value {
            Value::Number((get, _)) => get(p).to_string(),
            Value::Cores(get, _) => get(p).to_hex(),
        }
    }

    /// Sets the knob from a spec value: a decimal or `0x` hex number, or
    /// for the crash set an arbitrary-width mask, at most [`Knob::max`].
    fn write(&self, p: &mut FaultPlan, raw: &str) -> Result<(), String> {
        let (key, max) = (self.key, self.max);
        match self.value {
            Value::Number((_, set)) => {
                let v = match raw.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16).ok(),
                    None => raw.parse().ok(),
                };
                let v = v.ok_or_else(|| format!("`{key}={raw}`: not a u64"))?;
                if v > max {
                    return Err(format!("`{key}={raw}`: above the maximum {max}"));
                }
                set(p, v);
            }
            Value::Cores(_, set) => {
                let cores =
                    CoreSet::parse(raw).ok_or_else(|| format!("`{key}={raw}`: not a core mask"))?;
                if cores.iter().last().is_some_and(|core| core as u64 > max) {
                    return Err(format!("`{key}={raw}`: names a core above {max}"));
                }
                *set(p) = cores;
            }
        }
        Ok(())
    }
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

    /// Every field of the plan, once, in spec order. Parsing, printing,
    /// [`FaultPlan::is_active`], [`FaultPlan::crash_armed`] and the chaos
    /// fuzzer's shrinker walk this table.
    pub const KNOBS: [Knob; 13] = [
        scalar!("uli_drop", uli_drop_per_mille, Role::Transient, MAX_MILLE),
        scalar!("uli_nack", uli_nack_per_mille, Role::Transient, MAX_MILLE),
        scalar!("uli_delay", uli_delay_per_mille, Role::Transient, MAX_MILLE),
        scalar!("uli_delay_cycles", uli_delay_cycles, Role::Scales("uli_delay"), MAX_CYCLES),
        scalar!("uli_rx_drop", uli_rx_drop_per_mille, Role::Transient, MAX_MILLE),
        scalar!("steal_miss", steal_miss_per_mille, Role::Transient, MAX_MILLE),
        scalar!("mesh_spike", mesh_spike_per_mille, Role::Transient, MAX_MILLE),
        scalar!("mesh_spike_cycles", mesh_spike_cycles, Role::Scales("mesh_spike"), MAX_CYCLES),
        Knob {
            key: "crash_cores",
            role: Role::Crash,
            max: MAX_CORE,
            value: Value::Cores(|p| &p.crash_cores, |p| &mut p.crash_cores),
        },
        scalar!("crash", crash_per_mille, Role::Crash, MAX_MILLE),
        scalar!("crash_at", crash_at_cycle, Role::CrashAt, MAX_CYCLES),
        scalar!("revive_after", revive_after_cycles, Role::Revive, MAX_CYCLES),
        scalar!("seed", seed, Role::Seed, u64::MAX),
    ];

    /// The named plans: `(name, spec)`, each spec taking its seed from
    /// [`FaultPlan::by_name`]'s caller.
    pub const NAMED: [(&'static str, &'static str); 9] = [
        ("none", "none"),
        // A quarter of steal requests vanish in the network and some
        // arrive but are lost at the receiver.
        ("uli-drop-storm", "uli_drop=250,uli_nack=150,uli_rx_drop=100"),
        // Most victim lookups are forced empty, with extra ULI delivery
        // delay widening the retry windows.
        ("steal-miss-storm", "uli_delay=200,uli_delay_cycles=400,steal_miss=600"),
        // 5% of data-OCN messages take an extra 500 cycles.
        ("mesh-latency-spikes", "mesh_spike=50,mesh_spike_cycles=500"),
        // Every transient fault at once: the chaos integration tests' plan.
        ("hostile", hostile!()),
        // Tiny core 5 dies mid-run and stays dead.
        ("crash-one", "crash_cores=0x20,crash_at=1500"),
        // Tiny cores 5, 9 and 13 (tiny in both the 64-core paper machine
        // and the 16-core ablation machine) die mid-run and never return.
        ("crash-storm", "crash_cores=0x2220,crash_at=1500"),
        // Cores 5 and 9 die mid-run and revive 4000 cycles later: the
        // quarantine re-probe and graceful-rejoin paths.
        ("crash-revive", "crash_cores=0x220,crash_at=1500,revive_after=4000"),
        // A core crash on top of the hostile storm: the worst plan the
        // integration tests run directly.
        ("crash-hostile", concat!(hostile!(), ",crash_cores=0x20,crash_at=1500")),
    ];

    /// The names of [`FaultPlan::NAMED`], in order. CLI error messages
    /// enumerate them so a typo shows the valid spellings.
    pub const NAMES: [&'static str; 9] = {
        let mut names = [""; 9];
        let mut i = 0;
        while i < names.len() {
            names[i] = Self::NAMED[i].0;
            i += 1;
        }
        names
    };

    /// Whether any fault is armed. `false` guarantees the golden path.
    pub fn is_active(&self) -> bool {
        Self::KNOBS
            .iter()
            .any(|k| matches!(k.role, Role::Transient | Role::Crash) && k.is_armed(self))
    }

    /// Whether fail-stop crashes are armed. Runtimes gate their recovery
    /// machinery (exec-frame recording, respawn factories, dead-core
    /// polling) on this, the same way [`FaultPlan::is_active`] gates the
    /// transient-hardening paths.
    pub fn crash_armed(&self) -> bool {
        Self::KNOBS.iter().any(|k| k.role == Role::Crash && k.is_armed(self))
    }

    /// The plan's data-OCN spike component, if armed.
    pub fn mesh_faults(&self) -> Option<MeshFaults> {
        (self.mesh_spike_per_mille > 0).then_some(MeshFaults {
            spike_per_mille: self.mesh_spike_per_mille,
            spike_cycles: self.mesh_spike_cycles,
            seed: self.seed,
        })
    }

    /// Looks up a named plan (one of [`FaultPlan::NAMES`]) for CLI use.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        Self::NAMES
            .contains(&name)
            .then(|| Self::resolve(name, seed).expect("every named plan's spec parses"))
    }

    /// [`FaultPlan::resolve`] without the reason for a refusal.
    pub fn parse(s: &str, seed: u64) -> Option<Self> {
        Self::resolve(s, seed).ok()
    }

    /// Resolves a `--fault-plan` value: a named plan or a `key=value`
    /// spec, the form the chaos fuzzer prints for minimal reproducers. A
    /// plan that sets no seed takes `seed`, except `none`, which is
    /// [`FaultPlan::none()`] whatever the seed. The error says why `s`
    /// does not resolve, naming the offending key.
    pub fn resolve(s: &str, seed: u64) -> Result<Self, String> {
        let spec = Self::NAMED.iter().find(|(name, _)| *name == s).map_or(s, |(_, spec)| spec);
        let mut p = Self::read_spec(spec).map_err(|why| {
            if s.contains('=') {
                format!("bad spec `{s}`: {why}")
            } else {
                format!("unknown plan `{s}`")
            }
        })?;
        if p.seed == 0 && spec != "none" {
            p.seed = seed;
        }
        Ok(p)
    }

    /// Renders the plan as a comma-separated `key=value` spec listing only
    /// its non-default knobs, in [`FaultPlan::KNOBS`] order (`"none"` for
    /// the empty plan). The output round-trips through
    /// [`FaultPlan::from_spec`]; the chaos fuzzer prints it as the
    /// `--fault-plan` argument of a minimal reproducer.
    pub fn to_spec(&self) -> String {
        let parts: Vec<String> = Self::KNOBS
            .iter()
            .filter(|k| k.is_armed(self))
            .map(|k| format!("{}={}", k.key, k.text(self)))
            .collect();
        if parts.is_empty() {
            "none".to_owned()
        } else {
            parts.join(",")
        }
    }

    /// Parses a comma-separated `key=value` spec produced by
    /// [`FaultPlan::to_spec`] (numbers also in `0x` hex, `crash_cores` also
    /// as a decimal mask). Returns `None` on an unknown or repeated key, a
    /// malformed value, or a value above its knob's maximum.
    pub fn from_spec(spec: &str) -> Option<Self> {
        Self::read_spec(spec).ok()
    }

    /// [`FaultPlan::from_spec`], saying why a spec does not parse.
    fn read_spec(spec: &str) -> Result<Self, String> {
        let mut p = Self::none();
        if spec == "none" {
            return Ok(p);
        }
        let mut seen = [false; Self::KNOBS.len()];
        for part in spec.split(',') {
            let (key, raw) =
                part.split_once('=').ok_or_else(|| format!("`{part}` is not key=value"))?;
            let key = key.trim();
            let Some(i) = Self::KNOBS.iter().position(|k| k.key == key) else {
                let keys: Vec<&str> = Self::KNOBS.iter().map(|k| k.key).collect();
                return Err(format!("unknown key `{key}` (keys: {})", keys.join(", ")));
            };
            if std::mem::replace(&mut seen[i], true) {
                return Err(format!("`{key}` given twice"));
            }
            Self::KNOBS[i].write(&mut p, raw.trim())?;
        }
        Ok(p)
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

    fn named(name: &str, seed: u64) -> FaultPlan {
        FaultPlan::by_name(name, seed).expect("a named plan")
    }

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
            let mut s = FaultState::new(named("hostile", 42), core, true);
            (0..200).map(|_| s.on_uli_send()).collect::<Vec<_>>()
        };
        assert_eq!(decisions(1), decisions(1), "same core, same stream");
        assert_ne!(decisions(1), decisions(2), "cores have independent streams");
    }

    #[test]
    fn storm_plans_fire_at_roughly_configured_rates() {
        let mut s = FaultState::new(named("uli-drop-storm", 7), 0, false);
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
        let plan = named("crash-storm", 7);
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
                        FaultPlan { crash_per_mille: 300, seed, ..FaultPlan::none() },
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
        assert_eq!(FaultPlan::parse("hostile", 5), Some(named("hostile", 5)));
        assert_eq!(FaultPlan::parse("crash_cores=0x20", 5).unwrap().seed, 5);
        assert!(FaultPlan::parse("nope", 5).is_none());
    }

    #[test]
    fn mesh_component_extracted_only_when_armed() {
        assert!(FaultPlan::none().mesh_faults().is_none());
        let f = named("mesh-latency-spikes", 9).mesh_faults().unwrap();
        assert_eq!(f.spike_per_mille, 50);
        assert_eq!(f.seed, 9);
    }

    /// Every row set through the table to a distinct value gives a plan
    /// with every field set: a field added without a row fails here (the
    /// literal has no `..`) or in the comparison.
    #[test]
    fn the_knob_table_is_the_whole_plan() {
        let mut p = FaultPlan::none();
        for (i, knob) in FaultPlan::KNOBS.iter().enumerate() {
            knob.write(&mut p, &(i + 1).to_string()).unwrap();
        }
        let every_field = FaultPlan {
            uli_drop_per_mille: 1,
            uli_nack_per_mille: 2,
            uli_delay_per_mille: 3,
            uli_delay_cycles: 4,
            uli_rx_drop_per_mille: 5,
            steal_miss_per_mille: 6,
            mesh_spike_per_mille: 7,
            mesh_spike_cycles: 8,
            crash_cores: CoreSet::from_mask(9),
            crash_per_mille: 10,
            crash_at_cycle: 11,
            revive_after_cycles: 12,
            seed: 13,
        };
        assert_eq!(p, every_field);
        assert_eq!(FaultPlan::from_spec(&p.to_spec()), Some(p.clone()));
        for (i, knob) in FaultPlan::KNOBS.iter().enumerate() {
            assert!(knob.is_armed(&p), "{}", knob.key);
            assert!(FaultPlan::KNOBS[..i].iter().all(|k| k.key != knob.key), "{}", knob.key);
            if let Role::Scales(dim) = knob.role {
                let scaled = FaultPlan::KNOBS.iter().find(|k| k.key == dim);
                assert_eq!(scaled.map(|k| k.role), Some(Role::Transient), "{}", knob.key);
            }
            knob.clear(&mut p);
            assert!(!knob.is_armed(&p), "{}", knob.key);
        }
        assert_eq!(p, FaultPlan::none());
    }

    #[test]
    fn named_plans_and_the_maximal_plan_round_trip() {
        for (name, spec) in FaultPlan::NAMED {
            assert_eq!(named(name, 0).to_spec(), spec, "{name} is written as it prints");
            for seed in [0, 1, 7, u64::MAX] {
                let p = named(name, seed);
                assert_eq!(FaultPlan::parse(&p.to_spec(), seed), Some(p.clone()), "{name}");
                assert_eq!(FaultPlan::from_spec(&p.to_spec()), Some(p), "{name}");
            }
        }
        assert_eq!(named("none", 9), FaultPlan::none(), "`none` takes no seed");
        let mut max = FaultPlan::none();
        for knob in FaultPlan::KNOBS {
            let text = match knob.scalar() {
                Some(_) => knob.max.to_string(),
                None => {
                    let mut cores = CoreSet::new();
                    cores.insert(knob.max as usize);
                    cores.to_hex()
                }
            };
            knob.write(&mut max, &text).unwrap();
        }
        assert!(max.crash_cores.contains(MAX_CORE as usize));
        assert_eq!(max.uli_delay_cycles, MAX_CYCLES);
        assert_eq!(FaultPlan::from_spec(&max.to_spec()), Some(max.clone()), "{}", max.to_spec());
    }

    #[test]
    fn specs_refuse_values_above_their_maximum_and_repeated_keys() {
        let refusal = |spec: &str| FaultPlan::resolve(spec, 1).unwrap_err();
        // Either sum overflows `u64` in the network model.
        for key in ["uli_delay_cycles", "mesh_spike_cycles"] {
            let e = refusal(&format!("uli_delay=1000,{key}=18446744073709551615"));
            assert!(e.contains(&format!("`{key}=18446744073709551615`: above the maximum")), "{e}");
        }
        for knob in FaultPlan::KNOBS.iter().filter(|k| k.max < u64::MAX) {
            let over = match knob.scalar() {
                Some(_) => (knob.max + 1).to_string(),
                None => format!("0x1{}", "0".repeat((knob.max as usize + 1) / 4)),
            };
            let e = refusal(&format!("{}={over}", knob.key));
            assert!(
                e.starts_with(&format!("bad spec `{}={over}`: `{}=", knob.key, knob.key)),
                "{e}"
            );
            let mut at_max = FaultPlan::none();
            assert!(knob.write(&mut at_max, &over).is_err(), "{}", knob.key);
        }
        assert_eq!(FaultPlan::from_spec("seed=18446744073709551615").unwrap().seed, u64::MAX);
        assert_eq!(
            refusal("uli_drop=5,uli_drop=900"),
            "bad spec `uli_drop=5,uli_drop=900`: `uli_drop` given twice"
        );
        assert!(FaultPlan::from_spec("crash_cores=0x20,crash_at=9,crash_cores=0x40").is_none());
        assert!(
            refusal("uli_drop=5,bogus_key=1").contains("unknown key `bogus_key` (keys: uli_drop, ")
        );
        assert_eq!(refusal("bogus"), "unknown plan `bogus`");
        assert_eq!(refusal("uli_drop=x"), "bad spec `uli_drop=x`: `uli_drop=x`: not a u64");
    }
}
