//! How a simulated core gets the host CPU: the one place that knows which
//! host a run uses.
//!
//! The [`Sequencer`](crate::sequencer::Sequencer) decides *which* core runs
//! next; a [`Host`] decides *how* that core gets the CPU. Two hosts exist:
//!
//! - **Threads**: one OS thread per core, each parked while its core waits.
//!   A hand-off unparks the successor's thread and parks the caller's: a
//!   futex wake plus a kernel context switch. The portable host.
//! - **Fibers** (x86_64 Linux, [`crate::fiber`]): every core a stackful
//!   fiber on the thread that calls `run_system`. A hand-off is one
//!   user-space stack switch — no allocation, no lock, no kernel.
//!
//! The sequencer calls its host in exactly three places: the hand-off of a
//! core that waits for the token, the successor wake of a retiring core,
//! and the wake-up of every core when the run is poisoned. `run_system`
//! builds one body per core and gives the list to [`Host::launch`]. Grant
//! selection never asks which host runs, so both produce the identical
//! sequenced-op stream (pinned by `golden_trace.rs`).

use std::sync::OnceLock;
use std::thread::Thread;

use crate::config::{ExecBackend, SystemConfig};

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
use crate::fiber::FiberHost;
// Off x86_64 Linux there are no fibers and `select_backend` never picks
// them, so `Host::Fibers` is never built; the alias only lets its arms
// compile.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
use self::ThreadHost as FiberHost;

/// Whether this target can host fibers (x86_64 Linux).
const FIBERS_SUPPORTED: bool = cfg!(all(target_os = "linux", target_arch = "x86_64"));

/// One simulated core's whole life, run by the host on that core's
/// execution context. It returns when the core has retired or unwound.
pub(crate) type Body<'a> = Box<dyn FnOnce() + Send + 'a>;

/// The stable lower-case name of the backend a run of `config` resolves to
/// (`threads` or `fibers`) — the same string
/// [`DiagnosticBundle::backend`](crate::DiagnosticBundle) carries, for
/// harnesses labelling black-box dumps of runs that completed without a
/// bundle. `Auto` resolution consults `BIGTINY_BACKEND`, so call it in the
/// same environment as the run.
pub fn backend_label(config: &SystemConfig) -> &'static str {
    label(resolve_backend(config))
}

/// The label of a resolved backend ([`ExecBackend::Threads`] or
/// [`ExecBackend::Fibers`]).
pub(crate) fn label(backend: ExecBackend) -> &'static str {
    match backend {
        ExecBackend::Threads => "threads",
        _ => "fibers",
    }
}

/// Decides which host this run executes cores on: [`ExecBackend::Threads`]
/// or [`ExecBackend::Fibers`].
pub(crate) fn resolve_backend(config: &SystemConfig) -> ExecBackend {
    let env = std::env::var("BIGTINY_BACKEND").ok();
    let typo = env.as_deref().filter(|v| *v != "threads");
    if let (ExecBackend::Auto, Some(value)) = (config.backend, typo) {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "warning: ignoring BIGTINY_BACKEND={value:?}: the accepted value is \
                 `threads` (unset picks fibers where supported)"
            );
        });
    }
    select_backend(config.backend, env.as_deref(), FIBERS_SUPPORTED)
}

/// The backend decision as a pure function of the configured
/// [`ExecBackend`], the value of `BIGTINY_BACKEND` (consulted only under
/// `Auto`; anything but `threads` counts as unset) and whether the host
/// supports fibers (x86_64 Linux). Returns `Threads` or `Fibers`.
fn select_backend(requested: ExecBackend, env: Option<&str>, supported: bool) -> ExecBackend {
    match requested {
        ExecBackend::Threads => ExecBackend::Threads,
        ExecBackend::Fibers | ExecBackend::ShardedFibers => {
            assert!(supported, "ExecBackend::{requested:?} requires x86_64 Linux");
            ExecBackend::Fibers
        }
        ExecBackend::Auto if !supported || env == Some("threads") => ExecBackend::Threads,
        ExecBackend::Auto => ExecBackend::Fibers,
    }
}

/// How the cores of one run get the CPU (see the module docs).
#[derive(Debug)]
pub(crate) enum Host {
    /// One OS thread per core.
    Threads(ThreadHost),
    /// Every core a fiber on the launching thread.
    Fibers(FiberHost),
}

impl Host {
    /// The host for `num_cores` cores on a resolved `backend`.
    pub(crate) fn new(backend: ExecBackend, num_cores: usize) -> Host {
        match backend {
            ExecBackend::Threads => Host::Threads(ThreadHost::new(num_cores)),
            _ => Host::Fibers(FiberHost::new(num_cores)),
        }
    }

    /// Runs `bodies[c]` as core `c`, each on its own execution context with
    /// a `stack_bytes` stack, and returns when every body has returned.
    /// Panics, with no body started, if a context cannot be created.
    pub(crate) fn launch(&self, stack_bytes: usize, bodies: Vec<Body<'_>>) {
        match self {
            Host::Threads(h) => h.launch(stack_bytes, bodies),
            Host::Fibers(h) => h.launch(stack_bytes, bodies),
        }
    }

    /// Gives up the CPU of `core`, which has just stopped running, until
    /// someone hands the token back to it; first makes the picked core
    /// `next` (if any) runnable. Called with no lock held.
    #[inline]
    pub(crate) fn hand_off(&self, core: usize, next: Option<usize>) {
        match self {
            Host::Threads(h) => h.hand_off(core, next),
            Host::Fibers(h) => h.hand_off(core, next),
        }
    }

    /// A core has retired and picked `next` (if any) to run after it. The
    /// retiring core runs on until its body returns. Called with no lock
    /// held.
    pub(crate) fn wake_after_retire(&self, next: Option<usize>) {
        match self {
            Host::Threads(h) => h.wake_after_retire(next),
            Host::Fibers(h) => h.wake_after_retire(next),
        }
    }

    /// The run is poisoned: makes every waiting core runnable, so that it
    /// observes the poison and unwinds.
    pub(crate) fn wake_all(&self) {
        match self {
            Host::Threads(h) => h.wake_all(),
            Host::Fibers(h) => h.wake_all(),
        }
    }
}

/// The thread host: each core's OS thread, registered when it starts.
#[derive(Debug)]
pub(crate) struct ThreadHost {
    /// Each core's thread. A hand-off unparks the successor's thread
    /// *after* the sequencer lock is released: waking a core through a
    /// condvar while still holding the lock made the woken thread contend
    /// on it (an extra futex round trip and context switch per hand-off on
    /// a loaded host).
    threads: Vec<OnceLock<Thread>>,
}

impl ThreadHost {
    pub(crate) fn new(num_cores: usize) -> ThreadHost {
        ThreadHost { threads: (0..num_cores).map(|_| OnceLock::new()).collect() }
    }

    /// Registers the calling thread as `core`'s. A core registers before
    /// it first enters the sequencer, so it is registered before anyone
    /// can pick it.
    pub(crate) fn adopt(&self, core: usize) {
        self.threads[core].set(std::thread::current()).expect("one thread per core");
    }

    /// Spawns one thread per body and joins them all. No body starts until
    /// every thread exists: a core that entered the sequencer would wait
    /// forever for one whose thread could not be spawned, so then none
    /// runs and the launch panics.
    fn launch(&self, stack_bytes: usize, bodies: Vec<Body<'_>>) {
        let start = OnceLock::new();
        std::thread::scope(|scope| {
            let start = &start;
            let spawned = (bodies.into_iter().enumerate()).try_for_each(|(core, body)| {
                std::thread::Builder::new()
                    .name(format!("sim-core-{core}"))
                    .stack_size(stack_bytes)
                    .spawn_scoped(scope, move || {
                        self.adopt(core);
                        while start.get().is_none() {
                            std::thread::park();
                        }
                        if start.get() == Some(&true) {
                            body();
                        }
                    })
                    .map(drop)
            });
            start.set(spawned.is_ok()).expect("only the launcher opens the start gate");
            self.wake_all();
            spawned.expect("spawn simulated core thread");
        });
    }

    fn hand_off(&self, _core: usize, next: Option<usize>) {
        self.wake_after_retire(next);
        std::thread::park();
    }

    fn wake_after_retire(&self, next: Option<usize>) {
        if let Some(next) = next {
            self.threads[next].get().expect("a waiting core has registered its thread").unpark();
        }
    }

    fn wake_all(&self) {
        for t in self.threads.iter().filter_map(OnceLock::get) {
            t.unpark();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every (requested variant × `BIGTINY_BACKEND` value × host support)
    /// cell of the backend decision.
    #[test]
    fn select_backend_covers_every_cell() {
        use ExecBackend::{Fibers, Threads};
        // (env value, what `Auto` resolves to on a fiber-capable host)
        let envs = [
            (None, Fibers),
            (Some("threads"), Threads),
            // Unrecognised values (typos, wrong case, the label of the
            // default, the retired `sharded`) count as unset;
            // `resolve_backend` warns about them.
            (Some("sharded"), Fibers),
            (Some("shard"), Fibers),
            (Some("Threads"), Fibers),
            (Some("fibres"), Fibers),
            (Some("fibers"), Fibers),
            (Some(""), Fibers),
        ];
        for (env, auto_supported) in envs {
            assert_eq!(select_backend(ExecBackend::Auto, env, true), auto_supported, "{env:?}");
            assert_eq!(select_backend(ExecBackend::Auto, env, false), Threads, "{env:?}");
            for supported in [true, false] {
                // A pinned backend never consults the environment.
                assert_eq!(select_backend(ExecBackend::Threads, env, supported), Threads);
            }
            assert_eq!(select_backend(ExecBackend::Fibers, env, true), Fibers);
            assert_eq!(select_backend(ExecBackend::ShardedFibers, env, true), Fibers);
            for pinned in [ExecBackend::Fibers, ExecBackend::ShardedFibers] {
                let r = std::panic::catch_unwind(|| select_backend(pinned, env, false));
                assert!(r.is_err(), "{pinned:?} must be rejected on a host without fibers");
            }
        }
        assert_eq!((label(Threads), label(Fibers)), ("threads", "fibers"));
    }

    /// A thread that cannot be spawned (here: a stack larger than the
    /// address space) fails the launch before any core has started, so no
    /// core waits for it forever.
    #[test]
    fn a_failed_spawn_starts_no_core() {
        let ran = std::sync::atomic::AtomicUsize::new(0);
        let ran_ref = &ran;
        let bodies: Vec<Body<'_>> = (0..2)
            .map(|_| {
                Box::new(move || {
                    ran_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }) as Body<'_>
            })
            .collect();
        let launch = || ThreadHost::new(2).launch(1 << 50, bodies);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(launch));
        assert!(r.is_err(), "the launch reports the failed spawn");
        assert_eq!(ran.into_inner(), 0, "no body ran");
    }

    /// Host knowledge stays here: outside this file and the fiber module
    /// itself, no non-test engine code names the target platform, the
    /// fiber runtime or a thread park — the sequencer and `run_system` ask
    /// the [`Host`] instead.
    #[test]
    fn only_the_host_knows_how_a_core_gets_the_cpu() {
        const HOST_NAMES: [&str; 7] = [
            "target_os",
            "target_arch",
            "FiberHost",
            "FiberRt",
            "FiberId",
            "thread::park",
            ".unpark(",
        ];
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut named = Vec::new();
        let mut dirs = vec![src.clone()];
        while let Some(dir) = dirs.pop() {
            for entry in std::fs::read_dir(dir).expect("source directory") {
                let path = entry.expect("directory entry").path();
                if path.is_dir() {
                    dirs.push(path);
                    continue;
                }
                let file =
                    path.strip_prefix(&src).expect("under src").to_string_lossy().into_owned();
                if file == "host.rs" || file == "fiber.rs" {
                    continue;
                }
                let text = std::fs::read_to_string(&path).expect("source is readable");
                let code = text.split("#[cfg(test)]\nmod tests").next().unwrap_or_default();
                for line in code.lines().map(str::trim).filter(|l| !l.starts_with("//")) {
                    if HOST_NAMES.iter().any(|name| line.contains(name)) {
                        named.push(format!("{file}: {line}"));
                    }
                }
            }
        }
        named.sort();
        assert_eq!(
            named,
            ["lib.rs: #[cfg(all(target_os = \"linux\", target_arch = \"x86_64\"))]"],
            "ask the Host (host.rs) how a core gets the CPU instead"
        );
    }
}
