//! Minimal stackful fibers, and the fiber host built on them.
//!
//! The sequencer serializes the simulation to one core at a time, so with
//! one OS thread per core almost every token handoff is a futex wake plus a
//! kernel context switch — about 1.4 µs of system time per sequenced op on
//! a busy host, which dominates engine wall clock (measured ~2/3 of the
//! whole perf suite). The fiber host runs every simulated core as a
//! *fiber*: a heap stack plus a saved stack pointer, all multiplexed on one
//! host thread. A token handoff becomes a user-space stack switch (tens of
//! nanoseconds) and the kernel is never involved.
//!
//! This module holds the switching primitive and [`FiberHost`], the
//! [`Host`](crate::host::Host) arm built on it; which core runs next stays
//! the [`Sequencer`](crate::sequencer::Sequencer)'s decision. One OS thread
//! drives all fibers of a host: the launcher, the thread that calls
//! `run_system`. The implementation is x86_64-Linux-only (the module is
//! compiled out elsewhere and the engine falls back to the thread host):
//!
//! - Stacks come from anonymous `mmap` with a `PROT_NONE` guard page at the
//!   low end, so stack overflow faults like it does on a real thread stack
//!   instead of silently corrupting the heap. Pages are committed lazily,
//!   so 64 fibers × 32 MB only reserve address space.
//! - The switch saves the System-V callee-saved registers on the current
//!   stack, stores the stack pointer, loads the target's, and returns. A
//!   fresh fiber's "saved context" is a hand-built frame whose return
//!   address is a trampoline that calls the entry closure, making first
//!   start and resume the same operation.
//! - An entry closure *returns* the context to switch to when the fiber is
//!   finished. The trampoline's Rust half drops the closure first and then
//!   makes that last switch, so nothing a fiber owns outlives it.
//!
//! Safety rules the callers uphold:
//! - All fibers of one host are switched only from the one OS thread that
//!   drives it (the launcher thread).
//! - A finished fiber is never switched to again.
//! - No lock guard is held across a switch (the target fiber may take the
//!   same lock; everything is on one thread, so that would self-deadlock).

use std::cell::Cell;
use std::ffi::c_void;
use std::marker::PhantomData;

use crate::host::Body;

extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
}

const PROT_NONE: i32 = 0;
const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;

const PAGE: usize = 4096;

/// A lazily-committed `mmap`ed stack with a guard page at the low end.
struct FiberStack {
    base: *mut u8,
    len: usize,
}

impl FiberStack {
    fn new(usable: usize) -> FiberStack {
        let usable = usable.div_ceil(PAGE) * PAGE;
        let len = usable + PAGE;
        // SAFETY: plain anonymous mapping; failure is checked below.
        let base = unsafe {
            mmap(
                std::ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(base as isize != -1, "mmap of a {len}-byte fiber stack failed");
        // SAFETY: base..base+PAGE is inside the fresh mapping.
        let rc = unsafe { mprotect(base, PAGE, PROT_NONE) };
        assert_eq!(rc, 0, "mprotect of the fiber guard page failed");
        FiberStack { base: base.cast(), len }
    }

    /// One-past-the-end of the stack (stacks grow down). Page-aligned, so
    /// also 16-byte-aligned as the ABI requires.
    fn top(&self) -> *mut u8 {
        // SAFETY: in-bounds one-past-the-end pointer of the mapping.
        unsafe { self.base.add(self.len) }
    }
}

impl Drop for FiberStack {
    fn drop(&mut self) {
        // SAFETY: exactly the region mapped in `new`.
        unsafe { munmap(self.base.cast(), self.len) };
    }
}

/// Saves the six SysV callee-saved registers on the current stack, parks
/// the stack pointer in `*save`, adopts the one in `*load`, restores that
/// stack's registers and returns *on the target stack*. Caller-saved state
/// is handled by the compiler because this is an ordinary `extern` call.
///
/// # Safety
///
/// `*load` must be a stack pointer previously produced by this function (or
/// by [`Fiber::new`]'s initial frame), on a live stack, resumed at most
/// once per suspension.
#[unsafe(naked)]
unsafe extern "sysv64" fn switch_stack(save: *mut *mut u8, load: *const *mut u8) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// First-start shim: [`Fiber::new`] parks the entry-closure pointer in the
/// initial frame's `r12` slot, so after the first switch into the fiber it
/// lands here with that pointer in `r12`. Realign, then enter Rust.
///
/// # Safety
///
/// Never called directly: reachable only by the first [`switch_stack`]
/// into a frame built by [`Fiber::new`], which guarantees `r12` holds the
/// `Box::into_raw`'d entry closure and `rsp` points into the fiber's own
/// mapped stack.
#[unsafe(naked)]
unsafe extern "sysv64" fn fiber_trampoline() {
    core::arch::naked_asm!(
        "mov rdi, r12",
        "and rsp, -16",
        "call {main}",
        "ud2",
        main = sym fiber_main,
    )
}

/// What an entry closure returns: the saved-context slot of whatever runs
/// once the fiber is finished.
type Exit = *const *mut u8;

/// A fiber's entry closure.
type Entry<'a> = Box<dyn FnOnce() -> Exit + 'a>;

extern "sysv64" fn fiber_main(entry: *mut u8) -> ! {
    // SAFETY: `entry` is the Box::into_raw'd closure from Fiber::new,
    // reachable exactly once (the trampoline runs once per fiber), and the
    // `Fiber` it came from keeps what the closure borrows alive.
    let f: Box<Entry<'_>> = unsafe { Box::from_raw(entry.cast()) };
    // The call consumes both boxes: everything the entry owned is dropped
    // before the fiber's last switch.
    let next = f();
    let mut dead = std::ptr::null_mut();
    // SAFETY: `next` is a suspended context of this fiber's host (the
    // entry's contract). This fiber is never resumed, so its own context
    // goes to a local nobody reads.
    unsafe { switch_stack(&mut dead, next) };
    std::process::abort();
}

/// One simulated core's execution context: a stack and, until it first
/// runs, its entry closure. Its saved stack pointer lives in the
/// [`FiberHost`], so a hand-off can switch without borrowing the fiber.
struct Fiber<'a> {
    #[allow(dead_code)] // held for Drop (munmap) only
    stack: FiberStack,
    /// The entry closure, reclaimed on drop if the fiber never started.
    unstarted_entry: Cell<*mut u8>,
    initial_ctx: *mut u8,
    /// The entry closure may borrow for `'a`.
    entry: PhantomData<Entry<'a>>,
}

impl<'a> Fiber<'a> {
    /// Creates a fiber that, when first switched to, runs `entry` on a
    /// fresh `stack_bytes` stack and then switches to the context `entry`
    /// returned.
    fn new(stack_bytes: usize, entry: Entry<'a>) -> Fiber<'a> {
        let stack = FiberStack::new(stack_bytes);
        let data: *mut u8 = Box::into_raw(Box::new(entry)).cast();
        // Hand-build the frame switch_stack pops: (ascending addresses)
        // r15 r14 r13 r12 rbx rbp <return address = trampoline>.
        let mut sp = stack.top().cast::<u64>();
        // SAFETY: seven in-bounds words just below the stack top.
        unsafe {
            sp = sp.sub(1);
            *sp = fiber_trampoline as *const () as usize as u64; // ret target
            sp = sp.sub(1);
            *sp = 0; // rbp
            sp = sp.sub(1);
            *sp = 0; // rbx
            sp = sp.sub(1);
            *sp = data as u64; // r12: entry closure for the trampoline
            sp = sp.sub(1);
            *sp = 0; // r13
            sp = sp.sub(1);
            *sp = 0; // r14
            sp = sp.sub(1);
            *sp = 0; // r15
        }
        Fiber {
            stack,
            unstarted_entry: Cell::new(data),
            initial_ctx: sp.cast(),
            entry: PhantomData,
        }
    }

    /// The context to switch to for the fiber's first start.
    fn initial_ctx(&self) -> *mut u8 {
        self.unstarted_entry.set(std::ptr::null_mut()); // trampoline owns it now
        self.initial_ctx
    }
}

impl Drop for Fiber<'_> {
    fn drop(&mut self) {
        let entry = self.unstarted_entry.get();
        if !entry.is_null() {
            // Never started: the trampoline will not reclaim the closure.
            // SAFETY: still the untouched Box::into_raw pointer.
            drop(unsafe { Box::from_raw(entry.cast::<Entry<'_>>()) });
        }
    }
}

/// The fiber host: the saved contexts of one run's fibers. It lives inside
/// the sequencer's [`Host`](crate::host::Host), so a hand-off switches
/// straight from one core's fiber to the next.
///
/// All cells are only ever touched from the launcher thread (and the
/// fibers it runs). The `Send`/`Sync` impls exist because the sequencer
/// holding the host is shared across threads — the thread host's core
/// threads — and rustc cannot see that these cells
/// stay on one thread by construction.
#[derive(Debug)]
pub(crate) struct FiberHost {
    /// Saved stack pointer of each suspended core fiber (or its initial
    /// frame before first start).
    ctxs: Vec<Cell<*mut u8>>,
    /// Saved context of the launcher while a fiber runs.
    launcher: Cell<*mut u8>,
    /// Set once a fiber's body has returned; it must never be switched to
    /// again.
    done: Vec<Cell<bool>>,
    /// The core a retiring fiber picked to run after it (the launcher if
    /// none), read when its body returns.
    exit_to: Cell<Option<usize>>,
}

// SAFETY: see the struct docs — the host's cells are used from a single
// driving thread by construction.
unsafe impl Send for FiberHost {}
unsafe impl Sync for FiberHost {}

impl FiberHost {
    pub(crate) fn new(num_cores: usize) -> FiberHost {
        FiberHost {
            ctxs: (0..num_cores).map(|_| Cell::new(std::ptr::null_mut())).collect(),
            launcher: Cell::new(std::ptr::null_mut()),
            done: vec![Cell::new(false); num_cores],
            exit_to: Cell::new(None),
        }
    }

    /// The saved-context slot of `core`'s fiber, or the launcher's.
    fn slot(&self, core: Option<usize>) -> *mut *mut u8 {
        core.map_or(self.launcher.as_ptr(), |c| self.ctxs[c].as_ptr())
    }

    /// Runs `bodies[c]` as core `c`'s fiber on the calling thread, which
    /// becomes the launcher, and returns once every body has returned.
    ///
    /// Control is on the launcher whenever no fiber can take the token: at
    /// start-up, before the last fiber has first entered the sequencer
    /// (nothing can be granted until every core has); at the end; and under
    /// poison, when a fiber had nobody to hand it to. One loop serves all
    /// three: resume the next live fiber after the one resumed last, in
    /// core order. That starts every fiber in core order (the thread
    /// host's spawn order), each running until it first suspends, and then
    /// drains the live ones, whose sequencer re-entry observes the poison
    /// and unwinds them.
    pub(crate) fn launch(&self, stack_bytes: usize, bodies: Vec<Body<'_>>) {
        let fibers: Vec<Fiber<'_>> = (bodies.into_iter().enumerate())
            .map(|(core, body)| {
                let entry = move || -> Exit {
                    body();
                    self.done[core].set(true);
                    self.slot(self.exit_to.take())
                };
                Fiber::new(stack_bytes, Box::new(entry))
            })
            .collect();
        for (ctx, fiber) in self.ctxs.iter().zip(&fibers) {
            ctx.set(fiber.initial_ctx());
        }
        let mut after = 0;
        while let Some(core) = (after..fibers.len()).chain(0..after).find(|&c| !self.done[c].get())
        {
            after = core + 1;
            // SAFETY: the launcher is the running context, and `core` is a
            // live suspended fiber of this host: unstarted, or waiting.
            unsafe { switch_stack(self.slot(None), self.slot(Some(core))) };
        }
        // Dropping `fibers` unmaps the stacks; all are done here.
    }

    /// Suspends `core`'s fiber and resumes `next`'s, or the launcher's when
    /// nothing is picked: one stack switch.
    #[inline]
    pub(crate) fn hand_off(&self, core: usize, next: Option<usize>) {
        debug_assert!(next.is_none_or(|n| n != core && !self.done[n].get()));
        // SAFETY: the sequencer calls this on `core`'s own fiber with no
        // lock held. `next` waits in the sequencer, so its fiber is live
        // and suspended, and the launcher is suspended while a fiber runs.
        unsafe { switch_stack(self.slot(Some(core)), self.slot(next)) };
    }

    /// A retiring fiber switches to `next` (or the launcher) once its body
    /// has returned.
    pub(crate) fn wake_after_retire(&self, next: Option<usize>) {
        self.exit_to.set(next);
    }

    /// Nothing to wake: a fiber never blocks the host thread, and the
    /// launcher drains the live ones once control comes back to it.
    pub(crate) fn wake_all(&self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// Two fibers bounce control back and forth through hand-offs; the
    /// first to finish picks the other, still live, as its successor, and
    /// the launcher takes over when the last one returns.
    #[test]
    fn ping_pong_switches() {
        let host = FiberHost::new(2);
        let log = Mutex::new(Vec::new());
        let (host_ref, log) = (&host, &log);
        let bodies: Vec<Body<'_>> = (0..2usize)
            .map(|core| {
                Box::new(move || {
                    for i in 0..3 {
                        log.lock().unwrap().push(format!("core {core} step {i}"));
                        host_ref.hand_off(core, Some(1 - core));
                    }
                    if core == 0 {
                        host_ref.wake_after_retire(Some(1)); // still live
                    }
                }) as Body<'_>
            })
            .collect();
        host.launch(64 * 1024, bodies);
        let want: Vec<String> =
            (0..3).flat_map(|i| (0..2).map(move |c| format!("core {c} step {i}"))).collect();
        assert_eq!(*log.lock().unwrap(), want);
    }

    fn run_recursion(stack_bytes: usize, depth: u64) {
        fn deep(n: u64) -> u64 {
            let pad = [n; 16]; // force real frame growth
            if n == 0 {
                pad[0]
            } else {
                deep(n - 1) + std::hint::black_box(pad)[1]
            }
        }
        let out = AtomicU64::new(0);
        let out_ref = &out;
        let body: Body<'_> = Box::new(move || out_ref.store(deep(depth), Ordering::Relaxed));
        FiberHost::new(1).launch(stack_bytes, vec![body]);
        // deep(n) = n + deep(n-1), deep(0) = 0.
        assert_eq!(out.into_inner(), (1..=depth).sum::<u64>());
    }

    /// Deep recursion on the fiber stack works (the frames live on the
    /// mmap'ed stack, not the thread stack).
    #[test]
    fn fiber_stack_supports_recursion() {
        run_recursion(8 * 1024 * 1024, 10_000);
    }

    /// Both stack sizes `SystemConfig::core_stack_bytes` defaults to are
    /// usable, with recursion depth scaled to the configured size: the
    /// guard page sits below the deepest frame either way, and the frames
    /// of the deeper run would overrun the smaller stack's reservation if
    /// the size knob were ignored.
    #[test]
    fn fiber_stack_size_is_configurable() {
        run_recursion(32 * 1024 * 1024, 40_000); // <=64-core default
        run_recursion(8 * 1024 * 1024, 10_000); // 256-core default
        run_recursion(64 * 1024, 50); // a deliberately tiny explicit size
    }

    /// Sets its flag when dropped.
    struct SetOnDrop<F: Fn()>(F);
    impl<F: Fn()> Drop for SetOnDrop<F> {
        fn drop(&mut self) {
            (self.0)();
        }
    }

    /// An unstarted fiber reclaims its entry closure on drop.
    #[test]
    fn unstarted_fiber_does_not_leak() {
        let flag = Rc::new(Cell::new(false));
        let flag2 = Rc::clone(&flag);
        let guard = SetOnDrop(move || flag2.set(true));
        let fiber = Fiber::new(
            64 * 1024,
            Box::new(move || {
                let _hold = &guard;
                unreachable!("never started");
            }),
        );
        drop(fiber);
        assert!(flag.get(), "entry closure dropped with the fiber");
    }

    /// What a fiber's entry owns is dropped when the fiber finishes, before
    /// its last switch: the fiber it hands over to already sees it gone.
    #[test]
    fn a_finished_fiber_drops_its_entry() {
        let dropped = Arc::new(AtomicBool::new(false));
        let host = FiberHost::new(2);
        let host_ref = &host;
        let seen = AtomicBool::new(false);
        let seen_ref = &seen;
        let flag = Arc::clone(&dropped);
        let guard = SetOnDrop(move || flag.store(true, Ordering::Relaxed));
        let observer = Arc::clone(&dropped);
        let bodies: Vec<Body<'_>> = vec![
            Box::new(move || {
                let _hold = &guard; // captured, never moved out
                host_ref.wake_after_retire(Some(1));
            }),
            Box::new(move || seen_ref.store(observer.load(Ordering::Relaxed), Ordering::Relaxed)),
        ];
        host.launch(64 * 1024, bodies);
        assert!(seen.into_inner(), "core 1 ran after core 0's entry was dropped");
        assert_eq!(Arc::strong_count(&dropped), 1, "both entries were dropped");
    }
}
