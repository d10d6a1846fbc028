//! Minimal stackful fibers for the fiber execution backend.
//!
//! The sequencer serializes the simulation to one core at a time, so with
//! one OS thread per core almost every token handoff is a futex wake plus a
//! kernel context switch — about 1.4 µs of system time per sequenced op on
//! a busy host, which dominates engine wall clock (measured ~2/3 of the
//! whole perf suite). This module runs every simulated core as a *fiber*: a
//! heap stack plus a saved stack pointer, all multiplexed on one host
//! thread. A token handoff becomes a user-space stack switch (tens of
//! nanoseconds) and the kernel is never involved.
//!
//! Only the switching primitive lives here; scheduling policy stays in the
//! [`Sequencer`](crate::sequencer::Sequencer), which drives fibers through
//! one [`FiberRt`], driven by exactly one OS thread: the launcher, the
//! thread that calls `run_system`. The implementation is x86_64-Linux-only
//! (the module is compiled out elsewhere and the engine falls back to the
//! thread backend):
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
//!
//! Safety rules the callers uphold:
//! - All fibers of one `FiberRt` are switched only from the one OS thread
//!   that drives that runtime (the launcher thread).
//! - An entry closure never returns: it must exit by switching away for
//!   good (the trampoline aborts the process if one does return).
//! - No lock guard is held across a switch (the target fiber may take the
//!   same lock; everything is on one thread, so that would self-deadlock).

use std::cell::{Cell, UnsafeCell};
use std::ffi::c_void;

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

extern "sysv64" fn fiber_main(entry: *mut u8) {
    // SAFETY: `entry` is the Box::into_raw'd closure from Fiber::new,
    // reachable exactly once (the trampoline runs once per fiber).
    let f: Box<Box<dyn FnOnce()>> = unsafe { Box::from_raw(entry.cast()) };
    f();
    // An entry closure must exit by switching away permanently; returning
    // would `ret` into the hand-built frame below the stack top.
    std::process::abort();
}

/// One simulated core's execution context: a stack and, while suspended,
/// the saved stack pointer (held in [`FiberRt`], not here, so the sequencer
/// can switch without borrowing the fiber list).
pub(crate) struct Fiber {
    #[allow(dead_code)] // held for Drop (munmap) only
    stack: FiberStack,
    /// The entry closure, reclaimed on drop if the fiber never started.
    unstarted_entry: Cell<*mut u8>,
    initial_ctx: *mut u8,
}

impl Fiber {
    /// Creates a fiber that will run `entry` (which must never return) on a
    /// fresh `stack_bytes` stack when first switched to.
    pub(crate) fn new(stack_bytes: usize, entry: Box<dyn FnOnce()>) -> Fiber {
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
        Fiber { stack, unstarted_entry: Cell::new(data), initial_ctx: sp.cast() }
    }

    /// The context to switch to for the fiber's first start.
    pub(crate) fn initial_ctx(&self) -> *mut u8 {
        self.unstarted_entry.set(std::ptr::null_mut()); // trampoline owns it now
        self.initial_ctx
    }
}

impl Drop for Fiber {
    fn drop(&mut self) {
        let entry = self.unstarted_entry.get();
        if !entry.is_null() {
            // Never started: the trampoline will not reclaim the closure.
            // SAFETY: still the untouched Box::into_raw pointer.
            drop(unsafe { Box::from_raw(entry.cast::<Box<dyn FnOnce()>>()) });
        }
    }
}

/// Identifies a switch endpoint: a core fiber or the launcher (the real OS
/// thread driving the fibers, which starts them and drains poison).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum FiberId {
    Core(usize),
    Launcher,
}

/// The saved contexts of a fiber-backed run. Lives inside the
/// [`Sequencer`](crate::sequencer::Sequencer) so token handoffs can switch
/// directly between core fibers.
///
/// All cells of a given runtime are only ever touched from the one OS
/// thread that drives it: the launcher thread (and the fibers it runs).
/// The `Send`/`Sync` impls exist because the sequencer sits in an `Arc`
/// shared across threads — core threads on the thread backend, the
/// watchdog monitor on the fiber one — and rustc cannot see that the
/// runtime's cells stay thread-local by construction.
#[derive(Debug)]
pub(crate) struct FiberRt {
    /// Saved stack pointer of each suspended core fiber (or its initial
    /// frame before first start).
    ctxs: Vec<UnsafeCell<*mut u8>>,
    /// Saved context of the launcher while a fiber runs.
    launcher: UnsafeCell<*mut u8>,
    /// Set once a fiber's entry closure has finished; it must never be
    /// switched to again.
    done: Vec<Cell<bool>>,
}

// SAFETY: see the struct docs — the runtime's cells are used from a single
// driving thread by construction.
unsafe impl Send for FiberRt {}
unsafe impl Sync for FiberRt {}

impl FiberRt {
    pub(crate) fn new(num_cores: usize) -> FiberRt {
        FiberRt {
            ctxs: (0..num_cores).map(|_| UnsafeCell::new(std::ptr::null_mut())).collect(),
            launcher: UnsafeCell::new(std::ptr::null_mut()),
            done: vec![Cell::new(false); num_cores],
        }
    }

    fn slot(&self, id: FiberId) -> *mut *mut u8 {
        match id {
            FiberId::Core(c) => self.ctxs[c].get(),
            FiberId::Launcher => self.launcher.get(),
        }
    }

    /// Registers a fiber's initial context before the run starts.
    pub(crate) fn set_initial(&self, core: usize, ctx: *mut u8) {
        // SAFETY: run not started; no aliasing access exists yet.
        unsafe { *self.ctxs[core].get() = ctx };
    }

    /// Suspends the current context into `from`'s slot and resumes `to`.
    /// Returns when something later switches back to `from`.
    ///
    /// # Safety
    ///
    /// Must be called on the thread that drives this runtime, with `from`
    /// actually being the currently executing context and `to` a live
    /// suspended one; no lock guard may be held across the call.
    pub(crate) unsafe fn switch(&self, from: FiberId, to: FiberId) {
        debug_assert_ne!(from, to, "cannot switch a context to itself");
        if let FiberId::Core(c) = to {
            debug_assert!(!self.done[c].get(), "switching to a finished fiber");
        }
        // SAFETY: per the contract above; slots are distinct.
        unsafe { switch_stack(self.slot(from), self.slot(to)) };
    }

    /// Marks `core`'s fiber as finished (its entry closure completed).
    pub(crate) fn mark_done(&self, core: usize) {
        self.done[core].set(true);
    }

    /// Whether `core`'s fiber has finished.
    pub(crate) fn is_done(&self, core: usize) -> bool {
        self.done[core].get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;

    /// A fiber and the main thread bounce control back and forth through
    /// raw switches, interleaving their counters deterministically.
    #[test]
    fn ping_pong_switches() {
        let rt = Rc::new(FiberRt::new(1));
        let log = Rc::new(std::cell::RefCell::new(Vec::new()));
        let (rt2, log2) = (Rc::clone(&rt), Rc::clone(&log));
        let fiber = Fiber::new(
            64 * 1024,
            Box::new(move || {
                for i in 0..3 {
                    log2.borrow_mut().push(format!("fiber {i}"));
                    // SAFETY: single-threaded test; launcher context is live.
                    unsafe { rt2.switch(FiberId::Core(0), FiberId::Launcher) };
                }
                rt2.mark_done(0);
                // SAFETY: as above; never returns to this closure.
                unsafe { rt2.switch(FiberId::Core(0), FiberId::Launcher) };
                unreachable!("finished fiber must never be resumed");
            }),
        );
        rt.set_initial(0, fiber.initial_ctx());
        let mut round = 0;
        while !rt.is_done(0) {
            log.borrow_mut().push(format!("main {round}"));
            round += 1;
            // SAFETY: single-threaded test; fiber context is live.
            unsafe { rt.switch(FiberId::Launcher, FiberId::Core(0)) };
        }
        assert_eq!(
            *log.borrow(),
            ["main 0", "fiber 0", "main 1", "fiber 1", "main 2", "fiber 2", "main 3"]
        );
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
        let rt = Rc::new(FiberRt::new(1));
        let rt2 = Rc::clone(&rt);
        let out = Rc::new(Cell::new(0u64));
        let out2 = Rc::clone(&out);
        let fiber = Fiber::new(
            stack_bytes,
            Box::new(move || {
                out2.set(deep(depth));
                rt2.mark_done(0);
                // SAFETY: single-threaded test.
                unsafe { rt2.switch(FiberId::Core(0), FiberId::Launcher) };
                unreachable!();
            }),
        );
        rt.set_initial(0, fiber.initial_ctx());
        // SAFETY: single-threaded test.
        unsafe { rt.switch(FiberId::Launcher, FiberId::Core(0)) };
        assert!(rt.is_done(0));
        // deep(n) = n + deep(n-1), deep(0) = 0.
        assert_eq!(out.get(), (1..=depth).sum::<u64>());
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

    /// An unstarted fiber reclaims its entry closure on drop.
    #[test]
    fn unstarted_fiber_does_not_leak() {
        let flag = Rc::new(Cell::new(false));
        struct SetOnDrop(Rc<Cell<bool>>);
        impl Drop for SetOnDrop {
            fn drop(&mut self) {
                self.0.set(true);
            }
        }
        let guard = SetOnDrop(Rc::clone(&flag));
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
}
