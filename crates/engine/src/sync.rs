//! Minimal lock primitives with a `parking_lot`-style API on top of `std`.
//!
//! The simulator needs two properties from its host-side locks:
//!
//! 1. **No lock poisoning.** A panicking simulated core must not poison the
//!    host locks it held: the other core threads still need to lock shared
//!    state to unwind cleanly and to assemble the crash diagnostic bundle.
//!    Poison errors are therefore swallowed (`into_inner`) — the simulated
//!    state itself is guarded by the [`Sequencer`](crate::sequencer)'s own
//!    poison flag, which carries a reason and a diagnostic.
//! 2. **No external dependency**, so the workspace builds fully offline and
//!    lock behaviour cannot shift under a third-party version bump.

use std::sync::{MutexGuard, PoisonError};

/// A mutual-exclusion lock whose `lock()` never fails: poisoning from a
/// panicked holder is ignored (see the module docs for why that is safe
/// here).
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates a mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Acquires the lock, recovering from poisoning.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose acquisitions never fail (poisoning ignored).
#[derive(Debug, Default)]
pub struct RwLock<T> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        RwLock { inner: std::sync::RwLock::new(value) }
    }

    /// Acquires shared read access.
    pub fn read(&self) -> std::sync::RwLockReadGuard<'_, T> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> std::sync::RwLockWriteGuard<'_, T> {
        self.inner.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_survives_panicking_holder() {
        let m = Arc::new(Mutex::new(7u32));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("die holding the lock");
        })
        .join();
        assert_eq!(*m.lock(), 7, "lock usable after a panicked holder");
    }

    #[test]
    fn rwlock_survives_panicking_writer() {
        let l = Arc::new(RwLock::new(1u32));
        let l2 = Arc::clone(&l);
        let _ = std::thread::spawn(move || {
            let _g = l2.write();
            panic!("die holding the write lock");
        })
        .join();
        *l.write() = 2;
        assert_eq!(*l.read(), 2);
    }
}
