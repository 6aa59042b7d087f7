//! Hermetic stand-in for the `parking_lot` crate.
//!
//! Wraps `std::sync` primitives behind `parking_lot`'s panic-free locking
//! API (no poisoning: a lock held by a panicking thread is recovered).
//! Only the surface the workspace uses is provided.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync;
use std::time::Instant;

pub use sync::{RwLockReadGuard, RwLockWriteGuard};

/// A mutual-exclusion lock that does not poison on panic.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until it is available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(|e| e.into_inner())))
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

/// The lock of a [`Mutex`], released on drop.
///
/// The `std` guard sits in an `Option` so that [`Condvar::wait`] can hand
/// it to `std`'s condition variable by value and put back the one it
/// returns; outside that call it is always `Some`.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0
            .as_deref()
            .expect("guard is held outside Condvar::wait")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_deref_mut()
            .expect("guard is held outside Condvar::wait")
    }
}

/// A condition variable over a [`Mutex`]'s guard that, like the mutex,
/// does not poison: a waiter whose mutex a panicking thread held still
/// wakes with the lock.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

/// Whether a [`Condvar::wait_until`] returned because its deadline passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// `true` if the wait ended at its deadline.
    pub fn timed_out(self) -> bool {
        self.0
    }
}

impl Condvar {
    /// Creates a condition variable with no waiters.
    pub fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Releases the guard's lock, blocks until notified (or a spurious
    /// wake-up), and re-acquires the lock before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let held = guard.0.take().expect("guard is held outside Condvar::wait");
        guard.0 = Some(self.0.wait(held).unwrap_or_else(|e| e.into_inner()));
    }

    /// Like [`wait`](Condvar::wait), but gives up at `deadline`; the lock
    /// is held again on return either way.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        let held = guard.0.take().expect("guard is held outside Condvar::wait");
        let timeout = deadline.saturating_duration_since(Instant::now());
        let (held, _) = self
            .0
            .wait_timeout(held, timeout)
            .unwrap_or_else(|e| e.into_inner());
        guard.0 = Some(held);
        WaitTimeoutResult(Instant::now() >= deadline)
    }

    /// Wakes one blocked waiter, if any.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every blocked waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader-writer lock that does not poison on panic.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock protecting `value`.
    pub fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn rwlock_roundtrip() {
        let l = RwLock::new(vec![1]);
        l.write().push(2);
        assert_eq!(l.read().len(), 2);
    }

    #[test]
    fn lock_recovers_after_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = m.clone();
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        assert_eq!(*m.lock(), 0);
    }

    #[test]
    fn notify_one_wakes_a_waiter_on_another_thread() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (ready, cv) = &*pair;
                let mut ready = ready.lock();
                while !*ready {
                    cv.wait(&mut ready);
                }
            })
        };
        let (ready, cv) = &*pair;
        *ready.lock() = true;
        cv.notify_one();
        waiter.join().unwrap();
    }

    #[test]
    fn wait_until_times_out_at_its_deadline_holding_the_lock() {
        let m = Mutex::new(7);
        let cv = Condvar::new();
        let mut guard = m.lock();
        let deadline = Instant::now() + Duration::from_millis(20);
        while !cv.wait_until(&mut guard, deadline).timed_out() {}
        assert!(Instant::now() >= deadline);
        assert_eq!(*guard, 7);
        assert!(m.0.try_lock().is_err(), "the lock is held again");
    }

    #[test]
    fn waiter_on_a_mutex_held_by_a_panicking_thread_wakes() {
        let pair = Arc::new((Mutex::new(0), Condvar::new()));
        let mut guard = pair.0.lock();
        let panicker = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let (value, cv) = &*pair;
                let mut value = value.lock();
                *value = 42;
                cv.notify_all();
                panic!("poison attempt while holding the lock");
            })
        };
        while *guard != 42 {
            pair.1.wait(&mut guard);
        }
        drop(guard);
        assert!(panicker.join().is_err());
        assert!(pair.0 .0.is_poisoned(), "std would report poison here");
        assert_eq!(*pair.0.lock(), 42);
    }
}
