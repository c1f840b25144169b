//! A parking mutex built from one atomic and a queue of thread
//! handles — the crate's workhorse lock, analogous to the one
//! developed chapter-by-chapter in *Rust Atomics and Locks*, but using
//! portable `thread::park`/`unpark` instead of futexes.

use crate::spin::SpinLock;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, Thread};

/// The raw lock: no data, just mutual exclusion. [`Mutex`] wraps it
/// with an `UnsafeCell`.
pub struct RawMutex {
    locked: AtomicBool,
    waiters: SpinLock<VecDeque<Thread>>,
}

impl Default for RawMutex {
    fn default() -> Self {
        Self::new()
    }
}

impl RawMutex {
    pub fn new() -> Self {
        RawMutex { locked: AtomicBool::new(false), waiters: SpinLock::new(VecDeque::new()) }
    }

    fn try_acquire(&self) -> bool {
        self.locked.compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed).is_ok()
    }

    /// Acquire, parking the thread while the lock is held elsewhere.
    pub fn lock(&self) {
        crate::chaos::perturb();
        // Fast path.
        if self.try_acquire() {
            return;
        }
        let me = thread::current();
        loop {
            // Register, then re-check while holding the queue lock so
            // an unlocker that misses our registration must have
            // released before we checked (we then win the CAS).
            {
                let mut queue = self.waiters.lock();
                if self.try_acquire() {
                    return;
                }
                queue.push_back(me.clone());
            }
            thread::park();
            // Remove any stale registration (spurious wakeups leave
            // our handle queued) before retrying.
            {
                let mut queue = self.waiters.lock();
                queue.retain(|t| t.id() != me.id());
            }
            if self.try_acquire() {
                return;
            }
        }
    }

    pub fn try_lock_raw(&self) -> bool {
        self.try_acquire()
    }

    /// Number of threads parked waiting for the lock (racy).
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.waiters.lock().len()
    }

    /// Release and wake one queued waiter.
    ///
    /// # Safety contract (not enforced)
    /// Must only be called by the thread that holds the lock; `Mutex`
    /// guarantees this via its guard.
    pub fn unlock(&self) {
        self.locked.store(false, Ordering::Release);
        let next = self.waiters.lock().pop_front();
        if let Some(t) = next {
            t.unpark();
        }
    }
}

/// A data-carrying mutex over [`RawMutex`]. No poisoning: a panic
/// while holding the guard releases the lock and later users see
/// whatever state the panicking section left (documented trade-off,
/// same as `parking_lot`).
pub struct Mutex<T: ?Sized> {
    raw: RawMutex,
    data: UnsafeCell<T>,
}

unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

impl<T> Mutex<T> {
    pub fn new(data: T) -> Self {
        Mutex { raw: RawMutex::new(), data: UnsafeCell::new(data) }
    }

    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.raw.lock();
        MutexGuard { mutex: self }
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if self.raw.try_lock_raw() {
            Some(MutexGuard { mutex: self })
        } else {
            None
        }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The underlying raw lock.
    pub fn raw(&self) -> &RawMutex {
        &self.raw
    }
}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'m, T: ?Sized> {
    mutex: &'m Mutex<T>,
}

impl<'m, T: ?Sized> MutexGuard<'m, T> {
    /// The mutex this guard locks (used by condvar re-locking).
    pub fn mutex(&self) -> &'m Mutex<T> {
        self.mutex
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves we hold the lock.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as above.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        self.mutex.raw.unlock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn counter_is_exact_under_contention() {
        let mutex = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&mutex);
                thread::spawn(move || {
                    for _ in 0..5_000 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*mutex.lock(), 20_000);
    }

    #[test]
    fn parked_waiter_is_woken() {
        let mutex = Arc::new(Mutex::new(()));
        let guard = mutex.lock();
        let m2 = Arc::clone(&mutex);
        let waiter = thread::spawn(move || {
            let _g = m2.lock();
            true
        });
        // Give the waiter time to park.
        thread::sleep(Duration::from_millis(30));
        drop(guard);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn try_lock_contended() {
        let mutex = Mutex::new(1);
        let g = mutex.lock();
        assert!(mutex.try_lock().is_none());
        drop(g);
        assert!(mutex.try_lock().is_some());
    }

    #[test]
    fn panic_releases_the_lock() {
        let mutex = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&mutex);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poisoning test");
        })
        .join();
        // No poisoning: the lock must be usable again.
        *mutex.lock() += 1;
        assert_eq!(*mutex.lock(), 1);
    }
}
