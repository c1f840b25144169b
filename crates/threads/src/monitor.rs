//! A Java-style monitor: one lock plus one wait-set, bundled with the
//! data it protects.
//!
//! This is the construct the course maps the pseudocode's
//! `EXC_ACC`/`WAIT()`/`NOTIFY()` onto, and the shape of Java's
//! `synchronized` + `wait`/`notify`/`notifyAll` that the paper's
//! shared-memory misconceptions (S5–S7) are about. The API keeps the
//! conflation hazards *impossible* rather than merely discouraged:
//! waiting requires the guard (you cannot wait without holding the
//! lock) and re-acquisition on wake-up is automatic.
//!
//! ```
//! use concur_threads::monitor::Monitor;
//! use std::sync::Arc;
//!
//! let account = Arc::new(Monitor::new(10i64));
//! // Conditional withdrawal: block until the balance suffices.
//! let m = Arc::clone(&account);
//! let t = std::thread::spawn(move || {
//!     let mut guard = m.enter();
//!     while *guard < 15 {
//!         guard.wait();
//!     }
//!     *guard -= 15;
//! });
//! account.with(|balance| *balance += 5); // deposit + implicit notify
//! t.join().unwrap();
//! assert_eq!(account.with(|b| *b), 0);
//! ```

use crate::condvar::CondVar;
use crate::raw::{Mutex, MutexGuard};
use std::ops::{Deref, DerefMut};
use std::time::Duration;

/// A monitor protecting a `T`.
pub struct Monitor<T: ?Sized> {
    cond: CondVar,
    mutex: Mutex<T>,
}

impl<T> Monitor<T> {
    pub fn new(data: T) -> Self {
        Monitor { cond: CondVar::new(), mutex: Mutex::new(data) }
    }

    pub fn into_inner(self) -> T {
        self.mutex.into_inner()
    }
}

impl<T: ?Sized> Monitor<T> {
    /// Enter the monitor (acquire the lock).
    pub fn enter(&self) -> MonitorGuard<'_, T> {
        MonitorGuard { guard: Some(self.mutex.lock()), monitor: self }
    }

    /// Run `f` inside the monitor and notify all waiters afterwards —
    /// the common "synchronized method that changes state" shape.
    /// Notifying unconditionally is the safe default the course
    /// teaches (missed-signal bugs outnumber spurious-wakeup costs).
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.enter();
        let result = f(&mut guard);
        guard.notify_all();
        result
    }

    /// Run `f` inside the monitor without notifying (read-only use).
    pub fn with_quiet<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.enter();
        f(&mut guard)
    }

    /// Enter and block until `ready` holds, then run `f`. All in one
    /// critical section; notifies afterwards.
    pub fn when<R>(&self, mut ready: impl FnMut(&T) -> bool, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.enter();
        while !ready(&guard) {
            guard.wait();
        }
        let result = f(&mut guard);
        guard.notify_all();
        result
    }

    /// Like [`Monitor::when`] but gives up after `timeout`; returns
    /// `None` on timeout.
    pub fn when_timeout<R>(
        &self,
        mut ready: impl FnMut(&T) -> bool,
        timeout: Duration,
        f: impl FnOnce(&mut T) -> R,
    ) -> Option<R> {
        let mut guard = self.enter();
        while !ready(&guard) {
            if guard.wait_timeout(timeout) {
                return None;
            }
        }
        let result = f(&mut guard);
        guard.notify_all();
        Some(result)
    }

    /// Notify without holding the lock (allowed, as in Java after
    /// leaving a synchronized block — but prefer the guard methods).
    pub fn notify_all(&self) {
        self.cond.notify_all();
    }

    /// Number of threads in the wait-set (racy; diagnostics only).
    pub fn waiter_count(&self) -> usize {
        self.cond.waiter_count()
    }

    /// Number of threads queued to enter the monitor (racy; lets tests
    /// observe a thread blocked on the lock).
    #[cfg(test)]
    pub(crate) fn lock_queue_len(&self) -> usize {
        self.mutex.raw().queue_len()
    }
}

/// Guard proving the monitor is entered. Dereferences to the data;
/// exposes `wait`/`notify` exactly like Java's `this.wait()` inside a
/// synchronized method.
pub struct MonitorGuard<'m, T: ?Sized> {
    /// `Option` so `wait` can temporarily give the guard back.
    guard: Option<MutexGuard<'m, T>>,
    monitor: &'m Monitor<T>,
}

impl<T: ?Sized> MonitorGuard<'_, T> {
    /// Release the monitor, sleep until notified, re-acquire. Callers
    /// must re-check their condition in a loop (same contract as
    /// Java).
    pub fn wait(&mut self) {
        let inner = self.guard.take().expect("guard present outside wait");
        self.guard = Some(self.monitor.cond.wait(inner));
    }

    /// Timed wait; returns whether it timed out.
    pub fn wait_timeout(&mut self, timeout: Duration) -> bool {
        let inner = self.guard.take().expect("guard present outside wait");
        let (inner, timed_out) = self.monitor.cond.wait_timeout(inner, timeout);
        self.guard = Some(inner);
        timed_out
    }

    /// Wake one waiter.
    pub fn notify_one(&mut self) {
        self.monitor.cond.notify_one();
    }

    /// Wake all waiters (`notifyAll` / the pseudocode `NOTIFY()`).
    pub fn notify_all(&mut self) {
        self.monitor.cond.notify_all();
    }
}

impl<T: ?Sized> Deref for MonitorGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.guard.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MonitorGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.guard.as_mut().expect("guard present")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn figure4_wait_notify_semantics() {
        // x = 10; changeX(-11) must wait for changeX(1); result 0.
        let x = Arc::new(Monitor::new(10i64));
        let mut handles = Vec::new();
        for diff in [-11i64, 1] {
            let x = Arc::clone(&x);
            handles.push(thread::spawn(move || {
                x.when(|v| v + diff >= 0, |v| *v += diff);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.with_quiet(|v| *v), 0);
    }

    #[test]
    fn with_is_a_critical_section() {
        let m = Arc::new(Monitor::new(0u64));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..2_500 {
                        m.with_quiet(|v| *v += 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.with_quiet(|v| *v), 10_000);
    }

    #[test]
    fn when_timeout_gives_up() {
        let m = Monitor::new(false);
        let r = m.when_timeout(|ready| *ready, Duration::from_millis(20), |_| 1);
        assert_eq!(r, None);
    }

    #[test]
    fn multiple_waiters_all_released() {
        let gate = Arc::new(Monitor::new(false));
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let gate = Arc::clone(&gate);
                thread::spawn(move || gate.when(|open| *open, |_| ()))
            })
            .collect();
        thread::sleep(Duration::from_millis(20));
        gate.with(|open| *open = true);
        for h in handles {
            h.join().unwrap();
        }
    }
}
