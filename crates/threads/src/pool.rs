//! A fixed-size thread pool over the bounded buffer — the "thread pool
//! arithmetic program" students observe in the course's first lab.

use crate::buffer::{BoundedBuffer, PutError};
use crate::monitor::Monitor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    jobs: BoundedBuffer<Job>,
    completed: AtomicU64,
    submitted: AtomicU64,
    panicked: AtomicU64,
    /// What [`ThreadPool::wait_idle`] waits on. Workers publish each
    /// completion while holding its lock, so a completion can never
    /// fall between a waiter's check and its wait.
    idle: Monitor<usize>,
    #[cfg(test)]
    hooks: tests::Hooks,
}

impl PoolShared {
    /// Every submitted job has finished, normally or by panicking.
    fn is_idle(&self) -> bool {
        self.jobs.is_empty()
            && self.completed.load(Ordering::SeqCst) + self.panicked.load(Ordering::SeqCst)
                >= self.submitted.load(Ordering::SeqCst)
    }
}

/// A fixed-size worker pool with a bounded job queue.
///
/// `execute` blocks when the queue is full (backpressure);
/// [`ThreadPool::shutdown`] drains outstanding work and joins the
/// workers. A panicking job is contained: the worker survives and the
/// panic is counted.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// `workers` threads with a job queue of `queue_capacity`.
    pub fn new(workers: usize, queue_capacity: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(PoolShared {
            jobs: BoundedBuffer::new(queue_capacity),
            completed: AtomicU64::new(0),
            submitted: AtomicU64::new(0),
            panicked: AtomicU64::new(0),
            idle: Monitor::new(workers),
            #[cfg(test)]
            hooks: tests::Hooks::default(),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("pool-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        ThreadPool { shared, workers: handles }
    }

    /// Submit a job; blocks while the queue is full. Fails after
    /// shutdown.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> Result<(), ClosedError> {
        self.shared.submitted.fetch_add(1, Ordering::Relaxed);
        match self.shared.jobs.put(Box::new(job)) {
            Ok(()) => Ok(()),
            Err(PutError::Closed(_) | PutError::Timeout(_)) => {
                self.shared.submitted.fetch_sub(1, Ordering::Relaxed);
                Err(ClosedError)
            }
        }
    }

    /// Block until every submitted job has completed (the queue is
    /// empty and all workers are idle).
    pub fn wait_idle(&self) {
        // Completed count catches up to submitted count.
        let shared = &self.shared;
        let mut guard = shared.idle.enter();
        while !shared.is_idle() {
            #[cfg(test)]
            shared.hooks.before_idle_wait();
            guard.wait();
        }
    }

    /// Stop accepting work, finish the queue, and join the workers.
    pub fn shutdown(mut self) -> PoolStats {
        self.shared.jobs.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        self.stats()
    }

    /// Counters so far.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            submitted: self.shared.submitted.load(Ordering::SeqCst),
            completed: self.shared.completed.load(Ordering::SeqCst),
            panicked: self.shared.panicked.load(Ordering::SeqCst),
        }
    }

    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.jobs.close();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    while let Some(job) = shared.jobs.take() {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
        // Publish and wake `wait_idle` under the monitor's lock: a
        // waiter checks and starts waiting inside one critical
        // section, so the completion lands before its check or after
        // it is registered as a waiter, never in between.
        shared.idle.with(|_| match outcome {
            Ok(()) => shared.completed.fetch_add(1, Ordering::SeqCst),
            Err(_) => shared.panicked.fetch_add(1, Ordering::SeqCst),
        });
        #[cfg(test)]
        shared.hooks.published.fetch_add(1, Ordering::SeqCst);
    }
}

/// Error from submitting to a shut-down pool.
#[derive(Debug, PartialEq, Eq)]
pub struct ClosedError;

impl std::fmt::Display for ClosedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool is shut down")
    }
}

impl std::error::Error for ClosedError {}

/// Lifetime counters of a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    pub submitted: u64,
    pub completed: u64,
    pub panicked: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    type Hook = Box<dyn FnOnce() + Send>;

    /// Test instrumentation of a pool's idle protocol.
    #[derive(Default)]
    pub(super) struct Hooks {
        /// Run once by `wait_idle` between an idle check that failed
        /// and its wait, with the monitor's lock held.
        before_idle_wait: std::sync::Mutex<Option<Hook>>,
        /// Completions whose publication (counter and wake-up) is done.
        pub(super) published: AtomicU64,
    }

    impl Hooks {
        pub(super) fn before_idle_wait(&self) {
            let hook = self.before_idle_wait.lock().expect("hook lock").take();
            if let Some(hook) = hook {
                hook();
            }
        }
    }

    /// The lost-wakeup interleaving, forced: a job finishes while
    /// `wait_idle` sits between its failed idle check and its wait.
    /// The hook releases the job, then holds the waiter there until
    /// the worker has either published its completion (a wake-up sent
    /// before anyone waits, so the waiter would sleep forever) or
    /// queued on the monitor's lock (the publication must wait for the
    /// waiter to start waiting). The bounded receive only turns a hang
    /// into a failure.
    #[test]
    fn completion_between_idle_check_and_wait_is_not_lost() {
        let pool = ThreadPool::new(1, 1);
        let (release, released) = mpsc::channel::<()>();
        pool.execute(move || released.recv().expect("job released")).unwrap();
        let shared = Arc::clone(&pool.shared);
        let hook: Hook = Box::new(move || {
            release.send(()).expect("job waits for release");
            while shared.hooks.published.load(Ordering::SeqCst) == 0
                && shared.idle.lock_queue_len() == 0
            {
                std::thread::yield_now();
            }
        });
        *pool.shared.hooks.before_idle_wait.lock().unwrap() = Some(hook);
        let (done, idle) = mpsc::channel();
        std::thread::spawn(move || {
            pool.wait_idle();
            done.send(pool.shutdown()).expect("test waits for the result");
        });
        let stats = idle
            .recv_timeout(Duration::from_secs(30))
            .expect("wait_idle missed the completion published between its check and its wait");
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn lab1_arithmetic_workload() {
        // The Lab-1 demo: sum of squares via pool tasks.
        let pool = ThreadPool::new(3, 8);
        let total = Arc::new(AtomicU64::new(0));
        for i in 1..=100u64 {
            let total = Arc::clone(&total);
            pool.execute(move || {
                total.fetch_add(i * i, Ordering::SeqCst);
            })
            .unwrap();
        }
        pool.wait_idle();
        assert_eq!(total.load(Ordering::SeqCst), (1..=100u64).map(|i| i * i).sum());
        let stats = pool.shutdown();
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.panicked, 0);
    }

    #[test]
    fn panicking_jobs_do_not_kill_workers() {
        let pool = ThreadPool::new(2, 4);
        for i in 0..20 {
            pool.execute(move || {
                if i % 5 == 0 {
                    panic!("job {i} exploded");
                }
            })
            .unwrap();
        }
        pool.wait_idle();
        let stats = pool.shutdown();
        assert_eq!(stats.panicked, 4);
        assert_eq!(stats.completed, 16);
    }

    #[test]
    fn execute_after_shutdown_fails() {
        let pool = ThreadPool::new(1, 1);
        let shared = Arc::clone(&pool.shared);
        drop(pool);
        assert!(shared.jobs.is_closed());
    }

    #[test]
    fn queue_backpressure_blocks_then_drains() {
        let pool = ThreadPool::new(1, 1);
        let gate = Arc::new(crate::barrier::CountDownLatch::new(1));
        let g2 = Arc::clone(&gate);
        pool.execute(move || g2.wait()).unwrap();
        // Fill the queue while the worker is blocked.
        let g3 = Arc::clone(&gate);
        pool.execute(move || g3.wait()).unwrap();
        // A third submit must block; release the gate from another
        // thread after a delay so it completes.
        let gate2 = Arc::clone(&gate);
        let releaser = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(30));
            gate2.count_down();
        });
        pool.execute(|| ()).unwrap();
        releaser.join().unwrap();
        pool.wait_idle();
        assert_eq!(pool.stats().completed, 3);
    }
}
