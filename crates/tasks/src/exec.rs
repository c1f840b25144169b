//! The executor: slots, wakers, the poll loop, and the task-side
//! request protocol.

use concur_decide::{ChoiceSource, DecisionKind, DecisionTrace, Recording};
use std::cell::RefCell;
use std::future::Future;
use std::mem::ManuallyDrop;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};

/// Default step bound before a run is reported as diverged
/// ([`Executor::with_max_steps`] changes it).
pub const DEFAULT_MAX_STEPS: usize = 100_000;

/// A park/wake predicate: shared because both the task's `Request`
/// and the slot's `Parked` state hold it.
type Pred = Rc<dyn Fn() -> bool>;

/// What a future asks of the executor when it returns `Pending`.
/// Written into the task's cell immediately before suspending; the
/// executor takes it right after the poll returns.
enum Request {
    /// Rejoin the ready set immediately (a pure interleaving point).
    Yield,
    /// Leave the ready set until the predicate holds.
    Park(Pred),
    /// Resolve an in-task draw of arity `n` and re-poll at once.
    Choose { kind: DecisionKind, n: usize },
}

/// Per-task mailbox between a future and the executor.
#[derive(Default)]
struct TaskCell {
    req: Option<Request>,
    answer: Option<usize>,
}

impl TaskCell {
    fn default_rc() -> Rc<RefCell<TaskCell>> {
        Rc::new(RefCell::new(TaskCell { req: None, answer: None }))
    }
}

/// Scheduling state of one task slot.
enum SlotState {
    /// In the ready set.
    Ready,
    /// Out of the ready set until the predicate holds.
    Parked(Pred),
    /// Out of the ready set until a waker fires (channel recv / join).
    Waiting,
    Done,
}

struct Slot {
    label: String,
    future: Option<Pin<Box<dyn Future<Output = ()>>>>,
    state: SlotState,
    cell: Rc<RefCell<TaskCell>>,
    /// Set by this slot's waker; survives state overwrites so a wake
    /// that lands *during* the task's own poll is not lost.
    woken: bool,
}

#[derive(Default)]
struct Core {
    slots: Vec<Slot>,
}

/// Outcome of one executor run. Field-for-field compatible with the
/// conformance layer's notion of a run so results feed straight into
/// the four-way cross-paradigm oracle.
#[derive(Debug, Clone)]
pub struct Report {
    /// Ready set went empty with live tasks remaining.
    pub deadlocked: bool,
    /// Step bound exhausted.
    pub diverged: bool,
    /// Scheduling + choose steps taken.
    pub steps: usize,
    /// Every decision the source actually resolved, in order.
    pub decisions: Vec<usize>,
    /// Same decisions with kind/arity metadata.
    pub trace: DecisionTrace,
}

/// The single-threaded executor. Spawn tasks, then [`Executor::run`].
pub struct Executor {
    core: Rc<RefCell<Core>>,
    max_steps: usize,
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

impl Executor {
    pub fn new() -> Executor {
        Executor { core: Rc::new(RefCell::new(Core::default())), max_steps: DEFAULT_MAX_STEPS }
    }

    /// Override the divergence bound (tests).
    pub fn with_max_steps(mut self, max_steps: usize) -> Executor {
        self.max_steps = max_steps;
        self
    }

    /// Register a task. The closure receives this task's [`Ctx`] and
    /// returns the future to drive; the task's result is delivered
    /// through the returned [`JoinHandle`].
    pub fn spawn<T, F, Fut>(&self, label: &str, f: F) -> JoinHandle<T>
    where
        T: 'static,
        F: FnOnce(Ctx) -> Fut,
        Fut: Future<Output = T> + 'static,
    {
        let cell = TaskCell::default_rc();
        let ctx = Ctx { cell: Rc::clone(&cell) };
        let join =
            Rc::new(RefCell::new(JoinState { value: None, done: false, waiters: Vec::new() }));
        let join_in_task = Rc::clone(&join);
        let fut = f(ctx);
        let wrapped = async move {
            let value = fut.await;
            let mut st = join_in_task.borrow_mut();
            st.value = Some(value);
            st.done = true;
            for w in st.waiters.drain(..) {
                w.wake();
            }
        };
        self.core.borrow_mut().slots.push(Slot {
            label: label.to_string(),
            future: Some(Box::pin(wrapped)),
            state: SlotState::Ready,
            cell,
            woken: false,
        });
        JoinHandle { state: join }
    }

    /// Drive every spawned task to completion (or deadlock, or the
    /// step bound), resolving each poll-order choice through `source`.
    pub fn run(self, source: &mut dyn ChoiceSource) -> Report {
        let mut rec = Recording::new(source);
        let mut steps = 0usize;
        let mut deadlocked = false;
        let mut diverged = false;
        let mut last: Option<usize> = None;

        loop {
            let ready = self.ready_set();
            if ready.is_empty() {
                let all_done =
                    self.core.borrow().slots.iter().all(|s| matches!(s.state, SlotState::Done));
                deadlocked = !all_done;
                break;
            }
            if steps >= self.max_steps {
                diverged = true;
                break;
            }
            let hint = last.and_then(|l| ready.iter().position(|&id| id == l));
            let pick = rec.decide(DecisionKind::Poll, ready.len(), hint);
            let id = ready[pick];
            last = Some(id);
            steps += 1;

            // Poll; a Choose request re-polls the same task at once.
            loop {
                let poll = self.poll_slot(id);
                let mut core = self.core.borrow_mut();
                let slot = &mut core.slots[id];
                match poll {
                    Poll::Ready(()) => {
                        slot.state = SlotState::Done;
                        slot.future = None;
                    }
                    Poll::Pending => {
                        let req = slot.cell.borrow_mut().req.take();
                        match req {
                            Some(Request::Yield) => slot.state = SlotState::Ready,
                            Some(Request::Park(pred)) => slot.state = SlotState::Parked(pred),
                            Some(Request::Choose { kind, n }) => {
                                let ans = rec.decide(kind, n, None);
                                slot.cell.borrow_mut().answer = Some(ans);
                                slot.state = SlotState::Ready;
                                slot.woken = false;
                                steps += 1;
                                drop(core);
                                if steps >= self.max_steps {
                                    // Bound applies to re-polls too;
                                    // the outer loop reports it.
                                    break;
                                }
                                continue;
                            }
                            None => {
                                slot.state =
                                    if slot.woken { SlotState::Ready } else { SlotState::Waiting };
                            }
                        }
                    }
                }
                slot.woken = false;
                break;
            }
        }

        let trace = rec.into_trace();
        Report { deadlocked, diverged, steps, decisions: trace.picks(), trace }
    }

    /// Task ids currently pollable, in id order: ready or woken slots,
    /// plus parked slots whose predicate holds. Predicates are
    /// evaluated with the core unborrowed — they touch fixture state,
    /// which may itself hold `Ctx` clones.
    fn ready_set(&self) -> Vec<usize> {
        let preds: Vec<(usize, Option<Pred>)> = self
            .core
            .borrow()
            .slots
            .iter()
            .enumerate()
            .filter_map(|(id, s)| match &s.state {
                SlotState::Ready => Some((id, None)),
                SlotState::Waiting if s.woken => Some((id, None)),
                SlotState::Parked(p) => Some((id, Some(Rc::clone(p)))),
                _ => None,
            })
            .collect();
        preds
            .into_iter()
            .filter(|(_, pred)| pred.as_ref().map(|p| p()).unwrap_or(true))
            .map(|(id, _)| id)
            .collect()
    }

    /// Poll one slot with its waker, with the core unborrowed during
    /// the poll so the future can wake other tasks (channel sends,
    /// join completions) without re-entrant borrows.
    fn poll_slot(&self, id: usize) -> Poll<()> {
        let mut fut = {
            let mut core = self.core.borrow_mut();
            let slot = &mut core.slots[id];
            slot.woken = false;
            slot.future.take().expect("polling a task with no future")
        };
        let waker = waker_for(id, Rc::downgrade(&self.core));
        let mut cx = Context::from_waker(&waker);
        let poll = fut.as_mut().poll(&mut cx);
        let mut core = self.core.borrow_mut();
        if poll.is_pending() {
            core.slots[id].future = Some(fut);
        }
        poll
    }

    /// Labels of the tasks that never completed (diagnostics).
    pub fn stuck_labels(&self) -> Vec<String> {
        self.core
            .borrow()
            .slots
            .iter()
            .filter(|s| !matches!(s.state, SlotState::Done))
            .map(|s| s.label.clone())
            .collect()
    }
}

// --- wakers ---------------------------------------------------------------

struct WakeSlot {
    id: usize,
    core: Weak<RefCell<Core>>,
}

impl WakeSlot {
    fn wake(&self) {
        if let Some(core) = self.core.upgrade() {
            let mut core = core.borrow_mut();
            if let Some(slot) = core.slots.get_mut(self.id) {
                slot.woken = true;
                if matches!(slot.state, SlotState::Waiting) {
                    slot.state = SlotState::Ready;
                }
            }
        }
    }
}

/// Hand-rolled `RawWaker` over `Rc<WakeSlot>`. The executor is
/// single-threaded by construction (`Rc`-based tasks cannot leave the
/// thread), so the `Send + Sync` contract of `Waker` is vacuous here.
fn waker_for(id: usize, core: Weak<RefCell<Core>>) -> Waker {
    unsafe fn clone_raw(p: *const ()) -> RawWaker {
        unsafe { Rc::increment_strong_count(p as *const WakeSlot) };
        RawWaker::new(p, &VTABLE)
    }
    unsafe fn wake_raw(p: *const ()) {
        let slot = unsafe { Rc::from_raw(p as *const WakeSlot) };
        slot.wake();
    }
    unsafe fn wake_by_ref_raw(p: *const ()) {
        let slot = ManuallyDrop::new(unsafe { Rc::from_raw(p as *const WakeSlot) });
        slot.wake();
    }
    unsafe fn drop_raw(p: *const ()) {
        drop(unsafe { Rc::from_raw(p as *const WakeSlot) });
    }
    static VTABLE: RawWakerVTable =
        RawWakerVTable::new(clone_raw, wake_raw, wake_by_ref_raw, drop_raw);
    let slot = Rc::new(WakeSlot { id, core });
    unsafe { Waker::from_raw(RawWaker::new(Rc::into_raw(slot) as *const (), &VTABLE)) }
}

// --- the task-side handle -------------------------------------------------

/// A task's handle to its executor: suspension points and kernel
/// draws. Cloneable; clones address the same task slot.
#[derive(Clone)]
pub struct Ctx {
    cell: Rc<RefCell<TaskCell>>,
}

impl Ctx {
    /// A pure interleaving point: suspend, rejoin the ready set.
    pub fn yield_now(&self) -> impl Future<Output = ()> {
        RequestFut { cell: Rc::clone(&self.cell), make: Some(ReqMake::Yield), done: false }
    }

    /// Suspend until `pred` holds. If it already holds the future
    /// completes on its first poll without suspending (matching the
    /// other disciplines' `block_until`).
    pub fn wait_until(&self, pred: impl Fn() -> bool + 'static) -> impl Future<Output = ()> {
        RequestFut {
            cell: Rc::clone(&self.cell),
            make: Some(ReqMake::Park(Rc::new(pred))),
            done: false,
        }
    }

    /// Draw an in-task choice of arity `n` from the kernel
    /// ([`DecisionKind::Choice`]). `n <= 1` resolves immediately
    /// without suspending or consuming a decision.
    pub fn choose(&self, n: usize) -> impl Future<Output = usize> {
        ChooseFut { cell: Rc::clone(&self.cell), kind: DecisionKind::Choice, n, asked: false }
    }

    /// Like [`Ctx::choose`] but recorded as a delivery-order decision
    /// ([`DecisionKind::Delivery`]).
    pub fn choose_delivery(&self, n: usize) -> impl Future<Output = usize> {
        ChooseFut { cell: Rc::clone(&self.cell), kind: DecisionKind::Delivery, n, asked: false }
    }
}

enum ReqMake {
    Yield,
    Park(Pred),
}

/// One-suspension future: file the request, resume completed.
struct RequestFut {
    cell: Rc<RefCell<TaskCell>>,
    make: Option<ReqMake>,
    done: bool,
}

impl Future for RequestFut {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.done {
            return Poll::Ready(());
        }
        match self.make.take().expect("polled after filing without resume") {
            ReqMake::Yield => {
                self.cell.borrow_mut().req = Some(Request::Yield);
            }
            ReqMake::Park(pred) => {
                if pred() {
                    // Already true: complete without suspending.
                    return Poll::Ready(());
                }
                self.cell.borrow_mut().req = Some(Request::Park(pred));
            }
        }
        self.done = true;
        Poll::Pending
    }
}

struct ChooseFut {
    cell: Rc<RefCell<TaskCell>>,
    kind: DecisionKind,
    n: usize,
    asked: bool,
}

impl Future for ChooseFut {
    type Output = usize;

    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<usize> {
        if self.n <= 1 {
            return Poll::Ready(0);
        }
        if self.asked {
            let ans = self.cell.borrow_mut().answer.take().expect("executor filed an answer");
            return Poll::Ready(ans);
        }
        self.cell.borrow_mut().req = Some(Request::Choose { kind: self.kind, n: self.n });
        self.asked = true;
        Poll::Pending
    }
}

// --- join handles ---------------------------------------------------------

struct JoinState<T> {
    value: Option<T>,
    done: bool,
    waiters: Vec<Waker>,
}

/// Await another task's completion (and take its result).
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    /// Complete when the spawned task does; yields its output.
    pub fn join(self) -> impl Future<Output = T> {
        JoinFut { state: self.state }
    }

    /// Completed yet? (Non-blocking; for post-run inspection.)
    pub fn is_done(&self) -> bool {
        self.state.borrow().done
    }

    /// Take the result after the run, without awaiting.
    pub fn try_take(&self) -> Option<T> {
        self.state.borrow_mut().value.take()
    }
}

struct JoinFut<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> Future for JoinFut<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut st = self.state.borrow_mut();
        if st.done {
            return Poll::Ready(st.value.take().expect("join result already taken"));
        }
        st.waiters.push(cx.waker().clone());
        Poll::Pending
    }
}
