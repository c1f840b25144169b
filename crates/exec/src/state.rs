//! Interpreter state: tasks, frames, objects, locks, mailboxes, and
//! program output.
//!
//! The entire state is `Clone + Hash + Eq`, which is what lets the
//! model checker snapshot at every choice point and deduplicate
//! revisited states. All maps are `BTreeMap`s so hashing is
//! deterministic.
//!
//! A state is copy-on-write. Each component (globals, heap, lock
//! table, in-flight and dead-letter lists, output) sits behind an
//! [`Arc`], and each task record and each heap object behind its own,
//! so cloning a state copies one vector of task handles and bumps
//! reference counts. A write goes through [`Arc::make_mut`]
//! ([`State::task_mut`], [`State::object_mut`], [`State::acquire`],
//! [`State::add_inflight`] and the interpreter's direct writes), which
//! copies a component only while another state or the interner's
//! pools still share it; a field write copies the heap's vector of
//! object handles and the one object written. So a transition copies
//! exactly the task, objects and components it writes, and everything
//! else stays shared with its predecessor —
//! which is also what lets the interner find an untouched component
//! by address instead of re-hashing it.
//!
//! A task record does not store its own id: the id of a task is its
//! index in [`State::tasks`].

use crate::program::{CodeId, FuncId};
use crate::value::{MessageVal, ObjId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Index into [`State::tasks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A shared memory cell an `EXC_ACC` block can lock: a global variable
/// or an object field.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Cell {
    Global(String),
    Field(ObjId, String),
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Global(name) => write!(f, "{name}"),
            Cell::Field(obj, field) => write!(f, "{obj}.{field}"),
        }
    }
}

/// Why a task cannot currently take a step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// At an `ExcEnter` and the footprint (resolved to cells at the
    /// first attempt) conflicts with locks held by another task.
    Locks(Vec<Cell>),
    /// Executed `WAIT()`; sleeping until some task runs `NOTIFY()`.
    Waiting,
    /// Woken by `NOTIFY()`; must re-acquire its released footprint
    /// before continuing past the `WAIT()`.
    Reacquire,
    /// At a `Receive` with no in-flight message for its receiver.
    Receive,
    /// Spawned a `PARA` block; waiting for `remaining` children.
    Join { remaining: usize },
    /// At an `AWAIT` whose condition evaluated FALSE. The condition is
    /// recoverable from the instruction at the frame's pc (which does
    /// not advance while blocked) and is re-evaluated on every
    /// enabledness check.
    AwaitCond,
}

/// Task lifecycle.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum TaskStatus {
    Runnable,
    Blocked(BlockReason),
    Done,
}

/// One call-stack frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Frame {
    pub func: FuncId,
    pub code: CodeId,
    pub pc: usize,
    pub locals: BTreeMap<String, Value>,
    /// Receiver object for method frames.
    pub self_obj: Option<ObjId>,
    /// When this frame pops, the caller's pending `CallAssign` target
    /// normally receives the return value. `init` constructor frames
    /// set this flag because the `New` instruction already stored the
    /// object reference.
    pub discard_return: bool,
    /// `true` for the root frame of the main task and of `PARA` tasks
    /// spawned from main scope: bare names resolve to globals.
    pub main_scope: bool,
    /// Snapshot of the function-level locals taken at the first
    /// arrival at a `Receive` instruction (keyed by its pc). Restored
    /// when an arm body completes: arm bindings and arm-body locals
    /// are scoped to one message; persistent receiver state lives in
    /// object fields.
    pub receive_saved: Option<(usize, BTreeMap<String, Value>)>,
}

/// A set of cells acquired by one `EXC_ACC` entry. Tasks hold a stack
/// of these (dynamic nesting through calls). `frame_depth` records the
/// call depth at acquisition so a `RETURN` from inside an `EXC_ACC`
/// releases exactly the sets its frame acquired.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HeldSet {
    pub cells: Vec<Cell>,
    pub frame_depth: usize,
}

/// One concurrent task. Its id is its index in [`State::tasks`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Task {
    /// Display label: `main`, the `PARA` statement text
    /// (`redCarA.run()`), or `obj0.receive` for receiver tasks.
    pub label: String,
    pub status: TaskStatus,
    pub frames: Vec<Frame>,
    /// Stack of footprints currently held.
    pub held: Vec<HeldSet>,
    /// Footprint released by `WAIT()`, to be re-acquired on wake-up.
    pub pending_reacquire: Option<HeldSet>,
    /// Parent waiting in a `PARA` join, if any.
    pub parent: Option<TaskId>,
    /// Symmetry class for `PARA SYMMETRIC` arms: the shared code unit
    /// id of the block's (identical) arms. Tasks with the same
    /// `(parent, sym)` are declared interchangeable — the interner's
    /// orbit canonicalization may permute their records wholesale.
    /// `None` for every other task.
    pub sym: Option<u32>,
    /// Detached tasks (receiver methods, `SPAWN`) never join anyone,
    /// and being permanently blocked at a `Receive` counts as
    /// quiescence rather than deadlock.
    pub detached: bool,
    /// Per-function call/return counters, used by the study crate's
    /// state predicates ("redCarA has called redEnter() but has not
    /// returned").
    pub calls: BTreeMap<String, u32>,
    pub returns: BTreeMap<String, u32>,
    /// Per-message-name send/receive counters.
    pub sent: BTreeMap<String, u32>,
    pub received: BTreeMap<String, u32>,
}

impl Task {
    /// Whether some frame of this task is currently executing `func`
    /// (qualified name).
    pub fn in_function(&self, qualified: &str, funcs: &[crate::program::FuncInfo]) -> bool {
        self.frames.iter().any(|f| funcs[f.func.0].qualified == qualified)
    }

    pub fn top_frame(&self) -> Option<&Frame> {
        self.frames.last()
    }
}

/// A heap object.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Object {
    pub class: String,
    pub fields: BTreeMap<String, Value>,
}

/// A sent-but-undelivered message. The in-flight pool is the source of
/// the paper's delivery nondeterminism: any in-flight message for a
/// receiver may be delivered next, regardless of send order — covering
/// all four reorder scenarios of Table III's M5.
///
/// Equality and hashing deliberately ignore `seq` and `from`: they
/// exist for event correlation only, and including them would make the
/// model checker treat logically identical states (same pending
/// messages, different send history) as distinct. The pool is kept
/// sorted by `(to, msg)` (see [`State::add_inflight`]) so the `Vec`
/// is a canonical multiset representation, and the interner can store
/// it as it is.
#[derive(Debug, Clone)]
pub struct InFlight {
    pub to: ObjId,
    pub msg: MessageVal,
    /// Global send sequence number (for event correlation only; never
    /// used to order delivery).
    pub seq: u64,
    /// The task that sent it.
    pub from: TaskId,
}

impl PartialEq for InFlight {
    fn eq(&self, other: &Self) -> bool {
        self.to == other.to && self.msg == other.msg
    }
}
impl Eq for InFlight {}
impl std::hash::Hash for InFlight {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.to.hash(state);
        self.msg.hash(state);
    }
}

/// Program output as a token list: `PRINT` contributes `value + " "`,
/// `PRINTLN` contributes `value + "\n"`.
///
/// The paper's figures are loose about separators ("hello " with an
/// embedded space in Figure 3, bare "hello" in Figure 5, both shown as
/// `hello world`), so comparisons use [`Output::normalized`], which
/// collapses whitespace runs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Output {
    pub tokens: Vec<String>,
}

impl Output {
    pub fn print(&mut self, value: &Value) {
        self.tokens.push(format!("{value} "));
    }

    pub fn println(&mut self, value: &Value) {
        self.tokens.push(format!("{value}\n"));
    }

    /// Raw concatenation of the output tokens.
    pub fn render(&self) -> String {
        self.tokens.concat()
    }

    /// Whitespace-normalized form used to compare against the paper's
    /// expected outputs: runs of whitespace collapse to single spaces
    /// and the ends are trimmed.
    pub fn normalized(&self) -> String {
        self.render().split_whitespace().collect::<Vec<_>>().join(" ")
    }
}

/// The complete interpreter state. Every component is shared
/// copy-on-write (see the module docs): read through the handles,
/// write through the `_mut` accessors or [`Arc::make_mut`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    pub globals: Arc<BTreeMap<String, Value>>,
    /// The heap, indexed by [`ObjId`]; each object is shared on its
    /// own, so writing one field copies one object.
    pub objects: Arc<Vec<Arc<Object>>>,
    /// Task records, indexed by [`TaskId`].
    pub tasks: Vec<Arc<Task>>,
    /// Cell → owning task. A task may lock the same cell from several
    /// `EXC_ACC` entries (dynamic nesting); the count tracks re-entry.
    pub locks: Arc<BTreeMap<Cell, (TaskId, u32)>>,
    pub inflight: Arc<Vec<InFlight>>,
    pub output: Arc<Output>,
    /// Monotone counter for message sequence numbers.
    pub next_seq: u64,
    /// Total atomic steps taken (for limits).
    pub steps: u64,
    /// Dead-lettered messages (delivered to a receiver with no
    /// matching arm).
    pub dead_letters: Arc<Vec<InFlight>>,
}

impl State {
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0]
    }

    /// The task's record for writing: copied first while another
    /// state or the interner still shares it.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        Arc::make_mut(&mut self.tasks[id.0])
    }

    pub fn object(&self, id: ObjId) -> &Object {
        &self.objects[id.0]
    }

    /// The object for writing: the heap's handle vector and then the
    /// object are each copied first while shared.
    pub fn object_mut(&mut self, id: ObjId) -> &mut Object {
        Arc::make_mut(&mut Arc::make_mut(&mut self.objects)[id.0])
    }

    /// Find a task by its display label.
    pub fn task_by_label(&self, label: &str) -> Option<&Task> {
        self.tasks.iter().find(|t| t.label == label).map(|t| &**t)
    }

    /// Whether every cell in `cells` is free or already owned by
    /// `task`.
    pub fn can_acquire(&self, task: TaskId, cells: &[Cell]) -> bool {
        cells.iter().all(|cell| match self.locks.get(cell) {
            None => true,
            Some((owner, _)) => *owner == task,
        })
    }

    /// Acquire all `cells` for `task` (caller must have checked
    /// [`State::can_acquire`]).
    pub fn acquire(&mut self, task: TaskId, cells: &[Cell]) {
        let locks = Arc::make_mut(&mut self.locks);
        for cell in cells {
            let entry = locks.entry(cell.clone()).or_insert((task, 0));
            debug_assert_eq!(entry.0, task);
            entry.1 += 1;
        }
    }

    /// Release one hold on each of `cells`.
    pub fn release(&mut self, task: TaskId, cells: &[Cell]) {
        let locks = Arc::make_mut(&mut self.locks);
        for cell in cells {
            let Some(entry) = locks.get_mut(cell) else {
                debug_assert!(false, "releasing unheld cell {cell}");
                continue;
            };
            debug_assert_eq!(entry.0, task);
            entry.1 -= 1;
            if entry.1 == 0 {
                locks.remove(cell);
            }
        }
    }

    /// Insert a message into the in-flight pool at its canonical
    /// (sorted) position, so pools holding the same multiset compare
    /// and hash equal regardless of send order. The order is
    /// `(to, msg)`, and `MessageVal`'s `Ord` is `(name, args)`: the
    /// order the interner checks for.
    pub fn add_inflight(&mut self, message: InFlight) {
        let pos = self.inflight.partition_point(|m| (m.to, &m.msg) <= (message.to, &message.msg));
        Arc::make_mut(&mut self.inflight).insert(pos, message);
    }

    /// Indices of in-flight messages addressed to `obj`, deduplicated
    /// by content: delivering either of two identical messages leads
    /// to the same successor state, so only one index per distinct
    /// message is returned.
    pub fn inflight_for_distinct(&self, obj: ObjId) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::new();
        for (i, m) in self.inflight.iter().enumerate() {
            if m.to != obj {
                continue;
            }
            let duplicate = out.iter().any(|&j| self.inflight[j] == *m);
            if !duplicate {
                out.push(i);
            }
        }
        out
    }

    /// Indices of in-flight messages addressed to `obj`.
    pub fn inflight_for(&self, obj: ObjId) -> Vec<usize> {
        self.inflight.iter().enumerate().filter_map(|(i, m)| (m.to == obj).then_some(i)).collect()
    }

    /// All tasks finished?
    pub fn all_done(&self) -> bool {
        self.tasks.iter().all(|t| t.status == TaskStatus::Done)
    }

    /// Quiescent: every task is either done, or a detached receiver
    /// parked at a `Receive` with nothing deliverable. This is the
    /// normal end state of message-passing programs whose receivers
    /// loop forever (Figure 5).
    pub fn quiescent(&self) -> bool {
        self.tasks.iter().all(|t| match &t.status {
            TaskStatus::Done => true,
            TaskStatus::Blocked(BlockReason::Receive) => {
                t.detached
                    && t.top_frame()
                        .and_then(|f| f.self_obj)
                        .map(|obj| self.inflight_for(obj).is_empty())
                        .unwrap_or(false)
            }
            _ => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_token_semantics() {
        let mut out = Output::default();
        out.print(&Value::Str("hello".into()));
        out.println(&Value::Str("world".into()));
        assert_eq!(out.render(), "hello world\n");
        assert_eq!(out.normalized(), "hello world");
    }

    #[test]
    fn output_normalization_collapses_figure3_spacing() {
        // Figure 3 prints "hello " and "world " (embedded spaces).
        let mut out = Output::default();
        out.print(&Value::Str("hello ".into()));
        out.print(&Value::Str("world ".into()));
        assert_eq!(out.normalized(), "hello world");
    }

    #[test]
    fn lock_reentry_counts() {
        let mut state = State {
            globals: Arc::default(),
            objects: Arc::default(),
            tasks: vec![],
            locks: Arc::default(),
            inflight: Arc::default(),
            output: Arc::default(),
            next_seq: 0,
            steps: 0,
            dead_letters: Arc::default(),
        };
        let t = TaskId(0);
        let cells = vec![Cell::Global("x".into())];
        assert!(state.can_acquire(t, &cells));
        state.acquire(t, &cells);
        // Re-entrant acquisition by the same task is allowed.
        assert!(state.can_acquire(t, &cells));
        state.acquire(t, &cells);
        // A different task conflicts.
        assert!(!state.can_acquire(TaskId(1), &cells));
        state.release(t, &cells);
        assert!(!state.can_acquire(TaskId(1), &cells));
        state.release(t, &cells);
        assert!(state.can_acquire(TaskId(1), &cells));
    }
}
