//! Execution events and the pattern language used to ask Test-1-style
//! questions ("could this scenario happen next?").

use crate::state::{Cell, State, Task, TaskId};
use crate::value::{MessageVal, ObjId, Value};

/// The parts of a state that [`EventPattern`]s and [`StateCond`]s read:
/// a task by id, a task by label, a global. [`State`] implements it
/// directly; the graph store implements it over a node's interned
/// parts, borrowed in place, so a query reads a label or a counter
/// without rebuilding the state.
pub trait StateView {
    /// The task at index `id`, if there is one.
    fn task_at(&self, id: TaskId) -> Option<&Task>;
    /// The first task carrying this display label.
    fn labelled(&self, label: &str) -> Option<&Task>;
    /// The current value of a global variable.
    fn global(&self, name: &str) -> Option<&Value>;
}

impl StateView for State {
    fn task_at(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.0).map(|t| &**t)
    }

    fn labelled(&self, label: &str) -> Option<&Task> {
        self.task_by_label(label)
    }

    fn global(&self, name: &str) -> Option<&Value> {
        self.globals.get(name)
    }
}

/// One observable event, emitted by an atomic step.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// A task was created (`PARA` arm, receiver start, `SPAWN`).
    Spawned { task: TaskId, label: String },
    /// A task ran to completion.
    Finished { task: TaskId },
    /// Entered a function or method (qualified name).
    Called { task: TaskId, func: String },
    /// Returned from a function or method.
    Returned { task: TaskId, func: String },
    /// Acquired an `EXC_ACC` footprint.
    Acquired { task: TaskId, cells: Vec<Cell> },
    /// Tried to enter an `EXC_ACC` block (or re-acquire after a
    /// wake-up) and blocked.
    BlockedOnLocks { task: TaskId, cells: Vec<Cell> },
    /// Released an `EXC_ACC` footprint at `END_EXC_ACC`.
    Released { task: TaskId, cells: Vec<Cell> },
    /// Started waiting (released footprint inside `WAIT()`).
    WaitStart { task: TaskId },
    /// Woken by a `NOTIFY()` (still has to re-acquire).
    Woken { task: TaskId },
    /// Finished re-acquiring after a wake-up; execution continues after
    /// the `WAIT()`.
    WaitFinished { task: TaskId },
    /// Executed `NOTIFY()`, waking `woken` tasks.
    Notified { task: TaskId, woken: usize },
    /// `Send(msg).To(obj)` executed (asynchronous: this only puts the
    /// message in flight).
    Sent { task: TaskId, to: ObjId, msg: MessageVal, seq: u64 },
    /// A receiver accepted an in-flight message.
    Received { task: TaskId, to: ObjId, msg: MessageVal, seq: u64 },
    /// A message was delivered to a receiver with no matching arm.
    DeadLettered { task: TaskId, to: ObjId, msg: MessageVal, seq: u64 },
    /// `PRINT`/`PRINTLN` output.
    Printed { task: TaskId, text: String },
    /// A `PARA` block finished joining.
    Joined { task: TaskId },
}

impl Event {
    /// The acting task.
    pub fn task(&self) -> TaskId {
        match self {
            Event::Spawned { task, .. }
            | Event::Finished { task }
            | Event::Called { task, .. }
            | Event::Returned { task, .. }
            | Event::Acquired { task, .. }
            | Event::BlockedOnLocks { task, .. }
            | Event::Released { task, .. }
            | Event::WaitStart { task }
            | Event::Woken { task }
            | Event::WaitFinished { task }
            | Event::Notified { task, .. }
            | Event::Sent { task, .. }
            | Event::Received { task, .. }
            | Event::DeadLettered { task, .. }
            | Event::Printed { task, .. }
            | Event::Joined { task } => *task,
        }
    }
}

impl Event {
    /// Human-readable one-liner, resolving task ids to labels via
    /// `state` (any state of the same run).
    pub fn describe(&self, state: &State) -> String {
        let who = |t: &TaskId| state.task(*t).label.clone();
        match self {
            Event::Spawned { task, label } => format!("{} spawned as task{}", label, task.0),
            Event::Finished { task } => format!("{} finished", who(task)),
            Event::Called { task, func } => format!("{} called {func}()", who(task)),
            Event::Returned { task, func } => format!("{} returned from {func}()", who(task)),
            Event::Acquired { task, cells } => {
                format!("{} acquired EXC_ACC over {}", who(task), render_cells(cells))
            }
            Event::BlockedOnLocks { task, cells } => {
                format!("{} blocked on EXC_ACC over {}", who(task), render_cells(cells))
            }
            Event::Released { task, cells } => {
                format!("{} released {}", who(task), render_cells(cells))
            }
            Event::WaitStart { task } => format!("{} started WAIT()", who(task)),
            Event::Woken { task } => format!("{} woken by NOTIFY()", who(task)),
            Event::WaitFinished { task } => format!("{} finished WAIT()", who(task)),
            Event::Notified { task, woken } => {
                format!("{} executed NOTIFY(), waking {woken}", who(task))
            }
            Event::Sent { task, to, msg, .. } => {
                format!("{} sent {msg} to {to}", who(task))
            }
            Event::Received { task, msg, .. } => format!("{} received {msg}", who(task)),
            Event::DeadLettered { task, msg, .. } => {
                format!("{} dead-lettered {msg}", who(task))
            }
            Event::Printed { task, text } => format!("{} printed {text:?}", who(task)),
            Event::Joined { task } => format!("{} joined its PARA tasks", who(task)),
        }
    }
}

fn render_cells(cells: &[Cell]) -> String {
    let names: Vec<String> = cells.iter().map(Cell::to_string).collect();
    format!("{{{}}}", names.join(", "))
}

/// A pattern over a single [`Event`], optionally constrained to a task
/// (matched by task *label*, so questions read like the paper:
/// "redCarB returns from the redEnter() method").
#[derive(Debug, Clone, PartialEq)]
pub struct EventPattern {
    /// Task label the event must belong to (`None` = any task).
    pub task_label: Option<String>,
    pub kind: EventKindPattern,
}

/// What the event must be.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKindPattern {
    Called {
        func: String,
    },
    Returned {
        func: String,
    },
    /// Blocked trying to enter any `EXC_ACC` (the paper's "blocks on
    /// the EXC_ACC marker").
    BlockedOnLocks,
    Acquired,
    WaitStart,
    /// Finished re-acquiring after a wake-up (the `WAIT()` call
    /// completed).
    WaitFinished,
    Notified,
    /// Sent a message with this name (payload unconstrained unless
    /// `args` is `Some`).
    Sent {
        msg_name: String,
        args: Option<Vec<Value>>,
    },
    /// Received a message with this name (and payload, when given —
    /// Figure 7's "receives MESSAGE.succeedExit(2)").
    Received {
        msg_name: String,
        args: Option<Vec<Value>>,
    },
    Printed {
        text: String,
    },
    /// Released an `EXC_ACC` footprint (at `END_EXC_ACC` or on the
    /// return path when a function exits while holding).
    Released,
    Finished,
}

impl EventPattern {
    pub fn by(task_label: impl Into<String>, kind: EventKindPattern) -> Self {
        EventPattern { task_label: Some(task_label.into()), kind }
    }

    pub fn any(kind: EventKindPattern) -> Self {
        EventPattern { task_label: None, kind }
    }

    /// Does `event` match this pattern? A task label resolves against
    /// `state`: the state the event led to (for a stored edge, its
    /// target node). The kind is checked first, so most events are
    /// rejected without resolving a label.
    pub fn matches(&self, event: &Event, state: &impl StateView) -> bool {
        let kind = match (&self.kind, event) {
            (EventKindPattern::Called { func }, Event::Called { func: f, .. }) => func == f,
            (EventKindPattern::Returned { func }, Event::Returned { func: f, .. }) => func == f,
            (EventKindPattern::BlockedOnLocks, Event::BlockedOnLocks { .. }) => true,
            (EventKindPattern::Acquired, Event::Acquired { .. }) => true,
            (EventKindPattern::WaitStart, Event::WaitStart { .. }) => true,
            (EventKindPattern::WaitFinished, Event::WaitFinished { .. }) => true,
            (EventKindPattern::Notified, Event::Notified { .. }) => true,
            (EventKindPattern::Sent { msg_name, args }, Event::Sent { msg, .. }) => {
                &msg.name == msg_name && args.as_ref().is_none_or(|a| a == &msg.args)
            }
            (EventKindPattern::Received { msg_name, args }, Event::Received { msg, .. }) => {
                &msg.name == msg_name && args.as_ref().is_none_or(|a| a == &msg.args)
            }
            (EventKindPattern::Printed { text }, Event::Printed { text: t, .. }) => text == t,
            (EventKindPattern::Released, Event::Released { .. }) => true,
            (EventKindPattern::Finished, Event::Finished { .. }) => true,
            _ => false,
        };
        kind && self
            .task_label
            .as_ref()
            .is_none_or(|label| state.task_at(event.task()).is_some_and(|t| &t.label == label))
    }
}

/// A predicate over a *state*, used to set up question scenarios
/// ("suppose redCarA has called redEnter() but has not returned").
#[derive(Debug, Clone, PartialEq)]
pub enum StateCond {
    /// The labelled task currently has a frame executing `func`
    /// (qualified name).
    InFunction { task_label: String, func: String },
    /// The labelled task has called `func` exactly `times` times so
    /// far.
    CalledTimes { task_label: String, func: String, times: u32 },
    /// The labelled task has returned from `func` exactly `times`
    /// times.
    ReturnedTimes { task_label: String, func: String, times: u32 },
    /// The labelled task has sent ≥1 message with this name.
    HasSent { task_label: String, msg_name: String },
    /// The labelled task has received exactly `times` messages (of any
    /// name).
    ReceivedTotal { task_label: String, times: u32 },
    /// A global variable currently equals `value`.
    GlobalEquals { name: String, value: Value },
    /// The labelled task exists (has been spawned).
    TaskExists { task_label: String },
    /// The labelled task currently holds at least one `EXC_ACC`
    /// footprint.
    HoldsLock { task_label: String },
}

impl StateCond {
    /// Evaluate against a state (`funcs` gives qualified names).
    pub fn holds(&self, state: &impl StateView, funcs: &[crate::program::FuncInfo]) -> bool {
        let task = |label: &str| state.labelled(label);
        match self {
            StateCond::InFunction { task_label, func } => {
                task(task_label).is_some_and(|t| t.in_function(func, funcs))
            }
            StateCond::CalledTimes { task_label, func, times } => {
                task(task_label).is_some_and(|t| t.calls.get(func).copied().unwrap_or(0) == *times)
            }
            StateCond::ReturnedTimes { task_label, func, times } => task(task_label)
                .is_some_and(|t| t.returns.get(func).copied().unwrap_or(0) == *times),
            StateCond::HasSent { task_label, msg_name } => {
                task(task_label).is_some_and(|t| t.sent.get(msg_name).copied().unwrap_or(0) >= 1)
            }
            StateCond::ReceivedTotal { task_label, times } => {
                task(task_label).is_some_and(|t| t.received.values().sum::<u32>() == *times)
            }
            StateCond::GlobalEquals { name, value } => state.global(name) == Some(value),
            StateCond::TaskExists { task_label } => task(task_label).is_some(),
            StateCond::HoldsLock { task_label } => {
                task(task_label).is_some_and(|t| !t.held.is_empty())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_field_matching() {
        // Smoke-test the arm dispatch with a synthetic event and a
        // minimal state.
        let state = crate::interp::tests_support::empty_state_with_task("redCarB.run()");
        let event = Event::Called { task: TaskId(0), func: "redEnter".into() };
        assert!(EventPattern::by(
            "redCarB.run()",
            EventKindPattern::Called { func: "redEnter".into() }
        )
        .matches(&event, &state));
        assert!(!EventPattern::by(
            "redCarA.run()",
            EventKindPattern::Called { func: "redEnter".into() }
        )
        .matches(&event, &state));
        assert!(!EventPattern::any(EventKindPattern::Returned { func: "redEnter".into() })
            .matches(&event, &state));
    }

    #[test]
    fn message_payload_constraints() {
        let state = crate::interp::tests_support::empty_state_with_task("car");
        let event = Event::Received {
            task: TaskId(0),
            to: ObjId(0),
            msg: MessageVal { name: "succeedExit".into(), args: vec![Value::Int(2)] },
            seq: 7,
        };
        let any_payload = EventPattern::any(EventKindPattern::Received {
            msg_name: "succeedExit".into(),
            args: None,
        });
        let right_payload = EventPattern::any(EventKindPattern::Received {
            msg_name: "succeedExit".into(),
            args: Some(vec![Value::Int(2)]),
        });
        let wrong_payload = EventPattern::any(EventKindPattern::Received {
            msg_name: "succeedExit".into(),
            args: Some(vec![Value::Int(3)]),
        });
        assert!(any_payload.matches(&event, &state));
        assert!(right_payload.matches(&event, &state));
        assert!(!wrong_payload.matches(&event, &state));
    }
}
