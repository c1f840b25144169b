//! The small-step interpreter.
//!
//! One [`Choice`] = one atomic step. The interpreter itself makes *no*
//! scheduling decisions: [`Interp::choices`] enumerates every enabled
//! transition of a state and [`Interp::apply`] executes one of them.
//! Schedulers (random, round-robin, replay) and the exhaustive model
//! checker are thin drivers on top of this pair — which guarantees the
//! random runner and the explorer agree on the semantics.

use crate::event::Event;
use crate::footprint::CellRef;
use crate::program::{ArmInfo, CalleeRef, Compiled, Instr};
use crate::state::*;
use crate::value::{MessageVal, ObjId, RuntimeError, Value};
use concur_pseudocode::analysis::FootRef;
use concur_pseudocode::ast::{BinOp, Expr, ExprKind, LValue, UnOp};
use concur_pseudocode::Span;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One enabled transition.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Choice {
    /// Run one atomic step of this task (it is runnable, or blocked on
    /// locks that are currently available).
    Step(TaskId),
    /// Deliver the in-flight message at this index to the task (which
    /// is parked at a `Receive`). Distinct indices are distinct
    /// choices — this is the paper's message-reordering
    /// nondeterminism.
    Receive { task: TaskId, inflight_index: usize },
}

/// How a run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every task ran to completion.
    AllDone,
    /// All non-detached tasks completed; detached receivers are parked
    /// with empty mailboxes (normal end of message-passing programs).
    Quiescent,
    /// No enabled transition, but some task is stuck (lock conflict,
    /// waiting with nobody to notify, or an un-joinable `PARA`).
    Deadlock,
    /// The step limit was reached (used for intentionally infinite
    /// programs).
    StepLimit,
}

/// The interpreter: compiled program + semantics. Stateless across
/// steps; all mutable data lives in [`State`].
pub struct Interp {
    pub compiled: Compiled,
    /// Per-code-unit static access summaries for partial-order
    /// reduction (computed once here; see [`crate::footprint`]).
    summaries: crate::footprint::Summaries,
    /// Program identity for the query cache ([`crate::session`]).
    /// [`Interp::from_source`] derives it from the source text, so two
    /// interpreters compiled from identical sources share cached state
    /// graphs; other constructors get a process-unique nonce, which
    /// can never alias another program.
    digest: u64,
}

/// High bit reserved for construction nonces so they can never collide
/// with a source-derived digest.
pub(crate) const NONCE_BIT: u64 = 1 << 63;

impl Interp {
    pub fn new(compiled: Compiled) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT_NONCE: AtomicU64 = AtomicU64::new(1);
        let summaries = crate::footprint::Summaries::compute(&compiled);
        let digest = NONCE_BIT | NEXT_NONCE.fetch_add(1, Ordering::Relaxed);
        Interp { compiled, summaries, digest }
    }

    /// Static access summaries, one per compiled code unit.
    pub fn summaries(&self) -> &crate::footprint::Summaries {
        &self.summaries
    }

    /// The program identity used as the query-cache key component.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Parse, compile and wrap a source program.
    pub fn from_source(source: &str) -> Result<Self, String> {
        let mut interp = Interp::new(crate::program::compile_source(source)?);
        interp.digest = crate::intern::fx_hash_of(&source) & !NONCE_BIT;
        Ok(interp)
    }

    /// The initial state: a single `main` task about to execute the
    /// top-level statements.
    pub fn initial_state(&self) -> State {
        let main = self.compiled.main;
        let mut state = State {
            globals: Arc::default(),
            objects: Arc::default(),
            tasks: Vec::new(),
            locks: Arc::default(),
            inflight: Arc::default(),
            output: Arc::default(),
            next_seq: 0,
            steps: 0,
            dead_letters: Arc::default(),
        };
        let frame = Frame {
            func: main,
            code: self.compiled.func(main).code,
            pc: 0,
            locals: BTreeMap::new(),
            self_obj: None,
            discard_return: false,
            main_scope: true,
            receive_saved: None,
        };
        state.tasks.push(Arc::new(Task {
            label: "main".into(),
            status: TaskStatus::Runnable,
            frames: vec![frame],
            held: Vec::new(),
            pending_reacquire: None,
            parent: None,
            sym: None,
            detached: false,
            calls: BTreeMap::new(),
            returns: BTreeMap::new(),
            sent: BTreeMap::new(),
            received: BTreeMap::new(),
        }));
        self.skid(&mut state, TaskId(0));
        self.settle(&mut state);
        state
    }

    /// Every enabled transition of `state`, in deterministic order.
    /// Each task's choices are contiguous, in ascending task order.
    pub fn choices(&self, state: &State) -> Vec<Choice> {
        let mut out = Vec::new();
        for (i, task) in state.tasks.iter().enumerate() {
            let tid = TaskId(i);
            match &task.status {
                TaskStatus::Runnable => {
                    if let Some(Instr::Receive { .. }) = self.current_instr(state, tid) {
                        if let Some(obj) = task.top_frame().and_then(|f| f.self_obj) {
                            for idx in state.inflight_for_distinct(obj) {
                                out.push(Choice::Receive { task: tid, inflight_index: idx });
                            }
                        }
                    } else {
                        out.push(Choice::Step(tid));
                    }
                }
                TaskStatus::Blocked(BlockReason::Locks(cells)) => {
                    if state.can_acquire(tid, cells) {
                        out.push(Choice::Step(tid));
                    }
                }
                TaskStatus::Blocked(BlockReason::Reacquire) => {
                    let cells =
                        task.pending_reacquire.as_ref().map(|h| h.cells.as_slice()).unwrap_or(&[]);
                    if state.can_acquire(tid, cells) {
                        out.push(Choice::Step(tid));
                    }
                }
                TaskStatus::Blocked(BlockReason::Receive) => {
                    if let Some(obj) = task.top_frame().and_then(|f| f.self_obj) {
                        for idx in state.inflight_for_distinct(obj) {
                            out.push(Choice::Receive { task: tid, inflight_index: idx });
                        }
                    }
                }
                TaskStatus::Blocked(BlockReason::AwaitCond) => {
                    if self.await_cond_holds(state, tid) {
                        out.push(Choice::Step(tid));
                    }
                }
                TaskStatus::Blocked(BlockReason::Waiting)
                | TaskStatus::Blocked(BlockReason::Join { .. })
                | TaskStatus::Done => {}
            }
        }
        out
    }

    /// Does the AWAIT condition a task is parked on currently hold?
    /// Conditions are call-free (enforced at validation), so this
    /// re-evaluation cannot mutate state. Evaluation faults count as
    /// "holds" so the subsequent step surfaces the runtime error.
    fn await_cond_holds(&self, state: &State, tid: TaskId) -> bool {
        let Some(Instr::Await { cond, .. }) = self.current_instr(state, tid) else {
            return true;
        };
        match self.eval(state, tid, cond).map(|v| v.as_bool()) {
            Ok(Ok(b)) => b,
            Ok(Err(_)) | Err(_) => true,
        }
    }

    /// Classify a state with no enabled transitions.
    pub fn classify_stuck(&self, state: &State) -> Outcome {
        if state.all_done() {
            Outcome::AllDone
        } else if state.quiescent() {
            Outcome::Quiescent
        } else {
            Outcome::Deadlock
        }
    }

    /// Execute one transition, returning the events it emitted.
    pub fn apply(&self, state: &mut State, choice: &Choice) -> Result<Vec<Event>, RuntimeError> {
        state.steps += 1;
        let mut events = Vec::new();
        match choice {
            Choice::Step(task) => self.step_task(state, *task, &mut events)?,
            Choice::Receive { task, inflight_index } => {
                self.deliver(state, *task, *inflight_index, &mut events)?
            }
        }
        self.settle(state);
        Ok(events)
    }

    // --- stepping ---------------------------------------------------------

    pub(crate) fn current_instr<'a>(&'a self, state: &State, task: TaskId) -> Option<&'a Instr> {
        let frame = state.task(task).top_frame()?;
        self.compiled.code(frame.code).get(frame.pc)
    }

    fn step_task(
        &self,
        state: &mut State,
        tid: TaskId,
        events: &mut Vec<Event>,
    ) -> Result<(), RuntimeError> {
        // Blocked-but-enabled cases first: lock acquisition.
        match state.task(tid).status.clone() {
            TaskStatus::Blocked(BlockReason::Locks(cells)) => {
                debug_assert!(state.can_acquire(tid, &cells));
                state.acquire(tid, &cells);
                let depth = state.task(tid).frames.len();
                let task = state.task_mut(tid);
                task.held.push(HeldSet { cells: cells.clone(), frame_depth: depth });
                task.status = TaskStatus::Runnable;
                events.push(Event::Acquired { task: tid, cells });
                self.advance(state, tid);
                return Ok(());
            }
            TaskStatus::Blocked(BlockReason::Reacquire) => {
                let held = state
                    .task_mut(tid)
                    .pending_reacquire
                    .take()
                    .expect("Reacquire status implies a pending set");
                debug_assert!(state.can_acquire(tid, &held.cells));
                state.acquire(tid, &held.cells);
                let task = state.task_mut(tid);
                task.held.push(held);
                task.status = TaskStatus::Runnable;
                events.push(Event::WaitFinished { task: tid });
                self.advance(state, tid);
                return Ok(());
            }
            TaskStatus::Blocked(BlockReason::AwaitCond) => {
                let (cond, span) = match self.current_instr(state, tid) {
                    Some(Instr::Await { cond, span }) => (cond, *span),
                    other => {
                        return Err(RuntimeError::new(
                            format!("AwaitCond-blocked task not at an AWAIT: {other:?}"),
                            Span::SYNTH,
                        ));
                    }
                };
                let v = self.eval(state, tid, cond)?;
                let b = v.as_bool().map_err(|m| RuntimeError::new(m, span))?;
                // Enabled only when the condition holds; a stale pick
                // (e.g. from an arbitrary replay vector) leaves the
                // task parked rather than resuming it spuriously.
                if b {
                    state.task_mut(tid).status = TaskStatus::Runnable;
                    self.advance(state, tid);
                }
                return Ok(());
            }
            TaskStatus::Runnable => {}
            other => {
                debug_assert!(false, "stepping a non-enabled task: {other:?}");
                return Ok(());
            }
        }

        let Some(frame) = state.task(tid).top_frame() else {
            return Ok(());
        };
        // The instruction is borrowed from the program, not the state,
        // so the state stays free to change while it executes.
        let code = self.compiled.code(frame.code);
        let Some(instr) = code.get(frame.pc) else {
            // Fell off the end of the body: implicit RETURN.
            return self.do_return(state, tid, Value::Unit, events);
        };

        match instr {
            Instr::Assign { target, value, span } => {
                let value = self.eval(state, tid, value)?;
                self.write_lvalue(state, tid, target, value, *span)?;
                self.advance(state, tid);
            }
            Instr::CallAssign { target: _, callee, args, span } => {
                self.do_call(state, tid, callee, args, *span, CallMode::Normal, events)?;
            }
            Instr::New { target, class, args, span } => {
                self.do_new(state, tid, target.as_ref(), class, args, *span, events)?;
            }
            Instr::Jump { target } => {
                // Normally skidded over; safe to execute directly.
                state.task_mut(tid).frames.last_mut().expect("frame exists").pc = *target;
                self.skid(state, tid);
            }
            Instr::ArmEnd { .. } => {
                // Always consumed by skid(); nothing to do here.
                self.skid(state, tid);
            }
            Instr::JumpIfFalse { cond, target, span } => {
                let v = self.eval(state, tid, cond)?;
                let b = v.as_bool().map_err(|m| RuntimeError::new(m, *span))?;
                let frame = state.task_mut(tid).frames.last_mut().expect("frame exists");
                frame.pc = if b { frame.pc + 1 } else { *target };
                self.skid(state, tid);
            }
            Instr::Print { value, newline, span: _ } => {
                let v = self.eval(state, tid, value)?;
                let output = Arc::make_mut(&mut state.output);
                if *newline {
                    output.println(&v);
                } else {
                    output.print(&v);
                }
                events.push(Event::Printed { task: tid, text: v.to_string() });
                self.advance(state, tid);
            }
            Instr::Para { tasks, symmetric, span: _ } => {
                if tasks.is_empty() {
                    self.advance(state, tid);
                } else {
                    let n = tasks.len();
                    for (code_id, label) in tasks {
                        let parent_frame = state.task(tid).top_frame().expect("frame exists");
                        let frame = Frame {
                            // Para task units get their own FuncInfo at
                            // the end of the func table? They share the
                            // spawner's func for naming purposes.
                            func: parent_frame.func,
                            code: *code_id,
                            pc: 0,
                            locals: parent_frame.locals.clone(),
                            self_obj: parent_frame.self_obj,
                            discard_return: false,
                            main_scope: parent_frame.main_scope,
                            receive_saved: None,
                        };
                        let sym = symmetric.then_some(code_id.0 as u32);
                        let child = self.spawn(state, frame, label.clone(), Some(tid), false, sym);
                        events.push(Event::Spawned { task: child, label: label.clone() });
                    }
                    state.task_mut(tid).status =
                        TaskStatus::Blocked(BlockReason::Join { remaining: n });
                }
            }
            Instr::ExcEnter { footprint, span } => {
                let cells: Vec<Cell> = self
                    .resolve_footprint(state, tid, footprint, *span)?
                    .into_iter()
                    .map(CellRef::to_cell)
                    .collect();
                if state.can_acquire(tid, &cells) {
                    state.acquire(tid, &cells);
                    let depth = state.task(tid).frames.len();
                    state
                        .task_mut(tid)
                        .held
                        .push(HeldSet { cells: cells.clone(), frame_depth: depth });
                    events.push(Event::Acquired { task: tid, cells });
                    self.advance(state, tid);
                } else {
                    events.push(Event::BlockedOnLocks { task: tid, cells: cells.clone() });
                    state.task_mut(tid).status = TaskStatus::Blocked(BlockReason::Locks(cells));
                }
            }
            Instr::ExcExit { span } => {
                let held = state.task_mut(tid).held.pop().ok_or_else(|| {
                    RuntimeError::new("END_EXC_ACC with no held footprint", *span)
                })?;
                state.release(tid, &held.cells);
                events.push(Event::Released { task: tid, cells: held.cells });
                self.advance(state, tid);
            }
            Instr::Wait { span } => {
                let held = state.task_mut(tid).held.pop().ok_or_else(|| {
                    RuntimeError::new("WAIT() outside of an EXC_ACC block", *span)
                })?;
                state.release(tid, &held.cells);
                let task = state.task_mut(tid);
                task.pending_reacquire = Some(held);
                task.status = TaskStatus::Blocked(BlockReason::Waiting);
                events.push(Event::WaitStart { task: tid });
                // pc stays at WAIT; the Reacquire path advances past it.
            }
            Instr::Notify { span: _ } => {
                let mut woken = 0;
                for other in (0..state.tasks.len()).map(TaskId) {
                    if state.task(other).status == TaskStatus::Blocked(BlockReason::Waiting) {
                        state.task_mut(other).status = TaskStatus::Blocked(BlockReason::Reacquire);
                        events.push(Event::Woken { task: other });
                        woken += 1;
                    }
                }
                events.push(Event::Notified { task: tid, woken });
                self.advance(state, tid);
            }
            Instr::Await { cond, span } => {
                let v = self.eval(state, tid, cond)?;
                let b = v.as_bool().map_err(|m| RuntimeError::new(m, *span))?;
                if b {
                    self.advance(state, tid);
                } else {
                    // pc stays at AWAIT; the AwaitCond resume path
                    // advances past it once the condition holds.
                    state.task_mut(tid).status = TaskStatus::Blocked(BlockReason::AwaitCond);
                }
            }
            Instr::Send { msg, to, span } => {
                let msg_val = match self.eval(state, tid, msg)? {
                    Value::Message(m) => m,
                    other => {
                        return Err(RuntimeError::new(
                            format!("Send expects a MESSAGE value, found {}", other.type_name()),
                            *span,
                        ));
                    }
                };
                let to_obj = match self.eval(state, tid, to)? {
                    Value::Obj(o) => o,
                    other => {
                        return Err(RuntimeError::new(
                            format!("Send target must be an object, found {}", other.type_name()),
                            *span,
                        ));
                    }
                };
                let seq = state.next_seq;
                state.next_seq += 1;
                state.add_inflight(InFlight { to: to_obj, msg: msg_val.clone(), seq, from: tid });
                *state.task_mut(tid).sent.entry(msg_val.name.clone()).or_insert(0) += 1;
                events.push(Event::Sent { task: tid, to: to_obj, msg: msg_val, seq });
                self.advance(state, tid);
            }
            Instr::Receive { .. } => {
                // Reached only via settle racing; nothing to do — the
                // scheduler must pick a Receive choice.
            }
            Instr::Spawn { callee, args, span } => {
                self.do_call(state, tid, callee, args, *span, CallMode::Detached, events)?;
            }
            Instr::Return { value, span: _ } => {
                let v = match value {
                    Some(e) => self.eval(state, tid, e)?,
                    None => Value::Unit,
                };
                self.do_return(state, tid, v, events)?;
            }
        }
        Ok(())
    }

    /// Deliver in-flight message `idx` to `tid` (parked at a Receive).
    fn deliver(
        &self,
        state: &mut State,
        tid: TaskId,
        idx: usize,
        events: &mut Vec<Event>,
    ) -> Result<(), RuntimeError> {
        let Some(Instr::Receive { arms, span }) = self.current_instr(state, tid) else {
            return Err(RuntimeError::new(
                "message delivered to a task not at a receive point",
                Span::SYNTH,
            ));
        };
        let inflight = Arc::make_mut(&mut state.inflight).remove(idx);
        let task = state.task_mut(tid);
        *task.received.entry(inflight.msg.name.clone()).or_insert(0) += 1;
        task.status = TaskStatus::Runnable;

        match arms.iter().find(|a| a.msg_name == inflight.msg.name) {
            Some(ArmInfo { params, target, .. }) => {
                if params.len() != inflight.msg.args.len() {
                    return Err(RuntimeError::new(
                        format!(
                            "MESSAGE.{} carries {} value(s) but the receive arm binds {}",
                            inflight.msg.name,
                            inflight.msg.args.len(),
                            params.len()
                        ),
                        *span,
                    ));
                }
                let frame = state.task_mut(tid).frames.last_mut().expect("frame exists");
                // Snapshot the function-level locals the first time
                // this receive point is reached, so arm-end can
                // restore them (arm bindings are message-scoped).
                let receive_pc = frame.pc;
                let stale =
                    frame.receive_saved.as_ref().map(|(pc, _)| *pc != receive_pc).unwrap_or(true);
                if stale {
                    frame.receive_saved = Some((receive_pc, frame.locals.clone()));
                }
                for (p, v) in params.iter().zip(&inflight.msg.args) {
                    frame.locals.insert(p.clone(), v.clone());
                }
                frame.pc = *target;
                events.push(Event::Received {
                    task: tid,
                    to: inflight.to,
                    msg: inflight.msg.clone(),
                    seq: inflight.seq,
                });
                self.skid(state, tid);
            }
            None => {
                events.push(Event::DeadLettered {
                    task: tid,
                    to: inflight.to,
                    msg: inflight.msg.clone(),
                    seq: inflight.seq,
                });
                Arc::make_mut(&mut state.dead_letters).push(inflight);
                // Stay at the Receive instruction for the next message.
            }
        }
        Ok(())
    }

    // --- calls, spawns, returns -------------------------------------------

    #[allow(clippy::too_many_arguments)] // mirrors the instruction's fields
    fn do_call(
        &self,
        state: &mut State,
        tid: TaskId,
        callee: &CalleeRef,
        args: &[Expr],
        span: Span,
        mode: CallMode,
        events: &mut Vec<Event>,
    ) -> Result<(), RuntimeError> {
        let arg_vals: Vec<Value> =
            args.iter().map(|a| self.eval(state, tid, a)).collect::<Result<_, _>>()?;

        let (func_id, self_obj) = match callee {
            CalleeRef::Name(name) => {
                // Sibling method of the current receiver first.
                let current_self = state.task(tid).top_frame().and_then(|f| f.self_obj);
                let sibling = current_self.and_then(|obj| {
                    let class = &state.object(obj).class;
                    self.compiled.method(class, name).map(|id| (id, Some(obj)))
                });
                match sibling.or_else(|| self.compiled.toplevel(name).map(|id| (id, None))) {
                    Some(found) => found,
                    None => {
                        // Builtin: atomic, no frame.
                        let result = apply_builtin(name, &arg_vals, span)?;
                        return match mode {
                            CallMode::Normal => {
                                self.complete_pending_call(state, tid, result)?;
                                Ok(())
                            }
                            CallMode::Detached => Err(RuntimeError::new(
                                format!("SPAWN target `{name}` is not a function"),
                                span,
                            )),
                        };
                    }
                }
            }
            CalleeRef::Method(base, method) => {
                let obj = match self.eval(state, tid, base)? {
                    Value::Obj(o) => o,
                    other => {
                        return Err(RuntimeError::new(
                            format!(
                                "method call target must be an object, found {}",
                                other.type_name()
                            ),
                            span,
                        ));
                    }
                };
                let class = &state.object(obj).class;
                let id = self.compiled.method(class, method).ok_or_else(|| {
                    RuntimeError::new(format!("class `{class}` has no method `{method}`"), span)
                })?;
                (id, Some(obj))
            }
        };

        let info = self.compiled.func(func_id);
        if info.params.len() != arg_vals.len() {
            return Err(RuntimeError::new(
                format!(
                    "`{}` expects {} argument(s), got {}",
                    info.qualified,
                    info.params.len(),
                    arg_vals.len()
                ),
                span,
            ));
        }
        let locals: BTreeMap<String, Value> = info.params.iter().cloned().zip(arg_vals).collect();
        let frame = Frame {
            func: func_id,
            code: info.code,
            pc: 0,
            locals,
            self_obj,
            discard_return: false,
            main_scope: false,
            receive_saved: None,
        };

        // A call to a receiver method (a method containing
        // ON_RECEIVING) starts the object as a detached concurrent
        // task — this is what makes Figure 5's `r1.receive()` return
        // immediately so the subsequent sends can happen.
        let detach = matches!(mode, CallMode::Detached) || info.is_receiver;
        if detach {
            let label = match callee {
                CalleeRef::Method(base, method) => match &base.kind {
                    ExprKind::Name(var) => format!("{var}.{method}"),
                    _ => {
                        format!("{}.{method}", self_obj.map(|o| o.to_string()).unwrap_or_default())
                    }
                },
                CalleeRef::Name(name) => name.clone(),
            };
            let qualified = info.qualified.clone();
            let child = self.spawn(state, frame, label.clone(), None, true, None);
            events.push(Event::Spawned { task: child, label });
            *state.task_mut(child).calls.entry(qualified.clone()).or_insert(0) += 1;
            events.push(Event::Called { task: child, func: qualified });
            // The call "returns" Unit immediately in the caller.
            self.complete_pending_call(state, tid, Value::Unit)?;
        } else {
            let qualified = info.qualified.clone();
            state.task_mut(tid).frames.push(frame);
            *state.task_mut(tid).calls.entry(qualified.clone()).or_insert(0) += 1;
            events.push(Event::Called { task: tid, func: qualified });
            self.skid(state, tid);
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)] // mirrors the instruction's fields
    fn do_new(
        &self,
        state: &mut State,
        tid: TaskId,
        target: Option<&LValue>,
        class_name: &str,
        args: &[Expr],
        span: Span,
        events: &mut Vec<Event>,
    ) -> Result<(), RuntimeError> {
        let class = self
            .compiled
            .classes
            .get(class_name)
            .ok_or_else(|| RuntimeError::new(format!("unknown class `{class_name}`"), span))?;
        // Field initializers are call-free (validated); evaluate them
        // in a scope that only sees globals.
        let mut fields = BTreeMap::new();
        let obj = ObjId(state.objects.len());
        Arc::make_mut(&mut state.objects)
            .push(Arc::new(Object { class: class_name.to_string(), fields: BTreeMap::new() }));
        for (name, init) in &class.fields {
            let v = self.eval_in_scope(state, tid, init, EvalScope::GlobalsOnly)?;
            fields.insert(name.clone(), v);
        }
        state.object_mut(obj).fields = fields;

        if let Some(target) = target {
            self.write_lvalue(state, tid, target, Value::Obj(obj), span)?;
        }

        let arg_vals: Vec<Value> =
            args.iter().map(|a| self.eval(state, tid, a)).collect::<Result<_, _>>()?;
        match self.compiled.method(class_name, "init") {
            Some(init_id) => {
                let info = self.compiled.func(init_id);
                if info.params.len() != arg_vals.len() {
                    return Err(RuntimeError::new(
                        format!(
                            "`{class_name}.init` expects {} argument(s), got {}",
                            info.params.len(),
                            arg_vals.len()
                        ),
                        span,
                    ));
                }
                let locals: BTreeMap<String, Value> =
                    info.params.iter().cloned().zip(arg_vals).collect();
                let qualified = info.qualified.clone();
                state.task_mut(tid).frames.push(Frame {
                    func: init_id,
                    code: info.code,
                    pc: 0,
                    locals,
                    self_obj: Some(obj),
                    discard_return: true,
                    main_scope: false,
                    receive_saved: None,
                });
                *state.task_mut(tid).calls.entry(qualified.clone()).or_insert(0) += 1;
                events.push(Event::Called { task: tid, func: qualified });
                self.skid(state, tid);
            }
            None if !arg_vals.is_empty() => {
                return Err(RuntimeError::new(
                    format!(
                        "class `{class_name}` has no init method but `new` was given {} argument(s)",
                        arg_vals.len()
                    ),
                    span,
                ));
            }
            None => self.advance(state, tid),
        }
        Ok(())
    }

    fn do_return(
        &self,
        state: &mut State,
        tid: TaskId,
        value: Value,
        events: &mut Vec<Event>,
    ) -> Result<(), RuntimeError> {
        let popped = state.task_mut(tid).frames.pop().expect("returning task has a frame");
        let qualified = self.compiled.func(popped.func).qualified.clone();
        // Release any footprints this frame acquired and never exited
        // (RETURN from inside EXC_ACC).
        let depth_after = state.task(tid).frames.len() + 1;
        loop {
            let release = matches!(
                state.task(tid).held.last(),
                Some(h) if h.frame_depth >= depth_after
            );
            if !release {
                break;
            }
            let held = state.task_mut(tid).held.pop().expect("checked above");
            state.release(tid, &held.cells);
            events.push(Event::Released { task: tid, cells: held.cells });
        }
        // PARA task roots reuse the spawning function's id but execute
        // a synthesized code unit; their completion is a task finish,
        // not a function return.
        let synthetic_task_frame = popped.code != self.compiled.func(popped.func).code;
        if !synthetic_task_frame {
            *state.task_mut(tid).returns.entry(qualified.clone()).or_insert(0) += 1;
            events.push(Event::Returned { task: tid, func: qualified });
        }

        if state.task(tid).frames.is_empty() {
            self.finish_task(state, tid, events);
        } else if popped.discard_return {
            self.advance(state, tid);
        } else {
            self.complete_pending_call(state, tid, value)?;
        }
        Ok(())
    }

    /// Store `value` into the pending `CallAssign` target of the
    /// task's current instruction (if any) and advance past it.
    fn complete_pending_call(
        &self,
        state: &mut State,
        tid: TaskId,
        value: Value,
    ) -> Result<(), RuntimeError> {
        let frame = state.task(tid).top_frame().expect("caller frame exists");
        match &self.compiled.code(frame.code)[frame.pc] {
            Instr::CallAssign { target: Some(target), span, .. } => {
                self.write_lvalue(state, tid, target, value, *span)?;
            }
            Instr::CallAssign { target: None, .. } | Instr::Spawn { .. } => {}
            other => {
                return Err(RuntimeError::new(
                    format!("return completed a non-call instruction {other:?}"),
                    other.span(),
                ));
            }
        }
        self.advance(state, tid);
        Ok(())
    }

    fn spawn(
        &self,
        state: &mut State,
        frame: Frame,
        label: String,
        parent: Option<TaskId>,
        detached: bool,
        sym: Option<u32>,
    ) -> TaskId {
        let id = TaskId(state.tasks.len());
        state.tasks.push(Arc::new(Task {
            label,
            status: TaskStatus::Runnable,
            frames: vec![frame],
            held: Vec::new(),
            pending_reacquire: None,
            parent,
            sym,
            detached,
            calls: BTreeMap::new(),
            returns: BTreeMap::new(),
            sent: BTreeMap::new(),
            received: BTreeMap::new(),
        }));
        self.skid(state, id);
        id
    }

    fn finish_task(&self, state: &mut State, tid: TaskId, events: &mut Vec<Event>) {
        state.task_mut(tid).status = TaskStatus::Done;
        events.push(Event::Finished { task: tid });
        if let Some(parent) = state.task(tid).parent {
            let done = {
                let p = state.task_mut(parent);
                match &mut p.status {
                    TaskStatus::Blocked(BlockReason::Join { remaining }) => {
                        *remaining -= 1;
                        *remaining == 0
                    }
                    _ => false,
                }
            };
            if done {
                state.task_mut(parent).status = TaskStatus::Runnable;
                events.push(Event::Joined { task: parent });
                self.advance(state, parent);
            }
        }
    }

    /// pc += 1, then skid over compiled jumps.
    fn advance(&self, state: &mut State, tid: TaskId) {
        if let Some(frame) = state.task_mut(tid).frames.last_mut() {
            frame.pc += 1;
        }
        self.skid(state, tid);
    }

    /// Skip unconditional jumps — they are compiler artifacts, not
    /// atomic steps of the paper's semantics.
    fn skid(&self, state: &mut State, tid: TaskId) {
        loop {
            let Some(frame) = state.task(tid).frames.last() else { return };
            let code = self.compiled.code(frame.code);
            match code.get(frame.pc) {
                Some(Instr::Jump { target }) => {
                    let target = *target;
                    state.task_mut(tid).frames.last_mut().expect("frame exists").pc = target;
                }
                Some(Instr::ArmEnd { receive }) => {
                    let receive = *receive;
                    let frame = state.task_mut(tid).frames.last_mut().expect("frame exists");
                    // Arm bindings are message-scoped: restore the
                    // function-level locals snapshotted at delivery.
                    if let Some((saved_pc, saved)) = &frame.receive_saved {
                        debug_assert_eq!(*saved_pc, receive);
                        frame.locals = saved.clone();
                    }
                    frame.pc = receive;
                }
                _ => return,
            }
        }
    }

    /// Keep `Blocked(Receive)` statuses in sync with mailbox contents.
    fn settle(&self, state: &mut State) {
        for i in 0..state.tasks.len() {
            let tid = TaskId(i);
            let task = state.task(tid);
            match task.status {
                TaskStatus::Runnable => {
                    if let Some(Instr::Receive { .. }) = self.current_instr(state, tid) {
                        let has_mail = task
                            .top_frame()
                            .and_then(|f| f.self_obj)
                            .map(|obj| !state.inflight_for(obj).is_empty())
                            .unwrap_or(false);
                        if !has_mail {
                            state.task_mut(tid).status = TaskStatus::Blocked(BlockReason::Receive);
                        }
                    }
                }
                TaskStatus::Blocked(BlockReason::Receive) => {
                    let has_mail = task
                        .top_frame()
                        .and_then(|f| f.self_obj)
                        .map(|obj| !state.inflight_for(obj).is_empty())
                        .unwrap_or(false);
                    if has_mail {
                        state.task_mut(tid).status = TaskStatus::Runnable;
                    }
                }
                _ => {}
            }
        }
    }

    // --- expression evaluation ---------------------------------------------

    /// The cells an `EXC_ACC` footprint locks for `tid` in `state`,
    /// sorted and deduplicated, with names borrowed from the program.
    /// The footprint planner reads them as they are; the interpreter
    /// converts them to owned [`Cell`]s where it stores them.
    pub(crate) fn resolve_footprint<'a>(
        &self,
        state: &'a State,
        tid: TaskId,
        footprint: &'a [FootRef],
        span: Span,
    ) -> Result<Vec<CellRef<'a>>, RuntimeError> {
        let frame = state.task(tid).top_frame().expect("frame exists");
        let mut cells = Vec::new();
        for fref in footprint {
            match fref {
                FootRef::Var(name) => {
                    if frame.locals.contains_key(name) && !frame.main_scope {
                        continue; // task-private
                    }
                    if let Some(obj) = frame.self_obj {
                        if state.object(obj).fields.contains_key(name) {
                            cells.push(CellRef::Field(obj, name));
                            continue;
                        }
                    }
                    if state.globals.contains_key(name) || frame.main_scope {
                        cells.push(CellRef::Global(name));
                    }
                    // Undefined names contribute nothing; reading them
                    // later is a runtime error anyway.
                }
                FootRef::SelfField(field) => {
                    let obj = frame
                        .self_obj
                        .ok_or_else(|| RuntimeError::new("SELF used outside a method", span))?;
                    cells.push(CellRef::Field(obj, field));
                }
                FootRef::VarField(var, field) => {
                    // Not an object (or undefined): the field access
                    // itself will fault when executed.
                    if let Some(Value::Obj(obj)) = name_value(state, frame, var) {
                        cells.push(CellRef::Field(*obj, field));
                    }
                }
            }
        }
        cells.sort_unstable();
        cells.dedup();
        Ok(cells)
    }

    fn read_name(&self, state: &State, tid: TaskId, name: &str) -> Result<Value, String> {
        let frame = state.task(tid).top_frame().ok_or("task has no frame")?;
        name_value(state, frame, name)
            .cloned()
            .ok_or_else(|| format!("undefined variable `{name}`"))
    }

    pub(crate) fn eval(
        &self,
        state: &State,
        tid: TaskId,
        expr: &Expr,
    ) -> Result<Value, RuntimeError> {
        self.eval_in_scope(state, tid, expr, EvalScope::Frame)
    }

    fn eval_in_scope(
        &self,
        state: &State,
        tid: TaskId,
        expr: &Expr,
        scope: EvalScope,
    ) -> Result<Value, RuntimeError> {
        let err = |m: String| RuntimeError::new(m, expr.span);
        match &expr.kind {
            ExprKind::Int(v) => Ok(Value::Int(*v)),
            ExprKind::Float(v) => Ok(Value::float(*v)),
            ExprKind::Str(s) => Ok(Value::Str(s.clone())),
            ExprKind::Bool(b) => Ok(Value::Bool(*b)),
            ExprKind::Name(name) => match scope {
                EvalScope::Frame => self.read_name(state, tid, name).map_err(err),
                EvalScope::GlobalsOnly => state
                    .globals
                    .get(name)
                    .cloned()
                    .ok_or_else(|| err(format!("undefined variable `{name}`"))),
            },
            ExprKind::SelfRef => {
                let frame = state.task(tid).top_frame().expect("frame exists");
                frame
                    .self_obj
                    .map(Value::Obj)
                    .ok_or_else(|| err("SELF used outside a method".into()))
            }
            ExprKind::List(items) => Ok(Value::List(
                items
                    .iter()
                    .map(|i| self.eval_in_scope(state, tid, i, scope))
                    .collect::<Result<_, _>>()?,
            )),
            ExprKind::Unary(op, inner) => {
                let v = self.eval_in_scope(state, tid, inner, scope)?;
                match (op, v) {
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(
                        i.checked_neg().ok_or_else(|| err("integer overflow".into()))?,
                    )),
                    (UnOp::Neg, Value::Float(f)) => Ok(Value::float(-f.get())),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(err(format!("cannot apply {op} to {}", v.type_name()))),
                }
            }
            ExprKind::Binary(op, l, r) => {
                let lv = self.eval_in_scope(state, tid, l, scope)?;
                let rv = self.eval_in_scope(state, tid, r, scope)?;
                eval_binop(*op, lv, rv).map_err(err)
            }
            ExprKind::Field(base, field) => {
                let obj = match self.eval_in_scope(state, tid, base, scope)? {
                    Value::Obj(o) => o,
                    other => {
                        return Err(err(format!(
                            "field access on non-object {}",
                            other.type_name()
                        )));
                    }
                };
                state
                    .object(obj)
                    .fields
                    .get(field)
                    .cloned()
                    .ok_or_else(|| err(format!("object has no field `{field}`")))
            }
            ExprKind::Index(base, index) => {
                let b = self.eval_in_scope(state, tid, base, scope)?;
                let i = self.eval_in_scope(state, tid, index, scope)?;
                index_value(&b, &i).map_err(err)
            }
            ExprKind::Message { name, args } => Ok(Value::Message(MessageVal {
                name: name.clone(),
                args: args
                    .iter()
                    .map(|a| self.eval_in_scope(state, tid, a, scope))
                    .collect::<Result<_, _>>()?,
            })),
            ExprKind::Call { .. } | ExprKind::New { .. } => {
                Err(err("internal error: call expression survived lowering".into()))
            }
        }
    }

    fn write_lvalue(
        &self,
        state: &mut State,
        tid: TaskId,
        target: &LValue,
        value: Value,
        span: Span,
    ) -> Result<(), RuntimeError> {
        match target {
            LValue::Name(name) => {
                let frame = state.task(tid).top_frame().expect("frame exists");
                if frame.main_scope {
                    Arc::make_mut(&mut state.globals).insert(name.clone(), value);
                    return Ok(());
                }
                if frame.locals.contains_key(name) {
                    state
                        .task_mut(tid)
                        .frames
                        .last_mut()
                        .expect("frame exists")
                        .locals
                        .insert(name.clone(), value);
                    return Ok(());
                }
                if let Some(obj) = frame.self_obj {
                    if state.object(obj).fields.contains_key(name) {
                        state.object_mut(obj).fields.insert(name.clone(), value);
                        return Ok(());
                    }
                }
                if state.globals.contains_key(name) {
                    Arc::make_mut(&mut state.globals).insert(name.clone(), value);
                    return Ok(());
                }
                // New local.
                state
                    .task_mut(tid)
                    .frames
                    .last_mut()
                    .expect("frame exists")
                    .locals
                    .insert(name.clone(), value);
                Ok(())
            }
            LValue::Field(base, field) => {
                let obj = match self.eval(state, tid, base)? {
                    Value::Obj(o) => o,
                    other => {
                        return Err(RuntimeError::new(
                            format!("field assignment on non-object {}", other.type_name()),
                            span,
                        ));
                    }
                };
                state.object_mut(obj).fields.insert(field.clone(), value);
                Ok(())
            }
            LValue::Index(base, index) => {
                let idx = match self.eval(state, tid, index)? {
                    Value::Int(i) => i,
                    other => {
                        return Err(RuntimeError::new(
                            format!("list index must be INT, found {}", other.type_name()),
                            span,
                        ));
                    }
                };
                // Read–modify–write the containing place.
                let base_lv = match &base.kind {
                    ExprKind::Name(n) => LValue::Name(n.clone()),
                    ExprKind::Field(b, f) => LValue::Field(b.clone(), f.clone()),
                    _ => {
                        return Err(RuntimeError::new(
                            "unsupported list-assignment target; assign through a variable or field",
                            span,
                        ));
                    }
                };
                let mut list = match self.eval(state, tid, base)? {
                    Value::List(items) => items,
                    other => {
                        return Err(RuntimeError::new(
                            format!("indexed assignment on non-list {}", other.type_name()),
                            span,
                        ));
                    }
                };
                let len = list.len();
                let slot = usize::try_from(idx).ok().filter(|i| *i < len).ok_or_else(|| {
                    RuntimeError::new(
                        format!("index {idx} out of range for list of length {len}"),
                        span,
                    )
                })?;
                list[slot] = value;
                self.write_lvalue(state, tid, &base_lv, Value::List(list), span)
            }
        }
    }
}

/// The value a bare name reads in `frame`: a local, then a field of
/// the receiver (neither in main scope), then a global. `eval`, the
/// `EXC_ACC` resolver and the footprints' pure evaluator all resolve
/// names here.
pub(crate) fn name_value<'a>(state: &'a State, frame: &'a Frame, name: &str) -> Option<&'a Value> {
    if !frame.main_scope {
        if let Some(v) = frame.locals.get(name) {
            return Some(v);
        }
        if let Some(obj) = frame.self_obj {
            if let Some(v) = state.object(obj).fields.get(name) {
                return Some(v);
            }
        }
    }
    state.globals.get(name)
}

#[derive(Clone, Copy, PartialEq)]
enum EvalScope {
    Frame,
    GlobalsOnly,
}

enum CallMode {
    Normal,
    Detached,
}

fn eval_binop(op: BinOp, l: Value, r: Value) -> Result<Value, String> {
    use BinOp::*;
    use Value::*;
    let type_err = |op: BinOp, l: &Value, r: &Value| {
        Err(format!("cannot apply {op} to {} and {}", l.type_name(), r.type_name()))
    };
    match op {
        Add => match (&l, &r) {
            (Int(a), Int(b)) => {
                a.checked_add(*b).map(Int).ok_or_else(|| "integer overflow".to_string())
            }
            (Str(a), Str(b)) => Ok(Str(format!("{a}{b}"))),
            (Str(a), b) => Ok(Str(format!("{a}{b}"))),
            (a, Str(b)) => Ok(Str(format!("{a}{b}"))),
            (List(a), List(b)) => {
                let mut out = a.clone();
                out.extend(b.iter().cloned());
                Ok(List(out))
            }
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => Ok(Value::float(a + b)),
                _ => type_err(op, &l, &r),
            },
        },
        Sub | Mul | Div | Mod => match (&l, &r) {
            (Int(a), Int(b)) => match op {
                Sub => a.checked_sub(*b).map(Int).ok_or_else(|| "integer overflow".to_string()),
                Mul => a.checked_mul(*b).map(Int).ok_or_else(|| "integer overflow".to_string()),
                Div => {
                    if *b == 0 {
                        Err("division by zero".to_string())
                    } else {
                        Ok(Int(a / b))
                    }
                }
                Mod => {
                    if *b == 0 {
                        Err("modulo by zero".to_string())
                    } else {
                        Ok(Int(a % b))
                    }
                }
                _ => unreachable!(),
            },
            _ => match (l.as_f64(), r.as_f64()) {
                (Some(a), Some(b)) => match op {
                    Sub => Ok(Value::float(a - b)),
                    Mul => Ok(Value::float(a * b)),
                    Div => {
                        if b == 0.0 {
                            Err("division by zero".to_string())
                        } else {
                            Ok(Value::float(a / b))
                        }
                    }
                    Mod => {
                        if b == 0.0 {
                            Err("modulo by zero".to_string())
                        } else {
                            Ok(Value::float(a % b))
                        }
                    }
                    _ => unreachable!(),
                },
                _ => type_err(op, &l, &r),
            },
        },
        Eq => Ok(Bool(values_equal(&l, &r))),
        Ne => Ok(Bool(!values_equal(&l, &r))),
        Lt | Le | Gt | Ge => {
            let ord = match (&l, &r) {
                (Int(a), Int(b)) => a.cmp(b),
                (Str(a), Str(b)) => a.cmp(b),
                _ => match (l.as_f64(), r.as_f64()) {
                    (Some(a), Some(b)) => {
                        a.partial_cmp(&b).ok_or_else(|| "incomparable floats".to_string())?
                    }
                    _ => return type_err(op, &l, &r),
                },
            };
            Ok(Bool(match op {
                Lt => ord.is_lt(),
                Le => ord.is_le(),
                Gt => ord.is_gt(),
                Ge => ord.is_ge(),
                _ => unreachable!(),
            }))
        }
        And => match (&l, &r) {
            (Bool(a), Bool(b)) => Ok(Bool(*a && *b)),
            _ => type_err(op, &l, &r),
        },
        Or => match (&l, &r) {
            (Bool(a), Bool(b)) => Ok(Bool(*a || *b)),
            _ => type_err(op, &l, &r),
        },
    }
}

/// Equality is numeric-coercing between INT and FLOAT, structural
/// otherwise.
fn values_equal(l: &Value, r: &Value) -> bool {
    match (l, r) {
        (Value::Int(a), Value::Float(b)) => (*a as f64) == b.get(),
        (Value::Float(a), Value::Int(b)) => a.get() == (*b as f64),
        _ => l == r,
    }
}

fn index_value(base: &Value, index: &Value) -> Result<Value, String> {
    let idx = match index {
        Value::Int(i) => *i,
        other => return Err(format!("index must be INT, found {}", other.type_name())),
    };
    match base {
        Value::List(items) => usize::try_from(idx)
            .ok()
            .and_then(|i| items.get(i).cloned())
            .ok_or_else(|| format!("index {idx} out of range for list of length {}", items.len())),
        Value::Str(s) => usize::try_from(idx)
            .ok()
            .and_then(|i| s.chars().nth(i))
            .map(|c| Value::Str(c.to_string()))
            .ok_or_else(|| format!("index {idx} out of range for string of length {}", s.len())),
        other => Err(format!("cannot index {}", other.type_name())),
    }
}

fn apply_builtin(name: &str, args: &[Value], span: Span) -> Result<Value, RuntimeError> {
    let err = |m: String| RuntimeError::new(m, span);
    let arity = |n: usize| {
        if args.len() != n {
            Err(err(format!("builtin {name} expects {n} argument(s), got {}", args.len())))
        } else {
            Ok(())
        }
    };
    match name {
        "LEN" => {
            arity(1)?;
            match &args[0] {
                Value::List(items) => Ok(Value::Int(items.len() as i64)),
                Value::Str(s) => Ok(Value::Int(s.chars().count() as i64)),
                other => Err(err(format!("LEN of {}", other.type_name()))),
            }
        }
        "APPEND" => {
            arity(2)?;
            match &args[0] {
                Value::List(items) => {
                    let mut out = items.clone();
                    out.push(args[1].clone());
                    Ok(Value::List(out))
                }
                other => Err(err(format!("APPEND to {}", other.type_name()))),
            }
        }
        "CONTAINS" => {
            arity(2)?;
            match &args[0] {
                Value::List(items) => {
                    Ok(Value::Bool(items.iter().any(|v| values_equal(v, &args[1]))))
                }
                other => Err(err(format!("CONTAINS on {}", other.type_name()))),
            }
        }
        "TAIL" => {
            arity(1)?;
            match &args[0] {
                Value::List(items) if !items.is_empty() => Ok(Value::List(items[1..].to_vec())),
                Value::List(_) => Err(err("TAIL of an empty list".into())),
                other => Err(err(format!("TAIL of {}", other.type_name()))),
            }
        }
        "STR" => {
            arity(1)?;
            Ok(Value::Str(args[0].to_string()))
        }
        "ABS" => {
            arity(1)?;
            match &args[0] {
                Value::Int(i) => Ok(Value::Int(i.abs())),
                Value::Float(f) => Ok(Value::float(f.get().abs())),
                other => Err(err(format!("ABS of {}", other.type_name()))),
            }
        }
        "MIN" | "MAX" => {
            arity(2)?;
            let (a, b) = (&args[0], &args[1]);
            match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => {
                    let pick_a = if name == "MIN" { x <= y } else { x >= y };
                    Ok(if pick_a { a.clone() } else { b.clone() })
                }
                _ => Err(err(format!("{name} of {} and {}", a.type_name(), b.type_name()))),
            }
        }
        other => Err(err(format!("call to undefined function `{other}`"))),
    }
}

/// Helpers shared by unit tests in sibling modules.
#[cfg(test)]
pub mod tests_support {
    use super::*;

    /// A minimal state containing one idle task with the given label
    /// (for event-pattern tests).
    pub fn empty_state_with_task(label: &str) -> State {
        State {
            globals: Arc::default(),
            objects: Arc::default(),
            tasks: vec![Arc::new(Task {
                label: label.to_string(),
                status: TaskStatus::Done,
                frames: vec![],
                held: vec![],
                pending_reacquire: None,
                parent: None,
                sym: None,
                detached: false,
                calls: BTreeMap::new(),
                returns: BTreeMap::new(),
                sent: BTreeMap::new(),
                received: BTreeMap::new(),
            })],
            locks: Arc::default(),
            inflight: Arc::default(),
            output: Arc::default(),
            next_seq: 0,
            steps: 0,
            dead_letters: Arc::default(),
        }
    }
}
