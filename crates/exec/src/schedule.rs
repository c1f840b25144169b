//! Schedulers: drivers that repeatedly pick one of the interpreter's
//! enabled transitions.
//!
//! A scheduler only chooses *which* enabled choice runs next — the
//! semantics live entirely in [`crate::interp::Interp`], so every
//! scheduler (and the exhaustive explorer) agrees on what each step
//! does.
//!
//! The policies themselves live in the workspace-wide decision kernel
//! (`concur-decide`); the schedulers here are thin adapters that
//! translate interpreter [`Choice`] lists into kernel decisions. One
//! convention matters: these drivers consult their source on **every**
//! step — including forced singleton transitions — via
//! [`ChoiceSource::decide_forced`], so seeds and witness scripts
//! recorded before the kernel existed keep naming the same runs.

use crate::event::Event;
use crate::explore::choice_task;
use crate::interp::{Choice, Interp, Outcome};
use crate::state::State;
use crate::value::RuntimeError;
use concur_decide::{ChoiceSource, DecisionKind, RandomSource, ReplaySource};

/// Picks the index of the next transition from a non-empty choice
/// list.
pub trait Scheduler {
    fn pick(&mut self, choices: &[Choice], state: &State) -> usize;

    /// Name used in reports.
    fn name(&self) -> &'static str {
        "scheduler"
    }
}

/// Any decision source drives the interpreter directly: each enabled
/// transition is a task-pick decision. This is the generic bridge from
/// the kernel; [`RandomScheduler`] and [`ReplayScheduler`] are its
/// canonical instances.
pub struct SourceScheduler<S> {
    source: S,
}

impl<S: ChoiceSource> SourceScheduler<S> {
    pub fn new(source: S) -> Self {
        SourceScheduler { source }
    }
}

impl<S: ChoiceSource> Scheduler for SourceScheduler<S> {
    fn pick(&mut self, choices: &[Choice], _state: &State) -> usize {
        self.source.decide_forced(DecisionKind::TaskPick, choices.len(), None)
    }

    fn name(&self) -> &'static str {
        self.source.name()
    }
}

/// Uniformly random choice from a seeded generator — the workhorse for
/// stress tests ("run the figure program 500 times and collect the set
/// of outputs").
pub struct RandomScheduler {
    inner: SourceScheduler<RandomSource>,
}

impl RandomScheduler {
    pub fn new(seed: u64) -> Self {
        RandomScheduler { inner: SourceScheduler::new(RandomSource::new(seed)) }
    }
}

impl Scheduler for RandomScheduler {
    fn pick(&mut self, choices: &[Choice], state: &State) -> usize {
        self.inner.pick(choices, state)
    }

    fn name(&self) -> &'static str {
        "random"
    }
}

/// Round-robin over tasks: always advances the enabled choice with the
/// smallest task id that is ≥ the last task stepped (wrapping).
/// Deterministic; useful for smoke tests and as a "fair" baseline.
///
/// This is the one scheduler that is *not* a kernel adapter: its pick
/// depends on the task ids inside the [`Choice`] list, which the
/// position-only `ChoiceSource` vocabulary deliberately cannot see.
pub struct RoundRobinScheduler {
    last: usize,
}

impl RoundRobinScheduler {
    pub fn new() -> Self {
        RoundRobinScheduler { last: 0 }
    }
}

impl Default for RoundRobinScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl Scheduler for RoundRobinScheduler {
    fn pick(&mut self, choices: &[Choice], _state: &State) -> usize {
        let idx = choices
            .iter()
            .enumerate()
            .filter(|(_, c)| choice_task(c).0 > self.last)
            .map(|(i, _)| i)
            .next()
            .unwrap_or(0);
        self.last = choice_task(&choices[idx]).0;
        idx
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Replays a scripted list of choice indices, then falls back to index
/// 0. Used to drive a run into a specific scenario (and by the
/// explorer's witness replay). Out-of-range entries are clamped by the
/// kernel, one script entry per step (forced steps included).
pub struct ReplayScheduler {
    inner: SourceScheduler<ReplaySource>,
}

impl ReplayScheduler {
    pub fn new(script: Vec<usize>) -> Self {
        ReplayScheduler { inner: SourceScheduler::new(ReplaySource::new(script)) }
    }
}

impl Scheduler for ReplayScheduler {
    fn pick(&mut self, choices: &[Choice], state: &State) -> usize {
        self.inner.pick(choices, state)
    }

    fn name(&self) -> &'static str {
        "replay"
    }
}

/// Result of driving a program to the end (or to a limit).
#[derive(Debug)]
pub struct RunResult {
    pub outcome: Outcome,
    pub state: State,
    pub events: Vec<Event>,
}

impl RunResult {
    /// Normalized program output (see
    /// [`crate::state::Output::normalized`]).
    pub fn output(&self) -> String {
        self.state.output.normalized()
    }
}

/// Drive `interp` from its initial state until completion, deadlock,
/// or `max_steps`.
pub fn run(
    interp: &Interp,
    scheduler: &mut dyn Scheduler,
    max_steps: u64,
) -> Result<RunResult, RuntimeError> {
    run_from(interp, interp.initial_state(), scheduler, max_steps)
}

/// Drive an existing state forward (used for scenario continuation).
pub fn run_from(
    interp: &Interp,
    mut state: State,
    scheduler: &mut dyn Scheduler,
    max_steps: u64,
) -> Result<RunResult, RuntimeError> {
    let mut events = Vec::new();
    loop {
        if state.steps >= max_steps {
            return Ok(RunResult { outcome: Outcome::StepLimit, state, events });
        }
        let choices = interp.choices(&state);
        if choices.is_empty() {
            let outcome = interp.classify_stuck(&state);
            return Ok(RunResult { outcome, state, events });
        }
        let idx = scheduler.pick(&choices, &state);
        events.extend(interp.apply(&mut state, &choices[idx])?);
    }
}

/// Convenience: parse, compile and run a source program with a random
/// scheduler.
pub fn run_source(source: &str, seed: u64, max_steps: u64) -> Result<RunResult, String> {
    let interp = Interp::from_source(source)?;
    run(&interp, &mut RandomScheduler::new(seed), max_steps).map_err(|e| e.to_string())
}

/// Run a program many times with different seeds and collect the set
/// of distinct normalized outputs — the experimental counterpart of
/// the figures' "possibility" lists.
pub fn output_set(source: &str, runs: u64, max_steps: u64) -> Result<Vec<String>, String> {
    let interp = Interp::from_source(source)?;
    let mut outputs = std::collections::BTreeSet::new();
    for seed in 0..runs {
        let result =
            run(&interp, &mut RandomScheduler::new(seed), max_steps).map_err(|e| e.to_string())?;
        outputs.insert(result.output());
    }
    Ok(outputs.into_iter().collect())
}
