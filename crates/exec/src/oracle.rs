//! A brute-force reference explorer: the truth the graph builder's
//! differential tests compare against.
//!
//! The oracle is an unreduced breadth-first search over
//! [`Interp::choices`]/[`Interp::apply`] that keeps every reached
//! [`State`] whole, with its step counter zeroed, in a plain
//! `HashSet`. It shares nothing with the builder beyond the
//! interpreter: no interner, no planner, no visited set, no corridors
//! and no reduction of any kind. A planner or interner bug therefore
//! cannot show up in both. The price is size: it holds every state
//! in full, so it reaches only spaces of a few hundred thousand
//! states.
//!
//! It answers three kinds of query: terminal sets
//! ([`Oracle::terminals`]), setup-state sets ([`Oracle::states`]) and
//! event-subsequence membership ([`Oracle::can_happen`]). Each stops,
//! and reports truncation, once it would store more than
//! [`Limits::max_states`] nodes; `max_depth` is not consulted.

use crate::event::{Event, EventPattern, StateCond};
use crate::explore::{Answer, Limits, Stats, Terminal, TerminalKind, TerminalSet};
use crate::interp::{Choice, Interp, Outcome};
use crate::state::State;
use crate::value::RuntimeError;
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::time::Instant;

/// The reference explorer over one program.
pub struct Oracle<'i> {
    interp: &'i Interp,
    limits: Limits,
}

/// What a search does with a state it has just stored.
enum Flow {
    Expand,
    Skip,
    Stop,
}

impl<'i> Oracle<'i> {
    pub fn new(interp: &'i Interp) -> Self {
        Oracle::with_limits(interp, Limits::default())
    }

    pub fn with_limits(interp: &'i Interp, limits: Limits) -> Self {
        Oracle { interp, limits }
    }

    /// Every reachable terminal state. `stats.states_visited` counts the
    /// distinct states reached, which is what an unreduced graph build
    /// stores.
    pub fn terminals(&self) -> Result<TerminalSet, RuntimeError> {
        let mut terminals = BTreeSet::new();
        let stats = self.search(|state, choices| {
            if choices.is_empty() {
                let outcome = match self.interp.classify_stuck(state) {
                    Outcome::AllDone => TerminalKind::AllDone,
                    Outcome::Quiescent => TerminalKind::Quiescent,
                    _ => TerminalKind::Deadlock,
                };
                terminals.insert(Terminal { output: state.output.normalized(), outcome });
            }
            Flow::Expand
        })?;
        Ok(TerminalSet { terminals, stats })
    }

    /// Up to `cap` distinct reachable states where every `setup`
    /// condition holds, in breadth-first order. With `frontier_only`
    /// the search does not descend below a matching state. Reaching
    /// the cap counts as truncation.
    pub fn states(
        &self,
        setup: &[StateCond],
        cap: usize,
        frontier_only: bool,
    ) -> Result<(Vec<State>, Stats), RuntimeError> {
        let funcs = &self.interp.compiled.funcs;
        let mut found = Vec::new();
        let mut stats = self.search(|state, _| {
            if !setup.iter().all(|c| c.holds(state, funcs)) {
                return Flow::Expand;
            }
            found.push(state.clone());
            if found.len() >= cap {
                Flow::Stop
            } else if frontier_only {
                Flow::Skip
            } else {
                Flow::Expand
            }
        })?;
        stats.truncated |= found.len() >= cap;
        Ok((found, stats))
    }

    /// From some reachable state where every `setup` condition holds,
    /// can the `query` events occur in order, as a subsequence of the
    /// continuation? The setup states are the frontier
    /// [`Oracle::states`] finds, capped at `max_setup_states`; the
    /// scenario search runs over (state, query progress) pairs.
    pub fn can_happen(
        &self,
        setup: &[StateCond],
        query: &[EventPattern],
    ) -> Result<Answer, RuntimeError> {
        let (starts, setup_stats) = self.states(setup, self.limits.max_setup_states, true)?;
        let exhaustive = !setup_stats.truncated;
        if starts.is_empty() {
            return Ok(Answer::SetupUnreachable { exhaustive });
        }
        if query.is_empty() {
            return Ok(Answer::Yes { witness: Vec::new() });
        }
        // One set per query progress, and every stored pair with the
        // pair it was reached from and the events of that step.
        let mut seen: Vec<HashSet<State>> = vec![HashSet::new(); query.len()];
        let mut nodes: Vec<(State, usize, Option<usize>, Vec<Event>)> = Vec::new();
        for start in starts {
            if seen[0].insert(start.clone()) {
                nodes.push((start, 0, None, Vec::new()));
            }
        }
        let mut at = 0;
        while at < nodes.len() {
            let (state, progress) = (nodes[at].0.clone(), nodes[at].1);
            for choice in self.interp.choices(&state) {
                let mut next = state.clone();
                let events = self.interp.apply(&mut next, &choice)?;
                next.steps = 0;
                let mut p = progress;
                for event in &events {
                    if p < query.len() && query[p].matches(event, &next) {
                        p += 1;
                    }
                }
                if p == query.len() {
                    let mut witness = events;
                    let mut from = Some(at);
                    while let Some(n) = from {
                        witness.splice(0..0, nodes[n].3.iter().cloned());
                        from = nodes[n].2;
                    }
                    return Ok(Answer::Yes { witness });
                }
                if seen[p].contains(&next) {
                    continue;
                }
                if nodes.len() >= self.limits.max_states {
                    return Ok(Answer::No { exhaustive: false });
                }
                seen[p].insert(next.clone());
                nodes.push((next, p, Some(at), events));
            }
            at += 1;
        }
        Ok(Answer::No { exhaustive })
    }

    /// Could this event trace occur (in order) from the start?
    pub fn admits_trace(&self, trace: &[EventPattern]) -> Result<Answer, RuntimeError> {
        self.can_happen(&[], trace)
    }

    /// Breadth-first search from the initial state: `visit` sees each
    /// stored state once, in discovery order, with its enabled
    /// choices, and says what to do with it.
    fn search(
        &self,
        mut visit: impl FnMut(&State, &[Choice]) -> Flow,
    ) -> Result<Stats, RuntimeError> {
        let begin = Instant::now();
        let mut stats = Stats::default();
        let mut root = self.interp.initial_state();
        root.steps = 0;
        let mut seen: HashSet<State> = HashSet::from([root.clone()]);
        let mut queue = VecDeque::from([root]);
        stats.states_visited = 1;
        'search: while let Some(state) = queue.pop_front() {
            let choices = self.interp.choices(&state);
            match visit(&state, &choices) {
                Flow::Expand => {}
                Flow::Skip => continue,
                Flow::Stop => break,
            }
            for choice in &choices {
                let mut next = state.clone();
                self.interp.apply(&mut next, choice)?;
                next.steps = 0;
                stats.transitions += 1;
                if seen.contains(&next) {
                    stats.states_deduped += 1;
                    continue;
                }
                if seen.len() >= self.limits.max_states {
                    stats.truncated = true;
                    break 'search;
                }
                seen.insert(next.clone());
                stats.states_visited += 1;
                queue.push_back(next);
            }
        }
        stats.wall = begin.elapsed();
        Ok(stats)
    }
}
