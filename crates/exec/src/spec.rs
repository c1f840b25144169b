//! Protocol specifications as first-class queries.
//!
//! A [`Spec`] states how a program's executions must be *ordered* —
//! event precedence, eventual reply, exclusion of `EXC_ACC` regions,
//! bounded fairness — in the spirit of Jongmans & Arbab's first-class
//! protocol specifications and the Torres Lopez et al. actor-bug
//! taxonomy of bad-interleaving message-protocol bugs. Specs compile
//! to deterministic finite-trace monitor automata ([`Monitor`]) and
//! are decided by a product BFS over the persisted
//! [`crate::graph::StateGraph`]: a spec *holds* when every
//! complete execution trace (run to a terminal — `AllDone`,
//! `Quiescent`, or `Deadlock`) is accepted by the monitor, and a
//! violation returns the *shortest* counterexample as replayable
//! [`WitnessEvidence`].
//!
//! # Trace semantics
//!
//! The monitor reads an execution as the sequence of its events,
//! projected to the spec's **alphabet** (the event patterns the spec
//! mentions). Each event becomes a *symbol*: the bitmask of alphabet
//! patterns it matches. Events matching no pattern map to symbol `0`,
//! and every monitor is **stutter-invariant** by construction —
//! `δ(q, 0) = q` — which is the soundness lemma for checking specs on
//! reduced graphs: partial-order reduction may only prune or commute
//! transitions *invisible* to the query, and the spec's alphabet is
//! folded into the session's visibility signature
//! ([`crate::session`]), so every alphabet-matching event is visible,
//! its order is preserved in the reduced graph, and the monitor (which
//! ignores everything else) computes the same verdict.
//!
//! Acceptance is finite-trace: a *safety* violation is entering a
//! `doomed` monitor state (no accepting state reachable — a bad
//! prefix); a *co-safety* violation is ending a complete trace in a
//! non-accepting state (e.g. a pending request never answered —
//! deadlocks are terminals, so "the reply never comes because the
//! system deadlocked" falls out naturally).
//!
//! # Fairness
//!
//! [`Spec::no_starvation`] ("no task starved past `k` enabled-skips")
//! is *enabledness*-sensitive, not event-sensitive: it counts
//! scheduler decisions, which the visibility framework cannot protect.
//! Spec queries containing it are therefore checked on an **unreduced**
//! graph (the session pins `Reduction::NONE`), and it may not appear
//! under negation.

use crate::event::{Event, EventKindPattern, EventPattern, StateView};
use crate::explore::{choice_task, TerminalKind};
use crate::graph::{GraphEdge, StateGraph, WitnessEvidence};
use crate::intern::{fx_hash_of, FxHashMap, FxHashSet};
use crate::interp::Interp;
use std::collections::VecDeque;

/// Largest spec alphabet (distinct event patterns); symbols are
/// bitmasks over it, so transition tables have `2^n` columns.
const MAX_ALPHABET: usize = 8;

/// Region counters saturate here: `Mutex` only needs to know
/// "occupied vs empty", and no bank protocol nests deeper.
const REGION_CAP: u32 = 3;

/// An `EXC_ACC`-style region delimited by an enter and an exit event
/// pattern (e.g. `Acquired`/`Released` by one task label). A side of
/// [`Spec::mutex`] is *occupied* while its enter count exceeds its
/// exit count (saturating — see `REGION_CAP`).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    pub enter: EventPattern,
    pub exit: EventPattern,
}

impl Region {
    pub fn new(enter: EventPattern, exit: EventPattern) -> Region {
        Region { enter, exit }
    }

    /// The canonical `EXC_ACC` region of one task: `Acquired` to
    /// `Released` by the given task label.
    pub fn exc_acc(task_label: impl Into<String>) -> Region {
        let label = task_label.into();
        Region {
            enter: EventPattern::by(label.clone(), EventKindPattern::Acquired),
            exit: EventPattern::by(label, EventKindPattern::Released),
        }
    }
}

/// A safety / co-safety specification over a program's event traces.
#[derive(Debug, Clone, PartialEq)]
pub enum Spec {
    /// Every `then` event is preceded by (or simultaneous with) some
    /// `first` event.
    Precedes { first: EventPattern, then: EventPattern },
    /// Every `request` is eventually followed by a `response` before
    /// the trace ends (eventual reply; pending at a terminal —
    /// including a deadlock — is a violation).
    RespondsTo { request: EventPattern, response: EventPattern },
    /// Some matching event occurs on every complete trace.
    Eventually { pattern: EventPattern },
    /// No `forbidden` event strictly between an `open` and its
    /// matching `close` (the actor-bug taxonomy's *bad interleaving*:
    /// an intruding message lands inside a supposedly-atomic protocol
    /// window). Precedence on one event matching several patterns
    /// while the window is open: forbidden, then close, then open.
    NeverBetween { open: EventPattern, close: EventPattern, forbidden: EventPattern },
    /// The two regions are never simultaneously occupied (mutual
    /// exclusion over `EXC_ACC` regions).
    Mutex { left: Region, right: Region },
    /// Bounded fairness: on no reachable path does the labelled task
    /// sit *enabled* while other tasks take more than `k` consecutive
    /// steps. Checked on an unreduced graph; cannot be negated.
    NoStarvation { task_label: String, k: u32 },
    /// Complement (pure-event specs only).
    Not(Box<Spec>),
    /// Conjunction.
    And(Box<Spec>, Box<Spec>),
}

impl Spec {
    pub fn precedes(first: EventPattern, then: EventPattern) -> Spec {
        Spec::Precedes { first, then }
    }

    pub fn responds_to(request: EventPattern, response: EventPattern) -> Spec {
        Spec::RespondsTo { request, response }
    }

    pub fn eventually(pattern: EventPattern) -> Spec {
        Spec::Eventually { pattern }
    }

    pub fn never_between(open: EventPattern, close: EventPattern, forbidden: EventPattern) -> Spec {
        Spec::NeverBetween { open, close, forbidden }
    }

    pub fn mutex(left: Region, right: Region) -> Spec {
        Spec::Mutex { left, right }
    }

    pub fn no_starvation(task_label: impl Into<String>, k: u32) -> Spec {
        Spec::NoStarvation { task_label: task_label.into(), k }
    }

    pub fn and(self, other: Spec) -> Spec {
        Spec::And(Box::new(self), Box::new(other))
    }

    pub fn negate(self) -> Spec {
        Spec::Not(Box::new(self))
    }

    // --- actor-bug taxonomy sugar (Torres Lopez et al.) ------------------

    /// *Message order violation*: `second` processed without the
    /// protocol-required `first` having happened.
    pub fn message_order(first: EventPattern, second: EventPattern) -> Spec {
        Spec::precedes(first, second)
    }

    /// *Eventual reply*: every request is answered before quiescence.
    pub fn eventual_reply(request: EventPattern, response: EventPattern) -> Spec {
        Spec::responds_to(request, response)
    }

    /// *Bad interleaving*: an `intruder` event lands inside the
    /// `open`…`close` protocol window.
    pub fn bad_interleaving(
        open: EventPattern,
        close: EventPattern,
        intruder: EventPattern,
    ) -> Spec {
        Spec::never_between(open, close, intruder)
    }

    /// Stable digest of the spec (folded into query memo keys — never
    /// into graph keys, which carry only the alphabet's visibility
    /// signature).
    pub fn digest(&self) -> u64 {
        fx_hash_of(&format!("{self:?}"))
    }

    /// Whether the spec mentions [`Spec::NoStarvation`] anywhere.
    pub fn has_fairness(&self) -> bool {
        match self {
            Spec::NoStarvation { .. } => true,
            Spec::Not(s) => s.has_fairness(),
            Spec::And(a, b) => a.has_fairness() || b.has_fairness(),
            _ => false,
        }
    }

    /// The spec's alphabet: its event patterns, first-mention order,
    /// deduplicated.
    pub fn alphabet(&self) -> Vec<EventPattern> {
        let mut out: Vec<EventPattern> = Vec::new();
        self.collect_patterns(&mut out);
        out
    }

    fn collect_patterns(&self, out: &mut Vec<EventPattern>) {
        let mut push = |p: &EventPattern| {
            if !out.contains(p) {
                out.push(p.clone());
            }
        };
        match self {
            Spec::Precedes { first, then } => {
                push(first);
                push(then);
            }
            Spec::RespondsTo { request, response } => {
                push(request);
                push(response);
            }
            Spec::Eventually { pattern } => push(pattern),
            Spec::NeverBetween { open, close, forbidden } => {
                push(open);
                push(close);
                push(forbidden);
            }
            Spec::Mutex { left, right } => {
                push(&left.enter);
                push(&left.exit);
                push(&right.enter);
                push(&right.exit);
            }
            Spec::NoStarvation { .. } => {}
            Spec::Not(s) => s.collect_patterns(out),
            Spec::And(a, b) => {
                a.collect_patterns(out);
                b.collect_patterns(out);
            }
        }
    }

    /// Validate the spec against a program's statically extracted
    /// [`EventAlphabet`](concur_pseudocode::analysis::EventAlphabet):
    /// a spec watching a function the program never defines, a
    /// message it never constructs, or lock events in a lock-free
    /// program is vacuous — almost certainly a typo — and rejected
    /// here before any graph is built.
    pub fn validate_against(
        &self,
        alphabet: &concur_pseudocode::analysis::EventAlphabet,
    ) -> Result<(), String> {
        for p in self.alphabet() {
            match &p.kind {
                EventKindPattern::Called { func } | EventKindPattern::Returned { func } => {
                    if !alphabet.funcs.contains(func) {
                        return Err(format!("spec mentions unknown function `{func}`"));
                    }
                }
                EventKindPattern::Sent { msg_name, .. }
                | EventKindPattern::Received { msg_name, .. } => {
                    if !alphabet.messages.contains(msg_name) {
                        return Err(format!("spec mentions unknown message `{msg_name}`"));
                    }
                }
                EventKindPattern::Printed { .. } => {
                    // The print alphabet is open — `PRINTLN x` renders
                    // computed values the static pass cannot see — so
                    // print patterns are never rejected.
                }
                EventKindPattern::Acquired
                | EventKindPattern::Released
                | EventKindPattern::BlockedOnLocks
                | EventKindPattern::WaitStart
                | EventKindPattern::WaitFinished
                | EventKindPattern::Notified => {
                    if !alphabet.has_exc_acc {
                        return Err(
                            "spec watches EXC_ACC events but the program has no EXC_ACC block"
                                .into(),
                        );
                    }
                }
                EventKindPattern::Finished => {}
            }
        }
        Ok(())
    }

    /// Compile to a deterministic monitor. Errors on alphabets larger
    /// than `MAX_ALPHABET`, negated fairness, or more than one
    /// fairness leaf.
    pub fn compile(&self) -> Result<Monitor, String> {
        let alphabet = self.alphabet();
        if alphabet.len() > MAX_ALPHABET {
            return Err(format!(
                "spec alphabet has {} patterns; the monitor compiler caps at {MAX_ALPHABET}",
                alphabet.len()
            ));
        }
        let mut fairness = Vec::new();
        let dfa = compile_pure(self, &alphabet, &mut fairness, false)?;
        if fairness.len() > 1 {
            return Err("at most one NoStarvation conjunct is supported".into());
        }
        let mut dfa = dfa.determinize();
        dfa.compute_doomed();
        debug_assert!(dfa.stutter_invariant(), "monitors must be stutter-invariant");
        Ok(Monitor { alphabet, dfa, starvation: fairness.pop() })
    }
}

/// Recursive compiler for the event-pattern part of a spec; fairness
/// leaves are collected into `fairness` (and contribute a trivially
/// accepting automaton). `negated` tracks whether we're under a `Not`,
/// where fairness is rejected.
fn compile_pure(
    spec: &Spec,
    alphabet: &[EventPattern],
    fairness: &mut Vec<(String, u32)>,
    negated: bool,
) -> Result<Dfa, String> {
    let bit = |p: &EventPattern| -> u16 {
        let i = alphabet.iter().position(|q| q == p).expect("pattern in alphabet");
        1 << i
    };
    let n = alphabet.len();
    Ok(match spec {
        Spec::Eventually { pattern } => Dfa::eventually(n, bit(pattern)),
        Spec::Precedes { first, then } => Dfa::precedes(n, bit(first), bit(then)),
        Spec::RespondsTo { request, response } => Dfa::responds_to(n, bit(request), bit(response)),
        Spec::NeverBetween { open, close, forbidden } => {
            Dfa::never_between(n, bit(open), bit(close), bit(forbidden))
        }
        Spec::Mutex { left, right } => Dfa::mutex(
            n,
            (bit(&left.enter), bit(&left.exit)),
            (bit(&right.enter), bit(&right.exit)),
        ),
        Spec::NoStarvation { task_label, k } => {
            if negated {
                return Err("NoStarvation may not appear under Not".into());
            }
            fairness.push((task_label.clone(), *k));
            Dfa::always(n)
        }
        Spec::Not(inner) => compile_pure(inner, alphabet, fairness, !negated)?.complement(),
        Spec::And(a, b) => {
            let da = compile_pure(a, alphabet, fairness, negated)?;
            let db = compile_pure(b, alphabet, fairness, negated)?;
            da.product(&db)
        }
    })
}

/// A total, deterministic finite-trace automaton over symbol bitmasks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Dfa {
    n_pats: usize,
    start: usize,
    /// `delta[state][symbol]`, `symbol ∈ 0..2^n_pats`.
    delta: Vec<Vec<usize>>,
    accepting: Vec<bool>,
    /// No accepting state reachable: entering one is a bad prefix.
    doomed: Vec<bool>,
}

impl Dfa {
    fn n_syms(n_pats: usize) -> usize {
        1 << n_pats
    }

    fn always(n_pats: usize) -> Dfa {
        Dfa {
            n_pats,
            start: 0,
            delta: vec![vec![0; Dfa::n_syms(n_pats)]],
            accepting: vec![true],
            doomed: vec![false],
        }
    }

    /// States: 0 = not yet (rejecting), 1 = seen (accepting).
    fn eventually(n_pats: usize, p: u16) -> Dfa {
        let syms = Dfa::n_syms(n_pats);
        let delta =
            vec![(0..syms).map(|s| usize::from(s as u16 & p != 0)).collect(), vec![1; syms]];
        Dfa { n_pats, start: 0, delta, accepting: vec![false, true], doomed: vec![false, false] }
    }

    /// States: 0 = no `first` yet, 1 = `first` seen, 2 = trap
    /// (a `then` arrived unpreceded). Simultaneous first+then counts
    /// as preceded.
    fn precedes(n_pats: usize, first: u16, then: u16) -> Dfa {
        let syms = Dfa::n_syms(n_pats);
        let from0 = (0..syms)
            .map(|s| {
                let s = s as u16;
                if s & first != 0 {
                    1
                } else if s & then != 0 {
                    2
                } else {
                    0
                }
            })
            .collect();
        let delta = vec![from0, vec![1; syms], vec![2; syms]];
        Dfa {
            n_pats,
            start: 0,
            delta,
            accepting: vec![true, true, false],
            doomed: vec![false, false, true],
        }
    }

    /// States: 0 = no pending request (accepting), 1 = pending
    /// (rejecting at trace end, but not doomed). A response clears
    /// *prior* requests, so one event matching both leaves a pending
    /// request.
    fn responds_to(n_pats: usize, req: u16, resp: u16) -> Dfa {
        let syms = Dfa::n_syms(n_pats);
        let step = |pending: bool, s: u16| -> usize {
            usize::from((pending && s & resp == 0) || s & req != 0)
        };
        let delta = vec![
            (0..syms).map(|s| step(false, s as u16)).collect(),
            (0..syms).map(|s| step(true, s as u16)).collect(),
        ];
        Dfa { n_pats, start: 0, delta, accepting: vec![true, false], doomed: vec![false, false] }
    }

    /// States: 0 = outside, 1 = inside the open…close window, 2 = trap
    /// (forbidden landed inside). Precedence while inside:
    /// forbidden, then close, then open.
    fn never_between(n_pats: usize, open: u16, close: u16, forbidden: u16) -> Dfa {
        let syms = Dfa::n_syms(n_pats);
        let from0 = (0..syms).map(|s| usize::from(s as u16 & open != 0)).collect();
        let from1 = (0..syms)
            .map(|s| {
                let s = s as u16;
                if s & forbidden != 0 {
                    2
                } else if s & close != 0 {
                    usize::from(s & open != 0)
                } else {
                    1
                }
            })
            .collect();
        let delta = vec![from0, from1, vec![2; syms]];
        Dfa {
            n_pats,
            start: 0,
            delta,
            accepting: vec![true, true, false],
            doomed: vec![false, false, true],
        }
    }

    /// Product of saturating occupancy counters for the two regions;
    /// the trap fires the moment both counters are positive. Exits at
    /// zero are ignored (an exit pattern can match region-unrelated
    /// events, e.g. a `Released` from a different `EXC_ACC`).
    fn mutex(n_pats: usize, left: (u16, u16), right: (u16, u16)) -> Dfa {
        let syms = Dfa::n_syms(n_pats);
        let cap = REGION_CAP;
        let encode = |l: u32, r: u32| (l * (cap + 1) + r) as usize;
        let count = ((cap + 1) * (cap + 1)) as usize;
        let trap = count;
        let mut delta = Vec::with_capacity(count + 1);
        for l in 0..=cap {
            for r in 0..=cap {
                let row = (0..syms)
                    .map(|s| {
                        let s = s as u16;
                        let bump = |c: u32, enter: u16, exit: u16| {
                            let c = if s & exit != 0 { c.saturating_sub(1) } else { c };
                            if s & enter != 0 {
                                (c + 1).min(cap)
                            } else {
                                c
                            }
                        };
                        let (l2, r2) = (bump(l, left.0, left.1), bump(r, right.0, right.1));
                        if l2 > 0 && r2 > 0 {
                            trap
                        } else {
                            encode(l2, r2)
                        }
                    })
                    .collect();
                delta.push(row);
            }
        }
        delta.push(vec![trap; syms]);
        let mut accepting = vec![true; count];
        accepting.push(false);
        let mut doomed = vec![false; count];
        doomed.push(true);
        Dfa { n_pats, start: encode(0, 0), delta, accepting, doomed }
    }

    fn complement(mut self) -> Dfa {
        for a in &mut self.accepting {
            *a = !*a;
        }
        self.compute_doomed();
        self
    }

    /// Synchronous product (conjunction); both DFAs share the alphabet.
    fn product(&self, other: &Dfa) -> Dfa {
        assert_eq!(self.n_pats, other.n_pats, "product over one alphabet");
        let syms = Dfa::n_syms(self.n_pats);
        let mut index: FxHashMap<(usize, usize), usize> = FxHashMap::default();
        let mut order: Vec<(usize, usize)> = Vec::new();
        let mut queue = VecDeque::new();
        index.insert((self.start, other.start), 0);
        order.push((self.start, other.start));
        queue.push_back((self.start, other.start));
        let mut delta: Vec<Vec<usize>> = Vec::new();
        while let Some((a, b)) = queue.pop_front() {
            let row = (0..syms)
                .map(|s| {
                    let next = (self.delta[a][s], other.delta[b][s]);
                    *index.entry(next).or_insert_with(|| {
                        order.push(next);
                        queue.push_back(next);
                        order.len() - 1
                    })
                })
                .collect();
            delta.push(row);
        }
        let accepting =
            order.iter().map(|&(a, b)| self.accepting[a] && other.accepting[b]).collect();
        let mut dfa = Dfa { n_pats: self.n_pats, start: 0, delta, accepting, doomed: Vec::new() };
        dfa.compute_doomed();
        dfa
    }

    /// Subset construction, treating the DFA as an NFA with singleton
    /// transition sets. States are renumbered in canonical BFS order,
    /// so the result is a *canonical form*: applying `determinize`
    /// twice yields a structurally identical automaton.
    pub(crate) fn determinize(&self) -> Dfa {
        let syms = Dfa::n_syms(self.n_pats);
        // Subsets are singletons here, but the construction is the
        // general one — kept so the idempotence property is about the
        // real algorithm, not a special case.
        let mut index: FxHashMap<Vec<usize>, usize> = FxHashMap::default();
        let mut order: Vec<Vec<usize>> = Vec::new();
        let mut queue: VecDeque<Vec<usize>> = VecDeque::new();
        let start = vec![self.start];
        index.insert(start.clone(), 0);
        order.push(start.clone());
        queue.push_back(start);
        let mut delta: Vec<Vec<usize>> = Vec::new();
        while let Some(subset) = queue.pop_front() {
            let row = (0..syms)
                .map(|s| {
                    let mut next: Vec<usize> = subset.iter().map(|&q| self.delta[q][s]).collect();
                    next.sort_unstable();
                    next.dedup();
                    *index.entry(next.clone()).or_insert_with(|| {
                        order.push(next);
                        queue.push_back(order.last().expect("just pushed").clone());
                        order.len() - 1
                    })
                })
                .collect();
            delta.push(row);
        }
        let accepting =
            order.iter().map(|subset| subset.iter().any(|&q| self.accepting[q])).collect();
        let mut dfa = Dfa { n_pats: self.n_pats, start: 0, delta, accepting, doomed: Vec::new() };
        dfa.compute_doomed();
        dfa
    }

    /// `doomed[q]` ⇔ no accepting state is reachable from `q`.
    fn compute_doomed(&mut self) {
        let n = self.delta.len();
        let syms = Dfa::n_syms(self.n_pats);
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (q, row) in self.delta.iter().enumerate() {
            for &t in row.iter().take(syms) {
                rev[t].push(q);
            }
        }
        let mut alive = vec![false; n];
        let mut queue: VecDeque<usize> = (0..n).filter(|&q| self.accepting[q]).collect();
        for &q in &queue {
            alive[q] = true;
        }
        while let Some(q) = queue.pop_front() {
            for &p in &rev[q] {
                if !alive[p] {
                    alive[p] = true;
                    queue.push_back(p);
                }
            }
        }
        self.doomed = alive.iter().map(|&a| !a).collect();
    }

    fn stutter_invariant(&self) -> bool {
        self.delta.iter().enumerate().all(|(q, row)| row[0] == q)
    }

    fn accepts(&self, syms: &[u16]) -> bool {
        let mut q = self.start;
        for &s in syms {
            q = self.delta[q][s as usize];
        }
        self.accepting[q]
    }
}

/// A compiled spec: deterministic monitor automaton + alphabet (+ at
/// most one fairness constraint).
#[derive(Debug, Clone)]
pub struct Monitor {
    alphabet: Vec<EventPattern>,
    dfa: Dfa,
    /// `(task label, k)` of a `NoStarvation` conjunct.
    starvation: Option<(String, u32)>,
}

impl Monitor {
    pub fn alphabet(&self) -> &[EventPattern] {
        &self.alphabet
    }

    pub fn has_fairness(&self) -> bool {
        self.starvation.is_some()
    }

    pub(crate) fn starvation(&self) -> Option<&(String, u32)> {
        self.starvation.as_ref()
    }

    /// The symbol of one event: the bitmask of alphabet patterns it
    /// matches (`state` resolves task labels).
    pub fn symbol(&self, event: &Event, state: &impl StateView) -> u16 {
        self.alphabet
            .iter()
            .enumerate()
            .filter(|(_, p)| p.matches(event, state))
            .fold(0, |m, (i, _)| m | (1 << i))
    }

    /// Run a full symbol trace to its acceptance verdict.
    pub fn accepts_symbols(&self, syms: &[u16]) -> bool {
        self.dfa.accepts(syms)
    }

    /// Grade a token trace (the conformance runtimes' recorder output:
    /// each pushed token is one `i64`). Only label-free `Printed`
    /// alphabets are gradable this way — anything else needs real
    /// events and states. A token matches a `Printed { text }` pattern
    /// when `text` equals its decimal rendering.
    pub fn grade_tokens(&self, tokens: &[i64]) -> Result<bool, String> {
        if self.starvation.is_some() {
            return Err("fairness specs are not gradable from token traces".into());
        }
        let texts: Vec<&str> = self
            .alphabet
            .iter()
            .map(|p| match (&p.task_label, &p.kind) {
                (None, EventKindPattern::Printed { text }) => Ok(text.as_str()),
                _ => Err(format!("pattern {p:?} is not a label-free Printed token")),
            })
            .collect::<Result<_, _>>()?;
        let syms: Vec<u16> = tokens
            .iter()
            .map(|t| {
                let rendered = t.to_string();
                texts
                    .iter()
                    .enumerate()
                    .filter(|(_, text)| **text == rendered)
                    .fold(0, |m, (i, _)| m | (1 << i))
            })
            .collect();
        Ok(self.dfa.accepts(&syms))
    }

    /// Like [`Monitor::grade_tokens`] but for a *partial* trace (a
    /// deadlocked run): `Some(false)` when the prefix is already
    /// doomed (a safety violation no continuation can repair),
    /// `Some(true)` when a completed trace ending here would be
    /// accepted, `None` when the prefix is live but currently
    /// rejecting (inconclusive for a prefix — except that a deadlocked
    /// run *cannot* continue, so callers grading deadlocks should
    /// treat `None` as a violation too).
    pub fn grade_token_prefix(&self, tokens: &[i64]) -> Result<Option<bool>, String> {
        let accepted = self.grade_tokens(tokens)?;
        if accepted {
            return Ok(Some(true));
        }
        // Re-run to the final state to consult doomedness.
        let texts: Vec<&str> = self
            .alphabet
            .iter()
            .map(|p| match &p.kind {
                EventKindPattern::Printed { text } => text.as_str(),
                _ => unreachable!("grade_tokens validated the alphabet"),
            })
            .collect();
        let mut q = self.dfa.start;
        for t in tokens {
            let rendered = t.to_string();
            let sym = texts
                .iter()
                .enumerate()
                .filter(|(_, text)| **text == rendered)
                .fold(0u16, |m, (i, _)| m | (1 << i));
            q = self.dfa.delta[q][sym as usize];
        }
        Ok(if self.dfa.doomed[q] { Some(false) } else { None })
    }
}

/// How a violation manifested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// The monitor entered a doomed state: no continuation can be
    /// accepted (safety).
    BadPrefix,
    /// A complete trace (graph terminal) ended in a non-accepting
    /// monitor state (co-safety; includes deadlock terminals).
    TerminalRejects,
    /// The watched task sat enabled through more than `k` consecutive
    /// foreign steps.
    Starvation,
}

/// A spec violation with replayable evidence: `evidence.decisions` is
/// a decision vector from the program's initial state
/// ([`crate::schedule::ReplayScheduler`] re-executes it), and
/// `evidence.events` are all events along the counterexample path
/// (`setup_len` is always 0 — counterexamples are root-anchored).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecViolation {
    pub kind: ViolationKind,
    pub evidence: WitnessEvidence,
    /// Terminal classification at the end of the path, when the path
    /// ends at a terminal.
    pub terminal: Option<TerminalKind>,
}

/// The verdict of checking one spec against one graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecReport {
    /// No violation found. Conclusive only when `exhaustive`.
    pub holds: bool,
    /// The graph covered the full state space (no build bound hit).
    /// A found violation is real regardless.
    pub exhaustive: bool,
    pub violation: Option<SpecViolation>,
}

/// Decide `monitor` over `graph` by BFS on the (node, monitor-state
/// [, starvation-counter]) product. The first violation reached is
/// over a *shortest* path in edges, and — the product BFS being
/// seeded and relaxed in canonical store order — identical at every
/// build worker count.
pub(crate) fn check_on_graph(graph: &StateGraph, interp: &Interp, monitor: &Monitor) -> SpecReport {
    let exhaustive = !graph.truncated();
    let starve = StarvationCtx::new(graph, interp, monitor.starvation());

    type Prod = (u32, u32, u32);
    let mut seen: FxHashSet<Prod> = FxHashSet::default();
    let mut parents: FxHashMap<Prod, (Prod, u32)> = FxHashMap::default();
    let mut queue: VecDeque<Prod> = VecDeque::new();

    let assemble = |parents: &FxHashMap<Prod, (Prod, u32)>, end: Prod| -> WitnessEvidence {
        let mut hops: Vec<(u32, u32)> = Vec::new();
        let mut at = end;
        while let Some(&(prev, ei)) = parents.get(&at) {
            hops.push((prev.0, ei));
            at = prev;
        }
        hops.reverse();
        let mut decisions = Vec::new();
        let mut events = Vec::new();
        for &(node, ei) in &hops {
            let edge = graph.out_edge(node, ei);
            decisions.extend(edge.picks);
            events.extend(edge.events.iter().cloned());
        }
        let decisions = graph.concretize_decisions(interp, decisions);
        WitnessEvidence { decisions, setup_len: 0, events }
    };
    let violation =
        |parents: &FxHashMap<Prod, (Prod, u32)>, end: Prod, kind: ViolationKind| -> SpecReport {
            SpecReport {
                holds: false,
                exhaustive,
                violation: Some(SpecViolation {
                    kind,
                    evidence: assemble(parents, end),
                    terminal: graph.node_terminal(end.0),
                }),
            }
        };

    // `check` classifies a product state the moment it is first
    // reached (seed or relaxation), keeping BFS shortest-path order.
    let classify = |prod: Prod| -> Option<ViolationKind> {
        let (node, q, ctr) = prod;
        if monitor.dfa.doomed[q as usize] {
            return Some(ViolationKind::BadPrefix);
        }
        if let Some((_, k)) = monitor.starvation() {
            if ctr > *k {
                return Some(ViolationKind::Starvation);
            }
        }
        if graph.node_terminal(node).is_some() && !monitor.dfa.accepting[q as usize] {
            return Some(ViolationKind::TerminalRejects);
        }
        None
    };

    let root: Prod = (0, monitor.dfa.start as u32, 0);
    seen.insert(root);
    if let Some(kind) = classify(root) {
        return violation(&parents, root, kind);
    }
    queue.push_back(root);

    while let Some((node, q, ctr)) = queue.pop_front() {
        for (ei, edge) in graph.out_edges(node).enumerate() {
            // Labels resolve against the edge's target, read in place.
            let target = graph.node_view(edge.target);
            let mut q2 = q as usize;
            for event in edge.events {
                let sym = monitor.symbol(event, &target);
                q2 = monitor.dfa.delta[q2][sym as usize];
            }
            let ctr2 = starve.fold(node, ei, edge, ctr);
            let prod: Prod = (edge.target, q2 as u32, ctr2);
            if seen.insert(prod) {
                parents.insert(prod, ((node, q, ctr), ei as u32));
                if let Some(kind) = classify(prod) {
                    return violation(&parents, prod, kind);
                }
                queue.push_back(prod);
            }
        }
    }
    SpecReport { holds: true, exhaustive, violation: None }
}

/// One `(watched_enabled, watched_acts)` flag pair per hop of an edge.
type HopEffects = Vec<(bool, bool)>;

/// Per-edge starvation bookkeeping, memoized: for each hop of each
/// edge, whether any task with the watched label had an enabled choice
/// at the hop's source, and whether the hop's actor carries the label.
struct StarvationCtx<'g> {
    graph: &'g StateGraph,
    interp: &'g Interp,
    label: Option<String>,
    k: u32,
    /// `effects[node][edge]` = per-hop (watched_enabled, watched_acts),
    /// filled lazily.
    effects: std::cell::RefCell<FxHashMap<(u32, u32), HopEffects>>,
}

impl<'g> StarvationCtx<'g> {
    fn new(
        graph: &'g StateGraph,
        interp: &'g Interp,
        starvation: Option<&(String, u32)>,
    ) -> StarvationCtx<'g> {
        StarvationCtx {
            graph,
            interp,
            label: starvation.map(|(l, _)| l.clone()),
            k: starvation.map(|&(_, k)| k).unwrap_or(0),
            effects: std::cell::RefCell::new(FxHashMap::default()),
        }
    }

    /// Fold one edge's hops into the consecutive-enabled-skip counter:
    /// reset when the watched task acts, increment when it sits
    /// enabled while another acts, hold when it is disabled. Counters
    /// cap at `k + 1` (the violation threshold) to bound the product.
    fn fold(&self, node: u32, ei: usize, edge: GraphEdge<'_>, ctr: u32) -> u32 {
        let Some(label) = &self.label else { return 0 };
        let mut effects = self.effects.borrow_mut();
        let hops = effects.entry((node, ei as u32)).or_insert_with(|| {
            let mut state = self.graph.node_state(node);
            let mut out = Vec::with_capacity(edge.picks.len());
            for &pick in edge.picks {
                let choices = self.interp.choices(&state);
                let enabled = choices.iter().any(|c| state.task(choice_task(c)).label == *label);
                let choice = choices.get(pick).expect("stored pick in range").clone();
                let watched_acts = state.task(choice_task(&choice)).label == *label;
                out.push((enabled, watched_acts));
                self.interp
                    .apply(&mut state, &choice)
                    .expect("replay of stored picks cannot fault");
            }
            out
        });
        let mut c = ctr;
        for &(enabled, watched_acts) in hops.iter() {
            if watched_acts {
                c = 0;
            } else if enabled {
                c = (c + 1).min(self.k + 1);
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{Limits, Reduction, Visibility};
    use crate::figures;

    fn printed(text: &str) -> EventPattern {
        EventPattern::any(EventKindPattern::Printed { text: text.into() })
    }

    /// Reference trace semantics, written directly from the operator
    /// definitions (no automata): `trace[i][j]` = does event `i` match
    /// alphabet pattern `j`.
    fn ref_eval(spec: &Spec, alphabet: &[EventPattern], trace: &[Vec<bool>]) -> bool {
        let idx = |p: &EventPattern| alphabet.iter().position(|q| q == p).expect("in alphabet");
        match spec {
            Spec::Eventually { pattern } => {
                let i = idx(pattern);
                trace.iter().any(|m| m[i])
            }
            Spec::Precedes { first, then } => {
                let (f, t) = (idx(first), idx(then));
                trace.iter().enumerate().all(|(i, m)| !m[t] || trace[..=i].iter().any(|m| m[f]))
            }
            Spec::RespondsTo { request, response } => {
                let (rq, rs) = (idx(request), idx(response));
                !trace.iter().fold(false, |pend, m| (pend && !m[rs]) || m[rq])
            }
            Spec::NeverBetween { open, close, forbidden } => {
                let (o, c, f) = (idx(open), idx(close), idx(forbidden));
                let mut inside = false;
                for m in trace {
                    if inside {
                        if m[f] {
                            return false;
                        }
                        if m[c] {
                            inside = m[o];
                            continue;
                        }
                    } else if m[o] {
                        inside = true;
                    }
                }
                true
            }
            Spec::Mutex { left, right } => {
                let (le, lx) = (idx(&left.enter), idx(&left.exit));
                let (re, rx) = (idx(&right.enter), idx(&right.exit));
                let (mut l, mut r) = (0u32, 0u32);
                for m in trace {
                    let bump = |c: u32, e: usize, x: usize| {
                        let c = if m[x] { c.saturating_sub(1) } else { c };
                        if m[e] {
                            (c + 1).min(REGION_CAP)
                        } else {
                            c
                        }
                    };
                    l = bump(l, le, lx);
                    r = bump(r, re, rx);
                    if l > 0 && r > 0 {
                        return false;
                    }
                }
                true
            }
            Spec::Not(s) => !ref_eval(s, alphabet, trace),
            Spec::And(a, b) => ref_eval(a, alphabet, trace) && ref_eval(b, alphabet, trace),
            Spec::NoStarvation { .. } => true,
        }
    }

    fn splitmix(seed: &mut u64) -> u64 {
        *seed = seed.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// A random spec over the 3-pattern alphabet `a`, `b`, `c`.
    fn random_spec(seed: &mut u64, depth: u32) -> Spec {
        let pats = [printed("a"), printed("b"), printed("c")];
        let p = |seed: &mut u64| pats[(splitmix(seed) % 3) as usize].clone();
        let op = splitmix(seed) % if depth == 0 { 5 } else { 7 };
        match op {
            0 => Spec::eventually(p(seed)),
            1 => Spec::precedes(p(seed), p(seed)),
            2 => Spec::responds_to(p(seed), p(seed)),
            3 => Spec::never_between(p(seed), p(seed), p(seed)),
            4 => Spec::mutex(Region::new(p(seed), p(seed)), Region::new(p(seed), p(seed))),
            5 => random_spec(seed, depth - 1).negate(),
            _ => random_spec(seed, depth - 1).and(random_spec(seed, depth - 1)),
        }
    }

    #[test]
    fn monitor_agrees_with_reference_semantics_on_random_traces() {
        let mut seed = 0xC0FFEE;
        for round in 0..200 {
            let spec = random_spec(&mut seed, 2);
            let alphabet = spec.alphabet();
            let monitor = spec.compile().expect("compiles");
            for _ in 0..20 {
                let len = (splitmix(&mut seed) % 7) as usize;
                let syms: Vec<u16> = (0..len)
                    .map(|_| (splitmix(&mut seed) % (1 << alphabet.len() as u32)) as u16)
                    .collect();
                let trace: Vec<Vec<bool>> = syms
                    .iter()
                    .map(|s| (0..alphabet.len()).map(|i| s & (1 << i) != 0).collect())
                    .collect();
                assert_eq!(
                    monitor.accepts_symbols(&syms),
                    ref_eval(&spec, &alphabet, &trace),
                    "round {round}: {spec:?} on {syms:?}"
                );
            }
        }
    }

    #[test]
    fn determinization_is_idempotent() {
        let mut seed = 0xDECAF;
        for _ in 0..60 {
            let spec = random_spec(&mut seed, 2);
            let monitor = spec.compile().expect("compiles");
            // `compile` ends with one determinize pass — the canonical
            // form — so a second pass must be the structural identity.
            let again = monitor.dfa.determinize();
            assert_eq!(again, monitor.dfa, "{spec:?}");
        }
    }

    #[test]
    fn negation_is_involutive() {
        let mut seed = 0xBEEF;
        for _ in 0..60 {
            let spec = random_spec(&mut seed, 1);
            let direct = spec.compile().expect("compiles");
            let doubled = spec.clone().negate().negate().compile().expect("compiles");
            assert_eq!(
                doubled.dfa, direct.dfa,
                "double complement must be the structural identity after \
                 canonical determinization: {spec:?}"
            );
        }
    }

    #[test]
    fn monitors_are_stutter_invariant() {
        let mut seed = 0x5EED;
        for _ in 0..60 {
            let spec = random_spec(&mut seed, 2);
            let monitor = spec.compile().expect("compiles");
            assert!(monitor.dfa.stutter_invariant(), "{spec:?}");
        }
    }

    /// All complete traces of a small graph, as symbol sequences —
    /// the brute-force oracle for graph verdicts. DFS with a path
    /// bound (the test graphs are acyclic enough for the bound to
    /// never bind).
    fn enumerate_traces(
        graph: &StateGraph,
        monitor: &Monitor,
        node: u32,
        prefix: &mut Vec<u16>,
        out: &mut Vec<(Vec<u16>, bool)>,
    ) {
        if graph.node_terminal(node).is_some() {
            out.push((prefix.clone(), true));
            return;
        }
        let state_of = |id: u32| graph.node_state(id);
        for edge in graph.out_edges(node) {
            let target_state = state_of(edge.target);
            let before = prefix.len();
            for event in edge.events {
                prefix.push(monitor.symbol(event, &target_state));
            }
            enumerate_traces(graph, monitor, edge.target, prefix, out);
            prefix.truncate(before);
        }
    }

    #[test]
    fn graph_verdicts_match_trace_enumeration_oracle() {
        let mut seed = 0xFACADE;
        let sources = [figures::FIG3_TWO_PRINTS, figures::FIG3_INTERLEAVED];
        for src in sources {
            let interp = Interp::from_source(src).expect("compiles");
            let graph = StateGraph::build(
                &interp,
                Limits::default(),
                Reduction::NONE,
                Visibility::NONE,
                1,
                Vec::new(),
            )
            .expect("builds");
            for _ in 0..40 {
                let spec = random_spec(&mut seed, 1);
                let monitor = spec.compile().expect("compiles");
                let mut traces = Vec::new();
                enumerate_traces(&graph, &monitor, 0, &mut Vec::new(), &mut traces);
                let oracle_holds = traces.iter().all(|(syms, _)| monitor.accepts_symbols(syms));
                let report = check_on_graph(&graph, &interp, &monitor);
                assert_eq!(report.holds, oracle_holds, "{spec:?} on {src:?}");
                assert!(report.exhaustive);
                if let Some(v) = &report.violation {
                    // The counterexample's own projection must be
                    // rejected (prefix doomed or terminal-rejecting).
                    let state = graph.node_state(0);
                    let syms: Vec<u16> =
                        v.evidence.events.iter().map(|e| monitor.symbol(e, &state)).collect();
                    match v.kind {
                        ViolationKind::TerminalRejects => {
                            assert!(!monitor.accepts_symbols(&syms), "{spec:?}")
                        }
                        ViolationKind::BadPrefix => {
                            // Every completion of a doomed prefix is
                            // rejected; spot-check via the oracle.
                            assert!(
                                traces
                                    .iter()
                                    .filter(|(t, _)| t.starts_with(&syms) || syms.starts_with(t))
                                    .all(|(t, _)| !monitor.accepts_symbols(t))
                                    || !monitor.accepts_symbols(&syms),
                                "{spec:?}"
                            );
                        }
                        ViolationKind::Starvation => unreachable!("no fairness here"),
                    }
                }
            }
        }
    }

    #[test]
    fn violation_counterexamples_are_replayable() {
        // FIG3_TWO_PRINTS can print "world " before "hello " — the
        // precedence spec is violated and the evidence must replay to
        // exactly the recorded event sequence.
        let interp = Interp::from_source(figures::FIG3_TWO_PRINTS).expect("compiles");
        let graph = StateGraph::build(
            &interp,
            Limits::default(),
            Reduction::default(),
            Visibility::NONE,
            1,
            Vec::new(),
        )
        .expect("builds");
        let spec = Spec::precedes(printed("hello "), printed("world "));
        let monitor = spec.compile().expect("compiles");
        let report = check_on_graph(&graph, &interp, &monitor);
        assert!(!report.holds);
        let v = report.violation.expect("violated");
        assert_eq!(v.kind, ViolationKind::BadPrefix);
        let mut sched = crate::schedule::ReplayScheduler::new(v.evidence.decisions.clone());
        let run = crate::schedule::run(&interp, &mut sched, 10_000).expect("replays");
        assert!(
            run.events.starts_with(&v.evidence.events)
                || v.evidence.events.starts_with(&run.events),
            "replayed events must realize the counterexample"
        );
    }

    #[test]
    fn fairness_flags_starvation_and_bounds_hold() {
        // Two printers: a scheduler may run one to completion while
        // the other sits enabled — 2 enabled-skips exist, so k=1 is
        // violated; any k at least the loser's idle span holds.
        let interp = Interp::from_source(figures::FIG3_TWO_PRINTS).expect("compiles");
        let graph = StateGraph::build(
            &interp,
            Limits::default(),
            Reduction::NONE,
            Visibility::NONE,
            1,
            Vec::new(),
        )
        .expect("builds");
        let tight = Spec::no_starvation("PRINT \"hello \"", 0).compile().expect("compiles");
        let report = check_on_graph(&graph, &interp, &tight);
        assert!(!report.holds, "k=0 must be starvable");
        assert_eq!(report.violation.expect("violation").kind, ViolationKind::Starvation);
        let loose = Spec::no_starvation("PRINT \"hello \"", 64).compile().expect("compiles");
        assert!(check_on_graph(&graph, &interp, &loose).holds, "k=64 covers the whole program");
    }

    #[test]
    fn fairness_rejects_negation_and_token_grading() {
        let err = Spec::no_starvation("t", 3).negate().compile();
        assert!(err.is_err(), "negated fairness must be rejected");
        let monitor = Spec::no_starvation("t", 3).compile().expect("compiles");
        assert!(monitor.grade_tokens(&[1]).is_err());
    }

    #[test]
    fn token_grading_matches_symbol_grading() {
        let spec = Spec::precedes(printed("1"), printed("2"));
        let monitor = spec.compile().expect("compiles");
        assert!(monitor.grade_tokens(&[1, 2]).expect("gradable"));
        assert!(monitor.grade_tokens(&[]).expect("gradable"));
        assert!(!monitor.grade_tokens(&[2, 1]).expect("gradable"));
        assert_eq!(monitor.grade_token_prefix(&[2]).expect("gradable"), Some(false));
        assert_eq!(monitor.grade_token_prefix(&[1]).expect("gradable"), Some(true));
        let reply = Spec::responds_to(printed("1"), printed("2")).compile().expect("compiles");
        assert_eq!(
            reply.grade_token_prefix(&[1]).expect("gradable"),
            None,
            "pending-but-live prefixes are inconclusive"
        );
        let labelled =
            Spec::eventually(EventPattern::by("t", EventKindPattern::Printed { text: "1".into() }))
                .compile()
                .expect("compiles");
        assert!(labelled.grade_tokens(&[1]).is_err(), "labelled patterns need states");
    }

    #[test]
    fn validate_against_flags_unknown_names() {
        let program = concur_pseudocode::parse(figures::FIG4_EXC_ACC).expect("parses");
        let alphabet = concur_pseudocode::analysis::event_alphabet(&program);
        let ok = Spec::precedes(
            EventPattern::any(EventKindPattern::Called { func: "changeX".into() }),
            EventPattern::any(EventKindPattern::Released),
        );
        assert!(ok.validate_against(&alphabet).is_ok());
        let bad_func =
            Spec::eventually(EventPattern::any(EventKindPattern::Called { func: "nosuch".into() }));
        assert!(bad_func.validate_against(&alphabet).is_err());
        let lockfree = concur_pseudocode::analysis::event_alphabet(
            &concur_pseudocode::parse(figures::FIG3_TWO_PRINTS).expect("parses"),
        );
        let locks = Spec::eventually(EventPattern::any(EventKindPattern::Acquired));
        assert!(locks.validate_against(&lockfree).is_err());
        let prints = Spec::eventually(printed("anything"));
        assert!(prints.validate_against(&lockfree).is_ok(), "print alphabet is open");
    }

    #[test]
    fn alphabet_dedups_and_caps() {
        let spec = Spec::precedes(printed("a"), printed("b")).and(Spec::eventually(printed("a")));
        assert_eq!(spec.alphabet().len(), 2);
        let wide = (0..9)
            .map(|i| Spec::eventually(printed(&format!("t{i}"))))
            .reduce(Spec::and)
            .expect("nonempty");
        assert!(wide.compile().is_err(), "alphabets beyond the cap must be rejected");
    }
}
