//! Exhaustive interleaving exploration (a small explicit-state model
//! checker): the query vocabulary and the expansion planner.
//!
//! The paper's figures describe programs by their *set of possible
//! outputs* ("possibility 1: hello world / possibility 2: world
//! hello") and its Test-1 questions ask whether a scenario *could*
//! happen from a given situation. Both are reachability questions over
//! the interleaving space, and one engine answers them: the
//! level-synchronized graph builder ([`crate::graph`]), reached through
//! [`crate::session::Session`] or through [`Explorer`], a session that
//! stores nothing. This module holds what every query shares (bounds,
//! the reduction stack, answers and statistics) and the planner that
//! decides how the builder expands each node.
//!
//! Two optimizations keep the search tractable:
//!
//! * **State interning** (the private `intern` module): nodes hold a
//!   `StateSig` (eight words) instead of a full [`State`], and the
//!   visited set stores exact signatures — no reliance on 64-bit state
//!   hashes being collision-free.
//! * **Partial-order reduction** ([`crate::footprint`]): at a state
//!   where one task's enabled transitions provably commute with
//!   everything every other live task can still do — and are invisible
//!   to the active query — only that task's transitions are expanded
//!   (an *ample set*). A cycle proviso (every ample successor
//!   unvisited) prevents the ignoring problem; any unknown footprint
//!   falls back to full expansion.
//!
//! The reference the builder is tested against shares none of this
//! code: [`crate::oracle`] searches full states, unreduced.

use crate::event::{Event, EventPattern, StateCond};
use crate::footprint::Footprint;
use crate::intern::{canonicalize_live, FxHashMap, FxHashSet, Interner, StateSig};
use crate::interp::{Choice, Interp};
use crate::session::Session;
use crate::state::{State, TaskId, TaskStatus};
use crate::value::RuntimeError;
use std::cell::OnceCell;
use std::collections::hash_map::Entry;
use std::collections::BTreeSet;
use std::time::Duration;

/// Exploration bounds. Exploration is exact when neither bound is hit;
/// results report whether truncation occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Maximum distinct states a graph build stores.
    pub max_states: usize,
    /// Maximum path depth in stored states.
    pub max_depth: usize,
    /// Maximum setup states examined by [`Explorer::can_happen`].
    pub max_setup_states: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_states: 200_000, max_depth: 10_000, max_setup_states: 4096 }
    }
}

/// The pluggable reduction stack: which state-space reductions an
/// exploration applies. The three layers compose — each shrinks the
/// explored graph along an independent axis — and every layer
/// preserves the answers the public API exposes (terminal sets,
/// `can_happen`, `admits_trace`):
///
/// * **`por`** — ample-set partial-order reduction with corridor
///   compression (see the planner's `try_ample`). Prunes commuting
///   *interleavings* of invisible transitions.
/// * **`symmetry`** — orbit canonicalization for `PARA SYMMETRIC`
///   blocks (see [`crate::intern::canonicalize_symmetry`]): every
///   state is rewritten to its orbit representative before interning,
///   so the state graph is the quotient graph. A no-op (and free
///   after one cheap scan) for programs with no symmetric blocks.
/// * **`sleep`** — sleep sets layered on the ample-set planner:
///   remembers, per node, which tasks' invisible steps are already
///   covered by a sibling branch and skips them. Off by default; it
///   changes state/transition *counts* (never answers), so the golden
///   statistics suites pin it off.
///
/// Explorers and sessions start from [`Reduction::default`]; the
/// builders ([`Explorer::with_reduction`], [`Explorer::without_por`])
/// change it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reduction {
    /// Ample-set partial-order reduction.
    pub por: bool,
    /// Symmetry quotienting for `PARA SYMMETRIC` blocks.
    pub symmetry: bool,
    /// Sleep sets on top of the ample planner.
    pub sleep: bool,
}

impl Default for Reduction {
    /// POR and symmetry on, sleep off — the stack every constructor
    /// starts from.
    fn default() -> Self {
        Reduction { por: true, symmetry: true, sleep: false }
    }
}

impl Reduction {
    /// No reduction at all: plain exhaustive search.
    pub const NONE: Reduction = Reduction { por: false, symmetry: false, sleep: false };
    /// Every layer on.
    pub const FULL: Reduction = Reduction { por: true, symmetry: true, sleep: true };
}

/// Maximum hops folded into one corridor-compressed edge (see
/// `Planner::compress_corridor`). Bounds the work any single edge
/// can do on an infinite-state program; real corridors (drain loops,
/// post-branching wind-downs) are far shorter, and a longer one just
/// continues from the edge's end node.
const CORRIDOR_MAX: usize = 256;

/// Statistics from one exploration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub states_visited: usize,
    /// Edges that reached an already-stored state (the visited-set hit
    /// count). For a fixed program explored without POR,
    /// `states_visited + states_deduped` equals the transition count
    /// plus the root count — conserved across any exploration order, so
    /// graph builds agree on it at every worker count.
    pub states_deduped: usize,
    pub transitions: usize,
    /// Whether any bound was hit (results are then lower bounds).
    pub truncated: bool,
    /// States expanded with an ample subset instead of all choices.
    pub por_ample_states: usize,
    /// Enabled choices skipped at those states (each prunes a whole
    /// subtree's worth of interleavings, not one transition).
    pub por_pruned_choices: usize,
    /// States whose interned form is a *different* member of their
    /// symmetry orbit than the one the transition produced — i.e. the
    /// orbit canonicalization actually permuted something. Zero when
    /// the symmetry layer is off or the program has no `PARA
    /// SYMMETRIC` blocks.
    pub states_canonicalized: usize,
    /// Enabled choices skipped because their task was in the node's
    /// sleep set (each, like a POR-pruned choice, cuts a whole
    /// subtree of interleavings). Zero when the sleep layer is off.
    pub sleep_pruned: usize,
    /// Wall-clock time of the exploration.
    pub wall: Duration,
    /// Queries served from a memoized state graph (see
    /// [`crate::session::Session`]). Always zero for an [`Explorer`],
    /// which stores nothing.
    pub cache_hits: usize,
    /// Queries that had to build (or rebuild) their state graph: every
    /// [`Explorer`] query does.
    pub cache_misses: usize,
    /// Time spent materializing the state graph this answer was read
    /// from. On a cache hit this reports the *original* build cost —
    /// the time the hit avoided — while [`Stats::wall`] reports what
    /// the query actually took.
    pub build_wall: Duration,
    /// Time spent traversing the already-built graph (setup discovery
    /// plus witness search, or the terminal-set read).
    pub query_wall: Duration,
    /// Cold tenant graphs this query's admission evicted from a
    /// [`crate::server::Server`] under budget pressure. Zero outside
    /// the server path.
    pub cache_evictions: usize,
    /// Whether this query parked behind another client's in-flight
    /// build of the same graph (single-flight deduplication — see
    /// [`crate::server::Server`]); 1 if it parked, else 0.
    pub parked_waiters: usize,
    /// Whether this query's graph came from the server's disk store
    /// (a warm restart) instead of a fresh build; 1 or 0.
    pub disk_loads: usize,
    /// Longest probe sequence any interner operation walked (a peak).
    /// A growing value indicates hash clustering or a segment
    /// spilling.
    pub probe_len_max: usize,
    /// Insert CAS attempts that lost to a concurrent insert in the
    /// interner's lock-free tables. Only a graph build on several
    /// workers can race; zero for one-worker builds.
    pub claim_cas_retries: usize,
    /// Slot bytes reserved in the interner's payload arenas (summed;
    /// payload heap behind the slots — strings, maps — is not
    /// counted). These three counters read the interner alone: the
    /// visited set (`Visited`) is an ordinary map outside them.
    pub arena_bytes: usize,
}

impl Stats {
    /// Fold the membership layer's contention counters into this
    /// run's statistics. Called once per exploration, at its end: the
    /// counters are read from the tables themselves, never summed from
    /// per-node stats, so nothing is counted twice.
    pub(crate) fn note_contention(&mut self, c: crate::intern::Contention) {
        self.probe_len_max = self.probe_len_max.max(c.probe_len_max);
        self.claim_cas_retries += c.claim_cas_retries;
        self.arena_bytes += c.arena_bytes;
    }
}

/// A terminal state of the program (no enabled transitions).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Terminal {
    /// Normalized output (see [`crate::state::Output::normalized`]).
    pub output: String,
    pub outcome: TerminalKind,
}

/// Outcome classification for terminals (mirrors
/// [`crate::interp::Outcome`] but orderable for sets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TerminalKind {
    AllDone,
    Quiescent,
    Deadlock,
}

/// Result of enumerating every terminal.
#[derive(Debug)]
pub struct TerminalSet {
    pub terminals: BTreeSet<Terminal>,
    pub stats: Stats,
}

impl TerminalSet {
    /// The distinct normalized outputs of *successful* terminals
    /// (AllDone or Quiescent).
    pub fn outputs(&self) -> Vec<String> {
        self.terminals
            .iter()
            .filter(|t| t.outcome != TerminalKind::Deadlock)
            .map(|t| t.output.clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    }

    /// [`TerminalSet::outputs`] as an owned set — the membership oracle
    /// the conformance harness queries once per fuzzed schedule.
    pub fn output_set(&self) -> BTreeSet<String> {
        self.outputs().into_iter().collect()
    }

    /// Membership query: is `output` the normalized output of some
    /// *successful* terminal? This is the differential oracle's inner
    /// check — an observed runtime terminal state conforms exactly when
    /// its canonical observation is in this set.
    pub fn contains_output(&self, output: &str) -> bool {
        self.terminals.iter().any(|t| t.outcome != TerminalKind::Deadlock && t.output == output)
    }

    /// Whether any interleaving deadlocks.
    pub fn has_deadlock(&self) -> bool {
        self.terminals.iter().any(|t| t.outcome == TerminalKind::Deadlock)
    }
}

/// Verdict for a "could this happen?" question.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// Reachable; `witness` is one event trace (from the setup state)
    /// realizing the scenario.
    Yes { witness: Vec<Event> },
    /// Unreachable. `exhaustive` is true when the full space was
    /// searched (a definitive NO); false when bounds truncated the
    /// search.
    No { exhaustive: bool },
    /// No reachable state satisfies the setup conditions, so the
    /// question is vacuous (usually a mistake in the question).
    SetupUnreachable { exhaustive: bool },
}

impl Answer {
    pub fn is_yes(&self) -> bool {
        matches!(self, Answer::Yes { .. })
    }

    /// `true` exactly for a definitive NO.
    pub fn is_definitive_no(&self) -> bool {
        matches!(self, Answer::No { exhaustive: true })
    }
}

/// What the active search can observe; transitions that could affect
/// any of it are *visible* and are never pruned into an ample set.
#[derive(Clone, Copy)]
pub(crate) struct Visibility<'v> {
    /// Event patterns the query can match. A transition is visible
    /// only if one of its predicted emits could match one of these
    /// (task label, function and message name/payload included — not
    /// just the event kind).
    pub(crate) patterns: &'v [EventPattern],
    /// State conditions the query evaluates.
    pub(crate) conds: &'v [StateCond],
}

impl Visibility<'_> {
    #[cfg(test)]
    pub(crate) const NONE: Visibility<'static> = Visibility { patterns: &[], conds: &[] };

    /// Whether a footprint is fully resolved and invisible to the
    /// active query and watched conditions.
    fn invisible(self, fp: &Footprint<'_>) -> bool {
        !(fp.unknown || fp.may_match_patterns(self.patterns) || fp.affects_conds(self.conds))
    }
}

/// The footprints of one planned state's choices, each resolved on
/// first use and kept until the plan is made. The sleep-set filter,
/// the singleton test, the ample search and the full expansion all
/// compare the same footprints, so each choice's is computed at most
/// once per planned state.
pub(crate) struct ChoiceFootprints<'s> {
    interp: &'s Interp,
    state: &'s State,
    choices: &'s [Choice],
    memo: Vec<OnceCell<Footprint<'s>>>,
}

impl<'s> ChoiceFootprints<'s> {
    fn new(interp: &'s Interp, state: &'s State, choices: &'s [Choice]) -> Self {
        ChoiceFootprints { interp, state, choices, memo: vec![OnceCell::new(); choices.len()] }
    }

    /// The footprint of choice `i`.
    fn get(&self, i: usize) -> &Footprint<'s> {
        self.memo[i].get_or_init(|| self.interp.choice_footprint(self.state, &self.choices[i]))
    }

    /// Whether choice `i` is fully resolved and invisible.
    fn invisible(&self, i: usize, visibility: Visibility<'_>) -> bool {
        visibility.invisible(self.get(i))
    }
}

/// A precomputed successor edge: the interned signature of the state
/// it reaches, the events emitted along the way (one step, or many
/// for a corridor-compressed edge), and the choice indices taken — one
/// entry per atomic step, each an index into the *unfiltered*
/// [`Interp::choices`] list at that hop, so concatenating them along a
/// path yields a decision vector [`crate::schedule::ReplayScheduler`]
/// can replay and [`crate::graph::StateGraph::from_bytes`] can re-derive
/// without any sleep context.
pub(crate) type Succ = (StateSig, Vec<Event>, Vec<usize>);

/// A node's sleep set: a bitmask over [`TaskId`]s (bit `i` set means
/// task `i` is asleep — its transitions here are already covered by an
/// earlier-explored sibling branch). Tasks with id ≥ 128 are simply
/// never slept: the reduction stays sound, just less sharp, on
/// programs with more than 128 tasks.
pub(crate) type SleepSet = u128;

/// Whether task `t` is in sleep set `z`.
pub(crate) fn sleep_has(z: SleepSet, t: TaskId) -> bool {
    t.0 < 128 && z & (1u128 << t.0) != 0
}

/// The singleton sleep set for `t` (empty for ids ≥ 128).
fn sleep_bit(t: TaskId) -> SleepSet {
    if t.0 < 128 {
        1u128 << t.0
    } else {
        0
    }
}

/// Rewrite a sleep set through a canonicalizing task permutation
/// (`perm[old] = new`): the mask was computed in the parent's task
/// numbering, but the normalized child's tasks were renumbered, so
/// each sleeping bit must follow its task. Bits beyond the permuted
/// range (tasks ≥ 128 never sleep anyway) pass through unchanged.
pub(crate) fn remap_sleep(z: SleepSet, perm: Option<&[usize]>) -> SleepSet {
    let Some(perm) = perm else { return z };
    if z == 0 {
        return z;
    }
    let mut out = 0u128;
    let mut m = z;
    while m != 0 {
        let t = m.trailing_zeros() as usize;
        m &= m - 1;
        out |= if t < perm.len() { 1u128 << perm[t] } else { 1u128 << t };
    }
    out
}

/// The task a choice belongs to.
pub(crate) fn choice_task(choice: &Choice) -> TaskId {
    match choice {
        Choice::Step(t) => *t,
        Choice::Receive { task, .. } => *task,
    }
}

/// The index range of `task`'s choices in a list [`Interp::choices`]
/// built: it lists each task's choices contiguously, in ascending task
/// order.
fn task_run(choices: &[Choice], task: TaskId) -> std::ops::Range<usize> {
    choices.partition_point(|c| choice_task(c) < task)
        ..choices.partition_point(|c| choice_task(c) <= task)
}

/// A planned node's successors, applied. `sleeps` runs parallel to
/// `succs` and carries each child's sleep set; an empty vector means
/// all-zero (the common case when the sleep layer is off — no
/// allocation).
#[derive(Default)]
pub(crate) struct Expansion {
    pub(crate) succs: Vec<Succ>,
    pub(crate) sleeps: Vec<SleepSet>,
}

/// An accepted ample expansion: the applied successors, the successor
/// *states* themselves (parallel to `succs` — selection had to build
/// them anyway, and corridor compression consumes them instead of
/// re-materializing each hop from the interner), their child sleep
/// sets, and how many enabled choices the sleep layer pruned outright
/// at the source state.
pub(crate) type AmpleOut = (Vec<Succ>, Vec<State>, Vec<SleepSet>, usize);

/// Ends a key's chain of admissions in [`Visited`].
const LAST: u32 = u32::MAX;

/// The graph builder's visited set: states under the sleep-aware
/// *superset rule*. An arrival is covered when an admission of its
/// state recorded a sleep set that is a subset of the arrival's, since
/// that visit explored at least everything this one would. An arrival
/// nothing covers is admitted, so a state may be admitted several
/// times, under incomparable sleep sets. With the sleep layer off
/// every set is empty and the rule is plain membership.
///
/// Admissions are numbered from 0 in order, and they are the builder's
/// node ids. The map sends a signature to its first admission; each
/// admission's sleep set and the next admission of the same signature
/// live in side vectors, so a bucket holds only a signature and an
/// index.
#[derive(Default)]
pub(crate) struct Visited {
    first: FxHashMap<StateSig, u32>,
    sleeps: Vec<SleepSet>,
    /// The next admission of the same signature, or [`LAST`].
    next: Vec<u32>,
}

impl Visited {
    /// The earliest admission of `sig` whose sleep set is a subset of
    /// `sleep`, if any.
    pub(crate) fn covering(&self, sig: StateSig, sleep: SleepSet) -> Option<u32> {
        let mut at = *self.first.get(&sig)?;
        while self.sleeps[at as usize] & !sleep != 0 {
            at = self.next[at as usize];
            if at == LAST {
                return None;
            }
        }
        Some(at)
    }

    /// Admit `sig` under `sleep`, which no admission covers, and
    /// return the admission's index.
    pub(crate) fn admit(&mut self, sig: StateSig, sleep: SleepSet) -> u32 {
        let id = u32::try_from(self.sleeps.len()).expect("admission indexes fit u32");
        self.sleeps.push(sleep);
        self.next.push(LAST);
        match self.first.entry(sig) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(slot) => {
                let mut at = *slot.get() as usize;
                while self.next[at] != LAST {
                    at = self.next[at] as usize;
                }
                self.next[at] = id;
            }
        }
        id
    }

    /// Whether `sig` was admitted under any sleep set: the cycle
    /// proviso's notion of visited.
    pub(crate) fn contains(&self, sig: StateSig) -> bool {
        self.first.contains_key(&sig)
    }
}

/// The expansion planner: how the graph builder expands one node. It
/// reads the interner and the visited set as the previous level left
/// it, so a node's plan depends only on its state, the reduction
/// stack, the visibility and that snapshot — never on which worker
/// asked, or when.
#[derive(Clone, Copy)]
pub(crate) struct Planner<'a> {
    pub(crate) interp: &'a Interp,
    pub(crate) reduction: Reduction,
    pub(crate) visibility: Visibility<'a>,
    pub(crate) pools: &'a Interner,
    pub(crate) visited: &'a Visited,
}

impl Planner<'_> {
    /// Decide how to expand a node, and apply the plan: an ample
    /// subset if one task qualifies, otherwise all choices (minus any
    /// the sleep set covers). A resulting *singleton* invisible edge —
    /// whether a singleton ample set or the state's only enabled
    /// choice — is extended through its corridor (see
    /// [`Planner::compress_corridor`]) before becoming an edge.
    pub(crate) fn plan(
        &self,
        state: &State,
        choices: &[Choice],
        sleep: SleepSet,
        stats: &mut Stats,
    ) -> Result<Expansion, RuntimeError> {
        if !self.reduction.por && !self.reduction.sleep {
            // No layer compares footprints: every choice is expanded.
            return self.apply_each(state, choices, 0..choices.len(), Vec::new(), stats);
        }
        let footprints = ChoiceFootprints::new(self.interp, state, choices);
        // A task may stay asleep only while its sole enabled choice is
        // a resolved, invisible Step: a Send elsewhere can add Receive
        // choices to a task without any footprint conflict, so
        // sleeping through enabledness changes would be unsound.
        // Re-checked here, at the node the sleep set arrived at.
        let sleep = if self.reduction.sleep && sleep != 0 {
            self.retain_sleepable(&footprints, sleep)
        } else {
            0
        };
        if self.reduction.por {
            let first = if choices.len() > 1 {
                let ample = self.try_ample(&footprints, sleep, stats)?;
                if let Some((succs, _, _, slept)) = &ample {
                    stats.por_ample_states += 1;
                    stats.por_pruned_choices += choices.len() - succs.len() - slept;
                    stats.sleep_pruned += slept;
                    stats.transitions += succs.len();
                }
                ample
            } else if choices.len() == 1 && footprints.invisible(0, self.visibility) {
                if sleep_has(sleep, choice_task(&choices[0])) {
                    // The state's only transition is already covered
                    // by the sibling branch that put its task to
                    // sleep: nothing to expand here.
                    stats.sleep_pruned += 1;
                    return Ok(Expansion::default());
                }
                // `retain_sleepable` keeps only sleepers with a choice
                // here, and this choice's task is awake, so the sleep
                // set is empty and so is the child's.
                debug_assert_eq!(sleep, 0);
                // A forced invisible step: no interleaving exists to
                // defer, so take it eagerly — it may seed a corridor.
                let mut next = state.clone();
                let events = self.interp.apply(&mut next, &choices[0])?;
                self.normalize(&mut next, stats);
                stats.transitions += 1;
                Some((vec![(self.pools.intern(&next), events, vec![0])], vec![next], Vec::new(), 0))
            } else {
                None
            };
            if let Some((mut succs, mut states, sleeps, _)) = first {
                // Corridor compression needs no per-hop sleep
                // bookkeeping only when the sleep set is empty (it
                // then stays empty through every hop) — exactly the
                // always-true condition when the sleep layer is off.
                if succs.len() == 1 && sleep == 0 {
                    let seed = succs.pop().expect("singleton");
                    let seed_state = states.pop().expect("state per successor");
                    succs.push(self.compress_corridor(seed, seed_state, stats)?);
                }
                return Ok(Expansion { succs, sleeps });
            }
        }
        if self.reduction.sleep {
            // Even with an empty incoming sleep set the full expansion
            // must *seed* child sleeps: branch i's children put earlier
            // independent siblings to sleep, which is where every
            // non-empty sleep set originates.
            return self.full_minus_sleep(&footprints, sleep, stats);
        }
        self.apply_each(state, choices, 0..choices.len(), Vec::new(), stats)
    }

    /// Canonical post-transition normalization: freeze the
    /// path-dependent step counter, then (when the symmetry layer is
    /// on) rewrite the state to its orbit representative so the
    /// interner hash-conses the whole orbit onto one signature.
    pub(crate) fn normalize(&self, state: &mut State, stats: &mut Stats) -> Option<Vec<usize>> {
        state.steps = 0;
        if self.reduction.symmetry {
            if let Some(perm) = self.pools.canonicalize_symmetry(state) {
                stats.states_canonicalized += 1;
                return Some(perm);
            }
        }
        None
    }

    /// Apply each of `picks` (indexes into `choices`) to a copy of
    /// `state`, one edge per pick, recorded under that pick. `sleeps`
    /// is empty or holds each child's sleep set in the parent's task
    /// numbering; each follows its child's canonicalizing permutation.
    fn apply_each(
        &self,
        state: &State,
        choices: &[Choice],
        picks: impl ExactSizeIterator<Item = usize>,
        sleeps: Vec<SleepSet>,
        stats: &mut Stats,
    ) -> Result<Expansion, RuntimeError> {
        let mut succs = Vec::with_capacity(picks.len());
        let mut remapped = Vec::with_capacity(sleeps.len());
        for (k, pick) in picks.enumerate() {
            let mut next = state.clone();
            let events = self.interp.apply(&mut next, &choices[pick])?;
            let perm = self.normalize(&mut next, stats);
            if let Some(z) = sleeps.get(k) {
                remapped.push(remap_sleep(*z, perm.as_deref()));
            }
            stats.transitions += 1;
            succs.push((self.pools.intern(&next), events, vec![pick]));
        }
        Ok(Expansion { succs, sleeps: remapped })
    }

    /// Keep only the sleepers that are still *sleepable* at this
    /// state: exactly one enabled choice, which is a Step with a
    /// resolved, invisible footprint. Receive choices never sleep.
    fn retain_sleepable(&self, footprints: &ChoiceFootprints<'_>, sleep: SleepSet) -> SleepSet {
        let choices = footprints.choices;
        let mut kept = 0u128;
        for (i, choice) in choices.iter().enumerate() {
            let t = choice_task(choice);
            if !sleep_has(sleep, t) || !matches!(choice, Choice::Step(_)) {
                continue;
            }
            if choices.iter().enumerate().any(|(j, c)| j != i && choice_task(c) == t) {
                continue;
            }
            if footprints.invisible(i, self.visibility) {
                kept |= sleep_bit(t);
            }
        }
        kept
    }

    /// Full expansion under the sleep layer: drop the slept tasks'
    /// choices and compute each kept child's sleep set — the
    /// carried-over sleepers that don't conflict with the taken step,
    /// plus every *earlier-explored* sleepable sibling task that
    /// doesn't (the classic sleep-set recurrence, at task
    /// granularity).
    fn full_minus_sleep(
        &self,
        footprints: &ChoiceFootprints<'_>,
        sleep: SleepSet,
        stats: &mut Stats,
    ) -> Result<Expansion, RuntimeError> {
        let choices = footprints.choices;
        // Which tasks are sleepable *at this state* (for the
        // earlier-sibling additions): sole choice, Step, resolved and
        // invisible.
        let mut sleepable = 0u128;
        for (i, choice) in choices.iter().enumerate() {
            let t = choice_task(choice);
            if matches!(choice, Choice::Step(_))
                && !choices.iter().enumerate().any(|(j, c)| j != i && choice_task(c) == t)
                && footprints.invisible(i, self.visibility)
            {
                sleepable |= sleep_bit(t);
            }
        }
        let kept: Vec<usize> =
            (0..choices.len()).filter(|&i| !sleep_has(sleep, choice_task(&choices[i]))).collect();
        stats.sleep_pruned += choices.len() - kept.len();
        let slept: Vec<usize> =
            (0..choices.len()).filter(|&i| sleep_has(sleep, choice_task(&choices[i]))).collect();
        let mut sleeps = Vec::with_capacity(kept.len());
        for (pos, &i) in kept.iter().enumerate() {
            let fp_taken = footprints.get(i);
            let mut z = 0u128;
            for &j in &slept {
                if !footprints.get(j).conflicts_with(fp_taken) {
                    z |= sleep_bit(choice_task(&choices[j]));
                }
            }
            for &j in &kept[..pos] {
                let u = choice_task(&choices[j]);
                if u != choice_task(&choices[i])
                    && sleepable & sleep_bit(u) != 0
                    && !footprints.get(j).conflicts_with(fp_taken)
                {
                    z |= sleep_bit(u);
                }
            }
            sleeps.push(z);
        }
        // Each pick is the survivor's index in the unfiltered list.
        self.apply_each(footprints.state, choices, kept.iter().copied(), sleeps, stats)
    }

    /// Corridor compression: a singleton invisible edge often leads
    /// into a chain of states that each have exactly one invisible
    /// successor — post-branching returns and joins, lock hand-offs,
    /// actor drain loops. Those interior states offer no interleaving
    /// and no observable effect, so the graph gains nothing by making
    /// them nodes; this walks the chain and returns its far end with
    /// the accumulated edge events. Interior states are *not* added to
    /// the visited set (that is the point — they are not counted in
    /// `states_visited`), so a path that converges into a corridor
    /// interior re-walks the suffix: duplicated work, never lost
    /// coverage.
    ///
    /// Soundness: every hop is either the state's only enabled choice
    /// (nothing deferred) or a singleton ample set (commutation per
    /// [`Planner::try_ample`]), and every hop is invisible, so query
    /// progress and all watched conditions are constant across the
    /// interior. The walk stops *before* terminals (they must surface
    /// as nodes), at any already-visited signature (the proviso), at a
    /// chain-local repeat (an invisible cycle), at any
    /// visible/unknown/branching step, and after [`CORRIDOR_MAX`] hops
    /// — a bound on single-edge work for infinite-state programs; the
    /// end node just seeds the next corridor.
    fn compress_corridor(
        &self,
        seed: Succ,
        seed_state: State,
        stats: &mut Stats,
    ) -> Result<Succ, RuntimeError> {
        let (mut sig, mut events, mut picks) = seed;
        let mut cur = seed_state;
        let mut interior: FxHashSet<StateSig> = FxHashSet::default();
        for _ in 0..CORRIDOR_MAX {
            if self.visited.contains(sig) || !interior.insert(sig) {
                break;
            }
            // The walk threads the live successor state instead of
            // round-tripping `sig` through `materialize` each hop —
            // that round-trip dominated build wall time (corridors run
            // ~20 hops per surviving node). `canonicalize_live` makes
            // `cur` byte-identical to `self.pools.materialize(sig)`, so
            // a path that re-enters this corridor mid-chain replays the
            // exact same states, events and picks.
            canonicalize_live(&mut cur);
            let choices = self.interp.choices(&cur);
            let hop = match choices.len() {
                0 => None,
                1 => {
                    if self.visibility.invisible(&self.interp.choice_footprint(&cur, &choices[0])) {
                        // The predecessor state is dead once the hop
                        // commits, so apply in place — no clone.
                        let evs = self.interp.apply(&mut cur, &choices[0])?;
                        self.normalize(&mut cur, stats);
                        stats.transitions += 1;
                        Some((self.pools.intern(&cur), evs, vec![0], None))
                    } else {
                        None
                    }
                }
                _ => {
                    // Corridors only run with an empty sleep set (see
                    // `plan`), and an empty set stays empty through a
                    // singleton hop, so pass sleep = 0.
                    let footprints = ChoiceFootprints::new(self.interp, &cur, &choices);
                    match self.try_ample(&footprints, 0, stats)? {
                        Some((succs, states, _, _)) if succs.len() == 1 => {
                            stats.por_ample_states += 1;
                            stats.por_pruned_choices += choices.len() - 1;
                            stats.transitions += 1;
                            let next = states.into_iter().next().expect("state per successor");
                            let (s, e, p) = succs.into_iter().next().expect("singleton");
                            Some((s, e, p, Some(next)))
                        }
                        // A branching ample set (or none) ends the
                        // corridor; the end node re-plans it, so the
                        // uncommitted result is simply discarded.
                        _ => None,
                    }
                }
            };
            match hop {
                Some((next_sig, evs, pk, next_state)) => {
                    sig = next_sig;
                    events.extend(evs);
                    picks.extend(pk);
                    if let Some(next) = next_state {
                        cur = next;
                    }
                }
                None => break,
            }
        }
        Ok((sig, events, picks))
    }

    /// Ample-set selection. A task's enabled choices form an ample set
    /// when:
    ///
    /// 1. every choice's footprint is fully resolved (no `unknown`),
    /// 2. no choice is visible — could emit an event the active query
    ///    observes, or change the truth of a condition it evaluates —
    ///    and
    /// 3. no choice's footprint conflicts with any *future* access of
    ///    any other live task (static per-pc summaries of its stacked
    ///    frames, plus the locks it holds or must re-acquire), and
    /// 4. every successor is an unvisited node (cycle proviso — with
    ///    the level-synchronized snapshot this forces at least one full
    ///    expansion around every cycle; see [`crate::graph`]).
    ///
    /// Tasks are tried in id order; the first that qualifies wins.
    /// Commits nothing to [`Stats`] — callers account for the ample
    /// states, pruned choices and transitions of the results they
    /// actually keep (a corridor probe may discard a branching set).
    fn try_ample(
        &self,
        footprints: &ChoiceFootprints<'_>,
        sleep: SleepSet,
        stats: &mut Stats,
    ) -> Result<Option<AmpleOut>, RuntimeError> {
        let (state, choices) = (footprints.state, footprints.choices);
        // The candidates are the runs of one task's choices, in task
        // order: the order `Interp::choices` lists them in.
        debug_assert!(
            choices.windows(2).all(|w| choice_task(&w[0]) <= choice_task(&w[1])),
            "choices are grouped by task in ascending order"
        );
        if choices.first().map(choice_task) == choices.last().map(choice_task) {
            return Ok(None);
        }

        let mut next_run = 0;
        'candidate: while next_run < choices.len() {
            let tid = choice_task(&choices[next_run]);
            let idxs = task_run(choices, tid);
            next_run = idxs.end;
            if !idxs.clone().all(|i| footprints.invisible(i, self.visibility)) {
                continue 'candidate;
            }
            // Accesses protected by the candidate's held locks cannot
            // race anything another task can reach before the
            // candidate's own release (see `shield_footprint`), so
            // the future-conflict test runs on shielded footprints.
            let candidate = state.task(tid);
            let shielded: Vec<_> = if candidate.held.is_empty() {
                Vec::new() // nothing held, nothing to shield
            } else {
                idxs.clone()
                    .map(|i| self.interp.shield_footprint(candidate, footprints.get(i)))
                    .collect()
            };
            for (o, other) in state.tasks.iter().enumerate() {
                if o == tid.0 || matches!(other.status, TaskStatus::Done) {
                    continue;
                }
                let conflicts = if shielded.is_empty() {
                    idxs.clone().any(|i| self.interp.future_conflicts(other, footprints.get(i)))
                } else {
                    shielded.iter().any(|fp| self.interp.future_conflicts(other, fp))
                };
                if conflicts {
                    continue 'candidate;
                }
            }
            if sleep_has(sleep, tid) {
                // The ample task is asleep: the sibling branch that
                // slept it already covers every trace through its
                // (commuting, invisible) steps, so this node expands
                // to nothing at all.
                return Ok(Some((Vec::new(), Vec::new(), Vec::new(), idxs.len())));
            }
            let mut succs = Vec::with_capacity(idxs.len());
            let mut states = Vec::with_capacity(idxs.len());
            let mut sleeps = Vec::new();
            for i in idxs {
                let mut next = state.clone();
                let events = self.interp.apply(&mut next, &choices[i])?;
                let perm = self.normalize(&mut next, stats);
                let sig = self.pools.intern(&next);
                if sleep != 0 {
                    // Carry over each sleeper whose step commutes
                    // with the one taken. Ample expansion adds no new
                    // sibling sleepers — the deferred tasks are not
                    // explored here, only postponed.
                    let mut z = 0u128;
                    let mut m = sleep;
                    while m != 0 {
                        let b = m.trailing_zeros();
                        m &= m - 1;
                        let slept = TaskId(b as usize);
                        // Sleepable tasks have exactly one choice.
                        let js = task_run(choices, slept);
                        if js.len() == 1
                            && !footprints.get(js.start).conflicts_with(footprints.get(i))
                        {
                            z |= sleep_bit(slept);
                        }
                    }
                    sleeps.push(remap_sleep(z, perm.as_deref()));
                }
                succs.push((sig, events, vec![i]));
                states.push(next);
            }
            if succs.iter().any(|(sig, _, _)| self.visited.contains(*sig)) {
                continue 'candidate;
            }
            return Ok(Some((succs, states, sleeps, 0)));
        }
        Ok(None)
    }
}

/// The explorer: the query surface of a
/// [`Session`] with no store and one build
/// worker. Each call builds a fresh state graph on the calling thread
/// and reads its answer from it, so an explorer memoizes nothing; a
/// session answers the same questions and keeps its graphs.
pub struct Explorer<'i> {
    pub interp: &'i Interp,
    pub limits: Limits,
    /// The reduction stack every build applies. A query's setup
    /// conditions and event patterns are visible to it, so no
    /// reduction prunes what the query observes.
    pub reduction: Reduction,
}

impl<'i> Explorer<'i> {
    pub fn new(interp: &'i Interp) -> Self {
        Explorer::with_limits(interp, Limits::default())
    }

    pub fn with_limits(interp: &'i Interp, limits: Limits) -> Self {
        Explorer { interp, limits, reduction: Reduction::default() }
    }

    /// The same explorer with partial-order reduction disabled.
    /// (Symmetry and sleep keep their current settings; use
    /// [`Explorer::with_reduction`] + [`Reduction::NONE`] for a fully
    /// unreduced search.)
    pub fn without_por(mut self) -> Self {
        self.reduction.por = false;
        self
    }

    /// The same explorer with an explicit reduction stack, overriding
    /// the default.
    pub fn with_reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    /// Does nothing: an explorer always builds on one worker. Graph
    /// builds take their worker count from
    /// [`crate::session::Session::with_threads`].
    #[deprecated(
        note = "an explorer builds on one worker; set graph-build workers with `Session::with_threads`"
    )]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// The session this explorer stands for.
    fn session(&self) -> Session<'i> {
        Session::storeless(self.interp, self.limits).with_reduction(self.reduction)
    }

    /// Enumerate every reachable terminal state (distinct outputs +
    /// outcome kinds). This regenerates the figures' "possibility"
    /// lists exactly.
    ///
    /// Runs under the reduction stack: ample sets are persistent, so
    /// every state with no enabled transitions — every terminal — is
    /// still reached.
    pub fn terminals(&self) -> Result<TerminalSet, RuntimeError> {
        self.session().terminals()
    }

    /// Trace-ingest membership query: could a *recorded runtime trace*
    /// (projected to event patterns) occur, in order, as a subsequence
    /// of some execution of this program from its initial state?
    ///
    /// This is the conformance harness's entry point: a runtime under
    /// a controlled scheduler records its execution in the explorer's
    /// event vocabulary, projects it to [`EventPattern`]s, and asks the
    /// model whether that behaviour is inside the explored space. A
    /// definitive [`Answer::No`] means the runtime exhibited a
    /// behaviour the model proves impossible — a conformance bug on
    /// one side or the other.
    pub fn admits_trace(&self, trace: &[EventPattern]) -> Result<Answer, RuntimeError> {
        self.session().admits_trace(trace)
    }

    /// Answer a Test-1-style question: from some reachable state where
    /// every `setup` condition holds, can the `query` event patterns
    /// occur in order (as a subsequence of the continuation)?
    pub fn can_happen(
        &self,
        setup: &[StateCond],
        query: &[EventPattern],
    ) -> Result<Answer, RuntimeError> {
        self.session().can_happen(setup, query)
    }

    /// [`Explorer::can_happen`], also returning the statistics of the
    /// graph build that answered it.
    pub fn can_happen_with_stats(
        &self,
        setup: &[StateCond],
        query: &[EventPattern],
    ) -> Result<(Answer, Stats), RuntimeError> {
        self.session().can_happen_with_stats(setup, query)
    }
}

/// Convenience: enumerate the terminal outputs of a source program.
pub fn terminal_outputs(source: &str) -> Result<Vec<String>, String> {
    let interp = Interp::from_source(source)?;
    let explorer = Explorer::new(&interp);
    let set = explorer.terminals().map_err(|e| e.to_string())?;
    Ok(set.outputs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    fn interp(src: &str) -> Interp {
        Interp::from_source(src).expect("compiles")
    }

    /// Two distinct signatures from one interner.
    fn two_sigs() -> (StateSig, StateSig) {
        let pools = Interner::new();
        let mut state = interp("PRINT 1\n").initial_state();
        let a = pools.intern(&state);
        state.next_seq += 1;
        (a, pools.intern(&state))
    }

    #[test]
    fn stats_conservation_without_por() {
        // Without POR the transition structure of a fixed program is
        // fixed, so every edge is exactly one claim attempt:
        // visited + deduped == transitions + roots. This is the
        // invariant that catches lost or double-counted stats.
        let interp = interp(figures::FIG5_MESSAGE_PASSING);
        let set = Explorer::new(&interp).without_por().terminals().unwrap();
        assert_eq!(
            set.stats.states_visited + set.stats.states_deduped,
            set.stats.transitions + 1,
            "every edge is one claim attempt, plus the root"
        );
    }

    #[test]
    fn visited_superset_rule() {
        let mut table = Visited::default();
        let (sig, _) = two_sigs();
        // A claim: expand exactly when nothing covers.
        let mut claim = |sleep: SleepSet| {
            let fresh = table.covering(sig, sleep).is_none();
            if fresh {
                table.admit(sig, sleep);
            }
            fresh
        };
        // First claim under {tasks 0,1} asleep.
        assert!(claim(0b11));
        // Superset of a stored set: covered, no re-expansion.
        assert!(!claim(0b111));
        // Incomparable set: must re-expand (appends).
        assert!(claim(0b100));
        // Now covered by the appended {2}.
        assert!(!claim(0b110));
        // The empty set is covered by nothing stored ({0,1} ⊄ ∅, {2} ⊄ ∅)…
        assert!(claim(0));
        // …and once stored covers everything.
        assert!(!claim(0b1000));
    }

    /// A state admitted under several incomparable sleep sets dedups an
    /// arrival to the earliest admission that covers it, which is the
    /// node id the level merge records as the edge's target.
    #[test]
    fn visited_covering_returns_the_earliest_covering_admission() {
        let mut visited = Visited::default();
        let (key, other) = two_sigs();
        assert!(!visited.contains(key));
        assert_eq!(visited.admit(other, 0), 0);
        assert_eq!(visited.admit(key, 0b011), 1);
        assert_eq!(visited.admit(key, 0b100), 2);
        assert!(visited.contains(key));
        assert_eq!(visited.covering(key, 0b111), Some(1), "both cover: the earlier wins");
        assert_eq!(visited.covering(key, 0b110), Some(2), "only {{2}} covers");
        assert_eq!(visited.covering(key, 0b001), None, "neither covers");
        assert_eq!(visited.admit(key, 0), 3);
        assert_eq!(visited.covering(key, 0b001), Some(3));
        assert_eq!(visited.covering(key, 0b111), Some(1), "still the earliest");
        assert_eq!(visited.covering(other, 0b1), Some(0), "keys keep their own admissions");
    }

    #[test]
    fn reduction_counters_conserve() {
        // The reduction counters obey their own laws: NONE must leave
        // both at zero, symmetry on a symmetric model must canonicalize
        // at least once and leave a quotient strictly smaller than the
        // concrete reachable set, and the full stack must sleep-prune
        // without changing the terminals.
        let interp = interp(&figures::dining(2));
        let none = Explorer::new(&interp).with_reduction(Reduction::NONE).terminals().unwrap();
        assert_eq!(none.stats.states_canonicalized, 0, "NONE must not canonicalize");
        assert_eq!(none.stats.sleep_pruned, 0, "NONE must not sleep-prune");

        let sym_only = Reduction { por: false, symmetry: true, sleep: false };
        let sym = Explorer::new(&interp).with_reduction(sym_only).terminals().unwrap();
        assert!(sym.stats.states_canonicalized > 0, "symmetry never fired");
        assert!(
            sym.stats.states_visited < none.stats.states_visited,
            "the quotient must be smaller than the concrete space"
        );

        let full = Explorer::new(&interp).with_reduction(Reduction::FULL).terminals().unwrap();
        assert!(full.stats.sleep_pruned > 0, "sleep sets never pruned on dining(2)");
        assert_eq!(full.terminals, sym.terminals, "full stack changed the terminals");
    }
}
