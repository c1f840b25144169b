//! Shared-resource footprints for partial-order reduction.
//!
//! The explorer prunes commuting interleavings with an *ample-set*
//! scheme: at a state, if every enabled transition of one task is
//! independent of everything every *other* live task could still do,
//! it suffices to explore just that task's transitions. Independence
//! is judged through footprints:
//!
//! * [`Interp::choice_footprint`] resolves the exact shared resources
//!   one enabled [`Choice`] reads and writes *in the current state* —
//!   possible because expression evaluation is side-effect-free, so
//!   names and receiver objects can be resolved the same way the
//!   interpreter itself will resolve them one step later.
//! * [`StaticSummary`] over-approximates, per compiled code unit, the
//!   resources *any* execution of that unit (and everything it can
//!   call or spawn, transitively) may touch. A task's future behaviour
//!   is the union of the summaries of the units on its call stack plus
//!   the locks it currently holds.
//!
//! Anything the analysis cannot resolve precisely sets the
//! [`Footprint::unknown`] (or [`StaticSummary::unknown`]) flag, which
//! makes the explorer fall back to full expansion at that state — the
//! reduction is allowed to be incomplete, never unsound.
//!
//! A [`Footprint`] borrows from the state and the compiled program it
//! was resolved against: cells are [`CellRef`]s, and task labels,
//! function and message names are `&str`. Only a detached child's
//! label, which the spawn formats, and a message payload that has to
//! be evaluated are owned. The explorer resolves each choice's
//! footprint at most once per state it plans and compares the same
//! value in every test of that plan. The comparisons allocate nothing:
//! a resource is looked up in a [`StaticSummary`] by its `(variant,
//! name)` key, and [`Interp::shield_footprint`] copies only the reads
//! and writes that pass its filter.

use crate::event::{EventKindPattern, EventPattern};
use crate::explore::choice_task;
use crate::interp::{name_value, Choice, Interp};
use crate::program::{CalleeRef, CodeId, Compiled, Instr};
use crate::state::{BlockReason, Cell, Frame, State, Task, TaskId, TaskStatus};
use crate::value::{ObjId, Value};
use concur_pseudocode::analysis::FootRef;
use concur_pseudocode::ast::{Expr, ExprKind, LValue};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// A shared cell as a footprint names it: a [`Cell`] whose name is
/// borrowed from the compiled program or the state instead of owned.
/// The derived order is [`Cell`]'s (globals by name, then fields by
/// object and name), so a list sorted as one is sorted as the other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CellRef<'a> {
    Global(&'a str),
    Field(ObjId, &'a str),
}

impl<'a> CellRef<'a> {
    /// The variable or field name.
    pub fn name(self) -> &'a str {
        match self {
            CellRef::Global(n) | CellRef::Field(_, n) => n,
        }
    }

    /// The owned cell, for storing in a state or an event.
    pub fn to_cell(self) -> Cell {
        match self {
            CellRef::Global(n) => Cell::Global(n.to_string()),
            CellRef::Field(obj, n) => Cell::Field(obj, n.to_string()),
        }
    }
}

impl<'a> From<&'a Cell> for CellRef<'a> {
    fn from(cell: &'a Cell) -> Self {
        match cell {
            Cell::Global(n) => CellRef::Global(n),
            Cell::Field(obj, n) => CellRef::Field(*obj, n),
        }
    }
}

/// A concrete shared resource touched by one atomic step.
///
/// Task-private data (locals, program counters, per-task counters,
/// a task's own status) never appears here: steps of different tasks
/// cannot both touch it, so it cannot create a dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Resource<'a> {
    /// A global variable or object field.
    Cell(CellRef<'a>),
    /// The lock guarding a cell (`EXC_ACC` acquisition state).
    /// Separate from [`Resource::Cell`]: entering a block conflicts
    /// with other lock traffic on the same cells, not with plain
    /// reads of the data.
    Lock(CellRef<'a>),
    /// Removal of a message from one receiver object's share of the
    /// in-flight pool (a delivery, matched or dead-lettered), plus the
    /// receiver's processing of it. Two takes from the same mailbox do
    /// not commute (the receiver handles them in order); takes from
    /// different mailboxes do.
    ///
    /// Sends have **no** mailbox resource: the pool is a multiset
    /// (state interning canonicalizes its order), so an insert
    /// commutes with every other insert and with any take of a
    /// *different* message — and a take of the inserted message can
    /// only happen after the insert. Receiver blocked/runnable status
    /// is re-derived from the pool by [`Interp`]'s `settle` after
    /// every step, so it needs no resource of its own.
    MailboxTake(ObjId),
    /// The global print stream.
    Output,
    /// The set of tasks parked in `WAIT()` (touched by `WAIT` and
    /// `NOTIFY`).
    WaitSet,
    /// The task arena: spawning appends, so two spawns do not commute
    /// (task ids are allocation-order dependent).
    TaskAlloc,
    /// The object arena (same reasoning for `new`).
    ObjAlloc,
    /// The dead-letter list (append order is state-visible).
    DeadLetters,
}

/// Name-level abstraction of a [`Resource`], used in per-unit static
/// summaries where object identities are not yet known.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum StaticResource {
    /// Matches `Cell::Global(name)` and `Cell::Field(_, name)`.
    Named(String),
    /// Matches `Lock(Cell::Global(name))` and
    /// `Lock(Cell::Field(_, name))`.
    LockNamed(String),
    /// Matches every [`Resource::MailboxTake`].
    AnyMailboxTake,
    Output,
    WaitSet,
    TaskAlloc,
    ObjAlloc,
    DeadLetters,
}

/// A [`StaticResource`] as a `(variant, name)` pair: the variant's
/// position in the declaration and its name (empty for the unnamed
/// variants). Tuple order is the derived order of `StaticResource`,
/// so a summary's sets can be searched by a concrete resource's key
/// (see [`StaticKey`]) without building an owned `StaticResource`.
type Key<'a> = (u8, &'a str);

/// Something that orders as a static resource's `(variant, name)`
/// key. `StaticResource` borrows as `dyn StaticKey`, so a
/// `BTreeSet<StaticResource>` answers `contains` for a bare key.
trait StaticKey {
    /// The `(variant, name)` pair this value orders by.
    fn static_key(&self) -> Key<'_>;
}

impl StaticKey for StaticResource {
    fn static_key(&self) -> Key<'_> {
        match self {
            StaticResource::Named(n) => (0, n),
            StaticResource::LockNamed(n) => (1, n),
            StaticResource::AnyMailboxTake => (2, ""),
            StaticResource::Output => (3, ""),
            StaticResource::WaitSet => (4, ""),
            StaticResource::TaskAlloc => (5, ""),
            StaticResource::ObjAlloc => (6, ""),
            StaticResource::DeadLetters => (7, ""),
        }
    }
}

impl StaticKey for Key<'_> {
    fn static_key(&self) -> Key<'_> {
        *self
    }
}

impl<'a> Resource<'a> {
    /// The key of the static resource this concrete one falls under.
    fn static_key(self) -> Key<'a> {
        match self {
            Resource::Cell(c) => (0, c.name()),
            Resource::Lock(c) => (1, c.name()),
            Resource::MailboxTake(_) => (2, ""),
            Resource::Output => (3, ""),
            Resource::WaitSet => (4, ""),
            Resource::TaskAlloc => (5, ""),
            Resource::ObjAlloc => (6, ""),
            Resource::DeadLetters => (7, ""),
        }
    }
}

impl<'a> Borrow<dyn StaticKey + 'a> for StaticResource {
    fn borrow(&self) -> &(dyn StaticKey + 'a) {
        self
    }
}

impl PartialEq for dyn StaticKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.static_key() == other.static_key()
    }
}

impl Eq for dyn StaticKey + '_ {}

impl PartialOrd for dyn StaticKey + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for dyn StaticKey + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        self.static_key().cmp(&other.static_key())
    }
}

/// Does `set` hold the static resource `r` falls under?
fn holds(set: &BTreeSet<StaticResource>, r: Resource<'_>) -> bool {
    set.contains(&r.static_key() as &dyn StaticKey)
}

/// Bitmask over the event kinds an [`crate::event::EventPattern`] can
/// query. A transition whose emitted kinds intersect the active query
/// mask is *visible* and may never be pruned into an ample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventMask(pub u16);

impl EventMask {
    pub const CALLED: EventMask = EventMask(1 << 0);
    pub const RETURNED: EventMask = EventMask(1 << 1);
    pub const BLOCKED_ON_LOCKS: EventMask = EventMask(1 << 2);
    pub const ACQUIRED: EventMask = EventMask(1 << 3);
    pub const WAIT_START: EventMask = EventMask(1 << 4);
    pub const WAIT_FINISHED: EventMask = EventMask(1 << 5);
    pub const NOTIFIED: EventMask = EventMask(1 << 6);
    pub const SENT: EventMask = EventMask(1 << 7);
    pub const RECEIVED: EventMask = EventMask(1 << 8);
    pub const PRINTED: EventMask = EventMask(1 << 9);
    pub const FINISHED: EventMask = EventMask(1 << 10);
    pub const RELEASED: EventMask = EventMask(1 << 11);

    pub const EMPTY: EventMask = EventMask(0);

    pub fn union(self, other: EventMask) -> EventMask {
        EventMask(self.0 | other.0)
    }

    pub fn intersects(self, other: EventMask) -> bool {
        self.0 & other.0 != 0
    }

    /// The mask covering a set of query patterns. Progress-independent
    /// on purpose: a transition is visible if it could match *any*
    /// pattern of the query, which keeps the ample condition sound
    /// regardless of how far the match has advanced.
    pub fn of_patterns(patterns: &[crate::event::EventPattern]) -> EventMask {
        use crate::event::EventKindPattern as K;
        patterns.iter().fold(EventMask::EMPTY, |m, p| {
            m.union(match &p.kind {
                K::Called { .. } => EventMask::CALLED,
                K::Returned { .. } => EventMask::RETURNED,
                K::BlockedOnLocks => EventMask::BLOCKED_ON_LOCKS,
                K::Acquired => EventMask::ACQUIRED,
                K::WaitStart => EventMask::WAIT_START,
                K::WaitFinished => EventMask::WAIT_FINISHED,
                K::Notified => EventMask::NOTIFIED,
                K::Sent { .. } => EventMask::SENT,
                K::Received { .. } => EventMask::RECEIVED,
                K::Printed { .. } => EventMask::PRINTED,
                K::Released => EventMask::RELEASED,
                K::Finished => EventMask::FINISHED,
            })
        })
    }

    /// The mask of kinds an event belongs to (zero for kinds no
    /// pattern can express: Spawned, Woken, Joined, DeadLettered).
    pub fn of_event(event: &crate::event::Event) -> EventMask {
        use crate::event::Event as E;
        match event {
            E::Called { .. } => EventMask::CALLED,
            E::Returned { .. } => EventMask::RETURNED,
            E::BlockedOnLocks { .. } => EventMask::BLOCKED_ON_LOCKS,
            E::Acquired { .. } => EventMask::ACQUIRED,
            E::WaitStart { .. } => EventMask::WAIT_START,
            E::WaitFinished { .. } => EventMask::WAIT_FINISHED,
            E::Notified { .. } => EventMask::NOTIFIED,
            E::Sent { .. } => EventMask::SENT,
            E::Received { .. } => EventMask::RECEIVED,
            E::Printed { .. } => EventMask::PRINTED,
            E::Released { .. } => EventMask::RELEASED,
            E::Finished { .. } => EventMask::FINISHED,
            E::Spawned { .. } | E::Woken { .. } | E::Joined { .. } | E::DeadLettered { .. } => {
                EventMask::EMPTY
            }
        }
    }
}

/// What one atomic step will observably emit, with as much detail as
/// the pre-step state can resolve. `None` in a detail field means
/// "unresolved" and matches conservatively; it never means "absent".
///
/// Task labels are fixed at spawn and qualified function names are
/// the exact strings [`crate::event::Event`] carries, so comparing
/// them against a pattern here answers, exactly, whether the emitted
/// event *could* match the pattern when it happens. Every detail is
/// borrowed from the state or the compiled program, except a detached
/// child's label, which is formatted the way the spawn will format
/// it, and a payload that had to be evaluated.
#[derive(Debug, Clone)]
pub struct Emit<'a> {
    /// Single-bit kind of the event.
    pub kind: EventMask,
    /// Label of the task the event is attributed to.
    pub label: Option<Cow<'a, str>>,
    /// Qualified function name (`Called`/`Returned` only).
    pub func: Option<&'a str>,
    /// Message name (`Sent`/`Received` only).
    pub msg_name: Option<&'a str>,
    /// Message payload, when fully resolvable.
    pub msg_args: Option<Cow<'a, [Value]>>,
}

impl<'a> Emit<'a> {
    /// A `Called`/`Returned` emit of `func` by the task labelled `label`.
    fn call(kind: EventMask, label: Option<Cow<'a, str>>, func: &'a str) -> Emit<'a> {
        Emit { kind, label, func: Some(func), msg_name: None, msg_args: None }
    }

    /// Could the label of this emit be `label`?
    fn label_may_be(&self, label: &str) -> bool {
        self.label.as_deref().is_none_or(|l| l == label)
    }

    /// Could this emit's function be `func`?
    fn func_may_be(&self, func: &str) -> bool {
        self.func.is_none_or(|f| f == func)
    }

    /// Could this emit, once it becomes an event, match `pattern`?
    fn may_match(&self, pattern: &EventPattern) -> bool {
        let kind_mask = EventMask::of_patterns(std::slice::from_ref(pattern));
        if !self.kind.intersects(kind_mask) {
            return false;
        }
        if let Some(want) = &pattern.task_label {
            if !self.label_may_be(want) {
                return false;
            }
        }
        match &pattern.kind {
            EventKindPattern::Called { func } | EventKindPattern::Returned { func } => {
                self.func_may_be(func)
            }
            EventKindPattern::Sent { msg_name, args }
            | EventKindPattern::Received { msg_name, args } => {
                self.msg_name.is_none_or(|n| n == msg_name)
                    && match (args, &self.msg_args) {
                        (Some(want), Some(have)) => want[..] == have[..],
                        _ => true,
                    }
            }
            // Printed text is not predicted; kind + label only.
            _ => true,
        }
    }
}

/// The exact shared-resource effect of one enabled choice in one
/// state, borrowed from that state and the compiled program: building
/// one copies no name, label or payload the state already holds. The
/// explorer computes it at most once per choice of each state it
/// plans (the planner's per-state memo) and compares it with the
/// footprints of sibling choices and with other tasks' static
/// summaries.
#[derive(Debug, Clone, Default)]
pub struct Footprint<'a> {
    pub reads: Vec<Resource<'a>>,
    pub writes: Vec<Resource<'a>>,
    /// Some access could not be resolved; the explorer must treat the
    /// choice as conflicting with everything.
    pub unknown: bool,
    /// Kinds of queryable events this step will emit (union of
    /// `emit_events` kinds; kept as a mask for cheap checks).
    pub emits: EventMask,
    /// The queryable events this step will emit, with details.
    pub emit_events: Vec<Emit<'a>>,
    /// Label of the task whose mailbox delivery this step performs
    /// (matched *or* dead-lettered — both bump the receiver's
    /// `received` counter).
    pub delivery_label: Option<&'a str>,
    /// Labels of the tasks this step creates (`None` = creates none;
    /// an unresolved label inside is conservative).
    pub spawns: Option<Vec<Option<Cow<'a, str>>>>,
    /// Label of the stepping task (lock transitions only ever change
    /// the actor's own held set).
    pub actor_label: Option<&'a str>,
}

impl<'a> Footprint<'a> {
    fn read(&mut self, r: Resource<'a>) {
        self.reads.push(r);
    }

    fn write(&mut self, r: Resource<'a>) {
        self.writes.push(r);
    }

    /// Read and write the lock of each cell (acquiring it).
    fn lock(&mut self, cells: impl IntoIterator<Item = CellRef<'a>>) {
        for c in cells {
            self.read(Resource::Lock(c));
            self.write(Resource::Lock(c));
        }
    }

    /// Write the lock of each cell (releasing it).
    fn unlock(&mut self, cells: &'a [Cell]) {
        for c in cells {
            self.write(Resource::Lock(c.into()));
        }
    }

    fn emit(&mut self, e: Emit<'a>) {
        self.emits = self.emits.union(e.kind);
        self.emit_events.push(e);
    }

    /// Emit an event of `kind` attributed to the stepping task.
    fn emit_kind(&mut self, kind: EventMask) {
        let label = self.actor_label.map(Cow::Borrowed);
        self.emit(Emit { kind, label, func: None, msg_name: None, msg_args: None });
    }

    fn spawn_label(&mut self, label: Option<Cow<'a, str>>) {
        self.spawns.get_or_insert_with(Vec::new).push(label);
    }

    /// Pairwise dependence: could the order of two steps with these
    /// footprints matter? The sleep-set layer keeps a task asleep
    /// across a transition exactly when the two footprints do *not*
    /// conflict (classic Godefroid independence at the access level):
    /// either side unresolved counts as a conflict, as does any
    /// write/write or read/write overlap.
    pub fn conflicts_with(&self, other: &Footprint<'_>) -> bool {
        if self.unknown || other.unknown {
            return true;
        }
        self.writes.iter().any(|r| other.writes.contains(r) || other.reads.contains(r))
            || self.reads.iter().any(|r| other.writes.contains(r))
    }

    /// Could any event this step emits match any of `patterns`? This
    /// is the visibility notion for scenario queries: a step that
    /// cannot match any pattern cannot advance (or be required by) the
    /// event-subsequence match.
    pub fn may_match_patterns(&self, patterns: &[EventPattern]) -> bool {
        if self.unknown {
            return true;
        }
        self.emit_events.iter().any(|e| patterns.iter().any(|p| e.may_match(p)))
    }

    /// Does this step create a task whose label could be `label`?
    /// Creation flips label-keyed conditions from "no such task" to
    /// "task with zero counters", so it is visible to them even though
    /// it emits nothing queryable.
    fn spawn_creates(&self, label: &str) -> bool {
        match &self.spawns {
            None => false,
            Some(labels) => labels.iter().any(|l| l.as_deref().is_none_or(|l| l == label)),
        }
    }

    /// Could executing this step change the truth value of any of
    /// these state conditions? Used as the visibility notion when the
    /// explorer searches for setup states: a step that cannot affect
    /// any condition may be deferred without losing any
    /// condition-satisfying state (up to commuting reorderings).
    pub fn affects_conds(&self, conds: &[crate::event::StateCond]) -> bool {
        use crate::event::StateCond as C;
        if self.unknown {
            return true;
        }
        conds.iter().any(|cond| match cond {
            // A task's frame set changes when it pushes or pops a
            // frame of *this* function (Called/Returned carry the same
            // qualified name `in_function` compares) or finishes
            // (dropping all frames, including synthetic PARA-root
            // frames that pop without a Returned event).
            C::InFunction { task_label, func } => {
                self.emit_events.iter().any(|e| {
                    let relevant =
                        (e.kind.intersects(EventMask::CALLED.union(EventMask::RETURNED))
                            && e.func_may_be(func))
                            || e.kind.intersects(EventMask::FINISHED);
                    relevant && e.label_may_be(task_label)
                }) || self.spawn_creates(task_label)
            }
            // Counters are keyed by the same qualified names.
            C::CalledTimes { task_label, func, .. } => {
                self.emit_events.iter().any(|e| {
                    e.kind.intersects(EventMask::CALLED)
                        && e.func_may_be(func)
                        && e.label_may_be(task_label)
                }) || self.spawn_creates(task_label)
            }
            C::ReturnedTimes { task_label, func, .. } => {
                self.emit_events.iter().any(|e| {
                    e.kind.intersects(EventMask::RETURNED)
                        && e.func_may_be(func)
                        && e.label_may_be(task_label)
                }) || self.spawn_creates(task_label)
            }
            // `sent` only grows, so task creation (zero counters)
            // cannot change a ≥1 threshold.
            C::HasSent { task_label, msg_name } => self.emit_events.iter().any(|e| {
                e.kind.intersects(EventMask::SENT)
                    && e.label_may_be(task_label)
                    && e.msg_name.is_none_or(|n| n == msg_name)
            }),
            // `received` counts every delivery to the task, matched or
            // dead-lettered (the latter emits nothing queryable).
            C::ReceivedTotal { task_label, .. } => {
                self.delivery_label.is_some_and(|l| l == task_label)
                    || self.spawn_creates(task_label)
            }
            C::GlobalEquals { name, .. } => self
                .writes
                .iter()
                .any(|r| matches!(r, Resource::Cell(CellRef::Global(n)) if n == name)),
            C::TaskExists { task_label } => self.spawn_creates(task_label),
            // Lock transitions only change the acting task's held set.
            C::HoldsLock { task_label } => {
                self.writes.iter().any(|r| matches!(r, Resource::Lock(_)))
                    && self.actor_label.is_none_or(|l| l == task_label)
            }
        })
    }

    /// Would executing this step conflict (in the classic W/W, W/R,
    /// R/W sense) with anything in a static summary? Each resource is
    /// looked up by its `(variant, name)` key, so nothing is built.
    pub fn conflicts_with_static(&self, summary: &StaticSummary) -> bool {
        if self.unknown || summary.unknown {
            return true;
        }
        self.writes.iter().any(|&r| holds(&summary.writes, r) || holds(&summary.reads, r))
            || self.reads.iter().any(|&r| holds(&summary.writes, r))
    }
}

/// Per-code-unit over-approximation of reachable shared accesses,
/// closed over call and spawn edges.
#[derive(Debug, Clone, Default)]
pub struct StaticSummary {
    pub reads: BTreeSet<StaticResource>,
    pub writes: BTreeSet<StaticResource>,
    /// The unit (or something it reaches) contains an access the
    /// analysis cannot bound.
    pub unknown: bool,
}

impl StaticSummary {
    fn absorb(&mut self, other: &StaticSummary) -> bool {
        let before = (self.reads.len(), self.writes.len(), self.unknown);
        self.reads.extend(other.reads.iter().cloned());
        self.writes.extend(other.writes.iter().cloned());
        self.unknown |= other.unknown;
        before != (self.reads.len(), self.writes.len(), self.unknown)
    }
}

/// Per-instruction static summaries for every code unit of a compiled
/// program: `at(code, pc)` bounds everything an execution resuming at
/// `pc` can still touch.
///
/// The per-pc granularity matters. A frame parked at a `PARA` join
/// must not be charged with the accesses of the code *before* the
/// join (in particular the spawned children's accesses, which the
/// spawn-edge closure folds into the spawning instruction): `main` is
/// alive in every state, and a whole-unit summary for it would make
/// nearly every step of every other task "conflict with main's
/// future" and disable the reduction outright.
#[derive(Debug, Clone)]
pub struct Summaries {
    /// `per_pc[unit][pc]`; index `len` (pc past the end, implicit
    /// return pending) is an always-empty summary.
    per_pc: Vec<Vec<StaticSummary>>,
    /// Names with at least one shared access that is *not* lexically
    /// inside an `EXC_ACC` whose footprint covers the name (see
    /// [`Summaries::lock_disciplined`]).
    undisciplined: BTreeSet<String>,
    /// An unbounded access exists somewhere: no name can be proven
    /// disciplined.
    poisoned: bool,
}

impl Summaries {
    /// Backward-reachability fixpoint over the intra-unit CFG plus
    /// call and spawn edges. Spawn targets are included because a
    /// task's spawned children run without the spawner taking another
    /// step, so their accesses belong to the spawner's "future" for
    /// ample purposes. Call/spawn edges enter the callee at pc 0.
    pub fn compute(compiled: &Compiled) -> Summaries {
        let n = compiled.code.len();
        // Each instruction's own accesses and outgoing call/spawn
        // edges (computed once).
        let mut own: Vec<Vec<StaticSummary>> = Vec::with_capacity(n);
        let mut edges: Vec<Vec<BTreeSet<usize>>> = Vec::with_capacity(n);
        for instrs in &compiled.code {
            let mut unit_own = Vec::with_capacity(instrs.len() + 1);
            let mut unit_edges = Vec::with_capacity(instrs.len() + 1);
            for instr in instrs {
                let mut s = StaticSummary::default();
                let mut t = BTreeSet::new();
                summarize_instr(compiled, instr, &mut s, &mut t);
                unit_own.push(s);
                unit_edges.push(t);
            }
            unit_own.push(StaticSummary::default()); // past-the-end
            unit_edges.push(BTreeSet::new());
            own.push(unit_own);
            edges.push(unit_edges);
        }

        let (undisciplined, poisoned) = discipline_scan(compiled, &own);

        let mut per_pc = own;
        let mut changed = true;
        while changed {
            changed = false;
            for unit in 0..n {
                let len = compiled.code[unit].len();
                for pc in (0..len).rev() {
                    let mut acc = per_pc[unit][pc].clone();
                    for succ in instr_successors(&compiled.code[unit][pc], pc) {
                        let succ = succ.min(len);
                        let s = per_pc[unit][succ].clone();
                        acc.absorb(&s);
                    }
                    for &target in &edges[unit][pc].clone() {
                        let s = per_pc[target][0].clone();
                        acc.absorb(&s);
                    }
                    if per_pc[unit][pc].absorb(&acc) {
                        changed = true;
                    }
                }
            }
        }
        Summaries { per_pc, undisciplined, poisoned }
    }

    /// Whether every shared access to `name`, program-wide, happens
    /// while the accessing task holds the `EXC_ACC` lock on the cell
    /// it resolves — i.e. the name is *lock-disciplined*. For such a
    /// name, a task holding the lock on one of its cells knows no
    /// other task can touch that cell before the lock is released:
    /// any dependent transition is disabled, so the holder's accesses
    /// commute with every other task's future and may be exempted
    /// from the ample-set future-conflict test (the classic
    /// lock-protected-action optimization).
    pub fn lock_disciplined(&self, name: &str) -> bool {
        !self.poisoned && !self.undisciplined.contains(name)
    }

    /// Everything a frame of `code` resuming at `pc` can still touch.
    pub fn at(&self, code: CodeId, pc: usize) -> &StaticSummary {
        let unit = &self.per_pc[code.0];
        &unit[pc.min(unit.len() - 1)]
    }

    /// The whole-unit summary (entry pc).
    pub fn unit(&self, code: CodeId) -> &StaticSummary {
        self.at(code, 0)
    }
}

/// Intra-unit control-flow successors of the instruction at `pc`,
/// mirroring `Interp::advance`/`skid`/`deliver`.
fn instr_successors(instr: &Instr, pc: usize) -> Vec<usize> {
    match instr {
        Instr::Jump { target } => vec![*target],
        Instr::JumpIfFalse { target, .. } => vec![pc + 1, *target],
        Instr::ArmEnd { receive } => vec![*receive],
        Instr::Return { .. } => vec![],
        // Delivery enters an arm; dead letters stay at the Receive
        // (a self-loop, which adds nothing).
        Instr::Receive { arms, .. } => arms.iter().map(|a| a.target).collect(),
        _ => vec![pc + 1],
    }
}

/// Record one instruction's own accesses into `summary` and its call /
/// spawn edges into `targets`.
fn summarize_instr(
    compiled: &Compiled,
    instr: &Instr,
    summary: &mut StaticSummary,
    targets: &mut BTreeSet<usize>,
) {
    match instr {
        Instr::Assign { target, value, .. } => {
            static_expr_reads(value, summary);
            static_lvalue_writes(target, summary);
        }
        Instr::CallAssign { target, callee, args, .. } => {
            for a in args {
                static_expr_reads(a, summary);
            }
            if let Some(t) = target {
                static_lvalue_writes(t, summary);
            }
            static_call_edges(compiled, callee, summary, targets);
        }
        Instr::New { target, class, args, .. } => {
            summary.writes.insert(StaticResource::ObjAlloc);
            for a in args {
                static_expr_reads(a, summary);
            }
            if let Some(t) = target {
                static_lvalue_writes(t, summary);
            }
            if let Some(info) = compiled.classes.get(class) {
                for (_, init) in &info.fields {
                    static_expr_reads(init, summary);
                }
                if let Some(init_id) = info.methods.get("init") {
                    targets.insert(compiled.func(*init_id).code.0);
                }
            } else {
                summary.unknown = true;
            }
        }
        Instr::Jump { .. } | Instr::ArmEnd { .. } => {}
        Instr::JumpIfFalse { cond, .. } => static_expr_reads(cond, summary),
        // The await condition is re-read on every enabledness check,
        // so any writer of its cells conflicts with this instruction.
        Instr::Await { cond, .. } => static_expr_reads(cond, summary),
        Instr::Print { value, .. } => {
            static_expr_reads(value, summary);
            summary.writes.insert(StaticResource::Output);
        }
        Instr::Para { tasks, .. } => {
            summary.writes.insert(StaticResource::TaskAlloc);
            for (code, _) in tasks {
                targets.insert(code.0);
            }
        }
        Instr::ExcEnter { footprint, .. } => {
            for fref in footprint {
                let name = match fref {
                    FootRef::Var(n) => n,
                    FootRef::SelfField(f) => f,
                    FootRef::VarField(_, f) => f,
                };
                summary.reads.insert(StaticResource::LockNamed(name.clone()));
                summary.writes.insert(StaticResource::LockNamed(name.clone()));
            }
        }
        // Releases only touch locks some ExcEnter in this task's past
        // or future acquired; those are covered by the dynamic
        // held-lock part of the future and by the acquiring unit's
        // ExcEnter entry.
        Instr::ExcExit { .. } => {}
        Instr::Wait { .. } => {
            summary.writes.insert(StaticResource::WaitSet);
        }
        Instr::Notify { .. } => {
            summary.writes.insert(StaticResource::WaitSet);
        }
        // Sends are multiset inserts into the in-flight pool and
        // commute with all other mailbox traffic (see
        // [`Resource::MailboxTake`]); only their expression reads
        // remain.
        Instr::Send { msg, to, .. } => {
            static_expr_reads(msg, summary);
            static_expr_reads(to, summary);
        }
        Instr::Receive { .. } => {
            summary.writes.insert(StaticResource::AnyMailboxTake);
            summary.writes.insert(StaticResource::DeadLetters);
        }
        Instr::Spawn { callee, args, .. } => {
            for a in args {
                static_expr_reads(a, summary);
            }
            summary.writes.insert(StaticResource::TaskAlloc);
            static_call_edges(compiled, callee, summary, targets);
        }
        Instr::Return { value, .. } => {
            if let Some(v) = value {
                static_expr_reads(v, summary);
            }
        }
    }
}

/// Add the units a call might enter. Name resolution is dynamic
/// (sibling method → top-level → builtin), so take the union of every
/// candidate; builtins are pure and contribute nothing.
fn static_call_edges(
    compiled: &Compiled,
    callee: &CalleeRef,
    summary: &mut StaticSummary,
    targets: &mut BTreeSet<usize>,
) {
    let name = match callee {
        CalleeRef::Name(n) => n,
        CalleeRef::Method(base, m) => {
            static_expr_reads(base, summary);
            m
        }
    };
    let mut any_receiver = false;
    for class in compiled.classes.values() {
        if let Some(&id) = class.methods.get(name) {
            targets.insert(compiled.func(id).code.0);
            any_receiver |= compiled.func(id).is_receiver;
        }
    }
    if let CalleeRef::Name(_) = callee {
        if let Some(id) = compiled.toplevel(name) {
            targets.insert(compiled.func(id).code.0);
            any_receiver |= compiled.func(id).is_receiver;
        }
    }
    if any_receiver {
        // A receiver-method call spawns a detached task.
        summary.writes.insert(StaticResource::TaskAlloc);
    }
}

fn static_expr_reads(expr: &Expr, summary: &mut StaticSummary) {
    match &expr.kind {
        ExprKind::Int(_)
        | ExprKind::Float(_)
        | ExprKind::Str(_)
        | ExprKind::Bool(_)
        | ExprKind::SelfRef => {}
        ExprKind::Name(n) => {
            summary.reads.insert(StaticResource::Named(n.clone()));
        }
        ExprKind::List(items) => {
            for i in items {
                static_expr_reads(i, summary);
            }
        }
        ExprKind::Unary(_, e) => static_expr_reads(e, summary),
        ExprKind::Binary(_, l, r) => {
            static_expr_reads(l, summary);
            static_expr_reads(r, summary);
        }
        ExprKind::Field(base, field) => {
            static_expr_reads(base, summary);
            summary.reads.insert(StaticResource::Named(field.clone()));
        }
        ExprKind::Index(base, index) => {
            static_expr_reads(base, summary);
            static_expr_reads(index, summary);
        }
        ExprKind::Message { args, .. } => {
            for a in args {
                static_expr_reads(a, summary);
            }
        }
        // Lowering hoists calls out of expressions; anything that
        // survives would error at runtime — stay conservative.
        ExprKind::Call { .. } | ExprKind::New { .. } => summary.unknown = true,
    }
}

fn static_lvalue_writes(lvalue: &LValue, summary: &mut StaticSummary) {
    match lvalue {
        LValue::Name(n) => {
            summary.writes.insert(StaticResource::Named(n.clone()));
        }
        LValue::Field(base, field) => {
            static_expr_reads(base, summary);
            summary.writes.insert(StaticResource::Named(field.clone()));
        }
        LValue::Index(base, index) => {
            static_expr_reads(index, summary);
            static_expr_reads(base, summary);
            // Read–modify–write of the containing place.
            match &base.kind {
                ExprKind::Name(n) => {
                    summary.writes.insert(StaticResource::Named(n.clone()));
                }
                ExprKind::Field(b, f) => {
                    static_expr_reads(b, summary);
                    summary.writes.insert(StaticResource::Named(f.clone()));
                }
                _ => summary.unknown = true,
            }
        }
    }
}

/// One instruction's cell-touching references, in the same `FootRef`
/// vocabulary `EXC_ACC` footprints use, for the lock-discipline scan.
///
/// `refs` are the representable references (the ones an enclosing
/// footprint *could* cover); `raw` are names touched through a shape
/// `FootRef` cannot express (e.g. a field of an indexed element, or a
/// class initializer evaluated in the `new`'s scope) — those can never
/// be covered by a lock, because `resolve_footprint` could not have
/// locked their cells either.
#[derive(Default)]
struct InstrRefs {
    refs: BTreeSet<FootRef>,
    raw: BTreeSet<String>,
    /// Names (re)bound by this instruction — used to invalidate
    /// enclosing footprints whose `VarField` base they are.
    written_names: BTreeSet<String>,
}

impl InstrRefs {
    fn expr(&mut self, expr: &Expr) {
        match &expr.kind {
            ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::SelfRef => {}
            ExprKind::Name(n) => {
                self.refs.insert(FootRef::Var(n.clone()));
            }
            ExprKind::List(items) => items.iter().for_each(|i| self.expr(i)),
            ExprKind::Unary(_, e) => self.expr(e),
            ExprKind::Binary(_, l, r) => {
                self.expr(l);
                self.expr(r);
            }
            ExprKind::Field(base, field) => self.field(base, field),
            ExprKind::Index(base, index) => {
                self.expr(base);
                self.expr(index);
            }
            ExprKind::Message { args, .. } => args.iter().for_each(|a| self.expr(a)),
            // Poisons via the unknown flag of the static summary.
            ExprKind::Call { .. } | ExprKind::New { .. } => {}
        }
    }

    fn field(&mut self, base: &Expr, field: &str) {
        match &base.kind {
            ExprKind::SelfRef => {
                self.refs.insert(FootRef::SelfField(field.to_string()));
            }
            ExprKind::Name(n) => {
                // The base read itself resolves like a bare name.
                self.refs.insert(FootRef::Var(n.clone()));
                self.refs.insert(FootRef::VarField(n.clone(), field.to_string()));
            }
            _ => {
                self.raw.insert(field.to_string());
                self.expr(base);
            }
        }
    }

    fn lvalue(&mut self, lvalue: &LValue) {
        match lvalue {
            LValue::Name(n) => {
                self.refs.insert(FootRef::Var(n.clone()));
                self.written_names.insert(n.clone());
            }
            LValue::Field(base, field) => self.field(base, field),
            LValue::Index(base, index) => {
                self.expr(index);
                // Read–modify–write of the containing place.
                match &base.kind {
                    ExprKind::Name(n) => {
                        self.refs.insert(FootRef::Var(n.clone()));
                        self.written_names.insert(n.clone());
                    }
                    ExprKind::Field(b, f) => self.field(b, f),
                    _ => self.expr(base),
                }
            }
        }
    }

    fn instr(compiled: &Compiled, instr: &Instr) -> InstrRefs {
        let mut r = InstrRefs::default();
        match instr {
            Instr::Assign { target, value, .. } => {
                r.expr(value);
                r.lvalue(target);
            }
            Instr::CallAssign { target, callee, args, .. } => {
                args.iter().for_each(|a| r.expr(a));
                if let CalleeRef::Method(base, _) = callee {
                    r.expr(base);
                }
                if let Some(t) = target {
                    r.lvalue(t);
                }
            }
            Instr::New { target, class, args, .. } => {
                args.iter().for_each(|a| r.expr(a));
                if let Some(t) = target {
                    r.lvalue(t);
                }
                // Field initializers evaluate in a globals-only scope
                // the footprint vocabulary cannot see into.
                if let Some(info) = compiled.classes.get(class) {
                    for (_, init) in &info.fields {
                        let mut sub = StaticSummary::default();
                        static_expr_reads(init, &mut sub);
                        for res in sub.reads {
                            if let StaticResource::Named(n) = res {
                                r.raw.insert(n);
                            }
                        }
                    }
                }
            }
            Instr::JumpIfFalse { cond, .. } | Instr::Await { cond, .. } => r.expr(cond),
            Instr::Print { value, .. } => r.expr(value),
            Instr::Send { msg, to, .. } => {
                r.expr(msg);
                r.expr(to);
            }
            Instr::Spawn { callee, args, .. } => {
                args.iter().for_each(|a| r.expr(a));
                if let CalleeRef::Method(base, _) = callee {
                    r.expr(base);
                }
            }
            Instr::Return { value, .. } => {
                if let Some(v) = value {
                    r.expr(v);
                }
            }
            // Delivery binds arm parameters (locals) and can suspend
            // the task mid-region; treated below as rebinding
            // everything, which invalidates enclosing VarField bases.
            Instr::Receive { .. } => {}
            Instr::Jump { .. }
            | Instr::ArmEnd { .. }
            | Instr::Para { .. }
            | Instr::ExcEnter { .. }
            | Instr::ExcExit { .. }
            | Instr::Wait { .. }
            | Instr::Notify { .. } => {}
        }
        r
    }
}

fn footref_name(fref: &FootRef) -> &str {
    match fref {
        FootRef::Var(n) => n,
        FootRef::SelfField(f) => f,
        FootRef::VarField(_, f) => f,
    }
}

/// Lexical lock-discipline scan (see [`Summaries::lock_disciplined`]).
///
/// Walks every unit's instruction stream once, maintaining a stack of
/// the enclosing `EXC_ACC` regions. Compilation emits a region's body
/// contiguously between its `ExcEnter` and `ExcExit` and never jumps
/// into the middle from outside the region, so the linear scan is
/// exactly the lexical nesting. An access is *covered* only when its
/// exact `FootRef` appears in an enclosing region's footprint — then
/// `resolve_footprint` locked the very cell the access resolves to
/// (same ref, same scope, and the base-rebinding guard below keeps
/// the resolution stable across the region). Anything else makes the
/// name undisciplined: a representable ref outside every region or
/// missing from the enclosing footprints, a shape the footprint
/// vocabulary cannot express (`raw`), or a `VarField` field whose
/// base variable is rebound inside the region. Any unbounded access
/// (`unknown` summary) poisons the whole program. Calls reached from
/// inside a region are deliberately *not* charged to it: every unit
/// is scanned independently, so a callee's accesses are judged
/// against the callee's own regions.
fn discipline_scan(compiled: &Compiled, own: &[Vec<StaticSummary>]) -> (BTreeSet<String>, bool) {
    let mut undisciplined = BTreeSet::new();
    let mut poisoned = false;
    for (unit, instrs) in compiled.code.iter().enumerate() {
        let mut regions: Vec<&[FootRef]> = Vec::new();
        for (pc, instr) in instrs.iter().enumerate() {
            if matches!(instr, Instr::ExcExit { .. }) {
                regions.pop();
            }
            if own[unit][pc].unknown {
                poisoned = true;
            }
            let r = InstrRefs::instr(compiled, instr);
            for fref in &r.refs {
                if !regions.iter().any(|fp| fp.contains(fref)) {
                    undisciplined.insert(footref_name(fref).to_string());
                }
            }
            for name in &r.raw {
                undisciplined.insert(name.clone());
            }
            let rebinds = |base: &str| {
                r.written_names.contains(base) || matches!(instr, Instr::Receive { .. })
            };
            for fp in &regions {
                for fref in fp.iter() {
                    if let FootRef::VarField(base, field) = fref {
                        if rebinds(base) {
                            undisciplined.insert(field.clone());
                        }
                    }
                }
            }
            if let Instr::ExcEnter { footprint, .. } = instr {
                regions.push(footprint.as_slice());
            }
        }
    }
    (undisciplined, poisoned)
}

// --- dynamic (per-state) footprints ------------------------------------

impl Interp {
    /// The exact shared-resource footprint of one enabled choice in
    /// `state`. Mirrors [`Interp::apply`]'s resolution logic without
    /// mutating anything, and borrows every name it records from
    /// `state` or the compiled program.
    pub fn choice_footprint<'a>(&'a self, state: &'a State, choice: &Choice) -> Footprint<'a> {
        let mut fp = Footprint {
            actor_label: Some(&state.task(choice_task(choice)).label),
            ..Footprint::default()
        };
        match choice {
            Choice::Receive { task, inflight_index } => {
                self.receive_footprint(state, *task, *inflight_index, &mut fp);
            }
            Choice::Step(tid) => self.step_footprint(state, *tid, &mut fp),
        }
        fp
    }

    fn receive_footprint<'a>(
        &'a self,
        state: &'a State,
        tid: TaskId,
        idx: usize,
        fp: &mut Footprint<'a>,
    ) {
        let Some(inflight) = state.inflight.get(idx) else {
            fp.unknown = true;
            return;
        };
        fp.write(Resource::MailboxTake(inflight.to));
        // The receiver is the stepping task.
        fp.delivery_label = fp.actor_label;
        let matched = match self.current_instr(state, tid) {
            Some(Instr::Receive { arms, .. }) => {
                arms.iter().any(|a| a.msg_name == inflight.msg.name)
            }
            _ => {
                fp.unknown = true;
                return;
            }
        };
        if matched {
            fp.emit(Emit {
                kind: EventMask::RECEIVED,
                label: fp.actor_label.map(Cow::Borrowed),
                func: None,
                msg_name: Some(&inflight.msg.name),
                msg_args: Some(Cow::Borrowed(&inflight.msg.args)),
            });
        } else {
            fp.write(Resource::DeadLetters);
        }
    }

    fn step_footprint<'a>(&'a self, state: &'a State, tid: TaskId, fp: &mut Footprint<'a>) {
        let task = state.task(tid);
        match &task.status {
            TaskStatus::Blocked(BlockReason::Locks(cells)) => {
                fp.lock(cells.iter().map(CellRef::from));
                fp.emit_kind(EventMask::ACQUIRED);
                return;
            }
            TaskStatus::Blocked(BlockReason::Reacquire) => {
                let cells =
                    task.pending_reacquire.as_ref().map(|h| h.cells.as_slice()).unwrap_or(&[]);
                fp.lock(cells.iter().map(CellRef::from));
                fp.emit_kind(EventMask::WAIT_FINISHED);
                return;
            }
            TaskStatus::Blocked(BlockReason::AwaitCond) => {
                // Resuming from an AWAIT re-reads the condition; any
                // writer of those cells conflicts with (and can
                // enable) this step.
                if let Some(frame) = task.top_frame() {
                    if let Some(Instr::Await { cond, .. }) =
                        self.compiled.code(frame.code).get(frame.pc)
                    {
                        self.expr_reads(state, frame, cond, fp);
                        return;
                    }
                }
                fp.unknown = true;
                return;
            }
            TaskStatus::Runnable => {}
            _ => {
                fp.unknown = true;
                return;
            }
        }

        let Some(frame) = task.top_frame() else { return };
        let code = self.compiled.code(frame.code);
        if frame.pc >= code.len() {
            // Implicit RETURN.
            self.return_footprint(state, task, None, fp);
            return;
        }

        match &code[frame.pc] {
            Instr::Assign { target, value, .. } => {
                self.expr_reads(state, frame, value, fp);
                self.lvalue_writes(state, frame, target, fp);
            }
            Instr::CallAssign { target, callee, args, .. } => {
                self.call_footprint(state, frame, target.as_ref(), callee, args, false, fp);
            }
            Instr::New { target, class, args, .. } => {
                fp.write(Resource::ObjAlloc);
                for a in args {
                    self.expr_reads(state, frame, a, fp);
                }
                if let Some(t) = target {
                    self.lvalue_writes(state, frame, t, fp);
                }
                match self.compiled.classes.get(class.as_str()) {
                    Some(info) => {
                        for (_, init) in &info.fields {
                            self.globals_only_reads(init, fp);
                        }
                        if let Some(&init_id) = info.methods.get("init") {
                            let func = &self.compiled.func(init_id).qualified;
                            let label = fp.actor_label.map(Cow::Borrowed);
                            fp.emit(Emit::call(EventMask::CALLED, label, func));
                        }
                    }
                    None => fp.unknown = true,
                }
            }
            Instr::Jump { .. } | Instr::ArmEnd { .. } => {}
            Instr::JumpIfFalse { cond, .. } => self.expr_reads(state, frame, cond, fp),
            Instr::Await { cond, .. } => self.expr_reads(state, frame, cond, fp),
            Instr::Print { value, .. } => {
                self.expr_reads(state, frame, value, fp);
                fp.write(Resource::Output);
                fp.emit_kind(EventMask::PRINTED);
            }
            Instr::Para { tasks, .. } => {
                if !tasks.is_empty() {
                    fp.write(Resource::TaskAlloc);
                    for (_, label) in tasks {
                        fp.spawn_label(Some(Cow::Borrowed(label)));
                    }
                }
            }
            Instr::ExcEnter { footprint, span } => {
                match self.resolve_footprint(state, tid, footprint, *span) {
                    Ok(cells) => {
                        fp.lock(cells.iter().copied());
                        // `State::can_acquire` for borrowed cells: no
                        // other task holds any of them.
                        let free = state.locks.iter().all(|(cell, (owner, _))| {
                            *owner == tid || !cells.contains(&CellRef::from(cell))
                        });
                        fp.emit_kind(if free {
                            EventMask::ACQUIRED
                        } else {
                            EventMask::BLOCKED_ON_LOCKS
                        });
                    }
                    Err(_) => fp.unknown = true,
                }
            }
            Instr::ExcExit { .. } => match task.held.last() {
                Some(held) => {
                    fp.unlock(&held.cells);
                    fp.emit_kind(EventMask::RELEASED);
                }
                None => fp.unknown = true,
            },
            Instr::Wait { .. } => match task.held.last() {
                Some(held) => {
                    fp.unlock(&held.cells);
                    fp.write(Resource::WaitSet);
                    fp.emit_kind(EventMask::WAIT_START);
                }
                None => fp.unknown = true,
            },
            Instr::Notify { .. } => {
                fp.write(Resource::WaitSet);
                fp.emit_kind(EventMask::NOTIFIED);
            }
            Instr::Send { msg, to, .. } => {
                self.expr_reads(state, frame, msg, fp);
                self.expr_reads(state, frame, to, fp);
                // The insert itself needs no resource; an unresolvable
                // target may mean the send faults at runtime, so stay
                // conservative then.
                if !matches!(self.pure_value(state, frame, to).as_deref(), Some(Value::Obj(_))) {
                    fp.unknown = true;
                }
                let (msg_name, msg_args) = self.message_shape(state, frame, msg);
                fp.emit(Emit {
                    kind: EventMask::SENT,
                    label: fp.actor_label.map(Cow::Borrowed),
                    func: None,
                    msg_name,
                    msg_args,
                });
            }
            // `choices` turns Receive points into Receive choices, so
            // a Step landing here does nothing.
            Instr::Receive { .. } => {}
            Instr::Spawn { callee, args, .. } => {
                self.call_footprint(state, frame, None, callee, args, true, fp);
            }
            Instr::Return { value, .. } => {
                self.return_footprint(state, task, value.as_ref(), fp);
            }
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors do_call's inputs
    fn call_footprint<'a>(
        &'a self,
        state: &'a State,
        frame: &'a Frame,
        target: Option<&'a LValue>,
        callee: &'a CalleeRef,
        args: &'a [Expr],
        detached: bool,
        fp: &mut Footprint<'a>,
    ) {
        for a in args {
            self.expr_reads(state, frame, a, fp);
        }
        let resolved = match callee {
            CalleeRef::Name(name) => {
                let sibling = frame.self_obj.and_then(|obj| {
                    let class = &state.object(obj).class;
                    self.compiled.method(class, name)
                });
                match sibling.or_else(|| self.compiled.toplevel(name)) {
                    Some(id) => Some(id),
                    None => {
                        // Builtin: pure; the result write happens now.
                        if detached {
                            fp.unknown = true; // SPAWN of a builtin is an error
                        } else if let Some(t) = target {
                            self.lvalue_writes(state, frame, t, fp);
                        }
                        return;
                    }
                }
            }
            CalleeRef::Method(base, method) => {
                self.expr_reads(state, frame, base, fp);
                match self.pure_value(state, frame, base).as_deref() {
                    Some(Value::Obj(obj)) => {
                        let class = &state.object(*obj).class;
                        self.compiled.method(class, method)
                    }
                    _ => None,
                }
            }
        };
        let Some(func_id) = resolved else {
            fp.unknown = true; // unresolvable or erroneous call
            return;
        };
        let info = self.compiled.func(func_id);
        if detached || info.is_receiver {
            // The child task's label, mirroring do_call's choice.
            let child_label = match callee {
                CalleeRef::Name(name) => Some(Cow::Borrowed(name.as_str())),
                CalleeRef::Method(base, method) => match &base.kind {
                    ExprKind::Name(var) => Some(Cow::Owned(format!("{var}.{method}"))),
                    _ => match self.pure_value(state, frame, base).as_deref() {
                        Some(Value::Obj(obj)) => Some(Cow::Owned(format!("{obj}.{method}"))),
                        _ => None,
                    },
                },
            };
            fp.emit(Emit::call(EventMask::CALLED, child_label.clone(), &info.qualified));
            fp.write(Resource::TaskAlloc);
            fp.spawn_label(child_label);
            // The call completes immediately in the caller with Unit.
            if let Some(t) = target {
                self.lvalue_writes(state, frame, t, fp);
            }
        } else {
            let label = fp.actor_label.map(Cow::Borrowed);
            fp.emit(Emit::call(EventMask::CALLED, label, &info.qualified));
        }
        // Non-detached calls push a frame (task-private); the target
        // write happens later, at the callee's RETURN.
    }

    fn return_footprint<'a>(
        &'a self,
        state: &'a State,
        task: &'a Task,
        value: Option<&'a Expr>,
        fp: &mut Footprint<'a>,
    ) {
        let Some(frame) = task.top_frame() else { return };
        if let Some(v) = value {
            self.expr_reads(state, frame, v, fp);
        }
        // Footprints acquired at this frame depth (or deeper) are
        // released on the way out.
        let depth = task.frames.len();
        let mut releases = false;
        for held in task.held.iter().filter(|h| h.frame_depth >= depth) {
            fp.unlock(&held.cells);
            releases = true;
        }
        if releases {
            fp.emit_kind(EventMask::RELEASED);
        }
        let synthetic = frame.code != self.compiled.func(frame.func).code;
        if !synthetic {
            let label = fp.actor_label.map(Cow::Borrowed);
            let func = &self.compiled.func(frame.func).qualified;
            fp.emit(Emit::call(EventMask::RETURNED, label, func));
        }
        if task.frames.len() == 1 {
            fp.emit_kind(EventMask::FINISHED);
            // The parent's join-counter decrement is parent-status
            // bookkeeping: two siblings' finishes commute and no other
            // task can observe the counter mid-flight.
        } else if !frame.discard_return {
            // complete_pending_call writes the caller's CallAssign
            // target, resolved in the *caller's* scope.
            let caller = &task.frames[task.frames.len() - 2];
            match self.compiled.code(caller.code).get(caller.pc) {
                Some(Instr::CallAssign { target: Some(target), .. }) => {
                    self.lvalue_writes(state, caller, target, fp);
                }
                Some(Instr::CallAssign { target: None, .. }) | Some(Instr::Spawn { .. }) => {}
                _ => fp.unknown = true,
            }
        }
    }

    /// Collect the shared cells an expression reads, resolving names
    /// exactly as `eval` will.
    fn expr_reads<'a>(
        &'a self,
        state: &'a State,
        frame: &'a Frame,
        expr: &'a Expr,
        fp: &mut Footprint<'a>,
    ) {
        match &expr.kind {
            ExprKind::Int(_)
            | ExprKind::Float(_)
            | ExprKind::Str(_)
            | ExprKind::Bool(_)
            | ExprKind::SelfRef => {}
            ExprKind::Name(name) => self.name_read(state, frame, name, fp),
            ExprKind::List(items) => {
                for i in items {
                    self.expr_reads(state, frame, i, fp);
                }
            }
            ExprKind::Unary(_, e) => self.expr_reads(state, frame, e, fp),
            ExprKind::Binary(_, l, r) => {
                self.expr_reads(state, frame, l, fp);
                self.expr_reads(state, frame, r, fp);
            }
            ExprKind::Field(base, field) => {
                self.expr_reads(state, frame, base, fp);
                match self.pure_value(state, frame, base).as_deref() {
                    Some(Value::Obj(obj)) => fp.read(Resource::Cell(CellRef::Field(*obj, field))),
                    Some(_) => {} // will fault at runtime
                    None => fp.unknown = true,
                }
            }
            ExprKind::Index(base, index) => {
                self.expr_reads(state, frame, base, fp);
                self.expr_reads(state, frame, index, fp);
            }
            ExprKind::Message { args, .. } => {
                for a in args {
                    self.expr_reads(state, frame, a, fp);
                }
            }
            ExprKind::Call { .. } | ExprKind::New { .. } => fp.unknown = true,
        }
    }

    /// Resolution of a bare-name read, mirroring `read_name`.
    fn name_read<'a>(
        &'a self,
        state: &'a State,
        frame: &'a Frame,
        name: &'a str,
        fp: &mut Footprint<'a>,
    ) {
        if !frame.main_scope {
            if frame.locals.contains_key(name) {
                return; // task-private
            }
            if let Some(obj) = frame.self_obj {
                if state.object(obj).fields.contains_key(name) {
                    fp.read(Resource::Cell(CellRef::Field(obj, name)));
                    return;
                }
            }
        }
        // Global (or undefined, which faults identically regardless of
        // interleaving with steps that do not write it).
        fp.read(Resource::Cell(CellRef::Global(name)));
    }

    /// Resolution of an lvalue write, mirroring `write_lvalue`.
    fn lvalue_writes<'a>(
        &'a self,
        state: &'a State,
        frame: &'a Frame,
        target: &'a LValue,
        fp: &mut Footprint<'a>,
    ) {
        match target {
            LValue::Name(name) => self.name_write(state, frame, name, fp),
            LValue::Field(base, field) => self.field_write(state, frame, base, field, fp),
            LValue::Index(base, index) => {
                self.expr_reads(state, frame, index, fp);
                self.expr_reads(state, frame, base, fp);
                // Read–modify–write of the containing place.
                match &base.kind {
                    ExprKind::Name(n) => self.name_write(state, frame, n, fp),
                    ExprKind::Field(b, f) => self.field_write(state, frame, b, f, fp),
                    _ => fp.unknown = true,
                }
            }
        }
    }

    /// A write to a bare name, mirroring `write_lvalue`'s resolution.
    fn name_write<'a>(
        &'a self,
        state: &'a State,
        frame: &'a Frame,
        name: &'a str,
        fp: &mut Footprint<'a>,
    ) {
        if frame.main_scope {
            fp.write(Resource::Cell(CellRef::Global(name)));
            return;
        }
        if frame.locals.contains_key(name) {
            return; // task-private
        }
        if let Some(obj) = frame.self_obj {
            if state.object(obj).fields.contains_key(name) {
                fp.write(Resource::Cell(CellRef::Field(obj, name)));
                return;
            }
        }
        if state.globals.contains_key(name) {
            fp.write(Resource::Cell(CellRef::Global(name)));
        }
        // Else: a fresh local — task-private.
    }

    /// A write to `base.field`.
    fn field_write<'a>(
        &'a self,
        state: &'a State,
        frame: &'a Frame,
        base: &'a Expr,
        field: &'a str,
        fp: &mut Footprint<'a>,
    ) {
        self.expr_reads(state, frame, base, fp);
        match self.pure_value(state, frame, base).as_deref() {
            Some(Value::Obj(obj)) => fp.write(Resource::Cell(CellRef::Field(*obj, field))),
            Some(_) => {}
            None => fp.unknown = true,
        }
    }

    /// `new C(...)` field initializers evaluate in a globals-only
    /// scope.
    fn globals_only_reads<'a>(&'a self, expr: &'a Expr, fp: &mut Footprint<'a>) {
        match &expr.kind {
            ExprKind::Int(_) | ExprKind::Float(_) | ExprKind::Str(_) | ExprKind::Bool(_) => {}
            ExprKind::Name(n) => fp.read(Resource::Cell(CellRef::Global(n))),
            ExprKind::List(items) => {
                for i in items {
                    self.globals_only_reads(i, fp);
                }
            }
            ExprKind::Unary(_, e) => self.globals_only_reads(e, fp),
            ExprKind::Binary(_, l, r) => {
                self.globals_only_reads(l, fp);
                self.globals_only_reads(r, fp);
            }
            ExprKind::Message { args, .. } => {
                for a in args {
                    self.globals_only_reads(a, fp);
                }
            }
            // Field/Index chains over globals are possible but rare in
            // initializers; resolving them needs a value walk we do
            // not do here.
            _ => fp.unknown = true,
        }
    }

    /// The (name, payload) a `Send`'s message expression will carry,
    /// as far as pure evaluation can tell. A message literal's payload
    /// is evaluated (and so owned); a stored message is borrowed.
    fn message_shape<'a>(
        &'a self,
        state: &'a State,
        frame: &'a Frame,
        msg: &'a Expr,
    ) -> (Option<&'a str>, Option<Cow<'a, [Value]>>) {
        match &msg.kind {
            ExprKind::Message { name, args } => {
                let vals: Option<Vec<Value>> = args
                    .iter()
                    .map(|a| self.pure_value(state, frame, a).map(Cow::into_owned))
                    .collect();
                (Some(name), vals.map(Cow::Owned))
            }
            _ => match self.pure_value(state, frame, msg) {
                Some(Cow::Borrowed(Value::Message(m))) => {
                    (Some(&m.name), Some(Cow::Borrowed(&m.args)))
                }
                // Only literals evaluate to owned values, and no
                // literal is a message.
                _ => (None, None),
            },
        }
    }

    /// Side-effect-free partial evaluator used to resolve receiver
    /// objects and message payloads. A value stored in the state is
    /// borrowed; a literal is built. Returns `None` for anything it
    /// cannot (or need not) evaluate — callers then mark the footprint
    /// unknown if an object identity was required.
    fn pure_value<'a>(
        &'a self,
        state: &'a State,
        frame: &'a Frame,
        expr: &'a Expr,
    ) -> Option<Cow<'a, Value>> {
        match &expr.kind {
            ExprKind::Int(v) => Some(Cow::Owned(Value::Int(*v))),
            ExprKind::Str(s) => Some(Cow::Owned(Value::Str(s.clone()))),
            ExprKind::Bool(b) => Some(Cow::Owned(Value::Bool(*b))),
            ExprKind::SelfRef => frame.self_obj.map(|obj| Cow::Owned(Value::Obj(obj))),
            ExprKind::Name(name) => name_value(state, frame, name).map(Cow::Borrowed),
            ExprKind::Field(base, field) => match *self.pure_value(state, frame, base)? {
                Value::Obj(obj) => state.object(obj).fields.get(field).map(Cow::Borrowed),
                _ => None,
            },
            ExprKind::Index(base, index) => {
                let i = match *self.pure_value(state, frame, index)? {
                    Value::Int(i) => usize::try_from(i).ok()?,
                    _ => return None,
                };
                match self.pure_value(state, frame, base)? {
                    Cow::Borrowed(Value::List(items)) => items.get(i).map(Cow::Borrowed),
                    Cow::Owned(Value::List(items)) => items.into_iter().nth(i).map(Cow::Owned),
                    _ => None,
                }
            }
            // Arithmetic cannot produce object references, and
            // messages/lists are never dereferenced as receivers here.
            _ => None,
        }
    }

    /// `fp` with the accesses the candidate task's held `EXC_ACC`
    /// locks protect removed — for the ample future-conflict test
    /// *only* (visibility and sleep-set independence keep the full
    /// footprint). The result keeps only what
    /// [`Interp::future_conflicts`] reads: the surviving reads and
    /// writes, filtered straight out of `fp`, and its unknown flag.
    ///
    /// While `task` holds the lock on a cell, no other task can
    /// acquire (or re-acquire after a `WAIT`) that lock before the
    /// candidate's own release, so the candidate's lock traffic on it
    /// commutes with everything the others can reach first:
    /// [`Resource::Lock`] entries on held cells drop unconditionally.
    /// Data accesses to the held cell drop only when the cell's name
    /// is [`Summaries::lock_disciplined`] — then every other task
    /// must take the (disabled) lock before touching the cell, and
    /// same-name accesses to *other* cells went through a different
    /// lock and never depended on this cell to begin with.
    pub fn shield_footprint<'a>(&self, task: &Task, fp: &Footprint<'a>) -> Footprint<'a> {
        let held =
            |c: CellRef<'_>| task.held.iter().flat_map(|h| &h.cells).any(|h| CellRef::from(h) == c);
        let keep = |r: &Resource<'_>| match *r {
            Resource::Lock(c) => !held(c),
            Resource::Cell(c) => !(held(c) && self.summaries().lock_disciplined(c.name())),
            _ => true,
        };
        Footprint {
            reads: fp.reads.iter().copied().filter(keep).collect(),
            writes: fp.writes.iter().copied().filter(keep).collect(),
            unknown: fp.unknown,
            ..Footprint::default()
        }
    }

    /// Could deferring `fp` past *any* future behaviour of `other`
    /// create a dependency? Union of the static summaries of the
    /// task's stacked code units plus the locks it holds (or must
    /// re-acquire), which its future releases and re-acquisitions
    /// touch. Compares in place: nothing is allocated.
    pub fn future_conflicts(&self, other: &Task, fp: &Footprint<'_>) -> bool {
        if fp.unknown {
            return true;
        }
        let lock_dep = |cell: &Cell| {
            let lock = Resource::Lock(cell.into());
            fp.writes.contains(&lock) || fp.reads.contains(&lock)
        };
        other.held.iter().chain(&other.pending_reacquire).any(|h| h.cells.iter().any(lock_dep))
            || other
                .frames
                .iter()
                .any(|f| fp.conflicts_with_static(self.summaries().at(f.code, f.pc)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::TaskId;

    fn interp(src: &str) -> Interp {
        Interp::from_source(src).expect("compiles")
    }

    #[test]
    fn para_print_steps_write_output_only() {
        let i = interp("PARA\n    PRINT \"hello \"\n    PRINT \"world \"\nENDPARA\n");
        let mut state = i.initial_state();
        // Step main to spawn the PARA tasks.
        i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap();
        let choices = i.choices(&state);
        assert_eq!(choices.len(), 2);
        for c in &choices {
            let fp = i.choice_footprint(&state, c);
            assert!(!fp.unknown);
            assert!(fp.writes.contains(&Resource::Output));
            assert!(fp.emits.intersects(EventMask::PRINTED));
            assert!(!fp.reads.iter().any(|r| matches!(r, Resource::Cell(_))));
        }
    }

    #[test]
    fn global_assignment_resolves_to_global_cell() {
        let i = interp("x = 0\nPARA\n    x = 1\n    y = 2\nENDPARA\n");
        let mut state = i.initial_state();
        i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap(); // x = 0
        i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap(); // PARA
        let choices = i.choices(&state);
        assert_eq!(choices.len(), 2);
        let fp1 = i.choice_footprint(&state, &choices[0]);
        // PARA children of main inherit main scope: writes hit globals.
        assert!(fp1.writes.contains(&Resource::Cell(CellRef::Global("x"))));
        let fp2 = i.choice_footprint(&state, &choices[1]);
        assert!(fp2.writes.contains(&Resource::Cell(CellRef::Global("y"))));
    }

    #[test]
    fn exc_enter_claims_lock_resources() {
        let i = interp(
            "x = 0\nDEFINE f()\n    EXC_ACC\n        x = x + 1\n    END_EXC_ACC\nENDDEF\nPARA\n    f()\n    f()\nENDPARA\n",
        );
        let mut state = i.initial_state();
        // x = 0; PARA; then each child is at CallAssign f().
        i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap();
        i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap();
        // Step child 1 into f(): now at ExcEnter.
        i.apply(&mut state, &Choice::Step(TaskId(1))).unwrap();
        let fp = i.choice_footprint(&state, &Choice::Step(TaskId(1)));
        let lock = Resource::Lock(CellRef::Global("x"));
        assert!(fp.writes.contains(&lock), "{fp:?}");
        assert!(fp.emits.intersects(EventMask::ACQUIRED));
    }

    #[test]
    fn send_targets_one_mailbox() {
        let i = interp(
            "CLASS R\n    DEFINE receive()\n        ON_RECEIVING\n            MESSAGE.h(x)\n                PRINT x\n    ENDDEF\nENDCLASS\nr1 = new R()\nr1.receive()\nSend(MESSAGE.h(\"hi\")).To(r1)\n",
        );
        let mut state = i.initial_state();
        i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap(); // new R
        i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap(); // r1.receive()
        let fp = i.choice_footprint(&state, &Choice::Step(TaskId(0)));
        // A send is a commuting multiset insert: no mailbox resource,
        // but a fully-resolved Sent emit (name, payload, sender).
        assert!(!fp.unknown, "{fp:?}");
        assert!(!fp.writes.iter().any(|r| matches!(r, Resource::MailboxTake(_))), "{fp:?}");
        assert!(fp.emits.intersects(EventMask::SENT));
        let sent = fp.emit_events.iter().find(|e| e.kind.intersects(EventMask::SENT)).unwrap();
        assert_eq!(sent.msg_name, Some("h"));
        assert_eq!(sent.msg_args.as_deref(), Some(&[Value::Str("hi".into())][..]));
        assert_eq!(sent.label.as_deref(), Some("main"));

        // The delivery, by contrast, takes from exactly one mailbox.
        i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap(); // Send
        let choices = i.choices(&state);
        let recv =
            choices.iter().find(|c| matches!(c, Choice::Receive { .. })).expect("delivery enabled");
        let fp = i.choice_footprint(&state, recv);
        assert!(fp.writes.contains(&Resource::MailboxTake(ObjId(0))), "{fp:?}");
        assert!(fp.emits.intersects(EventMask::RECEIVED));
    }

    #[test]
    fn static_summaries_close_over_calls() {
        let i = interp(
            "x = 0\nDEFINE inner()\n    x = x + 1\nENDDEF\nDEFINE outer()\n    inner()\nENDDEF\nouter()\n",
        );
        let outer = i.compiled.toplevel("outer").unwrap();
        let summary = i.summaries().unit(i.compiled.func(outer).code);
        assert!(summary.writes.contains(&StaticResource::Named("x".into())));
        assert!(!summary.unknown);
    }

    #[test]
    fn static_summaries_include_spawned_para_units() {
        let i = interp(
            "x = 0\nDEFINE f()\n    PARA\n        x = 1\n        y = 2\n    ENDPARA\nENDDEF\nf()\n",
        );
        let f = i.compiled.toplevel("f").unwrap();
        let summary = i.summaries().unit(i.compiled.func(f).code);
        assert!(summary.writes.contains(&StaticResource::TaskAlloc));
        assert!(summary.writes.contains(&StaticResource::Named("x".into())));
        assert!(summary.writes.contains(&StaticResource::Named("y".into())));
    }

    #[test]
    fn conflict_matching_is_name_level() {
        let mut fp = Footprint::default();
        fp.write(Resource::Cell(CellRef::Global("x")));
        let mut s = StaticSummary::default();
        s.reads.insert(StaticResource::Named("x".into()));
        assert!(fp.conflicts_with_static(&s));
        let mut t = StaticSummary::default();
        t.reads.insert(StaticResource::Named("y".into()));
        assert!(!fp.conflicts_with_static(&t));
        // Unknown on either side conflicts.
        let u = StaticSummary { unknown: true, ..StaticSummary::default() };
        assert!(fp.conflicts_with_static(&u));
    }

    #[test]
    fn static_keys_order_like_static_resources() {
        use StaticResource as S;
        let all = [
            S::Named("a".into()),
            S::Named("b".into()),
            S::LockNamed("a".into()),
            S::LockNamed("b".into()),
            S::AnyMailboxTake,
            S::Output,
            S::WaitSet,
            S::TaskAlloc,
            S::ObjAlloc,
            S::DeadLetters,
        ];
        for a in &all {
            for b in &all {
                assert_eq!(a.cmp(b), a.static_key().cmp(&b.static_key()), "{a:?} vs {b:?}");
            }
        }
        // Each concrete resource's key is the key of the static
        // resource it falls under.
        let under = [
            (Resource::Cell(CellRef::Global("a")), S::Named("a".into())),
            (Resource::Cell(CellRef::Field(ObjId(3), "b")), S::Named("b".into())),
            (Resource::Lock(CellRef::Global("a")), S::LockNamed("a".into())),
            (Resource::Lock(CellRef::Field(ObjId(3), "b")), S::LockNamed("b".into())),
            (Resource::MailboxTake(ObjId(1)), S::AnyMailboxTake),
            (Resource::Output, S::Output),
            (Resource::WaitSet, S::WaitSet),
            (Resource::TaskAlloc, S::TaskAlloc),
            (Resource::ObjAlloc, S::ObjAlloc),
            (Resource::DeadLetters, S::DeadLetters),
        ];
        for (r, s) in &under {
            assert_eq!(r.static_key(), s.static_key(), "{r:?}");
            assert!(holds(&BTreeSet::from([s.clone()]), *r), "{r:?}");
        }
    }

    #[test]
    fn resolved_footprints_keep_the_owned_order() {
        let i = interp(
            "g = 0\nCLASS Box\n    v = 0\n    w = 0\n    DEFINE bump(other)\n        EXC_ACC\n            v = v + 1\n            SELF.w = other.v\n            g = g + 1\n        END_EXC_ACC\n    ENDDEF\nENDCLASS\nb1 = new Box()\nb2 = new Box()\nb1.bump(b2)\n",
        );
        let mut state = i.initial_state();
        for _ in 0..4 {
            // g = 0; b1 = new Box(); b2 = new Box(); b1.bump(b2)
            i.apply(&mut state, &Choice::Step(TaskId(0))).unwrap();
        }
        let Some(Instr::ExcEnter { footprint, span }) = i.current_instr(&state, TaskId(0)) else {
            panic!("main is not at the EXC_ACC");
        };
        // `Var` resolves to a field of SELF or to a global (the local
        // `other` is task-private), `SelfField` to SELF's field and
        // `VarField` to the field of the object the variable holds.
        let cells = i.resolve_footprint(&state, TaskId(0), footprint, *span).unwrap();
        let expected = vec![
            Cell::Global("g".into()),
            Cell::Field(ObjId(0), "v".into()),
            Cell::Field(ObjId(0), "w".into()),
            Cell::Field(ObjId(1), "v".into()),
        ];
        assert_eq!(cells.iter().map(|c| c.to_cell()).collect::<Vec<_>>(), expected);
        assert_eq!(cells, expected.iter().map(CellRef::from).collect::<Vec<_>>());
    }
}
