//! The materialized state-graph store: build once, query many.
//!
//! [`StateGraph`] persists one exploration of a program — interned
//! states, event-labelled transitions with replayable choice picks,
//! BFS parent links, and terminal classification — so that every
//! subsequent query (`StateGraph::terminal_set`,
//! `StateGraph::can_happen`) is a read or a traversal of the store
//! instead of a fresh sweep. [`crate::session::Session`] owns the
//! memoization; this module owns the data structure and the two
//! algorithms on it.
//!
//! # Deterministic level-synchronized construction
//!
//! This builder is the crate's only exploration engine: every
//! [`crate::session::Session`] and [`crate::explore::Explorer`] answer
//! is read off a graph it built. It must be *deterministic*: the whole
//! point of a cached graph is that an answer computed today
//! byte-matches the answer recomputed tomorrow, at any worker count.
//! Workers racing on one live visited set would make POR's ample
//! selection (and so the explored subgraph) depend on thread timing.
//! So the builder runs a level-synchronized BFS:
//!
//! 1. Every node of the current level is expanded against a *frozen*
//!    visited snapshot (the table as of the end of the previous
//!    level). Expansion planning — including ample-set selection and
//!    corridor compression, done by the planner in
//!    [`crate::explore`] — therefore depends only on the state and the
//!    snapshot, never on scheduling. Levels are fanned out across
//!    worker threads by contiguous chunks; results are indexed, so
//!    thread timing cannot reorder them.
//! 2. Successors are merged into the store sequentially, in (node id,
//!    edge order) — a canonical order. New nodes take the next id.
//!
//! The cycle proviso survives the snapshot semantics: a level-`k` node
//! was inserted at the end of level `k-1`, and an ample successor
//! accepted at level `k` was absent from the level-`k-1` snapshot, so
//! its insertion ends level `k` or later. Around a cycle of
//! ample-expanded nodes the insertion levels would have to be strictly
//! increasing — a contradiction, so at least one node of every cycle
//! is fully expanded (the ignoring-problem guarantee a depth-first
//! search gets from its unvisited-successor proviso).
//!
//! Witness searches over the graph are plain FIFO BFS on the
//! `(node, query-progress)` product, seeded in canonical order —
//! witnesses are shortest and identical at every worker count.
//!
//! # Queries read the store in place
//!
//! A query never rebuilds a [`State`]. Setup conditions and the task
//! labels of event patterns are evaluated on a node's interned parts,
//! borrowed from the interner's pools through
//! [`crate::event::StateView`]; an edge's events are matched with
//! labels resolved against the edge's *target* node (for a corridor,
//! the state at its end). Only witness replay under symmetry
//! (`concretize_decisions`) and the spec checker's fairness counter,
//! which must re-run the interpreter, materialize states.
//!
//! # Edge store
//!
//! Edges live in one flat array grouped by source node: nodes are
//! expanded (and reloaded) in id order, so each node's out-edges are
//! contiguous, and `edge_start[n]..edge_start[n + 1]` indexes them.
//! Their events and picks live in two more flat arrays in the same
//! order, each edge recording where its share ends, so an edge costs
//! no allocation of its own. Every stored array is an exact-size boxed
//! slice with no capacity slack.

use crate::event::{Event, EventPattern, StateCond};
use crate::explore::{
    choice_task, Answer, Expansion, Limits, Planner, Reduction, SleepSet, Stats, Terminal,
    TerminalKind, TerminalSet, Visibility, Visited,
};
use crate::intern::{fx_hash_of, FxHashMap, FxHashSet, Interner, SigView, StateSig};
use crate::interp::{Interp, Outcome};
use crate::spec::SpecReport;
use crate::state::State;
use crate::value::RuntimeError;
use std::collections::{BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Frontier width below which a level is expanded inline: spawning
/// scoped threads costs more than expanding a handful of nodes, and
/// the narrow early/late levels of every space stay on one thread
/// while the wide middle fans out.
const PAR_LEVEL_MIN: usize = 48;

/// Most threads one level fans out across, whatever worker count the
/// session asks for: a level is split into at most this many chunks,
/// so a huge worker count cannot start one thread per node of a wide
/// level.
const MAX_LEVEL_THREADS: usize = 64;

/// One stored transition, as the flat edge array keeps it: the target
/// and where the edge's events and picks end in the graph's `events`
/// and `picks` arrays (they start where the previous edge's end). Its
/// source is implicit: the node whose `edge_start` range holds it.
struct EdgeRec {
    target: u32,
    events_end: u32,
    picks_end: u32,
}

/// One stored transition, borrowed from the graph's flat arrays.
#[derive(Clone, Copy)]
pub(crate) struct GraphEdge<'g> {
    pub(crate) target: u32,
    /// Events emitted along the edge (several for a corridor).
    pub(crate) events: &'g [Event],
    /// Choice indices (into [`Interp::choices`] at each hop) realizing
    /// the edge; concatenated along a path they form a decision vector
    /// replayable by [`crate::schedule::ReplayScheduler`].
    pub(crate) picks: &'g [usize],
}

struct NodeRec {
    sig: StateSig,
    /// Path depth in nodes (root = 1), the unit of `max_depth`.
    depth: u32,
    /// BFS-tree parent (self for the root) and the edge index within
    /// the parent's list — the canonical shortest path back to the
    /// root, used to prefix witness evidence with a replayable route
    /// to the setup state.
    parent: u32,
    via: u32,
    terminal: Option<TerminalKind>,
}

/// Replayable evidence for a [`Answer::Yes`] verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WitnessEvidence {
    /// Choice indices from the program's *initial state* through the
    /// setup state to the scenario's completion — feed them to
    /// [`crate::schedule::ReplayScheduler`] to re-execute the witness.
    pub decisions: Vec<usize>,
    /// How many leading entries of `decisions` reach the setup state;
    /// the scenario's events occur in the remainder.
    pub setup_len: usize,
    /// The witness events from the setup state onward (identical to
    /// the [`Answer::Yes`] witness).
    pub events: Vec<Event>,
}

/// What one node contributed to its level: terminal classification or
/// its planned successors, plus the stats delta its expansion accrued.
struct LevelOut {
    terminal: Option<Terminal>,
    expansion: Expansion,
    stats: Stats,
}

/// Identity card a graph carries for disk persistence: exactly the
/// cache-key fields ([`crate::session`]'s `GraphKey`) minus nothing —
/// a persisted graph is only ever served to a query whose key matches
/// this metadata field-for-field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphMeta {
    /// [`Interp::digest`] of the program the graph was built from.
    pub digest: u64,
    /// Exploration bounds the build honored.
    pub limits: Limits,
    /// The reduction stack the build applied.
    pub reduction: Reduction,
    /// Canonical visibility signature (empty when POR is off or the
    /// query observes nothing).
    pub vis: Vec<String>,
}

impl GraphMeta {
    /// Whether the digest is source-derived (stable across processes)
    /// rather than a process-local construction nonce. Only graphs
    /// with stable digests are worth persisting to disk: a nonce
    /// digest can never match on reload.
    pub fn digest_is_stable(&self) -> bool {
        self.digest & crate::interp::NONCE_BIT == 0
    }
}

/// A persisted exploration of one program under one (limits, POR,
/// visibility) configuration.
pub struct StateGraph {
    interner: Interner,
    meta: GraphMeta,
    nodes: Box<[NodeRec]>,
    /// Every edge, grouped by source node in id order and, within a
    /// node, in canonical expansion order.
    edges: Box<[EdgeRec]>,
    /// `edge_start[n]..edge_start[n + 1]` are node `n`'s out-edges in
    /// `edges` (one entry per node plus a final end offset).
    edge_start: Box<[u32]>,
    /// Every edge's events, concatenated in `edges` order.
    events: Box<[Event]>,
    /// Every edge's picks, concatenated in `edges` order.
    picks: Box<[usize]>,
    terminals: BTreeSet<Terminal>,
    /// Build statistics; `truncated` records whether any bound was hit
    /// (all answers read from a truncated graph are non-exhaustive).
    stats: Stats,
    /// Spec verdicts decided on this graph, by spec digest (see
    /// [`StateGraph::verdict`]). Not part of the stored bytes or the
    /// content hash: a reloaded graph starts with none, and an evicted
    /// graph frees its verdicts with it.
    verdicts: Mutex<FxHashMap<u64, Arc<OnceLock<SpecReport>>>>,
}

impl StateGraph {
    /// Build the graph with `workers` threads. The result is
    /// *byte-identical* for every `workers` value — see the module
    /// docs for why. `vis` is the canonical visibility signature of
    /// `visibility` (computed by the session layer), recorded as
    /// metadata for disk persistence.
    pub(crate) fn build(
        interp: &Interp,
        limits: Limits,
        reduction: Reduction,
        visibility: Visibility<'_>,
        workers: usize,
        vis: Vec<String>,
    ) -> Result<StateGraph, RuntimeError> {
        let begin = Instant::now();
        let interner = Interner::new();
        // Under sleep sets a signature can own several nodes, admitted
        // under incomparable sleep sets; an arrival dedups to the
        // first that covers it. Sleep sets are build-only: reloads
        // rebuild structure from picks and never re-run the planner.
        let mut visited = Visited::default();
        let mut nodes: Vec<NodeRec> = Vec::new();
        let mut edges = FlatEdges::default();
        let mut terminals = BTreeSet::new();
        let mut stats = Stats::default();

        let mut root = interp.initial_state();
        Planner { interp, reduction, visibility, pools: &interner, visited: &visited }
            .normalize(&mut root, &mut stats);
        let root_sig = interner.intern(&root);
        visited.admit(root_sig, 0);
        nodes.push(NodeRec { sig: root_sig, depth: 1, parent: 0, via: 0, terminal: None });
        stats.states_visited = 1;
        // Each frontier node with the sleep set it was admitted under.
        let mut frontier: Vec<(u32, SleepSet)> = vec![(0, 0)];

        'levels: while !frontier.is_empty() {
            let items: Vec<(StateSig, u32, SleepSet)> = frontier
                .iter()
                .map(|&(id, sleep)| {
                    let n = &nodes[id as usize];
                    (n.sig, n.depth, sleep)
                })
                .collect();
            let planner =
                Planner { interp, reduction, visibility, pools: &interner, visited: &visited };
            let outs = expand_level(planner, &items, limits.max_depth, workers);

            let mut next_frontier = Vec::new();
            for (&(id, _), out) in frontier.iter().zip(outs) {
                // Levels run in id order and each frontier is the id
                // range the previous merge created, so nodes are merged
                // in id order.
                edges.open(id);
                let out = out?;
                accrue(&mut stats, &out.stats);
                if let Some(term) = out.terminal {
                    nodes[id as usize].terminal = Some(term.outcome);
                    terminals.insert(term);
                    continue;
                }
                let Expansion { succs, sleeps } = out.expansion;
                for (i, (sig, events, picks)) in succs.into_iter().enumerate() {
                    let sleep = sleeps.get(i).copied().unwrap_or(0);
                    let via = edges.open_degree();
                    let target = match visited.covering(sig, sleep) {
                        Some(t) => {
                            stats.states_deduped += 1;
                            t
                        }
                        None => {
                            if nodes.len() >= limits.max_states {
                                // Deterministic stop: the cap binds at
                                // an exact point of the canonical merge
                                // order, so a truncated graph is still
                                // the same graph every time.
                                stats.truncated = true;
                                break 'levels;
                            }
                            // Nodes and admissions are made together,
                            // so an admission index is a node id.
                            let t = visited.admit(sig, sleep);
                            debug_assert_eq!(t as usize, nodes.len());
                            let depth = nodes[id as usize].depth + 1;
                            nodes.push(NodeRec { sig, depth, parent: id, via, terminal: None });
                            stats.states_visited += 1;
                            next_frontier.push((t, sleep));
                            t
                        }
                    };
                    edges.events.extend(events);
                    edges.picks.extend(picks);
                    edges.close(target);
                }
            }
            frontier = next_frontier;
        }
        edges.finish(nodes.len());

        stats.note_contention(interner.contention());
        stats.wall = begin.elapsed();
        stats.build_wall = stats.wall;
        let meta = GraphMeta { digest: interp.digest(), limits, reduction, vis };
        Ok(edges.into_graph(interner, meta, nodes, terminals, stats))
    }

    /// The verdict of the spec whose digest is `spec`, decided by
    /// `decide` the first time anyone asks this graph for it. Callers
    /// asking for the same spec at once wait for that one decision, so
    /// a spec is decided exactly once per graph however the callers
    /// are scheduled. Returns the verdict and whether it was already
    /// decided (a memo hit).
    pub(crate) fn verdict(
        &self,
        spec: u64,
        decide: impl FnOnce() -> SpecReport,
    ) -> (SpecReport, bool) {
        let cell = Arc::clone(
            self.verdicts.lock().unwrap_or_else(|p| p.into_inner()).entry(spec).or_default(),
        );
        let mut decided = false;
        let report = cell.get_or_init(|| {
            decided = true;
            decide()
        });
        (report.clone(), !decided)
    }

    /// Build statistics (the graph's cost card).
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// The identity card the graph was built under.
    pub fn meta(&self) -> &GraphMeta {
        &self.meta
    }

    /// Whether any build bound was hit.
    pub fn truncated(&self) -> bool {
        self.stats.truncated
    }

    /// The number of stored nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The terminal enumeration, as a store read.
    pub(crate) fn terminal_set(&self) -> TerminalSet {
        TerminalSet { terminals: self.terminals.clone(), stats: self.stats }
    }

    // --- spec-checker surface (crate::spec walks the store directly) -----

    /// Terminal classification of a node (None for interior nodes).
    pub(crate) fn node_terminal(&self, id: u32) -> Option<TerminalKind> {
        self.nodes[id as usize].terminal
    }

    /// Out-edges of a node, in canonical expansion order.
    pub(crate) fn out_edges(&self, id: u32) -> impl ExactSizeIterator<Item = GraphEdge<'_>> {
        let id = id as usize;
        (self.edge_start[id] as usize..self.edge_start[id + 1] as usize).map(|e| self.edge(e))
    }

    /// Out-edge `ei` of node `id`.
    pub(crate) fn out_edge(&self, id: u32, ei: u32) -> GraphEdge<'_> {
        self.edge(self.edge_start[id as usize] as usize + ei as usize)
    }

    /// Edge `e` of the flat array, with its events and picks.
    fn edge(&self, e: usize) -> GraphEdge<'_> {
        let rec = &self.edges[e];
        let (events_start, picks_start) = e
            .checked_sub(1)
            .map_or((0, 0), |p| (self.edges[p].events_end, self.edges[p].picks_end));
        GraphEdge {
            target: rec.target,
            events: &self.events[events_start as usize..rec.events_end as usize],
            picks: &self.picks[picks_start as usize..rec.picks_end as usize],
        }
    }

    /// Materialize the stored state of a node (the quotient
    /// representative when symmetry is on).
    pub(crate) fn node_state(&self, id: u32) -> State {
        self.interner.materialize(self.nodes[id as usize].sig)
    }

    /// Read the stored state of a node in place, without materializing
    /// it — what event patterns and setup conditions are evaluated on.
    pub(crate) fn node_view(&self, id: u32) -> SigView<'_> {
        self.interner.view(self.nodes[id as usize].sig)
    }

    /// Frontier-only BFS collecting nodes where every `setup`
    /// condition holds, capped at `cap` (`max_setup_states`):
    /// exploration never descends below a match, which loses nothing
    /// for existential continuation queries. Returns the start nodes in
    /// canonical discovery order plus whether the cap truncated
    /// discovery.
    fn setup_nodes(&self, interp: &Interp, setup: &[StateCond], cap: usize) -> (Vec<u32>, bool) {
        let funcs = &interp.compiled.funcs;
        let mut starts = Vec::new();
        let mut truncated = false;
        let mut seen = vec![false; self.nodes.len()];
        let mut queue: VecDeque<u32> = VecDeque::new();
        seen[0] = true;
        queue.push_back(0);
        while let Some(n) = queue.pop_front() {
            let view = self.node_view(n);
            if setup.iter().all(|c| c.holds(&view, funcs)) {
                starts.push(n);
                if starts.len() >= cap {
                    truncated = true;
                    break;
                }
                continue;
            }
            for edge in self.out_edges(n) {
                if !seen[edge.target as usize] {
                    seen[edge.target as usize] = true;
                    queue.push_back(edge.target);
                }
            }
        }
        (starts, truncated)
    }

    /// Answer a `can_happen` question as a graph traversal: setup
    /// discovery, then FIFO BFS over the `(node, progress)` product —
    /// the witness is a *shortest* realization and is identical for
    /// every build worker count. Yes answers also carry
    /// [`WitnessEvidence`] with a replayable decision vector from the
    /// program's initial state.
    pub(crate) fn can_happen(
        &self,
        interp: &Interp,
        setup: &[StateCond],
        query: &[EventPattern],
        max_setup_states: usize,
    ) -> (Answer, Option<WitnessEvidence>) {
        let (answer, mut evidence) = self.stored_witness(interp, setup, query, max_setup_states);
        if let Some(evidence) = &mut evidence {
            let stored = std::mem::take(&mut evidence.decisions);
            evidence.decisions = self.concretize_decisions(interp, stored);
        }
        (answer, evidence)
    }

    /// [`StateGraph::can_happen`] before concretization: the evidence's
    /// decisions are the stored picks, which index the choice lists of
    /// the stored (orbit representative) states.
    fn stored_witness(
        &self,
        interp: &Interp,
        setup: &[StateCond],
        query: &[EventPattern],
        max_setup_states: usize,
    ) -> (Answer, Option<WitnessEvidence>) {
        let (starts, setup_trunc) = self.setup_nodes(interp, setup, max_setup_states);
        let exhaustive = !(self.stats.truncated || setup_trunc);
        if starts.is_empty() {
            return (Answer::SetupUnreachable { exhaustive }, None);
        }
        if query.is_empty() {
            let decisions = self.picks_to_root_path(starts[0]);
            let setup_len = decisions.len();
            let evidence = WitnessEvidence { decisions, setup_len, events: Vec::new() };
            return (Answer::Yes { witness: Vec::new() }, Some(evidence));
        }

        let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
        let mut parents: FxHashMap<(u32, u32), (u32, u32, u32)> = FxHashMap::default();
        let mut queue: VecDeque<(u32, u32)> = VecDeque::new();
        for &s in &starts {
            if seen.insert((s, 0)) {
                queue.push_back((s, 0));
            }
        }
        while let Some((n, p)) = queue.pop_front() {
            for (ei, edge) in self.out_edges(n).enumerate() {
                // Labels resolve against the edge's target, read in
                // place; label-free patterns never touch it.
                let target = self.node_view(edge.target);
                let mut p2 = p;
                for event in edge.events {
                    if (p2 as usize) < query.len() && query[p2 as usize].matches(event, &target) {
                        p2 += 1;
                    }
                }
                if p2 as usize == query.len() {
                    // Realized (possibly mid-edge): the witness
                    // carries the full final edge.
                    let (witness, evidence) = self.assemble_witness(&parents, (n, p), ei as u32);
                    return (Answer::Yes { witness }, Some(evidence));
                }
                if seen.insert((edge.target, p2)) {
                    parents.insert((edge.target, p2), (n, p, ei as u32));
                    queue.push_back((edge.target, p2));
                }
            }
        }
        (Answer::No { exhaustive }, None)
    }

    /// Translate a decision vector expressed over the *quotient* graph
    /// (every stored state is its orbit representative, and picks
    /// index the representative's choice list) into one valid for a
    /// plain concrete execution, so [`crate::schedule::ReplayScheduler`]
    /// can replay it without knowing about symmetry. At each hop the
    /// concrete state differs from the stored canonical one by the
    /// canonicalizing task permutation; the stored pick's choice is
    /// mapped through the inverse permutation and located in the
    /// concrete choice list. Each hop canonicalizes a copy of the
    /// concrete state once, with the orbit keys the graph's interner
    /// already holds, and reads the stored pick's choice off that copy.
    /// Identity (and free) when the graph was built without symmetry.
    pub(crate) fn concretize_decisions(
        &self,
        interp: &Interp,
        decisions: Vec<usize>,
    ) -> Vec<usize> {
        if !self.meta.reduction.symmetry {
            return decisions;
        }
        let mut out = Vec::with_capacity(decisions.len());
        let mut concrete = interp.initial_state();
        for pick in decisions {
            let concrete_choices = interp.choices(&concrete);
            let mut canon = concrete.clone();
            let concrete_pick = match self.interner.canonicalize_symmetry(&mut canon) {
                None => pick,
                Some(perm) => {
                    let wanted = &interp.choices(&canon)[pick];
                    let canon_task = choice_task(wanted).0;
                    let t = perm
                        .iter()
                        .position(|&n| n == canon_task)
                        .expect("permutation is a bijection");
                    let target = match wanted {
                        crate::interp::Choice::Step(_) => {
                            crate::interp::Choice::Step(crate::state::TaskId(t))
                        }
                        crate::interp::Choice::Receive { inflight_index, .. } => {
                            crate::interp::Choice::Receive {
                                task: crate::state::TaskId(t),
                                inflight_index: *inflight_index,
                            }
                        }
                    };
                    concrete_choices
                        .iter()
                        .position(|c| *c == target)
                        .expect("symmetric counterpart of a stored pick exists")
                }
            };
            let choice = concrete_choices
                .get(concrete_pick)
                .expect("stored pick in range of its state")
                .clone();
            interp.apply(&mut concrete, &choice).expect("replay of stored picks cannot fault");
            out.push(concrete_pick);
        }
        out
    }

    /// Picks along the BFS-tree path from the root to `node`.
    fn picks_to_root_path(&self, node: u32) -> Vec<usize> {
        let mut hops: Vec<(u32, u32)> = Vec::new();
        let mut cursor = node;
        while cursor != 0 {
            let rec = &self.nodes[cursor as usize];
            hops.push((rec.parent, rec.via));
            cursor = rec.parent;
        }
        hops.reverse();
        let mut picks = Vec::new();
        for (parent, via) in hops {
            picks.extend(self.out_edge(parent, via).picks);
        }
        picks
    }

    /// Reconstruct the witness for an acceptance at product node
    /// `(node, progress)` completed by that node's edge `final_edge`:
    /// walk the product parent links back to a start node, then prefix
    /// the root-to-start route for the replayable decision vector.
    fn assemble_witness(
        &self,
        parents: &FxHashMap<(u32, u32), (u32, u32, u32)>,
        mut at: (u32, u32),
        final_edge: u32,
    ) -> (Vec<Event>, WitnessEvidence) {
        // (node, edge index) hops; the walk ends at a start node
        // (seeded without a parent link).
        let mut hops: Vec<(u32, u32)> = Vec::new();
        while let Some(&(pn, pp, ei)) = parents.get(&at) {
            hops.push((pn, ei));
            at = (pn, pp);
        }
        hops.reverse();
        let start = at.0;
        let setup_picks = self.picks_to_root_path(start);
        let setup_len = setup_picks.len();
        let mut decisions = setup_picks;
        let mut events = Vec::new();
        for &(node, ei) in &hops {
            let edge = self.out_edge(node, ei);
            events.extend(edge.events.iter().cloned());
            decisions.extend(edge.picks);
        }
        // hops ends at the accepting edge's source node.
        let source = hops.last().map(|&(n, ei)| self.out_edge(n, ei).target);
        let source = source.unwrap_or(start);
        let last = self.out_edge(source, final_edge);
        events.extend(last.events.iter().cloned());
        decisions.extend(last.picks);
        (events.clone(), WitnessEvidence { decisions, setup_len, events })
    }

    // --- disk persistence ------------------------------------------------

    /// Hash of everything the serialized form does *not* carry
    /// explicitly but [`StateGraph::from_bytes`] recomputes by
    /// re-executing the program: edge events and terminal
    /// classifications. A loaded graph whose recomputation hashes
    /// differently was persisted against a different program (or
    /// corrupted) and is rejected.
    fn content_hash(&self) -> u64 {
        let mut acc = String::new();
        for id in 0..self.nodes.len() as u32 {
            for edge in self.out_edges(id) {
                let _ = write!(acc, "{:?}|", edge.events);
            }
            acc.push(';');
        }
        for t in &self.terminals {
            let _ = write!(acc, "{:?}|{:?};", t.output, t.outcome);
        }
        fx_hash_of(&acc)
    }

    /// Serialize the graph into a deterministic, versioned byte form.
    ///
    /// The encoding stores only the graph's *structure* — node records
    /// and per-edge choice picks — plus the identity metadata and the
    /// deterministic build counters. States, events, and terminal
    /// outputs are **not** stored: [`StateGraph::from_bytes`]
    /// recomputes them by replaying the picks through the program,
    /// which both shrinks the file and makes the program itself the
    /// integrity check (a stale file cannot silently answer for a
    /// changed program). Wall-clock stats are excluded, so two builds
    /// of the same graph — at any worker count, on any machine —
    /// serialize to *identical bytes*, and `persist → reload →
    /// serialize` is a byte-level fixed point.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str("concur-stategraph v2\n");
        let _ = writeln!(out, "digest {}", self.meta.digest);
        let _ = writeln!(
            out,
            "limits {} {} {}",
            self.meta.limits.max_states,
            self.meta.limits.max_depth,
            self.meta.limits.max_setup_states
        );
        let r = self.meta.reduction;
        let _ = writeln!(out, "reduction {} {} {}", r.por as u8, r.symmetry as u8, r.sleep as u8);
        let _ = writeln!(out, "vis {}", self.meta.vis.len());
        for atom in &self.meta.vis {
            let _ = writeln!(out, "{atom}");
        }
        let s = &self.stats;
        // The two zeros fill the slots of counters the format still
        // carries but no build sets, so stored bytes keep their shape.
        let _ = writeln!(
            out,
            "stats {} {} {} {} {} {} {} 0 0 {}",
            s.states_visited,
            s.states_deduped,
            s.transitions,
            s.por_ample_states,
            s.por_pruned_choices,
            s.states_canonicalized,
            s.sleep_pruned,
            s.truncated as u8,
        );
        let _ = writeln!(out, "nodes {}", self.nodes.len());
        for node in &self.nodes {
            let t = match node.terminal {
                None => '-',
                Some(TerminalKind::AllDone) => 'a',
                Some(TerminalKind::Quiescent) => 'q',
                Some(TerminalKind::Deadlock) => 'd',
            };
            let _ = writeln!(out, "n {} {} {} {t}", node.depth, node.parent, node.via);
        }
        for id in 0..self.nodes.len() as u32 {
            let edges = self.out_edges(id);
            let _ = write!(out, "e {}", edges.len());
            for edge in edges {
                let _ = write!(out, " {}:", edge.target);
                for (i, pick) in edge.picks.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{pick}");
                }
            }
            out.push('\n');
        }
        let _ = writeln!(out, "content {:016x}", self.content_hash());
        out.into_bytes()
    }

    /// Reload a graph persisted by [`StateGraph::to_bytes`],
    /// reconstructing states and edge events by replaying the stored
    /// choice picks through `interp` — exactly the
    /// materialize → apply → intern sequence the builder performed, so
    /// the loaded graph is byte-identical to the fresh build
    /// (`loaded.to_bytes() == bytes`) and answers every query
    /// identically.
    ///
    /// Fails (with a description, never a panic) when the header is
    /// malformed, a count is larger than the input left to hold it,
    /// the digest does not match `interp`, a pick is out of range for
    /// its state, replayed targets diverge, or the content hash
    /// disagrees with the recomputation — every way a file can be
    /// stale, truncated, or corrupted. No allocation is sized by a
    /// count before that count is checked against the input.
    pub fn from_bytes(interp: &Interp, bytes: &[u8]) -> Result<StateGraph, String> {
        let begin = Instant::now();
        let text = std::str::from_utf8(bytes).map_err(|_| "not utf-8".to_string())?;
        let mut lines = Lines { iter: text.lines(), left: text.lines().count() };

        if lines.next("magic")? != "concur-stategraph v2" {
            return Err("bad magic / unsupported version".into());
        }
        let digest: u64 = field(lines.next("digest")?, "digest")?;
        if digest != interp.digest() {
            return Err(format!("digest mismatch: file {digest}, program {}", interp.digest()));
        }
        let lim = fields(lines.next("limits")?, "limits", 3)?;
        let limits = Limits {
            max_states: lim[0] as usize,
            max_depth: lim[1] as usize,
            max_setup_states: lim[2] as usize,
        };
        let red = fields(lines.next("reduction")?, "reduction", 3)?;
        let reduction = Reduction { por: red[0] != 0, symmetry: red[1] != 0, sleep: red[2] != 0 };
        // One line per atom.
        let vis_len = lines.count("vis", 1)?;
        let mut vis = Vec::with_capacity(vis_len);
        for _ in 0..vis_len {
            vis.push(lines.next("vis atom")?.to_string());
        }
        let st = fields(lines.next("stats")?, "stats", 10)?;
        let mut stats = Stats {
            states_visited: st[0] as usize,
            states_deduped: st[1] as usize,
            transitions: st[2] as usize,
            por_ample_states: st[3] as usize,
            por_pruned_choices: st[4] as usize,
            states_canonicalized: st[5] as usize,
            sleep_pruned: st[6] as usize,
            // st[7] and st[8] are the two slots `to_bytes` fills with 0.
            truncated: st[9] != 0,
            ..Stats::default()
        };
        // A node line and an edge line per node.
        let node_count = lines.count("nodes", 2)?;
        if node_count == 0 {
            return Err("empty graph".into());
        }
        let mut nodes = Vec::with_capacity(node_count);
        for i in 0..node_count {
            let line = lines.next("node record")?;
            let rest = line.strip_prefix("n ").ok_or_else(|| format!("bad node line {i}"))?;
            let mut parts = rest.split(' ');
            let mut num = |what: &str| -> Result<u32, String> {
                parts
                    .next()
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| format!("bad node {what} at {i}"))
            };
            let (depth, parent, via) = (num("depth")?, num("parent")?, num("via")?);
            let terminal = match parts.next() {
                Some("-") => None,
                Some("a") => Some(TerminalKind::AllDone),
                Some("q") => Some(TerminalKind::Quiescent),
                Some("d") => Some(TerminalKind::Deadlock),
                _ => return Err(format!("bad node terminal at {i}")),
            };
            if i > 0 && parent as usize >= i {
                return Err(format!("node {i}: parent {parent} not earlier"));
            }
            // `sig` is a placeholder until replay assigns the real one.
            nodes.push(NodeRec { sig: StateSig::PLACEHOLDER, depth, parent, via, terminal });
        }

        // Replay: process nodes in id order; a node's signature is
        // always assigned by an in-edge from a smaller id (its BFS
        // creator) before its own out-edges are replayed.
        let interner = Interner::new();
        let mut root = interp.initial_state();
        root.steps = 0;
        if reduction.symmetry {
            interner.canonicalize_symmetry(&mut root);
        }
        let mut sigs: Vec<Option<StateSig>> = vec![None; node_count];
        sigs[0] = Some(interner.intern(&root));
        let mut edges = FlatEdges::default();
        for id in 0..node_count {
            edges.open(id as u32);
            let line = lines.next("edge record")?;
            let rest = line.strip_prefix("e ").ok_or_else(|| format!("bad edge line {id}"))?;
            let mut parts = rest.split(' ');
            // The count sizes nothing: edges go to the flat store one
            // by one, and a count the line cannot hold runs short.
            let count: usize = parts
                .next()
                .and_then(|p| p.parse().ok())
                .ok_or_else(|| format!("bad edge count at {id}"))?;
            let src = sigs[id].ok_or_else(|| format!("node {id} unreachable in replay"))?;
            for _ in 0..count {
                let part = parts.next().ok_or_else(|| format!("short edge line {id}"))?;
                let (target, picks_txt) =
                    part.split_once(':').ok_or_else(|| format!("bad edge at {id}"))?;
                let target: u32 = target.parse().map_err(|_| format!("bad edge target at {id}"))?;
                if target as usize >= node_count {
                    return Err(format!("edge target {target} out of range at {id}"));
                }
                let mut sig = src;
                for pick_txt in picks_txt.split(',') {
                    let pick: usize = pick_txt.parse().map_err(|_| format!("bad pick at {id}"))?;
                    let state = interner.materialize(sig);
                    let choices = interp.choices(&state);
                    let choice = choices
                        .get(pick)
                        .ok_or_else(|| format!("pick {pick} out of range at node {id}"))?;
                    let mut next_state = state;
                    edges.events.extend(
                        interp
                            .apply(&mut next_state, choice)
                            .map_err(|e| format!("replay fault at node {id}: {e}"))?,
                    );
                    next_state.steps = 0;
                    // Replay must land on the same orbit
                    // representatives the build interned, or targets
                    // spuriously diverge.
                    if reduction.symmetry {
                        interner.canonicalize_symmetry(&mut next_state);
                    }
                    sig = interner.intern(&next_state);
                    edges.picks.push(pick);
                }
                match sigs[target as usize] {
                    None => sigs[target as usize] = Some(sig),
                    Some(existing) if existing == sig => {}
                    Some(_) => {
                        return Err(format!("replay divergence: edge {id} -> {target}"));
                    }
                }
                edges.close(target);
            }
        }
        edges.finish(node_count);
        let tail = lines.next("content hash")?;
        let expected = tail
            .strip_prefix("content ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or_else(|| "bad content line".to_string())?;

        // Commit the replayed signatures, recompute terminals from the
        // stored classifications + materialized outputs, and verify.
        let mut terminals = BTreeSet::new();
        for (i, node) in nodes.iter_mut().enumerate() {
            node.sig = sigs[i].ok_or_else(|| format!("node {i} unreachable in replay"))?;
            if i > 0 && node.via >= edges.degree(node.parent) {
                return Err(format!("node {i}: via out of range"));
            }
            if let Some(outcome) = node.terminal {
                let output = interner.materialize(node.sig).output.normalized();
                terminals.insert(Terminal { output, outcome });
            }
        }
        stats.wall = begin.elapsed();
        stats.build_wall = stats.wall;
        let meta = GraphMeta { digest, limits, reduction, vis };
        let graph = edges.into_graph(interner, meta, nodes, terminals, stats);
        let actual = graph.content_hash();
        if actual != expected {
            return Err(format!(
                "content hash mismatch: file {expected:016x}, replay {actual:016x}"
            ));
        }
        Ok(graph)
    }
}

/// The persisted form's lines, counting those not yet read so that a
/// header count can be checked against the input before it sizes an
/// allocation.
struct Lines<'a> {
    iter: std::str::Lines<'a>,
    left: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self, what: &str) -> Result<&'a str, String> {
        let line = self.iter.next().ok_or_else(|| format!("missing {what}"))?;
        self.left -= 1;
        Ok(line)
    }

    /// Parse a `key count` header announcing `count` records of
    /// `per_record` lines each; a count the rest of the input cannot
    /// hold is corrupt.
    fn count(&mut self, key: &str, per_record: usize) -> Result<usize, String> {
        let count: usize = field(self.next(key)?, key)?;
        if count > self.left / per_record {
            return Err(format!("{key} count {count} exceeds the {} lines left", self.left));
        }
        Ok(count)
    }
}

/// The flat edge store under construction. A build or a reload opens
/// each node in id order, so each node's out-edges are contiguous, and
/// appends an edge's events and picks before closing the edge.
#[derive(Default)]
struct FlatEdges {
    start: Vec<u32>,
    recs: Vec<EdgeRec>,
    events: Vec<Event>,
    picks: Vec<usize>,
}

impl FlatEdges {
    /// Start node `id`'s out-edges.
    fn open(&mut self, id: u32) {
        assert_eq!(self.start.len(), id as usize, "nodes open in id order");
        self.start.push(offset(self.recs.len()));
    }

    /// Edges closed so far for the node opened last.
    fn open_degree(&self) -> u32 {
        offset(self.recs.len()) - self.start.last().expect("a node is open")
    }

    /// Record an edge to `target` owning the events and picks appended
    /// since the previous edge.
    fn close(&mut self, target: u32) {
        let rec = EdgeRec {
            target,
            events_end: offset(self.events.len()),
            picks_end: offset(self.picks.len()),
        };
        self.recs.push(rec);
    }

    /// End the store for a graph of `nodes` nodes; nodes never opened
    /// (a truncated build leaves some unexpanded) own no edges.
    fn finish(&mut self, nodes: usize) {
        self.start.resize(nodes + 1, offset(self.recs.len()));
    }

    /// Out-degree of a node of a finished store.
    fn degree(&self, node: u32) -> u32 {
        self.start[node as usize + 1] - self.start[node as usize]
    }

    /// Assemble the graph from a finished store, dropping every array's
    /// spare capacity.
    fn into_graph(
        self,
        interner: Interner,
        meta: GraphMeta,
        nodes: Vec<NodeRec>,
        terminals: BTreeSet<Terminal>,
        stats: Stats,
    ) -> StateGraph {
        StateGraph {
            interner,
            meta,
            nodes: nodes.into_boxed_slice(),
            edges: self.recs.into_boxed_slice(),
            edge_start: self.start.into_boxed_slice(),
            events: self.events.into_boxed_slice(),
            picks: self.picks.into_boxed_slice(),
            terminals,
            stats,
            verdicts: Mutex::default(),
        }
    }
}

/// An index into a flat edge array as a stored `u32` offset. Each
/// entry costs at least 4 bytes in memory and 2 in a store file, so no
/// graph that fits either comes near the bound.
fn offset(index: usize) -> u32 {
    u32::try_from(index).expect("flat edge offsets fit u32")
}

/// Parse one `key value` header line into the value.
fn field<T: std::str::FromStr>(line: &str, key: &str) -> Result<T, String> {
    line.strip_prefix(key)
        .map(str::trim)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad {key} line"))
}

/// Parse a `key v1 v2 ...` header line into exactly `n` integers.
fn fields(line: &str, key: &str, n: usize) -> Result<Vec<u64>, String> {
    let vals: Vec<u64> = line
        .strip_prefix(key)
        .unwrap_or("")
        .split_whitespace()
        .map(|v| v.parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| format!("bad {key} line"))?;
    if vals.len() != n {
        return Err(format!("bad {key} line: want {n} fields, got {}", vals.len()));
    }
    Ok(vals)
}

/// Merge one expansion's stats delta into the build total (sums and
/// maxes; wall clocks are set by the caller at the end).
fn accrue(total: &mut Stats, part: &Stats) {
    total.transitions += part.transitions;
    total.por_ample_states += part.por_ample_states;
    total.por_pruned_choices += part.por_pruned_choices;
    total.states_canonicalized += part.states_canonicalized;
    total.sleep_pruned += part.sleep_pruned;
    total.truncated |= part.truncated;
}

/// Nodes per chunk when a level of `width` nodes fans out across
/// `workers` threads: `width` split evenly into at most
/// [`MAX_LEVEL_THREADS`] contiguous chunks, one thread each.
fn level_chunk(width: usize, workers: usize) -> usize {
    width.div_ceil(workers.clamp(1, MAX_LEVEL_THREADS))
}

/// Expand every node of one level against the frozen snapshot,
/// fanning out across up to `workers` threads (at most
/// [`MAX_LEVEL_THREADS`]) when the level is wide enough. Results are
/// returned in frontier order regardless of scheduling.
fn expand_level(
    planner: Planner<'_>,
    items: &[(StateSig, u32, SleepSet)],
    max_depth: usize,
    workers: usize,
) -> Vec<Result<LevelOut, RuntimeError>> {
    let expand = |&(sig, depth, sleep): &(StateSig, u32, SleepSet)| {
        expand_node(planner, sig, depth, sleep, max_depth)
    };
    if items.len() < PAR_LEVEL_MIN || workers <= 1 {
        return items.iter().map(expand).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(level_chunk(items.len(), workers))
            .map(|part| scope.spawn(move || part.iter().map(expand).collect::<Vec<_>>()))
            .collect();
        let mut outs = Vec::with_capacity(items.len());
        for handle in handles {
            outs.extend(handle.join().expect("level worker panicked"));
        }
        outs
    })
}

/// Expand a single node: classify terminals, honor the depth bound,
/// otherwise let the planner pick and apply its successors.
fn expand_node(
    planner: Planner<'_>,
    sig: StateSig,
    depth: u32,
    sleep: SleepSet,
    max_depth: usize,
) -> Result<LevelOut, RuntimeError> {
    let mut stats = Stats::default();
    let state = planner.pools.materialize(sig);
    let choices = planner.interp.choices(&state);
    if choices.is_empty() {
        let outcome = match planner.interp.classify_stuck(&state) {
            Outcome::AllDone => TerminalKind::AllDone,
            Outcome::Quiescent => TerminalKind::Quiescent,
            _ => TerminalKind::Deadlock,
        };
        let terminal = Terminal { output: state.output.normalized(), outcome };
        return Ok(LevelOut { terminal: Some(terminal), expansion: Expansion::default(), stats });
    }
    if depth as usize >= max_depth {
        stats.truncated = true;
        return Ok(LevelOut { terminal: None, expansion: Expansion::default(), stats });
    }
    let expansion = planner.plan(&state, &choices, sleep, &mut stats)?;
    Ok(LevelOut { terminal: None, expansion, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    fn graph(src: &str, workers: usize) -> StateGraph {
        let interp = Interp::from_source(src).expect("compiles");
        StateGraph::build(
            &interp,
            Limits::default(),
            Reduction::default(),
            Visibility::NONE,
            workers,
            Vec::new(),
        )
        .expect("builds")
    }

    /// Same out-edges, node by node: targets, events and picks.
    fn assert_same_edges(base: &StateGraph, other: &StateGraph, workers: usize) {
        assert_eq!(other.edge_start, base.edge_start, "{workers} workers: out-degrees");
        for e in 0..base.edges.len() {
            let (ea, eb) = (base.edge(e), other.edge(e));
            assert_eq!(ea.target, eb.target, "{workers} workers: edge target");
            assert_eq!(ea.events, eb.events, "{workers} workers: edge events");
            assert_eq!(ea.picks, eb.picks, "{workers} workers: edge picks");
        }
    }

    /// Node count of the graph's widest BFS level.
    fn peak_level_width(graph: &StateGraph) -> usize {
        let mut width = FxHashMap::default();
        for node in &graph.nodes {
            *width.entry(node.depth).or_insert(0usize) += 1;
        }
        width.values().copied().max().unwrap_or(0)
    }

    #[test]
    fn graph_terminals_match_the_oracle() {
        for src in [figures::FIG3_TWO_PRINTS, figures::FIG5_MESSAGE_PASSING] {
            let interp = Interp::from_source(src).expect("compiles");
            let direct = crate::oracle::Oracle::new(&interp).terminals().expect("explores");
            let built = StateGraph::build(
                &interp,
                Limits::default(),
                Reduction::default(),
                Visibility::NONE,
                1,
                Vec::new(),
            )
            .expect("builds");
            assert_eq!(built.terminal_set().terminals, direct.terminals);
        }
    }

    #[test]
    fn graph_is_byte_identical_across_worker_counts() {
        let base = graph(figures::FIG5_MESSAGE_PASSING, 1);
        for workers in [2, 4, 8] {
            let other = graph(figures::FIG5_MESSAGE_PASSING, workers);
            assert_eq!(other.nodes.len(), base.nodes.len(), "{workers} workers: node count");
            assert_eq!(other.terminals, base.terminals, "{workers} workers: terminals");
            assert_same_edges(&base, &other, workers);
        }
    }

    #[test]
    fn unreduced_graph_conserves_claims() {
        // Without POR every transition is exactly one edge and one
        // dedup-or-insert, so the store conserves claims at any worker
        // count, and stores exactly the states the oracle reaches.
        let interp = Interp::from_source(figures::FIG5_MESSAGE_PASSING).expect("compiles");
        let built = StateGraph::build(
            &interp,
            Limits::default(),
            Reduction::NONE,
            Visibility::NONE,
            4,
            Vec::new(),
        )
        .expect("builds");
        let s = built.stats();
        assert_eq!(s.states_visited + s.states_deduped, s.transitions + 1);
        let direct = crate::oracle::Oracle::new(&interp).terminals().expect("explores");
        assert_eq!(s.states_visited, direct.stats.states_visited);
        assert_eq!(s.transitions, direct.stats.transitions);
    }

    /// Three concurrent senders racing six messages toward two sinks:
    /// wide enough that mid-BFS levels exceed [`PAR_LEVEL_MIN`], so
    /// the scoped-thread fan-out actually runs. The figure-based tests
    /// above never reach that width, which once let a worker-count
    /// nondeterminism slip through: `InFlight`'s Eq ignores its
    /// `seq`/`from` correlation tags, so the sharded pools kept a
    /// race-dependent representative and `Received` events recorded on
    /// edges differed between builds (fixed by canonicalizing tags at
    /// materialize time — see `intern::canonicalize_tags`).
    const WIDE_FANOUT: &str = "\
CLASS Sink
    DEFINE serve()
        ON_RECEIVING
            MESSAGE.tag(k)
                PRINT k
    ENDDEF
ENDCLASS
CLASS Sender
    DEFINE fire(target, k)
        Send(MESSAGE.tag(k)).To(target)
        Send(MESSAGE.tag(k + 1)).To(target)
    ENDDEF
ENDCLASS
s1 = new Sink()
s1.serve()
s2 = new Sink()
s2.serve()
a = new Sender()
b = new Sender()
c = new Sender()
PARA
    a.fire(s1, 1)
    b.fire(s1, 3)
    c.fire(s2, 5)
ENDPARA
";

    #[test]
    fn wide_frontier_graph_is_byte_identical_across_worker_counts() {
        let interp = Interp::from_source(WIDE_FANOUT).expect("compiles");
        // The full space is ~150k states; a depth bound keeps the test
        // to a few hundred nodes while the mid levels (60- and
        // 108-wide) still cross the fan-out threshold. Depth
        // truncation is deterministic, so byte-identity still holds.
        let limits = Limits { max_depth: 16, ..Limits::default() };
        let build = |workers| {
            StateGraph::build(
                &interp,
                limits,
                Reduction::NONE,
                Visibility::NONE,
                workers,
                Vec::new(),
            )
            .expect("builds")
        };
        let base = build(1);
        let peak = peak_level_width(&base);
        assert!(
            peak >= PAR_LEVEL_MIN,
            "peak level width {peak} must reach PAR_LEVEL_MIN={PAR_LEVEL_MIN} \
             or the parallel expansion path is untested"
        );
        assert!(
            base.events.iter().any(|ev| matches!(ev, Event::Received { .. })),
            "edges must record Received events (the tag-sensitive case)"
        );
        for workers in [2, 4, 8] {
            let other = build(workers);
            assert_eq!(other.nodes.len(), base.nodes.len(), "{workers} workers: node count");
            assert_eq!(other.terminals, base.terminals, "{workers} workers: terminals");
            assert_same_edges(&base, &other, workers);
        }
    }

    #[test]
    fn truncated_build_is_flagged_and_deterministic() {
        let interp = Interp::from_source(figures::FIG5_MESSAGE_PASSING).expect("compiles");
        let limits = Limits { max_states: 3, ..Limits::default() };
        let a = StateGraph::build(
            &interp,
            limits,
            Reduction::default(),
            Visibility::NONE,
            1,
            Vec::new(),
        )
        .expect("builds");
        let b = StateGraph::build(
            &interp,
            limits,
            Reduction::default(),
            Visibility::NONE,
            4,
            Vec::new(),
        )
        .expect("builds");
        assert!(a.truncated());
        assert_eq!(a.node_count(), b.node_count());
        assert!(a.node_count() <= 3);
    }

    /// A symmetric build under the full reduction stack serializes to
    /// the same bytes at every worker count. dining(5)'s widest level
    /// crosses [`PAR_LEVEL_MIN`], so workers canonicalize concurrently
    /// and race to insert the same records into the shared orbit-key
    /// memo; a race may render a key twice but must never change a
    /// representative.
    #[test]
    fn symmetric_graph_is_byte_identical_across_worker_counts() {
        let interp = Interp::from_source(&figures::dining(5)).expect("compiles");
        let build = |workers| {
            StateGraph::build(
                &interp,
                Limits::default(),
                Reduction::FULL,
                Visibility::NONE,
                workers,
                Vec::new(),
            )
            .expect("builds")
        };
        let base = build(1);
        let peak = peak_level_width(&base);
        assert!(
            peak >= PAR_LEVEL_MIN,
            "peak level width {peak} must reach PAR_LEVEL_MIN={PAR_LEVEL_MIN} \
             or the parallel expansion path is untested"
        );
        assert!(base.stats().states_canonicalized > 0, "symmetry fired");
        let bytes = base.to_bytes();
        for workers in [2, 4, 8] {
            assert!(build(workers).to_bytes() == bytes, "{workers} workers: graph bytes differ");
        }
    }

    /// A level fans out across at most [`MAX_LEVEL_THREADS`] threads
    /// however many workers are asked for, while the small worker
    /// counts the byte-identity tests use keep their exact split.
    /// Checked on the partition alone: no thread is started.
    #[test]
    fn level_fan_out_is_bounded_by_a_constant() {
        let width = 1_000_000;
        let chunk = level_chunk(width, usize::MAX);
        assert!(width.div_ceil(chunk) <= MAX_LEVEL_THREADS, "{} threads", width.div_ceil(chunk));
        assert_eq!(level_chunk(width, 0), width, "zero workers means one thread");
        for workers in [1, 2, 4, 8] {
            assert_eq!(level_chunk(width, workers), width.div_ceil(workers), "{workers} workers");
            assert_eq!(level_chunk(PAR_LEVEL_MIN, workers), PAR_LEVEL_MIN.div_ceil(workers));
        }
    }

    /// Witnesses read off a quotient graph need concretization: on
    /// dining(3) some stored pick indexes a representative's choice
    /// list at a position the concrete state's list does not, so
    /// replaying the stored picks verbatim would run a different
    /// schedule. (The concretized witnesses are replayed end to end in
    /// `tests/quotient_witness.rs`.)
    #[test]
    fn quotient_witness_picks_are_remapped_by_concretization() {
        use crate::event::EventKindPattern;
        let interp = Interp::from_source(&figures::dining(3)).expect("compiles");
        let phil_returns = EventPattern::any(EventKindPattern::Returned { func: "phil".into() });
        let queries = [vec![phil_returns.clone()], vec![phil_returns; 3]];
        let mut remapped = 0;
        for query in &queries {
            let visibility = Visibility { patterns: query, conds: &[] };
            let graph = StateGraph::build(
                &interp,
                Limits::default(),
                Reduction::FULL,
                visibility,
                1,
                Vec::new(),
            )
            .expect("builds");
            let (answer, evidence) = graph.stored_witness(&interp, &[], query, usize::MAX);
            assert!(answer.is_yes(), "{} phil returns can happen", query.len());
            let stored = evidence.expect("a YES carries evidence").decisions;
            let concrete = graph.concretize_decisions(&interp, stored.clone());
            assert_eq!(concrete.len(), stored.len(), "one concrete pick per stored pick");
            remapped += stored.iter().zip(&concrete).filter(|(s, c)| s != c).count();
        }
        assert!(remapped > 0, "no stored pick was remapped: concretization went untested");
    }
}
