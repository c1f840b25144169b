//! Memoized query sessions: the build-once-query-many facade.
//!
//! A [`Session`] answers terminal enumeration, `can_happen` and
//! `admits_trace` by reading a [`StateGraph`] held in a graph store.
//! The first question against a program pays one graph build; every
//! later question with a compatible key is a traversal of the stored
//! graph. [`Explorer`](crate::explore::Explorer) is the session with
//! no store and one build worker: every question pays a build.
//!
//! # The cache key, and why visibility is in it
//!
//! Graphs are keyed by `GraphKey`: the program digest
//! ([`Interp::digest`]), the exploration [`Limits`], the reduction
//! stack, and a *visibility signature*. Partial-order reduction is only
//! sound relative to what a query can observe: the reduced graph may
//! defer (and commute away) any transition that is *invisible* — one
//! that cannot match a queried event pattern or flip a watched state
//! condition. Two queries that observe different things may therefore
//! require different reduced graphs, and serving one from the other's
//! cache entry would be unsound.
//!
//! The signature (`vis_signature`) canonicalizes a query's patterns
//! and conditions down to exactly the fields the footprint predicates
//! ([`Footprint::may_match_patterns`](crate::footprint::Footprint::may_match_patterns) /
//! [`Footprint::affects_conds`](crate::footprint::Footprint::affects_conds))
//! can distinguish — pattern kind, task label, function name, message
//! name and resolved payload; condition kind, task label, function,
//! message and global names. Fields those predicates ignore (a
//! `Printed` pattern's text, a `CalledTimes` threshold, a
//! `GlobalEquals` value) are dropped: queries differing only there
//! provably see identical visibility verdicts at every footprint, so
//! they produce — and may share — the identical reduced graph. Equal
//! signatures ⇒ identical predicate behavior ⇒ identical graph;
//! different signatures fall back transparently to building (and
//! caching) the graph for the new signature.
//!
//! With POR off the graph is the full state space — sound for any
//! observation — so the signature is forced empty and every query of
//! the program shares one unreduced graph.
//!
//! # Where graphs live
//!
//! A session resolves every graph through one store, a [`Server`]:
//! the one given with [`Session::via_server`], a [`QueryCache`] (the
//! server preset for a single caller) given with
//! [`Session::with_cache`], or else the process's default cache.
//! `CONCUR_QUERY_CACHE=0` removes that default: a session opened
//! without an explicit store then builds every query's graph afresh,
//! the no-store reference path the memoized answers are tested
//! against. Spec verdicts are memoized on the graph they were decided
//! on, whichever store holds it.
//!
//! Two environment variables are read, each once per process:
//! `CONCUR_EXPLORE_THREADS` (graph-build workers) and
//! `CONCUR_QUERY_CACHE`.

use crate::event::{EventKindPattern, EventPattern, StateCond};
use crate::explore::{Answer, Limits, Reduction, Stats, TerminalSet, Visibility};
use crate::graph::{GraphMeta, StateGraph, WitnessEvidence};
use crate::interp::Interp;
use crate::server::{Server, ServerConfig};
use crate::spec::{Spec, SpecReport};
use crate::value::RuntimeError;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The graph-build worker count for sessions (and server sessions)
/// that set none with [`Session::with_threads`]: the
/// `CONCUR_EXPLORE_THREADS` environment variable, read once per
/// process (values `>= 1`; unset, `0` or garbage fall back to the
/// machine's available parallelism).
fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        std::env::var("CONCUR_EXPLORE_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// The store of sessions opened without one: a process-wide
/// [`QueryCache`], or none when `CONCUR_QUERY_CACHE=0` (read once per
/// process).
fn default_store() -> Option<&'static QueryCache> {
    static DEFAULT: OnceLock<Option<QueryCache>> = OnceLock::new();
    DEFAULT
        .get_or_init(|| {
            let off = std::env::var("CONCUR_QUERY_CACHE").is_ok_and(|v| v.trim() == "0");
            (!off).then(QueryCache::new)
        })
        .as_ref()
}

/// Identity of a memoized state graph. Worker count is deliberately
/// absent: the level-synchronized builder ([`crate::graph`]) produces
/// byte-identical graphs at every worker count, so parallelism is a
/// build-speed knob, not part of the answer's identity.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct GraphKey {
    digest: u64,
    max_states: usize,
    max_depth: usize,
    max_setup_states: usize,
    /// The *effective* reduction stack: the session's configured
    /// stack with `symmetry` masked off for programs that declare no
    /// `SYMMETRIC` blocks (where the quotient is the identity).
    /// Graphs built under different reductions are different objects
    /// — a quotient graph must never answer for an unreduced one —
    /// so the whole stack is part of the key.
    reduction: Reduction,
    /// Canonical visibility signature (empty when no
    /// visibility-sensitive reduction is on or the query observes
    /// nothing).
    vis: Vec<String>,
}

impl GraphKey {
    /// The key re-expressed as graph metadata — what a disk-persisted
    /// graph must carry, field-for-field, to be served under this key.
    pub(crate) fn meta(&self) -> GraphMeta {
        GraphMeta {
            digest: self.digest,
            limits: Limits {
                max_states: self.max_states,
                max_depth: self.max_depth,
                max_setup_states: self.max_setup_states,
            },
            reduction: self.reduction,
            vis: self.vis.clone(),
        }
    }
}

/// One resolved graph lookup: the graph plus how it was obtained —
/// folded into the query's [`Stats`] card by
/// [`Session::finish_stats`].
pub(crate) struct Fetched {
    pub(crate) graph: Arc<StateGraph>,
    /// Served from an already-resident graph.
    pub(crate) hit: bool,
    /// Parked behind another client's in-flight build.
    pub(crate) parked: bool,
    /// Cold graphs evicted to admit this one.
    pub(crate) evictions: usize,
    /// Graph reloaded from the disk store instead of built.
    pub(crate) disk_load: bool,
}

impl Fetched {
    pub(crate) fn local(graph: Arc<StateGraph>, hit: bool) -> Fetched {
        Fetched { graph, hit, parked: false, evictions: 0, disk_load: false }
    }
}

/// Counters describing a cache's lifetime behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries answered from an already-built graph.
    pub hits: usize,
    /// Queries that found no graph under their key.
    pub misses: usize,
    /// Graph builds performed (== distinct keys seen: racers on one
    /// cold key park on a single build).
    pub builds: usize,
    /// Graphs currently stored.
    pub entries: usize,
    /// Spec verdicts served from the verdict memo.
    pub spec_hits: usize,
    /// Spec verdicts computed by a fresh product traversal.
    pub spec_misses: usize,
}

/// A graph store for one caller: a [`Server`] preset with one tenant,
/// no tenant budget, no disk store and no admission limit. Every build
/// is admitted at once, racers on one cold key park on a single build,
/// and a panicking build becomes the server's typed error.
///
/// Shared across sessions via `Arc` ([`Session::with_cache`]).
pub struct QueryCache {
    server: Server,
}

/// The one tenant of a [`QueryCache`].
const CACHE_TENANT: &str = "cache";

impl QueryCache {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        QueryCache { server: Server::new(ServerConfig::new().permits(usize::MAX)) }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        let s = self.server.stats();
        CacheStats {
            hits: s.hits,
            misses: s.misses,
            builds: s.builds,
            entries: s.entries,
            spec_hits: s.spec_hits,
            spec_misses: s.spec_misses,
        }
    }

    /// The session store this cache stands for.
    fn store(&self) -> Store {
        Store { server: self.server.clone(), tenant: Cow::Borrowed(CACHE_TENANT) }
    }
}

impl Default for QueryCache {
    fn default() -> Self {
        QueryCache::new()
    }
}

/// Canonical visibility signature of a query: one atom per
/// distinguishable (by the footprint predicates) observation, sorted
/// and deduplicated. See the module docs for the soundness argument.
pub(crate) fn vis_signature(patterns: &[EventPattern], conds: &[StateCond]) -> Vec<String> {
    let mut atoms: Vec<String> = Vec::with_capacity(patterns.len() + conds.len());
    for p in patterns {
        atoms.push(pattern_atom(p));
    }
    for c in conds {
        atoms.push(cond_atom(c));
    }
    atoms.sort();
    atoms.dedup();
    atoms
}

/// The fields of one pattern that [`Emit::may_match`] consults:
/// kind + task label always; function for `Called`/`Returned`;
/// message name and resolved payload for `Sent`/`Received`.
/// `Printed` text is *not* predicted (footprints know a step prints,
/// not what), so all `Printed` patterns with one label coarsen to one
/// atom — every print-trace query of a program shares one graph.
fn pattern_atom(p: &EventPattern) -> String {
    let label = p.task_label.as_deref().unwrap_or("*");
    match &p.kind {
        EventKindPattern::Called { func } => format!("p:called:{label}:{func}"),
        EventKindPattern::Returned { func } => format!("p:returned:{label}:{func}"),
        EventKindPattern::Sent { msg_name, args } => {
            format!("p:sent:{label}:{msg_name}:{args:?}")
        }
        EventKindPattern::Received { msg_name, args } => {
            format!("p:received:{label}:{msg_name}:{args:?}")
        }
        EventKindPattern::Printed { .. } => format!("p:printed:{label}"),
        EventKindPattern::BlockedOnLocks => format!("p:blocked:{label}"),
        EventKindPattern::Acquired => format!("p:acquired:{label}"),
        EventKindPattern::Released => format!("p:released:{label}"),
        EventKindPattern::WaitStart => format!("p:waitstart:{label}"),
        EventKindPattern::WaitFinished => format!("p:waitfinished:{label}"),
        EventKindPattern::Notified => format!("p:notified:{label}"),
        EventKindPattern::Finished => format!("p:finished:{label}"),
    }
}

/// The fields of one condition that [`Footprint::affects_conds`]
/// consults. Count thresholds (`times`) and compared values are
/// ignored there — a step either can or cannot move the counter/cell,
/// regardless of the threshold — so they are dropped here too.
fn cond_atom(c: &StateCond) -> String {
    match c {
        StateCond::InFunction { task_label, func } => format!("c:infn:{task_label}:{func}"),
        StateCond::CalledTimes { task_label, func, .. } => {
            format!("c:called:{task_label}:{func}")
        }
        StateCond::ReturnedTimes { task_label, func, .. } => {
            format!("c:returned:{task_label}:{func}")
        }
        StateCond::HasSent { task_label, msg_name } => {
            format!("c:hassent:{task_label}:{msg_name}")
        }
        StateCond::ReceivedTotal { task_label, .. } => format!("c:recvd:{task_label}"),
        StateCond::GlobalEquals { name, .. } => format!("c:global:{name}"),
        StateCond::TaskExists { task_label } => format!("c:taskexists:{task_label}"),
        StateCond::HoldsLock { task_label } => format!("c:holdslock:{task_label}"),
    }
}

/// The program a session asks about: borrowed from the caller, or
/// compiled from source and owned ([`Session::from_source`]).
enum Program<'i> {
    Borrowed(&'i Interp),
    Owned(Box<Interp>),
}

/// A session's graph store: the server that holds its graphs and the
/// tenant its queries are charged to.
struct Store {
    server: Server,
    tenant: Cow<'static, str>,
}

/// A query session over one program. [`Explorer`](crate::explore::Explorer)
/// is its storeless one-worker preset, with the same builder surface.
pub struct Session<'i> {
    program: Program<'i>,
    limits: Limits,
    reduction: Reduction,
    threads: Option<usize>,
    /// `None`: no store, every query builds its graph afresh.
    store: Option<Store>,
    /// Declared observation alphabet: unioned into every query's
    /// visibility (see [`Session::observing`]).
    obs_patterns: Vec<EventPattern>,
    obs_conds: Vec<StateCond>,
}

impl<'i> Session<'i> {
    pub fn new(interp: &'i Interp) -> Self {
        Session::with_limits(interp, Limits::default())
    }

    pub fn with_limits(interp: &'i Interp, limits: Limits) -> Self {
        Session::open(Program::Borrowed(interp), limits)
    }

    fn open(program: Program<'i>, limits: Limits) -> Self {
        Session {
            program,
            limits,
            reduction: Reduction::default(),
            threads: None,
            store: default_store().map(QueryCache::store),
            obs_patterns: Vec::new(),
            obs_conds: Vec::new(),
        }
    }

    /// A session with no store that builds on the calling thread alone:
    /// every query builds a fresh graph and keeps nothing. This is what
    /// an [`Explorer`](crate::explore::Explorer) asks through.
    pub(crate) fn storeless(interp: &'i Interp, limits: Limits) -> Self {
        Session { threads: Some(1), store: None, ..Session::with_limits(interp, limits) }
    }

    /// The program this session asks about.
    fn interp(&self) -> &Interp {
        match &self.program {
            Program::Borrowed(interp) => interp,
            Program::Owned(interp) => interp,
        }
    }

    /// Replace the session's limits (builder form of
    /// [`Session::with_limits`] for sessions handed out by a
    /// [`Server`]).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Disable partial-order reduction: graphs hold the full state
    /// space and (with symmetry and sleep also off) all queries of
    /// the program share one cache entry.
    pub fn without_por(mut self) -> Self {
        self.reduction.por = false;
        self
    }

    /// Set the full reduction stack at once.
    pub fn with_reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    /// Graph-build worker count: how many threads fan out each level
    /// of a build (defaults to `CONCUR_EXPLORE_THREADS` or the
    /// machine's parallelism). Never part of the cache key — builds
    /// are byte-identical at every count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Keep this session's graphs in `cache` instead of the default
    /// store: exactly [`Session::via_server`] on the cache's server and
    /// tenant.
    pub fn with_cache(mut self, cache: Arc<QueryCache>) -> Self {
        self.store = Some(cache.store());
        self
    }

    /// Declare up front the observation alphabet this session's
    /// queries will draw from. Every graph is then built with the
    /// *union* of the query's own observations and the declared
    /// alphabet, so all queries whose observations fall inside the
    /// alphabet collapse to one cache key — one build serves the whole
    /// question bank instead of one build per distinct signature.
    ///
    /// Soundness is the visibility-superset argument the spec layer
    /// already relies on (see [`Session::check_spec`]): a graph
    /// reduced against *more* visible events preserves strictly more
    /// distinctions, so it answers any query observing a subset
    /// identically — the POR-off full graph is the limit case. The
    /// trade is build cost: the shared graph is as large as its widest
    /// query demands. Queries observing events *outside* the alphabet
    /// stay correct — their union signature is simply wider and gets
    /// its own graph.
    pub fn observing(mut self, patterns: &[EventPattern], conds: &[StateCond]) -> Self {
        self.obs_patterns.extend_from_slice(patterns);
        self.obs_conds.extend_from_slice(conds);
        self
    }

    /// Route every graph lookup through a multi-tenant [`Server`] on
    /// behalf of `tenant` (normally spelled [`Server::session`]).
    pub fn via_server(mut self, server: &Server, tenant: &str) -> Self {
        self.store = Some(Store { server: server.clone(), tenant: Cow::Owned(tenant.to_string()) });
        self
    }

    /// The graph-build worker count this session uses.
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or_else(configured_threads).max(1)
    }

    /// The reduction stack that actually applies to this program:
    /// symmetry is masked off when no `SYMMETRIC` block exists (the
    /// quotient is the identity), so symmetry-free programs share
    /// cache entries regardless of the configured symmetry flag.
    fn effective_reduction(&self) -> Reduction {
        let mut reduction = self.reduction;
        reduction.symmetry &= self.interp().compiled.has_symmetry();
        reduction
    }

    fn key(&self, reduction: Reduction, vis: Vec<String>) -> GraphKey {
        GraphKey {
            digest: self.interp().digest(),
            max_states: self.limits.max_states,
            max_depth: self.limits.max_depth,
            max_setup_states: self.limits.max_setup_states,
            reduction,
            vis,
        }
    }

    /// The memoized graph for a query observing `patterns`/`conds`.
    fn graph(
        &self,
        patterns: &[EventPattern],
        conds: &[StateCond],
    ) -> Result<Fetched, RuntimeError> {
        self.graph_for(patterns, conds, self.effective_reduction())
    }

    /// [`Session::graph`] with the reduction chosen by the caller
    /// (spec queries pin [`Reduction::NONE`] for fairness).
    fn graph_for(
        &self,
        patterns: &[EventPattern],
        conds: &[StateCond],
        reduction: Reduction,
    ) -> Result<Fetched, RuntimeError> {
        // Widen the query's observations by the session's declared
        // alphabet (no-op for undeclared sessions): the graph must be
        // sound for everything the session might ask of it.
        let (patterns, conds): (Cow<'_, [EventPattern]>, Cow<'_, [StateCond]>) =
            if self.obs_patterns.is_empty() && self.obs_conds.is_empty() {
                (Cow::Borrowed(patterns), Cow::Borrowed(conds))
            } else {
                let mut up = patterns.to_vec();
                up.extend(self.obs_patterns.iter().cloned());
                let mut uc = conds.to_vec();
                uc.extend(self.obs_conds.iter().cloned());
                (Cow::Owned(up), Cow::Owned(uc))
            };
        // Without a visibility-sensitive reduction (POR's ample sets
        // or sleep's invisibility test) the graph is observation-
        // independent; force one shared key instead of fragmenting
        // the cache by signature.
        let vis = if reduction.por || reduction.sleep {
            vis_signature(&patterns, &conds)
        } else {
            Vec::new()
        };
        let key = self.key(reduction, vis);
        let visibility = Visibility { patterns: patterns.as_ref(), conds: conds.as_ref() };
        let build = || {
            StateGraph::build(
                self.interp(),
                self.limits,
                reduction,
                visibility,
                self.effective_threads(),
                key.vis.clone(),
            )
        };
        match &self.store {
            Some(store) => store.server.obtain(&store.tenant, &key, self.interp(), build),
            None => Ok(Fetched::local(Arc::new(build()?), false)),
        }
    }

    /// The graph answering observation-free queries (terminal
    /// enumeration). Exposed so callers can persist it
    /// ([`StateGraph::to_bytes`]) or assert sharing (single-flight
    /// tests compare `Arc` pointers).
    pub fn terminal_graph(&self) -> Result<Arc<StateGraph>, RuntimeError> {
        self.graph(&[], &[]).map(|fetched| fetched.graph)
    }

    /// Fold cache accounting into a graph's build stats: `wall` is
    /// what this call actually cost (query only on a hit, build +
    /// query on a miss), `build_wall` is the build cost embodied in
    /// the graph (the time a hit avoided), `query_wall` the traversal.
    fn finish_stats(fetched: &Fetched, begin: Instant, query_begin: Instant) -> Stats {
        let mut stats = fetched.graph.stats();
        stats.cache_hits = fetched.hit as usize;
        stats.cache_misses = !fetched.hit as usize;
        stats.parked_waiters = fetched.parked as usize;
        stats.cache_evictions = fetched.evictions;
        stats.disk_loads = fetched.disk_load as usize;
        stats.query_wall = query_begin.elapsed();
        stats.wall = begin.elapsed();
        stats
    }

    /// Enumerate every terminal — a store read after the first call.
    pub fn terminals(&self) -> Result<TerminalSet, RuntimeError> {
        let begin = Instant::now();
        let fetched = self.graph(&[], &[])?;
        let query_begin = Instant::now();
        let mut set = fetched.graph.terminal_set();
        set.stats = Session::finish_stats(&fetched, begin, query_begin);
        Ok(set)
    }

    /// Could the `query` events happen (in order, as a subsequence)
    /// from some reachable state satisfying `setup`?
    pub fn can_happen(
        &self,
        setup: &[StateCond],
        query: &[EventPattern],
    ) -> Result<Answer, RuntimeError> {
        self.can_happen_with_stats(setup, query).map(|(answer, _)| answer)
    }

    /// [`Session::can_happen`] with the query's stats card.
    pub fn can_happen_with_stats(
        &self,
        setup: &[StateCond],
        query: &[EventPattern],
    ) -> Result<(Answer, Stats), RuntimeError> {
        self.can_happen_with_evidence(setup, query).map(|(answer, _, stats)| (answer, stats))
    }

    /// [`Session::can_happen`] also returning replayable
    /// [`WitnessEvidence`] for Yes verdicts: a decision vector from
    /// the program's initial state that re-executes the witness under
    /// [`crate::schedule::ReplayScheduler`].
    pub fn can_happen_with_evidence(
        &self,
        setup: &[StateCond],
        query: &[EventPattern],
    ) -> Result<(Answer, Option<WitnessEvidence>, Stats), RuntimeError> {
        let begin = Instant::now();
        let fetched = self.graph(query, setup)?;
        let query_begin = Instant::now();
        let (answer, evidence) =
            fetched.graph.can_happen(self.interp(), setup, query, self.limits.max_setup_states);
        let stats = Session::finish_stats(&fetched, begin, query_begin);
        Ok((answer, evidence, stats))
    }

    /// Could this event trace occur (in order) from the start?
    pub fn admits_trace(&self, trace: &[EventPattern]) -> Result<Answer, RuntimeError> {
        self.can_happen(&[], trace)
    }

    /// Decide a protocol [`Spec`]: does every complete execution of
    /// the program satisfy it? The spec's alphabet is folded into the
    /// graph's visibility signature — an alphabet mentioning events
    /// the session's other queries never observe *widens* the
    /// signature and gets its own (sound) reduced graph — while the
    /// spec digest keys only the verdict memo on that graph, so the
    /// many specs of a spec bank share one graph build per alphabet
    /// signature, and each spec is decided once per graph.
    /// Fairness specs ([`Spec::no_starvation`]) are decided on an
    /// unreduced graph (see [`crate::spec`] module docs).
    pub fn check_spec(&self, spec: &Spec) -> Result<SpecReport, RuntimeError> {
        self.check_spec_with_stats(spec).map(|(report, _)| report)
    }

    /// [`Session::check_spec`] with the query's stats card.
    pub fn check_spec_with_stats(&self, spec: &Spec) -> Result<(SpecReport, Stats), RuntimeError> {
        let begin = Instant::now();
        let monitor = spec.compile().map_err(|msg| {
            RuntimeError::new(format!("spec error: {msg}"), concur_pseudocode::Span::SYNTH)
        })?;
        // Fairness counts scheduler decisions — enabledness at every
        // hop — which no visibility signature can protect; decide it
        // on the full state space.
        let reduction =
            if monitor.has_fairness() { Reduction::NONE } else { self.effective_reduction() };
        let patterns: Vec<EventPattern> = monitor.alphabet().to_vec();
        let fetched = self.graph_for(&patterns, &[], reduction)?;
        let query_begin = Instant::now();
        let (report, hit) = fetched.graph.verdict(spec.digest(), || {
            crate::spec::check_on_graph(&fetched.graph, self.interp(), &monitor)
        });
        if let Some(store) = &self.store {
            store.server.count_verdict(hit);
        }
        let stats = Session::finish_stats(&fetched, begin, query_begin);
        Ok((report, stats))
    }
}

impl Session<'static> {
    /// Compile `source` and open a session that owns the program. The
    /// cache key is the source digest, so every session over identical
    /// source shares graphs, whether it owns or borrows its program.
    pub fn from_source(source: &str) -> Result<Session<'static>, String> {
        let interp = Interp::from_source(source)?;
        Ok(Session::open(Program::Owned(Box::new(interp)), Limits::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures;

    #[test]
    fn signature_coarsens_printed_text_and_thresholds() {
        let a = vis_signature(
            &[EventPattern::any(EventKindPattern::Printed { text: "x = 1".into() })],
            &[StateCond::CalledTimes { task_label: "T1".into(), func: "f".into(), times: 1 }],
        );
        let b = vis_signature(
            &[EventPattern::any(EventKindPattern::Printed { text: "x = 2".into() })],
            &[StateCond::CalledTimes { task_label: "T1".into(), func: "f".into(), times: 7 }],
        );
        assert_eq!(a, b, "fields the footprint predicates ignore must not split the key");

        let c = vis_signature(
            &[EventPattern::by("T2", EventKindPattern::Printed { text: "x = 1".into() })],
            &[],
        );
        assert_ne!(a, c, "task labels are predicted and must split the key");
    }

    #[test]
    fn signature_is_order_insensitive() {
        let p1 = EventPattern::any(EventKindPattern::Called { func: "f".into() });
        let p2 = EventPattern::any(EventKindPattern::Finished);
        let a = vis_signature(&[p1.clone(), p2.clone()], &[]);
        let b = vis_signature(&[p2, p1], &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn declared_alphabet_collapses_keys_and_preserves_answers() {
        let interp = Interp::from_source(figures::FIG5_MESSAGE_PASSING).expect("compiles");
        let q1 = vec![EventPattern::any(EventKindPattern::Finished)];
        let q2 = vec![EventPattern::any(EventKindPattern::Called { func: "receive".into() })];
        assert_ne!(
            vis_signature(&q1, &[]),
            vis_signature(&q2, &[]),
            "queries must have distinct signatures for the collapse to mean anything"
        );

        // Without a declared alphabet the two signatures build two
        // graphs — the fragmentation `observing` exists to remove.
        let plain_cache = Arc::new(QueryCache::new());
        let plain = |q: &[EventPattern]| {
            Session::new(&interp)
                .with_cache(Arc::clone(&plain_cache))
                .can_happen(&[], q)
                .expect("explores")
        };
        let a1 = plain(&q1);
        let a2 = plain(&q2);
        assert_eq!(plain_cache.stats().builds, 2, "distinct signatures build separately");

        // With the union declared, both queries share one graph and
        // their answers are unchanged (visibility-superset soundness).
        let alphabet: Vec<EventPattern> = q1.iter().chain(q2.iter()).cloned().collect();
        let cache = Arc::new(QueryCache::new());
        let hinted = |q: &[EventPattern]| {
            Session::new(&interp)
                .with_cache(Arc::clone(&cache))
                .observing(&alphabet, &[])
                .can_happen(&[], q)
                .expect("explores")
        };
        assert_eq!(hinted(&q1).is_yes(), a1.is_yes());
        assert_eq!(hinted(&q2).is_yes(), a2.is_yes());
        assert_eq!(cache.stats().builds, 1, "alphabet-covered queries share one graph");

        // Both agree with the unreduced brute-force oracle.
        let oracle = crate::oracle::Oracle::new(&interp);
        assert_eq!(oracle.can_happen(&[], &q1).expect("explores").is_yes(), a1.is_yes());
        assert_eq!(oracle.can_happen(&[], &q2).expect("explores").is_yes(), a2.is_yes());
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let cache = Arc::new(QueryCache::new());
        let interp = Interp::from_source(figures::FIG3_TWO_PRINTS).expect("compiles");
        let session = Session::new(&interp).with_cache(Arc::clone(&cache));
        let first = session.terminals().expect("explores");
        let second = session.terminals().expect("explores");
        assert_eq!(first.terminals, second.terminals);
        assert_eq!(first.stats.cache_misses, 1);
        assert_eq!(first.stats.cache_hits, 0);
        assert_eq!(second.stats.cache_hits, 1);
        assert_eq!(second.stats.cache_misses, 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.builds, stats.entries), (1, 1, 1, 1));
    }

    /// The no-store reference path (`CONCUR_QUERY_CACHE=0` for
    /// sessions opened without a store): every query builds afresh
    /// and answers the same.
    #[test]
    fn storeless_session_rebuilds_and_stays_correct() {
        let interp = Interp::from_source(figures::FIG3_TWO_PRINTS).expect("compiles");
        let mut session = Session::new(&interp);
        session.store = None;
        let first = session.terminals().expect("explores");
        let second = session.terminals().expect("explores");
        assert_eq!(first.terminals, second.terminals);
        assert_eq!(first.stats.cache_misses, 1, "every query pays a build");
        assert_eq!(second.stats.cache_misses, 1, "every query pays a build");
        let a = session.terminal_graph().expect("builds");
        let b = session.terminal_graph().expect("builds");
        assert!(!Arc::ptr_eq(&a, &b), "nothing is stored");
    }

    /// Racers on one cold key of a fresh cache park on a single build
    /// and all receive its graph.
    #[test]
    fn racing_sessions_share_one_build() {
        const RACERS: usize = 4;
        let interp = Interp::from_source(&figures::dining(3)).expect("compiles");
        let cache = Arc::new(QueryCache::new());
        let barrier = std::sync::Barrier::new(RACERS);
        let graphs: Vec<Arc<StateGraph>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..RACERS)
                .map(|_| {
                    let session =
                        Session::new(&interp).with_cache(Arc::clone(&cache)).with_threads(1);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        session.terminal_graph().expect("builds")
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("racer")).collect()
        });
        for graph in &graphs[1..] {
            assert!(Arc::ptr_eq(&graphs[0], graph), "racers received distinct graphs");
        }
        let stats = cache.stats();
        assert_eq!(stats.builds, 1, "one build for one cold key, however many race it");
        assert_eq!((stats.hits + stats.misses, stats.entries), (RACERS, 1));
    }

    #[test]
    fn identical_source_shares_graphs_across_owned_sessions() {
        let cache = Arc::new(QueryCache::new());
        let a = Session::from_source(figures::FIG1_ASSIGNMENTS)
            .expect("compiles")
            .with_cache(Arc::clone(&cache));
        let b = Session::from_source(figures::FIG1_ASSIGNMENTS)
            .expect("compiles")
            .with_cache(Arc::clone(&cache));
        let ta = a.terminals().expect("explores");
        let tb = b.terminals().expect("explores");
        assert_eq!(ta.terminals, tb.terminals);
        assert_eq!(cache.stats().builds, 1, "same source digest, one build");
        assert_eq!(cache.stats().hits, 1);

        // A session borrowing an interpreter compiled from the same
        // source reads the very same graph.
        let interp = Interp::from_source(figures::FIG1_ASSIGNMENTS).expect("compiles");
        let borrowed = Session::new(&interp).with_cache(Arc::clone(&cache));
        let owned_graph = a.terminal_graph().expect("explores");
        let borrowed_graph = borrowed.terminal_graph().expect("explores");
        assert!(Arc::ptr_eq(&owned_graph, &borrowed_graph), "owned and borrowed share one graph");
        assert_eq!(cache.stats().builds, 1, "the borrowing session built nothing");
    }

    #[test]
    fn different_programs_never_share_entries() {
        let cache = Arc::new(QueryCache::new());
        let a = Session::from_source(figures::FIG3_TWO_PRINTS)
            .expect("compiles")
            .with_cache(Arc::clone(&cache));
        let b = Session::from_source(figures::FIG3_SEQUENTIAL_FN)
            .expect("compiles")
            .with_cache(Arc::clone(&cache));
        let ta = a.terminals().expect("explores");
        let tb = b.terminals().expect("explores");
        assert_ne!(ta.terminals, tb.terminals, "distinct programs, distinct answers");
        assert_eq!(cache.stats().builds, 2);
        assert_eq!(cache.stats().hits, 0);
    }
}
