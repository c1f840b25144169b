//! Memoized query sessions: the build-once-query-many facade.
//!
//! A [`Session`] answers the same questions as
//! [`Explorer`](crate::explore::Explorer) — terminal enumeration,
//! `can_happen`, `admits_trace` — but routes every answer through a
//! persistent [`StateGraph`] memoized in a
//! [`QueryCache`]. The first question against a program pays one
//! graph build; every later question with a compatible key is a
//! traversal of the stored graph.
//!
//! # The cache key, and why visibility is in it
//!
//! Graphs are keyed by `GraphKey`: the program digest
//! ([`Interp::digest`]), the exploration [`Limits`], the POR mode,
//! and a *visibility signature*. Partial-order reduction is only
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
//! Set `CONCUR_QUERY_CACHE=0` to disable the process-global cache
//! (every query rebuilds); per-[`Session`] caches injected with
//! [`Session::with_cache`] are unaffected by the knob.

use crate::event::{EventKindPattern, EventPattern, StateCond};
use crate::explore::{Answer, Limits, Reduction, Stats, TerminalSet, Visibility};
use crate::graph::{GraphMeta, StateGraph, WitnessEvidence};
use crate::intern::FxHashMap;
use crate::interp::Interp;
use crate::server::Server;
use crate::spec::{Spec, SpecReport};
use crate::value::RuntimeError;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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
    /// Parked behind another client's in-flight build (server only).
    pub(crate) parked: bool,
    /// Cold graphs evicted to admit this one (server only).
    pub(crate) evictions: usize,
    /// Graph reloaded from the disk store instead of built (server
    /// only).
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
    /// Graph builds performed (== distinct keys seen, absent races).
    pub builds: usize,
    /// Graphs currently stored.
    pub entries: usize,
    /// Spec verdicts served from the verdict memo.
    pub spec_hits: usize,
    /// Spec verdicts computed by a fresh product traversal.
    pub spec_misses: usize,
}

/// A memoized store of state graphs keyed by `GraphKey` (program
/// digest, limits, reduction stack, visibility signature).
///
/// Shared across sessions via `Arc`; all methods take `&self`. Builds
/// happen outside the map lock, so two threads racing on the same
/// fresh key may both build — they produce identical graphs (the
/// builder is deterministic) and the first insert wins, so the race
/// costs time, never correctness.
pub struct QueryCache {
    enabled: bool,
    map: Mutex<FxHashMap<GraphKey, Arc<StateGraph>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    builds: AtomicUsize,
    /// Whether spec *verdicts* are memoized (the `CONCUR_SPEC` knob).
    /// Independent of `enabled`: graph memoization can stay on while
    /// every spec query re-traverses the shared graph.
    spec_enabled: bool,
    /// Verdict memo: the spec digest rides the *query* key next to
    /// the graph key — it must never reach [`GraphKey`] itself, or
    /// specs would fragment the graph store they are designed to
    /// share.
    specs: Mutex<FxHashMap<(GraphKey, u64), SpecReport>>,
    spec_hits: AtomicUsize,
    spec_misses: AtomicUsize,
}

impl QueryCache {
    /// A fresh, enabled cache. Deliberately ignores the
    /// `CONCUR_QUERY_CACHE` environment knob: enabledness is routed
    /// through constructor arguments ([`QueryCache::with_enabled`]),
    /// and the env var only picks the *default* for the process-global
    /// cache ([`QueryCache::global`] via [`QueryCache::from_env`]).
    /// Anything else is a test hazard — a test binary that mutates the
    /// env var races every other thread's cache construction.
    pub fn new() -> Self {
        QueryCache::with_enabled(true)
    }

    /// A fresh cache with memoization explicitly on or off. A disabled
    /// cache still counts misses and builds, but stores nothing and
    /// never hits — every query pays a fresh build.
    pub fn with_enabled(enabled: bool) -> Self {
        QueryCache {
            enabled,
            map: Mutex::new(FxHashMap::default()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            builds: AtomicUsize::new(0),
            spec_enabled: enabled,
            specs: Mutex::new(FxHashMap::default()),
            spec_hits: AtomicUsize::new(0),
            spec_misses: AtomicUsize::new(0),
        }
    }

    /// Builder: switch spec-verdict memoization on or off
    /// independently of graph memoization.
    pub fn with_spec_enabled(mut self, enabled: bool) -> Self {
        self.spec_enabled = enabled;
        self
    }

    /// A fresh cache whose enabledness defaults from the environment
    /// (`CONCUR_QUERY_CACHE=0` disables; anything else enables). The
    /// env var is read at *this* call, not process-globally cached —
    /// callers that need a fixed setting should say so with
    /// [`QueryCache::with_enabled`] instead of mutating the
    /// environment.
    pub fn from_env() -> Self {
        QueryCache::with_enabled(QueryCache::env_enabled())
            .with_spec_enabled(QueryCache::env_enabled() && QueryCache::spec_env_enabled())
    }

    /// The current value of the `CONCUR_QUERY_CACHE` knob (default:
    /// enabled).
    pub fn env_enabled() -> bool {
        std::env::var("CONCUR_QUERY_CACHE").map_or(true, |v| v.trim() != "0")
    }

    /// The current value of the `CONCUR_SPEC` knob (default: enabled).
    /// `CONCUR_SPEC=0` disables the spec-verdict memo only — graphs
    /// stay memoized and every spec query re-runs its product
    /// traversal over the shared graph.
    pub fn spec_env_enabled() -> bool {
        std::env::var("CONCUR_SPEC").map_or(true, |v| v.trim() != "0")
    }

    /// The process-global cache every [`Session`] uses unless given
    /// its own. Its enabledness is the `CONCUR_QUERY_CACHE` default,
    /// snapshotted at first use — late env mutations do not reach it,
    /// which is why tests must inject [`QueryCache::with_enabled`]
    /// caches instead of touching the env var.
    pub fn global() -> &'static Arc<QueryCache> {
        static GLOBAL: OnceLock<Arc<QueryCache>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(QueryCache::from_env()))
    }

    /// Whether memoization is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            entries: self.map.lock().expect("query cache poisoned").len(),
            spec_hits: self.spec_hits.load(Ordering::Relaxed),
            spec_misses: self.spec_misses.load(Ordering::Relaxed),
        }
    }

    /// Drop every stored graph and spec verdict (counters are kept).
    pub fn clear(&self) {
        self.map.lock().expect("query cache poisoned").clear();
        self.specs.lock().expect("spec memo poisoned").clear();
    }

    /// The graph for `key`, building with `build` on a miss. Returns
    /// the graph and how it was obtained.
    fn obtain(
        &self,
        key: GraphKey,
        build: impl FnOnce() -> Result<StateGraph, RuntimeError>,
    ) -> Result<Fetched, RuntimeError> {
        if self.enabled {
            if let Some(found) = self.map.lock().expect("query cache poisoned").get(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(Fetched::local(Arc::clone(found), true));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build()?);
        self.builds.fetch_add(1, Ordering::Relaxed);
        if !self.enabled {
            return Ok(Fetched::local(built, false));
        }
        let mut map = self.map.lock().expect("query cache poisoned");
        let entry = map.entry(key).or_insert_with(|| Arc::clone(&built));
        Ok(Fetched::local(Arc::clone(entry), false))
    }

    /// The memoized verdict of `spec_digest` over the graph under
    /// `key`, computing with `compute` on a miss. Returns the report
    /// and whether it was a memo hit.
    fn obtain_spec(
        &self,
        key: GraphKey,
        spec_digest: u64,
        compute: impl FnOnce() -> SpecReport,
    ) -> (SpecReport, bool) {
        if self.spec_enabled {
            let memo = self.specs.lock().expect("spec memo poisoned");
            if let Some(found) = memo.get(&(key.clone(), spec_digest)) {
                self.spec_hits.fetch_add(1, Ordering::Relaxed);
                return (found.clone(), true);
            }
        }
        self.spec_misses.fetch_add(1, Ordering::Relaxed);
        let report = compute();
        if self.spec_enabled {
            self.specs
                .lock()
                .expect("spec memo poisoned")
                .insert((key, spec_digest), report.clone());
        }
        (report, false)
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

/// Where a session's graphs live: a plain [`QueryCache`] (the
/// single-caller path) or a [`Server`] (the multi-tenant front-end
/// with single-flight builds, admission control, budgets, and disk).
#[derive(Clone)]
pub(crate) enum Backend {
    Cache(Arc<QueryCache>),
    Server { server: Server, tenant: String },
}

/// A query session over one program: the memoizing counterpart of
/// [`Explorer`](crate::explore::Explorer), with the same builder
/// surface.
pub struct Session<'i> {
    interp: &'i Interp,
    limits: Limits,
    reduction: Reduction,
    threads: Option<usize>,
    backend: Backend,
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
        Session {
            interp,
            limits,
            reduction: Reduction::from_env(),
            threads: None,
            backend: Backend::Cache(Arc::clone(QueryCache::global())),
            obs_patterns: Vec::new(),
            obs_conds: Vec::new(),
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

    /// Use a private cache instead of the process-global one.
    pub fn with_cache(mut self, cache: Arc<QueryCache>) -> Self {
        self.backend = Backend::Cache(cache);
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
        self.backend = Backend::Server { server: server.clone(), tenant: tenant.to_string() };
        self
    }

    /// The query cache this session consults, when it consults one
    /// directly (`None` when routed through a [`Server`]).
    pub fn cache(&self) -> Option<&Arc<QueryCache>> {
        match &self.backend {
            Backend::Cache(cache) => Some(cache),
            Backend::Server { .. } => None,
        }
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
        reduction.symmetry &= self.interp.compiled.has_symmetry();
        reduction
    }

    fn key(&self, reduction: Reduction, vis: Vec<String>) -> GraphKey {
        GraphKey {
            digest: self.interp.digest(),
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
        self.graph_for(patterns, conds, self.effective_reduction()).map(|(fetched, _)| fetched)
    }

    /// [`Session::graph`] with the reduction chosen by the caller
    /// (spec queries pin [`Reduction::NONE`] for fairness) and the
    /// resolved [`GraphKey`] returned for verdict memoization.
    fn graph_for(
        &self,
        patterns: &[EventPattern],
        conds: &[StateCond],
        reduction: Reduction,
    ) -> Result<(Fetched, GraphKey), RuntimeError> {
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
        let key = self.key(reduction, vis.clone());
        let visibility = Visibility { patterns: patterns.as_ref(), conds: conds.as_ref() };
        let build = || {
            StateGraph::build(
                self.interp,
                self.limits,
                reduction,
                visibility,
                self.effective_threads(),
                vis,
            )
        };
        let fetched = match &self.backend {
            Backend::Cache(cache) => cache.obtain(key.clone(), build),
            Backend::Server { server, tenant } => {
                server.obtain(tenant, key.clone(), self.interp, build)
            }
        }?;
        Ok((fetched, key))
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
            fetched.graph.can_happen(self.interp, setup, query, self.limits.max_setup_states);
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
    /// spec digest rides only the verdict-memo key, so the many specs
    /// of a spec bank share one graph build per alphabet signature.
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
        let (fetched, key) = self.graph_for(&patterns, &[], reduction)?;
        let query_begin = Instant::now();
        let compute = || crate::spec::check_on_graph(&fetched.graph, self.interp, &monitor);
        let report = match &self.backend {
            Backend::Cache(cache) => cache.obtain_spec(key, spec.digest(), compute).0,
            // Server graphs are shared across tenants and verdicts
            // are cheap store traversals: recompute instead of
            // growing the server's eviction-managed surface.
            Backend::Server { .. } => compute(),
        };
        let stats = Session::finish_stats(&fetched, begin, query_begin);
        Ok((report, stats))
    }
}

/// A [`Session`] that owns its program — for call sites that compile
/// from source and have no `Interp` to borrow (the conformance
/// harness's model oracle, one-shot CLI queries).
pub struct OwnedSession {
    interp: Interp,
    limits: Limits,
    reduction: Reduction,
    threads: Option<usize>,
    backend: Backend,
}

impl OwnedSession {
    /// Compile `source` and open a session over it. The cache key is
    /// the source digest, so two `OwnedSession`s over identical source
    /// share graphs.
    pub fn from_source(source: &str) -> Result<OwnedSession, String> {
        let interp = Interp::from_source(source)?;
        Ok(OwnedSession {
            interp,
            limits: Limits::default(),
            reduction: Reduction::from_env(),
            threads: None,
            backend: Backend::Cache(Arc::clone(QueryCache::global())),
        })
    }

    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    pub fn without_por(mut self) -> Self {
        self.reduction.por = false;
        self
    }

    pub fn with_reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = reduction;
        self
    }

    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    pub fn with_cache(mut self, cache: Arc<QueryCache>) -> Self {
        self.backend = Backend::Cache(cache);
        self
    }

    /// Route every graph lookup through a multi-tenant [`Server`] on
    /// behalf of `tenant` (normally spelled [`Server::owned_session`]).
    pub fn via_server(mut self, server: &Server, tenant: &str) -> Self {
        self.backend = Backend::Server { server: server.clone(), tenant: tenant.to_string() };
        self
    }

    pub fn interp(&self) -> &Interp {
        &self.interp
    }

    /// The borrowed session all queries delegate through.
    pub fn session(&self) -> Session<'_> {
        Session {
            interp: &self.interp,
            limits: self.limits,
            reduction: self.reduction,
            threads: self.threads,
            backend: self.backend.clone(),
            obs_patterns: Vec::new(),
            obs_conds: Vec::new(),
        }
    }

    pub fn terminals(&self) -> Result<TerminalSet, RuntimeError> {
        self.session().terminals()
    }

    pub fn can_happen(
        &self,
        setup: &[StateCond],
        query: &[EventPattern],
    ) -> Result<Answer, RuntimeError> {
        self.session().can_happen(setup, query)
    }

    pub fn admits_trace(&self, trace: &[EventPattern]) -> Result<Answer, RuntimeError> {
        self.session().admits_trace(trace)
    }

    pub fn check_spec(&self, spec: &Spec) -> Result<SpecReport, RuntimeError> {
        self.session().check_spec(spec)
    }

    pub fn check_spec_with_stats(&self, spec: &Spec) -> Result<(SpecReport, Stats), RuntimeError> {
        self.session().check_spec_with_stats(spec)
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

        // Both agree with the direct (graph-free) explorer.
        let explorer = crate::explore::Explorer::new(&interp);
        assert_eq!(explorer.can_happen(&[], &q1).expect("explores").is_yes(), a1.is_yes());
        assert_eq!(explorer.can_happen(&[], &q2).expect("explores").is_yes(), a2.is_yes());
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

    #[test]
    fn disabled_cache_rebuilds_and_stays_correct() {
        let cache = Arc::new(QueryCache::with_enabled(false));
        let interp = Interp::from_source(figures::FIG3_TWO_PRINTS).expect("compiles");
        let session = Session::new(&interp).with_cache(Arc::clone(&cache));
        let first = session.terminals().expect("explores");
        let second = session.terminals().expect("explores");
        assert_eq!(first.terminals, second.terminals);
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "a disabled cache never hits");
        assert_eq!(stats.builds, 2, "every query pays a build");
        assert_eq!(stats.entries, 0, "nothing is stored");
    }

    #[test]
    fn identical_source_shares_graphs_across_owned_sessions() {
        let cache = Arc::new(QueryCache::new());
        let a = OwnedSession::from_source(figures::FIG1_ASSIGNMENTS)
            .expect("compiles")
            .with_cache(Arc::clone(&cache));
        let b = OwnedSession::from_source(figures::FIG1_ASSIGNMENTS)
            .expect("compiles")
            .with_cache(Arc::clone(&cache));
        let ta = a.terminals().expect("explores");
        let tb = b.terminals().expect("explores");
        assert_eq!(ta.terminals, tb.terminals);
        assert_eq!(cache.stats().builds, 1, "same source digest, one build");
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn different_programs_never_share_entries() {
        let cache = Arc::new(QueryCache::new());
        let a = OwnedSession::from_source(figures::FIG3_TWO_PRINTS)
            .expect("compiles")
            .with_cache(Arc::clone(&cache));
        let b = OwnedSession::from_source(figures::FIG3_SEQUENTIAL_FN)
            .expect("compiles")
            .with_cache(Arc::clone(&cache));
        let ta = a.terminals().expect("explores");
        let tb = b.terminals().expect("explores");
        assert_ne!(ta.terminals, tb.terminals, "distinct programs, distinct answers");
        assert_eq!(cache.stats().builds, 2);
        assert_eq!(cache.stats().hits, 0);
    }
}
