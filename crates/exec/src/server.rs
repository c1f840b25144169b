//! Model checking as a service: a concurrent, multi-tenant query
//! server over the state-graph store.
//!
//! [`Server`] is the crate's one graph store: every [`Session`] that
//! has a store resolves its graphs through `Server::obtain`. A
//! [`QueryCache`](crate::session::QueryCache) is a named preset of it
//! (one tenant, no budget, no disk, no admission limit). The server
//! absorbs concurrent traffic:
//!
//! * **Sharded cache.** Graphs live in `RwLock`-per-shard maps keyed
//!   by `GraphKey` (program digest, limits, reduction stack,
//!   visibility signature). Warm queries take one shard read lock —
//!   concurrent readers never serialize against each other or against
//!   builds of other keys.
//! * **Single-flight deduplication.** The first client to miss a key
//!   installs an in-flight *flight* record and builds; every other
//!   client asking the same key parks on the flight's condvar and
//!   reuses the published `Arc<StateGraph>`. N concurrent clients, one
//!   build, N−1 parked waiters — the soak battery asserts exactly
//!   this. A build that fails, or panics, publishes its error to every
//!   waiter and clears the key, so the next query builds afresh.
//! * **Admission control.** Builds (not warm reads) must hold one of a
//!   bounded pool of build permits, granted strictly FIFO by ticket —
//!   a stampede of distinct cold keys degrades to an orderly queue
//!   instead of forking unbounded concurrent explorations.
//! * **Per-tenant budgets with LRU eviction.** Every query names a
//!   tenant; each tenant is charged the node count of every resident
//!   graph it touches. Over budget, the tenant's coldest
//!   (least-recently-used) graphs are evicted first; a graph leaves
//!   the shared map when its last charging tenant evicts it.
//!   Outstanding `Arc`s keep answering — eviction frees future memory,
//!   never correctness. Spec verdicts are memoized on the graph they
//!   were decided on ([`StateGraph`]), so they leave with it.
//! * **Disk-backed warm restarts.** With a disk directory configured,
//!   every freshly built graph is persisted
//!   ([`StateGraph::to_bytes`] — deterministic, so persisted bytes are
//!   verifiable byte-for-byte against a fresh build), and a cold miss
//!   first tries to reload ([`StateGraph::from_bytes`] replays the
//!   stored decision structure through the program and rejects
//!   stale/corrupt files). A restarted server answers warm without
//!   re-exploring.
//!
//! # Locking discipline (why this cannot deadlock)
//!
//! Three lock families exist: shard `RwLock`s, the accounting `Mutex`
//! (tenants + charge counts), and each flight's publish `Mutex`. No
//! path ever holds two of them at once: builders drop the shard lock
//! before admission/build, publish under the shard lock *then* notify
//! the flight, and eviction computes its victim set under the
//! accounting lock but removes shard entries after releasing it.
//! Parked waiters hold no lock while waiting. Build permits are
//! acquired outside every lock. A warm hit takes one shard read lock
//! and then the accounting lock once, and allocates nothing.

use crate::graph::StateGraph;
use crate::intern::{fx_hash_of, FxHashMap};
use crate::interp::Interp;
use crate::session::{Fetched, GraphKey, Session};
use crate::value::RuntimeError;
use concur_pseudocode::Span;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// Configuration for a [`Server`]. Every setting is an explicit field;
/// the environment configures none of them.
#[derive(Clone)]
pub struct ServerConfig {
    /// Cache shard count (rounded up to a power of two, min 1).
    pub shards: usize,
    /// Concurrent graph builds admitted (min 1; `usize::MAX` admits
    /// every build at once).
    pub build_permits: usize,
    /// Per-tenant resident-graph budget, in interned states (graphs
    /// report their node counts). `None` = unbounded.
    pub tenant_budget_states: Option<usize>,
    /// Directory for disk-backed graph persistence; `None` disables.
    pub disk_dir: Option<PathBuf>,
    /// Test instrumentation: invoked inside the single-flight build
    /// critical section (after admission, before the build) — lets the
    /// property battery hold a build open until the expected waiters
    /// have parked. A panic here is handled like a panic in the build.
    /// `None` in production.
    pub build_hold: Option<Arc<dyn Fn() + Send + Sync>>,
}

impl ServerConfig {
    /// The defaults: 16 shards, 2 build permits, unbounded budgets, no
    /// disk.
    pub fn new() -> Self {
        ServerConfig {
            shards: 16,
            build_permits: 2,
            tenant_budget_states: None,
            disk_dir: None,
            build_hold: None,
        }
    }

    /// Builder: per-tenant budget in states.
    pub fn budget(mut self, states: usize) -> Self {
        self.tenant_budget_states = Some(states);
        self
    }

    /// Builder: build-permit pool size.
    pub fn permits(mut self, permits: usize) -> Self {
        self.build_permits = permits.max(1);
        self
    }

    /// Builder: disk persistence directory.
    pub fn disk(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk_dir = Some(dir.into());
        self
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig::new()
    }
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("shards", &self.shards)
            .field("build_permits", &self.build_permits)
            .field("tenant_budget_states", &self.tenant_budget_states)
            .field("disk_dir", &self.disk_dir)
            .field("build_hold", &self.build_hold.is_some())
            .finish()
    }
}

/// Run `f` — a build or a disk reload — catching a panic as its
/// message. The builder's flight must publish whatever happens: a
/// panic that escaped would leave the key `Building` forever, and
/// every waiter parked on it — and every later query on the key —
/// would block. Catching the unwind is sound because the partial graph
/// is dropped with it and the builder holds no server lock meanwhile.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string())
    })
}

/// Per-tenant lifetime counters plus the current residency snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Queries served from an already-resident graph.
    pub hits: usize,
    /// Queries that found no resident graph (builders *and* parked
    /// waiters — a waiter arrived before the graph existed).
    pub misses: usize,
    /// Graph builds this tenant's queries performed.
    pub builds: usize,
    /// Graphs this tenant reloaded from the disk store.
    pub disk_loads: usize,
    /// Times one of this tenant's queries parked behind another
    /// client's in-flight build of the same key.
    pub parked_waiters: usize,
    /// Cold graphs evicted from this tenant's residency.
    pub evictions: usize,
    /// Graphs currently charged to this tenant.
    pub resident_graphs: usize,
    /// Interned states currently charged to this tenant.
    pub resident_states: usize,
}

/// Whole-server counters: the sum of every tenant's [`TenantStats`],
/// the shared-map entry count and the spec-verdict counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub hits: usize,
    pub misses: usize,
    pub builds: usize,
    pub disk_loads: usize,
    pub parked_waiters: usize,
    pub evictions: usize,
    /// Graphs currently resident in the shared cache.
    pub entries: usize,
    /// Tenants the server has seen.
    pub tenants: usize,
    /// Spec verdicts read from the verdict memo of a served graph.
    pub spec_hits: usize,
    /// Spec verdicts decided by a product traversal (once per spec and
    /// graph, however the callers are scheduled).
    pub spec_misses: usize,
}

/// One key's in-flight build: the record every racing client parks on.
struct Flight {
    /// `None` until the builder publishes; then the build result every
    /// waiter clones out.
    slot: Mutex<Option<Result<Arc<StateGraph>, RuntimeError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight { slot: Mutex::new(None), cv: Condvar::new() }
    }

    fn wait(&self) -> Result<Arc<StateGraph>, RuntimeError> {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        while slot.is_none() {
            slot = self.cv.wait(slot).unwrap_or_else(|p| p.into_inner());
        }
        slot.as_ref().expect("published").clone()
    }

    fn publish(&self, result: Result<Arc<StateGraph>, RuntimeError>) {
        let mut slot = self.slot.lock().unwrap_or_else(|p| p.into_inner());
        *slot = Some(result);
        self.cv.notify_all();
    }
}

/// One cache slot: a published graph or the flight clients park on.
enum Slot {
    Building(Arc<Flight>),
    Ready(Arc<StateGraph>),
}

/// A strictly-FIFO bounded semaphore: tickets are granted in issue
/// order, so a build stampede forms an orderly queue (no barging, no
/// starvation).
struct FifoGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    permits: usize,
    next_ticket: u64,
    now_serving: u64,
}

impl FifoGate {
    fn new(permits: usize) -> FifoGate {
        FifoGate {
            state: Mutex::new(GateState {
                permits: permits.max(1),
                next_ticket: 0,
                now_serving: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) -> GatePermit<'_> {
        let mut s = self.state.lock().unwrap_or_else(|p| p.into_inner());
        let ticket = s.next_ticket;
        s.next_ticket += 1;
        while s.now_serving != ticket || s.permits == 0 {
            s = self.cv.wait(s).unwrap_or_else(|p| p.into_inner());
        }
        s.permits -= 1;
        s.now_serving += 1;
        // Wake the next ticket holder (it may proceed if a permit
        // remains).
        self.cv.notify_all();
        GatePermit { gate: self }
    }
}

/// RAII build permit; releasing wakes the queue head.
struct GatePermit<'g> {
    gate: &'g FifoGate,
}

impl Drop for GatePermit<'_> {
    fn drop(&mut self) {
        let mut s = self.gate.state.lock().unwrap_or_else(|p| p.into_inner());
        s.permits += 1;
        drop(s);
        self.gate.cv.notify_all();
    }
}

/// One tenant's residency ledger.
#[derive(Default)]
struct Tenant {
    /// Resident keys → (last-use tick, charged states).
    resident: FxHashMap<GraphKey, (u64, usize)>,
    resident_states: usize,
    counters: TenantStats,
}

/// Tenants + per-key charge counts, under one lock so cross-tenant
/// accounting can never go negative or double-free an entry.
#[derive(Default)]
struct Accounting {
    tenants: FxHashMap<String, Tenant>,
    /// How many tenants currently charge each key. An entry leaves the
    /// shared map exactly when this reaches zero.
    charges: FxHashMap<GraphKey, usize>,
    /// Logical LRU clock; bumped once per charge touch.
    clock: u64,
}

impl Accounting {
    /// `tenant`'s ledger, created on first sight — the only time the
    /// tenant's name is copied.
    fn tenant(&mut self, tenant: &str) -> &mut Tenant {
        if !self.tenants.contains_key(tenant) {
            self.tenants.insert(tenant.to_string(), Tenant::default());
        }
        self.tenants.get_mut(tenant).expect("inserted above")
    }
}

struct Inner {
    config: ServerConfig,
    shard_mask: usize,
    shards: Box<[RwLock<FxHashMap<GraphKey, Slot>>]>,
    gate: FifoGate,
    acct: Mutex<Accounting>,
    spec_hits: AtomicUsize,
    spec_misses: AtomicUsize,
}

/// The multi-tenant model-checking front-end. Cheap to clone (an
/// `Arc` handle); share one across every client thread.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    pub fn new(config: ServerConfig) -> Server {
        let shards = config.shards.max(1).next_power_of_two();
        let gate = FifoGate::new(config.build_permits);
        Server {
            inner: Arc::new(Inner {
                shard_mask: shards - 1,
                shards: (0..shards).map(|_| RwLock::new(FxHashMap::default())).collect(),
                gate,
                acct: Mutex::new(Accounting::default()),
                spec_hits: AtomicUsize::new(0),
                spec_misses: AtomicUsize::new(0),
                config,
            }),
        }
    }

    /// Open a query session over `interp` on behalf of `tenant`: the
    /// same surface as [`Session::new`], with every graph lookup
    /// routed through this server.
    pub fn session<'i>(&self, tenant: &str, interp: &'i Interp) -> Session<'i> {
        Session::new(interp).via_server(self, tenant)
    }

    /// Compile `source` and open a session that owns it, routed
    /// through this server (the conformance-oracle surface).
    pub fn owned_session(&self, tenant: &str, source: &str) -> Result<Session<'static>, String> {
        Ok(Session::from_source(source)?.via_server(self, tenant))
    }

    fn shard(&self, key: &GraphKey) -> &RwLock<FxHashMap<GraphKey, Slot>> {
        &self.inner.shards[(fx_hash_of(key) as usize) & self.inner.shard_mask]
    }

    /// Resolve `key` for `tenant`: shard read fast path, single-flight
    /// slow path, then charge the tenant (possibly evicting its
    /// coldest graphs). This is the server's entire request pipeline,
    /// and the one place a [`Session`] with a store looks up or builds
    /// a graph.
    pub(crate) fn obtain(
        &self,
        tenant: &str,
        key: &GraphKey,
        interp: &Interp,
        build: impl FnOnce() -> Result<StateGraph, RuntimeError>,
    ) -> Result<Fetched, RuntimeError> {
        let mut fetched = self.lookup(tenant, key, interp, build)?;
        fetched.evictions = self.charge(tenant, key, fetched.graph.node_count(), fetched.hit);
        Ok(fetched)
    }

    /// Count one spec verdict a session read (`hit`) or decided on a
    /// graph this server served.
    pub(crate) fn count_verdict(&self, hit: bool) {
        let counter = if hit { &self.inner.spec_hits } else { &self.inner.spec_misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    fn lookup(
        &self,
        tenant: &str,
        key: &GraphKey,
        interp: &Interp,
        build: impl FnOnce() -> Result<StateGraph, RuntimeError>,
    ) -> Result<Fetched, RuntimeError> {
        // Fast path: warm graph, one shard read lock.
        let warm = match self.shard(key).read().unwrap_or_else(|p| p.into_inner()).get(key) {
            Some(Slot::Ready(graph)) => Some(Arc::clone(graph)),
            _ => None,
        };
        if let Some(graph) = warm {
            return Ok(Fetched::local(graph, true));
        }

        // Slow path: decide under the shard write lock whether we park
        // or build, then do either with no locks held.
        enum Role {
            Hit(Arc<StateGraph>),
            Park(Arc<Flight>),
            Build(Arc<Flight>),
        }
        let role = {
            let mut shard = self.shard(key).write().unwrap_or_else(|p| p.into_inner());
            match shard.get(key) {
                Some(Slot::Ready(graph)) => Role::Hit(Arc::clone(graph)),
                Some(Slot::Building(flight)) => Role::Park(Arc::clone(flight)),
                None => {
                    let flight = Arc::new(Flight::new());
                    shard.insert(key.clone(), Slot::Building(Arc::clone(&flight)));
                    Role::Build(flight)
                }
            }
        };
        match role {
            Role::Hit(graph) => Ok(Fetched::local(graph, true)),
            Role::Park(flight) => {
                // The parked-waiter counter is bumped *before* the
                // wait so a held-open build observes every waiter.
                self.count(tenant, |c| {
                    c.misses += 1;
                    c.parked_waiters += 1;
                });
                let graph = flight.wait()?;
                Ok(Fetched { graph, hit: false, parked: true, evictions: 0, disk_load: false })
            }
            Role::Build(flight) => {
                let permit = self.inner.gate.acquire();
                let mut disk_load = false;
                let result = match self.try_disk_load(key, interp) {
                    Some(graph) => {
                        disk_load = true;
                        Ok(Arc::new(graph))
                    }
                    None => self.guarded_build(build).map(Arc::new),
                };
                drop(permit);
                // Publish to the shard first (so post-notify arrivals
                // hit), then wake the parked waiters.
                {
                    let mut shard = self.shard(key).write().unwrap_or_else(|p| p.into_inner());
                    match &result {
                        Ok(graph) => {
                            shard.insert(key.clone(), Slot::Ready(Arc::clone(graph)));
                        }
                        // A failed build must not wedge the key: later
                        // queries retry from scratch.
                        Err(_) => {
                            shard.remove(key);
                        }
                    }
                }
                flight.publish(result.clone());
                self.count(tenant, |c| {
                    c.misses += 1;
                    if disk_load {
                        c.disk_loads += 1;
                    } else if result.is_ok() {
                        c.builds += 1;
                    }
                });
                let graph = result?;
                if !disk_load {
                    self.persist(key, &graph);
                }
                Ok(Fetched { graph, hit: false, parked: false, evictions: 0, disk_load })
            }
        }
    }

    /// Run the `build_hold` hook and the build, turning a panic in
    /// either into a typed error.
    fn guarded_build(
        &self,
        build: impl FnOnce() -> Result<StateGraph, RuntimeError>,
    ) -> Result<StateGraph, RuntimeError> {
        let hold = self.inner.config.build_hold.as_deref();
        guarded(|| {
            if let Some(hold) = hold {
                hold();
            }
            build()
        })
        .unwrap_or_else(|reason| {
            Err(RuntimeError::new(format!("graph build panicked: {reason}"), Span::SYNTH))
        })
    }

    /// Charge `tenant` for `states` under `key` (counting a `hit`),
    /// touch its LRU slot, and evict its coldest graphs while over
    /// budget. Returns how many graphs were evicted. The just-touched
    /// key is never its own victim, so one oversized graph degrades to
    /// "resident_graphs == 1", not an eviction livelock. Tenant and
    /// key are looked up by reference and copied only when first
    /// charged, so a warm hit allocates nothing here.
    fn charge(&self, tenant: &str, key: &GraphKey, states: usize, hit: bool) -> usize {
        let budget = self.inner.config.tenant_budget_states;
        let victims: Vec<GraphKey> = {
            let mut acct = self.inner.acct.lock().unwrap_or_else(|p| p.into_inner());
            acct.clock += 1;
            let tick = acct.clock;
            let ledger = acct.tenant(tenant);
            ledger.counters.hits += usize::from(hit);
            match ledger.resident.get_mut(key) {
                Some(slot) => slot.0 = tick,
                None => {
                    ledger.resident.insert(key.clone(), (tick, states));
                    ledger.resident_states += states;
                    *acct.charges.entry(key.clone()).or_insert(0) += 1;
                }
            }
            let mut victims = Vec::new();
            if let Some(budget) = budget {
                let ledger = acct.tenants.get_mut(tenant).expect("just inserted");
                while ledger.resident_states > budget && ledger.resident.len() > 1 {
                    let coldest = ledger
                        .resident
                        .iter()
                        .filter(|(k, _)| *k != key)
                        .min_by_key(|(_, (tick, _))| *tick)
                        .map(|(k, _)| k.clone())
                        .expect("len > 1 so a non-current key exists");
                    let (_, evicted_states) = ledger.resident.remove(&coldest).expect("present");
                    ledger.resident_states = ledger
                        .resident_states
                        .checked_sub(evicted_states)
                        .expect("eviction accounting underflow");
                    ledger.counters.evictions += 1;
                    victims.push(coldest);
                }
                ledger.counters.resident_graphs = ledger.resident.len();
                ledger.counters.resident_states = ledger.resident_states;
                for victim in &victims {
                    let count = acct.charges.get_mut(victim).expect("charged");
                    *count = count.checked_sub(1).expect("charge accounting underflow");
                }
                // Only keys whose *last* charge this was leave the
                // shared map; other tenants keep theirs resident.
                victims.retain(|v| acct.charges.get(v) == Some(&0));
                for victim in &victims {
                    acct.charges.remove(victim);
                }
            } else {
                let ledger = acct.tenants.get_mut(tenant).expect("just inserted");
                ledger.counters.resident_graphs = ledger.resident.len();
                ledger.counters.resident_states = ledger.resident_states;
            }
            victims
        };
        // Shard removals happen after the accounting lock drops (see
        // the module's locking discipline). A slot that re-entered
        // Building meanwhile is left alone.
        let evicted = victims.len();
        for victim in victims {
            let mut shard = self.shard(&victim).write().unwrap_or_else(|p| p.into_inner());
            if matches!(shard.get(&victim), Some(Slot::Ready(_))) {
                shard.remove(&victim);
            }
        }
        evicted
    }

    /// Drop every graph charged to `tenant` (a tenant logout / test
    /// flush). Entries whose last charge this was leave the shared
    /// map; the disk store is untouched, so re-queries warm-restart.
    pub fn evict_tenant(&self, tenant: &str) -> usize {
        let victims: Vec<GraphKey> = {
            let mut acct = self.inner.acct.lock().unwrap_or_else(|p| p.into_inner());
            let Some(ledger) = acct.tenants.get_mut(tenant) else {
                return 0;
            };
            let keys: Vec<GraphKey> = ledger.resident.keys().cloned().collect();
            ledger.counters.evictions += keys.len();
            ledger.resident.clear();
            ledger.resident_states = 0;
            ledger.counters.resident_graphs = 0;
            ledger.counters.resident_states = 0;
            let mut orphaned = Vec::new();
            for key in keys {
                let count = acct.charges.get_mut(&key).expect("charged");
                *count = count.checked_sub(1).expect("charge accounting underflow");
                if *count == 0 {
                    acct.charges.remove(&key);
                    orphaned.push(key);
                }
            }
            orphaned
        };
        let evicted = victims.len();
        for victim in victims {
            let mut shard = self.shard(&victim).write().unwrap_or_else(|p| p.into_inner());
            if matches!(shard.get(&victim), Some(Slot::Ready(_))) {
                shard.remove(&victim);
            }
        }
        evicted
    }

    fn count(&self, tenant: &str, f: impl FnOnce(&mut TenantStats)) {
        let mut acct = self.inner.acct.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut acct.tenant(tenant).counters);
    }

    /// This tenant's counters (zeros for a tenant never seen).
    pub fn tenant_stats(&self, tenant: &str) -> TenantStats {
        let acct = self.inner.acct.lock().unwrap_or_else(|p| p.into_inner());
        acct.tenants.get(tenant).map(|t| t.counters).unwrap_or_default()
    }

    /// Whole-server counters: every tenant summed, plus the live
    /// shared-map entry count and the spec-verdict counts.
    pub fn stats(&self) -> ServerStats {
        let mut out = ServerStats {
            spec_hits: self.inner.spec_hits.load(Ordering::Relaxed),
            spec_misses: self.inner.spec_misses.load(Ordering::Relaxed),
            ..ServerStats::default()
        };
        {
            let acct = self.inner.acct.lock().unwrap_or_else(|p| p.into_inner());
            out.tenants = acct.tenants.len();
            for tenant in acct.tenants.values() {
                let c = tenant.counters;
                out.hits += c.hits;
                out.misses += c.misses;
                out.builds += c.builds;
                out.disk_loads += c.disk_loads;
                out.parked_waiters += c.parked_waiters;
                out.evictions += c.evictions;
            }
        }
        for shard in self.inner.shards.iter() {
            out.entries += shard
                .read()
                .unwrap_or_else(|p| p.into_inner())
                .values()
                .filter(|slot| matches!(slot, Slot::Ready(_)))
                .count();
        }
        out
    }

    // --- disk store ------------------------------------------------------

    fn disk_path(&self, key: &GraphKey) -> Option<PathBuf> {
        self.inner
            .config
            .disk_dir
            .as_ref()
            .map(|dir| dir.join(format!("{:016x}.csg", fx_hash_of(key))))
    }

    /// Try to serve `key` from the disk store. Any failure — missing
    /// file, stale digest, corrupt bytes, metadata mismatch, even a
    /// panicking reload — falls through to a fresh build; the store is
    /// an accelerator, never an authority.
    fn try_disk_load(&self, key: &GraphKey, interp: &Interp) -> Option<StateGraph> {
        let path = self.disk_path(key)?;
        let bytes = std::fs::read(path).ok()?;
        let graph = guarded(|| StateGraph::from_bytes(interp, &bytes)).ok()?.ok()?;
        (*graph.meta() == key.meta()).then_some(graph)
    }

    /// Persist a freshly built graph, best-effort: written to a
    /// temporary file then renamed, so concurrent readers only ever
    /// see complete files. Programs without a stable (source-derived)
    /// digest are skipped — their files could never be reloaded.
    fn persist(&self, key: &GraphKey, graph: &Arc<StateGraph>) {
        let Some(path) = self.disk_path(key) else {
            return;
        };
        if !graph.meta().digest_is_stable() {
            return;
        }
        let Some(dir) = path.parent() else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let tmp = path.with_extension(format!("tmp.{:x}", fx_hash_of(&std::process::id())));
        if std::fs::write(&tmp, graph.to_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::guarded;

    #[test]
    fn guarded_turns_a_panic_into_its_message() {
        assert_eq!(guarded(|| 7), Ok(7));
        assert_eq!(guarded(|| -> u8 { panic!("static message") }), Err("static message".into()));
        assert_eq!(guarded(|| -> u8 { panic!("formatted {}", 7) }), Err("formatted 7".into()));
    }
}
