//! The reduction stack is part of a graph's identity.
//!
//! A graph built under symmetry quotienting stores *orbit
//! representatives*; one built without stores concrete states. Serving
//! one where the other was requested would be silently wrong (replay,
//! witness concretization, and node counts all depend on the mode), so
//! [`GraphKey`] embeds the effective [`Reduction`] and the disk store
//! validates it field-for-field on reload. This suite pins that
//! contract on all three paths: fresh builds, the in-process cache,
//! and disk-backed warm restarts — plus the budget-accounting side:
//! a tenant holding a quotient graph is charged for *canonical*
//! states, which is the entire point of letting big-n models fit.

use concur_exec::{figures, Interp, QueryCache, Reduction, Server, ServerConfig};
use concur_exec::{EventKindPattern, EventPattern, Session, StateCond, Value};
use std::path::PathBuf;
use std::sync::Arc;

const POR_ONLY: Reduction = Reduction { por: true, symmetry: false, sleep: false };

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("concur-redkey-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Fresh + cached path: on a symmetric model, symmetry-on and
/// symmetry-off sessions sharing one cache must build two distinct
/// graphs (and still agree on every answer); re-querying each mode
/// hits its own graph without cross-talk.
#[test]
fn symmetry_on_and_off_never_share_a_cached_graph() {
    let cache = Arc::new(QueryCache::new());
    let src = figures::dining(2);
    let interp = Interp::from_source(&src).expect("compiles");

    let quotient = Session::new(&interp)
        .with_reduction(Reduction::FULL)
        .with_cache(Arc::clone(&cache))
        .terminals()
        .expect("quotient build");
    assert_eq!(cache.stats().builds, 1, "first mode builds fresh");

    let concrete = Session::new(&interp)
        .with_reduction(POR_ONLY)
        .with_cache(Arc::clone(&cache))
        .terminals()
        .expect("concrete build");
    assert_eq!(cache.stats().builds, 2, "symmetry-off must not reuse the quotient graph");
    assert_eq!(quotient.terminals, concrete.terminals, "modes agree on answers");
    assert!(
        quotient.stats.states_visited < concrete.stats.states_visited,
        "the quotient graph is strictly smaller on a symmetric model"
    );

    // Re-query both modes: each hits its own entry, nothing rebuilds.
    for reduction in [Reduction::FULL, POR_ONLY] {
        Session::new(&interp)
            .with_reduction(reduction)
            .with_cache(Arc::clone(&cache))
            .terminals()
            .expect("warm read");
    }
    assert_eq!(cache.stats().builds, 2, "warm reads build nothing");
}

/// On a model with no `PARA SYMMETRIC` block the symmetry flag is
/// inert, and the key masks it off so both settings share one graph —
/// the flag must split the cache only when it can change the bytes.
/// (The *sleep* flag is never inert, so the comparison holds it
/// fixed; `Reduction::FULL` vs POR-only would legitimately split.)
#[test]
fn masked_symmetry_shares_the_graph_on_asymmetric_models() {
    let cache = Arc::new(QueryCache::new());
    let por_sym = Reduction { por: true, symmetry: true, sleep: false };
    let interp = Interp::from_source(figures::FIG3_TWO_PRINTS).expect("compiles");
    for reduction in [por_sym, POR_ONLY] {
        Session::new(&interp)
            .with_reduction(reduction)
            .with_cache(Arc::clone(&cache))
            .terminals()
            .expect("explores");
    }
    assert_eq!(cache.stats().builds, 1, "inert symmetry flag must not split the key");
}

/// Disk-restored path: a persisted quotient graph must never be
/// served to a symmetry-off session (and vice versa). The store
/// validates `GraphMeta` field-for-field, which now includes the
/// reduction stack.
#[test]
fn symmetry_on_and_off_never_share_a_disk_graph() {
    let dir = scratch("sym-split");
    let src = figures::dining(2);

    // Build and persist under the full stack.
    {
        let server = Server::new(ServerConfig::new().disk(&dir));
        let session =
            server.owned_session("t", &src).expect("compiles").with_reduction(Reduction::FULL);
        session.terminals().expect("cold build");
        let stats = server.tenant_stats("t");
        assert_eq!((stats.builds, stats.disk_loads), (1, 0));
    }

    // Warm restart, same mode: reload from disk, build nothing.
    {
        let server = Server::new(ServerConfig::new().disk(&dir));
        let session =
            server.owned_session("t", &src).expect("compiles").with_reduction(Reduction::FULL);
        session.terminals().expect("warm read");
        let stats = server.tenant_stats("t");
        assert_eq!(
            (stats.builds, stats.disk_loads),
            (0, 1),
            "same reduction stack restores from disk"
        );
    }

    // Warm restart, symmetry off: the stored quotient graph is not
    // this key's graph — must rebuild fresh, never disk-load.
    {
        let server = Server::new(ServerConfig::new().disk(&dir));
        let session = server.owned_session("t", &src).expect("compiles").with_reduction(POR_ONLY);
        session.terminals().expect("rebuild");
        let stats = server.tenant_stats("t");
        assert_eq!(
            (stats.builds, stats.disk_loads),
            (1, 0),
            "symmetry-off must not restore a quotient graph from disk"
        );
    }
}

/// Study-style questions against `dining(4)` through the server path:
/// the query campaign the conformance fuzzer runs, here pinned to the
/// quotient graph. Tenant budgets must account the *canonical* state
/// count — `resident_states` equals the quotient size, not the
/// concrete space — because that is what makes big-n models fit a
/// budget at all.
#[test]
fn server_accounts_quotient_states_for_dining() {
    let src = figures::dining(4);
    let server = Server::new(ServerConfig::new());
    let session = server.owned_session("fuzz", &src).expect("compiles");

    // Ground truth for the quotient size: an independent graph build
    // through a private cache (the server charges graph *node* counts).
    let interp = Interp::from_source(&src).expect("compiles");
    let truth = Session::new(&interp)
        .with_reduction(Reduction { por: true, symmetry: true, sleep: false })
        .with_cache(Arc::new(QueryCache::new()))
        .terminals()
        .expect("independent quotient build");
    assert!(!truth.stats.truncated, "dining(4) quotient fits default limits");
    assert!(truth.stats.states_canonicalized > 0, "symmetry fired");

    // Budget accounting on the single terminals graph: the tenant is
    // charged node-for-node with the *quotient* build, not anything
    // resembling the concrete space.
    session.terminals().expect("terminals");
    let stats = server.tenant_stats("fuzz");
    assert_eq!(stats.resident_graphs, 1, "one query signature, one resident graph");
    assert_eq!(
        stats.resident_states, truth.stats.states_visited,
        "tenant budget is charged for canonical (quotient) states"
    );

    // The campaign's study questions, routed through the server.
    // `eaten` is summed from fork use counts after the PARA, so it
    // reaches 2n = 8 exactly when the final tally completes.
    let everyone_ate = StateCond::GlobalEquals { name: "eaten".into(), value: Value::Int(8) };
    let nobody_ate = StateCond::GlobalEquals { name: "eaten".into(), value: Value::Int(0) };
    let a_phil_returns = EventPattern::any(EventKindPattern::Returned { func: "phil".into() });

    let done = session.can_happen(std::slice::from_ref(&everyone_ate), &[]).expect("query");
    assert!(done.is_yes(), "all four philosophers can finish eating");
    let late_phil =
        session.can_happen(&[everyone_ate], std::slice::from_ref(&a_phil_returns)).expect("query");
    assert!(!late_phil.is_yes(), "no philosopher finishes after the final tally");
    let first_phil =
        session.can_happen(&[nobody_ate], std::slice::from_ref(&a_phil_returns)).expect("query");
    assert!(first_phil.is_yes(), "a philosopher can finish while the tally is still zero");
    let trace = session.admits_trace(&vec![a_phil_returns; 4]).expect("query");
    assert!(trace.is_yes(), "a full run returns from phil exactly n = 4 times");

    // The campaign fans out over distinct visibility signatures (each
    // gets its own reduced graph), but every one of them is
    // quotient-sized: the whole fleet together stays under the 20,955
    // concrete states that POR alone needs for dining(4).
    let stats = server.tenant_stats("fuzz");
    assert!(
        stats.resident_graphs >= 2 && stats.resident_graphs <= 4,
        "one graph per distinct visibility signature, got {}",
        stats.resident_graphs
    );
    assert!(
        stats.resident_states < 20_955,
        "campaign residency {} should stay below the concrete POR-only space",
        stats.resident_states
    );
}
