//! Differential: the memoized query layer answers every conformance
//! model identically to the brute-force oracle — terminal sets
//! byte-for-byte, admits_trace verdicts included — at every build
//! worker count.

use concur_conformance::models;
use concur_exec::oracle::Oracle;
use concur_exec::{EventKindPattern, EventPattern, Interp, QueryCache, Session};
use std::sync::Arc;

const MODELS: &[(&str, &str)] = &[
    ("dining-ordered", models::DINING_ORDERED),
    ("dining-naive", models::DINING_NAIVE),
    ("bounded-buffer", models::BOUNDED_BUFFER),
    ("readers-writers", models::READERS_WRITERS),
    ("sleeping-barber", models::SLEEPING_BARBER),
    ("bridge", models::BRIDGE),
    ("party-matching", models::PARTY_MATCHING),
    ("book-inventory", models::BOOK_INVENTORY),
    ("sum-workers", models::SUM_WORKERS),
    ("thread-pool", models::THREAD_POOL),
    ("tasks-dining-ordered", models::TASKS_DINING_ORDERED),
    ("tasks-dining-naive", models::TASKS_DINING_NAIVE),
    ("tasks-bounded-buffer", models::TASKS_BOUNDED_BUFFER),
    ("tasks-bridge", models::TASKS_BRIDGE),
    ("tasks-book-inventory", models::TASKS_BOOK_INVENTORY),
];

/// The model whose unreduced space (99,334 states) is checked against
/// the oracle in release builds only.
const LARGE: &str = "party-matching";

/// Fresh and cached session answers at every worker count equal the
/// oracle's terminal set.
fn assert_session_matches_oracle(name: &str, src: &str) {
    let interp = Interp::from_source(src).expect("model compiles");
    let truth = Oracle::new(&interp).terminals().expect("explores");
    for workers in [1usize, 2, 4, 8] {
        let cache = Arc::new(QueryCache::new());
        let session = Session::new(&interp).with_threads(workers).with_cache(cache);
        let fresh = session.terminals().expect("explores");
        let cached = session.terminals().expect("explores");
        assert_eq!(fresh.terminals, truth.terminals, "{name} @{workers}: fresh vs oracle");
        assert_eq!(cached.terminals, truth.terminals, "{name} @{workers}: cached vs oracle");
        assert_eq!(
            fresh.stats.truncated, truth.stats.truncated,
            "{name} @{workers}: truncation flag"
        );
    }
}

#[test]
fn all_models_byte_identical_to_the_oracle_at_all_worker_counts() {
    for (name, src) in MODELS.iter().filter(|(name, _)| *name != LARGE) {
        assert_session_matches_oracle(name, src);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "an unreduced space above 50,000 states runs in release")]
fn party_matching_matches_the_oracle_at_all_worker_counts() {
    assert_session_matches_oracle(LARGE, models::PARTY_MATCHING);
}

/// Every output the model admits is re-admitted as an ordered
/// Printed-token trace by the session (the fuzz oracle's re-query
/// path), and a nonsense trace is rejected — verdicts matching the
/// brute-force oracle.
#[test]
fn admits_trace_verdicts_match_the_oracle() {
    let trace_of = |obs: &str| -> Vec<EventPattern> {
        obs.split_whitespace()
            .map(|tok| EventPattern::any(EventKindPattern::Printed { text: tok.to_string() }))
            .collect()
    };
    for (name, src) in &MODELS[..4] {
        let interp = Interp::from_source(src).expect("model compiles");
        let oracle = Oracle::new(&interp);
        let session = Session::new(&interp).with_cache(Arc::new(QueryCache::new()));
        let model = session.terminals().expect("explores");
        for obs in model.outputs() {
            let trace = trace_of(&obs);
            let direct = oracle.admits_trace(&trace).expect("explores");
            let cached = session.admits_trace(&trace).expect("explores");
            assert_eq!(cached.is_yes(), direct.is_yes(), "{name}: {obs:?} verdict");
            assert!(cached.is_yes(), "{name}: model output {obs:?} must be admitted");
        }
        let bogus = trace_of("999 999 999");
        let direct = oracle.admits_trace(&bogus).expect("explores");
        let cached = session.admits_trace(&bogus).expect("explores");
        assert_eq!(cached.is_yes(), direct.is_yes(), "{name}: bogus trace verdict");
        assert!(!cached.is_yes(), "{name}: bogus trace must be rejected");
    }
}

/// All Printed-trace queries of one model share one graph (the
/// signature coarsens Printed text away): N distinct traces cost one
/// build.
#[test]
fn printed_trace_queries_share_one_graph() {
    let cache = Arc::new(QueryCache::new());
    let interp = Interp::from_source(models::BOUNDED_BUFFER).expect("model compiles");
    let session = Session::new(&interp).with_cache(Arc::clone(&cache));
    let model = session.terminals().expect("explores");
    let outputs = model.outputs();
    assert!(outputs.len() >= 2, "bounded buffer has several outcomes");
    for obs in &outputs {
        let trace: Vec<EventPattern> = obs
            .split_whitespace()
            .map(|tok| EventPattern::any(EventKindPattern::Printed { text: tok.to_string() }))
            .collect();
        assert!(session.admits_trace(&trace).expect("explores").is_yes());
    }
    let stats = cache.stats();
    // One graph for the terminal query (no visible patterns) and one
    // for the shared Printed signature.
    assert_eq!(stats.builds, 2, "all Printed traces share one graph build");
    assert_eq!(stats.hits, outputs.len() - 1, "every trace after the first is a hit");
}

/// Several tenants exploring the same model set through one shared
/// [`concur_exec::Server`] get exactly the direct results, and
/// single-flight collapses the concurrent cold traffic to one build
/// per model.
#[test]
fn models_explored_through_a_shared_server_match_direct() {
    let subset = &MODELS[..6];
    let truth: Vec<_> = subset
        .iter()
        .map(|(name, src)| models::explore_model(src).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();

    let server = concur_exec::Server::new(concur_exec::ServerConfig::new());
    std::thread::scope(|scope| {
        for tenant in 0..3 {
            let server = server.clone();
            let truth = &truth;
            scope.spawn(move || {
                for ((name, src), expected) in subset.iter().zip(truth) {
                    let set = models::explore_model_on(&server, &format!("shard-{tenant}"), src)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                    assert_eq!(
                        set.terminals, expected.terminals,
                        "{name}: server answer diverged from direct exploration"
                    );
                }
            });
        }
    });

    let stats = server.stats();
    assert_eq!(stats.builds, subset.len(), "one build per model across all tenants");
    assert_eq!(stats.tenants, 3);
}
