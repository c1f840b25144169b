//! Differential battery for first-class spec queries: verdicts must
//! be byte-identical at every build worker count, invariant under the
//! reduction stack, served identically fresh / memo-hit /
//! disk-restored, and every counterexample must round-trip through
//! the universal artifact format and replay to a violating trace.
//!
//! The spec bank under test is the conformance crate's
//! ([`concur_conformance::spec_bank`]) — the same entries the
//! four-paradigm battery prosecutes at runtime.

use concur_conformance::{spec_bank, SpecEntry};
use concur_decide::TraceArtifact;
use concur_exec::explore::Reduction;
use concur_exec::{
    Event, EventKindPattern, EventPattern, QueryCache, ReplayScheduler, Server, ServerConfig,
    Session, SpecReport,
};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("concur-specdiff-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session_for(entry: &SpecEntry, workers: usize, cache: Arc<QueryCache>) -> Session<'static> {
    Session::from_source(&entry.model)
        .expect("bank model compiles")
        .with_threads(workers)
        .with_cache(cache)
}

/// Verdicts (and counterexample evidence) are byte-identical at 1, 2,
/// 4 and 8 build workers, and a memo hit answers exactly like the
/// fresh build it was computed from. One shared cache per worker
/// count also exercises the bank's graph sharing: entries over the
/// same model and alphabet signature reuse one build.
#[test]
fn spec_verdicts_are_byte_identical_across_workers() {
    let bank = spec_bank();
    let mut reference: Vec<Option<SpecReport>> = vec![None; bank.len()];
    for workers in [1usize, 2, 4, 8] {
        let cache = Arc::new(QueryCache::new());
        for (i, entry) in bank.iter().enumerate() {
            let session = session_for(entry, workers, Arc::clone(&cache));
            let fresh = session.check_spec(&entry.spec).expect(entry.name);
            let hit = session.check_spec(&entry.spec).expect(entry.name);
            assert_eq!(fresh, hit, "{} @{workers}: memo hit differs from fresh", entry.name);
            assert_eq!(fresh.holds, entry.holds, "{} @{workers}: verdict drifted", entry.name);
            match &reference[i] {
                None => reference[i] = Some(fresh),
                Some(first) => assert_eq!(
                    &fresh, first,
                    "{} @{workers}: report differs from 1-worker build",
                    entry.name
                ),
            }
        }
        let stats = cache.stats();
        assert!(stats.spec_hits >= bank.len(), "@{workers}: second passes never hit the memo");
    }
}

/// The reduction stack never changes a verdict: NONE and FULL agree
/// with the pinned expectation for every entry (fairness entries are
/// internally forced to NONE either way — the knob must still be
/// harmless).
#[test]
fn spec_verdicts_are_reduction_invariant() {
    for entry in spec_bank() {
        for reduction in [Reduction::NONE, Reduction::FULL] {
            let report = Session::from_source(&entry.model)
                .expect("bank model compiles")
                .with_reduction(reduction)
                .with_cache(Arc::new(QueryCache::new()))
                .check_spec(&entry.spec)
                .expect(entry.name);
            assert!(report.exhaustive, "{} under {reduction:?}: not exhaustive", entry.name);
            assert_eq!(
                report.holds, entry.holds,
                "{} under {reduction:?}: verdict drifted",
                entry.name
            );
        }
    }
}

/// Every violated entry's counterexample is a *replayable artifact*:
/// its decision vector round-trips through the universal trace
/// artifact format, re-executes through the model interpreter, and
/// the replayed event trace is (a) rejected by the monitor when
/// token-gradable and (b) admitted by the state graph via
/// `admits_trace` — the counterexample really is a trace of the
/// program, not just a path of some stale structure.
#[test]
fn counterexamples_round_trip_and_replay() {
    for entry in spec_bank().iter().filter(|e| !e.holds) {
        let session = Session::from_source(&entry.model)
            .expect("bank model compiles")
            .with_cache(Arc::new(QueryCache::new()));
        let report = session.check_spec(&entry.spec).expect(entry.name);
        let violation = report.violation.as_ref().unwrap_or_else(|| {
            panic!("{}: violated entry carries no evidence", entry.name);
        });
        assert_eq!(violation.evidence.setup_len, 0, "counterexamples are root-anchored");

        // Universal artifact round trip.
        let artifact = TraceArtifact::from_picks(
            entry.name,
            "model",
            &format!("{:?}", violation.kind),
            &violation.evidence.decisions,
        );
        let parsed = TraceArtifact::parse(&artifact.render()).expect("artifact parses back");
        assert_eq!(parsed.decisions, violation.evidence.decisions, "{}", entry.name);

        // Replay through the interpreter.
        let interp = concur_exec::Interp::from_source(&entry.model).expect("compiles");
        let mut sched = ReplayScheduler::new(parsed.decisions.clone());
        let replay = concur_exec::run(&interp, &mut sched, 100_000).expect("replays");

        // The replayed Printed trace must itself violate a
        // token-gradable spec (doomed prefixes stay violating under
        // the run's continuation, rejected terminals are terminal).
        if entry.token_gradable {
            let monitor = entry.spec.compile().expect("compiles");
            let tokens: Vec<i64> = replay
                .events
                .iter()
                .filter_map(|e| match e {
                    Event::Printed { text, .. } => text.trim().parse().ok(),
                    _ => None,
                })
                .collect();
            assert_eq!(
                monitor.grade_tokens(&tokens),
                Ok(false),
                "{}: replayed counterexample trace {tokens:?} is not rejected",
                entry.name
            );

            // And the graph itself admits the counterexample trace.
            let trace: Vec<EventPattern> = tokens
                .iter()
                .map(|t| EventPattern::any(EventKindPattern::Printed { text: t.to_string() }))
                .collect();
            if !trace.is_empty() {
                let answer = session.admits_trace(&trace).expect("admits_trace");
                assert!(answer.is_yes(), "{}: counterexample trace not admitted", entry.name);
            }
        }
    }
}

/// Disk-restored warm restarts answer spec queries identically to the
/// cold build that persisted them — and without rebuilding.
#[test]
fn disk_restored_server_answers_specs_identically() {
    let dir = scratch("bank");
    let bank = spec_bank();
    // A representative slice: a violated token entry (deadlock
    // counterexample), a holding mutex entry (label-sensitive
    // symbols), and a fairness entry (unreduced graph).
    let picks = ["dining_naive_both_eat", "sum_sections_exclude", "sum_worker_fair_at_k64"];
    let entries: Vec<&SpecEntry> =
        picks.iter().map(|n| bank.iter().find(|e| e.name == *n).expect("entry")).collect();

    let server_a = Server::new(ServerConfig::new().disk(&dir));
    let mut cold = Vec::new();
    for entry in &entries {
        let session = server_a.owned_session("t", &entry.model).expect("compiles");
        cold.push(session.check_spec(&entry.spec).expect(entry.name));
    }

    let server_b = Server::new(ServerConfig::new().disk(&dir));
    for (entry, cold_report) in entries.iter().zip(&cold) {
        let session = server_b.owned_session("t", &entry.model).expect("compiles");
        let warm = session.check_spec(&entry.spec).expect(entry.name);
        assert_eq!(&warm, cold_report, "{}: disk-restored verdict differs", entry.name);
        assert_eq!(warm.holds, entry.holds, "{}: verdict drifted", entry.name);
    }
    let stats = server_b.tenant_stats("t");
    assert_eq!(stats.builds, 0, "warm restart must answer specs without rebuilding");
    assert!(stats.disk_loads > 0, "warm restart must actually read the store");

    let _ = std::fs::remove_dir_all(&dir);
}

/// The spec whose product the concurrent memo check races on: a
/// fairness entry, decided on the unreduced graph with starvation
/// counters, so each decision takes milliseconds and the clients'
/// checks overlap.
const SLOW_PRODUCT: &str = "sum_worker_fair_at_k64";

/// The verdict memo lives on the graph, so a tenant `Server` serves it
/// as a cache does: a repeat check is a memo hit equal to the first, a
/// check after the tenant's graphs are evicted decides afresh and
/// agrees, and concurrent identical checks decide once.
#[test]
fn server_sessions_memoize_verdicts_on_the_graph() {
    let entry = spec_bank().into_iter().find(|e| e.name == SLOW_PRODUCT).expect("bank entry");
    let check = |server: &Server, tenant: &str| {
        let session = server.owned_session(tenant, &entry.model).expect("compiles");
        session.check_spec(&entry.spec).expect(entry.name)
    };
    let server = Server::new(ServerConfig::new());
    let first = check(&server, "t");
    assert_eq!(first.holds, entry.holds, "verdict drifted");
    let second = check(&server, "t");
    assert_eq!(second, first, "a memo hit equals the decided verdict");
    let stats = server.stats();
    assert_eq!((stats.spec_misses, stats.spec_hits), (1, 1), "the repeat check hits the memo");

    assert_eq!(server.evict_tenant("t"), 1, "the tenant's one graph leaves the server");
    let third = check(&server, "t");
    assert_eq!(third, first, "a fresh decision after eviction agrees");
    assert_eq!(server.stats().spec_misses, 2, "the evicted graph took its verdict with it");

    const CLIENTS: usize = 4;
    let server = Server::new(ServerConfig::new());
    let barrier = Barrier::new(CLIENTS);
    let reports: Vec<SpecReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let session =
                    server.owned_session(&format!("client-{c}"), &entry.model).expect("compiles");
                let (barrier, spec) = (&barrier, &entry.spec);
                scope.spawn(move || {
                    barrier.wait();
                    session.check_spec(spec).expect("checks")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });
    assert!(reports.iter().all(|r| *r == first), "every client reads the one verdict");
    let stats = server.stats();
    assert_eq!(
        (stats.spec_misses, stats.spec_hits),
        (1, CLIENTS - 1),
        "concurrent identical checks decide once"
    );
}
