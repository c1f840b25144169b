//! Differential tests for the build-once-query-many stack: cached
//! [`Session`] answers must be byte-identical to fresh builds, across
//! worker counts, and must agree with the brute-force [`Oracle`].

use concur_exec::explore::{Limits, Reduction};
use concur_exec::oracle::Oracle;
use concur_exec::{
    figures, EventKindPattern as EK, EventPattern, Interp, QueryCache, Session, Spec, StateCond,
};
use std::sync::Arc;

const FIGURES: &[(&str, &str)] = &[
    ("fig1", figures::FIG1_ASSIGNMENTS),
    ("fig2", figures::FIG2_CONDITIONAL),
    ("fig3-two-prints", figures::FIG3_TWO_PRINTS),
    ("fig3-sequential", figures::FIG3_SEQUENTIAL_FN),
    ("fig3-interleaved", figures::FIG3_INTERLEAVED),
    ("fig4-exc-acc", figures::FIG4_EXC_ACC),
    ("fig4-wait-notify", figures::FIG4_WAIT_NOTIFY),
    ("fig4-race", figures::FIG4_RACE_CONTROL),
    ("fig5", figures::FIG5_MESSAGE_PASSING),
];

/// Terminal sets from the session are byte-identical at every worker
/// count, on hit and on miss, and match the oracle.
#[test]
fn terminals_are_byte_identical_across_workers_and_cache_states() {
    for (name, src) in FIGURES {
        let interp = Interp::from_source(src).expect("compiles");
        let truth = Oracle::new(&interp).terminals().expect("explores");
        let mut reference = None;
        for workers in [1usize, 2, 4, 8] {
            let cache = Arc::new(QueryCache::new());
            let session = Session::new(&interp).with_threads(workers).with_cache(cache);
            let fresh = session.terminals().expect("explores");
            let cached = session.terminals().expect("explores");
            assert_eq!(
                fresh.terminals, cached.terminals,
                "{name} @{workers}: hit differs from miss"
            );
            assert_eq!(
                fresh.terminals, truth.terminals,
                "{name} @{workers}: session differs from the oracle"
            );
            match &reference {
                None => reference = Some(fresh.terminals),
                Some(first) => assert_eq!(
                    &fresh.terminals, first,
                    "{name} @{workers}: differs from 1-worker build"
                ),
            }
        }
    }
}

/// Representative can_happen queries: verdicts (and exhaustiveness)
/// from the cached graph equal the oracle's, and the
/// witness — BFS-shortest on the graph — is byte-identical at every
/// worker count and replays to the claimed events.
#[test]
fn can_happen_agrees_with_the_oracle_and_is_worker_invariant() {
    let queries: Vec<(&str, &str, Vec<StateCond>, Vec<EventPattern>)> = vec![
        (
            "fig3-interleaved",
            figures::FIG3_INTERLEAVED,
            vec![],
            vec![
                EventPattern::any(EK::Printed { text: "fun ".into() }),
                EventPattern::any(EK::Printed { text: "sun ".into() }),
            ],
        ),
        (
            "fig4-wait-notify",
            figures::FIG4_WAIT_NOTIFY,
            vec![],
            vec![EventPattern::any(EK::Notified)],
        ),
        (
            "fig5",
            figures::FIG5_MESSAGE_PASSING,
            vec![],
            vec![EventPattern::any(EK::Sent { msg_name: "succeedExit".into(), args: None })],
        ),
        (
            "fig3-two-prints-impossible",
            figures::FIG3_TWO_PRINTS,
            vec![],
            vec![
                EventPattern::any(EK::Printed { text: "world ".into() }),
                EventPattern::any(EK::Printed { text: "world ".into() }),
            ],
        ),
    ];
    for (name, src, setup, query) in queries {
        let interp = Interp::from_source(src).expect("compiles");
        let truth = Oracle::new(&interp).can_happen(&setup, &query).expect("explores");
        let mut reference = None;
        for workers in [1usize, 2, 4, 8] {
            let cache = Arc::new(QueryCache::new());
            let session = Session::new(&interp).with_threads(workers).with_cache(cache);
            let (answer, evidence, _) =
                session.can_happen_with_evidence(&setup, &query).expect("explores");
            assert_eq!(
                answer.is_yes(),
                truth.is_yes(),
                "{name} @{workers}: verdict differs from the oracle"
            );
            assert_eq!(
                answer.is_definitive_no(),
                truth.is_definitive_no(),
                "{name} @{workers}: exhaustiveness differs from the oracle"
            );
            match &reference {
                None => reference = Some((answer.clone(), evidence.clone())),
                Some((first_answer, first_evidence)) => {
                    assert_eq!(&answer, first_answer, "{name} @{workers}: answer bytes differ");
                    assert_eq!(&evidence, first_evidence, "{name} @{workers}: evidence differs");
                }
            }
            if let Some(evidence) = evidence {
                // The decision vector must re-execute the witness.
                let mut scheduler = concur_exec::ReplayScheduler::new(evidence.decisions.clone());
                let replay =
                    concur_exec::run(&interp, &mut scheduler, evidence.decisions.len() as u64)
                        .expect("replays");
                let mut progress = 0;
                for event in &replay.events {
                    if progress < query.len() && query[progress].matches(event, &replay.state) {
                        progress += 1;
                    }
                }
                assert_eq!(progress, query.len(), "{name} @{workers}: replay realizes query");
            }
        }
    }
}

/// A changed program digest never serves a stale answer: two different
/// programs sharing one cache get their own graphs, and re-compiling
/// identical source maps onto the existing entry.
#[test]
fn cache_invalidation_never_serves_stale_answers() {
    let cache = Arc::new(QueryCache::new());
    let a = Interp::from_source(figures::FIG3_TWO_PRINTS).expect("compiles");
    let b = Interp::from_source(figures::FIG3_SEQUENTIAL_FN).expect("compiles");
    let sa = Session::new(&a).with_cache(Arc::clone(&cache));
    let sb = Session::new(&b).with_cache(Arc::clone(&cache));

    let ta1 = sa.terminals().expect("explores");
    let tb1 = sb.terminals().expect("explores");
    assert_ne!(ta1.terminals, tb1.terminals, "distinct programs, distinct answers");
    assert_eq!(cache.stats().builds, 2, "one build per digest");

    // Interleave repeats: every answer must keep matching its own
    // program, never the other entry.
    for _ in 0..3 {
        let ta = sa.terminals().expect("explores");
        let tb = sb.terminals().expect("explores");
        assert_eq!(ta.terminals, ta1.terminals);
        assert_eq!(tb.terminals, tb1.terminals);
    }
    assert_eq!(cache.stats().builds, 2, "repeats never rebuild");

    // Same source re-compiled = same digest = same entry; an in-memory
    // `Interp::new` program gets a unique nonce digest and never
    // aliases either entry.
    let a2 = Interp::from_source(figures::FIG3_TWO_PRINTS).expect("compiles");
    let ta2 = Session::new(&a2).with_cache(Arc::clone(&cache)).terminals().expect("explores");
    assert_eq!(ta2.terminals, ta1.terminals);
    assert_eq!(cache.stats().builds, 2, "identical source shares the entry");
    assert_eq!(ta2.stats.cache_hits, 1);

    let fresh = Interp::new(concur_exec::compile_source(figures::FIG3_TWO_PRINTS).expect("ok"));
    let tf = Session::new(&fresh).with_cache(Arc::clone(&cache)).terminals().expect("explores");
    assert_eq!(tf.terminals, ta1.terminals, "same program, same answer");
    assert_eq!(cache.stats().builds, 3, "nonce digest never aliases a source digest");
}

/// Limits are part of the key: a truncated small-limit graph is never
/// served to a query with larger limits (and vice versa).
#[test]
fn limits_split_the_cache_key() {
    let cache = Arc::new(QueryCache::new());
    let interp = Interp::from_source(figures::FIG5_MESSAGE_PASSING).expect("compiles");
    let tight = Limits { max_states: 3, ..Limits::default() };
    let small = Session::with_limits(&interp, tight)
        .with_cache(Arc::clone(&cache))
        .terminals()
        .expect("explores");
    assert!(small.stats.truncated, "3-state cap truncates fig5");
    let full = Session::new(&interp).with_cache(Arc::clone(&cache)).terminals().expect("explores");
    assert!(!full.stats.truncated, "default limits explore fig5 exhaustively");
    assert_eq!(cache.stats().builds, 2, "different limits, different graphs");
}

/// Latent-hazard regression: a spec whose alphabet names events that
/// are *invisible* under a plain query signature (here `Released` —
/// ordinary queries never watch lock exits) must widen the graph's
/// visibility signature and get its own reduced build, never reuse
/// the pattern-free terminals graph. The widened reduced graph then
/// answers exactly like an unreduced one — the POR soundness
/// contract for monitored alphabets.
#[test]
fn spec_alphabet_widens_the_visibility_signature() {
    let cache = Arc::new(QueryCache::new());
    let interp = Interp::from_source(figures::FIG4_EXC_ACC).expect("compiles");
    let session = Session::new(&interp).with_cache(Arc::clone(&cache));

    // Prime the cache with the pattern-free terminals graph.
    session.terminals().expect("explores");
    assert_eq!(cache.stats().builds, 1);

    let spec = Spec::eventually(EventPattern::any(EK::Released));
    let reduced = session.check_spec(&spec).expect("checks");
    assert_eq!(
        cache.stats().builds,
        2,
        "a Released-watching spec must not be answered off the terminals graph"
    );
    assert!(reduced.exhaustive);

    let unreduced = Session::new(&interp)
        .with_reduction(Reduction::NONE)
        .with_cache(Arc::new(QueryCache::new()))
        .check_spec(&spec)
        .expect("checks");
    assert_eq!(reduced, unreduced, "widened reduced verdict differs from unreduced");
    assert!(reduced.holds, "every EXC_ACC exit releases");
}

/// Stats from an unreduced session build satisfy the same conservation
/// law the parallel differential suite asserts, and the cache counters
/// report exactly one miss then one hit.
#[test]
fn session_stats_conserve_and_count() {
    let cache = Arc::new(QueryCache::new());
    let interp = Interp::from_source(figures::FIG4_RACE_CONTROL).expect("compiles");
    let session = Session::new(&interp).without_por().with_cache(cache);
    let first = session.terminals().expect("explores");
    assert_eq!(
        first.stats.states_visited + first.stats.states_deduped,
        first.stats.transitions + 1,
        "unreduced graph conserves claims"
    );
    assert_eq!((first.stats.cache_hits, first.stats.cache_misses), (0, 1));
    let second = session.terminals().expect("explores");
    assert_eq!((second.stats.cache_hits, second.stats.cache_misses), (1, 0));
    assert_eq!(second.stats.states_visited, first.stats.states_visited);
    assert!(second.stats.build_wall == first.stats.build_wall, "hit reports the original build");
}
