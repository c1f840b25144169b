//! Witnesses read off a symmetry-quotient graph replay on the plain
//! interpreter.
//!
//! Under symmetry quotienting every stored state is its orbit
//! representative, and a stored pick indexes the representative's
//! choice list. `StateGraph::concretize_decisions` maps each pick back
//! through the canonicalizing permutation, so the evidence of a YES
//! answer is an ordinary decision vector. This suite checks that on the
//! symmetric models: every YES witness, under the full stack and under
//! POR plus symmetry, replays through [`ReplayScheduler`], reaches a
//! state satisfying the setup after `setup_len` decisions, and realizes
//! the query in the remainder.

use concur_exec::{
    figures, run, run_from, EventKindPattern as EK, EventPattern, Interp, QueryCache, Reduction,
    ReplayScheduler, Session, StateCond, Value,
};
use std::sync::Arc;

const POR_SYMMETRY: Reduction = Reduction { por: true, symmetry: true, sleep: false };

fn global(name: &str, value: i64) -> StateCond {
    StateCond::GlobalEquals { name: name.into(), value: Value::Int(value) }
}

fn returned(func: &str) -> EventPattern {
    EventPattern::any(EK::Returned { func: func.into() })
}

/// Replay `decisions` from the initial state: the first `setup_len`
/// must reach a state where every setup condition holds, and the
/// events of the rest must realize `query` in order.
fn assert_replays(
    interp: &Interp,
    what: &str,
    setup: &[StateCond],
    query: &[EventPattern],
    decisions: &[usize],
    setup_len: usize,
) {
    let (to_setup, scenario) = decisions.split_at(setup_len);
    let mut scheduler = ReplayScheduler::new(to_setup.to_vec());
    let at_setup = run(interp, &mut scheduler, setup_len as u64).expect("setup replays");
    assert_eq!(at_setup.state.steps, setup_len as u64, "{what}: setup prefix runs to its end");
    for cond in setup {
        assert!(
            cond.holds(&at_setup.state, &interp.compiled.funcs),
            "{what}: setup condition {cond:?} holds after the setup prefix"
        );
    }
    let mut scheduler = ReplayScheduler::new(scenario.to_vec());
    let end = run_from(interp, at_setup.state, &mut scheduler, decisions.len() as u64)
        .expect("scenario replays");
    assert_eq!(end.state.steps, decisions.len() as u64, "{what}: every decision is taken");
    let mut progress = 0;
    for event in &end.events {
        if progress < query.len() && query[progress].matches(event, &end.state) {
            progress += 1;
        }
    }
    assert_eq!(progress, query.len(), "{what}: the replay realizes the query");
}

#[test]
fn quotient_witnesses_replay_on_the_interpreter() {
    let mut cases: Vec<(String, String, Vec<StateCond>, Vec<EventPattern>)> = Vec::new();
    for n in [3i64, 4] {
        let src = figures::dining(n as usize);
        let name = format!("dining({n})");
        cases.push((name.clone(), src.clone(), vec![], vec![returned("phil")]));
        cases.push((name.clone(), src.clone(), vec![], vec![returned("phil"); n as usize]));
        cases.push((name.clone(), src.clone(), vec![global("seats", n)], vec![returned("phil")]));
        cases.push((name.clone(), src.clone(), vec![global("eaten", 2 * n)], vec![]));
        cases.push((
            name,
            src,
            vec![global("seats", 1)],
            vec![EventPattern::any(EK::Acquired), EventPattern::any(EK::Released)],
        ));
    }
    let src = figures::dining_naive(3);
    let name = "naive dining(3)".to_string();
    cases.push((name.clone(), src.clone(), vec![], vec![returned("phil")]));
    cases.push((name.clone(), src.clone(), vec![], vec![EventPattern::any(EK::WaitStart)]));
    cases.push((name.clone(), src.clone(), vec![], vec![EventPattern::any(EK::Notified)]));
    cases.push((name.clone(), src.clone(), vec![global("seats", 3)], vec![returned("take")]));
    cases.push((name, src, vec![global("eaten", 3)], vec![]));

    for (name, src, setup, query) in &cases {
        let interp = Interp::from_source(src).expect("compiles");
        for (stack, reduction) in [("full", Reduction::FULL), ("por+symmetry", POR_SYMMETRY)] {
            let what = format!("{name} {stack} setup {setup:?} query {query:?}");
            let session = Session::new(&interp)
                .with_reduction(reduction)
                .with_cache(Arc::new(QueryCache::new()));
            let (answer, evidence, stats) =
                session.can_happen_with_evidence(setup, query).expect("explores");
            assert!(stats.states_canonicalized > 0, "{what}: symmetry fired");
            assert!(answer.is_yes(), "{what}: expected YES, got {answer:?}");
            let evidence = evidence.expect("a YES carries evidence");
            assert_replays(&interp, &what, setup, query, &evidence.decisions, evidence.setup_len);
        }
    }
}
