//! Tests for the "could this happen?" query engine — the machinery
//! behind the paper's Test-1 questions (Figures 6–7) — on a miniature
//! mutual-exclusion program.

use concur_exec::explore::{Answer, Explorer, Limits};
use concur_exec::oracle::Oracle;
use concur_exec::{EventKindPattern, EventPattern, Interp, StateCond, Value};

/// A two-task critical-section program: both tasks call `enter()` then
/// `leave()`; `enter` blocks while `busy`.
const MINI_MUTEX: &str = "\
busy = FALSE
log = 0

DEFINE enter()
    EXC_ACC
        WHILE busy
            WAIT()
        ENDWHILE
        busy = TRUE
    END_EXC_ACC
ENDDEF

DEFINE leave()
    EXC_ACC
        busy = FALSE
        NOTIFY()
    END_EXC_ACC
ENDDEF

DEFINE worker()
    enter()
    leave()
ENDDEF

PARA
    worker()
    worker()
ENDPARA
";

fn explorer_for(source: &str) -> (Interp, ()) {
    (Interp::from_source(source).unwrap(), ())
}

#[test]
fn a_task_can_block_on_exc_acc_while_the_other_holds_it() {
    let (interp, _) = explorer_for(MINI_MUTEX);
    let explorer = Explorer::new(&interp);
    // Setup: first worker is inside enter() and has not returned.
    let setup = vec![StateCond::InFunction { task_label: "worker()".into(), func: "enter".into() }];
    // Query: some task blocks trying to enter an EXC_ACC.
    let query = vec![EventPattern::any(EventKindPattern::BlockedOnLocks)];
    let answer = explorer.can_happen(&setup, &query).unwrap();
    assert!(answer.is_yes(), "{answer:?}");
}

#[test]
fn both_workers_eventually_finish() {
    let (interp, _) = explorer_for(MINI_MUTEX);
    let explorer = Explorer::new(&interp);
    let set = explorer.terminals().unwrap();
    assert!(!set.stats.truncated);
    assert!(!set.has_deadlock(), "{:?}", set.terminals);
}

#[test]
fn impossible_scenarios_get_a_definitive_no() {
    let (interp, _) = explorer_for(MINI_MUTEX);
    let explorer = Explorer::new(&interp);
    // `busy` can never be printed, so a Printed event is unreachable.
    let query = vec![EventPattern::any(EventKindPattern::Printed { text: "X".into() })];
    let answer = explorer.can_happen(&[], &query).unwrap();
    assert!(answer.is_definitive_no(), "{answer:?}");
}

#[test]
fn unsatisfiable_setup_is_reported() {
    let (interp, _) = explorer_for(MINI_MUTEX);
    let explorer = Explorer::new(&interp);
    let setup = vec![StateCond::GlobalEquals { name: "log".into(), value: Value::Int(99) }];
    let answer =
        explorer.can_happen(&setup, &[EventPattern::any(EventKindPattern::Notified)]).unwrap();
    assert_eq!(answer, Answer::SetupUnreachable { exhaustive: true });
}

#[test]
fn ordered_event_sequences_respect_program_order() {
    let (interp, _) = explorer_for(MINI_MUTEX);
    let explorer = Explorer::new(&interp);
    // A worker can return from enter and then call leave…
    let forwards = vec![
        EventPattern::by("worker()", EventKindPattern::Returned { func: "enter".into() }),
        EventPattern::by("worker()", EventKindPattern::Called { func: "leave".into() }),
    ];
    assert!(explorer.can_happen(&[], &forwards).unwrap().is_yes());
}

#[test]
fn wait_can_happen_when_contended() {
    let (interp, _) = explorer_for(MINI_MUTEX);
    let explorer = Explorer::new(&interp);
    // Some interleaving has a worker find busy == TRUE and WAIT.
    let query = vec![EventPattern::any(EventKindPattern::WaitStart)];
    assert!(explorer.can_happen(&[], &query).unwrap().is_yes());
    // And a NOTIFY follows in some interleaving.
    let seq = vec![
        EventPattern::any(EventKindPattern::WaitStart),
        EventPattern::any(EventKindPattern::Notified),
    ];
    assert!(explorer.can_happen(&[], &seq).unwrap().is_yes());
}

#[test]
fn message_question_payloads() {
    // Counter receiver replies with how many pings it has seen; the
    // payload-constrained query distinguishes 1 from 2.
    let source = "\
CLASS Counter
    n = 0

    DEFINE serve()
        ON_RECEIVING
            MESSAGE.ping(sender)
                n = n + 1
                Send(MESSAGE.ack(n)).To(sender)
    ENDDEF
ENDCLASS

CLASS Client
    DEFINE start(counter)
        Send(MESSAGE.ping(SELF)).To(counter)
        ON_RECEIVING
            MESSAGE.ack(k)
                RETURN 0
    ENDDEF
ENDCLASS

counter = new Counter()
counter.serve()
a = new Client()
b = new Client()
a.start(counter)
b.start(counter)
";
    let interp = Interp::from_source(source).unwrap();
    let explorer = Explorer::new(&interp);
    // Some client can receive ack(2)…
    let ack2 = vec![EventPattern::any(EventKindPattern::Received {
        msg_name: "ack".into(),
        args: Some(vec![Value::Int(2)]),
    })];
    assert!(explorer.can_happen(&[], &ack2).unwrap().is_yes());
    // …but nobody can ever receive ack(3) with only two pings.
    let ack3 = vec![EventPattern::any(EventKindPattern::Received {
        msg_name: "ack".into(),
        args: Some(vec![Value::Int(3)]),
    })];
    assert!(explorer.can_happen(&[], &ack3).unwrap().is_definitive_no());
}

#[test]
fn truncated_witness_search_is_not_reported_exhaustive() {
    // A NO produced under a bound that cut the search short must not
    // claim exhaustiveness — `is_definitive_no` has to stay false.
    let (interp, _) = explorer_for(MINI_MUTEX);
    let limits = Limits { max_states: 3, max_depth: 10_000, max_setup_states: 4096 };
    let explorer = Explorer::with_limits(&interp, limits);
    let query = vec![EventPattern::any(EventKindPattern::Printed { text: "X".into() })];
    let answer = explorer.can_happen(&[], &query).unwrap();
    assert_eq!(answer, Answer::No { exhaustive: false });
    assert!(!answer.is_definitive_no());
}

#[test]
fn truncated_setup_search_is_not_reported_exhaustive() {
    // Same for a vacuous setup: if the search for setup states was
    // truncated, the unreachability verdict is only a lower bound.
    let (interp, _) = explorer_for(MINI_MUTEX);
    let limits = Limits { max_states: 3, max_depth: 10_000, max_setup_states: 4096 };
    let explorer = Explorer::with_limits(&interp, limits);
    let setup = vec![StateCond::GlobalEquals { name: "log".into(), value: Value::Int(99) }];
    let answer =
        explorer.can_happen(&setup, &[EventPattern::any(EventKindPattern::Notified)]).unwrap();
    assert_eq!(answer, Answer::SetupUnreachable { exhaustive: false });
}

#[test]
fn shared_visited_set_does_not_mask_a_later_starts_witness() {
    // The witness search shares one visited set across all setup
    // states, and some of them have already printed "w" (their
    // continuations can never match), so the YES must come from
    // another start — a regression guard against the shared set
    // swallowing it.
    let source = "\
x = 0

DEFINE bump()
    x = 1
    x = 2
ENDDEF

PARA
    PRINT \"w\"
    bump()
ENDPARA
";
    let interp = Interp::from_source(source).unwrap();
    let explorer = Explorer::new(&interp);
    let setup = vec![StateCond::GlobalEquals { name: "x".into(), value: Value::Int(1) }];
    // Sanity: multiple distinct frontier states satisfy the setup.
    let (starts, _) = Oracle::new(&interp).states(&setup, usize::MAX, true).unwrap();
    assert!(starts.len() > 1, "expected several setup states, got {}", starts.len());
    assert!(
        starts.iter().any(|s| s.output.normalized().contains('w')),
        "expected some setup state to have printed already"
    );
    let query = vec![EventPattern::any(EventKindPattern::Printed { text: "w".into() })];
    let answer = explorer.can_happen(&setup, &query).unwrap();
    assert!(answer.is_yes(), "{answer:?}");
}

#[test]
fn witness_traces_realize_the_query() {
    let (interp, _) = explorer_for(MINI_MUTEX);
    let explorer = Explorer::new(&interp);
    let query = vec![
        EventPattern::any(EventKindPattern::WaitStart),
        EventPattern::any(EventKindPattern::Notified),
    ];
    match explorer.can_happen(&[], &query).unwrap() {
        Answer::Yes { witness } => {
            // The witness must actually contain the queried events in
            // order.
            let wait_pos = witness
                .iter()
                .position(|e| matches!(e, concur_exec::Event::WaitStart { .. }))
                .expect("wait in witness");
            let notify_pos = witness
                .iter()
                .rposition(|e| matches!(e, concur_exec::Event::Notified { .. }))
                .expect("notify in witness");
            assert!(wait_pos < notify_pos, "{witness:?}");
        }
        other => panic!("expected Yes, got {other:?}"),
    }
}
