//! Differential battery for the reduction stack: verdicts and pins.
//!
//! The contract: reductions change *how much* of the state space is
//! materialized, never *what the program can do*. The terminal sets of
//! every stack are checked against the brute-force oracle in
//! `oracle_differential.rs`; this battery checks `can_happen` and
//! `admits_trace` verdicts. Their truth is [`Oracle`] wherever it can
//! reach: the shared-memory bridge's bank questions and the symmetric
//! dining model's traces. The message-passing bridge's unreduced space
//! is beyond it, so its bank questions keep their pinned answers and
//! the POR-only build as truth.
//!
//! The golden-curve test at the bottom pins the quotient sizes of
//! `dining(n)` for n = 2..=6: symmetry reduction on a fully symmetric
//! model must deliver close to the factorial quotient, and any
//! regression in the canonicalizer shows up as a drifted count.

use concur_exec::explore::{Answer, Explorer, Limits};
use concur_exec::oracle::Oracle;
use concur_exec::{figures, Interp, QueryCache, Reduction, Session};
use std::sync::Arc;

/// POR alone: the truth where the oracle cannot reach.
const POR: Reduction = Reduction { por: true, symmetry: false, sleep: false };

/// The stacks every trace is checked under.
const STACKS: [(&str, Reduction); 4] = [
    ("none", Reduction::NONE),
    ("por", POR),
    ("por+sym", Reduction { por: true, symmetry: true, sleep: false }),
    ("full", Reduction::FULL),
];

fn interp(src: &str) -> Interp {
    Interp::from_source(src).expect("model compiles")
}

/// A fresh full-stack graph build on `workers` threads (a private
/// cache, so every call really builds).
fn full_stack_session(interp: &Interp, workers: usize) -> Session<'_> {
    Session::new(interp)
        .with_reduction(Reduction::FULL)
        .with_threads(workers)
        .with_cache(Arc::new(QueryCache::new()))
}

/// The comparable part of an [`Answer`]: variant plus exhaustiveness.
/// Witness contents are existential and excluded on purpose.
fn shape(answer: &Answer) -> (u8, bool) {
    match answer {
        Answer::Yes { .. } => (0, true),
        Answer::No { exhaustive } => (1, *exhaustive),
        Answer::SetupUnreachable { exhaustive } => (2, *exhaustive),
    }
}

// ---------------------------------------------------------------------
// The Test-1 bridges.
// ---------------------------------------------------------------------

use concur_study::bridge::{BRIDGE_MESSAGE_PASSING, BRIDGE_SHARED_MEMORY};
use concur_study::questions::{bank, Section};

/// Every bank question against its truth: the oracle on the
/// shared-memory bridge, and on the message-passing bridge the POR-only
/// build. Each truth must give the pinned answer, and the default
/// stack, the full stack and full-stack builds on 2 and 8 workers must
/// match its verdict shape.
#[test]
fn question_bank_verdicts_reduction_differential() {
    let sm = interp(BRIDGE_SHARED_MEMORY);
    let mp = interp(BRIDGE_MESSAGE_PASSING);
    for question in bank() {
        let (setup, scenario) = (&question.setup, &question.scenario);
        let truth = match question.section {
            Section::SharedMemory => Oracle::new(&sm).can_happen(setup, scenario),
            Section::MessagePassing => {
                Explorer::new(&mp).with_reduction(POR).can_happen(setup, scenario)
            }
        }
        .expect("reference verdict");
        assert_eq!(truth.is_yes(), question.expected, "{}: ground truth drifted", question.id);
        let program = match question.section {
            Section::SharedMemory => &sm,
            Section::MessagePassing => &mp,
        };
        let default = Explorer::new(program).can_happen(setup, scenario).expect("default stack");
        assert_eq!(shape(&default), shape(&truth), "{}: default-stack verdict", question.id);
        let full = Explorer::new(program)
            .with_reduction(Reduction::FULL)
            .can_happen(setup, scenario)
            .expect("full-stack verdict");
        assert_eq!(shape(&full), shape(&truth), "{}: full-stack verdict diverged", question.id);
        for n in [2, 8] {
            let par = full_stack_session(program, n)
                .can_happen(setup, scenario)
                .expect("graph-build verdict");
            assert_eq!(
                shape(&par),
                shape(&truth),
                "{}: verdict diverged at {n} workers under the full stack",
                question.id
            );
        }
    }
}

/// `admits_trace` on a symmetric model: the event sequence "some
/// philosopher finishes, then another finishes" must be admitted under
/// every stack, and an impossible trace (more `phil` returns than
/// philosophers) rejected, exactly as the oracle says.
#[test]
fn admits_trace_reduction_differential() {
    use concur_exec::{EventKindPattern, EventPattern};
    let src = figures::dining(3);
    let interp = interp(&src);
    let eats =
        |k: usize| vec![EventPattern::any(EventKindPattern::Returned { func: "phil".into() }); k];
    for trace in [eats(1), eats(2), eats(4)] {
        let truth = Oracle::new(&interp).admits_trace(&trace).expect("oracle admits_trace");
        assert_eq!(truth.is_yes(), trace.len() <= 3, "three philosophers eat once each");
        for (stack, reduction) in STACKS {
            let got = Explorer::new(&interp)
                .with_reduction(reduction)
                .admits_trace(&trace)
                .expect("reduced admits_trace");
            assert_eq!(
                shape(&got),
                shape(&truth),
                "admits_trace diverged under {stack} (trace length {})",
                trace.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Golden quotient curves.
// ---------------------------------------------------------------------

/// Pinned stored-state counts for `dining(n)` under the full reduction
/// stack. These are golden values: a graph build is deterministic (and
/// byte-identical at every worker count), so any change here means the
/// reduction layer's behavior changed and must be reviewed (a
/// canonicalizer bug typically *raises* the count; an unsoundness
/// typically lowers it and trips the oracle battery).
#[test]
fn dining_quotient_curve_is_pinned() {
    let expected: &[(usize, usize)] = &GOLDEN_DINING_FULL;
    let limits = Limits { max_states: 2_000_000, ..Limits::default() };
    for &(n, states) in expected {
        let src = figures::dining(n);
        let interp = interp(&src);
        let full = Explorer::with_limits(&interp, limits)
            .with_reduction(Reduction::FULL)
            .terminals()
            .expect("explores");
        assert!(!full.stats.truncated, "dining({n}) truncated under the full stack");
        assert_eq!(
            full.stats.states_visited, states,
            "dining({n}) quotient size drifted from the golden curve"
        );
        assert!(
            full.stats.states_canonicalized > 0,
            "dining({n}) never canonicalized a state; symmetry is not firing"
        );
    }
}

/// Golden curve data; see `dining_quotient_curve_is_pinned`.
const GOLDEN_DINING_FULL: [(usize, usize); 5] =
    [(2, 40), (3, 170), (4, 598), (5, 1_664), (6, 4_158)];
