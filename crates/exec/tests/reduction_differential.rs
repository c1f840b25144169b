//! Differential battery for the reduction stack.
//!
//! The contract: reductions change *how much* of the state space is
//! materialized, never *what the program can do*. For every paper
//! figure and every conformance problem model, the full reduction
//! stack (ample-set POR + symmetry quotienting + sleep sets) must
//! produce the same [`TerminalSet`] terminals, the same `can_happen`
//! verdicts, and the same `admits_trace` verdicts as the unreduced
//! exploration — on the serial DFS, and on graph builds at 1/2/4/8
//! workers.
//!
//! The golden-curve test at the bottom pins the quotient sizes of
//! `dining(n)` for n = 2..=6: symmetry reduction on a fully symmetric
//! model must deliver close to the factorial quotient, and any
//! regression in the canonicalizer shows up as a drifted count.

use concur_exec::explore::{Answer, Explorer, Limits, TerminalSet};
use concur_exec::{figures, Interp, QueryCache, Reduction, Session};
use std::sync::Arc;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn interp(src: &str) -> Interp {
    Interp::from_source(src).expect("model compiles")
}

/// The serial DFS under an explicit reduction stack.
fn serial(interp: &Interp, reduction: Reduction) -> TerminalSet {
    Explorer::new(interp).with_reduction(reduction).terminals().expect("serial")
}

/// A fresh full-stack graph build on `workers` threads (a private
/// cache, so every call really builds).
fn full_stack_session(interp: &Interp, workers: usize) -> Session<'_> {
    Session::new(interp)
        .with_reduction(Reduction::FULL)
        .with_threads(workers)
        .with_cache(Arc::new(QueryCache::new()))
}

/// The full differential for one model: unreduced truth (POR only,
/// itself proven exact against the naive search) vs the full stack,
/// on the serial DFS and on graph builds at every worker count.
fn assert_reductions_exact(name: &str, src: &str) {
    let interp = interp(src);
    let truth = serial(&interp, Reduction { por: true, symmetry: false, sleep: false });
    assert!(!truth.stats.truncated, "{name}: baseline truncated; differential is void");
    let full = serial(&interp, Reduction::FULL);
    assert!(!full.stats.truncated, "{name}: reduced exploration truncated");
    assert_eq!(full.terminals, truth.terminals, "{name}: serial full-stack terminals diverged");
    // No monotonicity assertion on states_visited: sleep sets disable
    // the single-successor corridor compression, so the full stack can
    // visit marginally *more* interned states than POR alone on tiny
    // models even though it expands strictly fewer transitions.
    for &n in &WORKER_COUNTS {
        let par = full_stack_session(&interp, n).terminals().expect("graph build");
        assert!(!par.stats.truncated, "{name}: parallel truncated at {n} workers");
        assert_eq!(
            par.terminals, truth.terminals,
            "{name}: terminal set diverged at {n} workers under the full stack"
        );
    }
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
// Paper figures.
// ---------------------------------------------------------------------

#[test]
fn figures_terminals_reduction_differential() {
    for (name, src, _) in figures::figure_expectations() {
        assert_reductions_exact(name, src);
    }
}

// ---------------------------------------------------------------------
// Conformance problem models.
// ---------------------------------------------------------------------

use concur_conformance::models;

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

#[test]
fn problem_models_terminals_reduction_differential() {
    for &(name, src) in MODELS {
        assert_reductions_exact(name, src);
    }
}

// ---------------------------------------------------------------------
// Parametric models: the symmetry annotation's home turf.
// ---------------------------------------------------------------------

#[test]
fn parametric_models_reduction_differential() {
    let cases = [
        ("dining(2)", figures::dining(2)),
        ("dining(3)", figures::dining(3)),
        ("dining_naive(2)", figures::dining_naive(2)),
        ("producers_consumers(2,2)", figures::producers_consumers(2, 2)),
        ("producers_consumers(3,1)", figures::producers_consumers(3, 1)),
    ];
    for (name, src) in &cases {
        assert_reductions_exact(name, src);
    }
}

// ---------------------------------------------------------------------
// Verdict parity: can_happen and admits_trace under the full stack.
// ---------------------------------------------------------------------

use concur_study::bridge::{BRIDGE_MESSAGE_PASSING, BRIDGE_SHARED_MEMORY};
use concur_study::questions::{bank, Section};

#[test]
fn question_bank_verdicts_reduction_differential() {
    let sm = interp(BRIDGE_SHARED_MEMORY);
    let mp = interp(BRIDGE_MESSAGE_PASSING);
    for question in bank() {
        let program = match question.section {
            Section::SharedMemory => &sm,
            Section::MessagePassing => &mp,
        };
        let truth = Explorer::new(program)
            .can_happen(&question.setup, &question.scenario)
            .expect("default-stack verdict");
        assert_eq!(truth.is_yes(), question.expected, "{}: ground truth drifted", question.id);
        let full = Explorer::new(program)
            .with_reduction(Reduction::FULL)
            .can_happen(&question.setup, &question.scenario)
            .expect("full-stack verdict");
        assert_eq!(
            shape(&full),
            shape(&truth),
            "{}: full-stack serial verdict diverged",
            question.id
        );
        for n in [2, 8] {
            let par = full_stack_session(program, n)
                .can_happen(&question.setup, &question.scenario)
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
/// philosopher finishes, then another finishes" must be admitted with
/// and without symmetry quotienting, and an impossible trace (more
/// `phil` returns than philosophers) must be rejected by both.
#[test]
fn admits_trace_reduction_differential() {
    use concur_exec::{EventKindPattern, EventPattern};
    let src = figures::dining(3);
    let interp = interp(&src);
    let eats =
        |k: usize| vec![EventPattern::any(EventKindPattern::Returned { func: "phil".into() }); k];
    for trace in [eats(1), eats(2), eats(4)] {
        let truth = Explorer::new(&interp)
            .with_reduction(Reduction { por: true, symmetry: false, sleep: false })
            .admits_trace(&trace)
            .expect("baseline admits_trace");
        for reduction in [Reduction::FULL, Reduction::NONE] {
            let got = Explorer::new(&interp)
                .with_reduction(reduction)
                .admits_trace(&trace)
                .expect("reduced admits_trace");
            assert_eq!(
                shape(&got),
                shape(&truth),
                "admits_trace diverged under {reduction:?} (trace length {})",
                trace.len()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Golden quotient curves.
// ---------------------------------------------------------------------

/// Pinned reachable-state counts for `dining(n)` under the full
/// reduction stack, serial. These are golden values: the serial
/// explorer is deterministic, so any change here means the reduction
/// layer's behavior changed and must be reviewed (a canonicalizer bug
/// typically *raises* the count; an unsoundness typically lowers it
/// and trips the differentials above).
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
    [(2, 40), (3, 170), (4, 607), (5, 1_791), (6, 4_839)];
