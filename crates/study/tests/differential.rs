//! Differential soundness harness for the reduced explorer.
//!
//! Partial-order reduction and corridor compression claim to preserve
//! the terminal set — every possible normalized output *and* the
//! deadlock/quiescence classification of each. This suite checks that
//! claim the blunt way: run the same program through the reduced
//! explorer and the brute-force [`Oracle`] (unreduced, uncompressed,
//! no interner) under matched [`Limits`] and require identical
//! terminal sets.
//!
//! The corpus is every paper figure (1–5), both bridge programs
//! (Figures 6–7) and the lab/homework programs — shared-memory and
//! message-passing, with and without deadlocks. The message-passing
//! bridge is the one program whose naive space is intractable
//! (millions of states); there the check weakens to containment:
//! every terminal a seeded random schedule reaches must appear in the
//! reduced explorer's *complete* set.

use concur_exec::explore::{Explorer, Limits, Terminal, TerminalKind};
use concur_exec::oracle::Oracle;
use concur_exec::{figures, Interp, Outcome, RandomScheduler};
use concur_study::bridge::{BRIDGE_MESSAGE_PASSING, BRIDGE_SHARED_MEMORY};
use concur_study::labs;

/// Bounds comfortably above every tractable corpus member's full
/// space (largest: hw3 bounded buffer, 5,075 naive states).
const MATCHED: Limits = Limits { max_states: 200_000, max_depth: 20_000, max_setup_states: 4096 };

fn assert_same_terminals(name: &str, src: &str) {
    let interp =
        Interp::from_source(src).unwrap_or_else(|e| panic!("{name}: failed to compile: {e}"));
    let reduced = Explorer::with_limits(&interp, MATCHED).terminals().unwrap();
    let naive = Oracle::with_limits(&interp, MATCHED).terminals().unwrap();
    assert!(!naive.stats.truncated, "{name}: naive search truncated — corpus bug");
    assert!(!reduced.stats.truncated, "{name}: reduced search truncated");
    assert_eq!(
        reduced.terminals, naive.terminals,
        "{name}: reduced and naive terminal sets differ"
    );
    assert!(
        reduced.stats.states_visited <= naive.stats.states_visited,
        "{name}: reduction visited more states ({} > {}) than the naive search",
        reduced.stats.states_visited,
        naive.stats.states_visited,
    );
}

#[test]
fn figures_1_to_5_terminals_match_naive() {
    for (name, src) in [
        ("fig1_assignments", figures::FIG1_ASSIGNMENTS),
        ("fig2_conditional", figures::FIG2_CONDITIONAL),
        ("fig3_two_prints", figures::FIG3_TWO_PRINTS),
        ("fig3_sequential_fn", figures::FIG3_SEQUENTIAL_FN),
        ("fig3_interleaved", figures::FIG3_INTERLEAVED),
        ("fig4_exc_acc", figures::FIG4_EXC_ACC),
        ("fig4_wait_notify", figures::FIG4_WAIT_NOTIFY),
        ("fig4_race_control", figures::FIG4_RACE_CONTROL),
        ("fig5_message_passing", figures::FIG5_MESSAGE_PASSING),
    ] {
        assert_same_terminals(name, src);
    }
}

#[test]
fn shared_memory_bridge_terminals_match_naive() {
    assert_same_terminals("bridge_shared_memory", BRIDGE_SHARED_MEMORY);
}

#[test]
fn lab_programs_terminals_match_naive() {
    for (name, src) in [
        ("hw2_bounded_buffer_sm", labs::HW2_BOUNDED_BUFFER_SM),
        ("hw2_philosophers_naive", labs::HW2_PHILOSOPHERS_NAIVE),
        ("hw2_philosophers_ordered", labs::HW2_PHILOSOPHERS_ORDERED),
        ("hw3_bounded_buffer_mp", labs::HW3_BOUNDED_BUFFER_MP),
        ("quiz_readers_writers", labs::QUIZ_READERS_WRITERS),
    ] {
        assert_same_terminals(name, src);
    }
}

/// The philosophers corpus member exists to keep a deadlocking
/// program in the differential net: the explorer and the oracle must
/// agree not just on outputs but on the existence of the deadlock.
#[test]
fn differential_corpus_includes_a_deadlock() {
    let interp = Interp::from_source(labs::HW2_PHILOSOPHERS_NAIVE).unwrap();
    let reduced = Explorer::with_limits(&interp, MATCHED).terminals().unwrap();
    let naive = Oracle::with_limits(&interp, MATCHED).terminals().unwrap();
    assert!(naive.has_deadlock(), "corpus lost its deadlocking member");
    assert!(reduced.has_deadlock(), "reduction hid the deadlock");
}

/// The message-passing bridge: the naive space is out of reach
/// (millions of states), so the naive side is a sample: the terminal
/// each of a few hundred seeded random schedules ends in must be in
/// the reduced explorer's complete set.
#[test]
fn message_passing_bridge_naive_sample_is_contained() {
    let interp = Interp::from_source(BRIDGE_MESSAGE_PASSING).unwrap();
    let reduced = Explorer::with_limits(&interp, MATCHED).terminals().unwrap();
    assert!(
        !reduced.stats.truncated,
        "reduced exploration of the message-passing bridge should be complete"
    );
    for seed in 0..200 {
        let run = concur_exec::run(&interp, &mut RandomScheduler::new(seed), 100_000).unwrap();
        let outcome = match run.outcome {
            Outcome::AllDone => TerminalKind::AllDone,
            Outcome::Quiescent => TerminalKind::Quiescent,
            Outcome::Deadlock => TerminalKind::Deadlock,
            Outcome::StepLimit => panic!("seed {seed}: the bridge runs to a terminal"),
        };
        let t = Terminal { output: run.state.output.normalized(), outcome };
        assert!(
            reduced.terminals.contains(&t),
            "seed {seed}: sampled terminal missing from reduced set: {t:?}"
        );
    }
}
