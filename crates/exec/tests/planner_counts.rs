//! Exact counts of the expansion planner.
//!
//! The graph builder's planner (ample sets, sleep sets, corridors,
//! symmetry) shows what it decides as exact, deterministic counters.
//! These pins hold the counters for the three programs the benchmark's
//! `scale` workload asks, under the full reduction stack, so a change
//! to how the planner computes or compares footprints must leave every
//! decision where it was. Both front ends ask the one builder, so a
//! cached session build and an [`Explorer`] query read the same pins.
//! The counts are printed, so a CI log carries each build's exact
//! counts.

use concur_exec::{figures, Explorer, Interp, QueryCache, Reduction, Session, Stats};
use std::sync::Arc;

/// The planner's counters, in the order the pins list them: visited,
/// deduped, transitions, ample states, pruned choices, sleep-pruned
/// choices, canonicalized states.
type Counts = [usize; 7];

fn counts(stats: &Stats) -> Counts {
    [
        stats.states_visited,
        stats.states_deduped,
        stats.transitions,
        stats.por_ample_states,
        stats.por_pruned_choices,
        stats.sleep_pruned,
        stats.states_canonicalized,
    ]
}

#[test]
fn planner_counts_are_pinned() {
    let pins: [(&str, String, Counts); 3] = [
        ("dining(8)", figures::dining(8), [21_159, 2_200, 26_387, 18_686, 78_496, 8_750, 13_805]),
        (
            "naive dining(3)",
            figures::dining_naive(3),
            [6_143, 2_195, 13_084, 3_305, 5_174, 2_674, 3_680],
        ),
        (
            "producers/consumers(3,3)",
            figures::producers_consumers(3, 3),
            [4_693, 4_577, 10_829, 1_692, 4_293, 2_258, 4_683],
        ),
    ];
    let mut moved = Vec::new();
    for (name, source, pin) in &pins {
        let interp = Interp::from_source(source).expect("compiles");
        let builder = Session::new(&interp)
            .with_threads(1)
            .with_reduction(Reduction::FULL)
            .with_cache(Arc::new(QueryCache::new()))
            .terminals()
            .expect("builds");
        let explorer =
            Explorer::new(&interp).with_reduction(Reduction::FULL).terminals().expect("runs");
        for (engine, set) in [("session", builder), ("explorer", explorer)] {
            let got = counts(&set.stats);
            println!(
                "{name} · {engine}: visited {}, deduped {}, transitions {}, ample {}, \
                 pruned {}, sleep-pruned {}, canonicalized {}",
                got[0], got[1], got[2], got[3], got[4], got[5], got[6]
            );
            if got != *pin {
                moved.push(format!("{name} · {engine}: {got:?}, pinned {pin:?}"));
            }
        }
    }
    assert!(moved.is_empty(), "planner counts moved: {moved:?}");
}
