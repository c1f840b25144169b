//! Model-checker throughput: exhaustive enumeration of the figure
//! programs and the Test-1 bridges, plus one full question
//! verification. These regenerate the Figures 3–5 possibility lists
//! and a Figure-6 answer, timed — and before timing, a one-shot
//! report of what partial-order reduction plus corridor compression
//! buy over the naive search on the same programs, asserting the
//! claimed floor (at least 2x fewer states visited on the Figure 3
//! three-way interleaving and on the bridge programs).

use concur_exec::explore::{Explorer, Limits, Stats};
use concur_exec::figures::{FIG3_INTERLEAVED, FIG5_MESSAGE_PASSING};
use concur_exec::Interp;
use concur_study::bridge::{BRIDGE_MESSAGE_PASSING, BRIDGE_SHARED_MEMORY};
use concur_study::questions::{bank, model_check, Section};
use criterion::{criterion_group, criterion_main, Criterion};

fn fmt_stats(stats: &Stats) -> String {
    format!(
        "{} states, {} transitions, {} ample / {} pruned, {:?}{}",
        stats.states_visited,
        stats.transitions,
        stats.por_ample_states,
        stats.por_pruned_choices,
        stats.wall,
        if stats.truncated { " (TRUNCATED)" } else { "" },
    )
}

/// Explore the acceptance programs once with and once without POR and
/// print the reduction. Asserts the documented floors so a regression in
/// the reduction machinery fails the bench run loudly.
fn report_por_reduction() {
    let limits = Limits { max_states: 2_000_000, max_depth: 50_000, max_setup_states: 4096 };
    for (name, src) in [("fig3_interleaved", FIG3_INTERLEAVED), ("sm_bridge", BRIDGE_SHARED_MEMORY)]
    {
        let interp = Interp::from_source(src).unwrap();
        let naive = Explorer::with_limits(&interp, limits).without_por().terminals().unwrap();
        let por = Explorer::with_limits(&interp, limits).terminals().unwrap();
        assert_eq!(por.terminals, naive.terminals, "{name}: reduction changed the terminal set");
        assert!(
            naive.stats.states_visited >= 2 * por.stats.states_visited,
            "{name}: expected >= 2x state reduction, got {} vs {}",
            naive.stats.states_visited,
            por.stats.states_visited,
        );
        println!("por-reduction/{name}/naive: {}", fmt_stats(&naive.stats));
        println!("por-reduction/{name}/por:   {}", fmt_stats(&por.stats));
    }
    // The message-passing bridge: the naive space does not fit any
    // practical bound, so cap it and compare against the *complete*
    // reduced exploration.
    let interp = Interp::from_source(BRIDGE_MESSAGE_PASSING).unwrap();
    let cap = Limits { max_states: 150_000, max_depth: 50_000, max_setup_states: 4096 };
    let naive = Explorer::with_limits(&interp, cap).without_por().terminals().unwrap();
    let por = Explorer::with_limits(&interp, limits).terminals().unwrap();
    assert!(naive.stats.truncated, "naive mp-bridge search unexpectedly finished");
    assert!(!por.stats.truncated, "reduced mp-bridge search should be complete");
    assert!(
        naive.stats.states_visited >= 2 * por.stats.states_visited,
        "mp_bridge: naive hit its {}-state cap before 2x the reduced total ({})",
        naive.stats.states_visited,
        por.stats.states_visited,
    );
    println!("por-reduction/mp_bridge/naive: {} (capped)", fmt_stats(&naive.stats));
    println!("por-reduction/mp_bridge/por:   {} (complete)", fmt_stats(&por.stats));
}

fn bench_explorer(c: &mut Criterion) {
    report_por_reduction();

    let mut group = c.benchmark_group("explorer");
    group.sample_size(10);

    let fig3 = Interp::from_source(FIG3_INTERLEAVED).unwrap();
    group.bench_function("fig3_terminals", |b| {
        b.iter(|| {
            let set = Explorer::new(&fig3).terminals().unwrap();
            assert_eq!(set.outputs().len(), 3);
        });
    });
    group.bench_function("fig3_terminals_naive", |b| {
        b.iter(|| {
            let set = Explorer::new(&fig3).without_por().terminals().unwrap();
            assert_eq!(set.outputs().len(), 3);
        });
    });

    let fig5 = Interp::from_source(FIG5_MESSAGE_PASSING).unwrap();
    group.bench_function("fig5_terminals", |b| {
        b.iter(|| {
            let set = Explorer::new(&fig5).terminals().unwrap();
            assert_eq!(set.outputs().len(), 2);
        });
    });

    let bridge = Interp::from_source(BRIDGE_SHARED_MEMORY).unwrap();
    group.bench_function("sm_bridge_full_space", |b| {
        b.iter(|| {
            let set = Explorer::new(&bridge).terminals().unwrap();
            assert!(!set.has_deadlock());
        });
    });
    group.bench_function("sm_bridge_full_space_naive", |b| {
        b.iter(|| {
            let set = Explorer::new(&bridge).without_por().terminals().unwrap();
            assert!(!set.has_deadlock());
        });
    });

    // The message-passing bridge's full space, tractable only with
    // the reduction on (the naive search is measured — capped — in
    // the report above).
    let mp_bridge = Interp::from_source(BRIDGE_MESSAGE_PASSING).unwrap();
    let mp_limits = Limits { max_states: 2_000_000, max_depth: 50_000, max_setup_states: 4096 };
    group.sample_size(2);
    group.bench_function("mp_bridge_full_space", |b| {
        b.iter(|| {
            let set = Explorer::with_limits(&mp_bridge, mp_limits).terminals().unwrap();
            assert!(!set.stats.truncated);
        });
    });
    group.sample_size(10);

    // One representative Test-1 question (Figure 6's sample, SM-m),
    // under the same default limits the study harness uses.
    let sm_m =
        bank().into_iter().find(|q| q.id == "SM-m" && q.section == Section::SharedMemory).unwrap();
    group.bench_function("figure6_question_m", |b| {
        b.iter(|| {
            let answer = model_check(&sm_m, Limits::default());
            assert!(matches!(answer, concur_exec::Answer::Yes { .. }));
        });
    });

    group.finish();
}

criterion_group!(benches, bench_explorer);
criterion_main!(benches);
