//! Allocation guard for warm graph queries.
//!
//! A warm Test-1 question is a traversal of a stored state graph. It
//! must read the interned states in place: rebuilding a `State` per
//! traversed edge (globals, heap, every task's frames and counters)
//! costs thousands to millions of heap allocations per question on the
//! 69,676-node message-passing graph. Heap allocations are a
//! deterministic count, so this guard pins "no `State` per edge" where
//! a wall clock cannot. This file holds a single test: the counting
//! allocator is process-wide.

use concur_exec::explore::Limits;
use concur_exec::{EventPattern, QueryCache, Reduction, Session, StateCond};
use concur_study::questions::{bank, interp_for, Section};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation made through it.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counter has no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most heap allocations one warm question may make, session set-up
/// included. Reading the store in place costs a few hundred (the BFS's
/// queue and hash sets, the witness); one `State` per traversed edge
/// costs tens of thousands to millions.
const BUDGET_PER_QUESTION: u64 = 2_000;

/// The reduction stack spelled out, as the benchmark asks it.
const REDUCTION: Reduction = Reduction { por: true, symmetry: true, sleep: false };

/// Each section's declared alphabet: every scenario pattern and setup
/// condition its questions use, so the whole section shares one graph.
fn alphabet(section: Section) -> (Vec<EventPattern>, Vec<StateCond>) {
    let mut patterns = Vec::new();
    let mut conds = Vec::new();
    for q in bank().into_iter().filter(|q| q.section == section) {
        patterns.extend(q.scenario);
        conds.extend(q.setup);
    }
    (patterns, conds)
}

#[test]
fn warm_bank_questions_read_the_graph_in_place() {
    let questions = bank();
    let alphabets = [alphabet(Section::SharedMemory), alphabet(Section::MessagePassing)];
    let cache = Arc::new(QueryCache::new());
    let ask = |qi: usize| {
        let q = &questions[qi];
        let (patterns, conds) = &alphabets[usize::from(q.section == Section::MessagePassing)];
        let answer = Session::with_limits(interp_for(q.section), Limits::default())
            .with_threads(1)
            .with_reduction(REDUCTION)
            .with_cache(Arc::clone(&cache))
            .observing(patterns, conds)
            .can_happen(&q.setup, &q.scenario)
            .expect("answers");
        assert_eq!(answer.is_yes(), q.expected, "{}: wrong verdict", q.id);
    };

    // The cold pass builds the two bridge graphs.
    (0..questions.len()).for_each(ask);
    let cold = cache.stats();
    assert_eq!(cold.builds, 2, "one graph per section");

    let counts: Vec<(&str, u64)> = (0..questions.len())
        .map(|qi| {
            let before = ALLOCATIONS.load(Ordering::Relaxed);
            ask(qi);
            (questions[qi].id, ALLOCATIONS.load(Ordering::Relaxed) - before)
        })
        .collect();
    for (id, n) in &counts {
        println!("{id}: {n} allocations");
    }
    let warm = cache.stats();
    assert_eq!(warm.builds, cold.builds, "the warm pass builds nothing");
    assert_eq!(warm.hits, cold.hits + questions.len(), "the warm pass is all hits");
    let over: Vec<_> = counts.iter().filter(|&&(_, n)| n > BUDGET_PER_QUESTION).collect();
    assert!(
        over.is_empty(),
        "warm questions over {BUDGET_PER_QUESTION} allocations: {over:?} (all: {counts:?})"
    );
}
