//! Allocation guard for cold graph builds.
//!
//! States are copy-on-write: a transition copies only the task, the
//! heap objects and the components it writes, materializing a stored
//! state hands out the interner's shared payloads, and a successor
//! clone is a vector of handles. The expansion planner's footprints
//! borrow their names from the state and the program and are computed
//! once per choice of a planned state. Allocations and bytes allocated
//! per stored state are pinned here, per graph, at most 5% above what
//! that layout makes, so a change that brings back a deep copy or a
//! per-comparison allocation fails here. Both are deterministic counts
//! at one worker, where a wall clock is not. This file holds a single
//! test: the counting allocator is process-wide.

use concur_exec::explore::Limits;
use concur_exec::{figures, EventPattern, Interp, QueryCache, Reduction, Session, StateCond};
use concur_study::questions::{bank, interp_for, Section};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts every allocation and reallocation made through it, and the
/// bytes each one asks for.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator;
// the counters have no effect on the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The bank's reduction stack, as the benchmark asks it.
const BANK_REDUCTION: Reduction = Reduction { por: true, symmetry: true, sleep: false };

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

/// One guarded build: its stored-state count and the most it may
/// allocate per stored state.
struct Guard {
    name: &'static str,
    states: usize,
    max_allocs_per_state: f64,
    max_bytes_per_state: f64,
}

/// Build one graph at one worker from a fresh cache and return its
/// stored-state count, allocations and bytes allocated.
fn count_build(
    interp: &Interp,
    reduction: Reduction,
    (patterns, conds): &(Vec<EventPattern>, Vec<StateCond>),
) -> (usize, u64, u64) {
    let cache = Arc::new(QueryCache::new());
    let (allocs, bytes) = (ALLOCATIONS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed));
    let graph = Session::with_limits(interp, Limits::default())
        .with_threads(1)
        .with_reduction(reduction)
        .with_cache(cache)
        .observing(patterns, conds)
        .terminal_graph()
        .expect("builds");
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs;
    let bytes = BYTES.load(Ordering::Relaxed) - bytes;
    (graph.stats().states_visited, allocs, bytes)
}

#[test]
fn cold_builds_allocate_for_what_each_transition_writes() {
    // Compile every program (and render the alphabets) before counting.
    let shared = interp_for(Section::SharedMemory);
    let message = interp_for(Section::MessagePassing);
    let dining = Interp::from_source(&figures::dining(8)).expect("compiles");
    let builds = [
        (
            Guard {
                name: "shared-memory bridge",
                states: 2_576,
                max_allocs_per_state: 54.0,
                max_bytes_per_state: 8_500.0,
            },
            shared,
            BANK_REDUCTION,
            alphabet(Section::SharedMemory),
        ),
        (
            Guard {
                name: "message-passing bridge",
                states: 69_676,
                max_allocs_per_state: 108.0,
                max_bytes_per_state: 17_000.0,
            },
            message,
            BANK_REDUCTION,
            alphabet(Section::MessagePassing),
        ),
        (
            Guard {
                name: "dining(8)",
                states: 21_159,
                max_allocs_per_state: 61.0,
                max_bytes_per_state: 10_300.0,
            },
            &dining,
            Reduction::FULL,
            (Vec::new(), Vec::new()),
        ),
    ];

    let mut failures = Vec::new();
    for (guard, interp, reduction, alphabet) in &builds {
        let (states, allocs, bytes) = count_build(interp, *reduction, alphabet);
        assert_eq!(states, guard.states, "{}: stored states", guard.name);
        let allocs_per_state = allocs as f64 / states as f64;
        let bytes_per_state = bytes as f64 / states as f64;
        println!(
            "{}: {states} stored states, {allocs} allocations ({allocs_per_state:.1} per state), \
             {bytes} bytes ({:.1} KiB per state)",
            guard.name,
            bytes_per_state / 1024.0,
        );
        if allocs_per_state > guard.max_allocs_per_state {
            failures.push(format!(
                "{}: {allocs_per_state:.1} allocations per state, over {}",
                guard.name, guard.max_allocs_per_state
            ));
        }
        if bytes_per_state > guard.max_bytes_per_state {
            failures.push(format!(
                "{}: {bytes_per_state:.0} bytes per state, over {}",
                guard.name, guard.max_bytes_per_state
            ));
        }
    }
    assert!(failures.is_empty(), "{failures:?}");
}
