//! Parametric scale: `dining(n)` under each reduction stack.
//!
//! The tentpole claim of the reduction layer is that symmetry
//! quotienting plus sleep sets turn the dining-philosophers family
//! from exponential-and-truncating into something that checks
//! exhaustively at n = 100 within the default state budget. This
//! bench regenerates that curve — states visited, transitions, wall
//! time, truncation — for every (n, stack) pair and emits it as
//! machine-readable JSON to `target/BENCH_explore.json` (override
//! with `BENCH_EXPLORE_JSON`).
//!
//! It is also the CI regression gate: the n = 10 full-stack quotient
//! must stay exhaustive *and* under a pinned state-count ceiling, so
//! any change that degrades the canonicalizer or the sleep layer
//! (turning reduced exploration back toward the concrete space)
//! fails the bench rather than silently burning CI minutes.
//!
//! Pass `--quick` (or the smoke harness's `--test`) to skip the slow
//! n = 50 and n = 100 points; the JSON is emitted in every mode.

use concur_exec::explore::{Explorer, Limits};
use concur_exec::{figures, Interp, Reduction};
use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Instant;

/// The full stack must keep `dining(10)` exhaustive within this many
/// canonical states under the *default* limits. Measured: 93,458 —
/// the pin leaves ~10% headroom; regressions trip the assert below.
const DINING_10_FULL_CEILING: usize = 103_000;

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "--test")
}

fn json_path() -> std::path::PathBuf {
    std::env::var_os("BENCH_EXPLORE_JSON").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_explore.json")
    })
}

struct Point {
    n: usize,
    stack: &'static str,
    states: usize,
    transitions: usize,
    truncated: bool,
    wall_s: f64,
}

impl Point {
    fn json(&self) -> String {
        format!(
            "  {{\"n\": {}, \"stack\": \"{}\", \"states\": {}, \"transitions\": {}, \
             \"truncated\": {}, \"wall_s\": {:.6}}}",
            self.n, self.stack, self.states, self.transitions, self.truncated, self.wall_s
        )
    }
}

/// One exploration of `dining(n)` under `reduction`, truncation
/// allowed (a truncated row *is* the datum for the unreduced stacks).
fn measure(n: usize, stack: &'static str, reduction: Reduction) -> Point {
    let src = figures::dining(n);
    let interp = Interp::from_source(&src).expect("dining compiles");
    let begin = Instant::now();
    let t = Explorer::with_limits(&interp, Limits::default())
        .with_reduction(reduction)
        .terminals()
        .expect("explores");
    Point {
        n,
        stack,
        states: t.stats.states_visited,
        transitions: t.stats.transitions,
        truncated: t.stats.truncated,
        wall_s: begin.elapsed().as_secs_f64(),
    }
}

fn bench_explore_scale(c: &mut Criterion) {
    let por = Reduction { por: true, symmetry: false, sleep: false };
    let sym = Reduction { por: true, symmetry: true, sleep: false };
    let stacks: [(&'static str, Reduction); 3] =
        [("por", por), ("por+sym", sym), ("por+sym+sleep", Reduction::FULL)];

    let sizes: &[usize] = if quick_mode() { &[3, 5, 10] } else { &[3, 5, 10, 50, 100] };
    let mut points = Vec::new();
    for &n in sizes {
        for &(stack, reduction) in &stacks {
            // The unreduced stacks hit the state budget fast above
            // n = 10; skip them there rather than burn minutes on a
            // guaranteed truncation (the n = 10 rows already show it).
            if n > 10 && stack != "por+sym+sleep" {
                continue;
            }
            // Quick mode keeps only what the gate needs at n = 10:
            // the por truncation and the full-stack exhaustive check.
            // por+sym's n = 10 truncation crawls for ~4 minutes and is
            // recorded by the non-quick run instead.
            if quick_mode() && n == 10 && stack == "por+sym" {
                continue;
            }
            let p = measure(n, stack, reduction);
            println!(
                "explore_scale: dining({n}) {stack}: {} states, truncated {}",
                p.states, p.truncated
            );
            points.push(p);
        }
    }

    // CI gate: the pinned n = 10 full-stack ceiling.
    let gate = points
        .iter()
        .find(|p| p.n == 10 && p.stack == "por+sym+sleep")
        .expect("n = 10 full-stack point present in every mode");
    assert!(
        !gate.truncated,
        "dining(10) truncated under the full reduction stack — the quotient regressed past \
         the default state budget"
    );
    assert!(
        gate.states <= DINING_10_FULL_CEILING,
        "dining(10) full-stack quotient grew to {} states (ceiling {}) — reduction regression",
        gate.states,
        DINING_10_FULL_CEILING
    );
    // And the headline differential: plain POR must *not* fit where
    // the full stack does, or the bench is no longer measuring the
    // reductions at all.
    let por10 = points.iter().find(|p| p.n == 10 && p.stack == "por").expect("por point");
    assert!(
        por10.truncated || por10.states > gate.states * 10,
        "plain POR handled dining(10) in {} states — the scale gate is not discriminating",
        por10.states
    );

    let path = json_path();
    let body =
        format!("[\n{}\n]\n", points.iter().map(Point::json).collect::<Vec<_>>().join(",\n"));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &body).expect("write BENCH_explore.json");
    println!("explore_scale/json: wrote {}", path.display());
    print!("{body}");

    // Criterion timing on a size that completes in fractions of a
    // second (n = 10 is the one-shot gate above; timing it at
    // Criterion's sample counts would burn minutes per sample).
    let src = figures::dining(5);
    let interp = Interp::from_source(&src).expect("compiles");
    let mut group = c.benchmark_group("explore_scale");
    group.sample_size(10);
    group.bench_function("dining_5_full_stack", |b| {
        b.iter(|| {
            let t = Explorer::new(&interp)
                .with_reduction(Reduction::FULL)
                .terminals()
                .expect("explores");
            assert!(!t.stats.truncated);
        });
    });
    group.finish();
}

criterion_group!(benches, bench_explore_scale);
criterion_main!(benches);
