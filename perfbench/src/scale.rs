//! `scale`: exhaustive terminal enumeration of larger programs, every
//! request a cold build.
//!
//! `figures::dining(8)` (PARA SYMMETRIC), `dining_naive(3)` (WAIT /
//! NOTIFY, deadlocks) and `producers_consumers(3, 3)` are each asked
//! for their terminals under the full reduction stack, through both
//! `Session::terminals` (the graph builder, with a fresh cache per
//! request) and `Explorer::terminals` (the serial explorer behind
//! `pseudorun explore`). The answer of every request is a store read,
//! so per-state cost (step, ample and sleep planning, canonicalize,
//! intern, merge) is nearly all of it. This is the only workload with
//! symmetry and sleep sets switched on.

use crate::layers;
use crate::metrics::{record_cold, BuildTotals, Ledger, Steady};
use crate::trace::Layer;
use crate::util::{median, ms, order_digest, repeat_passes, timed_setup, Rng};
use crate::{Ctx, RunResult, SETUP_REPS, SETUP_WINDOW};
use concur_exec::{figures, Explorer, Interp, QueryCache, Reduction, Session, TerminalSet};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

const NAMES: [&str; 3] = ["dining_8", "dining_naive_3", "producers_consumers_3_3"];
/// Pass orders generated up front (reused cyclically).
const ORDERS: usize = 64;

struct Prep {
    sources: Vec<String>,
    interps: Vec<Interp>,
    /// Request `r` asks program `r / 2` through the session (even `r`)
    /// or the explorer (odd `r`).
    orders: Vec<Vec<usize>>,
}

fn prep(seed: u64) -> Result<Prep, String> {
    let sources =
        vec![figures::dining(8), figures::dining_naive(3), figures::producers_consumers(3, 3)];
    let interps = sources.iter().map(|s| Interp::from_source(s)).collect::<Result<Vec<_>, _>>()?;
    let orders = (0..ORDERS).map(|k| Rng::derived(seed, k as u64).order(2 * NAMES.len())).collect();
    Ok(Prep { sources, interps, orders })
}

/// The known answer of each program.
fn known(program: usize, set: &TerminalSet) -> bool {
    let outputs = set.outputs();
    !set.stats.truncated
        && match program {
            // Ordered dining always finishes, printing the eaten count.
            0 => outputs == ["8"] && !set.has_deadlock(),
            // Naive dining reaches its deadlock terminal.
            1 => set.has_deadlock(),
            _ => outputs == ["3"] && !set.has_deadlock(),
        }
}

pub fn run(ctx: &Ctx) -> RunResult {
    let (setup_s, prep) = timed_setup(SETUP_REPS, SETUP_WINDOW, || prep(ctx.seed));
    let mut ledger = Ledger::default();
    ledger.set("setup_s", setup_s);
    let prep = match prep {
        Ok(prep) => prep,
        Err(e) => {
            ctx.outcomes.check(false, || format!("scale set-up: {e}"));
            return RunResult::new(ledger);
        }
    };
    if ctx.traced {
        let sources: Vec<&str> = prep.sources.iter().map(String::as_str).collect();
        layers::pipeline(ctx, &sources, SETUP_REPS, &mut ledger);
        let interps: Vec<&Interp> = prep.interps.iter().collect();
        layers::walks(ctx, &interps, 8, 300, &mut ledger);
    }

    let mut steady = Steady::default();
    let mut build_ms = Vec::new();
    // Counts of the first pass (every pass does the same work).
    let (mut built, mut explored) = (BuildTotals::default(), BuildTotals::default());
    let mut states = [0usize; 3];
    // (hits, misses, builds) of the first pass's sessions.
    let mut session_counts = (0usize, 0usize, 0usize);
    // Terminal sets of the first answer per program: both paths and
    // every later pass must agree with them.
    let mut answers: Vec<Option<BTreeSet<concur_exec::Terminal>>> = vec![None; NAMES.len()];
    let walls = repeat_passes(2, ctx.deadline(), |k| {
        let traced = ctx.traced && k.is_multiple_of(2);
        ctx.tracer.set(traced);
        let (mut pass_build_ms, mut latency) = (0.0, Vec::new());
        let begin = Instant::now();
        ctx.tracer.span(Layer::Workload, "pass", 0, || {
            for (n, &r) in prep.orders[k % ORDERS].iter().enumerate() {
                let (program, via_session) = (r / 2, r.is_multiple_of(2));
                let interp = &prep.interps[program];
                let request = (k * 2 * NAMES.len() + n) as u64;
                let begin = Instant::now();
                let result = if via_session {
                    let cache = Arc::new(QueryCache::new());
                    let session = Session::new(interp)
                        .with_threads(1)
                        .with_reduction(Reduction::FULL)
                        .with_cache(Arc::clone(&cache));
                    let result = ctx
                        .tracer
                        .span(Layer::Session, "terminals", request, || session.terminals());
                    if let Ok(set) = &result {
                        ctx.tracer.split_last(
                            Layer::GraphBuild,
                            set.stats.build_wall,
                            Layer::GraphQuery,
                            set.stats.query_wall,
                        );
                        let c = cache.stats();
                        ctx.outcomes.check(c.builds == 1 && c.misses == 1, || {
                            format!("scale {}: {} builds for one request", NAMES[program], c.builds)
                        });
                        if k == 0 {
                            session_counts.0 += c.hits;
                            session_counts.1 += c.misses;
                            session_counts.2 += c.builds;
                        }
                    }
                    result
                } else {
                    let explorer =
                        Explorer::new(interp).with_threads(1).with_reduction(Reduction::FULL);
                    ctx.tracer.span(Layer::Explore, "terminals", request, || explorer.terminals())
                };
                let wall = begin.elapsed();
                let set = match result {
                    Ok(set) => set,
                    Err(e) => {
                        ctx.outcomes.check(false, || format!("scale {}: {e}", NAMES[program]));
                        continue;
                    }
                };
                let first = answers[program].get_or_insert_with(|| set.terminals.clone());
                let ok = known(program, &set) && *first == set.terminals;
                if !ctx.outcomes.check(ok, || {
                    format!(
                        "scale {} via {}: wrong terminal set",
                        NAMES[program],
                        if via_session { "session" } else { "explorer" }
                    )
                }) {
                    continue;
                }
                latency.push(ms(wall));
                if via_session {
                    pass_build_ms += ms(set.stats.build_wall);
                }
                if k == 0 {
                    explored.add(&set.stats);
                    if via_session {
                        built.add(&set.stats);
                        states[program] = set.stats.states_visited;
                    }
                }
            }
        });
        let wall = begin.elapsed();
        steady.round(wall, &latency, traced);
        build_ms.push(pass_build_ms);
        wall
    });
    ctx.tracer.set(ctx.traced);

    // Every pass is cold, and every pass is the steady phase.
    record_cold(&walls, &mut ledger);
    steady.record(&mut ledger);
    built.record(&explored, median(&build_ms), &mut ledger);
    ledger.set("session.hits", session_counts.0 as f64);
    ledger.set("session.misses", session_counts.1 as f64);
    ledger.set("session.builds", session_counts.2 as f64);
    RunResult {
        ledger,
        programs: NAMES.iter().zip(states).map(|(n, s)| (n.to_string(), s)).collect(),
        order_digest: order_digest(&prep.orders[0]),
    }
}
