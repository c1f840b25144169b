//! `bank`: the paper's Test-1 questions, answered mechanically.
//!
//! The 16 questions of `concur_study::questions::bank()` are asked over
//! the two bridge programs through `Session` with default limits, a
//! private `QueryCache` and each section's declared alphabet
//! (`observing`), so the bank needs exactly two graph builds. One cold
//! pass pays them (the 69,676-node message-passing graph dominates);
//! every warm pass, in seeded order, is then 16 store reads, nearly all of it
//! `graph::can_happen` over that graph. Query-side work dominates here
//! and nowhere else.

use crate::layers;
use crate::metrics::{record_cold, BuildTotals, Ledger, Steady};
use crate::trace::Layer;
use crate::util::{median, ms, order_digest, repeat_passes, timed_setup, us, Rng};
use crate::{Ctx, RunResult, SETUP_REPS, SETUP_WINDOW};
use concur_exec::{
    Answer, EventPattern, Interp, Limits, QueryCache, Reduction, Session, StateCond, Stats,
};
use concur_study::bridge::{BRIDGE_MESSAGE_PASSING, BRIDGE_SHARED_MEMORY};
use concur_study::questions::{bank, Question, Section};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The default stack, spelled out so no environment knob can change it
/// (the bridge has no symmetric blocks, so symmetry is a no-op).
const REDUCTION: Reduction = Reduction { por: true, symmetry: true, sleep: false };
const SOURCES: [&str; 2] = [BRIDGE_SHARED_MEMORY, BRIDGE_MESSAGE_PASSING];
const NAMES: [&str; 2] = ["bridge_shared_memory", "bridge_message_passing"];
/// Warm-pass orders generated up front (reused cyclically).
const ORDERS: usize = 64;

struct Prep {
    interps: Vec<Interp>,
    questions: Vec<Question>,
    alphabets: Vec<(Vec<EventPattern>, Vec<StateCond>)>,
    /// Seeded warm-pass orders.
    orders: Vec<Vec<usize>>,
}

fn section(s: Section) -> usize {
    match s {
        Section::SharedMemory => 0,
        Section::MessagePassing => 1,
    }
}

fn prep(seed: u64) -> Result<Prep, String> {
    let interps =
        SOURCES.iter().map(|src| Interp::from_source(src)).collect::<Result<Vec<_>, _>>()?;
    let questions = bank();
    let alphabets = (0..2)
        .map(|s| {
            let mut patterns = Vec::new();
            let mut conds = Vec::new();
            for q in questions.iter().filter(|q| section(q.section) == s) {
                patterns.extend(q.scenario.iter().cloned());
                conds.extend(q.setup.iter().cloned());
            }
            (patterns, conds)
        })
        .collect();
    let orders =
        (1..=ORDERS).map(|k| Rng::derived(seed, k as u64).order(questions.len())).collect();
    Ok(Prep { interps, questions, alphabets, orders })
}

/// Whether an answer is definitive, read as the repository's
/// ground-truth test reads it: a YES, or a NO or an unreachable setup
/// from a search no cap cut short. A bounded NO is a truncation, not an
/// answer.
fn exhaustive(answer: &Answer) -> bool {
    match answer {
        Answer::Yes { .. } => true,
        Answer::No { exhaustive } | Answer::SetupUnreachable { exhaustive } => *exhaustive,
    }
}

/// Ask one question; `None` (and a recorded failure) unless the answer
/// is the known one.
fn ask(
    ctx: &Ctx,
    prep: &Prep,
    cache: &Arc<QueryCache>,
    qi: usize,
    request: u64,
) -> Option<(Stats, Duration)> {
    let q = &prep.questions[qi];
    let s = section(q.section);
    let (patterns, conds) = &prep.alphabets[s];
    let session = Session::with_limits(&prep.interps[s], Limits::default())
        .with_threads(1)
        .with_reduction(REDUCTION)
        .with_cache(Arc::clone(cache))
        .observing(patterns, conds);
    let begin = Instant::now();
    let result = ctx.tracer.span(Layer::Session, "can_happen", request, || {
        session.can_happen_with_stats(&q.setup, &q.scenario)
    });
    let wall = begin.elapsed();
    match result {
        Ok((answer, stats)) => {
            let build = if stats.cache_misses > 0 { stats.build_wall } else { Duration::ZERO };
            ctx.tracer.split_last(Layer::GraphBuild, build, Layer::GraphQuery, stats.query_wall);
            let ok = answer.is_yes() == q.expected && exhaustive(&answer) && !stats.truncated;
            ctx.outcomes
                .check(ok, || {
                    format!("bank {}: answered {answer:?}, expected yes={}", q.id, q.expected)
                })
                .then_some((stats, wall))
        }
        Err(e) => {
            ctx.outcomes.check(false, || format!("bank {}: {e}", q.id));
            None
        }
    }
}

/// One cold pass on the empty `cache`: exactly two builds. It asks in
/// the bank's own order: which graph is built first decides the heap
/// layout, and that alone moved warm throughput by about 30%. The first
/// pass's build counts go to `built` and `states`.
fn cold_pass(
    ctx: &Ctx,
    prep: &Prep,
    cache: &Arc<QueryCache>,
    k: usize,
    built: &mut BuildTotals,
    states: &mut [usize; 2],
) -> Duration {
    let total = prep.questions.len();
    let begin = Instant::now();
    ctx.tracer.span(Layer::Workload, "cold_pass", 0, || {
        for qi in 0..total {
            let request = (k * total + qi) as u64;
            if let Some((stats, _)) = ask(ctx, prep, cache, qi, request) {
                if stats.cache_misses > 0 && k == 0 {
                    built.add(&stats);
                    states[section(prep.questions[qi].section)] = stats.states_visited;
                }
            }
        }
    });
    let wall = begin.elapsed();
    let c = cache.stats();
    ctx.outcomes.check(c.builds == 2 && c.misses == 2, || {
        format!("bank cold pass {k}: {} builds and {} misses, expected 2 and 2", c.builds, c.misses)
    });
    wall
}

/// The warm passes of a run.
#[derive(Default)]
struct Warm {
    steady: Steady,
    /// Query time per pass.
    query_pass: Vec<f64>,
    /// Query time per request.
    query_p: Vec<f64>,
    lookup: Vec<f64>,
    first_hits: usize,
}

impl Warm {
    /// Warm pass `k` on a filled `cache`: every question is a hit on one
    /// of the two graphs. A traced run traces every other pass.
    fn pass(&mut self, ctx: &Ctx, prep: &Prep, cache: &Arc<QueryCache>, k: usize) -> Duration {
        let traced = ctx.traced && k.is_multiple_of(2);
        ctx.tracer.set(traced);
        let total = prep.questions.len();
        let before = cache.stats();
        let (mut q_ms, mut latency) = (0.0, Vec::new());
        let begin = Instant::now();
        ctx.tracer.span(Layer::Workload, "warm_pass", 0, || {
            for (n, &qi) in prep.orders[k % ORDERS].iter().enumerate() {
                let request = ((1 << 32) + k * total + n) as u64;
                if let Some((stats, wall)) = ask(ctx, prep, cache, qi, request) {
                    latency.push(ms(wall));
                    q_ms += ms(stats.query_wall);
                    self.query_p.push(ms(stats.query_wall));
                    self.lookup.push(us(stats.wall.saturating_sub(stats.query_wall)));
                }
            }
        });
        let wall = begin.elapsed();
        ctx.tracer.set(ctx.traced);
        self.steady.round(wall, &latency, traced);
        let after = cache.stats();
        let hits = after.hits - before.hits;
        ctx.outcomes.check(
            hits == total && after.builds == before.builds && after.misses == before.misses,
            || format!("bank warm pass {k}: {hits} of {total} hits"),
        );
        if k == 0 {
            self.first_hits = hits;
        }
        self.query_pass.push(q_ms);
        wall
    }
}

pub fn run(ctx: &Ctx) -> RunResult {
    let (setup_s, prep) = timed_setup(SETUP_REPS, SETUP_WINDOW, || prep(ctx.seed));
    let mut ledger = Ledger::default();
    ledger.set("setup_s", setup_s);
    let prep = match prep {
        Ok(prep) => prep,
        Err(e) => {
            ctx.outcomes.check(false, || format!("bank set-up: {e}"));
            return RunResult::new(ledger);
        }
    };
    if ctx.traced {
        layers::pipeline(ctx, &SOURCES, SETUP_REPS, &mut ledger);
        let interps: Vec<&Interp> = prep.interps.iter().collect();
        layers::walks(ctx, &interps, 8, 300, &mut ledger);
    }

    // Cycles of one cold pass and one warm pass on its cache, then warm
    // passes on the last cache while they fit: the cold and the warm
    // samples are spread over the whole run, so both see the same mix
    // of the machine's fast and slow stretches.
    let mut cold = Vec::new();
    let mut cold_stats = None;
    let mut built = BuildTotals::default();
    let mut states = [0usize; 2];
    let mut warm = Warm::default();
    let mut cache = Arc::new(QueryCache::new());
    let (mut passes, mut warm_wall) = (0, Duration::ZERO);
    repeat_passes(1, ctx.deadline(), |k| {
        cache = Arc::new(QueryCache::new());
        let begin = Instant::now();
        cold.push(cold_pass(ctx, &prep, &cache, k, &mut built, &mut states));
        if k == 0 {
            cold_stats = Some(cache.stats());
        }
        warm_wall = warm.pass(ctx, &prep, &cache, passes);
        passes += 1;
        begin.elapsed()
    });
    // A traced run needs a traced and an untraced warm pass.
    let min_warm = if ctx.traced { 2 } else { 1 };
    while passes < min_warm || Instant::now() + warm_wall <= ctx.deadline() {
        warm_wall = warm.pass(ctx, &prep, &cache, passes);
        passes += 1;
    }

    let cold_stats = cold_stats.expect("at least one cold pass");
    record_cold(&cold, &mut ledger);
    let Warm { steady, query_pass, query_p, lookup, first_hits } = warm;
    steady.record(&mut ledger);
    built.record(&built, built.build_ms, &mut ledger);
    ledger.set("graph.query_ms", median(&query_pass));
    ledger.set("graph.query_p50_ms", median(&query_p));
    ledger.set("session.hits", first_hits as f64);
    ledger.set("session.misses", cold_stats.misses as f64);
    ledger.set("session.builds", cold_stats.builds as f64);
    ledger.set("session.lookup_us", median(&lookup));

    RunResult {
        ledger,
        programs: NAMES.iter().zip(states).map(|(n, s)| (n.to_string(), s)).collect(),
        order_digest: order_digest(&prep.orders[0]),
    }
}
