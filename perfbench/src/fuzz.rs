//! `fuzz`: the conformance campaign's schedule stream.
//!
//! Every conformance fixture runs under threads, actors, coroutines and
//! tasks through `Fixture::run`, on the decision kernel's seeded random
//! and preemption-bounded sources. Each outcome is checked against the
//! model's `Session::terminals` oracle and the problem's invariant
//! validator. The checker's layers do almost nothing here once the
//! oracles are built; the runtimes do the work (the coroutine carrier
//! threads alternate strictly, so one is runnable at a time).
//!
//! A pass first asks the ten oracles, in fixture order, then runs its
//! schedules in seeded order. A cold pass builds the oracles from an
//! empty cache; a warm pass reads them from the cache and runs the same
//! schedules in another seeded order. A run repeats cycles of one cold
//! pass and ten warm passes on its cache.

use crate::layers;
use crate::metrics::{record_cold, BuildTotals, Ledger, Steady};
use crate::trace::Layer;
use crate::util::{median, ms, order_digest, repeat_passes, timed_setup, us, Rng};
use crate::{Ctx, RunResult, SETUP_REPS, SETUP_WINDOW};
use concur_conformance::{BoundedSched, Discipline, Outcome, RandomSched, FIXTURES};
use concur_exec::{CacheStats, Interp, QueryCache, Reduction, Session, TerminalSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The default stack, spelled out so no environment knob can change it.
const REDUCTION: Reduction = Reduction { por: true, symmetry: true, sleep: false };
/// Schedules of each family per (fixture, discipline) pair and pass.
const PER_FAMILY: usize = 4;
/// Preemption budgets the bounded family draws from (0..=3, as the
/// conformance campaign's).
const MAX_PREEMPTIONS: usize = 3;
/// Warm passes after each cold pass: together about half as long as
/// the cold pass, which its ten oracle builds dominate.
const WARM_PER_COLD: usize = 10;
/// Pass orders generated up front (reused cyclically).
const ORDERS: usize = 64;
/// The schedules themselves come from this fixed seed (the conformance
/// campaign's default), so every run does the same work; `--seed` only
/// orders it.
const SCHEDULE_SEED: u64 = 0xC0FFEE;

#[derive(Clone, Copy)]
enum Source {
    Bounded { index: u64, preemptions: usize },
    Random { seed: u64 },
}

#[derive(Clone, Copy)]
struct Schedule {
    fixture: usize,
    discipline: Discipline,
    source: Source,
}

struct Prep {
    interps: Vec<Interp>,
    schedules: Vec<Schedule>,
    orders: Vec<Vec<usize>>,
}

fn prep(seed: u64) -> Result<Prep, String> {
    let interps =
        FIXTURES.iter().map(|f| Interp::from_source(f.model)).collect::<Result<Vec<_>, _>>()?;
    let mut rng = Rng::derived(SCHEDULE_SEED, 0xF022);
    let mut schedules = Vec::new();
    for fixture in 0..FIXTURES.len() {
        for discipline in Discipline::ALL {
            for _ in 0..PER_FAMILY {
                let index = rng.next() % 100;
                let preemptions = rng.below(MAX_PREEMPTIONS + 1);
                schedules.push(Schedule {
                    fixture,
                    discipline,
                    source: Source::Bounded { index, preemptions },
                });
                schedules.push(Schedule {
                    fixture,
                    discipline,
                    source: Source::Random { seed: rng.next() },
                });
            }
        }
    }
    let orders = (0..ORDERS).map(|k| Rng::derived(seed, k as u64).order(schedules.len())).collect();
    Ok(Prep { interps, schedules, orders })
}

fn discipline_index(d: Discipline) -> usize {
    Discipline::ALL.iter().position(|&x| x == d).expect("a known discipline")
}

/// The fuzz oracle's verdict on one outcome: `None` when it conforms.
fn check(out: &Outcome, model: &TerminalSet) -> Option<String> {
    if out.run.diverged {
        return Some("run diverged".into());
    }
    if let Some(v) = &out.violation {
        return Some(format!("invariant violation: {v}"));
    }
    if out.run.deadlocked {
        return (!model.has_deadlock()).then(|| "deadlock the model does not admit".into());
    }
    let obs = out.obs.as_deref().unwrap_or_default();
    (!model.contains_output(obs)).then(|| format!("observation {obs:?} is not a model terminal"))
}

/// What one pass measured.
#[derive(Default)]
struct Pass {
    latency_ms: Vec<f64>,
    /// Per discipline, schedule run times in µs.
    schedule_us: [Vec<f64>; 4],
    check_us: Vec<f64>,
    /// Oracle lookups answered from the cache, in µs (wall minus query).
    lookup_us: Vec<f64>,
    decisions: usize,
    steps: usize,
    built: BuildTotals,
    oracle_states: Vec<usize>,
}

fn pass(ctx: &Ctx, prep: &Prep, cache: &Arc<QueryCache>, k: usize) -> Pass {
    let mut out = Pass { oracle_states: vec![0; FIXTURES.len()], ..Pass::default() };
    let base = (k as u64) << 32;
    // The oracles, in fixture order (the build order decides the heap
    // layout, so a seeded one would make the seed a performance knob).
    let mut oracles: Vec<Option<TerminalSet>> = Vec::with_capacity(FIXTURES.len());
    for (f, fixture) in FIXTURES.iter().enumerate() {
        let session = Session::new(&prep.interps[f])
            .with_threads(1)
            .with_reduction(REDUCTION)
            .with_cache(Arc::clone(cache));
        let request = base + (1 << 24) + f as u64;
        let oracle = match ctx
            .tracer
            .span(Layer::Session, "terminals", request, || session.terminals())
        {
            Ok(model) => {
                let s = &model.stats;
                let build = if s.cache_misses > 0 { s.build_wall } else { Duration::ZERO };
                ctx.tracer.split_last(Layer::GraphBuild, build, Layer::GraphQuery, s.query_wall);
                let ok = !s.truncated && model.has_deadlock() == fixture.can_deadlock;
                ctx.outcomes
                    .check(ok, || format!("fuzz oracle {}: wrong terminal set", fixture.name));
                if s.cache_misses > 0 {
                    out.built.add(s);
                } else {
                    out.lookup_us.push(us(s.wall.saturating_sub(s.query_wall)));
                }
                out.oracle_states[f] = s.states_visited;
                ok.then_some(model)
            }
            Err(e) => {
                ctx.outcomes.check(false, || format!("fuzz oracle {}: {e}", fixture.name));
                None
            }
        };
        oracles.push(oracle);
    }
    for (n, &i) in prep.orders[k % ORDERS].iter().enumerate() {
        let schedule = prep.schedules[i];
        let fixture = &FIXTURES[schedule.fixture];
        let request = base + n as u64;
        let Some(model) = oracles[schedule.fixture].as_ref() else {
            continue;
        };
        let label = schedule.discipline.label();
        let begin = Instant::now();
        let outcome =
            ctx.tracer.span(Layer::Conformance, label, request, || match schedule.source {
                Source::Bounded { index, preemptions } => {
                    (fixture.run)(schedule.discipline, &mut BoundedSched::new(index, preemptions))
                }
                Source::Random { seed } => {
                    (fixture.run)(schedule.discipline, &mut RandomSched::new(seed))
                }
            });
        let ran = begin.elapsed();
        let checked = Instant::now();
        let verdict =
            ctx.tracer.span(Layer::Conformance, "check", request, || check(&outcome, model));
        let check_wall = checked.elapsed();
        out.decisions += outcome.run.decisions.len();
        out.steps += outcome.run.steps;
        let ok = ctx.outcomes.check(verdict.is_none(), || {
            format!("fuzz {}/{label}: {}", fixture.name, verdict.clone().unwrap_or_default())
        });
        if ok {
            out.latency_ms.push(ms(ran + check_wall));
            out.schedule_us[discipline_index(schedule.discipline)].push(us(ran));
            out.check_us.push(us(check_wall));
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> RunResult {
    let (setup_s, prep) = timed_setup(SETUP_REPS, SETUP_WINDOW, || prep(ctx.seed));
    let mut ledger = Ledger::default();
    ledger.set("setup_s", setup_s);
    let prep = match prep {
        Ok(prep) => prep,
        Err(e) => {
            ctx.outcomes.check(false, || format!("fuzz set-up: {e}"));
            return RunResult::new(ledger);
        }
    };
    if ctx.traced {
        let sources: Vec<&str> = FIXTURES.iter().map(|f| f.model).collect();
        layers::pipeline(ctx, &sources, SETUP_REPS, &mut ledger);
        let interps: Vec<&Interp> = prep.interps.iter().collect();
        layers::walks(ctx, &interps, 8, 300, &mut ledger);
    }

    // Cycles of one cold pass from an empty cache and a fixed number of
    // warm passes on it, so cold and warm samples spread over the whole
    // run and see the same mix of the machine's fast and slow stretches.
    let mut colds = Vec::new();
    let mut first: Option<(Pass, CacheStats)> = None;
    let (mut warm, mut steady) = (Pass::default(), Steady::default());
    let (mut passes, mut warm_passes, mut first_hits) = (0usize, 0usize, 0);
    repeat_passes(1, ctx.deadline(), |c| {
        let cycle = Instant::now();
        let cache = Arc::new(QueryCache::new());
        let begin = Instant::now();
        let p =
            ctx.tracer.span(Layer::Workload, "cold_pass", 0, || pass(ctx, &prep, &cache, passes));
        colds.push(begin.elapsed());
        passes += 1;
        let built = cache.stats();
        ctx.outcomes.check(
            built.builds == FIXTURES.len() && built.misses == FIXTURES.len(),
            || {
                format!(
                    "fuzz cold pass {c}: {} oracle builds, expected {}",
                    built.builds,
                    FIXTURES.len()
                )
            },
        );
        first.get_or_insert((p, built));

        for _ in 0..WARM_PER_COLD {
            // A traced run traces every other warm pass.
            let traced = ctx.traced && warm_passes.is_multiple_of(2);
            ctx.tracer.set(traced);
            let before = cache.stats();
            let begin = Instant::now();
            let p = ctx
                .tracer
                .span(Layer::Workload, "warm_pass", 0, || pass(ctx, &prep, &cache, passes));
            let wall = begin.elapsed();
            ctx.tracer.set(ctx.traced);
            let after = cache.stats();
            let hits = after.hits - before.hits;
            ctx.outcomes.check(hits == FIXTURES.len() && after.builds == before.builds, || {
                format!("fuzz warm pass {passes}: {hits} oracle hits, expected {}", FIXTURES.len())
            });
            if warm_passes == 0 {
                first_hits = hits;
            }
            steady.round(wall, &p.latency_ms, traced);
            warm.check_us.extend(p.check_us);
            warm.lookup_us.extend(p.lookup_us);
            for (all, more) in warm.schedule_us.iter_mut().zip(p.schedule_us) {
                all.extend(more);
            }
            passes += 1;
            warm_passes += 1;
        }
        cycle.elapsed()
    });
    let (first, first_cache) = first.expect("at least one cold pass");

    record_cold(&colds, &mut ledger);
    steady.record(&mut ledger);
    first.built.record(&first.built, first.built.build_ms, &mut ledger);
    ledger.set("session.hits", first_hits as f64);
    ledger.set("session.misses", first_cache.misses as f64);
    ledger.set("session.builds", first_cache.builds as f64);
    ledger.set("session.lookup_us", median(&warm.lookup_us));
    for (d, name) in [
        "conformance.threads.schedule_us",
        "conformance.actors.schedule_us",
        "conformance.coroutines.schedule_us",
        "conformance.tasks.schedule_us",
    ]
    .into_iter()
    .enumerate()
    {
        ledger.set(name, median(&warm.schedule_us[d]));
    }
    ledger.set("conformance.decisions", first.decisions as f64);
    ledger.set("conformance.steps", first.steps as f64);
    ledger.set("conformance.check_us", median(&warm.check_us));
    RunResult {
        ledger,
        programs: FIXTURES
            .iter()
            .zip(first.oracle_states)
            .map(|(f, s)| (f.name.to_string(), s))
            .collect(),
        order_digest: order_digest(&prep.orders[0]),
    }
}
