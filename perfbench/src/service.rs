//! `service`: two client threads, each its own tenant, against one
//! `Server` with a per-run disk store.
//!
//! One pass is 53 requests: for 9 of the 10 conformance models,
//! `terminals` plus `admits_trace` of every terminal output as a
//! Printed-token trace, and `check_spec` for the 16 spec-bank entries
//! over them. Party matching is left to `fuzz`: its three graphs (34k
//! states each) took about 90% of a cold pass and of a restart, which
//! would drown the server overheads this workload exists to show.
//! Tenant budgets are unbounded, so the warm phase is all hits. This is
//! the only workload that goes through `exec::server` (single-flight
//! parking, shard reads, persist, replayed reload), and the only one
//! where spec verdicts are recomputed on every request (the server path
//! skips the verdict memo).
//!
//! A run repeats cycles of three phases, so every phase's samples spread
//! over the whole run:
//! * a cold pass on an empty server over an empty store. Both clients
//!   send the same stream in lockstep, in a fixed order (the build order
//!   decides the heap layout the warm rounds then run on, so a seeded
//!   one would make the seed a performance knob), and the server's
//!   `build_hold` hook keeps each builder until the other client has
//!   parked on its flight, so builds, parks, hits and misses repeat
//!   exactly. A pass asks the 9 `terminals` first, because the trace
//!   requests are made from their answers;
//! * warm rounds on that server: each client one pass in its own seeded
//!   order, closed loop, both at once;
//! * a restart pass: a fresh server over the same store, each client one
//!   pass in its own order, every graph reloaded from disk.

use crate::layers;
use crate::metrics::{record_cold, BuildTotals, Ledger, Steady};
use crate::trace::Layer;
use crate::util::{median, ms, order_digest, repeat_passes, timed_setup, us, Rng};
use crate::{Ctx, RunResult, SETUP_REPS, SETUP_WINDOW};
use concur_conformance::{spec_bank, Fixture, SpecEntry, FIXTURES};
use concur_exec::{
    EventKindPattern, EventPattern, Interp, Reduction, Server, ServerConfig, ServerStats, Session,
    Stats,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// The default stack, spelled out so no environment knob can change it.
const REDUCTION: Reduction = Reduction { por: true, symmetry: true, sleep: false };
const CLIENTS: usize = 2;
/// How long a held builder waits for the other client to park before
/// giving up (the parked count then fails its guard instead of hanging).
const HOLD_LIMIT: Duration = Duration::from_secs(20);
/// Warm rounds after each cold pass: about as long as the cold pass.
const WARM_PER_COLD: usize = 12;
/// Seed tags of the warm rounds' and restart passes' client streams.
const WARM_TAG: u64 = 0x3A53;
const RESTART_TAG: u64 = 0x5E57;
/// The conformance model left to `fuzz` (see the module docs).
const LEFT_OUT: &str = "party_matching";

/// Fixture indices below are positions in `Prep::fixtures`.
#[derive(Clone)]
enum Req {
    Terminals(usize),
    /// Fixture, trace, and the output it spells.
    Trace(usize, Vec<EventPattern>, String),
    Spec(usize),
}

struct Prep {
    used: Vec<&'static Fixture>,
    fixtures: Vec<Interp>,
    entries: Vec<SpecEntry>,
    entry_interps: Vec<Interp>,
}

fn prep() -> Result<Prep, String> {
    let used: Vec<&'static Fixture> = FIXTURES.iter().filter(|f| f.name != LEFT_OUT).collect();
    let fixtures =
        used.iter().map(|f| Interp::from_source(f.model)).collect::<Result<Vec<_>, _>>()?;
    let entries: Vec<SpecEntry> =
        spec_bank().into_iter().filter(|e| e.fixture != Some(LEFT_OUT)).collect();
    let entry_interps =
        entries.iter().map(|e| Interp::from_source(&e.model)).collect::<Result<Vec<_>, _>>()?;
    Ok(Prep { used, fixtures, entries, entry_interps })
}

fn sources(prep: &Prep) -> Vec<&str> {
    prep.used.iter().map(|f| f.model).chain(prep.entries.iter().map(|e| e.model.as_str())).collect()
}

/// One answered request: its stats card and wall time.
struct Served {
    stats: Stats,
    wall: Duration,
    spec: bool,
    /// Successful terminal outputs, for `terminals` requests.
    outputs: Option<Vec<String>>,
}

fn session<'i>(server: &Server, tenant: &str, interp: &'i Interp) -> Session<'i> {
    server.session(tenant, interp).with_threads(1).with_reduction(REDUCTION)
}

fn label(prep: &Prep, req: &Req) -> String {
    match req {
        Req::Terminals(f) => format!("terminals {}", prep.used[*f].name),
        Req::Trace(f, _, out) => format!("trace {} {out:?}", prep.used[*f].name),
        Req::Spec(e) => format!("spec {}", prep.entries[*e].name),
    }
}

/// Send one request for `tenant`; `None` (and a recorded failure)
/// unless the answer is the known one.
fn serve(
    ctx: &Ctx,
    prep: &Prep,
    server: &Server,
    tenant: &str,
    req: &Req,
    request: u64,
) -> Option<Served> {
    let begin = Instant::now();
    let result: Result<(bool, Stats, Option<Vec<String>>), String> = match req {
        Req::Terminals(f) => ctx
            .tracer
            .span(Layer::Server, "terminals", request, || {
                session(server, tenant, &prep.fixtures[*f]).terminals()
            })
            .map(|set| {
                let ok = !set.stats.truncated && set.has_deadlock() == prep.used[*f].can_deadlock;
                (ok, set.stats, Some(set.outputs()))
            })
            .map_err(|e| e.to_string()),
        Req::Trace(f, trace, _) => ctx
            .tracer
            .span(Layer::Server, "admits_trace", request, || {
                session(server, tenant, &prep.fixtures[*f]).can_happen_with_stats(&[], trace)
            })
            .map(|(answer, stats)| (answer.is_yes() && !stats.truncated, stats, None))
            .map_err(|e| e.to_string()),
        Req::Spec(e) => ctx
            .tracer
            .span(Layer::Server, "check_spec", request, || {
                session(server, tenant, &prep.entry_interps[*e])
                    .check_spec_with_stats(&prep.entries[*e].spec)
            })
            .map(|(report, stats)| {
                (report.holds == prep.entries[*e].holds && report.exhaustive, stats, None)
            })
            .map_err(|e| e.to_string()),
    };
    let wall = begin.elapsed();
    match result {
        Ok((ok, stats, outputs)) => {
            let spec = matches!(req, Req::Spec(_));
            let (build_layer, build) = if stats.disk_loads > 0 {
                (Layer::GraphPersist, stats.build_wall)
            } else if stats.cache_misses > 0 && stats.parked_waiters == 0 {
                (Layer::GraphBuild, stats.build_wall)
            } else {
                (Layer::GraphBuild, Duration::ZERO)
            };
            let query_layer = if spec { Layer::Spec } else { Layer::GraphQuery };
            ctx.tracer.split_last(build_layer, build, query_layer, stats.query_wall);
            ctx.outcomes
                .check(ok, || format!("service {}: wrong answer", label(prep, req)))
                .then_some(Served { stats, wall, spec, outputs })
        }
        Err(e) => {
            ctx.outcomes.check(false, || format!("service {}: {e}", label(prep, req)));
            None
        }
    }
}

/// The 49 requests that follow the 10 `terminals` of a pass: one trace
/// per terminal output, then the spec bank.
fn followers(prep: &Prep, outputs: &[Vec<String>]) -> Vec<Req> {
    let mut reqs = Vec::new();
    for (f, outs) in outputs.iter().enumerate() {
        for out in outs {
            let trace = out
                .split_whitespace()
                .map(|tok| EventPattern::any(EventKindPattern::Printed { text: tok.to_string() }))
                .collect();
            reqs.push(Req::Trace(f, trace, out.clone()));
        }
    }
    reqs.extend((0..prep.entries.len()).map(Req::Spec));
    reqs
}

/// What a cold pass leaves behind, besides its server.
struct Cold {
    wall: Duration,
    /// Graph states per fixture, from its `terminals` answer.
    states: Vec<usize>,
    stats: ServerStats,
    /// Terminal outputs per fixture (both clients agreed on them).
    outputs: Vec<Vec<String>>,
    built: BuildTotals,
    park_wait_ms: Vec<f64>,
}

/// Every client sends its own stream to `server`, closed loop, and the
/// answers come back per client. With a barrier the clients go in
/// lockstep: each request starts when every client has finished its
/// previous one.
fn clients(
    ctx: &Ctx,
    prep: &Prep,
    server: &Server,
    streams: &[Vec<Req>],
    lockstep: Option<&Barrier>,
    base: u64,
) -> Vec<Vec<Option<Served>>> {
    let parent = ctx.tracer.current();
    std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                scope.spawn(move || {
                    ctx.tracer.adopt(parent);
                    let tenant = format!("tenant{c}");
                    reqs.iter()
                        .enumerate()
                        .map(|(n, req)| {
                            if let Some(barrier) = lockstep {
                                barrier.wait();
                            }
                            let request = base + ((c as u64) << 16) + n as u64;
                            serve(ctx, prep, server, &tenant, req, request)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("service client panicked")).collect()
    })
}

/// The answered requests of a free-running pass, all clients together.
fn answered(per_client: Vec<Vec<Option<Served>>>) -> Vec<Served> {
    per_client.into_iter().flatten().flatten().collect()
}

/// Cold pass `k` on an empty server over an empty store at `dir`: both
/// clients send the same stream in lockstep.
fn cold_pass(ctx: &Ctx, prep: &Prep, dir: &Path, k: usize) -> (Cold, Server) {
    let _ = std::fs::remove_dir_all(dir);
    // The hook reaches the server through this cell, which is emptied
    // after the pass so the server does not keep itself alive.
    let cell: Arc<Mutex<Option<Server>>> = Arc::new(Mutex::new(None));
    let mut config = ServerConfig::new().disk(dir);
    let (hold_cell, started) = (Arc::clone(&cell), AtomicUsize::new(0));
    config.build_hold = Some(Arc::new(move || {
        let n = started.fetch_add(1, Ordering::SeqCst) + 1;
        let Some(server) = hold_cell.lock().expect("hold cell poisoned").clone() else {
            return;
        };
        let begin = Instant::now();
        // Poll gently: the stats read takes the locks the parking client
        // needs.
        while server.stats().parked_waiters < n && begin.elapsed() < HOLD_LIMIT {
            std::thread::sleep(Duration::from_micros(20));
        }
    }));
    let server = Server::new(config);
    *cell.lock().expect("hold cell poisoned") = Some(server.clone());

    let barrier = Barrier::new(CLIENTS);
    let first: Vec<Req> = (0..prep.fixtures.len()).map(Req::Terminals).collect();
    let base = (k as u64) << 32;
    let begin = Instant::now();
    let mut answers = ctx.tracer.span(Layer::Workload, "cold_terminals", base, || {
        clients(ctx, prep, &server, &vec![first.clone(); CLIENTS], Some(&barrier), base)
    });
    let mut outputs = vec![Vec::new(); prep.fixtures.len()];
    let mut states = vec![0; prep.fixtures.len()];
    for (n, req) in first.iter().enumerate() {
        let Req::Terminals(f) = req else { unreachable!("the first stage asks terminals only") };
        let seen: Vec<Option<&Vec<String>>> =
            answers.iter().map(|a| a[n].as_ref().and_then(|s| s.outputs.as_ref())).collect();
        if let Some(out) = seen[0] {
            ctx.outcomes.check(seen.iter().all(|s| *s == Some(out)), || {
                format!("service {}: clients saw different terminal sets", prep.used[*f].name)
            });
            outputs[*f] = out.clone();
        }
        if let Some(served) = &answers[0][n] {
            states[*f] = served.stats.states_visited;
        }
    }
    let rest = followers(prep, &outputs);
    let more = ctx.tracer.span(Layer::Workload, "cold_rest", base, || {
        clients(ctx, prep, &server, &vec![rest.clone(); CLIENTS], Some(&barrier), base + 1024)
    });
    let wall = begin.elapsed();
    *cell.lock().expect("hold cell poisoned") = None;
    for (a, m) in answers.iter_mut().zip(more) {
        a.extend(m);
    }

    let mut built = BuildTotals::default();
    let mut park_wait_ms = Vec::new();
    for served in answers.iter().flatten().flatten() {
        let s = &served.stats;
        if s.parked_waiters > 0 {
            park_wait_ms.push(ms(s.wall.saturating_sub(s.query_wall)));
        } else if s.cache_misses > 0 && s.disk_loads == 0 {
            built.add(s);
        }
    }
    let stats = server.stats();
    let total = CLIENTS * (first.len() + rest.len());
    ctx.outcomes.check(
        stats.builds == stats.parked_waiters
            && stats.misses == CLIENTS * stats.builds
            && stats.hits + stats.misses == total,
        || format!("service cold pass {k}: {stats:?} is not one build and one park per graph"),
    );
    (Cold { wall, states, stats, outputs, built, park_wait_ms }, server)
}

/// Per-client request orders of one free-running pass.
fn stream_orders(seed: u64, tag: u64, n: usize) -> Vec<Vec<usize>> {
    (0..CLIENTS).map(|c| Rng::derived(seed, tag * CLIENTS as u64 + c as u64).order(n)).collect()
}

/// Per-client request streams of one free-running pass.
fn streams(seed: u64, tag: u64, reqs: &[Req]) -> Vec<Vec<Req>> {
    stream_orders(seed, tag, reqs.len())
        .into_iter()
        .map(|order| order.into_iter().map(|i| reqs[i].clone()).collect())
        .collect()
}

/// What the warm rounds and restart passes of a run measured.
#[derive(Default)]
struct Measured {
    steady: Steady,
    hit_us: Vec<f64>,
    /// Graph query time per request, and in total per round.
    query_p: Vec<f64>,
    query_round: Vec<f64>,
    product_ms: Vec<f64>,
    restart_s: Vec<f64>,
    disk_load_ms: Vec<f64>,
    /// `from_bytes` time per restart pass.
    from_bytes_ms: Vec<f64>,
    rounds: usize,
}

impl Measured {
    /// Warm round on a filled `server`: each client one pass in its own
    /// seeded order. A traced run traces every other round.
    fn warm_round(&mut self, ctx: &Ctx, prep: &Prep, server: &Server, reqs: &[Req]) {
        let k = self.rounds;
        self.rounds += 1;
        let traced = ctx.traced && k.is_multiple_of(2);
        ctx.tracer.set(traced);
        let base = (1u64 << 48) + ((k as u64) << 32);
        let streams = streams(ctx.seed, WARM_TAG + k as u64, reqs);
        let begin = Instant::now();
        let served = ctx.tracer.span(Layer::Workload, "warm_round", base, || {
            answered(clients(ctx, prep, server, &streams, None, base))
        });
        let wall = begin.elapsed();
        ctx.tracer.set(ctx.traced);
        let (mut q_ms, mut latency) = (0.0, Vec::new());
        for s in &served {
            latency.push(ms(s.wall));
            self.hit_us.push(us(s.stats.wall.saturating_sub(s.stats.query_wall)));
            if s.spec {
                self.product_ms.push(ms(s.stats.query_wall));
            } else {
                q_ms += ms(s.stats.query_wall);
                self.query_p.push(ms(s.stats.query_wall));
            }
        }
        self.query_round.push(q_ms);
        self.steady.round(wall, &latency, traced);
    }

    /// Restart pass `k`: a fresh server over the store at `dir`, each
    /// client one pass in its own seeded order. Every one of the `keys`
    /// graphs must load from disk, and none be built.
    fn restart(
        &mut self,
        ctx: &Ctx,
        prep: &Prep,
        dir: &Path,
        reqs: &[Req],
        keys: usize,
        k: usize,
    ) -> (Server, ServerStats) {
        let server = Server::new(ServerConfig::new().disk(dir));
        let base = (2u64 << 48) + ((k as u64) << 32);
        let streams = streams(ctx.seed, RESTART_TAG + k as u64, reqs);
        let begin = Instant::now();
        let served = ctx.tracer.span(Layer::Workload, "restart_pass", base, || {
            answered(clients(ctx, prep, &server, &streams, None, base))
        });
        let wall = begin.elapsed();
        let stats = server.stats();
        ctx.outcomes.check(stats.builds == 0 && stats.disk_loads == keys, || {
            format!(
                "service restart {k}: {} builds and {} disk loads for {keys} graphs",
                stats.builds, stats.disk_loads
            )
        });
        let mut from_bytes = 0.0;
        for s in served.iter().filter(|s| s.stats.disk_loads > 0) {
            self.disk_load_ms.push(ms(s.stats.wall.saturating_sub(s.stats.query_wall)));
            from_bytes += ms(s.stats.build_wall);
        }
        self.from_bytes_ms.push(from_bytes);
        self.restart_s.push(wall.as_secs_f64());
        (server, stats)
    }
}

pub fn run(ctx: &Ctx) -> RunResult {
    let (setup_s, prep) = timed_setup(SETUP_REPS, SETUP_WINDOW, prep);
    let mut ledger = Ledger::default();
    ledger.set("setup_s", setup_s);
    let prep = match prep {
        Ok(prep) => prep,
        Err(e) => {
            ctx.outcomes.check(false, || format!("service set-up: {e}"));
            return RunResult::new(ledger);
        }
    };
    if ctx.traced {
        layers::pipeline(ctx, &sources(&prep), SETUP_REPS, &mut ledger);
        let interps: Vec<&Interp> = prep.fixtures.iter().collect();
        layers::walks(ctx, &interps, 8, 300, &mut ledger);
        let compile_us: Vec<f64> = prep
            .entries
            .iter()
            .enumerate()
            .map(|(e, entry)| {
                let begin = Instant::now();
                let monitor =
                    ctx.tracer.span(Layer::Spec, "compile", e as u64, || entry.spec.compile());
                let t = us(begin.elapsed());
                ctx.outcomes
                    .check(monitor.is_ok(), || format!("spec {} does not compile", entry.name));
                t
            })
            .collect();
        ledger.set("spec.compile_us", median(&compile_us));
    }
    let dir = ctx.out_dir.join(format!("service-store-{}", std::process::id()));

    // Cycles of a cold pass, warm rounds on its server and a restart
    // pass over its store, so every phase's samples spread over the
    // whole run and see the same mix of the machine's fast and slow
    // stretches.
    let mut first: Option<Cold> = None;
    let (mut cold_walls, mut build_ms, mut park) = (Vec::new(), Vec::new(), Vec::new());
    let mut reqs: Vec<Req> = Vec::new();
    let mut m = Measured::default();
    let mut restart_stats = None;
    repeat_passes(1, ctx.deadline(), |k| {
        let begin = Instant::now();
        let (cold, server) = cold_pass(ctx, &prep, &dir, k);
        cold_walls.push(cold.wall);
        build_ms.push(cold.built.build_ms);
        park.extend(cold.park_wait_ms.iter().copied());
        let first = match &first {
            Some(first) => {
                ctx.outcomes
                    .check(first.outputs == cold.outputs && first.stats == cold.stats, || {
                        format!("service cold pass {k} differs from the first")
                    });
                first
            }
            None => {
                reqs = (0..prep.fixtures.len()).map(Req::Terminals).collect();
                reqs.extend(followers(&prep, &cold.outputs));
                first.insert(cold)
            }
        };

        let before = server.stats();
        let requests = m.steady.requests();
        for _ in 0..WARM_PER_COLD {
            m.warm_round(ctx, &prep, &server, &reqs);
        }
        let after = server.stats();
        ctx.outcomes.check(
            after.builds == before.builds
                && after.misses == before.misses
                && after.disk_loads == before.disk_loads
                && after.hits - before.hits == m.steady.requests() - requests,
            || format!("service warm rounds {k}: not all hits ({before:?} -> {after:?})"),
        );
        drop(server);

        let (server, stats) = m.restart(ctx, &prep, &dir, &reqs, first.stats.builds, k);
        if k == 0 {
            restart_stats = Some(stats);
            if ctx.traced {
                persistence(ctx, &prep, &server, &mut ledger);
            }
        }
        begin.elapsed()
    });
    let _ = std::fs::remove_dir_all(&dir);
    let first = first.expect("at least one cold pass");
    let restart_stats = restart_stats.expect("at least one restart pass");

    record_cold(&cold_walls, &mut ledger);
    m.steady.record(&mut ledger);
    first.built.record(&first.built, median(&build_ms), &mut ledger);
    ledger.set("graph.query_ms", median(&m.query_round));
    ledger.set("graph.query_p50_ms", median(&m.query_p));
    ledger.set("graph.from_bytes_ms", median(&m.from_bytes_ms));
    ledger.set("spec.product_ms", median(&m.product_ms));
    ledger.set("server.hits", first.stats.hits as f64);
    ledger.set("server.misses", first.stats.misses as f64);
    ledger.set("server.builds", first.stats.builds as f64);
    ledger.set("server.parked_waiters", first.stats.parked_waiters as f64);
    ledger.set("server.disk_loads", restart_stats.disk_loads as f64);
    ledger.set("server.hit_us", median(&m.hit_us));
    ledger.set("server.park_wait_ms", median(&park));
    ledger.set("server.disk_load_ms", median(&m.disk_load_ms));
    ledger.set("server.restart_s", median(&m.restart_s));
    let programs = prep
        .used
        .iter()
        .zip(&first.states)
        .map(|(f, &states)| (f.name.to_string(), states))
        .collect();
    let warm_order = &stream_orders(ctx.seed, WARM_TAG, reqs.len())[0];
    RunResult { ledger, programs, order_digest: order_digest(warm_order) }
}

/// Serialize the 9 terminal graphs (resident after the restart pass)
/// and record the cost and size.
fn persistence(ctx: &Ctx, prep: &Prep, server: &Server, ledger: &mut Ledger) {
    let (mut to_bytes_ms, mut bytes) = (0.0, 0usize);
    for (f, interp) in prep.fixtures.iter().enumerate() {
        let Ok(graph) = session(server, "tenant0", interp).terminal_graph() else {
            ctx.outcomes
                .check(false, || format!("service {}: no terminal graph", prep.used[f].name));
            continue;
        };
        let begin = Instant::now();
        let data = ctx.tracer.span(Layer::GraphPersist, "to_bytes", f as u64, || graph.to_bytes());
        to_bytes_ms += ms(begin.elapsed());
        bytes += data.len();
    }
    ledger.set("graph.to_bytes_ms", to_bytes_ms);
    ledger.set("graph.bytes", bytes as f64);
}
