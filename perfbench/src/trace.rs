//! Outside-in tracing: a span around every public call the benchmark
//! makes into the checker, kept in memory and written out when the run
//! ends.
//!
//! A span records its layer, name, start, end, parent span and request
//! id. Parents come from a per-thread stack of open spans, so nesting
//! is exact within a client thread. A layer's self time is its spans'
//! time minus the time their child spans cover. The graph builder's
//! build and query phases are not visible from outside; they become
//! child spans of the session call, sized from the call's own `Stats`
//! card (build at the start of the call, query at its end).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The repository's modules, as the benchmark attributes time to them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The benchmark's own pass and request loops.
    Workload,
    Pseudocode,
    Program,
    Footprint,
    Interp,
    Intern,
    Explore,
    GraphBuild,
    GraphQuery,
    GraphPersist,
    Spec,
    Session,
    Server,
    /// The conformance harness with the runtimes it drives
    /// (coroutines, tasks, decide).
    Conformance,
}

impl Layer {
    /// Every layer with its name in the span file and its self-time
    /// metric.
    const TABLE: [(Layer, &'static str, &'static str); 14] = [
        (Layer::Workload, "workload", "workload.self_ms"),
        (Layer::Pseudocode, "pseudocode", "pseudocode.self_ms"),
        (Layer::Program, "program", "program.self_ms"),
        (Layer::Footprint, "footprint", "footprint.self_ms"),
        (Layer::Interp, "interp", "interp.self_ms"),
        (Layer::Intern, "intern", "intern.self_ms"),
        (Layer::Explore, "explore", "explore.self_ms"),
        (Layer::GraphBuild, "graph_build", "graph.build_self_ms"),
        (Layer::GraphQuery, "graph_query", "graph.query_self_ms"),
        (Layer::GraphPersist, "graph_persist", "graph.persist_self_ms"),
        (Layer::Spec, "spec", "spec.self_ms"),
        (Layer::Session, "session", "session.self_ms"),
        (Layer::Server, "server", "server.self_ms"),
        (Layer::Conformance, "conformance", "conformance.self_ms"),
    ];

    fn entry(self) -> &'static (Layer, &'static str, &'static str) {
        Self::TABLE.iter().find(|e| e.0 == self).expect("every layer is in the table")
    }

    pub fn name(self) -> &'static str {
        self.entry().1
    }

    pub fn self_metric(self) -> &'static str {
        self.entry().2
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub layer: Layer,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// (id, request, start, end) of the span this thread closed last.
    static LAST: Cell<(u64, u64, u64, u64)> = const { Cell::new((0, 0, 0, 0)) };
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off between passes (no span may be open).
    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span. With recording off this is a plain call.
    pub fn span<R>(
        &self,
        layer: Layer,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.is_on() {
            return f();
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied().unwrap_or(0);
            open.push(id);
            parent
        });
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        OPEN.with(|open| open.borrow_mut().pop());
        LAST.with(|last| last.set((id, request, start_ns, end_ns)));
        self.push(Span { id, parent, layer, name, request, start_ns, end_ns });
        out
    }

    /// The span open on this thread (0 when none), for handing to
    /// worker threads with [`Tracer::adopt`].
    pub fn current(&self) -> u64 {
        OPEN.with(|open| open.borrow().last().copied().unwrap_or(0))
    }

    /// Make `parent` (a span open on another thread) the parent of this
    /// thread's root spans.
    pub fn adopt(&self, parent: u64) {
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            open.clear();
            if parent != 0 {
                open.push(parent);
            }
        });
    }

    /// Split the span this thread closed last by the checker's own
    /// `Stats` card: `build` (a graph build, or a disk reload when
    /// `build_layer` is [`Layer::GraphPersist`]) at its start and the
    /// `query` (a graph traversal, or a spec product when `query_layer`
    /// is [`Layer::Spec`]) at its end.
    pub fn split_last(
        &self,
        build_layer: Layer,
        build: Duration,
        query_layer: Layer,
        query: Duration,
    ) {
        if !self.is_on() {
            return;
        }
        let (parent, request, start, end) = LAST.with(Cell::get);
        if parent == 0 {
            return;
        }
        let cap = |d: Duration| (d.as_nanos() as u64).min(end - start);
        if !build.is_zero() {
            let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
            let end_ns = start + cap(build);
            self.push(Span {
                id,
                parent,
                layer: build_layer,
                name: "build",
                request,
                start_ns: start,
                end_ns,
            });
        }
        if !query.is_zero() {
            let id = self.next.fetch_add(1, Ordering::Relaxed) + 1;
            let start_ns = end - cap(query);
            self.push(Span {
                id,
                parent,
                layer: query_layer,
                name: "query",
                request,
                start_ns,
                end_ns: end,
            });
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span list poisoned").len()
    }

    /// Self time per layer: each span's duration minus the time its
    /// children cover, summed by layer. Children on several threads can
    /// overlap, so coverage is the union of their intervals.
    pub fn self_times(&self) -> Vec<(Layer, Duration)> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
        let covered: HashMap<u64, u64> = children
            .into_iter()
            .map(|(parent, mut intervals)| {
                intervals.sort_unstable();
                let (mut total, mut reach) = (0u64, 0u64);
                for (start, end) in intervals {
                    let start = start.max(reach);
                    if end > start {
                        total += end - start;
                        reach = end;
                    }
                }
                (parent, total)
            })
            .collect();
        Layer::TABLE
            .iter()
            .map(|&(layer, _, _)| {
                let ns: u64 = spans
                    .iter()
                    .filter(|s| s.layer == layer)
                    .map(|s| {
                        let dur = s.end_ns - s.start_ns;
                        dur.saturating_sub(covered.get(&s.id).copied().unwrap_or(0))
                    })
                    .sum();
                (layer, Duration::from_nanos(ns))
            })
            .collect()
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                s.layer.name(),
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
