//! The metric catalogue (it must match `BENCHMARK.json`) and the
//! ledger a workload fills.

use crate::util::{median, quantile};
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload from an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("cold_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload from a traced run (0
/// where the layer does no work on that workload). `true` marks a count
/// that must repeat exactly across runs with one seed.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("pseudocode.parse_ms", "ms", false),
    ("pseudocode.source_bytes", "bytes", true),
    ("pseudocode.self_ms", "ms", false),
    ("program.compile_ms", "ms", false),
    ("program.instrs", "count", true),
    ("program.self_ms", "ms", false),
    ("footprint.summaries_ms", "ms", false),
    ("footprint.self_ms", "ms", false),
    ("interp.choices_ns", "ns", false),
    ("interp.apply_ns", "ns", false),
    ("interp.steps", "count", true),
    ("interp.self_ms", "ms", false),
    ("intern.canonicalize_ns", "ns", false),
    ("intern.states_canonicalized", "count", true),
    ("intern.arena_bytes", "bytes", true),
    ("intern.probe_len_max", "count", true),
    ("intern.claim_cas_retries", "count", true),
    ("intern.self_ms", "ms", false),
    ("explore.states_deduped", "count", true),
    ("explore.por_ample_states", "count", true),
    ("explore.por_pruned_choices", "count", true),
    ("explore.sleep_pruned", "count", true),
    ("explore.ample_share", "ratio", true),
    ("explore.self_ms", "ms", false),
    ("graph.build_ms", "ms", false),
    ("graph.states", "count", true),
    ("graph.transitions", "count", true),
    ("graph.us_per_state", "us", false),
    ("graph.build_self_ms", "ms", false),
    ("graph.query_ms", "ms", false),
    ("graph.query_p50_ms", "ms", false),
    ("graph.query_self_ms", "ms", false),
    ("graph.to_bytes_ms", "ms", false),
    ("graph.from_bytes_ms", "ms", false),
    ("graph.bytes", "bytes", true),
    ("graph.persist_self_ms", "ms", false),
    ("spec.compile_us", "us", false),
    ("spec.product_ms", "ms", false),
    ("spec.self_ms", "ms", false),
    ("session.hits", "count", true),
    ("session.misses", "count", true),
    ("session.builds", "count", true),
    ("session.lookup_us", "us", false),
    ("session.self_ms", "ms", false),
    ("server.hits", "count", true),
    ("server.misses", "count", true),
    ("server.builds", "count", true),
    ("server.parked_waiters", "count", true),
    ("server.disk_loads", "count", true),
    ("server.hit_us", "us", false),
    ("server.park_wait_ms", "ms", false),
    ("server.disk_load_ms", "ms", false),
    ("server.restart_s", "s", false),
    ("server.self_ms", "ms", false),
    ("conformance.threads.schedule_us", "us", false),
    ("conformance.actors.schedule_us", "us", false),
    ("conformance.coroutines.schedule_us", "us", false),
    ("conformance.tasks.schedule_us", "us", false),
    ("conformance.decisions", "count", true),
    ("conformance.steps", "count", true),
    ("conformance.check_us", "us", false),
    ("conformance.self_ms", "ms", false),
    ("workload.self_ms", "ms", false),
    ("latency.p99_ms", "ms", false),
    ("latency.samples", "count", false),
    ("trace.overhead_pct", "%", false),
    ("trace.spans", "count", false),
];

/// The steady phase, round by round (a round is one warm pass or round,
/// or one `scale` pass). A run's rate and typical latency are the
/// medians over its rounds, whatever their number: the median's rank
/// moves with the round count, its meaning does not. The tail pools
/// every round. A traced run alternates traced and untraced rounds, and
/// the tracing overhead compares their median walls.
#[derive(Default)]
pub struct Steady {
    rates: Vec<f64>,
    medians: Vec<f64>,
    latencies: Vec<f64>,
    traced_walls: Vec<f64>,
    untraced_walls: Vec<f64>,
}

impl Steady {
    /// One round: its wall time, the latency of each request it
    /// completed, and whether spans were recorded.
    pub fn round(&mut self, wall: std::time::Duration, latencies_ms: &[f64], traced: bool) {
        let walls = if traced { &mut self.traced_walls } else { &mut self.untraced_walls };
        walls.push(wall.as_secs_f64());
        if latencies_ms.is_empty() {
            return;
        }
        self.rates.push(latencies_ms.len() as f64 / wall.as_secs_f64());
        self.medians.push(median(latencies_ms));
        self.latencies.extend_from_slice(latencies_ms);
    }

    /// Requests completed over all rounds.
    pub fn requests(&self) -> usize {
        self.latencies.len()
    }

    pub fn record(&self, ledger: &mut Ledger) {
        ledger.set("requests_per_s", median(&self.rates));
        ledger.set("latency_p50_ms", median(&self.medians));
        // A p99 needs at least ten samples beyond it.
        if self.latencies.len() >= 1000 {
            ledger.set("latency.p99_ms", quantile(&self.latencies, 0.99));
        }
        ledger.set("latency.samples", self.latencies.len() as f64);
        if !self.traced_walls.is_empty() && !self.untraced_walls.is_empty() {
            let overhead = median(&self.traced_walls) / median(&self.untraced_walls) - 1.0;
            ledger.set("trace.overhead_pct", overhead * 100.0);
        }
    }
}

/// `cold_s`: the median over the run's cold passes.
pub fn record_cold(walls: &[std::time::Duration], ledger: &mut Ledger) {
    let walls: Vec<f64> = walls.iter().map(std::time::Duration::as_secs_f64).collect();
    ledger.set("cold_s", median(&walls));
}

/// Named values a run produces. Unset per-layer metrics read as 0.
#[derive(Default)]
pub struct Ledger {
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|(n, _)| *n == name)
                || PER_LAYER.iter().any(|(n, _, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Accumulates the counters of the graph builds (and, on `scale`,
/// explorations) one pass pays for.
#[derive(Default, Clone, Copy)]
pub struct BuildTotals {
    pub states: usize,
    pub transitions: usize,
    pub deduped: usize,
    pub ample: usize,
    pub pruned: usize,
    pub sleep_pruned: usize,
    pub canonicalized: usize,
    pub arena_bytes: usize,
    pub probe_len_max: usize,
    pub cas_retries: usize,
    pub build_ms: f64,
}

impl BuildTotals {
    pub fn add(&mut self, s: &concur_exec::Stats) {
        self.states += s.states_visited;
        self.transitions += s.transitions;
        self.deduped += s.states_deduped;
        self.ample += s.por_ample_states;
        self.pruned += s.por_pruned_choices;
        self.sleep_pruned += s.sleep_pruned;
        self.canonicalized += s.states_canonicalized;
        self.arena_bytes += s.arena_bytes;
        self.probe_len_max = self.probe_len_max.max(s.probe_len_max);
        self.cas_retries += s.claim_cas_retries;
        self.build_ms += crate::util::ms(s.build_wall);
    }

    /// Write the graph-builder counts (`graph.*`, `intern.*`) of `self`
    /// and the reduction counts (`explore.*`) of `explored`, which on
    /// `scale` also covers the serial explorer's runs.
    pub fn record(&self, explored: &BuildTotals, build_ms: f64, ledger: &mut Ledger) {
        ledger.set("graph.states", self.states as f64);
        ledger.set("graph.transitions", self.transitions as f64);
        ledger.set("graph.build_ms", build_ms);
        if self.states > 0 {
            ledger.set("graph.us_per_state", build_ms * 1e3 / self.states as f64);
        }
        ledger.set("intern.states_canonicalized", self.canonicalized as f64);
        ledger.set("intern.arena_bytes", self.arena_bytes as f64);
        ledger.set("intern.probe_len_max", self.probe_len_max as f64);
        ledger.set("intern.claim_cas_retries", self.cas_retries as f64);
        ledger.set("explore.states_deduped", explored.deduped as f64);
        ledger.set("explore.por_ample_states", explored.ample as f64);
        ledger.set("explore.por_pruned_choices", explored.pruned as f64);
        ledger.set("explore.sleep_pruned", explored.sleep_pruned as f64);
        if explored.states > 0 {
            ledger.set("explore.ample_share", explored.ample as f64 / explored.states as f64);
        }
    }
}
