//! Spec queries as first-class citizens: what the verdict memo and
//! graph sharing buy the protocol-spec bank.
//!
//! Measures the conformance crate's 16-entry spec bank three ways —
//! legacy (a fresh cache per check, so every verdict pays a graph
//! build), cold session (first check per visibility signature builds,
//! the rest share), warm session (every check is a pure verdict-memo
//! read) — and emits the numbers as machine-readable JSON for CI
//! trending: build time, per-check time, and memo hit rate, written
//! to `target/BENCH_spec.json` (override with `BENCH_SPEC_JSON`).
//!
//! Pass `--quick` (or the smoke harness's `--test`) to shrink the
//! warm rounds; the JSON is emitted in every mode.

use concur_conformance::spec_bank;
use concur_exec::{QueryCache, Session};
use criterion::{criterion_group, criterion_main, Criterion};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick" || a == "--test")
}

fn json_path() -> std::path::PathBuf {
    std::env::var_os("BENCH_SPEC_JSON").map(std::path::PathBuf::from).unwrap_or_else(|| {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/BENCH_spec.json")
    })
}

struct SpecNumbers {
    checks: usize,
    legacy_wall: Duration,
    cold_wall: Duration,
    warm_wall: Duration,
    build_wall: Duration,
    builds: usize,
    warm_hit_rate: f64,
}

impl SpecNumbers {
    fn json(&self, name: &str) -> String {
        format!(
            "  \"{name}\": {{\n    \"checks\": {},\n    \"legacy_wall_s\": {:.6},\n    \
             \"cold_wall_s\": {:.6},\n    \"warm_wall_s\": {:.6},\n    \"build_wall_s\": {:.6},\n    \
             \"graph_builds\": {},\n    \"warm_per_check_s\": {:.9},\n    \
             \"warm_hit_rate\": {:.4}\n  }}",
            self.checks,
            self.legacy_wall.as_secs_f64(),
            self.cold_wall.as_secs_f64(),
            self.warm_wall.as_secs_f64(),
            self.build_wall.as_secs_f64(),
            self.builds,
            self.warm_wall.as_secs_f64() / self.checks.max(1) as f64,
            self.warm_hit_rate,
        )
    }
}

/// The whole bank: legacy (fresh cache per check — every verdict pays
/// its own build) vs cold shared-cache pass (entries over the same
/// model + visibility signature share a build) vs warm rounds (pure
/// verdict-memo reads).
fn measure_bank(warm_rounds: usize) -> SpecNumbers {
    let bank = spec_bank();

    let begin = Instant::now();
    for entry in &bank {
        let report = Session::from_source(&entry.model)
            .expect("bank model compiles")
            .with_cache(Arc::new(QueryCache::new()))
            .check_spec(&entry.spec)
            .expect("checks");
        assert_eq!(report.holds, entry.holds, "{}", entry.name);
    }
    let legacy_wall = begin.elapsed();

    let cache = Arc::new(QueryCache::new());
    let session_for = |entry: &concur_conformance::SpecEntry, cache: &Arc<QueryCache>| {
        Session::from_source(&entry.model)
            .expect("bank model compiles")
            .with_cache(Arc::clone(cache))
    };
    let begin = Instant::now();
    let mut build_wall = Duration::ZERO;
    for entry in &bank {
        let (report, stats) =
            session_for(entry, &cache).check_spec_with_stats(&entry.spec).expect("checks");
        assert_eq!(report.holds, entry.holds, "{}", entry.name);
        if stats.cache_misses > 0 {
            build_wall += stats.build_wall;
        }
    }
    let cold_wall = begin.elapsed();
    let builds = cache.stats().builds;

    let before_warm = cache.stats();
    let begin = Instant::now();
    for _ in 0..warm_rounds {
        for entry in &bank {
            let report = session_for(entry, &cache).check_spec(&entry.spec).expect("checks");
            assert_eq!(report.holds, entry.holds, "{}", entry.name);
        }
    }
    let warm_wall = begin.elapsed();
    let after_warm = cache.stats();
    let warm_checks = bank.len() * warm_rounds;
    let warm_hits = after_warm.spec_hits - before_warm.spec_hits;

    SpecNumbers {
        checks: warm_checks,
        legacy_wall,
        cold_wall,
        warm_wall,
        build_wall,
        builds,
        warm_hit_rate: warm_hits as f64 / warm_checks.max(1) as f64,
    }
}

fn emit_json(bank: &SpecNumbers) {
    let path = json_path();
    let body = format!("{{\n{}\n}}\n", bank.json("spec_bank"));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(&path, &body).expect("write BENCH_spec.json");
    println!("spec/json: wrote {}", path.display());
    print!("{body}");
}

fn bench_spec(c: &mut Criterion) {
    let warm_rounds = if quick_mode() { 3 } else { 20 };
    let numbers = measure_bank(warm_rounds);
    assert!(
        numbers.warm_hit_rate >= 1.0,
        "warm spec passes must be pure memo hits (got {:.2})",
        numbers.warm_hit_rate
    );
    emit_json(&numbers);

    let mut group = c.benchmark_group("spec");
    group.sample_size(10);

    // Warm whole-bank pass against an already-populated cache — the
    // steady-state cost a CI verdict-regression sweep pays.
    let warm_cache = Arc::new(QueryCache::new());
    let bank = spec_bank();
    for entry in &bank {
        Session::from_source(&entry.model)
            .expect("compiles")
            .with_cache(Arc::clone(&warm_cache))
            .check_spec(&entry.spec)
            .expect("checks");
    }
    group.bench_function("bank_warm_16_specs", |b| {
        b.iter(|| {
            for entry in &bank {
                let report = Session::from_source(&entry.model)
                    .expect("compiles")
                    .with_cache(Arc::clone(&warm_cache))
                    .check_spec(&entry.spec)
                    .expect("checks");
                assert_eq!(report.holds, entry.holds);
            }
        });
    });

    // Cold check of one fairness entry — the expensive shape: the
    // reduction stack is forced off and the graph carries the
    // enabled-task bookkeeping.
    let fairness =
        bank.iter().find(|e| e.name == "sum_worker_fair_at_k64").expect("fairness entry");
    group.bench_function("fairness_cold_check", |b| {
        b.iter(|| {
            let report = Session::from_source(&fairness.model)
                .expect("compiles")
                .with_cache(Arc::new(QueryCache::new()))
                .check_spec(&fairness.spec)
                .expect("checks");
            assert!(report.holds);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_spec);
criterion_main!(benches);
