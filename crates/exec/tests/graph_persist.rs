//! Disk-backed graph store and eviction battery.
//!
//! The server's disk store must be an *accelerator, never an
//! authority*: persisted bytes are byte-for-byte what a fresh build
//! serializes to, reloads replay the stored decision structure through
//! the program (so answers are identical by construction, and the test
//! demands it), and any corruption falls back to a fresh build. LRU
//! eviction must pick the coldest graph first and keep the residency
//! ledger exact.

use concur_conformance::models;
use concur_exec::{QueryCache, Server, ServerConfig, Session};
use std::path::PathBuf;
use std::sync::Arc;

/// A private scratch dir per test (tests in one binary run in
/// parallel; shared dirs would cross-contaminate stores).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("concur-persist-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|x| x == "csg"))
                .collect()
        })
        .unwrap_or_default();
    files.sort();
    files
}

#[test]
fn persisted_bytes_match_fresh_build_and_warm_restart_builds_nothing() {
    let dir = scratch("roundtrip");
    let src = models::DINING_ORDERED;

    // Server A builds cold and persists.
    let server_a = Server::new(ServerConfig::new().disk(&dir));
    let session = server_a.owned_session("t", src).expect("model compiles");
    let built = session.terminal_graph().expect("cold build");
    let truth = session.terminals().expect("warm read");
    assert_eq!(server_a.tenant_stats("t").builds, 1);

    // Exactly one store file, byte-for-byte the fresh build's
    // serialization — which is also byte-for-byte an *independent*
    // serial build's serialization (the builder is deterministic).
    let files = store_files(&dir);
    assert_eq!(files.len(), 1, "one graph, one store file");
    let on_disk = std::fs::read(&files[0]).expect("store file readable");
    assert_eq!(on_disk, built.to_bytes(), "store file is the build's serialization");
    let independent =
        Session::from_source(src).expect("model compiles").with_cache(Arc::new(QueryCache::new()));
    let fresh = independent.terminal_graph().expect("independent build");
    assert_eq!(on_disk, fresh.to_bytes(), "store file matches a fresh independent build");

    // Server B (a "restart") answers warm from disk: zero builds, one
    // disk load, identical terminals, and serialize∘deserialize is a
    // byte-level fixed point.
    let server_b = Server::new(ServerConfig::new().disk(&dir));
    let session_b = server_b.owned_session("t", src).expect("model compiles");
    let reloaded = session_b.terminal_graph().expect("disk load");
    let warm = session_b.terminals().expect("warm read");
    let stats_b = server_b.tenant_stats("t");
    assert_eq!(stats_b.builds, 0, "warm restart must not rebuild");
    assert_eq!(stats_b.disk_loads, 1, "warm restart served from the store");
    assert_eq!(warm.terminals, truth.terminals, "reloaded graph answers identically");
    assert_eq!(reloaded.to_bytes(), on_disk, "deserialize∘serialize is the identity");
    assert_eq!(reloaded.meta(), built.meta(), "reloaded meta matches the build");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_evict_reload_round_trip() {
    let dir = scratch("evict-reload");
    // Budget of one state: the second model's arrival evicts the
    // first, and re-asking the first must come back from disk.
    let server = Server::new(ServerConfig::new().disk(&dir).budget(1));

    let first = server.owned_session("t", models::DINING_ORDERED).expect("compiles");
    let truth_first = first.terminals().expect("cold build");
    let second = server.owned_session("t", models::SUM_WORKERS).expect("compiles");
    second.terminals().expect("cold build evicts first");
    let t = server.tenant_stats("t");
    assert_eq!(t.evictions, 1, "budget 1 evicts the first graph");
    assert_eq!(t.resident_graphs, 1, "only the newest graph stays resident");

    let again = server.owned_session("t", models::DINING_ORDERED).expect("compiles");
    let warm = again.terminals().expect("reload");
    assert_eq!(warm.terminals, truth_first.terminals, "reloaded answers are identical");
    let t = server.tenant_stats("t");
    assert_eq!(t.builds, 2, "the re-ask was served from disk, not rebuilt");
    assert_eq!(t.disk_loads, 1, "the re-ask hit the store");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lru_evicts_the_coldest_graph_first_and_accounting_stays_exact() {
    // No disk: evictions here must surface as rebuilds we can count.
    // Measure each graph's charge (node count) with a throwaway
    // server, then order the models so the *middle* one is largest and
    // pick a budget that fits {A,B} and {B,C} but not {A,B,C}: C's
    // arrival must evict exactly one graph, and LRU says it must be A
    // (the coldest), while every later single eviction also suffices.
    let mut measured: Vec<(&str, usize)> = {
        let probe = Server::new(ServerConfig::new());
        [models::DINING_ORDERED, models::BRIDGE, models::SUM_WORKERS]
            .into_iter()
            .map(|src| {
                let size = probe
                    .owned_session("probe", src)
                    .expect("compiles")
                    .terminal_graph()
                    .expect("build")
                    .node_count();
                (src, size)
            })
            .collect()
    };
    measured.sort_by_key(|(_, size)| *size);
    // Largest in the middle: A and C are each no bigger than B, so
    // any resident pair {A,B}, {B,C}, {A,C} fits the budget below.
    let sources = [measured[0].0, measured[2].0, measured[1].0];
    let (a, b, c) = (measured[0].1, measured[2].1, measured[1].1);
    let budget = (a + b).max(b + c);
    assert!(a + b + c > budget, "three graphs must overflow the chosen budget");

    let server = Server::new(ServerConfig::new().budget(budget));
    server.owned_session("t", sources[0]).expect("compiles").terminals().expect("A");
    server.owned_session("t", sources[1]).expect("compiles").terminals().expect("B");
    let t = server.tenant_stats("t");
    assert_eq!(t.evictions, 0, "A+B fit the budget");
    assert_eq!(t.resident_states, a + b, "ledger charges A+B exactly");

    server.owned_session("t", sources[2]).expect("compiles").terminals().expect("C");
    let t = server.tenant_stats("t");
    assert_eq!(t.evictions, 1, "C's arrival evicts exactly one graph");
    assert_eq!(t.resident_graphs, 2);
    assert_eq!(t.resident_states, b + c, "the ledger now charges B+C: A was the victim");

    // Probe residency through hit/miss deltas: B and C hit, A misses
    // (it was evicted) and its rebuild evicts the new coldest, B.
    let before = server.tenant_stats("t");
    server.owned_session("t", sources[1]).expect("compiles").terminals().expect("B again");
    server.owned_session("t", sources[2]).expect("compiles").terminals().expect("C again");
    let after = server.tenant_stats("t");
    assert_eq!(after.hits, before.hits + 2, "B and C are resident — warm hits");
    assert_eq!(after.builds, before.builds, "no rebuilds for resident graphs");

    server.owned_session("t", sources[0]).expect("compiles").terminals().expect("A again");
    let t = server.tenant_stats("t");
    assert_eq!(t.builds, 4, "A was evicted, so re-asking rebuilds it");
    // B was touched before C just now? No: B then C re-asked above, so
    // B is colder than C; A's return must evict B.
    assert_eq!(t.resident_states, a + c, "A's return evicted the coldest survivor, B");

    // The shared map reflects the ledger: per-tenant eviction dropped
    // the entries (single tenant, so last-charge removal applies).
    assert_eq!(server.stats().entries, 2);

    // Accounting is non-negative and exact under full flush.
    server.evict_tenant("t");
    let t = server.tenant_stats("t");
    assert_eq!(t.resident_graphs, 0);
    assert_eq!(t.resident_states, 0);
    assert_eq!(server.stats().entries, 0, "flushed tenant was the last charge everywhere");
}

#[test]
fn corrupt_or_stale_store_files_fall_back_to_a_fresh_build() {
    let dir = scratch("corrupt");
    let src = models::DINING_ORDERED;

    // Seed the store, then vandalize the file.
    {
        let server = Server::new(ServerConfig::new().disk(&dir));
        server.owned_session("t", src).expect("compiles").terminals().expect("seed");
    }
    let files = store_files(&dir);
    assert_eq!(files.len(), 1);
    let good = std::fs::read(&files[0]).expect("readable");
    // Rewrite the count of the first line starting with `prefix` (its
    // first number) to a huge one: a header that must be checked
    // against the input before it sizes an allocation.
    let huge_count = |prefix: &str| -> Vec<u8> {
        let text = String::from_utf8(good.clone()).expect("store files are utf-8");
        let mut done = false;
        let lines: Vec<String> = text
            .lines()
            .map(|line| match line.strip_prefix(prefix) {
                Some(rest) if !done => {
                    done = true;
                    let tail = rest.split_once(' ').map_or("", |(_, tail)| tail);
                    format!("{prefix}1152921504606846976 {tail}").trim_end().to_string()
                }
                _ => line.to_string(),
            })
            .collect();
        assert!(done, "store file has a `{prefix}` line");
        (lines.join("\n") + "\n").into_bytes()
    };

    for (label, bytes) in [
        ("garbage", b"not a graph at all\n".to_vec()),
        ("truncated", good[..good.len() / 2].to_vec()),
        // Corrupt the trailing content-hash line: the load parses but
        // the integrity check must reject it.
        ("bad-content-hash", {
            let mut b = good.clone();
            let last = b.len() - 2;
            b[last] = if b[last] == b'0' { b'1' } else { b'0' };
            b
        }),
        // Counts far past what the file holds: rejected before they
        // size an allocation, never a panic or an abort.
        ("huge-node-count", huge_count("nodes ")),
        ("huge-vis-count", huge_count("vis ")),
        ("huge-edge-count", huge_count("e ")),
    ] {
        std::fs::write(&files[0], &bytes).expect("vandalize");
        let server = Server::new(ServerConfig::new().disk(&dir));
        let session = server.owned_session("t", src).expect("compiles");
        let set = session.terminals().unwrap_or_else(|e| panic!("{label}: query faulted: {e}"));
        assert!(!set.terminals.is_empty(), "{label}: answers survive a bad store file");
        let t = server.tenant_stats("t");
        assert_eq!(t.disk_loads, 0, "{label}: a bad file must not count as a disk load");
        assert_eq!(t.builds, 1, "{label}: a bad file falls back to a fresh build");
    }

    // The fallback build rewrote the store; a fresh server now loads
    // the repaired file.
    let healed = std::fs::read(&files[0]).expect("readable");
    assert_eq!(healed, good, "fallback build repaired the store file");
    let server = Server::new(ServerConfig::new().disk(&dir));
    server.owned_session("t", src).expect("compiles").terminals().expect("healed load");
    assert_eq!(server.tenant_stats("t").disk_loads, 1);

    let _ = std::fs::remove_dir_all(&dir);
}
