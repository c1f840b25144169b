//! Single-flight property test: N threads race one cold key, and the
//! server performs *exactly one* graph build while the other N−1 park
//! on the flight record and reuse the published graph.
//!
//! Determinism comes from the server's `build_hold` test hook: the
//! winning builder blocks inside the build critical section until the
//! server's aggregate parked-waiter count reaches N−1, so every racer
//! is *provably* parked (not merely late) before the build completes.
//! The shared-`Arc` assertion is by pointer, not value: all N clients
//! hold the same allocation.

use concur_exec::{Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

const RACERS: usize = 16;

const MODEL: &str = r#"
counter = 0

DEFINE bump()
    EXC_ACC
        counter = counter + 1
    END_EXC_ACC
ENDDEF

PARA
    bump()
    bump()
ENDPARA

PRINTLN counter
"#;

#[test]
fn n_racers_one_build_shared_arc() {
    // The hold hook needs the server's own stats, but the server does
    // not exist until the config does — thread it through a cell.
    let cell: Arc<OnceLock<Server>> = Arc::new(OnceLock::new());
    let hold_cell = Arc::clone(&cell);
    let mut config = ServerConfig::new();
    config.build_hold = Some(Arc::new(move || {
        let server = hold_cell.get().expect("server installed before queries");
        while server.stats().parked_waiters < RACERS - 1 {
            std::thread::yield_now();
        }
    }));
    let server = Server::new(config);
    cell.set(server.clone()).ok().expect("fresh cell");

    let interp = concur_exec::Interp::from_source(MODEL).expect("model compiles");
    let graphs: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..RACERS)
            .map(|i| {
                let server = server.clone();
                let interp = &interp;
                scope.spawn(move || {
                    server
                        .session(&format!("racer-{i}"), interp)
                        .terminal_graph()
                        .expect("query succeeds")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("racer thread")).collect()
    });

    // One allocation for everyone.
    for graph in &graphs[1..] {
        assert!(
            Arc::ptr_eq(&graphs[0], graph),
            "racers received distinct graph allocations — single-flight failed"
        );
    }

    let stats = server.stats();
    assert_eq!(stats.builds, 1, "exactly one build for one cold key");
    assert_eq!(stats.parked_waiters, RACERS - 1, "every non-builder parked");
    assert_eq!(stats.misses, RACERS, "all racers arrived before the graph existed");
    assert_eq!(stats.hits, 0, "nobody could hit a cold cache");
    assert_eq!(stats.entries, 1, "the built graph is resident");
    assert_eq!(stats.tenants, RACERS, "each racer is its own tenant");

    // A latecomer hits without building.
    let again = server.session("latecomer", &interp).terminal_graph().expect("warm query");
    assert!(Arc::ptr_eq(&graphs[0], &again), "warm hit returns the resident allocation");
    let stats = server.stats();
    assert_eq!(stats.builds, 1, "warm hit built nothing");
    assert_eq!(stats.hits, 1);
}

#[test]
fn failed_build_reaches_every_racer_and_unwedges_the_key() {
    // A model whose exploration faults at runtime: every racer must
    // observe the error (not hang), and the key must not stay wedged —
    // a later query retries the build.
    // `IF` on an integer faults at evaluation time.
    const FAULTY: &str = r#"
x = 5

IF x THEN
    PRINTLN x
ENDIF
"#;
    let server = Server::new(ServerConfig::new());
    let interp = concur_exec::Interp::from_source(FAULTY).expect("model compiles");
    let errors: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let server = server.clone();
                let interp = &interp;
                scope.spawn(move || server.session("t", interp).terminal_graph())
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("racer thread")).collect()
    });
    for result in &errors {
        assert!(result.is_err(), "every racer observes the build failure");
    }
    let stats = server.stats();
    assert_eq!(stats.entries, 0, "a failed build leaves nothing resident");
    // The key is not wedged: retrying re-attempts the build.
    assert!(server.session("t", &interp).terminal_graph().is_err());
    assert!(stats.misses >= 1);
}

#[test]
fn panicking_build_fails_every_client_and_unwedges_the_key() {
    // The first build panics inside the single-flight critical section
    // once the other client has parked on it. Both clients must get an
    // error instead of blocking forever, nothing may stay resident, and
    // a retry on the same key must build once and succeed. The clients
    // run on detached threads and report over a channel, so a wedged
    // key fails the test by timeout instead of hanging it.
    let cell: Arc<OnceLock<Server>> = Arc::new(OnceLock::new());
    let hold_cell = Arc::clone(&cell);
    let panicked = Arc::new(AtomicBool::new(false));
    let mut config = ServerConfig::new();
    config.build_hold = Some(Arc::new(move || {
        if panicked.swap(true, Ordering::SeqCst) {
            return;
        }
        let server = hold_cell.get().expect("server installed before queries");
        while server.stats().parked_waiters < 1 {
            std::thread::yield_now();
        }
        panic!("injected build panic");
    }));
    let server = Server::new(config);
    cell.set(server.clone()).ok().expect("fresh cell");

    let (tx, rx) = mpsc::channel();
    let clients: Vec<_> = (0..2)
        .map(|i| {
            let server = server.clone();
            let tx = tx.clone();
            std::thread::spawn(move || {
                let session =
                    server.owned_session(&format!("client-{i}"), MODEL).expect("model compiles");
                let _ = tx.send(session.terminals().map(|set| set.terminals));
            })
        })
        .collect();
    drop(tx);
    let results: Vec<_> = (0..2)
        .map(|_| {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("a client never returned: the panicked build wedged its key")
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    for result in &results {
        assert!(result.is_err(), "the builder and the waiter both observe the panic");
    }
    let stats = server.stats();
    assert_eq!(stats.entries, 0, "a panicked build leaves nothing resident");
    assert_eq!(stats.parked_waiters, 1, "one client parked behind the build");

    let retry = server.owned_session("client-0", MODEL).expect("model compiles").terminals();
    assert!(retry.is_ok(), "the retry builds afresh: {retry:?}");
    let stats = server.stats();
    assert_eq!(stats.builds, 1, "the retry built exactly once");
    assert_eq!(stats.entries, 1, "the retried graph is resident");
}
