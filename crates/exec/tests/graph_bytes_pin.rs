//! Byte pins for stored state graphs.
//!
//! A build is byte-identical at every worker count, and that is tested
//! within one version. These pins hold the same bytes across versions:
//! a change to how states are represented, copied or interned must not
//! move a stored graph. Each pin is the length and an FNV-1a digest of
//! `to_bytes()` for three graphs that between them exercise symmetry,
//! sleep sets and message passing, at one worker and at four. A
//! deliberate change of the graph (a new orbit order, a new reduction)
//! re-pins here and says why in CHANGES.md.

use concur_exec::{figures, Interp, QueryCache, Reduction, Session};
use std::sync::Arc;

/// FNV-1a, 64-bit: a digest with no dependency on the crate's hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `to_bytes()` of `source`'s terminal graph under `reduction`, built
/// by `workers` threads from a fresh cache.
fn stored_bytes(source: &str, reduction: Reduction, workers: usize) -> Vec<u8> {
    let interp = Interp::from_source(source).expect("compiles");
    Session::new(&interp)
        .with_threads(workers)
        .with_reduction(reduction)
        .with_cache(Arc::new(QueryCache::new()))
        .terminal_graph()
        .expect("builds")
        .to_bytes()
}

#[test]
fn stored_graph_bytes_are_pinned() {
    let pins: [(&str, String, Reduction, usize, u64); 3] = [
        ("dining(4) FULL", figures::dining(4), Reduction::FULL, 14_942, 0xf9e6_9b57_e15d_f5c5),
        (
            "naive dining(3) FULL",
            figures::dining_naive(3),
            Reduction::FULL,
            175_960,
            0x75ad_6c43_b1b9_155f,
        ),
        (
            "FIG5 default stack",
            figures::FIG5_MESSAGE_PASSING.to_string(),
            Reduction::default(),
            279,
            0xc8f0_430f_3ba4_741c,
        ),
    ];
    let mut moved = Vec::new();
    for (name, source, reduction, len, digest) in &pins {
        for workers in [1, 4] {
            let bytes = stored_bytes(source, *reduction, workers);
            let got = (bytes.len(), fnv1a(&bytes));
            println!("{name} at {workers} worker(s): {} bytes, digest {:#018x}", got.0, got.1);
            if got != (*len, *digest) {
                moved.push(format!("{name} at {workers} worker(s): {got:?}"));
            }
        }
    }
    assert!(moved.is_empty(), "stored graphs moved: {moved:?}");
}
