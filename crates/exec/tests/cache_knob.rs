//! Regression test for the `CONCUR_QUERY_CACHE` knob.
//!
//! The knob picks only the store of sessions opened without one, and
//! it is read once per process: a knob consulted at every cache
//! construction would race every thread of a test binary that mutates
//! it. A `QueryCache` given explicitly memoizes whatever the
//! environment says.
//!
//! Everything lives in one `#[test]` on purpose: these assertions
//! mutate the process environment, and sibling tests in the same
//! binary run on other threads.

use concur_exec::{QueryCache, Session};
use std::sync::Arc;

const MODEL: &str = r#"
x = 0

PARA
    x = x + 1
    x = x + 1
ENDPARA

PRINTLN x
"#;

/// Whether a session opened without a store answers a repeat query
/// from a stored graph.
fn default_store_memoizes() -> bool {
    let session = Session::from_source(MODEL).expect("compiles");
    session.terminals().expect("first query");
    session.terminals().expect("second query").stats.cache_hits == 1
}

#[test]
fn the_knob_picks_the_default_store_once() {
    // 1. The default store follows the environment at its first use,
    //    and later mutations do not reach it.
    let ambient_on = std::env::var("CONCUR_QUERY_CACHE").map_or(true, |v| v.trim() != "0");
    assert_eq!(default_store_memoizes(), ambient_on, "the default store follows the knob");
    std::env::set_var("CONCUR_QUERY_CACHE", if ambient_on { "0" } else { "1" });
    assert_eq!(default_store_memoizes(), ambient_on, "the knob is read once per process");

    // 2. An explicit cache memoizes whatever the environment says.
    for value in ["0", "1"] {
        std::env::set_var("CONCUR_QUERY_CACHE", value);
        let cache = Arc::new(QueryCache::new());
        let session = Session::from_source(MODEL).unwrap().with_cache(Arc::clone(&cache));
        session.terminals().expect("first query builds");
        session.terminals().expect("second query hits");
        let stats = cache.stats();
        assert_eq!(
            (stats.builds, stats.hits, stats.entries),
            (1, 1, 1),
            "an explicit cache memoizes under CONCUR_QUERY_CACHE={value}"
        );
    }
    std::env::remove_var("CONCUR_QUERY_CACHE");
}
