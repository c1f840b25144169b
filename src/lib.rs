//! # concur — programming with concurrency: threads, actors, and coroutines
//!
//! Facade crate re-exporting the whole workspace. See the README for an
//! architecture overview and `DESIGN.md` for the paper-reproduction
//! inventory.

pub use concur_actors as actors;
pub use concur_coroutines as coroutines;
pub use concur_decide as decide;
pub use concur_exec as exec;
pub use concur_problems as problems;
pub use concur_pseudocode as pseudocode;
pub use concur_study as study;
pub use concur_threads as threads;

/// The build-once-query-many entry points: memoized query sessions
/// over persistent state graphs (see `concur_exec::session`).
pub use concur_exec::{
    GraphMeta, QueryCache, Server, ServerConfig, ServerStats, Session, StateGraph, TenantStats,
};
