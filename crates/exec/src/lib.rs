//! # concur-exec
//!
//! Execution semantics for the Li & Kraemer (2013) concurrency
//! pseudocode: a small-step interpreter whose atomic step is exactly
//! one simple statement, pluggable schedulers, and an exhaustive
//! interleaving explorer (explicit-state model checker).
//!
//! The paper evaluates student understanding by asking *what could
//! happen* — each figure lists the possible outputs of a program, and
//! Test 1 asks whether a scenario can occur from a given situation
//! (Figures 6–7). This crate mechanizes those questions:
//!
//! * [`schedule::run`] executes a program under a scheduler
//!   (seeded-random, round-robin, or scripted replay);
//! * [`explore::Explorer::terminals`] enumerates the exact possibility
//!   set of a program (Figures 1–5);
//! * [`explore::Explorer::can_happen`] answers Test-1-style questions:
//!   given state conditions ("redCarA has called redEnter() but has
//!   not returned"), can a sequence of events happen next?
//!
//! One engine answers both: the graph builder ([`graph`]), which an
//! [`explore::Explorer`] runs afresh for every question and a
//! [`session::Session`] memoizes. [`oracle::Oracle`] answers the same
//! questions by brute force, without any reduction, as the reference
//! the builder is tested against.
//!
//! # Example: Figure 3's possibility list
//!
//! ```
//! use concur_exec::explore::terminal_outputs;
//!
//! let outputs = terminal_outputs(
//!     "PARA\n    PRINT \"hello \"\n    PRINT \"world \"\nENDPARA\n",
//! ).unwrap();
//! assert_eq!(outputs, vec!["hello world", "world hello"]);
//! ```

pub mod event;
pub mod explore;
pub mod figures;
pub mod footprint;
pub mod graph;
pub(crate) mod intern;
pub use intern::canonicalize_symmetry;
pub mod interp;
pub mod oracle;
pub mod program;
pub mod schedule;
pub mod server;
pub mod session;
pub mod spec;
pub mod state;
pub mod value;

pub use event::{Event, EventKindPattern, EventPattern, StateCond};
pub use explore::{
    Answer, Explorer, Limits, Reduction, Stats, Terminal, TerminalKind, TerminalSet,
};
pub use footprint::{EventMask, Footprint, Resource, StaticResource};
pub use graph::{GraphMeta, StateGraph, WitnessEvidence};
pub use interp::{Choice, Interp, Outcome};
pub use program::{compile, compile_source, Compiled};
pub use schedule::{
    output_set, run, run_from, run_source, RandomScheduler, ReplayScheduler, RoundRobinScheduler,
    RunResult, Scheduler, SourceScheduler,
};
pub use server::{Server, ServerConfig, ServerStats, TenantStats};
pub use session::{CacheStats, QueryCache, Session};
pub use spec::{Monitor, Region, Spec, SpecReport, SpecViolation, ViolationKind};
pub use state::{State, TaskId};
pub use value::{MessageVal, ObjId, RuntimeError, Value};
