//! # concur-tasks — the fourth paradigm
//!
//! A hand-rolled, single-threaded async/await runtime: the
//! *task* discipline, alongside the threads, actors, and coroutines
//! runtimes this workspace already has. Futures are plain Rust
//! `async` blocks; suspension points are explicit (`yield_now`,
//! `wait_until`, channel receives, joins); and — the whole point —
//! **every poll-order choice is a [`concur_decide::DecisionKind::Poll`]
//! decision routed through the `concur-decide` kernel**, so a run is
//! seeded, recorded, replayable, and shrinkable exactly like a run of
//! any other paradigm.
//!
//! ## Execution model
//!
//! [`Executor::spawn`] registers tasks as `FnOnce(Ctx) -> Future`
//! closures; [`Executor::run`] drives them to completion against a
//! caller-supplied [`concur_decide::ChoiceSource`]. Each scheduling
//! round the executor gathers the *ready set* — tasks that are
//! runnable, woken by a [`std::task::Waker`], or parked on a
//! [`Ctx::wait_until`] predicate that now holds — and asks the kernel
//! which one to poll. An empty ready set with live tasks is a
//! deadlock; exceeding the step bound ([`DEFAULT_MAX_STEPS`], 100 000,
//! or [`Executor::with_max_steps`]) reports divergence. Both are
//! ordinary [`Report`] outcomes, not panics, so the conformance fuzzer
//! can cross-check them against the model's verdict.
//!
//! Tasks park (they leave the ready set) rather than spin on
//! re-polls: a spinning `wait_until` would burn unbounded `Poll`
//! decisions and look like divergence under a preemption-bounded
//! source with an exhausted budget.
//!
//! In-task nondeterminism ([`Ctx::choose`], [`Ctx::choose_delivery`])
//! suspends the future for exactly one request round-trip: the
//! executor resolves the draw through the same recording source and
//! re-polls the task immediately, without an intervening scheduling
//! decision — mirroring how the conformance harness services `Choose`
//! requests in the other disciplines.

mod channel;
mod exec;

pub use channel::{channel, Receiver, Sender};
pub use exec::{Ctx, Executor, JoinHandle, Report, DEFAULT_MAX_STEPS};
