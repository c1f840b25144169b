//! Schedule fuzzing with a differential oracle and automatic
//! shrinking.
//!
//! For each fixture the driver first explores the pseudocode model
//! exhaustively (erroring if the explorer truncates — models are sized
//! so it never does), then executes the problem under every discipline
//! on two schedule families:
//!
//! * **systematic** — [`BoundedSched`] decodes a schedule index into a
//!   mixed-radix decision sequence under a preemption budget, walking
//!   the low-preemption neighbourhood that finds most concurrency bugs
//!   (preemption bounding à la CHESS);
//! * **random** — [`RandomSched`] seeded from `FUZZ_SEED`, covering
//!   the long tail.
//!
//! Every run is checked against the oracle:
//!
//! 1. the run must not diverge,
//! 2. the problem's own invariant validator must pass,
//! 3. a deadlock is accepted only if the model provably deadlocks,
//! 4. otherwise the observation must be a member of the model's
//!    exhaustive output set.
//!
//! A failing schedule is first replayed from its recorded decision
//! vector (replay determinism is itself asserted), then shrunk to a
//! minimal failing vector by the kernel's [`concur_decide::shrink`]
//! (prefix truncation + entry zeroing), and finally dumped in the
//! universal trace-artifact format ([`concur_decide::artifact`]) under
//! `$CONFORMANCE_ARTIFACT_DIR` (default `target/conformance/`).
//!
//! After all schedules pass, the observable-output sets of the four
//! disciplines are compared with each other and with the model
//! (*cross-model agreement*), and one passing trace per discipline is
//! re-checked through [`Session::admits_trace`], exercising the
//! event-level membership entry point against the memoized state
//! graph.

use crate::exec::{BoundedSched, RandomSched, ReplaySched};
use crate::problems::{Discipline, Fixture, Outcome, FIXTURES};
use concur_decide::{shrink, TraceArtifact};
use concur_exec::{EventKindPattern, EventPattern, Interp, Session, TerminalSet};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Knobs for one fuzzing campaign. `FUZZ_SEED` and `FUZZ_ITERS`
/// override the base seed and random-phase iteration count from the
/// environment (see README).
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Base seed; per-run seeds are derived from it, the fixture name,
    /// the discipline, and the iteration index.
    pub seed: u64,
    /// Random schedules per problem per discipline.
    pub iters: usize,
    /// Systematic schedule indices tried per preemption bound.
    pub systematic: usize,
    /// Preemption budgets explored systematically (0..=bound).
    pub preempt_bound: usize,
    /// Enforce cross-discipline output-set agreement (needs enough
    /// iterations to saturate the sets; disable for tiny smoke runs).
    pub check_agreement: bool,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        // 4 bounds x 100 indices + 700 random = 1100 schedules per
        // problem per discipline.
        FuzzConfig {
            seed: 0xC0FFEE,
            iters: 700,
            systematic: 100,
            preempt_bound: 3,
            check_agreement: true,
        }
    }
}

impl FuzzConfig {
    /// Default config with `FUZZ_SEED` / `FUZZ_ITERS` / `FUZZ_FAMILY`
    /// applied. `FUZZ_FAMILY=systematic` drops the random phase and
    /// `FUZZ_FAMILY=random` drops the systematic one (any other value,
    /// including `combined`, keeps both); a single family cannot
    /// saturate the output sets, so it also disables the agreement
    /// check — membership is still enforced on every run.
    pub fn from_env() -> Self {
        let mut cfg = FuzzConfig::default();
        if let Some(seed) = std::env::var("FUZZ_SEED").ok().and_then(|s| s.parse().ok()) {
            cfg.seed = seed;
        }
        if let Some(iters) = std::env::var("FUZZ_ITERS").ok().and_then(|s| s.parse().ok()) {
            cfg.iters = iters;
        }
        match std::env::var("FUZZ_FAMILY").as_deref() {
            Ok("systematic") => {
                cfg.iters = 0;
                cfg.check_agreement = false;
            }
            Ok("random") => {
                cfg.systematic = 0;
                cfg.check_agreement = false;
            }
            _ => {}
        }
        cfg
    }

    /// Total schedules driven per (problem, discipline) pair.
    pub fn schedules_per_discipline(&self) -> usize {
        self.systematic * (self.preempt_bound + 1) + self.iters
    }
}

/// What the fuzzer observed for one discipline of one problem.
#[derive(Debug, Clone)]
pub struct DisciplineReport {
    pub discipline: Discipline,
    pub schedules: usize,
    pub outputs: BTreeSet<String>,
    pub deadlocks: usize,
}

/// Per-problem campaign summary.
#[derive(Debug)]
pub struct ProblemReport {
    pub name: &'static str,
    pub model_outputs: BTreeSet<String>,
    pub model_deadlock: bool,
    pub per_discipline: Vec<DisciplineReport>,
}

impl ProblemReport {
    pub fn total_schedules(&self) -> usize {
        self.per_discipline.iter().map(|d| d.schedules).sum()
    }
}

/// A conformance failure, carrying the (shrunk) decision vector that
/// replays it deterministically.
#[derive(Debug)]
pub struct ConformanceError {
    pub problem: String,
    pub discipline: Option<Discipline>,
    pub detail: String,
    /// Minimal failing decision vector (empty for non-schedule
    /// failures such as model truncation or set disagreement).
    pub decisions: Vec<usize>,
    /// Where the replayable artifact was written, if it was.
    pub artifact: Option<PathBuf>,
}

impl fmt::Display for ConformanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}", self.problem)?;
        if let Some(d) = self.discipline {
            write!(f, "/{}", d.label())?;
        }
        write!(f, "] {}", self.detail)?;
        if !self.decisions.is_empty() {
            write!(f, "; minimal failing schedule {:?}", self.decisions)?;
        }
        if let Some(p) = &self.artifact {
            write!(f, "; artifact {}", p.display())?;
        }
        Ok(())
    }
}

impl std::error::Error for ConformanceError {}

/// Classify one outcome against the model oracle. `None` = conformant.
fn check_outcome(out: &Outcome, model: &TerminalSet, model_deadlock: bool) -> Option<String> {
    if out.run.diverged {
        return Some("run diverged (step budget exhausted)".to_string());
    }
    if let Some(v) = &out.violation {
        return Some(format!("invariant violation: {v}"));
    }
    if out.run.deadlocked {
        if model_deadlock {
            return None;
        }
        return Some("run deadlocked but the model admits no deadlock".to_string());
    }
    let obs = out.obs.as_deref().unwrap_or_default();
    if !model.contains_output(obs) {
        return Some(format!("observation \"{obs}\" is not in the model's terminal set"));
    }
    None
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn derive_seed(base: u64, name: &str, discipline: Discipline, iter: usize) -> u64 {
    let mut h = base;
    for b in name.bytes() {
        h = splitmix64(h ^ u64::from(b));
    }
    h = splitmix64(h ^ discipline.label().len() as u64 ^ (discipline as u64) << 32);
    splitmix64(h ^ iter as u64)
}

/// Artifact directory shared by every trace dumper in this crate
/// (fuzzer failures here, real-runtime chaos failures in
/// [`crate::real`]): `$CONFORMANCE_ARTIFACT_DIR`, default
/// `target/conformance/`.
pub(crate) fn artifact_dir() -> PathBuf {
    std::env::var("CONFORMANCE_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("target/conformance"))
}

/// Best-effort write of a universal trace artifact (see
/// `concur_decide::artifact`). IO failures are swallowed — the
/// decision vector is also in the error itself.
pub(crate) fn write_artifact(file_stem: &str, artifact: &TraceArtifact) -> Option<PathBuf> {
    write_artifact_in(&artifact_dir(), file_stem, artifact)
}

/// [`write_artifact`] into `dir`. The artifact is replaced whole: its
/// text goes to a temporary file no other writer names, in the same
/// directory, which is then renamed over it. A reader therefore sees
/// the old artifact or the new one, never a half-written file.
fn write_artifact_in(dir: &Path, file_stem: &str, artifact: &TraceArtifact) -> Option<PathBuf> {
    static NEXT_TMP: AtomicU64 = AtomicU64::new(0);
    std::fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{file_stem}.schedule.txt"));
    let n = NEXT_TMP.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".{file_stem}.{}.{n}.tmp", std::process::id()));
    match std::fs::write(&tmp, artifact.render()).and_then(|()| std::fs::rename(&tmp, &path)) {
        Ok(()) => Some(path),
        Err(_) => {
            let _ = std::fs::remove_file(&tmp);
            None
        }
    }
}

/// Dump a shrunk failing fuzzer schedule as a replayable artifact.
fn dump_artifact(
    fixture: &Fixture,
    discipline: Discipline,
    detail: &str,
    decisions: &[usize],
) -> Option<PathBuf> {
    let artifact = TraceArtifact::from_picks(fixture.name, discipline.label(), detail, decisions);
    write_artifact(&format!("{}-{}", fixture.name, discipline.label()), &artifact)
}

fn fail(
    fixture: &Fixture,
    discipline: Discipline,
    detail: String,
    decisions: Vec<usize>,
    model: &TerminalSet,
    model_deadlock: bool,
) -> ConformanceError {
    // Replay determinism: the recorded vector must reproduce *a*
    // failure. If it does not, that is itself the bug to report.
    let replay_fails = |d: &[usize]| {
        let mut sched = ReplaySched::new(d.to_vec());
        let out = (fixture.run)(discipline, &mut sched);
        check_outcome(&out, model, model_deadlock).is_some()
    };
    if !replay_fails(&decisions) {
        return ConformanceError {
            problem: fixture.name.to_string(),
            discipline: Some(discipline),
            detail: format!("{detail} — AND the recorded schedule did not replay the failure"),
            decisions,
            artifact: None,
        };
    }
    let minimal = shrink(decisions, replay_fails);
    let artifact = dump_artifact(fixture, discipline, &detail, &minimal);
    ConformanceError {
        problem: fixture.name.to_string(),
        discipline: Some(discipline),
        detail,
        decisions: minimal,
        artifact,
    }
}

/// Fuzz one fixture under all three disciplines against its model.
pub fn fuzz_problem(
    fixture: &Fixture,
    config: &FuzzConfig,
) -> Result<ProblemReport, ConformanceError> {
    let model_err = |detail: String| ConformanceError {
        problem: fixture.name.to_string(),
        discipline: None,
        detail,
        decisions: Vec::new(),
        artifact: None,
    };

    let interp = Interp::from_source(fixture.model)
        .map_err(|e| model_err(format!("model does not parse: {e}")))?;
    // The memoized query layer: the terminal oracle and every
    // admits_trace re-query below read one cached graph per model
    // (Printed-pattern text is coarsened out of the cache key), and
    // repeated campaigns over the same fixtures rebuild nothing.
    let session = Session::new(&interp);
    let model =
        session.terminals().map_err(|e| model_err(format!("model exploration failed: {e}")))?;
    if model.stats.truncated {
        return Err(model_err("model exploration truncated; shrink the model config".into()));
    }
    let model_deadlock = model.has_deadlock();
    if model_deadlock != fixture.can_deadlock {
        return Err(model_err(format!(
            "fixture says can_deadlock={} but the model says {}",
            fixture.can_deadlock, model_deadlock
        )));
    }
    let model_outputs = model.output_set();

    let mut per_discipline = Vec::new();
    for discipline in Discipline::ALL {
        let mut outputs = BTreeSet::new();
        let mut deadlocks = 0usize;
        let mut schedules = 0usize;
        let mut witness: Option<String> = None;

        let observe = |out: &Outcome,
                       outputs: &mut BTreeSet<String>,
                       deadlocks: &mut usize,
                       witness: &mut Option<String>| {
            if out.run.deadlocked {
                *deadlocks += 1;
            } else if let Some(obs) = &out.obs {
                outputs.insert(obs.clone());
                if witness.is_none() {
                    *witness = Some(obs.clone());
                }
            }
        };

        // Systematic phase: preemption-bounded schedule enumeration.
        for bound in 0..=config.preempt_bound {
            for idx in 0..config.systematic {
                let mut sched = BoundedSched::new(idx as u64, bound);
                let out = (fixture.run)(discipline, &mut sched);
                schedules += 1;
                if let Some(detail) = check_outcome(&out, &model, model_deadlock) {
                    return Err(fail(
                        fixture,
                        discipline,
                        format!("systematic schedule (index {idx}, bound {bound}): {detail}"),
                        out.run.decisions,
                        &model,
                        model_deadlock,
                    ));
                }
                observe(&out, &mut outputs, &mut deadlocks, &mut witness);
            }
        }

        // Random phase.
        for iter in 0..config.iters {
            let seed = derive_seed(config.seed, fixture.name, discipline, iter);
            let mut sched = RandomSched::new(seed);
            let out = (fixture.run)(discipline, &mut sched);
            schedules += 1;
            if let Some(detail) = check_outcome(&out, &model, model_deadlock) {
                return Err(fail(
                    fixture,
                    discipline,
                    format!("random schedule (seed {seed:#x}): {detail}"),
                    out.run.decisions,
                    &model,
                    model_deadlock,
                ));
            }
            observe(&out, &mut outputs, &mut deadlocks, &mut witness);
        }

        // Event-level membership: one passing observation, re-asked as
        // an ordered Printed-trace query against the explorer.
        if let Some(obs) = &witness {
            let trace: Vec<EventPattern> = obs
                .split_whitespace()
                .map(|tok| EventPattern::any(EventKindPattern::Printed { text: tok.to_string() }))
                .collect();
            let answer = session
                .admits_trace(&trace)
                .map_err(|e| model_err(format!("admits_trace failed: {e}")))?;
            if !answer.is_yes() {
                return Err(model_err(format!(
                    "trace {obs:?} accepted by output oracle but rejected by admits_trace \
                     ({})",
                    discipline.label()
                )));
            }
        }

        per_discipline.push(DisciplineReport { discipline, schedules, outputs, deadlocks });
    }

    // Cross-model agreement: every discipline saw exactly the model's
    // output set (memberships were already enforced per-run, so a
    // mismatch here means a discipline failed to *reach* some model
    // output with the configured budget).
    if config.check_agreement {
        for report in &per_discipline {
            if report.outputs != model_outputs {
                let missing: Vec<_> = model_outputs.difference(&report.outputs).collect();
                return Err(model_err(format!(
                    "cross-model disagreement: {} saw {} of {} model outputs (missing {:?}) \
                     after {} schedules",
                    report.discipline.label(),
                    report.outputs.len(),
                    model_outputs.len(),
                    missing,
                    report.schedules,
                )));
            }
        }
        if fixture.can_deadlock {
            for report in &per_discipline {
                if report.deadlocks == 0 {
                    return Err(model_err(format!(
                        "model deadlocks but {} never did in {} schedules",
                        report.discipline.label(),
                        report.schedules,
                    )));
                }
            }
        }
    }

    Ok(ProblemReport { name: fixture.name, model_outputs, model_deadlock, per_discipline })
}

/// Fuzz every fixture. Returns per-problem reports, or the first
/// conformance failure.
pub fn fuzz_all(config: &FuzzConfig) -> Result<Vec<ProblemReport>, ConformanceError> {
    FIXTURES.iter().map(|f| fuzz_problem(f, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dumped_artifacts_parse_back_as_universal_trace_artifacts() {
        let art = TraceArtifact::from_picks("p", "threads", "boom", &[1, 0, 2]);
        let parsed = TraceArtifact::parse(&art.render()).expect("round-trips");
        assert_eq!(parsed.decisions, vec![1, 0, 2]);
    }

    /// Rewriting an artifact never exposes a partial file: every read
    /// of it parses while two writers keep rewriting it with texts of
    /// varying length. The writers start before the first read and stop
    /// only after the last.
    #[test]
    fn artifacts_rewritten_under_a_reader_always_parse() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        let dir =
            std::env::temp_dir().join(format!("concur-artifact-rewrite-{}", std::process::id()));
        let first = TraceArtifact::from_picks("p", "threads", "boom", &[0]);
        let path = write_artifact_in(&dir, "rewrite", &first).expect("first write");
        let (started, stop) = (Barrier::new(3), AtomicBool::new(false));
        let partial = std::thread::scope(|scope| {
            for w in 1..=2usize {
                let (dir, started, stop) = (&dir, &started, &stop);
                scope.spawn(move || {
                    started.wait();
                    for i in (0..).take_while(|_| !stop.load(Ordering::Relaxed)) {
                        let picks = vec![w; 1 + (i * 7 + w) % 60];
                        let art = TraceArtifact::from_picks("p", "threads", "boom", &picks);
                        write_artifact_in(dir, "rewrite", &art).expect("rewrite");
                    }
                });
            }
            started.wait();
            let partial = (0..500).find_map(|read| {
                let body = std::fs::read_to_string(&path).unwrap_or_default();
                TraceArtifact::parse(&body).is_err().then(|| format!("read {read}: {body:?}"))
            });
            stop.store(true, Ordering::Relaxed);
            partial
        });
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(partial, None, "a read saw a missing or partial artifact");
    }

    #[test]
    fn derived_seeds_differ_across_iterations_and_disciplines() {
        let a = derive_seed(1, "dining", Discipline::Threads, 0);
        let b = derive_seed(1, "dining", Discipline::Threads, 1);
        let c = derive_seed(1, "dining", Discipline::Actors, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn schedules_per_discipline_meets_the_budget_floor() {
        assert!(FuzzConfig::default().schedules_per_discipline() >= 1000);
    }
}
