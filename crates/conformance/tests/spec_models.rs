//! The spec-conformance battery: every bank entry decided by the
//! explorer, then prosecuted (violated specs must be exhibited) or
//! defended (holding specs must never be rejected) on all four
//! paradigms — threads, actors, coroutines, async tasks — with golden
//! regressions pinning the naive-dining and lost-update
//! counterexamples.

use concur_conformance::{
    check_entry, check_entry_with, spec_bank, Discipline, ReplaySched, SpecFuzzConfig,
    LOST_UPDATE_FIXTURE,
};
use concur_exec::{Interp, Session};

fn entry(name: &str) -> concur_conformance::SpecEntry {
    spec_bank().into_iter().find(|e| e.name == name).unwrap_or_else(|| panic!("no entry {name}"))
}

/// Cheap pass over the whole bank: explorer verdicts only (no
/// runtime hunts), pinning the expected truth of every entry.
#[test]
fn explorer_verdicts_match_the_pinned_expectations() {
    for e in spec_bank() {
        let interp = Interp::from_source(&e.model).expect(e.name);
        let session = Session::new(&interp);
        let report = session.check_spec(&e.spec).unwrap_or_else(|err| {
            panic!("{}: {err}", e.name);
        });
        assert!(report.exhaustive, "{}: verdict not exhaustive", e.name);
        assert_eq!(report.holds, e.holds, "{}: explorer verdict drifted", e.name);
        assert_eq!(
            report.violation.is_some(),
            !e.holds,
            "{}: violation evidence inconsistent with verdict",
            e.name
        );
    }
}

/// The full battery. Every token-gradable entry runs on all four
/// disciplines; holding specs must survive every schedule, violated
/// specs must be exhibited, shrunk, and dumped by each discipline.
#[test]
fn four_paradigm_battery_agrees_with_the_explorer() {
    // Dump where the environment says, so a red battery leaves its
    // counterexamples where CI uploads them; otherwise into a temp
    // directory. Integration tests run in their own process, so the
    // env var cannot leak into other test binaries.
    let dir = match std::env::var_os("CONFORMANCE_ARTIFACT_DIR") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let dir = std::env::temp_dir().join("concur-spec-models-test");
            std::env::set_var("CONFORMANCE_ARTIFACT_DIR", &dir);
            dir
        }
    };

    let config = SpecFuzzConfig::default();
    for e in spec_bank() {
        let report = check_entry(&e, &config).unwrap_or_else(|err| panic!("{err}"));
        if !e.token_gradable || e.fixture.is_none() {
            continue;
        }
        assert_eq!(report.per_discipline.len(), 4, "{}: a discipline went missing", e.name);
        for d in &report.per_discipline {
            if e.holds {
                assert_eq!(
                    d.violating,
                    0,
                    "{}/{}: holding spec saw rejecting traces",
                    e.name,
                    d.discipline.label()
                );
            } else {
                let minimal = d.minimal.as_ref().unwrap_or_else(|| {
                    panic!("{}/{}: no minimal witness", e.name, d.discipline.label())
                });
                assert!(d.violating > 0, "{}: witness without violating runs", e.name);
                // The dumped artifact replays the violation.
                let path =
                    dir.join(format!("spec-{}-{}.schedule.txt", e.name, d.discipline.label()));
                let body = std::fs::read_to_string(&path)
                    .unwrap_or_else(|_| panic!("{}: artifact {path:?} missing", e.name));
                let parsed = concur_decide::TraceArtifact::parse(&body).expect("artifact parses");
                assert_eq!(&parsed.decisions, minimal, "{}: artifact decisions drifted", e.name);
            }
        }
    }
}

/// Golden regression: the naive dining philosophers' deadlock starves
/// the eat tokens in every paradigm, and the cooperative runtimes
/// bottom out in the same pinned three-decision schedule the
/// membership fuzzer's shrinker finds.
#[test]
fn golden_naive_dining_counterexample_is_pinned() {
    let e = entry("dining_naive_both_eat");
    let report = check_entry(&e, &SpecFuzzConfig::default()).unwrap_or_else(|err| panic!("{err}"));
    assert!(!report.explorer.holds);
    let fixture = concur_conformance::FIXTURES
        .iter()
        .find(|f| f.name == "dining_naive")
        .expect("dining_naive fixture");
    let monitor = e.spec.compile().expect("compiles");
    for d in &report.per_discipline {
        let minimal = d.minimal.clone().expect("witness in every paradigm");
        // Replay the minimal schedule and re-grade: it must still
        // starve a token (for this spec, only a deadlock can).
        let out = (fixture.run)(d.discipline, &mut ReplaySched::new(minimal.clone()));
        assert!(out.run.deadlocked, "{}: minimal witness is not a deadlock", d.discipline.label());
        assert_eq!(monitor.grade_tokens(&out.tokens), Ok(false));
        if matches!(d.discipline, Discipline::Coroutines | Discipline::Tasks) {
            // Two decisions: hand each philosopher its first fork,
            // then the crossed second takes wedge on their own.
            assert_eq!(
                minimal,
                vec![1, 1],
                "{}: pinned minimal deadlock schedule drifted",
                d.discipline.label()
            );
        }
    }
}

/// Golden regression: the lost update leaves the request token 9
/// unanswered in every paradigm (`responds_to` violated), pinned to
/// the same minimal one-decision schedule on threads that the
/// membership-fuzzer regression pins.
#[test]
fn golden_lost_update_responds_to_counterexample_is_pinned() {
    let e = entry("lost_update_responds");
    assert!(e.fixture.is_none(), "synthetic entry must not name a FIXTURES member");
    let report = check_entry_with(&e, Some(&LOST_UPDATE_FIXTURE), &SpecFuzzConfig::default())
        .unwrap_or_else(|err| panic!("{err}"));
    assert!(!report.explorer.holds);
    assert_eq!(report.per_discipline.len(), 4);
    let monitor = e.spec.compile().expect("compiles");
    for d in &report.per_discipline {
        let minimal = d.minimal.clone().expect("witness in every paradigm");
        let out = (LOST_UPDATE_FIXTURE.run)(d.discipline, &mut ReplaySched::new(minimal.clone()));
        assert!(!out.run.deadlocked && !out.run.diverged);
        assert_eq!(
            out.tokens,
            vec![9, 1],
            "{}: witness is not a lost update",
            d.discipline.label()
        );
        assert_eq!(monitor.grade_tokens(&out.tokens), Ok(false));
        match d.discipline {
            // Two picks interleave the read-modify-writes.
            Discipline::Threads => {
                assert_eq!(minimal, vec![1, 1], "threads: pinned lost-update schedule drifted");
            }
            // One delivery pick: both Gets served before either Set.
            Discipline::Actors => {
                assert_eq!(minimal, vec![2], "actors: pinned lost-update schedule drifted");
            }
            _ => {}
        }
    }
}
