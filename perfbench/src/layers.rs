//! Layer probes for the traced run: timed calls into the front of the
//! pipeline (parse, compile, static summaries) and seeded walks through
//! the interpreter and the symmetry canonicalizer, over the programs
//! the workload itself uses.

use crate::metrics::Ledger;
use crate::trace::Layer;
use crate::util::{median, Rng};
use crate::Ctx;
use concur_exec::{canonicalize_symmetry, Interp};
use std::time::Instant;

/// Parse, compile and summarize every source `reps` times; record the
/// median total per stage.
pub fn pipeline(ctx: &Ctx, sources: &[&str], reps: usize, ledger: &mut Ledger) {
    let (mut parse, mut compile, mut summaries) = (Vec::new(), Vec::new(), Vec::new());
    let mut instrs = 0usize;
    for _ in 0..reps {
        let (mut p, mut c, mut s) = (0.0, 0.0, 0.0);
        instrs = 0;
        for (i, src) in sources.iter().enumerate() {
            let request = i as u64;
            let begin = Instant::now();
            let program = ctx
                .tracer
                .span(Layer::Pseudocode, "parse", request, || concur_pseudocode::parse(src));
            p += begin.elapsed().as_secs_f64();
            let Ok(program) = program else {
                ctx.outcomes.check(false, || format!("source {i} does not parse"));
                continue;
            };
            let begin = Instant::now();
            let compiled = ctx
                .tracer
                .span(Layer::Program, "compile", request, || concur_exec::compile(&program));
            c += begin.elapsed().as_secs_f64();
            let Ok(compiled) = compiled else {
                ctx.outcomes.check(false, || format!("source {i} does not compile"));
                continue;
            };
            instrs += compiled.instr_count();
            let begin = Instant::now();
            let interp =
                ctx.tracer.span(Layer::Footprint, "summaries", request, || Interp::new(compiled));
            s += begin.elapsed().as_secs_f64();
            std::hint::black_box(interp);
        }
        parse.push(p * 1e3);
        compile.push(c * 1e3);
        summaries.push(s * 1e3);
    }
    ledger.set("pseudocode.parse_ms", median(&parse));
    ledger.set("pseudocode.source_bytes", sources.iter().map(|s| s.len()).sum::<usize>() as f64);
    ledger.set("program.compile_ms", median(&compile));
    ledger.set("program.instrs", instrs as f64);
    ledger.set("footprint.summaries_ms", median(&summaries));
}

/// Seeded random walks: `walks` per program, each at most `max_steps`
/// steps. Records the median cost of one `choices`, one `apply` and one
/// `canonicalize_symmetry` call, and the number of steps taken.
pub fn walks(ctx: &Ctx, interps: &[&Interp], walks: usize, max_steps: usize, ledger: &mut Ledger) {
    let mut rng = Rng::derived(ctx.seed, 0x57A1C);
    let (mut choices_ns, mut apply_ns, mut canon_ns) = (Vec::new(), Vec::new(), Vec::new());
    let mut steps = 0usize;
    for (p, interp) in interps.iter().enumerate() {
        for w in 0..walks {
            let request = (p * walks + w) as u64;
            let mut state = interp.initial_state();
            for _ in 0..max_steps {
                let begin = Instant::now();
                let choices =
                    ctx.tracer.span(Layer::Interp, "choices", request, || interp.choices(&state));
                choices_ns.push(begin.elapsed().as_nanos() as f64);
                if choices.is_empty() {
                    break;
                }
                let choice = &choices[rng.below(choices.len())];
                let begin = Instant::now();
                let applied = ctx
                    .tracer
                    .span(Layer::Interp, "apply", request, || interp.apply(&mut state, choice));
                apply_ns.push(begin.elapsed().as_nanos() as f64);
                if let Err(e) = applied {
                    ctx.outcomes.check(false, || format!("walk over program {p} faulted: {e}"));
                    break;
                }
                steps += 1;
                let mut canonical = state.clone();
                let begin = Instant::now();
                ctx.tracer.span(Layer::Intern, "canonicalize", request, || {
                    std::hint::black_box(canonicalize_symmetry(&mut canonical))
                });
                canon_ns.push(begin.elapsed().as_nanos() as f64);
            }
        }
    }
    ledger.set("interp.choices_ns", median(&choices_ns));
    ledger.set("interp.apply_ns", median(&apply_ns));
    ledger.set("interp.steps", steps as f64);
    ledger.set("intern.canonicalize_ns", median(&canon_ns));
}
