//! The checker's benchmark: one seeded workload per run.
//!
//! ```text
//! perfbench --workload <bank|scale|service|fuzz> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every graph build is pinned to one worker (`with_threads(1)`) and an
//! explicit reduction stack, so neither the `CONCUR_*` variables nor the
//! machine's parallelism change the program being measured.
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A ledger with
//! both, the per-program state counts and the request-order digest is
//! written to `.perfbench_runs/` in the working directory (the traced
//! run also writes its spans there); `perfbench/selftest.py` reads it.

mod bank;
mod fuzz;
mod layers;
mod metrics;
mod scale;
mod service;
mod trace;
mod util;

use metrics::{Ledger, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;
use util::Outcomes;

/// Set-up repetitions per run, at least; `setup_s` is their median.
pub const SETUP_REPS: usize = 25;
/// How long a run repeats its set-up, at least. Set-up is timed only
/// when the run starts: later, it also measures the heap the workload
/// has left behind.
pub const SETUP_WINDOW: Duration = Duration::from_secs(1);

/// Everything a workload needs from the command line, plus the run's
/// tracer and outcome ledger.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub start: Instant,
    pub tracer: Tracer,
    pub outcomes: Outcomes,
    pub out_dir: PathBuf,
}

impl Ctx {
    /// When the measured phases should be over.
    pub fn deadline(&self) -> Instant {
        self.start + Duration::from_secs_f64(self.seconds)
    }
}

/// What a workload hands back.
pub struct RunResult {
    pub ledger: Ledger,
    /// Graph states per program, which a new seed must not change.
    pub programs: Vec<(String, usize)>,
    /// Digest of the request order, which a new seed must change.
    pub order_digest: u64,
}

impl RunResult {
    pub fn new(ledger: Ledger) -> RunResult {
        RunResult { ledger, programs: Vec::new(), order_digest: 0 }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.ok_or("--trace is required")?,
    })
}

/// A JSON number: finite values as measured, anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(names: &[(&str, &str)], ledger: &Ledger) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in names.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(ledger.get(name))
        );
    }
    out.push('}');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run: fn(&Ctx) -> RunResult = match args.workload.as_str() {
        "bank" => bank::run,
        "scale" => scale::run,
        "service" => service::run,
        "fuzz" => fuzz::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (bank, scale, service, fuzz)");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(".perfbench_runs");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        start: Instant::now(),
        tracer: Tracer::new(args.traced),
        outcomes: Outcomes::default(),
        out_dir,
    };

    let mut result = run(&ctx);
    ctx.tracer.set(false);
    let ledger = &mut result.ledger;
    ledger.set("peak_rss_mb", util::peak_rss_mb());
    let stem = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.traced));
    if args.traced {
        for (layer, time) in ctx.tracer.self_times() {
            ledger.set(layer.self_metric(), util::ms(time));
        }
        ledger.set("trace.spans", ctx.tracer.span_count() as f64);
        let spans = ctx.out_dir.join(format!("{stem}.spans.jsonl"));
        if let Err(e) = ctx.tracer.write_jsonl(&spans) {
            eprintln!("perfbench: cannot write {}: {e}", spans.display());
        }
    }
    let (attempted, failed, notes) = ctx.outcomes.totals();
    for note in &notes {
        eprintln!("perfbench: FAILED {note}");
    }

    let end_to_end: Vec<(&str, &str)> = END_TO_END.to_vec();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|(n, u, _)| (*n, *u)).collect();
    let exact: Vec<String> =
        PER_LAYER.iter().filter(|m| m.2).map(|(n, _, _)| format!("\"{n}\"")).collect();
    let programs: Vec<String> =
        result.programs.iter().map(|(n, s)| format!("\"{n}\": {s}")).collect();
    let ledger_json = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"correct\": {}, \"attempted\": {attempted}, \
         \"failed\": {failed}, \"order_digest\": \"{:016x}\", \"programs\": {{{}}}, \"exact\": [{}], \
         \"end_to_end\": {}, \"per_layer\": {}}}\n",
        args.workload,
        args.seed,
        args.traced,
        failed == 0,
        result.order_digest,
        programs.join(", "),
        exact.join(", "),
        metrics_json(&end_to_end, ledger),
        metrics_json(&per_layer, ledger),
    );
    let ledger_path = ctx.out_dir.join(format!("{stem}.json"));
    if let Err(e) = std::fs::write(&ledger_path, ledger_json) {
        eprintln!("perfbench: cannot write {}: {e}", ledger_path.display());
    }

    let reported = if args.traced { &per_layer } else { &end_to_end };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(reported, ledger)
    );
}
