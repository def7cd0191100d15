//! The repo benchmark: four workloads, end-to-end and per-layer wall
//! clock, traced layer run. See README.md.
//!
//! ```text
//! idg-benchmark [--seed N] [--seconds T]         every workload, untraced then traced,
//!                                                each in a fresh child process; writes out/
//! idg-benchmark --workload W --seed N --seconds T --trace 0|1
//!                                                one run; the result is the last line
//! idg-benchmark --list                           the names BENCHMARK.json carries
//! idg-benchmark --compare A.json B.json          apply the bounds to two out/BENCH_e2e.json
//! ```

mod json;
mod layers;
mod metrics;
mod run;
mod spans;
mod stats;
mod suite;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::path::Path;
use std::process::ExitCode;
use workloads::Kind;

/// Where the suite and the traced runs write, relative to the working
/// directory (`benchmark/`, see run.sh); ignored by git.
const OUT_DIR: &str = "out";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    list: bool,
    pinned_grid: bool,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 20.0,
        trace: false,
        list: false,
        pinned_grid: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--list" => args.list = true,
            "--pinned-grid" => args.pinned_grid = true,
            "--compare" => args.compare = Some((value()?, value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One run of one workload; the result line is the last line printed.
fn run_workload(kind: Kind, args: &Args, exe: &Path) -> Result<bool, String> {
    println!("host {}", suite::host_header());
    println!(
        "workload {} seed {} seconds {} trace {}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (outcome, defs) = if args.trace {
        let (outcome, trace) =
            layers::traced(kind, args.seed, args.seconds, exe).map_err(|e| e.to_string())?;
        let path = Path::new(OUT_DIR).join(format!("trace_{}.json", kind.name()));
        std::fs::create_dir_all(OUT_DIR)
            .and_then(|()| std::fs::write(&path, format!("{trace}\n")))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        (outcome, &PER_LAYER[..])
    } else {
        let outcome = run::end_to_end(kind, args.seed, args.seconds).map_err(|e| e.to_string())?;
        (outcome, &END_TO_END[..])
    };
    let metrics = outcome.values.to_json(defs);
    let detail = outcome.detail();
    suite::print_metrics(defs, &metrics, &detail);
    println!("{:<38} {:>14.3e} ratio", "max_rel_err", outcome.max_rel_err);
    for failure in &outcome.tally.failures {
        println!("FAILED {failure}");
    }
    println!("#detail {detail}");
    let correct = outcome.tally.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.tally.attempted as f64)),
            ("failed", Json::Num(outcome.tally.failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(correct)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    if args.list {
        print!("{}", metrics::list());
        return Ok(true);
    }
    if let Some((a, b)) = &args.compare {
        let read = |path: &String| {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            Json::parse(&text).map_err(|e| format!("{path}: {e}"))
        };
        let (report, clean) = suite::compare(&read(a)?, &read(b)?);
        print!("{report}");
        return Ok(clean);
    }
    // Without FMA codegen `mul_add` in the kernels is a libm call and the
    // timings measure libm (README.md, finding (a)): report none.
    if !cfg!(target_feature = "fma") {
        return Err(
            "build.fma = false: built without FMA codegen; run through benchmark/run.sh or from \
             benchmark/ so that .cargo/config.toml applies (-C target-cpu=native on an FMA host)"
                .into(),
        );
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    match &args.workload {
        Some(name) => {
            let kind = Kind::from_name(name).ok_or(format!("unknown workload {name}"))?;
            if args.pinned_grid {
                layers::pinned_child(kind, args.seed).map_err(|e| e.to_string())?;
                return Ok(true);
            }
            run_workload(kind, &args, &exe)
        }
        None => suite::run_all(&exe, args.seed, args.seconds, Path::new(OUT_DIR)),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        // a failed output check, regression or unresolved row
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
