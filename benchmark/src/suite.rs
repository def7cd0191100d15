//! The full suite (every workload in a fresh child process, untraced
//! then traced) and `--compare` of two of its result files.

use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, WORKLOADS};
use crate::stats::Summary;
use std::path::Path;
use std::process::{Command, Stdio};

/// The build and host a result was measured on.
pub fn host_header() -> Json {
    let rustc = Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj([
        ("build.fma", Json::Bool(cfg!(target_feature = "fma"))),
        ("rustc", Json::Str(rustc)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu", Json::Str(cpu_model)),
    ])
}

/// Run one workload in a child process of this binary; echo its report
/// and return its result line and its `#detail` line.
fn child_run(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: u8,
) -> Result<(Json, Json), String> {
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", &trace.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = Json::Null;
    let mut last = "";
    for line in stdout.lines() {
        match line.strip_prefix("#detail ") {
            Some(d) => detail = Json::parse(d)?,
            None if line.starts_with('{') => last = line,
            None => println!("{line}"),
        }
    }
    // a failed check exits 1 after printing its result; anything else
    // printed none
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} --trace {trace}: no result line ({e}; {})",
            output.status
        )
    })?;
    Ok((result, detail))
}

/// One workload's entry of `BENCH_e2e.json` / `BENCH_layers.json`: the
/// result line, with quartiles and samples beside each end-to-end value.
fn entry(result: &Json, detail: &Json) -> Json {
    let mut pairs: Vec<(String, Json)> = result.as_object().unwrap_or_default().to_vec();
    let samples = detail.get("samples");
    for (key, value) in &mut pairs {
        if key != "metrics" {
            continue;
        }
        let Json::Obj(metrics) = value else { continue };
        for (name, metric) in metrics {
            let s = samples.and_then(|s| s.get(name)).map(Json::f64s);
            let (Some(s), Json::Obj(fields)) = (s, metric) else {
                continue;
            };
            if let Some(summary) = Summary::of(&s) {
                fields.push(("n".into(), Json::Num(summary.n as f64)));
                fields.push(("q1".into(), Json::Num(summary.q1)));
                fields.push(("q3".into(), Json::Num(summary.q3)));
                fields.push(("samples".into(), Json::nums(&s)));
            }
        }
    }
    for key in ["max_rel_err", "failed_ops_frac", "failures"] {
        if let Some(v) = detail.get(key) {
            pairs.push((key.into(), v.clone()));
        }
    }
    Json::Obj(pairs)
}

/// Run every workload, untraced then traced, each in a fresh child
/// process; write `out/BENCH_e2e.json` and `out/BENCH_layers.json`.
/// Returns whether every run was correct.
pub fn run_all(exe: &Path, seed: u64, seconds: f64, out_dir: &Path) -> Result<bool, String> {
    let host = host_header();
    println!("host {host}");
    let mut all_correct = true;
    let mut files = [Vec::new(), Vec::new()];
    for workload in WORKLOADS {
        for trace in [0u8, 1] {
            println!("== {workload} --trace {trace}");
            let (result, detail) = child_run(exe, workload, seed, seconds, trace)?;
            all_correct &= result.get("correct").and_then(Json::as_bool) == Some(true);
            files[usize::from(trace)].push((workload, entry(&result, &detail)));
        }
    }
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    for (name, workloads) in ["BENCH_e2e.json", "BENCH_layers.json"]
        .into_iter()
        .zip(files)
    {
        let doc = Json::obj([
            ("host", host.clone()),
            ("seed", Json::Num(seed as f64)),
            ("seconds", Json::Num(seconds)),
            ("workloads", Json::obj(workloads)),
        ]);
        let path = out_dir.join(name);
        std::fs::write(&path, format!("{doc}\n")).map_err(|e| e.to_string())?;
        println!("wrote {}", path.display());
    }
    Ok(all_correct)
}

/// Print one run's metrics by name, with unit and, where the value is a
/// median, its quartiles and sample count.
pub fn print_metrics(defs: &[MetricDef], metrics: &Json, detail: &Json) {
    // counts as integers, small ratios in scientific notation
    let show = |v: f64| match v {
        v if v.fract() == 0.0 => format!("{v:.0}"),
        v if v.abs() < 1e-3 => format!("{v:.3e}"),
        v => format!("{v:.6}"),
    };
    for d in defs {
        let value = metrics
            .get(d.name)
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        let samples = detail
            .get("samples")
            .and_then(|s| s.get(d.name))
            .map(Json::f64s);
        let quartiles = match samples.as_deref().and_then(Summary::of) {
            Some(s) if s.n > 1 => format!(
                "  median of {} (q1 {}, q3 {}; too few samples for a tail percentile)",
                s.n,
                show(s.q1),
                show(s.q3)
            ),
            _ => String::new(),
        };
        println!(
            "{:<38} {:>14} {:<7}{quartiles}",
            d.name,
            show(value),
            d.unit
        );
    }
}

/// How run set `b` reads against baseline `a` on one end-to-end metric.
///
/// * `unresolved` — the run-to-run spread of either median
///   ([`Summary::median_spread`]) is wider than the metric's bound,
///   unless every sample of `b` is better than every sample of `a`;
/// * `regression` — `b`'s median is worse than `a`'s by more than the
///   bound;
/// * `ok` otherwise.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> &'static str {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return "unresolved";
    };
    let bound = def.bound.unwrap_or(0.0);
    let lower_is_better = def.better == "lower";
    if sa.median_spread().max(sb.median_spread()) > bound {
        let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        let all_better = if lower_is_better {
            max(b) < min(a)
        } else {
            min(b) > max(a)
        };
        return if all_better { "ok" } else { "unresolved" };
    }
    let worse = if lower_is_better {
        (sb.median - sa.median) / sa.median
    } else {
        (sa.median - sb.median) / sa.median
    };
    if worse > bound {
        "regression"
    } else {
        "ok"
    }
}

/// `--compare A.json B.json`: apply the bounds to two `BENCH_e2e.json`
/// files, one row per workload × end-to-end metric. Returns the report
/// and whether every row is `ok` and every run was correct.
pub fn compare(a: &Json, b: &Json) -> (String, bool) {
    let mut report = format!(
        "{:<16} {:<18} {:>14} {:>14} {:>8}  verdict\n",
        "workload", "metric", "A median", "B median", "B vs A"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        let side = |doc: &Json| doc.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (side(a), side(b)) else {
            report.push_str(&format!("{workload:<16} missing from a result file\n"));
            clean = false;
            continue;
        };
        for (label, w) in [("A", &wa), ("B", &wb)] {
            if w.get("correct").and_then(Json::as_bool) != Some(true) {
                report.push_str(&format!("{workload:<16} {label}: output checks failed\n"));
                clean = false;
            }
        }
        for d in &END_TO_END {
            let samples = |w: &Json| {
                let metric = w.get("metrics").and_then(|m| m.get(d.name));
                let s = metric.and_then(|m| m.get("samples")).map(Json::f64s);
                // a file without samples still has the value
                s.filter(|s| !s.is_empty()).unwrap_or_else(|| {
                    metric
                        .and_then(|m| m.get("value"))
                        .and_then(Json::as_f64)
                        .into_iter()
                        .collect()
                })
            };
            let (sa, sb) = (samples(&wa), samples(&wb));
            let v = verdict(d, &sa, &sb);
            clean &= v == "ok";
            let (ma, mb) = (crate::stats::median(&sa), crate::stats::median(&sb));
            report.push_str(&format!(
                "{workload:<16} {:<18} {ma:>14.6} {mb:>14.6} {:>+7.1}%  {v}\n",
                d.name,
                (mb / ma - 1.0) * 100.0
            ));
        }
    }
    (report, clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static MetricDef> {
        END_TO_END.iter().find(|d| d.name == name)
    }

    #[test]
    fn verdicts_follow_the_bounds() {
        let lower = end_to_end("time_to_image_s").unwrap(); // bound 25 %
        let higher = end_to_end("grid_mvis_per_s").unwrap(); // bound 25 %
        let base = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(verdict(lower, &base, &[1.2, 1.19, 1.21, 1.2, 1.2]), "ok");
        assert_eq!(
            verdict(lower, &base, &[1.3, 1.29, 1.31, 1.3, 1.3]),
            "regression"
        );
        assert_eq!(verdict(lower, &base, &[0.5, 0.51, 0.5, 0.49, 0.5]), "ok");
        assert_eq!(
            verdict(higher, &base, &[0.7, 0.71, 0.7, 0.69, 0.7]),
            "regression"
        );
        assert_eq!(verdict(higher, &base, &[1.5, 1.5, 1.5, 1.5, 1.5]), "ok");
        // spread wider than the bound: unresolved unless B wins every pair
        let noisy = [1.0, 1.6, 0.6, 1.2, 0.8];
        assert_eq!(
            verdict(lower, &noisy, &[1.0, 1.0, 1.0, 1.0, 1.0]),
            "unresolved"
        );
        assert_eq!(verdict(lower, &noisy, &[0.4, 0.5, 0.4, 0.55, 0.4]), "ok");
        assert_eq!(verdict(lower, &[], &base), "unresolved");
    }

    #[test]
    fn compare_reads_suite_files() {
        let file = |grid: f64| {
            let metric = |v: f64| {
                Json::obj([
                    ("value", Json::Num(v)),
                    ("samples", Json::nums(&[v, v * 1.01, v * 0.99])),
                ])
            };
            let workload = Json::obj([
                ("correct", Json::Bool(true)),
                (
                    "metrics",
                    Json::obj(END_TO_END.iter().map(|d| {
                        (
                            d.name,
                            metric(if d.name == "grid_mvis_per_s" {
                                grid
                            } else {
                                2.0
                            }),
                        )
                    })),
                ),
            ]);
            let text = Json::obj([(
                "workloads",
                Json::obj(WORKLOADS.iter().map(|w| (*w, workload.clone()))),
            )])
            .to_string();
            Json::parse(&text).expect("emitted result file parses")
        };
        let (report, clean) = compare(&file(1.0), &file(1.02));
        assert!(clean, "{report}");
        assert_eq!(
            report.lines().count(),
            1 + WORKLOADS.len() * END_TO_END.len()
        );
        let (report, clean) = compare(&file(1.0), &file(0.6));
        assert!(!clean);
        assert_eq!(report.matches("regression").count(), WORKLOADS.len());
    }

    #[test]
    fn entry_adds_quartiles_beside_values() {
        let result = Json::parse(
            r#"{"correct": true, "attempted": 3, "failed": 0,
                "metrics": {"setup_s": {"value": 2.0, "unit": "s"}}}"#,
        )
        .unwrap();
        let detail =
            Json::parse(r#"{"samples": {"setup_s": [1.0, 2.0, 3.0]}, "max_rel_err": 1e-6}"#)
                .unwrap();
        let e = entry(&result, &detail);
        let m = e.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("n").unwrap().as_f64(), Some(3.0));
        assert_eq!(m.get("samples").unwrap().f64s(), vec![1.0, 2.0, 3.0]);
        assert_eq!(e.get("max_rel_err").unwrap().as_f64(), Some(1e-6));
    }
}
