//! `ozzbench`: the end-to-end and per-layer benchmark of the OZZ pipeline.
//!
//! ```text
//! ozzbench --workload W --seed N --seconds S --trace 0|1
//! ozzbench run --seed N [--workload W]... [--seconds S] [--trace 0|1] --out FILE
//! ozzbench compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! The first form runs one workload in this process and prints, as its last
//! line, `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`. `run`
//! executes each workload in a child process of its own and appends one
//! JSON line per workload, with the host fingerprint, to FILE. `compare`
//! reads two such files of alternating parent and change runs and gives a
//! verdict per workload and metric. See README.md for the metrics, the
//! workloads and the rules.

mod host;
mod json;
mod mirror;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, ExitCode};

use stats::{percentile, Better};
use trace::{Counter, Layer};
use workloads::{Measured, Plan, Rep, Traced, Workload};

/// An end-to-end metric: measured with tracing off, with a regression bound
/// (the share of the parent's median by which it may get worse).
struct MetricDef {
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
}

const END_TO_END: [MetricDef; 5] = [
    MetricDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    MetricDef {
        name: "latency_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "latency_ms_p90",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    MetricDef {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
];

/// Seconds a `run` measures each workload unless told otherwise (the
/// benchmark's `run_seconds`).
const RUN_SECONDS: f64 = 20.0;

/// Where traced runs write their raw spans.
const SPANS_DIR: &str = ".ozzbench";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        _ => measured_cmd(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ozzbench: {e}");
            eprintln!(
                "usage: ozzbench --workload W --seed N --seconds S --trace 0|1\n       \
                 ozzbench run --seed N [--workload W]... [--seconds S] [--trace 0|1] --out FILE\n       \
                 ozzbench compare PARENT.jsonl CHANGE.jsonl\n\
                 workloads: steady, sharded, discover, replay, triage"
            );
            ExitCode::from(2)
        }
    }
}

/// Parsed `--flag value` options.
struct Opts {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<String>,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workloads: Vec::new(),
        seed: None,
        seconds: None,
        trace: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => o
                .workloads
                .push(Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?),
            "--seed" => o.seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                o.seconds = Some(s);
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => o.out = Some(value.clone()),
            _ => return Err(format!("unknown option {flag:?}")),
        }
    }
    Ok(o)
}

fn refuse_env() -> Result<(), String> {
    let set = host::refused_env();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: it changes what is measured",
            set.join(", ")
        ))
    }
}

fn fmt_metric(name: &str, value: f64, unit: &str) -> String {
    // JSON has no NaN or infinity; no metric should produce one.
    let v = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
}

fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| fmt_metric(n, *v, u))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn measured_cmd(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_opts(args)?;
    let [w] = o.workloads[..] else {
        return Err("give exactly one --workload".into());
    };
    let seed = o.seed.ok_or("--seed is required")?;
    let seconds = o.seconds.ok_or("--seconds is required")?;
    if o.out.is_some() {
        return Err("--out belongs to `ozzbench run`".into());
    }
    refuse_env()?;
    host::pin_malloc_thresholds();
    let plan = Plan::FULL;
    println!(
        "ozzbench {} seed={seed} seconds={seconds} trace={}",
        w.name(),
        u8::from(o.trace)
    );
    println!("host: {}", fingerprint(w, seed, seconds, o.trace, &plan));
    let line = if o.trace {
        let t = workloads::traced(w, seed, seconds, &plan)?;
        report_traced(w, &t)
    } else {
        let m = workloads::measure(w, seed, seconds, &plan)?;
        report_measured(&m)
    };
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn fingerprint(w: Workload, seed: u64, seconds: f64, trace: bool, plan: &Plan) -> String {
    let mut settings = vec![
        ("workload", format!("\"{}\"", w.name())),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("trace", u8::from(trace).to_string()),
    ];
    settings.extend(plan.settings());
    host::fingerprint(&settings)
}

/// The end-to-end metrics of one repetition, in the order of `END_TO_END`
/// but without `setup_s` and `peak_rss_mb`, which belong to the run.
fn rep_metrics(r: &Rep) -> [f64; 3] {
    [
        r.work as f64 / r.wall_s,
        percentile(&r.latencies_ms, 50.0),
        percentile(&r.latencies_ms, 90.0),
    ]
}

fn report_measured(m: &Measured) -> String {
    let (mut attempted, mut failed) = (0, 0);
    for (i, r) in m.reps.iter().enumerate() {
        attempted += r.attempted;
        failed += r.failed;
        for p in &r.problems {
            println!("FAILED (repetition {i}): {p}");
        }
    }
    // The least-disturbed repetition: the highest throughput, the lowest
    // latency percentiles.
    let per_rep: Vec<[f64; 3]> = m.reps.iter().map(rep_metrics).collect();
    let best = |i: usize| {
        let vals = per_rep.iter().map(|v| v[i]);
        match END_TO_END[i].better {
            Better::Higher => vals.fold(f64::MIN, f64::max),
            Better::Lower => vals.fold(f64::MAX, f64::min),
        }
    };
    let values = [
        best(0),
        best(1),
        best(2),
        stats::quartiles(&m.setup_s).1,
        host::peak_rss_mb(),
    ];
    let metrics: Vec<(String, f64, &str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(d, v)| (d.name.to_string(), v, d.unit))
        .collect();
    for ((name, value, unit), d) in metrics.iter().zip(&END_TO_END) {
        println!("{name} = {value:.6} {unit} ({} is better)", d.better.name());
    }
    for (i, d) in END_TO_END.iter().take(3).enumerate() {
        let vals: Vec<f64> = per_rep.iter().map(|v| v[i]).collect();
        let (q1, med, q3) = stats::quartiles(&vals);
        println!(
            "diagnostics: {} over {} repetitions: median {med:.6} [{q1:.6}, {q3:.6}] {}",
            d.name,
            vals.len(),
            d.unit
        );
    }
    let best_p99 = m
        .reps
        .iter()
        .map(|r| percentile(&r.latencies_ms, 99.0))
        .fold(f64::MAX, f64::min);
    println!(
        "diagnostics: latency_ms_p99 = {best_p99:.6} ms; {} samples and {} work items per \
         repetition; set-ups {:?} s; error_rate = {failed}/{attempted}",
        m.reps[0].latencies_ms.len(),
        m.reps[0].work,
        m.setup_s,
    );
    result_line(failed == 0, attempted, failed, &metrics)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A per-layer metric value with its unit and direction.
type LayerMetric = (String, f64, &'static str, Better);

/// The per-layer metrics of a traced run. Counts are normalised per work
/// item (MTI, replay or triage) or per call, so runs of different length
/// compare; a layer a workload never enters reads 0.
fn per_layer(t: &Traced) -> Vec<LayerMetric> {
    use Better::{Higher, Lower};
    let rec = &t.recorder;
    let wall_ns = t.mirror_s * 1e9;
    let calls = |l: Layer| rec.layer(l).calls;
    let mut out: Vec<LayerMetric> = Vec::new();
    for l in Layer::ALL {
        let tot = rec.layer(l);
        out.push((
            format!("{}.calls_per_work", l.name()),
            ratio(tot.calls, t.work),
            "count",
            Lower,
        ));
        out.push((
            format!("{}.self_pct", l.name()),
            100.0 * tot.self_ns as f64 / wall_ns,
            "%",
            Lower,
        ));
    }
    let execs = rec.counter(Counter::Execs);
    for (name, c) in [
        ("oemu.commits_per_exec", Counter::Commits),
        ("oemu.delayed_per_exec", Counter::Delayed),
        ("oemu.forwards_per_exec", Counter::Forwards),
        ("oemu.versioned_reads_per_exec", Counter::VersionedReads),
        ("oemu.barriers_per_exec", Counter::Barriers),
    ] {
        out.push((name.into(), ratio(rec.counter(c), execs), "count", Lower));
    }
    let restores = calls(Layer::Restore) + calls(Layer::Reset);
    let triages = calls(Layer::Triage);
    let per = |c: Counter, den: u64| ratio(rec.counter(c), den);
    out.extend([
        (
            "ozz.mti.pair.crash_ratio".into(),
            per(Counter::CrashingPairs, calls(Layer::Pair)),
            "ratio",
            Higher,
        ),
        (
            "ozz.hints.exec_ratio".into(),
            ratio(
                rec.counter(Counter::HintsExecuted),
                rec.counter(Counter::HintsGenerated),
            ),
            "ratio",
            Higher,
        ),
        (
            "ozz.profile.events_per_call".into(),
            per(Counter::ProfileEvents, calls(Layer::Profile)),
            "count",
            Lower,
        ),
        (
            "kernelsim.restore.words_per_call".into(),
            per(Counter::WordsReplayed, restores),
            "count",
            Lower,
        ),
        (
            "kernelsim.restore.full_fallbacks".into(),
            rec.counter(Counter::FullFallbacks) as f64,
            "count",
            Lower,
        ),
        (
            "ozz.campaign.rounds_per_campaign".into(),
            per(Counter::Rounds, calls(Layer::CampaignRun)),
            "count",
            Lower,
        ),
        (
            "ozz.triage.replays_per_triage".into(),
            per(Counter::TriageReplays, triages),
            "count",
            Lower,
        ),
        (
            "ozz.triage.probes_per_triage".into(),
            per(Counter::BisectProbes, triages),
            "count",
            Lower,
        ),
        (
            "ozz.triage.events_after_per_triage".into(),
            per(Counter::EventsAfter, triages),
            "count",
            Lower,
        ),
        (
            "process.minor_faults_per_work".into(),
            t.faults_per_work,
            "count",
            Lower,
        ),
        (
            "trace.coverage_pct".into(),
            100.0 * rec.root_ns() as f64 / wall_ns,
            "%",
            Higher,
        ),
        (
            "trace.overhead_pct".into(),
            100.0 * (t.mirror_s / t.reference_s - 1.0),
            "%",
            Lower,
        ),
    ]);
    out
}

fn report_traced(w: Workload, t: &Traced) -> String {
    for p in &t.problems {
        println!("FAILED: {p}");
    }
    println!(
        "traced: reference {:.3} s, mirror {:.3} s, {} spans",
        t.reference_s,
        t.mirror_s,
        t.recorder.span_count()
    );
    println!(
        "{:<26} {:>10} {:>12} {:>12} {:>8}",
        "layer", "calls", "ns/call", "self ns/call", "self %"
    );
    let wall_ns = t.mirror_s * 1e9;
    for l in Layer::ALL {
        let tot = t.recorder.layer(l);
        if tot.calls == 0 {
            continue;
        }
        println!(
            "{:<26} {:>10} {:>12.0} {:>12.0} {:>8.2}",
            l.name(),
            tot.calls,
            tot.total_ns as f64 / tot.calls as f64,
            tot.self_ns as f64 / tot.calls as f64,
            100.0 * tot.self_ns as f64 / wall_ns
        );
    }
    let path = format!("{SPANS_DIR}/spans-{}.jsonl", w.name());
    match std::fs::create_dir_all(SPANS_DIR)
        .and_then(|()| std::fs::write(&path, t.recorder.raw_spans_jsonl()))
    {
        Ok(()) => println!("raw spans: {path}"),
        Err(e) => eprintln!("ozzbench: could not write {path}: {e}"),
    }
    let metrics: Vec<(String, f64, &str)> = per_layer(t)
        .into_iter()
        .map(|(n, v, u, _)| (n, v, u))
        .collect();
    result_line(t.failed == 0, t.attempted, t.failed, &metrics)
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_opts(args)?;
    let seed = o.seed.ok_or("--seed is required")?;
    let seconds = o.seconds.unwrap_or(RUN_SECONDS);
    let out = o.out.ok_or("--out is required")?;
    refuse_env()?;
    let workloads = if o.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        o.workloads
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out)
        .map_err(|e| format!("cannot open {out}: {e}"))?;
    let mut ok = true;
    for w in workloads {
        let child = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        std::io::stderr().write_all(&child.stderr).ok();
        let stdout = String::from_utf8_lossy(&child.stdout);
        let raw = stdout.lines().last().unwrap_or_default();
        let result = match json::parse(raw) {
            Ok(v) if child.status.success() => v,
            Ok(_) | Err(_) => {
                eprintln!(
                    "ozzbench: {} failed ({}):\n{stdout}",
                    w.name(),
                    child.status
                );
                ok = false;
                continue;
            }
        };
        let correct = result.get("correct") == Some(&json::Value::Bool(true));
        ok &= correct;
        let mut summary = format!("{:<9} correct={correct}", w.name());
        if let Some(metrics) = result.get("metrics").and_then(json::Value::as_obj) {
            for (name, m) in metrics.iter().filter(|_| !o.trace) {
                let v = m
                    .get("value")
                    .and_then(json::Value::as_f64)
                    .unwrap_or(f64::NAN);
                let _ = write!(summary, " {name}={v:.4}");
            }
        }
        println!("{summary}");
        writeln!(
            file,
            "{{\"workload\": \"{}\", \"trace\": {}, \"host\": {}, \"result\": {raw}}}",
            w.name(),
            u8::from(o.trace),
            fingerprint(w, seed, seconds, o.trace, &Plan::FULL)
        )
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    }
    file.flush()
        .map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Untraced results of one file: per workload, each metric's values and
/// the failed-operation total, in file order.
type Runs = Vec<(String, Vec<(String, Vec<f64>)>, u64)>;

fn load_runs(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut runs: Runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        if v.get("trace").and_then(json::Value::as_f64) != Some(0.0) {
            continue;
        }
        let w = v
            .get("workload")
            .and_then(json::Value::as_str)
            .ok_or(format!("{path}:{}: no workload", n + 1))?
            .to_string();
        let result = v
            .get("result")
            .ok_or(format!("{path}:{}: no result", n + 1))?;
        let idx = match runs.iter().position(|(name, ..)| *name == w) {
            Some(i) => i,
            None => {
                runs.push((w, Vec::new(), 0));
                runs.len() - 1
            }
        };
        let entry = &mut runs[idx];
        entry.2 += result
            .get("failed")
            .and_then(json::Value::as_f64)
            .unwrap_or(0.0) as u64;
        for def in &END_TO_END {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(def.name))
                .and_then(|m| m.get("value"))
                .and_then(json::Value::as_f64)
                .ok_or(format!("{path}:{}: no {}", n + 1, def.name))?;
            match entry.1.iter_mut().find(|(name, _)| name == def.name) {
                Some((_, vals)) => vals.push(value),
                None => entry.1.push((def.name.to_string(), vec![value])),
            }
        }
    }
    Ok(runs)
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [parent_path, change_path] = args else {
        return Err("compare takes two result files".into());
    };
    let parent = load_runs(parent_path)?;
    let change = load_runs(change_path)?;
    println!(
        "{:<9} {:<17} {:>36} {:>36} {:>6} verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut worst = stats::Verdict::WithinBound;
    for (w, p_metrics, p_failed) in &parent {
        let Some((_, c_metrics, c_failed)) = change.iter().find(|(name, ..)| name == w) else {
            println!("{w:<9} missing from {change_path}");
            continue;
        };
        for def in &END_TO_END {
            let find = |ms: &[(String, Vec<f64>)]| {
                ms.iter()
                    .find(|(n, _)| n == def.name)
                    .map(|(_, v)| v.clone())
                    .unwrap_or_default()
            };
            let (pv, cv) = (find(p_metrics), find(c_metrics));
            if pv.is_empty() || cv.is_empty() {
                continue;
            }
            let c = stats::compare(&pv, &cv, def.better, def.bound);
            let q = |(a, m, b): (f64, f64, f64)| format!("{m:.4} [{a:.4}, {b:.4}]");
            println!(
                "{w:<9} {:<17} {:>36} {:>36} {:>6} {}",
                def.name,
                q(c.parent),
                q(c.change),
                format!("{:.0}/{}", c.win_fraction * c.pairs as f64, c.pairs),
                c.verdict.name()
            );
            worst = match (worst, c.verdict) {
                (_, stats::Verdict::Regressed) | (stats::Verdict::Regressed, _) => {
                    stats::Verdict::Regressed
                }
                (_, stats::Verdict::Unresolved) | (stats::Verdict::Unresolved, _) => {
                    stats::Verdict::Unresolved
                }
                (w, _) => w,
            };
        }
        if c_failed > p_failed {
            println!("{w:<9} failed operations rose from {p_failed} to {c_failed}: no gain counts");
            worst = stats::Verdict::Regressed;
        }
    }
    println!("overall: {}", worst.name());
    Ok(if worst == stats::Verdict::Regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root must list exactly the metrics
    /// this program prints, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let b = json::parse(&text).expect("valid JSON");
        let e2e = b
            .get("end_to_end")
            .and_then(json::Value::as_arr)
            .expect("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (got, def) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(
                got.get("name").and_then(json::Value::as_str),
                Some(def.name)
            );
            assert_eq!(
                got.get("unit").and_then(json::Value::as_str),
                Some(def.unit)
            );
            assert_eq!(
                got.get("better").and_then(json::Value::as_str),
                Some(def.better.name())
            );
            assert_eq!(
                got.get("bound").and_then(json::Value::as_f64),
                Some(def.bound)
            );
        }
        trace::start();
        let t = Traced {
            attempted: 1,
            failed: 0,
            reference_s: 1.0,
            mirror_s: 1.0,
            work: 1,
            faults_per_work: 0.0,
            recorder: trace::finish(),
            problems: Vec::new(),
        };
        let want: Vec<(String, &str, &str)> = per_layer(&t)
            .into_iter()
            .map(|(n, _, u, b)| (n, u, b.name()))
            .collect();
        let layers = b
            .get("per_layer")
            .and_then(json::Value::as_arr)
            .expect("per_layer");
        let field = |l: &json::Value, k: &str| {
            l.get(k)
                .and_then(json::Value::as_str)
                .expect("per-layer field")
                .to_string()
        };
        let got: Vec<(String, String, String)> = layers
            .iter()
            .map(|l| (field(l, "name"), field(l, "unit"), field(l, "better")))
            .collect();
        let want: Vec<(String, String, String)> = want
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(got, want);
        let names: Vec<&str> = b
            .get("workloads")
            .and_then(json::Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[("setup_s".into(), 0.25, "s")]);
        let v = json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_obj()
            .expect("object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(json::Value::as_f64), Some(0.25));
    }

    #[test]
    fn options_are_validated() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_opts(&args("--workload steady --seed 3 --seconds 10 --trace 1")).is_ok());
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse_opts(&args(bad)).is_err(), "{bad}");
        }
    }
}
