//! The repository benchmark: end-to-end and per-layer metrics of the
//! simulated engines, the sparse plane and the reachability service.
//!
//! ```text
//! benchmark list
//! benchmark run <workload> [--seed S] [--seconds T] [--trace]
//! benchmark all [--seed S] [--seconds T]
//! benchmark compare <A> <B>
//! benchmark fingerprints [--seed S]
//! benchmark --workload W --seed S --seconds T --trace 0|1
//! ```
//!
//! A run prints, as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end metrics
//! of `BENCHMARK.json` for an untraced run, its per-layer metrics for a
//! traced one. It exits 1 when an answer was wrong or a pinned input
//! fingerprint drifted. Run it from the repository root; records and
//! traces go to `target/benchmark/`. See `README.md` beside this crate.

mod compare;
mod harness;
mod host;
mod inputs;
mod json;
mod record;
mod serve;
mod sim;
mod sparse;
mod spec;
mod stats;
mod trace;

use harness::{Outcome, Workload};
use json::Json;
use spec::Spec;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// The seed whose input fingerprints `fingerprints.json` pins.
const DEFAULT_SEED: u64 = 1;
/// Lowest acceptable share of a traced op that layer spans explain.
const MIN_COVERAGE: f64 = 0.90;

fn workloads() -> Vec<Box<dyn Workload>> {
    let dir = Path::new(record::OUT_DIR);
    vec![
        Box::new(sim::SimPacked::full()),
        Box::new(sim::SimFaults::full()),
        Box::new(sparse::Sparse::full()),
        Box::new(serve::Serve::write_full(dir)),
        Box::new(serve::Serve::read_full(dir)),
    ]
}

fn pins() -> Json {
    Json::parse(include_str!("../fingerprints.json")).expect("fingerprints.json is well-formed")
}

/// The pinned input fingerprint of `workload`, checked before timing.
fn check_inputs(w: &dyn Workload, seed: u64) -> Result<(), String> {
    let pins = pins();
    if pins.get("seed").and_then(Json::as_f64) != Some(seed as f64) {
        return Ok(());
    }
    let Some(want) = pins.get(w.name()).and_then(|p| p.get("inputs")) else {
        return Err(format!("{}: no pinned input fingerprint", w.name()));
    };
    let got = Json::obj(w.fingerprint(seed));
    if got != *want {
        return Err(format!(
            "{}: inputs drifted from the pinned fingerprint\n  pinned: {want}\n  now:    {got}",
            w.name()
        ));
    }
    Ok(())
}

/// Pinned output counts (e.g. SCCs) the untraced run of the pinned seed
/// must reproduce.
fn check_outputs(name: &str, seed: u64, out: &Outcome) -> Result<(), String> {
    let pins = pins();
    if pins.get("seed").and_then(Json::as_f64) != Some(seed as f64) {
        return Ok(());
    }
    let Some(want) = pins
        .get(name)
        .and_then(|p| p.get("outputs"))
        .and_then(Json::as_obj)
    else {
        return Ok(());
    };
    for (key, v) in want {
        let got = out
            .counts
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, c)| c as f64);
        if got != v.as_f64() {
            return Err(format!("{name}: output `{key}` is {got:?}, pinned {v}"));
        }
    }
    Ok(())
}

/// Runs one workload in this process and prints the result line.
fn run(spec: &Spec, name: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let all = workloads();
    let Some(w) = all.iter().find(|w| w.name() == name) else {
        eprintln!("unknown workload `{name}` (see `benchmark list`)");
        return ExitCode::from(2);
    };
    if let Err(e) = check_inputs(w.as_ref(), seed) {
        eprintln!("{e}");
        return ExitCode::FAILURE;
    }
    let cpu = host::pin_to_one_cpu()
        .map_err(|e| eprintln!("{name}: not pinned to one CPU: {e}"))
        .ok();
    if let Err(e) = host::single_malloc_arena() {
        eprintln!("{name}: {e}");
    }
    let result = if traced {
        w.trace(seed, seconds)
    } else {
        w.measure(seed, seconds)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wanted = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    if let Some(extra) = out
        .metrics
        .keys()
        .find(|k| !wanted.iter().any(|m| m.name == **k))
    {
        eprintln!("{name}: reports `{extra}`, which BENCHMARK.json does not define here");
        return ExitCode::FAILURE;
    }
    let mut metrics = Vec::new();
    for m in wanted {
        // A layer a workload never calls reports zero time and zero calls.
        let v = match out.metrics.get(m.name.as_str()) {
            Some(v) => *v,
            None if traced => harness::Measured::new(0.0, 0),
            None => {
                eprintln!("{name}: no value for `{}`", m.name);
                return ExitCode::FAILURE;
            }
        };
        metrics.push((m.name.clone(), m.unit.clone(), v.value, v.samples));
    }
    let mut correct = out.failed == 0 && out.attempted > 0;
    if !traced {
        if let Err(e) = check_outputs(name, seed, &out) {
            eprintln!("{e}");
            correct = false;
        }
    }
    let this = record::Run {
        workload: name,
        trace: traced,
        seed,
        seconds,
        cpu,
    };
    let rec = record::record(&this, &out, correct, &metrics);
    if let Err(e) = record::save(&this, &rec, &out) {
        eprintln!(
            "{name}: could not write the record under {}: {e}",
            record::OUT_DIR
        );
    }
    for (m, unit, value, samples) in &metrics {
        eprintln!("{name}  {m:<28} {value:>16.6} {unit:<6} n={samples}");
    }
    let line = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(m, unit, value, _)| {
                (
                    m.clone(),
                    Json::obj([
                        ("value", Json::from(*value)),
                        ("unit", Json::str(unit.clone())),
                    ]),
                )
            })),
        ),
    ]);
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, untraced and traced, each in its own process (so
/// peak RSS is per workload), and prints a summary.
fn all(spec: &Spec, seed: u64, seconds: f64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (name, _) in &spec.workloads {
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args([
                "run",
                name,
                "--seed",
                &seed.to_string(),
                "--seconds",
                &seconds.to_string(),
            ]);
            if traced {
                cmd.arg("--trace");
            }
            let child = cmd.stderr(Stdio::inherit()).output();
            let line = child
                .as_ref()
                .ok()
                .and_then(|o| {
                    String::from_utf8_lossy(&o.stdout)
                        .lines()
                        .last()
                        .map(str::to_string)
                })
                .and_then(|l| Json::parse(&l).ok());
            let status_ok = child.as_ref().is_ok_and(|o| o.status.success());
            let Some(line) = line else {
                println!(
                    "{name:<12} {:<8} no result",
                    if traced { "traced" } else { "e2e" }
                );
                ok = false;
                continue;
            };
            let correct = status_ok && line.get("correct").and_then(Json::as_bool) == Some(true);
            let metric = |m: &str| {
                line.get("metrics")
                    .and_then(|ms| ms.get(m))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN)
            };
            let summary = if traced {
                let cov = metric("trace.coverage");
                ok &= cov >= MIN_COVERAGE;
                format!("coverage={cov:.3} overhead={:.3}", metric("trace.overhead"))
            } else {
                format!(
                    "ops_per_s={:.1} p50_us={:.1} setup_s={:.4} peak_rss_mb={:.1}",
                    metric("ops_per_s"),
                    metric("p50_us"),
                    metric("setup_s"),
                    metric("peak_rss_mb")
                )
            };
            ok &= correct;
            println!(
                "{name:<12} {:<8} correct={correct} {summary}",
                if traced { "traced" } else { "e2e" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list(spec: &Spec) {
    println!("workloads:");
    for (name, why) in &spec.workloads {
        println!("  {name:<12} {why}");
    }
    for (title, metrics) in [
        ("end-to-end", &spec.end_to_end),
        ("per-layer (--trace)", &spec.per_layer),
    ] {
        println!("{title} metrics:");
        for m in metrics {
            let dir = if m.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let bound = m
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0));
            println!("  {:<28} {:<6} {dir:<7} bound {bound}", m.name, m.unit);
        }
    }
}

fn fingerprints(seed: u64) {
    let pins = pins();
    let doc = Json::obj(
        std::iter::once(("seed".to_string(), Json::from(seed))).chain(workloads().iter().map(
            |w| {
                let outputs = pins
                    .get(w.name())
                    .and_then(|p| p.get("outputs"))
                    .cloned()
                    .unwrap_or(Json::Obj(Vec::new()));
                (
                    w.name().to_string(),
                    Json::obj([
                        ("inputs", Json::obj(w.fingerprint(seed))),
                        ("outputs", outputs),
                    ]),
                )
            },
        )),
    );
    println!("{doc}");
}

struct Args {
    positional: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    workload: Option<String>,
}

fn parse_args(spec: &Spec, raw: &[String]) -> Result<Args, String> {
    let mut a = Args {
        positional: Vec::new(),
        seed: DEFAULT_SEED,
        seconds: spec.run_seconds,
        trace: false,
        workload: None,
    };
    let mut it = raw.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--workload" => a.workload = Some(value("--workload")?),
            "--trace" if a.positional.is_empty() => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--trace" => a.trace = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => a.positional.push(arg.clone()),
        }
    }
    Ok(a)
}

const USAGE: &str = "usage: benchmark list | run <workload> [--seed S] [--seconds T] [--trace] \
| all [--seed S] [--seconds T] | compare <A> <B> | fingerprints [--seed S] \
| --workload W --seed S --seconds T --trace 0|1";

fn main() -> ExitCode {
    let spec = Spec::load();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&spec, &raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let pos: Vec<&str> = args.positional.iter().map(String::as_str).collect();
    match (args.workload.as_deref(), pos.as_slice()) {
        (Some(w), []) => run(&spec, w, args.seed, args.seconds, args.trace),
        (None, ["run", w]) => run(&spec, w, args.seed, args.seconds, args.trace),
        (None, ["all"]) => all(&spec, args.seed, args.seconds),
        (None, ["list"]) => {
            list(&spec);
            ExitCode::SUCCESS
        }
        (None, ["fingerprints"]) => {
            fingerprints(args.seed);
            ExitCode::SUCCESS
        }
        (None, ["compare", a, b]) => {
            let load = |p: &str| record::load(Path::new(p));
            let (a, b) = match (load(a), load(b)) {
                (Ok(a), Ok(b)) => (a, b),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("{e}");
                    return ExitCode::from(2);
                }
            };
            let (rows, text) = compare::compare(&spec, &a, &b);
            print!("{text}");
            if rows.iter().any(|r| r.verdict == compare::Verdict::Disagree) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workloads() -> Vec<Box<dyn Workload>> {
        vec![
            Box::new(sim::tests::tiny_packed()),
            Box::new(sim::tests::tiny_faults()),
            Box::new(sparse::tests::tiny()),
            Box::new(serve::tests::tiny(false)),
            Box::new(serve::tests::tiny(true)),
        ]
    }

    #[test]
    fn the_workloads_are_the_ones_benchmark_json_names() {
        let spec = Spec::load();
        let names: Vec<&str> = workloads().iter().map(|w| w.name()).collect();
        let listed: Vec<&str> = spec.workloads.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, listed);
    }

    #[test]
    fn every_workload_runs_scaled_down_and_reports_its_metrics() {
        let spec = Spec::load();
        for w in tiny_workloads() {
            let out = w.measure(3, 0.3).unwrap();
            assert!(out.attempted > 0, "{}", w.name());
            assert_eq!(out.failed, 0, "{} measured wrong answers", w.name());
            let mut got: Vec<&str> = out.metrics.keys().map(String::as_str).collect();
            let mut want: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{}", w.name());
            assert!(out.metrics.values().all(|m| m.value > 0.0), "{}", w.name());

            let out = w.trace(3, 0.3).unwrap();
            assert_eq!(out.failed, 0, "{} traced replay diverged", w.name());
            assert!(
                out.metrics
                    .keys()
                    .all(|k| spec.per_layer.iter().any(|m| &m.name == k)),
                "{}",
                w.name()
            );
            let cov = out.metrics["trace.coverage"].value;
            assert!(cov > 0.5 && cov <= 1.0, "{} coverage {cov}", w.name());
            assert!(!out.tracer.unwrap().spans().is_empty());
        }
    }

    #[test]
    fn fingerprints_are_stable_for_a_fixed_seed() {
        for w in tiny_workloads() {
            assert_eq!(w.fingerprint(5), w.fingerprint(5), "{}", w.name());
            assert_ne!(w.fingerprint(5), w.fingerprint(6), "{}", w.name());
        }
    }

    #[test]
    fn the_default_seed_matches_its_pinned_fingerprints() {
        for w in workloads() {
            check_inputs(w.as_ref(), DEFAULT_SEED).unwrap();
        }
    }

    #[test]
    fn flag_form_parses_like_the_subcommands() {
        let spec = Spec::load();
        let raw: Vec<String> = [
            "--workload",
            "serve_read",
            "--seed",
            "4",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]
        .map(String::from)
        .to_vec();
        let a = parse_args(&spec, &raw).unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("serve_read"), 4, 2.0, true)
        );
        let raw: Vec<String> = ["run", "sim_packed", "--trace"].map(String::from).to_vec();
        let a = parse_args(&spec, &raw).unwrap();
        assert!(a.trace && a.positional == ["run", "sim_packed"]);
        assert!(parse_args(&spec, &["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&spec, &["--seconds".into(), "0".into()]).is_err());
    }
}
