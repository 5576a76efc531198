//! Result records: one JSON object per run, with the provenance needed to
//! attribute a shift (commit, host, toolchain, seed, op and sample
//! counts). Each run writes `target/benchmark/<workload>[.traced].json`
//! and appends the same object to `target/benchmark/history.jsonl`.

use crate::harness::Outcome;
use crate::json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where records, traces and write-ahead logs go, relative to the
/// directory the benchmark runs in (the repository root).
pub const OUT_DIR: &str = "target/benchmark";

pub struct Run<'a> {
    pub workload: &'a str,
    pub trace: bool,
    pub seed: u64,
    pub seconds: f64,
    /// The CPU the run was pinned to, if pinning succeeded.
    pub cpu: Option<usize>,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn provenance(pinned: Option<usize>) -> Json {
    let commit = if Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        None
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
    });
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let text = |s: Option<String>| Json::str(s.unwrap_or_else(|| "unknown".into()));
    Json::obj([
        ("commit", text(commit)),
        ("nproc", Json::from(nproc as u64)),
        (
            "pinned_cpu",
            pinned.map_or(Json::Null, |c| Json::from(c as u64)),
        ),
        ("cpu", text(cpu)),
        ("rustc", text(command_line("rustc", &["-V"]))),
        ("unix_time", Json::from(unix)),
    ])
}

/// The record of one run. `metrics` are the spec's metrics in spec order.
pub fn record(
    run: &Run,
    out: &Outcome,
    correct: bool,
    metrics: &[(String, String, f64, u64)],
) -> Json {
    Json::obj([
        ("workload", Json::str(run.workload)),
        ("trace", Json::from(run.trace)),
        ("seed", Json::from(run.seed)),
        ("seconds", Json::from(run.seconds)),
        ("correct", Json::from(correct)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        (
            "metrics",
            Json::obj(metrics.iter().map(|(name, unit, value, samples)| {
                (
                    name.clone(),
                    Json::obj([
                        ("value", Json::from(*value)),
                        ("unit", Json::str(unit.clone())),
                        ("samples", Json::from(*samples)),
                    ]),
                )
            })),
        ),
        (
            "counts",
            Json::obj(out.counts.iter().map(|&(k, v)| (k, Json::from(v)))),
        ),
        ("provenance", provenance(run.cpu)),
    ])
}

/// Writes the record (and the trace, for traced runs) under [`OUT_DIR`].
pub fn save(run: &Run, record: &Json, out: &Outcome) -> std::io::Result<()> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir)?;
    let stem = if run.trace {
        format!("{}.traced", run.workload)
    } else {
        run.workload.to_string()
    };
    std::fs::write(dir.join(format!("{stem}.json")), format!("{record}\n"))?;
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?;
    writeln!(history, "{record}")?;
    if let Some(t) = &out.tracer {
        let mut w = std::io::BufWriter::new(std::fs::File::create(
            dir.join(format!("{}.trace.jsonl", run.workload)),
        )?);
        t.write_jsonl(&mut w)?;
        w.flush()?;
    }
    Ok(())
}

/// Loads records from a `.json` file (one record), a `.jsonl` file (one
/// per line) or a directory of such files (in name order).
pub fn load(path: &Path) -> Result<Vec<Json>, String> {
    if path.is_dir() {
        let mut files: Vec<PathBuf> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json" || x == "jsonl"))
            .collect();
        files.sort();
        let mut all = Vec::new();
        for f in files {
            all.extend(load(&f)?);
        }
        return Ok(all);
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let docs: Vec<&str> = if path.extension().is_some_and(|x| x == "jsonl") {
        text.lines().filter(|l| !l.trim().is_empty()).collect()
    } else {
        vec![text.as_str()]
    };
    docs.into_iter()
        .map(|d| Json::parse(d).map_err(|e| format!("{}: {e}", path.display())))
        .filter(|r| {
            // Trace span files share the extension but are not records.
            r.as_ref().map_or(true, |j| j.get("workload").is_some())
        })
        .collect()
}

/// The value of `metric` in a record, if present.
pub fn value(record: &Json, metric: &str) -> Option<f64> {
    record.get("metrics")?.get(metric)?.get("value")?.as_f64()
}
