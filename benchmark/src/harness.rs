//! What every workload shares: the workload interface, repeated set-up,
//! the end-to-end metrics built from per-request latencies, and the
//! per-layer metrics built from a trace.

use crate::json::Json;
use crate::stats;
use crate::trace::{Summary, Tracer};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run. The timed phase runs in this many equal segments, each
/// after a fresh set-up, so the set-ups sample the host across the whole
/// run and `setup_s`, their median, is no more exposed to a burst of noise
/// from other tenants than the other metrics are.
pub const SETUP_REPS: usize = 5;

/// One workload: a fixed kind of input, generated from a seed, driven
/// through public calls of the program.
pub trait Workload {
    fn name(&self) -> &'static str;

    /// Counts and hashes of the inputs `seed` generates, as pinned in
    /// `fingerprints.json`.
    fn fingerprint(&self, seed: u64) -> Vec<(&'static str, Json)>;

    /// Untraced run: repeated set-up, then closed-loop requests for
    /// `seconds`; every answer is checked. Reports the end-to-end metrics.
    fn measure(&self, seed: u64, seconds: f64) -> Result<Outcome, String>;

    /// Traced run: a fixed number of requests (proportional to `seconds`)
    /// untraced, then the same requests again through the decomposed,
    /// span-recording path, whose results must be bit-identical. Reports
    /// the workload's per-layer metrics.
    fn trace(&self, seed: u64, seconds: f64) -> Result<Outcome, String>;
}

/// A measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub samples: u64,
}

impl Measured {
    pub fn new(value: f64, samples: u64) -> Self {
        Self { value, samples }
    }
}

/// The result of one run.
#[derive(Default)]
pub struct Outcome {
    /// Units of work attempted (instances, rounds or commands).
    pub attempted: u64,
    /// Units whose output was wrong, or which failed outright.
    pub failed: u64,
    pub metrics: BTreeMap<String, Measured>,
    /// Op counts for the record's provenance.
    pub counts: Vec<(&'static str, u64)>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64, samples: u64) {
        self.metrics
            .insert(name.into(), Measured::new(value, samples));
    }
}

/// Runs the timed phase as [`SETUP_REPS`] segments of `seconds /
/// SETUP_REPS` each; before each segment `setup` builds a fresh state,
/// which the segment consumes. Returns every set-up time.
pub fn segmented<S>(
    seconds: f64,
    mut setup: impl FnMut() -> Result<S, String>,
    mut segment: impl FnMut(S, f64) -> Result<(), String>,
) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let state = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        segment(state, seconds / SETUP_REPS as f64)?;
    }
    Ok(times)
}

/// Peak resident set size of this process (VmHWM) in MiB, or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Fills the end-to-end metrics of an untraced run.
///
/// `p50_us` is the median request latency and `ops_per_s` the run's
/// throughput, each with the number of samples it rests on; `rss_mb` is
/// the peak RSS read when the timed phase ended, before the checks
/// allocate.
pub fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    p50_us: Measured,
    ops_per_s: Measured,
    rss_mb: f64,
) {
    out.set("setup_s", stats::median(setup_s), setup_s.len() as u64);
    out.set("ops_per_s", ops_per_s.value, ops_per_s.samples);
    out.set("p50_us", p50_us.value, p50_us.samples);
    out.set("peak_rss_mb", rss_mb, 1);
}

/// Median latency (µs) and throughput of a single-threaded closed loop,
/// whose throughput is `units` of work per request over the median
/// request latency.
pub fn closed_loop(units_per_request: f64, latencies_ns: &[u64]) -> (Measured, Measured) {
    let us: Vec<f64> = latencies_ns.iter().map(|&n| n as f64 / 1e3).collect();
    let (p50, n) = (stats::median(&us), us.len() as u64);
    (
        Measured::new(p50, n),
        Measured::new(units_per_request / (p50 / 1e6), n),
    )
}

/// Adds the trace-wide metrics: coverage, and overhead as the traced
/// mean op time over the untraced one for the same ops.
pub fn trace_metrics(out: &mut Outcome, sum: &Summary, untraced_ns: u64) {
    let ops = sum.ops();
    out.set("trace.coverage", sum.coverage(), ops);
    out.set(
        "trace.overhead",
        sum.op_ns as f64 / untraced_ns.max(1) as f64,
        ops,
    );
}

/// Sets `name` to the mean self time per call of span `span`, in the
/// unit `name` ends with (`_ms`, `_us` or `_ns`).
pub fn layer_time(out: &mut Outcome, sum: &Summary, name: &str, span: &str) {
    let unit_ns = match name.rsplit('_').next() {
        Some("ms") => 1e6,
        Some("us") => 1e3,
        Some("ns") => 1.0,
        _ => panic!("`{name}` names no time unit"),
    };
    let l = sum.layer(span);
    out.set(name, l.per_call(unit_ns), l.calls);
}

/// [`layer_time`] for spans whose metric is the span name plus `_{unit}`.
pub fn layer_times(out: &mut Outcome, sum: &Summary, unit: &str, spans: &[&str]) {
    for span in spans {
        layer_time(out, sum, &format!("{span}_{unit}"), span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_segment_gets_a_fresh_setup() {
        let mut built = 0;
        let mut used = Vec::new();
        let times = segmented(
            1.0,
            || {
                built += 1;
                Ok(built)
            },
            |state, secs| {
                used.push((state, secs));
                Ok(())
            },
        )
        .unwrap();
        assert_eq!(times.len(), SETUP_REPS);
        assert_eq!(used.len(), SETUP_REPS);
        assert!(used
            .iter()
            .enumerate()
            .all(|(i, &(s, secs))| s == i + 1 && secs == 0.2));
    }

    #[test]
    fn end_to_end_metrics_are_all_present() {
        let mut out = Outcome::default();
        let lat: Vec<u64> = (1..=2000).map(|i| i * 1000).collect();
        let (p50, rate) = closed_loop(4.0, &lat);
        end_to_end(&mut out, &[0.3, 0.1, 0.2], p50, rate, 7.5);
        assert_eq!(out.metrics["setup_s"].value, 0.2);
        assert_eq!(out.metrics["p50_us"].value, 1000.5);
        assert!((out.metrics["ops_per_s"].value - 4.0 / 1.0005e-3).abs() < 1e-6);
        assert_eq!(out.metrics["peak_rss_mb"].value, 7.5);
        assert!(peak_rss_mb() > 0.0);
    }
}
