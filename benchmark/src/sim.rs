//! The simulated engines. `sim_packed` closes lane-packed Boolean batches
//! on the ready-tracking cycle loop; `sim_faults` closes batches on an
//! array with transient faults under verify-retry-bypass recovery, whose
//! armed runs take the dense reference loop instead.
//!
//! Each traced run replays its calls through a decomposition written here
//! from the engines' public pieces (plan, lane transposes, simulator
//! load/run/unload), so every layer gets its own span; the decomposition
//! must give the library path's results and `RunStats` bit for bit.

use crate::harness::{self, ns, Outcome, Workload};
use crate::inputs::{gnp_batch, hash_batches, Rng};
use crate::json::Json;
use crate::trace::{Summary, Tracer, BESIDE, OP};
use std::cell::{Cell, RefCell};
use std::time::Instant;
use systolic_arraysim::{ArraySim, FaultEvent, FaultPlan, RunStats};
use systolic_partition::{
    ClosureEngine, CompiledPlan, EngineError, Escalation, FaultAware, FaultyLinearEngine,
    LinearEngine, LpgsMapping, Mapping, PackedEngine, RecoveringEngine, RecoveryPolicy,
};
use systolic_semiring::{
    pack_into_lanes, reflexive, unpack_from_lanes, warshall, Bool, BoolLanes, DenseMatrix, Semiring,
};

type Mat = DenseMatrix<Bool>;
type Call = Result<(Vec<Mat>, RunStats), EngineError>;

const TAG_POOL: u64 = 1;
const TAG_FAULTS: u64 = 2;

/// Batch shape shared by both simulator workloads.
#[derive(Clone, Copy, Debug)]
pub struct Batches {
    /// Instances per `closure_many` call.
    pub batch: usize,
    /// Distinct batches the calls cycle through.
    pub pool: usize,
    /// Problem size of every instance.
    pub n: usize,
    /// Edge probability of the `G(n, p)` instances.
    pub p: f64,
    /// Whether every instance also gets a random Hamiltonian cycle.
    pub strongly_connected: bool,
    /// Cells of the linear array.
    pub m: usize,
    /// Calls per second of `--seconds` in a traced run (each call is made
    /// twice there, untraced and traced).
    pub trace_rate: f64,
}

impl Batches {
    fn pool(&self, seed: u64) -> Vec<Vec<Mat>> {
        let mut rng = Rng::new(seed, TAG_POOL);
        (0..self.pool)
            .map(|_| {
                gnp_batch(
                    &mut rng,
                    self.batch,
                    self.n,
                    self.p,
                    self.strongly_connected,
                )
            })
            .collect()
    }

    fn fingerprint(&self, seed: u64) -> Vec<(&'static str, Json)> {
        let pool = self.pool(seed);
        vec![
            ("pool_batches", Json::from(pool.len() as u64)),
            ("instances", Json::from((pool.len() * self.batch) as u64)),
            ("n", Json::from(self.n as u64)),
            ("fnv1a", hash_batches(&pool).hex()),
        ]
    }

    fn trace_calls(&self, seconds: f64) -> usize {
        ((self.trace_rate * seconds).ceil() as usize).max(1)
    }

    /// The paper's ideal cycles per instance, `n²(n+1)/m`.
    fn ideal_cycles(&self) -> f64 {
        let n = self.n as f64;
        n * n * (n + 1.0) / self.m as f64
    }
}

fn oracle(pool: &[Vec<Mat>]) -> Vec<Vec<Mat>> {
    pool.iter()
        .map(|b| b.iter().map(warshall::<Bool>).collect())
        .collect()
}

/// Instances of a call whose result differs from `want` (all of them when
/// the call failed).
fn wrong(got: &Call, want: &[Mat]) -> u64 {
    match got {
        Ok((res, _)) if res.len() == want.len() => {
            res.iter().zip(want).filter(|(a, b)| a != b).count() as u64
        }
        _ => want.len() as u64,
    }
}

/// Latencies and wrong instances of the timed calls of both workloads.
#[derive(Default)]
struct Calls {
    lat: Vec<u64>,
    failed: u64,
}

impl Calls {
    /// Calls cycle through the pool for `seconds`; every result is checked
    /// outside the timed call.
    fn run(
        &mut self,
        seconds: f64,
        pool: &[Vec<Mat>],
        expected: &[Vec<Mat>],
        mut call: impl FnMut(&[Mat]) -> Call,
    ) {
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let b = self.lat.len() % pool.len();
            let t0 = Instant::now();
            let got = call(&pool[b]);
            self.lat.push(ns(t0.elapsed()));
            self.failed += wrong(&got, &expected[b]);
        }
    }

    fn finish(self, batch: usize, setup_s: &[f64]) -> Result<Outcome, String> {
        if self.lat.is_empty() {
            return Err("no call completed".into());
        }
        let attempted = (self.lat.len() * batch) as u64;
        let mut out = Outcome {
            attempted,
            failed: self.failed,
            counts: vec![("calls", self.lat.len() as u64), ("instances", attempted)],
            ..Outcome::default()
        };
        let (p50, rate) = harness::closed_loop(batch as f64, &self.lat);
        harness::end_to_end(&mut out, setup_s, p50, rate, harness::peak_rss_mb());
        Ok(out)
    }
}

/// Reassembles the single instance's result from the plan's output
/// streams, as the engine does.
fn unload<S: Semiring>(sim: &ArraySim<S>, n: usize) -> Result<DenseMatrix<S>, EngineError> {
    let mut r = DenseMatrix::<S>::zeros(n, n);
    for (j, col) in sim.outputs()[..n].iter().enumerate() {
        if col.len() != n {
            return Err(EngineError::Corrupt {
                instance: 0,
                detail: format!("output column {j} has {} of {n} words", col.len()),
            });
        }
        r.set_col(j, col);
    }
    Ok(r)
}

/// Simulated-event counters summed over a traced run.
#[derive(Default)]
struct SimCounts {
    instances: u64,
    cycles: u64,
    useful_ops: u64,
    link_words: u64,
    stalls: u64,
    cell_cycles: u64,
    injected: u64,
    detected: u64,
}

impl SimCounts {
    fn add(&mut self, s: &RunStats, instances: usize) {
        self.instances += instances as u64;
        self.cycles += s.cycles;
        self.useful_ops += s.useful_ops;
        self.link_words += s.link_words;
        self.stalls += s.total_stalls();
        self.cell_cycles += s.cycles * s.cells as u64;
        self.injected += s.fault.injected;
        self.detected += s.fault.detected;
    }

    fn report(&self, out: &mut Outcome, ideal: f64) {
        let per = |x: u64| x as f64 / self.instances.max(1) as f64;
        let n = self.instances;
        out.set("arraysim.cycles_per_op", per(self.cycles), n);
        out.set("arraysim.cycles_over_ideal", per(self.cycles) / ideal, n);
        out.set("arraysim.useful_ops_per_op", per(self.useful_ops), n);
        out.set("arraysim.link_words_per_op", per(self.link_words), n);
        out.set(
            "arraysim.stall_frac",
            self.stalls as f64 / self.cell_cycles.max(1) as f64,
            n,
        );
        out.set("arraysim.faults_injected", self.injected as f64, n);
        out.set("arraysim.faults_detected", self.detected as f64, n);
    }
}

/// `sim_packed`: `PackedEngine::closure_many` on 64-lane Boolean batches.
pub struct SimPacked(pub Batches);

impl SimPacked {
    pub fn full() -> Self {
        SimPacked(Batches {
            batch: 256,
            pool: 16,
            n: 32,
            p: 0.15,
            strongly_connected: false,
            m: 4,
            trace_rate: 30.0,
        })
    }
}

/// One `PackedEngine::closure_many` call rebuilt from public pieces: per
/// 64-instance lane group, transpose in, load the plan, run the ready
/// loop, unload and transpose out; group stats scale by the group's lane
/// count and merge in order. Also returns the cycles actually simulated.
fn packed_call(
    t: &mut Tracer,
    op: u64,
    plan: &CompiledPlan,
    sim: &mut ArraySim<BoolLanes>,
    batch: &[Mat],
) -> Result<(Call, u64), String> {
    let n = plan.n();
    let mut results = Vec::with_capacity(batch.len());
    let mut merged: Option<RunStats> = None;
    let mut simulated = 0;
    for group in batch.chunks(<BoolLanes as Semiring>::LANE_COUNT) {
        let packed = t.time("semiring.pack", op, || pack_into_lanes::<BoolLanes>(group));
        t.begin("partition.load", op);
        let refl = reflexive(&packed);
        sim.reset();
        plan.load(sim, std::slice::from_ref(&refl));
        t.end();
        let run = t.time("arraysim.run", op, || sim.run());
        let stats = run.map_err(|e| format!("packed group failed: {e}"))?;
        t.begin("partition.unload", op);
        simulated += stats.cycles;
        let closed = unload(sim, n).map_err(|e| e.to_string())?;
        let stats = stats.scaled(group.len() as u64);
        match &mut merged {
            None => merged = Some(stats),
            Some(acc) => acc.merge(&stats),
        }
        t.end();
        results.extend(t.time("semiring.unpack", op, || {
            unpack_from_lanes::<BoolLanes>(&closed, group.len())
        }));
    }
    Ok((Ok((results, merged.ok_or("empty batch")?)), simulated))
}

impl Workload for SimPacked {
    fn name(&self) -> &'static str {
        "sim_packed"
    }

    fn fingerprint(&self, seed: u64) -> Vec<(&'static str, Json)> {
        self.0.fingerprint(seed)
    }

    fn measure(&self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        let c = self.0;
        let expected = oracle(&c.pool(seed));
        let mut calls = Calls::default();
        let setup_s = harness::segmented(
            seconds,
            || {
                let pool = c.pool(seed);
                let engine = PackedEngine::new(c.m);
                // The first call compiles the plan: set-up, not steady state.
                engine.closure_many(&pool[0]).map_err(|e| e.to_string())?;
                Ok((pool, engine))
            },
            |(pool, engine), secs| {
                calls.run(secs, &pool, &expected, |b| engine.closure_many(b));
                Ok(())
            },
        )?;
        calls.finish(c.batch, &setup_s)
    }

    fn trace(&self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        let c = self.0;
        let calls = c.trace_calls(seconds);
        let pool = c.pool(seed);
        let expected = oracle(&pool);
        let engine = PackedEngine::new(c.m);
        let reference: Vec<Call> = pool.iter().map(|b| engine.closure_many(b)).collect();
        let mut t = Tracer::new(Instant::now());
        t.begin(BESIDE, 0);
        let plan = t.time("partition.plan", 0, || {
            LpgsMapping::new(c.m).build_plan(c.n, 1)
        });
        let mut sim = plan.instantiate::<BoolLanes>(false);
        t.end();
        // Untraced and traced calls alternate, so drift on the host
        // affects both sides of the overhead ratio alike.
        let (mut failed, mut untraced_ns, mut simulated) = (0, 0, 0);
        let mut counts = SimCounts::default();
        for i in 0..calls {
            let b = i % pool.len();
            let t0 = Instant::now();
            let got = engine.closure_many(&pool[b]);
            untraced_ns += ns(t0.elapsed());
            failed += wrong(&got, &expected[b]);

            t.begin(OP, i as u64);
            let (got, cycles) = packed_call(&mut t, i as u64, &plan, &mut sim, &pool[b])?;
            t.end();
            simulated += cycles;
            if got != reference[b] {
                failed += c.batch as u64;
            }
            if let Ok((_, stats)) = &got {
                counts.add(stats, c.batch);
            }
        }

        let sum = Summary::of(t.spans());
        let mut out = Outcome {
            attempted: (calls * c.batch) as u64,
            failed,
            counts: vec![("calls", calls as u64), ("instances", counts.instances)],
            ..Outcome::default()
        };
        harness::layer_times(
            &mut out,
            &sum,
            "ms",
            &[
                "arraysim.run",
                "semiring.pack",
                "semiring.unpack",
                "partition.load",
                "partition.unload",
                "partition.plan",
            ],
        );
        let run = sum.layer("arraysim.run");
        out.set(
            "arraysim.ns_per_cycle",
            run.self_ns as f64 / simulated.max(1) as f64,
            simulated,
        );
        counts.report(&mut out, c.ideal_cycles());
        out.set("arraysim.faults_escaped", 0.0, counts.instances);
        harness::trace_metrics(&mut out, &sum, untraced_ns);
        out.tracer = Some(t);
        Ok(out)
    }
}

/// `sim_faults`: `RecoveringEngine` over a `LinearEngine` with an armed
/// transient-fault plan.
///
/// The instances are strongly connected, so the reference closure is all
/// ones and the verifier's full idempotence check accepts nothing else: a
/// result that contains the input and is transitively closed contains the
/// closure of the input. On sparser inputs a corrupted bit can re-close
/// into the closure of a larger graph and pass the verifier (its
/// documented blind spot), about one instance in a hundred at this fault
/// rate, which would make wrong answers part of the workload.
pub struct SimFaults {
    pub batches: Batches,
    /// Per-opportunity fault rate of `FaultPlan::transients`.
    pub rate: f64,
}

impl SimFaults {
    pub fn full() -> Self {
        SimFaults {
            batches: Batches {
                batch: 16,
                pool: 16,
                n: 16,
                p: 0.06,
                strongly_connected: true,
                m: 4,
                trace_rate: 40.0,
            },
            rate: 3e-5,
        }
    }

    fn fault_plan(&self, seed: u64) -> FaultPlan {
        FaultPlan::transients(Rng::new(seed, TAG_FAULTS).next_u64(), self.rate)
    }

    fn policy() -> RecoveryPolicy {
        RecoveryPolicy {
            max_retries: 3,
            escalation: Escalation::Bypass,
        }
    }

    /// The library engine. Its plan is compiled by one unarmed call before
    /// the fault plan is armed, so the first armed call is warm and
    /// consumes fault-plan nonce 0.
    fn engine(&self, seed: u64, warm: &Mat) -> Result<RecoveringEngine<LinearEngine>, String> {
        let inner = LinearEngine::new(self.batches.m);
        ClosureEngine::<Bool>::closure(&inner, warm).map_err(|e| e.to_string())?;
        Ok(
            RecoveringEngine::new(inner.with_fault_plan(self.fault_plan(seed)))
                .with_policy(Self::policy()),
        )
    }
}

/// `LinearEngine`'s armed single-instance run rebuilt from public pieces,
/// recording spans into the shared tracer. `RecoveringEngine` drives it
/// exactly as it drives the library engine: same fault-plan reseeding per
/// call, same simulator reuse, same fault log for blame.
struct TracedLinear<'a> {
    plan: CompiledPlan,
    faults: FaultPlan,
    nonce: Cell<u64>,
    sim: RefCell<Option<ArraySim<Bool>>>,
    last_faults: RefCell<Vec<FaultEvent>>,
    /// Blame and bypass decisions depend only on the geometry, so they
    /// are delegated to a plain engine of the same size.
    geometry: LinearEngine,
    tracer: &'a RefCell<Tracer>,
    op: Cell<u64>,
    /// Address of the previous input: the same instance again is a retry.
    last_input: Cell<usize>,
    simulated: Cell<u64>,
}

impl ClosureEngine<Bool> for TracedLinear<'_> {
    fn name(&self) -> &'static str {
        "traced-linear"
    }

    fn cells(&self) -> usize {
        ClosureEngine::<Bool>::cells(&self.geometry)
    }

    fn closure_many(&self, mats: &[Mat]) -> Call {
        let [a] = mats else {
            return Err(EngineError::BadInput("one instance per attempt".into()));
        };
        let n = self.plan.n();
        if a.rows() != n || !a.is_square() {
            return Err(EngineError::BadInput(format!("expected {n}x{n}")));
        }
        let op = self.op.get();
        let addr = std::ptr::from_ref(a) as usize;
        let retry = self.last_input.replace(addr) == addr;
        let mut t = self.tracer.borrow_mut();
        t.begin(
            if retry {
                "partition.retry"
            } else {
                "partition.attempt"
            },
            op,
        );

        t.begin("partition.load", op);
        let refl = reflexive(a);
        let armed = self.faults.reseeded(self.nonce.get());
        self.nonce.set(self.nonce.get() + 1);
        let mut sim = match self.sim.borrow_mut().take() {
            Some(mut s) => {
                s.reset();
                s
            }
            None => self.plan.instantiate(false),
        };
        self.plan.load(&mut sim, std::slice::from_ref(&refl));
        sim.set_fault_plan(armed);
        t.end();

        let run = t.time("arraysim.dense_run", op, || sim.run_dense());

        t.begin("partition.unload", op);
        *self.last_faults.borrow_mut() = sim.take_fault_events();
        let result = run.map_err(EngineError::from).and_then(|stats| {
            self.simulated.set(self.simulated.get() + stats.cycles);
            unload(&sim, n).map(|r| (vec![r], stats))
        });
        if result.is_ok() {
            *self.sim.borrow_mut() = Some(sim);
        }
        t.end();
        t.end();
        result
    }
}

impl FaultAware<Bool> for TracedLinear<'_> {
    fn recent_faults(&self) -> Vec<FaultEvent> {
        self.last_faults.borrow().clone()
    }

    fn blame_cell(&self, event: &FaultEvent) -> Option<usize> {
        FaultAware::<Bool>::blame_cell(&self.geometry, event)
    }

    fn bypass_plan(&self, faulty: &[usize]) -> Option<FaultyLinearEngine> {
        FaultAware::<Bool>::bypass_plan(&self.geometry, faulty)
    }
}

impl Workload for SimFaults {
    fn name(&self) -> &'static str {
        "sim_faults"
    }

    fn fingerprint(&self, seed: u64) -> Vec<(&'static str, Json)> {
        let mut f = self.batches.fingerprint(seed);
        f.push((
            "fault_seed",
            Json::str(format!("{:#018x}", self.fault_plan(seed).seed)),
        ));
        f
    }

    fn measure(&self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        let c = self.batches;
        let expected = oracle(&c.pool(seed));
        let mut calls = Calls::default();
        let setup_s = harness::segmented(
            seconds,
            || {
                let pool = c.pool(seed);
                let engine = self.engine(seed, &pool[0][0])?;
                Ok((pool, engine))
            },
            |(pool, engine), secs| {
                calls.run(secs, &pool, &expected, |b| engine.closure_many(b));
                Ok(())
            },
        )?;
        calls.finish(c.batch, &setup_s)
    }

    fn trace(&self, seed: u64, seconds: f64) -> Result<Outcome, String> {
        let c = self.batches;
        let calls = c.trace_calls(seconds);
        let pool = c.pool(seed);
        let expected = oracle(&pool);

        let engine = self.engine(seed, &pool[0][0])?;
        let tracer = RefCell::new(Tracer::new(Instant::now()));
        let plan = {
            let mut t = tracer.borrow_mut();
            t.begin(BESIDE, 0);
            let plan = t.time("partition.plan", 0, || {
                LpgsMapping::new(c.m).build_plan(c.n, 1)
            });
            t.end();
            plan
        };
        let traced = RecoveringEngine::new(TracedLinear {
            plan: plan.clone(),
            faults: self.fault_plan(seed),
            nonce: Cell::new(0),
            sim: RefCell::new(None),
            last_faults: RefCell::new(Vec::new()),
            geometry: LinearEngine::new(c.m),
            tracer: &tracer,
            op: Cell::new(0),
            last_input: Cell::new(0),
            simulated: Cell::new(0),
        })
        .with_policy(Self::policy());
        let mut counts = SimCounts::default();
        let (mut failed, mut escaped, mut attempts, mut untraced_ns) = (0, 0, 0u64, 0);
        // Library and decomposed calls alternate; each engine keeps its own
        // fault-plan nonce sequence, so call i faces the same faults on both.
        for i in 0..calls {
            let b = i % pool.len();
            let t0 = Instant::now();
            let want = engine.closure_many(&pool[b]);
            untraced_ns += ns(t0.elapsed());

            traced.inner().op.set(i as u64);
            traced.inner().last_input.set(0);
            tracer.borrow_mut().begin(OP, i as u64);
            tracer.borrow_mut().begin("partition.recover", i as u64);
            let got = traced.closure_many(&pool[b]);
            tracer.borrow_mut().end();
            tracer.borrow_mut().end();
            if got != want {
                failed += c.batch as u64;
            } else if got.is_ok() {
                let bad = wrong(&got, &expected[b]);
                escaped += bad;
                failed += bad;
            } else {
                failed += c.batch as u64;
            }
            attempts += traced
                .outcomes()
                .iter()
                .map(|o| u64::from(o.attempts))
                .sum::<u64>();
            if let Ok((_, stats)) = &got {
                counts.add(stats, c.batch);
            }
        }

        let simulated = traced.inner().simulated.get();
        drop(traced);
        // Counterfactual: the same plan and instances, unarmed, on the
        // ready-tracking loop that armed runs cannot use today.
        let mut t = tracer.into_inner();
        t.begin(BESIDE, 0);
        let mut sim = plan.instantiate::<Bool>(false);
        for a in pool.iter().flatten() {
            sim.reset();
            plan.load(&mut sim, std::slice::from_ref(&reflexive(a)));
            t.time("arraysim.ready_run", 0, || sim.run())
                .map_err(|e| format!("unarmed run failed: {e}"))?;
        }
        t.end();

        let sum = Summary::of(t.spans());
        let ops = sum.ops();
        let retry_ns: u64 = t
            .spans()
            .iter()
            .filter(|s| s.name == "partition.retry")
            .map(|s| s.dur_ns())
            .sum();
        let mut out = Outcome {
            attempted: (calls * c.batch) as u64,
            failed,
            counts: vec![("calls", calls as u64), ("instances", counts.instances)],
            ..Outcome::default()
        };
        harness::layer_times(
            &mut out,
            &sum,
            "ms",
            &[
                "arraysim.dense_run",
                "arraysim.ready_run",
                "partition.load",
                "partition.unload",
                "partition.plan",
            ],
        );
        harness::layer_time(&mut out, &sum, "partition.verify_ms", "partition.recover");
        out.set(
            "partition.recover_ms",
            retry_ns as f64 / 1e6 / ops.max(1) as f64,
            ops,
        );
        out.set(
            "partition.attempts_per_op",
            attempts as f64 / counts.instances.max(1) as f64,
            counts.instances,
        );
        out.set(
            "arraysim.ns_per_cycle",
            sum.layer("arraysim.dense_run").self_ns as f64 / simulated.max(1) as f64,
            simulated,
        );
        counts.report(&mut out, c.ideal_cycles());
        out.set("arraysim.faults_escaped", escaped as f64, counts.instances);
        harness::trace_metrics(&mut out, &sum, untraced_ns);
        out.tracer = Some(t);
        Ok(out)
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    pub fn tiny_packed() -> SimPacked {
        SimPacked(Batches {
            batch: 70,
            pool: 2,
            n: 6,
            p: 0.3,
            strongly_connected: false,
            m: 3,
            trace_rate: 3.0,
        })
    }

    pub fn tiny_faults() -> SimFaults {
        SimFaults {
            batches: Batches {
                batch: 4,
                pool: 2,
                n: 6,
                p: 0.2,
                strongly_connected: true,
                m: 3,
                trace_rate: 4.0,
            },
            rate: 2e-2,
        }
    }

    #[test]
    fn decomposed_packed_call_equals_the_engine() {
        let c = tiny_packed().0;
        let pool = c.pool(9);
        let engine = PackedEngine::new(c.m);
        let plan = LpgsMapping::new(c.m).build_plan(c.n, 1);
        let mut sim = plan.instantiate::<BoolLanes>(false);
        let mut t = Tracer::new(Instant::now());
        for batch in &pool {
            let want = engine.closure_many(batch);
            let (got, simulated) = packed_call(&mut t, 0, &plan, &mut sim, batch).unwrap();
            assert_eq!(got, want, "results and RunStats");
            let (closed, stats) = got.unwrap();
            assert_eq!(closed.len(), batch.len());
            assert!(
                simulated > 0 && stats.cycles > simulated,
                "stats are per instance"
            );
        }
    }

    #[test]
    fn decomposed_recovery_replays_the_library_bit_for_bit() {
        let w = tiny_faults();
        let out = w.trace(4, 1.0).unwrap();
        assert_eq!(out.failed, 0, "traced replay diverged or escaped");
        assert!(
            out.metrics["arraysim.faults_injected"].value > 0.0,
            "the rate injects"
        );
        assert!(
            out.metrics["partition.attempts_per_op"].value > 1.0,
            "some retry"
        );
    }
}
