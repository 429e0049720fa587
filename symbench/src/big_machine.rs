//! `big_machine`: the solver ladder on the synthetic K = 8 machine.
//!
//! Set-up builds the 125 969-combo K = 8 table over 12 types (plus a
//! K = 4 table for the N = 12 / K = 4 band) and the 12 000-combo
//! stratified training sample. The timed phase runs an N = 8 / K = 8
//! `Session::sweep()`, single-workload sessions chosen so every Markov
//! tier (dense LU, Gauss–Seidel, multicolor SOR, SOR) and both LP paths
//! (dense, column generation) execute, and the `model_accuracy` path:
//! `PredictedModel::fit`, then FCFS-MARKOV on the predicted model.
//! `lp`, `core` and `predict` do all the work; `simproc` never runs.

use std::time::Instant;

use predict::{
    samples_from_table, stratified_plan, InterferenceFitter, PredictedModel, RateSample,
};
use session::{Policy, Session, SessionReport, SweepReport};
use symbiosis::rng::SplitMix64;
use symbiosis::{enumerate_workloads, WorkloadRates};
use workloads::{PerfTable, WorkUnit};

use crate::check::{perturb_bits, perturb_value, rel_mismatches, row_digest, sweep_digests};
use crate::harness::{median, percentile, pick, tail, Metric, Pass, DEFAULT_SEED, THREADS};
use crate::layers::Layers;
use crate::{reference, synthetic, Workload};

const TYPES: usize = 12;
const CONTEXTS: usize = 8;
/// Combos in the stratified training sample (9.5% of 125 969).
const SAMPLE_BUDGET: usize = 12_000;
/// N = 8 / K = 8 workloads in the timed sweep.
const SWEEP_WORKLOADS: usize = 36;
const POLICIES: [Policy; 3] = [Policy::Optimal, Policy::Worst, Policy::FcfsMarkov];

/// One single-workload session of the ladder.
#[derive(Clone)]
struct Leg {
    /// Which table: the K = 8 one, or the K = 4 one.
    k: usize,
    types: Vec<usize>,
    /// Threads of the session's multicolor sweep (1 selects plain SOR).
    threads: usize,
}

pub struct BigMachine {
    seed: u64,
    perturb: bool,
    k8: PerfTable,
    k4: PerfTable,
    samples: Vec<RateSample>,
    sweep: Vec<Vec<usize>>,
    legs: Vec<Leg>,
    synthetic_s: f64,
    /// Throughputs of the first pass (sweep rows, legs, predicted);
    /// later passes must reproduce them bitwise.
    first: Option<Vec<f64>>,
    last_sweep: Option<SweepReport>,
}

pub fn setup(seed: u64, perturb: bool) -> Result<Box<dyn Workload>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (k8, t8) = synthetic::table(TYPES, CONTEXTS)?;
    let (k4, t4) = synthetic::table(TYPES, 4)?;
    let plan = stratified_plan(TYPES, CONTEXTS, SAMPLE_BUDGET, seed).map_err(|e| err(&e))?;
    let start = Instant::now();
    let sampled = PerfTable::synthetic_sampled(
        synthetic::names(TYPES),
        CONTEXTS,
        plan.indices(),
        synthetic::ipcs,
    )
    .map_err(|e| err(&e))?;
    let ts = start.elapsed().as_secs_f64();
    let all: Vec<usize> = (0..TYPES).collect();
    let samples = samples_from_table(&sampled, &all, WorkUnit::Weighted).map_err(|e| err(&e))?;

    // The sweep and ladder workloads are fixed; the seed drives the
    // sampling plan only, so the solver work per pass does not change
    // with it.
    let mut rng = SplitMix64::new(0xB16);
    let n8 = enumerate_workloads(TYPES, 8);
    let sweep = pick(&mut rng, n8.len(), SWEEP_WORKLOADS)
        .into_iter()
        .map(|i| n8[i].clone())
        .collect();
    // The ladder, smallest chains first. States are C(N + K - 1, K);
    // LP columns are the same count.
    let mut legs = Vec::new();
    let mut leg = |k: usize, n: usize, threads: usize, count: usize, rng: &mut SplitMix64| {
        for _ in 0..count {
            legs.push(Leg {
                k,
                types: pick(rng, TYPES, n),
                threads,
            });
        }
    };
    leg(8, 4, THREADS, 8, &mut rng); //     165 states: dense LU, dense LP
    leg(8, 5, THREADS, 6, &mut rng); //     495 states: dense LU, dense LP
    leg(8, 6, THREADS, 4, &mut rng); //   1 287 states: Gauss–Seidel, dense LP
    leg(4, 12, THREADS, 1, &mut rng); //  1 365 states: Gauss–Seidel, dense LP
    leg(8, 7, THREADS, 2, &mut rng); //   3 003 states: Gauss–Seidel, colgen

    // The two 75 582-state chains (the N = 12 leg and the predicted
    // model) run one-thread SOR: on two cores the barrier-synchronised
    // multicolor sweep was slower and inflated 1.6x under a one-core
    // competing load (SOR: 1.2x), which made run_s swing with host load.
    leg(8, 8, THREADS, 1, &mut rng); //   6 435 states: multicolor SOR, colgen
    leg(8, 12, 1, 1, &mut rng); //       75 582 states: SOR, colgen
    Ok(Box::new(BigMachine {
        seed,
        perturb,
        k8,
        k4,
        samples,
        sweep,
        legs,
        synthetic_s: t8 + t4 + ts,
        first: None,
        last_sweep: None,
    }))
}

fn session(table: &PerfTable, leg: &Leg) -> Result<SessionReport, String> {
    let rates = table
        .workload_rates(&leg.types)
        .map_err(|e| e.to_string())?;
    Session::builder()
        .rates(&rates)
        .policies(POLICIES)
        .threads(leg.threads)
        .run()
        .map_err(|e| e.to_string())
}

fn throughputs(report: &SessionReport) -> impl Iterator<Item = f64> + '_ {
    report.rows.iter().map(|r| r.throughput)
}

impl BigMachine {
    fn table(&self, k: usize) -> &PerfTable {
        if k == 4 {
            &self.k4
        } else {
            &self.k8
        }
    }
}

impl Workload for BigMachine {
    fn pass(&mut self, layers: &mut Layers) -> Result<Pass, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let mut out = Pass::default();
        let mut got = Vec::new();
        let start = Instant::now();

        // The sweep runs its chains by sequential Gauss–Seidel so the
        // pool's two workers are the only compute threads.
        let t = Instant::now();
        let cpu = layers.cpu();
        let sweep = Session::sweep()
            .table(&self.k8)
            .workloads(self.sweep.clone())
            .policies(POLICIES)
            .threads(THREADS)
            .markov_accel_limit(usize::MAX)
            .run()
            .map_err(|e| err(&e))?;
        out.count("sweep_s", t.elapsed().as_secs_f64());
        layers.add("api.cpu_s", layers.cpu() - cpu);
        layers.stop("api.sweep_s", t);
        out.count("rows", (sweep.len() * POLICIES.len()) as f64);
        for row in &sweep.rows {
            got.extend(throughputs(&row.report));
        }

        for leg in &self.legs {
            let t = Instant::now();
            let report = session(self.table(leg.k), leg)?;
            out.latencies.push(t.elapsed().as_secs_f64() * 1e3);
            layers.stop("core.session_s", t);
            got.extend(throughputs(&report));
        }

        let t = Instant::now();
        let model = PredictedModel::fit(
            TYPES,
            CONTEXTS,
            self.samples.clone(),
            Box::new(InterferenceFitter),
        )
        .map_err(|e| err(&e))?;
        layers.stop("predict.fit_s", t);
        let t = Instant::now();
        let predicted = Session::builder()
            .rates(&model)
            .policy(Policy::FcfsMarkov)
            .threads(1)
            .run()
            .map_err(|e| err(&e))?;
        out.latencies.push(t.elapsed().as_secs_f64() * 1e3);
        layers.stop("core.session_s", t);
        got.extend(throughputs(&predicted));
        out.wall = start.elapsed().as_secs_f64();

        out.attempted = got.len() as u64;
        if self.seed == DEFAULT_SEED {
            let want: Vec<f64> = reference::BIG_THROUGHPUTS
                .iter()
                .map(|&x| perturb_value(x, self.perturb))
                .collect();
            out.failed = rel_mismatches(&got, &want);
        }
        match &self.first {
            None => self.first = Some(got),
            Some(first) => {
                let drift = got
                    .iter()
                    .zip(first)
                    .filter(|(a, b)| a.to_bits() != b.to_bits())
                    .count() as u64;
                out.failed = out.failed.max(drift);
            }
        }
        if out.failed > 0 {
            eprintln!("big_machine: {} throughput(s) mismatched", out.failed);
        }
        self.last_sweep = Some(sweep);
        Ok(out)
    }

    fn verify(&mut self) -> Result<(u64, u64), String> {
        let (mut attempted, mut failed) = (0, 0);
        // Sweep rows are pinned bitwise to sequential sessions.
        if let Some(sweep) = &self.last_sweep {
            let digests = sweep_digests(sweep);
            for (i, w) in self.sweep.iter().enumerate().take(2) {
                let view = self.k8.workload_view(w).map_err(|e| e.to_string())?;
                let seq = Session::builder()
                    .rates(&view)
                    .policies(POLICIES)
                    .markov_accel_limit(usize::MAX)
                    .run()
                    .map_err(|e| e.to_string())?;
                for (j, row) in seq.rows.iter().enumerate() {
                    attempted += 1;
                    let want = perturb_bits(row_digest(w, row), self.perturb);
                    if want != digests[i * POLICIES.len() + j] {
                        failed += 1;
                    }
                }
            }
        }
        // Solver tiers agree within the repository's parity tolerances:
        // 1e-9 between Markov tiers, 1e-7 between LP paths.
        // Each shape runs once as in the timed phase and once with the
        // alternative tiers forced: (k, n) -> (LP dense limit, Markov
        // dense limit, Markov accel limit, threads).
        let dense = symbiosis::DEFAULT_MARKOV_DENSE_LIMIT;
        let accel = symbiosis::DEFAULT_MARKOV_ACCEL_LIMIT;
        let pairs = [
            ((8, 5), (0, 0, accel, THREADS)),        // dense LU/LP -> GS, colgen
            ((4, 12), (0, dense, 0, THREADS)),       // GS, dense LP -> multicolor, colgen
            ((8, 8), (usize::MAX, dense, accel, 1)), // multicolor, colgen -> SOR, dense LP
        ];
        for ((k, n), (lp_limit, dense_limit, accel_limit, threads)) in pairs {
            let leg = self
                .legs
                .iter()
                .find(|l| l.k == k && l.types.len() == n)
                .expect("the ladder holds every parity shape")
                .clone();
            let base = session(self.table(k), &leg)?;
            let rates = self
                .table(k)
                .workload_rates(&leg.types)
                .map_err(|e| e.to_string())?;
            let alt = Session::builder()
                .rates(&rates)
                .policies(POLICIES)
                .threads(threads)
                .lp_dense_limit(lp_limit)
                .markov_dense_limit(dense_limit)
                .markov_accel_limit(accel_limit)
                .run()
                .map_err(|e| e.to_string())?;
            for (b, a) in base.rows.iter().zip(&alt.rows) {
                attempted += 1;
                let tol = if b.policy == Policy::FcfsMarkov {
                    1e-9
                } else {
                    1e-7
                };
                if (b.throughput - perturb_value(a.throughput, self.perturb)).abs() > tol {
                    failed += 1;
                }
            }
        }
        if failed > 0 {
            eprintln!("big_machine: {failed} parity check(s) failed");
        }
        Ok((attempted, failed))
    }

    fn largest_chain(&self) -> Option<WorkloadRates> {
        let all: Vec<usize> = (0..TYPES).collect();
        self.k8.workload_rates(&all).ok()
    }

    fn metrics(&self, passes: &[Pass]) -> Vec<Metric> {
        let lat: Vec<f64> = passes.iter().flat_map(|p| p.latencies.clone()).collect();
        let (p, t) = tail(&lat);
        vec![
            Metric::new(
                "rows_per_s",
                median(
                    &passes
                        .iter()
                        .map(|p| p.counted("rows") / p.counted("sweep_s"))
                        .collect::<Vec<_>>(),
                ),
                "1/s",
                "N=8/K=8 sweep rows (workload x policy) per second, median pass",
            ),
            Metric::new(
                "solve_ms_p50",
                percentile(&lat, 500),
                "ms",
                format!("single-workload Session::run, n={}", lat.len()),
            ),
            Metric::new(
                "solve_ms_tail",
                t,
                "ms",
                format!("p{p} of single-workload Session::run, n={}", lat.len()),
            ),
        ]
    }

    fn synthetic_s(&self) -> f64 {
        self.synthetic_s
    }

    fn print_reference(&self) -> String {
        format!(
            "BIG_THROUGHPUTS = {:?}",
            self.first.clone().unwrap_or_default()
        )
    }
}
