//! `online`: the two event loops, each at loads 0.8 and 0.95.
//!
//! * The Figure 5-shaped latency sweep: `Session::sweep()` over N = 4
//!   workloads on a K = 4 synthetic table; per workload the FCFS maximum
//!   throughput sets the Poisson arrival rate, then the four latency
//!   policies run through `queueing`'s discrete-event simulator.
//! * `serve::run_serve` with the FCFS, greedy-MAXIT and beam-8 placers
//!   and a background twin, on the `serve` experiment's 8-type K = 8
//!   synthetic truth, at the stated fraction of the balanced coschedule's
//!   completion rate.
//!
//! Arrivals are an open loop in virtual time; the host side is a batch
//! run, so generator lateness does not apply.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use predict::{InterferenceFitter, PredictedModel, RateSample};
use queueing::{LatencyConfig, SizeDist};
use serve::{run_serve, BeamPlacer, Placer, PolicyPlacer, ServeConfig, ServeReport};
use session::{Policy, PolicyReport, Session};
use symbiosis::rng::SplitMix64;
use symbiosis::{enumerate_workloads, CoscheduleIter, RateModel, WorkloadRates};
use workloads::PerfTable;

use crate::check::{combine, mismatches, perturb_bits, policy_digest, serve_digest};
use crate::harness::{median, percentile, pick, tail, Metric, Pass, DEFAULT_SEED, THREADS};
use crate::layers::Layers;
use crate::wrap::{CountingModel, PlaceLog, TimedPlacer};
use crate::{reference, synthetic, Workload};

/// Loads, as fractions of capacity.
const LOADS: [f64; 2] = [0.8, 0.95];
/// N = 4 workloads in the latency sweep.
const LATENCY_WORKLOADS: usize = 16;
/// Measured completions per latency-policy run (plus a tenth as warm-up).
const MEASURED_JOBS: u64 = 2_000;
/// Job types of the serve truth (of the 12-type synthetic suite).
const SERVE_TYPES: usize = 8;
const SERVE_CONTEXTS: usize = 8;
/// Jobs per serve run.
const SERVE_JOBS: usize = 2_000;
const BEAM_WIDTH: usize = 8;
const PLACERS: [&str; 3] = ["FCFS", "MAXIT", "BEAM"];

/// Latency-sweep rows: per load, per workload, one row per policy.
type LatencyRows = Vec<Vec<Vec<PolicyReport>>>;

pub struct Online {
    seed: u64,
    perturb: bool,
    k4: PerfTable,
    latency_workloads: Vec<Vec<usize>>,
    truth: PerfTable,
    seed_samples: Vec<RateSample>,
    capacity: f64,
    synthetic_s: f64,
    /// Latency-row and serve digests of the first pass.
    first: Option<(Vec<u64>, Vec<u64>)>,
    /// The last pass's latency rows and serve reports.
    last: Option<(LatencyRows, Vec<ServeReport>)>,
}

fn placer(name: &str) -> Box<dyn Placer> {
    match name {
        "FCFS" => Box::new(PolicyPlacer::fcfs()),
        "MAXIT" => Box::new(PolicyPlacer::greedy()),
        _ => Box::new(BeamPlacer::new(BEAM_WIDTH)),
    }
}

/// The twin's starting model: every coschedule of size 1 and 2 measured
/// against the truth (the `serve` experiment's seed model).
fn seed_samples(truth: &dyn RateModel) -> Vec<RateSample> {
    let n = truth.num_types();
    (1..=2)
        .flat_map(|s| CoscheduleIter::new(n, s))
        .map(|c| RateSample {
            counts: c.counts().to_vec(),
            rates: (0..n).map(|ty| truth.total_rate(c.counts(), ty)).collect(),
        })
        .collect()
}

/// The DES config of the `index`-th latency workload. Each workload gets
/// its own arrival stream: near saturation the work of one DES run swings
/// with its arrival sequence, and independent streams average that out
/// over the sweep instead of repeating one stream's backlog in every row.
fn latency_config(seed: u64, load: f64, index: usize, fcfs_throughput: f64) -> LatencyConfig {
    let stream = (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    LatencyConfig {
        arrival_rate: load * fcfs_throughput,
        measured_jobs: MEASURED_JOBS,
        warmup_jobs: MEASURED_JOBS / 10,
        sizes: SizeDist::Exponential,
        seed: SplitMix64::new(seed ^ (load * 1000.0) as u64 ^ stream).next_u64(),
    }
}

fn serve_config(seed: u64, load: f64, capacity: f64, background: bool) -> ServeConfig {
    ServeConfig {
        arrival_rate: load * capacity,
        jobs: SERVE_JOBS,
        seed: seed ^ (load * 1000.0) as u64,
        // Room for every job: nothing is shed, however deep the backlog.
        queue_capacity: SERVE_JOBS,
        batch: 50,
        background_twin: background,
        ..ServeConfig::default()
    }
}

pub fn setup(seed: u64, perturb: bool) -> Result<Box<dyn Workload>, String> {
    let (k4, t4) = synthetic::table(12, 4)?;
    let (truth, t8) = synthetic::table(SERVE_TYPES, SERVE_CONTEXTS)?;
    let all: Vec<usize> = (0..SERVE_TYPES).collect();
    let view = truth.workload_view(&all).map_err(|e| e.to_string())?;
    let seed_samples = seed_samples(&view);
    let balanced = vec![(SERVE_CONTEXTS / SERVE_TYPES) as u32; SERVE_TYPES];
    let capacity = view.instantaneous_throughput(&balanced);
    // A fixed set of workloads; the seed drives arrivals and the DES.
    let mut rng = SplitMix64::new(0x0A11);
    let n4 = enumerate_workloads(12, 4);
    let latency_workloads = pick(&mut rng, n4.len(), LATENCY_WORKLOADS)
        .into_iter()
        .map(|i| n4[i].clone())
        .collect();
    Ok(Box::new(Online {
        seed,
        perturb,
        k4,
        latency_workloads,
        truth,
        seed_samples,
        capacity,
        synthetic_s: t4 + t8,
        first: None,
        last: None,
    }))
}

impl Online {
    fn serve_run(
        &self,
        load: f64,
        name: &str,
        background: bool,
        layers: &mut Layers,
        log: &Arc<PlaceLog>,
    ) -> Result<ServeReport, String> {
        let all: Vec<usize> = (0..SERVE_TYPES).collect();
        let view = self.truth.workload_view(&all).map_err(|e| e.to_string())?;
        let truth = CountingModel::new(&view);
        let t = Instant::now();
        let model = PredictedModel::fit(
            SERVE_TYPES,
            SERVE_CONTEXTS,
            self.seed_samples.clone(),
            Box::new(InterferenceFitter),
        )
        .map_err(|e| e.to_string())?;
        layers.stop("predict.fit_s", t);
        let timed = TimedPlacer {
            inner: placer(name),
            log: Arc::clone(log),
        };
        let cfg = serve_config(self.seed, load, self.capacity, background);
        let t = Instant::now();
        let report = run_serve(&truth, model, Box::new(timed), &cfg).map_err(|e| e.to_string())?;
        layers.stop("serve.run_s", t);
        layers.add(
            "serve.truth_calls",
            truth.calls.load(Ordering::Relaxed) as f64,
        );
        Ok(report)
    }
}

impl Workload for Online {
    fn pass(&mut self, layers: &mut Layers) -> Result<Pass, String> {
        let mut out = Pass::default();
        let log = Arc::new(PlaceLog::default());
        let mut latency_rows = Vec::new();
        let mut serves = Vec::new();
        let start = Instant::now();
        for load in LOADS {
            let seed = self.seed;
            let t = Instant::now();
            let rows = Session::sweep()
                .table(&self.k4)
                .workloads(self.latency_workloads.clone())
                .threads(THREADS)
                .map(|item| {
                    let view = item.view()?;
                    let fcfs = item
                        .session()
                        .rates(&view)
                        .policy(Policy::FcfsMarkov)
                        .run()
                        .map_err(|e| e.to_string())?
                        .throughput(Policy::FcfsMarkov)
                        .expect("requested");
                    let report = item
                        .session()
                        .rates(&view)
                        .policies(Policy::LATENCY)
                        .latency(latency_config(seed, load, item.index(), fcfs))
                        .run()
                        .map_err(|e| e.to_string())?;
                    Ok(report.rows)
                })
                .map_err(|e| e.to_string())?;
            layers.stop("queueing.des_s", t);
            let jobs =
                (rows.len() * Policy::LATENCY.len()) as u64 * (MEASURED_JOBS + MEASURED_JOBS / 10);
            layers.add("queueing.jobs", jobs as f64);
            out.count("jobs", jobs as f64);
            latency_rows.push(rows);

            for name in PLACERS {
                let report = self.serve_run(load, name, true, layers, &log)?;
                out.count("jobs", SERVE_JOBS as f64);
                serves.push(report);
            }
        }
        out.wall = start.elapsed().as_secs_f64();
        let place = log.micros.lock().expect("no placer panicked");
        layers.add("serve.place_s", place.iter().sum::<f64>() / 1e6);
        layers.add("serve.place_calls", place.len() as f64);
        out.latencies = place.clone();

        // Checks.
        let lat: Vec<u64> = latency_rows
            .iter()
            .flatten()
            .flatten()
            .map(policy_digest)
            .collect();
        let srv: Vec<u64> = serves.iter().map(serve_digest).collect();
        out.attempted = out.counted("jobs") as u64;
        let des_jobs_per_row = MEASURED_JOBS + MEASURED_JOBS / 10;
        let mut bad_rows = 0;
        let mut bad_serves = 0;
        for s in &serves {
            // A shed job counts as failed.
            out.failed += s.rejected;
        }
        if self.seed == DEFAULT_SEED {
            let want = reference::ONLINE_LATENCY.map(|d| perturb_bits(d, self.perturb));
            if want.first() != Some(&combine(&lat)) {
                bad_rows = lat.len() as u64;
            }
            let want = reference::ONLINE_SERVE.map(|d| perturb_bits(d, self.perturb));
            bad_serves = mismatches(&srv, &want);
        }
        if let Some((first_lat, first_srv)) = &self.first {
            bad_rows = bad_rows.max(mismatches(&lat, first_lat));
            bad_serves = bad_serves.max(mismatches(&srv, first_srv));
        }
        if bad_rows + bad_serves > 0 {
            eprintln!("online: {bad_rows} latency row(s), {bad_serves} serve run(s) mismatched");
        }
        out.failed += bad_rows * des_jobs_per_row + bad_serves * SERVE_JOBS as u64;
        if self.first.is_none() {
            self.first = Some((lat, srv));
        }
        self.last = Some((latency_rows, serves));
        Ok(out)
    }

    fn verify(&mut self) -> Result<(u64, u64), String> {
        let Some((latency_rows, serves)) = self.last.take() else {
            return Ok((0, 0));
        };
        let (mut attempted, mut failed) = (0, 0);
        // The background twin reproduces the inline twin's run bitwise.
        let log = Arc::new(PlaceLog::default());
        let mut off = Layers::new(false);
        let mut i = 0;
        for load in LOADS {
            for name in PLACERS {
                let inline = self.serve_run(load, name, false, &mut off, &log)?;
                attempted += SERVE_JOBS as u64;
                if perturb_bits(serve_digest(&inline), self.perturb) != serve_digest(&serves[i]) {
                    failed += SERVE_JOBS as u64;
                }
                i += 1;
            }
        }
        // Sweep rows equal sequential sessions over the same view.
        for (li, load) in LOADS.into_iter().enumerate() {
            for (wi, w) in self.latency_workloads.iter().enumerate().take(2) {
                let view = self.k4.workload_view(w).map_err(|e| e.to_string())?;
                let fcfs = Session::builder()
                    .rates(&view)
                    .policy(Policy::FcfsMarkov)
                    .run()
                    .map_err(|e| e.to_string())?
                    .throughput(Policy::FcfsMarkov)
                    .expect("requested");
                let seq = Session::builder()
                    .rates(&view)
                    .policies(Policy::LATENCY)
                    .latency(latency_config(self.seed, load, wi, fcfs))
                    .run()
                    .map_err(|e| e.to_string())?;
                for (got, want) in latency_rows[li][wi].iter().zip(&seq.rows) {
                    attempted += MEASURED_JOBS + MEASURED_JOBS / 10;
                    if policy_digest(got) != perturb_bits(policy_digest(want), self.perturb) {
                        failed += MEASURED_JOBS + MEASURED_JOBS / 10;
                    }
                }
            }
        }
        if failed > 0 {
            eprintln!("online: parity checks failed for {failed} job(s)");
        }
        Ok((attempted, failed))
    }

    fn largest_chain(&self) -> Option<WorkloadRates> {
        self.k4.workload_rates(&self.latency_workloads[0]).ok()
    }

    fn metrics(&self, passes: &[Pass]) -> Vec<Metric> {
        let place: Vec<f64> = passes.iter().flat_map(|p| p.latencies.clone()).collect();
        let (p, t) = tail(&place);
        vec![
            Metric::new(
                "jobs_per_s",
                median(
                    &passes
                        .iter()
                        .map(|p| p.counted("jobs") / p.wall)
                        .collect::<Vec<_>>(),
                ),
                "1/s",
                "simulated jobs (latency DES + serve) per second, median pass",
            ),
            Metric::new(
                "place_us_p50",
                percentile(&place, 500),
                "us",
                format!("Placer::place calls, n={}", place.len()),
            ),
            Metric::new(
                "place_us_tail",
                t,
                "us",
                format!("p{p} of Placer::place calls, n={}", place.len()),
            ),
        ]
    }

    fn synthetic_s(&self) -> f64 {
        self.synthetic_s
    }

    fn print_reference(&self) -> String {
        match &self.first {
            Some((lat, srv)) => {
                format!(
                    "ONLINE_LATENCY = [{:#x}]\nONLINE_SERVE = {srv:#x?}",
                    combine(lat)
                )
            }
            None => String::new(),
        }
    }
}
