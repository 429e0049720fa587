//! The discrete-event latency experiment (Section VI of the paper).
//!
//! Jobs arrive as a Poisson process, queue when the machine is busy, and
//! run at coschedule-dependent rates chosen by a pluggable [`Scheduler`].
//! Between events (arrival / completion) the running coschedule is fixed,
//! so time advances analytically to the next event — no time-stepping.
//!
//! [`Running`] is that advance step. The latency and batch experiments
//! here share one event loop over it, and `serve::run_serve` drives it
//! directly, so every event loop in the workspace advances work and
//! decides completion in one place.

use symbiosis::rng::SplitMix64;
use symbiosis::RateModel;

use crate::job::{Job, JobPool};
use crate::sched::Scheduler;

/// Remaining work at or below which a running job counts as finished.
const DONE_EPS: f64 = 1e-12;

/// The running coschedule between two events.
///
/// Between events the running multiset is fixed, so every running job
/// progresses at the per-job rate its type gets in that multiset. After
/// the running set changes, [`Running::price`] prices it once (one
/// [`RateModel::per_job_rate`] per present type) and returns the time to
/// the next completion; [`Running::advance`] then moves every job forward
/// by the elapsed time at those rates.
#[derive(Debug, Clone)]
pub struct Running {
    jobs: Vec<Job>,
    counts: Vec<u32>,
    rates: Vec<f64>,
}

impl Running {
    /// An empty machine for `num_types` job types.
    pub fn new(num_types: usize) -> Self {
        Running {
            jobs: Vec::new(),
            counts: vec![0; num_types],
            rates: vec![0.0; num_types],
        }
    }

    /// Starts `job` on a context. Call [`Running::price`] before the next
    /// [`Running::advance`].
    pub fn start(&mut self, job: Job) {
        self.counts[job.ty] += 1;
        self.jobs.push(job);
    }

    /// Stops every running job.
    pub fn clear(&mut self) {
        self.jobs.clear();
        self.counts.fill(0);
    }

    /// Running jobs, in start order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The running multiset, as per-type counts.
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Number of running jobs (busy contexts).
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no job runs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The per-job rate of type `ty` in the multiset last priced.
    pub fn rate(&self, ty: usize) -> f64 {
        self.rates[ty]
    }

    /// Prices the running multiset under `model` and returns the time
    /// until the first running job completes (infinite when idle).
    pub fn price(&mut self, model: &dyn RateModel) -> f64 {
        for (ty, &count) in self.counts.iter().enumerate() {
            if count > 0 {
                let rate = model.per_job_rate(&self.counts, ty);
                debug_assert!(rate > 0.0, "running jobs must progress");
                self.rates[ty] = rate;
            }
        }
        self.jobs
            .iter()
            .map(|job| job.remaining / self.rates[job.ty])
            .fold(f64::INFINITY, f64::min)
    }

    /// Advances every running job by `dt` at the priced rates and moves
    /// the finished ones (remaining work at or below 1e-12) to `done`, in
    /// start order.
    pub fn advance(&mut self, dt: f64, done: &mut Vec<Job>) {
        let (rates, counts) = (&self.rates, &mut self.counts);
        self.jobs.retain_mut(|job| {
            job.remaining -= rates[job.ty] * dt;
            if job.remaining <= DONE_EPS {
                counts[job.ty] -= 1;
                done.push(job.clone());
                false
            } else {
                true
            }
        });
    }
}

/// Distribution of job sizes (work per job).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeDist {
    /// All jobs carry one unit of work.
    Deterministic,
    /// Exponential with mean one (the M/M/c-style setting used by the
    /// paper's Section VI experiments and by Snavely et al.).
    Exponential,
}

/// Parameters of a latency experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyConfig {
    /// Mean arrivals per cycle. May exceed the machine's maximum
    /// throughput, turning the run into a saturation (maximum-throughput)
    /// experiment — Figure 6.
    pub arrival_rate: f64,
    /// Completions counted into the measurement.
    pub measured_jobs: u64,
    /// Completions discarded as warm-up before measurement starts.
    pub warmup_jobs: u64,
    /// Job size distribution.
    pub sizes: SizeDist,
    /// RNG seed (arrivals, types, sizes).
    pub seed: u64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            arrival_rate: 1.0,
            measured_jobs: 20_000,
            warmup_jobs: 2_000,
            sizes: SizeDist::Exponential,
            seed: 0xD15C,
        }
    }
}

/// Measured outcome of a latency experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyReport {
    /// Mean time from arrival to completion.
    pub mean_turnaround: f64,
    /// Mean number of busy contexts (the paper's "processor utilization").
    pub utilization: f64,
    /// Fraction of time the system held no jobs at all.
    pub empty_fraction: f64,
    /// Work completed per cycle over the measurement window (equals the
    /// arrival rate for stable systems; the achieved maximum throughput in
    /// saturation).
    pub throughput: f64,
    /// Time-averaged number of jobs in the system.
    pub mean_jobs_in_system: f64,
    /// Number of completions measured.
    pub completed: u64,
}

/// Runs one latency experiment.
///
/// # Errors
///
/// Returns a description of the first invalid parameter (non-positive
/// arrival rate or zero measured jobs).
///
/// # Examples
///
/// ```
/// use queueing::{
///     run_latency_experiment, ContentionModel, FcfsScheduler, LatencyConfig, SizeDist,
/// };
///
/// let rates = ContentionModel::new(vec![1.0], 0.0, 4);
/// let report = run_latency_experiment(
///     &rates,
///     &mut FcfsScheduler,
///     &LatencyConfig {
///         arrival_rate: 3.5,
///         measured_jobs: 5_000,
///         warmup_jobs: 500,
///         sizes: SizeDist::Exponential,
///         seed: 7,
///     },
/// )
/// .unwrap();
/// assert!(report.mean_turnaround > 1.0); // queueing adds to service time
/// ```
pub fn run_latency_experiment(
    rates: &dyn RateModel,
    scheduler: &mut dyn Scheduler,
    config: &LatencyConfig,
) -> Result<LatencyReport, String> {
    if config.arrival_rate <= 0.0 || !config.arrival_rate.is_finite() {
        return Err(format!(
            "arrival rate {} must be positive",
            config.arrival_rate
        ));
    }
    if config.measured_jobs == 0 {
        return Err("measured_jobs must be positive".into());
    }
    if !rates.supports_partial() {
        return Err(
            "latency experiments pass through partially loaded states; the rate \
             model must support partial multisets"
                .into(),
        );
    }
    let mut rng = SplitMix64::new(config.seed);
    let mean_gap = 1.0 / config.arrival_rate;
    let next = rng.next_exp(mean_gap);
    let arrivals = Arrivals {
        next,
        rng,
        mean_gap,
        sizes: config.sizes,
        num_types: rates.num_types() as u64,
        next_id: 0,
    };
    let pool = JobPool::new(rates.num_types());
    let totals = run_events(
        rates,
        scheduler,
        pool,
        Some(arrivals),
        config.warmup_jobs,
        config.warmup_jobs + config.measured_jobs,
    );
    let elapsed = (totals.now - totals.t_start).max(1e-12);
    Ok(LatencyReport {
        mean_turnaround: totals.turnaround_sum / totals.measured.max(1) as f64,
        utilization: totals.busy_time / elapsed,
        empty_fraction: totals.empty_time / elapsed,
        throughput: totals.work_done / elapsed,
        mean_jobs_in_system: totals.jobs_time / elapsed,
        completed: totals.measured,
    })
}

fn draw_size(rng: &mut SplitMix64, sizes: SizeDist) -> f64 {
    match sizes {
        SizeDist::Deterministic => 1.0,
        SizeDist::Exponential => rng.next_exp(1.0),
    }
}

/// The Poisson arrival stream of a latency experiment. Each job draws
/// its type before its size.
struct Arrivals {
    rng: SplitMix64,
    mean_gap: f64,
    sizes: SizeDist,
    num_types: u64,
    /// Time of the next arrival.
    next: f64,
    next_id: u64,
}

impl Arrivals {
    fn job(&mut self, arrival: f64) -> Job {
        let id = self.next_id;
        self.next_id += 1;
        Job {
            id,
            ty: self.rng.next_range(self.num_types) as usize,
            remaining: draw_size(&mut self.rng, self.sizes),
            arrival,
        }
    }

    fn gap(&mut self) -> f64 {
        self.rng.next_exp(self.mean_gap)
    }
}

/// Accumulators of one event-loop run. The time integrals, the work and
/// the turnarounds cover the measurement window only.
#[derive(Default)]
struct Totals {
    now: f64,
    t_start: f64,
    busy_time: f64,
    empty_time: f64,
    jobs_time: f64,
    work_done: f64,
    turnaround_sum: f64,
    measured: u64,
}

/// The event loop of both experiments: at every event the scheduler
/// picks the running coschedule from `pool`, time advances to the next
/// completion or arrival, and the loop ends after `target` completions,
/// the first `warmup` of which go unmeasured. A batch passes its jobs in
/// `pool` and no arrival stream.
fn run_events(
    rates: &dyn RateModel,
    scheduler: &mut dyn Scheduler,
    mut pool: JobPool,
    mut arrivals: Option<Arrivals>,
    warmup: u64,
    target: u64,
) -> Totals {
    let contexts = rates.contexts();
    let mut running = Running::new(rates.num_types());
    let mut done = Vec::new();
    let mut t = Totals::default();
    let mut measuring = warmup == 0;
    let mut completed_total: u64 = 0;

    while completed_total < target {
        let next_arrival = arrivals.as_ref().map_or(f64::INFINITY, |a| a.next);
        if pool.is_empty() {
            // Idle until the next arrival.
            let stream = arrivals
                .as_mut()
                .expect("only arrivals refill an empty pool");
            if measuring {
                t.empty_time += next_arrival - t.now;
            }
            t.now = next_arrival;
            pool.insert(stream.job(t.now));
            stream.next = t.now + stream.gap();
            continue;
        }

        // Ask the policy for the running coschedule.
        let selection = scheduler.select(&mut pool, contexts, rates);
        debug_assert!(!selection.is_empty());
        running.clear();
        for &id in &selection {
            running.start(pool.get(id).expect("selected job exists").clone());
        }
        let dt = running.price(rates).min(next_arrival - t.now);
        let end = t.now + dt;

        if measuring {
            t.busy_time += running.len() as f64 * dt;
            t.jobs_time += pool.len() as f64 * dt;
            t.work_done += running
                .jobs()
                .iter()
                .map(|job| running.rate(job.ty) * dt)
                .sum::<f64>();
        }
        scheduler.observe(running.counts(), dt);

        // Advance running jobs; collect completions.
        done.clear();
        running.advance(dt, &mut done);
        for job in running.jobs() {
            pool.set_remaining(job.id, job.remaining);
        }
        for job in &done {
            pool.remove(job.id);
            completed_total += 1;
            if measuring {
                t.turnaround_sum += end - job.arrival;
                t.measured += 1;
            }
            if !measuring && completed_total >= warmup {
                measuring = true;
                t.t_start = end;
            }
        }
        t.now = end;
        // Admit an arrival that falls exactly at or before the new time.
        if let Some(stream) = arrivals.as_mut() {
            if stream.next <= t.now + 1e-15 {
                pool.insert(stream.job(stream.next));
                stream.next = t.now + stream.gap();
            }
        }
    }
    t
}

/// Parameters of a fixed-batch (makespan / maximum-throughput) experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Jobs placed in the queue at time zero (types i.i.d. uniform).
    pub jobs: u64,
    /// Job size distribution.
    pub sizes: SizeDist,
    /// RNG seed.
    pub seed: u64,
}

/// Outcome of a fixed-batch experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// Time to drain the whole batch.
    pub makespan: f64,
    /// Total work divided by makespan — the paper's *maximum throughput*
    /// of the scheduler on a fixed workload.
    pub throughput: f64,
    /// Mean completion time over the batch.
    pub mean_turnaround: f64,
}

/// Runs a fixed-batch maximum-throughput experiment: `jobs` jobs are all
/// present at time zero and the machine runs until every one completes.
///
/// This matches the paper's Section III-A "maximum throughput experiment"
/// and its Figure 6 setup: because the *entire* batch must finish, a
/// scheduler that postpones unfavourable jobs pays for them at the end
/// (drained in bad coschedules) — the mechanism behind the paper's finding
/// that MAXIT gains nothing over FCFS.
///
/// # Errors
///
/// Returns a description of the first invalid parameter.
///
/// # Examples
///
/// ```
/// use queueing::{run_batch_experiment, BatchConfig, ContentionModel,
///                FcfsScheduler, SizeDist};
///
/// let rates = ContentionModel::new(vec![1.0], 0.0, 4);
/// let report = run_batch_experiment(
///     &rates,
///     &mut FcfsScheduler,
///     &BatchConfig { jobs: 1_000, sizes: SizeDist::Deterministic, seed: 1 },
/// )
/// .unwrap();
/// // Four unit-rate contexts: throughput ~4 work units per cycle.
/// assert!((report.throughput - 4.0).abs() < 0.05);
/// ```
pub fn run_batch_experiment(
    rates: &dyn RateModel,
    scheduler: &mut dyn Scheduler,
    config: &BatchConfig,
) -> Result<BatchReport, String> {
    if config.jobs == 0 {
        return Err("batch must contain at least one job".into());
    }
    if !rates.supports_partial() {
        return Err(
            "batch experiments drain through partially loaded states; the rate \
             model must support partial multisets"
                .into(),
        );
    }
    let n_types = rates.num_types();
    let mut rng = SplitMix64::new(config.seed);
    let mut pool = JobPool::new(n_types);
    let mut total_work = 0.0;
    for id in 0..config.jobs {
        // Size before type: the batch's historical draw order.
        let size = draw_size(&mut rng, config.sizes);
        total_work += size;
        pool.insert(Job {
            id,
            ty: rng.next_range(n_types as u64) as usize,
            remaining: size,
            arrival: 0.0,
        });
    }
    let totals = run_events(rates, scheduler, pool, None, 0, config.jobs);
    Ok(BatchReport {
        makespan: totals.now,
        throughput: total_work / totals.now,
        mean_turnaround: totals.turnaround_sum / config.jobs as f64,
    })
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::rates::ContentionModel;
    use crate::sched::{FcfsScheduler, MaxItScheduler, SrptScheduler};

    #[test]
    fn empty_batch_rejected() {
        let rates = ContentionModel::new(vec![1.0], 0.0, 2);
        let cfg = BatchConfig {
            jobs: 0,
            sizes: SizeDist::Deterministic,
            seed: 0,
        };
        assert!(run_batch_experiment(&rates, &mut FcfsScheduler, &cfg).is_err());
    }

    #[test]
    fn insensitive_batch_runs_at_capacity() {
        let rates = ContentionModel::new(vec![0.5, 0.5], 0.0, 4);
        let cfg = BatchConfig {
            jobs: 4_000,
            sizes: SizeDist::Deterministic,
            seed: 2,
        };
        let report = run_batch_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        assert!(
            (report.throughput - 2.0).abs() < 0.02,
            "{}",
            report.throughput
        );
        assert!(report.makespan > 0.0);
    }

    #[test]
    fn maxit_gains_nothing_on_a_fixed_batch_of_insensitive_jobs() {
        // The paper's core argument in miniature: with a fixed batch, the
        // fast jobs MAXIT favours run out and the slow ones dominate the
        // tail, cancelling the early advantage.
        let rates = ContentionModel::new(vec![1.0, 0.25], 0.0, 2);
        let cfg = BatchConfig {
            jobs: 6_000,
            sizes: SizeDist::Deterministic,
            seed: 5,
        };
        let fcfs = run_batch_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let maxit = run_batch_experiment(&rates, &mut MaxItScheduler, &cfg).unwrap();
        let rel = (maxit.throughput - fcfs.throughput) / fcfs.throughput;
        assert!(
            rel.abs() < 0.02,
            "insensitive jobs: MAXIT {} vs FCFS {} must coincide",
            maxit.throughput,
            fcfs.throughput
        );
    }

    #[test]
    fn batch_turnaround_favours_srpt() {
        let rates = ContentionModel::new(vec![1.0], 0.0, 1);
        let cfg = BatchConfig {
            jobs: 400,
            sizes: SizeDist::Exponential,
            seed: 9,
        };
        let fcfs = run_batch_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let srpt = run_batch_experiment(&rates, &mut SrptScheduler, &cfg).unwrap();
        // Same makespan (work conserving single server)...
        assert!((fcfs.makespan - srpt.makespan).abs() < 1e-6);
        // ...but SRPT strictly improves mean turnaround (Schrage).
        assert!(srpt.mean_turnaround < fcfs.mean_turnaround);
    }

    #[test]
    fn batch_is_deterministic() {
        let rates = ContentionModel::new(vec![1.0, 0.5], 0.2, 4);
        let cfg = BatchConfig {
            jobs: 1_000,
            sizes: SizeDist::Exponential,
            seed: 3,
        };
        let a = run_batch_experiment(&rates, &mut MaxItScheduler, &cfg).unwrap();
        let b = run_batch_experiment(&rates, &mut MaxItScheduler, &cfg).unwrap();
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rates::ContentionModel;
    use crate::sched::{FcfsScheduler, MaxItScheduler, SrptScheduler};
    use symbiosis::AnalyticModel;

    fn single_server_rates() -> ContentionModel {
        ContentionModel::new(vec![1.0], 0.0, 1)
    }

    fn job(id: u64, ty: usize, size: f64) -> Job {
        Job {
            id,
            ty,
            remaining: size,
            arrival: 0.0,
        }
    }

    #[test]
    fn advance_completes_jobs_and_frees_contexts() {
        let truth = AnalyticModel::new(1, 2, |_counts: &[u32], _ty| 1.0);
        let mut running = Running::new(1);
        running.start(job(0, 0, 1.0));
        running.start(job(1, 0, 2.0));
        let dt = running.price(&truth);
        assert!((dt - 1.0).abs() < 1e-12);
        let mut done = Vec::new();
        running.advance(dt, &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 0);
        assert_eq!(running.len(), 1);
        assert_eq!(running.counts(), &[1]);
        // The second job still needs one more unit of work.
        let dt2 = running.price(&truth);
        assert!((dt2 - 1.0).abs() < 1e-9);
        running.advance(dt2, &mut done);
        assert_eq!(done.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 1]);
        assert!(running.is_empty());
        assert_eq!(running.counts(), &[0]);
        assert_eq!(running.price(&truth), f64::INFINITY);
    }

    #[test]
    fn completion_rates_follow_the_coschedule() {
        // Two jobs of the same type slow each other down by 2x.
        let truth = AnalyticModel::new(
            1,
            2,
            |counts: &[u32], _ty| {
                if counts[0] > 1 {
                    0.5
                } else {
                    1.0
                }
            },
        );
        let mut running = Running::new(1);
        running.start(job(0, 0, 1.0));
        running.start(job(1, 0, 1.0));
        let dt = running.price(&truth);
        assert!((dt - 2.0).abs() < 1e-12, "contended pair runs at 0.5");
        assert_eq!(running.rate(0), 0.5);
        // Both complete at the same instant, in start order.
        let mut done = Vec::new();
        running.advance(dt, &mut done);
        assert_eq!(done.iter().map(|j| j.id).collect::<Vec<_>>(), vec![0, 1]);
        assert!(running.is_empty());
    }

    #[test]
    fn partial_advance_keeps_jobs_running() {
        let truth = AnalyticModel::new(2, 2, |_counts: &[u32], ty| [1.0, 0.25][ty]);
        let mut running = Running::new(2);
        running.start(job(3, 1, 1.0));
        running.start(job(4, 0, 1.0));
        assert_eq!(running.price(&truth), 1.0);
        let mut done = Vec::new();
        running.advance(0.5, &mut done);
        assert!(done.is_empty());
        let left: Vec<f64> = running.jobs().iter().map(|j| j.remaining).collect();
        assert_eq!(left, vec![0.875, 0.5]);
    }

    #[test]
    fn rejects_bad_parameters() {
        let rates = single_server_rates();
        let mut cfg = LatencyConfig {
            arrival_rate: 0.0,
            ..Default::default()
        };
        assert!(run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).is_err());
        cfg.arrival_rate = 1.0;
        cfg.measured_jobs = 0;
        assert!(run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).is_err());
    }

    #[test]
    fn mm1_turnaround_matches_theory() {
        // M/M/1: W = 1 / (mu - lambda). With mu = 1, lambda = 0.5: W = 2.
        let rates = single_server_rates();
        let cfg = LatencyConfig {
            arrival_rate: 0.5,
            measured_jobs: 60_000,
            warmup_jobs: 5_000,
            sizes: SizeDist::Exponential,
            seed: 11,
        };
        let report = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        assert!(
            (report.mean_turnaround - 2.0).abs() < 0.1,
            "W = {}, expected ~2.0",
            report.mean_turnaround
        );
        // Stable system: throughput equals arrival rate.
        assert!((report.throughput - 0.5).abs() < 0.02);
        // Utilisation of an M/M/1 at rho = 0.5.
        assert!((report.utilization - 0.5).abs() < 0.02);
        // Empty fraction = 1 - rho for M/M/1.
        assert!((report.empty_fraction - 0.5).abs() < 0.02);
    }

    #[test]
    fn littles_law_holds() {
        let rates = ContentionModel::new(vec![1.0, 1.0], 0.0, 2);
        let cfg = LatencyConfig {
            arrival_rate: 1.2,
            measured_jobs: 40_000,
            warmup_jobs: 4_000,
            sizes: SizeDist::Exponential,
            seed: 3,
        };
        let report = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        // L = lambda * W (use measured throughput as effective lambda).
        let lw = report.throughput * report.mean_turnaround;
        let rel = (report.mean_jobs_in_system - lw).abs() / report.mean_jobs_in_system;
        assert!(
            rel < 0.05,
            "L {} vs lambda*W {}",
            report.mean_jobs_in_system,
            lw
        );
    }

    #[test]
    fn deterministic_sizes_have_lower_variance_waiting() {
        // M/D/1 waits less than M/M/1 at equal load.
        let rates = single_server_rates();
        let base = LatencyConfig {
            arrival_rate: 0.7,
            measured_jobs: 40_000,
            warmup_jobs: 4_000,
            sizes: SizeDist::Exponential,
            seed: 5,
        };
        let exp = run_latency_experiment(&rates, &mut FcfsScheduler, &base).unwrap();
        let det_cfg = LatencyConfig {
            sizes: SizeDist::Deterministic,
            ..base
        };
        let det = run_latency_experiment(&rates, &mut FcfsScheduler, &det_cfg).unwrap();
        assert!(
            det.mean_turnaround < exp.mean_turnaround,
            "M/D/1 {} must wait less than M/M/1 {}",
            det.mean_turnaround,
            exp.mean_turnaround
        );
    }

    #[test]
    fn srpt_beats_fcfs_on_turnaround() {
        // Single server, exponential sizes: SRPT is optimal for mean
        // turnaround (Schrage's theorem).
        let rates = single_server_rates();
        let cfg = LatencyConfig {
            arrival_rate: 0.8,
            measured_jobs: 40_000,
            warmup_jobs: 4_000,
            sizes: SizeDist::Exponential,
            seed: 9,
        };
        let fcfs = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let srpt = run_latency_experiment(&rates, &mut SrptScheduler, &cfg).unwrap();
        assert!(
            srpt.mean_turnaround < fcfs.mean_turnaround,
            "SRPT {} must beat FCFS {}",
            srpt.mean_turnaround,
            fcfs.mean_turnaround
        );
    }

    #[test]
    fn saturation_throughput_is_capacity_bound() {
        // lambda far above capacity: achieved throughput caps at the
        // service capacity (1.0 for a single unit-rate server).
        let rates = single_server_rates();
        let cfg = LatencyConfig {
            arrival_rate: 3.0,
            measured_jobs: 20_000,
            warmup_jobs: 2_000,
            sizes: SizeDist::Deterministic,
            seed: 13,
        };
        let report = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        assert!(
            (report.throughput - 1.0).abs() < 0.02,
            "{}",
            report.throughput
        );
        assert!(report.empty_fraction < 1e-9);
        assert!((report.utilization - 1.0).abs() < 1e-6);
    }

    #[test]
    fn work_conserving_policies_agree_on_utilization_under_low_load() {
        let rates = ContentionModel::new(vec![1.0, 0.5], 0.1, 2);
        let cfg = LatencyConfig {
            arrival_rate: 0.3,
            measured_jobs: 20_000,
            warmup_jobs: 2_000,
            sizes: SizeDist::Exponential,
            seed: 21,
        };
        let fcfs = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let maxit = run_latency_experiment(&rates, &mut MaxItScheduler, &cfg).unwrap();
        // At low load scheduling barely matters (paper, Section VI points
        // A/B): both see nearly the same utilisation.
        let rel = (fcfs.utilization - maxit.utilization).abs() / fcfs.utilization;
        assert!(
            rel < 0.05,
            "fcfs {} vs maxit {}",
            fcfs.utilization,
            maxit.utilization
        );
    }

    #[test]
    fn experiment_is_reproducible() {
        let rates = single_server_rates();
        let cfg = LatencyConfig::default();
        let a = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        let b = run_latency_experiment(&rates, &mut FcfsScheduler, &cfg).unwrap();
        assert_eq!(a, b);
    }
}
