//! Beyond the paper: the *online* scheduling service with a live
//! digital-twin model loop ([`serve`] crate), run as a registry
//! experiment.
//!
//! The paper's schedulers are evaluated offline: a full rate table in,
//! a throughput or latency figure out. This experiment closes the loop
//! the way a datacentre node would have to: jobs arrive over time, the
//! placer prices candidate coschedules through a *predicted* model
//! that starts out knowing only the cheap small co-runs, and every
//! completed coschedule feeds a measurement back into the twin
//! ([`serve::TwinLoop`]), which refits in the background and steers
//! active probes toward its worst residuals.
//!
//! Three placers compete on the same seeded arrival stream — the FCFS
//! placer (no symbiosis), the greedy MAXIT placer (Section VI
//! reused online) and a bounded beam search — and are bracketed by the
//! offline OPTIMAL / FCFS-event saturated bounds from a [`session`]
//! `Session` over the same ground truth. By default the ground truth is
//! the [`crate::experiments::n12_k8`] synthetic table restricted to
//! [`SYNTH_TYPES`] types; with `--simulated-k8` it is the *really
//! simulated* smt8 table ([`crate::study::StudyConfig::build_k8_table`]).

use std::fmt;

use predict::{InterferenceFitter, PredictedModel, RateSample};
use serve::{run_serve, BeamPlacer, Placer, PolicyPlacer, ServeConfig};
use session::Policy;
use symbiosis::{CoscheduleIter, RateModel};

use crate::experiments::n12_k8;
use crate::pct;
use crate::study::StudyConfig;

/// Job types the synthetic ground truth is restricted to (of the
/// 12-benchmark [`n12_k8`] suite): keeps every twin refit's
/// full-coschedule error scan at `C(15, 8)` = 6 435 combos.
pub const SYNTH_TYPES: usize = 8;

/// Beam width of the beam-search placer.
pub const BEAM_WIDTH: usize = 8;

/// Fraction of the balanced-coschedule completion rate the Poisson
/// arrival stream loads the machine with. The balanced coschedule is
/// near-optimal, so realized FCFS-mix service capacity sits well below
/// it: 0.80 puts the symbiosis-blind placer near its saturation point
/// while symbiosis-aware placement keeps real headroom — the queue is
/// deep enough that coschedule choice matters, but every placer stays
/// stable.
pub const LOAD_FACTOR: f64 = 0.80;

/// One placer's scorecard over the shared arrival stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacerRow {
    /// Placer name as reported by the run.
    pub placer: String,
    /// Completed jobs per unit virtual time.
    pub jobs_per_time: f64,
    /// Work completed per unit virtual time.
    pub throughput: f64,
    /// Mean slowdown (turnaround over solo execution time).
    pub mean_slowdown: f64,
    /// Jobs shed at the full waiting pool.
    pub rejected: u64,
    /// Twin refits performed during the run.
    pub refits: usize,
    /// Model error vs truth before the first refit.
    pub error_start: f64,
    /// Model error vs truth after the last refit.
    pub error_end: f64,
}

/// Result of the online-service experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeStudy {
    /// Job types in the scenario.
    pub types: usize,
    /// Hardware contexts.
    pub contexts: usize,
    /// True when the ground truth is the really-simulated smt8 table.
    pub simulated: bool,
    /// Jobs generated per run.
    pub jobs: usize,
    /// Poisson arrival rate the stream was generated with.
    pub arrival_rate: f64,
    /// Seed shared by every placer run.
    pub seed: u64,
    /// One row per placer, in comparison order (FCFS first, beam last).
    pub rows: Vec<PlacerRow>,
    /// Offline saturated OPTIMAL throughput over the same truth.
    pub offline_optimal: f64,
    /// Offline saturated FCFS-event throughput over the same truth.
    pub offline_fcfs: f64,
}

/// Derives the service scale from the study config: full runs stream
/// 4 000 jobs, `--fast` (and the tests) 400.
pub fn jobs_for(cfg: &StudyConfig) -> usize {
    (cfg.fcfs_jobs / 10).clamp(200, 4_000) as usize
}

/// Measures `counts` against `truth` in the per-type total-rate
/// convention of [`RateSample`].
fn measure(truth: &dyn RateModel, counts: &[u32]) -> RateSample {
    RateSample {
        counts: counts.to_vec(),
        rates: (0..counts.len())
            .map(|ty| truth.total_rate(counts, ty))
            .collect(),
    }
}

/// Fits the twin's starting model from the cheap measurements only:
/// every coschedule of size 1 and 2 (solos and pairs). Shared with the
/// `obs` experiment's serve leg.
pub(crate) fn seed_model(truth: &dyn RateModel) -> Result<PredictedModel, String> {
    let n = truth.num_types();
    let samples: Vec<RateSample> = (1..=2)
        .flat_map(|s| CoscheduleIter::new(n, s))
        .map(|c| measure(truth, c.counts()))
        .collect();
    PredictedModel::fit(n, truth.contexts(), samples, Box::new(InterferenceFitter))
        .map_err(|e| e.to_string())
}

/// The balanced full coschedule (contexts split as evenly as possible
/// over the types) — the load-calibration reference point. Shared with
/// the `obs` experiment's serve leg.
pub(crate) fn balanced_counts(n: usize, k: usize) -> Vec<u32> {
    let mut counts = vec![(k / n) as u32; n];
    for slot in counts.iter_mut().take(k % n) {
        *slot += 1;
    }
    counts
}

/// Runs the full experiment: three placers over the shared stream plus
/// the offline session bounds.
///
/// # Errors
///
/// Propagates table/fit/serve/session failures as strings.
pub fn run(cfg: &StudyConfig) -> Result<ServeStudy, String> {
    let (table, types_n, simulated) = if cfg.simulated_k8 {
        let table = cfg.build_k8_table().map_err(|e| e.to_string())?;
        (table, StudyConfig::K8_SUITE.len(), true)
    } else {
        (n12_k8::synthetic_table()?, SYNTH_TYPES, false)
    };
    let types: Vec<usize> = (0..types_n).collect();
    let truth = table.workload_view(&types).map_err(|e| e.to_string())?;
    let truth_rates = table.workload_rates(&types).map_err(|e| e.to_string())?;

    let n = truth.num_types();
    let k = truth.contexts();
    // Load the machine at LOAD_FACTOR of the balanced-coschedule
    // completion rate (mean job size is 1 unit of work, so jobs per
    // time equals work per time).
    let balanced = balanced_counts(n, k);
    let capacity = truth.instantaneous_throughput(&balanced);
    let serve_cfg = ServeConfig {
        arrival_rate: LOAD_FACTOR * capacity,
        jobs: jobs_for(cfg),
        seed: cfg.seed,
        batch: 50,
        background_twin: true,
        ..ServeConfig::default()
    };

    let placers: Vec<Box<dyn Placer>> = vec![
        Box::new(PolicyPlacer::fcfs()),
        Box::new(PolicyPlacer::greedy()),
        Box::new(BeamPlacer::new(BEAM_WIDTH)),
    ];
    let mut rows = Vec::with_capacity(placers.len());
    for placer in placers {
        let report = run_serve(&truth, seed_model(&truth)?, placer, &serve_cfg)
            .map_err(|e| e.to_string())?;
        rows.push(PlacerRow {
            placer: report.placer.clone(),
            jobs_per_time: report.jobs_per_time,
            throughput: report.throughput,
            mean_slowdown: report.mean_slowdown,
            rejected: report.rejected,
            refits: report.refits.len(),
            error_start: report.errors.first().map_or(f64::NAN, |e| e.mean_abs_rel),
            error_end: report.errors.last().map_or(f64::NAN, |e| e.mean_abs_rel),
        });
    }

    // The offline brackets: saturated OPTIMAL and FCFS-event throughput
    // over the same ground truth, through the standard session surface.
    let offline = cfg
        .session()
        .rates(&truth_rates)
        .policies([Policy::Optimal, Policy::FcfsEvent])
        .run()
        .map_err(|e| e.to_string())?;

    Ok(ServeStudy {
        types: n,
        contexts: k,
        simulated,
        jobs: serve_cfg.jobs,
        arrival_rate: serve_cfg.arrival_rate,
        seed: cfg.seed,
        rows,
        offline_optimal: offline
            .throughput(Policy::Optimal)
            .ok_or_else(|| "no OPTIMAL row".to_string())?,
        offline_fcfs: offline
            .throughput(Policy::FcfsEvent)
            .ok_or_else(|| "no FCFS row".to_string())?,
    })
}

impl fmt::Display for ServeStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Online service: N = {} types on K = {} contexts ({} truth, digital twin refitting live)",
            self.types,
            self.contexts,
            if self.simulated {
                "really-simulated smt8"
            } else {
                "synthetic"
            }
        )?;
        writeln!(
            f,
            "{} jobs, Poisson arrival rate {:.3} ({}% of balanced capacity), seed {:#x}\n",
            self.jobs,
            self.arrival_rate,
            (100.0 * LOAD_FACTOR).round(),
            self.seed
        )?;
        writeln!(
            f,
            "{:<10} {:>10} {:>10} {:>14} {:>6} {:>7} {:>18}",
            "placer",
            "jobs/time",
            "work/time",
            "mean slowdown",
            "shed",
            "refits",
            "model err (start)"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<10} {:>10.4} {:>10.4} {:>14.3} {:>6} {:>7} {:>8} -> {:>6}",
                r.placer,
                r.jobs_per_time,
                r.throughput,
                r.mean_slowdown,
                r.rejected,
                r.refits,
                pct(r.error_start),
                pct(r.error_end)
            )?;
        }
        writeln!(
            f,
            "\noffline saturated bounds over the same truth: OPTIMAL {:.4}, FCFS-event {:.4} work/time",
            self.offline_optimal, self.offline_fcfs
        )?;
        writeln!(
            f,
            "\nEvery run replays the same seeded arrival stream; the twin starts from\n\
             solo + pair measurements only and refits on completed-coschedule\n\
             measurements plus residual-steered active probes."
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> StudyConfig {
        let mut cfg = StudyConfig::fast();
        cfg.fcfs_jobs = 4_000; // 400 serve jobs
        cfg
    }

    /// The acceptance criterion: on the shipped scenario the beam-search
    /// placer beats the FCFS placer on mean slowdown.
    #[test]
    fn beam_search_beats_fcfs_on_mean_slowdown() {
        let res = run(&fast_cfg()).unwrap();
        assert_eq!(res.rows.len(), 3);
        let fcfs = &res.rows[0];
        let beam = &res.rows[2];
        assert_eq!(fcfs.placer, "FCFS");
        assert_eq!(beam.placer, "BEAM");
        assert!(
            beam.mean_slowdown < fcfs.mean_slowdown,
            "beam {} vs FCFS {}",
            beam.mean_slowdown,
            fcfs.mean_slowdown
        );
    }

    /// The whole study is deterministic from the config seed.
    #[test]
    fn study_is_deterministic_from_the_seed() {
        let cfg = fast_cfg();
        let a = run(&cfg).unwrap();
        let b = run(&cfg).unwrap();
        assert_eq!(a, b);
    }

    /// Each run's twin learns: the error after the last refit is below
    /// the seed model's, and the online throughputs stay bracketed by
    /// plausibility bounds.
    #[test]
    fn twins_learn_and_reports_are_plausible() {
        let res = run(&fast_cfg()).unwrap();
        assert!(res.offline_optimal >= res.offline_fcfs * 0.99);
        for row in &res.rows {
            assert!(row.refits >= 2, "{} refit {} times", row.placer, row.refits);
            assert!(
                row.error_end < row.error_start,
                "{} error {} -> {}",
                row.placer,
                row.error_start,
                row.error_end
            );
            assert!(row.jobs_per_time > 0.0 && row.mean_slowdown >= 1.0 - 1e-9);
        }
    }
}
