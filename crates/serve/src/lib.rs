//! An online scheduling service with a live digital-twin model loop.
//!
//! The rest of the workspace analyses symbiotic scheduling *offline*: a
//! rate table in, a throughput or latency figure out. This crate turns
//! those pieces into a long-running **service**: jobs stream in, a
//! placer prices candidate coschedules through the current
//! [`predict::PredictedModel`], and completed coschedules feed
//! measurements back into the model — the adaptive loop of a real-time
//! digital twin.
//!
//! # Architecture
//!
//! ```text
//!  seeded arrivals
//!   │ shed when queue_capacity jobs already wait
//!   ▼
//!  ┌────────────────────────────── run_serve ─────────────────────────┐
//!  │ waiting JobPool ──[Placer]──▶ queueing::Running ──▶ completions  │
//!  │            (FCFS / MAXIT / BEAM)   (advanced under truth)        │
//!  └────────────────────▲───────────────────────────────┬─────────────┘
//!     placement pricing │ (RwLock read)    measurements │
//!                       │                               ▼
//!                ┌──────┴───────────────────────────────────────┐
//!                │                   TwinLoop                   │
//!                │ pending batch ─▶ refit()                     │
//!                │ (inline or worker thread)                    │
//!                │ residuals ─▶ active probes ──────────────────┼──▶ measure
//!                └──────────────────────────────────────────────┘     truth
//! ```
//!
//! * [`run_serve`] — the event loop: arrivals join a waiting pool
//!   bounded by [`ServeConfig::queue_capacity`], placers fill free
//!   contexts, and the running coschedule advances through the latency
//!   simulator's [`queueing::Running`] step, so the service and the
//!   Section VI experiments share one definition of progress and
//!   completion.
//! * [`Placer`] — fills *free* contexts non-preemptively:
//!   [`PolicyPlacer`] reuses the Section VI schedulers via
//!   [`OccupiedModel`] re-pricing, [`BeamPlacer`] adds a bounded
//!   beam search over partial placements.
//! * [`TwinLoop`] — bounded-staleness [`predict::PredictedModel::refit`]
//!   off the hot path, plus residual-driven active sampling
//!   ([`predict::PredictedModel::residual_quantiles`]). A panicking
//!   refit worker is caught and surfaced as [`TwinError`] at shutdown
//!   instead of poisoning the run.
//! * [`CircuitBreaker`] / [`DegradingPlacer`] — graceful degradation:
//!   the twin's `fit_q90` health signal trips a hysteresis breaker that
//!   routes placements to symbiosis-blind FCFS while the model is
//!   mispricing, and hands traffic back once refits recover.
//!
//! The loop runs against ground truth (a measured `PerfTable` view or
//! any partial-capable [`symbiosis::RateModel`]) under a seeded virtual
//! clock, so whole service runs are deterministic and testable.
//!
//! # Example
//!
//! ```
//! use serve::{run_serve, BeamPlacer, ServeConfig};
//! use predict::{InterferenceFitter, PredictedModel, RateSample};
//! use symbiosis::{AnalyticModel, RateModel};
//!
//! // Ground truth: heterogeneity relieves contention.
//! let truth = AnalyticModel::new(2, 2, |counts: &[u32], _ty| {
//!     let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
//!     let load: u32 = counts.iter().sum();
//!     (0.6 + 0.3 * (distinct - 1.0)) / load as f64
//! });
//! // Seed the twin with a handful of small measurements.
//! let samples: Vec<RateSample> = [[1u32, 0], [0, 1], [1, 1], [2, 0], [0, 2]]
//!     .iter()
//!     .map(|counts| RateSample {
//!         counts: counts.to_vec(),
//!         rates: (0..2).map(|b| truth.total_rate(counts, b)).collect(),
//!     })
//!     .collect();
//! let model = PredictedModel::fit(2, 2, samples, Box::new(InterferenceFitter)).unwrap();
//! let report = run_serve(
//!     &truth,
//!     model,
//!     Box::new(BeamPlacer::new(4)),
//!     &ServeConfig { jobs: 50, ..ServeConfig::default() },
//! )
//! .unwrap();
//! assert_eq!(report.completed + report.rejected, 50);
//! ```

pub mod breaker;
pub mod placer;
pub mod sim;
pub mod twin;

pub use breaker::{BreakerConfig, BreakerEvent, BreakerReport, CircuitBreaker, DegradingPlacer};
pub use placer::{BeamPlacer, OccupiedModel, Placer, PolicyPlacer};
pub use sim::{run_serve, ErrorPoint, Placement, ServeConfig, ServeError, ServeReport};
pub use twin::{RefitRecord, TwinError, TwinLoop};
