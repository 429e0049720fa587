//! End-to-end soak test of the online service through the facade: a
//! seeded arrival stream runs the whole waiting pool → placer → twin loop
//! against an analytic ground truth, twice per configuration, and the
//! runs must agree bit-for-bit while the digital twin's error trends
//! down and shutdown leaves nothing behind.

use symbiotic_scheduling::prelude::*;
use symbiotic_scheduling::serve::{ErrorPoint, ServeError};

/// Ground truth with real symbiosis: heterogeneous coschedules run
/// faster, load slows everyone down.
fn truth() -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
    AnalyticModel::new(4, 4, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        (0.7 + 0.1 * ty as f64) * (1.0 + 0.22 * (distinct - 1.0))
            / (1.0 + 0.38 * (load as f64 - 1.0))
    })
}

/// The twin's starting point: solo and pair measurements only.
fn seed_model(truth: &dyn RateModel) -> PredictedModel {
    let n = truth.num_types();
    let samples: Vec<RateSample> = (1..=2)
        .flat_map(|s| enumerate_coschedules(n, s))
        .map(|c| RateSample {
            counts: c.counts().to_vec(),
            rates: (0..n).map(|ty| truth.total_rate(c.counts(), ty)).collect(),
        })
        .collect();
    PredictedModel::fit(n, truth.contexts(), samples, Box::new(InterferenceFitter)).unwrap()
}

fn soak_cfg(background: bool) -> ServeConfig {
    ServeConfig {
        arrival_rate: 2.5,
        jobs: 600,
        seed: 0xD1617,
        queue_capacity: 256,
        batch: 60,
        probes: 3,
        background_twin: background,
        breaker: None,
        twin_panic_at_batch: None,
    }
}

fn soak(background: bool) -> ServeReport {
    let truth = truth();
    run_serve(
        &truth,
        seed_model(&truth),
        Box::new(BeamPlacer::new(6)),
        &soak_cfg(background),
    )
    .unwrap()
}

/// Graceful shutdown: the waiting pool drains, no job is lost or
/// double-placed, and the books balance exactly.
#[test]
fn soak_conserves_every_job_through_shutdown() {
    let report = soak(false);
    assert_eq!(report.submitted + report.rejected, 600);
    assert_eq!(report.completed, report.submitted);
    let placed: u64 = report.trace.iter().map(|p| p.placed.len() as u64).sum();
    assert_eq!(placed, report.completed, "every placement completes once");
    assert!(report.mean_slowdown >= 1.0 - 1e-9);
    assert!(report.jobs_per_time > 0.0);
}

/// Determinism: two runs from the same seed produce identical placement
/// traces, refit histories and error trajectories.
#[test]
fn soak_placement_traces_are_deterministic() {
    let a = soak(false);
    let b = soak(false);
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.refits, b.refits);
    assert_eq!(a.errors, b.errors);
    assert_eq!(a.mean_slowdown, b.mean_slowdown);
    assert_eq!(a.final_train_samples, b.final_train_samples);
}

/// The background refit worker reproduces the inline run bit-for-bit.
#[test]
fn soak_background_twin_matches_inline() {
    let inline_run = soak(false);
    let background_run = soak(true);
    assert_eq!(inline_run.trace, background_run.trace);
    assert_eq!(inline_run.refits, background_run.refits);
    assert_eq!(inline_run.errors, background_run.errors);
}

/// The digital twin learns monotonically (within a small tolerance for
/// individual refits) and ends well below its starting error.
#[test]
fn soak_model_error_is_monotone_non_increasing_across_refits() {
    let report = soak(false);
    assert!(report.refits.len() >= 4, "soak must refit repeatedly");
    let errs: Vec<&ErrorPoint> = report.errors.iter().collect();
    assert!(errs.len() >= 2);
    // Individual refits may wobble a little once the error is small (a
    // batch of near-duplicate coschedule measurements can pull the
    // least-squares fit sideways), so allow 15% per step; the trend and
    // the endpoint checks below keep the twin honest.
    for pair in errs.windows(2) {
        assert!(
            pair[1].mean_abs_rel <= pair[0].mean_abs_rel * 1.15 + 1e-9,
            "refit error regressed: {} -> {} (generation {})",
            pair[0].mean_abs_rel,
            pair[1].mean_abs_rel,
            pair[1].generation
        );
    }
    let first = errs.first().unwrap().mean_abs_rel;
    let last = errs.last().unwrap().mean_abs_rel;
    assert!(last < first, "twin must learn: {first} -> {last}");
}

/// Shape mismatches between model and truth are rejected up front.
#[test]
fn soak_rejects_mismatched_model_shapes() {
    let truth = truth();
    let narrow = AnalyticModel::new(2, 4, |counts: &[u32], _| {
        1.0 / counts.iter().sum::<u32>() as f64
    });
    let err = run_serve(
        &truth,
        seed_model(&narrow),
        Box::new(PolicyPlacer::fcfs()),
        &soak_cfg(false),
    )
    .unwrap_err();
    assert!(matches!(err, ServeError::Config(_)));
}
