//! Bitwise pins of the two event loops: the Section VI latency and batch
//! simulations in `queueing`, and the closed serve loop in `serve`.
//!
//! Every pinned number is folded into a 64-bit digest of its IEEE bits,
//! and the digests are compared against constants recorded from a known
//! good build. Unlike the parity suites, which compare two code paths
//! that share the same simulator, these constants catch a one-ulp drift
//! in the simulators themselves.

use symbiotic_scheduling::predict::{InterferenceFitter, PredictedModel, RateSample};
use symbiotic_scheduling::queueing::sched::feasible_multisets;
use symbiotic_scheduling::queueing::{
    run_batch_experiment, run_latency_experiment, BatchConfig, BatchReport, ContentionModel,
    FcfsScheduler, LatencyConfig, LatencyReport, MaxItScheduler, MaxTpScheduler, Scheduler,
    SizeDist, SrptScheduler,
};
use symbiotic_scheduling::serve::{
    run_serve, BeamPlacer, Placer, PolicyPlacer, ServeConfig, ServeReport,
};
use symbiotic_scheduling::symbiosis::{AnalyticModel, RateModel};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn f(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// Symbiotic truth: heterogeneous coschedules run faster, load slows
/// every job down (the truth of the serve loop's unit tests).
fn truth() -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
    AnalyticModel::new(3, 4, |counts: &[u32], ty| {
        let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
        let load: u32 = counts.iter().sum();
        let base = 0.8 + 0.1 * (ty as f64);
        base * (1.0 + 0.25 * (distinct - 1.0)) / (1.0 + 0.4 * (load as f64 - 1.0))
    })
}

/// The four Section VI policies; MAXTP follows fixed hand-picked targets.
fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(FcfsScheduler),
        Box::new(MaxItScheduler),
        Box::new(SrptScheduler),
        Box::new(MaxTpScheduler::new(vec![
            (vec![2, 1, 1], 0.5),
            (vec![1, 2, 1], 0.3),
            (vec![0, 0, 4], 0.2),
        ])),
    ]
}

fn latency_digest(r: &LatencyReport) -> u64 {
    let mut d = Digest::new();
    d.f(r.mean_turnaround);
    d.f(r.utilization);
    d.f(r.empty_fraction);
    d.f(r.throughput);
    d.f(r.mean_jobs_in_system);
    d.word(r.completed);
    d.0
}

fn batch_digest(r: &BatchReport) -> u64 {
    let mut d = Digest::new();
    d.f(r.makespan);
    d.f(r.throughput);
    d.f(r.mean_turnaround);
    d.0
}

fn serve_digest(r: &ServeReport) -> u64 {
    let mut d = Digest::new();
    for p in &r.trace {
        d.f(p.time);
        d.word(p.placed.len() as u64);
        for &id in &p.placed {
            d.word(id);
        }
        for &c in &p.running_after {
            d.word(u64::from(c));
        }
    }
    d.f(r.mean_turnaround);
    for e in &r.errors {
        d.word(e.generation);
        d.f(e.time);
        d.word(e.completed);
        d.f(e.mean_abs_rel);
    }
    d.0
}

fn check(what: &str, got: &[u64], want: &[u64]) {
    assert_eq!(
        got, want,
        "{what} digests drifted; got {got:#x?} (update only for an intended change)"
    );
}

#[test]
fn latency_reports_are_pinned_bitwise() {
    let truth = truth();
    let configs = [
        LatencyConfig {
            arrival_rate: 1.8,
            measured_jobs: 3_000,
            warmup_jobs: 300,
            sizes: SizeDist::Exponential,
            seed: 0x1A7E,
        },
        // Saturation: the queue grows without bound.
        LatencyConfig {
            arrival_rate: 4.0,
            measured_jobs: 2_000,
            warmup_jobs: 0,
            sizes: SizeDist::Deterministic,
            seed: 0x5A7,
        },
    ];
    let mut got = Vec::new();
    for cfg in &configs {
        for mut sched in schedulers() {
            let r = run_latency_experiment(&truth, sched.as_mut(), cfg).unwrap();
            got.push(latency_digest(&r));
        }
    }
    check("latency", &got, &LATENCY);
}

#[test]
fn batch_reports_are_pinned_bitwise() {
    let rates = ContentionModel::new(vec![1.0, 0.6, 0.35], 0.15, 4);
    let configs = [
        BatchConfig {
            jobs: 1_500,
            sizes: SizeDist::Exponential,
            seed: 0xBA7C,
        },
        BatchConfig {
            jobs: 800,
            sizes: SizeDist::Deterministic,
            seed: 0xD7,
        },
    ];
    let mut got = Vec::new();
    for cfg in &configs {
        for mut sched in schedulers() {
            let r = run_batch_experiment(&rates, sched.as_mut(), cfg).unwrap();
            got.push(batch_digest(&r));
        }
    }
    check("batch", &got, &BATCH);
}

#[test]
fn serve_runs_are_pinned_bitwise() {
    let truth = truth();
    let full = vec![truth.contexts() as u32; truth.num_types()];
    let seed_samples: Vec<RateSample> = (1..=2)
        .flat_map(|s| feasible_multisets(&full, s))
        .map(|counts| RateSample {
            rates: (0..truth.num_types())
                .map(|ty| truth.total_rate(&counts, ty))
                .collect(),
            counts,
        })
        .collect();
    let placers: [fn() -> Box<dyn Placer>; 3] = [
        || Box::new(PolicyPlacer::fcfs()),
        || Box::new(PolicyPlacer::greedy()),
        || Box::new(BeamPlacer::new(4)),
    ];
    let mut got = Vec::new();
    for placer in placers {
        for background in [false, true] {
            let model = PredictedModel::fit(
                truth.num_types(),
                truth.contexts(),
                seed_samples.clone(),
                Box::new(InterferenceFitter),
            )
            .unwrap();
            let cfg = ServeConfig {
                arrival_rate: 3.0,
                jobs: 300,
                seed: 7,
                queue_capacity: 512,
                batch: 40,
                probes: 3,
                background_twin: background,
                breaker: None,
                twin_panic_at_batch: None,
            };
            let r = run_serve(&truth, model, placer(), &cfg).unwrap();
            got.push(serve_digest(&r));
        }
    }
    check("serve", &got, &SERVE);
}

/// Per config (moderate load, saturation): FCFS, MAXIT, SRPT, MAXTP.
const LATENCY: [u64; 8] = [
    0xcf50d887ab366baf,
    0x55987a571fe92e08,
    0x87bb5094df0c4551,
    0x9642fe1f5940d848,
    0xf861b8125980df3d,
    0x23a6affde7223b1b,
    0x31475f24a7bb6afc,
    0x84ea20af47a06e4c,
];

/// Per config (exponential, deterministic sizes): FCFS, MAXIT, SRPT, MAXTP.
const BATCH: [u64; 8] = [
    0x6b9ca6360f07d3bf,
    0xf047cbf4306f3fca,
    0xe0ce0214797e888f,
    0xb0c8b9e4e1c22f7f,
    0x343e5743e4b3ce7f,
    0xaae79204fc4393fb,
    0xaae79204fc4393fb,
    0x148c435943d87169,
];

/// Per placer (FCFS, greedy, beam-4): inline twin, background twin.
const SERVE: [u64; 6] = [
    0x561c4bee97930c20,
    0x561c4bee97930c20,
    0x18ee9c9f402f78c5,
    0x18ee9c9f402f78c5,
    0x62a10deb8e266bec,
    0x62a10deb8e266bec,
];
