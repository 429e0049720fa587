//! Per-layer accounting for the traced run.
//!
//! Every number here is taken from outside the library: timers the
//! benchmark wraps around calls into public functions, wrappers over the
//! public traits (see [`crate::wrap`]), and the counters and span
//! histograms the library already records into the [`obs::Recorder`]
//! the traced run installs.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::harness::{cpu_seconds, median, Metric, Pass, THREADS};

/// Timer and counter sums of the benchmark's own instrumentation.
///
/// Only a traced pass records; an untraced pass carries a disabled
/// instance so the code path is the same either way. Timers started with
/// [`Layers::stop`] are top-level: they never nest, so their sum is the
/// part of a pass that some layer accounts for.
#[derive(Debug, Default)]
pub struct Layers {
    on: bool,
    sums: BTreeMap<&'static str, f64>,
    attributed: f64,
}

impl Layers {
    pub fn new(on: bool) -> Layers {
        Layers {
            on,
            ..Layers::default()
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Closes a top-level timer opened at `start`, adding to `name`.
    pub fn stop(&mut self, name: &'static str, start: Instant) {
        if self.on {
            let s = start.elapsed().as_secs_f64();
            *self.sums.entry(name).or_default() += s;
            self.attributed += s;
        }
    }

    /// Adds `v` to the sum `name` (counts, CPU seconds, nested timers).
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.sums.entry(name).or_default() += v;
        }
    }

    /// Process CPU seconds so far, read only when tracing.
    pub fn cpu(&self) -> f64 {
        if self.on {
            cpu_seconds()
        } else {
            0.0
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }
}

/// Everything the per-layer table is computed from.
pub struct Traced<'a> {
    pub layers: &'a Layers,
    pub snapshot: &'a obs::MetricsSnapshot,
    pub traced: &'a [Pass],
    pub untraced: &'a [Pass],
    /// Median seconds `PerfTable::synthetic` took per set-up.
    pub synthetic_s: f64,
    /// Median seconds of one `symbiosis::markov_chain` assembly of the
    /// workload's largest chain.
    pub assembly_s: f64,
}

/// The per-layer metric names, in report order. `BENCHMARK.json` lists
/// the same names.
pub const NAMES: [&str; 48] = [
    "simproc.build_s",
    "simproc.sims",
    "simproc.ns_per_cycle",
    "simproc.cpu_util",
    "workloads.save_s",
    "workloads.load_s",
    "workloads.table_bytes",
    "workloads.synthetic_s",
    "core.session_s",
    "core.lp_s",
    "core.markov_s",
    "core.assembly_s",
    "core.lp_dense_calls",
    "core.lp_colgen_calls",
    "core.markov_dense_calls",
    "core.markov_gs_calls",
    "core.markov_sor_calls",
    "core.markov_multicolor_calls",
    "lp.gs_sweeps",
    "lp.sor_sweeps",
    "lp.multicolor_sweeps",
    "lp.colgen_rounds",
    "queueing.des_s",
    "queueing.jobs",
    "queueing.ns_per_job",
    "predict.fit_s",
    "predict.refit_s",
    "predict.refits",
    "api.sweep_s",
    "api.items",
    "api.item_us_mean",
    "api.pool_peak",
    "api.cpu_util",
    "serve.run_s",
    "serve.place_s",
    "serve.place_calls",
    "serve.truth_calls",
    "serve.queue_peak",
    "dist.run_s",
    "dist.recv_wait_s",
    "dist.timeouts",
    "dist.frames",
    "dist.bytes",
    "dist.requeues",
    "dist.hedges",
    "dist.useful_ratio",
    "obs.overhead_frac",
    "obs.unattributed_frac",
];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Builds the per-layer table. Sums and counts are per traced pass.
pub fn metrics(t: &Traced<'_>) -> Vec<Metric> {
    let passes = t.traced.len().max(1) as f64;
    let l = t.layers;
    let per = |name: &str| l.get(name) / passes;
    let counter = |name: &str| t.snapshot.counters.get(name).copied().unwrap_or(0) as f64 / passes;
    let hist_s = |name: &str| {
        t.snapshot
            .histograms
            .get(name)
            .map_or(0.0, |h| h.sum / 1e6 / passes)
    };
    let hist_mean = |name: &str| t.snapshot.histograms.get(name).map_or(0.0, |h| h.mean());
    let gauge_peak = |name: &str| t.snapshot.gauges.get(name).map_or(0.0, |g| g.max as f64);
    let traced_wall: f64 = t.traced.iter().map(|p| p.wall).sum();
    let med = |ps: &[Pass]| median(&ps.iter().map(|p| p.wall).collect::<Vec<_>>());

    let chunks = l.get("dist.chunks");
    let requeues = l.get("dist.requeues");
    let hedges = l.get("dist.hedges");
    let m = |name: &str, value: f64, unit: &'static str, note: &str| {
        Metric::new(name, value, unit, note.to_string())
    };
    vec![
        m(
            "simproc.build_s",
            per("simproc.build_s"),
            "s",
            "timer around PerfTable::build",
        ),
        m(
            "simproc.sims",
            per("simproc.sims"),
            "count",
            "table.len() of built tables",
        ),
        m(
            "simproc.ns_per_cycle",
            ratio(l.get("simproc.build_s") * 1e9, l.get("simproc.cycles")),
            "ns",
            "build wall per simulated cycle (windows x sims)",
        ),
        m(
            "simproc.cpu_util",
            ratio(
                l.get("simproc.cpu_s"),
                l.get("simproc.build_s") * THREADS as f64,
            ),
            "ratio",
            "process CPU / (build wall x 2 threads)",
        ),
        m(
            "workloads.save_s",
            per("workloads.save_s"),
            "s",
            "timer around the TableStore write",
        ),
        m(
            "workloads.load_s",
            per("workloads.load_s"),
            "s",
            "timer around the TableStore read-back",
        ),
        m(
            "workloads.table_bytes",
            per("workloads.table_bytes"),
            "B",
            "bytes written per pass",
        ),
        m(
            "workloads.synthetic_s",
            t.synthetic_s,
            "s",
            "timer around PerfTable::synthetic, median per set-up",
        ),
        m(
            "core.session_s",
            per("core.session_s"),
            "s",
            "timer around single Session::run calls",
        ),
        m(
            "core.lp_s",
            hist_s("optimal.lp_solve"),
            "s",
            "optimal.lp_solve span sum",
        ),
        m(
            "core.markov_s",
            hist_s("fcfs.markov_solve"),
            "s",
            "fcfs.markov_solve span sum",
        ),
        m(
            "core.assembly_s",
            t.assembly_s,
            "s",
            "markov_chain on the largest chain, after the timed phase",
        ),
        m(
            "core.lp_dense_calls",
            counter("solver.lp.dense"),
            "count",
            "solver.lp.dense",
        ),
        m(
            "core.lp_colgen_calls",
            counter("solver.lp.colgen"),
            "count",
            "solver.lp.colgen",
        ),
        m(
            "core.markov_dense_calls",
            counter("solver.markov.dense"),
            "count",
            "solver.markov.dense",
        ),
        m(
            "core.markov_gs_calls",
            counter("solver.markov.gauss_seidel"),
            "count",
            "solver.markov.gauss_seidel",
        ),
        m(
            "core.markov_sor_calls",
            counter("solver.markov.sor"),
            "count",
            "solver.markov.sor",
        ),
        m(
            "core.markov_multicolor_calls",
            counter("solver.markov.multicolor"),
            "count",
            "solver.markov.multicolor",
        ),
        m(
            "lp.gs_sweeps",
            counter("lp.gauss_seidel.sweeps"),
            "count",
            "lp.gauss_seidel.sweeps",
        ),
        m(
            "lp.sor_sweeps",
            counter("lp.sor.sweeps"),
            "count",
            "lp.sor.sweeps",
        ),
        m(
            "lp.multicolor_sweeps",
            counter("lp.multicolor.sweeps"),
            "count",
            "lp.multicolor.sweeps",
        ),
        m(
            "lp.colgen_rounds",
            counter("lp.colgen.pricing_rounds"),
            "count",
            "lp.colgen.pricing_rounds",
        ),
        m(
            "queueing.des_s",
            per("queueing.des_s"),
            "s",
            "timer around the latency sweep",
        ),
        m(
            "queueing.jobs",
            per("queueing.jobs"),
            "count",
            "DES jobs from the latency configs",
        ),
        m(
            "queueing.ns_per_job",
            ratio(l.get("queueing.des_s") * 1e9, l.get("queueing.jobs")),
            "ns",
            "des_s / jobs",
        ),
        m(
            "predict.fit_s",
            per("predict.fit_s"),
            "s",
            "timer around PredictedModel::fit",
        ),
        m(
            "predict.refit_s",
            hist_s("twin.refit_us"),
            "s",
            "twin.refit_us sum",
        ),
        m(
            "predict.refits",
            counter("twin.refits"),
            "count",
            "twin.refits",
        ),
        m(
            "api.sweep_s",
            per("api.sweep_s"),
            "s",
            "timer around SweepBuilder::run",
        ),
        m("api.items", counter("sweep.items"), "count", "sweep.items"),
        m(
            "api.item_us_mean",
            hist_mean("sweep.item_us"),
            "us",
            "sweep.item_us mean",
        ),
        m(
            "api.pool_peak",
            gauge_peak("sweep.pool_active"),
            "count",
            "sweep.pool_active peak",
        ),
        m(
            "api.cpu_util",
            ratio(l.get("api.cpu_s"), l.get("api.sweep_s") * THREADS as f64),
            "ratio",
            "process CPU / (sweep wall x 2 threads)",
        ),
        m(
            "serve.run_s",
            per("serve.run_s"),
            "s",
            "timer around run_serve",
        ),
        m(
            "serve.place_s",
            per("serve.place_s"),
            "s",
            "timing Placer wrapper",
        ),
        m(
            "serve.place_calls",
            per("serve.place_calls"),
            "count",
            "timing Placer wrapper",
        ),
        m(
            "serve.truth_calls",
            per("serve.truth_calls"),
            "count",
            "counting RateModel wrapper",
        ),
        m(
            "serve.queue_peak",
            gauge_peak("serve.queue_depth"),
            "count",
            "serve.queue_depth peak",
        ),
        m(
            "dist.run_s",
            per("dist.run_s"),
            "s",
            "timer around Coordinator::run",
        ),
        m(
            "dist.recv_wait_s",
            per("dist.recv_wait_s"),
            "s",
            "Transport wrapper, summed over ends",
        ),
        m(
            "dist.timeouts",
            per("dist.timeouts"),
            "count",
            "Transport wrapper",
        ),
        m(
            "dist.frames",
            per("dist.frames"),
            "count",
            "Transport wrapper, sent + received",
        ),
        m(
            "dist.bytes",
            per("dist.bytes"),
            "B",
            "Transport wrapper, encoded frames",
        ),
        m(
            "dist.requeues",
            per("dist.requeues"),
            "count",
            "DistOutcome",
        ),
        m("dist.hedges", per("dist.hedges"), "count", "DistOutcome"),
        m(
            "dist.useful_ratio",
            ratio(chunks, chunks + requeues + hedges),
            "ratio",
            "chunks / (chunks + requeues + hedges)",
        ),
        m(
            "obs.overhead_frac",
            ratio(med(t.traced), med(t.untraced)) - 1.0,
            "ratio",
            "median traced pass / median untraced pass - 1",
        ),
        m(
            "obs.unattributed_frac",
            1.0 - ratio(l.attributed, traced_wall),
            "ratio",
            "share of traced pass wall outside every benchmark timer",
        ),
    ]
}
