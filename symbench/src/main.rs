//! End-to-end and per-layer benchmark of the symbiotic-scheduling
//! workspace. See `README.md` next to this package for the metrics, the
//! workloads and why each was chosen.
//!
//! ```text
//! symbench --workload <cold_tables|big_machine|online|dist_faults>
//!          [--seed N] [--seconds N] [--trace 0|1]
//!          [--perturb-reference] [--print-reference]
//! ```
//!
//! Set-up runs at least [`harness::SETUP_REPEATS`] times and until
//! [`harness::SETUP_MIN_S`] seconds have gone into it; the timed phase
//! repeats whole passes of the workload until `--seconds` have passed. With
//! `--trace 0` the last line of standard output is a JSON object holding
//! the end-to-end metrics; with `--trace 1` it holds the per-layer
//! metrics of a traced run. Every metric, with its unit, is also printed
//! as a table above it.

mod big_machine;
mod check;
mod cold_tables;
mod dist_faults;
mod harness;
mod layers;
mod online;
mod reference;
mod synthetic;
mod wrap;

use std::process::ExitCode;

use harness::{
    median, peak_rss_mb, run_window, timed, Args, Metric, Pass, SETUP_MAX_REPEATS, SETUP_MIN_S,
    SETUP_REPEATS,
};
use layers::Layers;
use symbiosis::WorkloadRates;

/// One benchmark workload after set-up.
pub trait Workload {
    /// One pass of the timed phase: does the work, times it, and checks
    /// its outputs against the references.
    fn pass(&mut self, layers: &mut Layers) -> Result<Pass, String>;

    /// Parity checks run once after the timed phase. Returns
    /// `(attempted, failed)` operations.
    fn verify(&mut self) -> Result<(u64, u64), String>;

    /// The largest Markov chain the workload solves, for the untimed
    /// assembly probe.
    fn largest_chain(&self) -> Option<WorkloadRates>;

    /// Workload-specific end-to-end metrics from the untraced passes.
    fn metrics(&self, passes: &[Pass]) -> Vec<Metric>;

    /// Seconds this set-up spent in `PerfTable::synthetic`.
    fn synthetic_s(&self) -> f64 {
        0.0
    }

    /// Rust source of the reference values this run produced.
    fn print_reference(&self) -> String;
}

type Setup = fn(u64, bool) -> Result<Box<dyn Workload>, String>;

const WORKLOADS: [(&str, Setup); 4] = [
    ("cold_tables", cold_tables::setup),
    ("big_machine", big_machine::setup),
    ("online", online::setup),
    ("dist_faults", dist_faults::setup),
];

/// End-to-end metrics every workload reports in its JSON line.
const END_TO_END: [&str; 3] = ["setup_s", "run_s", "peak_rss_mb"];

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "symbench: {e}\nusage: symbench --workload <{}> [--seed N] [--seconds N] \
                 [--trace 0|1] [--perturb-reference] [--print-reference]",
                WORKLOADS.map(|(n, _)| n).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("symbench {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let setup = WORKLOADS
        .iter()
        .find(|(n, _)| *n == args.workload)
        .map(|(_, s)| *s)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;

    let mut setup_times = Vec::new();
    let mut synthetic = Vec::new();
    let mut state: Option<Box<dyn Workload>> = None;
    while setup_times.len() < SETUP_REPEATS
        || (setup_times.iter().sum::<f64>() < SETUP_MIN_S && setup_times.len() < SETUP_MAX_REPEATS)
    {
        drop(state.take());
        let (w, s) = timed(|| setup(args.seed, args.perturb));
        let w = w?;
        setup_times.push(s);
        synthetic.push(w.synthetic_s());
        state = Some(w);
    }
    let mut w = state.expect("at least one set-up");

    let mut off = Layers::new(false);
    let mut rss = None;
    let (passes, metrics, json_names): (Vec<Pass>, Vec<Metric>, Vec<&str>) = if !args.trace {
        let passes = windowed(args.seconds, &mut *w, &mut off, &mut rss)?;
        let mut metrics = vec![
            Metric::new(
                "setup_s",
                median(&setup_times),
                "s",
                format!("median of {} set-ups", setup_times.len()),
            ),
            run_s(&passes),
        ];
        metrics.extend(w.metrics(&passes));
        (passes, metrics, END_TO_END.to_vec())
    } else {
        let untraced = windowed(args.seconds / 2.0, &mut *w, &mut off, &mut rss)?;
        let recorder = obs::Recorder::new();
        obs::set_global(recorder.clone());
        let mut on = Layers::new(true);
        let traced = windowed(args.seconds / 2.0, &mut *w, &mut on, &mut rss);
        obs::clear_global();
        let traced = traced?;
        let snapshot = recorder.snapshot();
        let assembly_s = match w.largest_chain() {
            Some(rates) => median(
                &(0..5)
                    .map(|_| timed(|| std::hint::black_box(symbiosis::markov_chain(&rates))).1)
                    .collect::<Vec<_>>(),
            ),
            None => 0.0,
        };
        let metrics = layers::metrics(&layers::Traced {
            layers: &on,
            snapshot: &snapshot,
            traced: &traced,
            untraced: &untraced,
            synthetic_s: median(&synthetic),
            assembly_s,
        });
        let passes = untraced.into_iter().chain(traced).collect();
        (passes, metrics, layers::NAMES.to_vec())
    };

    let (v_attempted, v_failed) = w.verify()?;
    let attempted = passes.iter().map(|p| p.attempted).sum::<u64>() + v_attempted;
    let failed = passes.iter().map(|p| p.failed).sum::<u64>() + v_failed;
    let mut metrics = metrics;
    if !args.trace {
        metrics.push(Metric::new(
            "fail_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            format!("{failed} of {attempted} operations"),
        ));
        let (value, note) = match rss {
            Some(v) => (v, format!("VmHWM after set-up and {RSS_PASSES} passes")),
            None => (
                peak_rss_mb(),
                format!("VmHWM at the end: fewer than {RSS_PASSES} passes ran"),
            ),
        };
        metrics.push(Metric::new("peak_rss_mb", value, "MB", note));
    }
    if args.print_reference {
        println!("{}", w.print_reference());
    }
    let header = format!(
        "# symbench workload={} seed={} (default {}, held out {}) seconds={} trace={} passes={} \
         threads={}",
        args.workload,
        args.seed,
        harness::DEFAULT_SEED,
        harness::HELD_OUT_SEED,
        args.seconds,
        u8::from(args.trace),
        passes.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    harness::print_report(
        &header,
        &metrics,
        &json_names,
        attempted,
        failed,
        failed == 0,
    );
    Ok(())
}

/// Passes after which `peak_rss_mb` is read: a fixed amount of work, so
/// the figure does not depend on how many passes fit the window.
const RSS_PASSES: usize = 2;

/// Runs passes of `w` for `seconds`, reading the memory high-water mark
/// into `rss` once [`RSS_PASSES`] passes are done.
fn windowed(
    seconds: f64,
    w: &mut dyn Workload,
    layers: &mut Layers,
    rss: &mut Option<f64>,
) -> Result<Vec<Pass>, String> {
    let mut done = 0;
    run_window(seconds, || {
        let pass = w.pass(layers)?;
        done += 1;
        if done == RSS_PASSES {
            rss.get_or_insert_with(peak_rss_mb);
        }
        Ok(pass)
    })
}

/// `run_s`: the median pass, with the spread of the passes in its note.
fn run_s(passes: &[Pass]) -> Metric {
    let walls: Vec<f64> = passes.iter().map(|p| p.wall).collect();
    let (lo, hi) = walls.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &w| {
        (lo.min(w), hi.max(w))
    });
    Metric::new(
        "run_s",
        median(&walls),
        "s",
        format!(
            "median of {} passes (min {lo:.3}, max {hi:.3})",
            walls.len()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_table_matches_its_name_list() {
        let snapshot = obs::MetricsSnapshot::default();
        let layers = Layers::new(true);
        let pass = Pass {
            wall: 1.0,
            ..Pass::default()
        };
        let metrics = layers::metrics(&layers::Traced {
            layers: &layers,
            snapshot: &snapshot,
            traced: std::slice::from_ref(&pass),
            untraced: std::slice::from_ref(&pass),
            synthetic_s: 0.0,
            assembly_s: 0.0,
        });
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, layers::NAMES);
    }

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for name in END_TO_END.iter().chain(&layers::NAMES) {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
        }
        for (name, _) in WORKLOADS {
            assert!(listed(name), "workload {name} missing from BENCHMARK.json");
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(
            entries,
            WORKLOADS.len() + END_TO_END.len() + layers::NAMES.len()
        );
    }
}
