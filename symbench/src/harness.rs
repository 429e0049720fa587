//! Run discipline shared by every workload: argument parsing, repeated
//! set-up, the timed window, order statistics, process readings from
//! `/proc`, and the report printed at the end of a run.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Compute threads a workload may keep busy at once (pool sizes, table
/// builds, multicolor sweeps).
pub const THREADS: usize = 2;

/// Seed used when `--seed` is absent. The committed reference values in
/// [`crate::reference`] are for this seed.
pub const DEFAULT_SEED: u64 = 1;

/// A seed never used while the workloads were sized or the references
/// were recorded: later claims are re-checked on it.
pub const HELD_OUT_SEED: u64 = 20_261_017;

/// Fewest set-ups per run; `setup_s` is the median of all of them.
pub const SETUP_REPEATS: usize = 9;

/// Set-up repeats past [`SETUP_REPEATS`] until this many seconds of
/// set-up have run, so a set-up of milliseconds gets a median over many
/// samples rather than nine.
pub const SETUP_MIN_S: f64 = 1.0;

/// Most set-ups per run.
pub const SETUP_MAX_REPEATS: usize = 101;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Move every committed reference value and every parity-pair
    /// reference out of its tolerance, so each output check must fail.
    pub perturb: bool,
    /// Print the reference values this run produced, as Rust source.
    pub print_reference: bool,
}

impl Args {
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 10.0,
            trace: false,
            perturb: false,
            print_reference: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => out.workload = value("--workload")?,
                "--seed" => {
                    out.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?
                }
                "--seconds" => {
                    let s: u64 = value("--seconds")?
                        .parse()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if s == 0 {
                        return Err("--seconds must be at least 1".into());
                    }
                    out.seconds = s as f64;
                }
                "--trace" => {
                    out.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                    }
                }
                "--perturb-reference" => out.perturb = true,
                "--print-reference" => out.print_reference = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(out)
    }
}

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64())
}

/// Distinct sorted picks of `k` of `0..n`.
pub fn pick(rng: &mut symbiosis::rng::SplitMix64, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.next_range((n - i) as u64) as usize;
        all.swap(i, j);
    }
    let mut out = all[..k].to_vec();
    out.sort_unstable();
    out
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// 1-based nearest rank of the `permille`-th per-mille in `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile, given in per-mille (500 is the median), of a
/// non-empty sample.
pub fn percentile(values: &[f64], permille: usize) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of an empty sample");
    v[rank(v.len(), permille) - 1]
}

/// The tail percentile of a latency sample: the highest of p50, p90,
/// p99 and p99.9 that still has at least ten samples beyond it (p50 when
/// even that is short of ten). Returns `(percentile label, value)`.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    let permille = [999, 990, 900, 500]
        .into_iter()
        .find(|&p| n - rank(n, p) >= 10)
        .unwrap_or(500);
    (permille as f64 / 10.0, percentile(values, permille))
}

/// Resident-set high-water mark of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used so far
/// (`/proc/self/stat` fields 14 and 15, at the kernel's USER_HZ of 100).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // After ')': state is field 3, so utime (14) and stime (15) sit at 11, 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Accounting from one pass of a workload's timed phase.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall seconds of the work (checks excluded).
    pub wall: f64,
    /// Operations attempted (rows, jobs or simulations).
    pub attempted: u64,
    /// Operations that failed or whose output mismatched its reference.
    pub failed: u64,
    /// Per-operation latencies in the workload's latency unit.
    pub latencies: Vec<f64>,
    /// Workload-specific operation counts, by metric (e.g. rows, sims).
    pub counts: Vec<(&'static str, f64)>,
}

impl Pass {
    pub fn count(&mut self, name: &'static str, n: f64) {
        match self.counts.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counts.push((name, n)),
        }
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Runs passes until `seconds` of wall time are spent (at least one),
/// stopping at the first error.
pub fn run_window(
    seconds: f64,
    mut pass: impl FnMut() -> Result<Pass, String>,
) -> Result<Vec<Pass>, String> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < Duration::from_secs_f64(seconds) {
        passes.push(pass()?);
    }
    Ok(passes)
}

/// One named metric of the final report.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        }
    }
}

/// Formats a metric value with all its digits (shortest round-trip form).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Prints the human table (every metric, with unit and note) and then,
/// as the last line, the JSON result holding only the metrics named in
/// `json_names`.
pub fn print_report(
    header: &str,
    metrics: &[Metric],
    json_names: &[&str],
    attempted: u64,
    failed: u64,
    correct: bool,
) {
    println!("{header}");
    println!("{:<28} {:>16} {:<6} note", "metric", "value", "unit");
    for m in metrics {
        println!("{:<28} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    let mut first = true;
    for name in json_names {
        let m = metrics
            .iter()
            .find(|m| m.name == *name)
            .unwrap_or_else(|| panic!("metric {name} missing from the report"));
        if !first {
            json.push_str(", ");
        }
        first = false;
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(percentile(&v, 900), 90.0);
        assert_eq!(percentile(&v, 500), 50.0);
        // 100 samples: p90 leaves exactly ten beyond it.
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&v[..15]).0, 50.0);
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many).0, 99.0);
    }

    #[test]
    fn args_round_trip() {
        let a = Args::parse(
            [
                "--workload",
                "online",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from),
        )
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("online", 7, 3.0, true)
        );
        assert!(Args::parse(["--trace", "2", "--workload", "x"].map(String::from)).is_err());
        assert!(Args::parse(["--seconds", "0", "--workload", "x"].map(String::from)).is_err());
    }

    #[test]
    fn proc_readings_are_positive() {
        assert!(peak_rss_mb() > 0.0);
        let spin: u64 = (0..5_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_seconds() >= 0.0);
    }
}
