//! `cold_tables`: build the paper's SMT and quad-core tables from scratch
//! into a fresh `TableStore`, read them back, and run the Figure 1
//! throughput sweep over every N = 4 workload on both.
//!
//! `simproc` does almost all of the work; the 35-state chains keep
//! `core` and `lp` nearly idle, so a simulator speed-up shows here and a
//! solver speed-up must not.

use std::path::PathBuf;
use std::time::Instant;

use session::{Policy, Session, SweepReport};
use simproc::{BenchmarkProfile, Machine, MachineConfig};
use symbiosis::rng::SplitMix64;
use symbiosis::{enumerate_workloads, WorkloadRates};
use workloads::{spec2006, PerfTable, TableStore};

use crate::check::{combine, mismatches, perturb_bits, policy_digest, sweep_digests};
use crate::harness::{median, pick, Metric, Pass, DEFAULT_SEED, THREADS};
use crate::layers::Layers;
use crate::reference;
use crate::Workload;

/// Simulator warm-up window (cycles): between `--fast` (2 000) and paper
/// scale (60 000).
pub const WARMUP_CYCLES: u64 = 3_000;
/// Simulator measurement window (cycles): between `--fast` (8 000) and
/// paper scale (240 000).
pub const MEASURE_CYCLES: u64 = 12_000;
/// Job types per workload (the paper's N = 4).
const N: usize = 4;
/// Benchmarks in the restricted parity build.
const PARITY_TYPES: usize = 3;
/// Workloads per table re-run as sequential sessions after the timed
/// phase (the sweep's bitwise parity pair).
const PARITY_WORKLOADS: usize = 6;
const POLICIES: [Policy; 3] = [Policy::Optimal, Policy::Worst, Policy::FcfsMarkov];

struct Chip {
    label: &'static str,
    config: MachineConfig,
    machine: Machine,
    /// `(global combo, slot IPCs)` from a build restricted to a few
    /// benchmarks: each combo simulates independently, so the full build
    /// must hold exactly these rates.
    restricted: Vec<(Vec<usize>, Vec<f64>)>,
}

pub struct ColdTables {
    seed: u64,
    perturb: bool,
    suite: Vec<BenchmarkProfile>,
    chips: Vec<Chip>,
    workloads: Vec<Vec<usize>>,
    scratch: PathBuf,
    passes: usize,
    /// Table fingerprints and sweep row digests of the first pass; later
    /// passes must reproduce them bitwise.
    first: Option<(Vec<u64>, Vec<Vec<u64>>)>,
    /// The last pass's sweeps, for the sequential-session parity check.
    last: Vec<(PerfTable, SweepReport)>,
}

pub fn setup(seed: u64, perturb: bool) -> Result<Box<dyn Workload>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // The paper's suite as published: the seed picks only the parity
    // subsets, so every seed simulates the same amount of work.
    let suite = spec2006();
    let mut rng = SplitMix64::new(seed ^ 0x7A8);
    let subset = pick(&mut rng, suite.len(), PARITY_TYPES);
    let selected: Vec<BenchmarkProfile> = subset.iter().map(|&b| suite[b].clone()).collect();
    let mut chips = Vec::new();
    for (label, config) in [
        ("smt", MachineConfig::smt4()),
        ("quad", MachineConfig::quadcore()),
    ] {
        let config = config.with_windows(WARMUP_CYCLES, MEASURE_CYCLES);
        let machine = Machine::new(config.clone()).map_err(|e| err(&e))?;
        let small = PerfTable::build(&machine, &selected, THREADS).map_err(|e| err(&e))?;
        let restricted = small
            .recorded_combos()
            .into_iter()
            .map(|(combo, ipcs)| {
                let global = combo.iter().map(|&l| subset[l]).collect();
                let ipcs = ipcs
                    .iter()
                    .map(|x| f64::from_bits(perturb_bits(x.to_bits(), perturb)))
                    .collect();
                (global, ipcs)
            })
            .collect();
        chips.push(Chip {
            label,
            config,
            machine,
            restricted,
        });
    }
    let scratch = PathBuf::from(".symbench_tmp").join(format!("cold-{}", std::process::id()));
    Ok(Box::new(ColdTables {
        seed,
        perturb,
        suite,
        chips,
        workloads: enumerate_workloads(12, N),
        scratch,
        passes: 0,
        first: None,
        last: Vec::new(),
    }))
}

impl Workload for ColdTables {
    fn pass(&mut self, layers: &mut Layers) -> Result<Pass, String> {
        let err = |e: &dyn std::fmt::Display| e.to_string();
        let store = TableStore::new(self.scratch.join(format!("store-{}", self.passes)));
        self.passes += 1;
        let mut out = Pass::default();
        let mut built = Vec::new();
        let start = Instant::now();
        for chip in &self.chips {
            let t = Instant::now();
            let cpu = layers.cpu();
            let table =
                PerfTable::build(&chip.machine, &self.suite, THREADS).map_err(|e| err(&e))?;
            out.count("build_s", t.elapsed().as_secs_f64());
            layers.add("simproc.cpu_s", layers.cpu() - cpu);
            layers.stop("simproc.build_s", t);
            let sims = table.len() as f64;
            out.count("sims", sims);
            layers.add("simproc.sims", sims);
            layers.add(
                "simproc.cycles",
                sims * (chip.config.warmup_cycles + chip.config.measure_cycles) as f64,
            );

            let t = Instant::now();
            let bytes = table.to_bytes();
            store
                .write_atomic(&store.path_for(&chip.config, &self.suite), &bytes)
                .map_err(|e| err(&e))?;
            layers.stop("workloads.save_s", t);
            layers.add("workloads.table_bytes", bytes.len() as f64);

            let t = Instant::now();
            let loaded = store
                .get_or_build(&chip.config, &self.suite, THREADS)
                .map_err(|e| err(&e))?;
            layers.stop("workloads.load_s", t);
            built.push((table, loaded));
        }
        let mut sweeps = Vec::new();
        for (table, _) in &built {
            let t = Instant::now();
            let cpu = layers.cpu();
            let report = Session::sweep()
                .table(table)
                .workloads(self.workloads.clone())
                .policies(POLICIES)
                .threads(THREADS)
                .run()
                .map_err(|e| err(&e))?;
            out.count("sweep_s", t.elapsed().as_secs_f64());
            layers.add("api.cpu_s", layers.cpu() - cpu);
            layers.stop("api.sweep_s", t);
            out.count("rows", (report.len() * POLICIES.len()) as f64);
            sweeps.push(report);
        }
        out.wall = start.elapsed().as_secs_f64();
        let _ = std::fs::remove_dir_all(store.dir());

        // Checks, outside the timed work.
        let committed = self.seed == DEFAULT_SEED;
        let mut fps = Vec::new();
        let mut digests = Vec::new();
        for (i, ((table, loaded), sweep)) in built.iter().zip(&sweeps).enumerate() {
            let chip = &self.chips[i];
            let sims = table.len() as u64;
            let fp = table.content_fingerprint();
            let mut table_ok = loaded.cache_hit && loaded.table.content_fingerprint() == fp;
            table_ok &= chip
                .restricted
                .iter()
                .all(|(combo, ipcs)| table.slot_ipcs(combo).is_some_and(|got| bits_eq(got, ipcs)));
            if committed {
                table_ok &= reference::COLD_TABLE_FP
                    .get(i)
                    .is_some_and(|&want| perturb_bits(want, self.perturb) == fp);
            }
            let rows = sweep_digests(sweep);
            let mut bad_rows = 0;
            if committed {
                let want = reference::COLD_SWEEP.get(i).copied().unwrap_or_default();
                if perturb_bits(want, self.perturb) != combine(&rows) {
                    bad_rows = rows.len() as u64;
                }
            }
            if let Some((first_fps, first_rows)) = &self.first {
                table_ok &= first_fps[i] == fp;
                bad_rows = bad_rows.max(mismatches(&rows, &first_rows[i]));
            }
            if !table_ok {
                eprintln!("cold_tables: {} table check failed", chip.label);
                out.failed += sims;
            }
            if bad_rows > 0 {
                eprintln!(
                    "cold_tables: {} sweep: {bad_rows} row(s) mismatched",
                    chip.label
                );
            }
            out.failed += bad_rows;
            out.attempted += sims + rows.len() as u64;
            fps.push(fp);
            digests.push(rows);
        }
        if self.first.is_none() {
            self.first = Some((fps, digests));
        }
        self.last = built.into_iter().map(|(t, _)| t).zip(sweeps).collect();
        Ok(out)
    }

    fn verify(&mut self) -> Result<(u64, u64), String> {
        let _ = std::fs::remove_dir_all(&self.scratch);
        if let Some(parent) = self.scratch.parent() {
            // Only succeeds once no other run's scratch is left inside.
            let _ = std::fs::remove_dir(parent);
        }
        let mut rng = SplitMix64::new(self.seed ^ 0x5E0);
        let picks = pick(&mut rng, self.workloads.len(), PARITY_WORKLOADS);
        let (mut attempted, mut failed) = (0, 0);
        for (table, sweep) in &self.last {
            for &i in &picks {
                let view = table
                    .workload_view(&self.workloads[i])
                    .map_err(|e| e.to_string())?;
                let seq = Session::builder()
                    .rates(&view)
                    .policies(POLICIES)
                    .threads(THREADS)
                    .run()
                    .map_err(|e| e.to_string())?;
                for (got, want) in sweep.rows[i].report.rows.iter().zip(&seq.rows) {
                    attempted += 1;
                    if policy_digest(got) != perturb_bits(policy_digest(want), self.perturb) {
                        failed += 1;
                    }
                }
            }
        }
        Ok((attempted, failed))
    }

    fn largest_chain(&self) -> Option<WorkloadRates> {
        let (table, _) = self.last.first()?;
        table.workload_rates(&self.workloads[0]).ok()
    }

    fn metrics(&self, passes: &[Pass]) -> Vec<Metric> {
        let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        vec![
            Metric::new(
                "sims_per_s",
                per_pass(&|p| p.counted("sims") / p.counted("build_s")),
                "1/s",
                "coschedule simulations per second inside PerfTable::build, median pass",
            ),
            Metric::new(
                "rows_per_s",
                per_pass(&|p| p.counted("rows") / p.counted("sweep_s")),
                "1/s",
                "Fig. 1 sweep rows (workload x policy) per second, median pass",
            ),
        ]
    }

    fn print_reference(&self) -> String {
        match &self.first {
            Some((fps, rows)) => format!(
                "COLD_TABLE_FP = {fps:#x?}\nCOLD_SWEEP = {:#x?}",
                rows.iter().map(|r| combine(r)).collect::<Vec<_>>()
            ),
            None => String::new(),
        }
    }
}

fn bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
