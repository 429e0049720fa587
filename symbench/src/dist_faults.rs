//! `dist_faults`: a `dist::Coordinator` over in-process loopback
//! transports shards an N = 4 sweep twice per pass: fault-free on two
//! workers, then under a seeded storm on three (one hangs, one crashes,
//! one has its sends delayed). The hang makes the
//! coordinator pay a real receive timeout, which dominates the pass.
//! Both merged reports must equal the in-process `Session::sweep()`
//! reference bitwise.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dist::{
    loopback_pair, run_worker, ChaosPlan, ChaosTransport, Coordinator, DistConfig, WorkerConfig,
};
use session::{Policy, Session};
use symbiosis::rng::SplitMix64;
use symbiosis::{enumerate_workloads, WorkloadRates};
use workloads::PerfTable;

use crate::check::{combine, mismatches, perturb_bits, sweep_digests};
use crate::harness::{median, Metric, Pass, DEFAULT_SEED, THREADS};
use crate::layers::Layers;
use crate::wrap::{TimedTransport, WireLog};
use crate::{reference, synthetic, Workload};

const POLICIES: [Policy; 3] = [Policy::Optimal, Policy::Worst, Policy::FcfsMarkov];
/// Coordinator-side receive timeout: the wait a hung worker costs.
const RECV_TIMEOUT: Duration = Duration::from_secs(1);
/// Worker-side receive timeout; workers only wait on a live coordinator.
const WORKER_TIMEOUT: Duration = Duration::from_secs(30);
const CLEAN_WORKERS: usize = 2;

pub struct DistFaults {
    seed: u64,
    table: PerfTable,
    workloads: Vec<Vec<usize>>,
    reference: Vec<u64>,
    clean: Coordinator,
    storm: Coordinator,
    synthetic_s: f64,
}

pub fn setup(seed: u64, perturb: bool) -> Result<Box<dyn Workload>, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let (table, synthetic_s) = synthetic::table(12, 4)?;
    let workloads = enumerate_workloads(12, 4);
    let sweep = || {
        Session::sweep()
            .table(&table)
            .workloads(workloads.clone())
            .policies(POLICIES)
            .threads(THREADS)
    };
    let reference = sweep_digests(&sweep().run().map_err(|e| err(&e))?)
        .into_iter()
        .map(|d| perturb_bits(d, perturb))
        .collect();
    let clean = Coordinator::from_sweep(
        sweep(),
        DistConfig {
            recv_timeout: RECV_TIMEOUT,
            ..DistConfig::default()
        },
    )
    .map_err(|e| err(&e))?;
    // The chaos experiment's storm tuning: a small blast radius per
    // fault and enough retries for combined hang + crash + duplicates.
    let storm = Coordinator::from_sweep(
        sweep(),
        DistConfig {
            chunk_size: 1,
            retry_budget: 8,
            recv_timeout: RECV_TIMEOUT,
            hedge: true,
            quarantine_limit: 16,
            ..DistConfig::default()
        },
    )
    .map_err(|e| err(&e))?;
    Ok(Box::new(DistFaults {
        seed,
        table,
        workloads,
        reference,
        clean,
        storm,
        synthetic_s,
    }))
}

/// Outcome of one coordinated leg.
struct Leg {
    digests: Vec<u64>,
    chunks: usize,
    requeues: usize,
    hedges: usize,
}

/// Runs `coordinator` over one loopback worker per plan (`None` is a
/// fault-free worker) and joins every worker before returning.
fn run_leg(
    coordinator: &Coordinator,
    plans: Vec<Option<ChaosPlan>>,
    layers: &mut Layers,
) -> Result<Leg, String> {
    let wire = Arc::new(WireLog::default());
    let mut ends = Vec::new();
    let mut fleet = Vec::new();
    for plan in plans {
        let (c, w) = loopback_pair();
        let w = w.with_recv_timeout(WORKER_TIMEOUT);
        let config = WorkerConfig {
            threads: 1,
            cache: None,
        };
        fleet.push(match plan {
            Some(plan) => {
                let w = ChaosTransport::new(w, plan);
                std::thread::spawn(move || run_worker(w, &config).map(|_| ()))
            }
            None => std::thread::spawn(move || run_worker(w, &config).map(|_| ())),
        });
        ends.push(TimedTransport {
            inner: c.with_recv_timeout(RECV_TIMEOUT),
            log: Arc::clone(&wire),
            count_bytes: layers.on(),
        });
    }
    let t = Instant::now();
    let outcome = coordinator.run(ends);
    layers.stop("dist.run_s", t);
    for worker in fleet {
        // Victims end with a transport error by design; only a panic is
        // a benchmark failure.
        let _ = worker.join().map_err(|_| "a dist worker panicked")?;
    }
    layers.add(
        "dist.recv_wait_s",
        wire.recv_ns.load(Ordering::Relaxed) as f64 / 1e9,
    );
    layers.add(
        "dist.timeouts",
        wire.timeouts.load(Ordering::Relaxed) as f64,
    );
    layers.add("dist.frames", wire.frames.load(Ordering::Relaxed) as f64);
    layers.add("dist.bytes", wire.bytes.load(Ordering::Relaxed) as f64);
    Ok(match outcome {
        Ok(o) => Leg {
            digests: sweep_digests(&o.report),
            chunks: o.chunks,
            requeues: o.requeues,
            hedges: o.hedges,
        },
        Err(e) => {
            eprintln!("dist_faults: coordinated run failed: {e}");
            Leg {
                digests: Vec::new(),
                chunks: 0,
                requeues: 0,
                hedges: 0,
            }
        }
    })
}

impl Workload for DistFaults {
    fn pass(&mut self, layers: &mut Layers) -> Result<Pass, String> {
        let mut out = Pass::default();
        // Duplicated frames are left out: together with a hang and a
        // crash they exhaust the retry budget (see README.md, hazards).
        let mut rng = SplitMix64::new(self.seed ^ 0xD157);
        let storm = vec![
            Some(ChaosPlan {
                seed: rng.next_u64(),
                ..ChaosPlan::hang_after(6 + rng.next_range(6) as usize)
            }),
            Some(ChaosPlan {
                seed: rng.next_u64(),
                ..ChaosPlan::crash_after(8 + rng.next_range(6) as usize)
            }),
            Some(ChaosPlan {
                seed: rng.next_u64(),
                delay: 0.2,
                max_delay: Duration::from_micros(500),
                ..ChaosPlan::default()
            }),
        ];
        let start = Instant::now();
        let clean = run_leg(&self.clean, vec![None; CLEAN_WORKERS], layers)?;
        let storm = run_leg(&self.storm, storm, layers)?;
        out.wall = start.elapsed().as_secs_f64();

        for leg in [&clean, &storm] {
            let rows = self.reference.len() as u64;
            out.attempted += rows;
            out.failed += mismatches(&leg.digests, &self.reference);
            layers.add("dist.chunks", leg.chunks as f64);
            layers.add("dist.requeues", leg.requeues as f64);
            layers.add("dist.hedges", leg.hedges as f64);
        }
        out.count("rows", out.attempted as f64);
        if self.seed == DEFAULT_SEED
            && reference::DIST_REFERENCE.first() != Some(&combine(&self.reference))
        {
            out.failed = out.attempted;
        }
        if out.failed > 0 {
            eprintln!("dist_faults: {} row(s) mismatched", out.failed);
        }
        Ok(out)
    }

    fn verify(&mut self) -> Result<(u64, u64), String> {
        Ok((0, 0))
    }

    fn largest_chain(&self) -> Option<WorkloadRates> {
        self.table.workload_rates(&self.workloads[0]).ok()
    }

    fn metrics(&self, passes: &[Pass]) -> Vec<Metric> {
        vec![Metric::new(
            "rows_per_s",
            median(
                &passes
                    .iter()
                    .map(|p| p.counted("rows") / p.wall)
                    .collect::<Vec<_>>(),
            ),
            "1/s",
            "merged rows (workload x policy, both legs) per second, median pass",
        )]
    }

    fn synthetic_s(&self) -> f64 {
        self.synthetic_s
    }

    fn print_reference(&self) -> String {
        format!("DIST_REFERENCE = [{:#x}]", combine(&self.reference))
    }
}
