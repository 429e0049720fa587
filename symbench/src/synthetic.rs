//! The analytic contention model behind the repository's synthetic
//! big-machine tables (the `n12_k8`, `serve` and `model_accuracy`
//! experiments use the same law), rebuilt here from public items only.

use std::time::Instant;

use workloads::PerfTable;

/// Per-slot IPC of `combo[slot]`: a per-benchmark solo speed, contention
/// growing with occupancy, relief growing with heterogeneity, and a small
/// combo-specific jitter so tables are not perfectly symmetric.
pub fn slot_ipc(combo: &[usize], slot: usize) -> f64 {
    let b = combo[slot];
    let base = 0.6 + 0.11 * (b % 7) as f64 + 0.04 * (b / 7) as f64;
    let k = combo.len() as f64;
    if combo.len() == 1 {
        return base;
    }
    let distinct = 1 + combo.windows(2).filter(|w| w[0] != w[1]).count();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in combo {
        h = (h ^ c as u64).wrapping_mul(0x100_0000_01b3);
    }
    h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    let jitter = 0.97 + 0.06 * (h % 1000) as f64 / 1000.0;
    base * (1.0 / (1.0 + 0.21 * (k - 1.0))) * (0.82 + 0.28 * distinct as f64 / k) * jitter
}

pub fn ipcs(combo: &[usize]) -> Vec<f64> {
    (0..combo.len()).map(|slot| slot_ipc(combo, slot)).collect()
}

/// Benchmark names of a synthetic suite of `types` benchmarks.
pub fn names(types: usize) -> Vec<String> {
    (0..types).map(|b| format!("syn{b:02}")).collect()
}

/// The full synthetic table of `types` benchmarks on `contexts`
/// contexts, and the seconds `PerfTable::synthetic` took.
pub fn table(types: usize, contexts: usize) -> Result<(PerfTable, f64), String> {
    let start = Instant::now();
    let table = PerfTable::synthetic(names(types), contexts, ipcs).map_err(|e| e.to_string())?;
    Ok((table, start.elapsed().as_secs_f64()))
}
