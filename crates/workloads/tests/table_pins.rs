//! Pins of what a `PerfTable` exposes: the SPT1 bytes and the
//! `recorded_combos` sequence, bitwise, and every content check of
//! `from_bytes`.
//!
//! The digests were recorded from a known good build. A change to the row
//! store that reorders, drops, duplicates or perturbs a single row changes
//! a digest; a change that only moves rows around in memory changes none.

use simproc::{BenchmarkProfile, Machine, MachineConfig};
use workloads::{spec2006, Fnv64, PerfTable, TableError};

/// A smooth analytic IPC model: each slot slows as the coschedule grows
/// and as heavier benchmarks join it.
fn analytic_ipc(combo: &[usize]) -> Vec<f64> {
    let pressure: f64 = combo.iter().map(|&b| 0.05 + 0.01 * b as f64).sum();
    let slot_ipc = |(slot, &b): (usize, &usize)| {
        (0.6 + 0.1 * b as f64) / (1.0 + pressure) + 1e-3 * slot as f64
    };
    combo.iter().enumerate().map(slot_ipc).collect()
}

fn names(n: usize) -> Vec<String> {
    (0..n).map(|b| format!("syn{b:02}")).collect()
}

/// FNV-1a 64 over every recorded row in `recorded_combos` order: the row's
/// size, its benchmark indices, then its per-slot IPC bits.
fn rows_digest(table: &PerfTable) -> u64 {
    let mut bytes = Vec::new();
    for (combo, ipcs) in table.recorded_combos() {
        bytes.extend((combo.len() as u64).to_le_bytes());
        combo
            .iter()
            .for_each(|&b| bytes.extend((b as u64).to_le_bytes()));
        ipcs.iter()
            .for_each(|ipc| bytes.extend(ipc.to_bits().to_le_bytes()));
    }
    Fnv64::digest(&bytes)
}

#[test]
fn table_bytes_and_rows_are_pinned_bitwise() {
    let machine = Machine::new(MachineConfig::smt4().with_windows(2_000, 6_000)).unwrap();
    let suite: Vec<BenchmarkProfile> = spec2006().into_iter().take(3).collect();
    // All solos plus every seventh combo past them (271 of 1 819).
    let selection: Vec<usize> = (0..12).chain((12..1819).step_by(7)).collect();
    let tables = [
        PerfTable::build(&machine, &suite, 2).unwrap(),
        PerfTable::synthetic(names(12), 4, analytic_ipc).unwrap(),
        PerfTable::synthetic_sampled(names(12), 4, &selection, analytic_ipc).unwrap(),
    ];
    // (recorded rows, FNV-1a of to_bytes, FNV-1a of recorded_combos)
    let pins = [
        (34, 0x7c92_4304_fe31_e1b3, 0x530b_ced5_a46a_4733),
        (1819, 0x5124_ffb7_ddc7_c9d4, 0x2039_d84a_4b1d_c1f3),
        (271, 0xf931_efcb_6a94_192d, 0xb0ea_d509_b923_6d10),
    ];
    for (table, pin) in tables.iter().zip(pins) {
        let bytes = table.to_bytes();
        assert_eq!(
            (table.len(), Fnv64::digest(&bytes), rows_digest(table)),
            pin
        );
        let loaded = PerfTable::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_bytes(), bytes);
        assert_eq!(rows_digest(&loaded), pin.2);
    }
}

/// An SPT1 file (format in `workloads::store`) for two benchmarks on two
/// contexts, with a valid checksum over contents that need not be valid.
fn spt1(solos: [f64; 2], rows: &[(&[u32], &[f64])], trailing: &[u8]) -> Vec<u8> {
    let mut out = b"SYMBPERF".to_vec();
    [1u32, 2, 2]
        .iter()
        .for_each(|v| out.extend(v.to_le_bytes()));
    for (b, solo) in solos.iter().enumerate() {
        out.extend(2u32.to_le_bytes());
        out.extend(format!("b{b}").bytes());
        out.extend(solo.to_bits().to_le_bytes());
    }
    out.extend((rows.len() as u64).to_le_bytes());
    for (combo, ipcs) in rows {
        out.extend((combo.len() as u32).to_le_bytes());
        combo.iter().for_each(|i| out.extend(i.to_le_bytes()));
        ipcs.iter()
            .for_each(|ipc| out.extend(ipc.to_bits().to_le_bytes()));
    }
    out.extend(trailing);
    let checksum = Fnv64::digest(&out);
    out.extend(checksum.to_le_bytes());
    out
}

#[test]
fn every_content_check_of_from_bytes_rejects_its_fault() {
    let valid: [(&[u32], &[f64]); 3] = [(&[0], &[1.0]), (&[0, 1], &[0.8, 0.4]), (&[1], &[0.5])];
    let table = PerfTable::from_bytes(&spt1([1.0, 0.5], &valid, &[])).unwrap();
    assert_eq!(table.len(), 3);
    assert_eq!(table.slot_ipcs(&[0, 1]), Some(&[0.8, 0.4][..]));
    assert_eq!(table.slot_ipcs(&[1, 1]), None);

    let solos = [1.0, 0.5];
    let duplicate: [(&[u32], &[f64]); 3] = [(&[0], &[1.0]), (&[1], &[0.5]), (&[0], &[1.0])];
    let faults = [
        ("size 0", spt1(solos, &[(&[], &[])], &[])),
        ("size 3", spt1(solos, &[(&[0, 0, 1], &[1.0; 3])], &[])),
        (
            "references benchmark 2",
            spt1(solos, &[(&[0, 2], &[1.0; 2])], &[]),
        ),
        ("not sorted", spt1(solos, &[(&[1, 0], &[1.0; 2])], &[])),
        ("not finite", spt1(solos, &[(&[0], &[f64::INFINITY])], &[])),
        ("duplicate", spt1(solos, &duplicate, &[])),
        ("trailing", spt1(solos, &valid, &[0])),
        ("disagrees", spt1([1.0, 0.25], &valid, &[])),
        ("no size-1", spt1(solos, &valid[..2], &[])),
    ];
    for (needle, bytes) in faults {
        let err = PerfTable::from_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, TableError::Format(ref m) if m.contains(needle)),
            "{needle}: {err:?}"
        );
    }
}
