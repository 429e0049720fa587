//! Output checks. Every workload compares what the library produced
//! against a reference: committed values for the default seed
//! ([`crate::reference`]), and for any seed one of the repository's own
//! parity pairs (restricted vs full table build, sweep vs sequential
//! sessions, background vs inline twin, dense vs sparse solver tiers,
//! distributed vs in-process sweep). A mismatch counts the affected
//! operations as failed.

use serve::ServeReport;
use session::{PolicyReport, SweepReport};

/// FNV-1a 64 over a stream of words; the bitwise fingerprint every
/// digest below is built from.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Self {
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Bitwise digest of one policy row: name, throughput, fractions and
/// every latency figure.
pub fn policy_digest(row: &PolicyReport) -> u64 {
    let mut h = Fnv::default();
    h.str(row.policy.name()).f64(row.throughput);
    for &x in row.fractions.iter().flatten() {
        h.f64(x);
    }
    if let Some(l) = &row.latency {
        h.f64(l.mean_turnaround)
            .f64(l.utilization)
            .f64(l.empty_fraction)
            .f64(l.throughput)
            .f64(l.mean_jobs_in_system)
            .u64(l.completed);
    }
    h.finish()
}

/// Digest of one policy row of one workload, its indices folded in.
pub fn row_digest(workload: &[usize], row: &PolicyReport) -> u64 {
    let mut h = Fnv::default();
    for &w in workload {
        h.u64(w as u64);
    }
    h.u64(policy_digest(row)).finish()
}

/// One digest per (workload, policy) row of a sweep.
pub fn sweep_digests(report: &SweepReport) -> Vec<u64> {
    report
        .rows
        .iter()
        .flat_map(|row| row.report.rows.iter().map(|p| row_digest(&row.workload, p)))
        .collect()
}

/// Folds a list of digests into one.
pub fn combine(digests: &[u64]) -> u64 {
    let mut h = Fnv::default();
    for &d in digests {
        h.u64(d);
    }
    h.finish()
}

/// Bitwise digest of a serve run's placement trace and mean turnaround.
pub fn serve_digest(report: &ServeReport) -> u64 {
    let mut h = Fnv::default();
    for p in &report.trace {
        h.f64(p.time);
        for &id in &p.placed {
            h.u64(id);
        }
        for &c in &p.running_after {
            h.u64(u64::from(c));
        }
    }
    h.f64(report.mean_turnaround).finish()
}

/// Rows of `got` that differ from `want` (a length mismatch fails every
/// row of the longer side).
pub fn mismatches(got: &[u64], want: &[u64]) -> u64 {
    if got.len() != want.len() {
        return got.len().max(want.len()) as u64;
    }
    got.iter().zip(want).filter(|(g, w)| g != w).count() as u64
}

/// `|a - b| <= rel * max(|a|, |b|)`.
pub fn rel_close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs())
}

/// Relative tolerance of the throughput checks against committed values.
pub const REL_TOL: f64 = 1e-9;

/// Values of `got` outside [`REL_TOL`] of `want`.
pub fn rel_mismatches(got: &[f64], want: &[f64]) -> u64 {
    if got.len() != want.len() {
        return got.len().max(want.len()) as u64;
    }
    got.iter()
        .zip(want)
        .filter(|(g, w)| !rel_close(**g, **w, REL_TOL))
        .count() as u64
}

/// A bitwise reference, flipped in its lowest bit when perturbed.
pub fn perturb_bits(x: u64, on: bool) -> u64 {
    x ^ u64::from(on)
}

/// A toleranced reference, moved far outside [`REL_TOL`] when perturbed.
pub fn perturb_value(x: f64, on: bool) -> f64 {
    if on {
        x * (1.0 + 1e-6)
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use session::{Policy, Session};
    use symbiosis::AnalyticModel;

    fn report(policies: &[Policy]) -> session::SessionReport {
        let model = AnalyticModel::new(2, 2, |counts: &[u32], ty| {
            let load: u32 = counts.iter().sum();
            [1.0, 0.7][ty] / f64::from(load).sqrt()
        });
        Session::builder()
            .rates(&model)
            .policies(policies.iter().copied())
            .run()
            .unwrap()
    }

    #[test]
    fn bitwise_digests_trip_on_a_flipped_reference() {
        let rows = report(&[Policy::Optimal, Policy::Worst, Policy::FcfsMarkov]).rows;
        let got: Vec<u64> = rows.iter().map(policy_digest).collect();
        let want: Vec<u64> = got.iter().map(|&d| perturb_bits(d, false)).collect();
        assert_eq!(mismatches(&got, &want), 0);
        let flipped: Vec<u64> = got.iter().map(|&d| perturb_bits(d, true)).collect();
        assert_eq!(mismatches(&got, &flipped), 3);
        assert_eq!(mismatches(&got, &want[..2]), 3, "missing rows fail");
        assert_ne!(combine(&got), combine(&flipped));
    }

    #[test]
    fn a_one_ulp_change_in_any_field_changes_the_digest() {
        let mut row = report(&[Policy::FcfsMarkov]).rows.remove(0);
        let base = policy_digest(&row);
        row.throughput = f64::from_bits(row.throughput.to_bits() ^ 1);
        assert_ne!(policy_digest(&row), base);
        row.throughput = f64::from_bits(row.throughput.to_bits() ^ 1);
        assert_eq!(policy_digest(&row), base);
        let fr = row.fractions.as_mut().unwrap();
        fr[0] = f64::from_bits(fr[0].to_bits() ^ 1);
        assert_ne!(policy_digest(&row), base);
    }

    #[test]
    fn toleranced_checks_trip_on_a_perturbed_reference() {
        let got: Vec<f64> = report(&[Policy::Optimal, Policy::Worst, Policy::FcfsMarkov])
            .rows
            .iter()
            .map(|r| r.throughput)
            .collect();
        let want: Vec<f64> = got.iter().map(|&x| perturb_value(x, false)).collect();
        assert_eq!(rel_mismatches(&got, &want), 0);
        let moved: Vec<f64> = got.iter().map(|&x| perturb_value(x, true)).collect();
        assert_eq!(rel_mismatches(&got, &moved), 3);
        // The tolerance admits a few ulps, so solver-tier pruning stays
        // measurable against the committed values.
        let ulps: Vec<f64> = got
            .iter()
            .map(|&x| f64::from_bits(x.to_bits() + 4))
            .collect();
        assert_eq!(rel_mismatches(&got, &ulps), 0);
    }
}
