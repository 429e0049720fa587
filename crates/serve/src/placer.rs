//! Pluggable placement policies for the serve loop.
//!
//! A [`Placer`] answers one question: given the jobs waiting in the pool,
//! the multiset already running, and a number of free hardware contexts,
//! which queued jobs should start now? Unlike the Section VI latency
//! schedulers — which re-select the whole coschedule at every event — a
//! placer is *non-preemptive*: running jobs keep their contexts, and only
//! the free ones are filled.
//!
//! The existing schedulers are reused unchanged through
//! [`OccupiedModel`], which re-prices a candidate multiset as if the
//! running jobs were part of it; a bounded beam search
//! ([`BeamPlacer`]) adds a placer the offline analyses do not have.

use queueing::{JobId, JobPool, Scheduler};
use session::Policy;
use symbiosis::RateModel;

/// A placement policy: picks queued jobs for the free contexts.
pub trait Placer {
    /// Registry-style name printed in reports (uppercase, like the paper's
    /// scheduler labels).
    fn name(&self) -> &'static str;

    /// Selects up to `free` job ids from `queued` to start next, given
    /// that the multiset `running` already occupies contexts. `model` is
    /// the rate source used for pricing (typically the live predicted
    /// model, not ground truth).
    fn place(
        &mut self,
        queued: &mut JobPool,
        running: &[u32],
        free: usize,
        model: &dyn RateModel,
    ) -> Vec<JobId>;
}

/// Re-prices candidate multisets in the presence of already-running jobs:
/// a candidate `c` is rated as if the machine ran `c + running`, and the
/// advertised context count shrinks to the free contexts.
///
/// This is the adapter that lets the preemptive Section VI schedulers act
/// as non-preemptive placers: from their point of view they schedule a
/// smaller machine whose interference already includes the running jobs.
pub struct OccupiedModel<'a> {
    base: &'a dyn RateModel,
    running: &'a [u32],
    occupancy: u32,
}

impl<'a> OccupiedModel<'a> {
    /// Wraps `base` with `running` jobs pinned on the machine.
    ///
    /// # Panics
    ///
    /// Panics if `running` does not match the model's type count, exceeds
    /// its contexts, or `base` cannot price partial multisets.
    pub fn new(base: &'a dyn RateModel, running: &'a [u32]) -> Self {
        assert_eq!(running.len(), base.num_types(), "running counts length");
        assert!(
            base.supports_partial(),
            "occupied pricing needs partial-multiset rates"
        );
        let occupancy: u32 = running.iter().sum();
        assert!(
            occupancy as usize <= base.contexts(),
            "running jobs exceed machine contexts"
        );
        OccupiedModel {
            base,
            running,
            occupancy,
        }
    }

    fn combined(&self, counts: &[u32]) -> Vec<u32> {
        counts
            .iter()
            .zip(self.running)
            .map(|(&c, &r)| c + r)
            .collect()
    }
}

impl RateModel for OccupiedModel<'_> {
    fn num_types(&self) -> usize {
        self.base.num_types()
    }

    fn contexts(&self) -> usize {
        self.base.contexts() - self.occupancy as usize
    }

    fn per_job_rate(&self, counts: &[u32], ty: usize) -> f64 {
        self.base.per_job_rate(&self.combined(counts), ty)
    }
}

/// Adapts a Section VI latency scheduler (from the [`Policy`] registry)
/// into a non-preemptive placer via [`OccupiedModel`].
pub struct PolicyPlacer {
    inner: Box<dyn Scheduler>,
}

impl PolicyPlacer {
    /// FCFS placement: oldest queued jobs first, symbiosis-blind.
    pub fn fcfs() -> Self {
        Self::from_policy(Policy::Fcfs).expect("FCFS is a latency policy")
    }

    /// Greedy symbiosis: fill the free contexts with the feasible multiset
    /// adding the most instantaneous throughput (MAXIT re-priced for the
    /// occupied machine).
    pub fn greedy() -> Self {
        Self::from_policy(Policy::MaxIt).expect("MAXIT is a latency policy")
    }

    /// Wraps any latency policy from the registry; `None` for the
    /// throughput-analysis policies, which have no online scheduler.
    pub fn from_policy(policy: Policy) -> Option<Self> {
        policy
            .latency_scheduler(&[])
            .map(|inner| PolicyPlacer { inner })
    }
}

impl Placer for PolicyPlacer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(
        &mut self,
        queued: &mut JobPool,
        running: &[u32],
        free: usize,
        model: &dyn RateModel,
    ) -> Vec<JobId> {
        if free == 0 || queued.is_empty() {
            return Vec::new();
        }
        let occupied = OccupiedModel::new(model, running);
        self.inner.select(queued, free, &occupied)
    }
}

/// Bounded beam search over partial placements.
///
/// Grows candidate multisets one job at a time, keeping only the `width`
/// best-scoring partial placements per level; the score of a candidate is
/// the *whole machine's* predicted instantaneous throughput (running +
/// candidate). This explores placements the greedy marginal objective
/// misses — a low-marginal first pick can enable a high-throughput pair —
/// at cost `O(width * free * num_types)` instead of the exhaustive
/// multiset enumeration MAXIT pays.
///
/// Ties break lexicographically on the count vector, so placement is
/// deterministic. Jobs are drawn oldest-first within each type.
pub struct BeamPlacer {
    width: usize,
}

impl BeamPlacer {
    /// A beam keeping the `width` best partial placements per level.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn new(width: usize) -> Self {
        assert!(width > 0, "beam width must be at least 1");
        BeamPlacer { width }
    }

    fn score(model: &dyn RateModel, running: &[u32], candidate: &[u32]) -> f64 {
        let combined: Vec<u32> = running
            .iter()
            .zip(candidate)
            .map(|(&r, &c)| r + c)
            .collect();
        model.instantaneous_throughput(&combined)
    }
}

impl Placer for BeamPlacer {
    fn name(&self) -> &'static str {
        "BEAM"
    }

    fn place(
        &mut self,
        queued: &mut JobPool,
        running: &[u32],
        free: usize,
        model: &dyn RateModel,
    ) -> Vec<JobId> {
        let want = queued.len().min(free);
        if want == 0 {
            return Vec::new();
        }
        let avail = queued.counts().to_vec();
        let n = avail.len();
        let mut beam: Vec<Vec<u32>> = vec![vec![0; n]];
        for _ in 0..want {
            let mut grown: Vec<Vec<u32>> = Vec::new();
            for counts in &beam {
                for ty in 0..n {
                    if counts[ty] < avail[ty] {
                        let mut next = counts.clone();
                        next[ty] += 1;
                        grown.push(next);
                    }
                }
            }
            grown.sort_unstable();
            grown.dedup();
            // Keep the `width` highest-scoring candidates, ties broken by
            // the (already sorted) lexicographic order.
            let mut scored: Vec<(f64, Vec<u32>)> = grown
                .into_iter()
                .map(|c| (Self::score(model, running, &c), c))
                .collect();
            scored.sort_by(|a, b| b.0.total_cmp(&a.0));
            scored.truncate(self.width);
            beam = scored.into_iter().map(|(_, c)| c).collect();
        }
        let best = &beam[0];
        let mut ids = Vec::with_capacity(want);
        for (ty, &c) in best.iter().enumerate() {
            ids.extend(queued.oldest_of_type(ty, c as usize));
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use queueing::Job;
    use symbiosis::AnalyticModel;

    /// Heterogeneity-loving machine: distinct types relieve contention.
    fn relief_model(n: usize, k: usize) -> AnalyticModel<impl Fn(&[u32], usize) -> f64> {
        AnalyticModel::new(n, k, |counts: &[u32], _ty| {
            let distinct = counts.iter().filter(|&&c| c > 0).count() as f64;
            let load: u32 = counts.iter().sum();
            (1.0 + 0.5 * (distinct - 1.0)) / (1.0 + 0.3 * (load as f64 - 1.0))
        })
    }

    fn pool_with(jobs: &[(usize, f64)]) -> JobPool {
        let num_types = jobs.iter().map(|&(ty, _)| ty).max().unwrap_or(0) + 1;
        let mut pool = JobPool::new(num_types);
        for (i, &(ty, remaining)) in jobs.iter().enumerate() {
            pool.insert(Job {
                id: i as JobId,
                ty,
                remaining,
                arrival: i as f64,
            });
        }
        pool
    }

    #[test]
    fn occupied_model_shifts_pricing_by_the_running_multiset() {
        let base = relief_model(2, 4);
        let running = [1, 0];
        let occ = OccupiedModel::new(&base, &running);
        assert_eq!(occ.contexts(), 3);
        assert_eq!(occ.num_types(), 2);
        // Pricing [0, 1] through the occupied model equals pricing the
        // combined [1, 1] through the base model.
        let got = occ.per_job_rate(&[0, 1], 1);
        let want = base.per_job_rate(&[1, 1], 1);
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn fcfs_placer_takes_oldest_regardless_of_rates() {
        let base = relief_model(2, 4);
        let mut pool = pool_with(&[(0, 1.0), (0, 1.0), (1, 1.0)]);
        let mut placer = PolicyPlacer::fcfs();
        let ids = placer.place(&mut pool, &[0, 0], 2, &base);
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(placer.name(), "FCFS");
    }

    #[test]
    fn greedy_placer_prefers_symbiotic_mixes() {
        let base = relief_model(2, 4);
        let mut pool = pool_with(&[(0, 1.0), (0, 1.0), (1, 1.0)]);
        let mut placer = PolicyPlacer::greedy();
        let mut ids = placer.place(&mut pool, &[0, 0], 2, &base);
        ids.sort_unstable();
        // Relief makes {0, 1} faster than {0, 0}: the mix wins.
        assert_eq!(ids, vec![0, 2]);
    }

    #[test]
    fn beam_placer_matches_exhaustive_search_at_full_width() {
        let base = relief_model(3, 4);
        for running in [[0u32, 0, 0], [1, 0, 0], [0, 2, 0]] {
            let mut pool = pool_with(&[(0, 1.0), (1, 1.0), (1, 1.0), (2, 1.0)]);
            let free = 4 - running.iter().sum::<u32>() as usize;
            let mut beam = BeamPlacer::new(64); // wide enough to be exact
            let beam_ids = beam.place(&mut pool, &running, free, &base);
            let counts_of = |ids: &[JobId], pool: &JobPool| {
                let mut c = vec![0u32; 3];
                for &id in ids {
                    c[pool.get(id).unwrap().ty] += 1;
                }
                c
            };
            let beam_counts = counts_of(&beam_ids, &pool);
            // Exhaustive best over all multisets of the same size.
            let best = queueing::sched::feasible_multisets(pool.counts(), beam_ids.len() as u32)
                .into_iter()
                .max_by(|a, b| {
                    BeamPlacer::score(&base, &running, a)
                        .total_cmp(&BeamPlacer::score(&base, &running, b))
                })
                .unwrap();
            assert_eq!(
                BeamPlacer::score(&base, &running, &beam_counts),
                BeamPlacer::score(&base, &running, &best),
                "running {running:?}"
            );
        }
    }

    #[test]
    fn beam_placer_is_deterministic_and_bounded() {
        let base = relief_model(3, 4);
        let mut placer = BeamPlacer::new(2);
        let run = |placer: &mut BeamPlacer| {
            let mut pool = pool_with(&[(0, 1.0), (0, 2.0), (1, 1.0), (2, 1.0), (2, 2.0)]);
            placer.place(&mut pool, &[0, 1, 0], 3, &base)
        };
        let a = run(&mut placer);
        let b = run(&mut placer);
        assert_eq!(a, b);
        assert!(a.len() <= 3);
    }

    #[test]
    fn placers_respect_empty_pools_and_zero_free_contexts() {
        let base = relief_model(2, 4);
        let mut empty = JobPool::new(2);
        for placer in [
            &mut PolicyPlacer::fcfs() as &mut dyn Placer,
            &mut PolicyPlacer::greedy(),
            &mut BeamPlacer::new(4),
        ] {
            assert!(placer.place(&mut empty, &[0, 0], 4, &base).is_empty());
            let mut pool = pool_with(&[(0, 1.0)]);
            assert!(placer.place(&mut pool, &[2, 2], 0, &base).is_empty());
        }
    }

    #[test]
    fn throughput_policies_have_no_placer() {
        assert!(PolicyPlacer::from_policy(Policy::Optimal).is_none());
        assert!(PolicyPlacer::from_policy(Policy::Srpt).is_some());
    }
}
