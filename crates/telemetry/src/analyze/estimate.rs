//! Online Markov-model re-estimation (DESIGN.md §16).
//!
//! The synthesis pipeline optimizes layouts against a *static* profile
//! captured before deployment. A resident deployment under shifting
//! traffic drifts away from that profile — exit rates, allocation
//! counts, and per-exit cycles all move with the mix. This module
//! rebuilds a [`Profile`] from the *live* execution so the adaptive
//! controller can re-run DSA against reality:
//!
//! - [`LiveEstimator`] — a lock-free accumulator the threaded executor
//!   feeds on every dispatch. Event rings cannot serve this purpose:
//!   they are worker-exclusive and only drained destructively at
//!   session end, while the controller needs a *mid-run* snapshot. The
//!   estimator is a flat array of atomics instead, readable at any
//!   moment from any thread.
//! - [`rate_divergence`] — how far two profiles' exit-rate
//!   distributions sit apart; `AdaptReport`'s pre/post divergence.
//!
//! Cycles are the *charged* cost-model cycles, not wall nanoseconds:
//! charged cycles are a pure function of the task body, so an estimated
//! profile is deterministic under stepped pacing — which is what makes
//! migration decisions reproducible at any worker-thread count.

use bamboo_lang::spec::ProgramSpec;
use bamboo_profile::{ExitStats, Profile, TaskProfile};
use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free live profile accumulator. See the module docs.
///
/// One per resident run (created by the executor when an adapt policy
/// is present); workers call [`LiveEstimator::record`] after each task
/// body, the controller calls [`LiveEstimator::snapshot`] on its tick.
#[derive(Debug)]
pub struct LiveEstimator {
    program: String,
    /// Per task: `(first exit slot, exit count, site count)` into the
    /// flat arrays.
    shape: Vec<(usize, usize, usize)>,
    /// Invocation counts, one slot per (task, exit).
    counts: Vec<AtomicU64>,
    /// Total charged cycles, one slot per (task, exit).
    cycles: Vec<AtomicU64>,
    /// Allocation totals, `sites-per-task` slots per (task, exit).
    allocs: Vec<AtomicU64>,
    /// Per task: first slot into `allocs` (exit-major).
    alloc_base: Vec<usize>,
    /// Total recorded invocations (cheap snapshot gate).
    total: AtomicU64,
}

impl LiveEstimator {
    /// An estimator shaped for `spec`: one accumulator slot per
    /// (task, exit) and per (task, exit, allocation site).
    pub fn new(spec: &ProgramSpec) -> Self {
        let mut shape = Vec::with_capacity(spec.tasks.len());
        let mut alloc_base = Vec::with_capacity(spec.tasks.len());
        let mut exit_slots = 0usize;
        let mut alloc_slots = 0usize;
        for task in &spec.tasks {
            shape.push((exit_slots, task.exits.len(), task.alloc_sites.len()));
            alloc_base.push(alloc_slots);
            exit_slots += task.exits.len();
            alloc_slots += task.exits.len() * task.alloc_sites.len();
        }
        LiveEstimator {
            program: spec.name.clone(),
            shape,
            counts: (0..exit_slots).map(|_| AtomicU64::new(0)).collect(),
            cycles: (0..exit_slots).map(|_| AtomicU64::new(0)).collect(),
            allocs: (0..alloc_slots).map(|_| AtomicU64::new(0)).collect(),
            alloc_base,
            total: AtomicU64::new(0),
        }
    }

    /// Records one invocation: `task` took `exit` after charging
    /// `cycles`, allocating `allocs[site]` objects per site. Lock-free;
    /// out-of-range ids are ignored (a shape-mismatched recorder must
    /// not corrupt neighbouring slots).
    pub fn record(&self, task: usize, exit: usize, cycles: u64, allocs: &[u64]) {
        let Some(&(base, exits, sites)) = self.shape.get(task) else {
            return;
        };
        if exit >= exits {
            return;
        }
        let slot = base + exit;
        self.counts[slot].fetch_add(1, Ordering::Relaxed);
        self.cycles[slot].fetch_add(cycles, Ordering::Relaxed);
        let abase = self.alloc_base[task] + exit * sites;
        for (site, &n) in allocs.iter().enumerate().take(sites) {
            if n > 0 {
                self.allocs[abase + site].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.total.fetch_add(1, Ordering::Relaxed);
    }

    /// Total invocations recorded so far.
    pub fn invocations(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Materializes the accumulated statistics as a [`Profile`].
    ///
    /// Tasks with zero observed invocations take their statistics from
    /// `baseline` when one is given — the Markov model refuses to
    /// predict a never-profiled task, so a partial live view must be
    /// completed by the static profile it is refining. Sequences are
    /// left empty: an estimate carries aggregate rates only, and the
    /// controller simulates with replay disabled.
    pub fn snapshot(&self, input: &str, baseline: Option<&Profile>) -> Profile {
        let mut tasks = Vec::with_capacity(self.shape.len());
        let mut total_cycles = 0u64;
        for (task, &(base, exits, sites)) in self.shape.iter().enumerate() {
            let mut tp = TaskProfile {
                exits: Vec::with_capacity(exits),
                sequence: Vec::new(),
            };
            let abase = self.alloc_base[task];
            let mut observed = 0u64;
            for exit in 0..exits {
                let count = self.counts[base + exit].load(Ordering::Relaxed);
                let cyc = self.cycles[base + exit].load(Ordering::Relaxed);
                observed += count;
                total_cycles += cyc;
                tp.exits.push(ExitStats {
                    count,
                    total_cycles: cyc,
                    site_allocs: (0..sites)
                        .map(|s| self.allocs[abase + exit * sites + s].load(Ordering::Relaxed))
                        .collect(),
                });
            }
            if observed == 0 {
                if let Some(b) = baseline.and_then(|b| b.tasks.get(task)) {
                    let mut fallback = b.clone();
                    fallback.sequence.clear();
                    total_cycles += fallback.exits.iter().map(|e| e.total_cycles).sum::<u64>();
                    tasks.push(fallback);
                    continue;
                }
            }
            tasks.push(tp);
        }
        Profile {
            program: self.program.clone(),
            input: input.to_string(),
            tasks,
            total_cycles,
        }
    }
}

/// A stable FNV-1a fingerprint of a profile's aggregate statistics
/// (counts, cycles, allocation totals per (task, exit)). The adaptive
/// controller keys its persistent `SimCache` on this: while the
/// estimated profile is unchanged between ticks, every previously
/// simulated layout replays for free; when it moves, the cache is
/// cleared (simulation results are a function of the profile).
pub fn profile_fingerprint(profile: &Profile) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(h: u64, v: u64) -> u64 {
        (h ^ v).wrapping_mul(FNV_PRIME)
    }
    let mut h = FNV_OFFSET;
    for tp in &profile.tasks {
        h = eat(h, tp.exits.len() as u64);
        for es in &tp.exits {
            h = eat(h, es.count);
            h = eat(h, es.total_cycles);
            for &a in &es.site_allocs {
                h = eat(h, a);
            }
        }
    }
    h
}

/// How far apart two profiles' exit-rate distributions sit, in
/// `[0, 1]`: the invocation-weighted mean, over tasks observed in
/// both, of the total-variation distance between their per-task exit
/// distributions. 0 means every shared task takes its exits at
/// identical rates; 1 means they disagree completely. Tasks observed
/// in only one profile contribute their full weight at distance 1.
pub fn rate_divergence(observed: &Profile, model: &Profile) -> f64 {
    let tasks = observed.tasks.len().max(model.tasks.len());
    let mut weight_total = 0.0f64;
    let mut weighted = 0.0f64;
    for t in 0..tasks {
        let empty = TaskProfile::default();
        let a = observed.tasks.get(t).unwrap_or(&empty);
        let b = model.tasks.get(t).unwrap_or(&empty);
        let (na, nb) = (a.invocations(), b.invocations());
        if na == 0 && nb == 0 {
            continue;
        }
        let weight = (na + nb) as f64;
        weight_total += weight;
        if na == 0 || nb == 0 {
            weighted += weight;
            continue;
        }
        let exits = a.exits.len().max(b.exits.len());
        let mut tv = 0.0f64;
        for e in 0..exits {
            let pa = a.exits.get(e).map_or(0.0, |s| s.count as f64 / na as f64);
            let pb = b.exits.get(e).map_or(0.0, |s| s.count as f64 / nb as f64);
            tv += (pa - pb).abs();
        }
        weighted += weight * (tv / 2.0);
    }
    if weight_total == 0.0 {
        0.0
    } else {
        weighted / weight_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bamboo_lang::builder::ProgramBuilder;
    use bamboo_lang::spec::FlagExpr;

    fn spec() -> ProgramSpec {
        let mut b: ProgramBuilder<()> = ProgramBuilder::new("est");
        let s = b.class("StartupObject", &["initialstate"]);
        let w = b.class("W", &["ready"]);
        let init = b.flag(s, "initialstate");
        let ready = b.flag(w, "ready");
        b.task("startup")
            .param("s", s, FlagExpr::flag(init))
            .alloc(w, &[(ready, true)], &[])
            .exit("", |e| e.set(0, init, false))
            .body(())
            .finish();
        b.task("work")
            .param("w", w, FlagExpr::flag(ready))
            .exit("more", |e| e.set(0, ready, true))
            .exit("done", |e| e.set(0, ready, false))
            .body(())
            .finish();
        b.build().unwrap().spec
    }

    #[test]
    fn estimator_accumulates_and_snapshots() {
        let spec = spec();
        let est = LiveEstimator::new(&spec);
        est.record(0, 0, 100, &[4]);
        for _ in 0..3 {
            est.record(1, 0, 10, &[]);
        }
        est.record(1, 1, 20, &[]);
        assert_eq!(est.invocations(), 5);
        let p = est.snapshot("live", None);
        assert_eq!(p.total_cycles, 150);
        assert_eq!(p.tasks[0].exits[0].count, 1);
        assert_eq!(p.tasks[0].exits[0].site_allocs, vec![4]);
        assert_eq!(p.tasks[1].exits[0].count, 3);
        assert_eq!(p.tasks[1].exits[0].mean_cycles(), 10);
        assert_eq!(p.tasks[1].exits[1].count, 1);
        assert!(p.tasks.iter().all(|t| t.sequence.is_empty()));
    }

    #[test]
    fn out_of_range_records_are_ignored() {
        let spec = spec();
        let est = LiveEstimator::new(&spec);
        est.record(99, 0, 10, &[]);
        est.record(0, 99, 10, &[]);
        est.record(0, 0, 10, &[1, 2, 3, 4, 5, 6]); // excess sites dropped
        assert_eq!(est.invocations(), 1);
        let p = est.snapshot("live", None);
        assert_eq!(p.tasks[0].exits[0].site_allocs, vec![1]);
    }

    #[test]
    fn unobserved_tasks_fall_back_to_baseline() {
        let spec = spec();
        let est = LiveEstimator::new(&spec);
        est.record(0, 0, 50, &[2]);
        // Baseline knows `work`; the live view never saw it.
        let base_est = LiveEstimator::new(&spec);
        base_est.record(1, 0, 7, &[]);
        let baseline = base_est.snapshot("base", None);
        let p = est.snapshot("live", Some(&baseline));
        assert_eq!(p.tasks[1].exits[0].count, 1);
        assert_eq!(p.tasks[1].exits[0].mean_cycles(), 7);
        // Without a baseline the task stays unobserved.
        let p = est.snapshot("live", None);
        assert_eq!(p.tasks[1].invocations(), 0);
    }

    #[test]
    fn fingerprint_tracks_content() {
        let spec = spec();
        let est = LiveEstimator::new(&spec);
        est.record(0, 0, 100, &[4]);
        let a = profile_fingerprint(&est.snapshot("x", None));
        let b = profile_fingerprint(&est.snapshot("y", None));
        assert_eq!(a, b, "input label must not affect the fingerprint");
        est.record(1, 0, 10, &[]);
        let c = profile_fingerprint(&est.snapshot("x", None));
        assert_ne!(a, c, "new observations must move the fingerprint");
    }

    #[test]
    fn divergence_is_zero_on_self_and_positive_on_shift() {
        let spec = spec();
        let est = LiveEstimator::new(&spec);
        est.record(1, 0, 10, &[]);
        est.record(1, 0, 10, &[]);
        est.record(1, 1, 10, &[]);
        let a = est.snapshot("a", None);
        assert_eq!(rate_divergence(&a, &a), 0.0);
        // Shifted: `work` now overwhelmingly takes exit 1.
        let est = LiveEstimator::new(&spec);
        est.record(1, 0, 10, &[]);
        est.record(1, 1, 10, &[]);
        est.record(1, 1, 10, &[]);
        let b = est.snapshot("b", None);
        let d = rate_divergence(&a, &b);
        assert!(d > 0.0 && d <= 1.0, "divergence {d}");
    }
}
