//! Deterministic fault injection for the serving layer.
//!
//! Robustness claims are only as good as the faults they were tested
//! against, and ad-hoc `#[cfg(test)]` panics scattered through the code
//! rot quickly. This module centralizes the seam instead: production code
//! consults a [`FaultInjector`] at the places a real deployment can fail —
//! a checkpoint save or restore about to touch the filesystem — and a
//! seeded [`FaultPlan`] decides *deterministically* whether that
//! consultation faults. The default [`NoFaults`] injector compiles to a
//! no-op, so the seams cost one virtual call on paths that already cross
//! the filesystem.
//!
//! Determinism: each site keeps a draw counter, and the decision for draw
//! `n` is a pure function of `(seed, site, n)` (a SplitMix64 hash against
//! a parts-per-million threshold). A single-threaded consumer therefore
//! sees the identical fault pattern on every run; concurrent consumers
//! see a reproducible *set* of faults whose assignment to threads follows
//! the race, which is exactly the regime the fault proptests assert
//! under: every answer is bit-identical to the fault-free run or a typed
//! error, regardless of which thread absorbed the fault.

use std::sync::atomic::{AtomicU64, Ordering};

/// Where the serving layer consults the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A segment-store checkpoint save, before writing the temp file.
    StoreSave,
    /// A segment-store checkpoint load, before reading the segment file.
    StoreRestore,
}

impl FaultSite {
    /// All sites, in index order.
    #[cfg(test)]
    pub(crate) const ALL: [FaultSite; 2] = [FaultSite::StoreSave, FaultSite::StoreRestore];

    fn index(self) -> usize {
        match self {
            FaultSite::StoreSave => 0,
            FaultSite::StoreRestore => 1,
        }
    }

    /// A per-site tag folded into the hash so two sites with the same
    /// seed draw independent streams. The low byte is pinned per site, not
    /// derived from [`Self::index`] (0 and 1 belonged to sites since
    /// removed): a seeded plan must keep drawing the stream it always drew.
    fn tag(self) -> u64 {
        let site = match self {
            FaultSite::StoreSave => 2,
            FaultSite::StoreRestore => 3,
        };
        0x5157_4f52_4b45_5200 | site
    }
}

/// What an injection does at the seam that drew it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Fail the operation with a transient IO error.
    IoError,
}

/// The seam production code consults. Implementations must be cheap and
/// lock-free on the `None` path — it runs once per IO call.
pub trait FaultInjector: Send + Sync {
    /// Decides whether the operation about to run at `site` faults, and
    /// if so how.
    fn inject(&self, site: FaultSite) -> Option<Fault>;
}

/// The production injector: never faults.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn inject(&self, _site: FaultSite) -> Option<Fault> {
        None
    }
}

/// One site's configuration: what to inject, how often, at most how many
/// times.
#[derive(Debug, Clone, Copy)]
struct SitePlan {
    fault: Fault,
    prob_ppm: u32,
    budget: u64,
}

/// Per-site counters; draws index the deterministic hash stream.
#[derive(Debug, Default)]
struct SiteState {
    draws: AtomicU64,
    injected: AtomicU64,
}

/// A seeded, deterministic fault schedule.
///
/// ```
/// use soc_core::{Fault, FaultInjector, FaultPlan, FaultSite};
///
/// // Fail roughly 30% of checkpoint saves, deterministically per seed.
/// let plan = FaultPlan::new(7).with_fault(FaultSite::StoreSave, Fault::IoError, 0.3);
/// let a: Vec<bool> = (0..64).map(|_| plan.inject(FaultSite::StoreSave).is_some()).collect();
/// let again = FaultPlan::new(7).with_fault(FaultSite::StoreSave, Fault::IoError, 0.3);
/// let b: Vec<bool> = (0..64).map(|_| again.inject(FaultSite::StoreSave).is_some()).collect();
/// assert_eq!(a, b, "same seed, same draw order, same faults");
/// assert!(a.iter().any(|&f| f) && a.iter().any(|&f| !f));
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    plans: [Option<SitePlan>; 2],
    states: [SiteState; 2],
}

impl FaultPlan {
    /// An empty plan (injects nothing until configured) under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            plans: [None; 2],
            states: Default::default(),
        }
    }

    /// Arms `site` to inject `fault` with the given probability per draw
    /// (clamped to `[0, 1]`), with no injection budget.
    #[must_use]
    pub fn with_fault(mut self, site: FaultSite, fault: Fault, probability: f64) -> Self {
        let ppm = (probability.clamp(0.0, 1.0) * 1e6) as u32;
        self.plans[site.index()] = Some(SitePlan {
            fault,
            prob_ppm: ppm,
            budget: u64::MAX,
        });
        self
    }

    /// Caps the number of injections at `site` (e.g. `1` for a one-shot
    /// failure).
    #[must_use]
    pub(crate) fn with_budget(mut self, site: FaultSite, budget: u64) -> Self {
        if let Some(plan) = &mut self.plans[site.index()] {
            plan.budget = budget;
        }
        self
    }

    /// A plan that faults the very first draw at `site` and nothing else.
    pub fn one_shot(site: FaultSite, fault: Fault) -> Self {
        FaultPlan::new(0)
            .with_fault(site, fault, 1.0)
            .with_budget(site, 1)
    }

    /// How many times `site` consulted the plan so far.
    #[cfg(test)]
    pub(crate) fn draws(&self, site: FaultSite) -> u64 {
        self.states[site.index()].draws.load(Ordering::Relaxed)
    }

    /// How many faults `site` actually injected so far.
    #[cfg(test)]
    pub(crate) fn injected(&self, site: FaultSite) -> u64 {
        self.states[site.index()].injected.load(Ordering::Relaxed)
    }
}

impl FaultInjector for FaultPlan {
    fn inject(&self, site: FaultSite) -> Option<Fault> {
        let plan = self.plans[site.index()]?;
        let state = &self.states[site.index()];
        let n = state.draws.fetch_add(1, Ordering::Relaxed);
        let h = splitmix64(self.seed ^ site.tag() ^ n.wrapping_mul(0xa076_1d64_78bd_642f));
        if (h % 1_000_000) as u32 >= plan.prob_ppm {
            return None;
        }
        // Budget check: claim an injection slot or pass. The CAS loop
        // keeps the count exact under concurrent draws.
        loop {
            let k = state.injected.load(Ordering::Relaxed);
            if k >= plan.budget {
                return None;
            }
            if state
                .injected
                .compare_exchange(k, k + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return Some(plan.fault);
            }
        }
    }
}

/// SplitMix64 finalizer — the same mixer the vendored `rand` shim seeds
/// with, reused here so a draw decision is one multiply-shift chain.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_fires() {
        for site in FaultSite::ALL {
            assert_eq!(NoFaults.inject(site), None);
        }
    }

    #[test]
    fn unarmed_sites_never_fire_and_count_nothing() {
        let plan = FaultPlan::new(99).with_fault(FaultSite::StoreSave, Fault::IoError, 1.0);
        assert_eq!(plan.inject(FaultSite::StoreRestore), None);
        assert_eq!(
            plan.draws(FaultSite::StoreRestore),
            0,
            "unarmed sites skip the stream"
        );
        assert_eq!(plan.inject(FaultSite::StoreSave), Some(Fault::IoError));
    }

    #[test]
    fn same_seed_same_pattern_different_seed_differs() {
        let pattern = |seed: u64| -> Vec<bool> {
            let p = FaultPlan::new(seed).with_fault(FaultSite::StoreSave, Fault::IoError, 0.5);
            (0..256)
                .map(|_| p.inject(FaultSite::StoreSave).is_some())
                .collect()
        };
        assert_eq!(pattern(1), pattern(1));
        assert_ne!(
            pattern(1),
            pattern(2),
            "256 draws at p=0.5 must differ across seeds"
        );
    }

    #[test]
    fn site_tags_survive_the_removal_of_a_site() {
        // Seeded plans in the store suites replay by tag.
        let tags = FaultSite::ALL.map(|site| site.tag() & 0xff);
        assert_eq!(tags, [2, 3]);
    }

    #[test]
    fn probability_is_roughly_respected() {
        let plan = FaultPlan::new(5).with_fault(FaultSite::StoreRestore, Fault::IoError, 0.25);
        let hits = (0..4_000)
            .filter(|_| plan.inject(FaultSite::StoreRestore).is_some())
            .count();
        assert!(
            (800..1200).contains(&hits),
            "p=0.25 over 4000 draws hit {hits} times"
        );
        assert_eq!(plan.draws(FaultSite::StoreRestore), 4_000);
        assert_eq!(plan.injected(FaultSite::StoreRestore), hits as u64);
    }

    #[test]
    fn one_shot_fires_exactly_once() {
        let plan = FaultPlan::one_shot(FaultSite::StoreSave, Fault::IoError);
        assert_eq!(plan.inject(FaultSite::StoreSave), Some(Fault::IoError));
        for _ in 0..100 {
            assert_eq!(plan.inject(FaultSite::StoreSave), None);
        }
        assert_eq!(plan.injected(FaultSite::StoreSave), 1);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let plan = FaultPlan::new(11)
            .with_fault(FaultSite::StoreSave, Fault::IoError, 0.5)
            .with_fault(FaultSite::StoreRestore, Fault::IoError, 0.5);
        let a: Vec<bool> = (0..128)
            .map(|_| plan.inject(FaultSite::StoreSave).is_some())
            .collect();
        let b: Vec<bool> = (0..128)
            .map(|_| plan.inject(FaultSite::StoreRestore).is_some())
            .collect();
        assert_ne!(a, b, "same seed but distinct per-site streams");
    }
}
