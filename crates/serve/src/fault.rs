//! Deterministic fault injection for the serve layer's chaos harness.
//!
//! A [`FaultPlan`] names, ahead of a run, exactly which arrivals misbehave
//! and how: a tenant panics mid-serve at a chosen `(tenant, arrival)`
//! point, returns an injected engine error, stalls for a fixed duration
//! (exercising deadline shedding), or the *consumer* stalls before a
//! chosen micro-batch (forcing ring-full backpressure episodes). Because
//! the plan is a pure value — no randomness at fire time, no dependence on
//! thread scheduling — a faulted run is reproducible, and the chaos suite
//! can assert the strong property the serve layer promises: **healthy
//! tenants are bit-identical with and without the injected faults**, at
//! any shard/thread/micro-batch configuration.
//!
//! The seeded constructor ([`FaultPlan::seeded`]) derives fault points
//! from a seed via the same SplitMix64 the workload catalog uses, so chaos
//! tests can sweep many distinct plans without hand-picking coordinates.

use omfl_par::seed_for;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

/// The marker every injected panic message carries, so panic hooks and
/// assertions can tell deliberate chaos from real bugs.
pub const INJECTED_PANIC_MARKER: &str = "injected-fault";

/// Silences the default panic-hook report for panics whose message carries
/// [`INJECTED_PANIC_MARKER`]; every other panic still reaches the previous
/// hook. Installed once per process, so chaos tests and the faulted bench
/// panel can fire planned panics without flooding stderr.
pub fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or_default();
            if !message.contains(INJECTED_PANIC_MARKER) {
                previous(info);
            }
        }));
    });
}

/// A deterministic fault schedule for one serve run. Build with the
/// fluent `*_at` methods or [`seeded`](FaultPlan::seeded); pass to
/// [`Server::serve_with_faults`](crate::Server::serve_with_faults).
///
/// An empty plan (the [`Default`]) injects nothing —
/// `serve_with_faults(.., &FaultPlan::default())` is exactly `serve`.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    panics: BTreeSet<(u32, u32)>,
    errors: BTreeSet<(u32, u32)>,
    stalls: BTreeMap<(u32, u32), Duration>,
    batch_stalls: BTreeMap<u64, Duration>,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn new() -> Self {
        Self::default()
    }

    /// Injects a panic into tenant `tenant`'s serve of its arrival
    /// `arrival` (per-tenant request index). The panic unwinds out of the
    /// engine exactly like a real engine bug would.
    pub fn panic_at(mut self, tenant: u32, arrival: u32) -> Self {
        self.panics.insert((tenant, arrival));
        self
    }

    /// Injects a synthetic engine error (a `CoreError::BadRequest`) at the
    /// given point — the non-unwinding fault path.
    pub fn error_at(mut self, tenant: u32, arrival: u32) -> Self {
        self.errors.insert((tenant, arrival));
        self
    }

    /// Stalls tenant `tenant`'s serve of arrival `arrival` by `dur` — the
    /// stall is *inside* the timed serve section, so it counts against a
    /// configured per-tenant micro-batch deadline (a simulated slow
    /// tenant, the deadline shedding trigger).
    pub fn stall_at(mut self, tenant: u32, arrival: u32, dur: Duration) -> Self {
        self.stalls.insert((tenant, arrival), dur);
        self
    }

    /// Stalls the *consumer* for `dur` before it drains micro-batch
    /// `batch` (0-based), letting the producer run the ring full — a
    /// forced backpressure episode.
    pub fn stall_batch(mut self, batch: u64, dur: Duration) -> Self {
        self.batch_stalls.insert(batch, dur);
        self
    }

    /// A seeded plan: `panics` distinct panic points drawn from the fleet
    /// shape via SplitMix64. Tenants with empty streams are never picked.
    /// A pure function of `(seed, tenant_lens, panics)`.
    pub fn seeded(seed: u64, tenant_lens: &[usize], panics: usize) -> Self {
        let eligible: Vec<u32> = tenant_lens
            .iter()
            .enumerate()
            .filter(|(_, &len)| len > 0)
            .map(|(t, _)| t as u32)
            .collect();
        let mut plan = Self::new();
        if eligible.is_empty() {
            return plan;
        }
        let mut draw = 0u64;
        while plan.panics.len() < panics.min(eligible.len()) {
            let t = eligible[(seed_for(seed, 2 * draw) % eligible.len() as u64) as usize];
            let len = tenant_lens[t as usize] as u64;
            let i = (seed_for(seed, 2 * draw + 1) % len) as u32;
            // One fault per tenant keeps "which tenants are quarantined"
            // a deterministic function of the plan alone, not of how the
            // first fault races a would-be second one on the same tenant.
            if !plan.panics.iter().any(|&(pt, _)| pt == t) {
                plan.panics.insert((t, i));
            }
            draw += 1;
        }
        plan
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.panics.is_empty()
            && self.errors.is_empty()
            && self.stalls.is_empty()
            && self.batch_stalls.is_empty()
    }

    /// Should this serve invocation panic?
    pub fn should_panic(&self, tenant: u32, arrival: u32) -> bool {
        self.panics.contains(&(tenant, arrival))
    }

    /// Should this serve invocation fail with an injected engine error?
    pub fn should_error(&self, tenant: u32, arrival: u32) -> bool {
        self.errors.contains(&(tenant, arrival))
    }

    /// The injected stall for this serve invocation, if any.
    pub fn stall_for(&self, tenant: u32, arrival: u32) -> Option<Duration> {
        self.stalls.get(&(tenant, arrival)).copied()
    }

    /// The injected consumer stall before draining this micro-batch.
    pub fn batch_stall(&self, batch: u64) -> Option<Duration> {
        self.batch_stalls.get(&batch).copied()
    }

    /// Every planned panic point, in `(tenant, arrival)` order — what a
    /// chaos test compares the run's quarantine list against.
    pub fn panic_points(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.panics.iter().copied()
    }

    /// Every planned injected-error point, in `(tenant, arrival)` order.
    pub fn error_points(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        self.errors.iter().copied()
    }

    /// Tenants faulted by panic or injected error — the set a chaos test
    /// excludes when asserting healthy tenants are bit-identical.
    pub fn faulted_tenants(&self) -> BTreeSet<u32> {
        self.panics
            .iter()
            .chain(self.errors.iter())
            .map(|&(t, _)| t)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_plans_are_pure_functions_of_their_inputs() {
        let lens = [40, 0, 51, 62, 73];
        let a = FaultPlan::seeded(7, &lens, 3);
        let b = FaultPlan::seeded(7, &lens, 3);
        assert_eq!(
            a.panic_points().collect::<Vec<_>>(),
            b.panic_points().collect::<Vec<_>>()
        );
        assert_eq!(a.panic_points().count(), 3);
        for (t, i) in a.panic_points() {
            assert_ne!(t, 1, "traffic-less tenants are never faulted");
            assert!((i as usize) < lens[t as usize]);
        }
        // One fault per tenant.
        assert_eq!(a.faulted_tenants().len(), 3);
        // A different seed yields a different plan (with overwhelming
        // probability for this shape; pinned here as a regression canary).
        let c = FaultPlan::seeded(8, &lens, 3);
        assert_ne!(
            a.panic_points().collect::<Vec<_>>(),
            c.panic_points().collect::<Vec<_>>()
        );
    }

    #[test]
    fn empty_fleets_and_zero_requests_yield_empty_plans() {
        assert!(FaultPlan::seeded(1, &[], 4).is_empty());
        assert!(FaultPlan::seeded(1, &[0, 0], 4).is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn builders_register_and_queries_answer() {
        let plan = FaultPlan::new()
            .panic_at(2, 5)
            .error_at(1, 3)
            .stall_at(0, 1, Duration::from_millis(9))
            .stall_batch(4, Duration::from_millis(2));
        assert!(!plan.is_empty());
        assert!(plan.should_panic(2, 5));
        assert!(!plan.should_panic(2, 6));
        assert!(plan.should_error(1, 3));
        assert_eq!(plan.stall_for(0, 1), Some(Duration::from_millis(9)));
        assert_eq!(plan.stall_for(0, 2), None);
        assert_eq!(plan.batch_stall(4), Some(Duration::from_millis(2)));
        assert_eq!(plan.batch_stall(3), None);
        assert_eq!(
            plan.faulted_tenants().into_iter().collect::<Vec<_>>(),
            vec![1, 2]
        );
    }
}
