//! Chaos acceptance: deterministic fault injection against the serve
//! layer. A tenant that panics, errors or fails verification is
//! quarantined with a typed reason and the arrival index that faulted;
//! every *healthy* tenant must finish bit-identically to a run without
//! the fault, at shard/thread configurations 1/2/7/16 — the same
//! determinism gate the clean serve suite enforces, now under fire.

use omfl_par::TaskPool;
use omfl_serve::{
    quiet_injected_panics, FaultPlan, QuarantineReason, ServeConfig, ServeReport, Server,
    INJECTED_PANIC_MARKER,
};
use omfl_sim::{build_scenario, ArrivalSource, Engine, SimConfig};
use omfl_workload::Scenario;
use std::time::Duration;

/// The shard/thread sweep every chaos assertion runs under.
const CONFIGS: [usize; 4] = [1, 2, 7, 16];

/// A small fleet of distinct tenant scenarios (different seeds and sizes).
fn tenant_fleet(n: usize) -> Vec<Scenario> {
    (0..n)
        .map(|t| {
            build_scenario(&SimConfig {
                nodes: 20 + 3 * t,
                extra_edges: 10,
                requests: 40 + 11 * t,
                seed: 1000 + t as u64,
                ..SimConfig::default()
            })
            .expect("scenario builds")
        })
        .collect()
}

fn lens(scenarios: &[Scenario]) -> Vec<usize> {
    scenarios.iter().map(|s| s.requests.len()).collect()
}

fn serve_faulted(
    scenarios: &[Scenario],
    source: &ArrivalSource,
    shards: usize,
    threads: usize,
    cfg_extra: &ServeConfig,
    plan: &FaultPlan,
) -> ServeReport {
    let pool = TaskPool::new(threads);
    let server = Server::new(scenarios, Engine::Pd).expect("pd tenants build");
    let cfg = ServeConfig {
        shards,
        ..cfg_extra.clone()
    };
    let (report, _telemetry) = server
        .serve_with_faults(source, &cfg, &pool, plan)
        .expect("serve survives injected faults");
    report
}

fn clean_baseline(scenarios: &[Scenario], source: &ArrivalSource) -> ServeReport {
    serve_faulted(
        scenarios,
        source,
        4,
        4,
        &ServeConfig::default(),
        &FaultPlan::default(),
    )
}

/// The tentpole gate: one tenant panics mid-stream; it is quarantined with
/// the exact fault coordinates, and at every shard/thread configuration
/// the healthy tenants' reports and digest are bit-identical to the clean
/// run restricted to the same subset.
#[test]
fn a_panicking_tenant_is_quarantined_and_healthy_tenants_are_bit_identical() {
    quiet_injected_panics();
    let scenarios = tenant_fleet(5);
    let source = ArrivalSource::round_robin(&lens(&scenarios));
    let clean = clean_baseline(&scenarios, &source);
    assert!(clean.quarantined.is_empty());

    let victim = 2u32;
    let fault_arrival = 13u32;
    let plan = FaultPlan::new().panic_at(victim, fault_arrival);
    for &(shards, threads) in &[(1, 1), (2, 2), (7, 7), (16, 16), (3, 16), (16, 2)] {
        let report = serve_faulted(
            &scenarios,
            &source,
            shards,
            threads,
            &ServeConfig::default(),
            &plan,
        );
        // The quarantine is typed and names the fault point.
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!(q.tenant, victim as usize);
        assert_eq!(q.arrival, Some(fault_arrival));
        match &q.reason {
            QuarantineReason::Panic { message } => {
                assert!(
                    message.contains(INJECTED_PANIC_MARKER),
                    "panic payload preserved: {message}"
                );
            }
            other => panic!("expected a Panic reason, got {other:?}"),
        }
        assert!(report.is_quarantined(victim as usize));
        // The victim froze exactly at the fault: arrivals before the
        // panicking one were served, nothing after.
        assert_eq!(
            report.tenants[victim as usize].requests,
            fault_arrival as usize
        );
        // Healthy tenants are bit-identical to the clean run, per tenant
        // and in digest over the same subset.
        for (t, rep) in report.tenants.iter().enumerate() {
            if t != victim as usize {
                assert_eq!(
                    rep, &clean.tenants[t],
                    "healthy tenant {t} diverged at shards={shards} threads={threads}"
                );
            }
        }
        assert_eq!(
            report.digest,
            clean.digest_over(|t| t != victim as usize),
            "healthy-subset digest diverged at shards={shards} threads={threads}"
        );
    }
}

/// A seeded multi-fault plan behaves the same way: every planned tenant
/// quarantined at its planned arrival, everyone else untouched — and the
/// faulted runs agree with each other across configurations.
#[test]
fn seeded_fault_plans_quarantine_exactly_the_planned_tenants() {
    quiet_injected_panics();
    let scenarios = tenant_fleet(6);
    let ls = lens(&scenarios);
    let source = ArrivalSource::round_robin(&ls);
    let clean = clean_baseline(&scenarios, &source);

    let plan = FaultPlan::seeded(0xC4A05, &ls, 2);
    let planned: Vec<(u32, u32)> = plan.panic_points().collect();
    assert_eq!(planned.len(), 2);

    let mut reports = Vec::new();
    for &n in &CONFIGS {
        let report = serve_faulted(&scenarios, &source, n, n, &ServeConfig::default(), &plan);
        let seen: Vec<(u32, u32)> = report
            .quarantined
            .iter()
            .map(|q| {
                (
                    q.tenant as u32,
                    q.arrival.expect("panic faults carry an arrival"),
                )
            })
            .collect();
        assert_eq!(seen, planned);
        assert_eq!(
            report.digest,
            clean.digest_over(|t| !planned.iter().any(|&(pt, _)| pt as usize == t))
        );
        reports.push(report);
    }
    // Faulted runs are deterministic across shard/thread configurations.
    assert!(reports.windows(2).all(|w| w[0] == w[1]));
}

/// The non-unwinding fault path: an injected engine error quarantines with
/// an `EngineError` reason and the same healthy-tenant guarantees.
#[test]
fn an_injected_engine_error_quarantines_without_a_panic() {
    quiet_injected_panics();
    let scenarios = tenant_fleet(4);
    let source = ArrivalSource::round_robin(&lens(&scenarios));
    let clean = clean_baseline(&scenarios, &source);

    let plan = FaultPlan::new().error_at(0, 7);
    for &n in &CONFIGS {
        let report = serve_faulted(&scenarios, &source, n, n, &ServeConfig::default(), &plan);
        assert_eq!(report.quarantined.len(), 1);
        let q = &report.quarantined[0];
        assert_eq!((q.tenant, q.arrival), (0, Some(7)));
        match &q.reason {
            QuarantineReason::EngineError { error } => {
                assert!(error.contains(INJECTED_PANIC_MARKER), "{error}");
            }
            other => panic!("expected EngineError, got {other:?}"),
        }
        assert_eq!(report.digest, clean.digest_over(|t| t != 0));
    }
}

/// Quarantine is visible through snapshot handles: the victim's snapshot
/// freezes at its pre-fault state with `valid` cleared, while healthy
/// tenants' final snapshots stay valid with their full arrival counts.
#[test]
fn quarantined_snapshots_are_invalidated_and_healthy_ones_stay_valid() {
    quiet_injected_panics();
    let scenarios = tenant_fleet(3);
    let ls = lens(&scenarios);
    let source = ArrivalSource::round_robin(&ls);
    let victim = 1u32;
    let plan = FaultPlan::new().panic_at(victim, 20);

    let pool = TaskPool::new(4);
    let server = Server::new(&scenarios, Engine::Pd).expect("pd tenants build");
    let handles: Vec<_> = (0..scenarios.len())
        .map(|t| server.snapshot_handle(t).expect("tenant not poisoned"))
        .collect();
    let (report, _) = server
        .serve_with_faults(&source, &ServeConfig::default(), &pool, &plan)
        .expect("serve survives the fault");
    assert_eq!(report.quarantined.len(), 1);

    for (t, handle) in handles.iter().enumerate() {
        let snap = handle.read();
        if t == victim as usize {
            assert!(!snap.valid, "the victim's snapshot must be flagged invalid");
            assert!(
                snap.arrivals <= 20,
                "the frozen snapshot cannot be past the fault point"
            );
        } else {
            assert!(snap.valid);
            assert_eq!(snap.arrivals, ls[t]);
        }
    }
}

/// Deadline shedding: a tenant stalled well past the per-batch budget
/// sheds its remaining arrivals in each batch — and only that tenant does.
/// Shed counts are wall-clock telemetry, so the assertion is directional
/// (the stalled tenant sheds, the fast ones do not), not exact.
#[test]
fn deadlines_shed_only_the_slow_tenant() {
    quiet_injected_panics();
    let scenarios = tenant_fleet(3);
    let ls = lens(&scenarios);
    let source = ArrivalSource::round_robin(&ls);
    let slow = 0u32;
    // Stall the slow tenant's first arrival of several micro-batches far
    // past the budget; with round-robin interleaving each micro-batch
    // holds multiple arrivals per tenant, so there is always something
    // left to shed after the stall burns the budget.
    let mut plan = FaultPlan::new();
    for batch_first in [0u32, 3, 6, 9] {
        plan = plan.stall_at(slow, batch_first, Duration::from_millis(30));
    }
    let cfg = ServeConfig {
        micro_batch: 9, // three arrivals per tenant per batch
        deadline: Some(Duration::from_millis(5)),
        ..ServeConfig::default()
    };

    let pool = TaskPool::new(2);
    let server = Server::new(&scenarios, Engine::Pd).expect("pd tenants build");
    let (report, telemetry) = server
        .serve_with_faults(&source, &cfg, &pool, &plan)
        .expect("serve succeeds");
    assert!(report.quarantined.is_empty(), "stalls are not faults");
    assert!(
        telemetry.shed[slow as usize] > 0,
        "the stalled tenant must shed past the deadline (shed = {:?})",
        telemetry.shed
    );
    for t in 1..scenarios.len() {
        assert_eq!(telemetry.shed[t], 0, "fast tenants must not shed");
    }
    // Shed arrivals are skipped, not served late.
    assert!(report.tenants[slow as usize].requests < ls[slow as usize]);
    assert_eq!(
        report.tenants[slow as usize].requests as u64 + telemetry.shed[slow as usize],
        ls[slow as usize] as u64,
        "every arrival of the slow tenant is either served or counted shed"
    );
}

/// Forced ring-full episodes: a consumer stall against a tiny ring drives
/// producer backpressure (and with the bounded push, *not* a deadlock),
/// while the report stays bit-identical to an unstalled run.
#[test]
fn forced_ring_full_episodes_change_telemetry_but_not_results() {
    quiet_injected_panics();
    let scenarios = tenant_fleet(3);
    let source = ArrivalSource::round_robin(&lens(&scenarios));
    let clean = clean_baseline(&scenarios, &source);

    let cfg = ServeConfig {
        micro_batch: 8,
        queue_capacity: 8,
        ..ServeConfig::default()
    };
    let plan = FaultPlan::new()
        .stall_batch(0, Duration::from_millis(20))
        .stall_batch(2, Duration::from_millis(20));
    let pool = TaskPool::new(4);
    let server = Server::new(&scenarios, Engine::Pd).expect("pd tenants build");
    let (report, telemetry) = server
        .serve_with_faults(&source, &cfg, &pool, &plan)
        .expect("serve succeeds");
    assert!(
        telemetry.backpressure_waits > 0,
        "a stalled consumer on a tiny ring must block the producer"
    );
    assert!(
        !telemetry.ingest_gave_up,
        "the default budget outlasts 20 ms"
    );
    assert!(report.quarantined.is_empty());
    assert_eq!(report, clean, "backpressure must never change results");
}

/// Every tenant faulted: the run still terminates (the ring closes early
/// instead of serving a stream nobody wants) and reports all quarantines.
#[test]
fn an_entirely_quarantined_fleet_still_terminates_cleanly() {
    quiet_injected_panics();
    let scenarios = tenant_fleet(3);
    let source = ArrivalSource::round_robin(&lens(&scenarios));
    let plan = FaultPlan::new()
        .panic_at(0, 0)
        .panic_at(1, 0)
        .panic_at(2, 0);
    for &n in &CONFIGS {
        let report = serve_faulted(&scenarios, &source, n, n, &ServeConfig::default(), &plan);
        assert_eq!(report.quarantined.len(), 3);
        assert_eq!(report.arrivals, 0, "no healthy tenant, no healthy arrivals");
        assert!(report.tenants.iter().all(|t| t.requests == 0));
    }
}
