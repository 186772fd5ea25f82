//! Multi-tenant serve loop: many independent engine instances (tenants)
//! multiplexed over one [`omfl_par::TaskPool`].
//!
//! The paper's engines serve one request stream each; a provider runs
//! *many* such streams at once — one engine per tenant/region — and cares
//! about aggregate throughput, tail latency and live state visibility.
//! This crate is that serving layer:
//!
//! - **Ingest**: arrivals enter as `(tenant, request index)` pairs through
//!   a bounded [`ArrivalRing`] in micro-batches; a full ring blocks the
//!   producer (backpressure, with a bounded retry budget rather than an
//!   indefinite hang) and the blocking episodes are first-class bench
//!   output.
//! - **Sharding**: tenant `t` is owned by shard `t % shards`, forever.
//!   Shards run as tasks on a shared long-lived [`TaskPool`] (one
//!   [`TaskPool::run`] per micro-batch), so a fleet of servers can
//!   multiplex one pool; each shard serves its tenants' arrivals in batch
//!   order, preserving every tenant's stream order.
//! - **Snapshots**: after each micro-batch a shard publishes a cheap
//!   [`EngineSnapshot`] per touched tenant through a [`SnapshotHandle`],
//!   so metrics and bound checks read consistent state without ever
//!   taking an engine lock on the serve path.
//! - **Fault isolation**: each tenant serve runs under
//!   [`catch_unwind`](std::panic::catch_unwind). A panicking (or erroring,
//!   or verification-failing) tenant is **quarantined** — its remaining
//!   arrivals are skipped, its last snapshot is republished with
//!   [`valid`](EngineSnapshot::valid) cleared, and the fault is reported
//!   as a typed [`Quarantine`] in the [`ServeReport`] — while every
//!   healthy tenant continues bit-identically. Tenant mutexes are
//!   poison-recovering throughout: a reader asking for a poisoned
//!   tenant's handle gets [`ServeError::TenantPoisoned`], never a panic.
//! - **Determinism**: the deterministic [`ServeReport`] (per-tenant
//!   reports, healthy-tenant aggregates, digest) is bit-identical for a
//!   given arrival order at *any* shard count, thread count or
//!   micro-batch size, because per-tenant serve order is the canonical
//!   stream order regardless of how batches are cut. Wall-clock results
//!   (throughput, latency percentiles, backpressure, shed counts) live in
//!   the separate [`ServeTelemetry`] — the same split as the sweep
//!   harness's `SweepCell` vs `TimedCell`. Deadline shedding
//!   ([`ServeConfig::deadline`]) is wall-clock-driven and therefore
//!   *opt-in*: with it disabled (the default) results are deterministic;
//!   with it enabled, which arrivals are shed depends on machine speed.
//!
//! [`EngineSnapshot`]: omfl_core::algorithm::EngineSnapshot
//! [`TaskPool`]: omfl_par::TaskPool
//! [`TaskPool::run`]: omfl_par::TaskPool::run

pub mod fault;
pub mod histogram;
pub mod ring;
pub mod snapshot;

pub use fault::{quiet_injected_panics, FaultPlan, INJECTED_PANIC_MARKER};
pub use histogram::LatencyHistogram;
pub use ring::{Arrival, ArrivalRing, PushBudget, PushOutcome};
pub use snapshot::SnapshotHandle;

use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::CoreError;
use omfl_par::TaskPool;
use omfl_sim::{boxed_engine, ArrivalSource, Engine, SimReport, StreamingMetrics};
use omfl_workload::Scenario;
use std::collections::BTreeSet;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Errors from building or running a server.
#[derive(Debug)]
pub enum ServeError {
    /// An engine failed while serving or its solution failed verification;
    /// the tenant index says whose. (The serve loop itself quarantines
    /// such tenants instead of failing; this variant remains for callers
    /// that treat any quarantine as fatal.)
    Tenant(usize, CoreError),
    /// A tenant's mutex was poisoned by a panic that escaped containment —
    /// returned to readers instead of propagating the panic.
    TenantPoisoned {
        /// Which tenant's lock was poisoned.
        tenant: usize,
    },
    /// The engine kind cannot be constructed as a long-lived boxed tenant
    /// engine (the projected baselines borrow owned sub-instances).
    UnsupportedEngine(&'static str),
    /// More tenants than the `u32` arrival encoding can address.
    TooManyTenants(usize),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Tenant(t, e) => write!(f, "tenant {t}: {e}"),
            ServeError::TenantPoisoned { tenant } => {
                write!(f, "tenant {tenant}: mutex poisoned by an uncontained panic")
            }
            ServeError::UnsupportedEngine(name) => {
                write!(f, "engine {name} cannot run as a boxed tenant engine")
            }
            ServeError::TooManyTenants(n) => write!(f, "{n} tenants exceed u32 addressing"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Tenant(_, e) => Some(e),
            _ => None,
        }
    }
}

/// Why a tenant was quarantined. Stringly-typed payloads keep the reason
/// `Clone + Eq` (a `CoreError` is neither) — chaos tests compare reasons
/// structurally.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QuarantineReason {
    /// The tenant's serve panicked; the payload message is preserved.
    Panic {
        /// The panic payload, downcast to a string when possible.
        message: String,
    },
    /// The engine returned an error serving an arrival.
    EngineError {
        /// The rendered `CoreError`.
        error: String,
    },
    /// The finished solution failed post-run verification.
    VerifyFailed {
        /// The rendered verification error.
        error: String,
    },
    /// The tenant's mutex was found poisoned (a panic escaped containment
    /// somewhere); the state is untrusted even though no fault was seen.
    Poisoned,
}

/// One quarantined tenant: who, where in its stream, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantine {
    /// The quarantined tenant.
    pub tenant: usize,
    /// Per-tenant arrival index at which the fault fired — `None` when the
    /// fault was not tied to a single arrival (verification, poison).
    pub arrival: Option<u32>,
    /// The typed reason.
    pub reason: QuarantineReason,
}

/// Serve-loop knobs. The defaults suit tests; benches size them
/// explicitly.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Shard count (clamped to ≥ 1). Tenant `t` is owned by shard
    /// `t % shards`; more shards than tenants leaves some idle.
    pub shards: usize,
    /// Arrivals per micro-batch drained from the ring (clamped to ≥ 1).
    /// Also the snapshot-publication granularity.
    pub micro_batch: usize,
    /// Ring capacity — the backpressure bound on ingest runahead.
    pub queue_capacity: usize,
    /// Per-tenant serve-time budget *per micro-batch*: once a tenant has
    /// spent this much wall-clock serving inside one micro-batch, its
    /// remaining arrivals in that batch are shed (skipped, counted in
    /// [`ServeTelemetry::shed`]) so one slow tenant cannot hold a shard —
    /// and every tenant behind it — hostage. `None` (the default)
    /// disables shedding; **results are only deterministic when it is
    /// off**, because which arrivals exceed a wall-clock budget depends
    /// on machine speed.
    pub deadline: Option<Duration>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            micro_batch: 64,
            queue_capacity: 1024,
            deadline: None,
        }
    }
}

/// The deterministic outcome of one serve run: per-tenant reports in
/// tenant order, aggregates and a digest over the *healthy* (never
/// quarantined) tenants, and the typed quarantine list. Bit-identical
/// across shard counts, thread counts and micro-batch sizes for a fixed
/// arrival order and fault plan — the CI gate compares `digest` across
/// configurations, and the chaos gate compares a faulted run's `digest`
/// against a clean run's [`digest_over`](Self::digest_over) the same
/// healthy subset.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeReport {
    /// Engine kind every tenant ran.
    pub engine: &'static str,
    /// One report per tenant, in tenant order — a quarantined tenant's
    /// report is frozen at its pre-fault state (and its solution is
    /// unverified; trust nothing past the fault).
    pub tenants: Vec<SimReport>,
    /// Tenants quarantined during the run, in tenant order.
    pub quarantined: Vec<Quarantine>,
    /// Total arrivals served across *healthy* tenants.
    pub arrivals: usize,
    /// Aggregate construction + connection cost over healthy tenants.
    pub total_cost: f64,
    /// Aggregate construction part (healthy tenants).
    pub construction_cost: f64,
    /// Aggregate connection part (healthy tenants).
    pub connection_cost: f64,
    /// Facilities opened across healthy tenants.
    pub facilities: usize,
    /// Large facilities among them.
    pub large_facilities: usize,
    /// FNV-1a fold of every deterministic per-tenant field (costs as exact
    /// bit patterns) over the healthy tenants, for cheap
    /// cross-configuration identity checks.
    pub digest: u64,
}

/// Wall-clock measurements of one serve run — deliberately outside
/// [`ServeReport`] so determinism checks never compare timings.
#[derive(Debug, Clone)]
pub struct ServeTelemetry {
    /// End-to-end wall time of the serve loop.
    pub wall_secs: f64,
    /// Aggregate arrivals per second (`arrivals / wall_secs`).
    pub arrivals_per_sec: f64,
    /// Median per-arrival serve latency (log2-bucket upper bound, ns).
    pub latency_p50_ns: u64,
    /// 99th-percentile per-arrival serve latency (ns).
    pub latency_p99_ns: u64,
    /// Producer blocking episodes on the full ring.
    pub backpressure_waits: u64,
    /// `true` if the producer's bounded retry budget ran out and ingest
    /// abandoned the tail of the stream (a wedged consumer; the served
    /// prefix is still reported faithfully).
    pub ingest_gave_up: bool,
    /// Arrivals shed per tenant by the micro-batch deadline
    /// ([`ServeConfig::deadline`]); all zero when shedding is off.
    pub shed: Vec<u64>,
    /// Shards the run used.
    pub shards: usize,
    /// Worker threads in the pool it ran on (plus the caller).
    pub pool_threads: usize,
}

struct TenantState<'a> {
    scenario: &'a Scenario,
    engine: Box<dyn OnlineAlgorithm + Send + 'a>,
    metrics: StreamingMetrics,
    histogram: LatencyHistogram,
    handle: SnapshotHandle,
    quarantine: Option<Quarantine>,
    shed: u64,
    /// Micro-batch the deadline accounting below refers to; lazily reset
    /// when a batch first touches the tenant.
    batch_epoch: u64,
    /// Serve time this tenant has spent inside `batch_epoch`.
    batch_spent: Duration,
}

impl TenantState<'_> {
    /// Quarantines the tenant (first fault wins) and freezes its published
    /// snapshot: readers keep the last good numbers, flagged invalid.
    fn quarantine(&mut self, q: Quarantine) {
        if self.quarantine.is_none() {
            self.quarantine = Some(q);
            self.handle.publish(self.handle.read().invalidated());
        }
    }
}

/// Locks a tenant, recovering from poison. The boolean reports whether the
/// lock *was* poisoned — the serve path turns that into a
/// [`QuarantineReason::Poisoned`] quarantine, readers into
/// [`ServeError::TenantPoisoned`]; nobody panics on it. Recovery is sound
/// because every engine mutation on the serve path runs under
/// `catch_unwind` *inside* the guard: a panic is contained before
/// unwinding can poison the mutex, so a poisoned lock means some
/// non-serve-path panic and the state is quarantined rather than trusted.
fn lock_tenant<'t, 'a>(
    tenant: &'t Mutex<TenantState<'a>>,
) -> (MutexGuard<'t, TenantState<'a>>, bool) {
    match tenant.lock() {
        Ok(guard) => (guard, false),
        Err(poisoned) => (poisoned.into_inner(), true),
    }
}

/// Best-effort string form of a panic payload (`&str` and `String`
/// payloads; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A multi-tenant server: one long-lived engine per scenario, sharded over
/// a task pool. Build with [`Server::new`], grab [`SnapshotHandle`]s, then
/// [`Server::serve`] a canonical arrival stream to completion.
pub struct Server<'a> {
    engine_kind: Engine,
    tenants: Vec<Mutex<TenantState<'a>>>,
}

impl<'a> Server<'a> {
    /// Builds one boxed engine per scenario. Fails for engine kinds that
    /// cannot live as boxed tenants (see [`ServeError::UnsupportedEngine`]).
    pub fn new(scenarios: &'a [Scenario], engine: Engine) -> Result<Self, ServeError> {
        if scenarios.len() > u32::MAX as usize {
            return Err(ServeError::TooManyTenants(scenarios.len()));
        }
        let tenants = scenarios
            .iter()
            .map(|scenario| {
                let boxed = boxed_engine(scenario, engine)
                    .ok_or(ServeError::UnsupportedEngine(engine.name()))?;
                Ok(Mutex::new(TenantState {
                    scenario,
                    engine: boxed,
                    metrics: StreamingMetrics::with_capacity(scenario.requests.len()),
                    histogram: LatencyHistogram::new(),
                    handle: SnapshotHandle::new(),
                    quarantine: None,
                    shed: 0,
                    batch_epoch: 0,
                    batch_spent: Duration::ZERO,
                }))
            })
            .collect::<Result<Vec<_>, ServeError>>()?;
        Ok(Self {
            engine_kind: engine,
            tenants,
        })
    }

    /// Tenants multiplexed by this server.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The snapshot handle for one tenant. Handles are cheap clones of a
    /// shared slot: take them before serving and read them from any thread
    /// while the run is in flight (or after — they keep the final state).
    ///
    /// Returns [`ServeError::TenantPoisoned`] — instead of panicking — if
    /// the tenant's mutex was poisoned by an uncontained panic.
    pub fn snapshot_handle(&self, tenant: usize) -> Result<SnapshotHandle, ServeError> {
        let (state, poisoned) = lock_tenant(&self.tenants[tenant]);
        if poisoned {
            return Err(ServeError::TenantPoisoned { tenant });
        }
        Ok(state.handle.clone())
    }

    /// Runs the serve loop to completion over a canonical arrival stream,
    /// consuming the server (engines finish into reports).
    ///
    /// A producer thread feeds the ring from `source` in micro-batches;
    /// the calling thread drains micro-batches and dispatches each across
    /// shards via `pool.run`. An arrival `(t, i)` must satisfy
    /// `t < num_tenants()` and index a request of tenant `t`'s scenario in
    /// ascending per-tenant order — [`ArrivalSource`] guarantees this.
    ///
    /// Tenant faults (panics, engine errors, verification failures) do
    /// not fail the run: the faulted tenant is quarantined and reported in
    /// [`ServeReport::quarantined`] while healthy tenants finish
    /// bit-identically to a run without the fault.
    pub fn serve(
        self,
        source: &ArrivalSource,
        cfg: &ServeConfig,
        pool: &TaskPool,
    ) -> Result<(ServeReport, ServeTelemetry), ServeError> {
        self.serve_with_faults(source, cfg, pool, &FaultPlan::default())
    }

    /// [`serve`](Self::serve) under a deterministic [`FaultPlan`] — the
    /// chaos harness's entry point. An empty plan makes this identical to
    /// `serve`; injected panics/errors quarantine their tenant exactly as
    /// real ones would, injected stalls exercise deadline shedding, and
    /// consumer batch stalls force ring-full backpressure.
    pub fn serve_with_faults(
        self,
        source: &ArrivalSource,
        cfg: &ServeConfig,
        pool: &TaskPool,
        faults: &FaultPlan,
    ) -> Result<(ServeReport, ServeTelemetry), ServeError> {
        let shards = cfg.shards.max(1);
        let micro_batch = cfg.micro_batch.max(1);
        let deadline = cfg.deadline;
        let ring = ArrivalRing::new(cfg.queue_capacity);
        let tenants = &self.tenants;
        let ingest_gave_up = AtomicBool::new(false);

        let started = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let budget = PushBudget::default();
                for chunk in source.order().chunks(micro_batch) {
                    let out = ring.push_batch_bounded(chunk, &budget);
                    if out.gave_up {
                        ingest_gave_up.store(true, Ordering::Relaxed);
                        return; // wedged consumer; the enqueued prefix drains
                    }
                    if out.pushed < chunk.len() {
                        return; // consumer closed the ring early
                    }
                }
                ring.close();
            });

            let mut batch: Vec<Arrival> = Vec::with_capacity(micro_batch);
            let mut batch_no = 0u64;
            while ring.drain_into(&mut batch, micro_batch) {
                if let Some(stall) = faults.batch_stall(batch_no) {
                    std::thread::sleep(stall); // let the producer fill the ring
                }
                let this_batch = batch_no;
                batch_no += 1;
                let ran = pool.run(shards, |s| {
                    let mut touched = [0u64; 4]; // bitmap for up to 256 tenants
                    for &(t32, i) in batch.iter() {
                        let t = t32 as usize;
                        if t % shards != s {
                            continue;
                        }
                        let (mut tenant, poisoned) = lock_tenant(&tenants[t]);
                        if poisoned {
                            tenant.quarantine(Quarantine {
                                tenant: t,
                                arrival: None,
                                reason: QuarantineReason::Poisoned,
                            });
                        }
                        if tenant.quarantine.is_some() {
                            continue;
                        }
                        if let Some(budget) = deadline {
                            if tenant.batch_epoch != this_batch {
                                tenant.batch_epoch = this_batch;
                                tenant.batch_spent = Duration::ZERO;
                            } else if tenant.batch_spent >= budget {
                                tenant.shed += 1;
                                continue;
                            }
                        }
                        let scenario = tenant.scenario;
                        let request = &scenario.requests[i as usize];
                        let stall = faults.stall_for(t32, i);
                        let inject_panic = faults.should_panic(t32, i);
                        let inject_error = faults.should_error(t32, i);
                        let t0 = Instant::now();
                        // The catch_unwind sits *inside* the held guard, so
                        // a panicking engine never poisons the tenant mutex:
                        // containment, not recovery, is the first line.
                        let served = catch_unwind(AssertUnwindSafe(|| {
                            if let Some(d) = stall {
                                std::thread::sleep(d);
                            }
                            if inject_panic {
                                panic!("{INJECTED_PANIC_MARKER}: tenant {t} arrival {i}");
                            }
                            if inject_error {
                                return Err(CoreError::BadRequest(format!(
                                    "{INJECTED_PANIC_MARKER}: tenant {t} arrival {i}"
                                )));
                            }
                            tenant.engine.serve(request)
                        }));
                        match served {
                            Ok(Ok(out)) => {
                                let spent = t0.elapsed();
                                let total = tenant.engine.solution().total_cost();
                                tenant.histogram.record(spent.as_nanos() as u64);
                                tenant.metrics.observe(&out, total);
                                if deadline.is_some() {
                                    tenant.batch_spent += spent;
                                }
                                if let Some(w) = touched.get_mut(t / 64) {
                                    *w |= 1 << (t % 64);
                                } else {
                                    let snap = tenant.engine.snapshot();
                                    tenant.handle.publish(snap);
                                }
                            }
                            Ok(Err(e)) => tenant.quarantine(Quarantine {
                                tenant: t,
                                arrival: Some(i),
                                reason: QuarantineReason::EngineError {
                                    error: e.to_string(),
                                },
                            }),
                            Err(payload) => tenant.quarantine(Quarantine {
                                tenant: t,
                                arrival: Some(i),
                                reason: QuarantineReason::Panic {
                                    message: panic_message(&*payload),
                                },
                            }),
                        }
                    }
                    // Publish once per touched tenant per micro-batch, not
                    // per arrival — snapshot freshness is batch-granular. A
                    // tenant quarantined later in the same batch keeps its
                    // frozen invalid snapshot instead.
                    for (w, &bits) in touched.iter().enumerate() {
                        let mut bits = bits;
                        while bits != 0 {
                            let t = w * 64 + bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let (tenant, _) = lock_tenant(&tenants[t]);
                            if tenant.quarantine.is_none() {
                                let snap = tenant.engine.snapshot();
                                tenant.handle.publish(snap);
                            }
                        }
                    }
                });
                if let Err(e) = ran {
                    // Tenant panics are contained above; a panic escaping
                    // the shard closure itself is a serve-layer bug.
                    panic!("serve shard panicked outside tenant containment: {e}");
                }
                batch.clear();
                if !tenants.is_empty()
                    && tenants
                        .iter()
                        .all(|t| lock_tenant(t).0.quarantine.is_some())
                {
                    // Every tenant is quarantined: nothing left to serve.
                    // Unblock the producer; it gives up and the remaining
                    // queued arrivals drain as no-ops.
                    ring.close();
                }
            }
        });
        let wall_secs = started.elapsed().as_secs_f64();
        let (_, backpressure_waits) = ring.stats();

        let mut reports = Vec::with_capacity(self.tenants.len());
        let mut quarantined = Vec::new();
        let mut shed = Vec::with_capacity(self.tenants.len());
        let mut latency = LatencyHistogram::new();
        for (t, tenant) in self.tenants.into_iter().enumerate() {
            let mut state = match tenant.into_inner() {
                Ok(state) => state,
                Err(poisoned) => {
                    let mut state = poisoned.into_inner();
                    state.quarantine(Quarantine {
                        tenant: t,
                        arrival: None,
                        reason: QuarantineReason::Poisoned,
                    });
                    state
                }
            };
            shed.push(state.shed);
            if state.quarantine.is_none() {
                if let Err(e) = state.engine.solution().verify(state.scenario.instance()) {
                    state.quarantine(Quarantine {
                        tenant: t,
                        arrival: None,
                        reason: QuarantineReason::VerifyFailed {
                            error: e.to_string(),
                        },
                    });
                }
            }
            match state.quarantine.take() {
                Some(q) => quarantined.push(q),
                None => latency.merge(&state.histogram),
            }
            reports.push(state.metrics.finish(
                self.engine_kind,
                state.scenario,
                state.engine.solution(),
            ));
        }

        let report = ServeReport::from_tenants(self.engine_kind.name(), reports, quarantined);
        let telemetry = ServeTelemetry {
            wall_secs,
            arrivals_per_sec: report.arrivals as f64 / wall_secs.max(1e-12),
            latency_p50_ns: latency.p50_ns(),
            latency_p99_ns: latency.p99_ns(),
            backpressure_waits,
            ingest_gave_up: ingest_gave_up.load(Ordering::Relaxed),
            shed,
            shards,
            pool_threads: pool.threads(),
        };
        Ok((report, telemetry))
    }
}

impl ServeReport {
    /// Aggregates per-tenant reports in tenant order (the only order that
    /// makes float accumulation reproducible), folding only the healthy
    /// tenants into the aggregates and the digest.
    fn from_tenants(
        engine: &'static str,
        tenants: Vec<SimReport>,
        quarantined: Vec<Quarantine>,
    ) -> Self {
        let bad: BTreeSet<usize> = quarantined.iter().map(|q| q.tenant).collect();
        let mut report = ServeReport {
            engine,
            arrivals: 0,
            total_cost: 0.0,
            construction_cost: 0.0,
            connection_cost: 0.0,
            facilities: 0,
            large_facilities: 0,
            digest: 0,
            quarantined,
            tenants,
        };
        for (t, rep) in report.tenants.iter().enumerate() {
            if bad.contains(&t) {
                continue;
            }
            report.arrivals += rep.requests;
            report.total_cost += rep.total_cost;
            report.construction_cost += rep.construction_cost;
            report.connection_cost += rep.connection_cost;
            report.facilities += rep.facilities;
            report.large_facilities += rep.large_facilities;
        }
        report.digest = report.digest_over(|t| !bad.contains(&t));
        report
    }

    /// Whether `tenant` was quarantined during the run.
    pub fn is_quarantined(&self, tenant: usize) -> bool {
        self.quarantined.iter().any(|q| q.tenant == tenant)
    }

    /// The FNV-1a digest over the subset of tenants selected by `include`
    /// (by tenant index). `digest` is exactly
    /// `digest_over(|t| !is_quarantined(t))`; a chaos test compares a
    /// faulted run's `digest` against a *clean* run's `digest_over` of the
    /// same healthy subset to prove healthy tenants were bit-identical.
    /// Tenant indices and the subset size are folded in, so different
    /// subsets never collide trivially.
    pub fn digest_over(&self, include: impl Fn(usize) -> bool) -> u64 {
        const OFFSET: u64 = 0xcbf29ce484222325;
        const PRIME: u64 = 0x100000001b3;
        let mut h = OFFSET;
        let mut mix = |x: u64| h = (h ^ x).wrapping_mul(PRIME);
        mix(self
            .tenants
            .iter()
            .enumerate()
            .filter(|(t, _)| include(*t))
            .count() as u64);
        for (idx, t) in self.tenants.iter().enumerate() {
            if !include(idx) {
                continue;
            }
            mix(idx as u64);
            mix(t.requests as u64);
            mix(t.facilities as u64);
            mix(t.large_facilities as u64);
            mix(t.large_serves as u64);
            mix(t.total_cost.to_bits());
            mix(t.construction_cost.to_bits());
            mix(t.connection_cost.to_bits());
            mix(t.latency.mean.to_bits());
            mix(t.latency.p50.to_bits());
            mix(t.latency.p95.to_bits());
            mix(t.latency.max.to_bits());
            for &c in &t.cost_over_time {
                mix(c.to_bits());
            }
        }
        h
    }
}
