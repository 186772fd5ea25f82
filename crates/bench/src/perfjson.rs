//! The `--emit-json` perf-regression path: machine-readable benchmark
//! baselines in the four `BENCH_*.json` files.
//!
//! The ROADMAP's "measurably faster" PRs need numbers to beat; this module
//! produces them:
//!
//! * **`BENCH_pd.json`** — the PD serve hot path in four cells, each
//!   timing `PdOmflp` against the retained linear-scan reference
//!   `omfl_core::naive::NaivePd`: the `zipf-services` cell (what the index
//!   layer buys at small |M|), the `large` cell (`zipf-services-large` at
//!   |M| = 4096 — the t3/t4 argmin index and the blocked row cache at
//!   large metrics), the `euclid-large` cell (`euclid-grid-large` at
//!   |M| = 16384 — where distance-aware block pruning and the bulk
//!   Euclidean `fill_row` carry the speedup) and the `huge` cell
//!   (`euclid-grid-large` at |M| = 1048576 — kd-ball ingest, 64-point
//!   blocks, the block-pruned shrink walk, kd-bounded partial row fills
//!   and the sharded + f32-screened freeze walk). The large cells also
//!   record their deterministic `block_skip_rate`;
//! * **`BENCH_sweep.json`** — per (engine × family) serve wall-clock
//!   (mean/std/min/max over trials) for the whole catalog, cells timed
//!   one at a time;
//! * **`BENCH_serve.json`** — the multi-tenant serve loop (`omfl_serve`):
//!   the machine-independent `digest_match` determinism cell (aggregate
//!   reports bit-identical across shard/thread configs
//!   [`SERVE_DETERMINISM_CONFIGS`], hard-gated at 1.0), the faulted panel
//!   (`faulted.quarantined` exact, `faulted.digest_match` at 1.0), the
//!   `arrivals_per_sec` throughput cell (gated as a ratio against the
//!   committed baseline, dev-box target ≥ 1M/s aggregate), and
//!   informational p50/p99 latency and backpressure telemetry;
//! * **`BENCH_opt.json`** — certified exact optima at |M| = 200: exact
//!   `nodes_expanded` and `gap_certified`, `digest_match` at 1.0, and
//!   ratio-gated solve seconds.
//!
//! The committed files at the repo root are the baseline; CI re-runs the
//! smoke profile and [`check`]s the fresh numbers against them: missing
//! keys and non-finite numbers fail, and every committed number is judged
//! by the rows of the `GATES` table behind [`check`] — exact equality for
//! deterministic counters, floors for the speedups ([`MIN_PD_SPEEDUP`],
//! [`MIN_LARGE_PD_SPEEDUP`], [`MIN_EUCLID_LARGE_PD_SPEEDUP`],
//! [`MIN_HUGE_PD_SPEEDUP`]), skip rates and determinism flags, and
//! [`REGRESSION_FACTOR`] for wall-clock cells whose baseline is at least
//! [`MIN_GATED_SECS`]. Wall-clock comparisons across machines are
//! inherently noisy — hence the sub-millisecond exemption and the emphasis
//! on the machine-independent *ratios*; the recorded `std` per summary is
//! what justified tightening the factor to 1.5×.
//!
//! JSON is written and parsed by hand (the workspace vendors no serde).
//! Each file is built as a [`Cell`] — an ordered list of `(key, value)`
//! pairs whose numbers carry the precision their gate reads — and one
//! [`render`] writes them all. The parser below reads that shape back as
//! flattened dotted keys (`large.incremental_secs.mean` is three levels).

use omfl_baselines::offline::ExactSolver;
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::naive::NaivePd;
use omfl_core::pd::PdOmflp;
use omfl_core::CoreError;
use omfl_par::{summarize, Summary, TaskPool};
use omfl_serve::{FaultPlan, ServeConfig, ServeError, Server};
use omfl_sim::sweep::timed_sweep;
use omfl_sim::{ArrivalSource, Engine};
use omfl_workload::catalog::{self, CatalogProfile};
use omfl_workload::Scenario;
use std::collections::BTreeMap;
use std::time::Instant;

/// Fresh `secs.mean` may be at most this factor above the committed
/// baseline before the check fails. Applies only to cells whose baseline is
/// at least [`MIN_GATED_SECS`]; with the recorded `std` showing
/// millisecond-scale cells jitter well under 50% between runs, the factor
/// sits at 1.5 (down from the initial 2.0).
pub const REGRESSION_FACTOR: f64 = 1.5;

/// Absolute-seconds regression gating only applies to keys whose committed
/// baseline is at least this long. Sub-millisecond cells (the per-family
/// sweep timings) jitter far beyond 2× between a dev box and a shared CI
/// runner — for those the check verifies key presence and reports the ratio
/// as a note instead of failing the job; the machine-independent `speedup`
/// ratio and the millisecond-scale PD/sweep-wall means stay hard-gated.
pub const MIN_GATED_SECS: f64 = 1e-3;

/// The indexed-vs-naive PD speedup must stay at least this high. The
/// acceptance bar when the index landed was 3×; CI machines are slower and
/// noisier than the dev box, so the hard floor leaves headroom.
pub const MIN_PD_SPEEDUP: f64 = 2.0;

/// Floor on the `large.speedup` cell: `PdOmflp` over [`NaivePd`] on
/// `zipf-services-large` at |M| = 4096. The committed baseline measured
/// 7.84× on a 2-core box; the floor keeps the 0.646 share of its baseline
/// that the retired incremental-vs-full-scan floor (2.5× of 3.87×) had,
/// so it absorbs runner variance without being any looser.
pub const MIN_LARGE_PD_SPEEDUP: f64 = 5.1;

/// Floor on the `euclid-large.speedup` cell: `PdOmflp` over [`NaivePd`]
/// on `euclid-grid-large` at |M| = 16384. Baseline 6.73× on a 2-core box;
/// the floor keeps the retired full-scan floor's 0.590 share (2.0× of
/// 3.39×), same policy as [`MIN_LARGE_PD_SPEEDUP`].
pub const MIN_EUCLID_LARGE_PD_SPEEDUP: f64 = 4.0;

/// Floor on the `huge.speedup` cell: `PdOmflp` over [`NaivePd`] on
/// `euclid-grid-large` at |M| = 1048576, 1024 arrivals. `NaivePd` pays a
/// full 1M-entry row fill and `O(|M|·|S|)` target scans per arrival while
/// the engine fills only its kd-bounded coverage set. Baseline 3.66× on a
/// 2-core box (3.38–3.66× across three runs there, 3.41× on one thread);
/// the floor keeps the retired
/// current-vs-frozen-layout floor's 0.888 share (1.5× of 1.69×).
pub const MIN_HUGE_PD_SPEEDUP: f64 = 3.26;

/// Every `block_skip_rate` recorded in `BENCH_pd.json` must stay at least
/// this high. Unlike wall-clock, the skip rate is a *deterministic*
/// function of the workload and the pruning structure (same instance, same
/// bounds, same floats — machines don't enter it), so the gate is tight:
/// the acceptance bar was ≥ 70% on both large families (measured 77% on
/// the graph family, 99.8% on the Euclidean one), and the floor only
/// leaves room for deliberate profile tweaks, not for regressions back
/// toward the 27–39% id-order era.
pub const MIN_BLOCK_SKIP_RATE: f64 = 0.65;

/// Shard/thread configurations the serve determinism cell compares. The
/// acceptance contract is that the aggregate [`omfl_serve::ServeReport`] is
/// bit-identical across all of them; `digest_match` in `BENCH_serve.json`
/// records the comparison as 1.0/0.0 and CI hard-gates it at 1.0 — the one
/// serve gate no machine difference can excuse.
pub const SERVE_DETERMINISM_CONFIGS: [usize; 4] = [1, 2, 7, 16];

/// The PD hot-path bench profile: `zipf-services` at 4096 requests with a
/// service-heavy shape — the regime the index layer targets, where the
/// naive path's per-request facility scans and history re-walks dominate.
pub fn pd_profile() -> CatalogProfile {
    CatalogProfile {
        points: 48,
        services: 64,
        requests: 4096,
    }
}

/// The sweep smoke profile: small enough for CI, large enough that per-cell
/// times are above timer noise.
pub fn sweep_profile() -> CatalogProfile {
    CatalogProfile::default()
}

/// The large-metric PD profile: `zipf-services-large` scales `points` by
/// 32×, so this reaches |M| = 4096 — the regime where the per-arrival t3/t4
/// opening-target scans dominate PD serve and the incremental argmin index
/// is the order-of-magnitude lever.
pub fn pd_large_profile() -> CatalogProfile {
    CatalogProfile {
        points: 128,
        services: 64,
        requests: 4096,
    }
}

/// The Euclidean large-metric PD profile: `euclid-grid-large` scales
/// `points` by 64×, so this reaches |M| = 16384 — past any dense matrix,
/// where computed Euclidean distances make the scan baseline cheap and the
/// speedup is carried by distance-aware pruning plus the bulk `fill_row`.
pub fn pd_euclid_large_profile() -> CatalogProfile {
    CatalogProfile {
        points: 256,
        services: 64,
        requests: 4096,
    }
}

/// The huge-metric PD profile: `euclid-grid-large` scales `points` by 64×,
/// so this reaches |M| = 1048576 — the 1M-point target regime. `NaivePd`
/// pays a full 1M-point row fill and `O(|M|·|S|)` target scans per
/// arrival; the engine fills only the kd-bounded coverage set the pruned
/// scans can touch and walks the freeze reinvestment sharded and screened,
/// so per arrival it does work proportional to the coverage, not to |M|.
/// Requests are kept moderate: the `NaivePd` runs still cost
/// |requests| × |M| distance evaluations each.
pub fn pd_huge_profile() -> CatalogProfile {
    CatalogProfile {
        points: 16384,
        services: 8,
        requests: 1024,
    }
}

/// One paired `PdOmflp`-vs-[`NaivePd`] measurement, plus the index
/// diagnostics of the last `PdOmflp` run. Produced by [`paired_pd_timing`]
/// — the single benchmark protocol behind every cell of `BENCH_pd.json`
/// and the `pd-argmin` experiment, so the gated numbers and the reported
/// table can never drift apart.
#[derive(Debug, Clone)]
pub struct PairedPdTiming {
    /// Workload family name.
    pub family: &'static str,
    /// Actual metric size |M|.
    pub points: usize,
    /// Commodity count.
    pub services: u16,
    /// Requests served per run.
    pub requests: usize,
    /// `PdOmflp` wall-clock seconds over the repeats.
    pub incremental: Summary,
    /// `NaivePd` wall-clock seconds.
    pub naive: Summary,
    /// Share of opening-target blocks the prune skipped.
    pub block_skip_rate: f64,
    /// Blocked row-cache hit rate (`None` on the dense backend).
    pub row_hit_rate: Option<f64>,
}

impl PairedPdTiming {
    /// `naive.mean / incremental.mean` — what the index layer, the
    /// opening-target index and the distance substrate buy at this |M|.
    pub fn speedup(&self) -> f64 {
        self.naive.mean / self.incremental.mean
    }
}

/// Times PD serve on a catalog family: `PdOmflp::new` against the
/// linear-scan reference [`NaivePd`]. One untimed warm-up pair first (the
/// very first run pays allocator and page-fault warm-up that would skew a
/// small repeat count); every timed pair is cross-checked bit-identical —
/// the harness refuses to report timings of divergent engines.
pub fn paired_pd_timing(
    family_name: &str,
    profile: &CatalogProfile,
    repeats: usize,
) -> Result<PairedPdTiming, CoreError> {
    let family = catalog::by_name(family_name).expect("catalog family");
    let scenario = family.build(profile, 0x0B5E55ED)?;
    let inst = scenario.instance();

    {
        let mut warm_fast = PdOmflp::new(inst);
        let mut warm_slow = NaivePd::new(inst);
        for r in &scenario.requests {
            warm_fast.serve(r)?;
            warm_slow.serve(r)?;
        }
    }

    let mut incremental = Vec::with_capacity(repeats);
    let mut naive = Vec::with_capacity(repeats);
    let mut block_skip_rate = 0.0;
    let mut row_hit_rate = None;
    for _ in 0..repeats {
        let t0 = Instant::now();
        let mut fast = PdOmflp::new(inst);
        for r in &scenario.requests {
            fast.serve(r)?;
        }
        incremental.push(t0.elapsed().as_secs_f64());

        let t0 = Instant::now();
        let mut slow = NaivePd::new(inst);
        for r in &scenario.requests {
            slow.serve(r)?;
        }
        naive.push(t0.elapsed().as_secs_f64());

        assert_eq!(
            fast.solution().total_cost().to_bits(),
            slow.solution().total_cost().to_bits(),
            "PdOmflp and NaivePd diverged — bench numbers would be invalid"
        );
        let (skipped, scanned) = fast.opening_target_stats();
        block_skip_rate = skipped as f64 / (skipped + scanned).max(1) as f64;
        row_hit_rate = fast
            .distance_cache_stats()
            .map(|(h, m, _)| h as f64 / (h + m).max(1) as f64);
    }
    Ok(PairedPdTiming {
        family: family.name,
        points: inst.num_points(),
        services: profile.services,
        requests: scenario.len(),
        incremental: summarize(&incremental),
        naive: summarize(&naive),
        block_skip_rate,
        row_hit_rate,
    })
}

/// The serve bench profile: 16 light tenants at 2048 requests each (32768
/// arrivals aggregate). Tenants are deliberately small (16 points, 8
/// services): this cell prices the *multiplexing layer* — ring, shards,
/// locks, snapshots — per arrival, not PD's own per-request cost, which
/// `BENCH_pd.json` already gates at heavier shapes. The dev-box target for
/// the throughput cell is ≥ 1M arrivals/sec aggregate.
pub fn serve_profile() -> (usize, CatalogProfile) {
    (
        16,
        CatalogProfile {
            points: 16,
            services: 8,
            requests: 2048,
        },
    )
}

/// One multi-tenant serve measurement for `BENCH_serve.json`.
#[derive(Debug, Clone)]
pub struct ServeBench {
    /// Workload family every tenant runs.
    pub family: &'static str,
    /// Tenant count.
    pub tenants: usize,
    /// Aggregate arrivals per run.
    pub arrivals: usize,
    /// Shards the throughput runs used.
    pub shards: usize,
    /// Pool worker threads the throughput runs used.
    pub pool_threads: usize,
    /// Serve-loop wall seconds over the timed repeats.
    pub serve: Summary,
    /// `true` iff the aggregate reports of all
    /// [`SERVE_DETERMINISM_CONFIGS`] were bit-identical.
    pub digest_match: bool,
    /// The shared digest of the determinism runs.
    pub digest: u64,
    /// Tenants quarantined by the injected-fault panel (the fault plan
    /// panics exactly one tenant, so this must be 1).
    pub faulted_quarantined: usize,
    /// `true` iff, under the injected fault, every
    /// [`SERVE_DETERMINISM_CONFIGS`] run quarantined the planned tenant
    /// and the healthy tenants' digest matched the clean run's digest
    /// over the same subset — the "healthy tenants are bit-identical
    /// under faults" gate.
    pub faulted_digest_match: bool,
    /// Median per-arrival serve latency (ns) of the last timed repeat.
    pub latency_p50_ns: u64,
    /// 99th-percentile per-arrival serve latency (ns) of the last repeat.
    pub latency_p99_ns: u64,
    /// Producer blocking episodes of the last timed repeat.
    pub backpressure_waits: u64,
}

impl ServeBench {
    /// Aggregate arrivals per second at the mean serve wall time.
    pub fn arrivals_per_sec(&self) -> f64 {
        self.arrivals as f64 / self.serve.mean.max(1e-12)
    }
}

/// The serve configuration of every bench run at `shards` shards.
/// Micro-batches amortize the per-batch pool barrier: at 1024 arrivals per
/// batch the dispatch overhead is a few percent of the engine work; at 128
/// it dominated and halved aggregate throughput.
fn serve_config(shards: usize) -> ServeConfig {
    ServeConfig {
        shards,
        micro_batch: 1024,
        queue_capacity: 8192,
        deadline: None,
    }
}

fn serve_run(
    scenarios: &[Scenario],
    source: &ArrivalSource,
    shards: usize,
    pool: &TaskPool,
) -> Result<(omfl_serve::ServeReport, omfl_serve::ServeTelemetry), CoreError> {
    let server = Server::new(scenarios, Engine::Pd).expect("pd tenants always box");
    let cfg = serve_config(shards);
    let (report, telemetry) = server.serve(source, &cfg, pool).map_err(|e| match e {
        ServeError::Tenant(_, core) => core,
        other => CoreError::BadInstance(other.to_string()),
    })?;
    // A clean bench run that quietly quarantined a tenant would report a
    // digest about a smaller fleet; fail loudly instead.
    if let Some(q) = report.quarantined.first() {
        return Err(CoreError::BadInstance(format!(
            "clean serve run quarantined tenant {}: {:?}",
            q.tenant, q.reason
        )));
    }
    Ok((report, telemetry))
}

/// Times the multi-tenant serve loop on a fleet of `tenants` independent
/// `zipf-services` scenarios (distinct seeds), multiplexed over one
/// [`TaskPool`].
///
/// Protocol: one serve per [`SERVE_DETERMINISM_CONFIGS`] entry first (each
/// at `shards == threads`) — these double as warm-up and must produce
/// bit-identical aggregate reports — then `repeats` timed runs at the
/// throughput configuration: 16 shards on a pool sized by
/// [`omfl_par::default_threads`] (the hardware the box actually has — a
/// single-core runner serves inline, a dev box fans out).
pub fn serve_bench(
    tenants: usize,
    profile: &CatalogProfile,
    repeats: usize,
) -> Result<ServeBench, CoreError> {
    let family = catalog::by_name("zipf-services").expect("catalog family");
    let scenarios = (0..tenants)
        .map(|t| family.build(profile, omfl_par::seed_for(0x5E12FE, t as u64)))
        .collect::<Result<Vec<_>, _>>()?;
    let lens: Vec<usize> = scenarios.iter().map(|s| s.requests.len()).collect();
    let source = ArrivalSource::round_robin(&lens);

    let mut determinism_reports = Vec::new();
    for &n in SERVE_DETERMINISM_CONFIGS.iter() {
        let pool = TaskPool::new(n);
        let (report, _) = serve_run(&scenarios, &source, n, &pool)?;
        determinism_reports.push(report);
    }
    let digest_match = determinism_reports
        .windows(2)
        .all(|w| w[0] == w[1] && w[0].digest == w[1].digest);

    // Faulted panel: the same fleet with one tenant panicking mid-stream.
    // The gate is machine-independent: at every shard/thread config the
    // planned tenant (and only it) is quarantined, and the healthy
    // tenants' digest equals the clean run's digest over the same subset.
    omfl_serve::quiet_injected_panics();
    let plan = FaultPlan::seeded(0xC4A05, &lens, 1);
    let planned: Vec<usize> = plan
        .faulted_tenants()
        .into_iter()
        .map(|t| t as usize)
        .collect();
    let healthy_clean = determinism_reports[0].digest_over(|t| !planned.contains(&t));
    let mut faulted_quarantined = usize::MAX;
    let mut faulted_digest_match = true;
    for &n in SERVE_DETERMINISM_CONFIGS.iter() {
        let pool = TaskPool::new(n);
        let server = Server::new(&scenarios, Engine::Pd).expect("pd tenants always box");
        let (report, _) = server
            .serve_with_faults(&source, &serve_config(n), &pool, &plan)
            .map_err(|e| CoreError::BadInstance(e.to_string()))?;
        let quarantined: Vec<usize> = report.quarantined.iter().map(|q| q.tenant).collect();
        faulted_quarantined = report.quarantined.len();
        faulted_digest_match &= quarantined == planned && report.digest == healthy_clean;
    }

    let shards = 16;
    let pool = TaskPool::new(omfl_par::default_threads());
    let mut secs = Vec::with_capacity(repeats);
    let mut last_telemetry = None;
    for _ in 0..repeats {
        let (report, telemetry) = serve_run(&scenarios, &source, shards, &pool)?;
        // A throughput number for a run that diverged from the determinism
        // panel would be a number about a different computation.
        assert_eq!(
            report.digest, determinism_reports[0].digest,
            "throughput run diverged from the determinism panel"
        );
        secs.push(telemetry.wall_secs);
        last_telemetry = Some(telemetry);
    }
    let telemetry = last_telemetry.expect("at least one timed repeat");
    Ok(ServeBench {
        family: family.name,
        tenants,
        arrivals: source.len(),
        shards,
        pool_threads: pool.threads(),
        serve: summarize(&secs),
        digest_match,
        digest: determinism_reports[0].digest,
        faulted_quarantined,
        faulted_digest_match,
        latency_p50_ns: telemetry.latency_p50_ns,
        latency_p99_ns: telemetry.latency_p99_ns,
        backpressure_waits: telemetry.backpressure_waits,
    })
}

/// Thread counts the exact branch-and-bound cell re-solves under. The
/// frontier contract is that node counts and bounds are bit-identical
/// across all of them; each family cell's `digest_match` records the
/// comparison and CI hard-gates it at 1.0.
pub const OPT_DETERMINISM_CONFIGS: [usize; 4] = [1, 2, 7, 16];

/// Families the exact-OPT cell certifies. All three reach |M| = 200 under
/// [`opt_profile`] and close the gap well inside [`OPT_NODE_BUDGET`]:
/// `zipf-services` certifies at the root, `tree-hierarchy` and
/// `euclid-clusters` each take a few hundred branch-and-bound nodes.
pub const OPT_FAMILIES: [&str; 3] = ["zipf-services", "tree-hierarchy", "euclid-clusters"];

/// Node budget for the `BENCH_opt.json` cells — far above the few hundred
/// nodes the gated families need, so a budget exhaustion is a bound
/// regression, not noise.
pub const OPT_NODE_BUDGET: u64 = 5_000;

/// The exact-OPT bench profile: |M| = 200 catalog instances, the ISSUE's
/// target scale for certified optima.
pub fn opt_profile() -> CatalogProfile {
    CatalogProfile {
        points: 200,
        services: 6,
        requests: 48,
    }
}

/// One certified exact-OPT measurement for `BENCH_opt.json`.
#[derive(Debug, Clone)]
pub struct OptBench {
    /// Workload family name.
    pub family: &'static str,
    /// Actual metric size |M|.
    pub points: usize,
    /// Requests solved.
    pub requests: usize,
    /// Branch-and-bound nodes expanded (thread-count independent).
    pub nodes_expanded: u64,
    /// Certified relative gap — 0.0 exactly when the run certified.
    pub gap_certified: f64,
    /// The certified optimum (upper bound == lower bound when certified).
    pub optimum: f64,
    /// Root Lagrangian bound.
    pub root_bound: f64,
    /// `true` iff node counts and both bounds were bit-identical across
    /// all [`OPT_DETERMINISM_CONFIGS`].
    pub digest_match: bool,
    /// Wall seconds per solve, one sample per thread configuration.
    pub solve: Summary,
}

/// Solves one catalog family exactly at every [`OPT_DETERMINISM_CONFIGS`]
/// entry and cross-checks that node counts and bounds are bit-identical.
pub fn opt_bench(
    family_name: &'static str,
    profile: &CatalogProfile,
) -> Result<OptBench, CoreError> {
    let family = catalog::by_name(family_name).expect("catalog family");
    let scenario = family.build(profile, 404)?;
    let inst = scenario.instance();

    let mut secs = Vec::with_capacity(OPT_DETERMINISM_CONFIGS.len());
    let mut runs = Vec::with_capacity(OPT_DETERMINISM_CONFIGS.len());
    for &threads in OPT_DETERMINISM_CONFIGS.iter() {
        let solver = ExactSolver {
            max_points: 512,
            node_budget: OPT_NODE_BUDGET,
            ..ExactSolver::default()
        }
        .with_threads(threads);
        let t0 = Instant::now();
        let res = solver.solve_bounded(inst, &scenario.requests)?;
        secs.push(t0.elapsed().as_secs_f64());
        if !res.certified() {
            return Err(CoreError::BadInstance(format!(
                "{family_name}: branch-and-bound failed to certify within \
                 {OPT_NODE_BUDGET} nodes (gap {:.6}) — the bench gates \
                 certified optima only",
                res.gap
            )));
        }
        runs.push(res);
    }
    let reference = &runs[0];
    let digest_match = runs.iter().all(|r| {
        r.nodes_expanded == reference.nodes_expanded
            && r.upper_bound.to_bits() == reference.upper_bound.to_bits()
            && r.lower_bound.to_bits() == reference.lower_bound.to_bits()
    });
    Ok(OptBench {
        family: family.name,
        points: inst.num_points(),
        requests: scenario.len(),
        nodes_expanded: reference.nodes_expanded,
        gap_certified: reference.gap,
        optimum: reference.upper_bound,
        root_bound: reference.root_bound,
        digest_match,
        solve: summarize(&secs),
    })
}

// --- one writer for every BENCH_*.json file -------------------------------

/// One value of a bench file.
#[derive(Debug)]
pub enum Value {
    /// A number, pre-formatted at the precision its gate reads
    /// (`gap_certified` is compared exactly as printed).
    Num(String),
    /// A string, written verbatim (bench strings are names and lists).
    Str(String),
    /// A nested object.
    Obj(Cell),
}

/// An object of a bench file: its `(key, value)` pairs in file order.
pub type Cell = Vec<(String, Value)>;

fn kv(key: &str, value: Value) -> (String, Value) {
    (key.to_string(), value)
}

/// `x` at `places` decimals: 9 for seconds, optima and bounds, 4 for
/// speedups and skip rates, 1 for throughput and flags.
fn num(x: f64, places: usize) -> Value {
    Value::Num(format!("{x:.places$}"))
}

fn int(n: impl std::fmt::Display) -> Value {
    Value::Num(n.to_string())
}

/// A 0.0/1.0 flag, the form the `digest_match` floors read.
fn flag(on: bool) -> Value {
    num(if on { 1.0 } else { 0.0 }, 1)
}

fn summary(s: &Summary) -> Value {
    Value::Obj(vec![
        kv("n", int(s.n)),
        kv("mean", num(s.mean, 9)),
        kv("std", num(s.std, 9)),
        kv("min", num(s.min, 9)),
        kv("max", num(s.max, 9)),
    ])
}

/// Writes `cell` as a JSON document. An object whose values are all
/// scalars goes on one line; any other object puts one key per line,
/// indented two spaces per level. A non-finite number is refused with an
/// error naming its dotted key, since JSON has no spelling for it.
pub fn render(cell: &Cell) -> Result<String, CoreError> {
    let mut out = String::new();
    write_object(&mut out, cell, "", "")?;
    out.push('\n');
    Ok(out)
}

fn write_object(out: &mut String, cell: &Cell, path: &str, indent: &str) -> Result<(), CoreError> {
    let inner = format!("{indent}  ");
    let (open, sep, close) = if cell.iter().any(|(_, v)| matches!(v, Value::Obj(_))) {
        (
            format!("{{\n{inner}"),
            format!(",\n{inner}"),
            format!("\n{indent}}}"),
        )
    } else {
        ("{ ".to_string(), ", ".to_string(), " }".to_string())
    };
    out.push_str(&open);
    for (i, (key, value)) in cell.iter().enumerate() {
        let path = if path.is_empty() {
            key.clone()
        } else {
            format!("{path}.{key}")
        };
        out.push_str(&format!("{}\"{key}\": ", if i > 0 { &sep } else { "" }));
        match value {
            Value::Obj(child) => write_object(out, child, &path, &inner)?,
            Value::Num(text) if !text.parse::<f64>().is_ok_and(f64::is_finite) => {
                return Err(CoreError::BadInstance(format!(
                    "bench value '{path}' is {text}, which JSON cannot hold"
                )))
            }
            Value::Num(text) => out.push_str(text),
            Value::Str(text) => out.push_str(&format!("\"{text}\"")),
        }
    }
    out.push_str(&close);
    Ok(())
}

/// `BENCH_opt.json`: one cell per [`OPT_FAMILIES`] entry carrying the
/// machine-independent `nodes_expanded` / `gap_certified` / `digest_match`
/// gates plus the certified optimum and per-solve wall seconds
/// (ratio-gated like every other `secs.mean`).
pub fn opt_cell(cells: &[OptBench], profile: &CatalogProfile) -> Cell {
    let mut out = vec![
        kv("services", int(profile.services)),
        kv("node_budget", int(OPT_NODE_BUDGET)),
        kv(
            "thread_configs",
            Value::Str(format!("{OPT_DETERMINISM_CONFIGS:?}")),
        ),
    ];
    for c in cells {
        let cell = vec![
            kv("points", int(c.points)),
            kv("requests", int(c.requests)),
            kv("nodes_expanded", int(c.nodes_expanded)),
            kv("gap_certified", num(c.gap_certified, 9)),
            kv("optimum", num(c.optimum, 9)),
            kv("root_bound", num(c.root_bound, 9)),
            kv("digest_match", flag(c.digest_match)),
            kv("solve_secs", summary(&c.solve)),
        ];
        out.push(kv(c.family, Value::Obj(cell)));
    }
    out
}

/// `BENCH_serve.json`: the deterministic `digest_match` cell (CI
/// hard-gates it at 1.0), the faulted panel, the gated throughput cell, and
/// informational latency/backpressure telemetry. See the README's serve
/// section for the cell layout.
pub fn serve_cell(b: &ServeBench) -> Cell {
    vec![
        kv("family", Value::Str(b.family.to_string())),
        kv("tenants", int(b.tenants)),
        kv("arrivals", int(b.arrivals)),
        kv("shards", int(b.shards)),
        kv("pool_threads", int(b.pool_threads)),
        kv("digest_match", flag(b.digest_match)),
        kv(
            "faulted",
            Value::Obj(vec![
                kv("quarantined", int(b.faulted_quarantined)),
                kv("digest_match", flag(b.faulted_digest_match)),
            ]),
        ),
        kv("serve_secs", summary(&b.serve)),
        kv("arrivals_per_sec", num(b.arrivals_per_sec(), 1)),
        kv("latency_p50_ns", int(b.latency_p50_ns)),
        kv("latency_p99_ns", int(b.latency_p99_ns)),
        kv("backpressure_waits", int(b.backpressure_waits)),
    ]
}

/// The fields every paired PD cell opens with: its identity and both
/// timings, the `PdOmflp` one under `current_key`.
fn paired_head(current_key: &str, t: &PairedPdTiming) -> Cell {
    vec![
        kv("family", Value::Str(t.family.to_string())),
        kv("requests", int(t.requests)),
        kv("points", int(t.points)),
        kv("services", int(t.services)),
        kv(current_key, summary(&t.incremental)),
        kv("naive_secs", summary(&t.naive)),
    ]
}

/// One nested paired cell: the head plus its deterministic skip rate and
/// the speedup.
fn paired_cell(current_key: &str, t: &PairedPdTiming) -> Value {
    let mut cell = paired_head(current_key, t);
    cell.push(kv("block_skip_rate", num(t.block_skip_rate, 4)));
    cell.push(kv("speedup", num(t.speedup(), 4)));
    Value::Obj(cell)
}

/// `BENCH_pd.json`: the small-metric `zipf-services` cell at the top level
/// and the `large` (graph family), `huge` and `euclid-large` (Euclidean
/// family) cells — every one `PdOmflp` against `NaivePd`, the large ones
/// carrying their deterministic `block_skip_rate`. `huge` records its
/// engine timing as `current_secs`, the others as `incremental_secs`.
pub fn pd_cell(
    small: &PairedPdTiming,
    large: &PairedPdTiming,
    euclid_large: &PairedPdTiming,
    huge: &PairedPdTiming,
) -> Cell {
    let mut out = paired_head("indexed_secs", small);
    out.push(kv("speedup", num(small.speedup(), 4)));
    out.push(kv("large", paired_cell("incremental_secs", large)));
    out.push(kv("huge", paired_cell("current_secs", huge)));
    out.push(kv(
        "euclid-large",
        paired_cell("incremental_secs", euclid_large),
    ));
    out
}

/// Times every catalog family × engine and renders `BENCH_sweep.json`.
pub fn sweep_json(
    profile: &CatalogProfile,
    base_seed: u64,
    trials: usize,
    threads: usize,
) -> Result<String, CoreError> {
    let families = catalog::registry();
    let engines = Engine::all(omfl_par::seed_for(base_seed, u64::MAX));
    let t0 = Instant::now();
    let cells = timed_sweep(&families, profile, &engines, base_seed, trials, threads)?;
    let wall = t0.elapsed().as_secs_f64();

    let mut out = vec![
        kv("threads", int(threads)),
        kv("trials", int(trials)),
        kv("points", int(profile.points)),
        kv("services", int(profile.services)),
        kv("requests", int(profile.requests)),
        kv("sweep_wall_secs", num(wall, 9)),
    ];
    for engine in &engines {
        for fam in &families {
            let secs: Vec<f64> = cells
                .iter()
                .filter(|c| c.family == fam.name && c.engine == engine.name())
                .map(|c| c.secs)
                .collect();
            if !secs.is_empty() {
                let key = format!("{}/{}", engine.name(), fam.name);
                out.push(kv(
                    &key,
                    Value::Obj(vec![kv("secs", summary(&summarize(&secs)))]),
                ));
            }
        }
    }
    render(&out)
}

// --- minimal JSON reading (the renderer's shape only) ---------------------

/// Flattened dotted-key views of a parsed document: numbers and strings.
pub type FlatJson = (BTreeMap<String, f64>, BTreeMap<String, String>);

/// Parses the subset of JSON [`render`] writes — objects, strings, and
/// finite numbers — into flattened `"a.b.c" → value` maps. Numbers land in
/// the first map, strings in the second. `NaN` and infinities are refused
/// with an error naming their key.
pub fn parse_flat(text: &str) -> Result<FlatJson, String> {
    let mut nums = BTreeMap::new();
    let mut strs = BTreeMap::new();
    let chars: Vec<char> = text.chars().collect();
    let mut pos = 0usize;
    parse_object(&chars, &mut pos, "", &mut nums, &mut strs)?;
    skip_ws(&chars, &mut pos);
    if pos != chars.len() {
        return Err(format!("trailing content at offset {pos}"));
    }
    Ok((nums, strs))
}

fn skip_ws(c: &[char], pos: &mut usize) {
    while *pos < c.len() && c[*pos].is_whitespace() {
        *pos += 1;
    }
}

fn expect(c: &[char], pos: &mut usize, ch: char) -> Result<(), String> {
    skip_ws(c, pos);
    if *pos < c.len() && c[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{ch}' at offset {pos}", pos = *pos))
    }
}

fn parse_string(c: &[char], pos: &mut usize) -> Result<String, String> {
    expect(c, pos, '"')?;
    let mut s = String::new();
    while *pos < c.len() && c[*pos] != '"' {
        // The emitter never escapes anything; reject rather than mis-parse.
        if c[*pos] == '\\' {
            return Err("escape sequences are not supported".into());
        }
        s.push(c[*pos]);
        *pos += 1;
    }
    expect(c, pos, '"')?;
    Ok(s)
}

fn parse_object(
    c: &[char],
    pos: &mut usize,
    prefix: &str,
    nums: &mut BTreeMap<String, f64>,
    strs: &mut BTreeMap<String, String>,
) -> Result<(), String> {
    expect(c, pos, '{')?;
    skip_ws(c, pos);
    if *pos < c.len() && c[*pos] == '}' {
        *pos += 1;
        return Ok(());
    }
    loop {
        let key = parse_string(c, pos)?;
        let full = if prefix.is_empty() {
            key
        } else {
            format!("{prefix}.{key}")
        };
        expect(c, pos, ':')?;
        skip_ws(c, pos);
        match c.get(*pos) {
            Some('{') => parse_object(c, pos, &full, nums, strs)?,
            Some('"') => {
                let v = parse_string(c, pos)?;
                strs.insert(full, v);
            }
            Some(_) => {
                let start = *pos;
                while *pos < c.len()
                    && !matches!(c[*pos], ',' | '}' | ']')
                    && !c[*pos].is_whitespace()
                {
                    *pos += 1;
                }
                let raw: String = c[start..*pos].iter().collect();
                // `f64::from_str` also reads `NaN` and `inf`, which are not
                // JSON; a non-finite number would slip through every gate
                // (all comparisons with NaN are false), so it is refused here.
                let v: f64 = raw
                    .parse()
                    .ok()
                    .filter(|v: &f64| v.is_finite())
                    .ok_or_else(|| format!("bad number '{raw}' for key {full}"))?;
                nums.insert(full, v);
            }
            None => return Err("unexpected end of input".into()),
        }
        skip_ws(c, pos);
        match c.get(*pos) {
            Some(',') => {
                *pos += 1;
                skip_ws(c, pos);
            }
            Some('}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}", pos = *pos)),
        }
    }
}

/// Which committed keys a [`GateRow`] applies to.
#[derive(Clone, Copy)]
enum KeyMatch {
    /// Exactly this dotted key.
    Is(&'static str),
    /// Every dotted key ending in this suffix.
    EndsWith(&'static str),
}

impl KeyMatch {
    fn matches(self, key: &str) -> bool {
        match self {
            KeyMatch::Is(k) => key == k,
            KeyMatch::EndsWith(suffix) => key.ends_with(suffix),
        }
    }
}

/// How a [`GateRow`] judges a fresh value `now` against its committed
/// baseline `base`.
#[derive(Clone, Copy)]
enum Gate {
    /// `now` must equal `base` exactly (deterministic counters).
    Exact,
    /// `now` must be at least this value.
    Floor(f64),
    /// `now` may be at most [`REGRESSION_FACTOR`] worse than `base`
    /// (`base > 0` only). The gate binds only when the cell's wall-clock
    /// baseline — the value itself, or the committed `wall` key — is at
    /// least [`MIN_GATED_SECS`]; every non-failing comparison is reported
    /// through `note` instead.
    Regression {
        higher_is_better: bool,
        wall: Option<&'static str>,
        note: fn(&str, f64, f64) -> String,
    },
}

/// One row of the [`check`] gate table: a key pattern, its gate, and the
/// failure text (given the key, `now` and `base`; the label is prefixed
/// by `check`).
struct GateRow {
    key: KeyMatch,
    gate: Gate,
    fail: fn(&str, f64, f64) -> String,
}

/// Every gate [`check`] evaluates, in evaluation order per key.
const GATES: &[GateRow] = &[
    GateRow {
        key: KeyMatch::EndsWith("secs.mean"),
        gate: Gate::Regression {
            higher_is_better: false,
            wall: None,
            note: |key, now, base| {
                let gated = if base >= MIN_GATED_SECS {
                    ""
                } else {
                    " (ungated: sub-ms baseline)"
                };
                format!("'{key}' {:.2}x of baseline{gated}", now / base)
            },
        },
        fail: |key, now, base| {
            format!(
                "'{key}' regressed {:.2}x ({base:.6}s -> {now:.6}s)",
                now / base
            )
        },
    },
    GateRow {
        key: KeyMatch::Is("speedup"),
        gate: Gate::Floor(MIN_PD_SPEEDUP),
        fail: |_, now, base| {
            format!(
                "PD index speedup {now:.2}x below the {MIN_PD_SPEEDUP}x floor \
                 (baseline {base:.2}x)"
            )
        },
    },
    GateRow {
        key: KeyMatch::Is("large.speedup"),
        gate: Gate::Floor(MIN_LARGE_PD_SPEEDUP),
        fail: |_, now, base| {
            format!(
                "large-metric PD speedup over NaivePd {now:.2}x below the \
                 {MIN_LARGE_PD_SPEEDUP}x floor (baseline {base:.2}x)"
            )
        },
    },
    GateRow {
        key: KeyMatch::Is("euclid-large.speedup"),
        gate: Gate::Floor(MIN_EUCLID_LARGE_PD_SPEEDUP),
        fail: |_, now, base| {
            format!(
                "Euclidean large-metric PD speedup over NaivePd {now:.2}x below \
                 the {MIN_EUCLID_LARGE_PD_SPEEDUP}x floor (baseline {base:.2}x)"
            )
        },
    },
    GateRow {
        key: KeyMatch::Is("huge.speedup"),
        gate: Gate::Floor(MIN_HUGE_PD_SPEEDUP),
        fail: |_, now, base| {
            format!(
                "huge-metric PD speedup over NaivePd {now:.2}x below the \
                 {MIN_HUGE_PD_SPEEDUP}x floor (baseline {base:.2}x)"
            )
        },
    },
    GateRow {
        key: KeyMatch::EndsWith("nodes_expanded"),
        gate: Gate::Exact,
        fail: |key, now, base| {
            format!(
                "'{key}' = {now} nodes vs committed {base} — the \
                 branch-and-bound explored a different tree (node counts are \
                 a deterministic function of the instance and the bound, \
                 never of the machine or thread count)"
            )
        },
    },
    GateRow {
        key: KeyMatch::EndsWith("gap_certified"),
        gate: Gate::Exact,
        fail: |key, now, base| {
            format!(
                "'{key}' = {now} vs committed {base} — a certified \
                 gap drifted (0.0 means proven optimal; any other value \
                 means the certificate was lost)"
            )
        },
    },
    GateRow {
        // A 0.0/1.0 flag, so the floor is exact equality with 1.0.
        key: KeyMatch::EndsWith("digest_match"),
        gate: Gate::Floor(1.0),
        fail: |key, _, _| {
            format!(
                "'{key}' results diverged across thread configs — \
                 a deterministic pipeline (serve aggregate reports, or the \
                 exact branch-and-bound frontier) lost thread-count \
                 independence (this gate is machine-independent; the \
                 'faulted.' variant gates healthy-tenant identity under an \
                 injected panic)"
            )
        },
    },
    GateRow {
        key: KeyMatch::Is("faulted.quarantined"),
        gate: Gate::Exact,
        fail: |_, now, base| {
            format!(
                "the injected-fault panel quarantined {now} tenants \
                 (baseline {base}) — fault containment drifted"
            )
        },
    },
    GateRow {
        key: KeyMatch::Is("arrivals_per_sec"),
        gate: Gate::Regression {
            higher_is_better: true,
            wall: Some("serve_secs.mean"),
            note: |_, now, base| {
                format!(
                    "serve throughput {:.2}x of baseline ({now:.0} arrivals/sec)",
                    now / base
                )
            },
        },
        fail: |_, now, base| {
            format!(
                "serve throughput fell {:.2}x ({base:.0} -> {now:.0} arrivals/sec)",
                base / now.max(1e-12)
            )
        },
    },
    GateRow {
        key: KeyMatch::EndsWith("block_skip_rate"),
        gate: Gate::Floor(MIN_BLOCK_SKIP_RATE),
        fail: |key, now, base| {
            format!(
                "'{key}' = {:.1}% below the {:.0}% floor (baseline \
                 {:.1}%) — the opening-target prune stopped engaging",
                100.0 * now,
                100.0 * MIN_BLOCK_SKIP_RATE,
                100.0 * base
            )
        },
    },
];

/// Compares a freshly generated JSON document against a committed baseline.
///
/// A document holding a non-finite number is unreadable, so it fails with
/// the number's key (every gate comparison with NaN would be false, so it
/// would pass them all). A key present in the baseline but missing from the
/// fresh run fails;
/// every other committed numeric key is judged by each `GATES` row whose
/// pattern it matches: exact equality for deterministic counters, floors
/// for the speedups, skip rates and determinism flags, and
/// [`REGRESSION_FACTOR`] for wall-clock cells at least [`MIN_GATED_SECS`]
/// long (shorter ones are reported as notes).
pub fn check(fresh: &str, committed: &str, label: &str) -> Result<Vec<String>, Vec<String>> {
    let (f_nums, f_strs) =
        parse_flat(fresh).map_err(|e| vec![format!("{label}: fresh JSON unreadable: {e}")])?;
    let (c_nums, c_strs) = parse_flat(committed)
        .map_err(|e| vec![format!("{label}: committed JSON unreadable: {e}")])?;

    let mut errors = Vec::new();
    let mut notes = Vec::new();
    let missing_nums = c_nums.keys().filter(|k| !f_nums.contains_key(*k));
    let missing_strs = c_strs.keys().filter(|k| !f_strs.contains_key(*k));
    for key in missing_nums.chain(missing_strs) {
        errors.push(format!("{label}: key '{key}' missing from fresh run"));
    }
    for (key, &base) in &c_nums {
        let Some(&now) = f_nums.get(key) else {
            continue;
        };
        for row in GATES.iter().filter(|row| row.key.matches(key)) {
            let failed = match row.gate {
                Gate::Exact => now != base,
                Gate::Floor(floor) => now < floor,
                Gate::Regression {
                    higher_is_better,
                    wall,
                    note,
                } => {
                    if base <= 0.0 {
                        continue;
                    }
                    let ratio = if higher_is_better {
                        base / now.max(1e-12)
                    } else {
                        now / base
                    };
                    let wall_base = wall.map_or(Some(base), |w| c_nums.get(w).copied());
                    let binds = wall_base.is_some_and(|w| w >= MIN_GATED_SECS);
                    if !(ratio > REGRESSION_FACTOR && binds) {
                        notes.push(format!("{label}: {}", note(key, now, base)));
                    }
                    ratio > REGRESSION_FACTOR && binds
                }
            };
            if failed {
                errors.push(format!("{label}: {}", (row.fail)(key, now, base)));
            }
        }
    }
    if errors.is_empty() {
        Ok(notes)
    } else {
        Err(errors)
    }
}

/// The smoke profile both `--emit-json` and `--check-json` run: PD hot
/// path, catalog sweep timings, the multi-tenant serve loop, and the
/// certified exact-OPT cells. Returns `(BENCH_pd.json, BENCH_sweep.json,
/// BENCH_serve.json, BENCH_opt.json)` contents.
pub fn smoke_profile_json() -> Result<(String, String, String, String), CoreError> {
    let pd = paired_pd_timing("zipf-services", &pd_profile(), 5)?;
    let large = paired_pd_timing("zipf-services-large", &pd_large_profile(), 3)?;
    let euclid_large = paired_pd_timing("euclid-grid-large", &pd_euclid_large_profile(), 3)?;
    let huge = paired_pd_timing("euclid-grid-large", &pd_huge_profile(), 3)?;
    let pd_doc = render(&pd_cell(&pd, &large, &euclid_large, &huge))?;
    // Cells are timed serially: under a parallel sweep, co-scheduled cells
    // contend for cores and per-cell wall-clock becomes too noisy to gate
    // the regression factor on.
    let sweep_doc = sweep_json(&sweep_profile(), 2020, 3, 1)?;
    let (tenants, profile) = serve_profile();
    let serve_doc = render(&serve_cell(&serve_bench(tenants, &profile, 3)?))?;
    let opt_cells = OPT_FAMILIES
        .iter()
        .map(|name| opt_bench(name, &opt_profile()))
        .collect::<Result<Vec<_>, _>>()?;
    let opt_doc = render(&opt_cell(&opt_cells, &opt_profile()))?;
    Ok((pd_doc, sweep_doc, serve_doc, opt_doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitted_pd_json_round_trips() {
        let profile = CatalogProfile {
            points: 8,
            services: 8,
            requests: 64,
        };
        let b = paired_pd_timing("zipf-services", &profile, 2).unwrap();
        let large = paired_pd_timing("zipf-services-large", &profile, 2).unwrap();
        let euclid = paired_pd_timing("euclid-grid-large", &profile, 2).unwrap();
        let huge = paired_pd_timing("euclid-grid-large", &profile, 2).unwrap();
        let doc = render(&pd_cell(&b, &large, &euclid, &huge)).unwrap();
        let (nums, strs) = parse_flat(&doc).unwrap();
        assert_eq!(strs["family"], "zipf-services");
        assert_eq!(nums["requests"], 64.0);
        assert!(nums["indexed_secs.mean"] > 0.0);
        assert!(nums["naive_secs.mean"] > 0.0);
        assert!(nums.contains_key("indexed_secs.std"));
        assert!(nums.contains_key("speedup"));
        assert_eq!(strs["large.family"], "zipf-services-large");
        assert_eq!(nums["large.points"], 256.0); // 8 × 32 scale
        assert!(nums["large.incremental_secs.mean"] > 0.0);
        assert!(nums["large.naive_secs.mean"] > 0.0);
        assert!(nums.contains_key("large.speedup"));
        assert!(nums.contains_key("large.block_skip_rate"));
        assert_eq!(strs["euclid-large.family"], "euclid-grid-large");
        assert_eq!(nums["euclid-large.points"], 529.0); // 8 × 64 ≈ 23×23 grid
        assert!(nums["euclid-large.incremental_secs.mean"] > 0.0);
        assert!(nums.contains_key("euclid-large.speedup"));
        assert!(nums.contains_key("euclid-large.block_skip_rate"));
        assert_eq!(strs["huge.family"], "euclid-grid-large");
        assert!(nums["huge.current_secs.mean"] > 0.0);
        assert!(nums["huge.naive_secs.mean"] > 0.0);
        assert!(nums.contains_key("huge.speedup"));
        assert!(nums.contains_key("huge.block_skip_rate"));
    }

    #[test]
    fn emitted_sweep_json_round_trips() {
        let doc = sweep_json(
            &CatalogProfile {
                points: 8,
                services: 8,
                requests: 16,
            },
            7,
            1,
            2,
        )
        .unwrap();
        let (nums, _) = parse_flat(&doc).unwrap();
        assert!(nums["sweep_wall_secs"] > 0.0);
        // 8 families × 4 engines, each with a 4-field summary.
        assert!(nums.keys().any(|k| k == "pd-omflp/zipf-services.secs.mean"));
        assert!(nums.keys().any(|k| k == "all-large/dyadic-mix.secs.max"));
    }

    #[test]
    fn check_flags_missing_keys_and_regressions() {
        let base = r#"{ "a": { "secs": { "mean": 1.0 } }, "speedup": 4.0 }"#;
        // Identical: passes.
        assert!(check(base, base, "t").is_ok());
        // 3x slower: regression.
        let slow = r#"{ "a": { "secs": { "mean": 3.0 } }, "speedup": 4.0 }"#;
        let errs = check(slow, base, "t").unwrap_err();
        assert!(errs[0].contains("regressed"));
        // 1.6x slower on a >= 1 ms baseline: the tightened gate fires too.
        let slow16 = r#"{ "a": { "secs": { "mean": 1.6 } }, "speedup": 4.0 }"#;
        let errs = check(slow16, base, "t").unwrap_err();
        assert!(errs[0].contains("regressed"), "1.5x gate must fire at 1.6x");
        // 1.4x stays within the tightened tolerance.
        let ok14 = r#"{ "a": { "secs": { "mean": 1.4 } }, "speedup": 4.0 }"#;
        assert!(check(ok14, base, "t").is_ok());
        // Sub-millisecond baselines stay ungated however noisy.
        let sub = r#"{ "a": { "secs": { "mean": 0.0005 } }, "speedup": 4.0 }"#;
        let noisy = r#"{ "a": { "secs": { "mean": 0.005 } }, "speedup": 4.0 }"#;
        assert!(check(noisy, sub, "t").is_ok());
        // Missing key: fails.
        let missing = r#"{ "speedup": 4.0 }"#;
        let errs = check(missing, base, "t").unwrap_err();
        assert!(errs[0].contains("missing"));
        // Speedup collapse: fails.
        let collapsed = r#"{ "a": { "secs": { "mean": 1.0 } }, "speedup": 1.1 }"#;
        let errs = check(collapsed, base, "t").unwrap_err();
        assert!(errs[0].contains("below"));
        // Large-metric speedup over NaivePd has its own floor.
        let base_l = r#"{ "large": { "speedup": 7.8 } }"#;
        let sagged = r#"{ "large": { "speedup": 5.0 } }"#;
        let errs = check(sagged, base_l, "t").unwrap_err();
        assert!(errs[0].contains("large-metric"));
        let fine = r#"{ "large": { "speedup": 5.5 } }"#;
        assert!(check(fine, base_l, "t").is_ok());
        // The Euclidean large cell has its own (lower) floor.
        let base_e = r#"{ "euclid-large": { "speedup": 6.7 } }"#;
        let sagged_e = r#"{ "euclid-large": { "speedup": 3.9 } }"#;
        let errs = check(sagged_e, base_e, "t").unwrap_err();
        assert!(errs[0].contains("Euclidean"));
        let fine_e = r#"{ "euclid-large": { "speedup": 4.2 } }"#;
        assert!(check(fine_e, base_e, "t").is_ok());
        // The huge cell has its own floor.
        let base_h = r#"{ "huge": { "speedup": 3.66 } }"#;
        let sagged_h = r#"{ "huge": { "speedup": 3.2 } }"#;
        let errs = check(sagged_h, base_h, "t").unwrap_err();
        assert!(errs[0].contains("huge-metric"));
        let fine_h = r#"{ "huge": { "speedup": 3.4 } }"#;
        assert!(check(fine_h, base_h, "t").is_ok());
        // Block skip rates are deterministic and hard-gated.
        let base_s = r#"{ "large": { "block_skip_rate": 0.77 } }"#;
        let inert = r#"{ "large": { "block_skip_rate": 0.31 } }"#;
        let errs = check(inert, base_s, "t").unwrap_err();
        assert!(errs[0].contains("stopped engaging"));
        let engaged = r#"{ "large": { "block_skip_rate": 0.72 } }"#;
        assert!(check(engaged, base_s, "t").is_ok());
        // Non-finite fresh numbers fail and name their key: every gate
        // comparison with NaN is false, so they would pass them all.
        let nan_speedup = r#"{ "a": { "secs": { "mean": 1.0 } }, "speedup": NaN }"#;
        let errs = check(nan_speedup, base, "t").unwrap_err();
        assert!(errs[0].contains("'NaN' for key speedup"), "{errs:?}");
        let nan_skip = r#"{ "large": { "block_skip_rate": NaN } }"#;
        let errs = check(nan_skip, base_s, "t").unwrap_err();
        assert!(errs[0].contains("large.block_skip_rate"), "{errs:?}");
        let inf_secs = r#"{ "a": { "secs": { "mean": inf } }, "speedup": 4.0 }"#;
        let errs = check(inf_secs, base, "t").unwrap_err();
        assert!(errs[0].contains("a.secs.mean"), "{errs:?}");
    }

    #[test]
    fn render_refuses_non_finite_numbers() {
        let cell = vec![kv(
            "large",
            Value::Obj(vec![kv("speedup", num(f64::NAN, 4))]),
        )];
        let err = render(&cell).unwrap_err().to_string();
        assert!(err.contains("'large.speedup'"), "{err}");
        let cell = vec![kv("secs", num(f64::INFINITY, 9))];
        assert!(render(&cell).is_err());
        let cell = vec![kv("secs", num(1.5, 9)), kv("n", int(3))];
        assert_eq!(
            render(&cell).unwrap(),
            "{ \"secs\": 1.500000000, \"n\": 3 }\n"
        );
    }

    #[test]
    fn successor_speedup_floors_are_no_looser_than_the_retired_ones() {
        // The retired floors timed the engine against full scans or the
        // frozen layout path and kept these shares of their committed
        // baselines (2.5x of 3.8705x, 2.0x of 3.3913x, 1.5x of 1.6894x).
        // Each successor floor over NaivePd must keep at least as large a
        // share of its own committed baseline, and that baseline must
        // clear it.
        let (nums, _) = parse_flat(include_str!("../../../BENCH_pd.json")).unwrap();
        for (key, floor, retired_share) in [
            ("large.speedup", MIN_LARGE_PD_SPEEDUP, 2.5 / 3.8705),
            (
                "euclid-large.speedup",
                MIN_EUCLID_LARGE_PD_SPEEDUP,
                2.0 / 3.3913,
            ),
            ("huge.speedup", MIN_HUGE_PD_SPEEDUP, 1.5 / 1.6894),
        ] {
            let base = nums[key];
            assert!(
                floor / base >= retired_share,
                "{key}: floor {floor} is {:.3} of baseline {base}, looser than {retired_share:.3}",
                floor / base
            );
            assert!(
                base >= floor,
                "{key}: baseline {base} fails its floor {floor}"
            );
        }
    }

    #[test]
    fn emitted_serve_json_round_trips() {
        let profile = CatalogProfile {
            points: 12,
            services: 8,
            requests: 48,
        };
        let b = serve_bench(3, &profile, 2).unwrap();
        assert!(b.digest_match, "tiny serve bench must be deterministic");
        assert_eq!(
            b.faulted_quarantined, 1,
            "the plan panics exactly one tenant"
        );
        assert!(
            b.faulted_digest_match,
            "healthy tenants must be bit-identical under the injected panic"
        );
        let doc = render(&serve_cell(&b)).unwrap();
        let (nums, strs) = parse_flat(&doc).unwrap();
        assert_eq!(strs["family"], "zipf-services");
        assert_eq!(nums["tenants"], 3.0);
        assert_eq!(nums["arrivals"], 144.0);
        assert_eq!(nums["digest_match"], 1.0);
        assert_eq!(nums["faulted.quarantined"], 1.0);
        assert_eq!(nums["faulted.digest_match"], 1.0);
        assert!(nums["serve_secs.mean"] > 0.0);
        assert!(nums["arrivals_per_sec"] > 0.0);
        assert!(nums.contains_key("latency_p50_ns"));
        assert!(nums.contains_key("latency_p99_ns"));
        assert!(nums.contains_key("backpressure_waits"));
    }

    #[test]
    fn check_gates_serve_determinism_and_throughput() {
        // A digest mismatch fails regardless of every timing.
        let base = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.02 }, "arrivals_per_sec": 2000000.0 }"#;
        let diverged = r#"{ "digest_match": 0.0, "serve_secs": { "mean": 0.02 }, "arrivals_per_sec": 2000000.0 }"#;
        let errs = check(diverged, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("lost")), "{errs:?}");
        // Throughput collapse beyond the factor fails on a >= 1 ms cell.
        let slow = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.04 }, "arrivals_per_sec": 1000000.0 }"#;
        let errs = check(slow, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("throughput")), "{errs:?}");
        // A mild dip stays a note, not an error.
        let mild = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.025 }, "arrivals_per_sec": 1600000.0 }"#;
        assert!(check(mild, base, "t").is_ok());
        // Sub-millisecond serve cells exempt the throughput ratio too.
        let sub_base = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.0005 }, "arrivals_per_sec": 2000000.0 }"#;
        let sub_noisy = r#"{ "digest_match": 1.0, "serve_secs": { "mean": 0.0005 }, "arrivals_per_sec": 200000.0 }"#;
        assert!(check(sub_noisy, sub_base, "t").is_ok());
    }

    #[test]
    fn check_gates_the_faulted_cell() {
        let base = r#"{ "faulted": { "quarantined": 1, "digest_match": 1.0 } }"#;
        // Healthy-tenant divergence under faults is a hard failure.
        let diverged = r#"{ "faulted": { "quarantined": 1, "digest_match": 0.0 } }"#;
        let errs = check(diverged, base, "t").unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("faulted.digest_match")),
            "{errs:?}"
        );
        // So is a drifting quarantine count (containment over- or
        // under-firing is machine-independent).
        let drifted = r#"{ "faulted": { "quarantined": 2, "digest_match": 1.0 } }"#;
        let errs = check(drifted, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("containment")), "{errs:?}");
        let same = r#"{ "faulted": { "quarantined": 1, "digest_match": 1.0 } }"#;
        assert!(check(same, base, "t").is_ok());
    }

    #[test]
    fn emitted_opt_json_round_trips() {
        // Tiny profile: the emitter shape and the determinism panel are
        // what's under test, not the |M| = 200 scale (the smoke profile
        // covers that in release).
        let profile = CatalogProfile {
            points: 16,
            services: 4,
            requests: 12,
        };
        let cells: Vec<OptBench> = ["zipf-services", "tree-hierarchy"]
            .iter()
            .map(|name| opt_bench(name, &profile).unwrap())
            .collect();
        for c in &cells {
            assert!(
                c.digest_match,
                "{}: frontier must be thread-independent",
                c.family
            );
            assert_eq!(c.gap_certified, 0.0, "{}", c.family);
            assert!(c.optimum > 0.0, "{}", c.family);
        }
        let doc = render(&opt_cell(&cells, &profile)).unwrap();
        let (nums, _) = parse_flat(&doc).unwrap();
        assert_eq!(nums["services"], 4.0);
        assert_eq!(nums["node_budget"], OPT_NODE_BUDGET as f64);
        for c in &cells {
            let fam = c.family;
            assert_eq!(
                nums[&format!("{fam}.nodes_expanded")],
                c.nodes_expanded as f64
            );
            assert_eq!(nums[&format!("{fam}.gap_certified")], 0.0);
            assert_eq!(nums[&format!("{fam}.digest_match")], 1.0);
            assert!(nums[&format!("{fam}.optimum")] > 0.0);
            assert!(nums.contains_key(&format!("{fam}.solve_secs.mean")));
        }
    }

    #[test]
    fn check_gates_opt_nodes_and_certified_gaps() {
        let base = r#"{ "zipf-services": { "nodes_expanded": 271, "gap_certified": 0.000000000, "digest_match": 1.0 } }"#;
        assert!(check(base, base, "t").is_ok());
        // A different tree is a hard failure even if everything else holds.
        let drifted = r#"{ "zipf-services": { "nodes_expanded": 290, "gap_certified": 0.000000000, "digest_match": 1.0 } }"#;
        let errs = check(drifted, base, "t").unwrap_err();
        assert!(
            errs.iter().any(|e| e.contains("different tree")),
            "{errs:?}"
        );
        // Losing the optimality certificate fails.
        let uncertified = r#"{ "zipf-services": { "nodes_expanded": 271, "gap_certified": 0.031400000, "digest_match": 1.0 } }"#;
        let errs = check(uncertified, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("certificate")), "{errs:?}");
        // Thread-count divergence reuses the digest_match hard gate.
        let diverged = r#"{ "zipf-services": { "nodes_expanded": 271, "gap_certified": 0.000000000, "digest_match": 0.0 } }"#;
        let errs = check(diverged, base, "t").unwrap_err();
        assert!(errs.iter().any(|e| e.contains("thread")), "{errs:?}");
    }

    /// A fixed summary whose fields carry more digits than the 9 places
    /// the files print, so rounding is part of what the goldens pin.
    fn golden_summary(n: usize, mean: f64) -> Summary {
        Summary {
            n,
            mean,
            std: mean / 7.0,
            ci95: mean / 3.0,
            min: mean * 0.812_345_678_91,
            max: mean * 1.187_654_321_09,
        }
    }

    fn golden_pd_cell(
        family: &'static str,
        points: usize,
        services: u16,
        base: f64,
    ) -> PairedPdTiming {
        PairedPdTiming {
            family,
            points,
            services,
            requests: 4096,
            incremental: golden_summary(3, base),
            naive: golden_summary(3, base * 6.543_21),
            block_skip_rate: 0.987_654_321,
            row_hit_rate: Some(0.5),
        }
    }

    fn golden_pd_doc() -> String {
        render(&pd_cell(
            &golden_pd_cell("zipf-services", 48, 64, 0.002_934_806_123),
            &golden_pd_cell("zipf-services-large", 4096, 64, 0.167_161_817_456),
            &golden_pd_cell("euclid-grid-large", 16384, 64, 0.461_067_797_5),
            &golden_pd_cell("euclid-grid-large", 1_048_576, 8, 11.365_087_363_3),
        ))
        .unwrap()
    }

    fn golden_serve_doc() -> String {
        render(&serve_cell(&ServeBench {
            family: "zipf-services",
            tenants: 16,
            arrivals: 32768,
            shards: 16,
            pool_threads: 2,
            serve: golden_summary(3, 0.016_518_132_25),
            digest_match: true,
            digest: 0xDEAD_BEEF,
            faulted_quarantined: 1,
            faulted_digest_match: false,
            latency_p50_ns: 256,
            latency_p99_ns: 4096,
            backpressure_waits: 20,
        }))
        .unwrap()
    }

    fn golden_opt_doc() -> String {
        let cell = |family, nodes_expanded, optimum: f64| OptBench {
            family,
            points: 200,
            requests: 48,
            nodes_expanded,
            gap_certified: 0.0,
            optimum,
            root_bound: optimum - 0.000_965_1,
            digest_match: nodes_expanded != 98,
            solve: golden_summary(4, 0.688_085_150_4),
        };
        render(&opt_cell(
            &[
                cell("zipf-services", 1, 109.695_044_495_2),
                cell("euclid-clusters", 98, 86.081_761_359_7),
            ],
            &opt_profile(),
        ))
        .unwrap()
    }

    /// Golden text for fixed inputs: key order, indentation, one-line
    /// summaries and every precision the gates read (9 places, 4 for
    /// ratios, 1 for throughput and flags).
    #[test]
    fn pd_json_matches_golden() {
        assert_eq!(golden_pd_doc(), GOLDEN_PD);
    }

    #[test]
    fn serve_json_matches_golden() {
        assert_eq!(golden_serve_doc(), GOLDEN_SERVE);
    }

    #[test]
    fn opt_json_matches_golden() {
        assert_eq!(golden_opt_doc(), GOLDEN_OPT);
    }

    const GOLDEN_PD: &str = r#"{
  "family": "zipf-services",
  "requests": 4096,
  "points": 48,
  "services": 64,
  "indexed_secs": { "n": 3, "mean": 0.002934806, "std": 0.000419258, "min": 0.002384077, "max": 0.003485535 },
  "naive_secs": { "n": 3, "mean": 0.019203053, "std": 0.002743293, "min": 0.015599517, "max": 0.022806589 },
  "speedup": 6.5432,
  "large": {
    "family": "zipf-services-large",
    "requests": 4096,
    "points": 4096,
    "services": 64,
    "incremental_secs": { "n": 3, "mean": 0.167161817, "std": 0.023880260, "min": 0.135793180, "max": 0.198530455 },
    "naive_secs": { "n": 3, "mean": 1.093774876, "std": 0.156253554, "min": 0.888523294, "max": 1.299026457 },
    "block_skip_rate": 0.9877,
    "speedup": 6.5432
  },
  "huge": {
    "family": "euclid-grid-large",
    "requests": 4096,
    "points": 1048576,
    "services": 8,
    "current_secs": { "n": 3, "mean": 11.365087363, "std": 1.623583909, "min": 9.232379610, "max": 13.497795117 },
    "naive_secs": { "n": 3, "mean": 74.364153286, "std": 10.623450469, "min": 60.409398588, "max": 88.318907985 },
    "block_skip_rate": 0.9877,
    "speedup": 6.5432
  },
  "euclid-large": {
    "family": "euclid-grid-large",
    "requests": 4096,
    "points": 16384,
    "services": 64,
    "incremental_secs": { "n": 3, "mean": 0.461067797, "std": 0.065866828, "min": 0.374546433, "max": 0.547589162 },
    "naive_secs": { "n": 3, "mean": 3.016863423, "std": 0.430980489, "min": 2.450735966, "max": 3.582990881 },
    "block_skip_rate": 0.9877,
    "speedup": 6.5432
  }
}
"#;

    const GOLDEN_SERVE: &str = r#"{
  "family": "zipf-services",
  "tenants": 16,
  "arrivals": 32768,
  "shards": 16,
  "pool_threads": 2,
  "digest_match": 1.0,
  "faulted": { "quarantined": 1, "digest_match": 0.0 },
  "serve_secs": { "n": 3, "mean": 0.016518132, "std": 0.002359733, "min": 0.013418433, "max": 0.019617831 },
  "arrivals_per_sec": 1983759.4,
  "latency_p50_ns": 256,
  "latency_p99_ns": 4096,
  "backpressure_waits": 20
}
"#;

    const GOLDEN_OPT: &str = r#"{
  "services": 6,
  "node_budget": 5000,
  "thread_configs": "[1, 2, 7, 16]",
  "zipf-services": {
    "points": 200,
    "requests": 48,
    "nodes_expanded": 1,
    "gap_certified": 0.000000000,
    "optimum": 109.695044495,
    "root_bound": 109.694079395,
    "digest_match": 1.0,
    "solve_secs": { "n": 4, "mean": 0.688085150, "std": 0.098297879, "min": 0.558962999, "max": 0.817207302 }
  },
  "euclid-clusters": {
    "points": 200,
    "requests": 48,
    "nodes_expanded": 98,
    "gap_certified": 0.000000000,
    "optimum": 86.081761360,
    "root_bound": 86.080796260,
    "digest_match": 0.0,
    "solve_secs": { "n": 4, "mean": 0.688085150, "std": 0.098297879, "min": 0.558962999, "max": 0.817207302 }
  }
}
"#;

    /// The flattened number keys and string keys of a document.
    fn key_sets(doc: &str) -> (Vec<String>, Vec<String>) {
        let (nums, strs) = parse_flat(doc).unwrap();
        (nums.into_keys().collect(), strs.into_keys().collect())
    }

    fn tiny_profile() -> CatalogProfile {
        CatalogProfile {
            points: 8,
            services: 8,
            requests: 16,
        }
    }

    // A dropped key would otherwise surface only in a full smoke run, and
    // an extra key never: each emit must have exactly the committed keys.

    #[test]
    fn pd_emit_has_the_committed_key_set() {
        let cell = |family| paired_pd_timing(family, &tiny_profile(), 1).unwrap();
        let doc = render(&pd_cell(
            &cell("zipf-services"),
            &cell("zipf-services-large"),
            &cell("euclid-grid-large"),
            &cell("euclid-grid-large"),
        ))
        .unwrap();
        assert_eq!(
            key_sets(&doc),
            key_sets(include_str!("../../../BENCH_pd.json"))
        );
    }

    #[test]
    fn sweep_emit_has_the_committed_key_set() {
        let doc = sweep_json(&tiny_profile(), 7, 1, 1).unwrap();
        assert_eq!(
            key_sets(&doc),
            key_sets(include_str!("../../../BENCH_sweep.json"))
        );
    }

    #[test]
    fn serve_emit_has_the_committed_key_set() {
        let doc = render(&serve_cell(&serve_bench(2, &tiny_profile(), 1).unwrap())).unwrap();
        assert_eq!(
            key_sets(&doc),
            key_sets(include_str!("../../../BENCH_serve.json"))
        );
    }

    #[test]
    fn opt_emit_has_the_committed_key_set() {
        // Every family already certifies at one point, one service and one
        // request, the smallest profile there is.
        let profile = CatalogProfile {
            points: 1,
            services: 1,
            requests: 1,
        };
        let cells = OPT_FAMILIES
            .iter()
            .map(|name| opt_bench(name, &profile).unwrap())
            .collect::<Vec<_>>();
        let doc = render(&opt_cell(&cells, &profile)).unwrap();
        assert_eq!(
            key_sets(&doc),
            key_sets(include_str!("../../../BENCH_opt.json"))
        );
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        assert!(parse_flat("{").is_err());
        assert!(parse_flat(r#"{ "a": }"#).is_err());
        assert!(parse_flat(r#"{ "a": 1 } trailing"#).is_err());
        assert!(parse_flat(r#"{ "a": "b\"c" }"#).is_err());
    }
}
