//! The four workloads, their repetitions, checks and metrics.
//!
//! Every workload is a set of tenant scenarios plus one arrival order over
//! them. A repetition ("rep") builds the scenarios, constructs the engines,
//! serves the arrivals and checks the outputs. The untraced run repeats
//! untraced reps and reports the end-to-end metrics as medians over reps;
//! the traced run alternates untraced and traced reps and reports the
//! per-layer metrics from the traced ones. README.md says why each
//! workload and metric exists.

use crate::stats::{median, peak_rss_mb, percentile};
use crate::trace::{Span, Trace};
use omfl_baselines::offline::ExactSolver;
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::index::FacilityIndex;
use omfl_core::pd::PdOmflp;
use omfl_metric::PointId;
use omfl_par::{seed_for, TaskPool};
use omfl_serve::{ServeConfig, ServeReport, ServeTelemetry, Server, SnapshotHandle};
use omfl_sim::{ArrivalSource, Engine};
use omfl_workload::{catalog, CatalogProfile, Family, Scenario};
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["pd-open-64k", "pd-cold-16k", "serve-fleet", "opt-200"];

/// End-to-end metrics `(name, unit)`, reported by the untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("arrivals_per_s", "1/s"),
    ("arrival_p50_us", "us"),
    ("arrival_p99_us", "us"),
    ("ratio_dual", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 25] = [
    ("workload.build_s", "s"),
    ("metric.fill_row_us", "us"),
    ("pd.new_s", "s"),
    ("pd.open_arrivals", "count"),
    ("pd.facilities", "count"),
    ("pd.open_time_share", "fraction"),
    ("pd.open_arrival_p50_us", "us"),
    ("pd.quiet_arrival_p50_us", "us"),
    ("index.fold_us", "us"),
    ("index.fold_share", "fraction"),
    ("serve.new_s", "s"),
    ("serve.loop_s", "s"),
    ("serve.finish_s", "s"),
    ("serve.direct_arrivals_per_s", "1/s"),
    ("serve.mux_ns_per_arrival", "ns"),
    ("serve.backpressure_waits", "count"),
    ("serve.latency_p50_ns", "ns"),
    ("serve.latency_p99_ns", "ns"),
    ("opt.nodes_expanded", "count"),
    ("opt.solve_s", "s"),
    ("opt.solve_s.zipf-services", "s"),
    ("opt.solve_s.tree-hierarchy", "s"),
    ("opt.solve_s.euclid-clusters", "s"),
    ("opt.ratio_opt", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Families of the opt-200 panel.
const OPT_FAMILIES: [&str; 3] = ["zipf-services", "tree-hierarchy", "euclid-clusters"];

/// Catalog seed of the opt-200 panel. The panel is fixed: branch-and-bound
/// node counts swing from 1 to over 1000 between seeds, so a seed-drawn
/// panel would make solve time a function of the seed (README.md).
const OPT_PANEL_SEED: u64 = 404;

/// Node budget of every exact solve.
const OPT_NODE_BUDGET: u64 = 5_000;

/// Reps of each kind a run makes even when `--seconds` is already spent.
const MIN_REPS: usize = 3;

/// Sampled `nearest_offering` lookups per tenant in the index replay check.
const INDEX_SAMPLES: usize = 4096;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PdOpen,
    PdCold,
    Fleet,
    Opt,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Self> {
        let all = [Self::PdOpen, Self::PdCold, Self::Fleet, Self::Opt];
        WORKLOADS.iter().position(|w| *w == name).map(|i| all[i])
    }
}

/// Input sizes: `Full` is the benchmark, `Tiny` the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// A deliberate defect, for the self-test of the correctness checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Flips the last bit of tenant 0's cost in the second rep.
    CorruptCost,
    /// Solves with a node budget of zero, so no solve certifies.
    Uncertify,
}

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub fault: Option<Fault>,
    /// Where the traced run writes its spans; `None` keeps them in memory.
    pub trace_dir: Option<PathBuf>,
}

/// What one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, one line each.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in the order of [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Run facts that are not metrics (thread counts, rep counts).
    pub info: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.1)
    }
}

/// The workload's inputs, generated from the seed before any timing.
struct Plan {
    tenants: Vec<(Family, CatalogProfile, u64)>,
    source: ArrivalSource,
    /// Setups per untraced rep (more than one only where a setup is short).
    setups_per_rep: usize,
    /// Engine passes over the arrivals per untraced rep (more than one only
    /// where a pass is short).
    passes_per_rep: usize,
}

fn family(name: &str) -> Family {
    catalog::by_name(name).expect("catalog family")
}

fn profile(points: usize, services: u16, requests: usize) -> CatalogProfile {
    CatalogProfile {
        points,
        services,
        requests,
    }
}

fn plan(cfg: &Config) -> Result<Plan, String> {
    let tiny = cfg.scale == Scale::Tiny;
    let seed = cfg.seed;
    let (tenants, setups_per_rep, passes_per_rep) = match cfg.workload {
        Workload::PdOpen => {
            let p = if tiny {
                profile(16, 8, 256)
            } else {
                profile(1024, 8, 4096)
            };
            (vec![(family("euclid-grid-large"), p, seed)], 1, 1)
        }
        Workload::PdCold => {
            let p = if tiny {
                profile(16, 8, 256)
            } else {
                profile(512, 64, 16384)
            };
            (vec![(family("cold-scatter-large"), p, seed)], 1, 1)
        }
        Workload::Fleet => {
            let (n, p) = if tiny {
                (4, profile(16, 8, 64))
            } else {
                (64, profile(128, 8, 8192))
            };
            let f = family("zipf-services");
            let tenants = (0..n)
                .map(|t| (f, p.clone(), seed_for(seed, t as u64)))
                .collect();
            (tenants, 1, 1)
        }
        Workload::Opt => {
            let p = if tiny {
                profile(24, 4, 12)
            } else {
                profile(200, 6, 48)
            };
            let tenants = OPT_FAMILIES
                .iter()
                .map(|name| (family(name), p.clone(), OPT_PANEL_SEED))
                .collect();
            (tenants, 10, 50)
        }
    };
    // The stream lengths fix the arrival order; this build doubles as a
    // warm-up and is not timed.
    let lens = tenants
        .iter()
        .map(|(f, p, s)| f.build(p, *s).map(|sc| sc.len()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("scenario build failed: {e}"))?;
    let source = match cfg.workload {
        Workload::Fleet => ArrivalSource::interleaved(&lens, seed),
        _ => ArrivalSource::round_robin(&lens),
    };
    Ok(Plan {
        tenants,
        source,
        setups_per_rep,
        passes_per_rep,
    })
}

/// The multiplexer configuration of every workload.
fn serve_config() -> ServeConfig {
    ServeConfig {
        shards: 16,
        micro_batch: 1024,
        queue_capacity: 8192,
        deadline: None,
    }
}

/// Pool participants for `Server::serve`: the pool plus the server's own
/// ingest thread use at most every core of the machine.
fn serve_pool_threads() -> usize {
    available_parallelism().saturating_sub(1).max(1)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One rep's results.
#[derive(Debug, Default)]
struct Rep {
    traced: bool,
    setup_s: Vec<f64>,
    /// Arrivals per second of the workload's throughput phase.
    throughput: f64,
    /// Per-call engine latency percentiles (µs).
    p50_us: f64,
    p99_us: f64,
    ratio_dual: f64,
    /// Per-tenant total cost bits of the directly driven engines.
    costs: Vec<u64>,
    facilities: usize,
    /// Traced reps only: per-layer values in [`PER_LAYER`] order.
    layers: Vec<(&'static str, f64)>,
}

/// Directly driven engines over one pass of the arrival order.
struct Drive {
    wall_s: f64,
    lat_ns: Vec<u64>,
}

fn build(plan: &Plan, tr: &mut Trace) -> Result<Vec<Scenario>, String> {
    plan.tenants
        .iter()
        .enumerate()
        .map(|(t, (f, p, s))| {
            tr.time("omfl_workload", "Family::build", t, || f.build(p, *s))
                .0
        })
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("scenario build failed: {e}"))
}

fn new_engines<'a>(scenarios: &'a [Scenario], tr: &mut Trace) -> Vec<PdOmflp<'a>> {
    scenarios
        .iter()
        .enumerate()
        .map(|(t, sc)| {
            tr.time("omfl_core::pd", "PdOmflp::new", t, || {
                PdOmflp::new(sc.instance())
            })
            .0
        })
        .collect()
}

/// Serves every arrival in order, closed loop, with exactly two clock reads
/// per call.
fn drive(
    engines: &mut [PdOmflp<'_>],
    scenarios: &[Scenario],
    order: &[(u32, u32)],
    tr: &mut Trace,
    out: &mut Outcome,
) -> Drive {
    let mut lat_ns = Vec::with_capacity(order.len());
    let mut errors = 0u64;
    let started = Instant::now();
    for &(t, i) in order {
        let (t, i) = (t as usize, i as usize);
        let a = Instant::now();
        let served = engines[t].serve(&scenarios[t].requests[i]);
        let b = Instant::now();
        lat_ns.push((b - a).as_nanos() as u64);
        match served {
            Ok(o) => tr.push("omfl_core::pd", "serve", t, a, b, !o.opened.is_empty()),
            Err(_) => errors += 1,
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    out.attempted += order.len() as u64;
    out.failed += errors;
    if errors > 0 {
        out.problems
            .push(format!("{errors} engine errors while serving"));
    }
    Drive { wall_s, lat_ns }
}

/// Verifies every solution and returns per-tenant cost bits, the worst
/// `cost / scaled_dual_lower_bound`, and the facility count.
fn check_engines(
    engines: &[PdOmflp<'_>],
    scenarios: &[Scenario],
    out: &mut Outcome,
) -> (Vec<u64>, f64, usize) {
    let mut costs = Vec::with_capacity(engines.len());
    let mut worst: f64 = 0.0;
    let mut facilities = 0;
    for (t, (pd, sc)) in engines.iter().zip(scenarios).enumerate() {
        let sol = pd.solution();
        if let Err(e) = sol.verify(sc.instance()) {
            out.problems
                .push(format!("tenant {t}: solution does not verify: {e}"));
        }
        if sol.num_requests() != sc.len() {
            out.problems.push(format!(
                "tenant {t}: {} of {} requests served",
                sol.num_requests(),
                sc.len()
            ));
        }
        let snap = pd.snapshot();
        worst = worst.max(snap.total_cost() / snap.dual_lower_bound);
        costs.push(sol.total_cost().to_bits());
        facilities += sol.facilities().len();
    }
    (costs, worst, facilities)
}

/// Replays every engine's openings, in order, into a fresh
/// [`FacilityIndex`] through full metric rows, and checks the replayed
/// index against the engine's on sampled `nearest_offering` lookups.
fn replay(engines: &[PdOmflp<'_>], seed: u64, tr: &mut Trace, out: &mut Outcome) {
    for (t, pd) in engines.iter().enumerate() {
        let inst = pd.instance();
        let (m, s) = (inst.num_points(), inst.num_commodities());
        let mut index = FacilityIndex::for_instance(inst);
        let mut row = vec![0.0; m];
        for f in pd.solution().facilities() {
            let a = Instant::now();
            inst.fill_row(f.location, &mut row);
            let b = Instant::now();
            tr.push("omfl_metric", "Instance::fill_row", t, a, b, false);
            let small = f.config.len() == 1;
            let c = Instant::now();
            match f.config.iter().next() {
                Some(e) if small => index.note_small_opening_with_row(&row, e, f.id),
                _ => index.note_large_opening_with_row(&row, f.id),
            }
            let d = Instant::now();
            tr.push(
                "omfl_core::index",
                "FacilityIndex::note_opening",
                t,
                c,
                d,
                small,
            );
        }
        let live = pd.facility_index();
        let mut bad = usize::from(index.openings() != live.openings());
        for k in 0..INDEX_SAMPLES.min(m * s) {
            let h = seed_for(seed ^ t as u64, k as u64);
            let p = PointId((h % m as u64) as u32);
            let e = omfl_commodity::CommodityId(((h >> 32) % s as u64) as u16);
            let key = |x: Option<(omfl_core::solution::FacilityId, f64)>| {
                x.map(|(f, d)| (f.0, d.to_bits()))
            };
            bad +=
                usize::from(key(index.nearest_offering(e, p)) != key(live.nearest_offering(e, p)));
        }
        if bad > 0 {
            out.problems.push(format!(
                "tenant {t}: replayed facility index disagrees on {bad} checks"
            ));
        }
    }
}

/// One `Server` run over the workload's scenarios.
struct ServeRun {
    new_s: f64,
    serve_s: f64,
    report: ServeReport,
    telemetry: ServeTelemetry,
    handles: Vec<SnapshotHandle>,
}

fn serve_layer(
    scenarios: &[Scenario],
    source: &ArrivalSource,
    pool: &TaskPool,
    tr: &mut Trace,
    out: &mut Outcome,
) -> Result<ServeRun, String> {
    let (server, new_s) = tr.time("omfl_serve", "Server::new", 0, || {
        Server::new(scenarios, Engine::Pd)
    });
    let server = server.map_err(|e| format!("Server::new failed: {e}"))?;
    let handles = (0..server.num_tenants())
        .map(|t| server.snapshot_handle(t))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("snapshot handle: {e}"))?;
    let (served, serve_s) = tr.time("omfl_serve", "Server::serve", 0, || {
        server.serve(source, &serve_config(), pool)
    });
    let (report, telemetry) = served.map_err(|e| format!("Server::serve failed: {e}"))?;
    let lost = source.len().saturating_sub(report.arrivals) as u64;
    let shed: u64 = telemetry.shed.iter().sum();
    out.attempted += source.len() as u64;
    out.failed += lost;
    if lost > 0 || shed > 0 || telemetry.ingest_gave_up || !report.quarantined.is_empty() {
        out.problems.push(format!(
            "server lost {lost} arrivals ({} quarantined tenants, {shed} shed, ingest gave up: {})",
            report.quarantined.len(),
            telemetry.ingest_gave_up
        ));
    }
    Ok(ServeRun {
        new_s,
        serve_s,
        report,
        telemetry,
        handles,
    })
}

/// Checks a server run against the directly driven engines of the same
/// streams: per-tenant cost bits and the published snapshots.
fn check_server(run: &ServeRun, engines: &[PdOmflp<'_>], costs: &[u64], out: &mut Outcome) {
    for (t, pd) in engines.iter().enumerate() {
        let served = run.report.tenants[t].total_cost.to_bits();
        if served != costs[t] {
            out.problems.push(format!(
                "tenant {t}: server cost differs from the direct engine's"
            ));
        }
        if *run.handles[t].read() != pd.snapshot() {
            out.problems.push(format!(
                "tenant {t}: published snapshot differs from the direct engine's"
            ));
        }
    }
}

/// Worst `cost / dual lower bound` over the server's published snapshots.
fn snapshot_ratio(run: &ServeRun) -> f64 {
    run.handles
        .iter()
        .map(|h| {
            let s = h.read();
            s.total_cost() / s.dual_lower_bound
        })
        .fold(0.0, f64::max)
}

/// The opt-200 solves: `(wall per family, total nodes, Σ certified OPT)`.
fn solve(
    cfg: &Config,
    scenarios: &[Scenario],
    tr: &mut Trace,
    out: &mut Outcome,
) -> (Vec<f64>, u64, f64) {
    let budget = if cfg.fault == Some(Fault::Uncertify) {
        0
    } else {
        OPT_NODE_BUDGET
    };
    let solver = ExactSolver {
        max_points: 512,
        node_budget: budget,
        ..ExactSolver::default()
    };
    let mut walls = Vec::with_capacity(scenarios.len());
    let (mut nodes, mut opt) = (0, 0.0);
    for (t, sc) in scenarios.iter().enumerate() {
        let start = Instant::now();
        let res = solver.solve_bounded(sc.instance(), &sc.requests);
        let end = Instant::now();
        walls.push((end - start).as_secs_f64());
        out.attempted += 1;
        let certified = match res {
            Ok(r) if r.certified() && r.gap == 0.0 => {
                nodes += r.nodes_expanded;
                opt += r.upper_bound;
                true
            }
            Ok(r) => {
                out.problems
                    .push(format!("{}: not certified (gap {})", sc.name, r.gap));
                false
            }
            Err(e) => {
                out.problems.push(format!("{}: solve failed: {e}", sc.name));
                false
            }
        };
        out.failed += u64::from(!certified);
        tr.push(
            "omfl_baselines::offline",
            "ExactSolver::solve_bounded",
            t,
            start,
            end,
            certified,
        );
    }
    (walls, nodes, opt)
}

fn secs_of<'s>(spans: &'s [Span], call: &'static str) -> impl Iterator<Item = &'s Span> + 's {
    spans.iter().filter(move |s| s.call == call)
}

fn sum_secs(spans: &[Span], call: &'static str) -> f64 {
    secs_of(spans, call).map(Span::secs).fold(0.0, |a, b| a + b)
}

fn median_us(spans: &[Span], call: &'static str, flag: Option<bool>) -> f64 {
    let us: Vec<f64> = secs_of(spans, call)
        .filter(|s| flag.is_none_or(|f| s.flag == f))
        .map(|s| s.secs() * 1e6)
        .collect();
    median(&us)
}

fn run_rep(
    cfg: &Config,
    plan: &Plan,
    pool: &TaskPool,
    traced: bool,
    rep_no: usize,
    tr: &mut Trace,
    out: &mut Outcome,
) -> Result<Rep, String> {
    let mut rep = Rep {
        traced,
        ..Rep::default()
    };
    let order = plan.source.order();
    let n = order.len();
    let setups = if traced { 1 } else { plan.setups_per_rep };
    let passes = if traced { 1 } else { plan.passes_per_rep };
    let fleet = cfg.workload == Workload::Fleet;

    // Extra setups of short-setup workloads, timed and discarded.
    for _ in 1..setups {
        let t0 = Instant::now();
        let scenarios = build(plan, &mut Trace::new(false))?;
        let engines = new_engines(&scenarios, &mut Trace::new(false));
        rep.setup_s.push(t0.elapsed().as_secs_f64());
        drop(engines);
    }

    let t0 = Instant::now();
    let scenarios = build(plan, tr)?;
    let mut server_run = None;
    let mut engines = if fleet {
        // The fleet's setup ends with `Server::new`; its serve phase is
        // the whole `Server::serve` call.
        let build_s = t0.elapsed().as_secs_f64();
        let run = serve_layer(&scenarios, &plan.source, pool, tr, out)?;
        rep.setup_s.push(build_s + run.new_s);
        rep.throughput = n as f64 / run.serve_s;
        server_run = Some(run);
        new_engines(&scenarios, tr)
    } else {
        let engines = new_engines(&scenarios, tr);
        rep.setup_s.push(t0.elapsed().as_secs_f64());
        engines
    };

    let mut lat_ns = Vec::with_capacity(n * passes);
    let mut direct_wall = 0.0;
    for pass in 0..passes {
        if pass > 0 {
            engines = new_engines(&scenarios, &mut Trace::new(false));
        }
        let d = drive(&mut engines, &scenarios, order, tr, out);
        direct_wall = d.wall_s;
        lat_ns.extend(d.lat_ns);
    }
    if !matches!(cfg.workload, Workload::Fleet | Workload::Opt) {
        rep.throughput = n as f64 / direct_wall;
    }
    rep.p50_us = percentile(&lat_ns, 0.50) as f64 * 1e-3;
    rep.p99_us = percentile(&lat_ns, 0.99) as f64 * 1e-3;

    let (mut costs, ratio, facilities) = check_engines(&engines, &scenarios, out);
    if cfg.fault == Some(Fault::CorruptCost) && rep_no == 1 {
        costs[0] ^= 1;
    }
    rep.ratio_dual = ratio;
    rep.facilities = facilities;
    if let Some(run) = &server_run {
        check_server(run, &engines, &costs, out);
        rep.ratio_dual = snapshot_ratio(run);
    }
    rep.costs = costs;

    let mut opt_walls = Vec::new();
    let (mut nodes, mut opt) = (0, 0.0);
    if cfg.workload == Workload::Opt {
        let (walls, nn, o) = solve(cfg, &scenarios, tr, out);
        rep.throughput = n as f64 / walls.iter().sum::<f64>();
        (opt_walls, nodes, opt) = (walls, nn, o);
        let pd_cost: f64 = rep.costs.iter().map(|&c| f64::from_bits(c)).sum();
        if opt > pd_cost * (1.0 + 1e-9) {
            out.problems
                .push(format!("certified OPT {opt} exceeds the PD cost {pd_cost}"));
        }
    }

    if traced {
        replay(&engines, cfg.seed, tr, out);
        if server_run.is_none() {
            let run = serve_layer(&scenarios, &plan.source, pool, tr, out)?;
            check_server(&run, &engines, &rep.costs, out);
            server_run = Some(run);
        }
        let run = server_run
            .as_ref()
            .expect("every traced rep runs the server");
        let spans = tr.spans();
        let serve_s = sum_secs(spans, "serve");
        let open_s = secs_of(spans, "serve")
            .filter(|s| s.flag)
            .map(Span::secs)
            .fold(0.0, |a, b| a + b);
        let open_arrivals = secs_of(spans, "serve").filter(|s| s.flag).count();
        let fold_s = sum_secs(spans, "FacilityIndex::note_opening");
        let solve_total = opt_walls.iter().fold(0.0, |a, b| a + b);
        // `opt_walls` follows `OPT_FAMILIES`; it is empty off opt-200.
        let solve_wall = |i: usize| opt_walls.get(i).copied().unwrap_or(0.0);
        let pd_cost: f64 = rep.costs.iter().map(|&c| f64::from_bits(c)).sum();
        rep.layers = vec![
            ("workload.build_s", sum_secs(spans, "Family::build")),
            (
                "metric.fill_row_us",
                median_us(spans, "Instance::fill_row", None),
            ),
            ("pd.new_s", sum_secs(spans, "PdOmflp::new")),
            ("pd.open_arrivals", open_arrivals as f64),
            ("pd.facilities", rep.facilities as f64),
            ("pd.open_time_share", open_s / serve_s),
            (
                "pd.open_arrival_p50_us",
                median_us(spans, "serve", Some(true)),
            ),
            (
                "pd.quiet_arrival_p50_us",
                median_us(spans, "serve", Some(false)),
            ),
            (
                "index.fold_us",
                median_us(spans, "FacilityIndex::note_opening", None),
            ),
            ("index.fold_share", fold_s / serve_s),
            ("serve.new_s", run.new_s),
            ("serve.loop_s", run.telemetry.wall_secs),
            ("serve.finish_s", run.serve_s - run.telemetry.wall_secs),
            ("serve.direct_arrivals_per_s", n as f64 / direct_wall),
            (
                "serve.mux_ns_per_arrival",
                (run.serve_s - direct_wall) / n as f64 * 1e9,
            ),
            (
                "serve.backpressure_waits",
                run.telemetry.backpressure_waits as f64,
            ),
            ("serve.latency_p50_ns", run.telemetry.latency_p50_ns as f64),
            ("serve.latency_p99_ns", run.telemetry.latency_p99_ns as f64),
            ("opt.nodes_expanded", nodes as f64),
            ("opt.solve_s", solve_total),
            ("opt.solve_s.zipf-services", solve_wall(0)),
            ("opt.solve_s.tree-hierarchy", solve_wall(1)),
            ("opt.solve_s.euclid-clusters", solve_wall(2)),
            ("opt.ratio_opt", if opt > 0.0 { pd_cost / opt } else { 0.0 }),
        ];
    }
    Ok(rep)
}

/// Runs one workload for `cfg.seconds` and returns its metrics.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let plan = plan(cfg)?;
    let pool = TaskPool::new(serve_pool_threads());
    let mut out = Outcome::default();
    let mut tr = Trace::new(false);
    let mut reps: Vec<Rep> = Vec::new();
    let started = Instant::now();
    loop {
        // The traced run alternates untraced and traced reps; the recorder
        // keeps the spans of the latest traced rep.
        let traced = cfg.trace && reps.len() % 2 == 1;
        let mut off = Trace::new(false);
        let rec = if traced {
            tr = Trace::new(true);
            &mut tr
        } else {
            &mut off
        };
        reps.push(run_rep(
            cfg,
            &plan,
            &pool,
            traced,
            reps.len(),
            rec,
            &mut out,
        )?);
        let kinds = if cfg.trace { 2 } else { 1 };
        if started.elapsed().as_secs_f64() >= cfg.seconds && reps.len() >= MIN_REPS * kinds {
            break;
        }
    }

    // Every rep must produce bit-identical costs.
    if reps.iter().any(|r| r.costs != reps[0].costs) {
        out.problems
            .push("costs differ between reps of the same seed".to_string());
    }
    let untraced: Vec<&Rep> = reps.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.traced).collect();
    let med =
        |rs: &[&Rep], f: fn(&Rep) -> f64| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());

    if cfg.trace {
        let overhead = med(&traced, |r| r.throughput) / med(&untraced, |r| r.throughput);
        for &(name, unit) in PER_LAYER.iter() {
            let value = match name {
                "trace.overhead" => overhead,
                _ => {
                    let vals: Vec<f64> = traced
                        .iter()
                        .map(|r| {
                            r.layers
                                .iter()
                                .find(|l| l.0 == name)
                                .map_or(f64::NAN, |l| l.1)
                        })
                        .collect();
                    median(&vals)
                }
            };
            out.metrics.push((name, value, unit));
        }
        if let Some(dir) = &cfg.trace_dir {
            let name = format!(
                "trace-{}-seed{}.csv",
                WORKLOADS[cfg.workload as usize], cfg.seed
            );
            tr.write_csv(&dir.join(name))
                .map_err(|e| format!("writing spans: {e}"))?;
        }
    } else {
        let setups: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.setup_s.iter().copied())
            .collect();
        for &(name, unit) in END_TO_END.iter() {
            let value = match name {
                "setup_s" => median(&setups),
                "arrivals_per_s" => med(&untraced, |r| r.throughput),
                "arrival_p50_us" => med(&untraced, |r| r.p50_us),
                "arrival_p99_us" => med(&untraced, |r| r.p99_us),
                "ratio_dual" => reps[0].ratio_dual,
                "peak_rss_mb" => peak_rss_mb(),
                _ => unreachable!("every end-to-end metric has a rule"),
            };
            out.metrics.push((name, value, unit));
        }
    }
    if reps
        .iter()
        .any(|r| r.ratio_dual.to_bits() != reps[0].ratio_dual.to_bits())
    {
        out.problems
            .push("ratio_dual differs between reps of the same seed".to_string());
    }
    for (name, value, _) in &out.metrics {
        if !value.is_finite() {
            out.problems.push(format!("metric {name} is not finite"));
        }
    }
    out.info = vec![
        ("workload", WORKLOADS[cfg.workload as usize].to_string()),
        ("seed", cfg.seed.to_string()),
        ("untraced_reps", untraced.len().to_string()),
        ("traced_reps", traced.len().to_string()),
        ("arrivals_per_rep", plan.source.len().to_string()),
        ("available_parallelism", available_parallelism().to_string()),
        ("pd_pool_threads", omfl_par::default_threads().to_string()),
        ("serve_pool_threads", pool.threads().to_string()),
    ];
    Ok(out)
}
