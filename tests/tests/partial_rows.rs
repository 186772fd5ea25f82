//! Locksteps for the large-metric serve path: kd-bounded partial row
//! fills and the sharded, f32-screened freeze walk.
//!
//! From `PARTIAL_ROW_MIN_POINTS` up (forced on here via
//! `PdConfig::partial_row_min_points` so CI-sized metrics exercise it) the
//! engine no longer fills a full `|M|`-entry distance row per arrival — it
//! fills only the coverage set `OpeningTargetIndex::query_scan_cover`
//! predicts from the prepared per-block bounds, and reinvests the freeze
//! caps through a sharded walk that screens each block with certified f32
//! brackets before confirming survivors exactly. Both are *execution*
//! choices, never algorithmic ones: every covered entry is the verbatim
//! metric value, the predicted cover is a superset of what the pruned
//! scans can read, the freeze update set is exactly `{p : d < cap}`
//! however it is narrowed, and the shard partition is a pure function of
//! the block count. So the engine must be bit-for-bit indistinguishable —
//! per-arrival outcomes, dual sums, total costs, and with every fast path
//! forced, the final bid matrices and every frozen dual and cap — from the
//! `NaivePd` reference at 1, 2, 7, or 16 threads, on every family
//! including the id-scattered adversary.
//!
//! Openings never fill full rows on this path: the nearest-open fold and
//! the cap-shrink walks read a row only where the backend already holds it
//! in full, and call the metric on the surviving blocks otherwise.

use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::naive::NaivePd;
use omfl_core::pd::{PdConfig, PdOmflp};
use omfl_workload::catalog::{by_name, CatalogProfile};
use omfl_workload::Scenario;
use proptest::prelude::*;

/// An engine with the partial-row path forced on and the scan pool and
/// shard size pinned.
fn forced_engine(sc: &Scenario, threads: usize, shard_blocks: usize) -> PdOmflp<'_> {
    let config = PdConfig {
        scan_threads: Some(threads),
        shard_blocks,
        partial_row_min_points: 0,
        ..PdConfig::default()
    };
    PdOmflp::with_config(sc.instance(), config).expect("valid forced config")
}

/// Serves one scenario on the engine and on `NaivePd` in lockstep;
/// everything observable must agree bit for bit.
fn assert_serve_lockstep(sc: &Scenario, mut tuned: PdOmflp<'_>, label: &str) {
    let mut reference = NaivePd::new(sc.instance());
    for (step, r) in sc.requests.iter().enumerate() {
        let a = tuned.serve(r).unwrap_or_else(|e| panic!("{label}: {e}"));
        let b = reference
            .serve(r)
            .unwrap_or_else(|e| panic!("{label}: reference: {e}"));
        assert_eq!(a, b, "{label}: outcome diverged at arrival {step}");
    }
    assert_eq!(
        tuned.dual_sum().to_bits(),
        reference.dual_sum().to_bits(),
        "{label}: dual sums diverged"
    );
    assert_eq!(
        tuned.solution().total_cost().to_bits(),
        reference.solution().total_cost().to_bits(),
        "{label}: costs diverged"
    );
}

#[test]
fn partial_rows_and_sharded_freeze_lockstep_at_every_thread_count() {
    // euclid-grid-large at points=40 → |M| = 2560: past the dense cap, so
    // the stock engine runs the blocked backend over the radius-bounded
    // layout — partial rows and the sharded screened freeze are live.
    // NaivePd fills complete rows and freezes with the serial full walk;
    // both must replay identically at every pool size (the freeze walk
    // shares the scan pool, so the extremes exercise it too).
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 100,
    };
    let sc = by_name("euclid-grid-large")
        .unwrap()
        .build(&profile, 7)
        .expect("euclid-grid-large");
    for threads in [1usize, 2, 7, 16] {
        let tuned = forced_engine(&sc, threads, 16);
        assert!(
            tuned.partial_rows_active(),
            "blocked backend + bounded layout must enable partial rows"
        );
        assert_serve_lockstep(&sc, tuned, &format!("partial t={threads}"));
    }
}

#[test]
fn cold_scatter_adversary_locksteps_without_promoting_partial_rows() {
    // The id-scattered adversary defeats id-order pruning entirely, so its
    // coverage sets are the least block-aligned the catalog produces; its
    // region-hopping queries also open facilities often. Openings fold and
    // shrink through block-pruned pointwise reads, never through a full
    // row, so no partial row may ever be promoted. Lockstep must hold.
    let profile = CatalogProfile {
        points: 40, // × 32 scale → 1280 points, past the dense cap
        services: 8,
        requests: 120,
    };
    let sc = by_name("cold-scatter-large")
        .unwrap()
        .build(&profile, 13)
        .expect("cold-scatter-large");
    let mut tuned = forced_engine(&sc, 7, 2);
    assert!(tuned.partial_rows_active());
    let mut reference = NaivePd::new(sc.instance());
    for (step, r) in sc.requests.iter().enumerate() {
        let a = tuned
            .serve(r)
            .unwrap_or_else(|e| panic!("cold-scatter: {e}"));
        let b = reference
            .serve(r)
            .unwrap_or_else(|e| panic!("cold-scatter reference: {e}"));
        assert_eq!(a, b, "cold-scatter: outcome diverged at arrival {step}");
    }
    assert_eq!(
        tuned.solution().total_cost().to_bits(),
        reference.solution().total_cost().to_bits(),
        "cold-scatter: costs diverged"
    );
    let promotions = tuned
        .row_fallback_promotions()
        .expect("blocked backend exposes the fallback counter");
    let (hits, misses, _) = tuned.distance_cache_stats().expect("blocked stats");
    assert!(
        hits + misses > 0,
        "the partial-row path must have touched the cache"
    );
    // An opening's fold and cap-shrink walks read a row only when the
    // backend already holds it in full; otherwise they call the metric on
    // the blocks that can change. So on the partial-row path nothing ever
    // asks the cache for a full row of a partially covered location. (The
    // blocked-cache unit tests still force the fallback deterministically.)
    assert!(
        tuned.facility_index().openings() > 0,
        "the adversary must open facilities"
    );
    assert_eq!(
        promotions, 0,
        "no opening on the partial-row path may fill a full row"
    );
}

#[test]
fn forced_fast_paths_match_naive_bids_duals_and_caps_bit_for_bit() {
    // Every fast path at once — partial rows from the first point, an
    // oversubscribed 7-thread pool, 2-block shards — on the three large
    // families past the dense cap. Beyond outcomes, the whole frozen dual
    // state must match NaivePd: every past request's duals and caps, and
    // every cell of both bid matrices.
    let profile = CatalogProfile {
        points: 40,
        services: 8,
        requests: 120,
    };
    for name in [
        "zipf-services-large",
        "euclid-grid-large",
        "cold-scatter-large",
    ] {
        let sc = by_name(name).unwrap().build(&profile, 19).expect(name);
        let inst = sc.instance();
        assert!(
            inst.num_points() > omfl_core::pd::DENSE_DISTANCE_CAP,
            "{name}: profile failed to cross the dense cap"
        );
        let mut fast = forced_engine(&sc, 7, 2);
        let mut naive = NaivePd::new(inst);
        for (step, r) in sc.requests.iter().enumerate() {
            let a = fast.serve(r).unwrap_or_else(|e| panic!("{name}: {e}"));
            let b = naive
                .serve(r)
                .unwrap_or_else(|e| panic!("{name}: naive: {e}"));
            assert_eq!(a, b, "{name}: outcome diverged at arrival {step}");
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(fast.past_requests().len(), naive.past_requests().len());
        for (i, (fp, np)) in fast
            .past_requests()
            .iter()
            .zip(naive.past_requests())
            .enumerate()
        {
            assert_eq!(fp.commodities, np.commodities, "{name}: request {i}");
            assert_eq!(bits(&fp.duals), bits(&np.duals), "{name}: duals of {i}");
            assert_eq!(bits(&fp.caps), bits(&np.caps), "{name}: caps of {i}");
            assert_eq!(
                fp.cap_total.to_bits(),
                np.cap_total.to_bits(),
                "{name}: joint cap of {i}"
            );
        }
        // The engine keeps B commodity-major (`e·|M| + m`), NaivePd
        // point-major (`m·|S| + e`).
        let (m, s) = (inst.num_points(), inst.num_commodities());
        let (fb, fbh) = fast.bids();
        let (nb, nbh) = naive.bids();
        for p in 0..m {
            for e in 0..s {
                assert_eq!(
                    fb[e * m + p].to_bits(),
                    nb[p * s + e].to_bits(),
                    "{name}: B[{p}][{e}]"
                );
            }
            assert_eq!(fbh[p].to_bits(), nbh[p].to_bits(), "{name}: B-hat[{p}]");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random (large family, seed, threads, shard size) cells past the
    /// dense cap: the partial-row engine must be indistinguishable from
    /// `NaivePd`. Thread counts beyond the machine's cores are
    /// deliberate — oversubscription must not be observable either.
    #[test]
    fn random_partial_row_configurations_never_change_outcomes(
        family_idx in 0usize..64,
        seed in 0u64..10_000,
        threads in 1usize..9,
        shard_blocks in 1usize..40,
        points in 33usize..44,
        services in 2u16..8,
        requests in 20usize..60,
    ) {
        let families = ["zipf-services-large", "euclid-grid-large", "cold-scatter-large"];
        let name = families[family_idx % families.len()];
        let profile = CatalogProfile { points, services, requests };
        let sc = by_name(name).unwrap().build(&profile, seed).unwrap();
        let tuned = forced_engine(&sc, threads, shard_blocks);
        prop_assert!(tuned.partial_rows_active(), "{name} must cross the dense cap");
        let label = format!("{name} t={threads} sb={shard_blocks}");
        assert_serve_lockstep(&sc, tuned, &label);
    }
}
