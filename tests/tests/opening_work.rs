//! The per-opening work of the PD engine: the block-pruned nearest-open
//! fold and the cap-shrink walks.
//!
//! An opening changes only the cached nearest distances of the points it
//! is now closest to (its Voronoi cell) and only the bids of requests whose
//! cap it lowers. `FacilityIndex` with an attached block layout skips every
//! block whose distance lower bound already meets the block's largest
//! cached distance, and `PastIndex::shrink_bids` walks only the blocks that
//! can hold `d < old cap`. Both are per-entry, order-free updates, so:
//!
//! * a layout-attached `FacilityIndex` must hold bit-identical caches to a
//!   plain one after every opening, on every metric family, with exact
//!   ties, under the unbounded identity layout and arbitrary relabelings,
//!   and with the full-row folds interleaved;
//! * the work counters are deterministic — equal at every scan-thread
//!   count — and the fold visits at most a tenth of `|M|` per opening on
//!   a large grid, where the plain walk visits all of it.

use omfl_commodity::cost::CostModel;
use omfl_commodity::CommodityId;
use omfl_core::algorithm::OnlineAlgorithm;
use omfl_core::index::{FacilityIndex, OpeningTargetIndex};
use omfl_core::instance::Instance;
use omfl_core::pd::{PdConfig, PdOmflp};
use omfl_core::solution::FacilityId;
use omfl_metric::euclidean::{EuclideanMetric, Norm};
use omfl_metric::graph::GraphMetric;
use omfl_metric::line::LineMetric;
use omfl_metric::tree::TreeMetric;
use omfl_metric::{Metric, PointId};
use omfl_workload::catalog::{by_name, CatalogProfile};
use proptest::prelude::*;

/// Deterministic xorshift for the drives below.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// A metric of family `kind` over `n` points whose coordinates (or edge
/// weights) come from a coarse grid, so exact distance ties and duplicate
/// points (distance 0) are common.
fn metric(kind: usize, n: usize, st: &mut u64) -> Box<dyn Metric> {
    match kind {
        0 => {
            let pos = (0..n).map(|_| (next(st) % 9) as f64 * 0.5).collect();
            Box::new(LineMetric::new(pos).unwrap())
        }
        1 => {
            let pts: Vec<Vec<f64>> = (0..n)
                .map(|_| vec![(next(st) % 7) as f64, (next(st) % 7) as f64])
                .collect();
            Box::new(EuclideanMetric::new(&pts, Norm::L2).unwrap())
        }
        2 => {
            // Zero-weight edges make duplicate points.
            let parents: Vec<Option<(u32, f64)>> = (0..n)
                .map(|v| (v > 0).then(|| ((next(st) % v as u64) as u32, (next(st) % 3) as f64)))
                .collect();
            Box::new(TreeMetric::new(&parents).unwrap())
        }
        _ => {
            let mut edges: Vec<(u32, u32, f64)> = (1..n as u32)
                .map(|v| ((next(st) % v as u64) as u32, v, 1.0 + (next(st) % 3) as f64))
                .collect();
            for _ in 0..n {
                let (u, v) = ((next(st) % n as u64) as u32, (next(st) % n as u64) as u32);
                if u != v {
                    edges.push((u, v, 1.0 + (next(st) % 3) as f64));
                }
            }
            Box::new(GraphMetric::from_edges(n, &edges).unwrap())
        }
    }
}

/// The opening-target index whose layout the pruned fold adopts: the
/// metric's coherent order, the unbounded identity layout, or a random
/// relabeling.
fn targets(inst: &Instance, layout: usize, st: &mut u64) -> OpeningTargetIndex {
    let (m, s) = (inst.num_points(), inst.num_commodities());
    let (f_small, f_full) = (vec![1.0; m * s], vec![2.0; m]);
    match layout {
        0 => OpeningTargetIndex::for_instance(inst, &f_small, &f_full),
        1 => OpeningTargetIndex::new(m, s, &f_small, &f_full),
        _ => {
            let mut order: Vec<u32> = (0..m as u32).collect();
            for i in (1..m).rev() {
                order.swap(i, (next(st) % (i as u64 + 1)) as usize);
            }
            OpeningTargetIndex::with_order(inst, &f_small, &f_full, order)
        }
    }
}

/// Every cache entry of both indices, bit for bit.
fn assert_same_caches(a: &FacilityIndex, b: &FacilityIndex, m: usize, s: usize, label: &str) {
    let key = |x: Option<(FacilityId, f64)>| x.map(|(f, d)| (f.0, d.to_bits()));
    for p in 0..m as u32 {
        let p = PointId(p);
        assert_eq!(
            key(a.nearest_large(p)),
            key(b.nearest_large(p)),
            "{label}: large {p:?}"
        );
        for e in 0..s as u16 {
            let e = CommodityId(e);
            assert_eq!(
                key(a.nearest_small(e, p)),
                key(b.nearest_small(e, p)),
                "{label}: small {e:?} at {p:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A layout-attached index and a plain one, fed the same openings —
    /// pointwise, with a supplied row, and through the full-row folds —
    /// hold bit-identical `small_d`/`small_f`/`large_d`/`large_f` after
    /// every opening.
    #[test]
    fn pruned_fold_locksteps_with_the_plain_fold(
        kind in 0usize..4,
        layout in 0usize..3,
        n in 2usize..90,
        s in 1u16..4,
        openings in 1usize..40,
        seed in 0u64..1_000_000,
    ) {
        let mut st = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let inst = Instance::new(metric(kind, n, &mut st), s, CostModel::power(s, 1.0, 2.0)).unwrap();
        let idx = targets(&inst, layout, &mut st);
        let mut pruned = FacilityIndex::for_instance(&inst);
        pruned.attach_layout(&idx);
        let mut plain = FacilityIndex::for_instance(&inst);
        let mut row = vec![0.0; n];
        for k in 0..openings {
            let at = PointId((next(&mut st) % n as u64) as u32);
            let e = (!next(&mut st).is_multiple_of(3))
                .then(|| CommodityId((next(&mut st) % s as u64) as u16));
            let fid = FacilityId(k as u32);
            inst.fill_row(at, &mut row);
            match next(&mut st) % 4 {
                0 => {
                    pruned.note_opening(&inst, Some(&row), e, at, fid);
                    plain.note_opening(&inst, None, e, at, fid);
                }
                1 => {
                    // A full-row fold leaves the block maxima stale-high.
                    match e {
                        Some(e) => pruned.note_small_opening_with_row(&row, e, fid),
                        None => pruned.note_large_opening_with_row(&row, fid),
                    }
                    plain.note_opening(&inst, None, e, at, fid);
                }
                _ => {
                    match e {
                        Some(e) => pruned.note_small_opening(&inst, e, at, fid),
                        None => pruned.note_large_opening(&inst, at, fid),
                    }
                    match e {
                        Some(e) => plain.note_small_opening_with_row(&row, e, fid),
                        None => plain.note_large_opening_with_row(&row, fid),
                    }
                }
            }
            let label = format!("kind {kind} layout {layout} opening {k}");
            assert_same_caches(&pruned, &plain, n, s as usize, &label);
        }
        prop_assert_eq!(pruned.openings(), plain.openings());
        prop_assert_eq!(plain.blocks_skipped(), 0);
        prop_assert_eq!(plain.points_folded(), (openings * n) as u64);
        prop_assert!(pruned.points_folded() <= plain.points_folded());
    }
}

#[test]
fn pruned_fold_skips_blocks_outside_the_voronoi_cell() {
    // Openings spread over a line: after the first few, each new facility
    // is closest only to its neighbourhood, and the fold must skip the
    // far blocks while staying bit-identical to the plain walk.
    let n = 1024;
    let inst = Instance::new(
        Box::new(LineMetric::uniform(n, 1000.0).unwrap()),
        1,
        CostModel::power(1, 1.0, 2.0),
    )
    .unwrap();
    let idx = OpeningTargetIndex::for_instance(&inst, &vec![1.0; n], &vec![2.0; n]);
    let mut pruned = FacilityIndex::for_instance(&inst);
    pruned.attach_layout(&idx);
    let mut plain = FacilityIndex::for_instance(&inst);
    let e = CommodityId(0);
    for k in 0..64u32 {
        let at = PointId((k * 389) % n as u32);
        pruned.note_small_opening(&inst, e, at, FacilityId(k));
        plain.note_small_opening(&inst, e, at, FacilityId(k));
    }
    assert_same_caches(&pruned, &plain, n, 1, "line");
    assert!(pruned.blocks_skipped() > 0, "the prune never engaged");
    assert!(
        pruned.points_folded() * 4 < plain.points_folded(),
        "the pruned fold visited {} of {} entries",
        pruned.points_folded(),
        plain.points_folded()
    );
}

#[test]
fn opening_work_counters_are_thread_independent_and_bounded() {
    // euclid-grid-large at points = 256 → |M| = 16384. The fold visits
    // only the blocks that can change: at most a tenth of the |M| entries
    // per opening the plain walk visits. Every counter is a pure function
    // of the stream, so all of them agree at every scan-thread count.
    let profile = CatalogProfile {
        points: 256,
        services: 8,
        requests: 4096,
    };
    let sc = by_name("euclid-grid-large")
        .unwrap()
        .build(&profile, 1)
        .expect("euclid-grid-large");
    let m = sc.instance().num_points();
    assert_eq!(m, 16384);
    let mut seen = None;
    for threads in [1usize, 2, 7, 16] {
        let config = PdConfig {
            scan_threads: Some(threads),
            ..PdConfig::default()
        };
        let mut pd = PdOmflp::with_config(sc.instance(), config).unwrap();
        for r in &sc.requests {
            pd.serve(r).unwrap();
        }
        let fi = pd.facility_index();
        let counts = (
            fi.openings(),
            fi.points_folded(),
            fi.blocks_skipped(),
            fi.rows_filled(),
            pd.past_index().shrink_entries(),
            pd.past_index().stats(),
            pd.solution().total_cost().to_bits(),
        );
        let (openings, folded) = (counts.0 as u64, counts.1);
        assert!(openings > 0, "the stream must open facilities");
        assert!(
            folded * 10 <= m as u64 * openings,
            "fold visited {folded} entries over {openings} openings at |M| = {m}"
        );
        match &seen {
            None => seen = Some(counts),
            Some(first) => assert_eq!(&counts, first, "counters moved at {threads} threads"),
        }
    }
}
