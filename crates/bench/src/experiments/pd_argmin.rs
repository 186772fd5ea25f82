//! `pd-argmin` — the incremental t3/t4 opening-target index at large |M|.
//!
//! With the facility index in place, the remaining `O(k·|M|)` per-arrival
//! term of PD serve was the t3/t4 opening-target scans over
//! `(f − B)⁺ + d(m, r)`. This
//! experiment measures what the engine — the block-pruned argmin
//! (`omfl_core::index::OpeningTargetIndex`, a bucketed lower-bound prune
//! list), the blocked distance-row cache (`omfl_metric::blocked`) and the
//! rest of the index layer — buys on the large-metric catalog families,
//! against the linear-scan reference engine `omfl_core::naive::NaivePd`.
//! The two engines are bit-identical (the differential and lockstep suites
//! prove it, and the shared harness cross-checks every timed pair), so the
//! comparison is pure data-structure cost.
//!
//! Reported per family: |M|, requests, `NaivePd` and engine ms/run, the
//! speedup, the share of opening-target blocks the prune skipped, and the
//! blocked row-cache hit rate (dense-backend cells show "-").
//!
//! The measurement protocol is [`crate::perfjson::paired_pd_timing`] — the
//! same harness that produces the gated paired cells of `BENCH_pd.json`.

use crate::perfjson::{paired_pd_timing, PairedPdTiming};
use crate::table::{fmt, Table};
use omfl_workload::catalog::CatalogProfile;

fn measure(family: &'static str, profile: &CatalogProfile, repeats: usize) -> PairedPdTiming {
    paired_pd_timing(family, profile, repeats).expect("paired PD timing")
}

/// Runs the experiment.
pub fn run(quick: bool) -> Vec<Table> {
    let cells: Vec<(&str, PairedPdTiming)> = if quick {
        // Matches perfjson::pd_large_profile / pd_euclid_large_profile, the
        // gated BENCH_pd.json cells: the steady-state tail (most arrivals
        // after facilities stabilize) is where the argmin index pays, so
        // short streams undersell it.
        vec![
            (
                "zipf-services-large",
                measure(
                    "zipf-services-large",
                    &CatalogProfile {
                        points: 128, // × 32 scale → |M| = 4096
                        services: 64,
                        requests: 4096,
                    },
                    3,
                ),
            ),
            (
                "euclid-grid-large",
                measure(
                    "euclid-grid-large",
                    &CatalogProfile {
                        points: 256, // × 64 scale → |M| = 16384
                        services: 64,
                        requests: 4096,
                    },
                    3,
                ),
            ),
        ]
    } else {
        vec![
            (
                "zipf-services-large",
                measure(
                    "zipf-services-large",
                    &CatalogProfile {
                        points: 128,
                        services: 64,
                        requests: 4096,
                    },
                    5,
                ),
            ),
            (
                "euclid-grid-large",
                measure(
                    "euclid-grid-large",
                    &CatalogProfile {
                        points: 256, // × 64 scale → |M| = 16384
                        services: 64,
                        requests: 4096,
                    },
                    3,
                ),
            ),
            (
                // The id-order adversary: ids random w.r.t. space and every
                // query cold — the distance-free bounds see nothing, so the
                // skip rate here is purely the relabeled radius bounds.
                "cold-scatter-large",
                measure(
                    "cold-scatter-large",
                    &CatalogProfile {
                        points: 128, // × 32 scale → |M| = 4096
                        services: 64,
                        requests: 4096,
                    },
                    3,
                ),
            ),
        ]
    };

    let mut t = Table::new(
        "PD opening targets: incremental argmin + blocked rows vs NaivePd",
        &[
            "family", "|M|", "requests", "naive ms", "incr ms", "speedup", "blk skip", "row hit",
        ],
    );
    for (family, c) in &cells {
        t.row(&[
            family.to_string(),
            c.points.to_string(),
            c.requests.to_string(),
            fmt(c.naive.mean * 1e3),
            fmt(c.incremental.mean * 1e3),
            format!("{:.2}x", c.naive.mean / c.incremental.mean),
            format!("{:.1}%", 100.0 * c.block_skip_rate),
            c.row_hit_rate
                .map_or_else(|| "-".to_string(), |r| format!("{:.1}%", 100.0 * r)),
        ]);
    }
    vec![t]
}
