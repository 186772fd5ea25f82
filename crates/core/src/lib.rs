//! The Online Multi-Commodity Facility Location Problem (OMFLP).
//!
//! This crate implements the model and both online algorithms from
//! *"The Online Multi-Commodity Facility Location Problem"* (Castenow,
//! Feldkord, Knollmann, Malatyali, Meyer auf der Heide — SPAA 2020):
//!
//! * [`pd::PdOmflp`] — the deterministic primal–dual algorithm
//!   (Algorithm 1), `O(√|S| · log n)`-competitive;
//! * [`randalg::RandOmflp`] — the randomized algorithm (Algorithm 2),
//!   `O(√|S| · log n / log log n)`-competitive in expectation;
//! * [`heavy::HeavyExclusion`] — the §5 future-work wrapper that excludes
//!   "heavy" commodities violating Condition 1;
//! * [`transform`] — the §1.1 request-splitting reduction to the
//!   per-commodity connection-cost model;
//! * [`validate`] — an independent checker that re-derives the dual
//!   constraints (1)–(4) and verifies the invariants the analysis relies on;
//! * [`bounds`] — the closed-form bound curves of Theorems 2/4/18/19 and
//!   Figure 2, used by the experiment harness.
//!
//! # Model recap (paper §1.1)
//!
//! Requests arrive online at points of a finite metric space, each demanding
//! a set `sr ⊆ S` of commodities. The algorithm irrevocably opens facilities
//! `(m, σ)` (location + configuration) paying `f^σ_m`, and connects each
//! request to a set of facilities jointly offering `sr`, paying the sum of
//! distances to the *distinct* facilities used. Total cost = construction +
//! connection.

pub mod algorithm;
pub mod bounds;
pub mod heavy;
pub mod index;
pub mod instance;
mod kd;
#[cfg(feature = "naive-ref")]
pub mod naive;
pub mod pd;
pub mod randalg;
pub mod request;
pub mod solution;
pub mod transform;
pub mod validate;

use std::fmt;

/// Absolute tolerance used when detecting tight dual constraints and when
/// comparing recomputed costs. Distances and costs in the experiments are
/// O(1)–O(10³), so an absolute 1e-9 slack is far below any real event gap.
pub const EPS: f64 = 1e-9;

/// The n-th harmonic number `H_n = Σ_{k=1..n} 1/k` (`H_0 = 0`).
///
/// Appears throughout the paper's analysis (the dual scaling factor is
/// `γ = 1/(5 √|S| H_n)`).
pub fn harmonic(n: usize) -> f64 {
    // Exact summation below the asymptotic cutoff keeps tests bit-stable.
    if n < 256 {
        (1..=n).map(|k| 1.0 / k as f64).sum()
    } else {
        // Euler–Maclaurin: ln n + γ + 1/2n − 1/12n² (error < 1e-12 here).
        const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;
        let nf = n as f64;
        nf.ln() + EULER_MASCHERONI + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
    }
}

/// Errors surfaced by the OMFLP model and algorithms.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// Underlying metric problem.
    Metric(omfl_metric::MetricError),
    /// Underlying commodity/cost problem.
    Commodity(omfl_commodity::CommodityError),
    /// A request demands no commodities, or references an out-of-range
    /// point/commodity.
    BadRequest(String),
    /// Instance-level inconsistency (e.g. cost universe vs declared size).
    BadInstance(String),
    /// A solution failed verification; the string pinpoints the violation.
    Infeasible(String),
    /// An engine configuration the engine cannot run (e.g. a relabeling
    /// that is not a permutation of the points).
    BadConfig(String),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Metric(e) => write!(f, "metric error: {e}"),
            CoreError::Commodity(e) => write!(f, "commodity error: {e}"),
            CoreError::BadRequest(s) => write!(f, "bad request: {s}"),
            CoreError::BadInstance(s) => write!(f, "bad instance: {s}"),
            CoreError::Infeasible(s) => write!(f, "infeasible solution: {s}"),
            CoreError::BadConfig(s) => write!(f, "bad engine config: {s}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Metric(e) => Some(e),
            CoreError::Commodity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<omfl_metric::MetricError> for CoreError {
    fn from(e: omfl_metric::MetricError) -> Self {
        CoreError::Metric(e)
    }
}

impl From<omfl_commodity::CommodityError> for CoreError {
    fn from(e: omfl_commodity::CommodityError) -> Self {
        CoreError::Commodity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }

    #[test]
    fn harmonic_asymptotic_is_continuous_at_cutoff() {
        // Exact at 255, asymptotic at 256; they must agree to ~1e-12.
        let exact_256: f64 = (1..=256).map(|k| 1.0 / k as f64).sum();
        assert!((harmonic(256) - exact_256).abs() < 1e-10);
    }

    #[test]
    fn error_display_and_source() {
        let e = CoreError::BadRequest("empty demand".into());
        assert!(e.to_string().contains("empty demand"));
        let m: CoreError = omfl_metric::MetricError::Empty.into();
        assert!(std::error::Error::source(&m).is_some());
    }
}
