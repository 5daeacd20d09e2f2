//! The strict Definition 1 check of one answer against the exact vector,
//! shared by the conformance harness (`tests/definition1.rs`) and the
//! equivalence suite.
//!
//! A vector `rho_hat` is (d, eps_r, delta)-approximate (Definition 1) if
//! for every node `v` of positive degree
//!
//! * `|rho_hat[v]/d(v) - rho[v]/d(v)| <= eps_r * rho[v]/d(v)` where
//!   `rho[v]/d(v) > delta`, and
//! * `|rho_hat[v]/d(v) - rho[v]/d(v)| <= eps_r * delta` elsewhere.
//!
//! No slack and no free violations: one node over its allowance fails the
//! answer.

use std::fmt;

use hk_graph::{Graph, NodeId};
use hkpr_core::{HkprEstimate, HkprParams};

/// How one answer measures up to Definition 1.
pub struct Check {
    /// Nodes whose exact normalized HKPR exceeds delta: the ones held to
    /// the relative bound. A case with none is trivial.
    pub above_delta: usize,
    /// Nodes whose error exceeds their allowance.
    pub violations: usize,
    /// The largest `|error| / allowance` over all nodes; at most 1 exactly
    /// when there are no violations.
    pub worst_ratio: f64,
}

impl Check {
    /// Whether the answer is (d, eps_r, delta)-approximate.
    pub fn holds(&self) -> bool {
        self.violations == 0
    }
}

impl fmt::Display for Check {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} violations, worst |error|/allowance {:.3}, {} nodes above delta",
            self.violations, self.worst_ratio, self.above_delta
        )
    }
}

/// Check `estimate` (offset included) against `exact`, the exact HKPR
/// vector of the same graph, seed and `t`, at `eps_r` and `params`'
/// delta. A full-accuracy answer is held to `params.eps_r()`, a degraded
/// one to the `eps_r_achieved` it certifies.
pub fn check(
    graph: &Graph,
    params: &HkprParams,
    eps_r: f64,
    exact: &[f64],
    estimate: &HkprEstimate,
) -> Check {
    let delta = params.delta();
    let mut out = Check {
        above_delta: 0,
        violations: 0,
        worst_ratio: 0.0,
    };
    for (v, &rho) in exact.iter().enumerate() {
        let d = graph.degree(v as NodeId);
        if d == 0 {
            continue;
        }
        let truth = rho / d as f64;
        let allowance = if truth > delta {
            out.above_delta += 1;
            eps_r * truth
        } else {
            eps_r * delta
        };
        let error = (estimate.normalized(graph, v as NodeId) - truth).abs();
        out.violations += usize::from(error > allowance);
        out.worst_ratio = out.worst_ratio.max(error / allowance);
    }
    out
}
