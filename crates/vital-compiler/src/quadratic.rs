//! Quadratic global placement (paper §4.2, Eq. 1–2 and Eq. 4).

use crate::placer::ClusterGraph;
use crate::solver::SparseSystem;

/// Continuous cluster positions produced by one quadratic solve.
#[derive(Debug, Clone)]
pub(crate) struct QuadraticPlacement {
    pub x: Vec<f64>,
    pub y: Vec<f64>,
}

/// Relative weight used to pin I/O pad clusters to their boundary position.
const PAD_WEIGHT: f64 = 1.0e6;
/// Weak pull toward the region centre that keeps the system non-singular
/// when a connected component contains no pad and no pseudo anchor.
const CENTER_REGULARIZATION: f64 = 1.0e-6;

/// Solves the two linear systems of Eq. 2 (x and y decouple).
///
/// `pads` are fixed positions for I/O clusters (the boundary pads of
/// step 1); `anchors` are the pseudo clusters of Eq. 4 with weight `beta`
/// (`None` on the first iteration).
pub(crate) fn solve_quadratic(
    graph: &ClusterGraph,
    pads: &[(usize, f64, f64)],
    anchors: Option<(&[(f64, f64)], f64)>,
    center: (f64, f64),
    warm_start: Option<&QuadraticPlacement>,
) -> QuadraticPlacement {
    let n = graph.node_count();
    let mut sys_x = SparseSystem::new(n);
    let mut sys_y = SparseSystem::new(n);

    for (a, b, w) in graph.edges() {
        let w = w as f64;
        sys_x.add_coupling(a.index(), b.index(), w);
        sys_y.add_coupling(a.index(), b.index(), w);
    }
    for &(i, px, py) in pads {
        sys_x.add_anchor(i, PAD_WEIGHT, px);
        sys_y.add_anchor(i, PAD_WEIGHT, py);
    }
    if let Some((positions, beta)) = anchors {
        debug_assert_eq!(positions.len(), n);
        for (i, &(ax, ay)) in positions.iter().enumerate() {
            sys_x.add_anchor(i, beta, ax);
            sys_y.add_anchor(i, beta, ay);
        }
    }
    for i in 0..n {
        sys_x.add_anchor(i, CENTER_REGULARIZATION, center.0);
        sys_y.add_anchor(i, CENTER_REGULARIZATION, center.1);
    }

    // Warm start: the previous solution, or the region centre. Starting at
    // the centre makes the weakly-regularized pure-Laplacian case (no pads,
    // no anchors) already exact, which CG would otherwise converge to slowly.
    let cx = vec![center.0; n];
    let cy = vec![center.1; n];
    let x0 = warm_start.map(|w| w.x.as_slice()).unwrap_or(&cx);
    let y0 = warm_start.map(|w| w.y.as_slice()).unwrap_or(&cy);
    let sx = sys_x.solve(x0, 1e-6, 2 * n.max(64));
    let sy = sys_y.solve(y0, 1e-6, 2 * n.max(64));
    QuadraticPlacement { x: sx, y: sy }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placer::{pack, PackingConfig};
    use vital_netlist::hls::{synthesize, AppSpec, Operator};
    use vital_netlist::DataflowGraph;

    fn chain_graph() -> (ClusterGraph, crate::placer::Packing) {
        let mut spec = AppSpec::new("t");
        let mut prev = None;
        for i in 0..6 {
            let op = spec.add_operator(format!("op{i}"), Operator::Pipeline { slices: 16 });
            if let Some(p) = prev {
                spec.add_edge(p, op, 32).unwrap();
            }
            prev = Some(op);
        }
        let n = synthesize(&spec).unwrap();
        let dfg = DataflowGraph::from_netlist(&n);
        let p = pack(
            &n,
            &dfg,
            &PackingConfig {
                max_primitives: 16,
                ..PackingConfig::default()
            },
        );
        (ClusterGraph::from_packing(&dfg, &p), p)
    }

    #[test]
    fn pads_stretch_the_chain() {
        let (g, _) = chain_graph();
        let n = g.node_count();
        // Pin the first and last clusters far apart.
        let pads = vec![(0, 0.0, 0.0), (n - 1, 10.0, 0.0)];
        let qp = solve_quadratic(&g, &pads, None, (5.0, 0.0), None);
        assert!((qp.x[0]).abs() < 0.1);
        assert!((qp.x[n - 1] - 10.0).abs() < 0.1);
        // Everything finite.
        assert!(qp.x.iter().chain(qp.y.iter()).all(|v| v.is_finite()));
    }

    #[test]
    fn no_pads_collapses_to_center() {
        let (g, _) = chain_graph();
        let qp = solve_quadratic(&g, &[], None, (3.0, 7.0), None);
        for (&x, &y) in qp.x.iter().zip(&qp.y) {
            assert!((x - 3.0).abs() < 1e-3);
            assert!((y - 7.0).abs() < 1e-3);
        }
    }

    #[test]
    fn anchors_pull_toward_legalized_positions() {
        let (g, _) = chain_graph();
        let n = g.node_count();
        let targets: Vec<(f64, f64)> = (0..n).map(|i| (i as f64, 1.0)).collect();
        // With the anchor weight well above the coupling weights, the
        // solution must sit near the anchor positions.
        let qp = solve_quadratic(&g, &[], Some((&targets, 1.0e4)), (0.0, 0.0), None);
        for (i, &(tx, ty)) in targets.iter().enumerate() {
            assert!((qp.x[i] - tx).abs() < 0.5, "x[{i}]={} vs {tx}", qp.x[i]);
            assert!((qp.y[i] - ty).abs() < 0.5);
        }
    }
}
