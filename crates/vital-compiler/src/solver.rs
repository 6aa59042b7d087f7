//! Sparse symmetric-positive-definite linear solver.
//!
//! The quadratic placement of §4.2 reduces to solving `A x = b` where `A` is
//! the (anchored) graph Laplacian of the cluster netlist. The paper uses the
//! Eigen C++ library; this reproduction implements a Jacobi-preconditioned
//! conjugate-gradient solver from scratch, which is the standard choice for
//! these systems and keeps the repository dependency-free.

/// A sparse symmetric linear system built incrementally from Laplacian
/// stencils and diagonal anchors.
#[derive(Debug, Clone)]
pub(crate) struct SparseSystem {
    n: usize,
    diag: Vec<f64>,
    /// Off-diagonal entries per row: `(col, value)`.
    off: Vec<Vec<(u32, f64)>>,
    rhs: Vec<f64>,
}

impl SparseSystem {
    /// Creates an empty `n x n` system with zero right-hand side.
    pub(crate) fn new(n: usize) -> Self {
        SparseSystem {
            n,
            diag: vec![0.0; n],
            off: vec![Vec::new(); n],
            rhs: vec![0.0; n],
        }
    }

    /// Adds a quadratic coupling `w (x_i - x_j)^2`: the Laplacian stencil
    /// `+w` on both diagonals and `-w` off-diagonal.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    pub(crate) fn add_coupling(&mut self, i: usize, j: usize, w: f64) {
        assert!(i != j, "coupling requires distinct nodes");
        assert!(i < self.n && j < self.n, "node index out of range");
        self.diag[i] += w;
        self.diag[j] += w;
        self.off[i].push((j as u32, -w));
        self.off[j].push((i as u32, -w));
    }

    /// Adds an anchor term `w (x_i - p)^2`: `+w` on the diagonal and `w * p`
    /// on the right-hand side. This is how fixed I/O pads (step 1) and
    /// pseudo clusters (Eq. 4) enter the system.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub(crate) fn add_anchor(&mut self, i: usize, w: f64, p: f64) {
        assert!(i < self.n, "node index out of range");
        self.diag[i] += w;
        self.rhs[i] += w * p;
    }

    fn mat_vec(&self, x: &[f64], out: &mut [f64]) {
        for i in 0..self.n {
            let mut acc = self.diag[i] * x[i];
            for &(j, v) in &self.off[i] {
                acc += v * x[j as usize];
            }
            out[i] = acc;
        }
    }

    /// Solves the system with Jacobi-preconditioned conjugate gradient,
    /// starting from `x0`, and returns the solution vector: the iterate that
    /// met `tol`, or the last one after `max_iter` iterations.
    ///
    /// Rows with a zero diagonal (completely unconstrained nodes) are given
    /// a tiny regularization so the iteration stays well-defined.
    pub(crate) fn solve(&self, x0: &[f64], tol: f64, max_iter: usize) -> Vec<f64> {
        assert_eq!(x0.len(), self.n, "initial guess has wrong length");
        if self.n == 0 {
            return Vec::new();
        }
        let eps = 1e-12;
        let inv_diag: Vec<f64> = self
            .diag
            .iter()
            .map(|&d| 1.0 / if d.abs() < eps { eps } else { d })
            .collect();

        let mut x = x0.to_vec();
        let mut ax = vec![0.0; self.n];
        self.mat_vec(&x, &mut ax);
        let mut r: Vec<f64> = self.rhs.iter().zip(&ax).map(|(b, a)| b - a).collect();
        let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
        let mut p = z.clone();
        let mut rz: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
        let rhs_norm = self.rhs.iter().map(|v| v * v).sum::<f64>().sqrt().max(eps);

        let mut iterations = 0;
        let mut ap = vec![0.0; self.n];
        while iterations < max_iter {
            let res_norm = r.iter().map(|v| v * v).sum::<f64>().sqrt();
            if res_norm <= tol * rhs_norm {
                return x;
            }
            self.mat_vec(&p, &mut ap);
            let pap: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
            if pap.abs() < eps {
                break;
            }
            let alpha = rz / pap;
            for i in 0..self.n {
                x[i] += alpha * p[i];
                r[i] -= alpha * ap[i];
            }
            for i in 0..self.n {
                z[i] = r[i] * inv_diag[i];
            }
            let rz_new: f64 = r.iter().zip(&z).map(|(a, b)| a * b).sum();
            let beta = rz_new / rz;
            rz = rz_new;
            for i in 0..self.n {
                p[i] = z[i] + beta * p[i];
            }
            iterations += 1;
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_chain_with_two_anchors() {
        // 0 -- 1 -- 2 -- 3 -- 4, anchors at ends (0 -> 0.0, 4 -> 4.0).
        // Solution is the linear interpolation 0,1,2,3,4.
        let mut sys = SparseSystem::new(5);
        for i in 0..4 {
            sys.add_coupling(i, i + 1, 1.0);
        }
        sys.add_anchor(0, 1e6, 0.0);
        sys.add_anchor(4, 1e6, 4.0);
        let x = sys.solve(&[0.0; 5], 1e-10, 10_000);
        for (i, &xi) in x.iter().enumerate() {
            assert!((xi - i as f64).abs() < 1e-3, "x[{i}] = {xi}");
        }
    }

    #[test]
    fn weighted_coupling_pulls_harder() {
        // Node 1 between anchors 0 (at 0) and 2 (at 10); the 0-1 coupling is
        // 9x stronger, so node 1 sits at 1.0.
        let mut sys = SparseSystem::new(3);
        sys.add_coupling(0, 1, 9.0);
        sys.add_coupling(1, 2, 1.0);
        sys.add_anchor(0, 1e9, 0.0);
        sys.add_anchor(2, 1e9, 10.0);
        let x = sys.solve(&[0.0; 3], 1e-12, 10_000);
        assert!((x[1] - 1.0).abs() < 1e-4, "x[1] = {}", x[1]);
    }

    #[test]
    fn empty_system() {
        let sys = SparseSystem::new(0);
        assert!(sys.solve(&[], 1e-9, 10).is_empty());
    }

    #[test]
    fn unconstrained_node_does_not_nan() {
        let sys = SparseSystem::new(2);
        let x = sys.solve(&[0.5, -0.5], 1e-9, 100);
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn respects_initial_guess_when_already_solved() {
        let mut sys = SparseSystem::new(2);
        sys.add_coupling(0, 1, 1.0);
        sys.add_anchor(0, 1.0, 2.0);
        sys.add_anchor(1, 1.0, 2.0);
        // Already within tolerance: returned before the first iteration.
        assert_eq!(sys.solve(&[2.0, 2.0], 1e-9, 100), vec![2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn self_coupling_panics() {
        let mut sys = SparseSystem::new(2);
        sys.add_coupling(1, 1, 1.0);
    }
}
