//! A solver fallback ladder for grounded Laplacian systems.
//!
//! The router solves thousands of `V = L⁻¹E` systems per net (§II-H of
//! the paper), and a single numerically marginal subgraph — a near-zero
//! conductance from a degenerate tile, a component barely tied to
//! ground — must not abort the whole route. This module climbs a ladder
//! of solvers, degrading gracefully instead of failing fast:
//!
//! 1. **Cholesky** — the envelope factorization of [`crate::cholesky`];
//!    exact, and the right tool for healthy SPD systems.
//! 2. **Regularized Cholesky** — retries with an escalating diagonal
//!    jitter `ε·mean(diag)`, then polishes the answer with iterative
//!    refinement against the *unregularized* matrix.
//! 3. **Conjugate gradient** — the Jacobi-preconditioned CG of
//!    [`crate::cg`], which tolerates conditioning the direct factors
//!    choke on.
//!
//! [`build_grounded_solver`] returns [`LinalgError`] only when every
//! rung fails. Before climbing, it screens the matrix for NaN/infinite
//! entries ([`LinalgError::NotFinite`]) and for floating components with
//! no conductance path to ground ([`LinalgError::Disconnected`]) — both
//! would otherwise surface as baffling mid-solve breakdowns.

use crate::cg::{solve_cg, CgOptions};
use crate::cholesky::SparseCholesky;
use crate::sparse::{Csr, Triplets};
use crate::LinalgError;
use sprout_telemetry as telemetry;

/// Which rung of the ladder produced the working solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// Plain envelope Cholesky succeeded (healthy input).
    Cholesky,
    /// Cholesky succeeded only after diagonal regularization.
    RegularizedCholesky,
    /// Both direct rungs failed; solves run Jacobi-preconditioned CG.
    ConjugateGradient,
}

/// Options controlling the fallback ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackOptions {
    /// First jitter, relative to the mean diagonal magnitude.
    pub initial_jitter: f64,
    /// Multiplier applied to the jitter between retries.
    pub jitter_growth: f64,
    /// Number of regularized retries before falling through to CG.
    pub jitter_attempts: usize,
    /// Options for the CG rung (and its build-time probe solve).
    pub cg: CgOptions,
    /// Skip the direct rungs entirely and go straight to CG. Useful
    /// when factorization memory is prohibitive, and for exercising the
    /// iterative rung deterministically in tests.
    pub iterative_only: bool,
}

impl Default for FallbackOptions {
    fn default() -> Self {
        FallbackOptions {
            initial_jitter: 1e-10,
            jitter_growth: 100.0,
            jitter_attempts: 3,
            cg: CgOptions::default(),
            iterative_only: false,
        }
    }
}

/// How the ladder was climbed for one system.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct FallbackReport {
    /// The rung that finally produced a solver.
    pub rung: Rung,
    /// Direct factorization attempts made (plain + regularized).
    pub factor_attempts: usize,
    /// The diagonal jitter in effect (`0.0` unless regularized).
    pub regularization: f64,
}

impl FallbackReport {
    /// True when anything other than the first rung was needed.
    pub fn degraded(&self) -> bool {
        self.rung != Rung::Cholesky
    }
}

#[derive(Debug, Clone)]
enum Backend {
    Direct(SparseCholesky),
    Regularized(SparseCholesky),
    Iterative(CgOptions),
}

/// A solver produced by [`build_grounded_solver`]: whichever rung of
/// the ladder first succeeded, wrapped behind a uniform [`solve`]
/// interface.
///
/// [`solve`]: LadderSolver::solve
#[derive(Debug, Clone)]
pub struct LadderSolver {
    a: Csr<f64>,
    backend: Backend,
    report: FallbackReport,
}

impl LadderSolver {
    /// Dimension of the system.
    pub fn dimension(&self) -> usize {
        self.a.rows()
    }

    /// How this solver was obtained.
    pub fn report(&self) -> FallbackReport {
        self.report
    }

    /// The rung in use.
    pub fn rung(&self) -> Rung {
        self.report.rung
    }

    /// Solves `A·x = b`.
    ///
    /// For the regularized rung the factor approximates a perturbed
    /// matrix, so the raw solution is polished with two iterative
    /// refinement passes against the original `A`.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::DimensionMismatch`] — wrong-length `b`.
    /// * [`LinalgError::NotConverged`] — the CG rung hit its cap.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.a.rows() {
            return Err(LinalgError::DimensionMismatch {
                expected: self.a.rows(),
                got: b.len(),
            });
        }
        match &self.backend {
            Backend::Direct(chol) => chol.solve(b),
            Backend::Regularized(chol) => {
                let mut x = chol.solve(b)?;
                for _ in 0..2 {
                    let ax = self.a.mul_vec(&x)?;
                    let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, ai)| bi - ai).collect();
                    let dx = chol.solve(&r)?;
                    for (xi, di) in x.iter_mut().zip(&dx) {
                        *xi += di;
                    }
                }
                Ok(x)
            }
            Backend::Iterative(opts) => solve_cg(&self.a, b, *opts).map(|s| s.x),
        }
    }
}

/// Builds a solver for a grounded Laplacian `a`, climbing the fallback
/// ladder: Cholesky → regularized Cholesky (escalating jitter) → CG.
///
/// # Errors
///
/// * [`LinalgError::DimensionMismatch`] — `a` is not square.
/// * [`LinalgError::Empty`] — `a` is 0×0.
/// * [`LinalgError::NotFinite`] — an entry is NaN or infinite.
/// * [`LinalgError::Disconnected`] — some connected component of the
///   pattern has no conductance path to ground (singular system).
/// * The last rung's error when *every* rung fails.
///
/// # Example
///
/// ```
/// use sprout_linalg::fallback::{build_grounded_solver, FallbackOptions, Rung};
/// use sprout_linalg::laplacian::GraphLaplacian;
/// let lap = GraphLaplacian::from_edges(3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
/// let a = lap.grounded(2).unwrap();
/// let solver = build_grounded_solver(&a, FallbackOptions::default()).unwrap();
/// assert_eq!(solver.rung(), Rung::Cholesky);
/// let v = solver.solve(&[1.0, 0.0]).unwrap(); // inject at node 0
/// assert!((v[0] - 2.0).abs() < 1e-9);
/// ```
pub fn build_grounded_solver(
    a: &Csr<f64>,
    opts: FallbackOptions,
) -> Result<LadderSolver, LinalgError> {
    // Spanned so the profiler separates factorization cost (all rungs)
    // from solve cost in the timeline.
    let _span = telemetry::span("ladder.build").enter();
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n,
            got: a.cols(),
        });
    }
    if n == 0 {
        return Err(LinalgError::Empty);
    }
    check_finite(a)?;
    check_grounded(a)?;

    let mut factor_attempts = 0usize;
    let mut last_err = LinalgError::Empty;

    if !opts.iterative_only {
        // Rung 1: plain Cholesky.
        factor_attempts += 1;
        match SparseCholesky::factor(a) {
            Ok(chol) => {
                telemetry::counter!("ladder.cholesky");
                return Ok(LadderSolver {
                    a: a.clone(),
                    backend: Backend::Direct(chol),
                    report: FallbackReport {
                        rung: Rung::Cholesky,
                        factor_attempts,
                        regularization: 0.0,
                    },
                });
            }
            Err(e) => last_err = e,
        }

        // Rung 2: diagonal jitter, escalating between retries.
        let scale = mean_diagonal_magnitude(a);
        let scale = if scale > 0.0 { scale } else { 1.0 };
        let mut eps = opts.initial_jitter * scale;
        for _ in 0..opts.jitter_attempts {
            factor_attempts += 1;
            let jittered = add_diagonal(a, eps);
            match SparseCholesky::factor(&jittered) {
                Ok(chol) => {
                    telemetry::counter!("ladder.regularized");
                    telemetry::point("ladder_fallback")
                        .field("rung", "RegularizedCholesky")
                        .field("factor_attempts", factor_attempts)
                        .field("regularization", eps)
                        .emit();
                    return Ok(LadderSolver {
                        a: a.clone(),
                        backend: Backend::Regularized(chol),
                        report: FallbackReport {
                            rung: Rung::RegularizedCholesky,
                            factor_attempts,
                            regularization: eps,
                        },
                    });
                }
                Err(e) => last_err = e,
            }
            eps *= opts.jitter_growth;
        }
    }

    // Rung 3: CG. Probe with a manufactured right-hand side so that a
    // hopeless system is reported at build time, not on first use.
    let x_probe: Vec<f64> = (0..n).map(|i| ((i % 13) as f64) - 6.0).collect();
    let b_probe = a.mul_vec(&x_probe)?;
    match solve_cg(a, &b_probe, opts.cg) {
        Ok(probe) => {
            telemetry::counter!("ladder.cg");
            if !opts.iterative_only {
                telemetry::point("ladder_fallback")
                    .field("rung", "ConjugateGradient")
                    .field("factor_attempts", factor_attempts)
                    .field("probe_iterations", probe.iterations)
                    .emit();
            }
            Ok(LadderSolver {
                a: a.clone(),
                backend: Backend::Iterative(opts.cg),
                report: FallbackReport {
                    rung: Rung::ConjugateGradient,
                    factor_attempts,
                    regularization: 0.0,
                },
            })
        }
        Err(e) => {
            // Every rung failed; prefer the direct-rung error when we
            // have one, since it names the structural problem.
            if opts.iterative_only {
                Err(e)
            } else {
                Err(last_err)
            }
        }
    }
}

/// Rejects matrices containing NaN or infinite entries.
fn check_finite(a: &Csr<f64>) -> Result<(), LinalgError> {
    for r in 0..a.rows() {
        for (c, v) in a.row(r) {
            if !v.is_finite() {
                return Err(LinalgError::NotFinite { row: r, col: c });
            }
        }
    }
    Ok(())
}

/// Detects components of the sparsity pattern with (numerically) zero
/// total row sum — in a grounded Laplacian the row sum is the node's
/// conductance to ground, so a component whose rows all sum to zero is
/// floating and the system is singular.
fn check_grounded(a: &Csr<f64>) -> Result<(), LinalgError> {
    let n = a.rows();
    let mut uf = UnionFind::new(n);
    let mut max_diag = 0.0f64;
    for r in 0..n {
        for (c, v) in a.row(r) {
            if r == c {
                max_diag = max_diag.max(v.abs());
            } else if v != 0.0 {
                uf.union(r, c);
            }
        }
    }
    let tol = 1e-12 * max_diag.max(1.0);
    let mut tie = vec![0.0f64; n];
    for r in 0..n {
        let row_sum: f64 = a.row(r).map(|(_, v)| v).sum();
        let root = uf.find(r);
        tie[root] += row_sum.abs();
    }
    let mut floating = 0usize;
    for (r, &t) in tie.iter().enumerate() {
        if uf.find(r) == r && t <= tol {
            floating += 1;
        }
    }
    if floating > 0 {
        Err(LinalgError::Disconnected {
            components: floating,
        })
    } else {
        Ok(())
    }
}

fn mean_diagonal_magnitude(a: &Csr<f64>) -> f64 {
    let d = a.diagonal();
    if d.is_empty() {
        return 0.0;
    }
    d.iter().map(|v| v.abs()).sum::<f64>() / d.len() as f64
}

fn add_diagonal(a: &Csr<f64>, eps: f64) -> Csr<f64> {
    let mut t = Triplets::new(a.rows(), a.cols());
    for r in 0..a.rows() {
        for (c, v) in a.row(r) {
            t.push(r, c, v).expect("indices from an existing matrix");
        }
        t.push(r, r, eps).expect("indices from an existing matrix");
    }
    t.to_csr()
}

/// Path-compressing union-find over the matrix pattern.
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    pub(crate) fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }

    pub(crate) fn components(&mut self) -> usize {
        (0..self.parent.len())
            .filter(|&i| self.find(i) == i)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::laplacian::GraphLaplacian;

    fn grid(w: usize) -> Csr<f64> {
        let idx = |x: usize, y: usize| y * w + x;
        let mut edges = Vec::new();
        for y in 0..w {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((idx(x, y), idx(x + 1, y), 1.0));
                }
                if y + 1 < w {
                    edges.push((idx(x, y), idx(x, y + 1), 1.0));
                }
            }
        }
        GraphLaplacian::from_edges(w * w, &edges)
            .unwrap()
            .grounded(0)
            .unwrap()
    }

    #[test]
    fn healthy_input_stays_on_first_rung() {
        let a = grid(8);
        let solver = build_grounded_solver(&a, FallbackOptions::default()).unwrap();
        assert_eq!(solver.rung(), Rung::Cholesky);
        assert!(!solver.report().degraded());
        let b: Vec<f64> = (0..a.rows()).map(|i| ((i % 5) as f64) - 2.0).collect();
        let x = solver.solve(&b).unwrap();
        let ax = a.mul_vec(&x).unwrap();
        for (bi, ai) in b.iter().zip(&ax) {
            assert!((bi - ai).abs() < 1e-8);
        }
    }

    #[test]
    fn indefinite_shift_is_absorbed_by_jitter() {
        // [[1, -1], [-1, 1 - δ]] has det = -δ < 0, so plain Cholesky
        // fails on the second pivot; a jitter ε with 2ε > δ restores
        // definiteness and the ladder lands on the regularized rung.
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, 1.0).unwrap();
        t.push(0, 1, -1.0).unwrap();
        t.push(1, 0, -1.0).unwrap();
        t.push(1, 1, 1.0 - 1e-9).unwrap();
        let a = t.to_csr();
        let opts = FallbackOptions {
            initial_jitter: 1e-8,
            ..FallbackOptions::default()
        };
        let solver = build_grounded_solver(&a, opts).unwrap();
        assert_eq!(solver.rung(), Rung::RegularizedCholesky);
        assert!(solver.report().degraded());
        assert!(solver.report().regularization > 0.0);
        assert_eq!(solver.report().factor_attempts, 2);
        let x = solver.solve(&[1.0, 0.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn forced_iterative_matches_direct() {
        let a = grid(6);
        let direct = build_grounded_solver(&a, FallbackOptions::default()).unwrap();
        let iter = build_grounded_solver(
            &a,
            FallbackOptions {
                iterative_only: true,
                ..FallbackOptions::default()
            },
        )
        .unwrap();
        assert_eq!(iter.rung(), Rung::ConjugateGradient);
        let b: Vec<f64> = (0..a.rows())
            .map(|i| if i == 0 { 1.0 } else { 0.0 })
            .collect();
        let xd = direct.solve(&b).unwrap();
        let xi = iter.solve(&b).unwrap();
        for (d, i) in xd.iter().zip(&xi) {
            assert!((d - i).abs() < 1e-6);
        }
    }

    #[test]
    fn nan_conductance_is_rejected_up_front() {
        // NaN entries cannot survive CSR assembly (accumulation drops
        // them), so the screen lives on the edge list.
        let lap = GraphLaplacian::from_edges(3, &[(0, 1, 1.0), (1, 2, f64::NAN)]).unwrap();
        match lap.factor_grounded_resilient(0, FallbackOptions::default()) {
            Err(LinalgError::NotFinite { row: 1, col: 2 }) => {}
            other => panic!("expected NotFinite, got {other:?}"),
        }
    }

    #[test]
    fn sanitized_graph_recovers() {
        let mut lap =
            GraphLaplacian::from_edges(3, &[(0, 1, 1.0), (1, 2, f64::NAN), (1, 2, 1.0)]).unwrap();
        // Parallel edges: drop the NaN one, keep the healthy one.
        assert_eq!(lap.sanitize_conductances(), 1);
        let f = lap
            .factor_grounded_resilient(0, FallbackOptions::default())
            .unwrap();
        assert_eq!(f.fallback_report().unwrap().rung, Rung::Cholesky);
        let v = f.solve_injection(2, 0).unwrap();
        assert!((v[2] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn floating_component_is_detected() {
        // 0-1 tied to ground (node 0), 2-3 floating after grounding 0.
        let lap = GraphLaplacian::from_edges(4, &[(0, 1, 1.0), (2, 3, 1.0)]).unwrap();
        let a = lap.grounded(0).unwrap();
        match build_grounded_solver(&a, FallbackOptions::default()) {
            Err(LinalgError::Disconnected { components }) => assert_eq!(components, 1),
            other => panic!("expected Disconnected, got {other:?}"),
        }
    }

    #[test]
    fn empty_and_rectangular_rejected() {
        let t = Triplets::<f64>::new(0, 0);
        assert!(matches!(
            build_grounded_solver(&t.to_csr(), FallbackOptions::default()),
            Err(LinalgError::Empty)
        ));
        let t = Triplets::<f64>::new(2, 3);
        assert!(matches!(
            build_grounded_solver(&t.to_csr(), FallbackOptions::default()),
            Err(LinalgError::DimensionMismatch { .. })
        ));
    }
}
