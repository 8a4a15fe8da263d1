//! Dense multidimensional scaling.
//!
//! The paper's Eq. 5 states cost-space construction as the MDS problem of
//! finding an embedding whose induced distance matrix approximates the
//! latency matrix `A` in Frobenius norm. For testbed-scale matrices this
//! module solves it directly with [`classical_mds`], Torgerson's
//! classical scaling: double-center the squared-distance matrix and take
//! the top-d eigenpairs (computed here with power iteration + deflation,
//! no external linear-algebra crate).
//!
//! Vivaldi (the scalable solver) is validated against it in tests.

use nova_geom::Coord;
use nova_topology::DenseRtt;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Classical MDS (Torgerson scaling) of a symmetric latency matrix into
/// `dim` dimensions.
///
/// Returns one coordinate per node. `dim` must be between 1 and
/// [`nova_geom::MAX_DIM`].
pub fn classical_mds(matrix: &DenseRtt, dim: usize, seed: u64) -> Vec<Coord> {
    let n = matrix.len();
    assert!(
        (1..=nova_geom::MAX_DIM).contains(&dim),
        "dim {dim} out of range"
    );
    if n == 0 {
        return Vec::new();
    }
    if n == 1 {
        return vec![Coord::zero(dim)];
    }
    // B = -1/2 · J · D² · J  (double centering), J = I - 11ᵀ/n.
    let mut b = vec![0.0f64; n * n];
    let mut row_means = vec![0.0f64; n];
    let mut grand = 0.0f64;
    for i in 0..n {
        for j in 0..n {
            let d = matrix.get(i, j);
            let d2 = d * d;
            b[i * n + j] = d2;
            row_means[i] += d2;
        }
        row_means[i] /= n as f64;
        grand += row_means[i];
    }
    grand /= n as f64;
    for i in 0..n {
        for j in 0..n {
            b[i * n + j] = -0.5 * (b[i * n + j] - row_means[i] - row_means[j] + grand);
        }
    }
    // Top-d eigenpairs by power iteration with deflation.
    let mut coords = vec![Coord::zero(dim); n];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut work = vec![0.0f64; n];
    #[allow(clippy::needless_range_loop)] // `d` indexes into every coord
    for d in 0..dim {
        let (lambda, v) = power_iteration(&b, n, &mut rng, 300);
        if lambda <= 1e-9 {
            break; // remaining spectrum is non-positive; stop early
        }
        let scale = lambda.sqrt();
        for i in 0..n {
            coords[i][d] = v[i] * scale;
        }
        // Deflate: B ← B − λ v vᵀ.
        for i in 0..n {
            work[i] = lambda * v[i];
        }
        for i in 0..n {
            for j in 0..n {
                b[i * n + j] -= work[i] * v[j];
            }
        }
    }
    coords
}

/// Largest-eigenvalue pair of a symmetric matrix via power iteration.
/// Returns `(eigenvalue, unit eigenvector)`. The eigenvalue can be
/// negative only if the matrix's dominant eigenvalue is negative, in which
/// case the caller should stop (B's useful spectrum is exhausted).
fn power_iteration(b: &[f64], n: usize, rng: &mut StdRng, iters: usize) -> (f64, Vec<f64>) {
    let mut v: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
    normalize(&mut v);
    let mut w = vec![0.0f64; n];
    let mut lambda = 0.0;
    for _ in 0..iters {
        matvec(b, n, &v, &mut w);
        let norm = normalize(&mut w);
        std::mem::swap(&mut v, &mut w);
        let new_lambda = norm;
        let converged = (new_lambda - lambda).abs() <= 1e-12 * new_lambda.abs().max(1.0);
        lambda = new_lambda;
        if converged {
            break;
        }
    }
    // Rayleigh quotient for a signed eigenvalue.
    matvec(b, n, &v, &mut w);
    let rq: f64 = v.iter().zip(&w).map(|(a, b)| a * b).sum();
    (rq, v)
}

fn matvec(b: &[f64], n: usize, v: &[f64], out: &mut [f64]) {
    for i in 0..n {
        let row = &b[i * n..(i + 1) * n];
        let mut acc = 0.0;
        for j in 0..n {
            acc += row[j] * v[j];
        }
        out[i] = acc;
    }
}

fn normalize(v: &mut [f64]) -> f64 {
    let norm = v.iter().map(|x| x * x).sum::<f64>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distances of points exactly embeddable in the plane.
    fn planar_matrix(pts: &[(f64, f64)]) -> DenseRtt {
        DenseRtt::from_fn(pts.len(), |i, j| {
            let (x1, y1) = pts[i];
            let (x2, y2) = pts[j];
            (x1 - x2).hypot(y1 - y2)
        })
    }

    /// Raw stress `Σ_{i<j} (d_ij(X) − A_ij)²`.
    fn stress(coords: &[Coord], matrix: &DenseRtt) -> f64 {
        let n = coords.len();
        let mut acc = 0.0;
        for i in 0..n {
            for j in (i + 1)..n {
                let diff = coords[i].dist(&coords[j]) - matrix.get(i, j);
                acc += diff * diff;
            }
        }
        acc
    }

    fn max_pair_error(coords: &[Coord], m: &DenseRtt) -> f64 {
        let mut worst = 0.0f64;
        for (i, j, want) in m.pairs() {
            worst = worst.max((coords[i].dist(&coords[j]) - want).abs());
        }
        worst
    }

    #[test]
    fn classical_mds_recovers_planar_configuration() {
        let pts = [
            (0.0, 0.0),
            (10.0, 0.0),
            (0.0, 10.0),
            (10.0, 10.0),
            (5.0, 5.0),
            (2.0, 7.0),
        ];
        let m = planar_matrix(&pts);
        let coords = classical_mds(&m, 2, 1);
        // Distances (not absolute positions) must be recovered ~exactly.
        assert!(
            max_pair_error(&coords, &m) < 1e-6,
            "err {}",
            max_pair_error(&coords, &m)
        );
    }

    #[test]
    fn classical_mds_handles_trivial_sizes() {
        assert!(classical_mds(&DenseRtt::zeros(0), 2, 1).is_empty());
        assert_eq!(classical_mds(&DenseRtt::zeros(1), 2, 1).len(), 1);
        let m = planar_matrix(&[(0.0, 0.0), (3.0, 4.0)]);
        let c = classical_mds(&m, 2, 1);
        assert!((c[0].dist(&c[1]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn higher_dims_fit_at_least_as_well() {
        let pts = [
            (0.0, 0.0),
            (5.0, 1.0),
            (3.0, 8.0),
            (9.0, 4.0),
            (2.0, 2.0),
            (7.0, 7.0),
        ];
        let clean = planar_matrix(&pts);
        // Add asymmetric-ish noise to require extra dimensions.
        let noisy = DenseRtt::from_fn(6, |i, j| clean.get(i, j) + ((i + j) % 3) as f64);
        let c2 = classical_mds(&noisy, 2, 4);
        let c3 = classical_mds(&noisy, 3, 4);
        assert!(stress(&c3, &noisy) <= stress(&c2, &noisy) + 1e-9);
    }
}
