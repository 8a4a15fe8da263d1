//! Geometric median solvers (the paper's Eq. 6).
//!
//! In Phase II Nova places every join replica at the point minimizing the
//! sum of Euclidean distances to its pinned endpoints (its two physical
//! sources and the sink) in the cost space. That point is the *geometric
//! median* (Fermat–Weber point), a convex problem with a unique optimum
//! whenever the anchors are not collinear.
//!
//! Two solvers are provided:
//!
//! * [`geometric_median`] — the Weiszfeld fixed-point iteration with the
//!   Ostresh modification so iterates that land exactly on an anchor do
//!   not stall,
//! * [`geometric_median_gd`] — plain (sub)gradient descent with a decaying
//!   step size, matching the paper's description ("we solve iteratively
//!   using gradient descent \[60\]").
//!
//! Both converge to the same optimum (a test holds them to it); the
//! planner uses Weiszfeld, whose cost the repo benchmark reports as
//! `geom.median_ns_per_pair`. [`minmax_center`] additionally solves
//! the min–max (smallest enclosing ball) objective the paper discusses and
//! rejects in §2.3, so the trade-off can be reproduced.

use crate::Coord;

/// Options for [`geometric_median`] (Weiszfeld iteration).
#[derive(Debug, Clone, Copy)]
pub struct MedianOptions {
    /// Maximum number of fixed-point iterations.
    pub max_iters: usize,
    /// Convergence threshold on the movement of the iterate between
    /// successive steps.
    pub tolerance: f64,
}

impl Default for MedianOptions {
    fn default() -> Self {
        MedianOptions {
            max_iters: 1000,
            tolerance: 1e-10,
        }
    }
}

/// Options for [`geometric_median_gd`] (gradient descent).
#[derive(Debug, Clone, Copy)]
pub struct GdOptions {
    /// Maximum number of gradient steps.
    pub max_iters: usize,
    /// Convergence threshold on the iterate movement.
    pub tolerance: f64,
    /// Initial step size; decays as `step / (1 + decay * t)`.
    pub step: f64,
    /// Step-size decay rate.
    pub decay: f64,
}

impl Default for GdOptions {
    fn default() -> Self {
        GdOptions {
            max_iters: 2000,
            tolerance: 1e-9,
            step: 1.0,
            decay: 0.05,
        }
    }
}

/// Result of a median computation.
#[derive(Debug, Clone, Copy)]
pub struct MedianResult {
    /// The optimal (or best found) point.
    pub point: Coord,
    /// Objective value: sum of (weighted) distances from `point` to all
    /// anchors.
    pub cost: f64,
    /// Number of iterations performed.
    pub iterations: usize,
}

/// Sum of weighted distances from `y` to each anchor.
fn objective(anchors: &[Coord], weights: Option<&[f64]>, y: &Coord) -> f64 {
    match weights {
        None => anchors.iter().map(|a| a.dist(y)).sum(),
        Some(w) => anchors.iter().zip(w).map(|(a, w)| w * a.dist(y)).sum(),
    }
}

/// Unweighted geometric median of `anchors` via Weiszfeld iteration.
///
/// Returns `None` when `anchors` is empty. For a single anchor the anchor
/// itself is returned; for two anchors any point on the segment is optimal
/// and the midpoint is returned.
pub fn geometric_median(anchors: &[Coord], opts: MedianOptions) -> Option<MedianResult> {
    weighted_geometric_median(anchors, None, opts)
}

/// Weighted geometric median: minimizes `Σ w_i · ‖a_i − y‖`.
///
/// Weights let the optimizer bias a replica towards high-rate inputs.
/// `weights`, when provided, must have the same length as `anchors` and be
/// non-negative.
///
/// # Panics
/// Panics if `weights` is provided with a different length than `anchors`.
pub fn weighted_geometric_median(
    anchors: &[Coord],
    weights: Option<&[f64]>,
    opts: MedianOptions,
) -> Option<MedianResult> {
    if let Some(w) = weights {
        assert_eq!(w.len(), anchors.len(), "weights/anchors length mismatch");
    }
    let first = anchors.first()?;
    if anchors.len() == 1 {
        return Some(MedianResult {
            point: *first,
            cost: 0.0,
            iterations: 0,
        });
    }
    if anchors.len() == 2 {
        // Any point on the segment is optimal in the unweighted case; the
        // weighted optimum is the heavier anchor, but the midpoint remains
        // optimal for equal weights and we only shortcut that case.
        let equal = weights.is_none_or(|w| (w[0] - w[1]).abs() < f64::EPSILON);
        if equal {
            let mid = anchors[0].lerp(&anchors[1], 0.5);
            let cost = objective(anchors, weights, &mid);
            return Some(MedianResult {
                point: mid,
                cost,
                iterations: 0,
            });
        }
    }

    // Start from the (weighted) centroid — a good convex initializer.
    let mut y = weighted_centroid(anchors, weights);
    let mut iterations = 0;
    // Anchor-coincidence threshold: relative to the spread of the anchors.
    let scale = spread(anchors).max(f64::MIN_POSITIVE);
    let snap_eps = 1e-12 * scale;

    for it in 0..opts.max_iters {
        iterations = it + 1;
        let mut numer = Coord::zero(y.dim());
        let mut denom = 0.0;
        // Ostresh modification: when the iterate coincides with an anchor,
        // the pull of the remaining anchors is compared against that
        // anchor's weight; if the resulting direction cannot escape, the
        // anchor is the optimum.
        let mut at_anchor: Option<(usize, f64)> = None;
        for (i, a) in anchors.iter().enumerate() {
            let w = weights.map_or(1.0, |w| w[i]);
            let d = a.dist(&y);
            if d <= snap_eps {
                at_anchor = Some((i, w));
                continue;
            }
            let inv = w / d;
            numer += *a * inv;
            denom += inv;
        }
        let next = if let Some((ai, aw)) = at_anchor {
            if denom == 0.0 {
                // All anchors coincide.
                break;
            }
            // R = Σ_{i≠a} w_i (a_i − y)/‖a_i − y‖ — the pull away from the
            // anchor. If ‖R‖ ≤ w_a the anchor is optimal.
            let t = numer * (1.0 / denom);
            let pull = (t - y) * denom;
            let pull_norm = pull.norm();
            if pull_norm <= aw {
                y = anchors[ai];
                break;
            }
            // Step off the anchor in the pull direction.
            let shrink = (1.0 - aw / pull_norm).max(0.0);
            y.lerp(&t, shrink)
        } else {
            numer * (1.0 / denom)
        };
        let moved = next.dist(&y);
        y = next;
        if moved <= opts.tolerance * scale.max(1.0) {
            break;
        }
    }

    let mut cost = objective(anchors, weights, &y);
    // Weiszfeld converges only sublinearly when the optimum coincides with
    // an anchor (the iterate creeps towards it without reaching it). The
    // optimum-at-anchor case is common for join replicas whose sink
    // dominates, so explicitly evaluate anchors and snap to the best one
    // when it beats the iterate. Cap the quadratic check at 64 anchors and
    // fall back to the nearest anchor beyond that.
    if anchors.len() <= 64 {
        for a in anchors {
            let c = objective(anchors, weights, a);
            if c < cost {
                cost = c;
                y = *a;
            }
        }
    } else if let Some(nearest) = anchors
        .iter()
        .min_by(|a, b| a.dist2(&y).total_cmp(&b.dist2(&y)))
    {
        let c = objective(anchors, weights, nearest);
        if c < cost {
            cost = c;
            y = *nearest;
        }
    }
    Some(MedianResult {
        point: y,
        cost,
        iterations,
    })
}

/// Geometric median via plain sub-gradient descent with a decaying step,
/// as described in the paper (§3.3, citing Ruder's overview of gradient
/// descent methods). Slower than Weiszfeld but included for fidelity and
/// used as a cross-check in tests.
pub fn geometric_median_gd(anchors: &[Coord], opts: GdOptions) -> Option<MedianResult> {
    let first = anchors.first()?;
    if anchors.len() == 1 {
        return Some(MedianResult {
            point: *first,
            cost: 0.0,
            iterations: 0,
        });
    }
    let scale = spread(anchors).max(f64::MIN_POSITIVE);
    let mut y = weighted_centroid(anchors, None);
    let mut best = y;
    let mut best_cost = objective(anchors, None, &y);
    let mut iterations = 0;
    for t in 0..opts.max_iters {
        iterations = t + 1;
        // Sub-gradient of Σ ‖a_i − y‖: Σ (y − a_i)/‖y − a_i‖ over anchors
        // not coincident with y.
        let mut grad = Coord::zero(y.dim());
        for a in anchors {
            if let Some(dir) = a.direction_to(&y, 1e-12 * scale) {
                grad += dir;
            }
        }
        let gnorm = grad.norm();
        if gnorm <= 1e-12 {
            break;
        }
        let step = opts.step * scale / (1.0 + opts.decay * t as f64);
        let next = y - grad * (step / gnorm.max(1.0) / anchors.len() as f64);
        let moved = next.dist(&y);
        y = next;
        let cost = objective(anchors, None, &y);
        if cost < best_cost {
            best_cost = cost;
            best = y;
        }
        if moved <= opts.tolerance * scale {
            break;
        }
    }
    Some(MedianResult {
        point: best,
        cost: best_cost,
        iterations,
    })
}

/// Center of the min–max objective: the point minimizing the *maximum*
/// distance to any anchor (center of the smallest enclosing ball).
///
/// Implemented with the Bădoiu–Clarkson iteration: repeatedly step towards
/// the farthest anchor with a 1/(t+1) step. The paper (§2.3) rejects this
/// objective for placement because it is sensitive to single stale
/// measurements; it is provided so the min-sum vs min-max ablation can be
/// reproduced.
pub fn minmax_center(anchors: &[Coord], iters: usize) -> Option<MedianResult> {
    let first = anchors.first()?;
    let mut y = *first;
    let mut iterations = 0;
    for t in 0..iters.max(1) {
        iterations = t + 1;
        let (far, _) = farthest(anchors, &y)?;
        y = y.lerp(&far, 1.0 / (t as f64 + 2.0));
    }
    let (_, radius) = farthest(anchors, &y)?;
    Some(MedianResult {
        point: y,
        cost: radius,
        iterations,
    })
}

fn farthest(anchors: &[Coord], y: &Coord) -> Option<(Coord, f64)> {
    anchors
        .iter()
        .map(|a| (*a, a.dist(y)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
}

fn weighted_centroid(anchors: &[Coord], weights: Option<&[f64]>) -> Coord {
    let dim = anchors[0].dim();
    let mut acc = Coord::zero(dim);
    let mut total = 0.0;
    for (i, a) in anchors.iter().enumerate() {
        let w = weights.map_or(1.0, |w| w[i]);
        acc += *a * w;
        total += w;
    }
    if total > 0.0 {
        acc * (1.0 / total)
    } else {
        Coord::centroid(anchors).unwrap_or(acc)
    }
}

/// Rough spatial scale of the anchor set: max distance from the first
/// anchor. Used to make tolerances scale-invariant.
fn spread(anchors: &[Coord]) -> f64 {
    let first = anchors[0];
    anchors.iter().map(|a| a.dist(&first)).fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Coord, b: &Coord, tol: f64) {
        assert!(
            a.dist(b) <= tol,
            "expected {a:?} ≈ {b:?} within {tol}, got distance {}",
            a.dist(b)
        );
    }

    #[test]
    fn empty_input_returns_none() {
        assert!(geometric_median(&[], MedianOptions::default()).is_none());
        assert!(geometric_median_gd(&[], GdOptions::default()).is_none());
        assert!(minmax_center(&[], 10).is_none());
    }

    #[test]
    fn single_anchor_is_its_own_median() {
        let a = Coord::xy(3.0, -1.0);
        let r = geometric_median(&[a], MedianOptions::default()).unwrap();
        assert_eq!(r.point, a);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn two_anchors_median_is_midpoint() {
        let a = Coord::xy(0.0, 0.0);
        let b = Coord::xy(4.0, 0.0);
        let r = geometric_median(&[a, b], MedianOptions::default()).unwrap();
        assert_close(&r.point, &Coord::xy(2.0, 0.0), 1e-9);
        assert!((r.cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn equilateral_triangle_median_is_centroid() {
        // For an equilateral triangle the Fermat point is the centroid.
        let h = 3f64.sqrt() / 2.0;
        let anchors = [Coord::xy(0.0, 0.0), Coord::xy(1.0, 0.0), Coord::xy(0.5, h)];
        let r = geometric_median(&anchors, MedianOptions::default()).unwrap();
        let centroid = Coord::centroid(&anchors).unwrap();
        assert_close(&r.point, &centroid, 1e-6);
    }

    #[test]
    fn wide_angle_triangle_median_is_the_obtuse_vertex() {
        // When one vertex angle exceeds 120°, the Fermat point IS that
        // vertex. Vertex at origin with a ~170° angle.
        let anchors = [
            Coord::xy(0.0, 0.0),
            Coord::xy(10.0, 0.9),
            Coord::xy(-10.0, 0.9),
        ];
        let r = geometric_median(&anchors, MedianOptions::default()).unwrap();
        assert_close(&r.point, &anchors[0], 1e-5);
    }

    #[test]
    fn square_median_is_center() {
        let anchors = [
            Coord::xy(0.0, 0.0),
            Coord::xy(2.0, 0.0),
            Coord::xy(2.0, 2.0),
            Coord::xy(0.0, 2.0),
        ];
        let r = geometric_median(&anchors, MedianOptions::default()).unwrap();
        assert_close(&r.point, &Coord::xy(1.0, 1.0), 1e-7);
    }

    #[test]
    fn weiszfeld_and_gradient_descent_agree() {
        let anchors = [
            Coord::xy(0.0, 0.0),
            Coord::xy(10.0, 1.0),
            Coord::xy(4.0, 8.0),
            Coord::xy(-3.0, 5.0),
        ];
        let w = geometric_median(&anchors, MedianOptions::default()).unwrap();
        let g = geometric_median_gd(
            &anchors,
            GdOptions {
                max_iters: 20_000,
                ..GdOptions::default()
            },
        )
        .unwrap();
        assert!(
            (w.cost - g.cost).abs() < 1e-2 * w.cost.max(1.0),
            "weiszfeld cost {} vs gd cost {}",
            w.cost,
            g.cost
        );
    }

    #[test]
    fn weighted_median_pulls_towards_heavy_anchor() {
        let a = Coord::xy(0.0, 0.0);
        let b = Coord::xy(10.0, 0.0);
        let c = Coord::xy(5.0, 10.0);
        // Weight anchor `a` heavily: optimum must be (much) closer to `a`.
        let heavy = weighted_geometric_median(
            &[a, b, c],
            Some(&[10.0, 1.0, 1.0]),
            MedianOptions::default(),
        )
        .unwrap();
        assert!(heavy.point.dist(&a) < 1e-6, "heavy point {:?}", heavy.point);
    }

    #[test]
    fn median_on_anchor_start_does_not_stall() {
        // Centroid coincides with one anchor: Ostresh handling must still
        // find the true optimum.
        let anchors = [
            Coord::xy(0.0, 0.0),
            Coord::xy(4.0, 0.0),
            Coord::xy(-4.0, 0.0),
            Coord::xy(0.0, 4.0),
            Coord::xy(0.0, -4.0),
        ];
        let r = geometric_median(&anchors, MedianOptions::default()).unwrap();
        // The optimum of this symmetric cross is the origin itself.
        assert_close(&r.point, &Coord::xy(0.0, 0.0), 1e-9);
    }

    #[test]
    fn collinear_anchors_take_middle_point() {
        let anchors = [
            Coord::xy(0.0, 0.0),
            Coord::xy(1.0, 0.0),
            Coord::xy(5.0, 0.0),
        ];
        let r = geometric_median(&anchors, MedianOptions::default()).unwrap();
        // 1-D median of {0, 1, 5} is 1.
        assert_close(&r.point, &Coord::xy(1.0, 0.0), 1e-6);
    }

    #[test]
    fn all_identical_anchors() {
        let p = Coord::xy(2.0, 2.0);
        let r = geometric_median(&[p, p, p], MedianOptions::default()).unwrap();
        assert_close(&r.point, &p, 1e-12);
        assert!(r.cost < 1e-9);
    }

    #[test]
    fn minmax_center_of_two_points_is_midpoint() {
        let a = Coord::xy(0.0, 0.0);
        let b = Coord::xy(10.0, 0.0);
        let r = minmax_center(&[a, b], 5000).unwrap();
        assert_close(&r.point, &Coord::xy(5.0, 0.0), 0.1);
        assert!((r.cost - 5.0).abs() < 0.1);
    }

    #[test]
    fn minmax_differs_from_minsum_on_skewed_input() {
        // Cluster of anchors near origin plus one far outlier: the min-sum
        // median stays near the cluster, the min-max center moves halfway.
        let mut anchors = vec![
            Coord::xy(0.0, 0.0),
            Coord::xy(1.0, 0.0),
            Coord::xy(0.0, 1.0),
            Coord::xy(1.0, 1.0),
        ];
        anchors.push(Coord::xy(100.0, 0.0));
        let sum = geometric_median(&anchors, MedianOptions::default()).unwrap();
        let max = minmax_center(&anchors, 5000).unwrap();
        assert!(
            sum.point[0] < 5.0,
            "min-sum stays near cluster: {:?}",
            sum.point
        );
        assert!(
            max.point[0] > 40.0,
            "min-max moves to the middle: {:?}",
            max.point
        );
    }

    #[test]
    fn median_works_in_three_dimensions() {
        let anchors = [
            Coord::xyz(0.0, 0.0, 0.0),
            Coord::xyz(2.0, 0.0, 0.0),
            Coord::xyz(0.0, 2.0, 0.0),
            Coord::xyz(0.0, 0.0, 2.0),
        ];
        let r = geometric_median(&anchors, MedianOptions::default()).unwrap();
        assert!(r.point.is_finite());
        // Optimum is strictly inside the tetrahedron.
        for a in &anchors {
            assert!(r.point.dist(a) > 0.1);
        }
    }
}
